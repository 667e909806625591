//! Strongly-typed identifiers for OSM entities.
//!
//! Newtypes instead of bare integers so an element id can never be passed
//! where a changeset id is expected — the collector joins diffs against
//! changesets by id and a silent mix-up would corrupt every downstream cube.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident($inner:ty)) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// The raw integer value.
            #[inline]
            pub fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }
    };
}

id_type! {
    /// Identifier of an OSM element (node, way, or relation). Ids are only
    /// unique *within* an element type, as in OSM itself.
    ElementId(i64)
}

id_type! {
    /// Identifier of a changeset — the unit of update submission (§II-B).
    ChangesetId(u64)
}

id_type! {
    /// Identifier of a contributing user.
    UserId(u64)
}

/// An element version number. OSM versions start at 1 for the creating edit
/// and increase by one per modification; deletion produces a final version
/// with `visible = false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Version(pub u32);

impl Version {
    /// The version assigned by the creating edit.
    pub(crate) const FIRST: Version = Version(1);

    /// The raw version number.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The next version after this one.
    #[inline]
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }

    /// True for the creating version.
    #[inline]
    pub fn is_first(self) -> bool {
        self.0 == 1
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_lifecycle() {
        let v = Version::FIRST;
        assert!(v.is_first());
        assert_eq!(v.next(), Version(2));
        assert!(!v.next().is_first());
    }

    #[test]
    fn ids_are_distinct_types_with_display() {
        let e = ElementId(42);
        let c = ChangesetId(42);
        assert_eq!(e.to_string(), "42");
        assert_eq!(c.to_string(), "42");
        assert_eq!(e.raw(), 42);
        // Ordering and hashing come for free.
        assert!(ElementId(1) < ElementId(2));
    }
}
