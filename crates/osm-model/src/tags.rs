//! OSM tags: ordered `key=value` string pairs.

use std::fmt;

/// A collection of OSM tags.
///
/// OSM elements carry at most a handful of tags, so a sorted `Vec` of pairs
/// beats a hash map here: cheaper to build, cache-friendly to scan, and
/// deterministic to serialize (important for the full-history writer, whose
/// output the monthly crawler diffs byte-meaningfully).
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct Tags {
    // Sorted by key; keys are unique.
    pairs: Vec<(String, String)>,
}

impl Tags {
    /// An empty tag set.
    pub fn new() -> Tags {
        Tags::default()
    }

    /// Build from any iterator of pairs; later duplicates win, output sorted.
    pub fn from_pairs<I, K, V>(iter: I) -> Tags
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        let mut t = Tags::new();
        for (k, v) in iter {
            t.set(k, v);
        }
        t
    }

    /// Number of tags.
    #[inline]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no tags are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Look up a tag value by key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .and_then(|i| self.pairs.get(i))
            .map(|(_, v)| v.as_str())
    }

    /// True when the key is present.
    #[inline]
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Insert or replace a tag. Returns the previous value, if any.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) -> Option<String> {
        let key = key.into();
        let value = value.into();
        match self.pairs.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
            Ok(i) => self.pairs.get_mut(i).map(|(_, v)| std::mem::replace(v, value)),
            Err(i) => {
                self.pairs.insert(i, (key, value));
                None
            }
        }
    }

    /// Remove a tag by key, returning its value if it was present.
    pub fn remove(&mut self, key: &str) -> Option<String> {
        match self.pairs.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => Some(self.pairs.remove(i).1),
            Err(_) => None,
        }
    }

    /// Iterate `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.pairs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// The `highway=*` value, if present — the tag that marks an element as
    /// part of the road network and determines its RASED road type.
    #[inline]
    pub fn highway(&self) -> Option<&str> {
        self.get("highway")
    }
}

impl fmt::Display for Tags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in self.iter() {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        Ok(())
    }
}

impl<K: Into<String>, V: Into<String>> FromIterator<(K, V)> for Tags {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Tags {
        Tags::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut t = Tags::new();
        assert!(t.is_empty());
        assert_eq!(t.set("highway", "residential"), None);
        assert_eq!(t.set("name", "Elm St"), None);
        assert_eq!(t.get("highway"), Some("residential"));
        assert_eq!(t.set("highway", "primary"), Some("residential".to_string()));
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove("name"), Some("Elm St".to_string()));
        assert_eq!(t.remove("name"), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn pairs_stay_sorted_and_unique() {
        let t = Tags::from_pairs([("b", "2"), ("a", "1"), ("c", "3"), ("a", "override")]);
        let keys: Vec<&str> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "b", "c"]);
        assert_eq!(t.get("a"), Some("override"));
    }

    #[test]
    fn highway_helper() {
        let t = Tags::from_pairs([("highway", "trunk")]);
        assert_eq!(t.highway(), Some("trunk"));
        assert_eq!(Tags::new().highway(), None);
    }

    #[test]
    fn display_is_ordered() {
        let t = Tags::from_pairs([("b", "2"), ("a", "1")]);
        assert_eq!(t.to_string(), "a=1, b=2");
    }
}
