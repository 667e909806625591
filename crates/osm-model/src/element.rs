//! OSM elements: nodes, ways, relations (§II-A).

use crate::ids::{ChangesetId, ElementId, UserId, Version};
use crate::tags::Tags;
use rased_temporal::Date;
use std::fmt;

/// The three OSM element kinds (§II-A). This is also the first dimension of
/// every RASED data cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum ElementType {
    Node = 0,
    Way = 1,
    Relation = 2,
}

impl ElementType {
    /// Number of element types — the cube-dimension cardinality.
    pub const CARDINALITY: usize = 3;
    /// All element types, in cube-dimension order.
    pub const ALL: [ElementType; 3] = [ElementType::Node, ElementType::Way, ElementType::Relation];

    /// Cube-dimension index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`ElementType::index`].
    pub fn from_index(i: usize) -> Option<ElementType> {
        match i {
            0 => Some(ElementType::Node),
            1 => Some(ElementType::Way),
            2 => Some(ElementType::Relation),
            _ => None,
        }
    }

    /// The XML tag name used in OSM files (`node`, `way`, `relation`).
    pub fn xml_name(self) -> &'static str {
        match self {
            ElementType::Node => "node",
            ElementType::Way => "way",
            ElementType::Relation => "relation",
        }
    }

    /// Parse an XML tag name.
    pub fn from_xml_name(s: &str) -> Option<ElementType> {
        match s {
            "node" => Some(ElementType::Node),
            "way" => Some(ElementType::Way),
            "relation" => Some(ElementType::Relation),
            _ => None,
        }
    }
}

impl fmt::Display for ElementType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.xml_name())
    }
}

/// Version/audit metadata shared by every element version: who changed it,
/// when, in which changeset, and whether the version is still visible
/// (deleted elements keep a final, invisible version — §V, Monthly Crawler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionInfo {
    pub version: Version,
    pub date: Date,
    pub changeset: ChangesetId,
    pub user: UserId,
    /// `false` exactly for the tombstone version written by a delete.
    pub visible: bool,
}

impl VersionInfo {
    /// Metadata for a creating version.
    pub fn first(date: Date, changeset: ChangesetId, user: UserId) -> VersionInfo {
        VersionInfo { version: Version::FIRST, date, changeset, user, visible: true }
    }
}

/// A node: a point with latitude/longitude in 1e-7° fixed point (the OSM
/// wire precision; `i32` covers ±214° so the whole globe fits).
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    pub id: ElementId,
    pub info: VersionInfo,
    pub lat7: i32,
    pub lon7: i32,
    pub tags: Tags,
}

impl Node {
    /// Latitude in degrees.
    #[inline]
    pub fn lat(&self) -> f64 {
        self.lat7 as f64 * 1e-7
    }

    /// Longitude in degrees.
    #[inline]
    pub fn lon(&self) -> f64 {
        self.lon7 as f64 * 1e-7
    }
}

/// A way: an ordered list of node references forming connected segments.
#[derive(Debug, Clone, PartialEq)]
pub struct Way {
    pub id: ElementId,
    pub info: VersionInfo,
    pub nodes: Vec<ElementId>,
    pub tags: Tags,
}

/// A member of a relation: a typed element reference with a role string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberRef {
    pub element_type: ElementType,
    pub id: ElementId,
    pub role: String,
}

/// A relation: relates elements of any type (used for multi-part roads,
/// routes, turn restrictions, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    pub id: ElementId,
    pub info: VersionInfo,
    pub members: Vec<MemberRef>,
    pub tags: Tags,
}

/// Any OSM element. One version of one entity; full-history files carry many
/// `Element`s per `(type, id)`.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    Node(Node),
    Way(Way),
    Relation(Relation),
}

impl Element {
    /// The element kind.
    pub fn element_type(&self) -> ElementType {
        match self {
            Element::Node(_) => ElementType::Node,
            Element::Way(_) => ElementType::Way,
            Element::Relation(_) => ElementType::Relation,
        }
    }

    /// The element id (unique within its type).
    pub fn id(&self) -> ElementId {
        match self {
            Element::Node(n) => n.id,
            Element::Way(w) => w.id,
            Element::Relation(r) => r.id,
        }
    }

    /// The version/audit metadata.
    pub fn info(&self) -> &VersionInfo {
        match self {
            Element::Node(n) => &n.info,
            Element::Way(w) => &w.info,
            Element::Relation(r) => &r.info,
        }
    }

    /// Mutable version/audit metadata.
    pub fn info_mut(&mut self) -> &mut VersionInfo {
        match self {
            Element::Node(n) => &mut n.info,
            Element::Way(w) => &mut w.info,
            Element::Relation(r) => &mut r.info,
        }
    }

    /// The element's tags.
    pub fn tags(&self) -> &Tags {
        match self {
            Element::Node(n) => &n.tags,
            Element::Way(w) => &w.tags,
            Element::Relation(r) => &r.tags,
        }
    }

    /// Mutable tags.
    pub fn tags_mut(&mut self) -> &mut Tags {
        match self {
            Element::Node(n) => &mut n.tags,
            Element::Way(w) => &mut w.tags,
            Element::Relation(r) => &mut r.tags,
        }
    }

    /// The "geometry" of an element for update classification (§V, Monthly
    /// Crawler): a node's coordinates, or the member/node-reference list of
    /// a way/relation. Two versions with equal geometry but different tags
    /// constitute a *metadata* update; differing geometry is a *geometry*
    /// update.
    pub fn geometry_eq(&self, other: &Element) -> bool {
        match (self, other) {
            (Element::Node(a), Element::Node(b)) => a.lat7 == b.lat7 && a.lon7 == b.lon7,
            (Element::Way(a), Element::Way(b)) => a.nodes == b.nodes,
            (Element::Relation(a), Element::Relation(b)) => a.members == b.members,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Node {
        /// Convert degrees to the 1e-7 fixed-point wire representation.
        #[inline]
        fn deg_to_fixed(deg: f64) -> i32 {
            (deg * 1e7).round() as i32
        }
    }

    fn info() -> VersionInfo {
        VersionInfo::first("2021-03-04".parse().unwrap(), ChangesetId(7), UserId(1))
    }

    fn node(lat7: i32, lon7: i32) -> Node {
        Node { id: ElementId(1), info: info(), lat7, lon7, tags: Tags::new() }
    }

    #[test]
    fn element_type_indexing_roundtrip() {
        for t in ElementType::ALL {
            assert_eq!(ElementType::from_index(t.index()), Some(t));
            assert_eq!(ElementType::from_xml_name(t.xml_name()), Some(t));
        }
        assert_eq!(ElementType::from_index(3), None);
        assert_eq!(ElementType::from_xml_name("bogus"), None);
    }

    #[test]
    fn node_fixed_point_conversions() {
        let n = node(Node::deg_to_fixed(44.97), Node::deg_to_fixed(-93.26));
        assert!((n.lat() - 44.97).abs() < 1e-6);
        assert!((n.lon() + 93.26).abs() < 1e-6);
    }

    #[test]
    fn geometry_comparison_per_type() {
        let a = Element::Node(node(10, 20));
        let b = Element::Node(node(10, 20));
        let c = Element::Node(node(10, 21));
        assert!(a.geometry_eq(&b));
        assert!(!a.geometry_eq(&c));

        let w1 = Element::Way(Way { id: ElementId(5), info: info(), nodes: vec![ElementId(1), ElementId(2)], tags: Tags::new() });
        let mut w2 = w1.clone();
        assert!(w1.geometry_eq(&w2));
        if let Element::Way(w) = &mut w2 {
            w.nodes.push(ElementId(3));
        }
        assert!(!w1.geometry_eq(&w2));
        // Cross-type geometry never matches.
        assert!(!a.geometry_eq(&w1));
    }

    #[test]
    fn metadata_vs_geometry_distinction() {
        let mut a = Element::Node(node(10, 20));
        let b = a.clone();
        a.tags_mut().set("name", "somewhere");
        // Same geometry, different tags → the monthly crawler calls this a
        // metadata update.
        assert!(a.geometry_eq(&b));
        assert_ne!(a.tags(), b.tags());
    }

    #[test]
    fn tombstone_visibility() {
        let mut e = Element::Node(node(1, 2));
        assert!(e.info().visible);
        e.info_mut().visible = false;
        e.info_mut().version = e.info().version.next();
        assert!(!e.info().visible);
        assert_eq!(e.info().version, Version(2));
    }
}
