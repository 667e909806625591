//! The roll-up laws of the temporal hierarchy, Day → Week → Month → Year
//! (§VI-A), stated as a [`Hierarchy`] trait and checked over [`Period`]
//! through [`TimeHierarchy`]. The level optimizer (§VII-B) answers at a
//! parent instead of its children only because these hold. Nothing outside
//! these tests implements or calls the trait, so the module is compiled for
//! tests only:
//!
//! 1. `level_of(parent(n)) > level_of(n)` — roll-ups go strictly coarser.
//! 2. `children(n)` all sit strictly finer than `n`, and `n` subsumes each.
//! 3. `subsumes` is reflexive, and `parent(n)` subsumes `n` when present.

use crate::period::{Granularity, Period};

/// A roll-up dimension: nodes at ordered levels with a parent/children
/// structure whose unions are exact (no overlap, no gaps within a parent).
pub(crate) trait Hierarchy {
    /// A level of the hierarchy; `Ord` runs finest → coarsest.
    type Level: Copy + Eq + Ord;
    /// A node (one concrete extent) of the hierarchy.
    type Node: Copy + Eq;

    /// All levels, finest first.
    fn levels(&self) -> Vec<Self::Level>;

    /// The level `n` sits at.
    fn level_of(&self, n: Self::Node) -> Self::Level;

    /// The node one level coarser whose extent contains `n`, if any.
    /// `None` for top-level nodes *and* for nodes that straddle the
    /// coarser partition (e.g. a week straddling a month boundary).
    fn parent(&self, n: Self::Node) -> Option<Self::Node>;

    /// The finer nodes whose disjoint union is exactly `n`'s extent.
    /// Empty for leaf nodes.
    fn children(&self, n: Self::Node) -> Vec<Self::Node>;

    /// True when `a`'s extent contains `b`'s entirely — answering at `a`
    /// makes fetching `b` redundant.
    fn subsumes(&self, a: Self::Node, b: Self::Node) -> bool;
}

/// The temporal hierarchy of the paper (§VI-A): Day → Week → Month → Year,
/// with Sunday-aligned weeks and straddling weeks parentless.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TimeHierarchy;

impl Hierarchy for TimeHierarchy {
    type Level = Granularity;
    type Node = Period;

    fn levels(&self) -> Vec<Granularity> {
        Granularity::ALL.to_vec()
    }

    fn level_of(&self, n: Period) -> Granularity {
        n.granularity()
    }

    fn parent(&self, n: Period) -> Option<Period> {
        n.parent()
    }

    fn children(&self, n: Period) -> Vec<Period> {
        n.children()
    }

    fn subsumes(&self, a: Period, b: Period) -> bool {
        a.start() <= b.start() && b.end() <= a.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::date::Date;

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    /// Nodes sampled across every level, including the awkward cases
    /// (straddling week, leap February).
    fn sample_nodes() -> Vec<Period> {
        vec![
            Period::Day(d("2020-02-29")),
            Period::Day(d("2022-01-01")),
            Period::Week(d("2022-01-02")),
            Period::Week(d("2022-01-30")), // straddles Jan/Feb
            Period::Month(2020, 2),
            Period::Month(2022, 12),
            Period::Year(2021),
        ]
    }

    #[test]
    fn levels_run_finest_first() {
        let h = TimeHierarchy;
        let levels = h.levels();
        assert_eq!(levels.first(), Some(&Granularity::Day));
        assert_eq!(levels.last(), Some(&Granularity::Year));
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn law_parent_is_strictly_coarser_and_subsumes() {
        let h = TimeHierarchy;
        for n in sample_nodes() {
            if let Some(p) = h.parent(n) {
                assert!(h.level_of(p) > h.level_of(n), "{n} -> {p}");
                assert!(h.subsumes(p, n), "{p} must subsume {n}");
                assert!(!h.subsumes(n, p), "{n} must not subsume {p}");
            }
        }
    }

    #[test]
    fn law_children_partition_and_are_subsumed() {
        let h = TimeHierarchy;
        for n in sample_nodes() {
            let kids = h.children(n);
            if h.level_of(n) == Granularity::Day {
                assert!(kids.is_empty());
                continue;
            }
            assert!(!kids.is_empty(), "{n}");
            // Exact partition: the concatenated child day-extents equal
            // the parent's, in order and without overlap.
            let mut days = Vec::new();
            for k in &kids {
                assert!(h.level_of(*k) < h.level_of(n), "{k} under {n}");
                assert!(h.subsumes(n, *k), "{n} must subsume {k}");
                days.extend(k.range().days());
            }
            let expect: Vec<Date> = n.range().days().collect();
            assert_eq!(days, expect, "children of {n} must partition it");
        }
    }

    #[test]
    fn law_subsumes_is_reflexive() {
        let h = TimeHierarchy;
        for n in sample_nodes() {
            assert!(h.subsumes(n, n), "{n}");
        }
    }

    #[test]
    fn straddling_week_has_no_parent_but_its_days_do() {
        let h = TimeHierarchy;
        let w = Period::Week(d("2022-01-30"));
        assert_eq!(h.parent(w), None);
        for day in h.children(w) {
            assert!(h.parent(day).is_some(), "{day}");
        }
    }
}
