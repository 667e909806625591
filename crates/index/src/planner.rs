//! The level optimizer (§VII-B).
//!
//! A query window can be covered by cubes at a mix of granularities; the
//! optimizer picks the cover that retrieves the fewest cubes *from disk*,
//! given which cubes the cache currently holds, breaking ties on total cube
//! count. The paper's worked example — Jan 1 2022..Feb 15 2022 answered by
//! either 46 daily cubes, or 6 weekly + 4 daily, or 1 monthly + 1 weekly +
//! 8 daily — is reproduced verbatim in the tests below.

use rased_geo::CellId;
use rased_temporal::{DateRange, Granularity, Period};

/// Where a planned cube will come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CubeSource {
    /// Cube is in the cache — no I/O.
    Cache,
    /// Cube must be read from disk.
    Disk,
    /// No cube exists for this day, which (by the ingestion invariant:
    /// every day with data has a daily cube) means the day contributes
    /// nothing. Covered for free.
    Empty,
}

/// One cube of a query plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedCube {
    pub period: Period,
    pub source: CubeSource,
}

/// A complete, gap-free cover of the query window.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryPlan {
    pub cubes: Vec<PlannedCube>,
}

impl QueryPlan {
    /// Number of cubes that must be fetched from disk.
    pub fn disk_fetches(&self) -> usize {
        self.cubes.iter().filter(|c| c.source == CubeSource::Disk).count()
    }

    /// Number of cubes served from cache.
    pub fn cache_hits(&self) -> usize {
        self.cubes.iter().filter(|c| c.source == CubeSource::Cache).count()
    }

    /// Total cubes touched (cache + disk; empty days excluded).
    pub fn cube_count(&self) -> usize {
        self.cubes.iter().filter(|c| c.source != CubeSource::Empty).count()
    }
}

/// Which planning algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerKind {
    /// Exact dynamic program: optimal in (disk fetches, cube count).
    ExactDp,
    /// Greedy coarsest-first with cache preference — the ablation baseline.
    Greedy,
}

/// The level optimizer. Generic over two probes so it can be tested without
/// a real index: `exists` answers "is there a cube for this period?" and
/// `cached` answers "is it in memory?".
pub struct LevelPlanner<'a> {
    /// Number of enabled index levels: 1 = daily only … 4 = all.
    levels: u8,
    exists: &'a dyn Fn(Period) -> bool,
    cached: &'a dyn Fn(Period) -> bool,
}

impl<'a> LevelPlanner<'a> {
    /// Create a planner over the given probes.
    ///
    /// # Panics
    /// Panics when `levels` is not in 1..=4.
    pub fn new(
        levels: u8,
        exists: &'a dyn Fn(Period) -> bool,
        cached: &'a dyn Fn(Period) -> bool,
    ) -> LevelPlanner<'a> {
        assert!((1..=4).contains(&levels), "levels must be 1..=4");
        LevelPlanner { levels, exists, cached }
    }

    fn enabled(&self) -> &'static [Granularity] {
        Granularity::ALL.get(..self.levels as usize).unwrap_or(&Granularity::ALL)
    }

    /// Plan a cover of `range` with the chosen algorithm.
    pub fn plan(&self, range: DateRange, kind: PlannerKind) -> QueryPlan {
        match kind {
            PlannerKind::ExactDp => self.plan_dp(range),
            PlannerKind::Greedy => self.plan_greedy(range),
        }
    }

    /// Classify a usable candidate cube.
    fn source_of(&self, p: Period) -> Option<CubeSource> {
        if (self.cached)(p) {
            Some(CubeSource::Cache)
        } else if (self.exists)(p) {
            Some(CubeSource::Disk)
        } else if p.granularity() == Granularity::Day {
            // Missing day ⇒ no data that day (ingestion invariant).
            Some(CubeSource::Empty)
        } else {
            None // coarser cube not materialized — unusable
        }
    }

    fn cost_of(source: CubeSource) -> (u64, u64) {
        match source {
            CubeSource::Cache => (0, 1),
            CubeSource::Disk => (1, 1),
            CubeSource::Empty => (0, 0),
        }
    }

    /// Exact DP over the days of the window. `best[i]` = minimal
    /// (disk, cubes) cost covering days `i..n`; each state tries every
    /// enabled granularity whose period starts exactly at day `i` and ends
    /// within the window. O(days × levels).
    fn plan_dp(&self, range: DateRange) -> QueryPlan {
        let n = range.len_days() as usize;
        let start = range.start();
        // best[i]: (cost, chosen period+source) for suffix starting at day
        // i; best[n] is the empty suffix.
        const INF: (u64, u64) = (u64::MAX, u64::MAX);
        let mut best: Vec<((u64, u64), Option<PlannedCube>)> = vec![(INF, None); n];
        best.push(((0, 0), None));

        for i in (0..n).rev() {
            let day = start.add_days(i as i32);
            let mut here = (INF, None);
            for &g in self.enabled() {
                let p = Period::containing(g, day);
                if p.start() != day {
                    continue; // not aligned at this position
                }
                // No suffix state past best[n]: the period sticks out of
                // the window.
                let Some(&((sd, sc), _)) = best.get(i + p.len_days() as usize) else { continue };
                let Some(source) = self.source_of(p) else { continue };
                let (cd, cc) = Self::cost_of(source);
                if sd == u64::MAX {
                    continue;
                }
                let cand = (cd + sd, cc + sc);
                if cand < here.0 {
                    here = (cand, Some(PlannedCube { period: p, source }));
                }
            }
            // Day granularity is always enabled and always aligned, so
            // best[i] is always reachable.
            debug_assert_ne!(here.0, INF, "day {day} unreachable");
            if let Some(slot) = best.get_mut(i) {
                *slot = here;
            }
        }

        let mut cubes = Vec::new();
        let mut i = 0usize;
        while i < n {
            // Day granularity is always enabled and day periods are aligned
            // at every position, so the DP fills every suffix state: the
            // day-cube candidate sets best[i]'s choice whenever best[i+1] is
            // reachable, and best[n] is the base case.
            #[expect(clippy::expect_used, reason = "DP invariant: day level makes every suffix state reachable")]
            let c = best.get(i).and_then(|&(_, c)| c).expect("reachable state");
            cubes.push(c);
            i += c.period.len_days() as usize;
        }
        QueryPlan { cubes }
    }

    /// Greedy ablation: at each position take the coarsest aligned usable
    /// period, preferring a cached one of any granularity first.
    fn plan_greedy(&self, range: DateRange) -> QueryPlan {
        let mut cubes = Vec::new();
        let mut day = range.start();
        while day <= range.end() {
            let mut chosen: Option<PlannedCube> = None;
            // Pass 1: coarsest cached period.
            for &g in self.enabled().iter().rev() {
                let p = Period::containing(g, day);
                if p.start() == day && p.end() <= range.end() && (self.cached)(p) {
                    chosen = Some(PlannedCube { period: p, source: CubeSource::Cache });
                    break;
                }
            }
            // Pass 2: coarsest existing period.
            if chosen.is_none() {
                for &g in self.enabled().iter().rev() {
                    let p = Period::containing(g, day);
                    if p.start() == day && p.end() <= range.end() {
                        if let Some(source) = self.source_of(p) {
                            chosen = Some(PlannedCube { period: p, source });
                            break;
                        }
                    }
                }
            }
            // Pass 2 always finds at least the day period: day granularity
            // is always enabled, a day aligns at every date, and
            // source_of(day) always yields Build if nothing is stored.
            #[expect(clippy::expect_used, reason = "day granularity is always enabled and aligned, so pass 2 cannot miss")]
            let c = chosen.expect("day level always usable");
            cubes.push(c);
            day = c.period.end().succ();
        }
        QueryPlan { cubes }
    }
}

/// Where a planned viewport element comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockSource {
    /// A materialized spatial block (day or month — see the period).
    Block,
    /// Nothing materialized: the engine scans warehouse rows for this
    /// (cell, day). Exact either way — the bank is an accelerator.
    Scan,
}

/// One (cell, period) element of a viewport plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedBlock {
    pub cell: CellId,
    pub period: Period,
    pub source: BlockSource,
}

/// A per-cell cover of a viewport query: for every cell of the bbox cover,
/// a gap-free sequence of month blocks, day blocks, and scan days.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ViewportPlan {
    pub blocks: Vec<PlannedBlock>,
}

impl ViewportPlan {
    /// Materialized blocks that must be fetched (one small page each).
    pub fn block_fetches(&self) -> usize {
        self.blocks.iter().filter(|b| b.source == BlockSource::Block).count()
    }

    /// (cell, day) pairs that fall back to a warehouse scan.
    pub fn scan_days(&self) -> usize {
        self.blocks.iter().filter(|b| b.source == BlockSource::Scan).count()
    }
}

/// The multi-hierarchy planner: covers a query with the cheapest mix of
/// points from the (time × space) subsumption lattice. Temporal covers come
/// from [`LevelPlanner`]; this layer adds the spatial axis, probing block
/// existence the same way `LevelPlanner` probes cubes.
pub struct LatticePlanner<'a> {
    block_exists: &'a dyn Fn(CellId, Period) -> bool,
}

impl<'a> LatticePlanner<'a> {
    /// Create a planner over a block-existence probe (normally
    /// `SpatialBank::has_block` against pinned per-band snapshots).
    pub fn new(block_exists: &'a dyn Fn(CellId, Period) -> bool) -> LatticePlanner<'a> {
        LatticePlanner { block_exists }
    }

    /// Plan a viewport query: for each cover cell, greedily take a month
    /// block when the month lies fully inside the window and is
    /// materialized, else the day block, else a scan day. The bank holds
    /// no week or year blocks, so the two-rung greedy is optimal per cell:
    /// a month block is never worse than its ≤31 day entries.
    pub fn plan_viewport(&self, cells: &[CellId], range: DateRange) -> ViewportPlan {
        let mut blocks = Vec::new();
        for &cell in cells {
            let mut day = range.start();
            while day <= range.end() {
                let month = Period::month_of(day);
                if month.start() == day
                    && month.end() <= range.end()
                    && (self.block_exists)(cell, month)
                {
                    blocks.push(PlannedBlock { cell, period: month, source: BlockSource::Block });
                    day = month.end().succ();
                    continue;
                }
                let p = Period::Day(day);
                let source = if (self.block_exists)(cell, p) {
                    BlockSource::Block
                } else {
                    BlockSource::Scan
                };
                blocks.push(PlannedBlock { cell, period: p, source });
                day = day.succ();
            }
        }
        ViewportPlan { blocks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rased_temporal::Date;
    use std::collections::HashSet;

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    fn r(a: &str, b: &str) -> DateRange {
        DateRange::new(d(a), d(b))
    }

    /// An index where every period (any granularity) is materialized.
    fn all_exist(_: Period) -> bool {
        true
    }

    fn none_cached(_: Period) -> bool {
        false
    }

    /// Verify a plan covers the range exactly, in order, with no overlap.
    fn assert_exact_cover(plan: &QueryPlan, range: DateRange) {
        let mut day = range.start();
        for c in &plan.cubes {
            assert_eq!(c.period.start(), day, "gap or overlap at {day}");
            day = c.period.end().succ();
        }
        assert_eq!(day, range.end().succ(), "plan does not reach range end");
    }

    #[test]
    fn paper_example_uncached_uses_ten_cubes() {
        // §VII-B: Jan 1 2022 .. Feb 15 2022. Plans (b) and (c) both use
        // 10 cubes; the DP must find cost 10.
        let range = r("2022-01-01", "2022-02-15");
        let planner = LevelPlanner::new(4, &all_exist, &none_cached);
        let plan = planner.plan(range, PlannerKind::ExactDp);
        assert_exact_cover(&plan, range);
        assert_eq!(plan.cube_count(), 10, "{:?}", plan.cubes);
        assert_eq!(plan.disk_fetches(), 10);
    }

    #[test]
    fn paper_example_with_daily_cache_prefers_plan_a() {
        // §VII-B continued: with the last 60 daily cubes cached and nothing
        // else, the 46-daily-cube plan (a) wins with zero disk access.
        let range = r("2022-01-01", "2022-02-15");
        let cached = |p: Period| {
            p.granularity() == Granularity::Day && p.start() >= d("2021-12-18")
        };
        let planner = LevelPlanner::new(4, &all_exist, &cached);
        let plan = planner.plan(range, PlannerKind::ExactDp);
        assert_exact_cover(&plan, range);
        assert_eq!(plan.disk_fetches(), 0);
        assert_eq!(plan.cube_count(), 46);
        assert!(plan.cubes.iter().all(|c| c.period.granularity() == Granularity::Day));
    }

    #[test]
    fn partial_cache_mixes_levels() {
        // Cache only the January monthly cube: optimal = 1 cached month +
        // 1 week + 8 days from disk (plan (c) with the month free).
        let range = r("2022-01-01", "2022-02-15");
        let cached = |p: Period| p == Period::Month(2022, 1);
        let planner = LevelPlanner::new(4, &all_exist, &cached);
        let plan = planner.plan(range, PlannerKind::ExactDp);
        assert_exact_cover(&plan, range);
        assert_eq!(plan.cache_hits(), 1);
        assert_eq!(plan.disk_fetches(), 9);
    }

    #[test]
    fn flat_index_uses_days_only() {
        let range = r("2022-01-01", "2022-03-31");
        let planner = LevelPlanner::new(1, &all_exist, &none_cached);
        let plan = planner.plan(range, PlannerKind::ExactDp);
        assert_exact_cover(&plan, range);
        assert_eq!(plan.cube_count(), 90);
        assert!(plan.cubes.iter().all(|c| c.period.granularity() == Granularity::Day));
    }

    #[test]
    fn full_years_collapse_to_year_cubes() {
        let range = r("2020-01-01", "2021-12-31");
        let planner = LevelPlanner::new(4, &all_exist, &none_cached);
        let plan = planner.plan(range, PlannerKind::ExactDp);
        assert_exact_cover(&plan, range);
        assert_eq!(plan.cube_count(), 2);
        assert!(plan.cubes.iter().all(|c| c.period.granularity() == Granularity::Year));
    }

    #[test]
    fn missing_coarse_cubes_fall_back() {
        // Only daily cubes exist (e.g. right after ingest, before roll-up).
        let exists = |p: Period| p.granularity() == Granularity::Day;
        let range = r("2022-01-01", "2022-01-31");
        let planner = LevelPlanner::new(4, &exists, &none_cached);
        let plan = planner.plan(range, PlannerKind::ExactDp);
        assert_exact_cover(&plan, range);
        assert_eq!(plan.cube_count(), 31);
    }

    #[test]
    fn missing_days_are_free() {
        // No cubes at all: the window predates the dataset. Plan covers it
        // with empty days at zero cost.
        let exists = |_: Period| false;
        let range = r("2003-01-01", "2003-01-10");
        let planner = LevelPlanner::new(4, &exists, &none_cached);
        let plan = planner.plan(range, PlannerKind::ExactDp);
        assert_exact_cover(&plan, range);
        assert_eq!(plan.disk_fetches(), 0);
        assert_eq!(plan.cube_count(), 0);
        assert_eq!(plan.cubes.len(), 10);
        assert!(plan.cubes.iter().all(|c| c.source == CubeSource::Empty));
    }

    #[test]
    fn single_day_window() {
        let range = r("2022-06-15", "2022-06-15");
        let planner = LevelPlanner::new(4, &all_exist, &none_cached);
        let plan = planner.plan(range, PlannerKind::ExactDp);
        assert_eq!(plan.cubes.len(), 1);
        assert_eq!(plan.cubes[0].period, Period::Day(d("2022-06-15")));
    }

    #[test]
    fn dp_never_worse_than_greedy() {
        // Randomized-ish cache sets: DP's (disk, cubes) must dominate.
        let cached_sets: Vec<Box<dyn Fn(Period) -> bool>> = vec![
            Box::new(none_cached),
            Box::new(|p: Period| p.granularity() == Granularity::Week),
            Box::new(|p: Period| matches!(p, Period::Month(_, m) if m % 2 == 0)),
            Box::new(|p: Period| p.start().day() < 10),
        ];
        for cached in &cached_sets {
            for (a, b) in [
                ("2021-03-04", "2021-09-17"),
                ("2020-12-25", "2022-01-07"),
                ("2021-01-01", "2021-01-02"),
                ("2019-01-01", "2021-12-31"),
            ] {
                let range = r(a, b);
                let planner = LevelPlanner::new(4, &all_exist, cached.as_ref());
                let dp = planner.plan(range, PlannerKind::ExactDp);
                let greedy = planner.plan(range, PlannerKind::Greedy);
                assert_exact_cover(&dp, range);
                assert_exact_cover(&greedy, range);
                assert!(
                    (dp.disk_fetches(), dp.cube_count())
                        <= (greedy.disk_fetches(), greedy.cube_count()),
                    "DP worse than greedy on {range}"
                );
            }
        }
    }

    #[test]
    fn dp_matches_bruteforce_on_small_windows() {
        // Exhaustive check: enumerate all covers of a 14-day window by
        // days/weeks and compare costs.
        let range = r("2022-01-01", "2022-01-14"); // contains weeks of Jan 2 & Jan 9
        let cached = |p: Period| p == Period::Week(d("2022-01-02"));
        let planner = LevelPlanner::new(2, &all_exist, &cached);
        let plan = planner.plan(range, PlannerKind::ExactDp);
        assert_exact_cover(&plan, range);

        // Brute force over the 2^k choices of "use week cube here or not".
        fn bf(day: Date, end: Date, cached_week: Date) -> (u64, u64) {
            if day > end {
                return (0, 0);
            }
            // Option 1: day cube (disk).
            let (d1, c1) = bf(day.succ(), end, cached_week);
            let mut best = (d1 + 1, c1 + 1);
            // Option 2: week cube if aligned and fits.
            if day.is_week_start() && day.add_days(6) <= end {
                let (d2, c2) = bf(day.add_days(7), end, cached_week);
                let cost = if day == cached_week { (d2, c2 + 1) } else { (d2 + 1, c2 + 1) };
                best = best.min(cost);
            }
            best
        }
        let expect = bf(range.start(), range.end(), d("2022-01-02"));
        assert_eq!((plan.disk_fetches() as u64, plan.cube_count() as u64), expect);
    }

    #[test]
    fn plans_have_no_duplicate_periods() {
        let range = r("2020-06-15", "2021-08-20");
        let planner = LevelPlanner::new(4, &all_exist, &none_cached);
        for kind in [PlannerKind::ExactDp, PlannerKind::Greedy] {
            let plan = planner.plan(range, kind);
            let set: HashSet<_> = plan.cubes.iter().map(|c| c.period).collect();
            assert_eq!(set.len(), plan.cubes.len());
        }
    }

    // ----- lattice planner ---------------------------------------------

    fn cells(n: u16) -> Vec<CellId> {
        (0..n).map(|col| CellId { row: 0, col }).collect()
    }

    #[test]
    fn fully_materialized_month_costs_one_block_per_cell() {
        // A 12-cell cover fully materialized at month granularity, queried
        // for exactly June 2021: one June block per cover cell, no scans.
        let all_blocks = |_: CellId, _: Period| true;
        let lattice = LatticePlanner::new(&all_blocks);
        let viewport = lattice.plan_viewport(&cells(12), r("2021-06-01", "2021-06-30"));
        assert_eq!(viewport.block_fetches(), 12);
        assert_eq!(viewport.scan_days(), 0);
    }

    #[test]
    fn viewport_mixes_month_blocks_day_blocks_and_scans() {
        // Cell 0: June month block + July days materialized. Cell 1:
        // nothing. Window Jun 1 .. Jul 3.
        let range = r("2021-06-01", "2021-07-03");
        let exists = |cell: CellId, p: Period| {
            cell.col == 0
                && match p {
                    Period::Month(2021, 6) => true,
                    Period::Day(d) => d >= d2("2021-07-01"),
                    _ => false,
                }
        };
        let lattice = LatticePlanner::new(&exists);
        let plan = lattice.plan_viewport(&cells(2), range);
        // Cell 0: 1 month block + 3 day blocks. Cell 1: 33 scan days.
        assert_eq!(plan.block_fetches(), 4);
        assert_eq!(plan.scan_days(), 33);
        for b in &plan.blocks {
            if b.cell.col == 1 {
                assert_eq!(b.source, BlockSource::Scan);
                assert_eq!(b.period.granularity(), Granularity::Day);
            }
        }
    }

    fn d2(s: &str) -> Date {
        s.parse().unwrap()
    }

    #[test]
    fn partial_month_in_window_falls_back_to_days() {
        // Window ends Jun 29: the June month block may not be used even
        // though it exists — it would overcount.
        let range = r("2021-06-01", "2021-06-29");
        let exists = |_: CellId, _: Period| true;
        let lattice = LatticePlanner::new(&exists);
        let plan = lattice.plan_viewport(&cells(1), range);
        assert_eq!(plan.block_fetches(), 29);
        assert!(plan.blocks.iter().all(|b| b.period.granularity() == Granularity::Day));
    }
}
