//! Randomized cube-cache coverage (dettest): warming must respect the
//! paper's (α, β, γ, θ) level quotas for arbitrary slot counts and
//! catalog shapes — per level, exactly the `min(quota, available)` most
//! recent periods end up cached, never more than `slots` in total.

use dettest::det_proptest;
use rased_cube::{CubeSchema, DataCube};
use rased_index::{CacheConfig, CubeCache};
use rased_storage::PageId;
use rased_temporal::{Date, Granularity, Period};
use std::sync::Arc;

fn cube() -> Arc<DataCube> {
    Arc::new(DataCube::zeroed(CubeSchema::tiny()))
}

/// Distinct periods per level, most recent last: `counts[i]` periods of
/// `Granularity::ALL[i]`, anchored in 2021. Each period gets a distinct
/// page binding, as the copy-on-write catalog guarantees.
fn catalog(counts: [usize; 4]) -> Vec<(Period, PageId)> {
    let mut periods = Vec::new();
    let day0 = Date::new(2021, 6, 1).expect("valid");
    for i in 0..counts[0] {
        periods.push(Period::Day(day0.add_days(i as i32)));
    }
    let week0 = Date::new(2021, 1, 3).expect("valid"); // a Sunday
    for i in 0..counts[1] {
        periods.push(Period::Week(week0.add_days(7 * i as i32)));
    }
    for i in 0..counts[2] {
        periods.push(Period::Month(2018 + (i / 12) as i32, (i % 12) as u32 + 1));
    }
    for i in 0..counts[3] {
        periods.push(Period::Year(2005 + i as i32));
    }
    periods.into_iter().enumerate().map(|(i, p)| (p, PageId(i as u64))).collect()
}

/// Warm a fresh recency cache over `catalog(counts)` and check every quota
/// invariant. Returns (per-level cached counts, total loads) for pinning.
fn check_warm_respects_quotas(slots: usize, counts: [usize; 4]) -> ([usize; 4], usize) {
    let cache = CubeCache::new(CacheConfig { slots });
    let avail = catalog(counts);
    let mut loads = 0usize;
    cache
        .warm(&avail, |_, _| -> Result<_, ()> {
            loads += 1;
            Ok(cube())
        })
        .expect("warm never fails here");

    let quota = cache.level_quota();
    assert_eq!(quota.iter().sum::<usize>(), slots, "quotas must hand out every slot");
    let mut cached_per_level = [0usize; 4];
    for (i, &level) in Granularity::ALL.iter().enumerate() {
        let mut of_level: Vec<Period> =
            avail.iter().map(|(p, _)| *p).filter(|p| p.granularity() == level).collect();
        of_level.sort_unstable_by_key(|p| std::cmp::Reverse(p.start()));
        let expect = quota[i].min(of_level.len());
        // Exactly the `expect` most recent periods of this level are warm.
        for (rank, p) in of_level.iter().enumerate() {
            assert_eq!(
                cache.contains(*p),
                rank < expect,
                "level {level:?} rank {rank} (quota {q}, avail {n}): {p}",
                q = quota[i],
                n = of_level.len(),
            );
        }
        cached_per_level[i] = expect;
    }
    let total: usize = cached_per_level.iter().sum();
    assert_eq!(cache.len(), total, "cache holds strays beyond the warm set");
    assert!(cache.len() <= slots, "over capacity");
    assert_eq!(loads, total, "fresh cache must load exactly the warm set");
    (cached_per_level, loads)
}

det_proptest! {
    #![det_config(cases = 96)]

    #[test]
    fn warm_caches_min_of_quota_and_available(
        slots in 0usize..64,
        counts in (0usize..50, 0usize..30, 0usize..30, 0usize..20),
    ) {
        let (c0, c1, c2, c3) = counts;
        check_warm_respects_quotas(slots, [c0, c1, c2, c3]);
    }

    #[test]
    fn rewarming_is_idempotent_and_loads_nothing_new(
        slots in 1usize..32,
        counts in (0usize..40, 0usize..20, 0usize..12, 0usize..8),
    ) {
        let (c0, c1, c2, c3) = counts;
        let cache = CubeCache::new(CacheConfig { slots });
        let avail = catalog([c0, c1, c2, c3]);
        cache.warm(&avail, |_, _| -> Result<_, ()> { Ok(cube()) }).unwrap();
        let len = cache.len();
        let mut reloads = 0usize;
        cache.warm(&avail, |_, _| -> Result<_, ()> { reloads += 1; Ok(cube()) }).unwrap();
        assert_eq!(reloads, 0, "rewarming an unchanged catalog must reuse every cube");
        assert_eq!(cache.len(), len);
    }
}

/// Fixed-seed regression: one concrete (slots, catalog) instance with its
/// per-level warm-set sizes pinned.
#[test]
fn regression_fixed_instance() {
    // 20 slots at the paper's ratios over a catalog with scarce yearly
    // cubes: quotas [8, 7, 4, 1] → warm [8, 7, 4, 1] … except only 0 years
    // exist, so the yearly quota goes unfilled.
    let (per_level, loads) = check_warm_respects_quotas(20, [30, 10, 6, 0]);
    assert_eq!(per_level, [8, 7, 4, 0]);
    assert_eq!(loads, 19);
}
