//! **Cache-strategy ablation (DESIGN.md §4.2): recency preload vs. LRU.**
//!
//! The paper's cache (§VII-A) statically preloads the most recent cubes per
//! level with (α, β, γ, θ) quotas. A natural alternative is a global LRU
//! that admits on access. This harness runs the same recent-biased query
//! stream against both at several cache sizes.
//!
//! Expected: the recency preload wins at small sizes on a recent-biased
//! stream (it never wastes slots on one-off old cubes); LRU catches up as
//! capacity grows and adapts better when the stream drifts to old windows.

use rased_bench::{bench_dir, fmt_duration, one_cell_query, Workload};
use rased_core::{CacheConfig, CacheStrategy, IoCostModel, QueryEngine, TemporalIndex};
use rased_osm_gen::rng::Rng;
use rased_temporal::DateRange;
use std::error::Error;
use std::time::Duration;

fn run_stream(
    index: &TemporalIndex,
    w: &Workload,
    recent_bias: bool,
    queries: usize,
    seed: u64,
) -> Result<Duration, Box<dyn Error>> {
    index.warm_cache()?;
    let engine = QueryEngine::new(index);
    let mut rng = Rng::new(seed);
    let mut total = Duration::ZERO;
    for _ in 0..queries {
        let span = 30 + rng.below(150) as i32;
        let max_back = if recent_bias { 300 } else { w.range.len_days() as u64 - span as u64 };
        let back = rng.below(max_back.max(1)) as i32;
        let end = w.range.end().add_days(-back);
        let range = DateRange::new(end.add_days(-(span - 1)).max(w.range.start()), end);
        total += engine.execute(&one_cell_query(range))?.stats.modeled_total();
    }
    Ok(total / queries as u32)
}

fn main() -> Result<(), Box<dyn Error>> {
    let w = Workload::years(4, 250, 0xCA5E);
    let dir = bench_dir("cache-strategy");
    println!("# building a 4-year index...");
    rased_bench::build_index(&dir.file("index"), &w, 4, CacheConfig::disabled(), IoCostModel::hdd())?;

    let queries = 150;
    println!(
        "\n{:>6} | {:>24} | {:>24}",
        "slots", "recent-biased stream", "uniform stream"
    );
    println!("{:>6} | {:>11} {:>12} | {:>11} {:>12}", "", "recency", "LRU", "recency", "LRU");
    println!("{}", "-".repeat(62));
    for slots in [16usize, 64, 128, 256, 512] {
        let mut cells = Vec::new();
        for recent_bias in [true, false] {
            for strategy in [CacheStrategy::paper_default(), CacheStrategy::Lru] {
                let index = TemporalIndex::open(
                    &dir.file("index"),
                    w.schema,
                    4,
                    CacheConfig { slots, strategy },
                    IoCostModel::hdd(),
                )?;
                cells.push(run_stream(&index, &w, recent_bias, queries, slots as u64)?);
            }
        }
        let &[bias_rec, bias_lru, uni_rec, uni_lru] = cells.as_slice() else { continue };
        println!(
            "{:>6} | {:>11} {:>12} | {:>11} {:>12}",
            slots,
            fmt_duration(bias_rec),
            fmt_duration(bias_lru),
            fmt_duration(uni_rec),
            fmt_duration(uni_lru),
        );
    }
    println!("\n(avg modeled time of {queries} one-cell queries; LRU warms up within the stream)");
    Ok(())
}
