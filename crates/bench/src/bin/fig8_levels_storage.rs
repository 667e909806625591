//! **Figure 8 — Setting RASED number of levels.**
//!
//! Paper setup: storage needed per number of hierarchy levels (1 = flat
//! daily, 4 = + weekly/monthly/yearly), varying the covered period from 1
//! to 16 years. Expected shape: extra levels are almost free — the paper
//! quotes a 4-level index at ~1.15× the flat index's storage for 16 years.
//!
//! The index is actually built (real maintenance path, real pages); a
//! smaller 20 × 10 schema keeps the 20 builds quick — storage *ratios*
//! depend only on cube counts, not cube size.

use rased_bench::{bench_dir, Workload};
use rased_core::{CacheConfig, CubeSchema, IoCostModel};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let years_axis = [1i32, 2, 4, 8, 16];
    let levels_axis = [1u8, 2, 3, 4];
    let dir = bench_dir("fig8");

    println!(
        "{:>6} | {} | 4-level / flat",
        "years",
        levels_axis.iter().map(|l| format!("{l}-level (MB)")).collect::<Vec<_>>().join(" | ")
    );
    println!("{}", "-".repeat(8 + levels_axis.len() * 15 + 17));

    for &years in &years_axis {
        let mut w = Workload::years(years, 50, 0xF168);
        w.schema = CubeSchema::new(20, 10);
        let mut sizes = Vec::new();
        for &levels in &levels_axis {
            let index = rased_bench::build_index(
                &dir.file(&format!("y{years}-l{levels}")),
                &w,
                levels,
                CacheConfig::disabled(),
                IoCostModel::free(),
            )?;
            sizes.push(index.storage_bytes());
        }
        let (flat, four) = (sizes.first().copied().unwrap_or(1), sizes.last().copied().unwrap_or(0));
        let ratio = four as f64 / flat as f64;
        println!(
            "{:>6} | {} | {:>14.3}",
            years,
            sizes
                .iter()
                .map(|b| format!("{:>12.2}", *b as f64 / (1 << 20) as f64))
                .collect::<Vec<_>>()
                .join(" | "),
            ratio,
        );
    }
    println!("\n(paper: 4-level ≈ 1.15 × flat at 16 years; cube pages actually written)");
    Ok(())
}
