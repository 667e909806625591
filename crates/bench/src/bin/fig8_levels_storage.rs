//! **Figure 8 — Setting RASED number of levels.**
//!
//! Paper setup: storage needed per number of hierarchy levels (1 = flat
//! daily, 4 = + weekly/monthly/yearly), varying the covered period from 1
//! to 16 years. Expected shape: extra levels are almost free — the paper
//! quotes a 4-level index at ~1.15× the flat index's storage for 16 years.
//!
//! The index is actually built (real maintenance path, real records); a
//! smaller 20 × 10 schema keeps the 20 builds quick — storage *ratios*
//! depend only on cube counts, not cube size.
//!
//! The paper's figure is about dense pages, one per cube, so the figure is
//! computed on that basis: materialized cubes × a dense cube's bytes. The
//! store itself packs each cube at its encoded size; those measured bytes
//! are printed beside the model. Roll-ups shrink less than daily cubes
//! (they hold the union of their children's non-zero cells), so the packed
//! ratio is larger while every packed store is far below its dense model.

use rased_bench::{bench_dir, Workload};
use rased_core::{CacheConfig, CubeSchema, IoCostModel};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let years_axis = [1i32, 2, 4, 8, 16];
    let levels_axis = [1u8, 2, 3, 4];
    let dir = bench_dir("fig8");
    let mb = |b: u64| b as f64 / (1 << 20) as f64;

    println!(
        "{:>6} | {} | 4-level / flat: dense, packed",
        "years",
        levels_axis.iter().map(|l| format!("{l}-level dense / packed (MB)")).collect::<Vec<_>>().join(" | ")
    );
    println!("{}", "-".repeat(8 + levels_axis.len() * 31 + 33));

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
            sizes.push(((index.cube_count() * w.schema.cube_bytes()) as u64, index.storage_bytes()));
        }
        let (flat, four) = (sizes.first().copied().unwrap_or((1, 1)), sizes.last().copied().unwrap_or((0, 0)));
        println!(
            "{:>6} | {} | {:>8.3}, {:>6.3}",
            years,
            sizes
                .iter()
                .map(|&(dense, packed)| format!("{:>13.2} / {:>12.2}", mb(dense), mb(packed)))
                .collect::<Vec<_>>()
                .join(" | "),
            four.0 as f64 / flat.0 as f64,
            four.1 as f64 / flat.1 as f64,
        );
    }
    println!("\n(paper: 4-level ≈ 1.15 × flat at 16 years, dense pages; packed = record-file bytes written)");
    Ok(())
}
