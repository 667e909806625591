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

use crate::{bench_dir, build_index, gate, Scale, Workload};
use rased_core::{CacheConfig, CubeSchema, IoCostModel};
use std::error::Error;

const LEVELS: [u8; 4] = [1, 2, 3, 4];

/// One covered period: (dense, packed) bytes per entry of [`LEVELS`].
struct Row {
    years: i32,
    sizes: Vec<(u64, u64)>,
}

impl Row {
    /// The flat and the 4-level (dense, packed) sizes.
    fn ends(&self) -> ((u64, u64), (u64, u64)) {
        (self.sizes.first().copied().unwrap_or((1, 1)), self.sizes.last().copied().unwrap_or((0, 0)))
    }
}

pub fn run(scale: Scale) -> Result<Vec<String>, Box<dyn Error>> {
    let workloads: Vec<(i32, Workload)> = match scale {
        Scale::Smoke => vec![(2, Workload::smoke())],
        Scale::Full => [1, 2, 4, 8, 16]
            .into_iter()
            .map(|years| {
                let mut w = Workload::years(years, 50, 0xF168);
                w.schema = CubeSchema::new(20, 10);
                (years, w)
            })
            .collect(),
    };
    let dir = bench_dir("fig8");
    let mb = |b: u64| b as f64 / (1 << 20) as f64;

    println!(
        "{:>6} | {} | 4-level / flat: dense, packed",
        "years",
        LEVELS.iter().map(|l| format!("{l}-level dense / packed (MB)")).collect::<Vec<_>>().join(" | ")
    );
    println!("{}", "-".repeat(8 + LEVELS.len() * 31 + 33));

    let mut rows = Vec::new();
    for (years, w) in &workloads {
        let mut sizes = Vec::new();
        for &levels in &LEVELS {
            let index = build_index(
                &dir.file(&format!("y{years}-l{levels}")),
                w,
                levels,
                CacheConfig::disabled(),
                IoCostModel::free(),
            )?;
            sizes.push(((index.cube_count() * w.schema.cube_bytes()) as u64, index.storage_bytes()));
        }
        let row = Row { years: *years, sizes };
        let (flat, four) = row.ends();
        println!(
            "{:>6} | {} | {:>8.3}, {:>6.3}",
            row.years,
            row.sizes
                .iter()
                .map(|&(dense, packed)| format!("{:>13.2} / {:>12.2}", mb(dense), mb(packed)))
                .collect::<Vec<_>>()
                .join(" | "),
            four.0 as f64 / flat.0 as f64,
            four.1 as f64 / flat.1 as f64,
        );
        rows.push(row);
    }
    println!("\n(paper: 4-level ≈ 1.15 × flat at 16 years, dense pages; packed = record-file bytes written)");
    Ok(gates(&rows))
}

/// At every period, the 4-level index costs little over flat in dense
/// pages, and its packed records a small fraction of them.
fn gates(rows: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    for row in rows {
        let (flat, four) = row.ends();
        let ratio = four.0 as f64 / flat.0 as f64;
        gate(
            &mut failures,
            (1.0..1.30).contains(&ratio),
            "fig8 dense ratio",
            format!("4-level/flat dense-page ratio {ratio:.3} at {} years is outside [1.0, 1.30)", row.years),
        );
        gate(
            &mut failures,
            four.1 * 5 <= flat.0,
            "fig8 packed fraction",
            format!("packed 4-level store ({} B) is over a fifth of the flat dense pages ({} B)", four.1, flat.0),
        );
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_name_each_ratio_violation() {
        let row = |flat: u64, four_dense: u64, four_packed: u64| Row {
            years: 2,
            sizes: vec![(flat, 100), (four_dense, four_packed)],
        };
        assert!(gates(&[row(1000, 1178, 190)]).is_empty());
        let failures = gates(&[row(1000, 1300, 100), row(1000, 1100, 201)]);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].starts_with("fig8 dense ratio: "), "{failures:?}");
        assert!(failures[1].starts_with("fig8 packed fraction: "), "{failures:?}");
    }
}
