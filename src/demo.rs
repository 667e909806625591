//! Shared setup for the examples: build a small demo deployment (synthetic
//! dataset + ingested RASED system) under a temp directory.

use rased_core::{CubeSchema, Rased, RasedConfig};
use rased_osm_gen::{Dataset, DatasetConfig};
use rased_temporal::{Date, DateRange};
use std::error::Error;
use std::path::PathBuf;

/// A ready-to-query demo deployment.
pub struct DemoSystem {
    pub rased: Rased,
    pub dataset: Dataset,
    pub dir: PathBuf,
}

/// Generate a synthetic dataset (seeded, so repeated runs agree) covering
/// `2020-01-01..2021-12-31` over 12 countries, then build and ingest a RASED
/// system over it. Takes a few seconds; the directory is reused per `tag`
/// only within one process run (it is wiped on entry).
pub fn build_demo_system(tag: &str, seed: u64) -> Result<DemoSystem, Box<dyn Error>> {
    let dir = std::env::temp_dir().join(format!("rased-example-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;

    let mut config = DatasetConfig::small(seed);
    config.range = DateRange::new(Date::new(2020, 1, 1)?, Date::new(2021, 12, 31)?);
    config.sim.daily_edits_mean = 60.0;

    eprintln!("[demo] generating synthetic OSM dataset ({} days)...", config.range.len_days());
    let dataset = Dataset::generate(&dir.join("osm"), config)?;

    let schema =
        CubeSchema::new(dataset.config.world.n_countries, dataset.config.sim.n_road_types);
    let rased = Rased::create(RasedConfig::new(dir.join("system")).with_schema(schema))?;

    eprintln!("[demo] ingesting through the daily + monthly crawlers...");
    let report = rased.ingest_dataset(&dataset)?;
    eprintln!(
        "[demo] ingested {} days / {} months: {} update records",
        report.days, report.months, report.daily.emitted
    );
    Ok(DemoSystem { rased, dataset, dir })
}
