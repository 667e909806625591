//! Quickstart: generate a synthetic OSM dataset, build RASED over it, and
//! run an analysis query — the minimal end-to-end tour of the public API.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rased::demo::build_demo_system;
use rased_core::{AnalysisQuery, DateRange, GroupDim};
use rased_dashboard::charts;
use rased_temporal::Date;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One call builds the whole pipeline: synthetic world → daily diffs &
    // changesets → crawlers → cube index + warehouse.
    let demo = build_demo_system("quickstart", 7)?;

    // "How many updates did each country receive in 2021?"
    let q = AnalysisQuery::over(DateRange::new(
        Date::new(2021, 1, 1)?,
        Date::new(2021, 12, 31)?,
    ))
    .group(GroupDim::Country);

    let result = demo.rased.query(&q)?;
    println!("\nUpdates per country, 2021:");
    print!("{}", charts::table(&demo.rased, &result, 15));

    let s = &result.stats;
    println!(
        "answered from {} cached + {} disk cubes in {:?} (modeled I/O {:?})",
        s.cubes_from_cache, s.cubes_from_disk, s.wall, s.io.modeled
    );

    // The same query as a percentage of each country's network size.
    let pct = demo.rased.query(&q.clone().percentage())?;
    println!("\nAs a percentage of each country's road network:");
    print!("{}", charts::table(&demo.rased, &pct, 5));
    Ok(())
}
