//! Sample Update Queries (§IV-B): pick N concrete updates inside a region
//! to plot on the map, then drill into one update's changeset — the
//! warehouse-side query path (hash index on ChangesetID + spatial index on
//! latitude/longitude, §VI-B).

use rased::demo::build_demo_system;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let demo = build_demo_system("sample-updates", 19)?;
    let atlas = demo.dataset.atlas();

    // Sample inside the busiest country's territory (the paper's default
    // sample size is N = 100).
    let zone = &atlas.countries()[0];
    let bbox = zone.polygon;
    let samples = demo.rased.sample_region(&bbox, 100)?;
    let name = demo.rased.countries().name(zone.id).unwrap_or("?");

    println!("\n{} of the updates in {name} (sample query, N = 100):", samples.len());
    for r in samples.iter().take(10) {
        println!(
            "  {} {:9} at ({:+09.5}, {:+010.5})  road={:<12} changeset={}",
            r.date,
            format!("{}/{}", r.element_type, r.update_type),
            r.lat(),
            r.lon(),
            demo.rased.roads().value(r.road_type).unwrap_or("?"),
            r.changeset,
        );
    }
    println!("  ... and {} more\n", samples.len().saturating_sub(10));

    // Sampling scoped to an analysis query (§IV-B: samples "represent a
    // given analysis query"): only way creations from 2021.
    use rased_core::model::{ElementType, UpdateType};
    use rased_core::{AnalysisQuery, DateRange};
    let q = AnalysisQuery::over(DateRange::new(
        "2021-01-01".parse()?,
        "2021-12-31".parse()?,
    ))
    .elements(vec![ElementType::Way])
    .updates(vec![UpdateType::Create]);
    let scoped = demo.rased.sample_for_query(&q, &bbox, 100)?;
    println!(
        "samples matching \"way creations in 2021\" in {name}: {} (all ways: {}, all creates: {})",
        scoped.len(),
        scoped.iter().filter(|r| r.element_type == ElementType::Way).count(),
        scoped.iter().filter(|r| r.update_type == UpdateType::Create).count(),
    );
    assert!(scoped.iter().all(|r| r.element_type == ElementType::Way));

    // Drill into the changeset of the first sample — the dashboard hands
    // this to a changeset viewer; we print its updates.
    let cs = samples.first().expect("samples in busiest country").changeset;
    let updates = demo.rased.by_changeset(cs)?;
    println!("changeset {cs} contains {} updates:", updates.len());
    for r in &updates {
        println!(
            "  {} {}/{} in {}",
            r.date,
            r.element_type,
            r.update_type,
            demo.rased.countries().name(r.country).unwrap_or("?"),
        );
    }
    Ok(())
}
