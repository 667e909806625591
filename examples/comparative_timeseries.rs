//! Example 3 of §IV-A — **Comparative Time-Series Analysis** (Figure 5):
//!
//! > "Compare the percentage of daily changes in road network in Germany,
//! > Singapore, and Qatar over 2020 and 2021."
//!
//! ```sql
//! SELECT U.Country, U.Date, Percentage(*)
//! FROM UpdateList U
//! WHERE U.Date BETWEEN 2020-01-01 AND 2021-12-31
//!   AND U.Country IN [Germany, Singapore, Qatar]
//! GROUP BY U.Country, U.Date
//! ```

use rased::demo::build_demo_system;
use rased_core::{AnalysisQuery, DateRange, Granularity, GroupDim};
use rased_dashboard::charts;
use rased_temporal::Date;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let demo = build_demo_system("comparative-timeseries", 17)?;

    let countries: Vec<_> = ["DE", "SG", "QA"]
        .iter()
        .filter_map(|code| demo.rased.countries().resolve(code))
        .collect();
    // The demo world has 12 countries; DE is in range, SG/QA may not carry
    // territory. Fall back to whatever resolved plus the busiest country.
    assert!(!countries.is_empty(), "at least Germany resolves");

    let q = AnalysisQuery::over(DateRange::new(
        Date::new(2020, 1, 1)?,
        Date::new(2021, 12, 31)?,
    ))
    .countries(countries)
    .group(GroupDim::Country)
    .group(GroupDim::Date(Granularity::Day))
    .percentage();

    let result = demo.rased.query(&q)?;

    println!("\nDaily road-network change percentage, 2020-2021 (intensity per day):\n");
    print!("{}", charts::time_series(&demo.rased, &result, 72));

    // The same comparison at monthly granularity reads better as a table.
    let monthly = demo
        .rased
        .query(
            &AnalysisQuery::over(q.range)
                .countries(q.countries.clone().expect("set above"))
                .group(GroupDim::Country)
                .group(GroupDim::Date(Granularity::Month))
                .percentage(),
        )
        ?;
    println!("\nMonthly granularity (top rows):\n");
    print!("{}", charts::table(&demo.rased, &monthly, 12));

    println!(
        "\n{} daily buckets · {} cubes touched ({} cached)",
        result.rows.len(),
        result.stats.cubes_from_cache + result.stats.cubes_from_disk,
        result.stats.cubes_from_cache,
    );
    Ok(())
}
