//! Example 1 of §IV-A — **Country Analysis** (Figures 2 and 3 of the paper):
//!
//! > "Find the number of newly created or modified element types (node,
//! > way, relation) for each country road network in 2021."
//!
//! ```sql
//! SELECT U.Country, U.ElementType, COUNT(*)
//! FROM UpdateList U
//! WHERE U.Date BETWEEN 2021-01-01 AND 2021-12-31
//!   AND U.UpdateType IN [New, Update]
//! GROUP BY U.Country, U.ElementType
//! ```

use rased::demo::build_demo_system;
use rased_core::model::UpdateType;
use rased_core::{AnalysisQuery, DateRange, GroupDim};
use rased_dashboard::charts;
use rased_temporal::Date;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let demo = build_demo_system("country-analysis", 11)?;

    let q = AnalysisQuery::over(DateRange::new(
        Date::new(2021, 1, 1)?,
        Date::new(2021, 12, 31)?,
    ))
    .updates(UpdateType::NEW_OR_UPDATE.to_vec())
    .group(GroupDim::Country)
    .group(GroupDim::ElementType);

    let result = demo.rased.query(&q)?;

    // Fig. 2: bar chart of the top country × element-type groups.
    println!("\nNew or modified elements per country and element type, 2021 (bar chart):\n");
    print!("{}", charts::bar_chart(&demo.rased, &result, 15, 42));

    // Fig. 3: the same result as a sorted table.
    println!("\nTable format:\n");
    print!("{}", charts::table(&demo.rased, &result, 20));

    println!(
        "\n{} groups from {} updates · {:?} wall, {:?} modeled I/O",
        result.rows.len(),
        result.total_count(),
        result.stats.wall,
        result.stats.io.modeled,
    );
    Ok(())
}
