//! Example 2 of §IV-A — **Road Type Analysis** (Figure 4 of the paper):
//!
//! > "Find the number of newly created or modified element types (node,
//! > way, relation) for each road type in USA since 2018."
//!
//! ```sql
//! SELECT U.RoadType, U.ElementType, COUNT(*)
//! FROM UpdateList U
//! WHERE U.Date AFTER 2018-01-01 AND U.Country = USA
//!   AND U.UpdateType IN [New, Update]
//! GROUP BY U.RoadType, U.ElementType
//! ```
//!
//! The synthetic world's country 0 carries the "US" code (the country table
//! leads with the most actively mapped real countries), and the dataset
//! starts in 2020, so "since 2018" clips to the covered range — exactly what
//! the live system does for windows predating OSM data.

use rased::demo::build_demo_system;
use rased_core::model::UpdateType;
use rased_core::{AnalysisQuery, DateRange, GroupDim};
use rased_dashboard::charts;
use rased_temporal::Date;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let demo = build_demo_system("road-type-analysis", 13)?;

    let usa = demo.rased.countries().resolve("US").expect("US in the table");
    let q = AnalysisQuery::over(DateRange::new(
        Date::new(2018, 1, 1)?,
        Date::new(2021, 12, 31)?,
    ))
    .countries(vec![usa])
    .updates(UpdateType::NEW_OR_UPDATE.to_vec())
    .group(GroupDim::RoadType)
    .group(GroupDim::ElementType);

    let result = demo.rased.query(&q)?;

    println!("\nNew or modified elements per road type in the United States since 2018:\n");
    print!("{}", charts::bar_chart(&demo.rased, &result, 20, 42));

    println!("\nTop road types (table):\n");
    print!("{}", charts::table(&demo.rased, &result, 15));

    println!(
        "\nempty days before dataset start handled for free: {} of the window",
        result.stats.empty_days
    );
    Ok(())
}
