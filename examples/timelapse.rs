//! Timelapse: the road-network evolution view of §IV-A — "a timelapse video
//! showing the road network evolution" — rendered as a sequence of terminal
//! choropleth frames, one per month, shading each country by its update
//! volume.
//!
//! Pass `--animate` to play the frames in place (ANSI cursor-up), otherwise
//! the frames print sequentially.

use rased::demo::build_demo_system;
use rased_core::{AnalysisQuery, DateRange, Granularity, GroupDim};
use rased_dashboard::charts;
use rased_temporal::Date;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let animate = std::env::args().any(|a| a == "--animate");
    let demo = build_demo_system("timelapse", 23)?;
    let n_countries = demo.dataset.config.world.n_countries;

    let q = AnalysisQuery::over(DateRange::new(
        Date::new(2020, 1, 1)?,
        Date::new(2021, 12, 31)?,
    ))
    .group(GroupDim::Country)
    .group(GroupDim::Date(Granularity::Month));

    let result = demo.rased.query(&q)?;
    let frames = charts::timelapse(&demo.rased, &result, n_countries);
    println!(
        "\nRoad-network update intensity per country, month by month ({} frames):\n",
        frames.len()
    );

    for (i, frame) in frames.iter().enumerate() {
        if animate && i > 0 {
            // Rewind over the previous frame.
            let lines = frame.lines().count() + 1;
            print!("\x1b[{lines}A");
        }
        println!("{frame}");
        if animate {
            std::thread::sleep(std::time::Duration::from_millis(150));
        }
    }

    // A static summary frame over the whole period for comparison.
    let total = demo
        .rased
        .query(&AnalysisQuery::over(q.range).group(GroupDim::Country))
        ?;
    println!("\nCumulative (whole period):\n{}", charts::choropleth(&demo.rased, &total, n_countries));

    // And the same data exported as CSV (first lines).
    let csv = charts::csv(&demo.rased, &total);
    println!("CSV export (head):\n{}", csv.lines().take(6).collect::<Vec<_>>().join("\n"));
    Ok(())
}
