//! `figures [name…]`: run the named entries of [`rased_bench::FIGURES`]
//! (every entry when none is named) at full scale, print each table, and
//! exit non-zero if a gate fails.
#![expect(clippy::disallowed_methods, reason = "the figure names come from the command line")]

use rased_bench::{Scale, FIGURES};
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = names.iter().find(|n| !FIGURES.iter().any(|(f, _)| f == n)) {
        let known: Vec<&str> = FIGURES.iter().map(|(f, _)| *f).collect();
        eprintln!("unknown figure `{unknown}`; usage: figures [{}]…", known.join(" | "));
        return ExitCode::from(2);
    }
    let mut failed = Vec::new();
    for (name, figure) in FIGURES.iter().filter(|(f, _)| names.is_empty() || names.iter().any(|n| n == f)) {
        println!("\n=== {name} ===");
        match figure(Scale::Full) {
            Ok(failures) if failures.is_empty() => println!("{name} gates: all passed"),
            Ok(failures) => {
                for f in &failures {
                    println!("GATE VIOLATION: {f}");
                }
                failed.push(*name);
            }
            Err(e) => {
                println!("{name} did not run: {e}");
                failed.push(*name);
            }
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("figures with failed gates: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
