//! `rased-lint` — CLI for the workspace's lock and nonblocking audit.
//!
//! ```text
//! rased-lint --workspace [--root DIR] [--verbose]
//! ```
//!
//! Exit status is the CI contract: 0 when both passes hold, 1 otherwise.
//! `ci.sh` runs this before clippy and the test suites.
#![expect(clippy::disallowed_methods, reason = "a CLI reads its arguments and cargo's manifest dir")]

use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    verbose: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut root = None;
    let mut verbose = false;
    let mut workspace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--verbose" | "-v" => verbose = true,
            "--root" => {
                let v = args.next().ok_or("--root needs a directory argument")?;
                root = Some(PathBuf::from(v));
            }
            "--help" | "-h" => return Err("usage: rased-lint --workspace [--root DIR] [--verbose]".to_string()),
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if !workspace {
        return Err("rased-lint currently only supports --workspace mode (try --help)".to_string());
    }
    let root = match root {
        Some(r) => r,
        // Default to the manifest dir's workspace root when run via
        // `cargo run -p rased-lint`, else the current directory.
        None => match std::env::var("CARGO_MANIFEST_DIR") {
            Ok(dir) => {
                let p = PathBuf::from(dir);
                p.parent().and_then(|p| p.parent()).map(|p| p.to_path_buf()).unwrap_or(p)
            }
            Err(_) => PathBuf::from("."),
        },
    };
    Ok(Options { root, verbose })
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let report = match rased_lint::run_workspace(&options.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rased-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    if options.verbose {
        for f in &report.findings {
            println!("{f}");
        }
    }
    let suppressed = report.findings.iter().filter(|f| f.suppressed).count();
    println!(
        "rased-lint: {} lock/nonblocking findings, {suppressed} suppressed by pragma",
        report.findings.len()
    );

    if !report.ok() {
        eprintln!("\nrased-lint FAILED:");
        for f in &report.failures {
            eprintln!("  {f}");
        }
        return ExitCode::FAILURE;
    }
    println!("rased-lint: OK");
    ExitCode::SUCCESS
}
