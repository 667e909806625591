//! End-to-end CLI test: drive the `rased` binary through
//! generate → ingest → query, checking outputs and exit codes.

use dettest::TempDir;
use std::process::Command;

fn rased() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rased"))
}

#[test]
fn generate_ingest_query_roundtrip() {
    let dir = TempDir::new("cli-roundtrip");
    let data = dir.file("osm");
    let system = dir.file("system");

    // generate
    let out = rased()
        .args(["generate", "--out"])
        .arg(&data)
        .args(["--seed", "99", "--start", "2021-01-01", "--end", "2021-02-28", "--edits", "25"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(data.join("dataset.manifest").exists());
    assert!(data.join("diffs").join("2021-01-15.osc").exists());

    // ingest
    let out = rased()
        .args(["ingest", "--data"])
        .arg(&data)
        .arg("--system")
        .arg(&system)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ingested 59 days"), "{stdout}");
    assert!(stdout.contains("refined 2 months"), "{stdout}");

    // query — table of countries
    let out = rased()
        .args(["query", "--system"])
        .arg(&system)
        .args(["--start", "2021-01-01", "--end", "2021-02-28", "--group", "country"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("United States"), "{stdout}");
    assert!(stdout.contains("rows"), "{stdout}");

    // query — CSV output
    let out = rased()
        .args(["query", "--system"])
        .arg(&system)
        .args(["--start", "2021-01-01", "--end", "2021-02-28", "--group", "update", "--chart", "csv"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("date,country,element,road,update,count,value"), "{stdout}");
    assert!(stdout.contains("create,"), "{stdout}");
    // After monthly refinement the coarse class is gone (the header's
    // `update` column name still appears, so match a data row).
    assert!(
        !stdout.lines().any(|l| l.starts_with(",,,,update,")),
        "unclassified rows should be refined away: {stdout}"
    );
}

#[test]
fn cli_reports_errors_cleanly() {
    // Unknown command.
    let out = rased().arg("explode").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing required flag.
    let out = rased().args(["ingest", "--data", "/nonexistent"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--system"));

    // Nonexistent dataset.
    let dir = TempDir::new("cli-errs");
    let out = rased()
        .args(["ingest", "--data", "/nonexistent", "--system"])
        .arg(dir.file("sys"))
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Size flags: an overflowing product and a zero cache budget are clean
    // errors, reported before the system is opened or a socket bound.
    for (flag, value, want) in [
        ("--max-body-kb", "18446744073709551615", "overflows"),
        ("--response-cache-mb", "17592186044416", "overflows"),
        ("--response-cache-mb", "0", "--no-response-cache"),
        ("--response-cache-entries", "0", "--no-response-cache"),
    ] {
        let out = rased()
            .args(["serve", "--system"])
            .arg(dir.file("serve"))
            .args(["--addr", "not-an-address", flag, value])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} {value} must fail");
        assert!(stderr.contains(want) && !stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }

    // A store written by an older format version does not open: `serve`
    // names the versions instead of misreading it. The first run creates
    // the store, then fails to bind the bogus address.
    let store = dir.file("old-store");
    let serve = || {
        rased().args(["serve", "--system"]).arg(&store).args(["--addr", "not-an-address"]).output().unwrap()
    };
    assert!(String::from_utf8_lossy(&serve().stderr).contains("invalid socket address"));
    let catalog = store.join("index").join("catalog.bin");
    let mut bytes = std::fs::read(&catalog).unwrap();
    bytes.splice(..8, *b"RASEDCT4");
    std::fs::write(&catalog, bytes).unwrap();
    let out = serve();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(
        stderr.contains("store format version 4 is not readable by this build (version 6)")
            && !stderr.contains("panicked"),
        "{stderr}"
    );

    // Help prints usage and succeeds.
    let out = rased().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("commands:"));
}
