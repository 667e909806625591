//! End-to-end engine tests: synthesized mini-workspaces run through
//! `rased_lint::run_workspace`, asserting exact finding counts, pragma
//! suppression, the baseline ratchet, the request-path deny rule, the
//! determinism allowlist, lock-rank checking, and the hermetic manifest
//! scan. Fixture sources live in `tests/fixtures/` so their expected
//! counts are reviewable next to the code that produces them.

use rased_lint::{run_workspace, Category};
use dettest::TempDir;
use std::path::Path;

const PANICS_FIXTURE: &str = include_str!("fixtures/panics_fixture.rs");
const DETERMINISM_FIXTURE: &str = include_str!("fixtures/determinism_fixture.rs");
const LOCKS_FIXTURE: &str = include_str!("fixtures/locks_fixture.rs");

const APP_MANIFEST: &str = "[package]\nname = \"app\"\nversion = \"0.1.0\"\n";
const ROOT_MANIFEST: &str = "[workspace]\nmembers = [\"crates/*\"]\n";

/// Build a fresh scratch workspace from `(relative path, contents)` pairs.
fn workspace(name: &str, files: &[(&str, &str)]) -> TempDir {
    let root = TempDir::new(&format!("lint-engine-{name}"));
    for (rel, contents) in files {
        let path = root.file(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, contents).expect("write fixture");
    }
    root
}

fn app_workspace(name: &str, extra: &[(&str, &str)]) -> TempDir {
    let mut files = vec![
        ("Cargo.toml", ROOT_MANIFEST),
        ("crates/app/Cargo.toml", APP_MANIFEST),
        ("crates/app/src/lib.rs", PANICS_FIXTURE),
    ];
    files.extend_from_slice(extra);
    workspace(name, &files)
}

fn lock_failures(root: &Path) -> Vec<String> {
    run_workspace(root).expect("run").failures
}

#[test]
fn fixture_counts_are_exact() {
    let root = app_workspace("counts", &[]);
    let report = run_workspace(root.path()).expect("run");

    assert_eq!(report.panic_counts.get("app"), Some(&3), "unsuppressed panic findings");
    assert_eq!(report.slice_index_counts.get("app"), Some(&1), "slice_index findings");

    let suppressed: Vec<_> = report.findings.iter().filter(|f| f.suppressed).collect();
    assert_eq!(suppressed.len(), 1, "exactly the pragma'd unwrap is suppressed");
    assert_eq!(suppressed[0].category, Category::Panic);

    // Test-module panics contribute nothing: 3 + 1 suppressed is the lot.
    let panics = report.findings.iter().filter(|f| f.category == Category::Panic).count();
    assert_eq!(panics, 4);

    // No baseline yet: passing run plus a seed notice.
    assert!(report.ok(), "unexpected failures: {:?}", report.failures);
    assert!(report.notices.iter().any(|n| n.contains("--write-baseline")));
}

#[test]
fn ratchet_blocks_growth_and_reports_slack() {
    let tight = "[panic]\n\"app\" = 1\n[slice_index]\n\"app\" = 1\n";
    let root = app_workspace("ratchet-tight", &[("lint-baseline.toml", tight)]);
    let report = run_workspace(root.path()).expect("run");
    assert!(!report.ok());
    assert!(
        report.failures.iter().any(|f| f.contains("exceed the baseline of 1")),
        "growth past the baseline must fail: {:?}",
        report.failures
    );

    let slack = "[panic]\n\"app\" = 5\n[slice_index]\n\"app\" = 1\n";
    let root = app_workspace("ratchet-slack", &[("lint-baseline.toml", slack)]);
    let report = run_workspace(root.path()).expect("run");
    assert!(report.ok(), "below-baseline counts pass: {:?}", report.failures);
    assert!(report.notices.iter().any(|n| n.contains("tighten")));
}

#[test]
fn request_path_crates_are_denied_any_panic_finding() {
    let policy = "[panic]\ndeny_crates = [\"app\"]\n";
    let root = app_workspace("deny", &[("lint.toml", policy)]);
    let failures = lock_failures(root.path());
    assert_eq!(failures.len(), 3, "one failure per unsuppressed finding: {failures:?}");
    assert!(failures.iter().all(|f| f.contains("request-path crate")));
}

#[test]
fn determinism_findings_fail_unless_allowlisted() {
    let root = workspace(
        "determinism",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/app/Cargo.toml", APP_MANIFEST),
            ("crates/app/src/lib.rs", DETERMINISM_FIXTURE),
        ],
    );
    let failures = lock_failures(root.path());
    assert_eq!(failures.len(), 2, "wall clock + env read: {failures:?}");
    assert!(failures.iter().any(|f| f.contains("SystemTime")));
    assert!(failures.iter().any(|f| f.contains("std::env")));

    let policy = "[determinism]\nallow = [\"crates/app/src/lib.rs\"]\n";
    let root = workspace(
        "determinism-allowed",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/app/Cargo.toml", APP_MANIFEST),
            ("crates/app/src/lib.rs", DETERMINISM_FIXTURE),
            ("lint.toml", policy),
        ],
    );
    assert!(lock_failures(root.path()).is_empty(), "allowlisted file is exempt");
}

#[test]
fn lock_rank_inversions_are_flagged() {
    let policy = "[locks.rank]\n\"app:low\" = 1\n\"app:high\" = 2\n";
    let root = workspace(
        "locks",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/app/Cargo.toml", APP_MANIFEST),
            ("crates/app/src/lib.rs", LOCKS_FIXTURE),
            ("lint.toml", policy),
        ],
    );
    let failures = lock_failures(root.path());
    assert_eq!(failures.len(), 1, "only the inverted nesting fails: {failures:?}");
    assert!(failures[0].contains("app:low") && failures[0].contains("app:high"));
}

#[test]
fn hermetic_scan_rejects_banned_dependencies() {
    let manifest = "[package]\nname = \"app\"\n\n[dependencies]\nproptest = \"1\"\n";
    let root = workspace(
        "hermetic",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/app/Cargo.toml", manifest),
            ("crates/app/src/lib.rs", "pub fn nothing() {}\n"),
        ],
    );
    let failures = lock_failures(root.path());
    assert!(
        failures.iter().any(|f| f.contains("banned dependency `proptest`")),
        "banned dep must fail: {failures:?}"
    );
}
