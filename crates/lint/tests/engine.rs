//! End-to-end engine tests: synthesized mini-workspaces run through
//! `rased_lint::run_workspace`, asserting lock-rank checking and the two
//! dead-policy rules (a pragma naming a retired category, a rank entry no
//! acquisition uses). Fixture sources live in `tests/fixtures/` so their
//! expected counts are reviewable next to the code that produces them.

use dettest::TempDir;
use rased_lint::run_workspace;

const LOCKS_FIXTURE: &str = include_str!("fixtures/locks_fixture.rs");

const APP_MANIFEST: &str = "[package]\nname = \"app\"\nversion = \"0.1.0\"\n";
const ROOT_MANIFEST: &str = "[workspace]\nmembers = [\"crates/*\"]\n";
const RANKS: &str = "[locks.rank]\n\"app:low\" = 1\n\"app:high\" = 2\n";

/// Build a fresh scratch workspace holding one crate, `app`, whose
/// `lib.rs` is `src`, under the policy `lint_toml`.
fn app_workspace(name: &str, src: &str, lint_toml: &str) -> TempDir {
    let root = TempDir::new(&format!("lint-engine-{name}"));
    for (rel, contents) in [
        ("Cargo.toml", ROOT_MANIFEST),
        ("crates/app/Cargo.toml", APP_MANIFEST),
        ("crates/app/src/lib.rs", src),
        ("lint.toml", lint_toml),
    ] {
        let path = root.file(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, contents).expect("write fixture");
    }
    root
}

fn failures(root: &TempDir) -> Vec<String> {
    run_workspace(root.path()).expect("run").failures
}

#[test]
fn lock_rank_inversions_are_flagged() {
    let root = app_workspace("locks", LOCKS_FIXTURE, RANKS);
    let failures = failures(&root);
    assert_eq!(failures.len(), 1, "only the inverted nesting fails: {failures:?}");
    assert!(failures[0].contains("app:low") && failures[0].contains("app:high"));
}

#[test]
fn pragma_naming_a_retired_category_fails() {
    // Clippy's `#[expect]` replaced the panic pragma: one left behind
    // would suppress nothing, so the run fails on it.
    let src = format!("// lint: allow(panic, \"now an #[expect]\")\n{LOCKS_FIXTURE}");
    let root = app_workspace("stale-pragma", &src, RANKS);
    let failures = failures(&root);
    assert_eq!(failures.len(), 2, "the inversion plus the stale pragma: {failures:?}");
    assert!(
        failures.iter().any(|f| f.contains("lib.rs:1: `// lint: allow(panic, …)` names no rased-lint category")),
        "{failures:?}"
    );
}

#[test]
fn rank_entry_no_acquisition_uses_fails() {
    let policy = format!("{RANKS}\"app:reserved\" = 3\n");
    let root = app_workspace("dead-rank", LOCKS_FIXTURE, &policy);
    let failures = failures(&root);
    assert_eq!(failures.len(), 2, "the inversion plus the dead rank: {failures:?}");
    assert!(
        failures.iter().any(|f| f.contains("[locks.rank] \"app:reserved\" names no lock")),
        "{failures:?}"
    );
}
