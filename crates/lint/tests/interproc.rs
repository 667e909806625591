//! End-to-end tests for the two interprocedural passes: synthesized
//! mini-workspaces run through `rased_lint::run_workspace`, pinning exact
//! finding counts for lock-rank propagation and the
//! blocking-in-nonblocking-context scan — each with a case the
//! intra-function analysis provably cannot see (the defect spans a call
//! edge; every function is clean in isolation) and a pragma-suppressed
//! twin. Fixture sources live in `tests/fixtures/`.

use rased_lint::{run_workspace, Category, Report};
use dettest::TempDir;

const LOCKS_FIXTURE: &str = include_str!("fixtures/interproc_locks_fixture.rs");
const NONBLOCKING_FIXTURE: &str = include_str!("fixtures/interproc_nonblocking_fixture.rs");

const ROOT_MANIFEST: &str = "[workspace]\nmembers = [\"crates/*\"]\n";
const APP_MANIFEST: &str = "[package]\nname = \"app\"\nversion = \"0.1.0\"\n";

/// Build a fresh scratch workspace from `(relative path, contents)` pairs.
fn workspace(name: &str, files: &[(&str, &str)]) -> TempDir {
    let root = TempDir::new(&format!("lint-interproc-{name}"));
    for (rel, contents) in files {
        let path = root.file(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, contents).expect("write fixture");
    }
    root
}

fn category_findings(report: &Report, category: Category) -> (usize, usize) {
    let all = report.findings.iter().filter(|f| f.category == category);
    let (mut total, mut suppressed) = (0, 0);
    for f in all {
        total += 1;
        if f.suppressed {
            suppressed += 1;
        }
    }
    (total, suppressed)
}

#[test]
fn lock_rank_propagation_sees_inversions_across_call_edges() {
    let config = "[locks.rank]\n\"app:lo\" = 10\n\"app:hi\" = 20\n";
    let root = workspace(
        "locks",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("lint.toml", config),
            ("crates/app/Cargo.toml", APP_MANIFEST),
            ("crates/app/src/lib.rs", LOCKS_FIXTURE),
        ],
    );
    let report = run_workspace(root.path()).expect("run");

    // Two propagated inversions exist (`outer → inner`, `justified →
    // pardoned`); only the un-pragma'd one fails. No single function
    // acquires both locks, so the intra-function pass alone finds zero.
    let (total, suppressed) = category_findings(&report, Category::Lock);
    assert_eq!((total, suppressed), (2, 1), "findings: {:?}", report.findings);

    assert_eq!(report.failures.len(), 1, "failures: {:?}", report.failures);
    let failure = report.failures.first().expect("one failure");
    assert!(failure.contains("acquiring `app:lo` (rank 10)"), "{failure}");
    assert!(failure.contains("`app:Hub::inner`"), "{failure}");
    assert!(failure.contains("may be held by caller `app:Hub::outer`"), "{failure}");
}

#[test]
fn nonblocking_scan_follows_calls_out_of_the_event_loop() {
    let config = "[nonblocking]\nroots = [\"app:event_loop\"]\ndeny_calls = [\"app:route\"]\n";
    let root = workspace(
        "nonblocking",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("lint.toml", config),
            ("crates/app/Cargo.toml", APP_MANIFEST),
            ("crates/app/src/lib.rs", NONBLOCKING_FIXTURE),
        ],
    );
    let report = run_workspace(root.path()).expect("run");

    // Three findings — the fs read in `poll`, the denied `route` edge in
    // `dispatch`, the pragma'd checkpoint write — of which one is
    // suppressed. The root itself contains no marker: every finding is
    // at least one call edge away from `event_loop`.
    let (total, suppressed) = category_findings(&report, Category::Nonblocking);
    assert_eq!((total, suppressed), (3, 1), "findings: {:?}", report.findings);
    assert_eq!(report.failures.len(), 2, "failures: {:?}", report.failures);

    let joined = report.failures.join("\n");
    assert!(joined.contains("filesystem I/O (`fs`)"), "{joined}");
    assert!(joined.contains("app:event_loop → app:poll"), "{joined}");
    assert!(joined.contains("call into denied entry point `app:route`"), "{joined}");
    assert!(joined.contains("app:event_loop → app:dispatch"), "{joined}");
}

#[test]
fn clean_interprocedural_workspace_passes() {
    // Same configs, no offending edges: both passes stay silent. `handle`
    // takes the ranked locks in order and off the event loop's path.
    let config = "[nonblocking]\nroots = [\"app:event_loop\"]\n\
                  [locks.rank]\n\"app:lo\" = 10\n\"app:hi\" = 20\n";
    let src = "pub fn handle(&self, x: u32) -> u32 { let a = self.lo.lock(); let b = self.hi.lock(); double(x) }\n\
               fn double(x: u32) -> u32 { x * 2 }\n\
               pub fn event_loop(x: u32) -> u32 { double(x) }\n";
    let root = workspace(
        "clean",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("lint.toml", config),
            ("crates/app/Cargo.toml", APP_MANIFEST),
            ("crates/app/src/lib.rs", src),
        ],
    );
    let report = run_workspace(root.path()).expect("run");
    assert!(report.ok(), "failures: {:?}", report.failures);
    for category in [Category::Lock, Category::Nonblocking] {
        assert_eq!(category_findings(&report, category), (0, 0));
    }
}
