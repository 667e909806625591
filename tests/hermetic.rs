//! Hermeticity guard: the workspace, and the `benchmark/` package beside
//! it, build from in-repo crates only.
//!
//! Cargo records where every package in the build graph comes from in the
//! lockfile: a registry or git package carries a `source = "…"` line, an
//! in-repo path crate has none. So the check reads `Cargo.lock` and
//! `benchmark/Cargo.lock` rather than parsing manifests. It also rejects
//! the crates the workspace does without, even as a vendored path crate:
//! `dettest` replaces the property-testing crates, `rased_storage::sync`
//! the lock crate, and the figures time themselves with `std` alone.

use std::path::Path;

/// Package names that must not appear in the build graph at all.
const BANNED: &[&str] = &["proptest", "quickcheck", "parking_lot", "criterion", "rand", "serde", "tokio"];

/// Every hermeticity violation in one lockfile's text, as `line N: …`.
fn lockfile_violations(lock: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, line) in lock.lines().enumerate() {
        let line = line.trim();
        if line.starts_with("source =") {
            out.push(format!("line {}: external package ({line})", i + 1));
        }
        let name = line.strip_prefix("name = ").map(|n| n.trim_matches('"'));
        if let Some(name) = name.filter(|n| BANNED.contains(n)) {
            out.push(format!("line {}: banned package `{name}`", i + 1));
        }
    }
    out
}

#[test]
fn workspace_has_no_external_dependencies() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for lockfile in ["Cargo.lock", "benchmark/Cargo.lock"] {
        let text = std::fs::read_to_string(root.join(lockfile)).expect("lockfile readable");
        assert!(text.contains("[[package]]"), "{lockfile} lists no packages");
        let violations = lockfile_violations(&text);
        assert!(violations.is_empty(), "{lockfile} is not hermetic:\n  {}", violations.join("\n  "));
    }
}

#[test]
fn registry_source_is_a_violation() {
    let lock = "[[package]]\nname = \"rased\"\nversion = \"0.1.0\"\n\n\
                [[package]]\nname = \"itoa\"\nversion = \"1.0.11\"\n\
                source = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
    let violations = lockfile_violations(lock);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].starts_with("line 8: external package"), "{violations:?}");
}

#[test]
fn banned_package_is_a_violation_even_in_repo() {
    let lock = "[[package]]\nname = \"proptest\"\nversion = \"1.4.0\"\n";
    assert_eq!(lockfile_violations(lock), ["line 2: banned package `proptest`"]);
}

#[test]
fn path_only_lockfile_is_clean() {
    let lock = "version = 4\n\n[[package]]\nname = \"dettest\"\nversion = \"0.1.0\"\n\n\
                [[package]]\nname = \"rased\"\nversion = \"0.1.0\"\ndependencies = [\n \"dettest\",\n]\n";
    assert!(lockfile_violations(lock).is_empty());
}
