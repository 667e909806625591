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
//!
//! Two more checks keep the declared crate graph honest: every in-repo
//! `[dependencies]` edge is used by the crate that declares it, and
//! `benchmark/Cargo.lock` still lists exactly the edges the manifests
//! declare, so a change that would make cargo rewrite that frozen lock
//! fails here rather than in the benchmark run.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Declared edges no source names, kept because each lies inside
/// `benchmark/Cargo.toml`'s dependency closure: removing one rewrites
/// `benchmark/Cargo.lock`, which only a change to the benchmark may do
/// (ROADMAP item 7(e)).
const UNUSED_EDGES: &[(&str, &str)] = &[
    ("rased-dashboard", "rased-baseline"),
    ("rased-dashboard", "rased-query"),
    ("rased-collector", "rased-geo"),
    ("rased-cube", "rased-temporal"),
    ("rased-baseline", "rased-cube"),
];

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

/// The in-repo crates (`rased-*`, `dettest`) under a manifest's
/// `[dependencies]` table, in declaration order. Dev-dependencies are not
/// edges of the build graph a dependent sees.
fn declared_deps(manifest: &str) -> Vec<String> {
    let mut in_deps = false;
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
        } else if in_deps {
            let key = line.split(['.', '=', ' ']).next().unwrap_or("");
            if key.starts_with("rased-") || key == "dettest" {
                out.push(key.to_string());
            }
        }
    }
    out
}

/// A manifest's `[package] name`.
fn package_name(manifest: &str) -> &str {
    let line = manifest
        .lines()
        .find(|l| l.starts_with("name = "))
        .expect("manifest has a name");
    line.trim_start_matches("name = ").trim_matches('"')
}

/// Every package of the workspace and the benchmark: name → directory.
fn packages(root: &Path) -> BTreeMap<String, PathBuf> {
    let mut dirs = vec![root.to_path_buf(), root.join("benchmark")];
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ readable");
    dirs.extend(crates.map(|e| e.expect("crates/ entry").path()));
    dirs.into_iter()
        .filter_map(|d| {
            let manifest = std::fs::read_to_string(d.join("Cargo.toml")).ok()?;
            Some((package_name(&manifest).to_string(), d))
        })
        .collect()
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.map(|e| e.expect("dir entry").path()) {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `package → its dependency names` for every `[[package]]` of a lockfile.
fn lock_deps(lock: &str) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    for block in lock.split("[[package]]").skip(1) {
        let mut lines = block.lines().map(str::trim);
        let name = lines
            .find_map(|l| l.strip_prefix("name = "))
            .expect("package has a name");
        let deps = block
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "dependencies = [")
            .skip(1)
            .take_while(|l| *l != "]")
            .map(|l| l.trim_matches([' ', '"', ',']).to_string())
            .collect();
        out.insert(name.trim_matches('"').to_string(), deps);
    }
    out
}

/// Every `(crate, dependency)` edge of the workspace that no non-comment
/// line of the crate's sources names. `benchmark/` is checked against its
/// lock instead: only a change to the benchmark may edit its manifest.
fn unused_edges(root: &Path) -> Vec<(String, String)> {
    let mut unused = Vec::new();
    for (name, dir) in packages(root).into_iter().filter(|(n, _)| n != "rased-benchmark") {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("manifest readable");
        let mut files = Vec::new();
        for sub in ["src", "tests", "examples", "benches"] {
            rs_files(&dir.join(sub), &mut files);
        }
        let words: BTreeSet<String> = files
            .iter()
            .map(|f| std::fs::read_to_string(f).expect("source readable"))
            .flat_map(|t| {
                t.lines()
                    .filter(|l| !l.trim_start().starts_with("//"))
                    .flat_map(|l| l.split(|c: char| !(c.is_alphanumeric() || c == '_')))
                    .map(str::to_string)
                    .collect::<Vec<_>>()
            })
            .collect();
        for dep in declared_deps(&manifest) {
            if !words.contains(&dep.replace('-', "_")) {
                unused.push((name.clone(), dep));
            }
        }
    }
    unused
}

#[test]
fn every_declared_crate_edge_is_used() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let unused: Vec<String> = unused_edges(root)
        .into_iter()
        .filter(|(from, to)| !UNUSED_EDGES.contains(&(from.as_str(), to.as_str())))
        .map(|(from, to)| format!("{from} -> {to}"))
        .collect();
    assert!(
        unused.is_empty(),
        "declared but never named in the crate's sources:\n  {}",
        unused.join("\n  ")
    );
}

#[test]
fn exempt_edges_are_still_declared_and_unused() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let unused = unused_edges(root);
    for (from, to) in UNUSED_EDGES {
        assert!(
            unused.iter().any(|(f, t)| f == from && t == to),
            "{from} -> {to} is exempt but no longer a declared, unused edge"
        );
    }
}

#[test]
fn benchmark_lockfile_agrees_with_manifests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let packages = packages(root);
    let lock =
        std::fs::read_to_string(root.join("benchmark/Cargo.lock")).expect("lockfile readable");
    let locked = lock_deps(&lock);
    assert!(
        locked.contains_key("rased-benchmark"),
        "benchmark/Cargo.lock lists no rased-benchmark"
    );
    for (name, deps) in locked {
        let dir = packages
            .get(&name)
            .unwrap_or_else(|| panic!("{name} in benchmark/Cargo.lock is not in the repo"));
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("manifest readable");
        let mut declared = declared_deps(&manifest);
        declared.sort();
        assert_eq!(
            declared, deps,
            "{name}'s [dependencies] no longer match benchmark/Cargo.lock: cargo would rewrite the frozen lock"
        );
    }
}
