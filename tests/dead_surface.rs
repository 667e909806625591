//! Dead-surface guard: every `pub` item of a crate's library is named
//! somewhere outside that library, or sits on [`ALLOW`] with the reason it
//! has to stay `pub`.
//!
//! "Outside" is every other crate's sources, the crate's own `tests/`,
//! `benches/` and binaries (`src/main.rs`, `src/bin/`), the root package's
//! `src/`, `tests/` and `examples/`, and `benchmark/src`. An item only the
//! library itself uses is `pub(crate)` or private; one only its unit tests
//! use lives under `#[cfg(test)]`.
//!
//! The scan is by word, not by resolved path, like `grep -w`: a `pub`
//! line above a file's first `#[cfg(test)]` declares a name (`fn`,
//! `struct`, `enum`, `trait`, `const`, `type`, `static` or `mod`), and the
//! name counts as used when any non-comment line outside the library
//! spells it. A common name such as `new` is always "used"; the guard
//! catches the distinctive names that make up most dead surface.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// `(crate directory, item, why it stays pub)`. An entry must still name a
/// `pub` item that nothing outside its library names. Each one appears in
/// the signature of a `pub` item that is used outside, so narrowing it
/// would trip rustc's `private_interfaces` lint.
#[rustfmt::skip]
const ALLOW: &[(&str, &str, &str)] = &[
    (".", "DemoSystem", "returned by `demo::build_demo_system`"),
    ("core", "ExecConfig", "type of the pub field `RasedConfig::exec`"),
    ("core", "IngestReport", "returned by `Rased::ingest_dataset` and `ingest_files`"),
    ("core", "QueueFull", "error of `IngestController::enqueue`"),
    ("core", "RasedError", "error of `Rased::create`, `open`, `query` and the other entry points"),
    ("core", "SpatialConfig", "type of the pub field `RasedConfig::spatial`"),
    ("dashboard", "AdmissionControl", "returned by `DashboardServer::admission`"),
    ("dashboard", "ApiError", "error of `parse_analysis_query`"),
    ("dashboard", "ServerMetrics", "returned by `DashboardServer::metrics`"),
    ("dettest", "Bools", "returned by `bools`"),
    ("dettest", "BoxedStrategy", "returned by `Strategy::boxed`, taken by `one_of` and `weighted`"),
    ("dettest", "Just", "returned by `just`"),
    ("dettest", "LenRange", "bound on the length argument of `vec_of` and `string_from`"),
    ("dettest", "Map", "returned by `Strategy::prop_map`"),
    ("dettest", "OneOf", "returned by `one_of`"),
    ("dettest", "OptionOf", "returned by `option_of`"),
    ("dettest", "Shrink", "returned by `Strategy::tree`"),
    ("dettest", "VecOf", "returned by `vec_of`"),
    ("dettest", "Weighted", "returned by `weighted`"),
    ("geo", "CellCover", "returned by `GridSpec::cover`"),
    ("index", "CubeKey", "taken or returned by `TemporalIndex::keys`, `fetch_block_at` and `SpatialBank::key_for`"),
    ("index", "PlannedBlock", "element of `ViewportPlan`'s blocks, which `rased-query` folds"),
    ("index", "PlannedCube", "element of the pub field `QueryPlan::cubes`"),
    ("index", "SpatialPublishReport", "returned by `SpatialBank::publish_day` and `rebuild_month`"),
    ("index", "ViewportPlan", "returned by `LatticePlanner::plan_viewport`"),
    ("lint", "Acquisition", "element of the pub field `BodyFacts::acquisitions`"),
    ("lint", "BodyFacts", "returned by `locks::scan`"),
    ("lint", "ConfigError", "error of `Config::parse`"),
    ("lint", "Edge", "element of the pub field `Graph::edges`"),
    ("lint", "FileItems", "returned by `items::extract`"),
    ("lint", "Finding", "element of the pub field `Report::findings`"),
    ("lint", "FnItem", "element of the pub field `FileItems::fns`"),
    ("lint", "FnNode", "element of the pub field `Graph::fns`"),
    ("lint", "LexError", "error of `lexer::lex_strict`"),
    ("lint", "LexErrorKind", "payload of `TokenKind::Error`"),
    ("lint", "Token", "returned by `lexer::lex`"),
    ("osm-gen", "CountryZone", "returned by `WorldAtlas::countries` and `zone`"),
    ("osm-gen", "DatasetError", "error of `Dataset::generate` and `load_manifest`"),
    ("osm-gen", "DatasetPaths", "type of the pub field `Dataset::paths`"),
    ("osm-gen", "SimConfig", "type of the pub field `DatasetConfig::sim`"),
    ("osm-gen", "WorldConfig", "type of the pub field `DatasetConfig::world`"),
    ("osm-xml", "XmlError", "payload of `OsmDocError::Xml`"),
    ("storage", "LockName", "returned by `Mutex::name` and `RwLock::name`"),
    ("storage", "MutexGuard", "returned by `Mutex::lock`, taken by `Condvar::wait`"),
    ("storage", "PoolStats", "returned by `BufferPool::stats`"),
    ("storage", "RwLockReadGuard", "returned by `RwLock::read`"),
    ("storage", "RwLockWriteGuard", "returned by `RwLock::write`"),
    ("storage", "WordHasher", "the `Hasher` of `WordHashState`'s `BuildHasher` impl"),
    ("temporal", "DateError", "error of `Date::new` and `DateRange::parse`"),
    ("temporal", "DayIter", "returned by `DateRange::days`"),
    ("temporal", "PeriodIter", "returned by `DateRange::periods_within`"),
    ("temporal", "Weekday", "returned by `Date::weekday`"),
    ("warehouse", "RowId", "returned by `Warehouse::insert`, taken by `Warehouse::scan`'s visitor"),
];

const KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "const", "type", "static", "mod",
];

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

/// The name a `pub` item line declares, if it declares one of [`KEYWORDS`].
fn declared_name(line: &str) -> Option<&str> {
    let mut words = line.trim_start().strip_prefix("pub ")?.split_whitespace();
    let mut word = words.next()?;
    while matches!(word, "async" | "unsafe" | "extern" | "\"C\"") {
        word = words.next()?;
    }
    if word == "const" && words.clone().next() == Some("fn") {
        word = words.next()?;
    }
    if !KEYWORDS.contains(&word) {
        return None;
    }
    let rest = words.next()?;
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    rest.get(..end).filter(|n| !n.is_empty())
}

/// Every `pub` item name declared above the file's first `#[cfg(test)]`.
fn pub_items(text: &str) -> Vec<String> {
    text.lines()
        .take_while(|l| !l.contains("#[cfg(test)]"))
        .filter_map(declared_name)
        .map(str::to_string)
        .collect()
}

/// The identifiers on a file's non-comment lines.
fn words(text: &str) -> BTreeSet<String> {
    text.lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .flat_map(|l| l.split(|c: char| !(c.is_alphanumeric() || c == '_')))
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

/// Crate directory → its library's files: `src/` minus the binaries.
fn libraries(root: &Path) -> BTreeMap<String, Vec<PathBuf>> {
    let mut out = BTreeMap::new();
    let mut crates = vec![(".".to_string(), root.to_path_buf())];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let path = entry.expect("crates/ entry").path();
        let name = path
            .file_name()
            .expect("crate dir name")
            .to_string_lossy()
            .into_owned();
        crates.push((name, path));
    }
    for (name, dir) in crates {
        let src = dir.join("src");
        let mut files = Vec::new();
        rs_files(&src, &mut files);
        files.retain(|f| *f != src.join("main.rs") && !f.starts_with(src.join("bin")));
        out.insert(name, files);
    }
    out
}

/// Every `pub` item no source outside its library names, as `(crate, item)`.
fn unnamed_pub_items(root: &Path) -> BTreeSet<(String, String)> {
    let mut all = Vec::new();
    for dir in ["src", "tests", "examples", "crates", "benchmark/src"] {
        rs_files(&root.join(dir), &mut all);
    }
    // Lint fixtures are inputs to the linter's tests, not users of any API,
    // and this file's allowlist names what it exempts.
    all.retain(|f| {
        !f.components()
            .any(|c| c.as_os_str() == "target" || c.as_os_str() == "fixtures")
    });
    all.retain(|f| *f != root.join(file!()));
    let text: BTreeMap<PathBuf, String> = all
        .into_iter()
        .map(|f| {
            (
                f.clone(),
                std::fs::read_to_string(&f).expect("source readable"),
            )
        })
        .collect();
    // word → the files that spell it
    let mut spelled_in: BTreeMap<String, Vec<&PathBuf>> = BTreeMap::new();
    for (file, t) in &text {
        for w in words(t) {
            spelled_in.entry(w).or_default().push(file);
        }
    }
    let mut out = BTreeSet::new();
    for (krate, lib) in libraries(root) {
        for file in &lib {
            for item in pub_items(&text[file]) {
                let files = spelled_in.get(&item).map_or(&[][..], Vec::as_slice);
                if files.iter().all(|f| lib.contains(f)) {
                    out.insert((krate.clone(), item));
                }
            }
        }
    }
    out
}

#[test]
fn every_pub_item_is_named_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let unnamed = unnamed_pub_items(root);
    let dead: Vec<String> = unnamed
        .iter()
        .filter(|(c, i)| !ALLOW.iter().any(|(ac, ai, _)| ac == c && ai == i))
        .map(|(c, i)| format!("{c}: {i}"))
        .collect();
    assert!(
        dead.is_empty(),
        "{} pub items are named nowhere outside their crate's library; make them pub(crate), \
         move them under #[cfg(test)], delete them, or allowlist them with a reason:\n  {}",
        dead.len(),
        dead.join("\n  ")
    );
}

#[test]
fn every_allowlist_entry_is_still_needed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let unnamed = unnamed_pub_items(root);
    let stale: Vec<String> = ALLOW
        .iter()
        .filter(|(c, i, _)| !unnamed.contains(&(c.to_string(), i.to_string())))
        .map(|(c, i, _)| format!("{c}: {i}"))
        .collect();
    assert!(
        stale.is_empty(),
        "allowlisted but named outside, or no longer pub:\n  {}",
        stale.join("\n  ")
    );
    assert!(
        ALLOW.iter().all(|(_, _, why)| !why.is_empty()),
        "every allowlist entry needs a reason"
    );
}

#[test]
fn scan_reads_declarations_and_skips_unit_tests() {
    let src = "pub fn alpha() {}\npub(crate) fn beta() {}\npub const fn gamma() {}\n\
               pub struct Delta;\npub use x::Epsilon;\npub const ZETA: u8 = 0;\n\
               #[cfg(test)]\nmod tests { pub fn eta() {} }\n";
    assert_eq!(pub_items(src), ["alpha", "gamma", "Delta", "ZETA"]);
    assert!(!words("// alpha\nlet b = beta();").contains("alpha"));
}
