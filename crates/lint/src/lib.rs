//! `rased-lint` — the workspace's interprocedural lock and nonblocking
//! audit.
//!
//! Panics, indexing, determinism and unsafe code are the compiler's job:
//! the root `Cargo.toml`'s `[workspace.lints]` tables and `clippy.toml`.
//! This crate keeps the two checks no tool provides, both of which reason
//! across call edges. It is a std-only engine over the workspace's own
//! sources, built on a total Rust lexer ([`lexer`]): any byte sequence
//! lexes to tokens or a typed error, never a panic — the same contract as
//! the serving tier's HTTP parser.
//!
//! Passes (each a module, each feeding [`Finding`]s into one report):
//!
//! * [`locks`] — static lock-discipline audit against the rank table in
//!   `lint.toml`, within each function and propagated across calls;
//!   complements the runtime cycle detector in `rased_storage::sync`.
//! * [`nonblocking`] — no blocking work reachable from an event-loop root.
//!
//! Justified residue is suppressed in place with
//! `// lint: allow(<category>, "<reason>")` on the finding's line or the
//! line above; suppressions are counted and reported, never silent. A
//! pragma naming any other category, and a rank entry no acquisition
//! uses, fail the run: dead policy does not linger.

pub mod callgraph;
pub mod config;
pub mod items;
pub mod lexer;
pub mod locks;
pub mod nonblocking;
pub mod source;

use config::Config;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The finding taxonomy. Every unsuppressed finding fails the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    Lock,
    /// Blocking work reachable from an event-loop root ([`nonblocking`]).
    Nonblocking,
}

impl Category {
    /// The name used in pragmas and report output.
    pub fn name(self) -> &'static str {
        match self {
            Category::Lock => "lock",
            Category::Nonblocking => "nonblocking",
        }
    }
}

/// One finding, suppressed or not.
#[derive(Debug, Clone)]
pub struct Finding {
    pub category: Category,
    /// Owning crate.
    pub crate_name: String,
    /// Workspace-relative path.
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    pub message: String,
    /// Covered by a `// lint: allow(...)` pragma.
    pub suppressed: bool,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}{}",
            self.path.display(),
            self.line,
            self.category.name(),
            self.message,
            if self.suppressed { " (suppressed by pragma)" } else { "" },
        )
    }
}

/// The complete result of a workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, including suppressed ones.
    pub findings: Vec<Finding>,
    /// Hard failures (formatted), empty on a passing run.
    pub failures: Vec<String>,
}

impl Report {
    /// Did the run pass?
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run both passes over the workspace at `root` into a [`Report`].
pub fn run_workspace(root: &Path) -> Result<Report, Box<dyn std::error::Error>> {
    let config = Config::load(root)?;
    let crates = source::discover_workspace(root)?;

    let mut report = Report::default();
    let mut acquired = BTreeSet::new();
    for c in &crates {
        for file in &c.files {
            let facts = locks::scan(&c.name, &config, file, &mut report.findings);
            acquired.extend(facts.acquisitions.into_iter().map(|a| a.lock));
            for (line, category) in &file.pragmas {
                if ![Category::Lock, Category::Nonblocking].iter().any(|c| c.name() == category) {
                    report.failures.push(format!(
                        "{}:{line}: `// lint: allow({category}, …)` names no rased-lint category \
                         (lock, nonblocking): it suppresses nothing",
                        file.path.display()
                    ));
                }
            }
        }
    }
    for lock in config.lock_ranks.keys().filter(|l| !acquired.contains(*l)) {
        report.failures.push(format!(
            "lint.toml: [locks.rank] \"{lock}\" names no lock any shipped code acquires"
        ));
    }

    // Interprocedural passes over the workspace call graph: cross-function
    // lock-rank propagation and the nonblocking event-loop invariant.
    let graph = callgraph::Graph::build(&crates);
    locks::propagate(&config, &graph, &mut report.findings);
    nonblocking::scan(&config, &graph, &mut report.findings);

    report.failures.extend(report.findings.iter().filter(|f| !f.suppressed).map(|f| f.to_string()));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_names_match_pragma_syntax() {
        assert_eq!(Category::Lock.name(), "lock");
        assert_eq!(Category::Nonblocking.name(), "nonblocking");
    }
}
