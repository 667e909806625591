//! The blocking-in-nonblocking-context pass.
//!
//! PR 7's event loop serves cache hits inline and must never block: disk
//! I/O, unbounded waits, and render/query work belong on the worker pool.
//! This pass turns that design rule into a CI-enforced invariant. The
//! `[nonblocking]` section of `lint.toml` names the event-loop root
//! functions; every function reachable from them over the workspace call
//! graph is checked for:
//!
//! * **Blocking markers** — the filesystem markers the lock pass already
//!   knows ([`crate::locks::IO_MARKERS`]) plus unbounded-wait primitives
//!   (`sleep`, `wait`, `recv`, and empty-args `.join()` — `Path::join`
//!   takes an argument and is not matched).
//! * **Ranked-mutex acquisitions** outside the `allow_locks` list — the
//!   event loop's own short-critical-section bridge is allowed; anything
//!   else is a latency hazard one call away.
//! * **Edges into `deny_calls`** — render/query entry points that must
//!   stay on workers; an edge is flagged even before any marker inside
//!   the callee is seen.
//!
//! Findings carry the call chain from the root for provenance, honor
//! `// lint: allow(nonblocking, "…")` pragmas, and fail outright (no
//! baseline): the nonblocking set should be clean or justified. Files in
//! `allow_files` (the lock primitive's internals) are skipped.

use crate::callgraph::Graph;
use crate::config::Config;
use crate::{locks, Category, Finding};
use std::collections::BTreeSet;

/// Identifiers that signal an unbounded wait.
const WAIT_MARKERS: &[&str] = &["sleep", "wait", "wait_timeout", "recv", "recv_timeout", "park"];

/// Run the pass. No-op when `[nonblocking] roots` is empty.
pub fn scan(config: &Config, graph: &Graph<'_>, out: &mut Vec<Finding>) {
    if config.nonblocking_roots.is_empty() {
        return;
    }
    let roots: Vec<usize> =
        config.nonblocking_roots.iter().flat_map(|spec| graph.find_roots(spec)).collect();
    let deny: BTreeSet<usize> =
        config.nonblocking_deny_calls.iter().flat_map(|spec| graph.find_roots(spec)).collect();
    let reach = graph.reachable(&roots);

    for &f in reach.keys() {
        let Some(node) = graph.fns.get(f) else { continue };
        let file = node.file;
        if config.nonblocking_allow_files.iter().any(|p| file.path == std::path::Path::new(p)) {
            continue;
        }
        let Some((open, close)) = node.item.body else { continue };
        let chain = graph.chain(&reach, f);
        let push = |out: &mut Vec<Finding>, s: usize, message: String| {
            let line = file.sline(s);
            out.push(Finding {
                category: Category::Nonblocking,
                crate_name: node.crate_name.to_string(),
                path: file.path.clone(),
                line,
                message: format!("{message} in nonblocking context [{chain}]"),
                suppressed: file.suppressed(line, Category::Nonblocking.name()),
            });
        };

        // Blocking markers over the body tokens.
        let text = |s: usize| file.stext(s);
        for s in open + 1..close {
            let t = text(s);
            let followed_by = |p: &str| s + 1 < close && text(s + 1) == p;
            if locks::IO_MARKERS.contains(&t.as_ref()) && (followed_by("(") || followed_by(":")) {
                push(out, s, format!("filesystem I/O (`{t}`)"));
            } else if WAIT_MARKERS.contains(&t.as_ref()) && followed_by("(") {
                push(out, s, format!("unbounded wait (`{t}`)"));
            } else if t == "join"
                && s >= 1
                && text(s - 1) == "."
                && followed_by("(")
                && s + 2 < close
                && text(s + 2) == ")"
            {
                // Empty-args `.join()` is a thread join; `Path::join(seg)`
                // takes an argument and stays unmatched.
                push(out, s, "thread `.join()`".to_string());
            }
        }

        // Ranked-mutex acquisitions outside the allowlist.
        let facts = locks::analyze(node.crate_name, config, file, open + 1, close, None);
        for acq in &facts.acquisitions {
            if !config.nonblocking_allow_locks.contains(&acq.lock) {
                push(out, acq.s, format!("lock acquisition (`{}`) outside [nonblocking] allow_locks", acq.lock));
            }
        }

        // Edges into denied render/query entry points.
        for e in graph.edges.get(f).into_iter().flatten() {
            if deny.contains(&e.callee) {
                push(
                    out,
                    e.site_s,
                    format!("call into denied entry point `{}`", graph.fn_id(e.callee)),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{CrateSources, SourceFile};
    use std::path::PathBuf;

    fn graph_of(files: &'static [(&str, &str)]) -> Vec<CrateSources> {
        vec![CrateSources {
            name: "rased-dashboard".to_string(),
            dir: PathBuf::from("crates/dashboard"),
            files: files
                .iter()
                .map(|(p, src)| SourceFile::new(PathBuf::from(p), src.as_bytes().to_vec()))
                .collect(),
        }]
    }

    fn config() -> Config {
        let mut c = Config::default();
        c.nonblocking_roots = vec!["dashboard:event_loop".to_string()];
        c.nonblocking_allow_locks = vec!["dashboard:jobs".to_string()];
        c
    }

    #[test]
    fn blocking_one_call_below_the_root_is_flagged() {
        // The intra-function pass can't see this: event_loop itself is
        // clean, the fs call hides in a callee.
        let crates = graph_of(&[(
            "crates/dashboard/src/evloop.rs",
            "fn event_loop() { step(); }\nfn step() { fs::write(p, b); }",
        )]);
        let g = Graph::build(&crates);
        let mut out = Vec::new();
        scan(&config(), &g, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("filesystem I/O"), "{}", out[0].message);
        assert!(
            out[0].message.contains("dashboard:event_loop → dashboard:step"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn allowed_locks_pass_and_others_fail() {
        let crates = graph_of(&[(
            "crates/dashboard/src/evloop.rs",
            "fn event_loop(&self) { self.jobs.lock().push(1); self.pages.lock().get(); }",
        )]);
        let g = Graph::build(&crates);
        let mut out = Vec::new();
        scan(&config(), &g, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("dashboard:pages"), "{}", out[0].message);
    }

    #[test]
    fn deny_call_edges_are_flagged_and_pragmas_suppress() {
        let crates = graph_of(&[(
            "crates/dashboard/src/evloop.rs",
            "fn event_loop() { dispatch(); }\n\
             // lint: allow(nonblocking, \"test justification\")\n\
             fn dispatch() { route(req); }\n\
             fn route(r: Req) {}",
        )]);
        let g = Graph::build(&crates);
        let mut c = config();
        c.nonblocking_deny_calls = vec!["dashboard:route".to_string()];
        let mut out = Vec::new();
        scan(&c, &g, &mut out);
        // The edge dispatch → route is found; the pragma on dispatch's
        // line covers the call-site line below it.
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("denied entry point"), "{}", out[0].message);
        assert!(out[0].suppressed, "pragma covers the finding line");
    }

    #[test]
    fn unreachable_functions_are_not_scanned() {
        let crates = graph_of(&[(
            "crates/dashboard/src/evloop.rs",
            "fn event_loop() {}\nfn worker() { fs::write(p, b); }",
        )]);
        let g = Graph::build(&crates);
        let mut out = Vec::new();
        scan(&config(), &g, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
