//! The lock-discipline pass: intra-function audit plus interprocedural
//! rank propagation over the workspace call graph.
//!
//! A static, heuristic complement to the runtime detector in
//! `rased_storage::sync`: where the runtime graph catches whatever the
//! test suites actually execute, this pass reads every shipped function
//! and checks the acquisitions it can see against the declared lock-rank
//! table in `lint.toml`.
//!
//! What it extracts (token-level, no type information):
//!
//! * An **acquisition** is `recv.lock()` / `recv.read()` / `recv.write()`
//!   with *empty* parentheses — the empty-args requirement keeps
//!   `io::Read::read(&mut buf)` and `Write::write(&data)` out. The lock's
//!   identity is `<crate>:<field>` where `field` is the last path segment
//!   before the method (`self.inner.lock()` → `inner`).
//! * A guard is **held** when the acquisition is bound by `let` at the
//!   same brace depth *and ends the initializer*
//!   (`let g = self.inner.lock();`); it is released by `drop(g)` or when
//!   its scope closes. Unbound acquisitions
//!   (`self.inner.lock().closed = true`), block-scoped initializers
//!   (`let x = { self.inner.lock().get() };`), and chained initializers
//!   (`let n = self.inner.lock().len();` — the guard is a statement
//!   temporary dropped at the `;`) are all temporaries.
//! * An acquisition in the **scrutinee** of a `match`, `if let`, or
//!   `while let` is held through the whole block: Rust extends scrutinee
//!   temporaries to the end of the expression, so
//!   `while let Some(j) = self.jobs.lock().pop() { … }` holds `jobs`
//!   across every iteration's body — the classic deadlock footgun.
//!
//! Intra-function checks:
//!
//! * **Nested order** — acquiring lock `B` while holding `A` requires both
//!   to be ranked and `rank(B) > rank(A)`: ranks define the one legal
//!   global order, so cycles are impossible by construction.
//! * **Write-guard across I/O** — filesystem calls while a `.write()`
//!   guard is held stall every reader behind a disk operation; flagged
//!   (suppress with `// lint: allow(lock, "…")` where the write-out is the
//!   point, e.g. checkpointing).
//!
//! Interprocedural check ([`propagate`]):
//!
//! * The set of locks possibly held at each function's **entry** is the
//!   fixpoint of: caller's entry set ∪ locks the caller holds at the call
//!   site, joined over all call edges. An acquisition of `B` in a function
//!   whose entry set contains `A` with `rank(B) <= rank(A)` is flagged —
//!   the cross-function version of the nested-order rule. Pairs where
//!   either lock is unranked are *skipped* here (unlike the intra check):
//!   the call graph over-approximates, so unranked noise would drown the
//!   signal; same-function nesting still demands declaration.
//!   Files in `[locks] exempt_files` (the lock primitive's own internals,
//!   audited by the intra pass and the runtime detector) contribute no
//!   facts and receive no findings.

use crate::callgraph::Graph;
use crate::config::Config;
use crate::source::SourceFile;
use crate::{Category, Finding};
use std::collections::BTreeMap;

/// Identifiers that signal filesystem I/O in this workspace.
pub(crate) const IO_MARKERS: &[&str] =
    &["fs", "write_all_at", "read_exact_at", "sync_all", "File", "OpenOptions", "flush"];

#[derive(Debug)]
struct HeldGuard {
    binding: String,
    lock: String,
    /// `{`-depth at which the guard was bound; leaving it releases.
    depth: usize,
    is_write: bool,
}

/// One `.lock()`/`.read()`/`.write()` acquisition event in a body.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// `<crate>:<field>` lock id.
    pub lock: String,
    /// Shipped index of the method-name token.
    pub s: usize,
    pub is_write: bool,
}

/// Facts extracted from one body region, for the interprocedural passes.
#[derive(Debug, Default)]
pub struct BodyFacts {
    /// Every acquisition event, held or temporary.
    pub acquisitions: Vec<Acquisition>,
    /// Locks held at each `ident(`-shaped call site, keyed by the shipped
    /// index of the name token (the same index `callgraph::CallSite::s`
    /// uses). Only non-empty sets are recorded.
    pub held_at: BTreeMap<usize, Vec<String>>,
}

/// Run the intra-function pass over one file, returning its facts (the
/// caller checks every ranked lock is acquired somewhere).
pub fn scan(crate_name: &str, config: &Config, file: &SourceFile, out: &mut Vec<Finding>) -> BodyFacts {
    analyze(crate_name, config, file, 0, file.shipped.len(), Some(out))
}

/// Walk `shipped[start..end]` with the guard state machine: extract
/// [`BodyFacts`], and when `findings` is given, emit the intra-function
/// order and I/O-under-write-guard findings.
pub fn analyze(
    crate_name: &str,
    config: &Config,
    file: &SourceFile,
    start: usize,
    end: usize,
    mut findings: Option<&mut Vec<Finding>>,
) -> BodyFacts {
    let text = |s: usize| file.stext(s);
    let push = |out: &mut Vec<Finding>, s: usize, message: String| {
        let line = file.sline(s);
        out.push(Finding {
            category: Category::Lock,
            crate_name: crate_name.to_string(),
            path: file.path.clone(),
            line,
            message,
            suppressed: file.suppressed(line, Category::Lock.name()),
        });
    };

    let mut facts = BodyFacts::default();
    let mut depth = 0usize;
    let mut held: Vec<HeldGuard> = Vec::new();
    // The pending `let <ident> =` of the current statement, with the depth
    // it occurred at; cleared at `;`.
    let mut pending_let: Option<(String, usize)> = None;
    // Between a `match` / `if let` / `while let` keyword and its block's
    // `{`: acquisitions here are scrutinee temporaries, held through the
    // whole block (bound at depth + 1).
    let mut in_scrutinee = false;

    let mut s = start;
    while s < end {
        let t = text(s);

        // Record the held set at call-shaped sites (ident followed by `(`)
        // *before* processing the token — a `.lock()` call's own lock is
        // not yet held while `lock` runs.
        if !held.is_empty()
            && file.skind(s) == Some(crate::lexer::TokenKind::Ident)
            && s + 1 < end
            && text(s + 1) == "("
        {
            facts.held_at.insert(s, held.iter().map(|g| g.lock.clone()).collect());
        }

        match t.as_ref() {
            "{" => {
                depth += 1;
                in_scrutinee = false;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                held.retain(|g| g.depth <= depth);
            }
            ";" => {
                pending_let = None;
                in_scrutinee = false;
            }
            "match" => in_scrutinee = true,
            "if" | "while" => {
                if s + 1 < end && text(s + 1) == "let" {
                    in_scrutinee = true;
                }
            }
            "let" => {
                // The `let` of an `if let` / `while let` introduces a
                // pattern, not a guard binding — the scrutinee rule below
                // handles its temporaries.
                if !in_scrutinee && s + 1 < end {
                    let next = text(s + 1).into_owned();
                    // `let mut g = …` / `let g = …`; destructuring lets
                    // can't bind a single guard, skip them.
                    let name_idx = if next == "mut" { s + 2 } else { s + 1 };
                    if name_idx < end {
                        let name = text(name_idx).into_owned();
                        if name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_') {
                            pending_let = Some((name, depth));
                        }
                    }
                }
            }
            "drop" => {
                // `drop(ident)` releases that guard.
                if s + 2 < end && text(s + 1) == "(" {
                    let target = text(s + 2).into_owned();
                    held.retain(|g| g.binding != target);
                }
            }
            "lock" | "read" | "write" => {
                let is_acquisition = s >= 1
                    && text(s - 1) == "."
                    && s + 2 < end
                    && text(s + 1) == "("
                    && text(s + 2) == ")";
                if is_acquisition {
                    let Some(field) = receiver_field(file, s) else {
                        s += 1;
                        continue;
                    };
                    let lock = format!("{}:{field}", short_crate(crate_name));
                    // Order check against everything currently held.
                    if let Some(out) = findings.as_deref_mut() {
                        for g in &held {
                            check_order(config, &g.lock, &lock, s, &mut |s, m| push(out, s, m));
                        }
                    }
                    facts.acquisitions.push(Acquisition {
                        lock: lock.clone(),
                        s,
                        is_write: t == "write",
                    });
                    if in_scrutinee {
                        // Scrutinee temporary: held through the coming
                        // block (from its `{` to its `}`).
                        held.push(HeldGuard {
                            binding: "<scrutinee>".to_string(),
                            lock,
                            depth: depth + 1,
                            is_write: t == "write",
                        });
                    } else if let Some((binding, let_depth)) = &pending_let {
                        // Held only when directly bound by `let` at this
                        // depth *and* the acquisition ends the initializer
                        // (`let g = x.lock();`). A chained initializer
                        // (`let n = x.lock().len();`) binds the chain's
                        // result, not the guard — that temporary dies at
                        // the `;`.
                        let ends_initializer = s + 3 < end && text(s + 3) == ";";
                        if *let_depth == depth && ends_initializer {
                            held.push(HeldGuard {
                                binding: binding.clone(),
                                lock,
                                depth,
                                is_write: t == "write",
                            });
                            pending_let = None;
                        }
                    }
                }
            }
            _ => {
                // I/O while a write guard is held.
                if IO_MARKERS.contains(&t.as_ref()) && held.iter().any(|g| g.is_write) {
                    if let Some(out) = findings.as_deref_mut() {
                        let lock = held
                            .iter()
                            .rev()
                            .find(|g| g.is_write)
                            .map(|g| g.lock.clone())
                            .unwrap_or_default();
                        push(out, s, format!("I/O (`{t}`) while write guard on `{lock}` is held"));
                    }
                }
            }
        }
        s += 1;
    }
    facts
}

/// The interprocedural rank check: propagate entry-held lock sets along
/// call edges to a fixpoint, then flag acquisitions that invert rank
/// against any possibly-entry-held lock.
pub fn propagate(config: &Config, graph: &Graph<'_>, out: &mut Vec<Finding>) {
    let n = graph.fns.len();
    // Per-function body facts; exempt files (and bodyless fns) are opaque.
    let facts: Vec<Option<BodyFacts>> = graph
        .fns
        .iter()
        .map(|node| {
            if config.lock_exempt_files.iter().any(|p| node.file.path == std::path::Path::new(p)) {
                return None;
            }
            let (open, close) = node.item.body?;
            Some(analyze(node.crate_name, config, node.file, open + 1, close, None))
        })
        .collect();

    // Entry-held fixpoint: lock → one example (caller, call-site) for
    // provenance. Keys only grow, so this terminates.
    let mut entry: Vec<BTreeMap<String, (usize, usize)>> = vec![BTreeMap::new(); n];
    let mut queue: std::collections::VecDeque<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(f) = queue.pop_front() {
        if let Some(q) = queued.get_mut(f) {
            *q = false;
        }
        for e in graph.edges.get(f).into_iter().flatten() {
            // Locks crossing this call: the caller's own at-site set plus
            // everything already held at the caller's entry.
            let mut crossing: Vec<String> = facts
                .get(f)
                .and_then(|fa| fa.as_ref())
                .and_then(|fa| fa.held_at.get(&e.site_s))
                .cloned()
                .unwrap_or_default();
            crossing.extend(entry.get(f).into_iter().flat_map(|m| m.keys().cloned()));
            let Some(dst) = entry.get_mut(e.callee) else { continue };
            let mut changed = false;
            for lock in crossing {
                if let std::collections::btree_map::Entry::Vacant(v) = dst.entry(lock) {
                    v.insert((f, e.site_s));
                    changed = true;
                }
            }
            if changed && queued.get(e.callee) == Some(&false) {
                if let Some(q) = queued.get_mut(e.callee) {
                    *q = true;
                }
                queue.push_back(e.callee);
            }
        }
    }

    // Flag rank inversions between entry-held locks and local acquisitions.
    for ((node, fa), held_set) in graph.fns.iter().zip(&facts).zip(&entry) {
        let Some(fa) = fa else { continue };
        if held_set.is_empty() {
            continue;
        }
        let file = node.file;
        for acq in &fa.acquisitions {
            let Some(new_rank) = config.lock_rank(&acq.lock) else { continue };
            for (held_lock, &(caller, site)) in held_set {
                let Some(held_rank) = config.lock_rank(held_lock) else { continue };
                let Some(caller) = graph.fns.get(caller) else { continue };
                if new_rank > held_rank {
                    continue;
                }
                let line = file.sline(acq.s);
                let caller_line = caller.file.sline(site);
                out.push(Finding {
                    category: Category::Lock,
                    crate_name: node.crate_name.to_string(),
                    path: file.path.clone(),
                    line,
                    message: format!(
                        "acquiring `{}` (rank {new_rank}) in `{}` while `{held_lock}` \
                         (rank {held_rank}) may be held by caller `{}` ({}:{caller_line}): \
                         ranks must strictly increase across calls",
                        acq.lock,
                        node.id(),
                        caller.id(),
                        caller.file.path.display(),
                    ),
                    suppressed: file.suppressed(line, Category::Lock.name()),
                });
            }
        }
    }
}

/// The field name a `.lock()`/`.read()`/`.write()` call is made on: the
/// identifier directly before the method's `.`.
fn receiver_field(file: &SourceFile, method: usize) -> Option<String> {
    // shipped[method-1] is `.`; shipped[method-2] should be the field.
    if method < 2 {
        return None;
    }
    let prev = file.stext(method - 2).into_owned();
    let is_ident = prev.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    if is_ident && prev != "self" {
        Some(prev)
    } else if prev == "self" {
        // `self.lock()` — a lock wrapper method on self; name by `self`.
        Some("self".to_string())
    } else {
        None
    }
}

fn check_order(
    config: &Config,
    held: &str,
    acquiring: &str,
    s: usize,
    push: &mut dyn FnMut(usize, String),
) {
    let held_rank = config.lock_rank(held);
    let new_rank = config.lock_rank(acquiring);
    match (held_rank, new_rank) {
        (Some(h), Some(n)) if n > h => {} // legal order
        (Some(h), Some(n)) => push(
            s,
            format!(
                "acquiring `{acquiring}` (rank {n}) while holding `{held}` (rank {h}): \
                 ranks must strictly increase"
            ),
        ),
        _ => push(
            s,
            format!(
                "nested acquisition `{held}` → `{acquiring}` with unranked lock(s): \
                 declare both in [locks.rank] in lint.toml"
            ),
        ),
    }
}

/// `rased-storage` → `storage`; rank-table keys use the short form.
pub fn short_crate(name: &str) -> &str {
    name.strip_prefix("rased-").unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn config() -> Config {
        let mut c = Config::default();
        c.lock_ranks.insert("t:a".to_string(), 10);
        c.lock_ranks.insert("t:b".to_string(), 20);
        c
    }

    fn findings(src: &str) -> Vec<Finding> {
        let f = SourceFile::new(PathBuf::from("t.rs"), src.as_bytes().to_vec());
        let mut out = Vec::new();
        scan("rased-t", &config(), &f, &mut out);
        out.into_iter().filter(|f| !f.suppressed).collect()
    }

    #[test]
    fn ordered_nesting_is_clean() {
        let src = "fn f(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn inverted_nesting_is_flagged() {
        let src = "fn f(&self) { let gb = self.b.lock(); let ga = self.a.lock(); }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("ranks must strictly increase"), "{}", f[0].message);
    }

    #[test]
    fn unranked_nesting_is_flagged() {
        let src = "fn f(&self) { let ga = self.a.lock(); let gx = self.mystery.lock(); }";
        let f = findings(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("unranked"), "{}", f[0].message);
    }

    #[test]
    fn dropped_guard_releases() {
        let src = "fn f(&self) { let gb = self.b.lock(); drop(gb); let ga = self.a.lock(); }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn scope_exit_releases() {
        let src = "fn f(&self) { { let gb = self.b.lock(); } let ga = self.a.lock(); }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn unbound_acquisition_is_a_temporary() {
        let src = "fn f(&self) { self.b.lock().x = 1; let ga = self.a.lock(); }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn chained_initializer_acquisition_is_a_temporary() {
        // `let n = b.lock().contains(k);` binds the chain's result; the
        // guard is a statement temporary dropped at the `;` — the later
        // lower-rank acquisition is legal.
        let src =
            "fn f(&self) { let n = self.b.lock().contains(&k); let ga = self.a.lock(); }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn block_initializer_acquisition_is_a_temporary() {
        let src = "fn f(&self) { let v = { self.b.lock().get() }; let ga = self.a.lock(); }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn io_read_write_methods_are_not_acquisitions() {
        let src = "fn f(&self, s: &mut S) { let ga = self.a.lock(); s.read(&mut buf); s.write(&data); }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn io_under_write_guard_is_flagged() {
        let src = "fn f(&self) { let g = self.a.write(); fs::write(&p, &b); }";
        let f = findings(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("write guard"), "{}", f[0].message);
    }

    #[test]
    fn io_under_read_guard_is_fine() {
        let src = "fn f(&self) { let g = self.a.read(); fs::write(&p, &b); }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn while_let_scrutinee_holds_through_the_body() {
        let src = "fn f(&self) { while let Some(j) = self.b.lock().pop() { let ga = self.a.lock(); } }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("ranks must strictly increase"), "{}", f[0].message);
    }

    #[test]
    fn if_let_scrutinee_holds_through_the_body() {
        let src = "fn f(&self) { if let Some(v) = self.b.lock().get() { let ga = self.a.lock(); } }";
        assert_eq!(findings(src).len(), 1);
    }

    #[test]
    fn match_scrutinee_holds_through_all_arms() {
        let src = "fn f(&self) { match self.b.lock().state() { _ => { let ga = self.a.lock(); } } }";
        assert_eq!(findings(src).len(), 1);
    }

    #[test]
    fn scrutinee_guard_releases_at_block_end() {
        let src = "fn f(&self) { if let Some(v) = self.b.lock().get() {} let ga = self.a.lock(); }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn if_let_pattern_name_is_not_a_guard_binding() {
        // The `Some` in `if let Some(v)` must not be treated as a plain
        // `let` binding; the held guard is the scrutinee temporary, scoped
        // to the block, not the enclosing scope.
        let src = "fn f(&self) { if let Some(v) = self.b.lock().get() {} } \
                   fn g(&self) { let ga = self.a.lock(); }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn ordered_acquisition_in_scrutinee_body_is_clean() {
        let src = "fn f(&self) { while let Some(j) = self.a.lock().pop() { let gb = self.b.lock(); } }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn body_facts_record_acquisitions_and_held_sets() {
        let f = SourceFile::new(
            PathBuf::from("t.rs"),
            "fn f(&self) { let ga = self.a.lock(); helper(); }".as_bytes().to_vec(),
        );
        let facts = analyze("rased-t", &config(), &f, 0, f.shipped.len(), None);
        assert_eq!(facts.acquisitions.len(), 1);
        assert_eq!(facts.acquisitions[0].lock, "t:a");
        let held: Vec<&Vec<String>> = facts.held_at.values().collect();
        assert_eq!(held, vec![&vec!["t:a".to_string()]], "helper() sees `t:a` held");
    }
}
