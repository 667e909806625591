//! The workspace call graph: conservative, name-based resolution over
//! the [`crate::items`] symbol table.
//!
//! No type inference — resolution is a stack of heuristics, each applied
//! only when it can say something definite, documented here in the order
//! they are tried (and in DESIGN.md §12 with what each one over- and
//! under-approximates):
//!
//! * **`self.m(…)`** — the enclosing `impl` type's method `m` when it
//!   exists; otherwise the unique workspace method named `m`, if any.
//! * **`recv.m(…)`** — the receiver's base type via, in order: a
//!   parameter of the enclosing fn named `recv`, a `let recv =
//!   Type::ctor(…)` / `let recv = Type { …` local binding, or any struct
//!   field named `recv` anywhere in the workspace (field names are merged
//!   across structs — an over-approximation). A known non-workspace type
//!   (e.g. `TcpStream`) resolves to *nothing*, cutting std noise.
//!   Unknown receivers resolve only when the method name is defined
//!   exactly once in the workspace (ambiguous names stay unresolved — an
//!   under-approximation that favors precision over recall).
//! * **`Type::f(…)`** — methods of `Type` when it is a workspace type;
//!   a capitalized non-workspace qualifier (std types) resolves to
//!   nothing.
//! * **`module::f(…)`** — free fns named `f` in that workspace module
//!   (file stem or inline `mod`); unknown lowercase qualifiers (`fs`,
//!   `io`, …) resolve to nothing.
//! * **`f(…)`** — free fns named `f`, same-crate first.
//!
//! Iteration order is deterministic: functions are numbered in crate →
//! file → token order, and edge lists are sorted and deduplicated, so two
//! runs over the same tree produce byte-identical graphs.

use crate::items::{self, FnItem};
use crate::source::{CrateSources, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "fn", "if", "while", "for", "match", "return", "loop", "move", "let", "in", "as", "where",
    "impl", "dyn", "unsafe", "use", "mod", "pub", "crate", "super", "else", "break", "continue",
    "struct", "enum", "trait", "type", "const", "static", "ref", "mut", "box", "await", "yield",
];

/// Method names std defines on its common types (`str`, slices, iterators,
/// collections, `Option`/`Result`, I/O, sync primitives). The
/// unique-workspace-method fallback never fires for these — an unresolved
/// receiver is far more likely a std value than the one workspace type
/// that happens to share the name. Typed lookups are unaffected.
const STD_METHOD_NAMES: &[&str] = &[
    "abs", "all", "and_then", "any", "as_bytes", "as_mut", "as_ref", "as_str", "binary_search",
    "bytes", "chars", "chunks", "clear", "clone", "cloned", "cmp", "collect", "concat", "connect",
    "contains", "contains_key", "copied", "copy_from_slice", "count", "dedup", "drain", "entry",
    "enumerate", "eq", "extend", "filter", "filter_map", "find", "first", "flat_map", "flatten",
    "flush", "fold", "get", "get_mut", "hash", "insert", "into_iter", "is_empty", "iter",
    "iter_mut", "join", "keys", "last", "len", "lines", "load", "lock", "map", "map_or", "max",
    "max_by", "max_by_key", "min", "min_by", "min_by_key", "next", "or_insert", "parse", "peek",
    "pop", "position", "push", "push_str", "read", "read_to_end", "recv", "remove", "replace",
    "resize", "retain", "rev", "reverse", "rfind", "rsplit", "seek", "send", "skip", "sort",
    "sort_by", "sort_by_key", "split", "split_at", "split_off", "split_whitespace", "splitn",
    "starts_with", "ends_with", "store", "sum", "swap", "take", "to_owned", "to_string", "to_vec",
    "trim", "trim_end", "trim_start", "truncate", "unwrap_or", "unwrap_or_else", "values",
    "wait", "windows", "write", "write_all", "zip",
];

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Callee {
    /// `f(…)`, `module::f(…)`, `Type::f(…)`.
    Free { name: String, qualifier: Option<String> },
    /// `recv.m(…)`; `receiver` is the ident directly before the `.`, or
    /// `None` after a chained call (`a.b().c(…)`).
    Method { name: String, receiver: Option<String> },
}

/// One syntactic call site inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    /// Shipped-index of the callee name token.
    pub s: usize,
    pub callee: Callee,
}

/// One function in the graph.
#[derive(Debug)]
pub struct FnNode<'a> {
    /// The owning crate's name (`rased-storage` form).
    pub crate_name: &'a str,
    /// The file the function lives in.
    pub file: &'a SourceFile,
    pub item: FnItem,
}

impl FnNode<'_> {
    /// `crate:Type::fn` / `crate:fn` — the id used in reports and in
    /// `lint.toml` root lists (crate in its short form).
    pub fn id(&self) -> String {
        format!("{}:{}", crate::locks::short_crate(self.crate_name), self.item.display_name())
    }
}

/// A resolved edge out of a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub callee: usize,
    /// Shipped-index of the call site in the *caller's* file.
    pub site_s: usize,
}

/// The workspace call graph.
pub struct Graph<'a> {
    pub fns: Vec<FnNode<'a>>,
    /// Outgoing edges per function, sorted and deduplicated.
    pub edges: Vec<Vec<Edge>>,
}

impl<'a> Graph<'a> {
    /// The report id of function `id` ([`FnNode::id`]); empty for an id
    /// this graph does not hold.
    pub fn fn_id(&self, id: usize) -> String {
        self.fns.get(id).map_or_else(String::new, FnNode::id)
    }

    /// Functions matching a `crate:name` / `crate:Type::name` spec.
    pub(crate) fn find_roots(&self, spec: &str) -> Vec<usize> {
        let Some((krate, name)) = spec.split_once(':') else { return Vec::new() };
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                crate::locks::short_crate(n.crate_name) == krate
                    && (n.item.name == name || n.item.display_name() == name)
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Breadth-first reachable set from `roots`, with the edge that first
    /// discovered each function (for provenance in reports). Includes the
    /// roots themselves (mapped to `None`).
    pub fn reachable(&self, roots: &[usize]) -> BTreeMap<usize, Option<(usize, usize)>> {
        let mut seen: BTreeMap<usize, Option<(usize, usize)>> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in roots {
            if seen.insert(r, None).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(f) = queue.pop_front() {
            for e in self.edges.get(f).into_iter().flatten() {
                if let std::collections::btree_map::Entry::Vacant(v) = seen.entry(e.callee) {
                    v.insert(Some((f, e.site_s)));
                    queue.push_back(e.callee);
                }
            }
        }
        seen
    }

    /// Provenance chain `root → … → id` as display names, following the
    /// discovery edges out of [`Graph::reachable`]. Capped at 8 hops.
    pub fn chain(&self, reach: &BTreeMap<usize, Option<(usize, usize)>>, id: usize) -> String {
        let mut names = vec![self.fn_id(id)];
        let mut cur = id;
        for _ in 0..8 {
            match reach.get(&cur) {
                Some(Some((parent, _))) => {
                    names.push(self.fn_id(*parent));
                    cur = *parent;
                }
                _ => break,
            }
        }
        names.reverse();
        names.join(" → ")
    }

    /// Build the graph for a prepared workspace.
    pub fn build(crates: &'a [CrateSources]) -> Graph<'a> {
        // Pass 1: extract per-file item tables and flatten functions in
        // deterministic (crate, file, token) order.
        let mut fns: Vec<FnNode<'a>> = Vec::new();
        let mut fields: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut modules: BTreeSet<String> = BTreeSet::new();
        let mut types: BTreeSet<String> = BTreeSet::new();
        for c in crates {
            modules.insert(crate::locks::short_crate(&c.name).replace('-', "_"));
            modules.insert(c.name.replace('-', "_"));
            for file in &c.files {
                if let Some(stem) = file.path.file_stem().and_then(|s| s.to_str()) {
                    if stem != "lib" && stem != "main" && stem != "mod" {
                        modules.insert(stem.to_string());
                    }
                }
                let table = items::extract(file);
                for m in table.modules {
                    modules.insert(m);
                }
                for t in table.types {
                    types.insert(t);
                }
                for (name, ty) in table.fields {
                    fields.entry(name).or_default().insert(ty);
                }
                for item in table.fns {
                    fns.push(FnNode { crate_name: &c.name, file, item });
                }
            }
        }

        // Indexes for resolution.
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_type: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (id, node) in fns.iter().enumerate() {
            match &node.item.impl_type {
                Some(t) => {
                    methods_by_name.entry(&node.item.name).or_default().push(id);
                    methods_by_type.entry((t.as_str(), &node.item.name)).or_default().push(id);
                    types.insert(t.clone());
                }
                None => free_by_name.entry(&node.item.name).or_default().push(id),
            }
        }

        let resolver = Resolver {
            fns: &fns,
            free_by_name,
            methods_by_name,
            methods_by_type,
            fields,
            modules,
            types,
        };

        // Pass 2: extract call sites per body and resolve.
        let edges: Vec<Vec<Edge>> = fns
            .iter()
            .enumerate()
            .map(|(caller, node)| {
                let Some((open, close)) = node.item.body else { return Vec::new() };
                let file = node.file;
                // Nested fn bodies are separate items: exclude their ranges
                // so their calls are attributed to the nested fn only.
                let nested: Vec<(usize, usize)> = fns
                    .iter()
                    .filter(|other| {
                        std::ptr::eq(other.file, file)
                            && other.item.body.is_some_and(|(o, c)| o > open && c < close)
                    })
                    .filter_map(|other| other.item.body)
                    .collect();
                let locals = local_ctor_types(file, open + 1, close);
                let mut out = Vec::new();
                for call in calls_in(file, open + 1, close, &nested) {
                    let mut targets = resolver.resolve(node, &locals, &call.callee);
                    targets.retain(|&t| t != caller); // self-recursion adds nothing
                    for t in targets {
                        out.push(Edge { callee: t, site_s: call.s });
                    }
                }
                out.sort();
                out.dedup();
                out
            })
            .collect();

        Graph { fns, edges }
    }
}

struct Resolver<'a> {
    fns: &'a [FnNode<'a>],
    free_by_name: BTreeMap<&'a str, Vec<usize>>,
    methods_by_name: BTreeMap<&'a str, Vec<usize>>,
    methods_by_type: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    /// Workspace-wide field name → base types.
    fields: BTreeMap<String, BTreeSet<String>>,
    /// Known module names (file stems, inline mods, crate names).
    modules: BTreeSet<String>,
    /// Known workspace type names.
    types: BTreeSet<String>,
}

impl<'a> Resolver<'a> {
    fn resolve(
        &self,
        caller: &FnNode<'_>,
        locals: &BTreeMap<String, String>,
        callee: &Callee,
    ) -> Vec<usize> {
        match callee {
            Callee::Method { name, receiver } => self.resolve_method(caller, locals, name, receiver.as_deref()),
            Callee::Free { name, qualifier } => self.resolve_free(caller, name, qualifier.as_deref()),
        }
    }

    fn methods_of(&self, ty: &str, name: &str) -> Vec<usize> {
        // Covariant reborrow: shorten the map's key lifetimes to the
        // caller's so `get` accepts short-lived query strings.
        let map: &BTreeMap<(&str, &str), Vec<usize>> = &self.methods_by_type;
        map.get(&(ty, name)).cloned().unwrap_or_default()
    }

    /// The unique workspace method with this name, if exactly one exists.
    ///
    /// The "unique in the workspace" heuristic is unsound exactly when the
    /// name collides with a std method: `v.split(',')` on a `&str` would
    /// resolve to a lone workspace `split` and drag its callees into every
    /// reachability set. Names std defines on its common types never use
    /// this fallback — typed lookups (param/local/field/qualified) still
    /// resolve them precisely.
    fn unique_method(&self, name: &str) -> Vec<usize> {
        if STD_METHOD_NAMES.contains(&name) {
            return Vec::new();
        }
        match self.methods_by_name.get(name) {
            Some(ids) if ids.len() == 1 => ids.clone(),
            _ => Vec::new(),
        }
    }

    fn resolve_method(
        &self,
        caller: &FnNode<'_>,
        locals: &BTreeMap<String, String>,
        name: &str,
        receiver: Option<&str>,
    ) -> Vec<usize> {
        if !self.methods_by_name.contains_key(name) {
            return Vec::new(); // std-only method name
        }
        let Some(recv) = receiver else { return self.unique_method(name) };
        if recv == "self" {
            if let Some(ty) = &caller.item.impl_type {
                let ids = self.methods_of(ty, name);
                if !ids.is_empty() {
                    return ids;
                }
            }
            return self.unique_method(name);
        }
        // Parameter, then local `let recv = Type::…` binding.
        let param_ty = caller.item.params.iter().find(|(n, _)| n == recv).map(|(_, t)| t.as_str());
        if let Some(ty) = param_ty.or_else(|| locals.get(recv).map(|t| t.as_str())) {
            return if self.types.contains(ty) {
                self.methods_of(ty, name)
            } else {
                Vec::new() // known non-workspace type: no edge
            };
        }
        // Workspace-wide field name match.
        if let Some(tys) = self.fields.get(recv) {
            let mut out: Vec<usize> = tys
                .iter()
                .filter(|t| self.types.contains(t.as_str()))
                .flat_map(|t| self.methods_of(t, name))
                .collect();
            out.sort();
            out.dedup();
            return out;
        }
        self.unique_method(name)
    }

    fn resolve_free(&self, caller: &FnNode<'_>, name: &str, qualifier: Option<&str>) -> Vec<usize> {
        match qualifier {
            Some(q) if self.types.contains(q) => self.methods_of(q, name),
            Some(q) if q.chars().next().is_some_and(|c| c.is_ascii_uppercase()) => {
                Vec::new() // non-workspace type (std): no edge
            }
            Some("self" | "crate" | "super") => self.free_fns(caller, name),
            Some(q) if self.modules.contains(q) => {
                let all = self.free_by_name.get(name).cloned().unwrap_or_default();
                // Prefer fns actually living in that module (file stem or
                // inline mod chain); fall back to the full name set.
                let in_module: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&id| {
                        let Some(node) = self.fns.get(id) else { return false };
                        let stem = node.file.path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
                        stem == q || node.item.module_path.iter().any(|m| m == q)
                    })
                    .collect();
                if in_module.is_empty() { all } else { in_module }
            }
            Some(_) => Vec::new(), // unknown module (std: fs, io, mem, …)
            None => self.free_fns(caller, name),
        }
    }

    /// Free fns named `name`, same-crate first.
    fn free_fns(&self, caller: &FnNode<'_>, name: &str) -> Vec<usize> {
        let all = self.free_by_name.get(name).cloned().unwrap_or_default();
        let same_crate: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&id| self.fns.get(id).is_some_and(|n| n.crate_name == caller.crate_name))
            .collect();
        if same_crate.is_empty() { all } else { same_crate }
    }
}

/// Extract syntactic call sites in `shipped[start..end]`, skipping the
/// `exclude`d (nested-fn) ranges.
pub(crate) fn calls_in(
    file: &SourceFile,
    start: usize,
    end: usize,
    exclude: &[(usize, usize)],
) -> Vec<CallSite> {
    let text = |s: usize| file.stext(s);
    let is_ident = |s: usize| file.skind(s) == Some(crate::lexer::TokenKind::Ident);
    let mut out = Vec::new();
    let mut s = start;
    while s < end {
        if let Some(&(_, close)) = exclude.iter().find(|&&(o, c)| s >= o && s <= c) {
            s = close + 1;
            continue;
        }
        if !is_ident(s) || s + 1 >= end || text(s + 1) != "(" {
            s += 1;
            continue;
        }
        let name = text(s).into_owned();
        if NON_CALL_KEYWORDS.contains(&name.as_str()) {
            s += 1;
            continue;
        }
        let prev = if s > 0 { Some(text(s - 1).into_owned()) } else { None };
        let callee = match prev.as_deref() {
            Some("fn") => {
                s += 1;
                continue; // definition, not a call
            }
            Some(".") => {
                let receiver = if s >= 2 && is_ident(s - 2) { Some(text(s - 2).into_owned()) } else { None };
                Callee::Method { name, receiver }
            }
            Some(":") if s >= 2 && text(s - 2) == ":" => {
                let qualifier =
                    if s >= 3 && is_ident(s - 3) { Some(text(s - 3).into_owned()) } else { None };
                Callee::Free { name, qualifier }
            }
            _ => Callee::Free { name, qualifier: None },
        };
        out.push(CallSite { s, callee });
        s += 1;
    }
    out
}

/// Cheap local type facts: `let v = Type::ctor(…)` and `let v = Type { …`
/// bindings inside a body region. First binding wins.
fn local_ctor_types(file: &SourceFile, start: usize, end: usize) -> BTreeMap<String, String> {
    let text = |s: usize| file.stext(s);
    let is_upper_ident = |s: usize| {
        file.skind(s) == Some(crate::lexer::TokenKind::Ident)
            && file.stext(s).chars().next().is_some_and(|c| c.is_ascii_uppercase())
    };
    let mut out = BTreeMap::new();
    let mut s = start;
    while s + 3 < end {
        if text(s) == "let" {
            let mut n = s + 1;
            if n < end && text(n) == "mut" {
                n += 1;
            }
            if n + 2 < end && text(n + 1) == "=" && is_upper_ident(n + 2) {
                let var = text(n).into_owned();
                let ty = text(n + 2).into_owned();
                // `Type::…(` constructor chain or `Type { …` literal.
                let after = n + 3;
                let is_ctor = after < end && (text(after) == ":" || text(after) == "{" || text(after) == "(");
                if is_ctor && var.chars().next().is_some_and(|c| c.is_ascii_lowercase() || c == '_') {
                    out.entry(var).or_insert(ty);
                }
                s = n + 3;
                continue;
            }
        }
        s += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::CrateSources;
    use std::path::PathBuf;

    fn crate_of(name: &str, files: &[(&str, &str)]) -> CrateSources {
        CrateSources {
            name: name.to_string(),
            dir: PathBuf::from(name),
            files: files
                .iter()
                .map(|(p, src)| SourceFile::new(PathBuf::from(p), src.as_bytes().to_vec()))
                .collect(),
        }
    }

    fn edge_names(g: &Graph<'_>, caller: &str) -> Vec<String> {
        let id = (0..g.fns.len()).find(|&i| g.fns[i].item.display_name() == caller).expect(caller);
        g.edges[id].iter().map(|e| g.fns[e.callee].item.display_name()).collect()
    }

    #[test]
    fn free_calls_resolve_same_crate_first() {
        let a = crate_of(
            "rased-a",
            &[("a/src/lib.rs", "fn helper() {}\nfn top() { helper(); }")],
        );
        let b = crate_of("rased-b", &[("b/src/lib.rs", "fn helper() {}")]);
        let crates = vec![a, b];
        let g = Graph::build(&crates);
        assert_eq!(edge_names(&g, "top"), vec!["helper"]);
        let id = (0..g.fns.len()).find(|&i| g.fns[i].item.name == "top").expect("top");
        let target = g.edges[id][0].callee;
        assert_eq!(g.fns[target].crate_name, "rased-a", "same-crate helper wins");
    }

    #[test]
    fn self_method_calls_resolve_to_the_enclosing_impl() {
        let c = crate_of(
            "rased-a",
            &[(
                "a/src/lib.rs",
                "struct S;\nimpl S { fn a(&self) { self.b(); } fn b(&self) {} }\n\
                 struct T;\nimpl T { fn b(&self) {} }",
            )],
        );
        let crates = vec![c];
        let g = Graph::build(&crates);
        assert_eq!(edge_names(&g, "S::a"), vec!["S::b"]);
    }

    #[test]
    fn param_and_field_receivers_resolve_by_type() {
        let c = crate_of(
            "rased-a",
            &[(
                "a/src/lib.rs",
                "struct Conn { stream: TcpStream }\n\
                 struct Pool;\nimpl Pool { fn fetch(&self) {} }\n\
                 struct Holder { pool: Pool }\n\
                 fn use_param(p: &Pool) { p.fetch(); }\n\
                 impl Holder { fn go(&self) { self.pool.fetch(); } }\n\
                 fn std_recv(c: &Conn) { c.stream.read(buf); }",
            )],
        );
        let crates = vec![c];
        let g = Graph::build(&crates);
        assert_eq!(edge_names(&g, "use_param"), vec!["Pool::fetch"]);
        assert_eq!(edge_names(&g, "Holder::go"), vec!["Pool::fetch"]);
        assert!(edge_names(&g, "std_recv").is_empty(), "TcpStream field cuts the edge");
    }

    #[test]
    fn qualified_calls_resolve_types_and_kill_std() {
        let c = crate_of(
            "rased-a",
            &[(
                "a/src/lib.rs",
                "struct Cache;\nimpl Cache { fn open() -> Cache { Cache } }\n\
                 fn go() { let c = Cache::open(); Instant::now(); fs::write(p, b); }",
            )],
        );
        let crates = vec![c];
        let g = Graph::build(&crates);
        assert_eq!(edge_names(&g, "go"), vec!["Cache::open"]);
    }

    #[test]
    fn local_ctor_binding_types_the_receiver() {
        let c = crate_of(
            "rased-a",
            &[(
                "a/src/lib.rs",
                "struct W;\nimpl W { fn new() -> W { W } fn work(&self) {} }\n\
                 fn go() { let w = W::new(); w.work(); }",
            )],
        );
        let crates = vec![c];
        let g = Graph::build(&crates);
        let mut e = edge_names(&g, "go");
        e.sort();
        assert_eq!(e, vec!["W::new", "W::work"]);
    }

    #[test]
    fn ambiguous_unknown_receivers_stay_unresolved() {
        let c = crate_of(
            "rased-a",
            &[(
                "a/src/lib.rs",
                "struct A;\nimpl A { fn get(&self) {} }\nstruct B;\nimpl B { fn get(&self) {} }\n\
                 struct C;\nimpl C { fn only(&self) {} }\n\
                 fn go(x: Mystery) { mystery().get(); mystery().only(); }",
            )],
        );
        let crates = vec![c];
        let g = Graph::build(&crates);
        assert_eq!(edge_names(&g, "go"), vec!["C::only"], "unique name resolves, ambiguous does not");
    }

    #[test]
    fn std_method_names_never_use_the_unique_fallback() {
        // `DiskHashIndex::split` is the only workspace `split`, but
        // `v.split(',')` on an untyped receiver is a str method — no edge.
        // A typed receiver still resolves it precisely.
        let c = crate_of(
            "rased-a",
            &[(
                "a/src/lib.rs",
                "struct Idx;\nimpl Idx { fn split(&self) {} }\n\
                 fn untyped(v: Mystery) { v.split(','); }\n\
                 fn typed(i: &Idx) { i.split(); }",
            )],
        );
        let crates = vec![c];
        let g = Graph::build(&crates);
        assert!(edge_names(&g, "untyped").is_empty(), "std name falls back to no edge");
        assert_eq!(edge_names(&g, "typed"), vec!["Idx::split"]);
    }

    #[test]
    fn graph_is_deterministic_across_builds() {
        let src = "struct S { f: T }\nimpl S { fn a(&self) { self.b(); free(); } fn b(&self) {} }\nfn free() {}";
        let c1 = vec![crate_of("rased-a", &[("a/src/lib.rs", src)])];
        let c2 = vec![crate_of("rased-a", &[("a/src/lib.rs", src)])];
        let g1 = Graph::build(&c1);
        let g2 = Graph::build(&c2);
        let render = |g: &Graph<'_>| {
            (0..g.fns.len())
                .map(|i| format!("{} -> {:?}", g.fn_id(i), g.edges[i]))
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&g1), render(&g2));
    }
}
