//! Workspace walking and per-file source preparation.
//!
//! Each lint pass sees a [`SourceFile`]: the lexed token stream, a map of
//! byte offsets to 1-based lines, the set of `// lint: allow(...)` pragmas,
//! and the stream with test-only items removed ([`SourceFile::shipped`]) —
//! the lint audits what ships, not what asserts.

use crate::lexer::{lex, Token, TokenKind};
use std::borrow::Cow;
use std::path::{Path, PathBuf};

/// A crate discovered in the workspace.
#[derive(Debug)]
pub struct CrateSources {
    /// Package name from `Cargo.toml` (e.g. `rased-storage`).
    pub name: String,
    /// Crate root directory, relative to the workspace root.
    pub dir: PathBuf,
    /// The `.rs` files under `src/`, lexed and prepared.
    pub files: Vec<SourceFile>,
}

/// One prepared source file.
pub struct SourceFile {
    /// Path relative to the workspace root (display + allowlists).
    pub path: PathBuf,
    /// Raw bytes.
    pub src: Vec<u8>,
    /// The full token stream (comments included).
    pub tokens: Vec<Token>,
    /// Indices (into `tokens`) of significant tokens outside test-only
    /// items — the stream the correctness passes audit.
    pub shipped: Vec<usize>,
    /// `(line, category)` pairs from `// lint: allow(category, "...")`.
    pub pragmas: Vec<(u32, String)>,
    /// Byte offset of each line start; `line_of` maps spans to lines.
    line_starts: Vec<usize>,
}

impl std::fmt::Debug for SourceFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SourceFile")
            .field("path", &self.path)
            .field("tokens", &self.tokens.len())
            .finish_non_exhaustive()
    }
}

impl SourceFile {
    /// Prepare a file from raw bytes.
    pub fn new(path: PathBuf, src: Vec<u8>) -> SourceFile {
        let tokens = lex(&src);
        let mut line_starts = vec![0usize];
        for (i, b) in src.iter().enumerate() {
            if *b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let mut file = SourceFile { path, src, tokens, shipped: Vec::new(), pragmas: Vec::new(), line_starts };
        file.pragmas = file.collect_pragmas();
        file.shipped = file.strip_test_items();
        file
    }

    /// 1-based line containing byte `offset`.
    pub(crate) fn line_of(&self, offset: usize) -> u32 {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i as u32 + 1,
            Err(i) => i as u32,
        }
    }

    /// The text of token `idx`; empty past the end.
    pub fn text(&self, idx: usize) -> Cow<'_, str> {
        self.tokens.get(idx).map_or(Cow::Borrowed(""), |t| t.text(&self.src))
    }

    /// The token behind shipped index `s`, if in range.
    fn stoken(&self, s: usize) -> Option<&Token> {
        self.shipped.get(s).and_then(|&i| self.tokens.get(i))
    }

    /// The text of shipped token `s`; empty past the end. The bounds-safe
    /// walker the token-stream passes use — a clamped read beats an
    /// out-of-bounds panic inside the lint itself.
    pub fn stext(&self, s: usize) -> Cow<'_, str> {
        self.sig_text(&self.shipped, s)
    }

    /// The text of `sig[s]`, an index list into `tokens`; empty past the end.
    fn sig_text(&self, sig: &[usize], s: usize) -> Cow<'_, str> {
        sig.get(s).map_or(Cow::Borrowed(""), |&i| self.text(i))
    }

    /// The kind of shipped token `s`; `None` past the end.
    pub(crate) fn skind(&self, s: usize) -> Option<TokenKind> {
        self.stoken(s).map(|t| t.kind)
    }

    /// 1-based line of shipped token `s`; 0 past the end.
    pub(crate) fn sline(&self, s: usize) -> u32 {
        self.stoken(s).map_or(0, |t| self.line_of(t.start))
    }

    /// Is a finding of `category` at `line` suppressed by a pragma on the
    /// same line or the line directly above?
    pub fn suppressed(&self, line: u32, category: &str) -> bool {
        self.pragmas
            .iter()
            .any(|(l, c)| c == category && (*l == line || l.checked_add(1) == Some(line)))
    }

    /// Scan comments for `lint: allow(category, "reason")` pragmas.
    fn collect_pragmas(&self) -> Vec<(u32, String)> {
        let mut out = Vec::new();
        for t in &self.tokens {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            let text = t.text(&self.src);
            let body = text.trim_start_matches('/').trim_start_matches('*').trim_start();
            let Some(rest) = body.strip_prefix("lint: allow(") else { continue };
            let category: String =
                rest.chars().take_while(|c| *c != ',' && *c != ')').collect::<String>().trim().to_string();
            if !category.is_empty() {
                out.push((self.line_of(t.start), category));
            }
        }
        out
    }

    /// Indices of significant tokens excluding items behind a test-marking
    /// attribute (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]` — but
    /// not `#[cfg(not(test))]`). Attribute + item tokens are dropped.
    fn strip_test_items(&self) -> Vec<usize> {
        let sig: Vec<usize> =
            self.tokens.iter().enumerate().filter(|(_, t)| t.is_significant()).map(|(i, _)| i).collect();
        let text = |si: usize| self.sig_text(&sig, si);
        let mut kept = Vec::with_capacity(sig.len());
        let mut s = 0usize;
        while let Some(&token) = sig.get(s) {
            if text(s) == "#" && text(s + 1) == "[" {
                let close = self.matching_close(&sig, s + 1);
                let is_test = self.attr_marks_test(&sig, s + 2, close);
                if is_test {
                    // Skip this attribute, any further attributes, then the
                    // item itself.
                    s = close + 1;
                    while s + 1 < sig.len() && text(s) == "#" && text(s + 1) == "[" {
                        s = self.matching_close(&sig, s + 1) + 1;
                    }
                    s = self.skip_item(&sig, s);
                    continue;
                }
            }
            kept.push(token);
            s += 1;
        }
        kept
    }

    /// For `sig[open]` an opening bracket, the index (into `sig`) of its
    /// matching close; saturates at the end of input.
    pub(crate) fn matching_close(&self, sig: &[usize], open: usize) -> usize {
        let open_text = self.sig_text(sig, open);
        let close_text = match open_text.as_ref() {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => return open,
        };
        let mut depth = 0usize;
        let mut s = open;
        while s < sig.len() {
            let t = self.sig_text(sig, s);
            if t == open_text {
                depth += 1;
            } else if t == close_text {
                depth -= 1;
                if depth == 0 {
                    return s;
                }
            }
            s += 1;
        }
        sig.len().saturating_sub(1)
    }

    /// Does the attribute body `sig[from..to]` mark a test-only item? True
    /// on any `test` identifier not directly inside `not(`.
    fn attr_marks_test(&self, sig: &[usize], from: usize, to: usize) -> bool {
        for s in from..to.min(sig.len()) {
            if self.sig_text(sig, s) == "test" {
                let negated =
                    s >= 2 && self.sig_text(sig, s - 1) == "(" && self.sig_text(sig, s - 2) == "not";
                if !negated {
                    return true;
                }
            }
        }
        false
    }

    /// Skip one item starting at `sig[s]`: to a `;` at bracket depth 0, or
    /// through the first `{…}` group entered at depth 0.
    fn skip_item(&self, sig: &[usize], mut s: usize) -> usize {
        while s < sig.len() {
            match self.sig_text(sig, s).as_ref() {
                ";" => return s + 1,
                "{" => return self.matching_close(sig, s) + 1,
                "(" | "[" => s = self.matching_close(sig, s) + 1,
                _ => s += 1,
            }
        }
        s
    }
}

/// Discover workspace crates: the root package plus every `crates/*`
/// directory with a `Cargo.toml`, loading all `.rs` files under each
/// `src/`. Test-only *directories* (`tests/`, `benches/`, `examples/`)
/// are not loaded: the lint audits shipped code.
pub fn discover_workspace(root: &Path) -> std::io::Result<Vec<CrateSources>> {
    let mut crates = Vec::new();
    if root.join("Cargo.toml").is_file() && root.join("src").is_dir() {
        if let Some(c) = load_crate(root, root)? {
            crates.push(c);
        }
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> =
            std::fs::read_dir(&crates_dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        entries.sort();
        for dir in entries {
            if dir.join("Cargo.toml").is_file() {
                if let Some(c) = load_crate(root, &dir)? {
                    crates.push(c);
                }
            }
        }
    }
    Ok(crates)
}

fn load_crate(root: &Path, dir: &Path) -> std::io::Result<Option<CrateSources>> {
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml"))?;
    let Some(name) = package_name(&manifest) else { return Ok(None) };
    let mut files = Vec::new();
    let src_dir = dir.join("src");
    if src_dir.is_dir() {
        let mut paths = Vec::new();
        collect_rs_files(&src_dir, &mut paths)?;
        paths.sort();
        for p in paths {
            let bytes = std::fs::read(&p)?;
            let rel = p.strip_prefix(root).unwrap_or(&p).to_path_buf();
            files.push(SourceFile::new(rel, bytes));
        }
    }
    let rel_dir = dir.strip_prefix(root).unwrap_or(dir).to_path_buf();
    Ok(Some(CrateSources { name, dir: rel_dir, files }))
}

/// `name = "…"` out of a manifest's `[package]` section.
pub fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if let Some(section) = line.strip_prefix('[') {
            in_package = section.trim_end_matches(']').trim() == "package";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    return Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new(PathBuf::from("test.rs"), src.as_bytes().to_vec())
    }

    fn shipped_texts(f: &SourceFile) -> Vec<String> {
        f.shipped.iter().map(|&i| f.text(i).into_owned()).collect()
    }

    #[test]
    fn lines_are_one_based() {
        let f = file("a\nbb\nccc\n");
        assert_eq!(f.line_of(0), 1);
        assert_eq!(f.line_of(2), 2);
        assert_eq!(f.line_of(5), 3);
    }

    #[test]
    fn pragmas_parse_category_and_position() {
        let f = file("// lint: allow(panic, \"reason\")\nlet x = 1;\n/// lint: allow(lock)\n");
        assert_eq!(f.pragmas, vec![(1, "panic".to_string()), (3, "lock".to_string())]);
        assert!(f.suppressed(1, "panic"));
        assert!(f.suppressed(2, "panic"), "line below a pragma is covered");
        assert!(!f.suppressed(3, "panic"));
        assert!(f.suppressed(3, "lock"));
    }

    #[test]
    fn cfg_test_items_are_stripped() {
        let f = file(
            "fn shipped() { a.unwrap(); }\n\
             #[cfg(test)]\nmod tests { fn t() { b.unwrap(); } }\n\
             #[test]\nfn one() { c.unwrap(); }\n\
             fn also_shipped() {}\n",
        );
        let t = shipped_texts(&f);
        assert!(t.contains(&"shipped".to_string()));
        assert!(t.contains(&"also_shipped".to_string()));
        assert!(!t.contains(&"b".to_string()));
        assert!(!t.contains(&"c".to_string()));
    }

    #[test]
    fn cfg_not_test_is_kept() {
        let f = file("#[cfg(not(test))]\nfn shipped() { x.unwrap(); }\n");
        assert!(shipped_texts(&f).contains(&"shipped".to_string()));
    }

    #[test]
    fn stacked_attributes_on_test_items_are_stripped() {
        let f = file("#[test]\n#[should_panic(expected = \"boom\")]\nfn t() { d.unwrap(); }\nfn keep() {}\n");
        let t = shipped_texts(&f);
        assert!(!t.contains(&"d".to_string()));
        assert!(t.contains(&"keep".to_string()));
    }

    #[test]
    fn cfg_test_use_statement_is_stripped_to_semicolon() {
        let f = file("#[cfg(test)]\nuse std::collections::HashMap;\nfn keep() {}\n");
        let t = shipped_texts(&f);
        assert!(!t.contains(&"HashMap".to_string()));
        assert!(t.contains(&"keep".to_string()));
    }

    #[test]
    fn package_name_parses() {
        assert_eq!(
            package_name("[package]\nname = \"rased-lint\"\nversion = \"0.1.0\"\n"),
            Some("rased-lint".to_string())
        );
        assert_eq!(package_name("[workspace]\nmembers = []\n"), None);
    }
}
