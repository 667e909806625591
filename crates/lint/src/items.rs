//! The workspace symbol table: module-aware `fn` / `impl` / `struct`
//! item extraction over the shipped token stream.
//!
//! This is the foundation of the interprocedural passes (PR 8): each
//! [`FnItem`] records where a function's body lives in the token stream,
//! which `impl` (or `trait`) block and inline-module chain encloses it,
//! and the base type of every named parameter — the facts
//! [`crate::callgraph`] needs to resolve calls by name without type
//! inference.
//!
//! Like every pass, extraction is *total*: any token stream (including
//! byte soup that lexed to `Unknown`/`Error` runs) produces a — possibly
//! empty — item list, never a panic. Items are emitted in token order, so
//! extraction is deterministic for a given file.
//!
//! Known approximations (documented in DESIGN.md §12):
//!
//! * The *base type* of a parameter or field is the last segment of the
//!   leading type path with references, `mut`, `dyn`, and `impl` stripped
//!   (`&'a mut rased_core::Rased` → `Rased`); one level of smart-pointer
//!   wrapping (`Arc<T>`/`Rc<T>`/`Box<T>`) is looked through.
//! * Trait blocks are treated like `impl` blocks: default methods get the
//!   trait name as their `impl_type`.
//! * Nested `fn` items are extracted as their own (free) items; closures
//!   belong to the enclosing function.

use crate::source::SourceFile;

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's own name.
    pub name: String,
    /// Enclosing `impl`/`trait` type (base ident), when a method.
    pub impl_type: Option<String>,
    /// Inline `mod` chain enclosing the item (innermost last).
    pub module_path: Vec<String>,
    /// `(name, base type)` for each named non-`self` parameter.
    pub params: Vec<(String, String)>,
    /// Shipped-index of the `fn` keyword.
    pub sig_s: usize,
    /// Shipped-index range `[open, close]` of the body braces; `None` for
    /// bodyless declarations (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
}

impl FnItem {
    /// `Type::name` for methods, `name` for free functions.
    pub fn display_name(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Everything the table extracts from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub fns: Vec<FnItem>,
    /// `(field name, base type)` pairs from named-struct definitions.
    pub fields: Vec<(String, String)>,
    /// Inline `mod` names declared in the file.
    pub modules: Vec<String>,
    /// Type names defined here (`struct`/`enum` names and `impl` targets).
    pub types: Vec<String>,
}

/// Smart pointers looked through when computing a base type.
const TRANSPARENT_WRAPPERS: &[&str] = &["Arc", "Rc", "Box"];

/// Extract the item table from a prepared file.
pub fn extract(file: &SourceFile) -> FileItems {
    let mut out = FileItems::default();
    let end = file.shipped.len();
    walk(file, 0, end, &mut Vec::new(), None, &mut out);
    out
}

/// Recursive region walker: `mod` pushes a module scope, `impl`/`trait`
/// push a receiver type, `fn` records an item (then recurses into the
/// body for nested items), `struct` contributes fields.
fn walk(
    file: &SourceFile,
    start: usize,
    end: usize,
    module_path: &mut Vec<String>,
    impl_type: Option<&str>,
    out: &mut FileItems,
) {
    let text = |s: usize| file.stext(s);
    let mut s = start;
    while s < end {
        match text(s).as_ref() {
            "mod" if s + 2 < end && text(s + 2) == "{" => {
                let name = text(s + 1).into_owned();
                let close = file.matching_close(&file.shipped, s + 2).min(end);
                out.modules.push(name.clone());
                module_path.push(name);
                walk(file, s + 3, close, module_path, impl_type, out);
                module_path.pop();
                s = close + 1;
            }
            "impl" => match impl_header(file, s, end) {
                Some((ty, open)) => {
                    let close = file.matching_close(&file.shipped, open).min(end);
                    out.types.push(ty.clone());
                    walk(file, open + 1, close, module_path, Some(&ty), out);
                    s = close + 1;
                }
                None => s += 1,
            },
            "trait" if s + 1 < end => {
                let ty = text(s + 1).into_owned();
                match body_open(file, s + 2, end) {
                    Some(open) => {
                        let close = file.matching_close(&file.shipped, open).min(end);
                        walk(file, open + 1, close, module_path, Some(&ty), out);
                        s = close + 1;
                    }
                    None => s += 1,
                }
            }
            "struct" | "enum" if s + 1 < end => {
                let is_struct = text(s) == "struct";
                out.types.push(text(s + 1).into_owned());
                match body_open(file, s + 2, end) {
                    Some(open) => {
                        let close = file.matching_close(&file.shipped, open).min(end);
                        if is_struct {
                            struct_fields(file, open + 1, close, out);
                        }
                        s = close + 1;
                    }
                    // Tuple struct / unit struct: runs to the `;`.
                    None => s += 1,
                }
            }
            "fn" => match fn_item(file, s, end, module_path, impl_type) {
                Some(item) => {
                    let after = match item.body {
                        Some((open, close)) => {
                            // Nested fns inside the body become their own
                            // (free) items.
                            walk(file, open + 1, close, module_path, None, out);
                            close + 1
                        }
                        None => item.sig_s + 2,
                    };
                    out.fns.push(item);
                    s = after;
                }
                None => s += 1,
            },
            _ => s += 1,
        }
    }
}

/// Parse an `impl` header at `s`: the receiver base type and the body
/// `{` index. `impl<T> Foo<T>` → `Foo`; `impl Trait for Bar` → `Bar`.
fn impl_header(file: &SourceFile, s: usize, end: usize) -> Option<(String, usize)> {
    let text = |s: usize| file.stext(s);
    let mut angle = 0i32;
    let mut j = s + 1;
    // Segments collected at angle depth 0, reset at `for` so the receiver
    // type (after the last `for`) wins.
    let mut segments: Vec<String> = Vec::new();
    while j < end {
        let t = text(j);
        match t.as_ref() {
            "<" => angle += 1,
            ">" if j >= 1 && text(j - 1) == "-" => {} // `->` in a where clause
            ">" => angle = (angle - 1).max(0),
            "{" if angle == 0 => {
                let ty = segments.last()?.clone();
                return Some((ty, j));
            }
            "for" if angle == 0 => segments.clear(),
            "where" if angle == 0 => {
                // The receiver is settled; skip ahead to the body.
                let open = body_open(file, j + 1, end)?;
                let ty = segments.last()?.clone();
                return Some((ty, open));
            }
            _ if angle == 0 && file.skind(j) == Some(crate::lexer::TokenKind::Ident) => {
                segments.push(t.into_owned());
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// The next `{` at paren/bracket depth 0, or `None` if a `;` ends the
/// item first.
fn body_open(file: &SourceFile, from: usize, end: usize) -> Option<usize> {
    let text = |s: usize| file.stext(s);
    let mut depth = 0usize;
    let mut j = from;
    while j < end {
        match text(j).as_ref() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "{" if depth == 0 => return Some(j),
            ";" if depth == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parse one `fn` item starting at the `fn` keyword.
fn fn_item(
    file: &SourceFile,
    s: usize,
    end: usize,
    module_path: &[String],
    impl_type: Option<&str>,
) -> Option<FnItem> {
    let text = |s: usize| file.stext(s);
    let name_s = s + 1;
    if name_s >= end || !is_ident(file, name_s) {
        return None; // `fn(` pointer type or truncated input
    }
    let name = text(name_s).into_owned();
    // Skip generics between the name and the parameter list.
    let mut j = name_s + 1;
    if j < end && text(j) == "<" {
        let mut angle = 1i32;
        j += 1;
        while j < end && angle > 0 {
            match text(j).as_ref() {
                "<" => angle += 1,
                ">" if text(j - 1) == "-" => {}
                ">" => angle -= 1,
                _ => {}
            }
            j += 1;
        }
    }
    if j >= end || text(j) != "(" {
        return None;
    }
    let params_close = file.matching_close(&file.shipped, j).min(end.saturating_sub(1));
    let params = parse_params(file, j + 1, params_close);
    let body = body_open(file, params_close + 1, end)
        .map(|open| (open, file.matching_close(&file.shipped, open).min(end)));
    Some(FnItem {
        name,
        impl_type: impl_type.map(|t| t.to_string()),
        module_path: module_path.to_vec(),
        params,
        sig_s: s,
        body,
    })
}

/// `(name, base type)` pairs from a parameter list region; the `self`
/// receiver is skipped (its type is the enclosing impl).
fn parse_params(file: &SourceFile, start: usize, end: usize) -> Vec<(String, String)> {
    let text = |s: usize| file.stext(s);
    let mut params = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut piece: Vec<usize> = Vec::new();
    let flush = |piece: &mut Vec<usize>, params: &mut Vec<(String, String)>| {
        if let Some(p) = parse_one_param(file, piece) {
            params.push(p);
        }
        piece.clear();
    };
    let mut j = start;
    while j < end {
        match text(j).as_ref() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "<" => angle += 1,
            ">" if j >= 1 && text(j - 1) == "-" => {}
            ">" => angle = (angle - 1).max(0),
            "," if depth == 0 && angle == 0 => {
                flush(&mut piece, &mut params);
                j += 1;
                continue;
            }
            _ => {}
        }
        piece.push(j);
        j += 1;
    }
    flush(&mut piece, &mut params);
    params
}

/// One `name: Type` parameter; `None` for receivers and patterns.
fn parse_one_param(file: &SourceFile, piece: &[usize]) -> Option<(String, String)> {
    let text = |s: usize| file.stext(s);
    // Find the name: first ident before the `:`, skipping `mut`.
    let colon = piece.iter().position(|&s| text(s) == ":")?;
    let name = piece
        .iter()
        .take(colon)
        .map(|&s| text(s).into_owned())
        .find(|t| t != "mut" && t.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_'))?;
    if name == "self" {
        return None;
    }
    let ty = base_type(file, piece.get(colon + 1..).unwrap_or(&[]))?;
    Some((name, ty))
}

/// The base type ident of a type token run: strip `&`, lifetimes, `mut`,
/// `dyn`, `impl`; take the last segment of the leading path; look through
/// one `Arc`/`Rc`/`Box` layer.
pub(crate) fn base_type(file: &SourceFile, piece: &[usize]) -> Option<String> {
    let text = |s: usize| file.stext(s);
    // Shipped index at offset `i` of the run; usize::MAX (→ empty text)
    // past the end.
    let at = |i: usize| piece.get(i).copied().unwrap_or(usize::MAX);
    let mut i = 0usize;
    let mut last: Option<String> = None;
    while i < piece.len() {
        let s = at(i);
        let t = text(s);
        match t.as_ref() {
            "&" | "mut" | "dyn" | "impl" => {
                i += 1;
                continue;
            }
            ":" => {
                i += 1;
                continue; // path separator (lexed as two `:`)
            }
            "<" => {
                // Only descend into the generics of a transparent wrapper.
                if last.as_deref().is_some_and(|l| TRANSPARENT_WRAPPERS.contains(&l)) {
                    last = None;
                    i += 1;
                    continue;
                }
                break;
            }
            _ => {}
        }
        if file.skind(s) == Some(crate::lexer::TokenKind::Lifetime) {
            i += 1;
            continue;
        }
        if is_ident(file, s) {
            last = Some(t.into_owned());
            // A path keeps going only through `::`.
            if i + 2 < piece.len() && text(at(i + 1)) == ":" && text(at(i + 2)) == ":" {
                i += 3;
                continue;
            }
            // Wrapper followed by generics: keep scanning.
            if last.as_deref().is_some_and(|l| TRANSPARENT_WRAPPERS.contains(&l))
                && i + 1 < piece.len()
                && text(at(i + 1)) == "<"
            {
                i += 1;
                continue;
            }
            break;
        }
        break;
    }
    last
}

/// Is the token at shipped position `s` an identifier?
fn is_ident(file: &SourceFile, s: usize) -> bool {
    file.skind(s) == Some(crate::lexer::TokenKind::Ident)
        && file.stext(s).chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
}

/// Collect `name: Type` fields from a named-struct body region,
/// skipping attributes and visibility modifiers.
fn struct_fields(file: &SourceFile, start: usize, end: usize, out: &mut FileItems) {
    let text = |s: usize| file.stext(s);
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut expect_field = true;
    let mut j = start;
    while j < end {
        let t = text(j);
        match t.as_ref() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "<" => angle += 1,
            ">" if j >= 1 && text(j - 1) == "-" => {}
            ">" => angle = (angle - 1).max(0),
            "," if depth == 0 && angle == 0 => expect_field = true,
            "pub" => {}
            // Field attribute: skip its `[...]` group.
            "#" if j + 1 < end && text(j + 1) == "[" => {
                j = file.matching_close(&file.shipped, j + 1).min(end);
            }
            _ if expect_field && depth == 0 && angle == 0 && is_ident(file, j) => {
                if j + 1 < end && text(j + 1) == ":" {
                    let name = t.into_owned();
                    // Type runs to the next top-level comma.
                    let mut k = j + 2;
                    let mut piece = Vec::new();
                    let mut d = 0i32;
                    let mut a = 0i32;
                    while k < end {
                        match text(k).as_ref() {
                            "(" | "[" | "{" => d += 1,
                            ")" | "]" | "}" => d -= 1,
                            "<" => a += 1,
                            ">" if text(k - 1) == "-" => {}
                            ">" => a = (a - 1).max(0),
                            "," if d == 0 && a == 0 => break,
                            _ => {}
                        }
                        piece.push(k);
                        k += 1;
                    }
                    if let Some(ty) = base_type(file, &piece) {
                        out.fields.push((name, ty));
                    }
                    expect_field = false;
                    j = k;
                    continue;
                }
                expect_field = false;
            }
            _ => {}
        }
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn items(src: &str) -> FileItems {
        extract(&SourceFile::new(PathBuf::from("t.rs"), src.as_bytes().to_vec()))
    }

    #[test]
    fn free_and_method_fns_are_extracted() {
        let it = items(
            "fn free(a: u32, b: &MyType) {}\n\
             impl Server { fn route(&self, req: &Request) -> u16 { 0 } }\n\
             impl Display for Token { fn fmt(&self) {} }\n",
        );
        let names: Vec<String> = it.fns.iter().map(|f| f.display_name()).collect();
        assert_eq!(names, vec!["free", "Server::route", "Token::fmt"]);
        assert_eq!(it.fns[0].params, vec![("a".into(), "u32".into()), ("b".into(), "MyType".into())]);
        assert_eq!(it.fns[1].params, vec![("req".into(), "Request".into())]);
    }

    #[test]
    fn modules_nest_and_record() {
        let it = items("mod outer { mod inner { fn deep() {} } fn shallow() {} }");
        let deep = it.fns.iter().find(|f| f.name == "deep").expect("deep");
        assert_eq!(deep.module_path, vec!["outer", "inner"]);
        let shallow = it.fns.iter().find(|f| f.name == "shallow").expect("shallow");
        assert_eq!(shallow.module_path, vec!["outer"]);
        assert_eq!(it.modules, vec!["outer", "inner"], "discovery order");
    }

    #[test]
    fn struct_fields_resolve_base_types() {
        let it = items(
            "struct Conn { stream: TcpStream, pub inbuf: Vec<u8>, system: Arc<Rased>,\n\
             #[allow(dead_code)] peer: Option<String>, cache: rased_storage::LruCache<K, V> }",
        );
        let get = |n: &str| it.fields.iter().find(|(f, _)| f == n).map(|(_, t)| t.clone());
        assert_eq!(get("stream"), Some("TcpStream".into()));
        assert_eq!(get("inbuf"), Some("Vec".into()));
        assert_eq!(get("system"), Some("Rased".into()), "Arc is looked through");
        assert_eq!(get("peer"), Some("Option".into()));
        assert_eq!(get("cache"), Some("LruCache".into()), "path takes last segment");
    }

    #[test]
    fn generic_fns_and_where_clauses_parse() {
        let it = items(
            "fn generic<T: Iterator<Item = u8>>(x: T, n: usize) -> Vec<u8> where T: Clone { vec![] }",
        );
        assert_eq!(it.fns.len(), 1);
        assert_eq!(it.fns[0].params, vec![("x".into(), "T".into()), ("n".into(), "usize".into())]);
        assert!(it.fns[0].body.is_some());
    }

    #[test]
    fn trait_default_methods_get_the_trait_as_impl_type() {
        let it = items("trait Render { fn draw(&self); fn refresh(&self) { self.draw(); } }");
        let draw = it.fns.iter().find(|f| f.name == "draw").expect("draw");
        assert!(draw.body.is_none());
        let refresh = it.fns.iter().find(|f| f.name == "refresh").expect("refresh");
        assert_eq!(refresh.impl_type.as_deref(), Some("Render"));
        assert!(refresh.body.is_some());
    }

    #[test]
    fn nested_fns_are_their_own_items() {
        let it = items("fn outer() { fn inner(q: Query) {} inner(); }");
        let names: Vec<&str> = it.fns.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"outer") && names.contains(&"inner"), "{names:?}");
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let it = items("struct S { cb: fn(u32) -> u32 }\nfn real() {}");
        assert_eq!(it.fns.len(), 1);
        assert_eq!(it.fns[0].name, "real");
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        let soup: Vec<u8> = (0u8..=255).cycle().take(2048).collect();
        let f = SourceFile::new(PathBuf::from("soup.rs"), soup);
        let _ = extract(&f);
        let broken = "impl fn { struct ( mod trait < } ] fn f(";
        let _ = items(broken);
    }
}
