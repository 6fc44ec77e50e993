//! Item-level parsing over the token stream: a per-file function map with
//! impl-context qualified names and body spans, the call sites inside each
//! body, and the hash-container bindings the `unordered_iter` rule tracks.
//!
//! This is deliberately *not* a Rust grammar. It recognizes exactly the
//! shapes the rules need — `impl` headers, `fn` items, call expressions,
//! `name: HashMap<..>` / `let name = HashSet::new()` bindings — and it is
//! resilient to everything else: an unrecognized construct contributes no
//! items rather than derailing the scan. Known limits, by design:
//!
//! * method-call receivers are not type-resolved, so `x.foo()` never
//!   propagates hotness (only free-function and `Type::name(..)` calls do);
//! * const-generic brace expressions inside signatures (`Foo<{N + 1}>`)
//!   would confuse body-span detection; the workspace has none;
//! * a hash container reached through more than one interposed call
//!   (`a.b().c().iter()`) is not attributed; one `.lock()`-style hop is.

use super::tokens::{Tok, Token};

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type, when the item sits inside one — `Foo` for
    /// `impl<T> Foo<T> { fn name(..) }` and for `impl Trait for Foo`.
    pub qual: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token-index range of the body *contents* (between the braces);
    /// `None` for bodiless declarations (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
    /// 1-based line range of the body, braces included.
    pub body_lines: (usize, usize),
}

impl FnItem {
    /// `Qual::name` when qualified, bare `name` otherwise — the key the
    /// hot-anchor table and the call-graph resolver match against.
    pub fn key(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (last path segment).
    pub callee: String,
    /// Path segment immediately before the callee (`Vec` in `Vec::new(..)`,
    /// turbofish skipped), when present.
    pub qual: Option<String>,
    /// `x.callee(..)` — receiver type unknown, never used for propagation.
    pub method: bool,
}

/// A binding or field whose declared type / initializer names a hash
/// container (`HashMap`/`HashSet`), plus where it was declared.
#[derive(Debug, Clone)]
pub struct HashBinding {
    pub name: String,
    pub line: usize,
}

/// One bare-`pub` item (`pub fn`, `pub struct`, `pub const`, ...; never
/// `pub(crate)`, `pub use`, `pub mod` or a `pub` field).
#[derive(Debug, Clone)]
pub struct PubItem {
    pub name: String,
    /// 1-based line of the `pub` keyword.
    pub line: usize,
    /// Token-index range of the whole definition, `pub` to its closing
    /// `}` or `;` inclusive: the name inside it is not a caller.
    pub span: (usize, usize),
}

/// Everything the rules need from one parsed file.
#[derive(Debug, Default)]
pub struct FileIndex {
    pub fns: Vec<FnItem>,
    /// Call sites per function, parallel to `fns`. Nested `fn` items get
    /// their own entry *and* contribute to their enclosing function —
    /// conservative for hot propagation.
    pub calls: Vec<Vec<CallSite>>,
    pub hash_bindings: Vec<HashBinding>,
    pub pub_items: Vec<PubItem>,
    /// Token-index ranges of `use` / `pub use` items, `use` to `;`
    /// inclusive: an import or re-export names an item without calling it.
    pub use_spans: Vec<(usize, usize)>,
    /// Token index of each `impl` header's self type (the `Foo` of
    /// `impl Tr for Foo`): an impl block extends a type, it does not use it.
    pub impl_self_types: Vec<usize>,
}

const KEYWORDS: [&str; 18] = [
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "move", "let", "fn",
    "unsafe", "break", "continue", "where", "impl", "ref",
];

pub(crate) fn ident(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(toks: &[Token], i: usize, c: u8) -> bool {
    matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

fn is_open(toks: &[Token], i: usize, c: u8) -> bool {
    matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Open(p)) if *p == c)
}

/// Find the matching close delimiter for the open delimiter at `open`,
/// counting all three delimiter kinds together (the projection is
/// balanced in practice; imbalance just ends the span at EOF).
fn matching_close(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// Parse an `impl` header starting at the `impl` token: returns the
/// implemented type's name (the `Foo` of `impl Foo`, `impl Tr for Foo`,
/// `impl<T> Foo<T>`), the index of that name's token and the index of the
/// body's `{`, or `None` when the header is not followed by a body before
/// EOF.
fn parse_impl_header(toks: &[Token], at: usize) -> Option<(String, usize, usize)> {
    let mut i = at + 1;
    // Skip `<...>` generic parameters (nested angles balanced; `->` cannot
    // appear in an impl generics list).
    if is_punct(toks, i, b'<') {
        let mut depth = 0i64;
        while i < toks.len() {
            if is_punct(toks, i, b'<') {
                depth += 1;
            } else if is_punct(toks, i, b'>') {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    // Collect path segments until `for`, `where` or the body `{`; the
    // last plain segment seen before the body (or before `where`) is the
    // type name, and a `for` resets the collection (trait impl).
    let mut name: Option<(String, usize)> = None;
    let mut angle = 0i64;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Ident(s) if angle == 0 => {
                if s == "for" {
                    name = None;
                } else if s == "where" {
                    break;
                } else {
                    name = Some((s.clone(), i));
                }
            }
            Tok::Punct(b'<') => angle += 1,
            Tok::Punct(b'>') => angle -= 1,
            Tok::Open(b'{') if angle <= 0 => {
                return name.map(|(n, at)| (n, at, i));
            }
            Tok::Punct(b';') => return None, // e.g. nothing parseable
            _ => {}
        }
        i += 1;
    }
    // `where` clause: scan on to the body brace at delimiter depth 0.
    let mut depth = 0i64;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Open(b'{') if depth == 0 => return name.map(|(n, at)| (n, at, i)),
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Build the [`FileIndex`] for one tokenized file.
pub fn index_file(toks: &[Token]) -> FileIndex {
    let mut out = FileIndex::default();
    // (close_token_index, type_name) for every impl body we are inside of.
    let mut impl_stack: Vec<(usize, String)> = Vec::new();

    let mut i = 0usize;
    while i < toks.len() {
        while let Some(&(end, _)) = impl_stack.last() {
            if i > end {
                impl_stack.pop();
            } else {
                break;
            }
        }
        match ident(toks, i) {
            Some("impl") => {
                if let Some((name, name_at, body_open)) = parse_impl_header(toks, i) {
                    out.impl_self_types.push(name_at);
                    let close = matching_close(toks, body_open);
                    impl_stack.push((close, name));
                    i = body_open + 1;
                    continue;
                }
            }
            Some("fn") => {
                if let Some(item) = parse_fn(toks, i, impl_stack.last().map(|(_, n)| n.clone())) {
                    out.fns.push(item);
                }
            }
            Some("HashMap") | Some("HashSet") => {
                if let Some(b) = hash_binding_for(toks, i) {
                    if !out.hash_bindings.iter().any(|h| h.name == b.name) {
                        out.hash_bindings.push(b);
                    }
                }
            }
            Some("pub") => {
                if let Some(item) = parse_pub_item(toks, i) {
                    out.pub_items.push(item);
                }
            }
            Some("use") => {
                let end = (i..toks.len())
                    .find(|&j| is_punct(toks, j, b';'))
                    .unwrap_or(toks.len().saturating_sub(1));
                out.use_spans.push((i, end));
            }
            _ => {}
        }
        i += 1;
    }

    // Call sites per fn body. Bodies of nested items overlap their
    // enclosure; each fn simply scans its own span.
    for f in &out.fns {
        let mut calls = Vec::new();
        if let Some((lo, hi)) = f.body {
            let mut j = lo;
            while j < hi {
                if let Some(site) = call_at(toks, j) {
                    calls.push(site);
                }
                j += 1;
            }
        }
        out.calls.push(calls);
    }
    out
}

/// Parse the `fn` item whose `fn` keyword sits at `at`.
fn parse_fn(toks: &[Token], at: usize, qual: Option<String>) -> Option<FnItem> {
    let name = ident(toks, at + 1)?.to_string();
    if KEYWORDS.contains(&name.as_str()) {
        return None;
    }
    let line = toks[at].line;
    // Scan for the body `{` at delimiter depth 0 (generics are angle
    // brackets, parameters/returns only nest (), [] and <>); a `;` first
    // means a bodiless declaration.
    let mut depth = 0i64;
    let mut j = at + 2;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct(b';') if depth == 0 => {
                return Some(FnItem {
                    name,
                    qual,
                    line,
                    body: None,
                    body_lines: (line, toks[j].line),
                });
            }
            Tok::Open(b'{') if depth == 0 => {
                let close = matching_close(toks, j);
                return Some(FnItem {
                    name,
                    qual,
                    line,
                    body: Some((j + 1, close)),
                    body_lines: (line, toks[close].line),
                });
            }
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parse the bare-`pub` item whose `pub` keyword sits at `at`: skips the
/// `const`/`unsafe`/`async`/`extern "abi"` qualifiers of a `fn`, and
/// returns `None` for `pub(..)`, `pub use`, `pub mod`, `pub` fields and
/// macro fragments (`pub fn $name`).
fn parse_pub_item(toks: &[Token], at: usize) -> Option<PubItem> {
    let mut i = at + 1;
    let kind = loop {
        match ident(toks, i)? {
            "unsafe" | "async" => i += 1,
            "extern" => {
                i += 1;
                if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Str)) {
                    i += 1;
                }
            }
            "const" if matches!(ident(toks, i + 1), Some("fn" | "unsafe" | "async")) => i += 1,
            "static" if ident(toks, i + 1) == Some("mut") => {
                i += 2;
                break "static";
            }
            k @ ("fn" | "struct" | "enum" | "union" | "trait" | "type" | "const" | "static") => {
                i += 1;
                break k;
            }
            _ => return None,
        }
    };
    let name = ident(toks, i)?.to_string();
    // A fn, type or trait ends at its body's `}` (or a `;` for tuple and
    // unit structs); a const, static or alias ends at its `;`.
    let braced = matches!(kind, "fn" | "struct" | "enum" | "union" | "trait");
    let mut depth = 0i64;
    let mut j = i + 1;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct(b';') if depth == 0 => break,
            Tok::Open(b'{') if depth == 0 && braced => {
                j = matching_close(toks, j);
                break;
            }
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    Some(PubItem {
        name,
        line: toks[at].line,
        span: (at, j.min(toks.len().saturating_sub(1))),
    })
}

/// If the token at `at` is the name of a call expression (`name(..)`,
/// `Type::name(..)`, `x.name(..)`), describe it. Macro bangs (`name!(..)`)
/// are *not* calls — the alloc rule scans them textually.
fn call_at(toks: &[Token], at: usize) -> Option<CallSite> {
    let name = ident(toks, at)?;
    if KEYWORDS.contains(&name) {
        return None;
    }
    if !is_open(toks, at + 1, b'(') {
        return None;
    }
    // `fn name(` is a definition, not a call.
    if at >= 1 && ident(toks, at - 1) == Some("fn") {
        return None;
    }
    let method = at >= 1 && is_punct(toks, at - 1, b'.');
    let qual = if method { None } else { qual_before(toks, at) };
    Some(CallSite {
        callee: name.to_string(),
        qual,
        method,
    })
}

/// The path segment before `::name` at `at`, skipping one turbofish:
/// `Vec::new` → `Vec`; `Workspace::<T>::new` → `Workspace`.
fn qual_before(toks: &[Token], at: usize) -> Option<String> {
    if at < 3 || !is_punct(toks, at - 1, b':') || !is_punct(toks, at - 2, b':') {
        return None;
    }
    let mut j = at - 3;
    if is_punct(toks, j, b'>') {
        // Walk back over the balanced `<...>` of a turbofish.
        let mut depth = 0i64;
        loop {
            if is_punct(toks, j, b'>') {
                depth += 1;
            } else if is_punct(toks, j, b'<') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        // Skip an optional `::` before the turbofish.
        if j >= 2 && is_punct(toks, j - 1, b':') && is_punct(toks, j - 2, b':') {
            j -= 2;
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    ident(toks, j).map(|s| s.to_string())
}

/// Walk back from a `HashMap`/`HashSet` token to the binding or field it
/// types: `name: ..HashMap<..>..`, `let name = HashMap::new()`,
/// `name = HashSet::with_capacity(..)`. Bounded lookback; gives up at
/// statement boundaries it cannot attribute.
fn hash_binding_for(toks: &[Token], at: usize) -> Option<HashBinding> {
    let line = toks[at].line;
    let lo = at.saturating_sub(32);
    let mut j = at;
    while j > lo {
        j -= 1;
        match &toks[j].tok {
            Tok::Ident(s) if s == "let" => {
                // `let [mut] name ... HashMap`
                let mut k = j + 1;
                if ident(toks, k) == Some("mut") {
                    k += 1;
                }
                return ident(toks, k).map(|n| HashBinding {
                    name: n.to_string(),
                    line,
                });
            }
            Tok::Ident(_) if is_punct(toks, j + 1, b':') && !is_punct(toks, j + 2, b':') => {
                // `name: ...HashMap...` — field or parameter declaration.
                return ident(toks, j).map(|n| HashBinding {
                    name: n.to_string(),
                    line,
                });
            }
            Tok::Ident(_) if is_punct(toks, j + 1, b'=') && !is_punct(toks, j + 2, b'=') => {
                // `name = HashMap::...` re-assignment.
                return ident(toks, j).map(|n| HashBinding {
                    name: n.to_string(),
                    line,
                });
            }
            Tok::Punct(b';') | Tok::Open(b'{') | Tok::Close(b'}') => return None,
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{lexer, tokens};

    fn index(src: &str) -> FileIndex {
        index_file(&tokens::tokenize(&lexer::mask(src)))
    }

    #[test]
    fn free_fn_and_impl_fn_get_keys() {
        let idx = index(
            "pub fn alpha(x: usize) -> usize { x }\n\
             impl<T: Clone> Widget<T> {\n    pub fn beta(&self) {}\n}\n\
             impl Display for Widget<u8> {\n    fn fmt(&self) {}\n}\n",
        );
        let keys: Vec<String> = idx.fns.iter().map(|f| f.key()).collect();
        assert_eq!(keys, vec!["alpha", "Widget::beta", "Widget::fmt"]);
    }

    #[test]
    fn body_line_spans_cover_multiline_bodies() {
        let idx = index("fn f() {\n    let a = 1;\n    g(a);\n}\nfn h() {}\n");
        assert_eq!(idx.fns[0].body_lines, (1, 4));
        assert_eq!(idx.fns[1].body_lines, (5, 5));
    }

    #[test]
    fn nested_fn_gets_its_own_span_inside_its_enclosure() {
        let idx = index("fn outer() {\n    fn inner() {\n        q();\n    }\n    inner();\n}\n");
        let spans: Vec<(&str, (usize, usize))> = idx
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.body_lines))
            .collect();
        assert_eq!(spans, vec![("outer", (1, 6)), ("inner", (2, 4))]);
    }

    #[test]
    fn call_sites_distinguish_free_path_and_method() {
        let idx = index(
            "fn f() {\n    helper(1);\n    Vec::with_capacity(4);\n    \
             Workspace::<T>::new(9);\n    x.method(2);\n    if cond(3) {}\n}\n",
        );
        let calls = &idx.calls[0];
        let find = |n: &str| calls.iter().find(|c| c.callee == n).unwrap();
        assert!(find("helper").qual.is_none() && !find("helper").method);
        assert_eq!(find("with_capacity").qual.as_deref(), Some("Vec"));
        assert_eq!(find("new").qual.as_deref(), Some("Workspace"));
        assert!(find("method").method);
        assert!(find("cond").qual.is_none());
        // `if` itself is not a call.
        assert!(!calls.iter().any(|c| c.callee == "if"));
    }

    #[test]
    fn bodiless_trait_methods_have_no_body() {
        let idx = index("trait T {\n    fn req(&self) -> usize;\n    fn prov(&self) {}\n}\n");
        assert!(idx.fns[0].body.is_none());
        assert!(idx.fns[1].body.is_some());
    }

    #[test]
    fn hash_bindings_from_let_field_and_assign() {
        let idx = index(
            "struct S {\n    inbox: Mutex<HashMap<(u64, usize), Slot>>,\n}\n\
             fn f() {\n    let mut seen = HashSet::new();\n    seen = HashSet::with_capacity(2);\n}\n",
        );
        let names: Vec<&str> = idx.hash_bindings.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, vec!["inbox", "seen"]);
    }

    #[test]
    fn pathological_generics_do_not_derail_fn_bodies() {
        let idx = index(
            "pub fn gen<T: Into<Vec<Box<dyn Fn(usize) -> Result<T, E>>>>, const N: usize>(\n\
             \tx: [T; N],\n) -> impl Iterator<Item = T>\nwhere\n    T: Clone,\n{\n    inner()\n}\n",
        );
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].name, "gen");
        assert!(idx.fns[0].body.is_some());
        assert_eq!(idx.calls[0][0].callee, "inner");
    }

    #[test]
    fn pub_items_and_use_spans() {
        let src = "pub use a::{b, c};\npub(crate) fn hidden() {}\npub const fn k() -> u8 { 1 }\n\
                   pub struct S { pub field: [u8; 4] }\npub struct T(u8);\n\
                   pub const N: [u8; 2] = [0; 2];\npub static mut G: u8 = 0;\n\
                   pub mod m {}\nimpl S {\n    pub unsafe fn m(&self) {}\n}\n";
        let idx = index(src);
        let items: Vec<(&str, usize)> = idx
            .pub_items
            .iter()
            .map(|p| (p.name.as_str(), p.line))
            .collect();
        assert_eq!(
            items,
            vec![("k", 3), ("S", 4), ("T", 5), ("N", 6), ("G", 7), ("m", 10)]
        );
        assert_eq!(idx.use_spans.len(), 1);
        let toks = tokens::tokenize(&lexer::mask(src));
        // Each span ends on the item's own closing token.
        for p in &idx.pub_items {
            let last = &toks[p.span.1].tok;
            assert!(matches!(last, Tok::Close(b'}') | Tok::Punct(b';')), "{p:?}");
        }
    }

    #[test]
    fn raw_strings_and_macros_do_not_create_phantom_items() {
        let idx = index(
            "fn real() {\n    let s = r#\"fn fake() { HashMap::new() }\"#;\n    \
             println!(\"fn also_fake() {{}}\");\n    let _ = s;\n}\n",
        );
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].name, "real");
        assert!(idx.hash_bindings.is_empty());
    }
}
