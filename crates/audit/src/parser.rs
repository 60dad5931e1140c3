//! An item-level parser over the token stream: just enough structure for
//! symbol-aware rules.
//!
//! The audit engine does not need types, lifetimes, or expression trees —
//! it needs to know **which function a token belongs to**, whether that
//! function is test code, and what `impl` block it sits in. This module
//! recovers exactly that skeleton from the [`crate::lexer`] stream:
//! `fn`/`struct`/`enum`/`trait`/`impl`/`mod`/`use` items with token spans,
//! `#[test]`/`#[cfg(test)]` attribution (inherited through nested
//! modules *and* through function bodies, where test files like to define
//! local fakes), and the enclosing-impl context of every method.
//!
//! Known approximations, by design (see `DESIGN.md` §16):
//!
//! - a `{` inside a const-generic argument (`Foo<{ N + 1 }>`) in a
//!   signature would be taken for the body opener;
//! - macro-generated items are invisible (macros are not expanded);
//! - `impl Trait` in return position never reaches the item scanner
//!   because the enclosing `fn` swallows its whole signature first.

use crate::lexer::{Tok, TokKind};

/// Token-range plus line-range location of an item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// 1-based first line.
    pub line_start: u32,
    /// 1-based last line.
    pub line_end: u32,
    /// Index of the first token (the item keyword or its name).
    pub tok_start: usize,
    /// Exclusive index one past the last token.
    pub tok_end: usize,
}

/// What kind of item a [`Item`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// A function or method (including trait default methods).
    Fn,
    /// A `struct` definition.
    Struct,
    /// An `enum` definition.
    Enum,
    /// A `trait` definition.
    Trait,
    /// An `impl` block.
    Impl,
    /// An inline `mod name { … }` module.
    Mod,
    /// A `use` declaration.
    Use,
}

/// One parsed item.
#[derive(Clone, Debug)]
pub struct Item {
    /// The item kind.
    pub kind: ItemKind,
    /// The item's name: fn/struct/enum/trait/mod name, the *type* name for
    /// an `impl` block, or the last path segment for a `use`.
    pub name: String,
    /// For `impl Trait for Type` blocks (and the methods inside them): the
    /// trait's last path segment. `None` for inherent impls.
    pub trait_name: Option<String>,
    /// For methods: the enclosing `impl` block's type name (or the trait
    /// name for trait default methods).
    pub self_type: Option<String>,
    /// Whether this item is test code: carries `#[test]`/`#[cfg(test)]`,
    /// or is nested (at any depth) inside an item that does.
    pub is_test: bool,
    /// Where the item sits in the token stream.
    pub span: Span,
    /// Token range *inside* the braces of the item's body (`None` for
    /// bodyless items: trait method signatures, unit structs, `use`).
    pub body: Option<(usize, usize)>,
    /// Index (into the items list) of the innermost enclosing `fn`, for
    /// items declared inside function bodies.
    pub parent_fn: Option<usize>,
}

/// One file, parsed: the token stream plus the item skeleton.
#[derive(Clone, Debug)]
pub struct ParsedFile {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// The token stream the spans index into.
    pub toks: Vec<Tok>,
    /// All items, in source order (nested items follow their parents).
    pub items: Vec<Item>,
}

impl ParsedFile {
    /// Indices of all `Fn` items.
    pub fn fns(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.items.len()).filter(|&i| self.items[i].kind == ItemKind::Fn)
    }

    /// Parameter names of `Fn` item `f`, excluding a `self` receiver.
    /// Pattern parameters (`(a, b): (u32, u32)`) contribute their first
    /// identifier. Comma splitting tracks paren/bracket/brace *and* angle
    /// depth so `BTreeMap<u32, f32>` stays one parameter.
    pub fn fn_params(&self, f: usize) -> Vec<String> {
        let item = &self.items[f];
        let mut i = item.span.tok_start;
        let end = item.span.tok_end.min(self.toks.len());
        // Skip `fn name`, then a generic list if present (it may contain
        // parens: `<F: Fn(u32) -> u32>`), landing on the parameter `(`.
        while i < end && !self.toks[i].is_ident("fn") {
            i += 1;
        }
        i += 2; // `fn` + name
        if i < end && self.toks[i].is_punct('<') {
            let mut depth = 0isize;
            while i < end {
                if self.toks[i].is_punct('<') {
                    depth += 1;
                } else if self.toks[i].is_punct('>') && !(i > 0 && self.toks[i - 1].is_punct('-')) {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
        }
        if i >= end || !self.toks[i].is_punct('(') {
            return Vec::new();
        }
        let close = {
            let mut depth = 0isize;
            let mut c = i;
            while c < end {
                if self.toks[c].is_punct('(') {
                    depth += 1;
                } else if self.toks[c].is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                c += 1;
            }
            c.min(end.saturating_sub(1))
        };
        let mut params = Vec::new();
        let mut seg_start = i + 1;
        let mut depth = 0isize;
        let mut angle = 0isize;
        let mut j = i + 1;
        while j <= close {
            let boundary = j == close || (depth == 0 && angle <= 0 && self.toks[j].is_punct(','));
            if boundary {
                if let Some(name) = self.param_name(seg_start, j) {
                    if name != "self" {
                        params.push(name);
                    }
                }
                seg_start = j + 1;
            } else {
                match &self.toks[j].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                    TokKind::Punct('<') => angle += 1,
                    TokKind::Punct('>') if !(j > 0 && self.toks[j - 1].is_punct('-')) => angle -= 1,
                    _ => {}
                }
            }
            j += 1;
        }
        params
    }

    /// The name of parameter segment `[lo, hi)`: its first identifier
    /// after stripping `&`, lifetimes and `mut`.
    fn param_name(&self, lo: usize, hi: usize) -> Option<String> {
        self.toks[lo..hi].iter().filter_map(Tok::ident).find(|&s| s != "mut").map(str::to_string)
    }

    /// The body token ranges of `Fn` items strictly nested inside item `f`
    /// (used to attribute call sites to the innermost function only).
    pub fn nested_fn_bodies(&self, f: usize) -> Vec<(usize, usize)> {
        let Some((lo, hi)) = self.items[f].body else { return Vec::new() };
        self.items
            .iter()
            .enumerate()
            .filter(|&(i, it)| {
                i != f
                    && it.kind == ItemKind::Fn
                    && it.span.tok_start >= lo
                    && it.span.tok_end <= hi
            })
            .filter_map(|(_, it)| it.body.map(|(b0, b1)| (it.span.tok_start, b1.max(b0))))
            .collect()
    }
}

/// Attributes pending before the next item.
#[derive(Clone, Copy, Debug, Default)]
struct PendingAttrs {
    /// `#[test]` (or `#[…::test]`, e.g. `tokio::test`).
    test: bool,
    /// `#[cfg(test)]` / `#[cfg(all(test, …))]`.
    cfg_test: bool,
}

/// Parses the item skeleton out of a token stream.
pub fn parse(path: &str, toks: &[Tok]) -> ParsedFile {
    let mut p = Parser { toks, items: Vec::new() };
    p.walk(0, toks.len(), false, None, None, None);
    ParsedFile { path: path.to_string(), toks: toks.to_vec(), items: p.items }
}

/// Convenience: lex then [`parse`].
pub fn parse_source(path: &str, src: &str) -> ParsedFile {
    let (toks, _) = crate::lexer::lex(src);
    let items = {
        let mut p = Parser { toks: &toks, items: Vec::new() };
        p.walk(0, toks.len(), false, None, None, None);
        p.items
    };
    ParsedFile { path: path.to_string(), toks, items }
}

/// The enclosing-impl context handed down while walking an impl body.
#[derive(Clone, Debug)]
struct ImplCtx {
    type_name: String,
    trait_name: Option<String>,
}

struct Parser<'a> {
    toks: &'a [Tok],
    items: Vec<Item>,
}

impl Parser<'_> {
    /// Walks tokens in `[start, end)` at one nesting level, collecting
    /// items. `in_test` is inherited test-ness; `impl_ctx` the enclosing
    /// impl block; `parent_fn` the innermost enclosing function item.
    fn walk(
        &mut self,
        start: usize,
        end: usize,
        in_test: bool,
        impl_ctx: Option<&ImplCtx>,
        parent_fn: Option<usize>,
        _parent_mod: Option<&str>,
    ) {
        let mut i = start;
        let mut attrs = PendingAttrs::default();
        while i < end {
            match &self.toks[i].kind {
                TokKind::Punct('#') => {
                    // `#[…]` outer attribute or `#![…]` inner attribute.
                    let inner = i + 1 < end && self.toks[i + 1].is_punct('!');
                    let open = i + if inner { 2 } else { 1 };
                    if open < end && self.toks[open].is_punct('[') {
                        let close = self.match_delim(open, end, '[', ']');
                        if !inner {
                            let idents: Vec<&str> =
                                self.toks[open + 1..close].iter().filter_map(Tok::ident).collect();
                            if idents.first() == Some(&"cfg") && idents.contains(&"test") {
                                attrs.cfg_test = true;
                            } else if idents.contains(&"test") {
                                attrs.test = true;
                            }
                        }
                        i = close + 1;
                    } else {
                        i += 1;
                    }
                }
                TokKind::Ident(kw) => match kw.as_str() {
                    "fn" => {
                        i = self.parse_fn(i, end, in_test, attrs, impl_ctx, parent_fn);
                        attrs = PendingAttrs::default();
                    }
                    "struct" | "enum" | "trait" | "union" => {
                        i = self.parse_type_item(i, end, in_test, attrs, parent_fn);
                        attrs = PendingAttrs::default();
                    }
                    "impl" => {
                        i = self.parse_impl(i, end, in_test, attrs, parent_fn);
                        attrs = PendingAttrs::default();
                    }
                    "mod" => {
                        i = self.parse_mod(i, end, in_test, attrs, impl_ctx, parent_fn);
                        attrs = PendingAttrs::default();
                    }
                    "use" => {
                        i = self.parse_use(i, end, in_test, parent_fn);
                        attrs = PendingAttrs::default();
                    }
                    // Statements and modifiers (`pub`, `async`, `unsafe`,
                    // `const`, `let`, …) carry no item boundary on their
                    // own; the next item keyword consumes pending attrs.
                    _ => i += 1,
                },
                _ => i += 1,
            }
        }
    }

    /// Index of the matching closing delimiter for the opener at `open`
    /// (returns `end - 1` when unbalanced).
    fn match_delim(&self, open: usize, end: usize, o: char, c: char) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < end {
            if self.toks[i].is_punct(o) {
                depth += 1;
            } else if self.toks[i].is_punct(c) {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        end.saturating_sub(1)
    }

    /// Finds the body `{` of an item starting at `i`: the first `{` at
    /// paren/bracket depth zero, unless a `;` arrives first (bodyless).
    fn find_body_or_semi(&self, i: usize, end: usize) -> (Option<usize>, usize) {
        let mut depth = 0isize;
        let mut j = i;
        while j < end {
            match &self.toks[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct('{') if depth == 0 => return (Some(j), j),
                TokKind::Punct(';') if depth == 0 => return (None, j),
                _ => {}
            }
            j += 1;
        }
        (None, end.saturating_sub(1))
    }

    fn parse_fn(
        &mut self,
        kw: usize,
        end: usize,
        in_test: bool,
        attrs: PendingAttrs,
        impl_ctx: Option<&ImplCtx>,
        parent_fn: Option<usize>,
    ) -> usize {
        let name = self.toks.get(kw + 1).and_then(Tok::ident).unwrap_or("").to_string();
        if name.is_empty() {
            return kw + 1; // `fn` in a type position (`Fn()` is a distinct ident)
        }
        let (body_open, stop) = self.find_body_or_semi(kw + 2, end);
        let is_test = in_test || attrs.test || attrs.cfg_test;
        let idx = self.items.len();
        match body_open {
            Some(open) => {
                let close = self.match_delim(open, end, '{', '}');
                self.items.push(Item {
                    kind: ItemKind::Fn,
                    name,
                    trait_name: impl_ctx.and_then(|c| c.trait_name.clone()),
                    self_type: impl_ctx.map(|c| c.type_name.clone()),
                    is_test,
                    span: self.span(kw, close + 1),
                    body: Some((open + 1, close)),
                    parent_fn,
                });
                // Test files love local fakes: walk the body for nested
                // `struct`/`impl`/`fn` items, attributed to this fn.
                self.walk(open + 1, close, is_test, None, Some(idx), None);
                close + 1
            }
            None => {
                self.items.push(Item {
                    kind: ItemKind::Fn,
                    name,
                    trait_name: impl_ctx.and_then(|c| c.trait_name.clone()),
                    self_type: impl_ctx.map(|c| c.type_name.clone()),
                    is_test,
                    span: self.span(kw, stop + 1),
                    body: None,
                    parent_fn,
                });
                stop + 1
            }
        }
    }

    fn parse_type_item(
        &mut self,
        kw: usize,
        end: usize,
        in_test: bool,
        attrs: PendingAttrs,
        parent_fn: Option<usize>,
    ) -> usize {
        let kind = match self.toks[kw].ident() {
            Some("struct") => ItemKind::Struct,
            Some("enum") => ItemKind::Enum,
            Some("trait") => ItemKind::Trait,
            _ => ItemKind::Struct, // `union`: close enough for the skeleton
        };
        let name = self.toks.get(kw + 1).and_then(Tok::ident).unwrap_or("").to_string();
        if name.is_empty() {
            return kw + 1;
        }
        let is_test = in_test || attrs.test || attrs.cfg_test;
        let (body_open, stop) = self.find_body_or_semi(kw + 2, end);
        match body_open {
            Some(open) => {
                let close = self.match_delim(open, end, '{', '}');
                let idx = self.items.len();
                self.items.push(Item {
                    kind,
                    name: name.clone(),
                    trait_name: None,
                    self_type: None,
                    is_test,
                    span: self.span(kw, close + 1),
                    body: Some((open + 1, close)),
                    parent_fn,
                });
                if kind == ItemKind::Trait {
                    // Default methods belong to the trait surface.
                    let ctx =
                        ImplCtx { type_name: name, trait_name: Some(self.items[idx].name.clone()) };
                    self.walk(open + 1, close, is_test, Some(&ctx), parent_fn, None);
                }
                close + 1
            }
            None => {
                // Tuple/unit struct: `struct X(…);` / `struct X;`.
                self.items.push(Item {
                    kind,
                    name,
                    trait_name: None,
                    self_type: None,
                    is_test,
                    span: self.span(kw, stop + 1),
                    body: None,
                    parent_fn,
                });
                stop + 1
            }
        }
    }

    fn parse_impl(
        &mut self,
        kw: usize,
        end: usize,
        in_test: bool,
        attrs: PendingAttrs,
        parent_fn: Option<usize>,
    ) -> usize {
        // `impl<generics>? TraitPath (for TypePath)? where…? { … }`
        let mut i = kw + 1;
        // Skip the generic parameter list, counting `<`/`>` but not the
        // `>` of `->` (bounds like `F: Fn() -> T` appear in generics).
        if i < end && self.toks[i].is_punct('<') {
            let mut depth = 0isize;
            while i < end {
                if self.toks[i].is_punct('<') {
                    depth += 1;
                } else if self.toks[i].is_punct('>') && !(i > 0 && self.toks[i - 1].is_punct('-')) {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
        }
        // First path: the trait if `for` follows, else the self type.
        let (first, after_first) = self.parse_type_head(i, end);
        let mut trait_name = None;
        let mut type_name = first;
        let mut j = after_first;
        if j < end && self.toks[j].is_ident("for") {
            let (second, after_second) = self.parse_type_head(j + 1, end);
            trait_name = Some(type_name);
            type_name = second;
            j = after_second;
        }
        let (body_open, stop) = self.find_body_or_semi(j, end);
        let Some(open) = body_open else { return stop + 1 };
        let close = self.match_delim(open, end, '{', '}');
        let is_test = in_test || attrs.test || attrs.cfg_test;
        self.items.push(Item {
            kind: ItemKind::Impl,
            name: type_name.clone(),
            trait_name: trait_name.clone(),
            self_type: None,
            is_test,
            span: self.span(kw, close + 1),
            body: Some((open + 1, close)),
            parent_fn,
        });
        let ctx = ImplCtx { type_name, trait_name };
        self.walk(open + 1, close, is_test, Some(&ctx), parent_fn, None);
        close + 1
    }

    /// Parses a type path head: returns the significant name (the last
    /// path segment before any generic arguments) and the index just past
    /// the whole type (generics skipped).
    fn parse_type_head(&self, start: usize, end: usize) -> (String, usize) {
        let mut name = String::new();
        let mut i = start;
        // Leading `&`, `dyn`, lifetimes arrive as idents/puncts to skip.
        while i < end {
            match &self.toks[i].kind {
                TokKind::Ident(s) => {
                    if s == "for" || s == "where" {
                        break;
                    }
                    if s != "dyn" {
                        name = s.clone();
                    }
                    i += 1;
                }
                TokKind::Punct(':') | TokKind::Punct('&') | TokKind::Punct('\'') => i += 1,
                TokKind::Punct('<') => {
                    // Generic arguments: skip balanced.
                    let mut depth = 0isize;
                    while i < end {
                        if self.toks[i].is_punct('<') {
                            depth += 1;
                        } else if self.toks[i].is_punct('>')
                            && !(i > 0 && self.toks[i - 1].is_punct('-'))
                        {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        i += 1;
                    }
                    // A path can continue after generics (`Foo<T>::Bar`).
                    if !(i + 1 < end && self.toks[i].is_punct(':')) {
                        break;
                    }
                }
                _ => break,
            }
        }
        (name, i)
    }

    fn parse_mod(
        &mut self,
        kw: usize,
        end: usize,
        in_test: bool,
        attrs: PendingAttrs,
        impl_ctx: Option<&ImplCtx>,
        parent_fn: Option<usize>,
    ) -> usize {
        let name = self.toks.get(kw + 1).and_then(Tok::ident).unwrap_or("").to_string();
        if name.is_empty() {
            return kw + 1;
        }
        let is_test = in_test || attrs.test || attrs.cfg_test;
        match self.toks.get(kw + 2) {
            Some(t) if t.is_punct('{') => {
                let close = self.match_delim(kw + 2, end, '{', '}');
                self.items.push(Item {
                    kind: ItemKind::Mod,
                    name,
                    trait_name: None,
                    self_type: None,
                    is_test,
                    span: self.span(kw, close + 1),
                    body: Some((kw + 3, close)),
                    parent_fn,
                });
                self.walk(kw + 3, close, is_test, impl_ctx, parent_fn, None);
                close + 1
            }
            _ => {
                // `mod name;` — an out-of-line module; the file walker
                // visits its source separately.
                self.items.push(Item {
                    kind: ItemKind::Mod,
                    name,
                    trait_name: None,
                    self_type: None,
                    is_test,
                    span: self.span(kw, (kw + 3).min(end)),
                    body: None,
                    parent_fn,
                });
                kw + 3
            }
        }
    }

    fn parse_use(
        &mut self,
        kw: usize,
        end: usize,
        in_test: bool,
        parent_fn: Option<usize>,
    ) -> usize {
        let mut last = String::new();
        let mut i = kw + 1;
        while i < end && !self.toks[i].is_punct(';') {
            if let Some(s) = self.toks[i].ident() {
                last = s.to_string();
            }
            i += 1;
        }
        self.items.push(Item {
            kind: ItemKind::Use,
            name: last,
            trait_name: None,
            self_type: None,
            is_test: in_test,
            span: self.span(kw, (i + 1).min(end)),
            body: None,
            parent_fn,
        });
        i + 1
    }

    fn span(&self, tok_start: usize, tok_end: usize) -> Span {
        let line_start = self.toks.get(tok_start).map_or(1, |t| t.line);
        let line_end =
            self.toks.get(tok_end.saturating_sub(1).max(tok_start)).map_or(line_start, |t| t.line);
        Span { line_start, line_end, tok_start, tok_end }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fns(p: &ParsedFile) -> Vec<&Item> {
        p.items.iter().filter(|i| i.kind == ItemKind::Fn).collect()
    }

    #[test]
    fn fn_items_carry_name_span_and_body() {
        let src = "fn alpha() { let x = 1; }\nfn beta(a: u32) -> u32 { a }\n";
        let p = parse_source("x.rs", src);
        let f = fns(&p);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].name, "alpha");
        assert_eq!((f[0].span.line_start, f[0].span.line_end), (1, 1));
        assert_eq!(f[1].name, "beta");
        assert_eq!(f[1].span.line_start, 2);
        assert!(f[0].body.is_some());
    }

    #[test]
    fn cfg_test_modules_taint_everything_inside() {
        let src = r#"
fn prod() {}
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn case() { struct Fake; impl Fake { fn poke(&self) {} } }
}
"#;
        let p = parse_source("x.rs", src);
        let by_name = |n: &str| p.items.iter().find(|i| i.name == n).unwrap();
        assert!(!by_name("prod").is_test);
        assert!(by_name("helper").is_test);
        assert!(by_name("case").is_test);
        assert!(by_name("poke").is_test, "items inside test fn bodies are test code");
        assert!(by_name("Fake").is_test);
    }

    #[test]
    fn impl_blocks_bind_trait_and_type_names() {
        let src = r#"
impl Widget { fn inherent(&self) {} }
impl<R: Clone> BlackBox for Metered<R> { fn top_k(&self) {} }
impl ca_recsys::FallibleBlackBox for DownThenUp { fn try_top_k(&mut self) {} }
"#;
        let p = parse_source("x.rs", src);
        let by_name = |n: &str| p.items.iter().find(|i| i.name == n).unwrap();
        assert_eq!(by_name("inherent").self_type.as_deref(), Some("Widget"));
        assert_eq!(by_name("inherent").trait_name, None);
        assert_eq!(by_name("top_k").self_type.as_deref(), Some("Metered"));
        assert_eq!(by_name("top_k").trait_name.as_deref(), Some("BlackBox"));
        assert_eq!(by_name("try_top_k").trait_name.as_deref(), Some("FallibleBlackBox"));
        assert_eq!(by_name("try_top_k").self_type.as_deref(), Some("DownThenUp"));
    }

    #[test]
    fn trait_default_methods_belong_to_the_trait_surface() {
        let src = "trait BlackBox { fn top_k(&self); fn batch(&self) { self.top_k() } }";
        let p = parse_source("x.rs", src);
        let batch = p.items.iter().find(|i| i.name == "batch").unwrap();
        assert_eq!(batch.trait_name.as_deref(), Some("BlackBox"));
        let sig = p.items.iter().find(|i| i.name == "top_k").unwrap();
        assert!(sig.body.is_none(), "signature-only trait methods have no body");
    }

    #[test]
    fn fn_params_recover_names_across_generic_commas() {
        let src = "fn f(&mut self, seed: u64, counts: &BTreeMap<u32, f32>, (a, b): (u8, u8)) {}";
        let p = parse_source("x.rs", src);
        let f = p.fns().next().unwrap();
        assert_eq!(p.fn_params(f), vec!["seed", "counts", "a"]);
    }

    #[test]
    fn nested_generics_do_not_derail_the_body_finder() {
        let src = "fn f<T: Iterator<Item = Vec<Map<u8, Vec<u8>>>>>(x: T) -> Vec<Vec<u8>> { g() }\nfn g() {}";
        let p = parse_source("x.rs", src);
        let f = fns(&p);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].name, "f");
        assert_eq!((f[0].span.line_start, f[0].span.line_end), (1, 1));
        assert_eq!(f[1].name, "g");
        assert_eq!(f[1].span.line_start, 2);
    }

    #[test]
    fn raw_strings_and_raw_idents_keep_spans_accurate() {
        // The multi-line raw string contains `fn` and unbalanced braces;
        // neither may start an item or derail the brace matcher. Raw
        // identifiers lex as their bare name, so `r#fn` is a real item.
        let src = "fn first() {\n    let q = r#\"fn fake() { { {\"#;\n    let _ = q;\n}\nfn r#match() { r#match_helper() }\nfn r#match_helper() {}\n";
        let p = parse_source("x.rs", src);
        let f = fns(&p);
        assert_eq!(
            f.iter().map(|i| i.name.as_str()).collect::<Vec<_>>(),
            ["first", "match", "match_helper"]
        );
        assert_eq!((f[0].span.line_start, f[0].span.line_end), (1, 4));
        assert_eq!((f[1].span.line_start, f[1].span.line_end), (5, 5));
        assert_eq!((f[2].span.line_start, f[2].span.line_end), (6, 6));
    }
}
