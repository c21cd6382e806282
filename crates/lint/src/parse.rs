//! A flat item scan over the token stream, and the `match` scan for S4.
//!
//! Rule S1 (see [`crate::rules`]) needs to know which statics,
//! thread-locals and type definitions a file declares and what each one's
//! type or body mentions, and where every shared pointer (`Arc`, `Rc`,
//! `Weak`) sits and what it points at, so the lexer's bare token stream
//! is not enough. This module builds no item tree. Every `static`, `struct`, `enum`,
//! `union` and `type` keyword starts an item wherever it sits, so a
//! function-local static is found without descending into the function,
//! and a `static` inside a `thread_local!` group is a thread-local. The
//! lexer emits nothing for lifetimes, so `'static` never starts an item.
//!
//! The scan is deliberately *total*: it never fails, never panics, and
//! skips anything it does not recognize. A construct it skips simply
//! contributes no items, which for a lint means a missed check, never a
//! crash. Spans are stable: every item carries the 1-based line of its
//! keyword, so prepending `k` blank lines to a file shifts every item line
//! by exactly `k` (the property test in `tests/parse_graph.rs` pins this).

use crate::lexer::{Tok, Token};

/// Pointers that share one payload between owners: an `Arc`, `Rc` or
/// `Weak` of a mutable payload is shared mutable state.
pub const SHARED_PTRS: &[&str] = &["Arc", "Rc", "Weak"];

/// What kind of definition an item is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// `static NAME: TY = ..;` — `mutable` for `static mut`.
    Static {
        /// `true` for `static mut`.
        mutable: bool,
    },
    /// A `static` inside a `thread_local!` group.
    ThreadLocal,
    /// A `struct`, `enum`, `union` or `type` definition.
    Type,
}

/// One `Arc<..>`, `Rc<..>` or `Weak<..>` in a type position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedPtr {
    /// 1-based line of the pointer's name.
    pub line: u32,
    /// Which pointer: one of [`SHARED_PTRS`].
    pub ptr: &'static str,
    /// The head of the payload type: the last path segment of a named
    /// type (`Mutex` for `Arc<std::sync::Mutex<T>>`, the trait for
    /// `dyn`/`impl`), `[..]` for slices and arrays, `(..)` for tuples.
    pub head: String,
}

/// One scanned item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Item {
    /// 1-based line of the item's keyword.
    pub line: u32,
    /// The item's name.
    pub name: String,
    /// What was scanned.
    pub kind: ItemKind,
    /// Every identifier in a static's type, or in a type definition's
    /// generics and body (fields, variant payloads, alias target), in
    /// source order.
    pub idents: Vec<String>,
}

/// Scans a file's tokens for items. Total: any input produces a
/// (possibly empty) item list.
pub fn items(tokens: &[Token]) -> Vec<Item> {
    let ident = |i: usize| match tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct = |i: usize, c: char| tokens.get(i).is_some_and(|t| t.tok == Tok::Punct(c));
    let mut out = Vec::new();
    let mut thread_local_end = 0;
    for (i, t) in tokens.iter().enumerate() {
        let (kind, name_at, body_at) = match ident(i) {
            Some("thread_local") if punct(i + 1, '!') => {
                thread_local_end = span_end(tokens, i + 2, false);
                continue;
            }
            Some("static") => {
                let mutable = ident(i + 1) == Some("mut");
                let name_at = i + 1 + usize::from(mutable);
                if !punct(name_at + 1, ':') {
                    continue;
                }
                let kind = if i < thread_local_end {
                    ItemKind::ThreadLocal
                } else {
                    ItemKind::Static { mutable }
                };
                (kind, name_at, name_at + 2)
            }
            Some("struct" | "enum" | "union" | "type") => (ItemKind::Type, i + 1, i + 2),
            _ => continue,
        };
        let Some(name) = ident(name_at) else {
            continue;
        };
        let body = &tokens[body_at..span_end(tokens, body_at, kind != ItemKind::Type)];
        let idents = body
            .iter()
            .filter_map(|b| match &b.tok {
                Tok::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        out.push(Item { line: t.line, name: name.to_string(), kind, idents });
    }
    out
}

/// Scans a file's tokens for every `Arc<..>`, `Rc<..>` and `Weak<..>`:
/// fields, aliases, statics, signatures and `let` annotations alike. A
/// shared pointer in any type position is S1's business, not only one
/// inside an item. Total, like [`items`].
pub fn shared_ptrs(tokens: &[Token]) -> Vec<SharedPtr> {
    let mut out = Vec::new();
    for (k, t) in tokens.iter().enumerate() {
        let Tok::Ident(s) = &t.tok else {
            continue;
        };
        let ptr = SHARED_PTRS.iter().copied().find(|p| p == s);
        if let (Some(ptr), Some(Tok::Punct('<'))) = (ptr, tokens.get(k + 1).map(|n| &n.tok)) {
            out.push(SharedPtr { line: t.line, ptr, head: payload_head(&tokens[k + 2..]) });
        }
    }
    out
}

/// Index just past the span starting at `start`: past its first `;`
/// outside brackets (or, with `stop_at_eq`, just before its first such
/// `=`, which ends a static's type), or past the `}` that closes its first
/// top-level brace group. A closer of an enclosing scope also ends it. Angle brackets count only outside other
/// brackets, and the `>` of `->` never closes one.
fn span_end(tokens: &[Token], start: usize, stop_at_eq: bool) -> usize {
    let (mut depth, mut angle) = (0usize, 0usize);
    let mut i = start;
    while let Some(t) = tokens.get(i) {
        let Tok::Punct(c) = t.tok else {
            i += 1;
            continue;
        };
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' if depth == 0 => return i,
            ')' | ']' | '}' => {
                depth -= 1;
                if depth == 0 && angle == 0 && c == '}' {
                    return i + 1;
                }
            }
            '<' if depth == 0 => angle += 1,
            '>' if depth == 0 && !(i > 0 && tokens[i - 1].tok == Tok::Punct('-')) => {
                angle = angle.saturating_sub(1);
            }
            ';' if depth == 0 => return i + 1,
            '=' if stop_at_eq && depth == 0 && angle == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// The head of the generic argument whose tokens start `toks`.
fn payload_head(toks: &[Token]) -> String {
    let mut head = String::new();
    for t in toks {
        match &t.tok {
            Tok::Punct('&' | '*' | ':') => {}
            Tok::Punct('[') if head.is_empty() => return "[..]".to_string(),
            Tok::Punct('(') if head.is_empty() => return "(..)".to_string(),
            Tok::Ident(s) if matches!(s.as_str(), "dyn" | "impl" | "mut" | "const") => {}
            Tok::Ident(s) => head = s.clone(),
            _ => break,
        }
    }
    head
}

/// A `match` statement whose arm patterns name one of the protected
/// enums and which also carries a top-level wildcard `_` arm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WildcardMatch {
    /// 1-based line of the `match` keyword.
    pub line: u32,
    /// 1-based line of the offending `_` arm.
    pub wildcard_line: u32,
    /// Which protected enum the arm patterns named.
    pub enum_name: String,
}

/// Scans for `match` expressions whose arm *patterns* name one of
/// `protected` (via `Enum::Variant` paths) while also carrying a
/// top-level wildcard `_` arm. Nested matches are scanned independently;
/// wildcard arms of inner matches never count against an outer one.
pub fn wildcard_protected_matches(tokens: &[Token], protected: &[&str]) -> Vec<WildcardMatch> {
    let mut found = Vec::new();
    for (m, t) in tokens.iter().enumerate() {
        if !matches!(&t.tok, Tok::Ident(s) if s == "match") {
            continue;
        }
        // Find the body `{`: first `{` at bracket depth 0 after the
        // scrutinee (closure bodies inside call arguments sit at
        // depth > 0 and are skipped correctly).
        let mut j = m + 1;
        let mut depth = 0usize;
        let mut body_open = None;
        while j < tokens.len() {
            match &tokens[j].tok {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth = depth.saturating_sub(1),
                Tok::Punct('{') if depth == 0 => {
                    body_open = Some(j);
                    break;
                }
                Tok::Punct(';') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else {
            continue;
        };
        let mut names = Vec::new();
        let mut wildcard_line = None;
        scan_match_body(tokens, open, protected, &mut names, &mut wildcard_line);
        if let (Some(first), Some(wline)) = (names.first(), wildcard_line) {
            found.push(WildcardMatch {
                line: t.line,
                wildcard_line: wline,
                enum_name: first.clone(),
            });
        }
    }
    found
}

/// Walks one match body (starting on its `{`), collecting protected-enum
/// names from top-level arm patterns and the line of any top-level `_`
/// wildcard arm.
fn scan_match_body(
    tokens: &[Token],
    open: usize,
    protected: &[&str],
    names: &mut Vec<String>,
    wildcard_line: &mut Option<u32>,
) {
    let mut depth = 0usize;
    let mut in_pattern = true;
    let mut pattern: Vec<usize> = Vec::new();
    let mut j = open;
    while j < tokens.len() {
        match &tokens[j].tok {
            Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return; // end of the match body
                }
                // An arm body block just closed: the next token starts a
                // new pattern.
                if depth == 1 && matches!(tokens[j].tok, Tok::Punct('}')) && !in_pattern {
                    in_pattern = true;
                    pattern.clear();
                }
                j += 1;
                continue;
            }
            Tok::Punct('=')
                if depth == 1
                    && in_pattern
                    && matches!(tokens.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('>'))) =>
            {
                // `=>`: the pattern is complete — classify it.
                classify_pattern(tokens, &pattern, protected, names, wildcard_line);
                in_pattern = false;
                pattern.clear();
                j += 2;
                continue;
            }
            Tok::Punct(',') if depth == 1 => {
                if !in_pattern {
                    in_pattern = true;
                    pattern.clear();
                }
                j += 1;
                continue;
            }
            _ => {}
        }
        if in_pattern && depth >= 1 {
            pattern.push(j);
        }
        j += 1;
    }
}

/// Decides what one completed arm pattern contributes: a protected-enum
/// reference (`Enum ::` anywhere in it) and/or a top-level wildcard (the
/// pattern is `_`, or `_ if guard`).
fn classify_pattern(
    tokens: &[Token],
    pattern: &[usize],
    protected: &[&str],
    names: &mut Vec<String>,
    wildcard_line: &mut Option<u32>,
) {
    // Leading `|` alternation markers do not change the shape.
    let mut idx = 0usize;
    while idx < pattern.len() && matches!(tokens[pattern[idx]].tok, Tok::Punct('|')) {
        idx += 1;
    }
    let trimmed = &pattern[idx..];
    if let Some(&first) = trimmed.first() {
        let lone = trimmed.len() == 1;
        let guarded = matches!(tokens.get(trimmed.get(1).copied().unwrap_or(usize::MAX)).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "if");
        if matches!(&tokens[first].tok, Tok::Ident(s) if s == "_") && (lone || guarded) {
            wildcard_line.get_or_insert(tokens[first].line);
        }
    }
    for (k, &p) in pattern.iter().enumerate() {
        if let Tok::Ident(s) = &tokens[p].tok {
            if protected.contains(&s.as_str())
                && pattern.get(k + 1).is_some_and(|&n| matches!(tokens[n].tok, Tok::Punct(':')))
                && pattern.get(k + 2).is_some_and(|&n| matches!(tokens[n].tok, Tok::Punct(':')))
                && !names.iter().any(|n| n == s)
            {
                names.push(s.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items_of(src: &str) -> Vec<Item> {
        items(&lex(src).tokens)
    }

    #[test]
    fn statics_with_mutability_and_function_locals() {
        let src = "static A: u64 = 0;\n\
                   static mut B: u64 = 0;\n\
                   fn f() { static C: OnceLock<Arc<[u8]>> = OnceLock::new(); }\n\
                   fn g(s: &'static str) -> &'static str { s }\n";
        let items = items_of(src);
        assert_eq!(items.len(), 3, "`'static` starts no item: {items:?}");
        assert_eq!(items[0].name, "A");
        assert_eq!(items[0].kind, ItemKind::Static { mutable: false });
        assert_eq!(items[1].kind, ItemKind::Static { mutable: true });
        assert_eq!((items[2].name.as_str(), items[2].line), ("C", 3));
        assert_eq!(items[2].idents, ["OnceLock", "Arc", "u8"], "the initializer is not the type");
    }

    #[test]
    fn thread_local_blocks() {
        let items = items_of(
            "thread_local! {\n  static TL: RefCell<u64> = RefCell::new(0);\n}\nstatic G: u8 = 0;\n",
        );
        assert_eq!(items.len(), 2);
        assert_eq!((items[0].name.as_str(), items[0].kind), ("TL", ItemKind::ThreadLocal));
        assert!(items[0].idents.iter().any(|i| i == "RefCell"));
        assert_eq!(items[1].kind, ItemKind::Static { mutable: false });
    }

    #[test]
    fn enums_tuples_and_aliases() {
        let src = "pub enum E { A { inner: Rc<AtomicU64> }, B(RefCell<u8>), C = 1 << 2 }\n\
                   pub type Alias = Weak<std::sync::Mutex<Vec<u8>>>;\n\
                   pub struct T(pub Arc<dyn Image>, u64);\n\
                   union U { a: u32 }\n";
        let items = items_of(src);
        let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["E", "Alias", "T", "U"]);
        assert!(items.iter().all(|i| i.kind == ItemKind::Type));
        assert!(items[0].idents.iter().any(|i| i == "RefCell"), "{:?}", items[0].idents);
    }

    #[test]
    fn struct_fields_with_visibility_and_modules() {
        let src = "pub mod outer {\n\
                     pub struct S {\n\
                       pub shared: Arc<Mutex<u64>>,\n\
                       private: u32,\n\
                       pub(crate) mid: Cell<u8>,\n\
                     }\n\
                   }\n";
        let toks = lex(src).tokens;
        let items = items(&toks);
        assert_eq!(items.len(), 1, "{items:?}");
        assert_eq!((items[0].name.as_str(), items[0].line), ("S", 2));
        let idents = &items[0].idents;
        assert!(["Mutex", "private", "u32", "Cell"].iter().all(|w| idents.iter().any(|i| i == w)));
        assert_eq!(shared_ptrs(&toks), [SharedPtr { line: 3, ptr: "Arc", head: "Mutex".into() }]);
    }

    #[test]
    fn fn_return_types_and_impl_bodies() {
        let src = "pub enum E { A { inner: Rc<AtomicU64> } }\n\
                   pub type Alias = Weak<std::sync::Mutex<Vec<u8>>>;\n\
                   impl Foo {\n\
                     fn f(b: &Arc<[u8]>) -> Arc<dyn Image> { let t: Rc<(u8, u8)> = g(); h(a < b) }\n\
                     pub fn cell(&self) -> &RefCell<u64> { &self.c }\n\
                   }\n";
        let toks = lex(src).tokens;
        assert_eq!(items(&toks).len(), 2, "methods are not items");
        let got: Vec<(u32, &str, String)> =
            shared_ptrs(&toks).into_iter().map(|p| (p.line, p.ptr, p.head)).collect();
        let want = [(1, "Rc", "AtomicU64"), (2, "Weak", "Mutex"), (4, "Arc", "[..]")];
        let want = want.into_iter().chain([(4, "Arc", "Image"), (4, "Rc", "(..)")]);
        assert_eq!(got, want.map(|(l, p, h)| (l, p, h.to_string())).collect::<Vec<_>>());
    }

    #[test]
    fn generic_commas_do_not_split_fields() {
        let src = "struct M<K, V> where K: Fn() -> V { map: BTreeMap<K, Entry>, next: u64 }\n\
                   fn f(s: BTreeSet<u8>) { s.union(&s); }\n";
        let items = items_of(src);
        assert_eq!(items.len(), 1, "a `.union(` call is not an item: {items:?}");
        assert!(items[0].idents.ends_with(&["next".to_string(), "u64".to_string()]));
        assert!(items[0].idents.iter().any(|i| i == "Entry"));
    }

    #[test]
    fn wildcard_match_detection() {
        let src = "fn f(k: TraceKind) -> u32 {\n\
                     match k {\n\
                       TraceKind::A { pid } => pid,\n\
                       _ => 0,\n\
                     }\n\
                   }\n";
        let hits = wildcard_protected_matches(&lex(src).tokens, &["TraceKind"]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 2);
        assert_eq!(hits[0].wildcard_line, 4);
        assert_eq!(hits[0].enum_name, "TraceKind");
    }

    #[test]
    fn exhaustive_and_unprotected_matches_pass() {
        // Exhaustive over the protected enum: fine.
        let a = "match k { TraceKind::A => 1, TraceKind::B => 2 }";
        assert!(wildcard_protected_matches(&lex(a).tokens, &["TraceKind"]).is_empty());
        // Wildcard over an unprotected scrutinee: fine.
        let b = "match n { 0 => 1, _ => 2 }";
        assert!(wildcard_protected_matches(&lex(b).tokens, &["TraceKind"]).is_empty());
        // `Some(_)` is not a top-level wildcard.
        let c = "match k { Some(TraceKind::A) => 1, Some(_) => 2, None => 3 }";
        assert!(wildcard_protected_matches(&lex(c).tokens, &["TraceKind"]).is_empty());
    }

    #[test]
    fn nested_wildcards_do_not_leak_into_outer_matches() {
        // The outer match is exhaustive over PlanKind; the nested match
        // over an integer draw has a legitimate wildcard.
        let src = "match kind {\n\
                     PlanKind::A => (0..n).map(|_| match r(4) {\n\
                       0 => FaultEvent::Drop { at },\n\
                       _ => FaultEvent::Delay { at },\n\
                     }).collect(),\n\
                     PlanKind::B => vec![],\n\
                   }";
        let hits = wildcard_protected_matches(&lex(src).tokens, &["PlanKind", "FaultEvent"]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn guarded_wildcard_is_still_a_wildcard() {
        let src = "match k { TraceKind::A => 1, _ if lenient => 2, TraceKind::B => 3 }";
        let hits = wildcard_protected_matches(&lex(src).tokens, &["TraceKind"]);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn parser_is_total_on_garbage() {
        for src in [
            "struct",
            "static X:",
            "match {",
            "pub pub pub",
            "fn f( {",
            "enum E { A(",
            "type",
            "Rc<",
        ] {
            let toks = lex(src).tokens;
            let _ = (items(&toks), shared_ptrs(&toks)); // must not panic
        }
    }
}
