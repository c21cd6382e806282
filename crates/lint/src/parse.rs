//! A lightweight item-level parse layer over the token stream.
//!
//! The S-rules (see [`crate::rules`]) reason about *structure* — which
//! statics exist, what types pub items expose, what payload shape every
//! `Arc<..>` carries — so the lexer's flat token stream is not enough.
//! This module extracts a per-file item list: statics (including
//! function-local ones and `thread_local!` blocks), structs, enums, type
//! aliases, functions and their return types, with module nesting and
//! visibility tracked along the way.
//!
//! The parser is deliberately *total*: it never fails, never panics, and
//! skips anything it does not recognize (macros, expressions, attribute
//! bodies). A construct it skips simply contributes no items, which for a
//! lint means a missed check, never a crash or a false parse. Spans are
//! stable: every item carries the 1-based line of its defining token, so
//! prepending `k` blank lines to a file shifts every item line by exactly
//! `k` (the property test in `tests/parse_graph.rs` pins this).

use crate::lexer::{Tok, Token};

/// Visibility of an item, as the sharing rules care about it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Vis {
    /// No `pub` at all: private to the enclosing module.
    Private,
    /// `pub(crate)`, `pub(super)`, `pub(in ..)`, `pub(self)`: visible
    /// within the crate but never across a crate boundary.
    Crate,
    /// Plain `pub`: exposed from the crate (modulo module privacy, which
    /// the analyzer approximates — see [`crate::rules`] S2).
    Pub,
}

/// A type expression, summarized to what the rules need: the set of path
/// identifiers it mentions and every `Arc<..>` application inside it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TypeExpr {
    /// Every identifier appearing in the type, in source order.
    pub idents: Vec<String>,
    /// Every `Arc<payload>` application, with the payload's head type.
    pub arcs: Vec<ArcApp>,
}

impl TypeExpr {
    /// `true` if the type mentions `name` anywhere.
    pub fn mentions(&self, name: &str) -> bool {
        self.idents.iter().any(|i| i == name)
    }
}

/// One `Arc<payload>` application found in a type position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArcApp {
    /// 1-based line of the `Arc` token.
    pub line: u32,
    /// The head of the payload type: the last path segment for a named
    /// type (`Mutex` for `Arc<std::sync::Mutex<T>>`), `[..]` for slices
    /// and arrays, `(..)` for tuples, `dyn`/`impl` heads resolve to the
    /// trait name.
    pub head: String,
}

/// A struct field or enum-variant field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    /// Field name (`"0"`, `"1"`, ... for tuple fields; for enum variants
    /// the name is `Variant.field`).
    pub name: String,
    /// Field visibility (enum-variant fields inherit the enum's).
    pub vis: Vis,
    /// 1-based line the field starts on.
    pub line: u32,
    /// The field's type.
    pub ty: TypeExpr,
}

/// What kind of item was parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// `static NAME: TY = ..;` — `mutable` for `static mut`.
    Static {
        /// `true` for `static mut`.
        mutable: bool,
        /// The declared type.
        ty: TypeExpr,
    },
    /// A `static` inside a `thread_local! { .. }` block.
    ThreadLocal {
        /// The declared type.
        ty: TypeExpr,
    },
    /// `const NAME: TY = ..;`
    Const {
        /// The declared type.
        ty: TypeExpr,
    },
    /// `struct NAME { .. }` (or tuple/unit struct).
    Struct {
        /// Fields, tuple fields named by index.
        fields: Vec<Field>,
    },
    /// `enum NAME { .. }` — fields of all variants, flattened.
    Enum {
        /// Variant fields, named `Variant.field` / `Variant.0`.
        fields: Vec<Field>,
    },
    /// `type NAME = TY;`
    TypeAlias {
        /// The aliased type.
        ty: TypeExpr,
    },
    /// `fn NAME(..) -> RET` — only the return type is captured.
    Fn {
        /// The return type, if the signature declares one.
        ret: Option<TypeExpr>,
    },
}

impl ItemKind {
    /// Stable kind name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ItemKind::Static { .. } => "static",
            ItemKind::ThreadLocal { .. } => "thread_local",
            ItemKind::Const { .. } => "const",
            ItemKind::Struct { .. } => "struct",
            ItemKind::Enum { .. } => "enum",
            ItemKind::TypeAlias { .. } => "type",
            ItemKind::Fn { .. } => "fn",
        }
    }
}

/// One parsed item with its location and context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Item {
    /// 1-based line of the item's keyword token.
    pub line: u32,
    /// Inline-module path from the file root (empty at the root).
    pub module: Vec<String>,
    /// The item's declared visibility.
    pub vis: Vis,
    /// `true` if the item is nested inside a function body (a
    /// function-local `static`, for instance) — never externally
    /// reachable, but still global state.
    pub in_fn: bool,
    /// The item's name.
    pub name: String,
    /// What was parsed.
    pub kind: ItemKind,
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

/// Parses the whole file into an item list. Total: any input produces a
/// (possibly empty) item list; unrecognized constructs are skipped.
pub fn parse(tokens: &[Token]) -> Vec<Item> {
    let mut items = Vec::new();
    let mut p = Parser { toks: tokens, i: 0 };
    p.items(tokens.len(), &mut Vec::new(), false, &mut items);
    items
}

struct Parser<'t> {
    toks: &'t [Token],
    i: usize,
}

impl<'t> Parser<'t> {
    fn ident(&self, i: usize) -> Option<&'t str> {
        match self.toks.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn punct(&self, i: usize) -> Option<char> {
        match self.toks.get(i).map(|t| &t.tok) {
            Some(Tok::Punct(c)) => Some(*c),
            _ => None,
        }
    }

    fn line(&self, i: usize) -> u32 {
        self.toks.get(i).map(|t| t.line).unwrap_or(0)
    }

    /// With `self.i` on an opening delimiter, returns the index just past
    /// its matching close (or `end` if unbalanced).
    fn past_balanced(&self, open: char, close: char, end: usize) -> usize {
        let mut depth = 0usize;
        let mut j = self.i;
        while j < end {
            match self.punct(j) {
                Some(c) if c == open => depth += 1,
                Some(c) if c == close => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        end
    }

    /// Advances to the next `;` at bracket depth 0, or past a balanced
    /// `{..}` block, whichever comes first — the "skip one statement"
    /// fallback for items the parser does not model (`use`, macros).
    fn skip_statement(&mut self, end: usize) {
        let mut depth = 0usize;
        while self.i < end {
            match self.punct(self.i) {
                Some('(') | Some('[') => depth += 1,
                Some(')') | Some(']') => depth = depth.saturating_sub(1),
                Some('{') if depth == 0 => {
                    self.i = self.past_balanced('{', '}', end);
                    return;
                }
                Some(';') if depth == 0 => {
                    self.i += 1;
                    return;
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    /// Scans a type expression starting at `self.i`, stopping at any of
    /// `stop` puncts at all-brackets-depth 0 (or at `where` / end of
    /// scope). Leaves `self.i` on the terminator. Angle brackets are
    /// tracked, with `->` arrows exempt from closing them.
    fn scan_type(&mut self, stop: &[char], end: usize) -> TypeExpr {
        let mut ty = TypeExpr::default();
        let mut paren = 0usize;
        let mut angle = 0usize;
        let mut prev_dash = false;
        while self.i < end {
            let at_depth0 = paren == 0 && angle == 0;
            match &self.toks[self.i].tok {
                Tok::Punct(c) => {
                    let c = *c;
                    if at_depth0 && stop.contains(&c) {
                        return ty;
                    }
                    match c {
                        '(' | '[' | '{' => paren += 1,
                        ')' | ']' | '}' => {
                            if paren == 0 {
                                return ty; // closes an enclosing scope
                            }
                            paren -= 1;
                        }
                        '<' => angle += 1,
                        '>' if !prev_dash => angle = angle.saturating_sub(1),
                        _ => {}
                    }
                    prev_dash = c == '-';
                }
                Tok::Ident(s) => {
                    prev_dash = false;
                    if s == "where" && at_depth0 {
                        return ty;
                    }
                    if s == "Arc" && self.arc_open(self.i + 1).is_some() {
                        let open = self.arc_open(self.i + 1).unwrap_or(self.i + 1);
                        ty.arcs.push(ArcApp {
                            line: self.line(self.i),
                            head: self.arc_payload_head(open + 1, end),
                        });
                    }
                    ty.idents.push(s.clone());
                }
                _ => prev_dash = false,
            }
            self.i += 1;
        }
        ty
    }

    /// If the tokens at `i` open a generic application (`<`, or turbofish
    /// `::<`), returns the index of the `<`.
    fn arc_open(&self, i: usize) -> Option<usize> {
        if self.punct(i) == Some('<') {
            return Some(i);
        }
        if self.punct(i) == Some(':')
            && self.punct(i + 1) == Some(':')
            && self.punct(i + 2) == Some('<')
        {
            return Some(i + 2);
        }
        None
    }

    /// The head of the first generic argument starting at `i` (just past
    /// the `<`): last path segment of a named type, `[..]` for
    /// slices/arrays, `(..)` for tuples.
    fn arc_payload_head(&self, mut i: usize, end: usize) -> String {
        let mut head = String::new();
        while i < end {
            match &self.toks[i].tok {
                Tok::Punct('&') | Tok::Punct('*') => {}
                Tok::Punct('[') => return "[..]".to_string(),
                Tok::Punct('(') => return "(..)".to_string(),
                Tok::Punct(':') => {}
                Tok::Punct(_) => break,
                Tok::Ident(s) => {
                    if s != "dyn" && s != "impl" && s != "mut" && s != "const" {
                        head = s.clone();
                    }
                }
                _ => break,
            }
            i += 1;
        }
        head
    }

    /// Skips a balanced `<..>` generics list if one starts at `self.i`.
    fn skip_generics(&mut self, end: usize) {
        if self.punct(self.i) != Some('<') {
            return;
        }
        let mut angle = 0usize;
        let mut prev_dash = false;
        while self.i < end {
            match self.punct(self.i) {
                Some('<') => angle += 1,
                Some('>') if !prev_dash => {
                    angle -= 1;
                    if angle == 0 {
                        self.i += 1;
                        return;
                    }
                }
                _ => {}
            }
            prev_dash = self.punct(self.i) == Some('-');
            self.i += 1;
        }
    }

    /// Parses items in `[self.i, end)` at module scope (file root, inline
    /// `mod`, `impl`/`trait` bodies all behave the same here).
    fn items(&mut self, end: usize, module: &mut Vec<String>, in_fn: bool, out: &mut Vec<Item>) {
        let mut vis = Vis::Private;
        while self.i < end {
            match &self.toks[self.i].tok {
                Tok::Punct('#') => {
                    // `#[attr]` / `#![attr]`: skip to the bracket group.
                    self.i += 1;
                    if self.punct(self.i) == Some('!') {
                        self.i += 1;
                    }
                    if self.punct(self.i) == Some('[') {
                        self.i = self.past_balanced('[', ']', end);
                    }
                }
                Tok::Punct('{') => {
                    // A stray block at item scope: descend (still finds
                    // function-local statics in weird macro output).
                    self.i = self.past_balanced('{', '}', end);
                    vis = Vis::Private;
                }
                Tok::Punct(_) | Tok::Int | Tok::Float | Tok::Str => {
                    self.i += 1;
                }
                Tok::Ident(kw) => {
                    let kw = kw.clone();
                    self.keyword(&kw, end, module, in_fn, &mut vis, out);
                }
            }
        }
    }

    /// Handles one identifier at item scope; updates `vis` or emits items.
    fn keyword(
        &mut self,
        kw: &str,
        end: usize,
        module: &mut Vec<String>,
        in_fn: bool,
        vis: &mut Vis,
        out: &mut Vec<Item>,
    ) {
        match kw {
            "pub" => {
                self.i += 1;
                *vis = if self.punct(self.i) == Some('(') {
                    self.i = self.past_balanced('(', ')', end);
                    Vis::Crate
                } else {
                    Vis::Pub
                };
            }
            // Modifiers that may precede `fn`/`impl`/`trait`.
            "unsafe" | "async" | "extern" | "default" => {
                self.i += 1;
                if matches!(self.toks.get(self.i).map(|t| &t.tok), Some(Tok::Str)) {
                    self.i += 1; // the ABI string of `extern "C"`
                }
            }
            "mod" => {
                self.i += 1;
                let name = self.ident(self.i).unwrap_or("").to_string();
                self.i += 1;
                if self.punct(self.i) == Some('{') {
                    let body_end = self.past_balanced('{', '}', end);
                    self.i += 1;
                    module.push(name);
                    self.items(body_end.saturating_sub(1), module, in_fn, out);
                    module.pop();
                    self.i = body_end;
                }
                // `mod name;` needs nothing: the referenced file is
                // walked and parsed on its own.
                *vis = Vis::Private;
            }
            "static" => {
                self.static_item(end, module, in_fn, *vis, false, out);
                *vis = Vis::Private;
            }
            "thread_local" => {
                self.i += 1;
                if self.punct(self.i) == Some('!') {
                    self.i += 1;
                    if self.punct(self.i) == Some('{') {
                        let body_end = self.past_balanced('{', '}', end);
                        self.i += 1;
                        self.thread_local_body(
                            body_end.saturating_sub(1),
                            module,
                            in_fn,
                            *vis,
                            out,
                        );
                        self.i = body_end;
                    }
                }
                *vis = Vis::Private;
            }
            "const" => {
                // `const fn` is a function; `const NAME: TY = ..;` an item.
                if self.ident(self.i + 1) == Some("fn") {
                    self.i += 1;
                    return;
                }
                let line = self.line(self.i);
                self.i += 1;
                let name = self.ident(self.i).unwrap_or("").to_string();
                self.i += 1;
                if self.punct(self.i) == Some(':') {
                    self.i += 1;
                    let ty = self.scan_type(&['=', ';'], end);
                    out.push(Item {
                        line,
                        module: module.clone(),
                        vis: *vis,
                        in_fn,
                        name,
                        kind: ItemKind::Const { ty },
                    });
                }
                self.skip_statement(end);
                *vis = Vis::Private;
            }
            "type" => {
                let line = self.line(self.i);
                self.i += 1;
                let name = self.ident(self.i).unwrap_or("").to_string();
                self.i += 1;
                self.skip_generics(end);
                if self.punct(self.i) == Some('=') {
                    self.i += 1;
                    let ty = self.scan_type(&[';'], end);
                    out.push(Item {
                        line,
                        module: module.clone(),
                        vis: *vis,
                        in_fn,
                        name,
                        kind: ItemKind::TypeAlias { ty },
                    });
                }
                self.skip_statement(end);
                *vis = Vis::Private;
            }
            "struct" => {
                self.struct_item(end, module, in_fn, *vis, out);
                *vis = Vis::Private;
            }
            "enum" => {
                self.enum_item(end, module, in_fn, *vis, out);
                *vis = Vis::Private;
            }
            "fn" => {
                self.fn_item(end, module, in_fn, *vis, out);
                *vis = Vis::Private;
            }
            "impl" | "trait" => {
                // Skip the header (generics, self type, bounds) up to the
                // body, then parse the body at item scope.
                self.i += 1;
                while self.i < end
                    && self.punct(self.i) != Some('{')
                    && self.punct(self.i) != Some(';')
                {
                    self.i += 1;
                }
                if self.punct(self.i) == Some('{') {
                    let body_end = self.past_balanced('{', '}', end);
                    self.i += 1;
                    self.items(body_end.saturating_sub(1), module, in_fn, out);
                    self.i = body_end;
                } else {
                    self.i += 1;
                }
                *vis = Vis::Private;
            }
            "use" | "macro_rules" | "macro" => {
                self.skip_statement(end);
                *vis = Vis::Private;
            }
            _ => {
                self.i += 1;
                *vis = Vis::Private;
            }
        }
    }

    /// `static [mut] NAME: TY = ..;` with `self.i` on `static`.
    fn static_item(
        &mut self,
        end: usize,
        module: &[String],
        in_fn: bool,
        vis: Vis,
        thread_local: bool,
        out: &mut Vec<Item>,
    ) {
        let line = self.line(self.i);
        self.i += 1;
        let mut mutable = false;
        if self.ident(self.i) == Some("mut") {
            mutable = true;
            self.i += 1;
        }
        let name = self.ident(self.i).unwrap_or("").to_string();
        self.i += 1;
        if self.punct(self.i) == Some(':') {
            self.i += 1;
            let ty = self.scan_type(&['=', ';'], end);
            let kind = if thread_local {
                ItemKind::ThreadLocal { ty }
            } else {
                ItemKind::Static { mutable, ty }
            };
            out.push(Item { line, module: module.to_vec(), vis, in_fn, name, kind });
        }
        self.skip_statement(end);
    }

    /// The inside of a `thread_local! { .. }` block: a run of statics.
    fn thread_local_body(
        &mut self,
        end: usize,
        module: &[String],
        in_fn: bool,
        vis: Vis,
        out: &mut Vec<Item>,
    ) {
        let mut item_vis = vis;
        while self.i < end {
            match self.ident(self.i) {
                Some("static") => {
                    self.static_item(end, module, in_fn, item_vis, true, out);
                    item_vis = vis;
                }
                Some("pub") => {
                    self.i += 1;
                    item_vis = if self.punct(self.i) == Some('(') {
                        self.i = self.past_balanced('(', ')', end);
                        Vis::Crate
                    } else {
                        Vis::Pub
                    };
                }
                _ => self.i += 1,
            }
        }
    }

    /// `struct NAME .. ;|(..)|{..}` with `self.i` on `struct`.
    fn struct_item(
        &mut self,
        end: usize,
        module: &[String],
        in_fn: bool,
        vis: Vis,
        out: &mut Vec<Item>,
    ) {
        let line = self.line(self.i);
        self.i += 1;
        let name = self.ident(self.i).unwrap_or("").to_string();
        self.i += 1;
        self.skip_generics(end);
        // Skip a `where` clause if present (scan to the body/terminator).
        while self.i < end
            && self.punct(self.i) != Some('{')
            && self.punct(self.i) != Some('(')
            && self.punct(self.i) != Some(';')
        {
            self.i += 1;
        }
        let mut fields = Vec::new();
        match self.punct(self.i) {
            Some('(') => {
                let body_end = self.past_balanced('(', ')', end);
                self.i += 1;
                self.tuple_fields(body_end.saturating_sub(1), "", &mut fields);
                self.i = body_end;
                self.skip_statement(end); // the trailing `;`
            }
            Some('{') => {
                let body_end = self.past_balanced('{', '}', end);
                self.i += 1;
                self.named_fields(body_end.saturating_sub(1), "", &mut fields);
                self.i = body_end;
            }
            _ => self.i += 1, // unit struct `;`
        }
        out.push(Item {
            line,
            module: module.to_vec(),
            vis,
            in_fn,
            name,
            kind: ItemKind::Struct { fields },
        });
    }

    /// Named fields `vis name: TY,` in `[self.i, end)`.
    fn named_fields(&mut self, end: usize, prefix: &str, out: &mut Vec<Field>) {
        while self.i < end {
            match &self.toks[self.i].tok {
                Tok::Punct('#') => {
                    self.i += 1;
                    if self.punct(self.i) == Some('[') {
                        self.i = self.past_balanced('[', ']', end);
                    }
                }
                Tok::Ident(_) => {
                    let mut vis = Vis::Private;
                    if self.ident(self.i) == Some("pub") {
                        self.i += 1;
                        vis = if self.punct(self.i) == Some('(') {
                            self.i = self.past_balanced('(', ')', end);
                            Vis::Crate
                        } else {
                            Vis::Pub
                        };
                    }
                    let line = self.line(self.i);
                    let name = self.ident(self.i).unwrap_or("").to_string();
                    self.i += 1;
                    if self.punct(self.i) == Some(':') {
                        self.i += 1;
                        let ty = self.scan_type(&[','], end);
                        out.push(Field { name: format!("{prefix}{name}"), vis, line, ty });
                    }
                    if self.punct(self.i) == Some(',') {
                        self.i += 1;
                    }
                }
                _ => self.i += 1,
            }
        }
    }

    /// Tuple fields `vis TY,` in `[self.i, end)`, named by index.
    fn tuple_fields(&mut self, end: usize, prefix: &str, out: &mut Vec<Field>) {
        let mut idx = 0usize;
        while self.i < end {
            if self.punct(self.i) == Some('#') {
                self.i += 1;
                if self.punct(self.i) == Some('[') {
                    self.i = self.past_balanced('[', ']', end);
                }
                continue;
            }
            let mut vis = Vis::Private;
            if self.ident(self.i) == Some("pub") {
                self.i += 1;
                vis = if self.punct(self.i) == Some('(') {
                    self.i = self.past_balanced('(', ')', end);
                    Vis::Crate
                } else {
                    Vis::Pub
                };
            }
            let line = self.line(self.i);
            let ty = self.scan_type(&[','], end);
            if !ty.idents.is_empty() || !ty.arcs.is_empty() {
                out.push(Field { name: format!("{prefix}{idx}"), vis, line, ty });
            }
            idx += 1;
            if self.punct(self.i) == Some(',') || self.i < end {
                self.i += 1;
            }
        }
    }

    /// `enum NAME { Variant{..} | Variant(..) | Variant, .. }`.
    fn enum_item(
        &mut self,
        end: usize,
        module: &[String],
        in_fn: bool,
        vis: Vis,
        out: &mut Vec<Item>,
    ) {
        let line = self.line(self.i);
        self.i += 1;
        let name = self.ident(self.i).unwrap_or("").to_string();
        self.i += 1;
        self.skip_generics(end);
        while self.i < end && self.punct(self.i) != Some('{') && self.punct(self.i) != Some(';') {
            self.i += 1;
        }
        let mut fields = Vec::new();
        if self.punct(self.i) == Some('{') {
            let body_end = self.past_balanced('{', '}', end);
            self.i += 1;
            while self.i < body_end.saturating_sub(1) {
                match &self.toks[self.i].tok {
                    Tok::Punct('#') => {
                        self.i += 1;
                        if self.punct(self.i) == Some('[') {
                            self.i = self.past_balanced('[', ']', body_end);
                        }
                    }
                    Tok::Ident(v) => {
                        let variant = v.clone();
                        self.i += 1;
                        match self.punct(self.i) {
                            Some('{') => {
                                let vend = self.past_balanced('{', '}', body_end);
                                self.i += 1;
                                self.named_fields(
                                    vend.saturating_sub(1),
                                    &format!("{variant}."),
                                    &mut fields,
                                );
                                self.i = vend;
                            }
                            Some('(') => {
                                let vend = self.past_balanced('(', ')', body_end);
                                self.i += 1;
                                self.tuple_fields(
                                    vend.saturating_sub(1),
                                    &format!("{variant}."),
                                    &mut fields,
                                );
                                self.i = vend;
                            }
                            _ => {}
                        }
                        // Skip a discriminant (`= 3`) and the comma.
                        while self.i < body_end.saturating_sub(1) && self.punct(self.i) != Some(',')
                        {
                            self.i += 1;
                        }
                        if self.punct(self.i) == Some(',') {
                            self.i += 1;
                        }
                    }
                    _ => self.i += 1,
                }
            }
            self.i = body_end;
        }
        out.push(Item {
            line,
            module: module.to_vec(),
            vis,
            in_fn,
            name,
            kind: ItemKind::Enum { fields },
        });
    }

    /// `fn NAME(..) [-> RET] {body}|;` — captures the return type, then
    /// descends into the body looking only for nested items (statics).
    fn fn_item(
        &mut self,
        end: usize,
        module: &mut Vec<String>,
        _in_fn: bool,
        vis: Vis,
        out: &mut Vec<Item>,
    ) {
        let line = self.line(self.i);
        self.i += 1;
        let name = self.ident(self.i).unwrap_or("").to_string();
        self.i += 1;
        self.skip_generics(end);
        if self.punct(self.i) == Some('(') {
            self.i = self.past_balanced('(', ')', end);
        }
        let mut ret = None;
        if self.punct(self.i) == Some('-') && self.punct(self.i + 1) == Some('>') {
            self.i += 2;
            ret = Some(self.scan_type(&['{', ';'], end));
        }
        // A `where` clause may sit between the return type and the body.
        while self.i < end && self.punct(self.i) != Some('{') && self.punct(self.i) != Some(';') {
            self.i += 1;
        }
        out.push(Item {
            line,
            module: module.clone(),
            vis,
            in_fn: _in_fn,
            name: name.clone(),
            kind: ItemKind::Fn { ret },
        });
        if self.punct(self.i) == Some('{') {
            let body_end = self.past_balanced('{', '}', end);
            self.i += 1;
            module.push(format!("fn {name}"));
            self.fn_body(body_end.saturating_sub(1), module, out);
            module.pop();
            self.i = body_end;
        } else {
            self.i += 1;
        }
    }

    /// Inside a function body only nested global state matters: scan for
    /// `static` declarations and `thread_local!` blocks, skipping every
    /// expression.
    fn fn_body(&mut self, end: usize, module: &[String], out: &mut Vec<Item>) {
        while self.i < end {
            match self.ident(self.i) {
                Some("static") => {
                    self.static_item(end, module, true, Vis::Private, false, out);
                }
                Some("thread_local") if self.punct(self.i + 1) == Some('!') => {
                    self.i += 2;
                    if self.punct(self.i) == Some('{') {
                        let body_end = self.past_balanced('{', '}', end);
                        self.i += 1;
                        self.thread_local_body(
                            body_end.saturating_sub(1),
                            module,
                            true,
                            Vis::Private,
                            out,
                        );
                        self.i = body_end;
                    }
                }
                _ => self.i += 1,
            }
        }
    }
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
        parse(&lex(src).tokens)
    }

    #[test]
    fn statics_with_mutability_and_function_locals() {
        let src = "static A: u64 = 0;\n\
                   static mut B: u64 = 0;\n\
                   fn f() { static C: OnceLock<Arc<[u8]>> = OnceLock::new(); }\n";
        let items = items_of(src);
        let statics: Vec<_> =
            items.iter().filter(|i| matches!(i.kind, ItemKind::Static { .. })).collect();
        assert_eq!(statics.len(), 3);
        assert_eq!(statics[0].name, "A");
        assert!(matches!(statics[1].kind, ItemKind::Static { mutable: true, .. }));
        assert!(statics[2].in_fn);
        assert_eq!(statics[2].line, 3);
        let ItemKind::Static { ty, .. } = &statics[2].kind else {
            panic!("C is a static");
        };
        assert!(ty.mentions("OnceLock"));
        assert_eq!(ty.arcs.len(), 1);
        assert_eq!(ty.arcs[0].head, "[..]");
    }

    #[test]
    fn thread_local_blocks() {
        let items = items_of("thread_local! {\n  static TL: RefCell<u64> = RefCell::new(0);\n}\n");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "TL");
        assert!(matches!(&items[0].kind, ItemKind::ThreadLocal { ty } if ty.mentions("RefCell")));
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
        let items = items_of(src);
        let s = items.iter().find(|i| i.name == "S").expect("struct parsed");
        assert_eq!(s.module, vec!["outer"]);
        assert_eq!(s.vis, Vis::Pub);
        let ItemKind::Struct { fields } = &s.kind else { panic!("S is a struct") };
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0].vis, Vis::Pub);
        assert_eq!(fields[0].ty.arcs, vec![ArcApp { line: 3, head: "Mutex".into() }]);
        assert_eq!(fields[1].vis, Vis::Private);
        assert_eq!(fields[2].vis, Vis::Crate);
        assert!(fields[2].ty.mentions("Cell"));
    }

    #[test]
    fn enums_tuples_and_aliases() {
        let src = "pub enum E { A { inner: Arc<AtomicU64> }, B(RefCell<u8>), C }\n\
                   pub type Alias = Arc<Mutex<Vec<u8>>>;\n\
                   pub struct T(pub Arc<[u8]>, u64);\n";
        let items = items_of(src);
        let e = items.iter().find(|i| i.name == "E").expect("enum parsed");
        let ItemKind::Enum { fields } = &e.kind else { panic!("E is an enum") };
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].name, "A.inner");
        assert_eq!(fields[0].ty.arcs[0].head, "AtomicU64");
        assert_eq!(fields[1].name, "B.0");
        let alias = items.iter().find(|i| i.name == "Alias").expect("alias parsed");
        assert!(matches!(&alias.kind, ItemKind::TypeAlias { ty } if ty.arcs[0].head == "Mutex"));
        let t = items.iter().find(|i| i.name == "T").expect("tuple struct parsed");
        let ItemKind::Struct { fields } = &t.kind else { panic!("T is a struct") };
        assert_eq!(fields[0].ty.arcs[0].head, "[..]");
        assert_eq!(fields[0].vis, Vis::Pub);
    }

    #[test]
    fn fn_return_types_and_impl_bodies() {
        let src = "impl Foo {\n\
                     pub fn cell(&self) -> &RefCell<u64> { &self.c }\n\
                     fn plain(&self) -> u64 { 0 }\n\
                   }\n";
        let items = items_of(src);
        let cell = items.iter().find(|i| i.name == "cell").expect("method parsed");
        assert_eq!(cell.vis, Vis::Pub);
        assert!(
            matches!(&cell.kind, ItemKind::Fn { ret: Some(ty) } if ty.mentions("RefCell")),
            "{cell:?}"
        );
    }

    #[test]
    fn generic_commas_do_not_split_fields() {
        let src = "struct M { map: BTreeMap<Pid, Entry>, next: u64 }\n";
        let items = items_of(src);
        let ItemKind::Struct { fields } = &items[0].kind else { panic!() };
        assert_eq!(fields.len(), 2, "{fields:?}");
        assert!(fields[0].ty.mentions("Entry"));
        assert_eq!(fields[1].name, "next");
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
        for src in ["struct", "static X:", "match {", "pub pub pub", "fn f( {", "enum E { A("] {
            let _ = parse(&lex(src).tokens); // must not panic
        }
    }
}
