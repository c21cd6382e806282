//! The symbol graph behind the sharing rules (S1–S4).
//!
//! §5.1 makes the bus the only channel between clusters, and the
//! simulator keeps every cluster's state inside its `World`, so two
//! `World`s (two test threads, two systems in one host process) never
//! share mutable state. This module checks that claim. From the per-file
//! item lists produced by [`crate::parse`] it builds a workspace-wide
//! symbol graph: which named types transitively hold interior mutability
//! (the *taint* fixpoint). The S-rules in [`crate::rules::RULES`] read
//! their hits off this graph: statics and thread-locals, `pub` items that
//! expose a tainted type across a crate boundary, and `Arc`s whose
//! payload is tainted.

use std::collections::BTreeMap;

use crate::lexer::{Tok, Token};
use crate::parse::{ArcApp, Item, ItemKind, TypeExpr, Vis, WildcardMatch};

/// Interior-mutability primitives: a value of (or containing) one of
/// these can be mutated through a shared reference, which is exactly the
/// channel that would let two clusters interact off the bus. Any
/// `Atomic*`-prefixed name counts too.
pub const INTERIOR_MUT: &[&str] = &[
    "Cell",
    "RefCell",
    "UnsafeCell",
    "OnceCell",
    "LazyCell",
    "OnceLock",
    "LazyLock",
    "Lazy",
    "Mutex",
    "RwLock",
];

/// Enums whose matches must stay exhaustive (rule S4): a wildcard arm
/// would let a new fault or trace variant silently fall through the very
/// machinery that exists to account for every case.
pub const PROTECTED_ENUMS: &[&str] = &["TraceKind", "FaultEvent", "PlanKind"];

/// `true` if `name` is an interior-mutability primitive.
pub fn is_interior_mut(name: &str) -> bool {
    INTERIOR_MUT.contains(&name) || name.starts_with("Atomic")
}

/// One file's contribution to the symbol graph.
#[derive(Debug, Default)]
pub struct FileSymbols {
    /// Path label used in diagnostics.
    pub file: String,
    /// Parsed items, already filtered to non-`#[cfg(test)]` lines.
    pub items: Vec<Item>,
    /// Wildcard matches over protected enums (rule S4 candidates).
    pub matches: Vec<WildcardMatch>,
    /// Expression-level `Arc::new(Head::new(..))` constructions — type
    /// positions inside function bodies are not parsed as items, so the
    /// common construction site is caught at the expression level.
    pub arc_exprs: Vec<ArcApp>,
}

/// The workspace symbol graph: the taint closure.
#[derive(Debug, Default)]
pub struct SymbolGraph {
    /// Tainted type names → the interior-mut primitive rooting the taint.
    pub tainted: BTreeMap<String, String>,
}

impl SymbolGraph {
    /// The interior-mut root of `name`, if the type is tainted.
    pub fn taint_root<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        if is_interior_mut(name) {
            Some(name)
        } else {
            self.tainted.get(name).map(String::as_str)
        }
    }

    /// The first tainted identifier a type expression mentions, with its
    /// interior-mut root: `Some((ident, root))`.
    pub fn type_taint<'g>(&'g self, ty: &'g TypeExpr) -> Option<(&'g str, &'g str)> {
        ty.idents.iter().find_map(|id| self.taint_root(id).map(|root| (id.as_str(), root)))
    }
}

/// Builds the symbol graph over every deterministic file's symbols: runs
/// the taint fixpoint.
pub fn build<'a>(files: impl IntoIterator<Item = &'a FileSymbols>) -> SymbolGraph {
    let files: Vec<&FileSymbols> = files.into_iter().collect();
    let mut graph = SymbolGraph::default();

    // Taint fixpoint: a named type is tainted if any type expression in
    // its definition mentions an interior-mut primitive or a name already
    // tainted. Names are matched bare (last path segment) across the
    // whole deterministic set — conservative, and exactly right for a
    // boundary check: a false share is a waiver away, a missed share is
    // a race.
    loop {
        let mut changed = false;
        for fs in &files {
            for item in &fs.items {
                if graph.tainted.contains_key(&item.name) {
                    continue;
                }
                let root = match &item.kind {
                    ItemKind::Struct { fields } | ItemKind::Enum { fields } => {
                        fields.iter().find_map(|f| graph.type_taint(&f.ty).map(|(_, r)| r))
                    }
                    ItemKind::TypeAlias { ty } => graph.type_taint(ty).map(|(_, r)| r),
                    _ => None,
                };
                if let Some(root) = root {
                    let root = root.to_string();
                    graph.tainted.insert(item.name.clone(), root);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    graph
}

/// Every type expression an item declares (fields, alias target, static
/// type, return type) — the positions S3 scans for `Arc` payloads.
fn item_types(item: &Item) -> Vec<&TypeExpr> {
    match &item.kind {
        ItemKind::Static { ty, .. }
        | ItemKind::ThreadLocal { ty }
        | ItemKind::Const { ty }
        | ItemKind::TypeAlias { ty } => vec![ty],
        ItemKind::Struct { fields } | ItemKind::Enum { fields } => {
            fields.iter().map(|f| &f.ty).collect()
        }
        ItemKind::Fn { ret } => ret.iter().collect(),
    }
}

/// The `(name, line, type)` positions of an item that plain-`pub`
/// visibility pushes across the crate boundary (rule S2): pub fields of a
/// pub struct, all variant fields of a pub enum, a pub alias's target, a
/// pub fn's return type. Statics are S1's business and consts copy per
/// use, so neither appears here.
fn exposures(item: &Item) -> Vec<(String, u32, &TypeExpr)> {
    if item.vis != Vis::Pub || item.in_fn {
        return Vec::new();
    }
    match &item.kind {
        ItemKind::Struct { fields } => fields
            .iter()
            .filter(|f| f.vis == Vis::Pub)
            .map(|f| (format!("{}.{}", item.name, f.name), f.line, &f.ty))
            .collect(),
        ItemKind::Enum { fields } => {
            fields.iter().map(|f| (format!("{}::{}", item.name, f.name), f.line, &f.ty)).collect()
        }
        ItemKind::TypeAlias { ty } => vec![(item.name.clone(), item.line, ty)],
        ItemKind::Fn { ret: Some(ty) } => vec![(item.name.clone(), item.line, ty)],
        _ => Vec::new(),
    }
}

/// Scans a token stream for `Arc::new(Head::..)` constructions, the
/// expression-level complement of the type-position `Arc<..>` scan.
pub fn arc_new_exprs(tokens: &[Token]) -> Vec<ArcApp> {
    let mut found = Vec::new();
    let ident = |i: usize| match tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct = |i: usize, c: char| tokens.get(i).is_some_and(|t| t.tok == Tok::Punct(c));
    for i in 0..tokens.len() {
        if ident(i) != Some("Arc") || !punct(i + 1, ':') || !punct(i + 2, ':') {
            continue;
        }
        // Allow a turbofish between `Arc::` and `new`.
        let mut j = i + 3;
        if punct(j, '<') {
            let mut depth = 0usize;
            while j < tokens.len() {
                if punct(j, '<') {
                    depth += 1;
                } else if punct(j, '>') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
            if !punct(j, ':') || !punct(j + 1, ':') {
                continue;
            }
            j += 2;
        }
        if ident(j) != Some("new") || !punct(j + 1, '(') {
            continue;
        }
        // The argument's head: `Arc::new(Mutex::new(0))` → `Mutex`.
        if let Some(head) = ident(j + 2) {
            if punct(j + 3, ':') && punct(j + 4, ':') {
                found.push(ArcApp { line: tokens[i].line, head: head.to_string() });
            }
        }
    }
    found
}

/// Generates the S-rule hits for one file against the workspace graph.
/// Only called for deterministic-class files.
pub fn s_hits(fs: &FileSymbols, graph: &SymbolGraph) -> Vec<(u32, &'static str, String)> {
    let mut hits = Vec::new();

    for item in &fs.items {
        // S1: mutable global state.
        match &item.kind {
            ItemKind::Static { mutable: true, .. } => {
                hits.push((
                    item.line,
                    "S1",
                    format!(
                        "`static mut {}` is writable global state; clusters may only interact through the bus",
                        item.name
                    ),
                ));
            }
            ItemKind::Static { mutable: false, ty } => {
                if let Some((id, root)) = graph.type_taint(ty) {
                    hits.push((
                        item.line,
                        "S1",
                        format!(
                            "static `{}` holds interior mutability (`{id}` via `{root}`); writable global state escapes the bus-only sharing boundary",
                            item.name
                        ),
                    ));
                }
            }
            ItemKind::ThreadLocal { .. } => {
                hits.push((
                    item.line,
                    "S1",
                    format!(
                        "thread-local static `{}` pins state to an OS thread; cluster state must live in the World so any worker can own it",
                        item.name
                    ),
                ));
            }
            _ => {}
        }

        // S2: interior mutability exposed through a plain-`pub` item.
        for (name, line, ty) in exposures(item) {
            if let Some((id, root)) = graph.type_taint(ty) {
                hits.push((
                    line,
                    "S2",
                    format!(
                        "pub {} `{name}` exposes interior mutability (`{id}` via `{root}`) across the crate boundary",
                        item.kind.name()
                    ),
                ));
            }
        }

        // S3: Arc of a non-Freeze payload in type positions.
        for ty in item_types(item) {
            for arc in &ty.arcs {
                if let Some(root) = graph.taint_root(&arc.head) {
                    hits.push((
                        arc.line,
                        "S3",
                        format!(
                            "`Arc<{}>` shares a mutable payload (`{root}`); Arc payloads must be frozen (`Arc<[u8]>`-style)",
                            arc.head
                        ),
                    ));
                }
            }
        }
    }

    // S3, expression form.
    for arc in &fs.arc_exprs {
        if let Some(root) = graph.taint_root(&arc.head) {
            hits.push((
                arc.line,
                "S3",
                format!(
                    "`Arc::new({}::..)` shares a mutable payload (`{root}`); Arc payloads must be frozen (`Arc<[u8]>`-style)",
                    arc.head
                ),
            ));
        }
    }

    // S4: wildcard arms over protected enums.
    for m in &fs.matches {
        hits.push((
            m.wildcard_line,
            "S4",
            format!(
                "`_` arm in a match over `{}` (match at line {}); enumerate the variants so new ones cannot silently fall through",
                m.enum_name, m.line
            ),
        ));
    }

    // One construct can hit one rule only once per line.
    hits.sort();
    hits.dedup();
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;

    fn symbols(file: &str, src: &str) -> FileSymbols {
        let toks = lex(src).tokens;
        FileSymbols {
            file: file.to_string(),
            items: parse(&toks),
            matches: crate::parse::wildcard_protected_matches(&toks, PROTECTED_ENUMS),
            arc_exprs: arc_new_exprs(&toks),
        }
    }

    #[test]
    fn taint_propagates_across_files() {
        let a = symbols("crates/bus/src/a.rs", "pub struct Inner { c: Cell<u64> }\n");
        let b = symbols(
            "crates/kernel/src/b.rs",
            "pub struct Outer { pub i: Inner }\npub type T = Outer;\n",
        );
        let g = build(&[a, b]);
        assert_eq!(g.tainted.get("Inner").map(String::as_str), Some("Cell"));
        assert_eq!(g.tainted.get("Outer").map(String::as_str), Some("Cell"));
        assert_eq!(g.tainted.get("T").map(String::as_str), Some("Cell"));
    }

    #[test]
    fn arc_new_expression_scan() {
        let toks = lex("let a = Arc::new(Mutex::new(0)); let b = Arc::<[u8]>::new(x); let c = Arc::new(bytes);").tokens;
        let arcs = arc_new_exprs(&toks);
        assert_eq!(arcs.len(), 1, "{arcs:?}");
        assert_eq!(arcs[0].head, "Mutex");
    }

    #[test]
    fn s_hits_cover_all_four_rules() {
        let fs = symbols(
            "crates/kernel/src/x.rs",
            "static mut GLOBAL: u64 = 0;\n\
             thread_local! { static TL: u64 = 0; }\n\
             pub struct P { pub c: RefCell<u64> }\n\
             struct D { q: Arc<AtomicU64> }\n\
             fn f(k: TraceKind) -> u32 { match k { TraceKind::A => 1, _ => 0 } }\n",
        );
        let g = build(std::slice::from_ref(&fs));
        let hits = s_hits(&fs, &g);
        let rules: Vec<&str> = hits.iter().map(|h| h.1).collect();
        assert!(rules.contains(&"S1"), "{hits:?}");
        assert!(rules.contains(&"S2"), "{hits:?}");
        assert!(rules.contains(&"S3"), "{hits:?}");
        assert!(rules.contains(&"S4"), "{hits:?}");
    }

    #[test]
    fn frozen_arcs_and_private_cells_are_legal() {
        let fs = symbols(
            "crates/bus/src/y.rs",
            "pub struct SharedBytes { buf: Arc<[u8]> }\n\
             pub struct Img { img: Arc<dyn ProcessImage> }\n\
             struct Hidden { c: Cell<u64> }\n\
             pub fn len(b: &SharedBytes) -> usize { b.buf.len() }\n",
        );
        let g = build(std::slice::from_ref(&fs));
        let hits = s_hits(&fs, &g);
        // `Hidden` is tainted but private and unexposed; SharedBytes's
        // Arc payload is frozen. Nothing fires. But a pub fn *returning*
        // SharedBytes stays legal too: the struct is not tainted.
        assert!(hits.is_empty(), "{hits:?}");
        assert_eq!(g.tainted.get("Hidden").map(String::as_str), Some("Cell"));
        assert!(!g.tainted.contains_key("SharedBytes"));
    }
}
