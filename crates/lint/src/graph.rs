//! The symbol graph behind the sharing rules (S1, S4).
//!
//! §5.1 makes the bus the only channel between clusters, and the
//! simulator keeps every cluster's state inside its `World`, so two
//! `World`s (two test threads, two systems in one host process) never
//! share mutable state. This module checks that claim. From the per-file
//! item lists produced by [`crate::parse`] it builds a workspace-wide
//! symbol graph: which named types transitively hold interior mutability
//! (the *taint* fixpoint, closed over struct fields, enum variant payloads
//! and alias targets). S1 reads its hits off this graph: statics and
//! thread-locals, and any `Arc`, `Rc` or `Weak` in a type position whose
//! payload is tainted.

use std::collections::BTreeMap;

use crate::parse::{Item, ItemKind, SharedPtr, WildcardMatch};

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
    /// Scanned items, already filtered to non-`#[cfg(test)]` lines.
    pub items: Vec<Item>,
    /// Shared pointers in type positions, filtered the same way.
    pub shared: Vec<SharedPtr>,
    /// Wildcard matches over protected enums (rule S4 candidates).
    pub matches: Vec<WildcardMatch>,
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

    /// The first tainted identifier an item's type or body mentions, with
    /// its interior-mut root: `Some((ident, root))`.
    pub fn item_taint<'g>(&'g self, item: &'g Item) -> Option<(&'g str, &'g str)> {
        item.idents.iter().find_map(|id| self.taint_root(id).map(|root| (id.as_str(), root)))
    }
}

/// Builds the symbol graph over every deterministic file's symbols: runs
/// the taint fixpoint.
pub fn build<'a>(files: impl IntoIterator<Item = &'a FileSymbols>) -> SymbolGraph {
    let types: Vec<&Item> = files
        .into_iter()
        .flat_map(|fs| &fs.items)
        .filter(|item| item.kind == ItemKind::Type)
        .collect();
    let mut graph = SymbolGraph::default();

    // Taint fixpoint: a type definition is tainted if its generics or body
    // mention an interior-mut primitive or a name already tainted. Names
    // are matched bare (last path segment) across the whole deterministic
    // set — conservative, and exactly right for a boundary check: a false
    // share is a waiver away, a missed share is a race.
    loop {
        let mut changed = false;
        for item in &types {
            if graph.tainted.contains_key(&item.name) {
                continue;
            }
            if let Some((_, root)) = graph.item_taint(item) {
                let root = root.to_string();
                graph.tainted.insert(item.name.clone(), root);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    graph
}

/// Generates the S-rule hits for one file against the workspace graph.
/// Only called for deterministic-class files.
pub fn s_hits(fs: &FileSymbols, graph: &SymbolGraph) -> Vec<(u32, &'static str, String)> {
    let mut hits = Vec::new();

    // S1: shared mutable state — writable globals, and shared pointers
    // to a mutable payload.
    for item in &fs.items {
        let name = &item.name;
        let global = match item.kind {
            ItemKind::Static { mutable: true } => Some(format!(
                "`static mut {name}` is writable global state; clusters may only interact through the bus"
            )),
            ItemKind::Static { mutable: false } => graph.item_taint(item).map(|(id, root)| format!(
                "static `{name}` holds interior mutability (`{id}` via `{root}`); writable global state escapes the bus-only sharing boundary"
            )),
            ItemKind::ThreadLocal => Some(format!(
                "thread-local static `{name}` pins state to an OS thread; cluster state must live in the World so any worker can own it"
            )),
            ItemKind::Type => None,
        };
        hits.extend(global.map(|message| (item.line, "S1", message)));
    }
    for p in &fs.shared {
        if let Some(root) = graph.taint_root(&p.head) {
            hits.push((
                p.line,
                "S1",
                format!(
                    "`{}<{}>` shares a mutable payload (`{root}`); only frozen data (`Arc<[u8]>`-style) may be shared",
                    p.ptr, p.head
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
    hits.dedup_by(|a, b| (a.0, a.1) == (b.0, b.1));
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::{items, shared_ptrs, wildcard_protected_matches};

    fn symbols(src: &str) -> FileSymbols {
        let toks = lex(src).tokens;
        FileSymbols {
            items: items(&toks),
            shared: shared_ptrs(&toks),
            matches: wildcard_protected_matches(&toks, PROTECTED_ENUMS),
        }
    }

    #[test]
    fn taint_propagates_across_files() {
        let a = symbols("pub struct Inner { c: Cell<u64> }\n");
        let b = symbols("pub struct Outer { pub i: Inner }\npub type T = Outer;\n");
        let g = build(&[a, b]);
        assert_eq!(g.tainted.get("Inner").map(String::as_str), Some("Cell"));
        assert_eq!(g.tainted.get("Outer").map(String::as_str), Some("Cell"));
        assert_eq!(g.tainted.get("T").map(String::as_str), Some("Cell"));
    }

    #[test]
    fn s_hits_cover_both_rules() {
        let fs = symbols(
            "static mut GLOBAL: u64 = 0;\n\
             thread_local! { static TL: u64 = 0; }\n\
             struct Log { entries: RefCell<Vec<u64>> }\n\
             struct D { q: Rc<Log> }\n\
             fn f(k: TraceKind) -> u32 { match k { TraceKind::A => 1, _ => 0 } }\n\
             fn g(d: &D) -> Weak<Log> { Rc::downgrade(&d.q) }\n",
        );
        let g = build(std::slice::from_ref(&fs));
        let hits: Vec<(u32, &str)> = s_hits(&fs, &g).iter().map(|h| (h.0, h.1)).collect();
        assert_eq!(hits, [(1, "S1"), (2, "S1"), (4, "S1"), (5, "S4"), (6, "S1")]);
    }

    #[test]
    fn frozen_arcs_and_private_cells_are_legal() {
        let fs = symbols(
            "pub struct SharedBytes { buf: Arc<[u8]> }\n\
             pub struct Img { img: Arc<dyn ProcessImage>, text: Rc<str> }\n\
             struct Hidden { c: Cell<u64> }\n\
             pub fn len(b: &SharedBytes) -> usize { b.buf.len() }\n",
        );
        let g = build(std::slice::from_ref(&fs));
        let hits = s_hits(&fs, &g);
        // `Hidden` is tainted, but nothing shares it; the shared payloads
        // are frozen. Nothing fires.
        assert!(hits.is_empty(), "{hits:?}");
        assert_eq!(g.tainted.get("Hidden").map(String::as_str), Some("Cell"));
        assert!(!g.tainted.contains_key("SharedBytes"));
    }
}
