//! Property and pin tests for the item scan + symbol-graph layer.
//!
//! The scan must be *total* (any input yields an item list, never a
//! panic) and *span-stable* (item lines track source lines exactly), or
//! the S-rules cannot be trusted on a codebase the scan only
//! approximates. The properties run on fixture-derived inputs: splices
//! of two fixture files cut at arbitrary char boundaries (which subsumes
//! truncation mid-token), and fixtures shifted by leading blank lines.
//! The pin test freezes the items and the taint closure of a small
//! multi-module fixture.

use std::path::PathBuf;

use auros_lint::graph::{self, FileSymbols};
use auros_lint::parse::ItemKind;
use auros_lint::{lexer, lint_source, parse, CrateClass};
use proptest::prelude::*;

/// Every `.rs` fixture under `tests/fixtures/`, sorted by path.
fn fixture_sources() -> Vec<(String, String)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut out = Vec::new();
    let mut stack = vec![root.clone()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("fixture dir") {
            let path = entry.expect("fixture entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(&root).expect("under root");
                out.push((
                    rel.to_string_lossy().replace('\\', "/"),
                    std::fs::read_to_string(&path).expect("fixture source"),
                ));
            }
        }
    }
    out.sort();
    assert!(out.len() >= 20, "fixture corpus unexpectedly small: {}", out.len());
    out
}

/// Largest char boundary of `s` at or below `i`.
fn floor_boundary(s: &str, mut i: usize) -> usize {
    i = i.min(s.len());
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

proptest! {
    /// Lexing, item scanning, match scanning, and the full per-file lint
    /// pipeline never panic on a splice of two
    /// fixtures cut at arbitrary points, and every reported item line
    /// stays within the source's line range.
    #[test]
    fn parse_is_total_on_spliced_fixtures(
        a in 0usize..1024,
        b in 0usize..1024,
        cut_a in 0usize..4096,
        cut_b in 0usize..4096,
    ) {
        let sources = fixture_sources();
        let (_, sa) = &sources[a % sources.len()];
        let (_, sb) = &sources[b % sources.len()];
        let pre = floor_boundary(sa, cut_a % (sa.len() + 1));
        let suf = floor_boundary(sb, cut_b % (sb.len() + 1));
        let spliced = format!("{}{}", &sa[..pre], &sb[suf..]);

        let lexed = lexer::lex(&spliced);
        let items = parse::items(&lexed.tokens);
        let shared = parse::shared_ptrs(&lexed.tokens);
        let last_line = spliced.lines().count().max(1) as u32;
        for line in items.iter().map(|i| i.line).chain(shared.iter().map(|p| p.line)) {
            prop_assert!(line >= 1 && line <= last_line, "item line {line} outside 1..={last_line}");
        }
        // The downstream scans and the whole single-file pipeline must be
        // total too — they share the token stream.
        let _ = parse::wildcard_protected_matches(&lexed.tokens, graph::PROTECTED_ENUMS);
        let _ = lint_source("crates/sim/src/spliced.rs", CrateClass::Deterministic, &spliced);
    }

    /// Prepending `k` blank lines shifts every item, shared pointer and
    /// wildcard match by exactly `k` and changes nothing else: spans come
    /// from the source, not from scanner state.
    #[test]
    fn spans_shift_exactly_with_leading_blank_lines(a in 0usize..1024, k in 1u32..48) {
        let sources = fixture_sources();
        let (_, src) = &sources[a % sources.len()];
        let padded = format!("{}{src}", "\n".repeat(k as usize));

        let base = lexer::lex(src);
        let pad = lexer::lex(&padded);

        let mut pad_items = parse::items(&pad.tokens);
        pad_items.iter_mut().for_each(|i| i.line -= k);
        prop_assert_eq!(parse::items(&base.tokens), pad_items);
        let mut pad_shared = parse::shared_ptrs(&pad.tokens);
        pad_shared.iter_mut().for_each(|p| p.line -= k);
        prop_assert_eq!(parse::shared_ptrs(&base.tokens), pad_shared);

        let protected = graph::PROTECTED_ENUMS;
        let base_m = parse::wildcard_protected_matches(&base.tokens, protected);
        let pad_m = parse::wildcard_protected_matches(&pad.tokens, protected);
        prop_assert_eq!(base_m.len(), pad_m.len());
        for (o, p) in base_m.iter().zip(&pad_m) {
            prop_assert_eq!(p.line, o.line + k);
            prop_assert_eq!(p.wildcard_line, o.wildcard_line + k);
            prop_assert_eq!(&p.enum_name, &o.enum_name);
        }
    }
}

/// Freezes the symbol graph of `fixtures/graph/multi.rs`: its items and
/// the taint closure.
#[test]
fn symbol_graph_pin_for_multi_module_fixture() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/graph/multi.rs");
    let src = std::fs::read_to_string(&path).expect("graph fixture");
    let lexed = lexer::lex(&src);
    let fs = FileSymbols {
        items: parse::items(&lexed.tokens),
        shared: parse::shared_ptrs(&lexed.tokens),
        matches: parse::wildcard_protected_matches(&lexed.tokens, graph::PROTECTED_ENUMS),
    };

    let got: Vec<(&str, ItemKind, u32)> =
        fs.items.iter().map(|i| (i.name.as_str(), i.kind, i.line)).collect();
    assert_eq!(
        got,
        vec![
            ("Frame", ItemKind::Type, 7),
            ("Bytes", ItemKind::Type, 12),
            ("Gauge", ItemKind::Type, 18),
            ("GaugeRef", ItemKind::Type, 22),
            ("HIGH_WATER", ItemKind::Static { mutable: false }, 26),
            ("LOCAL", ItemKind::ThreadLocal, 29),
        ]
    );

    let g = graph::build([&fs]);

    // Taint: Gauge holds a Cell; the alias inherits it; the byte-buffer
    // types stay frozen.
    let tainted: Vec<(&str, &str)> =
        g.tainted.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    assert_eq!(tainted, vec![("Gauge", "Cell"), ("GaugeRef", "Cell")]);
    assert_eq!(g.taint_root("Frame"), None);
    assert_eq!(g.taint_root("Bytes"), None);
}
