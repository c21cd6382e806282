//! Property and pin tests for the parse + symbol-graph layer.
//!
//! The parser must be *total* (any input yields an item list, never a
//! panic) and *span-stable* (item lines track source lines exactly), or
//! the S-rules cannot be trusted on a codebase the
//! parser only approximates. The properties run on fixture-derived
//! inputs: splices of two fixture files cut at arbitrary char
//! boundaries (which subsumes truncation mid-token), and fixtures
//! shifted by leading blank lines. The pin test freezes the symbol
//! graph of a small multi-module fixture: module paths and taint
//! propagation.

use std::path::PathBuf;

use auros_lint::graph::{self, FileSymbols};
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
    /// Lexing, parsing, match scanning, Arc-expression scanning, and the
    /// full per-file lint pipeline never panic on a splice of two
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
        let items = parse::parse(&lexed.tokens);
        let last_line = spliced.lines().count().max(1) as u32;
        for item in &items {
            prop_assert!(
                item.line >= 1 && item.line <= last_line,
                "item {} at line {} outside 1..={last_line}",
                item.name,
                item.line
            );
        }
        // The downstream scans and the whole single-file pipeline must be
        // total too — they share the token stream.
        let _ = parse::wildcard_protected_matches(&lexed.tokens, graph::PROTECTED_ENUMS);
        let _ = graph::arc_new_exprs(&lexed.tokens);
        let _ = lint_source("crates/sim/src/spliced.rs", CrateClass::Deterministic, &spliced);
    }

    /// Prepending `k` blank lines shifts every item and every wildcard
    /// match by exactly `k` and changes nothing else: spans come from the
    /// source, not from parser state.
    #[test]
    fn spans_shift_exactly_with_leading_blank_lines(a in 0usize..1024, k in 1u32..48) {
        let sources = fixture_sources();
        let (_, src) = &sources[a % sources.len()];
        let padded = format!("{}{src}", "\n".repeat(k as usize));

        let base = lexer::lex(src);
        let pad = lexer::lex(&padded);

        let base_items = parse::parse(&base.tokens);
        let pad_items = parse::parse(&pad.tokens);
        prop_assert_eq!(base_items.len(), pad_items.len());
        for (o, p) in base_items.iter().zip(&pad_items) {
            prop_assert_eq!(p.line, o.line + k);
            prop_assert_eq!(&p.name, &o.name);
            prop_assert_eq!(&p.module, &o.module);
            prop_assert_eq!(p.vis, o.vis);
            prop_assert_eq!(p.kind.name(), o.kind.name());
        }

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

/// Freezes the symbol graph of `fixtures/graph/multi.rs`: items with
/// their module paths, and the taint closure.
#[test]
fn symbol_graph_pin_for_multi_module_fixture() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/graph/multi.rs");
    let src = std::fs::read_to_string(&path).expect("graph fixture");
    let lexed = lexer::lex(&src);
    let fs = FileSymbols {
        file: "crates/sim/src/multi.rs".to_string(),
        items: parse::parse(&lexed.tokens),
        matches: parse::wildcard_protected_matches(&lexed.tokens, graph::PROTECTED_ENUMS),
        arc_exprs: graph::arc_new_exprs(&lexed.tokens),
    };

    let got: Vec<(String, &str, &str, u32)> = fs
        .items
        .iter()
        .map(|i| (i.module.join("::"), i.name.as_str(), i.kind.name(), i.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("fabric".to_string(), "Frame", "struct", 7),
            ("fabric".to_string(), "Bytes", "struct", 12),
            ("metrics".to_string(), "Gauge", "struct", 18),
            ("metrics".to_string(), "GaugeRef", "type", 22),
            ("state".to_string(), "HIGH_WATER", "static", 26),
            ("state".to_string(), "LOCAL", "thread_local", 29),
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
