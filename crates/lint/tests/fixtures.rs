//! Fixture-based self-test: every rule × {violation, clean, waived}.
//!
//! Fixtures live under `tests/fixtures/` (a directory name the workspace
//! walker deliberately skips, so the real-workspace scan never sees these
//! intentionally bad files). Each violation fixture must produce at least
//! one diagnostic of its rule and nothing else; each clean fixture must
//! be silent; each waived fixture must be silent *and* register waived
//! sites, every one carrying a reason.

use std::path::{Path, PathBuf};

use auros_lint::{lint_source, CrateClass, FileReport};

fn fixture(rel: &str) -> (String, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(rel);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    // The basename drives D5's fault-path check, so lint under it.
    let label = Path::new(rel).file_name().map(|n| n.to_string_lossy().into_owned());
    (label.unwrap_or_else(|| rel.to_string()), src)
}

fn lint_fixture(rel: &str, class: CrateClass) -> FileReport {
    let (label, src) = fixture(rel);
    lint_source(&label, class, &src)
}

fn assert_violates(rel: &str, rule: &str, at_least: usize) {
    let r = lint_fixture(rel, CrateClass::Deterministic);
    let hits = r.diagnostics.iter().filter(|d| d.rule == rule).count();
    assert!(hits >= at_least, "{rel}: wanted ≥{at_least} {rule}, got {:?}", r.diagnostics);
    assert!(
        r.diagnostics.iter().all(|d| d.rule == rule),
        "{rel}: unexpected extra rules: {:?}",
        r.diagnostics
    );
}

fn assert_clean(rel: &str) {
    let r = lint_fixture(rel, CrateClass::Deterministic);
    assert!(r.diagnostics.is_empty(), "{rel}: expected clean, got {:?}", r.diagnostics);
}

fn assert_waived(rel: &str, rule: &str, at_least: usize) {
    let r = lint_fixture(rel, CrateClass::Deterministic);
    assert!(r.diagnostics.is_empty(), "{rel}: expected all waived, got {:?}", r.diagnostics);
    let waived = r.waived.iter().filter(|w| w.rule == rule).count();
    assert!(waived >= at_least, "{rel}: wanted ≥{at_least} waived {rule}, got {:?}", r.waived);
    assert!(
        r.waived.iter().all(|w| !w.reason.trim().is_empty()),
        "{rel}: every waiver must carry a reason: {:?}",
        r.waived
    );
}

#[test]
fn d1_hash_collections() {
    assert_violates("d1/violation.rs", "D1", 2);
    assert_clean("d1/clean.rs");
    assert_waived("d1/waived.rs", "D1", 1);
}

#[test]
fn d2_wall_clock() {
    assert_violates("d2/violation.rs", "D2", 2);
    assert_clean("d2/clean.rs");
    assert_waived("d2/waived.rs", "D2", 1);
}

#[test]
fn d3_threads_and_entropy() {
    assert_violates("d3/violation.rs", "D3", 3);
    assert_clean("d3/clean.rs");
    assert_waived("d3/waived.rs", "D3", 1);
}

#[test]
fn d4_floating_point() {
    assert_violates("d4/violation.rs", "D4", 4);
    assert_clean("d4/clean.rs");
    assert_waived("d4/waived.rs", "D4", 3);
}

#[test]
fn d5_fault_path_unwraps() {
    assert_violates("d5/violation/crash.rs", "D5", 2);
    assert_clean("d5/clean/crash.rs");
    assert_waived("d5/waived/crash.rs", "D5", 1);
}

#[test]
fn d6_untyped_trace_emission() {
    assert_violates("d6/violation.rs", "D6", 3);
    assert_clean("d6/clean.rs");
    assert_waived("d6/waived.rs", "D6", 1);
}

#[test]
fn s1_mutable_global_state() {
    assert_violates("s1/violation.rs", "S1", 8);
    assert_clean("s1/clean.rs");
    assert_waived("s1/waived.rs", "S1", 1);
}

/// The `Arc` shapes of the former rule S3, now part of S1.
#[test]
fn s3_arc_of_non_freeze_payload() {
    assert_violates("s1/arc_violation.rs", "S1", 4);
    assert_clean("s1/arc_clean.rs");
    assert_waived("s1/arc_waived.rs", "S1", 1);
}

#[test]
fn s4_wildcard_over_protected_enum() {
    assert_violates("s4/violation.rs", "S4", 2);
    assert_clean("s4/clean.rs");
    assert_waived("s4/waived.rs", "S4", 1);
}

#[test]
fn w0_malformed_waivers() {
    let r = lint_fixture("waiver/malformed.rs", CrateClass::Deterministic);
    let w0 = r.diagnostics.iter().filter(|d| d.rule == "W0").count();
    assert_eq!(w0, 3, "{:?}", r.diagnostics);
    // Malformed waivers are caught in host files too — documentation bugs
    // are class-independent.
    let host = lint_fixture("waiver/malformed.rs", CrateClass::Host);
    assert_eq!(host.diagnostics.iter().filter(|d| d.rule == "W0").count(), 3);
}

#[test]
fn w1_unused_waiver() {
    let r = lint_fixture("waiver/unused.rs", CrateClass::Deterministic);
    assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
    assert_eq!(r.diagnostics[0].rule, "W1");
}

#[test]
fn host_class_ignores_every_violation_fixture() {
    for rel in [
        "d1/violation.rs",
        "d2/violation.rs",
        "d3/violation.rs",
        "d4/violation.rs",
        "d5/violation/crash.rs",
        "d6/violation.rs",
        "s1/violation.rs",
        "s1/arc_violation.rs",
        "s4/violation.rs",
    ] {
        let r = lint_fixture(rel, CrateClass::Host);
        assert!(r.diagnostics.is_empty(), "{rel} under host class: {:?}", r.diagnostics);
    }
}

#[test]
fn every_rule_has_an_explanation_with_citation() {
    for rule in auros_lint::RULES {
        assert!(!rule.explain.trim().is_empty(), "{} lacks an explanation", rule.id);
        if rule.id.starts_with('D') || rule.id.starts_with('S') {
            assert!(rule.explain.contains('§'), "{} must cite a paper section", rule.id);
        }
    }
}
