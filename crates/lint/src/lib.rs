#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `auros-lint`: a determinism-invariant static analyzer for this
//! workspace.
//!
//! The paper's roll-forward recovery (§6–§7) is correct only if a backup
//! replaying from its last sync point re-derives the primary's behavior
//! bit for bit. That property is easy to promise in prose and easy to
//! break with one `HashMap` iteration or one wall-clock read, so this
//! crate machine-enforces it: a hand-rolled lexer (no `syn`; the build
//! environment is offline) walks every workspace `.rs` file and applies
//! the rule table in [`rules::RULES`] according to each file's
//! [`rules::CrateClass`].
//!
//! Violations can be suppressed — visibly, with a reason the tool counts
//! and reports — by an inline waiver:
//!
//! ```text
//! // auros-lint: allow(D5) -- invariant: entry inserted two lines above
//! ```
//!
//! Run `cargo run -p auros-lint -- --explain D1` (or any rule id) for the
//! invariant's full rationale and paper citation.

pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod walk;

use std::path::Path;

pub use rules::{
    analyze_source, lint_source, CrateClass, Diagnostic, FileAnalysis, FileReport, RuleInfo,
    WaivedSite, RULES,
};

/// Aggregate result of linting a whole workspace.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Files scanned, total.
    pub files: usize,
    /// Of those, files in sim-deterministic crates.
    pub det_files: usize,
    /// All surviving violations, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// All waived violations with their reasons.
    pub waived: Vec<WaivedSite>,
}

/// Folds per-file analyses into a [`WorkspaceReport`]: runs the
/// cross-file phase ([`rules::finish`]) and aggregates the results.
pub fn finish_workspace(analyses: Vec<FileAnalysis>) -> WorkspaceReport {
    let mut report = WorkspaceReport {
        files: analyses.len(),
        det_files: analyses.iter().filter(|a| a.class == CrateClass::Deterministic).count(),
        ..WorkspaceReport::default()
    };
    for fr in rules::finish(analyses) {
        report.diagnostics.extend(fr.diagnostics);
        report.waived.extend(fr.waived);
    }
    report.diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.waived.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
}

/// Lints every `.rs` file under `root` (a workspace checkout).
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut analyses = Vec::new();
    for path in walk::collect_rs_files(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let label = rel.to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        analyses.push(analyze_source(&label, walk::classify(rel), &src));
    }
    Ok(finish_workspace(analyses))
}
