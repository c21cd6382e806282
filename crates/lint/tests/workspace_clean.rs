//! Tier-1 integration test: the real workspace is lint-clean, and the
//! CLI's exit codes behave as CI relies on them to.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().expect("workspace root exists")
}

#[test]
fn real_workspace_is_lint_clean() {
    let report = auros_lint::lint_workspace(&workspace_root()).expect("walk workspace");
    assert!(report.det_files > 30, "walker should find the sim crates, saw {}", report.det_files);
    assert!(
        report.diagnostics.is_empty(),
        "workspace has determinism violations:\n{}",
        report.diagnostics.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
    // The waivers that do exist all carry reasons (the parser enforces
    // this, but assert it where CI can see the contract).
    assert!(report.waived.iter().all(|w| !w.reason.trim().is_empty()));
}

fn run_cli(args: &[&str], cwd: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_auros-lint"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("run auros-lint")
}

#[test]
fn cli_deny_exits_zero_on_workspace() {
    let root = workspace_root();
    let out = run_cli(&["--deny"], &root);
    assert!(
        out.status.success(),
        "--deny on the workspace must pass:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Every rule but the waiver checks (W0/W1, exercised by `waiver/`) has
/// a fixture directory named after it, and its violation fixture fails
/// `--deny` with that rule. The list comes from `RULES`, so a new rule
/// without a violation fixture fails here.
#[test]
fn cli_deny_exits_nonzero_on_each_violation_fixture() {
    let root = workspace_root();
    let fixtures = root.join("crates/lint/tests/fixtures");
    for rule in auros_lint::RULES.iter().filter(|r| !r.id.starts_with('W')) {
        let dir = fixtures.join(rule.id.to_lowercase());
        // D5 keys on the file name, so its fixtures sit in subdirectories.
        let path = [dir.join("violation.rs"), dir.join("violation/crash.rs")]
            .into_iter()
            .find(|p| p.is_file())
            .unwrap_or_else(|| panic!("{}: no violation fixture under {}", rule.id, dir.display()));
        let out = run_cli(&["--deny", "--class", "det", path.to_str().expect("utf8 path")], &root);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!out.status.success(), "{} must fail under --deny", path.display());
        assert!(
            stdout.contains(&format!(": {}: ", rule.id)),
            "{} not reported:\n{stdout}",
            rule.id
        );
    }
}

#[test]
fn cli_explain_documents_every_rule() {
    let root = workspace_root();
    for rule in auros_lint::RULES {
        let out = run_cli(&["--explain", rule.id], &root);
        assert!(out.status.success(), "--explain {} failed", rule.id);
        assert!(!out.stdout.is_empty());
    }
    // S2 and S3 were deleted.
    for id in ["D99", "S2", "S3"] {
        let out = run_cli(&["--explain", id], &root);
        assert!(!out.status.success(), "unknown rule {id} must be an error");
    }
}
