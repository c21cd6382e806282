//! Workspace discovery: which `.rs` files exist and how each is classed.

use std::path::{Path, PathBuf};

use crate::rules::CrateClass;

/// Crate directory names (under `crates/`) whose `src/` trees must be
/// deterministic. Everything else — benchmarks, tests, examples, vendored
/// stubs, and this tool — is host-side.
pub const DET_CRATES: &[&str] = &["sim", "bus", "vm", "kernel", "pager", "fs", "core", "baseline"];

/// Directory names never descended into. `fixtures` holds this tool's own
/// deliberately-violating test inputs.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Classifies a workspace-relative path.
///
/// Deterministic: `crates/<det-crate>/src/**`. Host: everything else,
/// including the det crates' own `tests/` directories and `#[cfg(test)]`
/// modules (the latter handled by the rule engine, not the path).
pub fn classify(rel: &Path) -> CrateClass {
    let comps: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    match comps.as_slice() {
        ["crates", name, "src", ..] if DET_CRATES.contains(name) => CrateClass::Deterministic,
        _ => CrateClass::Host,
    }
}

/// Recursively collects every `.rs` file under `root`, sorted for
/// deterministic reporting, skipping `SKIP_DIRS`.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Walks up from `start` to find the workspace root: the nearest ancestor
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_src_trees_are_deterministic() {
        assert_eq!(classify(Path::new("crates/kernel/src/crash.rs")), CrateClass::Deterministic);
        assert_eq!(classify(Path::new("crates/core/src/chaos.rs")), CrateClass::Deterministic);
    }

    #[test]
    fn everything_else_is_host() {
        for p in [
            "crates/bench/src/lib.rs",
            "crates/lint/src/main.rs",
            "crates/kernel/tests/world_direct.rs",
            "tests/chaos.rs",
            "examples/quickstart.rs",
            "vendor/rand/src/lib.rs",
        ] {
            assert_eq!(classify(Path::new(p)), CrateClass::Host, "{p}");
        }
    }
}
