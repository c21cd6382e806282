#![forbid(unsafe_code)]

//! Command-line driver for `auros-lint`.
//!
//! ```text
//! auros-lint [--deny] [--root DIR] [--class det|host] [--waivers]
//!            [--explain RULE] [--list-rules] [FILES...]
//! ```
//!
//! With no `FILES`, lints the whole workspace (found from `--root` or by
//! walking up from the current directory). With `FILES`, lints just those
//! files, classifying each by `--class` (default: `det`, the strict set —
//! fixtures and editor integrations want the rules on).
//!
//! Exit status: nonzero under `--deny` if any diagnostic was produced;
//! always zero otherwise (advisory mode).

use std::path::PathBuf;
use std::process::ExitCode;

use auros_lint::{analyze_source, finish_workspace, lint_workspace, rules, CrateClass};

/// `println!` that tolerates a closed stdout (`auros-lint ... | head`):
/// dropping the tail of a listing is fine, panicking mid-report is not.
/// Exit codes still reflect the full diagnostic set.
macro_rules! out {
    ($($t:tt)*) => {{
        use std::io::Write;
        let _ = writeln!(std::io::stdout(), $($t)*);
    }};
}

struct Args {
    deny: bool,
    waivers: bool,
    root: Option<PathBuf>,
    class: CrateClass,
    explain: Option<String>,
    list_rules: bool,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deny: false,
        waivers: false,
        root: None,
        class: CrateClass::Deterministic,
        explain: None,
        list_rules: false,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => args.deny = true,
            "--waivers" => args.waivers = true,
            "--list-rules" => args.list_rules = true,
            "--root" => args.root = Some(PathBuf::from(it.next().ok_or("--root needs a path")?)),
            "--class" => {
                args.class = match it.next().as_deref() {
                    Some("det") => CrateClass::Deterministic,
                    Some("host") => CrateClass::Host,
                    other => return Err(format!("--class must be det|host, got {other:?}")),
                }
            }
            "--explain" => args.explain = Some(it.next().ok_or("--explain needs a rule id")?),
            "--help" | "-h" => {
                out!("{}", USAGE);
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => args.files.push(PathBuf::from(other)),
        }
    }
    Ok(args)
}

const USAGE: &str = "auros-lint: determinism-invariant static analyzer

USAGE: auros-lint [--deny] [--root DIR] [--class det|host] [--waivers]
                  [--explain RULE] [--list-rules] [FILES...]

  --deny             exit nonzero if any violation is found
  --root DIR         workspace root (default: search upward from cwd)
  --class C          class for explicitly listed FILES (det|host, default det)
  --waivers          list every waived site with its recorded reason
  --explain R        print the invariant behind rule R and its paper citation
  --list-rules       one-line summary of every rule";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("auros-lint: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for r in rules::RULES {
            out!("{}: {}", r.id, r.title);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(id) = &args.explain {
        return match rules::rule_info(id) {
            Some(r) => {
                out!("{}", r.explain);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("auros-lint: unknown rule `{id}` (try --list-rules)");
                ExitCode::from(2)
            }
        };
    }

    let report = if args.files.is_empty() {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let root = args.root.clone().or_else(|| auros_lint::walk::find_workspace_root(&cwd));
        let Some(root) = root else {
            eprintln!("auros-lint: no workspace root found (pass --root)");
            return ExitCode::from(2);
        };
        match lint_workspace(&root) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("auros-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let mut analyses = Vec::new();
        for path in &args.files {
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("auros-lint: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            let label = path.to_string_lossy().replace('\\', "/");
            analyses.push(analyze_source(&label, args.class, &src));
        }
        finish_workspace(analyses)
    };

    for d in &report.diagnostics {
        out!("{d}");
    }
    if args.waivers {
        for w in &report.waived {
            out!("{}:{}: waived {}: {}", w.file, w.line, w.rule, w.reason);
        }
    }

    // Waiver census per rule, always shown: waivers are visible debt.
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for w in &report.waived {
        match counts.iter_mut().find(|(r, _)| *r == w.rule) {
            Some((_, n)) => *n += 1,
            None => counts.push((w.rule, 1)),
        }
    }
    counts.sort();
    let census = if counts.is_empty() {
        "no waivers".to_string()
    } else {
        counts.iter().map(|(r, n)| format!("{r}×{n}")).collect::<Vec<_>>().join(", ")
    };
    out!(
        "auros-lint: {} files ({} deterministic), {} violation(s), waived: {census}",
        report.files,
        report.det_files,
        report.diagnostics.len()
    );

    if args.deny && !report.diagnostics.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
