//! The determinism rule table and the engine that applies it.
//!
//! Rules are keyed by crate class: the eight simulation crates must stay
//! bit-for-bit replayable (the paper's roll-forward recovery, §6–§7, is
//! only correct if backup re-execution is deterministic), while host-side
//! code (benchmarks, tests, examples, vendored stubs, this tool) may use
//! wall clocks, floats, and hash maps freely.

use crate::graph::{self, FileSymbols};
use crate::lexer::{self, Tok, Token, Waiver};
use crate::parse;

/// How a file participates in the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrateClass {
    /// Inside a sim-deterministic crate's `src/`: all rules apply.
    Deterministic,
    /// Benchmarks, tests, examples, vendored stubs, tooling: no
    /// determinism rules (waiver syntax is still validated).
    Host,
}

/// One diagnostic: `file:line: rule: message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path as reported (workspace-relative when walking a workspace).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`D1`..`D6`, `S1`, `S4`, `W0`, `W1`).
    pub rule: &'static str,
    /// Human-readable explanation of the hit.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// A violation that was suppressed by an inline waiver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaivedSite {
    /// Path as reported.
    pub file: String,
    /// Line of the waived violation.
    pub line: u32,
    /// Rule that was waived.
    pub rule: &'static str,
    /// The reason recorded in the waiver comment.
    pub reason: String,
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations that survived waiver application.
    pub diagnostics: Vec<Diagnostic>,
    /// Violations suppressed by a waiver, with the recorded reason.
    pub waived: Vec<WaivedSite>,
}

/// Static description of one rule, used by `--explain` and the docs.
pub struct RuleInfo {
    /// Stable id, e.g. `D1`.
    pub id: &'static str,
    /// One-line summary.
    pub title: &'static str,
    /// Full explanation with the paper-section citation.
    pub explain: &'static str,
}

/// The rule table. Order is the reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        title: "no HashMap/HashSet in sim-deterministic crates",
        explain: "D1 — no `HashMap`/`HashSet` in sim-deterministic crates.\n\
\n\
Hash maps iterate in an order derived from a per-process random hasher\n\
seed, so any scan over one (crash handling walks every routing entry,\n\
sync walks every owned end) produces a different event order on every\n\
run. Roll-forward recovery (paper §6, §7.5.1: messages are sequence-\n\
numbered so `which` can be replicated by the backup) requires the backup\n\
to re-derive the primary's exact behavior, so all keyed state uses\n\
`BTreeMap`/`BTreeSet`, whose iteration order is a pure function of the\n\
keys. See DESIGN.md §5 and the note at crates/kernel/src/routing.rs.",
    },
    RuleInfo {
        id: "D2",
        title: "no wall-clock time in sim-deterministic crates",
        explain: "D2 — no wall-clock time (`Instant`, `SystemTime`, `std::time::*`\n\
beyond `Duration`) in sim-deterministic crates.\n\
\n\
The simulation has exactly one clock: virtual time (`auros_sim::VTime`),\n\
advanced by the event queue. The paper's recovery protocol (§6) replays\n\
a backup from its last sync point; anything the primary derived from a\n\
wall clock would differ on replay and the backup would diverge — the\n\
exact failure mode §5.4's duplicate-send suppression exists to prevent.\n\
`Duration` is permitted as an inert value type.",
    },
    RuleInfo {
        id: "D3",
        title: "no threads, OS channels, or unseeded randomness",
        explain: "D3 — no `std::thread`, OS channels (`mpsc`), or unseeded randomness\n\
(`thread_rng`, `from_entropy`, `OsRng`) in sim-deterministic crates.\n\
\n\
Preemption points and entropy are the two classic sources of replay\n\
divergence in the message-logging literature (PAPERS.md: recovery is\n\
correct iff re-execution from the last checkpoint is deterministic).\n\
All concurrency in this workspace is simulated by the event queue\n\
(paper §5.1: the bus serializes message delivery), and all randomness\n\
flows from the seeded, splittable `auros_sim::DetRng`.",
    },
    RuleInfo {
        id: "D4",
        title: "no floating point in virtual-time or byte accounting",
        explain: "D4 — no `f32`/`f64` (or float literals) in sim-deterministic crates.\n\
\n\
Virtual time, fuel, queue depths, and byte accounting are integers so\n\
that every comparison and sum is exact and associative. Floats would\n\
make sync-trigger decisions (§7.8: sync after N reads or T ticks)\n\
depend on rounding mode and evaluation order, which is exactly the\n\
class of hidden nondeterminism the replay tests exist to rule out.\n\
Reporting-only ratios computed from final integer outputs may be\n\
waived with a reason.",
    },
    RuleInfo {
        id: "D5",
        title: "no unwrap/expect or map index on fault-handling paths",
        explain: "D5 — no `.unwrap()`/`.expect()` and no map index by reference\n\
(`m[&k]`, `f()[&k]`, `v[i][&k]`) on fault-handling paths (crash.rs,\n\
sync.rs, routing.rs, server.rs, process.rs, checkpoint.rs,\n\
supervise.rs, world.rs, syscall.rs) without an inline waiver stating the\n\
invariant. A map index panics on a missing key exactly as `unwrap`\n\
does; array literals such as `[&mut a, &mut b]` are not indexes.\n\
\n\
Crash handling and backup promotion (§7.10.1–§7.10.2) run precisely\n\
when the system is already degraded; a panic there turns a survivable\n\
single failure into the double failure the paper's design explicitly\n\
scopes out (§4). Fault paths must either handle the `None`/`Err` case\n\
or carry a waiver documenting why the value is always present.",
    },
    RuleInfo {
        id: "D6",
        title: "no untyped trace emission",
        explain: "D6 — no string-typed trace emission in sim-deterministic crates.\n\
\n\
Flight-recorder events are typed (`TraceKind`): the divergence differ,\n\
per-category fingerprints, and the crash-path tests all match on enum\n\
structure, and a free-text event is invisible to every one of them. An\n\
`.emit(..)` call whose arguments build a string (a string literal,\n\
`format!`, `String`, `to_string`, or a closure) bypasses the taxonomy;\n\
add a `TraceKind` variant instead. See DESIGN.md §5.8.",
    },
    RuleInfo {
        id: "S1",
        title: "no shared mutable state in sim crates",
        explain: "S1 — no shared mutable state in sim-deterministic crates: no\n\
`static mut`, no static holding interior mutability, no `thread_local!`,\n\
and no `Arc`/`Rc`/`Weak` of a payload that reaches interior mutability.\n\
\n\
§5.1's architecture has clusters interact *only* through the bus, and\n\
the simulator keeps all of a machine's state inside its `World`, so two\n\
`World`s — two test threads, two systems in one host process — share\n\
nothing. A writable global — a `static mut`, a `static` whose type\n\
reaches a `Cell`/`Mutex`/`Atomic*`, or a `thread_local!` pinning state\n\
to an OS thread — is a side channel around both: clusters could observe\n\
each other without a message, and concurrent runs could observe each\n\
other at all (a process-global payload-allocation counter once made\n\
`tests/zero_copy.rs` fail whenever another test ran beside it). A\n\
shared pointer to a mutable payload (`Rc<RefCell<_>>`, `Weak<Cell<_>>`,\n\
`Arc<Mutex<_>>`, or one to any type transitively holding interior\n\
mutability) is the same channel inside one `World`: two clusters holding\n\
it see each other's writes without a message, and a backup replaying\n\
from its last sync (§6) cannot re-derive them. The zero-copy fabric\n\
shares only frozen payloads (`Arc<[u8]>`, `Arc<str>`, Arcs of Freeze\n\
structs), which stay legal. All mutable state must live in the `World`,\n\
owned by exactly one cluster.",
    },
    RuleInfo {
        id: "S4",
        title: "no wildcard arms over protected enums",
        explain: "S4 — no top-level `_ =>` arm in a `match` over `TraceKind`,\n\
`FaultEvent`, or `PlanKind`.\n\
\n\
Fault handling (§7.10) and the flight-recorder differ work by case\n\
analysis over these enums; their value is that adding a variant forces\n\
every consumer to decide what it means. A wildcard arm turns that\n\
compile-time obligation into a silent fall-through: a new fault kind\n\
that nobody handles, a new trace kind the differ cannot see. Matches\n\
over the protected enums must enumerate variants (grouping with `|`\n\
is fine); a genuinely-uniform default needs a waiver saying why.",
    },
    RuleInfo {
        id: "W0",
        title: "malformed waiver comment",
        explain: "W0 — a comment contains the `auros-lint:` marker but does not parse\n\
as `allow(<rule>) -- <reason>`. Every waiver must name one rule and\n\
carry a nonempty reason; a waiver that silently fails to parse would\n\
hide the violation it meant to document.",
    },
    RuleInfo {
        id: "W1",
        title: "unused waiver",
        explain: "W1 — a well-formed waiver in a sim-deterministic crate matches no\n\
violation on its target line. Stale waivers rot into misleading\n\
documentation; delete them when the code they excused is gone.",
    },
];

/// Looks up a rule by id (case-insensitive).
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id.eq_ignore_ascii_case(id))
}

/// File basenames that constitute the fault-handling path for rule D5.
pub const FAULT_PATH_FILES: &[&str] = &[
    "crash.rs",
    "sync.rs",
    "routing.rs",
    "server.rs",
    "process.rs",
    "checkpoint.rs",
    "supervise.rs",
    "world.rs",
    "syscall.rs",
];

/// Keywords that may precede an array literal: `for x in [&a, &b]` is no
/// map index.
const D5_LITERAL_PREFIXES: &[&str] = &["in", "return", "break", "mut"];

/// Whether the `[` at `i` opens an index by reference (`m[&k]`,
/// `f()[&k]`, `v[i][&k]`) rather than an array literal or a slice type.
fn is_index_by_ref(tokens: &[Token], i: usize) -> bool {
    if !matches!(tokens.get(i + 1), Some(n) if n.tok == Tok::Punct('&')) || i == 0 {
        return false;
    }
    match &tokens[i - 1].tok {
        Tok::Ident(name) => !D5_LITERAL_PREFIXES.contains(&name.as_str()),
        Tok::Punct(')') | Tok::Punct(']') => true,
        _ => false,
    }
}

/// Identifiers banned outright per rule, in deterministic crates.
const D1_IDENTS: &[&str] = &["HashMap", "HashSet"];
const D2_IDENTS: &[&str] = &["Instant", "SystemTime", "UNIX_EPOCH"];
const D3_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "mpsc"];
const D4_IDENTS: &[&str] = &["f32", "f64"];

/// Phase-one output for one file: everything later cross-file analysis
/// needs, with no diagnostics finalized yet. Token-level (D-rule) hits
/// are already collected — they are per-file facts — while the S-rules
/// wait for [`finish`], because taint propagates across files.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Path label used in diagnostics.
    pub label: String,
    /// The file's crate class.
    pub class: CrateClass,
    tokens: Vec<Token>,
    waivers: Vec<Waiver>,
    malformed: Vec<(u32, String)>,
    d_hits: Vec<(u32, &'static str, String)>,
    symbols: FileSymbols,
}

/// Phase one: lexes, scans, and collects the per-file facts. Items, shared
/// pointers and matches on `#[cfg(test)]` lines are dropped here, so the
/// symbol graph never sees test-only code.
pub fn analyze_source(file: &str, class: CrateClass, src: &str) -> FileAnalysis {
    let lexed = lexer::lex(src);
    let mut d_hits: Vec<(u32, &'static str, String)> = Vec::new();
    let mut symbols = FileSymbols::default();
    if class == CrateClass::Deterministic {
        let spans = lexer::cfg_test_spans(&lexed.tokens);
        let in_test = |line: u32| spans.iter().any(|(a, b)| (*a..=*b).contains(&line));
        collect_hits(file, &lexed.tokens, &in_test, &mut d_hits);
        d_hits.sort();
        symbols.items =
            parse::items(&lexed.tokens).into_iter().filter(|i| !in_test(i.line)).collect();
        symbols.shared =
            parse::shared_ptrs(&lexed.tokens).into_iter().filter(|p| !in_test(p.line)).collect();
        symbols.matches = parse::wildcard_protected_matches(&lexed.tokens, graph::PROTECTED_ENUMS)
            .into_iter()
            .filter(|m| !in_test(m.line))
            .collect();
    }
    FileAnalysis {
        label: file.to_string(),
        class,
        tokens: lexed.tokens,
        waivers: lexed.waivers,
        malformed: lexed.malformed,
        d_hits,
        symbols,
    }
}

/// Phase two: builds the workspace symbol graph over every deterministic
/// file, generates the S-rule hits against it, applies waivers, and
/// produces one [`FileReport`] per input (same order).
pub fn finish(analyses: Vec<FileAnalysis>) -> Vec<FileReport> {
    let g = graph::build(
        analyses.iter().filter(|a| a.class == CrateClass::Deterministic).map(|a| &a.symbols),
    );
    let mut reports = Vec::new();
    for a in &analyses {
        let mut report = FileReport::default();

        // Malformed waivers are reported in every class: a marker that
        // does not parse is a documentation bug wherever it sits.
        for (line, why) in &a.malformed {
            report.diagnostics.push(Diagnostic {
                file: a.label.clone(),
                line: *line,
                rule: "W0",
                message: why.clone(),
            });
        }

        let mut hits = a.d_hits.clone();
        if a.class == CrateClass::Deterministic {
            hits.extend(graph::s_hits(&a.symbols, &g));
        }
        hits.sort();

        apply_waivers(&a.label, a.class, &a.tokens, &a.waivers, hits, &mut report);
        report.diagnostics.sort_by(|x, y| (x.line, x.rule).cmp(&(y.line, y.rule)));
        reports.push(report);
    }
    reports
}

/// Lints one file's source text.
///
/// `file` is the path used in diagnostics; its basename also decides
/// whether the D5 fault-path rule applies. `class` selects the rule set.
/// Single-file convenience over [`analyze_source`] + [`finish`]: taint
/// propagation sees only this file.
pub fn lint_source(file: &str, class: CrateClass, src: &str) -> FileReport {
    let mut reports = finish(vec![analyze_source(file, class, src)]);
    reports.pop().unwrap_or_default()
}

fn collect_hits(
    file: &str,
    tokens: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    hits: &mut Vec<(u32, &'static str, String)>,
) {
    let basename = file.rsplit(['/', '\\']).next().unwrap_or(file);
    let fault_path = FAULT_PATH_FILES.contains(&basename);

    for (i, t) in tokens.iter().enumerate() {
        if in_test(t.line) {
            continue;
        }
        match &t.tok {
            Tok::Ident(name) => {
                if D1_IDENTS.contains(&name.as_str()) {
                    hits.push((
                        t.line,
                        "D1",
                        format!("`{name}` iterates in hasher order; use the BTree equivalent"),
                    ));
                }
                if D2_IDENTS.contains(&name.as_str()) {
                    hits.push((
                        t.line,
                        "D2",
                        format!("`{name}` reads the wall clock; use virtual time (VTime)"),
                    ));
                }
                if D3_IDENTS.contains(&name.as_str()) {
                    hits.push((
                        t.line,
                        "D3",
                        format!("`{name}` introduces entropy or OS scheduling; use DetRng / the event queue"),
                    ));
                }
                if D4_IDENTS.contains(&name.as_str()) {
                    hits.push((
                        t.line,
                        "D4",
                        format!("`{name}` is inexact; virtual-time and byte accounting must be integral"),
                    ));
                }
                if name == "std" {
                    check_std_path(tokens, i, hits);
                }
                if name == "emit"
                    && i > 0
                    && tokens[i - 1].tok == Tok::Punct('.')
                    && matches!(tokens.get(i + 1), Some(n) if n.tok == Tok::Punct('('))
                {
                    check_emit_args(tokens, i + 1, hits);
                }
                if fault_path
                    && matches!(name.as_str(), "unwrap" | "expect")
                    && i > 0
                    && tokens[i - 1].tok == Tok::Punct('.')
                    && matches!(tokens.get(i + 1), Some(n) if n.tok == Tok::Punct('('))
                {
                    hits.push((
                        t.line,
                        "D5",
                        format!(
                            "`.{name}()` on a fault-handling path can panic mid-recovery; handle the case or waive with the invariant"
                        ),
                    ));
                }
            }
            Tok::Punct('[') if fault_path && is_index_by_ref(tokens, i) => {
                hits.push((
                    t.line,
                    "D5",
                    "map index `[&…]` on a fault-handling path panics on a missing key; use `get` or waive with the invariant".to_string(),
                ));
            }
            Tok::Float => {
                hits.push((
                    t.line,
                    "D4",
                    "float literal; virtual-time and byte accounting must be integral".to_string(),
                ));
            }
            _ => {}
        }
    }
}

/// Scans the balanced argument list of an `.emit(` call starting at the
/// opening paren and flags untyped (string-building) emissions per D6:
/// a string literal anywhere in the arguments, a string-building call
/// (`format!`, `String`, `to_string`/`to_owned`), or a closure argument
/// (the pre-typed API's lazy `|| format!(..)` style).
fn check_emit_args(tokens: &[Token], open: usize, hits: &mut Vec<(u32, &'static str, String)>) {
    let line = tokens[open].line;
    let mut depth = 0usize;
    let mut string_lit = false;
    let mut builder: Option<String> = None;
    for t in &tokens[open..] {
        match &t.tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            }
            Tok::Punct('|') if depth == 1 => {
                builder.get_or_insert_with(|| "a closure".to_string());
            }
            Tok::Str => string_lit = true,
            Tok::Ident(n) => {
                if matches!(n.as_str(), "format" | "String" | "to_string" | "to_owned") {
                    builder.get_or_insert_with(|| format!("`{n}`"));
                }
            }
            _ => {}
        }
    }
    if string_lit {
        hits.push((
            line,
            "D6",
            "`.emit()` passed a string literal; trace events are typed — add a `TraceKind` variant"
                .to_string(),
        ));
    } else if let Some(what) = builder {
        hits.push((
            line,
            "D6",
            format!("`.emit()` builds a string via {what}; trace events are typed — add a `TraceKind` variant"),
        ));
    }
}

/// Follows a `std::` path at token `i` and flags `std::time::X` (X other
/// than `Duration`) and `std::thread`. The banned-identifier checks above
/// already cover members named directly (`Instant`, `mpsc`, ...); this
/// catches module-level imports and globs.
fn check_std_path(tokens: &[Token], i: usize, hits: &mut Vec<(u32, &'static str, String)>) {
    let Some(seg1) = path_segment(tokens, i + 1) else {
        return;
    };
    match seg1.0 {
        "time" => {
            let line = tokens[i].line;
            match path_segment(tokens, seg1.1) {
                Some(("Duration", _)) => {}
                Some((name, _)) => {
                    if !D2_IDENTS.contains(&name) {
                        hits.push((
                            line,
                            "D2",
                            format!("`std::time::{name}`; only `Duration` is permitted"),
                        ));
                    }
                }
                None => {
                    // `use std::time;`, `std::time::*`, or `std::time::{..}`.
                    let glob = tokens.get(seg1.1).map(|t| &t.tok) == Some(&Tok::Punct(':'))
                        && matches!(
                            tokens.get(seg1.1 + 2).map(|t| &t.tok),
                            Some(Tok::Punct('*')) | Some(Tok::Punct('{'))
                        );
                    let what = if glob { "glob import of `std::time`" } else { "`std::time`" };
                    hits.push((
                        tokens[i].line,
                        "D2",
                        format!("{what}; import `std::time::Duration` specifically or use VTime"),
                    ));
                }
            }
        }
        "thread" => {
            hits.push((
                tokens[i].line,
                "D3",
                "`std::thread`; all concurrency is simulated by the event queue".to_string(),
            ));
        }
        _ => {}
    }
}

/// If tokens at `i` are `:: ident`, returns the identifier and the index
/// just past it.
fn path_segment(tokens: &[Token], i: usize) -> Option<(&str, usize)> {
    if tokens.get(i)?.tok != Tok::Punct(':') || tokens.get(i + 1)?.tok != Tok::Punct(':') {
        return None;
    }
    match &tokens.get(i + 2)?.tok {
        Tok::Ident(s) => Some((s.as_str(), i + 3)),
        _ => None,
    }
}

fn apply_waivers(
    file: &str,
    class: CrateClass,
    tokens: &[Token],
    waivers: &[Waiver],
    hits: Vec<(u32, &'static str, String)>,
    report: &mut FileReport,
) {
    // A standalone waiver applies to the next line that carries code; a
    // trailing waiver applies to its own line.
    let effective_line = |w: &Waiver| -> Option<u32> {
        if w.standalone {
            tokens.iter().map(|t| t.line).find(|l| *l > w.line)
        } else {
            Some(w.line)
        }
    };
    let targets: Vec<Option<u32>> = waivers.iter().map(effective_line).collect();
    let mut used = vec![false; waivers.len()];

    for (line, rule, message) in hits {
        let waiver = waivers
            .iter()
            .enumerate()
            .find(|(k, w)| targets[*k] == Some(line) && w.rule.eq_ignore_ascii_case(rule));
        match waiver {
            Some((k, w)) => {
                used[k] = true;
                report.waived.push(WaivedSite {
                    file: file.to_string(),
                    line,
                    rule,
                    reason: w.reason.clone(),
                });
            }
            None => {
                report.diagnostics.push(Diagnostic { file: file.to_string(), line, rule, message });
            }
        }
    }

    // Unused waivers only matter where rules actually run.
    if class == CrateClass::Deterministic {
        for (k, w) in waivers.iter().enumerate() {
            if used[k] {
                continue;
            }
            if rule_info(&w.rule).is_none() {
                report.diagnostics.push(Diagnostic {
                    file: file.to_string(),
                    line: w.line,
                    rule: "W0",
                    message: format!("waiver names unknown rule `{}`", w.rule),
                });
            } else {
                report.diagnostics.push(Diagnostic {
                    file: file.to_string(),
                    line: w.line,
                    rule: "W1",
                    message: format!(
                        "unused waiver for {}: no matching violation on its target line",
                        w.rule
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(file: &str, src: &str) -> FileReport {
        lint_source(file, CrateClass::Deterministic, src)
    }

    fn rules_of(r: &FileReport) -> Vec<&'static str> {
        r.diagnostics.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn d1_flags_hash_collections() {
        let r = det("lib.rs", "use std::collections::{HashMap, BTreeMap};\n");
        assert_eq!(rules_of(&r), vec!["D1"]);
    }

    #[test]
    fn d2_allows_duration_only() {
        assert!(det("lib.rs", "use std::time::Duration;\n").diagnostics.is_empty());
        assert_eq!(rules_of(&det("lib.rs", "use std::time::Instant;\n")), vec!["D2"]);
        assert_eq!(rules_of(&det("lib.rs", "use std::time::*;\n")), vec!["D2"]);
        assert_eq!(rules_of(&det("lib.rs", "let t = std::time::SystemTime::now();\n")), vec!["D2"]);
    }

    #[test]
    fn d3_flags_threads_and_entropy() {
        assert_eq!(rules_of(&det("lib.rs", "std::thread::spawn(|| {});\n")), vec!["D3"]);
        assert_eq!(rules_of(&det("lib.rs", "let r = thread_rng();\n")), vec!["D3"]);
        assert!(det("lib.rs", "use std::sync::Arc;\n").diagnostics.is_empty());
    }

    #[test]
    fn d4_flags_floats() {
        let r = det("lib.rs", "fn f(x: u64) -> f64 { x as f64 * 1.5 }\n");
        assert_eq!(rules_of(&r), vec!["D4", "D4", "D4"]);
    }

    #[test]
    fn d5_only_on_fault_path_files() {
        let src = "fn f(m: &M) { m.get(&k).unwrap(); }\n";
        assert_eq!(rules_of(&det("crash.rs", src)), vec!["D5"]);
        // The supervision layer runs exactly when the system is already
        // degraded: it is a fault path like crash.rs.
        assert_eq!(rules_of(&det("supervise.rs", src)), vec!["D5"]);
        assert_eq!(rules_of(&det("kernel/src/supervise.rs", src)), vec!["D5"]);
        // The world's event handlers deliver, promote and replay; the
        // trap handlers block, wake and kill processes mid-recovery.
        assert_eq!(rules_of(&det("world.rs", src)), vec!["D5"]);
        assert_eq!(rules_of(&det("syscall.rs", src)), vec!["D5"]);
        assert!(det("lib.rs", src).diagnostics.is_empty());
    }

    #[test]
    fn d6_flags_string_building_emits() {
        // Strings lex to nothing, so the literal shows up as an empty slot.
        assert_eq!(rules_of(&det("world.rs", "t.emit(at, loc, \"boom\");\n")), vec!["D6"]);
        assert_eq!(
            rules_of(&det("world.rs", "t.emit(at, loc, format!(\"pid {p}\"));\n")),
            vec!["D6"]
        );
        assert_eq!(rules_of(&det("world.rs", "t.emit(at, loc, || kind());\n")), vec!["D6"]);
        assert_eq!(rules_of(&det("world.rs", "t.emit(at, loc, s.to_string());\n")), vec!["D6"]);
    }

    #[test]
    fn d6_allows_typed_emits() {
        let src = "t.emit(at, Loc::Cluster(0), TraceKind::Finished { pid, status: 0 });\n";
        assert!(det("world.rs", src).diagnostics.is_empty());
        // Non-method `emit` (definitions) and other calls are untouched.
        assert!(det("world.rs", "pub fn emit(&mut self, k: TraceKind) {}\n")
            .diagnostics
            .is_empty());
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let src = "pub fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); let h = HashMap::new(); }\n}\n";
        assert!(det("crash.rs", src).diagnostics.is_empty());
    }

    #[test]
    fn waivers_suppress_and_count() {
        let src =
            "let h = HashMap::new(); // auros-lint: allow(D1) -- scratch map, never iterated\n";
        let r = det("lib.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.waived.len(), 1);
        assert_eq!(r.waived[0].rule, "D1");
    }

    #[test]
    fn standalone_waiver_hits_next_code_line() {
        let src = "// auros-lint: allow(D4) -- reporting ratio on final totals\n// more prose\nlet x: f64 = 0.0;\n";
        let r = det("lib.rs", src);
        // Note: only the first waiver line applies; the `0.0` literal and
        // `f64` both sit on line 3 and share the one D4 waiver.
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.waived.len(), 2);
    }

    #[test]
    fn unused_waiver_is_flagged() {
        let r = det("lib.rs", "// auros-lint: allow(D1) -- nothing here\nlet x = 1;\n");
        assert_eq!(rules_of(&r), vec!["W1"]);
    }

    #[test]
    fn unknown_rule_in_waiver_is_w0() {
        // S2 and S3 were deleted: a waiver still naming them is stale
        // and must be reported, not silently accepted.
        for rule in ["D9", "S2", "S3"] {
            let src = format!("let x = 1; // auros-lint: allow({rule}) -- no such rule\n");
            assert_eq!(rules_of(&det("lib.rs", &src)), vec!["W0"], "{rule}");
        }
    }

    #[test]
    fn host_class_runs_no_determinism_rules() {
        let src = "use std::time::Instant;\nlet h = HashMap::new();\nlet x = 1.5;\n";
        let r = lint_source("bench.rs", CrateClass::Host, src);
        assert!(r.diagnostics.is_empty());
    }
}
