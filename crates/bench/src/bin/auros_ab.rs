//! `auros-ab`: compare the end-to-end benchmark of two revisions.
//!
//! ```sh
//! cargo run --release -p auros-bench --bin auros-ab -- \
//!     --base HEAD~1 --head HEAD --pairs 5 --seconds 5 --seed 1 --workload compute_fleet
//! ```
//!
//! Each revision is unpacked with `git archive` into a directory of its
//! own under the system temporary directory (`$TMPDIR`, else `/tmp`), and
//! its `perfbench/` is built there offline, with its own
//! `CARGO_TARGET_DIR`. Only committed files take part: `--head HEAD`
//! ignores uncommitted changes. The tool then runs `--pairs` pairs of
//! `--trace 0` runs per workload (10 unless given), alternating which
//! revision goes first, and prints for each end-to-end metric each
//! side's median and quartiles, the median head/base ratio over the
//! pairs, the ratio of the two medians (what a no-regression bound on
//! medians compares; `!` marks one worse than the metric's `bound` in the
//! head's `BENCHMARK.json`), the pairs head won (in the direction that
//! file declares) and a two-sided sign-test p-value.
//!
//! After the pairs it runs each revision once more with `--trace 1`.
//!
//! The modelled run must not move: the tool exits 1 if any run's
//! `correct`, `attempted`, `failed`, `vt_*` value or metric counted in
//! `count` or `bytes` (`sim.events`, `bus.frames`, `bus.bytes`, ...)
//! differs from the others, and 2 on a usage, build or run error.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

fn usage() -> ExitCode {
    eprintln!(
        "usage: auros-ab --base <rev> --head <rev> [--pairs N] [--workload NAME]... \
         [--seconds S] [--seed N]\n\
         Defaults: 10 pairs of 5 s runs at seed 1 of every workload in the head's \
         BENCHMARK.json."
    );
    ExitCode::from(2)
}

struct Opts {
    base: String,
    head: String,
    pairs: usize,
    workloads: Vec<String>,
    seconds: String,
    seed: String,
}

fn parse(mut args: impl Iterator<Item = String>) -> Option<Opts> {
    let mut o = Opts {
        base: String::new(),
        head: String::new(),
        pairs: 10,
        workloads: Vec::new(),
        seconds: "5".into(),
        seed: "1".into(),
    };
    while let Some(flag) = args.next() {
        let val = args.next()?;
        match flag.as_str() {
            "--base" => o.base = val,
            "--head" => o.head = val,
            "--pairs" => o.pairs = val.parse().ok().filter(|&n| n > 0)?,
            "--workload" => o.workloads.push(val),
            "--seconds" => o.seconds = val.parse::<f64>().ok().filter(|s| *s > 0.0).map(|_| val)?,
            "--seed" => o.seed = val.parse::<u64>().ok().map(|_| val)?,
            _ => return None,
        }
    }
    (!o.base.is_empty() && !o.head.is_empty()).then_some(o)
}

/// A parsed JSON value; numbers keep their text so they compare exactly.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Option<Json> {
        let mut p = JsonParser { s: text.as_bytes(), i: 0 };
        let v = p.value()?;
        p.ws();
        (p.i == p.s.len()).then_some(v)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    s: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.i) == Some(&c);
        self.i += usize::from(hit);
        hit
    }

    /// The items of an array or object after its opening bracket.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let mut out = Vec::new();
        if self.eat(close) {
            return Some(out);
        }
        loop {
            out.push(item(self)?);
            if self.eat(close) {
                return Some(out);
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = Vec::new();
        loop {
            match *self.s.get(self.i)? {
                b'"' => break,
                b'\\' => {
                    self.i += 1;
                    out.push(match *self.s.get(self.i)? {
                        b'n' => b'\n',
                        b't' => b'\t',
                        c => c,
                    });
                }
                c => out.push(c),
            }
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(out).ok()
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match *self.s.get(self.i)? {
            b'{' => {
                self.i += 1;
                let fields = self.items(b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':').then_some(())?;
                    Some((key, p.value()?))
                })?;
                Some(Json::Obj(fields))
            }
            b'[' => {
                self.i += 1;
                Some(Json::Arr(self.items(b']', Self::value)?))
            }
            b'"' => self.string().map(Json::Str),
            _ => {
                // Numbers and the bare words true/false/null (and the
                // inf/NaN a float's Display may print).
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || b"+-.".contains(c))
                {
                    self.i += 1;
                }
                let word = std::str::from_utf8(&self.s[start..self.i]).ok()?;
                match word {
                    "" => None,
                    "null" => Some(Json::Null),
                    "true" => Some(Json::Bool(true)),
                    "false" => Some(Json::Bool(false)),
                    _ => word.parse::<f64>().ok().map(|_| Json::Num(word.into())),
                }
            }
        }
    }
}

fn git(args: &[&str]) -> Result<String, String> {
    let out = Command::new("git").args(args).output().map_err(|e| format!("git: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// One revision, unpacked and built.
struct Rev {
    name: String,
    sha: String,
    src: PathBuf,
    bin: PathBuf,
}

/// Unpacks `rev` (once per commit) and builds its perfbench.
fn prepare(rev: &str) -> Result<Rev, String> {
    let sha = git(&["rev-parse", "--verify", &format!("{rev}^{{commit}}")])?;
    let root = std::env::temp_dir().join("auros-ab").join(&sha[..12]);
    let src = root.join("src");
    let io = |e: std::io::Error| format!("{}: {e}", root.display());
    if !src.exists() {
        // Unpack beside the final name and rename, so an interrupted
        // unpack is never mistaken for a whole tree.
        let partial = root.join("src.partial");
        if partial.exists() {
            std::fs::remove_dir_all(&partial).map_err(io)?;
        }
        std::fs::create_dir_all(&partial).map_err(io)?;
        let mut archive = Command::new("git")
            .args(["archive", "--format=tar", &sha])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("git archive: {e}"))?;
        let tar = archive.stdout.take().ok_or("git archive: no output")?;
        let untar = Command::new("tar").arg("-x").arg("-C").arg(&partial).stdin(tar).status();
        let archived = archive.wait().map_err(|e| format!("git archive: {e}"))?;
        if !archived.success() || !untar.map_err(|e| format!("tar: {e}"))?.success() {
            return Err(format!("could not unpack {rev} ({sha})"));
        }
        std::fs::rename(&partial, &src).map_err(io)?;
    }
    let target = root.join("target");
    eprintln!("auros-ab: building perfbench at {rev} ({}) in {}", &sha[..12], root.display());
    let built = Command::new("cargo")
        .args(["build", "--quiet", "--release", "--offline", "--manifest-path"])
        .arg(src.join("perfbench/Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !built.success() {
        return Err(format!("perfbench at {rev} ({sha}) did not build"));
    }
    Ok(Rev { name: rev.into(), sha, src, bin: target.join("release/auros-perfbench") })
}

/// What one perfbench run reported.
struct Run {
    /// Fields that must be identical across revisions, as printed.
    exact: Vec<(String, String)>,
    /// Every metric's value.
    metrics: Vec<(String, f64)>,
}

impl Run {
    /// Reads a report: the verdict fields, every `vt_*` metric and every
    /// metric counted in `count` or `bytes` describe the modelled run and
    /// go to `exact`.
    fn from_report(report: &Json) -> Run {
        let text = |v: &Json| match v {
            Json::Num(n) => n.clone(),
            Json::Bool(b) => b.to_string(),
            other => format!("{other:?}"),
        };
        let mut exact: Vec<(String, String)> = ["correct", "attempted", "failed"]
            .into_iter()
            .map(|k| (k.to_string(), report.get(k).map_or_else(|| "missing".into(), text)))
            .collect();
        let mut metrics = Vec::new();
        if let Some(Json::Obj(fields)) = report.get("metrics") {
            for (name, m) in fields {
                let Some(value) = m.get("value") else { continue };
                let unit = m.get("unit").and_then(Json::str);
                if name.starts_with("vt_") || matches!(unit, Some("count" | "bytes")) {
                    exact.push((name.clone(), text(value)));
                }
                if let Json::Num(n) = value {
                    metrics.push((name.clone(), n.parse().unwrap_or(f64::NAN)));
                }
            }
        }
        Run { exact, metrics }
    }

    /// How this run's exact fields differ from `want`'s.
    fn differences(&self, want: &Run) -> Vec<String> {
        let keys = |r: &Run| r.exact.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        if keys(self) != keys(want) {
            return vec!["other fields are reported".into()];
        }
        let pairs = want.exact.iter().zip(&self.exact);
        pairs
            .filter(|(w, g)| w.1 != g.1)
            .map(|((k, w), (_, g))| format!("{k} is {g}, not {w},"))
            .collect()
    }
}

fn run(rev: &Rev, workload: &str, o: &Opts, trace: bool) -> Result<Run, String> {
    let trace = if trace { "1" } else { "0" };
    let out = Command::new(&rev.bin)
        .args([
            "--workload",
            workload,
            "--seed",
            &o.seed,
            "--seconds",
            &o.seconds,
            "--trace",
            trace,
        ])
        .current_dir(&rev.src)
        .output()
        .map_err(|e| format!("{}: {e}", rev.bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = stdout.lines().rev().find(|l| !l.trim().is_empty()).and_then(Json::parse);
    let (Some(report), true) = (report, out.status.success()) else {
        return Err(format!(
            "{workload} at {}: no report\n{}",
            rev.name,
            String::from_utf8_lossy(&out.stderr)
        ));
    };
    Ok(Run::from_report(&report))
}

/// Two-sided sign test: the chance of a split at least this uneven
/// between `wins` and `losses` if either side were equally likely.
fn sign_test(wins: usize, losses: usize) -> f64 {
    let n = wins + losses;
    let mut choose = 1.0; // C(n, i)
    let mut tail = 0.0;
    for i in 0..=wins.min(losses) {
        tail += choose;
        choose *= (n - i) as f64 / (i + 1) as f64;
    }
    (2.0 * tail / 2f64.powi(n as i32)).min(1.0)
}

/// The `q`-quantile of `v`, interpolating between neighbours.
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let x = q * (v.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
}

/// Median and quartiles, as `median (q1–q3)`.
fn spread(v: Vec<f64>) -> String {
    let q = |p| num(quantile(v.clone(), p));
    format!("{} ({}–{})", q(0.5), q(0.25), q(0.75))
}

fn num(v: f64) -> String {
    if v.abs() >= 1_000.0 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// What a tree's `BENCHMARK.json` declares.
struct Spec {
    workloads: Vec<String>,
    /// Each end-to-end metric: whether higher is better, and its bound.
    end_to_end: Vec<(String, Bound)>,
}

/// An end-to-end metric's direction and no-regression bound.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Bound {
    higher_is_better: bool,
    /// How much worse the head's median may be, as a fraction of the
    /// base's.
    bound: f64,
}

impl Bound {
    /// Whether a head median of `med_ratio` times the base's is worse
    /// than the bound allows.
    fn exceeded(&self, med_ratio: f64) -> bool {
        if self.higher_is_better {
            med_ratio < 1.0 - self.bound
        } else {
            med_ratio > 1.0 + self.bound
        }
    }
}

impl Spec {
    fn read(src: &Path) -> Result<Spec, String> {
        let path = src.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text).ok_or_else(|| format!("{}: not JSON", path.display()))
    }

    fn parse(text: &str) -> Option<Spec> {
        let json = Json::parse(text)?;
        let entries = |key: &str| match json.get(key) {
            Some(Json::Arr(items)) => items.iter().collect(),
            _ => Vec::new(),
        };
        let name = |e: &Json| Some(e.get("name")?.str()?.to_string());
        let bound = |m: &Json| {
            let higher_is_better = m.get("better")?.str()? == "higher";
            let Json::Num(bound) = m.get("bound")? else { return None };
            Some(Bound { higher_is_better, bound: bound.parse().ok()? })
        };
        Some(Spec {
            workloads: entries("workloads").into_iter().filter_map(name).collect(),
            end_to_end: entries("end_to_end")
                .into_iter()
                .filter_map(|m| Some((name(m)?, bound(m)?)))
                .collect(),
        })
    }

    fn bound(&self, metric: &str) -> Option<Bound> {
        self.end_to_end.iter().find(|(n, _)| n == metric).map(|m| m.1)
    }
}

/// Runs `o.pairs` pairs of `workload` and one traced run per revision,
/// prints its table and returns how the runs' exact fields differ: each
/// pair's from the first base run's, the traced head's from the traced
/// base's.
fn compare(
    base: &Rev,
    head: &Rev,
    workload: &str,
    spec: &Spec,
    o: &Opts,
) -> Result<Vec<String>, String> {
    let mut pairs: Vec<(Run, Run)> = Vec::new();
    for i in 0..o.pairs {
        // Alternate the order so that drift in the host's speed falls on
        // both revisions alike.
        let (b, h) = if i % 2 == 0 {
            let b = run(base, workload, o, false)?;
            (b, run(head, workload, o, false)?)
        } else {
            let h = run(head, workload, o, false)?;
            (run(base, workload, o, false)?, h)
        };
        eprintln!("auros-ab: {workload} pair {}/{} done", i + 1, o.pairs);
        pairs.push((b, h));
    }

    let mut problems = Vec::new();
    for (i, (b, h)) in pairs.iter().enumerate() {
        for (rev, r) in [(&base.name, b), (&head.name, h)] {
            problems.extend(r.differences(&pairs[0].0).into_iter().map(|d| {
                format!("{workload}: {d} at {rev} (pair {}) against {} (pair 1)", i + 1, base.name)
            }));
        }
    }
    let traced_base = run(base, workload, o, true)?;
    let traced = run(head, workload, o, true)?.differences(&traced_base);
    eprintln!("auros-ab: {workload} traced runs done");

    println!(
        "\n{workload}, seed {}: {} pair(s) of {} s runs, base {} ({}), head {} ({})",
        o.seed,
        o.pairs,
        o.seconds,
        base.name,
        &base.sha[..12],
        head.name,
        &head.sha[..12]
    );
    println!(
        "traced: {} exact field(s) compared, {} differ",
        traced_base.exact.len(),
        traced.len()
    );
    problems.extend(
        traced
            .into_iter()
            .map(|d| format!("{workload}: traced, {d} at {} against {}", head.name, base.name)),
    );
    println!(
        "{:<18} {:>32} {:>32} {:>9} {:>8} {:>6} {:>7}  per-pair head/base",
        "metric",
        "base median (quartiles)",
        "head median (quartiles)",
        "head/base",
        "med/med",
        "wins",
        "sign p"
    );
    for (name, _) in &pairs[0].0.metrics {
        let value = |r: &Run| r.metrics.iter().find(|(n, _)| n == name).map_or(f64::NAN, |m| m.1);
        let ratios: Vec<f64> = pairs.iter().map(|(b, h)| value(h) / value(b)).collect();
        let bound = spec.bound(name);
        let base_values: Vec<f64> = pairs.iter().map(|(b, _)| value(b)).collect();
        let head_values: Vec<f64> = pairs.iter().map(|(_, h)| value(h)).collect();
        let med_ratio = quantile(head_values.clone(), 0.5) / quantile(base_values.clone(), 0.5);
        let mark = if bound.is_some_and(|b| b.exceeded(med_ratio)) { "!" } else { " " };
        let (wins, losses) = match bound.map(|b| b.higher_is_better) {
            Some(higher) => pairs.iter().fold((0, 0), |(w, l), (b, h)| {
                let (b, h) = (value(b), value(h));
                let (better, worse) = if higher { (h > b, h < b) } else { (h < b, h > b) };
                (w + usize::from(better), l + usize::from(worse))
            }),
            None => (0, 0),
        };
        let shown: Vec<String> = ratios.iter().map(|r| format!("{r:.2}")).collect();
        println!(
            "{:<18} {:>32} {:>32} {:>9.3} {:>7.3}{mark} {:>6} {:>7.3}  [{}]",
            name,
            spread(base_values),
            spread(head_values),
            quantile(ratios, 0.5),
            med_ratio,
            if bound.is_some() { format!("{wins}/{}", o.pairs) } else { "-".into() },
            sign_test(wins, losses),
            shown.join(", ")
        );
    }
    Ok(problems)
}

fn main() -> ExitCode {
    let Some(o) = parse(std::env::args().skip(1)) else {
        return usage();
    };
    let result = (|| -> Result<Vec<String>, String> {
        let base = prepare(&o.base)?;
        let head = prepare(&o.head)?;
        let spec = Spec::read(&head.src)?;
        let workloads = if o.workloads.is_empty() { &spec.workloads } else { &o.workloads };
        let mut problems = Vec::new();
        for w in workloads {
            problems.extend(compare(&base, &head, w, &spec, &o)?);
        }
        Ok(problems)
    })();
    match result {
        Ok(problems) if problems.is_empty() => {
            println!(
                "\nauros-ab: correct, attempted, failed, every vt_* value and every traced count \
                 agree across all runs"
            );
            ExitCode::SUCCESS
        }
        Ok(problems) => {
            for p in &problems {
                eprintln!("auros-ab: {p}");
            }
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("auros-ab: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_perfbench_report() {
        let line = r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"ops_per_s": {"value": 1.5e3, "unit": "1/s"}, "vt_x": {"value": inf, "unit": "u"}}}"#;
        let j = Json::parse(line).unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(j.get("attempted"), Some(&Json::Num("12".into())));
        let m = j.get("metrics").unwrap();
        assert_eq!(
            m.get("ops_per_s").and_then(|v| v.get("value")),
            Some(&Json::Num("1.5e3".into()))
        );
        assert_eq!(m.get("vt_x").and_then(|v| v.get("unit")).and_then(Json::str), Some("u"));
        assert!(Json::parse("{\"a\": 1,}").is_none());
        assert!(Json::parse("[1, 2] x").is_none());
        let spec = Spec::parse(
            r#"{"workloads": [{"name": "kv_store"}], "end_to_end": [
                {"name": "ops_per_s", "better": "higher", "bound": 0.25},
                {"name": "peak_rss_mb", "better": "lower", "bound": 0.15}]}"#,
        )
        .unwrap();
        assert_eq!(spec.workloads, ["kv_store"]);
        let rss = spec.bound("peak_rss_mb").unwrap();
        assert_eq!(rss, Bound { higher_is_better: false, bound: 0.15 });
        assert!(rss.exceeded(30.23 / 22.46), "a 1.35x median is worse than a 0.15 bound");
        assert!(!rss.exceeded(1.008));
        let ops = spec.bound("ops_per_s").unwrap();
        assert!(ops.exceeded(0.70) && !ops.exceeded(0.80) && !ops.exceeded(1.5));
        assert_eq!(spec.bound("setup_s"), None);
    }

    #[test]
    fn counts_and_bytes_are_exact_other_units_are_not() {
        let report = |events: u64, bytes: u64, self_s: f64| {
            let line = format!(
                r#"{{"correct": true, "attempted": 4, "failed": 0, "metrics": {{"sim.events": {{"value": {events}, "unit": "count"}}, "bus.bytes": {{"value": {bytes}, "unit": "bytes"}}, "bus.self_s": {{"value": {self_s}, "unit": "s"}}, "vt_wait_p50_ticks": {{"value": 9, "unit": "ticks"}}}}}}"#
            );
            Run::from_report(&Json::parse(&line).unwrap())
        };
        let base = report(100, 2048, 0.5);
        assert_eq!(base.exact.len(), 6, "three verdict fields, two counts, one vt_*");
        assert!(report(100, 2048, 0.25).differences(&base).is_empty(), "host time may move");
        assert_eq!(report(101, 2048, 0.5).differences(&base), ["sim.events is 101, not 100,"]);
        assert_eq!(report(100, 2049, 0.5).differences(&base).len(), 1);
        let fewer = Run::from_report(
            &Json::parse(r#"{"correct": true, "attempted": 4, "failed": 0}"#).unwrap(),
        );
        assert_eq!(fewer.differences(&base), ["other fields are reported"]);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(v.clone(), 0.5), 2.5);
        assert_eq!(quantile(v.clone(), 0.25), 1.75);
        assert_eq!(quantile(v, 1.0), 4.0);
        assert_eq!(quantile(vec![7.0], 0.75), 7.0);
    }

    #[test]
    fn sign_test_matches_the_binomial_tail() {
        assert_eq!(sign_test(0, 0), 1.0);
        assert!((sign_test(5, 0) - 0.0625).abs() < 1e-12);
        assert!((sign_test(9, 1) - 22.0 / 1024.0).abs() < 1e-12);
        assert_eq!(sign_test(3, 3), 1.0);
    }
}
