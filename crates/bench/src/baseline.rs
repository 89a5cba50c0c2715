//! Shared schema for the machine-readable `BENCH_*.json` baselines.
//!
//! Every experiment that feeds a CI guard emits the same shape — no serde
//! in the dependency tree, so the emitter is a small hand-rolled builder
//! and the parser a text scan:
//!
//! ```json
//! {
//!   "experiment": "e17-ingest",
//!   "schema_version": 1,
//!   "config": { "n": 48, "updates": 7000, "trials": 1 },
//!   "rows": [
//!     { "mode": "scalar", "updates_per_sec": 1234.5, "pass": true }
//!   ],
//!   "summary": { "best_batched_updates_per_sec": 9876.5, "pass": true }
//! }
//! ```
//!
//! * `config` — the knobs the measurement ran with (workload sizes, seeds,
//!   trial counts): everything needed to interpret or reproduce the rows.
//! * `rows` — one object per measured configuration, each carrying its own
//!   `pass` verdict so a guard can point at the exact failing row.
//! * `summary` — the aggregates guards compare against, plus the overall
//!   `pass` verdict (the conjunction the experiment's acceptance criteria
//!   define; `summary_pass` reads it back).
//!
//! Values are rendered deterministically in insertion order; floats use a
//! fixed number of decimals chosen per field, so re-running with identical
//! results produces byte-identical files.
//!
//! Each guarded experiment (E17–E23) judges a run by a list of named
//! [`Verdicts`]; their conjunction is the summary `pass` it writes, and
//! [`guard`] — the one runner behind every `experiments check-*` — re-runs
//! the experiment in quick mode and enforces that same list.

/// An ordered list of `"key": value` pairs, values pre-rendered as JSON.
#[derive(Clone, Debug, Default)]
pub struct Fields {
    parts: Vec<(String, String)>,
}

impl Fields {
    pub fn new() -> Fields {
        Fields::default()
    }

    fn push(mut self, key: &str, rendered: String) -> Fields {
        self.parts.push((key.to_string(), rendered));
        self
    }

    pub fn u64(self, key: &str, v: u64) -> Fields {
        self.push(key, v.to_string())
    }

    pub fn usize(self, key: &str, v: usize) -> Fields {
        self.push(key, v.to_string())
    }

    /// A float with `decimals` fixed decimal places.
    pub fn f64(self, key: &str, v: f64, decimals: usize) -> Fields {
        self.push(key, format!("{v:.decimals$}"))
    }

    pub fn bool(self, key: &str, v: bool) -> Fields {
        self.push(key, v.to_string())
    }

    /// A string value (callers pass identifiers, never text needing
    /// escapes).
    pub fn str(self, key: &str, v: &str) -> Fields {
        self.push(key, format!("\"{v}\""))
    }

    /// `Some(n)` as a number, `None` as JSON `null`.
    pub fn opt_usize(self, key: &str, v: Option<usize>) -> Fields {
        self.push(key, v.map_or("null".to_string(), |n| n.to_string()))
    }

    /// `Some(n)` as a number, `None` as JSON `null`.
    pub fn opt_u64(self, key: &str, v: Option<u64>) -> Fields {
        self.push(key, v.map_or("null".to_string(), |n| n.to_string()))
    }

    fn render_inline(&self) -> String {
        let body = self
            .parts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ");
        format!("{{{body}}}")
    }

    fn render_block(&self, indent: &str) -> String {
        if self.parts.is_empty() {
            return "{}".to_string();
        }
        let body = self
            .parts
            .iter()
            .map(|(k, v)| format!("{indent}  \"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(",\n");
        format!("{{\n{body}\n{indent}}}")
    }
}

/// Builder for one `BENCH_*.json` document in the shared schema.
#[derive(Clone, Debug)]
pub struct Baseline {
    experiment: String,
    config: Fields,
    rows: Vec<Fields>,
    summary: Fields,
}

impl Baseline {
    pub fn new(experiment: &str) -> Baseline {
        Baseline {
            experiment: experiment.to_string(),
            config: Fields::new(),
            rows: Vec::new(),
            summary: Fields::new(),
        }
    }

    /// Sets the `config` block (builder style).
    pub fn config(mut self, fields: Fields) -> Baseline {
        self.config = fields;
        self
    }

    /// Appends one row; `pass` is appended as the row's final field.
    pub fn row(&mut self, fields: Fields, pass: bool) {
        self.rows.push(fields.bool("pass", pass));
    }

    /// Sets the `summary` block; `pass` is appended as its final field.
    /// Call this last — it is also what [`summary_pass`] reads back.
    pub fn summary(mut self, fields: Fields, pass: bool) -> Baseline {
        self.summary = fields.bool("pass", pass);
        self
    }

    /// Renders the document. Deterministic for identical inputs.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"experiment\": \"{}\",\n", self.experiment));
        out.push_str("  \"schema_version\": 1,\n");
        out.push_str(&format!(
            "  \"config\": {},\n",
            self.config.render_block("  ")
        ));
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {}{}\n",
                r.render_inline(),
                if i + 1 == self.rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"summary\": {}\n",
            self.summary.render_block("  ")
        ));
        out.push_str("}\n");
        out
    }

    /// Writes a full-mode run to `path`, reporting like every experiment
    /// does. A quick run writes nothing: the checked-in files are the
    /// full-mode baselines that the `check-*` guards and their floors read,
    /// and a quick run from the repository root must not replace them.
    pub fn write(&self, path: &str, quick: bool) {
        if quick {
            println!("  quick mode: {path} left unchanged");
            return;
        }
        match std::fs::write(path, self.render()) {
            Ok(()) => println!("  wrote {path}"),
            Err(e) => eprintln!("  could not write {path}: {e}"),
        }
    }
}

/// Extracts the first `"key": <number>` from a baseline document.
pub fn json_f64_field(s: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = s.find(&needle)? + needle.len();
    let rest = s[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the first `"key": true|false` from a baseline document.
pub fn json_bool_field(s: &str, key: &str) -> Option<bool> {
    let needle = format!("\"{key}\":");
    let at = s.find(&needle)? + needle.len();
    let rest = s[at..].trim_start();
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// The summary's overall `pass` verdict: the **last** `"pass"` in the
/// document (rows precede the summary, and `pass` is the summary's final
/// field).
pub fn summary_pass(s: &str) -> Option<bool> {
    let at = s.rfind("\"pass\":")?;
    json_bool_field(&s[at..], "pass")
}

/// How far a guarded throughput may fall below its checked-in baseline: a
/// coarse bound, because shared runners are noisy and the guards exist to
/// catch order-of-magnitude regressions, not 10% drift.
pub const MAX_REGRESSION: f64 = 5.0;

/// The named acceptance verdicts of one run of a guarded experiment, plus
/// the throughputs its guard holds against the checked-in baseline.
#[derive(Debug, Default)]
pub struct Verdicts {
    checks: Vec<(String, bool)>,
    floors: Vec<(&'static str, f64)>,
}

impl Verdicts {
    pub fn new() -> Verdicts {
        Verdicts::default()
    }

    /// Adds one verdict; `name` states the condition with its measured
    /// values, so a failing guard's log says what broke.
    pub fn check(mut self, name: impl Into<String>, ok: bool) -> Verdicts {
        self.checks.push((name.into(), ok));
        self
    }

    /// `name` (measured `value`) must be zero.
    pub fn zero(self, name: &str, value: u64) -> Verdicts {
        self.check(format!("{name} {value} == 0"), value == 0)
    }

    /// `name` (measured `value`) must be positive.
    pub fn positive(self, name: &str, value: u64) -> Verdicts {
        self.check(format!("{name} {value} > 0"), value > 0)
    }

    /// `name` (measured `value`) must equal `other` (measured `expected`).
    pub fn equal(self, name: &str, value: u64, other: &str, expected: u64) -> Verdicts {
        self.check(
            format!("{name} {value} == {other} {expected}"),
            value == expected,
        )
    }

    /// `name` (measured `value`) must be at least `min`.
    pub fn at_least(self, name: &str, value: f64, min: f64) -> Verdicts {
        self.check(format!("{name} {value:.4} >= {min}"), value >= min)
    }

    /// A throughput the guard requires to stay within [`MAX_REGRESSION`]x
    /// of the checked-in baseline's field `key`. A full run writes the
    /// baseline, so floors are not part of [`pass`](Self::pass).
    pub fn floor(mut self, key: &'static str, measured: f64) -> Verdicts {
        self.floors.push((key, measured));
        self
    }

    /// The conjunction of every verdict: the summary `pass`.
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// `PASS`, or `FAIL` with every verdict that failed: the acceptance
    /// line an experiment prints under its table.
    pub fn outcome(&self) -> String {
        let failed: Vec<&str> = (self.checks.iter())
            .filter(|(_, ok)| !ok)
            .map(|(name, _)| name.as_str())
            .collect();
        if failed.is_empty() {
            format!("PASS ({} verdicts)", self.checks.len())
        } else {
            format!("FAIL: {}", failed.join("; "))
        }
    }
}

/// The CI guard behind every `experiments check-*` command. The checked-in
/// baseline at `path` must be `schema_version` 1 with summary `pass: true`;
/// `rerun` re-measures in quick mode, and every verdict it returns must
/// hold, as must every floor against the baseline field it names. Prints
/// each verdict and returns whether the guard passed.
pub fn guard(name: &str, path: &str, rerun: impl FnOnce() -> Verdicts) -> bool {
    let baseline = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{name}: FAIL — cannot read {path}: {e}");
            return false;
        }
    };
    let quick = rerun();
    let schema = json_f64_field(&baseline, "schema_version") == Some(1.0);
    let mut all = Verdicts::new()
        .check(format!("{path} has schema_version 1"), schema)
        .check(
            format!("{path} records summary pass: true"),
            summary_pass(&baseline) == Some(true),
        );
    all.checks.extend(quick.checks);
    for (key, now) in quick.floors {
        // A baseline without the field fails the floor.
        let base = json_f64_field(&baseline, key).unwrap_or(f64::INFINITY);
        all = all.check(
            format!("{key} {now:.1} >= {path} {base:.1} / {MAX_REGRESSION}"),
            now * MAX_REGRESSION >= base,
        );
    }
    for (what, held) in &all.checks {
        if *held {
            println!("{name}: ok   {what}");
        } else {
            eprintln!("{name}: FAIL {what}");
        }
    }
    println!("{name}: {}", if all.pass() { "OK" } else { "FAIL" });
    all.pass()
}

/// A baseline file [`guard`] accepts (schema 1, `pass: true`, summary
/// field `ups` = 100), in the temp dir, for tests of the runner.
#[cfg(test)]
pub(crate) fn passing_baseline(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("dgs-guard-{tag}-{}.json", std::process::id()));
    let doc = Baseline::new(tag).summary(Fields::new().f64("ups", 100.0, 1), true);
    std::fs::write(&path, doc.render()).expect("write test baseline");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_full_mode_runs_write_their_baseline() {
        let dir = std::env::temp_dir().join(format!("dgs-write-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sample.json");
        let file = path.to_str().unwrap();
        let doc = Baseline::new("e99-sample").summary(Fields::new(), true);
        doc.write(file, true);
        assert!(!path.exists(), "a quick run wrote {file}");
        doc.write(file, false);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), doc.render());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn sample() -> String {
        let mut b = Baseline::new("e99-sample").config(
            Fields::new()
                .usize("n", 48)
                .u64("seed", 7)
                .str("mode", "quick"),
        );
        b.row(
            Fields::new()
                .str("mode", "scalar")
                .opt_usize("batch", None)
                .f64("updates_per_sec", 1234.567, 1),
            true,
        );
        b.row(
            Fields::new()
                .str("mode", "batched")
                .opt_usize("batch", Some(256))
                .f64("updates_per_sec", 8000.0, 1),
            false,
        );
        b.summary(
            Fields::new().f64("best", 8000.0, 1).bool("exact", true),
            true,
        )
        .render()
    }

    #[test]
    fn renders_shared_schema() {
        let s = sample();
        assert!(s.contains("\"experiment\": \"e99-sample\""));
        assert!(s.contains("\"schema_version\": 1"));
        assert!(s.contains("\"config\": {"));
        assert!(s.contains("\"batch\": null"));
        assert!(s.contains("\"updates_per_sec\": 1234.6, \"pass\": true"));
        assert!(s.contains("\"updates_per_sec\": 8000.0, \"pass\": false"));
        assert!(s.contains("\"summary\": {"));
        // Deterministic render.
        assert_eq!(s, sample());
    }

    #[test]
    fn field_parsers_read_back() {
        let s = sample();
        assert_eq!(json_f64_field(&s, "best"), Some(8000.0));
        assert_eq!(json_f64_field(&s, "n"), Some(48.0));
        assert_eq!(json_bool_field(&s, "exact"), Some(true));
        assert_eq!(json_f64_field(&s, "missing"), None);
        assert_eq!(json_bool_field(&s, "missing"), None);
    }

    #[test]
    fn summary_pass_reads_the_last_pass() {
        // Rows carry pass=true then pass=false; the summary says true —
        // summary_pass must see the summary's, not a row's.
        let s = sample();
        assert_eq!(summary_pass(&s), Some(true));
        let mut b = Baseline::new("e99-fail");
        b.row(Fields::new().usize("i", 0), true);
        let failing = b.summary(Fields::new(), false).render();
        assert_eq!(summary_pass(&failing), Some(false));
    }

    fn passing_verdicts() -> Verdicts {
        Verdicts::new()
            .zero("silent_wrong", 0)
            .positive("answered", 3)
            .equal("roots", 4, "requests", 4)
            .at_least("ratio", 0.9, 0.75)
            .check("byte-identical", true)
            .floor("ups", 21.0)
    }

    #[test]
    fn guard_passes_a_clean_run_against_a_passing_baseline() {
        let path = passing_baseline("clean");
        let path = path.to_str().unwrap();
        assert!(passing_verdicts().pass());
        assert!(guard("check-test", path, passing_verdicts));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn guard_fails_when_any_single_verdict_fails() {
        let path = passing_baseline("one-false");
        let path = path.to_str().unwrap();
        let failing: [fn() -> Verdicts; 6] = [
            || passing_verdicts().zero("silent_wrong", 1),
            || passing_verdicts().positive("answered", 0),
            || passing_verdicts().equal("roots", 3, "requests", 4),
            || passing_verdicts().at_least("ratio", 0.7, 0.75),
            || passing_verdicts().check("byte-identical", false),
            // 19 updates/s is more than 5x below the baseline's 100.
            || passing_verdicts().floor("ups", 19.0),
        ];
        for (i, rerun) in failing.into_iter().enumerate() {
            assert!(!guard("check-test", path, rerun), "verdict {i}");
        }
        // A floor on a field the baseline does not record fails too.
        assert!(!guard("check-test", path, || passing_verdicts()
            .floor("missing", 1.0)));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn guard_fails_on_a_missing_wrong_schema_or_failing_baseline() {
        let missing = std::env::temp_dir().join("dgs-guard-no-such-baseline.json");
        assert!(!guard("check-test", missing.to_str().unwrap(), || {
            panic!("no re-run without a baseline")
        }));
        let good_path = passing_baseline("variants");
        let good = std::fs::read_to_string(&good_path).unwrap();
        for (tag, doc) in [
            (
                "schema-2",
                good.replace("\"schema_version\": 1", "\"schema_version\": 2"),
            ),
            (
                "pass-false",
                good.replace("\"pass\": true", "\"pass\": false"),
            ),
        ] {
            let path = passing_baseline(tag);
            std::fs::write(&path, doc).unwrap();
            assert!(
                !guard("check-test", path.to_str().unwrap(), passing_verdicts),
                "{tag}"
            );
            let _ = std::fs::remove_file(path);
        }
        let _ = std::fs::remove_file(good_path);
    }
}
