//! The repository benchmark: seeded workloads through the public
//! `ConnectivityService` API, every answer checked, end-to-end metrics
//! with tracing off and a per-layer ledger from a separate traced run.
//! `README.md` is the usage text (`--help` prints it).

mod backend;
mod ledger;
mod script;
mod service_run;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dgs_connectivity::SpanningForestSketch;
use dgs_core::HybridConnectivitySketch;

use crate::backend::Sketch;
use crate::script::{Backend, Spec, BATCH, REPETITIONS, SNAPSHOT_INTERVAL};
use crate::service_run::{Dirs, Inputs};

const USAGE: &str = include_str!("../README.md");

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Resumes per run; `recover_s` is their median.
const RESUMES: usize = 7;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(script::workload(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {s} outside (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A run's own directory under the working directory, removed on
/// every exit path (including unwinding from a panic).
struct RunDir(PathBuf);

impl RunDir {
    fn create(label: &str) -> Result<RunDir, String> {
        let dir = Path::new(".perfbench-tmp").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no concurrent run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run prints: report lines, then the result object.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub report: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}\nrun with --help for usage");
            return ExitCode::from(2);
        }
    };
    let outcome = RunDir::create(args.spec.name).and_then(|run_dir| {
        let inp = Inputs::new(args.spec, args.seed);
        match (args.spec.backend, args.trace) {
            (Backend::Forest, false) => e2e::<SpanningForestSketch>(&inp, args.seconds, &run_dir.0),
            (Backend::Hybrid, false) => {
                e2e::<HybridConnectivitySketch>(&inp, args.seconds, &run_dir.0)
            }
            (Backend::Forest, true) => {
                ledger::traced::<SpanningForestSketch>(&inp, args.seconds, &run_dir.0)
            }
            (Backend::Hybrid, true) => {
                ledger::traced::<HybridConnectivitySketch>(&inp, args.seconds, &run_dir.0)
            }
        }
    });
    match outcome {
        Ok(out) => {
            println!(
                "# workload {} seed {} mode {} ({})",
                args.spec.name,
                args.seed,
                if args.trace { "traced" } else { "e2e" },
                args.spec.why
            );
            for line in &out.report {
                println!("# {line}");
            }
            println!("{}", result_json(&out));
            if out.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: wrong answers or state mismatch; see the report");
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("perfbench: {} failed: {msg}", args.spec.name);
            ExitCode::from(1)
        }
    }
}

fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // `+ 0.0` turns the -0.0 an empty f64 sum yields into 0.
            let v = if value.is_finite() { value + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// Peak resident memory of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Last-level cache size of CPU 0, bytes (0 when the host does not say).
fn l3_bytes() -> u64 {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .ok()
        .and_then(|s| {
            let s = s.trim();
            let (num, mult) = match s.strip_suffix('K') {
                Some(k) => (k, 1024),
                None => (s.strip_suffix('M').unwrap_or(s), 1024 * 1024),
            };
            num.parse::<u64>().ok().map(|v| v * mult)
        })
        .unwrap_or(0)
}

/// The workload properties a later change can cite the share of.
pub fn properties(inp: &Inputs, epochs: usize, pushes: usize, repetition_bytes: usize) -> String {
    let start = inp.preload_len();
    let end = start + pushes as u64;
    let snapshots = end / SNAPSHOT_INTERVAL - start / SNAPSHOT_INTERVAL;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "properties: queries_per_epoch={} updates_per_refresh={} epochs={epochs} refreshes={epochs} \
         flushes={} snapshots={snapshots} peak_live_support={} spill_threshold={} \
         delete_share={:.3} repetition_bytes={repetition_bytes} repetitions={REPETITIONS} l3_bytes={} \
         repetition_over_l3={:.2} nproc={nproc} threads={}",
        inp.spec.queries_per_epoch(),
        inp.spec.refresh_every,
        pushes / BATCH,
        inp.truth.peak_support(),
        dgs_core::HybridConfig::default().spill_threshold,
        inp.truth.delete_share(),
        l3_bytes(),
        repetition_bytes as f64 / l3_bytes().max(1) as f64,
        inp.spec.threads,
    )
}

/// Percentile lines for the report, with sample counts, each shown only
/// where at least ten samples lie beyond it.
pub fn tail_line(what: &str, samples_ns: &[f64], scale: f64, unit: &str) -> String {
    let sorted = stats::sorted(samples_ns);
    let mut parts = vec![format!("{what}: n={}", sorted.len())];
    for (label, q) in [("p50", 0.5), ("p99", 0.99), ("p99.9", 0.999)] {
        match stats::supported(&sorted, q) {
            Some(v) => parts.push(format!(
                "{label}={:.3}{unit} ({} beyond)",
                v / scale,
                stats::beyond(sorted.len(), q)
            )),
            None => parts.push(format!("{label}=unsupported")),
        }
    }
    parts.join(" ")
}

/// The end-to-end run: tracing off, null metrics sink.
fn e2e<S: Sketch>(inp: &Inputs, seconds: f64, root: &Path) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let dirs = Dirs::under(root, &format!("setup{k}"));
        let t = Instant::now();
        let svc = service_run::setup::<S>(inp, &dirs, true)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if k + 1 == SETUPS {
            kept = Some((svc, dirs));
        } else {
            drop(svc);
            dirs.remove();
        }
    }
    let (svc, dirs) = kept.expect("at least one set-up");
    let pass = service_run::run_for(&svc, inp, seconds);
    let wrong = service_run::silent_wrong(inp, &pass.answers);
    let crash = service_run::crash(svc, inp)?;
    let recover_s = (0..RESUMES)
        .map(|_| service_run::resume::<S>(inp, &dirs, &crash))
        .collect::<Result<Vec<f64>, String>>()?;
    let state_bytes: usize = crash.encodings.iter().map(Vec::len).sum();
    let metrics = vec![
        ("setup_s", stats::median(&setup_s), "s"),
        ("ingest_ups", pass.ingest_ups(), "updates/s"),
        ("push_p50_us", stats::median(&pass.push_ns) / 1e3, "us"),
        ("query_p50_us", stats::median(&pass.query_ns) / 1e3, "us"),
        ("recover_s", stats::median(&recover_s), "s"),
        ("state_bytes", state_bytes as f64, "bytes"),
        ("peak_rss_mb", peak_rss_mib(), "MiB"),
    ];
    let attempted = pass.attempted();
    let report = vec![
        properties(
            inp,
            pass.epochs,
            pass.push_ns.len(),
            state_bytes / REPETITIONS,
        ),
        tail_line("push latency", &pass.push_ns, 1e3, "us"),
        tail_line("query latency", &pass.query_ns, 1e3, "us"),
        format!(
            "push classes: {}; summed-time ingest_ups={:.1}",
            pass.class_summary(),
            pass.raw_ingest_ups()
        ),
        format!("setup_s samples {setup_s:?}; recover_s samples {recover_s:?}"),
        format!(
            "answers checked={} silent_wrong={wrong} failed={} rejections={} failed_frac={:.6} \
             crash_offset={} recovery byte-identical on all {REPETITIONS} shards",
            pass.answers.len(),
            pass.failed,
            pass.rejections,
            pass.failed as f64 / attempted.max(1) as f64,
            crash.offset,
        ),
    ];
    Ok(Outcome {
        correct: wrong == 0,
        attempted,
        failed: pass.failed,
        metrics,
        report,
    })
}
