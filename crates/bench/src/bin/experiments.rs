//! Experiment driver: regenerates the per-theorem tables of EXPERIMENTS.md.
//!
//! ```text
//! experiments all [--quick]            # the whole suite
//! experiments e1 e8 [--quick]          # selected experiments
//! experiments list                     # id -> claim mapping
//! experiments check-ingest [baseline]  # CI guard vs BENCH_ingest.json
//! experiments check-query [baseline]   # CI guard vs BENCH_query.json
//! ```

use std::process::ExitCode;

use dgs_bench::baseline::{guard, Verdicts};
use dgs_bench::experiments::{
    e16_recovery, e17_ingest, e18_obs, e19_query, e20_chaos, e21_service, e22_trace, e23_hybrid,
};

/// A guarded experiment's quick re-run, judged by its own verdicts.
type Rerun = fn() -> Verdicts;

/// The CI guards: subcommand, default baseline file, and the quick re-run
/// [`guard`] enforces against that baseline.
const CHECKS: &[(&str, &str, Rerun)] = &[
    ("check-recovery", "BENCH_recovery.json", || {
        e16_recovery::verdicts(&e16_recovery::measure(true))
    }),
    ("check-ingest", "BENCH_ingest.json", || {
        e17_ingest::verdicts(&e17_ingest::measure(true))
    }),
    ("check-obs", "BENCH_obs.json", || {
        e18_obs::verdicts(&e18_obs::measure(true))
    }),
    ("check-query", "BENCH_query.json", || {
        e19_query::verdicts(&e19_query::measure(true))
    }),
    ("check-chaos", "BENCH_chaos.json", || {
        e20_chaos::verdicts(&e20_chaos::measure(true))
    }),
    ("check-service", "BENCH_service.json", || {
        e21_service::verdicts(&e21_service::measure(true))
    }),
    ("check-trace", "BENCH_trace.json", || {
        e22_trace::verdicts(&e22_trace::measure(true))
    }),
    ("check-hybrid", "BENCH_hybrid.json", || {
        e23_hybrid::verdicts(&e23_hybrid::measure(true))
    }),
];

const DESCRIPTIONS: &[(&str, &str)] = &[
    ("e1", "Thm 4: vertex-removal query structure"),
    ("e2", "Thm 5: Ω(kn) indexing lower-bound protocol"),
    ("e3", "Thm 6/8: (1+ε) vertex-connectivity estimator"),
    (
        "e4",
        "Thm 13: hypergraph spanning-graph sketch / connectivity",
    ),
    ("e5", "Thm 14: k-skeleton sketches"),
    (
        "e6",
        "Thm 15: light_k recovery & cut-degenerate reconstruction",
    ),
    ("e7", "Lemma 16: light_k = low-strength edges"),
    ("e8", "Lemma 18/Thm 19-20: hypergraph sparsifier"),
    ("e9", "Thm 21: scan-first-search-tree Ω(n²) reduction"),
    ("e10", "space/time scaling vs baselines"),
    ("e11", "Section 4.2 ablation: sketch reuse fallacy"),
    ("e12", "Section 1.1: insert-only certificate vs deletions"),
    ("e13", "l0-sampler parameter ablation"),
    ("e14", "edge connectivity min(λ,k) from k-skeletons"),
    ("e15", "simultaneous communication model: message sizes"),
    (
        "e16",
        "crash recovery: recovery time vs checkpoint interval",
    ),
    (
        "e17",
        "ingest throughput: scalar vs batched kernels vs sharded threads",
    ),
    (
        "e18",
        "observed failure rates vs delta/delta^R bounds (dgs-obs counters)",
    ),
    (
        "e19",
        "query latency: level-on-demand decode vs the reference decoder",
    ),
    (
        "e20",
        "self-healing soak: availability & correctness under chaos campaigns",
    ),
    (
        "e21",
        "service under load: queries/sec vs ingest, overload ladder honesty",
    ),
    (
        "e22",
        "request tracing: span completeness, postmortems per typed failure, overhead",
    ),
    (
        "e23",
        "hybrid sparse/sketch backend: exact fast path vs sketch-only, spill exactness",
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    if ids.is_empty() || ids.iter().any(|a| a.as_str() == "help") {
        let checks: String = CHECKS
            .iter()
            .map(|(cmd, _, _)| format!(" | {cmd} [baseline]"))
            .collect();
        eprintln!(
            "usage: experiments <all | list{checks} \
             | obs-report [--postmortem <file>] | e1 .. e23>... [--quick]"
        );
        return ExitCode::from(2);
    }
    let first = ids.first().map(|a| a.as_str());
    if let Some((cmd, default, rerun)) = CHECKS.iter().find(|(cmd, _, _)| Some(*cmd) == first) {
        let baseline = ids.get(1).map_or(*default, |s| s.as_str());
        return if guard(cmd, baseline, rerun) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if first == Some("obs-report") {
        if args.iter().any(|a| a == "--postmortem") {
            // The file path is the operand after the flag.
            let Some(path) = ids.get(1) else {
                eprintln!("usage: experiments obs-report --postmortem <file.dgspm>");
                return ExitCode::from(2);
            };
            return if e22_trace::render_postmortem(path) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        e18_obs::obs_report(quick);
        return ExitCode::SUCCESS;
    }
    if ids.iter().any(|a| a.as_str() == "list") {
        for (id, desc) in DESCRIPTIONS {
            println!("{id:>4}  {desc}");
        }
        return ExitCode::SUCCESS;
    }
    if ids.iter().any(|a| a.as_str() == "all") {
        println!(
            "Running the full experiment suite{}...",
            if quick { " (quick)" } else { "" }
        );
        dgs_bench::experiments::run_all(quick);
        return ExitCode::SUCCESS;
    }
    for id in ids {
        if !dgs_bench::experiments::run(id, quick) {
            eprintln!("unknown experiment id: {id} (try `experiments list`)");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
