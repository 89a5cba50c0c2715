//! E19 — query latency: decode wall-time vs |V|, threads, and k.
//!
//! The decode engine (`SpanningForestSketch::try_decode_with_scratch`)
//! replaces the historical clone-and-merge Borůvka decoder: per round it
//! samples each component by folding its members' ℓ0 levels one at a time,
//! only as far as the level walk reads (lazy u128 sums, eight members per
//! pass), stripes components over the worker pool, and peels with table
//! inverses and a cached power table of the level's fingerprint point
//! instead of Fermat inversions and `z.pow`. The historical decoder is
//! retained as `try_decode_reference` and is the sequential baseline every
//! engine row's speedup is measured against — and because both paths are
//! exact field arithmetic over the same seeds, every engine answer must be
//! byte-identical to the reference's, which this experiment asserts on
//! every row while writing the machine-readable baseline `BENCH_query.json`
//! that the CI bench-smoke job (`experiments check-query`) guards.
//!
//! Alongside the forest grid, skeleton peels (`k` layers) and
//! vertex-connectivity certificates (`R` subgraphs) are timed sequential vs
//! parallel, exactness asserted the same way.

use std::time::Instant;

use crate::baseline::{Baseline, Fields, Verdicts};
use dgs_connectivity::{DecodeScratch, KSkeletonSketch, SpanningForestSketch};
use dgs_core::{VertexConnConfig, VertexConnSketch};
use dgs_field::prng::*;
use dgs_field::SeedTree;
use dgs_hypergraph::generators::gnm;
use dgs_hypergraph::{EdgeSpace, HyperEdge};
use dgs_sketch::Profile;

use crate::report::Table;
use crate::workloads::lean_forest;

pub struct RowOut {
    pub mode: &'static str,
    pub n: usize,
    pub k: usize,
    pub threads: usize,
    pub decode_ms: f64,
    pub speedup: f64,
    pub exact: bool,
}

pub struct Measurement {
    pub trials: usize,
    /// Engine speedup vs the reference decoder at 4 threads on the largest
    /// forest workload — the headline number the CI guard asserts on.
    pub forest_par4_speedup: f64,
    /// Best engine decode throughput (decodes/sec) on the largest forest
    /// workload, the regression-guard scalar.
    pub best_engine_decodes_per_sec: f64,
    pub rows: Vec<RowOut>,
}

/// The 4-thread engine speedup over the reference decoder that every run
/// must keep.
const MIN_PAR4_SPEEDUP: f64 = 1.5;

/// The acceptance verdicts: every row exact against its sequential
/// baseline, the engine at least `MIN_PAR4_SPEEDUP`x the reference at 4
/// threads, and decode throughput within
/// [`crate::baseline::MAX_REGRESSION`]x of the checked-in baseline.
pub fn verdicts(m: &Measurement) -> Verdicts {
    m.rows
        .iter()
        .fold(Verdicts::new(), |v, r| {
            v.check(
                format!("{} n {} k {} threads {} exact", r.mode, r.n, r.k, r.threads),
                r.exact,
            )
        })
        .at_least(
            "forest_par4_speedup",
            m.forest_par4_speedup,
            MIN_PAR4_SPEEDUP,
        )
        .floor("best_engine_decodes_per_sec", m.best_engine_decodes_per_sec)
}

fn forest_sketch(n: usize, seed: u64) -> SpanningForestSketch {
    let space = EdgeSpace::graph(n).unwrap();
    let mut sk = SpanningForestSketch::new_full(space, &SeedTree::new(seed), lean_forest());
    let g = gnm(n, 4 * n, &mut StdRng::seed_from_u64(seed ^ 1));
    let pairs: Vec<(HyperEdge, i64)> = g
        .edges()
        .map(|(u, v)| (HyperEdge::pair(u, v), 1i64))
        .collect();
    for chunk in pairs.chunks(1024) {
        sk.try_update_batch(chunk).expect("ingest");
    }
    sk
}

/// Interleaved paired timing: each trial times every variant back to back
/// before the next trial starts. Shared hosts hand out bursty CPU (a fresh
/// process runs 2-3x faster until its burst quota drains), so timing
/// variant A's trials and then variant B's would systematically bias the
/// A/B ratio; interleaving puts every variant in the same machine phase
/// within a trial, and per-trial ratios stay meaningful. Returns
/// `times[variant][trial]` in milliseconds.
fn time_grid(trials: usize, variants: &mut [&mut (dyn FnMut() + '_)]) -> Vec<Vec<f64>> {
    let mut times = vec![vec![0.0f64; trials]; variants.len()];
    for trial in 0..trials {
        for (f, series) in variants.iter_mut().zip(times.iter_mut()) {
            let t = Instant::now();
            f();
            series[trial] = t.elapsed().as_secs_f64() * 1e3;
        }
    }
    times
}

/// Best (minimum) of a trial series — one-sided noise, as in E17.
fn best_ms(ts: &[f64]) -> f64 {
    ts.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of the paired per-trial ratios `base[i] / other[i]` — the
/// drift-robust speedup estimate for an interleaved grid.
fn paired_speedup(base: &[f64], other: &[f64]) -> f64 {
    let mut r: Vec<f64> = base.iter().zip(other).map(|(a, b)| a / b).collect();
    r.sort_by(f64::total_cmp);
    r[r.len() / 2]
}

/// Runs the measurement grid. Separated from [`run`] so the CI guard
/// (`check-query`) can re-measure without printing tables.
pub fn measure(quick: bool) -> Measurement {
    let seed = 0xE19;
    let trials = if quick { 3 } else { 5 };
    let sizes: &[usize] = if quick {
        &[256, 1024]
    } else {
        &[256, 1024, 2048]
    };
    let thread_counts = [1usize, 2, 4];
    let mut rows: Vec<RowOut> = Vec::new();
    let mut forest_par4_speedup = 0.0f64;
    let mut best_engine_decodes_per_sec = 0.0f64;

    for &n in sizes {
        let sk = forest_sketch(n, seed);
        let reference = sk.try_decode_reference(false).expect("reference decode");
        let ref_answer = (reference.0.clone(), {
            let mut uf = reference.1.clone();
            uf.labels()
        });
        // Exactness first (doubles as warmup for every scratch).
        let mut scratches: Vec<DecodeScratch> =
            thread_counts.iter().map(|_| DecodeScratch::new()).collect();
        let mut exacts = Vec::with_capacity(thread_counts.len());
        for (scr, &t) in scratches.iter_mut().zip(&thread_counts) {
            let got = sk.try_decode_with_scratch(false, t, scr).unwrap();
            exacts.push(
                got.0 == ref_answer.0 && {
                    let mut uf = got.1.clone();
                    uf.labels() == ref_answer.1
                },
            );
        }
        let sk_ref = &sk;
        let mut fns: Vec<Box<dyn FnMut() + '_>> = vec![Box::new(move || {
            std::hint::black_box(sk_ref.try_decode_reference(false).unwrap());
        })];
        for (scr, &t) in scratches.iter_mut().zip(&thread_counts) {
            fns.push(Box::new(move || {
                std::hint::black_box(sk_ref.try_decode_with_scratch(false, t, scr).unwrap());
            }));
        }
        let mut variants: Vec<&mut (dyn FnMut() + '_)> =
            fns.iter_mut().map(|b| b.as_mut()).collect();
        let times = time_grid(trials, &mut variants);
        rows.push(RowOut {
            mode: "forest-reference",
            n,
            k: 1,
            threads: 1,
            decode_ms: best_ms(&times[0]),
            speedup: 1.0,
            exact: true,
        });
        for (i, &t) in thread_counts.iter().enumerate() {
            let ms = best_ms(&times[i + 1]);
            let speedup = paired_speedup(&times[0], &times[i + 1]);
            if t == 4 && n == *sizes.last().unwrap() {
                forest_par4_speedup = speedup;
            }
            if n == *sizes.last().unwrap() {
                best_engine_decodes_per_sec = best_engine_decodes_per_sec.max(1e3 / ms);
            }
            rows.push(RowOut {
                mode: "forest-engine",
                n,
                k: 1,
                threads: t,
                decode_ms: ms,
                speedup,
                exact: exacts[i],
            });
        }
    }

    // Skeleton peels: k sequential layer decodes with cross-layer forest
    // subtraction; speedup vs the engine's own 1-thread row.
    let skel_n = if quick { 48 } else { 96 };
    for k in [2usize, 4] {
        let space = EdgeSpace::graph(skel_n).unwrap();
        let mut sk = KSkeletonSketch::new(space, k, &SeedTree::new(seed + k as u64), lean_forest());
        let g = gnm(skel_n, 5 * skel_n, &mut StdRng::seed_from_u64(seed + 7));
        for (u, v) in g.edges() {
            sk.try_update(&HyperEdge::pair(u, v), 1)
                .expect("stream edges lie in the sketch's space");
        }
        let seq_layers = sk.try_decode_layers_par(1).expect("skeleton decode");
        let skel_threads = [1usize, 2, 4];
        let exacts: Vec<bool> = skel_threads
            .iter()
            .map(|&t| sk.try_decode_layers_par(t).unwrap() == seq_layers)
            .collect();
        let sk_ref = &sk;
        let mut fns: Vec<Box<dyn FnMut() + '_>> = skel_threads
            .iter()
            .map(|&t| {
                Box::new(move || {
                    std::hint::black_box(sk_ref.try_decode_layers_par(t).unwrap());
                }) as Box<dyn FnMut()>
            })
            .collect();
        let mut variants: Vec<&mut (dyn FnMut() + '_)> =
            fns.iter_mut().map(|b| b.as_mut()).collect();
        let times = time_grid(trials, &mut variants);
        for (i, &t) in skel_threads.iter().enumerate() {
            rows.push(RowOut {
                mode: "skeleton",
                n: skel_n,
                k,
                threads: t,
                decode_ms: best_ms(&times[i]),
                speedup: if i == 0 {
                    1.0
                } else {
                    paired_speedup(&times[0], &times[i])
                },
                exact: exacts[i],
            });
        }
    }

    // Vertex-connectivity certificates: R independent subgraph decodes
    // fanned out across threads.
    let vc_n = if quick { 48 } else { 96 };
    let cfg = VertexConnConfig::query(2, vc_n, 2.0, Profile::Practical);
    let space = EdgeSpace::graph(vc_n).unwrap();
    let mut vc = VertexConnSketch::new(space, cfg, &SeedTree::new(seed + 40));
    let g = gnm(vc_n, 5 * vc_n, &mut StdRng::seed_from_u64(seed + 9));
    for (u, v) in g.edges() {
        vc.try_update(&HyperEdge::pair(u, v), 1)
            .expect("stream edges lie in the sketch's space");
    }
    let seq_cert = vc.try_certificate().expect("vc certificate");
    let vc_threads = [1usize, 2, 4];
    let exacts: Vec<bool> = vc_threads
        .iter()
        .map(|&t| {
            if t == 1 {
                true
            } else {
                vc.try_certificate_par(t).unwrap().union.edges() == seq_cert.union.edges()
            }
        })
        .collect();
    let vc_ref = &vc;
    let mut fns: Vec<Box<dyn FnMut() + '_>> = vc_threads
        .iter()
        .map(|&t| {
            Box::new(move || {
                if t == 1 {
                    std::hint::black_box(vc_ref.try_certificate().unwrap());
                } else {
                    std::hint::black_box(vc_ref.try_certificate_par(t).unwrap());
                }
            }) as Box<dyn FnMut()>
        })
        .collect();
    let mut variants: Vec<&mut (dyn FnMut() + '_)> = fns.iter_mut().map(|b| b.as_mut()).collect();
    let times = time_grid(trials, &mut variants);
    for (i, &t) in vc_threads.iter().enumerate() {
        rows.push(RowOut {
            mode: "vc-certificate",
            n: vc_n,
            k: 2,
            threads: t,
            decode_ms: best_ms(&times[i]),
            speedup: if i == 0 {
                1.0
            } else {
                paired_speedup(&times[0], &times[i])
            },
            exact: exacts[i],
        });
    }

    Measurement {
        trials,
        forest_par4_speedup,
        best_engine_decodes_per_sec,
        rows,
    }
}

pub fn run(quick: bool) {
    let meas = measure(quick);
    let mut table = Table::new(
        "E19: query latency (decode wall-time, ms)",
        &["mode", "n", "k", "threads", "decode ms", "speedup", "exact"],
    );
    for r in &meas.rows {
        table.row(vec![
            r.mode.to_string(),
            r.n.to_string(),
            r.k.to_string(),
            r.threads.to_string(),
            format!("{:.3}", r.decode_ms),
            format!("{:.2}x", r.speedup),
            r.exact.to_string(),
        ]);
    }
    table.note(format!(
        "decode ms = best of {} interleaved trial(s); speedup = median of \
         paired per-trial ratios (robust to burst-quota CPU drift)",
        meas.trials
    ));
    table.note(
        "forest-engine speedup is vs the clone-and-merge reference decoder \
         (try_decode_reference); skeleton/vc speedups are vs their own \
         1-thread engine row",
    );
    table.note("exact = decoded edges and component labels byte-identical to the baseline row");
    table.print();
    write_baseline(&meas, verdicts(&meas).pass(), quick);
}

/// `BENCH_query.json` in the shared [`crate::baseline`] schema: a row per
/// decode engine configuration (`pass` = exactness held), summary speedup
/// and throughput aggregates for the CI guard.
fn write_baseline(meas: &Measurement, pass: bool, quick: bool) {
    let mut b = Baseline::new("e19-query").config(Fields::new().usize("trials", meas.trials));
    for r in &meas.rows {
        b.row(
            Fields::new()
                .str("mode", r.mode)
                .usize("n", r.n)
                .usize("k", r.k)
                .usize("threads", r.threads)
                .f64("decode_ms", r.decode_ms, 4)
                .f64("speedup", r.speedup, 3)
                .bool("exact", r.exact),
            r.exact,
        );
    }
    b.summary(
        Fields::new()
            .f64("forest_par4_speedup", meas.forest_par4_speedup, 3)
            .f64(
                "best_engine_decodes_per_sec",
                meas.best_engine_decodes_per_sec,
                2,
            ),
        pass,
    )
    .write("BENCH_query.json", quick);
}
