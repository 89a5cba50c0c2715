//! E23 — hybrid sparse/sketch backend: exact fast path vs sketch-only.
//!
//! Races [`HybridConnectivitySketch`] against a plain
//! [`SpanningForestSketch`] across support densities and spill thresholds.
//! Below the spill threshold the hybrid's updates land in an exact
//! signed-multiplicity buffer (hash-map work, no field arithmetic) and its
//! decode is union-find over the buffered support (no ℓ0 sampling) — both
//! are expected to beat the sketch by well over the acceptance floors
//! (ingest ≥ 5x, decode ≥ 10x). Above the threshold the buffer spills into
//! the sketch by linear replay and the hybrid pays the sketch price plus a
//! small tracking overhead — the point of the dense rows is that its
//! *answers and bytes* stay identical, not that it stays fast.
//!
//! Every row verifies the hybrid against the sketch-only oracle **before,
//! across, and after spill** (three mid-stream cuts): canonical component
//! labels must agree at every cut, the inner sketch must be byte-identical
//! to direct ingestion whenever spilled (and byte-identical to a fresh
//! zero sketch whenever resident), and a crash-recovery cycle at the
//! middle cut (encode → decode → replay the tail) must land bytes and
//! answers identical to the uninterrupted run. `BENCH_hybrid.json` feeds
//! the `check-hybrid` CI guard.

use std::time::Instant;

use dgs_connectivity::SpanningForestSketch;
use dgs_core::{HybridConfig, HybridConnectivitySketch, HybridMode};
use dgs_field::prng::*;
use dgs_field::{Codec, Reader, SeedTree, Writer};
use dgs_hypergraph::generators::gnm;
use dgs_hypergraph::{EdgeSpace, HyperEdge, Hypergraph, VertexId};

use crate::baseline::{Baseline, Fields, Verdicts};
use crate::report::Table;
use crate::workloads::{default_stream, lean_forest};

/// Chunk size every ingest variant uses (mirrors E17's crossover batch).
const BATCH: usize = 256;
/// Acceptance floors for rows whose workload stays below the spill
/// threshold (ISSUE 10 / ROADMAP "real traffic" lever).
const SPARSE_INGEST_FLOOR: f64 = 5.0;
const SPARSE_DECODE_FLOOR: f64 = 10.0;

fn fresh_sketch(n: usize, seed: u64) -> SpanningForestSketch {
    let space = EdgeSpace::graph(n).unwrap();
    SpanningForestSketch::new_full(space, &SeedTree::new(seed), lean_forest())
}

fn fresh_hybrid(n: usize, seed: u64, spill: usize) -> HybridConnectivitySketch {
    HybridConnectivitySketch::new(
        fresh_sketch(n, seed),
        HybridConfig {
            spill_threshold: spill,
            unspill_threshold: spill / 4,
            // Effectively unbounded, but within the codec's sanity cap.
            max_tracked_support: 1 << 40,
        },
    )
}

fn encoded<T: Codec>(t: &T) -> Vec<u8> {
    let mut w = Writer::new();
    t.encode(&mut w);
    w.into_bytes()
}

/// Canonical min-vertex component labels for the sketch-only oracle — the
/// same canonicalization [`HybridConnectivitySketch::try_component_labels`]
/// uses, so the two are comparable byte-for-byte.
fn oracle_labels(s: &SpanningForestSketch) -> Vec<VertexId> {
    let (_, mut uf) = s.try_decode_with_labels().expect("oracle decode");
    let vertices = s.vertices();
    let mut min_of_root: Vec<VertexId> = vec![VertexId::MAX; vertices.len()];
    let mut roots: Vec<u32> = Vec::with_capacity(vertices.len());
    for (i, &v) in vertices.iter().enumerate() {
        let r = uf.find(i as u32);
        roots.push(r);
        if min_of_root[r as usize] == VertexId::MAX {
            min_of_root[r as usize] = v;
        }
    }
    roots.into_iter().map(|r| min_of_root[r as usize]).collect()
}

pub struct RowOut {
    /// `sparse` (stays below the spill threshold) or `dense` (spills).
    pub label: &'static str,
    pub spill_threshold: usize,
    pub support: usize,
    pub resident_at_end: bool,
    pub hybrid_updates_per_sec: f64,
    pub sketch_updates_per_sec: f64,
    pub ingest_speedup: f64,
    pub hybrid_decode_us: f64,
    pub sketch_decode_us: f64,
    pub decode_speedup: f64,
    /// Canonical labels agreed with the oracle at every cut.
    pub answers_match: bool,
    /// Inner sketch byte-identical to direct ingest (spilled) / a fresh
    /// zero sketch (resident) at every cut.
    pub bytes_match: bool,
    /// Encode → decode → replay-tail landed identical bytes and answers.
    pub recovery_ok: bool,
    pub pass: bool,
}

pub struct Measurement {
    pub n: usize,
    pub updates: usize,
    pub trials: usize,
    pub rows: Vec<RowOut>,
    pub min_sparse_ingest_speedup: f64,
    pub min_sparse_decode_speedup: f64,
}

/// The acceptance verdicts: every row passes — exact against the
/// sketch-only oracle at every cut and through recovery, sparse rows
/// resident above both floors, dense rows spilled.
pub fn verdicts(m: &Measurement) -> Verdicts {
    m.rows.iter().fold(Verdicts::new(), |v, r| {
        let row = format!(
            "{} spill@{} support {}",
            r.label, r.spill_threshold, r.support
        );
        v.check(format!("{row} passes"), r.pass)
    })
}

/// One row: verify at three cuts (correctness pass), then time ingest and
/// decode on fresh instances.
#[allow(clippy::too_many_arguments)]
fn run_row(
    n: usize,
    seed: u64,
    spill: usize,
    support: usize,
    target: usize,
    trials: usize,
    decode_iters: usize,
    label: &'static str,
) -> RowOut {
    let mut rng = StdRng::seed_from_u64(seed);
    let h = Hypergraph::from_graph(&gnm(n, support, &mut rng));
    let base = default_stream(&h, &mut rng);
    let mut pairs: Vec<(HyperEdge, i64)> = Vec::with_capacity(target + base.updates.len());
    while pairs.len() < target {
        pairs.extend(base.updates.iter().map(|u| (u.edge.clone(), u.op.delta())));
    }
    let m = pairs.len();
    let cuts = [m / 3, 2 * m / 3, m];

    // Correctness pass: hybrid and sketch-only oracle side by side, with a
    // crash-recovery clone forked at the middle cut.
    let mut hybrid = fresh_hybrid(n, seed, spill);
    let mut oracle = fresh_sketch(n, seed);
    let mut recovered: Option<HybridConnectivitySketch> = None;
    let mut answers_match = true;
    let mut bytes_match = true;
    let mut recovery_ok = true;
    let mut start = 0usize;
    for (ci, &cut) in cuts.iter().enumerate() {
        for chunk in pairs[start..cut].chunks(BATCH) {
            hybrid.try_update_batch(chunk).expect("hybrid ingest");
            oracle.try_update_batch(chunk).expect("oracle ingest");
            if let Some(r) = recovered.as_mut() {
                r.try_update_batch(chunk).expect("recovered ingest");
            }
        }
        start = cut;
        answers_match &=
            hybrid.try_component_labels().expect("hybrid labels") == oracle_labels(&oracle);
        bytes_match &= match hybrid.mode() {
            HybridMode::Resident => encoded(hybrid.sketch()) == encoded(&fresh_sketch(n, seed)),
            _ => encoded(hybrid.sketch()) == encoded(&oracle),
        };
        if ci == 1 {
            // Crash-recovery cycle: snapshot the hybrid mid-stream, decode
            // it back, and let the clone ride the remaining tail.
            let snap = encoded(&hybrid);
            let back =
                HybridConnectivitySketch::decode(&mut Reader::new(&snap)).expect("snapshot decode");
            recovery_ok &= encoded(&back) == snap;
            recovered = Some(back);
        }
    }
    if let Some(r) = recovered.as_ref() {
        recovery_ok &= encoded(r) == encoded(&hybrid);
        recovery_ok &= r.try_component_labels().expect("recovered labels")
            == hybrid.try_component_labels().expect("hybrid labels");
    } else {
        recovery_ok = false;
    }
    let resident_at_end = hybrid.is_resident();

    // Ingest timing: best of `trials` on fresh instances (the sketch is
    // linear, so throughput is state-independent; best-of because noise is
    // one-sided).
    let mut hybrid_ups = 0.0f64;
    for _ in 0..trials {
        let mut hy = fresh_hybrid(n, seed, spill);
        let t = Instant::now();
        for chunk in pairs.chunks(BATCH) {
            hy.try_update_batch(chunk).expect("hybrid ingest");
        }
        hybrid_ups = hybrid_ups.max(m as f64 / t.elapsed().as_secs_f64());
    }
    let mut sketch_ups = 0.0f64;
    for _ in 0..trials {
        let mut sk = fresh_sketch(n, seed);
        let t = Instant::now();
        for chunk in pairs.chunks(BATCH) {
            sk.try_update_batch(chunk).expect("sketch ingest");
        }
        sketch_ups = sketch_ups.max(m as f64 / t.elapsed().as_secs_f64());
    }

    // Decode timing on the final states of the correctness pass.
    let t = Instant::now();
    for _ in 0..decode_iters {
        std::hint::black_box(hybrid.try_component_count().expect("hybrid decode"));
    }
    let hybrid_decode_us = t.elapsed().as_secs_f64() * 1e6 / decode_iters as f64;
    let t = Instant::now();
    for _ in 0..decode_iters {
        std::hint::black_box(oracle.try_component_count().expect("sketch decode"));
    }
    let sketch_decode_us = t.elapsed().as_secs_f64() * 1e6 / decode_iters as f64;

    let ingest_speedup = hybrid_ups / sketch_ups;
    let decode_speedup = sketch_decode_us / hybrid_decode_us;
    let correct = answers_match && bytes_match && recovery_ok;
    let pass = if label == "sparse" {
        // Sparse rows must stay resident and clear the acceptance floors.
        correct
            && resident_at_end
            && ingest_speedup >= SPARSE_INGEST_FLOOR
            && decode_speedup >= SPARSE_DECODE_FLOOR
    } else {
        // Dense rows must have spilled (the floors don't apply there: the
        // hybrid is paying the sketch price plus tracking).
        correct && !resident_at_end
    };
    RowOut {
        label,
        spill_threshold: spill,
        support,
        resident_at_end,
        hybrid_updates_per_sec: hybrid_ups,
        sketch_updates_per_sec: sketch_ups,
        ingest_speedup,
        hybrid_decode_us,
        sketch_decode_us,
        decode_speedup,
        answers_match,
        bytes_match,
        recovery_ok,
        pass,
    }
}

/// Runs the measurement grid. Separated from [`run`] so the CI guard
/// (`check-hybrid`) can re-measure without printing tables.
pub fn measure(quick: bool) -> Measurement {
    let n: usize = if quick { 128 } else { 256 };
    let target: usize = if quick { 8_000 } else { 40_000 };
    let trials = if quick { 1 } else { 3 };
    let decode_iters = if quick { 3 } else { 10 };
    let seed = 0xE23;
    // (spill threshold, supports): one support safely below the threshold
    // (the churn stream's noise transients peak at ~1.5x the support, so
    // threshold/4 never spills) and one safely above it.
    let thresholds: &[usize] = if quick { &[64] } else { &[256, 1024] };

    let mut rows = Vec::new();
    for (ti, &thr) in thresholds.iter().enumerate() {
        let row_seed = seed + ti as u64 * 101;
        rows.push(run_row(
            n,
            row_seed,
            thr,
            thr / 4,
            target,
            trials,
            decode_iters,
            "sparse",
        ));
        rows.push(run_row(
            n,
            row_seed ^ 0x5D,
            thr,
            2 * thr,
            target,
            trials,
            decode_iters,
            "dense",
        ));
    }

    let sparse_min = |f: fn(&RowOut) -> f64| {
        rows.iter()
            .filter(|r| r.label == "sparse")
            .map(f)
            .fold(f64::INFINITY, f64::min)
    };
    Measurement {
        n,
        updates: target,
        trials,
        min_sparse_ingest_speedup: sparse_min(|r| r.ingest_speedup),
        min_sparse_decode_speedup: sparse_min(|r| r.decode_speedup),
        rows,
    }
}

pub fn run(quick: bool) {
    let meas = measure(quick);
    let mut table = Table::new(
        "E23: hybrid sparse/sketch backend vs sketch-only",
        &[
            "workload",
            "spill@",
            "support",
            "mode@end",
            "hybrid u/s",
            "sketch u/s",
            "ingest x",
            "decode x",
            "oracle==",
            "pass",
        ],
    );
    for r in &meas.rows {
        table.row(vec![
            r.label.to_string(),
            r.spill_threshold.to_string(),
            r.support.to_string(),
            if r.resident_at_end {
                "resident".to_string()
            } else {
                "spilled".to_string()
            },
            format!("{:.0}", r.hybrid_updates_per_sec),
            format!("{:.0}", r.sketch_updates_per_sec),
            format!("{:.1}x", r.ingest_speedup),
            format!("{:.1}x", r.decode_speedup),
            (r.answers_match && r.bytes_match && r.recovery_ok).to_string(),
            r.pass.to_string(),
        ]);
    }
    table.note(format!(
        "workload: {} updates (tiled churn) over n = {}; best of {} trial(s) per row",
        meas.updates, meas.n, meas.trials
    ));
    table.note(
        "oracle== = canonical labels equal the sketch-only oracle at all three cuts, \
         inner-sketch bytes exact per mode, crash-recovery cycle bit-identical",
    );
    table.note(format!(
        "sparse floors (acceptance): ingest >= {SPARSE_INGEST_FLOOR}x, \
         decode >= {SPARSE_DECODE_FLOOR}x; dense rows must spill and stay exact"
    ));
    table.print();
    write_baseline(&meas, quick);
}

/// `BENCH_hybrid.json` in the shared [`crate::baseline`] schema; `pass` =
/// [`verdicts`].
fn write_baseline(meas: &Measurement, quick: bool) {
    let mut b = Baseline::new("e23-hybrid").config(
        Fields::new()
            .usize("n", meas.n)
            .usize("updates", meas.updates)
            .usize("trials", meas.trials)
            .f64("sparse_ingest_floor", SPARSE_INGEST_FLOOR, 1)
            .f64("sparse_decode_floor", SPARSE_DECODE_FLOOR, 1),
    );
    for r in &meas.rows {
        b.row(
            Fields::new()
                .str("workload", r.label)
                .usize("spill_threshold", r.spill_threshold)
                .usize("support", r.support)
                .bool("resident_at_end", r.resident_at_end)
                .f64("hybrid_updates_per_sec", r.hybrid_updates_per_sec, 1)
                .f64("sketch_updates_per_sec", r.sketch_updates_per_sec, 1)
                .f64("ingest_speedup", r.ingest_speedup, 3)
                .f64("hybrid_decode_us", r.hybrid_decode_us, 2)
                .f64("sketch_decode_us", r.sketch_decode_us, 2)
                .f64("decode_speedup", r.decode_speedup, 3)
                .bool("answers_match", r.answers_match)
                .bool("bytes_match", r.bytes_match)
                .bool("recovery_ok", r.recovery_ok),
            r.pass,
        );
    }
    b.summary(
        Fields::new()
            .f64(
                "min_sparse_ingest_speedup",
                meas.min_sparse_ingest_speedup,
                3,
            )
            .f64(
                "min_sparse_decode_speedup",
                meas.min_sparse_decode_speedup,
                3,
            ),
        verdicts(meas).pass(),
    )
    .write("BENCH_hybrid.json", quick);
}
