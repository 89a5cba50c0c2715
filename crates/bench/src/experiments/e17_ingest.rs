//! E17 — ingest throughput: scalar vs batched kernels vs sharded threads.
//!
//! The batched SoA kernels (`SpanningForestSketch::try_update_batch`) hoist
//! hashing, level selection, and fingerprint exponentiation out of the
//! per-update loop and share one `L0Plan` across every vertex row of a
//! round; `BoostedQuery::apply_batch` then stripes independent boosted
//! repetitions across the persistent sticky worker pool
//! (`dgs_pool::stripe`). Because the field is exact and assignment is
//! deterministic, every variant is bit-identical to the scalar loop — this
//! experiment asserts that in every row while measuring updates/sec, and
//! writes the machine-readable baseline `BENCH_ingest.json` that the CI
//! bench-smoke job (`experiments check-ingest`) guards against regressions.
//!
//! The workload is deliberately sized so batching has something to
//! amortize: the churn stream over a `gnm(n, 4n)` graph is tiled (the
//! sketch is linear, so repeating the stream just scales multiplicities)
//! until the update count reaches the mode's floor — small batches over a
//! few hundred updates measure fan-out overhead, not ingest.

use std::time::Instant;

use dgs_connectivity::SpanningForestSketch;
use dgs_core::BoostedQuery;
use dgs_field::prng::*;
use dgs_field::{Codec, SeedTree, Writer};
use dgs_hypergraph::generators::gnm;
use dgs_hypergraph::{EdgeSpace, HyperEdge, Hypergraph, Update};

use crate::baseline::{Baseline, Fields, Verdicts};
use crate::report::Table;
use crate::workloads::{default_stream, lean_forest};

/// Batch size of the boosted-sharded rows.
const SHARDED_BATCH: usize = 256;

fn fresh(n: usize, seed: u64) -> SpanningForestSketch {
    let space = EdgeSpace::graph(n).unwrap();
    SpanningForestSketch::new_full(space, &SeedTree::new(seed), lean_forest())
}

fn encoded<T: Codec>(t: &T) -> Vec<u8> {
    let mut w = Writer::new();
    t.encode(&mut w);
    w.into_bytes()
}

pub struct RowOut {
    pub mode: &'static str,
    pub batch: Option<usize>,
    pub threads: usize,
    pub updates_per_sec: f64,
    pub speedup: f64,
    pub exact: bool,
}

pub struct Measurement {
    pub n: usize,
    pub updates: usize,
    pub stream_updates: usize,
    pub trials: usize,
    pub scalar_updates_per_sec: f64,
    pub best_batched_updates_per_sec: f64,
    pub rows: Vec<RowOut>,
}

/// The acceptance verdicts: every row bit-identical to the scalar
/// reference, and batched throughput within [`crate::baseline::MAX_REGRESSION`]x
/// of the checked-in baseline.
pub fn verdicts(m: &Measurement) -> Verdicts {
    m.rows
        .iter()
        .fold(Verdicts::new(), |v, r| {
            v.check(
                format!(
                    "{} batch {} threads {} exact",
                    r.mode,
                    r.batch.unwrap_or(1),
                    r.threads
                ),
                r.exact,
            )
        })
        .floor(
            "best_batched_updates_per_sec",
            m.best_batched_updates_per_sec,
        )
}

/// Times `ingest` over `trials` fresh sketches and returns the best
/// updates/sec together with the final sketch encoding (for the exactness
/// check). Best-of-trials, not mean: throughput noise is one-sided.
fn time_best(
    trials: usize,
    m: usize,
    n: usize,
    seed: u64,
    mut ingest: impl FnMut(&mut SpanningForestSketch),
) -> (f64, Vec<u8>) {
    let mut best = 0.0f64;
    let mut bytes = Vec::new();
    for _ in 0..trials {
        let mut sketch = fresh(n, seed);
        let t = Instant::now();
        ingest(&mut sketch);
        let ups = m as f64 / t.elapsed().as_secs_f64();
        if ups > best {
            best = ups;
        }
        bytes = encoded(&sketch);
    }
    (best, bytes)
}

/// Runs the measurement grid. Separated from [`run`] so the CI guard
/// (`check-ingest`) can re-measure without printing tables.
pub fn measure(quick: bool) -> Measurement {
    let n: usize = if quick { 128 } else { 512 };
    // Update-count floor; the churn stream is tiled up to it so the
    // parallel rows amortize their fan-out over real work.
    let target: usize = if quick { 10_000 } else { 100_000 };
    let seed = 0xE17;
    let trials = if quick { 1 } else { 3 };
    let mut rng = StdRng::seed_from_u64(seed);
    let h = Hypergraph::from_graph(&gnm(n, 4 * n, &mut rng));
    let stream = default_stream(&h, &mut rng);
    let stream_updates = stream.len();
    let tiles = target.div_ceil(stream_updates);
    let updates: Vec<Update> = (0..tiles)
        .flat_map(|_| stream.updates.iter().cloned())
        .collect();
    let pairs: Vec<(HyperEdge, i64)> = updates
        .iter()
        .map(|u| (u.edge.clone(), u.op.delta()))
        .collect();
    let m = pairs.len();

    let mut rows: Vec<RowOut> = Vec::new();

    // Scalar reference: the per-update path every variant must match.
    let (scalar_ups, reference) = time_best(trials, m, n, seed, |s| {
        for (e, d) in &pairs {
            s.try_update(e, *d).expect("scalar update");
        }
    });
    rows.push(RowOut {
        mode: "scalar",
        batch: None,
        threads: 1,
        updates_per_sec: scalar_ups,
        speedup: 1.0,
        exact: true,
    });

    // Batched kernel, single thread, over a sweep of batch sizes.
    let batch_sizes: &[usize] = if quick {
        &[64, 256]
    } else {
        &[16, 64, 256, 1024]
    };
    let mut best_batched = 0.0f64;
    for &b in batch_sizes {
        let (ups, bytes) = time_best(trials, m, n, seed, |s| {
            for chunk in pairs.chunks(b) {
                s.try_update_batch(chunk).expect("batched update");
            }
        });
        best_batched = best_batched.max(ups);
        rows.push(RowOut {
            mode: "batched",
            batch: Some(b),
            threads: 1,
            updates_per_sec: ups,
            speedup: ups / scalar_ups,
            exact: bytes == reference,
        });
    }

    // Boosted repetitions: scalar loop vs striped batches.
    // Throughput counts stream updates (each costs `r` repetition updates).
    let r = 4usize;
    let seeds = SeedTree::new(seed);
    let build = |i: usize| {
        let space = EdgeSpace::graph(n).unwrap();
        SpanningForestSketch::new_full(space, &seeds.child(i as u64), lean_forest())
    };
    let boosted_bytes = |q: &BoostedQuery<SpanningForestSketch>| -> Vec<Vec<u8>> {
        q.sketches().iter().map(encoded).collect()
    };
    let mut boosted_scalar_ups = 0.0f64;
    let mut boosted_reference: Vec<Vec<u8>> = Vec::new();
    for _ in 0..trials {
        let mut q = BoostedQuery::new(r, build);
        let t = Instant::now();
        for u in &updates {
            q.try_update(u).expect("boosted scalar update");
        }
        let ups = m as f64 / t.elapsed().as_secs_f64();
        if ups > boosted_scalar_ups {
            boosted_scalar_ups = ups;
        }
        boosted_reference = boosted_bytes(&q);
    }
    rows.push(RowOut {
        mode: "boosted-scalar",
        batch: None,
        threads: 1,
        updates_per_sec: boosted_scalar_ups,
        speedup: 1.0,
        exact: true,
    });
    let thread_counts: &[usize] = if quick { &[2] } else { &[2, 4, 8] };
    for &t in thread_counts {
        let mut best = 0.0f64;
        let mut exact = false;
        for _ in 0..trials {
            let mut q = BoostedQuery::new(r, build);
            let t0 = Instant::now();
            for batch in updates.chunks(SHARDED_BATCH) {
                q.apply_batch(batch, t).expect("striped boosted batch");
            }
            let ups = m as f64 / t0.elapsed().as_secs_f64();
            if ups > best {
                best = ups;
            }
            exact = boosted_bytes(&q) == boosted_reference;
        }
        rows.push(RowOut {
            mode: "boosted-sharded",
            batch: Some(SHARDED_BATCH),
            threads: t,
            updates_per_sec: best,
            speedup: best / boosted_scalar_ups,
            exact,
        });
    }

    Measurement {
        n,
        updates: m,
        stream_updates,
        trials,
        scalar_updates_per_sec: scalar_ups,
        best_batched_updates_per_sec: best_batched,
        rows,
    }
}

pub fn run(quick: bool) {
    let meas = measure(quick);
    let mut table = Table::new(
        "E17: ingest throughput (forest sketch, updates/sec)",
        &["mode", "batch", "threads", "updates/s", "speedup", "exact"],
    );
    for r in &meas.rows {
        table.row(vec![
            r.mode.to_string(),
            r.batch.map_or("-".to_string(), |b| b.to_string()),
            r.threads.to_string(),
            format!("{:.0}", r.updates_per_sec),
            format!("{:.2}x", r.speedup),
            r.exact.to_string(),
        ]);
    }
    table.note(format!(
        "workload: {} updates ({} unique churn, tiled) over n = {}; best of {} trial(s) per row",
        meas.updates, meas.stream_updates, meas.n, meas.trials
    ));
    table.note("speedup is vs the scalar per-update loop of the same mode family");
    table.note("exact = final sketch encoding bit-identical to the scalar reference");
    table.print();
    write_baseline(&meas, verdicts(&meas).pass(), quick);
}

/// `BENCH_ingest.json` in the shared [`crate::baseline`] schema: a row per
/// ingest variant (`pass` = bit-identity held) and the summary throughput
/// aggregates the CI guard's floor reads.
fn write_baseline(meas: &Measurement, pass: bool, quick: bool) {
    let mut b = Baseline::new("e17-ingest").config(
        Fields::new()
            .usize("n", meas.n)
            .usize("updates", meas.updates)
            .usize("stream_updates", meas.stream_updates)
            .usize("trials", meas.trials),
    );
    for r in &meas.rows {
        b.row(
            Fields::new()
                .str("mode", r.mode)
                .opt_usize("batch", r.batch)
                .usize("threads", r.threads)
                .f64("updates_per_sec", r.updates_per_sec, 1)
                .f64("speedup", r.speedup, 3)
                .bool("exact", r.exact),
            r.exact,
        );
    }
    b.summary(
        Fields::new()
            .f64("scalar_updates_per_sec", meas.scalar_updates_per_sec, 1)
            .f64(
                "best_batched_updates_per_sec",
                meas.best_batched_updates_per_sec,
                1,
            ),
        pass,
    )
    .write("BENCH_ingest.json", quick);
}
