//! E18 — empirical vs. theoretical failure probability, read through the
//! dgs-obs metrics layer.
//!
//! The paper's guarantees are probabilistic: an ℓ0-sampler answers with
//! failure probability δ, and R sibling-seeded repetitions amplify that to
//! δ^R (Section 2.1 / the boosting used throughout Theorems 4–14). Every
//! decode attempt and failure is already counted by the instrumentation
//! this PR threads through `dgs-sketch` and `dgs-core`, so this experiment
//! does *not* keep its own tallies: it drives an adversarial insert/delete
//! workload (heavy churn — most inserted indices are deleted again, so the
//! sketch must cancel exactly and sample only the survivors), then reads
//! the observed failure rates back out of a [`dgs_obs::Registry`] and
//! compares them row by row against the stated bounds. The checked-in
//! `BENCH_obs.json` baseline is guarded in CI by `experiments check-obs`:
//! every observed rate must stay within 2x of its bound.
//!
//! Bounds used (documented in DESIGN.md, "Observability"):
//!
//! * starved sampler (sparsity 1, one row): δ = 1/2 — a single one-sparse
//!   cell per level fails on any collision; the paper's constant-failure
//!   regime.
//! * boosted R repetitions of the starved sampler: δ^R = 2^{-R}.
//! * `Profile::Practical` (sparsity 8, rows 6): δ = 2^{-rows/2} = 1/8 —
//!   the honest constant behind the profile's `2^{-Ω(rows)}` failure note.

use dgs_connectivity::SpanningForestSketch;
use dgs_core::{
    BoostedQuery, CheckpointConfig, RecoveryDriver, SupervisedAnswer, SupervisedIngestor,
    SupervisorConfig,
};
use dgs_field::prng::*;
use dgs_field::SeedTree;
use dgs_hypergraph::fault::{FaultClass, FaultInjector};
use dgs_hypergraph::generators::gnm;
use dgs_hypergraph::{EdgeSpace, HyperEdge, Hypergraph};
use dgs_obs::Registry;
use dgs_sketch::{L0Params, L0Sampler, Profile};

use crate::baseline::{Baseline, Fields, Verdicts};
use crate::report::Table;
use crate::workloads::{default_stream, lean_forest};

/// One empirical-vs-theoretical comparison row.
pub struct RateRow {
    /// Which structure / boosting level the row measures.
    pub label: &'static str,
    /// Recovery rows per level of the underlying sampler.
    pub rows: usize,
    /// Sparsity of the underlying sampler's recovery structure.
    pub sparsity: usize,
    /// Boosting repetitions R (1 = the bare sampler).
    pub repetitions: usize,
    /// Query attempts counted by the metrics layer.
    pub attempts: u64,
    /// Failures (bare sampler) or residual Unknowns (boosted).
    pub failures: u64,
    /// failures / attempts.
    pub observed: f64,
    /// The theoretical bound δ (or δ^R) for this configuration.
    pub bound: f64,
}

impl RateRow {
    /// Observed rate within 2x of the bound.
    pub fn within_2x(&self) -> bool {
        self.observed <= 2.0 * self.bound
    }
}

/// The acceptance verdicts: every observed rate within 2x of its bound.
pub fn verdicts(m: &Measurement) -> Verdicts {
    m.rate_rows.iter().fold(Verdicts::new(), |v, r| {
        v.check(
            format!(
                "{} R={} observed {:.4} <= 2 x bound {:.4}",
                r.label, r.repetitions, r.observed, r.bound
            ),
            r.within_2x(),
        )
    })
}

/// Everything E18 measures.
pub struct Measurement {
    /// Trials per configuration row.
    pub trials: u64,
    /// Net support size each adversarial vector ends with.
    pub support: usize,
    /// Indices inserted then deleted again per trial (the churn).
    pub churn: usize,
    /// The empirical-vs-theoretical table.
    pub rate_rows: Vec<RateRow>,
}

/// Dimension of the adversarial vectors: C(64, 2), a graph-scale index
/// space.
const DIM: u64 = 2016;
const SUPPORT: usize = 8;
const CHURN: usize = 32;

/// Applies one adversarial insert/delete trial to every sampler in
/// `samplers`: inserts `SUPPORT + CHURN` distinct indices, then deletes the
/// `CHURN` churn indices again. The surviving support is what a correct
/// sample must come from; the churn exists to force exact cancellation.
fn apply_adversarial(samplers: &mut [L0Sampler], trial: u64) {
    let mut rng = StdRng::seed_from_u64(0xE18_0000 + trial);
    let mut indices: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    while indices.len() < SUPPORT + CHURN {
        indices.insert(rng.gen_range(0..DIM));
    }
    let indices: Vec<u64> = indices.into_iter().collect();
    // Interleave: insert everything, then delete the churn half in a
    // different order, so cancellations straddle the whole stream.
    for s in samplers.iter_mut() {
        for &i in &indices {
            s.update(i, 1).expect("insert");
        }
        for &i in indices.iter().skip(SUPPORT).rev() {
            s.update(i, -1).expect("delete");
        }
    }
}

fn starved() -> L0Params {
    L0Params {
        sparsity: 1,
        rows: 1,
        level_independence: 2,
    }
}

/// Observed failure rate of the bare sampler with `params`, read from the
/// `dgs_sketch_l0_sample_*` counters of a private registry.
fn bare_rate(params: L0Params, trials: u64, seed: u64) -> (u64, u64) {
    let registry = Registry::new();
    for t in 0..trials {
        let mut sampler = L0Sampler::new(&SeedTree::new(seed + t), DIM, params);
        sampler.set_sink(&registry.sink());
        apply_adversarial(std::slice::from_mut(&mut sampler), t);
        let _ = sampler.sample();
    }
    let attempts = registry
        .counter_value("dgs_sketch_l0_sample_attempts")
        .unwrap_or(0);
    let failures = registry
        .counter_value("dgs_sketch_l0_sample_failures")
        .unwrap_or(0);
    (attempts, failures)
}

/// Residual failure (Unknown) rate of an R-boosted query over samplers with
/// `params`, read from the `dgs_core_boost_*` counters. Also asserts the
/// soundness side: whenever the boosted query answers, the sampled index is
/// a real survivor of the churn.
fn boosted_rate(params: L0Params, reps: usize, trials: u64, seed: u64) -> (u64, u64) {
    let registry = Registry::new();
    for t in 0..trials {
        let seeds = SeedTree::new(seed + t);
        let mut samplers: Vec<L0Sampler> = (0..reps)
            .map(|i| L0Sampler::new(&seeds.child(i as u64), DIM, params))
            .collect();
        apply_adversarial(&mut samplers, t);
        let mut boosted = BoostedQuery::from_repetitions(samplers);
        boosted.set_sink(&registry.sink());
        match boosted.query(|s| s.sample()) {
            SupervisedAnswer::Full { value, .. } => {
                let (_, w) = value.expect("nonzero vector certified zero");
                assert_eq!(w, 1, "sampled a cancelled index");
            }
            SupervisedAnswer::Unknown { .. } => {}
            other => panic!("clean adversarial vector resolved to {other:?}"),
        }
    }
    let answers = registry
        .counter_value("dgs_core_boost_answers")
        .unwrap_or(0);
    let unknowns = registry
        .counter_value("dgs_core_boost_unknowns")
        .unwrap_or(0);
    (answers + unknowns, unknowns)
}

/// Runs the measurement grid. Separated from [`run`] so the CI guard
/// (`check-obs`) can re-measure without printing tables.
pub fn measure(quick: bool) -> Measurement {
    let trials: u64 = if quick { 150 } else { 400 };
    let seed = 0xE18;
    let practical = L0Params::for_dimension(DIM, Profile::Practical);

    let mut rate_rows = Vec::new();
    let rate = |attempts: u64, failures: u64| {
        if attempts == 0 {
            0.0
        } else {
            failures as f64 / attempts as f64
        }
    };

    let (attempts, failures) = bare_rate(starved(), trials, seed);
    rate_rows.push(RateRow {
        label: "l0-starved",
        rows: 1,
        sparsity: 1,
        repetitions: 1,
        attempts,
        failures,
        observed: rate(attempts, failures),
        bound: 0.5,
    });

    for reps in [2usize, 4] {
        let (attempts, failures) = boosted_rate(starved(), reps, trials, seed + 1000);
        rate_rows.push(RateRow {
            label: "l0-starved-boosted",
            rows: 1,
            sparsity: 1,
            repetitions: reps,
            attempts,
            failures,
            observed: rate(attempts, failures),
            bound: 0.5f64.powi(reps as i32),
        });
    }

    let (attempts, failures) = bare_rate(practical, trials, seed + 2000);
    rate_rows.push(RateRow {
        label: "l0-practical",
        rows: practical.rows,
        sparsity: practical.sparsity,
        repetitions: 1,
        attempts,
        failures,
        observed: rate(attempts, failures),
        bound: 2.0f64.powf(-(practical.rows as f64) / 2.0),
    });

    Measurement {
        trials,
        support: SUPPORT,
        churn: CHURN,
        rate_rows,
    }
}

pub fn run(quick: bool) {
    let meas = measure(quick);
    let mut table = Table::new(
        "E18: observed failure rate vs theoretical bound (via dgs-obs counters)",
        &[
            "structure",
            "rows",
            "s",
            "R",
            "attempts",
            "failures",
            "observed",
            "bound",
            "<=2x",
        ],
    );
    for r in &meas.rate_rows {
        table.row(vec![
            r.label.to_string(),
            r.rows.to_string(),
            r.sparsity.to_string(),
            r.repetitions.to_string(),
            r.attempts.to_string(),
            r.failures.to_string(),
            format!("{:.4}", r.observed),
            format!("{:.4}", r.bound),
            r.within_2x().to_string(),
        ]);
    }
    table.note(format!(
        "adversarial workload: {} inserts, {} cancelling deletes, net support {} \
         (dimension {DIM}); {} trials per row",
        SUPPORT + CHURN,
        meas.churn,
        meas.support,
        meas.trials
    ));
    table.note("rates are read from dgs_sketch_l0_* / dgs_core_boost_* counters, not retallied");
    table.note("bounds: starved δ = 1/2, boosted δ^R = 2^-R, Practical δ = 2^(-rows/2)");
    table.print();
    write_baseline(&meas, quick);
}

/// `BENCH_obs.json` in the shared [`crate::baseline`] schema: a row per
/// structure (`pass` = observed rate within 2x of its bound), summary
/// `all_within_2x` = [`verdicts`].
fn write_baseline(meas: &Measurement, quick: bool) {
    let all_within = verdicts(meas).pass();
    let mut b = Baseline::new("e18-obs").config(
        Fields::new()
            .u64("trials", meas.trials)
            .usize("support", meas.support)
            .usize("churn", meas.churn),
    );
    for r in &meas.rate_rows {
        b.row(
            Fields::new()
                .str("structure", r.label)
                .usize("rows", r.rows)
                .usize("sparsity", r.sparsity)
                .usize("repetitions", r.repetitions)
                .u64("attempts", r.attempts)
                .u64("failures", r.failures)
                .f64("observed", r.observed, 6)
                .f64("bound", r.bound, 6),
            r.within_2x(),
        );
    }
    b.summary(Fields::new().bool("all_within_2x", all_within), all_within)
        .write("BENCH_obs.json", quick);
}

/// `experiments obs-report` — drives one representative workload through
/// every instrumented subsystem (forest batch ingest + decode, striped
/// boosted batches, WAL + checkpoint + recovery, fault injection) with a
/// single registry attached, then dumps the registry in Prometheus text
/// format followed by the JSON export.
pub fn obs_report(quick: bool) {
    let n: usize = if quick { 32 } else { 64 };
    let seed = 0x0B5;
    let registry = Registry::new();
    let sink = registry.sink();
    let mut rng = StdRng::seed_from_u64(seed);
    let h = Hypergraph::from_graph(&gnm(n, 3 * n, &mut rng));
    let stream = default_stream(&h, &mut rng);
    let pairs: Vec<(HyperEdge, i64)> = stream
        .updates
        .iter()
        .map(|u| (u.edge.clone(), u.op.delta()))
        .collect();

    // Forest sketch: batched ingest and a decode, feeding the sketch-layer
    // and connectivity-layer counters.
    let space = EdgeSpace::graph(n).unwrap();
    let mut sketch =
        SpanningForestSketch::new_full(space.clone(), &SeedTree::new(seed), lean_forest());
    sketch.set_sink(&sink);
    for chunk in pairs.chunks(256) {
        sketch.try_update_batch(chunk).expect("batched update");
    }
    let _ = sketch.try_component_count();

    // Striped boosted batches: the pool's per-worker busy time and
    // mailbox depth show the stripe balance; one boosted decode feeds the
    // `dgs_core_boost_*` outcome counters.
    let seeds = SeedTree::new(seed ^ 0xB00);
    let mut boosted = BoostedQuery::new(4, |i| {
        SpanningForestSketch::new_full(space.clone(), &seeds.child(i as u64), lean_forest())
    });
    boosted.set_sink(&sink);
    for batch in stream.updates.chunks(256) {
        boosted
            .apply_batch(batch, 2)
            .expect("striped boosted batch");
    }
    let _ = boosted.query(|s| s.try_component_count());

    // Durability: WAL appends, one snapshot when the last update is
    // flushed, and a recovery pass.
    let dirs = std::env::temp_dir().join(format!("dgs-obs-report-{}", std::process::id()));
    let (wal_dir, snap_dir) = (dirs.join("wal"), dirs.join("snap"));
    let _ = std::fs::remove_dir_all(&dirs);
    let cfg = SupervisorConfig {
        repetitions: 1,
        threads: 1,
        checkpoint: CheckpointConfig {
            snapshot_interval: stream.len() as u64,
            ..CheckpointConfig::default()
        },
        ..SupervisorConfig::default()
    };
    let fresh = move |n: usize, _max_rank: usize| {
        let space = EdgeSpace::graph(n).unwrap();
        SpanningForestSketch::new_full(space, &SeedTree::new(seed ^ 0xC0), lean_forest())
    };
    let max_rank = stream.max_rank;
    let mut durable =
        SupervisedIngestor::create(&wal_dir, &snap_dir, n, max_rank, cfg, move |_| {
            fresh(n, max_rank)
        })
        .expect("create durable ingestor");
    durable.set_sink(&sink);
    for u in &stream.updates {
        durable.push(u).expect("durable ingest");
    }
    durable.flush().expect("flush and snapshot");
    let store = durable.shard_store(0).clone();
    drop(durable);
    let mut driver = RecoveryDriver::new(&wal_dir, store);
    driver.set_sink(&sink);
    let _ = driver
        .recover::<SpanningForestSketch, _>(fresh)
        .expect("recover");
    let _ = std::fs::remove_dir_all(&dirs);

    // Fault injection: one labelled counter bump per class.
    let mut injector = FaultInjector::new(seed);
    injector.set_sink(&sink);
    for class in FaultClass::ALL {
        let _ = injector.inject(&stream, class);
    }

    println!("# obs-report: {} updates over n = {n}", pairs.len());
    println!("{}", registry.to_prometheus());
    println!("{}", registry.to_json());
}
