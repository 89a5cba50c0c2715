//! E20 — self-healing soak: availability and correctness under a seeded
//! chaos campaign.
//!
//! The supervision layer (`dgs_core::supervise`) claims an operational
//! reading of the paper's amplification argument: losing repetitions of a
//! boosted sketch to faults costs *confidence* (δ^R widens to δ^R′), never
//! correctness or availability. This experiment soaks that claim. A
//! [`SupervisedIngestor`] ingests a churn workload while a deterministic
//! [`ChaosCampaign`] fires scripted faults at fixed update indices:
//!
//! * transient shard errors and shard poisoning (typed, retryable) — the
//!   backoff → quarantine → rebuild ladder;
//! * silent corruption (a valid update applied to one shard, bypassing the
//!   WAL) — invisible to typed errors, caught only by majority-vote
//!   queries and scrub audits;
//! * checkpoint corruption (bytes flipped in a snapshot file) — the
//!   recovery ladder must skip the bad rung;
//! * WAL torn tails (a crash truncating the newest segment mid-record) —
//!   resume + capped rebuild + client re-push;
//! * decode stalls (a shard's decode sleeping past its per-shard
//!   deadline) — the query budget must bound latency.
//!
//! Every `QUERY_EVERY` updates the harness runs a majority-vote component
//! count query under a deadline and compares any answer against exact
//! ground truth (union-find over the applied prefix). The scored outputs:
//!
//! * **availability** — fraction of queries answered (Full or Degraded)
//!   within the deadline; the acceptance bar is ≥ 99% with faults active;
//! * **silent-wrong answers** — answered values disagreeing with ground
//!   truth; the bar is **zero**;
//! * **degraded-answer fraction** and the `effective_delta` the degraded
//!   answers carried;
//! * **rebuild latency** (from `dgs_core_supervise_rebuild_ns`) and
//!   **byte-identity**: after the stream, every shard must be bit-identical
//!   to a WAL replay from scratch — the linearity guarantee that rebuilds
//!   converge exactly.
//!
//! `experiments check-chaos` re-runs the quick campaign in CI and fails on
//! any silent-wrong answer, availability below the bar, or a byte-identity
//! violation (guarding the checked-in `BENCH_chaos.json`).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use dgs_connectivity::SpanningForestSketch;
use dgs_core::{
    CheckpointConfig, QueryBudget, Recoverable, SupervisedAnswer, SupervisedIngestor,
    SupervisorConfig,
};
use dgs_field::prng::*;
use dgs_field::{Codec, Writer};
use dgs_hypergraph::algo::UnionFind;
use dgs_hypergraph::generators::{churn_stream, gnp, ChurnConfig};
use dgs_hypergraph::{ChaosCampaign, ChaosFault, ChaosScheduler, HyperEdge, Hypergraph, Update};
use dgs_obs::Registry;
use dgs_sketch::SketchError;

use crate::baseline::{Baseline, Fields};
use crate::report::Table;
use crate::workloads::forest_build;

/// Everything E20 measures.
pub struct Measurement {
    /// Vertices in the streamed graph.
    pub n: usize,
    /// Boosted repetitions (= supervised shards).
    pub repetitions: usize,
    /// Updates pushed (after torn-tail re-pushes).
    pub updates: usize,
    /// Chaos events fired.
    pub events: usize,
    /// Queries issued.
    pub queries: u64,
    /// Queries answered (Full or Degraded) within the deadline.
    pub answered: u64,
    /// Degraded answers among the answered.
    pub degraded: u64,
    /// Unknown answers (every live repetition failed to decode).
    pub unknown: u64,
    /// Queries that blew the wall-clock deadline.
    pub deadline_missed: u64,
    /// Answered values that disagreed with exact ground truth. MUST be 0.
    pub silent_wrong: u64,
    /// Shards quarantined over the run.
    pub quarantines: u64,
    /// Successful rebuilds over the run.
    pub rebuilds: u64,
    /// Scrub audits that caught a silent divergence.
    pub scrub_mismatches: u64,
    /// Torn-tail crash/resume cycles survived.
    pub torn_tail_resumes: u64,
    /// Median successful rebuild latency, nanoseconds.
    pub rebuild_p50_ns: u64,
    /// Worst successful rebuild latency, nanoseconds.
    pub rebuild_max_ns: u64,
    /// Smallest effective_delta any degraded answer carried (δ^R′).
    pub worst_effective_delta: f64,
    /// Every shard bit-identical to a from-scratch WAL replay at the end.
    pub bit_identical: bool,
}

impl Measurement {
    /// answered / queries.
    pub fn availability(&self) -> f64 {
        if self.queries == 0 {
            1.0
        } else {
            self.answered as f64 / self.queries as f64
        }
    }

    /// degraded / answered.
    pub fn degraded_fraction(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.degraded as f64 / self.answered as f64
        }
    }

    /// The CI acceptance predicate.
    pub fn acceptable(&self) -> bool {
        self.silent_wrong == 0 && self.availability() >= 0.99 && self.bit_identical
    }
}

const QUERY_EVERY: usize = 100;
const DELTA: f64 = 0.5;

/// The scripted campaign: every fault class fires at deterministic update
/// indices inside the first 85% of the stream, leaving a clean tail for
/// scrub audits to finish healing before the final byte-identity check.
fn campaign(seed: u64, len: usize, shards: usize, torn_tails: bool) -> ChaosCampaign {
    let at = |frac: f64| ((len as f64 * frac) as usize).max(1);
    let mut c = ChaosCampaign::new("e20-soak", seed)
        .at(
            at(0.05),
            ChaosFault::ShardError {
                shard: 0,
                attempts: 2,
            },
        )
        .at(at(0.12), ChaosFault::ShardPoison { shard: 1 })
        .at(at(0.22), ChaosFault::SilentCorruption { shard: 2 % shards })
        .at(at(0.30), ChaosFault::CheckpointCorruption { shard: 0 })
        .at(
            at(0.38),
            ChaosFault::DecodeStall {
                shard: 1,
                queries: 2,
            },
        )
        .at(
            at(0.55),
            ChaosFault::ShardError {
                shard: 2 % shards,
                attempts: 3,
            },
        )
        .at(at(0.62), ChaosFault::ShardPoison { shard: 0 })
        .at(
            at(0.72),
            ChaosFault::SilentCorruption {
                shard: (shards - 1).min(3),
            },
        )
        .at(
            at(0.80),
            ChaosFault::DecodeStall {
                shard: 0,
                queries: 1,
            },
        );
    if torn_tails {
        c = c.at(at(0.45), ChaosFault::WalTornTail { bytes: 11 });
    }
    c
}

/// Truncates `bytes` off the end of the newest WAL segment — the torn tail
/// a crash mid-append leaves behind.
fn tear_wal_tail(wal_dir: &std::path::Path, bytes: usize) {
    let mut segs: Vec<std::path::PathBuf> = std::fs::read_dir(wal_dir)
        .expect("wal dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|s| s.to_str())
                .is_some_and(|s| s.starts_with("seg-") && s.ends_with(".wal"))
        })
        .collect();
    segs.sort();
    let Some(newest) = segs.last() else { return };
    let len = std::fs::metadata(newest).expect("segment metadata").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(newest)
        .expect("open segment");
    file.set_len(len.saturating_sub(bytes as u64))
        .expect("truncate segment");
}

/// Flips a byte in the middle of every snapshot file in `dir` — checkpoint
/// corruption the recovery ladder's checksums must catch.
fn corrupt_snapshots(dir: &std::path::Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let Ok(mut bytes) = std::fs::read(&path) else {
            continue;
        };
        if bytes.is_empty() {
            continue;
        }
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let _ = std::fs::write(&path, &bytes);
    }
}

/// Exact component count of the applied prefix: union-find over the live
/// edge multiset (a hyperedge merges all its vertices). Shared with E21's
/// service soak, which verifies answers at frozen epochs the same way.
pub(crate) fn exact_components(n: usize, live_edges: &BTreeMap<HyperEdge, i64>) -> usize {
    let mut uf = UnionFind::new(n);
    for (e, &mult) in live_edges {
        if mult <= 0 {
            continue;
        }
        let vs = e.vertices();
        for w in vs.windows(2) {
            uf.union(w[0], w[1]);
        }
    }
    uf.component_count()
}

/// Runs the soak. Separated from [`run`] so the CI guard (`check-chaos`)
/// can re-measure without printing tables.
pub fn measure(quick: bool) -> Measurement {
    let n: usize = if quick { 24 } else { 32 };
    let repetitions: usize = if quick { 3 } else { 5 };
    let seed: u64 = 0xE20;

    // Workload: a churn stream with real deletions, repeated to soak length.
    let mut rng = StdRng::seed_from_u64(seed);
    let h = Hypergraph::from_graph(&gnp(n, 0.25, &mut rng));
    let base = churn_stream(
        &h,
        ChurnConfig {
            noise_ratio: 1.0,
            churn_ratio: 0.5,
        },
        &mut rng,
    );
    let cycles = if quick { 4 } else { 10 };
    let mut updates: Vec<Update> = Vec::with_capacity(base.updates.len() * cycles);
    for cycle in 0..cycles {
        if cycle % 2 == 0 {
            updates.extend(base.updates.iter().cloned());
        } else {
            // Unwind the cycle so multiplicities return to zero before the
            // next pass: replay in reverse with flipped ops.
            for u in base.updates.iter().rev() {
                updates.push(match u.op {
                    dgs_hypergraph::Op::Insert => Update::delete(u.edge.clone()),
                    dgs_hypergraph::Op::Delete => Update::insert(u.edge.clone()),
                });
            }
        }
    }
    let len = updates.len();

    let dirs = std::env::temp_dir().join(format!("dgs-e20-{}-{seed}", std::process::id()));
    let (wal_dir, snap_dir) = (dirs.join("wal"), dirs.join("snap"));
    let _ = std::fs::remove_dir_all(&dirs);

    let cfg = SupervisorConfig {
        repetitions,
        threads: 2,
        batch_size: 32,
        error_budget: 2,
        decode_error_budget: 4,
        // Hold quarantined shards down for a few flushes before the rebuild
        // kicks in: the soak must probe the degradation ladder, not just the
        // repair path, so queries land while repetitions are missing.
        rebuild_after_flushes: 12,
        scrub_interval: (len / 24).max(64) as u64,
        delta: DELTA,
        checkpoint: CheckpointConfig {
            snapshot_interval: (len / 12).max(128) as u64,
            ..CheckpointConfig::default()
        },
        seed,
        ..SupervisorConfig::default()
    };
    let registry = Registry::new();
    let build = forest_build(n, seed ^ 0xB00);
    let mut sup: SupervisedIngestor<SpanningForestSketch> = SupervisedIngestor::create(
        &wal_dir,
        &snap_dir,
        n,
        2,
        cfg,
        forest_build(n, seed ^ 0xB00),
    )
    .expect("create supervised ingestor");
    sup.set_sink(&registry.sink());

    let camp = campaign(seed, len, repetitions, true);
    let mut sched = ChaosScheduler::new(&camp);
    sched.set_sink(&registry.sink());
    let events = sched.len();

    // Decode-stall bookkeeping: shard -> queries left to stall.
    let stalls: RefCell<HashMap<usize, u32>> = RefCell::new(HashMap::new());
    let budget = QueryBudget {
        deadline: Some(Duration::from_millis(250)),
        per_shard_deadline: Some(Duration::from_millis(2)),
        max_decode_steps: None,
    };

    let mut live_edges: BTreeMap<HyperEdge, i64> = BTreeMap::new();
    let mut queries = 0u64;
    let mut answered = 0u64;
    let mut degraded = 0u64;
    let mut unknown = 0u64;
    let mut deadline_missed = 0u64;
    let mut silent_wrong = 0u64;
    let mut torn_tail_resumes = 0u64;
    let mut worst_effective_delta = 1.0f64;
    let mut pushed = 0usize;

    let mut pos = 0usize;
    while pos < len {
        for event in sched.due(pos) {
            match event.fault {
                ChaosFault::ShardError { shard, attempts } => sup.inject_apply_fault(
                    shard % repetitions,
                    SketchError::failure("chaos", "transient shard error"),
                    attempts,
                ),
                ChaosFault::ShardPoison { shard } => sup.inject_apply_fault(
                    shard % repetitions,
                    SketchError::failure("chaos", "poisoned shard"),
                    u32::MAX,
                ),
                ChaosFault::SilentCorruption { shard } => {
                    // A valid ghost edge applied off-log: silent divergence.
                    let ghost = HyperEdge::pair((pos % (n - 1)) as u32, (n - 1) as u32);
                    sup.apply_divergent_update(shard % repetitions, &Update::insert(ghost))
                        .expect("divergent update");
                }
                ChaosFault::CheckpointCorruption { shard } => {
                    let dir = sup.shard_store(shard % repetitions).dir().to_path_buf();
                    corrupt_snapshots(&dir);
                }
                ChaosFault::WalTornTail { bytes } => {
                    // Crash: drop the supervisor, tear the newest segment,
                    // resume, and re-push whatever the tear swallowed.
                    drop(sup);
                    tear_wal_tail(&wal_dir, bytes);
                    let (resumed, durable) = SupervisedIngestor::resume(
                        &wal_dir,
                        &snap_dir,
                        n,
                        2,
                        cfg,
                        forest_build(n, seed ^ 0xB00),
                    )
                    .expect("resume after torn tail");
                    sup = resumed;
                    sup.set_sink(&registry.sink());
                    torn_tail_resumes += 1;
                    // Updates [durable, pos) were logged but torn off (or
                    // never made it): replay them from the client side.
                    for u in &updates[durable as usize..pos] {
                        sup.push(u).expect("re-push after resume");
                        pushed += 1;
                    }
                }
                ChaosFault::DecodeStall { shard, queries } => {
                    *stalls.borrow_mut().entry(shard % repetitions).or_insert(0) += queries;
                }
                // Load events target the service admission layer (E21); the
                // bare supervisor has none, and this campaign never
                // schedules them.
                ChaosFault::LoadSpike { .. } | ChaosFault::SlowConsumer { .. } => {}
            }
        }

        let u = &updates[pos];
        sup.push(u).expect("push");
        pushed += 1;
        *live_edges.entry(u.edge.clone()).or_insert(0) += u.op.delta();
        pos += 1;

        if pos.is_multiple_of(QUERY_EVERY) {
            queries += 1;
            let truth = exact_components(n, &live_edges);
            let answer = sup
                .query_majority(&budget, |shard, s: &SpanningForestSketch| {
                    let left = stalls.borrow().get(&shard).copied().unwrap_or(0);
                    if left > 0 {
                        stalls.borrow_mut().insert(shard, left - 1);
                        std::thread::sleep(Duration::from_millis(4));
                    }
                    s.try_component_count()
                })
                .expect("query");
            match answer {
                SupervisedAnswer::Full { value, .. } => {
                    answered += 1;
                    if value != truth {
                        silent_wrong += 1;
                    }
                }
                SupervisedAnswer::Degraded {
                    value,
                    effective_delta,
                    ..
                } => {
                    answered += 1;
                    degraded += 1;
                    worst_effective_delta = worst_effective_delta.min(effective_delta);
                    if value != truth {
                        silent_wrong += 1;
                    }
                }
                SupervisedAnswer::Unknown { .. } => unknown += 1,
                SupervisedAnswer::DeadlineExceeded { .. } => deadline_missed += 1,
                SupervisedAnswer::Invalid(e) => panic!("valid query flagged invalid: {e}"),
            }
        }
    }

    // Drain: let pending rebuilds and a final round of scrubs run, then
    // check byte-identity of every shard against a WAL replay from scratch.
    sup.flush().expect("final flush");
    for i in 0..repetitions {
        if !sup.shard_states()[i].is_live() {
            sup.rebuild_now(i).expect("final rebuild");
        }
    }
    let replay = dgs_hypergraph::read_wal(&wal_dir).expect("read wal");
    let bit_identical = (0..repetitions).all(|i| {
        let mut reference = build(i);
        for u in &replay.updates {
            reference.apply_update(u).expect("reference apply");
        }
        let mut w = Writer::new();
        reference.encode(&mut w);
        w.into_bytes() == sup.shard_encoded(i)
    });

    let rebuild_stats = registry.histogram_stats("dgs_core_supervise_rebuild_ns");
    let meas = Measurement {
        n,
        repetitions,
        updates: pushed,
        events,
        queries,
        answered,
        degraded,
        unknown,
        deadline_missed,
        silent_wrong,
        quarantines: registry
            .counter_value("dgs_core_supervise_quarantines")
            .unwrap_or(0),
        rebuilds: registry
            .counter_value("dgs_core_supervise_rebuilds")
            .unwrap_or(0),
        scrub_mismatches: registry
            .counter_value("dgs_core_supervise_scrub_mismatches")
            .unwrap_or(0),
        torn_tail_resumes,
        rebuild_p50_ns: rebuild_stats.as_ref().map_or(0, |s| s.quantile(0.5)),
        rebuild_max_ns: rebuild_stats.as_ref().map_or(0, |s| s.quantile(1.0)),
        worst_effective_delta,
        bit_identical,
    };
    let _ = std::fs::remove_dir_all(&dirs);
    meas
}

pub fn run(quick: bool) {
    let meas = measure(quick);
    let mut table = Table::new(
        "E20: self-healing soak under a deterministic chaos campaign",
        &["metric", "value"],
    );
    let rows: Vec<(&str, String)> = vec![
        (
            "workload",
            format!(
                "n = {}, R = {}, {} updates, {} chaos events",
                meas.n, meas.repetitions, meas.updates, meas.events
            ),
        ),
        ("queries", meas.queries.to_string()),
        (
            "availability",
            format!(
                "{:.4} ({} answered, {} unknown, {} deadline-missed)",
                meas.availability(),
                meas.answered,
                meas.unknown,
                meas.deadline_missed
            ),
        ),
        (
            "degraded fraction",
            format!(
                "{:.4} ({} degraded; worst effective delta {:.4})",
                meas.degraded_fraction(),
                meas.degraded,
                meas.worst_effective_delta
            ),
        ),
        ("silent-wrong answers", meas.silent_wrong.to_string()),
        (
            "quarantines / rebuilds",
            format!("{} / {}", meas.quarantines, meas.rebuilds),
        ),
        ("scrub mismatches caught", meas.scrub_mismatches.to_string()),
        ("torn-tail resumes", meas.torn_tail_resumes.to_string()),
        (
            "rebuild latency",
            format!(
                "p50 {:.2} ms, max {:.2} ms",
                meas.rebuild_p50_ns as f64 / 1e6,
                meas.rebuild_max_ns as f64 / 1e6
            ),
        ),
        ("final byte-identity", meas.bit_identical.to_string()),
    ];
    for (k, v) in rows {
        table.row(vec![k.to_string(), v]);
    }
    table.note("queries are majority-vote component counts under a 250 ms deadline");
    table.note("byte-identity: every shard vs a from-scratch WAL replay after the soak");
    table.note(format!(
        "acceptance: zero silent-wrong, availability >= 0.99, byte-identical — {}",
        if meas.acceptable() { "PASS" } else { "FAIL" }
    ));
    table.print();
    write_baseline(&meas);
}

/// `BENCH_chaos.json` in the shared [`crate::baseline`] schema: the soak is
/// one aggregate measurement, so all counters live in `summary` (no rows);
/// `pass` = the [`Measurement::acceptable`] predicate.
fn write_baseline(meas: &Measurement) {
    Baseline::new("e20-chaos")
        .config(
            Fields::new()
                .usize("n", meas.n)
                .usize("repetitions", meas.repetitions)
                .usize("updates", meas.updates)
                .usize("events", meas.events),
        )
        .summary(
            Fields::new()
                .u64("queries", meas.queries)
                .u64("answered", meas.answered)
                .u64("degraded", meas.degraded)
                .u64("unknown", meas.unknown)
                .u64("deadline_missed", meas.deadline_missed)
                .u64("silent_wrong", meas.silent_wrong)
                .f64("availability", meas.availability(), 6)
                .f64("degraded_fraction", meas.degraded_fraction(), 6)
                .f64("worst_effective_delta", meas.worst_effective_delta, 6)
                .u64("quarantines", meas.quarantines)
                .u64("rebuilds", meas.rebuilds)
                .u64("scrub_mismatches", meas.scrub_mismatches)
                .u64("torn_tail_resumes", meas.torn_tail_resumes)
                .u64("rebuild_p50_ns", meas.rebuild_p50_ns)
                .u64("rebuild_max_ns", meas.rebuild_max_ns)
                .bool("bit_identical", meas.bit_identical)
                .bool("acceptable", meas.acceptable()),
            meas.acceptable(),
        )
        .write("BENCH_chaos.json");
}

/// CI guard: the checked-in baseline must be acceptable, and a fresh quick
/// soak must be too. Returns `false` on any violation.
pub fn check(baseline_path: &str) -> bool {
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("check-chaos: cannot read {baseline_path}: {e}");
            return false;
        }
    };
    let mut ok = true;
    if !baseline.contains("\"acceptable\": true") {
        eprintln!("check-chaos: FAIL — checked-in {baseline_path} records an unacceptable soak");
        ok = false;
    }
    let meas = measure(true);
    println!(
        "check-chaos: availability {:.4}, silent-wrong {}, degraded {:.4}, \
         quarantines {}, rebuilds {}, byte-identical {}",
        meas.availability(),
        meas.silent_wrong,
        meas.degraded_fraction(),
        meas.quarantines,
        meas.rebuilds,
        meas.bit_identical
    );
    if meas.silent_wrong > 0 {
        eprintln!(
            "check-chaos: FAIL — {} silent-wrong answers (the bar is zero)",
            meas.silent_wrong
        );
        ok = false;
    }
    if meas.availability() < 0.99 {
        eprintln!(
            "check-chaos: FAIL — availability {:.4} below the 0.99 bar",
            meas.availability()
        );
        ok = false;
    }
    if !meas.bit_identical {
        eprintln!("check-chaos: FAIL — a shard did not converge byte-identical after rebuild");
        ok = false;
    }
    if ok {
        println!("check-chaos: OK");
    }
    ok
}
