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
//! The stream, the shard faults, the oracle and the tally are the shared
//! [`crate::soak`] harness; this soak adds the torn-tail resume and the
//! final byte-identity check. `experiments check-chaos` re-runs the quick
//! campaign in CI and enforces [`verdicts`] (guarding the checked-in
//! `BENCH_chaos.json`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Duration;

use dgs_connectivity::SpanningForestSketch;
use dgs_core::{
    CheckpointConfig, QueryBudget, QueryPolicy, Recoverable, SupervisedIngestor, SupervisorConfig,
};
use dgs_field::{Codec, Writer};
use dgs_hypergraph::{ChaosCampaign, ChaosFault, ChaosScheduler};
use dgs_obs::Registry;

use crate::baseline::{Baseline, Fields, Verdicts};
use crate::report::Table;
use crate::soak::{Soak, Tally};

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
    /// How the answers scored against exact truth.
    pub tally: Tally,
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
    /// Every shard bit-identical to a from-scratch WAL replay at the end.
    pub bit_identical: bool,
}

impl Measurement {
    /// answered / queries.
    pub fn availability(&self) -> f64 {
        if self.queries == 0 {
            1.0
        } else {
            self.tally.answered as f64 / self.queries as f64
        }
    }

    /// degraded / answered.
    pub fn degraded_fraction(&self) -> f64 {
        if self.tally.answered == 0 {
            0.0
        } else {
            self.tally.degraded as f64 / self.tally.answered as f64
        }
    }
}

/// The acceptance verdicts: the shared soak verdicts, availability at
/// least 0.99, and final byte-identity.
pub fn verdicts(m: &Measurement) -> Verdicts {
    m.tally
        .verdicts()
        .at_least("availability", m.availability(), 0.99)
        .check(
            "every shard byte-identical to a WAL replay",
            m.bit_identical,
        )
}

const QUERY_EVERY: usize = 100;

/// The scripted campaign: every fault class fires at deterministic update
/// indices inside the first 85% of the stream, leaving a clean tail for
/// scrub audits to finish healing before the final byte-identity check.
fn campaign(seed: u64, len: usize, shards: usize) -> ChaosCampaign {
    let at = |frac: f64| ((len as f64 * frac) as usize).max(1);
    ChaosCampaign::new("e20-soak", seed)
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
        )
        .at(at(0.45), ChaosFault::WalTornTail { bytes: 11 })
}

/// Truncates `bytes` off the end of the newest WAL segment — the torn tail
/// a crash mid-append leaves behind.
fn tear_wal_tail(wal_dir: &std::path::Path, bytes: usize) {
    let newest = std::fs::read_dir(wal_dir)
        .expect("wal dir")
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|s| s.to_str())
                .is_some_and(|s| s.starts_with("seg-") && s.ends_with(".wal"))
        })
        .max();
    let Some(newest) = newest else { return };
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&newest)
        .expect("open segment");
    let len = file.metadata().expect("segment metadata").len();
    file.set_len(len.saturating_sub(bytes as u64))
        .expect("truncate segment");
}

/// Runs the soak. Separated from [`run`] so the CI guard (`check-chaos`)
/// can re-measure without printing tables.
pub fn measure(quick: bool) -> Measurement {
    let (n, repetitions, cycles) = if quick { (24, 3, 4) } else { (32, 5, 10) };
    let soak = Soak::new("e20", n, repetitions, 0xE20, cycles);
    let (updates, seed) = (&soak.updates, soak.seed);
    let len = updates.len();
    let (wal_dir, snap_dir) = (soak.dir.join("wal"), soak.dir.join("snap"));

    let cfg = SupervisorConfig {
        error_budget: 2,
        decode_error_budget: 4,
        // Hold quarantined shards down for a few flushes before the rebuild
        // kicks in: the soak must probe the degradation ladder, not just the
        // repair path, so queries land while repetitions are missing.
        rebuild_after_flushes: 12,
        scrub_interval: (len / 24).max(64) as u64,
        checkpoint: CheckpointConfig {
            snapshot_interval: (len / 12).max(128) as u64,
            ..CheckpointConfig::default()
        },
        ..soak.supervisor()
    };
    let registry = Registry::new();
    let mut sup: SupervisedIngestor<SpanningForestSketch> =
        SupervisedIngestor::create(&wal_dir, &snap_dir, n, 2, cfg, soak.build())
            .expect("create supervised ingestor");
    sup.set_sink(&registry.sink());

    let camp = campaign(seed, len, repetitions);
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

    let mut answers = Vec::new();
    let mut torn_tail_resumes = 0u64;
    let mut pushed = 0usize;
    for pos in 0..len {
        for event in sched.due(pos) {
            if soak.fire(&mut sup, event.fault, pos) {
                continue;
            }
            match event.fault {
                ChaosFault::WalTornTail { bytes } => {
                    // Crash: drop the supervisor, tear the newest segment,
                    // resume, and re-push whatever the tear swallowed.
                    drop(sup);
                    tear_wal_tail(&wal_dir, bytes);
                    let (resumed, durable) =
                        SupervisedIngestor::resume(&wal_dir, &snap_dir, n, 2, cfg, soak.build())
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
                _ => {}
            }
        }

        sup.push(&updates[pos]).expect("push");
        pushed += 1;
        if (pos + 1).is_multiple_of(QUERY_EVERY) {
            let answer = sup
                .query(
                    &budget,
                    QueryPolicy::Majority,
                    |shard, s: &SpanningForestSketch| {
                        let left = stalls.borrow().get(&shard).copied().unwrap_or(0);
                        if left > 0 {
                            stalls.borrow_mut().insert(shard, left - 1);
                            std::thread::sleep(Duration::from_millis(4));
                        }
                        s.try_component_count()
                    },
                )
                .expect("query");
            answers.push((pos as u64 + 1, answer));
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
    let build = soak.build();
    let bit_identical = (0..repetitions).all(|i| {
        let mut reference = build(i);
        for u in &replay.updates {
            reference.apply_update(u).expect("reference apply");
        }
        let mut w = Writer::new();
        reference.encode(&mut w);
        w.into_bytes() == sup.shard_encoded(i)
    });

    let counter = |name| registry.counter_value(name).unwrap_or(0);
    let rebuild_stats = registry.histogram_stats("dgs_core_supervise_rebuild_ns");
    Measurement {
        n,
        repetitions,
        updates: pushed,
        events,
        queries: answers.len() as u64,
        tally: soak.tally(answers),
        quarantines: counter("dgs_core_supervise_quarantines"),
        rebuilds: counter("dgs_core_supervise_rebuilds"),
        scrub_mismatches: counter("dgs_core_supervise_scrub_mismatches"),
        torn_tail_resumes,
        rebuild_p50_ns: rebuild_stats.as_ref().map_or(0, |s| s.quantile(0.5)),
        rebuild_max_ns: rebuild_stats.as_ref().map_or(0, |s| s.quantile(1.0)),
        bit_identical,
    }
}

pub fn run(quick: bool) {
    let meas = measure(quick);
    let t = &meas.tally;
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
                t.answered,
                t.unknown,
                t.deadline
            ),
        ),
        (
            "degraded fraction",
            format!(
                "{:.4} ({} degraded; worst effective delta {:.4})",
                meas.degraded_fraction(),
                t.degraded,
                t.worst_effective_delta
            ),
        ),
        ("silent-wrong answers", t.silent_wrong.to_string()),
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
    let verdicts = verdicts(&meas);
    table.note(format!("acceptance: {}", verdicts.outcome()));
    table.print();
    write_baseline(&meas, verdicts.pass(), quick);
}

/// `BENCH_chaos.json` in the shared [`crate::baseline`] schema: the soak is
/// one aggregate measurement, so all counters live in `summary` (no rows);
/// `pass` = [`verdicts`].
fn write_baseline(meas: &Measurement, pass: bool, quick: bool) {
    let t = &meas.tally;
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
                .u64("answered", t.answered)
                .u64("degraded", t.degraded)
                .u64("unknown", t.unknown)
                .u64("deadline_missed", t.deadline)
                .u64("silent_wrong", t.silent_wrong)
                .f64("availability", meas.availability(), 6)
                .f64("degraded_fraction", meas.degraded_fraction(), 6)
                .f64("worst_effective_delta", t.worst_effective_delta, 6)
                .u64("quarantines", meas.quarantines)
                .u64("rebuilds", meas.rebuilds)
                .u64("scrub_mismatches", meas.scrub_mismatches)
                .u64("torn_tail_resumes", meas.torn_tail_resumes)
                .u64("rebuild_p50_ns", meas.rebuild_p50_ns)
                .u64("rebuild_max_ns", meas.rebuild_max_ns)
                .bool("bit_identical", meas.bit_identical)
                .bool("acceptable", pass),
            pass,
        )
        .write("BENCH_chaos.json", quick);
}
