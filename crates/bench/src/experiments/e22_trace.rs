//! E22 — request tracing completeness, flight-recorder postmortems, and
//! traced-ingest overhead.
//!
//! The tracing layer (`dgs-trace`) claims three operational properties,
//! each scored here against a chaos-driven service soak:
//!
//! 1. **Completeness** — every query attempted against a traced
//!    [`ConnectivityService`] opens exactly one `dgs_core_service_request`
//!    root span with a distinct trace id (rejected requests included —
//!    the typed shed is *in* the trace as a mark), and every standalone
//!    flush opens its own `dgs_core_supervise_flush` root. Histogram
//!    exemplars resolve: every `(metric, bucket)` exemplar points at a
//!    trace id present in the snapshot.
//! 2. **Integrity** — the snapshot holds **zero orphan spans** (every
//!    `parent_span_id` resolves inside its trace), zero evicted events
//!    (the rings were sized for the soak), and zero torn reads.
//! 3. **Postmortems** — every typed failure freezes exactly one
//!    postmortem file: the chaos campaign forces a shard quarantine
//!    (poison), honest `DeadlineExceeded` answers (stalled decodes), and
//!    a breaker trip; `written == quarantines + deadline_missed +
//!    breaker_trips`, and every file on disk re-reads with its checksum
//!    frames intact (`obs-report --postmortem <file>` renders them).
//!
//! A separate phase measures **overhead**: the same stream is pushed
//! through a bare [`SupervisedIngestor`] untraced and traced (tracing
//! adds one root span per flush — never per update), best-of-trials on
//! both sides; traced ingest must keep ≥ 95% of untraced throughput in
//! full mode (the quick CI floor absorbs small-runner noise).
//!
//! Every answer the traced soak returns is scored against exact truth at
//! its epoch, like E20's and E21's: the stream, the shard faults, the
//! oracle and the tally are the shared [`crate::soak`] harness, and this
//! soak adds the trace accounting and the overhead phase.
//! `experiments check-trace` re-runs the quick soak in CI and enforces
//! [`verdicts`] (guarding the checked-in `BENCH_trace.json`).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use dgs_connectivity::SpanningForestSketch;
use dgs_core::{
    BreakerConfig, BrownoutConfig, ConnectivityService, QueryPolicy, QueryRequest, ServiceConfig,
    ServiceError, SupervisedIngestor, TokenBucketConfig,
};
use dgs_hypergraph::{ChaosCampaign, ChaosFault, ChaosScheduler};
use dgs_obs::Registry;
use dgs_sketch::SketchError;
use dgs_trace::{FlightRecorder, Postmortem, Tracer};

use crate::baseline::{Baseline, Fields, Verdicts};
use crate::report::Table;
use crate::soak::{Soak, Tally};
use crate::workloads::forest_build;

/// Everything E22 measures.
pub struct Measurement {
    /// Vertices in the streamed graph.
    pub n: usize,
    /// Boosted repetitions (= supervised shards).
    pub repetitions: usize,
    /// Updates pushed through the traced service.
    pub updates: usize,
    /// Chaos events fired.
    pub events: usize,
    /// Queries attempted (admitted + typed rejections).
    pub requests: u64,
    /// How the admitted queries' answers scored against exact truth at
    /// their epochs.
    pub tally: Tally,
    /// `dgs_core_service_request` root spans in the snapshot.
    pub request_roots: u64,
    /// Distinct trace ids among those roots.
    pub distinct_trace_ids: u64,
    /// `dgs_core_supervise_flush` root spans (standalone flushes).
    pub flush_roots: u64,
    /// Orphan spans (parent missing inside the trace). MUST be 0.
    pub orphans: u64,
    /// Events evicted from any ring during the soak. MUST be 0.
    pub evicted: u64,
    /// Torn ring reads. MUST be 0.
    pub torn: u64,
    /// Histogram-bucket exemplars computed from the snapshot.
    pub exemplars: u64,
    /// Exemplars whose trace id is absent from the snapshot. MUST be 0.
    pub dangling_exemplars: u64,
    /// Shard quarantines (each writes a `shard-quarantine` postmortem).
    pub quarantines: u64,
    /// Honest `DeadlineExceeded` answers (each writes a postmortem).
    pub deadline_missed: u64,
    /// Breaker trips (each writes a `breaker-open` postmortem).
    pub breaker_trips: u64,
    /// Postmortem files the recorder reports written.
    pub postmortems_written: u64,
    /// Postmortem files on disk that decoded with valid checksums.
    pub postmortems_readable: u64,
    /// Postmortems whose offending-request span tree is non-empty.
    pub postmortems_with_tree: u64,
    /// Untraced ingest throughput (best of trials).
    pub untraced_updates_per_sec: f64,
    /// Traced ingest throughput (best of trials).
    pub traced_updates_per_sec: f64,
    /// Acceptance floor for the overhead ratio (mode-dependent).
    pub overhead_floor: f64,
}

impl Measurement {
    /// traced / untraced updates per second.
    pub fn overhead_ratio(&self) -> f64 {
        if self.untraced_updates_per_sec <= 0.0 {
            0.0
        } else {
            self.traced_updates_per_sec / self.untraced_updates_per_sec
        }
    }

    /// Expected postmortem count from the typed-failure counters.
    pub fn expected_postmortems(&self) -> u64 {
        self.quarantines + self.deadline_missed + self.breaker_trips
    }
}

/// The acceptance verdicts: the shared soak verdicts, complete and clean
/// traces, one readable postmortem per typed failure (each class forced
/// at least once), and traced ingest above the overhead floor.
pub fn verdicts(m: &Measurement) -> Verdicts {
    let (written, readable) = (m.postmortems_written, m.postmortems_readable);
    m.tally
        .verdicts()
        .equal("request_roots", m.request_roots, "requests", m.requests)
        .equal("trace_ids", m.distinct_trace_ids, "requests", m.requests)
        .positive("flush_roots", m.flush_roots)
        .zero("orphans", m.orphans)
        .zero("evicted", m.evicted)
        .zero("torn", m.torn)
        .positive("exemplars", m.exemplars)
        .zero("dangling_exemplars", m.dangling_exemplars)
        .positive("quarantines", m.quarantines)
        .positive("deadline_missed", m.deadline_missed)
        .positive("breaker_trips", m.breaker_trips)
        .equal("postmortems", written, "expected", m.expected_postmortems())
        .equal("readable", readable, "written", written)
        .positive("postmortems_with_tree", m.postmortems_with_tree)
        .at_least("overhead_ratio", m.overhead_ratio(), m.overhead_floor)
}

/// The scripted failure campaign: a transient shard error (retry spans), a
/// poisoning (quarantine postmortem), and a late stall burst sized to trip
/// the breaker (deadline + breaker postmortems).
fn campaign(seed: u64, len: usize, trip_after: u32) -> ChaosCampaign {
    let at = |frac: f64| ((len as f64 * frac) as usize).max(1);
    ChaosCampaign::new("e22-trace", seed)
        .at(
            at(0.15),
            ChaosFault::ShardError {
                shard: 1,
                attempts: 2,
            },
        )
        .at(at(0.30), ChaosFault::ShardPoison { shard: 0 })
        .at(
            at(0.85),
            ChaosFault::SlowConsumer {
                queries: trip_after,
                millis: 0, // the stall length is derived from the deadline
            },
        )
}

/// Runs the soak. Separated from [`run`] so the CI guard (`check-trace`)
/// can re-measure without printing tables.
pub fn measure(quick: bool) -> Measurement {
    let (n, repetitions, cycles) = if quick { (24, 3, 12) } else { (32, 5, 40) };
    let query_stride: usize = 64;
    let trials: usize = if quick { 3 } else { 5 };
    let overhead_floor = if quick { 0.75 } else { 0.95 };
    // Two consecutive misses trip the breaker. The stall burst is sized to
    // the trip count, and two is the most the cost-admission gate will
    // admit back-to-back: each ~150ms stall feeds the per-repetition cost
    // EWMA, and after two of them the estimate exceeds the deadline's
    // cost-headroom budget — a third stalled query would be CostRejected,
    // not deadline-missed, and the breaker would never fire.
    let trip_after: u32 = 2;
    let deadline = Duration::from_millis(100);
    let soak = Soak::new("e22", n, repetitions, 0xE22, cycles);
    let (updates, dirs, seed) = (&soak.updates, &soak.dir, soak.seed);
    let len = updates.len();

    // The poisoned shard must stay quarantined: its postmortem is the
    // artifact under test, and a rebuild would fire a second one.
    let sup_cfg = soak.supervisor();
    let svc_cfg = ServiceConfig {
        queue_capacity: 4,
        quota: TokenBucketConfig {
            capacity: 4.0 * repetitions as f64,
            refill_per_sec: 2_000.0,
        },
        default_deadline: deadline,
        refresh_interval: 256,
        recover_views: false,
        brownout: BrownoutConfig {
            start_depth: 2,
            min_repetitions: 2,
        },
        breaker: BreakerConfig {
            // Exactly the stall burst: the last stalled query trips it.
            trip_after,
            // Long enough that the breaker stays open to the end of the
            // stream — the probes after cooldown would mint extra deadline
            // postmortems and break exact accounting.
            cooldown: Duration::from_secs(600),
        },
        ..ServiceConfig::default()
    };

    // Phase 1: traced service under chaos. Everything runs on this thread,
    // so one ring holds the whole soak; sized with lots of headroom —
    // eviction is scored as a failure, not tolerated.
    let registry = Registry::new();
    let tracer = Tracer::with_sink(1 << 15, &registry.sink());
    let recorder =
        FlightRecorder::with_sink(dirs.join("postmortems"), &tracer, 64, &registry.sink())
            .expect("flight recorder dir");
    let svc: ConnectivityService<SpanningForestSketch> =
        ConnectivityService::with_sink(svc_cfg, &registry.sink());
    svc.set_tracer(&tracer);
    svc.set_flight_recorder(&recorder);
    svc.add_tenant(
        "t0",
        dirs.join("wal"),
        dirs.join("snap"),
        n,
        2,
        sup_cfg,
        soak.build(),
    )
    .expect("add tenant");

    let camp = campaign(seed, len, trip_after);
    let mut sched = ChaosScheduler::new(&camp);
    sched.set_sink(&registry.sink());
    let events = sched.len();

    // While nonzero, each decode burns one unit, stalls past the deadline,
    // and fails retryably — the budget check then returns an honest
    // `DeadlineExceeded` (a successful slow decode would be an honest
    // `Full` and trip nothing).
    let stall_queries = AtomicU32::new(0);
    let stall = deadline + Duration::from_millis(50);
    let decode = |_shard: usize, s: &SpanningForestSketch| {
        if stall_queries
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
            .is_ok()
        {
            std::thread::sleep(stall);
            return Err(SketchError::failure("chaos", "stalled decode"));
        }
        s.try_component_count()
    };
    let req = QueryRequest {
        deadline: Some(deadline),
        policy: QueryPolicy::FirstSuccess,
    };

    let mut requests = 0u64;
    let mut answers = Vec::new();
    let mut query = || {
        requests += 1;
        match svc.query("t0", &req, decode) {
            Ok(resp) => answers.push((resp.epoch, resp.answer)),
            Err(ServiceError::Overload(_)) => {}
            Err(e) => panic!("query failed: {e}"),
        }
    };
    for (pos, u) in updates.iter().enumerate() {
        for event in sched.due(pos) {
            let fired = svc.with_ingestor("t0", |ing| soak.fire(ing, event.fault, pos));
            if fired.expect("chaos tenant") {
                continue;
            }
            if let ChaosFault::SlowConsumer { queries, .. } = event.fault {
                // The stall burst: each query eats one stalled decode and
                // lands an honest DeadlineExceeded; the last one trips the
                // breaker.
                stall_queries.store(queries, Ordering::Release);
                for _ in 0..queries {
                    query();
                }
            }
        }
        svc.push("t0", u).expect("push");
        if pos % query_stride == 0 {
            query();
        }
    }
    svc.flush("t0").expect("flush");

    let snap = tracer.snapshot();
    let mut trace_ids: BTreeSet<u64> = BTreeSet::new();
    let mut request_roots = 0u64;
    let mut flush_roots = 0u64;
    for root in snap.roots() {
        match root.name {
            "dgs_core_service_request" => {
                request_roots += 1;
                trace_ids.insert(root.trace_id);
            }
            "dgs_core_supervise_flush" => flush_roots += 1,
            _ => {}
        }
    }
    let all_ids: BTreeSet<u64> = snap.events.iter().map(|e| e.trace_id).collect();
    let exemplars = snap.exemplars();
    let dangling_exemplars = exemplars
        .iter()
        .filter(|x| !all_ids.contains(&x.trace_id))
        .count() as u64;

    let tenant = |name: &str| {
        registry
            .counter_value(&format!("{name}{{tenant=\"t0\"}}"))
            .unwrap_or(0)
    };
    let quarantines = registry
        .counter_value("dgs_core_supervise_quarantines")
        .unwrap_or(0);
    let deadline_missed = tenant("dgs_core_service_deadline_missed");
    let breaker_trips = tenant("dgs_core_service_breaker_trips");

    // Every postmortem on disk must decode with valid checksum frames.
    let mut postmortems_readable = 0u64;
    let mut postmortems_with_tree = 0u64;
    let mut pm_files: Vec<_> = std::fs::read_dir(recorder.dir())
        .expect("postmortem dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    pm_files.sort();
    for path in &pm_files {
        if let Ok(pm) = Postmortem::read(path) {
            postmortems_readable += 1;
            if !pm.tree.is_empty() {
                postmortems_with_tree += 1;
            }
            // The render path must not panic on any real postmortem.
            let _ = pm.render();
        }
    }

    // Phase 2: traced-vs-untraced ingest overhead on a bare ingestor. One
    // untimed warm-up pass per mode drains bursty CPU credit (see the E19
    // note), then best-of-trials on each side.
    let mut untraced_updates_per_sec = 0.0f64;
    let mut traced_updates_per_sec = 0.0f64;
    for trial in 0..=trials {
        for traced in [false, true] {
            let tag = format!("ovh-{trial}-{traced}");
            let mut ing: SupervisedIngestor<SpanningForestSketch> = SupervisedIngestor::create(
                dirs.join(format!("{tag}-wal")),
                dirs.join(format!("{tag}-snap")),
                n,
                2,
                sup_cfg,
                forest_build(n, seed ^ 0x0FF),
            )
            .expect("overhead ingestor");
            let overhead_tracer = Tracer::new(1 << 10);
            if traced {
                ing.set_tracer(&overhead_tracer);
            }
            let t0 = Instant::now();
            for u in updates {
                ing.push(u).expect("overhead push");
            }
            ing.flush().expect("overhead flush");
            let rate = len as f64 / t0.elapsed().as_secs_f64();
            if trial > 0 {
                let best = if traced {
                    &mut traced_updates_per_sec
                } else {
                    &mut untraced_updates_per_sec
                };
                *best = best.max(rate);
            }
        }
    }

    Measurement {
        n,
        repetitions,
        updates: len,
        events,
        requests,
        tally: soak.tally(answers),
        request_roots,
        distinct_trace_ids: trace_ids.len() as u64,
        flush_roots,
        orphans: snap.orphans().len() as u64,
        evicted: snap.evicted,
        torn: snap.torn,
        exemplars: exemplars.len() as u64,
        dangling_exemplars,
        quarantines,
        deadline_missed,
        breaker_trips,
        postmortems_written: recorder.written(),
        postmortems_readable,
        postmortems_with_tree,
        untraced_updates_per_sec,
        traced_updates_per_sec,
        overhead_floor,
    }
}

pub fn run(quick: bool) {
    let meas = measure(quick);
    let mut table = Table::new(
        "E22: request tracing, flight recorder, traced-ingest overhead",
        &["metric", "value"],
    );
    let rows: Vec<(&str, String)> = vec![
        (
            "workload",
            format!(
                "n = {}, R = {}, {} updates, {} chaos events, {} requests",
                meas.n, meas.repetitions, meas.updates, meas.events, meas.requests
            ),
        ),
        (
            "answers",
            format!(
                "{} answered ({} degraded), {} unknown, {} deadline; {} silent-wrong",
                meas.tally.answered,
                meas.tally.degraded,
                meas.tally.unknown,
                meas.tally.deadline,
                meas.tally.silent_wrong
            ),
        ),
        (
            "root spans",
            format!(
                "{} request roots / {} requests ({} distinct trace ids), {} flush roots",
                meas.request_roots, meas.requests, meas.distinct_trace_ids, meas.flush_roots
            ),
        ),
        (
            "integrity",
            format!(
                "{} orphans, {} evicted, {} torn",
                meas.orphans, meas.evicted, meas.torn
            ),
        ),
        (
            "exemplars",
            format!("{} ({} dangling)", meas.exemplars, meas.dangling_exemplars),
        ),
        (
            "typed failures",
            format!(
                "{} quarantines, {} deadline-exceeded, {} breaker trips",
                meas.quarantines, meas.deadline_missed, meas.breaker_trips
            ),
        ),
        (
            "postmortems",
            format!(
                "{} written (expected {}), {} readable, {} with span tree",
                meas.postmortems_written,
                meas.expected_postmortems(),
                meas.postmortems_readable,
                meas.postmortems_with_tree
            ),
        ),
        (
            "ingest overhead",
            format!(
                "{:.0} untraced -> {:.0} traced updates/s (ratio {:.3}, floor {:.2})",
                meas.untraced_updates_per_sec,
                meas.traced_updates_per_sec,
                meas.overhead_ratio(),
                meas.overhead_floor
            ),
        ),
    ];
    for (k, v) in rows {
        table.row(vec![k.to_string(), v]);
    }
    table.note("one root span per request — typed rejections included, as marks inside the trace");
    table
        .note("postmortem accounting is exact: written == quarantines + deadlines + breaker trips");
    let verdicts = verdicts(&meas);
    table.note(format!("acceptance: {}", verdicts.outcome()));
    table.print();
    write_baseline(&meas, verdicts.pass(), quick);
}

/// `BENCH_trace.json` in the shared [`crate::baseline`] schema; `pass` =
/// [`verdicts`].
fn write_baseline(meas: &Measurement, pass: bool, quick: bool) {
    let mut b = Baseline::new("e22-trace").config(
        Fields::new()
            .usize("n", meas.n)
            .usize("repetitions", meas.repetitions)
            .usize("updates", meas.updates)
            .usize("events", meas.events),
    );
    b.row(
        Fields::new()
            .str("aspect", "answers")
            .u64("answered", meas.tally.answered)
            .u64("silent_wrong", meas.tally.silent_wrong),
        meas.tally.answered > 0 && meas.tally.silent_wrong == 0,
    );
    b.row(
        Fields::new()
            .str("aspect", "completeness")
            .u64("requests", meas.requests)
            .u64("request_roots", meas.request_roots)
            .u64("distinct_trace_ids", meas.distinct_trace_ids)
            .u64("flush_roots", meas.flush_roots),
        meas.request_roots == meas.requests
            && meas.distinct_trace_ids == meas.requests
            && meas.flush_roots > 0,
    );
    b.row(
        Fields::new()
            .str("aspect", "integrity")
            .u64("orphans", meas.orphans)
            .u64("evicted", meas.evicted)
            .u64("torn", meas.torn)
            .u64("exemplars", meas.exemplars)
            .u64("dangling_exemplars", meas.dangling_exemplars),
        meas.orphans == 0
            && meas.evicted == 0
            && meas.torn == 0
            && meas.exemplars > 0
            && meas.dangling_exemplars == 0,
    );
    b.row(
        Fields::new()
            .str("aspect", "postmortems")
            .u64("quarantines", meas.quarantines)
            .u64("deadline_missed", meas.deadline_missed)
            .u64("breaker_trips", meas.breaker_trips)
            .u64("expected", meas.expected_postmortems())
            .u64("written", meas.postmortems_written)
            .u64("readable", meas.postmortems_readable)
            .u64("with_tree", meas.postmortems_with_tree),
        meas.postmortems_written == meas.expected_postmortems()
            && meas.postmortems_readable == meas.postmortems_written
            && meas.expected_postmortems() > 0
            && meas.postmortems_with_tree > 0,
    );
    b.row(
        Fields::new()
            .str("aspect", "overhead")
            .f64("untraced_updates_per_sec", meas.untraced_updates_per_sec, 1)
            .f64("traced_updates_per_sec", meas.traced_updates_per_sec, 1)
            .f64("overhead_ratio", meas.overhead_ratio(), 4)
            .f64("floor", meas.overhead_floor, 2),
        meas.overhead_ratio() >= meas.overhead_floor,
    );
    b.summary(
        Fields::new()
            .u64("requests", meas.requests)
            .u64("answered", meas.tally.answered)
            .u64("silent_wrong", meas.tally.silent_wrong)
            .u64("request_roots", meas.request_roots)
            .u64("orphans", meas.orphans)
            .u64("evicted", meas.evicted)
            .u64("postmortems_written", meas.postmortems_written)
            .u64("postmortems_expected", meas.expected_postmortems())
            .f64("overhead_ratio", meas.overhead_ratio(), 4)
            .bool("acceptable", pass),
        pass,
    )
    .write("BENCH_trace.json", quick);
}

/// `obs-report --postmortem <file>`: render one postmortem to stdout.
pub fn render_postmortem(path: &str) -> bool {
    match Postmortem::read(std::path::Path::new(path)) {
        Ok(pm) => {
            print!("{}", pm.render());
            true
        }
        Err(e) => {
            eprintln!("obs-report: cannot read postmortem {path}: {e}");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{guard, passing_baseline};

    /// The full-mode soak as `BENCH_trace.json` records it.
    fn recorded() -> Measurement {
        Measurement {
            n: 32,
            repetitions: 5,
            updates: 19_400,
            events: 3,
            requests: 306,
            tally: Tally {
                answered: 258,
                silent_wrong: 0,
                ..Tally::default()
            },
            request_roots: 306,
            distinct_trace_ids: 306,
            flush_roots: 683,
            orphans: 0,
            evicted: 0,
            torn: 0,
            exemplars: 161,
            dangling_exemplars: 0,
            quarantines: 1,
            deadline_missed: 2,
            breaker_trips: 1,
            postmortems_written: 4,
            postmortems_readable: 4,
            postmortems_with_tree: 4,
            untraced_updates_per_sec: 5030.8,
            traced_updates_per_sec: 5252.8,
            overhead_floor: 0.95,
        }
    }

    /// Each verdict the hand-written guard used to skip fails the runner
    /// on its own.
    #[test]
    fn guard_enforces_answers_flush_roots_and_exemplars() {
        let path = passing_baseline("e22");
        let path = path.to_str().unwrap();
        assert!(guard("check-trace", path, || verdicts(&recorded())));
        let breaks: [fn(&mut Measurement); 4] = [
            |m| m.dangling_exemplars = 1,
            |m| m.flush_roots = 0,
            |m| m.tally.answered = 0,
            |m| m.tally.silent_wrong = 1,
        ];
        for (i, broken) in breaks.into_iter().enumerate() {
            let mut m = recorded();
            broken(&mut m);
            assert!(!guard("check-trace", path, || verdicts(&m)), "break {i}");
        }
        let _ = std::fs::remove_file(path);
    }
}
