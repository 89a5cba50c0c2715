//! Driving a tenant through the public `ConnectivityService` API: set-up,
//! the closed-loop pass over the op script, answer checking, and the
//! crash-and-resume at the end of a run.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dgs_core::checkpoint::CheckpointConfig;
use dgs_core::service::{ConnectivityService, QueryRequest, ServiceConfig, ServiceError};
use dgs_core::supervise::{SupervisedAnswer, SupervisedIngestor, SupervisorConfig};
use dgs_core::TokenBucketConfig;
use dgs_hypergraph::{Update, UpdateStream, VertexId};

use crate::backend::Sketch;
use crate::script::{Spec, Step, Tiled, Truth, BATCH, MAX_RANK, REPETITIONS, SNAPSHOT_INTERVAL};
use crate::stats;
use crate::trace::{Trace, NO_BATCH};

pub const TENANT: &str = "t0";

/// Every run ends `CRASH_TAIL` updates past a snapshot boundary, so
/// recovery always replays the same tail length whatever the run reached.
pub const CRASH_TAIL: u64 = SNAPSHOT_INTERVAL / 2;

/// Service policy: library defaults, except that the overload ladder can
/// never shed the benchmark's own single-client closed loop (the default
/// quota refills 256 tokens/s) and deadlines never cut a decode short.
pub fn service_config(spec: &Spec, auto_refresh: bool) -> ServiceConfig {
    ServiceConfig {
        quota: TokenBucketConfig {
            capacity: 1e18,
            refill_per_sec: 1e18,
        },
        default_deadline: Duration::from_secs(3600),
        refresh_interval: if auto_refresh {
            spec.refresh_every as u64
        } else {
            0
        },
        ..ServiceConfig::default()
    }
}

pub fn supervisor_config(spec: &Spec, seed: u64, batch_size: usize) -> SupervisorConfig {
    SupervisorConfig {
        repetitions: REPETITIONS,
        threads: spec.threads,
        batch_size,
        seed,
        checkpoint: CheckpointConfig {
            snapshot_interval: SNAPSHOT_INTERVAL,
            ..CheckpointConfig::default()
        },
        ..SupervisorConfig::default()
    }
}

/// WAL and snapshot directories of one tenant.
pub struct Dirs {
    pub wal: PathBuf,
    pub snap: PathBuf,
}

impl Dirs {
    pub fn under(root: &Path, label: &str) -> Dirs {
        Dirs {
            wal: root.join(format!("{label}-wal")),
            snap: root.join(format!("{label}-snap")),
        }
    }

    pub fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.wal);
        let _ = std::fs::remove_dir_all(&self.snap);
    }
}

/// The inputs of one run, all drawn from the seed before any timer.
pub struct Inputs {
    pub spec: Spec,
    pub seed: u64,
    pub tiled: Tiled,
    pub truth: Truth,
}

impl Inputs {
    pub fn new(spec: Spec, seed: u64) -> Inputs {
        let tiled = Tiled::new(spec.base_stream(seed));
        let truth = Truth::new(spec.n, tiled.base());
        Inputs {
            spec,
            seed,
            tiled,
            truth,
        }
    }

    /// Updates ingested during set-up: one whole cycle, or none.
    pub fn preload(&self) -> &[Update] {
        if self.spec.preload {
            self.tiled.base()
        } else {
            &[]
        }
    }

    pub fn preload_len(&self) -> u64 {
        self.preload().len() as u64
    }

    pub fn sketch_seed(&self) -> u64 {
        self.spec.sketch_seed(self.seed)
    }

    pub fn shard_factory<S: Sketch>(&self) -> impl Fn(usize) -> S + Send + Sync + 'static {
        let (n, seed) = (self.spec.n, self.sketch_seed());
        move |i| S::build(n, seed, i)
    }

    pub fn supervisor(&self, batch_size: usize) -> SupervisorConfig {
        supervisor_config(&self.spec, self.seed, batch_size)
    }
}

/// Creates the service and the tenant, and ingests the preload. This is
/// what `setup_s` times.
pub fn setup<S: Sketch>(
    inp: &Inputs,
    dirs: &Dirs,
    auto_refresh: bool,
) -> Result<ConnectivityService<S>, String> {
    let svc = ConnectivityService::new(service_config(&inp.spec, auto_refresh));
    svc.add_tenant(
        TENANT,
        &dirs.wal,
        &dirs.snap,
        inp.spec.n,
        MAX_RANK,
        inp.supervisor(BATCH),
        inp.shard_factory::<S>(),
    )
    .map_err(|e| format!("add_tenant: {e}"))?;
    if inp.spec.preload {
        let stream = UpdateStream {
            n: inp.spec.n,
            max_rank: MAX_RANK,
            updates: inp.preload().to_vec(),
        };
        svc.with_ingestor(TENANT, |ing| ing.ingest_stream(&stream))
            .map_err(|e| format!("preload: {e}"))?
            .map_err(|e| format!("preload: {e}"))?;
        svc.refresh_view(TENANT)
            .map_err(|e| format!("preload refresh: {e}"))?;
    }
    Ok(svc)
}

/// One answered query: the view epoch it was answered at and the labels,
/// or `None` when the service returned no value.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    pub epoch: u64,
    pub labels: Option<Vec<VertexId>>,
}

/// What one closed-loop pass measured. Times are nanoseconds.
#[derive(Default)]
pub struct Pass {
    pub epochs: usize,
    pub push_ns: Vec<f64>,
    /// What each push triggered, as [`PushClass`] bits.
    pub push_class: Vec<u8>,
    pub query_ns: Vec<f64>,
    /// Explicit `refresh_view` calls (traced passes only; untraced passes
    /// refresh inside `push`).
    pub refresh_ns: Vec<f64>,
    /// Time inside the decode callback, per query (traced passes only).
    pub decode_ns: Vec<f64>,
    pub answers: Vec<Answer>,
    pub failed: u64,
    pub rejections: u64,
    /// Wall time of the closed loop, summed over its epochs.
    pub wall_ns: f64,
}

impl Pass {
    pub fn attempted(&self) -> u64 {
        (self.push_ns.len() + self.query_ns.len()) as u64
    }

    /// Updates acknowledged per second of push time, with push time taken
    /// as the sum over push classes of class count × class median latency:
    /// per-class medians keep bursts of host CPU steal out of the figure
    /// while every flush, copy-on-write, refresh and snapshot still counts.
    pub fn ingest_ups(&self) -> f64 {
        let ns: f64 = self
            .by_class()
            .values()
            .map(|v| v.len() as f64 * stats::median(v))
            .sum();
        self.push_ns.len() as f64 / (ns / 1e9)
    }

    /// Push latencies grouped by push class.
    fn by_class(&self) -> BTreeMap<u8, Vec<f64>> {
        let mut by_class: BTreeMap<u8, Vec<f64>> = BTreeMap::new();
        for (&c, &t) in self.push_class.iter().zip(&self.push_ns) {
            by_class.entry(c).or_default().push(t);
        }
        by_class
    }

    /// Updates acknowledged per second of summed push time.
    pub fn raw_ingest_ups(&self) -> f64 {
        self.push_ns.len() as f64 / (self.push_ns.iter().sum::<f64>() / 1e9)
    }

    /// Count and median latency (µs) of each push class.
    pub fn class_summary(&self) -> String {
        self.by_class()
            .iter()
            .map(|(c, v)| {
                format!(
                    "{}: n={} p50={:.1}us",
                    PushClass::label(*c),
                    v.len(),
                    stats::median(v) / 1e3
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// Time spent inside service calls.
    pub fn call_ns(&self) -> f64 {
        self.push_ns.iter().sum::<f64>()
            + self.query_ns.iter().sum::<f64>()
            + self.refresh_ns.iter().sum::<f64>()
    }
}

/// What a push triggered inside the service, as bits.
pub struct PushClass;

impl PushClass {
    pub const FLUSH: u8 = 1;
    pub const COPY_ON_WRITE: u8 = 2;
    pub const REFRESH: u8 = 4;
    pub const SNAPSHOT: u8 = 8;

    pub fn label(c: u8) -> String {
        if c == 0 {
            return "plain".into();
        }
        let names = [
            (Self::FLUSH, "flush"),
            (Self::COPY_ON_WRITE, "cow"),
            (Self::REFRESH, "refresh"),
            (Self::SNAPSHOT, "snapshot"),
        ];
        names
            .iter()
            .filter(|(b, _)| c & b != 0)
            .map(|(_, n)| *n)
            .collect::<Vec<_>>()
            .join("+")
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Drives the op script one epoch at a time from the tenant's offset after
/// set-up. With a trace the service must have been built without
/// auto-refresh: the runner calls `refresh_view` itself at the same
/// offsets, records a span around each call, and times the decode callback
/// inside each query.
pub struct Runner<'a, S: Sketch> {
    svc: &'a ConnectivityService<S>,
    inp: &'a Inputs,
    steps: Vec<Step>,
    offset: u64,
    /// The preload counts toward the first snapshot, as in the supervisor.
    since_snapshot: u64,
    pub pass: Pass,
}

impl<'a, S: Sketch> Runner<'a, S> {
    pub fn new(svc: &'a ConnectivityService<S>, inp: &'a Inputs) -> Runner<'a, S> {
        Runner {
            svc,
            inp,
            steps: inp.spec.epoch_steps(),
            offset: inp.preload_len(),
            since_snapshot: inp.preload_len(),
            pass: Pass::default(),
        }
    }

    /// True once `seconds` of closed-loop time have passed, at a whole
    /// number of rounds.
    pub fn done(&self, seconds: f64) -> bool {
        self.pass
            .epochs
            .is_multiple_of(self.inp.spec.epochs_per_round)
            && self.pass.wall_ns / 1e9 >= seconds
    }

    pub fn epoch(&mut self, mut trace: Option<&mut Trace>) {
        let (svc, inp, pass) = (self.svc, self.inp, &mut self.pass);
        let traced = trace.is_some();
        let req = QueryRequest::default();
        // The callback is `Fn`: its time accumulates through cells.
        let inside = Cell::new(0u64);
        let first_start = Cell::new(u64::MAX);
        let origin = trace.as_ref().map_or_else(Instant::now, |t| t.origin());
        let timed_decode = |_: usize, s: &S| {
            let t = Instant::now();
            let out = s.labels();
            let end = Instant::now();
            if first_start.get() == u64::MAX {
                first_start.set((t - origin).as_nanos() as u64);
            }
            inside.set(inside.get() + (end - t).as_nanos() as u64);
            out
        };
        let start = Instant::now();
        let mut pushes = 0;
        for step in &self.steps {
            match step {
                Step::Push => {
                    let u = inp.tiled.update(self.offset);
                    self.offset += 1;
                    let t = Instant::now();
                    let r = svc.push(TENANT, &u);
                    let d = t.elapsed();
                    pass.push_ns.push(ns(d));
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.push_at("service.push", t, d);
                    }
                    if r.is_err() {
                        pass.failed += 1;
                    }
                    pushes += 1;
                    let mut class = 0;
                    if pushes % BATCH == 0 {
                        class |= PushClass::FLUSH;
                        if pushes == BATCH {
                            class |= PushClass::COPY_ON_WRITE;
                        }
                        self.since_snapshot += BATCH as u64;
                        if self.since_snapshot >= SNAPSHOT_INTERVAL {
                            class |= PushClass::SNAPSHOT;
                            self.since_snapshot = 0;
                        }
                    }
                    if pushes == inp.spec.refresh_every {
                        class |= PushClass::REFRESH;
                    }
                    pass.push_class.push(class);
                    if let Some(tr) = trace.as_deref_mut() {
                        if pushes == inp.spec.refresh_every {
                            let t = Instant::now();
                            let r = svc.refresh_view(TENANT);
                            let d = t.elapsed();
                            pass.refresh_ns.push(ns(d));
                            tr.push_at("service.refresh", t, d);
                            if r.is_err() {
                                pass.failed += 1;
                            }
                        }
                    }
                }
                Step::Query => {
                    inside.set(0);
                    first_start.set(u64::MAX);
                    let t = Instant::now();
                    let r = if traced {
                        svc.query(TENANT, &req, timed_decode)
                    } else {
                        svc.query(TENANT, &req, |_, s: &S| s.labels())
                    };
                    let d = t.elapsed();
                    pass.query_ns.push(ns(d));
                    if let Some(tr) = trace.as_deref_mut() {
                        pass.decode_ns.push(inside.get() as f64);
                        let parent = tr.push_at("service.query", t, d);
                        if first_start.get() != u64::MAX {
                            let s = first_start.get();
                            tr.push("service.decode", parent, NO_BATCH, 0, s, s + inside.get());
                        }
                    }
                    let answer = match r {
                        Ok(resp) => Answer {
                            epoch: resp.epoch,
                            labels: match resp.answer {
                                SupervisedAnswer::Full { value, .. }
                                | SupervisedAnswer::Degraded { value, .. } => Some(value),
                                _ => None,
                            },
                        },
                        Err(e) => {
                            if matches!(e, ServiceError::Overload(_)) {
                                pass.rejections += 1;
                            }
                            Answer {
                                epoch: u64::MAX,
                                labels: None,
                            }
                        }
                    };
                    if answer.labels.is_none() {
                        pass.failed += 1;
                    }
                    pass.answers.push(answer);
                }
            }
        }
        self.pass.epochs += 1;
        self.pass.wall_ns += ns(start.elapsed());
    }
}

/// Whole rounds of epochs until `seconds` of closed-loop time have passed.
pub fn run_for<S: Sketch>(svc: &ConnectivityService<S>, inp: &Inputs, seconds: f64) -> Pass {
    let mut runner = Runner::new(svc, inp);
    while !runner.done(seconds) {
        runner.epoch(None);
    }
    runner.pass
}

/// Checks every answered query against exact connectivity at its epoch;
/// returns the number of silently wrong answers.
pub fn silent_wrong(inp: &Inputs, answers: &[Answer]) -> usize {
    answers
        .iter()
        .filter(|a| match &a.labels {
            Some(l) => l.as_slice() != inp.truth.labels(inp.tiled.prefix_len(a.epoch)),
            None => false,
        })
        .count()
}

/// Encoded state of every repetition of the tenant.
pub fn encodings<S: Sketch>(svc: &ConnectivityService<S>) -> Result<Vec<Vec<u8>>, String> {
    svc.with_ingestor(TENANT, |ing| {
        (0..ing.repetitions())
            .map(|i| ing.shard_encoded(i))
            .collect()
    })
    .map_err(|e| e.to_string())
}

/// Outcome of the crash at the end of a run.
pub struct Crash {
    pub offset: u64,
    pub encodings: Vec<Vec<u8>>,
}

/// Ingests (untimed, without view refreshes) up to the next offset that
/// lies `CRASH_TAIL` past a snapshot boundary, flushes, records the
/// shards' encodings, and drops the service without shutting it down.
pub fn crash<S: Sketch>(svc: ConnectivityService<S>, inp: &Inputs) -> Result<Crash, String> {
    let offset = svc
        .with_ingestor(TENANT, |ing| -> Result<u64, String> {
            let mut off = ing.offset();
            while off % SNAPSHOT_INTERVAL != CRASH_TAIL {
                ing.push(&inp.tiled.update(off))
                    .map_err(|e| format!("crash-point ingest: {e}"))?;
                off += 1;
            }
            ing.flush().map_err(|e| format!("crash-point flush: {e}"))?;
            Ok(off)
        })
        .map_err(|e| e.to_string())??;
    let encodings = encodings(&svc)?;
    drop(svc);
    Ok(Crash { offset, encodings })
}

/// Times `SupervisedIngestor::resume` over the crashed tenant's
/// directories and checks the resumed shards are byte-identical to the
/// pre-crash shards.
pub fn resume<S: Sketch>(inp: &Inputs, dirs: &Dirs, crash: &Crash) -> Result<f64, String> {
    let t = Instant::now();
    let (ing, durable) = SupervisedIngestor::<S>::resume(
        &dirs.wal,
        &dirs.snap,
        inp.spec.n,
        MAX_RANK,
        inp.supervisor(BATCH),
        inp.shard_factory::<S>(),
    )
    .map_err(|e| format!("resume: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    if durable != crash.offset {
        return Err(format!(
            "resume reached offset {durable}, the crash was at {}",
            crash.offset
        ));
    }
    for (i, before) in crash.encodings.iter().enumerate() {
        if &ing.shard_encoded(i) != before {
            return Err(format!(
                "recovered shard {i} differs from the pre-crash shard"
            ));
        }
    }
    Ok(secs)
}
