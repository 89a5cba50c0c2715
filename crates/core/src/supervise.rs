//! Self-healing supervision for sharded, boosted ingestion.
//!
//! The paper's amplification argument (δ → δ^R over R sibling-seeded
//! repetitions) has an operational reading: the repetitions of a boosted
//! sketch are an *ensemble of failure domains*. Losing one repetition to a
//! poisoned allocator, a bad disk, or a stalled decode should cost
//! confidence — the failure probability widens from δ^R to δ^R′ with R′
//! live members — never correctness and never availability. This module
//! packages that reading as a supervisor around the striped boosted
//! ingestion of [`crate::boost`] and the durability stack of
//! [`crate::checkpoint`]:
//!
//! * **Per-shard health state machine** — every repetition is a shard with
//!   a [`ShardState`]: `Healthy → Suspect → Quarantined → Rebuilding →
//!   Healthy`. Typed [`SketchError`]s drive the transitions: a retryable
//!   failure is retried under jittered exponential backoff
//!   ([`dgs_hypergraph::fault::Backoff`]); a shard that keeps needing
//!   retries past its error budget, fails non-retryably, or exhausts its
//!   backoff budget is **quarantined** — it stops receiving updates while
//!   the healthy shards keep ingesting and answering.
//! * **Background rebuild** — the shared WAL records every update before
//!   any shard sees it, so a quarantined shard is rebuilt *exactly*: newest
//!   valid snapshot plus WAL-tail replay via [`RecoveryDriver`], capped at
//!   the ensemble's current durable offset. Linearity makes the rebuilt
//!   shard bit-identical to one that never faulted.
//! * **Scrub audits** — a silently diverged shard (valid-looking bytes, no
//!   typed error) is unobservable to the state machine; the supervisor
//!   periodically rebuilds one healthy shard from durable state and
//!   byte-compares it against the live copy, replacing it on mismatch.
//! * **Deadline-bounded degraded queries** — [`SupervisedIngestor::query`]
//!   consults live repetitions under a [`QueryBudget`] (wall-clock
//!   deadline, per-shard decode deadline, decode-step cap) and answers with
//!   a [`SupervisedAnswer`]: `Full` from a complete ensemble, `Degraded {
//!   healthy_repetitions, effective_delta }` from a partial one, `Unknown`
//!   when every live repetition failed its decode, `DeadlineExceeded` when
//!   the budget ran out first. A decodable instance is **never** answered
//!   wrongly and never blocks past its deadline.
//!
//! Everything is observable: state transitions, quarantines, rebuilds and
//! their latency, scrub mismatches, retries, backoff time, and the answer
//! mix all surface through `dgs-obs` under `dgs_core_supervise_*`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dgs_field::{Codec, Writer};
use dgs_hypergraph::fault::{Backoff, BackoffConfig};
use dgs_hypergraph::wal::WalWriter;
use dgs_hypergraph::{HyperEdge, Update, UpdateStream};
use dgs_obs::{Counter, Gauge, Histogram, MetricsSink};
use dgs_sketch::{SketchError, SketchResult};

use crate::boost::BoostedQuery;
use crate::checkpoint::{
    CheckpointConfig, CheckpointStore, Recoverable, RecoveryDriver, RecoveryError,
};

/// Health of one shard (boosted repetition) of a supervised ensemble.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardState {
    /// Ingesting and answering normally.
    Healthy,
    /// Live, but its last flush needed retries; one clean flush away from
    /// `Healthy`, one exhausted budget away from `Quarantined`.
    Suspect,
    /// Fenced off: receives no updates and answers no queries until
    /// rebuilt. The shared WAL keeps recording, so nothing is lost.
    Quarantined,
    /// Being restored from snapshot + WAL replay (transient, visible to
    /// metrics and to a rebuild that fails midway).
    Rebuilding,
}

impl ShardState {
    /// Every state, for exhaustive metric registration.
    pub const ALL: [ShardState; 4] = [
        ShardState::Healthy,
        ShardState::Suspect,
        ShardState::Quarantined,
        ShardState::Rebuilding,
    ];

    /// True when the shard ingests updates and serves queries.
    pub fn is_live(self) -> bool {
        matches!(self, ShardState::Healthy | ShardState::Suspect)
    }
}

impl std::fmt::Display for ShardState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ShardState::Healthy => "healthy",
            ShardState::Suspect => "suspect",
            ShardState::Quarantined => "quarantined",
            ShardState::Rebuilding => "rebuilding",
        };
        f.write_str(s)
    }
}

/// Per-repetition decode failure probability δ with which supervised
/// answers *report* `effective_delta = δ^R′`; answers never depend on it.
pub(crate) const DELTA: f64 = 0.5;

/// Supervision policy. Defaults are sized for the test/experiment scale;
/// production tunes per deployment.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// Boosted repetitions (= shards) in the ensemble.
    pub repetitions: usize,
    /// Worker threads for the striped flush: the live shards are cut into
    /// `min(threads, live)` contiguous stripes, exactly as
    /// [`BoostedQuery::apply_batch`] cuts its repetitions.
    pub threads: usize,
    /// Updates buffered between flushes.
    pub batch_size: usize,
    /// Consecutive flushes a shard may need retries for before it is
    /// quarantined anyway (a persistently flaky shard is a liability even
    /// when every retry eventually lands).
    pub error_budget: u32,
    /// Decode incidents (failed, slow, or outvoted decodes) a shard may
    /// accumulate before it is quarantined.
    pub decode_error_budget: u32,
    /// Backoff schedule for in-flush retry of retryable apply failures.
    pub backoff: BackoffConfig,
    /// Flushes a shard stays quarantined before an automatic rebuild is
    /// attempted (rebuilds also retrigger after this many flushes if one
    /// fails).
    pub rebuild_after_flushes: u64,
    /// Updates between scrub audits (round-robin rebuild-and-byte-compare
    /// of one healthy shard); `0` disables scrubbing.
    pub scrub_interval: u64,
    /// Durability policy: WAL segmentation and snapshot cadence/seed.
    pub checkpoint: CheckpointConfig,
    /// Seed for backoff jitter (shard `i` uses `seed + i`).
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            repetitions: 5,
            threads: 1,
            batch_size: 256,
            error_budget: 3,
            decode_error_budget: 3,
            backoff: BackoffConfig::default(),
            rebuild_after_flushes: 1,
            scrub_interval: 0,
            checkpoint: CheckpointConfig::default(),
            seed: 0x5e1f_4ea1,
        }
    }
}

/// Per-query resource budget. `None` fields are unlimited.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryBudget {
    /// Wall-clock deadline for the whole query.
    pub deadline: Option<Duration>,
    /// Per-repetition decode deadline. A decode that succeeds late is still
    /// *used* (correctness first) but counts as an incident against the
    /// shard's decode budget.
    pub per_shard_deadline: Option<Duration>,
    /// Maximum repetitions consulted before resolving with what was seen.
    pub max_decode_steps: Option<usize>,
}

/// The answer of a supervised query. The invariant across every variant:
/// a value is only ever reported when a live repetition decoded it — a
/// degraded ensemble widens the failure probability, never the answer.
#[derive(Clone, Debug, PartialEq)]
pub enum SupervisedAnswer<T> {
    /// Every repetition was live; failure probability is the configured
    /// δ^R.
    Full {
        /// The decoded answer.
        value: T,
        /// Live repetitions whose decode failed retryably before one
        /// succeeded (expected δ-probability events).
        failed_repetitions: usize,
    },
    /// Answered from a partial ensemble (R′ < R live repetitions).
    Degraded {
        /// The decoded answer.
        value: T,
        /// Live repetitions R′ the answer was drawn from.
        healthy_repetitions: usize,
        /// Configured ensemble size R.
        total_repetitions: usize,
        /// δ^R′ — the widened failure probability this answer carries.
        effective_delta: f64,
        /// Live repetitions whose decode failed retryably.
        failed_repetitions: usize,
    },
    /// Every consulted live repetition failed its decode (the δ^R′ event
    /// itself) — no answer, and the caller knows it.
    Unknown {
        /// Live repetitions available.
        healthy_repetitions: usize,
        /// Configured ensemble size R.
        total_repetitions: usize,
        /// δ^R′ at the time of the query.
        effective_delta: f64,
    },
    /// The wall-clock budget ran out before any repetition decoded.
    DeadlineExceeded {
        /// Repetitions consulted before the deadline.
        consulted: usize,
        /// Live repetitions that were available.
        healthy_repetitions: usize,
    },
    /// The query itself was malformed (non-retryable error) — retrying
    /// against more repetitions cannot help.
    Invalid(SketchError),
}

impl<T> SupervisedAnswer<T> {
    /// The decoded value, when one was produced.
    pub fn value(&self) -> Option<&T> {
        match self {
            SupervisedAnswer::Full { value, .. } | SupervisedAnswer::Degraded { value, .. } => {
                Some(value)
            }
            _ => None,
        }
    }

    /// True for `Full` and `Degraded` — the query produced an answer.
    pub fn is_answered(&self) -> bool {
        self.value().is_some()
    }
}

/// How [`query_ensemble`] resolves multiple decodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryPolicy {
    /// Stop at the first repetition that decodes (the paper's boosting).
    FirstSuccess,
    /// Consult every live repetition (within budget) and take the majority
    /// value; outvoted repetitions are reported as incidents — the only
    /// query-side defense against a silently diverged shard.
    Majority,
}

/// What went wrong (or looked wrong) at one shard during a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncidentKind {
    /// Retryable decode failure (the expected δ event).
    Failure,
    /// Decode succeeded but blew its per-shard deadline.
    Slow,
    /// Decode succeeded but disagreed with the majority value.
    Outvoted,
}

/// One query-side incident, attributed to a shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeIncident {
    /// The shard (repetition index) involved.
    pub shard: usize,
    /// What happened.
    pub kind: IncidentKind,
}

/// The raw outcome of [`query_ensemble`]: the answer plus per-shard
/// incident attribution for the supervisor's decode budgets.
#[derive(Clone, Debug)]
pub struct EnsembleOutcome<T> {
    /// The resolved answer.
    pub answer: SupervisedAnswer<T>,
    /// Per-shard incidents observed while resolving.
    pub incidents: Vec<DecodeIncident>,
    /// Repetitions actually consulted.
    pub consulted: usize,
}

/// Resolves a query over the live members of a boosted ensemble under a
/// [`QueryBudget`]. Standalone so tests can drive it with bare samplers
/// and stub decoders; [`SupervisedIngestor::query`] delegates here.
///
/// `live` pairs each live repetition's index with its sketch; `total` is
/// the configured ensemble size R; `delta` the per-repetition failure
/// probability δ (reporting only). The reported `effective_delta` is
/// always `delta^(live.len())`.
pub fn query_ensemble<S, T, F>(
    live: &[(usize, &S)],
    total: usize,
    delta: f64,
    budget: &QueryBudget,
    policy: QueryPolicy,
    decode: F,
) -> EnsembleOutcome<T>
where
    T: Clone + PartialEq,
    F: Fn(usize, &S) -> SketchResult<T>,
{
    let start = Instant::now();
    let healthy = live.len();
    let effective_delta = delta.powi(healthy as i32);
    let mut incidents = Vec::new();
    let mut consulted = 0usize;
    let mut failed = 0usize;
    let mut votes: Vec<(usize, T)> = Vec::new();

    for &(shard, sketch) in live {
        if budget
            .deadline
            .is_some_and(|limit| start.elapsed() >= limit)
        {
            // Out of time. Resolve with whatever has been decoded so far;
            // with nothing decoded, the deadline is the answer.
            if votes.is_empty() {
                return EnsembleOutcome {
                    answer: SupervisedAnswer::DeadlineExceeded {
                        consulted,
                        healthy_repetitions: healthy,
                    },
                    incidents,
                    consulted,
                };
            }
            break;
        }
        if budget.max_decode_steps.is_some_and(|cap| consulted >= cap) {
            break;
        }
        consulted += 1;
        // Inert (a thread-local read) unless the caller holds an ambient
        // trace context — the span then records which shard was consulted
        // and how long its decode took.
        let span = dgs_trace::child("dgs_core_supervise_shard_decode");
        let decode_start = Instant::now();
        let outcome = decode(shard, sketch);
        span.finish();
        if budget
            .per_shard_deadline
            .is_some_and(|limit| decode_start.elapsed() > limit)
        {
            incidents.push(DecodeIncident {
                shard,
                kind: IncidentKind::Slow,
            });
        }
        match outcome {
            Ok(value) => {
                votes.push((shard, value));
                if policy == QueryPolicy::FirstSuccess {
                    break;
                }
            }
            Err(e) if e.is_retryable() => {
                failed += 1;
                incidents.push(DecodeIncident {
                    shard,
                    kind: IncidentKind::Failure,
                });
            }
            Err(e) => {
                return EnsembleOutcome {
                    answer: SupervisedAnswer::Invalid(e),
                    incidents,
                    consulted,
                };
            }
        }
    }

    let Some(value) = resolve_votes(&votes, policy, &mut incidents) else {
        return EnsembleOutcome {
            answer: SupervisedAnswer::Unknown {
                healthy_repetitions: healthy,
                total_repetitions: total,
                effective_delta,
            },
            incidents,
            consulted,
        };
    };
    let answer = if healthy == total {
        SupervisedAnswer::Full {
            value,
            failed_repetitions: failed,
        }
    } else {
        SupervisedAnswer::Degraded {
            value,
            healthy_repetitions: healthy,
            total_repetitions: total,
            effective_delta,
            failed_repetitions: failed,
        }
    };
    EnsembleOutcome {
        answer,
        incidents,
        consulted,
    }
}

/// Picks the winning vote; under `Majority`, outvoted shards are reported
/// as incidents. Returns `None` when no repetition decoded.
fn resolve_votes<T: Clone + PartialEq>(
    votes: &[(usize, T)],
    policy: QueryPolicy,
    incidents: &mut Vec<DecodeIncident>,
) -> Option<T> {
    match policy {
        QueryPolicy::FirstSuccess => votes.first().map(|(_, v)| v.clone()),
        QueryPolicy::Majority => {
            let (_, winner) = votes.iter().max_by_key(|(_, candidate)| {
                votes.iter().filter(|(_, v)| v == candidate).count()
            })?;
            let winner = winner.clone();
            for (shard, v) in votes {
                if *v != winner {
                    incidents.push(DecodeIncident {
                        shard: *shard,
                        kind: IncidentKind::Outvoted,
                    });
                }
            }
            Some(winner)
        }
    }
}

/// An epoch-tagged, immutable view of a supervised ensemble, produced by
/// [`SupervisedIngestor::freeze`].
///
/// Sketch linearity makes a consistent frozen view cheap: every live shard
/// has applied exactly the same update prefix at a flush boundary, so the
/// view is the ensemble's state at stream offset [`epoch`](Self::epoch) —
/// and because the shards sit behind [`Arc`]s, taking the view costs one
/// reference-count bump per shard. The write path copies a shard on its
/// next touch ([`Arc::make_mut`]), so the view stays valid, byte-for-byte,
/// no matter how far ingestion runs ahead.
///
/// A frozen view answers queries through [`query`](Self::query) without
/// any lock on the ingestor: this is what lets a long decode run
/// concurrently with ingestion without stalling the write path.
#[derive(Clone, Debug)]
pub struct FrozenEnsemble<S> {
    epoch: u64,
    /// `(repetition index, sketch)` for every shard in the view.
    shards: Vec<(usize, Arc<S>)>,
    /// Configured ensemble size R.
    total: usize,
}

impl<S> FrozenEnsemble<S> {
    /// Stream offset (updates applied) this view is frozen at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Repetitions the view holds (R′ ≤ R).
    pub fn repetitions(&self) -> usize {
        self.shards.len()
    }

    /// Configured ensemble size R.
    pub fn total_repetitions(&self) -> usize {
        self.total
    }

    /// Per-repetition failure probability δ the view reports with.
    pub fn delta(&self) -> f64 {
        DELTA
    }

    /// The frozen shards, as `(repetition index, sketch)` pairs.
    pub fn shards(&self) -> impl Iterator<Item = (usize, &S)> {
        self.shards.iter().map(|(i, s)| (*i, s.as_ref()))
    }

    /// Resolves a query over the frozen view under `budget`, consulting at
    /// most `max_repetitions` shards when given (brownout: answering from
    /// R′ < R repetitions reports `Degraded { effective_delta = δ^R′ }`
    /// exactly like a degraded live ensemble would). The view is immutable,
    /// so any number of threads may query it concurrently.
    pub fn query<T, F>(
        &self,
        budget: &QueryBudget,
        policy: QueryPolicy,
        max_repetitions: Option<usize>,
        decode: F,
    ) -> EnsembleOutcome<T>
    where
        T: Clone + PartialEq,
        F: Fn(usize, &S) -> SketchResult<T>,
    {
        let take = max_repetitions
            .unwrap_or(self.shards.len())
            .min(self.shards.len());
        let live: Vec<(usize, &S)> = self.shards[..take]
            .iter()
            .map(|(i, s)| (*i, s.as_ref()))
            .collect();
        query_ensemble(&live, self.total, DELTA, budget, policy, decode)
    }
}

/// A deliberately injected apply fault (chaos testing): the shard's next
/// `remaining` applies fail with clones of `error`.
#[derive(Clone, Debug)]
struct InjectedApplyFault {
    error: SketchError,
    remaining: u32,
}

/// One supervised shard: a repetition plus its health bookkeeping.
///
/// The sketch sits behind an [`Arc`] so [`SupervisedIngestor::freeze`] can
/// hand out epoch-tagged views by reference-count bump alone; the write
/// path goes through [`Arc::make_mut`], which clones a shard's cells only
/// when a frozen view still references them (copy-on-write at shard
/// granularity — untouched shards are never copied).
struct Shard<S> {
    sketch: Arc<S>,
    health: ShardState,
    store: CheckpointStore,
    backoff: Backoff,
    fault: Option<InjectedApplyFault>,
    /// Consecutive flushes that needed retries.
    suspect_streak: u32,
    /// Flushes spent quarantined since the last rebuild attempt.
    quarantined_flushes: u64,
    /// Cumulative decode incidents since the last rebuild.
    decode_incidents: u32,
    /// Human-readable cause of the last quarantine, for operators.
    last_error: Option<String>,
}

impl<S: Recoverable + Clone> Shard<S> {
    /// Applies `batch[pos..]`, honoring an injected fault first. Preserves
    /// the applied-prefix contract of [`Recoverable::apply_batch`]: on
    /// `Err((i, _))` relative to `pos`, exactly `pos..pos + i` were applied.
    fn try_apply_from(&mut self, batch: &[Update], pos: usize) -> Result<(), (usize, SketchError)> {
        if let Some(f) = self.fault.as_mut() {
            if f.remaining == 0 {
                self.fault = None;
            } else {
                f.remaining -= 1;
                return Err((0, f.error.clone()));
            }
        }
        // Copy-on-write: clones the shard only when a frozen view still
        // holds the pre-batch state; otherwise mutates in place.
        Arc::make_mut(&mut self.sketch).apply_batch(&batch[pos..])
    }
}

/// What one flush did to one shard.
#[derive(Clone, Debug)]
enum ApplyOutcome {
    /// First-try success.
    Clean,
    /// Succeeded after retries under backoff.
    RecoveredAfterRetry { attempts: u32, waited_ns: u64 },
    /// Gave up: non-retryable error, or backoff budget exhausted.
    Failed {
        error: SketchError,
        attempts: u32,
        waited_ns: u64,
    },
}

/// Runs a shard's retry ladder for one batch: retryable failures back off
/// and retry (resuming from the applied prefix), non-retryable failures
/// and budget exhaustion give up.
fn apply_with_retry<S: Recoverable + Clone>(
    shard: &mut Shard<S>,
    batch: &[Update],
) -> ApplyOutcome {
    shard.backoff.reset();
    let mut pos = 0usize;
    let mut attempts = 0u32;
    let mut waited_ns = 0u64;
    loop {
        match shard.try_apply_from(batch, pos) {
            Ok(()) => {
                return if attempts == 0 {
                    ApplyOutcome::Clean
                } else {
                    ApplyOutcome::RecoveredAfterRetry {
                        attempts,
                        waited_ns,
                    }
                };
            }
            Err((i, e)) => {
                pos += i;
                if !e.is_retryable() {
                    return ApplyOutcome::Failed {
                        error: e,
                        attempts,
                        waited_ns,
                    };
                }
                match shard.backoff.next_delay() {
                    Some(d) => {
                        attempts += 1;
                        waited_ns += d;
                    }
                    None => {
                        return ApplyOutcome::Failed {
                            error: e,
                            attempts,
                            waited_ns,
                        };
                    }
                }
            }
        }
    }
}

/// Metric handles for the supervisor; null (free) by default.
#[derive(Clone, Debug, Default)]
struct SupMetrics {
    transitions: [Counter; ShardState::ALL.len()],
    quarantines: Counter,
    rebuilds: Counter,
    rebuild_failures: Counter,
    rebuild_ns: Histogram,
    scrub_runs: Counter,
    scrub_mismatches: Counter,
    retries: Counter,
    backoff_ns: Counter,
    flushes: Counter,
    updates: Counter,
    healthy_shards: Gauge,
    answers_full: Counter,
    answers_degraded: Counter,
    answers_unknown: Counter,
    answers_deadline: Counter,
    answers_invalid: Counter,
    decode_incidents: Counter,
    freezes: Counter,
    freeze_recovered_shards: Counter,
}

impl SupMetrics {
    fn resolve(sink: &MetricsSink) -> SupMetrics {
        SupMetrics {
            transitions: ShardState::ALL.map(|s| {
                sink.counter_labelled("dgs_core_supervise_transitions", &[("to", &s.to_string())])
            }),
            quarantines: sink.counter("dgs_core_supervise_quarantines"),
            rebuilds: sink.counter("dgs_core_supervise_rebuilds"),
            rebuild_failures: sink.counter("dgs_core_supervise_rebuild_failures"),
            rebuild_ns: sink.histogram("dgs_core_supervise_rebuild_ns"),
            scrub_runs: sink.counter("dgs_core_supervise_scrub_runs"),
            scrub_mismatches: sink.counter("dgs_core_supervise_scrub_mismatches"),
            retries: sink.counter("dgs_core_supervise_retries"),
            backoff_ns: sink.counter("dgs_core_supervise_backoff_ns"),
            flushes: sink.counter("dgs_core_supervise_flushes"),
            updates: sink.counter("dgs_core_supervise_updates"),
            healthy_shards: sink.gauge("dgs_core_supervise_healthy_shards"),
            answers_full: sink.counter("dgs_core_supervise_answers_full"),
            answers_degraded: sink.counter("dgs_core_supervise_answers_degraded"),
            answers_unknown: sink.counter("dgs_core_supervise_answers_unknown"),
            answers_deadline: sink.counter("dgs_core_supervise_answers_deadline"),
            answers_invalid: sink.counter("dgs_core_supervise_answers_invalid"),
            decode_incidents: sink.counter("dgs_core_supervise_decode_incidents"),
            freezes: sink.counter("dgs_core_supervise_freezes"),
            freeze_recovered_shards: sink.counter("dgs_core_supervise_freeze_recovered_shards"),
        }
    }

    fn record_transition(&self, to: ShardState) {
        if let Some(i) = ShardState::ALL.iter().position(|&s| s == to) {
            self.transitions[i].inc();
        }
    }
}

/// Factory rebuilding shard `i`'s sketch exactly as original construction
/// did (same parameters, same sibling seed) — the `fresh` of the recovery
/// ladder, per shard.
type ShardBuilder<S> = dyn Fn(usize) -> S + Send + Sync;

/// Sharded, WAL-durable ingestion with shard supervision, quarantine,
/// background rebuild, scrub audits, and degraded queries. See the module
/// docs for the full protocol.
pub struct SupervisedIngestor<S: Recoverable> {
    cfg: SupervisorConfig,
    wal_dir: PathBuf,
    wal: WalWriter,
    shards: Vec<Shard<S>>,
    build: Box<ShardBuilder<S>>,
    buffer: Vec<Update>,
    since_snapshot: u64,
    since_scrub: u64,
    scrub_cursor: usize,
    ingested: u64,
    metrics: SupMetrics,
    sink: MetricsSink,
    tracer: Option<dgs_trace::Tracer>,
    flight: Option<dgs_trace::FlightRecorder>,
}

fn shard_seed(base: u64, i: usize) -> u64 {
    base ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Rejects an edge that does not fit a stream over `n` vertices with rank
/// bound `max_rank` — the shape the WAL was created with.
fn check_shape(e: &HyperEdge, n: usize, max_rank: usize) -> SketchResult<()> {
    if e.cardinality() > max_rank {
        return Err(SketchError::invalid(format!(
            "edge of rank {} exceeds the stream's rank bound {max_rank}",
            e.cardinality()
        )));
    }
    // Vertices are sorted ascending, so the last one is the largest.
    match e.vertices().last() {
        Some(&v) if v as usize >= n => Err(SketchError::invalid(format!(
            "vertex {v} out of range for a {n}-vertex stream"
        ))),
        _ => Ok(()),
    }
}

impl<S: Recoverable + Clone + Send + Sync> SupervisedIngestor<S> {
    /// Starts supervised ingestion of a fresh stream. `build(i)` constructs
    /// repetition `i` (it must be deterministic: rebuilds call it again).
    /// WAL segments land in `wal_dir`, per-shard snapshots under
    /// `snap_root/shard-<i>`.
    pub fn create<F>(
        wal_dir: impl Into<PathBuf>,
        snap_root: impl Into<PathBuf>,
        n: usize,
        max_rank: usize,
        cfg: SupervisorConfig,
        build: F,
    ) -> Result<SupervisedIngestor<S>, RecoveryError>
    where
        F: Fn(usize) -> S + Send + Sync + 'static,
    {
        Self::validate(&cfg);
        let wal_dir = wal_dir.into();
        let wal = WalWriter::create(&wal_dir, n, max_rank, cfg.checkpoint.wal)?;
        let snap_root = snap_root.into();
        let mut shards = Vec::with_capacity(cfg.repetitions);
        for i in 0..cfg.repetitions {
            shards.push(Self::fresh_shard(&snap_root, &cfg, i, build(i))?);
        }
        Ok(SupervisedIngestor {
            cfg,
            wal_dir,
            wal,
            shards,
            build: Box::new(build),
            buffer: Vec::with_capacity(cfg.batch_size),
            since_snapshot: 0,
            since_scrub: 0,
            scrub_cursor: 0,
            ingested: 0,
            metrics: SupMetrics::default(),
            sink: MetricsSink::null(),
            tracer: None,
            flight: None,
        })
    }

    /// Resumes supervised ingestion after a crash: seals the WAL's torn
    /// tail, purges snapshots past the durable offset (they describe a
    /// history the resumed log is about to diverge from), and rebuilds
    /// every shard to exactly the durable offset. Returns the ingestor and
    /// that offset.
    pub fn resume<F>(
        wal_dir: impl Into<PathBuf>,
        snap_root: impl Into<PathBuf>,
        n: usize,
        max_rank: usize,
        cfg: SupervisorConfig,
        build: F,
    ) -> Result<(SupervisedIngestor<S>, u64), RecoveryError>
    where
        F: Fn(usize) -> S + Send + Sync + 'static,
    {
        Self::validate(&cfg);
        let wal_dir = wal_dir.into();
        let snap_root = snap_root.into();
        let (wal, replay) = WalWriter::resume(&wal_dir, n, max_rank, cfg.checkpoint.wal)?;
        let durable = replay.updates.len() as u64;
        let mut shards = Vec::with_capacity(cfg.repetitions);
        for i in 0..cfg.repetitions {
            let mut shard = Self::fresh_shard(&snap_root, &cfg, i, build(i))?;
            shard
                .store
                .purge_after(durable)
                .map_err(|e| e.in_shard(i))?;
            if durable > 0 {
                let driver = RecoveryDriver::new(&wal_dir, shard.store.clone());
                let rec = driver
                    .recover_capped(Some(durable), |_, _| build(i))
                    .map_err(|e| e.in_shard(i))?;
                if rec.offset != durable {
                    return Err(RecoveryError::NoState {
                        detail: format!(
                            "recovered to offset {} but the durable log holds {durable}",
                            rec.offset
                        ),
                    }
                    .in_shard(i));
                }
                shard.sketch = Arc::new(rec.sketch);
            }
            shards.push(shard);
        }
        let ingestor = SupervisedIngestor {
            cfg,
            wal_dir,
            wal,
            shards,
            build: Box::new(build),
            buffer: Vec::with_capacity(cfg.batch_size),
            since_snapshot: 0,
            since_scrub: 0,
            scrub_cursor: 0,
            ingested: durable,
            metrics: SupMetrics::default(),
            sink: MetricsSink::null(),
            tracer: None,
            flight: None,
        };
        Ok((ingestor, durable))
    }

    fn validate(cfg: &SupervisorConfig) {
        assert!(cfg.repetitions >= 1, "need at least one repetition");
        assert!(cfg.batch_size >= 1, "batch size must be >= 1");
        assert!(cfg.threads >= 1, "need at least one thread");
        assert!(
            cfg.checkpoint.snapshot_interval >= 1,
            "snapshot interval must be >= 1"
        );
    }

    fn fresh_shard(
        snap_root: &Path,
        cfg: &SupervisorConfig,
        i: usize,
        sketch: S,
    ) -> Result<Shard<S>, RecoveryError> {
        let store = CheckpointStore::open(
            snap_root.join(format!("shard-{i:03}")),
            shard_seed(cfg.checkpoint.snapshot_seed, i),
        )
        .map_err(|e| e.in_shard(i))?;
        Ok(Shard {
            sketch: Arc::new(sketch),
            health: ShardState::Healthy,
            store,
            backoff: Backoff::new(cfg.backoff, shard_seed(cfg.seed, i)),
            fault: None,
            suspect_streak: 0,
            quarantined_flushes: 0,
            decode_incidents: 0,
            last_error: None,
        })
    }

    /// Attach metric handles resolved from `sink` (`dgs_core_supervise_*`
    /// plus the WAL writer's and snapshot stores' own metrics). Default is
    /// the null sink.
    pub fn set_sink(&mut self, sink: &MetricsSink) {
        self.metrics = SupMetrics::resolve(sink);
        self.sink = sink.clone();
        self.wal.set_sink(sink);
        for shard in &mut self.shards {
            shard.store.set_sink(sink);
        }
        self.metrics
            .healthy_shards
            .set(self.live_repetitions() as i64);
    }

    /// Attach a tracer: each standalone flush opens a root span, and
    /// query-path decode consultations nest under the caller's ambient
    /// request trace. Default is no tracer (zero-cost).
    pub fn set_tracer(&mut self, tracer: &dgs_trace::Tracer) {
        self.tracer = Some(tracer.clone());
    }

    /// Attach a flight recorder: shard quarantines and scrub mismatches
    /// freeze a postmortem (recent trace events + the offending request's
    /// span tree) to disk. Default is none.
    pub fn set_flight_recorder(&mut self, recorder: &dgs_trace::FlightRecorder) {
        self.flight = Some(recorder.clone());
    }

    /// Logs one update to the WAL and buffers it; flushes at batch size.
    ///
    /// An update whose edge does not fit the stream shape the WAL was
    /// created with (a vertex `>= n`, or more than `max_rank` endpoints) is
    /// rejected with a non-retryable [`RecoveryError::Sketch`] before it is
    /// logged or buffered: every shard would reject it, and a logged record
    /// that no shard applies would leave the applied offset behind the log
    /// and fail every later replay of it.
    pub fn push(&mut self, u: &Update) -> Result<(), RecoveryError> {
        check_shape(&u.edge, self.wal.n(), self.wal.max_rank()).map_err(RecoveryError::Sketch)?;
        self.wal.append(u)?;
        self.buffer.push(u.clone());
        if self.buffer.len() >= self.cfg.batch_size {
            self.flush()?;
        }
        Ok(())
    }

    /// Pushes a whole stream.
    pub fn ingest_stream(&mut self, stream: &UpdateStream) -> Result<(), RecoveryError> {
        for u in &stream.updates {
            self.push(u)?;
        }
        Ok(())
    }

    /// Flushes the buffer through every live shard, runs the health state
    /// machine, and performs any due rebuilds, snapshots, and scrubs.
    ///
    /// Fails the *stream* (not a shard) only when every live shard rejects
    /// the same batch non-retryably — the input is then at fault and no
    /// amount of shard health will absorb it.
    pub fn flush(&mut self) -> Result<(), RecoveryError> {
        // A query-triggered flush rides the request's ambient trace as a
        // child span; a standalone flush (batch boundary during ingest)
        // opens its own root. One span per flush — not per update — keeps
        // traced-ingest overhead within the E22 bound.
        let _root = if dgs_trace::current_trace_id() == 0 {
            self.tracer
                .as_ref()
                .map(|t| t.root("dgs_core_supervise_flush"))
        } else {
            None
        };
        let _child = _root
            .is_none()
            .then(|| dgs_trace::child("dgs_core_supervise_flush"));
        self.rebuild_due_shards();
        if self.buffer.is_empty() {
            return Ok(());
        }
        let mut batch = std::mem::take(&mut self.buffer);
        self.metrics.flushes.inc();

        let outcomes = self.apply_batch(&batch);
        let mut live_failures: Vec<(usize, SketchError)> = Vec::new();
        let mut live_count = 0usize;
        for (i, outcome) in outcomes {
            live_count += 1;
            match outcome {
                ApplyOutcome::Clean => {
                    let shard = &mut self.shards[i];
                    shard.suspect_streak = 0;
                    if shard.health == ShardState::Suspect {
                        shard.health = ShardState::Healthy;
                        self.metrics.record_transition(ShardState::Healthy);
                    }
                }
                ApplyOutcome::RecoveredAfterRetry {
                    attempts,
                    waited_ns,
                } => {
                    self.metrics.retries.add(attempts as u64);
                    self.metrics.backoff_ns.add(waited_ns);
                    let budget = self.cfg.error_budget;
                    let shard = &mut self.shards[i];
                    shard.suspect_streak += 1;
                    if shard.suspect_streak > budget {
                        self.quarantine(
                            i,
                            format!(
                                "exceeded error budget: {} consecutive flushes needed retries",
                                self.shards[i].suspect_streak
                            ),
                        );
                    } else if self.shards[i].health == ShardState::Healthy {
                        self.shards[i].health = ShardState::Suspect;
                        self.metrics.record_transition(ShardState::Suspect);
                    }
                }
                ApplyOutcome::Failed {
                    error,
                    attempts,
                    waited_ns,
                } => {
                    self.metrics.retries.add(attempts as u64);
                    self.metrics.backoff_ns.add(waited_ns);
                    live_failures.push((i, error));
                }
            }
        }
        // Every live shard failing non-retryably on the same batch is the
        // stream's fault, not theirs: surface it as a stream error.
        if !live_failures.is_empty()
            && live_failures.len() == live_count
            && live_failures.iter().all(|(_, e)| !e.is_retryable())
        {
            let (_, first) = live_failures.swap_remove(0);
            return Err(RecoveryError::Sketch(first));
        }
        for (i, error) in live_failures {
            self.quarantine(i, format!("apply failed after retries: {error}"));
        }
        // Quarantined shards age one flush toward their next rebuild.
        for shard in &mut self.shards {
            if shard.health == ShardState::Quarantined {
                shard.quarantined_flushes += 1;
            }
        }

        self.ingested += batch.len() as u64;
        self.metrics.updates.add(batch.len() as u64);
        self.metrics
            .healthy_shards
            .set(self.live_repetitions() as i64);
        self.since_snapshot += batch.len() as u64;
        if self.since_snapshot >= self.cfg.checkpoint.snapshot_interval {
            self.snapshot_now()?;
        }
        if self.cfg.scrub_interval > 0 {
            self.since_scrub += batch.len() as u64;
            if self.since_scrub >= self.cfg.scrub_interval {
                self.since_scrub = 0;
                self.scrub_one()?;
            }
        }
        // Hand the drained batch back: the next fill reuses its capacity.
        batch.clear();
        self.buffer = batch;
        Ok(())
    }

    /// Applies the batch to every live shard, one retry ladder each,
    /// striped by [`dgs_pool::stripe`] exactly as
    /// [`BoostedQuery::apply_batch`] stripes, and returns `(shard index, outcome)`
    /// for every live shard. A shard whose ladder panics is `Failed` and
    /// never retried, since its cells may be torn; its stripe-mates are
    /// unaffected, at every thread count. The supervisor itself never
    /// panics on a shard's behalf.
    fn apply_batch(&mut self, batch: &[Update]) -> Vec<(usize, ApplyOutcome)> {
        let mut live: Vec<(usize, &mut Shard<S>)> = self
            .shards
            .iter_mut()
            .enumerate()
            .filter(|(_, s)| s.health.is_live())
            .collect();
        dgs_pool::stripe(
            &mut live,
            self.cfg.threads,
            Some(&self.sink),
            |(i, shard)| (*i, apply_with_retry(shard, batch)),
            |(i, _)| {
                let error = SketchError::failure("supervise", "flush worker panicked");
                (
                    *i,
                    ApplyOutcome::Failed {
                        error,
                        attempts: 0,
                        waited_ns: 0,
                    },
                )
            },
        )
    }

    fn quarantine(&mut self, i: usize, cause: String) {
        if self.shards[i].health == ShardState::Quarantined {
            return;
        }
        if let Some(flight) = &self.flight {
            flight.record("shard-quarantine", &format!("shard {i}: {cause}"));
        }
        let shard = &mut self.shards[i];
        shard.health = ShardState::Quarantined;
        shard.quarantined_flushes = 0;
        shard.suspect_streak = 0;
        shard.last_error = Some(cause);
        self.metrics.record_transition(ShardState::Quarantined);
        self.metrics.quarantines.inc();
        self.metrics
            .healthy_shards
            .set(self.live_repetitions() as i64);
    }

    /// Attempts the automatic rebuild of every shard whose quarantine has
    /// aged past the configured threshold. Failures are recorded (metrics
    /// and `last_error`) and retried after another interval — a broken
    /// snapshot directory must not take the stream down.
    fn rebuild_due_shards(&mut self) {
        for i in 0..self.shards.len() {
            if self.shards[i].health == ShardState::Quarantined
                && self.shards[i].quarantined_flushes >= self.cfg.rebuild_after_flushes
            {
                if let Err(e) = self.rebuild_now(i) {
                    self.shards[i].last_error = Some(e.to_string());
                    self.shards[i].quarantined_flushes = 0;
                }
            }
        }
    }

    /// Rebuilds shard `i` from its newest valid snapshot plus WAL-tail
    /// replay, capped at the ensemble's durable offset, and returns it to
    /// service. Linearity guarantees the result is bit-identical to a
    /// never-faulted shard. Errors carry the shard id (and WAL segment /
    /// stream offset where applicable) via [`RecoveryError::in_shard`].
    pub fn rebuild_now(&mut self, i: usize) -> Result<(), RecoveryError> {
        assert!(i < self.shards.len(), "shard {i} out of range");
        let start = Instant::now();
        let prior = self.shards[i].health;
        self.shards[i].health = ShardState::Rebuilding;
        self.metrics.record_transition(ShardState::Rebuilding);
        self.wal.sync().map_err(|e| {
            self.shards[i].health = prior;
            RecoveryError::from(e).in_shard(i)
        })?;
        // Cap at the *applied* offset, not the WAL tip: mid-flush the WAL
        // already holds the buffered batch the live shards are about to
        // apply, and replaying it here would double-apply it.
        let cap = self.ingested;
        let rebuilt = self.rebuild_to(i, cap);
        match rebuilt {
            Ok(sketch) => {
                let shard = &mut self.shards[i];
                shard.sketch = Arc::new(sketch);
                shard.health = ShardState::Healthy;
                shard.fault = None;
                shard.suspect_streak = 0;
                shard.quarantined_flushes = 0;
                shard.decode_incidents = 0;
                shard.last_error = None;
                shard.backoff.reset();
                self.metrics.record_transition(ShardState::Healthy);
                self.metrics.rebuilds.inc();
                self.metrics
                    .rebuild_ns
                    .record(start.elapsed().as_nanos() as u64);
                self.metrics
                    .healthy_shards
                    .set(self.live_repetitions() as i64);
                Ok(())
            }
            Err(e) => {
                self.shards[i].health = ShardState::Quarantined;
                self.metrics.record_transition(ShardState::Quarantined);
                self.metrics.rebuild_failures.inc();
                Err(e)
            }
        }
    }

    /// Runs the recovery ladder for shard `i` up to offset `cap` (the WAL
    /// must already be synced to `cap`).
    fn rebuild_to(&self, i: usize, cap: u64) -> Result<S, RecoveryError> {
        let driver = RecoveryDriver::new(&self.wal_dir, self.shards[i].store.clone());
        let rec = driver
            .recover_capped(Some(cap), |_, _| (self.build)(i))
            .map_err(|e| e.in_shard(i))?;
        if rec.offset != cap {
            return Err(RecoveryError::NoState {
                detail: format!(
                    "rebuilt to offset {} but the ensemble is at {cap}",
                    rec.offset
                ),
            }
            .in_shard(i));
        }
        Ok(rec.sketch)
    }

    /// Rebuilds shard `i` purely from the WAL (no snapshots), up to offset
    /// `cap`. This is the scrub audit's oracle: snapshots could themselves
    /// carry a divergence, the log cannot.
    fn replay_rebuild(&self, i: usize, cap: u64) -> Result<S, RecoveryError> {
        let replay = dgs_hypergraph::read_wal(&self.wal_dir)
            .map_err(|e| RecoveryError::from(e).in_shard(i))?;
        let mut sketch = (self.build)(i);
        for (offset, u) in replay.updates.iter().take(cap as usize).enumerate() {
            sketch.apply_update(u).map_err(|e| {
                RecoveryError::Replay {
                    offset: offset as u64,
                    source: e,
                }
                .in_shard(i)
            })?;
        }
        Ok(sketch)
    }

    /// Syncs the WAL and snapshots every live shard at the current offset.
    fn snapshot_now(&mut self) -> Result<(), RecoveryError> {
        self.wal.sync()?;
        let offset = self.wal.offset();
        for (i, shard) in self.shards.iter().enumerate() {
            if shard.health.is_live() {
                shard
                    .store
                    .save(shard.sketch.as_ref(), offset)
                    .map_err(|e| e.in_shard(i))?;
            }
        }
        self.since_snapshot = 0;
        Ok(())
    }

    /// Scrub audit: rebuilds one live shard (round-robin) from durable
    /// state and byte-compares it against the live copy. A mismatch means
    /// the live shard silently diverged — no typed error ever fired — and
    /// the durable copy is authoritative: the live sketch is replaced and
    /// the incident counted in `dgs_core_supervise_scrub_mismatches`.
    fn scrub_one(&mut self) -> Result<(), RecoveryError> {
        let candidates: Vec<usize> = (0..self.shards.len())
            .filter(|&i| self.shards[i].health.is_live())
            .collect();
        if candidates.is_empty() {
            return Ok(());
        }
        let i = candidates[self.scrub_cursor % candidates.len()];
        self.scrub_cursor = self.scrub_cursor.wrapping_add(1);
        self.metrics.scrub_runs.inc();
        self.wal.sync()?;
        // The audit must NOT trust snapshots: a snapshot taken after the
        // divergence reproduces it faithfully. Replay the WAL from scratch —
        // the one record of what was actually logged.
        let rebuilt = self.replay_rebuild(i, self.ingested)?;
        if encoded(&rebuilt) != encoded(self.shards[i].sketch.as_ref()) {
            self.metrics.scrub_mismatches.inc();
            if let Some(flight) = &self.flight {
                flight.record(
                    "scrub-mismatch",
                    &format!("shard {i}: live state diverged from durable state"),
                );
            }
            // Snapshots of the diverged shard are tainted back to an unknown
            // point; drop them all rather than trust any.
            self.shards[i]
                .store
                .purge_after(0)
                .map_err(|e| e.in_shard(i))?;
            // Walk the full ladder so the divergence is visible in the
            // transition stream, then return the shard with durable state.
            self.quarantine(
                i,
                "scrub audit: live state diverged from durable state".into(),
            );
            let shard = &mut self.shards[i];
            shard.health = ShardState::Rebuilding;
            self.metrics.record_transition(ShardState::Rebuilding);
            shard.sketch = Arc::new(rebuilt);
            shard.health = ShardState::Healthy;
            shard.decode_incidents = 0;
            self.metrics.record_transition(ShardState::Healthy);
            self.metrics.rebuilds.inc();
            self.metrics
                .healthy_shards
                .set(self.live_repetitions() as i64);
        }
        Ok(())
    }

    /// Answers a query from the live ensemble under `budget`, resolved by
    /// `policy`: [`QueryPolicy::FirstSuccess`] stops at the first
    /// repetition that decodes (the paper's boosting order);
    /// [`QueryPolicy::Majority`] consults every live repetition and takes
    /// the majority value — slower, but the only query-side defense against
    /// a silently diverged shard (outvoted shards accrue decode incidents
    /// and are eventually quarantined). Buffered updates are flushed first
    /// so the answer reflects every pushed update.
    pub fn query<T, F>(
        &mut self,
        budget: &QueryBudget,
        policy: QueryPolicy,
        decode: F,
    ) -> Result<SupervisedAnswer<T>, RecoveryError>
    where
        T: Clone + PartialEq,
        F: Fn(usize, &S) -> SketchResult<T>,
    {
        self.flush()?;
        let live: Vec<(usize, &S)> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.health.is_live())
            .map(|(i, s)| (i, s.sketch.as_ref()))
            .collect();
        let outcome = query_ensemble(&live, self.shards.len(), DELTA, budget, policy, decode);
        match &outcome.answer {
            SupervisedAnswer::Full { .. } => self.metrics.answers_full.inc(),
            SupervisedAnswer::Degraded { .. } => self.metrics.answers_degraded.inc(),
            SupervisedAnswer::Unknown { .. } => self.metrics.answers_unknown.inc(),
            SupervisedAnswer::DeadlineExceeded { .. } => self.metrics.answers_deadline.inc(),
            SupervisedAnswer::Invalid(_) => self.metrics.answers_invalid.inc(),
        }
        self.metrics
            .decode_incidents
            .add(outcome.incidents.len() as u64);
        let budget_cap = self.cfg.decode_error_budget;
        for incident in &outcome.incidents {
            let shard = &mut self.shards[incident.shard];
            shard.decode_incidents += 1;
            if shard.decode_incidents > budget_cap && shard.health.is_live() {
                self.quarantine(
                    incident.shard,
                    format!(
                        "exceeded decode budget: {} incidents (last: {:?})",
                        self.shards[incident.shard].decode_incidents, incident.kind
                    ),
                );
            }
        }
        Ok(outcome.answer)
    }

    /// Flushes, rebuilds every quarantined shard, and hands the full
    /// ensemble to [`BoostedQuery`] for unsupervised querying.
    pub fn finish(mut self) -> Result<BoostedQuery<S>, RecoveryError> {
        self.flush()?;
        for i in 0..self.shards.len() {
            if !self.shards[i].health.is_live() {
                self.rebuild_now(i)?;
            }
        }
        let sketches = self
            .shards
            .into_iter()
            .map(|s| Arc::try_unwrap(s.sketch).unwrap_or_else(|shared| (*shared).clone()))
            .collect();
        Ok(BoostedQuery::from_repetitions(sketches))
    }

    /// Freezes an epoch-tagged, immutable view of the live ensemble.
    ///
    /// Flushes first so every live shard sits at the same stream offset
    /// (the view's [`epoch`](FrozenEnsemble::epoch)), then captures the
    /// live shards by `Arc` clone — O(R) pointer work, no sketch bytes
    /// copied. Subsequent ingestion copies-on-write only the shards it
    /// touches; the frozen view never changes.
    pub fn freeze(&mut self) -> Result<FrozenEnsemble<S>, RecoveryError> {
        self.flush()?;
        self.metrics.freezes.inc();
        Ok(FrozenEnsemble {
            epoch: self.ingested,
            shards: self
                .shards
                .iter()
                .enumerate()
                .filter(|(_, s)| s.health.is_live())
                .map(|(i, s)| (i, Arc::clone(&s.sketch)))
                .collect(),
            total: self.shards.len(),
        })
    }

    /// [`freeze`](Self::freeze), but quarantined/rebuilding shards are
    /// additionally reconstructed *into the view* from their newest valid
    /// checkpoint plus a WAL-tail replay capped at the frozen epoch
    /// ([`RecoveryDriver::recover_capped`]) — the durable state is exact by
    /// linearity, so the view regains full-R confidence even while the
    /// live ensemble is degraded. Shard health is untouched (this is a
    /// read path; healing stays with [`rebuild_now`](Self::rebuild_now)).
    /// A shard whose recovery fails is simply left out of the view.
    pub fn freeze_with_recovery(&mut self) -> Result<FrozenEnsemble<S>, RecoveryError> {
        let mut view = self.freeze()?;
        let missing: Vec<usize> = (0..self.shards.len())
            .filter(|&i| !self.shards[i].health.is_live())
            .collect();
        if missing.is_empty() {
            return Ok(view);
        }
        self.wal.sync()?;
        for i in missing {
            if let Ok(sketch) = self.rebuild_to(i, view.epoch) {
                view.shards.push((i, Arc::new(sketch)));
                self.metrics.freeze_recovered_shards.inc();
            }
        }
        view.shards.sort_by_key(|(i, _)| *i);
        Ok(view)
    }

    // ---- introspection & chaos hooks -------------------------------------

    /// Current health of every shard.
    pub fn shard_states(&self) -> Vec<ShardState> {
        self.shards.iter().map(|s| s.health).collect()
    }

    /// Live (healthy or suspect) repetitions.
    pub fn live_repetitions(&self) -> usize {
        self.shards.iter().filter(|s| s.health.is_live()).count()
    }

    /// Total configured repetitions.
    pub fn repetitions(&self) -> usize {
        self.shards.len()
    }

    /// Updates logged to the WAL so far.
    pub fn offset(&self) -> u64 {
        self.wal.offset()
    }

    /// Updates fully flushed through the live shards.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// The cause recorded at shard `i`'s last quarantine, if any.
    pub fn last_shard_error(&self, i: usize) -> Option<&str> {
        self.shards[i].last_error.as_deref()
    }

    /// Shard `i`'s encoded state — the byte-identity oracle used by the
    /// rebuild and scrub tests.
    pub fn shard_encoded(&self, i: usize) -> Vec<u8> {
        encoded(self.shards[i].sketch.as_ref())
    }

    /// Shard `i`'s snapshot store. Shard stores are opened under a seed
    /// derived per shard, so a [`RecoveryDriver`] over shard `i`'s
    /// snapshots must be built from this store (chaos harnesses also
    /// corrupt its directory).
    pub fn shard_store(&self, i: usize) -> &CheckpointStore {
        &self.shards[i].store
    }

    /// Chaos hook: shard `i`'s next `attempts` applies fail with clones of
    /// `error`. With `attempts == u32::MAX` the shard is effectively
    /// poisoned until rebuilt.
    pub fn inject_apply_fault(&mut self, i: usize, error: SketchError, attempts: u32) {
        self.shards[i].fault = Some(InjectedApplyFault {
            error,
            remaining: attempts,
        });
    }

    /// Chaos hook: applies a *valid* update to shard `i` only, bypassing
    /// the WAL — silent divergence no typed error will ever report. Only a
    /// scrub audit or a majority-vote query can catch it.
    pub fn apply_divergent_update(&mut self, i: usize, u: &Update) -> SketchResult<()> {
        Arc::make_mut(&mut self.shards[i].sketch).apply_update(u)
    }
}

/// Canonical byte encoding of a sketch, for byte-identity comparison.
fn encoded<T: Codec>(t: &T) -> Vec<u8> {
    let mut w = Writer::new();
    t.encode(&mut w);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use dgs_connectivity::{ForestParams, SpanningForestSketch};
    use dgs_field::prng::{SeedableRng, StdRng};
    use dgs_field::SeedTree;
    use dgs_hypergraph::generators::{churn_stream, gnp, ChurnConfig};
    use dgs_hypergraph::{EdgeSpace, HyperEdge, Hypergraph};
    use dgs_sketch::Profile;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn tmpdir(label: &str) -> PathBuf {
        static UNIQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dgs-sup-{label}-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const N: usize = 16;

    fn forest(i: usize) -> SpanningForestSketch {
        let space = EdgeSpace::graph(N).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        SpanningForestSketch::new_full(space, &SeedTree::new(1000 + i as u64), params)
    }

    /// A deterministic churn workload truncated to exactly `len` updates
    /// (any prefix of a churn stream is a valid multiplicity-respecting
    /// state, so truncation keeps every decode meaningful).
    fn workload(seed: u64, len: usize) -> UpdateStream {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = Hypergraph::from_graph(&gnp(N, 0.4, &mut rng));
        let mut s = churn_stream(
            &h,
            ChurnConfig {
                noise_ratio: 2.0,
                churn_ratio: 0.5,
            },
            &mut rng,
        );
        assert!(
            s.updates.len() >= len,
            "workload too short: {} < {len}",
            s.updates.len()
        );
        s.updates.truncate(len);
        s
    }

    fn cfg(seed: u64) -> SupervisorConfig {
        SupervisorConfig {
            repetitions: 3,
            threads: 2,
            batch_size: 16,
            seed,
            checkpoint: CheckpointConfig {
                snapshot_interval: 64,
                ..CheckpointConfig::default()
            },
            ..SupervisorConfig::default()
        }
    }

    fn reference_shards(stream: &UpdateStream, reps: usize) -> Vec<Vec<u8>> {
        (0..reps)
            .map(|i| {
                let mut s = forest(i);
                for u in &stream.updates {
                    s.apply_update(u).unwrap();
                }
                encoded(&s)
            })
            .collect()
    }

    #[test]
    fn fault_free_run_is_bit_identical_to_sequential() {
        let wal = tmpdir("clean-wal");
        let snap = tmpdir("clean-snap");
        let stream = workload(7, 200);
        let mut sup = SupervisedIngestor::create(&wal, &snap, N, 2, cfg(7), forest).unwrap();
        sup.ingest_stream(&stream).unwrap();
        sup.flush().unwrap();
        let reference = reference_shards(&stream, 3);
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(&sup.shard_encoded(i), want, "shard {i}");
        }
        assert_eq!(sup.shard_states(), vec![ShardState::Healthy; 3]);
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    #[test]
    fn transient_fault_is_retried_and_leaves_state_exact() {
        let wal = tmpdir("transient-wal");
        let snap = tmpdir("transient-snap");
        let stream = workload(8, 120);
        let mut sup = SupervisedIngestor::create(&wal, &snap, N, 2, cfg(8), forest).unwrap();
        let registry = dgs_obs::Registry::new();
        sup.set_sink(&registry.sink());
        sup.inject_apply_fault(1, SketchError::failure("chaos", "transient"), 2);
        sup.ingest_stream(&stream).unwrap();
        sup.flush().unwrap();
        // Shard 1 recovered in-flush: transiently Suspect, state exact.
        let reference = reference_shards(&stream, 3);
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(&sup.shard_encoded(i), want, "shard {i}");
        }
        assert!(
            registry
                .counter_value("dgs_core_supervise_retries")
                .unwrap()
                >= 2
        );
        assert!(
            registry
                .counter_value("dgs_core_supervise_backoff_ns")
                .unwrap()
                > 0
        );
        assert_eq!(
            registry.counter_value("dgs_core_supervise_quarantines"),
            Some(0)
        );
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    #[test]
    fn poisoned_shard_is_quarantined_and_rebuilt_bit_identical() {
        let wal = tmpdir("poison-wal");
        let snap = tmpdir("poison-snap");
        let stream = workload(9, 240);
        let mut sup = SupervisedIngestor::create(&wal, &snap, N, 2, cfg(9), forest).unwrap();
        let registry = dgs_obs::Registry::new();
        sup.set_sink(&registry.sink());
        // Ingest some, then poison shard 2 until rebuilt.
        for u in &stream.updates[..100] {
            sup.push(u).unwrap();
        }
        sup.inject_apply_fault(2, SketchError::failure("chaos", "poisoned"), u32::MAX);
        for u in &stream.updates[100..] {
            sup.push(u).unwrap();
        }
        sup.flush().unwrap();
        // The quarantine ages one flush, so the *next mid-stream flush* must
        // already have rebuilt the shard — while the WAL sat ahead of the
        // applied offset by a buffered batch (regression: a capped recovery
        // that replays past the cap makes every mid-stream rebuild fail, and
        // only an empty-buffer flush would heal).
        assert_eq!(sup.shard_states(), vec![ShardState::Healthy; 3]);
        assert_eq!(
            registry
                .counter_value("dgs_core_supervise_rebuild_failures")
                .unwrap(),
            0,
            "no rebuild attempt may fail: {:?}",
            sup.last_shard_error(2)
        );
        assert!(
            registry
                .counter_value("dgs_core_supervise_quarantines")
                .unwrap()
                >= 1
        );
        assert!(
            registry
                .counter_value("dgs_core_supervise_rebuilds")
                .unwrap()
                >= 1
        );
        assert!(sup.last_shard_error(2).is_none(), "cleared by rebuild");
        let reference = reference_shards(&stream, 3);
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(&sup.shard_encoded(i), want, "shard {i}");
        }
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    /// A forest shard that, once `trip` is set, applies half of its next
    /// batch and then panics; the flag clears as it fires.
    #[derive(Clone)]
    struct Tripwire {
        forest: SpanningForestSketch,
        trip: Option<Arc<AtomicBool>>,
    }

    impl Codec for Tripwire {
        fn encode(&self, w: &mut Writer) {
            self.forest.encode(w);
        }
        fn decode(r: &mut dgs_field::Reader<'_>) -> Result<Self, dgs_field::CodecError> {
            Ok(Tripwire {
                forest: <SpanningForestSketch as Codec>::decode(r)?,
                trip: None,
            })
        }
    }

    impl Recoverable for Tripwire {
        fn apply_update(&mut self, u: &Update) -> SketchResult<()> {
            self.forest.apply_update(u)
        }
        fn apply_batch(&mut self, batch: &[Update]) -> Result<(), (usize, SketchError)> {
            let fire = |t: &Arc<AtomicBool>| t.swap(false, Ordering::SeqCst);
            if self.trip.as_ref().is_some_and(fire) {
                let _ = self.forest.apply_batch(&batch[..batch.len() / 2]);
                panic!("shard apply blew up mid-batch");
            }
            self.forest.apply_batch(batch)
        }
    }

    #[test]
    fn panicking_shard_is_quarantined_and_rebuilt_at_every_thread_count() {
        let stream = workload(0x9A1C, 40);
        let reference = reference_shards(&stream, 3);
        for threads in [1usize, 2] {
            let wal = tmpdir("panic-wal");
            let snap = tmpdir("panic-snap");
            let trip = Arc::new(AtomicBool::new(false));
            let armed = Arc::clone(&trip);
            let cfg = SupervisorConfig {
                threads,
                batch_size: 4,
                ..cfg(0x9A1C)
            };
            let mut sup = SupervisedIngestor::create(&wal, &snap, N, 2, cfg, move |i| Tripwire {
                forest: forest(i),
                trip: (i == 1).then(|| Arc::clone(&armed)),
            })
            .unwrap();
            // 18 updates: four flushes, two buffered.
            for u in &stream.updates[..18] {
                sup.push(u).unwrap();
            }
            trip.store(true, Ordering::SeqCst);
            // The 20th update fills the batch; shard 1 panics in its flush
            // and `push` still returns normally.
            for u in &stream.updates[18..20] {
                sup.push(u).unwrap();
            }
            assert!(
                !trip.load(Ordering::SeqCst),
                "threads {threads}: the shard never panicked"
            );
            assert_eq!(
                sup.shard_states(),
                [
                    ShardState::Healthy,
                    ShardState::Quarantined,
                    ShardState::Healthy
                ],
                "threads {threads}: only the panicking shard fails"
            );
            assert!(
                sup.last_shard_error(1)
                    .is_some_and(|e| e.contains("flush worker panicked")),
                "threads {threads}: {:?}",
                sup.last_shard_error(1)
            );
            assert_eq!(sup.ingested(), sup.offset(), "threads {threads}");
            // The next flush rebuilds the torn shard from the WAL.
            for u in &stream.updates[20..24] {
                sup.push(u).unwrap();
            }
            assert_eq!(sup.shard_states(), vec![ShardState::Healthy; 3]);
            assert_eq!(sup.ingested(), sup.offset(), "threads {threads}");
            for u in &stream.updates[24..] {
                sup.push(u).unwrap();
            }
            sup.flush().unwrap();
            assert_eq!(sup.ingested(), sup.offset(), "threads {threads}");
            for (i, want) in reference.iter().enumerate() {
                assert_eq!(&sup.shard_encoded(i), want, "threads {threads}, shard {i}");
            }
            std::fs::remove_dir_all(&wal).unwrap();
            std::fs::remove_dir_all(&snap).unwrap();
        }
    }

    #[test]
    fn degraded_query_reports_widened_delta_and_right_answer() {
        let wal = tmpdir("degraded-wal");
        let snap = tmpdir("degraded-snap");
        let stream = workload(10, 140);
        let mut sup = SupervisedIngestor::create(
            &wal,
            &snap,
            N,
            2,
            SupervisorConfig {
                rebuild_after_flushes: u64::MAX, // keep the shard down
                ..cfg(10)
            },
            forest,
        )
        .unwrap();
        for u in &stream.updates[..100] {
            sup.push(u).unwrap();
        }
        sup.flush().unwrap();
        sup.inject_apply_fault(0, SketchError::failure("chaos", "poisoned"), u32::MAX);
        for u in &stream.updates[100..] {
            sup.push(u).unwrap();
        }
        sup.flush().unwrap();
        assert_eq!(sup.live_repetitions(), 2);
        let answer = sup
            .query(
                &QueryBudget::default(),
                QueryPolicy::FirstSuccess,
                |_, s: &SpanningForestSketch| s.try_component_count(),
            )
            .unwrap();
        match answer {
            SupervisedAnswer::Degraded {
                healthy_repetitions,
                total_repetitions,
                effective_delta,
                ..
            } => {
                assert_eq!(healthy_repetitions, 2);
                assert_eq!(total_repetitions, 3);
                assert!((effective_delta - 0.5f64.powi(2)).abs() < 1e-12);
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    #[test]
    fn decode_budget_quarantines_flaky_decoder_shard() {
        let wal = tmpdir("decode-wal");
        let snap = tmpdir("decode-snap");
        let stream = workload(12, 60);
        let mut sup = SupervisedIngestor::create(
            &wal,
            &snap,
            N,
            2,
            SupervisorConfig {
                decode_error_budget: 2,
                rebuild_after_flushes: u64::MAX,
                ..cfg(12)
            },
            forest,
        )
        .unwrap();
        sup.ingest_stream(&stream).unwrap();
        sup.flush().unwrap();
        for _ in 0..4 {
            let _ = sup
                .query(
                    &QueryBudget::default(),
                    QueryPolicy::FirstSuccess,
                    |shard, s: &SpanningForestSketch| {
                        if shard == 0 {
                            Err(SketchError::failure("stub", "decode stall"))
                        } else {
                            s.try_component_count()
                        }
                    },
                )
                .unwrap();
        }
        assert_eq!(sup.shard_states()[0], ShardState::Quarantined);
        assert!(sup.last_shard_error(0).unwrap().contains("decode budget"));
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    #[test]
    fn scrub_catches_silent_divergence() {
        let wal = tmpdir("scrub-wal");
        let snap = tmpdir("scrub-snap");
        let stream = workload(13, 150);
        let mut sup = SupervisedIngestor::create(
            &wal,
            &snap,
            N,
            2,
            SupervisorConfig {
                scrub_interval: 32,
                repetitions: 2,
                threads: 1,
                ..cfg(13)
            },
            forest,
        )
        .unwrap();
        let registry = dgs_obs::Registry::new();
        sup.set_sink(&registry.sink());
        for u in &stream.updates[..50] {
            sup.push(u).unwrap();
        }
        // Silently diverge shard 0: a ghost edge no one logged.
        sup.apply_divergent_update(0, &Update::insert(HyperEdge::pair(0, 1)))
            .unwrap();
        for u in &stream.updates[50..] {
            sup.push(u).unwrap();
        }
        sup.flush().unwrap();
        assert!(
            registry
                .counter_value("dgs_core_supervise_scrub_mismatches")
                .unwrap()
                >= 1,
            "scrub never caught the divergence"
        );
        let reference = reference_shards(&stream, 2);
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(&sup.shard_encoded(i), want, "shard {i}");
        }
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    #[test]
    fn invalid_input_fails_the_stream_not_the_shards() {
        let wal = tmpdir("invalid-wal");
        let snap = tmpdir("invalid-snap");
        // Shards over every vertex but the last: an update touching it fits
        // the stream shape, so it is logged, and then every shard rejects
        // it non-retryably at flush.
        let induced = |i: usize| {
            let space = EdgeSpace::graph(N).unwrap();
            let params = ForestParams::new(Profile::Practical, space.dimension());
            let vertices = (0..N as u32 - 1).collect();
            let seeds = SeedTree::new(1000 + i as u64);
            SpanningForestSketch::new_induced(space, vertices, &seeds, params)
        };
        let mut sup = SupervisedIngestor::create(&wal, &snap, N, 2, cfg(14), induced).unwrap();
        sup.push(&Update::insert(HyperEdge::pair(0, 1))).unwrap();
        sup.push(&Update::insert(HyperEdge::pair(0, N as u32 - 1)))
            .unwrap();
        let err = sup.flush().unwrap_err();
        assert!(matches!(err, RecoveryError::Sketch(ref e) if !e.is_retryable()));
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    /// Regression: an update that does not fit the stream shape used to be
    /// logged before any shard saw it. The shards applied the valid prefix
    /// of its batch, the applied offset stayed behind the WAL for good, and
    /// every later replay of the log (rebuild, scrub audit, resume) failed
    /// on that record.
    #[test]
    fn malformed_update_is_rejected_before_it_is_logged() {
        const SMALL: usize = 8;
        let small = |i: usize| {
            let space = EdgeSpace::graph(SMALL).unwrap();
            let params = ForestParams::new(Profile::Practical, space.dimension());
            SpanningForestSketch::new_full(space, &SeedTree::new(2000 + i as u64), params)
        };
        let cfg = SupervisorConfig {
            repetitions: 3,
            threads: 1,
            batch_size: 4,
            scrub_interval: 4,
            checkpoint: CheckpointConfig {
                snapshot_interval: 8,
                ..CheckpointConfig::default()
            },
            ..SupervisorConfig::default()
        };
        // A path over every vertex, then four chords.
        let valid: Vec<Update> = (0..SMALL as u32 - 1)
            .map(|v| (v, v + 1))
            .chain([(0, 7), (1, 3), (2, 5), (4, 6)])
            .map(|(u, v)| Update::insert(HyperEdge::pair(u, v)))
            .collect();
        let wal = tmpdir("shape-wal");
        let snap = tmpdir("shape-snap");
        let mut sup = SupervisedIngestor::create(&wal, &snap, SMALL, 2, cfg, small).unwrap();
        for u in &valid[..3] {
            sup.push(u).unwrap();
        }
        let out_of_range = Update::insert(HyperEdge::pair(0, 99));
        let over_rank = Update::insert(HyperEdge::new(vec![0, 1, 2]).unwrap());
        for bad in [out_of_range, over_rank] {
            let err = sup.push(&bad).unwrap_err();
            assert!(
                matches!(err, RecoveryError::Sketch(ref e) if !e.is_retryable()),
                "{err}"
            );
            assert_eq!(sup.offset(), 3, "a rejected update must not be logged");
        }
        for u in &valid[3..] {
            sup.push(u).unwrap();
        }
        sup.flush().unwrap();
        assert_eq!(sup.offset(), valid.len() as u64);
        assert_eq!(sup.ingested(), sup.offset());
        sup.rebuild_now(0).unwrap();
        assert_eq!(sup.shard_states(), vec![ShardState::Healthy; 3]);
        for i in 0..3 {
            let mut reference = small(i);
            for u in &valid {
                reference.apply_update(u).unwrap();
            }
            assert_eq!(sup.shard_encoded(i), encoded(&reference), "shard {i}");
        }
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    #[test]
    fn resume_restores_every_shard_to_the_durable_offset() {
        let wal = tmpdir("resume-wal");
        let snap = tmpdir("resume-snap");
        let stream = workload(15, 180);
        {
            let mut sup = SupervisedIngestor::create(&wal, &snap, N, 2, cfg(15), forest).unwrap();
            for u in &stream.updates[..130] {
                sup.push(u).unwrap();
            }
            sup.flush().unwrap();
            // crash (drop)
        }
        let (mut sup, durable) =
            SupervisedIngestor::<SpanningForestSketch>::resume(&wal, &snap, N, 2, cfg(15), forest)
                .unwrap();
        assert_eq!(durable, 130);
        for u in &stream.updates[130..] {
            sup.push(u).unwrap();
        }
        sup.flush().unwrap();
        let reference = reference_shards(&stream, 3);
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(&sup.shard_encoded(i), want, "shard {i}");
        }
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    #[test]
    fn deadline_bounds_the_query() {
        // Stub "sketches": decode sleeps; the budget must cut it off.
        let live: Vec<(usize, &u64)> = vec![(0, &0), (1, &1), (2, &2)];
        let budget = QueryBudget {
            deadline: Some(Duration::from_millis(1)),
            ..QueryBudget::default()
        };
        let out = query_ensemble(&live, 3, 0.5, &budget, QueryPolicy::FirstSuccess, |_, _| {
            std::thread::sleep(Duration::from_millis(5));
            Err::<u64, _>(SketchError::failure("stub", "slow failure"))
        });
        match out.answer {
            SupervisedAnswer::DeadlineExceeded {
                consulted,
                healthy_repetitions,
            } => {
                assert!(consulted < 3, "deadline never bound");
                assert_eq!(healthy_repetitions, 3);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn majority_outvotes_a_corrupt_member() {
        let live: Vec<(usize, &u64)> = vec![(0, &7), (1, &7), (2, &99)];
        let out = query_ensemble(
            &live,
            3,
            0.5,
            &QueryBudget::default(),
            QueryPolicy::Majority,
            |_, v| Ok(*v as u32),
        );
        match out.answer {
            SupervisedAnswer::Full { value, .. } => assert_eq!(value, 7),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(
            out.incidents,
            vec![DecodeIncident {
                shard: 2,
                kind: IncidentKind::Outvoted
            }]
        );
    }

    #[test]
    fn freeze_with_recovery_restores_a_quarantined_shard_into_the_view() {
        let wal = tmpdir("recover-view-wal");
        let snap = tmpdir("recover-view-snap");
        let stream = workload(17, 200);
        let mut sup = SupervisedIngestor::create(
            &wal,
            &snap,
            N,
            2,
            SupervisorConfig {
                rebuild_after_flushes: u64::MAX, // keep the live shard down
                ..cfg(17)
            },
            forest,
        )
        .unwrap();
        let registry = dgs_obs::Registry::new();
        sup.set_sink(&registry.sink());
        for u in &stream.updates[..100] {
            sup.push(u).unwrap();
        }
        sup.inject_apply_fault(1, SketchError::failure("chaos", "poisoned"), u32::MAX);
        for u in &stream.updates[100..150] {
            sup.push(u).unwrap();
        }
        assert_eq!(sup.shard_states()[1], ShardState::Quarantined);
        let view = sup.freeze_with_recovery().unwrap();
        assert_eq!(view.epoch(), 150);
        let mut at_epoch = stream.clone();
        at_epoch.updates.truncate(view.epoch() as usize);
        let reference = reference_shards(&at_epoch, 3);
        let got: Vec<(usize, Vec<u8>)> = view.shards().map(|(i, s)| (i, encoded(s))).collect();
        assert_eq!(got, reference.into_iter().enumerate().collect::<Vec<_>>());
        assert_eq!(sup.shard_states()[1], ShardState::Quarantined);
        assert_eq!(
            registry.counter_value("dgs_core_supervise_freeze_recovered_shards"),
            Some(1)
        );
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    #[test]
    fn finish_rebuilds_quarantined_shards_first() {
        let wal = tmpdir("finish-wal");
        let snap = tmpdir("finish-snap");
        let stream = workload(16, 90);
        let mut sup = SupervisedIngestor::create(
            &wal,
            &snap,
            N,
            2,
            SupervisorConfig {
                rebuild_after_flushes: u64::MAX,
                ..cfg(16)
            },
            forest,
        )
        .unwrap();
        sup.inject_apply_fault(1, SketchError::failure("chaos", "poisoned"), u32::MAX);
        sup.ingest_stream(&stream).unwrap();
        sup.flush().unwrap();
        assert_eq!(sup.shard_states()[1], ShardState::Quarantined);
        let boosted = sup.finish().unwrap();
        let reference = reference_shards(&stream, 3);
        let got: Vec<Vec<u8>> = boosted.sketches().iter().map(encoded).collect();
        assert_eq!(got, reference);
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }
}
