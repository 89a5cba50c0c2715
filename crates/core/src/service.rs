//! Always-on multi-tenant connectivity service with overload protection.
//!
//! Promotes the library into a long-running server shape: a
//! [`ConnectivityService`] owns one [`SupervisedIngestor`] per tenant and
//! answers queries off **epoch-tagged frozen views**
//! ([`FrozenEnsemble`], taken by [`SupervisedIngestor::freeze`]). Sketch
//! linearity makes the view cheap — every live shard sits behind an `Arc`,
//! so freezing is one reference-count bump per repetition and the write
//! path copies a shard only on its next touch (copy-on-write). Quarantined
//! shards are recovered *into* the view from the newest checkpoint plus a
//! capped WAL-tail replay ([`SupervisedIngestor::freeze_with_recovery`]),
//! so a view can be fuller than the live ensemble. The write path never
//! stops for a reader.
//!
//! The serving path is wrapped in an overload-protection ladder —
//! **admission → quota → brownout → shed** — where every shed is *typed*,
//! never silent:
//!
//! 1. **Circuit breaker** — repeated `DeadlineExceeded` answers trip a
//!    per-tenant breaker ([`Overload::CircuitOpen`]) for a cooldown, so a
//!    tenant whose decodes cannot meet deadlines stops burning ensemble
//!    time for everyone.
//! 2. **Bounded admission** — at most [`ServiceConfig::queue_capacity`]
//!    queries per tenant are in flight; the next one is rejected with
//!    [`Overload::QueueFull`] (queues never grow without bound).
//! 3. **Token-bucket quota** — each tenant spends one token per
//!    repetition-decode it may consume; an empty bucket rejects with
//!    [`Overload::QuotaExhausted`] and an honest `retry_after`.
//! 4. **Cost-based admission** — a per-tenant EWMA of observed
//!    per-repetition decode time (seeded from the E19 latency baselines)
//!    estimates whether the query can finish inside its deadline; when
//!    even one decode cannot, the query is rejected up front with
//!    [`Overload::CostRejected`] instead of burning a doomed decode.
//! 5. **Brownout** — before shedding whole requests, the service sheds
//!    *boosted repetitions*: under queue pressure (or a tight cost
//!    budget) a query is answered from R′ < R shards and reports
//!    `Degraded { effective_delta = δ^R′ }` exactly as a degraded live
//!    ensemble would — the paper's amplification argument in reverse,
//!    trading failure probability for capacity, never correctness.
//!
//! Deadlines propagate into the decode layer: the remaining wall-clock
//! budget becomes the [`QueryBudget`] deadline, split per shard, with the
//! brownout repetition count as the decode-step cap.
//!
//! Everything surfaces through `dgs-obs` under `dgs_core_service_*`,
//! labelled per tenant: queue depth, admission verdicts, shed/brownout
//! counters, latency histograms, and the answer mix.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use dgs_hypergraph::{Update, UpdateStream};
use dgs_obs::{Counter, Gauge, Histogram, MetricsSink};
use dgs_sketch::SketchResult;

use crate::checkpoint::{Recoverable, RecoveryError};
use crate::supervise::{
    FrozenEnsemble, QueryBudget, QueryPolicy, SupervisedAnswer, SupervisedIngestor,
    SupervisorConfig,
};

/// Per-tenant token-bucket quota. One token buys one repetition-decode, so
/// the refill rate is a ceiling on decode work per second rather than on
/// request count — a browned-out query costs proportionally less.
#[derive(Clone, Copy, Debug)]
pub struct TokenBucketConfig {
    /// Maximum tokens held (burst allowance).
    pub capacity: f64,
    /// Tokens restored per second.
    pub refill_per_sec: f64,
}

impl Default for TokenBucketConfig {
    fn default() -> TokenBucketConfig {
        TokenBucketConfig {
            capacity: 512.0,
            refill_per_sec: 256.0,
        }
    }
}

/// Per-tenant circuit breaker on repeated deadline misses.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive `DeadlineExceeded` answers that trip the breaker.
    pub trip_after: u32,
    /// How long the breaker stays open once tripped.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            trip_after: 3,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// Brownout policy: how repetitions are shed under queue pressure.
#[derive(Clone, Copy, Debug)]
pub struct BrownoutConfig {
    /// In-flight queries (per tenant) above which each additional query
    /// sheds one more repetition from its ensemble.
    pub start_depth: usize,
    /// Repetitions depth-shedding never goes below (the cost model may
    /// still go lower, to 1, when the deadline demands it).
    pub min_repetitions: usize,
}

impl Default for BrownoutConfig {
    fn default() -> BrownoutConfig {
        BrownoutConfig {
            start_depth: 4,
            min_repetitions: 2,
        }
    }
}

/// Fraction of a query's deadline the cost estimate may fill before the
/// repetition count is cut (head-room for aggregation and scheduling).
const COST_HEADROOM: f64 = 0.8;

/// Service-level policy. Defaults are sized for the test/experiment scale.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Maximum concurrently admitted queries per tenant; the next query is
    /// rejected with [`Overload::QueueFull`].
    pub queue_capacity: usize,
    /// Per-tenant decode-work quota.
    pub quota: TokenBucketConfig,
    /// Deadline applied when a [`QueryRequest`] does not carry one.
    pub default_deadline: Duration,
    /// Updates ingested past the current view before `push` refreshes it
    /// automatically; `0` disables auto-refresh (explicit
    /// [`ConnectivityService::refresh_view`] only).
    pub refresh_interval: u64,
    /// When true, view refreshes recover quarantined shards into the view
    /// from checkpoint + capped WAL replay
    /// ([`SupervisedIngestor::freeze_with_recovery`]); when false a view
    /// holds live shards only.
    pub recover_views: bool,
    /// Circuit-breaker policy.
    pub breaker: BreakerConfig,
    /// Brownout policy.
    pub brownout: BrownoutConfig,
    /// Prior for the per-repetition decode cost EWMA, in nanoseconds.
    /// Seed it from the E19 query-latency baselines for the deployed
    /// sketch; it converges to observed behaviour within a few queries.
    pub initial_cost_ns: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            queue_capacity: 16,
            quota: TokenBucketConfig::default(),
            default_deadline: Duration::from_millis(250),
            refresh_interval: 1024,
            recover_views: true,
            breaker: BreakerConfig::default(),
            brownout: BrownoutConfig::default(),
            initial_cost_ns: 200_000,
        }
    }
}

/// A typed overload rejection. Every request the service cannot serve is
/// refused with one of these — never silently dropped, never silently
/// wrong.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Overload {
    /// The tenant's admission queue is at capacity.
    QueueFull {
        /// In-flight queries at rejection time.
        depth: usize,
        /// Configured capacity.
        capacity: usize,
    },
    /// The tenant's token bucket cannot cover even a browned-out query.
    QuotaExhausted {
        /// Time until the bucket will hold enough tokens.
        retry_after: Duration,
    },
    /// The tenant's circuit breaker is open after repeated deadline
    /// misses.
    CircuitOpen {
        /// Time until the breaker half-closes.
        retry_after: Duration,
    },
    /// The cost model estimates that even a single repetition decode
    /// cannot finish inside the deadline.
    CostRejected {
        /// Estimated single-decode duration.
        estimated: Duration,
        /// The deadline it was measured against.
        deadline: Duration,
    },
}

impl std::fmt::Display for Overload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Overload::QueueFull { depth, capacity } => {
                write!(f, "admission queue full ({depth}/{capacity} in flight)")
            }
            Overload::QuotaExhausted { retry_after } => {
                write!(f, "quota exhausted; retry after {retry_after:?}")
            }
            Overload::CircuitOpen { retry_after } => {
                write!(f, "circuit breaker open; retry after {retry_after:?}")
            }
            Overload::CostRejected {
                estimated,
                deadline,
            } => write!(
                f,
                "estimated decode {estimated:?} cannot meet deadline {deadline:?}"
            ),
        }
    }
}

impl Overload {
    /// Stable label for metrics/experiment breakdowns.
    pub fn reason(&self) -> &'static str {
        match self {
            Overload::QueueFull { .. } => "queue_full",
            Overload::QuotaExhausted { .. } => "quota",
            Overload::CircuitOpen { .. } => "circuit_open",
            Overload::CostRejected { .. } => "cost",
        }
    }
}

/// Anything the service can refuse a call with.
#[derive(Debug)]
pub enum ServiceError {
    /// No tenant registered under that name.
    UnknownTenant(String),
    /// `add_tenant` with a name already in use.
    DuplicateTenant(String),
    /// Typed overload rejection (see [`Overload`]).
    Overload(Overload),
    /// `finish` called while queries still hold references to the tenant.
    TenantBusy(String),
    /// The tenant's durability stack failed (WAL/checkpoint/rebuild).
    Recovery(RecoveryError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            ServiceError::DuplicateTenant(t) => write!(f, "tenant {t:?} already registered"),
            ServiceError::Overload(o) => write!(f, "overloaded: {o}"),
            ServiceError::TenantBusy(t) => {
                write!(f, "tenant {t:?} still has queries in flight")
            }
            ServiceError::Recovery(e) => write!(f, "recovery error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<RecoveryError> for ServiceError {
    fn from(e: RecoveryError) -> ServiceError {
        ServiceError::Recovery(e)
    }
}

/// One query against a tenant's frozen view.
#[derive(Clone, Copy, Debug)]
pub struct QueryRequest {
    /// Wall-clock deadline; `None` uses [`ServiceConfig::default_deadline`].
    pub deadline: Option<Duration>,
    /// Resolution policy over the consulted repetitions.
    pub policy: QueryPolicy,
}

impl Default for QueryRequest {
    fn default() -> QueryRequest {
        QueryRequest {
            deadline: None,
            policy: QueryPolicy::FirstSuccess,
        }
    }
}

/// An admitted query's result, tagged with the view epoch it was answered
/// at and the brownout bookkeeping the caller needs to interpret it.
#[derive(Clone, Debug)]
pub struct QueryResponse<T> {
    /// The supervised answer (`Full`, `Degraded { effective_delta = δ^R′ }`,
    /// `Unknown`, `DeadlineExceeded`, or `Invalid`).
    pub answer: SupervisedAnswer<T>,
    /// Stream offset (updates applied) of the frozen view that answered.
    pub epoch: u64,
    /// Repetitions the query was offered after brownout and cost shedding.
    pub offered_repetitions: usize,
    /// Repetitions shed from the view's ensemble for this query.
    pub shed_repetitions: usize,
    /// Repetitions actually consulted before resolution.
    pub consulted: usize,
    /// End-to-end latency, admission included.
    pub latency: Duration,
}

/// Mutable admission state for one tenant, behind one short-lived lock.
#[derive(Debug)]
struct AdmissionState {
    tokens: f64,
    last_refill: Instant,
    consecutive_deadline: u32,
    breaker_open_until: Option<Instant>,
    /// EWMA of observed per-repetition decode cost, nanoseconds.
    per_rep_cost_ns: f64,
}

/// Per-tenant metric handles (`dgs_core_service_*{tenant="..."}`).
#[derive(Clone, Debug, Default)]
struct TenantMetrics {
    queue_depth: Gauge,
    admitted: Counter,
    rejected_queue: Counter,
    rejected_quota: Counter,
    rejected_circuit: Counter,
    rejected_cost: Counter,
    brownout_queries: Counter,
    shed_repetitions: Counter,
    deadline_missed: Counter,
    breaker_trips: Counter,
    view_refreshes: Counter,
    view_lag: Gauge,
    query_ns: Histogram,
    answers_full: Counter,
    answers_degraded: Counter,
    answers_unknown: Counter,
    answers_deadline: Counter,
    answers_invalid: Counter,
}

impl TenantMetrics {
    fn resolve(sink: &MetricsSink, tenant: &str) -> TenantMetrics {
        let l: &[(&str, &str)] = &[("tenant", tenant)];
        let c = |name: &str| sink.counter_labelled(name, l);
        TenantMetrics {
            queue_depth: sink.gauge_labelled("dgs_core_service_queue_depth", l),
            admitted: c("dgs_core_service_admitted"),
            rejected_queue: c("dgs_core_service_rejected_queue_full"),
            rejected_quota: c("dgs_core_service_rejected_quota"),
            rejected_circuit: c("dgs_core_service_rejected_circuit_open"),
            rejected_cost: c("dgs_core_service_rejected_cost"),
            brownout_queries: c("dgs_core_service_brownout_queries"),
            shed_repetitions: c("dgs_core_service_shed_repetitions"),
            deadline_missed: c("dgs_core_service_deadline_missed"),
            breaker_trips: c("dgs_core_service_breaker_trips"),
            view_refreshes: c("dgs_core_service_view_refreshes"),
            view_lag: sink.gauge_labelled("dgs_core_service_view_lag", l),
            query_ns: sink.histogram_labelled("dgs_core_service_query_ns", l),
            answers_full: c("dgs_core_service_answers_full"),
            answers_degraded: c("dgs_core_service_answers_degraded"),
            answers_unknown: c("dgs_core_service_answers_unknown"),
            answers_deadline: c("dgs_core_service_answers_deadline"),
            answers_invalid: c("dgs_core_service_answers_invalid"),
        }
    }

    fn record_rejection(&self, overload: &Overload) {
        match overload {
            Overload::QueueFull { .. } => self.rejected_queue.inc(),
            Overload::QuotaExhausted { .. } => self.rejected_quota.inc(),
            Overload::CircuitOpen { .. } => self.rejected_circuit.inc(),
            Overload::CostRejected { .. } => self.rejected_cost.inc(),
        }
    }
}

/// One tenant: its supervised ingestor (write path), the current frozen
/// view (read path), and admission state. The three locks are disjoint so
/// queries never wait on ingestion: `ingestor` is held by writers only,
/// `view` is a read-mostly `RwLock` around an `Arc` (readers clone the
/// `Arc` and drop the lock before decoding), and `admission` is held for
/// nanoseconds of arithmetic.
struct Tenant<S: Recoverable> {
    ingestor: Mutex<SupervisedIngestor<S>>,
    view: RwLock<Arc<FrozenEnsemble<S>>>,
    admission: Mutex<AdmissionState>,
    inflight: AtomicUsize,
    metrics: TenantMetrics,
}

/// Decrements the tenant's in-flight count on drop, so early returns and
/// decode panics alike release their admission slot.
struct InflightGuard<'a, S: Recoverable> {
    tenant: &'a Tenant<S>,
}

impl<S: Recoverable> Drop for InflightGuard<'_, S> {
    fn drop(&mut self) {
        let before = self.tenant.inflight.fetch_sub(1, Ordering::AcqRel);
        self.tenant
            .metrics
            .queue_depth
            .set(before.saturating_sub(1) as i64);
    }
}

/// The long-running service; see the module docs for the architecture.
///
/// All methods take `&self`: the service is shared across threads (ingest
/// writers and query readers concurrently) behind a plain reference or an
/// `Arc`.
pub struct ConnectivityService<S: Recoverable> {
    cfg: ServiceConfig,
    sink: MetricsSink,
    tenants: RwLock<BTreeMap<String, Arc<Tenant<S>>>>,
    tracer: RwLock<Option<dgs_trace::Tracer>>,
    flight: RwLock<Option<dgs_trace::FlightRecorder>>,
}

impl<S: Recoverable + Clone + Send + Sync> ConnectivityService<S> {
    /// A service with no metrics (null sink).
    pub fn new(cfg: ServiceConfig) -> ConnectivityService<S> {
        Self::with_sink(cfg, &MetricsSink::null())
    }

    /// A service whose tenants resolve `dgs_core_service_*` handles (and
    /// their ingestors' `dgs_core_supervise_*` handles) from `sink`.
    pub fn with_sink(cfg: ServiceConfig, sink: &MetricsSink) -> ConnectivityService<S> {
        assert!(cfg.queue_capacity >= 1, "queue capacity must be >= 1");
        assert!(
            cfg.quota.capacity > 0.0 && cfg.quota.refill_per_sec > 0.0,
            "quota capacity and refill must be positive"
        );
        assert!(
            cfg.brownout.min_repetitions >= 1,
            "brownout floor must be >= 1"
        );
        ConnectivityService {
            cfg,
            sink: sink.clone(),
            tenants: RwLock::new(BTreeMap::new()),
            tracer: RwLock::new(None),
            flight: RwLock::new(None),
        }
    }

    /// Attaches a tracer: every query gets a `dgs_core_service_request`
    /// root span, and the tracer is installed into every tenant's
    /// ingestor (current and future) so flushes and decode consultations
    /// nest under it. Default is no tracer (zero-cost).
    pub fn set_tracer(&self, tracer: &dgs_trace::Tracer) {
        *lock_write(&self.tracer) = Some(tracer.clone());
        for tenant in lock_read(&self.tenants).values() {
            lock_mutex(&tenant.ingestor).set_tracer(tracer);
        }
    }

    /// Attaches a flight recorder: breaker trips, deadline-exceeded
    /// answers, shard quarantines, and scrub mismatches each freeze a
    /// postmortem file. Installed into every tenant's ingestor (current
    /// and future). Default is none.
    pub fn set_flight_recorder(&self, recorder: &dgs_trace::FlightRecorder) {
        *lock_write(&self.flight) = Some(recorder.clone());
        for tenant in lock_read(&self.tenants).values() {
            lock_mutex(&tenant.ingestor).set_flight_recorder(recorder);
        }
    }

    /// Registers a tenant with a fresh stream. `build(i)` constructs
    /// repetition `i` deterministically (rebuilds call it again); WAL and
    /// snapshots land under the given directories, exactly as in
    /// [`SupervisedIngestor::create`]. The initial view is frozen at epoch
    /// 0 immediately. A taken name is rejected before anything touches the
    /// directories.
    #[allow(clippy::too_many_arguments)] // mirrors SupervisedIngestor::create
    pub fn add_tenant<F>(
        &self,
        name: &str,
        wal_dir: impl Into<PathBuf>,
        snap_root: impl Into<PathBuf>,
        n: usize,
        max_rank: usize,
        sup: SupervisorConfig,
        build: F,
    ) -> Result<(), ServiceError>
    where
        F: Fn(usize) -> S + Send + Sync + 'static,
    {
        let duplicate = || ServiceError::DuplicateTenant(name.to_string());
        if lock_read(&self.tenants).contains_key(name) {
            return Err(duplicate());
        }
        let mut ingestor = SupervisedIngestor::create(wal_dir, snap_root, n, max_rank, sup, build)?;
        ingestor.set_sink(&self.sink);
        if let Some(tracer) = lock_read(&self.tracer).as_ref() {
            ingestor.set_tracer(tracer);
        }
        if let Some(recorder) = lock_read(&self.flight).as_ref() {
            ingestor.set_flight_recorder(recorder);
        }
        let view = ingestor.freeze()?;
        let tenant = Arc::new(Tenant {
            ingestor: Mutex::new(ingestor),
            view: RwLock::new(Arc::new(view)),
            admission: Mutex::new(AdmissionState {
                tokens: self.cfg.quota.capacity,
                last_refill: Instant::now(),
                consecutive_deadline: 0,
                breaker_open_until: None,
                per_rep_cost_ns: self.cfg.initial_cost_ns as f64,
            }),
            inflight: AtomicUsize::new(0),
            metrics: TenantMetrics::resolve(&self.sink, name),
        });
        // A concurrent add of the same name may have won the race since
        // the check above.
        let mut map = lock_write(&self.tenants);
        if map.contains_key(name) {
            return Err(duplicate());
        }
        map.insert(name.to_string(), tenant);
        Ok(())
    }

    /// Registered tenant names, sorted.
    pub fn tenants(&self) -> Vec<String> {
        lock_read(&self.tenants).keys().cloned().collect()
    }

    fn tenant(&self, name: &str) -> Result<Arc<Tenant<S>>, ServiceError> {
        lock_read(&self.tenants)
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownTenant(name.to_string()))
    }

    /// Ingests one update for `tenant`, refreshing its frozen view when
    /// the configured interval has elapsed. Queries in flight keep reading
    /// their own view; they are never stalled by this.
    pub fn push(&self, tenant: &str, u: &Update) -> Result<(), ServiceError> {
        let t = self.tenant(tenant)?;
        let mut ing = lock_mutex(&t.ingestor);
        ing.push(u)?;
        self.maybe_refresh(&t, &mut ing)?;
        Ok(())
    }

    /// Ingests a whole stream for `tenant` (view refreshes happen at the
    /// configured interval along the way).
    pub fn ingest_stream(&self, tenant: &str, stream: &UpdateStream) -> Result<(), ServiceError> {
        let t = self.tenant(tenant)?;
        let mut ing = lock_mutex(&t.ingestor);
        for u in &stream.updates {
            ing.push(u)?;
            self.maybe_refresh(&t, &mut ing)?;
        }
        Ok(())
    }

    /// Flushes `tenant`'s buffered updates through its ensemble.
    pub fn flush(&self, tenant: &str) -> Result<(), ServiceError> {
        let t = self.tenant(tenant)?;
        lock_mutex(&t.ingestor).flush()?;
        Ok(())
    }

    /// Freezes a new view of `tenant` at the current stream offset and
    /// installs it for subsequent queries. Returns the new view's epoch.
    pub fn refresh_view(&self, tenant: &str) -> Result<u64, ServiceError> {
        let t = self.tenant(tenant)?;
        let mut ing = lock_mutex(&t.ingestor);
        self.install_view(&t, &mut ing)
    }

    /// Epoch (stream offset) of `tenant`'s current frozen view.
    pub fn view_epoch(&self, tenant: &str) -> Result<u64, ServiceError> {
        let t = self.tenant(tenant)?;
        let epoch = lock_read(&t.view).epoch();
        Ok(epoch)
    }

    /// Updates ingested for `tenant` (WAL-logged, not necessarily in the
    /// current view).
    pub fn ingested(&self, tenant: &str) -> Result<u64, ServiceError> {
        let t = self.tenant(tenant)?;
        let n = lock_mutex(&t.ingestor).ingested();
        Ok(n)
    }

    /// Current in-flight query count for `tenant`.
    pub fn queue_depth(&self, tenant: &str) -> Result<usize, ServiceError> {
        let t = self.tenant(tenant)?;
        Ok(t.inflight.load(Ordering::Acquire))
    }

    /// Runs `f` against `tenant`'s supervised ingestor under its lock —
    /// the escape hatch for chaos hooks (`inject_apply_fault`,
    /// `apply_divergent_update`) and operational introspection.
    pub fn with_ingestor<R>(
        &self,
        tenant: &str,
        f: impl FnOnce(&mut SupervisedIngestor<S>) -> R,
    ) -> Result<R, ServiceError> {
        let t = self.tenant(tenant)?;
        let mut ing = lock_mutex(&t.ingestor);
        Ok(f(&mut ing))
    }

    fn maybe_refresh(
        &self,
        t: &Tenant<S>,
        ing: &mut SupervisedIngestor<S>,
    ) -> Result<(), ServiceError> {
        if self.cfg.refresh_interval == 0 {
            return Ok(());
        }
        let lag = ing.ingested().saturating_sub(lock_read(&t.view).epoch());
        t.metrics.view_lag.set(lag as i64);
        if lag >= self.cfg.refresh_interval {
            self.install_view(t, ing)?;
        }
        Ok(())
    }

    fn install_view(
        &self,
        t: &Tenant<S>,
        ing: &mut SupervisedIngestor<S>,
    ) -> Result<u64, ServiceError> {
        let view = if self.cfg.recover_views {
            ing.freeze_with_recovery()?
        } else {
            ing.freeze()?
        };
        let epoch = view.epoch();
        *lock_write(&t.view) = Arc::new(view);
        t.metrics.view_refreshes.inc();
        t.metrics.view_lag.set(0);
        Ok(epoch)
    }

    /// Answers a connectivity query for `tenant` off its frozen view,
    /// under the overload ladder described in the module docs. `decode`
    /// receives `(repetition index, sketch)` exactly as in
    /// [`SupervisedIngestor::query`].
    ///
    /// `Err(ServiceError::Overload(..))` is a typed shed; every `Ok`
    /// carries an honest [`SupervisedAnswer`] (which may itself be
    /// `Degraded`, `Unknown`, or `DeadlineExceeded` — never silently
    /// wrong).
    pub fn query<T, F>(
        &self,
        tenant: &str,
        req: &QueryRequest,
        decode: F,
    ) -> Result<QueryResponse<T>, ServiceError>
    where
        T: Clone + PartialEq,
        F: Fn(usize, &S) -> SketchResult<T>,
    {
        let t = self.tenant(tenant)?;
        let start = Instant::now();
        let deadline = req.deadline.unwrap_or(self.cfg.default_deadline);

        // Trace context is allocated at admission: one root span per
        // request, alive through the ladder, decode, and feedback. Every
        // instrumentation point below it (`mark`, `child`) is inert when
        // no tracer is attached.
        let _request_span = lock_read(&self.tracer)
            .as_ref()
            .map(|tr| tr.root("dgs_core_service_request"));

        // Rung 1: circuit breaker.
        {
            let mut adm = lock_mutex(&t.admission);
            if let Some(until) = adm.breaker_open_until {
                if start < until {
                    let overload = Overload::CircuitOpen {
                        retry_after: until.saturating_duration_since(start),
                    };
                    dgs_trace::mark("dgs_core_service_reject_breaker");
                    t.metrics.record_rejection(&overload);
                    return Err(ServiceError::Overload(overload));
                }
                // Cooldown elapsed: half-close and let this query probe.
                adm.breaker_open_until = None;
                adm.consecutive_deadline = 0;
            }
        }

        // Rung 2: bounded admission. The slot is reserved before the
        // bound check and released by the guard, so the in-flight count
        // can overshoot capacity only transiently and never grows
        // unboundedly.
        let depth = t.inflight.fetch_add(1, Ordering::AcqRel);
        let _slot = InflightGuard { tenant: &t };
        t.metrics.queue_depth.set((depth + 1) as i64);
        if depth >= self.cfg.queue_capacity {
            let overload = Overload::QueueFull {
                depth: depth + 1,
                capacity: self.cfg.queue_capacity,
            };
            dgs_trace::mark("dgs_core_service_reject_queue_full");
            t.metrics.record_rejection(&overload);
            return Err(ServiceError::Overload(overload));
        }

        // Snapshot the view: clone the Arc, drop the lock, decode without
        // ever blocking the write path.
        let view = Arc::clone(&lock_read(&t.view));
        let available = view.repetitions();

        // Rung 3–4: brownout and cost-based admission, then the quota
        // charge — all under one short admission lock.
        let offered = {
            let mut adm = lock_mutex(&t.admission);
            refill(&mut adm, &self.cfg.quota, start);

            // Depth brownout: each query past the start depth sheds one
            // repetition, down to the configured floor.
            let floor = self.cfg.brownout.min_repetitions.min(available.max(1));
            let depth_shed = depth.saturating_sub(self.cfg.brownout.start_depth);
            let mut offered = available.saturating_sub(depth_shed).max(floor);

            // Cost model: how many sequential decodes fit in the
            // remaining budget? (FirstSuccess normally consults one, but
            // admission must bound the worst case.)
            let budget_ns = deadline.as_nanos() as f64 * COST_HEADROOM;
            let per_rep = adm.per_rep_cost_ns.max(1.0);
            let fit = (budget_ns / per_rep) as usize;
            if fit == 0 {
                let overload = Overload::CostRejected {
                    estimated: Duration::from_nanos(per_rep as u64),
                    deadline,
                };
                dgs_trace::mark("dgs_core_service_reject_cost");
                t.metrics.record_rejection(&overload);
                return Err(ServiceError::Overload(overload));
            }
            offered = offered.min(fit).max(1);

            // Quota: one token per repetition the query may decode.
            let cost = offered as f64;
            if adm.tokens < cost {
                let deficit = cost - adm.tokens;
                let overload = Overload::QuotaExhausted {
                    retry_after: Duration::from_secs_f64(deficit / self.cfg.quota.refill_per_sec),
                };
                dgs_trace::mark("dgs_core_service_reject_quota");
                t.metrics.record_rejection(&overload);
                return Err(ServiceError::Overload(overload));
            }
            adm.tokens -= cost;
            offered
        };

        t.metrics.admitted.inc();
        let shed = available.saturating_sub(offered);
        if shed > 0 {
            t.metrics.brownout_queries.inc();
            t.metrics.shed_repetitions.add(shed as u64);
        }

        // Deadline propagation: the remaining wall clock becomes the
        // ensemble budget, split across the offered repetitions, with the
        // brownout count as the decode-step cap.
        let remaining = deadline.saturating_sub(start.elapsed());
        let budget = QueryBudget {
            deadline: Some(remaining),
            per_shard_deadline: Some(remaining / offered.max(1) as u32),
            max_decode_steps: Some(offered),
        };
        let decode_span = dgs_trace::child("dgs_core_service_decode");
        let outcome = view.query(&budget, req.policy, Some(offered), &decode);
        decode_span.finish();
        let latency = start.elapsed();
        t.metrics.query_ns.record(latency.as_nanos() as u64);

        // Feedback: cost model, unconsumed-token refund, breaker.
        {
            let mut adm = lock_mutex(&t.admission);
            if outcome.consulted > 0 {
                let per = latency.as_nanos() as f64 / outcome.consulted as f64;
                adm.per_rep_cost_ns = 0.75 * adm.per_rep_cost_ns + 0.25 * per;
                let refund = (offered - outcome.consulted.min(offered)) as f64;
                adm.tokens = (adm.tokens + refund).min(self.cfg.quota.capacity);
            }
            if matches!(outcome.answer, SupervisedAnswer::DeadlineExceeded { .. }) {
                t.metrics.deadline_missed.inc();
                adm.consecutive_deadline += 1;
                if let Some(flight) = lock_read(&self.flight).as_ref() {
                    flight.record(
                        "deadline-exceeded",
                        &format!(
                            "tenant {tenant}: deadline {deadline:?} missed after consulting {}",
                            outcome.consulted
                        ),
                    );
                }
                if adm.consecutive_deadline >= self.cfg.breaker.trip_after {
                    adm.breaker_open_until = Some(Instant::now() + self.cfg.breaker.cooldown);
                    adm.consecutive_deadline = 0;
                    t.metrics.breaker_trips.inc();
                    if let Some(flight) = lock_read(&self.flight).as_ref() {
                        flight.record(
                            "breaker-open",
                            &format!(
                                "tenant {tenant}: breaker tripped after {} consecutive deadline misses",
                                self.cfg.breaker.trip_after
                            ),
                        );
                    }
                }
            } else {
                adm.consecutive_deadline = 0;
            }
        }

        match &outcome.answer {
            SupervisedAnswer::Full { .. } => t.metrics.answers_full.inc(),
            SupervisedAnswer::Degraded { .. } => t.metrics.answers_degraded.inc(),
            SupervisedAnswer::Unknown { .. } => t.metrics.answers_unknown.inc(),
            SupervisedAnswer::DeadlineExceeded { .. } => t.metrics.answers_deadline.inc(),
            SupervisedAnswer::Invalid(_) => t.metrics.answers_invalid.inc(),
        }

        Ok(QueryResponse {
            answer: outcome.answer,
            epoch: view.epoch(),
            offered_repetitions: offered,
            shed_repetitions: shed,
            consulted: outcome.consulted,
            latency,
        })
    }

    /// Shuts the service down, flushing and returning each tenant's
    /// ingestor (callers keep durability: WAL and checkpoints stay on
    /// disk regardless).
    pub fn finish(self) -> Result<Vec<(String, SupervisedIngestor<S>)>, ServiceError> {
        let map = self
            .tenants
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::with_capacity(map.len());
        for (name, tenant) in map {
            let tenant = match Arc::try_unwrap(tenant) {
                Ok(t) => t,
                Err(_) => return Err(ServiceError::TenantBusy(name)),
            };
            let mut ing = tenant
                .ingestor
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner);
            ing.flush()?;
            out.push((name, ing));
        }
        Ok(out)
    }
}

/// Refill the token bucket for the time elapsed since the last refill.
fn refill(adm: &mut AdmissionState, quota: &TokenBucketConfig, now: Instant) {
    let elapsed = now.saturating_duration_since(adm.last_refill);
    adm.tokens = (adm.tokens + elapsed.as_secs_f64() * quota.refill_per_sec).min(quota.capacity);
    adm.last_refill = now;
}

/// Admission, view, and tenant-map locks guard plain-data state that a
/// panicking holder cannot leave torn; recover from poison rather than
/// cascade the panic through the service.
fn lock_mutex<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn lock_read<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn lock_write<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::checkpoint::CheckpointConfig;
    use dgs_connectivity::{ForestParams, SpanningForestSketch};
    use dgs_field::prng::{SeedableRng, StdRng};
    use dgs_field::SeedTree;
    use dgs_hypergraph::generators::{churn_stream, gnp, ChurnConfig};
    use dgs_hypergraph::{EdgeSpace, Hypergraph};
    use dgs_sketch::Profile;

    const N: usize = 16;

    fn tmpdir(label: &str) -> PathBuf {
        static UNIQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dgs-svc-{label}-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn forest(i: usize) -> SpanningForestSketch {
        let space = EdgeSpace::graph(N).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        SpanningForestSketch::new_full(space, &SeedTree::new(4000 + i as u64), params)
    }

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
        assert!(s.updates.len() >= len);
        s.updates.truncate(len);
        s
    }

    fn sup_cfg(seed: u64) -> SupervisorConfig {
        SupervisorConfig {
            repetitions: 3,
            threads: 1,
            batch_size: 16,
            seed,
            checkpoint: CheckpointConfig {
                snapshot_interval: 64,
                ..CheckpointConfig::default()
            },
            ..SupervisorConfig::default()
        }
    }

    fn service_with_tenant(
        label: &str,
        cfg: ServiceConfig,
        seed: u64,
    ) -> (ConnectivityService<SpanningForestSketch>, PathBuf, PathBuf) {
        let wal = tmpdir(&format!("{label}-wal"));
        let snap = tmpdir(&format!("{label}-snap"));
        let svc = ConnectivityService::new(cfg);
        svc.add_tenant("t0", &wal, &snap, N, 2, sup_cfg(seed), forest)
            .unwrap();
        (svc, wal, snap)
    }

    fn components(_: usize, s: &SpanningForestSketch) -> SketchResult<u64> {
        s.try_component_count().map(|c| c as u64)
    }

    #[test]
    fn serves_queries_at_the_refreshed_epoch() {
        let cfg = ServiceConfig {
            refresh_interval: 64,
            ..ServiceConfig::default()
        };
        let (svc, wal, snap) = service_with_tenant("epoch", cfg, 11);
        let stream = workload(11, 200);
        svc.ingest_stream("t0", &stream).unwrap();
        let epoch = svc.refresh_view("t0").unwrap();
        assert_eq!(epoch, 200);
        let resp = svc
            .query("t0", &QueryRequest::default(), components)
            .unwrap();
        assert_eq!(resp.epoch, 200);
        assert!(resp.answer.is_answered(), "got {:?}", resp.answer);
        // Ground truth from a sequential replay of the same prefix.
        let mut reference = forest(0);
        for u in &stream.updates {
            reference.apply_update(u).unwrap();
        }
        assert_eq!(
            resp.answer.value().copied().unwrap(),
            reference.try_component_count().unwrap() as u64
        );
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    #[test]
    fn query_reads_frozen_view_not_live_ingest() {
        let cfg = ServiceConfig {
            refresh_interval: 0, // manual refresh only
            ..ServiceConfig::default()
        };
        let (svc, wal, snap) = service_with_tenant("frozen", cfg, 12);
        let stream = workload(12, 160);
        let half = UpdateStream {
            updates: stream.updates[..80].to_vec(),
            ..stream.clone()
        };
        svc.ingest_stream("t0", &half).unwrap();
        svc.refresh_view("t0").unwrap();
        let frozen = svc
            .query("t0", &QueryRequest::default(), components)
            .unwrap();
        // Keep ingesting past the view; the answer must not move.
        let rest = UpdateStream {
            updates: stream.updates[80..].to_vec(),
            ..stream.clone()
        };
        svc.ingest_stream("t0", &rest).unwrap();
        let still_frozen = svc
            .query("t0", &QueryRequest::default(), components)
            .unwrap();
        assert_eq!(frozen.epoch, 80);
        assert_eq!(still_frozen.epoch, 80);
        assert_eq!(frozen.answer, still_frozen.answer);
        assert_eq!(svc.ingested("t0").unwrap(), 160);
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    #[test]
    fn queue_overflow_is_a_typed_rejection() {
        let cfg = ServiceConfig {
            queue_capacity: 2,
            brownout: BrownoutConfig {
                start_depth: 8,
                min_repetitions: 1,
            },
            ..ServiceConfig::default()
        };
        let (svc, wal, snap) = service_with_tenant("queue", cfg, 13);
        svc.ingest_stream("t0", &workload(13, 96)).unwrap();
        svc.refresh_view("t0").unwrap();
        // Saturate the queue from inside a decode callback: while the
        // first query holds both slots' worth of stalled decodes, new
        // arrivals must be refused, not enqueued.
        let svc_ref = &svc;
        std::thread::scope(|scope| {
            let (started_tx, started_rx) = std::sync::mpsc::channel();
            let (release_tx, release_rx) = std::sync::mpsc::channel();
            for _ in 0..2 {
                let started = started_tx.clone();
                let release: std::sync::mpsc::Receiver<()> = {
                    let (tx, rx) = std::sync::mpsc::channel();
                    release_tx.send(tx).unwrap();
                    rx
                };
                scope.spawn(move || {
                    svc_ref
                        .query("t0", &QueryRequest::default(), |i, s| {
                            started.send(()).unwrap();
                            release.recv().ok();
                            components(i, s)
                        })
                        .unwrap();
                });
            }
            started_rx.recv().unwrap();
            started_rx.recv().unwrap();
            // Both slots busy: the third query is shed, typed.
            let err = svc_ref
                .query("t0", &QueryRequest::default(), components)
                .unwrap_err();
            match err {
                ServiceError::Overload(Overload::QueueFull { capacity, .. }) => {
                    assert_eq!(capacity, 2)
                }
                other => panic!("expected QueueFull, got {other:?}"),
            }
            // Release the stalled decodes.
            drop(release_tx);
            while let Ok(tx) = release_rx.recv() {
                let _ = tx.send(());
            }
        });
        assert_eq!(svc.queue_depth("t0").unwrap(), 0);
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    #[test]
    fn quota_exhaustion_is_typed_with_retry_after() {
        let cfg = ServiceConfig {
            quota: TokenBucketConfig {
                capacity: 3.0,
                refill_per_sec: 0.001, // effectively no refill in-test
            },
            ..ServiceConfig::default()
        };
        let (svc, wal, snap) = service_with_tenant("quota", cfg, 14);
        svc.ingest_stream("t0", &workload(14, 96)).unwrap();
        svc.refresh_view("t0").unwrap();
        // Each FirstSuccess query charges up to 3 tokens (R = 3) and
        // refunds unconsulted ones; burn the bucket with Majority queries
        // which consult all three.
        let req = QueryRequest {
            policy: QueryPolicy::Majority,
            ..QueryRequest::default()
        };
        let first = svc.query("t0", &req, components).unwrap();
        assert_eq!(first.consulted, 3);
        let err = svc.query("t0", &req, components).unwrap_err();
        match err {
            ServiceError::Overload(Overload::QuotaExhausted { retry_after }) => {
                assert!(retry_after > Duration::ZERO)
            }
            other => panic!("expected QuotaExhausted, got {other:?}"),
        }
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    #[test]
    fn brownout_sheds_repetitions_and_reports_degraded() {
        let cfg = ServiceConfig {
            queue_capacity: 8,
            brownout: BrownoutConfig {
                start_depth: 0, // every concurrent query sheds
                min_repetitions: 1,
            },
            ..ServiceConfig::default()
        };
        let (svc, wal, snap) = service_with_tenant("brownout", cfg, 15);
        svc.ingest_stream("t0", &workload(15, 96)).unwrap();
        svc.refresh_view("t0").unwrap();
        // Hold one query in flight so the next admits at depth 1 and
        // sheds one repetition: R′ = 2 of R = 3.
        let svc_ref = &svc;
        std::thread::scope(|scope| {
            let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
            let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
            scope.spawn(move || {
                svc_ref
                    .query("t0", &QueryRequest::default(), |i, s| {
                        started_tx.send(()).unwrap();
                        release_rx.recv().ok();
                        components(i, s)
                    })
                    .unwrap();
            });
            started_rx.recv().unwrap();
            let resp = svc_ref
                .query("t0", &QueryRequest::default(), components)
                .unwrap();
            assert_eq!(resp.offered_repetitions, 2);
            assert_eq!(resp.shed_repetitions, 1);
            match &resp.answer {
                SupervisedAnswer::Degraded {
                    healthy_repetitions,
                    total_repetitions,
                    effective_delta,
                    ..
                } => {
                    assert_eq!(*healthy_repetitions, 2);
                    assert_eq!(*total_repetitions, 3);
                    assert!((effective_delta - 0.5f64.powi(2)).abs() < 1e-12);
                }
                other => panic!("expected Degraded, got {other:?}"),
            }
            release_tx.send(()).unwrap();
        });
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    #[test]
    fn breaker_trips_on_repeated_deadline_misses() {
        let cfg = ServiceConfig {
            breaker: BreakerConfig {
                trip_after: 2,
                cooldown: Duration::from_secs(30),
            },
            // Keep the cost model from rejecting the doomed queries up
            // front: the point here is the breaker.
            initial_cost_ns: 1,
            ..ServiceConfig::default()
        };
        let (svc, wal, snap) = service_with_tenant("breaker", cfg, 16);
        svc.ingest_stream("t0", &workload(16, 96)).unwrap();
        svc.refresh_view("t0").unwrap();
        // 100ns: generous enough for the cost gate (fit >= 1 with the
        // 1ns prior) but long gone by the time the ensemble budget is
        // checked — a guaranteed honest DeadlineExceeded.
        let req = QueryRequest {
            deadline: Some(Duration::from_nanos(100)),
            ..QueryRequest::default()
        };
        for _ in 0..2 {
            let resp = svc.query("t0", &req, components).unwrap();
            assert!(
                matches!(resp.answer, SupervisedAnswer::DeadlineExceeded { .. }),
                "got {:?}",
                resp.answer
            );
        }
        let err = svc.query("t0", &QueryRequest::default(), components);
        match err {
            Err(ServiceError::Overload(Overload::CircuitOpen { retry_after })) => {
                assert!(retry_after > Duration::ZERO)
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    #[test]
    fn metrics_expose_admission_verdicts() {
        let registry = dgs_obs::Registry::new();
        let cfg = ServiceConfig {
            quota: TokenBucketConfig {
                capacity: 3.0,
                refill_per_sec: 0.001,
            },
            ..ServiceConfig::default()
        };
        let wal = tmpdir("metrics-wal");
        let snap = tmpdir("metrics-snap");
        let svc: ConnectivityService<SpanningForestSketch> =
            ConnectivityService::with_sink(cfg, &registry.sink());
        svc.add_tenant("t0", &wal, &snap, N, 2, sup_cfg(17), forest)
            .unwrap();
        svc.ingest_stream("t0", &workload(17, 96)).unwrap();
        svc.refresh_view("t0").unwrap();
        let req = QueryRequest {
            policy: QueryPolicy::Majority,
            ..QueryRequest::default()
        };
        svc.query("t0", &req, components).unwrap();
        let _ = svc.query("t0", &req, components);
        assert_eq!(
            registry.counter_value("dgs_core_service_admitted{tenant=\"t0\"}"),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("dgs_core_service_rejected_quota{tenant=\"t0\"}"),
            Some(1)
        );
        let stats = registry
            .histogram_stats("dgs_core_service_query_ns{tenant=\"t0\"}")
            .unwrap();
        assert_eq!(stats.count, 1);
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    #[test]
    fn cost_model_rejects_a_doomed_query_before_decode_and_charge() {
        let registry = dgs_obs::Registry::new();
        let cfg = ServiceConfig {
            quota: TokenBucketConfig {
                capacity: 3.0,
                refill_per_sec: 0.001,
            },
            ..ServiceConfig::default()
        };
        let wal = tmpdir("cost-wal");
        let snap = tmpdir("cost-snap");
        let svc: ConnectivityService<SpanningForestSketch> =
            ConnectivityService::with_sink(cfg, &registry.sink());
        svc.add_tenant("t0", &wal, &snap, N, 2, sup_cfg(18), forest)
            .unwrap();
        svc.ingest_stream("t0", &workload(18, 96)).unwrap();
        svc.refresh_view("t0").unwrap();
        // 0.8 x 100 us of headroom cannot fit one decode at the default
        // 200 us prior.
        let doomed = QueryRequest {
            deadline: Some(Duration::from_micros(100)),
            ..QueryRequest::default()
        };
        let decodes = AtomicUsize::new(0);
        let err = svc
            .query("t0", &doomed, |i, s| {
                decodes.fetch_add(1, Ordering::Relaxed);
                components(i, s)
            })
            .unwrap_err();
        match err {
            ServiceError::Overload(Overload::CostRejected {
                estimated,
                deadline,
            }) => {
                assert_eq!(estimated, Duration::from_micros(200));
                assert_eq!(deadline, Duration::from_micros(100));
            }
            other => panic!("expected CostRejected, got {other:?}"),
        }
        assert_eq!(
            decodes.load(Ordering::Relaxed),
            0,
            "a rejected query decoded"
        );
        assert_eq!(
            registry.counter_value("dgs_core_service_rejected_cost{tenant=\"t0\"}"),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("dgs_core_service_admitted{tenant=\"t0\"}"),
            Some(0)
        );
        // No token was charged: a Majority query still affords all three.
        let req = QueryRequest {
            policy: QueryPolicy::Majority,
            ..QueryRequest::default()
        };
        assert_eq!(svc.query("t0", &req, components).unwrap().consulted, 3);
        std::fs::remove_dir_all(&wal).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    #[test]
    fn unknown_and_duplicate_tenants_are_typed() {
        let (svc, wal, snap) = service_with_tenant("names", ServiceConfig::default(), 18);
        assert!(matches!(
            svc.query("ghost", &QueryRequest::default(), components),
            Err(ServiceError::UnknownTenant(_))
        ));
        let wal2 = tmpdir("names-wal2");
        let snap2 = tmpdir("names-snap2");
        assert!(matches!(
            svc.add_tenant("t0", &wal2, &snap2, N, 2, sup_cfg(18), forest),
            Err(ServiceError::DuplicateTenant(_))
        ));
        // The rejected add left no WAL behind, so the directories stay
        // free for a tenant with a fresh name.
        assert!(!wal2.join("seg-00000000.wal").exists());
        svc.add_tenant("t1", &wal2, &snap2, N, 2, sup_cfg(18), forest)
            .unwrap();
        assert_eq!(svc.tenants(), ["t0", "t1"]);
        for d in [&wal, &snap, &wal2, &snap2] {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}
