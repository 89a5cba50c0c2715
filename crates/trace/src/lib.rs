//! # dgs-trace: request-scoped trace context for the dynamic-graph-streams stack
//!
//! `dgs-obs` answers *how much / how often*; this crate answers *why was this
//! particular request slow or failed*. A [`Tracer`] allocates a
//! `TraceId`/`SpanId` pair when a request is admitted ([`Tracer::root`]) and
//! installs it as **ambient context** in a thread-local, so the layers the
//! request flows through — overload ladder, shard consultation, decode
//! phases — attach child spans with the free functions [`child`], [`mark`],
//! and [`phase`] without any plumbing through their signatures.
//!
//! ## Pay for what you use
//!
//! Components that never see a live tracer pay one thread-local read plus a
//! branch per instrumentation point: with no ambient trace, [`child`]
//! returns an inert guard and [`mark`]/[`phase`] return immediately, with no
//! allocation and no atomics (verified by the no-alloc test). This mirrors
//! the `dgs-obs` null-sink contract, which is why the layering check keeps
//! `dgs-pool`/`dgs-field` free of this crate — worker threads below the
//! request layer never carry ambient context.
//!
//! ## Recording
//!
//! Completed spans are recorded into **per-thread seqlock ring buffers**
//! (the private `ring` module): the owning thread writes lock-free and allocation-free;
//! [`Tracer::snapshot`] reads all rings from any thread, detecting (not
//! absorbing) torn slots and counting wraparound evictions. A
//! [`TraceSnapshot`] reconstructs span trees, finds orphans, and computes
//! [`Exemplar`] links — for each `(span name, histogram bucket)` pair the
//! slowest trace that landed in that bucket — tying the `dgs-obs` latency
//! histograms back to concrete `TraceId`s with zero hot-path cost.
//!
//! ## Flight recorder
//!
//! [`FlightRecorder`] freezes the last N events plus the offending request's
//! span tree into a checksum-framed postmortem file whenever a typed failure
//! fires (shard quarantine, scrub hit, deadline, breaker open). See
//! [`postmortem`].

// Tracing must never take the process down; locks recover from poisoning
// and all fallible paths return Options/Results.
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod ring;

pub mod postmortem;

pub use postmortem::{FlightRecorder, PmEvent, Postmortem, PostmortemError};

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use dgs_obs::{bucket_index, bucket_upper_edge, Counter, MetricsSink};
use ring::{ThreadRing, WORDS};

/// One completed span or point event, as read back from a snapshot.
///
/// `parent_span_id == 0` marks a root span. `start_ns` is the offset from
/// the tracer's construction instant, so events from different threads share
/// one timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub name: &'static str,
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_span_id: u64,
    pub start_ns: u64,
    pub duration_ns: u64,
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Debug)]
struct TracerInner {
    /// Globally unique per tracer; keys the per-thread ring cache.
    id: u64,
    /// Per-thread ring capacity in events.
    capacity: usize,
    epoch: Instant,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    /// Every ring ever handed to a recording thread, for snapshotting.
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    /// Intern table: rings store `u32` indices, snapshots resolve them back.
    names: Mutex<Vec<&'static str>>,
    events: Counter,
    roots_started: Counter,
}

/// Allocates trace/span ids and owns the per-thread event rings.
///
/// Cheap to clone (an `Arc` bump). Constructed with [`Tracer::new`] for a
/// metrics-free tracer or [`Tracer::with_sink`] to export `dgs_trace_*`
/// counters alongside.
#[derive(Clone, Debug)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

struct ActiveTrace {
    inner: Arc<TracerInner>,
    trace_id: u64,
    /// Span-id path from the root to the innermost open span.
    stack: Vec<u64>,
}

struct ThreadEntry {
    tracer_id: u64,
    ring: Arc<ThreadRing>,
    /// Thread-local mirror of the tracer's intern table (index-aligned
    /// prefix), so the common-case name lookup takes no lock.
    names: Vec<&'static str>,
}

thread_local! {
    /// Stack of ambient traces (stacked roots nest; innermost wins).
    static ACTIVE: RefCell<Vec<ActiveTrace>> = const { RefCell::new(Vec::new()) };
    /// This thread's rings, one per tracer it has recorded into.
    static RINGS: RefCell<Vec<ThreadEntry>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// A tracer whose per-thread rings retain the last `capacity` events
    /// each (floored at 16). No metrics are exported.
    pub fn new(capacity: usize) -> Tracer {
        Tracer::with_sink(capacity, &MetricsSink::null())
    }

    /// Like [`Tracer::new`], additionally exporting `dgs_trace_events` and
    /// `dgs_trace_roots` counters through `sink`.
    pub fn with_sink(capacity: usize, sink: &MetricsSink) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                id: NEXT_TRACER_ID.fetch_add(1, Relaxed),
                capacity: capacity.max(16),
                epoch: Instant::now(),
                next_trace: AtomicU64::new(1),
                next_span: AtomicU64::new(1),
                rings: Mutex::new(Vec::new()),
                names: Mutex::new(Vec::new()),
                events: sink.counter("dgs_trace_events"),
                roots_started: sink.counter("dgs_trace_roots"),
            }),
        }
    }

    /// Open a root span and install it as this thread's ambient trace
    /// context. Every subsequent [`child`]/[`mark`]/[`phase`] on this thread
    /// attaches to it until the returned guard drops. Roots nest: a new root
    /// shadows the previous context and restores it on drop.
    pub fn root(&self, name: &'static str) -> RootSpan {
        let trace_id = self.inner.next_trace.fetch_add(1, Relaxed);
        let span_id = self.inner.next_span.fetch_add(1, Relaxed);
        self.inner.roots_started.inc();
        let start = Instant::now();
        let start_ns = start.duration_since(self.inner.epoch).as_nanos() as u64;
        ACTIVE.with(|a| {
            a.borrow_mut().push(ActiveTrace {
                inner: Arc::clone(&self.inner),
                trace_id,
                stack: vec![span_id],
            })
        });
        RootSpan {
            inner: Arc::clone(&self.inner),
            name,
            trace_id,
            span_id,
            start,
            start_ns,
        }
    }

    /// Read every thread's ring into one consistent, time-sorted snapshot.
    pub fn snapshot(&self) -> TraceSnapshot {
        let rings: Vec<Arc<ThreadRing>> = self
            .inner
            .rings
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let mut raw: Vec<[u64; WORDS]> = Vec::new();
        let mut evicted = 0u64;
        let mut torn = 0u64;
        for ring in &rings {
            let (e, t) = ring.read_into(&mut raw);
            evicted += e;
            torn += t;
        }
        // Read the intern table *after* the rings: a name is interned before
        // its event is pushed, so every index read above resolves.
        let names: Vec<&'static str> = self
            .inner
            .names
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let mut events = Vec::with_capacity(raw.len());
        for w in raw {
            match names.get(w[0] as usize) {
                Some(name) => events.push(TraceEvent {
                    name,
                    trace_id: w[1],
                    span_id: w[2],
                    parent_span_id: w[3],
                    start_ns: w[4],
                    duration_ns: w[5],
                }),
                None => torn += 1,
            }
        }
        events.sort_by_key(|e| (e.start_ns, e.span_id));
        TraceSnapshot {
            events,
            evicted,
            torn,
        }
    }

    /// Total events recorded (only when built via [`Tracer::with_sink`]).
    pub fn events_recorded(&self) -> u64 {
        self.inner.events.get()
    }
}

impl TracerInner {
    fn now_ns(&self) -> u64 {
        Instant::now().duration_since(self.epoch).as_nanos() as u64
    }

    fn intern(self: &Arc<Self>, entry: &mut ThreadEntry, name: &'static str) -> u64 {
        if let Some(i) = entry
            .names
            .iter()
            .position(|n| std::ptr::eq(*n, name) || *n == name)
        {
            return i as u64;
        }
        let mut names = self.names.lock().unwrap_or_else(PoisonError::into_inner);
        let idx = match names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                names.push(name);
                names.len() - 1
            }
        };
        entry.names.clear();
        entry.names.extend_from_slice(&names);
        idx as u64
    }

    /// Record one event into this thread's ring for this tracer, creating
    /// and registering the ring on first use.
    fn push_event(self: &Arc<Self>, name: &'static str, tail: [u64; 5]) {
        RINGS.with(|r| {
            let mut rings = r.borrow_mut();
            let pos = match rings.iter().position(|e| e.tracer_id == self.id) {
                Some(p) => p,
                None => {
                    let ring = Arc::new(ThreadRing::new(self.capacity));
                    self.rings
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(Arc::clone(&ring));
                    rings.push(ThreadEntry {
                        tracer_id: self.id,
                        ring,
                        names: Vec::new(),
                    });
                    rings.len() - 1
                }
            };
            let entry = &mut rings[pos];
            let name_idx = self.intern(entry, name);
            entry
                .ring
                .push([name_idx, tail[0], tail[1], tail[2], tail[3], tail[4]]);
        });
        self.events.inc();
    }
}

/// Guard for a root span; see [`Tracer::root`]. Dropping it records the root
/// event and restores the previously ambient context (if any).
#[derive(Debug)]
pub struct RootSpan {
    inner: Arc<TracerInner>,
    name: &'static str,
    trace_id: u64,
    span_id: u64,
    start: Instant,
    start_ns: u64,
}

impl RootSpan {
    /// The trace id every descendant span shares — quote it in answers or
    /// logs so a postmortem can be matched back to the request.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Finish now; equivalent to dropping the guard.
    pub fn finish(self) {}
}

impl Drop for RootSpan {
    fn drop(&mut self) {
        let duration_ns = self.start.elapsed().as_nanos() as u64;
        ACTIVE.with(|a| {
            let mut act = a.borrow_mut();
            // Defensive: only pop our own context (mismatched drop order of
            // nested roots must not corrupt an unrelated trace).
            if act
                .last()
                .is_some_and(|t| t.trace_id == self.trace_id && Arc::ptr_eq(&t.inner, &self.inner))
            {
                act.pop();
            }
        });
        self.inner.push_event(
            self.name,
            [self.trace_id, self.span_id, 0, self.start_ns, duration_ns],
        );
    }
}

struct ChildCtx {
    inner: Arc<TracerInner>,
    name: &'static str,
    trace_id: u64,
    span_id: u64,
    parent: u64,
    start: Instant,
    start_ns: u64,
}

/// Guard for a child span; see [`child`]. Inert (zero-cost drop) when opened
/// with no ambient trace.
pub struct ChildSpan {
    ctx: Option<ChildCtx>,
}

impl ChildSpan {
    /// True when attached to a live ambient trace.
    pub fn is_live(&self) -> bool {
        self.ctx.is_some()
    }

    /// Finish now; equivalent to dropping the guard.
    pub fn finish(self) {}
}

impl Drop for ChildSpan {
    fn drop(&mut self) {
        let Some(ctx) = self.ctx.take() else { return };
        let duration_ns = ctx.start.elapsed().as_nanos() as u64;
        ACTIVE.with(|a| {
            let mut act = a.borrow_mut();
            if let Some(top) = act.last_mut() {
                if top.trace_id == ctx.trace_id && top.stack.last() == Some(&ctx.span_id) {
                    top.stack.pop();
                }
            }
        });
        ctx.inner.push_event(
            ctx.name,
            [
                ctx.trace_id,
                ctx.span_id,
                ctx.parent,
                ctx.start_ns,
                duration_ns,
            ],
        );
    }
}

/// Open a child span under the ambient trace, or an inert guard when the
/// current thread has none (e.g. pool workers below the request layer).
pub fn child(name: &'static str) -> ChildSpan {
    ACTIVE.with(|a| {
        let mut act = a.borrow_mut();
        let Some(top) = act.last_mut() else {
            return ChildSpan { ctx: None };
        };
        let parent = top.stack.last().copied().unwrap_or(0);
        let span_id = top.inner.next_span.fetch_add(1, Relaxed);
        top.stack.push(span_id);
        let inner = Arc::clone(&top.inner);
        let trace_id = top.trace_id;
        drop(act);
        let start = Instant::now();
        let start_ns = start.duration_since(inner.epoch).as_nanos() as u64;
        ChildSpan {
            ctx: Some(ChildCtx {
                inner,
                name,
                trace_id,
                span_id,
                parent,
                start,
                start_ns,
            }),
        }
    })
}

fn ambient() -> Option<(Arc<TracerInner>, u64, u64)> {
    ACTIVE.with(|a| {
        let act = a.borrow();
        let top = act.last()?;
        Some((
            Arc::clone(&top.inner),
            top.trace_id,
            top.stack.last().copied().unwrap_or(0),
        ))
    })
}

/// Record a zero-duration point event (a rejection, a fault firing) under
/// the ambient trace. No-op without one.
pub fn mark(name: &'static str) {
    let Some((inner, trace_id, parent)) = ambient() else {
        return;
    };
    let span_id = inner.next_span.fetch_add(1, Relaxed);
    let now = inner.now_ns();
    inner.push_event(name, [trace_id, span_id, parent, now, 0]);
}

/// Record a phase that ended *now* with an externally measured duration
/// (e.g. the decode aggregate/sample/merge phases, whose per-stripe times
/// are folded on the caller thread). No-op without an ambient trace.
pub fn phase(name: &'static str, duration_ns: u64) {
    let Some((inner, trace_id, parent)) = ambient() else {
        return;
    };
    let span_id = inner.next_span.fetch_add(1, Relaxed);
    let now = inner.now_ns();
    inner.push_event(
        name,
        [
            trace_id,
            span_id,
            parent,
            now.saturating_sub(duration_ns),
            duration_ns,
        ],
    );
}

/// The ambient trace id, or 0 when the current thread carries none.
pub fn current_trace_id() -> u64 {
    ACTIVE.with(|a| a.borrow().last().map_or(0, |t| t.trace_id))
}

/// An exemplar links one histogram bucket of a span family to the slowest
/// concrete trace observed in it — the "which request was that?" pointer
/// from aggregate latency to causal record.
#[derive(Clone, Copy, Debug)]
pub struct Exemplar {
    pub name: &'static str,
    /// Bucket index per [`dgs_obs::bucket_index`] of the duration.
    pub bucket: usize,
    /// Inclusive upper edge of that bucket in nanoseconds.
    pub bucket_upper_ns: u64,
    pub trace_id: u64,
    pub span_id: u64,
    pub duration_ns: u64,
}

/// Consistent point-in-time view of every thread's ring; see
/// [`Tracer::snapshot`].
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// All retained events, sorted by `(start_ns, span_id)`.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wraparound before this snapshot.
    pub evicted: u64,
    /// Slots skipped because a writer was mid-overwrite (plus any events
    /// whose interned name could not be resolved).
    pub torn: u64,
}

impl TraceSnapshot {
    /// Root events (`parent_span_id == 0`), oldest first.
    pub fn roots(&self) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.parent_span_id == 0)
            .collect()
    }

    /// Every event of one trace, oldest first.
    pub fn trace(&self, trace_id: u64) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.trace_id == trace_id)
            .copied()
            .collect()
    }

    /// Events whose parent span is absent from the snapshot. Structurally
    /// impossible while nothing is evicted (children are recorded before
    /// their parents on the same ring), so any orphan indicates eviction
    /// mid-trace or a protocol bug — E22 asserts there are none.
    pub fn orphans(&self) -> Vec<&TraceEvent> {
        let present: BTreeSet<(u64, u64)> = self
            .events
            .iter()
            .map(|e| (e.trace_id, e.span_id))
            .collect();
        self.events
            .iter()
            .filter(|e| e.parent_span_id != 0 && !present.contains(&(e.trace_id, e.parent_span_id)))
            .collect()
    }

    /// Exemplar per `(name, latency bucket)`: the slowest event that landed
    /// in that bucket. Computed entirely at snapshot time, so linking traces
    /// to the `dgs-obs` histogram buckets costs the hot path nothing.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let mut best: BTreeMap<(&'static str, usize), &TraceEvent> = BTreeMap::new();
        for e in &self.events {
            let key = (e.name, bucket_index(e.duration_ns));
            match best.get(&key) {
                Some(prev) if prev.duration_ns >= e.duration_ns => {}
                _ => {
                    best.insert(key, e);
                }
            }
        }
        best.into_iter()
            .map(|((name, bucket), e)| Exemplar {
                name,
                bucket,
                bucket_upper_ns: bucket_upper_edge(bucket),
                trace_id: e.trace_id,
                span_id: e.span_id,
                duration_ns: e.duration_ns,
            })
            .collect()
    }

    /// Render one trace as an indented span tree (children under parents,
    /// point events as leaves).
    pub fn render_tree(&self, trace_id: u64) -> String {
        let rows: Vec<SpanRow> = self
            .trace(trace_id)
            .iter()
            .map(|e| {
                (
                    e.span_id,
                    e.parent_span_id,
                    e.name.to_string(),
                    e.start_ns,
                    e.duration_ns,
                )
            })
            .collect();
        render_span_tree(trace_id, &rows)
    }
}

/// A renderable span row: `(span_id, parent_span_id, name, start_ns,
/// duration_ns)`.
pub(crate) type SpanRow = (u64, u64, String, u64, u64);

/// Shared tree renderer over [`SpanRow`]s; used by both snapshots and
/// postmortem files.
pub(crate) fn render_span_tree(trace_id: u64, rows: &[SpanRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "trace {trace_id} ({} spans)", rows.len());
    let present: BTreeSet<u64> = rows.iter().map(|r| r.0).collect();
    // Children sorted by start time under each parent; spans whose parent is
    // missing (evicted) surface at the top level, flagged as orphans.
    let mut children: BTreeMap<u64, Vec<&SpanRow>> = BTreeMap::new();
    let mut tops: Vec<(&SpanRow, bool)> = Vec::new();
    for row in rows {
        if row.1 != 0 && present.contains(&row.1) {
            children.entry(row.1).or_default().push(row);
        } else {
            tops.push((row, row.1 != 0));
        }
    }
    for v in children.values_mut() {
        v.sort_by_key(|r| (r.3, r.0));
    }
    tops.sort_by_key(|(r, _)| (r.3, r.0));
    // Iterative depth-first walk (explicit stack, newest first so pops come
    // out in start order).
    let mut stack: Vec<(&SpanRow, usize, bool)> = Vec::new();
    for &(row, orphan) in tops.iter().rev() {
        stack.push((row, 0, orphan));
    }
    while let Some((row, depth, orphan)) = stack.pop() {
        let indent = "  ".repeat(depth);
        let flag = if orphan { " [orphan]" } else { "" };
        let _ = writeln!(
            out,
            "{indent}{} span={} start={}ns dur={}ns{flag}",
            row.2, row.0, row.3, row.4
        );
        if let Some(kids) = children.get(&row.0) {
            for kid in kids.iter().rev() {
                stack.push((kid, depth + 1, false));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use dgs_obs::Registry;

    #[test]
    fn root_children_marks_nest_into_one_trace() {
        let tracer = Tracer::new(256);
        let trace_id;
        {
            let root = tracer.root("request");
            trace_id = root.trace_id();
            {
                let _decode = child("decode");
                mark("fault-fired");
                phase("aggregate", 1_000);
            }
            let _other = child("feedback");
        }
        let snap = tracer.snapshot();
        assert_eq!(snap.evicted, 0);
        assert_eq!(snap.torn, 0);
        assert_eq!(snap.events.len(), 5);
        let roots = snap.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "request");
        assert_eq!(roots[0].trace_id, trace_id);
        assert!(snap.events.iter().all(|e| e.trace_id == trace_id));
        assert!(snap.orphans().is_empty());
        // mark/phase attach under the decode child, not the root.
        let decode = snap.events.iter().find(|e| e.name == "decode").unwrap();
        let fault = snap
            .events
            .iter()
            .find(|e| e.name == "fault-fired")
            .unwrap();
        let agg = snap.events.iter().find(|e| e.name == "aggregate").unwrap();
        assert_eq!(fault.parent_span_id, decode.span_id);
        assert_eq!(agg.parent_span_id, decode.span_id);
        assert_eq!(decode.parent_span_id, roots[0].span_id);
        let tree = snap.render_tree(trace_id);
        assert!(tree.contains("request"));
        assert!(tree.contains("  decode"));
        assert!(tree.contains("    fault-fired"));
    }

    #[test]
    fn no_ambient_context_is_inert() {
        let tracer = Tracer::new(64);
        {
            let c = child("stray");
            assert!(!c.is_live());
        }
        mark("stray-mark");
        phase("stray-phase", 10);
        assert_eq!(current_trace_id(), 0);
        assert!(tracer.snapshot().events.is_empty());
    }

    #[test]
    fn nested_roots_shadow_and_restore() {
        let tracer = Tracer::new(64);
        let outer = tracer.root("outer");
        let outer_id = outer.trace_id();
        {
            let inner = tracer.root("inner");
            assert_eq!(current_trace_id(), inner.trace_id());
            let _c = child("inner-work");
        }
        assert_eq!(current_trace_id(), outer_id);
        drop(outer);
        assert_eq!(current_trace_id(), 0);
        let snap = tracer.snapshot();
        let inner_work = snap.events.iter().find(|e| e.name == "inner-work").unwrap();
        let inner_root = snap.events.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(inner_work.trace_id, inner_root.trace_id);
        assert_ne!(inner_work.trace_id, outer_id);
    }

    #[test]
    fn distinct_trace_ids_and_metrics() {
        let reg = Registry::new();
        let tracer = Tracer::with_sink(128, &reg.sink());
        let mut ids = BTreeSet::new();
        for _ in 0..10 {
            let root = tracer.root("req");
            ids.insert(root.trace_id());
        }
        assert_eq!(ids.len(), 10);
        assert_eq!(reg.counter_value("dgs_trace_roots"), Some(10));
        assert_eq!(reg.counter_value("dgs_trace_events"), Some(10));
        assert_eq!(tracer.events_recorded(), 10);
    }

    #[test]
    fn ring_eviction_is_counted() {
        let tracer = Tracer::new(16);
        for _ in 0..40 {
            tracer.root("r").finish();
        }
        let snap = tracer.snapshot();
        assert_eq!(snap.events.len(), 16);
        assert_eq!(snap.evicted, 24);
    }

    #[test]
    fn threads_record_into_separate_rings() {
        let tracer = Tracer::new(256);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = tracer.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let _root = t.root("worker-request");
                        let _c = child("step");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = tracer.snapshot();
        assert_eq!(snap.evicted, 0);
        assert_eq!(snap.torn, 0);
        assert_eq!(snap.events.len(), 4 * 50 * 2);
        assert_eq!(snap.roots().len(), 4 * 50);
        assert!(snap.orphans().is_empty());
        let ids: BTreeSet<u64> = snap.events.iter().map(|e| e.trace_id).collect();
        assert_eq!(ids.len(), 4 * 50, "trace ids must be globally unique");
    }

    #[test]
    fn exemplars_link_buckets_to_slowest_trace() {
        let snap = TraceSnapshot {
            events: vec![
                TraceEvent {
                    name: "q",
                    trace_id: 1,
                    span_id: 1,
                    parent_span_id: 0,
                    start_ns: 0,
                    duration_ns: 100,
                },
                TraceEvent {
                    name: "q",
                    trace_id: 2,
                    span_id: 2,
                    parent_span_id: 0,
                    start_ns: 5,
                    duration_ns: 110,
                },
                TraceEvent {
                    name: "q",
                    trace_id: 3,
                    span_id: 3,
                    parent_span_id: 0,
                    start_ns: 9,
                    duration_ns: 1_000_000,
                },
            ],
            evicted: 0,
            torn: 0,
        };
        let ex = snap.exemplars();
        // 100 and 110 share a ~25%-wide bucket; the slower one wins it.
        let slow_bucket = ex
            .iter()
            .find(|x| x.bucket == bucket_index(110))
            .expect("bucket exemplar");
        assert_eq!(slow_bucket.trace_id, 2);
        assert!(ex.iter().any(|x| x.trace_id == 3));
        for x in &ex {
            assert!(x.duration_ns <= x.bucket_upper_ns);
        }
    }

    #[test]
    fn synthetic_orphans_are_detected() {
        let snap = TraceSnapshot {
            events: vec![
                TraceEvent {
                    name: "root",
                    trace_id: 7,
                    span_id: 1,
                    parent_span_id: 0,
                    start_ns: 0,
                    duration_ns: 10,
                },
                TraceEvent {
                    name: "lost-parent-child",
                    trace_id: 7,
                    span_id: 3,
                    parent_span_id: 2,
                    start_ns: 1,
                    duration_ns: 1,
                },
            ],
            evicted: 1,
            torn: 0,
        };
        let orphans = snap.orphans();
        assert_eq!(orphans.len(), 1);
        assert_eq!(orphans[0].span_id, 3);
        assert!(snap.render_tree(7).contains("[orphan]"));
    }
}
