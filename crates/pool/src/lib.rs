//! One striping primitive for every parallel section of the workspace.
//!
//! [`stripe`] runs a closure on every item of a slice, cut into contiguous
//! runs across a persistent sticky worker pool, and returns the results in
//! item order. Its callers stripe *independent* linear pieces — boosted
//! repetitions in `dgs-core`'s batch apply and supervised flush, component
//! slots of a forest sketch's decode, the later layers of a k-skeleton
//! that each recovered forest is peeled from, and the vertex-sampled
//! subgraphs of a vertex-connectivity certificate — so the striping cannot
//! change a bit.
//!
//! The pool exists because spawning fresh scoped threads per call has two
//! costs that eat the parallel win on real streams:
//!
//! 1. **Spawn latency** — a batch is a few hundred microseconds of apply
//!    work; creating and joining OS threads costs a meaningful fraction of
//!    that, every single flush.
//! 2. **Cache migration** — a freshly spawned thread lands on whatever core
//!    the scheduler picks, so the sketch rows a stripe touched last batch
//!    are cold again this batch.
//!
//! Workers are spawned **once** per calling thread and cached for its
//! lifetime; run `t` always goes to worker `t`, so a worker re-touches the
//! same state call after call and keeps it hot in its core's cache. Each
//! worker is fed through an in-tree single-producer/single-consumer ring
//! mailbox — no external channel crate, no shared run queue to contend on.
//! A scope's drain barrier does not return until every job submitted in it
//! has completed, so jobs may borrow `&mut` state from the caller's stack
//! exactly like the standard library's scoped threads.
//!
//! Determinism: the pool adds none of its own. A job runs exactly the
//! closure it was handed; which OS core runs a worker affects timing only,
//! and every item is owned by exactly one job per call.
//!
//! Panics: a panic in one item's closure is caught and becomes that item's
//! `panicked(item)` result, at every thread count; its stripe-mates still
//! run, and the caller never unwinds.

// The pool sits under every supervised ingest path: it must degrade through
// typed errors or clean panics it explicitly chooses, never an incidental
// `unwrap` (matching the supervised-core clippy gate).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use dgs_obs::{Counter, Gauge, Histogram, MetricsSink};

/// A type-erased job. Jobs cross the mailbox as `'static` boxes; the only
/// way to submit a non-`'static` job is [`PoolScope::spawn`], whose barrier
/// guarantees the borrow outlives the job (see the safety comment there).
type Job = Box<dyn FnOnce() + Send + 'static>;

enum Msg {
    Run(Job),
    Shutdown,
}

/// Locks a mutex, riding through poisoning: a poisoned pool mutex means a
/// *worker* panicked mid-job; the panic is already recorded in the scope
/// state and re-raised at the barrier, so the lock data (pure signalling,
/// no invariants) is still safe to use.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Bounded single-producer/single-consumer ring of job messages.
///
/// The producer side is serialized by the pool (one scope at a time holds
/// the producer lock), the consumer is the one worker thread that owns the
/// mailbox — so `head` is written only by the consumer and `tail` only by
/// the producer, and a slot is touched by the producer strictly before the
/// `tail` release-store that publishes it and by the consumer strictly
/// after the acquire-load that observes it.
struct Ring {
    slots: Box<[UnsafeCell<Option<Msg>>]>,
    /// Next slot the consumer will take (monotone, wraps mod capacity).
    head: AtomicUsize,
    /// Next slot the producer will fill.
    tail: AtomicUsize,
}

// SAFETY: the SPSC discipline above means no slot is ever accessed
// concurrently from both sides; the atomics order the handoff.
unsafe impl Sync for Ring {}

/// Per-worker observability handles. Default (null) handles make every
/// operation a no-op, so an unattached pool pays only the mutex clone.
#[derive(Clone, Debug, Default)]
struct WorkerMetrics {
    /// Jobs queued in this worker's mailbox, not yet dequeued.
    depth: Gauge,
    /// Wall time per executed job, nanoseconds.
    busy_ns: Histogram,
    /// Running→waiting transitions (the worker went to sleep empty).
    parks: Counter,
    /// Wakeups that found work after having parked.
    unparks: Counter,
}

struct Mailbox {
    ring: Ring,
    /// Parking lot for the consumer; the producer locks/unlocks it around
    /// its notify so a sleeping consumer can never miss a push.
    sleep: Mutex<()>,
    wake: Condvar,
    /// Swapped wholesale by [`StickyPool::set_sink`]; the hot paths take
    /// one uncontended lock per push / per job to clone the cheap handles.
    metrics: Mutex<WorkerMetrics>,
}

/// Mailbox capacity. A scope submits at most one job per worker per phase
/// in every current caller, so even deep pipelines stay far below this;
/// a full ring makes the producer yield until the worker drains.
const MAILBOX_CAPACITY: usize = 64;

impl Mailbox {
    fn new() -> Mailbox {
        Mailbox {
            ring: Ring {
                slots: (0..MAILBOX_CAPACITY)
                    .map(|_| UnsafeCell::new(None))
                    .collect(),
                head: AtomicUsize::new(0),
                tail: AtomicUsize::new(0),
            },
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            metrics: Mutex::new(WorkerMetrics::default()),
        }
    }

    fn metrics(&self) -> WorkerMetrics {
        lock_unpoisoned(&self.metrics).clone()
    }

    /// Producer side (requires external single-producer discipline — the
    /// pool's producer lock).
    fn push(&self, msg: Msg) {
        let cap = self.ring.slots.len();
        let mut msg = Some(msg);
        loop {
            let head = self.ring.head.load(Ordering::Acquire);
            let tail = self.ring.tail.load(Ordering::Relaxed);
            if tail.wrapping_sub(head) < cap {
                // SAFETY: this slot index is >= every published tail the
                // consumer may read until our release store below, and the
                // single-producer discipline means nobody else writes it.
                unsafe {
                    *self.ring.slots[tail % cap].get() = msg.take();
                }
                self.ring
                    .tail
                    .store(tail.wrapping_add(1), Ordering::Release);
                // Lock/unlock before notifying: a consumer that saw the old
                // tail either re-checks under this lock (and sees the new
                // one) or is already waiting (and receives the notify).
                drop(lock_unpoisoned(&self.sleep));
                self.wake.notify_one();
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Consumer side (worker thread only). Blocks until a message arrives.
    /// `metrics` counts the running→waiting transition (one park per empty
    /// sleep, however many timeout wakeups it spans) and the wakeup that
    /// found work.
    fn pop(&self, metrics: &WorkerMetrics) -> Msg {
        let cap = self.ring.slots.len();
        let mut parked = false;
        loop {
            let head = self.ring.head.load(Ordering::Relaxed);
            let tail = self.ring.tail.load(Ordering::Acquire);
            if head != tail {
                // SAFETY: the acquire load of `tail` ordered the producer's
                // slot write before this read; only this thread moves `head`.
                let msg = unsafe { (*self.ring.slots[head % cap].get()).take() };
                self.ring
                    .head
                    .store(head.wrapping_add(1), Ordering::Release);
                if let Some(m) = msg {
                    if parked {
                        metrics.unparks.inc();
                    }
                    return m;
                }
                // A `None` here would mean the SPSC discipline was broken;
                // fall through and re-check rather than crash the worker.
                continue;
            }
            let guard = lock_unpoisoned(&self.sleep);
            if !parked {
                parked = true;
                metrics.parks.inc();
            }
            // Re-check under the lock (see `push` for why this is
            // missed-wakeup-free); the timeout is defence in depth only.
            if self.ring.head.load(Ordering::Relaxed) != self.ring.tail.load(Ordering::Acquire) {
                continue;
            }
            let waited = self.wake.wait_timeout(guard, Duration::from_millis(50));
            drop(match waited {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            });
        }
    }
}

/// Completion state shared between one [`PoolScope`] and its jobs.
struct ScopeState {
    pending: AtomicUsize,
    panicked: AtomicBool,
    done_lock: Mutex<()>,
    done: Condvar,
}

impl ScopeState {
    fn new() -> Arc<ScopeState> {
        Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
        })
    }

    fn finish_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            drop(lock_unpoisoned(&self.done_lock));
            self.done.notify_all();
        }
    }

    fn wait_drained(&self) {
        let mut guard = lock_unpoisoned(&self.done_lock);
        while self.pending.load(Ordering::Acquire) != 0 {
            guard = match self.done.wait_timeout(guard, Duration::from_millis(50)) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
}

struct Worker {
    mailbox: Arc<Mailbox>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// A persistent pool of worker threads with per-worker SPSC mailboxes and
/// explicit, sticky job routing, cached per calling thread by
/// [`with_local_pool`].
struct StickyPool {
    workers: Vec<Worker>,
    /// Serializes scopes: at most one producer feeds the mailboxes at a
    /// time, which is what makes them legitimately single-producer.
    producer: Mutex<()>,
    /// The sink the pool is currently attached to, for idempotent
    /// [`StickyPool::set_sink`] re-attachment.
    last_sink: Mutex<MetricsSink>,
}

impl StickyPool {
    /// Spawns `threads` persistent workers.
    ///
    /// # Panics
    /// Panics if `threads == 0` or the OS refuses to spawn a thread.
    fn new(threads: usize) -> StickyPool {
        assert!(threads >= 1, "pool needs at least one worker");
        let workers = (0..threads)
            .map(|i| {
                let mailbox = Arc::new(Mailbox::new());
                let consumer = Arc::clone(&mailbox);
                let builder = std::thread::Builder::new().name(format!("dgs-pool-{i}"));
                let handle = match builder.spawn(move || {
                    while let Msg::Run(job) = {
                        // Snapshot handles per message so a `set_sink`
                        // while idle counts the very next park correctly.
                        let metrics = consumer.metrics();
                        consumer.pop(&metrics)
                    } {
                        job();
                    }
                }) {
                    Ok(h) => h,
                    Err(e) => panic!("failed to spawn pool worker {i}: {e}"),
                };
                Worker {
                    mailbox,
                    handle: Some(handle),
                }
            })
            .collect();
        StickyPool {
            workers,
            producer: Mutex::new(()),
            last_sink: Mutex::new(MetricsSink::null()),
        }
    }

    /// Number of persistent workers.
    fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Attach (or re-attach) observability: per-worker mailbox depth gauges
    /// (`dgs_pool_mailbox_depth{worker="i"}`), per-worker busy-time
    /// histograms (`dgs_pool_worker_busy_ns{worker="i"}`), and pool-wide
    /// park/unpark counters — the signals that make striped-flush stalls
    /// (one deep mailbox, one saturated worker) visible in `obs-report`.
    ///
    /// Idempotent: re-attaching a sink backed by the same registry is a
    /// no-op, so a caller that threads its sink through every [`stripe`]
    /// pays one registry-identity check per call after the first.
    fn set_sink(&self, sink: &MetricsSink) {
        let mut last = lock_unpoisoned(&self.last_sink);
        if last.same_registry(sink) {
            return;
        }
        *last = sink.clone();
        for (i, w) in self.workers.iter().enumerate() {
            let worker = i.to_string();
            let labels = [("worker", worker.as_str())];
            let resolved = WorkerMetrics {
                depth: sink.gauge_labelled("dgs_pool_mailbox_depth", &labels),
                busy_ns: sink.histogram_labelled("dgs_pool_worker_busy_ns", &labels),
                parks: sink.counter("dgs_pool_worker_parks"),
                unparks: sink.counter("dgs_pool_worker_unparks"),
            };
            *lock_unpoisoned(&w.mailbox.metrics) = resolved;
        }
    }

    /// Runs `f` with a [`PoolScope`] that can submit borrowed jobs, then
    /// blocks until every submitted job has completed (the drain/join
    /// barrier). Returns `f`'s result.
    ///
    /// The barrier holds even if `f` itself panics — submitted jobs are
    /// always drained before the panic propagates, so borrows handed to
    /// [`PoolScope::spawn`] can never dangle.
    ///
    /// # Panics
    /// Panics after the drain if any job panicked (mirroring the join
    /// behaviour of the standard library's scoped threads).
    fn scope<'env, R>(&self, f: impl FnOnce(&PoolScope<'_, 'env>) -> R) -> R {
        let _producer = lock_unpoisoned(&self.producer);
        let scope = PoolScope {
            pool: self,
            state: ScopeState::new(),
            _env: PhantomData,
        };
        struct DrainGuard<'a>(&'a ScopeState);
        impl Drop for DrainGuard<'_> {
            fn drop(&mut self) {
                self.0.wait_drained();
            }
        }
        let result = {
            let guard = DrainGuard(&scope.state);
            let r = f(&scope);
            drop(guard); // barrier: every job has run to completion here
            r
        };
        assert!(
            !scope.state.panicked.load(Ordering::Acquire),
            "pool worker job panicked"
        );
        result
    }
}

impl Drop for StickyPool {
    fn drop(&mut self) {
        let _producer = lock_unpoisoned(&self.producer);
        for w in &self.workers {
            w.mailbox.push(Msg::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                // A worker that panicked outside a job already surfaced at
                // the scope barrier; nothing useful to do with the result.
                let _ = h.join();
            }
        }
    }
}

/// Submission handle passed to the closure of [`StickyPool::scope`].
///
/// `'env` is the lifetime of borrows a job may capture; the scope barrier
/// keeps them alive until every job finished.
struct PoolScope<'pool, 'env> {
    pool: &'pool StickyPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> PoolScope<'_, 'env> {
    /// Submits `f` to worker `worker % threads`.
    ///
    /// Routing is the caller's contract with its own cache: submit shard
    /// `i`'s work with `worker = i` on every batch and the pool guarantees
    /// the same persistent thread services it every time.
    ///
    /// A panic inside `f` is caught, recorded, and re-raised by
    /// [`StickyPool::scope`] after the barrier.
    fn spawn<F>(&self, worker: usize, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let state = Arc::clone(&self.state);
        let w = worker % self.pool.workers.len();
        // Metrics ride inside the job wrapper so that busy time and the
        // depth decrement are published strictly before `finish_one` — a
        // caller reading its registry right after the scope barrier sees
        // every job accounted for.
        let metrics = self.pool.workers[w].mailbox.metrics();
        metrics.depth.add(1);
        // Count before publishing; the job's `finish_one` is the matching
        // decrement, so the barrier can never observe a transient zero.
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            metrics.depth.dec_saturating();
            let timer = metrics.busy_ns.start_timer();
            if catch_unwind(AssertUnwindSafe(f)).is_err() {
                state.panicked.store(true, Ordering::Release);
            }
            timer.observe();
            state.finish_one();
        });
        // SAFETY: only the lifetime is erased. The drain barrier in
        // `StickyPool::scope` (enforced by `DrainGuard` even on panic)
        // blocks until this job has run, so everything `f` borrows from
        // `'env` strictly outlives the job's execution. The transmute is
        // between two trait-object boxes of identical layout.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.workers[w].mailbox.push(Msg::Run(job));
    }
}

thread_local! {
    /// One cached pool per calling thread (see [`with_local_pool`]).
    static LOCAL_POOL: std::cell::RefCell<Option<StickyPool>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with a thread-local [`StickyPool`] of at least `threads`
/// workers, creating or growing it on first use and caching it for the
/// thread's lifetime.
///
/// [`stripe`]'s callers have no natural place to own a pool, but per-call
/// spawning is exactly what the pool exists to avoid. Keying the cache by
/// thread keeps the single-producer mailbox discipline free (a thread only
/// ever feeds its own pool) and makes nested parallelism safe: a pool
/// *worker* that stripes again simply gets its own, separate thread-local
/// pool.
///
/// The pool is taken out of the cache while `f` runs, so re-entrant calls
/// on the same thread build an independent temporary pool instead of
/// deadlocking on a shared one.
fn with_local_pool<R>(threads: usize, f: impl FnOnce(&StickyPool) -> R) -> R {
    let need = threads.max(1);
    let cached = LOCAL_POOL.with(|cell| {
        let mut slot = cell.borrow_mut();
        match slot.take() {
            Some(pool) if pool.threads() >= need => Some(pool),
            // Too small (or absent): drop the old pool's threads and build
            // fresh below, outside the borrow.
            _ => None,
        }
    });
    let pool = match cached {
        Some(pool) => pool,
        None => StickyPool::new(need),
    };
    let result = f(&pool);
    LOCAL_POOL.with(|cell| {
        let mut slot = cell.borrow_mut();
        // Keep the larger pool if a re-entrant call replaced ours.
        match slot.as_ref() {
            Some(existing) if existing.threads() >= pool.threads() => {}
            _ => *slot = Some(pool),
        }
    });
    result
}

/// Runs `apply` on every item, striped across the calling thread's sticky
/// pool, and returns the results in item order.
///
/// The items are cut into `stripes = min(threads, items.len())` contiguous
/// runs (the first `items.len() % stripes` one item longer), and run `t`
/// always goes to pool worker `t`: while the item count holds, an item
/// stays on one worker call after call. A single stripe runs inline on the
/// caller; at two or more, every run goes to a worker while the caller
/// waits. A panic in `apply` is caught per item on either path and that
/// item's result is `panicked(item)`: its stripe-mates still run, and the
/// pool's own panic flag never trips. `sink`, when given, is attached to
/// the pool's per-worker metrics.
pub fn stripe<T: Send, R: Send>(
    items: &mut [T],
    threads: usize,
    sink: Option<&MetricsSink>,
    apply: impl Fn(&mut T) -> R + Sync,
    panicked: impl Fn(&T) -> R,
) -> Vec<R> {
    let n = items.len();
    let stripes = threads.min(n);
    if stripes <= 1 {
        return items
            .iter_mut()
            .map(|item| {
                catch_unwind(AssertUnwindSafe(|| apply(&mut *item)))
                    .unwrap_or_else(|_| panicked(item))
            })
            .collect();
    }
    let mut done: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let (mut rest, mut slots) = (&mut *items, &mut done[..]);
    let apply = &apply;
    with_local_pool(stripes, |pool| {
        if let Some(sink) = sink {
            pool.set_sink(sink);
        }
        pool.scope(|scope| {
            for t in 0..stripes {
                let len = n / stripes + usize::from(t < n % stripes);
                let (stripe, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                let (out, tail) = std::mem::take(&mut slots).split_at_mut(len);
                slots = tail;
                scope.spawn(t, move || {
                    for (item, slot) in stripe.iter_mut().zip(out) {
                        *slot = catch_unwind(AssertUnwindSafe(|| apply(item))).ok();
                    }
                });
            }
        });
    });
    items
        .iter()
        .zip(done)
        .map(|(item, r)| r.unwrap_or_else(|| panicked(item)))
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn scope_runs_jobs_and_barriers() {
        let pool = StickyPool::new(3);
        let mut out = vec![0u64; 8];
        pool.scope(|scope| {
            for (i, slot) in out.iter_mut().enumerate() {
                scope.spawn(i, move || {
                    *slot = (i as u64 + 1) * 10;
                });
            }
        });
        assert_eq!(out, vec![10, 20, 30, 40, 50, 60, 70, 80]);
    }

    #[test]
    fn pool_is_reusable_across_many_scopes() {
        let pool = StickyPool::new(2);
        let mut acc = 0u64;
        for round in 0..200u64 {
            let mut parts = [0u64; 2];
            pool.scope(|scope| {
                let (a, b) = parts.split_at_mut(1);
                scope.spawn(0, move || a[0] = round);
                scope.spawn(1, move || b[0] = round * 2);
            });
            acc += parts[0] + parts[1];
        }
        assert_eq!(acc, (0..200u64).map(|r| 3 * r).sum::<u64>());
    }

    #[test]
    fn sticky_routing_serializes_per_worker() {
        // Jobs routed to the same worker run in submission order (SPSC
        // FIFO), so a chain of read-modify-writes through the same cell is
        // deterministic without any locking of its own.
        let pool = StickyPool::new(2);
        let cell = std::sync::atomic::AtomicU64::new(1);
        pool.scope(|scope| {
            let c = &cell;
            scope.spawn(0, move || {
                let v = c.load(Ordering::Relaxed);
                c.store(v * 10 + 2, Ordering::Relaxed);
            });
            scope.spawn(0, move || {
                let v = c.load(Ordering::Relaxed);
                c.store(v * 10 + 3, Ordering::Relaxed);
            });
        });
        assert_eq!(cell.load(Ordering::Relaxed), 123);
    }

    #[test]
    fn worker_indices_wrap() {
        let pool = StickyPool::new(2);
        let mut out = vec![0usize; 6];
        pool.scope(|scope| {
            for (i, slot) in out.iter_mut().enumerate() {
                scope.spawn(i, move || *slot = i + 1);
            }
        });
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn job_panic_surfaces_at_the_barrier() {
        let pool = StickyPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(0, || panic!("job boom"));
            });
        }));
        assert!(caught.is_err());
        // The pool survives a panicked job: workers keep serving.
        let mut ok = false;
        pool.scope(|scope| {
            scope.spawn(0, || ok = true);
        });
        assert!(ok);
    }

    #[test]
    fn empty_scope_returns_immediately() {
        let pool = StickyPool::new(1);
        let r = pool.scope(|_| 42);
        assert_eq!(r, 42);
    }

    #[test]
    fn zero_job_drain_barrier_on_a_multi_worker_pool() {
        // The drain barrier must complete with *zero* submitted jobs — no
        // worker ever posts a finish_one, so the waiter can only return if
        // the zero-pending case short-circuits — and it must do so
        // repeatedly, interleaved with real work, without waking workers
        // into phantom jobs.
        let reg = dgs_obs::Registry::new();
        let pool = StickyPool::new(4);
        pool.set_sink(&reg.sink());
        for round in 0..3 {
            let r = pool.scope(|_| round);
            assert_eq!(r, round);
            let mut ran = 0u32;
            pool.scope(|scope| {
                let cell = &mut ran;
                scope.spawn(round, move || *cell += 1);
            });
            assert_eq!(ran, 1, "round {round}: pool must stay usable");
        }
        // Exactly the 3 real jobs executed; the 3 empty scopes contributed
        // nothing to any worker's busy histogram.
        let busy_total: u64 = (0..4)
            .map(|w| {
                reg.histogram_stats(&format!("dgs_pool_worker_busy_ns{{worker=\"{w}\"}}"))
                    .map_or(0, |s| s.count)
            })
            .sum();
        assert_eq!(busy_total, 3);
    }

    #[test]
    fn panic_mid_drain_still_runs_every_queued_job() {
        use std::sync::atomic::{AtomicU32, Ordering};
        // A job that panics *mid-drain* — with more jobs queued behind it
        // on its own mailbox and on a sibling worker — must not abort the
        // drain: panics are caught per job, every other job still runs,
        // and the panic is re-raised only once the barrier has fully
        // drained.
        let pool = StickyPool::new(2);
        let ran = AtomicU32::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                let ran = &ran;
                scope.spawn(0, move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
                scope.spawn(0, || panic!("mid-drain boom"));
                // Queued behind the panicking job on the same mailbox.
                scope.spawn(0, move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
                // And concurrent work on the sibling worker.
                scope.spawn(1, move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
                scope.spawn(1, move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            });
        }));
        assert!(caught.is_err(), "the panic must surface at the barrier");
        assert_eq!(
            ran.load(Ordering::SeqCst),
            4,
            "every non-panicking job must have run to completion"
        );
        // The pool survives and keeps serving both workers.
        let mut ok = 0u32;
        pool.scope(|scope| {
            let cell = &mut ok;
            scope.spawn(0, move || *cell += 1);
        });
        let mut ok2 = 0u32;
        pool.scope(|scope| {
            let cell = &mut ok2;
            scope.spawn(1, move || *cell += 1);
        });
        assert_eq!((ok, ok2), (1, 1));
    }

    #[test]
    fn local_pool_is_cached_and_grows() {
        let t1 = with_local_pool(2, |p| {
            assert!(p.threads() >= 2);
            p.threads()
        });
        // Requesting fewer threads reuses the cached pool.
        let t2 = with_local_pool(1, |p| p.threads());
        assert_eq!(t1, t2);
        // Requesting more grows it.
        let t3 = with_local_pool(4, |p| p.threads());
        assert!(t3 >= 4);
    }

    #[test]
    fn reentrant_local_pool_does_not_deadlock() {
        let v = with_local_pool(2, |outer| {
            outer.scope(|_| with_local_pool(2, |inner| inner.scope(|_| 5)))
        });
        assert_eq!(v, 5);
    }

    #[test]
    fn set_sink_exposes_depth_busy_and_park_metrics() {
        let reg = dgs_obs::Registry::new();
        let pool = StickyPool::new(2);
        pool.set_sink(&reg.sink());
        // Idempotent re-attach: same registry, keeps working handles.
        pool.set_sink(&reg.sink());
        pool.scope(|scope| {
            for i in 0..8 {
                scope.spawn(i, move || {
                    std::thread::sleep(Duration::from_micros(200));
                });
            }
        });
        // The barrier guarantees every job was dequeued: depth back to 0.
        for w in 0..2 {
            assert_eq!(
                reg.gauge_value(&format!("dgs_pool_mailbox_depth{{worker=\"{w}\"}}")),
                Some(0),
                "drained mailbox must read depth 0"
            );
        }
        // Every job's execution time is in exactly one worker's histogram.
        let busy_total: u64 = (0..2)
            .map(|w| {
                reg.histogram_stats(&format!("dgs_pool_worker_busy_ns{{worker=\"{w}\"}}"))
                    .map_or(0, |s| s.count)
            })
            .sum();
        assert_eq!(busy_total, 8);
        // Park/unpark counters are registered (values depend on timing).
        assert!(reg.counter_value("dgs_pool_worker_parks").is_some());
        assert!(reg.counter_value("dgs_pool_worker_unparks").is_some());
    }

    #[test]
    fn unattached_pool_stays_metric_free() {
        let pool = StickyPool::new(1);
        let mut ran = false;
        pool.scope(|scope| scope.spawn(0, || ran = true));
        assert!(ran);
        // Attaching after the fact only observes subsequent work.
        let reg = dgs_obs::Registry::new();
        pool.set_sink(&reg.sink());
        pool.scope(|scope| scope.spawn(0, || {}));
        let stats = reg
            .histogram_stats("dgs_pool_worker_busy_ns{worker=\"0\"}")
            .unwrap();
        assert_eq!(stats.count, 1);
    }

    #[test]
    fn stripe_runs_contiguous_runs_on_their_workers_and_contains_panics() {
        let caller = std::thread::current().name().map(str::to_owned);
        for threads in [1usize, 2, 3] {
            let reg = dgs_obs::Registry::new();
            let mut items: Vec<u32> = (0..7).collect();
            let got = stripe(
                &mut items,
                threads,
                Some(&reg.sink()),
                |x| {
                    assert!(*x != 3, "item 3 blew up");
                    *x += 10;
                    Ok(std::thread::current().name().map(str::to_owned))
                },
                |&x| Err(x),
            );
            // Run `t` holds 7 / threads items (the first 7 % threads runs
            // one more) and runs on worker `t`; one stripe runs inline.
            let mut want = Vec::new();
            for t in 0..threads {
                let len = 7 / threads + usize::from(t < 7 % threads);
                let name = match threads {
                    1 => caller.clone(),
                    _ => Some(format!("dgs-pool-{t}")),
                };
                want.extend(std::iter::repeat_n(Ok(name), len));
            }
            want[3] = Err(3);
            assert_eq!(got, want, "threads {threads}");
            // The panicking item is untouched and its stripe-mates applied.
            assert_eq!(items, [10, 11, 12, 3, 14, 15, 16], "threads {threads}");
            // One busy sample per worker run; the inline stripe has none.
            let busy: u64 = (0..threads)
                .map(|w| {
                    reg.histogram_stats(&format!("dgs_pool_worker_busy_ns{{worker=\"{w}\"}}"))
                        .map_or(0, |s| s.count)
                })
                .sum();
            assert_eq!(busy, if threads == 1 { 0 } else { threads as u64 });
            // The next call on the same thread works.
            let again = stripe(&mut items, threads, None, |x| *x + 1, |_| 0);
            assert_eq!(again, [11, 12, 13, 4, 15, 16, 17], "threads {threads}");
        }
    }

    #[test]
    fn many_jobs_per_worker_drain_in_order() {
        let pool = StickyPool::new(1);
        let log: std::sync::Mutex<Vec<usize>> = std::sync::Mutex::new(Vec::new());
        pool.scope(|scope| {
            let cell = &log;
            for i in 0..32 {
                scope.spawn(0, move || cell.lock().unwrap().push(i));
            }
        });
        assert_eq!(log.into_inner().unwrap(), (0..32).collect::<Vec<_>>());
    }
}
