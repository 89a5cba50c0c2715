//! Minimal timing harness for the `benches/` targets.
//!
//! In-tree replacement for the external `criterion` dependency (removed so
//! the workspace builds offline). Each benchmark warms up briefly, then
//! runs batches until a fixed wall-clock budget is spent and reports the
//! mean plus p50/p95/p99 ns/iteration, accumulated in a
//! [`dgs_obs::Histogram`] (log-bucketed, so the quantiles carry ~25%
//! relative resolution). These benches exist to catch order-of-magnitude
//! regressions and to profile hot paths, not to resolve 1% deltas.
//!
//! Per-phase attribution: a benchmark that wants to split its time into
//! named phases (e.g. the decode path's aggregate / sample / merge split)
//! either times sub-closures with [`Bencher::time_phase`] or snapshots an
//! externally recorded [`Histogram`] with [`Bencher::attach_phase`]; each
//! phase prints as an indented quantile line under the main result.

use std::time::{Duration, Instant};

use dgs_obs::{HistStats, Histogram};

/// Per-benchmark wall-clock budget. Kept small so `cargo test`, which runs
/// `harness = false` bench binaries, stays fast.
const BUDGET: Duration = Duration::from_millis(150);
const WARMUP: Duration = Duration::from_millis(30);

/// Timing state handed to each benchmark closure.
pub struct Bencher {
    total_ns: u128,
    iters: u64,
    batch_ns: Histogram,
    phases: Vec<(String, HistStats)>,
}

impl Bencher {
    /// Times repeated calls of `f` until the budget is exhausted.
    ///
    /// Calls run in inner batches of 64 per clock read: `Instant::now` costs
    /// tens of nanoseconds, so checking the deadline every call both skews
    /// sub-microsecond benchmarks upward and serializes the loop on the
    /// timer rather than on `f` itself. Each batch's mean ns/iteration is
    /// one histogram sample, so the reported quantiles describe batch-level
    /// variation (scheduling noise, frequency scaling), not per-call jitter.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        const INNER: u64 = 64;
        let warm_start = Instant::now();
        while warm_start.elapsed() < WARMUP {
            std::hint::black_box(f());
        }
        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed() < BUDGET {
            let batch_start = Instant::now();
            for _ in 0..INNER {
                std::hint::black_box(f());
            }
            let batch = batch_start.elapsed().as_nanos() as u64;
            self.batch_ns.record(batch / INNER);
            iters += INNER;
        }
        self.total_ns = start.elapsed().as_nanos();
        self.iters = iters;
    }

    /// Times one call of `f` and records its wall time into the named phase
    /// histogram (created on first use). Meant to be called from inside an
    /// [`iter`](Self::iter) closure, wrapping the sub-steps whose relative
    /// cost the benchmark wants to attribute.
    pub fn time_phase<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let ns = start.elapsed().as_nanos() as u64;
        self.record_phase_sample(name, ns);
        out
    }

    /// Records one ns sample into the named phase (created on first use) —
    /// for phase durations measured by the code under test itself.
    pub fn record_phase_sample(&mut self, name: &str, ns: u64) {
        let h = Histogram::standalone();
        h.record(ns);
        self.merge_phase(name, h.stats());
    }

    /// Snapshots an externally recorded histogram as a named phase — the
    /// hook for instrumented code that already accumulates per-phase
    /// durations in `dgs_obs` histograms (e.g. the forest decode engine's
    /// aggregate/sample/merge split): run the workload, then hand the
    /// resolved histogram over for printing.
    pub fn attach_phase(&mut self, name: &str, h: &Histogram) {
        self.merge_phase(name, h.stats());
    }

    /// Snapshots already-extracted stats as a named phase (the
    /// `Registry::histogram_stats` route).
    pub fn attach_phase_stats(&mut self, name: &str, stats: HistStats) {
        self.merge_phase(name, stats);
    }

    fn merge_phase(&mut self, name: &str, stats: HistStats) {
        if let Some((_, existing)) = self.phases.iter_mut().find(|(n, _)| n == name) {
            existing.merge(&stats);
        } else {
            self.phases.push((name.to_string(), stats));
        }
    }
}

/// Runs one named benchmark and prints its mean and p50/p95/p99 time per
/// iteration, followed by one indented line per recorded phase.
pub fn bench(name: &str, f: impl FnOnce(&mut Bencher)) {
    bench_stats(name, f);
}

/// Like [`bench()`], but also returns the batch-level timing stats so a
/// caller can relate two runs — e.g. assert that a lane kernel is no
/// slower than its scalar oracle on the p50. Quantiles inherit the
/// histogram's log-bucket resolution (~25% relative), so comparisons
/// should allow at least one bucket of slack.
pub fn bench_stats(name: &str, f: impl FnOnce(&mut Bencher)) -> HistStats {
    let mut b = Bencher {
        total_ns: 0,
        iters: 0,
        batch_ns: Histogram::standalone(),
        phases: Vec::new(),
    };
    f(&mut b);
    let per = if b.iters > 0 {
        b.total_ns / b.iters as u128
    } else {
        0
    };
    let stats = b.batch_ns.stats();
    println!(
        "{name:<44} {per:>10} ns/iter  p50 {:>8}  p95 {:>8}  p99 {:>8}  ({} iters)",
        stats.quantile(0.50),
        stats.quantile(0.95),
        stats.quantile(0.99),
        b.iters
    );
    for (phase, stats) in &b.phases {
        println!(
            "  \u{2514} {phase:<40} {:>10} samples  p50 {:>8}  p95 {:>8}  p99 {:>8}",
            stats.count,
            stats.quantile(0.50),
            stats.quantile(0.95),
            stats.quantile(0.99),
        );
    }
    stats
}
