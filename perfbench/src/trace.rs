//! In-memory spans the benchmark records around its own calls into each
//! layer; summarised when the workload ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::stats;

/// Marks a span that belongs to no flush batch.
pub const NO_BATCH: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index + 1 of the enclosing span; 0 for a root.
    pub parent: u32,
    /// Flush batch the call belongs to, or [`NO_BATCH`].
    pub batch: u32,
    pub shard: u8,
    /// Nanoseconds since the trace began.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end - self.start) as f64
    }
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Appends a root span for a call that started at `t` and took `d`.
    pub fn push_at(&mut self, name: &'static str, t: Instant, d: Duration) -> u32 {
        let start = (t - self.origin).as_nanos() as u64;
        self.push(name, 0, NO_BATCH, 0, start, start + d.as_nanos() as u64)
    }

    /// Records a root span around `f`; returns `f`'s result and the span's
    /// parent handle for children.
    pub fn record<R>(
        &mut self,
        name: &'static str,
        batch: u32,
        shard: u8,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (out, self.push(name, 0, batch, shard, start, end))
    }

    /// Appends a span; returns its parent handle.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        batch: u32,
        shard: u8,
        start: u64,
        end: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            parent,
            batch,
            shard,
            start,
            end,
        });
        self.spans.len() as u32
    }

    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Sum over flush batches of the batch's critical path through the
    /// spans named `names`: shard `i` runs on stripe `i % threads`, stripes
    /// run side by side, so a batch costs its slowest stripe.
    pub fn critical(&self, names: &[&str], threads: usize) -> f64 {
        let mut per_batch: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            let stripes = per_batch
                .entry(s.batch)
                .or_insert_with(|| vec![0.0; threads]);
            stripes[s.shard as usize % threads] += s.ns();
        }
        per_batch
            .values()
            .map(|v| v.iter().copied().fold(0.0, f64::max))
            .sum()
    }

    /// One line per span name and enclosing span: calls, total, median
    /// and p99.
    pub fn summary(&self) -> Vec<String> {
        let mut by_name: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            let parent = match s.parent {
                0 => "root",
                p => self.spans[p as usize - 1].name,
            };
            by_name.entry((s.name, parent)).or_default().push(s.ns());
        }
        by_name
            .into_iter()
            .map(|((name, parent), v)| {
                let sorted = stats::sorted(&v);
                format!(
                    "span {name} in {parent}: calls={} total_ms={:.3} p50_us={:.3} p99_us={:.3}",
                    sorted.len(),
                    sorted.iter().sum::<f64>() / 1e6,
                    stats::percentile(&sorted, 0.5).unwrap_or(0.0) / 1e3,
                    stats::percentile(&sorted, 0.99).unwrap_or(0.0) / 1e3,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_path_takes_the_slowest_stripe_per_batch() {
        let mut tr = Trace::new();
        // Batch 0: shards 0 and 2 share stripe 0 (3 + 4), shard 1 has 5.
        for (shard, ns) in [(0u8, 3u64), (1, 5), (2, 4)] {
            tr.push("apply", 0, 0, shard, 0, ns);
        }
        // Batch 1: stripe 1 is slowest.
        for (shard, ns) in [(0u8, 1u64), (1, 9), (2, 1)] {
            tr.push("apply", 0, 1, shard, 0, ns);
        }
        assert_eq!(tr.critical(&["apply"], 2), 7.0 + 9.0);
        assert_eq!(tr.critical(&["apply"], 1), 12.0 + 11.0);
        assert_eq!(tr.critical(&["other"], 2), 0.0);
    }
}
