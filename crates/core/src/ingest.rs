//! Batched, sharded stream ingestion.
//!
//! Every sketch in this workspace is a linear map, so ingestion
//! parallelizes without changing any answer bit: updates to *independent*
//! state (different boosted repetitions, different vertex rows) can run on
//! different threads, and batching lets the sketch kernels hoist hashing
//! and exponentiation work out of the per-update loop (see
//! `dgs_sketch::L0Sampler::update_batch` and
//! `SpanningForestSketch::try_update_batch`).
//!
//! [`ShardedIngestor`] packages the pattern for boosted-repetition
//! ingestion: it buffers the stream into fixed-size batches and, at each
//! flush, stripes the repetitions across the persistent sticky worker
//! pool ([`dgs_pool::StickyPool`], cached per caller thread). The
//! assignment is deterministic, seed-stable, and **sticky** — repetition
//! `i` is always submitted to pool worker `i % stripes`, flush after
//! flush, so each worker's repetitions stay hot in its cache; each
//! repetition consumes every batch in stream order through the same
//! batched kernel — so the final states are **bit-identical** to
//! sequential ingestion for every `(threads, batch_size)` choice, which
//! the property tests assert byte-for-byte.

use dgs_hypergraph::{Update, UpdateStream};
use dgs_obs::{Counter, Gauge, Histogram, MetricsSink};
use dgs_sketch::{SketchError, SketchResult};

use crate::boost::BoostedQuery;
use crate::checkpoint::Recoverable;

/// Metric handles for one ingestor; null (free) by default.
#[derive(Debug, Default)]
struct IngestMetrics {
    updates: Counter,
    flush_ns: Histogram,
    queue_depth: Gauge,
    /// One labelled counter per stripe (`shard="0"..`), counting
    /// `updates × repetitions` applications — per-shard throughput.
    shard_updates: Vec<Counter>,
}

impl IngestMetrics {
    fn resolve(sink: &MetricsSink, threads: usize) -> IngestMetrics {
        IngestMetrics {
            updates: sink.counter("dgs_core_ingest_updates"),
            flush_ns: sink.histogram("dgs_core_ingest_flush_ns"),
            queue_depth: sink.gauge("dgs_core_ingest_queue_depth"),
            shard_updates: (0..threads)
                .map(|t| {
                    sink.counter_labelled(
                        "dgs_core_ingest_shard_updates",
                        &[("shard", &t.to_string())],
                    )
                })
                .collect(),
        }
    }
}

/// Buffers stream updates into fixed-size batches and ingests each batch
/// into `R` boosted repetitions, striped across the persistent sticky
/// worker pool.
///
/// Updates arrive one at a time ([`push`](Self::push)), the ingestor
/// flushes a batch whenever the buffer fills, and
/// [`finish`](Self::finish) flushes the remainder and hands back a
/// [`BoostedQuery`]. Because repetition assignment is deterministic
/// (`i % stripes`) and every repetition sees every batch in stream order,
/// the result is bit-identical to sequential ingestion.
///
/// Error handling: an invalid update is detected at the next flush, which
/// applies the valid prefix before it in every repetition (the
/// applied-prefix contract of [`Recoverable::apply_batch`]) and returns
/// the error. Treat any flush error as fatal for the query: the stream
/// itself is malformed, and retrying cannot help.
#[derive(Debug)]
pub struct ShardedIngestor<S> {
    /// Boosted repetitions in **stripe-major** physical order: stripe 0's
    /// repetitions first (logical indices `0, stripes, 2·stripes, …`), then
    /// stripe 1's, and so on. Keeping each stripe's partition contiguous
    /// lets [`flush`](Self::flush) hand every pool worker a
    /// `split_at_mut` slice — no per-flush partition `Vec`s — while
    /// [`finish`](Self::finish) un-permutes back to logical (seed) order.
    repetitions: Vec<S>,
    /// Stripe (worker) count: `min(threads, repetitions)`, clamped **once**
    /// at construction. Metrics shard counters and flush fan-out both read
    /// this field, so the two can never disagree (previously each site
    /// re-derived the clamp independently).
    stripes: usize,
    batch_size: usize,
    buffer: Vec<Update>,
    ingested: u64,
    metrics: IngestMetrics,
    /// Kept to re-attach the striping pool's own metrics on every flush
    /// (idempotent after the first — see [`dgs_pool::StickyPool::set_sink`]).
    sink: MetricsSink,
    /// Per-stripe flush results, kept across flush cycles (like
    /// `DecodeScratch`) so steady-state flushes allocate nothing.
    results: Vec<SketchResult<()>>,
}

/// Logical (seed-order) indices in stripe-major order: stripe `t` owns
/// logical repetitions `t, t + stripes, t + 2·stripes, …`.
fn stripe_major_order(n: usize, stripes: usize) -> impl Iterator<Item = usize> {
    (0..stripes).flat_map(move |t| (t..n).step_by(stripes))
}

impl<S: Recoverable + Send> ShardedIngestor<S> {
    /// Wraps already-built repetitions (must be independently seeded
    /// siblings — see [`BoostedQuery::new`]). `threads` above the
    /// repetition count is clamped down at construction: extra workers
    /// could never own a repetition.
    ///
    /// # Panics
    /// Panics if `repetitions` is empty, or `threads`/`batch_size` is zero.
    pub fn new(repetitions: Vec<S>, threads: usize, batch_size: usize) -> ShardedIngestor<S> {
        assert!(!repetitions.is_empty(), "need at least one repetition");
        assert!(threads >= 1, "need at least one thread");
        assert!(batch_size >= 1, "need a positive batch size");
        let stripes = threads.min(repetitions.len());
        let n = repetitions.len();
        // Permute into stripe-major physical order (see the field docs);
        // identity when stripes == 1.
        let mut slots: Vec<Option<S>> = repetitions.into_iter().map(Some).collect();
        let mut reordered: Vec<S> = Vec::with_capacity(n);
        reordered.extend(stripe_major_order(n, stripes).filter_map(|i| slots[i].take()));
        debug_assert_eq!(reordered.len(), n);
        ShardedIngestor {
            repetitions: reordered,
            stripes,
            batch_size,
            buffer: Vec::with_capacity(batch_size),
            ingested: 0,
            metrics: IngestMetrics::default(),
            sink: MetricsSink::null(),
            results: Vec::with_capacity(stripes),
        }
    }

    /// Attach metric handles resolved from `sink` (`dgs_core_ingest_*`:
    /// total updates, flush latency histogram, buffered queue depth gauge,
    /// and per-stripe `shard="i"` throughput counters). Only the ingestor
    /// itself is instrumented — to also observe the sketches, set their
    /// sinks on the repetitions before constructing the ingestor. Default
    /// is the null sink: recording is free.
    pub fn set_sink(&mut self, sink: &MetricsSink) {
        self.metrics = IngestMetrics::resolve(sink, self.stripes);
        self.sink = sink.clone();
    }

    /// Builds `r` repetitions via `build(repetition_index)` — derive each
    /// from a sibling seed — and wraps them in an ingestor.
    pub fn with_build(
        r: usize,
        threads: usize,
        batch_size: usize,
        build: impl FnMut(usize) -> S,
    ) -> ShardedIngestor<S> {
        assert!(r >= 1, "need at least one repetition");
        ShardedIngestor::new((0..r).map(build).collect(), threads, batch_size)
    }

    /// Number of repetitions.
    pub fn repetitions(&self) -> usize {
        self.repetitions.len()
    }

    /// Updates currently buffered (not yet applied to any repetition).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Updates applied to every repetition so far (excludes the buffer).
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Ingest stripe count: `min(threads, repetitions)`, fixed at
    /// construction. Stripe `t` owns repetitions `i ≡ t (mod stripes)` and
    /// is always submitted to pool worker `t`.
    pub fn stripes(&self) -> usize {
        self.stripes
    }

    /// Buffers one stream update, flushing if the batch is full.
    pub fn push(&mut self, u: &Update) -> SketchResult<()> {
        self.buffer.push(u.clone());
        self.metrics.queue_depth.set(self.buffer.len() as i64);
        if self.buffer.len() >= self.batch_size {
            self.flush()?;
        }
        Ok(())
    }

    /// Pushes every update of a stream (batching internally).
    pub fn ingest_stream(&mut self, stream: &UpdateStream) -> SketchResult<()> {
        for u in &stream.updates {
            self.push(u)?;
        }
        Ok(())
    }

    /// Applies the buffered batch to every repetition, striping repetitions
    /// round-robin (`i % stripes`) across the persistent sticky worker
    /// pool: stripe `t` is submitted to pool worker `t` on every flush, so
    /// a worker re-touches the same repetitions' state batch after batch.
    ///
    /// A panic inside a repetition's batch kernel is caught on the worker
    /// and surfaced as a non-retryable [`SketchError`], never a panic —
    /// matching the pre-pool scoped-thread behavior.
    pub fn flush(&mut self) -> SketchResult<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let timer = self.metrics.flush_ns.start_timer();
        let mut batch = std::mem::take(&mut self.buffer);
        let stripes = self.stripes;
        let n = self.repetitions.len();
        if stripes <= 1 {
            for s in &mut self.repetitions {
                s.apply_batch(&batch).map_err(|(_, e)| e)?;
            }
            if let Some(c) = self.metrics.shard_updates.first() {
                c.add(batch.len() as u64 * n as u64);
            }
        } else {
            // The repetitions already sit in stripe-major order, so the
            // partition is `stripes` contiguous `split_at_mut` slices —
            // nothing is allocated here in steady state (the results
            // scratch keeps its capacity across flush cycles).
            self.results.clear();
            self.results.extend((0..stripes).map(|_| Ok(())));
            let metrics = &self.metrics;
            let mut rest: &mut [S] = &mut self.repetitions;
            dgs_pool::with_local_pool(stripes, |pool| {
                pool.set_sink(&self.sink);
                pool.scope(|scope| {
                    for (t, result) in self.results.iter_mut().enumerate() {
                        let len = n / stripes + usize::from(t < n % stripes);
                        let (stripe, tail) = std::mem::take(&mut rest).split_at_mut(len);
                        rest = tail;
                        let batch = &batch;
                        let shard_counter = metrics.shard_updates.get(t).cloned();
                        scope.spawn(t, move || {
                            // Catch panics on the worker so a poisoned
                            // repetition yields an error at the barrier
                            // instead of tripping the pool's panic flag.
                            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                                || -> SketchResult<()> {
                                    let applied = batch.len() as u64 * stripe.len() as u64;
                                    for s in stripe.iter_mut() {
                                        s.apply_batch(batch).map_err(|(_, e)| e)?;
                                    }
                                    if let Some(c) = shard_counter {
                                        c.add(applied);
                                    }
                                    Ok(())
                                },
                            ));
                            *result = run.unwrap_or_else(|_| {
                                Err(SketchError::failure(
                                    "sharded-ingest",
                                    "ingest worker panicked",
                                ))
                            });
                        });
                    }
                });
            });
            for r in self.results.iter_mut() {
                std::mem::replace(r, Ok(()))?;
            }
        }
        self.ingested += batch.len() as u64;
        self.metrics.updates.add(batch.len() as u64);
        self.metrics.queue_depth.set(0);
        timer.observe();
        // Hand the drained batch Vec back to the buffer: its capacity is
        // reused by the next fill instead of being reallocated every flush.
        batch.clear();
        self.buffer = batch;
        Ok(())
    }

    /// Flushes the remaining buffer and returns the repetitions wrapped in
    /// a [`BoostedQuery`], un-permuted back to logical (seed) order.
    pub fn finish(mut self) -> SketchResult<BoostedQuery<S>> {
        self.flush()?;
        let n = self.repetitions.len();
        let stripes = self.stripes;
        let mut slots: Vec<Option<S>> = (0..n).map(|_| None).collect();
        let mut physical = self.repetitions.into_iter();
        for i in stripe_major_order(n, stripes) {
            slots[i] = physical.next();
        }
        let logical: Vec<S> = slots.into_iter().flatten().collect();
        debug_assert_eq!(logical.len(), n);
        Ok(BoostedQuery::from_repetitions(logical))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use dgs_connectivity::{ForestParams, SpanningForestSketch};
    use dgs_field::prng::*;
    use dgs_field::{Codec, SeedTree, Writer};
    use dgs_hypergraph::generators::{churn_stream, gnp, ChurnConfig};
    use dgs_hypergraph::{EdgeSpace, HyperEdge, Hypergraph};
    use dgs_sketch::Profile;

    fn encoded<T: Codec>(t: &T) -> Vec<u8> {
        let mut w = Writer::new();
        t.encode(&mut w);
        w.into_bytes()
    }

    fn forest_build<'a>(
        space: &'a EdgeSpace,
        seeds: &'a SeedTree,
        params: ForestParams,
    ) -> impl Fn(usize) -> SpanningForestSketch + 'a {
        let space = space.clone();
        move |i| SpanningForestSketch::new_full(space.clone(), &seeds.child(i as u64), params)
    }

    #[test]
    fn sharded_batched_ingest_is_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(0x1A6E);
        let h = Hypergraph::from_graph(&gnp(16, 0.3, &mut rng));
        let stream = churn_stream(&h, ChurnConfig::default(), &mut rng);
        let space = EdgeSpace::graph(16).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let seeds = SeedTree::new(0xB005);
        let build = forest_build(&space, &seeds, params);

        let mut serial = BoostedQuery::new(3, &build);
        for u in &stream.updates {
            serial.try_update(u).unwrap();
        }
        let expected: Vec<Vec<u8>> = serial.sketches().iter().map(encoded).collect();

        // Thread counts cover clamping (5, 8 > 3 repetitions) and batch
        // sizes straddle the 4-lane field kernels.
        for threads in [1usize, 2, 3, 5, 8] {
            for batch_size in [1usize, 3, 4, 5, 8, 256] {
                let mut ing = ShardedIngestor::with_build(3, threads, batch_size, &build);
                assert_eq!(ing.stripes(), threads.min(3));
                ing.ingest_stream(&stream).unwrap();
                let boosted = ing.finish().unwrap();
                let got: Vec<Vec<u8>> = boosted.sketches().iter().map(encoded).collect();
                assert_eq!(got, expected, "threads {threads}, batch {batch_size}");
            }
        }
    }

    #[test]
    fn repeated_flush_cycles_reuse_the_pool_identically() {
        // Many explicit mid-batch flush() calls on one ingestor: every
        // cycle re-enters the cached sticky pool, so a mailbox or barrier
        // left dirty by cycle k would corrupt cycle k+1. Final states must
        // still match sequential ingestion byte-for-byte.
        let mut rng = StdRng::seed_from_u64(0x9E05);
        let h = Hypergraph::from_graph(&gnp(14, 0.35, &mut rng));
        let stream = churn_stream(&h, ChurnConfig::default(), &mut rng);
        let space = EdgeSpace::graph(14).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let seeds = SeedTree::new(0x9E05);
        let build = forest_build(&space, &seeds, params);

        let mut serial = BoostedQuery::new(4, &build);
        for u in &stream.updates {
            serial.try_update(u).unwrap();
        }
        let expected: Vec<Vec<u8>> = serial.sketches().iter().map(encoded).collect();

        let mut ing = ShardedIngestor::with_build(4, 3, 64, &build);
        for (j, u) in stream.updates.iter().enumerate() {
            ing.push(u).unwrap();
            // Drain mid-batch on a stride that never aligns with the batch
            // size, forcing dozens of short pool scopes.
            if j % 5 == 0 {
                ing.flush().unwrap();
            }
        }
        let boosted = ing.finish().unwrap();
        let got: Vec<Vec<u8>> = boosted.sketches().iter().map(encoded).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn buffer_flushes_at_batch_size_and_on_finish() {
        let space = EdgeSpace::graph(8).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let seeds = SeedTree::new(5);
        let build = forest_build(&space, &seeds, params);
        let mut ing = ShardedIngestor::with_build(1, 1, 3, &build);
        for v in 1..=4u32 {
            ing.push(&Update::insert(HyperEdge::pair(0, v))).unwrap();
        }
        // 4 pushes with batch_size 3: one flush happened, one update remains.
        assert_eq!(ing.ingested(), 3);
        assert_eq!(ing.buffered(), 1);
        let boosted = ing.finish().unwrap();
        assert_eq!(boosted.repetitions(), 1);
        let forest = boosted.sketches()[0].decode();
        assert_eq!(forest.len(), 4);
    }

    #[test]
    fn invalid_update_surfaces_at_flush() {
        let space = EdgeSpace::graph(6).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let seeds = SeedTree::new(6);
        let build = forest_build(&space, &seeds, params);
        let mut ing = ShardedIngestor::with_build(2, 2, 8, &build);
        ing.push(&Update::insert(HyperEdge::pair(0, 1))).unwrap();
        ing.push(&Update::insert(HyperEdge::pair(0, 77))).unwrap(); // out of range
        let err = ing.finish().unwrap_err();
        assert!(!err.is_retryable());
    }
}
