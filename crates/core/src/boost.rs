//! Probability amplification by independent repetition (`δ → δ^R`).
//!
//! Every query in this workspace fails with some per-repetition
//! probability δ — the event surfaced as
//! [`SketchError::SketchFailure`]. Because failures are *detected* (the
//! typed-error invariant: a failed decode never masquerades as an answer),
//! the classic amplification argument applies directly: run `R`
//! structurally identical sketches seeded from **sibling seeds** of one
//! [`SeedTree`](dgs_field::SeedTree), ingest the same stream into each, and answer from the
//! first repetition whose decode certifies. The repetitions are mutually
//! independent, so the probability that *all* fail is `δ^R`.
//!
//! [`BoostedQuery`] packages that pattern:
//!
//! * [`query`](BoostedQuery::query) resolves by **first success** through
//!   [`query_ensemble`], into the same [`SupervisedAnswer`] a supervised
//!   ensemble returns. Correct whenever failures are detected (the
//!   workspace invariant), which makes every success equally trustworthy;
//!   this is the paper's implicit "repeat `O(log n)` times" device. It
//!   short-circuits on [`SketchError::InvalidInput`]: a malformed stream
//!   poisons every repetition identically, so retrying is useless and the
//!   answer is [`SupervisedAnswer::Invalid`]. Majority voting, which also
//!   guards against *undetected* wrong answers, is
//!   [`QueryPolicy::Majority`] of [`query_ensemble`].
//! * [`apply_batch`](BoostedQuery::apply_batch) ingests a batch into every
//!   repetition, striped by [`dgs_pool::stripe`].
//!   Each repetition's sketch is independent, so no cross-thread merging is
//!   needed and the striping cannot change a bit.
//!
//! The supervisor's flush ([`SupervisedIngestor`]) stripes its shards
//! through the same primitive, so a boosted ensemble is striped one way,
//! with one panic contract, at every thread count.
//!
//! [`SupervisedIngestor`]: crate::supervise::SupervisedIngestor

use dgs_hypergraph::Update;
use dgs_obs::{Counter, Histogram, MetricsSink};
use dgs_sketch::{SketchError, SketchResult};

use crate::checkpoint::Recoverable;
use crate::supervise::{query_ensemble, QueryBudget, QueryPolicy, SupervisedAnswer, DELTA};

/// Metric handles for one boosted query; null (free) by default, shared
/// across clones.
#[derive(Clone, Debug, Default)]
struct BoostMetrics {
    /// Distribution of `1 + failed_repetitions` on answered queries — the
    /// geometric-ish "repetitions until success" the `δ^R` analysis governs.
    repetitions_until_success: Histogram,
    answers: Counter,
    unknowns: Counter,
    invalid: Counter,
}

impl BoostMetrics {
    fn resolve(sink: &MetricsSink) -> BoostMetrics {
        BoostMetrics {
            repetitions_until_success: sink.histogram("dgs_core_boost_repetitions_until_success"),
            answers: sink.counter("dgs_core_boost_answers"),
            unknowns: sink.counter("dgs_core_boost_unknowns"),
            invalid: sink.counter("dgs_core_boost_invalid"),
        }
    }
}

/// `R` independent same-structure repetitions, ingested batch by batch
/// and resolving queries by first success (see the module docs).
#[derive(Clone, Debug)]
pub struct BoostedQuery<S> {
    repetitions: Vec<S>,
    metrics: BoostMetrics,
    /// Attached to the striping pool on every [`apply_batch`](Self::apply_batch).
    sink: MetricsSink,
}

impl<S> BoostedQuery<S> {
    /// Builds `r` repetitions via `build`, which is handed the repetition
    /// index — derive each repetition's randomness from a **sibling seed**
    /// (`seeds.child(i)`) so the repetitions are independent; identical
    /// seeds would make every repetition fail on the same streams and the
    /// amplification argument collapses (the Section 4.2 pitfall).
    pub fn new(r: usize, mut build: impl FnMut(usize) -> S) -> BoostedQuery<S> {
        assert!(r >= 1, "need at least one repetition");
        BoostedQuery {
            repetitions: (0..r).map(&mut build).collect(),
            metrics: BoostMetrics::default(),
            sink: MetricsSink::null(),
        }
    }

    /// Wraps already-built repetitions (used by the supervisor's `finish`).
    pub fn from_repetitions(repetitions: Vec<S>) -> BoostedQuery<S> {
        assert!(!repetitions.is_empty(), "need at least one repetition");
        BoostedQuery {
            repetitions,
            metrics: BoostMetrics::default(),
            sink: MetricsSink::null(),
        }
    }

    /// Attach metric handles resolved from `sink` (`dgs_core_boost_*`:
    /// outcome counters and the repetitions-until-success distribution the
    /// `δ^R` bound governs). [`apply_batch`](Self::apply_batch) also
    /// attaches it to the striping pool's per-worker metrics (`dgs_pool_*`).
    /// To also observe the underlying sketches, set their sinks before
    /// wrapping them. Default is the null sink.
    pub fn set_sink(&mut self, sink: &MetricsSink) {
        self.metrics = BoostMetrics::resolve(sink);
        self.sink = sink.clone();
    }

    /// Number of repetitions `R`.
    pub fn repetitions(&self) -> usize {
        self.repetitions.len()
    }

    /// Read access to the individual repetitions.
    pub fn sketches(&self) -> &[S] {
        &self.repetitions
    }

    /// Resolves a query by **first success** over the repetitions:
    /// [`query_ensemble`] with [`QueryPolicy::FirstSuccess`] and an
    /// unlimited [`QueryBudget`]. Every repetition is live, so the answer is
    /// `Full`, `Unknown` (all `R` failed retryably) or `Invalid` (the first
    /// non-retryable error, which short-circuits).
    pub fn query<T: Clone + PartialEq>(
        &self,
        q: impl Fn(&S) -> SketchResult<T>,
    ) -> SupervisedAnswer<T> {
        // Inert without an ambient trace; under one, records how long the
        // boosted decode took end to end.
        let _span = dgs_trace::child("dgs_core_boost_decode");
        let live: Vec<(usize, &S)> = self.repetitions.iter().enumerate().collect();
        let answer = query_ensemble(
            &live,
            live.len(),
            DELTA,
            &QueryBudget::default(),
            QueryPolicy::FirstSuccess,
            |_, s| q(s),
        )
        .answer;
        match &answer {
            SupervisedAnswer::Full {
                failed_repetitions, ..
            } => {
                self.metrics.answers.inc();
                self.metrics
                    .repetitions_until_success
                    .record(*failed_repetitions as u64 + 1);
            }
            SupervisedAnswer::Unknown { .. } => self.metrics.unknowns.inc(),
            SupervisedAnswer::Invalid(_) => self.metrics.invalid.inc(),
            // Unreachable with every repetition live and no budget.
            SupervisedAnswer::Degraded { .. } | SupervisedAnswer::DeadlineExceeded { .. } => {}
        }
        answer
    }
}

impl<S: Recoverable> BoostedQuery<S> {
    /// Applies one stream update to every repetition. A malformed element
    /// is rejected by the first repetition's validation before any later
    /// repetition is touched (all repetitions share one space and vertex
    /// set, so they accept or reject identically).
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn try_update(&mut self, u: &Update) -> SketchResult<()> {
        for s in &mut self.repetitions {
            s.apply_update(u)?;
        }
        Ok(())
    }

    /// Applies a batch to every repetition through
    /// [`Recoverable::apply_batch`], striping the repetitions with
    /// [`dgs_pool::stripe`]: one stripe runs inline on the caller; at
    /// `min(threads, R) >= 2` stripes, every stripe runs on a pool worker
    /// while the caller waits. The final states are bit-identical to
    /// [`try_update`](Self::try_update) over the same updates at every
    /// `threads` and every way of cutting the stream into batches.
    ///
    /// Every repetition keeps the applied-prefix contract: an invalid
    /// update leaves the valid prefix before it applied in each repetition.
    /// Returns the first error in repetition order. A repetition that
    /// panics yields a (retryable) [`SketchError::SketchFailure`]; its
    /// cells may be torn, so drop the ensemble and rebuild it from the
    /// stream.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn apply_batch(&mut self, batch: &[Update], threads: usize) -> SketchResult<()>
    where
        S: Send,
    {
        dgs_pool::stripe(
            &mut self.repetitions,
            threads,
            Some(&self.sink),
            |s| s.apply_batch(batch).map_err(|(_, e)| e),
            |_| Err(SketchError::failure("boosted-query", "repetition panicked")),
        )
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use dgs_connectivity::{ForestParams, SpanningForestSketch};
    use dgs_field::prng::*;
    use dgs_field::{Codec, Reader, SeedTree, Writer};
    use dgs_hypergraph::generators::{churn_stream, gnp, ChurnConfig};
    use dgs_hypergraph::{EdgeSpace, HyperEdge, Hypergraph};
    use dgs_sketch::Profile;

    /// A stub sketch whose query fails for repetition indices below the
    /// threshold — exercises the resolution policies deterministically.
    struct Stub {
        index: usize,
        answer: i64,
    }

    fn failing_below(threshold: usize) -> impl Fn(&Stub) -> SketchResult<i64> {
        move |s: &Stub| {
            if s.index < threshold {
                Err(SketchError::failure("stub", "sampler failed"))
            } else {
                Ok(s.answer)
            }
        }
    }

    fn boosted(r: usize) -> BoostedQuery<Stub> {
        BoostedQuery::new(r, |index| Stub { index, answer: 42 })
    }

    #[test]
    fn first_success_skips_failures() {
        let b = boosted(5);
        assert_eq!(
            b.query(failing_below(3)),
            SupervisedAnswer::Full {
                value: 42,
                failed_repetitions: 3
            }
        );
    }

    #[test]
    fn all_failures_degrade_to_unknown() {
        let b = boosted(4);
        let out = b.query(failing_below(10));
        assert_eq!(
            out,
            SupervisedAnswer::Unknown {
                healthy_repetitions: 4,
                total_repetitions: 4,
                effective_delta: DELTA.powi(4),
            }
        );
        assert!(!out.is_answered());
    }

    #[test]
    fn invalid_input_short_circuits() {
        let b = boosted(3);
        let out =
            b.query(|_s: &Stub| -> SketchResult<i64> { Err(SketchError::invalid("bad stream")) });
        assert!(matches!(out, SupervisedAnswer::Invalid(ref e) if !e.is_retryable()));
    }

    #[test]
    fn outcome_accessors() {
        let a = boosted(2).query(failing_below(0));
        assert_eq!(a.value(), Some(&42));
        assert!(a.is_answered());
    }

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
    fn striped_apply_batch_is_bit_identical_to_try_update() {
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
                let mut boosted = BoostedQuery::new(3, &build);
                for batch in stream.updates.chunks(batch_size) {
                    boosted.apply_batch(batch, threads).unwrap();
                }
                let got: Vec<Vec<u8>> = boosted.sketches().iter().map(encoded).collect();
                assert_eq!(got, expected, "threads {threads}, batch {batch_size}");
            }
        }
    }

    #[test]
    fn many_short_batches_reuse_the_pool_identically() {
        // Many short apply_batch calls on one ensemble: every call re-enters
        // the cached sticky pool, so a mailbox or barrier left dirty by call
        // k would corrupt call k+1. Final states must still match
        // sequential ingestion byte-for-byte.
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

        let mut boosted = BoostedQuery::new(4, &build);
        let mut start = 0;
        for j in 0..stream.updates.len() {
            // Cut at the batch size (64) and, mid-batch, on a stride that
            // never aligns with it, forcing dozens of short pool scopes.
            if j + 1 - start == 64 || j % 5 == 0 {
                boosted.apply_batch(&stream.updates[start..=j], 3).unwrap();
                start = j + 1;
            }
        }
        boosted.apply_batch(&stream.updates[start..], 3).unwrap();
        let got: Vec<Vec<u8>> = boosted.sketches().iter().map(encoded).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn invalid_update_leaves_the_valid_prefix_in_every_repetition() {
        let space = EdgeSpace::graph(6).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let seeds = SeedTree::new(6);
        let build = forest_build(&space, &seeds, params);
        let valid = Update::insert(HyperEdge::pair(0, 1));
        let mut prefix = BoostedQuery::new(2, &build);
        prefix.try_update(&valid).unwrap();
        let want: Vec<Vec<u8>> = prefix.sketches().iter().map(encoded).collect();
        for threads in [1usize, 2] {
            let mut boosted = BoostedQuery::new(2, &build);
            let batch = [valid.clone(), Update::insert(HyperEdge::pair(0, 77))];
            let err = boosted.apply_batch(&batch, threads).unwrap_err();
            assert!(!err.is_retryable(), "threads {threads}: {err}");
            let got: Vec<Vec<u8>> = boosted.sketches().iter().map(encoded).collect();
            assert_eq!(got, want, "threads {threads}");
        }
    }

    /// Counts the updates it applies and panics mid-batch when `fragile`.
    #[derive(Clone, Debug)]
    struct Counting {
        applied: u64,
        fragile: bool,
    }

    impl Codec for Counting {
        fn encode(&self, w: &mut Writer) {
            w.put_u64(self.applied);
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, dgs_field::CodecError> {
            Ok(Counting {
                applied: r.get_u64()?,
                fragile: false,
            })
        }
    }

    impl Recoverable for Counting {
        fn apply_update(&mut self, _: &Update) -> SketchResult<()> {
            assert!(!self.fragile || self.applied == 0, "repetition blew up");
            self.applied += 1;
            Ok(())
        }
    }

    #[test]
    fn a_panicking_repetition_is_an_error_not_an_unwind() {
        let batch = vec![Update::insert(HyperEdge::pair(0, 1)); 4];
        for threads in [1usize, 2] {
            let mut boosted = BoostedQuery::new(3, |i| Counting {
                applied: 0,
                fragile: i == 1,
            });
            let err = boosted.apply_batch(&batch, threads).unwrap_err();
            assert!(
                matches!(err, SketchError::SketchFailure { .. }),
                "threads {threads}: {err}"
            );
            // Only the panicking repetition stopped; its stripe-mates ran.
            let applied: Vec<u64> = boosted.sketches().iter().map(|s| s.applied).collect();
            assert_eq!(applied, [4, 1, 4], "threads {threads}");
        }
    }
}
