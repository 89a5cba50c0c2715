//! Probability amplification by independent repetition (`δ → δ^R`).
//!
//! Every query in this workspace fails with some per-repetition
//! probability δ — the event surfaced as
//! [`SketchError::SketchFailure`]. Because failures are *detected* (the
//! typed-error invariant: a failed decode never masquerades as an answer),
//! the classic amplification argument applies directly: run `R`
//! structurally identical sketches seeded from **sibling seeds** of one
//! [`SeedTree`], ingest the same stream into each, and answer from the
//! first repetition whose decode certifies. The repetitions are mutually
//! independent, so the probability that *all* fail is `δ^R`.
//!
//! [`BoostedQuery`] packages that pattern. Resolution policies:
//!
//! * [`query`](BoostedQuery::query) — first success. Correct whenever
//!   failures are detected (the workspace invariant), which makes every
//!   success equally trustworthy; this is the paper's implicit
//!   "repeat `O(log n)` times" device.
//! * [`query_majority`](BoostedQuery::query_majority) — majority vote over
//!   the successful repetitions. Strictly more conservative: it also
//!   guards against *undetected* wrong answers (e.g. adversarial stream
//!   corruption below the detection threshold), at the cost of decoding
//!   every repetition.
//!
//! Both short-circuit on [`SketchError::InvalidInput`]: a malformed stream
//! poisons every repetition identically, so retrying is useless and the
//! outcome is [`QueryOutcome::Invalid`].
//!
//! Sharded ingestion: [`crate::ingest::ShardedIngestor`] stripes the `R`
//! repetitions across the worker pool (each repetition's sketch is
//! independent, so no cross-thread merging is needed).

use dgs_hypergraph::Update;
use dgs_obs::{Counter, Histogram, MetricsSink};
use dgs_sketch::{SketchError, SketchResult};

use crate::checkpoint::Recoverable;

/// The resolution of a boosted query.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutcome<T> {
    /// A repetition produced a certified answer.
    Answer {
        /// The resolved answer.
        value: T,
        /// Repetitions that failed (retryably) before/while resolving.
        failed_repetitions: usize,
    },
    /// Every repetition failed retryably — the `δ^R` event. The caller
    /// knows it does *not* know; no silent wrong answer was emitted.
    Unknown {
        /// Number of failed repetitions (= `R`).
        failed_repetitions: usize,
    },
    /// The input itself is malformed; no amount of repetition helps.
    Invalid(SketchError),
}

impl<T> QueryOutcome<T> {
    /// The answer, if one was resolved.
    pub fn answer(&self) -> Option<&T> {
        match self {
            QueryOutcome::Answer { value, .. } => Some(value),
            _ => None,
        }
    }

    /// True iff the query resolved to an answer.
    pub fn is_answer(&self) -> bool {
        matches!(self, QueryOutcome::Answer { .. })
    }

    /// True iff the query degraded to an explicit "unknown".
    pub fn is_unknown(&self) -> bool {
        matches!(self, QueryOutcome::Unknown { .. })
    }

    /// Converts to a `Result`: `Ok(value)` on answer, the underlying error
    /// otherwise (`Unknown` becomes a retryable `SketchFailure`).
    pub fn into_result(self) -> SketchResult<T> {
        match self {
            QueryOutcome::Answer { value, .. } => Ok(value),
            QueryOutcome::Unknown { failed_repetitions } => Err(SketchError::failure(
                "boosted-query",
                format!("all {failed_repetitions} repetitions failed"),
            )),
            QueryOutcome::Invalid(e) => Err(e),
        }
    }
}

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

/// `R` independent same-structure repetitions resolving queries by
/// first-success or majority (see the module docs).
#[derive(Clone, Debug)]
pub struct BoostedQuery<S> {
    repetitions: Vec<S>,
    metrics: BoostMetrics,
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
        }
    }

    /// Wraps already-built repetitions (used by sharded ingestion).
    pub fn from_repetitions(repetitions: Vec<S>) -> BoostedQuery<S> {
        assert!(!repetitions.is_empty(), "need at least one repetition");
        BoostedQuery {
            repetitions,
            metrics: BoostMetrics::default(),
        }
    }

    /// Attach metric handles resolved from `sink` (`dgs_core_boost_*`:
    /// outcome counters and the repetitions-until-success distribution the
    /// `δ^R` bound governs). Only the query-resolution layer is
    /// instrumented here — to also observe the underlying sketches, set
    /// their sinks before wrapping them. Default is the null sink.
    pub fn set_sink(&mut self, sink: &MetricsSink) {
        self.metrics = BoostMetrics::resolve(sink);
    }

    /// Number of repetitions `R`.
    pub fn repetitions(&self) -> usize {
        self.repetitions.len()
    }

    /// Read access to the individual repetitions.
    pub fn sketches(&self) -> &[S] {
        &self.repetitions
    }

    /// Resolves a query by **first success** over the repetitions.
    /// Retryable failures are counted and skipped; `InvalidInput`
    /// short-circuits to [`QueryOutcome::Invalid`].
    pub fn query<T>(&self, q: impl Fn(&S) -> SketchResult<T>) -> QueryOutcome<T> {
        // Inert without an ambient trace; under one, records how long the
        // boosted decode took end to end.
        let _span = dgs_trace::child("dgs_core_boost_decode");
        let mut failed = 0;
        for s in &self.repetitions {
            match q(s) {
                Ok(value) => {
                    self.metrics.answers.inc();
                    self.metrics
                        .repetitions_until_success
                        .record(failed as u64 + 1);
                    return QueryOutcome::Answer {
                        value,
                        failed_repetitions: failed,
                    };
                }
                Err(e) if e.is_retryable() => failed += 1,
                Err(e) => {
                    self.metrics.invalid.inc();
                    return QueryOutcome::Invalid(e);
                }
            }
        }
        self.metrics.unknowns.inc();
        QueryOutcome::Unknown {
            failed_repetitions: failed,
        }
    }

    /// Resolves a query by **majority vote** over the successful
    /// repetitions (ties break toward the smallest answer, so the result
    /// is deterministic). Decodes every repetition.
    pub fn query_majority<T: Ord + Clone>(
        &self,
        q: impl Fn(&S) -> SketchResult<T>,
    ) -> QueryOutcome<T> {
        let mut votes: std::collections::BTreeMap<T, usize> = std::collections::BTreeMap::new();
        let mut failed = 0;
        for s in &self.repetitions {
            match q(s) {
                Ok(value) => *votes.entry(value).or_insert(0) += 1,
                Err(e) if e.is_retryable() => failed += 1,
                Err(e) => {
                    self.metrics.invalid.inc();
                    return QueryOutcome::Invalid(e);
                }
            }
        }
        match votes.into_iter().max_by_key(|&(_, n)| n) {
            Some((value, _)) => {
                self.metrics.answers.inc();
                self.metrics
                    .repetitions_until_success
                    .record(failed as u64 + 1);
                QueryOutcome::Answer {
                    value,
                    failed_repetitions: failed,
                }
            }
            None => {
                self.metrics.unknowns.inc();
                QueryOutcome::Unknown {
                    failed_repetitions: failed,
                }
            }
        }
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
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

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
            QueryOutcome::Answer {
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
            QueryOutcome::Unknown {
                failed_repetitions: 4
            }
        );
        assert!(out.clone().into_result().unwrap_err().is_retryable());
        assert!(out.is_unknown() && !out.is_answer());
    }

    #[test]
    fn invalid_input_short_circuits() {
        let b = boosted(3);
        let out =
            b.query(|_s: &Stub| -> SketchResult<i64> { Err(SketchError::invalid("bad stream")) });
        assert!(matches!(out, QueryOutcome::Invalid(ref e) if !e.is_retryable()));
    }

    #[test]
    fn majority_prefers_the_common_answer() {
        let b = BoostedQuery::new(5, |index| Stub {
            index,
            answer: if index == 0 { 7 } else { 42 },
        });
        let out = b.query_majority(|s| {
            if s.index == 3 {
                Err(SketchError::failure("stub", "one failure"))
            } else {
                Ok(s.answer)
            }
        });
        assert_eq!(
            out,
            QueryOutcome::Answer {
                value: 42,
                failed_repetitions: 1
            }
        );
    }

    #[test]
    fn outcome_accessors() {
        let a = QueryOutcome::Answer {
            value: 9,
            failed_repetitions: 0,
        };
        assert_eq!(a.answer(), Some(&9));
        assert_eq!(a.into_result().unwrap(), 9);
    }
}
