//! The soak harness shared by E20, E21 and E22.
//!
//! Each soak pushes the same kind of stream through a
//! [`SupervisedIngestor`] (bare, or inside a `ConnectivityService`
//! tenant), fires a scripted chaos campaign at it, and scores every query
//! answer against exact truth at the epoch it answers for. This module
//! holds the one copy of those pieces: the churn-cycle stream, the
//! shard-fault dispatch, the exact component oracle and the answer tally.
//! Each experiment keeps only its configuration and what it alone
//! measures.

use std::collections::BTreeMap;
use std::path::PathBuf;

use dgs_connectivity::SpanningForestSketch;
use dgs_core::{CheckpointConfig, SupervisedAnswer, SupervisedIngestor, SupervisorConfig};
use dgs_field::prng::*;
use dgs_hypergraph::algo::UnionFind;
use dgs_hypergraph::generators::gnp;
use dgs_hypergraph::{ChaosFault, HyperEdge, Hypergraph, Op, Update};
use dgs_sketch::SketchError;

use crate::baseline::Verdicts;
use crate::workloads::{forest_build, heavy_stream};

/// The churn-cycle stream: a heavy churn stream over `gnp(n, 0.25)`, pushed
/// forward on even cycles and unwound (reversed, every op flipped) on odd
/// ones, so after an even number of cycles every multiplicity is zero.
pub(crate) fn churn_cycles(n: usize, seed: u64, cycles: usize) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed);
    let h = Hypergraph::from_graph(&gnp(n, 0.25, &mut rng));
    let base = heavy_stream(&h, &mut rng).updates;
    let mut updates = Vec::with_capacity(base.len() * cycles);
    for cycle in 0..cycles {
        if cycle % 2 == 0 {
            updates.extend(base.iter().cloned());
        } else {
            updates.extend(base.iter().rev().map(|u| match u.op {
                Op::Insert => Update::delete(u.edge.clone()),
                Op::Delete => Update::insert(u.edge.clone()),
            }));
        }
    }
    updates
}

/// One soak's workload: its size, its churn-cycle stream, and a scratch
/// directory for logs, snapshots and postmortems (removed on drop).
pub(crate) struct Soak {
    /// Vertices in the streamed graph.
    pub n: usize,
    /// Boosted repetitions (= supervised shards).
    pub repetitions: usize,
    pub seed: u64,
    pub updates: Vec<Update>,
    pub dir: PathBuf,
}

impl Soak {
    pub fn new(tag: &str, n: usize, repetitions: usize, seed: u64, cycles: usize) -> Soak {
        let dir = std::env::temp_dir().join(format!("dgs-{tag}-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Soak {
            n,
            repetitions,
            seed,
            updates: churn_cycles(n, seed, cycles),
            dir,
        }
    }

    /// The shard factory of the soak's ingestors.
    pub fn build(&self) -> impl Fn(usize) -> SpanningForestSketch + Send + Sync {
        forest_build(self.n, self.seed ^ 0xB00)
    }

    /// The supervisor settings the soaks share: two flush stripes, batches
    /// of 32, a snapshot every eighth of the stream, no scrub, and a
    /// quarantined shard stays down (E20 turns the repair ladder back on).
    pub fn supervisor(&self) -> SupervisorConfig {
        SupervisorConfig {
            repetitions: self.repetitions,
            threads: 2,
            batch_size: 32,
            rebuild_after_flushes: u64::MAX,
            scrub_interval: 0,
            checkpoint: CheckpointConfig {
                snapshot_interval: (self.updates.len() / 8).max(256) as u64,
                ..CheckpointConfig::default()
            },
            seed: self.seed,
            ..SupervisorConfig::default()
        }
    }

    /// Fires `fault` at `sup` when it strikes a shard: a transient
    /// `ShardError`, a `ShardPoison`, a `SilentCorruption` (a valid ghost
    /// edge applied to one shard off the log, chosen by the stream
    /// position `pos`) or a `CheckpointCorruption` (one byte flipped in
    /// each of the shard's snapshots). Returns `false`, touching nothing,
    /// for the other classes: torn tails, stalls and load are each soak's
    /// own.
    pub fn fire(
        &self,
        sup: &mut SupervisedIngestor<SpanningForestSketch>,
        fault: ChaosFault,
        pos: usize,
    ) -> bool {
        let r = sup.repetitions();
        match fault {
            ChaosFault::ShardError { shard, attempts } => sup.inject_apply_fault(
                shard % r,
                SketchError::failure("chaos", "transient shard error"),
                attempts,
            ),
            ChaosFault::ShardPoison { shard } => sup.inject_apply_fault(
                shard % r,
                SketchError::failure("chaos", "poisoned shard"),
                u32::MAX,
            ),
            ChaosFault::SilentCorruption { shard } => {
                let ghost = HyperEdge::pair((pos % (self.n - 1)) as u32, (self.n - 1) as u32);
                sup.apply_divergent_update(shard % r, &Update::insert(ghost))
                    .expect("divergent update");
            }
            ChaosFault::CheckpointCorruption { shard } => {
                corrupt_snapshots(sup.shard_store(shard % r).dir())
            }
            _ => return false,
        }
        true
    }

    /// Scores every `(epoch, answer)` against the exact component count of
    /// `updates[..epoch]`, sweeping the stream forward once.
    pub fn tally(&self, mut answers: Vec<(u64, SupervisedAnswer<usize>)>) -> Tally {
        answers.sort_by_key(|(epoch, _)| *epoch);
        let mut live: BTreeMap<HyperEdge, i64> = BTreeMap::new();
        // The exact count at epoch `at`; no edges at epoch 0.
        let (mut at, mut truth) = (0usize, self.n);
        let mut tally = Tally {
            worst_effective_delta: 1.0,
            ..Tally::default()
        };
        for (epoch, answer) in &answers {
            let epoch = *epoch as usize;
            if epoch != at {
                for u in &self.updates[at..epoch] {
                    *live.entry(u.edge.clone()).or_insert(0) += u.op.delta();
                }
                at = epoch;
                truth = exact_components(self.n, &live);
            }
            let value = match answer {
                SupervisedAnswer::Full { value, .. } => value,
                SupervisedAnswer::Degraded {
                    value,
                    effective_delta,
                    ..
                } => {
                    tally.degraded += 1;
                    tally.worst_effective_delta = tally.worst_effective_delta.min(*effective_delta);
                    value
                }
                SupervisedAnswer::Unknown { .. } => {
                    tally.unknown += 1;
                    continue;
                }
                SupervisedAnswer::DeadlineExceeded { .. } => {
                    tally.deadline += 1;
                    continue;
                }
                SupervisedAnswer::Invalid(e) => panic!("valid query flagged invalid: {e}"),
            };
            tally.answered += 1;
            if *value != truth {
                tally.silent_wrong += 1;
            }
        }
        tally
    }
}

impl Drop for Soak {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// How a soak's answers scored against exact truth.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// Full or Degraded answers.
    pub answered: u64,
    /// Degraded answers among the answered.
    pub degraded: u64,
    /// Unknown answers (every consulted repetition failed to decode).
    pub unknown: u64,
    /// Honest `DeadlineExceeded` answers.
    pub deadline: u64,
    /// Answered values that disagreed with exact truth. MUST be 0.
    pub silent_wrong: u64,
    /// Smallest effective_delta any degraded answer carried (δ^R′).
    pub worst_effective_delta: f64,
}

impl Tally {
    /// The verdicts every soak shares: it answered, and never wrongly.
    pub fn verdicts(&self) -> Verdicts {
        Verdicts::new()
            .positive("answered", self.answered)
            .zero("silent_wrong", self.silent_wrong)
    }
}

/// Exact component count over `n` vertices of the live edge multiset (a
/// hyperedge merges all its vertices).
fn exact_components(n: usize, live: &BTreeMap<HyperEdge, i64>) -> usize {
    let mut uf = UnionFind::new(n);
    for (e, _) in live.iter().filter(|(_, &mult)| mult > 0) {
        for w in e.vertices().windows(2) {
            uf.union(w[0], w[1]);
        }
    }
    uf.component_count()
}

/// Flips a byte in the middle of every snapshot file in `dir` — checkpoint
/// corruption the recovery ladder's checksums must catch.
fn corrupt_snapshots(dir: &std::path::Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.filter_map(|e| e.ok()).map(|e| e.path()) {
        match std::fs::read(&path) {
            Ok(mut bytes) if !bytes.is_empty() => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xFF;
                let _ = std::fs::write(&path, &bytes);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::baseline::{guard, passing_baseline};
    use dgs_core::QueryBudget;

    #[test]
    fn even_cycles_leave_every_multiplicity_at_zero() {
        let net = |updates: &[Update]| {
            let mut m: BTreeMap<HyperEdge, i64> = BTreeMap::new();
            for u in updates {
                *m.entry(u.edge.clone()).or_insert(0) += u.op.delta();
            }
            m.retain(|_, mult| *mult != 0);
            m
        };
        let one = churn_cycles(12, 7, 1);
        assert!(!net(&one).is_empty(), "a forward cycle leaves edges live");
        for cycles in [2, 4] {
            let updates = churn_cycles(12, 7, cycles);
            assert_eq!(updates.len(), cycles * one.len());
            assert!(net(&updates).is_empty(), "{cycles} cycles");
        }
        assert_eq!(net(&churn_cycles(12, 7, 3)), net(&one));
    }

    #[test]
    fn tally_sorts_answers_into_their_classes() {
        let soak = Soak::new("tally-test", 8, 1, 3, 2);
        let len = soak.updates.len() as u64;
        let full = |value| SupervisedAnswer::Full {
            value,
            failed_repetitions: 0,
        };
        let t = soak.tally(vec![
            // Every multiplicity is back at zero at the end: n components.
            (len, full(8)),
            (0, full(8)),
            (0, full(7)),
            (
                len,
                SupervisedAnswer::Degraded {
                    value: 8,
                    healthy_repetitions: 1,
                    total_repetitions: 2,
                    effective_delta: 0.25,
                    failed_repetitions: 0,
                },
            ),
            (
                1,
                SupervisedAnswer::Unknown {
                    healthy_repetitions: 1,
                    total_repetitions: 1,
                    effective_delta: 0.5,
                },
            ),
            (
                2,
                SupervisedAnswer::DeadlineExceeded {
                    consulted: 0,
                    healthy_repetitions: 1,
                },
            ),
        ]);
        let expected = Tally {
            answered: 4,
            degraded: 1,
            unknown: 1,
            deadline: 1,
            silent_wrong: 1,
            worst_effective_delta: 0.25,
        };
        assert_eq!(t, expected);
    }

    /// A soak whose decode returns one wrong count: the tally scores it
    /// silent-wrong, and the guard fails on it.
    #[test]
    fn one_wrong_count_is_silent_wrong_and_fails_the_guard() {
        let soak = Soak::new("wrong-count-test", 10, 1, 0x50AC, 4);
        let mut sup = SupervisedIngestor::create(
            soak.dir.join("wal"),
            soak.dir.join("snap"),
            soak.n,
            2,
            SupervisorConfig {
                threads: 1,
                ..soak.supervisor()
            },
            soak.build(),
        )
        .unwrap();
        let queries = Cell::new(0u32);
        let mut answers = Vec::new();
        for (pos, u) in soak.updates.iter().enumerate() {
            sup.push(u).unwrap();
            if pos % 8 == 7 {
                queries.set(queries.get() + 1);
                let answer = sup
                    .query(&QueryBudget::default(), |_, s: &SpanningForestSketch| {
                        // The third query's decode is off by one.
                        let off = usize::from(queries.get() == 3);
                        s.try_component_count().map(|c| c + off)
                    })
                    .unwrap();
                answers.push((pos as u64 + 1, answer));
            }
        }
        let tally = soak.tally(answers);
        assert_eq!(tally.silent_wrong, 1, "{tally:?}");
        assert_eq!(tally.answered, u64::from(queries.get()));
        assert!(!tally.verdicts().pass());
        let path = passing_baseline("wrong-count");
        assert!(!guard("check-test", path.to_str().unwrap(), || tally.verdicts()));
        let _ = std::fs::remove_file(path);
    }
}
