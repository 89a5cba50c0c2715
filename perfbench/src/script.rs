//! Seeded inputs: the workloads, their tiled update streams, their op
//! scripts, and the exact connectivity oracle every answer is checked
//! against.

use std::collections::BTreeMap;

use dgs_field::prng::{SeedableRng, StdRng};
use dgs_hypergraph::algo::UnionFind;
use dgs_hypergraph::generators::{churn_stream, gnm, gnp, ChurnConfig};
use dgs_hypergraph::{HyperEdge, Hypergraph, Op, Update, VertexId};

/// Which sketch a workload's tenant runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Forest,
    Hybrid,
}

/// One step of the closed loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    Push,
    Query,
}

/// A workload: its inputs and the service settings it runs under.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub backend: Backend,
    pub n: usize,
    /// Worker threads striping the flush over the repetitions.
    pub threads: usize,
    /// Updates between view refreshes; one epoch of the op script.
    pub refresh_every: usize,
    /// `queries_per_stop` queries follow every `push_stride` pushes; with
    /// a stride of 1 they come before each push instead.
    pub push_stride: usize,
    pub queries_per_stop: usize,
    /// Independent graphs one cycle of the stream inserts and deletes in
    /// turn, so a run's queries see many graphs, not one: with a single
    /// graph, query latency differed by a fifth between seeds.
    pub graphs: usize,
    /// Whether one whole cycle of the stream is ingested during set-up.
    pub preload: bool,
    /// A pass stops only after a whole number of rounds of this many
    /// epochs: one snapshot interval where the run reaches snapshots, so
    /// every run has the same mix of plain, copy-on-write and snapshot
    /// flushes.
    pub epochs_per_round: usize,
}

pub const REPETITIONS: usize = 3;
pub const BATCH: usize = 64;
pub const SNAPSHOT_INTERVAL: u64 = 1 << 14;
/// Edge rank bound of every workload's stream (graphs).
pub const MAX_RANK: usize = 2;

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "churn-ingest",
        why: "write-heavy: WAL, l0/field kernels, apply_batch, snapshots and copy-on-write carry the load; decode runs once per 512 updates",
        backend: Backend::Forest,
        n: 64,
        threads: 2,
        refresh_every: 512,
        push_stride: 512,
        queries_per_stop: 1,
        graphs: 8,
        preload: false,
        epochs_per_round: SNAPSHOT_INTERVAL as usize / 512,
    },
    Spec {
        name: "query-serve",
        why: "read-heavy: Boruvka decode, l0 sampling and peeling on repetitions larger than L3; a write-path change should not move it",
        backend: Backend::Forest,
        n: 256,
        threads: 1,
        refresh_every: 64,
        push_stride: 1,
        queries_per_stop: 4,
        graphs: 1,
        preload: true,
        epochs_per_round: 1,
    },
    Spec {
        name: "sparse-hybrid",
        why: "exact resident path: union-find answers, so service, supervise and WAL overhead and the idle inner sketch's copy-on-write show",
        backend: Backend::Hybrid,
        n: 64,
        threads: 1,
        refresh_every: 512,
        push_stride: 8,
        queries_per_stop: 1,
        graphs: 8,
        preload: false,
        epochs_per_round: SNAPSHOT_INTERVAL as usize / 512,
    },
];

pub fn workload(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Spec {
    /// The op script of one epoch: pushes and queries in closed-loop
    /// order. The view refreshes right after the epoch's last push.
    pub fn epoch_steps(&self) -> Vec<Step> {
        let mut steps = Vec::new();
        let mut pushes = 0;
        while pushes < self.refresh_every {
            if self.push_stride == 1 {
                steps.extend(std::iter::repeat_n(Step::Query, self.queries_per_stop));
                steps.push(Step::Push);
                pushes += 1;
            } else {
                steps.extend(std::iter::repeat_n(Step::Push, self.push_stride));
                pushes += self.push_stride;
                steps.extend(std::iter::repeat_n(Step::Query, self.queries_per_stop));
            }
        }
        steps
    }

    pub fn queries_per_epoch(&self) -> usize {
        self.epoch_steps()
            .iter()
            .filter(|s| **s == Step::Query)
            .count()
    }

    /// The base stream of one cycle, drawn from `seed`: the churn stream
    /// of one graph, or with several graphs each graph's churn stream
    /// followed by its undoing, so the cycle ends on the empty graph.
    pub fn base_stream(&self, seed: u64) -> Vec<Update> {
        let mut rng = StdRng::seed_from_u64(seed ^ salt(self.name));
        let mut base = Vec::new();
        for _ in 0..self.graphs {
            let (graph, churn) = match self.name {
                "churn-ingest" => (
                    gnp(self.n, 8.0 / (self.n - 1) as f64, &mut rng),
                    ChurnConfig {
                        noise_ratio: 1.0,
                        churn_ratio: 0.5,
                    },
                ),
                "query-serve" => (
                    gnp(self.n, 8.0 / (self.n - 1) as f64, &mut rng),
                    ChurnConfig::default(),
                ),
                _ => (gnm(self.n, 80, &mut rng), ChurnConfig::default()),
            };
            let stream = churn_stream(&Hypergraph::from_graph(&graph), churn, &mut rng).updates;
            if self.graphs > 1 {
                let undo: Vec<Update> = stream.iter().rev().map(inverse).collect();
                base.extend(stream);
                base.extend(undo);
            } else {
                base = stream;
            }
        }
        base
    }

    /// Seed of the sketches, derived from the run's seed.
    pub fn sketch_seed(&self, seed: u64) -> u64 {
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt(self.name)
    }
}

fn salt(name: &str) -> u64 {
    dgs_field::fnv1a64(name.as_bytes())
}

/// The update that undoes `u`.
fn inverse(u: &Update) -> Update {
    match u.op {
        Op::Insert => Update::delete(u.edge.clone()),
        Op::Delete => Update::insert(u.edge.clone()),
    }
}

/// The base stream tiled in alternating forward and reversed cycles: odd
/// cycles undo the base stream back to the empty graph, so multiplicities
/// stay in {0, 1} however long the run is.
#[derive(Clone, Debug)]
pub struct Tiled {
    base: Vec<Update>,
}

impl Tiled {
    pub fn new(base: Vec<Update>) -> Tiled {
        assert!(!base.is_empty(), "empty base stream");
        Tiled { base }
    }

    pub fn cycle_len(&self) -> usize {
        self.base.len()
    }

    pub fn base(&self) -> &[Update] {
        &self.base
    }

    /// Update number `g` of the tiled stream.
    pub fn update(&self, g: u64) -> Update {
        let len = self.base.len() as u64;
        let (cycle, r) = (g / len, (g % len) as usize);
        if cycle % 2 == 0 {
            self.base[r].clone()
        } else {
            inverse(&self.base[self.base.len() - 1 - r])
        }
    }

    /// The live graph after `g` updates equals the base stream's prefix
    /// of this length.
    pub fn prefix_len(&self, g: u64) -> usize {
        let len = self.base.len() as u64;
        let r = (g % len) as usize;
        if (g / len).is_multiple_of(2) {
            r
        } else {
            self.base.len() - r
        }
    }
}

/// Canonical component labels: entry `i` is the smallest vertex id in the
/// component of `vertices[i]`.
pub fn canonical_labels(uf: &mut UnionFind, vertices: &[VertexId]) -> Vec<VertexId> {
    let mut min_of_root = vec![VertexId::MAX; vertices.len()];
    let roots: Vec<u32> = (0..vertices.len() as u32).map(|i| uf.find(i)).collect();
    for (i, &r) in roots.iter().enumerate() {
        let m = &mut min_of_root[r as usize];
        *m = (*m).min(vertices[i]);
    }
    roots.iter().map(|&r| min_of_root[r as usize]).collect()
}

/// Exact component labels of every prefix of a base stream, computed by
/// union-find over the live edge multiset.
pub struct Truth {
    by_prefix: Vec<Vec<VertexId>>,
    peak_support: usize,
    deletes: usize,
}

impl Truth {
    pub fn new(n: usize, base: &[Update]) -> Truth {
        let vertices: Vec<VertexId> = (0..n as VertexId).collect();
        let mut live: BTreeMap<HyperEdge, i64> = BTreeMap::new();
        let labels_of = |live: &BTreeMap<HyperEdge, i64>| {
            let mut uf = UnionFind::new(n);
            for e in live.keys() {
                let vs = e.vertices();
                for &v in &vs[1..] {
                    uf.union(vs[0], v);
                }
            }
            canonical_labels(&mut uf, &vertices)
        };
        let mut by_prefix = vec![labels_of(&live)];
        let mut peak_support = 0;
        for u in base {
            let m = live.entry(u.edge.clone()).or_insert(0);
            *m += u.op.delta();
            if *m == 0 {
                live.remove(&u.edge);
            }
            peak_support = peak_support.max(live.len());
            by_prefix.push(labels_of(&live));
        }
        let deletes = base.iter().filter(|u| u.op == Op::Delete).count();
        Truth {
            by_prefix,
            peak_support,
            deletes,
        }
    }

    pub fn labels(&self, prefix: usize) -> &[VertexId] {
        &self.by_prefix[prefix]
    }

    /// Largest number of live edges at any point of the stream.
    pub fn peak_support(&self) -> usize {
        self.peak_support
    }

    /// Share of the base stream's updates that are deletions (the tiled
    /// stream has the same share over whole forward/reverse cycle pairs).
    pub fn delete_share(&self) -> f64 {
        self.deletes as f64 / (self.by_prefix.len() - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_baselines::StoreAll;
    use dgs_hypergraph::algo::hyper_component_labels;

    fn store_all_labels(store: &StoreAll, n: usize) -> Vec<VertexId> {
        let reps = hyper_component_labels(&store.hypergraph());
        let mut uf = UnionFind::new(n);
        for (v, &r) in reps.iter().enumerate() {
            uf.union(v as u32, r);
        }
        canonical_labels(&mut uf, &(0..n as VertexId).collect::<Vec<_>>())
    }

    #[test]
    fn oracle_matches_store_all_on_every_prefix_of_a_tiled_stream() {
        for spec in WORKLOADS.iter().filter(|w| w.n == 64) {
            let tiled = Tiled::new(spec.base_stream(7));
            let truth = Truth::new(spec.n, tiled.base());
            let mut store = StoreAll::new(spec.n);
            // Three cycles: StoreAll rejects any multiplicity outside
            // {0, 1}, so this also checks the tiling itself.
            for g in 0..3 * tiled.cycle_len() as u64 {
                if g % 37 == 0 {
                    assert_eq!(
                        truth.labels(tiled.prefix_len(g)),
                        store_all_labels(&store, spec.n).as_slice(),
                        "{} prefix {g}",
                        spec.name
                    );
                }
                store
                    .process(&tiled.update(g))
                    .expect("strict multiplicity");
            }
            assert!(truth.peak_support() >= store.peak_edge_count());
        }
    }

    #[test]
    fn op_scripts_have_the_documented_shape() {
        let by = |name| workload(name).expect("workload");
        let churn = by("churn-ingest").epoch_steps();
        assert_eq!(churn.len(), 513);
        assert_eq!(churn[512], Step::Query);
        let serve = by("query-serve");
        assert_eq!(serve.queries_per_epoch(), 256);
        assert_eq!(serve.epoch_steps().last(), Some(&Step::Push));
        let hybrid = by("sparse-hybrid");
        assert_eq!(hybrid.queries_per_epoch(), 64);
        assert_eq!(
            hybrid.epoch_steps()[..9],
            [[Step::Push; 8].as_slice(), &[Step::Query]].concat()
        );
        assert_eq!(
            by("sparse-hybrid").base_stream(3),
            by("sparse-hybrid").base_stream(3)
        );
    }
}
