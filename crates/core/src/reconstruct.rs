//! `light_k` recovery and cut-degenerate hypergraph reconstruction
//! (Section 4.2, Theorem 15).
//!
//! The sketch is a (k+1)-skeleton sketch `B`. The decoder peels:
//!
//! ```text
//!   E_i = { e : λ_e(G \ (E_1 ∪ … ∪ E_{i-1})) <= k }
//! ```
//!
//! using three facts:
//!
//! 1. Linearity: `B(G - E_1 - … - E_{i-1}) = B(G) - Σ_j B(E_j)`, and the
//!    `E_j` are functions of the input graph alone, so the union bound over
//!    the (fixed!) events "skeleton decode of `G - E_1 - … - E_i` fails" is
//!    valid — exactly the distinction Section 4.2 belabors.
//! 2. Every edge with `λ_e <= k` survives into any (k+1)-skeleton: its
//!    witnessing cut has at most `k` edges and the skeleton must keep all
//!    of them.
//! 3. Lemma 12: `λ_e(skeleton) <= k` iff `λ_e(G_current) <= k`, so the
//!    exact flow test on the *decoded, small* skeleton identifies `E_i`.
//!
//! `light_k(G) = ∪ E_i`; for a k-cut-degenerate hypergraph it is the whole
//! edge set, giving full reconstruction from `O(k polylog n)`-size
//! vertex-based messages.

use dgs_connectivity::{ForestParams, KSkeletonSketch};
use dgs_field::SeedTree;
use dgs_hypergraph::algo::strength::lambda_e;
use dgs_hypergraph::{EdgeSpace, HyperEdge, Hypergraph};
use dgs_sketch::{SketchError, SketchResult};

/// The outcome of a `light_k` peeling.
#[derive(Clone, Debug)]
pub struct LightRecovery {
    /// `E_1, E_2, …` in peeling order.
    pub rounds: Vec<Vec<HyperEdge>>,
    /// True iff the residual graph after peeling is empty — i.e. the
    /// recovered edges are the *entire* graph (k-cut-degenerate input).
    pub complete: bool,
}

impl LightRecovery {
    /// All recovered edges, flattened.
    pub fn edges(&self) -> Vec<HyperEdge> {
        self.rounds.iter().flatten().cloned().collect()
    }

    /// Total number of recovered edges.
    pub fn edge_count(&self) -> usize {
        self.rounds.iter().map(|r| r.len()).sum()
    }
}

/// A sketch from which `light_k(G)` can be recovered (Theorem 15).
#[derive(Clone, Debug)]
pub struct LightRecoverySketch {
    skeleton: KSkeletonSketch,
    k: usize,
}

impl LightRecoverySketch {
    /// Builds the sketch: a (k+1)-skeleton sketch over `space`.
    pub fn new(space: EdgeSpace, k: usize, seeds: &SeedTree, params: ForestParams) -> Self {
        assert!(k >= 1);
        LightRecoverySketch {
            skeleton: KSkeletonSketch::new(space, k + 1, seeds, params),
            k,
        }
    }

    /// **Ablation constructor** (experiment E11): the Section 4.2 fallacy of
    /// reusing one spanning sketch for every skeleton layer. The decoder is
    /// unchanged; only the independence is removed.
    pub fn new_reused_seed_ablation(
        space: EdgeSpace,
        k: usize,
        seeds: &SeedTree,
        params: ForestParams,
    ) -> Self {
        assert!(k >= 1);
        LightRecoverySketch {
            skeleton: KSkeletonSketch::new_with_shared_seed(space, k + 1, seeds, params),
            k,
        }
    }

    /// The peeling parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The underlying edge space.
    pub fn space(&self) -> &EdgeSpace {
        self.skeleton.space()
    }

    /// Signed hyperedge update; see [`KSkeletonSketch::try_update`].
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn try_update(&mut self, e: &HyperEdge, delta: i64) -> SketchResult<()> {
        self.skeleton.try_update(e, delta)
    }

    /// Runs the peeling decoder. A layer decode that cannot be certified
    /// propagates as a retryable [`SketchError::SketchFailure`] rather than
    /// silently terminating the peeling early (which would understate
    /// `light_k`).
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn try_recover(&self) -> SketchResult<LightRecovery> {
        let n = self.space().n();
        let mut adjusted = self.skeleton.clone();
        let mut rounds: Vec<Vec<HyperEdge>> = Vec::new();
        let mut complete = false;
        // At most n nonempty rounds (each increases the component count).
        for _ in 0..=n {
            let skel_edges = adjusted.try_decode()?;
            if skel_edges.is_empty() {
                // Spanning graph of the residual is empty => residual empty.
                complete = true;
                break;
            }
            let skel = Hypergraph::from_edges(n, skel_edges);
            let mut e_i: Vec<HyperEdge> = Vec::new();
            for idx in 0..skel.edge_count() {
                if lambda_e(&skel, idx, self.k + 1) <= self.k {
                    e_i.push(skel.edges()[idx].clone());
                }
            }
            if e_i.is_empty() {
                // Residual is nonempty but entirely heavy: peeling done,
                // reconstruction incomplete.
                break;
            }
            for e in &e_i {
                adjusted.try_update(e, -1)?;
            }
            rounds.push(e_i);
        }
        Ok(LightRecovery { rounds, complete })
    }

    /// Full reconstruction: `Ok(Some(G))` iff the input was
    /// k-cut-degenerate, `Ok(None)` if the peeling provably stalled on
    /// heavy edges (an explicit "not reconstructible", not a failure), and
    /// `Err` if a decode could not be certified.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn try_reconstruct(&self) -> SketchResult<Option<Hypergraph>> {
        let rec = self.try_recover()?;
        Ok(rec
            .complete
            .then(|| Hypergraph::from_edges(self.space().n(), rec.edges())))
    }

    /// Cell-wise sum with a same-seeded sketch (sharded ingestion); a
    /// different `k` or a shape/seed mismatch is
    /// [`SketchError::InvalidInput`].
    pub fn try_add_assign_sketch(&mut self, rhs: &LightRecoverySketch) -> SketchResult<()> {
        if self.k != rhs.k {
            return Err(SketchError::invalid(format!(
                "light parameter mismatch: k {} vs {}",
                self.k, rhs.k
            )));
        }
        self.skeleton.try_add_assign_sketch(&rhs.skeleton)
    }

    /// Sketch size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.skeleton.size_bytes()
    }

    /// Largest per-vertex message in the simultaneous communication model —
    /// the `O(k polylog n)` bound of Theorem 15 / Becker et al.
    pub fn max_player_message_bytes(&self) -> usize {
        self.skeleton.max_player_message_bytes()
    }

    /// Player `v`'s message — the Theorem 15 claim made operational: `k+1`
    /// forest messages computed from `v`'s incident hyperedges alone.
    pub fn try_player_message(
        space: &EdgeSpace,
        k: usize,
        v: dgs_hypergraph::VertexId,
        incident_edges: &[HyperEdge],
        seeds: &SeedTree,
        params: dgs_connectivity::ForestParams,
    ) -> SketchResult<Vec<dgs_connectivity::PlayerMessage>> {
        KSkeletonSketch::try_player_message(space, k + 1, v, incident_edges, seeds, params)
    }

    /// The referee's assembly step for one player; see
    /// [`KSkeletonSketch::try_install_player`].
    pub fn try_install_player(
        &mut self,
        messages: Vec<dgs_connectivity::PlayerMessage>,
    ) -> SketchResult<()> {
        self.skeleton.try_install_player(messages)
    }
}

impl dgs_field::Codec for LightRecoverySketch {
    fn encode(&self, w: &mut dgs_field::Writer) {
        w.put_usize(self.k);
        self.skeleton.encode(w);
    }
    fn decode(r: &mut dgs_field::Reader<'_>) -> Result<Self, dgs_field::CodecError> {
        let k = r.get_len(1 << 20)?.max(1);
        let skeleton = <KSkeletonSketch as dgs_field::Codec>::decode(r)?;
        if skeleton.k() != k + 1 {
            return Err(dgs_field::CodecError {
                offset: 0,
                message: format!("skeleton has {} layers, expected {}", skeleton.k(), k + 1),
            });
        }
        Ok(LightRecoverySketch { skeleton, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_field::prng::*;
    use dgs_hypergraph::algo::strength::light_k_exact;
    use dgs_hypergraph::generators::{grid, lemma10_gadget, random_d_degenerate, random_tree};
    use dgs_hypergraph::Graph;
    use dgs_sketch::Profile;
    use std::collections::BTreeSet;

    fn sketch_for(h: &Hypergraph, k: usize, label: u64) -> LightRecoverySketch {
        let r = h.max_rank().max(2);
        let space = EdgeSpace::new(h.n(), r).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let mut sk = LightRecoverySketch::new(space, k, &SeedTree::new(606).child(label), params);
        for e in h.edges() {
            sk.try_update(e, 1).unwrap();
        }
        sk
    }

    fn edge_set(edges: &[HyperEdge]) -> BTreeSet<HyperEdge> {
        edges.iter().cloned().collect()
    }

    #[test]
    fn reconstructs_trees() {
        let mut rng = StdRng::seed_from_u64(1);
        for trial in 0..5 {
            let g = random_tree(15, &mut rng);
            let h = Hypergraph::from_graph(&g);
            let sk = sketch_for(&h, 1, trial);
            let rec = sk
                .try_reconstruct()
                .unwrap()
                .expect("tree is 1-cut-degenerate");
            assert_eq!(rec.edge_count(), h.edge_count(), "trial {trial}");
            for e in h.edges() {
                assert!(rec.has_edge(e), "trial {trial}: missing {e:?}");
            }
        }
    }

    #[test]
    fn reconstructs_grid_with_k_2() {
        let g = grid(4, 4);
        let h = Hypergraph::from_graph(&g);
        let sk = sketch_for(&h, 2, 10);
        let rec = sk
            .try_reconstruct()
            .unwrap()
            .expect("grid is 2-cut-degenerate");
        assert_eq!(rec.edge_count(), h.edge_count());
    }

    #[test]
    fn reconstructs_lemma10_gadget_beyond_degeneracy_based_methods() {
        // The gadget is NOT 2-degenerate (Becker et al.'s d-degenerate
        // reconstruction with d = 2 would not apply) but IS
        // 2-cut-degenerate — Theorem 15 still reconstructs it with k = 2.
        let g = lemma10_gadget();
        let h = Hypergraph::from_graph(&g);
        let sk = sketch_for(&h, 2, 11);
        let rec = sk
            .try_reconstruct()
            .unwrap()
            .expect("gadget is 2-cut-degenerate");
        assert_eq!(rec.edge_count(), h.edge_count());
        for e in h.edges() {
            assert!(rec.has_edge(e));
        }
    }

    #[test]
    fn recovery_matches_exact_light_k_on_mixed_graphs() {
        // A graph that is only partially light: K6 core + pendant trees.
        let mut g = Graph::new(12);
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                g.add_edge(u, v);
            }
        }
        for i in 6..12u32 {
            g.add_edge(i, i - 6);
        }
        let h = Hypergraph::from_graph(&g);
        for k in [1usize, 2] {
            let sk = sketch_for(&h, k, 20 + k as u64);
            let rec = sk.try_recover().unwrap();
            assert!(!rec.complete, "K6 edges are 5-strong, k = {k}");
            let (exact, _) = light_k_exact(&h, k);
            let exact_set: BTreeSet<HyperEdge> =
                exact.iter().map(|&i| h.edges()[i].clone()).collect();
            assert_eq!(edge_set(&rec.edges()), exact_set, "k = {k}");
        }
    }

    #[test]
    fn recovery_from_dynamic_stream_with_deletions() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_d_degenerate(14, 2, &mut rng);
        let h = Hypergraph::from_graph(&g);
        let space = EdgeSpace::graph(14).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let mut sk = LightRecoverySketch::new(space, 2, &SeedTree::new(707), params);
        // Noise in, real edges in, noise out.
        let noise: Vec<HyperEdge> = (0..20)
            .map(|_| {
                let a = rng.gen_range(0..14u32);
                let mut b = rng.gen_range(0..14u32);
                while b == a {
                    b = rng.gen_range(0..14u32);
                }
                HyperEdge::pair(a, b)
            })
            .filter(|e| {
                let (u, v) = e.as_pair();
                !g.has_edge(u, v)
            })
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        for e in &noise {
            sk.try_update(e, 1).unwrap();
        }
        for e in h.edges() {
            sk.try_update(e, 1).unwrap();
        }
        for e in &noise {
            sk.try_update(e, -1).unwrap();
        }
        // random_d_degenerate(., 2, .) graphs may have cut-degeneracy 1 or 2;
        // k = 2 covers both.
        let rec = sk
            .try_reconstruct()
            .unwrap()
            .expect("2-cut-degenerate after churn");
        assert_eq!(rec.edge_count(), h.edge_count());
    }

    #[test]
    fn hypergraph_light_recovery() {
        use dgs_hypergraph::HyperEdge as HE;
        // A "hypertree": hyperedges chained through single shared vertices —
        // every edge has λ_e = 1.
        let h = Hypergraph::from_edges(
            9,
            vec![
                HE::new(vec![0, 1, 2]).unwrap(),
                HE::new(vec![2, 3, 4]).unwrap(),
                HE::new(vec![4, 5, 6]).unwrap(),
                HE::new(vec![6, 7, 8]).unwrap(),
            ],
        );
        let sk = sketch_for(&h, 1, 30);
        let rec = sk
            .try_reconstruct()
            .unwrap()
            .expect("hypertree is 1-cut-degenerate");
        assert_eq!(rec.edge_count(), 4);
    }

    #[test]
    fn reconstruct_fails_loudly_when_k_too_small() {
        let h = Hypergraph::from_graph(&Graph::complete(7));
        let sk = sketch_for(&h, 2, 40);
        assert!(
            sk.try_reconstruct().unwrap().is_none(),
            "K7 is not 2-cut-degenerate"
        );
        let rec = sk.try_recover().unwrap();
        assert!(!rec.complete);
        assert_eq!(rec.edge_count(), 0, "no K7 edge has λ_e <= 2");
    }

    #[test]
    fn peeling_round_structure_matches_exact() {
        // Cycle with a pendant: round 1 takes the pendant (λ=1)... with
        // k = 1, cycle edges (λ=2) stay.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5)]);
        let h = Hypergraph::from_graph(&g);
        let sk = sketch_for(&h, 1, 50);
        let rec = sk.try_recover().unwrap();
        assert!(!rec.complete);
        assert_eq!(rec.rounds.len(), 1);
        assert_eq!(rec.rounds[0], vec![HyperEdge::pair(4, 5)]);
    }

    #[test]
    fn multi_round_peeling() {
        // k = 2: removing the outer cycle makes inner edges light in a
        // second round? Build: triangle {0,1,2} with each corner also on a
        // path to a leaf. With k = 2 all edges go in round 1 (λ_e <= 2
        // everywhere). For a genuinely multi-round case use k = 1 on a
        // "caterpillar of cycles": pendant chain where removing pendants
        // exposes nothing new — instead verify against exact rounds.
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6)]);
        let h = Hypergraph::from_graph(&g);
        let sk = sketch_for(&h, 1, 60);
        let rec = sk.try_recover().unwrap();
        let (exact, exact_rounds) = light_k_exact(&h, 1);
        assert_eq!(rec.edge_count(), exact.len());
        assert_eq!(
            rec.rounds.iter().map(|r| r.len()).collect::<Vec<_>>(),
            exact_rounds
        );
    }

    #[test]
    fn message_size_accounting() {
        let h = Hypergraph::from_graph(&grid(3, 3));
        let sk1 = sketch_for(&h, 1, 70);
        let sk3 = sketch_for(&h, 3, 71);
        assert!(sk3.size_bytes() > sk1.size_bytes());
        assert!(sk3.max_player_message_bytes() > sk1.max_player_message_bytes());
        assert!(sk1.max_player_message_bytes() * h.n() >= sk1.size_bytes());
    }
}
