//! Edge connectivity from k-skeleton sketches — the "main success story for
//! graph sketching" that Section 1.1 contrasts vertex connectivity against,
//! here extended to hypergraphs via the Theorem 13/14 machinery.
//!
//! The decode rule is exact given a correct skeleton: a (k)-skeleton `H'`
//! satisfies `min(|δ_{H'}(S)|, k) = min(|δ_H(S)|, k)` for every cut, so
//!
//! ```text
//!   min(λ(H'), k) = min(λ(H), k)
//! ```
//!
//! Running an exact global-min-cut algorithm on the small decoded skeleton
//! therefore answers `min(λ, k)` — in particular "is the (hyper)graph
//! k-edge-connected?" — from `O(kn polylog n)` bits of dynamic-stream
//! state. Note the contrast that motivates the paper: the same trick does
//! **not** work for vertex connectivity, because unions of arbitrary
//! spanning forests certify edge cuts but not vertex cuts (Section 3's
//! scan-first lower bound, Theorem 21).

use dgs_connectivity::{ForestParams, KSkeletonSketch};
use dgs_field::SeedTree;
use dgs_hypergraph::algo::hyper_cut::hyper_min_cut;
use dgs_hypergraph::{EdgeSpace, HyperEdge, Hypergraph};
use dgs_sketch::SketchResult;

/// A dynamic-stream sketch answering `min(λ(G), k)` for graphs and
/// hypergraphs.
#[derive(Clone, Debug)]
pub struct EdgeConnSketch {
    skeleton: KSkeletonSketch,
    k: usize,
}

impl EdgeConnSketch {
    /// Builds a sketch able to resolve edge connectivity up to `k`.
    pub fn new(space: EdgeSpace, k: usize, seeds: &SeedTree, params: ForestParams) -> Self {
        assert!(k >= 1);
        EdgeConnSketch {
            skeleton: KSkeletonSketch::new(space, k, seeds, params),
            k,
        }
    }

    /// The resolution bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The underlying edge space.
    pub fn space(&self) -> &EdgeSpace {
        self.skeleton.space()
    }

    /// Fallible signed hyperedge update; see
    /// [`KSkeletonSketch::try_update`].
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn try_update(&mut self, e: &HyperEdge, delta: i64) -> SketchResult<()> {
        self.skeleton.try_update(e, delta)
    }

    /// Applies a signed hyperedge update.
    ///
    /// # Panics
    /// Panics on a malformed edge; see [`try_update`](Self::try_update).
    pub fn update(&mut self, e: &HyperEdge, delta: i64) {
        self.skeleton.update(e, delta);
    }

    /// Fallible edge-connectivity query: an uncertified skeleton decode
    /// propagates as a retryable [`dgs_sketch::SketchError::SketchFailure`]
    /// instead of an understated `min(λ, k)`.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn try_edge_connectivity(&self) -> SketchResult<(usize, Vec<bool>)> {
        let n = self.space().n();
        let skeleton = Hypergraph::from_edges(n, self.skeleton.try_decode()?);
        Ok(match hyper_min_cut(&skeleton) {
            Some((lambda, side)) => (lambda.min(self.k), side),
            None => (0, vec![false; n]), // n < 2: no cut exists
        })
    }

    /// Attach metric handles to every skeleton layer (forest decode
    /// counters and decode-phase histograms); see
    /// [`KSkeletonSketch::set_sink`].
    pub fn set_sink(&mut self, sink: &dgs_obs::MetricsSink) {
        self.skeleton.set_sink(sink);
    }

    /// Decodes the skeleton and returns `min(λ(G), k)` (whp), together with
    /// a witness side of a minimum cut when `λ(G) < k` (for `λ >= k` the
    /// side witnesses some cut of size ≥ k in the skeleton, not necessarily
    /// minimum in `G`).
    ///
    /// # Panics
    /// Panics if the skeleton decode cannot be certified; see
    /// [`try_edge_connectivity`](Self::try_edge_connectivity).
    pub fn edge_connectivity(&self) -> (usize, Vec<bool>) {
        match self.try_edge_connectivity() {
            Ok(out) => out,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible k-edge-connectivity verdict.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn try_is_k_edge_connected(&self) -> SketchResult<bool> {
        Ok(self.try_edge_connectivity()?.0 >= self.k)
    }

    /// True (whp) iff the sketched (hyper)graph is k-edge-connected.
    ///
    /// # Panics
    /// Panics if the skeleton decode cannot be certified; see
    /// [`try_is_k_edge_connected`](Self::try_is_k_edge_connected).
    pub fn is_k_edge_connected(&self) -> bool {
        self.edge_connectivity().0 >= self.k
    }

    /// Sketch size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.skeleton.size_bytes()
    }

    /// Largest per-vertex message in the player model.
    pub fn max_player_message_bytes(&self) -> usize {
        self.skeleton.max_player_message_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_field::prng::*;
    use dgs_hypergraph::algo::hyper_cut::hyper_edge_connectivity;
    use dgs_hypergraph::generators::{
        gnp, harary, planted_edge_cut, planted_hyper_cut, random_uniform_hypergraph,
    };
    use dgs_hypergraph::Graph;
    use dgs_sketch::Profile;

    fn sketch_for(h: &Hypergraph, k: usize, label: u64) -> EdgeConnSketch {
        let r = h.max_rank().max(2);
        let space = EdgeSpace::new(h.n(), r).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let mut sk = EdgeConnSketch::new(space, k, &SeedTree::new(0xEC0).child(label), params);
        for e in h.edges() {
            sk.update(e, 1);
        }
        sk
    }

    #[test]
    fn harary_graphs_resolve_exactly() {
        // H_{k,n} has edge connectivity exactly k.
        for (lambda, n) in [(2usize, 12usize), (3, 12), (4, 13)] {
            let h = Hypergraph::from_graph(&harary(lambda, n));
            for k in [lambda - 1, lambda, lambda + 2] {
                if k == 0 {
                    continue;
                }
                let sk = sketch_for(&h, k, (lambda * 10 + k) as u64);
                let (est, side) = sk.edge_connectivity();
                assert_eq!(est, lambda.min(k), "H_{{{lambda},{n}}} with k = {k}");
                if lambda < k {
                    // The witness side must realize the minimum cut.
                    assert_eq!(h.cut_size(&side), lambda);
                }
            }
        }
    }

    #[test]
    fn planted_cuts_are_found_with_witness() {
        let mut rng = StdRng::seed_from_u64(1);
        let (g, _) = planted_edge_cut(8, 8, 2, 0.9, &mut rng);
        let h = Hypergraph::from_graph(&g);
        let sk = sketch_for(&h, 4, 50);
        let (est, side) = sk.edge_connectivity();
        assert_eq!(est, 2);
        assert_eq!(h.cut_size(&side), 2);
        assert!(!sk.is_k_edge_connected());
    }

    #[test]
    fn hypergraph_edge_connectivity() {
        let mut rng = StdRng::seed_from_u64(2);
        let (h, _) = planted_hyper_cut(7, 7, 3, 16, 2, &mut rng);
        assert_eq!(hyper_edge_connectivity(&h), 2);
        let sk = sketch_for(&h, 5, 60);
        let (est, side) = sk.edge_connectivity();
        assert_eq!(est, 2);
        assert_eq!(h.cut_size(&side), 2);
    }

    #[test]
    fn saturates_at_k_for_dense_graphs() {
        let h = Hypergraph::from_graph(&Graph::complete(10)); // λ = 9
        let sk = sketch_for(&h, 3, 70);
        let (est, _) = sk.edge_connectivity();
        assert_eq!(est, 3, "answer is min(λ, k)");
        assert!(sk.is_k_edge_connected());
    }

    #[test]
    fn disconnected_reports_zero() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3)]);
        let sk = sketch_for(&Hypergraph::from_graph(&g), 2, 80);
        let (est, side) = sk.edge_connectivity();
        assert_eq!(est, 0);
        assert!(side.iter().any(|&b| b) && side.iter().any(|&b| !b));
    }

    #[test]
    fn deletion_churn_respected() {
        let mut rng = StdRng::seed_from_u64(3);
        // Random 3-uniform hypergraph streamed with noise inserted/deleted.
        let h = random_uniform_hypergraph(10, 3, 25, &mut rng);
        let truth = hyper_edge_connectivity(&h);
        let space = EdgeSpace::new(10, 3).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let mut sk = EdgeConnSketch::new(space, 4, &SeedTree::new(0xEC0).child(90), params);
        let noise = random_uniform_hypergraph(10, 3, 15, &mut rng);
        for e in noise.edges() {
            if !h.has_edge(e) {
                sk.update(e, 1);
            }
        }
        for e in h.edges() {
            sk.update(e, 1);
        }
        for e in noise.edges() {
            if !h.has_edge(e) {
                sk.update(e, -1);
            }
        }
        assert_eq!(sk.edge_connectivity().0, truth.min(4));
    }

    #[test]
    fn agrees_with_exact_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(4);
        for trial in 0..8 {
            let n = rng.gen_range(6..12);
            let g = gnp(n, rng.gen_range(0.3..0.8), &mut rng);
            let h = Hypergraph::from_graph(&g);
            let k = rng.gen_range(1..5);
            let truth = hyper_edge_connectivity(&h).min(k);
            let sk = sketch_for(&h, k, 100 + trial);
            assert_eq!(sk.edge_connectivity().0, truth, "trial {trial}, k = {k}");
        }
    }
}
