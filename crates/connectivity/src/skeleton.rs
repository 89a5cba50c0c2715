//! k-skeleton sketches (Theorem 14).
//!
//! A k-skeleton of `H` keeps `|δ(S)| >= min(|δ_H(S)|, k)` for every cut.
//! Following Section 4.1: `F_1 ∪ … ∪ F_k` is a k-skeleton when `F_i` is a
//! spanning graph of `G \ (F_1 ∪ … ∪ F_{i-1})`, and `F_i` is decoded from
//! the *i-th independent* spanning sketch adjusted by linearity:
//! `A^i(G - F_1 - … - F_{i-1}) = A^i(G) - Σ_j A^i(F_j)`.
//!
//! The independence of the `k` sketches is load-bearing (Section 4.2's
//! union-bound discussion); the experiment suite's ablation E11 demonstrates
//! what goes wrong when a single sketch is reused.

use dgs_field::SeedTree;
use dgs_hypergraph::{EdgeSpace, HyperEdge, VertexId};
use dgs_sketch::{SketchError, SketchResult};

use crate::forest::{DecodeScratch, ForestParams, SpanningForestSketch};

/// `k` independent spanning-graph sketches, decodable into a k-skeleton.
#[derive(Clone, Debug)]
pub struct KSkeletonSketch {
    layers: Vec<SpanningForestSketch>,
    k: usize,
}

impl KSkeletonSketch {
    /// A k-skeleton sketch over the full vertex set of `space`.
    pub fn new(space: EdgeSpace, k: usize, seeds: &SeedTree, params: ForestParams) -> Self {
        assert!(k >= 1, "skeleton parameter must be >= 1");
        let layers = (0..k)
            .map(|i| SpanningForestSketch::new_full(space.clone(), &seeds.child(i as u64), params))
            .collect();
        KSkeletonSketch { layers, k }
    }

    /// **Ablation constructor** reproducing the Section 4.2 fallacy: all `k`
    /// layers share one seed, i.e. a single spanning sketch "reused" `k`
    /// times. The union-bound argument breaks because each peeled spanning
    /// graph `F_i` depends on the very randomness the next decode relies on.
    /// Experiment E11 measures the resulting failures; never use this for
    /// real work.
    pub fn new_with_shared_seed(
        space: EdgeSpace,
        k: usize,
        seeds: &SeedTree,
        params: ForestParams,
    ) -> Self {
        assert!(k >= 1, "skeleton parameter must be >= 1");
        let shared = seeds.child(0);
        let layers = (0..k)
            .map(|_| SpanningForestSketch::new_full(space.clone(), &shared, params))
            .collect();
        KSkeletonSketch { layers, k }
    }

    /// The skeleton parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The underlying edge space.
    pub fn space(&self) -> &EdgeSpace {
        self.layers[0].space()
    }

    /// Fallible signed hyperedge update applied to all `k` layers; the
    /// first layer's validation rejects malformed elements before any layer
    /// is touched (all layers share one vertex set and space, so either
    /// every layer accepts or none do).
    pub fn try_update(&mut self, e: &HyperEdge, delta: i64) -> SketchResult<()> {
        for layer in &mut self.layers {
            layer.try_update(e, delta)?;
        }
        Ok(())
    }

    /// Applies a signed hyperedge update to all `k` layers.
    ///
    /// # Panics
    /// Panics on a malformed edge; see [`try_update`](Self::try_update).
    pub fn update(&mut self, e: &HyperEdge, delta: i64) {
        if let Err(err) = self.try_update(e, delta) {
            panic!("{err}");
        }
    }

    /// Applies a batch of known edges to all layers (peeling support for the
    /// `light_k` recovery of Section 4.2.1, which works with
    /// `B(G - E_1 - …) = B(G) - Σ B(E_j)`).
    pub fn apply_edges<'a>(
        &mut self,
        edges: impl IntoIterator<Item = &'a HyperEdge> + Clone,
        delta: i64,
    ) {
        for layer in &mut self.layers {
            layer.apply_edges(edges.clone(), delta);
        }
    }

    /// Fallible skeleton decode: each layer is peeled and decoded in turn;
    /// a layer whose Borůvka pass cannot be certified complete propagates
    /// [`SketchError::SketchFailure`] (retryable — every layer of an
    /// independent repetition carries fresh randomness), so a partially
    /// recovered skeleton is never passed off as the full `F_1 ∪ … ∪ F_k`.
    pub fn try_decode_layers(&self) -> SketchResult<Vec<Vec<HyperEdge>>> {
        self.try_decode_layers_par(1)
    }

    /// [`try_decode_layers`](Self::try_decode_layers) with the per-layer
    /// work striped over `threads`.
    ///
    /// The layer loop itself is inherently sequential — `F_i` is decoded
    /// from `A^i(G) - Σ_{j<i} A^i(F_j)`, so layer `i` cannot start until
    /// every earlier forest is known. Parallelism comes from inside each
    /// step instead: each layer's Borůvka decode runs on the striped
    /// decode engine, and each recovered forest is subtracted from the
    /// remaining layers by [`dgs_pool::stripe`] (contiguous runs of
    /// layers, each applying the forest with `try_update`). Field addition
    /// is exact and each forest is applied to each later layer exactly
    /// once, so the result is bit-identical to the sequential peel for
    /// every thread count; a layer whose peel panics fails the decode with
    /// a retryable [`SketchError::SketchFailure`]. One [`DecodeScratch`] is
    /// reused across all `k` decodes.
    pub fn try_decode_layers_par(&self, threads: usize) -> SketchResult<Vec<Vec<HyperEdge>>> {
        let mut recovered: Vec<Vec<HyperEdge>> = Vec::with_capacity(self.k);
        let mut adjusted: Vec<SpanningForestSketch> = self.layers.clone();
        let mut scratch = DecodeScratch::new();
        for i in 0..self.k {
            let (done, rest) = adjusted.split_at_mut(i + 1);
            let forest = done[i]
                .try_decode_with_scratch(false, threads, &mut scratch)?
                .0;
            if !forest.is_empty() {
                dgs_pool::stripe(
                    rest,
                    threads,
                    None,
                    |layer| forest.iter().try_for_each(|e| layer.try_update(e, -1)),
                    |_| Err(SketchError::failure("skeleton", "layer peel panicked")),
                )
                .into_iter()
                .collect::<SketchResult<()>>()?;
            }
            recovered.push(forest);
        }
        Ok(recovered)
    }

    /// Decodes the k-skeleton: the union `F_1 ∪ … ∪ F_k`, returned as the
    /// per-layer spanning graphs (flatten for the skeleton edge set).
    ///
    /// # Panics
    /// Panics if a layer decode cannot be certified; see
    /// [`try_decode_layers`](Self::try_decode_layers).
    pub fn decode_layers(&self) -> Vec<Vec<HyperEdge>> {
        match self.try_decode_layers() {
            Ok(layers) => layers,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible [`decode`](Self::decode).
    pub fn try_decode(&self) -> SketchResult<Vec<HyperEdge>> {
        self.try_decode_par(1)
    }

    /// [`try_decode`](Self::try_decode) with parallel per-layer work; see
    /// [`try_decode_layers_par`](Self::try_decode_layers_par).
    pub fn try_decode_par(&self, threads: usize) -> SketchResult<Vec<HyperEdge>> {
        let mut out: std::collections::BTreeSet<HyperEdge> = std::collections::BTreeSet::new();
        for layer in self.try_decode_layers_par(threads)? {
            out.extend(layer);
        }
        Ok(out.into_iter().collect())
    }

    /// Decodes the skeleton as a single deduplicated edge set.
    ///
    /// # Panics
    /// Panics if a layer decode cannot be certified; see
    /// [`try_decode`](Self::try_decode).
    pub fn decode(&self) -> Vec<HyperEdge> {
        match self.try_decode() {
            Ok(edges) => edges,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible cell-wise sum with a same-seeded sketch.
    pub fn try_add_assign_sketch(&mut self, rhs: &KSkeletonSketch) -> SketchResult<()> {
        if self.k != rhs.k {
            return Err(SketchError::invalid(format!(
                "skeleton parameter mismatch: k {} vs {}",
                self.k, rhs.k
            )));
        }
        for (a, b) in self.layers.iter_mut().zip(&rhs.layers) {
            a.try_add_assign_sketch(b)?;
        }
        Ok(())
    }

    /// Cell-wise sum with a same-seeded sketch — linearity lets sharded
    /// stream ingestion merge partial sketches.
    ///
    /// # Panics
    /// Panics on shape/seed mismatch; in-process shard merges always agree.
    pub fn add_assign_sketch(&mut self, rhs: &KSkeletonSketch) {
        if let Err(err) = self.try_add_assign_sketch(rhs) {
            panic!("{err}");
        }
    }

    /// Attach metric handles to every layer (forest decode outcome counters
    /// and decode-phase histograms, plus the per-sampler `dgs_sketch_*`
    /// family); see [`SpanningForestSketch::set_sink`]. Default is the null
    /// sink: recording is free.
    pub fn set_sink(&mut self, sink: &dgs_obs::MetricsSink) {
        for layer in &mut self.layers {
            layer.set_sink(sink);
        }
    }

    /// Total memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.size_bytes()).sum()
    }

    /// Largest per-vertex message (sum over all layers) in the player model.
    pub fn max_player_message_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.max_player_message_bytes())
            .sum()
    }

    /// The vertices covered by the sketch.
    pub fn vertices(&self) -> &[VertexId] {
        self.layers[0].vertices()
    }

    /// Builds player `v`'s message — one forest message per layer — from
    /// its local incident edges (simultaneous communication model; the
    /// seeding mirrors [`KSkeletonSketch::new`]).
    pub fn player_message(
        space: &EdgeSpace,
        k: usize,
        v: VertexId,
        incident_edges: &[HyperEdge],
        seeds: &SeedTree,
        params: ForestParams,
    ) -> Vec<crate::player::PlayerMessage> {
        (0..k)
            .map(|i| {
                crate::player::player_sketch(
                    space,
                    v,
                    incident_edges,
                    &seeds.child(i as u64),
                    params,
                )
            })
            .collect()
    }

    /// Fallible referee assembly: installs player `v`'s per-layer messages
    /// after validating the layer count and each message's shape/seed
    /// against the slot it fills (messages arrive over an untrusted
    /// transport, so corruption must be detected, not absorbed).
    pub fn try_install_player(
        &mut self,
        messages: Vec<crate::player::PlayerMessage>,
    ) -> SketchResult<()> {
        if messages.len() != self.k {
            return Err(SketchError::invalid(format!(
                "player bundle carries {} layer messages, skeleton expects {}",
                messages.len(),
                self.k
            )));
        }
        for (layer, msg) in self.layers.iter_mut().zip(messages) {
            layer.try_set_vertex_samplers(msg.vertex, msg.samplers)?;
        }
        Ok(())
    }

    /// The referee's assembly step: installs player `v`'s per-layer
    /// messages into this (zero-initialized, same-seeded) sketch.
    ///
    /// # Panics
    /// Panics on a malformed bundle; see
    /// [`try_install_player`](Self::try_install_player).
    pub fn install_player(&mut self, messages: Vec<crate::player::PlayerMessage>) {
        if let Err(err) = self.try_install_player(messages) {
            panic!("{err}");
        }
    }
}

impl dgs_field::Codec for KSkeletonSketch {
    fn encode(&self, w: &mut dgs_field::Writer) {
        w.put_usize(self.k);
        self.layers.encode(w);
    }
    fn decode(r: &mut dgs_field::Reader<'_>) -> Result<Self, dgs_field::CodecError> {
        let k = r.get_len(1 << 20)?.max(1);
        let layers: Vec<SpanningForestSketch> = Vec::decode(r)?;
        if layers.len() != k {
            return Err(dgs_field::CodecError {
                offset: 0,
                message: format!("layer count {} != k {}", layers.len(), k),
            });
        }
        Ok(KSkeletonSketch { layers, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_field::prng::*;
    use dgs_hypergraph::generators::{gnp, random_uniform_hypergraph};
    use dgs_hypergraph::{Graph, Hypergraph};
    use dgs_sketch::Profile;

    fn sketch(n: usize, r: usize, k: usize, label: u64) -> KSkeletonSketch {
        let space = EdgeSpace::new(n, r).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        KSkeletonSketch::new(space, k, &SeedTree::new(4000).child(label), params)
    }

    /// Exhaustively checks the skeleton property `|δ_H'(S)| >= min(|δ_H(S)|, k)`
    /// for all cuts of a small hypergraph.
    fn assert_skeleton_property(h: &Hypergraph, skeleton: &Hypergraph, k: usize) {
        let n = h.n();
        assert!(n <= 16);
        for mask in 1u32..(1 << (n - 1)) {
            let side: Vec<bool> = (0..n).map(|v| v > 0 && mask >> (v - 1) & 1 == 1).collect();
            let full = h.cut_size(&side);
            let kept = skeleton.cut_size(&side);
            assert!(
                kept >= full.min(k),
                "cut {side:?}: skeleton {kept} < min({full}, {k})"
            );
        }
    }

    #[test]
    fn skeleton_property_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(20);
        for trial in 0..6 {
            let n = rng.gen_range(6..11);
            let g = gnp(n, 0.5, &mut rng);
            let h = Hypergraph::from_graph(&g);
            let k = rng.gen_range(1..4);
            let mut sk = sketch(n, 2, k, trial);
            for e in h.edges() {
                sk.update(e, 1);
            }
            let skeleton = Hypergraph::from_edges(n, sk.decode());
            for e in skeleton.edges() {
                assert!(h.has_edge(e), "trial {trial}: phantom edge {e:?}");
            }
            assert_skeleton_property(&h, &skeleton, k);
        }
    }

    #[test]
    fn skeleton_property_on_random_hypergraphs() {
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..5 {
            let n = rng.gen_range(7..12);
            let h = random_uniform_hypergraph(n, 3, rng.gen_range(5..18), &mut rng);
            let k = 2;
            let mut sk = sketch(n, 3, k, 100 + trial);
            for e in h.edges() {
                sk.update(e, 1);
            }
            let skeleton = Hypergraph::from_edges(n, sk.decode());
            for e in skeleton.edges() {
                assert!(h.has_edge(e), "trial {trial}: phantom hyperedge");
            }
            assert_skeleton_property(&h, &skeleton, k);
        }
    }

    #[test]
    fn layers_are_disjoint() {
        let n = 10;
        let g = Graph::complete(n);
        let mut sk = sketch(n, 2, 3, 55);
        for (u, v) in g.edges() {
            sk.update(&HyperEdge::pair(u, v), 1);
        }
        let layers = sk.decode_layers();
        assert_eq!(layers.len(), 3);
        let mut seen = std::collections::BTreeSet::new();
        for layer in &layers {
            assert_eq!(layer.len(), n - 1, "K_n stays connected through 3 peels");
            for e in layer {
                assert!(seen.insert(e.clone()), "edge {e:?} appears in two layers");
            }
        }
    }

    #[test]
    fn skeleton_of_sparse_graph_is_whole_graph() {
        // A tree has at most 1 edge across ... every cut; a k-skeleton with
        // k >= 1 must keep every bridge, i.e. the entire tree.
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
        let mut sk = sketch(7, 2, 2, 56);
        for (u, v) in g.edges() {
            sk.update(&HyperEdge::pair(u, v), 1);
        }
        let skeleton = sk.decode();
        assert_eq!(skeleton.len(), 6);
    }

    #[test]
    fn deletion_churn_does_not_pollute_skeleton() {
        let mut rng = StdRng::seed_from_u64(23);
        let n = 9;
        let g = gnp(n, 0.5, &mut rng);
        let h = Hypergraph::from_graph(&g);
        let mut sk = sketch(n, 2, 2, 57);
        // Insert plenty of noise first, then delete it.
        let noise = gnp(n, 0.5, &mut rng);
        for (u, v) in noise.edges() {
            if !g.has_edge(u, v) {
                sk.update(&HyperEdge::pair(u, v), 1);
            }
        }
        for e in h.edges() {
            sk.update(e, 1);
        }
        for (u, v) in noise.edges() {
            if !g.has_edge(u, v) {
                sk.update(&HyperEdge::pair(u, v), -1);
            }
        }
        let skeleton = Hypergraph::from_edges(n, sk.decode());
        for e in skeleton.edges() {
            assert!(h.has_edge(e), "noise edge {e:?} leaked into skeleton");
        }
        assert_skeleton_property(&h, &skeleton, 2);
    }

    #[test]
    fn lemma_12_lambda_e_agrees_through_the_skeleton() {
        // Lemma 12: for a k-skeleton H of G, λ_e(H) <= k-1 iff λ_e(G) <= k-1
        // for every edge e of H. Verified with exact flow computations.
        use dgs_hypergraph::algo::strength::lambda_e;
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..5 {
            let n = rng.gen_range(7..11);
            let g = gnp(n, 0.5, &mut rng);
            let h = Hypergraph::from_graph(&g);
            let k = rng.gen_range(2..4);
            let mut sk = sketch(n, 2, k, 900 + trial);
            for e in h.edges() {
                sk.update(e, 1);
            }
            let skel = Hypergraph::from_edges(n, sk.decode());
            for (idx, e) in skel.edges().iter().enumerate() {
                let lam_h = lambda_e(&skel, idx, k);
                let orig_idx = h.edges().iter().position(|x| x == e).unwrap();
                let lam_g = lambda_e(&h, orig_idx, k);
                assert_eq!(
                    lam_h < k,
                    lam_g < k,
                    "trial {trial}, k {k}, edge {e:?}: λ_H = {lam_h}, λ_G = {lam_g}"
                );
            }
        }
    }

    #[test]
    fn light_edges_always_survive_into_the_skeleton() {
        // The Theorem 15 precondition: every edge with λ_e <= k lies in any
        // (k+1)-skeleton (its witnessing cut must be kept entirely).
        use dgs_hypergraph::algo::strength::lambda_e;
        let mut rng = StdRng::seed_from_u64(78);
        for trial in 0..5 {
            let n = rng.gen_range(7..11);
            let g = gnp(n, 0.45, &mut rng);
            let h = Hypergraph::from_graph(&g);
            let k = rng.gen_range(1..3);
            let mut sk = sketch(n, 2, k + 1, 950 + trial);
            for e in h.edges() {
                sk.update(e, 1);
            }
            let skel = Hypergraph::from_edges(n, sk.decode());
            for (idx, e) in h.edges().iter().enumerate() {
                if lambda_e(&h, idx, k + 1) <= k {
                    assert!(
                        skel.has_edge(e),
                        "trial {trial}: light edge {e:?} missing from ({}+1)-skeleton",
                        k
                    );
                }
            }
        }
    }

    #[test]
    fn skeleton_players_equal_central() {
        let mut rng = StdRng::seed_from_u64(321);
        let n = 10;
        let g = gnp(n, 0.5, &mut rng);
        let h = Hypergraph::from_graph(&g);
        let space = EdgeSpace::graph(n).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let seeds = SeedTree::new(4321);
        let k = 2;

        let mut central = KSkeletonSketch::new(space.clone(), k, &seeds, params);
        for e in h.edges() {
            central.update(e, 1);
        }

        let mut assembled = KSkeletonSketch::new(space.clone(), k, &seeds, params);
        for v in 0..n as u32 {
            let incident: Vec<HyperEdge> = h
                .edges()
                .iter()
                .filter(|e| e.contains(v))
                .cloned()
                .collect();
            let msgs = KSkeletonSketch::player_message(&space, k, v, &incident, &seeds, params);
            assembled.install_player(msgs);
        }
        assert_eq!(central.decode(), assembled.decode());
        assert_eq!(central.decode_layers(), assembled.decode_layers());
    }

    #[test]
    fn parallel_skeleton_decode_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(24);
        for trial in 0..6 {
            let n = rng.gen_range(6..14);
            let g = gnp(n, 0.5, &mut rng);
            let k = rng.gen_range(1..4);
            let mut sk = sketch(n, 2, k, 200 + trial);
            for (u, v) in g.edges() {
                sk.update(&HyperEdge::pair(u, v), 1);
            }
            let seq_layers = sk.try_decode_layers().unwrap();
            let seq = sk.try_decode().unwrap();
            for threads in [2usize, 4, 7] {
                assert_eq!(
                    sk.try_decode_layers_par(threads).unwrap(),
                    seq_layers,
                    "trial {trial}, {threads} threads"
                );
                assert_eq!(
                    sk.try_decode_par(threads).unwrap(),
                    seq,
                    "trial {trial}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn size_scales_linearly_in_k() {
        let s1 = sketch(12, 2, 1, 58);
        let s3 = sketch(12, 2, 3, 59);
        assert_eq!(s3.size_bytes(), 3 * s1.size_bytes());
        assert!(s3.max_player_message_bytes() > s1.max_player_message_bytes());
    }
}
