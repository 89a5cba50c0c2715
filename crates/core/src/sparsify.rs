//! Hypergraph sparsification in dynamic streams (Section 5, Theorem 20).
//!
//! Stream side: a shared hash `u(e)` defines the nested subsample chain
//! `G_0 ⊇ G_1 ⊇ …` (`e ∈ G_i` iff `u(e) < 2^{-i}`) — a deterministic
//! function of the edge, as linearity under deletions requires. Each `G_i`
//! is sketched by a [`LightRecoverySketch`] with parameter
//! `k = O(ε⁻²(log n + r))`.
//!
//! Decode side (the paper's algorithm):
//!
//! ```text
//!   H_i  = G_i \ (F_0 ∪ … ∪ F_{i-1})
//!   F_i  = light_k(H_i)          — recovered from B_i(G_i) - Σ_j B_i(F_j ∩ G_i)
//!   out  = Σ_i 2^i · F_i
//! ```
//!
//! After removing `light_k`, every残 component of `H_i \ F_i` has min cut
//! `> k`, so Karger-style sampling at rate 1/2 (one more level of the
//! chain) preserves all its cuts within `(1 ± ε)` — Lemma 18, using the
//! Kogan–Krauthgamer hypergraph cut-counting bound. Telescoping over
//! `ℓ = 3 log n` levels gives a `(1+ε)^ℓ` sparsifier (Theorem 19); the
//! caller reparameterizes `ε ← ε/(2ℓ)` for Theorem 20.
//!
//! The decoder stops early at the first level whose residual empties: since
//! `G_{i+1} ⊆ G_i`, a fully consumed level implies every deeper `H_j` is
//! empty.

use dgs_connectivity::ForestParams;
use dgs_field::{SeedTree, UniformHash};
use dgs_hypergraph::{EdgeSpace, HyperEdge, WeightedHypergraph};
use dgs_sketch::{Profile, SketchError, SketchResult};

use crate::reconstruct::LightRecoverySketch;

/// Sizing for a [`HypergraphSparsifier`].
#[derive(Clone, Copy, Debug)]
pub struct SparsifierConfig {
    /// The `light` parameter `k` — the paper's `O(ε⁻²(log n + r))`.
    pub k: usize,
    /// Number of subsample levels (`ℓ + 1`).
    pub levels: usize,
    /// Spanning-sketch sizing inside each level.
    pub forest: ForestParams,
}

impl SparsifierConfig {
    /// Explicit sizing.
    pub fn explicit(k: usize, levels: usize, forest: ForestParams) -> SparsifierConfig {
        assert!(k >= 1 && levels >= 1);
        SparsifierConfig { k, levels, forest }
    }

    /// The paper's sizing for a target accuracy `ε` with constant `c`:
    /// `ℓ = ceil(3·log2 n)`, `k = ceil(c · ε⁻² · (log2 n + r))` after the
    /// `ε ← ε/(2ℓ)` reparameterization is *not* applied — callers wanting
    /// the fully telescoped Theorem 20 guarantee should pass `ε/(2ℓ)` here.
    /// Practical experiments use small `c`.
    pub fn for_epsilon(
        n: usize,
        max_rank: usize,
        epsilon: f64,
        c: f64,
        profile: Profile,
    ) -> SparsifierConfig {
        assert!(epsilon > 0.0 && c > 0.0);
        let log_n = (n.max(2) as f64).log2();
        let levels = (3.0 * log_n).ceil() as usize + 1;
        let k = (c / (epsilon * epsilon) * (log_n + max_rank as f64))
            .ceil()
            .max(1.0) as usize;
        let dim = EdgeSpace::new(n.max(2), max_rank)
            .map(|s| s.dimension())
            .unwrap_or(u64::MAX);
        SparsifierConfig {
            k,
            levels,
            forest: ForestParams::new(profile, dim),
        }
    }
}

/// The decoded sparsifier plus diagnostics.
#[derive(Clone, Debug)]
pub struct SparsifierResult {
    /// The weighted sparsifier `Σ 2^i · F_i`.
    pub sparsifier: WeightedHypergraph,
    /// Edges recovered per level (`|F_i|`).
    pub per_level: Vec<usize>,
    /// True iff some level's residual emptied (all edges accounted for).
    /// False means the level budget was exhausted with heavy edges left —
    /// increase `levels` or `k`.
    pub complete: bool,
}

/// The Section 5 dynamic-stream hypergraph sparsifier sketch.
#[derive(Clone, Debug)]
pub struct HypergraphSparsifier {
    space: EdgeSpace,
    cfg: SparsifierConfig,
    level_hash: UniformHash,
    levels: Vec<LightRecoverySketch>,
}

impl HypergraphSparsifier {
    /// Builds the sketch.
    pub fn new(space: EdgeSpace, cfg: SparsifierConfig, seeds: &SeedTree) -> Self {
        let level_hash = UniformHash::new(&seeds.child(0), 8);
        let levels = (0..cfg.levels)
            .map(|i| {
                LightRecoverySketch::new(
                    space.clone(),
                    cfg.k,
                    &seeds.child(1).child(i as u64),
                    cfg.forest,
                )
            })
            .collect();
        HypergraphSparsifier {
            space,
            cfg,
            level_hash,
            levels,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SparsifierConfig {
        &self.cfg
    }

    /// The deepest subsample level edge `e` belongs to: `e ∈ G_i` for all
    /// `i <= edge_level(e)`.
    pub fn edge_level(&self, e: &HyperEdge) -> usize {
        self.level_hash
            .level(self.space.rank(e), self.cfg.levels - 1)
    }

    /// Signed hyperedge update applied to every level containing it
    /// (expected 2 levels per update). Level 0 holds every edge, so its
    /// validation rejects a malformed edge before any level is touched.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn try_update(&mut self, e: &HyperEdge, delta: i64) -> SketchResult<()> {
        self.levels[0].try_update(e, delta)?;
        for i in 1..=self.edge_level(e) {
            self.levels[i].try_update(e, delta)?;
        }
        Ok(())
    }

    /// Runs the full decode: per-level `light_k` recovery with cross-level
    /// peeling, weights `2^i`. A level whose `light_k` recovery cannot be
    /// certified propagates a retryable
    /// [`dgs_sketch::SketchError::SketchFailure`] — the alternative would
    /// be a sparsifier silently missing a level's edges, i.e. a wrong
    /// answer on every cut it fails to cover. Note `complete = false` in
    /// the returned result is *not* an error: it is the explicit,
    /// detectable "budget exhausted" outcome.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn try_decode(&self) -> SketchResult<SparsifierResult> {
        let n = self.space.n();
        let mut sparsifier = WeightedHypergraph::new(n);
        let mut recovered: Vec<Vec<HyperEdge>> = Vec::new();
        let mut per_level = Vec::new();
        let mut complete = false;
        for i in 0..self.cfg.levels {
            let mut adjusted = self.levels[i].clone();
            for f in &recovered {
                // F_j ∩ G_i: previously recovered edges that also survived
                // into this level's subsample.
                for e in f.iter().filter(|e| self.edge_level(e) >= i) {
                    adjusted.try_update(e, -1)?;
                }
            }
            let rec = adjusted.try_recover()?;
            let f_i = rec.edges();
            per_level.push(f_i.len());
            let weight = (1u64 << i.min(62)) as f64;
            for e in &f_i {
                sparsifier.add(e.clone(), weight);
            }
            recovered.push(f_i);
            if rec.complete {
                // H_i fully consumed ⇒ every deeper H_j is empty.
                complete = true;
                break;
            }
        }
        Ok(SparsifierResult {
            sparsifier,
            per_level,
            complete,
        })
    }

    /// Cell-wise sum with a same-seeded sketch (sharded ingestion); a
    /// different configuration or a shape/seed mismatch is
    /// [`SketchError::InvalidInput`].
    pub fn try_add_assign_sketch(&mut self, rhs: &HypergraphSparsifier) -> SketchResult<()> {
        if (self.cfg.levels, self.cfg.k) != (rhs.cfg.levels, rhs.cfg.k) {
            return Err(SketchError::invalid(format!(
                "sparsifier config mismatch: (levels, k) {:?} vs {:?}",
                (self.cfg.levels, self.cfg.k),
                (rhs.cfg.levels, rhs.cfg.k)
            )));
        }
        for (a, b) in self.levels.iter_mut().zip(&rhs.levels) {
            a.try_add_assign_sketch(b)?;
        }
        Ok(())
    }

    /// Sketch size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.size_bytes()).sum::<usize>() + self.level_hash.size_bytes()
    }

    /// Largest per-vertex message — the Theorem 20 `O(ε⁻² polylog n)` per
    /// vertex quantity.
    pub fn max_player_message_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.max_player_message_bytes())
            .sum()
    }

    /// Player `v`'s message: for each subsample level, the `k+1` forest
    /// messages of that level's light-recovery sketch, fed only the
    /// incident hyperedges surviving into `G_i` (publicly computable from
    /// the shared level hash) — Theorem 20's "vertex-based" claim made
    /// operational.
    pub fn try_player_message(
        space: &EdgeSpace,
        cfg: &SparsifierConfig,
        seeds: &SeedTree,
        v: dgs_hypergraph::VertexId,
        incident_edges: &[HyperEdge],
    ) -> SketchResult<SparsifierPlayerMessage> {
        let level_hash = UniformHash::new(&seeds.child(0), 8);
        let mut in_level = incident_edges.to_vec();
        let mut per_level = Vec::with_capacity(cfg.levels);
        for i in 0..cfg.levels {
            // Level 0 keeps every edge and validates it, so ranking the
            // survivors for the deeper levels cannot panic.
            if i > 0 {
                in_level.retain(|e| level_hash.level(space.rank(e), cfg.levels - 1) >= i);
            }
            per_level.push(LightRecoverySketch::try_player_message(
                space,
                cfg.k,
                v,
                &in_level,
                &seeds.child(1).child(i as u64),
                cfg.forest,
            )?);
        }
        Ok(SparsifierPlayerMessage {
            vertex: v,
            per_level,
        })
    }

    /// The referee's assembly step for one player; a message with the wrong
    /// level count or a malformed level is [`SketchError::InvalidInput`].
    pub fn try_install_player(&mut self, message: SparsifierPlayerMessage) -> SketchResult<()> {
        if message.per_level.len() != self.cfg.levels {
            return Err(SketchError::invalid(format!(
                "player message carries {} levels, sparsifier has {}",
                message.per_level.len(),
                self.cfg.levels
            )));
        }
        for (level, msgs) in self.levels.iter_mut().zip(message.per_level) {
            level.try_install_player(msgs)?;
        }
        Ok(())
    }
}

impl dgs_field::Codec for HypergraphSparsifier {
    fn encode(&self, w: &mut dgs_field::Writer) {
        w.put_usize(self.space.n());
        w.put_usize(self.space.max_rank());
        w.put_usize(self.cfg.k);
        w.put_usize(self.cfg.levels);
        self.cfg.forest.encode(w);
        self.level_hash.encode(w);
        self.levels.encode(w);
    }
    fn decode(r: &mut dgs_field::Reader<'_>) -> Result<Self, dgs_field::CodecError> {
        let bad = |message: String| dgs_field::CodecError { offset: 0, message };
        let n = r.get_len(1 << 32)?;
        let max_rank = r.get_len(64)?;
        let space =
            EdgeSpace::new(n, max_rank).map_err(|e| bad(format!("invalid edge space: {e}")))?;
        let k = r.get_len(1 << 20)?.max(1);
        let level_count = r.get_len(1 << 16)?.max(1);
        let forest = ForestParams::decode(r)?;
        let level_hash = UniformHash::decode(r)?;
        let levels: Vec<crate::reconstruct::LightRecoverySketch> = Vec::decode(r)?;
        if levels.len() != level_count {
            return Err(bad(format!(
                "level count {} != config {}",
                levels.len(),
                level_count
            )));
        }
        Ok(HypergraphSparsifier {
            space,
            cfg: SparsifierConfig {
                k,
                levels: level_count,
                forest,
            },
            level_hash,
            levels,
        })
    }
}

/// Player message for the Theorem 20 sparsifier: per-level light-recovery
/// messages.
#[derive(Clone, Debug)]
pub struct SparsifierPlayerMessage {
    /// The player's vertex.
    pub vertex: dgs_hypergraph::VertexId,
    /// One `(k+1)`-layer forest message bundle per subsample level.
    pub per_level: Vec<Vec<dgs_connectivity::PlayerMessage>>,
}

impl SparsifierPlayerMessage {
    /// Message length in bytes.
    pub fn size_bytes(&self) -> usize {
        self.per_level
            .iter()
            .flatten()
            .map(|m| m.size_bytes())
            .sum()
    }
}

impl dgs_field::Codec for SparsifierPlayerMessage {
    fn encode(&self, w: &mut dgs_field::Writer) {
        w.put_u64(self.vertex as u64);
        self.per_level.encode(w);
    }
    fn decode(r: &mut dgs_field::Reader<'_>) -> Result<Self, dgs_field::CodecError> {
        let vertex = r.get_u64()?;
        if vertex > u32::MAX as u64 {
            return Err(dgs_field::CodecError {
                offset: 0,
                message: format!("player vertex {vertex} exceeds the u32 id space"),
            });
        }
        Ok(SparsifierPlayerMessage {
            vertex: vertex as dgs_hypergraph::VertexId,
            per_level: Vec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_field::prng::*;
    use dgs_hypergraph::generators::{gnp, planted_hyper_cut, random_uniform_hypergraph};
    use dgs_hypergraph::{Graph, Hypergraph};

    fn build(h: &Hypergraph, k: usize, levels: usize, label: u64) -> HypergraphSparsifier {
        let r = h.max_rank().max(2);
        let space = EdgeSpace::new(h.n(), r).unwrap();
        let forest = ForestParams::new(Profile::Practical, space.dimension());
        let cfg = SparsifierConfig::explicit(k, levels, forest);
        let mut sp = HypergraphSparsifier::new(space, cfg, &SeedTree::new(808).child(label));
        for e in h.edges() {
            sp.try_update(e, 1).unwrap();
        }
        sp
    }

    /// Max relative cut error over an exhaustive cut enumeration (n <= 14).
    fn max_cut_error(h: &Hypergraph, w: &WeightedHypergraph) -> f64 {
        let n = h.n();
        assert!(n <= 14);
        let mut worst: f64 = 0.0;
        for mask in 1u32..(1 << (n - 1)) {
            let side: Vec<bool> = (0..n).map(|v| v > 0 && mask >> (v - 1) & 1 == 1).collect();
            let truth = h.cut_size(&side) as f64;
            let approx = w.cut_weight(&side);
            if truth == 0.0 {
                assert_eq!(approx, 0.0, "phantom weight across an empty cut");
                continue;
            }
            worst = worst.max((approx - truth).abs() / truth);
        }
        worst
    }

    #[test]
    fn sparse_graph_is_reproduced_exactly() {
        // If k exceeds every λ_e, level 0 consumes everything: the
        // "sparsifier" is the graph itself with weight 1.
        let g = Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
        let h = Hypergraph::from_graph(&g);
        let sp = build(&h, 2, 6, 1);
        let res = sp.try_decode().unwrap();
        assert!(res.complete);
        assert_eq!(res.per_level[0], 7);
        assert_eq!(res.sparsifier.edge_count(), 7);
        assert_eq!(max_cut_error(&h, &res.sparsifier), 0.0);
    }

    #[test]
    fn dense_graph_cut_error_shrinks_with_k() {
        // The theorem's shape: per-level error ε ~ sqrt((log n + r)/k), so
        // larger k gives tighter cuts, and k above every λ_e (λ_e <= degree
        // <= n-1) reproduces the graph exactly.
        let mut rng = StdRng::seed_from_u64(2);
        let g = gnp(12, 0.8, &mut rng);
        let h = Hypergraph::from_graph(&g);
        let mut errors = Vec::new();
        for (i, k) in [4usize, 12].into_iter().enumerate() {
            let sp = build(&h, k, 8, 2 + i as u64);
            let res = sp.try_decode().unwrap();
            assert!(
                res.complete,
                "k = {k}: levels exhausted: {:?}",
                res.per_level
            );
            errors.push(max_cut_error(&h, &res.sparsifier));
        }
        assert_eq!(errors[1], 0.0, "k = 12 >= max λ_e must be exact");
        assert!(errors[0] >= errors[1], "error not monotone: {errors:?}");
        // Even at the aggressive k = 4 the error stays in the (1+ε)^ℓ band
        // for ε ~ 1 and the couple of levels actually used.
        assert!(errors[0] < 4.0, "k = 4 error {} out of band", errors[0]);
    }

    #[test]
    fn hypergraph_cuts_preserved() {
        let mut rng = StdRng::seed_from_u64(3);
        let h = random_uniform_hypergraph(10, 3, 40, &mut rng);
        let sp = build(&h, 5, 8, 3);
        let res = sp.try_decode().unwrap();
        assert!(res.complete);
        let err = max_cut_error(&h, &res.sparsifier);
        assert!(err < 0.9, "max relative cut error {err}");
    }

    #[test]
    fn planted_min_cut_preserved_tightly() {
        // Small planted cuts are light (λ_e <= t <= k), so their edges are
        // recovered exactly at level 0 with weight 1 — the min cut value is
        // preserved exactly.
        let mut rng = StdRng::seed_from_u64(4);
        let (h, side) = planted_hyper_cut(6, 6, 3, 14, 2, &mut rng);
        let sp = build(&h, 4, 8, 4);
        let res = sp.try_decode().unwrap();
        assert!(res.complete);
        assert_eq!(res.sparsifier.cut_weight(&side), 2.0);
    }

    #[test]
    fn deletions_fully_cancel() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = gnp(10, 0.6, &mut rng);
        let h = Hypergraph::from_graph(&g);
        let r = 2;
        let space = EdgeSpace::new(h.n(), r).unwrap();
        let forest = ForestParams::new(Profile::Practical, space.dimension());
        let cfg = SparsifierConfig::explicit(5, 8, forest);
        let mut sp = HypergraphSparsifier::new(space, cfg, &SeedTree::new(909));
        // Insert twice the edges (real + noise), delete the noise.
        let noise = gnp(10, 0.6, &mut rng);
        for (u, v) in noise.edges() {
            if !g.has_edge(u, v) {
                sp.try_update(&HyperEdge::pair(u, v), 1).unwrap();
            }
        }
        for e in h.edges() {
            sp.try_update(e, 1).unwrap();
        }
        for (u, v) in noise.edges() {
            if !g.has_edge(u, v) {
                sp.try_update(&HyperEdge::pair(u, v), -1).unwrap();
            }
        }
        let res = sp.try_decode().unwrap();
        assert!(res.complete);
        for (e, _) in res.sparsifier.iter() {
            assert!(h.has_edge(e), "noise edge {e:?} leaked into sparsifier");
        }
        let err = max_cut_error(&h, &res.sparsifier);
        assert!(err < 0.9, "max relative cut error {err}");
    }

    #[test]
    fn total_weight_tracks_edge_count() {
        // Definition 17 with S = singletons covers degrees; the total weight
        // should be within the error band of the edge count for graphs
        // (each edge counted via its two endpoint cuts).
        let mut rng = StdRng::seed_from_u64(6);
        let g = gnp(11, 0.7, &mut rng);
        let h = Hypergraph::from_graph(&g);
        let sp = build(&h, 6, 8, 6);
        let res = sp.try_decode().unwrap();
        assert!(res.complete);
        let ratio = res.sparsifier.total_weight() / h.edge_count() as f64;
        assert!((0.4..2.5).contains(&ratio), "total weight ratio {ratio}");
    }

    #[test]
    fn edge_levels_are_geometric() {
        let n = 40;
        let space = EdgeSpace::graph(n).unwrap();
        let forest = ForestParams::new(Profile::Practical, space.dimension());
        let cfg = SparsifierConfig::explicit(2, 12, forest);
        let sp = HypergraphSparsifier::new(space, cfg, &SeedTree::new(910));
        let mut level0 = 0;
        let mut total = 0;
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                total += 1;
                if sp.edge_level(&HyperEdge::pair(u, v)) >= 1 {
                    level0 += 1;
                }
            }
        }
        let frac = level0 as f64 / total as f64;
        assert!((0.35..0.65).contains(&frac), "level >= 1 fraction {frac}");
    }

    #[test]
    fn config_for_epsilon_scales() {
        let loose = SparsifierConfig::for_epsilon(64, 2, 0.5, 0.5, Profile::Practical);
        let tight = SparsifierConfig::for_epsilon(64, 2, 0.1, 0.5, Profile::Practical);
        assert!(tight.k > loose.k * 10, "k must scale as ε^-2");
        assert_eq!(loose.levels, tight.levels);
    }

    #[test]
    fn caller_input_is_a_typed_error_not_a_panic() {
        let space = EdgeSpace::graph(6).unwrap();
        let forest = ForestParams::new(Profile::Practical, space.dimension());
        let cfg = SparsifierConfig::explicit(2, 4, forest);
        let seeds = SeedTree::new(809);
        let mut sp = HypergraphSparsifier::new(space.clone(), cfg, &seeds);
        let invalid = |r: SketchResult<()>| matches!(r, Err(SketchError::InvalidInput { .. }));
        // Out-of-range vertex and rank overflow are rejected before ranking.
        assert!(invalid(sp.try_update(&HyperEdge::pair(0, 9), 1)));
        assert!(invalid(
            sp.try_update(&HyperEdge::new(vec![0, 1, 2]).unwrap(), 1)
        ));
        let other = SparsifierConfig::explicit(3, 4, forest);
        let peer = HypergraphSparsifier::new(space.clone(), other, &seeds);
        assert!(invalid(sp.try_add_assign_sketch(&peer)));
        let foreign = [HyperEdge::pair(1, 2)];
        assert!(matches!(
            HypergraphSparsifier::try_player_message(&space, &cfg, &seeds, 0, &foreign),
            Err(SketchError::InvalidInput { .. })
        ));
        let mut msg =
            HypergraphSparsifier::try_player_message(&space, &cfg, &seeds, 0, &[]).unwrap();
        msg.per_level.pop();
        assert!(invalid(sp.try_install_player(msg)));
    }
}
