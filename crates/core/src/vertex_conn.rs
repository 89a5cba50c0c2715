//! Vertex connectivity in dynamic graph streams (Section 3).
//!
//! Both Theorem 4 (query structure) and Theorem 8 (estimator) share one
//! mechanism: `R` vertex-subsampled subgraphs `G_1 … G_R` — each vertex
//! survives into `G_i` independently with probability `1/k` — with one
//! spanning-forest sketch per subgraph. The decoded union
//! `H = T_1 ∪ … ∪ T_R` satisfies (whp):
//!
//! * Lemma 3: for any `|S| <= k`, `H \ S` is connected iff `G \ S` is —
//!   answering the removal query;
//! * Corollary 7: if `G` is `(1+ε)k`-connected then `H` is `k`-connected,
//!   and `κ(H) <= κ(G)` always — so exact `κ(H)` (post-processing,
//!   Even–Tarjan from `dgs-hypergraph`) distinguishes the two regimes.
//!
//! The paper's `R` is `16·k²·ln n` (query) and `160·k²·ε⁻¹·ln n`
//! (estimator); [`VertexConnConfig`] exposes the multiplier so experiments
//! can sweep it and locate the success-probability phase transition.
//!
//! Hypergraphs: substituting the Theorem 13 spanning-graph sketch makes
//! everything go through unchanged (Section 4.1) — a hyperedge survives
//! into `G_i` iff *all* its vertices do, and the removal/κ queries act on
//! the clique expansion (removing `S` disconnects a hypergraph iff it
//! disconnects the expansion).

use dgs_connectivity::{ForestParams, SpanningForestSketch};
use dgs_field::{SeedTree, UniformHash};
use dgs_hypergraph::algo::vertex_conn::{hyper_disconnects, vertex_connectivity_bounded};
use dgs_hypergraph::{EdgeSpace, HyperEdge, Hypergraph, VertexId};
use dgs_sketch::{Profile, SketchError, SketchResult};

/// Sizing for a [`VertexConnSketch`].
#[derive(Clone, Copy, Debug)]
pub struct VertexConnConfig {
    /// The connectivity parameter `k` (sampling probability is `1/k`).
    pub k: usize,
    /// Number of subsampled subgraphs `R`.
    pub subgraphs: usize,
    /// Spanning-forest sketch sizing for each subgraph.
    pub forest: ForestParams,
}

impl VertexConnConfig {
    /// Query-structure sizing: `R = ceil(multiplier · k² · ln n)`.
    /// The paper's Theorem 4 uses `multiplier = 16`; the experiments show
    /// much smaller multipliers already saturate success at laptop scale.
    pub fn query(k: usize, n: usize, multiplier: f64, profile: Profile) -> VertexConnConfig {
        assert!(k >= 1);
        let ln_n = (n.max(2) as f64).ln();
        let r = (multiplier * (k * k) as f64 * ln_n).ceil().max(1.0) as usize;
        VertexConnConfig {
            k,
            subgraphs: r,
            forest: ForestParams::new(profile, graph_dimension(n)),
        }
    }

    /// Estimator sizing: `R = ceil(multiplier · k² · ε⁻¹ · ln n)`
    /// (Theorem 8 uses `multiplier = 160`).
    pub fn estimator(
        k: usize,
        n: usize,
        epsilon: f64,
        multiplier: f64,
        profile: Profile,
    ) -> VertexConnConfig {
        assert!(epsilon > 0.0);
        let mut cfg = VertexConnConfig::query(k, n, multiplier / epsilon, profile);
        cfg.forest = ForestParams::new(profile, graph_dimension(n));
        cfg
    }

    /// Fully explicit sizing (used by parameter sweeps).
    pub fn explicit(k: usize, subgraphs: usize, forest: ForestParams) -> VertexConnConfig {
        assert!(k >= 1 && subgraphs >= 1);
        VertexConnConfig {
            k,
            subgraphs,
            forest,
        }
    }
}

fn graph_dimension(n: usize) -> u64 {
    EdgeSpace::graph(n.max(2))
        .map(|s| s.dimension())
        .unwrap_or(u64::MAX)
}

/// The Section 3 sketch: `R` spanning-forest sketches of vertex-subsampled
/// subgraphs.
#[derive(Clone, Debug)]
pub struct VertexConnSketch {
    space: EdgeSpace,
    cfg: VertexConnConfig,
    subgraphs: Vec<SpanningForestSketch>,
    /// Vertex -> sorted list of subgraph indices containing it.
    membership: Vec<Vec<u32>>,
}

/// The publicly-derivable vertex sample for subgraph `i`: every player can
/// recompute it from the shared seed tree (the model's public coins).
fn sampled_vertices(n: usize, k: usize, i: usize, seeds: &SeedTree) -> Vec<VertexId> {
    let p = 1.0 / k as f64;
    let sample_hash = UniformHash::new(&seeds.child2(0, i as u64), 4);
    (0..n as VertexId)
        .filter(|&v| sample_hash.keep(v as u64, p))
        .collect()
}

impl VertexConnSketch {
    /// Builds the sketch. Vertex subsampling is determined by the seed tree
    /// before any update arrives (required for stream processing).
    pub fn new(space: EdgeSpace, cfg: VertexConnConfig, seeds: &SeedTree) -> VertexConnSketch {
        let n = space.n();
        let mut membership: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut subgraphs = Vec::with_capacity(cfg.subgraphs);
        for i in 0..cfg.subgraphs {
            let sampled = sampled_vertices(n, cfg.k, i, seeds);
            for &v in &sampled {
                membership[v as usize].push(i as u32);
            }
            subgraphs.push(SpanningForestSketch::new_induced(
                space.clone(),
                sampled,
                &seeds.child2(1, i as u64),
                cfg.forest,
            ));
        }
        VertexConnSketch {
            space,
            cfg,
            subgraphs,
            membership,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &VertexConnConfig {
        &self.cfg
    }

    /// The underlying edge space.
    pub fn space(&self) -> &EdgeSpace {
        &self.space
    }

    /// Signed hyperedge update. The edge enters exactly the subgraphs
    /// containing *all* of its vertices (expected `R/k^|e|` of them, so a
    /// stream update is cheap). Malformed elements (out-of-range vertex,
    /// rank violation) surface as [`SketchError::InvalidInput`] before any
    /// subgraph sketch is touched.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn try_update(&mut self, e: &HyperEdge, delta: i64) -> SketchResult<()> {
        crate::validate_edge(&self.space, e)?;
        let vs = e.vertices();
        // Intersect the sorted membership lists of all endpoints.
        let mut common: Vec<u32> = self.membership[vs[0] as usize].clone();
        for &v in &vs[1..] {
            let other = &self.membership[v as usize];
            common = intersect_sorted(&common, other);
            if common.is_empty() {
                return Ok(());
            }
        }
        for i in common {
            self.subgraphs[i as usize].try_update(e, delta)?;
        }
        Ok(())
    }

    /// Decodes every subgraph's spanning forest and returns the union
    /// `H = T_1 ∪ … ∪ T_R` as a query certificate. Every subgraph's Borůvka
    /// pass must certify completeness, otherwise the union `H` could be missing
    /// forest edges and the removal query could report a spurious
    /// disconnection — propagated as [`SketchError::SketchFailure`]
    /// (retryable against an independent repetition) instead.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn try_certificate(&self) -> SketchResult<VertexConnCertificate> {
        self.try_certificate_par(1)
    }

    /// [`try_certificate`](Self::try_certificate) with the `R` independent
    /// subgraph decodes striped over `threads` by [`dgs_pool::stripe`]
    /// (contiguous chunks of subgraph indices, one reusable
    /// [`dgs_connectivity::DecodeScratch`] per chunk). Decodes are
    /// read-only and per-subgraph independent, each chunk stops at its
    /// first error, and chunks are scanned in order afterwards — so the
    /// certificate, and the first error in subgraph order, are identical
    /// for every thread count. A chunk that panics yields a retryable
    /// [`SketchError::SketchFailure`].
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn try_certificate_par(&self, threads: usize) -> SketchResult<VertexConnCertificate> {
        let chunk = self.subgraphs.len().div_ceil(threads.max(1)).max(1);
        let mut chunks: Vec<_> = self
            .subgraphs
            .chunks(chunk)
            .map(|piece| (piece, dgs_connectivity::DecodeScratch::new()))
            .collect();
        let forests = dgs_pool::stripe(
            &mut chunks,
            threads,
            None,
            |(piece, scratch)| {
                let mut edges = Vec::new();
                for sk in piece.iter() {
                    edges.extend(sk.try_decode_with_scratch(false, 1, scratch)?.0);
                }
                Ok(edges)
            },
            |_| Err(SketchError::failure("certificate", "chunk panicked")),
        );
        let mut h = Hypergraph::new(self.space.n());
        for edges in forests {
            for e in edges? {
                h.add_edge(e);
            }
        }
        Ok(VertexConnCertificate { union: h })
    }

    /// Cell-wise sum with a same-seeded sketch (sharded ingestion).
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn try_add_assign_sketch(&mut self, rhs: &VertexConnSketch) -> SketchResult<()> {
        if self.cfg.subgraphs != rhs.cfg.subgraphs {
            return Err(SketchError::invalid(format!(
                "config mismatch: {} vs {} subgraphs",
                self.cfg.subgraphs, rhs.cfg.subgraphs
            )));
        }
        for (a, b) in self.subgraphs.iter_mut().zip(&rhs.subgraphs) {
            a.try_add_assign_sketch(b)?;
        }
        Ok(())
    }

    /// Attach metric handles to every subgraph sketch (forest decode
    /// counters and decode-phase histograms); see
    /// [`SpanningForestSketch::set_sink`].
    pub fn set_sink(&mut self, sink: &dgs_obs::MetricsSink) {
        for sk in &mut self.subgraphs {
            sk.set_sink(sink);
        }
    }

    /// Total sketch size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.subgraphs.iter().map(|s| s.size_bytes()).sum()
    }

    /// Number of (subgraph, vertex) sampler slots — the `O(nk polylog)`
    /// quantity of Theorem 4 (expected `R·n/k` slots).
    pub fn sampler_slots(&self) -> usize {
        self.subgraphs.iter().map(|s| s.vertices().len()).sum()
    }

    /// Builds player `v`'s message from its local incident edges alone —
    /// the structure is vertex-based: player `v` recomputes every
    /// subgraph's vertex sample from the public seeds, keeps a sampler
    /// state for each subgraph containing `v`, and applies exactly the
    /// incident edges whose endpoints all survive that subgraph's sample.
    /// An edge not incident to `v`, or malformed for the space, is
    /// [`SketchError::InvalidInput`].
    pub fn try_player_message(
        space: &EdgeSpace,
        cfg: &VertexConnConfig,
        seeds: &SeedTree,
        v: VertexId,
        incident_edges: &[HyperEdge],
    ) -> SketchResult<VertexConnPlayerMessage> {
        let n = space.n();
        if let Some(e) = incident_edges.iter().find(|e| !e.contains(v)) {
            return Err(SketchError::invalid(format!(
                "edge {e:?} not incident to player {v}"
            )));
        }
        let mut per_subgraph = Vec::new();
        for i in 0..cfg.subgraphs {
            let sampled = sampled_vertices(n, cfg.k, i, seeds);
            if sampled.binary_search(&v).is_err() {
                continue;
            }
            let mut msg = dgs_connectivity::PlayerMessage::new_induced(
                space,
                sampled.len(),
                v,
                &seeds.child2(1, i as u64),
                cfg.forest,
            );
            for e in incident_edges {
                if e.vertices()
                    .iter()
                    .all(|&x| sampled.binary_search(&x).is_ok())
                {
                    msg.try_apply(space, e, 1)?;
                }
            }
            per_subgraph.push((i as u32, msg));
        }
        Ok(VertexConnPlayerMessage {
            vertex: v,
            per_subgraph,
        })
    }

    /// The referee's assembly step: validates every per-subgraph entry
    /// (index range, vertex presence, sampler shape/seed) before installing
    /// it into this (zero-initialized, same-seeded) sketch, so a corrupted
    /// or misrouted message surfaces as [`SketchError::InvalidInput`].
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn try_install_player(&mut self, message: VertexConnPlayerMessage) -> SketchResult<()> {
        for (i, _) in &message.per_subgraph {
            if *i as usize >= self.subgraphs.len() {
                return Err(SketchError::invalid(format!(
                    "player message references subgraph {i}, sketch has {}",
                    self.subgraphs.len()
                )));
            }
        }
        for (i, msg) in message.per_subgraph {
            self.subgraphs[i as usize].try_set_vertex_samplers(msg.vertex, msg.samplers)?;
        }
        Ok(())
    }
}

impl dgs_field::Codec for VertexConnConfig {
    fn encode(&self, w: &mut dgs_field::Writer) {
        w.put_usize(self.k);
        w.put_usize(self.subgraphs);
        self.forest.encode(w);
    }
    fn decode(r: &mut dgs_field::Reader<'_>) -> Result<Self, dgs_field::CodecError> {
        Ok(VertexConnConfig {
            k: r.get_len(1 << 20)?.max(1),
            subgraphs: r.get_len(1 << 24)?.max(1),
            forest: ForestParams::decode(r)?,
        })
    }
}

impl dgs_field::Codec for VertexConnSketch {
    fn encode(&self, w: &mut dgs_field::Writer) {
        w.put_usize(self.space.n());
        w.put_usize(self.space.max_rank());
        self.cfg.encode(w);
        self.subgraphs.encode(w);
    }
    fn decode(r: &mut dgs_field::Reader<'_>) -> Result<Self, dgs_field::CodecError> {
        let bad = |message: String| dgs_field::CodecError { offset: 0, message };
        let n = r.get_len(1 << 32)?;
        let max_rank = r.get_len(64)?;
        let space =
            EdgeSpace::new(n, max_rank).map_err(|e| bad(format!("invalid edge space: {e}")))?;
        let cfg = VertexConnConfig::decode(r)?;
        let subgraphs: Vec<SpanningForestSketch> = Vec::decode(r)?;
        if subgraphs.len() != cfg.subgraphs {
            return Err(bad(format!(
                "subgraph count {} != config {}",
                subgraphs.len(),
                cfg.subgraphs
            )));
        }
        // Rebuild the membership index from the persisted vertex sets.
        let mut membership: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, sk) in subgraphs.iter().enumerate() {
            for &v in sk.vertices() {
                membership[v as usize].push(i as u32);
            }
        }
        Ok(VertexConnSketch {
            space,
            cfg,
            subgraphs,
            membership,
        })
    }
}

/// Player message for the Theorem 4/8 structure: sampler states for each
/// subsampled subgraph containing the player's vertex (expected `R/k` of
/// them, each `O(polylog)` — the `O(k polylog n)` per-player cost after
/// multiplying by the subgraph size accounting of Theorem 4).
#[derive(Clone, Debug)]
pub struct VertexConnPlayerMessage {
    /// The player's vertex.
    pub vertex: VertexId,
    /// `(subgraph index, forest message)` pairs.
    pub per_subgraph: Vec<(u32, dgs_connectivity::PlayerMessage)>,
}

impl VertexConnPlayerMessage {
    /// Message length in bytes.
    pub fn size_bytes(&self) -> usize {
        self.per_subgraph.iter().map(|(_, m)| m.size_bytes()).sum()
    }
}

fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// The decoded union `H` with the paper's two query modes.
#[derive(Clone, Debug)]
pub struct VertexConnCertificate {
    /// `H = T_1 ∪ … ∪ T_R`, a sub-hypergraph of `G` on the full vertex set.
    pub union: Hypergraph,
}

impl VertexConnCertificate {
    /// Theorem 4 query: does removing the vertex set `S` disconnect the
    /// graph? (whp equals the answer on `G` for `|S| <= k`).
    pub fn disconnects(&self, s: &[VertexId]) -> bool {
        hyper_disconnects(&self.union, s)
    }

    /// `min(κ(H), cap)` — Theorem 8 post-processing. Guarantees (whp):
    /// `κ(H) <= κ(G)`, and `κ(H) >= k` whenever `κ(G) >= (1+ε)k`.
    pub fn vertex_connectivity(&self, cap: usize) -> usize {
        vertex_connectivity_bounded(&self.union.clique_expansion(), cap)
    }

    /// Number of edges retained in `H` (the decoded-certificate size).
    pub fn edge_count(&self) -> usize {
        self.union.edge_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_field::prng::*;
    use dgs_hypergraph::algo::vertex_conn::{disconnects, vertex_connectivity};
    use dgs_hypergraph::generators::{harary, planted_separator};
    use dgs_hypergraph::Graph;

    fn load(sk: &mut VertexConnSketch, g: &Graph) {
        for (u, v) in g.edges() {
            sk.try_update(&HyperEdge::pair(u, v), 1).unwrap();
        }
    }

    fn sketch_for(g: &Graph, k: usize, mult: f64, label: u64) -> VertexConnSketch {
        let space = EdgeSpace::graph(g.n()).unwrap();
        let cfg = VertexConnConfig::query(k, g.n(), mult, Profile::Practical);
        let mut sk = VertexConnSketch::new(space, cfg, &SeedTree::new(2025).child(label));
        load(&mut sk, g);
        sk
    }

    #[test]
    fn intersect_sorted_basics() {
        assert_eq!(
            intersect_sorted(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]),
            vec![3, 7]
        );
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<u32>::new());
        assert_eq!(intersect_sorted(&[1, 2], &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn config_r_scaling() {
        let q = VertexConnConfig::query(3, 100, 16.0, Profile::Practical);
        assert_eq!(q.subgraphs, (16.0 * 9.0 * (100f64).ln()).ceil() as usize);
        let e = VertexConnConfig::estimator(3, 100, 0.5, 16.0, Profile::Practical);
        assert_eq!(e.subgraphs, (32.0 * 9.0 * (100f64).ln()).ceil() as usize);
    }

    #[test]
    fn query_detects_planted_separator() {
        // κ(G) = 2: removing the separator disconnects; nothing smaller does.
        let g = planted_separator(5, 5, 2);
        let sk = sketch_for(&g, 2, 3.0, 1);
        let cert = sk.try_certificate().unwrap();
        let sep: Vec<u32> = vec![5, 6];
        assert!(cert.disconnects(&sep), "separator removal not detected");
        // Non-separating pairs agree with ground truth.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let a = rng.gen_range(0..g.n() as u32);
            let b = rng.gen_range(0..g.n() as u32);
            if a == b {
                continue;
            }
            assert_eq!(
                cert.disconnects(&[a, b]),
                disconnects(&g, &[a, b]),
                "query mismatch on {{{a},{b}}}"
            );
        }
    }

    #[test]
    fn query_survives_deletion_churn() {
        let g = planted_separator(4, 4, 2);
        let space = EdgeSpace::graph(g.n()).unwrap();
        let cfg = VertexConnConfig::query(2, g.n(), 3.0, Profile::Practical);
        let mut sk = VertexConnSketch::new(space, cfg, &SeedTree::new(77));
        // Insert a complete graph, then delete down to g.
        let full = Graph::complete(g.n());
        load(&mut sk, &full);
        for (u, v) in full.edges() {
            if !g.has_edge(u, v) {
                sk.try_update(&HyperEdge::pair(u, v), -1).unwrap();
            }
        }
        let cert = sk.try_certificate().unwrap();
        assert!(cert.disconnects(&[4, 5]));
        assert!(!cert.disconnects(&[0]));
        // Every retained edge is a real edge of the final graph.
        for e in cert.union.edges() {
            let (u, v) = e.as_pair();
            assert!(g.has_edge(u, v), "phantom edge ({u},{v}) after churn");
        }
    }

    #[test]
    fn estimator_lower_bounds_kappa_and_certifies_high_connectivity() {
        // H_{6,n} is exactly 6-connected. The estimator with k = 4 must
        // report κ(H) >= 4 (since κ(G) = 6 >= (1+0.5)·4) and never above 6.
        let g = harary(6, 24);
        let space = EdgeSpace::graph(g.n()).unwrap();
        let cfg = VertexConnConfig::estimator(4, g.n(), 0.5, 8.0, Profile::Practical);
        let mut sk = VertexConnSketch::new(space, cfg, &SeedTree::new(321));
        load(&mut sk, &g);
        let cert = sk.try_certificate().unwrap();
        let est = cert.vertex_connectivity(10);
        assert!(est <= vertex_connectivity(&g), "κ(H) = {est} exceeds κ(G)");
        assert!(est >= 4, "κ(H) = {est} too small for a 6-connected input");
    }

    #[test]
    fn low_connectivity_never_inflated() {
        // A path has κ = 1; the certificate is a subgraph so κ(H) <= 1.
        let mut g = Graph::new(10);
        for i in 0..9u32 {
            g.add_edge(i, i + 1);
        }
        let sk = sketch_for(&g, 3, 4.0, 9);
        let cert = sk.try_certificate().unwrap();
        assert!(cert.vertex_connectivity(10) <= 1);
    }

    #[test]
    fn hypergraph_queries_via_clique_expansion() {
        use dgs_hypergraph::Hypergraph;
        // Two fat hyperedges sharing vertex 2: removing {2} disconnects.
        let h = Hypergraph::from_edges(
            5,
            vec![
                HyperEdge::new(vec![0, 1, 2]).unwrap(),
                HyperEdge::new(vec![2, 3, 4]).unwrap(),
            ],
        );
        let space = EdgeSpace::new(5, 3).unwrap();
        let cfg = VertexConnConfig::query(1, 5, 4.0, Profile::Practical);
        let mut sk = VertexConnSketch::new(space, cfg, &SeedTree::new(555));
        for e in h.edges() {
            sk.try_update(e, 1).unwrap();
        }
        let cert = sk.try_certificate().unwrap();
        assert!(cert.disconnects(&[2]));
        assert!(!cert.disconnects(&[0]));
    }

    #[test]
    fn sampling_probability_honored() {
        let n = 200;
        let space = EdgeSpace::graph(n).unwrap();
        let k = 4;
        let cfg = VertexConnConfig::explicit(
            k,
            50,
            ForestParams::new(Profile::Practical, space.dimension()),
        );
        let sk = VertexConnSketch::new(space, cfg, &SeedTree::new(999));
        // Average sampled-set size should be ~n/k.
        let avg = sk.sampler_slots() as f64 / 50.0;
        let expect = n as f64 / k as f64;
        assert!(
            (avg - expect).abs() < expect * 0.25,
            "avg subgraph size {avg} vs expected {expect}"
        );
    }

    #[test]
    fn player_assembly_equals_central_sketch() {
        use dgs_hypergraph::Hypergraph;
        let g = planted_separator(4, 4, 2);
        let h = Hypergraph::from_graph(&g);
        let n = g.n();
        let space = EdgeSpace::graph(n).unwrap();
        let cfg = VertexConnConfig::query(2, n, 2.0, Profile::Practical);
        let seeds = SeedTree::new(8181);

        let mut central = VertexConnSketch::new(space.clone(), cfg, &seeds);
        for e in h.edges() {
            central.try_update(e, 1).unwrap();
        }

        let mut assembled = VertexConnSketch::new(space.clone(), cfg, &seeds);
        let mut total_msg = 0;
        for v in 0..n as u32 {
            let incident: Vec<HyperEdge> = h
                .edges()
                .iter()
                .filter(|e| e.contains(v))
                .cloned()
                .collect();
            let msg =
                VertexConnSketch::try_player_message(&space, &cfg, &seeds, v, &incident).unwrap();
            assert_eq!(msg.vertex, v);
            total_msg += msg.size_bytes();
            assembled.try_install_player(msg).unwrap();
        }
        // Bit-identical states => identical certificates.
        let (c1, c2) = (
            central.try_certificate().unwrap(),
            assembled.try_certificate().unwrap(),
        );
        assert_eq!(c1.union.edges(), c2.union.edges());
        assert!(c2.disconnects(&[4, 5]));
        assert_eq!(total_msg, central.size_bytes());
    }

    #[test]
    fn parallel_certificate_matches_sequential() {
        let g = planted_separator(5, 5, 2);
        let sk = sketch_for(&g, 2, 3.0, 11);
        let seq = sk.try_certificate().unwrap();
        // The one-thread certificate is the union of the subgraph forests,
        // each decoded on its own.
        let mut union = Hypergraph::new(g.n());
        for sub in &sk.subgraphs {
            for e in sub.try_decode().unwrap() {
                union.add_edge(e);
            }
        }
        assert_eq!(seq.union.edges(), union.edges());
        for threads in [2usize, 4, 7] {
            let par = sk.try_certificate_par(threads).unwrap();
            assert_eq!(seq.union.edges(), par.union.edges(), "{threads} threads");
        }
    }

    #[test]
    fn certificate_reports_the_first_failing_subgraph_at_every_thread_count() {
        let n = 24;
        let space = EdgeSpace::graph(n).unwrap();
        let cfg = VertexConnConfig::query(2, n, 1.0, Profile::Practical);
        let seeds = SeedTree::new(7);
        let mut sk = VertexConnSketch::new(space.clone(), cfg, &seeds);
        // Plant, in two subgraphs of an edgeless stream, an edge to a vertex
        // the subgraph does not hold: each decode samples its own planted
        // edge and fails naming it.
        for (i, pick) in [(3usize, 0usize), (9, 1)] {
            let present = sk.subgraphs[i].vertices().to_vec();
            let v = present[pick];
            let x = (0..n as VertexId)
                .find(|x| present.binary_search(x).is_err())
                .unwrap();
            let mut msg = dgs_connectivity::PlayerMessage::new_induced(
                &space,
                present.len(),
                v,
                &seeds.child2(1, i as u64),
                cfg.forest,
            );
            msg.try_apply(&space, &HyperEdge::pair(v, x), 1).unwrap();
            sk.subgraphs[i]
                .try_set_vertex_samplers(v, msg.samplers)
                .unwrap();
        }
        let errors: Vec<String> = sk
            .subgraphs
            .iter()
            .filter_map(|sub| sub.try_decode().err())
            .map(|e| e.to_string())
            .collect();
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert_ne!(errors[0], errors[1]);
        for threads in [1usize, 2, 4, 7] {
            let got = sk.try_certificate_par(threads).unwrap_err().to_string();
            assert_eq!(got, errors[0], "{threads} threads");
        }
    }

    #[test]
    fn size_grows_with_r() {
        let n = 30;
        let space = EdgeSpace::graph(n).unwrap();
        let fp = ForestParams::new(Profile::Practical, space.dimension());
        let small = VertexConnSketch::new(
            space.clone(),
            VertexConnConfig::explicit(2, 10, fp),
            &SeedTree::new(1),
        );
        let large = VertexConnSketch::new(
            space,
            VertexConnConfig::explicit(2, 40, fp),
            &SeedTree::new(1),
        );
        assert!(large.size_bytes() > 2 * small.size_bytes());
    }
}
