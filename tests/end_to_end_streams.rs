//! End-to-end integration: dynamic streams → sketches → decoded answers,
//! validated against exact algorithms across crates.

use dynamic_graph_streams::prelude::*;

use dgs_hypergraph::algo;
use dgs_hypergraph::generators;

fn feed<F: FnMut(&HyperEdge, i64)>(stream: &UpdateStream, mut f: F) {
    for u in &stream.updates {
        f(&u.edge, u.op.delta());
    }
}

#[test]
fn forest_sketch_tracks_connectivity_through_full_lifecycle() {
    // One sketch, three graph phases: grow to connected, shrink to
    // disconnected, regrow. The verdict must track every phase.
    let n = 20;
    let space = EdgeSpace::graph(n).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let mut sk = SpanningForestSketch::new_full(space, &SeedTree::new(1), params);

    // Phase 1: a path (connected).
    for v in 0..(n - 1) as u32 {
        sk.try_update(&HyperEdge::pair(v, v + 1), 1).unwrap();
    }
    assert!(sk.try_is_connected().unwrap());

    // Phase 2: cut the middle edge (two components).
    sk.try_update(&HyperEdge::pair(9, 10), -1).unwrap();
    assert_eq!(sk.try_component_count().unwrap(), 2);

    // Phase 3: bridge the halves elsewhere.
    sk.try_update(&HyperEdge::pair(0, 19), 1).unwrap();
    assert!(sk.try_is_connected().unwrap());
}

#[test]
fn vertex_connectivity_pipeline_matches_exact_on_harary_family() {
    let mut rng = StdRng::seed_from_u64(2);
    for (kappa, n) in [(2usize, 18usize), (3, 18)] {
        let g = generators::harary(kappa, n);
        let h = Hypergraph::from_graph(&g);
        let stream = generators::churn_stream(&h, generators::ChurnConfig::default(), &mut rng);
        let space = EdgeSpace::graph(n).unwrap();
        let cfg = VertexConnConfig::query(kappa, n, 3.0, Profile::Practical);
        let mut sk = VertexConnSketch::new(space, cfg, &SeedTree::new(kappa as u64));
        feed(&stream, |e, d| sk.try_update(e, d).unwrap());
        let cert = sk.try_certificate().unwrap();
        // κ(H) <= κ(G) deterministically; should reach κ whp at this R.
        let est = cert.vertex_connectivity(kappa + 2);
        assert!(est <= kappa, "κ(H) = {est} above κ(G) = {kappa}");
        assert!(est >= kappa - 1, "κ(H) = {est} far below κ(G) = {kappa}");
        // Removal queries agree with ground truth on single vertices.
        for v in (0..n as u32).step_by(5) {
            assert_eq!(
                cert.disconnects(&[v]),
                algo::vertex_conn::disconnects(&g, &[v]),
                "H_{{{kappa},{n}}} vertex {v}"
            );
        }
    }
}

#[test]
fn skeleton_union_bounds_every_cut_from_a_churn_stream() {
    let mut rng = StdRng::seed_from_u64(3);
    let n = 11;
    let g = generators::gnp(n, 0.6, &mut rng);
    let h = Hypergraph::from_graph(&g);
    let stream = generators::churn_stream(&h, generators::ChurnConfig::default(), &mut rng);
    let k = 2;
    let space = EdgeSpace::graph(n).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let mut sk = KSkeletonSketch::new(space, k, &SeedTree::new(4), params);
    feed(&stream, |e, d| sk.try_update(e, d).unwrap());
    let skeleton = Hypergraph::from_edges(n, sk.try_decode().unwrap());
    for mask in 1u32..(1 << (n - 1)) {
        let side: Vec<bool> = (0..n).map(|v| v > 0 && mask >> (v - 1) & 1 == 1).collect();
        assert!(
            skeleton.cut_size(&side) >= h.cut_size(&side).min(k),
            "cut violated at mask {mask}"
        );
    }
}

#[test]
fn sparsifier_pipeline_preserves_planted_cut_and_min_cut() {
    let mut rng = StdRng::seed_from_u64(5);
    let (h, side) = generators::planted_hyper_cut(6, 6, 3, 14, 2, &mut rng);
    let stream = generators::churn_stream(&h, generators::ChurnConfig::default(), &mut rng);
    let space = EdgeSpace::new(h.n(), 3).unwrap();
    // k = 10 exceeds every λ_e here, so the decode must reproduce the
    // hypergraph exactly (weight-1 edges) — the strongest end-to-end check.
    let cfg = SparsifierConfig::explicit(
        10,
        8,
        ForestParams::new(Profile::Practical, space.dimension()),
    );
    let mut sp = HypergraphSparsifier::new(space, cfg, &SeedTree::new(6));
    feed(&stream, |e, d| sp.try_update(e, d).unwrap());
    let res = sp.try_decode().unwrap();
    assert!(res.complete);
    // Light planted cut is recovered exactly at level 0 with unit weight.
    assert_eq!(res.sparsifier.cut_weight(&side), 2.0);
    let (true_min, _) = algo::hyper_min_cut(&h).unwrap();
    let approx = algo::weighted_min_cut_value(&res.sparsifier).unwrap();
    assert_eq!(true_min, 2);
    assert!((approx - 2.0).abs() < 1e-9, "sparsifier min cut {approx}");
    assert_eq!(res.sparsifier.edge_count(), h.edge_count());
}

#[test]
fn store_all_and_sketch_agree_on_final_graph_connectivity() {
    let mut rng = StdRng::seed_from_u64(7);
    for trial in 0..5 {
        let n = 16;
        let g = generators::gnp(n, rng.gen_range(0.05..0.3), &mut rng);
        let h = Hypergraph::from_graph(&g);
        let stream = generators::churn_stream(&h, generators::ChurnConfig::default(), &mut rng);

        let mut store = StoreAll::new(n);
        for u in &stream.updates {
            store.process(u).unwrap();
        }
        let exact_comps = algo::hyper_component_count(&store.hypergraph());

        let space = EdgeSpace::graph(n).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let mut sk = SpanningForestSketch::new_full(space, &SeedTree::new(70 + trial), params);
        feed(&stream, |e, d| sk.try_update(e, d).unwrap());
        assert_eq!(
            sk.try_component_count().unwrap(),
            exact_comps,
            "trial {trial}"
        );
    }
}

#[test]
fn eppstein_baseline_and_sketch_disagree_only_under_deletions() {
    // Insert-only: both correct. Core-then-delete: only the sketch is.
    let n = 12;
    let k = 1;
    let mut adversarial = UpdateStream::new(n, 2);
    for v in 1..n as u32 {
        adversarial.push_insert(HyperEdge::pair(0, v));
    }
    for v in 1..(n - 1) as u32 {
        adversarial.push_insert(HyperEdge::pair(v, v + 1));
    }
    for v in 1..n as u32 {
        adversarial.push_delete(HyperEdge::pair(0, v));
    }
    let final_g = adversarial.final_graph().unwrap();
    // Final graph: path over 1..n with vertex 0 isolated.
    assert_eq!(algo::component_count(&final_g), 2);

    let mut cert = EppsteinCertificate::new(n, k);
    for u in &adversarial.updates {
        cert.process(u);
    }
    // The baseline lost the path entirely.
    assert_eq!(cert.stored_edges(), 0);

    let space = EdgeSpace::graph(n).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let mut sk = SpanningForestSketch::new_full(space, &SeedTree::new(8), params);
    feed(&adversarial, |e, d| sk.try_update(e, d).unwrap());
    assert_eq!(
        sk.try_component_count().unwrap(),
        2,
        "sketch sees the true final graph"
    );
    let decoded = sk.try_decode().unwrap();
    assert_eq!(decoded.len(), n - 2, "the full path is decodable");
}
