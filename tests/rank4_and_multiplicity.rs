//! Edge cases the paper's statements quantify over but the main experiments
//! exercise lightly: higher-rank hyperedges (`r = 4`) end-to-end, and
//! multigraph-style multiplicities (linear sketches see net integer
//! multiplicities, not just 0/1).

use dynamic_graph_streams::core::{EdgeConnSketch, LightRecoverySketch};
use dynamic_graph_streams::prelude::*;

use dgs_hypergraph::algo;
use dgs_hypergraph::generators;

fn params_for(space: &EdgeSpace) -> ForestParams {
    ForestParams::new(Profile::Practical, space.dimension())
}

#[test]
fn rank_4_spanning_and_connectivity() {
    let mut rng = StdRng::seed_from_u64(1);
    for trial in 0..5 {
        let n = 14;
        let h = generators::random_uniform_hypergraph(n, 4, rng.gen_range(3..12), &mut rng);
        let space = EdgeSpace::new(n, 4).unwrap();
        let mut sk = SpanningForestSketch::new_full(
            space.clone(),
            &SeedTree::new(trial),
            params_for(&space),
        );
        let stream = generators::churn_stream(&h, generators::ChurnConfig::default(), &mut rng);
        for u in &stream.updates {
            sk.try_update(&u.edge, u.op.delta()).unwrap();
        }
        let (kept, labels) = sk.try_decode_with_labels().unwrap();
        assert_eq!(
            labels.component_count(),
            algo::hyper_component_count(&h),
            "trial {trial}"
        );
        for e in &kept {
            assert!(h.has_edge(e), "trial {trial}: phantom rank-4 edge {e:?}");
        }
    }
}

#[test]
fn rank_4_light_recovery_matches_exact() {
    let mut rng = StdRng::seed_from_u64(2);
    let n = 12;
    let h = generators::random_uniform_hypergraph(n, 4, 9, &mut rng);
    let space = EdgeSpace::new(n, 4).unwrap();
    let mut sk = LightRecoverySketch::new(space.clone(), 1, &SeedTree::new(7), params_for(&space));
    for e in h.edges() {
        sk.try_update(e, 1).unwrap();
    }
    let recovered: std::collections::BTreeSet<HyperEdge> =
        sk.try_recover().unwrap().edges().into_iter().collect();
    let (exact, _) = algo::strength::light_k_exact(&h, 1);
    let exact_set: std::collections::BTreeSet<HyperEdge> =
        exact.iter().map(|&i| h.edges()[i].clone()).collect();
    assert_eq!(recovered, exact_set);
}

#[test]
fn rank_4_edge_connectivity() {
    // Two rank-4 blobs joined by one fat hyperedge: λ = 1 with the joining
    // edge as witness.
    let mut rng = StdRng::seed_from_u64(3);
    let (mut h, _) = generators::planted_hyper_cut(6, 6, 4, 10, 0, &mut rng);
    let bridge = HyperEdge::new(vec![0, 1, 6, 7]).unwrap();
    h.add_edge(bridge.clone());
    assert_eq!(algo::hyper_edge_connectivity(&h), 1);

    let space = EdgeSpace::new(12, 4).unwrap();
    let mut sk = EdgeConnSketch::new(space.clone(), 3, &SeedTree::new(8), params_for(&space));
    for e in h.edges() {
        sk.try_update(e, 1).unwrap();
    }
    let (lambda, side) = sk.try_edge_connectivity().unwrap();
    assert_eq!(lambda, 1);
    assert_eq!(h.cut_size(&side), 1);
}

#[test]
fn multigraph_multiplicities_are_first_class() {
    // A linear sketch tracks net multiplicities: insert an edge 3 times,
    // delete it twice — it must still read as present; one more deletion
    // removes it. (The strict `UpdateStream` forbids this; the sketch layer
    // itself is multiplicty-agnostic, which multigraph users rely on.)
    let n = 6;
    let space = EdgeSpace::graph(n).unwrap();
    let mut sk = SpanningForestSketch::new_full(
        space,
        &SeedTree::new(9),
        ForestParams::new(Profile::Practical, EdgeSpace::graph(n).unwrap().dimension()),
    );
    let e = HyperEdge::pair(2, 4);
    sk.try_update(&e, 1).unwrap();
    sk.try_update(&e, 1).unwrap();
    sk.try_update(&e, 1).unwrap();
    sk.try_update(&e, -1).unwrap();
    sk.try_update(&e, -1).unwrap();
    let forest = sk.try_decode().unwrap();
    assert_eq!(forest, vec![e.clone()], "multiplicity 1 edge must decode");
    sk.try_update(&e, -1).unwrap();
    assert!(
        sk.try_decode().unwrap().is_empty(),
        "multiplicity 0 edge must vanish"
    );
}

#[test]
fn batched_weight_updates_equal_repeated_unit_updates() {
    // delta = +3 in one call is the same linear functional as three +1s.
    let n = 8;
    let space = EdgeSpace::graph(n).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let seeds = SeedTree::new(10);
    let mut a = SpanningForestSketch::new_full(space.clone(), &seeds, params);
    let mut b = SpanningForestSketch::new_full(space, &seeds, params);
    let e1 = HyperEdge::pair(0, 1);
    let e2 = HyperEdge::new(vec![2, 3]).unwrap();
    a.try_update(&e1, 3).unwrap();
    a.try_update(&e2, 2).unwrap();
    for _ in 0..3 {
        b.try_update(&e1, 1).unwrap();
    }
    for _ in 0..2 {
        b.try_update(&e2, 1).unwrap();
    }
    assert_eq!(a.try_decode().unwrap(), b.try_decode().unwrap());
    // And net-zero via a big negative delta.
    a.try_update(&e1, -3).unwrap();
    a.try_update(&e2, -2).unwrap();
    assert!(a.try_decode().unwrap().is_empty());
}

#[test]
fn mixed_rank_stream_through_the_sparsifier() {
    use dynamic_graph_streams::core::{HypergraphSparsifier, SparsifierConfig};
    let mut rng = StdRng::seed_from_u64(4);
    let h = generators::random_mixed_hypergraph(11, 4, 26, &mut rng);
    let space = EdgeSpace::new(11, 4).unwrap();
    let cfg = SparsifierConfig::explicit(10, 8, params_for(&space));
    let mut sp = HypergraphSparsifier::new(space, cfg, &SeedTree::new(11));
    let stream = generators::churn_stream(&h, generators::ChurnConfig::default(), &mut rng);
    for u in &stream.updates {
        sp.try_update(&u.edge, u.op.delta()).unwrap();
    }
    let res = sp.try_decode().unwrap();
    assert!(res.complete);
    // k = 10 >= every λ_e at this density: exact reproduction.
    assert_eq!(res.sparsifier.edge_count(), h.edge_count());
    for (e, w) in res.sparsifier.iter() {
        assert!(h.has_edge(e));
        assert_eq!(w, 1.0);
    }
}
