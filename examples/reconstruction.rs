//! Reconstructing a cut-degenerate graph from per-vertex sketches
//! (Section 4, Theorem 15) — including the Lemma 10 gadget that defeats
//! degeneracy-based reconstruction.
//!
//! ```sh
//! cargo run --release --example reconstruction
//! ```

use dynamic_graph_streams::prelude::*;

fn reconstruct_and_report(name: &str, h: &Hypergraph, k: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let space = EdgeSpace::new(h.n(), h.max_rank().max(2)).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let mut sk = LightRecoverySketch::new(space, k, &SeedTree::new(seed), params);

    // Drive a dynamic stream with deletions.
    let stream = dgs_hypergraph::generators::churn_stream(
        h,
        dgs_hypergraph::generators::ChurnConfig::default(),
        &mut rng,
    );
    for u in &stream.updates {
        sk.try_update(&u.edge, u.op.delta())
            .expect("stream edges lie in the sketch's space");
    }

    match sk.try_reconstruct().expect("light_k peel certifies") {
        Some(rec) => {
            let exact =
                rec.edge_count() == h.edge_count() && h.edges().iter().all(|e| rec.has_edge(e));
            println!(
                "{name:>18}: reconstructed {} / {} edges from {} bytes/player — exact: {exact}",
                rec.edge_count(),
                h.edge_count(),
                sk.max_player_message_bytes()
            );
        }
        None => {
            let rec = sk.try_recover().expect("light_k peel certifies");
            println!(
                "{name:>18}: NOT {k}-cut-degenerate — recovered light_{k} = {} of {} edges",
                rec.edge_count(),
                h.edge_count()
            );
        }
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    println!("Theorem 15: reconstruct k-cut-degenerate (hyper)graphs from O(k polylog n)-size");
    println!("vertex-based sketches; recover light_k otherwise.\n");

    // 1-cut-degenerate: a random tree.
    let tree = Hypergraph::from_graph(&dgs_hypergraph::generators::random_tree(24, &mut rng));
    reconstruct_and_report("random tree", &tree, 1, 1);

    // 2-cut-degenerate: a grid.
    let grid = Hypergraph::from_graph(&dgs_hypergraph::generators::grid(5, 4));
    reconstruct_and_report("5x4 grid", &grid, 2, 2);

    // The Lemma 10 gadget: 2-cut-degenerate but minimum degree 3 — the
    // d-degenerate method of Becker et al. with d = 2 does not apply, yet
    // Theorem 15 reconstructs it with k = 2.
    let gadget = Hypergraph::from_graph(&dgs_hypergraph::generators::lemma10_gadget());
    let deg = dgs_hypergraph::algo::degeneracy(&gadget);
    let cut_deg = dgs_hypergraph::algo::cut_degeneracy(&gadget);
    println!("\nlemma-10 gadget: degeneracy = {deg}, cut-degeneracy = {cut_deg}");
    reconstruct_and_report("lemma-10 gadget", &gadget, 2, 3);

    // A hypergraph chain (1-cut-degenerate, rank 3).
    let chain = Hypergraph::from_edges(
        11,
        (0..5).map(|i| HyperEdge::new(vec![2 * i, 2 * i + 1, 2 * i + 2]).unwrap()),
    );
    reconstruct_and_report("hyperedge chain", &chain, 1, 4);

    // Not cut-degenerate enough: a clique core — only the pendant fringe is
    // light, and the sketch says so instead of fabricating edges.
    let mut g = Graph::new(10);
    for u in 0..6u32 {
        for v in (u + 1)..6 {
            g.add_edge(u, v);
        }
    }
    for i in 6..10u32 {
        g.add_edge(i, i - 6);
    }
    let core = Hypergraph::from_graph(&g);
    println!();
    reconstruct_and_report("K6 + pendants", &core, 2, 5);
}
