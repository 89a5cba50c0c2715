//! Edge-cut and structure monitoring from sketches — the AGM-style
//! substrate the paper builds on (Section 1.1's "success story"), extended
//! here to hypergraphs: `min(λ, k)` edge connectivity with a cut witness,
//! plus bipartiteness via the double cover.
//!
//! ```sh
//! cargo run --release --example cut_monitoring
//! ```

use dynamic_graph_streams::connectivity::BipartitenessSketch;
use dynamic_graph_streams::core::EdgeConnSketch;
use dynamic_graph_streams::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(77);

    // --- Edge connectivity of a datacenter fabric under churn ------------
    // Two pods joined by 3 uplinks; λ = 3 exactly.
    let (g, _) = dgs_hypergraph::generators::planted_edge_cut(10, 10, 3, 0.85, &mut rng);
    let h = Hypergraph::from_graph(&g);
    let n = g.n();
    println!("fabric: {} links across {} switches", g.edge_count(), n);

    let k = 6;
    let space = EdgeSpace::graph(n).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let mut ec = EdgeConnSketch::new(space, k, &SeedTree::new(1), params);
    let stream = dgs_hypergraph::generators::churn_stream(
        &h,
        dgs_hypergraph::generators::ChurnConfig::default(),
        &mut rng,
    );
    for u in &stream.updates {
        ec.try_update(&u.edge, u.op.delta())
            .expect("stream edges lie in the sketch's space");
    }
    let (lambda, side) = ec
        .try_edge_connectivity()
        .expect("skeleton decode certifies");
    println!(
        "edge-connectivity sketch ({} bytes): min(λ, {k}) = {lambda}",
        ec.size_bytes()
    );
    println!(
        "witness cut isolates {{{}}} switches and is crossed by {} links (exact)",
        side.iter().filter(|&&b| b).count(),
        h.cut_size(&side)
    );
    println!(
        "k-edge-connected for k = {k}? {}",
        ec.try_is_k_edge_connected()
            .expect("skeleton decode certifies")
    );

    // --- Bipartiteness of an interaction graph ---------------------------
    // A user-item interaction graph should be bipartite; a glitch inserts a
    // user-user edge, which is later removed.
    let users = 8;
    let items = 8;
    let gb = dgs_hypergraph::generators::random_bipartite(users, items, 0.4, &mut rng);
    let nb = gb.n();
    let params_b = ForestParams::new(
        Profile::Practical,
        EdgeSpace::graph(2 * nb).unwrap().dimension(),
    );
    let mut bp = BipartitenessSketch::new(nb, &SeedTree::new(2), params_b);
    for (u, v) in gb.edges() {
        bp.try_update(u, v, 1)
            .expect("stream edges lie in the sketch's space");
    }
    println!(
        "\ninteraction graph: bipartite = {}",
        bp.try_is_bipartite().expect("forest decodes certify")
    );

    // The glitch: a user-user edge that closes an odd cycle via two items...
    // any user-user edge between users sharing an item does.
    bp.try_update(0, 1, 1)
        .expect("stream edges lie in the sketch's space");
    let after_glitch = bp.try_is_bipartite().expect("forest decodes certify");
    println!("after glitch edge (user0, user1): bipartite = {after_glitch}");

    bp.try_update(0, 1, -1)
        .expect("stream edges lie in the sketch's space");
    println!(
        "after rollback: bipartite = {}",
        bp.try_is_bipartite().expect("forest decodes certify")
    );
    println!(
        "odd components now: {} (sketch size {} bytes)",
        bp.try_odd_components().expect("forest decodes certify"),
        bp.size_bytes()
    );
}
