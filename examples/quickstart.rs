//! Quickstart: sketch a dynamic graph stream and answer connectivity and
//! vertex-connectivity questions from the sketch alone.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dynamic_graph_streams::prelude::*;

fn main() {
    // --- The input: a dynamic stream over n vertices ----------------------
    // We build a wheel graph (hub 0 + cycle 1..n-1), then churn it: insert
    // noise edges and delete them again. Only the *final* graph matters to
    // any linear sketch.
    let n = 32;
    let mut final_graph = Graph::new(n);
    for v in 1..n as u32 {
        final_graph.add_edge(0, v);
        let next = if v as usize == n - 1 { 1 } else { v + 1 };
        final_graph.add_edge(v, next);
    }
    let hyper = Hypergraph::from_graph(&final_graph);
    let mut rng = StdRng::seed_from_u64(7);
    let stream = dgs_hypergraph::generators::churn_stream(
        &hyper,
        dgs_hypergraph::generators::ChurnConfig {
            noise_ratio: 1.0,
            churn_ratio: 0.3,
        },
        &mut rng,
    );
    println!(
        "stream: {} updates ({:.0}% deletions) over n = {n} vertices, final m = {}",
        stream.len(),
        100.0 * stream.deletion_fraction(),
        hyper.edge_count()
    );

    // --- Sketch 1: spanning forest / connectivity (Theorem 2) -------------
    let space = EdgeSpace::graph(n).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let mut forest = SpanningForestSketch::new_full(space.clone(), &SeedTree::new(1), params);
    for u in &stream.updates {
        forest
            .try_update(&u.edge, u.op.delta())
            .expect("stream edges lie in the sketch's space");
    }
    let tree = forest.try_decode().expect("forest decode certifies");
    println!(
        "forest sketch: {} bytes, decoded {} tree edges, connected = {}",
        forest.size_bytes(),
        tree.len(),
        forest.try_is_connected().expect("forest decode certifies")
    );

    // --- Sketch 2: vertex-connectivity queries (Theorem 4) ----------------
    // A wheel has κ = 3; removing any hub-adjacent triple {hub, v-1, v+1}
    // disconnects v. Query the sketch with and without the hub.
    let k = 3;
    let cfg = VertexConnConfig::query(k, n, 2.0, Profile::Practical);
    let mut vc = VertexConnSketch::new(space, cfg, &SeedTree::new(2));
    for u in &stream.updates {
        vc.try_update(&u.edge, u.op.delta())
            .expect("stream edges lie in the sketch's space");
    }
    let cert = vc.try_certificate().expect("certificate decode certifies");
    let cut = [0u32, 4, 6]; // hub + the two cycle neighbors of vertex 5
    println!(
        "vertex-conn sketch: {} bytes (R = {} subgraphs)",
        vc.size_bytes(),
        vc.config().subgraphs
    );
    println!(
        "  does removing {{0, 4, 6}} disconnect?  sketch says {}",
        cert.disconnects(&cut)
    );
    println!(
        "  does removing {{4, 6}} disconnect?     sketch says {}",
        cert.disconnects(&cut[1..])
    );
    println!(
        "  decoded κ(H) = {} (true κ = 3)",
        cert.vertex_connectivity(6)
    );
}
