//! The simultaneous communication model of Becker et al. (Section 2):
//! n players, each holding one vertex's incident hyperedges, send a single
//! message to a referee who decides connectivity.
//!
//! Because the paper's sketches are *vertex-based*, each player computes
//! its message locally; the referee's reassembled sketch is bit-identical
//! to a centrally built one. This drives the whole pipeline and prints the
//! per-player message size — the quantity the model minimizes.
//!
//! ```sh
//! cargo run --release --example distributed_players
//! ```

use dynamic_graph_streams::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(3);
    let n = 20;

    // A mixed-rank collaboration hypergraph.
    let h = dgs_hypergraph::generators::random_mixed_hypergraph(n, 3, 18, &mut rng);
    println!(
        "input: {} hyperedges over {} players, exact components = {}",
        h.edge_count(),
        n,
        dgs_hypergraph::algo::hyper_component_count(&h)
    );

    // Public randomness: every player derives the same seed tree.
    let public_seed = SeedTree::new(0xF00D);
    let space = EdgeSpace::new(n, 3).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());

    // Each player sees ONLY its incident hyperedges and builds its message.
    let mut messages = Vec::new();
    let mut max_msg = 0;
    for v in 0..n as u32 {
        let incident: Vec<HyperEdge> = h
            .edges()
            .iter()
            .filter(|e| e.contains(v))
            .cloned()
            .collect();
        let msg = try_player_sketch(&space, v, &incident, &public_seed, params)
            .expect("player edges are incident to the player");
        max_msg = max_msg.max(msg.size_bytes());
        messages.push(msg);
    }
    println!(
        "players sent {} messages, max message = {} bytes ({} total)",
        messages.len(),
        max_msg,
        messages.iter().map(|m| m.size_bytes()).sum::<usize>()
    );

    // The referee reassembles and decodes.
    let referee = try_assemble_players(&space, messages, &public_seed, params)
        .expect("player messages match the sketch");
    let (spanning, labels) = referee
        .try_decode_with_labels()
        .expect("forest decode certifies");
    println!(
        "referee: decoded spanning structure with {} hyperedges, {} components",
        spanning.len(),
        labels.component_count()
    );

    // Sanity: identical to the centralized sketch.
    let mut central = SpanningForestSketch::new_full(space, &public_seed, params);
    for e in h.edges() {
        central
            .try_update(e, 1)
            .expect("stream edges lie in the sketch's space");
    }
    assert_eq!(
        central.try_decode().expect("forest decode certifies"),
        spanning
    );
    println!("referee's decode == centralized decode (bit-identical sketch states)");
}
