//! Integration tests for the simultaneous communication model across the
//! full stack: players → referee → every decoder in the paper.

use dynamic_graph_streams::core::LightRecoverySketch;
use dynamic_graph_streams::prelude::*;

use dgs_hypergraph::algo;
use dgs_hypergraph::generators;

/// Builds per-player messages for a hypergraph and reassembles the sketch.
fn via_players(
    h: &Hypergraph,
    space: &EdgeSpace,
    seeds: &SeedTree,
    params: ForestParams,
) -> SpanningForestSketch {
    let messages: Vec<_> = (0..h.n() as u32)
        .map(|v| {
            let incident: Vec<HyperEdge> = h
                .edges()
                .iter()
                .filter(|e| e.contains(v))
                .cloned()
                .collect();
            try_player_sketch(space, v, &incident, seeds, params).unwrap()
        })
        .collect();
    try_assemble_players(space, messages, seeds, params).unwrap()
}

#[test]
fn referee_decides_connectivity_for_graphs_and_hypergraphs() {
    let mut rng = StdRng::seed_from_u64(1);
    for trial in 0..6 {
        let n = 14;
        let h = if trial % 2 == 0 {
            Hypergraph::from_graph(&generators::gnp(n, 0.18, &mut rng))
        } else {
            generators::random_mixed_hypergraph(n, 3, rng.gen_range(4..14), &mut rng)
        };
        let r = h.max_rank().max(2);
        let space = EdgeSpace::new(n, r).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let seeds = SeedTree::new(100 + trial);
        let assembled = via_players(&h, &space, &seeds, params);
        let (_, labels) = assembled.try_decode_with_labels().unwrap();
        assert_eq!(
            labels.component_count(),
            algo::hyper_component_count(&h),
            "trial {trial}"
        );
    }
}

#[test]
fn message_sizes_are_balanced_and_account_for_the_sketch() {
    let n = 12;
    let h = generators::random_uniform_hypergraph(n, 3, 10, &mut StdRng::seed_from_u64(2));
    let space = EdgeSpace::new(n, 3).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let seeds = SeedTree::new(3);
    let messages: Vec<_> = (0..n as u32)
        .map(|v| {
            let incident: Vec<HyperEdge> = h
                .edges()
                .iter()
                .filter(|e| e.contains(v))
                .cloned()
                .collect();
            try_player_sketch(&space, v, &incident, &seeds, params).unwrap()
        })
        .collect();
    // Vertex-based sketches: every player pays the same structural cost.
    let sizes: Vec<usize> = messages.iter().map(|m| m.size_bytes()).collect();
    assert!(
        sizes.windows(2).all(|w| w[0] == w[1]),
        "unbalanced messages: {sizes:?}"
    );
    let full = SpanningForestSketch::new_full(space, &seeds, params);
    assert_eq!(sizes.iter().sum::<usize>(), full.size_bytes());
}

#[test]
fn light_recovery_via_players_reconstructs() {
    // Theorem 15 end-to-end in the communication model: every player sends
    // its k+1 forest messages; the referee reconstructs the whole
    // cut-degenerate graph.
    let g = generators::lemma10_gadget();
    let h = Hypergraph::from_graph(&g);
    let n = g.n();
    let k = 2;
    let space = EdgeSpace::graph(n).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let seeds = SeedTree::new(606);
    let mut referee = LightRecoverySketch::new(space.clone(), k, &seeds, params);
    for v in 0..n as u32 {
        let incident: Vec<HyperEdge> = h
            .edges()
            .iter()
            .filter(|e| e.contains(v))
            .cloned()
            .collect();
        let msgs = LightRecoverySketch::try_player_message(&space, k, v, &incident, &seeds, params)
            .unwrap();
        assert_eq!(msgs.len(), k + 1);
        referee.try_install_player(msgs).unwrap();
    }
    let rec = referee
        .try_reconstruct()
        .unwrap()
        .expect("gadget is 2-cut-degenerate");
    assert_eq!(rec.edge_count(), h.edge_count());
}

#[test]
fn sparsifier_via_players_equals_central() {
    use dynamic_graph_streams::core::HypergraphSparsifier;
    let mut rng = StdRng::seed_from_u64(7);
    let h = generators::random_uniform_hypergraph(10, 3, 20, &mut rng);
    let space = EdgeSpace::new(10, 3).unwrap();
    let cfg = SparsifierConfig::explicit(
        3,
        6,
        ForestParams::new(Profile::Practical, space.dimension()),
    );
    let seeds = SeedTree::new(707);

    let mut central = HypergraphSparsifier::new(space.clone(), cfg, &seeds);
    for e in h.edges() {
        central.try_update(e, 1).unwrap();
    }

    let mut assembled = HypergraphSparsifier::new(space.clone(), cfg, &seeds);
    for v in 0..10u32 {
        let incident: Vec<HyperEdge> = h
            .edges()
            .iter()
            .filter(|e| e.contains(v))
            .cloned()
            .collect();
        let msg =
            HypergraphSparsifier::try_player_message(&space, &cfg, &seeds, v, &incident).unwrap();
        assembled.try_install_player(msg).unwrap();
    }
    let (rc, ra) = (
        central.try_decode().unwrap(),
        assembled.try_decode().unwrap(),
    );
    assert_eq!(rc.per_level, ra.per_level);
    assert_eq!(rc.complete, ra.complete);
    let edges_c: Vec<_> = rc.sparsifier.iter().map(|(e, w)| (e.clone(), w)).collect();
    let edges_a: Vec<_> = ra.sparsifier.iter().map(|(e, w)| (e.clone(), w)).collect();
    assert_eq!(edges_c, edges_a);
}

#[test]
fn two_referees_with_same_public_coins_agree() {
    let n = 10;
    let h = Hypergraph::from_graph(&generators::grid(5, 2));
    let space = EdgeSpace::graph(n).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let seeds = SeedTree::new(4);
    let a = via_players(&h, &space, &seeds, params);
    let b = via_players(&h, &space, &seeds, params);
    assert_eq!(a.try_decode().unwrap(), b.try_decode().unwrap());
}

#[test]
fn player_messages_compose_with_stream_deletions() {
    // Players can also run on dynamic inputs: each processes its local
    // insert/delete history; the referee still sees the final graph.
    let n = 10;
    let space = EdgeSpace::graph(n).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let seeds = SeedTree::new(5);

    // Final graph: a cycle. Local histories include a deleted chord.
    let mut cycle = Graph::new(n);
    for v in 0..n as u32 {
        cycle.add_edge(v, (v + 1) % n as u32);
    }
    let chord = HyperEdge::pair(0, 5);

    let messages: Vec<_> = (0..n as u32)
        .map(|v| {
            let mut incident: Vec<HyperEdge> = cycle
                .edges()
                .filter(|&(a, b)| a == v || b == v)
                .map(|(a, b)| HyperEdge::pair(a, b))
                .collect();
            // The chord was inserted then deleted locally; linearity cancels it.
            if chord.contains(v) {
                incident.push(chord.clone());
            }
            let mut msg = try_player_sketch(&space, v, &incident, &seeds, params).unwrap();
            if chord.contains(v) {
                let idx = space.rank(&chord);
                let coeff = dgs_connectivity::incidence_coefficient(&chord, v);
                for s in &mut msg.samplers {
                    s.update(idx, -coeff).unwrap();
                }
            }
            msg
        })
        .collect();
    let assembled = try_assemble_players(&space, messages, &seeds, params).unwrap();
    let decoded = assembled.try_decode().unwrap();
    assert_eq!(decoded.len(), n - 1, "spanning tree of the cycle only");
    assert!(!decoded.contains(&chord), "deleted chord leaked");
}
