//! Hypergraph sparsification of a dynamic co-authorship hypergraph
//! (Theorem 20) — the paper's Section 5 headline.
//!
//! Papers are hyperedges over authors; retractions delete hyperedges. Two
//! research communities share a handful of cross-community collaborations —
//! the cuts an analyst wants preserved. The sparsifier keeps every cut
//! within a multiplicative band at a fraction of the edges.
//!
//! ```sh
//! cargo run --release --example hypergraph_sparsify
//! ```

use dynamic_graph_streams::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(11);

    // Two communities of 6 authors each; 18 intra-community papers per side
    // (3 authors each) and 3 cross-community collaborations.
    let (h, community) = dgs_hypergraph::generators::planted_hyper_cut(6, 6, 3, 18, 3, &mut rng);
    let n = h.n();
    println!(
        "corpus: {} papers over {} authors (rank 3), planted cross-community cut = {}",
        h.edge_count(),
        n,
        h.cut_size(&community)
    );

    // Dynamic stream with retractions.
    let stream = dgs_hypergraph::generators::churn_stream(
        &h,
        dgs_hypergraph::generators::ChurnConfig {
            noise_ratio: 0.5,
            churn_ratio: 0.2,
        },
        &mut rng,
    );
    println!(
        "stream: {} events ({:.0}% retractions)",
        stream.len(),
        100.0 * stream.deletion_fraction()
    );

    // The sparsifier sketch (light parameter k, 8 subsample levels).
    let space = EdgeSpace::new(n, 3).unwrap();
    let cfg = SparsifierConfig::explicit(
        5,
        8,
        ForestParams::new(Profile::Practical, space.dimension()),
    );
    let mut sp = HypergraphSparsifier::new(space, cfg, &SeedTree::new(0xCAFE));
    for u in &stream.updates {
        sp.try_update(&u.edge, u.op.delta())
            .expect("stream edges lie in the sketch's space");
    }
    let res = sp.try_decode().expect("sparsifier decode certifies");
    println!(
        "sparsifier: {} weighted hyperedges (complete = {}), per-level {:?}",
        res.sparsifier.edge_count(),
        res.complete,
        res.per_level
    );

    // Cut preservation audit over every community-respecting and random cut.
    let mut worst: f64 = 0.0;
    let mut checked = 0;
    for mask in 1u32..(1 << (n - 1)) {
        let side: Vec<bool> = (0..n).map(|v| v > 0 && mask >> (v - 1) & 1 == 1).collect();
        let truth = h.cut_size(&side) as f64;
        if truth == 0.0 {
            continue;
        }
        checked += 1;
        worst = worst.max((res.sparsifier.cut_weight(&side) - truth).abs() / truth);
    }
    println!("audited {checked} cuts: max relative error {worst:.3}");
    println!(
        "planted cross-community cut: true {} vs sparsifier {:.1}",
        h.cut_size(&community),
        res.sparsifier.cut_weight(&community)
    );

    // Exact min cut of the weighted sparsifier vs the original.
    let (true_min, _) = dgs_hypergraph::algo::hyper_min_cut(&h).unwrap();
    let approx_min = dgs_hypergraph::algo::weighted_min_cut_value(&res.sparsifier).unwrap();
    println!("global min cut: true {true_min} vs sparsifier {approx_min:.1}");
}
