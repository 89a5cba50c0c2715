//! E5 — Theorem 14: k-skeleton sketches.
//!
//! The skeleton property `|δ_H'(S)| >= min(|δ_H(S)|, k)` is verified over
//! **every** cut (exhaustive enumeration at n = 12) for graphs and
//! 3-uniform hypergraphs, across k, with churn streams. The table reports
//! violations (the theorem says whp zero) and the skeleton's edge count
//! against the `k·(n-1)` union-of-spanning-graphs budget.

use dgs_connectivity::KSkeletonSketch;
use dgs_field::prng::*;
use dgs_field::SeedTree;
use dgs_hypergraph::generators::{gnp, random_uniform_hypergraph};
use dgs_hypergraph::{EdgeSpace, Hypergraph};

use crate::report::{fmt_bytes, Table};
use crate::workloads::{default_stream, lean_forest};

fn violations(h: &Hypergraph, skeleton: &Hypergraph, k: usize) -> usize {
    let n = h.n();
    assert!(n <= 16);
    let mut bad = 0;
    for mask in 1u32..(1 << (n - 1)) {
        let side: Vec<bool> = (0..n).map(|v| v > 0 && mask >> (v - 1) & 1 == 1).collect();
        let full = h.cut_size(&side);
        let kept = skeleton.cut_size(&side);
        if kept < full.min(k) {
            bad += 1;
        }
    }
    bad
}

pub fn run(quick: bool) {
    let trials = if quick { 2 } else { 5 };
    let n = 12;
    let ks: &[usize] = if quick { &[2] } else { &[1, 2, 3] };

    let mut table = Table::new(
        "E5 (Thm 14): k-skeleton property over all 2^11 cuts (n = 12, churn streams)",
        &[
            "family",
            "k",
            "cut violations",
            "skeleton edges",
            "k(n-1) budget",
            "sketch",
        ],
    );

    for &k in ks {
        for family in ["graph", "3-uniform"] {
            let mut total_viol = 0;
            let mut skel_edges = Vec::new();
            let mut bytes = 0;
            for t in 0..trials {
                let mut rng = StdRng::seed_from_u64(0xE5_0000 + (k * 1000 + t) as u64);
                let (h, r) = if family == "graph" {
                    (Hypergraph::from_graph(&gnp(n, 0.5, &mut rng)), 2)
                } else {
                    (random_uniform_hypergraph(n, 3, 24, &mut rng), 3)
                };
                let space = EdgeSpace::new(n, r).unwrap();
                let mut sk = KSkeletonSketch::new(
                    space,
                    k,
                    &SeedTree::new(0xE5).child2(k as u64, t as u64),
                    lean_forest(),
                );
                let stream = default_stream(&h, &mut rng);
                for u in &stream.updates {
                    sk.try_update(&u.edge, u.op.delta())
                        .expect("stream edges lie in the sketch's space");
                }
                bytes = sk.size_bytes();
                let skeleton =
                    Hypergraph::from_edges(n, sk.try_decode().expect("skeleton decode certifies"));
                total_viol += violations(&h, &skeleton, k);
                skel_edges.push(skeleton.edge_count() as f64);
            }
            table.row(vec![
                family.into(),
                k.to_string(),
                total_viol.to_string(),
                format!("{:.1}", crate::stats::mean(&skel_edges)),
                (k * (n - 1)).to_string(),
                fmt_bytes(bytes),
            ]);
        }
    }
    table.note("paper: every cut keeps min(|δ(S)|, k) edges whp — expect 0 violations");
    table.print();
}
