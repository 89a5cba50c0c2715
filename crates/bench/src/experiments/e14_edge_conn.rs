//! E14 — edge connectivity `min(λ, k)` from k-skeleton sketches.
//!
//! Section 1.1 frames edge connectivity as the prior "success story" the
//! vertex-connectivity results are measured against; the skeleton machinery
//! of Section 4.1 delivers it for hypergraphs too. This experiment verifies
//! `min(λ, k)` is recovered exactly, with a valid min-cut witness whenever
//! `λ < k`, across graph and hypergraph workloads on churn streams.

use dgs_core::EdgeConnSketch;
use dgs_field::prng::*;
use dgs_field::SeedTree;
use dgs_hypergraph::algo::hyper_cut::hyper_edge_connectivity;
use dgs_hypergraph::generators::{harary, planted_edge_cut, planted_hyper_cut};
use dgs_hypergraph::{EdgeSpace, Hypergraph};

use crate::report::{fmt_bytes, fmt_rate, Table};
use crate::workloads::{default_stream, lean_forest};

pub fn run(quick: bool) {
    let trials = if quick { 3 } else { 6 };
    let k = 5;

    let mut table = Table::new(
        format!("E14: edge connectivity min(λ, {k}) from k-skeleton sketches (churn streams)"),
        &[
            "workload",
            "true λ",
            "est = min(λ,k)",
            "witness valid",
            "sketch",
        ],
    );

    type FamilyFn = Box<dyn Fn(&mut StdRng) -> Hypergraph>;
    let families: Vec<(&str, FamilyFn)> = vec![
        (
            "harary λ=2 n=16",
            Box::new(|_| Hypergraph::from_graph(&harary(2, 16))),
        ),
        (
            "harary λ=4 n=16",
            Box::new(|_| Hypergraph::from_graph(&harary(4, 16))),
        ),
        (
            "planted cut t=3",
            Box::new(|rng: &mut StdRng| {
                Hypergraph::from_graph(&planted_edge_cut(8, 8, 3, 0.9, rng).0)
            }),
        ),
        (
            "hyper cut t=2 r=3",
            Box::new(|rng: &mut StdRng| planted_hyper_cut(7, 7, 3, 16, 2, rng).0),
        ),
        (
            "K10 (λ=9 > k)",
            Box::new(|_| Hypergraph::from_graph(&dgs_hypergraph::Graph::complete(10))),
        ),
    ];

    for (name, make) in families {
        let mut est_ok = 0;
        let mut witness_ok = 0;
        let mut witness_applicable = 0;
        let mut truth_rep = 0;
        let mut bytes = 0;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(0xEE_0000 + t as u64);
            let h = make(&mut rng);
            let truth = hyper_edge_connectivity(&h);
            truth_rep = truth;
            let r = h.max_rank().max(2);
            let space = EdgeSpace::new(h.n(), r).unwrap();
            let mut sk = EdgeConnSketch::new(
                space,
                k,
                &SeedTree::new(0xEE).child(t as u64),
                lean_forest(),
            );
            let stream = default_stream(&h, &mut rng);
            for u in &stream.updates {
                sk.try_update(&u.edge, u.op.delta())
                    .expect("stream edges lie in the sketch's space");
            }
            bytes = sk.size_bytes();
            let (est, side) = sk
                .try_edge_connectivity()
                .expect("skeleton decode certifies");
            if est == truth.min(k) {
                est_ok += 1;
            }
            if truth < k {
                witness_applicable += 1;
                if h.cut_size(&side) == truth {
                    witness_ok += 1;
                }
            }
        }
        table.row(vec![
            name.into(),
            truth_rep.to_string(),
            fmt_rate(est_ok, trials),
            fmt_rate(witness_ok, witness_applicable),
            fmt_bytes(bytes),
        ]);
    }
    table.note("min(λ(skeleton), k) = min(λ(G), k) exactly, given a correct skeleton (Thm 14)");
    table.note("contrast with vertex connectivity: Thm 21 rules this route out for vertex cuts");
    table.print();
}
