//! E6 — Theorem 15: `light_k` recovery and cut-degenerate reconstruction.
//!
//! Families with known cut-degeneracy (trees, grids, the Lemma 10 gadget,
//! random d-degenerate graphs, hyperedge chains) are streamed with churn;
//! the table reports exact-reconstruction rates and per-player message
//! sizes. A partially-light family (clique core + pendants) checks that the
//! recovered set equals the exact `light_k` even when reconstruction is
//! impossible.

use dgs_baselines::BeckerSketch;
use dgs_core::LightRecoverySketch;
use dgs_field::prng::*;
use dgs_field::SeedTree;
use dgs_hypergraph::algo::strength::light_k_exact;
use dgs_hypergraph::generators::{
    barabasi_albert, grid, lemma10_gadget, random_d_degenerate, random_tree,
};
use dgs_hypergraph::{EdgeSpace, Graph, HyperEdge, Hypergraph};
use std::collections::BTreeSet;

use crate::report::{fmt_bytes, fmt_rate, Table};
use crate::workloads::{default_stream, lean_forest};

fn hyper_chain(links: usize) -> Hypergraph {
    let n = 2 * links + 1;
    let edges = (0..links)
        .map(|i| HyperEdge::new(vec![2 * i as u32, 2 * i as u32 + 1, 2 * i as u32 + 2]).unwrap());
    Hypergraph::from_edges(n, edges)
}

fn clique_with_pendants() -> Hypergraph {
    let mut g = Graph::new(12);
    for u in 0..6u32 {
        for v in (u + 1)..6 {
            g.add_edge(u, v);
        }
    }
    for i in 6..12u32 {
        g.add_edge(i, i - 6);
    }
    Hypergraph::from_graph(&g)
}

pub fn run(quick: bool) {
    let trials = if quick { 3 } else { 6 };

    let mut table = Table::new(
        "E6 (Thm 15): light_k recovery / cut-degenerate reconstruction (churn streams)",
        &[
            "family",
            "n",
            "m",
            "k",
            "exact recon",
            "Becker d=k",
            "light matches exact",
            "player msg",
        ],
    );

    type FamilyFn = Box<dyn Fn(&mut StdRng) -> Hypergraph>;
    let families: Vec<(&str, usize, FamilyFn)> = vec![
        (
            "tree",
            1,
            Box::new(|rng: &mut StdRng| Hypergraph::from_graph(&random_tree(18, rng))),
        ),
        (
            "grid 4x4",
            2,
            Box::new(|_| Hypergraph::from_graph(&grid(4, 4))),
        ),
        (
            "lemma-10 gadget",
            2,
            Box::new(|_| Hypergraph::from_graph(&lemma10_gadget())),
        ),
        (
            "rand 2-degenerate",
            2,
            Box::new(|rng: &mut StdRng| Hypergraph::from_graph(&random_d_degenerate(16, 2, rng))),
        ),
        (
            "BA scale-free m=2",
            2,
            Box::new(|rng: &mut StdRng| Hypergraph::from_graph(&barabasi_albert(16, 2, rng))),
        ),
        ("hyper chain", 1, Box::new(|_| hyper_chain(6))),
        ("K6 + pendants", 2, Box::new(|_| clique_with_pendants())),
    ];

    for (name, k, make) in families {
        let mut recon_ok = 0;
        let mut becker_ok = 0;
        let mut becker_applicable = 0;
        let mut match_ok = 0;
        let mut msg = 0;
        let (mut n_rep, mut m_rep) = (0, 0);
        let mut expected_complete = true;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(0xE6_0000 + t as u64);
            let h = make(&mut rng);
            n_rep = h.n();
            m_rep = h.edge_count();
            let r = h.max_rank().max(2);
            // The Becker et al. baseline only handles graphs (rank 2).
            if r == 2 {
                becker_applicable += 1;
                let mut bk = BeckerSketch::new(h.n(), k, 6, &SeedTree::new(0xBEC).child(t as u64));
                for e in h.edges() {
                    let (u, v) = e.as_pair();
                    bk.update(u, v, 1);
                }
                if let Some(rec) = bk.reconstruct() {
                    if rec.edge_count() == h.edge_count() {
                        becker_ok += 1;
                    }
                }
            }
            let space = EdgeSpace::new(h.n(), r).unwrap();
            let mut sk = LightRecoverySketch::new(
                space,
                k,
                &SeedTree::new(0xE6).child2(t as u64, k as u64),
                lean_forest(),
            );
            let stream = default_stream(&h, &mut rng);
            for u in &stream.updates {
                sk.try_update(&u.edge, u.op.delta())
                    .expect("stream edges lie in the sketch's space");
            }
            msg = sk.max_player_message_bytes();
            let rec = sk.try_recover().expect("light_k peel certifies");
            let (exact_idx, _) = light_k_exact(&h, k);
            let exact: BTreeSet<HyperEdge> =
                exact_idx.iter().map(|&i| h.edges()[i].clone()).collect();
            expected_complete = exact.len() == h.edge_count();
            let recovered: BTreeSet<HyperEdge> = rec.edges().into_iter().collect();
            if recovered == exact {
                match_ok += 1;
            }
            if rec.complete && recovered.len() == h.edge_count() {
                recon_ok += 1;
            }
        }
        let recon_cell = if expected_complete {
            fmt_rate(recon_ok, trials)
        } else {
            format!("n/a ({})", fmt_rate(recon_ok, trials))
        };
        table.row(vec![
            name.into(),
            n_rep.to_string(),
            m_rep.to_string(),
            k.to_string(),
            recon_cell,
            fmt_rate(becker_ok, becker_applicable),
            fmt_rate(match_ok, trials),
            fmt_bytes(msg),
        ]);
    }
    table.note(
        "lemma-10 gadget: 2-cut-degenerate but NOT 2-degenerate — beyond Becker et al.'s reach",
    );
    table.note("Becker column: d-degenerate adjacency-row peeling with d = k (graphs only; n/a for hyperedges)");
    table.note("K6 + pendants is not 2-cut-degenerate: reconstruction must fail but light_2 must still match");
    table.print();
}
