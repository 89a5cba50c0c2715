//! E1 — Theorem 4: the vertex-removal query structure.
//!
//! Workload: planted-separator graphs (κ = s exactly) driven through churn
//! streams with deletions. We sweep the subgraph-count multiplier (the
//! paper's constant 16 in `R = 16·k²·ln n`) and report the detection rate
//! for the true separator, the agreement rate on random non-separating
//! sets, and sketch size against the store-everything baseline.

use dgs_core::{VertexConnConfig, VertexConnSketch};
use dgs_field::prng::*;
use dgs_field::SeedTree;
use dgs_hypergraph::algo::vertex_conn::disconnects;
use dgs_hypergraph::generators::planted_separator;
use dgs_hypergraph::{EdgeSpace, Hypergraph, VertexId};

use crate::report::{fmt_bytes, fmt_rate, Table};
use crate::workloads::{default_stream, lean_forest};

pub fn run(quick: bool) {
    let trials = if quick { 3 } else { 6 };
    // 16.0 is the paper's Theorem 4 constant — included so the table shows
    // the worst-case sizing alongside where success actually saturates.
    let mults: &[f64] = if quick {
        &[0.5, 2.0]
    } else {
        &[0.25, 0.5, 1.0, 2.0, 16.0]
    };
    let configs: &[(usize, usize, usize)] = if quick {
        &[(14, 14, 2)]
    } else {
        &[(14, 14, 2), (14, 14, 3), (20, 20, 2)]
    };

    let mut table = Table::new(
        "E1 (Thm 4): vertex-removal queries on planted-separator graphs, churn streams",
        &[
            "n",
            "k",
            "R-mult",
            "R",
            "separator hit",
            "non-sep agree",
            "sketch",
            "store-all",
        ],
    );

    for &(a, b, s) in configs {
        let g = planted_separator(a, b, s);
        let h = Hypergraph::from_graph(&g);
        let n = g.n();
        let k = s;
        let separator: Vec<VertexId> = (a..a + s).map(|v| v as VertexId).collect();
        // Pre-verify ground truth.
        assert!(disconnects(&g, &separator));

        for &mult in mults {
            let mut sep_hits = 0;
            let mut neg_hits = 0;
            let mut neg_total = 0;
            let mut bytes = 0usize;
            let mut r_count = 0usize;
            for trial in 0..trials {
                let mut rng = StdRng::seed_from_u64(0xE1_0000 + trial as u64);
                let stream = default_stream(&h, &mut rng);
                let space = EdgeSpace::graph(n).unwrap();
                let mut cfg = VertexConnConfig::query(k, n, mult, dgs_sketch::Profile::Practical);
                cfg.forest = lean_forest();
                r_count = cfg.subgraphs;
                let seeds = SeedTree::new(0xE1).child2(mult.to_bits(), trial as u64);
                let mut sk = VertexConnSketch::new(space, cfg, &seeds);
                for u in &stream.updates {
                    sk.try_update(&u.edge, u.op.delta())
                        .expect("stream edges lie in the sketch's space");
                }
                bytes = sk.size_bytes();
                let cert = sk.try_certificate().expect("certificate decode certifies");
                if cert.disconnects(&separator) {
                    sep_hits += 1;
                }
                // Random size-k sets that do NOT disconnect the true graph.
                let mut tried = 0;
                while tried < 5 {
                    let mut set: Vec<VertexId> = (0..n as VertexId).collect();
                    set.shuffle(&mut rng);
                    set.truncate(k);
                    if disconnects(&g, &set) {
                        continue; // only want negative instances here
                    }
                    tried += 1;
                    neg_total += 1;
                    if !cert.disconnects(&set) {
                        neg_hits += 1;
                    }
                }
            }
            let store_all = h.edge_count() * 8;
            table.row(vec![
                n.to_string(),
                k.to_string(),
                format!("{mult}"),
                r_count.to_string(),
                fmt_rate(sep_hits, trials),
                fmt_rate(neg_hits, neg_total),
                fmt_bytes(bytes),
                fmt_bytes(store_all),
            ]);
        }
    }
    table.note("paper: R = 16·k²·ln n suffices whp; detection should saturate as R-mult grows");
    table.note(
        "sketch >> store-all at this scale: the polylog constants only win for m >> kn·polylog(n)",
    );
    table.print();
}
