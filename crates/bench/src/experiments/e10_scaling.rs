//! E10 — space/time scaling of the sketch structures.
//!
//! Sweeps n at fixed average degree and reports bytes and wall-clock for
//! the spanning-forest sketch and the Theorem 4 structure, against the
//! store-everything baseline and the n²/8-byte adjacency matrix. The shape
//! to look for: sketch bytes grow ~n·polylog(n) while the matrix grows n².

use std::time::Instant;

use dgs_connectivity::SpanningForestSketch;
use dgs_core::{VertexConnConfig, VertexConnSketch};
use dgs_field::prng::*;
use dgs_field::SeedTree;
use dgs_hypergraph::generators::gnm;
use dgs_hypergraph::{EdgeSpace, Hypergraph};

use crate::report::{fmt_bytes, Table};
use crate::workloads::{default_stream, lean_forest};

pub fn run(quick: bool) {
    let sizes: &[usize] = if quick {
        &[16, 32, 64]
    } else {
        &[16, 32, 64, 128]
    };

    let mut table = Table::new(
        "E10: scaling at average degree 8 (churn streams)",
        &[
            "n",
            "m",
            "forest bytes",
            "upd ns/edge",
            "decode ms",
            "VC(k=2) bytes",
            "store-all",
            "adj matrix",
        ],
    );

    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(0xEA_0000 + n as u64);
        let m = 4 * n;
        let g = gnm(n, m, &mut rng);
        let h = Hypergraph::from_graph(&g);
        let stream = default_stream(&h, &mut rng);

        let space = EdgeSpace::graph(n).unwrap();
        let mut sk = SpanningForestSketch::new_full(
            space.clone(),
            &SeedTree::new(0xEA).child(n as u64),
            lean_forest(),
        );
        let start = Instant::now();
        for u in &stream.updates {
            sk.try_update(&u.edge, u.op.delta())
                .expect("stream edges lie in the sketch's space");
        }
        let ns_per_edge = start.elapsed().as_nanos() as f64 / stream.len() as f64;
        let start = Instant::now();
        let _ = sk.try_decode().expect("forest decode certifies");
        let decode_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut cfg = VertexConnConfig::query(2, n, 1.0, dgs_sketch::Profile::Practical);
        cfg.forest = lean_forest();
        let vc = VertexConnSketch::new(space, cfg, &SeedTree::new(0xEA).child(n as u64 + 1));

        table.row(vec![
            n.to_string(),
            m.to_string(),
            fmt_bytes(sk.size_bytes()),
            format!("{ns_per_edge:.0}"),
            format!("{decode_ms:.1}"),
            fmt_bytes(vc.size_bytes()),
            fmt_bytes(m * 8),
            fmt_bytes(n * n / 8),
        ]);
    }
    table.note("forest bytes ~ n·log²(n)·consts; adjacency matrix ~ n²/8 — the crossover is where sketches win");
    table.print();
}
