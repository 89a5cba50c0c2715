//! E3 — Theorem 6/8, Corollary 7: the (1+ε) vertex-connectivity estimator.
//!
//! Harary graphs give exact ground truth: `H_{hi,n}` with `hi >= (1+ε)k`
//! must be classified "at least k-connected" (κ(decoded) >= k), while
//! `H_{lo,n}` with `lo < k` must never be (κ(decoded) <= κ(G) < k always —
//! the one-sided direction is deterministic). We sweep the R multiplier
//! and report both accuracies and the decoded κ values.

use dgs_core::{VertexConnConfig, VertexConnSketch};
use dgs_field::prng::*;
use dgs_field::SeedTree;
use dgs_hypergraph::algo::vertex_conn::vertex_connectivity;
use dgs_hypergraph::generators::harary;
use dgs_hypergraph::{EdgeSpace, Graph, Hypergraph};

use crate::report::{fmt_bytes, fmt_rate, Table};
use crate::stats::fmt_mean_std;
use crate::workloads::{default_stream, lean_forest};

fn decoded_kappa(
    g: &Graph,
    k: usize,
    eps: f64,
    mult: f64,
    seed: u64,
    rng: &mut StdRng,
) -> (usize, usize) {
    let n = g.n();
    let h = Hypergraph::from_graph(g);
    let stream = default_stream(&h, rng);
    let space = EdgeSpace::graph(n).unwrap();
    let mut cfg = VertexConnConfig::estimator(k, n, eps, mult, dgs_sketch::Profile::Practical);
    cfg.forest = lean_forest();
    let mut sk = VertexConnSketch::new(space, cfg, &SeedTree::new(0xE3).child(seed));
    for u in &stream.updates {
        sk.try_update(&u.edge, u.op.delta())
            .expect("stream edges lie in the sketch's space");
    }
    let bytes = sk.size_bytes();
    (
        sk.try_certificate()
            .expect("certificate decode certifies")
            .vertex_connectivity(2 * k + 3),
        bytes,
    )
}

pub fn run(quick: bool) {
    let trials = if quick { 3 } else { 5 };
    let mults: &[f64] = if quick {
        &[0.5, 2.0]
    } else {
        &[0.25, 0.5, 1.0, 2.0]
    };
    let (k, eps, n) = (3usize, 0.5f64, 24usize);
    let hi = ((1.0 + eps) * k as f64).ceil() as usize; // 5-connected
    let lo = k - 1; // 2-connected

    let g_hi = harary(hi, n);
    let g_lo = harary(lo, n);
    assert_eq!(vertex_connectivity(&g_hi), hi);
    assert_eq!(vertex_connectivity(&g_lo), lo);

    let mut table = Table::new(
        format!("E3 (Thm 8): distinguish {hi}-connected from {lo}-connected (k = {k}, ε = {eps}, n = {n})"),
        &[
            "R-mult", "R", "hi classified >=k", "κ(H) on hi", "lo classified <k", "κ(H) on lo",
            "sketch",
        ],
    );

    for &mult in mults {
        let mut rng = StdRng::seed_from_u64(0xE3_0000 + mult.to_bits());
        let mut hi_ok = 0;
        let mut lo_ok = 0;
        let mut hi_kappas = Vec::new();
        let mut lo_kappas = Vec::new();
        let mut bytes = 0;
        let r =
            VertexConnConfig::estimator(k, n, eps, mult, dgs_sketch::Profile::Practical).subgraphs;
        for t in 0..trials {
            let (kh, b) = decoded_kappa(&g_hi, k, eps, mult, mult.to_bits() ^ t as u64, &mut rng);
            bytes = b;
            hi_kappas.push(kh as f64);
            if kh >= k {
                hi_ok += 1;
            }
            let (kl, _) = decoded_kappa(
                &g_lo,
                k,
                eps,
                mult,
                mult.to_bits() ^ (t as u64 + 977),
                &mut rng,
            );
            lo_kappas.push(kl as f64);
            if kl < k {
                lo_ok += 1;
            }
        }
        table.row(vec![
            format!("{mult}"),
            r.to_string(),
            fmt_rate(hi_ok, trials),
            fmt_mean_std(&hi_kappas),
            fmt_rate(lo_ok, trials),
            fmt_mean_std(&lo_kappas),
            fmt_bytes(bytes),
        ]);
    }
    table.note(
        "Cor 7: κ(H) <= κ(G) always (lo side deterministic); κ(H) >= k whp when κ(G) >= (1+ε)k",
    );
    table.note("paper constant is 160·k²·ε⁻¹·ln n subgraphs; the hi-side rate should saturate well below it");
    table.print();
}
