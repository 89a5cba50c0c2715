//! E8 — Lemma 18 / Theorems 19–20: the hypergraph sparsifier.
//!
//! Part A (small n, exhaustive cuts): the sketch-based sparsifier versus
//! the offline variant (exact `light_k`, no sketches — isolates sketch
//! noise) across the `k` sweep; error should fall as `k` grows (the
//! theorem's `ε ~ sqrt((log n + r)/k)` shape) and hit 0 once `k` exceeds
//! every `λ_e`.
//!
//! Part B (larger n, sampled cuts): offline variant and the classical
//! Benczúr–Karger baseline, comparing error at matched output size.

use dgs_baselines::{
    benczur_karger_sparsifier, kogan_krauthgamer_sparsifier, offline_light_sparsifier,
};
use dgs_core::{HypergraphSparsifier, SparsifierConfig};
use dgs_field::prng::*;
use dgs_field::SeedTree;
use dgs_hypergraph::generators::{gnp, random_uniform_hypergraph};
use dgs_hypergraph::{EdgeSpace, Hypergraph, WeightedHypergraph};

use crate::report::{fmt_bytes, Table};
use crate::stats::{fmt_mean_std, mean};
use crate::workloads::{default_stream, lean_forest};

fn max_cut_error_exhaustive(h: &Hypergraph, w: &WeightedHypergraph) -> f64 {
    let n = h.n();
    assert!(n <= 14);
    let mut worst: f64 = 0.0;
    for mask in 1u32..(1 << (n - 1)) {
        let side: Vec<bool> = (0..n).map(|v| v > 0 && mask >> (v - 1) & 1 == 1).collect();
        let truth = h.cut_size(&side) as f64;
        if truth > 0.0 {
            worst = worst.max((w.cut_weight(&side) - truth).abs() / truth);
        }
    }
    worst
}

fn max_cut_error_sampled<R: Rng>(
    h: &Hypergraph,
    w: &WeightedHypergraph,
    cuts: usize,
    rng: &mut R,
) -> f64 {
    let n = h.n();
    let mut worst: f64 = 0.0;
    for _ in 0..cuts {
        let side: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let truth = h.cut_size(&side) as f64;
        if truth > 0.0 {
            worst = worst.max((w.cut_weight(&side) - truth).abs() / truth);
        }
    }
    // Include all singleton (degree) cuts — the sharpest small cuts.
    for v in 0..n {
        let mut side = vec![false; n];
        side[v] = true;
        let truth = h.cut_size(&side) as f64;
        if truth > 0.0 {
            worst = worst.max((w.cut_weight(&side) - truth).abs() / truth);
        }
    }
    worst
}

pub fn run(quick: bool) {
    part_a(quick);
    part_b(quick);
    part_c(quick);
}

/// E8c: hypergraph comparison — the paper's iterated light_k route versus
/// strength sampling in the style of the prior insert-only work (Kogan &
/// Krauthgamer), both offline, on 3-uniform inputs.
fn part_c(quick: bool) {
    let trials = if quick { 2 } else { 5 };
    let n = 24;
    let mut table = Table::new(
        "E8c: hypergraph sparsification, offline — paper's light_k vs strength sampling (KK-style)",
        &["method", "param", "max err", "kept edges", "m"],
    );
    let mut rng = StdRng::seed_from_u64(0xE8_C000);
    let h = random_uniform_hypergraph(n, 3, 140, &mut rng);
    let m = h.edge_count();
    for &k in &[3usize, 8] {
        let mut errs = Vec::new();
        let mut kept = Vec::new();
        for _ in 0..trials {
            let w = offline_light_sparsifier(&h, k, 14, &mut rng);
            errs.push(max_cut_error_sampled(&h, &w, 200, &mut rng));
            kept.push(w.edge_count() as f64);
        }
        table.row(vec![
            "light_k (paper)".into(),
            format!("k={k}"),
            fmt_mean_std(&errs),
            format!("{:.0}", mean(&kept)),
            m.to_string(),
        ]);
    }
    for &eps in &[1.5f64, 0.8] {
        let mut errs = Vec::new();
        let mut kept = Vec::new();
        for _ in 0..trials {
            let w = kogan_krauthgamer_sparsifier(&h, eps, 0.25, &mut rng);
            errs.push(max_cut_error_sampled(&h, &w, 200, &mut rng));
            kept.push(w.edge_count() as f64);
        }
        table.row(vec![
            "KK strength".into(),
            format!("ε={eps}"),
            fmt_mean_std(&errs),
            format!("{:.0}", mean(&kept)),
            m.to_string(),
        ]);
    }
    table.note("similar size/error frontier — but only the light_k route is sketchable in dynamic streams (Thm 20)");
    table.print();
}

fn part_a(quick: bool) {
    let trials = if quick { 2 } else { 4 };
    let ks: &[usize] = if quick { &[3, 12] } else { &[3, 6, 12] };

    let mut table = Table::new(
        "E8a (Thm 20): sketch sparsifier vs offline light_k — max rel. cut error over ALL cuts",
        &[
            "input",
            "k",
            "sketch err",
            "offline err",
            "|sparsifier|",
            "m",
            "sketch bytes",
        ],
    );

    for family in ["graph n=12 p=0.7", "3-uniform n=10 m=35"] {
        for &k in ks {
            let mut sketch_errs = Vec::new();
            let mut offline_errs = Vec::new();
            let mut sizes = Vec::new();
            let mut m_rep = 0;
            let mut bytes = 0;
            for t in 0..trials {
                let mut rng = StdRng::seed_from_u64(0xE8_0000 + (k * 100 + t) as u64);
                let (h, r) = if family.starts_with("graph") {
                    (Hypergraph::from_graph(&gnp(12, 0.7, &mut rng)), 2)
                } else {
                    (random_uniform_hypergraph(10, 3, 35, &mut rng), 3)
                };
                m_rep = h.edge_count();
                let space = EdgeSpace::new(h.n(), r).unwrap();
                let cfg = SparsifierConfig::explicit(k, 8, lean_forest());
                let mut sp = HypergraphSparsifier::new(
                    space,
                    cfg,
                    &SeedTree::new(0xE8).child2(k as u64, t as u64),
                );
                let stream = default_stream(&h, &mut rng);
                for u in &stream.updates {
                    sp.try_update(&u.edge, u.op.delta())
                        .expect("stream edges lie in the sketch's space");
                }
                bytes = sp.size_bytes();
                let res = sp.try_decode().expect("sparsifier decode certifies");
                sketch_errs.push(max_cut_error_exhaustive(&h, &res.sparsifier));
                sizes.push(res.sparsifier.edge_count() as f64);
                let off = offline_light_sparsifier(&h, k, 8, &mut rng);
                offline_errs.push(max_cut_error_exhaustive(&h, &off));
            }
            table.row(vec![
                family.into(),
                k.to_string(),
                fmt_mean_std(&sketch_errs),
                fmt_mean_std(&offline_errs),
                format!("{:.1}", mean(&sizes)),
                m_rep.to_string(),
                fmt_bytes(bytes),
            ]);
        }
    }
    table.note("error falls as k grows (ε ~ sqrt((log n + r)/k)) and is 0 once k >= max λ_e");
    table.note("sketch vs offline gap = pure sketch-recovery noise");
    table.print();
}

fn part_b(quick: bool) {
    let trials = if quick { 2 } else { 5 };
    let n = 64;
    let ks: &[usize] = if quick { &[4, 16] } else { &[4, 8, 16] };

    let mut table = Table::new(
        "E8b: offline light_k vs Benczúr–Karger at n = 64 (sampled + degree cuts)",
        &[
            "method",
            "param",
            "max err",
            "min-cut est",
            "kept edges",
            "m",
        ],
    );

    let mut rng = StdRng::seed_from_u64(0xE8_B000);
    let g = gnp(n, 0.25, &mut rng);
    let h = Hypergraph::from_graph(&g);
    let m = h.edge_count();
    // Exact global min cut from the Gomory–Hu tree.
    let true_min = dgs_hypergraph::algo::GomoryHuTree::build_unit(&g).global_min_cut() as f64;

    for &k in ks {
        let mut errs = Vec::new();
        let mut kept = Vec::new();
        let mut mincuts = Vec::new();
        for _ in 0..trials {
            let w = offline_light_sparsifier(&h, k, 16, &mut rng);
            errs.push(max_cut_error_sampled(&h, &w, 200, &mut rng));
            kept.push(w.edge_count() as f64);
            mincuts.push(dgs_hypergraph::algo::weighted_min_cut_value(&w).unwrap_or(0.0));
        }
        table.row(vec![
            "light_k".into(),
            format!("k={k}"),
            fmt_mean_std(&errs),
            format!("{:.1} (true {true_min})", mean(&mincuts).max(0.0)),
            format!("{:.0}", mean(&kept)),
            m.to_string(),
        ]);
    }
    for &eps in &[1.0f64, 0.5] {
        let mut errs = Vec::new();
        let mut kept = Vec::new();
        let mut mincuts = Vec::new();
        for _ in 0..trials {
            let w = benczur_karger_sparsifier(&g, eps, 0.3, &mut rng);
            errs.push(max_cut_error_sampled(&h, &w, 200, &mut rng));
            kept.push(w.edge_count() as f64);
            mincuts.push(dgs_hypergraph::algo::weighted_min_cut_value(&w).unwrap_or(0.0));
        }
        table.row(vec![
            "Benczúr–Karger".into(),
            format!("ε={eps}"),
            fmt_mean_std(&errs),
            format!("{:.1} (true {true_min})", mean(&mincuts).max(0.0)),
            format!("{:.0}", mean(&kept)),
            m.to_string(),
        ]);
    }
    table.note("both methods trade kept edges for error; the paper's route matches BK's shape while being sketchable");
    table.note(
        "min-cut est: weighted global min cut of the sparsifier vs the Gomory–Hu exact value",
    );
    table.print();
}
