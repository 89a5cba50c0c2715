//! E4 — Theorem 13: hypergraph spanning-graph sketches and the first
//! dynamic-stream hypergraph connectivity algorithm.
//!
//! Random 3-uniform hypergraphs around the connectivity threshold plus
//! planted disconnected instances, all via churn streams. Verdicts and
//! component counts are checked against exact ground truth.

use dgs_connectivity::{ForestParams, SpanningForestSketch};
use dgs_field::prng::*;
use dgs_field::SeedTree;
use dgs_hypergraph::algo::{hyper_component_count, is_hyper_connected};
use dgs_hypergraph::generators::{planted_hyper_cut, random_uniform_hypergraph};
use dgs_hypergraph::{EdgeSpace, Hypergraph};

use crate::report::{fmt_bytes, fmt_rate, Table};
use crate::workloads::{default_stream, lean_forest};

fn run_case(h: &Hypergraph, seeds: &SeedTree, rng: &mut StdRng) -> (bool, bool, usize) {
    let space = EdgeSpace::new(h.n(), h.max_rank().max(2)).unwrap();
    let params: ForestParams = lean_forest();
    let mut sk = SpanningForestSketch::new_full(space, seeds, params);
    let stream = default_stream(h, rng);
    for u in &stream.updates {
        sk.try_update(&u.edge, u.op.delta())
            .expect("stream edges lie in the sketch's space");
    }
    let (_, labels) = sk
        .try_decode_with_labels()
        .expect("forest decode certifies");
    let comp_sketch = labels.component_count();
    let comp_true = hyper_component_count(h);
    (
        (comp_sketch <= 1) == is_hyper_connected(h),
        comp_sketch == comp_true,
        sk.size_bytes(),
    )
}

pub fn run(quick: bool) {
    let trials = if quick { 4 } else { 10 };
    let n = 24;

    let mut table = Table::new(
        "E4 (Thm 13): dynamic hypergraph connectivity (3-uniform, n = 24, churn streams)",
        &["workload", "m", "verdict ok", "#components ok", "sketch"],
    );

    let m_values: &[usize] = if quick { &[10, 40] } else { &[8, 14, 25, 40] };
    for &m in m_values {
        let mut verdict_ok = 0;
        let mut comps_ok = 0;
        let mut bytes = 0;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(0xE4_0000 + (m * 100 + t) as u64);
            let h = random_uniform_hypergraph(n, 3, m, &mut rng);
            let (v, c, b) = run_case(
                &h,
                &SeedTree::new(0xE4).child2(m as u64, t as u64),
                &mut rng,
            );
            verdict_ok += v as usize;
            comps_ok += c as usize;
            bytes = b;
        }
        table.row(vec![
            "uniform".into(),
            m.to_string(),
            fmt_rate(verdict_ok, trials),
            fmt_rate(comps_ok, trials),
            fmt_bytes(bytes),
        ]);
    }

    // Planted disconnected instances (two blobs, zero crossing edges).
    let mut verdict_ok = 0;
    let mut comps_ok = 0;
    let mut bytes = 0;
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(0xE4_1000 + t as u64);
        let (h, _) = planted_hyper_cut(n / 2, n / 2, 3, 15, 0, &mut rng);
        assert!(!is_hyper_connected(&h));
        let (v, c, b) = run_case(&h, &SeedTree::new(0xE4).child2(999, t as u64), &mut rng);
        verdict_ok += v as usize;
        comps_ok += c as usize;
        bytes = b;
    }
    table.row(vec![
        "2 blobs".into(),
        "30".into(),
        fmt_rate(verdict_ok, trials),
        fmt_rate(comps_ok, trials),
        fmt_bytes(bytes),
    ]);

    table
        .note("paper: O(n polylog n)-size vertex-based sketch decides hypergraph connectivity whp");
    table.print();
}
