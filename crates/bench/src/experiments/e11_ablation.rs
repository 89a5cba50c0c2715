//! E11 — the Section 4.2 independence warning, measured.
//!
//! Two ablations of "reuse one sketch instead of independent copies":
//!
//! 1. **Round reuse** (primary): the Borůvka decoder needs a fresh sketch
//!    per round because a component whose sampler fails once would
//!    otherwise re-fail *identically* every round — its aggregate state
//!    never changes until it merges. With independent rounds a failure is
//!    retried with fresh randomness. We decode with deliberately tiny
//!    samplers, where per-round failures are common, and score every
//!    decode as correct, a typed (retryable) failure, or silently wrong.
//!
//! 2. **Layer reuse** (secondary): the k-skeleton peeling
//!    `F_i = decode(A - Σ A(F_j))` with a single shared sketch `A` — the
//!    exact fallacy Section 4.2 belabors. At laptop scale the sketch holds
//!    far more bits than the peeled edges, so footnote 3's counting
//!    obstruction does not yet bite; the table reports what is actually
//!    measured either way, with the same three-way scoring.

use dgs_connectivity::{ForestParams, KSkeletonSketch, SpanningForestSketch};
use dgs_field::prng::*;
use dgs_field::SeedTree;
use dgs_hypergraph::algo::{component_count, hyper_component_count};
use dgs_hypergraph::generators::gnp;
use dgs_hypergraph::{EdgeSpace, Graph, HyperEdge, Hypergraph};
use dgs_sketch::{L0Params, SketchResult};

use crate::report::{fmt_rate, Table};
use crate::stats::fmt_mean_std;

fn tiny_params(extra_rounds: usize) -> ForestParams {
    ForestParams {
        l0: L0Params {
            sparsity: 2,
            rows: 1,
            level_independence: 4,
        },
        extra_rounds,
    }
}

fn round_reuse_table(quick: bool) {
    let trials = if quick { 20 } else { 60 };
    let n = 32;

    let mut table = Table::new(
        "E11a (Sec 4.2): Borůvka round reuse — component count, tiny samplers (s=2, 1 row)",
        &[
            "mode",
            "extra rounds",
            "correct",
            "typed failure",
            "silent wrong",
        ],
    );

    for &extra in &[2usize, 4] {
        for mode in ["independent rounds", "shared rounds"] {
            let (mut ok, mut failed, mut wrong) = (0, 0, 0);
            for t in 0..trials {
                let mut rng = StdRng::seed_from_u64(0xEB_A000 + (extra * 1000 + t) as u64);
                let g = gnp(n, 0.12, &mut rng);
                let h = Hypergraph::from_graph(&g);
                let space = EdgeSpace::graph(n).unwrap();
                let seeds = SeedTree::new(0xEB).child2(extra as u64, t as u64);
                let mut sk = if mode == "independent rounds" {
                    SpanningForestSketch::new_full(space, &seeds, tiny_params(extra))
                } else {
                    SpanningForestSketch::new_full_shared_rounds(space, &seeds, tiny_params(extra))
                };
                for e in h.edges() {
                    sk.try_update(e, 1)
                        .expect("stream edges lie in the sketch's space");
                }
                match sk.try_component_count() {
                    Ok(c) if c == hyper_component_count(&h) => ok += 1,
                    Ok(_) => wrong += 1,
                    Err(e) if e.is_retryable() => failed += 1,
                    Err(e) => panic!("valid stream rejected: {e}"),
                }
            }
            table.row(vec![
                mode.into(),
                extra.to_string(),
                fmt_rate(ok, trials),
                format!("{failed}/{trials}"),
                format!("{wrong}/{trials}"),
            ]);
        }
    }
    table.note("independent rounds retry failures with fresh randomness; shared rounds re-fail identically");
    table.note(
        "the certified decoder reports a stuck component as a retryable SketchFailure, never a wrong count",
    );
    table.print();
}

/// Decodes the skeleton and scores its layers against the exact peel of
/// `K_n`: `(valid, sound)`, where `valid` counts the leading layers that
/// are spanning trees of what remains, and `sound` says every layer is a
/// spanning forest of the graph left after the layers before it.
fn score_layers(sketch: &KSkeletonSketch, n: usize) -> SketchResult<(usize, bool)> {
    let mut remaining = Graph::complete(n);
    let mut valid = 0;
    let mut prefix = true;
    for layer in sketch.try_decode_layers()? {
        let pairs: Vec<_> = layer.iter().map(|e| e.as_pair()).collect();
        let forest = Graph::from_edges(n, &pairs);
        let inside = pairs.iter().all(|&(u, v)| remaining.has_edge(u, v));
        if !inside || component_count(&forest) != component_count(&remaining) {
            return Ok((valid, false));
        }
        prefix &= pairs.len() == n - 1 && component_count(&forest) == 1;
        if prefix {
            valid += 1;
        }
        for &(u, v) in &pairs {
            remaining.remove_edge(u, v);
        }
    }
    Ok((valid, true))
}

fn layer_reuse_table(quick: bool) {
    let trials = if quick { 3 } else { 8 };
    let n = 14;
    let layers = n / 2;

    let mut table = Table::new(
        format!("E11b: {layers}-layer forest peeling from K_{n} — layer (seed) reuse"),
        &[
            "mode",
            "valid layers (of max)",
            "full peels",
            "typed failure",
            "silent wrong",
        ],
    );

    for mode in ["independent layers", "reused seed"] {
        let mut counts = Vec::new();
        let (mut full, mut failed, mut wrong) = (0, 0, 0);
        for t in 0..trials {
            let space = EdgeSpace::graph(n).unwrap();
            let seeds = SeedTree::new(0xEB).child2(t as u64, 100 + (mode == "reused seed") as u64);
            let params = ForestParams {
                l0: L0Params {
                    sparsity: 2,
                    rows: 2,
                    level_independence: 4,
                },
                extra_rounds: 2,
            };
            let mut sk = if mode == "independent layers" {
                KSkeletonSketch::new(space, layers, &seeds, params)
            } else {
                KSkeletonSketch::new_with_shared_seed(space, layers, &seeds, params)
            };
            let g = Graph::complete(n);
            for (u, v) in g.edges() {
                sk.try_update(&HyperEdge::pair(u, v), 1)
                    .expect("stream edges lie in the sketch's space");
            }
            match score_layers(&sk, n) {
                Ok((v, sound)) => {
                    full += usize::from(v == layers);
                    wrong += usize::from(!sound);
                    counts.push(v as f64);
                }
                Err(e) if e.is_retryable() => failed += 1,
                Err(e) => panic!("valid stream rejected: {e}"),
            }
        }
        table.row(vec![
            mode.into(),
            format!("{} / {layers}", fmt_mean_std(&counts)),
            format!("{full}/{trials}"),
            format!("{failed}/{trials}"),
            format!("{wrong}/{trials}"),
        ]);
    }
    table.note("valid layers: the leading layers that are spanning trees of what K_n has left");
    table.note("at this scale the sketch has slack bits, so layer reuse may not yet fail (footnote 3 is asymptotic)");
    table.print();
}

pub fn run(quick: bool) {
    round_reuse_table(quick);
    layer_reuse_table(quick);
}
