//! Ad-hoc profiling of the L0 sample path: engine (`sample_with`, reused
//! scratch, table-driven peel) vs the legacy baseline (`sample_legacy`), across
//! support sizes. Run with:
//! `cargo run --release -p dgs-bench --example profile_sample`

use dgs_field::prng::*;
use dgs_field::SeedTree;
use dgs_sketch::{L0Params, L0Sampler, PeelScratch};
use std::time::Instant;

fn forest_phases() {
    use dgs_connectivity::{DecodeScratch, SpanningForestSketch};
    use dgs_hypergraph::generators::gnm;
    use dgs_hypergraph::{EdgeSpace, HyperEdge};
    use dgs_obs::Registry;
    let n = 1024usize;
    let space = EdgeSpace::graph(n).unwrap();
    let registry = Registry::new();
    let mut sk = SpanningForestSketch::new_full(
        space,
        &SeedTree::new(0xE19),
        dgs_bench::workloads::lean_forest(),
    );
    sk.set_sink(&registry.sink());
    let g = gnm(n, 4 * n, &mut StdRng::seed_from_u64(0xE19 ^ 1));
    let updates: Vec<(HyperEdge, i64)> = g
        .edges()
        .map(|(u, v)| (HyperEdge::pair(u, v), 1i64))
        .collect();
    sk.try_update_batch(&updates).unwrap();
    let mut scratch = DecodeScratch::new();
    sk.try_decode_with_scratch(false, 1, &mut scratch).unwrap();
    let t0 = Instant::now();
    let reps = 5;
    for _ in 0..reps {
        std::hint::black_box(sk.try_decode_with_scratch(false, 1, &mut scratch).unwrap());
    }
    let total_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
    println!("forest n={n}: engine decode {total_ms:.2} ms");
    for key in [
        "dgs_connectivity_forest_decode_aggregate_ns",
        "dgs_connectivity_forest_decode_sample_ns",
        "dgs_connectivity_forest_decode_merge_ns",
    ] {
        if let Some(s) = registry.histogram_stats(key) {
            println!(
                "  {key}: count {} total {:.2} ms",
                s.count,
                s.sum as f64 / 1e6
            );
        }
    }
    let t1 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(sk.try_decode_reference(false).unwrap());
    }
    println!(
        "forest n={n}: reference decode {:.2} ms",
        t1.elapsed().as_secs_f64() * 1e3 / reps as f64
    );
}

fn main() {
    forest_phases();
    let dimension = 1024u64 * 1024 / 2;
    let params = L0Params {
        sparsity: 4,
        rows: 4,
        level_independence: 8,
    };
    let reps = 200usize;
    for support in [1usize, 4, 8, 16, 64, 256, 1024] {
        let mut rng = StdRng::seed_from_u64(support as u64 * 7 + 1);
        let samplers: Vec<L0Sampler> = (0..8)
            .map(|i| {
                let mut s = L0Sampler::new(&SeedTree::new(99), dimension, params);
                for _ in 0..support {
                    let idx = rng.next_u64() % dimension;
                    s.update(idx, 1).unwrap();
                }
                let _ = i;
                s
            })
            .collect();
        let mut scratch = PeelScratch::default();
        // Warm up + correctness: all samplers agree engine vs legacy.
        for s in &samplers {
            let a = s.sample_with(&mut scratch).ok();
            let b = s.sample_legacy().ok();
            assert_eq!(a, b, "support {support}");
        }
        let t0 = Instant::now();
        for _ in 0..reps {
            for s in &samplers {
                let _ = std::hint::black_box(s.sample_with(&mut scratch));
            }
        }
        let engine_us = t0.elapsed().as_secs_f64() * 1e6 / (reps * samplers.len()) as f64;
        let t1 = Instant::now();
        for _ in 0..reps {
            for s in &samplers {
                let _ = std::hint::black_box(s.sample_legacy());
            }
        }
        let legacy_us = t1.elapsed().as_secs_f64() * 1e6 / (reps * samplers.len()) as f64;
        println!(
            "support {support:>5}: engine {engine_us:>8.2} us  legacy {legacy_us:>8.2} us  ratio {:.2}x",
            legacy_us / engine_us
        );
    }
}
