//! Decode-path cost: Borůvka forest extraction, skeleton peeling, light
//! recovery, and full sparsifier decode.

use dgs_bench::microbench::bench;
use dgs_connectivity::{KSkeletonSketch, SpanningForestSketch};
use dgs_core::{HypergraphSparsifier, LightRecoverySketch, SparsifierConfig};
use dgs_field::prng::*;
use dgs_field::SeedTree;
use dgs_hypergraph::generators::{gnm, grid};
use dgs_hypergraph::{EdgeSpace, HyperEdge};
use dgs_sketch::L0Params;

fn lean() -> dgs_connectivity::ForestParams {
    dgs_connectivity::ForestParams {
        l0: L0Params {
            sparsity: 4,
            rows: 4,
            level_independence: 8,
        },
        extra_rounds: 2,
    }
}

/// Decode-phase histogram metric names recorded by the forest engine,
/// paired with the short phase labels the bench output prints.
const DECODE_PHASES: [(&str, &str); 3] = [
    ("aggregate", "dgs_connectivity_forest_decode_aggregate_ns"),
    ("sample", "dgs_connectivity_forest_decode_sample_ns"),
    ("merge", "dgs_connectivity_forest_decode_merge_ns"),
];

fn bench_forest_decode() {
    use dgs_connectivity::DecodeScratch;
    use dgs_obs::Registry;
    for n in [32usize, 96] {
        let space = EdgeSpace::graph(n).unwrap();
        let registry = Registry::new();
        let mut sk = SpanningForestSketch::new_full(space, &SeedTree::new(10), lean());
        sk.set_sink(&registry.sink());
        let g = gnm(n, 4 * n, &mut StdRng::seed_from_u64(11));
        for (u, v) in g.edges() {
            sk.try_update(&HyperEdge::pair(u, v), 1)
                .expect("stream edges lie in the sketch's space");
        }
        bench(&format!("forest_decode_reference/{n}"), |b| {
            b.iter(|| sk.try_decode_reference(false).unwrap())
        });
        let mut scratch = DecodeScratch::new();
        bench(&format!("forest_decode/{n}"), |b| {
            b.iter(|| sk.try_decode_with_scratch(false, 1, &mut scratch).unwrap());
            for (phase, key) in DECODE_PHASES {
                if let Some(stats) = registry.histogram_stats(key) {
                    b.attach_phase_stats(phase, stats);
                }
            }
        });
    }
}

fn bench_skeleton_decode() {
    let n = 24;
    let space = EdgeSpace::graph(n).unwrap();
    let mut sk = KSkeletonSketch::new(space, 3, &SeedTree::new(12), lean());
    let g = gnm(n, 5 * n, &mut StdRng::seed_from_u64(13));
    for (u, v) in g.edges() {
        sk.try_update(&HyperEdge::pair(u, v), 1)
            .expect("stream edges lie in the sketch's space");
    }
    bench("skeleton/decode_n24_k3", |b| {
        b.iter(|| sk.try_decode().expect("skeleton decode certifies"))
    });
    bench("skeleton/decode_n24_k3_par2", |b| {
        b.iter(|| sk.try_decode_par(2).unwrap())
    });
}

fn bench_light_recover() {
    let g = grid(5, 5);
    let space = EdgeSpace::graph(g.n()).unwrap();
    let mut sk = LightRecoverySketch::new(space, 2, &SeedTree::new(14), lean());
    for (u, v) in g.edges() {
        sk.try_update(&HyperEdge::pair(u, v), 1)
            .expect("stream edges lie in the sketch's space");
    }
    bench("light_recovery/grid5x5_k2", |b| {
        b.iter(|| sk.try_recover().expect("light_k peel certifies"))
    });
}

fn bench_sparsifier_decode() {
    let n = 24;
    let space = EdgeSpace::graph(n).unwrap();
    let cfg = SparsifierConfig::explicit(3, 6, lean());
    let mut sp = HypergraphSparsifier::new(space, cfg, &SeedTree::new(15));
    let g = gnm(n, 5 * n, &mut StdRng::seed_from_u64(16));
    for (u, v) in g.edges() {
        sp.try_update(&HyperEdge::pair(u, v), 1)
            .expect("stream edges lie in the sketch's space");
    }
    bench("sparsifier/decode_n24_k3", |b| {
        b.iter(|| sp.try_decode().expect("sparsifier decode certifies"))
    });
}

fn bench_edge_conn_decode() {
    use dgs_core::EdgeConnSketch;
    let n = 24;
    let space = EdgeSpace::graph(n).unwrap();
    let mut sk = EdgeConnSketch::new(space, 4, &SeedTree::new(17), lean());
    let g = gnm(n, 5 * n, &mut StdRng::seed_from_u64(18));
    for (u, v) in g.edges() {
        sk.try_update(&HyperEdge::pair(u, v), 1)
            .expect("stream edges lie in the sketch's space");
    }
    bench("edge_conn/decode_n24_k4", |b| {
        b.iter(|| {
            sk.try_edge_connectivity()
                .expect("skeleton decode certifies")
        })
    });
}

fn bench_becker_reconstruct() {
    use dgs_baselines::BeckerSketch;
    let g = grid(6, 6);
    let mut sk = BeckerSketch::new(g.n(), 2, 6, &SeedTree::new(19));
    for (u, v) in g.edges() {
        sk.update(u, v, 1);
    }
    bench("becker/reconstruct_grid6x6_d2", |b| {
        b.iter(|| sk.reconstruct())
    });
}

fn main() {
    bench_forest_decode();
    bench_skeleton_decode();
    bench_light_recover();
    bench_sparsifier_decode();
    bench_edge_conn_decode();
    bench_becker_reconstruct();
}
