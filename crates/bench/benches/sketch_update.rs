//! Update-path throughput: the per-stream-element cost of every structure.

use dgs_bench::microbench::bench;
use dgs_connectivity::SpanningForestSketch;
use dgs_core::{
    HypergraphSparsifier, LightRecoverySketch, SparsifierConfig, VertexConnConfig, VertexConnSketch,
};
use dgs_field::prng::*;
use dgs_field::SeedTree;
use dgs_hypergraph::generators::gnm;
use dgs_hypergraph::{EdgeSpace, HyperEdge};
use dgs_sketch::{L0Params, L0Sampler};

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

fn bench_l0_update() {
    let mut sampler = L0Sampler::new(
        &SeedTree::new(1),
        1 << 30,
        L0Params {
            sparsity: 4,
            rows: 4,
            level_independence: 8,
        },
    );
    let mut i = 0u64;
    bench("l0_sampler_update", |b| {
        b.iter(|| {
            i = i.wrapping_add(0x9E3779B97F4A7C15) & ((1 << 30) - 1);
            sampler.update(std::hint::black_box(i), 1).unwrap();
        })
    });
}

fn bench_forest_update() {
    for n in [64usize, 256] {
        let space = EdgeSpace::graph(n).unwrap();
        let mut sk = SpanningForestSketch::new_full(space, &SeedTree::new(2), lean());
        let mut rng = StdRng::seed_from_u64(3);
        let edges: Vec<HyperEdge> = (0..1000)
            .map(|_| {
                let a = rng.gen_range(0..n as u32);
                let mut b = rng.gen_range(0..n as u32);
                while b == a {
                    b = rng.gen_range(0..n as u32);
                }
                HyperEdge::pair(a, b)
            })
            .collect();
        let mut i = 0;
        bench(&format!("forest_sketch_update/{n}"), |b| {
            b.iter(|| {
                sk.try_update(&edges[i % edges.len()], 1)
                    .expect("stream edges lie in the sketch's space");
                i += 1;
            })
        });
    }
}

fn bench_vc_update() {
    let n = 128;
    let space = EdgeSpace::graph(n).unwrap();
    let mut cfg = VertexConnConfig::query(3, n, 1.0, dgs_sketch::Profile::Practical);
    cfg.forest = lean();
    let mut sk = VertexConnSketch::new(space, cfg, &SeedTree::new(4));
    let g = gnm(n, 4 * n, &mut StdRng::seed_from_u64(5));
    let edges: Vec<HyperEdge> = g.edges().map(|(u, v)| HyperEdge::pair(u, v)).collect();
    let mut i = 0;
    bench("vertex_conn_update_n128_k3", |b| {
        b.iter(|| {
            sk.try_update(&edges[i % edges.len()], 1)
                .expect("stream edges lie in the sketch's space");
            i += 1;
        })
    });
}

fn bench_light_update() {
    let n = 64;
    let space = EdgeSpace::graph(n).unwrap();
    let mut sk = LightRecoverySketch::new(space, 2, &SeedTree::new(6), lean());
    let g = gnm(n, 4 * n, &mut StdRng::seed_from_u64(7));
    let edges: Vec<HyperEdge> = g.edges().map(|(u, v)| HyperEdge::pair(u, v)).collect();
    let mut i = 0;
    bench("light_recovery_update_n64_k2", |b| {
        b.iter(|| {
            sk.try_update(&edges[i % edges.len()], 1)
                .expect("stream edges lie in the sketch's space");
            i += 1;
        })
    });
}

fn bench_sparsifier_update() {
    let n = 48;
    let space = EdgeSpace::graph(n).unwrap();
    let cfg = SparsifierConfig::explicit(3, 8, lean());
    let mut sp = HypergraphSparsifier::new(space, cfg, &SeedTree::new(8));
    let g = gnm(n, 4 * n, &mut StdRng::seed_from_u64(9));
    let edges: Vec<HyperEdge> = g.edges().map(|(u, v)| HyperEdge::pair(u, v)).collect();
    let mut i = 0;
    bench("sparsifier_update_n48_k3", |b| {
        b.iter(|| {
            sp.try_update(&edges[i % edges.len()], 1)
                .expect("stream edges lie in the sketch's space");
            i += 1;
        })
    });
}

fn main() {
    bench_l0_update();
    bench_forest_update();
    bench_vc_update();
    bench_light_update();
    bench_sparsifier_update();
}
