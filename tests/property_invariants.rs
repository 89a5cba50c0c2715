//! Cross-crate property tests: randomized streams against exact ground
//! truth, linearity laws, and model equivalences. Each test runs a fixed
//! number of deterministic seeded trials (the in-tree PRNG replaces the
//! old proptest strategies).

use dgs_field::prng::*;
use dgs_field::{Codec, Writer};
use dynamic_graph_streams::prelude::*;

use dgs_hypergraph::algo;

/// A random valid dynamic graph stream on `n` vertices — random
/// interleavings of inserts and deletes with legal multiplicities.
fn random_stream(n: usize, max_ops: usize, rng: &mut StdRng) -> UpdateStream {
    let ops = rng.gen_range(1..max_ops);
    let mut live = std::collections::BTreeSet::new();
    let mut stream = UpdateStream::new(n, 2);
    for _ in 0..ops {
        let a = rng.gen_range(0u32..n as u32);
        let b = rng.gen_range(0u32..n as u32);
        let prefer_delete = rng.gen_bool(0.5);
        if a == b {
            continue;
        }
        let e = HyperEdge::pair(a, b);
        if live.contains(&e) && prefer_delete {
            live.remove(&e);
            stream.push_delete(e);
        } else if !live.contains(&e) {
            live.insert(e.clone());
            stream.push_insert(e);
        }
    }
    stream
}

/// The forest sketch's component count equals the exact count of the
/// final graph, for arbitrary legal insert/delete interleavings.
#[test]
fn forest_sketch_matches_exact_components() {
    let mut rng = StdRng::seed_from_u64(0x70);
    for trial in 0..24u64 {
        let stream = random_stream(14, 60, &mut rng);
        let g = stream.final_graph().unwrap();
        let space = EdgeSpace::graph(14).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let mut sk = SpanningForestSketch::new_full(space, &SeedTree::new(trial), params);
        for u in &stream.updates {
            sk.update(&u.edge, u.op.delta());
        }
        let (forest, labels) = sk.decode_with_labels();
        assert_eq!(
            labels.component_count(),
            algo::component_count(&g),
            "trial {trial}"
        );
        for e in &forest {
            let (u, v) = e.as_pair();
            assert!(g.has_edge(u, v), "phantom edge {e:?}");
        }
    }
}

/// Linearity: sketch(A) + sketch(B) decodes the union when A and B are
/// edge-disjoint (the distributed aggregation use case).
#[test]
fn sketch_addition_is_graph_union() {
    let mut rng = StdRng::seed_from_u64(0x71);
    for trial in 0..24u64 {
        let split_mask = rng.gen_range(0u32..(1 << 12));
        let n = 8;
        let all: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)))
            .collect();
        let space = EdgeSpace::graph(n).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let seeds = SeedTree::new(trial);
        let mut a = SpanningForestSketch::new_full(space.clone(), &seeds, params);
        let mut b = SpanningForestSketch::new_full(space.clone(), &seeds, params);
        let mut full = SpanningForestSketch::new_full(space, &seeds, params);
        for (i, &(u, v)) in all.iter().enumerate().take(12) {
            let e = HyperEdge::pair(u, v);
            full.update(&e, 1);
            if split_mask >> i & 1 == 1 {
                a.update(&e, 1);
            } else {
                b.update(&e, 1);
            }
        }
        a.add_assign_sketch(&b);
        assert_eq!(a.decode(), full.decode(), "trial {trial}");
    }
}

fn encoded<T: Codec>(t: &T) -> Vec<u8> {
    let mut w = Writer::new();
    t.encode(&mut w);
    w.into_bytes()
}

/// A churn stream over a random graph on `n` vertices.
fn churn(n: usize, p: f64, seed: u64) -> UpdateStream {
    use dgs_hypergraph::generators::{churn_stream, gnp, ChurnConfig};
    let mut rng = StdRng::seed_from_u64(seed);
    let h = Hypergraph::from_graph(&gnp(n, p, &mut rng));
    churn_stream(&h, ChurnConfig::default(), &mut rng)
}

/// Ingests `stream` in `shards` contiguous chunks, each into a fresh
/// same-seeded sketch from `build`, and folds the shards with `add` —
/// by linearity the fold is the serial sketch of the whole stream.
fn shard_and_fold<S: Recoverable>(
    stream: &UpdateStream,
    shards: usize,
    build: impl Fn() -> S,
    add: impl Fn(&mut S, &S),
) -> S {
    let chunk = stream.len().div_ceil(shards).max(1);
    let mut parts = stream.updates.chunks(chunk).map(|part| {
        let mut s = build();
        for u in part {
            s.apply_update(u).unwrap();
        }
        s
    });
    let mut acc = parts.next().unwrap_or_else(&build);
    for part in parts {
        add(&mut acc, &part);
    }
    acc
}

fn ingest_serial<S: Recoverable>(stream: &UpdateStream, mut sketch: S) -> S {
    for u in &stream.updates {
        sketch.apply_update(u).unwrap();
    }
    sketch
}

/// Linearity under sharding: per-shard forest sketches of a churn stream,
/// summed, are byte-identical to serial ingestion.
#[test]
fn sharded_forest_equals_serial() {
    let stream = churn(20, 0.3, 1);
    let space = EdgeSpace::graph(20).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let seeds = SeedTree::new(10);
    let build = || SpanningForestSketch::new_full(space.clone(), &seeds, params);
    let serial = ingest_serial(&stream, build());
    for shards in [1usize, 2, 4, 7] {
        let folded = shard_and_fold(&stream, shards, build, |a, b| a.add_assign_sketch(b));
        assert_eq!(encoded(&folded), encoded(&serial), "{shards} shards");
        assert_eq!(folded.decode(), serial.decode(), "{shards} shards");
    }
}

/// Linearity under sharding for the vertex-connectivity sketch (Thm 4).
#[test]
fn sharded_vertex_conn_equals_serial() {
    let stream = churn(16, 0.4, 2);
    let space = EdgeSpace::graph(16).unwrap();
    let cfg = VertexConnConfig::query(2, 16, 1.5, Profile::Practical);
    let seeds = SeedTree::new(11);
    let build = || VertexConnSketch::new(space.clone(), cfg, &seeds);
    let serial = ingest_serial(&stream, build());
    let folded = shard_and_fold(&stream, 3, build, |a, b| a.add_assign_sketch(b));
    assert_eq!(encoded(&folded), encoded(&serial));
    assert_eq!(
        folded.certificate().union.edges(),
        serial.certificate().union.edges()
    );
}

/// Linearity under sharding for the hypergraph sparsifier (Thm 19/20).
#[test]
fn sharded_sparsifier_equals_serial() {
    let stream = churn(12, 0.5, 3);
    let space = EdgeSpace::graph(12).unwrap();
    let cfg = SparsifierConfig::explicit(
        3,
        6,
        ForestParams::new(Profile::Practical, space.dimension()),
    );
    let seeds = SeedTree::new(12);
    let build = || HypergraphSparsifier::new(space.clone(), cfg, &seeds);
    let serial = ingest_serial(&stream, build());
    let folded = shard_and_fold(&stream, 4, build, |a, b| a.add_assign_sketch(b));
    assert_eq!(encoded(&folded), encoded(&serial));
    let (a, b) = (serial.decode(), folded.decode());
    assert_eq!(a.per_level, b.per_level);
    let ea: Vec<_> = a.sparsifier.iter().map(|(e, w)| (e.clone(), w)).collect();
    let eb: Vec<_> = b.sparsifier.iter().map(|(e, w)| (e.clone(), w)).collect();
    assert_eq!(ea, eb);
}

/// Update order never matters (streams are linear functionals).
#[test]
fn stream_order_is_irrelevant() {
    let mut rng = StdRng::seed_from_u64(0x72);
    for trial in 0..24u64 {
        let stream = random_stream(10, 40, &mut rng);
        let space = EdgeSpace::graph(10).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let seeds = SeedTree::new(trial);
        let mut in_order = SpanningForestSketch::new_full(space.clone(), &seeds, params);
        for u in &stream.updates {
            in_order.update(&u.edge, u.op.delta());
        }
        // Apply the same multiset of (edge, delta) pairs in shuffled order —
        // transiently negative multiplicities are fine for a linear sketch.
        let mut shuffled = stream.updates.clone();
        shuffled.shuffle(&mut rng);
        let mut out_of_order = SpanningForestSketch::new_full(space, &seeds, params);
        for u in &shuffled {
            out_of_order.update(&u.edge, u.op.delta());
        }
        assert_eq!(in_order.decode(), out_of_order.decode(), "trial {trial}");
    }
}

/// The certificate's removal answers agree with exact answers for
/// singleton removals (k = 1 regime of Theorem 4).
#[test]
fn single_vertex_removal_queries_match() {
    let mut rng = StdRng::seed_from_u64(0x73);
    let mut connected_trials = 0;
    let mut trial = 0u64;
    while connected_trials < 12 {
        trial += 1;
        let stream = random_stream(10, 50, &mut rng);
        let g = stream.final_graph().unwrap();
        // Only meaningful when connected (Theorem 4 setting).
        if !algo::is_connected(&g) {
            continue;
        }
        connected_trials += 1;
        let space = EdgeSpace::graph(10).unwrap();
        let cfg = VertexConnConfig::query(1, 10, 6.0, Profile::Practical);
        let mut sk = VertexConnSketch::new(space, cfg, &SeedTree::new(trial));
        for u in &stream.updates {
            sk.update(&u.edge, u.op.delta());
        }
        let cert = sk.certificate();
        for v in 0..10u32 {
            assert_eq!(
                cert.disconnects(&[v]),
                algo::vertex_conn::disconnects(&g, &[v]),
                "trial {trial}, vertex {v}"
            );
        }
    }
}

/// light_k recovered from a sketch equals exact light_k, which equals
/// the strength filter (Thm 15 + Lemma 16), on arbitrary streams.
#[test]
fn light_recovery_equals_strength_filter() {
    use dynamic_graph_streams::core::LightRecoverySketch;
    let mut rng = StdRng::seed_from_u64(0x74);
    for trial in 0..12u64 {
        let stream = random_stream(9, 40, &mut rng);
        let k = rng.gen_range(1usize..3);
        let g = stream.final_graph().unwrap();
        let space = EdgeSpace::graph(9).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let mut sk = LightRecoverySketch::new(space, k, &SeedTree::new(trial), params);
        for u in &stream.updates {
            sk.update(&u.edge, u.op.delta());
        }
        let recovered: std::collections::BTreeSet<HyperEdge> =
            sk.recover().edges().into_iter().collect();
        let strengths = algo::strength::edge_strengths(&g);
        for (u, v) in g.edges() {
            let in_light = recovered.contains(&HyperEdge::pair(u, v));
            assert_eq!(
                in_light,
                strengths[&(u, v)] <= k,
                "trial {trial}, edge ({u},{v})"
            );
        }
    }
}

/// Batched ingestion — single-sketch and boosted repetitions through the
/// striped batch apply — is byte-identical (Codec encoding) to per-update ingestion,
/// across seeds, batch sizes, and thread counts, on random insert/delete
/// streams salted with immediately-cancelling pairs (which the batched
/// path aggregates away in the field).
#[test]
fn batched_ingest_encodes_byte_identical_to_sequential() {
    let n = 12;
    let mut rng = StdRng::seed_from_u64(0x75);
    for trial in 0..6u64 {
        let mut updates = random_stream(n, 120, &mut rng).updates;
        // Salt with cancelling insert/delete pairs at random positions.
        for _ in 0..10 {
            let a = rng.gen_range(0u32..n as u32);
            let b = (a + 1 + rng.gen_range(0u32..(n - 1) as u32)) % n as u32;
            let at = rng.gen_range(0..=updates.len());
            updates.insert(at, Update::delete(HyperEdge::pair(a, b)));
            updates.insert(at, Update::insert(HyperEdge::pair(a, b)));
        }
        let pairs: Vec<(HyperEdge, i64)> = updates
            .iter()
            .map(|u| (u.edge.clone(), u.op.delta()))
            .collect();
        let space = EdgeSpace::graph(n).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let seeds = SeedTree::new(0xF0 + trial);

        let mut seq = SpanningForestSketch::new_full(space.clone(), &seeds, params);
        for (e, d) in &pairs {
            seq.try_update(e, *d).unwrap();
        }
        let expected = encoded(&seq);

        for batch in [1usize, 7, 256] {
            let mut sk = SpanningForestSketch::new_full(space.clone(), &seeds, params);
            for chunk in pairs.chunks(batch) {
                sk.try_update_batch(chunk).unwrap();
            }
            assert_eq!(encoded(&sk), expected, "trial {trial}, batch {batch}");
        }

        // Boosted repetitions through the striped batch apply.
        let build = |i: usize| {
            SpanningForestSketch::new_full(space.clone(), &seeds.child(i as u64), params)
        };
        let mut serial = BoostedQuery::new(3, build);
        for u in &updates {
            serial.try_update(u).unwrap();
        }
        let expected_reps: Vec<Vec<u8>> = serial.sketches().iter().map(encoded).collect();
        for (threads, batch) in [(1usize, 7usize), (2, 64), (3, 256)] {
            let mut boosted = BoostedQuery::new(3, build);
            for chunk in updates.chunks(batch) {
                boosted.apply_batch(chunk, threads).unwrap();
            }
            let got: Vec<Vec<u8>> = boosted.sketches().iter().map(encoded).collect();
            assert_eq!(
                got, expected_reps,
                "trial {trial}, threads {threads}, batch {batch}"
            );
        }
    }
}

/// The persistent sticky pool preserves byte-identity across
/// lane-straddling batch sizes × thread counts × mid-batch drains, and
/// across many reuse cycles of the caller thread's cached pool — every
/// combination below runs on this test thread, so the same pool (grown in
/// place when a wider thread count appears) serves every striped boosted
/// batch. A stale mailbox or worker left over from a previous scope would
/// surface as a byte difference.
#[test]
fn pooled_ingest_is_identical_across_lanes_threads_and_drains() {
    let n = 12;
    let mut rng = StdRng::seed_from_u64(0xD00F);
    let stream = random_stream(n, 140, &mut rng);
    let space = EdgeSpace::graph(n).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let seeds = SeedTree::new(0xD00F);

    // Sequential reference: 5 boosted repetitions.
    let build =
        |i: usize| SpanningForestSketch::new_full(space.clone(), &seeds.child(i as u64), params);
    let mut serial = BoostedQuery::new(5, build);
    for u in &stream.updates {
        serial.try_update(u).unwrap();
    }
    let expected_reps: Vec<Vec<u8>> = serial.sketches().iter().map(encoded).collect();

    // Lane widths straddle the 4-lane field kernels; `threads = 8` exceeds
    // the 5 repetitions and must clamp. The thread counts deliberately
    // shrink and regrow so the cached pool is exercised at every width.
    for threads in [1usize, 2, 3, 8, 2] {
        for batch in [1usize, 3, 4, 5, 8, 64] {
            let mut boosted = BoostedQuery::new(5, build);
            let mut start = 0;
            for j in 0..stream.updates.len() {
                // Cut at the batch size and, mid-batch, at a stride coprime
                // to every batch size.
                if j + 1 - start == batch || j % 17 == 0 {
                    boosted
                        .apply_batch(&stream.updates[start..=j], threads)
                        .unwrap();
                    start = j + 1;
                }
            }
            boosted
                .apply_batch(&stream.updates[start..], threads)
                .unwrap();
            let got: Vec<Vec<u8>> = boosted.sketches().iter().map(encoded).collect();
            assert_eq!(got, expected_reps, "sharded t={threads}, b={batch}");
        }
    }
}
