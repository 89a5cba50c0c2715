//! Checkpoint/restore: sketch state round-trips through the binary codec
//! with *behavioral* equality — a restored sketch decodes identically and
//! keeps accepting updates.

use dynamic_graph_streams::core::LightRecoverySketch;
use dynamic_graph_streams::field::{Codec, Reader, Writer};
use dynamic_graph_streams::prelude::*;

use dgs_hypergraph::generators;

fn round_trip<T: Codec>(value: &T) -> T {
    let mut w = Writer::new();
    value.encode(&mut w);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    let out = T::decode(&mut r).expect("decode");
    r.expect_end().expect("no trailing bytes");
    out
}

#[test]
fn l0_sampler_checkpoint_restores_behavior() {
    let params = L0Params {
        sparsity: 4,
        rows: 4,
        level_independence: 8,
    };
    let mut s = L0Sampler::new(&SeedTree::new(1), 1 << 20, params);
    for i in [5u64, 900, 77_000] {
        s.update(i, 1).unwrap();
    }
    let mut restored = round_trip(&s);
    assert_eq!(s.sample(), restored.sample());
    // The restored sampler keeps working: delete everything, then it reads
    // zero — requires the hashes to have survived the trip exactly.
    for i in [5u64, 900, 77_000] {
        restored.update(i, -1).unwrap();
    }
    assert!(restored.is_zero());
    assert_eq!(restored.sample(), Ok(None));
}

#[test]
fn forest_sketch_checkpoint_mid_stream() {
    let mut rng = StdRng::seed_from_u64(2);
    let n = 16;
    let h = Hypergraph::from_graph(&generators::gnp(n, 0.3, &mut rng));
    let stream = generators::churn_stream(&h, generators::ChurnConfig::default(), &mut rng);
    let space = EdgeSpace::graph(n).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let mut sk = SpanningForestSketch::new_full(space, &SeedTree::new(3), params);

    // Process half the stream, checkpoint, restore, process the rest.
    let half = stream.len() / 2;
    for u in &stream.updates[..half] {
        sk.try_update(&u.edge, u.op.delta()).unwrap();
    }
    let mut restored = round_trip(&sk);
    for u in &stream.updates[half..] {
        sk.try_update(&u.edge, u.op.delta()).unwrap();
        restored.try_update(&u.edge, u.op.delta()).unwrap();
    }
    assert_eq!(sk.try_decode().unwrap(), restored.try_decode().unwrap());
    assert_eq!(
        restored
            .try_decode_with_labels()
            .unwrap()
            .1
            .component_count(),
        dgs_hypergraph::algo::hyper_component_count(&h)
    );
}

#[test]
fn skeleton_and_light_recovery_round_trip() {
    let g = generators::lemma10_gadget();
    let h = Hypergraph::from_graph(&g);
    let space = EdgeSpace::graph(g.n()).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let mut skel = KSkeletonSketch::new(space.clone(), 3, &SeedTree::new(4), params);
    let mut light = LightRecoverySketch::new(space, 2, &SeedTree::new(5), params);
    for e in h.edges() {
        skel.try_update(e, 1).unwrap();
        light.try_update(e, 1).unwrap();
    }
    let skel2 = round_trip(&skel);
    assert_eq!(skel.try_decode().unwrap(), skel2.try_decode().unwrap());
    assert_eq!(skel.k(), skel2.k());

    let light2 = round_trip(&light);
    let (a, b) = (light.try_recover().unwrap(), light2.try_recover().unwrap());
    assert_eq!(a.complete, b.complete);
    assert_eq!(a.edges(), b.edges());
    assert_eq!(
        light2.try_reconstruct().unwrap().map(|r| r.edge_count()),
        Some(h.edge_count())
    );
}

#[test]
fn vertex_conn_and_sparsifier_round_trip() {
    use dynamic_graph_streams::core::HypergraphSparsifier;
    let mut rng = StdRng::seed_from_u64(9);
    let g = generators::planted_separator(5, 5, 2);
    let h = Hypergraph::from_graph(&g);
    let space = EdgeSpace::graph(g.n()).unwrap();

    let cfg = VertexConnConfig::query(2, g.n(), 2.0, Profile::Practical);
    let mut vc = VertexConnSketch::new(space.clone(), cfg, &SeedTree::new(10));
    for e in h.edges() {
        vc.try_update(e, 1).unwrap();
    }
    let mut vc2 = round_trip(&vc);
    assert_eq!(
        vc.try_certificate().unwrap().union.edges(),
        vc2.try_certificate().unwrap().union.edges()
    );
    // The restored structure keeps accepting updates (membership rebuilt).
    vc2.try_update(&HyperEdge::pair(0, 1), -1).unwrap();
    vc2.try_update(&HyperEdge::pair(0, 1), 1).unwrap();
    assert!(vc2.try_certificate().unwrap().disconnects(&[5, 6]));

    let hh = generators::random_uniform_hypergraph(10, 3, 18, &mut rng);
    let hspace = EdgeSpace::new(10, 3).unwrap();
    let scfg = SparsifierConfig::explicit(
        3,
        6,
        ForestParams::new(Profile::Practical, hspace.dimension()),
    );
    let mut sp = HypergraphSparsifier::new(hspace, scfg, &SeedTree::new(11));
    for e in hh.edges() {
        sp.try_update(e, 1).unwrap();
    }
    let sp2 = round_trip(&sp);
    let (a, b) = (sp.try_decode().unwrap(), sp2.try_decode().unwrap());
    assert_eq!(a.per_level, b.per_level);
    let ea: Vec<_> = a.sparsifier.iter().map(|(e, w)| (e.clone(), w)).collect();
    let eb: Vec<_> = b.sparsifier.iter().map(|(e, w)| (e.clone(), w)).collect();
    assert_eq!(ea, eb);
}

#[test]
fn corrupted_checkpoints_fail_cleanly() {
    let space = EdgeSpace::graph(8).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let sk = SpanningForestSketch::new_full(space, &SeedTree::new(6), params);
    let mut w = Writer::new();
    sk.encode(&mut w);
    let bytes = w.into_bytes();
    // Truncations at various points must error, never panic.
    for cut in [0usize, 1, 8, 17, bytes.len() / 2, bytes.len() - 1] {
        let mut r = Reader::new(&bytes[..cut]);
        assert!(
            <SpanningForestSketch as Codec>::decode(&mut r).is_err(),
            "cut at {cut} decoded"
        );
    }
    // Trailing garbage is caught by expect_end.
    let mut extended = bytes.clone();
    extended.push(0xFF);
    let mut r = Reader::new(&extended);
    let _ = <SpanningForestSketch as Codec>::decode(&mut r).unwrap();
    assert!(r.expect_end().is_err());
}

/// Adversarial decoding (the byte-level fault model): every truncation of a
/// valid encoding must be rejected by `decode` + `expect_end`, and every
/// bit-flipped encoding must either be rejected with a typed `CodecError`
/// or decode into *some* value — never panic. Truncation and bit positions
/// are exhaustive for small encodings and evenly sampled for large ones.
fn assert_decode_rejects_corruption<T: Codec>(value: &T, label: &str) {
    use dgs_hypergraph::fault::{truncated, with_bit_flipped};

    let mut w = Writer::new();
    value.encode(&mut w);
    let bytes = w.into_bytes();
    assert!(!bytes.is_empty(), "{label}: empty encoding");

    let cut_step = (bytes.len() / 128).max(1);
    for cut in (0..bytes.len()).step_by(cut_step) {
        let cutb = truncated(&bytes, cut);
        let mut r = Reader::new(&cutb);
        let res = T::decode(&mut r).map(|_| ()).and_then(|()| r.expect_end());
        assert!(res.is_err(), "{label}: truncation to {cut} bytes accepted");
    }

    let total_bits = bytes.len() * 8;
    let bit_step = (total_bits / 512).max(1);
    for bit in (0..total_bits).step_by(bit_step) {
        let bad = with_bit_flipped(&bytes, bit);
        let mut r = Reader::new(&bad);
        // Either a typed rejection or a clean decode of a different value;
        // a panic here fails the test. (A single flipped payload bit can
        // yield another valid encoding — that is what checksummed framing
        // in `dgs_hypergraph::fault` is for.)
        let _ = T::decode(&mut r);
    }
}

#[test]
fn adversarial_bytes_never_panic_any_codec() {
    use dynamic_graph_streams::core::{HypergraphSparsifier, SparsifierConfig};
    use dynamic_graph_streams::field::{Fingerprinter, KWiseHash, UniformHash};
    use dynamic_graph_streams::sketch::{OneSparse, SparseRecovery};

    let seeds = SeedTree::new(99);
    let tiny = L0Params {
        sparsity: 2,
        rows: 2,
        level_independence: 2,
    };

    assert_decode_rejects_corruption(&42u64, "u64");
    assert_decode_rejects_corruption(&KWiseHash::new(&seeds, 4), "KWiseHash");
    assert_decode_rejects_corruption(&UniformHash::new(&seeds, 8), "UniformHash");
    assert_decode_rejects_corruption(&Fingerprinter::new(&seeds.child(1)), "Fingerprinter");
    assert_decode_rejects_corruption(&tiny, "L0Params");

    let fper = Fingerprinter::new(&seeds.child(2));
    let mut cell = OneSparse::new();
    cell.update(17, 3, &fper);
    assert_decode_rejects_corruption(&cell, "OneSparse");

    let mut rec = SparseRecovery::new(&seeds.child(3), 1 << 12, 2, 2);
    for i in [3u64, 900] {
        rec.update(i, 1).unwrap();
    }
    assert_decode_rejects_corruption(&rec, "SparseRecovery");

    let mut l0 = L0Sampler::new(&seeds.child(4), 1 << 12, tiny);
    for i in [5u64, 77, 4001] {
        l0.update(i, 1).unwrap();
    }
    assert_decode_rejects_corruption(&l0, "L0Sampler");

    // Structure-level codecs, kept tiny so exhaustive-ish corruption stays
    // fast: a 6-vertex graph space with starved parameters.
    let space = EdgeSpace::graph(6).unwrap();
    let params = ForestParams {
        l0: tiny,
        extra_rounds: 0,
    };
    assert_decode_rejects_corruption(&params, "ForestParams");

    let mut forest = SpanningForestSketch::new_full(space.clone(), &seeds.child(5), params);
    forest.try_update(&HyperEdge::pair(0, 1), 1).unwrap();
    assert_decode_rejects_corruption(&forest, "SpanningForestSketch");

    let mut skel = KSkeletonSketch::new(space.clone(), 2, &seeds.child(6), params);
    skel.try_update(&HyperEdge::pair(1, 2), 1).unwrap();
    assert_decode_rejects_corruption(&skel, "KSkeletonSketch");

    let msg =
        try_player_sketch(&space, 0, &[HyperEdge::pair(0, 3)], &seeds.child(7), params).unwrap();
    assert_decode_rejects_corruption(&msg, "PlayerMessage");

    let mut cfg = VertexConnConfig::query(2, 6, 1.0, Profile::Practical);
    cfg.forest = params;
    assert_decode_rejects_corruption(&cfg, "VertexConnConfig");
    let mut vc = VertexConnSketch::new(space.clone(), cfg, &seeds.child(8));
    vc.try_update(&HyperEdge::pair(2, 3), 1).unwrap();
    assert_decode_rejects_corruption(&vc, "VertexConnSketch");

    let mut light = LightRecoverySketch::new(space.clone(), 1, &seeds.child(9), params);
    light.try_update(&HyperEdge::pair(4, 5), 1).unwrap();
    assert_decode_rejects_corruption(&light, "LightRecoverySketch");

    let scfg = SparsifierConfig::explicit(1, 2, params);
    let mut sp = HypergraphSparsifier::new(space.clone(), scfg, &seeds.child(10));
    sp.try_update(&HyperEdge::pair(0, 5), 1).unwrap();
    assert_decode_rejects_corruption(&sp, "HypergraphSparsifier");

    let sp_msg = HypergraphSparsifier::try_player_message(
        &space,
        &scfg,
        &seeds.child(10),
        0,
        &[HyperEdge::pair(0, 5)],
    )
    .unwrap();
    assert_decode_rejects_corruption(&sp_msg, "SparsifierPlayerMessage");
}
