//! Crash-safe ingestion: write-ahead logging, checksummed snapshots, and
//! exact recovery.
//!
//! Linearity makes recovery *exact* — a snapshot of the sketch plus a
//! replay of the logged tail is bit-identical to never having crashed.
//! This example ingests a churn stream, kills the process state mid-stream
//! (twice, the second time also tearing the log's tail the way a power
//! loss would), recovers, finishes the stream, and shows the final
//! connectivity answer agreeing with an uninterrupted run.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use std::fs;

use dynamic_graph_streams::prelude::*;

use dgs_hypergraph::fault::truncated;
use dgs_hypergraph::generators;

fn fresh_sketch(n: usize) -> SpanningForestSketch {
    let space = EdgeSpace::graph(n).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    SpanningForestSketch::new_full(space, &SeedTree::new(42), params)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let n = 40;
    let h = Hypergraph::from_graph(&generators::gnp(n, 0.12, &mut rng));
    let stream = generators::churn_stream(&h, generators::ChurnConfig::default(), &mut rng);
    println!(
        "workload: {} updates ({}% deletions) over {} vertices",
        stream.len(),
        (stream.deletion_fraction() * 100.0).round(),
        n
    );

    let base = std::env::temp_dir().join(format!("dgs-example-crash-{}", std::process::id()));
    let wal_dir = base.join("wal");
    let snap_dir = base.join("snapshots");
    let _ = fs::remove_dir_all(&base);
    // One durable shard, flushed every 16 updates: a crash mid-batch loses
    // nothing, because every update is logged before it is buffered.
    let cfg = SupervisorConfig {
        repetitions: 1,
        threads: 1,
        batch_size: 16,
        checkpoint: CheckpointConfig {
            wal: WalConfig {
                segment_records: 256,
                seed: 0xD1CE,
            },
            snapshot_interval: 200,
            snapshot_seed: 42,
        },
        ..SupervisorConfig::default()
    };
    let build = move |_: usize| fresh_sketch(n);

    // --- Phase 1: ingest under durability, then "crash" -------------------
    let crash_1 = stream.len() / 3;
    let mut ing = SupervisedIngestor::create(&wal_dir, &snap_dir, n, stream.max_rank, cfg, build)
        .expect("create durable ingestor");
    for u in &stream.updates[..crash_1] {
        ing.push(u).expect("ingest");
    }
    println!("\n-- crash #1 at update {crash_1} (process killed, no shutdown) --");
    // What recovery will start from: the newest valid snapshot of the
    // shard's store, plus the WAL tail past it.
    let store = ing.shard_store(0).clone();
    drop(ing);
    let rec = RecoveryDriver::new(&wal_dir, store)
        .recover(|_, _| fresh_sketch(n))
        .expect("recover after crash #1");
    println!(
        "recovery ladder: snapshot at {:?}, {} records replayed",
        rec.from_snapshot, rec.replayed
    );

    // --- Phase 2: resume, continue, crash again with a torn WAL tail ------
    let (mut ing, offset) =
        SupervisedIngestor::resume(&wal_dir, &snap_dir, n, stream.max_rank, cfg, build)
            .expect("resume after crash #1");
    println!("resumed at offset {offset}");
    assert_eq!(offset as usize, crash_1);

    let crash_2 = 2 * stream.len() / 3;
    for u in &stream.updates[crash_1..crash_2] {
        ing.push(u).expect("ingest");
    }
    drop(ing);
    // A power loss mid-write: shear bytes off the active segment.
    let seg = fs::read_dir(&wal_dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .max()
        .expect("at least one segment");
    let bytes = fs::read(&seg).unwrap();
    fs::write(&seg, truncated(&bytes, bytes.len().saturating_sub(7))).unwrap();
    println!("\n-- crash #2 at update {crash_2}, last WAL frame torn --");

    // --- Phase 3: recover past the torn tail and finish -------------------
    let (mut ing, offset) =
        SupervisedIngestor::resume(&wal_dir, &snap_dir, n, stream.max_rank, cfg, build)
            .expect("resume after crash #2");
    let resume_at = offset as usize;
    println!(
        "resumed at offset {offset} ({} torn record(s) discarded from the log tail)",
        crash_2 - resume_at
    );
    assert!(resume_at <= crash_2, "never recover records that were torn");
    for u in &stream.updates[resume_at..] {
        ing.push(u).expect("ingest");
    }
    let recovered = ing.finish().expect("finish");

    // --- Equivalence with a run that never crashed ------------------------
    let mut uninterrupted = fresh_sketch(n);
    for u in &stream.updates {
        uninterrupted
            .try_update(&u.edge, u.op.delta())
            .expect("stream edges lie in the sketch's space");
    }
    let a = recovered.sketches()[0].try_component_count();
    let b = uninterrupted.try_component_count();
    println!(
        "\ncomponents: recovered run = {:?}, uninterrupted run = {:?}",
        a, b
    );
    assert_eq!(a.ok(), b.ok(), "recovery must not change any answer");

    // Recovery over damaged state is typed, never a panic: nuke a sealed
    // segment and watch the error come back as a value.
    let first_seg = wal_dir.join("seg-00000000.wal");
    let bytes = fs::read(&first_seg).unwrap();
    fs::write(&first_seg, &bytes[..bytes.len() / 2]).unwrap();
    match read_wal(&wal_dir) {
        Err(WalError::Corrupt { segment, detail }) => {
            println!("sealed-segment damage detected (segment {segment}): {detail}");
        }
        other => println!("unexpected outcome: {other:?}"),
    }

    let _ = fs::remove_dir_all(&base);
    println!("\nok: crash-recovery round trips are exact");
}
