//! Property: the hybrid sparse/sketch backend is byte-identical to direct
//! sketch ingestion — before, across, and after spill.
//!
//! The contract under test (DESIGN.md, "Hybrid sparse/sketch backend"):
//! the hybrid's inner sketch is either exactly zero (resident) or exactly
//! the state a [`SpanningForestSketch`] reaches by ingesting the stream
//! directly (spilled/untracked), and the hybrid's own encoded state —
//! mode, buffer, and sketch — is a pure function of the update *sequence*,
//! never of how it was chopped into batches or striped across threads.
//! Spill, un-spill, and the tracking cap are all driven per update, so
//! mid-batch spill points land the same bytes as scalar ingestion.
//!
//! The workload deliberately drives the full state machine: a churn phase
//! grows support past the spill threshold, a delete-everything phase
//! cancels it back to zero (forcing an un-spill through the hysteresis
//! low-water mark), and a re-insert phase climbs again. The registry
//! cross-check asserts the spill and un-spill actually happened, so the
//! property is never vacuously satisfied.

use std::fs;
use std::path::PathBuf;

use dynamic_graph_streams::field::Codec;
use dynamic_graph_streams::hypergraph::generators::{churn_stream, gnp, ChurnConfig};
use dynamic_graph_streams::prelude::*;

use dgs_obs::Registry;

const N: usize = 16;

fn tmpdir(label: &str) -> PathBuf {
    static UNIQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dgs-hybrid-{label}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn forest(seed: u64, rep: usize) -> SpanningForestSketch {
    let space = EdgeSpace::graph(N).expect("edge space");
    let params = ForestParams::new(Profile::Practical, space.dimension());
    SpanningForestSketch::new_full(space, &SeedTree::new(seed).child(rep as u64), params)
}

fn hybrid(seed: u64, rep: usize, cfg: HybridConfig) -> HybridConnectivitySketch {
    HybridConnectivitySketch::new(forest(seed, rep), cfg)
}

fn encoded<T: Codec>(t: &T) -> Vec<u8> {
    let mut w = dynamic_graph_streams::field::Writer::new();
    t.encode(&mut w);
    w.into_bytes()
}

/// Churn up past any spill threshold, delete *everything* back to support
/// zero (crossing every un-spill low-water mark), then re-insert the first
/// `tail` edges of the final graph.
fn workload(seed: u64, tail: usize) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed);
    let h = Hypergraph::from_graph(&gnp(N, 0.4, &mut rng));
    let mut updates = churn_stream(
        &h,
        ChurnConfig {
            noise_ratio: 2.0,
            churn_ratio: 0.5,
        },
        &mut rng,
    )
    .updates;
    for e in h.edges() {
        updates.push(Update::delete(e.clone()));
    }
    for e in h.edges().iter().take(tail) {
        updates.push(Update::insert(e.clone()));
    }
    updates
}

fn thresholds() -> [HybridConfig; 3] {
    [
        // Spills almost immediately; the re-insert tail re-spills it too.
        HybridConfig {
            spill_threshold: 6,
            unspill_threshold: 2,
            max_tracked_support: 1 << 20,
        },
        // Spills mid-churn, un-spills on the delete phase, ends resident.
        HybridConfig {
            spill_threshold: 24,
            unspill_threshold: 8,
            max_tracked_support: 1 << 20,
        },
        // The tracking cap engages: once support passes 32 the buffer is
        // dropped and the sketch stays authoritative through the deletes.
        HybridConfig {
            spill_threshold: 16,
            unspill_threshold: 4,
            max_tracked_support: 32,
        },
    ]
}

#[test]
fn spill_migration_is_byte_identical_to_direct_sketch_ingest() {
    const REPS: usize = 3;
    let tail = 20;
    for seed in [13u64, 37, 59] {
        let updates = workload(seed, tail);
        for (ci, cfg) in thresholds().into_iter().enumerate() {
            // Scalar references: one hybrid and one direct sketch per
            // repetition, with a live registry proving the state machine
            // actually cycled (spilled at least once, and for the tracked
            // configs un-spilled at least once).
            let registry = Registry::new();
            let mut reference: Vec<HybridConnectivitySketch> = (0..REPS)
                .map(|i| {
                    let mut h = hybrid(seed, i, cfg);
                    h.set_sink(&registry.sink());
                    h
                })
                .collect();
            let mut direct: Vec<SpanningForestSketch> =
                (0..REPS).map(|i| forest(seed, i)).collect();
            for u in &updates {
                for i in 0..REPS {
                    reference[i].apply_update(u).expect("reference apply");
                    direct[i].apply_update(u).expect("direct apply");
                }
            }
            let spills = registry
                .counter_value("dgs_core_hybrid_spills")
                .unwrap_or(0);
            let unspills = registry
                .counter_value("dgs_core_hybrid_unspills")
                .unwrap_or(0);
            assert!(
                spills >= REPS as u64,
                "seed {seed} cfg {ci}: every repetition must spill (got {spills})"
            );
            if cfg.max_tracked_support > updates.len() {
                assert!(
                    unspills >= REPS as u64,
                    "seed {seed} cfg {ci}: the delete phase must un-spill \
                     every tracked repetition (got {unspills})"
                );
            }

            for (i, r) in reference.iter().enumerate() {
                match r.mode() {
                    // Resident: the un-spill subtracted the sketch back to
                    // exactly zero — byte-identical to a fresh sketch.
                    HybridMode::Resident => assert_eq!(
                        encoded(r.sketch()),
                        encoded(&forest(seed, i)),
                        "seed {seed} cfg {ci} rep {i}: resident sketch not zero"
                    ),
                    // Spilled/untracked: the inner sketch must be
                    // byte-identical to direct ingestion of the stream.
                    _ => assert_eq!(
                        encoded(r.sketch()),
                        encoded(&direct[i]),
                        "seed {seed} cfg {ci} rep {i}: spilled sketch diverged \
                         from direct ingestion"
                    ),
                }
                // Decode answers agree across the exact and sketch paths.
                assert_eq!(
                    r.try_component_count().expect("hybrid decode"),
                    direct[i].try_component_count().expect("direct decode"),
                    "seed {seed} cfg {ci} rep {i}: answers diverged"
                );
            }
            let want: Vec<Vec<u8>> = reference.iter().map(encoded).collect();

            // The same stream through the striped boosted batch apply at
            // every (threads, batch) point — including batch sizes that put
            // the spill, un-spill, and cap transitions mid-batch — must land
            // the identical hybrid bytes (mode + buffer + sketch).
            for threads in [1usize, 2, 3] {
                for batch in [1usize, 5, 16, 64] {
                    let mut boosted = BoostedQuery::new(REPS, |i| hybrid(seed, i, cfg));
                    for chunk in updates.chunks(batch) {
                        boosted.apply_batch(chunk, threads).expect("apply_batch");
                    }
                    let got: Vec<Vec<u8>> = boosted.sketches().iter().map(encoded).collect();
                    assert_eq!(
                        got, want,
                        "seed {seed} cfg {ci} threads {threads} batch {batch}: \
                         striped hybrid ingest diverged from scalar"
                    );
                }
            }
        }
    }
}

/// Crash + resume and quarantine + rebuild must replay the WAL into the
/// same resident-or-spilled hybrid state: after poisoning a shard
/// mid-stream, crashing with it still quarantined, resuming from the
/// durable log, and finishing the stream, every shard's encoded hybrid —
/// mode byte, exact buffer, and inner sketch — matches a scalar replay
/// that never faulted.
#[test]
fn crash_resume_replays_the_wal_into_the_same_resident_or_spilled_state() {
    let seed = 0x5B1D;
    let cfg_h = HybridConfig {
        spill_threshold: 8,
        unspill_threshold: 2,
        max_tracked_support: 1 << 20,
    };
    let updates = workload(seed, 12);
    let len = updates.len();
    let crash_at = 3 * len / 5; // mid-stream: shards are spilled here
    let (wal, snap) = (tmpdir("wal"), tmpdir("snap"));
    let cfg = SupervisorConfig {
        repetitions: 3,
        threads: 2,
        batch_size: 8,
        // Never auto-rebuild: the victim must still be quarantined when
        // the process "dies", so resume is what heals it.
        rebuild_after_flushes: u64::MAX,
        seed,
        checkpoint: CheckpointConfig {
            wal: WalConfig {
                segment_records: 16,
                seed,
            },
            snapshot_interval: 23,
            snapshot_seed: seed,
        },
        ..SupervisorConfig::default()
    };
    let build = move |i: usize| hybrid(seed, i, cfg_h);

    let mut sup = SupervisedIngestor::create(&wal, &snap, N, 2, cfg, build).expect("create");
    for u in &updates[..crash_at / 2] {
        sup.push(u).expect("push");
    }
    sup.inject_apply_fault(1, SketchError::failure("chaos", "poisoned"), u32::MAX);
    for u in &updates[crash_at / 2..crash_at] {
        sup.push(u).expect("push");
    }
    sup.flush().expect("flush");
    assert_eq!(sup.shard_states()[1], ShardState::Quarantined);
    drop(sup); // crash: no seal, victim still down

    let (mut sup, durable) =
        SupervisedIngestor::resume(&wal, &snap, N, 2, cfg, build).expect("resume");
    assert_eq!(
        durable, crash_at as u64,
        "every pushed update was WAL-appended before the crash"
    );
    assert_eq!(
        sup.shard_states(),
        vec![ShardState::Healthy; 3],
        "resume rebuilds the quarantined hybrid shard from the durable log"
    );
    for u in &updates[durable as usize..] {
        sup.push(u).expect("push tail");
    }
    sup.flush().expect("flush tail");

    for i in 0..3 {
        let mut reference = build(i);
        for u in &updates {
            reference.apply_update(u).expect("reference apply");
        }
        // The delete-everything phase un-spilled (support fell through the
        // low-water mark 2), then the 12-edge re-insert tail crossed the
        // spill threshold 8 again — the stream ends *re-spilled*. The mode
        // is already part of the encoded state below; asserting it
        // explicitly keeps the test honest if the workload is ever tweaked.
        assert_eq!(reference.mode(), HybridMode::Spilled);
        assert_eq!(
            sup.shard_encoded(i),
            encoded(&reference),
            "shard {i} diverged across poison + crash + resume"
        );
    }
    fs::remove_dir_all(&wal).expect("cleanup wal");
    fs::remove_dir_all(&snap).expect("cleanup snap");
}
