//! Crash-injection harness for the checkpoint/recovery subsystem.
//!
//! The contract under test (DESIGN.md, "Durability & recovery"): kill
//! durable ingestion (`SupervisedIngestor`, the path the service runs) at
//! an arbitrary update index, corrupt the on-disk state with
//! torn writes and bit flips, and recovery either reproduces a sketch
//! **bit-identical** to an uninterrupted run over the durable prefix — so
//! every connectivity / k-connectivity query answers identically — or
//! fails with a typed [`RecoveryError`]. Never a panic, never a silently
//! divergent answer.

use std::fs;
use std::path::PathBuf;

use dynamic_graph_streams::prelude::*;

use dgs_field::Codec;
use dgs_hypergraph::fault::{truncated, with_bit_flipped};
use dgs_hypergraph::generators;
use dgs_obs::Registry;

fn tmpdir(label: &str) -> PathBuf {
    static UNIQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dgs-crash-{label}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A churn workload (inserts and deletes) over a random graph.
fn workload(seed: u64, n: usize) -> UpdateStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let h = Hypergraph::from_graph(&generators::gnp(n, 0.3, &mut rng));
    generators::churn_stream(&h, generators::ChurnConfig::default(), &mut rng)
}

fn forest(n: usize, seed: u64) -> SpanningForestSketch {
    let space = EdgeSpace::graph(n).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    SpanningForestSketch::new_full(space, &SeedTree::new(seed), params)
}

fn vconn(n: usize, seed: u64) -> VertexConnSketch {
    let space = EdgeSpace::graph(n).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let cfg = VertexConnConfig::explicit(2, 4, params);
    VertexConnSketch::new(space, cfg, &SeedTree::new(seed))
}

fn encoded<T: Codec>(t: &T) -> Vec<u8> {
    let mut w = dgs_field::Writer::new();
    t.encode(&mut w);
    w.into_bytes()
}

/// Small segments and frequent snapshots so every trial crosses rotations
/// and checkpoints.
fn tight_cfg(seed: u64) -> CheckpointConfig {
    CheckpointConfig {
        wal: WalConfig {
            segment_records: 16,
            seed,
        },
        snapshot_interval: 23,
        snapshot_seed: seed,
    }
}

/// A one-shard durable ingestor. At `batch_size` 1 it logs, applies and
/// snapshots after every update; a larger batch leaves logged but
/// unapplied updates in its buffer when it crashes.
fn one_shard(checkpoint: CheckpointConfig, batch_size: usize) -> SupervisorConfig {
    SupervisorConfig {
        repetitions: 1,
        threads: 1,
        batch_size,
        checkpoint,
        ..SupervisorConfig::default()
    }
}

/// Runs ingestion of `updates[..crash_at]`, "crashes" (drops the ingestor
/// without flushing or sealing), and returns the recovery outcome over the
/// shard's snapshot store.
fn crash_and_recover<T, F>(
    wal_dir: &PathBuf,
    snap_dir: &PathBuf,
    stream: &UpdateStream,
    crash_at: usize,
    cfg: SupervisorConfig,
    fresh: F,
) -> Recovered<T>
where
    T: Recoverable + Clone + Send + Sync + 'static,
    F: Fn() -> T + Clone + Send + Sync + 'static,
{
    let build = fresh.clone();
    let mut ing = SupervisedIngestor::create(
        wal_dir,
        snap_dir,
        stream.n,
        stream.max_rank,
        cfg,
        move |_| build(),
    )
    .unwrap();
    for u in &stream.updates[..crash_at] {
        ing.push(u).unwrap();
    }
    let store = ing.shard_store(0).clone();
    drop(ing); // crash: no flush, no seal, no final snapshot

    RecoveryDriver::new(wal_dir, store)
        .recover(|_, _| fresh())
        .unwrap()
}

/// At batch size 8 a crash usually lands mid-batch: the buffered updates
/// are in the WAL but in no shard, and recovery must still reach the crash
/// point exactly.
#[test]
fn crash_at_randomized_indices_recovers_bit_identical_state() {
    for batch_size in [1usize, 8] {
        let mut mid_batch_crashes = 0;
        for trial in 0..12u64 {
            let stream = workload(500 + trial, 14);
            let mut rng = StdRng::seed_from_u64(900 + trial);
            let crash_at = rng.gen_range(1..=stream.len());
            mid_batch_crashes += usize::from(crash_at % batch_size != 0);
            let (wal_dir, snap_dir) = (tmpdir("idx-wal"), tmpdir("idx-snap"));
            let (n, seed) = (stream.n, 7 * trial + 1);
            let rec = crash_and_recover(
                &wal_dir,
                &snap_dir,
                &stream,
                crash_at,
                one_shard(tight_cfg(trial), batch_size),
                move || forest(n, seed),
            );
            let at = format!("batch {batch_size}, trial {trial}");
            assert_eq!(rec.offset as usize, crash_at, "{at}");
            assert_eq!(rec.wal_torn_bytes, 0, "no corruption was injected");

            // Bit-exactness against an uninterrupted run over the same prefix.
            let mut reference = forest(n, seed);
            for u in &stream.updates[..crash_at] {
                reference.apply_update(u).unwrap();
            }
            assert_eq!(
                encoded(&rec.sketch),
                encoded(&reference),
                "{at}: recovered sketch diverges from uninterrupted run"
            );

            // Finish the stream on both; every query must agree.
            let mut recovered = rec.sketch;
            for u in &stream.updates[crash_at..] {
                recovered.apply_update(u).unwrap();
                reference.apply_update(u).unwrap();
            }
            assert_eq!(
                recovered.try_component_count().ok(),
                reference.try_component_count().ok()
            );
            assert_eq!(encoded(&recovered), encoded(&reference));
            fs::remove_dir_all(&wal_dir).unwrap();
            fs::remove_dir_all(&snap_dir).unwrap();
        }
        if batch_size > 1 {
            assert!(
                mid_batch_crashes > 0,
                "no crash left logged, unapplied updates in the buffer"
            );
        }
    }
}

#[test]
fn torn_writes_and_bit_flips_in_the_wal_tail_recover_a_prefix() {
    for trial in 0..10u64 {
        let stream = workload(700 + trial, 12);
        let mut rng = StdRng::seed_from_u64(1700 + trial);
        let crash_at = rng.gen_range(8..=stream.len());
        let (wal_dir, snap_dir) = (tmpdir("tear-wal"), tmpdir("tear-snap"));
        let cfg = tight_cfg(trial);
        let n = stream.n;
        let mut ing = SupervisedIngestor::create(
            &wal_dir,
            &snap_dir,
            n,
            stream.max_rank,
            one_shard(cfg, 1),
            move |_| forest(n, trial),
        )
        .unwrap();
        for u in &stream.updates[..crash_at] {
            ing.push(u).unwrap();
        }
        let seg = crash_at / cfg.wal.segment_records as usize;
        let store = ing.shard_store(0).clone();
        drop(ing);

        // Injected fault: tear bytes off the active segment, or flip a bit
        // in its record region.
        let seg_path = wal_dir.join(format!("seg-{seg:08}.wal"));
        let bytes = fs::read(&seg_path).unwrap();
        if trial % 2 == 0 && bytes.len() > 4 {
            let cut = rng.gen_range(1..bytes.len());
            fs::write(&seg_path, truncated(&bytes, cut)).unwrap();
        } else {
            let bit = rng.gen_range(0..bytes.len() * 8);
            fs::write(&seg_path, with_bit_flipped(&bytes, bit)).unwrap();
        }

        let driver = RecoveryDriver::new(&wal_dir, store);
        match driver.recover(|_, _| forest(stream.n, trial)) {
            Ok(rec) => {
                // Whatever prefix survived must be *exactly* that prefix.
                let r = rec.offset as usize;
                assert!(r <= crash_at, "trial {trial}: recovered beyond the crash");
                let mut reference = forest(stream.n, trial);
                for u in &stream.updates[..r] {
                    reference.apply_update(u).unwrap();
                }
                assert_eq!(
                    encoded(&rec.sketch),
                    encoded(&reference),
                    "trial {trial}: prefix at offset {r} not exact"
                );
            }
            // A flip in a sealed region (or segment 0's header) is damage
            // beyond the torn tail: a typed error, never a panic.
            Err(RecoveryError::Wal(WalError::Corrupt { .. })) => {}
            Err(e) => panic!("trial {trial}: unexpected recovery error {e}"),
        }
        fs::remove_dir_all(&wal_dir).unwrap();
        fs::remove_dir_all(&snap_dir).unwrap();
    }
}

#[test]
fn vertex_connectivity_queries_answer_identically_after_recovery() {
    for trial in 0..4u64 {
        let n = 12;
        let stream = workload(40 + trial, n);
        let mut rng = StdRng::seed_from_u64(2400 + trial);
        let crash_at = rng.gen_range(1..=stream.len());
        let (wal_dir, snap_dir) = (tmpdir("vc-wal"), tmpdir("vc-snap"));
        let rec = crash_and_recover(
            &wal_dir,
            &snap_dir,
            &stream,
            crash_at,
            one_shard(tight_cfg(100 + trial), 1),
            move || vconn(n, 13 * trial + 5),
        );
        assert_eq!(rec.offset as usize, crash_at);

        let mut reference = vconn(n, 13 * trial + 5);
        for u in &stream.updates[..crash_at] {
            reference.apply_update(u).unwrap();
        }
        let mut recovered = rec.sketch;
        for u in &stream.updates[crash_at..] {
            recovered.apply_update(u).unwrap();
            reference.apply_update(u).unwrap();
        }

        // Every k-connectivity query: identical certificates or identical
        // typed failures.
        match (reference.try_certificate(), recovered.try_certificate()) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.vertex_connectivity(4),
                    b.vertex_connectivity(4),
                    "trial {trial}"
                );
                for v in 0..n as u32 {
                    assert_eq!(a.disconnects(&[v]), b.disconnects(&[v]), "trial {trial}");
                }
                for (u, v) in [(0u32, 1u32), (2, 7), (3, 11), (5, 6)] {
                    assert_eq!(a.disconnects(&[u, v]), b.disconnects(&[u, v]));
                }
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!(
                "trial {trial}: certificate availability diverged: \
                 reference {:?} vs recovered {:?}",
                a.is_ok(),
                b.is_ok()
            ),
        }
        fs::remove_dir_all(&wal_dir).unwrap();
        fs::remove_dir_all(&snap_dir).unwrap();
    }
}

#[test]
fn snapshot_bit_flips_are_skipped_never_trusted() {
    // Property: flipping any random bit of any snapshot file makes that
    // snapshot invalid; the ladder falls back (older snapshot or full
    // replay) and still recovers the exact durable prefix.
    let stream = workload(31, 12);
    let (wal_dir, snap_dir) = (tmpdir("flip-wal"), tmpdir("flip-snap"));
    let n = stream.n;
    let mut ing = SupervisedIngestor::create(
        &wal_dir,
        &snap_dir,
        n,
        stream.max_rank,
        one_shard(tight_cfg(9), 1),
        move |_| forest(n, 3),
    )
    .unwrap();
    for u in &stream.updates {
        ing.push(u).unwrap();
    }
    let store = ing.shard_store(0).clone();
    drop(ing);

    let mut reference = forest(stream.n, 3);
    for u in &stream.updates {
        reference.apply_update(u).unwrap();
    }
    let reference_bytes = encoded(&reference);

    let snaps = store.offsets().unwrap();
    assert!(
        snaps.len() >= 2,
        "workload too small to exercise the ladder"
    );
    let mut rng = StdRng::seed_from_u64(77);
    for round in 0..24 {
        // Corrupt one random snapshot (keep the pristine bytes to restore).
        let victim = snaps[rng.gen_range(0..snaps.len())];
        let path = store.dir().join(format!("snap-{victim:012}.ckpt"));
        let pristine = fs::read(&path).unwrap();
        let bit = rng.gen_range(0..pristine.len() * 8);
        fs::write(&path, with_bit_flipped(&pristine, bit)).unwrap();

        let driver = RecoveryDriver::new(&wal_dir, store.clone());
        let rec: Recovered<SpanningForestSketch> =
            driver.recover(|_, _| forest(stream.n, 3)).unwrap();
        assert_eq!(rec.offset as usize, stream.len(), "round {round}");
        assert_ne!(
            rec.from_snapshot,
            Some(victim),
            "round {round}: a corrupted snapshot was trusted (bit {bit})"
        );
        assert!(
            !rec.snapshot_defects.is_empty() || rec.from_snapshot != Some(victim),
            "round {round}"
        );
        assert_eq!(
            encoded(&rec.sketch),
            reference_bytes,
            "round {round}: silent divergence after snapshot corruption"
        );
        fs::write(&path, pristine).unwrap();
    }

    // All snapshots corrupted at once: full-log replay, still exact.
    for &off in &snaps {
        let path = store.dir().join(format!("snap-{off:012}.ckpt"));
        let bytes = fs::read(&path).unwrap();
        let bit = rng.gen_range(0..bytes.len() * 8);
        fs::write(&path, with_bit_flipped(&bytes, bit)).unwrap();
    }
    let driver = RecoveryDriver::new(&wal_dir, store.clone());
    let rec: Recovered<SpanningForestSketch> = driver.recover(|_, _| forest(stream.n, 3)).unwrap();
    assert_eq!(rec.from_snapshot, None);
    assert_eq!(rec.snapshot_defects.len(), snaps.len());
    assert_eq!(encoded(&rec.sketch), reference_bytes);
    fs::remove_dir_all(&wal_dir).unwrap();
    fs::remove_dir_all(&snap_dir).unwrap();
}

#[test]
fn snapshot_truncated_at_every_byte_never_panics_never_lies() {
    // Property: truncate the only snapshot at every byte offset; recovery
    // must fall back to full-log replay and still be exact, at every cut.
    let stream = workload(32, 10);
    let (wal_dir, snap_dir) = (tmpdir("cut-wal"), tmpdir("cut-snap"));
    // One snapshot, taken when the last update is flushed.
    let cfg = CheckpointConfig {
        wal: WalConfig {
            segment_records: 64,
            seed: 5,
        },
        snapshot_interval: stream.len() as u64,
        snapshot_seed: 5,
    };
    let n = stream.n;
    let mut ing = SupervisedIngestor::create(
        &wal_dir,
        &snap_dir,
        n,
        stream.max_rank,
        one_shard(cfg, 1),
        move |_| forest(n, 11),
    )
    .unwrap();
    for u in &stream.updates {
        ing.push(u).unwrap();
    }
    let store = ing.shard_store(0).clone();
    drop(ing);

    let mut reference = forest(stream.n, 11);
    for u in &stream.updates {
        reference.apply_update(u).unwrap();
    }
    let reference_bytes = encoded(&reference);

    assert_eq!(store.offsets().unwrap(), vec![stream.len() as u64]);
    let off = store.offsets().unwrap()[0];
    let path = store.dir().join(format!("snap-{off:012}.ckpt"));
    let pristine = fs::read(&path).unwrap();
    // Every byte of the magic + manifest frame region, then a stride
    // through the (much larger) sketch payload.
    let header_region = 64.min(pristine.len());
    let cuts = (0..header_region)
        .chain((header_region..pristine.len()).step_by(97))
        .chain([pristine.len() - 1]);
    for cut in cuts {
        fs::write(&path, truncated(&pristine, cut)).unwrap();
        let driver = RecoveryDriver::new(&wal_dir, store.clone());
        let rec: Recovered<SpanningForestSketch> =
            driver.recover(|_, _| forest(stream.n, 11)).unwrap();
        assert_eq!(
            rec.from_snapshot, None,
            "cut {cut}: truncated snapshot used"
        );
        assert_eq!(
            encoded(&rec.sketch),
            reference_bytes,
            "cut {cut}: silent divergence"
        );
    }
    fs::remove_dir_all(&wal_dir).unwrap();
    fs::remove_dir_all(&snap_dir).unwrap();
}

#[test]
fn wal_truncated_at_every_byte_recovers_a_prefix_or_fails_typed() {
    // Property: truncate a single-segment WAL at every byte offset.
    // Recovery (no snapshots) must yield an exact prefix of the stream or
    // a typed error — every cut, no panics, no non-prefix states.
    let stream = workload(33, 10);
    let take = stream.len().min(12);
    let (wal_dir, snap_dir) = (tmpdir("pwal-wal"), tmpdir("pwal-snap"));
    let mut w = WalWriter::create(
        &wal_dir,
        stream.n,
        stream.max_rank,
        WalConfig {
            segment_records: 1 << 20,
            seed: 3,
        },
    )
    .unwrap();
    for u in &stream.updates[..take] {
        w.append(u).unwrap();
    }
    drop(w);

    let store = CheckpointStore::open(&snap_dir, 0).unwrap();
    let path = wal_dir.join("seg-00000000.wal");
    let pristine = fs::read(&path).unwrap();
    let mut best = 0usize;
    for cut in 0..=pristine.len() {
        fs::write(&path, truncated(&pristine, cut)).unwrap();
        let driver = RecoveryDriver::new(&wal_dir, store.clone());
        match driver.recover(|_, _| forest(stream.n, 21)) {
            Ok(rec) => {
                let r = rec.offset as usize;
                assert!(r <= take, "cut {cut}: phantom records");
                let mut reference = forest(stream.n, 21);
                for u in &stream.updates[..r] {
                    reference.apply_update(u).unwrap();
                }
                assert_eq!(
                    encoded(&rec.sketch),
                    encoded(&reference),
                    "cut {cut}: recovered state is not the length-{r} prefix"
                );
                best = best.max(r);
            }
            // Cut inside the header: the whole segment is unreadable.
            Err(RecoveryError::Wal(WalError::Corrupt { .. })) => {}
            Err(RecoveryError::NoState { .. }) => {}
            Err(e) => panic!("cut {cut}: unexpected error {e}"),
        }
    }
    assert_eq!(best, take, "the uncut log must recover everything");
    fs::remove_dir_all(&wal_dir).unwrap();
    fs::remove_dir_all(&snap_dir).unwrap();
}

#[test]
fn resumed_ingestion_after_crash_matches_uninterrupted_run() {
    // End-to-end: crash, resume with SupervisedIngestor::resume, finish
    // the stream, and compare against a run that never crashed — including
    // a second crash-resume cycle.
    let stream = workload(34, 12);
    let len = stream.len();
    assert!(len >= 6, "workload too small");
    let (c1, c2) = (len / 3, 2 * len / 3);
    let (wal_dir, snap_dir) = (tmpdir("res-wal"), tmpdir("res-snap"));
    let cfg = one_shard(tight_cfg(17), 1);
    let (n, max_rank) = (stream.n, stream.max_rank);
    let build = move |_: usize| forest(n, 29);

    let mut ing = SupervisedIngestor::create(&wal_dir, &snap_dir, n, max_rank, cfg, build).unwrap();
    for u in &stream.updates[..c1] {
        ing.push(u).unwrap();
    }
    drop(ing); // crash 1

    let (mut ing, offset) =
        SupervisedIngestor::resume(&wal_dir, &snap_dir, n, max_rank, cfg, build).unwrap();
    assert_eq!(offset as usize, c1);
    for u in &stream.updates[c1..c2] {
        ing.push(u).unwrap();
    }
    drop(ing); // crash 2

    let (mut ing, offset) =
        SupervisedIngestor::resume(&wal_dir, &snap_dir, n, max_rank, cfg, build).unwrap();
    assert_eq!(offset as usize, c2);
    for u in &stream.updates[c2..] {
        ing.push(u).unwrap();
    }

    let mut reference = forest(stream.n, 29);
    for u in &stream.updates {
        reference.apply_update(u).unwrap();
    }
    assert_eq!(ing.shard_encoded(0), encoded(&reference));
    let boosted = ing.finish().unwrap();
    assert_eq!(
        boosted.sketches()[0].try_component_count().ok(),
        reference.try_component_count().ok()
    );
    fs::remove_dir_all(&wal_dir).unwrap();
    fs::remove_dir_all(&snap_dir).unwrap();
}

/// WAL replay runs through the batched kernel (`Recoverable::apply_batch`
/// in fixed-size chunks). The full-log rung must stay bit-identical to a
/// per-update replay, and a bad update landing mid-chunk must surface its
/// exact stream index with the preceding prefix applied exactly once.
#[test]
fn batched_wal_replay_is_bit_identical_and_reports_exact_offsets() {
    // Full-log recovery (no snapshots) over a churn stream long enough to
    // span several replay chunks.
    let stream = workload(0xBA7C, 32);
    assert!(stream.len() > 256, "need a multi-chunk replay tail");
    let (wal_dir, snap_dir) = (tmpdir("batch-wal"), tmpdir("batch-snap"));
    let mut cfg = tight_cfg(1);
    cfg.snapshot_interval = u64::MAX; // wal-only: recovery is pure replay
    let n = stream.n;
    let rec = crash_and_recover(
        &wal_dir,
        &snap_dir,
        &stream,
        stream.len(),
        one_shard(cfg, 1),
        move || forest(n, 3),
    );
    assert_eq!(rec.from_snapshot, None, "replay must cover the whole log");
    let mut reference = forest(stream.n, 3);
    for u in &stream.updates {
        reference.apply_update(u).unwrap();
    }
    assert_eq!(
        encoded(&rec.sketch),
        encoded(&reference),
        "batched replay diverges from per-update replay"
    );
    fs::remove_dir_all(&wal_dir).unwrap();
    fs::remove_dir_all(&snap_dir).unwrap();

    // The apply_batch contract replay offsets rely on: a failure reports
    // the in-batch index of the bad update, with updates before it applied
    // exactly once and none after.
    let good = workload(0xBA7D, 12);
    let mut batch: Vec<Update> = good.updates[..10].to_vec();
    batch.insert(7, Update::insert(HyperEdge::pair(0, 99))); // out of range
    let mut via_batch = forest(12, 5);
    let (bad_index, _) = via_batch.apply_batch(&batch).unwrap_err();
    assert_eq!(bad_index, 7);
    let mut via_scalar = forest(12, 5);
    for u in &batch[..7] {
        via_scalar.apply_update(u).unwrap();
    }
    assert_eq!(
        encoded(&via_batch),
        encoded(&via_scalar),
        "failed batch must leave exactly the prefix applied"
    );
}

/// Supervision property (DESIGN.md, "Failure domains & degradation
/// ladder"): a shard poisoned and quarantined mid-stream, then rebuilt
/// from its newest valid snapshot plus the WAL tail, ends **bit-identical**
/// to a shard that never faulted — swept across workload seeds × fault
/// points × flush-thread counts. Linearity is what makes this possible:
/// replaying the missed suffix commutes with having applied it live.
#[test]
fn quarantined_shard_rebuilds_bit_identical_across_seeds_faults_and_threads() {
    let n = 16;
    for (trial, seed) in [21u64, 22, 23].into_iter().enumerate() {
        let stream = workload(seed, n);
        let len = stream.len();
        assert!(len >= 40, "workload too short to place interior faults");
        for (fi, fault_at) in [len / 5, len / 2, 4 * len / 5].into_iter().enumerate() {
            for threads in [1usize, 2, 3] {
                let wal = tmpdir("sup-prop-wal");
                let snap = tmpdir("sup-prop-snap");
                let cfg = SupervisorConfig {
                    repetitions: 3,
                    threads,
                    batch_size: 8,
                    rebuild_after_flushes: 1,
                    seed,
                    checkpoint: tight_cfg(seed),
                    ..SupervisorConfig::default()
                };
                let shard_seed = move |i: usize| 7000 + 100 * seed + i as u64;
                let mut sup = SupervisedIngestor::create(
                    &wal,
                    &snap,
                    stream.n,
                    stream.max_rank,
                    cfg,
                    move |i| forest(n, shard_seed(i)),
                )
                .unwrap();
                let registry = Registry::new();
                sup.set_sink(&registry.sink());

                // Rotate the victim so every repetition index gets poisoned
                // somewhere in the sweep.
                let victim = (trial + fi + threads) % 3;
                for u in &stream.updates[..fault_at] {
                    sup.push(u).unwrap();
                }
                sup.inject_apply_fault(
                    victim,
                    SketchError::failure("chaos", "poisoned mid-stream"),
                    u32::MAX,
                );
                for u in &stream.updates[fault_at..] {
                    sup.push(u).unwrap();
                }
                sup.flush().unwrap();
                // The poison must have actually cost us a quarantine (the
                // property is vacuous otherwise)...
                assert!(
                    registry
                        .counter_value("dgs_core_supervise_quarantines")
                        .unwrap_or(0)
                        >= 1,
                    "seed {seed} fault_at {fault_at} threads {threads}: victim never quarantined"
                );
                // ...and if the fault landed too late for the automatic
                // rebuild cadence, force the rebuild now — same code path.
                if sup.shard_states()[victim] != ShardState::Healthy {
                    sup.rebuild_now(victim).unwrap();
                }

                assert_eq!(
                    sup.shard_states(),
                    vec![ShardState::Healthy; 3],
                    "seed {seed} fault_at {fault_at} threads {threads}"
                );
                for i in 0..3 {
                    let mut reference = forest(n, shard_seed(i));
                    for u in &stream.updates {
                        reference.apply_update(u).unwrap();
                    }
                    assert_eq!(
                        sup.shard_encoded(i),
                        encoded(&reference),
                        "seed {seed} fault_at {fault_at} threads {threads}: \
                         shard {i} diverged from the never-faulted run"
                    );
                }
                fs::remove_dir_all(&wal).unwrap();
                fs::remove_dir_all(&snap).unwrap();
            }
        }
    }
}

/// A crash while a shard sits quarantined must not lose the quarantined
/// shard: resume rebuilds *every* repetition from the durable WAL prefix
/// (the in-memory poison dies with the process), and finishing the stream
/// afterwards is bit-identical to a run that never faulted or crashed.
#[test]
fn quarantine_survives_a_crash_and_resume_is_bit_identical() {
    let n = 14;
    let stream = workload(0x5AFE, n);
    let len = stream.len();
    let crash_at = 3 * len / 5;
    let (wal, snap) = (tmpdir("sup-crash-wal"), tmpdir("sup-crash-snap"));
    let cfg = SupervisorConfig {
        repetitions: 3,
        threads: 2,
        batch_size: 8,
        // Never auto-rebuild: the victim must still be quarantined when the
        // process "dies", so resume is what heals it.
        rebuild_after_flushes: u64::MAX,
        seed: 0x5AFE,
        checkpoint: tight_cfg(9),
        ..SupervisorConfig::default()
    };
    let build = move |i: usize| forest(n, 4400 + i as u64);

    let mut sup =
        SupervisedIngestor::create(&wal, &snap, stream.n, stream.max_rank, cfg, build).unwrap();
    for u in &stream.updates[..crash_at / 2] {
        sup.push(u).unwrap();
    }
    sup.inject_apply_fault(1, SketchError::failure("chaos", "poisoned"), u32::MAX);
    for u in &stream.updates[crash_at / 2..crash_at] {
        sup.push(u).unwrap();
    }
    sup.flush().unwrap();
    assert_eq!(sup.shard_states()[1], ShardState::Quarantined);
    drop(sup); // crash: no seal, victim still down

    let (mut sup, durable) =
        SupervisedIngestor::resume(&wal, &snap, stream.n, stream.max_rank, cfg, build).unwrap();
    assert_eq!(
        durable, crash_at as u64,
        "every pushed update was WAL-appended before the crash"
    );
    assert_eq!(
        sup.shard_states(),
        vec![ShardState::Healthy; 3],
        "resume rebuilds quarantined shards from the durable log"
    );
    for u in &stream.updates[durable as usize..] {
        sup.push(u).unwrap();
    }
    sup.flush().unwrap();
    for i in 0..3 {
        let mut reference = build(i);
        for u in &stream.updates {
            reference.apply_update(u).unwrap();
        }
        assert_eq!(
            sup.shard_encoded(i),
            encoded(&reference),
            "shard {i} diverged across crash + resume"
        );
    }
    fs::remove_dir_all(&wal).unwrap();
    fs::remove_dir_all(&snap).unwrap();
}

/// Recovery reads the log only from the snapshot it starts at (DESIGN.md,
/// "Durability & recovery"): damage in a sealed segment wholly behind the
/// newest valid snapshot is never read, so recovery and resume both return
/// the exact durable state. Once that snapshot is damaged too, the ladder
/// starts from an older one, reads the damaged segment and fails typed —
/// never a panic, never a shorter stream.
#[test]
fn damage_behind_the_newest_snapshot_is_read_only_when_the_ladder_reaches_it() {
    let stream = workload(35, 20);
    // 16-record segments and a snapshot every 23 updates: crashing at 80
    // leaves snapshots at 23, 46 and 69, with segment 3 (records 48..64)
    // sealed and wholly between the two newest.
    let crash_at = 80;
    assert!(stream.len() >= crash_at, "workload too small");
    let (wal_dir, snap_dir) = (tmpdir("behind-wal"), tmpdir("behind-snap"));
    let cfg = one_shard(tight_cfg(12), 1);
    let (n, max_rank) = (stream.n, stream.max_rank);
    let build = move |_: usize| forest(n, 41);
    let mut ing = SupervisedIngestor::create(&wal_dir, &snap_dir, n, max_rank, cfg, build).unwrap();
    for u in &stream.updates[..crash_at] {
        ing.push(u).unwrap();
    }
    let store = ing.shard_store(0).clone();
    drop(ing); // crash
    assert_eq!(store.offsets().unwrap(), vec![23, 46, 69]);
    let mut reference = forest(n, 41);
    for u in &stream.updates[..crash_at] {
        reference.apply_update(u).unwrap();
    }

    let damaged = wal_dir.join("seg-00000003.wal");
    let bytes = fs::read(&damaged).unwrap();
    fs::write(&damaged, with_bit_flipped(&bytes, 8 * 60)).unwrap();
    assert!(matches!(
        read_wal(&wal_dir),
        Err(WalError::Corrupt { segment: 3, .. })
    ));

    let rec: Recovered<SpanningForestSketch> = RecoveryDriver::new(&wal_dir, store.clone())
        .recover(|_, _| forest(n, 41))
        .unwrap();
    assert_eq!(rec.from_snapshot, Some(69));
    assert_eq!((rec.offset, rec.replayed), (80, 11));
    assert_eq!(encoded(&rec.sketch), encoded(&reference));
    let (ing, durable) =
        SupervisedIngestor::resume(&wal_dir, &snap_dir, n, max_rank, cfg, build).unwrap();
    assert_eq!(durable, crash_at as u64);
    assert_eq!(ing.shard_encoded(0), encoded(&reference));
    drop(ing);

    // The newest snapshot damaged too: the ladder falls back to snapshot
    // 46, whose tail holds segment 3.
    let newest = store.dir().join(format!("snap-{:012}.ckpt", 69));
    let bytes = fs::read(&newest).unwrap();
    fs::write(&newest, with_bit_flipped(&bytes, 8 * bytes.len() / 2)).unwrap();
    match RecoveryDriver::new(&wal_dir, store.clone()).recover(|_, _| forest(n, 41)) {
        Err(RecoveryError::Wal(WalError::Corrupt { segment: 3, .. })) => {}
        other => panic!(
            "expected segment-3 corruption, got {:?}",
            other.map(|r| r.offset)
        ),
    }
    match SupervisedIngestor::resume(&wal_dir, &snap_dir, n, max_rank, cfg, build) {
        Err(RecoveryError::Shard {
            shard: 0,
            segment: Some(3),
            ..
        }) => {}
        other => panic!(
            "expected shard 0 to fail at segment 3, got {:?}",
            other.map(|(_, durable)| durable)
        ),
    }
    fs::remove_dir_all(&wal_dir).unwrap();
    fs::remove_dir_all(&snap_dir).unwrap();
}
