//! E16 — crash recovery: recovery time vs checkpoint interval.
//!
//! The durability subsystem (dgs-hypergraph `wal` + dgs-core `checkpoint`)
//! trades steady-state cost against recovery latency: frequent snapshots
//! shorten the WAL tail a crash forces recovery to replay, at the price of
//! writing the sketch more often. Because sketches are linear, recovery is
//! *exact* — this experiment verifies bit-identity against an uninterrupted
//! run in every row while measuring the trade-off, and writes the machine-
//! readable baseline `BENCH_recovery.json`.

use std::time::Instant;

use dgs_connectivity::SpanningForestSketch;
use dgs_core::checkpoint::{CheckpointConfig, Recoverable, RecoveryDriver};
use dgs_core::supervise::{SupervisedIngestor, SupervisorConfig};
use dgs_field::prng::*;
use dgs_field::{Codec, SeedTree, Writer};
use dgs_hypergraph::generators::gnm;
use dgs_hypergraph::wal::WalConfig;
use dgs_hypergraph::{EdgeSpace, Hypergraph};

use crate::baseline::{Baseline, Fields};
use crate::report::{fmt_bytes, Table};
use crate::workloads::{default_stream, lean_forest};

fn fresh(n: usize, seed: u64) -> SpanningForestSketch {
    let space = EdgeSpace::graph(n).unwrap();
    SpanningForestSketch::new_full(space, &SeedTree::new(seed), lean_forest())
}

fn encoded_len<T: Codec>(t: &T) -> usize {
    let mut w = Writer::new();
    t.encode(&mut w);
    w.len()
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok().and_then(|e| e.metadata().ok()))
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

struct RowOut {
    interval: String,
    interval_updates: Option<u64>,
    snapshots: usize,
    wal_bytes: u64,
    snap_bytes: u64,
    ingest_ms: f64,
    replayed: u64,
    recovery_ms: f64,
    exact: bool,
}

pub fn run(quick: bool) {
    let n: usize = if quick { 48 } else { 96 };
    let seed = 0xE16;
    let mut rng = StdRng::seed_from_u64(seed);
    let h = Hypergraph::from_graph(&gnm(n, 4 * n, &mut rng));
    let stream = default_stream(&h, &mut rng);
    let m = stream.len();
    // Crash strictly between checkpoints so every row replays a tail.
    let crash_at = m - m / 7 - 1;

    let intervals: &[Option<u64>] = if quick {
        &[Some(64), Some(256), None]
    } else {
        &[Some(64), Some(128), Some(256), Some(512), Some(1024), None]
    };

    // The uninterrupted reference over the durable prefix.
    let mut reference = fresh(n, seed);
    for u in &stream.updates[..crash_at] {
        reference.apply_update(u).expect("reference ingest");
    }
    let reference_bytes = {
        let mut w = Writer::new();
        reference.encode(&mut w);
        w.into_bytes()
    };

    let mut table = Table::new(
        "E16: recovery time vs checkpoint interval (forest sketch)",
        &[
            "interval",
            "snapshots",
            "wal size",
            "snap size",
            "ingest ms",
            "replayed",
            "recovery ms",
            "exact",
        ],
    );

    let base = std::env::temp_dir().join(format!("dgs-e16-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut rows: Vec<RowOut> = Vec::new();
    for (i, &interval) in intervals.iter().enumerate() {
        let wal_dir = base.join(format!("wal-{i}"));
        let snap_dir = base.join(format!("snap-{i}"));
        // One shard flushed after every update: it logs, applies and
        // snapshots at exactly the offsets the interval names.
        let cfg = SupervisorConfig {
            repetitions: 1,
            threads: 1,
            batch_size: 1,
            checkpoint: CheckpointConfig {
                wal: WalConfig {
                    segment_records: 4096,
                    seed,
                },
                snapshot_interval: interval.unwrap_or(u64::MAX),
                snapshot_seed: seed,
            },
            ..SupervisorConfig::default()
        };

        // Ingest under durability, then crash (drop without sealing).
        let t0 = Instant::now();
        let mut ing = SupervisedIngestor::create(
            &wal_dir,
            &snap_dir,
            stream.n,
            stream.max_rank,
            cfg,
            move |_| fresh(n, seed),
        )
        .expect("create ingestor");
        for u in &stream.updates[..crash_at] {
            ing.push(u).expect("ingest");
        }
        let ingest_ms = t0.elapsed().as_secs_f64() * 1e3;
        let store = ing.shard_store(0).clone();
        let snapshots = store.offsets().expect("list snapshots").len();
        drop(ing);

        let wal_bytes = dir_bytes(&wal_dir);
        let snap_bytes = dir_bytes(store.dir());

        // Timed recovery.
        let driver = RecoveryDriver::new(&wal_dir, store);
        let t1 = Instant::now();
        let rec = driver
            .recover::<SpanningForestSketch, _>(|_, _| fresh(n, seed))
            .expect("recovery");
        let recovery_ms = t1.elapsed().as_secs_f64() * 1e3;

        let exact = rec.offset as usize == crash_at && {
            let mut w = Writer::new();
            rec.sketch.encode(&mut w);
            w.into_bytes() == reference_bytes
        };

        let label = match interval {
            Some(k) => k.to_string(),
            None => "wal-only".to_string(),
        };
        table.row(vec![
            label.clone(),
            snapshots.to_string(),
            fmt_bytes(wal_bytes as usize),
            fmt_bytes(snap_bytes as usize),
            format!("{ingest_ms:.1}"),
            rec.replayed.to_string(),
            format!("{recovery_ms:.2}"),
            exact.to_string(),
        ]);
        rows.push(RowOut {
            interval: label,
            interval_updates: interval,
            snapshots,
            wal_bytes,
            snap_bytes,
            ingest_ms,
            replayed: rec.replayed,
            recovery_ms,
            exact,
        });
    }
    let _ = std::fs::remove_dir_all(&base);

    table.note(format!(
        "workload: {m} updates over n = {n}; crash at update {crash_at}; sketch {} encoded",
        fmt_bytes(encoded_len(&reference))
    ));
    table.note("recovery = newest valid snapshot + WAL-tail replay; exact = bit-identical to uninterrupted run");
    table.note("wal-only = no snapshots: recovery degrades to a full-log replay");
    table.print();

    write_baseline(&rows, n, m, crash_at, quick);
}

/// `BENCH_recovery.json` in the shared [`crate::baseline`] schema: a row
/// per snapshot cadence (`pass` = bit-exact recovery), summary `pass` =
/// every cadence recovered exactly.
fn write_baseline(rows: &[RowOut], n: usize, m: usize, crash_at: usize, quick: bool) {
    let mut b = Baseline::new("e16-recovery").config(
        Fields::new()
            .usize("n", n)
            .usize("updates", m)
            .usize("crash_at", crash_at),
    );
    for r in rows {
        b.row(
            Fields::new()
                .opt_u64("interval", r.interval_updates)
                .str("label", &r.interval)
                .usize("snapshots", r.snapshots)
                .u64("wal_bytes", r.wal_bytes)
                .u64("snapshot_bytes", r.snap_bytes)
                .f64("ingest_ms", r.ingest_ms, 3)
                .u64("replayed", r.replayed)
                .f64("recovery_ms", r.recovery_ms, 3)
                .bool("exact", r.exact),
            r.exact,
        );
    }
    let all_exact = rows.iter().all(|r| r.exact);
    b.summary(Fields::new().bool("all_exact", all_exact), all_exact)
        .write("BENCH_recovery.json", quick);
}
