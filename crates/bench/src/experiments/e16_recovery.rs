//! E16 — crash recovery: recovery time vs checkpoint interval.
//!
//! The durability subsystem (dgs-hypergraph `wal` + dgs-core `checkpoint`)
//! trades steady-state cost against recovery latency: frequent snapshots
//! shorten the WAL tail a crash forces recovery to replay, at the price of
//! writing the sketch more often. Because sketches are linear, recovery is
//! *exact* — this experiment verifies bit-identity against an uninterrupted
//! run in every row while measuring the trade-off, and writes the machine-
//! readable baseline `BENCH_recovery.json` that the CI bench-smoke job
//! (`experiments check-recovery`) guards. Recovery reads the log only from
//! the snapshot it starts at: each row also counts the WAL segments it read
//! end to end, which must cover the replayed tail and nothing behind it.

use std::time::Instant;

use dgs_connectivity::SpanningForestSketch;
use dgs_core::checkpoint::{CheckpointConfig, Recoverable, RecoveryDriver};
use dgs_core::supervise::{SupervisedIngestor, SupervisorConfig};
use dgs_field::prng::*;
use dgs_field::{Codec, SeedTree, Writer};
use dgs_hypergraph::generators::gnm;
use dgs_hypergraph::wal::WalConfig;
use dgs_hypergraph::{EdgeSpace, Hypergraph};

use crate::baseline::{Baseline, Fields, Verdicts};
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

/// WAL segment size of every row: small, so the log spans many segments
/// and the segments a recovery reads show whether it read only its tail.
pub const SEGMENT_RECORDS: u64 = 64;

pub struct RowOut {
    pub interval: String,
    pub interval_updates: Option<u64>,
    pub snapshots: usize,
    /// Offset of the newest snapshot on disk at the crash, if any.
    pub newest_snapshot: Option<u64>,
    pub wal_bytes: u64,
    pub snap_bytes: u64,
    pub ingest_ms: f64,
    pub replayed: u64,
    pub wal_segments_read: usize,
    pub recovery_ms: f64,
    pub exact: bool,
}

pub struct Measurement {
    pub n: usize,
    pub updates: usize,
    pub crash_at: usize,
    pub sketch_bytes: usize,
    pub rows: Vec<RowOut>,
}

/// The acceptance verdicts: every row recovers bit-identically, replays
/// exactly the records past its newest snapshot, and reads end to end only
/// the WAL segments holding them (plus the final one).
pub fn verdicts(m: &Measurement) -> Verdicts {
    m.rows.iter().fold(Verdicts::new(), |v, r| {
        let label = &r.interval;
        let since = (m.crash_at as u64).saturating_sub(r.newest_snapshot.unwrap_or(0));
        let v = v.check(format!("{label} exact"), r.exact).equal(
            &format!("{label} replayed"),
            r.replayed,
            "crash offset minus snapshot offset",
            since,
        );
        match r.newest_snapshot {
            Some(_) => {
                let bound = r.replayed.div_ceil(SEGMENT_RECORDS) as usize + 1;
                v.check(
                    format!(
                        "{label} wal_segments_read {} <= ceil(replayed / {SEGMENT_RECORDS}) + 1 = {bound}",
                        r.wal_segments_read
                    ),
                    r.wal_segments_read <= bound,
                )
            }
            None => v,
        }
    })
}

/// Runs the interval sweep. Separated from [`run`] so the CI guard
/// (`check-recovery`) can re-measure without printing tables.
pub fn measure(quick: bool) -> Measurement {
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
                    segment_records: SEGMENT_RECORDS,
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
        let offsets = store.offsets().expect("list snapshots");
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

        rows.push(RowOut {
            interval: match interval {
                Some(k) => k.to_string(),
                None => "wal-only".to_string(),
            },
            interval_updates: interval,
            snapshots: offsets.len(),
            newest_snapshot: offsets.last().copied(),
            wal_bytes,
            snap_bytes,
            ingest_ms,
            replayed: rec.replayed,
            wal_segments_read: rec.wal_segments_read,
            recovery_ms,
            exact,
        });
    }
    let _ = std::fs::remove_dir_all(&base);
    Measurement {
        n,
        updates: m,
        crash_at,
        sketch_bytes: encoded_len(&reference),
        rows,
    }
}

pub fn run(quick: bool) {
    let meas = measure(quick);
    let mut table = Table::new(
        "E16: recovery time vs checkpoint interval (forest sketch)",
        &[
            "interval",
            "snapshots",
            "wal size",
            "snap size",
            "ingest ms",
            "replayed",
            "segs read",
            "recovery ms",
            "exact",
        ],
    );
    for r in &meas.rows {
        table.row(vec![
            r.interval.clone(),
            r.snapshots.to_string(),
            fmt_bytes(r.wal_bytes as usize),
            fmt_bytes(r.snap_bytes as usize),
            format!("{:.1}", r.ingest_ms),
            r.replayed.to_string(),
            r.wal_segments_read.to_string(),
            format!("{:.2}", r.recovery_ms),
            r.exact.to_string(),
        ]);
    }
    table.note(format!(
        "workload: {} updates over n = {}; crash at update {}; sketch {} encoded; \
         {SEGMENT_RECORDS}-record WAL segments",
        meas.updates,
        meas.n,
        meas.crash_at,
        fmt_bytes(meas.sketch_bytes)
    ));
    table.note("recovery = newest valid snapshot + WAL-tail replay; exact = bit-identical to uninterrupted run");
    table.note("segs read = WAL segments read end to end: the tail past the snapshot, never the log behind it");
    table.note("wal-only = no snapshots: recovery degrades to a full-log replay");
    let verdicts = verdicts(&meas);
    table.note(format!("acceptance: {}", verdicts.outcome()));
    table.print();
    write_baseline(&meas, verdicts.pass(), quick);
}

/// `BENCH_recovery.json` in the shared [`crate::baseline`] schema: a row
/// per snapshot cadence (`pass` = bit-exact recovery), summary `pass` =
/// every verdict held.
fn write_baseline(meas: &Measurement, pass: bool, quick: bool) {
    let mut b = Baseline::new("e16-recovery").config(
        Fields::new()
            .usize("n", meas.n)
            .usize("updates", meas.updates)
            .usize("crash_at", meas.crash_at)
            .u64("segment_records", SEGMENT_RECORDS),
    );
    for r in &meas.rows {
        b.row(
            Fields::new()
                .opt_u64("interval", r.interval_updates)
                .str("label", &r.interval)
                .usize("snapshots", r.snapshots)
                .u64("wal_bytes", r.wal_bytes)
                .u64("snapshot_bytes", r.snap_bytes)
                .f64("ingest_ms", r.ingest_ms, 3)
                .u64("replayed", r.replayed)
                .usize("wal_segments_read", r.wal_segments_read)
                .f64("recovery_ms", r.recovery_ms, 3)
                .bool("exact", r.exact),
            r.exact,
        );
    }
    let all_exact = meas.rows.iter().all(|r| r.exact);
    b.summary(Fields::new().bool("all_exact", all_exact), pass)
        .write("BENCH_recovery.json", quick);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{guard, passing_baseline};

    fn row(label: &str, newest_snapshot: Option<u64>, replayed: u64, segments: usize) -> RowOut {
        RowOut {
            interval: label.to_string(),
            interval_updates: newest_snapshot.map(|_| 64),
            snapshots: usize::from(newest_snapshot.is_some()),
            newest_snapshot,
            wal_bytes: 0,
            snap_bytes: 0,
            ingest_ms: 0.0,
            replayed,
            wal_segments_read: segments,
            recovery_ms: 0.0,
            exact: true,
        }
    }

    /// A snapshot row that reads the log behind its snapshot fails the
    /// guard, and so does one that replays from an older snapshot.
    #[test]
    fn guard_enforces_tail_only_recovery() {
        let m = |rows| Measurement {
            n: 48,
            updates: 480,
            crash_at: 411,
            sketch_bytes: 0,
            rows,
        };
        let path = passing_baseline("e16");
        let path = path.to_str().unwrap();
        let good = || {
            m(vec![
                row("64", Some(384), 27, 2),
                row("wal-only", None, 411, 7),
            ])
        };
        assert!(guard("check-recovery", path, || verdicts(&good())));
        for bad in [
            m(vec![row("64", Some(384), 27, 7)]),
            m(vec![row("64", Some(384), 91, 3)]),
            m(vec![row("wal-only", None, 27, 1)]),
        ] {
            assert!(!guard("check-recovery", path, || verdicts(&bad)));
        }
        let _ = std::fs::remove_file(path);
    }
}
