//! Crash-safe checkpointing and recovery for linear sketches.
//!
//! Linearity makes recovery *exact*: a sketch is a linear function of the
//! stream's frequency vector, so (sketch of prefix) + (replay of logged
//! tail) is bit-identical to uninterrupted ingestion. This module pairs the
//! durable update log in [`dgs_hypergraph::wal`] with checksummed sketch
//! snapshots and a recovery ladder that never panics on damaged state:
//!
//! 1. load the **newest valid snapshot** and replay the WAL tail past its
//!    recorded stream offset;
//! 2. if every snapshot is corrupt (bit flips, torn renames), fall back to
//!    a **full-log replay** into a freshly seeded sketch;
//! 3. if the log itself is damaged beyond its torn tail, surface a typed
//!    [`RecoveryError`] — corrupted state is reported, never absorbed.
//!
//! ## Snapshot format
//!
//! `snap-<offset>.ckpt`, written to a temp file and atomically renamed:
//!
//! ```text
//! snapshot = magic "DGSSNAP1" | manifest-frame | sketch payload
//! frame    = [payload_len u32 LE] [fnv1a64(payload) u64 LE] [payload]
//! manifest = seed u64 | stream_offset u64 | payload_len u64 | fnv1a64(payload) u64
//! ```
//!
//! The manifest binds the sketch bytes to the stream position they
//! represent and to the seed namespace the sketch was built under; a
//! snapshot whose manifest or payload fails validation is skipped (counted
//! in [`Recovered::snapshot_defects`]), not trusted.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use dgs_connectivity::{KSkeletonSketch, SpanningForestSketch};
use dgs_field::{Codec, Reader, Writer};
use dgs_hypergraph::fault::fnv1a64;
use dgs_hypergraph::wal::{read_wal, WalConfig, WalError};
use dgs_hypergraph::Update;
use dgs_obs::{Counter, Histogram, MetricsSink};
use dgs_sketch::{SketchError, SketchResult};

use crate::reconstruct::LightRecoverySketch;
use crate::sparsify::HypergraphSparsifier;
use crate::vertex_conn::VertexConnSketch;

/// Leading bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"DGSSNAP1";

/// Largest accepted snapshot payload (256 MiB); anything bigger is treated
/// as a corrupt manifest rather than an allocation request.
const MAX_SNAPSHOT_PAYLOAD: u64 = 1 << 28;

/// A typed recovery failure. Every rung of the recovery ladder reports
/// damage through this enum; nothing in this module panics on bad bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// The write-ahead log failed to read or validate.
    Wal(WalError),
    /// A filesystem operation on the snapshot directory failed.
    Io {
        /// The file or directory involved.
        path: String,
        /// The OS error text.
        detail: String,
    },
    /// Neither a usable snapshot nor any WAL records exist.
    NoState {
        /// The directories that were searched.
        detail: String,
    },
    /// Replaying a logged update into the sketch failed.
    Replay {
        /// Stream offset of the offending update.
        offset: u64,
        /// The sketch's own failure report.
        source: SketchError,
    },
    /// The sketch produced during ingestion rejected an update.
    Sketch(SketchError),
    /// An error on a supervised shard's quarantine→rebuild path, annotated
    /// with the shard id and — when the underlying failure localizes to the
    /// log — the WAL segment and stream offset, so an operator can find the
    /// poisoned shard from the error text alone.
    Shard {
        /// The shard (repetition index) the failure belongs to.
        shard: usize,
        /// WAL segment implicated, when the source error names one.
        segment: Option<u64>,
        /// Stream offset implicated, when the source error names one.
        offset: Option<u64>,
        /// The underlying failure.
        source: Box<RecoveryError>,
    },
}

impl RecoveryError {
    /// Wraps `self` with shard context for the supervision layer, lifting
    /// any WAL segment or stream offset the source error localizes to into
    /// the annotation. Already-annotated errors keep their original shard.
    pub fn in_shard(self, shard: usize) -> RecoveryError {
        if matches!(self, RecoveryError::Shard { .. }) {
            return self;
        }
        let segment = match &self {
            RecoveryError::Wal(WalError::Corrupt { segment, .. }) => Some(*segment),
            _ => None,
        };
        let offset = match &self {
            RecoveryError::Replay { offset, .. } => Some(*offset),
            _ => None,
        };
        RecoveryError::Shard {
            shard,
            segment,
            offset,
            source: Box::new(self),
        }
    }
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Wal(e) => write!(f, "recovery: {e}"),
            RecoveryError::Io { path, detail } => {
                write!(f, "recovery io error on {path}: {detail}")
            }
            RecoveryError::NoState { detail } => {
                write!(f, "nothing to recover: {detail}")
            }
            RecoveryError::Replay { offset, source } => {
                write!(f, "replay failed at stream offset {offset}: {source}")
            }
            RecoveryError::Sketch(e) => write!(f, "sketch rejected update: {e}"),
            RecoveryError::Shard {
                shard,
                segment,
                offset,
                source,
            } => {
                write!(f, "shard {shard}")?;
                if let Some(seg) = segment {
                    write!(f, ", wal segment {seg}")?;
                }
                if let Some(off) = offset {
                    write!(f, ", stream offset {off}")?;
                }
                write!(f, ": {source}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<WalError> for RecoveryError {
    fn from(e: WalError) -> RecoveryError {
        RecoveryError::Wal(e)
    }
}

fn io_err(path: &Path, e: std::io::Error) -> RecoveryError {
    RecoveryError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// A linear sketch: the signed update rule plus binary-persistable state.
///
/// This is the one trait through which boosting ([`crate::BoostedQuery`]),
/// sharded and supervised ingestion, and WAL recovery apply updates. Every
/// update is a signed hyperedge, so a deletion is a negative insertion;
/// weighted deltas stay on each sketch's inherent `try_update`.
pub trait Recoverable: Codec {
    /// Applies one stream update (a deletion is a negative insertion).
    fn apply_update(&mut self, u: &Update) -> SketchResult<()>;

    /// Applies a batch of stream updates, reporting a failure as the index
    /// of the offending update plus its error. Implementations must leave
    /// updates `0..i` applied exactly once and `i..` untouched on
    /// `Err((i, _))`, so WAL replay offsets stay exact.
    fn apply_batch(&mut self, batch: &[Update]) -> Result<(), (usize, SketchError)> {
        for (i, u) in batch.iter().enumerate() {
            self.apply_update(u).map_err(|e| (i, e))?;
        }
        Ok(())
    }
}

macro_rules! recoverable_via_try_update {
    ($($t:ty),* $(,)?) => {$(
        impl Recoverable for $t {
            fn apply_update(&mut self, u: &Update) -> SketchResult<()> {
                self.try_update(&u.edge, u.op.delta())
            }
        }
    )*};
}

recoverable_via_try_update!(
    KSkeletonSketch,
    VertexConnSketch,
    HypergraphSparsifier,
    LightRecoverySketch,
);

impl Recoverable for SpanningForestSketch {
    fn apply_update(&mut self, u: &Update) -> SketchResult<()> {
        self.try_update(&u.edge, u.op.delta())
    }

    fn apply_batch(&mut self, batch: &[Update]) -> Result<(), (usize, SketchError)> {
        apply_batch_atomic(self, batch, Self::try_update_batch)
    }
}

impl Recoverable for crate::HybridConnectivitySketch {
    fn apply_update(&mut self, u: &Update) -> SketchResult<()> {
        self.try_update(&u.edge, u.op.delta())
    }

    fn apply_batch(&mut self, batch: &[Update]) -> Result<(), (usize, SketchError)> {
        apply_batch_atomic(self, batch, Self::try_update_batch)
    }
}

/// [`Recoverable::apply_batch`] for a sketch whose batch `kernel` rejects
/// an invalid batch atomically (the forest and the hybrid validate the
/// whole batch before touching any state): after a failed kernel call the
/// scalar loop locates the offending index while keeping the
/// applied-prefix contract.
fn apply_batch_atomic<S: Recoverable>(
    sketch: &mut S,
    batch: &[Update],
    kernel: impl FnOnce(&mut S, &[(dgs_hypergraph::HyperEdge, i64)]) -> SketchResult<()>,
) -> Result<(), (usize, SketchError)> {
    let pairs: Vec<_> = batch
        .iter()
        .map(|u| (u.edge.clone(), u.op.delta()))
        .collect();
    if kernel(sketch, &pairs).is_ok() {
        return Ok(());
    }
    for (i, u) in batch.iter().enumerate() {
        sketch.apply_update(u).map_err(|e| (i, e))?;
    }
    Ok(())
}

/// Why a particular snapshot file was rejected. Internal to the ladder —
/// rejected snapshots are skipped and counted, not surfaced as errors
/// (unless *no* rung of the ladder succeeds).
#[derive(Debug)]
enum SnapshotDefect {
    Io(std::io::Error),
    Invalid(String),
}

impl SnapshotDefect {
    fn detail(&self) -> String {
        match self {
            SnapshotDefect::Io(e) => format!("io: {e}"),
            SnapshotDefect::Invalid(msg) => msg.clone(),
        }
    }
}

fn snapshot_path(dir: &Path, offset: u64) -> PathBuf {
    dir.join(format!("snap-{offset:012}.ckpt"))
}

/// Metric handles for a snapshot store; null (free) by default.
#[derive(Clone, Debug, Default)]
struct StoreMetrics {
    snapshot_ns: Histogram,
    snapshot_bytes: Counter,
    snapshots_written: Counter,
}

impl StoreMetrics {
    fn resolve(sink: &MetricsSink) -> StoreMetrics {
        StoreMetrics {
            snapshot_ns: sink.histogram("dgs_core_checkpoint_snapshot_ns"),
            snapshot_bytes: sink.counter("dgs_core_checkpoint_snapshot_bytes"),
            snapshots_written: sink.counter("dgs_core_checkpoint_snapshots_written"),
        }
    }
}

/// Writes and enumerates checksummed sketch snapshots in a directory.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    seed: u64,
    metrics: StoreMetrics,
}

impl CheckpointStore {
    /// Opens (creating if needed) a snapshot directory. `seed` is the seed
    /// namespace the checkpointed sketch was built under; it is recorded in
    /// every manifest and verified on load, so a snapshot from a different
    /// seeding can never be replayed into the wrong stream.
    pub fn open(dir: impl Into<PathBuf>, seed: u64) -> Result<CheckpointStore, RecoveryError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(CheckpointStore {
            dir,
            seed,
            metrics: StoreMetrics::default(),
        })
    }

    /// Attach metric handles resolved from `sink`
    /// (`dgs_core_checkpoint_snapshot_*`: save latency histogram, bytes
    /// written, snapshots written). Default is the null sink.
    pub fn set_sink(&mut self, sink: &MetricsSink) {
        self.metrics = StoreMetrics::resolve(sink);
    }

    /// The snapshot directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Atomically writes a snapshot of `sketch` as of stream offset
    /// `offset`: the bytes land in a temp file which is then renamed, so a
    /// crash mid-write leaves either the old state or the new, never a
    /// half-snapshot under the final name.
    pub fn save<T: Codec>(&self, sketch: &T, offset: u64) -> Result<PathBuf, RecoveryError> {
        let timer = self.metrics.snapshot_ns.start_timer();
        let mut w = Writer::new();
        sketch.encode(&mut w);
        let payload = w.into_bytes();

        let mut manifest = Writer::new();
        manifest.put_u64(self.seed);
        manifest.put_u64(offset);
        manifest.put_u64(payload.len() as u64);
        manifest.put_u64(fnv1a64(&payload));
        let manifest = manifest.into_bytes();

        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        let mut frame = Writer::new();
        frame.put_u32(manifest.len() as u32);
        frame.put_u64(fnv1a64(&manifest));
        frame.put_bytes(&manifest);
        bytes.extend_from_slice(&frame.into_bytes());
        bytes.extend_from_slice(&payload);

        let path = snapshot_path(&self.dir, offset);
        let tmp = self.dir.join(format!("snap-{offset:012}.tmp"));
        {
            let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
            f.write_all(&bytes).map_err(|e| io_err(&tmp, e))?;
            f.sync_all().map_err(|e| io_err(&tmp, e))?;
        }
        fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        self.metrics.snapshot_bytes.add(bytes.len() as u64);
        self.metrics.snapshots_written.inc();
        timer.observe();
        Ok(path)
    }

    /// Snapshot offsets present in the directory, ascending. Unparseable
    /// file names (including leftover `.tmp` files) are ignored.
    pub fn offsets(&self) -> Result<Vec<u64>, RecoveryError> {
        let mut out = Vec::new();
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(ref e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(io_err(&self.dir, e)),
        };
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(off) = name
                .strip_prefix("snap-")
                .and_then(|s| s.strip_suffix(".ckpt"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                out.push(off);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Deletes every snapshot at an offset strictly greater than `cap`,
    /// returning the purged offsets. A resumed pipeline calls this after a
    /// torn WAL tail is sealed: snapshots past the durable log represent a
    /// *different* history than the one the log will now re-record, and
    /// must not become reachable again as the offset re-advances.
    pub fn purge_after(&self, cap: u64) -> Result<Vec<u64>, RecoveryError> {
        let mut purged = Vec::new();
        for off in self.offsets()? {
            if off > cap {
                let path = snapshot_path(&self.dir, off);
                fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
                purged.push(off);
            }
        }
        Ok(purged)
    }

    /// Loads and fully validates the snapshot at `offset`: magic, manifest
    /// checksum, seed, recorded offset, payload length and checksum, and a
    /// complete decode with no trailing bytes.
    fn load<T: Codec>(&self, offset: u64) -> Result<T, SnapshotDefect> {
        let path = snapshot_path(&self.dir, offset);
        let bytes = fs::read(&path).map_err(SnapshotDefect::Io)?;
        let bad = |msg: String| SnapshotDefect::Invalid(msg);
        if bytes.len() < SNAPSHOT_MAGIC.len() || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(bad("bad snapshot magic".into()));
        }
        let rest = &bytes[SNAPSHOT_MAGIC.len()..];
        if rest.len() < 12 {
            return Err(bad("truncated manifest frame".into()));
        }
        let mlen = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let msum_bytes: [u8; 8] = match rest[4..12].try_into() {
            Ok(b) => b,
            Err(_) => return Err(bad("truncated manifest frame".into())),
        };
        let msum = u64::from_le_bytes(msum_bytes);
        let manifest = rest
            .get(12..12 + mlen)
            .ok_or_else(|| bad("manifest extends past file".into()))?;
        if fnv1a64(manifest) != msum {
            return Err(bad("manifest checksum mismatch".into()));
        }
        let mut r = Reader::new(manifest);
        let parse = |e: dgs_field::CodecError| bad(format!("manifest: {e}"));
        let seed = r.get_u64().map_err(parse)?;
        let recorded = r.get_u64().map_err(parse)?;
        let plen = r.get_u64().map_err(parse)?;
        let psum = r.get_u64().map_err(parse)?;
        r.expect_end().map_err(parse)?;
        if seed != self.seed {
            return Err(bad(format!(
                "snapshot seed {seed:#x} does not match store seed {:#x}",
                self.seed
            )));
        }
        if recorded != offset {
            return Err(bad(format!(
                "manifest records offset {recorded}, file name says {offset}"
            )));
        }
        if plen > MAX_SNAPSHOT_PAYLOAD {
            return Err(bad(format!("payload length {plen} exceeds bound")));
        }
        let payload = &rest[12 + mlen..];
        if payload.len() as u64 != plen {
            return Err(bad(format!(
                "payload is {} bytes, manifest declares {plen}",
                payload.len()
            )));
        }
        if fnv1a64(payload) != psum {
            return Err(bad("payload checksum mismatch".into()));
        }
        let mut r = Reader::new(payload);
        let sketch = T::decode(&mut r).map_err(|e| bad(format!("payload: {e}")))?;
        r.expect_end().map_err(|e| bad(format!("payload: {e}")))?;
        Ok(sketch)
    }
}

/// The outcome of a successful recovery.
#[derive(Debug)]
pub struct Recovered<T> {
    /// The recovered sketch, identical to one that ingested the first
    /// [`offset`](Self::offset) durable updates without interruption.
    pub sketch: T,
    /// Stream offset the sketch represents (number of updates absorbed).
    pub offset: u64,
    /// Offset of the snapshot the ladder started from, if any.
    pub from_snapshot: Option<u64>,
    /// Why each rejected snapshot was skipped, newest first (empty when
    /// the newest snapshot validated).
    pub snapshot_defects: Vec<String>,
    /// Crash-debris bytes the WAL scan dropped from its torn tail.
    pub wal_torn_bytes: u64,
    /// WAL records replayed on top of the starting point.
    pub replayed: u64,
}

/// Metric handles for the recovery ladder; null (free) by default.
#[derive(Clone, Debug, Default)]
struct RecoveryMetrics {
    recover_ns: Histogram,
    replayed_records: Counter,
    snapshots_skipped: Counter,
    wal_torn_bytes: Counter,
}

impl RecoveryMetrics {
    fn resolve(sink: &MetricsSink) -> RecoveryMetrics {
        RecoveryMetrics {
            recover_ns: sink.histogram("dgs_core_checkpoint_recover_ns"),
            replayed_records: sink.counter("dgs_core_checkpoint_replayed_records"),
            snapshots_skipped: sink.counter("dgs_core_checkpoint_snapshots_skipped"),
            wal_torn_bytes: sink.counter("dgs_core_checkpoint_wal_torn_bytes"),
        }
    }
}

/// Drives the recovery ladder over a WAL directory and a snapshot store.
#[derive(Clone, Debug)]
pub struct RecoveryDriver {
    wal_dir: PathBuf,
    store: CheckpointStore,
    metrics: RecoveryMetrics,
}

impl RecoveryDriver {
    /// A driver reading the log at `wal_dir` and snapshots in `store`.
    pub fn new(wal_dir: impl Into<PathBuf>, store: CheckpointStore) -> RecoveryDriver {
        RecoveryDriver {
            wal_dir: wal_dir.into(),
            store,
            metrics: RecoveryMetrics::default(),
        }
    }

    /// Attach metric handles resolved from `sink`
    /// (`dgs_core_checkpoint_recover_*`: ladder latency, records replayed,
    /// snapshots rejected, torn WAL bytes dropped). Default is the null sink.
    pub fn set_sink(&mut self, sink: &MetricsSink) {
        self.metrics = RecoveryMetrics::resolve(sink);
    }

    /// Recovers a sketch: newest valid snapshot + WAL-tail replay, falling
    /// back to a full-log replay into `fresh(n, max_rank)` when every
    /// snapshot is damaged. `fresh` must rebuild the sketch exactly as the
    /// original ingestion constructed it (same parameters and seeds) —
    /// linearity then guarantees the recovered sketch is bit-identical to
    /// uninterrupted ingestion of the durable prefix.
    pub fn recover<T, F>(&self, fresh: F) -> Result<Recovered<T>, RecoveryError>
    where
        T: Recoverable,
        F: FnOnce(usize, usize) -> T,
    {
        self.recover_capped(None, fresh)
    }

    /// [`recover`](Self::recover) restricted to snapshots at offset
    /// `<= cap`. Resuming *ingestion* needs this: the continued WAL starts
    /// at the durable log's length, so a snapshot ahead of the log (its
    /// tail frames torn away after the snapshot was taken) would leave the
    /// sketch ahead of the writer. The supervision layer
    /// (`dgs_core::supervise`) uses it to rebuild a quarantined shard to
    /// exactly the ensemble's current offset. Read-only recovery passes
    /// `None` and keeps the most-advanced state available.
    pub fn recover_capped<T, F>(
        &self,
        cap: Option<u64>,
        fresh: F,
    ) -> Result<Recovered<T>, RecoveryError>
    where
        T: Recoverable,
        F: FnOnce(usize, usize) -> T,
    {
        let timer = self.metrics.recover_ns.start_timer();
        let out = self.recover_capped_inner(cap, fresh);
        if let Ok(rec) = &out {
            self.metrics.replayed_records.add(rec.replayed);
            self.metrics
                .snapshots_skipped
                .add(rec.snapshot_defects.len() as u64);
            self.metrics.wal_torn_bytes.add(rec.wal_torn_bytes);
        }
        timer.observe();
        out
    }

    fn recover_capped_inner<T, F>(
        &self,
        cap: Option<u64>,
        fresh: F,
    ) -> Result<Recovered<T>, RecoveryError>
    where
        T: Recoverable,
        F: FnOnce(usize, usize) -> T,
    {
        let offsets = self.store.offsets()?;
        let wal = match read_wal(&self.wal_dir) {
            Ok(replay) => Some(replay),
            Err(WalError::Empty { .. }) => None,
            Err(e) => return Err(e.into()),
        };
        let mut defects: Vec<String> = Vec::new();
        for &snap_offset in offsets.iter().rev() {
            if let Some(c) = cap {
                if snap_offset > c {
                    defects.push(format!(
                        "snapshot {snap_offset}: ahead of the durable log (cap {c})"
                    ));
                    continue;
                }
            }
            let sketch = match self.store.load::<T>(snap_offset) {
                Ok(s) => s,
                Err(defect) => {
                    defects.push(format!("snapshot {snap_offset}: {}", defect.detail()));
                    continue;
                }
            };
            // A snapshot ahead of the durable log is still authoritative at
            // its own offset: the records it absorbed were durable when it
            // was written, even if their WAL frames were later torn away.
            // The replayed tail itself is also capped: mid-flush the log
            // already holds records the ensemble has not applied yet, and a
            // capped rebuild must stop exactly at the applied offset.
            let (tail, replayed): (&[Update], u64) = match &wal {
                Some(replay) if (replay.updates.len() as u64) > snap_offset => {
                    let end = cap.map_or(replay.updates.len(), |c| {
                        replay.updates.len().min(c as usize)
                    });
                    let tail = &replay.updates[snap_offset as usize..end];
                    (tail, tail.len() as u64)
                }
                _ => (&[], 0),
            };
            let mut sketch = sketch;
            replay_into(&mut sketch, tail, snap_offset)?;
            return Ok(Recovered {
                sketch,
                offset: snap_offset + replayed,
                from_snapshot: Some(snap_offset),
                snapshot_defects: defects,
                wal_torn_bytes: wal.as_ref().map_or(0, |r| r.torn_bytes_dropped),
                replayed,
            });
        }
        // No usable snapshot: full-log replay into a fresh sketch.
        let Some(replay) = wal else {
            return Err(RecoveryError::NoState {
                detail: format!(
                    "no valid snapshot in {} ({} rejected) and no wal segments in {}",
                    self.store.dir().display(),
                    defects.len(),
                    self.wal_dir.display()
                ),
            });
        };
        let mut sketch = fresh(replay.n, replay.max_rank);
        let end = cap.map_or(replay.updates.len(), |c| {
            replay.updates.len().min(c as usize)
        });
        replay_into(&mut sketch, &replay.updates[..end], 0)?;
        Ok(Recovered {
            offset: end as u64,
            replayed: end as u64,
            sketch,
            from_snapshot: None,
            snapshot_defects: defects,
            wal_torn_bytes: replay.torn_bytes_dropped,
        })
    }
}

/// WAL replay batch granularity: large enough to amortize the batched
/// kernels' per-batch planning work, small enough to keep scratch buffers
/// cache-resident.
const REPLAY_CHUNK: usize = 256;

fn replay_into<T: Recoverable>(
    sketch: &mut T,
    tail: &[Update],
    base_offset: u64,
) -> Result<(), RecoveryError> {
    for (c, chunk) in tail.chunks(REPLAY_CHUNK).enumerate() {
        sketch
            .apply_batch(chunk)
            .map_err(|(i, source)| RecoveryError::Replay {
                offset: base_offset + (c * REPLAY_CHUNK + i) as u64,
                source,
            })?;
    }
    Ok(())
}

/// Durability policy for [`crate::supervise::SupervisedIngestor`].
#[derive(Clone, Copy, Debug)]
pub struct CheckpointConfig {
    /// Write-ahead-log segmentation and fingerprint seed.
    pub wal: WalConfig,
    /// Updates between snapshots. Larger intervals mean cheaper steady
    /// state and a longer replay tail after a crash — experiment E16
    /// measures the trade-off.
    pub snapshot_interval: u64,
    /// Seed namespace recorded in snapshot manifests (the sketch's seed).
    pub snapshot_seed: u64,
}

impl Default for CheckpointConfig {
    fn default() -> CheckpointConfig {
        CheckpointConfig {
            wal: WalConfig::default(),
            snapshot_interval: 1 << 14,
            snapshot_seed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::supervise::{SupervisedIngestor, SupervisorConfig};
    use dgs_connectivity::forest::ForestParams;
    use dgs_field::SeedTree;
    use dgs_hypergraph::{EdgeSpace, HyperEdge};
    use dgs_sketch::Profile;

    fn tmpdir(label: &str) -> PathBuf {
        static UNIQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dgs-ckpt-{label}-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn forest(n: usize) -> SpanningForestSketch {
        let space = EdgeSpace::new(n, 2).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        SpanningForestSketch::new_full(space, &SeedTree::new(99), params)
    }

    fn path_updates(n: usize) -> Vec<Update> {
        (0..n as u32 - 1)
            .map(|i| Update::insert(HyperEdge::pair(i, i + 1)))
            .collect()
    }

    /// One shard flushed after every update: it logs, applies and
    /// snapshots at the same offsets as a single sketch behind the WAL.
    fn one_shard(snapshot_interval: u64) -> SupervisorConfig {
        SupervisorConfig {
            repetitions: 1,
            threads: 1,
            batch_size: 1,
            checkpoint: CheckpointConfig {
                snapshot_interval,
                ..CheckpointConfig::default()
            },
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn snapshot_round_trips_through_store() {
        let dir = tmpdir("roundtrip");
        let store = CheckpointStore::open(&dir, 7).unwrap();
        let mut sk = forest(12);
        for u in path_updates(12) {
            sk.apply_update(&u).unwrap();
        }
        store.save(&sk, 11).unwrap();
        assert_eq!(store.offsets().unwrap(), vec![11]);
        let back: SpanningForestSketch = store.load(11).unwrap();
        let mut w1 = Writer::new();
        sk.encode(&mut w1);
        let mut w2 = Writer::new();
        back.encode(&mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seed_mismatch_rejects_snapshot() {
        let dir = tmpdir("seed");
        let store = CheckpointStore::open(&dir, 7).unwrap();
        store.save(&forest(8), 0).unwrap();
        let other = CheckpointStore::open(&dir, 8).unwrap();
        assert!(matches!(
            other.load::<SpanningForestSketch>(0),
            Err(SnapshotDefect::Invalid(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_prefers_newest_snapshot_and_replays_tail() {
        let wal_dir = tmpdir("ladder-wal");
        let snap_dir = tmpdir("ladder-snap");
        let updates = path_updates(20);
        let mut ing =
            SupervisedIngestor::create(&wal_dir, &snap_dir, 20, 2, one_shard(6), |_| forest(20))
                .unwrap();
        for u in &updates {
            ing.push(u).unwrap();
        }
        let store = ing.shard_store(0).clone();
        assert_eq!(store.offsets().unwrap(), vec![6, 12, 18]);
        drop(ing); // crash

        let driver = RecoveryDriver::new(&wal_dir, store);
        let rec: Recovered<SpanningForestSketch> = driver.recover(|_, _| forest(20)).unwrap();
        assert_eq!(rec.offset, 19);
        assert_eq!(rec.from_snapshot, Some(18));
        assert_eq!(rec.replayed, 1);
        assert!(rec.snapshot_defects.is_empty());
        // Exactness: identical bytes to an uninterrupted run.
        let mut reference = forest(20);
        for u in &updates {
            reference.apply_update(u).unwrap();
        }
        let mut w1 = Writer::new();
        rec.sketch.encode(&mut w1);
        let mut w2 = Writer::new();
        reference.encode(&mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
        fs::remove_dir_all(&wal_dir).unwrap();
        fs::remove_dir_all(&snap_dir).unwrap();
    }

    #[test]
    fn corrupt_snapshots_fall_back_to_full_replay() {
        let wal_dir = tmpdir("fallback-wal");
        let snap_dir = tmpdir("fallback-snap");
        let updates = path_updates(16);
        let mut ing =
            SupervisedIngestor::create(&wal_dir, &snap_dir, 16, 2, one_shard(5), |_| forest(16))
                .unwrap();
        for u in &updates {
            ing.push(u).unwrap();
        }
        let store = ing.shard_store(0).clone();
        drop(ing);
        // Flip a byte in every snapshot.
        for off in store.offsets().unwrap() {
            let p = snapshot_path(store.dir(), off);
            let mut b = fs::read(&p).unwrap();
            let mid = b.len() / 2;
            b[mid] ^= 0xFF;
            fs::write(&p, b).unwrap();
        }
        let driver = RecoveryDriver::new(&wal_dir, store);
        let rec: Recovered<SpanningForestSketch> = driver.recover(|_, _| forest(16)).unwrap();
        assert_eq!(rec.from_snapshot, None);
        assert_eq!(rec.snapshot_defects.len(), 3);
        assert_eq!(rec.offset, 15);
        assert_eq!(
            rec.sketch.try_component_count().unwrap(),
            1,
            "path graph fully recovered"
        );
        fs::remove_dir_all(&wal_dir).unwrap();
        fs::remove_dir_all(&snap_dir).unwrap();
    }

    #[test]
    fn nothing_on_disk_is_a_typed_error() {
        let wal_dir = tmpdir("empty-wal");
        let snap_dir = tmpdir("empty-snap");
        let store = CheckpointStore::open(&snap_dir, 0).unwrap();
        let driver = RecoveryDriver::new(&wal_dir, store);
        match driver.recover::<SpanningForestSketch, _>(|_, _| forest(4)) {
            Err(RecoveryError::NoState { .. }) => {}
            other => panic!("expected NoState, got {other:?}"),
        }
        fs::remove_dir_all(&snap_dir).unwrap();
    }

    #[test]
    fn resume_continues_ingestion_after_crash() {
        let wal_dir = tmpdir("resume-wal");
        let snap_dir = tmpdir("resume-snap");
        let updates = path_updates(30);
        let mut ing =
            SupervisedIngestor::create(&wal_dir, &snap_dir, 30, 2, one_shard(8), |_| forest(30))
                .unwrap();
        for u in &updates[..17] {
            ing.push(u).unwrap();
        }
        drop(ing); // crash mid-stream

        let (mut ing, offset) =
            SupervisedIngestor::resume(&wal_dir, &snap_dir, 30, 2, one_shard(8), |_| forest(30))
                .unwrap();
        assert_eq!(offset, 17);
        for u in &updates[17..] {
            ing.push(u).unwrap();
        }
        let mut reference = forest(30);
        for u in &updates {
            reference.apply_update(u).unwrap();
        }
        let boosted = ing.finish().unwrap();
        assert_eq!(
            boosted.sketches()[0].try_component_count().unwrap(),
            reference.try_component_count().unwrap()
        );
        fs::remove_dir_all(&wal_dir).unwrap();
        fs::remove_dir_all(&snap_dir).unwrap();
    }

    /// Regression: a cap must bound the *replayed tail*, not just snapshot
    /// selection. The supervision layer rebuilds quarantined shards while
    /// the WAL is already ahead of the ensemble's applied offset (mid-flush
    /// the log holds the buffered batch); replaying past the cap left the
    /// rebuilt shard ahead of its siblings and every mid-stream rebuild
    /// failing its offset check.
    #[test]
    fn capped_recovery_stops_at_the_cap_even_when_the_log_is_ahead() {
        let wal_dir = tmpdir("cap-wal");
        let snap_dir = tmpdir("cap-snap");
        let updates = path_updates(30); // 29 records
        let mut ing =
            SupervisedIngestor::create(&wal_dir, &snap_dir, 30, 2, one_shard(8), |_| forest(30))
                .unwrap();
        for u in &updates {
            ing.push(u).unwrap();
        }
        let store = ing.shard_store(0).clone();
        drop(ing); // all 29 records are in the log; snapshots at 8/16/24

        let encoded = |s: &SpanningForestSketch| {
            let mut w = Writer::new();
            s.encode(&mut w);
            w.into_bytes()
        };
        let driver = RecoveryDriver::new(&wal_dir, store);
        for cap in [0u64, 5, 8, 20, 29] {
            let rec: Recovered<SpanningForestSketch> =
                driver.recover_capped(Some(cap), |_, _| forest(30)).unwrap();
            assert_eq!(rec.offset, cap, "offset must stop exactly at the cap");
            let mut reference = forest(30);
            for u in &updates[..cap as usize] {
                reference.apply_update(u).unwrap();
            }
            assert_eq!(
                encoded(&rec.sketch),
                encoded(&reference),
                "cap {cap}: capped recovery must be bit-identical to the capped prefix"
            );
        }
        fs::remove_dir_all(&wal_dir).unwrap();
        fs::remove_dir_all(&snap_dir).unwrap();
    }
}
