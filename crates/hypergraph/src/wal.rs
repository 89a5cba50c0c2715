//! A segmented, checksum-framed write-ahead log for dynamic-stream updates.
//!
//! Linear sketches make crash recovery *exact*: the sketch of a stream
//! prefix plus a replay of the logged tail is bit-identical to uninterrupted
//! ingestion. This module provides the durable half of that equation — an
//! append-only log of [`Update`] records that survives process death and
//! detects (never silently absorbs) on-disk corruption.
//!
//! ## On-disk format
//!
//! The log is a directory of segment files `seg-<index>.wal`:
//!
//! ```text
//! segment  = magic "DGSWAL1\n" | header-frame | record-frame* | trailer-frame?
//! frame    = [payload_len u32 LE] [fnv1a64(payload) u64 LE] [payload]
//! header   = tag 2 | n u64 | max_rank u64 | base_offset u64 | z u64
//! record   = tag 0 | Update (op u8, cardinality u32, vertex u32 ...)
//! trailer  = tag 1 | record_count u64 | fingerprint u64
//! ```
//!
//! Every frame carries its own FNV-1a checksum (the same framing the lossy
//! channel in [`crate::fault`] uses), so torn writes and bit flips are
//! *detected*. A sealed segment additionally ends with a polynomial
//! fingerprint trailer `F = Σ_i fnv(record_i) · z^i  (mod 2^61 − 1)` over
//! its records (the [`dgs_field::Fingerprinter`] construction), which
//! catches whole-frame substitutions and reorderings that per-frame
//! checksums cannot.
//!
//! ## Failure semantics
//!
//! * A torn tail — a partial final frame, a checksum mismatch, or trailing
//!   garbage in the **last** segment — is expected after a crash:
//!   [`read_wal`] truncates to the last valid frame and reports the dropped
//!   byte count in [`WalReplay::torn_bytes_dropped`]. Never a panic.
//! * Any corruption in a **sealed** (non-final) segment that a read
//!   validates is not a crash artifact and surfaces as
//!   [`WalError::Corrupt`]. A full read ([`read_wal`]) validates every
//!   segment end to end.
//! * A tail read ([`read_wal_from`]) validates end to end only the segments
//!   holding records at or past its `from` offset. A segment wholly before
//!   `from` is read no further than its header frame, so damage in its
//!   record region waits for the next full read to be found.
//! * [`WalWriter::resume`] reopens an existing log after a crash: it
//!   physically truncates the torn tail, seals the final segment with a
//!   recomputed fingerprint trailer, and continues in a fresh segment. It
//!   reads only the final segment end to end, as a tail read from the
//!   durable end does.

use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use dgs_field::{Codec, Fingerprinter, Fp, Reader, SeedTree, Writer};
use dgs_obs::{Counter, Histogram, MetricsSink};

use crate::fault::fnv1a64;
use crate::stream::{Update, UpdateStream};

/// Leading bytes of every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"DGSWAL1\n";

/// Largest accepted frame payload; anything bigger is corruption.
const MAX_FRAME_PAYLOAD: u32 = 1 << 24;

const TAG_RECORD: u8 = 0;
const TAG_TRAILER: u8 = 1;
const TAG_HEADER: u8 = 2;

/// Frame prefix: payload length `u32` plus checksum `u64`.
const FRAME_PREFIX: usize = 12;

/// Magic plus header frame (tag and four `u64` fields): the bytes a tail
/// read takes from a segment it skips.
const HEADER_BYTES: usize = SEGMENT_MAGIC.len() + FRAME_PREFIX + 33;

/// A typed write-ahead-log failure. Corrupt bytes are reported, never
/// panicked on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io {
        /// The file or directory involved.
        path: String,
        /// The OS error text.
        detail: String,
    },
    /// A sealed portion of the log is damaged (bad magic, failed checksum
    /// or fingerprint, missing segment, inconsistent offsets).
    Corrupt {
        /// Segment index where the damage was found.
        segment: u64,
        /// What failed to validate.
        detail: String,
    },
    /// The directory contains no segments to read.
    Empty {
        /// The directory that was scanned.
        dir: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { path, detail } => write!(f, "wal io error on {path}: {detail}"),
            WalError::Corrupt { segment, detail } => {
                write!(f, "wal segment {segment} corrupt: {detail}")
            }
            WalError::Empty { dir } => write!(f, "wal directory {dir} has no segments"),
        }
    }
}

impl std::error::Error for WalError {}

fn io_err(path: &Path, e: std::io::Error) -> WalError {
    WalError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// Per-call writer configuration.
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Records per segment before sealing and rotating.
    pub segment_records: u64,
    /// Seed for the per-segment fingerprint points.
    pub seed: u64,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            segment_records: 4096,
            seed: 0x57A1_0001,
        }
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:08}.wal"))
}

/// Frames a payload: `[len u32][fnv1a64 u64][payload]`.
fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(payload.len() as u32);
    w.put_u64(fnv1a64(payload));
    w.put_bytes(payload);
    w.into_bytes()
}

/// Metric handles for a WAL writer; null (free) by default.
#[derive(Clone, Debug, Default)]
struct WalMetrics {
    append_ns: Histogram,
    append_bytes: Counter,
    sync_ns: Histogram,
    segments_sealed: Counter,
}

impl WalMetrics {
    fn resolve(sink: &MetricsSink) -> WalMetrics {
        WalMetrics {
            append_ns: sink.histogram("dgs_hypergraph_wal_append_ns"),
            append_bytes: sink.counter("dgs_hypergraph_wal_append_bytes"),
            sync_ns: sink.histogram("dgs_hypergraph_wal_sync_ns"),
            segments_sealed: sink.counter("dgs_hypergraph_wal_segments_sealed"),
        }
    }
}

/// An append-only writer over a segment directory.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    n: usize,
    max_rank: usize,
    cfg: WalConfig,
    file: fs::File,
    seg_index: u64,
    seg_count: u64,
    fper: Fingerprinter,
    fp_acc: Fp,
    zpow: Fp,
    offset: u64,
    metrics: WalMetrics,
}

impl WalWriter {
    /// Creates a fresh log for a stream over `n` vertices with rank bound
    /// `max_rank`. The directory is created if absent and must not already
    /// contain segments.
    pub fn create(
        dir: impl Into<PathBuf>,
        n: usize,
        max_rank: usize,
        cfg: WalConfig,
    ) -> Result<WalWriter, WalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        if !list_segments(&dir)?.is_empty() {
            return Err(WalError::Io {
                path: dir.display().to_string(),
                detail: "directory already contains wal segments (use resume)".into(),
            });
        }
        assert!(cfg.segment_records >= 1, "segments must hold records");
        Self::open_segment(dir, n, max_rank, cfg, 0, 0)
    }

    /// Reopens an existing log after a crash: physically truncates any torn
    /// tail, seals the final segment, and continues in a fresh segment.
    /// Returns the writer positioned after the last durable record, so
    /// [`WalWriter::offset`] is the durable end. Only the final segment
    /// (and the one before it when the final header never hit the disk) is
    /// read end to end; earlier segments are read no further than their
    /// headers, and [`read_wal`] validates them. An empty or absent
    /// directory degrades to [`WalWriter::create`].
    pub fn resume(
        dir: impl Into<PathBuf>,
        n: usize,
        max_rank: usize,
        cfg: WalConfig,
    ) -> Result<WalWriter, WalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let segments = list_segments(&dir)?;
        if segments.is_empty() {
            return Self::create(dir, n, max_rank, cfg);
        }
        let scan = scan_segments(&dir, &segments, u64::MAX)?;
        if scan.replay.n != n || scan.replay.max_rank != max_rank {
            return Err(WalError::Corrupt {
                segment: 0,
                detail: format!(
                    "log is for a ({}, {})-stream, resume asked for ({n}, {max_rank})",
                    scan.replay.n, scan.replay.max_rank
                ),
            });
        }
        let last_index = segments.len() as u64 - 1;
        let last_path = segment_path(&dir, last_index);
        let offset = scan.replay.first + scan.replay.updates.len() as u64;
        if scan.last_wholly_torn {
            // The final segment never got a valid header: delete the debris
            // and reuse its index.
            fs::remove_file(&last_path).map_err(|e| io_err(&last_path, e))?;
            return Self::open_segment(dir, n, max_rank, cfg, last_index, offset);
        }
        // Drop the torn tail from disk, then seal with the recomputed
        // fingerprint so the segment passes the strict (non-final) checks
        // from now on.
        let file = fs::OpenOptions::new()
            .write(true)
            .open(&last_path)
            .map_err(|e| io_err(&last_path, e))?;
        file.set_len(scan.last_valid_len)
            .map_err(|e| io_err(&last_path, e))?;
        if !scan.last_sealed {
            let mut file = fs::OpenOptions::new()
                .append(true)
                .open(&last_path)
                .map_err(|e| io_err(&last_path, e))?;
            let trailer = trailer_payload(scan.last_count, scan.last_fp);
            file.write_all(&frame_bytes(&trailer))
                .map_err(|e| io_err(&last_path, e))?;
            file.sync_all().map_err(|e| io_err(&last_path, e))?;
        }
        Self::open_segment(dir, n, max_rank, cfg, last_index + 1, offset)
    }

    fn open_segment(
        dir: PathBuf,
        n: usize,
        max_rank: usize,
        cfg: WalConfig,
        seg_index: u64,
        offset: u64,
    ) -> Result<WalWriter, WalError> {
        let path = segment_path(&dir, seg_index);
        let mut file = fs::OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        let fper = Fingerprinter::new(&SeedTree::new(cfg.seed).child(seg_index));
        let mut header = Writer::new();
        header.put_u8(TAG_HEADER);
        header.put_u64(n as u64);
        header.put_u64(max_rank as u64);
        header.put_u64(offset);
        header.put_u64(fper.point().value());
        let mut bytes = SEGMENT_MAGIC.to_vec();
        bytes.extend_from_slice(&frame_bytes(&header.into_bytes()));
        file.write_all(&bytes).map_err(|e| io_err(&path, e))?;
        Ok(WalWriter {
            dir,
            n,
            max_rank,
            cfg,
            file,
            seg_index,
            seg_count: 0,
            fper,
            fp_acc: Fp::ZERO,
            zpow: Fp::ONE,
            offset,
            metrics: WalMetrics::default(),
        })
    }

    /// Attach metric handles resolved from `sink`
    /// (`dgs_hypergraph_wal_*`: append latency/bytes, sync latency, sealed
    /// segments). Default is the null sink.
    pub fn set_sink(&mut self, sink: &MetricsSink) {
        self.metrics = WalMetrics::resolve(sink);
    }

    /// Appends one update. The record is on the OS's side of the crash line
    /// once this returns (a single `write` of a complete frame); call
    /// [`sync`](Self::sync) to force it to the device too.
    pub fn append(&mut self, u: &Update) -> Result<(), WalError> {
        let timer = self.metrics.append_ns.start_timer();
        let mut payload = Writer::new();
        payload.put_u8(TAG_RECORD);
        u.encode(&mut payload);
        let payload = payload.into_bytes();
        let path = segment_path(&self.dir, self.seg_index);
        let frame = frame_bytes(&payload);
        self.metrics.append_bytes.add(frame.len() as u64);
        self.file.write_all(&frame).map_err(|e| io_err(&path, e))?;
        self.fp_acc = self.fp_acc.add(Fp::new(fnv1a64(&payload)).mul(self.zpow));
        self.zpow = self.zpow.mul(self.fper.point());
        self.seg_count += 1;
        self.offset += 1;
        if self.seg_count >= self.cfg.segment_records {
            self.rotate()?;
        }
        timer.observe();
        Ok(())
    }

    /// Seals the active segment (fingerprint trailer + fsync) and opens the
    /// next one.
    fn rotate(&mut self) -> Result<(), WalError> {
        let path = segment_path(&self.dir, self.seg_index);
        let trailer = trailer_payload(self.seg_count, self.fp_acc);
        self.file
            .write_all(&frame_bytes(&trailer))
            .map_err(|e| io_err(&path, e))?;
        self.file.sync_all().map_err(|e| io_err(&path, e))?;
        let mut next = Self::open_segment(
            self.dir.clone(),
            self.n,
            self.max_rank,
            self.cfg,
            self.seg_index + 1,
            self.offset,
        )?;
        // `open_segment` starts with null handles; the live ones survive the
        // rotation.
        next.metrics = self.metrics.clone();
        next.metrics.segments_sealed.inc();
        *self = next;
        Ok(())
    }

    /// Forces buffered appends to the storage device.
    pub fn sync(&mut self) -> Result<(), WalError> {
        let timer = self.metrics.sync_ns.start_timer();
        let path = segment_path(&self.dir, self.seg_index);
        let out = self.file.sync_all().map_err(|e| io_err(&path, e));
        timer.observe();
        out
    }

    /// Vertex count of the stream this log was created for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rank bound of the stream this log was created for.
    pub fn max_rank(&self) -> usize {
        self.max_rank
    }

    /// Total records ever appended — the stream offset the next record gets.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Index of the segment currently being written.
    pub fn segment_index(&self) -> u64 {
        self.seg_index
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

fn trailer_payload(count: u64, fp: Fp) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(TAG_TRAILER);
    w.put_u64(count);
    w.put_u64(fp.value());
    w.into_bytes()
}

/// Everything recovered from a log directory.
#[derive(Clone, Debug)]
pub struct WalReplay {
    /// Vertex count declared in the segment headers.
    pub n: usize,
    /// Rank bound declared in the segment headers.
    pub max_rank: usize,
    /// Stream offset of `updates[0]`: the offset the read started from, or
    /// the durable end of the log when that comes first (0 on a full read).
    pub first: u64,
    /// Every durable update from offset `first` on, in append order.
    pub updates: Vec<Update>,
    /// Number of segment files read end to end (all of them on a full
    /// read).
    pub segments: usize,
    /// Bytes discarded from the final segment's torn tail (0 after a clean
    /// shutdown).
    pub torn_bytes_dropped: u64,
}

impl WalReplay {
    /// The recovered records as an [`UpdateStream`].
    pub fn stream(&self) -> UpdateStream {
        UpdateStream {
            n: self.n,
            max_rank: self.max_rank,
            updates: self.updates.clone(),
        }
    }
}

/// Sorted segment indexes present in `dir`, validated contiguous from 0.
fn list_segments(dir: &Path) -> Result<Vec<u64>, WalError> {
    let mut indexes = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(ref e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(indexes),
        Err(e) => return Err(io_err(dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(idx) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".wal"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            indexes.push(idx);
        }
    }
    indexes.sort_unstable();
    for (i, &idx) in indexes.iter().enumerate() {
        if idx != i as u64 {
            return Err(WalError::Corrupt {
                segment: i as u64,
                detail: format!("segment {i} missing (found index {idx} instead)"),
            });
        }
    }
    Ok(indexes)
}

/// Internal scan result: the replay plus enough state to resume writing.
struct Scan {
    replay: WalReplay,
    /// Byte length of the valid prefix of the final segment.
    last_valid_len: u64,
    /// Whether the final segment already ends with a valid trailer.
    last_sealed: bool,
    /// Records in the final segment's valid prefix.
    last_count: u64,
    /// Fingerprint accumulator over those records.
    last_fp: Fp,
    /// The final segment never got a valid header (crash during creation):
    /// resume deletes and recreates it rather than truncating.
    last_wholly_torn: bool,
}

/// Reads and validates the whole log. Torn tails in the final segment are
/// truncated (and reported); corruption anywhere else is a typed error.
/// This is [`read_wal_from`] at offset 0.
pub fn read_wal(dir: impl AsRef<Path>) -> Result<WalReplay, WalError> {
    read_wal_from(dir, 0)
}

/// Reads the durable records from stream offset `from` on, with
/// [`WalReplay::first`] = `min(from, durable end)`.
///
/// Every segment holding a record at or past `from` is validated end to
/// end, exactly as [`read_wal`] validates it: frame checksums, fingerprint
/// trailer, a torn tail only in the final segment. A segment whose records
/// all lie before `from` is read no further than its header frame (magic,
/// frame checksum, stream parameters, a base offset no smaller than the
/// previous segment's), so damage in its record region is not detected
/// here. `from = 0` is a full read.
pub fn read_wal_from(dir: impl AsRef<Path>, from: u64) -> Result<WalReplay, WalError> {
    let dir = dir.as_ref();
    let segments = list_segments(dir)?;
    if segments.is_empty() {
        return Err(WalError::Empty {
            dir: dir.display().to_string(),
        });
    }
    Ok(scan_segments(dir, &segments, from)?.replay)
}

/// Index of the first segment a read from `from` validates end to end.
/// Segment `k` is skipped iff segment `k + 1` starts at or before `from`,
/// so the headers are walked in order up to the first one that starts past
/// `from`. Every header walked must describe the same stream as the one
/// before it, at a base offset no smaller. A full read skips nothing.
fn first_scanned_segment(dir: &Path, segments: &[u64], from: u64) -> Result<usize, WalError> {
    if from == 0 {
        return Ok(0);
    }
    let last = segments.len() - 1;
    let mut prev: Option<SegmentHeader> = None;
    for (k, &seg) in segments.iter().enumerate() {
        // A torn final header: the segment before it is the last one that
        // can hold records.
        let Some(header) = probe_header(dir, seg, k == last)? else {
            return Ok(k.saturating_sub(1));
        };
        if let Some(p) = &prev {
            if (header.n, header.max_rank) != (p.n, p.max_rank) || header.base < p.base {
                return Err(WalError::Corrupt {
                    segment: seg,
                    detail: format!(
                        "header declares a ({}, {})-stream from offset {}, after segment {}'s ({}, {})-stream from offset {}",
                        header.n, header.max_rank, header.base, k - 1, p.n, p.max_rank, p.base
                    ),
                });
            }
            if header.base > from {
                return Ok(k - 1);
            }
        }
        prev = Some(header);
    }
    Ok(last)
}

/// The header of segment `seg`, read without the rest of the file.
/// `Ok(None)` when the final segment's header is torn: crash debris that
/// [`scan_one_segment`] tolerates too.
fn probe_header(dir: &Path, seg: u64, is_last: bool) -> Result<Option<SegmentHeader>, WalError> {
    let path = segment_path(dir, seg);
    let mut bytes = Vec::with_capacity(HEADER_BYTES);
    fs::File::open(&path)
        .and_then(|f| f.take(HEADER_BYTES as u64).read_to_end(&mut bytes))
        .map_err(|e| io_err(&path, e))?;
    match parse_header(&bytes) {
        Ok((header, _)) => Ok(Some(header)),
        Err(HeaderDefect::Torn(_)) if is_last => Ok(None),
        Err(HeaderDefect::Torn(detail) | HeaderDefect::Corrupt(detail)) => Err(WalError::Corrupt {
            segment: seg,
            detail,
        }),
    }
}

fn scan_segments(dir: &Path, segments: &[u64], from: u64) -> Result<Scan, WalError> {
    let start = first_scanned_segment(dir, segments, from)?;
    let mut updates = Vec::new();
    let mut stream_params: Option<(usize, usize)> = None;
    // Stream offset of the next record. When earlier segments were
    // skipped, the first segment read declares its own base.
    let mut offset = (start == 0).then_some(0u64);
    let mut torn_bytes = 0u64;
    let mut last_valid_len = 0u64;
    let mut last_sealed = false;
    let mut last_count = 0u64;
    let mut last_fp = Fp::ZERO;
    let mut last_wholly_torn = false;
    for (i, &seg) in segments.iter().enumerate().skip(start) {
        let is_last = i + 1 == segments.len();
        let path = segment_path(dir, seg);
        let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
        let seg_scan = match scan_one_segment(&bytes, seg, is_last, offset)? {
            Some(s) => s,
            None => {
                // The final segment's header never hit the disk (crash
                // while opening it). It holds no records; the whole file is
                // crash debris.
                torn_bytes = bytes.len() as u64;
                last_wholly_torn = true;
                continue;
            }
        };
        match stream_params {
            None => stream_params = Some((seg_scan.n, seg_scan.max_rank)),
            Some((n, r)) => {
                if (seg_scan.n, seg_scan.max_rank) != (n, r) {
                    return Err(WalError::Corrupt {
                        segment: seg,
                        detail: format!(
                            "stream params ({}, {}) disagree with segment {}'s ({n}, {r})",
                            seg_scan.n, seg_scan.max_rank, segments[start]
                        ),
                    });
                }
            }
        }
        offset = Some(seg_scan.base + seg_scan.count);
        // Records before `from` are validated but not returned.
        let before_from = from.saturating_sub(seg_scan.base).min(seg_scan.count);
        updates.extend(seg_scan.updates.into_iter().skip(before_from as usize));
        if is_last {
            torn_bytes = seg_scan.torn_bytes;
            last_valid_len = seg_scan.valid_len;
            last_sealed = seg_scan.sealed;
            last_count = seg_scan.count;
            last_fp = seg_scan.fp_acc;
        }
    }
    let (Some((n, max_rank)), Some(end)) = (stream_params, offset) else {
        return Err(WalError::Corrupt {
            segment: segments[start],
            detail: "no readable segment header".into(),
        });
    };
    Ok(Scan {
        replay: WalReplay {
            n,
            max_rank,
            first: from.min(end),
            updates,
            segments: segments.len() - start,
            torn_bytes_dropped: torn_bytes,
        },
        last_valid_len,
        last_sealed,
        last_count,
        last_fp,
        last_wholly_torn,
    })
}

/// A segment's header frame.
struct SegmentHeader {
    n: usize,
    max_rank: usize,
    /// Stream offset of the segment's first record.
    base: u64,
    /// Fingerprint point of the segment's trailer.
    z: Fp,
}

enum HeaderDefect {
    /// The magic or the header frame is cut short or fails its checksum.
    Torn(String),
    /// The header frame is intact but what it says is invalid.
    Corrupt(String),
}

/// Parses the magic and the header frame at the front of a segment's
/// bytes; returns the header and the position just past it.
fn parse_header(bytes: &[u8]) -> Result<(SegmentHeader, usize), HeaderDefect> {
    if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(HeaderDefect::Torn("bad segment magic".into()));
    }
    let mut pos = SEGMENT_MAGIC.len();
    let Some(payload) = next_frame(bytes, &mut pos) else {
        return Err(HeaderDefect::Torn("segment header torn or corrupt".into()));
    };
    let mut r = Reader::new(payload);
    let parse = |e: dgs_field::CodecError| HeaderDefect::Corrupt(format!("header: {e}"));
    if r.get_u8().map_err(parse)? != TAG_HEADER {
        return Err(HeaderDefect::Corrupt("first frame is not a header".into()));
    }
    let n = r.get_u64().map_err(parse)? as usize;
    let max_rank = r.get_u64().map_err(parse)? as usize;
    let base = r.get_u64().map_err(parse)?;
    let z = Fp::new(r.get_u64().map_err(parse)?);
    r.expect_end().map_err(parse)?;
    if z.is_zero() || z == Fp::ONE {
        return Err(HeaderDefect::Corrupt("degenerate fingerprint point".into()));
    }
    let header = SegmentHeader {
        n,
        max_rank,
        base,
        z,
    };
    Ok((header, pos))
}

/// The checksum-verified payload of the frame at `*pos`, advancing `pos`
/// past it; `None` on a torn or corrupt frame boundary (the caller decides
/// whether torn is tolerable).
fn next_frame<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let start = *pos;
    let prefix = bytes.get(start..start + FRAME_PREFIX)?;
    let len = u32::from_le_bytes(prefix[..4].try_into().expect("4 bytes"));
    if len > MAX_FRAME_PAYLOAD {
        return None;
    }
    let declared = u64::from_le_bytes(prefix[4..].try_into().expect("8 bytes"));
    let end = start + FRAME_PREFIX + len as usize;
    let payload = bytes.get(start + FRAME_PREFIX..end)?;
    if fnv1a64(payload) != declared {
        return None;
    }
    *pos = end;
    Some(payload)
}

struct SegmentScan {
    n: usize,
    max_rank: usize,
    base: u64,
    updates: Vec<Update>,
    torn_bytes: u64,
    valid_len: u64,
    sealed: bool,
    count: u64,
    fp_acc: Fp,
}

/// Validates one segment's bytes. `is_last` selects torn-tail tolerance;
/// sealed segments must validate end to end, trailer included. The header
/// must declare `expected_base` as its base offset when that is known.
/// `Ok(None)` means the final segment's header itself was torn (only legal
/// when a prior segment exists to supply the stream parameters).
fn scan_one_segment(
    bytes: &[u8],
    seg: u64,
    is_last: bool,
    expected_base: Option<u64>,
) -> Result<Option<SegmentScan>, WalError> {
    let corrupt = |detail: String| WalError::Corrupt {
        segment: seg,
        detail,
    };
    let (header, mut pos) = match parse_header(bytes) {
        Ok(parsed) => parsed,
        // A final segment whose magic or header frame is damaged is crash
        // debris from `open_segment` — tolerable when segment 0 still
        // supplies the stream parameters; fatal otherwise.
        Err(HeaderDefect::Torn(_)) if is_last && seg > 0 => return Ok(None),
        Err(HeaderDefect::Torn(detail) | HeaderDefect::Corrupt(detail)) => {
            return Err(corrupt(detail))
        }
    };
    let SegmentHeader {
        n,
        max_rank,
        base,
        z,
    } = header;
    if let Some(expected) = expected_base.filter(|&e| e != base) {
        return Err(corrupt(format!(
            "header declares base offset {base}, log position is {expected}"
        )));
    }

    let mut updates = Vec::new();
    let mut fp_acc = Fp::ZERO;
    let mut zpow = Fp::ONE;
    let mut count = 0u64;
    let mut sealed = false;
    let mut valid_len = pos as u64;
    loop {
        if pos == bytes.len() {
            break; // clean unsealed end
        }
        let frame_start = pos;
        let Some(payload) = next_frame(bytes, &mut pos) else {
            // Torn or corrupt frame boundary.
            if is_last {
                return Ok(Some(SegmentScan {
                    n,
                    max_rank,
                    base,
                    updates,
                    torn_bytes: (bytes.len() - frame_start) as u64,
                    valid_len,
                    sealed: false,
                    count,
                    fp_acc,
                }));
            }
            return Err(corrupt(format!("invalid frame at byte {frame_start}")));
        };
        match payload.first().copied() {
            Some(TAG_RECORD) => {
                if sealed {
                    return Err(corrupt("record frame after trailer".into()));
                }
                let mut r = Reader::new(&payload[1..]);
                match Update::decode(&mut r).and_then(|u| r.expect_end().map(|()| u)) {
                    Ok(u) => {
                        fp_acc = fp_acc.add(Fp::new(fnv1a64(payload)).mul(zpow));
                        zpow = zpow.mul(z);
                        count += 1;
                        updates.push(u);
                        valid_len = pos as u64;
                    }
                    Err(e) => {
                        // The checksum passed but the payload is not a
                        // well-formed update: disk corruption colliding
                        // with FNV is ~2^-64; treat as corrupt even in the
                        // last segment rather than silently dropping a
                        // frame the checksum vouched for.
                        return Err(corrupt(format!(
                            "checksummed record at byte {frame_start} undecodable: {e}"
                        )));
                    }
                }
            }
            Some(TAG_TRAILER) => {
                let mut r = Reader::new(&payload[1..]);
                let tparse = |e: dgs_field::CodecError| corrupt(format!("trailer: {e}"));
                let declared_count = r.get_u64().map_err(tparse)?;
                let declared_fp = Fp::new(r.get_u64().map_err(tparse)?);
                r.expect_end().map_err(tparse)?;
                if declared_count != count || declared_fp != fp_acc {
                    return Err(corrupt(format!(
                        "fingerprint trailer mismatch: declared ({declared_count}, {}), \
                         recomputed ({count}, {})",
                        declared_fp.value(),
                        fp_acc.value()
                    )));
                }
                sealed = true;
                valid_len = pos as u64;
            }
            Some(TAG_HEADER) => return Err(corrupt("header frame mid-segment".into())),
            _ => return Err(corrupt(format!("unknown frame tag at byte {frame_start}"))),
        }
        if sealed && pos != bytes.len() {
            // Bytes after a valid trailer: crash debris in the last
            // segment, corruption anywhere else.
            if is_last {
                return Ok(Some(SegmentScan {
                    n,
                    max_rank,
                    base,
                    updates,
                    torn_bytes: (bytes.len() - pos) as u64,
                    valid_len,
                    sealed,
                    count,
                    fp_acc,
                }));
            }
            return Err(corrupt("trailing bytes after trailer".into()));
        }
    }
    if !is_last && !sealed {
        return Err(corrupt("sealed segment is missing its trailer".into()));
    }
    Ok(Some(SegmentScan {
        n,
        max_rank,
        base,
        updates,
        torn_bytes: 0,
        valid_len,
        sealed,
        count,
        fp_acc,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::HyperEdge;
    use crate::fault::{truncated, with_bit_flipped};

    fn tmpdir(label: &str) -> PathBuf {
        static UNIQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dgs-wal-{label}-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_updates(m: usize) -> Vec<Update> {
        (0..m)
            .map(|i| {
                let e = HyperEdge::pair(i as u32 % 7, 7 + (i as u32 % 5));
                if i % 3 == 2 {
                    Update::delete(e)
                } else {
                    Update::insert(e)
                }
            })
            .collect()
    }

    fn small_cfg() -> WalConfig {
        WalConfig {
            segment_records: 8,
            seed: 42,
        }
    }

    #[test]
    fn round_trips_across_segment_rotations() {
        let dir = tmpdir("rt");
        let updates = sample_updates(37); // 8-record segments -> 5 files
        let mut w = WalWriter::create(&dir, 16, 2, small_cfg()).unwrap();
        for u in &updates {
            w.append(u).unwrap();
        }
        assert_eq!(w.offset(), 37);
        assert_eq!(w.segment_index(), 4);
        let replay = read_wal(&dir).unwrap();
        assert_eq!(replay.updates, updates);
        assert_eq!(replay.n, 16);
        assert_eq!(replay.max_rank, 2);
        assert_eq!(replay.segments, 5);
        assert_eq!(replay.torn_bytes_dropped, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncates_to_last_valid_frame() {
        let dir = tmpdir("torn");
        let updates = sample_updates(6);
        let mut w = WalWriter::create(&dir, 16, 2, small_cfg()).unwrap();
        for u in &updates {
            w.append(u).unwrap();
        }
        drop(w); // crash: no seal
        let path = segment_path(&dir, 0);
        let full = fs::read(&path).unwrap();
        // Chop off part of the last frame: replay must hold 5 records.
        fs::write(&path, truncated(&full, full.len() - 3)).unwrap();
        let replay = read_wal(&dir).unwrap();
        assert_eq!(replay.updates, updates[..5]);
        assert!(replay.torn_bytes_dropped > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_sealed_segment_is_a_typed_error() {
        let dir = tmpdir("sealedflip");
        let mut w = WalWriter::create(&dir, 16, 2, small_cfg()).unwrap();
        for u in sample_updates(20) {
            w.append(&u).unwrap(); // seals segments 0 and 1
        }
        let path = segment_path(&dir, 0);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, with_bit_flipped(&bytes, bytes.len() * 4)).unwrap();
        match read_wal(&dir) {
            Err(WalError::Corrupt { segment: 0, .. }) => {}
            other => panic!("expected segment-0 corruption, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_truncates_seals_and_continues() {
        let dir = tmpdir("resume");
        let updates = sample_updates(11);
        let mut w = WalWriter::create(&dir, 16, 2, small_cfg()).unwrap();
        for u in &updates {
            w.append(u).unwrap();
        }
        drop(w);
        // Tear the active segment's tail.
        let path = segment_path(&dir, 1);
        let full = fs::read(&path).unwrap();
        fs::write(&path, truncated(&full, full.len() - 1)).unwrap();

        let mut w = WalWriter::resume(&dir, 16, 2, small_cfg()).unwrap();
        assert_eq!(read_wal(&dir).unwrap().updates, updates[..10]);
        assert_eq!(w.offset(), 10);
        let more = sample_updates(3);
        for u in &more {
            w.append(u).unwrap();
        }
        drop(w);
        let replay = read_wal(&dir).unwrap();
        assert_eq!(replay.updates.len(), 13);
        assert_eq!(replay.updates[10..], more[..]);
        // The previously-torn segment is now sealed: corruption in it is no
        // longer tolerated as a torn tail.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, with_bit_flipped(&bytes, 8 * 100)).unwrap();
        assert!(matches!(read_wal(&dir), Err(WalError::Corrupt { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_reads_return_the_suffix_and_skip_earlier_segments() {
        let dir = tmpdir("tail");
        // 8-record segments: 0..=4 sealed, 5 holds only its header.
        let updates = sample_updates(40);
        let mut w = WalWriter::create(&dir, 16, 2, small_cfg()).unwrap();
        for u in &updates {
            w.append(u).unwrap();
        }
        drop(w);
        let full = read_wal(&dir).unwrap();
        assert_eq!((full.first, full.segments), (0, 6));
        let len = updates.len() as u64;
        for from in 0..=len + 1 {
            let tail = read_wal_from(&dir, from).unwrap();
            let first = from.min(len);
            assert_eq!(tail.first, first, "from {from}");
            assert_eq!(tail.updates, full.updates[first as usize..], "from {from}");
            // Segment k is skipped once segment k + 1 starts at or before
            // `from`; the final segment is always read.
            assert_eq!(tail.segments, 6 - (from as usize / 8).min(5), "from {from}");
        }

        // A final segment whose header never hit the disk holds nothing.
        let path = segment_path(&dir, 5);
        fs::write(&path, truncated(&fs::read(&path).unwrap(), 3)).unwrap();
        let tail = read_wal_from(&dir, 30).unwrap();
        assert_eq!(tail.updates, updates[30..]);
        assert_eq!(tail.torn_bytes_dropped, 3);
        // Resuming for the durable end reads no record before it.
        let mut w = WalWriter::resume(&dir, 16, 2, small_cfg()).unwrap();
        assert_eq!(w.offset(), len);
        w.append(&updates[0]).unwrap();
        drop(w);
        let log = read_wal(&dir).unwrap().updates;
        assert_eq!(log[..40], updates[..]);

        // Damage in the record region of sealed segment 1 (records 8..16).
        let path = segment_path(&dir, 1);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, with_bit_flipped(&bytes, 8 * (HEADER_BYTES + 4))).unwrap();
        for from in 0..=log.len() + 1 {
            match read_wal_from(&dir, from as u64) {
                Ok(tail) if from >= 16 => {
                    assert_eq!(tail.updates, log[from.min(log.len())..], "from {from}");
                }
                Err(WalError::Corrupt { segment: 1, .. }) if from < 16 => {}
                other => panic!("from {from}: got {other:?}"),
            }
        }
        assert!(matches!(
            read_wal(&dir),
            Err(WalError::Corrupt { segment: 1, .. })
        ));

        // A skipped segment's header is still checked, whatever `from` is.
        let path = segment_path(&dir, 0);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, with_bit_flipped(&bytes, 8 * (HEADER_BYTES - 1))).unwrap();
        for from in 0..=log.len() + 1 {
            match read_wal_from(&dir, from as u64) {
                Err(WalError::Corrupt { segment: 0, .. }) => {}
                other => panic!("from {from}: got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_segment_is_detected() {
        let dir = tmpdir("gap");
        let mut w = WalWriter::create(&dir, 16, 2, small_cfg()).unwrap();
        for u in sample_updates(20) {
            w.append(&u).unwrap();
        }
        fs::remove_file(segment_path(&dir, 1)).unwrap();
        assert!(matches!(read_wal(&dir), Err(WalError::Corrupt { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_directory_is_a_typed_error() {
        let dir = tmpdir("empty");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(read_wal(&dir), Err(WalError::Empty { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_of_the_log_recovers_a_prefix() {
        let dir = tmpdir("prefix");
        let updates = sample_updates(7);
        let mut w = WalWriter::create(&dir, 16, 2, WalConfig::default()).unwrap();
        for u in &updates {
            w.append(u).unwrap();
        }
        drop(w);
        let path = segment_path(&dir, 0);
        let full = fs::read(&path).unwrap();
        let mut seen = 0usize;
        for cut in 0..=full.len() {
            fs::write(&path, truncated(&full, cut)).unwrap();
            match read_wal(&dir) {
                Ok(replay) => {
                    assert_eq!(
                        replay.updates,
                        updates[..replay.updates.len()],
                        "cut {cut}: recovered a non-prefix"
                    );
                    seen = seen.max(replay.updates.len());
                }
                Err(WalError::Corrupt { .. }) => {} // header cut away
                Err(e) => panic!("cut {cut}: unexpected error {e}"),
            }
        }
        assert_eq!(seen, updates.len());
        fs::remove_dir_all(&dir).unwrap();
    }
}
