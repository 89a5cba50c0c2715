//! Hybrid adaptive sparse/sketch connectivity backend.
//!
//! Real dynamic-graph streams are mostly sparse: the net edge support of a
//! churn stream sits far below the sketch's design point for most of its
//! lifetime, yet every update still pays the full linear-sketch toll —
//! per-round hashing, level selection, and fingerprint arithmetic across
//! every endpoint row. An explicit edge buffer is orders of magnitude
//! cheaper *until support grows*, and sketch linearity means nothing is
//! lost by starting exact: the buffered prefix can be replayed into the
//! sketch later as one batch, landing **bit-identical** state to a sketch
//! that ingested the stream directly (field addition is exact, commutative,
//! and associative, so per-edge net multiplicities applied once sum every
//! cell to the same value).
//!
//! [`HybridConnectivitySketch`] packages that trade as a drop-in member of
//! every ingestion and serving layer in this workspace:
//!
//! * **Resident** — updates land in an exact signed-multiplicity edge
//!   buffer (a `BTreeMap` keyed by the edge's [`EdgeSpace`] rank, so
//!   iteration — and therefore the codec — is deterministic). Inserting and
//!   then deleting an edge cancels to net zero and the entry is removed:
//!   insert+delete churn never counts toward the spill threshold. Decode is
//!   exact union-find over the buffered support — no ℓ0 sampling, no field
//!   arithmetic, no failure probability.
//! * **Spill** — once the buffered support exceeds
//!   [`HybridConfig::spill_threshold`], the buffer is replayed into the
//!   inner [`SpanningForestSketch`] through its batched kernel
//!   ([`SpanningForestSketch::try_update_batch`]) and subsequent updates
//!   are forwarded to the sketch. The buffer keeps tracking net
//!   multiplicities (cheap hash-map work next to sketch updates) so the
//!   backend still knows the exact support.
//! * **Un-spill** — when cancellations shrink the tracked support to the
//!   hysteresis low-water mark [`HybridConfig::unspill_threshold`], the
//!   buffer's net multiplicities are *subtracted* from the sketch. By
//!   linearity every cell returns exactly to zero — the encoded sketch is
//!   byte-identical to a freshly built one — and decode goes back to the
//!   exact path. `unspill_threshold < spill_threshold` keeps a support
//!   level oscillating around one mark from thrashing.
//! * **Untracked** — if the tracked support exceeds
//!   [`HybridConfig::max_tracked_support`] while spilled, the buffer is
//!   dropped entirely: the sketch is authoritative forever after, and the
//!   backend's memory is back to the sketch's sublinear bound. This is the
//!   honest fallback of the source paper's space story — the exact buffer
//!   is a *bounded* accelerator, never an unbounded shadow copy.
//!
//! Mode transitions are evaluated **per update** in both the scalar and the
//! batched paths (only the sketch forwarding is batched), so the final
//! state — buffer, mode, and sketch bytes — is identical for every
//! `(batch size, thread count, mid-batch spill point)` choice. The
//! `tests/hybrid_spill.rs` property test asserts this byte-for-byte against
//! direct sketch ingestion.
//!
//! Observability: `dgs_core_hybrid_{resident,spills,unspills,buffer_bytes,
//! exact_decodes}` via `dgs-obs`; decode and migration phases appear as
//! `dgs_core_hybrid_*` spans under an ambient `dgs-trace` request.

use std::collections::BTreeMap;

use dgs_connectivity::SpanningForestSketch;
use dgs_field::{Codec, CodecError, Reader, Writer};
use dgs_hypergraph::algo::UnionFind;
use dgs_hypergraph::{EdgeSpace, HyperEdge, VertexId};
use dgs_obs::{Counter, Gauge, MetricsSink};
use dgs_sketch::SketchResult;

/// Codec magic/version byte for [`HybridConnectivitySketch`] frames.
const HYBRID_MAGIC_V1: u8 = 0xB1;

/// Thresholds of the hybrid state machine. All counts are **net support**:
/// distinct edges with non-zero signed multiplicity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HybridConfig {
    /// High-water mark: the buffer spills into the sketch when support
    /// *exceeds* this.
    pub spill_threshold: usize,
    /// Low-water mark: a spilled backend whose tracked support shrinks to
    /// this or below migrates back to exact. Must be strictly below
    /// `spill_threshold` (hysteresis).
    pub unspill_threshold: usize,
    /// Tracking cap while spilled: support beyond this drops the buffer
    /// entirely (mode becomes [`HybridMode::Untracked`]; un-spill is no
    /// longer possible and memory returns to the sketch's bound). Must be
    /// at least `spill_threshold`.
    pub max_tracked_support: usize,
}

impl Default for HybridConfig {
    fn default() -> HybridConfig {
        HybridConfig {
            spill_threshold: 1024,
            unspill_threshold: 256,
            max_tracked_support: 4096,
        }
    }
}

impl HybridConfig {
    /// Panics unless `unspill_threshold < spill_threshold <=
    /// max_tracked_support` — the state machine's invariants.
    fn validate(&self) {
        assert!(self.spill_threshold >= 1, "spill threshold must be >= 1");
        assert!(
            self.unspill_threshold < self.spill_threshold,
            "hysteresis requires unspill_threshold ({}) < spill_threshold ({})",
            self.unspill_threshold,
            self.spill_threshold
        );
        assert!(
            self.max_tracked_support >= self.spill_threshold,
            "max_tracked_support ({}) must be >= spill_threshold ({})",
            self.max_tracked_support,
            self.spill_threshold
        );
    }
}

/// Where updates currently land and where decode reads from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HybridMode {
    /// Exact: the buffer is authoritative, the sketch is zero.
    Resident,
    /// Spilled with tracking: the sketch is authoritative and equals the
    /// buffered net multiset exactly; the buffer still tracks support so
    /// un-spill remains possible.
    Spilled,
    /// Spilled without tracking: the buffer was dropped at the tracking
    /// cap; the sketch is authoritative forever.
    Untracked,
}

impl HybridMode {
    fn to_byte(self) -> u8 {
        match self {
            HybridMode::Resident => 0,
            HybridMode::Spilled => 1,
            HybridMode::Untracked => 2,
        }
    }

    fn from_byte(b: u8) -> Option<HybridMode> {
        match b {
            0 => Some(HybridMode::Resident),
            1 => Some(HybridMode::Spilled),
            2 => Some(HybridMode::Untracked),
            _ => None,
        }
    }
}

/// Metric handles for one hybrid backend; null (free) by default, shared
/// across clones, excluded from the codec.
#[derive(Clone, Debug, Default)]
struct HybridMetrics {
    /// 1 while the exact buffer is authoritative, 0 after spill.
    resident: Gauge,
    spills: Counter,
    unspills: Counter,
    /// Approximate buffer footprint: entries x (rank + multiplicity).
    buffer_bytes: Gauge,
    exact_decodes: Counter,
}

impl HybridMetrics {
    fn resolve(sink: &MetricsSink) -> HybridMetrics {
        HybridMetrics {
            resident: sink.gauge("dgs_core_hybrid_resident"),
            spills: sink.counter("dgs_core_hybrid_spills"),
            unspills: sink.counter("dgs_core_hybrid_unspills"),
            buffer_bytes: sink.gauge("dgs_core_hybrid_buffer_bytes"),
            exact_decodes: sink.counter("dgs_core_hybrid_exact_decodes"),
        }
    }
}

/// A connectivity backend that is exact while sparse and a linear sketch
/// once dense (see the module docs for the full state machine).
///
/// Construct with a **freshly built** (zero-state) [`SpanningForestSketch`]:
/// the invariant maintained everywhere is that the sketch's cells equal the
/// field image of the buffered net multiset while tracked (and zero while
/// resident), which only holds if the sketch starts empty.
#[derive(Clone, Debug)]
pub struct HybridConnectivitySketch {
    sketch: SpanningForestSketch,
    cfg: HybridConfig,
    mode: HybridMode,
    /// Net signed multiplicity per edge rank; entries cancelling to zero
    /// are removed immediately, so `buffer.len()` *is* the support.
    /// `BTreeMap` keeps iteration (and the codec) deterministic.
    buffer: BTreeMap<u64, i64>,
    metrics: HybridMetrics,
}

impl HybridConnectivitySketch {
    /// Wraps a freshly built (zero-state) sketch.
    ///
    /// # Panics
    /// Panics if the thresholds violate `unspill < spill <= max_tracked`.
    pub fn new(sketch: SpanningForestSketch, cfg: HybridConfig) -> HybridConnectivitySketch {
        cfg.validate();
        HybridConnectivitySketch {
            sketch,
            cfg,
            mode: HybridMode::Resident,
            buffer: BTreeMap::new(),
            metrics: HybridMetrics::default(),
        }
    }

    /// Attach metric handles resolved from `sink` (`dgs_core_hybrid_*`:
    /// residency gauge, spill/un-spill counters, buffer footprint, exact
    /// decode counter) and propagate to the inner sketch. Default is the
    /// null sink: recording is free.
    pub fn set_sink(&mut self, sink: &MetricsSink) {
        self.metrics = HybridMetrics::resolve(sink);
        self.metrics
            .resident
            .set((self.mode == HybridMode::Resident) as i64);
        self.metrics.buffer_bytes.set(self.buffer_footprint());
        self.sketch.set_sink(sink);
    }

    /// The current mode of the state machine.
    pub fn mode(&self) -> HybridMode {
        self.mode
    }

    /// True while decode reads the exact buffer (no failure probability).
    pub fn is_resident(&self) -> bool {
        self.mode == HybridMode::Resident
    }

    /// Exact net support, while tracked (`None` once untracked).
    pub fn support(&self) -> Option<usize> {
        match self.mode {
            HybridMode::Untracked => None,
            _ => Some(self.buffer.len()),
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> HybridConfig {
        self.cfg
    }

    /// The inner sketch (zero-state while resident; equal to a direct
    /// ingest of the stream once spilled).
    pub fn sketch(&self) -> &SpanningForestSketch {
        &self.sketch
    }

    /// The underlying edge space.
    pub fn space(&self) -> &EdgeSpace {
        self.sketch.space()
    }

    fn buffer_footprint(&self) -> i64 {
        (self.buffer.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<i64>())) as i64
    }

    /// Adds `delta` to the edge's net multiplicity, removing the entry on
    /// cancellation to zero.
    fn apply_buffered(&mut self, rank: u64, delta: i64) {
        use std::collections::btree_map::Entry;
        if delta == 0 {
            return;
        }
        match self.buffer.entry(rank) {
            Entry::Vacant(v) => {
                v.insert(delta);
            }
            Entry::Occupied(mut o) => {
                let m = o.get_mut();
                *m = m.wrapping_add(delta);
                if *m == 0 {
                    o.remove();
                }
            }
        }
    }

    /// The buffer as `(edge, net multiplicity)` pairs in ascending rank,
    /// with each multiplicity mapped through `f` (identity for spill,
    /// negation for un-spill).
    fn buffer_batch(&self, f: impl Fn(i64) -> i64) -> Vec<(HyperEdge, i64)> {
        let space = self.sketch.space();
        self.buffer
            .iter()
            .map(|(&rank, &m)| (space.unrank(rank), f(m)))
            .collect()
    }

    /// Replays the buffer into the sketch as one batch. Field linearity
    /// makes the resulting sketch bit-identical to one that ingested every
    /// buffered update directly.
    fn spill(&mut self) -> SketchResult<()> {
        let _span = dgs_trace::child("dgs_core_hybrid_spill");
        let batch = self.buffer_batch(|m| m);
        self.sketch.try_update_batch(&batch)?;
        self.mode = HybridMode::Spilled;
        self.metrics.spills.inc();
        self.metrics.resident.set(0);
        Ok(())
    }

    /// Subtracts the buffered net multiset from the sketch — every cell
    /// returns exactly to zero — and resumes exact operation.
    fn unspill(&mut self) -> SketchResult<()> {
        let _span = dgs_trace::child("dgs_core_hybrid_unspill");
        let batch = self.buffer_batch(i64::wrapping_neg);
        self.sketch.try_update_batch(&batch)?;
        self.mode = HybridMode::Resident;
        self.metrics.unspills.inc();
        self.metrics.resident.set(1);
        Ok(())
    }

    /// Drops the tracking buffer: the sketch is authoritative from here on.
    fn untrack(&mut self) {
        self.buffer = BTreeMap::new();
        self.mode = HybridMode::Untracked;
    }

    /// Runs the threshold state machine after one applied update. Called
    /// once per update in *every* ingest path, so mode trajectories — and
    /// therefore encoded states — cannot depend on batch boundaries.
    fn run_transitions(&mut self) -> SketchResult<()> {
        match self.mode {
            HybridMode::Resident => {
                if self.buffer.len() > self.cfg.spill_threshold {
                    self.spill()?;
                }
            }
            HybridMode::Spilled => {
                if self.buffer.len() > self.cfg.max_tracked_support {
                    self.untrack();
                } else if self.buffer.len() <= self.cfg.unspill_threshold {
                    self.unspill()?;
                }
            }
            HybridMode::Untracked => {}
        }
        self.metrics.buffer_bytes.set(self.buffer_footprint());
        Ok(())
    }

    /// Fallible signed update (+1 insert, -1 delete). Accepts and rejects
    /// exactly the updates the inner sketch would.
    pub fn try_update(&mut self, e: &HyperEdge, delta: i64) -> SketchResult<()> {
        self.sketch.validate_edge(e)?;
        if self.mode == HybridMode::Untracked {
            return self.sketch.try_update(e, delta);
        }
        let rank = self.sketch.space().rank(e);
        self.apply_buffered(rank, delta);
        if self.mode == HybridMode::Spilled {
            self.sketch.try_update(e, delta)?;
        }
        self.run_transitions()
    }

    /// Batched signed updates. Bit-identical to calling
    /// [`try_update`](Self::try_update) per entry in order — the threshold
    /// state machine runs per update; only the *sketch forwarding* is
    /// batched through [`SpanningForestSketch::try_update_batch`] — except
    /// that an invalid entry rejects the entire batch before anything is
    /// applied (matching the forest kernel's contract).
    pub fn try_update_batch(&mut self, updates: &[(HyperEdge, i64)]) -> SketchResult<()> {
        for (e, _) in updates {
            self.sketch.validate_edge(e)?;
        }
        // Updates owed to the sketch (spilled/untracked spans of the batch)
        // but not yet applied; flushed before any state transition that
        // reads the sketch, and at the end.
        let mut pending: Vec<(HyperEdge, i64)> = Vec::new();
        for (e, d) in updates {
            if self.mode == HybridMode::Untracked {
                pending.push((e.clone(), *d));
                continue;
            }
            let rank = self.sketch.space().rank(e);
            self.apply_buffered(rank, *d);
            match self.mode {
                HybridMode::Resident => {
                    if self.buffer.len() > self.cfg.spill_threshold {
                        // `pending` is empty here: it only accumulates while
                        // spilled, and every un-spill drains it first.
                        self.spill()?;
                    }
                }
                HybridMode::Spilled => {
                    pending.push((e.clone(), *d));
                    if self.buffer.len() > self.cfg.max_tracked_support {
                        self.sketch.try_update_batch(&pending)?;
                        pending.clear();
                        self.untrack();
                    } else if self.buffer.len() <= self.cfg.unspill_threshold {
                        // The sketch must equal the buffered multiset before
                        // the subtraction, so settle the debt first.
                        self.sketch.try_update_batch(&pending)?;
                        pending.clear();
                        self.unspill()?;
                    }
                }
                HybridMode::Untracked => {}
            }
        }
        if !pending.is_empty() {
            self.sketch.try_update_batch(&pending)?;
        }
        self.metrics.buffer_bytes.set(self.buffer_footprint());
        Ok(())
    }

    /// Exact decode of the buffered support: union-find over every edge
    /// with non-zero net multiplicity. Infallible by construction (no
    /// sampling), so it is only reachable while resident.
    fn exact_union_find(&self) -> UnionFind {
        let _span = dgs_trace::child("dgs_core_hybrid_exact_decode");
        self.metrics.exact_decodes.inc();
        let vertices = self.sketch.vertices();
        let mut uf = UnionFind::new(vertices.len());
        let space = self.sketch.space();
        for &rank in self.buffer.keys() {
            let e = space.unrank(rank);
            let vs = e.vertices();
            let first = self.local_index(vs[0]);
            for &v in &vs[1..] {
                uf.union(first, self.local_index(v));
            }
        }
        uf
    }

    /// Position of global vertex `v` in the sketch's sorted present-vertex
    /// list. Buffered edges were validated against the sketch, so `v` is
    /// always present.
    fn local_index(&self, v: VertexId) -> u32 {
        debug_assert!(self.sketch.has_vertex(v));
        match self.sketch.vertices().binary_search(&v) {
            Ok(i) => i as u32,
            // Unreachable for validated updates; 0 keeps release builds
            // total without a panic path in the decode hot loop.
            Err(_) => 0,
        }
    }

    /// Connected-component count. Exact while resident; the sketch's
    /// certified Borůvka decode (whp, typed failure) after spill.
    pub fn try_component_count(&self) -> SketchResult<usize> {
        match self.mode {
            HybridMode::Resident => Ok(self.exact_union_find().component_count()),
            _ => {
                let _span = dgs_trace::child("dgs_core_hybrid_sketch_decode");
                self.sketch.try_component_count()
            }
        }
    }

    /// Canonical component labels over the present vertex set: entry `i`
    /// is the **smallest global vertex id** in the component of
    /// `vertices()[i]`. Canonical on both decode paths, so answers from the
    /// exact buffer and from the sketch compare byte-for-byte.
    pub fn try_component_labels(&self) -> SketchResult<Vec<VertexId>> {
        let mut uf = match self.mode {
            HybridMode::Resident => self.exact_union_find(),
            _ => {
                let _span = dgs_trace::child("dgs_core_hybrid_sketch_decode");
                self.sketch.try_decode_with_labels()?.1
            }
        };
        Ok(canonical_labels(&mut uf, self.sketch.vertices()))
    }

    /// A spanning forest of the current support. Exact (ascending-rank
    /// greedy forest) while resident; the sketch's decoded forest after
    /// spill. Both span the same components; the edge *choice* differs by
    /// construction.
    pub fn try_spanning_forest(&self) -> SketchResult<Vec<HyperEdge>> {
        match self.mode {
            HybridMode::Resident => {
                let _span = dgs_trace::child("dgs_core_hybrid_exact_decode");
                self.metrics.exact_decodes.inc();
                let vertices = self.sketch.vertices();
                let space = self.sketch.space();
                let mut uf = UnionFind::new(vertices.len());
                let mut out = Vec::new();
                for &rank in self.buffer.keys() {
                    let e = space.unrank(rank);
                    let vs = e.vertices();
                    let first = self.local_index(vs[0]);
                    let mut merged = false;
                    for &v in &vs[1..] {
                        merged |= uf.union(first, self.local_index(v));
                    }
                    if merged {
                        out.push(e);
                    }
                }
                Ok(out)
            }
            _ => {
                let _span = dgs_trace::child("dgs_core_hybrid_sketch_decode");
                self.sketch.try_decode()
            }
        }
    }
}

/// Canonical min-vertex labels for a union-find over local indices of
/// `vertices`.
fn canonical_labels(uf: &mut UnionFind, vertices: &[VertexId]) -> Vec<VertexId> {
    let n = vertices.len();
    // Smallest global id per root; `vertices` is sorted ascending, so the
    // first local index reaching a root carries the minimum.
    let mut min_of_root: Vec<VertexId> = vec![VertexId::MAX; n];
    let mut roots: Vec<u32> = Vec::with_capacity(n);
    for (i, &v) in vertices.iter().enumerate() {
        let r = uf.find(i as u32);
        roots.push(r);
        if min_of_root[r as usize] == VertexId::MAX {
            min_of_root[r as usize] = v;
        }
    }
    roots.into_iter().map(|r| min_of_root[r as usize]).collect()
}

impl Codec for HybridConnectivitySketch {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(HYBRID_MAGIC_V1);
        w.put_usize(self.cfg.spill_threshold);
        w.put_usize(self.cfg.unspill_threshold);
        w.put_usize(self.cfg.max_tracked_support);
        w.put_u8(self.mode.to_byte());
        w.put_usize(self.buffer.len());
        for (&rank, &m) in &self.buffer {
            w.put_u64(rank);
            w.put_u64(m as u64);
        }
        self.sketch.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bad = |message: String| CodecError { offset: 0, message };
        let magic = r.get_u8()?;
        if magic != HYBRID_MAGIC_V1 {
            return Err(bad(format!(
                "bad hybrid sketch magic {magic:#04x} (expected {HYBRID_MAGIC_V1:#04x})"
            )));
        }
        let cfg = HybridConfig {
            spill_threshold: r.get_len(1 << 48)?,
            unspill_threshold: r.get_len(1 << 48)?,
            max_tracked_support: r.get_len(1 << 48)?,
        };
        if cfg.spill_threshold == 0
            || cfg.unspill_threshold >= cfg.spill_threshold
            || cfg.max_tracked_support < cfg.spill_threshold
        {
            return Err(bad(format!(
                "hybrid thresholds violate unspill < spill <= max_tracked: {cfg:?}"
            )));
        }
        let mode = HybridMode::from_byte(r.get_u8()?)
            .ok_or_else(|| bad("unknown hybrid mode byte".into()))?;
        let len = r.get_len(1 << 48)?;
        let mut buffer = BTreeMap::new();
        let mut last: Option<u64> = None;
        for _ in 0..len {
            let rank = r.get_u64()?;
            let m = r.get_u64()? as i64;
            if last.is_some_and(|p| p >= rank) {
                return Err(bad("hybrid buffer ranks not strictly ascending".into()));
            }
            if m == 0 {
                return Err(bad(format!("hybrid buffer holds a zero entry at {rank}")));
            }
            last = Some(rank);
            buffer.insert(rank, m);
        }
        let sketch = <SpanningForestSketch as Codec>::decode(r)?;
        if buffer
            .keys()
            .any(|&rank| rank >= sketch.space().dimension())
        {
            return Err(bad("hybrid buffer rank out of the edge space".into()));
        }
        match mode {
            HybridMode::Resident if buffer.len() > cfg.spill_threshold => {
                return Err(bad(format!(
                    "resident buffer holds {} entries past the spill threshold {}",
                    buffer.len(),
                    cfg.spill_threshold
                )));
            }
            HybridMode::Untracked if !buffer.is_empty() => {
                return Err(bad("untracked hybrid still carries a buffer".into()));
            }
            _ => {}
        }
        Ok(HybridConnectivitySketch {
            sketch,
            cfg,
            mode,
            buffer,
            metrics: HybridMetrics::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use dgs_connectivity::ForestParams;
    use dgs_field::prng::*;
    use dgs_field::SeedTree;
    use dgs_hypergraph::generators::{churn_stream, gnp, ChurnConfig};
    use dgs_hypergraph::Hypergraph;
    use dgs_sketch::Profile;

    fn forest(n: usize, seed: u64) -> SpanningForestSketch {
        let space = EdgeSpace::graph(n).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        SpanningForestSketch::new_full(space, &SeedTree::new(seed), params)
    }

    fn cfg(spill: usize, unspill: usize) -> HybridConfig {
        HybridConfig {
            spill_threshold: spill,
            unspill_threshold: unspill,
            max_tracked_support: 4 * spill,
        }
    }

    fn encoded<T: Codec>(t: &T) -> Vec<u8> {
        let mut w = Writer::new();
        t.encode(&mut w);
        w.into_bytes()
    }

    fn pair(u: u32, v: u32) -> HyperEdge {
        HyperEdge::pair(u, v)
    }

    #[test]
    fn resident_decode_is_exact_and_never_fails() {
        let mut h = HybridConnectivitySketch::new(forest(8, 1), cfg(64, 8));
        for (u, v) in [(0, 1), (1, 2), (4, 5), (6, 7)] {
            h.try_update(&pair(u, v), 1).unwrap();
        }
        assert!(h.is_resident());
        assert_eq!(h.support(), Some(4));
        assert_eq!(h.try_component_count().unwrap(), 4); // {0,1,2} {3} {4,5} {6,7}
        assert_eq!(
            h.try_component_labels().unwrap(),
            vec![0, 0, 0, 3, 4, 4, 6, 6]
        );
        let forest_edges = h.try_spanning_forest().unwrap();
        assert_eq!(forest_edges.len(), 4);
    }

    #[test]
    fn cancellation_never_counts_toward_spill() {
        let mut h = HybridConnectivitySketch::new(forest(16, 2), cfg(4, 1));
        // 100 insert+delete pairs over a rotating edge set: support never
        // exceeds 1, so the backend must stay resident with threshold 4.
        for i in 0..100u32 {
            let e = pair(i % 16, (i + 1) % 16);
            h.try_update(&e, 1).unwrap();
            h.try_update(&e, -1).unwrap();
        }
        assert!(h.is_resident());
        assert_eq!(h.support(), Some(0));
        assert_eq!(h.try_component_count().unwrap(), 16);
    }

    #[test]
    fn spill_lands_bit_identical_to_direct_sketch_ingest() {
        let n = 24;
        let seed = 0xC0DE;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Hypergraph::from_graph(&gnp(n, 0.3, &mut rng));
        let stream = churn_stream(&g, ChurnConfig::default(), &mut rng);

        let mut direct = forest(n, seed);
        let mut hybrid = HybridConnectivitySketch::new(forest(n, seed), cfg(8, 2));
        for u in &stream.updates {
            direct.try_update(&u.edge, u.op.delta()).unwrap();
            hybrid.try_update(&u.edge, u.op.delta()).unwrap();
        }
        assert!(
            !hybrid.is_resident(),
            "threshold 8 must spill on this stream"
        );
        assert_eq!(
            encoded(hybrid.sketch()),
            encoded(&direct),
            "spilled sketch must be bit-identical to direct ingestion"
        );
    }

    #[test]
    fn unspill_returns_the_sketch_to_the_zero_state() {
        let n = 16;
        let mut hybrid = HybridConnectivitySketch::new(forest(n, 7), cfg(4, 1));
        let edges: Vec<HyperEdge> = (0..8).map(|i| pair(i, i + 8)).collect();
        for e in &edges {
            hybrid.try_update(e, 1).unwrap();
        }
        assert_eq!(hybrid.mode(), HybridMode::Spilled);
        // Delete back down to one edge: crosses the low-water mark.
        for e in &edges[1..] {
            hybrid.try_update(e, -1).unwrap();
        }
        assert!(hybrid.is_resident(), "support 1 <= unspill threshold 1");
        assert_eq!(hybrid.support(), Some(1));
        // Every sketch cell subtracted back to zero: byte-identical to a
        // freshly built sketch from the same seed.
        assert_eq!(encoded(hybrid.sketch()), encoded(&forest(n, 7)));
        assert_eq!(hybrid.try_component_count().unwrap(), n - 1);
    }

    #[test]
    fn tracking_cap_drops_the_buffer_and_pins_the_sketch() {
        let n = 32;
        let mut hybrid = HybridConnectivitySketch::new(
            forest(n, 9),
            HybridConfig {
                spill_threshold: 4,
                unspill_threshold: 1,
                max_tracked_support: 6,
            },
        );
        let mut direct = forest(n, 9);
        let edges: Vec<HyperEdge> = (0..10).map(|i| pair(i, i + 16)).collect();
        for e in &edges {
            hybrid.try_update(e, 1).unwrap();
            direct.try_update(e, 1).unwrap();
        }
        assert_eq!(hybrid.mode(), HybridMode::Untracked);
        assert_eq!(hybrid.support(), None);
        // Deletions can no longer trigger an un-spill; the sketch stays
        // authoritative and still matches direct ingestion.
        for e in &edges[1..] {
            hybrid.try_update(e, -1).unwrap();
            direct.try_update(e, -1).unwrap();
        }
        assert_eq!(hybrid.mode(), HybridMode::Untracked);
        assert_eq!(encoded(hybrid.sketch()), encoded(&direct));
    }

    #[test]
    fn batched_path_is_byte_identical_to_scalar_across_spill_points() {
        let n = 20;
        let seed = 0xBA7C;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Hypergraph::from_graph(&gnp(n, 0.35, &mut rng));
        let stream = churn_stream(&g, ChurnConfig::default(), &mut rng);
        let pairs: Vec<(HyperEdge, i64)> = stream
            .updates
            .iter()
            .map(|u| (u.edge.clone(), u.op.delta()))
            .collect();

        for (spill, unspill) in [(5, 1), (17, 4), (64, 16)] {
            let mut scalar = HybridConnectivitySketch::new(forest(n, seed), cfg(spill, unspill));
            for (e, d) in &pairs {
                scalar.try_update(e, *d).unwrap();
            }
            let want = encoded(&scalar);
            for batch in [1usize, 3, 8, 64, 1024] {
                let mut hybrid =
                    HybridConnectivitySketch::new(forest(n, seed), cfg(spill, unspill));
                for chunk in pairs.chunks(batch) {
                    hybrid.try_update_batch(chunk).unwrap();
                }
                assert_eq!(
                    encoded(&hybrid),
                    want,
                    "spill {spill}, batch {batch}: batched != scalar"
                );
            }
        }
    }

    #[test]
    fn codec_roundtrips_every_mode() {
        let n = 16;
        let mut hybrid = HybridConnectivitySketch::new(forest(n, 3), cfg(4, 1));
        let snapshots = |h: &HybridConnectivitySketch| {
            let bytes = encoded(h);
            let back =
                HybridConnectivitySketch::decode(&mut Reader::new(&bytes)).expect("roundtrip");
            assert_eq!(encoded(&back), bytes, "re-encode must be bit-identical");
            assert_eq!(back.mode(), h.mode());
            assert_eq!(back.support(), h.support());
        };
        snapshots(&hybrid); // resident, empty
        for i in 0..3 {
            hybrid.try_update(&pair(i, i + 8), 1).unwrap();
        }
        snapshots(&hybrid); // resident, non-empty
        for i in 3..8 {
            hybrid.try_update(&pair(i, i + 8), 1).unwrap();
        }
        assert_eq!(hybrid.mode(), HybridMode::Spilled);
        snapshots(&hybrid);
        // Push support past the tracking cap (4 * spill = 16): the 8
        // doubled multiplicities keep support at 8, the 9 fresh path edges
        // take it to 17 > 16.
        for i in 0..8 {
            hybrid.try_update(&pair(i, i + 8), 1).unwrap();
        }
        for i in 0..9u32 {
            hybrid.try_update(&HyperEdge::pair(i, i + 1), 1).unwrap();
        }
        assert_eq!(hybrid.mode(), HybridMode::Untracked);
        snapshots(&hybrid);
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        let hybrid = HybridConnectivitySketch::new(forest(8, 5), cfg(4, 1));
        let good = encoded(&hybrid);
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = 0x00;
        assert!(HybridConnectivitySketch::decode(&mut Reader::new(&bad)).is_err());
        // Mode byte out of range (magic, 3 x u64 thresholds, then mode).
        let mut bad = good.clone();
        bad[1 + 24] = 9;
        assert!(HybridConnectivitySketch::decode(&mut Reader::new(&bad)).is_err());
        // Thresholds violating the hysteresis invariant.
        let mut bad = good;
        bad[1..9].copy_from_slice(&1u64.to_le_bytes()); // spill = 1 <= unspill
        assert!(HybridConnectivitySketch::decode(&mut Reader::new(&bad)).is_err());
    }

    #[test]
    fn rejects_exactly_what_the_sketch_rejects() {
        let mut hybrid = HybridConnectivitySketch::new(forest(8, 6), cfg(4, 1));
        let err = hybrid.try_update(&pair(0, 99), 1).unwrap_err();
        assert!(!err.is_retryable());
        // Batch rejection is atomic: nothing lands.
        let err = hybrid
            .try_update_batch(&[(pair(0, 1), 1), (pair(0, 99), 1)])
            .unwrap_err();
        assert!(!err.is_retryable());
        assert_eq!(hybrid.support(), Some(0));
    }

    #[test]
    fn metrics_count_spills_unspills_and_exact_decodes() {
        let reg = dgs_obs::Registry::new();
        let mut hybrid = HybridConnectivitySketch::new(forest(16, 8), cfg(3, 1));
        hybrid.set_sink(&reg.sink());
        assert_eq!(reg.gauge_value("dgs_core_hybrid_resident"), Some(1));
        let _ = hybrid.try_component_count().unwrap();
        for i in 0..4 {
            hybrid.try_update(&pair(i, i + 8), 1).unwrap();
        }
        assert_eq!(reg.gauge_value("dgs_core_hybrid_resident"), Some(0));
        assert_eq!(reg.counter_value("dgs_core_hybrid_spills"), Some(1));
        assert_eq!(
            reg.gauge_value("dgs_core_hybrid_buffer_bytes"),
            Some(4 * 16)
        );
        for i in 1..4 {
            hybrid.try_update(&pair(i, i + 8), -1).unwrap();
        }
        assert_eq!(reg.counter_value("dgs_core_hybrid_unspills"), Some(1));
        assert_eq!(reg.gauge_value("dgs_core_hybrid_resident"), Some(1));
        assert_eq!(reg.counter_value("dgs_core_hybrid_exact_decodes"), Some(1));
    }
}
