//! Exact s-sparse recovery by hashing into one-sparse cells and peeling.
//!
//! `rows` independent pairwise hash functions each scatter the coordinates
//! across `2s` one-sparse cells. If the net vector has at most `s` nonzero
//! coordinates, peeling (decode a one-sparse cell, subtract the recovered
//! item everywhere, repeat) recovers the support exactly with probability
//! `1 - 2^{-Ω(rows)}`; a residual nonzero cell after peeling certifies
//! failure, so the decoder never silently returns a wrong support — the
//! only error mode left is a fingerprint false positive (`<= d/p` per cell).
//!
//! # Storage layout
//!
//! Cells are stored struct-of-arrays: three parallel `Vec<Fp>` level tables
//! (`w` total weights, `s` index-weighted sums, `f` fingerprints), each
//! `rows x cols` row-major. A batched update touches each table with a
//! unit-stride pattern per accumulator instead of striding 24-byte
//! `OneSparse` structs, and the batch planner
//! ([`plan_into`](SparseRecovery::plan_into) /
//! [`apply_soa`](SparseRecovery::apply_soa)) hoists the `z^index`
//! exponentiation and bucket hashing out of the per-cell loop entirely.
//! The [`Codec`](dgs_field::Codec) encoding is versioned: every frame
//! starts with a sentinel word and a version, and a frame without them
//! (such as the retired array-of-`OneSparse` layout) is a typed
//! [`CodecError`](dgs_field::CodecError).

use dgs_field::{Fingerprinter, Fp, KWiseHash, PowTable, SeedTree};
use dgs_obs::{Counter, Histogram, MetricsSink};

use crate::error::{SketchError, SketchResult};
use crate::one_sparse::{OneSparse, OneSparseDecode};

/// Sentinel marking the versioned SoA encoding. The retired pre-SoA layout
/// began with the dimension, which the workspace caps at `2^60`, so such a
/// frame can never pass for this one.
const SOA_SENTINEL: u64 = u64::MAX;
/// Version number of the SoA encoding (room for future layouts).
const SOA_VERSION: u64 = 1;

/// Metric handles for one structure; null (free) by default, shared across
/// clones so aggregated copies keep feeding the same counters. Excluded from
/// the codec — a decoded structure starts unobserved.
#[derive(Clone, Debug, Default)]
struct SparseMetrics {
    decode_attempts: Counter,
    decode_successes: Counter,
    decode_failures: Counter,
    one_sparse_rejects: Counter,
    /// Span of the fingerprint power-table build + `pow` fill per
    /// `plan_into` call (the `Fp::mul_batch` lane kernel's hot caller).
    kernel_pow_ns: Histogram,
    /// Span of the per-row `bucket_batch` hashing per `plan_into` call
    /// (the `KWiseHash::eval_batch` lane kernel's hot caller).
    kernel_bucket_ns: Histogram,
}

impl SparseMetrics {
    fn resolve(sink: &MetricsSink) -> SparseMetrics {
        SparseMetrics {
            decode_attempts: sink.counter("dgs_sketch_sparse_decode_attempts"),
            decode_successes: sink.counter("dgs_sketch_sparse_decode_successes"),
            decode_failures: sink.counter("dgs_sketch_sparse_decode_failures"),
            one_sparse_rejects: sink.counter("dgs_sketch_sparse_one_sparse_rejects"),
            kernel_pow_ns: sink.histogram("dgs_sketch_kernel_pow_table_ns"),
            kernel_bucket_ns: sink.histogram("dgs_sketch_kernel_bucket_batch_ns"),
        }
    }
}

/// Reusable peeling scratch for [`SparseRecovery`] decodes and the
/// ℓ0-sampler walks built on them.
///
/// Holds one level's working cells, the lazy `u128` sums that load a
/// component's level into them, the per-cell classification cache with
/// its weight inverses, the power table of the last fingerprint point
/// verified against, and the recovered support. Buffers are cleared
/// (never shrunk) between uses, so one scratch reused across many decodes
/// allocates only until the high-water mark is reached, and that mark is
/// one level's cells however many levels or samplers it serves.
#[derive(Clone, Debug, Default)]
pub struct PeelScratch {
    /// Working cells being drained by the current peel.
    pub(crate) work: Vec<OneSparse>,
    /// Lazy `[W | S | F]` sums of the parts being loaded into `work`.
    acc: Vec<u128>,
    /// Per-cell classification cache, current for untouched cells.
    cls: Vec<Cls>,
    /// Per-cell inverse of the total weight `W`; fresh whenever the cell's
    /// classification is [`Cls::Unknown`].
    cell_winv: Vec<Fp>,
    /// Flat cell ids of the cells whose inverses are being (re)batched.
    cand: Vec<u32>,
    /// Candidate total weights, replaced by their inverses in place.
    winv: Vec<Fp>,
    /// Prefix products for [`Fp::inv_batch`].
    prefix: Vec<Fp>,
    /// Powers of the fingerprint point last verified against. Every
    /// sampler of one seed family shares its per-level points, so one
    /// table serves a whole Borůvka round's samples of a level; it is
    /// rebuilt only when the point changes.
    pows: Option<PowTable>,
    /// Nanoseconds spent loading summed levels since the last
    /// [`take_fold_ns`](Self::take_fold_ns).
    fold_ns: u64,
    /// Support recovered by the last successful peel, sorted by index.
    pub recovered: Vec<(u64, i64)>,
}

impl PeelScratch {
    /// Returns and resets the time spent folding component levels
    /// ([`L0Sampler::sample_sum`](crate::L0Sampler::sample_sum)) since the
    /// previous call. Peeling is not included.
    pub fn take_fold_ns(&mut self) -> u64 {
        std::mem::take(&mut self.fold_ns)
    }

    /// Adds `ns` of folding time (see [`take_fold_ns`](Self::take_fold_ns)).
    pub(crate) fn add_fold_ns(&mut self, ns: u64) {
        self.fold_ns += ns;
    }
}

/// Adds the `[W | S | F]` tables of the first `K` of `parts` into the
/// `3n` accumulators `acc`, one pass per table reading all `K` parts
/// ([`Fp::accumulate_batch`]); returns the parts left over.
fn accumulate_parts<'p, 'a, const K: usize>(
    acc: &mut [u128],
    n: usize,
    parts: &'p [&'a SparseRecovery],
) -> &'p [&'a SparseRecovery] {
    let (mine, rest) = parts.split_at(K);
    let mine: [&SparseRecovery; K] = std::array::from_fn(|k| mine[k]);
    Fp::accumulate_batch(&mut acc[..n], mine.map(|p| &p.w[..]));
    Fp::accumulate_batch(&mut acc[n..2 * n], mine.map(|p| &p.s[..]));
    Fp::accumulate_batch(&mut acc[2 * n..], mine.map(|p| &p.f[..]));
    rest
}

/// The weight inverse of a candidate cell: from the compile-time table
/// when `|W|` is small (every simple stream), else queued for the next
/// [`Fp::inv_batch`] — weighted multigraph streams reach this fallback.
#[inline]
fn queue_inverse(i: usize, w: Fp, cell_winv: &mut [Fp], cand: &mut Vec<u32>, winv: &mut Vec<Fp>) {
    match w.small_inv() {
        Some(inv) => cell_winv[i] = inv,
        None => {
            cand.push(i as u32);
            winv.push(w);
        }
    }
}

/// Cached one-sparse classification of a working cell. There is no cached
/// "verified" state: a chosen cell is subtracted from itself the same pass
/// (its state is the unit's state), so a verification is always consumed
/// immediately.
#[derive(Clone, Copy, Debug)]
enum Cls {
    /// Not yet examined since its last change; `cell_winv` is fresh.
    Unknown,
    /// Known not to verify (zero, zero-`W`, or failed verification).
    NotOne,
}

/// An s-sparse recovery structure.
#[derive(Clone, Debug)]
pub struct SparseRecovery {
    fper: Fingerprinter,
    hashes: Vec<KWiseHash>,
    /// `rows x cols` total weights, row-major.
    w: Vec<Fp>,
    /// `rows x cols` index-weighted sums, row-major.
    s: Vec<Fp>,
    /// `rows x cols` fingerprints, row-major.
    f: Vec<Fp>,
    cols: usize,
    sparsity: usize,
    dimension: u64,
    metrics: SparseMetrics,
}

impl SparseRecovery {
    /// A structure recovering up to `sparsity` nonzeros over `[0, dimension)`.
    pub fn new(seeds: &SeedTree, dimension: u64, sparsity: usize, rows: usize) -> SparseRecovery {
        assert!(sparsity >= 1 && rows >= 1);
        let cols = 2 * sparsity;
        let fper = Fingerprinter::new(&seeds.child(u64::MAX));
        let hashes: Vec<KWiseHash> = (0..rows)
            .map(|r| KWiseHash::new(&seeds.child(r as u64), 2))
            .collect();
        let cells = rows * cols;
        SparseRecovery {
            fper,
            hashes,
            w: vec![Fp::ZERO; cells],
            s: vec![Fp::ZERO; cells],
            f: vec![Fp::ZERO; cells],
            cols,
            sparsity,
            dimension,
            metrics: SparseMetrics::default(),
        }
    }

    /// Attach metric handles resolved from `sink` (decode attempt / success /
    /// failure counters and one-sparse verification rejects, under
    /// `dgs_sketch_sparse_*`). The default is the null sink: all recording
    /// is free. Handles are shared by clones of this structure.
    pub fn set_sink(&mut self, sink: &MetricsSink) {
        self.metrics = SparseMetrics::resolve(sink);
    }

    /// The sparsity bound `s`.
    pub fn sparsity(&self) -> usize {
        self.sparsity
    }

    /// The number of hash rows.
    pub fn rows(&self) -> usize {
        self.hashes.len()
    }

    /// Applies `(index, delta)` to every row (one `z^index` exponentiation
    /// shared across rows). Rejects out-of-range indices with
    /// [`SketchError::InvalidInput`] — the check runs in release builds
    /// too, so a malformed stream can never scribble into the wrong cells.
    #[inline]
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn update(&mut self, index: u64, delta: i64) -> SketchResult<()> {
        if index >= self.dimension {
            return Err(SketchError::invalid(format!(
                "index {index} out of range for dimension {}",
                self.dimension
            )));
        }
        let term = self.fper.term(index, delta);
        let d = Fp::from_i64(delta);
        let sd = d.mul(Fp::new(index));
        for (r, h) in self.hashes.iter().enumerate() {
            let c = h.bucket(index, self.cols);
            let cell = r * self.cols + c;
            self.w[cell] += d;
            self.s[cell] += sd;
            self.f[cell] += term;
        }
        Ok(())
    }

    /// Batch planner: for each key (assumed already range-checked), writes
    /// `z^key` into `pows[i]` and the per-row bucket of key `i` into
    /// `buckets[i * rows .. (i + 1) * rows]`. The fingerprint exponentiations
    /// share one windowed [power table](dgs_field::PowTable) and the bucket
    /// hashing runs through [`KWiseHash::bucket_batch`] — this is where the
    /// batched ingest path earns its speedup over per-update
    /// [`update`](Self::update) calls.
    pub fn plan_into(&self, keys: &[u64], pows: &mut [Fp], buckets: &mut [u32]) {
        let rows = self.hashes.len();
        assert_eq!(pows.len(), keys.len(), "plan_into pows length mismatch");
        assert_eq!(
            buckets.len(),
            keys.len() * rows,
            "plan_into buckets length mismatch"
        );
        let max = keys.iter().copied().max().unwrap_or(0);
        debug_assert!(keys.iter().all(|&k| k < self.dimension));
        let pow_timer = self.metrics.kernel_pow_ns.start_timer();
        let table = self.fper.power_table(max);
        for (p, &k) in pows.iter_mut().zip(keys) {
            *p = table.pow(k);
        }
        pow_timer.observe();
        let bucket_timer = self.metrics.kernel_bucket_ns.start_timer();
        let mut scratch = vec![0usize; keys.len()];
        for (r, h) in self.hashes.iter().enumerate() {
            h.bucket_batch(keys, self.cols, &mut scratch);
            for (i, &b) in scratch.iter().enumerate() {
                buckets[i * rows + r] = b as u32;
            }
        }
        bucket_timer.observe();
    }

    /// Applies one planned update: `d` is the embedded delta, `sd` the
    /// precomputed `delta * index`, `term` the fingerprint contribution
    /// `delta * z^index`, and `row_buckets` the per-row cell columns from
    /// [`plan_into`](Self::plan_into). Exactly equivalent to
    /// [`update`](Self::update) on the same `(index, delta)`.
    #[inline]
    pub fn apply_soa(&mut self, d: Fp, sd: Fp, term: Fp, row_buckets: &[u32]) {
        debug_assert_eq!(row_buckets.len(), self.hashes.len());
        for (r, &c) in row_buckets.iter().enumerate() {
            let cell = r * self.cols + c as usize;
            self.w[cell] += d;
            self.s[cell] += sd;
            self.f[cell] += term;
        }
    }

    fn check_compatible(&self, rhs: &SparseRecovery) -> SketchResult<()> {
        if self.w.len() != rhs.w.len() || self.dimension != rhs.dimension {
            return Err(SketchError::invalid(format!(
                "sketch shape mismatch: {} vs {} cells, dimension {} vs {}",
                self.w.len(),
                rhs.w.len(),
                self.dimension,
                rhs.dimension
            )));
        }
        Ok(())
    }

    /// Cell-wise sum with a same-seeded structure.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn add_assign_sketch(&mut self, rhs: &SparseRecovery) -> SketchResult<()> {
        self.check_compatible(rhs)?;
        Fp::add_batch(&mut self.w, &rhs.w);
        Fp::add_batch(&mut self.s, &rhs.s);
        Fp::add_batch(&mut self.f, &rhs.f);
        Ok(())
    }

    /// Cell-wise difference with a same-seeded structure.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn sub_assign_sketch(&mut self, rhs: &SparseRecovery) -> SketchResult<()> {
        self.check_compatible(rhs)?;
        Fp::sub_batch(&mut self.w, &rhs.w);
        Fp::sub_batch(&mut self.s, &rhs.s);
        Fp::sub_batch(&mut self.f, &rhs.f);
        Ok(())
    }

    /// True iff every cell is zero (the net vector hashes to nothing).
    pub fn is_zero(&self) -> bool {
        self.w.iter().all(|x| x.is_zero())
            && self.s.iter().all(|x| x.is_zero())
            && self.f.iter().all(|x| x.is_zero())
    }

    /// The cells in flat order, reassembled from the level tables.
    fn cells(&self) -> impl Iterator<Item = OneSparse> + '_ {
        self.w
            .iter()
            .zip(&self.s)
            .zip(&self.f)
            .map(|((&w, &s), &f)| OneSparse::from_parts(w, s, f))
    }

    /// Attempts exact support recovery by peeling. Returns `Some(support)`
    /// — pairs `(index, net_weight)` sorted by index — iff peeling drains
    /// every cell; `None` means the vector (almost surely) has more than
    /// `s` nonzeros or the hashing was unlucky.
    pub fn decode(&self) -> Option<Vec<(u64, i64)>> {
        let mut scratch = PeelScratch::default();
        if self.decode_into(&mut scratch) {
            Some(std::mem::take(&mut scratch.recovered))
        } else {
            None
        }
    }

    /// Peels this structure's own cells into a reusable scratch — the
    /// allocation-free equivalent of [`decode`](Self::decode). On success
    /// returns `true` with the sorted support left in `scratch.recovered`.
    pub fn decode_into(&self, scratch: &mut PeelScratch) -> bool {
        scratch.work.clear();
        scratch.work.extend(self.cells());
        self.peel(scratch)
    }

    /// Loads the cell-wise sum of `parts` into the scratch's working
    /// cells. `parts` must be drawn from `self`'s seeds (the caller checks
    /// the seed family); a part of another shape is
    /// [`SketchError::InvalidInput`], as in
    /// [`add_assign_sketch`](Self::add_assign_sketch).
    ///
    /// No part leaves the cells zero and one part is copied as is, so
    /// [`decode_into`](Self::decode_into) is the one-part case. More parts
    /// are summed in lazy `u128` accumulators and reduced once per cell;
    /// field addition is exact, so the loaded cells equal the repeated
    /// `add_assign_sketch` sum bit for bit.
    pub(crate) fn load_sum<'a>(
        &self,
        mut parts: impl Iterator<Item = &'a SparseRecovery>,
        scratch: &mut PeelScratch,
    ) -> SketchResult<()> {
        let n = self.w.len();
        scratch.work.clear();
        let Some(first) = parts.next() else {
            scratch.work.resize(n, OneSparse::new());
            return Ok(());
        };
        self.check_compatible(first)?;
        let Some(second) = parts.next() else {
            scratch.work.extend(first.cells());
            return Ok(());
        };
        let acc = &mut scratch.acc;
        acc.clear();
        acc.resize(3 * n, 0);
        // Up to eight parts per pass: the member levels are small scattered
        // allocations, so reading several at once keeps more cache-line
        // streams in flight than one at a time.
        let mut group = [first; 8];
        let mut held = 0;
        for part in [first, second].into_iter().chain(parts) {
            self.check_compatible(part)?;
            group[held] = part;
            held += 1;
            if held == group.len() {
                accumulate_parts::<8>(acc, n, &group);
                held = 0;
            }
        }
        let mut rest = &group[..held];
        while !rest.is_empty() {
            rest = match rest.len() {
                4.. => accumulate_parts::<4>(acc, n, rest),
                2 | 3 => accumulate_parts::<2>(acc, n, rest),
                _ => accumulate_parts::<1>(acc, n, rest),
            };
        }
        let (w, sf) = acc.split_at(n);
        let (s, f) = sf.split_at(n);
        scratch
            .work
            .extend(w.iter().zip(s).zip(f).map(|((&w, &s), &f)| {
                OneSparse::from_parts(Fp::reduce_u128(w), Fp::reduce_u128(s), Fp::reduce_u128(f))
            }));
        Ok(())
    }

    /// The historical peeling loop, kept verbatim as the sequential
    /// baseline the optimized decode paths are benchmarked against (E19)
    /// and tested equivalent to: a fresh `Vec<OneSparse>` per call, and a
    /// Fermat inversion (`Fp::inv`, a ~61-step exponentiation) per nonzero
    /// cell per pass via [`OneSparse::decode`], where [`peel`](Self::peel)
    /// batches the pass's inversions. Inverses in a field are unique and
    /// the first-verifying-cell choice rule is the same, so the recovered
    /// support is bit-identical to [`decode`](Self::decode).
    pub fn decode_legacy(&self) -> Option<Vec<(u64, i64)>> {
        self.metrics.decode_attempts.inc();
        let mut work: Vec<OneSparse> = self.cells().collect();
        let mut recovered: Vec<(u64, i64)> = Vec::new();
        // Each peel removes one coordinate; s+1 coordinates can never drain.
        let max_peels = self.sparsity * 2 + 2;
        loop {
            if work.iter().all(|c| c.is_zero()) {
                recovered.sort_unstable();
                self.metrics.decode_successes.inc();
                return Some(recovered);
            }
            if recovered.len() >= max_peels {
                self.metrics.decode_failures.inc();
                return None;
            }
            let mut progress = false;
            for i in 0..work.len() {
                if let OneSparseDecode::One { index, weight } =
                    work[i].decode(&self.fper, self.dimension)
                {
                    // Subtract the item from every row.
                    let mut unit = OneSparse::new();
                    unit.update(index, weight, &self.fper);
                    for (r, h) in self.hashes.iter().enumerate() {
                        let c = h.bucket(index, self.cols);
                        work[r * self.cols + c].sub_assign(&unit);
                    }
                    recovered.push((index, weight));
                    progress = true;
                    break;
                }
            }
            if !progress {
                // Peeling stalled: every nonzero cell failed one-sparse
                // verification. Count those rejects (cold path only — the
                // scan never runs on successful decodes).
                if self.metrics.one_sparse_rejects.is_live() {
                    let rejects = work
                        .iter()
                        .filter(|c| {
                            matches!(
                                c.decode(&self.fper, self.dimension),
                                OneSparseDecode::Collision
                            )
                        })
                        .count();
                    self.metrics.one_sparse_rejects.add(rejects as u64);
                }
                self.metrics.decode_failures.inc();
                return None;
            }
        }
    }

    /// The shared peeling core: drains `scratch.work`, leaving the sorted
    /// support in `scratch.recovered` on success.
    ///
    /// The historical loop re-examined every cell on every pass: a Fermat
    /// inversion per nonzero cell scanned, a `z^index` exponentiation per
    /// verification and another per subtracted unit, all repeated from
    /// scratch each pass. This core removes each of those costs without
    /// changing a single classification decision:
    ///
    /// * **Table inverses** — a candidate whose total weight has `|W| <=`
    ///   [`SMALL_INV_BOUND`](dgs_field::fp61::SMALL_INV_BOUND) (every cell
    ///   of a simple stream) takes `W^-1` from [`Fp::small_inv`]'s
    ///   compile-time table. Larger weights, as weighted multigraph
    ///   streams produce, are inverted with one Montgomery batch
    ///   ([`Fp::inv_batch`]) per pass. Either way the inverse is cached per
    ///   cell, and after a subtraction only the `rows` touched cells are
    ///   re-inverted.
    /// * **Table powers** — verification reads `z^index` from a windowed
    ///   [`PowTable`] of the level's fingerprint point, kept in the scratch
    ///   and rebuilt only when the point changes, instead of a
    ///   square-and-multiply ladder per candidate.
    /// * **Lazy, cached classification** — cells are still scanned in
    ///   order and the pass still takes the *first* cell that verifies
    ///   (the historical choice rule), but a cell examined once keeps its
    ///   verdict until a subtraction touches it, so later passes skip
    ///   straight over known collisions, and cells past the chosen one
    ///   are never examined at all — no eager verification pows.
    /// * **No unit exponentiation** — a cell that verifies as one-sparse
    ///   holds *exactly* the unit vector's state: `W = weight`,
    ///   `S = weight * index`, and `F = weight * z^index` (that equality
    ///   is what verification checked), so the unit to subtract is the
    ///   cell itself, and the historical `z^index` reconstruction is pure
    ///   overhead.
    ///
    /// Classification is a pure function of a cell's current `(W, S, F)`
    /// state, field inverses are unique and table powers equal `z.pow`, so
    /// the decoded support is bit-identical to
    /// [`decode_legacy`](Self::decode_legacy).
    pub(crate) fn peel(&self, scratch: &mut PeelScratch) -> bool {
        self.metrics.decode_attempts.inc();
        let PeelScratch {
            work,
            cls,
            cell_winv,
            cand,
            winv,
            prefix,
            pows,
            recovered,
            ..
        } = scratch;
        recovered.clear();
        // Each peel removes one coordinate; s+1 coordinates can never drain.
        let max_peels = self.sparsity * 2 + 2;
        let ncells = work.len();
        cls.clear();
        cls.resize(ncells, Cls::Unknown);
        cell_winv.clear();
        cell_winv.resize(ncells, Fp::ZERO);
        // Candidates are nonzero cells with nonzero total weight (a zero-W
        // nonzero cell is a collision by definition, as in
        // `OneSparse::decode`); their inverses are fetched here and kept
        // fresh per cell thereafter.
        let mut nonzero = 0usize;
        cand.clear();
        winv.clear();
        for (i, c) in work.iter().enumerate() {
            if c.is_zero() {
                cls[i] = Cls::NotOne;
                continue;
            }
            nonzero += 1;
            let w = c.parts().0;
            if w.is_zero() {
                cls[i] = Cls::NotOne;
            } else {
                queue_inverse(i, w, cell_winv, cand, winv);
            }
        }
        if nonzero == 0 {
            self.metrics.decode_successes.inc();
            return true;
        }
        Fp::inv_batch(winv, prefix);
        for (k, &i) in cand.iter().enumerate() {
            cell_winv[i as usize] = winv[k];
        }
        let table = self.pow_table(pows);
        loop {
            if nonzero == 0 {
                recovered.sort_unstable();
                self.metrics.decode_successes.inc();
                return true;
            }
            if recovered.len() >= max_peels {
                self.metrics.decode_failures.inc();
                return false;
            }
            // First cell in order that verifies as one-sparse, resolving
            // cached-unknown cells on demand.
            let mut found = None;
            for i in 0..ncells {
                match cls[i] {
                    Cls::NotOne => {}
                    Cls::Unknown => match self.classify(&work[i], cell_winv[i], table) {
                        Some((index, weight)) => {
                            found = Some((i, index, weight));
                            break;
                        }
                        None => cls[i] = Cls::NotOne,
                    },
                }
            }
            let Some((ci, index, weight)) = found else {
                // Peeling stalled: every nonzero cell failed one-sparse
                // verification, so each is a reject (cold path only — the
                // count never runs on successful decodes).
                if self.metrics.one_sparse_rejects.is_live() {
                    self.metrics.one_sparse_rejects.add(nonzero as u64);
                }
                self.metrics.decode_failures.inc();
                return false;
            };
            // The verified cell's state is the unit vector's state, so it
            // doubles as the value to subtract from every row (including
            // itself, which it zeroes). Only the touched cells can have
            // changed, so only they are re-inverted and re-examined.
            let unit = work[ci];
            cand.clear();
            winv.clear();
            for (r, h) in self.hashes.iter().enumerate() {
                let i = r * self.cols + h.bucket(index, self.cols);
                let was_zero = work[i].is_zero();
                work[i].sub_assign(&unit);
                let cell = &work[i];
                match (was_zero, cell.is_zero()) {
                    (false, true) => nonzero -= 1,
                    (true, false) => nonzero += 1,
                    _ => {}
                }
                if cell.is_zero() || cell.parts().0.is_zero() {
                    cls[i] = Cls::NotOne;
                } else {
                    cls[i] = Cls::Unknown;
                    queue_inverse(i, cell.parts().0, cell_winv, cand, winv);
                }
            }
            Fp::inv_batch(winv, prefix);
            for (k, &i) in cand.iter().enumerate() {
                cell_winv[i as usize] = winv[k];
            }
            recovered.push((index, weight));
        }
    }

    /// The power table of this structure's fingerprint point over
    /// `[0, dimension)`, reusing `slot`'s table when it already covers
    /// that point and range.
    fn pow_table<'s>(&self, slot: &'s mut Option<PowTable>) -> &'s PowTable {
        let max = self.dimension.saturating_sub(1);
        let z = self.fper.point();
        if !matches!(slot, Some(t) if t.point() == z && t.max_index() >= max) {
            *slot = None;
        }
        slot.get_or_insert_with(|| self.fper.power_table(max))
    }

    /// Classifies one cell given the precomputed inverse of its total
    /// weight and the power table of the fingerprint point:
    /// `Some((index, weight))` iff the cell verifies as one-sparse —
    /// exactly the `One` arm of [`OneSparse::decode`]. The caller
    /// guarantees the cell is nonzero with nonzero `W`.
    #[inline]
    fn classify(&self, cell: &OneSparse, winv: Fp, pows: &PowTable) -> Option<(u64, i64)> {
        let (w, s, f) = cell.parts();
        let index = s.mul(winv).value();
        if index >= self.dimension || pows.expected(index, w) != f {
            return None; // collision
        }
        Some((index, w.to_i64()))
    }

    /// Memory footprint in bytes (cells + hash coefficients + fingerprint).
    pub fn size_bytes(&self) -> usize {
        self.w.len() * OneSparse::size_bytes()
            + self.hashes.iter().map(|h| h.size_bytes()).sum::<usize>()
            + self.fper.size_bytes()
    }
}

impl dgs_field::Codec for SparseRecovery {
    fn encode(&self, w: &mut dgs_field::Writer) {
        w.put_u64(SOA_SENTINEL);
        w.put_u64(SOA_VERSION);
        w.put_u64(self.dimension);
        w.put_usize(self.sparsity);
        self.fper.encode(w);
        self.hashes.to_vec().encode(w);
        self.w.encode(w);
        self.s.encode(w);
        self.f.encode(w);
    }
    fn decode(r: &mut dgs_field::Reader<'_>) -> Result<Self, dgs_field::CodecError> {
        let sentinel = r.get_u64()?;
        if sentinel != SOA_SENTINEL {
            return Err(dgs_field::CodecError {
                offset: 0,
                message: format!(
                    "sparse-recovery frame does not start with the SoA sentinel \
                     (first word {sentinel:#x})"
                ),
            });
        }
        let version = r.get_u64()?;
        if version != SOA_VERSION {
            return Err(dgs_field::CodecError {
                offset: 0,
                message: format!("unknown sparse-recovery encoding version {version}"),
            });
        }
        let dimension = r.get_u64()?;
        let sparsity = r.get_len(1 << 30)?.max(1);
        let fper = Fingerprinter::decode(r)?;
        let hashes: Vec<KWiseHash> = Vec::decode(r)?;
        let w: Vec<Fp> = Vec::decode(r)?;
        let s: Vec<Fp> = Vec::decode(r)?;
        let f: Vec<Fp> = Vec::decode(r)?;
        let cols = 2 * sparsity;
        if hashes.is_empty()
            || w.len() != hashes.len() * cols
            || s.len() != w.len()
            || f.len() != w.len()
        {
            return Err(dgs_field::CodecError {
                offset: 0,
                message: format!(
                    "inconsistent sparse-recovery shape: {} hashes, {}/{}/{} cells, {} cols",
                    hashes.len(),
                    w.len(),
                    s.len(),
                    f.len(),
                    cols
                ),
            });
        }
        Ok(SparseRecovery {
            fper,
            hashes,
            w,
            s,
            f,
            cols,
            sparsity,
            dimension,
            metrics: SparseMetrics::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_field::prng::*;
    use dgs_field::{Codec, Reader, Writer};

    const D: u64 = 1 << 30;

    fn sr(label: u64, s: usize) -> SparseRecovery {
        SparseRecovery::new(&SeedTree::new(9).child(label), D, s, 6)
    }

    #[test]
    fn empty_decodes_empty() {
        assert_eq!(sr(0, 4).decode(), Some(vec![]));
    }

    #[test]
    fn recovers_small_support_exactly() {
        let mut s = sr(1, 4);
        s.update(100, 1).unwrap();
        s.update(2000, -2).unwrap();
        s.update(30, 3).unwrap();
        assert_eq!(s.decode(), Some(vec![(30, 3), (100, 1), (2000, -2)]));
    }

    #[test]
    fn cancellation_invisible() {
        let mut s = sr(2, 4);
        s.update(5, 1).unwrap();
        s.update(5, -1).unwrap();
        s.update(77, 1).unwrap();
        assert!(!s.is_zero());
        assert_eq!(s.decode(), Some(vec![(77, 1)]));
    }

    #[test]
    fn overfull_returns_none_not_garbage() {
        let mut s = sr(3, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut truth = std::collections::BTreeSet::new();
        while truth.len() < 64 {
            truth.insert(rng.gen_range(0..D));
        }
        for &i in &truth {
            s.update(i, 1).unwrap();
        }
        // 64 nonzeros in a 4-sparse structure: peeling may recover a few
        // items before stalling, but must not claim full success.
        assert_eq!(s.decode(), None);
    }

    #[test]
    fn boundary_sparsity_succeeds_with_high_probability() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut success = 0;
        let trials = 100;
        for t in 0..trials {
            let mut s = sr(100 + t, 8);
            let mut truth = std::collections::BTreeMap::new();
            while truth.len() < 8 {
                truth.insert(rng.gen_range(0..D), 1i64);
            }
            for (&i, &w) in &truth {
                s.update(i, w).unwrap();
            }
            if let Some(out) = s.decode() {
                assert_eq!(out, truth.into_iter().collect::<Vec<_>>(), "trial {t}");
                success += 1;
            }
        }
        assert!(
            success >= 95,
            "only {success}/{trials} full-sparsity decodes"
        );
    }

    #[test]
    fn large_weights_take_the_batch_inverse_fallback() {
        // Weights past the inverse table's bound (either sign) must peel
        // through the `Fp::inv_batch` fallback to the same support as the
        // historical Fermat loop, alone and mixed with table-sized ones.
        let bound = dgs_field::fp61::SMALL_INV_BOUND as i64;
        let mut rng = StdRng::seed_from_u64(4);
        for trial in 0..40 {
            let mut s = sr(300 + trial, 8);
            for _ in 0..rng.gen_range(1..12) {
                let w = *[1, -1, bound, -bound, bound + 1, -(bound + 1), 1 << 20, -7]
                    .choose(&mut rng)
                    .unwrap();
                s.update(rng.gen_range(0..D), w).unwrap();
            }
            assert_eq!(s.decode(), s.decode_legacy(), "trial {trial}");
        }
    }

    #[test]
    fn table_verification_matches_fingerprinter() {
        // `classify` reads z^index from the scratch's power table; its
        // verdict must be `OneSparse::decode`'s on one-sparse cells and
        // on collisions alike.
        let s = sr(40, 4);
        let mut pows = None;
        let table = s.pow_table(&mut pows);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let mut cell = OneSparse::new();
            for _ in 0..rng.gen_range(1..3) {
                cell.update(
                    rng.gen_range(0..D),
                    *[1i64, -1, 3].choose(&mut rng).unwrap(),
                    &s.fper,
                );
            }
            let (w, ..) = cell.parts();
            if w.is_zero() {
                continue;
            }
            let got = s.classify(&cell, w.inv(), table);
            let want = match cell.decode(&s.fper, D) {
                OneSparseDecode::One { index, weight } => Some((index, weight)),
                _ => None,
            };
            assert_eq!(got, want);
        }
        // A structure with another fingerprint point replaces the table.
        let other = sr(41, 4);
        assert_eq!(other.pow_table(&mut pows).point(), other.fper.point());
    }

    #[test]
    fn linearity_subtraction_peels_known_edges() {
        // The Section 4.2.1 pattern: recover E_1 from B(G), then decode
        // B(G) - B(E_1) for the rest.
        let seeds = SeedTree::new(9).child(500);
        let mut total = SparseRecovery::new(&seeds, D, 4, 6);
        for i in [10u64, 20, 30, 40] {
            total.update(i, 1).unwrap();
        }
        let mut known = SparseRecovery::new(&seeds, D, 4, 6);
        known.update(10, 1).unwrap();
        known.update(20, 1).unwrap();
        let mut rest = total.clone();
        rest.sub_assign_sketch(&known).unwrap();
        assert_eq!(rest.decode(), Some(vec![(30, 1), (40, 1)]));
        // And adding back restores the original support.
        rest.add_assign_sketch(&known).unwrap();
        assert_eq!(
            rest.decode(),
            Some(vec![(10, 1), (20, 1), (30, 1), (40, 1)])
        );
    }

    #[test]
    fn mismatched_shapes_are_invalid_input() {
        let mut a = sr(7, 4);
        let b = sr(8, 5);
        let err = a.add_assign_sketch(&b).unwrap_err();
        assert!(!err.is_retryable());
    }

    #[test]
    fn size_accounting_scales_with_parameters() {
        let small = sr(9, 4);
        let big = sr(10, 16);
        assert!(big.size_bytes() > small.size_bytes());
        assert_eq!(
            small.size_bytes(),
            6 * 8 * OneSparse::size_bytes() + 6 * 16 + 8
        );
    }

    #[test]
    fn planned_apply_matches_scalar_update() {
        let mut scalar = sr(20, 4);
        let mut planned = sr(20, 4);
        let entries: Vec<(u64, i64)> = vec![(3, 1), (900, -2), (3, -1), (D - 1, 5), (0, 1)];
        for &(i, d) in &entries {
            scalar.update(i, d).unwrap();
        }
        let keys: Vec<u64> = entries.iter().map(|e| e.0).collect();
        let rows = planned.rows();
        let mut pows = vec![Fp::ZERO; keys.len()];
        let mut buckets = vec![0u32; keys.len() * rows];
        planned.plan_into(&keys, &mut pows, &mut buckets);
        for (i, &(key, delta)) in entries.iter().enumerate() {
            let d = Fp::from_i64(delta);
            planned.apply_soa(
                d,
                d.mul(Fp::new(key)),
                d.mul(pows[i]),
                &buckets[i * rows..(i + 1) * rows],
            );
        }
        let (mut wa, mut wb) = (Writer::new(), Writer::new());
        scalar.encode(&mut wa);
        planned.encode(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn versioned_codec_round_trips() {
        let mut s = sr(21, 4);
        for (i, d) in [(10u64, 1i64), (20, -3), (1 << 29, 7)] {
            s.update(i, d).unwrap();
        }
        let mut w = Writer::new();
        s.encode(&mut w);
        let bytes = w.into_bytes();
        let back = <SparseRecovery as Codec>::decode(&mut Reader::new(&bytes)).unwrap();
        let mut w2 = Writer::new();
        back.encode(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
        assert_eq!(back.decode(), s.decode());
    }

    #[test]
    fn frame_without_the_soa_sentinel_is_rejected() {
        let mut s = sr(22, 4);
        for (i, d) in [(42u64, 2i64), (77, -1), (D - 5, 3)] {
            s.update(i, d).unwrap();
        }
        let mut w = Writer::new();
        s.encode(&mut w);
        let soa = w.into_bytes();
        // A frame in the retired pre-SoA layout opens with the dimension, as
        // does this SoA frame with its sentinel and version words cut off.
        let err = <SparseRecovery as Codec>::decode(&mut Reader::new(&soa[16..])).unwrap_err();
        assert!(err.message.contains("SoA sentinel"), "{}", err.message);
        // A known sentinel with an unknown version, and a truncated frame.
        let mut bumped = soa.clone();
        bumped[8] ^= 0x02;
        let err = <SparseRecovery as Codec>::decode(&mut Reader::new(&bumped)).unwrap_err();
        assert!(err.message.contains("version"), "{}", err.message);
        assert!(<SparseRecovery as Codec>::decode(&mut Reader::new(&soa[..4])).is_err());
    }
}
