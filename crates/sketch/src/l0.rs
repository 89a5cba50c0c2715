//! The ℓ0-sampler: return (the index of) a nonzero coordinate of a
//! dynamically updated vector.
//!
//! Construction (Jowhari–Saglam–Tardos style): a geometric level hash
//! assigns each coordinate a level `lvl(i) ~ Geom(1/2)`; level `j` holds the
//! sub-vector of coordinates with `lvl >= j` in an exact
//! [s-sparse recovery](crate::SparseRecovery) structure. Some level whp
//! contains between 1 and `s` surviving nonzeros, and the decoder returns
//! the recovered item minimizing the level hash — a min-wise choice that
//! makes the sample (approximately) uniform over the support and, crucially
//! for repeated use, a *deterministic function of the net vector and the
//! seed*.

use std::time::Instant;

use dgs_field::{Fp, SeedTree, UniformHash};
use dgs_obs::{Counter, Histogram, MetricsSink};

use crate::error::{SketchError, SketchResult};
use crate::params::L0Params;
use crate::sparse_recovery::{PeelScratch, SparseRecovery};

/// A precomputed batch plan for one [`L0Sampler`] seed family.
///
/// Planning hoists everything that depends only on `(seed, index)` — the
/// geometric level, the per-level fingerprint powers `z_j^index`, and the
/// per-level per-row bucket columns — out of the per-update loop. A plan
/// built from *any* sampler of a seed family applies to *every* sampler of
/// that family: the spanning-forest sketch exploits this by planning each
/// round once and scattering the same plan into all vertex rows (both
/// endpoints of an edge reuse the plan their round computed for its index).
#[derive(Clone, Debug)]
pub struct L0Plan {
    seed_tag: u64,
    level_count: usize,
    keys: Vec<u64>,
    /// `Fp::new(key)` per key, for the index-weighted sum.
    key_fps: Vec<Fp>,
    /// Top level of each key (it lives in levels `0..=top`).
    tops: Vec<u32>,
    /// Slot ranges: key `i` owns slots `offsets[i] .. offsets[i + 1]`,
    /// one slot per level it touches.
    offsets: Vec<u32>,
    /// `z_j^key` per slot.
    pows: Vec<Fp>,
    /// `rows` bucket columns per slot.
    buckets: Vec<u32>,
    rows: usize,
}

impl L0Plan {
    /// The number of planned keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True iff the plan covers no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Metric handles for one sampler; null (free) by default, shared across
/// clones, excluded from the codec.
#[derive(Clone, Debug, Default)]
struct L0Metrics {
    sample_attempts: Counter,
    sample_successes: Counter,
    sample_failures: Counter,
    plan_keys: Histogram,
    batch_zero_skips: Counter,
    /// Span of the geometric level hashing (`level_batch`) per plan call —
    /// the `KWiseHash::eval_batch` Horner kernel dominates this.
    kernel_level_ns: Histogram,
    /// Span of the per-level `plan_into` + scatter loop per plan call —
    /// dominated by the power-table and `bucket_batch` kernels.
    kernel_plan_ns: Histogram,
}

impl L0Metrics {
    fn resolve(sink: &MetricsSink) -> L0Metrics {
        L0Metrics {
            sample_attempts: sink.counter("dgs_sketch_l0_sample_attempts"),
            sample_successes: sink.counter("dgs_sketch_l0_sample_successes"),
            sample_failures: sink.counter("dgs_sketch_l0_sample_failures"),
            plan_keys: sink.histogram("dgs_sketch_l0_plan_keys"),
            batch_zero_skips: sink.counter("dgs_sketch_l0_batch_zero_skips"),
            kernel_level_ns: sink.histogram("dgs_sketch_kernel_level_batch_ns"),
            kernel_plan_ns: sink.histogram("dgs_sketch_kernel_plan_scatter_ns"),
        }
    }
}

/// A linear ℓ0-sampler over `[0, dimension)`.
#[derive(Clone, Debug)]
pub struct L0Sampler {
    level_hash: UniformHash,
    levels: Vec<SparseRecovery>,
    dimension: u64,
    seed_tag: u64,
    /// Number of leading levels any update has ever touched. Updates land
    /// in levels `0..=top(index)`, so touched levels are always a prefix,
    /// and levels `touched..` hold identically zero state. Conservative
    /// under cancellation (deleting every edge leaves `touched` high),
    /// never under-counts — the decode engine relies on that to skip
    /// folding the zero suffix.
    touched: usize,
    metrics: L0Metrics,
}

impl L0Sampler {
    /// Draws a sampler from the seed tree. Pass `levels = None` for the
    /// dimension-derived level count, or cap it when the sketched vector's
    /// support is known to be much smaller than the dimension (e.g. induced
    /// subgraphs on few vertices).
    pub fn with_levels(
        seeds: &SeedTree,
        dimension: u64,
        params: L0Params,
        levels: Option<usize>,
    ) -> L0Sampler {
        let level_count = levels
            .unwrap_or_else(|| L0Params::levels_for_dimension(dimension))
            .max(2);
        let level_hash = UniformHash::new(&seeds.child(0), params.level_independence);
        let levels = (0..level_count)
            .map(|j| {
                SparseRecovery::new(
                    &seeds.child(1).child(j as u64),
                    dimension,
                    params.sparsity,
                    params.rows,
                )
            })
            .collect();
        L0Sampler {
            level_hash,
            levels,
            dimension,
            seed_tag: seeds.seed(),
            touched: 0,
            metrics: L0Metrics::default(),
        }
    }

    /// Draws a sampler with the default level count for the dimension.
    pub fn new(seeds: &SeedTree, dimension: u64, params: L0Params) -> L0Sampler {
        L0Sampler::with_levels(seeds, dimension, params, None)
    }

    /// Attach metric handles resolved from `sink` (`dgs_sketch_l0_*` sample
    /// outcome counters, batch-plan size histogram, zero-cancellation skip
    /// counter) and propagate to every level's recovery structure
    /// (`dgs_sketch_sparse_*`). Default is the null sink: recording is free.
    pub fn set_sink(&mut self, sink: &MetricsSink) {
        self.metrics = L0Metrics::resolve(sink);
        for level in &mut self.levels {
            level.set_sink(sink);
        }
    }

    /// The sketched index-space size.
    pub fn dimension(&self) -> u64 {
        self.dimension
    }

    /// Applies `(index, delta)`: the coordinate lives in levels
    /// `0..=lvl(index)` (expected 2 level touches per update).
    ///
    /// Out-of-range indices are rejected with
    /// [`SketchError::InvalidInput`]; the check runs in release builds too
    /// (it used to be a `debug_assert!`, which release builds skipped).
    #[inline]
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn update(&mut self, index: u64, delta: i64) -> SketchResult<()> {
        if index >= self.dimension {
            return Err(SketchError::invalid(format!(
                "index {index} out of range for dimension {}",
                self.dimension
            )));
        }
        let top = self.level_hash.level(index, self.levels.len() - 1);
        for j in 0..=top {
            self.levels[j].update(index, delta)?;
        }
        self.touched = self.touched.max(top + 1);
        Ok(())
    }

    /// Builds a batch plan for `keys` (duplicates allowed; each occurrence
    /// gets its own slot). Validates the whole batch up front: any
    /// out-of-range key rejects the plan with
    /// [`SketchError::InvalidInput`] before anything is computed, so a
    /// failed plan never leaves partial state anywhere.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn plan_updates(&self, keys: &[u64]) -> SketchResult<L0Plan> {
        for &k in keys {
            if k >= self.dimension {
                return Err(SketchError::invalid(format!(
                    "index {k} out of range for dimension {}",
                    self.dimension
                )));
            }
        }
        self.metrics.plan_keys.record(keys.len() as u64);
        let rows = self.levels[0].rows();
        let max_level = self.levels.len() - 1;
        let mut levels_of = vec![0usize; keys.len()];
        let level_timer = self.metrics.kernel_level_ns.start_timer();
        self.level_hash.level_batch(keys, max_level, &mut levels_of);
        level_timer.observe();
        let plan_timer = self.metrics.kernel_plan_ns.start_timer();

        let mut tops = Vec::with_capacity(keys.len());
        let mut offsets = Vec::with_capacity(keys.len() + 1);
        let mut slots = 0u32;
        for &top in &levels_of {
            offsets.push(slots);
            tops.push(top as u32);
            slots += top as u32 + 1;
        }
        offsets.push(slots);
        let key_fps: Vec<Fp> = keys.iter().map(|&k| Fp::new(k)).collect();

        let mut pows = vec![Fp::ZERO; slots as usize];
        let mut buckets = vec![0u32; slots as usize * rows];
        // Per level: plan the participating subset contiguously (sharing the
        // power table and batched bucket hashing), then scatter into slots.
        let max_top = levels_of.iter().copied().max().unwrap_or(0);
        let mut subset_ids: Vec<u32> = Vec::with_capacity(keys.len());
        let mut subset_keys: Vec<u64> = Vec::with_capacity(keys.len());
        let mut sub_pows: Vec<Fp> = Vec::new();
        let mut sub_buckets: Vec<u32> = Vec::new();
        for (j, level) in self.levels.iter().enumerate().take(max_top + 1) {
            subset_ids.clear();
            subset_keys.clear();
            for (i, &top) in levels_of.iter().enumerate() {
                if top >= j {
                    subset_ids.push(i as u32);
                    subset_keys.push(keys[i]);
                }
            }
            sub_pows.clear();
            sub_pows.resize(subset_keys.len(), Fp::ZERO);
            sub_buckets.clear();
            sub_buckets.resize(subset_keys.len() * rows, 0);
            level.plan_into(&subset_keys, &mut sub_pows, &mut sub_buckets);
            for (pos, &kid) in subset_ids.iter().enumerate() {
                let slot = (offsets[kid as usize] + j as u32) as usize;
                pows[slot] = sub_pows[pos];
                buckets[slot * rows..(slot + 1) * rows]
                    .copy_from_slice(&sub_buckets[pos * rows..(pos + 1) * rows]);
            }
        }
        plan_timer.observe();

        Ok(L0Plan {
            seed_tag: self.seed_tag,
            level_count: self.levels.len(),
            keys: keys.to_vec(),
            key_fps,
            tops,
            offsets,
            pows,
            buckets,
            rows,
        })
    }

    fn check_plan(&self, plan: &L0Plan) -> SketchResult<()> {
        if plan.seed_tag != self.seed_tag || plan.level_count != self.levels.len() {
            return Err(SketchError::invalid(format!(
                "plan/sampler mismatch: seed {:#x} vs {:#x}, {} vs {} levels",
                plan.seed_tag,
                self.seed_tag,
                plan.level_count,
                self.levels.len()
            )));
        }
        Ok(())
    }

    /// Applies `(plan key `key_id`, delta)` to this sampler. The plan may
    /// come from any same-seeded sampler. Exactly equivalent to
    /// [`update`](Self::update) on `(keys[key_id], delta)`.
    #[inline]
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn apply_planned(&mut self, plan: &L0Plan, key_id: usize, delta: i64) -> SketchResult<()> {
        self.check_plan(plan)?;
        let top = plan.tops[key_id] as usize;
        let base = plan.offsets[key_id] as usize;
        let d = Fp::from_i64(delta);
        let sd = d.mul(plan.key_fps[key_id]);
        let rows = plan.rows;
        for (j, level) in self.levels.iter_mut().enumerate().take(top + 1) {
            let slot = base + j;
            level.apply_soa(
                d,
                sd,
                d.mul(plan.pows[slot]),
                &plan.buckets[slot * rows..(slot + 1) * rows],
            );
        }
        self.touched = self.touched.max(top + 1);
        Ok(())
    }

    /// Applies a list of `(plan key id, field delta)` pairs to this
    /// sampler — equivalent to calling
    /// [`apply_planned`](Self::apply_planned) per pair with any integer
    /// delta congruent to `d`, with the plan check hoisted out of the loop
    /// and a mul-free fast path for unit deltas (`1 * x = x`,
    /// `-1 * x = -x`, exactly, in canonical form). Callers may pre-sum the
    /// deltas of duplicate keys: field addition is exact, so the aggregated
    /// apply is bit-identical to per-update application.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn apply_planned_many(&mut self, plan: &L0Plan, items: &[(u32, Fp)]) -> SketchResult<()> {
        self.check_plan(plan)?;
        let rows = plan.rows;
        let minus_one = Fp::ONE.neg();
        for &(key_id, d) in items {
            let key_id = key_id as usize;
            let top = plan.tops[key_id] as usize;
            let base = plan.offsets[key_id] as usize;
            let unit = if d == Fp::ONE {
                Some(false)
            } else if d == minus_one {
                Some(true)
            } else {
                None
            };
            let sd = match unit {
                Some(false) => plan.key_fps[key_id],
                Some(true) => plan.key_fps[key_id].neg(),
                None => d.mul(plan.key_fps[key_id]),
            };
            for (j, level) in self.levels.iter_mut().enumerate().take(top + 1) {
                let slot = base + j;
                let term = match unit {
                    Some(false) => plan.pows[slot],
                    Some(true) => plan.pows[slot].neg(),
                    None => d.mul(plan.pows[slot]),
                };
                level.apply_soa(d, sd, term, &plan.buckets[slot * rows..(slot + 1) * rows]);
            }
            self.touched = self.touched.max(top + 1);
        }
        Ok(())
    }

    /// Batched update: plans the whole batch, then applies every entry.
    /// Bit-identical to calling [`update`](Self::update) per entry in
    /// order, except that an invalid entry rejects the *entire* batch
    /// up front instead of applying the valid prefix.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn update_batch(&mut self, entries: &[(u64, i64)]) -> SketchResult<()> {
        // Validate every key up front — the whole batch is rejected even if
        // an out-of-range key's deltas would have cancelled.
        for &(k, _) in entries {
            if k >= self.dimension {
                return Err(SketchError::invalid(format!(
                    "index {k} out of range for dimension {}",
                    self.dimension
                )));
            }
        }
        // Aggregate duplicate keys in the field: dynamic streams revisit
        // indices (insert, delete, re-insert), equal keys hash identically,
        // and field addition is exact — so summed deltas are bit-identical
        // to per-update application, and keys whose deltas cancel to zero
        // can be skipped outright (adding zero is the identity).
        let mut uniq: Vec<u64> = Vec::with_capacity(entries.len());
        let mut sums: Vec<Fp> = Vec::with_capacity(entries.len());
        let mut seen: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::with_capacity(entries.len());
        for &(k, delta) in entries {
            let id = *seen.entry(k).or_insert_with(|| {
                uniq.push(k);
                sums.push(Fp::ZERO);
                uniq.len() - 1
            });
            sums[id] = sums[id].add(Fp::from_i64(delta));
        }
        let mut keys: Vec<u64> = Vec::with_capacity(uniq.len());
        let mut items: Vec<(u32, Fp)> = Vec::with_capacity(uniq.len());
        for (i, &k) in uniq.iter().enumerate() {
            if sums[i] != Fp::ZERO {
                items.push((keys.len() as u32, sums[i]));
                keys.push(k);
            }
        }
        self.metrics
            .batch_zero_skips
            .add((uniq.len() - keys.len()) as u64);
        if keys.is_empty() {
            return Ok(());
        }
        let plan = self.plan_updates(&keys)?;
        self.apply_planned_many(&plan, &items)
    }

    /// Verifies `rhs` was drawn with the same seed and shape, so cell-wise
    /// arithmetic is meaningful. Public so assembly paths (player messages,
    /// checkpoint restore) can reject incompatible states up front.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn check_compatible(&self, rhs: &L0Sampler) -> SketchResult<()> {
        if self.seed_tag != rhs.seed_tag {
            return Err(SketchError::invalid(format!(
                "sketch seed mismatch: {:#x} vs {:#x}",
                self.seed_tag, rhs.seed_tag
            )));
        }
        if self.levels.len() != rhs.levels.len() {
            return Err(SketchError::invalid(format!(
                "sketch shape mismatch: {} vs {} levels",
                self.levels.len(),
                rhs.levels.len()
            )));
        }
        Ok(())
    }

    /// Cell-wise sum with a same-seeded sampler. Mismatched seeds or
    /// shapes (e.g. a corrupted checkpoint) are [`SketchError::InvalidInput`].
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn add_assign_sketch(&mut self, rhs: &L0Sampler) -> SketchResult<()> {
        self.check_compatible(rhs)?;
        for (a, b) in self.levels.iter_mut().zip(&rhs.levels) {
            a.add_assign_sketch(b)?;
        }
        self.touched = self.touched.max(rhs.touched);
        Ok(())
    }

    /// Cell-wise difference with a same-seeded sampler.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn sub_assign_sketch(&mut self, rhs: &L0Sampler) -> SketchResult<()> {
        self.check_compatible(rhs)?;
        for (a, b) in self.levels.iter_mut().zip(&rhs.levels) {
            a.sub_assign_sketch(b)?;
        }
        self.touched = self.touched.max(rhs.touched);
        Ok(())
    }

    /// True iff every cell of every level is zero.
    pub fn is_zero(&self) -> bool {
        self.levels.iter().all(|l| l.is_zero())
    }

    /// Samples a nonzero coordinate of the net vector.
    ///
    /// * `Ok(Some((index, weight)))` — a true nonzero (up to the negligible
    ///   fingerprint error), chosen min-wise among the recovered level;
    /// * `Ok(None)` — the vector is **certified zero**: level 0 holds the
    ///   whole vector and decoded to an empty support;
    /// * `Err(SketchFailure)` — this repetition failed (probability
    ///   `2^{-Ω(rows)}`): every level's recovery was too dense, or the
    ///   first decodable level was empty without level 0 confirming a zero
    ///   vector (the levels nest *downward* — emptiness at level `j > 0`
    ///   says nothing about coordinates whose geometric level is below
    ///   `j`, so answering "zero" there would be a silent wrong answer).
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn sample(&self) -> SketchResult<Option<(u64, i64)>> {
        // Span on the convenience entry only: the decode engine's
        // per-component path (`sample_sum`) runs at too high a volume to
        // record one event each.
        let _span = dgs_trace::child("dgs_sketch_l0_sample");
        let mut scratch = PeelScratch::default();
        self.sample_with(&mut scratch)
    }

    /// [`sample`](Self::sample) with a caller-owned reusable scratch —
    /// allocation-free in steady state: [`sample_sum`](Self::sample_sum)
    /// over just this sampler.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn sample_with(&self, scratch: &mut PeelScratch) -> SketchResult<Option<(u64, i64)>> {
        self.sample_sum(std::iter::once(self), scratch)
    }

    /// Samples the cell-wise sum of `parts` — same-seeded samplers, `self`
    /// among them or not — using this sampler's seeds as the template,
    /// without materialising the sum: the decode engine's path for every
    /// component (a singleton is the one-part sum, whose levels are
    /// copied rather than summed).
    ///
    /// Level `j` of the sum is folded only when the level walk reaches it,
    /// so the levels above the one that decodes are never read, and a
    /// part whose `touched` watermark is at or below `j` holds zero there
    /// and is skipped. The folded level lives in `scratch` (one level's
    /// cells, lazy `u128` sums reduced once per cell), and the time spent
    /// folding is added to [`PeelScratch::take_fold_ns`].
    ///
    /// Outcomes follow the rules documented on [`sample`](Self::sample)
    /// and equal `sample` on the summed sampler built by repeated
    /// [`add_assign_sketch`](Self::add_assign_sketch), because field
    /// addition is exact and every decision is a function of the summed
    /// cells. A part that fails [`check_compatible`](Self::check_compatible)
    /// against `self` is [`SketchError::InvalidInput`] before anything is
    /// sampled; a part whose level shapes differ is the same error when
    /// its level is folded.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn sample_sum<'a, I>(
        &self,
        parts: I,
        scratch: &mut PeelScratch,
    ) -> SketchResult<Option<(u64, i64)>>
    where
        I: Iterator<Item = &'a L0Sampler> + Clone,
    {
        for part in parts.clone() {
            self.check_compatible(part)?;
        }
        self.metrics.sample_attempts.inc();
        for (j, level) in self.levels.iter().enumerate() {
            let t = Instant::now();
            let loaded = level.load_sum(
                parts
                    .clone()
                    .filter(|p| p.touched > j)
                    .map(|p| &p.levels[j]),
                scratch,
            );
            scratch.add_fold_ns(t.elapsed().as_nanos() as u64);
            loaded?;
            if !level.peel(scratch) {
                continue; // too dense at this level; subsample more
            }
            if scratch.recovered.is_empty() {
                if j == 0 {
                    self.metrics.sample_successes.inc();
                    return Ok(None);
                }
                self.metrics.sample_failures.inc();
                return Err(SketchError::failure(
                    "l0-sampler",
                    format!("level {j} empty but levels 0..{j} undecodable"),
                ));
            }
            self.metrics.sample_successes.inc();
            return Ok(self.min_wise(&scratch.recovered));
        }
        self.metrics.sample_failures.inc();
        Err(SketchError::failure(
            "l0-sampler",
            format!("all {} levels undecodable", self.levels.len()),
        ))
    }

    /// [`sample`](Self::sample) running each level through the historical
    /// peeling loop ([`SparseRecovery::decode_legacy`]: fresh allocations,
    /// one Fermat inversion per nonzero cell per pass) — the sequential
    /// baseline the decode benchmarks (E19) measure the batched engine
    /// against. Outcome is bit-identical to [`sample`](Self::sample).
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn sample_legacy(&self) -> SketchResult<Option<(u64, i64)>> {
        self.metrics.sample_attempts.inc();
        for (j, level) in self.levels.iter().enumerate() {
            match level.decode_legacy() {
                Some(support) if support.is_empty() => {
                    if j == 0 {
                        self.metrics.sample_successes.inc();
                        return Ok(None);
                    }
                    self.metrics.sample_failures.inc();
                    return Err(SketchError::failure(
                        "l0-sampler",
                        format!("level {j} empty but levels 0..{j} undecodable"),
                    ));
                }
                Some(support) => {
                    self.metrics.sample_successes.inc();
                    return Ok(support.into_iter().min_by(|a, b| {
                        self.level_hash
                            .unit(a.0)
                            .total_cmp(&self.level_hash.unit(b.0))
                    }));
                }
                None => continue, // too dense at this level; subsample more
            }
        }
        self.metrics.sample_failures.inc();
        Err(SketchError::failure(
            "l0-sampler",
            format!("all {} levels undecodable", self.levels.len()),
        ))
    }

    /// The recovered item with the smallest level-hash unit value, the
    /// first such in index order on a tie — exactly `min_by` over
    /// `unit(a).total_cmp(&unit(b))`, with each unit value hashed once.
    fn min_wise(&self, support: &[(u64, i64)]) -> Option<(u64, i64)> {
        let mut best: Option<((u64, i64), f64)> = None;
        for &item in support {
            let unit = self.level_hash.unit(item.0);
            if best.is_none_or(|(_, b)| unit.total_cmp(&b).is_lt()) {
                best = Some((item, unit));
            }
        }
        best.map(|(item, _)| item)
    }

    /// Exact full-support recovery when the net vector has at most
    /// `sparsity` nonzeros (level 0 holds the whole vector).
    pub fn recover_support(&self) -> Option<Vec<(u64, i64)>> {
        self.levels[0].decode()
    }

    /// Memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.level_hash.size_bytes() + self.levels.iter().map(|l| l.size_bytes()).sum::<usize>()
    }
}

impl dgs_field::Codec for L0Sampler {
    fn encode(&self, w: &mut dgs_field::Writer) {
        w.put_u64(self.dimension);
        w.put_u64(self.seed_tag);
        self.level_hash.encode(w);
        self.levels.encode(w);
    }
    fn decode(r: &mut dgs_field::Reader<'_>) -> Result<Self, dgs_field::CodecError> {
        let dimension = r.get_u64()?;
        let seed_tag = r.get_u64()?;
        let level_hash = UniformHash::decode(r)?;
        let levels: Vec<SparseRecovery> = Vec::decode(r)?;
        if levels.is_empty() {
            return Err(dgs_field::CodecError {
                offset: 0,
                message: "sampler with zero levels".into(),
            });
        }
        // The touched-prefix watermark is not encoded; rederive it from the
        // state. "Last level with any nonzero cell" is sound: it can only
        // undershoot the historical watermark when the extra levels hold
        // all-zero state — exactly the condition that makes skipping them
        // correct.
        let touched = levels
            .iter()
            .rposition(|l| !l.is_zero())
            .map_or(0, |i| i + 1);
        Ok(L0Sampler {
            level_hash,
            levels,
            dimension,
            seed_tag,
            touched,
            metrics: L0Metrics::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Profile;
    use dgs_field::prng::*;
    use std::collections::{BTreeMap, BTreeSet};

    const D: u64 = 1 << 30;

    fn sampler(label: u64) -> L0Sampler {
        L0Sampler::new(
            &SeedTree::new(31).child(label),
            D,
            L0Params::for_dimension(D, Profile::Practical),
        )
    }

    #[test]
    fn zero_vector_samples_none() {
        assert_eq!(sampler(0).sample().unwrap(), None);
        assert!(sampler(0).is_zero());
    }

    #[test]
    fn singleton_always_recovered() {
        for label in 0..20 {
            let mut s = sampler(label);
            s.update(12345, 1).unwrap();
            assert_eq!(s.sample().unwrap(), Some((12345, 1)), "label {label}");
        }
    }

    #[test]
    fn cancelled_updates_sample_none() {
        let mut s = sampler(1);
        for i in 0..100u64 {
            s.update(i * 7, 1).unwrap();
        }
        for i in 0..100u64 {
            s.update(i * 7, -1).unwrap();
        }
        assert!(s.is_zero());
        assert_eq!(s.sample().unwrap(), None);
    }

    #[test]
    fn sample_sum_matches_sample_on_summed_samplers() {
        // Folding same-seeded player shares level by level and sampling
        // the fold must agree exactly with summing the samplers via
        // add_assign_sketch and calling sample() — across zero, sparse,
        // dense, and cancelled vectors, and with shares whose touched
        // watermarks differ.
        let mut rng = StdRng::seed_from_u64(0xE19);
        let mut scratch = PeelScratch::default();
        for trial in 0..20 {
            let parts = 1 + (trial % 4);
            let mut shares: Vec<L0Sampler> = (0..parts).map(|_| sampler(5000 + trial)).collect();
            let items = rng.gen_range(0..200u64);
            for _ in 0..items {
                let idx = rng.gen_range(0..D);
                let delta = *[-1i64, 1, 2].choose(&mut rng).unwrap();
                let part = rng.gen_range(0..parts) as usize;
                shares[part].update(idx, delta).unwrap();
            }
            let mut summed = shares[0].clone();
            for share in &shares[1..] {
                summed.add_assign_sketch(share).unwrap();
            }
            // Every level's fold equals the materialised sum cell for cell.
            for (j, level) in summed.levels.iter().enumerate() {
                level
                    .load_sum(
                        shares
                            .iter()
                            .filter(|p| p.touched > j)
                            .map(|p| &p.levels[j]),
                        &mut scratch,
                    )
                    .unwrap();
                let folded = scratch.work.clone();
                let mut direct = PeelScratch::default();
                level.load_sum(std::iter::once(level), &mut direct).unwrap();
                assert_eq!(
                    folded, direct.work,
                    "trial {trial} level {j}: fold diverged"
                );
            }
            let template = &shares[shares.len() - 1];
            let via_sum = template.sample_sum(shares.iter(), &mut scratch);
            let via_sample = summed.sample();
            let via_legacy = summed.sample_legacy();
            for (name, got) in [("sample", &via_sample), ("sample_legacy", &via_legacy)] {
                match (&via_sum, got) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "trial {trial} vs {name}"),
                    (Err(a), Err(b)) => assert_eq!(
                        (a.is_retryable(), a.to_string()),
                        (b.is_retryable(), b.to_string()),
                        "trial {trial} vs {name}"
                    ),
                    (a, b) => panic!("trial {trial}: outcomes diverged vs {name}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn sample_sum_rejects_foreign_parts() {
        let a = sampler(46);
        let b = sampler(47);
        let err = a.sample_sum([&a, &b].into_iter(), &mut PeelScratch::default());
        assert!(matches!(err, Err(ref e) if !e.is_retryable()), "{err:?}");
    }

    #[test]
    fn dense_vector_samples_true_nonzeros() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut success = 0;
        for label in 0..30 {
            let mut s = sampler(1000 + label);
            let mut truth = BTreeSet::new();
            while truth.len() < 5000 {
                truth.insert(rng.gen_range(0..D));
            }
            for &i in &truth {
                s.update(i, 1).unwrap();
            }
            if let Ok(Some((idx, w))) = s.sample() {
                assert!(truth.contains(&idx), "label {label}: {idx} not in support");
                assert_eq!(w, 1);
                success += 1;
            }
        }
        assert!(success >= 28, "only {success}/30 dense samples succeeded");
    }

    #[test]
    fn sample_spreads_over_support() {
        // Different seeds should sample different elements of a fixed
        // moderately sized support.
        let support: Vec<u64> = (0..40u64).map(|i| i * 1_000_003 % D).collect();
        let mut seen = BTreeSet::new();
        for label in 0..60 {
            let mut s = sampler(2000 + label);
            for &i in &support {
                s.update(i, 1).unwrap();
            }
            if let Ok(Some((idx, _))) = s.sample() {
                assert!(support.contains(&idx));
                seen.insert(idx);
            }
        }
        assert!(
            seen.len() >= 10,
            "samples collapsed onto {} distinct items",
            seen.len()
        );
    }

    #[test]
    fn sample_is_deterministic_for_fixed_seed_and_vector() {
        let mut a = sampler(5);
        let mut b = sampler(5);
        for i in [3u64, 900, 77777, 12] {
            a.update(i, 1).unwrap();
            // Different update order must not matter (linearity).
        }
        for i in [12u64, 77777, 900, 3] {
            b.update(i, 1).unwrap();
        }
        assert_eq!(a.sample(), b.sample());
    }

    #[test]
    fn linearity_peels_recovered_subsets() {
        let seeds = SeedTree::new(31).child(600);
        let params = L0Params::for_dimension(D, Profile::Practical);
        let mut total = L0Sampler::new(&seeds, D, params);
        let all: Vec<u64> = vec![10, 20, 30, 40, 50];
        for &i in &all {
            total.update(i, 1).unwrap();
        }
        let mut known = L0Sampler::new(&seeds, D, params);
        known.update(20, 1).unwrap();
        known.update(40, 1).unwrap();
        let mut rest = total.clone();
        rest.sub_assign_sketch(&known).unwrap();
        assert_eq!(
            rest.recover_support(),
            Some(vec![(10, 1), (30, 1), (50, 1)])
        );
    }

    #[test]
    fn negative_weights_survive_sampling() {
        let mut s = sampler(8);
        s.update(1000, -1).unwrap();
        s.update(2000, -1).unwrap();
        let (idx, w) = s.sample().unwrap().expect("nonzero vector");
        assert!(idx == 1000 || idx == 2000);
        assert_eq!(w, -1);
    }

    #[test]
    fn support_recovery_matches_truth_with_mixed_weights() {
        let mut s = sampler(9);
        let mut truth = BTreeMap::new();
        for (i, w) in [(7u64, 2i64), (100, -1), (5000, 3)] {
            s.update(i, w).unwrap();
            truth.insert(i, w);
        }
        assert_eq!(
            s.recover_support(),
            Some(truth.into_iter().collect::<Vec<_>>())
        );
    }

    #[test]
    fn update_batch_encoding_matches_scalar() {
        use dgs_field::{Codec, Writer};
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        for batch_size in [1usize, 7, 64] {
            let mut scalar = sampler(7000 + batch_size as u64);
            let mut batched = scalar.clone();
            let entries: Vec<(u64, i64)> = (0..batch_size)
                .map(|_| {
                    (
                        rng.gen_range(0..D),
                        *[-2i64, -1, 1, 2].choose(&mut rng).unwrap(),
                    )
                })
                .collect();
            for &(i, d) in &entries {
                scalar.update(i, d).unwrap();
            }
            batched.update_batch(&entries).unwrap();
            let (mut wa, mut wb) = (Writer::new(), Writer::new());
            scalar.encode(&mut wa);
            batched.encode(&mut wb);
            assert_eq!(wa.into_bytes(), wb.into_bytes(), "batch {batch_size}");
        }
    }

    #[test]
    fn plan_transfers_across_same_seeded_samplers() {
        // The forest-sketch pattern: plan on one sampler of the seed
        // family, apply to another.
        let mut a = sampler(42);
        let mut b = sampler(42);
        let keys = [5u64, 1 << 20, 999];
        let plan = a.plan_updates(&keys).unwrap();
        for (i, _) in keys.iter().enumerate() {
            a.update(keys[i], 3).unwrap();
            b.apply_planned(&plan, i, 3).unwrap();
        }
        use dgs_field::{Codec, Writer};
        let (mut wa, mut wb) = (Writer::new(), Writer::new());
        a.encode(&mut wa);
        b.encode(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn batch_rejects_out_of_range_atomically() {
        let mut s = sampler(43);
        let before = s.clone();
        let err = s.update_batch(&[(1, 1), (D, 1)]).unwrap_err();
        assert!(!err.is_retryable());
        // Nothing applied — not even the valid prefix.
        use dgs_field::{Codec, Writer};
        let (mut wa, mut wb) = (Writer::new(), Writer::new());
        s.encode(&mut wa);
        before.encode(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn mismatched_plan_is_rejected() {
        let a = sampler(44);
        let mut b = sampler(45);
        let plan = a.plan_updates(&[7]).unwrap();
        assert!(b.apply_planned(&plan, 0, 1).is_err());
    }

    #[test]
    fn theory_profile_larger_than_practical() {
        let t = L0Sampler::new(
            &SeedTree::new(1),
            D,
            L0Params::for_dimension(D, Profile::Theory),
        );
        let p = L0Sampler::new(
            &SeedTree::new(1),
            D,
            L0Params::for_dimension(D, Profile::Practical),
        );
        assert!(t.size_bytes() > p.size_bytes());
    }
}
