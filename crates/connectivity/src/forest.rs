//! The spanning-forest / spanning-graph sketch (Theorems 2 and 13) and its
//! Borůvka decoder.
//!
//! Structure: for each present vertex `i` and each Borůvka round `t`, an
//! independent ℓ0-sampler of the incidence vector `a^i` (see
//! [`crate::vector`]). All vertices share one seed *per round* — summing
//! same-round samplers over a component `S` yields a sampler of
//! `Σ_{i∈S} a^i`, whose support is exactly `δ(S)`. Each round therefore
//! extracts one outgoing edge per component; fresh rounds keep the
//! randomness independent of previously revealed edges (the Section 4.2
//! pitfall), and `⌈log |V|⌉ + slack` rounds connect everything whp.
//!
//! The sketch is *vertex-based* in the paper's sense: every linear
//! measurement is local to one vertex, which is what [`crate::player`]
//! exploits.

use std::collections::{BTreeMap, BTreeSet};

use dgs_field::{Fp, SeedTree};
use dgs_hypergraph::algo::UnionFind;
use dgs_hypergraph::{EdgeSpace, HyperEdge, VertexId};
use dgs_obs::{Counter, Gauge, Histogram, MetricsSink};
use dgs_sketch::{L0Params, L0Sampler, Profile, SketchError, SketchResult};

use crate::vector::incidence_coefficient;

/// Sizing parameters for a [`SpanningForestSketch`].
#[derive(Clone, Copy, Debug)]
pub struct ForestParams {
    /// ℓ0-sampler parameters.
    pub l0: L0Params,
    /// Borůvka rounds beyond `ceil(log2 |V|)` to absorb decode failures.
    pub extra_rounds: usize,
}

impl ForestParams {
    /// Profile-derived defaults for a sketch over `dimension` edge indices.
    pub fn new(profile: Profile, dimension: u64) -> ForestParams {
        ForestParams {
            l0: L0Params::for_dimension(dimension, profile),
            extra_rounds: 2,
        }
    }
}

/// Metric handles for one sketch; null (free) by default, shared across
/// clones, excluded from the codec.
#[derive(Clone, Debug, Default)]
struct ForestMetrics {
    decode_attempts: Counter,
    decode_successes: Counter,
    decode_failures: Counter,
    rounds_used: Histogram,
    rounds_budget: Gauge,
    batch_zero_skips: Counter,
    /// Fold time per decode: loading each sampled level from the
    /// component's members — a sum for a merged component, a copy for a
    /// singleton (ns, on the slowest stripe of each round).
    decode_aggregate_ns: Histogram,
    /// Peel time per decode: the ℓ0 level walks and sparse-recovery peels
    /// (ns, on the slowest stripe of each round). Folding happens level by
    /// level inside the walk, so this is the stripe's time minus its fold
    /// time, and fold + peel never exceed the stripe's wall time.
    decode_sample_ns: Histogram,
    /// Union-find time per decode: the sequential classify, merge and
    /// certification pass (ns).
    decode_merge_ns: Histogram,
}

impl ForestMetrics {
    fn resolve(sink: &MetricsSink) -> ForestMetrics {
        ForestMetrics {
            decode_attempts: sink.counter("dgs_connectivity_forest_decode_attempts"),
            decode_successes: sink.counter("dgs_connectivity_forest_decode_successes"),
            decode_failures: sink.counter("dgs_connectivity_forest_decode_failures"),
            rounds_used: sink.histogram("dgs_connectivity_forest_rounds_used"),
            rounds_budget: sink.gauge("dgs_connectivity_forest_rounds_budget"),
            batch_zero_skips: sink.counter("dgs_connectivity_forest_batch_zero_skips"),
            decode_aggregate_ns: sink.histogram("dgs_connectivity_forest_decode_aggregate_ns"),
            decode_sample_ns: sink.histogram("dgs_connectivity_forest_decode_sample_ns"),
            decode_merge_ns: sink.histogram("dgs_connectivity_forest_decode_merge_ns"),
        }
    }
}

/// Reusable state for the decode engine
/// ([`SpanningForestSketch::try_decode_with_scratch`]).
///
/// Holds the union-find grouping tables (`O(|V|)` words), the per-round
/// sample outcomes and merge lists, and one [`dgs_sketch::PeelScratch`]
/// per decode stripe — which in turn holds a single ℓ0 level's cells, the
/// only sampler state a decode ever copies. Nothing here scales with the
/// sketch's state size, so the fresh scratch that the convenience entry
/// points ([`try_decode_with_labels`](SpanningForestSketch::try_decode_with_labels)
/// and friends) build per call costs a few small allocations. Buffers are
/// resized but never shrunk, so a scratch reused across decodes stops
/// allocating once its tables have grown to the largest sketch it served;
/// the returned edge list and union-find are always fresh.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// Union-find root of each local vertex this round.
    root_of: Vec<u32>,
    /// Root -> component slot (ascending-root order).
    slot_of: Vec<u32>,
    /// Live roots, ascending.
    roots: Vec<u32>,
    /// Slot -> offset into `members` (length `roots.len() + 1`).
    starts: Vec<u32>,
    /// Scatter cursors while grouping.
    cursors: Vec<u32>,
    /// Local vertices grouped by component slot, ascending within a slot.
    members: Vec<u32>,
    /// Per-slot sample outcome of the current round.
    results: Vec<SketchResult<Option<(u64, i64)>>>,
    /// Per-stripe peeling scratch: one folded level each.
    peel: Vec<dgs_sketch::PeelScratch>,
    /// Edges sampled this round, in ascending-root order.
    merges: Vec<HyperEdge>,
    /// Local endpoints of the edge being merged.
    locals: Vec<u32>,
    /// Kept spanning edges (sorted and deduplicated on return).
    out: Vec<HyperEdge>,
}

impl DecodeScratch {
    /// An empty scratch; buffers grow to their steady-state sizes on first
    /// use.
    pub fn new() -> DecodeScratch {
        DecodeScratch::default()
    }
}

/// Per-component verdict of one round's sample, shared by the reference
/// decoder and the decode engine.
enum SampleOutcome {
    /// The component advanced: an edge was queued or its boundary is
    /// certified zero.
    Advanced,
    /// A retryable sampler failure — the round cannot certify completeness.
    Failed,
}

/// A linear sketch of a (hyper)graph from which a spanning graph of the
/// subgraph induced on a fixed vertex set can be decoded.
#[derive(Clone, Debug)]
pub struct SpanningForestSketch {
    space: EdgeSpace,
    /// Present vertices, sorted ascending.
    vertices: Vec<VertexId>,
    /// Global vertex id -> local index (`u32::MAX` = absent).
    vpos: Vec<u32>,
    rounds: usize,
    /// `rounds * |vertices|` samplers, row-major by round.
    samplers: Vec<L0Sampler>,
    metrics: ForestMetrics,
}

/// The deterministic construction plan shared by the full sketch and the
/// per-player states: round count and the per-sampler level cap for a
/// sketch over `nv` present vertices.
pub(crate) fn sampler_plan(space: &EdgeSpace, nv: usize, params: ForestParams) -> (usize, usize) {
    let rounds = ceil_log2(nv.max(2)) + params.extra_rounds;
    let level_cap = if nv >= 2 {
        let induced_dim = EdgeSpace::new(nv.max(2), space.max_rank())
            .map(|es| es.dimension())
            .unwrap_or(space.dimension());
        L0Params::levels_for_dimension(induced_dim.min(space.dimension()))
    } else {
        2
    };
    (rounds, level_cap)
}

/// Builds the per-round samplers of one vertex of a sketch over `nv`
/// present vertices — bit-identical to the slice the full constructor
/// would produce, so player-built states merge exactly.
pub(crate) fn vertex_samplers_for(
    space: &EdgeSpace,
    nv: usize,
    seeds: &SeedTree,
    params: ForestParams,
) -> Vec<L0Sampler> {
    let (rounds, level_cap) = sampler_plan(space, nv, params);
    (0..rounds)
        .map(|round| {
            L0Sampler::with_levels(
                &seeds.child(round as u64),
                space.dimension(),
                params.l0,
                Some(level_cap),
            )
        })
        .collect()
}

impl SpanningForestSketch {
    /// Sketch over all `n` vertices of the edge space.
    pub fn new_full(space: EdgeSpace, seeds: &SeedTree, params: ForestParams) -> Self {
        let vertices: Vec<VertexId> = (0..space.n() as VertexId).collect();
        Self::new_induced(space, vertices, seeds, params)
    }

    /// **Ablation constructor**: every Borůvka round shares one seed — the
    /// "reuse a single sketch" fallacy of Section 4.2 applied to rounds.
    /// A component whose sampler fails once then re-fails identically every
    /// round (the aggregate state never changes until it merges), so decode
    /// errors stop being independent retries. Experiment E11 measures this;
    /// never use it for real work.
    pub fn new_full_shared_rounds(
        space: EdgeSpace,
        seeds: &SeedTree,
        params: ForestParams,
    ) -> Self {
        let mut sk = Self::new_full(space, seeds, params);
        let nv = sk.vertices.len();
        // Overwrite every round's samplers with clones of round 0's
        // (identical seeds and, so far, identical zero states).
        for round in 1..sk.rounds {
            for local in 0..nv {
                sk.samplers[round * nv + local] = sk.samplers[local].clone();
            }
        }
        sk
    }

    /// Sketch of the subgraph induced on `vertices` (used by the
    /// vertex-connectivity structures, where each subsampled graph keeps
    /// only ~n/k vertices). Updates must only cover edges with *all*
    /// endpoints present.
    pub fn new_induced(
        space: EdgeSpace,
        mut vertices: Vec<VertexId>,
        seeds: &SeedTree,
        params: ForestParams,
    ) -> Self {
        vertices.sort_unstable();
        vertices.dedup();
        assert!(
            vertices.iter().all(|&v| (v as usize) < space.n()),
            "vertex out of range for edge space"
        );
        let nv = vertices.len();
        let mut vpos = vec![u32::MAX; space.n()];
        for (i, &v) in vertices.iter().enumerate() {
            vpos[v as usize] = i as u32;
        }
        // Induced support never exceeds the edge space on |vertices|
        // vertices — `sampler_plan` caps sampler levels accordingly.
        let (rounds, level_cap) = sampler_plan(&space, nv, params);
        let mut samplers = Vec::with_capacity(rounds * nv);
        for round in 0..rounds {
            let round_seed = seeds.child(round as u64);
            for _ in 0..nv {
                samplers.push(L0Sampler::with_levels(
                    &round_seed,
                    space.dimension(),
                    params.l0,
                    Some(level_cap),
                ));
            }
        }
        SpanningForestSketch {
            space,
            vertices,
            vpos,
            rounds,
            samplers,
            metrics: ForestMetrics::default(),
        }
    }

    /// Attach metric handles resolved from `sink`
    /// (`dgs_connectivity_forest_*`: decode outcome counters, Borůvka
    /// rounds-used histogram vs. the rounds-budget gauge, zero-cancellation
    /// batch skips) and propagate to every per-vertex per-round ℓ0-sampler
    /// (`dgs_sketch_*`). Decode-time aggregate samplers are clones and share
    /// these handles, so their sample outcomes are counted too. Default is
    /// the null sink: recording is free.
    pub fn set_sink(&mut self, sink: &MetricsSink) {
        self.metrics = ForestMetrics::resolve(sink);
        self.metrics.rounds_budget.set(self.rounds as i64);
        for s in &mut self.samplers {
            s.set_sink(sink);
        }
    }

    /// The underlying edge space.
    pub fn space(&self) -> &EdgeSpace {
        &self.space
    }

    /// The present vertex set (sorted).
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// True iff `v` is in the present vertex set.
    pub fn has_vertex(&self, v: VertexId) -> bool {
        (v as usize) < self.vpos.len() && self.vpos[v as usize] != u32::MAX
    }

    /// Number of Borůvka rounds (independent sketch copies).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Fallible signed update for hyperedge `e` (+1 insert, -1 delete).
    ///
    /// Validates the edge against the space (rank bound, vertex range) and
    /// the present vertex set *before* touching any sampler cell, so a
    /// malformed stream element surfaces as [`SketchError::InvalidInput`]
    /// — in release builds too — instead of corrupting state or panicking.
    pub fn try_update(&mut self, e: &HyperEdge, delta: i64) -> SketchResult<()> {
        self.validate_edge(e)?;
        let idx = self.space.rank(e);
        let nv = self.vertices.len();
        for &v in e.vertices() {
            let local = self.vpos[v as usize] as usize;
            let coeff = incidence_coefficient(e, v) * delta;
            for round in 0..self.rounds {
                self.samplers[round * nv + local].update(idx, coeff)?;
            }
        }
        Ok(())
    }

    /// Validates one edge exactly as [`try_update`](Self::try_update) does,
    /// without touching any state.
    ///
    /// Public so wrappers that buffer updates before forwarding them (the
    /// hybrid sparse/sketch backend in `dgs-core`) can accept and reject
    /// *exactly* the streams this sketch would — a buffered prefix that was
    /// never validated here could poison a later spill replay.
    pub fn validate_edge(&self, e: &HyperEdge) -> SketchResult<()> {
        if e.cardinality() > self.space.max_rank() {
            return Err(SketchError::invalid(format!(
                "edge of rank {} exceeds the space's rank bound {}",
                e.cardinality(),
                self.space.max_rank()
            )));
        }
        for &v in e.vertices() {
            if (v as usize) >= self.space.n() {
                return Err(SketchError::invalid(format!(
                    "vertex {v} out of range for a {}-vertex edge space",
                    self.space.n()
                )));
            }
            if self.vpos[v as usize] == u32::MAX {
                return Err(SketchError::invalid(format!(
                    "update touches absent vertex {v}"
                )));
            }
        }
        Ok(())
    }

    /// Batched signed updates through the planned SoA kernels.
    ///
    /// Exploits the per-round seed sharing: all samplers of one round are
    /// drawn from the same seed, so the geometric levels, fingerprint
    /// powers, and bucket columns of each edge index are computed **once
    /// per round** ([`L0Sampler::plan_updates`]) and scattered into every
    /// endpoint row — both endpoints of an edge, and every vertex the batch
    /// touches, reuse the same plan. The scalar path recomputes all of it
    /// per (endpoint, round).
    ///
    /// Bit-identical to calling [`try_update`](Self::try_update) per entry
    /// in order (field addition is exact and commutative), except that an
    /// invalid entry rejects the *entire* batch before anything is applied,
    /// whereas the scalar loop would have applied the valid prefix.
    pub fn try_update_batch(&mut self, updates: &[(HyperEdge, i64)]) -> SketchResult<()> {
        let nv = self.vertices.len();
        if updates.is_empty() || nv == 0 {
            for (e, _) in updates {
                self.validate_edge(e)?;
            }
            return Ok(());
        }
        for (e, _) in updates {
            self.validate_edge(e)?;
        }
        let (keys, by_row) = self.aggregate_batch(updates);
        if keys.is_empty() {
            return Ok(());
        }
        for round in 0..self.rounds {
            // Any sampler of the round carries the round's seeds; plan once.
            let plan = self.samplers[round * nv].plan_updates(&keys)?;
            for (local, items) in by_row.iter().enumerate() {
                if items.is_empty() {
                    continue;
                }
                self.samplers[round * nv + local].apply_planned_many(&plan, items)?;
            }
        }
        Ok(())
    }

    /// Collapses the batch per edge rank, summing deltas in the field.
    ///
    /// Churn streams revisit edges (insert, delete, re-insert): equal ranks
    /// hash identically, so duplicates share one plan slot, and because
    /// field addition is exact, applying the summed delta once is
    /// bit-identical to applying each update in turn. Edges whose deltas
    /// cancel to zero are dropped outright (adding zero is the identity),
    /// removing both their planning and their apply work — on a
    /// deletion-heavy stream that is most of the batch.
    ///
    /// Returns the live (nonzero) rank list plus, per vertex row, the
    /// `(plan key id, field coefficient)` contributions.
    #[allow(clippy::type_complexity)]
    fn aggregate_batch(&self, updates: &[(HyperEdge, i64)]) -> (Vec<u64>, Vec<Vec<(u32, Fp)>>) {
        let mut uniq: Vec<u64> = Vec::with_capacity(updates.len());
        let mut first: Vec<usize> = Vec::with_capacity(updates.len());
        let mut sums: Vec<Fp> = Vec::with_capacity(updates.len());
        let mut seen: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::with_capacity(updates.len());
        for (i, (e, delta)) in updates.iter().enumerate() {
            let rank = self.space.rank(e);
            let id = *seen.entry(rank).or_insert_with(|| {
                uniq.push(rank);
                first.push(i);
                sums.push(Fp::ZERO);
                uniq.len() - 1
            });
            sums[id] = sums[id].add(Fp::from_i64(*delta));
        }
        let mut keys: Vec<u64> = Vec::with_capacity(uniq.len());
        let mut by_row: Vec<Vec<(u32, Fp)>> = vec![Vec::new(); self.vertices.len()];
        let mut zero_skips = 0u64;
        for (id, &rank) in uniq.iter().enumerate() {
            if sums[id] == Fp::ZERO {
                zero_skips += 1;
                continue;
            }
            let lid = keys.len() as u32;
            keys.push(rank);
            let (e, _) = &updates[first[id]];
            for &v in e.vertices() {
                let local = self.vpos[v as usize] as usize;
                let d = match incidence_coefficient(e, v) {
                    1 => sums[id],
                    -1 => sums[id].neg(),
                    ic => Fp::from_i64(ic).mul(sums[id]),
                };
                by_row[local].push((lid, d));
            }
        }
        self.metrics.batch_zero_skips.add(zero_skips);
        (keys, by_row)
    }

    /// Applies a signed update for hyperedge `e` (+1 insert, -1 delete).
    ///
    /// # Panics
    /// Panics if the edge is invalid for this sketch (absent endpoint,
    /// out-of-range vertex, rank violation) — callers filter edges for
    /// induced subgraphs. Use [`try_update`](Self::try_update) to handle
    /// untrusted streams without panicking.
    pub fn update(&mut self, e: &HyperEdge, delta: i64) {
        if let Err(err) = self.try_update(e, delta) {
            panic!("{err}");
        }
    }

    /// Applies a batch of known edges with a common sign — the peeling
    /// primitive `B(G) - Σ_j B(F_j)` of Sections 4.1–4.2.
    pub fn apply_edges<'a>(&mut self, edges: impl IntoIterator<Item = &'a HyperEdge>, delta: i64) {
        for e in edges {
            self.update(e, delta);
        }
    }

    fn check_compatible(&self, rhs: &SpanningForestSketch) -> SketchResult<()> {
        if self.vertices != rhs.vertices || self.rounds != rhs.rounds {
            return Err(SketchError::invalid(format!(
                "forest sketch shape mismatch: {} vs {} vertices, {} vs {} rounds",
                self.vertices.len(),
                rhs.vertices.len(),
                self.rounds,
                rhs.rounds
            )));
        }
        Ok(())
    }

    /// Fallible cell-wise sum; [`SketchError::InvalidInput`] on a shape or
    /// seed mismatch (e.g. sketches restored from divergent checkpoints).
    pub fn try_add_assign_sketch(&mut self, rhs: &SpanningForestSketch) -> SketchResult<()> {
        self.check_compatible(rhs)?;
        for (a, b) in self.samplers.iter_mut().zip(&rhs.samplers) {
            a.add_assign_sketch(b)?;
        }
        Ok(())
    }

    /// Fallible cell-wise difference; see
    /// [`try_add_assign_sketch`](Self::try_add_assign_sketch).
    pub fn try_sub_assign_sketch(&mut self, rhs: &SpanningForestSketch) -> SketchResult<()> {
        self.check_compatible(rhs)?;
        for (a, b) in self.samplers.iter_mut().zip(&rhs.samplers) {
            a.sub_assign_sketch(b)?;
        }
        Ok(())
    }

    /// Cell-wise sum with a same-seeded, same-shape sketch.
    ///
    /// # Panics
    /// Panics on shape/seed mismatch; in-process shard merges always agree.
    pub fn add_assign_sketch(&mut self, rhs: &SpanningForestSketch) {
        if let Err(err) = self.try_add_assign_sketch(rhs) {
            panic!("{err}");
        }
    }

    /// Cell-wise difference with a same-seeded, same-shape sketch.
    ///
    /// # Panics
    /// Panics on shape/seed mismatch; in-process shard merges always agree.
    pub fn sub_assign_sketch(&mut self, rhs: &SpanningForestSketch) {
        if let Err(err) = self.try_sub_assign_sketch(rhs) {
            panic!("{err}");
        }
    }

    /// Decodes a spanning graph of the sketched subgraph: Borůvka over the
    /// per-round component samplers. Returns the kept edges; with high
    /// probability they connect exactly the components of the sketched
    /// subgraph.
    ///
    /// # Panics
    /// Panics if the decode cannot be certified — use
    /// [`try_decode`](Self::try_decode) for a typed, retryable error.
    pub fn decode(&self) -> Vec<HyperEdge> {
        self.decode_with_labels().0
    }

    /// Fallible [`decode`](Self::decode).
    pub fn try_decode(&self) -> SketchResult<Vec<HyperEdge>> {
        Ok(self.try_decode_with_labels()?.0)
    }

    /// [`decode`](Self::decode) plus the final component label of every
    /// present vertex (labels are indices into `vertices()`).
    ///
    /// # Panics
    /// Panics if [`try_decode_with_labels`](Self::try_decode_with_labels)
    /// fails; with `Profile::Practical` parameters this is a ≪ 1% event.
    pub fn decode_with_labels(&self) -> (Vec<HyperEdge>, UnionFind) {
        match self.try_decode_with_labels() {
            Ok(out) => out,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible Borůvka decode with explicit completeness certification.
    ///
    /// Per round, every component's samplers are summed and sampled once.
    /// Mid-round sampler failures are tolerated — later rounds are fresh,
    /// independent retries, which is exactly why the structure carries
    /// `⌈log n⌉ + extra` rounds. The **final executed round** doubles as a
    /// certificate: if every component's aggregate decoded to a *certified
    /// zero* boundary (no failures, no merges), the partition is provably
    /// stable and `Ok` is returned. Otherwise the remaining partition might
    /// still be mergeable and the decode is a [`SketchError::SketchFailure`]
    /// — retryable against an independent repetition, never a silently
    /// under-merged answer.
    ///
    /// Corrupted inputs surface as [`SketchError::InvalidInput`]: a sampled
    /// edge touching a vertex outside the sketched vertex set (a stream
    /// element that bypassed [`try_update`](Self::try_update) validation).
    /// Streams promising net multiplicities in `{0, 1}` can additionally
    /// use [`try_decode_with_labels_strict`](Self::try_decode_with_labels_strict)
    /// to catch duplicated updates.
    pub fn try_decode_with_labels(&self) -> SketchResult<(Vec<HyperEdge>, UnionFind)> {
        self.decode_impl(false, 1, &mut DecodeScratch::new())
    }

    /// The full-control decode entry point: the decode engine with the
    /// per-round component samples striped over `threads` and a
    /// caller-owned reusable scratch.
    ///
    /// A reused scratch keeps its grouping tables and per-stripe level
    /// buffers across calls (see [`DecodeScratch`]); the answer is
    /// bit-identical for every `threads` value — see `decode_impl` for
    /// why.
    pub fn try_decode_with_scratch(
        &self,
        strict: bool,
        threads: usize,
        scratch: &mut DecodeScratch,
    ) -> SketchResult<(Vec<HyperEdge>, UnionFind)> {
        self.decode_impl(strict, threads, scratch)
    }

    /// [`try_decode_with_labels`](Self::try_decode_with_labels) for simple
    /// (multiplicity-0/1) streams: additionally rejects any sampled
    /// boundary weight with magnitude `>= max_rank`, which is impossible
    /// when every edge's net multiplicity is 0 or 1 — the signature of a
    /// duplicated insert (e.g. a fault-injected replay) in a rank-2 stream.
    /// Weighted/multigraph streams must use the non-strict decode, where
    /// larger weights are legitimate.
    pub fn try_decode_with_labels_strict(&self) -> SketchResult<(Vec<HyperEdge>, UnionFind)> {
        self.decode_impl(true, 1, &mut DecodeScratch::new())
    }

    /// The historical clone-and-merge Borůvka decoder, retained verbatim
    /// as the sequential reference: per round it clones one sampler per
    /// component, folds the remaining members in with
    /// [`L0Sampler::add_assign_sketch`], and samples through the historical
    /// peel loop ([`L0Sampler::sample_legacy`]: fresh allocations, a Fermat
    /// inversion per nonzero cell per pass). The decode engine must match
    /// it bit for bit — the equivalence tests and experiment E19's baseline
    /// rows both lean on that.
    pub fn try_decode_reference(&self, strict: bool) -> SketchResult<(Vec<HyperEdge>, UnionFind)> {
        self.metrics.decode_attempts.inc();
        let nv = self.vertices.len();
        let mut uf = UnionFind::new(nv);
        let mut out: BTreeSet<HyperEdge> = BTreeSet::new();
        // True iff the most recent round proved the partition stable.
        let mut last_round_certified = true;
        let mut rounds_used = 0u64;
        for round in 0..self.rounds {
            if uf.component_count() <= 1 {
                break;
            }
            rounds_used += 1;
            // Aggregate this round's samplers per component.
            let mut agg: BTreeMap<u32, L0Sampler> = BTreeMap::new();
            for local in 0..nv as u32 {
                let root = uf.find(local);
                let sampler = &self.samplers[round * nv + local as usize];
                match agg.get_mut(&root) {
                    Some(acc) => acc.add_assign_sketch(sampler)?,
                    None => {
                        agg.insert(root, sampler.clone());
                    }
                }
            }
            // Sample one boundary edge per component, then merge all at once
            // (the per-round partition snapshot the analysis assumes).
            let mut merges: Vec<HyperEdge> = Vec::new();
            let mut round_failed = false;
            for (_root, acc) in agg {
                match self.classify_sample(acc.sample_legacy(), strict, &mut merges)? {
                    SampleOutcome::Advanced => {}
                    SampleOutcome::Failed => round_failed = true,
                }
            }
            last_round_certified = !round_failed && merges.is_empty();
            for e in merges {
                let locals: Vec<u32> = e
                    .vertices()
                    .iter()
                    .map(|&v| self.vpos[v as usize])
                    .collect();
                let mut merged = false;
                for w in locals.windows(2) {
                    merged |= uf.union(w[0], w[1]);
                }
                if merged {
                    out.insert(e);
                }
            }
        }
        if uf.component_count() > 1 && !last_round_certified {
            self.metrics.decode_failures.inc();
            return Err(SketchError::failure(
                "forest",
                format!(
                    "Borůvka ended with {} components but the final round could \
                     not certify completeness (sampler failure or still merging)",
                    uf.component_count()
                ),
            ));
        }
        self.metrics.decode_successes.inc();
        self.metrics.rounds_used.record(rounds_used);
        Ok((out.into_iter().collect(), uf))
    }

    /// Applies the strict-weight and vertex-set checks to one component's
    /// sample outcome, pushing a sampled edge onto `merges`. Shared by the
    /// reference decoder and the decode engine so both surface byte-for-byte
    /// identical errors in identical (ascending-root) order.
    fn classify_sample(
        &self,
        outcome: SketchResult<Option<(u64, i64)>>,
        strict: bool,
        merges: &mut Vec<HyperEdge>,
    ) -> SketchResult<SampleOutcome> {
        match outcome {
            Ok(Some((idx, w))) => {
                if strict && w.unsigned_abs() >= self.space.max_rank() as u64 {
                    return Err(SketchError::invalid(format!(
                        "sampled boundary weight {w} is impossible for \
                         rank-{} edges with net 0/1 multiplicities \
                         (duplicated or phantom stream element)",
                        self.space.max_rank()
                    )));
                }
                let e = self.space.unrank(idx);
                if let Some(&v) = e.vertices().iter().find(|&&v| !self.has_vertex(v)) {
                    return Err(SketchError::invalid(format!(
                        "sampled edge {e:?} touches vertex {v} outside \
                         the sketched vertex set"
                    )));
                }
                merges.push(e);
                Ok(SampleOutcome::Advanced)
            }
            // Certified-zero boundary for this component.
            Ok(None) => Ok(SampleOutcome::Advanced),
            Err(e) if e.is_retryable() => Ok(SampleOutcome::Failed),
            Err(e) => Err(e),
        }
    }

    /// The decode engine.
    ///
    /// Per Borůvka round: group the local vertices by union-find root
    /// (ascending-root component slots — the same order the reference
    /// decoder's `BTreeMap` iterates) and sample one boundary edge per
    /// component with [`L0Sampler::sample_sum`] over its members, the
    /// first member's seeds serving as the template. It folds the
    /// members' level `j` into a one-level buffer only when the level walk
    /// reaches `j`, skipping members whose touched watermark says their
    /// level `j` is zero, so no component sum is ever materialised beyond
    /// the level being peeled (a singleton's levels are copied). Component
    /// slots are carved into contiguous chunks, which [`dgs_pool::stripe`]
    /// runs with chunk `t` always on pool worker `t`; each chunk owns a
    /// disjoint result range and its own peel scratch, and the per-slot
    /// outcomes are then scanned **sequentially in slot order**, so errors,
    /// merges, and certification decisions are independent of thread
    /// interleaving. A chunk that panics fails the decode with a
    /// retryable [`SketchError::SketchFailure`].
    ///
    /// Bit-identity with [`try_decode_reference`]
    /// (Self::try_decode_reference) holds because (a) field addition is
    /// exact and commutative, so each folded level equals the reference's
    /// incremental merge-adds cell for cell, (b) sampling is a
    /// deterministic function of the summed cells and the round seeds —
    /// the level walk stops at the same level whether or not the higher
    /// levels exist — and (c) the slot-order scan replays the reference's
    /// ascending-root processing exactly. Cross-*round* reuse of component
    /// sums is deliberately **not** attempted: each round carries fresh
    /// seeds (the Section 4.2 independence requirement), so a component's
    /// round-`t` aggregate says nothing about its round-`t+1` state — the
    /// only state that legitimately persists across rounds is the
    /// union-find partition, which this engine maintains incrementally.
    ///
    /// Compatibility of every member with its slot's seed template is
    /// routed through [`L0Sampler::check_compatible`] — the same check
    /// [`try_add_assign_sketch`](Self::try_add_assign_sketch) relies on —
    /// so the component-merge path and explicit sketch merges can never
    /// drift apart.
    fn decode_impl(
        &self,
        strict: bool,
        threads: usize,
        scratch: &mut DecodeScratch,
    ) -> SketchResult<(Vec<HyperEdge>, UnionFind)> {
        use std::time::Instant;
        self.metrics.decode_attempts.inc();
        let nv = self.vertices.len();
        let mut uf = UnionFind::new(nv);
        // True iff the most recent round proved the partition stable.
        let mut last_round_certified = true;
        let mut rounds_used = 0u64;
        let (mut fold_ns, mut peel_ns, mut merge_ns) = (0u64, 0u64, 0u64);
        let DecodeScratch {
            root_of,
            slot_of,
            roots,
            starts,
            cursors,
            members,
            results,
            peel,
            merges,
            locals,
            out,
        } = scratch;
        out.clear();
        root_of.resize(nv, 0);
        slot_of.resize(nv, 0);
        members.resize(nv, 0);
        for round in 0..self.rounds {
            if uf.component_count() <= 1 {
                break;
            }
            rounds_used += 1;
            // Group local vertices by component, slots in ascending-root
            // order (the reference decoder's BTreeMap iteration order).
            roots.clear();
            for local in 0..nv as u32 {
                let root = uf.find(local);
                root_of[local as usize] = root;
                if root == local {
                    roots.push(local);
                }
            }
            let live = roots.len();
            for (slot, &root) in roots.iter().enumerate() {
                slot_of[root as usize] = slot as u32;
            }
            starts.clear();
            starts.resize(live + 1, 0);
            for local in 0..nv {
                starts[slot_of[root_of[local] as usize] as usize + 1] += 1;
            }
            for slot in 0..live {
                starts[slot + 1] += starts[slot];
            }
            cursors.clear();
            cursors.resize(live, 0);
            for local in 0..nv as u32 {
                let slot = slot_of[root_of[local as usize] as usize] as usize;
                members[starts[slot] as usize + cursors[slot] as usize] = local;
                cursors[slot] += 1;
            }
            results.clear();
            results.resize_with(live, || Ok(None));
            // Carve the live slots into contiguous stripes, at least
            // MIN_SLOTS_PER_STRIPE slots each so tiny rounds stay inline.
            const MIN_SLOTS_PER_STRIPE: usize = 4;
            let chunk = live
                .div_ceil(threads.max(1))
                .max(MIN_SLOTS_PER_STRIPE.min(live.max(1)));
            let stripes = live.div_ceil(chunk);
            if peel.len() < stripes {
                peel.resize_with(stripes, dgs_sketch::PeelScratch::default);
            }
            let row = &self.samplers[round * nv..(round + 1) * nv];
            // Stripe `t` samples every component of its slots with its own
            // peel scratch and returns its (fold, peel) times, which sum
            // to its wall time.
            let mut work: Vec<_> = results
                .chunks_mut(chunk)
                .zip(peel.iter_mut())
                .enumerate()
                .collect();
            let phases = dgs_pool::stripe(
                &mut work,
                stripes,
                None,
                |(t, (res, peel))| {
                    let t0 = Instant::now();
                    peel.take_fold_ns();
                    for (k, outcome) in res.iter_mut().enumerate() {
                        let slot = *t * chunk + k;
                        let group = &members[starts[slot] as usize..starts[slot + 1] as usize];
                        // The first member's seeds are the template, as in
                        // the reference, which clones it before merging the
                        // rest.
                        let template = &row[group[0] as usize];
                        *outcome =
                            template.sample_sum(group.iter().map(|&m| &row[m as usize]), peel);
                    }
                    let wall = t0.elapsed().as_nanos() as u64;
                    let fold = peel.take_fold_ns().min(wall);
                    Ok((fold, wall - fold))
                },
                |_| Err(SketchError::failure("forest", "decode stripe panicked")),
            );
            // The phase cost is the critical path: the slowest stripe.
            let (mut fold, mut peeled) = (0, 0);
            for phase in phases {
                let (f, p) = phase?;
                if f + p >= fold + peeled {
                    (fold, peeled) = (f, p);
                }
            }
            fold_ns += fold;
            peel_ns += peeled;
            // Sequential post-pass in slot (ascending-root) order: strict
            // checks, fatal errors, merges, and certification all replay
            // the reference decoder's processing order exactly, so the
            // outcome can never depend on thread interleaving.
            let t2 = Instant::now();
            merges.clear();
            let mut round_failed = false;
            for outcome in results.drain(..) {
                match self.classify_sample(outcome, strict, merges)? {
                    SampleOutcome::Advanced => {}
                    SampleOutcome::Failed => round_failed = true,
                }
            }
            last_round_certified = !round_failed && merges.is_empty();
            for e in merges.drain(..) {
                locals.clear();
                locals.extend(e.vertices().iter().map(|&v| self.vpos[v as usize]));
                let mut merged = false;
                for w in locals.windows(2) {
                    merged |= uf.union(w[0], w[1]);
                }
                if merged {
                    out.push(e);
                }
            }
            merge_ns += t2.elapsed().as_nanos() as u64;
        }
        self.metrics.decode_aggregate_ns.record(fold_ns);
        self.metrics.decode_sample_ns.record(peel_ns);
        self.metrics.decode_merge_ns.record(merge_ns);
        // Under an ambient request trace these become phase spans of the
        // decode (inert otherwise), linking the per-phase histograms above
        // to the specific request that produced them.
        dgs_trace::phase("dgs_connectivity_forest_decode_aggregate", fold_ns);
        dgs_trace::phase("dgs_connectivity_forest_decode_sample", peel_ns);
        dgs_trace::phase("dgs_connectivity_forest_decode_merge", merge_ns);
        if uf.component_count() > 1 && !last_round_certified {
            self.metrics.decode_failures.inc();
            return Err(SketchError::failure(
                "forest",
                format!(
                    "Borůvka ended with {} components but the final round could \
                     not certify completeness (sampler failure or still merging)",
                    uf.component_count()
                ),
            ));
        }
        self.metrics.decode_successes.inc();
        self.metrics.rounds_used.record(rounds_used);
        // Kept edges accumulate in merge order; the reference returns them
        // in `HyperEdge` order (BTreeSet), so normalise. No edge is ever
        // kept twice — a second component sampling the same edge finds it
        // already merged — but dedup cheaply documents the invariant.
        out.sort_unstable();
        out.dedup();
        Ok((out.clone(), uf))
    }

    /// Fallible component count of the sketched subgraph.
    pub fn try_component_count(&self) -> SketchResult<usize> {
        Ok(self.try_decode_with_labels()?.1.component_count())
    }

    /// Number of connected components of the sketched subgraph (whp).
    ///
    /// # Panics
    /// Panics if the decode cannot be certified; see
    /// [`try_component_count`](Self::try_component_count).
    pub fn component_count(&self) -> usize {
        self.decode_with_labels().1.component_count()
    }

    /// Fallible connectivity verdict.
    pub fn try_is_connected(&self) -> SketchResult<bool> {
        Ok(self.try_component_count()? <= 1)
    }

    /// True iff the sketched subgraph is connected (whp).
    ///
    /// # Panics
    /// Panics if the decode cannot be certified; see
    /// [`try_is_connected`](Self::try_is_connected).
    pub fn is_connected(&self) -> bool {
        self.component_count() <= 1
    }

    /// Total memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.samplers.iter().map(|s| s.size_bytes()).sum()
    }

    /// The largest per-vertex message in the simultaneous communication
    /// model: all rounds' samplers for one vertex.
    pub fn max_player_message_bytes(&self) -> usize {
        let nv = self.vertices.len();
        if nv == 0 {
            return 0;
        }
        (0..nv)
            .map(|local| {
                (0..self.rounds)
                    .map(|r| self.samplers[r * nv + local].size_bytes())
                    .sum()
            })
            .max()
            .unwrap()
    }

    /// Clones the per-round samplers of one vertex (the player model's
    /// message content).
    pub fn vertex_samplers(&self, v: VertexId) -> Vec<L0Sampler> {
        let local = self.vpos[v as usize];
        assert!(local != u32::MAX, "vertex {v} absent");
        let nv = self.vertices.len();
        (0..self.rounds)
            .map(|r| self.samplers[r * nv + local as usize].clone())
            .collect()
    }

    /// Fallible referee assembly step: overwrites one vertex's samplers
    /// after validating the vertex is present, the round count matches, and
    /// every incoming sampler is seed/shape-compatible with the slot it
    /// replaces. Player messages arrive from *outside* the process, so a
    /// corrupted or misrouted message must surface as
    /// [`SketchError::InvalidInput`], not scribble into the sketch.
    pub fn try_set_vertex_samplers(
        &mut self,
        v: VertexId,
        samplers: Vec<L0Sampler>,
    ) -> SketchResult<()> {
        if (v as usize) >= self.vpos.len() || self.vpos[v as usize] == u32::MAX {
            return Err(SketchError::invalid(format!(
                "player message for vertex {v} absent from the sketch"
            )));
        }
        if samplers.len() != self.rounds {
            return Err(SketchError::invalid(format!(
                "player message carries {} rounds, sketch expects {}",
                samplers.len(),
                self.rounds
            )));
        }
        let local = self.vpos[v as usize] as usize;
        let nv = self.vertices.len();
        for (r, s) in samplers.iter().enumerate() {
            self.samplers[r * nv + local].check_compatible(s)?;
        }
        for (r, s) in samplers.into_iter().enumerate() {
            self.samplers[r * nv + local] = s;
        }
        Ok(())
    }

    /// Overwrites the samplers of one vertex (the referee's assembly step).
    ///
    /// # Panics
    /// Panics on an absent vertex or mismatched message shape; see
    /// [`try_set_vertex_samplers`](Self::try_set_vertex_samplers).
    pub fn set_vertex_samplers(&mut self, v: VertexId, samplers: Vec<L0Sampler>) {
        if let Err(err) = self.try_set_vertex_samplers(v, samplers) {
            panic!("{err}");
        }
    }
}

impl dgs_field::Codec for ForestParams {
    fn encode(&self, w: &mut dgs_field::Writer) {
        self.l0.encode(w);
        w.put_usize(self.extra_rounds);
    }
    fn decode(r: &mut dgs_field::Reader<'_>) -> Result<Self, dgs_field::CodecError> {
        Ok(ForestParams {
            l0: L0Params::decode(r)?,
            extra_rounds: r.get_len(64)?,
        })
    }
}

impl dgs_field::Codec for SpanningForestSketch {
    fn encode(&self, w: &mut dgs_field::Writer) {
        w.put_usize(self.space.n());
        w.put_usize(self.space.max_rank());
        self.vertices
            .iter()
            .map(|&v| v as u64)
            .collect::<Vec<u64>>()
            .encode(w);
        w.put_usize(self.rounds);
        self.samplers.encode(w);
    }
    fn decode(r: &mut dgs_field::Reader<'_>) -> Result<Self, dgs_field::CodecError> {
        let bad = |message: String| dgs_field::CodecError { offset: 0, message };
        let n = r.get_len(1 << 32)?;
        let max_rank = r.get_len(64)?;
        let space =
            EdgeSpace::new(n, max_rank).map_err(|e| bad(format!("invalid edge space: {e}")))?;
        let vertices_raw: Vec<u64> = Vec::decode(r)?;
        let vertices: Vec<VertexId> = vertices_raw.iter().map(|&v| v as VertexId).collect();
        if vertices.windows(2).any(|w| w[0] >= w[1]) || vertices.iter().any(|&v| (v as usize) >= n)
        {
            return Err(bad("vertex list not sorted/unique/in-range".into()));
        }
        let rounds = r.get_len(256)?;
        let samplers: Vec<L0Sampler> = Vec::decode(r)?;
        if samplers.len() != rounds * vertices.len() {
            return Err(bad(format!(
                "sampler count {} != rounds {} x vertices {}",
                samplers.len(),
                rounds,
                vertices.len()
            )));
        }
        let mut vpos = vec![u32::MAX; n];
        for (i, &v) in vertices.iter().enumerate() {
            vpos[v as usize] = i as u32;
        }
        Ok(SpanningForestSketch {
            space,
            vertices,
            vpos,
            rounds,
            samplers,
            metrics: ForestMetrics::default(),
        })
    }
}

fn ceil_log2(x: usize) -> usize {
    (usize::BITS - (x - 1).leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_field::prng::*;
    use dgs_hypergraph::algo::{component_count, hyper_component_count, is_connected};
    use dgs_hypergraph::generators::{gnp, random_uniform_hypergraph};
    use dgs_hypergraph::{Graph, Hypergraph};

    fn graph_sketch(n: usize, label: u64) -> SpanningForestSketch {
        let space = EdgeSpace::graph(n).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        SpanningForestSketch::new_full(space, &SeedTree::new(77).child(label), params)
    }

    fn load_graph(sk: &mut SpanningForestSketch, g: &Graph) {
        for (u, v) in g.edges() {
            sk.update(&HyperEdge::pair(u, v), 1);
        }
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
    }

    #[test]
    fn decodes_spanning_tree_of_path() {
        let mut sk = graph_sketch(8, 0);
        let g = Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
        load_graph(&mut sk, &g);
        let forest = sk.decode();
        // The path is its own unique spanning tree.
        assert_eq!(forest.len(), 7);
        assert!(sk.is_connected());
    }

    #[test]
    fn connectivity_verdict_matches_truth_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(10);
        for trial in 0..15 {
            let n = rng.gen_range(6..30);
            let p = rng.gen_range(0.05..0.4);
            let g = gnp(n, p, &mut rng);
            let space = EdgeSpace::graph(n).unwrap();
            let params = ForestParams::new(Profile::Practical, space.dimension());
            let mut sk =
                SpanningForestSketch::new_full(space, &SeedTree::new(500).child(trial), params);
            load_graph(&mut sk, &g);
            let (forest, labels) = sk.decode_with_labels();
            assert_eq!(
                labels.component_count(),
                component_count(&g),
                "trial {trial}: wrong component count"
            );
            // Every decoded edge is a real edge.
            for e in &forest {
                let (u, v) = e.as_pair();
                assert!(g.has_edge(u, v), "trial {trial}: phantom edge {e:?}");
            }
            assert_eq!(sk.is_connected(), is_connected(&g), "trial {trial}");
        }
    }

    #[test]
    fn deletions_are_invisible() {
        // Insert a dense graph, delete down to a sparse one: the decode must
        // reflect only the final graph.
        let n = 12;
        let mut sk = graph_sketch(n, 3);
        let dense = Graph::complete(n);
        load_graph(&mut sk, &dense);
        // Delete everything except a spanning star at 0.
        for (u, v) in dense.edges() {
            if u != 0 {
                sk.update(&HyperEdge::pair(u, v), -1);
            }
        }
        let forest = sk.decode();
        assert_eq!(forest.len(), n - 1);
        for e in &forest {
            assert_eq!(e.as_pair().0, 0, "decoded non-star edge {e:?}");
        }
    }

    #[test]
    fn hypergraph_spanning_sketch_theorem_13() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..8 {
            let n = rng.gen_range(8..20);
            let m = rng.gen_range(4..20);
            let h = random_uniform_hypergraph(n, 3, m, &mut rng);
            let space = EdgeSpace::new(n, 3).unwrap();
            let params = ForestParams::new(Profile::Practical, space.dimension());
            let mut sk =
                SpanningForestSketch::new_full(space, &SeedTree::new(600).child(trial), params);
            for e in h.edges() {
                sk.update(e, 1);
            }
            let (kept, labels) = sk.decode_with_labels();
            assert_eq!(
                labels.component_count(),
                hyper_component_count(&h),
                "trial {trial}"
            );
            for e in &kept {
                assert!(h.has_edge(e), "trial {trial}: phantom hyperedge {e:?}");
            }
            // Spanning property: the kept edges alone give the same components.
            let sub = Hypergraph::from_edges(n, kept);
            assert_eq!(
                hyper_component_count(&sub),
                hyper_component_count(&h),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn induced_sketch_ignores_missing_vertices() {
        let n = 10;
        let space = EdgeSpace::graph(n).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let present = vec![0u32, 2, 4, 6, 8];
        let mut sk =
            SpanningForestSketch::new_induced(space, present.clone(), &SeedTree::new(700), params);
        // Edges among present vertices only.
        sk.update(&HyperEdge::pair(0, 2), 1);
        sk.update(&HyperEdge::pair(4, 6), 1);
        let (forest, labels) = sk.decode_with_labels();
        assert_eq!(forest.len(), 2);
        assert_eq!(labels.component_count(), 3); // {0,2}, {4,6}, {8}
        assert!(sk.has_vertex(4));
        assert!(!sk.has_vertex(3));
    }

    #[test]
    #[should_panic(expected = "absent vertex")]
    fn update_with_absent_endpoint_panics() {
        let space = EdgeSpace::graph(6).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let mut sk =
            SpanningForestSketch::new_induced(space, vec![0, 1, 2], &SeedTree::new(1), params);
        sk.update(&HyperEdge::pair(0, 5), 1);
    }

    #[test]
    fn sketch_subtraction_peels_a_known_forest() {
        // Build A(G); subtract A(F) for a recovered forest F; the remainder
        // decodes G - F (the k-skeleton construction step).
        let n = 9;
        let seeds = SeedTree::new(800);
        let space = EdgeSpace::graph(n).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let g = Graph::complete(n);
        let mut total = SpanningForestSketch::new_full(space.clone(), &seeds, params);
        load_graph(&mut total, &g);
        let f1 = total.decode();
        assert_eq!(f1.len(), n - 1);
        let mut rest = total.clone();
        rest.apply_edges(f1.iter(), -1);
        let f2 = rest.decode();
        assert_eq!(f2.len(), n - 1, "K_n minus a tree is still connected");
        for e in &f2 {
            assert!(!f1.contains(e), "edge {e:?} reused after peeling");
        }
    }

    #[test]
    fn batched_update_encoding_matches_scalar() {
        use dgs_field::{Codec, Writer};
        let mut rng = StdRng::seed_from_u64(21);
        let n = 14;
        let g = gnp(n, 0.3, &mut rng);
        let mut updates: Vec<(HyperEdge, i64)> = g
            .edges()
            .map(|(u, v)| (HyperEdge::pair(u, v), 1i64))
            .collect();
        // Cancelling pair inside the batch.
        let (e0, _) = updates[0].clone();
        updates.push((e0, -1));
        let mut scalar = graph_sketch(n, 30);
        let mut batched = graph_sketch(n, 30);
        for (e, d) in &updates {
            scalar.try_update(e, *d).unwrap();
        }
        for chunk in updates.chunks(5) {
            batched.try_update_batch(chunk).unwrap();
        }
        let (mut wa, mut wb) = (Writer::new(), Writer::new());
        scalar.encode(&mut wa);
        batched.encode(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    /// Asserts the engine replays the clone-and-merge reference exactly —
    /// same edges, same labels, or the same error — at every thread count,
    /// strict and non-strict.
    fn assert_engine_matches_reference(sk: &SpanningForestSketch, case: &str) {
        for strict in [false, true] {
            let reference = sk.try_decode_reference(strict);
            for threads in [1usize, 2, 4, 7] {
                let mut scratch = DecodeScratch::new();
                let engine = sk.try_decode_with_scratch(strict, threads, &mut scratch);
                match (&reference, &engine) {
                    (Ok((re, ru)), Ok((ee, eu))) => {
                        assert_eq!(re, ee, "{case} strict={strict} threads={threads}");
                        assert_eq!(
                            ru.clone().labels(),
                            eu.clone().labels(),
                            "{case} strict={strict} threads={threads}"
                        );
                    }
                    (Err(a), Err(b)) => assert_eq!(
                        (a.is_retryable(), a.to_string()),
                        (b.is_retryable(), b.to_string()),
                        "{case} strict={strict} threads={threads}"
                    ),
                    _ => panic!(
                        "{case} strict={strict} threads={threads}: \
                         reference {reference:?} vs engine {engine:?}"
                    ),
                }
            }
        }
    }

    /// Applies `stream` to `sk` as signed updates.
    fn apply_stream(sk: &mut SpanningForestSketch, stream: &[dgs_hypergraph::Update]) {
        for u in stream {
            sk.update(&u.edge, u.op.delta());
        }
    }

    #[test]
    fn decode_matches_reference_on_insert_only_streams() {
        // Insert-only graphs and hypergraphs.
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..12 {
            let n = rng.gen_range(5..28);
            let rank = if trial % 3 == 2 { 3 } else { 2 };
            let space = EdgeSpace::new(n, rank).unwrap();
            let params = ForestParams::new(Profile::Practical, space.dimension());
            let mut sk =
                SpanningForestSketch::new_full(space, &SeedTree::new(900).child(trial), params);
            if rank == 2 {
                load_graph(&mut sk, &gnp(n, rng.gen_range(0.05..0.5), &mut rng));
            } else {
                let m = rng.gen_range(2..20);
                for e in random_uniform_hypergraph(n, 3, m, &mut rng).edges() {
                    sk.update(e, 1);
                }
            }
            assert_engine_matches_reference(&sk, &format!("insert-only trial {trial}"));
        }
    }

    #[test]
    fn decode_matches_reference_on_churn_streams() {
        // Deletions leave touched watermarks above the live levels, which
        // the level-on-demand fold must treat as (zero) state, not skip.
        use dgs_hypergraph::generators::{churn_stream, ChurnConfig};
        let mut rng = StdRng::seed_from_u64(26);
        for trial in 0..6 {
            let n = rng.gen_range(8..40);
            let g = gnp(n, rng.gen_range(0.05..0.35), &mut rng);
            let cfg = ChurnConfig {
                noise_ratio: 1.0,
                churn_ratio: 0.5,
            };
            let stream = churn_stream(&Hypergraph::from_graph(&g), cfg, &mut rng);
            let mut sk = graph_sketch(n, 3000 + trial);
            apply_stream(&mut sk, &stream.updates);
            assert_engine_matches_reference(&sk, &format!("churn trial {trial}"));
        }
    }

    #[test]
    fn decode_matches_reference_at_n256_on_deep_levels() {
        // The query-serve shape: gnp(256) with average degree 8 through a
        // churn stream. Merged components' boundaries grow to hundreds of
        // edges within a few rounds, so their level walks stop at levels
        // 3-5 — the folds the level-on-demand engine defers.
        use dgs_hypergraph::generators::{churn_stream, ChurnConfig};
        let n = 256;
        let mut rng = StdRng::seed_from_u64(27);
        let g = gnp(n, 8.0 / (n - 1) as f64, &mut rng);
        let stream = churn_stream(
            &Hypergraph::from_graph(&g),
            ChurnConfig::default(),
            &mut rng,
        );
        let mut sk = graph_sketch(n, 3100);
        apply_stream(&mut sk, &stream.updates);
        assert_engine_matches_reference(&sk, "gnp n=256 churn");
    }

    #[test]
    fn decode_matches_reference_on_weighted_multigraphs() {
        // Multiplicities past the inverse table's bound make one-sparse
        // cells carry |W| > SMALL_INV_BOUND, so the peel's batch-inverse
        // fallback runs; strict decodes reject those weights identically.
        let bound = dgs_field::fp61::SMALL_INV_BOUND as i64;
        let mut rng = StdRng::seed_from_u64(28);
        for trial in 0..6 {
            let n = rng.gen_range(6..30);
            let g = gnp(n, rng.gen_range(0.1..0.4), &mut rng);
            let mut sk = graph_sketch(n, 3200 + trial);
            for (u, v) in g.edges() {
                let w = *[1, 2, bound + 1, 3 * bound, 1 << 20]
                    .choose(&mut rng)
                    .unwrap();
                sk.update(&HyperEdge::pair(u, v), w);
                if rng.gen_bool(0.3) {
                    // Partial cancellation keeps a positive multiplicity.
                    sk.update(&HyperEdge::pair(u, v), -(w - 1).min(bound));
                }
            }
            assert_engine_matches_reference(&sk, &format!("weighted trial {trial}"));
        }
    }

    #[test]
    fn decode_matches_reference_when_every_level_is_too_dense() {
        // A player message carrying far more support than any level can
        // hold: vertex 0's samplers are dense at every level. Vertex 1
        // samples the real edge (0, 1) in round 0, so from round 1 on the
        // merged component {0, 1} walks and fails all its levels, and the
        // decode must end in the reference's retryable failure.
        let space = EdgeSpace::graph(200).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let dimension = space.dimension();
        let mut sk = SpanningForestSketch::new_induced(
            space,
            vec![0, 1, 2, 3],
            &SeedTree::new(3300),
            params,
        );
        sk.update(&HyperEdge::pair(0, 1), 1);
        sk.update(&HyperEdge::pair(2, 3), 1);
        let mut rng = StdRng::seed_from_u64(29);
        let mut dense = sk.vertex_samplers(0);
        for s in &mut dense {
            for _ in 0..2000 {
                s.update(rng.gen_range(0..dimension), 1).unwrap();
            }
        }
        sk.try_set_vertex_samplers(0, dense).unwrap();
        let err = sk.try_decode_reference(false).unwrap_err();
        assert!(err.is_retryable(), "{err}");
        assert_engine_matches_reference(&sk, "dense component");
    }

    #[test]
    fn decode_matches_reference_on_zero_sketches() {
        // Never updated, and updated then fully cancelled (touched
        // watermarks high, every cell zero): certified-zero everywhere.
        let empty = graph_sketch(9, 3400);
        assert_engine_matches_reference(&empty, "empty");
        let mut cancelled = graph_sketch(9, 3401);
        let g = Graph::complete(9);
        load_graph(&mut cancelled, &g);
        for (u, v) in g.edges() {
            cancelled.update(&HyperEdge::pair(u, v), -1);
        }
        assert_engine_matches_reference(&cancelled, "cancelled");
        let (edges, mut labels) = cancelled
            .try_decode_with_scratch(true, 2, &mut DecodeScratch::new())
            .unwrap();
        assert!(edges.is_empty());
        assert_eq!(labels.component_count(), 9);
        assert_eq!(labels.labels(), (0..9).collect::<Vec<u32>>());
    }

    #[test]
    fn decode_phase_times_fit_inside_the_decode() {
        // Fold (aggregate), peel (sample) and union-find (merge) are timed
        // separately although folding interleaves with peeling; their
        // sum must never exceed the wall time of the decode that recorded
        // them, at any thread count.
        use dgs_obs::Registry;
        let mut rng = StdRng::seed_from_u64(30);
        for (trial, n) in [12usize, 40, 96].into_iter().enumerate() {
            let mut sk = graph_sketch(n, 3500 + trial as u64);
            load_graph(&mut sk, &gnp(n, 6.0 / n as f64, &mut rng));
            for threads in [1usize, 2, 4] {
                let registry = Registry::new();
                sk.set_sink(&registry.sink());
                let t = std::time::Instant::now();
                let got = sk.try_decode_with_scratch(false, threads, &mut DecodeScratch::new());
                let wall = t.elapsed().as_nanos() as u64;
                got.unwrap();
                let phase = |name: &str| {
                    let stats = registry
                        .histogram_stats(&format!("dgs_connectivity_forest_decode_{name}_ns"))
                        .unwrap();
                    assert_eq!(stats.count, 1, "{name}: one record per decode");
                    stats.sum
                };
                let sum = phase("aggregate") + phase("sample") + phase("merge");
                assert!(
                    sum <= wall,
                    "n={n} threads={threads}: phases {sum} ns > decode {wall} ns"
                );
            }
        }
    }

    #[test]
    fn merged_player_sub_sketches_decode_identically_to_full() {
        // Section 4 player model via linearity: same-seeded sub-sketches,
        // each holding a shard of the stream, sum through the
        // `L0Sampler::check_compatible`-guarded merge to exactly the
        // full-stream sketch — byte-identical state, and byte-identical
        // decodes on both the reference and the decode engine paths.
        use dgs_field::{Codec, Writer};
        let bytes = |sk: &SpanningForestSketch| {
            let mut w = Writer::new();
            sk.encode(&mut w);
            w.into_bytes()
        };
        let mut rng = StdRng::seed_from_u64(25);
        for trial in 0..10 {
            let n = rng.gen_range(5..20);
            let g = gnp(n, rng.gen_range(0.1..0.55), &mut rng);
            let players = rng.gen_range(1..5usize);
            let mut full = graph_sketch(n, 2000 + trial);
            let mut shares: Vec<SpanningForestSketch> = (0..players)
                .map(|_| graph_sketch(n, 2000 + trial))
                .collect();
            for (idx, (u, v)) in g.edges().enumerate() {
                let e = HyperEdge::pair(u, v);
                full.update(&e, 1);
                shares[idx % players].update(&e, 1);
            }
            let mut merged = shares.remove(0);
            for s in &shares {
                merged.try_add_assign_sketch(s).unwrap();
            }
            assert_eq!(bytes(&merged), bytes(&full), "trial {trial}: state differs");
            let want = full.try_decode_reference(false).unwrap();
            for threads in [1usize, 4] {
                let got = merged
                    .try_decode_with_scratch(false, threads, &mut DecodeScratch::new())
                    .unwrap();
                assert_eq!(want.0, got.0, "trial {trial} threads={threads}");
                assert_eq!(
                    want.1.clone().labels(),
                    got.1.clone().labels(),
                    "trial {trial} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn decode_scratch_is_reusable_across_sketches() {
        // One scratch, many decodes of different shapes — growing and
        // shrinking n, and so the level count, the fingerprint points the
        // peel's power table caches, and the stripe count: results must
        // match fresh-scratch decodes every time (no state leaks between
        // calls).
        let mut rng = StdRng::seed_from_u64(24);
        let mut scratch = DecodeScratch::new();
        for (trial, n) in [6usize, 130, 4, 23, 300, 9, 64].into_iter().enumerate() {
            let trial = trial as u64;
            let mut sk = graph_sketch(n, 1000 + trial);
            let p = (rng.gen_range(2.0..6.0) / n as f64).min(0.9);
            load_graph(&mut sk, &gnp(n, p, &mut rng));
            for threads in [1usize, 3] {
                let fresh = sk.try_decode_with_scratch(false, threads, &mut DecodeScratch::new());
                let reused = sk.try_decode_with_scratch(false, threads, &mut scratch);
                match (fresh, reused) {
                    (Ok(fresh), Ok(reused)) => {
                        assert_eq!(fresh.0, reused.0, "n={n} threads={threads}");
                        assert_eq!(
                            fresh.1.clone().labels(),
                            reused.1.clone().labels(),
                            "n={n} threads={threads}"
                        );
                    }
                    (fresh, reused) => assert_eq!(
                        fresh.map(|_| ()).unwrap_err().to_string(),
                        reused.map(|_| ()).unwrap_err().to_string(),
                        "n={n} threads={threads}"
                    ),
                }
            }
        }
    }

    #[test]
    fn batched_update_rejects_invalid_batch_atomically() {
        use dgs_field::{Codec, Writer};
        let mut sk = graph_sketch(6, 31);
        let before = {
            let mut w = Writer::new();
            sk.encode(&mut w);
            w.into_bytes()
        };
        let batch = vec![
            (HyperEdge::pair(0, 1), 1i64),
            (HyperEdge::pair(0, 99), 1i64), // out of range
        ];
        assert!(sk.try_update_batch(&batch).is_err());
        let mut w = Writer::new();
        sk.encode(&mut w);
        assert_eq!(w.into_bytes(), before, "failed batch must apply nothing");
    }

    #[test]
    fn empty_sketch_decodes_no_edges() {
        let sk = graph_sketch(6, 9);
        assert!(sk.decode().is_empty());
        assert_eq!(sk.component_count(), 6);
    }

    #[test]
    fn size_accounting_scales_with_n() {
        let small = graph_sketch(8, 10);
        let large = graph_sketch(64, 11);
        assert!(large.size_bytes() > small.size_bytes());
        assert!(small.max_player_message_bytes() < small.size_bytes());
    }
}
