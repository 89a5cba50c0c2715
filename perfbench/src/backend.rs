//! The two tenant sketches behind one interface: construction, the
//! workload's decode, and the layer calls the traced run makes directly.

use dgs_connectivity::{ForestParams, SpanningForestSketch};
use dgs_core::checkpoint::Recoverable;
use dgs_core::{HybridConfig, HybridConnectivitySketch};
use dgs_field::SeedTree;
use dgs_hypergraph::algo::UnionFind;
use dgs_hypergraph::{EdgeSpace, HyperEdge, VertexId};
use dgs_sketch::{Profile, SketchResult};

use crate::script::canonical_labels;

pub trait Sketch: Recoverable + Clone + Send + Sync + 'static {
    /// Span names of this sketch's decode, batched update and clone.
    const DECODE: &'static str;
    const UPDATE: &'static str;
    const CLONE: &'static str;

    /// Repetition `i` of a tenant over `n` vertices, Practical profile.
    fn build(n: usize, seed: u64, i: usize) -> Self;

    /// The workload's decode: canonical component labels.
    fn labels(&self) -> SketchResult<Vec<VertexId>>;

    /// The spanning-forest sketch inside (the sketch itself for a forest
    /// tenant, the idle or spilled inner sketch for a hybrid one).
    fn forest(&self) -> &SpanningForestSketch;

    /// The sketch's own batched update entry point.
    fn update_batch(&mut self, pairs: &[(HyperEdge, i64)]) -> SketchResult<()>;

    /// True while a hybrid answers from its exact buffer.
    fn is_resident(&self) -> bool;
}

pub fn build_forest(n: usize, seed: u64, i: usize) -> SpanningForestSketch {
    let space = EdgeSpace::graph(n).expect("graph edge space");
    let params = ForestParams::new(Profile::Practical, space.dimension());
    SpanningForestSketch::new_full(space, &SeedTree::new(seed).child(i as u64), params)
}

/// Canonical labels of a forest decode.
pub fn forest_labels(s: &SpanningForestSketch) -> SketchResult<Vec<VertexId>> {
    let (_, mut uf): (_, UnionFind) = s.try_decode_with_labels()?;
    Ok(canonical_labels(&mut uf, s.vertices()))
}

impl Sketch for SpanningForestSketch {
    const DECODE: &'static str = "forest.decode";
    const UPDATE: &'static str = "forest.update";
    const CLONE: &'static str = "forest.clone";

    fn build(n: usize, seed: u64, i: usize) -> Self {
        build_forest(n, seed, i)
    }

    fn labels(&self) -> SketchResult<Vec<VertexId>> {
        forest_labels(self)
    }

    fn forest(&self) -> &SpanningForestSketch {
        self
    }

    fn update_batch(&mut self, pairs: &[(HyperEdge, i64)]) -> SketchResult<()> {
        self.try_update_batch(pairs)
    }

    fn is_resident(&self) -> bool {
        false
    }
}

impl Sketch for HybridConnectivitySketch {
    const DECODE: &'static str = "hybrid.decode";
    const UPDATE: &'static str = "hybrid.update";
    const CLONE: &'static str = "hybrid.clone";

    fn build(n: usize, seed: u64, i: usize) -> Self {
        HybridConnectivitySketch::new(build_forest(n, seed, i), HybridConfig::default())
    }

    fn labels(&self) -> SketchResult<Vec<VertexId>> {
        self.try_component_labels()
    }

    fn forest(&self) -> &SpanningForestSketch {
        self.sketch()
    }

    fn update_batch(&mut self, pairs: &[(HyperEdge, i64)]) -> SketchResult<()> {
        self.try_update_batch(pairs)
    }

    fn is_resident(&self) -> bool {
        HybridConnectivitySketch::is_resident(self)
    }
}
