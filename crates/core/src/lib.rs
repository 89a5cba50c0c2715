//! The paper's primary contributions (Guha–McGregor–Tench, PODS 2015):
//! linear sketches for **vertex connectivity**, **cut-degenerate graph
//! reconstruction**, and **hypergraph sparsification** in dynamic graph
//! streams.
//!
//! | Result | API |
//! |---|---|
//! | Thm 4 — query "does removing `S`, `\|S\| <= k`, disconnect `G`?" in `O(kn polylog)` space | [`VertexConnSketch::try_certificate`] → [`VertexConnCertificate::disconnects`] |
//! | Thm 6/8, Cor 7 — distinguish `(1+ε)k`-vertex-connected from not-`k`-connected | [`VertexConnSketch`] with [`VertexConnConfig::estimator`] → [`VertexConnCertificate::vertex_connectivity`] |
//! | Thm 13 remark — the above over hypergraphs | same APIs with `max_rank > 2` |
//! | edge connectivity `min(λ, k)` via skeletons (the Section 1.1 substrate) | [`EdgeConnSketch`] |
//! | Thm 15, Lemma 16 — recover `light_k(G)`; reconstruct k-cut-degenerate hypergraphs | [`LightRecoverySketch`] |
//! | Lemma 18, Thm 19/20 — `(1+ε)` hypergraph sparsifier | [`HypergraphSparsifier`] |
//!
//! All structures are linear (deletions are negative insertions), built on
//! the substrates in `dgs-sketch` and `dgs-connectivity`, and vertex-based
//! in the simultaneous-communication sense.
//!
//! The `Theory`/`Practical` parameter split is explained in
//! `dgs_sketch::params` and DESIGN.md: the paper's constants are exposed but
//! experiments default to practical sizings whose *scaling shape* matches
//! the theorems.

// The supervision stack (boost → checkpoint → supervise) must
// degrade through typed errors, never panic: `unwrap`/`expect` are denied
// in these modules' non-test code (tests opt back in locally).
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod boost;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod checkpoint;
pub mod edge_conn;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod hybrid;
pub mod reconstruct;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod service;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod slo;
pub mod sparsify;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod supervise;
pub mod vertex_conn;

pub use boost::BoostedQuery;
pub use checkpoint::{
    CheckpointConfig, CheckpointStore, Recoverable, Recovered, RecoveryDriver, RecoveryError,
};
pub use edge_conn::EdgeConnSketch;
pub use hybrid::{HybridConfig, HybridConnectivitySketch, HybridMode};
pub use reconstruct::{LightRecovery, LightRecoverySketch};
pub use service::{
    BreakerConfig, BrownoutConfig, ConnectivityService, Overload, QueryRequest, QueryResponse,
    ServiceConfig, ServiceError, TokenBucketConfig,
};
pub use slo::{BurnMachine, SloConfig, SloEngine, SloReport, SloState};
pub use sparsify::{
    HypergraphSparsifier, SparsifierConfig, SparsifierPlayerMessage, SparsifierResult,
};
pub use supervise::{
    EnsembleOutcome, FrozenEnsemble, QueryBudget, QueryPolicy, ShardState, SupervisedAnswer,
    SupervisedIngestor, SupervisorConfig,
};
pub use vertex_conn::{
    VertexConnCertificate, VertexConnConfig, VertexConnPlayerMessage, VertexConnSketch,
};

/// Checks edge `e` against `space`'s rank bound and vertex range, with the
/// messages [`dgs_connectivity::SpanningForestSketch::validate_edge`] gives.
pub(crate) fn validate_edge(
    space: &dgs_hypergraph::EdgeSpace,
    e: &dgs_hypergraph::HyperEdge,
) -> dgs_sketch::SketchResult<()> {
    use dgs_sketch::SketchError;
    if e.cardinality() > space.max_rank() {
        return Err(SketchError::invalid(format!(
            "edge of rank {} exceeds the space's rank bound {}",
            e.cardinality(),
            space.max_rank()
        )));
    }
    if let Some(&v) = e.vertices().iter().find(|&&v| (v as usize) >= space.n()) {
        return Err(SketchError::invalid(format!(
            "vertex {v} out of range for a {}-vertex edge space",
            space.n()
        )));
    }
    Ok(())
}
