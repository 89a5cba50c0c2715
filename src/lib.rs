//! # dynamic-graph-streams
//!
//! A production-quality Rust implementation of
//! **"Vertex and Hyperedge Connectivity in Dynamic Graph Streams"**
//! (Guha, McGregor, Tench — PODS 2015): linear sketches for vertex
//! connectivity, cut-degenerate graph reconstruction, and hypergraph
//! sparsification over streams of edge insertions *and deletions*, plus all
//! the substrates they stand on and the baselines they are measured
//! against.
//!
//! ## Crate map
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`field`] | `dgs-field` | Mersenne-61 arithmetic, k-wise hashing, fingerprints, seed trees |
//! | [`hypergraph`] | `dgs-hypergraph` | graph/hypergraph types, streams, generators, exact algorithms |
//! | [`sketch`] | `dgs-sketch` | one-sparse cells, s-sparse recovery, ℓ0-samplers |
//! | [`connectivity`] | `dgs-connectivity` | spanning-forest and k-skeleton sketches, player model |
//! | [`core`] | `dgs-core` | the paper's contributions (Thm 4/8/15/20) |
//! | [`baselines`] | `dgs-baselines` | Eppstein certificate, BK sparsifier, lower-bound protocols |
//!
//! ## Quickstart
//!
//! ```
//! use dynamic_graph_streams::prelude::*;
//!
//! // A dynamic stream: insert a triangle, delete one edge.
//! let n = 3;
//! let space = EdgeSpace::graph(n).unwrap();
//! let params = ForestParams::new(Profile::Practical, space.dimension());
//! let mut sketch = SpanningForestSketch::new_full(space, &SeedTree::new(42), params);
//! for (u, v) in [(0, 1), (1, 2), (0, 2)] {
//!     sketch.try_update(&HyperEdge::pair(u, v), 1)?;
//! }
//! sketch.try_update(&HyperEdge::pair(0, 2), -1)?;
//! // A decode certifies its answer or fails with a typed, retryable error.
//! assert!(sketch.try_is_connected()?);
//! # Ok::<(), SketchError>(())
//! ```
//!
//! See `examples/` for end-to-end scenarios and DESIGN.md / EXPERIMENTS.md
//! for the reproduction methodology.

pub use dgs_baselines as baselines;
pub use dgs_connectivity as connectivity;
pub use dgs_core as core;
pub use dgs_field as field;
pub use dgs_hypergraph as hypergraph;
pub use dgs_sketch as sketch;

/// One-stop imports for the common API surface.
pub mod prelude {
    pub use dgs_baselines::{benczur_karger_sparsifier, EppsteinCertificate, StoreAll};
    pub use dgs_connectivity::{
        assemble_players_strict, try_assemble_players, try_player_sketch, DecodeScratch,
        ForestParams, KSkeletonSketch, SpanningForestSketch,
    };
    pub use dgs_core::{
        BoostedQuery, BreakerConfig, BrownoutConfig, CheckpointConfig, CheckpointStore,
        ConnectivityService, EnsembleOutcome, FrozenEnsemble, HybridConfig,
        HybridConnectivitySketch, HybridMode, HypergraphSparsifier, LightRecoverySketch, Overload,
        QueryBudget, QueryPolicy, QueryRequest, QueryResponse, Recoverable, Recovered,
        RecoveryDriver, RecoveryError, ServiceConfig, ServiceError, ShardState, SparsifierConfig,
        SupervisedAnswer, SupervisedIngestor, SupervisorConfig, TokenBucketConfig,
        VertexConnConfig, VertexConnSketch,
    };
    pub use dgs_field::prng::{Rng, SeedableRng, SliceRandom, StdRng};
    pub use dgs_field::SeedTree;
    pub use dgs_hypergraph::{
        read_wal, Backoff, BackoffConfig, ChaosCampaign, ChaosEvent, ChaosFault, ChaosScheduler,
        EdgeSpace, FaultClass, FaultInjector, Graph, GraphError, HyperEdge, Hypergraph,
        LossyChannel, Op, Update, UpdateStream, WalConfig, WalError, WalReplay, WalWriter,
        WeightedHypergraph,
    };
    pub use dgs_sketch::{L0Params, L0Sampler, Profile, SketchError, SketchResult};
}
