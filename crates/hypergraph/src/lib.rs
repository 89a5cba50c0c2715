//! Graphs, hypergraphs, dynamic streams, workload generators, and exact
//! reference algorithms.
//!
//! This crate is the non-sketch substrate of the workspace. It provides:
//!
//! * [`edge::HyperEdge`] — a canonical (sorted, deduplicated) vertex subset of
//!   cardinality between 2 and a rank bound `r`;
//! * [`encoding::EdgeSpace`] — the exact combinatorial ranking of the edge
//!   space `P_r(V)` into `[0, d)`, `d = Σ_{s=2}^r C(n,s)`, realizing the
//!   index space of the paper's Section 4.1 vectors;
//! * [`graph::Graph`] and [`hypergraph::Hypergraph`] — simple in-memory
//!   structures with exact queries, plus [`hypergraph::WeightedHypergraph`]
//!   for sparsifier outputs;
//! * [`stream`] — insert/delete update streams and strict application;
//! * [`io`] — a line-oriented text format for persisting/replaying streams;
//! * [`wal`] — a segmented, checksum-framed write-ahead log of updates with
//!   torn-tail truncation and fingerprint-sealed segments (the durable half
//!   of crash recovery; see `dgs_core::checkpoint`);
//! * [`fault`] — deterministic stream/byte fault injection, jittered
//!   exponential backoff, and a lossy retransmitting channel for the
//!   resilience suite;
//! * [`chaos`] — seeded, replayable fault *campaigns* (scripted schedules
//!   of shard poisoning, checkpoint corruption, WAL torn-tails, decode
//!   stalls) for the self-healing soak harness (experiment E20);
//! * [`generators`] — Erdős–Rényi, Harary (exactly k-vertex-connected),
//!   planted-cut, degenerate, and hypergraph families, plus dynamic stream
//!   workloads with churn;
//! * [`algo`] — exact algorithms used both inside the paper's constructions
//!   (post-processing) and as ground truth in experiments: union-find,
//!   components, spanning forests, Dinic max-flow, Stoer–Wagner min cut,
//!   Even–Tarjan vertex connectivity, hypergraph cut/flow machinery,
//!   Benczúr–Karger edge strength and exact `light_k`, degeneracy and
//!   cut-degeneracy.

pub mod algo;
pub mod chaos;
pub mod edge;
pub mod encoding;
pub mod fault;
pub mod generators;
pub mod graph;
pub mod hypergraph;
pub mod io;
pub mod stream;
pub mod wal;

pub use chaos::{ChaosCampaign, ChaosEvent, ChaosFault, ChaosScheduler};
pub use edge::HyperEdge;
pub use encoding::EdgeSpace;
pub use fault::{
    default_channel_backoff, Backoff, BackoffConfig, ChannelError, ChannelStats, FaultClass,
    FaultInjector, InjectedFault, LossyChannel, DEFAULT_RETRY_BUDGET,
};
pub use graph::Graph;
pub use hypergraph::{Hypergraph, WeightedHypergraph};
pub use stream::{Op, Update, UpdateStream};
pub use wal::{read_wal, read_wal_from, WalConfig, WalError, WalReplay, WalWriter};

/// Vertices are dense integer ids in `[0, n)`.
pub type VertexId = u32;

/// Errors raised by graph, stream, and encoding operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A hyperedge had fewer than 2 distinct vertices or exceeded the rank bound.
    InvalidEdge(String),
    /// A vertex id was `>= n`.
    VertexOutOfRange { vertex: VertexId, n: usize },
    /// Strict stream application saw an insert of a present edge or a delete
    /// of an absent one.
    MultiplicityViolation(String),
    /// The requested edge space does not fit the supported index range.
    EdgeSpaceTooLarge { n: usize, max_rank: usize },
    /// An underlying I/O operation failed (stream files, checkpoints).
    Io {
        /// Where in the input the failure happened (file, line, offset).
        context: String,
        /// The OS error text.
        detail: String,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::InvalidEdge(msg) => write!(f, "invalid hyperedge: {msg}"),
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for n = {n}")
            }
            GraphError::MultiplicityViolation(msg) => {
                write!(f, "stream multiplicity violation: {msg}")
            }
            GraphError::EdgeSpaceTooLarge { n, max_rank } => write!(
                f,
                "edge space for n = {n}, r = {max_rank} exceeds the 2^60 index budget"
            ),
            GraphError::Io { context, detail } => write!(f, "io error at {context}: {detail}"),
        }
    }
}

impl std::error::Error for GraphError {}
