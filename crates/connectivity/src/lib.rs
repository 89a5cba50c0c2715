//! AGM-style connectivity sketches for graphs and hypergraphs.
//!
//! * [`vector`] — the Section 4.1 vertex-incidence vectors `a^i` whose sums
//!   over any vertex set `S` have support exactly `δ(S)`;
//! * [`forest`] — the spanning-forest / spanning-graph sketch (Theorem 2
//!   for graphs, Theorem 13 for hypergraphs) with a Borůvka decoder;
//! * [`skeleton`] — k-skeleton sketches (Theorem 14) built from `k`
//!   *independent* spanning sketches, peeled through sketch subtraction;
//! * [`bipartite`] — bipartiteness via the double-cover reduction, the
//!   classic companion application of the same sketch machinery;
//! * [`player`] — the simultaneous communication ("n players + referee")
//!   view of Becker et al.: every sketch here is vertex-based, so each
//!   player can compute its message from its incident edges alone.

pub mod bipartite;
pub mod forest;
pub mod player;
pub mod skeleton;
pub mod vector;

pub use bipartite::BipartitenessSketch;
pub use forest::{DecodeScratch, ForestParams, SpanningForestSketch};
pub use player::{assemble_players_strict, try_assemble_players, try_player_sketch, PlayerMessage};
pub use skeleton::KSkeletonSketch;
pub use vector::incidence_coefficient;
