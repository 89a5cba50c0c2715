//! Baselines and lower-bound protocol simulators.
//!
//! * [`eppstein`] — the insert-only k-vertex-connectivity certificate of
//!   Eppstein et al. \[13\], which Section 1.1 contrasts with the paper's
//!   sketch: correct for insertions, provably broken under deletions
//!   (experiment E12 quantifies the breakage);
//! * [`becker`] — the d-degenerate adjacency-row reconstruction of Becker
//!   et al. \[5\], which Section 4 strictly generalizes (it stalls on the
//!   Lemma 10 gadget where Theorem 15 succeeds);
//! * [`bk_sparsifier`] — the offline Benczúr–Karger graph sparsifier via
//!   exact edge strengths, the classical comparator for Theorem 20;
//! * [`kogan_krauthgamer`] — strength-sampled hypergraph sparsification in
//!   the style of the prior insert-only work \[23\] that Section 5 extends;
//! * [`offline_light`] — the paper's own sparsification algorithm run with
//!   *exact* `light_k` (no sketches), isolating sketch-recovery noise from
//!   algorithmic error;
//! * [`store_all`] — the trivial store-everything dynamic baseline whose
//!   `Θ(m)` space anchors the space-comparison experiments;
//! * [`indexing`] — the Theorem 5 communication protocol (Ω(kn) via
//!   Indexing) run end-to-end against the real sketch;
//! * [`sfst`] — scan-first search trees (Appendix A) and the Theorem 21
//!   Ω(n²) reduction showing why the paper must avoid Cheriyan-style
//!   scan-first certificates.

pub mod becker;
pub mod bk_sparsifier;
pub mod eppstein;
pub mod indexing;
pub mod kogan_krauthgamer;
pub mod offline_light;
pub mod sfst;
pub mod store_all;

pub use becker::BeckerSketch;
pub use bk_sparsifier::benczur_karger_sparsifier;
pub use eppstein::EppsteinCertificate;
pub use indexing::{try_indexing_protocol_trial, IndexingOutcome};
pub use kogan_krauthgamer::kogan_krauthgamer_sparsifier;
pub use offline_light::offline_light_sparsifier;
pub use sfst::{scan_first_search_tree, sfst_indexing_trial};
pub use store_all::StoreAll;
