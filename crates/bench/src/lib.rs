//! Experiment harness reproducing the paper's claims.
//!
//! The paper (PODS 2015 theory) has no tables or figures; DESIGN.md defines
//! experiments E1–E12, one per theorem/lemma/lower bound. Each lives in
//! [`experiments`] with a `run(quick)` entry point that prints a table; the
//! `experiments` binary dispatches on experiment id (`all` runs everything).
//!
//! Support modules: [`report`] (aligned text tables), [`stats`] (means,
//! rates), [`workloads`] (shared workload builders and lean sketch
//! parameters sized so a full `all` run fits laptop memory), [`soak`] (the
//! chaos-soak harness of E20–E22) and [`baseline`] (the `BENCH_*.json`
//! schema and the CI guard runner).

pub mod baseline;
pub mod experiments;
pub mod microbench;
pub mod report;
pub mod soak;
pub mod stats;
pub mod workloads;
