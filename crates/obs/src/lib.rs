//! # dgs-obs: in-tree metrics for the dynamic-graph-streams stack
//!
//! A zero-dependency, *global-free* observability layer. There is no static
//! registry and no macro magic: every instrumented component holds plain
//! handles ([`Counter`], [`Gauge`], [`Histogram`]) resolved once from a
//! [`MetricsSink`] at construction / `set_sink` time. The hot path is a single
//! branch on an `Option` plus (when live) one relaxed atomic RMW — no locks,
//! no allocation, no formatting.
//!
//! ## Pay for what you use
//!
//! The default sink is the *null sink* ([`MetricsSink::null`]): every handle it
//! hands out is a no-op whose operations compile down to a `None` check.
//! Components therefore take no constructor changes to stay observable-free —
//! they default to null handles and only light up when the caller threads a
//! live sink (obtained from a [`Registry`]) through `set_sink`.
//!
//! ## Naming scheme
//!
//! Metric names follow `dgs_<crate>_<subsystem>_<name>`, e.g.
//! `dgs_sketch_l0_sample_failures` or `dgs_core_supervise_rebuild_ns`.
//! Histograms that measure durations use an `_ns` suffix and record
//! nanoseconds (time them with [`Histogram::start_timer`]). Labelled metrics
//! append `{key="value",...}` with keys sorted, e.g.
//! `dgs_pool_worker_busy_ns{worker="1"}`.
//!
//! ## Export
//!
//! A [`Registry`] snapshots into Prometheus text exposition format
//! ([`Registry::to_prometheus`]) or a single JSON object
//! ([`Registry::to_json`]). Both are deterministic (keys sorted) so they can be
//! golden-tested. Request tracing lives in `dgs-trace`.

// Observability must never take the process down: `unwrap`/`expect` are
// denied crate-wide in non-test code (tests opt back in locally). Poisoned
// locks are recovered with `PoisonError::into_inner` — metric cells are
// plain atomics, so a panic mid-registration cannot leave them torn.
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod export;
mod metrics;
mod registry;

pub use metrics::{
    bucket_index, bucket_upper_edge, Counter, Gauge, HistStats, Histogram, HistogramTimer,
    HISTOGRAM_BUCKETS,
};
pub use registry::{valid_metric_name, MetricValue, MetricsSink, Registry, Snapshot};
