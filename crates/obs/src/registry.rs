//! `Registry` (owning side) and `MetricsSink` (handle-dispensing side).
//!
//! Registration takes a mutex on a `BTreeMap` keyed by the fully-qualified
//! metric key (`name` or `name{label="v",...}`); this is a *cold* path run at
//! construction / `set_sink` time. The handles returned are lock-free
//! thereafter. Re-registering the same key returns a handle to the same cell,
//! so components wired to one sink aggregate naturally.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64};
use std::sync::{Arc, Mutex, PoisonError};

use crate::metrics::{Counter, Gauge, HistStats, Histogram, HistogramCells};

#[derive(Debug, Clone)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCells>),
}

#[derive(Debug)]
pub(crate) struct RegistryInner {
    metrics: Mutex<BTreeMap<String, Cell>>,
}

/// Cheap-to-clone handle used to resolve metric handles. The default /
/// [`MetricsSink::null`] sink dispenses null handles whose operations are
/// no-ops (and allocate nothing).
#[derive(Clone, Debug, Default)]
pub struct MetricsSink {
    inner: Option<Arc<RegistryInner>>,
}

impl MetricsSink {
    /// The no-op sink. Every handle it returns is inert.
    pub fn null() -> Self {
        MetricsSink { inner: None }
    }

    /// True when backed by a live [`Registry`].
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }

    /// True when both sinks dispense handles into the same registry (or both
    /// are null). Lets idempotent wiring like `dgs_pool::stripe`'s metrics
    /// skip re-resolving handles when re-attached to the sink it already
    /// has.
    pub fn same_registry(&self, other: &MetricsSink) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Resolve (registering on first use) an unlabelled counter.
    pub fn counter(&self, name: &str) -> Counter {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        match &self.inner {
            None => Counter::null(),
            Some(inner) => inner.counter(name.to_string()),
        }
    }

    /// Resolve a labelled counter. Labels are sorted by key into the metric
    /// key, e.g. `counter_labelled("x", &[("shard", "0")])` -> `x{shard="0"}`.
    pub fn counter_labelled(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match &self.inner {
            None => Counter::null(),
            Some(inner) => inner.counter(keyed(name, labels)),
        }
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        match &self.inner {
            None => Gauge::null(),
            Some(inner) => inner.gauge(name.to_string()),
        }
    }

    pub fn gauge_labelled(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match &self.inner {
            None => Gauge::null(),
            Some(inner) => inner.gauge(keyed(name, labels)),
        }
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        match &self.inner {
            None => Histogram::null(),
            Some(inner) => inner.histogram(name.to_string()),
        }
    }

    /// Resolve a labelled histogram, e.g. per-tenant latency:
    /// `histogram_labelled("dgs_core_service_query_ns", &[("tenant", "t0")])`.
    pub fn histogram_labelled(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match &self.inner {
            None => Histogram::null(),
            Some(inner) => inner.histogram(keyed(name, labels)),
        }
    }
}

/// True when `name` is a valid Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`. Keys built by [`MetricsSink`] debug-assert
/// this, so invalid names surface in tests instead of in scrape parsers.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Escape a label value for the Prometheus exposition format: backslash,
/// double quote, and newline must be escaped inside `label="..."`.
fn push_escaped_label_value(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn keyed(name: &str, labels: &[(&str, &str)]) -> String {
    debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    let mut out = String::with_capacity(name.len() + 16 * sorted.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        // Values are stored escaped, so the exporter can splice the label
        // body verbatim into the exposition output.
        push_escaped_label_value(&mut out, v);
        out.push('"');
    }
    out.push('}');
    out
}

impl RegistryInner {
    fn counter(self: &Arc<Self>, key: String) -> Counter {
        let mut map = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let cell = map
            .entry(key)
            .or_insert_with(|| Cell::Counter(Arc::new(AtomicU64::new(0))));
        match cell {
            Cell::Counter(c) => Counter::from_cell(Arc::clone(c)),
            // Type mismatch with an existing key is a programming error; keep
            // running with a detached live cell rather than panicking.
            _ => {
                debug_assert!(false, "metric re-registered with a different type");
                Counter::standalone()
            }
        }
    }

    fn gauge(self: &Arc<Self>, key: String) -> Gauge {
        let mut map = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let cell = map
            .entry(key)
            .or_insert_with(|| Cell::Gauge(Arc::new(AtomicI64::new(0))));
        match cell {
            Cell::Gauge(g) => Gauge::from_cell(Arc::clone(g)),
            _ => {
                debug_assert!(false, "metric re-registered with a different type");
                Gauge::standalone()
            }
        }
    }

    fn histogram(self: &Arc<Self>, key: String) -> Histogram {
        let mut map = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let cell = map
            .entry(key)
            .or_insert_with(|| Cell::Histogram(Arc::new(HistogramCells::new())));
        match cell {
            Cell::Histogram(h) => Histogram::from_cells(Arc::clone(h)),
            _ => {
                debug_assert!(false, "metric re-registered with a different type");
                Histogram::standalone()
            }
        }
    }
}

/// Point-in-time value of a single metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistStats),
}

/// Deterministic (key-sorted) snapshot of a registry.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(fully_qualified_key, value)` pairs, ascending by key.
    pub metrics: Vec<(String, MetricValue)>,
}

/// Owning side of the metrics system. Create one, pass `sink()` handles to
/// instrumented components, then `snapshot()` / `to_json()` /
/// `to_prometheus()` to read everything back.
#[derive(Clone, Debug)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(RegistryInner {
                metrics: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// A live sink dispensing handles backed by this registry.
    pub fn sink(&self) -> MetricsSink {
        MetricsSink {
            inner: Some(Arc::clone(&self.inner)),
        }
    }

    /// Snapshot all metrics, sorted by key.
    pub fn snapshot(&self) -> Snapshot {
        let map = self
            .inner
            .metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let metrics = map
            .iter()
            .map(|(k, cell)| {
                let v = match cell {
                    Cell::Counter(c) => {
                        MetricValue::Counter(c.load(std::sync::atomic::Ordering::Relaxed))
                    }
                    Cell::Gauge(g) => {
                        MetricValue::Gauge(g.load(std::sync::atomic::Ordering::Relaxed))
                    }
                    Cell::Histogram(h) => {
                        MetricValue::Histogram(Histogram::from_cells(Arc::clone(h)).stats())
                    }
                };
                (k.clone(), v)
            })
            .collect();
        Snapshot { metrics }
    }

    /// Value of a counter by fully-qualified key; `None` if absent or not a
    /// counter.
    pub fn counter_value(&self, key: &str) -> Option<u64> {
        match self.lookup(key)? {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    pub fn gauge_value(&self, key: &str) -> Option<i64> {
        match self.lookup(key)? {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    pub fn histogram_stats(&self, key: &str) -> Option<HistStats> {
        match self.lookup(key)? {
            MetricValue::Histogram(s) => Some(s),
            _ => None,
        }
    }

    fn lookup(&self, key: &str) -> Option<MetricValue> {
        let map = self
            .inner
            .metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        map.get(key).map(|cell| match cell {
            Cell::Counter(c) => MetricValue::Counter(c.load(std::sync::atomic::Ordering::Relaxed)),
            Cell::Gauge(g) => MetricValue::Gauge(g.load(std::sync::atomic::Ordering::Relaxed)),
            Cell::Histogram(h) => {
                MetricValue::Histogram(Histogram::from_cells(Arc::clone(h)).stats())
            }
        })
    }

    /// Render the registry in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        crate::export::to_prometheus(&self.snapshot())
    }

    /// Render the registry as a single deterministic JSON object.
    pub fn to_json(&self) -> String {
        crate::export::to_json(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn same_key_shares_cell() {
        let reg = Registry::new();
        let sink = reg.sink();
        let a = sink.counter("dgs_test_hits");
        let b = sink.counter("dgs_test_hits");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter_value("dgs_test_hits"), Some(3));
    }

    #[test]
    fn labels_sorted_into_key() {
        let reg = Registry::new();
        let sink = reg.sink();
        let c = sink.counter_labelled("dgs_test_x", &[("b", "2"), ("a", "1")]);
        c.inc();
        assert_eq!(reg.counter_value("dgs_test_x{a=\"1\",b=\"2\"}"), Some(1));
    }

    #[test]
    fn label_values_escaped_into_key() {
        let reg = Registry::new();
        let sink = reg.sink();
        let c = sink.counter_labelled("dgs_test_esc", &[("path", "a\\b\"c\nd")]);
        c.inc();
        assert_eq!(
            reg.counter_value("dgs_test_esc{path=\"a\\\\b\\\"c\\nd\"}"),
            Some(1),
            "backslash, quote, and newline must be stored escaped"
        );
    }

    #[test]
    fn metric_name_validity() {
        for ok in ["dgs_core_slo_state", "_x", "a:b:c", "Upper9"] {
            assert!(valid_metric_name(ok), "{ok:?} should be valid");
        }
        for bad in ["", "9lead", "has space", "dash-ed", "brace{", "uni\u{e9}"] {
            assert!(!valid_metric_name(bad), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn same_registry_compares_backing_store() {
        let a = Registry::new();
        let b = Registry::new();
        assert!(a.sink().same_registry(&a.sink()));
        assert!(!a.sink().same_registry(&b.sink()));
        assert!(MetricsSink::null().same_registry(&MetricsSink::null()));
        assert!(!a.sink().same_registry(&MetricsSink::null()));
    }

    #[test]
    fn null_sink_dispenses_inert_handles() {
        let sink = MetricsSink::null();
        assert!(!sink.is_live());
        let c = sink.counter("x");
        c.inc();
        assert!(!c.is_live());
    }
}
