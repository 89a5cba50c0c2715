//! Deterministic exporters: Prometheus text exposition format and JSON.

use crate::metrics::HistStats;
use crate::registry::{MetricValue, Snapshot};

/// Split a fully-qualified key into `(name, label_body)` where `label_body`
/// is the text inside `{...}` (empty when unlabelled).
fn split_key(key: &str) -> (&str, &str) {
    match key.find('{') {
        None => (key, ""),
        Some(i) => (&key[..i], key[i + 1..].trim_end_matches('}')),
    }
}

fn push_labelled(out: &mut String, name: &str, labels: &str, extra: Option<(&str, &str)>) {
    out.push_str(name);
    if !labels.is_empty() || extra.is_some() {
        out.push('{');
        out.push_str(labels);
        if let Some((k, v)) = extra {
            if !labels.is_empty() {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
    }
}

/// Render a snapshot in Prometheus text exposition format. Histograms emit
/// cumulative `_bucket{le="..."}` lines for non-empty buckets plus `_sum` and
/// `_count`; the trailing `+Inf` bucket is always present.
pub(crate) fn to_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    // One `# TYPE` line per metric family: labelled keys of the same name
    // sort adjacently (BTreeMap order), so tracking the previous family is
    // enough.
    let mut last_family = String::new();
    let mut type_line = |out: &mut String, name: &str, kind: &str| {
        if name != last_family {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            last_family = name.to_string();
        }
    };
    for (key, value) in &snapshot.metrics {
        let (name, labels) = split_key(key);
        match value {
            MetricValue::Counter(v) => {
                type_line(&mut out, name, "counter");
                push_labelled(&mut out, name, labels, None);
                out.push(' ');
                out.push_str(&v.to_string());
                out.push('\n');
            }
            MetricValue::Gauge(v) => {
                type_line(&mut out, name, "gauge");
                push_labelled(&mut out, name, labels, None);
                out.push(' ');
                out.push_str(&v.to_string());
                out.push('\n');
            }
            MetricValue::Histogram(stats) => {
                type_line(&mut out, name, "histogram");
                let mut cumulative = 0u64;
                for &(edge, n) in &stats.buckets {
                    cumulative += n;
                    push_labelled(
                        &mut out,
                        &format!("{name}_bucket"),
                        labels,
                        Some(("le", &edge.to_string())),
                    );
                    out.push(' ');
                    out.push_str(&cumulative.to_string());
                    out.push('\n');
                }
                push_labelled(
                    &mut out,
                    &format!("{name}_bucket"),
                    labels,
                    Some(("le", "+Inf")),
                );
                out.push(' ');
                out.push_str(&stats.count.to_string());
                out.push('\n');
                push_labelled(&mut out, &format!("{name}_sum"), labels, None);
                out.push(' ');
                out.push_str(&stats.sum.to_string());
                out.push('\n');
                push_labelled(&mut out, &format!("{name}_count"), labels, None);
                out.push(' ');
                out.push_str(&stats.count.to_string());
                out.push('\n');
            }
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{:.1}", v)
    } else {
        format!("{}", v)
    }
}

fn hist_json(stats: &HistStats) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
        stats.count,
        stats.sum,
        fmt_f64(stats.mean()),
        stats.quantile(0.50),
        stats.quantile(0.95),
        stats.quantile(0.99),
    )
}

/// Render a snapshot as one JSON object:
/// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
pub(crate) fn to_json(snapshot: &Snapshot) -> String {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for (key, value) in &snapshot.metrics {
        let k = json_escape(key);
        match value {
            MetricValue::Counter(v) => counters.push(format!("\"{k}\":{v}")),
            MetricValue::Gauge(v) => gauges.push(format!("\"{k}\":{v}")),
            MetricValue::Histogram(stats) => {
                histograms.push(format!("\"{k}\":{}", hist_json(stats)))
            }
        }
    }
    format!(
        "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
        counters.join(","),
        gauges.join(","),
        histograms.join(",")
    )
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn prometheus_counter_and_gauge_lines() {
        let reg = Registry::new();
        let sink = reg.sink();
        sink.counter("dgs_a_total").add(7);
        sink.gauge("dgs_b_depth").set(-3);
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE dgs_a_total counter\ndgs_a_total 7\n"));
        assert!(text.contains("# TYPE dgs_b_depth gauge\ndgs_b_depth -3\n"));
    }

    #[test]
    fn prometheus_histogram_cumulative() {
        let reg = Registry::new();
        let sink = reg.sink();
        let h = sink.histogram("dgs_h");
        h.record(1);
        h.record(1);
        h.record(2);
        let text = reg.to_prometheus();
        assert!(text.contains("dgs_h_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("dgs_h_bucket{le=\"2\"} 3\n"));
        assert!(text.contains("dgs_h_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("dgs_h_sum 4\n"));
        assert!(text.contains("dgs_h_count 3\n"));
    }

    #[test]
    fn one_type_line_per_labelled_family() {
        let reg = Registry::new();
        let sink = reg.sink();
        sink.counter_labelled("dgs_c", &[("shard", "0")]).inc();
        sink.counter_labelled("dgs_c", &[("shard", "1")]).inc();
        let text = reg.to_prometheus();
        assert_eq!(text.matches("# TYPE dgs_c counter\n").count(), 1);
        assert!(text.contains("dgs_c{shard=\"0\"} 1\n"));
        assert!(text.contains("dgs_c{shard=\"1\"} 1\n"));
    }

    #[test]
    fn json_shape() {
        let reg = Registry::new();
        let sink = reg.sink();
        sink.counter_labelled("dgs_c", &[("shard", "0")]).inc();
        let json = reg.to_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"dgs_c{shard=\\\"0\\\"}\":1"));
        assert!(json.ends_with("\"histograms\":{}}"));
    }
}
