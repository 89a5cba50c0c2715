//! Golden tests: exporter output is byte-for-byte deterministic.

use dgs_obs::Registry;

fn populated_registry() -> Registry {
    let reg = Registry::new();
    let sink = reg.sink();
    sink.counter("dgs_sketch_l0_sample_failures").add(2);
    sink.counter_labelled("dgs_core_ingest_shard_updates", &[("shard", "1")])
        .add(640);
    sink.gauge("dgs_core_ingest_queue_depth").set(17);
    let h = sink.histogram("dgs_core_boost_repetitions_until_success");
    h.record(1);
    h.record(1);
    h.record(1);
    h.record(2);
    h.record(5);
    reg
}

#[test]
fn prometheus_golden() {
    let reg = populated_registry();
    let expected = "\
# TYPE dgs_core_boost_repetitions_until_success histogram
dgs_core_boost_repetitions_until_success_bucket{le=\"1\"} 3
dgs_core_boost_repetitions_until_success_bucket{le=\"2\"} 4
dgs_core_boost_repetitions_until_success_bucket{le=\"5\"} 5
dgs_core_boost_repetitions_until_success_bucket{le=\"+Inf\"} 5
dgs_core_boost_repetitions_until_success_sum 10
dgs_core_boost_repetitions_until_success_count 5
# TYPE dgs_core_ingest_queue_depth gauge
dgs_core_ingest_queue_depth 17
# TYPE dgs_core_ingest_shard_updates counter
dgs_core_ingest_shard_updates{shard=\"1\"} 640
# TYPE dgs_sketch_l0_sample_failures counter
dgs_sketch_l0_sample_failures 2
";
    assert_eq!(reg.to_prometheus(), expected);
}

#[test]
fn json_golden() {
    let reg = populated_registry();
    let expected = concat!(
        "{\"counters\":{",
        "\"dgs_core_ingest_shard_updates{shard=\\\"1\\\"}\":640,",
        "\"dgs_sketch_l0_sample_failures\":2",
        "},\"gauges\":{",
        "\"dgs_core_ingest_queue_depth\":17",
        "},\"histograms\":{",
        "\"dgs_core_boost_repetitions_until_success\":",
        "{\"count\":5,\"sum\":10,\"mean\":2.0,\"p50\":1,\"p95\":5,\"p99\":5}",
        "}}",
    );
    assert_eq!(reg.to_json(), expected);
}

#[test]
fn prometheus_label_values_escaped() {
    let reg = Registry::new();
    let sink = reg.sink();
    sink.counter_labelled("dgs_test_paths", &[("path", "C:\\tmp\\\"x\"\nnext")])
        .inc();
    let text = reg.to_prometheus();
    assert!(
        text.contains("dgs_test_paths{path=\"C:\\\\tmp\\\\\\\"x\\\"\\nnext\"} 1\n"),
        "escaped backslash/quote/newline missing from:\n{text}"
    );
    // The raw (unescaped) byte sequences must not leak into the output.
    assert!(!text.contains('\u{a}'.to_string().repeat(2).as_str()));
    assert!(!text.contains("\"x\""));
}

/// Golden file for the SLO and trace metric families introduced with the
/// request-tracing layer. `dgs-obs` cannot depend on `dgs-core`/`dgs-trace`,
/// so the families are registered by hand with the exact names those crates
/// emit — the golden output pins the exposition format they rely on.
#[test]
fn slo_and_trace_families_golden() {
    let reg = Registry::new();
    let sink = reg.sink();
    for (tenant, state) in [("acme", 0), ("bulk", 2)] {
        sink.gauge_labelled(
            "dgs_core_slo_state",
            &[("tenant", tenant), ("slo", "latency")],
        )
        .set(state);
        sink.gauge_labelled(
            "dgs_core_slo_burn_short_x1000",
            &[("tenant", tenant), ("slo", "latency")],
        )
        .set(state * 7_000);
    }
    sink.counter_labelled(
        "dgs_core_slo_transitions",
        &[("tenant", "bulk"), ("slo", "latency"), ("to", "page")],
    )
    .inc();
    sink.counter("dgs_core_slo_evaluations").add(12);
    sink.counter("dgs_trace_events").add(4096);
    sink.counter("dgs_trace_postmortems").add(3);
    let expected = "\
# TYPE dgs_core_slo_burn_short_x1000 gauge
dgs_core_slo_burn_short_x1000{slo=\"latency\",tenant=\"acme\"} 0
dgs_core_slo_burn_short_x1000{slo=\"latency\",tenant=\"bulk\"} 14000
# TYPE dgs_core_slo_evaluations counter
dgs_core_slo_evaluations 12
# TYPE dgs_core_slo_state gauge
dgs_core_slo_state{slo=\"latency\",tenant=\"acme\"} 0
dgs_core_slo_state{slo=\"latency\",tenant=\"bulk\"} 2
# TYPE dgs_core_slo_transitions counter
dgs_core_slo_transitions{slo=\"latency\",tenant=\"bulk\",to=\"page\"} 1
# TYPE dgs_trace_events counter
dgs_trace_events 4096
# TYPE dgs_trace_postmortems counter
dgs_trace_postmortems 3
";
    assert_eq!(reg.to_prometheus(), expected);
}

#[test]
fn exporters_stable_across_snapshots() {
    let reg = populated_registry();
    assert_eq!(reg.to_prometheus(), reg.to_prometheus());
    assert_eq!(reg.to_json(), reg.to_json());
}
