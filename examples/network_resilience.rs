//! Network resilience monitoring — the paper's vertex-connectivity
//! motivation on a realistic scenario.
//!
//! A backbone network (two regional meshes joined through a small set of
//! gateway routers) evolves under link churn: links flap (delete +
//! re-insert) and provisional links are torn down. An operator keeps only
//! the Theorem 4 sketch and, after the churn, asks: *which small sets of
//! routers are single points of failure?*
//!
//! ```sh
//! cargo run --release --example network_resilience
//! ```

use dynamic_graph_streams::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(2025);

    // Topology: region A = routers 0..10, gateways = 10..12, region B = 12..22.
    // The planted separator generator gives exactly κ = 2 (the gateways).
    let (a, s, b) = (10, 2, 10);
    let g = dgs_hypergraph::generators::planted_separator(a, b, s);
    let n = g.n();
    let gateways: Vec<u32> = (a as u32..(a + s) as u32).collect();
    let h = Hypergraph::from_graph(&g);

    // Link churn: 80% of links flap at least once; provisional links appear
    // and are torn down.
    let stream = dgs_hypergraph::generators::churn_stream(
        &h,
        dgs_hypergraph::generators::ChurnConfig {
            noise_ratio: 0.8,
            churn_ratio: 0.8,
        },
        &mut rng,
    );
    println!(
        "telemetry: {} link events ({:.0}% teardowns) across {} routers",
        stream.len(),
        100.0 * stream.deletion_fraction(),
        n
    );

    // The operator's only state: the Theorem 4 sketch for k = 2.
    let k = s;
    let space = EdgeSpace::graph(n).unwrap();
    let cfg = VertexConnConfig::query(k, n, 2.0, Profile::Practical);
    let mut sketch = VertexConnSketch::new(space, cfg, &SeedTree::new(0xBEEF));
    for u in &stream.updates {
        sketch
            .try_update(&u.edge, u.op.delta())
            .expect("stream edges lie in the sketch's space");
    }
    println!(
        "sketch: {} bytes, {} sampled subgraphs\n",
        sketch.size_bytes(),
        sketch.config().subgraphs
    );

    // Post-churn audit: decode once, then scan all router pairs.
    let cert = sketch
        .try_certificate()
        .expect("certificate decode certifies");
    println!(
        "auditing all {} router pairs for 2-cuts...",
        n * (n - 1) / 2
    );
    let mut cuts = Vec::new();
    for x in 0..n as u32 {
        for y in (x + 1)..n as u32 {
            if cert.disconnects(&[x, y]) {
                cuts.push((x, y));
            }
        }
    }
    println!("critical pairs found: {cuts:?}");
    assert_eq!(
        cuts,
        vec![(gateways[0], gateways[1])],
        "expected exactly the gateway pair"
    );
    println!(
        "=> the gateway pair {{{}, {}}} is the unique single point of failure (true κ = {k})",
        gateways[0], gateways[1]
    );

    // Cross-check one answer against ground truth.
    let truth = dgs_hypergraph::algo::vertex_conn::disconnects(&g, &[gateways[0], gateways[1]]);
    println!("ground truth agrees: {truth}");
}
