//! E12 — Section 1.1: why insert-only certificates fail under deletions.
//!
//! Three workloads ending in the same kind of final graph:
//! * insert-only (control): the Eppstein certificate is provably correct;
//! * random churn: deletions of edges the certificate happened to keep;
//! * adversarial core-then-delete: a dense core makes every later edge look
//!   redundant, then the core is deleted — the certificate has discarded
//!   exactly the edges it now needs.
//!
//! The sketch (Theorem 4/8 structure) processes the identical streams and
//! stays correct.

use dgs_baselines::EppsteinCertificate;
use dgs_core::{VertexConnConfig, VertexConnSketch};
use dgs_field::prng::*;
use dgs_field::SeedTree;
use dgs_hypergraph::algo::vertex_conn::vertex_connectivity_bounded;
use dgs_hypergraph::generators::{harary, insert_only_stream};
use dgs_hypergraph::{EdgeSpace, HyperEdge, Hypergraph, UpdateStream};

use crate::report::{fmt_rate, Table};
use crate::workloads::{default_stream, lean_forest};

/// Star-then-path adversarial workload: final graph is a Hamilton path on
/// vertices 1..n (vertex 0 ends isolated).
fn core_then_delete(n: usize) -> (UpdateStream, Hypergraph) {
    let mut s = UpdateStream::new(n, 2);
    for v in 1..n as u32 {
        s.push_insert(HyperEdge::pair(0, v));
    }
    for v in 1..(n - 1) as u32 {
        s.push_insert(HyperEdge::pair(v, v + 1));
    }
    for v in 1..n as u32 {
        s.push_delete(HyperEdge::pair(0, v));
    }
    let h = s.final_hypergraph().unwrap();
    (s, h)
}

pub fn run(quick: bool) {
    let trials = if quick { 3 } else { 6 };
    let n = 16;
    let k = 2;

    let mut table = Table::new(
        "E12 (Sec 1.1): Eppstein insert-only certificate vs the sketch under deletions",
        &[
            "workload",
            "truth min(κ,k)",
            "baseline correct",
            "sketch correct",
        ],
    );

    type WorkloadFn = Box<dyn Fn(&mut StdRng) -> (UpdateStream, Hypergraph)>;
    let workloads: Vec<(&str, WorkloadFn)> = vec![
        (
            "insert-only (control)",
            Box::new(move |rng: &mut StdRng| {
                let h = Hypergraph::from_graph(&harary(2, n));
                (insert_only_stream(&h, rng), h)
            }),
        ),
        (
            "random churn",
            Box::new(move |rng: &mut StdRng| {
                let h = Hypergraph::from_graph(&harary(2, n));
                (default_stream(&h, rng), h)
            }),
        ),
        ("core-then-delete", Box::new(move |_| core_then_delete(n))),
    ];

    for (name, make) in workloads {
        let mut base_ok = 0;
        let mut sketch_ok = 0;
        let mut truth_rep = 0;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(0xEC_0000 + t as u64);
            let (stream, h) = make(&mut rng);
            let g = stream.final_graph().unwrap();
            let truth = vertex_connectivity_bounded(&g, k);
            truth_rep = truth;

            let mut cert = EppsteinCertificate::new(n, k);
            for u in &stream.updates {
                cert.process(u);
            }
            if cert.connectivity_estimate() == truth {
                base_ok += 1;
            }

            let space = EdgeSpace::graph(n).unwrap();
            let mut cfg = VertexConnConfig::query(k, n, 3.0, dgs_sketch::Profile::Practical);
            cfg.forest = lean_forest();
            let mut sk = VertexConnSketch::new(space, cfg, &SeedTree::new(0xEC).child(t as u64));
            for u in &stream.updates {
                sk.try_update(&u.edge, u.op.delta())
                    .expect("stream edges lie in the sketch's space");
            }
            if sk
                .try_certificate()
                .expect("certificate decode certifies")
                .vertex_connectivity(k)
                == truth
            {
                sketch_ok += 1;
            }
            let _ = h;
        }
        table.row(vec![
            name.into(),
            truth_rep.to_string(),
            fmt_rate(base_ok, trials),
            fmt_rate(sketch_ok, trials),
        ]);
    }
    table.note("core-then-delete: the certificate discarded the path edges forever (Section 1.1's failure mode)");
    table.note("κ(G) = k sits on the estimator's boundary: the sketch column may dip slightly below 100% there");
    table.print();
}
