//! E15 — the simultaneous communication model: per-player message sizes.
//!
//! Every structure in the paper is *vertex-based* (Theorems 4/13/14/15/20
//! all say so explicitly): each player computes its message from its
//! incident edges alone, and the referee's reassembled sketch is
//! bit-identical to the central one (asserted in the integration tests).
//! The model's cost is the maximum message length; this table shows it per
//! structure and per n, together with the referee-side decode agreement.

use dgs_connectivity::{KSkeletonSketch, SpanningForestSketch};
use dgs_core::{
    HypergraphSparsifier, LightRecoverySketch, SparsifierConfig, VertexConnConfig, VertexConnSketch,
};
use dgs_field::prng::*;
use dgs_field::SeedTree;
use dgs_hypergraph::algo::hyper_component_count;
use dgs_hypergraph::generators::gnm;
use dgs_hypergraph::{EdgeSpace, HyperEdge, Hypergraph, LossyChannel};

use crate::report::{fmt_bytes, Table};
use crate::workloads::lean_forest;

fn incident(h: &Hypergraph, v: u32) -> Vec<HyperEdge> {
    h.edges()
        .iter()
        .filter(|e| e.contains(v))
        .cloned()
        .collect()
}

pub fn run(quick: bool) {
    let sizes: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64] };

    let mut table = Table::new(
        "E15: per-player message bytes in the simultaneous communication model",
        &[
            "n",
            "forest (Thm 13)",
            "2-skeleton (Thm 14)",
            "light k=2 (Thm 15)",
            "VC k=2 (Thm 4)",
            "sparsifier (Thm 20)",
            "lossy xmit",
            "referee ok",
        ],
    );

    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(0xEF_0000 + n as u64);
        let g = gnm(n, 3 * n, &mut rng);
        let h = Hypergraph::from_graph(&g);
        let space = EdgeSpace::graph(n).unwrap();
        let params = lean_forest();
        let seeds = SeedTree::new(0xEF).child(n as u64);

        // Forest sketch through players, with referee verification.
        let mut forest_msg = 0;
        let mut referee = SpanningForestSketch::new_full(space.clone(), &seeds.child(0), params);
        for v in 0..n as u32 {
            let msg = dgs_connectivity::try_player_sketch(
                &space,
                v,
                &incident(&h, v),
                &seeds.child(0),
                params,
            )
            .expect("player edges are incident to the player");
            forest_msg = forest_msg.max(msg.size_bytes());
            referee
                .try_set_vertex_samplers(v, msg.samplers)
                .expect("player messages match the sketch");
        }
        let referee_ok = referee
            .try_decode_with_labels()
            .expect("forest decode certifies")
            .1
            .component_count()
            == hyper_component_count(&h);

        // Skeleton / light-recovery messages (one player is representative —
        // vertex-based structures are balanced).
        let skel_msg: usize = KSkeletonSketch::try_player_message(
            &space,
            2,
            0,
            &incident(&h, 0),
            &seeds.child(1),
            params,
        )
        .expect("player edges are incident to the player")
        .iter()
        .map(|m| m.size_bytes())
        .sum();
        let light_msg: usize = LightRecoverySketch::try_player_message(
            &space,
            2,
            0,
            &incident(&h, 0),
            &seeds.child(2),
            params,
        )
        .expect("player edges are incident to the player")
        .iter()
        .map(|m| m.size_bytes())
        .sum();

        // Vertex-connectivity message (expected R/k subgraphs contain v).
        let mut cfg = VertexConnConfig::query(2, n, 1.0, dgs_sketch::Profile::Practical);
        cfg.forest = params;
        let vc_msg = VertexConnSketch::try_player_message(
            &space,
            &cfg,
            &seeds.child(3),
            0,
            &incident(&h, 0),
        )
        .expect("player edges are incident to the player")
        .size_bytes();

        // Sparsifier message.
        let sp_cfg = SparsifierConfig::explicit(2, 6, params);
        let sp_msg = HypergraphSparsifier::try_player_message(
            &space,
            &sp_cfg,
            &seeds.child(4),
            0,
            &incident(&h, 0),
        )
        .expect("player edges are incident to the player")
        .size_bytes();

        // Full sparsifier protocol across a lossy channel: every player's
        // message is checksum-framed, lost/bit-corrupted in flight, and
        // retransmitted until delivered intact; the referee's assembled
        // sketch must still decode identically to the central one.
        let mut central = HypergraphSparsifier::new(space.clone(), sp_cfg, &seeds.child(4));
        for e in h.edges() {
            central
                .try_update(e, 1)
                .expect("stream edges lie in the sketch's space");
        }
        let mut referee_sp = HypergraphSparsifier::new(space.clone(), sp_cfg, &seeds.child(4));
        let mut channel = LossyChannel::new(0xE15_0000 + n as u64, 0.10, 0.05);
        for v in 0..n as u32 {
            let msg = HypergraphSparsifier::try_player_message(
                &space,
                &sp_cfg,
                &seeds.child(4),
                v,
                &incident(&h, v),
            )
            .expect("player edges are incident to the player");
            let (delivered, _) = channel
                .transmit_with_retry(&msg, 64)
                .expect("lossy channel exhausted its retransmission budget");
            referee_sp
                .try_install_player(delivered)
                .expect("player messages match the sketch");
        }
        let channel_ok = {
            let (a, b) = (
                central.try_decode().expect("sparsifier decode certifies"),
                referee_sp
                    .try_decode()
                    .expect("sparsifier decode certifies"),
            );
            a.per_level == b.per_level
                && a.sparsifier.iter().collect::<Vec<_>>()
                    == b.sparsifier.iter().collect::<Vec<_>>()
        };
        let xmit = format!(
            "{} att / {} msg",
            channel.stats.attempts, channel.stats.delivered
        );

        table.row(vec![
            n.to_string(),
            fmt_bytes(forest_msg),
            fmt_bytes(skel_msg),
            fmt_bytes(light_msg),
            fmt_bytes(vc_msg),
            fmt_bytes(sp_msg),
            xmit,
            (referee_ok && channel_ok).to_string(),
        ]);
    }
    table
        .note("messages grow ~polylog(n) per player; referee's sketch is bit-identical to central");
    table.note("VC message varies per player (expected R/k subgraph shares); others are balanced");
    table.note("lossy xmit: sparsifier messages cross a 10% loss / 5% corruption channel with stop-and-wait retransmit");
    table.print();
}
