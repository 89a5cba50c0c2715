//! E2 — Theorem 5: the Ω(kn) lower bound, run as a live protocol.
//!
//! Alice streams a random (k+1)×n bit matrix into the real sketch, Bob
//! continues the stream and queries. Success rate tracks the sketch's query
//! guarantee; message size is compared against the kn-bit information
//! floor that the indexing bound enforces.

use dgs_baselines::try_indexing_protocol_trial;
use dgs_field::prng::*;
use dgs_field::SeedTree;

use crate::report::{fmt_bytes, fmt_rate, Table};

pub fn run(quick: bool) {
    let trials = if quick { 8 } else { 25 };
    let configs: &[(usize, usize)] = if quick {
        &[(1, 8), (2, 8)]
    } else {
        &[(1, 8), (2, 8), (2, 16), (3, 12)]
    };

    let mut table = Table::new(
        "E2 (Thm 5): indexing protocol through the sketch",
        &["k", "n", "trials", "Bob correct", "message", "kn floor"],
    );

    for &(k, n) in configs {
        let mut rng = StdRng::seed_from_u64(0xE2_0000 + (k * 100 + n) as u64);
        let mut correct = 0;
        let mut message = 0;
        let mut floor = 0;
        for t in 0..trials {
            let out = try_indexing_protocol_trial(
                k,
                n,
                4.0,
                &SeedTree::new(0xE2).child2(k as u64, t as u64),
                &mut rng,
            )
            .expect("indexing trial decodes");
            if out.correct {
                correct += 1;
            }
            message = out.message_bytes;
            floor = out.naive_bytes;
        }
        table.row(vec![
            k.to_string(),
            n.to_string(),
            trials.to_string(),
            fmt_rate(correct, trials),
            fmt_bytes(message),
            fmt_bytes(floor),
        ]);
    }
    table.note(
        "any structure answering these queries with prob >= 3/4 must send >= kn bits (Thm 5)",
    );
    table.note(
        "the sketch succeeds, so its size can never drop below the floor column asymptotically",
    );
    table.print();
}
