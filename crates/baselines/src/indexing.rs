//! The Theorem 5 lower-bound protocol, run end-to-end against the real
//! sketch.
//!
//! Indexing: Alice holds `x ∈ {0,1}^{(k+1)×n}`, Bob wants `x_{i,j}`. Alice
//! encodes `x` as a bipartite graph on `L ∪ R` (`|L| = k+1`, `|R| = n`),
//! streams it into a [`VertexConnSketch`], and sends the sketch state. Bob
//! *continues the stream* (linearity!) with his clique edges
//! `{r_ℓ, r_ℓ'}` for `ℓ, ℓ' != j`, then queries the certificate with
//! `S = L \ {l_i}` (`|S| = k`): after removing `S`, vertex `r_j` is
//! non-isolated iff `x_{i,j} = 1`.
//!
//! Because the protocol succeeds whenever the sketch's query guarantee
//! holds, a sketch smaller than Ω(kn) bits would contradict the indexing
//! bound — the experiment tables report measured success rate alongside
//! message size versus the `(k+1)·n`-bit naive encoding.

use dgs_field::prng::Rng;

use dgs_core::{VertexConnConfig, VertexConnSketch};
use dgs_field::SeedTree;
use dgs_hypergraph::algo::component_labels;
use dgs_hypergraph::{EdgeSpace, HyperEdge, VertexId};
use dgs_sketch::{Profile, SketchResult};

/// Result of one protocol run.
#[derive(Clone, Copy, Debug)]
pub struct IndexingOutcome {
    /// Did Bob decode the right bit?
    pub correct: bool,
    /// Alice's message: the sketch state, in bytes.
    pub message_bytes: usize,
    /// The naive encoding of Alice's input, in bytes.
    pub naive_bytes: usize,
}

/// One run of the Theorem 5 protocol with uniformly random `x` and query
/// index. `r_multiplier` scales the sketch's subgraph count `R`. Bob's
/// certificate decode can fail with probability δ; that is a retryable
/// [`dgs_sketch::SketchError::SketchFailure`], not a wrong bit.
pub fn try_indexing_protocol_trial<R: Rng>(
    k: usize,
    n: usize,
    r_multiplier: f64,
    seeds: &SeedTree,
    rng: &mut R,
) -> SketchResult<IndexingOutcome> {
    assert!(k >= 1 && n >= 2);
    let left = k + 1;
    let total = left + n;
    let l = |i: usize| i as VertexId;
    let r = |j: usize| (left + j) as VertexId;

    // Alice's random input and Bob's random query.
    let x: Vec<Vec<bool>> = (0..left)
        .map(|_| (0..n).map(|_| rng.gen_bool(0.5)).collect())
        .collect();
    let qi = rng.gen_range(0..left);
    let qj = rng.gen_range(0..n);

    // Alice streams her edges into the sketch.
    let space = EdgeSpace::graph(total).unwrap();
    let cfg = VertexConnConfig::query(k, total, r_multiplier, Profile::Practical);
    let mut sketch = VertexConnSketch::new(space, cfg, seeds);
    for (i, row) in x.iter().enumerate() {
        for (j, &bit) in row.iter().enumerate() {
            if bit {
                sketch.try_update(&HyperEdge::pair(l(i), r(j)), 1)?;
            }
        }
    }
    let message_bytes = sketch.size_bytes();

    // Bob continues the stream: clique on R \ {r_j}.
    for a in 0..n {
        for b in (a + 1)..n {
            if a != qj && b != qj {
                sketch.try_update(&HyperEdge::pair(r(a), r(b)), 1)?;
            }
        }
    }

    // Bob's query: after removing S = L \ {l_i}, is r_j non-isolated?
    let cert = sketch.try_certificate()?;
    let expansion = cert.union.clique_expansion();
    let mut keep = vec![true; total];
    for (i, kept) in keep.iter_mut().enumerate().take(left) {
        if i != qi {
            *kept = false;
        }
    }
    let filtered = expansion.filter_vertices(&keep);
    let labels = component_labels(&filtered);
    let rj = r(qj) as usize;
    let connected = (0..total).any(|v| v != rj && keep[v] && labels[v] == labels[rj]);

    Ok(IndexingOutcome {
        correct: connected == x[qi][qj],
        message_bytes,
        naive_bytes: (left * n).div_ceil(8),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_field::prng::*;

    #[test]
    fn protocol_decodes_reliably_with_adequate_r() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut correct = 0;
        let trials = 20;
        for t in 0..trials {
            let out =
                try_indexing_protocol_trial(2, 8, 4.0, &SeedTree::new(3000).child(t), &mut rng)
                    .unwrap();
            if out.correct {
                correct += 1;
            }
        }
        assert!(correct >= 18, "only {correct}/{trials} protocol successes");
    }

    #[test]
    fn message_dwarfs_naive_encoding_at_small_scale() {
        // At laptop scale the polylog factors dominate: the sketch message
        // is (much) bigger than kn bits. The lower bound says it can never
        // go below kn bits; the experiments sweep n to show the gap shrink.
        let mut rng = StdRng::seed_from_u64(100);
        let out = try_indexing_protocol_trial(2, 8, 4.0, &SeedTree::new(3001), &mut rng).unwrap();
        assert!(out.message_bytes > out.naive_bytes);
        assert!(out.naive_bytes == 3);
    }
}
