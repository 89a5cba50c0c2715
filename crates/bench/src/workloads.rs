//! Shared workload builders and lean sketch parameters for the experiments.

use dgs_connectivity::{ForestParams, SpanningForestSketch};
use dgs_field::prng::Rng;
use dgs_field::SeedTree;
use dgs_hypergraph::generators::{churn_stream, ChurnConfig};
use dgs_hypergraph::{EdgeSpace, Hypergraph, UpdateStream};
use dgs_sketch::{L0Params, Profile};

/// Lean ℓ0 parameters used across the experiment suite: small enough that a
/// full `experiments all` run fits comfortably in memory, large enough that
/// decode failures stay rare (the E-tables report the realized rates).
pub fn lean_l0() -> L0Params {
    L0Params {
        sparsity: 4,
        rows: 4,
        level_independence: 8,
    }
}

/// Lean forest-sketch parameters (see [`lean_l0`]).
pub fn lean_forest() -> ForestParams {
    ForestParams {
        l0: lean_l0(),
        extra_rounds: 2,
    }
}

/// Shard factory of the soak experiments (E20–E22): repetition `i` is a
/// Practical-profile forest sketch over `n` vertices seeded from child `i`
/// of `seed`.
pub fn forest_build(n: usize, seed: u64) -> impl Fn(usize) -> SpanningForestSketch + Send + Sync {
    move |i| {
        let space = EdgeSpace::graph(n).expect("edge space");
        let params = ForestParams::new(Profile::Practical, space.dimension());
        SpanningForestSketch::new_full(space, &SeedTree::new(seed).child(i as u64), params)
    }
}

/// The default dynamic workload: a churn stream with 50% noise edges and
/// 25% delete/re-insert cycles — every experiment exercises deletions.
pub fn default_stream<R: Rng>(h: &Hypergraph, rng: &mut R) -> UpdateStream {
    churn_stream(h, ChurnConfig::default(), rng)
}

/// A heavier churn workload for stress rows.
pub fn heavy_stream<R: Rng>(h: &Hypergraph, rng: &mut R) -> UpdateStream {
    churn_stream(
        h,
        ChurnConfig {
            noise_ratio: 1.0,
            churn_ratio: 0.5,
        },
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_field::prng::*;
    use dgs_hypergraph::generators::gnp;

    #[test]
    fn streams_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let h = Hypergraph::from_graph(&gnp(12, 0.3, &mut rng));
        for s in [default_stream(&h, &mut rng), heavy_stream(&h, &mut rng)] {
            let h2 = s.final_hypergraph().expect("valid stream");
            assert_eq!(h2.edge_count(), h.edge_count());
        }
    }

    #[test]
    fn lean_params_are_smaller_than_practical() {
        let practical = L0Params::for_dimension(1 << 20, Profile::Practical);
        let lean = lean_l0();
        assert!(lean.sparsity <= practical.sparsity);
        assert!(lean.rows <= practical.rows);
    }
}
