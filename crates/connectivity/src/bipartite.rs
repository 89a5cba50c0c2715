//! Bipartiteness testing in dynamic streams — the classic companion of the
//! AGM connectivity sketch (see the survey the paper cites \[25\]).
//!
//! Reduction: build the *bipartite double cover* `D(G)` on vertices
//! `(v, 0), (v, 1)`, replacing each edge `{u, v}` by `{(u,0), (v,1)}` and
//! `{(u,1), (v,0)}`. A connected component `C` of `G` lifts to **two**
//! components of `D(G)` iff `C` is bipartite, and to **one** otherwise
//! (an odd cycle merges the two layers). Hence
//!
//! ```text
//!   #components(D(G)) = 2·(#bipartite components) + (#non-bipartite)
//! ```
//!
//! and `G` is bipartite iff `#components(D(G)) = 2·#components(G)`. Two
//! spanning-forest sketches (one on `G`, one on `D(G)`) answer this from a
//! dynamic stream — every machinery piece (incidence vectors, ℓ0-samplers,
//! Borůvka) is reused unchanged.
//!
//! Graphs only (rank 2): the double-cover trick is about odd cycles, which
//! is a graph notion.

use dgs_field::SeedTree;
use dgs_hypergraph::{EdgeSpace, HyperEdge, VertexId};
use dgs_sketch::{SketchError, SketchResult};

use crate::forest::{ForestParams, SpanningForestSketch};

/// A dynamic-stream bipartiteness sketch.
#[derive(Clone, Debug)]
pub struct BipartitenessSketch {
    n: usize,
    base: SpanningForestSketch,
    cover: SpanningForestSketch,
}

impl BipartitenessSketch {
    /// Builds the sketch for graphs on `n` vertices.
    pub fn new(n: usize, seeds: &SeedTree, params: ForestParams) -> BipartitenessSketch {
        let base_space = EdgeSpace::graph(n.max(2)).expect("graph space");
        let cover_space = EdgeSpace::graph(2 * n.max(2)).expect("cover space");
        BipartitenessSketch {
            n,
            base: SpanningForestSketch::new_full(base_space, &seeds.child(0), params),
            cover: SpanningForestSketch::new_full(cover_space, &seeds.child(1), params),
        }
    }

    /// Applies a signed edge update `{u, v}`. A self-loop or an endpoint
    /// outside the `n` vertices is [`SketchError::InvalidInput`], rejected
    /// before either sketch is touched.
    pub fn try_update(&mut self, u: VertexId, v: VertexId, delta: i64) -> SketchResult<()> {
        if u == v {
            return Err(SketchError::invalid(format!("self-loop at vertex {u}")));
        }
        if let Some(x) = [u, v].into_iter().find(|&x| x as usize >= self.n) {
            return Err(SketchError::invalid(format!(
                "vertex {x} out of range for a {}-vertex graph",
                self.n
            )));
        }
        self.base.try_update(&HyperEdge::pair(u, v), delta)?;
        // Double cover: (x, layer) -> 2x + layer.
        let (u0, u1) = (2 * u, 2 * u + 1);
        let (v0, v1) = (2 * v, 2 * v + 1);
        self.cover.try_update(&HyperEdge::pair(u0, v1), delta)?;
        self.cover.try_update(&HyperEdge::pair(u1, v0), delta)
    }

    /// Decodes both sketches: `(components(G), components(D(G)))`.
    ///
    /// Isolated-vertex convention: both counts include isolated vertices
    /// (each contributing 1 and 2 respectively), which cancels in the
    /// bipartiteness test.
    pub fn try_component_counts(&self) -> SketchResult<(usize, usize)> {
        Ok((
            self.base.try_component_count()?,
            self.cover.try_component_count()?,
        ))
    }

    /// True (whp) iff every component of the sketched graph is bipartite.
    pub fn try_is_bipartite(&self) -> SketchResult<bool> {
        let (c, cc) = self.try_component_counts()?;
        Ok(cc == 2 * c)
    }

    /// Number of components containing an odd cycle (whp):
    /// `2·components(G) - components(D(G))`.
    pub fn try_odd_components(&self) -> SketchResult<usize> {
        let (c, cc) = self.try_component_counts()?;
        Ok((2 * c).saturating_sub(cc))
    }

    /// Sketch size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.base.size_bytes() + self.cover.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_field::prng::*;
    use dgs_hypergraph::generators::{gnp, grid, random_bipartite, random_tree};
    use dgs_hypergraph::Graph;
    use dgs_sketch::Profile;

    /// Exact bipartiteness by 2-coloring BFS.
    fn exact_bipartite(g: &Graph) -> bool {
        let n = g.n();
        let mut color = vec![-1i8; n];
        for start in 0..n as u32 {
            if color[start as usize] >= 0 {
                continue;
            }
            color[start as usize] = 0;
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(x) = queue.pop_front() {
                for &y in g.neighbors(x) {
                    if color[y as usize] < 0 {
                        color[y as usize] = 1 - color[x as usize];
                        queue.push_back(y);
                    } else if color[y as usize] == color[x as usize] {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn sketch_for(g: &Graph, label: u64) -> BipartitenessSketch {
        let params = ForestParams::new(
            Profile::Practical,
            EdgeSpace::graph(2 * g.n()).unwrap().dimension(),
        );
        let mut sk = BipartitenessSketch::new(g.n(), &SeedTree::new(0xB1).child(label), params);
        for (u, v) in g.edges() {
            sk.try_update(u, v, 1).unwrap();
        }
        sk
    }

    #[test]
    fn trees_and_grids_are_bipartite() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(sketch_for(&random_tree(15, &mut rng), 0)
            .try_is_bipartite()
            .unwrap());
        assert!(sketch_for(&grid(4, 4), 1).try_is_bipartite().unwrap());
    }

    #[test]
    fn odd_cycle_detected() {
        let tri = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0)]);
        let sk = sketch_for(&tri, 2);
        assert!(!sk.try_is_bipartite().unwrap());
        assert_eq!(sk.try_odd_components().unwrap(), 1);

        let even_cycle = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(sketch_for(&even_cycle, 3).try_is_bipartite().unwrap());
    }

    #[test]
    fn deletion_restores_bipartiteness() {
        // Even cycle + a chord creating an odd cycle; deleting the chord
        // restores bipartiteness. Only a deletion-capable sketch gets this.
        let mut sk = BipartitenessSketch::new(
            6,
            &SeedTree::new(0xB1).child(4),
            ForestParams::new(
                Profile::Practical,
                EdgeSpace::graph(12).unwrap().dimension(),
            ),
        );
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)] {
            sk.try_update(u, v, 1).unwrap();
        }
        sk.try_update(0, 2, 1).unwrap(); // odd chord
        assert!(!sk.try_is_bipartite().unwrap());
        sk.try_update(0, 2, -1).unwrap();
        assert!(sk.try_is_bipartite().unwrap());
    }

    #[test]
    fn matches_exact_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..12 {
            let n = rng.gen_range(6..16);
            let g = if trial % 3 == 0 {
                random_bipartite(n / 2, n - n / 2, 0.4, &mut rng)
            } else {
                gnp(n, rng.gen_range(0.1..0.4), &mut rng)
            };
            let sk = sketch_for(&g, 100 + trial);
            assert_eq!(
                sk.try_is_bipartite().unwrap(),
                exact_bipartite(&g),
                "trial {trial}: {:?}",
                g.edges().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn counts_odd_components() {
        // Two triangles + one square, all disjoint: 2 odd components.
        let mut g = Graph::new(10);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            g.add_edge(u, v);
        }
        for (u, v) in [(6, 7), (7, 8), (8, 9), (9, 6)] {
            g.add_edge(u, v);
        }
        let sk = sketch_for(&g, 200);
        assert_eq!(sk.try_odd_components().unwrap(), 2);
        assert!(!sk.try_is_bipartite().unwrap());
    }

    #[test]
    fn bad_edges_are_invalid_input() {
        let params =
            ForestParams::new(Profile::Practical, EdgeSpace::graph(8).unwrap().dimension());
        let mut sk = BipartitenessSketch::new(4, &SeedTree::new(0xB1).child(5), params);
        for (u, v) in [(1, 1), (0, 4)] {
            let err = sk.try_update(u, v, 1).unwrap_err();
            assert!(!err.is_retryable(), "{err}");
        }
        // Nothing was applied: the sketch still reads four isolated vertices.
        assert_eq!(sk.try_component_counts().unwrap(), (4, 8));
    }
}
