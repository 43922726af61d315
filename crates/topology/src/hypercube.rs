//! The Boolean `n`-cube `Q_n` — the paper's host graphs.
//!
//! Nodes are the `2ⁿ` bit strings of length `n`, stored as `u64`. Two nodes
//! are adjacent iff their Hamming distance is 1. For congestion accounting,
//! every (undirected) cube edge gets a dense index via [`Hypercube::edge_index`]:
//! the edge between `v` and `v ^ (1 << b)` is numbered `min(v, v^bit) * n + b`
//! compacted to `lower_node_dim_pairs`, giving `n · 2ⁿ⁻¹` edge slots.

use crate::graph::Graph;

/// The Boolean cube `Q_n`, `n ≤ 28` for lowering to [`Graph`]
/// (address and edge arithmetic work to `n ≤ 48`, [`Hypercube::MAX_DIM`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hypercube {
    dim: u32,
}

impl Hypercube {
    /// Largest admissible dimension. Bounded well below the 63 that `u64`
    /// addresses allow so that every derived quantity stays in range:
    /// `edge_count` is `n · 2ⁿ⁻¹ ≤ 48 · 2⁴⁷ < 2⁵³` and `edge_index` is
    /// `< 2⁴⁸ · 48 < 2⁵⁴`. Mesh guests are capped at `2⁴⁶` nodes
    /// (`Shape::MAX_NODES`), so no certified embedding needs a larger host.
    pub const MAX_DIM: u32 = 48;

    /// Create `Q_n`.
    ///
    /// # Panics
    /// Panics if `n > 48` ([`Self::MAX_DIM`]).
    pub fn new(dim: u32) -> Self {
        assert!(
            dim <= Self::MAX_DIM,
            "hypercube dimension too large for edge accounting"
        );
        Hypercube { dim }
    }

    /// Cube dimension `n`.
    #[inline]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Number of nodes `2ⁿ`.
    #[inline]
    pub fn nodes(&self) -> u64 {
        1u64 << self.dim
    }

    /// Number of undirected edges `n · 2ⁿ⁻¹`.
    #[inline]
    pub fn edge_count(&self) -> u64 {
        if self.dim == 0 {
            0
        } else {
            (self.dim as u64) << (self.dim - 1)
        }
    }

    /// `true` if `addr` is a node of this cube.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr < self.nodes()
    }

    /// Iterate the neighbors of `addr` (flip each of the `n` bits).
    pub fn neighbors(&self, addr: u64) -> impl Iterator<Item = u64> + '_ {
        debug_assert!(self.contains(addr));
        (0..self.dim).map(move |b| addr ^ (1u64 << b))
    }

    /// Dense index of the undirected edge `{v, v ^ (1<<bit)}` in
    /// `0 .. n·2ⁿ`. (Half the slots — those with the bit set in the lower
    /// endpoint — are never used; the 2× overallocation keeps indexing
    /// branch-free, which matters in the congestion counters.)
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "n <= MAX_DIM = 48, so every address and n * 2^n fit usize on the 64-bit targets Shape::MAX_NODES = 2^46 requires"
    )]
    pub fn edge_index(&self, v: u64, bit: u32) -> usize {
        debug_assert!(bit < self.dim);
        let lo_addr = v & !(1u64 << bit);
        (lo_addr as usize) * self.dim as usize + bit as usize
    }

    /// Size of the edge-index space used by [`Self::edge_index`].
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "n <= MAX_DIM = 48, so n * 2^n fits usize on the 64-bit targets Shape::MAX_NODES = 2^46 requires"
    )]
    pub fn edge_index_space(&self) -> usize {
        (self.nodes() as usize) * (self.dim as usize)
    }

    /// Lower to a generic [`Graph`]. Only sensible for small `n`.
    ///
    /// # Panics
    /// Panics if `n > 28` (graph would not fit in memory anyway).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "graph lowering is for small cubes: Graph ids are u32, so the host has at most 2^32 nodes"
    )]
    pub fn to_graph(&self) -> Graph {
        assert!(
            self.dim <= 28,
            "refusing to materialize a Q_{} graph",
            self.dim
        );
        let n = self.nodes() as usize;
        let mut edges = Vec::with_capacity(self.edge_count() as usize);
        for v in 0..n as u64 {
            for b in 0..self.dim {
                let w = v ^ (1u64 << b);
                if v < w {
                    edges.push((v as u32, w as u32));
                }
            }
        }
        Graph::from_canonical(n, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamming::hamming;

    #[test]
    fn counts() {
        let q = Hypercube::new(4);
        assert_eq!(q.nodes(), 16);
        assert_eq!(q.edge_count(), 32);
        assert_eq!(Hypercube::new(0).nodes(), 1);
        assert_eq!(Hypercube::new(0).edge_count(), 0);
    }

    #[test]
    fn neighbors_are_hamming_one() {
        let q = Hypercube::new(5);
        for v in 0..q.nodes() {
            let nb: Vec<u64> = q.neighbors(v).collect();
            assert_eq!(nb.len(), 5);
            for w in nb {
                assert_eq!(hamming(v, w), 1);
                assert!(q.contains(w));
            }
        }
    }

    #[test]
    fn edge_index_symmetric_and_unique() {
        let q = Hypercube::new(4);
        let mut seen = std::collections::HashSet::new();
        for v in 0..q.nodes() {
            for b in 0..q.dim() {
                let w = v ^ (1u64 << b);
                assert_eq!(q.edge_index(v, b), q.edge_index(w, b));
                if v < w {
                    assert!(seen.insert(q.edge_index(v, b)), "collision");
                    assert!(q.edge_index(v, b) < q.edge_index_space());
                }
            }
        }
        assert_eq!(seen.len() as u64, q.edge_count());
    }

    #[test]
    fn graph_lowering_is_hypercube() {
        let q = Hypercube::new(3);
        let g = q.to_graph();
        assert_eq!(g.nodes(), 8);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(g.diameter(), Some(3));
        // BFS distance equals Hamming distance.
        for v in 0..8u64 {
            let dist = g.bfs_distances(usize::try_from(v).unwrap());
            for w in 0..8u64 {
                assert_eq!(dist[usize::try_from(w).unwrap()], hamming(v, w));
            }
        }
    }

    #[test]
    fn product_of_cubes_is_bigger_cube() {
        // |V(Q_a x Q_b)| and degree structure match Q_{a+b}: checked via
        // the generic product in product.rs tests; here check counts only.
        let a = Hypercube::new(2);
        let b = Hypercube::new(3);
        let c = Hypercube::new(5);
        assert_eq!(a.nodes() * b.nodes(), c.nodes());
        assert_eq!(
            a.edge_count() * b.nodes() + b.edge_count() * a.nodes(),
            c.edge_count()
        );
    }
}
