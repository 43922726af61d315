//! Cartesian products of graphs — Definition 4 of the paper.
//!
//! `G₁ × G₂` has node set `V(G₁) × V(G₂)`; `[u,v]` and `[u',v']` are adjacent
//! iff (`u = u'` and `(v,v') ∈ E(G₂)`, a *G₂-type* edge) or (`v = v'` and
//! `(u,u') ∈ E(G₁)`, a *G₁-type* edge). The product node `[u, v]` gets the
//! linear index `u * |V(G₂)| + v`, consistent with [`crate::Shape`]'s
//! row-major convention when shapes are concatenated.

use crate::graph::Graph;

/// Cartesian product `g1 × g2` as a generic graph.
///
/// Satisfies `|V| = |V₁||V₂|` and `|E| = |V₁||E₂| + |V₂||E₁|` (checked in
/// tests, as stated after Definition 4 of the paper).
///
/// Returns `None` when `|V₁|·|V₂|` overflows `usize` — the product graph
/// cannot be represented, and the caller decides whether that is an error.
#[expect(
    clippy::cast_possible_truncation,
    reason = "product graphs are u32-indexed: n1 * n2 <= u32::MAX is the Graph id contract"
)]
pub fn product(g1: &Graph, g2: &Graph) -> Option<Graph> {
    let n1 = g1.nodes();
    let n2 = g2.nodes();
    let n = n1.checked_mul(n2)?;
    let mut edges = Vec::with_capacity(n1 * g2.edge_count() + n2 * g1.edge_count());
    // G₂-type edges: one copy of G₂ per node of G₁.
    for u in 0..n1 {
        for &(a, b) in g2.edges() {
            edges.push(((u * n2 + a as usize) as u32, (u * n2 + b as usize) as u32));
        }
    }
    // G₁-type edges: one copy of G₁ per node of G₂.
    for v in 0..n2 {
        for &(a, b) in g1.edges() {
            edges.push(((a as usize * n2 + v) as u32, (b as usize * n2 + v) as u32));
        }
    }
    Some(Graph::from_canonical(n, edges))
}

/// Index of the product node `[u, v]` in `g1 × g2` where `n2 = |V(G₂)|`.
#[inline]
pub fn product_node(u: usize, v: usize, n2: usize) -> usize {
    u * n2 + v
}

/// Check whether `sub` is a subgraph of `host` under the identity node map
/// (same node count assumed; every `sub` edge must exist in `host`).
pub fn is_identity_subgraph(sub: &Graph, host: &Graph) -> bool {
    sub.nodes() == host.nodes()
        && sub
            .edges()
            .iter()
            .all(|&(a, b)| host.has_edge(a as usize, b as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypercube::Hypercube;
    use crate::mesh::Mesh;
    use crate::torus::Torus;

    #[test]
    fn product_counts_match_definition() {
        let g1 = Mesh::from_dims(&[3]).to_graph();
        let g2 = Mesh::from_dims(&[4]).to_graph();
        let p = product(&g1, &g2).unwrap();
        assert_eq!(p.nodes(), 12);
        assert_eq!(
            p.edge_count(),
            g1.nodes() * g2.edge_count() + g2.nodes() * g1.edge_count()
        );
    }

    #[test]
    fn product_of_paths_is_mesh() {
        // Path(3) × Path(4) should be exactly the 3×4 mesh, node-for-node,
        // given the row-major index convention.
        let g1 = Mesh::from_dims(&[3]).to_graph();
        let g2 = Mesh::from_dims(&[4]).to_graph();
        let p = product(&g1, &g2).unwrap();
        let m = Mesh::from_dims(&[3, 4]).to_graph();
        assert_eq!(p.nodes(), m.nodes());
        assert_eq!(p.edge_count(), m.edge_count());
        assert!(is_identity_subgraph(&m, &p));
        assert!(is_identity_subgraph(&p, &m));
    }

    #[test]
    fn product_of_cubes_is_cube() {
        // Q₂ × Q₃ ≅ Q₅ with the concatenated-address node map (high bits
        // from Q₂): index u*8+v corresponds to address (u << 3) | v.
        let q2 = Hypercube::new(2).to_graph();
        let q3 = Hypercube::new(3).to_graph();
        let p = product(&q2, &q3).unwrap();
        let q5 = Hypercube::new(5).to_graph();
        assert!(is_identity_subgraph(&p, &q5));
        assert!(is_identity_subgraph(&q5, &p));
    }

    #[test]
    fn ring_in_even_grid_product_lemma1_base_case() {
        // Lemma 1's building block: an ℓ'×ℓ'' mesh with ℓ'ℓ'' even contains
        // a ring of size ℓ'ℓ''. Check the product of a 2-path and 3-path
        // (2×3 mesh) contains a 6-ring.
        let m = Mesh::from_dims(&[2, 3]).to_graph();
        let ring = Torus::from_dims(&[6]).to_graph();
        // The snake 0,1,2,5,4,3 is a hamiltonian cycle of the 2×3 mesh.
        let cycle = [0usize, 1, 2, 5, 4, 3];
        for i in 0..6 {
            let a = cycle[i];
            let b = cycle[(i + 1) % 6];
            assert!(m.has_edge(a, b), "missing ring edge {}-{}", a, b);
        }
        assert_eq!(ring.edge_count(), 6);
    }

    #[test]
    fn mesh_times_mesh_is_product_shape_supergraph() {
        // The product of an ℓ₁×ℓ₂ mesh and an ℓ₁'×ℓ₂' mesh is NOT the
        // (ℓ₁ℓ₁')×(ℓ₂ℓ₂') mesh, but contains a relabeled copy of it
        // (third fact in the proof of Corollary 2). Here just check counts:
        // the product has more edges than the big mesh needs.
        let a = Mesh::from_dims(&[2, 2]).to_graph();
        let b = Mesh::from_dims(&[3, 3]).to_graph();
        let p = product(&a, &b).unwrap();
        let big = Mesh::from_dims(&[6, 6]);
        assert_eq!(p.nodes(), big.nodes());
        assert!(p.edge_count() >= big.edge_count());
    }
}
