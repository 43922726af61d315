//! `ℓ₁ × ℓ₂ × ⋯ × ℓ_k` meshes without wraparound — the paper's guest graphs.

use crate::graph::Graph;
use crate::shape::Shape;

/// A k-dimensional mesh. Two nodes are adjacent iff their coordinate vectors
/// differ by exactly one in exactly one axis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mesh {
    shape: Shape,
}

/// A mesh edge, identified by its lower endpoint (linear index) and axis.
///
/// The other endpoint is the node one step further along `axis`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MeshEdge {
    /// Linear index of the endpoint with the smaller coordinate along `axis`.
    pub node: usize,
    /// Axis along which the edge runs.
    pub axis: usize,
}

impl Mesh {
    /// Create a mesh of the given shape.
    pub fn new(shape: Shape) -> Self {
        Mesh { shape }
    }

    /// Convenience constructor from axis lengths.
    pub fn from_dims(dims: &[usize]) -> Self {
        Mesh::new(Shape::new(dims))
    }

    /// The mesh shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of nodes.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.shape.nodes()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.shape.mesh_edges()
    }

    /// Iterate all edges as [`MeshEdge`]s. The enumeration order is
    /// deterministic: nodes in row-major order, axes ascending.
    pub fn edges(&self) -> impl Iterator<Item = MeshEdge> + '_ {
        let rank = self.shape.rank();
        self.shape.iter_coords().flat_map(move |c| {
            let node = self.shape.index(&c);
            (0..rank).filter_map(move |axis| {
                (c[axis] + 1 < self.shape.len(axis)).then_some(MeshEdge { node, axis })
            })
        })
    }

    /// Endpoints `(u, v)` of a mesh edge as linear indices, `u` being the
    /// lower-coordinate endpoint.
    #[inline]
    pub fn edge_endpoints(&self, e: MeshEdge) -> (usize, usize) {
        // The stride of `axis` is the product of the lengths of later axes.
        let stride: usize = self.shape.dims()[e.axis + 1..].iter().product();
        (e.node, e.node + stride)
    }

    /// Lower the mesh to a generic [`Graph`].
    #[expect(
        clippy::cast_possible_truncation,
        reason = "graph lowering is for small meshes: Graph ids are u32, so the mesh has at most 2^32 nodes"
    )]
    pub fn to_graph(&self) -> Graph {
        let edges: Vec<(u32, u32)> = self
            .edges()
            .map(|e| self.edge_endpoints(e))
            .map(|(a, b)| (a as u32, b as u32))
            .collect();
        Graph::from_canonical(self.nodes(), edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_count_matches_shape_formula() {
        for dims in [[3usize, 4, 5], [1, 1, 7], [2, 2, 2], [5, 1, 3]] {
            let m = Mesh::from_dims(&dims);
            assert_eq!(m.edges().count(), m.edge_count());
        }
    }

    #[test]
    fn edge_endpoints_are_adjacent_coords() {
        let m = Mesh::from_dims(&[3, 4, 5]);
        for e in m.edges() {
            let (u, v) = m.edge_endpoints(e);
            let cu = m.shape().coords(u);
            let cv = m.shape().coords(v);
            let diff: Vec<usize> = (0..3).filter(|&i| cu[i] != cv[i]).collect();
            assert_eq!(diff, vec![e.axis]);
            assert_eq!(cv[e.axis], cu[e.axis] + 1);
        }
    }

    #[test]
    fn graph_lowering_preserves_structure() {
        let m = Mesh::from_dims(&[4, 4]);
        let g = m.to_graph();
        assert_eq!(g.nodes(), 16);
        assert_eq!(g.edge_count(), 24);
        assert!(g.is_connected());
        // Corner degree 2, edge degree 3, interior degree 4.
        assert_eq!(g.degree(m.shape().index(&[0, 0])), 2);
        assert_eq!(g.degree(m.shape().index(&[0, 1])), 3);
        assert_eq!(g.degree(m.shape().index(&[1, 1])), 4);
    }

    #[test]
    fn path_mesh_diameter() {
        let m = Mesh::from_dims(&[7]);
        assert_eq!(m.to_graph().diameter(), Some(6));
    }

    #[test]
    fn mesh_diameter_is_coordinate_sum() {
        let m = Mesh::from_dims(&[3, 4]);
        assert_eq!(m.to_graph().diameter(), Some(2 + 3));
    }

    #[test]
    fn single_node_mesh() {
        let m = Mesh::from_dims(&[1, 1, 1]);
        assert_eq!(m.nodes(), 1);
        assert_eq!(m.edge_count(), 0);
        assert_eq!(m.edges().count(), 0);
    }
}
