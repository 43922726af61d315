//! Meshes with wraparound (tori) — the guest graphs of §6 of the paper.

use crate::graph::Graph;
use crate::mesh::MeshEdge;
use crate::shape::Shape;

/// A k-dimensional torus: like a mesh, plus a wraparound edge per line along
/// every axis of length ≥ 3. Axes of length 2 get no extra edge (the wrap
/// would duplicate the mesh edge) and axes of length 1 contribute nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Torus {
    shape: Shape,
}

/// A torus edge: either an ordinary mesh edge or a wraparound edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TorusEdge {
    /// A mesh edge between consecutive coordinates.
    Mesh(MeshEdge),
    /// A wraparound edge along `axis` on the line through `node`, which is
    /// the endpoint with coordinate `0` along `axis`.
    Wrap { node: usize, axis: usize },
}

impl Torus {
    /// Create a torus of the given shape.
    pub fn new(shape: Shape) -> Self {
        Torus { shape }
    }

    /// Convenience constructor from axis lengths.
    pub fn from_dims(dims: &[usize]) -> Self {
        Torus::new(Shape::new(dims))
    }

    /// The torus shape.
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
        self.shape.torus_edges()
    }

    /// Iterate all torus edges deterministically (mesh edges first per node,
    /// then wraps, in row-major node order).
    pub fn edges(&self) -> impl Iterator<Item = TorusEdge> + '_ {
        let rank = self.shape.rank();
        self.shape.iter_coords().flat_map(move |c| {
            let node = self.shape.index(&c);
            (0..rank).filter_map(move |axis| {
                let len = self.shape.len(axis);
                if c[axis] + 1 < len {
                    Some(TorusEdge::Mesh(MeshEdge { node, axis }))
                } else if c[axis] == len - 1 && len >= 3 && c[axis] != 0 {
                    // Wrap edge emitted at the high end of the line so each
                    // wrap appears exactly once; `node` recorded as the
                    // low-coordinate endpoint below.
                    let mut low = c.clone();
                    low[axis] = 0;
                    Some(TorusEdge::Wrap {
                        node: self.shape.index(&low),
                        axis,
                    })
                } else {
                    None
                }
            })
        })
    }

    /// Endpoints of a torus edge as linear indices.
    pub fn edge_endpoints(&self, e: TorusEdge) -> (usize, usize) {
        match e {
            TorusEdge::Mesh(me) => {
                let stride: usize = self.shape.dims()[me.axis + 1..].iter().product();
                (me.node, me.node + stride)
            }
            TorusEdge::Wrap { node, axis } => {
                let stride: usize = self.shape.dims()[axis + 1..].iter().product();
                let len = self.shape.len(axis);
                (node, node + stride * (len - 1))
            }
        }
    }

    /// Lower the torus to a generic [`Graph`].
    #[expect(
        clippy::cast_possible_truncation,
        reason = "graph lowering is for small tori: Graph ids are u32, so the torus has at most 2^32 nodes"
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
    fn edge_count_matches_formula() {
        for dims in [
            vec![3usize, 3],
            vec![4, 5],
            vec![2, 3],
            vec![1, 6],
            vec![2, 2],
            vec![3, 4, 5],
            vec![2, 2, 2],
        ] {
            let t = Torus::from_dims(&dims);
            assert_eq!(t.edges().count(), t.edge_count(), "shape {:?}", dims);
        }
    }

    #[test]
    fn ring_is_a_cycle() {
        let t = Torus::from_dims(&[5]);
        let g = t.to_graph();
        assert_eq!(g.edge_count(), 5);
        for v in 0..5 {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.diameter(), Some(2));
    }

    #[test]
    fn length_two_axis_has_no_double_edge() {
        let t = Torus::from_dims(&[2]);
        let g = t.to_graph();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn torus_is_regular_when_all_axes_long() {
        let t = Torus::from_dims(&[3, 4]);
        let g = t.to_graph();
        for v in 0..g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn torus_diameter_halves_mesh_diameter() {
        // 5-ring diameter 2 per axis.
        let t = Torus::from_dims(&[5, 5]);
        assert_eq!(t.to_graph().diameter(), Some(4));
    }

    #[test]
    fn wrap_endpoints() {
        let t = Torus::from_dims(&[4, 3]);
        let wraps: Vec<(usize, usize)> = t
            .edges()
            .filter_map(|e| match e {
                TorusEdge::Wrap { .. } => Some(t.edge_endpoints(e)),
                _ => None,
            })
            .collect();
        // 3 wraps along axis 0 (columns), 4 wraps along axis 1 (rows).
        assert_eq!(wraps.len(), 7);
        let s = t.shape().clone();
        assert!(wraps.contains(&(s.index(&[0, 0]), s.index(&[3, 0]))));
        assert!(wraps.contains(&(s.index(&[0, 0]), s.index(&[0, 2]))));
    }
}
