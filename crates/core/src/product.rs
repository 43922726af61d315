//! The constructive product-embedding machinery (Theorem 3, Corollary 2).
//!
//! Two layers:
//!
//! * [`product_embedding`] — the literal Theorem 3 construction for
//!   arbitrary guest graphs: `G₁ × G₂ → Q_{n₁+n₂}`, every `G₁`-type edge
//!   routed inside its copy of `H₁`, every `G₂`-type edge inside its copy
//!   of `H₂`. Expansion multiplies; dilation and congestion take maxima —
//!   *exactly*, which the tests check.
//!
//! * [`mesh_product_embedding`] — the Corollary 2 construction: an
//!   `ℓ₁ × ⋯ × ℓ_k` mesh with `ℓᵢ ≤ ℓ₁ᵢ·ℓ₂ᵢ` is embedded through the
//!   product of an `ℓ₁₁ × ⋯ × ℓ₁ₖ` mesh `M₁` and an `ℓ₂₁ × ⋯ × ℓ₂ₖ`
//!   mesh `M₂`, using the boustrophedon reflection `φ̃₁` (instances of
//!   `M₁` with odd `M₂`-coordinate are reflected) so the big mesh really is
//!   a subgraph of the product. Writing `zᵢ = yᵢ·ℓ₁ᵢ + xᵢ`, the address is
//!   `φ₂(y) ‖ φ₁(x′)`. Allowing `ℓᵢ < ℓ₁ᵢ·ℓ₂ᵢ` implements the §4.2
//!   axis-extension trick (embed the slightly larger mesh, restrict).

use cubemesh_embedding::builders::{node_chunks, MeshEdgeView};
use cubemesh_embedding::{Embedding, RouteSet};
use cubemesh_obs as obs;
use cubemesh_topology::{Hypercube, Mesh, Shape};
use std::ops::Range;

/// Edge-id lookup for the canonical mesh edge enumeration: `id(node, axis)`
/// is the position of that edge in [`Mesh::edges`] order.
pub struct MeshEdgeIndex {
    rank: usize,
    ids: Vec<u32>,
}

impl MeshEdgeIndex {
    /// Build the lookup for a mesh shape.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "materialized mesh edge ids are u32 by the MeshEdgeIndex layout; meshes it is built for have fewer than 2^32 edges"
    )]
    pub fn new(shape: &Shape) -> Self {
        let rank = shape.rank();
        let mesh = Mesh::new(shape.clone());
        let mut ids = vec![u32::MAX; shape.nodes() * rank];
        for (i, e) in mesh.edges().enumerate() {
            ids[e.node * rank + e.axis] = i as u32;
        }
        MeshEdgeIndex { rank, ids }
    }

    /// Edge id of the edge starting at linear index `node` along `axis`.
    ///
    /// # Panics
    /// Panics if no such edge exists (node at the high end of the axis).
    #[inline]
    pub fn id(&self, node: usize, axis: usize) -> usize {
        let id = self.ids[node * self.rank + axis];
        assert!(id != u32::MAX, "no edge at node {} axis {}", node, axis);
        id as usize
    }
}

/// The Theorem 3 construction for arbitrary guests.
///
/// Guest nodes of the product are indexed `u * |V(G₂)| + v`; guest edges
/// are emitted `G₂`-type first (per `u`, in `e2`'s edge order), then
/// `G₁`-type (per `v`, in `e1`'s edge order). The host is
/// `Q_{n₁+n₂}` with `φ([u,v]) = φ₁(u) ‖ φ₂(v)` (`φ₁` in the high bits).
#[expect(
    clippy::cast_possible_truncation,
    reason = "materialized guests are u32-indexed by the Embedding edge-list contract: n1 * n2 <= 2^32 whenever edges are listed"
)]
pub fn product_embedding(e1: &Embedding, e2: &Embedding) -> Embedding {
    let n1 = e1.guest_nodes();
    let n2 = e2.guest_nodes();
    let host = Hypercube::new(e1.host().dim() + e2.host().dim());
    let shift = e2.host().dim();

    // The guest count n1·n2 is at most 2^{d1+d2} — the node count of the
    // host cube built above (d1+d2 <= 48) — a relational bound interval
    // analysis cannot carry.
    // audit:allow(CM-A009): n1·n2 <= 2^{d1+d2} <= 2^48, see host above
    let guest = n1 * n2;
    let mut map = Vec::with_capacity(guest);
    for u in 0..n1 {
        let hi = e1.image(u) << shift;
        for v in 0..n2 {
            map.push(hi | e2.image(v));
        }
    }

    // audit:allow(CM-A009): each term is below the product edge count < 3·guest
    let edge_total = n1 * e2.edge_count() + n2 * e1.edge_count();
    let mut edges = Vec::with_capacity(edge_total);
    let mut routes = RouteSet::with_capacity(edge_total, edge_total * 2);

    // G₂-type edges: copy of G₂ for every node u of G₁.
    for u in 0..n1 {
        let hi = e1.image(u) << shift;
        // audit:allow(CM-A009): u < n1, so u·n2 < guest ≤ 2^48.
        let base = (u * n2) as u32;
        for (i, (a, b)) in e2.edges_iter().enumerate() {
            edges.push((base + a, base + b));
            routes.push_iter(e2.routes().route(i).iter().map(|&r| hi | r));
        }
    }
    // G₁-type edges: copy of G₁ for every node v of G₂.
    for v in 0..n2 {
        let lo = e2.image(v);
        for (i, (a, b)) in e1.edges_iter().enumerate() {
            // audit:allow(CM-A009): a,b < n1, so a·n2 + v < guest ≤ 2^48.
            edges.push(((a as usize * n2 + v) as u32, (b as usize * n2 + v) as u32));
            routes.push_iter(e1.routes().route(i).iter().map(|&r| (r << shift) | lo));
        }
    }

    Embedding::new(guest, edges, host, map, routes)
}

/// The Corollary 2 construction.
///
/// * `shape` — the target mesh, with `shape[i] ≤ s1[i] * s2[i]`;
/// * `(s1, e1)` — the inner factor `M₁` and its embedding (reflected per
///   instance);
/// * `(s2, e2)` — the outer factor `M₂` and its embedding.
///
/// The returned embedding maps `z` with `zᵢ = yᵢ·ℓ₁ᵢ + xᵢ` to
/// `φ₂(y) ‖ φ₁(x′)` and routes every mesh edge inside a single copy of the
/// relevant factor's host cube, so dilation and congestion are bounded by
/// the factor embeddings' (Theorem 3).
///
/// # Panics
/// Panics if the factor ranks differ from the target's, if the target
/// does not fit in the factor product, or if an embedding's guest does
/// not match its factor shape.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a route arena's total length is at most its node count, which fits usize on the 64-bit targets Shape::MAX_NODES = 2^46 requires"
)]
pub fn mesh_product_embedding(
    shape: &Shape,
    s1: &Shape,
    e1: &Embedding,
    s2: &Shape,
    e2: &Embedding,
) -> Embedding {
    let k = shape.rank();
    assert_eq!(s1.rank(), k, "factor ranks must match the target");
    assert_eq!(s2.rank(), k, "factor ranks must match the target");
    for i in 0..k {
        assert!(
            shape.len(i) <= s1.len(i) * s2.len(i),
            "axis {} does not fit: {} > {}*{}",
            i,
            shape.len(i),
            s1.len(i),
            s2.len(i)
        );
    }
    assert_eq!(e1.guest_nodes(), s1.nodes());
    assert_eq!(e2.guest_nodes(), s2.nodes());

    let n1 = e1.host().dim();
    let host = Hypercube::new(n1 + e2.host().dim());
    let idx1 = MeshEdgeIndex::new(s1);
    let idx2 = MeshEdgeIndex::new(s2);

    // Decompose z into (y, x) and the reflected x'.
    let split = |z: &[usize], x: &mut [usize], y: &mut [usize], xr: &mut [usize]| {
        for i in 0..z.len() {
            let l1 = s1.len(i);
            y[i] = z[i] / l1;
            x[i] = z[i] % l1;
            xr[i] = if y[i].is_multiple_of(2) {
                x[i]
            } else {
                l1 - 1 - x[i]
            };
        }
    };

    // Node map, filled in parallel chunks. The factor indices fold over the
    // axes directly, so a worker needs no coordinate scratch beyond the
    // cursor `fill_node_map` maintains.
    let map = {
        let _span = obs::span!("product.map");
        cubemesh_embedding::builders::fill_node_map(shape, |z| {
            let mut nidx1 = 0usize;
            let mut nidx2 = 0usize;
            for (i, &zi) in z.iter().enumerate() {
                let l1 = s1.len(i);
                let y = zi / l1;
                let x = zi % l1;
                let xr = if y.is_multiple_of(2) { x } else { l1 - 1 - x };
                nidx1 = nidx1 * l1 + xr;
                nidx2 = nidx2 * s2.len(i) + y;
            }
            (e2.image(nidx2) << n1) | e1.image(nidx1)
        })
    };

    // Routes, built per contiguous node range. The canonical enumeration
    // visits nodes in linear order and axes ascending within a node, so
    // ranges split at node boundaries produce dense, splicable edge-id
    // runs; `edges_before_node` sizes each worker's arena exactly.
    let view = MeshEdgeView::new(shape);
    let fill_routes = |range: Range<usize>| -> RouteSet {
        let chunk_edges = view.edges_before_node(range.end) - view.edges_before_node(range.start);
        let mut rs = RouteSet::with_capacity(chunk_edges, chunk_edges * 3);
        let mut z = vec![0usize; k];
        let mut x = vec![0usize; k];
        let mut y = vec![0usize; k];
        let mut xr = vec![0usize; k];
        shape.coords_into(range.start, &mut z);
        for _ in range {
            split(&z, &mut x, &mut y, &mut xr);
            for axis in 0..k {
                if z[axis] + 1 >= shape.len(axis) {
                    continue;
                }
                let l1 = s1.len(axis);
                if (z[axis] + 1).is_multiple_of(l1) {
                    // M₂-type edge: y -> y + e_axis; x' identical on both ends.
                    let ynode = s2.index(&y);
                    let a1 = e1.image(s1.index(&xr));
                    let rid = idx2.id(ynode, axis);
                    rs.push_iter(e2.routes().route(rid).iter().map(|&r| (r << n1) | a1));
                } else {
                    // M₁-type edge within instance y; reflected when y is odd.
                    let a2 = e2.image(s2.index(&y)) << n1;
                    let xnode = s1.index(&xr);
                    if y[axis].is_multiple_of(2) {
                        // x' increases along the edge: stored route runs forward.
                        let rid = idx1.id(xnode, axis);
                        rs.push_iter(e1.routes().route(rid).iter().map(|&r| a2 | r));
                    } else {
                        // x' decreases: the canonical edge starts at x' - 1;
                        // reverse its route.
                        let s1_stride: usize = s1.dims()[axis + 1..].iter().product();
                        let rid = idx1.id(xnode - s1_stride, axis);
                        rs.push_iter(e1.routes().route(rid).iter().rev().map(|&r| a2 | r));
                    }
                }
            }
            shape.advance_coords(&mut z);
        }
        rs
    };

    let routes = {
        let _span = obs::span!("product.routes");
        let chunks = node_chunks(shape.nodes());
        if chunks.len() == 1 {
            fill_routes(0..shape.nodes())
        } else {
            let parts = cubemesh_pool::run_tasks(chunks.len(), |i| fill_routes(chunks[i].clone()));
            let total_nodes: usize = parts
                .iter()
                .map(|p| p.total_length() as usize + p.len())
                .sum();
            let mut combined = RouteSet::with_capacity(view.edge_count(), total_nodes);
            for p in &parts {
                combined.append(p);
            }
            combined
        }
    };

    Embedding::new_mesh(shape, host, map, routes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemesh_embedding::gray_mesh_embedding;

    #[test]
    fn mesh_edge_index_matches_enumeration() {
        let shape = Shape::new(&[3, 4]);
        let idx = MeshEdgeIndex::new(&shape);
        let mesh = Mesh::new(shape.clone());
        for (i, e) in mesh.edges().enumerate() {
            assert_eq!(idx.id(e.node, e.axis), i);
        }
    }

    #[test]
    fn corollary2_gray_times_gray_is_valid() {
        // (4x2) ⊙ (2x3) ⊇ 8x6.
        let s1 = Shape::new(&[4, 2]);
        let s2 = Shape::new(&[2, 3]);
        let e1 = gray_mesh_embedding(&s1);
        let e2 = gray_mesh_embedding(&s2);
        let shape = Shape::new(&[8, 6]);
        let emb = mesh_product_embedding(&shape, &s1, &e1, &s2, &e2);
        emb.verify().unwrap();
        let m = emb.metrics();
        assert_eq!(m.dilation, 1, "gray x gray stays dilation 1");
        assert_eq!(m.host_dim, e1.host().dim() + e2.host().dim());
    }

    #[test]
    fn corollary2_restriction_embeds_smaller_mesh() {
        // 3x3x23 inside (3x3x5) ⊙ (1x1x5) — the paper's extension example
        // (3x3x25 ⊇ 3x3x23), with the 3x3x5 factor Gray-coded here.
        let s1 = Shape::new(&[3, 3, 5]);
        let s2 = Shape::new(&[1, 1, 5]);
        let e1 = gray_mesh_embedding(&s1);
        let e2 = gray_mesh_embedding(&s2);
        let shape = Shape::new(&[3, 3, 23]);
        let emb = mesh_product_embedding(&shape, &s1, &e1, &s2, &e2);
        emb.verify().unwrap();
        assert_eq!(emb.metrics().dilation, 1);
        assert_eq!(emb.guest_nodes(), 207);
    }

    #[test]
    fn theorem3_metric_laws_hold_exactly() {
        // Factors with different dilation: Gray (d=1) x snake-ish… use two
        // Gray factors and check multiplicativity of expansion instead;
        // dilation/congestion maxima are exercised with the catalog in the
        // cross-crate integration tests.
        let s1 = Shape::new(&[3, 1]);
        let s2 = Shape::new(&[1, 5]);
        let e1 = gray_mesh_embedding(&s1);
        let e2 = gray_mesh_embedding(&s2);
        let shape = Shape::new(&[3, 5]);
        let emb = mesh_product_embedding(&shape, &s1, &e1, &s2, &e2);
        emb.verify().unwrap();
        let m = emb.metrics();
        assert_eq!(m.dilation, 1);
        assert_eq!(m.congestion, 1);
        assert!((emb.expansion() - e1.expansion() * e2.expansion()).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn oversize_target_rejected() {
        let s1 = Shape::new(&[2, 2]);
        let s2 = Shape::new(&[2, 2]);
        let e1 = gray_mesh_embedding(&s1);
        let e2 = gray_mesh_embedding(&s2);
        let shape = Shape::new(&[5, 4]);
        let _ = mesh_product_embedding(&shape, &s1, &e1, &s2, &e2);
    }
}
