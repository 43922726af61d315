//! Property tests on the graph substrate: the invariants every other
//! crate builds on.

#![expect(
    clippy::cast_possible_truncation,
    reason = "test cubes are small, so addresses fit usize"
)]

use cubemesh::gray::{gray, gray_inverse};
use cubemesh::topology::{ceil_pow2, cube_dim, hamming, product, Hypercube, Mesh, Shape, Torus};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Row-major indexing is a bijection for arbitrary shapes.
    #[test]
    fn shape_index_bijection(dims in prop::collection::vec(1usize..7, 1..4)) {
        let shape = Shape::new(&dims);
        let mut seen = vec![false; shape.nodes()];
        for c in shape.iter_coords() {
            let i = shape.index(&c);
            prop_assert!(!seen[i]);
            seen[i] = true;
            prop_assert_eq!(shape.coords(i), c);
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Mesh BFS distance equals the L1 (Manhattan) coordinate distance.
    #[test]
    fn mesh_distance_is_l1(
        l1 in 1usize..5, l2 in 1usize..5, l3 in 1usize..4,
    ) {
        let mesh = Mesh::from_dims(&[l1, l2, l3]);
        let g = mesh.to_graph();
        let dist = g.bfs_distances(0); // from coordinate (0,0,0)
        for c in mesh.shape().iter_coords() {
            let l1_dist: usize = c.iter().sum();
            prop_assert_eq!(dist[mesh.shape().index(&c)] as usize, l1_dist);
        }
    }

    /// Hypercube BFS distance equals Hamming distance (checked per node).
    #[test]
    fn cube_distance_is_hamming(n in 1u32..6, src in 0u64..32) {
        let q = Hypercube::new(n);
        let src = src % q.nodes();
        let g = q.to_graph();
        let dist = g.bfs_distances(src as usize);
        for v in 0..q.nodes() {
            prop_assert_eq!(dist[v as usize], hamming(src, v));
        }
    }

    /// Torus distance never exceeds mesh distance, and the product-graph
    /// edge-count identity of Definition 4 holds.
    #[test]
    fn torus_shortcuts_and_product_counts(
        l1 in 2usize..5, l2 in 2usize..6,
    ) {
        let mesh = Mesh::from_dims(&[l1, l2]).to_graph();
        let torus = Torus::from_dims(&[l1, l2]).to_graph();
        let dm = mesh.bfs_distances(0);
        let dt = torus.bfs_distances(0);
        for v in 0..mesh.nodes() {
            prop_assert!(dt[v] <= dm[v]);
        }

        let p = product(&mesh, &torus).unwrap();
        prop_assert_eq!(
            p.edge_count(),
            mesh.nodes() * torus.edge_count() + torus.nodes() * mesh.edge_count()
        );
        prop_assert_eq!(p.nodes(), mesh.nodes() * torus.nodes());
    }

    /// ⌈·⌉₂ algebra used throughout the expansion arguments.
    #[test]
    fn bracket2_algebra(a in 1u64..100_000, b in 1u64..100_000) {
        prop_assert!(ceil_pow2(a) >= a);
        prop_assert!(ceil_pow2(a) < 2 * a);
        prop_assert!(ceil_pow2(a * b) <= ceil_pow2(a) * ceil_pow2(b));
        prop_assert_eq!(cube_dim(ceil_pow2(a)), cube_dim(a));
        prop_assert!(cube_dim(a * b) <= cube_dim(a) + cube_dim(b));
        prop_assert!(cube_dim(a * b) + 1 >= cube_dim(a) + cube_dim(b));
    }

    /// Gray bijection and adjacency at arbitrary width.
    #[test]
    fn gray_properties(x in any::<u64>()) {
        prop_assert_eq!(gray_inverse(gray(x)), x);
        if x < u64::MAX {
            prop_assert_eq!(hamming(gray(x), gray(x + 1)), 1);
        }
    }

    /// Mesh and torus edge enumerations agree with the closed-form counts
    /// and every endpoint pair is adjacent.
    #[test]
    fn edge_enumeration_consistency(dims in prop::collection::vec(1usize..6, 1..4)) {
        let shape = Shape::new(&dims);
        let mesh = Mesh::new(shape.clone());
        prop_assert_eq!(mesh.edges().count(), shape.mesh_edges());
        let torus = Torus::new(shape.clone());
        prop_assert_eq!(torus.edges().count(), shape.torus_edges());
        for e in torus.edges() {
            let (u, v) = torus.edge_endpoints(e);
            prop_assert!(u < shape.nodes() && v < shape.nodes() && u != v);
        }
    }
}
