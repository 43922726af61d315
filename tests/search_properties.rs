//! Property tests for the direct-embedding search engines.

#![expect(
    clippy::cast_possible_truncation,
    reason = "searched guests are tiny, far below 2^32 nodes"
)]

use cubemesh::embedding::builders::mesh_edge_list;
use cubemesh::search::routes::{certify_congestion, max_congestion};
use cubemesh::search::{find_embedding, SearchConfig, SearchOutcome};
use cubemesh::topology::{cube_dim, hamming, Hypercube, Mesh, Shape};
use proptest::prelude::*;

fn check_map(shape: &Shape, map: &[u64], host_dim: u32, d: u32) {
    let mesh = Mesh::new(shape.clone());
    let guest = mesh.to_graph();
    let mut seen = std::collections::HashSet::new();
    for &a in map {
        assert!(a < (1u64 << host_dim));
        assert!(seen.insert(a), "not injective");
    }
    for &(u, v) in guest.edges() {
        assert!(hamming(map[u as usize], map[v as usize]) <= d);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the search returns is valid; and a Gray-minimal mesh must
    /// be found at dilation 1 (the Gray embedding is a witness, so
    /// `Exhausted` would be a completeness bug in the pruning).
    #[test]
    fn search_results_are_sound_and_gray_complete(
        l1 in 2usize..6,
        l2 in 2usize..7,
    ) {
        let shape = Shape::new(&[l1, l2]);
        let guest = Mesh::new(shape.clone()).to_graph();
        let order: Vec<u32> = (0..guest.nodes() as u32).collect();
        let host_dim = cube_dim((l1 * l2) as u64);

        if shape.gray_is_minimal() {
            let cfg = SearchConfig {
                host_dim,
                max_dilation: 1,
                node_budget: 50_000_000,
                shuffle_seed: None,
            };
            match find_embedding(&guest, &order, &cfg) {
                SearchOutcome::Found(map) => check_map(&shape, &map, host_dim, 1),
                other => prop_assert!(false, "gray witness exists, got {:?}", other),
            }
        }

        let cfg = SearchConfig {
            host_dim,
            max_dilation: 2,
            node_budget: 50_000_000,
            shuffle_seed: None,
        };
        if let SearchOutcome::Found(map) = find_embedding(&guest, &order, &cfg) {
            check_map(&shape, &map, host_dim, 2);
        }
    }

    /// The exact congestion assigner's output never exceeds the bound it
    /// was asked for, and agrees with the independent congestion counter.
    #[test]
    fn certified_routes_meet_their_bound(
        l1 in 2usize..5,
        l2 in 2usize..6,
        limit in 1u32..4,
    ) {
        let shape = Shape::new(&[l1, l2]);
        let host = Hypercube::new(cube_dim((l1 * l2) as u64) + 1);
        // A Gray-style map into the roomier cube (dilation ≤ 2 always).
        let emb = cubemesh::embedding::gray_mesh_embedding(&shape);
        // Re-target into the bigger host (addresses still valid).
        let map: Vec<u64> = emb.map().to_vec();
        let edges = mesh_edge_list(&Mesh::new(shape.clone()));
        if let Some(routes) = certify_congestion(&map, &edges, host, limit) {
            prop_assert!(max_congestion(&routes, host) <= limit);
            prop_assert_eq!(routes.len(), edges.len());
        } else {
            // Infeasible is only possible when the limit is tiny.
            prop_assert!(limit == 1);
        }
    }
}

/// Budget accounting: a bigger budget never flips Found into something
/// else (monotonicity of the anytime behavior).
#[test]
fn budget_monotonicity() {
    let shape = Shape::new(&[3, 5]);
    let guest = Mesh::new(shape.clone()).to_graph();
    let order: Vec<u32> = (0..15).collect();
    let mut last_found = false;
    for budget in [10u64, 100, 10_000, 1_000_000] {
        let cfg = SearchConfig {
            host_dim: 4,
            max_dilation: 2,
            node_budget: budget,
            shuffle_seed: None,
        };
        let found = matches!(
            find_embedding(&guest, &order, &cfg),
            SearchOutcome::Found(_)
        );
        assert!(!last_found || found, "budget {} lost a solution", budget);
        last_found = found;
    }
    assert!(last_found, "3x5 must be found within 1M steps");
}

/// The catalog can seed searches: every 2-D catalog shape re-searches
/// successfully at dilation 2 (the engine is reproducible).
#[test]
fn catalog_shapes_rediscoverable() {
    for entry in cubemesh::search::catalog_entries() {
        if entry.dims.len() != 2 || entry.dims.iter().product::<usize>() > 70 {
            continue; // keep the test fast; big ones are covered offline
        }
        let shape = Shape::new(entry.dims);
        let guest = Mesh::new(shape.clone()).to_graph();
        let order: Vec<u32> = (0..guest.nodes() as u32).collect();
        let cfg = SearchConfig::dilation2_minimal(guest.nodes());
        assert!(
            matches!(
                find_embedding(&guest, &order, &cfg),
                SearchOutcome::Found(_)
            ),
            "{:?}",
            entry.dims
        );
    }
}
