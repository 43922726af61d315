//! The sharded metrics/verify engines must agree *exactly* with their
//! sequential counterparts — same numbers, same first error — and the
//! implicit mesh edge enumeration must match the materialized list. These
//! are the correctness contracts behind the parallel construction
//! pipeline; `cubemesh-bench` re-asserts the metrics contract on
//! paper-scale shapes.

#![expect(
    clippy::cast_possible_truncation,
    reason = "the victim index is reduced mod the route count"
)]

use cubemesh::core::{construct, Planner};
use cubemesh::embedding::builders::mesh_edge_list;
use cubemesh::embedding::metrics::{metrics_par, metrics_seq};
use cubemesh::embedding::verify::{
    verify_embedding_par, verify_embedding_seq, verify_many_to_one_par, verify_many_to_one_seq,
};
use cubemesh::embedding::{
    gray_mesh_embedding, mesh_embedding_with_router, Embedding, MeshEdgeView, RouteSet,
    RouteStrategy,
};
use cubemesh::manytoone::fold_to_dim;
use cubemesh::topology::{Hypercube, Mesh, Shape};
use proptest::prelude::*;

fn random_embedding(dims: &[usize], seed: u64, balanced: bool) -> Embedding {
    use rand::prelude::*;
    use rand::rngs::StdRng;
    let shape = Shape::new(dims);
    let host = Hypercube::new(shape.minimal_cube_dim() + 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut addrs: Vec<u64> = (0..host.nodes()).collect();
    addrs.shuffle(&mut rng);
    let map = addrs[..shape.nodes()].to_vec();
    let strategy = if balanced {
        RouteStrategy::Balanced { passes: 2 }
    } else {
        RouteStrategy::Canonical
    };
    mesh_embedding_with_router(&shape, host, map, strategy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn metrics_par_equals_seq_on_random_embeddings(
        l1 in 2usize..6,
        l2 in 2usize..7,
        seed in any::<u64>(),
        balanced in any::<bool>(),
    ) {
        let emb = random_embedding(&[l1, l2], seed, balanced);
        prop_assert_eq!(metrics_seq(&emb), metrics_par(&emb));
    }

    #[test]
    fn verify_par_equals_seq_on_random_embeddings(
        l1 in 2usize..6,
        l2 in 2usize..7,
        seed in any::<u64>(),
    ) {
        let emb = random_embedding(&[l1, l2], seed, false);
        prop_assert_eq!(verify_embedding_seq(&emb), verify_embedding_par(&emb));
    }

    /// Corrupt one route of a valid embedding; both engines must report
    /// the *same* first error.
    #[test]
    fn verify_par_reports_same_error_as_seq(
        l1 in 2usize..5,
        l2 in 2usize..6,
        seed in any::<u64>(),
        victim in any::<u64>(),
    ) {
        let emb = random_embedding(&[l1, l2], seed, false);
        let (nodes, edges, host, map, routes) = emb.into_parts();
        let bad = (victim % routes.len() as u64) as usize;
        let mut corrupted = RouteSet::with_capacity(routes.len(), 0);
        for i in 0..routes.len() {
            if i == bad {
                // Jump outside the cube: triggers adjacency/range errors.
                let r = routes.route(i);
                let mut path = r.to_vec();
                path[0] = host.nodes() + 7;
                corrupted.push(&path);
            } else {
                corrupted.push(routes.route(i));
            }
        }
        let emb = Embedding::from_guest(nodes, edges, host, map, corrupted);
        let seq = verify_embedding_seq(&emb);
        prop_assert!(seq.is_err());
        prop_assert_eq!(seq, verify_embedding_par(&emb));
    }

    /// Folding collapses some routes to single-node (dilation-0) paths and
    /// makes the map many-to-one; the parallel engines must still agree.
    #[test]
    fn many_to_one_folds_agree(
        l1 in 2usize..6,
        l2 in 2usize..6,
        drop in 1u32..3,
    ) {
        let shape = Shape::new(&[l1, l2]);
        let emb = gray_mesh_embedding(&shape);
        let n = emb.host().dim();
        let folded = fold_to_dim(&emb, n.saturating_sub(drop));
        prop_assert_eq!(
            verify_many_to_one_seq(&folded),
            verify_many_to_one_par(&folded)
        );
        prop_assert_eq!(metrics_seq(&folded), metrics_par(&folded));
    }

    #[test]
    fn implicit_edges_match_materialized_list(
        dims in prop::collection::vec(1usize..7, 1..5),
    ) {
        let shape = Shape::new(&dims);
        let view = MeshEdgeView::new(&shape);
        let listed = mesh_edge_list(&Mesh::new(shape.clone()));
        let implicit: Vec<(u32, u32)> = view.iter().collect();
        prop_assert_eq!(&implicit, &listed);
        prop_assert_eq!(view.edge_count(), listed.len());
        // Chunked enumeration covers the same edges in the same order.
        let emb = gray_mesh_embedding(&shape);
        prop_assert_eq!(emb.edges_vec(), listed);
    }
}

#[test]
fn planner_constructions_agree_across_engines() {
    // Shapes whose plans exercise Gray, Product, and restriction paths.
    for dims in [
        vec![12usize, 20],
        vec![3, 3, 23],
        vec![6, 6, 6],
        vec![4, 8, 16],
        vec![5, 6, 7],
    ] {
        let shape = Shape::new(&dims);
        let plan = Planner::new()
            .plan(&shape)
            .unwrap_or_else(|| panic!("no plan for {:?}", dims));
        let emb = construct(&shape, &plan).expect("plan lowers");
        assert_eq!(
            verify_embedding_seq(&emb),
            verify_embedding_par(&emb),
            "{:?}",
            dims
        );
        assert!(verify_embedding_seq(&emb).is_ok(), "{:?}", dims);
        assert_eq!(metrics_seq(&emb), metrics_par(&emb), "{:?}", dims);
    }
}

/// Construction, metrics and verify (each picking its own `_seq`/`_par`
/// path) must produce byte-identical artifacts whether the pool runs one
/// worker, two, or eight: every chunk writes its own slice of one
/// preallocated map and route arena, and every reduction is
/// exact-integer, so stealing order must never show through. Every shape
/// here is above `PAR_MIN_NODES`, so the chunked paths really run.
#[test]
fn artifacts_identical_across_thread_counts() {
    use cubemesh::audit::check_plan;
    use cubemesh::core::Plan;
    use cubemesh::embedding::builders::{node_chunks, PAR_MIN_NODES};
    use cubemesh::pool::with_threads;

    let product = Shape::new(&[56, 48, 48]);
    let planned = Planner::new().plan(&product).expect("56x48x48 has a plan");
    assert!(matches!(planned, Plan::Product { .. }), "{planned}");
    // The 3x3x7 catalog entry in a permuted axis order, whose routes the
    // exact assigner has to search for.
    let permuted = Plan::Product {
        f1: Shape::new(&[7, 3, 3]),
        p1: Box::new(Plan::Direct),
        f2: Shape::new(&[8, 16, 16]),
        p2: Box::new(Plan::Gray),
    };
    check_plan(&product, &permuted).expect("permuted-factor plan certifies");
    let gray = Shape::new(&[41, 43, 45]);
    for threads in [2usize, 8] {
        // 41·43 rows is odd, so some chunk boundary falls mid-run of the
        // innermost axis, where the batched Gray fill clips a run.
        let starts = with_threads(threads, || node_chunks(gray.nodes()));
        assert!(
            starts.iter().any(|r| r.start % gray.len(2) != 0),
            "no mid-run chunk boundary at {threads} threads"
        );
    }
    let cases = [
        (gray, Plan::Gray),
        (product.clone(), planned),
        (product, permuted),
    ];
    for (shape, plan) in &cases {
        assert!(shape.nodes() >= PAR_MIN_NODES, "{shape} stays sequential");
        let build = |threads: usize| {
            with_threads(threads, || {
                let emb = construct(shape, plan).expect("plan lowers");
                let map = emb.map().to_vec();
                let routes: Vec<Vec<u64>> = emb.routes().iter().map(|r| r.to_vec()).collect();
                (
                    map,
                    routes,
                    emb.routes().all_pairs(),
                    emb.metrics(),
                    emb.verify(),
                )
            })
        };
        let base = build(1);
        assert_eq!(base.4, Ok(()), "{shape} {plan} does not verify");
        for threads in [2usize, 8] {
            let got = build(threads);
            assert_eq!(
                got.0, base.0,
                "{shape} {plan}: node map diverged at {threads} threads"
            );
            assert_eq!(
                got.1, base.1,
                "{shape} {plan}: routes diverged at {threads} threads"
            );
            assert_eq!(
                got.2, base.2,
                "{shape} {plan}: pairs flag diverged at {threads} threads"
            );
            assert_eq!(
                got.3, base.3,
                "{shape} {plan}: metrics diverged at {threads} threads"
            );
            assert_eq!(
                got.4, base.4,
                "{shape} {plan}: verify diverged at {threads} threads"
            );
        }
    }
}

/// Replay reports (windowed queueing series and sweep points) serialize
/// to the same JSON under any pool width: the simulation itself is
/// sequential per rate, and the sweep's parallel collect preserves rate
/// order.
#[test]
fn replay_reports_identical_across_thread_counts() {
    use cubemesh::netsim::Switching;
    use cubemesh::pool::with_threads;
    use cubemesh::replay::{rate_sweep, replay, ReplayConfig};
    let shape = Shape::new(&[4, 4, 4]);
    let run = |threads: usize| {
        with_threads(threads, || {
            let emb = gray_mesh_embedding(&shape);
            let trace = cubemesh::replay::rate_trace(emb.guest_nodes(), 4, 1, 8, 64, 11);
            let cfg = ReplayConfig {
                switching: Switching::StoreAndForward,
                window: 8,
            };
            let report = replay(&emb, &trace, &cfg).expect("replay");
            let rates = [(1u64, 16u64), (1, 4), (1, 1)];
            let points =
                rate_sweep(&emb, &rates, 4, 64, 7, Switching::StoreAndForward).expect("sweep");
            let sweep_json: Vec<String> = points.iter().map(|p| p.to_json()).collect();
            (report.to_json(), sweep_json)
        })
    };
    let base = run(1);
    for threads in [2usize, 8] {
        let got = run(threads);
        assert_eq!(got.0, base.0, "replay report diverged at {threads} threads");
        assert_eq!(got.1, base.1, "sweep points diverged at {threads} threads");
    }
}

#[test]
fn zero_and_single_edge_guests_agree() {
    // Single node, no edges.
    let e = Embedding::new(1, vec![], Hypercube::new(0), vec![0], RouteSet::new());
    assert_eq!(metrics_seq(&e), metrics_par(&e));
    assert_eq!(verify_embedding_seq(&e), verify_embedding_par(&e));
    // One edge, dilated route.
    let mut rs = RouteSet::new();
    rs.push(&[0b00, 0b01, 0b11]);
    let e = Embedding::new(2, vec![(0, 1)], Hypercube::new(2), vec![0b00, 0b11], rs);
    assert_eq!(metrics_seq(&e), metrics_par(&e));
    assert_eq!(verify_embedding_seq(&e), verify_embedding_par(&e));
}
