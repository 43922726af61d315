//! Direct-embedding search benchmarks: how long the exact backtracking
//! takes to rediscover the paper's tables, and the congestion-2
//! certification cost.

#![expect(
    clippy::expect_used,
    reason = "bench shapes are catalog entries; a failure aborts the bench"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "bench guests are tiny, far below 2^32 nodes"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use cubemesh_embedding::builders::mesh_edge_list;
use cubemesh_search::routes::certify_congestion;
use cubemesh_search::{catalog_map, find_embedding, SearchConfig, SearchOutcome};
use cubemesh_topology::{Hypercube, Mesh, Shape};
use std::hint::black_box;

fn bench_discovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("discover");
    for dims in [vec![3usize, 5], vec![3, 3, 3], vec![7, 9], vec![11, 11]] {
        let shape = Shape::new(&dims);
        let guest = Mesh::new(shape.clone()).to_graph();
        let order: Vec<u32> = (0..guest.nodes() as u32).collect();
        let cfg = SearchConfig::dilation2_minimal(guest.nodes());
        group.bench_function(shape.to_string(), |b| {
            b.iter(|| {
                let out = find_embedding(black_box(&guest), &order, &cfg);
                assert!(matches!(out, SearchOutcome::Found(_)));
                black_box(out)
            })
        });
    }
    group.finish();
}

fn bench_certification(c: &mut Criterion) {
    let mut group = c.benchmark_group("certify_congestion2");
    for dims in [vec![7usize, 9], vec![11, 11]] {
        let shape = Shape::new(&dims);
        let map = catalog_map(&shape).expect("in catalog");
        let mesh = Mesh::new(shape.clone());
        let edges = mesh_edge_list(&mesh);
        let host = Hypercube::new(shape.minimal_cube_dim());
        group.bench_function(shape.to_string(), |b| {
            b.iter(|| black_box(certify_congestion(black_box(&map), &edges, host, 2)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_discovery, bench_certification);
criterion_main!(benches);
