//! Embedding-construction benchmarks: how fast the §4.2 strategy plans
//! and builds, and what the metrics engine costs.

#![expect(
    clippy::expect_used,
    reason = "bench shapes are planner-covered; a failure aborts the bench"
)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use cubemesh_core::{construct, Planner};
use cubemesh_embedding::gray_mesh_embedding;
use cubemesh_topology::Shape;
use std::hint::black_box;

fn bench_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan");
    for dims in [
        vec![21usize, 9, 5],
        vec![9, 9, 9],
        vec![24, 20, 12],
        vec![255, 255, 255],
    ] {
        let shape = Shape::new(&dims);
        group.bench_function(shape.to_string(), |b| {
            b.iter_batched(
                Planner::new,
                |mut planner| black_box(planner.plan(black_box(&shape))),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("construct");
    for dims in [vec![21usize, 9, 5], vec![9, 9, 9], vec![24, 20, 12]] {
        let shape = Shape::new(&dims);
        let plan = Planner::new().plan(&shape).expect("plannable");
        group.bench_function(shape.to_string(), |b| {
            b.iter(|| {
                black_box(construct(black_box(&shape), black_box(&plan)).expect("plan lowers"))
            })
        });
    }
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics");
    for dims in [vec![32usize, 32], vec![16, 16, 16]] {
        let shape = Shape::new(&dims);
        let emb = gray_mesh_embedding(&shape);
        group.bench_function(shape.to_string(), |b| b.iter(|| black_box(emb.metrics())));
    }
    group.finish();
}

criterion_group!(benches, bench_planning, bench_construction, bench_metrics);
criterion_main!(benches);
