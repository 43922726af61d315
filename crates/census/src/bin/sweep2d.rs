//! Sweep all 2-D meshes up to a node bound that the current constructive
//! coverage misses, run the exact dilation-2 search on each, and print
//! ready-to-paste `CatalogEntry` items for the ones that also certify
//! congestion 2.
//!
//! Usage: `sweep2d [max_nodes] [budget]`

#![expect(
    clippy::cast_possible_truncation,
    reason = "searched guests are tiny, far below 2^32 nodes"
)]

use cubemesh_census::cover::{workspace_catalog, Cover2};
use cubemesh_embedding::builders::mesh_edge_list;
use cubemesh_search::backtrack::{find_embedding, SearchConfig, SearchOutcome};
use cubemesh_search::routes::certify_congestion;
use cubemesh_topology::{cube_dim, Hypercube, Mesh, Shape};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let max_nodes: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(256);
    let budget: u64 = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000_000_000);

    let (two, _) = workspace_catalog();
    let c2 = Cover2::build(max_nodes, two);

    let mut missing: Vec<(usize, usize)> = Vec::new();
    for a in 2..=max_nodes {
        for b in a..=max_nodes {
            if a * b > max_nodes {
                break;
            }
            if !c2.covered(a, b) {
                missing.push((a, b));
            }
        }
    }
    missing.sort_by_key(|&(a, b)| a * b);
    eprintln!(
        "{} uncovered 2-D shapes <= {} nodes",
        missing.len(),
        max_nodes
    );

    for (a, b) in missing {
        let shape = Shape::new(&[a, b]);
        let guest = Mesh::new(shape.clone()).to_graph();
        let order: Vec<u32> = (0..guest.nodes() as u32).collect();
        let host_dim = cube_dim((a * b) as u64);
        let host = Hypercube::new(host_dim);
        let mut found = false;
        for seed in [None, Some(1u64), Some(2), Some(3), Some(4), Some(5)] {
            let cfg = SearchConfig {
                host_dim,
                max_dilation: 2,
                node_budget: budget / 6,
                shuffle_seed: seed,
            };
            let t = std::time::Instant::now();
            match find_embedding(&guest, &order, &cfg) {
                SearchOutcome::Found(map) => {
                    let edges = mesh_edge_list(&Mesh::new(shape.clone()));
                    if certify_congestion(&map, &edges, host, 2).is_some() {
                        eprintln!(
                            "{}x{}: found + certified (seed {:?}, {:?})",
                            a,
                            b,
                            seed,
                            t.elapsed()
                        );
                        emit(&shape, host_dim, &map);
                        found = true;
                        break;
                    } else {
                        eprintln!(
                            "{}x{}: found but congestion-2 failed (seed {:?})",
                            a, b, seed
                        );
                    }
                }
                SearchOutcome::Exhausted => {
                    eprintln!("{}x{}: EXHAUSTED — no dilation-2 embedding!", a, b);
                    break;
                }
                SearchOutcome::BudgetExceeded => {
                    eprintln!(
                        "{}x{}: budget exceeded (seed {:?}, {:?})",
                        a,
                        b,
                        seed,
                        t.elapsed()
                    );
                    break; // bigger shapes won't get cheaper; move on
                }
            }
        }
        if !found {
            eprintln!("{}x{}: NOT added", a, b);
        }
    }
}

fn emit(shape: &Shape, host_dim: u32, map: &[u64]) {
    let dims: Vec<String> = shape.dims().iter().map(|d| d.to_string()).collect();
    println!("    CatalogEntry {{");
    println!("        dims: &[{}],", dims.join(", "));
    println!("        host_dim: {},", host_dim);
    print!("        map: &[");
    for (i, a) in map.iter().enumerate() {
        if i % 12 == 0 {
            print!("\n            ");
        }
        print!("{}, ", a);
    }
    println!("\n        ],");
    println!("        provenance: \"exact backtracking, congestion-2 certified (sweep)\",");
    println!("    }},");
}
