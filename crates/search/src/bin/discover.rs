//! Offline discovery of direct embeddings.
//!
//! Usage: `discover <l1> <l2> [l3 ...] [--dilation D] [--dim N]
//!         [--budget STEPS] [--restarts R] [--anneal-steps S]`
//!
//! Runs exact backtracking (several restart seeds), then annealing, and on
//! success prints a `CatalogEntry` ready to paste into `catalog_data.rs`.
//!
//! Progress goes through the instrumentation layer: a live restart
//! reporter on stderr while searching, and a full stats snapshot (search
//! counters, span timings) when the run ends. `CUBEMESH_STATS=json`
//! switches the snapshot to JSON; `CUBEMESH_STATS=off` suppresses it.

#![expect(
    clippy::expect_used,
    reason = "bad command-line numbers abort with a message"
)]
#![expect(
    clippy::panic,
    reason = "bad command-line numbers abort with a message"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "searched guests are tiny, far below 2^32 nodes"
)]

use cubemesh_embedding::builders::mesh_edge_list;
use cubemesh_obs::{self as obs, Progress};
use cubemesh_search::anneal::{anneal_restarts, AnnealConfig, AnnealOutcome};
use cubemesh_search::backtrack::{find_embedding, SearchConfig, SearchOutcome};
use cubemesh_search::routes::certify_congestion;
use cubemesh_topology::{cube_dim, Hypercube, Mesh, Shape};

fn finish(code: i32) -> ! {
    obs::report();
    std::process::exit(code);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dims: Vec<usize> = Vec::new();
    let mut dilation = 2u32;
    let mut dim_override: Option<u32> = None;
    let mut budget = 200_000_000u64;
    let mut restarts = 8u64;
    let mut anneal_steps = 5_000_000u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dilation" => {
                i += 1;
                dilation = args[i].parse().expect("bad dilation");
            }
            "--dim" => {
                i += 1;
                dim_override = Some(args[i].parse().expect("bad dim"));
            }
            "--budget" => {
                i += 1;
                budget = args[i].parse().expect("bad budget");
            }
            "--restarts" => {
                i += 1;
                restarts = args[i].parse().expect("bad restarts");
            }
            "--anneal-steps" => {
                i += 1;
                anneal_steps = args[i].parse().expect("bad anneal steps");
            }
            s => dims.push(s.parse().unwrap_or_else(|_| panic!("bad dim {s}"))),
        }
        i += 1;
    }
    assert!(!dims.is_empty(), "usage: discover <l1> <l2> [l3 ...]");
    dims.sort_unstable();
    // Discovery is an offline tool: the search counters and span timings
    // ARE its diagnostics, so stats default to on (env can still override).
    obs::init_from_env();
    if std::env::var_os("CUBEMESH_STATS").is_none() {
        obs::set_mode(obs::StatsMode::Text);
    }
    let shape = Shape::new(&dims);
    let host_dim = dim_override.unwrap_or_else(|| cube_dim(shape.nodes() as u64));
    eprintln!(
        "searching {} -> Q_{} with dilation <= {} ({} nodes / {} addresses)",
        shape,
        host_dim,
        dilation,
        shape.nodes(),
        1u64 << host_dim
    );

    let guest = Mesh::new(shape.clone()).to_graph();
    let order: Vec<u32> = (0..guest.nodes() as u32).collect();

    // Phase 1: exact backtracking, deterministic then shuffled. The
    // reporter shows restart progress; per-restart step counts, prunes,
    // and time-to-first-solution land in the final snapshot.
    let seeds: Vec<Option<u64>> = std::iter::once(None)
        .chain((0..restarts).map(Some))
        .collect();
    let progress = Progress::always("exact restarts", seeds.len() as u64);
    for seed in seeds {
        let cfg = SearchConfig {
            host_dim,
            max_dilation: dilation,
            node_budget: budget / (restarts + 1),
            shuffle_seed: seed,
        };
        let outcome = find_embedding(&guest, &order, &cfg);
        progress.tick(1);
        match outcome {
            SearchOutcome::Found(map) => {
                progress.finish();
                eprintln!("exact search found a map (seed {seed:?})");
                if dilation <= 2 && !certifies_congestion2(&shape, host_dim, &map) {
                    eprintln!("…but congestion-2 routing is infeasible; retrying");
                    continue;
                }
                emit(
                    &shape,
                    host_dim,
                    &map,
                    "exact backtracking, congestion-2 certified",
                );
                finish(0);
            }
            SearchOutcome::Exhausted => {
                progress.finish();
                eprintln!("EXHAUSTED: no embedding exists with these parameters");
                finish(2);
            }
            SearchOutcome::BudgetExceeded => {}
        }
    }
    progress.finish();

    // Phase 2: annealing.
    let cfg = AnnealConfig {
        host_dim,
        max_dilation: dilation,
        steps: anneal_steps,
        t_start: 2.5,
        t_end: 0.005,
        seed: 0xC0FFEE,
    };
    match anneal_restarts(&guest, &cfg, restarts.max(1)) {
        AnnealOutcome::Found(map) => {
            eprintln!("annealing found a map");
            let provenance = if dilation <= 2 && certifies_congestion2(&shape, host_dim, &map) {
                "simulated annealing, congestion-2 certified"
            } else {
                "simulated annealing (congestion-2 routing NOT certified)"
            };
            emit(&shape, host_dim, &map, provenance);
            finish(0);
        }
        AnnealOutcome::Best { energy, .. } => {
            eprintln!("no embedding found; best residual energy {energy}");
            finish(1);
        }
    }
}

fn certifies_congestion2(shape: &Shape, host_dim: u32, map: &[u64]) -> bool {
    let mesh = Mesh::new(shape.clone());
    let edges = mesh_edge_list(&mesh);
    certify_congestion(map, &edges, Hypercube::new(host_dim), 2).is_some()
}

fn emit(shape: &Shape, host_dim: u32, map: &[u64], provenance: &str) {
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
    println!("        provenance: \"{}\",", provenance);
    println!("    }},");
}
