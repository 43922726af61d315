//! Quickstart: embed a mesh into its minimal Boolean cube.
//!
//! ```text
//! cargo run --example quickstart -- 5 6 7
//! ```

#![expect(
    clippy::expect_used,
    reason = "an example aborts with a message on bad input"
)]

use cubemesh::core::{construct, Planner};
use cubemesh::embedding::gray_mesh_embedding;
use cubemesh::topology::Shape;

fn main() {
    let dims: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("axis lengths must be integers"))
        .collect();
    let dims = if dims.is_empty() { vec![5, 6, 7] } else { dims };
    let shape = Shape::new(&dims);

    println!(
        "mesh {} — {} nodes, minimal cube Q{}",
        shape,
        shape.nodes(),
        shape.minimal_cube_dim()
    );

    // Plan a minimal-expansion dilation-≤2 embedding by graph
    // decomposition (Ho & Johnsson 1990, §4.2).
    let mut planner = Planner::new();
    match planner.plan(&shape) {
        Some(plan) => {
            println!("plan: {}", plan);
            let emb = construct(&shape, &plan).expect("plan lowers");
            emb.verify().expect("constructed embeddings always verify");
            let m = emb.metrics();
            println!(
                "embedded into Q{} — expansion {:.3}, dilation {}, congestion {}, avg dilation {:.3}",
                m.host_dim, m.expansion, m.dilation, m.congestion, m.avg_dilation
            );
        }
        None => {
            // The strategy has no minimal-expansion answer (e.g. 5x5x5);
            // fall back to the Gray code at higher expansion.
            let emb = gray_mesh_embedding(&shape);
            let m = emb.metrics();
            println!(
                "no minimal-expansion plan known (the paper leaves such meshes open);\n\
                 Gray-code fallback: Q{} — expansion {:.3}, dilation {}",
                m.host_dim, m.expansion, m.dilation
            );
        }
    }
}
