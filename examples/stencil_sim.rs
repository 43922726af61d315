//! Simulate one stencil halo-exchange on a hypercube multiprocessor under
//! three embeddings of the same mesh — the paper's motivation, measured.
//!
//! ```text
//! cargo run --release --example stencil_sim -- 9 9 9 [flits]
//! ```

#![expect(
    clippy::expect_used,
    reason = "an example aborts with a message on bad input"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "the flit count argument is small"
)]

use cubemesh::core::embed_mesh;
use cubemesh::embedding::gray_mesh_embedding;
use cubemesh::netsim::{simulate, stencil_exchange};
use cubemesh::reshape::snake_embedding;
use cubemesh::topology::Shape;

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("integer arguments"))
        .collect();
    let (dims, flits) = match args.len() {
        0 => (vec![9, 9, 9], 32),
        1 => (vec![args[0]], 32),
        n => {
            // Last arg is the flit count if more than 3 numbers given, or
            // if exactly 2 treat both as dims.
            if n == 4 {
                (args[..3].to_vec(), args[3] as u32)
            } else {
                (args.to_vec(), 32)
            }
        }
    };
    let shape = Shape::new(&dims);
    println!(
        "mesh {} — one halo exchange, {}-flit messages, store-and-forward\n",
        shape, flits
    );
    println!(
        "{:<18} {:>5} {:>9} {:>11} {:>10} {:>10}",
        "embedding", "cube", "dilation", "congestion", "makespan", "slowdown"
    );

    let (decomp, minimal) = embed_mesh(&shape);
    let rows = [
        (
            if minimal {
                "decomposition"
            } else {
                "gray (no plan)"
            },
            decomp,
        ),
        ("gray (expanded)", gray_mesh_embedding(&shape)),
        ("snake (minimal)", snake_embedding(&shape)),
    ];
    for (name, emb) in rows {
        let m = emb.metrics();
        let msgs = stencil_exchange(&emb, flits);
        let r = simulate(emb.host(), &msgs);
        println!(
            "{:<18} {:>5} {:>9} {:>11} {:>10} {:>9.2}x",
            name,
            format!("Q{}", m.host_dim),
            m.dilation,
            m.congestion,
            r.makespan,
            r.makespan as f64 / flits as f64
        );
    }
    println!(
        "\nA dilation-1 congestion-1 embedding finishes in exactly {} cycles;\n\
         the decomposition embedding pays ≤ 2x for minimal expansion, while\n\
         the snake curve degrades with mesh size — the trade-off the paper\n\
         resolves.",
        flits
    );
}
