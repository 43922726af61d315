//! The paper's §7 example: run a 19×19 mesh on a 32-processor hypercube
//! (many-to-one embedding with dilation one and near-optimal load).
//!
//! ```text
//! cargo run --example partition_1919
//! ```

#![expect(
    clippy::expect_used,
    reason = "the 19x19 cover is a fixed paper example that always exists"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "host addresses of the 19x19 fold fit usize"
)]

use cubemesh::embedding::{load_factor, verify_many_to_one};
use cubemesh::manytoone::{corollary5, optimal_load_factor};
use cubemesh::topology::Shape;

fn main() {
    let shape = Shape::new(&[19, 19]);
    let n = 5;
    println!(
        "mesh {} ({} nodes) onto Q{} ({} processors)",
        shape,
        shape.nodes(),
        n,
        1 << n
    );

    let emb = corollary5(&shape, n).expect("Corollary 5 cover exists (24x20)");
    verify_many_to_one(&emb).expect("many-to-one embedding is well-formed");

    let m = emb.metrics();
    let lf = load_factor(emb.map(), emb.host());
    let optimal = optimal_load_factor(shape.nodes(), n);
    println!("dilation {}, congestion {}", m.dilation, m.congestion);
    println!(
        "load-factor {} vs optimal {} (paper reports 15 vs 12; within 2x as Corollary 5 promises)",
        lf, optimal
    );

    // Show the processor loads.
    let mut loads = vec![0u32; 1 << n];
    for &a in emb.map() {
        loads[a as usize] += 1;
    }
    println!("\nper-processor mesh-node counts:");
    for (p, l) in loads.iter().enumerate() {
        print!("{:>3}{}", l, if (p + 1) % 8 == 0 { "\n" } else { " " });
    }
}
