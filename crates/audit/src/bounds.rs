//! Provable per-shape lower bounds ("floors") on dilation, congestion
//! and load-factor — the other half of an optimality-gap report.
//!
//! A [`Certificate`](crate::Certificate) is an *upper* bound the
//! construction honors; the floors here are *lower* bounds no embedding
//! whatsoever can beat. `certified − floor` is then a rigorous
//! optimality gap, and a certificate strictly below a floor is an
//! internal error (somebody's arithmetic is wrong), which the
//! cross-check sweeps turn into a hard failure.
//!
//! Three arguments, all classical (see the lower-bound literature
//! surveyed in PAPERS.md — Havel–Morávek subgraph criterion, wirelength/
//! bisection arguments of the Rajan et al. line of work):
//!
//! * **Dilation (mesh):** `shape` is a subgraph of `Q_n` iff
//!   `Σ⌈log₂ ℓᵢ⌉ ≤ n` (Havel–Morávek). Failing that, dilation ≥ 2.
//! * **Dilation (torus):** an odd wraparound axis of length ≥ 3 is an odd
//!   cycle; the cube is bipartite, so some cycle edge must map to a walk
//!   of length ≥ 2. The mesh floor applies too (the torus contains its
//!   mesh as a spanning subgraph).
//! * **Congestion (cut averaging):** every guest edge's route crosses at
//!   least one of the `n` dimension cuts of `Q_n` (distinct endpoints
//!   differ in some bit), each cut has `2^{n−1}` host edges, so some cut
//!   carries `≥ |E|/n` routes and some host edge carries
//!   `≥ ⌈|E| / (n·2^{n−1})⌉`. This is the bisection-width bound applied
//!   to the cube's dimension cuts, valid for one-to-one embeddings
//!   (many-to-one routes can have length 0, so their floor is 0 — see
//!   [`manytoone_floors`]).
//! * **Load (pigeonhole):** `⌈|V| / 2ⁿ⌉` guest nodes must share some
//!   processor.

use cubemesh_topology::{Hypercube, Shape};

/// Lower bounds no embedding of a given guest into `Q_{host_dim}` can
/// beat. `0` means "no nontrivial floor known".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Floors {
    /// Host dimension the floors are stated against.
    pub host_dim: u32,
    /// Minimum achievable dilation.
    pub dilation: u32,
    /// Minimum achievable congestion.
    pub congestion: u32,
    /// Minimum achievable load-factor.
    pub load: u64,
}

/// The congestion floor from cut averaging: `⌈edges / (n·2^{n−1})⌉`,
/// and at least 1 whenever the guest has any edge (one-to-one maps give
/// every edge a route of length ≥ 1).
fn cut_average_congestion(edges: usize, host_dim: u32) -> u32 {
    if edges == 0 || host_dim == 0 {
        return u32::from(edges > 0);
    }
    if host_dim > Hypercube::MAX_DIM {
        // n·2^{n−1} beyond MAX_DIM dwarfs any admissible edge count
        // (< 2⁴⁸), so the average is below 1 and the floor is the
        // unconditional 1 — computed without overflowing the shift.
        return 1;
    }
    let host_edges = (host_dim as u64) << (host_dim - 1);
    u32::try_from((edges as u64).div_ceil(host_edges))
        .unwrap_or(u32::MAX)
        .max(1)
}

/// Floors for a one-to-one mesh embedding into `Q_{host_dim}`.
pub fn mesh_floors(shape: &Shape, host_dim: u32) -> Floors {
    Floors {
        host_dim,
        dilation: crate::certificate::dilation_floor(shape, host_dim),
        congestion: cut_average_congestion(shape.mesh_edges(), host_dim),
        load: load_floor(shape, host_dim),
    }
}

/// Floors for a one-to-one wraparound (torus) embedding into
/// `Q_{host_dim}`: the mesh floors (the torus contains its mesh) plus the
/// odd-cycle dilation argument, with the congestion floor recomputed over
/// the torus edge count.
pub fn torus_floors(shape: &Shape, host_dim: u32) -> Floors {
    let mesh = mesh_floors(shape, host_dim);
    let odd_axis = shape.dims().iter().any(|&l| l >= 3 && l % 2 == 1);
    Floors {
        host_dim,
        dilation: mesh.dilation.max(if odd_axis { 2 } else { 1 }),
        congestion: cut_average_congestion(shape.torus_edges(), host_dim),
        load: mesh.load,
    }
}

/// Floors for a many-to-one embedding into `Q_{host_dim}`: the load
/// pigeonhole is the whole story. Dilation and congestion have no
/// unconditional floor — an embedding may pile the entire guest onto one
/// processor (every route collapses to length 0) at the price of a huge
/// load-factor; the *conditional* floor "dilation ≥ 1 whenever the
/// certified load is below `|V|`" is asserted at certify time instead.
pub fn manytoone_floors(shape: &Shape, host_dim: u32) -> Floors {
    Floors {
        host_dim,
        dilation: 0,
        congestion: 0,
        load: load_floor(shape, host_dim),
    }
}

fn load_floor(shape: &Shape, host_dim: u32) -> u64 {
    if host_dim >= 63 {
        return 1;
    }
    (shape.nodes() as u64).div_ceil(1u64 << host_dim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_floor_tracks_subgraph_arithmetic() {
        let f = mesh_floors(&Shape::new(&[3, 5]), 4);
        assert_eq!(f.dilation, 2);
        assert_eq!(f.congestion, 1);
        assert_eq!(f.load, 1);
        assert_eq!(mesh_floors(&Shape::new(&[4, 8]), 5).dilation, 1);
    }

    #[test]
    fn odd_torus_axis_forces_dilation_two() {
        // 6x10: even axes — but its mesh already fails Havel–Morávek in
        // Q6, so the floor is 2 either way.
        assert_eq!(torus_floors(&Shape::new(&[6, 10]), 6).dilation, 2);
        // 4x8: even axes, Gray-minimal mesh — floor stays 1.
        assert_eq!(torus_floors(&Shape::new(&[4, 8]), 5).dilation, 1);
        // 9 ring: odd cycle in a bipartite host.
        assert_eq!(torus_floors(&Shape::new(&[9]), 4).dilation, 2);
        // Length-2 "wraparound" axes add no odd cycle.
        assert_eq!(torus_floors(&Shape::new(&[2, 4]), 3).dilation, 1);
    }

    #[test]
    fn cut_averaging_bites_only_on_dense_guests() {
        // 2x2 in Q2: 4 edges on 4 host edges — floor 1.
        assert_eq!(mesh_floors(&Shape::new(&[2, 2]), 2).congestion, 1);
        // A 16-node ring folded in Q2 would need 16/4 = 4 per edge; as a
        // sanity check of the arithmetic (not a real planner case):
        assert_eq!(cut_average_congestion(16, 2), 4);
        assert_eq!(cut_average_congestion(0, 5), 0);
    }

    #[test]
    fn load_floor_is_the_pigeonhole() {
        assert_eq!(manytoone_floors(&Shape::new(&[19, 19]), 5).load, 12);
        assert_eq!(mesh_floors(&Shape::new(&[4, 8]), 5).load, 1);
    }
}
