//! Synthetic trace generators.
//!
//! Every static `workload.rs` pattern has a dynamic counterpart here:
//! instead of all messages materializing at cycle 0, phases arrive on a
//! period, bursts switch on and off, and open-loop sources inject at a
//! target rate — the arrival processes real hypercube networks see.
//! Everything is deterministic: the bursty and rate generators draw from
//! the workspace's splitmix PRNG, seeded explicitly.

use crate::trace::{RouteSpec, Trace, TraceEvent};
use cubemesh_netsim::SplitMix64;
use cubemesh_topology::{Mesh, Shape};

/// Periodic halo exchange: `phases` repetitions of the full stencil
/// exchange (every guest edge, both directions), one every `period`
/// cycles. `period = 0` collapses all phases onto cycle 0 — the batch
/// special case.
#[expect(
    clippy::cast_possible_truncation,
    reason = "phases and edge ids index materialized traces, which hold fewer than 2^32 edges"
)]
pub fn stencil_trace(edges: usize, flits: u32, period: u64, phases: u64) -> Trace {
    let mut events = Vec::with_capacity(edges * 2 * phases as usize);
    for p in 0..phases {
        let at = p * period;
        for edge in 0..edges as u32 {
            for reverse in [false, true] {
                events.push(TraceEvent {
                    at,
                    spec: RouteSpec::Edge { edge, reverse },
                    flits,
                });
            }
        }
    }
    Trace::from_events(events)
}

/// Periodic axis shifts: phase `p` sends one message along every positive
/// edge of axis `p mod rank` (the skew steps of a SUMMA-like algorithm),
/// one phase every `period` cycles.
#[expect(
    clippy::cast_possible_truncation,
    reason = "mesh edge ids are u32 in a trace; the rank modulus is below the rank"
)]
pub fn shift_trace(shape: &Shape, flits: u32, period: u64, phases: u64) -> Trace {
    let mesh = Mesh::new(shape.clone());
    // Edge ids per axis, in the canonical enumeration order.
    let mut per_axis: Vec<Vec<u32>> = vec![Vec::new(); shape.rank()];
    for (i, e) in mesh.edges().enumerate() {
        per_axis[e.axis].push(i as u32);
    }
    let mut events = Vec::new();
    for p in 0..phases {
        let at = p * period;
        for &edge in &per_axis[(p % shape.rank() as u64) as usize] {
            events.push(TraceEvent {
                at,
                spec: RouteSpec::Edge {
                    edge,
                    reverse: false,
                },
                flits,
            });
        }
    }
    Trace::from_events(events)
}

/// On/off bursty sources: every guest node alternates ON bursts (one
/// message every `gap + 1` cycles to a uniformly random other node) and
/// OFF silences. Burst and silence lengths are uniform in
/// `[1, 2·mean_on]` and `[1, 2·mean_off]`, drawn from a per-node splitmix
/// stream derived from `seed`, so the trace is deterministic and
/// insensitive to node iteration order.
pub fn bursty_trace(
    nodes: usize,
    flits: u32,
    horizon: u64,
    mean_on: u64,
    mean_off: u64,
    gap: u64,
    seed: u64,
) -> Trace {
    let mut events = Vec::new();
    let node_ids = u32::try_from(nodes).unwrap_or(u32::MAX);
    for src in 0..node_ids {
        let mut rng = SplitMix64::new(seed ^ (src as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let mut t = 0u64;
        while t < horizon {
            let on = 1 + rng.below(2 * mean_on.max(1));
            let burst_end = (t + on).min(horizon);
            while t < burst_end {
                let dst = other_node(&mut rng, nodes, src);
                events.push(TraceEvent {
                    at: t,
                    spec: RouteSpec::Pair { src, dst },
                    flits,
                });
                t += gap + 1;
            }
            t = burst_end + 1 + rng.below(2 * mean_off.max(1));
        }
    }
    Trace::from_events(events)
}

/// Open-loop Bernoulli sources for rate sweeps: each cycle below
/// `horizon`, each node injects a `flits`-flit message to a uniformly
/// random other node with probability `rate_num / rate_den`. The offered
/// load is `flits · rate` flits per node-cycle, independent of how the
/// network keeps up — which is what makes the sweep locate the saturation
/// knee.
pub fn rate_trace(
    nodes: usize,
    flits: u32,
    rate_num: u64,
    rate_den: u64,
    horizon: u64,
    seed: u64,
) -> Trace {
    let mut rng = SplitMix64::new(seed);
    let den = rate_den.max(1);
    let mut events = Vec::new();
    let node_ids = u32::try_from(nodes).unwrap_or(u32::MAX);
    for at in 0..horizon {
        for src in 0..node_ids {
            if rng.below(den) < rate_num {
                let dst = other_node(&mut rng, nodes, src);
                events.push(TraceEvent {
                    at,
                    spec: RouteSpec::Pair { src, dst },
                    flits,
                });
            }
        }
    }
    Trace::from_events(events)
}

/// A uniformly random node other than `src` (or `src` itself in the
/// degenerate 1-node guest, where no other node exists).
#[expect(
    clippy::cast_possible_truncation,
    reason = "the draw is below nodes - 1, and trace node ids are u32"
)]
fn other_node(rng: &mut SplitMix64, nodes: usize, src: u32) -> u32 {
    if nodes < 2 {
        return src;
    }
    let draw = rng.below(nodes as u64 - 1) as u32;
    if draw >= src {
        draw + 1
    } else {
        draw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_trace_counts_and_period() {
        let t = stencil_trace(10, 8, 100, 3);
        assert_eq!(t.len(), 10 * 2 * 3);
        assert_eq!(t.horizon(), 201);
        // Phase boundaries: exactly 20 events at each multiple of 100.
        for phase_at in [0u64, 100, 200] {
            assert_eq!(t.events().iter().filter(|e| e.at == phase_at).count(), 20);
        }
    }

    #[test]
    fn stencil_trace_period_zero_is_the_batch_case() {
        let t = stencil_trace(5, 4, 0, 1);
        assert!(t.events().iter().all(|e| e.at == 0));
    }

    #[test]
    fn shift_trace_cycles_axes() {
        let shape = Shape::new(&[3, 5]);
        let t = shift_trace(&shape, 4, 50, 2);
        // Phase 0: axis 0 has 2*5 edges; phase 1: axis 1 has 3*4 edges.
        assert_eq!(t.events().iter().filter(|e| e.at == 0).count(), 10);
        assert_eq!(t.events().iter().filter(|e| e.at == 50).count(), 12);
    }

    #[test]
    fn bursty_trace_is_deterministic_and_in_range() {
        let a = bursty_trace(12, 4, 200, 8, 16, 1, 99);
        let b = bursty_trace(12, 4, 200, 8, 16, 1, 99);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.horizon() <= 200);
        for e in a.events() {
            if let RouteSpec::Pair { src, dst } = e.spec {
                assert!(src < 12 && dst < 12 && src != dst);
            }
        }
    }

    #[test]
    fn rate_trace_hits_the_target_rate_roughly() {
        let nodes = 64;
        let horizon = 256;
        let t = rate_trace(nodes, 4, 1, 8, horizon, 7);
        let expected = nodes as f64 * horizon as f64 / 8.0;
        let got = t.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.25,
            "got {got}, expected ~{expected}"
        );
        let sparser = rate_trace(nodes, 4, 1, 64, horizon, 7);
        assert!(sparser.len() < t.len());
    }
}
