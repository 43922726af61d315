//! Expansion, dilation, congestion, and their averages (Definitions 1–3),
//! plus the load-factor of §7 for many-to-one maps.
//!
//! Congestion is exact and never materializes a per-host-edge array the
//! size of the cube. When the host's edge-index space fits in `u32` (any
//! cube up to `Q_26`), steps take the *bucketed counting* path: each
//! route shard computes its dilation max and partitions its dense step
//! indices into contiguous buckets of `2^15` indices (a 128 KiB count
//! window — L2-resident), then each bucket is counted through the reused
//! window with an on-the-fly max. Both phases are embarrassingly
//! parallel (shards, then buckets) and every value is an exact integer,
//! so the sharded result is bitwise identical to the sequential one.
//! When the route arena is all dilation-1 pairs (`RouteSet::all_pairs`,
//! the shape every Gray-code embedding produces), the gather reads the
//! node arena directly as `(u, v)` lanes, skipping the offsets table.
//!
//! Larger cubes (`space > u32::MAX`) fall back to the sort-and-merge
//! path: per-shard sorted `u64` step lists, k-way merged while counting
//! runs. [`metrics_par`] and [`metrics_seq`] are property-tested for
//! exact agreement on both paths.

use crate::builders::PAR_MIN_NODES;
use crate::map::Embedding;
use cubemesh_obs as obs;
use cubemesh_topology::Hypercube;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// All figures of merit of an embedding.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metrics {
    /// Host cube dimension `n`.
    pub host_dim: u32,
    /// `|V(G)|`.
    pub guest_nodes: usize,
    /// `|E(G)|`.
    pub guest_edge_count: usize,
    /// `|V(H)| / |V(G)|`.
    pub expansion: f64,
    /// `max_e |φ(e)|`.
    pub dilation: u32,
    /// `Σ_e |φ(e)| / |E(G)|`.
    pub avg_dilation: f64,
    /// `max_{e'∈E(H)} cong(e')`.
    pub congestion: u32,
    /// `Σ_{e'∈E(H)} cong(e') / |E(H)| = Σ_e |φ(e)| / |E(H)|`.
    pub avg_congestion: f64,
}

impl Metrics {
    /// `true` if the embedding is into the minimal cube.
    pub fn is_minimal_expansion(&self) -> bool {
        let minimal = cubemesh_topology::cube_dim(self.guest_nodes as u64);
        self.host_dim == minimal
    }
}

/// Compute all metrics of an embedding. Dispatches to the sharded path when
/// more than one pool thread is available and the route arena is large
/// enough to amortize the worker hand-off; both paths return identical
/// values.
pub fn metrics(e: &Embedding) -> Metrics {
    if cubemesh_pool::effective_threads() > 1 && e.routes().total_length() >= PAR_MIN_NODES as u64 {
        metrics_par(e)
    } else {
        metrics_seq(e)
    }
}

/// Single-threaded metrics: one pass gathering steps, one sort, one run
/// count.
pub fn metrics_seq(e: &Embedding) -> Metrics {
    let _span = obs::span!("metrics.seq");
    dil_cong_dispatch(e, 1)
}

/// Sharded metrics: contiguous route chunks per worker, per-worker sorts,
/// k-way run-counting merge. Always uses at least two shards so the merge
/// path is exercised (and testable) even on a single-core host; agrees
/// exactly with [`metrics_seq`].
pub fn metrics_par(e: &Embedding) -> Metrics {
    let _span = obs::span!("metrics.par");
    let parts = cubemesh_pool::effective_threads().max(2);
    obs::trace::gauge("metrics.shards", parts as u64);
    dil_cong_dispatch(e, parts)
}

fn dil_cong_dispatch(e: &Embedding, parts: usize) -> Metrics {
    let host = e.host();
    let space = host.edge_index_space();
    // Any cube with edge_index_space() <= u32::MAX (dim <= 26) takes the
    // bucketed u32 counting path — half the memory traffic of u64 and no
    // sort; giant cubes fall back to sort-and-merge over u64 steps, and
    // so do tiny route sets, where the count window's zero-fill would
    // dominate the handful of steps being counted.
    let bucketed = space <= u32::MAX as usize && e.routes().total_length() >= SMALL_SORT_MAX;
    let (dilation, congestion) = if bucketed {
        dil_cong_bucketed(e, parts)
    } else {
        dil_cong(e, parts, |i| i as u64)
    };
    finish_metrics(e, dilation, congestion)
}

/// Bucket granularity for the counting path: `2^15` u32 slots = 128 KiB
/// per count window, sized to stay L2-resident while counting.
const BUCKET_BITS: u32 = 15;
const BUCKET_WIDTH: usize = 1 << BUCKET_BITS;

/// Route arenas shorter than this sort faster than they bucket (the
/// count window's zero-fill alone outweighs sorting a few thousand
/// steps), so they keep the u64 sort-and-merge path.
const SMALL_SORT_MAX: u64 = 1 << 16;

/// One route shard's gathered steps: dilation max plus step indices
/// partitioned into bucket-contiguous segments (`offs` holds the prefix
/// sums; bucket `b` is `steps[offs[b]..offs[b + 1]]`). Steps are stored
/// as *in-bucket* offsets — the low `BUCKET_BITS` of the edge index,
/// which is all the count phase needs once the bucket is fixed — so the
/// scatter writes and the two count-phase reads move half the bytes a
/// full `u32` index would.
struct ShardSteps {
    dil: u32,
    offs: Vec<u32>,
    steps: Vec<u16>,
}

/// Gather one contiguous route range: dilation max plus step indices,
/// with the per-bucket histogram folded into the same pass; then one
/// counting scatter into bucket-contiguous order.
#[expect(
    clippy::cast_possible_truncation,
    reason = "host edge indices are below n * 2^n with n <= 27 for every metered host (< 2^32); a bucket-local step is below BUCKET_WIDTH = 2^16; a shard holds fewer than 2^32 steps"
)]
fn gather_shard(e: &Embedding, lo: usize, hi: usize, nbuckets: usize) -> ShardSteps {
    let host = e.host();
    let routes = e.routes();
    let mut dil = 0u32;
    let mut raw: Vec<u32>;
    if routes.all_pairs() {
        // Every route is a 2-node path: read the arena as (u, v) lanes —
        // no offsets indirection, dilation is 1 wherever routes exist.
        // Writing through a pre-sized iterator keeps the loop free of
        // capacity checks and memory-dependency chains.
        dil = u32::from(hi > lo);
        let lanes = &routes.pair_lanes()[lo * 2..hi * 2];
        raw = vec![0u32; lanes.len() / 2];
        for (o, pair) in raw.iter_mut().zip(lanes.chunks_exact(2)) {
            let bit = (pair[0] ^ pair[1]).trailing_zeros();
            *o = host.edge_index(pair[0], bit) as u32;
        }
    } else {
        raw = Vec::with_capacity(routes.span_length(lo, hi));
        for i in lo..hi {
            dil = dil.max(routes.dilation(i));
            for w in routes.route(i).windows(2) {
                let bit = (w[0] ^ w[1]).trailing_zeros();
                raw.push(host.edge_index(w[0], bit) as u32);
            }
        }
    }
    const LOW_MASK: u32 = (BUCKET_WIDTH - 1) as u32;
    if nbuckets <= 1 {
        let total = raw.len() as u32;
        return ShardSteps {
            dil,
            offs: vec![0, total],
            steps: raw.iter().map(|&s| s as u16).collect(),
        };
    }
    let mut offs = vec![0u32; nbuckets + 1];
    bucket_histogram(&raw, &mut offs);
    for b in 1..=nbuckets {
        offs[b] += offs[b - 1];
    }
    let mut cursor = offs.clone();
    let mut steps = vec![0u16; raw.len()];
    for &s in &raw {
        let b = (s >> BUCKET_BITS) as usize;
        steps[cursor[b] as usize] = (s & LOW_MASK) as u16;
        cursor[b] += 1;
    }
    ShardSteps { dil, offs, steps }
}

/// Per-bucket step counts into `offs[bucket + 1]` (the shifted layout the
/// prefix sum in [`gather_shard`] expects). Four interleaved
/// sub-histograms: consecutive steps usually land in the same bucket, and
/// a single counter array would serialize every increment on
/// store-to-load forwarding.
fn bucket_histogram(steps: &[u32], offs: &mut [u32]) {
    let nb = offs.len() - 1;
    let mut h1 = vec![0u32; nb];
    let mut h2 = vec![0u32; nb];
    let mut h3 = vec![0u32; nb];
    let mut lanes = steps.chunks_exact(4);
    for q in &mut lanes {
        offs[(q[0] >> BUCKET_BITS) as usize + 1] += 1;
        h1[(q[1] >> BUCKET_BITS) as usize] += 1;
        h2[(q[2] >> BUCKET_BITS) as usize] += 1;
        h3[(q[3] >> BUCKET_BITS) as usize] += 1;
    }
    for &s in lanes.remainder() {
        offs[(s >> BUCKET_BITS) as usize + 1] += 1;
    }
    for b in 0..nb {
        offs[b + 1] += h1[b] + h2[b] + h3[b];
    }
}

/// Count a run of buckets across all shards through one reused
/// L2-resident window, tracking the max on the fly. Each slot carries the
/// bucket index that last wrote it in its high half; a slot whose tag is
/// stale reads as zero, so no reset pass between buckets is needed and
/// every step is touched exactly once. (A fresh window starts all-zero,
/// which is exactly "tag 0, count 0" — correct for the first bucket too.)
#[expect(
    clippy::cast_possible_truncation,
    reason = "the low 32 bits of a window slot are a per-bucket count, below 2^32 by the tag layout"
)]
fn bucket_group_max(shards: &[ShardSteps], blo: usize, bhi: usize, space: usize) -> u32 {
    let mut window = vec![0u64; BUCKET_WIDTH.min(space.max(1))];
    let mut best = 0u32;
    for b in blo..bhi {
        let tag = (b as u64) << 32;
        for sh in shards {
            let seg = &sh.steps[sh.offs[b] as usize..sh.offs[b + 1] as usize];
            for &s in seg {
                let k = s as usize;
                let v = window[k];
                let c = (if v >> 32 == b as u64 { v } else { tag }) + 1;
                window[k] = c;
                best = best.max(c as u32);
            }
        }
    }
    best
}

/// Dilation + congestion via bucketed counting (see module docs): route
/// shards gather and partition in parallel, buckets count in parallel,
/// and every merge is an integer max — the sharded result is bitwise
/// identical to `parts == 1` by construction.
fn dil_cong_bucketed(e: &Embedding, parts: usize) -> (u32, u32) {
    let space = e.host().edge_index_space();
    let nbuckets = space.max(1).div_ceil(BUCKET_WIDTH);
    let n = e.routes().len();
    let shards: Vec<ShardSteps> = if parts <= 1 || n < 2 {
        vec![gather_shard(e, 0, n, nbuckets)]
    } else {
        let chunk = n.div_ceil(parts);
        let bounds: Vec<(usize, usize)> = (0..n)
            .step_by(chunk)
            .map(|lo| (lo, (lo + chunk).min(n)))
            .collect();
        cubemesh_pool::run_tasks(bounds.len(), |i| {
            let (lo, hi) = bounds[i];
            gather_shard(e, lo, hi, nbuckets)
        })
    };
    let dil = shards.iter().map(|s| s.dil).max().unwrap_or(0);
    let shards = &shards;
    let congestion = if parts <= 1 || nbuckets < 2 {
        bucket_group_max(shards, 0, nbuckets, space)
    } else {
        // One reused window per bucket group; groups oversplit so the
        // pool can rebalance unevenly-loaded bucket ranges.
        let group = nbuckets.div_ceil(parts * cubemesh_pool::OVERSPLIT).max(1);
        let groups: Vec<(usize, usize)> = (0..nbuckets)
            .step_by(group)
            .map(|blo| (blo, (blo + group).min(nbuckets)))
            .collect();
        cubemesh_pool::run_tasks(groups.len(), |i| {
            let (blo, bhi) = groups[i];
            bucket_group_max(shards, blo, bhi, space)
        })
        .into_iter()
        .fold(0u32, u32::max)
    };
    (dil, congestion)
}

fn finish_metrics(e: &Embedding, dilation: u32, congestion: u32) -> Metrics {
    let host = e.host();
    let guest_edge_count = e.edge_count();
    let total_len = e.routes().total_length();
    let host_edges = host.edge_count();
    Metrics {
        host_dim: host.dim(),
        guest_nodes: e.guest_nodes(),
        guest_edge_count,
        expansion: e.expansion(),
        dilation,
        avg_dilation: if guest_edge_count == 0 {
            0.0
        } else {
            total_len as f64 / guest_edge_count as f64
        },
        congestion,
        avg_congestion: if host_edges == 0 {
            0.0
        } else {
            total_len as f64 / host_edges as f64
        },
    }
}

/// Maximum dilation and congestion over the routes, sharded `parts` ways.
/// `conv` narrows the dense host-edge index to the counting type.
fn dil_cong<T>(e: &Embedding, parts: usize, conv: impl Fn(usize) -> T + Send + Sync) -> (u32, u32)
where
    T: Ord + Copy + Send,
{
    let host = e.host();
    let routes = e.routes();
    let n = routes.len();

    let gather = |lo: usize, hi: usize| -> (u32, Vec<T>) {
        let mut dil = 0u32;
        let mut steps: Vec<T> = Vec::with_capacity(routes.span_length(lo, hi));
        for i in lo..hi {
            dil = dil.max(routes.dilation(i));
            for w in routes.route(i).windows(2) {
                let bit = (w[0] ^ w[1]).trailing_zeros();
                steps.push(conv(host.edge_index(w[0], bit)));
            }
        }
        steps.sort_unstable();
        (dil, steps)
    };

    if parts <= 1 || n < 2 {
        let (dil, steps) = gather(0, n);
        return (dil, max_run_sorted(&steps));
    }

    let chunk = n.div_ceil(parts);
    let bounds: Vec<(usize, usize)> = (0..n)
        .step_by(chunk)
        .map(|lo| (lo, (lo + chunk).min(n)))
        .collect();
    let shards = cubemesh_pool::run_tasks(bounds.len(), |i| {
        let (lo, hi) = bounds[i];
        gather(lo, hi)
    });
    let dil = shards.iter().map(|s| s.0).max().unwrap_or(0);
    let lists: Vec<Vec<T>> = shards.into_iter().map(|s| s.1).collect();
    (dil, max_run_merged(&lists))
}

/// Longest run in an already-sorted slice.
fn max_run_sorted<T: Ord + Copy>(items: &[T]) -> u32 {
    let mut best = 0u32;
    let mut run = 0u32;
    let mut prev = None;
    for &x in items {
        if prev == Some(x) {
            run += 1;
        } else {
            run = 1;
            prev = Some(x);
        }
        best = best.max(run);
    }
    best
}

/// Longest run across sorted lists, k-way merged with a min-heap. The merge
/// visits elements in exactly the order a global sort would, so the result
/// equals `max_run_sorted` of the concatenated-and-sorted lists.
fn max_run_merged<T: Ord + Copy>(lists: &[Vec<T>]) -> u32 {
    let mut heap: BinaryHeap<Reverse<(T, usize)>> = lists
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.is_empty())
        .map(|(i, l)| Reverse((l[0], i)))
        .collect();
    let mut pos = vec![1usize; lists.len()];
    let mut best = 0u32;
    let mut run = 0u32;
    let mut prev = None;
    while let Some(Reverse((x, i))) = heap.pop() {
        if prev == Some(x) {
            run += 1;
        } else {
            run = 1;
            prev = Some(x);
        }
        best = best.max(run);
        let p = pos[i];
        if p < lists[i].len() {
            heap.push(Reverse((lists[i][p], i)));
            pos[i] = p + 1;
        }
    }
    best
}

/// Load-factor (Definition 5): the maximum number of guest nodes mapped to
/// one host node. For one-to-one maps this is 1 (or 0 for an empty map).
pub fn load_factor(map: &[u64], host: Hypercube) -> u32 {
    debug_assert!(map.iter().all(|&a| host.contains(a)));
    let _ = host;
    let mut sorted: Vec<u64> = map.to_vec();
    sorted.sort_unstable();
    max_run_sorted(&sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::RouteSet;

    fn ring4_in_q2() -> Embedding {
        // 4-ring onto all of Q2 via the cyclic Gray code.
        let map = vec![0b00, 0b01, 0b11, 0b10];
        let edges = vec![(0u32, 1u32), (1, 2), (2, 3), (0, 3)];
        let mut rs = RouteSet::new();
        rs.push(&[0b00, 0b01]);
        rs.push(&[0b01, 0b11]);
        rs.push(&[0b11, 0b10]);
        rs.push(&[0b00, 0b10]);
        Embedding::new(4, edges, Hypercube::new(2), map, rs)
    }

    #[test]
    fn perfect_embedding_metrics() {
        let e = ring4_in_q2();
        e.verify().unwrap();
        let m = e.metrics();
        assert_eq!(m.dilation, 1);
        assert_eq!(m.congestion, 1);
        assert_eq!(m.expansion, 1.0);
        assert_eq!(m.avg_dilation, 1.0);
        assert_eq!(m.avg_congestion, 1.0);
        assert!(m.is_minimal_expansion());
    }

    #[test]
    fn dilated_route_counts() {
        // Path 0-1 mapped to opposite corners of Q2 with a length-2 route.
        let mut rs = RouteSet::new();
        rs.push(&[0b00, 0b01, 0b11]);
        let e = Embedding::new(2, vec![(0, 1)], Hypercube::new(2), vec![0b00, 0b11], rs);
        e.verify().unwrap();
        let m = e.metrics();
        assert_eq!(m.dilation, 2);
        assert_eq!(m.avg_dilation, 2.0);
        assert_eq!(m.congestion, 1);
        assert_eq!(m.expansion, 2.0);
        assert!(!m.is_minimal_expansion());
    }

    #[test]
    fn congestion_counts_overlaps() {
        // Two guest edges routed across the same cube edge 00-01.
        let mut rs = RouteSet::new();
        rs.push(&[0b00, 0b01]);
        rs.push(&[0b10, 0b00, 0b01, 0b11]);
        let e = Embedding::new(
            4,
            vec![(0, 1), (2, 3)],
            Hypercube::new(2),
            vec![0b00, 0b01, 0b10, 0b11],
            rs,
        );
        e.verify().unwrap();
        let m = e.metrics();
        assert_eq!(m.congestion, 2);
        assert_eq!(m.dilation, 3);
    }

    #[test]
    fn zero_edge_guest() {
        let e = Embedding::new(1, vec![], Hypercube::new(0), vec![0], RouteSet::new());
        for m in [metrics_seq(&e), metrics_par(&e)] {
            assert_eq!(m.dilation, 0);
            assert_eq!(m.congestion, 0);
            assert_eq!(m.avg_dilation, 0.0);
            assert_eq!(m.avg_congestion, 0.0);
        }
    }

    #[test]
    fn par_agrees_with_seq_on_small_fixture() {
        let e = ring4_in_q2();
        assert_eq!(metrics_seq(&e), metrics_par(&e));
    }

    #[test]
    fn merged_run_equals_global_sort() {
        let lists = vec![vec![1u32, 3, 3, 9], vec![], vec![2, 3, 3, 3], vec![3]];
        let mut flat: Vec<u32> = lists.iter().flatten().copied().collect();
        flat.sort_unstable();
        assert_eq!(max_run_merged(&lists), max_run_sorted(&flat));
        assert_eq!(max_run_merged(&lists), 6); // six 3s across the lists
        assert_eq!(max_run_merged::<u32>(&[]), 0);
    }

    #[test]
    fn load_factor_counts_max_multiplicity() {
        let host = Hypercube::new(2);
        assert_eq!(load_factor(&[0, 1, 2, 3], host), 1);
        assert_eq!(load_factor(&[0, 1, 1, 3], host), 2);
        assert_eq!(load_factor(&[2, 2, 2, 2], host), 4);
        assert_eq!(load_factor(&[], host), 0);
    }
}
