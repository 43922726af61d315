//! Core metric primitives: sharded counters and log2 histograms.
//!
//! audit: relaxed-domain(stat counters): sharded monotonic counters and
//! histogram buckets, aggregated only after workers join.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of counter shards. Power of two so the thread index wraps with
/// a mask; 8 is enough to keep a handful of pool workers off each
/// other's cache lines without bloating every counter.
const SHARDS: usize = 8;

/// Pad each shard to its own cache line to prevent false sharing.
#[repr(align(64))]
struct Shard(AtomicU64);

thread_local! {
    /// This thread's shard index, assigned round-robin on first use.
    static SHARD_IDX: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1)
    };
}

/// A monotonic event counter, sharded across cache lines so concurrent
/// pool workers increment mostly-disjoint atomics. Reads merge shards.
pub struct Counter {
    shards: [Shard; SHARDS],
}

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter {
            shards: [
                Shard(AtomicU64::new(0)),
                Shard(AtomicU64::new(0)),
                Shard(AtomicU64::new(0)),
                Shard(AtomicU64::new(0)),
                Shard(AtomicU64::new(0)),
                Shard(AtomicU64::new(0)),
                Shard(AtomicU64::new(0)),
                Shard(AtomicU64::new(0)),
            ],
        }
    }

    /// Add one. No-op while stats are disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. No-op while stats are disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        SHARD_IDX.with(|&i| self.shards[i].0.fetch_add(n, Ordering::Relaxed));
    }

    /// Merge-on-snapshot: the sum over all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Zero every shard (test/bench support).
    pub fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// Histogram buckets: bucket 0 holds the value 0, bucket `b > 0` holds
/// values `v` with `floor(log2 v) == b - 1`, i.e. `[2^(b-1), 2^b)`.
pub const HIST_BUCKETS: usize = 65;

/// Inclusive-exclusive bounds of bucket `b` (`lo..hi`); bucket 0 is `0..1`.
pub fn bucket_bounds(b: usize) -> (u64, u64) {
    if b == 0 {
        (0, 1)
    } else {
        (
            1u64 << (b - 1),
            u64::try_from(1u128 << b).unwrap_or(u64::MAX),
        )
    }
}

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// A lock-free log2-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, congestion levels, queue depths, ...). Tracks exact
/// count, sum, min and max alongside the bucket array.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        // `[AtomicU64::new(0); N]` needs Copy; build via const block instead.
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. No-op while stats are disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples of `v` in one batch — what callers
    /// that tally locally in a hot loop use to flush.
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 || !crate::enabled() {
            return;
        }
        self.buckets[bucket_of(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v * n, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Consistent-enough point-in-time copy (relaxed loads; exact once
    /// writers have quiesced, e.g. after a parallel region joins).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Clear all samples (test/bench support).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Owned point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_bounds`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wrapping beyond `u64::MAX`).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound (exclusive) of the bucket containing the q-quantile,
    /// computed by walking bucket counts. `q` in `[0, 1]`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "q is in [0, 1], so the rank is at most the u64 count"
    )]
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The bucket's exclusive upper edge, clamped by the true max.
                return (bucket_bounds(b).1 - 1).min(self.max);
            }
        }
        self.max
    }

    /// Index of the highest non-empty bucket (None when empty).
    pub fn last_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        let _g = crate::testutil::guard();
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!(bucket_of(lo), b, "lo of bucket {b}");
            if hi > lo + 1 && hi - 1 > lo {
                assert_eq!(bucket_of(hi - 1), b, "hi-1 of bucket {b}");
            }
        }
    }

    #[test]
    fn counter_merges_shards() {
        let _g = crate::testutil::guard();
        crate::set_enabled(true);
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        c.reset();
        assert_eq!(c.get(), 0);
        crate::set_enabled(false);
    }

    #[test]
    fn histogram_stats() {
        let _g = crate::testutil::guard();
        crate::set_enabled(true);
        let h = Histogram::new();
        for v in [0u64, 1, 1, 5, 9, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 116);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 100);
        assert_eq!(s.buckets[0], 1); // the 0
        assert_eq!(s.buckets[1], 2); // the 1s
        assert_eq!(s.buckets[3], 1); // 5 in [4,8)
        assert_eq!(s.buckets[4], 1); // 9 in [8,16)
        assert_eq!(s.buckets[7], 1); // 100 in [64,128)
        assert!((s.mean() - 116.0 / 6.0).abs() < 1e-9);
        h.reset();
        assert_eq!(h.snapshot().count, 0);
        assert_eq!(h.snapshot().min, 0);
        crate::set_enabled(false);
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = crate::testutil::guard();
        crate::set_enabled(false);
        let c = Counter::new();
        let h = Histogram::new();
        c.inc();
        h.record(7);
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
    }
}
