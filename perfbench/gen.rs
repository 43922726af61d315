//! Seeded input generation. Every input the program sees — request
//! lines, miss keys, embed shape lists — comes from here and depends on
//! the seed alone.

/// Largest axis of the census universe the served database covers.
pub const DB_MAX_AXIS: usize = 96;
/// Largest axis of the universe cold misses are drawn from.
pub const MISS_MAX_AXIS: usize = 128;
/// Shapes per `plan` request.
pub const BATCH: usize = 64;
/// Share of request shapes drawn from outside the database.
pub const MISS_RATE: f64 = 0.01;
/// Extent range of embed-pipeline shapes.
pub const EMBED_EXTENTS: (usize, usize) = (24, 128);

/// A mesh shape as three extents.
pub type Triple = [usize; 3];

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Derive an independent stream for one purpose of one seed.
pub fn stream(seed: u64, purpose: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ purpose.wrapping_mul(0xd1b5_4a32_d192_ed03));
    SplitMix64::new(mix.next_u64())
}

/// Sorted triples `a ≤ b ≤ c ≤ max_axis` with `c ≥ min_top`.
pub fn triples(max_axis: usize, min_top: usize) -> Vec<Triple> {
    let mut out = Vec::new();
    for a in 1..=max_axis {
        for b in a..=max_axis {
            for c in b.max(min_top)..=max_axis {
                out.push([a, b, c]);
            }
        }
    }
    out
}

/// The served database's universe: every triple up to [`DB_MAX_AXIS`].
pub fn db_keys() -> Vec<Triple> {
    triples(DB_MAX_AXIS, 1)
}

/// The cold-miss universe — triples up to [`MISS_MAX_AXIS`] outside the
/// database — in a seeded order. Each client consumes its own stride of
/// it, so every miss a run sends is a distinct, never-seen key.
pub fn miss_keys(seed: u64) -> Vec<Triple> {
    let mut keys = triples(MISS_MAX_AXIS, DB_MAX_AXIS + 1);
    stream(seed, 1).shuffle(&mut keys);
    keys
}

/// The request stream of one client: 99 % of shapes uniform over the
/// database keys, 1 % the client's next unused miss key.
pub struct Requests<'a> {
    rng: SplitMix64,
    hits: &'a [Triple],
    misses: &'a [Triple],
    next_miss: usize,
    stride: usize,
}

impl<'a> Requests<'a> {
    pub fn new(
        seed: u64,
        client: usize,
        clients: usize,
        hits: &'a [Triple],
        misses: &'a [Triple],
    ) -> Requests<'a> {
        Requests {
            rng: stream(seed, 2 + client as u64),
            hits,
            misses,
            next_miss: client,
            stride: clients,
        }
    }

    /// Fill `out` with the next request's shapes.
    pub fn next_batch(&mut self, out: &mut Vec<Triple>) {
        out.clear();
        for _ in 0..BATCH {
            if self.rng.unit() < MISS_RATE {
                // A run sends ~2.6e4 misses out of 2.06e5 keys; wrapping
                // only matters for runs far longer than any workload.
                out.push(self.misses[self.next_miss % self.misses.len()]);
                self.next_miss += self.stride;
            } else {
                out.push(self.hits[self.rng.below(self.hits.len())]);
            }
        }
    }
}

/// Render a `plan` request line, newline-terminated.
pub fn request_line(shapes: &[Triple]) -> String {
    let mut line = String::with_capacity(16 + shapes.len() * 12);
    line.push_str("{\"op\":\"plan\",\"shapes\":[");
    for (i, [a, b, c]) in shapes.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!("[{a},{b},{c}]"));
    }
    line.push_str("]}\n");
    line
}

/// Shapes in the embed-pipeline set.
pub const EMBED_SHAPES: usize = 96;
/// Seed of the one stratified draw the embed-pipeline set comes from.
const EMBED_DESIGN_SEED: u64 = 0x00c0_ffee_d1ce;

/// `n` shapes with extents uniform on [`EMBED_EXTENTS`], stratified per
/// axis (Latin hypercube): each axis takes one value from each of `n`
/// equal slices of the range, in a seeded order.
pub fn stratified_shapes(seed: u64, n: usize) -> Vec<Triple> {
    let mut rng = stream(seed, 100);
    let (lo, hi) = EMBED_EXTENTS;
    let span = (hi - lo + 1) as f64;
    let mut axes = [Vec::new(), Vec::new(), Vec::new()];
    for axis in &mut axes {
        let mut strata: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut strata);
        *axis = strata
            .into_iter()
            .map(|s| lo + ((s as f64 + rng.unit()) * span / n as f64) as usize)
            .collect();
    }
    (0..n)
        .map(|i| [axes[0][i], axes[1][i], axes[2][i]])
        .collect()
}

/// The embed-pipeline list: one fixed stratified set of
/// [`EMBED_SHAPES`] shapes in a seeded order, the largest first. Cost per
/// node differs tenfold between shapes of the set, with the plan the
/// planner finds, and peak memory follows the largest shape, so lists
/// drawn afresh per seed would make the figures depend on the draw more
/// than on the code. The largest shape runs first, into a fresh heap, so
/// the peak read after it is its footprint.
pub fn embed_shapes(seed: u64) -> Vec<Triple> {
    let mut shapes = stratified_shapes(EMBED_DESIGN_SEED, EMBED_SHAPES);
    stream(seed, 101).shuffle(&mut shapes);
    let largest = (0..shapes.len())
        .max_by_key(|&i| shapes[i].iter().product::<usize>())
        .unwrap_or(0);
    shapes.swap(0, largest);
    shapes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(seed: u64, n: usize) -> Vec<String> {
        let hits = db_keys();
        let misses = miss_keys(seed);
        let mut out = Vec::new();
        for client in 0..2 {
            let mut gen = Requests::new(seed, client, 2, &hits, &misses);
            let mut shapes = Vec::new();
            for _ in 0..n {
                gen.next_batch(&mut shapes);
                out.push(request_line(&shapes));
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_identical_request_lines() {
        assert_eq!(lines(7, 200), lines(7, 200));
    }

    #[test]
    fn different_seeds_give_different_request_lines() {
        let (a, b) = (lines(7, 200), lines(8, 200));
        assert_ne!(a, b);
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn universes_have_the_census_sizes() {
        // C(98,3) database keys; C(130,3) - C(98,3) misses beyond them.
        assert_eq!(db_keys().len(), 152_096);
        assert_eq!(miss_keys(1).len(), 357_760 - 152_096);
        assert!(miss_keys(1).iter().all(|k| k[2] > DB_MAX_AXIS));
    }

    #[test]
    fn clients_never_share_a_miss_key() {
        let hits = db_keys();
        let misses = miss_keys(3);
        let mut seen = std::collections::HashSet::new();
        let mut sent = 0;
        for client in 0..2 {
            let mut gen = Requests::new(3, client, 2, &hits, &misses);
            let mut shapes = Vec::new();
            for _ in 0..500 {
                gen.next_batch(&mut shapes);
                for s in shapes.iter().filter(|s| s[2] > DB_MAX_AXIS) {
                    sent += 1;
                    assert!(seen.insert(*s), "miss key {s:?} sent twice");
                }
            }
        }
        // 64,000 shapes at 1 %: about 640 misses.
        assert!((450..850).contains(&sent), "{sent} misses");
    }

    #[test]
    fn embed_list_is_one_set_in_a_seeded_order() {
        let canon = |mut v: Vec<Triple>| {
            v.sort_unstable();
            v
        };
        let (a, b) = (embed_shapes(5), embed_shapes(6));
        assert_eq!(a, embed_shapes(5));
        assert_ne!(a, b);
        assert_eq!(a.len(), EMBED_SHAPES);
        assert_eq!(a[0], b[0], "the largest shape leads every list");
        assert_eq!(canon(a), canon(b));
    }

    #[test]
    fn stratified_shapes_cover_the_range() {
        let a = stratified_shapes(5, 24);
        assert_eq!(a, stratified_shapes(5, 24));
        assert_ne!(a, stratified_shapes(6, 24));
        for axis in 0..3 {
            let mut v: Vec<usize> = a.iter().map(|s| s[axis]).collect();
            v.sort_unstable();
            assert!(v.iter().all(|&e| (24..=128).contains(&e)));
            // One value per slice of 105/24 extents.
            for (i, &e) in v.iter().enumerate() {
                let lo = 24.0 + i as f64 * 105.0 / 24.0;
                assert!((e as f64) >= lo.floor() && (e as f64) < lo + 105.0 / 24.0 + 1.0);
            }
        }
    }
}
