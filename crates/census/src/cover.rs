//! Fast existence mirror of the constructive planner.
//!
//! [`cubemesh_core::Planner`] builds full plan trees behind a `&mut` memo,
//! which is the right interface for embedding one mesh but the wrong one
//! for classifying 10⁸. This module re-states the planner's *existence*
//! logic as (a) a precomputed 2-D bitmap ([`Cover2`]) and (b) a memoized
//! 3-D recursion over an immutable context ([`Cover3`]), so censuses can
//! shard across pool workers (each worker owns a small 3-D memo; the 2-D
//! bitmap is shared read-only). A dedicated test cross-checks both against
//! the real planner.
//!
//! The direct-embedding set is a parameter, so the same machinery answers
//! both "what can *our* catalog build?" and "what could the paper's
//! `{3×5, 7×9, 11×11}` build?" (§3.3's 2-D claim).

use cubemesh_topology::cube_dim;
use std::collections::HashMap;

/// A direct-embedding entry for coverage purposes: sorted dims + host dim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverEntry {
    /// Ascending axis lengths.
    pub dims: Vec<usize>,
    /// Host cube dimension (minimal).
    pub host: u32,
}

/// The workspace catalog as coverage entries, split by rank.
pub fn workspace_catalog() -> (Vec<CoverEntry>, Vec<CoverEntry>) {
    let mut two = Vec::new();
    let mut three = Vec::new();
    for e in cubemesh_search::catalog_entries() {
        let entry = CoverEntry {
            dims: e.dims.to_vec(),
            host: e.host_dim,
        };
        match e.dims.len() {
            2 => two.push(entry),
            3 => three.push(entry),
            _ => {}
        }
    }
    (two, three)
}

/// The paper's §3.3 2-D direct set.
pub fn paper_2d_catalog() -> Vec<CoverEntry> {
    vec![
        CoverEntry {
            dims: vec![3, 5],
            host: 4,
        },
        CoverEntry {
            dims: vec![7, 9],
            host: 6,
        },
        CoverEntry {
            dims: vec![11, 11],
            host: 7,
        },
    ]
}

/// Precomputed 2-D constructive coverage for all `l1, l2 ≤ max`.
pub struct Cover2 {
    max: usize,
    /// Tri-state: 0 unknown, 1 covered, 2 not covered (canonical
    /// `l1 ≤ l2` index).
    table: Vec<u8>,
    catalog: Vec<CoverEntry>,
}

impl Cover2 {
    /// Build the table with the given direct set (see
    /// [`workspace_catalog`], [`paper_2d_catalog`]).
    pub fn build(max: usize, catalog: Vec<CoverEntry>) -> Self {
        let mut c = Cover2 {
            max,
            table: vec![0u8; max * max],
            catalog,
        };
        for a in 1..=max {
            for b in a..=max {
                c.eval(a, b);
            }
        }
        c
    }

    /// Is `l1 × l2` constructively coverable (minimal cube, dilation ≤ 2)?
    #[inline]
    pub fn covered(&self, l1: usize, l2: usize) -> bool {
        let (a, b) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        debug_assert!(b <= self.max);
        self.table[(a - 1) * self.max + (b - 1)] == 1
    }

    fn eval(&mut self, a: usize, b: usize) -> bool {
        debug_assert!(a <= b);
        let idx = (a - 1) * self.max + (b - 1);
        match self.table[idx] {
            1 => return true,
            2 => return false,
            _ => {}
        }
        let result = self.compute(a, b);
        self.table[idx] = if result { 1 } else { 2 };
        result
    }

    fn compute(&mut self, a: usize, b: usize) -> bool {
        let total = cube_dim((a * b) as u64);
        // Gray.
        if cube_dim(a as u64) + cube_dim(b as u64) == total {
            return true;
        }
        // Direct, exact or by extension into the same cube.
        for e in &self.catalog {
            if e.host == total && a <= e.dims[0] && b <= e.dims[1] {
                return true;
            }
        }
        // Peel powers of two.
        let (oa, ob) = (a >> a.trailing_zeros(), b >> b.trailing_zeros());
        let eps = a.trailing_zeros() + b.trailing_zeros();
        if eps > 0 && cube_dim((oa * ob) as u64) + eps == total && self.eval(oa.min(ob), oa.max(ob))
        {
            return true;
        }
        // Axis splits (both axes).
        for (keep, split) in [(a, b), (b, a)] {
            for lp in 2..split {
                let ls = split.div_ceil(lp);
                if cube_dim((keep * lp) as u64) + cube_dim(ls as u64) == total
                    && self.eval(keep.min(lp), keep.max(lp))
                {
                    return true;
                }
            }
        }
        false
    }
}

/// Memoized 3-D constructive coverage over a shared [`Cover2`].
pub struct Cover3<'a> {
    c2: &'a Cover2,
    catalog3: &'a [CoverEntry],
    memo: HashMap<(u32, u32, u32), bool>,
}

impl<'a> Cover3<'a> {
    /// New context (one per worker thread).
    pub fn new(c2: &'a Cover2, catalog3: &'a [CoverEntry]) -> Self {
        Cover3 {
            c2,
            catalog3,
            memo: HashMap::new(),
        }
    }

    /// Is `l1 × l2 × l3` constructively coverable?
    #[expect(
        clippy::cast_possible_truncation,
        reason = "sorted census extents are at most Shape::MAX_AXIS = 2^15, so each fits a u32 memo key"
    )]
    pub fn covered(&mut self, l1: usize, l2: usize, l3: usize) -> bool {
        let mut l = [l1, l2, l3];
        l.sort_unstable();
        // Rank reduction.
        if l[0] == 1 {
            if l[1] == 1 {
                return true; // rank ≤ 1: Gray is always minimal
            }
            return self.c2.covered(l[1], l[2]);
        }
        let key = (l[0] as u32, l[1] as u32, l[2] as u32);
        if let Some(&hit) = self.memo.get(&key) {
            return hit;
        }
        let result = self.compute(l);
        self.memo.insert(key, result);
        result
    }

    fn compute(&mut self, l: [usize; 3]) -> bool {
        let nodes = (l[0] * l[1] * l[2]) as u64;
        let total = cube_dim(nodes);
        // Gray.
        if l.iter().map(|&x| cube_dim(x as u64)).sum::<u32>() == total {
            return true;
        }
        // Direct (sorted dims), exact or extension.
        for e in self.catalog3 {
            if e.host == total && l[0] <= e.dims[0] && l[1] <= e.dims[1] && l[2] <= e.dims[2] {
                return true;
            }
        }
        // Peel powers of two.
        let o: Vec<usize> = l.iter().map(|&x| x >> x.trailing_zeros()).collect();
        let eps: u32 = l.iter().map(|&x| x.trailing_zeros()).sum();
        if eps > 0
            && cube_dim((o[0] * o[1] * o[2]) as u64) + eps == total
            && self.covered(o[0], o[1], o[2])
        {
            return true;
        }
        // Catalog ⊙ factor (3-D entries, any permutation).
        let catalog3 = self.catalog3;
        for e in catalog3 {
            for perm in PERMS3 {
                let d = [e.dims[perm[0]], e.dims[perm[1]], e.dims[perm[2]]];
                // Gray extension.
                let ext: u32 = (0..3).map(|i| cube_dim(l[i].div_ceil(d[i]) as u64)).sum();
                if e.host + ext == total {
                    return true;
                }
                // Exact quotient.
                if (0..3).all(|i| l[i].is_multiple_of(d[i])) {
                    let q = [l[0] / d[0], l[1] / d[1], l[2] / d[2]];
                    if e.host + cube_dim((q[0] * q[1] * q[2]) as u64) == total
                        && self.covered(q[0], q[1], q[2])
                    {
                        return true;
                    }
                }
            }
        }
        // Pair + Gray.
        for c in 0..3 {
            let a = l[(c + 1) % 3];
            let b = l[(c + 2) % 3];
            if cube_dim((a * b) as u64) + cube_dim(l[c] as u64) == total && self.c2.covered(a, b) {
                return true;
            }
        }
        // Axis splits, both pairings.
        for j in 0..3 {
            let a = l[(j + 1) % 3];
            let b = l[(j + 2) % 3];
            for (a, b) in [(a, b), (b, a)] {
                for lp in 2..l[j] {
                    let ls = l[j].div_ceil(lp);
                    if cube_dim((a * lp) as u64) + cube_dim((ls * b) as u64) == total
                        && self.c2.covered(a, lp)
                        && self.c2.covered(ls, b)
                    {
                        return true;
                    }
                }
            }
        }
        false
    }
}

const PERMS3: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

#[cfg(test)]
mod tests {
    use super::*;
    use cubemesh_core::Planner;
    use cubemesh_topology::Shape;

    #[test]
    fn cover2_agrees_with_planner() {
        let (two, _) = workspace_catalog();
        let c2 = Cover2::build(64, two);
        let mut planner = Planner::new();
        for a in 1..=64usize {
            for b in a..=64usize {
                if a * b > 512 {
                    continue;
                }
                assert_eq!(
                    c2.covered(a, b),
                    planner.covers(&Shape::new(&[a, b])),
                    "{}x{}",
                    a,
                    b
                );
            }
        }
    }

    #[test]
    fn cover3_agrees_with_planner() {
        let (two, three) = workspace_catalog();
        let c2 = Cover2::build(128, two);
        let mut c3 = Cover3::new(&c2, &three);
        let mut planner = Planner::new();
        for a in 1..=12usize {
            for b in a..=16usize {
                for c in b..=20usize {
                    assert_eq!(
                        c3.covered(a, b, c),
                        planner.covers(&Shape::new(&[a, b, c])),
                        "{}x{}x{}",
                        a,
                        b,
                        c
                    );
                }
            }
        }
    }

    #[test]
    fn paper_direct_set_misses_3x21() {
        let c2 = Cover2::build(64, paper_2d_catalog());
        assert!(!c2.covered(3, 21));
        assert!(c2.covered(3, 5));
        assert!(c2.covered(7, 9));
        // With the full workspace catalog 3x21 is direct.
        let (two, _) = workspace_catalog();
        let full = Cover2::build(64, two);
        assert!(full.covered(3, 21));
    }

    #[test]
    fn known_shapes() {
        let (two, three) = workspace_catalog();
        let c2 = Cover2::build(512, two.clone());
        let mut c3 = Cover3::new(&c2, &three);
        assert!(c3.covered(21, 9, 5));
        assert!(c3.covered(3, 3, 23));
        assert!(c3.covered(27, 3, 3));
        assert!(!c3.covered(5, 5, 5));
        assert!(!c3.covered(5, 7, 7));
    }
}
