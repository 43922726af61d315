//! Probing the §8 conjecture: most higher-dimensional meshes should
//! decompose into existing 2-/3-D dilation-2 pieces.

use cubemesh_core::Planner;
use cubemesh_topology::Shape;

/// Coverage of all k-D meshes with `ℓᵢ ≤ limit`, by the constructive
/// planner. Enumerates sorted tuples with permutation weights; intended
/// for modest `limit` (the planner's rank ≥ 4 search is exhaustive over
/// bipartitions).
///
/// # Panics
/// Panics if `k < 4`; lower ranks have dedicated censuses.
#[expect(
    clippy::cast_possible_truncation,
    reason = "k is a mesh rank, far below u32::MAX"
)]
pub fn higher_k_coverage(k: usize, limit: usize) -> (u64, u64) {
    assert!(k >= 4, "use the dedicated 3-D census below rank 4");
    let mut planner = Planner::new();
    let mut covered = 0u64;
    let mut total = 0u64;
    let mut dims = vec![1usize; k];
    loop {
        // Weight = multinomial permutations of the sorted tuple.
        let w = permutations_of(&dims);
        total += w;
        if planner.covers(&Shape::new(&dims)) {
            covered += w;
        }
        // Next sorted tuple (non-decreasing).
        let mut i = k;
        loop {
            if i == 0 {
                debug_assert_eq!(total, (limit as u64).pow(k as u32));
                return (covered, total);
            }
            i -= 1;
            if dims[i] < limit {
                dims[i] += 1;
                for j in i + 1..k {
                    dims[j] = dims[i];
                }
                break;
            }
        }
    }
}

/// Number of distinct permutations of a sorted tuple.
fn permutations_of(dims: &[usize]) -> u64 {
    let k = dims.len();
    let mut fact = vec![1u64; k + 1];
    for i in 1..=k {
        fact[i] = fact[i - 1] * i as u64;
    }
    let mut denom = 1u64;
    let mut run = 1usize;
    for i in 1..k {
        if dims[i] == dims[i - 1] {
            run += 1;
        } else {
            denom *= fact[run];
            run = 1;
        }
    }
    denom *= fact[run];
    fact[k] / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_weights() {
        assert_eq!(permutations_of(&[2, 2, 2, 2]), 1);
        assert_eq!(permutations_of(&[1, 2, 3, 4]), 24);
        assert_eq!(permutations_of(&[1, 1, 2, 2]), 6);
        assert_eq!(permutations_of(&[1, 2, 2, 2]), 4);
    }

    #[test]
    fn four_d_small_domain_mostly_covered() {
        let (covered, total) = higher_k_coverage(4, 8);
        assert_eq!(total, 4096);
        let pct = 100.0 * covered as f64 / total as f64;
        // The conjecture says "a majority"; our constructive planner
        // should confirm it on this domain.
        assert!(pct > 50.0, "only {:.1}% covered", pct);
    }
}
