//! Figure 1: the fraction of k-D meshes for which the Gray code is
//! already minimal.
//!
//! Theorem 2 of the paper: asymptotically the fraction is
//! `f_k(½) = 2^k (1 − ½ Σ_{i=0}^{k−1} lnⁱ2 / i!)`, derived from the
//! mantissas `aᵢ = ℓᵢ/⌈ℓᵢ⌉₂` being asymptotically uniform on `(½, 1]`
//! and Gray being minimal iff `Π aᵢ > ½`.

use cubemesh_obs::Progress;
use cubemesh_topology::cube_dim;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Closed form `f_k(½)` (Theorem 2).
pub fn gray_fraction_closed_form(k: u32) -> f64 {
    let ln2 = std::f64::consts::LN_2;
    let mut sum = 0.0;
    let mut term = 1.0; // lnⁱ2 / i!
    for i in 0..k {
        if i > 0 {
            term *= ln2 / i as f64;
        }
        sum += term;
    }
    2f64.powi(k as i32) * (1.0 - 0.5 * sum)
}

/// Monte-Carlo estimate of the same quantity under the paper's uniform
/// mantissa model.
pub fn gray_fraction_monte_carlo(k: u32, samples: u64, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hits = 0u64;
    for _ in 0..samples {
        let mut prod = 1.0f64;
        for _ in 0..k {
            // a ∈ (½, 1]
            prod *= 1.0 - 0.5 * rng.random::<f64>();
        }
        if prod > 0.5 {
            hits += 1;
        }
    }
    hits as f64 / samples as f64
}

/// Exact finite-range fraction: the share of `ℓ ∈ [1, 2ⁿ]^k` with
/// `Σ ⌈log₂ ℓᵢ⌉ = ⌈log₂ Π ℓᵢ⌉`. Returns `None` for `k > 3`; exact
/// enumeration is only implemented for the ranks the paper's Figure 2
/// plots, and larger `k` should use the Monte-Carlo estimate.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the exact census runs n <= 16 (2^16 task indices); u64 to usize is lossless on the 64-bit targets Shape::MAX_NODES = 2^46 requires"
)]
pub fn gray_fraction_exact(k: u32, n: u32) -> Option<f64> {
    let limit = 1u64 << n;
    match k {
        1 => Some(1.0), // one axis is always minimal
        2 => {
            let hits: u64 = cubemesh_pool::run_tasks(limit as usize, |i| {
                let a = i as u64 + 1;
                (1..=limit)
                    .filter(|&b| cube_dim(a) + cube_dim(b) == cube_dim(a * b))
                    .count() as u64
            })
            .into_iter()
            .sum();
            Some(hits as f64 / (limit * limit) as f64)
        }
        3 => {
            let progress = Progress::new("gray-fraction", limit);
            let hits: u64 = cubemesh_pool::run_tasks(limit as usize, |i| {
                let a = i as u64 + 1;
                let mut h = 0u64;
                for b in 1..=limit {
                    let ab = cube_dim(a) + cube_dim(b);
                    for c in 1..=limit {
                        if ab + cube_dim(c) == cube_dim(a * b * c) {
                            h += 1;
                        }
                    }
                }
                progress.tick(1);
                h
            })
            .into_iter()
            .sum();
            progress.finish();
            Some(hits as f64 / (limit * limit * limit) as f64)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        // §3.1: f₂(½) = 2(1 − ln2) ≈ 0.61, f₃(½) ≈ 0.27.
        assert!(
            (gray_fraction_closed_form(2) - 2.0 * (1.0 - std::f64::consts::LN_2)).abs() < 1e-12
        );
        assert!((gray_fraction_closed_form(2) - 0.6137).abs() < 5e-4);
        // 4(1 − ln2 − ln²2/2) = 0.26650…, which the paper rounds to 0.27.
        assert!((gray_fraction_closed_form(3) - 0.26650).abs() < 5e-4);
        assert!((gray_fraction_closed_form(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_matches_closed_form() {
        for k in [2u32, 3, 4] {
            let mc = gray_fraction_monte_carlo(k, 200_000, 42);
            let cf = gray_fraction_closed_form(k);
            assert!(
                (mc - cf).abs() < 0.01,
                "k={}: mc {} vs closed {}",
                k,
                mc,
                cf
            );
        }
    }

    #[test]
    fn exact_converges_to_asymptotic() {
        // The exact finite fraction approaches f_k(½) from above as n
        // grows (discrete boundary effects make finite domains slightly
        // friendlier — the paper likewise reports 28.5% at n = 9 against
        // the 26.7% asymptote for k = 3).
        let cf = gray_fraction_closed_form(2);
        let f5 = gray_fraction_exact(2, 5).unwrap();
        let f8 = gray_fraction_exact(2, 8).unwrap();
        assert!(f8 >= cf && f8 - cf < 0.05, "{} vs {}", f8, cf);
        assert!((f8 - cf).abs() <= (f5 - cf).abs() + 1e-9, "not converging");
        // k = 3 converges slowly (the paper's 28.5% at n = 9 is still
        // 2 points above the asymptote); check monotone descent instead.
        let cf3 = gray_fraction_closed_form(3);
        let g5 = gray_fraction_exact(3, 5).unwrap();
        let g6 = gray_fraction_exact(3, 6).unwrap();
        let g7 = gray_fraction_exact(3, 7).unwrap();
        assert!(
            g5 > g6 && g6 > g7 && g7 > cf3,
            "{} {} {} vs {}",
            g5,
            g6,
            g7,
            cf3
        );
        assert!(g7 - cf3 < 0.07, "{} vs {}", g7, cf3);
    }

    #[test]
    fn fraction_decreases_with_k() {
        let vals: Vec<f64> = (1..=10).map(gray_fraction_closed_form).collect();
        for w in vals.windows(2) {
            assert!(w[1] < w[0]);
        }
        assert!(vals[9] < 0.01, "k=10 fraction tiny: {}", vals[9]);
    }
}
