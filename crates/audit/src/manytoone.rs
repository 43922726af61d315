//! Static certificates for many-to-one plans — Theorem 4, Lemma 5 and
//! Corollaries 4–5, §7 of the paper.
//!
//! Two composition laws, both derivable without construction:
//!
//! * **Contraction (Lemma 5):** contracting a base embedding by per-axis
//!   factors `ℓ′ᵢ` multiplies the load by exactly `Πℓ′ᵢ` (blocks are
//!   full), keeps the base dilation (block-internal edges collapse to
//!   zero-length routes), and scales congestion by at most the largest
//!   co-factor product `maxᵢ Πⱼ≠ᵢ ℓ′ⱼ` (axis-`i` host edges are reused
//!   once per co-block).
//! * **Folding:** dropping one address bit identifies two subcubes —
//!   load and congestion at most double per bit, dilation never grows
//!   (routes over the dropped dimension collapse).
//!
//! [`certify_fold`] validates a [`FoldPlan`] cover against the Corollary
//! 5 conditions and chains gray (1, 1, load 1) → contract → restrict
//! (metrics only shrink) → fold, so a corrupted plan is rejected with a
//! precise [`AuditError`] instead of a panic deep inside construction.

use crate::certificate::{AuditError, Certificate};
use cubemesh_manytoone::{optimal_load_factor, FoldPlan};
use cubemesh_topology::{ceil_pow2, Shape};

/// Lemma 5 / Corollary 4: certify the contraction of a certified base
/// embedding by per-axis `factors`. `base_shape` is the base guest; the
/// contracted guest is `ℓᵢ·ℓ′ᵢ` per axis.
pub fn certify_contract(base_shape: &Shape, base: &Certificate, factors: &[usize]) -> Certificate {
    let k = base_shape.rank();
    debug_assert_eq!(factors.len(), k);
    let load_mult: u64 = factors.iter().map(|&f| f as u64).product();
    let co_factor: u64 = (0..k)
        .map(|i| {
            factors
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &f)| f as u64)
                .product::<u64>()
        })
        .max()
        .unwrap_or(1);
    let big_nodes = (base_shape.nodes() as u64).saturating_mul(load_mult);
    let load = base.load_factor * load_mult;
    let congestion = (base.congestion_bound as u64).saturating_mul(co_factor);
    Certificate {
        host_dim: base.host_dim,
        dilation_bound: base.dilation_bound,
        congestion_bound: u32::try_from(congestion).unwrap_or(u32::MAX),
        expansion: (base.host_dim as f64).exp2() / big_nodes as f64,
        minimal: load
            == optimal_load_factor(
                usize::try_from(big_nodes).unwrap_or(usize::MAX),
                base.host_dim,
            ),
        leaves: base.leaves,
        load_factor: load,
    }
}

/// Corollary 5: statically certify a [`FoldPlan`] cover for `shape`,
/// checking every cover condition, and derive (dilation 1, congestion,
/// load) from the gray → contract → restrict → fold chain.
pub fn certify_fold(shape: &Shape, plan: &FoldPlan) -> Result<Certificate, AuditError> {
    let k = shape.rank();
    if plan.ns.len() != k || plan.lprime.len() != k {
        return Err(AuditError::FoldRankMismatch {
            shape: shape.clone(),
            ns: plan.ns.len(),
            lprime: plan.lprime.len(),
        });
    }
    let n = plan.host_dim;
    let total_n: u32 = plan.ns.iter().sum();
    if plan.ns.iter().any(|&ni| ni > 63) || total_n > 63 || n > 63 {
        return Err(AuditError::FoldExpansionMismatch {
            shape: shape.clone(),
            covered: u64::MAX,
        });
    }
    if total_n < n {
        return Err(AuditError::FoldBitsTooFew {
            shape: shape.clone(),
            total: total_n,
            needed: n,
        });
    }
    let mut covered: u128 = 1;
    for i in 0..k {
        if plan.lprime[i] == 0 || (plan.lprime[i] as u128) << plan.ns[i] < shape.len(i) as u128 {
            return Err(AuditError::FoldCoverTooSmall {
                shape: shape.clone(),
                axis: i,
            });
        }
        covered = covered.saturating_mul((plan.lprime[i] as u128) << plan.ns[i]);
    }
    let covered = u64::try_from(covered).ok();
    if covered.is_none_or(|c| ceil_pow2(c) != ceil_pow2(shape.nodes() as u64)) {
        return Err(AuditError::FoldExpansionMismatch {
            shape: shape.clone(),
            covered: covered.unwrap_or(u64::MAX),
        });
    }

    // Gray base: dilation 1, congestion 1, load 1. Contract by ℓ′:
    // congestion × max co-factor. Restrict: metrics only shrink. Fold by
    // (Σnᵢ − n) bits: congestion and load double per bit.
    let lprod: u64 = plan.lprime.iter().map(|&f| f as u64).product();
    let co_factor: u64 = (0..k)
        .map(|i| {
            plan.lprime
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &f)| f as u64)
                .product::<u64>()
        })
        .max()
        .unwrap_or(1);
    let folds = total_n - n;
    let load = lprod.checked_shl(folds).unwrap_or(u64::MAX);
    let congestion = co_factor
        .checked_shl(folds)
        .and_then(|c| u32::try_from(c).ok())
        .unwrap_or(u32::MAX);
    let floor = optimal_load_factor(shape.nodes(), n);
    if load < floor {
        return Err(AuditError::LoadBelowFloor {
            shape: shape.clone(),
            claimed: load,
            floor,
        });
    }
    Ok(Certificate {
        host_dim: n,
        dilation_bound: 1,
        congestion_bound: congestion.max(1),
        expansion: (n as f64).exp2() / shape.nodes() as f64,
        minimal: load == floor,
        leaves: 1,
        load_factor: load,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemesh_manytoone::{build_corollary5, plan_corollary5};

    #[test]
    fn paper_19x19_certificate_matches_the_build() {
        let shape = Shape::new(&[19, 19]);
        let plan = plan_corollary5(&shape, 5).expect("19x19 cover");
        let cert = certify_fold(&shape, &plan).expect("certifies");
        assert_eq!(cert.host_dim, 5);
        assert_eq!(cert.dilation_bound, 1);
        assert_eq!(cert.load_factor, 15, "paper's load");
        let emb = build_corollary5(&shape, &plan);
        let m = emb.metrics();
        assert!(m.dilation <= cert.dilation_bound);
        assert!(m.congestion <= cert.congestion_bound);
        let lf = cubemesh_embedding::load_factor(emb.map(), emb.host());
        assert!(lf as u64 <= cert.load_factor);
    }

    #[test]
    fn contract_law_composes() {
        // Gray 4x8 base (Q5, d=c=1, load 1) contracted by (3, 2).
        let base_shape = Shape::new(&[4, 8]);
        let base = Certificate {
            host_dim: 5,
            dilation_bound: 1,
            congestion_bound: 1,
            expansion: 1.0,
            minimal: true,
            leaves: 1,
            load_factor: 1,
        };
        let c = certify_contract(&base_shape, &base, &[3, 2]);
        assert_eq!(c.load_factor, 6);
        assert_eq!(c.dilation_bound, 1);
        assert_eq!(c.congestion_bound, 3); // max co-factor
        assert!(c.minimal); // 192/32 = 6 exactly
    }

    #[test]
    fn corrupted_fold_plans_are_rejected() {
        let shape = Shape::new(&[19, 19]);
        let good = plan_corollary5(&shape, 5).expect("cover");

        let mut bad = good.clone();
        bad.lprime[0] = 1; // no longer covers axis 0
        assert!(matches!(
            certify_fold(&shape, &bad),
            Err(AuditError::FoldCoverTooSmall { axis: 0, .. })
        ));

        let mut bad = good.clone();
        bad.ns = vec![0, 0];
        assert!(matches!(
            certify_fold(&shape, &bad),
            Err(AuditError::FoldBitsTooFew { .. })
        ));

        let mut bad = good.clone();
        bad.ns.push(1);
        assert!(matches!(
            certify_fold(&shape, &bad),
            Err(AuditError::FoldRankMismatch { .. })
        ));

        let mut bad = good.clone();
        bad.lprime[0] *= 4; // overshoots the power-of-two target
        assert!(matches!(
            certify_fold(&shape, &bad),
            Err(AuditError::FoldExpansionMismatch { .. })
        ));

        let mut bad = good;
        bad.ns[0] = 1000; // absurd shift must not panic
        assert!(certify_fold(&shape, &bad).is_err());
    }
}
