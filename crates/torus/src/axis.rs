//! Per-axis ring codes through copies of a mesh axis.
//!
//! A wraparound axis of length `ℓ` is laid out as a ring visiting `2` or
//! `4` copies ("submeshes") of a mesh axis of length `m = ⌈ℓ/2⌉` or
//! `⌈ℓ/4⌉`, with copies alternating direction (the reflection of Lemma 3's
//! proof) so every copy transition flips a single submesh bit. When `ℓ` is
//! not an exact multiple, base-ring positions are *removed* and the ring
//! closes over "logical" bridges (the dashed edges of the paper's Figures
//! 3 and 5), routed as direct shortest paths.
//!
//! Where to remove matters: a bridge's dilation is the Hamming distance
//! between its endpoint addresses, which depends on the inner embedding.
//! The `*_adaptive` constructors take the inner embedding's measured
//! fiber-max costs and place the removals where bridges are cheapest —
//! this is how the Lemma 4 `max(d, 2)` bound is attained in cases where a
//! fixed removal rule would pay `d + 1`.

/// One host-level step of a ring transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Traverse the inner-mesh edge between adjacent axis coordinates
    /// `from` and `to` (`|from − to| = 1`) — dilation = that edge's inner
    /// dilation.
    M2 { from: usize, to: usize },
    /// Flip submesh bits from code `from` to code `to`
    /// (`Hamming(from, to) = 1`) — dilation 1.
    C { from: u32, to: u32 },
    /// Bridge a removal gap by a direct shortest path from
    /// `(c_from, w_from)` to `(c_to, w_to)` — dilation =
    /// `Hamming(c_from, c_to) + Hamming(φ(w_from·), φ(w_to·))` per fiber.
    Jump {
        w_from: usize,
        w_to: usize,
        c_from: u32,
        c_to: u32,
    },
}

/// A ring code for one wraparound axis.
#[derive(Clone, Debug)]
pub struct AxisCode {
    /// Wraparound axis length `ℓ`.
    pub len: usize,
    /// Inner mesh axis length (`⌈ℓ/2⌉` or `⌈ℓ/4⌉`).
    pub inner_len: usize,
    /// Number of submesh bits (1 = halving, 2 = quartering).
    pub cbits: u32,
    /// `pos[p] = (submesh code, inner coordinate)` for ring position `p`.
    pub pos: Vec<(u32, usize)>,
    /// `trans[p]` = steps from position `p` to position `(p+1) % len`.
    pub trans: Vec<Vec<Step>>,
}

impl AxisCode {
    /// Worst-case dilation of this axis' transitions given the inner
    /// embedding dilation `d` (counting a jump's inner part as `d` per
    /// unit of axis distance — the pessimistic default;
    /// [`Self::dilation_bound_with`] uses measured costs).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "flat axis distances are at most Shape::MAX_AXIS = 2^15"
    )]
    pub fn dilation_bound(&self, d: u32) -> u32 {
        self.dilation_bound_with(&|w1: usize, w2: usize| w1.abs_diff(w2) as u32 * d)
    }

    /// Worst-case dilation given the inner embedding's measured
    /// fiber-maximum Hamming distance `cost(w1, w2)` between axis
    /// coordinates.
    pub fn dilation_bound_with(&self, cost: &dyn Fn(usize, usize) -> u32) -> u32 {
        self.trans
            .iter()
            .map(|steps| {
                steps
                    .iter()
                    .map(|s| match *s {
                        Step::M2 { from, to } => cost(from, to),
                        Step::C { .. } => 1,
                        Step::Jump {
                            w_from,
                            w_to,
                            c_from,
                            c_to,
                        } => (c_from ^ c_to).count_ones() + cost(w_from, w_to),
                    })
                    .sum()
            })
            .max()
            .unwrap_or(0)
    }
}

/// The base ring (before removals): positions through all copies.
struct Base {
    /// Total base positions (`2m` or `4m`).
    len: usize,
    /// `(code, inner coordinate)` per base position.
    pos: Vec<(u32, usize)>,
}

impl Base {
    fn half(m: usize) -> Base {
        let mut pos = Vec::with_capacity(2 * m);
        for w in 0..m {
            pos.push((0, w));
        }
        for w in (0..m).rev() {
            pos.push((1, w));
        }
        Base { len: 2 * m, pos }
    }

    /// Copies along the 2-bit cycle `01 → 11 → 10 → 00`, alternating
    /// direction, so consecutive copies meet at a shared coordinate.
    fn quarter(m: usize) -> Base {
        const CODES: [u32; 4] = [0b01, 0b11, 0b10, 0b00];
        let mut pos = Vec::with_capacity(4 * m);
        for (t, &c) in CODES.iter().enumerate() {
            if t % 2 == 0 {
                for w in 0..m {
                    pos.push((c, w));
                }
            } else {
                for w in (0..m).rev() {
                    pos.push((c, w));
                }
            }
        }
        Base { len: 4 * m, pos }
    }

    /// The step between base-adjacent positions `p` and `p+1 (mod len)`.
    fn step(&self, p: usize) -> Step {
        let (c1, w1) = self.pos[p];
        let (c2, w2) = self.pos[(p + 1) % self.len];
        if c1 == c2 {
            Step::M2 { from: w1, to: w2 }
        } else {
            debug_assert_eq!(w1, w2);
            Step::C { from: c1, to: c2 }
        }
    }

    /// The bridge step jumping from kept position `from` directly to kept
    /// position `to`.
    fn bridge(&self, from: usize, to: usize) -> Step {
        let (c1, w1) = self.pos[from];
        let (c2, w2) = self.pos[to];
        Step::Jump {
            w_from: w1,
            w_to: w2,
            c_from: c1,
            c_to: c2,
        }
    }

    /// Bridge dilation if positions `from..=to` exclusive interior were
    /// removed, under the given inner cost.
    fn bridge_cost(&self, from: usize, to: usize, cost: &dyn Fn(usize, usize) -> u32) -> u32 {
        let (c1, w1) = self.pos[from];
        let (c2, w2) = self.pos[to];
        (c1 ^ c2).count_ones() + cost(w1, w2)
    }

    /// Assemble the axis code from a removal set.
    fn assemble(&self, len: usize, m: usize, cbits: u32, removals: &[usize]) -> AxisCode {
        let kept: Vec<usize> = (0..self.len).filter(|p| !removals.contains(p)).collect();
        assert_eq!(kept.len(), len, "removals must leave exactly ℓ positions");
        let pos: Vec<(u32, usize)> = kept.iter().map(|&p| self.pos[p]).collect();
        let mut trans = Vec::with_capacity(len);
        if len == 1 {
            trans.push(vec![]);
        } else {
            for i in 0..len {
                let from = kept[i];
                let to = kept[(i + 1) % len];
                if (from + 1) % self.len == to {
                    trans.push(vec![self.step(from)]);
                } else {
                    trans.push(vec![self.bridge(from, to)]);
                }
            }
        }
        AxisCode {
            len,
            inner_len: m,
            cbits,
            pos,
            trans,
        }
    }
}

/// Uniform inner-cost model: distance `|Δw|` times `d`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "flat axis distances are at most Shape::MAX_AXIS = 2^15"
)]
fn flat_cost(d: u32) -> impl Fn(usize, usize) -> u32 {
    move |a: usize, b: usize| a.abs_diff(b) as u32 * d
}

/// The halving code (Lemma 3) with the paper's fixed removal (the node
/// adjacent to the wrap seam). Bridges cost `d + 1` for odd `ℓ`.
pub fn axis_half(len: usize) -> AxisCode {
    axis_half_adaptive(len, &flat_cost(1))
}

/// The halving code with removal placement optimized against the measured
/// inner costs.
///
/// # Panics
/// Panics if `len` is 0.
pub fn axis_half_adaptive(len: usize, cost: &dyn Fn(usize, usize) -> u32) -> AxisCode {
    assert!(len >= 1);
    let m = len.div_ceil(2);
    let base = Base::half(m);
    let r = base.len - len;
    debug_assert!(r <= 1);
    let removals = best_removals(&base, r, cost);
    base.assemble(len, m, 1, &removals)
}

/// The quartering code (Lemma 4) with default removal placement.
pub fn axis_quarter(len: usize) -> AxisCode {
    axis_quarter_adaptive(len, &flat_cost(1))
}

/// The quartering code with removal placement optimized against the
/// measured inner costs — this is what attains Lemma 4's `max(d, 2)`
/// bound when any placement can.
///
/// # Panics
/// Panics if `len` is 0.
pub fn axis_quarter_adaptive(len: usize, cost: &dyn Fn(usize, usize) -> u32) -> AxisCode {
    assert!(len >= 1);
    let m = len.div_ceil(4);
    let base = Base::quarter(m);
    let r = base.len - len;
    debug_assert!(r <= 3);
    let removals = best_removals(&base, r, cost);
    base.assemble(len, m, 2, &removals)
}

/// Choose `r ∈ 0..=3` removals minimizing the worst bridge dilation.
///
/// Candidates: single positions (`r = 1`), adjacent pairs (`r = 2`), and
/// for `r = 3` either a consecutive triple or the independent best pair +
/// best single (kept apart so their bridges do not interact). A request
/// for more than 3 removals (outside the quartering invariant) falls back
/// to a consecutive run starting at position 0.
fn best_removals(base: &Base, r: usize, cost: &dyn Fn(usize, usize) -> u32) -> Vec<usize> {
    let n = base.len;
    let pred = |p: usize| (p + n - 1) % n;
    let succ = |p: usize| (p + 1) % n;

    let single_cost = |p: usize| base.bridge_cost(pred(p), succ(p), cost);
    let pair_cost = |p: usize| base.bridge_cost(pred(p), succ(succ(p)), cost);
    let triple_cost = |p: usize| base.bridge_cost(pred(p), succ(succ(succ(p))), cost);

    match r {
        0 => vec![],
        1 => {
            let best = (0..n).min_by_key(|&p| single_cost(p)).unwrap_or(0);
            vec![best]
        }
        2 => {
            let best = (0..n).min_by_key(|&p| pair_cost(p)).unwrap_or(0);
            vec![best, succ(best)]
        }
        3 => {
            // Option A: consecutive triple.
            let t = (0..n).min_by_key(|&p| triple_cost(p)).unwrap_or(0);
            let t_cost = triple_cost(t);
            // Option B: best pair + best non-interacting single.
            let p = (0..n).min_by_key(|&q| pair_cost(q)).unwrap_or(0);
            let forbidden: Vec<usize> =
                vec![pred(p), p, succ(p), succ(succ(p)), succ(succ(succ(p)))];
            let s = (0..n)
                .filter(|q| !forbidden.contains(q))
                .min_by_key(|&q| single_cost(q));
            match s {
                Some(s) if pair_cost(p).max(single_cost(s)) < t_cost => {
                    let mut v = vec![p, succ(p), s];
                    v.sort_unstable();
                    v
                }
                _ => vec![t, succ(t), succ(succ(t))],
            }
        }
        _ => (0..r).collect(),
    }
}

/// Sound static dilation bound for one wraparound axis of length `len`
/// handled by `rule` (1 = halving, 2 = quartering), given a certified
/// inner-embedding dilation `d` — derived *without* constructing anything.
///
/// The bound covers whatever removal placement
/// [`axis_half_adaptive`]/[`axis_quarter_adaptive`] end up choosing,
/// because [`best_removals`] minimizes bridge cost over a candidate set
/// that always contains the placements this arithmetic accounts for:
///
/// * no removals (`ℓ` an exact multiple): every transition is one inner
///   mesh edge (`≤ d`) or one submesh-bit flip (`= 1`) — Lemma 3 /
///   Lemma 4 exact cases, bound `max(d, 1)`;
/// * one removal (odd halving, `ℓ ≡ 3 (mod 4)` quartering): a removal
///   adjacent to a copy seam bridges with one bit flip plus one inner
///   edge — Corollary 3's odd-extent penalty, bound `d + 1` (for
///   quartering with inner length 1 the bridge spans two code bits:
///   bound `2`);
/// * two removals (`ℓ ≡ 2 (mod 4)` quartering): the seam-straddling pair
///   bridges on a single code-bit flip, bound `max(d, 1)`;
/// * three removals (`ℓ ≡ 1 (mod 4)` quartering): pair-at-seam plus a
///   seam-adjacent single, bound `d + 1`.
///
/// `ℓ = 1` keeps a single ring position and has no transitions at all.
pub fn static_axis_dilation(len: usize, rule: u8, d: u32) -> u32 {
    if len == 1 {
        return 0;
    }
    let copies = 2 * rule as usize;
    let m = len.div_ceil(copies);
    let removals = copies * m - len;
    match (rule, removals) {
        (_, 0) | (2, 2) => d.max(1),
        (2, 1) if m == 1 => 2,
        _ => d + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_code(code: &AxisCode) {
        // Positions are distinct (code, w) pairs within range.
        let mut seen = std::collections::HashSet::new();
        for &(c, w) in &code.pos {
            assert!(c < (1 << code.cbits));
            assert!(w < code.inner_len);
            assert!(
                seen.insert((c, w)),
                "duplicate position in len {}",
                code.len
            );
        }
        // Transitions connect consecutive positions.
        if code.len == 1 {
            return;
        }
        for p in 0..code.len {
            let (mut c, mut w) = code.pos[p];
            for s in &code.trans[p] {
                match *s {
                    Step::M2 { from, to } => {
                        assert_eq!(w, from, "len {} pos {}", code.len, p);
                        assert_eq!(from.abs_diff(to), 1);
                        w = to;
                    }
                    Step::C { from, to } => {
                        assert_eq!(c, from, "len {} pos {}", code.len, p);
                        assert_eq!((from ^ to).count_ones(), 1);
                        c = to;
                    }
                    Step::Jump {
                        w_from,
                        w_to,
                        c_from,
                        c_to,
                    } => {
                        assert_eq!((c, w), (c_from, w_from));
                        c = c_to;
                        w = w_to;
                    }
                }
            }
            let (ec, ew) = code.pos[(p + 1) % code.len];
            assert_eq!(
                (c, w),
                (ec, ew),
                "len {} transition {} wrong end",
                code.len,
                p
            );
        }
    }

    #[test]
    fn half_codes_are_consistent() {
        for len in 1..=30 {
            let code = axis_half(len);
            assert_eq!(code.pos.len(), len);
            check_code(&code);
        }
    }

    #[test]
    fn quarter_codes_are_consistent() {
        for len in 1..=40 {
            let code = axis_quarter(len);
            assert_eq!(code.pos.len(), len);
            check_code(&code);
        }
    }

    #[test]
    fn half_even_axes_have_no_logical_edges() {
        // Even ℓ: every transition is one mesh edge or one seam. (ℓ = 2
        // has no mesh edges at all, hence bound 1 regardless of d.)
        for len in (2..=20).step_by(2) {
            let code = axis_half(len);
            assert!(code.dilation_bound(1) <= 1, "len {}", len);
            assert!(code.dilation_bound(2) <= 2, "len {}", len);
            if len >= 4 {
                assert_eq!(code.dilation_bound(2), 2, "len {}", len);
            }
        }
    }

    #[test]
    fn half_odd_axes_pay_one_extra() {
        for len in (3..=21).step_by(2) {
            let code = axis_half(len);
            assert!(code.dilation_bound(1) <= 2, "len {}", len);
            assert!(code.dilation_bound(2) <= 3, "len {}", len);
        }
    }

    #[test]
    fn quarter_multiples_of_four_stay_tight() {
        // ℓ = 4 lives entirely in the 2-bit cycle (no mesh edges).
        for len in (4..=40).step_by(4) {
            let code = axis_quarter(len);
            assert!(code.dilation_bound(1) <= 1, "len {}", len);
            assert!(code.dilation_bound(2) <= 2, "len {}", len);
            if len >= 8 {
                assert_eq!(code.dilation_bound(2), 2, "len {}", len);
            }
        }
    }

    #[test]
    fn quarter_residue_two_bridges_on_one_cube_edge() {
        // ℓ ≡ 2 (mod 4): the removed pair straddles a seam, so the bridge
        // is a single submesh-bit flip (the Lemma 4 max(d,2) bound holds).
        for len in [6usize, 10, 14, 18, 22] {
            let code = axis_quarter(len);
            assert!(
                code.dilation_bound(2) <= 2,
                "len {} bound {}",
                len,
                code.dilation_bound(2)
            );
        }
    }

    #[test]
    fn quarter_odd_residues_with_flat_costs_pay_d_plus_one() {
        // Under the flat cost model (every inner edge costs d) the best a
        // single removal can do is d + 1; the adaptive constructor with
        // *measured* costs beats this whenever a cheap fiber exists.
        for len in [7usize, 9, 11, 13] {
            let code = axis_quarter(len);
            assert!(code.dilation_bound(1) <= 2, "len {}", len);
            assert!(code.dilation_bound(2) <= 3, "len {}", len);
        }
    }

    #[test]
    fn adaptive_placement_uses_cheap_edges() {
        // Inner axis of length 3 where only the (1,2) edge is cheap:
        // adaptive single-removal should land its bridge there.
        let cost = |a: usize, b: usize| -> u32 {
            match (a.min(b), a.max(b)) {
                (x, y) if x == y => 0,
                (1, 2) => 1,
                (0, 1) => 2,
                (0, 2) => 4,
                _ => 9,
            }
        };
        let code = axis_quarter_adaptive(11, &cost); // 11 = 4·3 − 1
        check_code(&code);
        assert!(
            code.dilation_bound_with(&cost) <= 2,
            "adaptive bound {}",
            code.dilation_bound_with(&cost)
        );
    }

    #[test]
    fn tiny_quarter_cases() {
        // ℓ ≤ 4 lives inside the 2-bit cycle (inner mesh length 1).
        for len in 1..=4 {
            let code = axis_quarter(len);
            check_code(&code);
            assert!(code.dilation_bound(2) <= 2, "len {}", len);
        }
    }

    #[test]
    fn static_axis_dilation_dominates_adaptive_bounds() {
        // The audit-facing closed form must upper-bound whatever the
        // adaptive constructors achieve, for every length and rule, under
        // any cost with unit steps ≤ d (flat_cost is the worst such).
        for d in 1..=3u32 {
            let cost = flat_cost(d);
            for len in 1..=40 {
                let h = axis_half_adaptive(len, &cost);
                assert!(
                    h.dilation_bound_with(&cost) <= static_axis_dilation(len, 1, d),
                    "half len {} d {}: {} > {}",
                    len,
                    d,
                    h.dilation_bound_with(&cost),
                    static_axis_dilation(len, 1, d)
                );
                let q = axis_quarter_adaptive(len, &cost);
                assert!(
                    q.dilation_bound_with(&cost) <= static_axis_dilation(len, 2, d),
                    "quarter len {} d {}: {} > {}",
                    len,
                    d,
                    q.dilation_bound_with(&cost),
                    static_axis_dilation(len, 2, d)
                );
            }
        }
    }

    #[test]
    fn adaptive_consistency_under_random_costs() {
        // Whatever the cost surface, adaptive codes remain structurally
        // valid rings.
        let cost = |a: usize, b: usize| u32::try_from((a * 7 + b * 13) % 3).unwrap() + 1;
        for len in 1..=33 {
            let h = axis_half_adaptive(len, &cost);
            check_code(&h);
            let q = axis_quarter_adaptive(len, &cost);
            check_code(&q);
        }
    }
}
