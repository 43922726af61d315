//! The canonical plan grammar is a wire format: every plan tree must
//! round-trip through `to_canonical_string` / `parse` exactly, for both
//! synthetic trees and real planner output. The fingerprint stored in the
//! plan database hashes this rendering, so a silent change here would
//! orphan every persisted record — the golden strings below pin the
//! grammar itself, the properties pin the inverse.

#![expect(
    clippy::let_underscore_must_use,
    reason = "the parser fuzz only checks that parsing returns; Ok and Err are both fine"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "fuzz draws are reduced mod 17 before the cast"
)]

use cubemesh_core::plan::PlanParseError;
use cubemesh_core::{Plan, Planner};
use cubemesh_topology::Shape;
use proptest::prelude::*;

/// Deterministically grow a plan tree from a seed: leaves are Gray or
/// Direct, interior nodes are products of small shapes. Shapes here need
/// not satisfy any planner invariant — the grammar is defined over all
/// trees, not just constructible ones.
fn synth_plan(seed: u64, depth: u32) -> Plan {
    let mut s = seed;
    let mut next = move || {
        // splitmix64 step: decorrelates the seed into per-node choices.
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    synth_with(&mut next, depth)
}

fn synth_with(next: &mut impl FnMut() -> u64, depth: u32) -> Plan {
    let r = next();
    if depth == 0 || r.is_multiple_of(3) {
        if r.is_multiple_of(2) {
            Plan::Gray
        } else {
            Plan::Direct
        }
    } else {
        let rank = (next() % 3 + 1) as usize;
        let mut f1 = Vec::with_capacity(rank);
        let mut f2 = Vec::with_capacity(rank);
        for _ in 0..rank {
            f1.push((next() % 17 + 1) as usize);
            f2.push((next() % 17 + 1) as usize);
        }
        Plan::Product {
            f1: Shape::new(&f1),
            p1: Box::new(synth_with(next, depth - 1)),
            f2: Shape::new(&f2),
            p2: Box::new(synth_with(next, depth - 1)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn synthetic_trees_round_trip(seed in any::<u64>(), depth in 0u32..5) {
        let plan = synth_plan(seed, depth);
        let s = plan.to_canonical_string();
        prop_assert_eq!(Plan::parse(&s).as_ref(), Ok(&plan));
        // The rendering is a fixed point: parse(s) re-renders to s.
        prop_assert_eq!(plan.to_canonical_string(), s);
    }

    #[test]
    fn planner_output_round_trips(a in 1usize..20, b in 1usize..20, c in 1usize..20) {
        let shape = Shape::new(&[a, b, c]);
        if let Some(plan) = Planner::new().plan(&shape) {
            let s = plan.to_canonical_string();
            prop_assert_eq!(Plan::parse(&s), Ok(plan));
        }
    }

    #[test]
    fn parse_never_panics(chars in prop::collection::vec(
        prop::sample::select("gdx()* 0123456789".chars().collect::<Vec<char>>()),
        0usize..40,
    )) {
        // Any byte soup must come back as Ok or a typed error, never a
        // panic — the service feeds network input through this parser.
        let input: String = chars.into_iter().collect();
        let _ = Plan::parse(&input);
    }
}

#[test]
fn grammar_is_pinned() {
    // Golden spellings: changing any of these breaks every persisted
    // fingerprint. Bump the plandb format version if you must.
    assert_eq!(Plan::Gray.to_canonical_string(), "g");
    assert_eq!(Plan::Direct.to_canonical_string(), "d");
    let plan = Plan::Product {
        f1: Shape::new(&[3, 5, 1]),
        p1: Box::new(Plan::Direct),
        f2: Shape::new(&[1, 1, 7]),
        p2: Box::new(Plan::Gray),
    };
    assert_eq!(plan.to_canonical_string(), "(3x5x1 d * 1x1x7 g)");
}

#[test]
fn errors_carry_positions() {
    assert_eq!(
        Plan::parse("q"),
        Err(PlanParseError::Unexpected {
            offset: 0,
            expected: "'g', 'd' or '('",
        })
    );
    assert_eq!(
        Plan::parse("gX"),
        Err(PlanParseError::TrailingInput { offset: 1 })
    );
    assert!(matches!(
        Plan::parse("(3x5 d"),
        Err(PlanParseError::UnexpectedEnd { .. })
    ));
}
