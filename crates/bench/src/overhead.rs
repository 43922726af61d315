//! Tracing-overhead trials: the trace-on ≤ 5 % and trace-off ≤ 1 %
//! bounds, measured in process on a 64³ `construct`. Every
//! `cubemesh-bench` run calls [`measure`] and fails on a violation.
//!
//! * **Trace-on.** `ROUNDS` rounds time `REPEATS` constructs each
//!   with obs off, stats on and tracing on, interleaved in an order that
//!   rotates per round, so host drift falls on every configuration
//!   alike. A round keeps each configuration's fastest time; the median
//!   per-round trace/off ratio must be ≤ `TRACE_ON_BOUND`. The
//!   stats/off ratio is reported, not bounded.
//! * **Trace-off.** No uninstrumented build exists to time against, so
//!   the bound applies to the guards' direct cost: guard evaluations per
//!   construct (`guard_evaluations`) × the median cost of one disabled
//!   span ÷ the median off construct (`trace_off_frac`) must be ≤
//!   `TRACE_OFF_BOUND`. Code-layout effects of the guards are not in it.

use cubemesh_core::{construct, Plan, Planner};
use cubemesh_obs::{self as obs, trace::TraceEvent, trace::TraceLog, Snapshot};
use cubemesh_topology::Shape;
use std::hint::black_box;
use std::time::Instant;

/// Rounds of paired trials, a multiple of three so each configuration
/// leads equally often.
const ROUNDS: usize = 45;
const _: () = assert!(ROUNDS >= 25 && ROUNDS.is_multiple_of(3));
/// Constructs per configuration per round. One 64³ construct varies by
/// ±30 % on a shared 2-core host; the fastest of three cuts the
/// per-round ratio's IQR from ~0.2 to under 0.1.
const REPEATS: usize = 3;
/// Bound on the median per-round trace/off ratio.
const TRACE_ON_BOUND: f64 = 1.05;
/// Bound on the disabled guards' estimated share of a construct.
const TRACE_OFF_BOUND: f64 = 0.01;
const GUARD_ITERS: u32 = 1 << 20;

/// Configuration indices into sample arrays.
const OFF: usize = 0;
const STATS: usize = 1;
const TRACE: usize = 2;

/// Round `round`'s order: off, stats, trace rotated left by `round % 3`.
fn round_order(round: usize) -> [usize; 3] {
    [OFF, STATS, TRACE].map(|c| (c + round) % 3)
}

/// First quartile, median and third quartile, by linear interpolation
/// (all zero for no values).
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return [0.0; 3];
    };
    // The k-th quartile sits at position `last·k/4`.
    [1, 2, 3].map(|k| {
        let (lo, frac) = (last * k / 4, (last * k % 4) as f64 / 4.0);
        v[lo] + (v[(lo + 1).min(last)] - v[lo]) * frac
    })
}

/// The guards' estimated share of an `off_s`-second construct.
fn trace_off_frac(guards: u64, guard_ns: f64, off_s: f64) -> f64 {
    guards as f64 * guard_ns * 1e-9 / off_s.max(1e-12)
}

/// Guard evaluations one construct made, from what obs recorded with
/// both sinks on: every span (on any thread) and histogram sample, every
/// counted unit, every trace gauge and instant. `add(0)` is missed.
fn guard_evaluations(snap: &Snapshot, log: &TraceLog) -> u64 {
    let hist: u64 = snap.histograms.values().map(|h| h.count).sum();
    let counted: u64 = snap.counters.values().sum();
    let trace_only = log
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::Gauge { .. } | TraceEvent::Instant { .. }));
    hist + counted + trace_only.count() as u64
}

/// The result of one set of trials; quartile triples are q1, median, q3.
#[derive(Clone, Debug, PartialEq)]
pub struct Overhead {
    /// Off construct time, seconds.
    off_s: [f64; 3],
    /// Per-round stats/off ratio.
    stats_ratio: [f64; 3],
    /// Per-round trace/off ratio.
    trace_ratio: [f64; 3],
    /// Guard evaluations per construct.
    guards: u64,
    /// Median ns per disabled span open and close.
    guard_ns: f64,
    /// `trace_off_frac` of the above.
    trace_off_frac: f64,
}

impl Overhead {
    /// Summarise per-round times (off, stats, trace), a guard count and
    /// a per-guard cost.
    fn from_samples(samples: &[Vec<f64>; 3], guards: u64, guard_ns: f64) -> Overhead {
        let ratio = |c: usize| {
            let pairs = samples[OFF].iter().zip(&samples[c]);
            quartiles(&pairs.map(|(o, x)| x / o).collect::<Vec<_>>())
        };
        let off_s = quartiles(&samples[OFF]);
        Overhead {
            off_s,
            stats_ratio: ratio(STATS),
            trace_ratio: ratio(TRACE),
            guards,
            guard_ns,
            trace_off_frac: trace_off_frac(guards, guard_ns, off_s[1]),
        }
    }

    /// One line per violated bound; empty when both hold.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let (r, f) = (self.trace_ratio[1], self.trace_off_frac);
        if r > TRACE_ON_BOUND {
            out.push(format!("trace-on: trace/off {r:.4} > {TRACE_ON_BOUND}"));
        }
        if f > TRACE_OFF_BOUND {
            out.push(format!("trace-off: guards {f:.5} > {TRACE_OFF_BOUND}"));
        }
        out
    }

    /// The `overhead` object of the bench document, on one line.
    pub fn to_json(&self) -> String {
        let q = |[q1, m, q3]: [f64; 3]| {
            format!("{{\"q1\": {q1:.6}, \"median\": {m:.6}, \"q3\": {q3:.6}}}")
        };
        format!(
            "{{\"shape\": \"64x64x64\", \"rounds\": {ROUNDS}, \"off_s\": {}, \
             \"stats_ratio\": {}, \"trace_ratio\": {}, \"trace_on_bound\": {TRACE_ON_BOUND}, \
             \"guards\": {}, \"guard_ns\": {:.2}, \"trace_off_frac\": {:.8}, \
             \"trace_off_bound\": {TRACE_OFF_BOUND}, \"pass\": {}}}",
            q(self.off_s),
            q(self.stats_ratio),
            q(self.trace_ratio),
            self.guards,
            self.guard_ns,
            self.trace_off_frac,
            self.violations().is_empty()
        )
    }
}

fn set_obs(stats: bool, trace: bool) {
    obs::set_enabled(stats);
    obs::trace::set_enabled(trace);
}

/// Seconds for one construct under `config`; dropping the embedding and
/// the trace events stays outside the timed region.
fn timed_construct(shape: &Shape, plan: &Plan, config: usize) -> Result<f64, String> {
    set_obs(config == STATS, config == TRACE);
    let t0 = Instant::now();
    let emb = construct(shape, plan);
    let secs = t0.elapsed().as_secs_f64();
    set_obs(false, false);
    drop(black_box(emb.map_err(|e| e.to_string())?));
    drop(obs::trace::drain());
    Ok(secs)
}

fn trials(shape: &Shape, plan: &Plan) -> Result<Overhead, String> {
    for config in round_order(0) {
        timed_construct(shape, plan, config)?; // warm-up
    }
    let mut samples: [Vec<f64>; 3] = Default::default();
    for round in 0..ROUNDS {
        let mut best = [f64::MAX; 3];
        for _ in 0..REPEATS {
            for c in round_order(round) {
                best[c] = best[c].min(timed_construct(shape, plan, c)?);
            }
        }
        for (s, b) in samples.iter_mut().zip(best) {
            s.push(b);
        }
    }

    // Count guards on one construct with both sinks on, from a clean slate.
    obs::reset();
    obs::trace::reset();
    set_obs(true, true);
    let emb = construct(shape, plan);
    set_obs(false, false);
    drop(emb.map_err(|e| e.to_string())?);
    let guards = guard_evaluations(&obs::snapshot(), &obs::trace::drain());

    let per_guard = [(); 5].map(|()| {
        let t0 = Instant::now();
        for _ in 0..GUARD_ITERS {
            drop(black_box(obs::SpanTimer::new(black_box("overhead.guard"))));
        }
        t0.elapsed().as_secs_f64() * 1e9 / f64::from(GUARD_ITERS)
    });
    let guard_ns = quartiles(&per_guard)[1];
    Ok(Overhead::from_samples(&samples, guards, guard_ns))
}

/// Run the trials. They clear the stats registry and the trace buffers,
/// so call this after a run has reported what it recorded; the stats
/// mode and the trace switch are restored.
pub fn measure() -> Result<Overhead, String> {
    let shape = Shape::new(&[64, 64, 64]);
    let plan = Planner::new().plan(&shape).ok_or("no 64^3 plan")?;
    let (mode, tracing) = (obs::mode(), obs::trace::enabled());
    let result = trials(&shape, &plan);
    obs::reset();
    obs::trace::reset();
    obs::set_mode(mode);
    obs::trace::set_enabled(tracing);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Off times drifting from 5 to 8 ms, stats and trace scaled from them.
    fn samples(stats: f64, trace: f64) -> [Vec<f64>; 3] {
        let off: Vec<f64> = (0..ROUNDS).map(|i| 5e-3 + 3e-3 * i as f64 / 45.0).collect();
        let scaled = |k: f64| off.iter().map(|x| x * k).collect();
        [off.clone(), scaled(stats), scaled(trace)]
    }

    #[test]
    fn a_six_percent_trace_slowdown_fails_and_none_passes() {
        let slow = Overhead::from_samples(&samples(1.0, 1.06), 20, 13.0);
        assert!((slow.trace_ratio[1] - 1.06).abs() < 1e-9);
        let v = slow.violations();
        assert!(v.len() == 1 && v[0].starts_with("trace-on"), "{v:?}");
        let fine = Overhead::from_samples(&samples(1.02, 1.0), 20, 13.0);
        assert!(fine.violations().is_empty(), "{:?}", fine.violations());
        assert!((fine.stats_ratio[1] - 1.02).abs() < 1e-9);
        let doc = obs::parse_json(&fine.to_json()).expect("valid JSON");
        assert_eq!(doc.get("pass"), Some(&obs::JsonValue::Bool(true)));
    }

    #[test]
    fn a_two_percent_guard_estimate_fails() {
        // 1000 guards × 200 ns = 200 µs of a 10 ms construct: 2 %.
        assert!((trace_off_frac(1000, 200.0, 0.01) - 0.02).abs() < 1e-12);
        let flat = [vec![0.01; ROUNDS], vec![0.01; ROUNDS], vec![0.01; ROUNDS]];
        let v = Overhead::from_samples(&flat, 1000, 200.0).violations();
        assert!(v.len() == 1 && v[0].starts_with("trace-off"), "{v:?}");
        assert!(Overhead::from_samples(&flat, 250, 200.0)
            .violations()
            .is_empty());
    }

    #[test]
    fn rotation_leads_with_each_config_in_a_third_of_the_rounds() {
        for rounds in [25, 26, ROUNDS, 100] {
            let mut firsts = [0usize; 3];
            for round in 0..rounds {
                let mut order = round_order(round);
                firsts[order[0]] += 1;
                order.sort_unstable();
                assert_eq!(order, [OFF, STATS, TRACE]);
            }
            assert!(firsts.iter().all(|&n| n >= rounds / 3), "{firsts:?}");
        }
    }

    #[test]
    fn quartiles_and_guard_count() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[1.0, 2.0])[1], 1.5);
        let mut snap = Snapshot::default();
        snap.counters.insert("pool.tasks".into(), 8);
        assert_eq!(guard_evaluations(&snap, &TraceLog::default()), 8);
    }
}
