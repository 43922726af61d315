//! Owned snapshots of the metric registry, with text and JSON export.

use crate::json::{escape_into, JsonValue};
use crate::metrics::{bucket_bounds, HistogramSnapshot, HIST_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A point-in-time copy of every registered metric (see
/// [`snapshot`](crate::snapshot)). Key-sorted, so text/JSON output is
/// deterministic given identical metric values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Value of the named counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Snapshot of the named histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Render as indented human-readable text. Derived hit rates are
    /// appended for every `<base>.hit` / `<base>.miss` counter pair.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "fmt::Write for String never fails"
    )]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("== cubemesh stats ==\n");
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<44} {v}");
            }
            // Derived rates for hit/miss pairs (e.g. planner.memo).
            for (name, &hits) in &self.counters {
                if let Some(base) = name.strip_suffix(".hit") {
                    if let Some(&misses) = self.counters.get(&format!("{base}.miss")) {
                        let total = hits + misses;
                        if total > 0 {
                            let _ = writeln!(
                                out,
                                "  {:<44} {:.1}% ({hits}/{total})",
                                format!("{base}.hit_rate"),
                                100.0 * hits as f64 / total as f64
                            );
                        }
                    }
                }
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<44} n={} mean={:.1} min={} max={}",
                    h.count,
                    h.mean(),
                    h.min,
                    h.max
                );
                if h.count > 0 {
                    out.push_str("    ");
                    out.push_str(&render_buckets(h));
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Render as a single-line JSON object:
    /// `{"counters": {name: value, ...}, "histograms": {name: {"count": ..,
    /// "sum": .., "min": .., "max": .., "buckets": [[lo, count], ...]}}}`.
    /// Bucket entries are sparse (only non-empty buckets, as
    /// `[bucket_lower_bound, count]` pairs).
    #[expect(
        clippy::let_underscore_must_use,
        reason = "fmt::Write for String never fails"
    )]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, name);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                h.count, h.sum, h.min, h.max
            );
            let mut first = true;
            for (b, &c) in h.buckets.iter().enumerate() {
                if c > 0 {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(out, "[{},{c}]", bucket_bounds(b).0);
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Rebuild a snapshot from [`to_json`](Self::to_json) output.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let v = crate::json::parse(text).map_err(|(pos, m)| format!("at byte {pos}: {m}"))?;
        let mut snap = Snapshot::default();
        if let Some(JsonValue::Obj(counters)) = v.get("counters") {
            for (name, val) in counters {
                let n = val
                    .as_u64()
                    .ok_or_else(|| format!("counter {name}: not a u64"))?;
                snap.counters.insert(name.clone(), n);
            }
        }
        if let Some(JsonValue::Obj(hists)) = v.get("histograms") {
            for (name, h) in hists {
                let field = |k: &str| -> Result<u64, String> {
                    h.get(k)
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| format!("histogram {name}: bad '{k}'"))
                };
                let mut hs = HistogramSnapshot {
                    buckets: [0; HIST_BUCKETS],
                    count: field("count")?,
                    sum: field("sum")?,
                    min: field("min")?,
                    max: field("max")?,
                };
                let buckets = h
                    .get("buckets")
                    .and_then(JsonValue::as_arr)
                    .ok_or_else(|| format!("histogram {name}: bad 'buckets'"))?;
                for pair in buckets {
                    let pair = pair.as_arr().filter(|p| p.len() == 2);
                    let (lo, c) = match pair {
                        Some([lo, c]) => match (lo.as_u64(), c.as_u64()) {
                            (Some(lo), Some(c)) => (lo, c),
                            _ => return Err(format!("histogram {name}: bad bucket pair")),
                        },
                        _ => return Err(format!("histogram {name}: bad bucket pair")),
                    };
                    let b = (0..HIST_BUCKETS)
                        .find(|&b| bucket_bounds(b).0 == lo)
                        .ok_or_else(|| format!("histogram {name}: unknown bucket lo {lo}"))?;
                    hs.buckets[b] = c;
                }
                snap.histograms.insert(name.clone(), hs);
            }
        }
        Ok(snap)
    }
}

/// Compact one-line bucket sketch, e.g. `[1,2): 3  [4,8): 17`.
#[expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write for String never fails"
)]
fn render_buckets(h: &HistogramSnapshot) -> String {
    let mut out = String::new();
    for (b, &c) in h.buckets.iter().enumerate() {
        if c > 0 {
            let (lo, hi) = bucket_bounds(b);
            if !out.is_empty() {
                out.push_str("  ");
            }
            let _ = write!(out, "[{lo},{hi}): {c}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("planner.memo.hit".into(), 30);
        s.counters.insert("planner.memo.miss".into(), 10);
        s.counters.insert("other".into(), 5);
        let mut h = HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
            count: 3,
            sum: 21,
            min: 1,
            max: 16,
        };
        h.buckets[1] = 1;
        h.buckets[3] = 1;
        h.buckets[5] = 1;
        s.histograms.insert("router.congestion".into(), h);
        s
    }

    #[test]
    fn text_has_hit_rate() {
        let text = sample().to_text();
        assert!(text.contains("planner.memo.hit_rate"), "{text}");
        assert!(text.contains("75.0% (30/40)"), "{text}");
        assert!(text.contains("router.congestion"), "{text}");
    }

    #[test]
    fn json_round_trip() {
        let s = sample();
        let json = s.to_json();
        let back = Snapshot::from_json(&json).unwrap();
        assert_eq!(s, back);
        // And the emitted JSON is valid for the generic parser.
        assert!(crate::parse_json(&json).is_ok());
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(Snapshot::from_json("{").is_err());
        assert!(Snapshot::from_json(r#"{"counters":{"x":-1},"histograms":{}}"#).is_err());
    }
}
