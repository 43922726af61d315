//! SARIF 2.1.0 export for the shared `cubemesh-audit-diag/v1` schema.
//!
//! Both gate front-ends — `lint` (CM-L…) and `analyze` (CM-A…) — emit
//! findings in the same internal shape: a stable code, a rule slug, a
//! repo-relative file, a 1-based line, a message, and (for dataflow
//! findings) a call path. [`Diag`] is that shape made explicit, and
//! [`to_sarif`] renders any list of them as a single-run SARIF log so
//! editors and CI annotators can consume the gate output without
//! knowing the in-house schema.
//!
//! The emitted subset is deliberately small: one `run`, one
//! `tool.driver` with a deduplicated `rules` table, and one `result`
//! per finding with a `physicalLocation` and (when present) the call
//! path flattened into the message text plus a `cubemesh/path`
//! property bag entry. Everything is spec-valid SARIF 2.1.0; the
//! golden-file test in `tests/sarif_golden.rs` pins the exact bytes.

use crate::analyze::Finding;
use crate::lint::Violation;

/// One diagnostic in the shared schema, independent of which front-end
/// produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diag {
    /// Stable code (`CM-L006`…, `CM-A001`…). Becomes the SARIF `ruleId`.
    pub code: String,
    /// Human-readable rule slug (`shared-mut-in-worker`, `range-mul-overflow`).
    pub rule: String,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Explanation.
    pub message: String,
    /// Call-path evidence, root to sink (empty for intraprocedural
    /// findings and all lint findings).
    pub path: Vec<String>,
}

impl From<&Violation> for Diag {
    fn from(v: &Violation) -> Diag {
        Diag {
            code: v.rule.code().to_owned(),
            rule: v.rule.slug().to_owned(),
            file: v.file.clone(),
            line: u32::try_from(v.line).unwrap_or(u32::MAX),
            message: v.message.clone(),
            path: Vec::new(),
        }
    }
}

impl From<&Finding> for Diag {
    fn from(f: &Finding) -> Diag {
        Diag {
            code: f.code.as_str().to_owned(),
            rule: f.code.slug().to_owned(),
            file: f.file.clone(),
            line: f.line,
            message: f.message.clone(),
            path: f.path.clone(),
        }
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    cubemesh_obs::json_escape_into(&mut out, s);
    out
}

/// Render `diags` as a SARIF 2.1.0 log with one run.
///
/// `tool` names the front-end (`"cubemesh-audit lint"` /
/// `"cubemesh-audit analyze"`). Rules are collected in first-seen
/// order and deduplicated by code; each result carries `ruleIndex`
/// into that table. Output is deterministic for a given input.
pub fn to_sarif(tool: &str, diags: &[Diag]) -> String {
    let mut rules: Vec<(&str, &str)> = Vec::new();
    for d in diags {
        if !rules.iter().any(|(c, _)| *c == d.code) {
            rules.push((&d.code, &d.rule));
        }
    }
    let rules_json: Vec<String> = rules
        .iter()
        .map(|(code, slug)| {
            format!(
                "{{\"id\":{},\"name\":{},\"shortDescription\":{{\"text\":{}}}}}",
                esc(code),
                esc(slug),
                esc(slug)
            )
        })
        .collect();
    let results: Vec<String> = diags
        .iter()
        .map(|d| {
            let rule_index = rules.iter().position(|(c, _)| *c == d.code).unwrap_or(0);
            let text = if d.path.is_empty() {
                d.message.clone()
            } else {
                format!("{} (via {})", d.message, d.path.join(" -> "))
            };
            let props = if d.path.is_empty() {
                String::new()
            } else {
                let steps: Vec<String> = d.path.iter().map(|p| esc(p)).collect();
                format!(
                    ",\"properties\":{{\"cubemesh/path\":[{}]}}",
                    steps.join(",")
                )
            };
            format!(
                "{{\"ruleId\":{},\"ruleIndex\":{},\"level\":\"error\",\
                 \"message\":{{\"text\":{}}},\
                 \"locations\":[{{\"physicalLocation\":{{\
                 \"artifactLocation\":{{\"uri\":{}}},\
                 \"region\":{{\"startLine\":{}}}}}}}]{}}}",
                esc(&d.code),
                rule_index,
                esc(&text),
                esc(&d.file),
                d.line.max(1),
                props
            )
        })
        .collect();
    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\
         \"name\":{},\"informationUri\":\"https://example.invalid/cubemesh\",\
         \"rules\":[{}]}}}},\"results\":[{}]}}]}}",
        esc(tool),
        rules_json.join(","),
        results.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diag> {
        vec![
            Diag {
                code: "CM-A009".to_owned(),
                rule: "range-mul-overflow".to_owned(),
                file: "crates/x/src/lib.rs".to_owned(),
                line: 12,
                message: "product may exceed usize".to_owned(),
                path: vec!["x::outer".to_owned(), "x::inner".to_owned()],
            },
            Diag {
                code: "CM-L007".to_owned(),
                rule: "shared-mut-in-worker".to_owned(),
                file: "crates/y/src/lib.rs".to_owned(),
                line: 3,
                message: "static mut in library code".to_owned(),
                path: Vec::new(),
            },
            Diag {
                code: "CM-A009".to_owned(),
                rule: "range-mul-overflow".to_owned(),
                file: "crates/z/src/lib.rs".to_owned(),
                line: 7,
                message: "another product".to_owned(),
                path: Vec::new(),
            },
        ]
    }

    #[test]
    fn sarif_is_valid_json_with_expected_structure() {
        let log = to_sarif("cubemesh-audit analyze", &sample());
        let doc = cubemesh_obs::parse_json(&log).expect("valid JSON");
        assert_eq!(doc.get("version").and_then(|v| v.as_str()), Some("2.1.0"));
        let runs = doc.get("runs").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(runs.len(), 1);
        let driver = runs[0].get("tool").and_then(|t| t.get("driver")).unwrap();
        // Two distinct codes -> two rules, first-seen order.
        let rules = driver.get("rules").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].get("id").and_then(|v| v.as_str()), Some("CM-A009"));
        let results = runs[0].get("results").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(results.len(), 3);
        // Third result shares rule 0 with the first.
        assert_eq!(
            results[2].get("ruleIndex").and_then(|v| v.as_u64()),
            Some(0)
        );
        // The call path lands in the message and the property bag.
        let msg = results[0]
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(|t| t.as_str())
            .unwrap();
        assert!(msg.contains("via x::outer -> x::inner"), "{msg}");
    }

    #[test]
    fn empty_input_is_still_a_valid_run() {
        let log = to_sarif("cubemesh-audit lint", &[]);
        let doc = cubemesh_obs::parse_json(&log).expect("valid JSON");
        let runs = doc.get("runs").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(
            runs[0]
                .get("results")
                .and_then(|r| r.as_arr())
                .map(<[_]>::len),
            Some(0)
        );
    }

    #[test]
    fn conversions_from_both_frontends() {
        let v = Violation {
            file: "a.rs".to_owned(),
            line: 5,
            rule: crate::lint::Rule::SharedMutInWorker,
            message: "m".to_owned(),
        };
        let d = Diag::from(&v);
        assert_eq!(d.code, "CM-L007");
        assert_eq!(d.rule, "shared-mut-in-worker");
        assert!(d.path.is_empty());
    }
}
