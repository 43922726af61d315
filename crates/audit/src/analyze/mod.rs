//! The concurrency & determinism analyzer: interprocedural passes over
//! the lexer/AST/call-graph front end.
//!
//! Where [`crate::lint`] enforces local hygiene, this module answers the
//! question the ROADMAP's real-parallelism item actually needs answered:
//! *is the workspace safe to run on a work-stealing pool, and will it
//! stay byte-identical when threads reorder chunks?* Four pass families:
//!
//! | code | rule | what it proves absent |
//! |------|------|----------------------|
//! | `CM-A001` | `worker-capture-mut` | worker closures mutating captured state (`x = …`, `x += …`, `&mut x`, `x[i] = …` on an identifier the closure does not own) |
//! | `CM-A002` | `worker-capture-interior` | `RefCell`/`Cell`/`Rc` construction in any function reachable from a worker closure (`thread_local!` initializers exempt — they are per-thread by construction) |
//! | `CM-A003` | `worker-reach-static-mut` | a call path from a worker closure to a function touching `static mut` |
//! | `CM-A004` | `nondet-float-reduce` | float accumulation in a parallel reduction (chunk reorder ⇒ different rounding ⇒ broken determinism gates) |
//! | `CM-A005` | `nondet-order-merge` | order-sensitive merges: `push`/`insert`/`extend` into captured collections from workers, or `HashMap`/`HashSet` iteration feeding results inside a parallel region |
//! | `CM-A006` | `relaxed-ordering` | `Ordering::Relaxed` outside the documented stat/trace guard files (`//! audit: relaxed-domain(…)`) |
//! | `CM-A007` | `lock-order` | two functions acquiring the same pair of locks in opposite orders |
//! | `CM-A008` | `span-guard-escape` | span guards whose drop is provably not LIFO: explicit out-of-order `drop`, `mem::forget`, or a guard returned/stored out of the opening scope |
//! | `CM-A009` | `range-mul-overflow` | unchecked `*`/`<<` on shape/address-typed `usize` values whose proven interval can exceed 64 bits (interval dataflow over the [`crate::cfg`] CFG; `checked_*`/assert guards recognized) |
//! | `CM-A010` | `range-add-overflow` | unchecked `+` where both operands are unbounded and at least one is shape/address-typed |
//! | `CM-A011` | `taint-unchecked-sink` | an untrusted value (env read, annotated decode) reaching a slice index or `Vec::with_capacity` without a validation boundary |
//! | `CM-A012` | `taint-unvalidated-shape` | an untrusted value reaching a `Shape::…` constructor without validation |
//!
//! Every finding carries *call-path evidence* — the chain of qualified
//! function names from the fan-out site to the sink — and a stable
//! diagnostic code, so the `check.sh` gate can archive machine-readable
//! reports and a human can audit the path rather than re-derive it.
//!
//! Findings are suppressed by an inline justification comment on the
//! same line or the line above:
//!
//! ```text
//! // audit:allow(CM-A006): per-worker counter, read only after join
//! ```
//!
//! The reason text is mandatory; a bare `audit:allow(CODE)` does not
//! suppress.

pub mod capture;
pub mod ordering;
pub mod range;
pub mod reduction;
pub mod regions;
pub mod spans;
pub mod taint;

use crate::ast::Workspace;
use crate::callgraph::CallGraph;
use regions::Region;
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Stable diagnostic codes for analyzer findings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// Worker closure mutates captured state.
    WorkerCaptureMut,
    /// Non-`Sync` interior mutability reachable from a worker.
    WorkerCaptureInterior,
    /// `static mut` reachable from a worker.
    WorkerReachStaticMut,
    /// Float accumulation in a parallel reduction.
    NondetFloatReduce,
    /// Order-sensitive merge in a parallel region.
    NondetOrderMerge,
    /// `Ordering::Relaxed` outside a documented relaxed domain.
    RelaxedOrdering,
    /// Inconsistent lock acquisition order.
    LockOrder,
    /// Span guard provably breaks LIFO drop order.
    SpanGuardEscape,
    /// Unchecked `*`/`<<` on a shape/address value that may overflow.
    RangeMulOverflow,
    /// Unchecked `+` on shape/address values that may overflow.
    RangeAddOverflow,
    /// Untrusted value reaches an index/capacity sink unvalidated.
    TaintUncheckedSink,
    /// Untrusted value reaches a shape constructor unvalidated.
    TaintUnvalidatedShape,
}

impl Code {
    /// The stable `CM-Axxx` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::WorkerCaptureMut => "CM-A001",
            Code::WorkerCaptureInterior => "CM-A002",
            Code::WorkerReachStaticMut => "CM-A003",
            Code::NondetFloatReduce => "CM-A004",
            Code::NondetOrderMerge => "CM-A005",
            Code::RelaxedOrdering => "CM-A006",
            Code::LockOrder => "CM-A007",
            Code::SpanGuardEscape => "CM-A008",
            Code::RangeMulOverflow => "CM-A009",
            Code::RangeAddOverflow => "CM-A010",
            Code::TaintUncheckedSink => "CM-A011",
            Code::TaintUnvalidatedShape => "CM-A012",
        }
    }

    /// Human-readable rule slug.
    pub fn slug(self) -> &'static str {
        match self {
            Code::WorkerCaptureMut => "worker-capture-mut",
            Code::WorkerCaptureInterior => "worker-capture-interior",
            Code::WorkerReachStaticMut => "worker-reach-static-mut",
            Code::NondetFloatReduce => "nondet-float-reduce",
            Code::NondetOrderMerge => "nondet-order-merge",
            Code::RelaxedOrdering => "relaxed-ordering",
            Code::LockOrder => "lock-order",
            Code::SpanGuardEscape => "span-guard-escape",
            Code::RangeMulOverflow => "range-mul-overflow",
            Code::RangeAddOverflow => "range-add-overflow",
            Code::TaintUncheckedSink => "taint-unchecked-sink",
            Code::TaintUnvalidatedShape => "taint-unvalidated-shape",
        }
    }

    /// All analyzer codes, in code order.
    pub const ALL: [Code; 12] = [
        Code::WorkerCaptureMut,
        Code::WorkerCaptureInterior,
        Code::WorkerReachStaticMut,
        Code::NondetFloatReduce,
        Code::NondetOrderMerge,
        Code::RelaxedOrdering,
        Code::LockOrder,
        Code::SpanGuardEscape,
        Code::RangeMulOverflow,
        Code::RangeAddOverflow,
        Code::TaintUncheckedSink,
        Code::TaintUnvalidatedShape,
    ];
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One analyzer finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable diagnostic code.
    pub code: Code,
    /// Repo-relative file of the sink.
    pub file: String,
    /// 1-based line of the sink.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Call-path evidence: qualified function names from the fan-out
    /// root to the sink (empty for intraprocedural findings).
    pub path: Vec<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{} {}] {}",
            self.file,
            self.line,
            self.code,
            self.code.slug(),
            self.message
        )?;
        if !self.path.is_empty() {
            write!(f, "\n    via {}", self.path.join(" -> "))?;
        }
        Ok(())
    }
}

/// JSON object for one finding (shared schema with `lint --json`).
pub fn finding_json(
    code: &str,
    rule: &str,
    file: &str,
    line: u32,
    message: &str,
    path: &[String],
) -> String {
    let esc = |s: &str| {
        s.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    };
    let path_json: Vec<String> = path.iter().map(|p| format!("\"{}\"", esc(p))).collect();
    format!(
        "{{\"code\":\"{}\",\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\",\"path\":[{}]}}",
        esc(code),
        esc(rule),
        esc(file),
        line,
        esc(message),
        path_json.join(",")
    )
}

impl Finding {
    /// Render as one JSON object in the shared diagnostic schema.
    pub fn to_json(&self) -> String {
        finding_json(
            self.code.as_str(),
            self.code.slug(),
            &self.file,
            self.line,
            &self.message,
            &self.path,
        )
    }
}

/// Fan-out API sets: which names start a parallel region.
///
/// Defaults cover std (`spawn`, `scope`), the pool's `run_tasks` (the
/// workspace's one data-parallel entry point), the embedding crate's
/// `fill_parts` (a `run_tasks` region handing each task its own output
/// slice, listed so the closure at each call site is analyzed as worker
/// code) and the rayon surface, so code written against real rayon is
/// still analyzed.
#[derive(Clone, Debug)]
pub struct FanoutApis {
    /// Receiver-chain markers that make a method chain parallel
    /// (`into_par_iter`, `par_iter`, …).
    pub sources: Vec<String>,
    /// Closure-taking combinators on a parallel chain (`map`,
    /// `for_each`, `reduce`, …).
    pub entries: Vec<String>,
    /// Free/method calls whose closure argument runs on another thread
    /// regardless of receiver (`spawn`, `scope`).
    pub direct: Vec<String>,
}

impl Default for FanoutApis {
    fn default() -> Self {
        let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
        FanoutApis {
            sources: v(&["into_par_iter", "par_iter", "par_iter_mut", "par_chunks"]),
            entries: v(&[
                "map",
                "for_each",
                "reduce",
                "fold",
                "filter",
                "filter_map",
                "flat_map",
                "inspect",
            ]),
            direct: v(&["spawn", "scope", "run_tasks", "fill_parts"]),
        }
    }
}

/// Inline suppressions: `// audit:allow(CODE): reason`.
#[derive(Debug, Default)]
pub struct Suppressions {
    /// `(file label, line, code string)` triples.
    entries: Vec<(String, u32, String)>,
}

impl Suppressions {
    /// Collect suppression comments from a parsed file. A suppression
    /// without a non-empty reason after `): ` is ignored (the gate
    /// refuses justification-free waivers).
    pub fn collect(&mut self, file: &crate::ast::File) {
        for t in &file.tokens {
            if t.kind != crate::lexer::TokKind::Comment {
                continue;
            }
            let text = t.text(&file.src);
            let mut rest = text;
            while let Some(pos) = rest.find("audit:allow(") {
                rest = &rest[pos + "audit:allow(".len()..];
                let Some(close) = rest.find(')') else { break };
                let code = rest[..close].trim().to_string();
                let after = &rest[close + 1..];
                let reason_ok = after
                    .strip_prefix(':')
                    .map(|r| !r.trim().is_empty())
                    .unwrap_or(false);
                if reason_ok && !code.is_empty() {
                    self.entries.push((file.label.clone(), t.line, code));
                }
                rest = after;
            }
        }
    }

    /// Is a finding with `code` at `file:line` suppressed? Matches a
    /// justified annotation on the same line or the line directly above.
    pub fn covers(&self, file: &str, line: u32, code: &str) -> bool {
        self.entries
            .iter()
            .any(|(f, l, c)| f == file && c == code && (*l == line || *l + 1 == line))
    }

    /// Number of suppression entries (for reporting).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no suppressions were found.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A complete analyzer run: findings plus run metadata.
#[derive(Debug)]
pub struct Analysis {
    /// Findings that survived suppression, sorted by file/line/code.
    pub findings: Vec<Finding>,
    /// Files analyzed.
    pub files: usize,
    /// Functions (incl. named closures) in the symbol table.
    pub functions: usize,
    /// Parallel regions discovered.
    pub regions: usize,
    /// Suppression comments honored.
    pub suppressions: usize,
    /// Wall time of the analysis (excluding file IO is not worth the
    /// complexity; this is end-to-end).
    pub elapsed_ms: u128,
    /// Per-pass wall time, in run order — surfaced by `check.sh` so a
    /// pass that blows the analyze budget is identifiable at a glance.
    pub pass_ms: Vec<(&'static str, u128)>,
}

impl Analysis {
    /// Analyze the workspace rooted at `root` (the repo checkout).
    ///
    /// Reads the same library-source file set as the lint pass.
    pub fn run_root(root: &Path) -> io::Result<Analysis> {
        let started = Instant::now();
        let mut files = Vec::new();
        crate::lint::walk_lib_sources(root, &mut files)?;
        files.sort();
        let mut ws = Workspace::default();
        for (rel, path) in &files {
            ws.add_file(rel, fs::read_to_string(path)?);
        }
        let mut analysis = Analysis::run(&ws, &FanoutApis::default());
        analysis.elapsed_ms = started.elapsed().as_millis();
        Ok(analysis)
    }

    /// Analyze an already-parsed workspace with explicit fan-out sets.
    pub fn run(ws: &Workspace, apis: &FanoutApis) -> Analysis {
        let started = Instant::now();
        let cg = CallGraph::build(ws);
        let regions: Vec<Region> = regions::find_regions(ws, &cg, apis);
        let mut suppress = Suppressions::default();
        for f in &ws.files {
            suppress.collect(f);
        }

        let mut findings = Vec::new();
        let mut pass_ms: Vec<(&'static str, u128)> = Vec::new();
        let mut t0 = Instant::now();
        capture::check(ws, &cg, &regions, &mut findings);
        pass_ms.push(("capture", t0.elapsed().as_millis()));
        t0 = Instant::now();
        reduction::check(ws, &cg, &regions, apis, &mut findings);
        pass_ms.push(("reduction", t0.elapsed().as_millis()));
        t0 = Instant::now();
        ordering::check(ws, &cg, &mut findings);
        pass_ms.push(("ordering", t0.elapsed().as_millis()));
        t0 = Instant::now();
        spans::check(ws, &mut findings);
        pass_ms.push(("spans", t0.elapsed().as_millis()));
        t0 = Instant::now();
        range::check(ws, &mut findings);
        pass_ms.push(("range", t0.elapsed().as_millis()));
        t0 = Instant::now();
        taint::check(ws, &mut findings);
        pass_ms.push(("taint", t0.elapsed().as_millis()));

        findings.retain(|f| !suppress.covers(&f.file, f.line, f.code.as_str()));
        findings.sort_by(|a, b| (&a.file, a.line, a.code).cmp(&(&b.file, b.line, b.code)));
        findings.dedup();
        Analysis {
            findings,
            files: ws.files.len(),
            functions: ws.fns.len(),
            regions: regions.len(),
            suppressions: suppress.len(),
            elapsed_ms: started.elapsed().as_millis(),
            pass_ms,
        }
    }

    /// Render the run as the machine-readable gate artifact.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self.findings.iter().map(Finding::to_json).collect();
        let passes: Vec<String> = self
            .pass_ms
            .iter()
            .map(|(name, ms)| format!("\"{name}\":{ms}"))
            .collect();
        format!(
            "{{\"schema\":\"cubemesh-audit-diag/v1\",\"tool\":\"analyze\",\"files\":{},\
             \"functions\":{},\"regions\":{},\"suppressions\":{},\"elapsed_ms\":{},\
             \"pass_ms\":{{{}}},\
             \"findings\":[{}]}}",
            self.files,
            self.functions,
            self.regions,
            self.suppressions,
            self.elapsed_ms,
            passes.join(","),
            body.join(",\n ")
        )
    }
}

/// Parse a prior `analyze --json` artifact into the set of finding
/// keys it contains, for `--baseline` diff mode.
///
/// Keys are `(code, file, message)` — line numbers are deliberately
/// excluded so unrelated edits that shift a finding a few lines do not
/// resurrect it past the baseline. A finding whose *message* changes
/// (different sink expression, different bound) is new.
pub fn baseline_keys(text: &str) -> Result<BTreeSet<(String, String, String)>, String> {
    let doc = cubemesh_obs::parse_json(text)
        .map_err(|(pos, msg)| format!("bad baseline JSON at byte {pos}: {msg}"))?;
    let findings = doc
        .get("findings")
        .and_then(|f| f.as_arr())
        .ok_or_else(|| "baseline has no \"findings\" array".to_owned())?;
    let mut keys = BTreeSet::new();
    for f in findings {
        let field = |k: &str| f.get(k).and_then(|v| v.as_str()).map(str::to_owned);
        match (field("code"), field("file"), field("message")) {
            (Some(code), Some(file), Some(message)) => {
                keys.insert((code, file, message));
            }
            _ => return Err("baseline finding missing code/file/message".to_owned()),
        }
    }
    Ok(keys)
}

impl Analysis {
    /// Drop findings whose `(code, file, message)` key appears in
    /// `baseline` (see [`baseline_keys`]); returns how many were
    /// suppressed. Run metadata is untouched.
    pub fn apply_baseline(&mut self, baseline: &BTreeSet<(String, String, String)>) -> usize {
        let before = self.findings.len();
        self.findings.retain(|f| {
            !baseline.contains(&(
                f.code.as_str().to_owned(),
                f.file.clone(),
                f.message.clone(),
            ))
        });
        before - self.findings.len()
    }
}

#[cfg(test)]
pub(crate) fn analyze_str(src: &str) -> Vec<Finding> {
    let mut ws = Workspace::default();
    ws.add_file("lib.rs", src.to_owned());
    Analysis::run(&ws, &FanoutApis::default()).findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_requires_reason() {
        let mut s = Suppressions::default();
        let f = crate::ast::File::parse(
            "lib.rs",
            "// audit:allow(CM-A006): documented stat counter\n\
             // audit:allow(CM-A001)\nfn f() {}\n"
                .to_owned(),
        );
        s.collect(&f);
        assert!(s.covers("lib.rs", 1, "CM-A006"));
        assert!(s.covers("lib.rs", 2, "CM-A006"), "line-above rule");
        assert!(!s.covers("lib.rs", 2, "CM-A001"), "reason-less is void");
        assert!(!s.covers("other.rs", 1, "CM-A006"));
    }

    #[test]
    fn codes_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in Code::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert!(c.as_str().starts_with("CM-A"));
        }
    }

    #[test]
    fn baseline_roundtrip_suppresses_old_findings_only() {
        let old = Finding {
            code: Code::RangeMulOverflow,
            file: "a.rs".into(),
            line: 10,
            message: "product may overflow".into(),
            path: vec![],
        };
        let new = Finding {
            code: Code::RangeMulOverflow,
            file: "a.rs".into(),
            line: 20,
            message: "a different product".into(),
            path: vec![],
        };
        let moved = Finding {
            line: 99, // same key, shifted line: still baselined
            ..old.clone()
        };
        let mut analysis = Analysis {
            findings: vec![old.clone(), new.clone(), moved],
            files: 1,
            functions: 1,
            regions: 0,
            suppressions: 0,
            elapsed_ms: 0,
            pass_ms: vec![],
        };
        // Baseline = a prior run that saw only `old`.
        let prior = Analysis {
            findings: vec![old],
            files: 1,
            functions: 1,
            regions: 0,
            suppressions: 0,
            elapsed_ms: 0,
            pass_ms: vec![],
        };
        let keys = baseline_keys(&prior.to_json()).expect("artifact parses");
        assert_eq!(keys.len(), 1);
        assert_eq!(analysis.apply_baseline(&keys), 2);
        assert_eq!(analysis.findings, vec![new]);
        assert!(baseline_keys("not json").is_err());
        assert!(baseline_keys("{\"tool\":\"analyze\"}").is_err());
    }

    #[test]
    fn finding_json_escapes() {
        let f = Finding {
            code: Code::RelaxedOrdering,
            file: "a.rs".into(),
            line: 3,
            message: "say \"hi\"".into(),
            path: vec!["a.rs::f".into()],
        };
        let j = f.to_json();
        assert!(j.contains("\\\"hi\\\""));
        assert!(j.contains("\"code\":\"CM-A006\""));
        assert!(j.contains("\"rule\":\"relaxed-ordering\""));
    }
}
