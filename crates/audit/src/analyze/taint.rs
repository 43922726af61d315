//! Taint tracking: untrusted values reaching unchecked sinks
//! (CM-A011, CM-A012).
//!
//! The planned query server feeds the embedder from *untrusted* shape
//! queries and JSONL traces; a hostile `{"shape":[9,9,99999999]}` must
//! die at a validation boundary, not inside a slice index. This pass
//! tracks values from untrusted **sources** through assignments, loops,
//! and the interprocedural call graph into **sinks**:
//!
//! * `CM-A011` `taint-unchecked-sink` — a tainted value reaches a slice
//!   index (`xs[i]`) or `Vec::with_capacity` without validation;
//! * `CM-A012` `taint-unvalidated-shape` — a tainted value reaches a
//!   shape constructor (`Shape::new`, any `Shape::…` call) without
//!   validation.
//!
//! **Sources** are environment reads (`env::var`, `env::args`) plus any
//! function a file *declares* untrusted with an analyzer-visible
//! annotation:
//!
//! ```text
//! // audit: taint-source(parse_trace_line)
//! ```
//!
//! **Sanitizers** clear taint: functions named `validate*`/`check*`/
//! `sanitize*`/`is_valid*`, explicit bounding (`.min(…)`, `.clamp(…)`,
//! `%`), or an annotated `audit: taint-sanitizer(name)`. Clearing is
//! statement-granular: any statement that routes a value through a
//! sanitizer launders every identifier in that statement — coarse, but
//! it makes the *boundary* pattern (`let rec = decode(line)?;
//! validate_record(&rec)?;`) pass clean while a decode that skips the
//! boundary does not.
//!
//! Taint is a set of labels per variable: `Source` (an untrusted read in
//! this function, with its line for def-use evidence) or `Param(i)`
//! (the value arrived through parameter `i`). `Param` labels feed
//! interprocedural *summaries* — "this function sinks parameter `i`
//! unvalidated" — propagated to a fixpoint over recorded call sites, so
//! a tainted value passed through two layers of helpers still produces
//! a finding, with the call path as evidence.

use super::{Code, Finding};
use crate::ast::{File, FnItem, Workspace};
use crate::cfg::Cfg;
use crate::dataflow::{solve, Lattice, Transfer};
use crate::lexer::{Delim, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// One taint label.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Taint {
    /// Untrusted read at this 1-based line of the current function.
    Source(u32),
    /// Arrived through the function's parameter `i`.
    Param(usize),
}

type TaintSet = BTreeSet<Taint>;

/// Dataflow state: variable name → taint labels. Join is union; the
/// lattice is finite (params and source lines are bounded), so no
/// widening is needed.
#[derive(Clone, PartialEq, Default)]
struct Env {
    vars: BTreeMap<String, TaintSet>,
}

impl Lattice for Env {
    fn bottom() -> Self {
        Env::default()
    }
    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (k, v) in &other.vars {
            let e = self.vars.entry(k.clone()).or_default();
            let before = e.len();
            e.extend(v.iter().copied());
            changed |= e.len() != before;
        }
        changed
    }
}

/// Source/sanitizer sets, built-in plus annotation-declared.
#[derive(Debug, Default)]
pub struct TaintApis {
    sources: Vec<String>,
    sanitizers: Vec<String>,
}

impl TaintApis {
    /// Collect `audit: taint-source(name)` / `audit: taint-sanitizer(name)`
    /// annotations from every file in the workspace.
    pub fn collect(ws: &Workspace) -> TaintApis {
        let mut apis = TaintApis::default();
        for f in &ws.files {
            for (marker, is_source) in [
                ("audit: taint-source(", true),
                ("audit: taint-sanitizer(", false),
            ] {
                for (pos, _) in f.src.match_indices(marker) {
                    let rest = &f.src[pos + marker.len()..];
                    if let Some(end) = rest.find(')') {
                        let name = rest[..end].trim().to_string();
                        if name.is_empty()
                            || !name.chars().all(|c| c == '_' || c.is_ascii_alphanumeric())
                        {
                            continue;
                        }
                        let set = if is_source {
                            &mut apis.sources
                        } else {
                            &mut apis.sanitizers
                        };
                        if !set.contains(&name) {
                            set.push(name);
                        }
                    }
                }
            }
        }
        apis
    }

    fn is_source_call(&self, file: &File, ident: usize) -> bool {
        let name = file.text(ident);
        if self.sources.iter().any(|s| s == name) {
            return true;
        }
        // `env::var` / `env::args`.
        if name == "var" || name == "args" {
            if let Some(c1) = file.prev_code(ident) {
                if file.is(c1, ":") {
                    if let Some(c2) = file.prev_code(c1) {
                        if file.is(c2, ":") {
                            if let Some(seg) = file.prev_code(c2) {
                                return file.is(seg, "env");
                            }
                        }
                    }
                }
            }
        }
        false
    }

    fn is_sanitizer_name(&self, name: &str) -> bool {
        name.starts_with("validate")
            || name.starts_with("check")
            || name.starts_with("sanitize")
            || name.starts_with("is_valid")
            || name == "min"
            || name == "clamp"
            || self.sanitizers.iter().any(|s| s == name)
    }
}

/// What kind of sink a tainted value reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum SinkKind {
    /// Slice/array indexing.
    Index,
    /// `Vec::with_capacity` (allocation sized by the value).
    Capacity,
    /// `Shape::…` constructor.
    ShapeCtor,
}

impl SinkKind {
    fn code(self) -> Code {
        match self {
            SinkKind::Index | SinkKind::Capacity => Code::TaintUncheckedSink,
            SinkKind::ShapeCtor => Code::TaintUnvalidatedShape,
        }
    }
    fn describe(self) -> &'static str {
        match self {
            SinkKind::Index => "slice index",
            SinkKind::Capacity => "Vec::with_capacity",
            SinkKind::ShapeCtor => "shape constructor",
        }
    }
}

/// A sink reached by a `Param(i)` label: one function-summary entry.
#[derive(Clone, Debug)]
struct ParamSink {
    kind: SinkKind,
    file: String,
    line: u32,
    /// Qualified-function chain from this function down to the sink.
    chain: Vec<String>,
}

/// A recorded call to a workspace function, with per-argument taints.
#[derive(Clone, Debug)]
struct CallRec {
    caller: usize,
    callee: String,
    line: u32,
    /// Taint of each argument (receiver of a method call is arg 0 when
    /// the callee's first parameter is `self`).
    args: Vec<TaintSet>,
    method: bool,
}

/// Entry point.
pub fn check(ws: &Workspace, findings: &mut Vec<Finding>) {
    let apis = TaintApis::collect(ws);
    let mut recs: Vec<CallRec> = Vec::new();
    // name → param index → representative sink (function summaries).
    let mut summaries: BTreeMap<String, BTreeMap<usize, ParamSink>> = BTreeMap::new();
    // name → parameter counts of summarized definitions. The call graph
    // is name-based, so `events.push(ev)` would otherwise pick up a
    // summary for an unrelated 3-parameter `push`; a summary only
    // applies to calls whose argument count matches some summarized
    // definition of that name.
    let mut arity: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    // fn index → (name, params-take-self, param count) for propagation.
    let mut fn_meta: Vec<(usize, Vec<String>)> = Vec::new();

    for (fi, f) in ws.lib_fns() {
        if f.is_closure {
            continue;
        }
        let file = &ws.files[f.file];
        if f.body.start >= file.tokens.len()
            || file.in_macro_def(file.tokens[f.body.start].span.start)
        {
            continue;
        }
        let params = param_idents(file, f);
        let cfg = Cfg::build(file, f);
        let pass = TaintPass { file, apis: &apis };
        let mut entry = Env::default();
        for (i, p) in params.iter().enumerate() {
            entry
                .vars
                .entry(p.clone())
                .or_default()
                .insert(Taint::Param(i));
        }
        let states = solve(&cfg, &pass, entry);
        let mut out = Report::default();
        for (b, state) in states.iter().enumerate() {
            let mut env = state.clone();
            pass.walk_block(&cfg.blocks[b].tokens, &mut env, Some(&mut out));
        }
        // Local Source → sink findings.
        for hit in &out.hits {
            let mut src_lines: Vec<u32> = hit
                .taint
                .iter()
                .filter_map(|t| match t {
                    Taint::Source(l) => Some(*l),
                    Taint::Param(_) => None,
                })
                .collect();
            src_lines.dedup();
            if !src_lines.is_empty() {
                let mut path = vec![f.qual.clone()];
                for l in &src_lines {
                    path.push(format!("untrusted read at {}:{l}", file.label));
                }
                findings.push(Finding {
                    code: hit.kind.code(),
                    file: file.label.clone(),
                    line: hit.line,
                    message: format!(
                        "untrusted value reaches {} without validation; route it \
                         through a validate_/check_ boundary or bound it first",
                        hit.kind.describe()
                    ),
                    path,
                });
            }
            // Param-labelled hits seed the function summary.
            for t in &hit.taint {
                if let Taint::Param(p) = t {
                    summaries
                        .entry(f.name.clone())
                        .or_default()
                        .entry(*p)
                        .or_insert_with(|| ParamSink {
                            kind: hit.kind,
                            file: file.label.clone(),
                            line: hit.line,
                            chain: vec![f.qual.clone()],
                        });
                    arity
                        .entry(f.name.clone())
                        .or_default()
                        .insert(params.len());
                }
            }
        }
        for mut r in out.calls {
            r.caller = fi;
            recs.push(r);
        }
        fn_meta.push((fi, params));
    }

    // Fixpoint: a caller passing its own Param(p) into a summarized
    // parameter sinks p too (bounded: summaries only grow).
    let param_of = |fi: usize| -> Option<&Vec<String>> {
        fn_meta.iter().find(|(i, _)| *i == fi).map(|(_, p)| p)
    };
    loop {
        let mut changed = false;
        for r in &recs {
            let Some(callee_sum) = summaries.get(&r.callee).cloned() else {
                continue;
            };
            if !arity
                .get(&r.callee)
                .is_some_and(|a| a.contains(&r.args.len()))
            {
                continue;
            }
            let caller = &ws.fns[r.caller];
            let caller_file = &ws.files[caller.file];
            for (q, sink) in &callee_sum {
                let arg_at = arg_index(ws, r, *q);
                let Some(taint) = arg_at.and_then(|a| r.args.get(a)) else {
                    continue;
                };
                for t in taint {
                    if let Taint::Param(p) = t {
                        let entry = summaries.entry(caller.name.clone()).or_default().entry(*p);
                        if let std::collections::btree_map::Entry::Vacant(v) = entry {
                            let mut chain = vec![caller.qual.clone()];
                            chain.extend(sink.chain.iter().cloned());
                            v.insert(ParamSink {
                                kind: sink.kind,
                                file: sink.file.clone(),
                                line: sink.line,
                                chain,
                            });
                            if let Some(ps) = param_of(r.caller) {
                                arity
                                    .entry(caller.name.clone())
                                    .or_default()
                                    .insert(ps.len());
                            }
                            changed = true;
                        }
                    }
                }
            }
            let _ = caller_file;
        }
        if !changed {
            break;
        }
    }

    // Interprocedural findings: a locally-tainted value passed into a
    // summarized parameter.
    for r in &recs {
        let Some(callee_sum) = summaries.get(&r.callee) else {
            continue;
        };
        if !arity
            .get(&r.callee)
            .is_some_and(|a| a.contains(&r.args.len()))
        {
            continue;
        }
        let caller = &ws.fns[r.caller];
        let caller_file = &ws.files[caller.file];
        for (q, sink) in callee_sum {
            let arg_at = arg_index(ws, r, *q);
            let Some(taint) = arg_at.and_then(|a| r.args.get(a)) else {
                continue;
            };
            if taint.iter().any(|t| matches!(t, Taint::Source(_))) {
                let mut path = vec![caller.qual.clone()];
                path.extend(sink.chain.iter().cloned());
                findings.push(Finding {
                    code: sink.kind.code(),
                    file: caller_file.label.clone(),
                    line: r.line,
                    message: format!(
                        "untrusted value flows into `{}`, which passes it to a {} \
                         without validation (sink at {}:{})",
                        r.callee,
                        sink.kind.describe(),
                        sink.file,
                        sink.line
                    ),
                    path,
                });
            }
        }
    }
}

/// Map a callee parameter index to the recorded argument index: a
/// method call's receiver occupies arg 0 exactly when the callee's
/// first parameter is `self`.
fn arg_index(ws: &Workspace, r: &CallRec, param: usize) -> Option<usize> {
    let takes_self = ws.fns.iter().filter(|f| f.name == r.callee).any(|f| {
        ws.files[f.file].tokens[f.sig.clone()].iter().any(|t| {
            t.is_code() && t.kind == TokKind::Ident && t.text(&ws.files[f.file].src) == "self"
        })
    });
    if r.method && !takes_self {
        // Receiver recorded at 0 but callee has no self: shift.
        Some(param + 1)
    } else {
        Some(param)
    }
}

/// Parameter identifiers in declaration order (`self` included).
fn param_idents(file: &File, f: &FnItem) -> Vec<String> {
    let mut out = Vec::new();
    let mut open = None;
    for i in f.sig.clone() {
        if i < file.tokens.len()
            && file.tokens[i].is_code()
            && file.tokens[i].kind == TokKind::Open(Delim::Paren)
        {
            open = Some(i);
            break;
        }
    }
    let Some(open) = open else { return out };
    let close = file.matching(open);
    let mut depth = 0i32;
    for j in open + 1..close {
        let t = &file.tokens[j];
        if !t.is_code() {
            continue;
        }
        match t.kind {
            TokKind::Open(_) => depth += 1,
            TokKind::Close(_) => depth -= 1,
            TokKind::Ident if depth == 0 => {
                let name = file.text(j);
                if name == "self" {
                    out.push("self".to_owned());
                } else if name != "mut"
                    && name != "ref"
                    && file
                        .next_code(j + 1)
                        .map(|k| file.is(k, ":"))
                        .unwrap_or(false)
                {
                    out.push(name.to_owned());
                }
            }
            _ => {}
        }
    }
    out
}

/// A sink reached during the report walk.
#[derive(Debug)]
struct SinkHit {
    kind: SinkKind,
    line: u32,
    taint: TaintSet,
}

#[derive(Debug, Default)]
struct Report {
    hits: Vec<SinkHit>,
    calls: Vec<CallRec>,
}

struct TaintPass<'a> {
    file: &'a File,
    apis: &'a TaintApis,
}

impl Transfer for TaintPass<'_> {
    type State = Env;
    fn transfer(&self, cfg: &Cfg, b: usize, state: &mut Env) {
        self.walk_block(&cfg.blocks[b].tokens, state, None);
    }
}

impl TaintPass<'_> {
    /// Interpret one block statement-by-statement (split at depth-0
    /// `;`), updating the taint environment and — when reporting —
    /// recording sinks and workspace call sites.
    fn walk_block(&self, tokens: &[usize], env: &mut Env, mut report: Option<&mut Report>) {
        let file = self.file;
        let mut start = 0usize;
        let mut depth = 0i32;
        for p in 0..tokens.len() {
            let i = tokens[p];
            match file.tokens[i].kind {
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => depth -= 1,
                TokKind::Punct if depth == 0 && file.is(i, ";") => {
                    self.statement(&tokens[start..p], env, report.as_deref_mut());
                    start = p + 1;
                }
                _ => {}
            }
        }
        if start < tokens.len() {
            self.statement(&tokens[start..], env, report);
        }
    }

    fn statement(&self, stmt: &[usize], env: &mut Env, mut report: Option<&mut Report>) {
        if stmt.is_empty() {
            return;
        }
        let file = self.file;
        let sanitized = self.has_sanitizer(stmt);
        // Report sinks and calls first (a sanitizer in the same
        // statement launders it — `xs[i.min(cap)]` is fine).
        if !sanitized {
            self.scan_sinks(stmt, env, report.as_deref_mut());
        }
        self.record_calls(stmt, env, sanitized, report.take());

        if sanitized {
            // Statement-granular laundering: every identifier touched
            // by a validation statement is now trusted.
            for &i in stmt {
                if file.tokens[i].kind == TokKind::Ident {
                    env.vars.remove(file.text(i));
                }
            }
            return;
        }

        // Bindings: `let PAT = RHS`, `for PAT in RHS`, `x = RHS`,
        // `x op= RHS`.
        let first = stmt[0];
        if file.tokens[first].kind == TokKind::Ident {
            match file.text(first) {
                "for" => {
                    if let Some(in_at) = stmt.iter().position(|&i| file.is(i, "in")) {
                        let taint = self.expr_taint(&stmt[in_at + 1..], env);
                        for &i in &stmt[1..in_at] {
                            self.bind_pattern_ident(i, &taint, env);
                        }
                    }
                    return;
                }
                "if" | "while" | "match" | "return" => {
                    // `if let PAT = RHS` binds; plain conditions don't.
                    if stmt.len() > 1 && file.is(stmt[1], "let") {
                        self.let_like(&stmt[1..], env);
                    }
                    return;
                }
                "let" => {
                    self.let_like(stmt, env);
                    return;
                }
                _ => {}
            }
            // Assignment `x = …` / `x op= …` (not `==`).
            if stmt.len() >= 3 && file.tokens[stmt[0]].kind == TokKind::Ident {
                let mut eq = None;
                for w in 1..stmt.len().min(4) {
                    if file.is(stmt[w], "=")
                        && stmt.get(w + 1).map(|&n| file.is(n, "=")) != Some(true)
                        && !file.is(stmt[w - 1], "=")
                        && !file.is(stmt[w - 1], "!")
                        && !file.is(stmt[w - 1], "<")
                        && !file.is(stmt[w - 1], ">")
                    {
                        eq = Some(w);
                        break;
                    }
                }
                if let Some(w) = eq {
                    let taint = self.expr_taint(&stmt[w + 1..], env);
                    let name = file.text(stmt[0]).to_owned();
                    if taint.is_empty() {
                        env.vars.remove(&name);
                    } else {
                        env.vars.insert(name, taint);
                    }
                }
            }
        }
    }

    /// `let PAT = RHS` (also reached for `if let`/`while let` tails).
    fn let_like(&self, stmt: &[usize], env: &mut Env) {
        let file = self.file;
        let mut depth = 0i32;
        let mut eq = None;
        for (w, &i) in stmt.iter().enumerate().skip(1) {
            match file.tokens[i].kind {
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => depth -= 1,
                TokKind::Punct
                    if depth == 0
                        && file.is(i, "=")
                        && stmt.get(w + 1).map(|&n| file.is(n, "=")) != Some(true)
                        && !file.is(stmt[w - 1], "=")
                        && !file.is(stmt[w - 1], "!")
                        && !file.is(stmt[w - 1], "<")
                        && !file.is(stmt[w - 1], ">") =>
                {
                    eq = Some(w);
                    break;
                }
                _ => {}
            }
        }
        let Some(w) = eq else { return };
        let taint = self.expr_taint(&stmt[w + 1..], env);
        for &i in &stmt[1..w] {
            self.bind_pattern_ident(i, &taint, env);
        }
    }

    /// Bind one pattern identifier (skipping keywords, path segments,
    /// and enum constructors, which are capitalized).
    fn bind_pattern_ident(&self, i: usize, taint: &TaintSet, env: &mut Env) {
        let file = self.file;
        if file.tokens[i].kind != TokKind::Ident {
            return;
        }
        let name = file.text(i);
        if matches!(name, "mut" | "ref" | "_" | "box")
            || name.starts_with(|c: char| c.is_ascii_uppercase())
        {
            return;
        }
        if taint.is_empty() {
            env.vars.remove(name);
        } else {
            env.vars.insert(name.to_owned(), taint.clone());
        }
    }

    /// Union taint of an expression: tainted identifiers plus `Source`
    /// for any untrusted read; a sanitizer anywhere in the chain
    /// launders the whole expression.
    fn expr_taint(&self, expr: &[usize], env: &Env) -> TaintSet {
        let file = self.file;
        if self.has_sanitizer(expr) {
            return TaintSet::new();
        }
        let mut out = TaintSet::new();
        for (p, &i) in expr.iter().enumerate() {
            let t = &file.tokens[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let is_call = expr
                .get(p + 1)
                .map(|&n| file.tokens[n].kind == TokKind::Open(Delim::Paren))
                == Some(true);
            if is_call && self.apis.is_source_call(file, i) {
                out.insert(Taint::Source(t.line));
            } else if !is_call {
                if let Some(ts) = env.vars.get(file.text(i)) {
                    out.extend(ts.iter().copied());
                }
            }
        }
        out
    }

    fn has_sanitizer(&self, stmt: &[usize]) -> bool {
        let file = self.file;
        stmt.iter().enumerate().any(|(p, &i)| {
            file.tokens[i].kind == TokKind::Ident
                && self.apis.is_sanitizer_name(file.text(i))
                && stmt
                    .get(p + 1)
                    .map(|&n| file.tokens[n].kind == TokKind::Open(Delim::Paren))
                    == Some(true)
        }) || stmt.iter().any(|&i| {
            // Modulo bounds the value.
            file.tokens[i].kind == TokKind::Punct
                && file.is(i, "%")
                && file
                    .prev_code(i)
                    .map(|p| {
                        matches!(
                            file.tokens[p].kind,
                            TokKind::Ident | TokKind::Close(_) | TokKind::Literal(_)
                        )
                    })
                    .unwrap_or(false)
        })
    }

    /// Report sinks inside one statement against the current env.
    fn scan_sinks(&self, stmt: &[usize], env: &Env, report: Option<&mut Report>) {
        let Some(report) = report else { return };
        let file = self.file;
        for (p, &i) in stmt.iter().enumerate() {
            let t = &file.tokens[i];
            // Slice index: `expr[ … ]` — open bracket preceded by an
            // operand.
            if t.kind == TokKind::Open(Delim::Bracket) && p > 0 {
                let prev = stmt[p - 1];
                let is_index = match file.tokens[prev].kind {
                    TokKind::Ident => !matches!(
                        file.text(prev),
                        "return" | "in" | "if" | "while" | "match" | "else" | "mut" | "let"
                    ),
                    TokKind::Close(_) => true,
                    _ => false,
                };
                if is_index && !file.in_macro_def(t.span.start) {
                    let close = file.matching(i);
                    let inner: Vec<usize> = stmt[p + 1..]
                        .iter()
                        .copied()
                        .take_while(|&k| k < close)
                        .collect();
                    let taint = self.expr_taint(&inner, env);
                    if !taint.is_empty() {
                        report.hits.push(SinkHit {
                            kind: SinkKind::Index,
                            line: t.line,
                            taint,
                        });
                    }
                }
            }
            if t.kind == TokKind::Ident {
                let name = file.text(i);
                let is_call = stmt
                    .get(p + 1)
                    .map(|&n| file.tokens[n].kind == TokKind::Open(Delim::Paren))
                    == Some(true);
                if !is_call {
                    continue;
                }
                let kind = if name == "with_capacity" {
                    Some(SinkKind::Capacity)
                } else if self.is_shape_ctor(stmt, p) {
                    Some(SinkKind::ShapeCtor)
                } else {
                    None
                };
                if let Some(kind) = kind {
                    if file.in_macro_def(t.span.start) {
                        continue;
                    }
                    let open = stmt[p + 1];
                    let close = file.matching(open);
                    let inner: Vec<usize> = stmt[p + 2..]
                        .iter()
                        .copied()
                        .take_while(|&k| k < close)
                        .collect();
                    let taint = self.expr_taint(&inner, env);
                    if !taint.is_empty() {
                        report.hits.push(SinkHit {
                            kind,
                            line: t.line,
                            taint,
                        });
                    }
                }
            }
        }
    }

    /// Is the call at statement position `p` a `Shape::…` constructor?
    fn is_shape_ctor(&self, stmt: &[usize], p: usize) -> bool {
        let file = self.file;
        // Walk back over `:: segment` pairs looking for `Shape`.
        let mut q = p;
        while q >= 2 && file.is(stmt[q - 1], ":") && q >= 3 && file.is(stmt[q - 2], ":") {
            q -= 3;
            if q < stmt.len()
                && file.tokens[stmt[q]].kind == TokKind::Ident
                && file.text(stmt[q]) == "Shape"
            {
                return true;
            }
            if q == 0 {
                break;
            }
        }
        false
    }

    /// Record workspace-call argument taints for the interprocedural
    /// fixpoint.
    fn record_calls(
        &self,
        stmt: &[usize],
        env: &Env,
        sanitized: bool,
        report: Option<&mut Report>,
    ) {
        let Some(report) = report else { return };
        if sanitized {
            return;
        }
        let file = self.file;
        for (p, &i) in stmt.iter().enumerate() {
            let t = &file.tokens[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let Some(&open_tok) = stmt.get(p + 1) else {
                continue;
            };
            if file.tokens[open_tok].kind != TokKind::Open(Delim::Paren) {
                continue;
            }
            // Macros (`name!(…)`) are not workspace calls.
            if file.prev_code(i).map(|b| file.is(b, "!")) == Some(true)
                || file
                    .next_code(i + 1)
                    .map(|n| file.is(n, "!"))
                    .unwrap_or(false)
            {
                continue;
            }
            let name = file.text(i).to_owned();
            let close = file.matching(open_tok);
            // Split args at depth-0 commas (relative to the group).
            let mut args: Vec<TaintSet> = Vec::new();
            let mut cur: Vec<usize> = Vec::new();
            let mut depth = 0i32;
            for &k in stmt[p + 2..].iter().take_while(|&&k| k < close) {
                match file.tokens[k].kind {
                    TokKind::Open(_) => {
                        depth += 1;
                        cur.push(k);
                    }
                    TokKind::Close(_) => {
                        depth -= 1;
                        cur.push(k);
                    }
                    TokKind::Punct if depth == 0 && file.is(k, ",") => {
                        args.push(self.expr_taint(&cur, env));
                        cur.clear();
                    }
                    _ => cur.push(k),
                }
            }
            if !cur.is_empty() {
                args.push(self.expr_taint(&cur, env));
            }
            // Method call: receiver taint goes in front as arg 0.
            let method = file.prev_code(i).map(|b| file.is(b, ".")) == Some(true);
            if method {
                let mut recv = TaintSet::new();
                if let Some(dot) = file.prev_code(i) {
                    if let Some(r) = file.prev_code(dot) {
                        if file.tokens[r].kind == TokKind::Ident {
                            if let Some(ts) = env.vars.get(file.text(r)) {
                                recv.extend(ts.iter().copied());
                            }
                        }
                    }
                }
                args.insert(0, recv);
            }
            if args.iter().all(|a| a.is_empty()) {
                continue;
            }
            report.calls.push(CallRec {
                caller: 0, // patched by the driver
                callee: name,
                line: t.line,
                args,
                method,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::analyze_str;

    fn codes(src: &str) -> Vec<&'static str> {
        analyze_str(src).iter().map(|f| f.code.as_str()).collect()
    }

    #[test]
    fn env_read_to_index_fires() {
        let c = codes(
            "use std::env;\npub fn f(xs: &[u32]) -> u32 {\n    let k = env::var(\"K\").ok().and_then(|v| v.parse().ok()).unwrap_or(0);\n    xs[k]\n}\n",
        );
        assert!(c.contains(&"CM-A011"), "{c:?}");
    }

    #[test]
    fn bounded_env_read_passes() {
        let c = codes(
            "use std::env;\npub fn f(xs: &[u32]) -> u32 {\n    let k = env::var(\"K\").ok().and_then(|v| v.parse().ok()).unwrap_or(0);\n    xs[k.min(xs.len() - 1)]\n}\n",
        );
        assert!(!c.contains(&"CM-A011"), "{c:?}");
    }

    #[test]
    fn annotated_source_to_capacity_fires() {
        let c = codes(
            "// audit: taint-source(decode_len)\npub fn decode_len(s: &str) -> usize {\n    s.len()\n}\npub fn f(s: &str) -> Vec<u8> {\n    let n = decode_len(s);\n    Vec::with_capacity(n)\n}\n",
        );
        assert!(c.contains(&"CM-A011"), "{c:?}");
    }

    #[test]
    fn validated_boundary_passes() {
        let c = codes(
            "// audit: taint-source(decode_len)\npub fn decode_len(s: &str) -> usize {\n    s.len()\n}\nfn validate_len(n: usize) -> usize {\n    n\n}\npub fn f(s: &str) -> Vec<u8> {\n    let n = decode_len(s);\n    let n = validate_len(n);\n    Vec::with_capacity(n)\n}\n",
        );
        assert!(!c.contains(&"CM-A011"), "{c:?}");
    }

    #[test]
    fn taint_through_helper_fires_with_path() {
        let fs = analyze_str(
            "use std::env;\nfn sink_helper(xs: &[u32], pos: usize) -> u32 {\n    xs[pos]\n}\npub fn f(xs: &[u32]) -> u32 {\n    let k = env::var(\"K\").ok().and_then(|v| v.parse().ok()).unwrap_or(0);\n    sink_helper(xs, k)\n}\n",
        );
        let hit = fs.iter().find(|f| f.code.as_str() == "CM-A011");
        assert!(hit.is_some(), "{fs:?}");
        assert!(hit.unwrap().path.len() >= 2, "{:?}", hit.unwrap().path);
    }

    #[test]
    fn tainted_shape_ctor_fires() {
        let c = codes(
            "use std::env;\npub struct Shape(Vec<usize>);\nimpl Shape {\n    pub fn new(d: Vec<usize>) -> Shape {\n        Shape(d)\n    }\n}\npub fn f() -> Shape {\n    let d = env::var(\"D\").ok().and_then(|v| v.parse().ok()).unwrap_or(1);\n    Shape::new(vec![d])\n}\n",
        );
        assert!(c.contains(&"CM-A012"), "{c:?}");
    }

    #[test]
    fn untainted_index_passes() {
        let c = codes("pub fn f(xs: &[u32]) -> u32 {\n    let k = xs.len() / 2;\n    xs[k]\n}\n");
        assert!(!c.contains(&"CM-A011"), "{c:?}");
    }
}
