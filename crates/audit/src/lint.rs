//! Source-level lints over the workspace's own library code.
//!
//! Two rules, both enforced by `cubemesh-audit lint` in the repo gate:
//!
//! * **alloc-in-chunk-loop** (`CM-L006`) — `Vec::new()` / `vec![…]`
//!   inside a loop whose header mentions `chunk` or `shard` allocates
//!   once per chunk on the hot parallel-lowering path; hoist the buffer
//!   out and `clear()` it.
//! * **shared-mut-in-worker** (`CM-L007`) — `static mut` anywhere, or
//!   `RefCell::new(…)` / `Cell::new(…)` inside a function that also
//!   spawns workers (`spawn(`, `par_iter`, `…::scope(`, `run_tasks(`):
//!   non-`Sync` interior mutability next to fan-out is either a data
//!   race waiting for a real-threads build or a refactoring trap. Use
//!   per-worker state plus a reduction instead.
//!
//! Panic discipline, narrowing casts, `# Panics` docs, waivers and
//! dropped `#[must_use]` values are not checked here: the workspace's
//! `[workspace.lints]` table hands them to clippy and rustc (see the
//! root `Cargo.toml`).
//!
//! The rules are line-pattern matchers over the real token stream:
//! [`lint_source`] lexes the file with [`crate::lexer`] and matches
//! against its [`crate::lexer::code_view`] — an offset- and
//! line-identical view of the source in which every comment and
//! string/char-literal byte is blank. `#[cfg(test)]` items are then
//! masked by brace matching, and worker-cell findings are attributed to
//! their enclosing `fn`.
//!
//! Each rule keeps its stable diagnostic code, and `cubemesh-audit lint
//! --json` emits findings in the same `cubemesh-audit-diag/v1` schema as
//! `analyze --json`.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The lint rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Allocation inside a chunk/shard loop body.
    AllocInChunkLoop,
    /// Non-`Sync` interior mutability in a worker-spawning function, or
    /// `static mut` anywhere.
    SharedMutInWorker,
}

impl Rule {
    /// Stable diagnostic code, never renumbered. Shares the `CM-`
    /// namespace with the analyzer's `CM-A…` codes.
    pub fn code(&self) -> &'static str {
        match self {
            Rule::AllocInChunkLoop => "CM-L006",
            Rule::SharedMutInWorker => "CM-L007",
        }
    }

    /// Human-readable rule slug.
    pub fn slug(&self) -> &'static str {
        match self {
            Rule::AllocInChunkLoop => "alloc-in-chunk-loop",
            Rule::SharedMutInWorker => "shared-mut-in-worker",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.slug())
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{} {}] {}",
            self.file,
            self.line,
            self.rule.code(),
            self.rule,
            self.message
        )
    }
}

impl Violation {
    /// Render as one JSON object in the shared `cubemesh-audit-diag/v1`
    /// finding schema (same shape as the analyzer's findings; lint
    /// findings have no call path).
    pub fn to_json(&self) -> String {
        crate::analyze::finding_json(
            self.rule.code(),
            self.rule.slug(),
            &self.file,
            u32::try_from(self.line).unwrap_or(u32::MAX),
            &self.message,
            &[],
        )
    }
}

/// Render a full `lint --json` report in the `cubemesh-audit-diag/v1`
/// schema, mirroring [`crate::analyze::Analysis::to_json`].
pub fn lint_report_json(violations: &[Violation], files: usize, elapsed_ms: u128) -> String {
    let body: Vec<String> = violations.iter().map(Violation::to_json).collect();
    format!(
        "{{\"schema\":\"cubemesh-audit-diag/v1\",\"tool\":\"lint\",\"files\":{},\
         \"elapsed_ms\":{},\"findings\":[{}]}}",
        files,
        elapsed_ms,
        body.join(",\n ")
    )
}

/// A function body located in cleaned source.
#[derive(Clone, Debug)]
struct FnSpan {
    name: String,
    body: std::ops::Range<usize>,
}

/// Locate every `fn` body and every `#[cfg(test)]` item range in cleaned
/// source.
fn scan_items(clean: &str) -> (Vec<FnSpan>, Vec<std::ops::Range<usize>>) {
    let b = clean.as_bytes();
    let n = b.len();
    let mut fns: Vec<FnSpan> = Vec::new();
    let mut test_ranges: Vec<std::ops::Range<usize>> = Vec::new();
    // Pending declarations waiting for their opening brace.
    let mut pending_fn: Option<String> = None;
    let mut pending_tests = 0usize;
    // Open items: (brace_depth_at_open, fn index or usize::MAX for a test item, start).
    let mut stack: Vec<(usize, usize, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut paren = 0i32;
    let mut i = 0;
    while i < n {
        match b[i] {
            b'(' | b'[' => paren += 1,
            b')' | b']' => paren -= 1,
            b';' if paren == 0 => {
                pending_fn = None;
                pending_tests = 0;
            }
            b'{' => {
                if pending_tests > 0 {
                    stack.push((depth, usize::MAX, i));
                    pending_tests -= 1;
                    // A test mod swallows any pending fn decl ordering.
                } else if let Some(name) = pending_fn.take() {
                    if paren == 0 {
                        fns.push(FnSpan { name, body: i..n });
                        stack.push((depth, fns.len() - 1, i));
                    }
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                if let Some(&(d, idx, start)) = stack.last() {
                    if d == depth {
                        stack.pop();
                        if idx == usize::MAX {
                            test_ranges.push(start..i + 1);
                        } else {
                            fns[idx].body = start..i + 1;
                        }
                    }
                }
            }
            b'#' if clean[i..].starts_with("#[cfg(test)]") => {
                pending_tests += 1;
            }
            b'f' if clean[i..].starts_with("fn")
                && (i == 0 || !is_ident_byte(b[i - 1]))
                && i + 2 < n
                && !is_ident_byte(b[i + 2]) =>
            {
                // Parse the identifier after `fn`.
                let mut j = i + 2;
                while j < n && (b[j] == b' ' || b[j] == b'\n' || b[j] == b'\t') {
                    j += 1;
                }
                let start = j;
                while j < n && is_ident_byte(b[j]) {
                    j += 1;
                }
                if j > start {
                    pending_fn = Some(clean[start..j].to_owned());
                }
                i = j;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    (fns, test_ranges)
}

/// Byte offset of the start of each line, for offset → line mapping.
fn line_offsets(text: &str) -> Vec<usize> {
    let mut offs = vec![0usize];
    for (i, c) in text.bytes().enumerate() {
        if c == b'\n' {
            offs.push(i + 1);
        }
    }
    offs
}

fn is_ident_byte(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Worker fan-out markers for **shared-mut-in-worker**.
const WORKER_APIS: [&str; 4] = ["spawn(", "par_iter", "::scope(", "run_tasks("];

/// Lint one library source file. `label` is the repo-relative path used
/// in reports.
pub fn lint_source(label: &str, text: &str) -> Vec<Violation> {
    let tokens = crate::lexer::lex(text);
    let clean = crate::lexer::code_view(text, &tokens);
    let (fns, test_ranges) = scan_items(&clean);
    let offsets = line_offsets(&clean);
    let in_tests = |off: usize| test_ranges.iter().any(|r| r.contains(&off));
    let line_of = |off: usize| offsets.partition_point(|&o| o <= off);

    let mut out = Vec::new();
    for (off, _) in clean.match_indices("static mut") {
        if in_tests(off) {
            continue;
        }
        out.push(Violation {
            file: label.to_owned(),
            line: line_of(off),
            rule: Rule::SharedMutInWorker,
            message: "`static mut` is an unconditional data race under real threads; \
                      use an atomic, a lock, or per-worker state"
                .to_owned(),
        });
    }
    scan_chunk_loop_allocs(label, &clean, &in_tests, &line_of, &mut out);
    scan_worker_cells(label, &clean, &fns, &in_tests, &line_of, &mut out);
    out.sort_by_key(|a| (a.line, a.rule as usize));
    out
}

/// **alloc-in-chunk-loop**: find `for`/`while` loops whose header (the
/// text between the keyword and the body's opening brace) mentions
/// `chunk` or `shard`, then flag every `Vec::new()` / `vec![` in the
/// loop body.
fn scan_chunk_loop_allocs(
    label: &str,
    clean: &str,
    in_tests: &dyn Fn(usize) -> bool,
    line_of: &dyn Fn(usize) -> usize,
    out: &mut Vec<Violation>,
) {
    let b = clean.as_bytes();
    let n = b.len();
    for kw in ["for", "while"] {
        for (kw_off, _) in clean.match_indices(kw) {
            let bounded = (kw_off == 0 || !is_ident_byte(b[kw_off - 1]))
                && kw_off + kw.len() < n
                && !is_ident_byte(b[kw_off + kw.len()]);
            if !bounded || in_tests(kw_off) {
                continue;
            }
            // Header runs to the first `{` at bracket depth 0 (a `;` or
            // a second `{`-less construct like `&Striped {` never occurs
            // in a loop header at depth 0).
            let mut j = kw_off + kw.len();
            let mut paren = 0i32;
            let mut body_open = None;
            while j < n {
                match b[j] {
                    b'(' | b'[' => paren += 1,
                    b')' | b']' => paren -= 1,
                    b'{' if paren == 0 => {
                        body_open = Some(j);
                        break;
                    }
                    b';' if paren == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let Some(open) = body_open else { continue };
            let header = clean[kw_off..open].to_ascii_lowercase();
            if !header.contains("chunk") && !header.contains("shard") {
                continue;
            }
            // Matching close brace.
            let mut depth = 0usize;
            let mut close = n;
            for (k, &c) in b.iter().enumerate().take(n).skip(open) {
                match c {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            close = k;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let body = &clean[open..close];
            for pat in ["Vec::new()", "vec!["] {
                for (col, _) in body.match_indices(pat) {
                    let off = open + col;
                    if in_tests(off) {
                        continue;
                    }
                    out.push(Violation {
                        file: label.to_owned(),
                        line: line_of(off),
                        rule: Rule::AllocInChunkLoop,
                        message: format!(
                            "`{pat}` allocates on every iteration of a chunk/shard loop; \
                             hoist the buffer out and `clear()` it"
                        ),
                    });
                }
            }
        }
    }
}

/// **shared-mut-in-worker**: flag `RefCell::new(` / `Cell::new(` inside
/// any function body that also mentions a worker fan-out API.
fn scan_worker_cells(
    label: &str,
    clean: &str,
    fns: &[FnSpan],
    in_tests: &dyn Fn(usize) -> bool,
    line_of: &dyn Fn(usize) -> usize,
    out: &mut Vec<Violation>,
) {
    let b = clean.as_bytes();
    for f in fns {
        if in_tests(f.body.start) {
            continue;
        }
        let body = &clean[f.body.clone()];
        if !WORKER_APIS.iter().any(|api| body.contains(api)) {
            continue;
        }
        for pat in ["RefCell::new(", "Cell::new("] {
            for (col, _) in body.match_indices(pat) {
                let off = f.body.start + col;
                // `Cell::new(` is a suffix of `RefCell::new(`; require a
                // non-identifier boundary so each site fires exactly once.
                if off > 0 && is_ident_byte(b[off - 1]) {
                    continue;
                }
                if in_tests(off) {
                    continue;
                }
                out.push(Violation {
                    file: label.to_owned(),
                    line: line_of(off),
                    rule: Rule::SharedMutInWorker,
                    message: format!(
                        "`{}…)` in worker-spawning fn `{}` is not Sync; keep per-worker \
                         state and reduce afterwards",
                        pat, f.name
                    ),
                });
            }
        }
    }
}

/// Should this path be linted? Library sources only: `**/src/**.rs`,
/// excluding vendored shims, binaries, benches, tests and examples.
fn lintable(rel: &str) -> bool {
    if !rel.ends_with(".rs") {
        return false;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    if !parts.contains(&"src") {
        return false;
    }
    const SKIP: [&str; 7] = [
        "shims", "bin", "benches", "tests", "examples", "target", ".git",
    ];
    !parts.iter().any(|p| SKIP.contains(p))
}

/// Collect every lintable library source under `root` as
/// `(repo-relative label, absolute path)` pairs. Shared by the lint
/// driver and the [`crate::analyze`] engine so both see the same file
/// set.
pub fn walk_lib_sources(root: &Path, files: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    walk(root, root, files)
}

fn walk(dir: &Path, root: &Path, files: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                ".git" | "target" | "shims" | "bin" | "benches" | "tests" | "examples"
            ) {
                continue;
            }
            walk(&path, root, files)?;
        } else {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if lintable(&rel) {
                files.push((rel, path));
            }
        }
    }
    Ok(())
}

/// Lint every library source under `root`. Returns all violations,
/// sorted by file/line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for (rel, path) in &files {
        let text = fs::read_to_string(path)?;
        out.extend(lint_source(rel, &text));
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(text: &str) -> Vec<Violation> {
        lint_source("lib.rs", text)
    }

    #[test]
    fn cfg_test_module_is_ignored() {
        let src =
            "pub fn ok() {}\n\n#[cfg(test)]\nmod tests {\n    static mut HITS: u32 = 0;\n    \
                   fn t() { for chunk in [1u8] { let _ = Vec::<u8>::new(); } }\n}\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trip() {
        let src = "pub fn msg() -> &'static str {\n    // static mut in a comment is fine\n    \
                   \"static mut X\"\n}\n/// Docs may say `static mut` too.\npub fn d() {}\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let src = "pub fn f() -> (char, &'static str) {\n    ('{', r#\"static mut \"X\"\"#)\n}\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn alloc_in_chunk_loop_is_flagged() {
        let src = "pub fn lower(chunks: &[u32]) {\n    for chunk in chunks {\n        let mut buf \
                   = Vec::new();\n        buf.push(*chunk);\n    }\n}\n";
        let v = lint_str(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::AllocInChunkLoop);
        assert_eq!(v[0].line, 3);
        // vec! macro counts too; non-chunk loops do not.
        let v = lint_str(
            "pub fn s(shards: usize) {\n    while shards > 0 {\n        let _ = vec![0u8; 4];\n    \
             }\n}\npub fn ok(xs: &[u32]) {\n    for _x in xs {\n        let _ = Vec::<u8>::new();\n    \
             }\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::AllocInChunkLoop);
    }

    #[test]
    fn shared_mut_in_worker_is_flagged() {
        // static mut fires anywhere.
        let v = lint_str("static mut COUNTER: u64 = 0;\npub fn f() {}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::SharedMutInWorker);
        assert_eq!(v[0].line, 1);
        // RefCell next to a spawn fires; without a worker API it does not.
        let src = "pub fn fan_out() {\n    let acc = RefCell::new(0u64);\n    spawn(|| {});\n    \
                   let _ = acc;\n}\npub fn quiet() {\n    let _ = RefCell::new(1u8);\n}\n";
        let v = lint_str(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::SharedMutInWorker);
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("fan_out"), "{}", v[0].message);
        // A pool fan-out counts as a worker API too.
        let src = "pub fn pooled(n: usize) {\n    let acc = RefCell::new(0u64);\n    \
                   let _ = cubemesh_pool::run_tasks(n, |i| i);\n    let _ = acc;\n}\n";
        let v = lint_str(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::SharedMutInWorker);
        assert!(v[0].message.contains("pooled"), "{}", v[0].message);
    }

    #[test]
    fn byte_strings_do_not_trip_rules() {
        let src = "pub fn f() -> &'static [u8] {\n    b\"static mut \\\"x\\\"\"\n}\n\
                   pub fn g() -> &'static [u8] {\n    br#\"RefCell::new( spawn(\"#\n}\n\
                   pub fn h() -> u8 {\n    b'!'\n}\n";
        assert!(lint_str(src).is_empty(), "{:?}", lint_str(src));
    }

    #[test]
    fn rule_codes_are_stable() {
        // These identifiers are part of the gate's public schema; any
        // renumbering breaks downstream JSON consumers.
        assert_eq!(Rule::AllocInChunkLoop.code(), "CM-L006");
        assert_eq!(Rule::SharedMutInWorker.code(), "CM-L007");
    }

    #[test]
    fn violation_json_uses_shared_schema() {
        let v = Violation {
            file: "crates/x/src/lib.rs".to_owned(),
            line: 7,
            rule: Rule::SharedMutInWorker,
            message: "`static mut` is an unconditional data race".to_owned(),
        };
        let j = v.to_json();
        assert!(j.contains("\"code\":\"CM-L007\""), "{j}");
        assert!(j.contains("\"rule\":\"shared-mut-in-worker\""), "{j}");
        assert!(j.contains("\"line\":7"), "{j}");
        assert!(j.contains("\"path\":[]"), "{j}");
        let report = lint_report_json(&[v], 3, 12);
        assert!(
            report.contains("\"schema\":\"cubemesh-audit-diag/v1\""),
            "{report}"
        );
        assert!(report.contains("\"tool\":\"lint\""), "{report}");
        assert!(report.contains("\"files\":3"), "{report}");
    }

    #[test]
    fn lintable_path_filter() {
        assert!(lintable("crates/core/src/plan.rs"));
        assert!(lintable("src/lib.rs"));
        assert!(!lintable("crates/core/src/bin/tool.rs"));
        assert!(!lintable("crates/shims/rand/src/lib.rs"));
        assert!(!lintable("tests/paper_examples.rs"));
        assert!(!lintable("examples/quickstart.rs"));
        assert!(!lintable("crates/bench/benches/search.rs"));
    }
}
