//! Source-level lints over the workspace's own library code.
//!
//! Rules, all enforced by `cubemesh-audit lint` in the repo gate:
//!
//! * **panic-in-lib** — `.unwrap()`, `.expect(…)`, `panic!`,
//!   `unreachable!`, `todo!` and `unimplemented!` are forbidden in
//!   non-test library code. Provably-infallible or deliberately
//!   validating sites are allowlisted per function in
//!   `audit-allowlist.txt`; every allowlisted function must document its
//!   panic with a `# Panics` doc section (**missing-panics-doc**), and
//!   allowlist entries that no longer match anything are themselves
//!   errors (**unused-allow**) so the list can only shrink.
//! * **narrowing-addr-cast** — an `as` cast of an address-carrying
//!   identifier (name contains `addr`) to a type narrower than the
//!   64-bit cube address space (`u8/u16/u32/i8/i16/i32`) silently drops
//!   high bits for hosts above `Q_32`; compute in `u64` instead.
//! * **shape-product-overflow** — a narrowing `as` cast of a
//!   shape-extent value (identifier mentioning `dim`/`len`/`extent`/
//!   `stride`/`nodes`/`shape`/`factor`, or a parenthesized product of
//!   one) can truncate: extent *products* grow multiplicatively
//!   (a 2¹¹×2¹¹×2¹¹ guest already overflows `u32` node counts). Widen
//!   first, narrow never.
//! * **alloc-in-chunk-loop** — `Vec::new()` / `vec![…]` inside a loop
//!   whose header mentions `chunk` or `shard` allocates once per chunk
//!   on the hot parallel-lowering path; hoist the buffer out and
//!   `clear()` it.
//! * **shared-mut-in-worker** — `static mut` anywhere, or
//!   `RefCell::new(…)` / `Cell::new(…)` inside a function that also
//!   spawns workers (`spawn(`, `par_iter`, `…::scope(`, `run_tasks(`):
//!   non-`Sync` interior mutability next to fan-out is either a data
//!   race waiting for a real-threads build or a refactoring trap. Use
//!   per-worker state plus a reduction instead.
//! * **dropped-span-guard** — a `span!(…)` / `SpanTimer::new(…)` guard
//!   bound to `_` (`let _ = span!(…)`) or left as a bare statement
//!   (`span!(…);`) drops at the end of *that expression*, silently
//!   recording a zero-length span and corrupting every nested span path
//!   opened afterwards. Bind the guard to a named placeholder
//!   (`let _span = span!(…);`) so it lives to the end of the scope.
//!
//! The rules themselves are line-pattern matchers, but since the
//! analyzer landed they run over the real token stream: [`lint_source`]
//! lexes the file with [`crate::lexer`] and matches against its
//! [`crate::lexer::code_view`] — an offset- and line-identical view of
//! the source in which every comment and string/char-literal byte is
//! guaranteed blank *by the lexer*, not by ad-hoc scanning. `#[cfg(test)]`
//! items are then masked by brace matching and violations are attributed
//! to their enclosing `fn` for allowlist lookup. The pre-lexer blanking
//! heuristic survives as [`strip_noncode`], a documented legacy fallback
//! kept only for regression comparison.
//!
//! Every rule carries a stable diagnostic code (`CM-L001`–`CM-L008`),
//! and `cubemesh-audit lint --json` emits findings in the same
//! `cubemesh-audit-diag/v1` schema as `analyze --json`.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The lint rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Panic-family call in non-test library code without an allowlist
    /// entry.
    PanicInLib,
    /// Narrowing cast of an address-carrying value.
    NarrowingAddrCast,
    /// Allowlisted function lacks a `# Panics` doc section.
    MissingPanicsDoc,
    /// Allowlist entry matched nothing.
    UnusedAllow,
    /// Narrowing cast of a shape-extent value or extent product.
    ShapeProductOverflow,
    /// Allocation inside a chunk/shard loop body.
    AllocInChunkLoop,
    /// Non-`Sync` interior mutability in a worker-spawning function, or
    /// `static mut` anywhere.
    SharedMutInWorker,
    /// Span guard dropped immediately (`let _ = span!(…)` or a bare
    /// `span!(…);` statement).
    DroppedSpanGuard,
}

impl Rule {
    /// Stable diagnostic code, never renumbered (`CM-L001`–`CM-L008`).
    /// Shares the `CM-` namespace with the analyzer's `CM-A…` codes.
    pub fn code(&self) -> &'static str {
        match self {
            Rule::PanicInLib => "CM-L001",
            Rule::NarrowingAddrCast => "CM-L002",
            Rule::MissingPanicsDoc => "CM-L003",
            Rule::UnusedAllow => "CM-L004",
            Rule::ShapeProductOverflow => "CM-L005",
            Rule::AllocInChunkLoop => "CM-L006",
            Rule::SharedMutInWorker => "CM-L007",
            Rule::DroppedSpanGuard => "CM-L008",
        }
    }

    /// Human-readable rule slug.
    pub fn slug(&self) -> &'static str {
        match self {
            Rule::PanicInLib => "panic-in-lib",
            Rule::NarrowingAddrCast => "narrowing-addr-cast",
            Rule::MissingPanicsDoc => "missing-panics-doc",
            Rule::UnusedAllow => "unused-allow",
            Rule::ShapeProductOverflow => "shape-product-overflow",
            Rule::AllocInChunkLoop => "alloc-in-chunk-loop",
            Rule::SharedMutInWorker => "shared-mut-in-worker",
            Rule::DroppedSpanGuard => "dropped-span-guard",
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
    /// Repo-relative file path (or the allowlist path for unused-allow).
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
            self.line as u32,
            &self.message,
            &[],
        )
    }
}

/// Render a full `lint --json` report in the `cubemesh-audit-diag/v1`
/// schema, mirroring [`crate::analyze::Analysis::to_json`].
pub fn lint_report_json(
    violations: &[Violation],
    files: usize,
    allowlist: usize,
    elapsed_ms: u128,
) -> String {
    let body: Vec<String> = violations.iter().map(Violation::to_json).collect();
    format!(
        "{{\"schema\":\"cubemesh-audit-diag/v1\",\"tool\":\"lint\",\"files\":{},\
         \"allowlist\":{},\"elapsed_ms\":{},\"findings\":[{}]}}",
        files,
        allowlist,
        elapsed_ms,
        body.join(",\n ")
    )
}

/// One allowlist entry: `path/to/file.rs::function_name`.
#[derive(Clone, Debug)]
struct AllowEntry {
    file: String,
    func: String,
    line: usize,
    used: bool,
}

/// The parsed panic allowlist.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
    source: String,
}

impl Allowlist {
    /// Parse allowlist text. Lines are `file.rs::fn_name`; blank lines
    /// and `#` comments are ignored. Malformed lines are errors.
    pub fn parse(source_label: &str, text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((file, func)) = line.split_once("::") else {
                return Err(format!(
                    "{source_label}:{}: expected 'file.rs::fn_name', got '{line}'",
                    i + 1
                ));
            };
            if file.is_empty() || func.is_empty() || !file.ends_with(".rs") {
                return Err(format!(
                    "{source_label}:{}: expected 'file.rs::fn_name', got '{line}'",
                    i + 1
                ));
            }
            entries.push(AllowEntry {
                file: file.to_owned(),
                func: func.to_owned(),
                line: i + 1,
                used: false,
            });
        }
        Ok(Allowlist {
            entries,
            source: source_label.to_owned(),
        })
    }

    /// Load and parse an allowlist file. A missing file is an empty list.
    pub fn load(path: &Path) -> Result<Allowlist, String> {
        let label = path.display().to_string();
        match fs::read_to_string(path) {
            Ok(text) => Allowlist::parse(&label, &text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Allowlist::default()),
            Err(e) => Err(format!("{label}: {e}")),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn permit(&mut self, file: &str, func: &str) -> bool {
        let mut hit = false;
        for e in &mut self.entries {
            let file_matches = file == e.file || file.ends_with(&format!("/{}", e.file));
            if e.func == func && file_matches {
                e.used = true;
                hit = true;
            }
        }
        hit
    }

    fn unused(&self) -> Vec<Violation> {
        self.entries
            .iter()
            .filter(|e| !e.used)
            .map(|e| Violation {
                file: self.source.clone(),
                line: e.line,
                rule: Rule::UnusedAllow,
                message: format!(
                    "allowlist entry {}::{} matched no finding; remove it",
                    e.file, e.func
                ),
            })
            .collect()
    }
}

/// Replace comment bodies, string/char-literal contents and their quotes
/// with spaces, preserving byte offsets and line breaks, so downstream
/// passes see only code.
///
/// **Legacy fallback.** [`lint_source`] now derives its code view from
/// the real lexer ([`crate::lexer::code_view`]), which handles every
/// literal form by construction. This hand-rolled scanner is retained
/// for comparison and as a dependency-free escape hatch; it understands
/// line/block comments (nested), plain and raw strings, byte strings
/// (`b"…"`), raw byte strings (`br#"…"#`), and char/byte-char literals.
pub fn strip_noncode(text: &str) -> String {
    let b = text.as_bytes();
    let mut out = text.as_bytes().to_vec();
    let mut i = 0;
    let n = b.len();
    let blank = |out: &mut [u8], from: usize, to: usize| {
        for c in &mut out[from..to] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
    };
    while i < n {
        match b[i] {
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                let end = memchr_newline(b, i);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                let mut depth = 1;
                let mut j = i + 2;
                while j < n && depth > 0 {
                    if j + 1 < n && b[j] == b'/' && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if j + 1 < n && b[j] == b'*' && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j);
                i = j;
            }
            b'"' => {
                let end = scan_string(b, i);
                blank(&mut out, i, end);
                i = end;
            }
            // Byte string `b"…"` / byte char `b'…'`: same bodies as their
            // unprefixed forms, with the sigil blanked too.
            b'b' if i + 1 < n && b[i + 1] == b'"' && (i == 0 || !is_ident_byte(b[i - 1])) => {
                let end = scan_string(b, i + 1);
                blank(&mut out, i, end);
                i = end;
            }
            b'b' if i + 1 < n && b[i + 1] == b'\'' && (i == 0 || !is_ident_byte(b[i - 1])) => {
                if let Some(end) = scan_char_literal(b, i + 1) {
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    i += 1;
                }
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                let end = scan_raw_string(b, i);
                blank(&mut out, i, end);
                i = end;
            }
            b'\'' => {
                // Char literal vs lifetime: a literal closes within a few
                // bytes (`'x'`, `'\n'`, `'\u{1F600}'`); a lifetime never
                // has a closing quote before a non-ident boundary.
                if let Some(end) = scan_char_literal(b, i) {
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    // Lossless for our purposes: input was valid UTF-8 and we only wrote
    // ASCII spaces over complete character ranges.
    String::from_utf8_lossy(&out).into_owned()
}

fn memchr_newline(b: &[u8], from: usize) -> usize {
    let mut i = from;
    while i < b.len() && b[i] != b'\n' {
        i += 1;
    }
    i
}

fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // r"…", r#"…"#, br"…" — plain "b"…"" is handled by the '"' arm. The
    // sigil must not be the tail of an identifier (`var` ends in 'r').
    if i > 0 && is_ident_byte(b[i - 1]) {
        return false;
    }
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

fn scan_raw_string(b: &[u8], i: usize) -> usize {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    j += 1; // 'r'
    let mut hashes = 0;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    while j < b.len() {
        if b[j] == b'"' {
            let mut k = j + 1;
            let mut h = 0;
            while k < b.len() && b[k] == b'#' && h < hashes {
                h += 1;
                k += 1;
            }
            if h == hashes {
                return k;
            }
        }
        j += 1;
    }
    j
}

fn scan_string(b: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

fn scan_char_literal(b: &[u8], i: usize) -> Option<usize> {
    let n = b.len();
    if i + 2 >= n {
        return None;
    }
    if b[i + 1] == b'\\' {
        // Escaped: find the closing quote (handles '\u{…}').
        let mut j = i + 2;
        while j < n && j < i + 12 {
            if b[j] == b'\'' {
                return Some(j + 1);
            }
            j += 1;
        }
        return None;
    }
    // Unescaped: exactly one scalar between quotes. Multi-byte UTF-8
    // chars span up to 4 bytes; anything longer is a lifetime.
    for (j, &c) in b.iter().enumerate().take((i + 6).min(n)).skip(i + 2) {
        if c == b'\'' {
            return Some(j + 1);
        }
        if c == b'\n' {
            return None;
        }
    }
    None
}

fn is_ident_byte(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// A function body located in cleaned source.
#[derive(Clone, Debug)]
struct FnSpan {
    name: String,
    decl_line: usize,
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
    let mut pending_fn: Option<(String, usize)> = None;
    let mut pending_tests = 0usize;
    // Open items: (brace_depth_at_open, fn index or usize::MAX for a test item, start).
    let mut stack: Vec<(usize, usize, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut paren = 0i32;
    let mut line = 1usize;
    let mut i = 0;
    while i < n {
        match b[i] {
            b'\n' => line += 1,
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
                } else if let Some((name, decl_line)) = pending_fn.take() {
                    if paren == 0 {
                        fns.push(FnSpan {
                            name,
                            decl_line,
                            body: i..n,
                        });
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
                    if b[j] == b'\n' {
                        line += 1;
                    }
                    j += 1;
                }
                let start = j;
                while j < n && is_ident_byte(b[j]) {
                    j += 1;
                }
                if j > start {
                    pending_fn = Some((clean[start..j].to_owned(), line));
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

const PANIC_PATTERNS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

const NARROW_TYPES: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Identifier fragments that mark a value as a shape extent (or a
/// product of extents) for **shape-product-overflow**.
const EXTENT_KEYWORDS: [&str; 7] = ["dim", "len", "extent", "stride", "nodes", "shape", "factor"];

/// Worker fan-out markers for **shared-mut-in-worker**.
const WORKER_APIS: [&str; 4] = ["spawn(", "par_iter", "::scope(", "run_tasks("];

/// Does the doc block immediately above `decl_line` (1-based, in the
/// original text) contain a `# Panics` section?
fn has_panics_doc(original_lines: &[&str], decl_line: usize) -> bool {
    let mut i = decl_line.saturating_sub(1); // index of the decl line
    while i > 0 {
        let t = original_lines[i - 1].trim_start();
        if t.starts_with("///") || t.starts_with("#[") || t.starts_with("//!") {
            if t.contains("# Panics") {
                return true;
            }
            i -= 1;
        } else {
            break;
        }
    }
    false
}

/// Lint one library source file. `label` is the repo-relative path used
/// in reports and allowlist matching.
///
/// The code view the line matchers run over comes from the real lexer
/// ([`crate::lexer::code_view`]): same length and line structure as
/// `text`, with every comment and string/char-literal byte blanked by
/// token kind rather than by the legacy [`strip_noncode`] heuristics.
pub fn lint_source(label: &str, text: &str, allow: &mut Allowlist) -> Vec<Violation> {
    let tokens = crate::lexer::lex(text);
    let clean = crate::lexer::code_view(text, &tokens);
    let (fns, test_ranges) = scan_items(&clean);
    let offsets = line_offsets(&clean);
    let original_lines: Vec<&str> = text.lines().collect();
    let in_tests = |off: usize| test_ranges.iter().any(|r| r.contains(&off));
    let enclosing_fn = |off: usize| {
        fns.iter()
            .filter(|f| f.body.contains(&off))
            .max_by_key(|f| f.body.start)
    };

    let mut out = Vec::new();
    let mut doc_checked: Vec<usize> = Vec::new(); // decl lines already checked
    for (lineno, (line, &line_start)) in clean.lines().zip(&offsets).enumerate() {
        let lineno = lineno + 1;
        if in_tests(line_start) {
            continue;
        }
        for pat in PANIC_PATTERNS {
            for (col, _) in line.match_indices(pat) {
                let off = line_start + col;
                if in_tests(off) {
                    continue;
                }
                let holder = enclosing_fn(off);
                let fname = holder.map(|f| f.name.as_str()).unwrap_or("<module>");
                if allow.permit(label, fname) {
                    // Allowlisted: require the `# Panics` doc instead.
                    if let Some(f) = holder {
                        if !doc_checked.contains(&f.decl_line) {
                            doc_checked.push(f.decl_line);
                            if !has_panics_doc(&original_lines, f.decl_line) {
                                out.push(Violation {
                                    file: label.to_owned(),
                                    line: f.decl_line,
                                    rule: Rule::MissingPanicsDoc,
                                    message: format!(
                                        "allowlisted fn `{fname}` has no `# Panics` doc section"
                                    ),
                                });
                            }
                        }
                    }
                    continue;
                }
                out.push(Violation {
                    file: label.to_owned(),
                    line: lineno,
                    rule: Rule::PanicInLib,
                    message: format!(
                        "`{}` in non-test library code (fn `{fname}`); return a Result or \
                         allowlist it with a `# Panics` doc",
                        pat.trim_start_matches('.').trim_end_matches('(')
                    ),
                });
            }
        }
        for (col, _) in line.match_indices(" as ") {
            let after = &line[col + 4..];
            let ty: String = after
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            if !NARROW_TYPES.contains(&ty.as_str()) {
                continue;
            }
            let off = line_start + col;
            if in_tests(off) {
                continue;
            }
            // The operand: last identifier before the cast.
            let before = &line[..col];
            let operand: String = before
                .chars()
                .rev()
                .take_while(|&c| c == '_' || c.is_ascii_alphanumeric())
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            let operand_low = operand.to_ascii_lowercase();
            if operand_low.contains("addr") {
                out.push(Violation {
                    file: label.to_owned(),
                    line: lineno,
                    rule: Rule::NarrowingAddrCast,
                    message: format!(
                        "`{operand} as {ty}` narrows a cube address below 64 bits; \
                         keep address arithmetic in u64"
                    ),
                });
            } else if EXTENT_KEYWORDS.iter().any(|k| operand_low.contains(k)) {
                out.push(Violation {
                    file: label.to_owned(),
                    line: lineno,
                    rule: Rule::ShapeProductOverflow,
                    message: format!(
                        "`{operand} as {ty}` narrows a shape extent; extent products \
                         overflow narrow integers — widen first, narrow never"
                    ),
                });
            } else if let Some(expr) = trailing_paren_expr(before) {
                let low = expr.to_ascii_lowercase();
                if expr.contains('*') && EXTENT_KEYWORDS.iter().any(|k| low.contains(k)) {
                    out.push(Violation {
                        file: label.to_owned(),
                        line: lineno,
                        rule: Rule::ShapeProductOverflow,
                        message: format!(
                            "`{expr} as {ty}` narrows a product of shape extents; \
                             compute in u64/usize and keep it wide"
                        ),
                    });
                }
            }
        }
        for (col, _) in line.match_indices("static mut") {
            let off = line_start + col;
            if in_tests(off) {
                continue;
            }
            out.push(Violation {
                file: label.to_owned(),
                line: lineno,
                rule: Rule::SharedMutInWorker,
                message: "`static mut` is an unconditional data race under real threads; \
                          use an atomic, a lock, or per-worker state"
                    .to_owned(),
            });
        }
    }
    let line_of = |off: usize| offsets.partition_point(|&o| o <= off);
    scan_chunk_loop_allocs(label, &clean, &in_tests, &line_of, &mut out);
    scan_worker_cells(label, &clean, &fns, &in_tests, &line_of, &mut out);
    scan_dropped_span_guards(label, &clean, &in_tests, &line_of, &mut out);
    out.sort_by_key(|a| (a.line, a.rule as usize));
    out
}

/// If `before` ends with a parenthesized expression, return that
/// expression (including parens); `None` otherwise.
fn trailing_paren_expr(before: &str) -> Option<&str> {
    let bt = before.trim_end();
    if !bt.ends_with(')') {
        return None;
    }
    let b = bt.as_bytes();
    let mut depth = 0i32;
    for i in (0..b.len()).rev() {
        match b[i] {
            b')' => depth += 1,
            b'(' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&bt[i..]);
                }
            }
            _ => {}
        }
    }
    None
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

/// Span-guard constructors for **dropped-span-guard**.
const SPAN_GUARD_PATTERNS: [&str; 2] = ["span!(", "SpanTimer::new("];

/// **dropped-span-guard**: find `span!(…)` / `SpanTimer::new(…)` sites
/// whose guard value is discarded on the spot — either bound to the `_`
/// wildcard (which drops immediately, unlike `_span`) or evaluated as a
/// bare statement. Both record a zero-length span and unbalance the
/// thread's span stack relative to the author's intent.
fn scan_dropped_span_guards(
    label: &str,
    clean: &str,
    in_tests: &dyn Fn(usize) -> bool,
    line_of: &dyn Fn(usize) -> usize,
    out: &mut Vec<Violation>,
) {
    let b = clean.as_bytes();
    for pat in SPAN_GUARD_PATTERNS {
        for (off, _) in clean.match_indices(pat) {
            // Word boundary: `my_span!(` or `to_span!(` are different macros.
            if off > 0 && is_ident_byte(b[off - 1]) {
                continue;
            }
            if in_tests(off) {
                continue;
            }
            let line_start = clean[..off].rfind('\n').map(|i| i + 1).unwrap_or(0);
            // Text before the call on its line, with any module path
            // (`obs::`, `crate::trace::`) peeled off the end.
            let mut before = clean[line_start..off].trim_end();
            while let Some(stripped) = before.strip_suffix("::") {
                before = stripped
                    .trim_end_matches(|c: char| c == '_' || c.is_ascii_alphanumeric())
                    .trim_end();
            }
            let wildcard_bound = before.strip_suffix('=').is_some_and(|pre| {
                let pre = pre.trim_end();
                pre.ends_with("let _") && !pre.ends_with("let __")
            });
            // A call with nothing before it on the line is a bare
            // statement only if the previous line finished a statement —
            // `let _span =` on the line above is a continuation.
            let bare_statement = if before.is_empty() {
                match clean[..line_start]
                    .lines()
                    .rev()
                    .find(|l| !l.trim().is_empty())
                {
                    None => true,
                    Some(prev) => {
                        let t = prev.trim_end();
                        t.ends_with(';') || t.ends_with('{') || t.ends_with('}')
                    }
                }
            } else {
                before.ends_with(';') || before.ends_with('{') || before.ends_with('}')
            };
            if !wildcard_bound && !bare_statement {
                continue;
            }
            let call = pat.trim_end_matches('(');
            out.push(Violation {
                file: label.to_owned(),
                line: line_of(off),
                rule: Rule::DroppedSpanGuard,
                message: if wildcard_bound {
                    format!(
                        "`let _ = {call}(…)` drops the span guard immediately, recording a \
                         zero-length span; bind it (`let _span = {call}(…);`)"
                    )
                } else {
                    format!(
                        "bare `{call}(…);` statement drops the span guard immediately, \
                         recording a zero-length span; bind it (`let _span = {call}(…);`)"
                    )
                },
            });
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

/// Lint every library source under `root` against the allowlist. Returns
/// all violations, including unused-allow entries, sorted by file/line.
pub fn lint_workspace(root: &Path, mut allow: Allowlist) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for (rel, path) in &files {
        let text = fs::read_to_string(path)?;
        out.extend(lint_source(rel, &text, &mut allow));
    }
    out.extend(allow.unused());
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(text: &str) -> Vec<Violation> {
        let mut allow = Allowlist::default();
        lint_source("lib.rs", text, &mut allow)
    }

    #[test]
    fn seeded_unwrap_is_flagged() {
        let v = lint_str("pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::PanicInLib);
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("fn `f`"));
    }

    #[test]
    fn panic_in_cfg_test_module_is_ignored() {
        let src = "pub fn ok() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { \
                   Option::<u32>::None.unwrap(); panic!(\"x\") }\n}\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trip() {
        let src = "pub fn msg() -> &'static str {\n    // panic! in a comment is fine\n    \
                   \"call .unwrap() and panic!\"\n}\n/// Docs may say panic! too.\npub fn d() {}\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn narrowing_addr_cast_is_flagged() {
        let v = lint_str("pub fn f(addr: u64) -> u32 {\n    addr as u32\n}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NarrowingAddrCast);
        // `as usize` and non-address identifiers stay legal.
        assert!(lint_str(
            "pub fn g(addr: u64, w: u64) -> usize { (addr as usize) + (w as u32) as usize }\n"
        )
        .is_empty());
    }

    #[test]
    fn allowlisted_fn_needs_panics_doc() {
        let mut allow = Allowlist::parse("allow.txt", "lib.rs::f\n").unwrap();
        let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let v = lint_source("lib.rs", src, &mut allow);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::MissingPanicsDoc);

        let mut allow = Allowlist::parse("allow.txt", "lib.rs::f\n").unwrap();
        let documented = "/// Frobs.\n///\n/// # Panics\n/// Panics when absent.\npub fn f(x: \
                          Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let v = lint_source("lib.rs", documented, &mut allow);
        assert!(v.is_empty(), "{v:?}");
        assert!(allow.unused().is_empty());
    }

    #[test]
    fn unused_allow_entries_are_reported() {
        let mut allow = Allowlist::parse("allow.txt", "lib.rs::ghost\n").unwrap();
        let _ = lint_source("lib.rs", "pub fn real() {}\n", &mut allow);
        let unused = allow.unused();
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].rule, Rule::UnusedAllow);
    }

    #[test]
    fn malformed_allowlist_is_rejected() {
        assert!(Allowlist::parse("a", "not-a-valid-line\n").is_err());
        assert!(Allowlist::parse("a", "# comment only\n\n")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn enclosing_fn_attribution_handles_nesting() {
        let src =
            "pub fn outer() {\n    fn inner(x: Option<u32>) -> u32 {\n        x.unwrap()\n    \
                   }\n    let _ = inner(Some(3));\n}\n";
        let v = lint_str(src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("fn `inner`"), "{}", v[0].message);
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let src = "pub fn f() -> (char, &'static str) {\n    ('{', r#\"panic!(\"no\")\"#)\n}\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn shape_product_overflow_is_flagged() {
        // Bare extent identifier narrowed.
        let v = lint_str("pub fn f(stride: usize) -> u32 {\n    stride as u32\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::ShapeProductOverflow);
        // Parenthesized product of extents narrowed.
        let v = lint_str("pub fn g(a: usize, f: usize) -> u16 {\n    (a * dim_len(f)) as u16\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::ShapeProductOverflow);
        // Widening casts and non-extent operands stay legal.
        assert!(lint_str("pub fn h(stride: usize, i: usize) -> u64 {\n    (stride as u64) + foo(i) as u64 + i as u32 as u64\n}\n").is_empty());
        // A call result without `*` in the parens is not a product.
        assert!(lint_str("pub fn k(x: usize) -> u32 {\n    ilog(x) as u32\n}\n").is_empty());
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
    fn dropped_span_guard_is_flagged() {
        // `let _ = …` drops the guard on the spot.
        let v = lint_str("pub fn f() {\n    let _ = obs::span!(\"construct\");\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::DroppedSpanGuard);
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("let _ ="), "{}", v[0].message);
        // A bare statement drops it too, for both constructor spellings.
        let v = lint_str("pub fn f() {\n    span!(\"construct\");\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::DroppedSpanGuard);
        let v = lint_str("pub fn f() {\n    obs::SpanTimer::new(\"x\");\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::DroppedSpanGuard);
    }

    #[test]
    fn bound_span_guard_is_legal() {
        // Named placeholder bindings live until end of scope.
        assert!(lint_str("pub fn f() {\n    let _span = obs::span!(\"x\");\n}\n").is_empty());
        // Closures returning the guard hand ownership to the caller.
        assert!(lint_str(
            "pub fn f(top: bool) {\n    let _span = top.then(|| obs::span!(\"x\"));\n}\n"
        )
        .is_empty());
        // A continuation line is still the same binding statement.
        assert!(lint_str("pub fn f() {\n    let _span =\n        span!(\"x\");\n}\n").is_empty());
        // Test modules are exempt, like every other rule.
        assert!(lint_str(
            "pub fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn t() { span!(\"x\"); }\n}\n"
        )
        .is_empty());
        // Different macros sharing the suffix are not span guards.
        assert!(lint_str("pub fn f() {\n    my_span!(\"x\");\n}\n").is_empty());
    }

    #[test]
    fn byte_strings_do_not_trip_rules() {
        // Through the live (lexer-backed) path.
        let src = "pub fn f() -> &'static [u8] {\n    b\"panic!(\\\"x\\\") .unwrap()\"\n}\n\
                   pub fn g() -> &'static [u8] {\n    br#\"todo! and .expect(\"#\n}\n\
                   pub fn h() -> u8 {\n    b'!'\n}\n";
        assert!(lint_str(src).is_empty(), "{:?}", lint_str(src));
    }

    #[test]
    fn strip_noncode_blanks_byte_and_raw_byte_strings() {
        // Regression for the legacy fallback: byte-string bodies must be
        // blanked so a panic-family pattern inside one can never match.
        let clean = strip_noncode("let x = b\"panic!(\\\"no\\\")\";\n");
        assert!(!clean.contains("panic!"), "{clean}");
        let clean = strip_noncode("let y = br#\".unwrap() todo!\"#;\n");
        assert!(!clean.contains("unwrap"), "{clean}");
        assert!(!clean.contains("todo!"), "{clean}");
        let clean = strip_noncode("let z = b'u'; let w = b'\\n';\n");
        assert!(!clean.contains("'u'"), "{clean}");
        // Offsets and newlines are preserved.
        let src = "a\nb\"x\"\nc\n";
        let clean = strip_noncode(src);
        assert_eq!(clean.len(), src.len());
        assert_eq!(clean.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn rule_codes_are_stable() {
        // These identifiers are part of the gate's public schema; any
        // renumbering breaks downstream JSON consumers.
        assert_eq!(Rule::PanicInLib.code(), "CM-L001");
        assert_eq!(Rule::NarrowingAddrCast.code(), "CM-L002");
        assert_eq!(Rule::MissingPanicsDoc.code(), "CM-L003");
        assert_eq!(Rule::UnusedAllow.code(), "CM-L004");
        assert_eq!(Rule::ShapeProductOverflow.code(), "CM-L005");
        assert_eq!(Rule::AllocInChunkLoop.code(), "CM-L006");
        assert_eq!(Rule::SharedMutInWorker.code(), "CM-L007");
        assert_eq!(Rule::DroppedSpanGuard.code(), "CM-L008");
    }

    #[test]
    fn violation_json_uses_shared_schema() {
        let v = Violation {
            file: "crates/x/src/lib.rs".to_owned(),
            line: 7,
            rule: Rule::PanicInLib,
            message: "`unwrap` in non-test library code".to_owned(),
        };
        let j = v.to_json();
        assert!(j.contains("\"code\":\"CM-L001\""), "{j}");
        assert!(j.contains("\"rule\":\"panic-in-lib\""), "{j}");
        assert!(j.contains("\"line\":7"), "{j}");
        assert!(j.contains("\"path\":[]"), "{j}");
        let report = lint_report_json(&[v], 3, 4, 12);
        assert!(
            report.contains("\"schema\":\"cubemesh-audit-diag/v1\""),
            "{report}"
        );
        assert!(report.contains("\"tool\":\"lint\""), "{report}");
        assert!(report.contains("\"allowlist\":4"), "{report}");
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
