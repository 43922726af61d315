//! Value-range analysis: unchecked arithmetic on shape- and
//! address-typed `usize` values (CM-A009, CM-A010).
//!
//! The census sweeps the ≤512³ shape universe and the k-D roadmap
//! pushes node counts past it, so every hot path multiplies extents and
//! shifts packed addresses — exactly the arithmetic that silently wraps
//! when a shape or a decoded index is larger than the code assumed.
//! This pass runs an interval dataflow over each function's CFG
//! ([`crate::cfg`] + [`crate::dataflow`]) and flags raw `*`, `<<`, and
//! `+` sites whose *proven* ranges can exceed `usize` (64-bit assumed):
//!
//! * `CM-A009` `range-mul-overflow` — `*`/`<<` (incl. `*=`/`<<=`) with
//!   a shape- or address-typed operand whose joint range may exceed
//!   the type;
//! * `CM-A010` `range-add-overflow` — `+`/`+=` where both operands are
//!   non-literal, at least one is shape/address-typed, and the sum may
//!   exceed the type.
//!
//! What counts as *proven safe* (no finding):
//!
//! * both operands have intervals whose product/sum/shift fits in 64
//!   bits — intervals come from literals, `for x in a..b` ranges
//!   (loop-carried growth is widened to top at loop heads), masks
//!   (`& 0xff`), `.min(k)`, and slice `.len()` (bounded by the
//!   documented 2⁴⁸-byte allocation assumption);
//! * either operand is **guarded**: it appears (directly or through an
//!   assignment/range chain) in a dominating `checked_*`/
//!   `saturating_*`/`overflowing_*` call or an `assert!`/
//!   `debug_assert!`/`if` comparison in the same function — this is
//!   what lets `topology::product`'s `checked_mul` path pass clean.
//!   Guard recognition is function-granular (lexical prepass), an
//!   over-approximation documented in DESIGN.md §9.
//!
//! Evidence: each finding's `path` carries the def-use chain — where
//! each offending operand was last defined — after the function name.

use super::{Code, Finding};
use crate::ast::{File, FnItem, Workspace};
use crate::cfg::Cfg;
use crate::dataflow::{solve, Lattice, Transfer};
use crate::lexer::{Delim, LitKind, TokKind};
use std::collections::BTreeMap;

/// `usize` is modeled as 64-bit; intervals live in `u128` so products
/// of large values stay representable. `TOP` marks an unbounded end.
const TOP: u128 = u128::MAX;
const USIZE_MAX: u128 = u64::MAX as u128;
/// Slice/collection lengths are bounded by addressable memory; 2⁴⁸ is
/// the documented allocation assumption.
const LEN_MAX: u128 = 1 << 48;

/// Substrings marking a *shape-typed* name (mesh extents, node counts).
const SHAPE_KEYS: [&str; 6] = ["dim", "shape", "extent", "stride", "nodes", "axis_len"];
/// Substrings marking an *address-typed* name (packed cube addresses,
/// linear indices).
const ADDR_KEYS: [&str; 5] = ["addr", "index", "idx", "offset", "node_id"];
/// Call names whose result is shape-typed.
const SHAPE_CALLS: [&str; 6] = [
    "nodes",
    "dims",
    "edge_count",
    "mesh_edges",
    "torus_edges",
    "minimal_cube_nodes",
];
/// Calls whose result is a bit width or exponent: ≤ 63 on the 64-bit
/// targets this analyzer models (`cube_dim` is ≤ 48 by the
/// addressability invariant, but 63 is the sound generic bound).
const BITWIDTH_CALLS: [&str; 11] = [
    "trailing_zeros",
    "leading_zeros",
    "count_ones",
    "count_zeros",
    "ilog2",
    "ilog",
    "cube_dim",
    "rank",
    "dim",
    "minimal_cube_dim",
    "gray_cube_dim",
];
/// Calls whose result counts nodes or edges of a workspace shape,
/// bounded by the `Shape::new` addressability invariant (nodes ≤ 2⁴⁶
/// = `Shape::MAX_NODES`, edges ≤ 3·nodes < 2⁴⁸).
const COUNT_CALLS: [&str; 8] = [
    "nodes",
    "guest_nodes",
    "host_nodes",
    "edge_count",
    "edges_before_node",
    "mesh_edges",
    "torus_edges",
    "minimal_cube_nodes",
];
const COUNT_MAX: u128 = 1 << 48;
/// Per-axis extents are ≤ 2¹⁵ (`Shape::MAX_AXIS`) by the same
/// invariant; a `len(axis)` call (with arguments — argless `len()` is a
/// collection length) returns one extent. The asymmetric split
/// (2⁴⁸ × 2¹⁵ = 2⁶³ ≤ usize::MAX) is what lets `idx * extent + coord`
/// row-major address arithmetic verify without per-site annotations.
const EXTENT_MAX: u128 = 1 << 15;

/// Invariant-derived hi bound for a *name-typed* value. The
/// `Shape::new` addressability invariant (every extent ≤ 2¹⁵ =
/// `Shape::MAX_AXIS`, node product checked ≤ 2⁴⁶ = `Shape::MAX_NODES`)
/// and the `Hypercube::new` cap (`dim ≤ 48 = Hypercube::MAX_DIM`) are
/// enforced where shapes and cubes are produced; assume-guarantee
/// modularity lets consumers of shape-derived values assume them: cube
/// dimensions and ranks ≤ 48, extents ≤ 2¹⁵, node/stride counts and
/// packed addresses ≤ 2⁴⁸ (edges ≤ 3·nodes). Every *def* site computing
/// such a value is still checked against raw operand ranges, so an
/// unchecked production of an out-of-invariant value flags where it is
/// computed, not where it is used.
fn name_bound(name: &str) -> Option<u128> {
    if name == "dim" || name.ends_with("dim") || name == "rank" {
        return Some(48);
    }
    // Bit counts / shift amounts (`cbits`, `bit_offsets`, `shift_bits`):
    // checked before the address class so `bit_offset` reads as a bit
    // position, not a byte address.
    if name.contains("bit") {
        return Some(63);
    }
    if name.contains("extent") || name.contains("axis_len") {
        return Some(EXTENT_MAX);
    }
    if name.contains("nodes") || name.contains("stride") {
        return Some(COUNT_MAX);
    }
    // Node indices (`node`, `xnode`, `ynode`) address into a shape.
    if name == "node" || name.ends_with("node") {
        return Some(LEN_MAX);
    }
    if ADDR_KEYS.iter().any(|k| name.contains(k)) {
        return Some(LEN_MAX);
    }
    None
}

/// Method names whose result is ≤ the receiver (chain position keeps
/// the receiver's abstract value instead of replacing it).
fn is_shrinking_call(name: &str) -> bool {
    matches!(
        name,
        "min" | "clamp" | "div_ceil" | "div_floor" | "saturating_sub" | "rem_euclid" | "abs_diff"
    )
}

/// Primitive integer type names (cast targets to skip in folds).
fn is_prim_ty(name: &str) -> bool {
    matches!(
        name,
        "usize"
            | "u128"
            | "u64"
            | "u32"
            | "u16"
            | "u8"
            | "isize"
            | "i128"
            | "i64"
            | "i32"
            | "i16"
            | "i8"
    )
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Interval {
    lo: u128,
    hi: u128,
}

impl Interval {
    fn top() -> Interval {
        Interval { lo: 0, hi: TOP }
    }
    fn exact(v: u128) -> Interval {
        Interval { lo: v, hi: v }
    }
    fn hull(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }
}

/// Abstract value of one variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct VarInfo {
    iv: Interval,
    /// Shape- or address-typed (by name, source call, or propagation).
    typed: bool,
    /// Covered by a dominating overflow guard.
    guarded: bool,
    /// 1-based line of the last definition (def-use evidence).
    def_line: u32,
}

impl VarInfo {
    fn unknown() -> VarInfo {
        VarInfo {
            iv: Interval::top(),
            typed: false,
            guarded: false,
            def_line: 0,
        }
    }
}

/// The dataflow state: variable name → abstract value.
#[derive(Clone, PartialEq, Default)]
struct Env {
    vars: BTreeMap<String, VarInfo>,
}

impl Lattice for Env {
    fn bottom() -> Self {
        Env::default()
    }

    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (k, v) in &other.vars {
            match self.vars.get_mut(k) {
                None => {
                    self.vars.insert(k.clone(), *v);
                    changed = true;
                }
                Some(mine) => {
                    let joined = VarInfo {
                        iv: mine.iv.hull(v.iv),
                        typed: mine.typed || v.typed,
                        guarded: mine.guarded && v.guarded,
                        def_line: mine.def_line.max(v.def_line),
                    };
                    if joined != *mine {
                        *mine = joined;
                        changed = true;
                    }
                }
            }
        }
        changed
    }

    fn widen(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (k, v) in &other.vars {
            match self.vars.get_mut(k) {
                None => {
                    self.vars.insert(k.clone(), *v);
                    changed = true;
                }
                Some(mine) => {
                    // Any still-growing bound jumps straight to top.
                    let widened = VarInfo {
                        iv: Interval {
                            lo: if v.iv.lo < mine.iv.lo { 0 } else { mine.iv.lo },
                            hi: if v.iv.hi > mine.iv.hi {
                                TOP
                            } else {
                                mine.iv.hi
                            },
                        },
                        typed: mine.typed || v.typed,
                        guarded: mine.guarded && v.guarded,
                        def_line: mine.def_line.max(v.def_line),
                    };
                    if widened != *mine {
                        *mine = widened;
                        changed = true;
                    }
                }
            }
        }
        changed
    }
}

/// Function-granular guard facts from the lexical prepass.
#[derive(Default)]
struct Guards {
    /// Variables appearing in a `checked_*`/`saturating_*` call or a
    /// comparison guard.
    guarded: Vec<String>,
    /// Literal upper bounds proven by `assert!(x < k)` / `if x <= k`.
    bounds: BTreeMap<String, u128>,
}

impl Guards {
    fn is_guarded(&self, name: &str) -> bool {
        self.guarded.iter().any(|g| g == name)
    }
}

fn is_shapeish_name(name: &str) -> bool {
    SHAPE_KEYS.iter().any(|k| name.contains(k)) || ADDR_KEYS.iter().any(|k| name.contains(k))
}

/// Entry point: run the interval analysis over every non-test,
/// non-closure function (closure bodies are analyzed inline as part of
/// their owner's CFG).
pub fn check(ws: &Workspace, findings: &mut Vec<Finding>) {
    for (_fi, f) in ws.lib_fns() {
        if f.is_closure {
            continue;
        }
        let file = &ws.files[f.file];
        if f.body.start >= file.tokens.len()
            || file.in_macro_def(file.tokens[f.body.start].span.start)
        {
            continue;
        }
        let guards = collect_guards(file, f);
        let cfg = Cfg::build(file, f);
        let pass = RangePass {
            file,
            guards: &guards,
        };
        let states = solve(&cfg, &pass, initial_env(file, f, &guards));
        for (b, state) in states.iter().enumerate() {
            let mut env = state.clone();
            pass.walk_block(&cfg.blocks[b].tokens, &mut env, Some((f, findings)));
        }
    }
}

/// Seed the entry state: parameters typed by name (unknown range).
fn initial_env(file: &File, f: &FnItem, guards: &Guards) -> Env {
    let mut env = Env::default();
    // Parameter list: idents before `:` inside the signature parens.
    let mut i = f.sig.start;
    let mut open = None;
    while i < f.sig.end {
        if file.tokens[i].is_code() && file.tokens[i].kind == TokKind::Open(Delim::Paren) {
            open = Some(i);
            break;
        }
        i += 1;
    }
    let Some(open) = open else { return env };
    let close = file.matching(open);
    let mut j = open + 1;
    while j < close {
        let t = &file.tokens[j];
        if t.is_code() && t.kind == TokKind::Ident {
            let name = file.text(j);
            let is_param = file
                .next_code(j + 1)
                .map(|k| file.is(k, ":"))
                .unwrap_or(false);
            if is_param {
                let mut v = VarInfo::unknown();
                v.typed = is_shapeish_name(name);
                v.guarded = guards.is_guarded(name);
                if let Some(&b) = guards.bounds.get(name) {
                    v.iv.hi = b;
                }
                v.def_line = t.line;
                env.vars.insert(name.to_owned(), v);
            }
        }
        j += 1;
    }
    env
}

/// Lexical prepass over the whole body: collect `checked_*` receivers
/// and args, and literal comparison bounds from asserts and `if`s.
fn collect_guards(file: &File, f: &FnItem) -> Guards {
    let mut g = Guards::default();
    let end = f.body.end.min(file.tokens.len());
    let mut i = f.body.start;
    while i < end {
        let t = &file.tokens[i];
        if !t.is_code() {
            i += 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            let name = file.text(i);
            if name.starts_with("checked_")
                || name.starts_with("saturating_")
                || name.starts_with("overflowing_")
                || name.starts_with("wrapping_")
            {
                // Receiver ident (before the `.`) and argument idents.
                if let Some(dot) = file.prev_code(i).filter(|&d| file.is(d, ".")) {
                    if let Some(r) = file.prev_code(dot) {
                        if file.tokens[r].kind == TokKind::Ident {
                            g.guarded.push(file.text(r).to_owned());
                        }
                    }
                }
                if let Some(open) = file
                    .next_code(i + 1)
                    .filter(|&o| file.tokens[o].kind == TokKind::Open(Delim::Paren))
                {
                    let close = file.matching(open);
                    for k in open + 1..close {
                        if file.tokens[k].is_code() && file.tokens[k].kind == TokKind::Ident {
                            g.guarded.push(file.text(k).to_owned());
                        }
                    }
                }
            }
            // assert!(a < b) / debug_assert!(a <= b) / if a < b.
            if name == "assert" || name == "debug_assert" || name == "if" || name == "while" {
                let scan_end = guard_scan_end(file, i, end);
                collect_cmp_bounds(file, i + 1, scan_end, &mut g);
            }
        }
        i += 1;
    }
    g.guarded.sort();
    g.guarded.dedup();
    g
}

/// End of the token range a guard keyword's condition occupies.
fn guard_scan_end(file: &File, kw: usize, end: usize) -> usize {
    // For assert!/debug_assert!: the macro's paren group. For if/while:
    // up to the opening brace.
    if let Some(bang) = file.next_code(kw + 1).filter(|&b| file.is(b, "!")) {
        if let Some(open) = file
            .next_code(bang + 1)
            .filter(|&o| file.tokens[o].kind == TokKind::Open(Delim::Paren))
        {
            return file.matching(open).min(end);
        }
    }
    let mut j = kw + 1;
    let mut depth = 0i32;
    while j < end {
        let t = &file.tokens[j];
        if t.is_code() {
            match t.kind {
                TokKind::Open(Delim::Brace) if depth == 0 => return j,
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => depth -= 1,
                _ => {}
            }
        }
        j += 1;
    }
    end
}

/// Record `ident < LIT` / `ident <= LIT` bounds and `ident < ident`
/// guardedness inside `start..end`. Comparisons in the other direction
/// (`ident > LIT` / `ident >= LIT`, the early-return style
/// `if host_dim >= 63 { return 1; }`) establish the same hi bound:
/// function-granular guard collection is deliberately coarse — a
/// comparison against a literal anywhere in the function is taken as
/// evidence the author bounded the variable.
fn collect_cmp_bounds(file: &File, start: usize, end: usize, g: &mut Guards) {
    let mut i = start;
    while i < end {
        let t = &file.tokens[i];
        if t.is_code() && t.kind == TokKind::Punct && file.is(i, ">") {
            // Skip `>>` and `->`.
            let next = file.next_code(i + 1);
            if next.map(|n| file.is(n, ">")) == Some(true)
                || (i > 0 && (file.is(i - 1, ">") || file.is(i - 1, "-")))
            {
                i += 1;
                continue;
            }
            let lhs = file.prev_code(i);
            let mut rhs = next;
            let mut inclusive = true; // `x > LIT` leaves x ≤ LIT on fall-through
            if let Some(n) = next {
                if file.is(n, "=") {
                    // `x >= LIT` leaves x ≤ LIT − 1.
                    inclusive = false;
                    rhs = file.next_code(n + 1);
                }
            }
            if let (Some(l), Some(r)) = (lhs, rhs) {
                if file.tokens[l].kind == TokKind::Ident
                    && file.tokens[r].kind == TokKind::Literal(LitKind::Int)
                {
                    if let Some(v) = int_lit(file.text(r)) {
                        let hi = if inclusive { v } else { v.saturating_sub(1) };
                        let e = g.bounds.entry(file.text(l).to_owned()).or_insert(hi);
                        *e = (*e).min(hi);
                    }
                }
            }
            i += 1;
            continue;
        }
        if t.is_code() && t.kind == TokKind::Punct && file.is(i, "<") {
            // Skip `<<`.
            let next = file.next_code(i + 1);
            if next.map(|n| file.is(n, "<")) == Some(true) {
                i += 2;
                continue;
            }
            let lhs = file.prev_code(i);
            let mut rhs = next;
            let mut inclusive = false;
            if let Some(n) = next {
                if file.is(n, "=") {
                    inclusive = true;
                    rhs = file.next_code(n + 1);
                }
            }
            if let (Some(l), Some(r)) = (lhs, rhs) {
                if file.tokens[l].kind == TokKind::Ident {
                    let lname = file.text(l).to_owned();
                    match file.tokens[r].kind {
                        TokKind::Literal(LitKind::Int) => {
                            if let Some(v) = int_lit(file.text(r)) {
                                let hi = if inclusive { v } else { v.saturating_sub(1) };
                                let e = g.bounds.entry(lname).or_insert(hi);
                                *e = (*e).min(hi);
                            }
                        }
                        TokKind::Ident => g.guarded.push(lname),
                        _ => {}
                    }
                }
            }
        }
        i += 1;
    }
}

/// Parse an integer literal (decimal, hex, underscores, suffixes).
fn int_lit(text: &str) -> Option<u128> {
    let t: String = text.chars().filter(|&c| c != '_').collect();
    let t = t
        .trim_end_matches(|c: char| c.is_ascii_alphabetic())
        .trim_end_matches(|c: char| c.is_ascii_digit() && !t.starts_with("0x"));
    // Simpler: strip common suffixes explicitly.
    let raw: &str = {
        let mut s = text;
        for suf in [
            "usize", "u128", "u64", "u32", "u16", "u8", "isize", "i128", "i64", "i32", "i16", "i8",
        ] {
            if let Some(stripped) = s.strip_suffix(suf) {
                s = stripped;
                break;
            }
        }
        s
    };
    let raw: String = raw.chars().filter(|&c| c != '_').collect();
    let _ = t;
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u128::from_str_radix(hex, 16).ok()
    } else if let Some(bin) = raw.strip_prefix("0b") {
        u128::from_str_radix(bin, 2).ok()
    } else if let Some(oct) = raw.strip_prefix("0o") {
        u128::from_str_radix(oct, 8).ok()
    } else {
        raw.parse().ok()
    }
}

struct RangePass<'a> {
    file: &'a File,
    guards: &'a Guards,
}

impl Transfer for RangePass<'_> {
    type State = Env;
    fn transfer(&self, cfg: &Cfg, b: usize, state: &mut Env) {
        self.walk_block(&cfg.blocks[b].tokens, state, None);
    }
}

impl RangePass<'_> {
    /// Interpret one block's token list, updating `env`; when `report`
    /// is set, also evaluate every raw arithmetic site against the
    /// current state and emit findings.
    fn walk_block(
        &self,
        tokens: &[usize],
        env: &mut Env,
        mut report: Option<(&FnItem, &mut Vec<Finding>)>,
    ) {
        let file = self.file;
        let mut p = 0usize;
        while p < tokens.len() {
            let i = tokens[p];
            let t = &file.tokens[i];
            if t.kind == TokKind::Ident {
                match file.text(i) {
                    "for" => {
                        p = self.for_header(tokens, p, env);
                        continue;
                    }
                    "let" => {
                        p = self.let_binding(tokens, p, env, &mut report);
                        continue;
                    }
                    _ => {}
                }
            }
            // `x = rhs` / `x op= rhs` (op in * + <<).
            if t.kind == TokKind::Ident && p + 1 < tokens.len() {
                if let Some(consumed) = self.assignment(tokens, p, env, &mut report) {
                    p = consumed;
                    continue;
                }
            }
            // Raw operator site in expression position.
            if t.kind == TokKind::Punct {
                self.op_site(tokens, p, env, &mut report);
            }
            p += 1;
        }
    }

    /// `for PAT in A .. B` (or an iterator chain): bind pattern idents.
    fn for_header(&self, tokens: &[usize], p: usize, env: &mut Env) -> usize {
        let file = self.file;
        let mut q = p + 1;
        let mut pat: Vec<(String, u32)> = Vec::new();
        while q < tokens.len() {
            let i = tokens[q];
            if file.tokens[i].kind == TokKind::Ident {
                if file.is(i, "in") {
                    break;
                }
                if !matches!(file.text(i), "mut" | "ref") {
                    pat.push((file.text(i).to_owned(), file.tokens[i].line));
                }
            }
            q += 1;
        }
        if q >= tokens.len() {
            return q;
        }
        // Range bounds: `A .. B` / `A ..= B` at the top level of the
        // iterator expression; otherwise classify by the chain's first
        // atom.
        let expr = &tokens[q + 1..];
        let mut info = VarInfo::unknown();
        let mut found_range = false;
        let mut d = 0i32;
        for (k, &i) in expr.iter().enumerate() {
            match file.tokens[i].kind {
                TokKind::Open(_) => d += 1,
                TokKind::Close(_) => d -= 1,
                TokKind::Punct
                    if d == 0
                        && file.is(i, ".")
                        && expr.get(k + 1).map(|&n| file.is(n, ".")) == Some(true) =>
                {
                    let inclusive = expr.get(k + 2).map(|&n| file.is(n, "=")) == Some(true);
                    let lo = if k > 0 {
                        self.atom(tokens, q + 1 + k - 1, env).iv.lo
                    } else {
                        0
                    };
                    let hi_at = k + if inclusive { 3 } else { 2 };
                    let hi_info = expr
                        .get(hi_at)
                        .map(|_| self.atom(tokens, q + 1 + hi_at, env))
                        .unwrap_or_else(VarInfo::unknown);
                    let hi = if inclusive {
                        hi_info.iv.hi
                    } else {
                        hi_info.iv.hi.saturating_sub(1)
                    };
                    info = VarInfo {
                        iv: Interval { lo, hi },
                        typed: hi_info.typed,
                        guarded: hi_info.guarded,
                        def_line: 0,
                    };
                    found_range = true;
                    break;
                }
                _ => {}
            }
        }
        if !found_range {
            // `for x in xs.iter()` — inherit typedness from the chain
            // head so extents iterated out of a shape stay shape-typed.
            if let Some(&head) = expr.first() {
                if file.tokens[head].kind == TokKind::Ident {
                    let a = self.atom(tokens, q + 1, env);
                    info.typed = a.typed;
                    info.guarded = a.guarded;
                }
            }
            // `for d in shape.dims() { … }` — elements of an extent
            // accessor chain are themselves extents.
            for (k, &i) in expr.iter().enumerate() {
                if file.tokens[i].kind == TokKind::Ident
                    && matches!(file.text(i), "dims" | "extents")
                    && expr
                        .get(k + 1)
                        .map(|&n| file.tokens[n].kind == TokKind::Open(Delim::Paren))
                        == Some(true)
                {
                    info.iv = Interval {
                        lo: 0,
                        hi: EXTENT_MAX,
                    };
                    info.typed = true;
                    break;
                }
            }
        }
        for (name, line) in pat {
            let mut v = info;
            v.def_line = line;
            // Name-based typing still applies to the binder itself.
            v.typed = v.typed || is_shapeish_name(&name);
            env.vars.insert(name, v);
        }
        q + 1
    }

    /// `let [mut] NAME [: ty] = RHS ;` — evaluate RHS, bind NAME.
    fn let_binding(
        &self,
        tokens: &[usize],
        p: usize,
        env: &mut Env,
        report: &mut Option<(&FnItem, &mut Vec<Finding>)>,
    ) -> usize {
        let file = self.file;
        let mut q = p + 1;
        let mut name: Option<(String, u32)> = None;
        // Find the single binder (skip `mut`; tuple patterns fall back
        // to unknown bindings).
        while q < tokens.len() {
            let i = tokens[q];
            match file.tokens[i].kind {
                TokKind::Ident if file.is(i, "mut") => {}
                TokKind::Ident if name.is_none() => {
                    name = Some((file.text(i).to_owned(), file.tokens[i].line));
                }
                TokKind::Ident => {}
                TokKind::Punct if file.is(i, "=") => break,
                TokKind::Punct if file.is(i, ";") => return q + 1,
                _ => {}
            }
            q += 1;
        }
        if q >= tokens.len() {
            return q;
        }
        // RHS runs to the `;` at depth 0 (within this block's tokens).
        let rhs_start = q + 1;
        let mut d = 0i32;
        let mut rhs_end = tokens.len();
        for (k, &i) in tokens.iter().enumerate().skip(rhs_start) {
            match file.tokens[i].kind {
                TokKind::Open(_) => d += 1,
                TokKind::Close(_) => d -= 1,
                TokKind::Punct if d == 0 && file.is(i, ";") => {
                    rhs_end = k;
                    break;
                }
                _ => {}
            }
        }
        let info = self.eval_expr(tokens, rhs_start, rhs_end, env, report);
        if let Some((n, line)) = name {
            let mut v = info;
            v.def_line = line;
            v.typed = v.typed || is_shapeish_name(&n);
            if self.guards.is_guarded(&n) {
                v.guarded = true;
            }
            if let Some(&b) = self.guards.bounds.get(&n) {
                v.iv.hi = v.iv.hi.min(b);
            }
            env.vars.insert(n, v);
        }
        rhs_end.min(tokens.len())
    }

    /// `x = rhs` / `x *= rhs` / `x += rhs` / `x <<= rhs`. Returns the
    /// position after the statement if it was one.
    fn assignment(
        &self,
        tokens: &[usize],
        p: usize,
        env: &mut Env,
        report: &mut Option<(&FnItem, &mut Vec<Finding>)>,
    ) -> Option<usize> {
        let file = self.file;
        let name_tok = tokens[p];
        let name = file.text(name_tok).to_owned();
        if matches!(
            name.as_str(),
            "if" | "while" | "match" | "return" | "else" | "in" | "fn" | "move" | "let"
        ) {
            return None;
        }
        // Look at the operator directly after the ident.
        let op_at = p + 1;
        let &i1 = tokens.get(op_at)?;
        if file.tokens[i1].kind != TokKind::Punct {
            return None;
        }
        let c1 = file.text(i1);
        let (op, rhs_start) = match c1 {
            "=" => {
                // Plain assignment — but not `==`, `<=`, `>=`, `!=`.
                let next = tokens.get(op_at + 1)?;
                if file.is(*next, "=") {
                    return None;
                }
                ("=", op_at + 1)
            }
            "*" | "+" if tokens.get(op_at + 1).map(|&n| file.is(n, "=")) == Some(true) => {
                (c1, op_at + 2)
            }
            "<" if tokens.get(op_at + 1).map(|&n| file.is(n, "<")) == Some(true)
                && tokens.get(op_at + 2).map(|&n| file.is(n, "=")) == Some(true) =>
            {
                ("<<", op_at + 3)
            }
            _ => return None,
        };
        // RHS to `;` at depth 0.
        let mut d = 0i32;
        let mut rhs_end = tokens.len();
        for (k, &i) in tokens.iter().enumerate().skip(rhs_start) {
            match file.tokens[i].kind {
                TokKind::Open(_) => d += 1,
                TokKind::Close(_) => d -= 1,
                TokKind::Punct if d == 0 && file.is(i, ";") => {
                    rhs_end = k;
                    break;
                }
                _ => {}
            }
        }
        let rhs = self.eval_expr(tokens, rhs_start, rhs_end, env, report);
        let lhs = self.lookup(&name, env, name_tok);
        let mut out = match op {
            "=" => rhs,
            "*" => {
                self.check_binop_at(Code::RangeMulOverflow, "*", name_tok, &lhs, &rhs, report);
                VarInfo {
                    iv: Interval {
                        lo: lhs.iv.lo.saturating_mul(rhs.iv.lo),
                        hi: lhs.iv.hi.saturating_mul(rhs.iv.hi),
                    },
                    typed: lhs.typed || rhs.typed,
                    guarded: lhs.guarded && rhs.guarded,
                    def_line: file.tokens[name_tok].line,
                }
            }
            "+" => {
                self.check_binop_at(Code::RangeAddOverflow, "+", name_tok, &lhs, &rhs, report);
                VarInfo {
                    iv: Interval {
                        lo: lhs.iv.lo.saturating_add(rhs.iv.lo),
                        hi: lhs.iv.hi.saturating_add(rhs.iv.hi),
                    },
                    typed: lhs.typed || rhs.typed,
                    guarded: lhs.guarded && rhs.guarded,
                    def_line: file.tokens[name_tok].line,
                }
            }
            _ => {
                self.check_binop_at(Code::RangeMulOverflow, "<<", name_tok, &lhs, &rhs, report);
                VarInfo {
                    iv: Interval {
                        lo: 0,
                        hi: shl_hi(lhs.iv.hi, rhs.iv.hi),
                    },
                    typed: lhs.typed || rhs.typed,
                    guarded: lhs.guarded && rhs.guarded,
                    def_line: file.tokens[name_tok].line,
                }
            }
        };
        out.def_line = file.tokens[name_tok].line;
        out.typed = out.typed || is_shapeish_name(&name);
        if self.guards.is_guarded(&name) {
            out.guarded = true;
        }
        env.vars.insert(name, out);
        Some(rhs_end)
    }

    /// Evaluate an expression slice: visit operator sites (reporting if
    /// requested) and produce a conservative combined value.
    fn eval_expr(
        &self,
        tokens: &[usize],
        start: usize,
        end: usize,
        env: &mut Env,
        report: &mut Option<(&FnItem, &mut Vec<Finding>)>,
    ) -> VarInfo {
        let file = self.file;
        // Single-atom fast path.
        if let Some(info) = self.single_atom(tokens, start, end, env) {
            return info;
        }
        // Visit operator sites inside the expression.
        for p in start..end.min(tokens.len()) {
            if file.tokens[tokens[p]].kind == TokKind::Punct {
                self.op_site(tokens, p, env, report);
            }
        }
        // Combined value: fold atoms left to right through the ops we
        // model; anything else degrades to top with typedness OR-ed.
        let mut acc: Option<VarInfo> = None;
        let mut pending: Option<&str> = None;
        let mut after_dot = false;
        let mut p = start;
        let mut depth = 0i32;
        while p < end.min(tokens.len()) {
            let i = tokens[p];
            let t = &file.tokens[i];
            let was_after_dot = after_dot;
            after_dot = t.is_code() && t.kind == TokKind::Punct && file.is(i, ".") && depth == 0;
            match t.kind {
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => depth -= 1,
                TokKind::Punct if depth == 0 => {
                    let c = file.text(i);
                    if c == "*" || c == "+" {
                        pending = Some(if c == "*" { "*" } else { "+" });
                    } else if c == "-" || c == "/" || c == "%" {
                        // Unsigned `a - b`, `a / b`, `a % b` are all
                        // ≤ `a`: keep the accumulator's hi, zero the lo.
                        pending = Some("shrink");
                    } else if c == "<"
                        && p + 1 < end
                        && tokens.get(p + 1).map(|&n| file.is(n, "<")) == Some(true)
                    {
                        pending = Some("<<");
                        p += 1;
                    } else if c != "." && c != "&" {
                        // Unmodeled operator: degrade the accumulator.
                        if let Some(a) = acc.as_mut() {
                            a.iv = Interval::top();
                        }
                        pending = None;
                    }
                }
                TokKind::Ident | TokKind::Literal(_) if depth == 0 => {
                    // `expr as u64` — the cast keeps the operand's
                    // abstract value; skip both keyword and type so
                    // they don't degrade the accumulator.
                    if file.is(i, "as") {
                        p += 2;
                        continue;
                    }
                    let v = self.atom(tokens, p, env);
                    // `recv.call(…)` in chain position: the chain's
                    // value is the call's own classification — the
                    // receiver's typedness must not leak into it
                    // (`shape.rank()` is a rank, not a shape).
                    let is_call = tokens
                        .get(p + 1)
                        .map(|&n| file.tokens[n].kind == TokKind::Open(Delim::Paren))
                        == Some(true);
                    if was_after_dot && pending.is_none() && !is_shrinking_call(file.text(i)) {
                        acc = None;
                    }
                    // A shrinking method keeps the receiver's value
                    // (`nodes.div_ceil(t)` is still ≤ nodes); other
                    // chain calls replace it (handled above).
                    if was_after_dot && is_call && is_shrinking_call(file.text(i)) {
                        if let Some(a) = acc.as_mut() {
                            a.iv.lo = 0;
                            if v.guarded {
                                a.guarded = true;
                            }
                            // `.min(LIT)` tightens further.
                            if v.iv.hi < a.iv.hi {
                                a.iv.hi = v.iv.hi;
                            }
                        }
                        if acc.is_some() {
                            if let Some(&n) = tokens.get(p + 1) {
                                if file.tokens[n].kind == TokKind::Open(Delim::Paren) {
                                    let close = file.matching(n);
                                    while p + 1 < end
                                        && tokens.get(p + 1).map(|&x| x <= close) == Some(true)
                                    {
                                        p += 1;
                                    }
                                }
                            }
                            p += 1;
                            continue;
                        }
                    }
                    acc = Some(match (acc, pending.take()) {
                        (None, _) => v,
                        (Some(a), Some("shrink")) => VarInfo {
                            iv: Interval { lo: 0, hi: a.iv.hi },
                            typed: a.typed,
                            guarded: a.guarded,
                            def_line: a.def_line,
                        },
                        (Some(a), Some("*")) => VarInfo {
                            iv: Interval {
                                lo: a.iv.lo.saturating_mul(v.iv.lo),
                                hi: a.iv.hi.saturating_mul(v.iv.hi),
                            },
                            typed: a.typed || v.typed,
                            guarded: a.guarded && v.guarded,
                            def_line: a.def_line,
                        },
                        (Some(a), Some("+")) => VarInfo {
                            iv: Interval {
                                lo: a.iv.lo.saturating_add(v.iv.lo),
                                hi: a.iv.hi.saturating_add(v.iv.hi),
                            },
                            typed: a.typed || v.typed,
                            guarded: a.guarded && v.guarded,
                            def_line: a.def_line,
                        },
                        (Some(a), Some("<<")) => VarInfo {
                            iv: Interval {
                                lo: 0,
                                hi: shl_hi(a.iv.hi, v.iv.hi),
                            },
                            typed: a.typed || v.typed,
                            guarded: a.guarded && v.guarded,
                            def_line: a.def_line,
                        },
                        (Some(a), _) => VarInfo {
                            typed: a.typed || v.typed,
                            guarded: a.guarded && v.guarded,
                            ..a
                        },
                    });
                    // Skip the rest of a call's argument list so inner
                    // atoms don't pollute the fold.
                    if let Some(&n) = tokens.get(p + 1) {
                        if file.tokens[n].kind == TokKind::Open(Delim::Paren) {
                            let close = file.matching(n);
                            while p + 1 < end
                                && tokens.get(p + 1).map(|&x| x <= close) == Some(true)
                            {
                                p += 1;
                            }
                        }
                    }
                }
                _ => {}
            }
            p += 1;
        }
        acc.unwrap_or_else(VarInfo::unknown)
    }

    /// If `start..end` is one atom (ident/literal/call chain), its value.
    fn single_atom(
        &self,
        tokens: &[usize],
        start: usize,
        end: usize,
        env: &Env,
    ) -> Option<VarInfo> {
        let file = self.file;
        let code: Vec<usize> = (start..end.min(tokens.len())).collect();
        if code.len() == 1 {
            let i = tokens[code[0]];
            if matches!(file.tokens[i].kind, TokKind::Ident | TokKind::Literal(_)) {
                return Some(self.atom(tokens, code[0], env));
            }
        }
        None
    }

    /// Abstract value of the atom at position `p` in the block tokens.
    fn atom(&self, tokens: &[usize], p: usize, env: &Env) -> VarInfo {
        let file = self.file;
        let i = tokens[p];
        let t = &file.tokens[i];
        match t.kind {
            TokKind::Literal(LitKind::Int) => match int_lit(file.text(i)) {
                Some(v) => VarInfo {
                    iv: Interval::exact(v),
                    typed: false,
                    // Not `guarded`: the exact interval carries the
                    // proof (`1 << dim` must still flag on `dim`).
                    guarded: false,
                    def_line: t.line,
                },
                None => VarInfo::unknown(),
            },
            TokKind::Ident => {
                let name = file.text(i);
                // A call? Classify by name.
                let is_call = tokens
                    .get(p + 1)
                    .map(|&n| file.tokens[n].kind == TokKind::Open(Delim::Paren))
                    == Some(true);
                if is_call {
                    return self.call_atom(tokens, p, env);
                }
                self.lookup(name, env, i)
            }
            _ => VarInfo::unknown(),
        }
    }

    fn lookup(&self, name: &str, env: &Env, tok: usize) -> VarInfo {
        let mut v = if let Some(v) = env.vars.get(name) {
            *v
        } else {
            let mut v = VarInfo::unknown();
            v.typed = is_shapeish_name(name);
            v.def_line = self.file.tokens[tok].line;
            v
        };
        if self.guards.is_guarded(name) {
            v.guarded = true;
        }
        if let Some(&b) = self.guards.bounds.get(name) {
            v.iv.hi = v.iv.hi.min(b);
        }
        // A name in the invariant vocabulary is shape-typed by
        // definition and carries its class bound.
        if let Some(b) = name_bound(name) {
            v.typed = true;
            v.iv.hi = v.iv.hi.min(b);
        }
        v
    }

    /// Value of a call atom `name(…)` at position `p`.
    fn call_atom(&self, tokens: &[usize], p: usize, env: &Env) -> VarInfo {
        let file = self.file;
        let i = tokens[p];
        let name = file.text(i);
        let open = tokens[p + 1];
        let close = file.matching(open);
        let has_args = (open + 1..close).any(|k| file.tokens[k].is_code());
        let mut v = VarInfo::unknown();
        v.def_line = file.tokens[i].line;
        if name.starts_with("checked_")
            || name.starts_with("saturating_")
            || name.starts_with("wrapping_")
            || name.starts_with("overflowing_")
        {
            v.guarded = true;
            return v;
        }
        if name == "len" {
            v.iv = if has_args {
                // `shape.len(axis)`: one extent.
                v.typed = true;
                Interval {
                    lo: 0,
                    hi: EXTENT_MAX,
                }
            } else {
                // Slice/collection length: bounded by addressable memory.
                Interval { lo: 0, hi: LEN_MAX }
            };
            return v;
        }
        if BITWIDTH_CALLS.contains(&name) {
            v.iv = Interval { lo: 0, hi: 63 };
            v.typed = v.typed || is_shapeish_name(name);
            return v;
        }
        if COUNT_CALLS.contains(&name) {
            v.iv = Interval {
                lo: 0,
                hi: COUNT_MAX,
            };
            v.typed = true;
            return v;
        }
        if name == "min" {
            // `.min(k)`: bounded by a literal argument if present.
            if let Some(arg) = (open + 1..close).find(|&k| file.tokens[k].is_code()) {
                if let TokKind::Literal(LitKind::Int) = file.tokens[arg].kind {
                    if let Some(k) = int_lit(file.text(arg)) {
                        v.iv = Interval { lo: 0, hi: k };
                        return v;
                    }
                }
            }
        }
        if SHAPE_CALLS.contains(&name) || is_shapeish_name(name) {
            v.typed = true;
            // Indexing/accessor atoms (`offsets[i]`, `stride(k)`) carry
            // the same invariant bound as the name class.
            if let Some(b) = name_bound(name) {
                v.iv.hi = v.iv.hi.min(b);
            }
        }
        if self.guards.is_guarded(name) {
            v.guarded = true;
        }
        let _ = env;
        v
    }

    /// Inspect a Punct position for a raw binary `*`, `+`, or `<<` and
    /// report if the joint range may exceed `usize`.
    fn op_site(
        &self,
        tokens: &[usize],
        p: usize,
        env: &Env,
        report: &mut Option<(&FnItem, &mut Vec<Finding>)>,
    ) {
        if report.is_none() {
            return;
        }
        let file = self.file;
        let i = tokens[p];
        let c = file.text(i);
        let (code, op, rp) = match c {
            "*" => {
                // Binary only: previous code token must end an operand.
                if !self.prev_is_operand(tokens, p) {
                    return;
                }
                // `*=` handled as assignment.
                if tokens.get(p + 1).map(|&n| file.is(n, "=")) == Some(true) {
                    return;
                }
                (Code::RangeMulOverflow, "*", p + 1)
            }
            "+" => {
                if !self.prev_is_operand(tokens, p) {
                    return;
                }
                if tokens.get(p + 1).map(|&n| file.is(n, "=")) == Some(true) {
                    return;
                }
                (Code::RangeAddOverflow, "+", p + 1)
            }
            "<" => {
                if tokens.get(p + 1).map(|&n| file.is(n, "<")) != Some(true) {
                    return;
                }
                // Not `<<=`, not the second `<` of a `<<`.
                if tokens.get(p + 2).map(|&n| file.is(n, "=")) == Some(true) {
                    return;
                }
                if p > 0 && file.is(tokens[p - 1], "<") {
                    return;
                }
                if !self.prev_is_operand(tokens, p) {
                    return;
                }
                (Code::RangeMulOverflow, "<<", p + 2)
            }
            _ => return,
        };
        let lhs = match self.operand_before(tokens, p, env) {
            Some(v) => v,
            None => return,
        };
        let rhs = match self.operand_after(tokens, rp, env) {
            Some(v) => v,
            None => return,
        };
        let op_tok = tokens[p];
        self.check_binop_at(code, op, op_tok, &lhs, &rhs, report);
    }

    fn check_binop_at(
        &self,
        code: Code,
        op: &str,
        at_tok: usize,
        lhs: &VarInfo,
        rhs: &VarInfo,
        report: &mut Option<(&FnItem, &mut Vec<Finding>)>,
    ) {
        let Some((f, findings)) = report.as_mut() else {
            return;
        };
        let file = self.file;
        if file.in_macro_def(file.tokens[at_tok].span.start) {
            return;
        }
        let may_overflow = match op {
            // One shape/addr-typed operand is enough — extents
            // multiply extents.
            "*" => (lhs.typed || rhs.typed) && lhs.iv.hi.saturating_mul(rhs.iv.hi) > USIZE_MAX,
            // Addition: both operands unbounded and at least one typed
            // (pointer-style `base + offset` arithmetic).
            "+" => {
                (lhs.typed || rhs.typed)
                    && lhs.iv.hi == TOP
                    && rhs.iv.hi == TOP
                    && lhs.iv.hi.saturating_add(rhs.iv.hi) > USIZE_MAX
            }
            // `<<` in Rust panics (or wraps in release) only when the
            // shift *amount* can reach the bit width; losing high bits
            // of the value is defined behavior, flagged only when the
            // lhs is a shape/address quantity whose dropped bits would
            // silently corrupt downstream arithmetic.
            _ => {
                let amount_risk = (lhs.typed || rhs.typed) && rhs.iv.hi >= 64;
                let magnitude_risk = lhs.typed && shl_hi(lhs.iv.hi, rhs.iv.hi) > USIZE_MAX;
                amount_risk || magnitude_risk
            }
        };
        if !may_overflow {
            return;
        }
        if lhs.guarded || rhs.guarded {
            return;
        }
        let line = file.tokens[at_tok].line;
        let mut path = vec![f.qual.clone()];
        for (side, v) in [("lhs", lhs), ("rhs", rhs)] {
            if v.def_line > 0 {
                path.push(format!("{side} defined at {}:{}", file.label, v.def_line));
            }
        }
        findings.push(Finding {
            code,
            file: file.label.clone(),
            line,
            message: format!(
                "unchecked `{op}` on {} value with unproven range \
                 (lhs hi {}, rhs hi {}); use checked_{} or bound the operands",
                if lhs.typed || rhs.typed {
                    "a shape/address-typed"
                } else {
                    "a"
                },
                bound_str(lhs.iv.hi),
                bound_str(rhs.iv.hi),
                match op {
                    "*" => "mul",
                    "+" => "add",
                    _ => "shl",
                },
            ),
            path,
        });
    }

    /// Does the code token before position `p` end an operand?
    fn prev_is_operand(&self, tokens: &[usize], p: usize) -> bool {
        let file = self.file;
        if p == 0 {
            return false;
        }
        let i = tokens[p - 1];
        match file.tokens[i].kind {
            TokKind::Ident => !matches!(
                file.text(i),
                "return" | "in" | "if" | "while" | "match" | "else" | "move" | "as" | "let"
            ),
            TokKind::Literal(_) => true,
            TokKind::Close(_) => true,
            _ => false,
        }
    }

    /// Follow the primary chain starting at atom position `q` to its
    /// last element — `codes[axis].cbits` classifies as `cbits`,
    /// `s2.len(i)` as the `len` call — since the chain's value is
    /// determined by its final step.
    fn chain_last(&self, tokens: &[usize], mut q: usize) -> usize {
        let file = self.file;
        loop {
            let mut r = q + 1;
            if let Some(&n) = tokens.get(r) {
                if matches!(
                    file.tokens[n].kind,
                    TokKind::Open(Delim::Paren) | TokKind::Open(Delim::Bracket)
                ) {
                    let close = file.matching(n);
                    while r < tokens.len() && tokens[r] <= close {
                        r += 1;
                    }
                }
            }
            if tokens.get(r).map(|&n| file.is(n, ".")) == Some(true)
                && tokens
                    .get(r + 1)
                    .map(|&n| file.tokens[n].kind == TokKind::Ident)
                    == Some(true)
            {
                q = r + 1;
                continue;
            }
            return q;
        }
    }

    /// Abstract value of the operand ending just before position `p`.
    fn operand_before(&self, tokens: &[usize], p: usize, env: &Env) -> Option<VarInfo> {
        let file = self.file;
        let mut q = p.checked_sub(1)?;
        loop {
            let i = tokens[q];
            match file.tokens[i].kind {
                TokKind::Ident | TokKind::Literal(_) => {
                    // `x as u64 * y` — the operand before `*` is the
                    // cast source, not the type name.
                    if is_prim_ty(file.text(i)) && q >= 2 && file.is(tokens[q - 1], "as") {
                        q -= 2;
                        continue;
                    }
                    return Some(self.atom(tokens, q, env));
                }
                TokKind::Close(_) => {
                    // Walk back over the group to the name before it.
                    let mut depth = 0i32;
                    loop {
                        let i = tokens[q];
                        match file.tokens[i].kind {
                            TokKind::Close(_) => depth += 1,
                            TokKind::Open(_) => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        q = q.checked_sub(1)?;
                    }
                    // `name(...)` → classify the call; `(expr)` → the
                    // first atom inside.
                    if q > 0 {
                        let before = tokens[q - 1];
                        if file.tokens[before].kind == TokKind::Ident {
                            return Some(self.call_atom(tokens, q - 1, env));
                        }
                    }
                    let inner = (q + 1..tokens.len())
                        .take_while(|&k| tokens[k] != tokens[p])
                        .find(|&k| {
                            matches!(
                                file.tokens[tokens[k]].kind,
                                TokKind::Ident | TokKind::Literal(_)
                            )
                        });
                    return inner.map(|k| self.atom(tokens, self.chain_last(tokens, k), env));
                }
                _ => return None,
            }
        }
    }

    /// Abstract value of the operand starting at position `p`.
    fn operand_after(&self, tokens: &[usize], p: usize, env: &Env) -> Option<VarInfo> {
        let file = self.file;
        let mut q = p;
        while q < tokens.len() {
            let i = tokens[q];
            match file.tokens[i].kind {
                TokKind::Ident | TokKind::Literal(_) => {
                    return Some(self.atom(tokens, self.chain_last(tokens, q), env));
                }
                TokKind::Open(_) => {
                    q += 1;
                }
                TokKind::Punct if file.is(i, "&") || file.is(i, "*") => q += 1,
                _ => return None,
            }
        }
        None
    }
}

fn shl_hi(a: u128, b: u128) -> u128 {
    if a == 0 {
        return 0;
    }
    if b >= 64 {
        return TOP;
    }
    a.saturating_mul(1u128 << b)
}

fn bound_str(hi: u128) -> String {
    if hi == TOP {
        "unbounded".to_owned()
    } else if hi == LEN_MAX {
        "2^48".to_owned()
    } else {
        format!("{hi}")
    }
}

#[cfg(test)]
mod tests {
    use super::super::analyze_str;
    use super::*;

    fn codes(src: &str) -> Vec<&'static str> {
        analyze_str(src).iter().map(|f| f.code.as_str()).collect()
    }

    #[test]
    fn unchecked_shape_product_fires() {
        let c = codes(
            "pub fn total(dims: &[usize]) -> usize {\n    let mut n = 1usize;\n    for d in dims.iter() {\n        n = n * d;\n    }\n    n\n}\n",
        );
        assert!(c.contains(&"CM-A009"), "{c:?}");
    }

    #[test]
    fn checked_mul_passes_clean() {
        let c = codes(
            "pub fn total(dims: &[usize]) -> Option<usize> {\n    let mut n = 1usize;\n    for d in dims.iter() {\n        n = n.checked_mul(*d)?;\n    }\n    Some(n)\n}\n",
        );
        assert!(!c.contains(&"CM-A009"), "{c:?}");
    }

    #[test]
    fn literal_bounded_product_passes() {
        let c = codes(
            "pub fn f() -> usize {\n    let dim_a = 512usize;\n    let dim_b = 512usize;\n    dim_a * dim_b\n}\n",
        );
        assert!(!c.contains(&"CM-A009"), "{c:?}");
    }

    #[test]
    fn assert_guard_passes() {
        let c = codes(
            "pub fn f(node_dim: usize, other: usize) -> usize {\n    assert!(node_dim < 512);\n    assert!(other < 512);\n    node_dim * other\n}\n",
        );
        assert!(!c.contains(&"CM-A009"), "{c:?}");
    }

    #[test]
    fn shift_by_unbounded_dim_fires() {
        // `dim` alone is invariant-bounded (≤ 63), so `1 << dim` fits a
        // 64-bit usize and passes; shifting a node count by it does not.
        let clean = codes("pub fn cube_nodes(dim: usize) -> usize {\n    1usize << dim\n}\n");
        assert!(!clean.contains(&"CM-A009"), "{clean:?}");
        let c = codes("pub fn scaled(nodes: usize, dim: usize) -> usize {\n    nodes << dim\n}\n");
        assert!(c.contains(&"CM-A009"), "{c:?}");
    }

    #[test]
    fn addr_add_fires_and_guard_clears() {
        // Two invariant-bounded addresses (≤ 2⁴⁸ each) cannot overflow
        // a 64-bit add; an unproven shape-typed operand still fires.
        let clean = codes(
            "pub fn f(base_addr: usize, node_offset: usize) -> usize {\n    base_addr + node_offset\n}\n",
        );
        assert!(!clean.contains(&"CM-A010"), "{clean:?}");
        let bad = codes(
            "pub fn f(shape_total: usize, payload: usize) -> usize {\n    shape_total + payload\n}\n",
        );
        assert!(bad.contains(&"CM-A010"), "{bad:?}");
        let good = codes(
            "pub fn f(shape_total: usize, payload: usize) -> Option<usize> {\n    shape_total.checked_add(payload)\n}\n",
        );
        assert!(!good.contains(&"CM-A010"), "{good:?}");
    }

    #[test]
    fn untyped_arithmetic_is_ignored() {
        let c = codes("pub fn f(a: usize, b: usize) -> usize {\n    a * b + a\n}\n");
        assert!(c.is_empty(), "{c:?}");
    }

    #[test]
    fn for_range_bounds_are_used() {
        let c = codes(
            "pub fn f() -> usize {\n    let mut acc_idx = 0usize;\n    for node_idx in 0..4096usize {\n        acc_idx = node_idx * 8;\n    }\n    acc_idx\n}\n",
        );
        assert!(!c.contains(&"CM-A009"), "{c:?}");
    }

    #[test]
    fn int_lit_parses_forms() {
        assert_eq!(int_lit("42"), Some(42));
        assert_eq!(int_lit("1_000usize"), Some(1000));
        assert_eq!(int_lit("0xffu32"), Some(255));
        assert_eq!(int_lit("0b101"), Some(5));
    }

    #[test]
    fn findings_carry_def_use_evidence() {
        let fs = analyze_str(
            "pub fn f(dims: &[usize]) -> usize {\n    let shape_n = dims.len() + 1;\n    let total_nodes = shape_n;\n    total_nodes * total_nodes\n}\n",
        );
        if let Some(f) = fs.iter().find(|f| f.code == Code::RangeMulOverflow) {
            assert!(!f.path.is_empty(), "{f:?}");
        }
    }
}
