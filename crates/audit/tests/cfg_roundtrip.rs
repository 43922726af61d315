//! CFG round-trip properties over every function in the workspace.
//!
//! The analyzer's dataflow passes trust three structural invariants of
//! [`cubemesh_audit::cfg::Cfg`] (documented in `cfg.rs`):
//!
//! 1. every code token of a function body lands in **exactly one**
//!    basic block (no token is analyzed twice or skipped);
//! 2. within a block, token indices are strictly increasing (blocks
//!    are straight-line runs in source order);
//! 3. every edge targets a valid block, and every loop construct in
//!    the body contributes at least one edge marked `back` (so
//!    widening triggers exactly at loop heads).
//!
//! Rather than sampling synthetic programs, the property corpus is the
//! workspace itself: every library function and named closure the
//! analyzer sees in a real run (~1300 functions) is round-tripped
//! through `Cfg::build` and checked. Any Rust construct the repo
//! starts using immediately joins the corpus.

#![expect(
    clippy::expect_used,
    reason = "a workspace that cannot be walked or read fails the test"
)]

use cubemesh_audit::ast::Workspace;
use cubemesh_audit::cfg::Cfg;
use cubemesh_audit::lexer::{Delim, TokKind};
use std::path::Path;

/// Load every library source the real analyzer run reads.
fn workspace() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    cubemesh_audit::lint::walk_lib_sources(&root, &mut files).expect("walk workspace");
    files.sort();
    assert!(
        files.len() > 50,
        "workspace walk found only {} files",
        files.len()
    );
    let mut ws = Workspace::default();
    for (rel, path) in &files {
        ws.add_file(rel, std::fs::read_to_string(path).expect("read source"));
    }
    ws
}

/// The body token range `Cfg::build` partitions: inside the outer
/// braces when present, the raw range for expression-bodied closures.
fn body_range(
    file: &cubemesh_audit::ast::File,
    item: &cubemesh_audit::ast::FnItem,
) -> std::ops::Range<usize> {
    let mut range = item.body.clone();
    range.end = range.end.min(file.tokens.len());
    if range.start < range.end && file.tokens[range.start].kind == TokKind::Open(Delim::Brace) {
        range = range.start + 1..range.end.saturating_sub(1);
    }
    range
}

/// `true` if token `i` opens a loop construct (`loop`/`while`/`for`
/// followed by something other than an HRTB `<`).
fn is_loop_keyword(file: &cubemesh_audit::ast::File, i: usize) -> bool {
    if file.tokens[i].kind != TokKind::Ident {
        return false;
    }
    match file.text(i) {
        "loop" | "while" => true,
        "for" => file
            .next_code(i + 1)
            .map(|n| !file.is(n, "<"))
            .unwrap_or(false),
        _ => false,
    }
}

#[test]
fn every_workspace_function_round_trips() {
    let ws = workspace();
    let mut checked = 0usize;
    let mut with_loops = 0usize;
    for item in &ws.fns {
        let file = &ws.files[item.file];
        let cfg = Cfg::build(file, item);
        let label = format!("{}::{}", file.label, item.name);

        // Property 3a: edges target valid blocks.
        for (bid, b) in cfg.blocks.iter().enumerate() {
            for e in &b.succs {
                assert!(
                    e.to < cfg.blocks.len(),
                    "{label}: block {bid} edge to invalid block {}",
                    e.to
                );
            }
        }
        assert!(cfg.entry < cfg.blocks.len() && cfg.exit < cfg.blocks.len());

        // Property 2: strictly increasing token lists per block.
        for (bid, b) in cfg.blocks.iter().enumerate() {
            for w in b.tokens.windows(2) {
                assert!(
                    w[0] < w[1],
                    "{label}: block {bid} tokens not strictly increasing at {:?}",
                    w
                );
            }
        }

        // Property 1: each code token of the body owned exactly once.
        let range = body_range(file, item);
        let mut owned = vec![0u8; file.tokens.len()];
        for b in &cfg.blocks {
            for &t in &b.tokens {
                owned[t] = owned[t].saturating_add(1);
            }
        }
        for i in range.clone() {
            if file.tokens[i].is_code() {
                assert_eq!(
                    owned[i],
                    1,
                    "{label}: token {i} `{}` owned {} times",
                    file.text(i),
                    owned[i]
                );
            }
        }

        // Property 3b: a body with loop constructs has back edges, and
        // back edges only ever target loop heads the Cfg reports.
        let loops = range
            .clone()
            .filter(|&i| file.tokens[i].is_code() && is_loop_keyword(file, i))
            .count();
        if loops > 0 {
            with_loops += 1;
            assert!(
                cfg.back_edge_count() >= 1,
                "{label}: {loops} loop construct(s) but no back edge"
            );
        }
        let heads = cfg.loop_heads();
        for b in &cfg.blocks {
            for e in b.succs.iter().filter(|e| e.back) {
                assert!(
                    heads.binary_search(&e.to).is_ok(),
                    "{label}: back edge to {} not reported as a loop head",
                    e.to
                );
            }
        }
        checked += 1;
    }
    // The corpus must actually be the workspace, not a handful of stubs.
    assert!(checked > 1000, "only {checked} functions round-tripped");
    assert!(with_loops > 100, "only {with_loops} functions with loops");
}
