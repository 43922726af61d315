//! End-to-end lint gate tests: the real workspace passes, and a seeded
//! violation in a synthetic tree is caught.

use cubemesh_audit::{lint_workspace, Rule};
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // crates/audit sits two levels under the repo root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn real_workspace_is_clean() {
    let violations = lint_workspace(&repo_root()).expect("lint runs");
    assert!(
        violations.is_empty(),
        "workspace must lint clean:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn seeded_violation_fails_the_gate() {
    let dir = std::env::temp_dir().join(format!("cubemesh-audit-neg-{}", std::process::id()));
    let src = dir.join("crates/bad/src");
    fs::create_dir_all(&src).expect("temp tree");
    fs::write(
        src.join("lib.rs"),
        "static mut HITS: u64 = 0;\npub fn f() {}\n",
    )
    .expect("write seeded file");

    let violations = lint_workspace(&dir).expect("lint runs");
    fs::remove_dir_all(&dir).ok();

    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, Rule::SharedMutInWorker);
    assert_eq!(violations[0].line, 1, "{}", violations[0]);
}
