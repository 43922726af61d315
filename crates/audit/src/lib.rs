//! Static analysis for the cubemesh workspace: plan certificates and a
//! custom lint driver.
//!
//! Two prongs, both runnable through the `cubemesh-audit` binary and wired
//! into the repo gate (`scripts/check.sh`):
//!
//! * [`certificate`] — derive a `(dilation, congestion, load, expansion)`
//!   [`Certificate`] for any [`cubemesh_core::Plan`] tree *without
//!   constructing the embedding*, checking every theorem precondition
//!   (Corollary 2 factor compatibility, minimal-cube arithmetic, catalog
//!   applicability) along the way; [`torus`] and [`manytoone`] extend the
//!   same certificate shape to wraparound plans (Lemmas 1–4, Corollary 3)
//!   and many-to-one plans (Theorem 4, Lemma 5, Corollary 5); [`bounds`]
//!   supplies the provable per-shape floors so `certified − floor` is a
//!   rigorous optimality gap; [`crosscheck`] then builds real embeddings
//!   and asserts measured ≤ certificate and certificate ≥ floor.
//! * [`lint`] — source-level rules over the workspace's own library code:
//!   no allocation inside chunk/shard loops and no shared mutable state
//!   in worker-spawning functions. Panic discipline, narrowing casts,
//!   `# Panics` docs and dropped `#[must_use]` values are clippy and
//!   rustc lints, set once in the root `Cargo.toml`'s
//!   `[workspace.lints]` table.
//! * [`analyze`] — the interprocedural concurrency/determinism analyzer
//!   built on a real front end: a lossless Rust [`lexer`], a lightweight
//!   item/closure parser ([`ast`]) producing a workspace symbol table,
//!   and a may-call [`callgraph`]. Its passes prove worker closures free
//!   of captured mutation, interior mutability, and `static mut`
//!   (`CM-A001`–`A003`), reductions deterministic under chunk reorder
//!   (`CM-A004`–`A005`), atomics/locks disciplined (`CM-A006`–`A007`),
//!   and span guards LIFO (`CM-A008`) — each finding carrying call-path
//!   evidence from the fan-out site to the sink. On top of the same
//!   front end sits a dataflow engine — an intraprocedural [`cfg`] and
//!   a generic worklist solver with widening ([`dataflow`]) — powering
//!   value-range overflow proofs on shape/address arithmetic
//!   (`CM-A009`–`A010`) and taint tracking from untrusted inputs to
//!   index/capacity/constructor sinks (`CM-A011`–`A012`). Findings
//!   serialize in the shared `cubemesh-audit-diag/v1` schema, diff against a prior
//!   artifact ([`analyze::baseline_keys`], `analyze --baseline`), and
//!   export as SARIF 2.1.0 ([`sarif`]) for editor/CI annotation.

pub mod analyze;
pub mod ast;
pub mod bounds;
pub mod callgraph;
pub mod certificate;
pub mod cfg;
pub mod crosscheck;
pub mod dataflow;
pub mod fingerprint;
pub mod lexer;
pub mod lint;
pub mod manytoone;
pub mod sarif;
pub mod torus;

pub use analyze::{baseline_keys, Analysis, Code, FanoutApis, Finding};
pub use bounds::{manytoone_floors, mesh_floors, torus_floors, Floors};
pub use certificate::{certify, check_plan, dilation_floor, AuditError, Certificate};
pub use crosscheck::{
    crosscheck_contract_shape, crosscheck_fold_shape, crosscheck_shape, crosscheck_torus_shape,
    sweep, sweep_contract, sweep_fold, sweep_torus, CrosscheckError, SweepReport,
};
pub use fingerprint::{fingerprint, fnv1a};
pub use lint::{lint_source, lint_workspace, Rule, Violation};
pub use manytoone::{certify_contract, certify_fold};
pub use torus::{certify_torus, certify_torus_combo};
