//! Embedding representation, validation, metrics, and routing.
//!
//! An [`Embedding`] is the object the whole reproduction revolves around
//! (Definitions 1–3 of the paper): a one-to-one map from guest-graph nodes
//! to Boolean-cube addresses, plus an explicit *route* (path in the cube)
//! for every guest edge. All figures of merit are computed from it:
//!
//! * **expansion** `|V(H)| / |V(G)|` — [`Metrics::expansion`],
//! * **dilation** — max route length — [`Metrics::dilation`],
//! * **congestion** — max number of routes crossing one cube edge —
//!   [`Metrics::congestion`],
//! * the **average** dilation and congestion of §2.
//!
//! Routes are first-class because the paper's congestion results depend on
//! *which* shortest paths are chosen: the product construction of Theorem 3
//! inherits the component embeddings' routes, and the direct embeddings
//! achieve congestion 2 only under a specific route assignment. The
//! [`router`] module provides canonical and congestion-balanced route
//! generation for maps built without explicit routes.

pub mod builders;
pub mod map;
pub mod metrics;
pub mod portable;
pub mod route;
pub mod router;
pub mod verify;

pub use builders::{
    gray_mesh_embedding, mesh_embedding_from_fn, mesh_embedding_with_router, MeshEdgeView,
};
pub use map::{Embedding, GuestEdges};
pub use metrics::{load_factor, Metrics};
pub use route::{RouteSet, RouteSetError};
pub use router::RouteStrategy;
pub use verify::{verify_many_to_one, VerifyError};
