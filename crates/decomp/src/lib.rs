//! # ear-decomp
//!
//! Structural graph decompositions used by the ear-decomposition APSP and
//! minimum-cycle-basis algorithms:
//!
//! * [`bcc`] — biconnected components, articulation points and bridges
//!   (iterative Hopcroft–Tarjan with an explicit edge stack);
//! * [`block_cut`] — the block-cut tree with its preorder-interval query
//!   router, used to stitch shortest paths across biconnected components
//!   (paper §2.2);
//! * [`ear`] — open ear decomposition of biconnected graphs via Schmidt's
//!   chain decomposition, plus a validity checker;
//! * [`reduce`] — contraction of maximal degree-2 chains into single
//!   weighted edges (one contractor, [`reduce_graph`]; the plan runs it in
//!   parallel across blocks), producing the *reduced graph* `G^r` together
//!   with all the per-removed-vertex metadata (`left(x)`, `right(x)`,
//!   prefix and suffix weights) that the APSP post-processing formulas of
//!   paper §2.1.3 consume;
//! * [`fvs`] — feedback vertex sets for the Mehlhorn–Michail candidate
//!   restriction in the MCB algorithm;
//! * [`plan`] — the [`DecompPlan`]: all of the above front half (BCC split,
//!   block-cut tree, per-block subgraphs, per-block reductions) built once
//!   and shared — via `Arc` — by the APSP, MCB and statistics pipelines.

#![forbid(unsafe_code)]

pub mod bcc;
pub mod block_cut;
pub mod ear;
pub mod fvs;
pub mod plan;
pub mod reduce;

pub use bcc::{biconnected_components, Bcc};
pub use block_cut::BlockCutTree;
pub use ear::{ear_decomposition, validate_ears, Ear, EarDecomposition, EarError};
pub use fvs::feedback_vertex_set;
pub use plan::{BlockPlan, DecompPlan};
pub use reduce::{
    reduce_graph, ChainTopology, EdgeOrigin, NotSimpleError, ReducedGraph, ReducedTopology,
    RemovedInfo, RemovedSlot,
};
