//! # ear-apsp
//!
//! All-pairs shortest paths via ear decomposition (paper §2), plus the
//! baselines the paper compares against (Banerjee et al. and Djidjev et
//! al.). The test-only references — Floyd–Warshall and Dijkstra from
//! every vertex of the whole graph — live in `ear_testkit::reference`.
//!
//! * [`matrix`] — dense distance-matrix storage;
//! * [`arena`] — the oracle's one distance store: the AP table and every
//!   per-block table fused into one flat arena, shared by an oracle and
//!   its query engines;
//! * `ear` (private) — the §2.1.3 closed-form extension from a block's
//!   reduced table `S^r` to its removed degree-2 vertices: whole rows for
//!   phase III, single pairs for reduced-table queries;
//! * [`oracle`] — Algorithm 1 on every block of the general graph (paper
//!   §2.2): per-BCC tables (reduce → all-sources Dijkstra on `G^r` on the
//!   heterogeneous executor → extension), the articulation-point table
//!   `A`, block-cut-tree routing, and the `O(a² + Σ nᵢ²)` memory
//!   accounting of Table 1. One [`DistanceOracle`] type serves every
//!   [`ApspMethod`]: `Ear` (full tables), `Plain` (the Banerjee
//!   baseline) and `Reduced` (only `a² + Σ (nᵢʳ)²` reduced tables, the
//!   extension run per query — the storage level the paper's published
//!   MB figures for its chain-heavy graphs imply);
//! * [`query`] — the serving handle over a built oracle: its plan and
//!   arena behind two `Arc`s, answering through the same block-cut-tree
//!   distance function and path descent as the oracle;
//! * [`partition`] — region-growing graph partitioner (METIS substitute);
//! * [`djidjev`] — the partition-based planar APSP baseline of Djidjev
//!   et al. that Figure 2 compares against on planar graphs.
//!
//! The Banerjee et al. baseline (BCC decomposition *without* ear reduction)
//! is [`oracle::build_oracle`] with [`oracle::ApspMethod::Plain`] — exactly
//! the paper's own "w/o ear decomposition" axis.
//!
//! The oracle consumes a prebuilt decomposition plan
//! (`ear_decomp::plan::DecompPlan`): [`build_oracle`] constructs one
//! internally, while [`build_oracle_with_plan`] accepts a shared
//! `Arc<DecompPlan>` so a combined run (stats + APSP + MCB) decomposes the
//! graph exactly once — see the "Decomposition plan" sections of
//! `README.md` / `DESIGN.md`.

#![deny(unsafe_code)]

pub mod arena;
pub mod djidjev;
mod ear;
pub mod matrix;
pub mod oracle;
pub mod partition;
pub mod query;

pub use arena::{DistArena, Tables};
pub use matrix::DistMatrix;
pub use oracle::{build_oracle, build_oracle_with_plan, ApspMethod, DistanceOracle, OracleStats};
pub use query::QueryEngine;
