//! # ear-apsp
//!
//! All-pairs shortest paths via ear decomposition (paper §2), plus every
//! baseline the paper compares against.
//!
//! * [`matrix`] — dense distance-matrix storage;
//! * [`arena`] — the oracle's one distance store: the AP table and every
//!   per-block table fused into one flat arena, shared by the oracle and
//!   its query engines;
//! * [`ear`] — Algorithm 1: reduce → all-sources Dijkstra on `G^r` on the
//!   heterogeneous executor → closed-form post-processing back to `G`;
//! * [`oracle`] — the general-graph extension (paper §2.2): per-BCC tables,
//!   the articulation-point table `A`, block-cut-tree routing, and the
//!   `O(a² + Σ nᵢ²)` memory accounting of Table 1;
//! * [`reduced_oracle`] — the memory-frugal variant: only *reduced* block
//!   tables are stored (`a² + Σ (nᵢʳ)²`) and the §2.1.3 extension runs per
//!   query — the storage level the paper's published MB figures for its
//!   chain-heavy graphs imply;
//! * [`query`] — the serving-grade fast path over a built oracle:
//!   precomputed per-vertex gateway records over the oracle's own arena,
//!   a batched many-to-many kernel, and fast path realization —
//!   bit-identical to the oracle's own query path;
//! * [`baselines`] — plain Dijkstra-from-every-vertex and Floyd–Warshall
//!   (the correctness oracle);
//! * [`partition`] — region-growing graph partitioner (METIS substitute);
//! * [`djidjev`] — the partition-based planar APSP baseline of Djidjev
//!   et al. that Figure 2 compares against on planar graphs.
//!
//! The Banerjee et al. baseline (BCC decomposition *without* ear reduction)
//! is [`oracle::build_oracle`] with [`oracle::ApspMethod::Plain`] — exactly
//! the paper's own "w/o ear decomposition" axis.
//!
//! Both oracles consume a prebuilt decomposition plan
//! (`ear_decomp::plan::DecompPlan`): [`build_oracle`] and
//! [`ReducedOracle::build`] construct one internally, while
//! [`build_oracle_with_plan`] and [`ReducedOracle::build_with_plan`] accept
//! a shared `Arc<DecompPlan>` so a combined run (stats + APSP + MCB)
//! decomposes the graph exactly once — see the "Decomposition plan"
//! sections of `README.md` / `DESIGN.md`.

pub mod arena;
pub mod baselines;
pub mod djidjev;
pub mod ear;
pub mod matrix;
pub mod oracle;
pub mod partition;
pub mod query;
pub mod reduced_oracle;

pub use arena::DistArena;
pub use ear::{ear_apsp, EarApspOutput};
pub use matrix::DistMatrix;
pub use oracle::{build_oracle, build_oracle_with_plan, ApspMethod, DistanceOracle, OracleStats};
pub use query::{QueryEngine, QueryScratch};
pub use reduced_oracle::ReducedOracle;
