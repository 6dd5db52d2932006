//! # ear-suite
//!
//! Umbrella crate for the ear-decomposition shortest-path/cycle suite — a
//! Rust reproduction of *"Applications of Ear Decomposition to Efficient
//! Heterogeneous Algorithms for Shortest Path/Cycle Problems"* (Dutta,
//! Chaitanya, Kothapalli, Bera; IPPS 2017 / IJNC 2018).
//!
//! Re-exports every member crate so downstream users can depend on a single
//! crate; see the individual crates for detail:
//!
//! * [`graph`] — CSR multigraph substrate (Dijkstra, traversals, I/O);
//! * [`decomp`] — biconnectivity, block-cut trees, ear decomposition, the
//!   degree-2 chain reduction;
//! * [`hetero`] — the simulated heterogeneous CPU+GPU platform;
//! * [`apsp`] — ear-decomposition APSP and the comparison baselines;
//! * [`mcb`] — minimum cycle basis in four execution modes;
//! * [`bc`] — betweenness centrality (the companion path-problem the
//!   paper's conclusions point at) with pendant-tree reduction;
//! * [`workloads`] — synthetic dataset generators matched to the paper;
//! * [`obs`] — tracing + metrics with Chrome-trace export.
//!
//! The two pipelines' front doors are
//! [`apsp::build_oracle`]/[`apsp::build_oracle_with_plan`] (at an
//! [`apsp::ApspMethod`]) and [`mcb::mcb`]/[`mcb::mcb_with_plan`] (with an
//! [`mcb::McbConfig`]).

pub use ear_apsp as apsp;
pub use ear_bc as bc;
pub use ear_decomp as decomp;
pub use ear_graph as graph;
pub use ear_hetero as hetero;
pub use ear_mcb as mcb;
pub use ear_obs as obs;
pub use ear_workloads as workloads;
