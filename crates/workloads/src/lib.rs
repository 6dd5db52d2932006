//! # ear-workloads
//!
//! Synthetic workload generators matched to the paper's Table 1 datasets.
//!
//! The paper evaluates on University of Florida Sparse Matrix Collection
//! graphs plus OGDF-generated planar graphs. Neither source ships with this
//! repository, so [`specs`] describes each dataset by the structural
//! statistics Table 1 publishes — `|V|`, `|E|`, number of biconnected
//! components, largest-BCC edge share, and the fraction of degree-2
//! vertices the preprocessing removes — and [`specs::DatasetSpec::build`]
//! synthesises a graph hitting those statistics (see DESIGN.md for why
//! this substitution preserves the evaluation's behaviour: every effect the
//! paper measures is driven by exactly these statistics).
//!
//! * [`generators`] — base topologies: grids, triangulated grids
//!   (delaunay-like), preferential attachment (collaboration/AS-like),
//!   Watts–Strogatz small worlds, random min-degree-3 cores;
//! * [`combinators`] — structure editors: edge subdivision (plants degree-2
//!   chains), pendant vertices, satellite blocks (controls #BCCs);
//! * [`specs`] — the fifteen Table 1 rows plus `build()`;
//! * [`stats`] — measures every Table 1 column of a generated graph.

#![forbid(unsafe_code)]

pub mod combinators;
pub mod generators;
pub mod specs;
pub mod stats;

pub use specs::{planar_specs, table1_specs, DatasetSpec};
pub use stats::GraphStats;
