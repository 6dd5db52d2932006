//! # ear-core
//!
//! High-level pipelines tying the suite together: one builder each for the
//! paper's two problems. Both follow the same blueprint (paper §1):
//! *decompose* into biconnected components, *reduce* each by contracting
//! degree-2 ears, *process* the small reduced graphs on the heterogeneous
//! platform, *post-process* results back to the original graph.
//!
//! ```
//! use ear_core::{ApspPipeline, McbPipeline};
//! use ear_graph::CsrGraph;
//!
//! let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 2), (2, 0, 3), (2, 3, 5)]);
//!
//! let apsp = ApspPipeline::new().run(&g);
//! assert_eq!(apsp.oracle.dist(0, 3), 8);
//!
//! let mcb = McbPipeline::new().run(&g);
//! assert_eq!(mcb.result.total_weight, 6);
//! ```

pub mod pipeline;

pub use pipeline::{ApspOutcome, ApspPipeline, McbOutcome, McbPipeline};

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use crate::pipeline::{ApspOutcome, ApspPipeline, McbOutcome, McbPipeline};
    pub use ear_apsp::{ApspMethod, DistanceOracle};
    pub use ear_graph::{CsrGraph, GraphBuilder, VertexId, Weight, INF};
    pub use ear_hetero::HeteroExecutor;
    pub use ear_mcb::{ExecMode, McbConfig, McbResult};
}
