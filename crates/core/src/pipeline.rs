//! Builder-style front doors for the APSP and MCB pipelines.

use std::sync::Arc;

use ear_apsp::{build_oracle_with_plan, ApspMethod, DistanceOracle};
use ear_decomp::plan::DecompPlan;
use ear_graph::CsrGraph;
use ear_mcb::{mcb_with_plan, ExecMode, McbConfig, McbResult};

/// Configures and runs the ear-decomposition APSP pipeline (paper §2).
///
/// Defaults: ear reduction on, CPU+GPU heterogeneous execution.
#[derive(Clone, Debug)]
pub struct ApspPipeline {
    mode: ExecMode,
    use_ear: bool,
    plan: Option<Arc<DecompPlan>>,
}

impl Default for ApspPipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl ApspPipeline {
    /// Paper defaults: ear reduction, heterogeneous devices.
    pub fn new() -> Self {
        ApspPipeline {
            mode: ExecMode::Hetero,
            use_ear: true,
            plan: None,
        }
    }

    /// Selects the device set.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Toggles the ear-decomposition reduction. `false` gives the Banerjee
    /// et al. baseline configuration.
    pub fn use_ear(mut self, on: bool) -> Self {
        self.use_ear = on;
        self
    }

    /// Supplies a prebuilt [`DecompPlan`] so `run` skips the decomposition
    /// front half. The plan must have been built from the same graph that
    /// is later passed to [`ApspPipeline::run`].
    pub fn plan(mut self, plan: Arc<DecompPlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Builds the distance oracle for `g`.
    pub fn run(&self, g: &CsrGraph) -> ApspOutcome {
        let exec = self.mode.executor();
        let method = if self.use_ear {
            ApspMethod::Ear
        } else {
            ApspMethod::Plain
        };
        let plan = match &self.plan {
            Some(p) => Arc::clone(p),
            None => Arc::new(DecompPlan::build(g)),
        };
        let oracle = build_oracle_with_plan(plan, &exec, method);
        let modelled_time_s = oracle.modelled_time_s();
        ApspOutcome {
            oracle,
            modelled_time_s,
        }
    }
}

/// A built distance oracle plus its modelled build time.
#[derive(Debug)]
pub struct ApspOutcome {
    /// The queryable oracle.
    pub oracle: DistanceOracle,
    /// Modelled device time of the build (paper-comparable seconds).
    pub modelled_time_s: f64,
}

/// Configures and runs the MCB pipeline (paper §3).
#[derive(Clone, Debug, Default)]
pub struct McbPipeline {
    config: McbConfig,
    plan: Option<Arc<DecompPlan>>,
}

impl McbPipeline {
    /// Paper defaults: ear reduction, heterogeneous devices.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the device set.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Toggles the ear-decomposition reduction (the paper's "w/o" columns).
    pub fn use_ear(mut self, on: bool) -> Self {
        self.config.use_ear = on;
        self
    }

    /// Supplies a prebuilt [`DecompPlan`] so `run` skips the decomposition
    /// front half. The plan must have been built from the same graph that
    /// is later passed to [`McbPipeline::run`].
    pub fn plan(mut self, plan: Arc<DecompPlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Computes the minimum cycle basis of `g`.
    pub fn run(&self, g: &CsrGraph) -> McbOutcome {
        let result = match &self.plan {
            Some(p) => mcb_with_plan(g, p, &self.config),
            None => mcb_with_plan(g, &DecompPlan::build(g), &self.config),
        };
        let modelled_time_s = result.modelled_time_s();
        McbOutcome {
            result,
            modelled_time_s,
        }
    }
}

/// A computed basis plus its modelled time.
#[derive(Debug)]
pub struct McbOutcome {
    /// The basis and statistics.
    pub result: McbResult,
    /// Modelled device time (paper-comparable seconds).
    pub modelled_time_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        CsrGraph::from_edges(
            6,
            &[
                (0, 1, 2),
                (1, 2, 3),
                (2, 0, 4),
                (2, 3, 1),
                (3, 4, 2),
                (4, 5, 3),
                (5, 3, 4),
            ],
        )
    }

    #[test]
    fn apsp_defaults_answer_queries() {
        let out = ApspPipeline::new().run(&sample());
        // 0 →(4) 2 →(1) 3 →(4) 5 beats the longer unit-hop routes.
        assert_eq!(out.oracle.dist(0, 5), 9);
        assert!(out.modelled_time_s > 0.0);
    }

    #[test]
    fn apsp_baseline_configuration_matches() {
        let g = sample();
        let ours = ApspPipeline::new().run(&g);
        let banerjee = ApspPipeline::new()
            .use_ear(false)
            .mode(ExecMode::MultiCore)
            .run(&g);
        for u in 0..g.n() as u32 {
            for v in 0..g.n() as u32 {
                assert_eq!(ours.oracle.dist(u, v), banerjee.oracle.dist(u, v));
            }
        }
    }

    #[test]
    fn mcb_pipeline_full_grid_agrees() {
        let g = sample();
        let mut weights = std::collections::HashSet::new();
        for mode in ExecMode::all() {
            for ear in [true, false] {
                let out = McbPipeline::new().mode(mode).use_ear(ear).run(&g);
                weights.insert(out.result.total_weight);
            }
        }
        assert_eq!(weights.len(), 1, "all configs must agree: {weights:?}");
    }

    #[test]
    fn shared_plan_matches_cold_runs() {
        let g = sample();
        let plan = Arc::new(DecompPlan::build(&g));
        let apsp_cold = ApspPipeline::new().mode(ExecMode::Sequential).run(&g);
        let apsp_warm = ApspPipeline::new()
            .mode(ExecMode::Sequential)
            .plan(Arc::clone(&plan))
            .run(&g);
        for u in 0..g.n() as u32 {
            for v in 0..g.n() as u32 {
                assert_eq!(apsp_cold.oracle.dist(u, v), apsp_warm.oracle.dist(u, v));
            }
        }
        let mcb_cold = McbPipeline::new().mode(ExecMode::Sequential).run(&g);
        let mcb_warm = McbPipeline::new()
            .mode(ExecMode::Sequential)
            .plan(Arc::clone(&plan))
            .run(&g);
        assert_eq!(mcb_cold.result.total_weight, mcb_warm.result.total_weight);
        assert_eq!(mcb_cold.result.dim, mcb_warm.result.dim);
    }

    #[test]
    fn builders_are_reusable() {
        let p = ApspPipeline::new().mode(ExecMode::Sequential);
        let g = sample();
        let a = p.run(&g);
        let b = p.run(&g);
        assert_eq!(a.oracle.dist(1, 4), b.oracle.dist(1, 4));
    }
}
