//! The full MCB pipeline of paper §3.3: biconnected split, ear reduction
//! (Lemma 3.1), per-block de Pina, chain re-expansion.
//!
//! No cycle of an MCB spans two biconnected components, so each block is
//! processed independently. Inside a block, every maximal degree-2 chain
//! `P` collapses into one edge `e_P` with `W(e_P) = W(P)`; Lemma 3.1 proves
//! the reduced graph has the same cycle-space dimension and the same MCB
//! weight, and that substituting `e_P → P` in each chosen cycle of
//! `MCB(G^r)` yields an MCB of `G`. The reduced multigraph keeps parallel
//! chain edges and anchor-to-self loops — they are independent generators.

use std::time::Instant;

use ear_decomp::plan::DecompPlan;
use ear_graph::{CsrGraph, EdgeId, Weight};
use ear_hetero::HeteroExecutor;

use crate::cycle_space::{Cycle, CycleSpace};
use crate::depina::{depina_mcb_traced, replay_trace, DepinaOptions, PhaseProfile, PhaseTrace};

/// Which device set runs the algorithm — the four columns of the paper's
/// Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// One CPU core.
    Sequential,
    /// The 2×10-core E5-2650.
    MultiCore,
    /// The Tesla K40c alone.
    Gpu,
    /// CPU + GPU with dynamic work balancing.
    Hetero,
}

impl ExecMode {
    /// The matching executor.
    pub fn executor(&self) -> HeteroExecutor {
        match self {
            ExecMode::Sequential => HeteroExecutor::sequential(),
            ExecMode::MultiCore => HeteroExecutor::multicore(),
            ExecMode::Gpu => HeteroExecutor::gpu_only(),
            ExecMode::Hetero => HeteroExecutor::cpu_gpu(),
        }
    }

    /// All four modes, in the paper's Table 2 column order.
    pub fn all() -> [ExecMode; 4] {
        [
            ExecMode::Sequential,
            ExecMode::MultiCore,
            ExecMode::Gpu,
            ExecMode::Hetero,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ExecMode::Sequential => "Sequential",
            ExecMode::MultiCore => "Multi-Core",
            ExecMode::Gpu => "GPU",
            ExecMode::Hetero => "CPU+GPU",
        }
    }
}

/// Pipeline configuration: execution mode × ear-reduction toggle — the full
/// grid of the paper's Table 2 ("w" and "w/o" columns).
#[derive(Clone, Copy, Debug)]
pub struct McbConfig {
    /// Device set.
    pub mode: ExecMode,
    /// Run the ear-decomposition reduction before de Pina.
    pub use_ear: bool,
}

impl Default for McbConfig {
    fn default() -> Self {
        McbConfig {
            mode: ExecMode::Hetero,
            use_ear: true,
        }
    }
}

/// Result of the MCB pipeline.
#[derive(Debug)]
pub struct McbResult {
    /// The basis cycles, with edge ids of the *original* graph.
    pub cycles: Vec<Cycle>,
    /// Sum of cycle weights — `W(MCB(G))`.
    pub total_weight: Weight,
    /// Cycle-space dimension `m − n + k`.
    pub dim: usize,
    /// Vertices removed by ear reduction across all blocks.
    pub removed_vertices: usize,
    /// Modelled per-phase times, aggregated across blocks.
    pub profile: PhaseProfile,
    /// Real wall-clock of the whole pipeline.
    pub wall_s: f64,
}

impl McbResult {
    /// Total modelled device time (the Table 2 cell).
    pub fn modelled_time_s(&self) -> f64 {
        self.profile.total_s()
    }
}

/// Runs the MCB pipeline on a simple weighted graph.
///
/// ```
/// use ear_mcb::{mcb, McbConfig};
/// use ear_graph::CsrGraph;
/// // K4 with unit weights: the MCB is three triangles.
/// let g = CsrGraph::from_edges(4, &[
///     (0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1),
/// ]);
/// let out = mcb(&g, &McbConfig::default());
/// assert_eq!(out.dim, 3);
/// assert_eq!(out.total_weight, 9);
/// ```
pub fn mcb(g: &CsrGraph, config: &McbConfig) -> McbResult {
    mcb_with_plan(g, &DecompPlan::build(g), config)
}

/// Like [`mcb`], but reuses a prebuilt (and possibly shared)
/// [`DecompPlan`] instead of re-running the biconnected split and
/// per-block reduction. `plan` must have been built from `g` — after a
/// reweight, pair the reweighted graph with
/// [`DecompPlan::recustomized`](ear_decomp::plan::DecompPlan::recustomized),
/// not with the stale customization.
pub fn mcb_with_plan(g: &CsrGraph, plan: &DecompPlan, config: &McbConfig) -> McbResult {
    debug_assert!(
        plan.m() == g.m()
            && plan
                .edge_weights()
                .iter()
                .zip(g.edges())
                .all(|(&w, e)| w == e.w),
        "plan customization does not match g's weights — recustomize the plan first"
    );
    let (cycles, removed, trace, wall_s) = run_blocks(g, plan, config.use_ear);
    let profile = {
        let _s = ear_obs::span("mcb.replay");
        replay_trace(&trace, &config.mode.executor())
    };
    finish(cycles, removed, profile, wall_s)
}

/// Runs the real computation once and scores **all four execution modes**
/// from the recorded trace — what the Table 2 / Figure 5 / Figure 6
/// harnesses use. The returned [`McbResult`] carries the heterogeneous
/// profile; `profiles` follows [`ExecMode::all`] order.
pub fn mcb_all_modes(g: &CsrGraph, use_ear: bool) -> (McbResult, [PhaseProfile; 4]) {
    let plan = DecompPlan::build(g);
    let (cycles, removed, trace, wall_s) = run_blocks(g, &plan, use_ear);
    let profiles = ExecMode::all().map(|mode| replay_trace(&trace, &mode.executor()));
    let result = finish(cycles, removed, profiles[3].clone(), wall_s);
    (result, profiles)
}

/// Publish the final (aggregated, replayed) profile into the `ear-obs`
/// metrics registry under the `mcb.*` names the CLI `--profile` table and
/// the `--metrics-out` snapshot read. `mcb.fallbacks` and `mcb.phases`
/// are published by the phase loop itself; everything else lands here,
/// once per pipeline run.
fn publish_profile(p: &PhaseProfile) {
    if !ear_obs::is_enabled() {
        return;
    }
    ear_obs::gauge_set("mcb.trees_s", p.trees_s);
    ear_obs::gauge_set("mcb.labels_s", p.labels_s);
    ear_obs::gauge_set("mcb.search_s", p.search_s);
    ear_obs::gauge_set("mcb.update_s", p.update_s);
    ear_obs::counter_add("mcb.labels_computed", p.counters.labels_computed);
    ear_obs::counter_add("mcb.cycles_inspected", p.counters.cycles_inspected);
    ear_obs::counter_add("mcb.words_xored", p.counters.words_xored);
    ear_obs::counter_add("mcb.edges_relaxed", p.counters.edges_relaxed);
    ear_obs::counter_add("mcb.vertices_settled", p.counters.vertices_settled);
}

fn finish(cycles: Vec<Cycle>, removed: usize, profile: PhaseProfile, wall_s: f64) -> McbResult {
    let total_weight = cycles.iter().map(|c| c.weight).sum();
    let dim = cycles.len();
    publish_profile(&profile);
    if ear_obs::is_enabled() {
        ear_obs::counter_add("mcb.dim", dim as u64);
        ear_obs::counter_add("mcb.weight", total_weight);
    }
    McbResult {
        cycles,
        total_weight,
        dim,
        removed_vertices: removed,
        profile,
        wall_s,
    }
}

/// The mode-independent part: per-block de Pina on the plan's (reduced)
/// blocks, chain re-expansion, trace collection.
fn run_blocks(
    g: &CsrGraph,
    plan: &DecompPlan,
    use_ear: bool,
) -> (Vec<Cycle>, usize, PhaseTrace, f64) {
    let wall = Instant::now();
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut trace = PhaseTrace::default();
    let mut removed = 0usize;
    let opts = DepinaOptions::default();

    let parent_cs = CycleSpace::new(g);
    // Blocks sorted by size: biggest first, the paper's workunit order.
    for b in plan.blocks_by_size_desc() {
        let b = b as u32;
        let bp = plan.block(b);
        if bp.m() < bp.n() {
            continue; // a bridge (tree block): no cycles
        }
        let _block_span = ear_obs::span_with("mcb.block", b as u64);
        if let Some(r) = use_ear.then(|| plan.reduction(b)).flatten() {
            removed += r.removed_count();
            let (basis_r, t) = depina_mcb_traced(&r.reduced, &opts);
            trace.merge(t);
            // Re-expand: reduced edge → original chain (paper §3.3.3: "just
            // by substituting every e_P present in the cycle with its
            // corresponding P").
            for c in basis_r {
                let sub_edges: Vec<EdgeId> =
                    c.edges.iter().flat_map(|&re| r.expand_edge(re)).collect();
                cycles.push(remap_cycle(g, &parent_cs, &bp.to_parent_edge, sub_edges));
            }
        } else {
            // De Pina needs owned storage: materialize the block's arena
            // window.
            let sub = plan.block_graph(b).materialize();
            let (basis_s, t) = depina_mcb_traced(&sub, &opts);
            trace.merge(t);
            for c in basis_s {
                cycles.push(remap_cycle(g, &parent_cs, &bp.to_parent_edge, c.edges));
            }
        }
    }
    (cycles, removed, trace, wall.elapsed().as_secs_f64())
}

/// Lifts a cycle's subgraph edge ids to parent ids and recomputes its
/// metadata against the parent graph's cycle space.
fn remap_cycle(
    g: &CsrGraph,
    parent_cs: &CycleSpace,
    to_parent_edge: &[EdgeId],
    sub_edges: Vec<EdgeId>,
) -> Cycle {
    let parent_edges = sub_edges.iter().map(|&e| to_parent_edge[e as usize]);
    parent_cs.cycle_from_edges(g, parent_edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::horton::horton_mcb;
    use crate::signed::signed_mcb;
    use crate::verify::verify_basis;

    fn weight(basis: &[Cycle]) -> Weight {
        basis.iter().map(|c| c.weight).sum()
    }

    /// Run the full grid and check every config agrees with the signed
    /// reference and passes structural verification.
    fn check_grid(g: &CsrGraph) -> McbResult {
        let reference = weight(&signed_mcb(g));
        let mut keep = None;
        for mode in [ExecMode::Sequential, ExecMode::Hetero] {
            for use_ear in [true, false] {
                let out = mcb(g, &McbConfig { mode, use_ear });
                assert_eq!(out.total_weight, reference, "mode {mode:?} ear {use_ear}");
                verify_basis(g, &out.cycles).unwrap();
                if use_ear && mode == ExecMode::Hetero {
                    keep = Some(out);
                }
            }
        }
        keep.unwrap()
    }

    #[test]
    fn theta_with_chains() {
        // Anchors 0,2 joined by three chains — reduction leaves a 2-vertex
        // multigraph with three parallel edges.
        let g = CsrGraph::from_edges(
            5,
            &[
                (0, 1, 1),
                (1, 2, 2),
                (0, 3, 3),
                (3, 2, 4),
                (0, 4, 5),
                (4, 2, 6),
            ],
        );
        let out = check_grid(&g);
        assert_eq!(out.dim, 2);
        assert_eq!(out.removed_vertices, 3);
        // MCB: the two lightest ring pairs: (1+2)+(3+4)=10 and (1+2)+(5+6)=14.
        assert_eq!(out.total_weight, 24);
    }

    #[test]
    fn pure_cycle_reduces_to_self_loop() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)]);
        let out = check_grid(&g);
        assert_eq!(out.dim, 1);
        assert_eq!(out.total_weight, 10);
        assert_eq!(out.cycles[0].edges.len(), 4);
    }

    #[test]
    fn two_blocks_and_a_bridge() {
        let g = CsrGraph::from_edges(
            7,
            &[
                (0, 1, 1),
                (1, 2, 2),
                (2, 0, 3),
                (2, 3, 10),
                (3, 4, 1),
                (4, 5, 2),
                (5, 6, 3),
                (6, 3, 4),
            ],
        );
        let out = check_grid(&g);
        assert_eq!(out.dim, 2);
        assert_eq!(out.total_weight, 6 + 10);
    }

    #[test]
    fn grid_matches_horton() {
        let idx = |r: u32, c: u32| r * 4 + c;
        let mut edges = Vec::new();
        let mut w = 1u64;
        for r in 0..4u32 {
            for c in 0..4u32 {
                if c + 1 < 4 {
                    edges.push((idx(r, c), idx(r, c + 1), w));
                    w = w % 9 + 1;
                }
                if r + 1 < 4 {
                    edges.push((idx(r, c), idx(r + 1, c), w));
                    w = w % 6 + 1;
                }
            }
        }
        let g = CsrGraph::from_edges(16, &edges);
        let out = check_grid(&g);
        assert_eq!(out.total_weight, weight(&horton_mcb(&g)));
    }

    #[test]
    fn chain_heavy_graph_removes_most_vertices() {
        // Two hubs joined by four chains of three degree-2 vertices each.
        let mut edges: Vec<(u32, u32, u64)> = Vec::new();
        let mut next = 2u32;
        for c in 0..4u64 {
            let (a, b, z) = (next, next + 1, next + 2);
            edges.push((0, a, c + 1));
            edges.push((a, b, 1));
            edges.push((b, z, 1));
            edges.push((z, 1, 1));
            next += 3;
        }
        let g = CsrGraph::from_edges(next as usize, &edges);
        let out = check_grid(&g);
        assert_eq!(out.removed_vertices, 12);
        assert_eq!(out.dim, 3);
        // Ear-reduced run must do far less label work than the direct run.
        let direct = mcb(
            &g,
            &McbConfig {
                mode: ExecMode::Sequential,
                use_ear: false,
            },
        );
        assert!(out.profile.counters.labels_computed < direct.profile.counters.labels_computed);
    }

    #[test]
    fn ear_reduction_speeds_up_the_model() {
        // A ring of 60 with 3 hub chords: heavy degree-2 population.
        let mut edges: Vec<(u32, u32, u64)> = (0..60).map(|i| (i, (i + 1) % 60, 2)).collect();
        edges.push((0, 20, 5));
        edges.push((20, 40, 5));
        edges.push((40, 0, 5));
        let g = CsrGraph::from_edges(60, &edges);
        let with = mcb(
            &g,
            &McbConfig {
                mode: ExecMode::Sequential,
                use_ear: true,
            },
        );
        let without = mcb(
            &g,
            &McbConfig {
                mode: ExecMode::Sequential,
                use_ear: false,
            },
        );
        assert_eq!(with.total_weight, without.total_weight);
        assert!(
            with.modelled_time_s() < without.modelled_time_s(),
            "with {} vs without {}",
            with.modelled_time_s(),
            without.modelled_time_s()
        );
    }

    #[test]
    fn empty_and_acyclic_graphs() {
        let out = mcb(&CsrGraph::from_edges(0, &[]), &McbConfig::default());
        assert_eq!(out.dim, 0);
        let tree = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (1, 3, 1)]);
        let out = mcb(&tree, &McbConfig::default());
        assert_eq!(out.dim, 0);
        assert_eq!(out.total_weight, 0);
    }

    #[test]
    fn dimension_matches_formula() {
        let g = CsrGraph::from_edges(
            8,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (2, 3, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 3, 1),
                (6, 7, 1),
            ],
        );
        let cs = CycleSpace::new(&g);
        let out = mcb(&g, &McbConfig::default());
        assert_eq!(out.dim, cs.dim());
    }
}
