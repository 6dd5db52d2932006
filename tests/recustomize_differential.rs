//! Differential acceptance suite for the topology/customization split.
//!
//! `DecompPlan::recustomize` claims that recomputing only the weight layer
//! — dirty blocks in parallel, everything else shared — produces a plan
//! **bit-identical** to a cold `DecompPlan::build` on the reweighted
//! graph, and that every plan consumer (the distance oracle at every
//! `ApspMethod` via its incremental `recustomized` refresh, the MCB
//! pipeline, the stats reporter) gives the same answers either way. This
//! suite pins that claim across every testkit graph family and three
//! perturbation shapes: a no-op reweight (`w' == w`), a single-edge
//! perturbation, and a dense random reweight — and, for the refreshes,
//! across plans that are not the refreshed object's direct child (a
//! skipped generation, a sibling branch).

use std::sync::Arc;

use ear_apsp::{build_oracle, build_oracle_with_plan, ApspMethod, QueryEngine};
use ear_decomp::plan::DecompPlan;
use ear_graph::{CsrGraph, Weight};
use ear_hetero::HeteroExecutor;
use ear_mcb::{mcb, mcb_with_plan, ExecMode, McbConfig};
use ear_testkit::invariants::customization_invariants;
use ear_testkit::rng::derive_seed;
use ear_testkit::{
    biconnected_graphs, cactus_graphs, chain_heavy_graphs, forall, multi_bcc_graphs, multigraphs,
    simple_graphs, workload_graphs, GraphStrategy, TestRng,
};
use ear_workloads::GraphStats;

const METHODS: [ApspMethod; 3] = [ApspMethod::Ear, ApspMethod::Plain, ApspMethod::Reduced];

/// Every strategy family the testkit ships, in one list.
fn families() -> Vec<(&'static str, GraphStrategy)> {
    vec![
        ("simple", simple_graphs(14)),
        ("multigraph", multigraphs(12)),
        ("biconnected", biconnected_graphs(12)),
        ("chain_heavy", chain_heavy_graphs(30)),
        ("cactus", cactus_graphs(16)),
        ("multi_bcc", multi_bcc_graphs(16)),
        ("workload", workload_graphs(40)),
    ]
}

/// The three perturbation shapes the suite exercises: no-op, single edge,
/// and a dense random reweight (every weight redrawn with ~50% change
/// probability).
fn perturbations(g: &CsrGraph, seed: u64) -> Vec<(&'static str, Vec<Weight>)> {
    let base: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
    let mut out = vec![("noop", base.clone())];
    if g.m() > 0 {
        let mut rng = TestRng::new(derive_seed(seed, 0x5eed));
        let mut single = base.clone();
        let e = rng.usize_in(0, g.m());
        single[e] = single[e].wrapping_add(rng.u64_in(1, 51)).max(1);
        out.push(("single_edge", single));
        let mut dense = base;
        for w in dense.iter_mut() {
            if rng.coin() {
                *w = rng.u64_in(1, 101);
            }
        }
        out.push(("dense", dense));
    }
    out
}

/// `customization_invariants` (topology sharing, dirty-set exactness,
/// cold-build bit-identity) holds on every family, every perturbation
/// shape.
#[test]
fn customization_invariants_hold_on_every_family() {
    for (name, strat) in families() {
        forall(format!("customization_invariants/{name}").leak())
            .cases(12)
            .run(&strat, |g| {
                let plan = DecompPlan::build(g);
                for (shape, w) in perturbations(g, g.m() as u64) {
                    customization_invariants(g, &plan, &w).map_err(|e| format!("{shape}: {e}"))?;
                }
                Ok(())
            });
    }
}

/// A chained recustomization (recustomize the recustomized plan) still
/// matches a cold build and keeps sharing the original topology.
#[test]
fn chained_recustomization_stays_exact() {
    for (name, strat) in families() {
        forall(format!("chained_recustomize/{name}").leak())
            .cases(8)
            .run(&strat, |g| {
                let plan = DecompPlan::build(g);
                let perturbed = perturbations(g, 7);
                let Some((_, w1)) = perturbed.iter().find(|(s, _)| *s == "dense") else {
                    return Ok(()); // edgeless graph: nothing to chain
                };
                let warm1 = plan.recustomized(w1);
                // Second hop goes from w1 back towards fresh weights.
                let (_, w2) = &perturbations(g, 99)[perturbed.len() - 1];
                customization_invariants(&g.reweighted(w1), &warm1, w2)
                    .map_err(|e| format!("second hop: {e}"))?;
                let warm2 = warm1.recustomized(w2);
                if !warm2.shares_topology(&plan) || warm2.generation() != 2 {
                    return Err("chained plan lost the shared topology or generation".into());
                }
                Ok(())
            });
    }
}

/// The incremental oracle refresh answers every pair exactly like a cold
/// oracle built on the reweighted graph, at every method.
#[test]
fn refreshed_oracles_match_cold_builds() {
    for (name, strat) in families() {
        forall(format!("refreshed_oracles/{name}").leak())
            .cases(8)
            .run(&strat, |g| {
                let exec = HeteroExecutor::sequential();
                let plan = Arc::new(DecompPlan::build(g));
                for (shape, w) in perturbations(g, 13) {
                    let gp = g.reweighted(&w);
                    let warm_plan = Arc::new(plan.recustomized(&w));
                    for method in METHODS {
                        let base = build_oracle_with_plan(Arc::clone(&plan), &exec, method);
                        let warm = base.recustomized(Arc::clone(&warm_plan), &exec);
                        let cold = build_oracle(&gp, &exec, method);
                        for u in 0..g.n() as u32 {
                            for v in 0..g.n() as u32 {
                                let (a, b) = (warm.dist(u, v), cold.dist(u, v));
                                if a != b {
                                    return Err(format!(
                                        "{shape}/{method:?}: dist({u},{v}) warm {a} vs cold {b}"
                                    ));
                                }
                            }
                        }
                        if warm.stats() != cold.stats() {
                            return Err(format!("{shape}/{method:?}: oracle stats diverge"));
                        }
                    }
                }
                Ok(())
            });
    }
}

/// Every pair of `n` vertices on which `warm` and `cold` disagree, as an
/// error naming the first.
fn same_answers(
    n: usize,
    what: &str,
    warm: impl Fn(u32, u32) -> Weight,
    cold: impl Fn(u32, u32) -> Weight,
) -> Result<(), String> {
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            let (a, b) = (warm(u, v), cold(u, v));
            if a != b {
                return Err(format!("{what}: dist({u},{v}) warm {a} vs cold {b}"));
            }
        }
    }
    Ok(())
}

/// A refresh handed a plan that is not the direct child of the refreshed
/// object's own plan still matches a cold build: the oracle (every
/// method) and the query engine over it each recompute the
/// blocks whose weights differ from *their* plan, not the plan's parent.
/// Two shapes, both built from single-edge steps so the hops usually
/// dirty different blocks: a skipped generation (`p0` → `p2`, where `p2 =
/// p0.recustomized(w1).recustomized(w2)`) and a sibling branch (`p1` →
/// `pb`, both children of `p0`).
#[test]
fn refresh_across_generations_and_branches_matches_cold_builds() {
    for (name, strat) in families() {
        forall(format!("non_child_refresh/{name}").leak())
            .cases(8)
            .run(&strat, |g| {
                if g.m() == 0 {
                    return Ok(());
                }
                let exec = HeteroExecutor::sequential();
                let mut rng = TestRng::new(derive_seed(g.n() as u64, 0x51b1));
                let mut step = |w: &[Weight]| {
                    let mut w = w.to_vec();
                    let e = rng.usize_in(0, g.m());
                    w[e] = w[e].wrapping_add(rng.u64_in(1, 51)).max(1);
                    w
                };
                let base: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
                let (w1, wb) = (step(&base), step(&base));
                let w2 = step(&w1);
                let p0 = Arc::new(DecompPlan::build(g));
                let p1 = Arc::new(p0.recustomized(&w1));
                let p2 = Arc::new(p1.recustomized(&w2));
                let pb = Arc::new(p0.recustomized(&wb));
                for (shape, from, to, w) in [("skip", &p0, &p2, &w2), ("sibling", &p1, &pb, &wb)] {
                    let gp = g.reweighted(w);
                    for method in METHODS {
                        let base = build_oracle_with_plan(Arc::clone(from), &exec, method);
                        let warm = base.recustomized(Arc::clone(to), &exec);
                        let cold = build_oracle(&gp, &exec, method);
                        let what = format!("{shape}/{method:?}");
                        same_answers(g.n(), &what, |u, v| warm.dist(u, v), |u, v| cold.dist(u, v))?;
                        // The engine follows an oracle that is exact for
                        // `to` by construction (a cold build on it).
                        let engine = QueryEngine::new(&base).recustomized(&build_oracle_with_plan(
                            Arc::clone(to),
                            &exec,
                            method,
                        ));
                        let what = format!("{shape}/{method:?}/engine");
                        same_answers(
                            g.n(),
                            &what,
                            |u, v| engine.dist(u, v),
                            |u, v| cold.dist(u, v),
                        )?;
                    }
                }
                Ok(())
            });
    }
}

/// The MCB pipeline on a recustomized plan returns the same basis weight,
/// dimension and cycles as a cold run on the reweighted graph.
#[test]
fn mcb_on_recustomized_plan_matches_cold_run() {
    for (name, strat) in families() {
        if name == "multigraph" {
            continue; // `mcb` documents a simple-graph contract
        }
        forall(format!("mcb_recustomized/{name}").leak())
            .cases(8)
            .run(&strat, |g| {
                if !g.is_simple() {
                    return Ok(());
                }
                let config = McbConfig {
                    mode: ExecMode::Sequential,
                    use_ear: true,
                };
                let plan = DecompPlan::build(g);
                for (shape, w) in perturbations(g, 29) {
                    let gp = g.reweighted(&w);
                    let warm = mcb_with_plan(&gp, &plan.recustomized(&w), &config);
                    let cold = mcb(&gp, &config);
                    if warm.total_weight != cold.total_weight || warm.dim != cold.dim {
                        return Err(format!(
                            "{shape}: weight {}/{} dim {}/{}",
                            warm.total_weight, cold.total_weight, warm.dim, cold.dim
                        ));
                    }
                    for (i, (a, b)) in warm.cycles.iter().zip(&cold.cycles).enumerate() {
                        if a.edges != b.edges || a.weight != b.weight {
                            return Err(format!("{shape}: cycle {i} diverges"));
                        }
                    }
                }
                Ok(())
            });
    }
}

/// Table 1 statistics are weight-independent: a recustomized plan reports
/// exactly the stats a cold build on the reweighted graph reports.
#[test]
fn stats_are_stable_under_recustomization() {
    for (name, strat) in families() {
        forall(format!("stats_recustomized/{name}").leak())
            .cases(12)
            .run(&strat, |g| {
                let plan = DecompPlan::build(g);
                for (shape, w) in perturbations(g, 41) {
                    let a = GraphStats::from_plan(&plan.recustomized(&w));
                    let b = GraphStats::from_plan(&DecompPlan::build(&g.reweighted(&w)));
                    if a.n != b.n
                        || a.m != b.m
                        || a.n_bccs != b.n_bccs
                        || a.largest_bcc_edges != b.largest_bcc_edges
                        || a.removed != b.removed
                        || a.articulation_points != b.articulation_points
                        || a.table_entries != b.table_entries
                        || a.reduced_table_entries != b.reduced_table_entries
                    {
                        return Err(format!("{shape}: stats diverge: {a:?} vs {b:?}"));
                    }
                }
                Ok(())
            });
    }
}
