//! Differential acceptance suite for the query fast path.
//!
//! `ear_apsp::QueryEngine` claims that precomputed gateway routing over
//! fused flat tables — scalar `dist`, the batched many-to-many kernel,
//! and the fast `path` realization — is **bit-identical** to the legacy
//! `DistanceOracle` query path, and that `QueryEngine::recustomized`
//! tracks an incremental oracle refresh exactly while sharing the routing
//! topology always and every clean table span. This suite pins those
//! claims across every testkit graph family, random and adversarial
//! vertex pairs, and before/after recustomization.

use std::sync::Arc;

use ear_apsp::{build_oracle_with_plan, ApspMethod, QueryEngine, QueryScratch};
use ear_decomp::plan::DecompPlan;
use ear_graph::{CsrGraph, VertexId, Weight};
use ear_hetero::HeteroExecutor;
use ear_testkit::rng::derive_seed;
use ear_testkit::{
    biconnected_graphs, cactus_graphs, chain_heavy_graphs, forall, multi_bcc_graphs, multigraphs,
    simple_graphs, workload_graphs, GraphStrategy, TestRng,
};

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

/// Random pairs plus every adversarial shape the routing special-cases:
/// AP endpoints (the self-gateway record), same-home-block pairs (the
/// direct table read), cross-tree and isolated pairs (the component
/// early-out), and the diagonal.
fn query_pairs(g: &CsrGraph, plan: &DecompPlan, seed: u64) -> Vec<(VertexId, VertexId)> {
    let n = g.n() as u32;
    if n == 0 {
        return Vec::new();
    }
    let mut rng = TestRng::new(derive_seed(seed, 0x9a1e));
    let mut pairs = Vec::new();
    for _ in 0..64 {
        pairs.push((rng.usize_in(0, g.n()) as u32, rng.usize_in(0, g.n()) as u32));
    }
    let bct = plan.bct();
    // AP endpoints, both directions, AP-to-AP included.
    for &a in bct.aps.iter().take(8) {
        pairs.push((a, rng.usize_in(0, g.n()) as u32));
        pairs.push((rng.usize_in(0, g.n()) as u32, a));
        if let Some(&b) = bct.aps.last() {
            pairs.push((a, b));
        }
    }
    // Same-home-block pairs (shared home ⇒ the single-read fast branch).
    for v in 0..n {
        let h = bct.vertex_block[v as usize];
        if h == u32::MAX {
            continue;
        }
        if let Some(u) = (0..n).find(|&u| u != v && bct.vertex_block[u as usize] == h) {
            pairs.push((v, u));
            break;
        }
    }
    // Cross-component and isolated pairs, when the graph has them.
    let comp0 = bct.component_of(0);
    for v in 1..n {
        if bct.component_of(v) != comp0 {
            pairs.push((0, v));
            pairs.push((v, 0));
            break;
        }
    }
    for v in 0..n {
        pairs.push((v % n, v)); // includes the diagonal
    }
    pairs
}

/// Fast scalar `dist` ≡ legacy oracle `dist` ≡ the materialized matrix,
/// on every pair of every family.
#[test]
fn fast_dist_matches_legacy_and_materialize() {
    for (name, strat) in families() {
        forall(format!("query_dist/{name}").leak())
            .cases(8)
            .run(&strat, |g| {
                let exec = HeteroExecutor::sequential();
                let plan = Arc::new(DecompPlan::build(g));
                let oracle = build_oracle_with_plan(plan, &exec, ApspMethod::Ear);
                let q = QueryEngine::new(&oracle);
                let full = oracle.materialize();
                for u in 0..g.n() as u32 {
                    for v in 0..g.n() as u32 {
                        let fast = q.dist(u, v);
                        let legacy = oracle.dist(u, v);
                        if fast != legacy || fast != full.get(u, v) {
                            return Err(format!(
                                "dist({u},{v}) fast {fast} legacy {legacy} matrix {}",
                                full.get(u, v)
                            ));
                        }
                    }
                }
                Ok(())
            });
    }
}

/// The batched kernel returns exactly what per-pair scalar queries return
/// — including on adversarial source/target mixes with duplicates.
#[test]
fn dist_batch_matches_scalar_queries() {
    for (name, strat) in families() {
        forall(format!("query_batch/{name}").leak())
            .cases(8)
            .run(&strat, |g| {
                if g.n() == 0 {
                    return Ok(());
                }
                let exec = HeteroExecutor::sequential();
                let plan = Arc::new(DecompPlan::build(g));
                let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Ear);
                let q = QueryEngine::new(&oracle);
                let pairs = query_pairs(g, &plan, g.n() as u64);
                // One batch whose source/target lists are the pair columns
                // (duplicates included), one all-vertices square batch.
                let sources: Vec<u32> = pairs.iter().map(|&(u, _)| u).collect();
                let targets: Vec<u32> = pairs.iter().map(|&(_, v)| v).collect();
                let mut scratch = QueryScratch::new();
                let mut out = Vec::new();
                q.dist_batch_into(&sources, &targets, &mut scratch, &mut out);
                if out.len() != sources.len() * targets.len() {
                    return Err("batch output length mismatch".into());
                }
                for (i, &s) in sources.iter().enumerate() {
                    for (j, &t) in targets.iter().enumerate() {
                        let (a, b) = (out[i * targets.len() + j], oracle.dist(s, t));
                        if a != b {
                            return Err(format!("batch dist({s},{t}) {a} vs scalar {b}"));
                        }
                    }
                }
                // Scratch reuse across batches must not leak state.
                let all: Vec<u32> = (0..g.n() as u32).collect();
                q.dist_batch_into(&all, &all, &mut scratch, &mut out);
                for u in 0..g.n() {
                    for v in 0..g.n() {
                        let (a, b) = (out[u * g.n() + v], oracle.dist(u as u32, v as u32));
                        if a != b {
                            return Err(format!("square batch dist({u},{v}) {a} vs scalar {b}"));
                        }
                    }
                }
                Ok(())
            });
    }
}

/// Fast `path` ≡ legacy `path` — same vertices, same order, same `None`s
/// — on random and adversarial pairs of every family.
#[test]
fn fast_path_matches_legacy_path() {
    for (name, strat) in families() {
        forall(format!("query_path/{name}").leak())
            .cases(6)
            .run(&strat, |g| {
                if g.n() == 0 {
                    return Ok(());
                }
                let exec = HeteroExecutor::sequential();
                let plan = Arc::new(DecompPlan::build(g));
                let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Ear);
                let q = QueryEngine::new(&oracle);
                for (u, v) in query_pairs(g, &plan, 7 + g.n() as u64) {
                    let fast = q.path(g, u, v);
                    let legacy = oracle.path(g, u, v);
                    if fast != legacy {
                        return Err(format!(
                            "path({u},{v}) diverges: fast {fast:?} vs legacy {legacy:?}"
                        ));
                    }
                }
                Ok(())
            });
    }
}

/// `QueryEngine::recustomized` tracks an incremental oracle refresh
/// exactly: answers match a cold engine on the refreshed oracle, the
/// routing topology is always shared, a no-op refresh shares the fused
/// arena outright, and a dirty refresh keeps every clean block span
/// byte-identical.
#[test]
fn recustomized_engine_matches_cold_and_shares_clean_state() {
    for (name, strat) in families() {
        forall(format!("query_recustomize/{name}").leak())
            .cases(6)
            .run(&strat, |g| {
                let exec = HeteroExecutor::sequential();
                let plan = Arc::new(DecompPlan::build(g));
                let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Ear);
                let q = QueryEngine::new(&oracle);
                let base: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();

                // No-op refresh: everything is shared.
                let noop_plan = Arc::new(plan.recustomized(&base));
                let noop_oracle = oracle.recustomized(Arc::clone(&noop_plan), &exec);
                let noop = q.recustomized(&noop_oracle);
                if !q.shares_topology_with(&noop) || !q.shares_tables_with(&noop) {
                    return Err("no-op refresh must share topology and tables".into());
                }

                if g.m() == 0 {
                    return Ok(());
                }
                // Dense perturbation: some blocks dirty, the rest shared.
                let mut rng = TestRng::new(derive_seed(g.n() as u64, 0xcafe));
                let mut w = base.clone();
                for wi in w.iter_mut() {
                    if rng.coin() {
                        *wi = rng.u64_in(1, 101);
                    }
                }
                let warm_plan = Arc::new(plan.recustomized(&w));
                let dirty = warm_plan.dirty_blocks().to_vec();
                let warm_oracle = oracle.recustomized(Arc::clone(&warm_plan), &exec);
                let warm = q.recustomized(&warm_oracle);
                if !q.shares_topology_with(&warm) {
                    return Err("refresh must share the routing topology".into());
                }
                if !dirty.is_empty() && q.shares_tables_with(&warm) {
                    return Err("dirty refresh must not share the fused arena".into());
                }
                for b in 0..plan.n_blocks() as u32 {
                    if !dirty.contains(&b) && q.block_span(b) != warm.block_span(b) {
                        return Err(format!("clean block {b} span changed"));
                    }
                }
                let cold = QueryEngine::new(&warm_oracle);
                if warm.ap_span() != cold.ap_span() {
                    return Err("refreshed AP span diverges from cold".into());
                }
                for u in 0..g.n() as u32 {
                    for v in 0..g.n() as u32 {
                        let (a, b) = (warm.dist(u, v), cold.dist(u, v));
                        if a != b {
                            return Err(format!("dist({u},{v}) warm {a} vs cold {b}"));
                        }
                    }
                }
                // And the warm engine's batch kernel agrees with the warm
                // oracle's legacy answers.
                let all: Vec<u32> = (0..g.n() as u32).collect();
                let out = warm.dist_batch(&all, &all);
                for u in 0..g.n() {
                    for v in 0..g.n() {
                        if out[u * g.n() + v] != warm_oracle.dist(u as u32, v as u32) {
                            return Err(format!("warm batch dist({u},{v}) diverges"));
                        }
                    }
                }
                Ok(())
            });
    }
}
