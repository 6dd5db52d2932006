//! Differential acceptance suite for the graph storage layout.
//!
//! Two claims, pinned across every testkit graph family:
//!
//! 1. **Permutation invariance** — relabeling vertices (reversal and a
//!    seeded shuffle, rebuilt through `from_edges`) and solving on the
//!    relabeled graph yields bit-identical answers once read back through
//!    the new labels: Dijkstra distance vectors, the `Ear` and `Reduced`
//!    oracles, MCB weight/dimension, and the permutation-invariant engine
//!    counters (`settled`, `edges_relaxed`).
//! 2. **Views ≡ copies** — a `DecompPlan`'s zero-copy arena windows equal
//!    standalone per-block CSRs extracted with `edge_subgraph` under the
//!    plan's renumbering (composed from the two `to_parent_vertex` maps
//!    and checked to be a bijection): the same edge records, adjacency
//!    order and reductions with vertex ids mapped. Every plan satisfies
//!    `ear_testkit::invariants::layout_invariants`.

use std::sync::Arc;

use ear_apsp::{build_oracle_with_plan, ApspMethod};
use ear_decomp::plan::DecompPlan;
use ear_decomp::reduce::reduce_graph;
use ear_graph::{edge_subgraph, CsrGraph, Edge, SsspEngine};
use ear_hetero::HeteroExecutor;
use ear_mcb::{mcb, mcb_with_plan, ExecMode, McbConfig};
use ear_testkit::invariants::{block_renumbering, layout_invariants, plan_invariants};
use ear_testkit::{
    biconnected_graphs, cactus_graphs, chain_heavy_graphs, forall, multi_bcc_graphs, multigraphs,
    simple_graphs, workload_graphs, GraphStrategy, TestRng,
};

/// `g` relabeled by two bijections — reversal and a seeded Fisher–Yates
/// shuffle — as `(rank, relabeled graph)` pairs: vertex `v` of `g` is
/// vertex `rank[v]` of the relabeled graph, and edge ids are kept.
fn relabelings(g: &CsrGraph) -> Vec<(Vec<u32>, CsrGraph)> {
    let n = g.n() as u32;
    let reversed: Vec<u32> = (0..n).rev().collect();
    let mut shuffled: Vec<u32> = (0..n).collect();
    let mut rng = TestRng::new(0x5EED ^ g.m() as u64);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.usize_in(0, i + 1));
    }
    [reversed, shuffled]
        .into_iter()
        .map(|rank| {
            let edges: Vec<_> = g
                .edges()
                .iter()
                .map(|e| (rank[e.u as usize], rank[e.v as usize], e.w))
                .collect();
            let relabeled = CsrGraph::from_edges(g.n(), &edges);
            (rank, relabeled)
        })
        .collect()
}

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

/// Every plan satisfies the structural plan invariants and the layout
/// ones (exact arena tiling, block windows matching block plans) on every
/// family.
#[test]
fn layout_invariants_hold_on_every_family() {
    for (name, strat) in families() {
        forall(format!("layout_invariants/{name}").leak())
            .cases(16)
            .run(&strat, |g| {
                let plan = DecompPlan::build(g);
                plan_invariants(g, &plan)?;
                layout_invariants(&plan)
            });
    }
}

/// A plan's arena-viewed blocks and reductions are term-for-term identical
/// to standalone copies — each block extracted on its own with
/// `edge_subgraph` and reduced with `reduce_graph` — once the copy's
/// vertex ids are mapped through the plan's renumbering.
#[test]
fn viewed_plan_is_bit_identical_to_copied() {
    for (name, strat) in families() {
        forall(format!("viewed_vs_copied/{name}").leak())
            .cases(16)
            .run(&strat, |g| {
                let v = DecompPlan::build(g);
                for b in 0..v.n_blocks() as u32 {
                    let (copy, map) = edge_subgraph(g, &v.block(b).to_parent_edge);
                    let pi = block_renumbering(&v.block(b).to_parent_vertex, &map.to_parent_vertex)
                        .map_err(|e| format!("block {b}: {e}"))?;
                    let id = |x: u32| pi[x as usize];
                    let vg = v.block_graph(b);
                    let renamed: Vec<_> = copy
                        .edges()
                        .iter()
                        .map(|e| Edge::new(id(e.u), id(e.v), e.w))
                        .collect();
                    if renamed != vg.edges() {
                        return Err(format!("block {b}: edge records diverge"));
                    }
                    for u in 0..copy.n() as u32 {
                        let (adj, w) = copy.view().incidences(u);
                        let adj: Vec<_> = adj.iter().map(|&(y, e)| (id(y), e)).collect();
                        if (&adj[..], w) != vg.incidences(id(u)) {
                            return Err(format!("block {b}: adjacency of {u} diverges"));
                        }
                    }
                    let copied_reduction = copy
                        .is_simple()
                        .then(|| reduce_graph(copy.view()).expect("simple block"));
                    match (copied_reduction, v.reduction(b)) {
                        (None, None) => {}
                        (Some(cr), Some(vr)) => {
                            let retained: Vec<u32> = cr.retained.iter().map(|&x| id(x)).collect();
                            if retained != vr.retained || cr.reduced.edges() != vr.reduced.edges() {
                                return Err(format!("block {b}: reductions diverge"));
                            }
                        }
                        _ => return Err(format!("block {b}: reduction presence diverges")),
                    }
                }
                Ok(())
            });
    }
}

/// Dijkstra from every source on a relabeled graph reads back to the
/// original distance vector exactly, and the permutation-invariant engine
/// counters (`settled` = component size, `edges_relaxed` = settled degree
/// sum) are unchanged.
#[test]
fn sssp_is_permutation_invariant() {
    for (name, strat) in families() {
        forall(format!("sssp_permutation/{name}").leak())
            .cases(12)
            .run(&strat, |g| {
                for (rank, p) in relabelings(g) {
                    for s in 0..g.n() as u32 {
                        let mut eng = SsspEngine::new();
                        let base_stats = eng.run(g, s);
                        let base = eng.dist_vec();
                        let perm_stats = eng.run(&p, rank[s as usize]);
                        let perm = eng.dist_vec();
                        if (0..g.n()).any(|v| perm[rank[v] as usize] != base[v]) {
                            return Err(format!("source {s}: distances diverge under permutation"));
                        }
                        if base_stats.settled != perm_stats.settled
                            || base_stats.edges_relaxed != perm_stats.edges_relaxed
                        {
                            return Err(format!(
                                "source {s}: invariant counters diverge: settled {}/{} relaxed {}/{}",
                                base_stats.settled,
                                perm_stats.settled,
                                base_stats.edges_relaxed,
                                perm_stats.edges_relaxed
                            ));
                        }
                    }
                }
                Ok(())
            });
    }
}

/// `Ear` oracles built on relabeled graphs agree with the oracle on the
/// original labels (read back through `rank`).
#[test]
fn oracle_is_layout_and_permutation_invariant() {
    for (name, strat) in families() {
        forall(format!("oracle_layout/{name}").leak())
            .cases(8)
            .run(&strat, |g| {
                let exec = HeteroExecutor::sequential();
                let base =
                    build_oracle_with_plan(Arc::new(DecompPlan::build(g)), &exec, ApspMethod::Ear);
                for (rank, p) in relabelings(g) {
                    let permuted = build_oracle_with_plan(
                        Arc::new(DecompPlan::build(&p)),
                        &exec,
                        ApspMethod::Ear,
                    );
                    for u in 0..g.n() as u32 {
                        for v in 0..g.n() as u32 {
                            if permuted.dist(rank[u as usize], rank[v as usize]) != base.dist(u, v)
                            {
                                return Err(format!("dist({u},{v}): permuted oracle diverges"));
                            }
                        }
                    }
                }
                Ok(())
            });
    }
}

/// The oracle at `ApspMethod::Reduced` answers identically on relabeled
/// graphs, and agrees with `Ear`.
#[test]
fn reduced_oracle_is_layout_invariant() {
    for (name, strat) in families() {
        forall(format!("reduced_oracle_layout/{name}").leak())
            .cases(8)
            .run(&strat, |g| {
                let exec = HeteroExecutor::sequential();
                let plan = Arc::new(DecompPlan::build(g));
                let full = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Ear);
                let c = build_oracle_with_plan(plan, &exec, ApspMethod::Reduced);
                for a in 0..g.n() as u32 {
                    for b in 0..g.n() as u32 {
                        if full.dist(a, b) != c.dist(a, b) {
                            return Err(format!("dist({a},{b}) diverges from the full oracle"));
                        }
                    }
                }
                for (rank, p) in relabelings(g) {
                    let v = build_oracle_with_plan(
                        Arc::new(DecompPlan::build(&p)),
                        &exec,
                        ApspMethod::Reduced,
                    );
                    if c.stats().table_entries != v.stats().table_entries {
                        return Err("table_entries diverge across labelings".into());
                    }
                    for a in 0..g.n() as u32 {
                        for b in 0..g.n() as u32 {
                            if v.dist(rank[a as usize], rank[b as usize]) != c.dist(a, b) {
                                return Err(format!("dist({a},{b}) diverges across labelings"));
                            }
                        }
                    }
                }
                Ok(())
            });
    }
}

/// The MCB pipeline on a shared plan returns the same basis, cycle for
/// cycle, as a cold `mcb` run, and the basis weight/dimension survive
/// relabeling.
#[test]
fn mcb_is_layout_and_permutation_invariant() {
    for (name, strat) in families() {
        if name == "multigraph" {
            continue; // `mcb` documents a simple-graph contract.
        }
        forall(format!("mcb_layout/{name}").leak())
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
                let c = mcb_with_plan(g, &plan, &config);
                let cold = mcb(g, &config);
                if c.total_weight != cold.total_weight || c.dim != cold.dim {
                    return Err("MCB summary diverges from the cold run".into());
                }
                for (i, (a, b)) in c.cycles.iter().zip(&cold.cycles).enumerate() {
                    if a.edges != b.edges || a.weight != b.weight {
                        return Err(format!("cycle {i} diverges from the cold run"));
                    }
                }
                // Weight and dimension are graph properties: invariant
                // under relabeling.
                for (_, p) in relabelings(g) {
                    let pm = mcb(&p, &config);
                    if pm.total_weight != c.total_weight || pm.dim != c.dim {
                        return Err(format!(
                            "MCB weight/dim not permutation-invariant: {}/{} vs {}/{}",
                            pm.total_weight, c.total_weight, pm.dim, c.dim
                        ));
                    }
                }
                Ok(())
            });
    }
}
