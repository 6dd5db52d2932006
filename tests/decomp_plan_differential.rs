//! Differential acceptance suite for the shared decomposition plan.
//!
//! The `DecompPlan` refactor claims that building the decomposition front
//! half (BCC split, block-cut tree, per-block subgraphs, per-block
//! reductions) once and sharing it across the APSP oracles, the MCB
//! pipeline and the statistics reporter changes **nothing** about the
//! outputs. This suite pins that claim across every testkit graph family:
//! the plan-built artifacts must be bit-identical to the ones produced by
//! the direct (plan-less) entry points, and the plan itself must satisfy
//! the structural invariants of `ear_testkit::invariants::plan_invariants`.

use std::sync::Arc;

use ear_apsp::{build_oracle, build_oracle_with_plan, ApspMethod};
use ear_decomp::plan::DecompPlan;
use ear_graph::CsrGraph;
use ear_hetero::HeteroExecutor;
use ear_mcb::{mcb, mcb_with_plan, ExecMode, McbConfig};
use ear_testkit::invariants::plan_invariants;
use ear_testkit::{
    biconnected_graphs, cactus_graphs, chain_heavy_graphs, forall, multi_bcc_graphs, multigraphs,
    simple_graphs, workload_graphs, GraphStrategy,
};
use ear_workloads::GraphStats;

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

/// The plan's structural invariants hold on every graph family.
#[test]
fn plan_invariants_hold_on_every_family() {
    for (name, strat) in families() {
        forall(format!("plan_invariants/{name}").leak())
            .cases(16)
            .run(&strat, |g| plan_invariants(g, &DecompPlan::build(g)));
    }
}

fn assert_oracles_identical(g: &CsrGraph, method: ApspMethod, ctx: &str) -> Result<(), String> {
    let exec = HeteroExecutor::sequential();
    let direct = build_oracle(g, &exec, method);
    let planned = build_oracle_with_plan(Arc::new(DecompPlan::build(g)), &exec, method);
    for u in 0..g.n() as u32 {
        for v in 0..g.n() as u32 {
            let (a, b) = (direct.dist(u, v), planned.dist(u, v));
            if a != b {
                return Err(format!("{ctx}: dist({u},{v}) direct {a} vs planned {b}"));
            }
        }
    }
    let (sa, sb) = (direct.stats(), planned.stats());
    if sa.n_bccs != sb.n_bccs
        || sa.articulation_points != sb.articulation_points
        || sa.removed_vertices != sb.removed_vertices
        || sa.table_entries != sb.table_entries
    {
        return Err(format!("{ctx}: oracle stats diverge"));
    }
    Ok(())
}

/// `build_oracle` and `build_oracle_with_plan` materialize identical
/// distance matrices and stats, for both the Ear and Plain methods.
#[test]
fn oracle_with_plan_is_bit_identical() {
    for (name, strat) in families() {
        forall(format!("oracle_with_plan/{name}").leak())
            .cases(10)
            .run(&strat, |g| {
                assert_oracles_identical(g, ApspMethod::Ear, "ear")?;
                assert_oracles_identical(g, ApspMethod::Plain, "plain")
            });
    }
}

/// The same at `ApspMethod::Reduced`, the reduced-table oracle.
#[test]
fn reduced_oracle_with_plan_is_bit_identical() {
    for (name, strat) in families() {
        forall(format!("reduced_oracle_with_plan/{name}").leak())
            .cases(10)
            .run(&strat, |g| {
                assert_oracles_identical(g, ApspMethod::Reduced, "reduced")
            });
    }
}

fn assert_mcb_identical(g: &CsrGraph, use_ear: bool) -> Result<(), String> {
    let config = McbConfig {
        mode: ExecMode::Sequential,
        use_ear,
    };
    let direct = mcb(g, &config);
    let planned = mcb_with_plan(g, &DecompPlan::build(g), &config);
    if direct.total_weight != planned.total_weight
        || direct.dim != planned.dim
        || direct.removed_vertices != planned.removed_vertices
    {
        return Err(format!(
            "summary diverges (ear {use_ear}): weight {}/{} dim {}/{} removed {}/{}",
            direct.total_weight,
            planned.total_weight,
            direct.dim,
            planned.dim,
            direct.removed_vertices,
            planned.removed_vertices
        ));
    }
    for (i, (a, b)) in direct.cycles.iter().zip(&planned.cycles).enumerate() {
        if a.edges != b.edges || a.weight != b.weight {
            return Err(format!("cycle {i} diverges (ear {use_ear})"));
        }
    }
    Ok(())
}

/// `mcb` and `mcb_with_plan` return the same basis cycle for cycle, edge
/// for edge, with and without the ear reduction.
#[test]
fn mcb_with_plan_is_bit_identical() {
    for (name, strat) in families() {
        // `mcb` documents a simple-graph contract; skip the multigraph
        // family here like the CLI front end does.
        if name == "multigraph" {
            continue;
        }
        forall(format!("mcb_with_plan/{name}").leak())
            .cases(10)
            .run(&strat, |g| {
                if !g.is_simple() {
                    return Ok(());
                }
                assert_mcb_identical(g, true)?;
                assert_mcb_identical(g, false)
            });
    }
}

/// `GraphStats::measure` and `GraphStats::from_plan` report identical
/// Table 1 columns.
#[test]
fn stats_from_plan_match_measure() {
    for (name, strat) in families() {
        forall(format!("stats_from_plan/{name}").leak())
            .cases(16)
            .run(&strat, |g| {
                let a = GraphStats::measure(g);
                let b = GraphStats::from_plan(&DecompPlan::build(g));
                if a.n != b.n
                    || a.m != b.m
                    || a.n_bccs != b.n_bccs
                    || a.largest_bcc_edges != b.largest_bcc_edges
                    || a.removed != b.removed
                    || a.articulation_points != b.articulation_points
                    || a.table_entries != b.table_entries
                    || a.reduced_table_entries != b.reduced_table_entries
                {
                    return Err(format!("stats diverge: {a:?} vs {b:?}"));
                }
                Ok(())
            });
    }
}

/// One `Arc<DecompPlan>` feeds the oracle at `Ear` and `Reduced`, the MCB
/// pipeline and the stats reporter — the combined-mode contract: a single
/// decomposition serves every consumer with unchanged outputs.
#[test]
fn one_shared_plan_serves_every_consumer() {
    forall("one_shared_plan_serves_every_consumer")
        .cases(12)
        .run(&simple_graphs(14), |g| {
            let plan = Arc::new(DecompPlan::build(g));
            let exec = HeteroExecutor::sequential();
            plan_invariants(g, &plan)?;

            let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Ear);
            let reduced = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Reduced);
            let cold = build_oracle(g, &exec, ApspMethod::Ear);
            for u in 0..g.n() as u32 {
                for v in 0..g.n() as u32 {
                    if oracle.dist(u, v) != cold.dist(u, v) || reduced.dist(u, v) != cold.dist(u, v)
                    {
                        return Err(format!("shared-plan dist({u},{v}) diverges"));
                    }
                }
            }

            if g.is_simple() {
                let config = McbConfig {
                    mode: ExecMode::Sequential,
                    use_ear: true,
                };
                let warm = mcb_with_plan(g, &plan, &config);
                let cold = mcb(g, &config);
                if warm.total_weight != cold.total_weight || warm.dim != cold.dim {
                    return Err("shared-plan MCB diverges".into());
                }
            }

            let stats = GraphStats::from_plan(&plan);
            if stats.table_entries != GraphStats::measure(g).table_entries {
                return Err("shared-plan stats diverge".into());
            }
            // Table 1's memory columns are what the oracle stores at `Ear`
            // and at `Reduced`.
            if oracle.stats().table_entries != stats.table_entries {
                return Err(format!(
                    "oracle stores {} entries, Table 1 reports {}",
                    oracle.stats().table_entries,
                    stats.table_entries
                ));
            }
            if reduced.stats().table_entries != stats.reduced_table_entries {
                return Err(format!(
                    "reduced oracle stores {} entries, Table 1 reports {}",
                    reduced.stats().table_entries,
                    stats.reduced_table_entries
                ));
            }
            Ok(())
        });
}

/// The router's exit AP out of every block toward every other node of
/// its tree is the first articulation point on the forest path, as a BFS
/// over the block-cut forest (blocks ↔ the APs they contain) finds it —
/// and the gateway's local id is that AP's id inside the block. The
/// graphs are large enough that some block holds three or more APs, so a
/// router that picked the wrong child would be caught.
#[test]
fn router_gateways_match_forest_bfs() {
    let families = [
        ("multi_bcc", multi_bcc_graphs(64)),
        ("cactus", cactus_graphs(64)),
        ("workload", workload_graphs(96)),
    ];
    let many_ap_blocks = std::sync::atomic::AtomicUsize::new(0);
    for (name, strat) in families {
        forall(format!("router_gateways/{name}").leak())
            .cases(16)
            .run(&strat, |g| {
                let plan = DecompPlan::build(g);
                let (bct, nb) = (plan.bct(), plan.n_blocks());
                let many = bct.block_aps.iter().filter(|aps| aps.len() >= 3).count();
                many_ap_blocks.fetch_add(many, std::sync::atomic::Ordering::Relaxed);
                let mut adj = vec![Vec::new(); nb + bct.ap_count()];
                for b in 0..nb {
                    for &a in &bct.block_aps[b] {
                        let node = nb + bct.ap_index[a as usize] as usize;
                        adj[b].push(node);
                        adj[node].push(b);
                    }
                }
                for b in 0..nb {
                    // first[y]: the AP node the path b → y starts with.
                    let mut first = vec![usize::MAX; adj.len()];
                    first[b] = b;
                    let mut queue = std::collections::VecDeque::from([b]);
                    while let Some(x) = queue.pop_front() {
                        for &y in &adj[x] {
                            if first[y] == usize::MAX {
                                first[y] = if x == b { y } else { first[x] };
                                queue.push_back(y);
                            }
                        }
                    }
                    for (y, &f) in first.iter().enumerate() {
                        if y == b || f == usize::MAX {
                            continue;
                        }
                        let ap = (f - nb) as u32;
                        let want = (ap, plan.local(b as u32, bct.aps[ap as usize]));
                        let gw = plan.bct().gateway(b as u32, bct.preorder(y as u32));
                        if (gw.ap, Some(gw.local)) != want {
                            return Err(format!(
                                "gateway(block {b}, node {y}) = {gw:?}, BFS says {want:?}"
                            ));
                        }
                    }
                }
                Ok(())
            });
    }
    assert!(
        many_ap_blocks.into_inner() > 0,
        "no block with three or more APs"
    );
}
