//! Differential acceptance suite for query routing.
//!
//! Every distance query — `QueryEngine::dist` and `DistanceOracle::dist`,
//! at every `ApspMethod` — runs through one block-cut-tree router and one
//! distance function, so checking them against each other proves
//! nothing. This suite checks the oracle and the engine over it at every
//! method (`Ear`, `Plain` and the reduced tables of `Reduced`), with
//! `QueryEngine::path`, against `baselines::floyd_warshall` on every
//! testkit family, before and after recustomization, and tallies that
//! the pair shapes the router
//! special-cases in its arithmetic actually occur: an AP endpoint inside
//! the other endpoint's home block, two APs sharing a block, routes up to
//! a common ancestor and back down, routes to and from a root block
//! (which has no parent gateway), and pairs across the trees of a
//! multi-tree forest — each in both orders.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ear_apsp::baselines::floyd_warshall;
use ear_apsp::{build_oracle_with_plan, ApspMethod, DistMatrix, DistanceOracle, QueryEngine};
use ear_decomp::plan::DecompPlan;
use ear_graph::{dist_add, CsrGraph, VertexId, Weight, INF};
use ear_hetero::HeteroExecutor;
use ear_testkit::rng::derive_seed;
use ear_testkit::{
    biconnected_graphs, cactus_graphs, chain_heavy_graphs, forall, multi_bcc_graphs, multigraphs,
    simple_graphs, workload_graphs, GraphStrategy, TestRng,
};

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

/// The pair shapes [`query_pairs`] plants, in tally order.
const SHAPES: [&str; 5] = [
    "AP endpoint in the other endpoint's home block",
    "two APs sharing a block",
    "up to a common ancestor and back down",
    "between a root block and a deeper block",
    "across trees of a forest",
];

/// How often each shape was planted, across every test of this file.
static SHAPE_HITS: [AtomicUsize; 5] = [const { AtomicUsize::new(0) }; 5];

fn hit(shape: usize, pairs: &mut Vec<(VertexId, VertexId)>, u: VertexId, v: VertexId) {
    SHAPE_HITS[shape].fetch_add(1, Ordering::Relaxed);
    pairs.push((u, v));
    pairs.push((v, u));
}

/// Parent (`u32::MAX` at a root) and depth of every block-cut-forest
/// node, by BFS from each tree's smallest block id.
fn forest(plan: &DecompPlan) -> (Vec<u32>, Vec<u32>) {
    let (bct, nb) = (plan.bct(), plan.n_blocks());
    let mut adj = vec![Vec::new(); nb + bct.ap_count()];
    for b in 0..nb {
        for &a in &bct.block_aps[b] {
            let node = nb + bct.ap_index[a as usize] as usize;
            adj[b].push(node as u32);
            adj[node].push(b as u32);
        }
    }
    let mut parent = vec![u32::MAX; adj.len()];
    let mut depth = vec![u32::MAX; adj.len()];
    for root in 0..adj.len() {
        if depth[root] != u32::MAX {
            continue;
        }
        depth[root] = 0;
        let mut queue = std::collections::VecDeque::from([root as u32]);
        while let Some(x) = queue.pop_front() {
            for &y in &adj[x as usize] {
                if depth[y as usize] == u32::MAX {
                    (parent[y as usize], depth[y as usize]) = (x, depth[x as usize] + 1);
                    queue.push_back(y);
                }
            }
        }
    }
    (parent, depth)
}

/// Random pairs, the diagonal, and one or more pairs of every shape in
/// [`SHAPES`] the graph has, each in both orders.
fn query_pairs(g: &CsrGraph, plan: &DecompPlan, seed: u64) -> Vec<(VertexId, VertexId)> {
    let n = g.n() as u32;
    if n == 0 {
        return Vec::new();
    }
    let mut rng = TestRng::new(derive_seed(seed, 0x9a1e));
    let mut pairs: Vec<(VertexId, VertexId)> = (0..64)
        .map(|_| (rng.usize_in(0, g.n()) as u32, rng.usize_in(0, g.n()) as u32))
        .collect();
    pairs.extend((0..n).map(|v| (v, v)));
    let bct = plan.bct();
    let is_ap = |v: VertexId| bct.ap_index[v as usize] != u32::MAX;
    let home_member = |b: u32| {
        let members = plan.block(b).to_parent_vertex.iter().copied();
        members
            .filter(|&x| !is_ap(x) && bct.vertex_block[x as usize] == b)
            .min()
    };
    let tree = |b: u32| bct.endpoint(plan.block(b).to_parent_vertex[0]).tree;
    for b in 0..plan.n_blocks() as u32 {
        let aps = &bct.block_aps[b as usize];
        if let (Some(x), Some(&a)) = (home_member(b), aps.first()) {
            hit(0, &mut pairs, x, a);
        }
        if let [a, c, ..] = aps[..] {
            hit(1, &mut pairs, a, c);
        }
    }
    // Routes through a common ancestor strictly above both endpoints,
    // and routes to and from each tree's root block.
    let (parent, depth) = forest(plan);
    let common_ancestor = |mut x: u32, mut y: u32| {
        while x != y {
            if depth[x as usize] >= depth[y as usize] {
                x = parent[x as usize];
            } else {
                y = parent[y as usize];
            }
        }
        x
    };
    let homes: Vec<(u32, VertexId)> = (0..plan.n_blocks() as u32)
        .filter_map(|b| Some((b, home_member(b)?)))
        .collect();
    for &(b1, x) in &homes {
        if parent[b1 as usize] == u32::MAX {
            let deeper = homes.iter().find(|&&(b, _)| b != b1 && tree(b) == tree(b1));
            if let Some(&(_, y)) = deeper {
                hit(3, &mut pairs, x, y);
            }
        }
        let apart = homes.iter().find(|&&(b2, _)| {
            tree(b2) == tree(b1)
                && b2 != b1
                && common_ancestor(b1, b2) != b1
                && common_ancestor(b1, b2) != b2
        });
        if let Some(&(_, y)) = apart {
            hit(2, &mut pairs, x, y);
        }
    }
    let in_tree: Vec<VertexId> = (0..n)
        .filter(|&v| bct.endpoint(v).tree != u32::MAX)
        .collect();
    if let Some(&u) = in_tree.first() {
        let t0 = bct.endpoint(u).tree;
        if let Some(&v) = in_tree.iter().find(|&&v| bct.endpoint(v).tree != t0) {
            hit(4, &mut pairs, u, v);
        }
    }
    pairs
}

/// The shortest path `u → v` that greedy descent on the exact distances
/// takes, ties broken to the smallest edge id — the contract of
/// `QueryEngine::path`, computed from the Floyd–Warshall matrix alone.
fn reference_path(g: &CsrGraph, fw: &DistMatrix, u: VertexId, v: VertexId) -> Option<Vec<u32>> {
    if fw.get(u, v) >= INF {
        return None;
    }
    let mut path = vec![u];
    while let Some(&x) = path.last().filter(|&&x| x != v) {
        let tight = g
            .neighbors(x)
            .iter()
            .filter(|&&(y, e)| y != x && dist_add(g.weight(e), fw.get(y, v)) == fw.get(x, v));
        let &(y, _) = tight.min_by_key(|&&(_, e)| e).expect("a tight edge");
        path.push(y);
    }
    Some(path)
}

/// Oracle and engine `dist` ≡ Floyd–Warshall on every pair of every
/// family, and the engine's path on every planted shape is the reference
/// descent over the Floyd–Warshall matrix.
fn check_against_floyd_warshall(
    g: &CsrGraph,
    oracle: &DistanceOracle,
    q: &QueryEngine,
    seed: u64,
) -> Result<(), String> {
    let fw = floyd_warshall(g);
    let method = oracle.method();
    if oracle.materialize() != fw {
        return Err(format!("{method:?} oracle materialize diverges"));
    }
    for u in 0..g.n() as u32 {
        for v in 0..g.n() as u32 {
            let (got, want) = (q.dist(u, v), fw.get(u, v));
            if got != want {
                return Err(format!(
                    "{method:?} dist({u},{v}): engine {got} floyd–warshall {want}"
                ));
            }
        }
    }
    for (u, v) in query_pairs(g, q.plan(), seed) {
        let (got, want) = (q.path(g, u, v), reference_path(g, &fw, u, v));
        if got != want {
            return Err(format!(
                "{method:?} path({u},{v}): {got:?} vs reference {want:?}"
            ));
        }
    }
    Ok(())
}

/// Every router client matches Floyd–Warshall at every method, on all
/// pairs and shapes.
#[test]
fn every_router_matches_floyd_warshall() {
    for (name, strat) in families() {
        forall(format!("query_dist/{name}").leak())
            .cases(8)
            .run(&strat, |g| {
                let exec = HeteroExecutor::sequential();
                let plan = Arc::new(DecompPlan::build(g));
                for method in METHODS {
                    let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, method);
                    let q = QueryEngine::new(&oracle);
                    check_against_floyd_warshall(g, &oracle, &q, g.n() as u64)?;
                }
                Ok(())
            });
    }
}

/// `QueryEngine::path` ≡ `DistanceOracle::path` ≡ the reference descent,
/// and every path is a walk of the graph whose weight is the distance.
#[test]
fn path_is_a_tight_walk_on_every_pair_shape() {
    for (name, strat) in families() {
        forall(format!("query_path/{name}").leak())
            .cases(6)
            .run(&strat, |g| {
                let exec = HeteroExecutor::sequential();
                let plan = Arc::new(DecompPlan::build(g));
                let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Ear);
                let q = QueryEngine::new(&oracle);
                let fw = floyd_warshall(g);
                for (u, v) in query_pairs(g, &plan, 7 + g.n() as u64) {
                    let (p, legacy) = (q.path(g, u, v), oracle.path(g, u, v));
                    if p != legacy || p != reference_path(g, &fw, u, v) {
                        return Err(format!("path({u},{v}): engine {p:?} oracle {legacy:?}"));
                    }
                    let Some(p) = p else { continue };
                    let mut total = 0;
                    for w in p.windows(2) {
                        let edge = g.neighbors(w[0]).iter().filter(|&&(y, _)| y == w[1]);
                        let Some(best) = edge.map(|&(_, e)| g.weight(e)).min() else {
                            return Err(format!("path({u},{v}) steps off the graph"));
                        };
                        total += best;
                    }
                    if total != fw.get(u, v) {
                        return Err(format!("path({u},{v}) weighs {total}"));
                    }
                }
                Ok(())
            });
    }
    for (shape, hits) in SHAPES.iter().zip(&SHAPE_HITS) {
        assert!(
            hits.load(Ordering::Relaxed) > 0,
            "no pair of shape: {shape}"
        );
    }
}

/// After a recustomization the oracle and the engine over it match
/// Floyd–Warshall on the reweighted graph at every method; the engine
/// always reads its oracle's own arena, a no-op refresh shares the arena
/// outright, and a dirty refresh keeps every clean block span
/// byte-identical and rebuilds the AP span exactly as a cold build does.
#[test]
fn recustomized_engine_matches_cold_and_shares_clean_state() {
    for (name, strat) in families() {
        forall(format!("query_recustomize/{name}").leak())
            .cases(6)
            .run(&strat, |g| {
                METHODS.into_iter().try_for_each(|method| {
                    check_refresh(g, method).map_err(|e| format!("{method:?}: {e}"))
                })
            });
    }
}

/// The refresh checks above for the oracle built with `method`.
fn check_refresh(g: &CsrGraph, method: ApspMethod) -> Result<(), String> {
    let exec = HeteroExecutor::sequential();
    let plan = Arc::new(DecompPlan::build(g));
    let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, method);
    let q = QueryEngine::new(&oracle);
    if !Arc::ptr_eq(q.tables(), oracle.tables()) {
        return Err("engine must read the oracle's arena, not a copy".into());
    }
    let base: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();

    // No-op refresh: everything is shared.
    let noop_plan = Arc::new(plan.recustomized(&base));
    let noop_oracle = oracle.recustomized(Arc::clone(&noop_plan), &exec);
    let noop = q.recustomized(&noop_oracle);
    if !Arc::ptr_eq(noop_oracle.tables(), oracle.tables()) {
        return Err("no-op oracle refresh must share the arena".into());
    }
    if !q.plan().shares_topology(noop.plan()) || !Arc::ptr_eq(q.tables(), noop.tables()) {
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
    if !Arc::ptr_eq(warm.tables(), warm_oracle.tables()) {
        return Err("refreshed engine must read the refreshed oracle's arena".into());
    }
    if !dirty.is_empty() && Arc::ptr_eq(q.tables(), warm.tables()) {
        return Err("dirty refresh must not share the parent arena".into());
    }
    let (old, new) = (q.tables(), warm.tables());
    for b in 0..plan.n_blocks() as u32 {
        if !dirty.contains(&b) && old.block_span(b) != new.block_span(b) {
            return Err(format!("clean block {b} span changed"));
        }
    }
    let reweighted = g.reweighted(&w);
    let cold = build_oracle_with_plan(Arc::new(DecompPlan::build(&reweighted)), &exec, method);
    if warm.tables().ap_span() != cold.tables().ap_span() {
        return Err("refreshed AP span diverges from cold".into());
    }
    check_against_floyd_warshall(&reweighted, &warm_oracle, &warm, 3)
}
