//! Reusable invariant checkers.
//!
//! Every checker returns `Result<(), String>` so it plugs directly into
//! [`crate::runner::Forall::run`] and composes with `?`. The checks encode
//! the paper's exactness claims as machine-checkable statements:
//!
//! * [`metric_axioms`] — an APSP output is an honest metric on each
//!   connected component;
//! * [`oracle_consistency`] / [`oracle_paths_realize_distances`] — the
//!   block-cut-tree distance oracle agrees with a reference matrix and its
//!   reconstructed paths actually exist with the claimed lengths;
//! * [`reduction_invariants`] — ear/chain contraction bookkeeping: edge
//!   partition, `wt(x, left) + wt(x, right)` accounting, no leftover
//!   degree-2 interior vertices, cycle-space dimension preservation
//!   (Lemma 3.1's `dim MCB(G) = dim MCB(G^r)`), and distance preservation
//!   between retained vertices;
//! * [`plan_invariants`] — a [`DecompPlan`] partitions the edge set into
//!   blocks, its id maps agree with the block-cut tree, every arena block
//!   view equals a standalone [`edge_subgraph`] extraction edge for edge
//!   under the plan's renumbering ([`block_renumbering`]), each reduced
//!   block is numbered retained first ([`numbering_invariants`]), and its
//!   stored per-block reductions are identical to fresh [`reduce_graph`]
//!   runs;
//! * [`customization_invariants`] — [`DecompPlan::recustomized`] shares
//!   the topology layer, marks dirty exactly the blocks containing a
//!   changed edge, and is bit-identical to a cold build on the reweighted
//!   graph;
//! * [`basis_valid`] — a claimed cycle basis is independent, spanning and
//!   made of genuine cycle vectors;
//! * [`exactly_once`] — a heterogeneous execution processed every
//!   workunit exactly once across all devices;
//! * [`trace_invariants`] — a captured `ear-obs` trace is well-formed:
//!   spans nest properly per thread with non-regressing timestamps, every
//!   `hetero.unit` span opened is closed exactly once (the tracing-level
//!   counterpart of [`exactly_once`]), and modelled device slices have
//!   non-negative extent.

use ear_apsp::matrix::DistMatrix;
use ear_apsp::oracle::DistanceOracle;
use ear_decomp::plan::DecompPlan;
use ear_decomp::reduce::{reduce_graph, ChainTopology, ReducedGraph};
use ear_graph::{
    connected_components, dijkstra, dist_add, edge_subgraph, CsrGraph, CsrView, VertexId, Weight,
    INF,
};
use ear_hetero::executor::ExecutionReport;
use ear_mcb::cycle_space::{Cycle, CycleSpace};

/// Checks that `d` is a metric consistent with `g`: square, zero on the
/// diagonal, symmetric, finite exactly on intra-component pairs, never
/// longer than any single edge, and satisfying the triangle inequality.
pub fn metric_axioms(g: &CsrGraph, d: &DistMatrix) -> Result<(), String> {
    let n = g.n();
    if d.n() != n {
        return Err(format!(
            "matrix is {}×{}, graph has {n} vertices",
            d.n(),
            d.n()
        ));
    }
    let comps = connected_components(g);
    for i in 0..n as u32 {
        if d.get(i, i) != 0 {
            return Err(format!("d({i},{i}) = {} ≠ 0", d.get(i, i)));
        }
        for j in 0..n as u32 {
            let dij = d.get(i, j);
            if dij != d.get(j, i) {
                return Err(format!(
                    "asymmetry: d({i},{j})={dij}, d({j},{i})={}",
                    d.get(j, i)
                ));
            }
            let same_comp = comps.comp[i as usize] == comps.comp[j as usize];
            if same_comp && dij >= INF {
                return Err(format!("d({i},{j}) infinite within one component"));
            }
            if !same_comp && dij < INF {
                return Err(format!("d({i},{j})={dij} finite across components"));
            }
        }
    }
    for e in g.edges() {
        if !e.is_self_loop() && d.get(e.u, e.v) > e.w {
            return Err(format!(
                "d({},{}) = {} exceeds direct edge of weight {}",
                e.u,
                e.v,
                d.get(e.u, e.v),
                e.w
            ));
        }
    }
    for i in 0..n as u32 {
        for j in 0..n as u32 {
            let dij = d.get(i, j);
            if dij >= INF {
                continue;
            }
            for k in 0..n as u32 {
                let dik = d.get(i, k);
                let kj = d.get(k, j);
                if dik < INF && kj < INF && dik.saturating_add(kj) < dij {
                    return Err(format!(
                        "triangle violation: d({i},{j})={dij} > d({i},{k})+d({k},{j})={}",
                        dik + kj
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Checks the oracle's point queries against a reference matrix on every
/// pair.
pub fn oracle_consistency(oracle: &DistanceOracle, reference: &DistMatrix) -> Result<(), String> {
    let n = reference.n();
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            let got = oracle.dist(u, v);
            let want = reference.get(u, v);
            if got != want {
                return Err(format!(
                    "oracle.dist({u},{v}) = {got}, reference says {want}"
                ));
            }
        }
    }
    Ok(())
}

/// Minimum edge weight between two adjacent vertices (multigraph-aware).
fn min_edge_weight(g: &CsrGraph, u: VertexId, v: VertexId) -> Option<Weight> {
    g.neighbors(u)
        .iter()
        .filter(|&&(w, _)| w == v)
        .map(|&(_, e)| g.weight(e))
        .min()
}

/// Checks that every path the oracle reconstructs is a real walk in `g`
/// whose (minimum-parallel-edge) length equals the claimed distance, and
/// that unreachable pairs return no path.
pub fn oracle_paths_realize_distances(
    g: &CsrGraph,
    oracle: &DistanceOracle,
    reference: &DistMatrix,
) -> Result<(), String> {
    for u in 0..g.n() as u32 {
        for v in 0..g.n() as u32 {
            let d = reference.get(u, v);
            let path = oracle.path(g, u, v);
            if d >= INF {
                if path.is_some() {
                    return Err(format!("path({u},{v}) exists but pair is unreachable"));
                }
                continue;
            }
            let path = path.ok_or_else(|| format!("no path({u},{v}) though d = {d}"))?;
            if path.first() != Some(&u) || path.last() != Some(&v) {
                return Err(format!(
                    "path({u},{v}) has endpoints {:?}..{:?}",
                    path.first(),
                    path.last()
                ));
            }
            let mut total: Weight = 0;
            for pair in path.windows(2) {
                let w = min_edge_weight(g, pair[0], pair[1]).ok_or_else(|| {
                    format!("path({u},{v}) uses non-edge {}–{}", pair[0], pair[1])
                })?;
                total += w;
            }
            // Any real walk is ≥ d; equality certifies shortestness.
            if total != d {
                return Err(format!("path({u},{v}) has length {total}, distance is {d}"));
            }
        }
    }
    Ok(())
}

/// Checks the ear/chain-contraction bookkeeping of [`reduce_graph`] on a
/// simple graph `g` (§2 of the paper, plus Lemma 3.1's dimension claim).
pub fn reduction_invariants(g: &CsrGraph) -> Result<(), String> {
    if !g.is_simple() {
        return Err("reduction_invariants needs a simple graph".into());
    }
    let r: ReducedGraph =
        reduce_graph(g.view()).map_err(|e| format!("reduce_graph rejected a simple graph: {e}"))?;

    // 1. Edge partition: every original edge is owned by exactly one
    //    reduced edge's expansion.
    let mut owner = vec![0usize; g.m()];
    for re in 0..r.reduced.m() as u32 {
        for e in r.expand_edge(re) {
            owner[e as usize] += 1;
        }
    }
    if let Some(e) = owner.iter().position(|&c| c != 1) {
        return Err(format!(
            "original edge {e} covered {} times by reduced edges",
            owner[e]
        ));
    }

    // 2. Weight bookkeeping: each reduced edge weighs as much as the
    //    original edges it stands for, so totals match.
    if r.reduced.total_weight() != g.total_weight() {
        return Err(format!(
            "total weight changed: {} → {}",
            g.total_weight(),
            r.reduced.total_weight()
        ));
    }
    for (ci, chain) in r.chains.iter().enumerate() {
        let sum: Weight = chain.edges.iter().map(|&e| g.weight(e)).sum();
        if sum != r.chain_weight(ci as u32) {
            return Err(format!(
                "chain {ci}: edges sum to {sum}, recorded {}",
                r.chain_weight(ci as u32)
            ));
        }
    }

    // 3. Removed-vertex prefix weights: wt(x,left) + wt(x,right) equals
    //    the chain weight, both strictly positive (§2's d(x,v) formula
    //    depends on this).
    for x in 0..g.n() as u32 {
        let Some(info) = r.removed_info(x) else {
            continue;
        };
        if info.w_left == 0 || info.w_right == 0 {
            return Err(format!("removed vertex {x}: zero-length half-chain"));
        }
        if dist_add(info.w_left, info.w_right) != r.chain_weight(info.chain) {
            return Err(format!(
                "removed vertex {x}: {} + {} ≠ chain weight {}",
                info.w_left,
                info.w_right,
                r.chain_weight(info.chain)
            ));
        }
    }

    // 4. Exactly the degree-2 interior vertices are gone: no retained
    //    vertex keeps plain degree 2 unless it anchors a pure cycle
    //    (self-loop in the reduced graph).
    for (local, &orig) in r.retained.iter().enumerate() {
        let local = local as u32;
        if g.degree(orig) == 2 {
            let has_loop = r
                .reduced
                .neighbors(local)
                .iter()
                .any(|&(nb, _)| nb == local);
            if !has_loop {
                return Err(format!(
                    "degree-2 vertex {orig} survived without anchoring a cycle"
                ));
            }
        }
    }

    // 5. Lemma 3.1: dim MCB(G) = dim MCB(G^r). Contraction removes equal
    //    numbers of vertices and edges per chain and keeps components, so
    //    m − n + k is invariant.
    let dim_g = CycleSpace::new(g).dim();
    let dim_r = CycleSpace::new(&r.reduced).dim();
    if dim_g != dim_r {
        return Err(format!("cycle-space dimension changed: {dim_g} → {dim_r}"));
    }

    // 6. Distances between retained vertices are preserved (the §3
    //    extrapolation formulas assume d_G = d_{G^r} on anchors).
    for (local, &orig) in r.retained.iter().enumerate().take(4) {
        let dg = dijkstra(g, orig);
        let dr = dijkstra(&r.reduced, local as u32);
        for (l2, &o2) in r.retained.iter().enumerate() {
            if dg[o2 as usize] != dr[l2] {
                return Err(format!(
                    "d({orig},{o2}) = {} in G but {} in G^r",
                    dg[o2 as usize], dr[l2]
                ));
            }
        }
    }
    Ok(())
}

/// Checks a [`DecompPlan`] built from `g` against the structures it claims
/// to own: the blocks partition the edge set, every block member (including
/// articulation-point copies and self-loop singletons) round-trips through
/// the local/parent id maps consistently with the block-cut tree, the
/// simplicity flags are honest, every block's arena view equals an
/// independent [`edge_subgraph`] extraction (the standalone-graph reference
/// layout) edge for edge and incidence for incidence under the
/// renumbering composed from the two `to_parent_vertex` maps (checked to
/// be a bijection, and the identity on non-simple blocks), each reduced
/// block is numbered retained first ([`numbering_invariants`]), and each
/// stored reduction is a fresh [`reduce_graph`] run on that extraction,
/// renumbered.
pub fn plan_invariants(g: &CsrGraph, plan: &DecompPlan) -> Result<(), String> {
    if plan.n() != g.n() || plan.m() != g.m() {
        return Err(format!(
            "plan says n={} m={}, graph has n={} m={}",
            plan.n(),
            plan.m(),
            g.n(),
            g.m()
        ));
    }

    // 1. Edge partition: every original edge appears in exactly one block,
    //    and in the block `edge_comp` assigns it to.
    let mut owner = vec![0usize; g.m()];
    for (b, bp) in plan.blocks().iter().enumerate() {
        for &pe in bp.to_parent_edge.iter() {
            owner[pe as usize] += 1;
            if plan.edge_comp()[pe as usize] != b as u32 {
                return Err(format!(
                    "edge {pe} sits in block {b} but edge_comp says {}",
                    plan.edge_comp()[pe as usize]
                ));
            }
        }
    }
    if let Some(e) = owner.iter().position(|&c| c != 1) {
        return Err(format!("edge {e} appears in {} blocks, not 1", owner[e]));
    }

    // 2. Id maps vs the block-cut tree: every member round-trips, every
    //    articulation point of a block resolves in it, and non-members
    //    resolve to None.
    let bct = plan.bct();
    for (b, bp) in plan.blocks().iter().enumerate() {
        let b = b as u32;
        let mut member = vec![false; g.n()];
        for local in 0..bp.n() as u32 {
            let p = bp.parent(local);
            member[p as usize] = true;
            match plan.local(b, p) {
                Some(l) if l == local => {}
                got => {
                    return Err(format!(
                        "block {b}: parent({local}) = {p} but local({p}) = {got:?}"
                    ));
                }
            }
        }
        for &ap in &bct.block_aps[b as usize] {
            if plan.local(b, ap).is_none() {
                return Err(format!(
                    "articulation point {ap} listed for block {b} but has no local copy"
                ));
            }
        }
        for v in 0..g.n() as u32 {
            if !member[v as usize] && plan.local(b, v).is_some() {
                return Err(format!("non-member {v} resolves in block {b}"));
            }
        }
    }

    // 3. A block carries a reduction exactly when it is simple.
    for (b, bp) in plan.blocks().iter().enumerate() {
        let simple = plan.block_graph(b as u32).is_simple();
        if bp.reduction.is_some() != simple {
            return Err(format!(
                "block {b}: is_simple() = {simple} but reduction present = {}",
                bp.reduction.is_some()
            ));
        }
    }

    // 4. Every block view equals a standalone extraction under the
    //    plan's renumbering — edge records and per-vertex incidence order,
    //    with vertex ids mapped — and stored reductions match a fresh
    //    reduction of it, edge for edge (the differential guarantee the
    //    shared-plan pipelines rely on).
    for (b, bp) in plan.blocks().iter().enumerate() {
        let (sub, map) = edge_subgraph(g, &bp.to_parent_edge);
        let bg = plan.block_graph(b as u32);
        if (bg.n(), bg.m()) != (sub.n(), sub.m()) {
            return Err(format!(
                "block {b}: view is {}x{} but the extraction is {}x{}",
                bg.n(),
                bg.m(),
                sub.n(),
                sub.m()
            ));
        }
        let pi = block_renumbering(&bp.to_parent_vertex, &map.to_parent_vertex)
            .map_err(|e| format!("block {b}: {e}"))?;
        let id = |v: VertexId| pi[v as usize];
        if bp.reduction.is_none() && pi.iter().enumerate().any(|(s, &l)| s != l as usize) {
            return Err(format!("block {b}: a non-simple block was renumbered"));
        }
        for (i, (e, f)) in bg.edges().iter().zip(sub.edges()).enumerate() {
            if (e.u, e.v, e.w) != (id(f.u), id(f.v), f.w) {
                return Err(format!(
                    "block {b}: edge {i} is {e:?} in the view but {f:?} in the extraction"
                ));
            }
        }
        for u in 0..sub.n() as u32 {
            let (adj, w) = sub.view().incidences(u);
            let renamed: Vec<_> = adj.iter().map(|&(y, e)| (id(y), e)).collect();
            if bg.incidences(id(u)) != (&renamed[..], w) {
                return Err(format!(
                    "block {b} vertex {u}: incidence stream differs from extraction"
                ));
            }
        }
        let Some(r) = &bp.reduction else { continue };
        numbering_invariants(r, bg).map_err(|e| format!("block {b}: {e}"))?;
        let fresh = reduce_graph(sub.view())
            .map_err(|e| format!("block {b}: fresh reduce_graph failed: {e}"))?;
        let retained: Vec<VertexId> = fresh.retained.iter().map(|&v| id(v)).collect();
        if r.retained != retained
            || (0..sub.n() as u32)
                .any(|v| r.to_reduced[id(v) as usize] != fresh.to_reduced[v as usize])
            || r.chains.len() != fresh.chains.len()
            || r.reduced.n() != fresh.reduced.n()
            || r.reduced.m() != fresh.reduced.m()
        {
            return Err(format!(
                "block {b}: stored reduction differs from fresh run"
            ));
        }
        let re: Vec<_> = r.reduced.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
        let fe: Vec<_> = fresh
            .reduced
            .edges()
            .iter()
            .map(|e| (e.u, e.v, e.w))
            .collect();
        if re != fe {
            return Err(format!(
                "block {b}: stored reduced graph differs from fresh run"
            ));
        }
    }
    Ok(())
}

/// The renumbering between two numberings of one block, composed from
/// their `local → parent` vertex maps: `pi[s]` is the id, under `ids`, of
/// the vertex `reference` numbers `s`. Errors unless the maps name the
/// same vertices once each, so `pi` is a bijection.
pub fn block_renumbering(ids: &[VertexId], reference: &[VertexId]) -> Result<Vec<u32>, String> {
    if ids.len() != reference.len() {
        return Err(format!(
            "{} local ids against {} in the reference",
            ids.len(),
            reference.len()
        ));
    }
    let mut by_parent: Vec<(VertexId, u32)> = (0..).zip(ids).map(|(l, &p)| (p, l)).collect();
    by_parent.sort_unstable();
    if let Some(w) = by_parent.windows(2).find(|w| w[0].0 == w[1].0) {
        return Err(format!("parent vertex {} has two local ids", w[0].0));
    }
    let mut hit = vec![false; ids.len()];
    reference
        .iter()
        .map(|&p| {
            let i = by_parent
                .binary_search_by_key(&p, |&(q, _)| q)
                .map_err(|_| format!("parent vertex {p} has no local id"))?;
            let l = by_parent[i].1;
            if std::mem::replace(&mut hit[l as usize], true) {
                return Err(format!("local id {l} is hit twice"));
            }
            Ok(l)
        })
        .collect()
}

/// Checks the retained-first numbering of a reduced block of `n`
/// vertices: its `k` retained vertices are `0..k` in retained order
/// (`to_reduced` is the identity there and `u32::MAX` beyond), and the
/// chains' interiors, concatenated in chain order, are `k..n` — each
/// chain's interior a contiguous run in walk order. A fresh reduction of
/// the renumbered block `bg` is the stored one (the numbering is a fixed
/// point).
pub fn numbering_invariants(r: &ReducedGraph, bg: CsrView<'_>) -> Result<(), String> {
    let (k, n) = (r.reduced.n(), bg.n());
    if r.to_reduced.len() != n || r.retained.len() != k {
        return Err(format!(
            "{} reduced ids and {} retained vertices for {n} vertices, k = {k}",
            r.to_reduced.len(),
            r.retained.len()
        ));
    }
    if let Some(v) = (0..k).find(|&v| r.retained[v] != v as u32 || r.to_reduced[v] != v as u32) {
        return Err(format!("retained vertex {v} is not numbered {v}"));
    }
    if let Some(v) = (k..n).find(|&v| r.to_reduced[v] != u32::MAX) {
        return Err(format!(
            "removed vertex {v} has reduced id {}",
            r.to_reduced[v]
        ));
    }
    let mut next = k as u32;
    for (c, chain) in r.chains.iter().enumerate() {
        for (pos, &x) in chain.interior.iter().enumerate() {
            let slot = r.removed[x as usize];
            if x != next || slot.map(|s| (s.chain, s.pos)) != Some((c as u32, pos as u32)) {
                return Err(format!(
                    "chain {c} interior {pos} is vertex {x}, expected {next}"
                ));
            }
            next += 1;
        }
    }
    if next as usize != n {
        return Err(format!(
            "chain interiors end at {next}, the block has {n} vertices"
        ));
    }
    let fresh = reduce_graph(bg).map_err(|e| format!("fresh reduce_graph failed: {e}"))?;
    let walk = |c: &ChainTopology| (c.left, c.right, c.edges.clone(), c.interior.clone());
    if fresh.to_reduced != r.to_reduced
        || fresh.removed != r.removed
        || !fresh.chains.iter().map(walk).eq(r.chains.iter().map(walk))
    {
        return Err("a fresh reduction of the renumbered block differs".into());
    }
    Ok(())
}

/// Checks the arena layout of a [`DecompPlan`]: the block spans tile the
/// shared arena exactly once with no gaps or overlaps, and every block
/// window matches its block plan's dimensions.
pub fn layout_invariants(plan: &DecompPlan) -> Result<(), String> {
    // 1. One span per block; the spans tile the arena arrays exactly
    //    once, in block order: each window starts where the previous one
    //    ended, and the last ends at the arena's high-water mark.
    if plan.spans().len() != plan.n_blocks() {
        return Err(format!(
            "plan has {} spans for {} blocks",
            plan.spans().len(),
            plan.n_blocks()
        ));
    }
    let arena = plan.arena();
    let (mut off, mut adj, mut edge) = (0u32, 0u32, 0u32);
    for (b, s) in plan.spans().iter().enumerate() {
        let bp = plan.block(b as u32);
        if s.n as usize != bp.n() || s.m as usize != bp.m() {
            return Err(format!(
                "span {b} is {}x{} but the block plan says {}x{}",
                s.n,
                s.m,
                bp.n(),
                bp.m()
            ));
        }
        if s.off != off || s.adj != adj || s.edge != edge {
            return Err(format!(
                "span {b} windows ({}, {}, {}) leave a gap or overlap after ({off}, {adj}, {edge})",
                s.off, s.adj, s.edge
            ));
        }
        off += s.n + 1;
        adj += s.adj_len;
        edge += s.m;
    }
    if off as usize != arena.offsets_len()
        || adj as usize != arena.adj_len()
        || edge as usize != arena.edges_len()
    {
        return Err(format!(
            "spans cover ({off}, {adj}, {edge}) of the arena's ({}, {}, {})",
            arena.offsets_len(),
            arena.adj_len(),
            arena.edges_len()
        ));
    }
    if plan.n_blocks() > 0 && plan.arena_bytes() == 0 {
        return Err("plan with blocks reports zero arena bytes".into());
    }

    // 2. The block accessor serves windows whose dimensions match the
    //    block plans.
    for b in 0..plan.n_blocks() as u32 {
        let bg = plan.block_graph(b);
        let bp = plan.block(b);
        if bg.n() != bp.n() || bg.m() != bp.m() {
            return Err(format!(
                "block_graph({b}) is {}x{} but the block plan says {}x{}",
                bg.n(),
                bg.m(),
                bp.n(),
                bp.m()
            ));
        }
    }
    Ok(())
}

/// Checks the topology/customization split of [`DecompPlan::recustomized`]
/// for the weight vector `new_weights` against `plan` (built on `g`).
///
/// Verifies, in order:
///
/// * **topology sharing** — the recustomized plan shares `plan`'s
///   topology layer (`shares_topology`), every block's id maps are the
///   same allocations, and every reduction shares its recorded chains;
/// * **dirty-block exactness** — the dirty set is *exactly* the sorted
///   set of blocks containing an edge whose weight changed, and the
///   generation counter advanced by one;
/// * **cold-build bit-identity** — every block graph (edges and
///   incidence streams), every reduction (reduced edges and per-removed-
///   vertex `w_left`/`w_right`), and the stored weight vector equal those
///   of a cold `DecompPlan::build` on the reweighted graph.
pub fn customization_invariants(
    g: &CsrGraph,
    plan: &DecompPlan,
    new_weights: &[Weight],
) -> Result<(), String> {
    use std::sync::Arc;

    if new_weights.len() != g.m() {
        return Err(format!(
            "weight vector holds {} entries for {} edges",
            new_weights.len(),
            g.m()
        ));
    }
    let warm = plan.recustomized(new_weights);

    // 1. Topology sharing.
    if !plan.shares_topology(&warm) {
        return Err("recustomized plan does not share the topology layer".into());
    }
    for (b, (old, new)) in plan.blocks().iter().zip(warm.blocks()).enumerate() {
        if !Arc::ptr_eq(&old.to_parent_vertex, &new.to_parent_vertex)
            || !Arc::ptr_eq(&old.to_parent_edge, &new.to_parent_edge)
        {
            return Err(format!("block {b}: id maps were copied, not shared"));
        }
        match (&old.reduction, &new.reduction) {
            (None, None) => {}
            (Some(ro), Some(rn)) => {
                if !ro.shares_topology(rn) {
                    return Err(format!("block {b}: reduction topology was rebuilt"));
                }
            }
            _ => return Err(format!("block {b}: reduction presence changed")),
        }
    }

    // 2. Dirty-block exactness and generation accounting.
    let mut expected: Vec<u32> = plan
        .edge_weights()
        .iter()
        .zip(new_weights)
        .enumerate()
        .filter(|(_, (o, n))| o != n)
        .map(|(e, _)| plan.edge_comp()[e])
        .collect();
    expected.sort_unstable();
    expected.dedup();
    if warm.dirty_blocks() != expected {
        return Err(format!(
            "dirty blocks {:?}, expected exactly the changed-edge blocks {:?}",
            warm.dirty_blocks(),
            expected
        ));
    }
    if warm.generation() != plan.generation() + 1 {
        return Err(format!(
            "generation went {} → {}",
            plan.generation(),
            warm.generation()
        ));
    }

    // 3. Bit-identity against a cold build of the reweighted graph.
    let cold = DecompPlan::build(&g.reweighted(new_weights));
    if warm.edge_weights() != cold.edge_weights() {
        return Err("stored weight vectors differ from the cold build".into());
    }
    for b in 0..plan.n_blocks() as u32 {
        let (wg, cg) = (warm.block_graph(b), cold.block_graph(b));
        if wg.edges() != cg.edges() {
            return Err(format!(
                "block {b}: edge records differ from the cold build"
            ));
        }
        for u in 0..wg.n() as u32 {
            if wg.incidences(u) != cg.incidences(u) {
                return Err(format!(
                    "block {b} vertex {u}: incidence stream differs from the cold build"
                ));
            }
        }
        match (warm.reduction(b), cold.reduction(b)) {
            (None, None) => {}
            (Some(rw), Some(rc)) => {
                if rw.reduced.edges() != rc.reduced.edges() {
                    return Err(format!(
                        "block {b}: reduced edges differ from the cold build"
                    ));
                }
                for x in 0..wg.n() as u32 {
                    let (iw, ic) = (rw.removed_info(x), rc.removed_info(x));
                    let same = match (iw, ic) {
                        (None, None) => true,
                        (Some(a), Some(b)) => {
                            (a.chain, a.pos, a.left, a.right, a.w_left, a.w_right)
                                == (b.chain, b.pos, b.left, b.right, b.w_left, b.w_right)
                        }
                        _ => false,
                    };
                    if !same {
                        return Err(format!(
                            "block {b} vertex {x}: removed-vertex info differs from the cold build"
                        ));
                    }
                }
            }
            _ => {
                return Err(format!(
                    "block {b}: reduction presence differs from the cold build"
                ))
            }
        }
    }
    Ok(())
}

/// Checks that `cycles` is a valid minimum-structure cycle basis of `g`
/// (independence, correct dimension, genuine cycle vectors) via the `mcb`
/// crate's verifier.
pub fn basis_valid(g: &CsrGraph, cycles: &[Cycle]) -> Result<(), String> {
    ear_mcb::verify::verify_basis(g, cycles)
}

/// Checks that a heterogeneous run processed exactly `expected` workunits
/// in total, with per-device unit/batch counts that are mutually
/// consistent (no device reports units without batches or vice versa).
pub fn exactly_once(report: &ExecutionReport, expected: usize) -> Result<(), String> {
    let total = report.total_units();
    if total != expected {
        return Err(format!("processed {total} units, expected {expected}"));
    }
    for d in &report.devices {
        if d.units > 0 && d.batches == 0 {
            return Err(format!(
                "device '{}' claims {} units in 0 batches",
                d.name, d.units
            ));
        }
        if d.units == 0 && d.batches > 0 {
            return Err(format!(
                "device '{}' popped {} batches but no units",
                d.name, d.batches
            ));
        }
    }
    Ok(())
}

/// Checks that an `ear-obs` trace snapshot is structurally sound.
///
/// Per thread: events are in chronological order, every `End` matches the
/// innermost open `Begin` by name with `end ≥ start`, and nothing is left
/// open. Globally: `hetero.unit` spans open and close exactly once each —
/// and, when `expected_units` is given, their count equals the number of
/// workunits the executor was handed (the trace-level mirror of
/// [`exactly_once`]). Modelled device slices must have `end ≥ start`.
///
/// Threads whose ring buffer overflowed (`dropped > 0`) lost their oldest
/// events, so their nesting cannot be reconstructed; they are checked
/// only for timestamp order, and the exactly-once count is skipped for
/// the whole trace (it would undercount).
pub fn trace_invariants(
    trace: &ear_obs::Trace,
    expected_units: Option<usize>,
) -> Result<(), String> {
    use ear_obs::EventKind;

    let mut unit_opens = 0usize;
    let mut unit_closes = 0usize;
    for tl in &trace.threads {
        let lossy = tl.dropped > 0;
        let mut stack: Vec<(&str, u64)> = Vec::new();
        let mut last_ts = 0u64;
        for ev in &tl.events {
            if ev.ts_ns < last_ts {
                return Err(format!(
                    "thread {} ('{}'): timestamp regresses ({} ns after {} ns)",
                    tl.tid, tl.name, ev.ts_ns, last_ts
                ));
            }
            last_ts = ev.ts_ns;
            if lossy {
                continue;
            }
            match ev.kind {
                EventKind::Begin => {
                    stack.push((ev.name, ev.ts_ns));
                    if ev.name == "hetero.unit" {
                        unit_opens += 1;
                    }
                }
                EventKind::End => {
                    if ev.name == "hetero.unit" {
                        unit_closes += 1;
                    }
                    let Some((open_name, open_ts)) = stack.pop() else {
                        return Err(format!(
                            "thread {} ('{}'): end '{}' with no open span",
                            tl.tid, tl.name, ev.name
                        ));
                    };
                    if open_name != ev.name {
                        return Err(format!(
                            "thread {} ('{}'): end '{}' closes open span '{open_name}'",
                            tl.tid, tl.name, ev.name
                        ));
                    }
                    if ev.ts_ns < open_ts {
                        return Err(format!(
                            "thread {} ('{}'): span '{}' ends at {} ns before starting at {} ns",
                            tl.tid, tl.name, ev.name, ev.ts_ns, open_ts
                        ));
                    }
                }
                EventKind::Counter => {}
            }
        }
        if !stack.is_empty() {
            return Err(format!(
                "thread {} ('{}'): {} spans left open (innermost '{}')",
                tl.tid,
                tl.name,
                stack.len(),
                stack.last().expect("non-empty").0
            ));
        }
    }

    let lossy_trace = trace.threads.iter().any(|t| t.dropped > 0);
    if !lossy_trace {
        if unit_opens != unit_closes {
            return Err(format!(
                "hetero.unit spans: {unit_opens} opened, {unit_closes} closed"
            ));
        }
        if let Some(expected) = expected_units {
            if unit_opens != expected {
                return Err(format!(
                    "trace records {unit_opens} hetero.unit spans, executor was handed {expected}"
                ));
            }
        }
    }

    for s in &trace.modelled {
        if s.end_s < s.start_s {
            return Err(format!(
                "modelled slice '{}' on lane '{}' ends at {} s before starting at {} s",
                s.name, s.lane, s.end_s, s.start_s
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::floyd_warshall;

    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 5), (0, 2, 7)])
    }

    #[test]
    fn floyd_warshall_satisfies_metric_axioms() {
        let g = diamond();
        metric_axioms(&g, &floyd_warshall(&g)).unwrap();
    }

    #[test]
    fn metric_axioms_reject_broken_matrices() {
        let g = diamond();
        let mut d = floyd_warshall(&g);
        d.set(0, 2, 1000); // breaks symmetry and the edge bound
        assert!(metric_axioms(&g, &d).is_err());
    }

    #[test]
    fn reduction_invariants_hold_on_a_chain_graph() {
        // Square with one side subdivided into a 3-edge chain.
        let g = CsrGraph::from_edges(
            6,
            &[
                (0, 1, 2),
                (1, 2, 3),
                (2, 3, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 0, 1),
            ],
        );
        reduction_invariants(&g).unwrap();
    }

    #[test]
    fn plan_invariants_hold_with_self_loops_and_multi_edges() {
        // Two blocks sharing AP 2, a self-loop singleton on 0, and a
        // parallel pair 4–5 making one block a multigraph.
        let g = CsrGraph::from_edges(
            6,
            &[
                (0, 0, 9),
                (0, 1, 1),
                (1, 2, 2),
                (2, 0, 3),
                (2, 3, 1),
                (3, 4, 1),
                (4, 2, 2),
                (4, 5, 1),
                (4, 5, 2),
            ],
        );
        let plan = DecompPlan::build(&g);
        plan_invariants(&g, &plan).unwrap();
    }

    #[test]
    fn trace_invariants_accept_nested_and_reject_crossed_spans() {
        use ear_obs::{Event, EventKind, ModelledSlice, ThreadLog, Trace};
        let ev = |name, kind, ts| Event {
            name,
            kind,
            ts_ns: ts,
            arg: 0,
        };
        let good = Trace {
            threads: vec![ThreadLog {
                tid: 1,
                name: "main".into(),
                events: vec![
                    ev("hetero.run", EventKind::Begin, 0),
                    ev("hetero.unit", EventKind::Begin, 1),
                    ev("hetero.unit", EventKind::End, 2),
                    ev("hetero.run", EventKind::End, 3),
                ],
                dropped: 0,
            }],
            modelled: vec![ModelledSlice {
                lane: "gpu".into(),
                name: "batch".into(),
                start_s: 0.0,
                end_s: 0.5,
                units: 1,
            }],
        };
        trace_invariants(&good, Some(1)).unwrap();
        assert!(trace_invariants(&good, Some(2)).is_err());

        let mut crossed = good.clone();
        crossed.threads[0].events.swap(2, 3); // run ends inside unit
        crossed.threads[0].events[2].ts_ns = 2;
        crossed.threads[0].events[3].ts_ns = 3;
        assert!(trace_invariants(&crossed, None).is_err());

        let mut regressing = good.clone();
        regressing.threads[0].events[3].ts_ns = 1;
        assert!(trace_invariants(&regressing, None).is_err());
    }

    #[test]
    fn exactly_once_flags_lost_units() {
        use ear_hetero::executor::HeteroExecutor;
        use ear_hetero::WorkCounters;
        let exec = HeteroExecutor::sequential();
        let out = exec.run(
            (0..10u32).collect::<Vec<_>>(),
            |_| 1,
            |&x| (x as u64, WorkCounters::default()),
        );
        exactly_once(&out.report, 10).unwrap();
        assert!(exactly_once(&out.report, 11).is_err());
    }
}
