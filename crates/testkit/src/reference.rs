//! Reference implementations that exist only to be differentially tested
//! against: each is the straightforward original of a production layer,
//! kept here so the production crates carry one implementation per layer.
//!
//! * **SSSP** — [`dijkstra`], [`dijkstra_with_stats`] and
//!   [`dijkstra_tree`]: the allocate-per-source Dijkstra with a
//!   lazy-deletion binary heap. Bit-identical to the pooled
//!   [`ear_graph::SsspEngine`] in distances, parents, settle orders and
//!   statistics, which `tests/sssp_engine_differential.rs` checks.
//! * **De Pina** — [`depina_mcb_traced`] and [`depina_phase_loop`]: the
//!   scalar phase loop with one [`DenseBits`] vector per witness and fresh
//!   per-tree [`Labels`] each phase ([`tree_labels`],
//!   [`candidate_dot`]). It records byte-identical
//!   [`PhaseTrace`]s to the packed kernels of `ear_mcb::depina`, which
//!   `tests/mcb_kernels_differential.rs` checks.
//! * **Brandes** — [`brandes_dependencies`], [`betweenness_weighted`],
//!   [`betweenness`] and [`betweenness_pendant_reduced`]: the forward pass
//!   on its own lazy-deletion binary heap, as `ear-bc` first ran it, and
//!   the backward dependency accumulation. Bit-identical to `ear-bc`'s
//!   scores and work counters, which `tests/bc_differential.rs` checks.
//! * **APSP** — [`floyd_warshall`], the exact `O(n³)` oracle,
//!   [`plain_apsp`], Dijkstra from every vertex of the whole graph through
//!   the heterogeneous executor, and [`reuse_apsp`], the oracle's phase-II
//!   schedule on one graph, sequential and with a lazy-deletion heap. It
//!   pins the oracle's phase-II tables and work counters, which
//!   `tests/phase2_derive_differential.rs` checks.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ear_apsp::DistMatrix;
use ear_graph::rng::splitmix64;
use ear_graph::{
    dist_add, CsrGraph, CsrView, DijkstraStats, EdgeId, SsspTree, VertexId, Weight, INF,
};
use ear_hetero::{group_units, ExecutionReport, HeteroExecutor, RunOutput, WorkCounters};
use ear_mcb::candidates::{self, CandRef, Candidates};
use ear_mcb::signed::min_cycle_nonorthogonal;
use ear_mcb::{Cycle, CycleSpace, DenseBits, DepinaOptions, PhaseSteps, PhaseTrace};

/// Deterministic tie-break for equal-distance parents: prefer the smaller
/// (parent vertex, edge id) pair — the rule the engine applies too.
#[inline]
fn tie_prefers(u: VertexId, e: EdgeId, cur_pv: VertexId, cur_pe: EdgeId) -> bool {
    (u, e) < (cur_pv, cur_pe)
}

/// Allocate-per-source equivalent of [`ear_graph::dijkstra()`].
pub fn dijkstra(g: &CsrGraph, source: VertexId) -> Vec<Weight> {
    run(g, source, false).dist
}

/// Allocate-per-source equivalent of [`ear_graph::dijkstra_with_stats`].
pub fn dijkstra_with_stats(g: &CsrGraph, source: VertexId) -> (Vec<Weight>, DijkstraStats) {
    let t = run(g, source, false);
    (t.dist, t.stats)
}

/// Allocate-per-source equivalent of [`ear_graph::dijkstra_tree`].
pub fn dijkstra_tree(g: &CsrGraph, source: VertexId) -> SsspTree {
    run(g, source, true)
}

fn run(g: &CsrGraph, source: VertexId, want_tree: bool) -> SsspTree {
    let n = g.n();
    assert!((source as usize) < n, "source out of range");
    let mut dist = vec![INF; n];
    let mut parent_vertex = vec![u32::MAX; n];
    let mut parent_edge = vec![u32::MAX; n];
    let mut depths = vec![0u32; n];
    let mut done = vec![false; n];
    let mut settle_order = Vec::new();
    let mut stats = DijkstraStats::default();

    let mut heap: BinaryHeap<Reverse<(Weight, VertexId)>> = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0, source)));

    while let Some(Reverse((d, u))) = heap.pop() {
        if done[u as usize] {
            continue; // stale entry (lazy deletion)
        }
        done[u as usize] = true;
        settle_order.push(u);
        stats.settled += 1;
        debug_assert_eq!(d, dist[u as usize]);
        for &(v, e) in g.neighbors(u) {
            stats.edges_relaxed += 1;
            if v == u {
                continue; // self-loops never improve a distance
            }
            let nd = d + g.weight(e);
            let strictly_better = nd < dist[v as usize];
            // With non-negative weights a settled vertex can never be
            // strictly improved, so `strictly_better` implies `!done[v]`.
            let tie_better = want_tree
                && nd == dist[v as usize]
                && !done[v as usize]
                && tie_prefers(u, e, parent_vertex[v as usize], parent_edge[v as usize]);
            if strictly_better || tie_better {
                dist[v as usize] = nd;
                if want_tree {
                    parent_vertex[v as usize] = u;
                    parent_edge[v as usize] = e;
                    depths[v as usize] = depths[u as usize] + 1;
                }
                if strictly_better {
                    heap.push(Reverse((nd, v)));
                    stats.heap_pushes += 1;
                }
            }
        }
    }

    SsspTree {
        source,
        dist,
        parent_vertex,
        parent_edge,
        depths,
        settle_order,
        stats,
    }
}

/// Per-source shortest-path-DAG scratch for Brandes: distances, path
/// counts, predecessor lists, settle order, and the heap.
#[derive(Default)]
struct BcScratch {
    dist: Vec<Weight>,
    sigma: Vec<f64>,
    preds: Vec<Vec<VertexId>>,
    done: Vec<bool>,
    /// Vertices in settle order (non-decreasing distance).
    order: Vec<VertexId>,
    heap: BinaryHeap<Reverse<(Weight, VertexId)>>,
    stats: WorkCounters,
}

impl BcScratch {
    /// Clears the previous run's footprint and grows arrays to `n`.
    fn begin(&mut self, n: usize) {
        // Every written entry belongs to a settled vertex (a vertex is only
        // touched when strictly improved, which pushes it, so it settles).
        for &v in &self.order {
            let vi = v as usize;
            self.dist[vi] = INF;
            self.sigma[vi] = 0.0;
            self.preds[vi].clear();
            self.done[vi] = false;
        }
        self.order.clear();
        self.heap.clear();
        self.stats = WorkCounters::default();
        if self.dist.len() < n {
            self.dist.resize(n, INF);
            self.sigma.resize(n, 0.0);
            self.preds.resize_with(n, Vec::new);
            self.done.resize(n, false);
        }
    }
}

fn count_paths(g: &CsrGraph, s: VertexId, sc: &mut BcScratch) {
    sc.begin(g.n());
    sc.dist[s as usize] = 0;
    sc.sigma[s as usize] = 1.0;
    sc.heap.push(Reverse((0, s)));
    while let Some(Reverse((d, u))) = sc.heap.pop() {
        if sc.done[u as usize] {
            continue;
        }
        sc.done[u as usize] = true;
        sc.order.push(u);
        sc.stats.vertices_settled += 1;
        for &(v, e) in g.neighbors(u) {
            sc.stats.edges_relaxed += 1;
            if v == u {
                continue;
            }
            let nd = d + g.weight(e);
            if nd < sc.dist[v as usize] {
                sc.dist[v as usize] = nd;
                sc.sigma[v as usize] = sc.sigma[u as usize];
                sc.preds[v as usize].clear();
                sc.preds[v as usize].push(u);
                sc.heap.push(Reverse((nd, v)));
            } else if nd == sc.dist[v as usize] {
                // A second shortest route into v.
                sc.sigma[v as usize] += sc.sigma[u as usize];
                sc.preds[v as usize].push(u);
            }
        }
    }
}

/// Allocate-per-source equivalent of `ear-bc`'s dependency accumulation
/// from `s`: `δ_s(v)` for all `v`, where targets carry weight
/// `target_w[t]`, and the source's work counters.
pub fn brandes_dependencies(
    g: &CsrGraph,
    s: VertexId,
    target_w: &[f64],
) -> (Vec<f64>, WorkCounters) {
    let mut sc = BcScratch::default();
    count_paths(g, s, &mut sc);
    let n = g.n();
    let mut delta = vec![0.0; n];
    let mut stats = sc.stats;
    for &v in sc.order.iter().rev() {
        if v == s || sc.dist[v as usize] >= INF {
            continue;
        }
        let coeff = (target_w[v as usize] + delta[v as usize]) / sc.sigma[v as usize];
        for &u in &sc.preds[v as usize] {
            delta[u as usize] += sc.sigma[u as usize] * coeff;
            stats.distances_combined += 1;
        }
    }
    (delta, stats)
}

/// Sequential equivalent of `ear_bc::brandes::betweenness_weighted`, with
/// the same summation order: each source's `source_w[s] × δ_s` (0 at `s`)
/// added in source order, then halved.
pub fn betweenness_weighted(
    g: &CsrGraph,
    sources: &[VertexId],
    source_w: &[f64],
    target_w: &[f64],
) -> Vec<f64> {
    let mut bc = vec![0.0; g.n()];
    for &s in sources {
        let (delta, _) = brandes_dependencies(g, s, target_w);
        let ws = source_w[s as usize];
        for (v, d) in delta.into_iter().enumerate() {
            bc[v] += if v == s as usize { 0.0 } else { d * ws };
        }
    }
    for b in &mut bc {
        *b *= 0.5;
    }
    bc
}

/// Equivalent of `ear_bc::betweenness`: every vertex a source, unit
/// weights.
pub fn betweenness(g: &CsrGraph) -> Vec<f64> {
    let ones = vec![1.0; g.n()];
    let sources: Vec<VertexId> = (0..g.n() as u32).collect();
    betweenness_weighted(g, &sources, &ones, &ones)
}

/// Equivalent of `ear_bc::betweenness_pendant_reduced`: `ear-bc`'s
/// closed-form pendant credits plus [`betweenness_weighted`] on the
/// weighted 1-core.
pub fn betweenness_pendant_reduced(g: &CsrGraph) -> Vec<f64> {
    let r = ear_bc::pendant_reduction(g);
    let sources: Vec<VertexId> = (0..r.core.n() as u32).collect();
    let core_bc = betweenness_weighted(&r.core, &sources, &r.mass, &r.mass);
    r.with_core(core_bc)
}

/// Labels for every tree, for one witness (paper Algorithm 3, after
/// Mehlhorn–Michail): `per_tree[i][u]` = `l_{z_i}(u)`, the GF(2) parity of
/// witness bits over the non-tree edges on `u`'s root path in tree `i`.
pub struct Labels {
    /// `per_tree[i][u]` = `l_{z_i}(u)`.
    pub per_tree: Vec<Vec<bool>>,
}

/// Computes the labels of a single tree against witness `s` — the two
/// passes of Algorithm 3 fused into one top-down sweep (children follow
/// parents in [`SsspTree::top_down_order`], so `l(parent)` is final when
/// `l(u)` is formed).
pub fn tree_labels(
    t: &SsspTree,
    order: &[VertexId],
    cs: &CycleSpace,
    s: &DenseBits,
) -> (Vec<bool>, WorkCounters) {
    let n = t.dist.len();
    let mut l = vec![false; n];
    let mut count = 0u64;
    for &u in order {
        if u == t.source {
            continue;
        }
        let p = t.parent_vertex[u as usize];
        let pe = t.parent_edge[u as usize];
        // c_z(u): the witness bit of the incoming tree edge if it is
        // non-tree w.r.t. the global spanning tree, else 0.
        let idx = cs.nt_index[pe as usize];
        let c = idx != u32::MAX && s.get(idx as usize);
        l[u as usize] = l[p as usize] ^ c;
        count += 1;
    }
    (
        l,
        WorkCounters {
            labels_computed: count,
            ..Default::default()
        },
    )
}

/// The O(1) orthogonality test for a candidate, given its tree's labels:
/// `⟨C_ze, S⟩ = l_z(u) ⊕ l_z(v) ⊕ (S(e) if e ∈ E')`.
#[inline]
pub fn candidate_dot(
    cand: &CandRef,
    labels: &Labels,
    cs: &CycleSpace,
    s: &DenseBits,
    g: &CsrGraph,
) -> bool {
    let l = &labels.per_tree[cand.z_idx as usize];
    let r = g.edge(cand.edge);
    let idx = cs.nt_index[cand.edge as usize];
    let se = idx != u32::MAX && s.get(idx as usize);
    l[r.u as usize] ^ l[r.v as usize] ^ se
}

/// Scalar [`ear_mcb::depina_mcb_traced`].
pub fn depina_mcb_traced(g: &CsrGraph, opts: &DepinaOptions) -> (Vec<Cycle>, PhaseTrace) {
    let cs = CycleSpace::new(g);
    let mut trace = PhaseTrace::default();
    if cs.dim() == 0 {
        return (Vec::new(), trace);
    }
    let mut cands: Candidates = candidates::generate(g);
    trace.tree = cands.tree_units.clone();
    let (basis, loop_trace) = depina_phase_loop(g, &cs, &mut cands, opts);
    trace.merge(loop_trace);
    (basis, trace)
}

/// Scalar [`ear_mcb::depina_phase_loop`]: the original per-witness loop.
pub fn depina_phase_loop(
    g: &CsrGraph,
    cs: &CycleSpace,
    cands: &mut Candidates,
    opts: &DepinaOptions,
) -> (Vec<Cycle>, PhaseTrace) {
    let f = cs.dim();
    let mut trace = PhaseTrace::default();
    let mut basis: Vec<Cycle> = Vec::with_capacity(f);
    if f == 0 {
        return (basis, trace);
    }
    let mut witnesses: Vec<DenseBits> = (0..f).map(|i| DenseBits::unit(f, i)).collect();
    let n_hint = g.n() as u64 + 1;
    let trees: Vec<_> = cands.trees.iter().zip(&cands.order).collect();

    for i in 0..f {
        let s = witnesses[i].clone();
        let mut steps = PhaseSteps::default();

        // Phase 1: labels, parallel across trees (paper Algorithm 3).
        let labelled = ear_graph::par_map(&trees, |&(t, ord)| tree_labels(t, ord, cs, &s));
        steps.labels = group_units(n_hint, labelled.iter().map(|(_, c)| *c));
        let labels = Labels {
            per_tree: labelled.into_iter().map(|(l, _)| l).collect(),
        };

        // Phase 2: scan the weight-sorted store for the first cycle
        // non-orthogonal to S_i.
        let mut inspected = 0u64;
        let cand = if opts.force_signed {
            None
        } else {
            cands
                .store
                .take_first(|c| candidate_dot(c, &labels, cs, &s, g), &mut inspected)
        };
        if inspected > 0 {
            steps.search.push((
                1,
                WorkCounters {
                    cycles_inspected: 1,
                    ..Default::default()
                },
                inspected,
            ));
        }
        let cycle = match cand {
            Some(c) => {
                let edges = cands.materialize(g, &c);
                let cyc = cs.cycle_from_edges(g, edges);
                debug_assert_eq!(cyc.weight, c.live_weight());
                cyc
            }
            None => {
                // Backstop: exact signed search over the FVS roots. Its
                // Dijkstra work is charged to the search step.
                trace.fallbacks += usize::from(!opts.force_signed);
                let mut c = WorkCounters::default();
                let cyc = min_cycle_nonorthogonal(g, cs, &s, Some(&cands.z), &mut c)
                    .expect("every de Pina witness admits a cycle");
                steps.search.push((n_hint, c, 1));
                cyc
            }
        };
        debug_assert!(s.sparse_dot(&cycle.nt), "chosen cycle must hit its witness");

        // Phase 3: witness update, parallel across the remaining
        // witnesses (steps 4-6 of the paper's Algorithm 2).
        let words = (f as u64).div_ceil(64);
        let update_counters = ear_graph::par_map_mut(&mut witnesses[i + 1..], |sj| {
            let mut c = WorkCounters {
                words_xored: cycle.nt.len() as u64,
                ..Default::default()
            };
            if sj.sparse_dot(&cycle.nt) {
                sj.xor_assign(&s);
                c.words_xored += words;
            }
            c
        });
        steps.update = group_units(words, update_counters);

        trace.phases.push(steps);
        basis.push(cycle);
    }

    (basis, trace)
}

/// All-sources Dijkstra through the heterogeneous executor; one workunit
/// per source vertex, exactly like the paper's Phase II (`{cpu,gpu}`),
/// applied to the whole graph with no decomposition at all.
pub fn plain_apsp(g: &CsrGraph, exec: &HeteroExecutor) -> (DistMatrix, ExecutionReport) {
    let sources: Vec<u32> = (0..g.n() as u32).collect();
    let m_hint = g.m() as u64 + 1;
    let RunOutput { results, report } = exec.run(
        sources,
        |_| m_hint,
        |&s| {
            let (row, stats) = ear_graph::dijkstra_with_stats(g, s);
            let counters = WorkCounters {
                edges_relaxed: stats.edges_relaxed,
                vertices_settled: stats.settled,
                ..Default::default()
            };
            (row, counters)
        },
    );
    (DistMatrix::from_rows(results), report)
}

/// Phase II of `ear_apsp`'s oracle on `g`, written plainly: the sources
/// in descending degree order, ties broken by the splitmix64 finaliser of
/// the id, in rounds of 8, 16, 32, … sources. Each source's search sees
/// the rows of earlier rounds only, and keeps its tentative distances in
/// the row it writes: a relaxation pushes `v` only when it beats
/// `row[v]`, and a popped vertex `x` at distance `d` is skipped when
/// `row[x] < d`, folds `d ⊕ row_x` into the row when its row is
/// finished, and is expanded otherwise. Returns the table and the work
/// counters the oracle charges for it: the expanded vertices and their
/// incidences, and `n` per folded row.
pub fn reuse_apsp(g: CsrView<'_>) -> (DistMatrix, WorkCounters) {
    let n = g.n();
    let mut order: Vec<VertexId> = g.vertices().collect();
    order.sort_by_key(|&v| (Reverse(g.degree(v)), splitmix64(v.into())));
    let mut table = DistMatrix::new(n);
    let mut finished = vec![false; n];
    let mut counters = WorkCounters::default();
    let (mut start, mut size) = (0, 8);
    while start < n {
        let round = &order[start..(start + size).min(n)];
        for &s in round {
            let row = reuse_search(g, s, &table, &finished, &mut counters);
            table.row_mut(s).copy_from_slice(&row);
        }
        for &s in round {
            finished[s as usize] = true;
        }
        (start, size) = (start + size, size * 2);
    }
    (table, counters)
}

/// One [`reuse_apsp`] search from `s` over the `finished` rows of `table`.
fn reuse_search(
    g: CsrView<'_>,
    s: VertexId,
    table: &DistMatrix,
    finished: &[bool],
    counters: &mut WorkCounters,
) -> Vec<Weight> {
    let n = g.n();
    let mut row = vec![INF; n];
    let mut heap = BinaryHeap::new();
    row[s as usize] = 0;
    heap.push(Reverse((0, s)));
    while let Some(Reverse((d, x))) = heap.pop() {
        let xi = x as usize;
        if row[xi] < d {
            continue;
        }
        if finished[xi] {
            for (r, &t) in row.iter_mut().zip(table.row(x)) {
                *r = (*r).min(dist_add(d, t));
            }
            counters.dense_combined += n as u64;
            continue;
        }
        counters.vertices_settled += 1;
        let (adj, wts) = g.incidences(x);
        for (&(v, _), &w) in adj.iter().zip(wts) {
            counters.edges_relaxed += 1;
            let nd = d + w;
            if v != x && nd < row[v as usize] {
                row[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    row
}

/// Exact Floyd–Warshall, `k`-outer loop with row streaming. Parallel edges
/// and self-loops are handled by the initialisation (min over bundle, loops
/// ignored). Intended as a correctness oracle for graphs up to a few
/// thousand vertices.
pub fn floyd_warshall(g: &CsrGraph) -> DistMatrix {
    let n = g.n();
    let mut m = DistMatrix::new(n);
    for e in g.edges() {
        if e.is_self_loop() {
            continue;
        }
        if e.w < m.get(e.u, e.v) {
            m.set_sym(e.u, e.v, e.w);
        }
    }
    for k in 0..n as u32 {
        let row_k = m.row(k).to_vec();
        for i in 0..n as u32 {
            let dik = m.get(i, k);
            if dik >= INF {
                continue;
            }
            let row_i = m.row_mut(i);
            for (j, &dkj) in row_k.iter().enumerate() {
                if dkj >= INF {
                    continue;
                }
                let via: Weight = dik + dkj;
                if via < row_i[j] {
                    row_i[j] = via;
                }
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weighted_square() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 0, 7), (0, 2, 10)])
    }

    #[test]
    fn floyd_warshall_matches_hand_computed() {
        let m = floyd_warshall(&weighted_square());
        assert_eq!(m.get(0, 2), 5); // 0-1-2
        assert_eq!(m.get(0, 3), 6); // 0-1-2-3
        assert_eq!(m.get(1, 3), 4); // 1-2-3
        assert!(m.is_symmetric());
    }

    #[test]
    fn plain_apsp_matches_floyd_warshall() {
        let g = weighted_square();
        let (m, report) = plain_apsp(&g, &HeteroExecutor::sequential());
        assert_eq!(m, floyd_warshall(&g));
        assert_eq!(report.total_units(), 4);
        assert!(report.total_counters().edges_relaxed > 0);
    }

    #[test]
    fn disconnected_pairs_are_inf() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (2, 3, 1)]);
        let m = floyd_warshall(&g);
        assert_eq!(m.get(0, 2), INF);
        let (m2, _) = plain_apsp(&g, &HeteroExecutor::sequential());
        assert_eq!(m, m2);
    }

    #[test]
    fn multigraph_uses_cheapest_parallel_edge() {
        let g = CsrGraph::from_edges(2, &[(0, 1, 9), (0, 1, 2), (0, 0, 5)]);
        let m = floyd_warshall(&g);
        assert_eq!(m.get(0, 1), 2);
        assert_eq!(m.get(0, 0), 0);
        let (m2, _) = plain_apsp(&g, &HeteroExecutor::sequential());
        assert_eq!(m, m2);
    }

    #[test]
    fn hetero_executor_gives_same_answer() {
        let g = weighted_square();
        let (a, _) = plain_apsp(&g, &HeteroExecutor::sequential());
        let (b, _) = plain_apsp(&g, &HeteroExecutor::cpu_gpu());
        assert_eq!(a, b);
    }

    /// Brute-force ⟨C, S⟩ by materialising the candidate.
    fn slow_dot(
        g: &CsrGraph,
        c: &Candidates,
        cs: &CycleSpace,
        cand: &CandRef,
        s: &DenseBits,
    ) -> bool {
        let cyc = cs.cycle_from_edges(g, c.materialize(g, cand));
        s.sparse_dot(&cyc.nt)
    }

    /// Every tree's labels against `s`, sequentially.
    fn all_labels(c: &Candidates, cs: &CycleSpace, s: &DenseBits) -> (Labels, WorkCounters) {
        let mut per_tree = Vec::with_capacity(c.trees.len());
        let mut total = WorkCounters::default();
        for (t, ord) in c.trees.iter().zip(&c.order) {
            let (l, w) = tree_labels(t, ord, cs, s);
            total.merge(&w);
            per_tree.push(l);
        }
        (Labels { per_tree }, total)
    }

    #[test]
    fn labels_agree_with_brute_force_on_k4() {
        let g = CsrGraph::from_edges(
            4,
            &[
                (0, 1, 1),
                (0, 2, 2),
                (0, 3, 3),
                (1, 2, 4),
                (1, 3, 5),
                (2, 3, 6),
            ],
        );
        let cs = CycleSpace::new(&g);
        let c = candidates::generate(&g);
        // Try every unit witness and a couple of combined ones.
        let mut witnesses: Vec<DenseBits> = (0..cs.dim())
            .map(|i| DenseBits::unit(cs.dim(), i))
            .collect();
        let mut combo = DenseBits::zero(cs.dim());
        for i in 0..cs.dim() {
            combo.set(i, true);
        }
        witnesses.push(combo);
        for s in &witnesses {
            let (labels, counters) = all_labels(&c, &cs, s);
            assert!(counters.labels_computed > 0);
            for cand in c.store.iter_live() {
                assert_eq!(
                    candidate_dot(cand, &labels, &cs, s, &g),
                    slow_dot(&g, &c, &cs, cand, s),
                    "candidate {cand:?} witness {s:?}"
                );
            }
        }
    }

    #[test]
    fn labels_agree_on_multigraph() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 1), (0, 1, 4), (1, 2, 2), (2, 0, 3), (1, 1, 9)]);
        let cs = CycleSpace::new(&g);
        let c = candidates::generate(&g);
        for i in 0..cs.dim() {
            let s = DenseBits::unit(cs.dim(), i);
            let (labels, _) = all_labels(&c, &cs, &s);
            for cand in c.store.iter_live() {
                assert_eq!(
                    candidate_dot(cand, &labels, &cs, &s, &g),
                    slow_dot(&g, &c, &cs, cand, &s)
                );
            }
        }
    }

    #[test]
    fn zero_witness_gives_zero_labels() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1), (2, 0, 1)]);
        let cs = CycleSpace::new(&g);
        let c = candidates::generate(&g);
        let s = DenseBits::zero(cs.dim());
        let (labels, _) = all_labels(&c, &cs, &s);
        assert!(labels.per_tree[0].iter().all(|&b| !b));
    }
}
