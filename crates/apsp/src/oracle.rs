//! The general-graph APSP pipeline and distance oracle (paper §2.2–§2.3).
//!
//! Large sparse graphs are rarely biconnected, so the paper splits the
//! input into biconnected components, solves APSP inside each block
//! (with or without ear reduction — the "without" configuration *is* the
//! Banerjee et al. baseline of Figure 2), and stitches blocks through the
//! block-cut tree:
//!
//! * per-block tables `A_i` hold within-block distances — exact global
//!   distances, because a shortest path between two vertices of a block
//!   never leaves it (it would have to re-enter through the same
//!   articulation point);
//! * the `a × a` articulation-point table `A` holds distances between all
//!   articulation points, summed from within-block distances along the
//!   block-cut-tree path by one sweep of the tree per source AP;
//! * a query `d(u,v)` across blocks asks the plan's [`BlockCutTree`]
//!   router for the articulation points `a₁`, `a₂` at which the tree
//!   path leaves `u`'s block and enters `v`'s, and sums
//!   `d(u,a₁) + A[a₁,a₂] + d(a₂,v)` — at most three arena reads
//!   (`tree_dist`, the one distance function every query type uses).
//!
//! Phase II (per-block tables) runs Dijkstra only from sources outside a
//! maximal independent set of each block's phase-II graph
//! ([`derived_sources`]); every other row is the minimum over its
//! neighbours' rows, `d(x,t) = min w(x,u) + d(u,t)`. The Banerjee
//! baseline ([`ApspMethod::Plain`]) derives no rows, so it stays one
//! Dijkstra per block vertex.
//!
//! Storage is `O(a² + Σᵢ nᵢ²)` instead of `O(n²)` — the paper's Table 1
//! "Our's Memory" vs "Max Memory" columns, reproduced by [`OracleStats`] —
//! or `O(a² + Σᵢ (nᵢʳ)²)` at [`ApspMethod::Reduced`], which stores only
//! the phase-II tables and runs the §2.1.3 extension (the private `ear`
//! module) per query. All of it lives in one [`DistArena`]: the build
//! writes every table straight into its span, and the
//! [`crate::QueryEngine`] serving the oracle reads the same allocation
//! through a shared [`Arc`].

use std::sync::Arc;

use ear_decomp::block_cut::{BlockCutTree, Endpoint};
use ear_decomp::plan::{BlockPlan, DecompPlan};
use ear_graph::{dist_add, with_engine, CsrGraph, CsrView, VertexId, Weight, INF};
use ear_hetero::{ExecutionReport, HeteroExecutor, WorkCounters};

use crate::arena::DistArena;
use crate::ear::{block_pair_dist, extend_row};
use crate::matrix::DistMatrix;

/// How each biconnected component is solved and stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApspMethod {
    /// The paper's approach: ear-decomposition reduction first, then the
    /// §2.1.3 extension materialised into full `nᵢ × nᵢ` block tables.
    Ear,
    /// The Banerjee et al. baseline: plain all-sources Dijkstra per block.
    Plain,
    /// Ear reduction with only the reduced `nᵢʳ × nᵢʳ` tables stored
    /// (`a² + Σ (nᵢʳ)²` entries): phase III does not run, and a query
    /// touching a removed vertex evaluates the §2.1.3 minima over its
    /// block's reduced span — the storage level the paper's published
    /// memory figures for its chain-heavy graphs imply.
    Reduced,
}

/// Structural and memory statistics — the columns of the paper's Table 1.
#[derive(Clone, Debug, PartialEq)]
pub struct OracleStats {
    /// `|V|`.
    pub n: usize,
    /// `|E|`.
    pub m: usize,
    /// Number of biconnected components.
    pub n_bccs: usize,
    /// Edges in the largest component, as a fraction of `|E|`.
    pub largest_bcc_edge_share: f64,
    /// Degree-2 vertices removed by preprocessing (all blocks), as stored.
    pub removed_vertices: usize,
    /// Articulation-point count `a`.
    pub articulation_points: usize,
    /// Stored table entries: `a² + Σ nᵢ²` (`a² + Σ (nᵢʳ)²` at
    /// [`ApspMethod::Reduced`]).
    pub table_entries: u64,
    /// Entries a flat `n × n` table would need.
    pub max_entries: u64,
}

impl OracleStats {
    /// Fraction of vertices removed in preprocessing (Table 1 column
    /// "Nodes Removed (% |V|)").
    pub fn removed_share(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.removed_vertices as f64 / self.n as f64
        }
    }

    /// Paper-style memory in bytes: 4-byte entries, as the published MB
    /// figures imply (float distance tables).
    pub fn memory_bytes_f32(&self) -> u64 {
        self.table_entries * 4
    }

    /// Paper-style upper bound (`n²` 4-byte entries).
    pub fn max_memory_bytes_f32(&self) -> u64 {
        self.max_entries * 4
    }
}

/// Side of block `bp`'s table under `method`: `nᵢ`, or `nᵢʳ` at
/// [`ApspMethod::Reduced`].
fn table_side(method: ApspMethod, bp: &BlockPlan) -> usize {
    match method {
        ApspMethod::Ear | ApspMethod::Plain => bp.n(),
        ApspMethod::Reduced => bp.reduced_n(),
    }
}

/// The tables of one customization under one [`ApspMethod`]: the build,
/// refresh and routing machinery behind [`DistanceOracle`].
#[derive(Debug)]
struct Store {
    plan: Arc<DecompPlan>,
    method: ApspMethod,
    arena: Arc<DistArena>,
}

impl Store {
    /// Cold build: every block's table and the AP table. Returns the
    /// executor reports of phases II + III and of the AP table.
    fn build(
        plan: Arc<DecompPlan>,
        exec: &HeteroExecutor,
        method: ApspMethod,
    ) -> (Store, ExecutionReport, ExecutionReport) {
        let mut store = Store {
            arena: Arc::new(DistArena::new(&plan, |bp| table_side(method, bp))),
            plan,
            method,
        };
        let all: Vec<u32> = (0..store.plan.n_blocks() as u32).collect();
        let (processing, ap_phase) = store.rewrite(exec, &all);
        (store, processing, ap_phase)
    }

    /// Incremental refresh for a recustomized `plan`: clones the arena and
    /// rewrites the spans of the blocks whose weights differ between the
    /// two plans (see [`DecompPlan::dirty_blocks_since`]), then the AP span
    /// if any block is dirty. Bit-identical to a cold [`Store::build`] on
    /// `plan`; a no-op refresh shares the whole arena.
    ///
    /// # Panics
    /// Panics unless `plan` shares this store's plan topology.
    fn refreshed(
        &self,
        plan: Arc<DecompPlan>,
        exec: &HeteroExecutor,
    ) -> (Store, ExecutionReport, ExecutionReport) {
        assert!(
            self.plan.shares_topology(&plan),
            "recustomized requires a plan sharing this oracle's topology \
             (build it with DecompPlan::recustomized)"
        );
        let dirty = plan.dirty_blocks_since(&self.plan);
        let (span, refreshes, dirty_blocks) = match self.method {
            ApspMethod::Ear | ApspMethod::Plain => (
                "apsp.refresh",
                "apsp.refreshes",
                "apsp.refresh.dirty_blocks",
            ),
            ApspMethod::Reduced => (
                "apsp.reduced_refresh",
                "apsp.reduced_refreshes",
                "apsp.reduced_refresh.dirty_blocks",
            ),
        };
        let _span = ear_obs::span_with(span, dirty.len() as u64);
        let mut store = Store {
            plan,
            method: self.method,
            arena: Arc::clone(&self.arena),
        };
        let (processing, ap_phase) = store.rewrite(exec, &dirty);
        if ear_obs::is_enabled() {
            ear_obs::counter_add(refreshes, 1);
            ear_obs::counter_add(dirty_blocks, dirty.len() as u64);
        }
        (store, processing, ap_phase)
    }

    /// Recomputes the tables of `blocks` and, unless `blocks` is empty, the
    /// AP span (a changed within-block distance can reroute AP-to-AP paths
    /// globally). Clean blocks' spans are kept as they are.
    fn rewrite(
        &mut self,
        exec: &HeteroExecutor,
        blocks: &[u32],
    ) -> (ExecutionReport, ExecutionReport) {
        let processing =
            compute_block_tables(&self.plan, exec, self.method, blocks, &mut self.arena);
        let ap_phase = if blocks.is_empty() {
            processing.clone()
        } else {
            self.compute_ap_table(exec)
        };
        (processing, ap_phase)
    }

    /// Within-block distance between vertices `u` and `v` of block `b`
    /// (`INF` when either is not a member).
    fn pair_dist(&self, b: u32, u: VertexId, v: VertexId) -> Weight {
        let (Some(lu), Some(lv)) = (self.plan.local(b, u), self.plan.local(b, v)) else {
            return INF;
        };
        match self.method {
            ApspMethod::Ear | ApspMethod::Plain => self.arena.block(b, lu, lv),
            ApspMethod::Reduced => block_pair_dist(&self.plan, &self.arena, b, lu, lv),
        }
    }

    /// Stage 2 post-processing: the `a × a` AP table, written into the AP
    /// span by sweeping the block-cut tree once every block table is set.
    ///
    /// A path between two articulation points passes through every cut
    /// vertex on their tree path and, between two consecutive ones, never
    /// leaves their shared block, whose table holds exact global distances:
    /// `A[s,t]` is the sum of within-block distances along the tree path.
    /// One unit per source AP `s` walks the tree from `s` with an explicit
    /// stack (the tree can be `a` levels deep); entering block `B` through
    /// AP `x` sets `d(s,y) = d(s,x) ⊕ d_B(x,y)` for every other AP `y` of
    /// `B`. APs in other trees stay `INF`, and sums saturate at `INF`.
    fn compute_ap_table(&mut self, exec: &HeteroExecutor) -> ExecutionReport {
        let _ap_span = ear_obs::span("apsp.ap_table");
        let bct = self.plan.bct();
        // Block b's within-block AP distances, row-major in `block_aps[b]`
        // order, at `pair[off[b]..]`.
        let (mut pair, mut off) = (Vec::new(), Vec::with_capacity(bct.n_blocks));
        // The blocks holding each AP, as (block, position in its APs).
        let mut ap_blocks: Vec<Vec<(u32, usize)>> = vec![Vec::new(); bct.ap_count()];
        for (b, aps) in (0..).zip(&bct.block_aps) {
            let (base, k) = (pair.len(), aps.len());
            off.push(base);
            pair.resize(base + k * k, 0);
            for (i, &x) in aps.iter().enumerate() {
                ap_blocks[bct.ap_index[x as usize] as usize].push((b, i));
                for (j, &y) in aps.iter().enumerate().skip(i + 1) {
                    let w = self.pair_dist(b, x, y);
                    (pair[base + i * k + j], pair[base + j * k + i]) = (w, w);
                }
            }
        }
        let arena = Arc::make_mut(&mut self.arena);
        let mut rows: Vec<(u32, &mut [Weight])> = (0..).zip(arena.ap_rows_mut()).collect();
        // Each AP of the source's tree but the source is set once: at most
        // `a − 1` combinations per source, exactly that when connected.
        let a = rows.len() as u64;
        exec.run_mut(
            &mut rows,
            |_| a,
            |(s, row)| {
                row.fill(INF);
                row[*s as usize] = 0;
                let mut combined = 0;
                // (block, position of the AP it is entered through)
                let mut stack = ap_blocks[*s as usize].clone();
                while let Some((b, i)) = stack.pop() {
                    let aps = &bct.block_aps[b as usize];
                    let d_b = &pair[off[b as usize] + i * aps.len()..][..aps.len()];
                    let dx = row[bct.ap_index[aps[i] as usize] as usize];
                    for (&y, &w) in aps.iter().zip(d_b).filter(|&(&y, _)| y != aps[i]) {
                        let t = bct.ap_index[y as usize] as usize;
                        row[t] = dist_add(dx, w);
                        combined += 1;
                        stack.extend(ap_blocks[t].iter().filter(|&&(c, _)| c != b));
                    }
                }
                WorkCounters {
                    distances_combined: combined,
                    ..WorkCounters::default()
                }
            },
        )
    }
}

/// The queryable distance oracle.
///
/// Every table sits in one [`DistArena`] behind an [`Arc`]: a no-op
/// [`DistanceOracle::recustomized`] refresh shares it outright, a dirty
/// one clones it and rewrites only what changed, and
/// [`crate::QueryEngine`] serves straight out of it.
#[derive(Debug)]
pub struct DistanceOracle {
    store: Store,
    stats: OracleStats,
    /// Executor report of the per-block processing phases (II + III).
    pub processing: ExecutionReport,
    /// Executor report of the articulation-point table construction.
    pub ap_phase: ExecutionReport,
}

impl DistanceOracle {
    /// Structural statistics (Table 1 columns).
    pub fn stats(&self) -> &OracleStats {
        &self.stats
    }

    /// The per-block method this oracle was built with.
    pub fn method(&self) -> ApspMethod {
        self.store.method
    }

    /// The decomposition plan this oracle was built from (shareable with
    /// other pipelines via [`Arc::clone`]).
    pub fn plan(&self) -> &Arc<DecompPlan> {
        &self.store.plan
    }

    /// Total modelled device time across all build phases.
    pub fn modelled_time_s(&self) -> f64 {
        self.processing.makespan_s + self.ap_phase.makespan_s
    }

    /// Shortest-path distance between any two vertices (`INF` when
    /// disconnected).
    pub fn dist(&self, u: VertexId, v: VertexId) -> Weight {
        let s = &self.store;
        tree_dist(&s.plan, &s.arena, s.method, u, v)
    }

    /// The oracle's distance store (AP table and every block table),
    /// shared with the [`crate::QueryEngine`]s serving it.
    pub fn tables(&self) -> &Arc<DistArena> {
        &self.store.arena
    }

    /// Reconstructs an actual shortest path `u → v` as a vertex sequence
    /// (inclusive of both endpoints), or `None` when disconnected — the
    /// same descent as [`crate::QueryEngine::path`].
    pub fn path(&self, g: &CsrGraph, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
        realize_path(g, u, v, |x, y| self.dist(x, y))
    }

    /// Materialises the full `n × n` matrix (tests / small graphs only).
    pub fn materialize(&self) -> DistMatrix {
        let n = self.store.plan.n();
        let mut m = DistMatrix::new(n);
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                m.set(u, v, self.dist(u, v));
            }
        }
        m
    }

    /// Incrementally refreshes the oracle for a recustomized plan: only the
    /// tables of the blocks whose weights differ between `self`'s plan and
    /// `plan` (see [`DecompPlan::dirty_blocks_since`]) are recomputed —
    /// the build's phases run on exactly those blocks — into a clone of
    /// `self`'s arena, so every clean block's span is copied, never
    /// recomputed. The articulation-point span is rebuilt whenever any
    /// block is dirty (a changed within-block distance can reroute
    /// AP-to-AP paths globally); a no-op recustomization shares the whole
    /// arena and runs nothing.
    ///
    /// The result is bit-identical to a cold
    /// [`build_oracle_with_plan`] on `plan` — the differential suite
    /// holds it to that — at a cost proportional to the dirty blocks'
    /// share of the graph, not the graph size.
    ///
    /// # Panics
    /// Panics unless `plan` shares this oracle's plan topology (i.e. it
    /// came from [`DecompPlan::recustomized`] on the same decomposition).
    pub fn recustomized(&self, plan: Arc<DecompPlan>, exec: &HeteroExecutor) -> DistanceOracle {
        let (store, processing, ap_phase) = self.store.refreshed(plan, exec);
        DistanceOracle {
            store,
            stats: self.stats.clone(),
            processing,
            ap_phase,
        }
    }
}

/// Shortest-path distance between any two vertices, `INF` when
/// disconnected: the one distance function of the oracle and its query
/// engines, reading `arena` laid out for `method`. The method picks the
/// within-block read once per query — a span lookup, or at
/// [`ApspMethod::Reduced`] the §2.1.3 minima over the reduced span — so
/// each arm's [`route`] inlines its own read.
#[inline]
pub(crate) fn tree_dist(
    plan: &DecompPlan,
    arena: &DistArena,
    method: ApspMethod,
    u: VertexId,
    v: VertexId,
) -> Weight {
    let bct = plan.bct();
    match method {
        ApspMethod::Ear | ApspMethod::Plain => {
            route(bct, arena, |b, i, j| arena.block(b, i, j), u, v)
        }
        ApspMethod::Reduced => {
            let read = |b, i, j| block_pair_dist(plan, arena, b, i, j);
            route(bct, arena, read, u, v)
        }
    }
}

/// Block-cut-tree routing (paper §2.3) over the within-block read
/// `block(b, i, j)` (local ids `i`, `j` of block `b`).
///
/// Both endpoints non-AP in one block read that block's table. Otherwise
/// each endpoint `x` leaves its side of the tree path through `a = x`
/// when it is an articulation point, else through its home block's
/// [`BlockCutTree::gateway`] toward the other endpoint, and the answer is
/// `d(u,a₁) + A[a₁,a₂] + d(a₂,v)`. Because `A[a,a] = 0` and `A` holds
/// exact AP-to-AP distances, that one formula also covers an AP inside
/// the other endpoint's block and two APs sharing a block.
#[inline]
fn route(
    bct: &BlockCutTree,
    arena: &DistArena,
    block: impl Fn(u32, VertexId, VertexId) -> Weight,
    u: VertexId,
    v: VertexId,
) -> Weight {
    if u == v {
        return 0;
    }
    let (eu, ev) = (bct.endpoint(u), bct.endpoint(v));
    if eu.node == ev.node && bct.is_block(eu.node) {
        return block(eu.node, eu.local, ev.local);
    }
    if eu.tree != ev.tree || eu.tree == u32::MAX {
        return INF;
    }
    // (AP index, d(x, AP)) of the AP where x's side of the path ends.
    let exit = |x: Endpoint, toward: Endpoint| match bct.ap_of(x) {
        Some(a) => (a, 0),
        None => {
            let gw = bct.gateway(x.node, toward.pre);
            (gw.ap, block(x.node, x.local, gw.local))
        }
    };
    let ((a1, du), (a2, dv)) = (exit(eu, ev), exit(ev, eu));
    dist_add(du, dist_add(arena.ap_row(a1)[a2 as usize], dv))
}

/// Realizes a shortest path `u → v` (inclusive of both endpoints) by
/// greedy descent on the distance function `dist`, or `None` when
/// disconnected. From `x`, some neighbor `y` always satisfies
/// `w(x,y) + d(y,v) = d(x,v)`; ties break to the smallest edge id, so the
/// path is deterministic.
pub(crate) fn realize_path(
    g: &CsrGraph,
    u: VertexId,
    v: VertexId,
    dist: impl Fn(VertexId, VertexId) -> Weight,
) -> Option<Vec<VertexId>> {
    // d(x, v), carried across hops: a tight step along edge `e` means
    // d(y, v) = d(x, v) - w(e) with everything finite, so the chosen
    // neighbor's probe doubles as the next hop's `dx`.
    let mut dx = dist(u, v);
    if dx >= INF {
        return None;
    }
    let mut path = vec![u];
    let mut x = u;
    let mut guard = g.n() + 1;
    while x != v {
        let mut next: Option<(VertexId, ear_graph::EdgeId, Weight)> = None;
        for &(y, e) in g.neighbors(x) {
            // Once a tight edge is in hand, only a smaller edge id can
            // displace it, so the rest need no probe.
            if y == x || next.is_some_and(|(_, be, _)| e >= be) {
                continue;
            }
            let dy = dist(y, v);
            if dist_add(g.weight(e), dy) == dx {
                next = Some((y, e, dy));
            }
        }
        let (y, _, dy) = next.expect("finite distance must have a tight edge");
        path.push(y);
        x = y;
        dx = dy;
        guard -= 1;
        assert!(guard > 0, "path reconstruction looped");
    }
    Some(path)
}

/// Builds the oracle: BCC split, per-block APSP (`method` decides whether
/// ear reduction runs first), articulation-point table, routing structure.
///
/// ```
/// use ear_apsp::{build_oracle, ApspMethod};
/// use ear_graph::CsrGraph;
/// use ear_hetero::HeteroExecutor;
/// // Two triangles sharing vertex 2 (an articulation point).
/// let g = CsrGraph::from_edges(5, &[
///     (0, 1, 1), (1, 2, 2), (2, 0, 3),
///     (2, 3, 4), (3, 4, 5), (4, 2, 6),
/// ]);
/// let oracle = build_oracle(&g, &HeteroExecutor::cpu_gpu(), ApspMethod::Ear);
/// assert_eq!(oracle.dist(0, 3), 1 + 2 + 4); // 0-1-2-3
/// assert_eq!(oracle.stats().articulation_points, 1);
/// ```
pub fn build_oracle(g: &CsrGraph, exec: &HeteroExecutor, method: ApspMethod) -> DistanceOracle {
    build_oracle_with_plan(Arc::new(DecompPlan::build(g)), exec, method)
}

/// One phase-II workunit: writes the distance row of source `s` in
/// `target` into `row`, from one run of the worker thread's pooled
/// [`SsspEngine`](ear_graph::SsspEngine), and returns its work counters.
fn sssp_row(target: CsrView<'_>, s: u32, row: &mut [Weight]) -> WorkCounters {
    assert_eq!(row.len(), target.n(), "distance row length");
    with_engine(|eng| {
        let stats = eng.run_view(target, s);
        eng.write_dist(row);
        WorkCounters {
            edges_relaxed: stats.edges_relaxed,
            vertices_settled: stats.settled,
            ..WorkCounters::default()
        }
    })
}

/// The sources phase II derives instead of searching from: a maximal
/// independent set of `g`, as a membership mask. Chosen greedily in
/// ascending `(degree, vertex id)` order, so it depends on the topology
/// alone and every call returns the same set.
pub fn derived_sources(g: CsrView<'_>) -> Vec<bool> {
    let mut order: Vec<VertexId> = g.vertices().collect();
    order.sort_unstable_by_key(|&v| (g.degree(v), v));
    let mut member = vec![false; g.n()];
    let mut blocked = vec![false; g.n()];
    for v in order {
        if !blocked[v as usize] {
            member[v as usize] = true;
            for &(u, _) in g.neighbors(v) {
                blocked[u as usize] = true;
            }
        }
    }
    member
}

/// Writes the distance row of `x` in `g` into `row` from its neighbours'
/// rows (`row_of(u)`): `d(x,t) = min over incidences (u, w) of x, u ≠ x,
/// of w + d(u,t)`, saturating at `INF`, and `d(x,x) = 0`. Returns its
/// work counters: one streaming min-plus combination per incidence and
/// target.
fn derive_row<'r>(
    g: CsrView<'_>,
    x: VertexId,
    row_of: impl Fn(VertexId) -> &'r [Weight],
    row: &mut [Weight],
) -> WorkCounters {
    let (adj, wts) = g.incidences(x);
    row.fill(INF);
    for (&(u, _), &w) in adj.iter().zip(wts) {
        if u == x {
            continue;
        }
        let du = row_of(u);
        assert_eq!(du.len(), row.len(), "distance row length");
        // Starting from INF, the plain saturating sum equals `dist_add`:
        // any sum at or past INF loses the minimum to the initial INF.
        for (d, &t) in row.iter_mut().zip(du) {
            *d = (*d).min(w.saturating_add(t));
        }
    }
    row[x as usize] = 0;
    WorkCounters {
        dense_combined: adj.len() as u64 * row.len() as u64,
        ..WorkCounters::default()
    }
}

/// Phase II: fills every row of an all-sources table, one `(block,
/// source, row)` unit per source of each block's `target` graph, grouped
/// by block in ascending source order. With `derive`, each block's
/// [`derived_sources`] get their rows from their neighbours' rows
/// ([`derive_row`], under an `apsp.derive` span) after one Dijkstra per
/// other source has written those; without it every source runs Dijkstra.
/// Returns the merged executor report of both passes.
fn all_sources<'g>(
    exec: &HeteroExecutor,
    rows: Vec<(u32, u32, &mut [Weight])>,
    target: impl Fn(u32) -> CsrView<'g> + Sync,
    derive: bool,
) -> ExecutionReport {
    // Row (b, s) sits at index first[b] + s of `rows`.
    let total = rows.len();
    let mut first = vec![0; rows.last().map_or(0, |r| r.0 as usize + 1)];
    let mut member = Vec::with_capacity(total);
    for (k, &(b, s, _)) in rows.iter().enumerate() {
        if s == 0 {
            first[b as usize] = k;
            if derive {
                member.extend(derived_sources(target(b)));
            } else {
                member.resize(member.len() + target(b).n(), false);
            }
        }
    }
    assert_eq!(member.len(), total, "every block lists all its rows");
    let (mut searched, mut derived) = (Vec::new(), Vec::new());
    for (row, m) in rows.into_iter().zip(member) {
        if m {
            derived.push(row);
        } else {
            searched.push(row);
        }
    }
    if ear_obs::is_enabled() {
        ear_obs::counter_add("apsp.rows_sssp", searched.len() as u64);
        ear_obs::counter_add("apsp.rows_derived", derived.len() as u64);
    }
    let report = exec.run_mut(
        &mut searched,
        |&(b, _, _)| target(b).m() as u64 + 1,
        |(b, s, row)| sssp_row(target(*b), *s, row),
    );
    if derived.is_empty() {
        return report;
    }
    // An independent set's neighbours are all searched sources.
    let mut done: Vec<&[Weight]> = vec![&[]; total];
    for (b, s, row) in &searched {
        done[first[*b as usize] + *s as usize] = row;
    }
    let derived_report = exec.run_mut(
        &mut derived,
        |&(b, x, _)| (target(b).degree(x) * target(b).n()) as u64 + 1,
        |(b, x, row)| {
            let _span = ear_obs::span("apsp.derive");
            let base = first[*b as usize];
            derive_row(target(*b), *x, |u| done[base + u as usize], row)
        },
    );
    merge_reports(report, derived_report)
}

/// Builds the oracle from a prebuilt [`DecompPlan`], skipping the BCC
/// split, block extraction and per-block reduction entirely.
///
/// The plan can be shared (`Arc::clone`) with the MCB pipeline, oracles
/// of the other methods and statistics over the same graph — a
/// server-style caller pays the decomposition once per graph, not once per
/// workload. In `Plain` mode the plan's reductions are simply ignored (and
/// [`OracleStats::removed_vertices`] reports zero), so one plan serves
/// every method.
pub fn build_oracle_with_plan(
    plan: Arc<DecompPlan>,
    exec: &HeteroExecutor,
    method: ApspMethod,
) -> DistanceOracle {
    let _build_span = ear_obs::span_with("apsp.build", plan.n() as u64);
    let (store, processing, ap_phase) = Store::build(plan, exec, method);

    // Statistics.
    let plan = &store.plan;
    let removed = match method {
        ApspMethod::Ear | ApspMethod::Reduced => plan.removed_vertices(),
        ApspMethod::Plain => 0,
    };
    let table_entries = store.arena.entries() as u64;
    let stats = OracleStats {
        n: plan.n(),
        m: plan.m(),
        n_bccs: plan.n_blocks(),
        largest_bcc_edge_share: if plan.m() == 0 {
            0.0
        } else {
            plan.largest_block_edges() as f64 / plan.m() as f64
        },
        removed_vertices: removed,
        articulation_points: plan.bct().ap_count(),
        table_entries,
        max_entries: (plan.n() as u64).pow(2),
    };
    if ear_obs::is_enabled() {
        ear_obs::counter_add("apsp.oracles", 1);
        ear_obs::counter_add("apsp.table_entries", table_entries);
        ear_obs::counter_add("apsp.removed_vertices", removed as u64);
    }

    DistanceOracle {
        store,
        stats,
        processing,
        ap_phase,
    }
}

/// Phases II + III for the given `blocks` only (ascending ids), writing
/// each block's rows straight into its span of `tables` (cloned first when
/// shared: a refresh's clone-and-rewrite). Phase II is the all-sources
/// table of each block's reduced graph — of the block itself when it is
/// not reduced or `method` is `Plain` — with rows derived outside
/// Dijkstra everywhere but at `Plain`. Phase III runs at `Ear` only: the
/// §2.1.3 extension of the reduced matrices to the whole block (at
/// `Reduced` the phase-II rows are the stored tables). Returns the merged
/// executor report. The cold build passes every block; an incremental
/// refresh passes just the dirty ones, and an empty list leaves `tables`
/// shared.
fn compute_block_tables(
    plan: &Arc<DecompPlan>,
    exec: &HeteroExecutor,
    method: ApspMethod,
    blocks: &[u32],
    tables: &mut Arc<DistArena>,
) -> ExecutionReport {
    // Ear reduction requires simple blocks; a multigraph input's parallel
    // bundles fall back to plain processing for that block. The plan's
    // per-block `reduction` accessor is the single guard.
    let red = |b: u32| match method {
        ApspMethod::Plain => None,
        ApspMethod::Ear | ApspMethod::Reduced => plan.reduction(b),
    };
    let target = |b: u32| red(b).map_or_else(|| plan.block_graph(b), |r| r.reduced.view());
    // Phase II: workunits are (block, source) rows, filled in place. The
    // Banerjee baseline (`Plain`) derives no rows: one Dijkstra per block
    // vertex is the comparison axis.
    let derive = method != ApspMethod::Plain;
    let phase2 = |rows: Vec<(u32, u32, &mut [Weight])>| {
        let _span = ear_obs::span("apsp.phase2");
        all_sources(exec, rows, target, derive)
    };
    let mut rows = match blocks {
        [] => Vec::new(),
        _ => Arc::make_mut(tables).block_rows_mut(blocks),
    };
    match method {
        // The phase-II rows are the block tables.
        ApspMethod::Plain | ApspMethod::Reduced => phase2(rows),
        ApspMethod::Ear => {
            // Phase II into transient per-block reduced (or full) matrices,
            // by block id (empty for the blocks not listed).
            let mut srs = vec![DistMatrix::new(0); plan.n_blocks()];
            for &b in blocks {
                srs[b as usize] = DistMatrix::new(plan.block(b).reduced_n());
            }
            let sr_rows = (0..)
                .zip(&mut srs)
                .flat_map(|(b, sr)| (0..).zip(sr.rows_mut()).map(move |(s, row)| (b, s, row)))
                .collect();
            let p2 = phase2(sr_rows);
            // Phase III: extend each block's reduced matrix to the whole
            // block; workunits are (block, vertex) rows of the arena.
            let _span = ear_obs::span("apsp.phase3");
            let p3 = exec.run_mut(
                &mut rows,
                |&(b, _, _)| plan.block(b).n() as u64,
                |(b, x, row)| {
                    let sr = &srs[*b as usize];
                    match red(*b) {
                        Some(r) => extend_row(plan.block(*b).n(), r, sr, *x, row),
                        // Non-simple block processed plainly: its reduced
                        // matrix already is the full per-block table.
                        None => {
                            row.copy_from_slice(sr.row(*x));
                            WorkCounters::default()
                        }
                    }
                },
            );
            merge_reports(p2, p3)
        }
    }
}

fn merge_reports(mut a: ExecutionReport, b: ExecutionReport) -> ExecutionReport {
    for (da, dbr) in a.devices.iter_mut().zip(&b.devices) {
        da.units += dbr.units;
        da.batches += dbr.batches;
        da.busy_s += dbr.busy_s;
        da.counters.merge(&dbr.counters);
    }
    a.makespan_s += b.makespan_s;
    a.wall_s += b.wall_s;
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::floyd_warshall;

    const METHODS: [ApspMethod; 3] = [ApspMethod::Ear, ApspMethod::Plain, ApspMethod::Reduced];

    /// The oracle at every method (`Ear`, `Plain`, `Reduced`), each held
    /// to Floyd–Warshall on every pair and built bit-identically by the
    /// sequential and the CPU+GPU executor.
    fn check_methods(g: &CsrGraph) -> [DistanceOracle; 3] {
        let fw = floyd_warshall(g);
        METHODS.map(|method| {
            let o = build_oracle(g, &HeteroExecutor::sequential(), method);
            assert_eq!(o.method(), method);
            let m = o.materialize();
            for u in 0..g.n() as u32 {
                for v in 0..g.n() as u32 {
                    assert_eq!(m.get(u, v), fw.get(u, v), "{method:?} ({u},{v})");
                }
            }
            let hetero = build_oracle(g, &HeteroExecutor::cpu_gpu(), method);
            assert_eq!(hetero.materialize(), m, "{method:?} executors");
            o
        })
    }

    /// triangle — bridge — square — pendant
    fn mixed_graph() -> CsrGraph {
        CsrGraph::from_edges(
            8,
            &[
                (0, 1, 2),
                (1, 2, 3),
                (2, 0, 4),
                (2, 3, 5),
                (3, 4, 1),
                (4, 5, 2),
                (5, 6, 3),
                (6, 3, 4),
                (5, 7, 9),
            ],
        )
    }

    #[test]
    fn mixed_graph_every_method_matches_oracle() {
        let g = mixed_graph();
        let [ear, plain, reduced] = check_methods(&g);
        assert_eq!(ear.stats().n_bccs, plain.stats().n_bccs);
        assert!(ear.stats().n_bccs >= 3);
        // The square 3-4-5-6 contains degree-2 vertices for ear to remove.
        assert!(ear.stats().removed_vertices > 0);
        assert_eq!(plain.stats().removed_vertices, 0);
        assert_eq!(
            reduced.stats().removed_vertices,
            ear.stats().removed_vertices
        );
        assert!(reduced.stats().table_entries < ear.stats().table_entries);
        assert_eq!(ear.stats().table_entries, plain.stats().table_entries);
    }

    /// One graph of the §2.1.3 table: the degree-2 vertices the plan
    /// removes across its blocks, and the `Reduced` oracle's
    /// `a² + Σ (nᵢʳ)²` entries.
    struct Case {
        name: &'static str,
        g: CsrGraph,
        removed: usize,
        reduced_entries: u64,
        /// Distances pinned beyond the Floyd–Warshall check.
        pinned: &'static [(u32, u32, Weight)],
    }

    fn extension_cases() -> Vec<Case> {
        let ring = |n: u32| (0..n).map(|i| (i, (i + 1) % n, 1)).collect::<Vec<_>>();
        vec![
            Case {
                // Two chains plus a direct edge between the same anchors.
                name: "theta",
                g: CsrGraph::from_edges(
                    4,
                    &[(0, 1, 1), (1, 2, 2), (0, 2, 10), (0, 3, 3), (3, 2, 4)],
                ),
                removed: 2,
                reduced_entries: 2 * 2,
                pinned: &[(1, 3, 4)],
            },
            Case {
                // A pure cycle keeps one anchor with a self-loop.
                name: "pure_cycle",
                g: CsrGraph::from_edges(
                    5,
                    &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 0, 5)],
                ),
                removed: 4,
                reduced_entries: 1,
                pinned: &[(1, 4, 6)],
            },
            Case {
                // Chain 0-1-2-3-4 between hubs 0 and 4, plus three bypasses.
                name: "long_chain",
                g: CsrGraph::from_edges(
                    8,
                    &[
                        (0, 1, 5),
                        (1, 2, 5),
                        (2, 3, 5),
                        (3, 4, 5),
                        (0, 5, 1),
                        (5, 4, 1),
                        (0, 6, 2),
                        (6, 4, 9),
                        (0, 7, 1),
                        (7, 4, 1),
                    ],
                ),
                removed: 6,
                reduced_entries: 2 * 2,
                pinned: &[(2, 6, 12)],
            },
            Case {
                name: "no_degree_two",
                g: CsrGraph::from_edges(
                    4,
                    &[
                        (0, 1, 1),
                        (0, 2, 2),
                        (0, 3, 3),
                        (1, 2, 4),
                        (1, 3, 5),
                        (2, 3, 6),
                    ],
                ),
                removed: 0,
                reduced_entries: 4 * 4,
                pinned: &[],
            },
            Case {
                // Two triangles: two pure-cycle blocks.
                name: "disconnected",
                g: CsrGraph::from_edges(
                    6,
                    &[
                        (0, 1, 1),
                        (1, 2, 1),
                        (2, 0, 1),
                        (3, 4, 2),
                        (4, 5, 2),
                        (5, 3, 2),
                    ],
                ),
                removed: 4,
                reduced_entries: 1 + 1,
                pinned: &[(0, 3, INF), (4, 3, 2)],
            },
            Case {
                // Hub triangle with a dangling path 2-3-4-5: the triangle is
                // a pure-cycle block, the path three bridge blocks whose
                // vertices 2, 3, 4 are the articulation points.
                name: "pendant_chains",
                g: CsrGraph::from_edges(
                    6,
                    &[
                        (0, 1, 1),
                        (1, 2, 1),
                        (2, 0, 1),
                        (2, 3, 2),
                        (3, 4, 3),
                        (4, 5, 4),
                    ],
                ),
                removed: 2,
                reduced_entries: 3 * 3 + 1 + 3 * 2 * 2,
                pinned: &[(0, 5, 10)],
            },
            Case {
                // Chain 0-1-2-3 between anchors 0, 3 with cheap bypasses:
                // d(1,2) must take the direct segment (10), not 1-0-3-2 (21).
                name: "same_chain_shortcut",
                g: CsrGraph::from_edges(
                    6,
                    &[
                        (0, 1, 10),
                        (1, 2, 10),
                        (2, 3, 10),
                        (0, 3, 1),
                        (0, 4, 1),
                        (3, 4, 1),
                        (0, 5, 1),
                        (3, 5, 1),
                    ],
                ),
                removed: 4,
                reduced_entries: 2 * 2,
                pinned: &[(1, 2, 10)],
            },
            Case {
                // Heavy middle edge: direct 1-2 costs 100, around
                // 1-0 (10) + 0-3 (2) + 3-2 (10) costs 22.
                name: "around_beats_direct",
                g: CsrGraph::from_edges(
                    5,
                    &[
                        (0, 1, 10),
                        (1, 2, 100),
                        (2, 3, 10),
                        (0, 3, 2),
                        (0, 4, 1),
                        (3, 4, 1),
                    ],
                ),
                removed: 3,
                reduced_entries: 2 * 2,
                pinned: &[(1, 2, 22)],
            },
            Case {
                // Triangle and square sharing vertex 2.
                name: "executor_variants",
                g: CsrGraph::from_edges(
                    6,
                    &[
                        (0, 1, 3),
                        (1, 2, 4),
                        (2, 0, 5),
                        (2, 3, 1),
                        (3, 4, 2),
                        (4, 5, 6),
                        (5, 2, 7),
                    ],
                ),
                removed: 2 + 3,
                reduced_entries: 1 + 1 + 1,
                pinned: &[(0, 4, 8)],
            },
            Case {
                // A ring of 21: the reduced graph is one self-looped vertex.
                name: "phase2_work_reduction",
                g: CsrGraph::from_edges(21, &ring(21)),
                removed: 20,
                reduced_entries: 1,
                pinned: &[(0, 10, 10), (3, 19, 5)],
            },
        ]
    }

    #[test]
    fn extension_cases_match_floyd_warshall_at_every_method() {
        for c in extension_cases() {
            let [ear, plain, reduced] = check_methods(&c.g);
            for o in [&ear, &plain, &reduced] {
                for &(u, v, d) in c.pinned {
                    assert_eq!(o.dist(u, v), d, "{} {:?} d({u},{v})", c.name, o.method());
                }
            }
            assert_eq!(ear.stats().removed_vertices, c.removed, "{}", c.name);
            assert_eq!(reduced.stats().removed_vertices, c.removed, "{}", c.name);
            assert_eq!(plain.stats().removed_vertices, 0, "{}", c.name);
            assert_eq!(
                reduced.stats().table_entries,
                c.reduced_entries,
                "{}",
                c.name
            );
            assert_eq!(ear.stats().table_entries, plain.stats().table_entries);
        }
    }

    #[test]
    fn reduced_phase2_does_far_less_work_than_plain() {
        let c = extension_cases().pop().unwrap();
        assert_eq!(c.name, "phase2_work_reduction");
        let [_, plain, reduced] = check_methods(&c.g);
        let r_relax = reduced.processing.total_counters().edges_relaxed;
        let p_relax = plain.processing.total_counters().edges_relaxed;
        assert!(
            r_relax < p_relax / 10,
            "reduced {r_relax} vs plain {p_relax}"
        );
    }

    #[test]
    fn saturated_chain_matches_dijkstra_at_every_method() {
        let b = INF / 2 + 5;
        // The chain 0-1-2 weighs 2b ≥ INF, so its total saturates; each
        // half is below INF and must still be read exactly.
        let halves =
            CsrGraph::from_edges(4, &[(0, 1, b), (1, 2, b), (0, 2, 7), (0, 3, 1), (3, 2, 1)]);
        // The chain 0-1-2-3-4-5 saturates from vertex 2 on, so every
        // prefix and suffix of 2, 3 and 4 is INF; the same-chain distances
        // between them (d(2,3) = 1, d(2,4) = b + 1) must still be exact.
        let prefixes = CsrGraph::from_edges(
            7,
            &[
                (0, 1, b),
                (1, 2, b),
                (2, 3, 1),
                (3, 4, b),
                (4, 5, b),
                (0, 6, 1),
                (6, 5, 1),
                (0, 5, 3),
            ],
        );
        for g in [halves, prefixes] {
            for method in METHODS {
                let o = build_oracle(&g, &HeteroExecutor::sequential(), method);
                for u in 0..g.n() as u32 {
                    let want = ear_graph::dijkstra(&g, u);
                    let got: Vec<Weight> = (0..g.n() as u32).map(|v| o.dist(u, v)).collect();
                    assert_eq!(got, want, "{method:?} from {u}");
                }
            }
        }
    }

    #[test]
    fn memory_stats_beat_flat_table_on_blocky_graphs() {
        let g = mixed_graph();
        for o in check_methods(&g) {
            assert!(o.stats().table_entries < o.stats().max_entries);
            assert!(o.stats().memory_bytes_f32() < o.stats().max_memory_bytes_f32());
        }
    }

    #[test]
    fn chain_heavy_block_saves_memory_at_reduced() {
        // A ring of 40 with two chords: most vertices are degree-2.
        let mut edges: Vec<(u32, u32, u64)> = (0..40).map(|i| (i, (i + 1) % 40, 2)).collect();
        edges.push((0, 20, 3));
        edges.push((10, 30, 3));
        let g = CsrGraph::from_edges(40, &edges);
        let [ear, _, reduced] = check_methods(&g);
        assert!(reduced.stats().table_entries * 10 < ear.stats().table_entries);
    }

    #[test]
    fn articulation_point_inside_a_chain() {
        // Two pure cycles sharing vertex 0: within each block, vertex 0 has
        // degree 2 and may be contracted away — queries must still route
        // through it correctly.
        let g = CsrGraph::from_edges(
            7,
            &[
                (0, 1, 1),
                (1, 2, 2),
                (2, 3, 3),
                (3, 0, 4),
                (0, 4, 5),
                (4, 5, 6),
                (5, 6, 7),
                (6, 0, 8),
            ],
        );
        check_methods(&g);
    }

    #[test]
    fn biconnected_graph_is_one_block() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 5)]);
        for o in check_methods(&g) {
            assert_eq!(o.stats().n_bccs, 1);
            assert_eq!(o.stats().articulation_points, 0);
        }
    }

    #[test]
    fn disconnected_components_are_inf_apart() {
        let g = CsrGraph::from_edges(6, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1), (4, 5, 2)]);
        // Triangles 0-1-2 and 2-3-4 (AP 2) apart from the bridge path
        // 5-6-7-8 into triangle 8-9-10 (APs 6, 7, 8): APs in both trees.
        let forest = CsrGraph::from_edges(
            11,
            &[
                (0, 1, 1),
                (1, 2, 2),
                (2, 0, 3),
                (2, 3, 1),
                (3, 4, 2),
                (4, 2, 3),
                (5, 6, 4),
                (6, 7, 5),
                (7, 8, 6),
                (8, 9, 1),
                (9, 10, 1),
                (10, 8, 1),
            ],
        );
        for g in [g, forest] {
            for o in check_methods(&g) {
                assert_eq!(o.dist(0, 5), INF);
                assert_eq!(o.dist(0, 0), 0);
            }
        }
    }

    #[test]
    fn isolated_vertices() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 7)]);
        for o in check_methods(&g) {
            assert_eq!(o.dist(2, 3), INF);
            assert_eq!(o.dist(2, 2), 0);
            assert_eq!(o.dist(0, 1), 7);
        }
    }

    #[test]
    fn long_bridge_chain_between_blocks() {
        // Two triangles joined by a path of bridges; every interior path
        // vertex is an articulation point.
        let g = CsrGraph::from_edges(
            9,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (2, 3, 2),
                (3, 4, 2),
                (4, 5, 2),
                (5, 6, 1),
                (6, 7, 1),
                (7, 5, 1),
                (0, 8, 4),
            ],
        );
        check_methods(&g);
    }

    /// `k` triangles; triangle `i` is `(2i, 2i+1, 2i+2)` when `chained`
    /// (consecutive triangles share an AP), else `(0, 2i+1, 2i+2)` (all
    /// share vertex 0).
    fn triangles(k: u32, chained: bool) -> CsrGraph {
        let mut edges = Vec::new();
        for i in 0..k {
            let (a, b, c) = (if chained { 2 * i } else { 0 }, 2 * i + 1, 2 * i + 2);
            let w = u64::from(i % 5);
            edges.extend([(a, b, 1 + w), (b, c, 2 + w), (c, a, 4 - w % 3)]);
        }
        CsrGraph::from_edges(2 * k as usize + 1, &edges)
    }

    #[test]
    fn deep_chain_of_triangles() {
        // 39 APs on one tree path 40 blocks long.
        for o in check_methods(&triangles(40, true)) {
            assert_eq!(o.stats().articulation_points, 39);
            assert_eq!(o.stats().n_bccs, 40);
        }
    }

    #[test]
    fn star_of_triangles() {
        // Hub vertex shared by twenty triangles: one AP, twenty blocks.
        for o in check_methods(&triangles(20, false)) {
            assert_eq!(o.stats().articulation_points, 1);
            assert_eq!(o.stats().n_bccs, 20);
        }
    }

    #[test]
    fn materialize_matches_queries() {
        let g = mixed_graph();
        for o in check_methods(&g) {
            let m = o.materialize();
            assert!(m.is_symmetric());
            assert_eq!(m.get(0, 7), o.dist(0, 7));
        }
    }

    #[test]
    fn path_reconstruction_is_tight() {
        let g = mixed_graph();
        for o in check_methods(&g) {
            for u in 0..g.n() as u32 {
                for v in 0..g.n() as u32 {
                    let p = o.path(&g, u, v).unwrap();
                    assert_eq!(p[0], u);
                    assert_eq!(*p.last().unwrap(), v);
                    // Sum the walked edges.
                    let mut total = 0;
                    for w in p.windows(2) {
                        let best = g
                            .neighbors(w[0])
                            .iter()
                            .filter(|&&(y, _)| y == w[1])
                            .map(|&(_, e)| g.weight(e))
                            .min()
                            .expect("consecutive path vertices must be adjacent");
                        total += best;
                    }
                    assert_eq!(total, o.dist(u, v), "{:?} path ({u},{v})", o.method());
                }
            }
        }
    }

    #[test]
    fn path_is_none_across_components() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (2, 3, 1)]);
        for o in check_methods(&g) {
            assert!(o.path(&g, 0, 2).is_none());
            assert_eq!(o.path(&g, 0, 0), Some(vec![0]));
        }
    }

    #[test]
    fn recustomized_oracle_matches_cold_build() {
        let g = mixed_graph();
        let exec = HeteroExecutor::sequential();
        let plan = Arc::new(DecompPlan::build(&g));
        for method in METHODS {
            let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, method);
            let mut w: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
            w[0] = 50; // triangle block
            w[4] = 7; // square block
            let warm_plan = Arc::new(plan.recustomized(&w));
            let warm = oracle.recustomized(Arc::clone(&warm_plan), &exec);
            let cold = build_oracle(&g.reweighted(&w), &exec, method);
            assert_eq!(warm.materialize(), cold.materialize());
            assert_eq!(warm.stats(), cold.stats());
            assert_eq!(warm.method(), method);
            // The refresh only reran the dirty blocks.
            let side = |bp: &BlockPlan| table_side(method, bp);
            let mut scratch = Arc::new(DistArena::new(&warm_plan, side));
            let dirty = warm_plan.dirty_blocks();
            let rep = compute_block_tables(&warm_plan, &exec, method, dirty, &mut scratch);
            assert_eq!(warm.processing.total_units(), rep.total_units());
        }
    }

    #[test]
    fn noop_refresh_shares_every_table() {
        let g = mixed_graph();
        let exec = HeteroExecutor::sequential();
        let plan = Arc::new(DecompPlan::build(&g));
        for method in METHODS {
            let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, method);
            let mut w: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
            let warm = oracle.recustomized(Arc::new(plan.recustomized(&w)), &exec);
            assert!(Arc::ptr_eq(oracle.tables(), warm.tables()));
            assert_eq!(warm.processing.total_units(), 0);

            // A dirty refresh rewrites its own arena; clean spans are
            // byte-identical copies of the parent's.
            w[0] = 50; // triangle block only
            let warm_plan = Arc::new(plan.recustomized(&w));
            let dirty = warm_plan.dirty_blocks().to_vec();
            let warm = oracle.recustomized(warm_plan, &exec);
            assert!(!Arc::ptr_eq(oracle.tables(), warm.tables()));
            for b in (0..plan.n_blocks() as u32).filter(|b| !dirty.contains(b)) {
                let (old, new) = (oracle.tables().block_span(b), warm.tables().block_span(b));
                assert_eq!(old, new, "{method:?} clean block {b}");
            }
        }
    }

    #[test]
    fn one_dirty_block_reruns_alone_and_rebuilds_the_cold_ap_span() {
        let g = mixed_graph();
        let exec = HeteroExecutor::sequential();
        let plan = Arc::new(DecompPlan::build(&g));
        for method in METHODS {
            let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, method);
            let mut w: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
            w[0] = 50; // dirties the triangle block only
            let warm_plan = Arc::new(plan.recustomized(&w));
            let dirty = warm_plan.dirty_blocks().to_vec();
            assert_eq!(dirty.len(), 1);
            let warm = oracle.recustomized(warm_plan, &exec);
            // The rebuilt AP table matches a cold one bit-for-bit.
            let cold = build_oracle(&g.reweighted(&w), &exec, method);
            assert_eq!(warm.tables().ap_span(), cold.tables().ap_span());
            // The phase-II units are the dirty block's sources only.
            let sources = table_side(method, plan.block(dirty[0]));
            assert_eq!(warm.processing.total_units() > 0, sources > 0);
        }
    }

    #[test]
    #[should_panic(expected = "sharing this oracle's topology")]
    fn refresh_rejects_foreign_plan() {
        let g = mixed_graph();
        let exec = HeteroExecutor::sequential();
        let oracle = build_oracle(&g, &exec, ApspMethod::Ear);
        let foreign = Arc::new(DecompPlan::build(&g));
        let _ = oracle.recustomized(foreign, &exec);
    }

    #[test]
    fn ear_phase2_does_less_work_than_plain() {
        // A graph rich in degree-2 chains.
        let mut edges = Vec::new();
        // ring of 30 with two hubs
        for i in 0..30u32 {
            edges.push((i, (i + 1) % 30, 1u64));
        }
        edges.push((0, 15, 1));
        edges.push((5, 20, 1));
        let g = CsrGraph::from_edges(30, &edges);
        let [ear, plain, reduced] = check_methods(&g);
        let e_relax = ear.processing.total_counters().edges_relaxed;
        let p_relax = plain.processing.total_counters().edges_relaxed;
        assert!(e_relax < p_relax, "ear {e_relax} vs plain {p_relax}");
        // Reduced runs Ear's phase II and skips its phase III.
        let r = reduced.processing.total_counters();
        assert_eq!(r.edges_relaxed, e_relax);
        assert_eq!(r.distances_combined, 0);
        assert!(ear.processing.total_counters().distances_combined > 0);
    }
}
