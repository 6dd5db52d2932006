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
//!   articulation points, computed by Dijkstra over the *AP graph* (APs
//!   connected within each block by within-block distances);
//! * a query `d(u,v)` across blocks resolves its gateway articulation
//!   points with block-cut-tree LCA routing and sums
//!   `d(u,a₁) + A[a₁,a₂] + d(a₂,v)`.
//!
//! Storage is `O(a² + Σᵢ nᵢ²)` instead of `O(n²)` — the paper's Table 1
//! "Our's Memory" vs "Max Memory" columns, reproduced by [`OracleStats`].
//! All of it lives in one [`DistArena`]: the build writes every table
//! straight into its span, and the [`crate::QueryEngine`] serving the
//! oracle reads the same allocation through a shared [`Arc`].

use std::sync::Arc;

use ear_decomp::block_cut::{BlockCutTree, Route};
use ear_decomp::plan::DecompPlan;
use ear_graph::{dist_add, with_engine, CsrGraph, CsrView, VertexId, Weight, INF};
use ear_hetero::{ExecutionReport, HeteroExecutor, RunOutput, WorkCounters};

use crate::arena::DistArena;
use crate::matrix::DistMatrix;

/// How each biconnected component is solved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApspMethod {
    /// The paper's approach: ear-decomposition reduction first.
    Ear,
    /// The Banerjee et al. baseline: plain all-sources Dijkstra per block.
    Plain,
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
    /// Stored table entries: `a² + Σ nᵢ²`.
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

/// One block's AP-pair edge list `(ap_i, ap_j, d)` feeding the AP-graph
/// Dijkstra, `Arc`-shared between an oracle and its warm refreshes.
pub(crate) type ApSegment = Arc<Vec<(u32, u32, Weight)>>;

/// The queryable distance oracle.
///
/// Every table sits in one [`DistArena`] behind an [`Arc`]: a no-op
/// [`DistanceOracle::recustomized`] refresh shares it outright, a dirty
/// one clones it and rewrites only what changed, and
/// [`crate::QueryEngine`] serves straight out of it.
#[derive(Debug)]
pub struct DistanceOracle {
    plan: Arc<DecompPlan>,
    method: ApspMethod,
    tables: Arc<DistArena>,
    /// Per-block AP-pair edge lists feeding the AP-graph Dijkstra, cached
    /// so a refresh recollects only dirty blocks' segments.
    ap_segments: Vec<ApSegment>,
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
        self.method
    }

    /// The decomposition plan this oracle was built from (shareable with
    /// other pipelines via [`Arc::clone`]).
    pub fn plan(&self) -> &Arc<DecompPlan> {
        &self.plan
    }

    /// Block-cut tree access.
    pub fn block_cut_tree(&self) -> &BlockCutTree {
        self.plan.bct()
    }

    /// Total modelled device time across all build phases.
    pub fn modelled_time_s(&self) -> f64 {
        self.processing.makespan_s + self.ap_phase.makespan_s
    }

    /// Shortest-path distance between any two vertices (`INF` when
    /// disconnected).
    pub fn dist(&self, u: VertexId, v: VertexId) -> Weight {
        if u == v {
            return 0;
        }
        match self.plan.bct().route(u, v) {
            Route::Disconnected => INF,
            Route::SameBlock(b) => self.block_dist(b, u, v),
            Route::ViaAps { a1, a2 } => {
                let d1 = if a1 == u {
                    0
                } else {
                    self.block_dist(self.common_block(u, a1), u, a1)
                };
                let d2 = if a2 == v {
                    0
                } else {
                    self.block_dist(self.common_block(v, a2), v, a2)
                };
                let mid = self.ap_dist(a1, a2);
                dist_add(d1, dist_add(mid, d2))
            }
        }
    }

    /// The oracle's distance store (AP table and every block table),
    /// shared with the [`crate::QueryEngine`]s serving it.
    pub fn tables(&self) -> &Arc<DistArena> {
        &self.tables
    }

    /// Distance between two articulation points from the `a × a` table.
    pub fn ap_dist(&self, a1: VertexId, a2: VertexId) -> Weight {
        let bct = self.plan.bct();
        let i = bct.ap_index[a1 as usize];
        let j = bct.ap_index[a2 as usize];
        debug_assert!(i != u32::MAX && j != u32::MAX);
        self.tables.ap_row(i)[j as usize]
    }

    /// Reconstructs an actual shortest path `u → v` as a vertex sequence
    /// (inclusive of both endpoints), or `None` when disconnected.
    ///
    /// This is the **legacy baseline** realization: greedy descent on the
    /// distance function — from `x`, some neighbor `y` always satisfies
    /// `w(x,y) + d(y,v) = d(x,v)` (ties break to the smallest edge id, so
    /// the path is deterministic) — with every `d(·,v)` answered by a full
    /// [`Self::dist`] query, i.e. an LCA route plus table reads per
    /// incident edge per hop. [`crate::QueryEngine::path`] walks the same
    /// descent over precomputed gateway records and the same arena
    /// (bit-identical output, the differential suite holds it to that) and
    /// is the realization servers should call.
    pub fn path(&self, g: &CsrGraph, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
        if self.dist(u, v) >= INF {
            return None;
        }
        let mut path = vec![u];
        let mut x = u;
        let mut guard = g.n() + 1;
        while x != v {
            let dx = self.dist(x, v);
            let mut next: Option<(VertexId, ear_graph::EdgeId)> = None;
            for &(y, e) in g.neighbors(x) {
                if y == x {
                    continue;
                }
                if dist_add(g.weight(e), self.dist(y, v)) == dx && next.is_none_or(|(_, be)| e < be)
                {
                    next = Some((y, e));
                }
            }
            let (y, _) = next.expect("finite distance must have a tight edge");
            path.push(y);
            x = y;
            guard -= 1;
            assert!(guard > 0, "path reconstruction looped");
        }
        Some(path)
    }

    /// Materialises the full `n × n` matrix (tests / small graphs only).
    pub fn materialize(&self) -> DistMatrix {
        let n = self.stats.n;
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
    /// phases II and III run on exactly those blocks — into a clone of
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
        assert!(
            self.plan.shares_topology(&plan),
            "recustomized requires a plan sharing this oracle's topology \
             (build it with DecompPlan::recustomized)"
        );
        let dirty = plan.dirty_blocks_since(&self.plan);
        let _span = ear_obs::span_with("apsp.refresh", dirty.len() as u64);

        let mut tables = Arc::clone(&self.tables);
        let processing = compute_block_tables(&plan, exec, self.method, &dirty, &mut tables);

        // Only dirty blocks' AP-pair segments need recollecting; clean
        // blocks' within-block AP distances are unchanged by construction.
        let mut ap_segments = self.ap_segments.clone();
        for &b in &dirty {
            ap_segments[b as usize] = Arc::new(ap_segment(&plan, b, &tables));
        }

        let ap_phase = if dirty.is_empty() {
            processing.clone()
        } else {
            compute_ap_table(&plan, exec, &ap_segments, Arc::make_mut(&mut tables))
        };

        if ear_obs::is_enabled() {
            ear_obs::counter_add("apsp.refreshes", 1);
            ear_obs::counter_add("apsp.refresh.dirty_blocks", dirty.len() as u64);
        }

        DistanceOracle {
            plan,
            method: self.method,
            tables,
            ap_segments,
            stats: self.stats.clone(),
            processing,
            ap_phase,
        }
    }

    fn block_dist(&self, block: u32, u: VertexId, v: VertexId) -> Weight {
        let (Some(lu), Some(lv)) = (self.plan.local(block, u), self.plan.local(block, v)) else {
            return INF;
        };
        self.tables.block(block, lu, lv)
    }

    /// A block containing both `x` (any vertex) and articulation point `a`.
    /// For the routing results this always exists: `a` is the gateway of
    /// `x`'s own block.
    fn common_block(&self, x: VertexId, a: VertexId) -> u32 {
        let b = self.plan.bct().vertex_block[x as usize];
        debug_assert_ne!(b, u32::MAX);
        if self.plan.local(b, a).is_some() {
            return b;
        }
        // `x` is itself an articulation point whose stored block does not
        // contain `a`: scan x's own adjacent blocks (the precomputed
        // AP→blocks index) for one holding `a` — O(deg(x)) instead of the
        // old O(n_blocks) all-blocks fallback.
        self.plan
            .bct()
            .blocks_of_ap(x)
            .iter()
            .copied()
            .find(|&blk| self.plan.local(blk, a).is_some())
            .expect("routing produced a non-adjacent gateway")
    }
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

/// One Phase-II / AP-phase workunit: the distance row of source `s` in
/// `target`, from one run of the worker thread's pooled
/// [`SsspEngine`](ear_graph::SsspEngine), plus its work counters.
pub(crate) fn sssp_row(target: CsrView<'_>, s: u32) -> (Vec<Weight>, WorkCounters) {
    with_engine(|eng| {
        let stats = eng.run_view(target, s);
        let counters = WorkCounters {
            edges_relaxed: stats.edges_relaxed,
            vertices_settled: stats.settled,
            ..WorkCounters::default()
        };
        (eng.dist_vec(), counters)
    })
}

/// Builds the oracle from a prebuilt [`DecompPlan`], skipping the BCC
/// split, block extraction and per-block reduction entirely.
///
/// The plan can be shared (`Arc::clone`) with the MCB pipeline,
/// [`crate::ReducedOracle`] and statistics over the same graph — a
/// server-style caller pays the decomposition once per graph, not once per
/// workload. In `Plain` mode the plan's reductions are simply ignored (and
/// [`OracleStats::removed_vertices`] reports zero), so one plan serves both
/// methods.
pub fn build_oracle_with_plan(
    plan: Arc<DecompPlan>,
    exec: &HeteroExecutor,
    method: ApspMethod,
) -> DistanceOracle {
    let nb = plan.n_blocks();
    let _build_span = ear_obs::span_with("apsp.build", plan.n() as u64);

    let all: Vec<u32> = (0..nb as u32).collect();
    let mut tables = Arc::new(DistArena::new(&plan));
    let processing = compute_block_tables(&plan, exec, method, &all, &mut tables);

    let ap_segments: Vec<ApSegment> = (0..nb as u32)
        .map(|b| Arc::new(ap_segment(&plan, b, &tables)))
        .collect();
    let ap_phase = compute_ap_table(&plan, exec, &ap_segments, Arc::make_mut(&mut tables));

    // Statistics.
    let a = plan.bct().ap_count();
    let removed = match method {
        ApspMethod::Ear => plan.removed_vertices(),
        ApspMethod::Plain => 0,
    };
    let table_entries = tables.entries() as u64;
    let stats = OracleStats {
        n: plan.n(),
        m: plan.m(),
        n_bccs: nb,
        largest_bcc_edge_share: if plan.m() == 0 {
            0.0
        } else {
            plan.largest_block_edges() as f64 / plan.m() as f64
        },
        removed_vertices: removed,
        articulation_points: a,
        table_entries,
        max_entries: (plan.n() as u64).pow(2),
    };
    if ear_obs::is_enabled() {
        ear_obs::counter_add("apsp.oracles", 1);
        ear_obs::counter_add("apsp.table_entries", table_entries);
        ear_obs::counter_add("apsp.removed_vertices", removed as u64);
    }

    DistanceOracle {
        plan,
        method,
        tables,
        ap_segments,
        stats,
        processing,
        ap_phase,
    }
}

/// Phases II + III for the given `blocks` only: per-block (reduced)
/// all-sources SSSP, then — in `Ear` mode — the §2.1.3 extension to the
/// full block, whose rows land straight in the blocks' spans of `tables`
/// (cloned first when shared: a refresh's clone-and-rewrite). Returns the
/// merged executor report. The cold build passes every block; an
/// incremental refresh passes just the dirty ones.
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
        ApspMethod::Ear => plan.reduction(b),
        ApspMethod::Plain => None,
    };

    // Phase II: workunits are (block, source) pairs.
    let phase2_span = ear_obs::span("apsp.phase2");
    let units: Vec<(u32, u32)> = blocks
        .iter()
        .flat_map(|&b| {
            let srcs = match red(b) {
                Some(r) => r.reduced.n(),
                None => plan.block(b).n(),
            };
            (0..srcs as u32).map(move |s| (b, s))
        })
        .collect();
    let RunOutput {
        results: rows,
        report: phase2,
    } = exec.run(
        units.clone(),
        |&(b, _)| match red(b) {
            Some(r) => r.reduced.m() as u64 + 1,
            None => plan.block(b).m() as u64 + 1,
        },
        |&(b, s)| {
            let target = match red(b) {
                Some(r) => r.reduced.view(),
                None => plan.block_graph(b),
            };
            // Pooled engines: per-source scratch is reused across
            // workunits handled by the same worker thread.
            sssp_row(target, s)
        },
    );
    drop(phase2_span);

    // Phase III (Ear only): extend each block's reduced matrix to the whole
    // block; workunits are (block, vertex) rows. Plain mode's phase-II rows
    // already are the block tables.
    let phase3_span = ear_obs::span("apsp.phase3");
    let (units, rows, phase3) = match method {
        ApspMethod::Plain => (units, rows, None),
        ApspMethod::Ear => {
            // Transient per-block reduced (or full) matrices, by position
            // in `blocks`.
            let mut pos = vec![usize::MAX; plan.n_blocks()];
            for (i, &b) in blocks.iter().enumerate() {
                pos[b as usize] = i;
            }
            let mut srs: Vec<DistMatrix> = blocks
                .iter()
                .map(|&b| DistMatrix::new(red(b).map_or(plan.block(b).n(), |r| r.reduced.n())))
                .collect();
            for ((b, s), row) in units.into_iter().zip(rows) {
                srs[pos[b as usize]].row_mut(s).copy_from_slice(&row);
            }
            let units: Vec<(u32, u32)> = blocks
                .iter()
                .flat_map(|&b| (0..plan.block(b).n() as u32).map(move |x| (b, x)))
                .collect();
            let RunOutput {
                results: rows,
                report,
            } = exec.run(
                units.clone(),
                |&(b, _)| plan.block(b).n() as u64,
                |&(b, x)| match red(b) {
                    Some(r) => {
                        crate::ear::extend_row(plan.block(b).n(), r, &srs[pos[b as usize]], x)
                    }
                    // Non-simple block processed plainly: its reduced matrix
                    // is already the full per-block table.
                    None => (srs[pos[b as usize]].row(x).to_vec(), Default::default()),
                },
            );
            (units, rows, Some(report))
        }
    };
    if !units.is_empty() {
        let arena = Arc::make_mut(tables);
        for ((b, x), row) in units.into_iter().zip(rows) {
            arena.block_row_mut(b, x).copy_from_slice(&row);
        }
    }
    drop(phase3_span);

    match phase3 {
        Some(p3) => merge_reports(phase2, p3),
        None => phase2,
    }
}

/// Block `b`'s contribution to the AP graph: one `(ap_index, ap_index,
/// within-block distance)` edge per finite AP pair of the block, in the
/// deterministic `i < j` order the cold build has always used.
fn ap_segment(plan: &DecompPlan, b: u32, tables: &DistArena) -> Vec<(u32, u32, Weight)> {
    let bct = plan.bct();
    let aps = &bct.block_aps[b as usize];
    let mut seg = Vec::new();
    for i in 0..aps.len() {
        for j in i + 1..aps.len() {
            let (li, lj) = (
                plan.local(b, aps[i]).unwrap(),
                plan.local(b, aps[j]).unwrap(),
            );
            let w = tables.block(b, li, lj);
            if w < INF {
                seg.push((
                    bct.ap_index[aps[i] as usize],
                    bct.ap_index[aps[j] as usize],
                    w,
                ));
            }
        }
    }
    seg
}

/// Stage 2 post-processing: the AP graph (APs connected within each block
/// by within-block distances) and its all-sources Dijkstra, written into
/// the AP span of `tables`. Consumes prebuilt per-block edge segments — a
/// refresh recomputes only dirty blocks' segments and reuses the rest, so
/// the O(Σ aᵢ²) recollection no longer reruns in full on every
/// recustomization. Concatenation in block id order keeps the AP graph's
/// edge ids (and thus the Dijkstra results) bit-identical to a cold build.
fn compute_ap_table(
    plan: &Arc<DecompPlan>,
    exec: &HeteroExecutor,
    segments: &[ApSegment],
    tables: &mut DistArena,
) -> ExecutionReport {
    let _ap_span = ear_obs::span("apsp.ap_table");
    let a = plan.bct().ap_count();
    let ap_edges: Vec<(u32, u32, Weight)> = segments
        .iter()
        .flat_map(|seg| seg.iter().copied())
        .collect();
    let ap_graph = CsrGraph::from_edges(a, &ap_edges);
    let RunOutput {
        results: ap_rows,
        report: ap_phase,
    } = exec.run(
        (0..a as u32).collect(),
        |_| ap_graph.m() as u64 + 1,
        |&s| sssp_row(ap_graph.view(), s),
    );
    for (s, row) in ap_rows.into_iter().enumerate() {
        tables.ap_row_mut(s as u32).copy_from_slice(&row);
    }
    ap_phase
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

    fn check_both_methods(g: &CsrGraph) -> (DistanceOracle, DistanceOracle) {
        let exec = HeteroExecutor::sequential();
        let ear = build_oracle(g, &exec, ApspMethod::Ear);
        let plain = build_oracle(g, &exec, ApspMethod::Plain);
        let oracle = floyd_warshall(g);
        for u in 0..g.n() as u32 {
            for v in 0..g.n() as u32 {
                assert_eq!(ear.dist(u, v), oracle.get(u, v), "ear ({u},{v})");
                assert_eq!(plain.dist(u, v), oracle.get(u, v), "plain ({u},{v})");
            }
        }
        (ear, plain)
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
    fn mixed_graph_both_methods_match_oracle() {
        let g = mixed_graph();
        let (ear, plain) = check_both_methods(&g);
        assert_eq!(ear.stats().n_bccs, plain.stats().n_bccs);
        assert!(ear.stats().n_bccs >= 3);
        // The square 3-4-5-6 contains degree-2 vertices for ear to remove.
        assert!(ear.stats().removed_vertices > 0);
        assert_eq!(plain.stats().removed_vertices, 0);
    }

    #[test]
    fn memory_stats_beat_flat_table_on_blocky_graphs() {
        let g = mixed_graph();
        let (ear, _) = check_both_methods(&g);
        assert!(ear.stats().table_entries < ear.stats().max_entries);
        assert!(ear.stats().memory_bytes_f32() < ear.stats().max_memory_bytes_f32());
    }

    #[test]
    fn biconnected_graph_is_one_block() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 5)]);
        let (ear, _) = check_both_methods(&g);
        assert_eq!(ear.stats().n_bccs, 1);
        assert_eq!(ear.stats().articulation_points, 0);
    }

    #[test]
    fn disconnected_components_are_inf_apart() {
        let g = CsrGraph::from_edges(6, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1), (4, 5, 2)]);
        let (ear, _) = check_both_methods(&g);
        assert_eq!(ear.dist(0, 3), INF);
        assert_eq!(ear.dist(0, 0), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 7)]);
        let (ear, _) = check_both_methods(&g);
        assert_eq!(ear.dist(2, 3), INF);
        assert_eq!(ear.dist(2, 2), 0);
        assert_eq!(ear.dist(0, 1), 7);
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
        check_both_methods(&g);
    }

    #[test]
    fn star_of_triangles() {
        // Hub vertex shared by three triangles: one AP, three blocks.
        let g = CsrGraph::from_edges(
            7,
            &[
                (0, 1, 1),
                (1, 2, 2),
                (2, 0, 3),
                (0, 3, 1),
                (3, 4, 2),
                (4, 0, 3),
                (0, 5, 1),
                (5, 6, 2),
                (6, 0, 3),
            ],
        );
        let (ear, _) = check_both_methods(&g);
        assert_eq!(ear.stats().articulation_points, 1);
        assert_eq!(ear.stats().n_bccs, 3);
    }

    #[test]
    fn materialize_matches_queries() {
        let g = mixed_graph();
        let exec = HeteroExecutor::sequential();
        let o = build_oracle(&g, &exec, ApspMethod::Ear);
        let m = o.materialize();
        assert!(m.is_symmetric());
        assert_eq!(m.get(0, 7), o.dist(0, 7));
    }

    #[test]
    fn path_reconstruction_is_tight() {
        let g = mixed_graph();
        let exec = HeteroExecutor::sequential();
        let o = build_oracle(&g, &exec, ApspMethod::Ear);
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
                assert_eq!(total, o.dist(u, v), "path ({u},{v})");
            }
        }
    }

    #[test]
    fn path_is_none_across_components() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (2, 3, 1)]);
        let exec = HeteroExecutor::sequential();
        let o = build_oracle(&g, &exec, ApspMethod::Ear);
        assert!(o.path(&g, 0, 2).is_none());
        assert_eq!(o.path(&g, 0, 0), Some(vec![0]));
    }

    #[test]
    fn hetero_executor_matches_sequential() {
        let g = mixed_graph();
        let a = build_oracle(&g, &HeteroExecutor::sequential(), ApspMethod::Ear);
        let b = build_oracle(&g, &HeteroExecutor::cpu_gpu(), ApspMethod::Ear);
        assert_eq!(a.materialize(), b.materialize());
    }

    #[test]
    fn recustomized_oracle_matches_cold_build() {
        let g = mixed_graph();
        let exec = HeteroExecutor::sequential();
        let plan = Arc::new(DecompPlan::build(&g));
        for method in [ApspMethod::Ear, ApspMethod::Plain] {
            let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, method);
            let mut w: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
            w[0] = 50; // triangle block
            w[4] = 7; // square block
            let warm_plan = Arc::new(plan.recustomized(&w));
            let warm = oracle.recustomized(Arc::clone(&warm_plan), &exec);
            let cold = build_oracle(&g.reweighted(&w), &exec, method);
            assert_eq!(warm.materialize(), cold.materialize());
            assert_eq!(warm.stats(), cold.stats());
            // The refresh only reran the dirty blocks.
            let mut scratch = Arc::new(DistArena::new(&warm_plan));
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
        let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Ear);
        let mut w: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
        let warm = oracle.recustomized(Arc::new(plan.recustomized(&w)), &exec);
        assert!(Arc::ptr_eq(oracle.tables(), warm.tables()));
        for (a, b) in oracle.ap_segments.iter().zip(&warm.ap_segments) {
            assert!(Arc::ptr_eq(a, b));
        }
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
            assert_eq!(old, new, "clean block {b}");
        }
    }

    #[test]
    fn refresh_recollects_only_dirty_ap_segments() {
        let g = mixed_graph();
        let exec = HeteroExecutor::sequential();
        let plan = Arc::new(DecompPlan::build(&g));
        let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Ear);
        let mut w: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
        w[0] = 50; // dirties the triangle block only
        let warm_plan = Arc::new(plan.recustomized(&w));
        let dirty = warm_plan.dirty_blocks().to_vec();
        let warm = oracle.recustomized(warm_plan, &exec);
        for b in 0..plan.n_blocks() {
            let shared = Arc::ptr_eq(&oracle.ap_segments[b], &warm.ap_segments[b]);
            assert_eq!(shared, !dirty.contains(&(b as u32)), "block {b}");
        }
        // The rebuilt AP table still matches a cold one bit-for-bit.
        let cold = build_oracle(&g.reweighted(&w), &exec, ApspMethod::Ear);
        assert_eq!(warm.tables().ap_span(), cold.tables().ap_span());
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
        let exec = HeteroExecutor::sequential();
        let ear = build_oracle(&g, &exec, ApspMethod::Ear);
        let plain = build_oracle(&g, &exec, ApspMethod::Plain);
        let e_relax = ear.processing.total_counters().edges_relaxed;
        let p_relax = plain.processing.total_counters().edges_relaxed;
        assert!(e_relax < p_relax, "ear {e_relax} vs plain {p_relax}");
        check_both_methods(&g);
    }
}
