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
//! Phase II (per-block tables) runs one search per source of each block's
//! phase-II graph (`SsspEngine::run_reusing`), and each search keeps its
//! tentative distances in the table row it writes: a relaxation queues a
//! vertex only when it beats the row, a popped vertex whose row is
//! finished contributes `d ⊕ row_x` in one streaming min-plus pass
//! instead of being expanded, and a pop the row has since beaten is
//! skipped — so a search queues nothing a folded row reaches as cheaply.
//! Along any shortest path, the first vertex that is not expanded at its
//! true distance is folded at it or received it from a fold, and that
//! fold writes the path's end at its true distance, so the rows are
//! exact. A block's
//! sources run in descending degree order, ties broken by a hash of the
//! id, in rounds that double from 8 sources; round `r` is every block's
//! `r`-th batch, one executor run, and sees only the rows of earlier
//! rounds — so tables and work counters depend on the topology alone.
//! The Banerjee baseline ([`ApspMethod::Plain`]) reuses no rows, so it
//! stays one full Dijkstra per block vertex.
//!
//! The plan numbers every simple block retained first, and a block's span
//! at [`ApspMethod::Ear`] is its reduced square `S^r` followed by its
//! removed rows (each distance between a retained and a removed vertex is
//! stored once, in the removed row; see [`crate::arena`]). Phase II writes
//! retained source `s`'s reduced row straight into row `s` of the square,
//! and phase III (the §2.1.3 extension) writes the removed rows in one
//! executor run with one unit per chain: the chain's two anchors'
//! distances to every removed vertex are gathered from the square once,
//! and each of the chain's rows is the two-way minimum over the anchors'
//! square rows and the gathered distances, plus the chain's along-chain
//! fix. It reads one flat per-block table of removed vertices, built once
//! per build or refresh of the block; no full-width loop reads an
//! `Option`, a `u128` prefix or a `to_reduced` entry.
//!
//! Storage is `O(a² + Σᵢ nᵢ²)` instead of `O(n²)` — the paper's Table 1
//! "Our's Memory" vs "Max Memory" columns, reproduced by [`OracleStats`];
//! the arena holds `a² + Σᵢ (kᵢ² + (nᵢ − kᵢ)·nᵢ)` of those entries —
//! or `O(a² + Σᵢ (nᵢʳ)²)` at [`ApspMethod::Reduced`], which stores only
//! the phase-II tables and runs the §2.1.3 extension (the private `ear`
//! module) per query. All of it lives in one [`DistArena`]: the build
//! writes every table straight into its span, and the
//! [`crate::QueryEngine`] serving the oracle reads the same allocation
//! through a shared [`Arc`].

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use ear_decomp::block_cut::{BlockCutTree, Endpoint};
use ear_decomp::plan::DecompPlan;
use ear_graph::rng::splitmix64;
use ear_graph::{
    dist_add, with_engine, CsrGraph, CsrView, DistEntry, QueuedView, VertexId, Weight, INF,
};
use ear_hetero::{ExecutionReport, HeteroExecutor, WorkCounters};

use crate::arena::{entry_bytes, paper_entries, BlockSpanMut, DistArena, Rows, Tables, Width};
use crate::ear::{block_pair_dist, chain_rows, removed_table};
use crate::matrix::DistMatrix;

/// How each biconnected component is solved and stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApspMethod {
    /// The paper's approach: ear-decomposition reduction first, then the
    /// §2.1.3 extension materialised into every block's `nᵢ × nᵢ`
    /// distances, each retained–removed pair stored once.
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
    /// The paper's count of table entries (§2.3): `a² + Σ nᵢ²`
    /// (`a² + Σ (nᵢʳ)²` at [`ApspMethod::Reduced`]). The arena stores
    /// fewer at [`ApspMethod::Ear`] ([`crate::stored_entries`]).
    pub table_entries: u64,
    /// Bytes the arena holds: its [`crate::stored_entries`] at the stored
    /// width, which [`entry_bytes`] picks from `distance_bound` — 2, 4 or
    /// 8 bytes an entry. The paper's 4-byte accounting of
    /// `table_entries` is [`OracleStats::memory_bytes_f32`].
    pub table_bytes: u64,
    /// The bound on every stored distance that picked the width
    /// ([`DecompPlan::distance_bound`]).
    pub distance_bound: Weight,
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

/// The tables of one customization under one [`ApspMethod`]: the build,
/// refresh and routing machinery behind [`DistanceOracle`].
#[derive(Debug)]
struct Store {
    plan: Arc<DecompPlan>,
    method: ApspMethod,
    tables: Tables,
    /// `plan`'s [`DecompPlan::distance_bound`], which picked the width.
    bound: Weight,
}

impl Store {
    /// Cold build: every block's table and the AP table, at the width
    /// [`entry_bytes`] gives `bound`, `plan`'s
    /// [`DecompPlan::distance_bound`]. Every block, reduced-block and
    /// AP-table entry is a distance of the graph, so each narrows exactly.
    /// Returns the executor reports of phases II + III and of the AP
    /// table.
    fn build(
        plan: Arc<DecompPlan>,
        exec: &HeteroExecutor,
        method: ApspMethod,
        bound: Weight,
    ) -> (Store, ExecutionReport, ExecutionReport) {
        match entry_bytes(bound) {
            2 => Store::write::<u16>(plan, exec, method, bound, None),
            4 => Store::write::<u32>(plan, exec, method, bound, None),
            _ => Store::write::<u64>(plan, exec, method, bound, None),
        }
    }

    /// Incremental refresh for a recustomized `plan`: a child of the
    /// parent arena holding the clean blocks' spans, with the spans of the
    /// blocks whose weights differ between the two plans (see
    /// [`DecompPlan::dirty_blocks_since`]) and the AP span rewritten. When
    /// `plan`'s distance bound gives another width (either way), the
    /// tables are rebuilt cold at the new width. Bit-identical to a cold
    /// [`Store::build`] on `plan`; a no-op refresh shares the whole arena.
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
        if ear_obs::is_enabled() {
            ear_obs::counter_add(refreshes, 1);
            ear_obs::counter_add(dirty_blocks, dirty.len() as u64);
        }
        let method = self.method;
        // Equal weights: nothing to recompute, every table shared.
        if dirty.is_empty() {
            let processing = compute_block_tables::<Weight>(&plan, exec, method, Vec::new());
            let store = Store {
                plan,
                method,
                tables: self.tables.clone(),
                bound: self.bound,
            };
            return (store, processing.clone(), processing);
        }
        let bound = plan.distance_bound();
        match (&self.tables, entry_bytes(bound)) {
            (Tables::Full16(a) | Tables::Reduced16(a), 2) => {
                Store::write(plan, exec, method, bound, Some((a, &dirty)))
            }
            (Tables::Full32(a) | Tables::Reduced32(a), 4) => {
                Store::write(plan, exec, method, bound, Some((a, &dirty)))
            }
            (Tables::Full64(a) | Tables::Reduced64(a), 8) => {
                Store::write(plan, exec, method, bound, Some((a, &dirty)))
            }
            _ => Store::build(plan, exec, method, bound),
        }
    }

    /// Writes `plan`'s tables at width `E` into a new arena: with a
    /// `parent` arena and its dirty block ids, into the parent's
    /// `DistArena::child`, recomputing the dirty blocks only; without,
    /// cold, every block. The AP span is recomputed either way (a changed
    /// within-block distance can reroute AP-to-AP paths globally).
    fn write<E: Width>(
        plan: Arc<DecompPlan>,
        exec: &HeteroExecutor,
        method: ApspMethod,
        bound: Weight,
        parent: Option<(&DistArena<E>, &[u32])>,
    ) -> (Store, ExecutionReport, ExecutionReport) {
        let blocks: Vec<u32> = match parent {
            Some((_, dirty)) => dirty.to_vec(),
            None => (0..plan.n_blocks() as u32).collect(),
        };
        let mut arena = match parent {
            Some((parent, dirty)) => parent.child(dirty),
            None => DistArena::new(&plan, method),
        };
        set_removed_tables(&plan, method, &mut arena, &blocks);
        let processing = compute_block_tables(&plan, exec, method, arena.block_spans_mut(&blocks));
        let ap_phase = if blocks.is_empty() {
            processing.clone()
        } else {
            compute_ap_table(&plan, method, exec, &mut arena)
        };
        let tables = E::tables(arena, method == ApspMethod::Reduced);
        let store = Store {
            plan,
            method,
            tables,
            bound,
        };
        (store, processing, ap_phase)
    }
}

/// Within-block distance between vertices `u` and `v` of block `b`
/// (`INF` when either is not a member), from `arena` laid out for
/// `method`.
fn pair_dist<E: DistEntry>(
    plan: &DecompPlan,
    method: ApspMethod,
    arena: &DistArena<E>,
    b: u32,
    u: VertexId,
    v: VertexId,
) -> E {
    let (Some(lu), Some(lv)) = (plan.local(b, u), plan.local(b, v)) else {
        return E::INF;
    };
    match method {
        ApspMethod::Ear | ApspMethod::Plain => arena.block(b, lu, lv),
        ApspMethod::Reduced => block_pair_dist(plan, arena, b, lu, lv),
    }
}

/// Stage 2 post-processing: the `a × a` AP table, written into the AP
/// span of `arena` by sweeping the block-cut tree once every block table
/// is set.
///
/// A path between two articulation points passes through every cut
/// vertex on their tree path and, between two consecutive ones, never
/// leaves their shared block, whose table holds exact global distances:
/// `A[s,t]` is the sum of within-block distances along the tree path.
/// One unit per source AP `s` walks the tree from `s` with an explicit
/// stack (the tree can be `a` levels deep); entering block `B` through
/// AP `x` sets `d(s,y) = d(s,x) ⊕ d_B(x,y)` for every other AP `y` of
/// `B`. APs in other trees stay `INF`, and sums saturate at `INF`.
fn compute_ap_table<E: DistEntry>(
    plan: &DecompPlan,
    method: ApspMethod,
    exec: &HeteroExecutor,
    arena: &mut DistArena<E>,
) -> ExecutionReport {
    let _ap_span = ear_obs::span("apsp.ap_table");
    let bct = plan.bct();
    // Block b's within-block AP distances, row-major in `block_aps[b]`
    // order, at `pair[off[b]..]`.
    let (mut pair, mut off) = (Vec::new(), Vec::with_capacity(bct.n_blocks));
    for (b, aps) in (0..).zip(&bct.block_aps) {
        let (base, k) = (pair.len(), aps.len());
        off.push(base);
        pair.resize(base + k * k, E::default());
        for (i, &x) in aps.iter().enumerate() {
            for (j, &y) in aps.iter().enumerate().skip(i + 1) {
                let w = pair_dist(plan, method, arena, b, x, y);
                (pair[base + i * k + j], pair[base + j * k + i]) = (w, w);
            }
        }
    }
    let mut rows: Vec<(u32, &mut [E])> = (0..).zip(arena.ap_rows_mut()).collect();
    // Each AP of the source's tree but the source is set once: at most
    // `a − 1` combinations per source, exactly that when connected.
    let a = rows.len() as u64;
    exec.run_mut(
        &mut rows,
        |_| a,
        |(s, row)| {
            row.fill(E::INF);
            row[*s as usize] = E::default();
            let mut combined = 0;
            // (block, position of the AP it is entered through)
            let mut stack = bct.ap_blocks(*s).to_vec();
            while let Some((b, i)) = stack.pop() {
                let (aps, i) = (&bct.block_aps[b as usize], i as usize);
                let d_b = &pair[off[b as usize] + i * aps.len()..][..aps.len()];
                let dx = row[bct.ap_index[aps[i] as usize] as usize];
                for (&y, &w) in aps.iter().zip(d_b).filter(|&(&y, _)| y != aps[i]) {
                    let t = bct.ap_index[y as usize];
                    row[t as usize] = dx.dist_add(w);
                    combined += 1;
                    stack.extend(bct.ap_blocks(t).iter().filter(|&&(c, _)| c != b));
                }
            }
            WorkCounters {
                distances_combined: combined,
                ..WorkCounters::default()
            }
        },
    )
}

/// The queryable distance oracle.
///
/// Every table sits in one [`DistArena`] behind an [`Arc`] ([`Tables`]):
/// a no-op [`DistanceOracle::recustomized`] refresh shares it outright, a
/// dirty one copies the clean spans into a new arena and writes only what
/// changed, and [`crate::QueryEngine`] serves straight out of it.
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
        tree_dist(&self.store.plan, &self.store.tables, u, v)
    }

    /// The oracle's distance store (AP table and every block table, at
    /// its stored width), shared with the [`crate::QueryEngine`]s serving
    /// it.
    pub fn tables(&self) -> &Tables {
        &self.store.tables
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
    /// the build's phases run on exactly those blocks — into a new arena
    /// with `self`'s layout, into which every clean block's span is
    /// copied, never recomputed. The articulation-point span is rebuilt
    /// whenever any block is dirty (a changed within-block distance can
    /// reroute AP-to-AP paths globally); a no-op recustomization shares
    /// the whole arena and runs nothing. When `plan`'s distance bound
    /// ([`DecompPlan::distance_bound`]) gives another width either way
    /// ([`entry_bytes`]), the tables change width and are rebuilt cold.
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
        let stats = OracleStats {
            table_bytes: store.tables.bytes() as u64,
            distance_bound: store.bound,
            ..self.stats.clone()
        };
        DistanceOracle {
            store,
            stats,
            processing,
            ap_phase,
        }
    }
}

/// Shortest-path distance between any two vertices, `INF` when
/// disconnected: the one distance function of the oracle and its query
/// engines, reading `tables`. One match per query picks both the
/// within-block read — a span lookup, or at [`ApspMethod::Reduced`] the
/// §2.1.3 minima over the reduced span — and the entry width, so each arm
/// runs its own monomorphic [`route`].
#[inline]
pub(crate) fn tree_dist(plan: &DecompPlan, tables: &Tables, u: VertexId, v: VertexId) -> Weight {
    let bct = plan.bct();
    match tables {
        Tables::Full16(a) => route(bct, a, |b, i, j| a.block(b, i, j), u, v),
        Tables::Full32(a) => route(bct, a, |b, i, j| a.block(b, i, j), u, v),
        Tables::Full64(a) => route(bct, a, |b, i, j| a.block(b, i, j), u, v),
        Tables::Reduced16(a) => route(bct, a, |b, i, j| block_pair_dist(plan, a, b, i, j), u, v),
        Tables::Reduced32(a) => route(bct, a, |b, i, j| block_pair_dist(plan, a, b, i, j), u, v),
        Tables::Reduced64(a) => route(bct, a, |b, i, j| block_pair_dist(plan, a, b, i, j), u, v),
    }
}

/// Block-cut-tree routing (paper §2.3) over the within-block read
/// `block(b, i, j)` (local ids `i`, `j` of block `b`) of an arena stored
/// at width `E`.
///
/// Both endpoints non-AP in one block read that block's table. Otherwise
/// each endpoint `x` leaves its side of the tree path through `a = x`
/// when it is an articulation point, else through its home block's
/// [`BlockCutTree::gateway`] toward the other endpoint, and the answer is
/// `d(u,a₁) + A[a₁,a₂] + d(a₂,v)`. Because `A[a,a] = 0` and `A` holds
/// exact AP-to-AP distances, that one formula also covers an AP inside
/// the other endpoint's block and two APs sharing a block. The sum is a
/// distance of the graph, so it is taken at width `E` (saturating at its
/// `INF`) and widened once.
#[inline]
fn route<E: DistEntry>(
    bct: &BlockCutTree,
    arena: &DistArena<E>,
    block: impl Fn(u32, VertexId, VertexId) -> E,
    u: VertexId,
    v: VertexId,
) -> Weight {
    if u == v {
        return 0;
    }
    let (eu, ev) = (bct.endpoint(u), bct.endpoint(v));
    if eu.node == ev.node && bct.is_block(eu.node) {
        return block(eu.node, eu.local, ev.local).widen();
    }
    if eu.tree != ev.tree || eu.tree == u32::MAX {
        return INF;
    }
    // (AP index, d(x, AP)) of the AP where x's side of the path ends.
    let exit = |x: Endpoint, toward: Endpoint| match bct.ap_of(x) {
        Some(a) => (a, E::default()),
        None => {
            let gw = bct.gateway(x.node, toward.pre);
            (gw.ap, block(x.node, x.local, gw.local))
        }
    };
    let ((a1, du), (a2, dv)) = (exit(eu, ev), exit(ev, eu));
    du.dist_add(arena.ap_row(a1)[a2 as usize].dist_add(dv))
        .widen()
}

/// Realizes a shortest path `u → v` (inclusive of both endpoints) by
/// greedy descent on the distance function `dist`, or `None` when
/// disconnected. From `x`, the step is the tight edge
/// (`w(x,y) + d(y,v) = d(x,v)`) of positive weight with the smallest edge
/// id, so the path is deterministic. A zero-weight edge is tight in both
/// directions, so when `x` has no positive tight edge the walk crosses
/// zero-weight tight edges instead ([`zero_weight_hops`]).
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
    while x != v {
        let mut next: Option<(VertexId, ear_graph::EdgeId, Weight)> = None;
        for &(y, e) in g.neighbors(x) {
            // Once a tight edge is in hand, only a smaller edge id can
            // displace it, so the rest need no probe.
            if y == x || g.weight(e) == 0 || next.is_some_and(|(_, be, _)| e >= be) {
                continue;
            }
            let dy = dist(y, v);
            if dist_add(g.weight(e), dy) == dx {
                next = Some((y, e, dy));
            }
        }
        match next {
            Some((y, _, dy)) => {
                path.push(y);
                x = y;
                dx = dy;
            }
            None => {
                path.extend(zero_weight_hops(g, x, v, dx, &dist));
                x = *path.last().unwrap();
            }
        }
        assert!(path.len() <= g.n(), "path reconstruction looped");
    }
    Some(path)
}

/// The hops after `x` of a breadth-first walk over zero-weight tight
/// edges (`d(y,v) = d(x,v) = dx`) to the nearest vertex that is `v` or has
/// a tight edge of positive weight. A shortest path `x → v` starts with
/// zero-weight edges up to its first positive edge (or up to `v`), so such
/// a vertex exists whenever `dx` is finite.
fn zero_weight_hops(
    g: &CsrGraph,
    x: VertexId,
    v: VertexId,
    dx: Weight,
    dist: &impl Fn(VertexId, VertexId) -> Weight,
) -> Vec<VertexId> {
    let positive_step = |z: VertexId| {
        g.neighbors(z)
            .iter()
            .any(|&(y, e)| y != z && g.weight(e) > 0 && dist_add(g.weight(e), dist(y, v)) == dx)
    };
    let mut parent = HashMap::from([(x, x)]);
    let mut queue = VecDeque::from([x]);
    while let Some(z) = queue.pop_front() {
        if z != x && (z == v || positive_step(z)) {
            let mut hops = vec![z];
            while parent[hops.last().unwrap()] != x {
                hops.push(parent[hops.last().unwrap()]);
            }
            hops.reverse();
            return hops;
        }
        for &(y, e) in g.neighbors(z) {
            if g.weight(e) == 0 && !parent.contains_key(&y) && dist(y, v) == dx {
                parent.insert(y, z);
                queue.push_back(y);
            }
        }
    }
    panic!("finite distance must have a tight edge");
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
/// `target` into `row` with one [`SsspEngine::run_reusing`] search of the
/// worker thread's pooled engine, which takes over the rows `finished`
/// returns where it reaches them. Returns its work counters: the
/// expanded vertices' and `row.len()` dense combinations per folded row.
///
/// [`SsspEngine::run_reusing`]: ear_graph::SsspEngine::run_reusing
fn sssp_row<'r, E: DistEntry>(
    target: QueuedView<'_>,
    s: u32,
    row: &mut [E],
    finished: impl Fn(VertexId) -> Option<&'r [E]>,
) -> WorkCounters {
    let (stats, combined) = with_engine(|eng| eng.run_reusing(target, s, row, finished));
    if ear_obs::is_enabled() {
        ear_obs::counter_add("apsp.phase2.vertices_expanded", stats.settled);
        ear_obs::counter_add("apsp.phase2.rows_combined", combined);
    }
    WorkCounters {
        edges_relaxed: stats.edges_relaxed,
        vertices_settled: stats.settled,
        dense_combined: combined * row.len() as u64,
        ..WorkCounters::default()
    }
}

/// Sources in a block's first phase-II round. Each later round is twice
/// the one before: ranks `[0, 8)`, `[8, 24)`, `[24, 56)`, ….
const FIRST_ROUND: usize = 8;

/// The phase-II round of the source at `rank` in its block's order
/// ([`source_order`]).
fn round_of(rank: usize) -> usize {
    (rank / FIRST_ROUND + 1).ilog2() as usize
}

/// `g`'s vertices in descending degree order, ties broken by a fixed
/// hash of the id, so the order depends on the topology alone. Hubs
/// first: their rows are the ones later searches reach soonest. The hash
/// scatters equal-degree runs, which input ids often cluster spatially.
fn source_order(g: CsrView<'_>) -> Vec<VertexId> {
    // splitmix64 is a bijection, so no two keys tie.
    let mut order: Vec<VertexId> = g.vertices().collect();
    order.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v)), splitmix64(v.into())));
    order
}

/// Phase II: fills every row of an all-sources table, one `(block,
/// source, row)` unit per source of each block's `target` graph, grouped
/// by block in ascending source order. With `reuse`, each block's sources
/// run in [`source_order`], batched into rounds ([`round_of`]); round `r`
/// is every block's `r`-th batch, one executor run, and its searches
/// ([`sssp_row`]) take over the rows of earlier rounds. Without it one
/// round runs a full Dijkstra per source. Either way the tables and the
/// work counters depend on the topology alone, not on the executor.
/// Returns the merged executor report of the rounds.
fn all_sources<'g, E: DistEntry>(
    exec: &HeteroExecutor,
    rows: Rows<'_, E>,
    target: impl Fn(u32) -> CsrView<'g> + Sync,
    reuse: bool,
) -> ExecutionReport {
    // Row (b, s) sits at index first[b] + s of `rows`; block b's searches
    // share one queue choice, graph[b].
    let total = rows.len();
    let blocks = rows.last().map_or(0, |r| r.0 as usize + 1);
    let (mut first, mut graph) = (vec![0; blocks], vec![None; blocks]);
    let mut round = vec![0; total];
    for (k, &(b, s, _)) in rows.iter().enumerate() {
        if s == 0 {
            first[b as usize] = k;
            graph[b as usize] = Some(QueuedView::new(target(b)));
            if reuse {
                for (rank, v) in source_order(target(b)).into_iter().enumerate() {
                    round[k + v as usize] = round_of(rank);
                }
            }
        }
    }
    let mut rounds: Vec<Rows<'_, E>> = vec![Vec::new()];
    for (row, r) in rows.into_iter().zip(round) {
        if rounds.len() <= r {
            rounds.resize_with(r + 1, Vec::new);
        }
        rounds[r].push(row);
    }
    if ear_obs::is_enabled() {
        ear_obs::counter_add("apsp.phase2.rounds", rounds.len() as u64);
    }
    // The rows of earlier rounds, at their row index; empty until then.
    let mut done: Vec<&[E]> = vec![&[]; total];
    let mut report: Option<ExecutionReport> = None;
    for mut units in rounds {
        let finished = &done;
        let r = exec.run_mut(
            &mut units,
            |&(b, _, _)| target(b).m() as u64 + 1,
            |(b, s, row)| {
                let base = first[*b as usize];
                let finished =
                    |x: VertexId| Some(finished[base + x as usize]).filter(|r| !r.is_empty());
                let g = graph[*b as usize].expect("every listed block has its graph");
                sssp_row(g, *s, row, finished)
            },
        );
        report = Some(match report {
            Some(acc) => acc.merge(r),
            None => r,
        });
        for (b, s, row) in units {
            done[first[b as usize] + s as usize] = row;
        }
    }
    report.expect("at least one round")
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
    let bound = plan.distance_bound();
    let (store, processing, ap_phase) = Store::build(plan, exec, method, bound);

    // Statistics.
    let plan = &store.plan;
    let removed = match method {
        ApspMethod::Ear | ApspMethod::Reduced => plan.removed_vertices(),
        ApspMethod::Plain => 0,
    };
    let table_entries = paper_entries(plan, method) as u64;
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
        table_bytes: store.tables.bytes() as u64,
        distance_bound: store.bound,
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

/// Sets the removed-vertex tables of `blocks` in `arena` from `plan`'s
/// reductions, at the arena's width. `Plain` ignores the reductions, so
/// its tables stay empty.
fn set_removed_tables<E: DistEntry>(
    plan: &DecompPlan,
    method: ApspMethod,
    arena: &mut DistArena<E>,
    blocks: &[u32],
) {
    if method == ApspMethod::Plain {
        return;
    }
    for &b in blocks {
        if let Some(r) = plan.reduction(b) {
            arena.set_removed(b, removed_table(r));
        }
    }
}

/// Phases II + III for the blocks of `spans` only (ascending ids),
/// writing each block's table in place. Phase II is the all-sources table
/// of each block's reduced graph — of the block itself when it is not
/// reduced or `method` is `Plain` — whose searches reuse finished rows
/// everywhere but at `Plain`; its `k` rows are the span's leading `k × k`
/// square. Phase III runs at `Ear` only ([`extend_blocks`]); at `Reduced`
/// the square is the stored table. Returns the merged executor report.
/// The cold build passes every block; an incremental refresh passes just
/// the dirty ones, and a no-op refresh none.
fn compute_block_tables<E: Width>(
    plan: &DecompPlan,
    exec: &HeteroExecutor,
    method: ApspMethod,
    mut spans: Vec<BlockSpanMut<'_, E>>,
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
    // Banerjee baseline (`Plain`) reuses no rows: one full Dijkstra per
    // block vertex is the comparison axis.
    let mut rows: Rows<'_, E> = Vec::new();
    for s in &mut spans {
        debug_assert_eq!(s.k, target(s.b).n(), "one square row per source");
        let square = s.span[..s.k * s.k].chunks_mut(s.k.max(1));
        rows.extend((0..).zip(square).map(|(x, row)| (s.b, x, row)));
    }
    let p2 = {
        let _span = ear_obs::span("apsp.phase2");
        all_sources(exec, rows, target, method != ApspMethod::Plain)
    };
    if method != ApspMethod::Ear {
        return p2;
    }
    let _span = ear_obs::span("apsp.phase3");
    if spans.iter().all(|s| s.removed.is_empty()) {
        // No removed vertex: phase II wrote every table in full.
        return p2;
    }
    p2.merge(extend_blocks(plan, exec, &mut spans))
}

/// Phase III at `Ear`: the §2.1.3 extension of each reduced block's
/// square `S^r` to its removed rows, in one executor run with one unit per
/// chain ([`chain_rows`]). Blocks without removed vertices have nothing to
/// do. Returns the run's report.
fn extend_blocks<E: Width>(
    plan: &DecompPlan,
    exec: &HeteroExecutor,
    spans: &mut [BlockSpanMut<'_, E>],
) -> ExecutionReport {
    let mut units = Vec::new();
    for s in spans.iter_mut().filter(|s| !s.removed.is_empty()) {
        let r = plan
            .reduction(s.b)
            .expect("a block with removed vertices is reduced");
        let (square, mut rest) = s.span.split_at_mut(s.k * s.k);
        let square = &*square;
        for (c, chain) in (0..).zip(&r.chains) {
            let rows;
            (rows, rest) = std::mem::take(&mut rest).split_at_mut(chain.interior.len() * s.n);
            units.push((r, square, s.removed, c, rows));
        }
    }
    exec.run_mut(
        &mut units,
        |(_, _, _, _, rows)| rows.len() as u64,
        |(r, square, removed, c, rows)| WorkCounters {
            distances_combined: chain_rows(r, square, removed, *c, rows),
            ..WorkCounters::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_testkit::reference::floyd_warshall;

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

    /// The sizing rule is what each oracle's arena holds, at every method,
    /// while the stats keep the paper's count: `Ear` stores
    /// `a² + Σ (kᵢ² + (nᵢ − kᵢ)·nᵢ)` of `Plain`'s `a² + Σ nᵢ²`.
    #[test]
    fn stored_entries_size_every_arena() {
        let graphs = extension_cases().into_iter().map(|c| c.g);
        for g in graphs.chain([mixed_graph()]) {
            let [ear, plain, reduced] = check_methods(&g);
            for o in [&ear, &plain, &reduced] {
                let stored = crate::stored_entries(o.plan(), o.method());
                assert_eq!(stored, o.tables().entries(), "{:?}", o.method());
                let bytes = stored * o.tables().entry_bytes();
                assert_eq!(o.stats().table_bytes, bytes as u64);
            }
            let (a, plan) = (plain.stats().articulation_points, plain.plan());
            let spans = plan.blocks().iter().map(|bp| {
                let (k, n) = (bp.reduced_n(), bp.n());
                k * k + (n - k) * n
            });
            assert_eq!(ear.tables().entries(), a * a + spans.sum::<usize>());
            assert_eq!(
                plain.stats().table_entries as usize,
                plain.tables().entries()
            );
            assert_eq!(ear.stats().table_entries, plain.stats().table_entries);
        }
    }

    /// Phase III's `distances_combined` counts what its chain units
    /// combine: per chain, two per removed vertex for each of its two
    /// anchors (the gather), and per removed row two per entry of the full
    /// width plus one per vertex of its own chain. Phase II counts none.
    #[test]
    fn phase3_counts_what_the_chain_units_combine() {
        // (case, chains × 4 × removed + removed × 2n + Σ chain len²)
        let want = [
            ("theta", 2 * 4 * 2 + 2 * 2 * 4 + (1 + 1)),
            ("pure_cycle", 4 * 4 + 4 * 2 * 5 + 4 * 4),
            (
                "same_chain_shortcut",
                3 * 4 * 4 + 4 * 2 * 6 + (2 * 2 + 1 + 1),
            ),
        ];
        let mut seen = 0;
        for c in extension_cases() {
            let Some(&(_, combined)) = want.iter().find(|w| w.0 == c.name) else {
                continue;
            };
            for exec in [HeteroExecutor::sequential(), HeteroExecutor::cpu_gpu()] {
                let o = build_oracle(&c.g, &exec, ApspMethod::Ear);
                let got = o.processing.total_counters().distances_combined;
                assert_eq!(got, combined, "{}", c.name);
            }
            seen += 1;
        }
        assert_eq!(seen, want.len());
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
                assert_eq!(o.tables().entry_bytes(), 8, "{method:?}");
                for u in 0..g.n() as u32 {
                    let want = ear_graph::dijkstra(&g, u);
                    let got: Vec<Weight> = (0..g.n() as u32).map(|v| o.dist(u, v)).collect();
                    assert_eq!(got, want, "{method:?} from {u}");
                }
            }
        }
    }

    /// The path 0-1-2 weighing `total`, split unevenly: its bound is
    /// `total` (`2·ecc(0)` is twice that).
    fn heavy_path(total: Weight) -> CsrGraph {
        let w = total / 3;
        CsrGraph::from_edges(3, &[(0, 1, w), (1, 2, total - w)])
    }

    #[test]
    fn total_weight_below_each_bound_picks_the_width() {
        let (top16, top32) = (Weight::from(u16::MAX), Weight::from(u32::MAX));
        for (total, bytes) in [(top16 - 1, 2), (top16, 4), (top32 - 1, 4), (top32, 8)] {
            let g = heavy_path(total);
            for o in check_methods(&g) {
                let (st, stored) = (o.stats(), o.tables().entries() as u64);
                assert_eq!(o.tables().entry_bytes(), bytes, "total {total}");
                assert_eq!(st.table_bytes, stored * bytes as u64);
                assert_eq!(st.distance_bound, total);
                assert_eq!(o.dist(0, 2), total, "{:?}", o.method());
                assert_eq!(o.dist(2, 0), total, "{:?}", o.method());
            }
        }
    }

    /// A heavy edge on no shortest path leaves the tables at `u16`: in a
    /// ring whose edge 4-0 weighs `u32::MAX`, and which is one chain of
    /// removed vertices, the chain weights through that edge saturate to
    /// `INF` at `u16` and still lose every minimum.
    #[test]
    fn heavy_edge_off_every_shortest_path_keeps_u16() {
        let heavy = Weight::from(u32::MAX);
        let ring = [(0, 1, 3), (1, 2, 1), (2, 3, 4), (3, 4, 1), (4, 0, heavy)];
        let mut edges = ring.to_vec();
        edges.extend([(2, 5, 2), (5, 6, 1), (6, 2, 1)]);
        for g in [
            CsrGraph::from_edges(5, &ring),
            CsrGraph::from_edges(7, &edges),
        ] {
            for o in check_methods(&g) {
                assert_eq!(o.tables().entry_bytes(), 2, "{:?}", o.method());
                assert!(o.stats().distance_bound < 32, "{:?}", o.stats());
                assert_eq!(o.dist(4, 0), 9, "{:?}", o.method());
            }
        }
    }

    /// Refreshes of `mixed_graph` across the width bound `top`: the
    /// pendant edge 5-7 takes the total, which is the bound, to `top − 1`
    /// (stored at `below` bytes) or `top` (`at` bytes), then back, then to
    /// the base weights (`u16`); the triangle edge changes too, so each
    /// refresh has a second dirty block. Every refreshed oracle holds a
    /// cold build's tables at a cold build's width.
    fn refresh_across_bound(top: Weight, below: usize, at: usize) {
        let g = mixed_graph();
        let exec = HeteroExecutor::sequential();
        let plan = Arc::new(DecompPlan::build(&g));
        let base: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
        let rest: Weight = base[..8].iter().sum();
        let reweigh = |pendant: Weight, tri: Weight| {
            let mut w = base.clone();
            (w[8], w[0]) = (pendant - tri + w[0], tri);
            w
        };
        let narrow = reweigh(top - 1 - rest, 7);
        let wide = reweigh(top - rest, 2);
        for method in METHODS {
            let mut oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, method);
            assert_eq!(oracle.tables().entry_bytes(), 2);
            for (w, bytes) in [(&narrow, below), (&wide, at), (&narrow, below), (&base, 2)] {
                oracle = oracle.recustomized(Arc::new(plan.recustomized(w)), &exec);
                let cold = build_oracle(&g.reweighted(w), &exec, method);
                assert_eq!(oracle.tables().entry_bytes(), bytes, "{method:?}");
                assert_eq!(oracle.materialize(), cold.materialize(), "{method:?}");
                assert_eq!(oracle.stats(), cold.stats(), "{method:?}");
                assert_eq!(oracle.tables().ap_span(), cold.tables().ap_span());
                for b in 0..plan.n_blocks() as u32 {
                    let (warm, cold) = (oracle.tables(), cold.tables());
                    assert_eq!(warm.block_span(b), cold.block_span(b), "{method:?} {b}");
                }
            }
        }
    }

    #[test]
    fn refresh_across_the_u16_bound_matches_cold_builds() {
        refresh_across_bound(Weight::from(u16::MAX), 2, 4);
    }

    #[test]
    fn refresh_across_the_u32_bound_matches_cold_builds() {
        refresh_across_bound(Weight::from(u32::MAX), 4, 8);
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

    /// Every connected pair's path, from the oracle and from a query
    /// engine over it, is a walk `u → v` whose weight is `dist(u, v)`.
    fn assert_paths_tight(g: &CsrGraph, o: &DistanceOracle) {
        let q = crate::QueryEngine::new(o);
        for u in 0..g.n() as u32 {
            for v in 0..g.n() as u32 {
                let path = o.path(g, u, v);
                assert_eq!(q.path(g, u, v), path);
                let Some(p) = path else {
                    assert_eq!(o.dist(u, v), INF);
                    continue;
                };
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

    #[test]
    fn path_reconstruction_is_tight() {
        let g = mixed_graph();
        for o in check_methods(&g) {
            assert_paths_tight(&g, &o);
        }
    }

    /// A zero-weight edge is tight in both directions; the descent must
    /// cross it instead of bouncing between its ends.
    #[test]
    fn zero_weight_edges_realize_tight_paths() {
        // A zero-weight pendant edge on a triangle: 0 → 2 first crosses
        // 0-1 for free.
        let pendant = CsrGraph::from_edges(4, &[(0, 1, 0), (1, 2, 1), (2, 3, 1), (3, 1, 1)]);
        // A zero-weight triangle with a positive tail, and a lone
        // zero-weight triangle.
        let triangles = CsrGraph::from_edges(
            7,
            &[
                (0, 1, 0),
                (1, 2, 0),
                (2, 0, 0),
                (2, 3, 2),
                (4, 5, 0),
                (5, 6, 0),
                (6, 4, 0),
            ],
        );
        for g in [pendant, triangles] {
            for o in check_methods(&g) {
                assert_paths_tight(&g, &o);
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
            let dirty = warm_plan.dirty_blocks();
            let mut arena = DistArena::<u32>::new(&warm_plan, method);
            set_removed_tables(&warm_plan, method, &mut arena, dirty);
            let spans = arena.block_spans_mut(dirty);
            let rep = compute_block_tables(&warm_plan, &exec, method, spans);
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
            assert!(oracle.tables().ptr_eq(warm.tables()));
            assert_eq!(warm.processing.total_units(), 0);

            // A dirty refresh rewrites its own arena; clean spans are
            // byte-identical copies of the parent's.
            w[0] = 50; // triangle block only
            let warm_plan = Arc::new(plan.recustomized(&w));
            let dirty = warm_plan.dirty_blocks().to_vec();
            let warm = oracle.recustomized(warm_plan, &exec);
            assert!(!oracle.tables().ptr_eq(warm.tables()));
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
            assert!(warm.processing.total_units() > 0);
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
