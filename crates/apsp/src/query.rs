//! The query fast path: precomputed gateway routing over fused flat
//! tables, a batched many-to-many kernel, and fast path realization.
//!
//! [`crate::DistanceOracle::dist`] pays, on every call, a binary-lifting
//! LCA walk over the block-cut tree, a chain of `Vec<Arc<DistMatrix>>`
//! indirections, and (for articulation-point sources) a membership probe
//! per candidate block. None of that work depends on the weights — it is
//! pure routing, and it can all be precomputed. [`QueryEngine`] does so:
//!
//! * **Gateway records** — for every vertex `v`, the articulation points
//!   of its home block (`v` itself when `v` is an AP) with the
//!   within-block distance `d(v, a)` folded in at build time. Routing a
//!   query `d(u,v)` is then no tree walk at all: the answer is
//!   `min over a ∈ gw(u), a' ∈ gw(v) of d(u,a) + A[a,a'] + d(a',v)`,
//!   which equals the paper's `d(u,a₁) + A[a₁,a₂] + d(a₂,v)` exactly —
//!   the LCA-routed pair `(a₁,a₂)` is in the min, and no pair can beat
//!   the true distance (each term is an exact distance, so every summand
//!   is a valid walk length). Same-home-block pairs short-circuit to one
//!   flat table read. The per-vertex layout is tuned for serving: one
//!   16-byte [`VertexRoute`] record answers every classification question
//!   (home block, local id, component, AP-ness, gateway span) in a single
//!   cache line, and each gateway is one 16-byte `(AP index, folded
//!   distance)` record, so resolving an endpoint touches two lines total.
//! * **Fused flat tables** — the `a × a` AP table and every per-block
//!   table packed into one contiguous arena (`[A | B₀ | B₁ | …]`) with
//!   per-block `(offset, stride)` headers, so the hot read is one slice
//!   index instead of `Arc` + `Vec` + `DistMatrix` hops. The arena is
//!   Arc-shared at the arena level: a no-op [`QueryEngine::recustomized`]
//!   shares the whole [`FusedTables`] allocation, and a dirty refresh
//!   clones the arena (clean spans are a memcpy, never recomputed) and
//!   overwrites only the AP span, the dirty blocks' spans, and the dirty
//!   blocks' gateway distances.
//! * **Batched kernel** — [`QueryEngine::dist_batch`] answers `|S| × |T|`
//!   pairs by hoisting gateway resolution out of the pair loop: the
//!   distinct target gateway APs are collected once, each source
//!   min-reduces its gateway rows of `A` into a `mid[]` vector row-wise,
//!   and each pair finishes in `O(|gw(t)|)` adds. `dist_add` saturates at
//!   [`INF`], making it associative, so the regrouped reduction is
//!   **bit-identical** to the scalar formula.
//! * **Fast path realization** — [`QueryEngine::path`] runs the same
//!   greedy tight-edge descent as the legacy
//!   [`crate::DistanceOracle::path`] (same tie-breaks, bit-identical
//!   output) but hoists the target's whole gateway resolution into a
//!   per-query `tgt_mid[a] = min over a' ∈ gw(v) of A[a,a'] + d(a',v)`
//!   vector (a few hundred bytes, cache-resident for the whole descent),
//!   after which probing `d(y, v)` for a neighbor is `O(|gw(y)|)`
//!   saturating adds with **no** AP-table access at all — again
//!   bit-identical by the associativity of `dist_add`.
//!
//! `tests/query_fastpath_differential.rs` pins all of it — scalar,
//! batch and path — bit-identical to the legacy query path across every
//! testkit family, before and after recustomization.

use std::sync::Arc;

use ear_decomp::plan::DecompPlan;
use ear_graph::{dist_add, CsrGraph, VertexId, Weight, INF};

use crate::oracle::DistanceOracle;

/// Marks an articulation point in [`VertexRoute::gw_start`]'s top bit
/// (and in [`PackedRoute::meta`]).
const AP_FLAG: u32 = 1 << 31;

/// Marks, in [`PackedRoute::meta`], a gateway list too long to inline —
/// the scalar path falls back to the CSR spans.
const OVF_FLAG: u32 = 1 << 30;

/// Gateway records inlined in a [`PackedRoute`] — sized so the whole
/// record is exactly one 64-byte cache line.
const GW_INLINE: usize = 3;

/// Everything the hot path needs to know about one vertex, packed into 16
/// bytes so endpoint classification is a single cache-line read. Stored
/// as `n + 1` records: entry `v + 1`'s `gw_start` closes vertex `v`'s
/// gateway span.
#[derive(Clone, Copy, Debug)]
struct VertexRoute {
    /// Home block id (`u32::MAX` for isolated vertices).
    home: u32,
    /// Local id within the home block (`u32::MAX` isolated).
    home_local: u32,
    /// Connected-component id (`u32::MAX` isolated).
    comp: u32,
    /// Start of the vertex's records in [`FusedTables::gw`], with
    /// [`AP_FLAG`] or-ed in when the vertex is an articulation point.
    gw_start: u32,
}

/// One gateway record: an articulation point of the vertex's home block
/// (the vertex itself when it is an AP) and the folded within-block
/// distance to it. 16 bytes, so a typical gateway list is one line.
#[derive(Clone, Copy, Debug)]
struct GwRec {
    /// AP index (row of the fused AP table).
    ap: u32,
    /// `d(v, ap)`, exact global distance (0 for an AP's self-record).
    dist: Weight,
}

/// One vertex's entire endpoint resolution in a single cache line: the
/// classification fields of [`VertexRoute`] plus up to [`GW_INLINE`]
/// gateway records inlined. The scalar `dist` and `path` hot loops read
/// exactly one of these per endpoint; vertices with longer gateway lists
/// carry [`OVF_FLAG`] and fall back to the CSR spans. Lives in
/// [`FusedTables`] (the gateway distances are weight-dependent).
#[repr(C, align(64))]
#[derive(Clone, Copy, Debug)]
struct PackedRoute {
    /// Home block id (`u32::MAX` for isolated vertices).
    home: u32,
    /// Local id within the home block.
    home_local: u32,
    /// Connected-component id (`u32::MAX` isolated).
    comp: u32,
    /// [`AP_FLAG`] | [`OVF_FLAG`] | inline gateway count.
    meta: u32,
    /// The inline gateway records (first `meta & !flags` valid).
    gw: [GwRec; GW_INLINE],
}

/// Arena placement of one block's table.
#[derive(Clone, Copy, Debug)]
struct BlockHeader {
    /// Offset of the block's `n × n` table in the arena.
    off: usize,
    /// Side length (row stride).
    n: u32,
}

/// The weight-independent routing layer: per-vertex route records and the
/// fused arena's layout headers. Derived once per decomposition and
/// shared (via [`Arc`]) by every [`QueryEngine::recustomized`] refresh.
#[derive(Debug)]
pub struct QueryTopology {
    /// Articulation-point count (the AP table is `ap_count × ap_count`).
    ap_count: usize,
    /// Per-vertex packed routing records (`n + 1` entries; see
    /// [`VertexRoute`]).
    routes: Vec<VertexRoute>,
    /// Weight-independent template of the gateway records: the `dist`
    /// fields are garbage here and are folded per customization into
    /// [`FusedTables::gw`].
    gw_template: Vec<GwRec>,
    /// Arena placement of each block's table; the AP table occupies
    /// `arena[0 .. ap_count²]`.
    blocks: Vec<BlockHeader>,
    /// Total arena length (`ap_count² + Σ block_n²`).
    arena_len: usize,
    /// Non-AP home vertices of each block (CSR) — exactly the vertices
    /// whose gateway distances a dirty block invalidates.
    bm_start: Vec<u32>,
    bm_vtx: Vec<u32>,
    /// Local id, within its block, of each AP in the block's gateway
    /// order (CSR aligned with the per-block gateway AP lists).
    bap_start: Vec<u32>,
    bap_local: Vec<u32>,
}

impl QueryTopology {
    fn new(plan: &DecompPlan) -> QueryTopology {
        let bct = plan.bct();
        let n = plan.n();
        let nb = plan.n_blocks();
        let ap_count = bct.ap_count();

        // Per-block gateway AP lists (indices + block-local ids), in the
        // deterministic `block_aps` order.
        let mut bap_start = vec![0u32; nb + 1];
        for b in 0..nb {
            bap_start[b + 1] = bap_start[b] + bct.block_aps[b].len() as u32;
        }
        let mut bap_ap = vec![0u32; bap_start[nb] as usize];
        let mut bap_local = vec![0u32; bap_start[nb] as usize];
        for (b, aps) in bct.block_aps.iter().enumerate() {
            for (k, &apv) in aps.iter().enumerate() {
                let i = bap_start[b] as usize + k;
                bap_ap[i] = bct.ap_index[apv as usize];
                bap_local[i] = plan
                    .local(b as u32, apv)
                    .expect("block must contain its APs");
            }
        }

        // Packed per-vertex routes plus the gateway template: an AP
        // routes through itself (one record, distance 0); everyone else
        // through the home block's APs.
        let mut routes = Vec::with_capacity(n + 1);
        let mut gw_template = Vec::new();
        for v in 0..n {
            let home = bct.vertex_block[v];
            let ap = bct.ap_index[v];
            let comp = bct.component_of(v as VertexId).unwrap_or(u32::MAX);
            let home_local = if home == u32::MAX {
                u32::MAX
            } else {
                plan.local(home, v as VertexId)
                    .expect("home block must contain its vertex")
            };
            let mut gw_start = gw_template.len() as u32;
            if ap != u32::MAX {
                gw_start |= AP_FLAG;
                gw_template.push(GwRec { ap, dist: 0 });
            } else if home != u32::MAX {
                let b = home as usize;
                for &a in &bap_ap[bap_start[b] as usize..bap_start[b + 1] as usize] {
                    gw_template.push(GwRec { ap: a, dist: INF });
                }
            }
            routes.push(VertexRoute {
                home,
                home_local,
                comp,
                gw_start,
            });
        }
        routes.push(VertexRoute {
            home: u32::MAX,
            home_local: u32::MAX,
            comp: u32::MAX,
            gw_start: gw_template.len() as u32,
        });
        assert!(
            gw_template.len() < AP_FLAG as usize,
            "gateway table overflows the AP flag bit"
        );

        // Non-AP home members of each block, for targeted gateway
        // refreshes.
        let mut bm_start = vec![0u32; nb + 1];
        for r in &routes[..n] {
            if r.gw_start & AP_FLAG == 0 && r.home != u32::MAX {
                bm_start[r.home as usize + 1] += 1;
            }
        }
        for b in 0..nb {
            bm_start[b + 1] += bm_start[b];
        }
        let mut bm_vtx = vec![0u32; bm_start[nb] as usize];
        let mut cursor = bm_start.clone();
        for (v, r) in routes[..n].iter().enumerate() {
            if r.gw_start & AP_FLAG == 0 && r.home != u32::MAX {
                let b = r.home as usize;
                bm_vtx[cursor[b] as usize] = v as u32;
                cursor[b] += 1;
            }
        }

        // Arena headers: AP table first, then blocks in id order.
        let mut blocks = Vec::with_capacity(nb);
        let mut off = ap_count * ap_count;
        for b in 0..nb {
            let bn = plan.block(b as u32).n();
            blocks.push(BlockHeader { off, n: bn as u32 });
            off += bn * bn;
        }

        QueryTopology {
            ap_count,
            routes,
            gw_template,
            blocks,
            arena_len: off,
            bm_start,
            bm_vtx,
            bap_start,
            bap_local,
        }
    }

    /// Gateway record range of a vertex (flag bit stripped).
    #[inline]
    fn gw_range(&self, v: VertexId) -> std::ops::Range<usize> {
        let lo = (self.routes[v as usize].gw_start & !AP_FLAG) as usize;
        let hi = (self.routes[v as usize + 1].gw_start & !AP_FLAG) as usize;
        lo..hi
    }
}

/// The weight-dependent layer: one contiguous arena holding the AP table
/// and every per-block table, plus the gateway records with their folded
/// distances. Shared at the arena level — see the module docs.
#[derive(Debug)]
pub struct FusedTables {
    /// `[ AP table (a²) | block 0 (n₀²) | block 1 (n₁²) | … ]`, row-major.
    arena: Vec<Weight>,
    /// Per-vertex gateway records, spans addressed by
    /// [`QueryTopology::gw_range`].
    gw: Vec<GwRec>,
    /// One cache line per vertex for the scalar hot paths — the same
    /// routing + gateway data as `routes`/`gw`, repacked (see
    /// [`PackedRoute`]).
    packed: Vec<PackedRoute>,
}

impl FusedTables {
    fn build(topo: &QueryTopology, oracle: &DistanceOracle) -> FusedTables {
        let mut arena = Vec::with_capacity(topo.arena_len);
        arena.extend_from_slice(oracle.ap_table().data());
        for t in oracle.block_tables() {
            arena.extend_from_slice(t.data());
        }
        debug_assert_eq!(arena.len(), topo.arena_len);
        // The template already carries the AP self-records (dist 0);
        // every member record is refolded below.
        let mut gw = topo.gw_template.clone();
        for b in 0..topo.blocks.len() {
            Self::fill_block_gw(topo, oracle, b as u32, &mut gw);
        }
        let packed = Self::pack_routes(topo, &gw);
        FusedTables { arena, gw, packed }
    }

    /// Repacks the CSR routing + gateway state into the one-line-per-
    /// vertex [`PackedRoute`] array.
    fn pack_routes(topo: &QueryTopology, gw: &[GwRec]) -> Vec<PackedRoute> {
        let n = topo.routes.len() - 1;
        let mut packed = Vec::with_capacity(n);
        for v in 0..n {
            let r = topo.routes[v];
            let range = topo.gw_range(v as u32);
            let mut meta = r.gw_start & AP_FLAG;
            let mut recs = [GwRec { ap: 0, dist: INF }; GW_INLINE];
            if range.len() <= GW_INLINE {
                meta |= range.len() as u32;
                recs[..range.len()].copy_from_slice(&gw[range]);
            } else {
                meta |= OVF_FLAG;
            }
            packed.push(PackedRoute {
                home: r.home,
                home_local: r.home_local,
                comp: r.comp,
                meta,
                gw: recs,
            });
        }
        packed
    }

    /// Mirrors block `b`'s refreshed gateway distances from the CSR into
    /// the packed records (refresh path; build packs from scratch).
    fn sync_packed_block(topo: &QueryTopology, b: u32, gw: &[GwRec], packed: &mut [PackedRoute]) {
        let members = &topo.bm_vtx
            [topo.bm_start[b as usize] as usize..topo.bm_start[b as usize + 1] as usize];
        for &v in members {
            let p = &mut packed[v as usize];
            if p.meta & OVF_FLAG == 0 {
                let range = topo.gw_range(v);
                p.gw[..range.len()].copy_from_slice(&gw[range]);
            }
        }
    }

    /// (Re)folds `d(v, gateway)` for every non-AP home vertex of block
    /// `b` from the oracle's current table of that block.
    fn fill_block_gw(topo: &QueryTopology, oracle: &DistanceOracle, b: u32, gw: &mut [GwRec]) {
        let table = &oracle.block_tables()[b as usize];
        let locals = &topo.bap_local
            [topo.bap_start[b as usize] as usize..topo.bap_start[b as usize + 1] as usize];
        let members = &topo.bm_vtx
            [topo.bm_start[b as usize] as usize..topo.bm_start[b as usize + 1] as usize];
        for &v in members {
            let lv = topo.routes[v as usize].home_local;
            let out = &mut gw[topo.gw_range(v)];
            for (slot, &la) in out.iter_mut().zip(locals) {
                slot.dist = table.get(lv, la);
            }
        }
    }
}

/// Reusable scratch for [`QueryEngine::dist_batch_into`]: stamp-versioned
/// AP marking plus the per-source `mid[]` reduction vector. Steady-state
/// batches through a warmed scratch allocate nothing. Also carries the
/// per-query `tgt_mid` vector of [`QueryEngine::path`].
#[derive(Debug, Default)]
pub struct QueryScratch {
    stamp: u32,
    /// Per AP index: stamp when the AP is in `t_aps` for the current batch.
    mark: Vec<u32>,
    /// Per AP index: its position in `t_aps` (valid while marked).
    pos: Vec<u32>,
    /// Distinct target gateway AP indices of the current batch.
    t_aps: Vec<u32>,
    /// Per `t_aps` entry: `min over s-gateways of d(s,a) + A[a, t_ap]`.
    mid: Vec<Weight>,
}

impl QueryScratch {
    /// Fresh scratch; arrays grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, ap_count: usize) {
        if self.mark.len() < ap_count {
            self.mark.resize(ap_count, 0);
            self.pos.resize(ap_count, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.mark.fill(0);
            self.stamp = 1;
        }
    }
}

/// The serving-grade query layer over a built [`DistanceOracle`] — see
/// the module docs for the data layout and the bit-identity argument.
///
/// Cheaply cloneable (three `Arc`s). [`QueryEngine::recustomized`]
/// follows an oracle refresh while sharing the routing topology always
/// and the fused arena whenever no block is dirty.
#[derive(Debug, Clone)]
pub struct QueryEngine {
    plan: Arc<DecompPlan>,
    topo: Arc<QueryTopology>,
    tables: Arc<FusedTables>,
}

impl QueryEngine {
    /// Builds the engine from a built oracle: derives the gateway routing
    /// topology and packs the oracle's tables into the fused arena.
    pub fn new(oracle: &DistanceOracle) -> QueryEngine {
        let _span = ear_obs::span_with("query.build", oracle.plan().n() as u64);
        let topo = Arc::new(QueryTopology::new(oracle.plan()));
        let tables = Arc::new(FusedTables::build(&topo, oracle));
        if ear_obs::is_enabled() {
            ear_obs::counter_add("query.engines", 1);
            ear_obs::counter_add("query.gateway_records", tables.gw.len() as u64);
            ear_obs::counter_add("query.arena_entries", topo.arena_len as u64);
        }
        QueryEngine {
            plan: Arc::clone(oracle.plan()),
            topo,
            tables,
        }
    }

    /// Follows an incremental oracle refresh: the routing topology is
    /// always shared with `self`, and the fused arena is shared outright
    /// on a no-op refresh. A dirty refresh clones the arena — clean block
    /// spans are memcpy'd, never recomputed — and overwrites only the AP
    /// span, the dirty blocks' spans and the dirty blocks' folded gateway
    /// distances.
    ///
    /// # Panics
    /// Panics unless `oracle`'s plan shares this engine's plan topology.
    pub fn recustomized(&self, oracle: &DistanceOracle) -> QueryEngine {
        assert!(
            self.plan.shares_topology(oracle.plan()),
            "recustomized requires an oracle sharing this engine's topology"
        );
        let dirty = oracle.plan().dirty_blocks();
        let _span = ear_obs::span_with("query.refresh", dirty.len() as u64);
        if ear_obs::is_enabled() {
            ear_obs::counter_add("query.refreshes", 1);
            ear_obs::counter_add("query.refresh.dirty_blocks", dirty.len() as u64);
        }
        if dirty.is_empty() {
            return QueryEngine {
                plan: Arc::clone(oracle.plan()),
                topo: Arc::clone(&self.topo),
                tables: Arc::clone(&self.tables),
            };
        }
        let topo = &*self.topo;
        let mut arena = self.tables.arena.clone();
        let mut gw = self.tables.gw.clone();
        let mut packed = self.tables.packed.clone();
        // Any dirty block can reroute AP-to-AP paths globally, so the
        // oracle rebuilt the whole AP table; take it wholesale.
        let a2 = topo.ap_count * topo.ap_count;
        arena[..a2].copy_from_slice(oracle.ap_table().data());
        for &b in dirty {
            let h = topo.blocks[b as usize];
            let len = (h.n as usize).pow(2);
            arena[h.off..h.off + len].copy_from_slice(oracle.block_tables()[b as usize].data());
            FusedTables::fill_block_gw(topo, oracle, b, &mut gw);
            FusedTables::sync_packed_block(topo, b, &gw, &mut packed);
        }
        QueryEngine {
            plan: Arc::clone(oracle.plan()),
            topo: Arc::clone(&self.topo),
            tables: Arc::new(FusedTables { arena, gw, packed }),
        }
    }

    /// Shortest-path distance between any two vertices (`INF` when
    /// disconnected) — bit-identical to [`DistanceOracle::dist`], at flat
    /// array-read cost.
    #[inline]
    pub fn dist(&self, u: VertexId, v: VertexId) -> Weight {
        if ear_obs::is_enabled() {
            ear_obs::counter_add("query.p2p", 1);
        }
        self.dist_inner(u, v)
    }

    /// The uncounted core of [`Self::dist`] (shared with the batch and
    /// path kernels, which account for themselves). Each endpoint costs
    /// one [`PackedRoute`] cache line; only overflow gateway lists
    /// (longer than [`GW_INLINE`]) touch the CSR spans.
    #[inline]
    fn dist_inner(&self, u: VertexId, v: VertexId) -> Weight {
        if u == v {
            return 0;
        }
        let t = &*self.topo;
        let pu = &self.tables.packed[u as usize];
        let pv = &self.tables.packed[v as usize];
        if (pu.meta | pv.meta) & AP_FLAG == 0 && pu.home == pv.home {
            // Both non-AP with one home block: a single flat table read
            // (INF for two isolated vertices, which share the sentinel).
            if pu.home == u32::MAX {
                return INF;
            }
            let h = t.blocks[pu.home as usize];
            return self.tables.arena
                [h.off + pu.home_local as usize * h.n as usize + pv.home_local as usize];
        }
        if pu.comp != pv.comp || pu.comp == u32::MAX {
            return INF;
        }
        let gw = &self.tables.gw[..];
        let gu: &[GwRec] = if pu.meta & OVF_FLAG == 0 {
            &pu.gw[..(pu.meta & !AP_FLAG) as usize]
        } else {
            &gw[t.gw_range(u)]
        };
        let gv: &[GwRec] = if pv.meta & OVF_FLAG == 0 {
            &pv.gw[..(pv.meta & !AP_FLAG) as usize]
        } else {
            &gw[t.gw_range(v)]
        };
        self.gateway_min(gu, gv)
    }

    /// `min over a ∈ gw(u), a' ∈ gw(v) of d(u,a) + A[a,a'] + d(a',v)` —
    /// the O(1)-routed cross-block (and any-AP-endpoint) distance, over
    /// already-resolved gateway spans.
    #[inline]
    fn gateway_min(&self, gu: &[GwRec], gv: &[GwRec]) -> Weight {
        let a = self.topo.ap_count;
        let arena = &self.tables.arena[..];
        // 2×2 is the shape of every chain-interior block (two cut
        // vertices): unrolled so both AP-table row reads issue in
        // parallel and the four candidates reduce without loop carries.
        // Same min over the same candidates — bit-identical result.
        if let ([u0, u1], [v0, v1]) = (gu, gv) {
            let r0 = &arena[u0.ap as usize * a..][..a];
            let r1 = &arena[u1.ap as usize * a..][..a];
            let c00 = dist_add(u0.dist, dist_add(r0[v0.ap as usize], v0.dist));
            let c01 = dist_add(u0.dist, dist_add(r0[v1.ap as usize], v1.dist));
            let c10 = dist_add(u1.dist, dist_add(r1[v0.ap as usize], v0.dist));
            let c11 = dist_add(u1.dist, dist_add(r1[v1.ap as usize], v1.dist));
            return c00.min(c01).min(c10).min(c11);
        }
        let mut best = INF;
        for ru in gu {
            let row = &arena[ru.ap as usize * a..][..a];
            for rv in gv {
                let cand = dist_add(ru.dist, dist_add(row[rv.ap as usize], rv.dist));
                if cand < best {
                    best = cand;
                }
            }
        }
        best
    }

    /// Many-to-many distances: one entry per `(source, target)` pair,
    /// row-major `sources.len() × targets.len()`. Convenience wrapper over
    /// [`Self::dist_batch_into`] that allocates its own scratch.
    pub fn dist_batch(&self, sources: &[VertexId], targets: &[VertexId]) -> Vec<Weight> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        self.dist_batch_into(sources, targets, &mut scratch, &mut out);
        out
    }

    /// The batched many-to-many kernel. Gateway resolution is hoisted out
    /// of the pair loop: distinct target gateway APs are collected once,
    /// each source min-reduces its AP-table rows into `mid[]` row-wise,
    /// and each pair finishes in `O(|gw(target)|)` saturating adds —
    /// bit-identical to calling [`Self::dist`] per pair (associativity of
    /// `dist_add`; the differential suite pins it). Steady-state calls
    /// through a warmed `scratch`/`out` allocate nothing.
    pub fn dist_batch_into(
        &self,
        sources: &[VertexId],
        targets: &[VertexId],
        scratch: &mut QueryScratch,
        out: &mut Vec<Weight>,
    ) {
        let pairs = (sources.len() * targets.len()) as u64;
        let _span = ear_obs::span_with("query.batch", pairs);
        if ear_obs::is_enabled() {
            ear_obs::counter_add("query.batches", 1);
            ear_obs::counter_add("query.batch_queries", pairs);
        }
        let t = &*self.topo;
        let arena = &self.tables.arena[..];
        let gw = &self.tables.gw[..];
        out.clear();
        out.reserve(sources.len() * targets.len());
        scratch.ensure(t.ap_count);
        let stamp = scratch.stamp;

        // Distinct gateway APs across all targets, positions recorded.
        scratch.t_aps.clear();
        for &tv in targets {
            for rec in &gw[t.gw_range(tv)] {
                let a = rec.ap as usize;
                if scratch.mark[a] != stamp {
                    scratch.mark[a] = stamp;
                    scratch.pos[a] = scratch.t_aps.len() as u32;
                    scratch.t_aps.push(rec.ap);
                }
            }
        }
        scratch.mid.clear();
        scratch.mid.resize(scratch.t_aps.len(), INF);

        for &s in sources {
            // mid[j] = min over s-gateways of d(s,a) + A[a, t_aps[j]],
            // walked row-wise over the fused AP table.
            for m in scratch.mid.iter_mut() {
                *m = INF;
            }
            for rec in &gw[t.gw_range(s)] {
                let row = &arena[rec.ap as usize * t.ap_count..][..t.ap_count];
                for (m, &aj) in scratch.mid.iter_mut().zip(&scratch.t_aps) {
                    let cand = dist_add(rec.dist, row[aj as usize]);
                    if cand < *m {
                        *m = cand;
                    }
                }
            }
            let rs = t.routes[s as usize];
            for &tv in targets {
                let rt = t.routes[tv as usize];
                let d = if s == tv {
                    0
                } else if (rs.gw_start | rt.gw_start) & AP_FLAG == 0 && rs.home == rt.home {
                    if rs.home == u32::MAX {
                        INF
                    } else {
                        let h = t.blocks[rs.home as usize];
                        arena
                            [h.off + rs.home_local as usize * h.n as usize + rt.home_local as usize]
                    }
                } else if rs.comp != rt.comp || rs.comp == u32::MAX {
                    INF
                } else {
                    let mut best = INF;
                    for rec in &gw[t.gw_range(tv)] {
                        let cand =
                            dist_add(scratch.mid[scratch.pos[rec.ap as usize] as usize], rec.dist);
                        if cand < best {
                            best = cand;
                        }
                    }
                    best
                };
                out.push(d);
            }
        }
    }

    /// Reconstructs an actual shortest path `u → v` (inclusive of both
    /// endpoints), `None` when disconnected — bit-identical to the legacy
    /// [`DistanceOracle::path`]: the same greedy tight-edge descent with
    /// the same smallest-edge-id tie-break, but the target's gateway
    /// resolution is hoisted into a per-query `tgt_mid` vector, so every
    /// `d(neighbor, target)` probe is `O(|gw(neighbor)|)` saturating adds
    /// over cache-resident state instead of an LCA-routed oracle query.
    pub fn path(&self, g: &CsrGraph, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
        if ear_obs::is_enabled() {
            ear_obs::counter_add("query.paths", 1);
        }
        if self.dist_inner(u, v) >= INF {
            return None;
        }
        let t = &*self.topo;
        let arena = &self.tables.arena[..];
        let gw = &self.tables.gw[..];
        // tgt_mid[a] = min over a' ∈ gw(v) of A[a,a'] + d(a',v): the
        // whole AP table's contribution to d(·, v), folded once. The AP
        // table is symmetric (undirected distances), so the fold streams
        // rows instead of columns.
        let mut tgt_mid = vec![INF; t.ap_count];
        for rec in &gw[t.gw_range(v)] {
            let row = &arena[rec.ap as usize * t.ap_count..][..t.ap_count];
            for (m, &aw) in tgt_mid.iter_mut().zip(row) {
                let cand = dist_add(aw, rec.dist);
                if cand < *m {
                    *m = cand;
                }
            }
        }
        let packed = &self.tables.packed[..];
        let pv = &packed[v as usize];
        // d(y, v) through the hoisted fold — bit-identical to
        // `dist_inner` by the associativity of `dist_add`. One packed
        // cache line per probe.
        let d_to_target = |y: VertexId| -> Weight {
            if y == v {
                return 0;
            }
            let py = &packed[y as usize];
            if (py.meta | pv.meta) & AP_FLAG == 0 && py.home == pv.home {
                if py.home == u32::MAX {
                    return INF;
                }
                let h = t.blocks[py.home as usize];
                return arena
                    [h.off + py.home_local as usize * h.n as usize + pv.home_local as usize];
            }
            if py.comp != pv.comp || py.comp == u32::MAX {
                return INF;
            }
            let gy: &[GwRec] = if py.meta & OVF_FLAG == 0 {
                &py.gw[..(py.meta & !AP_FLAG) as usize]
            } else {
                &gw[t.gw_range(y)]
            };
            let mut best = INF;
            for rec in gy {
                let cand = dist_add(rec.dist, tgt_mid[rec.ap as usize]);
                if cand < best {
                    best = cand;
                }
            }
            best
        };
        let mut path = vec![u];
        let mut x = u;
        // d(x, v), carried across hops: a tight step along edge `e`
        // means d(y, v) = d(x, v) - w(e) with everything finite, so the
        // chosen neighbor's probe doubles as the next hop's `dx` and
        // only neighbors are probed per hop.
        let mut dx = d_to_target(u);
        let mut guard = g.n() + 1;
        while x != v {
            let mut next: Option<(VertexId, ear_graph::EdgeId, Weight)> = None;
            for &(y, e) in g.neighbors(x) {
                if y == x {
                    continue;
                }
                // Once a tight edge is in hand, only a smaller edge id
                // can displace it — skip the probe for the rest (same
                // selected edge as the unfiltered scan, so the output
                // stays bit-identical to legacy).
                if next.is_some_and(|(_, be, _)| e >= be) {
                    continue;
                }
                let dy = d_to_target(y);
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

    /// The decomposition plan this engine serves.
    pub fn plan(&self) -> &Arc<DecompPlan> {
        &self.plan
    }

    /// Total gateway records across all vertices.
    pub fn gateway_records(&self) -> usize {
        self.tables.gw.len()
    }

    /// Entries in the fused arena (`a² + Σ nᵢ²`).
    pub fn arena_entries(&self) -> usize {
        self.topo.arena_len
    }

    /// True when `other` shares this engine's routing topology allocation
    /// (always the case across [`Self::recustomized`] refreshes).
    pub fn shares_topology_with(&self, other: &QueryEngine) -> bool {
        Arc::ptr_eq(&self.topo, &other.topo)
    }

    /// True when `other` shares this engine's fused-arena allocation
    /// (the case exactly for no-op refreshes).
    pub fn shares_tables_with(&self, other: &QueryEngine) -> bool {
        Arc::ptr_eq(&self.tables, &other.tables)
    }

    /// The arena span of one block's table (tests: clean spans of a dirty
    /// refresh must be byte-identical to the parent's).
    pub fn block_span(&self, b: u32) -> &[Weight] {
        let h = self.topo.blocks[b as usize];
        &self.tables.arena[h.off..h.off + (h.n as usize).pow(2)]
    }

    /// The arena span of the AP table.
    pub fn ap_span(&self) -> &[Weight] {
        &self.tables.arena[..self.topo.ap_count * self.topo.ap_count]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{build_oracle, build_oracle_with_plan, ApspMethod};
    use ear_hetero::HeteroExecutor;

    /// triangle — bridge — square — pendant (same shape as the oracle
    /// tests).
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
    fn dist_matches_oracle_on_every_pair() {
        let g = mixed_graph();
        let exec = HeteroExecutor::sequential();
        let oracle = build_oracle(&g, &exec, ApspMethod::Ear);
        let q = QueryEngine::new(&oracle);
        for u in 0..g.n() as u32 {
            for v in 0..g.n() as u32 {
                assert_eq!(q.dist(u, v), oracle.dist(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn batch_matches_scalar() {
        let g = mixed_graph();
        let exec = HeteroExecutor::sequential();
        let oracle = build_oracle(&g, &exec, ApspMethod::Ear);
        let q = QueryEngine::new(&oracle);
        let all: Vec<u32> = (0..g.n() as u32).collect();
        let out = q.dist_batch(&all, &all);
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(out[u * g.n() + v], q.dist(u as u32, v as u32), "({u},{v})");
            }
        }
    }

    #[test]
    fn path_matches_legacy() {
        let g = mixed_graph();
        let exec = HeteroExecutor::sequential();
        let oracle = build_oracle(&g, &exec, ApspMethod::Ear);
        let q = QueryEngine::new(&oracle);
        for u in 0..g.n() as u32 {
            for v in 0..g.n() as u32 {
                assert_eq!(q.path(&g, u, v), oracle.path(&g, u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn disconnected_pairs_are_inf() {
        let g = CsrGraph::from_edges(5, &[(0, 1, 1), (2, 3, 1)]);
        let exec = HeteroExecutor::sequential();
        let oracle = build_oracle(&g, &exec, ApspMethod::Ear);
        let q = QueryEngine::new(&oracle);
        assert_eq!(q.dist(0, 2), INF);
        assert_eq!(q.dist(0, 4), INF); // isolated
        assert_eq!(q.dist(4, 4), 0);
        assert!(q.path(&g, 0, 2).is_none());
    }

    #[test]
    fn refresh_shares_topology_and_noop_shares_arena() {
        let g = mixed_graph();
        let exec = HeteroExecutor::sequential();
        let plan = Arc::new(DecompPlan::build(&g));
        let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Ear);
        let q = QueryEngine::new(&oracle);

        let w: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
        let noop_oracle = oracle.recustomized(Arc::new(plan.recustomized(&w)), &exec);
        let noop = q.recustomized(&noop_oracle);
        assert!(q.shares_topology_with(&noop));
        assert!(q.shares_tables_with(&noop));

        let mut w2 = w.clone();
        w2[0] = 50; // triangle block only
        let warm_plan = Arc::new(plan.recustomized(&w2));
        let dirty = warm_plan.dirty_blocks().to_vec();
        let warm_oracle = oracle.recustomized(Arc::clone(&warm_plan), &exec);
        let warm = q.recustomized(&warm_oracle);
        assert!(q.shares_topology_with(&warm));
        assert!(!q.shares_tables_with(&warm));
        // Clean spans are byte-identical memcpys of the parent arena.
        for b in 0..plan.n_blocks() as u32 {
            if !dirty.contains(&b) {
                assert_eq!(q.block_span(b), warm.block_span(b), "clean block {b}");
            }
        }
        // And the refreshed engine answers like a cold engine on the
        // refreshed oracle.
        let cold = QueryEngine::new(&warm_oracle);
        for u in 0..g.n() as u32 {
            for v in 0..g.n() as u32 {
                assert_eq!(warm.dist(u, v), cold.dist(u, v), "({u},{v})");
            }
        }
    }
}
