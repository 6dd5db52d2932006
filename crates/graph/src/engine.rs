//! Reusable zero-allocation SSSP engine with pooled scratch state.
//!
//! The paper's whole pipeline is "run one Dijkstra per source of the
//! reduced graph" (§2.1.2), so per-source constant factors dominate. The
//! free functions in [`crate::dijkstra`](mod@crate::dijkstra) allocate
//! four O(n) vectors and a heap per call; [`SsspEngine`] preallocates
//! them once and reuses them across runs:
//!
//! * **Generation-stamped scratch** — instead of clearing `dist`/`parent`
//!   arrays between runs, every write is tagged with the current run's
//!   generation number (`stamp[v] == gen` means "touched this run").
//!   Resetting is a single counter bump: O(1) per run, O(touched) total
//!   work instead of O(n). When the `u32` generation wraps, the stamps are
//!   cleared once in full so a stale stamp can never alias a new run.
//! * **Indexed 4-ary heap** — replaces the lazy-deletion `BinaryHeap` with
//!   a decrease-key heap keyed on `(dist, vertex)`. No stale entries, at
//!   most one slot per vertex, and the 4-way fanout keeps sift-downs cache
//!   friendly.
//! * **Engine pool** — [`with_engine`] hands out a per-thread engine
//!   (thread-local slot backed by a global free list), so the hot
//!   `kernel-per-source` loops in `ear-apsp` / `ear-mcb` / `ear-bc` reuse
//!   scratch even when the executor spawns fresh worker threads per batch.
//! * **Dial bucket queue for the large-graph regime** — once a block
//!   outgrows [`DIAL_MIN_N`] vertices, the heap's random `pos[]` writes
//!   and sift chains are the dominant cache-miss source. When every edge
//!   weight fits the bucket range (`1..DIAL_BUCKETS`), the engine swaps
//!   the heap for a circular array of [`DIAL_BUCKETS`] distance buckets:
//!   pushes append to a sequential `Vec`, pops drain one bucket at a
//!   time, and a [`DIAL_BUCKETS`]-bit occupancy mask skips empty buckets
//!   with word-level scans.
//!   Draining each bucket in ascending vertex order replicates the
//!   heap's `(dist, vertex)` pop order *exactly* (with strictly positive
//!   weights, no relaxation from a distance-`d` vertex can create
//!   another distance-`d` entry), so the fast path stays bit-identical.
//! * **Two-level overflow above the bucket range** — chain contraction
//!   re-weights a reduced edge to its whole chain's weight sum, so a
//!   single chain of ≥ [`DIAL_BUCKETS`] unit edges used to push its
//!   entire block back onto the heap. Weights in
//!   `DIAL_BUCKETS..DIAL_WEIGHT_LIMIT` now keep the bucket path: the
//!   buckets hold a **fixed window** of [`DIAL_BUCKETS`] consecutive
//!   distances, tentative distances past the window park in a flat
//!   overflow list, and whenever the window drains the engine jumps it
//!   to the smallest parked distance and promotes everything now in
//!   range. Equal distances always land on the same side of the window
//!   boundary, so each bucket still drains complete and sorted — the
//!   settle order (and every downstream bit) is unchanged. Only weights
//!   at or above [`DIAL_WEIGHT_LIMIT`] (or zero-weight edges) still fall
//!   back to the heap, ticking `sssp.dial.range_fallback`.
//!
//! Results are **bit-identical** to the legacy free functions
//! ([`crate::dijkstra::legacy`]): the lazy-deletion heap always pops the
//! minimum `(dist, vertex)` among unsettled touched vertices, which is
//! exactly the key this heap orders by, so the settle order — and with it
//! every distance, parent choice, and statistic — is the same. The
//! deterministic `(distance, vertex, edge)` parent tie-break is shared
//! verbatim. `heap_pushes` counts every strictly-improving relaxation even
//! when it is implemented as a decrease-key or a bucket append rather
//! than a push.

use std::cell::RefCell;
use std::sync::Mutex;

use crate::csr::CsrGraph;
use crate::dijkstra::{tie_prefers, DijkstraStats, SsspTree};
use crate::types::{EdgeId, VertexId, Weight, INF};
use crate::view::CsrView;

/// `pos` sentinel: touched this generation but not currently in the heap
/// (either settled-and-popped is tracked by [`SETTLED`], or never pushed —
/// a vertex whose only known "distance" is the `INF` parent-tie case).
const NOT_IN_HEAP: u32 = u32::MAX;
/// `pos` sentinel: settled (popped from the heap) this generation.
const SETTLED: u32 = u32::MAX - 1;

/// Below this vertex count the indexed heap wins: the whole working set is
/// cache-resident, so the bucket array's footprint and the per-run weight
/// scan cost more than the heap's sifts save.
pub const DIAL_MIN_N: usize = 256;
/// Bucket count of the Dial fast path (power of two). Tentative distances
/// span at most `max_weight <= DIAL_BUCKETS - 1` above the settling
/// distance, so `d % DIAL_BUCKETS` is collision-free and the occupancy
/// mask is a fixed 128 words. The range is sized for *reduced* blocks,
/// not just raw ones: chain contraction re-weights a reduced edge to the
/// whole chain's weight sum, so blocks that left the reducer carry
/// weights far above the raw generator range.
pub const DIAL_BUCKETS: usize = 8192;
const DIAL_MASK_WORDS: usize = DIAL_BUCKETS / 64;
/// Upper weight bound (exclusive) of the two-level Dial path. Weights in
/// `DIAL_BUCKETS..DIAL_WEIGHT_LIMIT` run through the overflow level: an
/// out-of-window push parks in a flat list and is re-scanned once per
/// window jump, so an entry is touched at most
/// `DIAL_WEIGHT_LIMIT / DIAL_BUCKETS + 1` times before it settles. 128
/// window spans keeps that rescan bound small while covering the chain
/// weights (tens of thousands) that reduced blocks actually produce;
/// anything heavier falls back to the heap.
pub const DIAL_WEIGHT_LIMIT: usize = DIAL_BUCKETS * 128;

/// Which priority queue a run takes (see [`SsspEngine::dial_mode`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DialMode {
    /// Sliding-window Dial buckets: all weights in `1..DIAL_BUCKETS`.
    Plain,
    /// Fixed-window Dial buckets plus the overflow level: all weights in
    /// `1..DIAL_WEIGHT_LIMIT`, at least one `>= DIAL_BUCKETS`.
    Overflow,
    /// Indexed 4-ary heap: small graph, zero weights, or weights past
    /// [`DIAL_WEIGHT_LIMIT`].
    Heap,
}

/// Per-vertex hot state, packed so one relaxation touches one cache line
/// instead of three separate arrays.
#[derive(Clone, Copy, Debug)]
struct VertexState {
    /// Tentative distance; meaningful while `stamp == ` the engine's gen.
    dist: Weight,
    /// Generation tag: equal to the engine's `gen` iff touched this run.
    stamp: u32,
    /// Heap slot, or [`NOT_IN_HEAP`] / [`SETTLED`].
    pos: u32,
}

/// Per-vertex tree state (written only by [`SsspEngine::run_tree`]).
#[derive(Clone, Copy, Debug)]
struct ParentState {
    vertex: VertexId,
    edge: EdgeId,
    depth: u32,
}

/// A reusable Dijkstra instance: preallocated arrays, generation-stamp
/// lazy reset, indexed 4-ary decrease-key heap.
///
/// One engine serves one run at a time; query methods ([`dist`](Self::dist),
/// [`dist_vec`](Self::dist_vec), [`tree`](Self::tree),
/// [`settle_order`](Self::settle_order)) read the most recent run. Engines
/// grow monotonically to the largest graph they have seen and can be reused
/// across graphs of different sizes.
#[derive(Debug)]
pub struct SsspEngine {
    /// Current generation; `state[v].stamp == gen` marks `v` as touched.
    gen: u32,
    /// Vertex count of the most recent run's graph.
    n: usize,
    /// Source of the most recent run.
    source: VertexId,
    /// Whether the most recent run recorded parent pointers.
    tree_run: bool,
    state: Vec<VertexState>,
    /// Parent pointers; stale (ignored) for distances-only runs.
    parent: Vec<ParentState>,
    /// The 4-ary heap: `(dist, vertex)` entries, keys inline for
    /// cache-local comparisons.
    heap: Vec<(Weight, VertexId)>,
    /// Dial fast path: `buckets[d % DIAL_BUCKETS]` holds vertices whose
    /// tentative distance is `d`. Lazily sized to [`DIAL_BUCKETS`] on the
    /// first bucket run; always fully drained (empty) between runs.
    buckets: Vec<Vec<VertexId>>,
    /// Occupancy bit per bucket, so advancing past empty buckets costs a
    /// word scan instead of a per-bucket probe.
    bucket_live: [u64; DIAL_MASK_WORDS],
    /// Overflow level of the two-level Dial path: `(dist, vertex)` entries
    /// whose tentative distance lies past the current bucket window,
    /// promoted in bulk when the window jumps. Always drained (empty)
    /// between runs.
    overflow: Vec<(Weight, VertexId)>,
    /// Every vertex written this run (superset of `order`).
    touched: Vec<VertexId>,
    /// Settle order of the most recent run (non-decreasing distance).
    order: Vec<VertexId>,
    stats: DijkstraStats,
}

impl Default for SsspEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SsspEngine {
    /// An empty engine; arrays grow on first use.
    pub fn new() -> Self {
        SsspEngine {
            gen: 0,
            n: 0,
            source: 0,
            tree_run: false,
            state: Vec::new(),
            parent: Vec::new(),
            heap: Vec::new(),
            buckets: Vec::new(),
            bucket_live: [0; DIAL_MASK_WORDS],
            overflow: Vec::new(),
            touched: Vec::new(),
            order: Vec::new(),
            stats: DijkstraStats::default(),
        }
    }

    /// Grows the scratch arrays to hold `n` vertices (never shrinks).
    pub fn ensure_capacity(&mut self, n: usize) {
        if self.state.len() < n {
            // New stamp entries are 0; the generation is bumped to >= 1
            // before every run, so 0 can never equal a live generation.
            self.state.resize(
                n,
                VertexState {
                    dist: INF,
                    stamp: 0,
                    pos: NOT_IN_HEAP,
                },
            );
            self.parent.resize(
                n,
                ParentState {
                    vertex: u32::MAX,
                    edge: u32::MAX,
                    depth: 0,
                },
            );
        }
    }

    /// Distances-only run (no parent bookkeeping). Returns the run's
    /// operation counters.
    pub fn run(&mut self, g: &CsrGraph, source: VertexId) -> DijkstraStats {
        self.run_inner::<false>(g.view(), source)
    }

    /// Full shortest-path-tree run with the deterministic
    /// `(distance, vertex, edge)` parent tie-break.
    pub fn run_tree(&mut self, g: &CsrGraph, source: VertexId) -> DijkstraStats {
        self.run_inner::<true>(g.view(), source)
    }

    /// [`run`](Self::run) on a borrowed [`CsrView`] (whole graph or arena
    /// block window) — the same code path, so results are bit-identical.
    pub fn run_view(&mut self, g: CsrView<'_>, source: VertexId) -> DijkstraStats {
        self.run_inner::<false>(g, source)
    }

    /// [`run_tree`](Self::run_tree) on a borrowed [`CsrView`].
    pub fn run_tree_view(&mut self, g: CsrView<'_>, source: VertexId) -> DijkstraStats {
        self.run_inner::<true>(g, source)
    }

    // Monomorphised on `WANT_TREE` so the distances-only path carries no
    // per-edge tree branches at all.
    fn run_inner<const WANT_TREE: bool>(
        &mut self,
        g: CsrView<'_>,
        source: VertexId,
    ) -> DijkstraStats {
        let _span = ear_obs::span_with("sssp.run", source as u64);
        let n = g.n();
        assert!((source as usize) < n, "source out of range");
        // Heap positions < n must stay clear of the two sentinels.
        assert!(
            n <= (u32::MAX - 2) as usize,
            "graph too large for SsspEngine"
        );
        self.ensure_capacity(n);
        self.bump_gen();
        // Restore the resting invariant `dist == INF, pos == NOT_IN_HEAP`
        // for everything the previous run wrote — O(touched), and it keeps
        // the hot relaxation below at a single `nd < dist` compare, with no
        // stamp check on the fast path. (Parent state is *not* reset here;
        // the generation stamp guards its validity lazily.)
        for &v in &self.touched {
            let vi = v as usize;
            self.state[vi].dist = INF;
            self.state[vi].pos = NOT_IN_HEAP;
        }
        self.n = n;
        self.source = source;
        self.tree_run = WANT_TREE;
        self.heap.clear();
        self.overflow.clear();
        self.touched.clear();
        self.order.clear();
        self.stats = DijkstraStats::default();

        let s = source as usize;
        self.state[s] = VertexState {
            dist: 0,
            stamp: self.gen,
            pos: NOT_IN_HEAP,
        };
        if WANT_TREE {
            self.parent[s] = ParentState {
                vertex: u32::MAX,
                edge: u32::MAX,
                depth: 0,
            };
        }
        self.touched.push(source);

        let (edges_relaxed, heap_pushes) = match self.dial_mode(g) {
            DialMode::Plain => self.run_buckets::<WANT_TREE, false>(g),
            DialMode::Overflow => self.run_buckets::<WANT_TREE, true>(g),
            DialMode::Heap => self.run_heap::<WANT_TREE>(g),
        };
        self.stats.settled = self.order.len() as u64;
        self.stats.edges_relaxed = edges_relaxed;
        self.stats.heap_pushes = heap_pushes;
        if ear_obs::is_enabled() {
            ear_obs::counter_add("sssp.runs", 1);
            ear_obs::counter_add("sssp.settled", self.stats.settled);
            ear_obs::counter_add("sssp.edges_relaxed", edges_relaxed);
            ear_obs::counter_add("sssp.heap_pushes", heap_pushes);
            ear_obs::histogram_record("sssp.settled_per_run", self.stats.settled);
        }
        self.stats
    }

    /// Picks the queue for this run: the heap for small graphs (the whole
    /// working set is cache-resident anyway), zero weights (they break the
    /// bucket invariant) and weights at or above [`DIAL_WEIGHT_LIMIT`];
    /// the plain sliding-window Dial path when every weight fits the
    /// bucket span; and the two-level overflow Dial path in between. One
    /// sequential pass over the incidence weight window decides.
    ///
    /// When a large-enough positive-weight graph is forced onto the heap
    /// purely by weight range — the case a weight recustomization can
    /// newly trigger — the `sssp.dial.range_fallback` counter records it.
    #[inline]
    fn dial_mode(&self, g: CsrView<'_>) -> DialMode {
        if g.n() <= DIAL_MIN_N {
            return DialMode::Heap;
        }
        let mut max_w: Weight = 0;
        for &w in g.incidence_weights() {
            if w == 0 {
                return DialMode::Heap;
            }
            max_w = max_w.max(w);
        }
        if max_w <= (DIAL_BUCKETS - 1) as Weight {
            DialMode::Plain
        } else if max_w < DIAL_WEIGHT_LIMIT as Weight {
            DialMode::Overflow
        } else {
            if ear_obs::is_enabled() {
                ear_obs::counter_add("sssp.dial.range_fallback", 1);
            }
            DialMode::Heap
        }
    }

    /// The indexed-heap main loop (the general path: any weights, any
    /// size). Assumes the prologue has seeded `state[source]`.
    fn run_heap<const WANT_TREE: bool>(&mut self, g: CsrView<'_>) -> (u64, u64) {
        self.heap_insert(0, self.source);

        // Counters live in locals so the optimiser keeps them in registers
        // across the loop body (incrementing through `&mut self` would
        // force a load/store per edge next to the other `self` accesses).
        let gen = self.gen;
        let mut edges_relaxed = 0u64;
        let mut heap_pushes = 0u64;

        while let Some((du, u)) = self.heap_pop_min() {
            self.order.push(u);
            let u_depth = if WANT_TREE {
                self.parent[u as usize].depth
            } else {
                0
            };
            let (adj, wts) = g.incidences(u);
            for (&(v, e), &w) in adj.iter().zip(wts) {
                edges_relaxed += 1;
                if v == u {
                    continue; // self-loops never improve a distance
                }
                // `w == g.weight(e)` by the parallel-slice invariant; the
                // zipped stream replaces a random 16-byte `edges[e]` gather
                // per relaxation.
                let nd = du + w;
                let vi = v as usize;
                // The resting invariant (untouched reads as INF /
                // NOT_IN_HEAP) makes this the same single data-dependent
                // compare as the legacy loop's `nd < dist[v]`.
                let st = self.state[vi];
                let strictly_better = nd < st.dist;
                // `nd == dist == INF` on an untouched vertex replicates the
                // legacy parent-tie against the (u32::MAX, u32::MAX)
                // sentinel pair, which always prefers the real `(u, e)`.
                // A settled vertex (pos == SETTLED) never changes: with
                // non-negative weights nd >= dist, and the legacy tie
                // branch requires an unsettled vertex.
                let tie_better = WANT_TREE && nd == st.dist && st.pos != SETTLED && {
                    let (pv, pe) = if st.stamp == gen {
                        let p = self.parent[vi];
                        (p.vertex, p.edge)
                    } else {
                        (u32::MAX, u32::MAX)
                    };
                    tie_prefers(u, e, pv, pe)
                };
                if strictly_better || tie_better {
                    if st.stamp != gen {
                        self.state[vi].stamp = gen;
                        self.touched.push(v);
                    }
                    self.state[vi].dist = nd;
                    if WANT_TREE {
                        self.parent[vi] = ParentState {
                            vertex: u,
                            edge: e,
                            depth: u_depth + 1,
                        };
                    }
                    if strictly_better {
                        if st.pos == NOT_IN_HEAP {
                            self.heap_insert(nd, v);
                        } else {
                            self.heap_decrease(st.pos as usize, nd);
                        }
                        heap_pushes += 1;
                    }
                }
            }
        }
        (edges_relaxed, heap_pushes)
    }

    /// The Dial bucket-queue main loop, monomorphised on `OVERFLOW`:
    /// `false` is the plain sliding-window path (all weights inside the
    /// bucket span — no window bookkeeping at all), `true` is the
    /// two-level path whose buckets hold the fixed distance window
    /// `[window_end - DIAL_BUCKETS, window_end)` while farther tentative
    /// distances park in `self.overflow`. Both are bit-identical to
    /// [`run_heap`] (see the module docs for the settle-order argument):
    /// every bucket is drained in ascending vertex order, with strictly
    /// positive weights no relaxation from the settling distance can feed
    /// the bucket currently draining, and — in overflow mode — equal
    /// distances always land on the same side of `window_end`, so a
    /// bucket is always complete when it drains.
    ///
    /// [`run_heap`]: Self::run_heap
    fn run_buckets<const WANT_TREE: bool, const OVERFLOW: bool>(
        &mut self,
        g: CsrView<'_>,
    ) -> (u64, u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![Vec::new(); DIAL_BUCKETS];
        }
        let gen = self.gen;
        let mut edges_relaxed = 0u64;
        let mut heap_pushes = 0u64;
        // Total entries across all buckets, stale ones included — the
        // window is exhausted exactly when the circular array is empty,
        // which also restores the "all buckets drained" resting invariant.
        let mut entries = 1usize;
        self.buckets[0].push(self.source);
        self.bucket_live[0] |= 1;
        let mut cur_i = 0usize;
        let mut cur_d: Weight = 0;
        // Exclusive upper distance bound of the bucket window (overflow
        // mode only; the plain path's invariant `nd < cur_d +
        // DIAL_BUCKETS` needs no tracking).
        let mut window_end: Weight = DIAL_BUCKETS as Weight;
        loop {
            if entries == 0 {
                if !OVERFLOW || self.overflow.is_empty() {
                    break;
                }
                // Window jump: the smallest parked distance is the true
                // next settle distance (every unsettled tentative
                // distance lives in the — empty — buckets or here), so
                // start the new window at it and promote everything now
                // in range. Stale parked entries promote harmlessly: the
                // settled/superseded check at drain time skips them.
                let base = self
                    .overflow
                    .iter()
                    .map(|&(d, _)| d)
                    .min()
                    .expect("overflow is non-empty");
                cur_d = base;
                cur_i = (base % DIAL_BUCKETS as Weight) as usize;
                window_end = base + DIAL_BUCKETS as Weight;
                let mut i = 0;
                while i < self.overflow.len() {
                    let (d, v) = self.overflow[i];
                    if d < window_end {
                        let b = (d % DIAL_BUCKETS as Weight) as usize;
                        self.buckets[b].push(v);
                        self.bucket_live[b / 64] |= 1u64 << (b % 64);
                        entries += 1;
                        self.overflow.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
            }
            let idx = self.next_live_bucket(cur_i);
            cur_d += ((idx + DIAL_BUCKETS - cur_i) % DIAL_BUCKETS) as Weight;
            cur_i = idx;
            self.bucket_live[idx / 64] &= !(1u64 << (idx % 64));
            let mut bucket = std::mem::take(&mut self.buckets[idx]);
            entries -= bucket.len();
            // Ascending vertex order within one distance replicates the
            // heap's (dist, vertex) pop order. A vertex appears at most
            // once per bucket (an equal-distance relaxation is not
            // strictly better), so the sort never reorders duplicates.
            bucket.sort_unstable();
            for &u in &bucket {
                let ui = u as usize;
                let st_u = self.state[ui];
                if st_u.pos == SETTLED || st_u.dist != cur_d {
                    continue; // superseded: improved into an earlier bucket
                }
                self.state[ui].pos = SETTLED;
                self.order.push(u);
                let u_depth = if WANT_TREE { self.parent[ui].depth } else { 0 };
                let (adj, wts) = g.incidences(u);
                for (&(v, e), &w) in adj.iter().zip(wts) {
                    edges_relaxed += 1;
                    if v == u {
                        continue; // self-loops never improve a distance
                    }
                    let nd = cur_d + w;
                    let vi = v as usize;
                    let st = self.state[vi];
                    let strictly_better = nd < st.dist;
                    // Same tie handling as the heap loop; see the
                    // comments there.
                    let tie_better = WANT_TREE && nd == st.dist && st.pos != SETTLED && {
                        let (pv, pe) = if st.stamp == gen {
                            let p = self.parent[vi];
                            (p.vertex, p.edge)
                        } else {
                            (u32::MAX, u32::MAX)
                        };
                        tie_prefers(u, e, pv, pe)
                    };
                    if strictly_better || tie_better {
                        if st.stamp != gen {
                            self.state[vi].stamp = gen;
                            self.touched.push(v);
                        }
                        self.state[vi].dist = nd;
                        if WANT_TREE {
                            self.parent[vi] = ParentState {
                                vertex: u,
                                edge: e,
                                depth: u_depth + 1,
                            };
                        }
                        if strictly_better {
                            if OVERFLOW && nd >= window_end {
                                self.overflow.push((nd, v));
                            } else {
                                let b = (nd % DIAL_BUCKETS as Weight) as usize;
                                self.buckets[b].push(v);
                                self.bucket_live[b / 64] |= 1u64 << (b % 64);
                                entries += 1;
                            }
                            heap_pushes += 1;
                        }
                    }
                }
            }
            bucket.clear();
            self.buckets[idx] = bucket;
        }
        (edges_relaxed, heap_pushes)
    }

    /// Index of the first occupied bucket at or (circularly) after
    /// `start`. Only called while `entries > 0`, so some bit is set.
    #[inline]
    fn next_live_bucket(&self, start: usize) -> usize {
        let mut wi = start / 64;
        let mut m = self.bucket_live[wi] & (!0u64 << (start % 64));
        loop {
            if m != 0 {
                return wi * 64 + m.trailing_zeros() as usize;
            }
            wi = (wi + 1) % DIAL_MASK_WORDS;
            m = self.bucket_live[wi];
        }
    }

    /// Distance to `v` from the most recent run's source (`INF` when
    /// unreachable or out of range).
    #[inline]
    pub fn dist(&self, v: VertexId) -> Weight {
        let vi = v as usize;
        if vi < self.n && self.state[vi].stamp == self.gen {
            self.state[vi].dist
        } else {
            INF
        }
    }

    /// Materialises the most recent run's distance array (`INF` for
    /// untouched vertices).
    pub fn dist_vec(&self) -> Vec<Weight> {
        let mut out = vec![INF; self.n];
        for &v in &self.touched {
            out[v as usize] = self.state[v as usize].dist;
        }
        out
    }

    /// Settle order of the most recent run: vertices in the order they
    /// were popped, i.e. non-decreasing distance.
    pub fn settle_order(&self) -> &[VertexId] {
        &self.order
    }

    /// Every vertex the most recent run wrote (a superset of
    /// [`settle_order`](Self::settle_order)), in first-touch order.
    pub fn touched(&self) -> &[VertexId] {
        &self.touched
    }

    /// True iff `v` was settled (popped) by the most recent run.
    pub fn is_settled(&self, v: VertexId) -> bool {
        let vi = v as usize;
        vi < self.n && self.state[vi].stamp == self.gen && self.state[vi].pos == SETTLED
    }

    /// Parent vertex of `v` in the most recent tree run (`u32::MAX` at the
    /// source and at untouched vertices).
    pub fn parent_vertex(&self, v: VertexId) -> VertexId {
        debug_assert!(self.tree_run, "parents require a run_tree()");
        let vi = v as usize;
        if vi < self.n && self.state[vi].stamp == self.gen {
            self.parent[vi].vertex
        } else {
            u32::MAX
        }
    }

    /// Parent edge of `v` in the most recent tree run (`u32::MAX` at the
    /// source and at untouched vertices).
    pub fn parent_edge(&self, v: VertexId) -> EdgeId {
        debug_assert!(self.tree_run, "parents require a run_tree()");
        let vi = v as usize;
        if vi < self.n && self.state[vi].stamp == self.gen {
            self.parent[vi].edge
        } else {
            u32::MAX
        }
    }

    /// Operation counters of the most recent run.
    #[inline]
    pub fn stats(&self) -> DijkstraStats {
        self.stats
    }

    /// Source vertex of the most recent run.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Materialises the most recent [`run_tree`](Self::run_tree) as an
    /// owned [`SsspTree`], bit-identical to what
    /// [`crate::dijkstra::dijkstra_tree`] returns.
    ///
    /// # Panics
    /// Panics if the most recent run was distances-only.
    pub fn tree(&self) -> SsspTree {
        assert!(
            self.tree_run,
            "SsspEngine::tree() requires a preceding run_tree()"
        );
        let n = self.n;
        let mut dist = vec![INF; n];
        let mut parent_vertex = vec![u32::MAX; n];
        let mut parent_edge = vec![u32::MAX; n];
        let mut depths = vec![0u32; n];
        for &v in &self.touched {
            let vi = v as usize;
            dist[vi] = self.state[vi].dist;
            parent_vertex[vi] = self.parent[vi].vertex;
            parent_edge[vi] = self.parent[vi].edge;
            depths[vi] = self.parent[vi].depth;
        }
        SsspTree {
            source: self.source,
            dist,
            parent_vertex,
            parent_edge,
            depths,
            settle_order: self.order.clone(),
            stats: self.stats,
        }
    }

    /// Current generation counter (testing / introspection).
    pub fn generation(&self) -> u32 {
        self.gen
    }

    /// Testing hook: jump the generation counter (e.g. to just below
    /// `u32::MAX`) to exercise the wraparound path. Clears every stamp so
    /// the "no stamp exceeds the generation" invariant is preserved.
    pub fn jump_generation(&mut self, gen: u32) {
        self.gen = gen;
        for st in &mut self.state {
            st.stamp = 0;
        }
    }

    fn bump_gen(&mut self) {
        if self.gen == u32::MAX {
            // Wraparound: clear all stamps once so values from the
            // previous epoch can never alias the restarted counter.
            for st in &mut self.state {
                st.stamp = 0;
            }
            self.gen = 1;
        } else {
            self.gen += 1;
        }
    }

    // ---- indexed 4-ary heap keyed on (dist, vertex) ----
    //
    // Entries carry their key `(dist, vertex)` inline so sift comparisons
    // stay cache-local instead of chasing random `dist[]` loads — the
    // difference between winning and losing to the legacy lazy-deletion
    // heap once the distance array outgrows L2.

    #[inline(always)]
    fn heap_insert(&mut self, key: Weight, v: VertexId) {
        let i = self.heap.len();
        self.heap.push((key, v));
        self.sift_up(i);
    }

    /// Lowers the key of the entry at heap slot `i` and restores order.
    #[inline(always)]
    fn heap_decrease(&mut self, i: usize, key: Weight) {
        debug_assert!(self.heap[i].0 >= key);
        self.heap[i].0 = key;
        self.sift_up(i);
    }

    #[inline(always)]
    fn heap_pop_min(&mut self) -> Option<(Weight, VertexId)> {
        let top = *self.heap.first()?;
        self.state[top.1 as usize].pos = SETTLED;
        let last = self.heap.pop().expect("heap is non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }

    /// Hole-based sift: the moving entry is written (and its `pos` stamped)
    /// once at its final slot, displaced entries move one hop each.
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let p = (i - 1) / 4;
            let parent = self.heap[p];
            if entry < parent {
                self.heap[i] = parent;
                self.state[parent.1 as usize].pos = i as u32;
                i = p;
            } else {
                break;
            }
        }
        self.heap[i] = entry;
        self.state[entry.1 as usize].pos = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let len = self.heap.len();
        loop {
            let first = 4 * i + 1;
            if first >= len {
                break;
            }
            let end = (first + 4).min(len);
            let mut best = first;
            let mut best_entry = self.heap[first];
            for c in first + 1..end {
                if self.heap[c] < best_entry {
                    best = c;
                    best_entry = self.heap[c];
                }
            }
            if best_entry < entry {
                self.heap[i] = best_entry;
                self.state[best_entry.1 as usize].pos = i as u32;
                i = best;
            } else {
                break;
            }
        }
        self.heap[i] = entry;
        self.state[entry.1 as usize].pos = i as u32;
    }
}

// ---- per-thread engine pool ----

/// Global free list feeding threads that have no engine yet. Bounded so a
/// burst of short-lived worker threads cannot hoard memory forever.
static FREE_ENGINES: Mutex<Vec<SsspEngine>> = Mutex::new(Vec::new());
const MAX_POOLED: usize = 64;

thread_local! {
    static TLS_ENGINE: RefCell<TlsSlot> = const { RefCell::new(TlsSlot(None)) };
}

/// Thread-local engine slot whose `Drop` returns the engine to the global
/// free list — essential because the executor / rayon shim spawn fresh
/// scoped worker threads per batch, so warm engines must outlive threads.
struct TlsSlot(Option<SsspEngine>);

impl Drop for TlsSlot {
    fn drop(&mut self) {
        if let Some(e) = self.0.take() {
            recycle(e);
        }
    }
}

fn recycle(e: SsspEngine) {
    if let Ok(mut free) = FREE_ENGINES.lock() {
        if free.len() < MAX_POOLED {
            free.push(e);
        }
    }
}

fn checkout() -> SsspEngine {
    if let Ok(Some(e)) = TLS_ENGINE.try_with(|slot| slot.borrow_mut().0.take()) {
        ear_obs::counter_add("sssp.pool.tls_hits", 1);
        return e;
    }
    if let Some(e) = FREE_ENGINES.lock().ok().and_then(|mut v| v.pop()) {
        ear_obs::counter_add("sssp.pool.freelist_hits", 1);
        return e;
    }
    ear_obs::counter_add("sssp.pool.misses", 1);
    SsspEngine::default()
}

fn checkin(e: SsspEngine) {
    match TLS_ENGINE.try_with(|slot| slot.borrow_mut().0.replace(e)) {
        // Nested `with_engine` calls can displace an engine; keep both.
        Ok(Some(displaced)) => recycle(displaced),
        Ok(None) => {}
        // Thread is tearing down: the engine is dropped with the closure.
        Err(_) => {}
    }
}

/// Runs `f` with a pooled per-thread [`SsspEngine`].
///
/// The engine comes from (in order) the calling thread's slot, the global
/// free list, or a fresh allocation; afterwards it is parked back in the
/// thread's slot. Warm scratch therefore survives both sequential loops on
/// one thread and repeated fan-outs over short-lived worker threads.
pub fn with_engine<R>(f: impl FnOnce(&mut SsspEngine) -> R) -> R {
    let mut engine = checkout();
    let r = f(&mut engine);
    checkin(engine);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::legacy;

    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
    }

    #[test]
    fn matches_legacy_distances_and_stats() {
        let g = diamond();
        let mut e = SsspEngine::new();
        for s in 0..4u32 {
            let stats = e.run(&g, s);
            let (ld, ls) = legacy::dijkstra_with_stats(&g, s);
            assert_eq!(e.dist_vec(), ld);
            assert_eq!(stats, ls);
        }
    }

    #[test]
    fn matches_legacy_tree() {
        let g = diamond();
        let mut e = SsspEngine::new();
        e.run_tree(&g, 0);
        let mine = e.tree();
        let theirs = legacy::dijkstra_tree(&g, 0);
        assert_eq!(mine.dist, theirs.dist);
        assert_eq!(mine.parent_vertex, theirs.parent_vertex);
        assert_eq!(mine.parent_edge, theirs.parent_edge);
        assert_eq!(mine.depths, theirs.depths);
        assert_eq!(mine.settle_order, theirs.settle_order);
        assert_eq!(mine.stats, theirs.stats);
    }

    #[test]
    fn reuse_across_graphs_of_different_sizes() {
        let big = CsrGraph::from_edges(6, &[(0, 1, 2), (1, 2, 2), (2, 3, 2), (4, 5, 1)]);
        let small = CsrGraph::from_edges(2, &[(0, 1, 7)]);
        let mut e = SsspEngine::new();
        e.run(&big, 0);
        assert_eq!(e.dist_vec(), legacy::dijkstra(&big, 0));
        e.run(&small, 1);
        assert_eq!(e.dist_vec(), legacy::dijkstra(&small, 1));
        assert_eq!(e.dist_vec().len(), 2);
        e.run(&big, 4);
        assert_eq!(e.dist_vec(), legacy::dijkstra(&big, 4));
    }

    #[test]
    fn generation_wraparound_is_transparent() {
        let g = diamond();
        let mut e = SsspEngine::new();
        e.run(&g, 0); // populate stamps with a live generation
        e.jump_generation(u32::MAX - 2);
        for s in [0u32, 1, 2, 3, 0, 1] {
            // Crosses the u32::MAX boundary mid-sequence.
            e.run(&g, s);
            assert_eq!(e.dist_vec(), legacy::dijkstra(&g, s));
        }
        assert!(e.generation() < 10, "generation restarted after wrap");
    }

    #[test]
    fn pooled_engine_is_reused_on_one_thread() {
        let g = diamond();
        let d0 = with_engine(|e| {
            e.run(&g, 0);
            e.dist_vec()
        });
        let d0_again = with_engine(|e| {
            assert!(e.generation() > 0, "engine carries state across calls");
            e.run(&g, 0);
            e.dist_vec()
        });
        assert_eq!(d0, d0_again);
    }

    /// Deterministic multigraph (parallel edges and self-loops possible)
    /// from a splitmix-style LCG — big enough to cross [`DIAL_MIN_N`].
    fn random_graph(n: usize, m: usize, wmax: u64, seed: u64) -> CsrGraph {
        let mut s = seed | 1;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        let edges: Vec<(u32, u32, Weight)> = (0..m)
            .map(|_| {
                (
                    (next() % n as u64) as u32,
                    (next() % n as u64) as u32,
                    1 + next() % wmax,
                )
            })
            .collect();
        CsrGraph::from_edges(n, &edges)
    }

    fn assert_matches_legacy(g: &CsrGraph, sources: &[u32]) {
        let mut e = SsspEngine::new();
        for &s in sources {
            let stats = e.run(g, s);
            let (ld, ls) = legacy::dijkstra_with_stats(g, s);
            assert_eq!(e.dist_vec(), ld, "dist mismatch from source {s}");
            assert_eq!(stats, ls, "stats mismatch from source {s}");
            e.run_tree(g, s);
            let mine = e.tree();
            let theirs = legacy::dijkstra_tree(g, s);
            assert_eq!(mine.dist, theirs.dist);
            assert_eq!(mine.parent_vertex, theirs.parent_vertex);
            assert_eq!(mine.parent_edge, theirs.parent_edge);
            assert_eq!(mine.depths, theirs.depths);
            assert_eq!(mine.settle_order, theirs.settle_order);
            assert_eq!(mine.stats, theirs.stats);
        }
    }

    #[test]
    fn bucket_path_matches_legacy_at_scale() {
        // n > DIAL_MIN_N with in-range weights selects the Dial path;
        // distances, trees, settle order, and stats stay bit-identical.
        let g = random_graph(400, 1600, 100, 99);
        assert_matches_legacy(&g, &[0, 7, 399]);
    }

    #[test]
    fn bucket_path_handles_equal_weight_ties() {
        // Unit weights maximise equal-distance buckets, stressing the
        // ascending-vertex drain order and the parent tie-break.
        let g = random_graph(300, 2400, 1, 5);
        assert_matches_legacy(&g, &[0, 123, 299]);
    }

    #[test]
    fn bucket_wraparound_on_long_paths() {
        // A path of near-maximal weights makes distances wrap the
        // circular bucket array hundreds of times.
        let edges: Vec<(u32, u32, Weight)> = (0..499u32)
            .map(|i| (i, i + 1, DIAL_BUCKETS as Weight - 2))
            .collect();
        let g = CsrGraph::from_edges(500, &edges);
        assert_matches_legacy(&g, &[0, 250]);
    }

    #[test]
    fn overflow_path_matches_legacy_at_scale() {
        // Weights far above the bucket span select the two-level overflow
        // path; distances, trees, settle order, and stats stay
        // bit-identical to the heap baseline.
        let g = random_graph(400, 1600, 100_000, 77);
        assert_eq!(
            SsspEngine::new().dial_mode(g.view()),
            DialMode::Overflow,
            "fixture must exercise the overflow path"
        );
        assert_matches_legacy(&g, &[0, 7, 399]);
    }

    #[test]
    fn overflow_equal_weight_ties_across_windows() {
        // One constant overflow-range weight makes whole distance levels
        // collide, each level landing a fresh window jump away — the
        // promote-then-sorted-drain order must still match the heap.
        let g = random_graph(300, 2400, 1, 5);
        let edges: Vec<(u32, u32, Weight)> = g.edges().iter().map(|e| (e.u, e.v, 10_000)).collect();
        let g = CsrGraph::from_edges(300, &edges);
        assert_eq!(SsspEngine::new().dial_mode(g.view()), DialMode::Overflow);
        assert_matches_legacy(&g, &[0, 123, 299]);
    }

    #[test]
    fn overflow_window_jumps_on_heavy_chains() {
        // Alternating tiny and near-limit weights force entries onto both
        // sides of every window boundary, and the total distance crosses
        // tens of thousands of windows.
        let edges: Vec<(u32, u32, Weight)> = (0..499u32)
            .map(|i| {
                let w = if i % 2 == 0 {
                    DIAL_WEIGHT_LIMIT as Weight - 1
                } else {
                    3
                };
                (i, i + 1, w)
            })
            .collect();
        let g = CsrGraph::from_edges(500, &edges);
        assert_eq!(SsspEngine::new().dial_mode(g.view()), DialMode::Overflow);
        assert_matches_legacy(&g, &[0, 250, 499]);
    }

    #[test]
    fn dial_mode_boundary_weights() {
        let _guard = RANGE_FALLBACK_LOCK.lock().unwrap();
        let chain = |w: Weight| {
            let edges: Vec<(u32, u32, Weight)> = (0..399u32).map(|i| (i, i + 1, w)).collect();
            CsrGraph::from_edges(400, &edges)
        };
        let e = SsspEngine::new();
        assert_eq!(
            e.dial_mode(chain(DIAL_BUCKETS as Weight - 1).view()),
            DialMode::Plain
        );
        assert_eq!(
            e.dial_mode(chain(DIAL_BUCKETS as Weight).view()),
            DialMode::Overflow
        );
        assert_eq!(
            e.dial_mode(chain(DIAL_WEIGHT_LIMIT as Weight - 1).view()),
            DialMode::Overflow
        );
        assert_eq!(
            e.dial_mode(chain(DIAL_WEIGHT_LIMIT as Weight).view()),
            DialMode::Heap
        );
    }

    /// Serialises the tests that run overweight graphs against the global
    /// `sssp.dial.range_fallback` counter, so the exact-delta assertion
    /// below cannot race with a concurrent fallback run.
    static RANGE_FALLBACK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn wide_weights_fall_back_to_the_heap() {
        let _guard = RANGE_FALLBACK_LOCK.lock().unwrap();
        // A single weight at or above DIAL_WEIGHT_LIMIT keeps the whole
        // run on the heap path — same results either way.
        let mut edges: Vec<(u32, u32, Weight)> = (0..499u32).map(|i| (i, i + 1, 3)).collect();
        edges.push((0, 499, DIAL_WEIGHT_LIMIT as Weight + 7));
        let g = CsrGraph::from_edges(500, &edges);
        assert_eq!(SsspEngine::new().dial_mode(g.view()), DialMode::Heap);
        assert_matches_legacy(&g, &[0, 499]);
    }

    #[test]
    fn range_fallback_counter_counts_overweight_heap_runs() {
        // Same shape as `wide_weights_fall_back_to_the_heap`: big enough
        // for Dial, pushed to the heap only by one edge past the overflow
        // limit. With observability on, each such run must tick the
        // fallback counter — and runs that miss Dial for other reasons
        // (small graph, zero weight) or that the overflow level now
        // absorbs (weight >= DIAL_BUCKETS but < DIAL_WEIGHT_LIMIT) must
        // not: the overflow family's delta is exactly zero.
        let mut edges: Vec<(u32, u32, Weight)> = (0..499u32).map(|i| (i, i + 1, 3)).collect();
        edges.push((0, 499, DIAL_WEIGHT_LIMIT as Weight + 7));
        let overweight = CsrGraph::from_edges(500, &edges);
        let small = diamond();
        let mut zero_edges: Vec<(u32, u32, Weight)> = (0..499u32).map(|i| (i, i + 1, 3)).collect();
        zero_edges.push((0, 499, 0));
        let zero_weight = CsrGraph::from_edges(500, &zero_edges);
        let mut of_edges: Vec<(u32, u32, Weight)> = (0..499u32).map(|i| (i, i + 1, 3)).collect();
        of_edges.push((0, 499, DIAL_BUCKETS as Weight + 7));
        let overflow_family = CsrGraph::from_edges(500, &of_edges);

        let _guard = RANGE_FALLBACK_LOCK.lock().unwrap();
        ear_obs::enable();
        let before = ear_obs::counter_value("sssp.dial.range_fallback");
        let mut e = SsspEngine::new();
        e.run(&overweight, 0);
        e.run(&overweight, 499);
        e.run(&small, 0); // too small: not a range fallback
        e.run(&zero_weight, 0); // zero weight: not a range fallback
        e.run(&overflow_family, 0); // overflow Dial handles it: no tick
        e.run(&overflow_family, 499);
        let after = ear_obs::counter_value("sssp.dial.range_fallback");
        ear_obs::disable();
        assert_eq!(after - before, 2);
    }

    #[test]
    fn bucket_and_heap_runs_interleave_on_one_engine() {
        // The same engine must flip between all three paths without state
        // leaking: buckets stay drained, overflow stays drained, heap
        // stays cleared, stamps stay valid.
        let _guard = RANGE_FALLBACK_LOCK.lock().unwrap();
        let dial = random_graph(320, 1200, 50, 11);
        let over = random_graph(320, 1200, 80_000, 13);
        let heap = random_graph(320, 1200, 5_000_000, 12);
        let small = diamond();
        let mut e = SsspEngine::new();
        assert_eq!(e.dial_mode(dial.view()), DialMode::Plain);
        assert_eq!(e.dial_mode(over.view()), DialMode::Overflow);
        assert_eq!(e.dial_mode(heap.view()), DialMode::Heap);
        for s in [0u32, 31, 64] {
            e.run(&dial, s);
            assert_eq!(e.dist_vec(), legacy::dijkstra(&dial, s));
            e.run(&over, s);
            assert_eq!(e.dist_vec(), legacy::dijkstra(&over, s));
            e.run(&heap, s);
            assert_eq!(e.dist_vec(), legacy::dijkstra(&heap, s));
            e.run(&small, s % 4);
            assert_eq!(e.dist_vec(), legacy::dijkstra(&small, s % 4));
        }
    }

    #[test]
    fn nested_with_engine_is_safe() {
        let g = diamond();
        let (outer, inner) = with_engine(|a| {
            a.run(&g, 0);
            let inner = with_engine(|b| {
                b.run(&g, 1);
                b.dist_vec()
            });
            (a.dist_vec(), inner)
        });
        assert_eq!(outer, legacy::dijkstra(&g, 0));
        assert_eq!(inner, legacy::dijkstra(&g, 1));
    }
}
