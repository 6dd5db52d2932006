//! Reusable zero-allocation SSSP engine with pooled scratch state.
//!
//! The paper's whole pipeline is "run one Dijkstra per source of the
//! reduced graph" (§2.1.2), so per-source constant factors dominate. A
//! textbook Dijkstra allocates four O(n) vectors and a heap per call;
//! [`SsspEngine`] preallocates them once and reuses them across runs (the
//! free functions in [`crate::dijkstra`](mod@crate::dijkstra) borrow a
//! pooled engine):
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
//! * **Engine pool** — [`with_engine`] hands out a per-thread engine (a
//!   [`crate::pool`]: thread-local slot backed by a global free list), so
//!   the hot `kernel-per-source` loops in `ear-apsp` / `ear-mcb` / `ear-bc`
//!   reuse scratch even when the executor spawns fresh worker threads per
//!   batch.
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
//! * **Row reuse** — [`SsspEngine::run_reusing`] runs the same loops with
//!   the tentative distances kept in the distance row it writes instead
//!   of the engine's stamped state: a relaxation queues a vertex only
//!   when it beats the row, a popped vertex whose row is finished is
//!   folded in with one streaming min-plus pass
//!   ([`DistEntry::fold_min_plus`], on AVX2 lanes where the CPU has them)
//!   instead of being expanded, and a pop the row has since beaten is
//!   skipped (such a run keeps no heap slots, so on the heap path its
//!   heap runs lazy deletion). The loops are monomorphised on where the distances live
//!   (the private `Labels` trait), so a plain run carries none of it.
//!
//! Results are **bit-identical** to the allocate-per-source reference in
//! `ear_testkit::reference`: its lazy-deletion heap always pops the
//! minimum `(dist, vertex)` among unsettled touched vertices, which is
//! exactly the key this heap orders by, so the settle order — and with it
//! every distance, parent choice, and statistic — is the same. Both apply
//! the deterministic `(distance, vertex, edge)` parent tie-break. The heap
//! and bucket loops share one relaxation step (`expand`) and differ only
//! in how they queue an improved vertex. `heap_pushes` counts every
//! strictly-improving relaxation even when it is implemented as a
//! decrease-key or a bucket append rather than a push.

use crate::csr::CsrGraph;
use crate::dijkstra::{DijkstraStats, SsspTree};
use crate::types::{DistEntry, EdgeId, VertexId, Weight, INF};
use crate::view::CsrView;

/// `pos` sentinel: touched this generation but not currently in the heap
/// (either settled-and-popped is tracked by [`SETTLED`], or never pushed —
/// a vertex whose only known "distance" is the `INF` parent-tie case).
/// Also what a run that keeps no heap slots reports for every vertex, so
/// its heap is a lazy-deletion one.
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

/// Deterministic tie-break for equal-distance parents: prefer the smaller
/// (parent vertex, edge id) pair.
#[inline]
fn tie_prefers(u: VertexId, e: EdgeId, cur_pv: VertexId, cur_pe: EdgeId) -> bool {
    (u, e) < (cur_pv, cur_pe)
}

/// Where a run keeps its tentative distances, and what it does with each
/// vertex it pops. The main loops are monomorphised on it, so
/// [`Stamped`] compiles to plain Dijkstra.
trait Labels {
    /// Offers `v` the tentative distance `nd` over edge `e` from `u`. On
    /// a strict improvement returns `v`'s heap slot before it
    /// ([`NOT_IN_HEAP`] when it has none), and the caller queues `v` at
    /// `nd`; `None` queues nothing.
    fn relax(&mut self, u: VertexId, e: EdgeId, v: VertexId, nd: Weight) -> Option<u32>;

    /// Called at every pop of `x` at `d`; `true` expands `x` (it counts as
    /// settled and its incidences are relaxed), `false` leaves it
    /// unexpanded.
    fn settle(&mut self, x: VertexId, d: Weight) -> bool;

    /// Heap slot `i` now holds `v`.
    fn set_pos(&mut self, v: VertexId, i: u32);
}

/// The engine's own stamped state, for [`SsspEngine::run`] and
/// [`SsspEngine::run_tree`]: tentative distances, heap slots, the touched
/// list, the settle order and, with `WANT_TREE`, parent pointers.
struct Stamped<'a, const WANT_TREE: bool> {
    gen: u32,
    state: &'a mut [VertexState],
    parent: &'a mut [ParentState],
    touched: &'a mut Vec<VertexId>,
    order: &'a mut Vec<VertexId>,
}

impl<const WANT_TREE: bool> Labels for Stamped<'_, WANT_TREE> {
    #[inline(always)]
    fn relax(&mut self, u: VertexId, e: EdgeId, v: VertexId, nd: Weight) -> Option<u32> {
        let vi = v as usize;
        // The resting invariant (untouched reads as INF / NOT_IN_HEAP)
        // makes this a single data-dependent compare.
        let st = self.state[vi];
        let strictly_better = nd < st.dist;
        // `nd == dist == INF` on an untouched vertex replicates the
        // parent tie against the (u32::MAX, u32::MAX) sentinel pair,
        // which always prefers the real `(u, e)`. A settled vertex
        // (pos == SETTLED) never changes: with non-negative weights
        // nd >= dist, and the tie branch requires an unsettled vertex.
        let tie_better = WANT_TREE && nd == st.dist && st.pos != SETTLED && {
            let (pv, pe) = if st.stamp == self.gen {
                let p = self.parent[vi];
                (p.vertex, p.edge)
            } else {
                (u32::MAX, u32::MAX)
            };
            tie_prefers(u, e, pv, pe)
        };
        if !(strictly_better || tie_better) {
            return None;
        }
        if st.stamp != self.gen {
            self.state[vi].stamp = self.gen;
            self.touched.push(v);
        }
        self.state[vi].dist = nd;
        if WANT_TREE {
            self.parent[vi] = ParentState {
                vertex: u,
                edge: e,
                depth: self.parent[u as usize].depth + 1,
            };
        }
        strictly_better.then_some(st.pos)
    }

    /// Skips an entry a lower distance superseded (a bucket entry only;
    /// the indexed heap holds none).
    #[inline(always)]
    fn settle(&mut self, x: VertexId, d: Weight) -> bool {
        let st = &mut self.state[x as usize];
        if st.pos == SETTLED || st.dist != d {
            return false;
        }
        st.pos = SETTLED;
        self.order.push(x);
        true
    }

    #[inline(always)]
    fn set_pos(&mut self, v: VertexId, i: u32) {
        self.state[v as usize].pos = i;
    }
}

/// A distance row as a search's only distance array, for
/// [`SsspEngine::run_reusing`]: relaxations write it and queue only what
/// beats it, and finished rows are folded into it. It keeps no heap
/// slots, so the heap path runs lazy deletion.
struct Row<'a, E, F> {
    row: &'a mut [E],
    finished: F,
    rows_combined: u64,
}

impl<'r, E: DistEntry, F: Fn(VertexId) -> Option<&'r [E]>> Labels for Row<'_, E, F> {
    /// The saturating [`DistEntry::narrow`] queues no candidate at or past
    /// the row's `INF`, so every queued distance is stored exactly.
    #[inline(always)]
    fn relax(&mut self, _: VertexId, _: EdgeId, v: VertexId, nd: Weight) -> Option<u32> {
        let (r, nd) = (&mut self.row[v as usize], E::narrow(nd));
        (nd < *r).then(|| {
            *r = nd;
            NOT_IN_HEAP
        })
    }

    /// Skips `x` when the row beats `d`: a later push superseded the
    /// entry, or a folded row reaches `x` more cheaply. Otherwise folds
    /// `x`'s finished row in, `row = min(row, d ⊕ row_x)`, instead of
    /// expanding it.
    #[inline]
    fn settle(&mut self, x: VertexId, d: Weight) -> bool {
        let dx = self.row[x as usize];
        if dx != E::narrow(d) {
            return false;
        }
        match (self.finished)(x) {
            Some(rx) => {
                E::fold_min_plus(self.row, rx, dx);
                self.rows_combined += 1;
                false
            }
            None => true,
        }
    }

    #[inline(always)]
    fn set_pos(&mut self, _: VertexId, _: u32) {}
}

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

/// A graph view with its priority-queue choice made, for
/// [`SsspEngine::run_reusing`]. Made once, it spares the many searches of
/// a graph the pass over its weights that every plain run makes.
#[derive(Clone, Copy, Debug)]
pub struct QueuedView<'g> {
    g: CsrView<'g>,
    mode: DialMode,
}

impl<'g> QueuedView<'g> {
    /// `g` and the queue runs on it take: one pass over its incidence
    /// weights.
    pub fn new(g: CsrView<'g>) -> Self {
        QueuedView {
            g,
            mode: SsspEngine::dial_mode(g),
        }
    }

    /// The graph.
    pub fn view(&self) -> CsrView<'g> {
        self.g
    }
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

/// The priority queues every run shares, and the main loops that drive
/// them. Always empty between runs.
#[derive(Debug)]
struct Queues {
    /// The 4-ary heap: `(dist, vertex)` entries, keys inline for
    /// cache-local comparisons.
    heap: Vec<(Weight, VertexId)>,
    /// Dial fast path: `buckets[d % DIAL_BUCKETS]` holds vertices whose
    /// tentative distance is `d`. Lazily sized to [`DIAL_BUCKETS`] on the
    /// first bucket run.
    buckets: Vec<Vec<VertexId>>,
    /// Occupancy bit per bucket, so advancing past empty buckets costs a
    /// word scan instead of a per-bucket probe.
    bucket_live: [u64; DIAL_MASK_WORDS],
    /// Overflow level of the two-level Dial path: `(dist, vertex)` entries
    /// whose tentative distance lies past the current bucket window,
    /// promoted in bulk when the window jumps.
    overflow: Vec<(Weight, VertexId)>,
}

/// A reusable Dijkstra instance: preallocated arrays, generation-stamp
/// lazy reset, indexed 4-ary decrease-key heap.
///
/// One engine serves one run at a time; query methods ([`dist`](Self::dist),
/// [`dist_vec`](Self::dist_vec), [`write_dist`](Self::write_dist),
/// [`tree`](Self::tree), [`settle_order`](Self::settle_order),
/// [`stats`](Self::stats)) read the most recent [`run`](Self::run),
/// [`run_view`](Self::run_view) or [`run_tree`](Self::run_tree);
/// [`run_reusing`](Self::run_reusing) leaves them as they were. Engines
/// grow monotonically to the largest graph they have seen and can be
/// reused across graphs of different sizes.
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
    queues: Queues,
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
            queues: Queues {
                heap: Vec::new(),
                buckets: Vec::new(),
                bucket_live: [0; DIAL_MASK_WORDS],
                overflow: Vec::new(),
            },
            touched: Vec::new(),
            order: Vec::new(),
            stats: DijkstraStats::default(),
        }
    }

    /// Grows the scratch arrays to hold `n` vertices (never shrinks).
    fn ensure_capacity(&mut self, n: usize) {
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
        self.run_inner::<false>(g.view(), Self::dial_mode(g.view()), source)
    }

    /// Full shortest-path-tree run with the deterministic
    /// `(distance, vertex, edge)` parent tie-break.
    pub fn run_tree(&mut self, g: &CsrGraph, source: VertexId) -> DijkstraStats {
        self.run_inner::<true>(g.view(), Self::dial_mode(g.view()), source)
    }

    /// [`run`](Self::run) on a borrowed [`CsrView`] (whole graph or arena
    /// block window) — the same code path, so results are bit-identical.
    pub fn run_view(&mut self, g: CsrView<'_>, source: VertexId) -> DijkstraStats {
        self.run_inner::<false>(g, Self::dial_mode(g), source)
    }

    /// Writes the distance row of `source` in `g` into `row`, reusing the
    /// rows `finished(x)` returns (each `g.n()` long) where a search would
    /// repeat them. `row` is the search's only distance array: a
    /// relaxation queues `v` at `nd` only when `nd < row[v]` (and `nd` is
    /// below the row's `INF`), storing `row[v] = nd`. On popping `x` at
    /// distance `d`:
    ///
    /// * `row[x] < d`: a later relaxation, or a row folded since, reaches
    ///   `x` more cheaply, and `x` is skipped;
    /// * otherwise, when `x`'s row is finished it is folded in,
    ///   `row = min(row, d ⊕ row_x)` (saturating at `INF`), instead of
    ///   expanding `x`; else `x` is expanded as usual.
    ///
    /// Exact for any non-negative weights: every entry of `row` is the
    /// length of a real path. Along a shortest path `source → t` each
    /// expanded vertex hands the next one its true distance; the first
    /// vertex that is not expanded at its true distance is folded at it
    /// or received it from a fold, and that fold writes `row[t] =
    /// d(source, t)`. With none, `t` is reached as in Dijkstra. Equal
    /// distances pop in ascending vertex order on every
    /// queue, so which vertices are expanded depends on `g` and the
    /// finished rows alone. With no finished rows this is a plain run.
    ///
    /// Returns the search's counters — `settled` and `edges_relaxed`
    /// cover the expanded vertices only — and the number of rows folded.
    /// The run touches none of the engine's per-vertex state: its query
    /// methods afterwards still describe its last plain or tree run.
    ///
    /// # Panics
    /// Panics unless `row` and every finished row are `g.n()` long.
    pub fn run_reusing<'r, E: DistEntry>(
        &mut self,
        g: QueuedView<'_>,
        source: VertexId,
        row: &mut [E],
        finished: impl Fn(VertexId) -> Option<&'r [E]>,
    ) -> (DijkstraStats, u64) {
        assert_eq!(row.len(), g.g.n(), "distance row length");
        assert!((source as usize) < row.len(), "source out of range");
        // Filled before the span opens, so a fresh table's first-touch
        // faults are charged to the caller, not to the search.
        row.fill(E::INF);
        row[source as usize] = E::narrow(0);
        let _span = ear_obs::span_with("sssp.run", source as u64);
        let mut labels = Row {
            row,
            finished,
            rows_combined: 0,
        };
        let stats = self.queues.run(g.g, g.mode, source, &mut labels);
        (stats, labels.rows_combined)
    }

    // Monomorphised on `WANT_TREE` so the distances-only path carries no
    // per-edge tree branches at all.
    fn run_inner<const WANT_TREE: bool>(
        &mut self,
        g: CsrView<'_>,
        mode: DialMode,
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
        // the hot relaxation at a single `nd < dist` compare, with no
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
        self.touched.clear();
        self.order.clear();

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

        let mut labels = Stamped::<WANT_TREE> {
            gen: self.gen,
            state: &mut self.state,
            parent: &mut self.parent,
            touched: &mut self.touched,
            order: &mut self.order,
        };
        self.stats = self.queues.run(g, mode, source, &mut labels);
        self.stats
    }

    /// Picks the queue for runs on `g`: the heap for small graphs (the whole
    /// working set is cache-resident anyway), zero weights (they break the
    /// bucket invariant) and weights at or above [`DIAL_WEIGHT_LIMIT`];
    /// the plain sliding-window Dial path when every weight fits the
    /// bucket span; and the two-level overflow Dial path in between. One
    /// sequential pass over the incidence weight window decides.
    ///
    /// When a large-enough positive-weight graph is forced onto the heap
    /// purely by weight range — the case a weight recustomization can
    /// newly trigger — the `sssp.dial.range_fallback` counter records it,
    /// once per decision.
    #[inline]
    fn dial_mode(g: CsrView<'_>) -> DialMode {
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
        let mut out = vec![0; self.n];
        self.write_dist(&mut out);
        out
    }

    /// Writes the most recent run's distance array into `out` (`INF` for
    /// untouched vertices) — [`dist_vec`](Self::dist_vec) into a buffer
    /// the caller owns, such as a row of a distance table stored at width
    /// `E` (each distance [`DistEntry::narrow`]ed).
    ///
    /// # Panics
    /// Panics unless `out.len()` is the run's vertex count.
    pub fn write_dist<E: DistEntry>(&self, out: &mut [E]) {
        assert_eq!(out.len(), self.n, "distance row length");
        out.fill(E::INF);
        for &v in &self.touched {
            out[v as usize] = E::narrow(self.state[v as usize].dist);
        }
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
}

impl Queues {
    /// One search from `source` on the queue `mode` picks, its tentative
    /// distances kept in `labels` (which the caller has seeded with
    /// `source` at 0). Returns its counters.
    fn run<L: Labels>(
        &mut self,
        g: CsrView<'_>,
        mode: DialMode,
        source: VertexId,
        labels: &mut L,
    ) -> DijkstraStats {
        // Empty already unless a run unwound mid-search.
        self.heap.clear();
        self.overflow.clear();
        let stats = match mode {
            DialMode::Plain => self.run_buckets::<false, L>(g, source, labels),
            DialMode::Overflow => self.run_buckets::<true, L>(g, source, labels),
            DialMode::Heap => self.run_heap(g, source, labels),
        };
        if ear_obs::is_enabled() {
            ear_obs::counter_add("sssp.runs", 1);
            ear_obs::counter_add("sssp.settled", stats.settled);
            ear_obs::counter_add("sssp.edges_relaxed", stats.edges_relaxed);
            ear_obs::counter_add("sssp.heap_pushes", stats.heap_pushes);
            ear_obs::histogram_record("sssp.settled_per_run", stats.settled);
        }
        stats
    }

    /// The heap main loop (the general path: any weights, any size):
    /// decrease-key on a vertex that has a heap slot, an insert
    /// otherwise — so with labels that keep no slots, a lazy-deletion
    /// heap whose superseded entries [`Labels::settle`] skips.
    fn run_heap<L: Labels>(
        &mut self,
        g: CsrView<'_>,
        source: VertexId,
        labels: &mut L,
    ) -> DijkstraStats {
        let mut stats = DijkstraStats::default();
        self.heap_insert(0, source, labels);
        while let Some((du, u)) = self.heap_pop_min(labels) {
            if !labels.settle(u, du) {
                continue;
            }
            stats.settled += 1;
            self.expand(g, labels, u, du, &mut stats, |q, labels, v, nd, pos| {
                if pos == NOT_IN_HEAP {
                    q.heap_insert(nd, v, labels);
                } else {
                    q.heap_decrease(pos as usize, nd, labels);
                }
            });
        }
        stats
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
    fn run_buckets<const OVERFLOW: bool, L: Labels>(
        &mut self,
        g: CsrView<'_>,
        source: VertexId,
        labels: &mut L,
    ) -> DijkstraStats {
        if self.buckets.is_empty() {
            self.buckets = vec![Vec::new(); DIAL_BUCKETS];
        }
        let mut stats = DijkstraStats::default();
        // Total entries across all buckets, stale ones included — the
        // window is exhausted exactly when the circular array is empty,
        // which also restores the "all buckets drained" resting invariant.
        let mut entries = 1usize;
        self.buckets[0].push(source);
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
                if !labels.settle(u, cur_d) {
                    continue; // superseded: improved into an earlier bucket
                }
                stats.settled += 1;
                let (parked, pushed) = (self.overflow.len(), stats.heap_pushes);
                self.expand(g, labels, u, cur_d, &mut stats, move |q, _, v, nd, _| {
                    if OVERFLOW && nd >= window_end {
                        q.overflow.push((nd, v));
                    } else {
                        let b = (nd % DIAL_BUCKETS as Weight) as usize;
                        q.buckets[b].push(v);
                        q.bucket_live[b / 64] |= 1u64 << (b % 64);
                    }
                });
                // Every push that did not park went into a bucket. Counted
                // here, not in the push, so the closure borrows no local.
                entries += (stats.heap_pushes - pushed) as usize - (self.overflow.len() - parked);
            }
            bucket.clear();
            self.buckets[idx] = bucket;
        }
        stats
    }

    /// Expands settled vertex `u` at distance `du`: offers each of its
    /// incidences to `labels` and hands every strictly improving one to
    /// `push(self, labels, v, nd, pos)`, the caller's queue append (`pos`
    /// is `v`'s heap slot before the relaxation). Adds the incidences
    /// relaxed and the pushes made to `stats`. The one relaxation step of
    /// every main loop.
    #[inline(always)]
    fn expand<L: Labels>(
        &mut self,
        g: CsrView<'_>,
        labels: &mut L,
        u: VertexId,
        du: Weight,
        stats: &mut DijkstraStats,
        mut push: impl FnMut(&mut Self, &mut L, VertexId, Weight, u32),
    ) {
        // `w == g.weight(e)` by the parallel-slice invariant; the zipped
        // stream replaces a random 16-byte `edges[e]` gather per relaxation.
        let (adj, wts) = g.incidences(u);
        for (&(v, e), &w) in adj.iter().zip(wts) {
            if v == u {
                continue; // self-loops never improve a distance
            }
            let nd = du + w;
            if let Some(pos) = labels.relax(u, e, v, nd) {
                push(self, labels, v, nd, pos);
                stats.heap_pushes += 1;
            }
        }
        stats.edges_relaxed += adj.len() as u64;
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

    // ---- 4-ary heap keyed on (dist, vertex) ----
    //
    // Entries carry their key `(dist, vertex)` inline so sift comparisons
    // stay cache-local instead of chasing random `dist[]` loads — the
    // difference between winning and losing to the legacy lazy-deletion
    // heap once the distance array outgrows L2. Every slot move is
    // reported to `labels`, which records it or not.

    #[inline(always)]
    fn heap_insert<L: Labels>(&mut self, key: Weight, v: VertexId, labels: &mut L) {
        let i = self.heap.len();
        self.heap.push((key, v));
        self.sift_up(i, labels);
    }

    /// Lowers the key of the entry at heap slot `i` and restores order.
    #[inline(always)]
    fn heap_decrease<L: Labels>(&mut self, i: usize, key: Weight, labels: &mut L) {
        debug_assert!(self.heap[i].0 >= key);
        self.heap[i].0 = key;
        self.sift_up(i, labels);
    }

    #[inline(always)]
    fn heap_pop_min<L: Labels>(&mut self, labels: &mut L) -> Option<(Weight, VertexId)> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("heap is non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0, labels);
        }
        Some(top)
    }

    /// Hole-based sift: the moving entry is written (and its slot
    /// reported) once at its final slot, displaced entries move one hop
    /// each.
    fn sift_up<L: Labels>(&mut self, mut i: usize, labels: &mut L) {
        let entry = self.heap[i];
        while i > 0 {
            let p = (i - 1) / 4;
            let parent = self.heap[p];
            if entry < parent {
                self.heap[i] = parent;
                labels.set_pos(parent.1, i as u32);
                i = p;
            } else {
                break;
            }
        }
        self.heap[i] = entry;
        labels.set_pos(entry.1, i as u32);
    }

    fn sift_down<L: Labels>(&mut self, mut i: usize, labels: &mut L) {
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
                labels.set_pos(best_entry.1, i as u32);
                i = best;
            } else {
                break;
            }
        }
        self.heap[i] = entry;
        labels.set_pos(entry.1, i as u32);
    }
}

crate::scratch_pool! {
    /// Runs `f` with a pooled per-thread [`SsspEngine`] (a [`crate::pool`]
    /// of at most 64 spares, counted under `sssp.pool.*`).
    ///
    /// The engine comes from (in order) the calling thread's slot, the
    /// global free list, or a fresh allocation; afterwards it is parked back
    /// in the thread's slot. Warm scratch therefore survives both sequential
    /// loops on one thread and repeated fan-outs over short-lived worker
    /// threads.
    pub fn with_engine(SsspEngine, bound = 64, counters = "sssp.pool");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
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

    /// The queue each fixture of `tests/sssp_engine_differential.rs`'s
    /// Dial-mode sweep is built to exercise.
    #[test]
    fn fixtures_select_their_dial_mode() {
        let _guard = RANGE_FALLBACK_LOCK.lock().unwrap();
        let mode = |g: &CsrGraph| SsspEngine::dial_mode(g.view());
        assert_eq!(mode(&random_graph(400, 1600, 100, 99)), DialMode::Plain);
        assert_eq!(mode(&random_graph(300, 2400, 1, 5)), DialMode::Plain);
        // Weights far above the bucket span select the overflow path.
        assert_eq!(
            mode(&random_graph(400, 1600, 100_000, 77)),
            DialMode::Overflow
        );
        // One constant overflow-range weight: every distance level lands a
        // fresh window jump away.
        let g = random_graph(300, 2400, 1, 5);
        let edges: Vec<(u32, u32, Weight)> = g.edges().iter().map(|e| (e.u, e.v, 10_000)).collect();
        assert_eq!(mode(&CsrGraph::from_edges(300, &edges)), DialMode::Overflow);
        // Alternating tiny and near-limit weights.
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
        assert_eq!(mode(&CsrGraph::from_edges(500, &edges)), DialMode::Overflow);
        // A single weight at or above DIAL_WEIGHT_LIMIT keeps the whole
        // run on the heap path.
        let mut edges: Vec<(u32, u32, Weight)> = (0..499u32).map(|i| (i, i + 1, 3)).collect();
        edges.push((0, 499, DIAL_WEIGHT_LIMIT as Weight + 7));
        assert_eq!(mode(&CsrGraph::from_edges(500, &edges)), DialMode::Heap);
        // The three families one engine interleaves.
        assert_eq!(mode(&random_graph(320, 1200, 50, 11)), DialMode::Plain);
        assert_eq!(
            mode(&random_graph(320, 1200, 80_000, 13)),
            DialMode::Overflow
        );
        assert_eq!(
            mode(&random_graph(320, 1200, 5_000_000, 12)),
            DialMode::Heap
        );
        assert_eq!(mode(&diamond()), DialMode::Heap);
    }

    #[test]
    fn dial_mode_boundary_weights() {
        let _guard = RANGE_FALLBACK_LOCK.lock().unwrap();
        let chain = |w: Weight| {
            let edges: Vec<(u32, u32, Weight)> = (0..399u32).map(|i| (i, i + 1, w)).collect();
            CsrGraph::from_edges(400, &edges)
        };
        let e = SsspEngine::dial_mode;
        assert_eq!(e(chain(DIAL_BUCKETS as Weight - 1).view()), DialMode::Plain);
        assert_eq!(e(chain(DIAL_BUCKETS as Weight).view()), DialMode::Overflow);
        assert_eq!(
            e(chain(DIAL_WEIGHT_LIMIT as Weight - 1).view()),
            DialMode::Overflow
        );
        assert_eq!(e(chain(DIAL_WEIGHT_LIMIT as Weight).view()), DialMode::Heap);
    }

    /// Serialises the tests that run overweight graphs against the global
    /// `sssp.dial.range_fallback` counter, so the exact-delta assertion
    /// below cannot race with a concurrent fallback run.
    static RANGE_FALLBACK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

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
}
