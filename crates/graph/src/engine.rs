//! The SSSP engine: one Dijkstra main loop over three priority queues.
//!
//! The paper's whole pipeline is "run one Dijkstra per source of the
//! reduced graph" (§2.1.2), so per-source constant factors dominate.
//! [`SsspEngine`] keeps only its priority queues between runs; a run's
//! labels live in the result the caller gets back, so nothing per-vertex
//! outlives a run and nothing needs resetting (every caller materialises
//! an `n`-long row or tree anyway). The free functions in
//! [`crate::dijkstra`](mod@crate::dijkstra) borrow a pooled engine.
//!
//! * **Labels in the result** — the main loops are monomorphised on where
//!   a run keeps its labels (the private `Labels` trait):
//!   [`SsspEngine::run`] writes distances into the caller's row,
//!   [`SsspEngine::run_tree`] fills an [`SsspTree`]'s dense arrays,
//!   [`SsspEngine::count_paths`] fills a [`PathDag`] (distances, path
//!   counts σ, predecessor lists and settle order for Brandes), and
//!   [`SsspEngine::run_reusing`] is a row run that also folds finished
//!   rows. A plain run is a row run with no finished rows.
//! * **Lazy-deletion 4-ary heap** — keyed on `(dist, vertex)`, with the
//!   key inline so sift comparisons stay cache-local. Every strictly
//!   improving relaxation pushes; a pop whose label has since improved is
//!   skipped.
//! * **Engine pool** — [`with_engine`] hands out a per-thread engine (a
//!   [`crate::pool`]: thread-local slot backed by a global free list), so
//!   the hot `kernel-per-source` loops in `ear-apsp` / `ear-mcb` / `ear-bc`
//!   reuse the queues even when the executor spawns fresh worker threads
//!   per batch.
//! * **Dial bucket queue for the large-graph regime** — once a block
//!   outgrows [`DIAL_MIN_N`] vertices, the heap's sift chains are the
//!   dominant cache-miss source. When every edge weight fits the bucket
//!   range (`1..DIAL_BUCKETS`), the engine swaps the heap for a circular
//!   array of [`DIAL_BUCKETS`] distance buckets: pushes append to a
//!   sequential `Vec`, pops drain one bucket at a time, and a
//!   [`DIAL_BUCKETS`]-bit occupancy mask skips empty buckets with
//!   word-level scans.
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
//! * **Row reuse** — [`SsspEngine::run_reusing`] keeps the tentative
//!   distances in the distance row it writes: a relaxation queues a
//!   vertex only when it beats the row, a popped vertex whose row is
//!   finished is folded in with one streaming min-plus pass
//!   ([`DistEntry::fold_min_plus`], on AVX2 lanes where the CPU has them)
//!   instead of being expanded, and a pop the row has since beaten is
//!   skipped.
//!
//! Results are **bit-identical** to the allocate-per-source references in
//! `ear_testkit::reference`: their lazy-deletion heaps pop the minimum
//! `(dist, vertex)` among queued entries, which is exactly the key every
//! queue here orders by, so the settle order — and with it every
//! distance, parent choice, path count and statistic — is the same. Tree
//! runs apply the deterministic `(distance, vertex, edge)` parent
//! tie-break. The heap and bucket loops share one relaxation step
//! (`expand`) and differ only in how they queue an improved vertex.

use crate::dijkstra::{DijkstraStats, SsspTree};
use crate::types::{DistEntry, EdgeId, VertexId, Weight, INF};
use crate::view::CsrView;

/// Below this vertex count the heap wins: the whole working set is
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

/// The shortest-path DAG of one source, with path counts: the forward
/// pass of Brandes' betweenness, filled by [`SsspEngine::count_paths`].
/// Every array is indexed by vertex.
#[derive(Clone, Debug, Default)]
pub struct PathDag {
    /// Distance from the source (`INF` when unreachable).
    pub dist: Vec<Weight>,
    /// Number of shortest paths from the source, σ (0 when unreachable).
    pub sigma: Vec<f64>,
    /// Every predecessor on a shortest path, once per edge into the vertex
    /// that closes one, in the order their vertices settled.
    pub preds: Vec<Vec<VertexId>>,
    /// Reached vertices in settle order: non-decreasing distance.
    pub order: Vec<VertexId>,
}

/// Where a run keeps its labels, and what it does with each vertex it
/// pops. The main loops are monomorphised on it.
trait Labels {
    /// Offers `v` the tentative distance `nd` over edge `e` from `u`;
    /// `true` queues `v` at `nd` (a strict improvement).
    fn relax(&mut self, u: VertexId, e: EdgeId, v: VertexId, nd: Weight) -> bool;

    /// Called at every pop of `x` at `d`; `true` expands `x` (it counts as
    /// settled and its incidences are relaxed), `false` leaves it
    /// unexpanded.
    fn settle(&mut self, x: VertexId, d: Weight) -> bool;
}

/// A distance row as a search's only distance array, for
/// [`SsspEngine::run`] and [`SsspEngine::run_reusing`]: relaxations write
/// it and queue only what beats it, and finished rows are folded into it.
struct Row<'a, E, F> {
    row: &'a mut [E],
    finished: F,
    rows_combined: u64,
}

impl<'r, E: DistEntry, F: Fn(VertexId) -> Option<&'r [E]>> Labels for Row<'_, E, F> {
    /// The saturating [`DistEntry::narrow`] queues no candidate at or past
    /// the row's `INF`, so every queued distance is stored exactly.
    #[inline(always)]
    fn relax(&mut self, _: VertexId, _: EdgeId, v: VertexId, nd: Weight) -> bool {
        let (r, nd) = (&mut self.row[v as usize], E::narrow(nd));
        let better = nd < *r;
        if better {
            *r = nd;
        }
        better
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
}

/// An [`SsspTree`]'s dense arrays as a tree run's labels, with a settled
/// flag per vertex: an equal-distance relaxation re-parents a vertex only
/// while it is unsettled.
struct Tree<'a> {
    t: &'a mut SsspTree,
    settled: Vec<bool>,
}

impl Labels for Tree<'_> {
    /// A strict improvement, or a tie on an unsettled vertex whose parent
    /// pair `(u, e)` is smaller, takes `v`; only the former queues it. An
    /// untouched vertex reads `INF` with `(u32::MAX, u32::MAX)` parents, so
    /// a tie at `INF` records the real `(u, e)` without queueing `v`.
    #[inline(always)]
    fn relax(&mut self, u: VertexId, e: EdgeId, v: VertexId, nd: Weight) -> bool {
        let (t, vi) = (&mut *self.t, v as usize);
        let better = nd < t.dist[vi];
        let tie = nd == t.dist[vi]
            && !self.settled[vi]
            && (u, e) < (t.parent_vertex[vi], t.parent_edge[vi]);
        if better || tie {
            t.dist[vi] = nd;
            t.parent_vertex[vi] = u;
            t.parent_edge[vi] = e;
            t.depths[vi] = t.depths[u as usize] + 1;
        }
        better
    }

    /// As for [`Paths`], a vertex has one entry at its final distance (a
    /// tie never queues); its others are stale.
    #[inline(always)]
    fn settle(&mut self, x: VertexId, d: Weight) -> bool {
        let xi = x as usize;
        if self.t.dist[xi] != d {
            return false;
        }
        self.settled[xi] = true;
        self.t.settle_order.push(x);
        true
    }
}

/// A [`PathDag`] as a path-counting run's labels: a strict improvement
/// restarts `v`'s path count and predecessors from `u`, and an equal
/// distance adds `u`'s count and appends it — also into a vertex already
/// settled, which a zero-weight edge can reach at its own distance.
struct Paths<'a>(&'a mut PathDag);

impl Labels for Paths<'_> {
    #[inline(always)]
    fn relax(&mut self, u: VertexId, _: EdgeId, v: VertexId, nd: Weight) -> bool {
        let (p, ui, vi) = (&mut *self.0, u as usize, v as usize);
        if nd < p.dist[vi] {
            p.dist[vi] = nd;
            p.sigma[vi] = p.sigma[ui];
            p.preds[vi].clear();
            p.preds[vi].push(u);
            true
        } else {
            if nd == p.dist[vi] {
                p.sigma[vi] += p.sigma[ui];
                p.preds[vi].push(u);
            }
            false
        }
    }

    /// Every push is a strict improvement, so a vertex has one entry at
    /// its final distance; its others, at larger distances, are stale.
    #[inline(always)]
    fn settle(&mut self, x: VertexId, d: Weight) -> bool {
        if self.0.dist[x as usize] != d {
            return false;
        }
        self.0.order.push(x);
        true
    }
}

/// Which priority queue a run takes (see [`SsspEngine::dial_mode`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DialMode {
    /// Sliding-window Dial buckets: all weights in `1..DIAL_BUCKETS`.
    Plain,
    /// Fixed-window Dial buckets plus the overflow level: all weights in
    /// `1..DIAL_WEIGHT_LIMIT`, at least one `>= DIAL_BUCKETS`.
    Overflow,
    /// Lazy-deletion 4-ary heap: small graph, zero weights, or weights
    /// past [`DIAL_WEIGHT_LIMIT`].
    Heap,
}

/// A graph view with its priority-queue choice made, for
/// [`SsspEngine::run_reusing`]. Made once, it spares the many searches of
/// a graph the pass over its weights that every other run makes.
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

/// A reusable Dijkstra instance: the priority queues every run shares,
/// always empty between runs. A run's labels live in what it returns or
/// writes, so one engine serves any sequence of runs, on graphs of any
/// size; the queues grow to the largest run they have held.
#[derive(Debug)]
pub struct SsspEngine {
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

impl Default for SsspEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SsspEngine {
    /// An engine with empty queues; they grow on first use.
    pub fn new() -> Self {
        SsspEngine {
            heap: Vec::new(),
            buckets: Vec::new(),
            bucket_live: [0; DIAL_MASK_WORDS],
            overflow: Vec::new(),
        }
    }

    /// Writes the distance row of `source` in `g` into `row` (`INF` where
    /// unreachable, each distance [`DistEntry::narrow`]ed to the row's
    /// width) and returns the run's counters: a [`run_reusing`] search
    /// with no finished rows.
    ///
    /// # Panics
    /// Panics unless `row` is `g.n()` long and `source` is a vertex of `g`.
    ///
    /// [`run_reusing`]: Self::run_reusing
    pub fn run<E: DistEntry>(
        &mut self,
        g: CsrView<'_>,
        source: VertexId,
        row: &mut [E],
    ) -> DijkstraStats {
        let none = |_: VertexId| -> Option<&[E]> { None };
        self.run_reusing(QueuedView::new(g), source, row, none).0
    }

    /// The shortest-path tree of `source` in `g`, with the deterministic
    /// `(distance, vertex, edge)` parent tie-break, its settle order and
    /// the run's counters.
    ///
    /// # Panics
    /// Panics unless `source` is a vertex of `g`.
    pub fn run_tree(&mut self, g: CsrView<'_>, source: VertexId) -> SsspTree {
        let n = g.n();
        assert!((source as usize) < n, "source out of range");
        let mut t = SsspTree {
            source,
            dist: vec![INF; n],
            parent_vertex: vec![u32::MAX; n],
            parent_edge: vec![u32::MAX; n],
            depths: vec![0; n],
            settle_order: Vec::with_capacity(n),
            stats: DijkstraStats::default(),
        };
        t.dist[source as usize] = 0;
        let _span = ear_obs::span_with("sssp.run", source as u64);
        let mut labels = Tree {
            t: &mut t,
            settled: vec![false; n],
        };
        let stats = self.search(g, Self::dial_mode(g), source, &mut labels);
        t.stats = stats;
        t.settle_order.shrink_to_fit();
        t
    }

    /// Brandes' forward pass from `source` in `g`: fills `dag` with the
    /// distances, shortest-path counts σ, predecessor lists and settle
    /// order (see [`PathDag`]) and returns the run's counters. `dag`'s
    /// predecessor lists keep their capacity across runs.
    ///
    /// # Panics
    /// Panics unless `source` is a vertex of `g`.
    pub fn count_paths(
        &mut self,
        g: CsrView<'_>,
        source: VertexId,
        dag: &mut PathDag,
    ) -> DijkstraStats {
        let n = g.n();
        assert!((source as usize) < n, "source out of range");
        dag.dist.clear();
        dag.dist.resize(n, INF);
        dag.sigma.clear();
        dag.sigma.resize(n, 0.0);
        dag.preds.truncate(n);
        dag.preds.iter_mut().for_each(Vec::clear);
        dag.preds.resize_with(n, Vec::new);
        dag.order.clear();
        dag.dist[source as usize] = 0;
        dag.sigma[source as usize] = 1.0;
        let _span = ear_obs::span_with("sssp.run", source as u64);
        self.search(g, Self::dial_mode(g), source, &mut Paths(dag))
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
    /// finished rows alone. With no finished rows this is [`run`].
    ///
    /// Returns the search's counters — `settled` and `edges_relaxed`
    /// cover the expanded vertices only — and the number of rows folded.
    ///
    /// # Panics
    /// Panics unless `row` and every finished row are `g.n()` long.
    ///
    /// [`run`]: Self::run
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
        let stats = self.search(g.g, g.mode, source, &mut labels);
        (stats, labels.rows_combined)
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

    /// One search from `source` on the queue `mode` picks, its labels kept
    /// in `labels` (which the caller has seeded with `source` at 0).
    /// Returns its counters.
    fn search<L: Labels>(
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
    /// every strictly improving relaxation pushes, and [`Labels::settle`]
    /// skips the entries a later push superseded.
    fn run_heap<L: Labels>(
        &mut self,
        g: CsrView<'_>,
        source: VertexId,
        labels: &mut L,
    ) -> DijkstraStats {
        let mut stats = DijkstraStats::default();
        self.heap_push(0, source);
        while let Some((du, u)) = self.heap_pop_min() {
            if !labels.settle(u, du) {
                continue;
            }
            stats.settled += 1;
            self.expand(g, labels, u, du, &mut stats, |q, v, nd| q.heap_push(nd, v));
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
                self.expand(g, labels, u, cur_d, &mut stats, move |q, v, nd| {
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
    /// `push(self, v, nd)`, the caller's queue append. Adds the incidences
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
        mut push: impl FnMut(&mut Self, VertexId, Weight),
    ) {
        // `w == g.weight(e)` by the parallel-slice invariant; the zipped
        // stream replaces a random 16-byte `edges[e]` gather per relaxation.
        let (adj, wts) = g.incidences(u);
        for (&(v, e), &w) in adj.iter().zip(wts) {
            if v == u {
                continue; // self-loops never improve a distance
            }
            let nd = du + w;
            if labels.relax(u, e, v, nd) {
                push(self, v, nd);
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

    // ---- lazy-deletion 4-ary heap keyed on (dist, vertex) ----
    //
    // Entries carry their key `(dist, vertex)` inline so sift comparisons
    // stay cache-local instead of chasing random distance loads.

    #[inline(always)]
    fn heap_push(&mut self, key: Weight, v: VertexId) {
        let mut i = self.heap.len();
        self.heap.push((key, v));
        // Hole-based sift: the new entry is written once, at its final
        // slot; displaced parents move one hop each.
        let entry = (key, v);
        while i > 0 {
            let p = (i - 1) / 4;
            let parent = self.heap[p];
            if entry < parent {
                self.heap[i] = parent;
                i = p;
            } else {
                break;
            }
        }
        self.heap[i] = entry;
    }

    #[inline(always)]
    fn heap_pop_min(&mut self) -> Option<(Weight, VertexId)> {
        let top = *self.heap.first()?;
        let entry = self.heap.pop().expect("heap is non-empty");
        let len = self.heap.len();
        if len == 0 {
            return Some(top);
        }
        let mut i = 0;
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
                i = best;
            } else {
                break;
            }
        }
        self.heap[i] = entry;
        Some(top)
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
    use crate::csr::CsrGraph;

    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
    }

    /// Distances from `source`, on a fresh row.
    fn row(e: &mut SsspEngine, g: &CsrGraph, source: VertexId) -> Vec<Weight> {
        let mut row = vec![0; g.n()];
        e.run(g.view(), source, &mut row);
        row
    }

    #[test]
    fn pooled_engine_is_reused_on_one_thread() {
        let g = random_graph(400, 1600, 100, 99);
        let d0 = with_engine(|e| row(e, &g, 0));
        let d0_again = with_engine(|e| {
            assert!(!e.buckets.is_empty(), "the first borrow's buckets survive");
            row(e, &g, 0)
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
        // Zero weights, and a single weight at or above DIAL_WEIGHT_LIMIT,
        // keep the whole run on the heap path.
        let edges: Vec<(u32, u32, Weight)> = (0..)
            .zip(random_graph(300, 1200, 3, 7).edges())
            .map(|(i, e)| (e.u, e.v, if i % 4 == 0 { 0 } else { e.w }))
            .collect();
        assert_eq!(mode(&CsrGraph::from_edges(300, &edges)), DialMode::Heap);
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
        row(&mut e, &overweight, 0);
        row(&mut e, &overweight, 499);
        row(&mut e, &small, 0); // too small: not a range fallback
        row(&mut e, &zero_weight, 0); // zero weight: not a range fallback
        row(&mut e, &overflow_family, 0); // overflow Dial handles it: no tick
        row(&mut e, &overflow_family, 499);
        let after = ear_obs::counter_value("sssp.dial.range_fallback");
        ear_obs::disable();
        assert_eq!(after - before, 2);
    }
}
