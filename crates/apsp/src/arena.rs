//! The oracle's one distance store: the `a × a` articulation-point table
//! and every per-block table in one arena, `[ A | B₀ | B₁ | … ]`. Block
//! tables are symmetric, and a block's span is its leading `k × k` square,
//! row-major, followed by its rows `k..n` at width `n`: `k² + (n − k)·n`
//! entries, each pair read at `(max(i, j), min(i, j))` (`DistArena::block`
//! is the one within-block read). The oracle's [`crate::ApspMethod`] sets
//! `(k, n)`: at `Ear` the reduced square `S^r` plus the removed rows, so
//! each retained–removed distance is stored once; `Plain` keeps `nᵢ × nᵢ`
//! squares and `Reduced` `nᵢʳ × nᵢʳ` ones. [`stored_entries`] is the one
//! sizing rule; the paper's §2.3 count stays `a² + Σ nᵢ²`
//! (`a² + Σ (nᵢʳ)²` at `Reduced`).
//!
//! Entries are as narrow as a bound on the graph's distances allows
//! ([`entry_bytes`], [`DistEntry`]): `u16`, `u32` (the paper's 4-byte
//! accounting) or `u64`. The bound is the plan's
//! [`DecompPlan::distance_bound`], so on the benchmark graphs, whose
//! longest distances are a few thousand, the tables take two bytes an
//! entry although their total weights are far past `u16::MAX`.
//! [`Tables`] carries the width with the oracle's within-block read. Each oracle builds its arena in place and owns it
//! behind an [`Arc`]; query engines share that `Arc`. A refresh allocates
//! a zeroed child with the same layout (`DistArena::child`), copies the
//! clean blocks' spans into it and rewrites the rest; the block headers
//! stay shared.
//!
//! The plan numbers each reduced block retained first, so the block's
//! reduced table `S^r` is the leading `k × k` square of its span: at
//! `Ear`, phase II writes each retained source's row straight into the
//! square, and phase III writes the removed rows after it, chain by
//! chain. The arena is the whole allocation of a build. Next to each
//! reduced block's span it keeps the block's removed-vertex table (the
//! private `ear` module's `Removed` entries, at the arena's width), which
//! phase III and the reduced read consume.
//!
//! Every table is allocated by one helper (`zeroed`) that advises the
//! kernel to back it with 2 MiB transparent huge pages before anything
//! writes it. A query is one to three random reads of a table that
//! reaches 32 MB at `a² + Σ nᵢ²` two-byte entries: about 8k 4 KiB pages,
//! far beyond what the second-level TLB maps (1–2k entries), so with
//! small pages nearly every read pays a page walk, and every cold build
//! or refresh takes one first-touch fault per 4 KiB. With the advice the
//! same table is about 16 huge pages. The advice is neutral where THP is set to `never` (no
//! huge pages at all) or `always` (every large mapping gets them
//! anyway). The first-touch faults are charged to whichever span writes
//! a row first — phase II's `run_reusing` fills its row before the SSSP
//! span opens — so they show up as `self.build.hetero_s` and
//! `self.refresh.hetero_s` in a traced e2ebench run.

use std::sync::Arc;

use ear_decomp::plan::{BlockPlan, DecompPlan};
use ear_graph::{DistEntry, Weight};

use crate::ear::Removed;
use crate::ApspMethod;

/// The width rule: bytes per entry of tables whose every finite distance
/// is at most `bound` — 2 when `bound < u16::MAX`, else 4 when
/// `bound < u32::MAX`, else 8. Each width's `INF` is its maximum, so
/// every finite distance narrows exactly.
pub fn entry_bytes(bound: Weight) -> usize {
    if bound < Weight::from(u16::MAX) {
        2
    } else if bound < Weight::from(u32::MAX) {
        4
    } else {
        8
    }
}

/// One transparent huge page.
const HUGE_PAGE: usize = 2 << 20;

/// Least capacity, in bytes, of a table of at least [`HUGE_PAGE`] bytes.
/// glibc's `malloc` maps a request of this size or more on its own
/// (32 MiB is the most its dynamic mmap threshold can rise to) and
/// unmaps it when it is freed.
const MAPPED_BYTES: usize = 32 << 20;

/// `len` zero entries whose 2 MiB-aligned interior is advised for
/// transparent huge pages (see the module doc).
///
/// A table of at least [`HUGE_PAGE`] bytes is allocated with a capacity
/// of at least [`MAPPED_BYTES`], so the allocator always gives it a fresh
/// mapping of its own and returns it to the kernel when it is dropped.
/// Below that size glibc may serve it from its heap instead, once an
/// earlier free has raised its mmap threshold past the table's size, and
/// a freed heap table stays resident: `mesh` and `chains` tables at
/// `u16` (31.0 and 30.2 MiB) made e2ebench's peak RSS read 72 or 102 MB
/// from run to run. The capacity past `len` is never touched, so it
/// costs address space, not memory. At these sizes `vec!` of zeros takes
/// the untouched mapping, so the advice lands before the first fault.
/// Tables with no aligned 2 MiB interior, and targets other than Linux
/// on x86_64 or aarch64, are left as allocated.
#[allow(unsafe_code)]
fn zeroed<E: DistEntry>(len: usize) -> Vec<E> {
    let entry = std::mem::size_of::<E>();
    let cap = if len * entry >= HUGE_PAGE {
        len.max(MAPPED_BYTES.div_ceil(entry))
    } else {
        len
    };
    let mut data = vec![E::default(); cap];
    data.truncate(len);
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        use std::ffi::{c_int, c_void};
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }
        const MADV_HUGEPAGE: c_int = 14;
        let base = data.as_ptr().cast::<u8>();
        let skip = base.align_offset(HUGE_PAGE);
        let advised =
            std::mem::size_of_val(data.as_slice()).saturating_sub(skip) & !(HUGE_PAGE - 1);
        if advised > 0 {
            // SAFETY: `[base + skip, base + skip + advised)` lies inside
            // `data`'s allocation, which this function owns exclusively,
            // and `MADV_HUGEPAGE` changes neither the contents nor the
            // validity of the mapping; nothing is written through the
            // pointer. The result is ignored: the call is advice, and
            // kernels built without THP reject it.
            let _ = unsafe {
                madvise(
                    base.wrapping_add(skip).cast_mut().cast(),
                    advised,
                    MADV_HUGEPAGE,
                )
            };
        }
    }
    data
}

/// Table rows for one parallel region to fill: `(block, local row, row)`.
pub(crate) type Rows<'a, E> = Vec<(u32, u32, &'a mut [E])>;

/// One block's table for writing: its span (see [`span_len`]) and its
/// removed-vertex table (empty unless the block is reduced and the oracle
/// reads reductions).
pub(crate) struct BlockSpanMut<'a, E> {
    /// Block id.
    pub(crate) b: u32,
    /// Side of the leading square: the phase-II sources.
    pub(crate) k: usize,
    /// Vertices of the block: the width of the rows past the square.
    pub(crate) n: usize,
    /// The `k × k` square, row-major, then rows `k..n` at width `n`.
    pub(crate) span: &'a mut [E],
    /// Entry `i` is local id `k + i` at `Ear`.
    pub(crate) removed: &'a [Removed<E>],
}

/// Placement of one block's table in the arena.
#[derive(Clone, Copy, Debug)]
struct BlockHeader {
    /// Offset of the block's span.
    off: usize,
    /// Side of the leading square.
    k: u32,
    /// Side of the block's table: `k`, plus its removed vertices at `Ear`.
    n: u32,
}

/// Entries of a block span whose leading square is `k × k`, followed by
/// `n − k` rows of width `n`.
fn span_len(k: usize, n: usize) -> usize {
    k * k + (n - k) * n
}

/// `(k, n)` of block `bp`'s span under `method`: its phase-II sources and
/// its table's side. `Ear` stores the reduced square and the removed rows,
/// `Plain` the `nᵢ × nᵢ` table, `Reduced` the `nᵢʳ × nᵢʳ` one.
fn block_shape(method: ApspMethod, bp: &BlockPlan) -> (usize, usize) {
    match method {
        ApspMethod::Ear => (bp.reduced_n(), bp.n()),
        ApspMethod::Plain => (bp.n(), bp.n()),
        ApspMethod::Reduced => (bp.reduced_n(), bp.reduced_n()),
    }
}

/// The sizing rule: entries an oracle of `method` on `plan` stores, the AP
/// table's `a²` plus each block's span, `kᵢ² + (nᵢ − kᵢ)·nᵢ` at `Ear` and
/// `nᵢ²` (`(nᵢʳ)²` at `Reduced`) otherwise. [`DistArena`] allocates
/// exactly this many, so a level can be sized without building it.
pub fn stored_entries(plan: &DecompPlan, method: ApspMethod) -> usize {
    let a = plan.bct().ap_count();
    let blocks = plan.blocks().iter().map(|bp| {
        let (k, n) = block_shape(method, bp);
        span_len(k, n)
    });
    a * a + blocks.sum::<usize>()
}

/// The paper's count of an oracle's entries (§2.3, Table 1): `a² + Σ nᵢ²`,
/// or `a² + Σ (nᵢʳ)²` at `Reduced`, whatever the arena stores of it.
pub(crate) fn paper_entries(plan: &DecompPlan, method: ApspMethod) -> usize {
    let a = plan.bct().ap_count();
    let blocks = plan
        .blocks()
        .iter()
        .map(|bp| block_shape(method, bp).1.pow(2));
    a * a + blocks.sum::<usize>()
}

/// The distance tables of one customization, at entry width `E`.
#[derive(Debug)]
pub struct DistArena<E> {
    /// `[ AP table | block 0 | block 1 | … ]`.
    data: Vec<E>,
    /// Articulation-point count: the AP table is `ap_n × ap_n` at offset 0.
    ap_n: usize,
    /// Per-block placement, in block id order after the AP table.
    blocks: Arc<[BlockHeader]>,
    /// Per-block removed-vertex tables, in block id order.
    removed: Vec<Arc<[Removed<E>]>>,
}

impl<E: DistEntry> DistArena<E> {
    /// A zero-filled arena laid out for `plan`'s blocks under `method`
    /// ([`stored_entries`]), with empty removed-vertex tables; the oracle
    /// build overwrites every table entry.
    pub(crate) fn new(plan: &DecompPlan, method: ApspMethod) -> DistArena<E> {
        let ap_n = plan.bct().ap_count();
        let mut off = ap_n * ap_n;
        let mut blocks = Vec::with_capacity(plan.n_blocks());
        for bp in plan.blocks() {
            let (k, n) = block_shape(method, bp);
            blocks.push(BlockHeader {
                off,
                k: k as u32,
                n: n as u32,
            });
            off += span_len(k, n);
        }
        let none: Arc<[Removed<E>]> = Arc::new([]);
        DistArena {
            data: zeroed(stored_entries(plan, method)),
            ap_n,
            blocks: blocks.into(),
            removed: vec![none; plan.n_blocks()],
        }
    }

    /// A zero-filled arena with this one's layout (headers shared) holding
    /// copies of the spans and removed-vertex tables of every block not in
    /// `dirty` (ascending ids): a refresh's starting point, whose AP span
    /// and dirty blocks the refresh then writes in full. Only the clean
    /// spans are copied; the rest stays untouched zeroed memory until it
    /// is written.
    pub(crate) fn child(&self, dirty: &[u32]) -> DistArena<E> {
        let mut data = zeroed(self.entries());
        let mut dirty = dirty.iter().peekable();
        for (b, h) in (0..).zip(self.blocks.iter()) {
            if dirty.next_if_eq(&&b).is_none() {
                let span = self.block_span(b);
                data[h.off..][..span.len()].copy_from_slice(span);
            }
        }
        DistArena {
            data,
            ap_n: self.ap_n,
            blocks: Arc::clone(&self.blocks),
            removed: self.removed.clone(),
        }
    }

    /// Entries the arena holds ([`stored_entries`]).
    pub fn entries(&self) -> usize {
        self.data.len()
    }

    /// The AP table's span.
    pub fn ap_span(&self) -> &[E] {
        &self.data[..self.ap_n * self.ap_n]
    }

    /// Block `b`'s span: its leading `k × k` square, row-major, then its
    /// rows `k..n` at width `n` (none unless the block is reduced at
    /// `Ear`).
    pub fn block_span(&self, b: u32) -> &[E] {
        let h = self.blocks[b as usize];
        &self.data[h.off..][..span_len(h.k as usize, h.n as usize)]
    }

    /// Side of block `b`'s leading square: its retained vertices when it
    /// is reduced, at `Ear` and `Reduced`.
    #[inline]
    pub(crate) fn square_side(&self, b: u32) -> u32 {
        self.blocks[b as usize].k
    }

    /// Block `b`'s removed-vertex table.
    #[inline]
    pub(crate) fn removed(&self, b: u32) -> &[Removed<E>] {
        &self.removed[b as usize]
    }

    /// Sets block `b`'s removed-vertex table.
    pub(crate) fn set_removed(&mut self, b: u32, table: Arc<[Removed<E>]>) {
        self.removed[b as usize] = table;
    }

    /// Row `i` of the AP table (rows are indexed by AP index).
    #[inline]
    pub(crate) fn ap_row(&self, i: u32) -> &[E] {
        &self.data[i as usize * self.ap_n..][..self.ap_n]
    }

    /// Within-block distance between local ids `i` and `j` of block `b`
    /// (below its square's side at `Reduced`). The tables are symmetric,
    /// so each pair is read at row `r = max(i, j)`, column `min(i, j)`:
    /// row `r` starts `r·k` into the span, plus `(r − k)⁺·(n − k)` for the
    /// wider rows past the square. The read has no branch.
    #[inline]
    pub(crate) fn block(&self, b: u32, i: u32, j: u32) -> E {
        let h = self.blocks[b as usize];
        let (r, c) = (i.max(j) as usize, i.min(j) as usize);
        let (k, n) = (h.k as usize, h.n as usize);
        self.data[h.off + r * k + r.saturating_sub(k) * (n - k) + c]
    }

    /// The AP table's rows, in AP index order, for writing.
    pub(crate) fn ap_rows_mut(&mut self) -> impl Iterator<Item = &mut [E]> {
        let a = self.ap_n;
        self.data[..a * a].chunks_mut(a.max(1))
    }

    /// The tables of `blocks` for writing: disjoint `&mut` spans that the
    /// phases can split into rows for one parallel region.
    ///
    /// # Panics
    /// Panics unless `blocks` is strictly ascending (the order
    /// [`DecompPlan::dirty_blocks_since`] returns).
    pub(crate) fn block_spans_mut(&mut self, blocks: &[u32]) -> Vec<BlockSpanMut<'_, E>> {
        assert!(
            blocks.windows(2).all(|w| w[0] < w[1]),
            "block ids must ascend"
        );
        let mut spans = Vec::with_capacity(blocks.len());
        // `rest` is `data[base..]`: everything past the last span taken.
        let (mut rest, mut base) = (&mut self.data[..], 0);
        for &b in blocks {
            let h = self.blocks[b as usize];
            let (k, n) = (h.k as usize, h.n as usize);
            let len = span_len(k, n);
            let (span, tail) = std::mem::take(&mut rest)[h.off - base..].split_at_mut(len);
            let removed = &self.removed[b as usize];
            spans.push(BlockSpanMut {
                b,
                k,
                n,
                span,
                removed,
            });
            (rest, base) = (tail, h.off + len);
        }
        spans
    }
}

/// An oracle's [`DistArena`] at the width its plan's distance bound
/// allows ([`entry_bytes`]), tagged with the within-block read of its
/// [`ApspMethod`]: a span lookup (`Ear`, `Plain`) or
/// the §2.1.3 minima over reduced spans (`Reduced`). A query matches on
/// it once and then runs one monomorphic read, so the width costs no
/// branch of its own.
#[derive(Clone, Debug)]
pub enum Tables {
    /// Full block tables, `u16` entries.
    Full16(Arc<DistArena<u16>>),
    /// Full block tables, `u32` entries.
    Full32(Arc<DistArena<u32>>),
    /// Full block tables, `u64` entries.
    Full64(Arc<DistArena<u64>>),
    /// Reduced block tables, `u16` entries.
    Reduced16(Arc<DistArena<u16>>),
    /// Reduced block tables, `u32` entries.
    Reduced32(Arc<DistArena<u32>>),
    /// Reduced block tables, `u64` entries.
    Reduced64(Arc<DistArena<u64>>),
}

/// `$body` over the arena of `$tables`, bound as `$a` at any width.
macro_rules! with_arena {
    ($tables:expr, $a:ident => $body:expr) => {
        match $tables {
            Tables::Full16($a) | Tables::Reduced16($a) => $body,
            Tables::Full32($a) | Tables::Reduced32($a) => $body,
            Tables::Full64($a) | Tables::Reduced64($a) => $body,
        }
    };
}

impl Tables {
    /// Entries the arena holds ([`stored_entries`]).
    pub fn entries(&self) -> usize {
        with_arena!(self, a => a.entries())
    }

    /// Bytes per stored entry: 2, 4 or 8.
    pub fn entry_bytes(&self) -> usize {
        match self {
            Tables::Full16(_) | Tables::Reduced16(_) => 2,
            Tables::Full32(_) | Tables::Reduced32(_) => 4,
            Tables::Full64(_) | Tables::Reduced64(_) => 8,
        }
    }

    /// Bytes the arena holds: [`Tables::entries`] at the stored width.
    pub fn bytes(&self) -> usize {
        self.entries() * self.entry_bytes()
    }

    /// The AP table's entries, widened to [`Weight`].
    pub fn ap_span(&self) -> Vec<Weight> {
        with_arena!(self, a => a.ap_span().iter().map(|d| d.widen()).collect())
    }

    /// Block `b`'s span ([`DistArena::block_span`]), widened to
    /// [`Weight`].
    pub fn block_span(&self, b: u32) -> Vec<Weight> {
        with_arena!(self, a => a.block_span(b).iter().map(|d| d.widen()).collect())
    }

    /// The stored distance between local ids `i` and `j` of block `b`,
    /// widened to [`Weight`]: any two of the block's ids, but only retained
    /// ones at the reduced level, whose removed vertices have no entries.
    pub fn block_entry(&self, b: u32, i: u32, j: u32) -> Weight {
        with_arena!(self, a => a.block(b, i, j).widen())
    }

    /// True when both hold the same allocation.
    pub fn ptr_eq(&self, other: &Tables) -> bool {
        match (self, other) {
            (Tables::Full16(a), Tables::Full16(b))
            | (Tables::Reduced16(a), Tables::Reduced16(b)) => Arc::ptr_eq(a, b),
            (Tables::Full32(a), Tables::Full32(b))
            | (Tables::Reduced32(a), Tables::Reduced32(b)) => Arc::ptr_eq(a, b),
            (Tables::Full64(a), Tables::Full64(b))
            | (Tables::Reduced64(a), Tables::Reduced64(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// The three entry widths an oracle stores at, each wrapping its arenas
/// in its own [`Tables`] variants and keeping its own per-thread scratch.
pub(crate) trait Width: DistEntry {
    /// `arena` as [`Tables`], with the reduced read when `reduced`.
    fn tables(arena: DistArena<Self>, reduced: bool) -> Tables;

    /// Runs `f` with this thread's pooled buffer of entries (an
    /// [`ear_graph::pool`]); it comes back as `f` left it.
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R;
}

macro_rules! width {
    ($e:ty, $full:ident, $reduced:ident) => {
        impl Width for $e {
            fn tables(arena: DistArena<$e>, reduced: bool) -> Tables {
                let a = Arc::new(arena);
                if reduced {
                    Tables::$reduced(a)
                } else {
                    Tables::$full(a)
                }
            }

            fn with_scratch<R>(f: impl FnOnce(&mut Vec<$e>) -> R) -> R {
                ear_graph::scratch_pool! {
                    fn scratch(Vec<$e>, bound = 64);
                }
                scratch(f)
            }
        }
    };
}

width!(u16, Full16, Reduced16);
width!(u32, Full32, Reduced32);
width!(u64, Full64, Reduced64);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_oracle;
    use ear_graph::CsrGraph;
    use ear_hetero::HeteroExecutor;
    use ear_testkit::reference::floyd_warshall;

    /// `g`'s one block at `Ear`: the span is `k² + (n − k)·n` entries, and
    /// every pair `(i, j)` read at its offset (both orders) is the
    /// Floyd–Warshall distance of the vertices it names. Returns `(k, n)`.
    fn read_one_block(g: &CsrGraph) -> (usize, usize) {
        let o = build_oracle(g, &HeteroExecutor::sequential(), ApspMethod::Ear);
        let Tables::Full16(arena) = o.tables() else {
            panic!("stored at u16")
        };
        let plan = o.plan();
        assert_eq!(plan.n_blocks(), 1);
        let bp = plan.block(0);
        let (k, n) = (bp.reduced_n(), bp.n());
        assert_eq!(arena.square_side(0) as usize, k);
        assert_eq!(arena.block_span(0).len(), k * k + (n - k) * n);
        let fw = floyd_warshall(g);
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                let want = fw.get(bp.parent(i), bp.parent(j));
                assert_eq!(arena.block(0, i, j).widen(), want, "({i}, {j})");
            }
        }
        (k, n)
    }

    #[test]
    fn an_unreduced_block_reads_its_square() {
        // K4: no degree-2 vertex, so the span is the 4 × 4 square.
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
        assert_eq!(read_one_block(&g), (4, 4));
    }

    #[test]
    fn a_pure_cycle_reads_one_anchor_and_its_chain() {
        let g = CsrGraph::from_edges(5, &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 0, 5)]);
        assert_eq!(read_one_block(&g), (1, 5));
    }

    #[test]
    fn theta_reads_two_anchors_and_two_chains() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 2), (0, 2, 10), (0, 3, 3), (3, 2, 4)]);
        assert_eq!(read_one_block(&g), (2, 4));
    }

    /// `zeroed` at width `E` on lengths around one 2 MiB huge page of
    /// entries and past it: exactly `len` zeros, writable end to end, in
    /// a capacity of at least 32 MiB from one huge page on.
    fn zeroed_lengths<E: DistEntry>() {
        let page = HUGE_PAGE / std::mem::size_of::<E>();
        for len in [0, 1, page - 1, page, page + 1, 3 * page / 2 + 7] {
            let mut data = zeroed::<E>(len);
            assert_eq!(data.len(), len);
            let mapped = data.capacity() * std::mem::size_of::<E>() >= MAPPED_BYTES;
            assert_eq!(mapped, len >= page, "len {len}");
            assert!(data.iter().all(|&d| d == E::default()), "len {len}");
            data.fill(E::INF);
            assert!(data.iter().all(|&d| d == E::INF), "len {len}");
        }
    }

    #[test]
    fn zeroed_returns_len_zeros_u16() {
        zeroed_lengths::<u16>();
    }

    #[test]
    fn zeroed_returns_len_zeros_u32() {
        zeroed_lengths::<u32>();
    }

    #[test]
    fn zeroed_returns_len_zeros_u64() {
        zeroed_lengths::<u64>();
    }

    #[test]
    fn entry_bytes_switch_at_each_widths_inf() {
        let (top16, top32) = (Weight::from(u16::MAX), Weight::from(u32::MAX));
        for (bound, bytes) in [
            (0, 2),
            (top16 - 1, 2),
            (top16, 4),
            (top32 - 1, 4),
            (top32, 8),
            (ear_graph::INF, 8),
        ] {
            assert_eq!(entry_bytes(bound), bytes, "bound {bound}");
        }
    }
}
