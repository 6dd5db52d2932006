//! The oracle's one distance store: the `a × a` articulation-point table
//! and every per-block table in one row-major arena, `[ A | B₀ | B₁ | … ]`.
//! A block's side is set by the oracle's [`crate::ApspMethod`]: `nᵢ` —
//! exactly the `a² + Σ nᵢ²` entries of paper §2.3 — or `nᵢʳ` at
//! `Reduced` (`a² + Σ (nᵢʳ)²`).
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
//! reduced table `S^r` is the leading `k × k` submatrix of its full one:
//! at `Ear`, phase II writes each retained source's row straight into the
//! first `k` entries of its arena row, and phase III completes the span in
//! place. The arena is the whole allocation of a build. Next to each
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

/// One block's table for writing: its `n × n` span and its removed-vertex
/// table (empty unless the block is reduced and the oracle reads
/// reductions).
pub(crate) struct BlockSpanMut<'a, E> {
    /// Block id.
    pub(crate) b: u32,
    /// Side length (row stride).
    pub(crate) n: usize,
    /// The block's table, row-major.
    pub(crate) span: &'a mut [E],
    /// Entry `i` is local id `n − removed.len() + i` at `Ear`.
    pub(crate) removed: &'a [Removed<E>],
}

/// Placement of one block's table in the arena.
#[derive(Clone, Copy, Debug)]
struct BlockHeader {
    /// Offset of the block's `n × n` table.
    off: usize,
    /// Side length (row stride).
    n: u32,
}

/// The distance tables of one customization, at entry width `E`.
#[derive(Debug)]
pub struct DistArena<E> {
    /// `[ AP table | block 0 | block 1 | … ]`, row-major.
    data: Vec<E>,
    /// Articulation-point count: the AP table is `ap_n × ap_n` at offset 0.
    ap_n: usize,
    /// Per-block placement, in block id order after the AP table.
    blocks: Arc<[BlockHeader]>,
    /// Per-block removed-vertex tables, in block id order.
    removed: Vec<Arc<[Removed<E>]>>,
}

impl<E: DistEntry> DistArena<E> {
    /// A zero-filled arena laid out for `plan`'s blocks, block `b`'s table
    /// being `side(plan.block(b))` on a side, with empty removed-vertex
    /// tables; the oracle build overwrites every table entry.
    pub(crate) fn new(plan: &DecompPlan, side: impl Fn(&BlockPlan) -> usize) -> DistArena<E> {
        let ap_n = plan.bct().ap_count();
        let mut off = ap_n * ap_n;
        let mut blocks = Vec::with_capacity(plan.n_blocks());
        for bp in plan.blocks() {
            let n = side(bp);
            blocks.push(BlockHeader { off, n: n as u32 });
            off += n * n;
        }
        let none: Arc<[Removed<E>]> = Arc::new([]);
        DistArena {
            data: zeroed(off),
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

    /// Stored entries: `a² + Σ nᵢ²` (`a² + Σ (nᵢʳ)²` at the reduced level).
    pub fn entries(&self) -> usize {
        self.data.len()
    }

    /// The AP table's span.
    pub fn ap_span(&self) -> &[E] {
        &self.data[..self.ap_n * self.ap_n]
    }

    /// Block `b`'s table span.
    pub fn block_span(&self, b: u32) -> &[E] {
        let h = self.blocks[b as usize];
        &self.data[h.off..h.off + (h.n as usize).pow(2)]
    }

    /// Side length of block `b`'s table.
    #[inline]
    pub(crate) fn side(&self, b: u32) -> usize {
        self.blocks[b as usize].n as usize
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

    /// Within-block distance between local ids `i` and `j` of block `b`.
    #[inline]
    pub(crate) fn block(&self, b: u32, i: u32, j: u32) -> E {
        let h = self.blocks[b as usize];
        self.data[h.off + i as usize * h.n as usize + j as usize]
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
            let n = h.n as usize;
            let (span, tail) = std::mem::take(&mut rest)[h.off - base..].split_at_mut(n * n);
            let removed = &self.removed[b as usize];
            spans.push(BlockSpanMut {
                b,
                n,
                span,
                removed,
            });
            (rest, base) = (tail, h.off + n * n);
        }
        spans
    }
}

/// An oracle's [`DistArena`] at the width its plan's distance bound
/// allows ([`entry_bytes`]), tagged with the within-block read of its
/// [`ApspMethod`](crate::ApspMethod): a span lookup (`Ear`, `Plain`) or
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
    /// Stored entries: `a² + Σ nᵢ²` (`a² + Σ (nᵢʳ)²` at the reduced level).
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

    /// Resident table bytes at the stored width.
    pub fn bytes(&self) -> usize {
        self.entries() * self.entry_bytes()
    }

    /// The AP table's entries, widened to [`Weight`].
    pub fn ap_span(&self) -> Vec<Weight> {
        with_arena!(self, a => a.ap_span().iter().map(|d| d.widen()).collect())
    }

    /// Block `b`'s table entries, widened to [`Weight`].
    pub fn block_span(&self, b: u32) -> Vec<Weight> {
        with_arena!(self, a => a.block_span(b).iter().map(|d| d.widen()).collect())
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
/// in its own [`Tables`] variants.
pub(crate) trait Width: DistEntry {
    /// `arena` as [`Tables`], with the reduced read when `reduced`.
    fn tables(arena: DistArena<Self>, reduced: bool) -> Tables;
}

impl Width for u16 {
    fn tables(arena: DistArena<u16>, reduced: bool) -> Tables {
        let a = Arc::new(arena);
        if reduced {
            Tables::Reduced16(a)
        } else {
            Tables::Full16(a)
        }
    }
}

impl Width for u32 {
    fn tables(arena: DistArena<u32>, reduced: bool) -> Tables {
        let a = Arc::new(arena);
        if reduced {
            Tables::Reduced32(a)
        } else {
            Tables::Full32(a)
        }
    }
}

impl Width for u64 {
    fn tables(arena: DistArena<u64>, reduced: bool) -> Tables {
        let a = Arc::new(arena);
        if reduced {
            Tables::Reduced64(a)
        } else {
            Tables::Full64(a)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
