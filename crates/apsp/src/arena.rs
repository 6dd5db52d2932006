//! The oracle's one distance store: the `a × a` articulation-point table
//! and every per-block table in one row-major arena, `[ A | B₀ | B₁ | … ]`.
//! A block's side is set by the oracle's [`crate::ApspMethod`]: `nᵢ` —
//! exactly the `a² + Σ nᵢ²` entries of paper §2.3 — or `nᵢʳ` at
//! `Reduced` (`a² + Σ (nᵢʳ)²`).
//!
//! Entries are `u32` when the graph's total edge weight is below
//! `u32::MAX` — the paper's 4-byte accounting — and `u64` otherwise
//! ([`DistEntry`]); [`Tables`] carries the width with the oracle's
//! within-block read. Each oracle builds its arena in place and owns it
//! behind an [`Arc`]; query engines share that `Arc`. A refresh allocates
//! a zeroed child with the same layout (`DistArena::child`), copies the
//! clean blocks' spans into it and rewrites the rest; the block headers
//! stay shared.
//!
//! While it is written, an arena can carry zeroed scratch entries past its
//! tables (phase II's transient reduced matrices at `Ear`), cut off once
//! the tables are set. Scratch and tables are then one allocation, which
//! the allocator maps and unmaps whole. A scratch table of its own would
//! be freed and reallocated every build, and in the ~30 MB range glibc
//! moves such a buffer onto its heap, where the memory stays resident
//! after the free and the peak RSS of a run varied with fragmentation.

use std::sync::Arc;

use ear_decomp::plan::{BlockPlan, DecompPlan};
use ear_graph::{DistEntry, Weight};

/// Table rows for one parallel region to fill: `(block, local row, row)`.
pub(crate) type Rows<'a, E> = Vec<(u32, u32, &'a mut [E])>;

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
}

impl<E: DistEntry> DistArena<E> {
    /// A zero-filled arena laid out for `plan`'s blocks, block `b`'s table
    /// being `side(plan.block(b))` on a side, with `scratch` entries past
    /// the tables; the oracle build overwrites every table entry.
    pub(crate) fn new(
        plan: &DecompPlan,
        side: impl Fn(&BlockPlan) -> usize,
        scratch: usize,
    ) -> DistArena<E> {
        let ap_n = plan.bct().ap_count();
        let mut off = ap_n * ap_n;
        let mut blocks = Vec::with_capacity(plan.n_blocks());
        for bp in plan.blocks() {
            let n = side(bp);
            blocks.push(BlockHeader { off, n: n as u32 });
            off += n * n;
        }
        let (data, blocks) = (vec![E::default(); off + scratch], blocks.into());
        DistArena { data, ap_n, blocks }
    }

    /// A zero-filled arena with this one's layout (headers shared) holding
    /// copies of the spans of every block not in `dirty` (ascending ids),
    /// with `scratch` entries past the tables: a refresh's starting point,
    /// whose AP span and dirty spans the refresh then writes in full. Only
    /// the clean spans are copied; the rest stays untouched zeroed memory
    /// until it is written.
    pub(crate) fn child(&self, dirty: &[u32], scratch: usize) -> DistArena<E> {
        let mut data = vec![E::default(); self.entries() + scratch];
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
        }
    }

    /// Stored entries: `a² + Σ nᵢ²` (`a² + Σ (nᵢʳ)²` at the reduced level),
    /// not counting any scratch past the tables.
    pub fn entries(&self) -> usize {
        let end = |h: &BlockHeader| h.off + (h.n as usize).pow(2);
        self.blocks.last().map_or(self.ap_n * self.ap_n, end)
    }

    /// Cuts off the scratch past the tables and returns its memory.
    pub(crate) fn drop_scratch(&mut self) {
        self.data.truncate(self.entries());
        self.data.shrink_to_fit();
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

    /// Every row of the tables of `blocks` as `(block, local row, row)`,
    /// for writing: disjoint `&mut` rows that one parallel region can fill,
    /// and the scratch past the tables.
    ///
    /// # Panics
    /// Panics unless `blocks` is strictly ascending (the order
    /// [`DecompPlan::dirty_blocks_since`] returns).
    pub(crate) fn block_rows_mut(&mut self, blocks: &[u32]) -> (Rows<'_, E>, &mut [E]) {
        assert!(
            blocks.windows(2).all(|w| w[0] < w[1]),
            "block ids must ascend"
        );
        let mut rows = Vec::new();
        let len = self.entries();
        let (tables, scratch) = self.data.split_at_mut(len);
        // `rest` is `tables[base..]`: everything past the last span taken.
        let (mut rest, mut base) = (tables, 0);
        for &b in blocks {
            let h = self.blocks[b as usize];
            let n = h.n as usize;
            let (span, tail) = std::mem::take(&mut rest)[h.off - base..].split_at_mut(n * n);
            rows.extend(
                (0..)
                    .zip(span.chunks_mut(n.max(1)))
                    .map(|(x, row)| (b, x, row)),
            );
            (rest, base) = (tail, h.off + n * n);
        }
        (rows, scratch)
    }
}

/// An oracle's [`DistArena`] at the width its plan's total edge weight
/// allows, tagged with the within-block read of its
/// [`ApspMethod`](crate::ApspMethod): a span lookup (`Ear`, `Plain`) or
/// the §2.1.3 minima over reduced spans (`Reduced`). A query matches on
/// it once and then runs one monomorphic read, so the width costs no
/// branch of its own.
#[derive(Clone, Debug)]
pub enum Tables {
    /// Full block tables, `u32` entries.
    Full32(Arc<DistArena<u32>>),
    /// Full block tables, `u64` entries.
    Full64(Arc<DistArena<u64>>),
    /// Reduced block tables, `u32` entries.
    Reduced32(Arc<DistArena<u32>>),
    /// Reduced block tables, `u64` entries.
    Reduced64(Arc<DistArena<u64>>),
}

/// `$body` over the arena of `$tables`, bound as `$a` at either width.
macro_rules! with_arena {
    ($tables:expr, $a:ident => $body:expr) => {
        match $tables {
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

    /// Bytes per stored entry: 4 or 8.
    pub fn entry_bytes(&self) -> usize {
        match self {
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
            (Tables::Full32(a), Tables::Full32(b))
            | (Tables::Reduced32(a), Tables::Reduced32(b)) => Arc::ptr_eq(a, b),
            (Tables::Full64(a), Tables::Full64(b))
            | (Tables::Reduced64(a), Tables::Reduced64(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// The two entry widths an oracle stores at, each wrapping its arenas in
/// its own [`Tables`] variants.
pub(crate) trait Width: DistEntry {
    /// `arena` as [`Tables`], with the reduced read when `reduced`.
    fn tables(arena: DistArena<Self>, reduced: bool) -> Tables;
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
