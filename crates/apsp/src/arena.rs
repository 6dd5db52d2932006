//! The oracle's one distance store: the `a × a` articulation-point table
//! and every per-block table in one row-major arena, `[ A | B₀ | B₁ | … ]`.
//! A block's side is set by the oracle's [`crate::ApspMethod`]: `nᵢ` —
//! exactly the `a² + Σ nᵢ²` entries of paper §2.3 — or `nᵢʳ` at
//! `Reduced` (`a² + Σ (nᵢʳ)²`). Each oracle builds its arena in place
//! and owns it behind an [`Arc`]; query engines share that `Arc`. A
//! refresh clones the parent arena and rewrites only the AP span and the
//! dirty blocks' spans; the block headers stay shared.

use std::sync::Arc;

use ear_decomp::plan::{BlockPlan, DecompPlan};
use ear_graph::Weight;

/// Placement of one block's table in the arena.
#[derive(Clone, Copy, Debug)]
struct BlockHeader {
    /// Offset of the block's `n × n` table.
    off: usize,
    /// Side length (row stride).
    n: u32,
}

/// The distance tables of one customization. Cloning copies the entries
/// and shares the layout.
#[derive(Clone, Debug)]
pub struct DistArena {
    /// `[ AP table | block 0 | block 1 | … ]`, row-major.
    data: Vec<Weight>,
    /// Articulation-point count: the AP table is `ap_n × ap_n` at offset 0.
    ap_n: usize,
    /// Per-block placement, in block id order after the AP table.
    blocks: Arc<[BlockHeader]>,
}

impl DistArena {
    /// A zero-filled arena laid out for `plan`'s blocks, block `b`'s table
    /// being `side(plan.block(b))` on a side; the oracle build overwrites
    /// every entry.
    pub(crate) fn new(plan: &DecompPlan, side: impl Fn(&BlockPlan) -> usize) -> DistArena {
        let ap_n = plan.bct().ap_count();
        let mut off = ap_n * ap_n;
        let mut blocks = Vec::with_capacity(plan.n_blocks());
        for bp in plan.blocks() {
            let n = side(bp);
            blocks.push(BlockHeader { off, n: n as u32 });
            off += n * n;
        }
        let (data, blocks) = (vec![0; off], blocks.into());
        DistArena { data, ap_n, blocks }
    }

    /// Stored entries: `a² + Σ nᵢ²` (`a² + Σ (nᵢʳ)²` at the reduced level).
    pub fn entries(&self) -> usize {
        self.data.len()
    }

    /// The AP table's span.
    pub fn ap_span(&self) -> &[Weight] {
        &self.data[..self.ap_n * self.ap_n]
    }

    /// Block `b`'s table span.
    pub fn block_span(&self, b: u32) -> &[Weight] {
        let h = self.blocks[b as usize];
        &self.data[h.off..h.off + (h.n as usize).pow(2)]
    }

    /// Row `i` of the AP table (rows are indexed by AP index).
    #[inline]
    pub(crate) fn ap_row(&self, i: u32) -> &[Weight] {
        &self.data[i as usize * self.ap_n..][..self.ap_n]
    }

    /// Within-block distance between local ids `i` and `j` of block `b`.
    #[inline]
    pub(crate) fn block(&self, b: u32, i: u32, j: u32) -> Weight {
        let h = self.blocks[b as usize];
        self.data[h.off + i as usize * h.n as usize + j as usize]
    }

    /// The AP table's rows, in AP index order, for writing.
    pub(crate) fn ap_rows_mut(&mut self) -> impl Iterator<Item = &mut [Weight]> {
        let a = self.ap_n;
        self.data[..a * a].chunks_mut(a.max(1))
    }

    /// Every row of the tables of `blocks` as `(block, local row, row)`,
    /// for writing: disjoint `&mut` rows that one parallel region can fill.
    ///
    /// # Panics
    /// Panics unless `blocks` is strictly ascending (the order
    /// [`DecompPlan::dirty_blocks_since`] returns).
    pub(crate) fn block_rows_mut(&mut self, blocks: &[u32]) -> Vec<(u32, u32, &mut [Weight])> {
        assert!(
            blocks.windows(2).all(|w| w[0] < w[1]),
            "block ids must ascend"
        );
        let mut rows = Vec::new();
        // `rest` is `data[base..]`: everything past the last span taken.
        let (mut rest, mut base) = (&mut self.data[..], 0);
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
        rows
    }
}
