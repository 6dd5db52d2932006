//! The oracle's one distance store: the `a × a` articulation-point table
//! and every per-block table in one row-major arena, `[ A | B₀ | B₁ | … ]`
//! — exactly the `a² + Σ nᵢ²` entries of paper §2.3. The oracle builds it
//! in place and owns it behind an [`Arc`]; its query engines share that
//! `Arc`. A refresh clones the parent arena and rewrites only the AP span
//! and the dirty blocks' spans; the block headers stay shared.

use std::sync::Arc;

use ear_decomp::plan::DecompPlan;
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
    /// A zero-filled arena laid out for `plan`'s blocks; the oracle build
    /// overwrites every entry.
    pub(crate) fn new(plan: &DecompPlan) -> DistArena {
        let ap_n = plan.bct().ap_count();
        let mut off = ap_n * ap_n;
        let mut blocks = Vec::with_capacity(plan.n_blocks());
        for bp in plan.blocks() {
            blocks.push(BlockHeader {
                off,
                n: bp.n() as u32,
            });
            off += bp.n() * bp.n();
        }
        let (data, blocks) = (vec![0; off], blocks.into());
        DistArena { data, ap_n, blocks }
    }

    /// Stored entries: `a² + Σ nᵢ²`.
    pub fn entries(&self) -> usize {
        self.data.len()
    }

    /// Articulation-point count (side of the AP table).
    #[inline]
    pub(crate) fn ap_n(&self) -> usize {
        self.ap_n
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

    /// Mutable row `i` of the AP table.
    pub(crate) fn ap_row_mut(&mut self, i: u32) -> &mut [Weight] {
        &mut self.data[i as usize * self.ap_n..][..self.ap_n]
    }

    /// Mutable row `i` of block `b`'s table.
    pub(crate) fn block_row_mut(&mut self, b: u32, i: u32) -> &mut [Weight] {
        let h = self.blocks[b as usize];
        &mut self.data[h.off + i as usize * h.n as usize..][..h.n as usize]
    }
}
