//! Packed GF(2) linear-algebra kernels for the de Pina phase loop.
//!
//! The scalar phase loop (the reference in `ear_testkit::reference`)
//! keeps each witness `S_j ∈ {0,1}^f` as its own [`DenseBits`] vector and,
//! every phase, probes them one at a time: `f` sparse dot products
//! (`O(|C_i|)` bit reads each) to find the non-orthogonal witnesses, then
//! one word XOR per hit. This module batches all of that into
//! word-parallel kernels over a single contiguous matrix:
//!
//! * [`BitMatrix`] — the **word-transposed** witness matrix `T`. Row `b`
//!   (one row per non-tree edge bit of `E'`) packs bit `b` of *every*
//!   witness: bit `j` of `T[b]` is `S_j(b)`. Both phase-3 kernels become
//!   row-granular XOR sweeps:
//!   - *batched dot* — the `f` sparse products `⟨C_i, S_j⟩` collapse into
//!     `acc = ⊕_{b ∈ C_i} T[b]`, whose bit `j` is exactly `⟨C_i, S_j⟩`:
//!     `|C_i| · ⌈f/64⌉` word XORs instead of `f · |C_i|` bit probes;
//!   - *batched update* — `S_j ← S_j ⊕ S_i` for every flagged `j > i` is
//!     `T[b] ← T[b] ⊕ mask` for each `b` in the support of `S_i`, where
//!     `mask` is `acc` with bits `0..=i` cleared. Row XORs are chunked,
//!     4-way unrolled, and fanned out across row blocks in parallel once the
//!     touched volume crosses [`PAR_UPDATE_WORDS`].
//! * [`PackedWitness`] — the current witness `S_i`, extracted from column
//!   `i` of the matrix into flat words with one always-zero **sentinel bit**
//!   at index `f`, so the label pass tests `S(e)` without branching on
//!   "is this a non-tree edge".
//! * [`TreePacks`] — the per-tree edge-incidence packing: for every tree,
//!   the top-down `(vertex, parent, witness bit)` triples flattened into
//!   three contiguous arrays. The per-phase label pass (paper Algorithm 3)
//!   becomes a tight sweep over these arrays — no graph, tree-struct, or
//!   `nt_index` indirection in the loop.
//! * [`EdgePack`] — per-edge `(u, v, witness bit)` arrays making the
//!   candidate orthogonality test three array reads and two XORs.
//! * [`DepinaScratch`] — all of the above plus the label bytes, pooled per
//!   thread ([`with_depina_scratch`], the TLS-slot + global-free-list
//!   pattern of `ear_graph::engine`), so the phase loop allocates nothing
//!   per phase and runs warm across blocks.
//!
//! The kernels change **how** the work is executed, never **what** work the
//! trace records: callers reconstruct the exact per-unit
//! [`ear_hetero::WorkCounters`] multisets of the scalar loop from the batch
//! results (`tests/mcb_kernels_differential.rs` enforces equality).

use ear_graph::CsrGraph;

use crate::candidates::{CandRef, Candidates};
use crate::cycle_space::{CycleSpace, DenseBits};

/// Touched-word threshold past which a batched witness update fans out
/// across row blocks on a parallel region. Below it the sequential sweep wins
/// (worker launch costs more than the XOR volume).
pub const PAR_UPDATE_WORDS: usize = 1 << 16;

/// Packed-entry threshold past which the label pass runs trees in
/// parallel.
pub const PAR_LABEL_ENTRIES: usize = 1 << 14;

/// `dst ^= src`, chunked and 4-way unrolled (the compiler widens the
/// unrolled body to SIMD XORs; `chunks_exact` removes the bounds checks).
#[inline]
fn xor_into(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(4);
    let mut s = src.chunks_exact(4);
    for (dc, sc) in (&mut d).zip(&mut s) {
        dc[0] ^= sc[0];
        dc[1] ^= sc[1];
        dc[2] ^= sc[2];
        dc[3] ^= sc[3];
    }
    for (x, y) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *x ^= *y;
    }
}

/// The word-transposed witness matrix: `rows` bit positions × `cols`
/// witnesses, row-major, each row `⌈cols/64⌉` words. Bit `j` of row `b` is
/// `S_j(b)`.
#[derive(Clone, Debug, Default)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    /// Words per row.
    wpr: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// An empty matrix; [`reset_identity`](Self::reset_identity) sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reshapes to `n × n` and loads the identity (`S_j = e_j`, the de
    /// Pina starting witnesses), reusing the existing allocation.
    pub fn reset_identity(&mut self, n: usize) {
        self.rows = n;
        self.cols = n;
        self.wpr = n.div_ceil(64);
        self.words.clear();
        self.words.resize(n * self.wpr, 0);
        for b in 0..n {
            self.words[b * self.wpr + b / 64] |= 1u64 << (b % 64);
        }
    }

    /// Matrix dimensions `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Row `b` as packed words.
    #[inline]
    pub fn row(&self, b: usize) -> &[u64] {
        &self.words[b * self.wpr..(b + 1) * self.wpr]
    }

    /// Bit `(row, col)` — `S_col(row)`.
    pub fn get(&self, row: usize, col: usize) -> bool {
        (self.row(row)[col / 64] >> (col % 64)) & 1 == 1
    }

    /// The batched dot-product kernel: `acc = ⊕_{b ∈ rows} T[b]`, so bit
    /// `j` of `acc` is `⟨C, S_j⟩` for the sparse cycle vector `C = rows`.
    /// `acc` must be `⌈cols/64⌉` words; it is overwritten.
    pub fn xor_rows_into(&self, rows: &[u32], acc: &mut [u64]) {
        debug_assert_eq!(acc.len(), self.wpr);
        acc.fill(0);
        for &b in rows {
            xor_into(acc, self.row(b as usize));
        }
    }

    /// The batched update kernel: `T[b] ^= mask` for every row `b` in
    /// `rows` (sorted ascending). Fans out across contiguous row blocks on
    /// a parallel region once the touched volume exceeds
    /// [`PAR_UPDATE_WORDS`].
    pub fn xor_mask_rows(&mut self, rows: &[u32], mask: &[u64]) {
        debug_assert_eq!(mask.len(), self.wpr);
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
        let wpr = self.wpr;
        if rows.len() * wpr < PAR_UPDATE_WORDS {
            for &b in rows {
                xor_into(
                    &mut self.words[b as usize * wpr..(b as usize + 1) * wpr],
                    mask,
                );
            }
            return;
        }
        // Row-block parallel path: split the backing words into disjoint
        // contiguous blocks of whole rows and give each worker the slice
        // of `rows` that lands in its block (`rows` is sorted, so that
        // slice is a subrange found by binary search).
        let block_rows = self.rows.div_ceil(ear_graph::pool::threads() * 4).max(1);
        let mut blocks: Vec<(usize, &mut [u64])> = self
            .words
            .chunks_mut(block_rows * wpr)
            .enumerate()
            .collect();
        ear_graph::par_map_mut(&mut blocks, |(bi, block)| {
            let lo = *bi * block_rows;
            let hi = lo + block.len() / wpr;
            let start = rows.partition_point(|&r| (r as usize) < lo);
            let end = rows.partition_point(|&r| (r as usize) < hi);
            for &b in &rows[start..end] {
                let off = (b as usize - lo) * wpr;
                xor_into(&mut block[off..off + wpr], mask);
            }
        });
    }

    /// Extracts column `col` (witness `S_col`) into `out`: bit `b` of
    /// `out` is `T[b]`'s bit `col`. `out` must hold at least
    /// `⌈rows/64⌉` words; words beyond that are untouched.
    pub fn extract_col(&self, col: usize, out: &mut [u64]) {
        out[..self.rows.div_ceil(64)].fill(0);
        let w = col / 64;
        let sh = col % 64;
        for (b, row) in self.words.chunks_exact(self.wpr.max(1)).enumerate() {
            out[b >> 6] |= ((row[w] >> sh) & 1) << (b & 63);
        }
    }
}

/// Clears bits `0..=i` of a packed word slice (keeps strictly higher
/// bits) — the "only update later witnesses" mask step.
#[inline]
pub fn clear_bits_through(words: &mut [u64], i: usize) {
    let w = i / 64;
    for x in &mut words[..w] {
        *x = 0;
    }
    // Two shifts so `i % 64 == 63` cannot overflow the shift amount.
    words[w] &= (u64::MAX << (i % 64)) << 1;
}

/// Popcount over packed words.
#[inline]
pub fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| w.count_ones() as u64).sum()
}

/// The current phase's witness `S_i`, extracted from the matrix column
/// into flat words, with one extra always-zero **sentinel bit** at index
/// `len` so spanning-tree edges (no witness bit) read as 0 without a
/// branch.
#[derive(Clone, Debug, Default)]
pub struct PackedWitness {
    words: Vec<u64>,
    len: usize,
}

impl PackedWitness {
    /// The sentinel bit index for witnesses of length `f`.
    #[inline]
    pub fn sentinel(f: usize) -> u32 {
        f as u32
    }

    /// Resizes for length `f` (plus the sentinel bit) and zeroes
    /// everything, reusing the allocation.
    pub fn reset(&mut self, f: usize) {
        self.len = f;
        self.words.clear();
        self.words.resize((f + 1).div_ceil(64), 0);
    }

    /// Witness length (excluding the sentinel).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the witness has length zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit read; `bit` may be the sentinel index (always 0).
    #[inline]
    pub fn get(&self, bit: u32) -> bool {
        (self.words[(bit >> 6) as usize] >> (bit & 63)) & 1 == 1
    }

    /// Loads column `col` of `m` (must have `len()` rows).
    pub fn load_col(&mut self, m: &BitMatrix, col: usize) {
        debug_assert_eq!(m.dims().0, self.len);
        self.words.fill(0);
        m.extract_col(col, &mut self.words);
    }

    /// Sorted indices of the set bits (the support of `S_i` — the rows the
    /// batched update must XOR), appended to `out`.
    pub fn support_into(&self, out: &mut Vec<u32>) {
        out.clear();
        for (wi, &w) in self.words.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                out.push((wi * 64) as u32 + w.trailing_zeros());
                w &= w - 1;
            }
        }
        debug_assert!(out.last().is_none_or(|&b| (b as usize) < self.len));
    }

    /// Inner product with a sparse vector of bit indices.
    pub fn sparse_dot(&self, indices: &[u32]) -> bool {
        indices.iter().fold(false, |acc, &b| acc ^ self.get(b))
    }

    /// Copies into a [`DenseBits`] (the signed-search backstop's witness
    /// type). Allocates — only used on the rare fallback path.
    pub fn to_dense(&self) -> DenseBits {
        let mut d = DenseBits::zero(self.len);
        for b in 0..self.len {
            if self.get(b as u32) {
                d.set(b, true);
            }
        }
        d
    }
}

/// Per-tree edge-incidence packing: for every candidate tree, the
/// top-down `(vertex, parent, witness bit)` triples flattened into
/// contiguous arrays, so one phase's label pass is a sweep over flat
/// memory.
#[derive(Clone, Debug, Default)]
pub struct TreePacks {
    /// Vertices per tree (= `g.n()`; labels are indexed by vertex id).
    n: usize,
    trees: usize,
    /// Vertex receiving the label at each packed entry.
    vertex: Vec<u32>,
    /// Its parent in the tree (label already final — top-down order).
    parent: Vec<u32>,
    /// Witness bit of the connecting tree edge (sentinel if the edge is in
    /// the global spanning tree).
    bit: Vec<u32>,
    /// Entry ranges per tree (`trees + 1` fenceposts).
    offsets: Vec<u32>,
}

impl TreePacks {
    /// Rebuilds the packing for `cands`' trees against `cs`, reusing
    /// allocations.
    pub fn build(&mut self, cands: &Candidates, cs: &CycleSpace, n: usize) {
        let sentinel = PackedWitness::sentinel(cs.dim());
        self.n = n;
        self.trees = cands.trees.len();
        self.vertex.clear();
        self.parent.clear();
        self.bit.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for (t, ord) in cands.trees.iter().zip(&cands.order) {
            for &u in ord {
                if u == t.source {
                    continue;
                }
                self.vertex.push(u);
                self.parent.push(t.parent_vertex[u as usize]);
                let idx = cs.nt_index[t.parent_edge[u as usize] as usize];
                self.bit.push(if idx == u32::MAX { sentinel } else { idx });
            }
            self.offsets.push(self.vertex.len() as u32);
        }
    }

    /// Number of packed trees.
    pub fn trees(&self) -> usize {
        self.trees
    }

    /// Labels-computed count of tree `t` — identical to what the scalar
    /// label pass counts, without doing the work.
    pub fn count(&self, t: usize) -> u64 {
        (self.offsets[t + 1] - self.offsets[t]) as u64
    }

    /// Total label bytes the pass writes (`trees × n`).
    pub fn label_len(&self) -> usize {
        self.trees * self.n
    }

    /// One phase's label pass for every tree against witness `s`.
    /// `labels` is the flat `trees × n` byte buffer; tree `t`'s labels
    /// live at `labels[t*n..][..n]`. Sources and unreachable vertices are
    /// never written — the caller zeroes the buffer once per run.
    /// Parallel across trees once the packed volume crosses
    /// [`PAR_LABEL_ENTRIES`].
    pub fn labels_pass(&self, s: &PackedWitness, labels: &mut [u8]) {
        debug_assert_eq!(labels.len(), self.label_len());
        if self.vertex.len() < PAR_LABEL_ENTRIES || self.trees <= 1 {
            for (t, lab) in labels.chunks_mut(self.n.max(1)).enumerate() {
                self.labels_one(t, s, lab);
            }
            return;
        }
        let mut slices: Vec<(usize, &mut [u8])> = labels.chunks_mut(self.n).enumerate().collect();
        ear_graph::par_map_mut(&mut slices, |(t, lab)| self.labels_one(*t, s, lab));
    }

    fn labels_one(&self, t: usize, s: &PackedWitness, lab: &mut [u8]) {
        let lo = self.offsets[t] as usize;
        let hi = self.offsets[t + 1] as usize;
        for k in lo..hi {
            let c = s.get(self.bit[k]) as u8;
            lab[self.vertex[k] as usize] = lab[self.parent[k] as usize] ^ c;
        }
    }
}

/// Per-edge packing for the O(1) candidate orthogonality test:
/// `⟨C_ze, S⟩ = l_z(u) ⊕ l_z(v) ⊕ S(e)` as three flat-array reads.
#[derive(Clone, Debug, Default)]
pub struct EdgePack {
    u: Vec<u32>,
    v: Vec<u32>,
    bit: Vec<u32>,
}

impl EdgePack {
    /// Rebuilds the per-edge arrays for `g` against `cs`, reusing
    /// allocations.
    pub fn build(&mut self, g: &CsrGraph, cs: &CycleSpace) {
        let sentinel = PackedWitness::sentinel(cs.dim());
        self.u.clear();
        self.v.clear();
        self.bit.clear();
        for e in 0..g.m() as u32 {
            let r = g.edge(e);
            self.u.push(r.u);
            self.v.push(r.v);
            let idx = cs.nt_index[e as usize];
            self.bit.push(if idx == u32::MAX { sentinel } else { idx });
        }
    }

    /// The candidate orthogonality test against tree `cand.z_idx`'s labels
    /// (a slice of the flat label buffer) and witness `s`.
    #[inline]
    pub fn candidate_dot(
        &self,
        cand: &CandRef,
        labels: &[u8],
        n: usize,
        s: &PackedWitness,
    ) -> bool {
        let base = cand.z_idx as usize * n;
        let e = cand.edge as usize;
        let l = labels[base + self.u[e] as usize] ^ labels[base + self.v[e] as usize];
        (l != 0) ^ s.get(self.bit[e])
    }
}

/// All scratch state of one batched de Pina run, pooled across runs: the
/// word-transposed witness matrix, the extracted witness, the accumulator
/// and update-mask rows, the support index list, the flat label bytes, and
/// the tree/edge packings.
#[derive(Debug, Default)]
pub struct DepinaScratch {
    /// Word-transposed witness matrix `T`.
    pub matrix: BitMatrix,
    /// Extracted current witness `S_i` (with sentinel bit).
    pub witness: PackedWitness,
    /// Batched-dot accumulator row (`⌈f/64⌉` words).
    pub acc: Vec<u64>,
    /// Support of `S_i` (row indices for the batched update).
    pub support: Vec<u32>,
    /// Flat per-tree label bytes (`trees × n`).
    pub labels: Vec<u8>,
    /// Per-tree edge-incidence packing.
    pub tree_packs: TreePacks,
    /// Per-edge `(u, v, bit)` packing.
    pub edge_pack: EdgePack,
}

impl DepinaScratch {
    /// A fresh, empty scratch (arrays grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes every buffer for a run on `g` with candidate set `cands`:
    /// identity witness matrix, zeroed labels, rebuilt packings.
    pub fn prepare(&mut self, g: &CsrGraph, cs: &CycleSpace, cands: &Candidates) {
        let f = cs.dim();
        self.matrix.reset_identity(f);
        self.witness.reset(f);
        self.acc.clear();
        self.acc.resize(f.div_ceil(64), 0);
        self.tree_packs.build(cands, cs, g.n());
        self.edge_pack.build(g, cs);
        self.labels.clear();
        self.labels.resize(self.tree_packs.label_len(), 0);
    }

    /// Loads witness `S_i` from the matrix and recomputes every tree's
    /// labels against it — the batched phase-1 kernel.
    pub fn begin_phase(&mut self, i: usize) {
        self.witness.load_col(&self.matrix, i);
        self.tree_packs.labels_pass(&self.witness, &mut self.labels);
    }

    /// The phase-2 candidate test against the current labels/witness.
    #[inline]
    pub fn candidate_dot(&self, cand: &CandRef) -> bool {
        self.edge_pack
            .candidate_dot(cand, &self.labels, self.tree_packs.n, &self.witness)
    }

    /// The batched phase-3 kernel for phase `i` and chosen cycle
    /// restriction `nt`: computes all dots at once, masks to witnesses
    /// `j > i`, applies the update, and returns how many witnesses were
    /// updated (the number of `j > i` with `⟨C_i, S_j⟩ = 1`).
    pub fn update_witnesses(&mut self, i: usize, nt: &[u32]) -> u64 {
        self.matrix.xor_rows_into(nt, &mut self.acc);
        debug_assert!(
            (self.acc[i / 64] >> (i % 64)) & 1 == 1,
            "chosen cycle must hit its own witness"
        );
        clear_bits_through(&mut self.acc, i);
        let updated = popcount(&self.acc);
        if updated > 0 {
            self.witness.support_into(&mut self.support);
            self.matrix.xor_mask_rows(&self.support, &self.acc);
        }
        updated
    }
}

ear_graph::scratch_pool! {
    /// Runs `f` with a pooled per-thread [`DepinaScratch`] (an
    /// [`ear_graph::pool`] of at most 16 spares), so repeated phase-loop
    /// runs reuse warm buffers.
    pub fn with_depina_scratch(DepinaScratch, bound = 16);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference witnesses as plain DenseBits for cross-checking.
    fn dense_cols(m: &BitMatrix) -> Vec<DenseBits> {
        let (rows, cols) = m.dims();
        (0..cols)
            .map(|j| {
                let mut d = DenseBits::zero(rows);
                for b in 0..rows {
                    d.set(b, m.get(b, j));
                }
                d
            })
            .collect()
    }

    #[test]
    fn identity_matches_unit_witnesses() {
        let mut m = BitMatrix::new();
        m.reset_identity(70);
        for (j, col) in dense_cols(&m).into_iter().enumerate() {
            assert_eq!(col, DenseBits::unit(70, j));
        }
    }

    #[test]
    fn batched_dot_equals_per_witness_sparse_dot() {
        let mut m = BitMatrix::new();
        m.reset_identity(130);
        // Mix some columns so the matrix is not diagonal.
        let seed_mask: Vec<u64> = vec![0xdead_beef_0123_4567, 0x89ab_cdef_fedc_ba98, 0x0f0f];
        m.xor_mask_rows(&[3, 64, 127, 129], &seed_mask);
        let nt: Vec<u32> = vec![1, 3, 64, 100, 129];
        let mut acc = vec![0u64; 130usize.div_ceil(64)];
        m.xor_rows_into(&nt, &mut acc);
        for (j, col) in dense_cols(&m).into_iter().enumerate() {
            let expect = col.sparse_dot(&nt);
            let got = (acc[j / 64] >> (j % 64)) & 1 == 1;
            assert_eq!(got, expect, "witness {j}");
        }
    }

    #[test]
    fn masked_update_equals_per_witness_xor() {
        let f = 200;
        let mut m = BitMatrix::new();
        m.reset_identity(f);
        let before = dense_cols(&m);
        // Update witnesses {5, 70, 199} by XORing in witness 2's column:
        // support of e_2 is {2}, mask has bits 5, 70, 199.
        let mut mask = vec![0u64; f.div_ceil(64)];
        for j in [5usize, 70, 199] {
            mask[j / 64] |= 1 << (j % 64);
        }
        m.xor_mask_rows(&[2], &mask);
        let after = dense_cols(&m);
        for j in 0..f {
            let mut expect = before[j].clone();
            if [5usize, 70, 199].contains(&j) {
                expect.xor_assign(&before[2]);
            }
            assert_eq!(after[j], expect, "witness {j}");
        }
    }

    #[test]
    fn extract_col_roundtrip_with_sentinel() {
        let f = 64; // boundary: sentinel bit lands in a fresh word
        let mut m = BitMatrix::new();
        m.reset_identity(f);
        let mask = vec![u64::MAX];
        m.xor_mask_rows(&[0, 63], &mask);
        let mut w = PackedWitness::default();
        w.reset(f);
        for j in 0..f {
            w.load_col(&m, j);
            assert!(!w.get(PackedWitness::sentinel(f)), "sentinel must stay 0");
            for b in 0..f {
                assert_eq!(w.get(b as u32), m.get(b, j), "col {j} bit {b}");
            }
            let mut support = Vec::new();
            w.support_into(&mut support);
            let expect: Vec<u32> = (0..f as u32).filter(|&b| m.get(b as usize, j)).collect();
            assert_eq!(support, expect);
            assert_eq!(w.to_dense(), dense_cols(&m)[j]);
        }
    }

    #[test]
    fn clear_bits_through_boundaries() {
        for i in [0usize, 1, 62, 63, 64, 65, 126, 127] {
            let mut words = vec![u64::MAX; 2];
            clear_bits_through(&mut words, i);
            for b in 0..128 {
                let set = (words[b / 64] >> (b % 64)) & 1 == 1;
                assert_eq!(set, b > i, "i={i} bit {b}");
            }
        }
    }

    #[test]
    fn pooled_scratch_is_reused_across_runs() {
        let g1 = CsrGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1), (2, 0, 1)]);
        let g2 = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 1)]);
        for g in [&g1, &g2, &g1] {
            let cs = CycleSpace::new(g);
            let cands = crate::candidates::generate(g);
            with_depina_scratch(|s| {
                s.prepare(g, &cs, &cands);
                assert_eq!(s.matrix.dims(), (cs.dim(), cs.dim()));
                s.begin_phase(0);
                assert_eq!(s.witness.len(), cs.dim());
            });
        }
    }
}
