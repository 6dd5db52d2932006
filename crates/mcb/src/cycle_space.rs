//! The GF(2) cycle space of a weighted multigraph.
//!
//! Fixing any spanning tree `T`, the non-tree edges `E' = {e₁, …, e_f}`
//! (`f = m − n + k`) index the cycle space: every cycle is uniquely
//! determined by its restriction to `E'` (paper §3.2), so witnesses are
//! dense `f`-bit vectors and cycles are sparse index lists.

use ear_graph::{non_tree_edges, tree_edge_flags, CsrGraph, EdgeId, Weight};

/// A dense GF(2) vector of fixed length `f`, packed into `u64` words.
///
/// This is the witness representation `S ∈ {0,1}^f`; the word-level XOR of
/// [`DenseBits::xor_assign`] is the paper's independence-test update, and
/// what the GPU mode reduces over warp-style.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DenseBits {
    len: usize,
    words: Vec<u64>,
}

impl DenseBits {
    /// All-zero vector of length `len`.
    pub fn zero(len: usize) -> Self {
        DenseBits {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Standard basis vector `e_i`.
    pub fn unit(len: usize, i: usize) -> Self {
        let mut b = Self::zero(len);
        b.set(i, true);
        b
    }

    /// Vector length (bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Bit access.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Bit assignment.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        let w = &mut self.words[i / 64];
        if v {
            *w |= 1 << (i % 64);
        } else {
            *w &= !(1 << (i % 64));
        }
    }

    /// `self ^= other`; returns the number of words touched (the counter
    /// the independence-test cost model charges).
    pub fn xor_assign(&mut self, other: &DenseBits) -> u64 {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
        self.words.len() as u64
    }

    /// Inner product with a *sparse* vector given as sorted bit indices.
    #[inline]
    pub fn sparse_dot(&self, indices: &[u32]) -> bool {
        let mut acc = false;
        for &i in indices {
            acc ^= self.get(i as usize);
        }
        acc
    }

    /// Dense inner product `⟨self, other⟩` in GF(2).
    pub fn dense_dot(&self, other: &DenseBits) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut acc = 0u64;
        for (a, b) in self.words.iter().zip(&other.words) {
            acc ^= a & b;
        }
        acc.count_ones() % 2 == 1
    }

    /// Number of set bits.
    pub fn popcount(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Index of the lowest set bit.
    pub fn lowest_set(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Words backing the vector (read-only).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Incremental Gaussian elimination over GF(2): the independent vectors
/// kept so far, no two with the same lowest set bit (their pivot
/// columns). Horton's greedy filter and [`crate::verify::basis_rank`]
/// share it.
#[derive(Default)]
pub(crate) struct Gf2Elimination {
    pivots: Vec<DenseBits>,
    pivot_cols: Vec<usize>,
}

impl Gf2Elimination {
    /// Reduces `v` by the kept vectors; keeps it and returns `true` when it
    /// is independent of them.
    pub(crate) fn insert(&mut self, mut v: DenseBits) -> bool {
        while let Some(low) = v.lowest_set() {
            match self.pivot_cols.iter().position(|&p| p == low) {
                Some(i) => {
                    v.xor_assign(&self.pivots[i]);
                }
                None => {
                    self.pivot_cols.push(low);
                    self.pivots.push(v);
                    return true;
                }
            }
        }
        false
    }

    /// Vectors kept: the rank of everything inserted.
    pub(crate) fn rank(&self) -> usize {
        self.pivots.len()
    }
}

/// A cycle (or general cycle-space vector): explicit edge set plus its
/// sparse restriction to `E'`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cycle {
    /// Every edge of the cycle (ids in the underlying graph).
    pub edges: Vec<EdgeId>,
    /// Total weight.
    pub weight: Weight,
    /// Sorted indices into the non-tree edge order `E'`.
    pub nt: Vec<u32>,
}

/// Spanning-tree frame over a multigraph: the ordered non-tree edges and
/// the maps between edge ids and `E'` indices.
#[derive(Clone, Debug)]
pub struct CycleSpace {
    /// `tree[e]` is true for spanning-forest edges.
    pub tree: Vec<bool>,
    /// Ascending non-tree edge ids, `E' = {e₁..e_f}`.
    pub nontree: Vec<EdgeId>,
    /// `edge id → index in E'` (`u32::MAX` for tree edges).
    pub nt_index: Vec<u32>,
}

impl CycleSpace {
    /// Builds the frame from a BFS spanning forest of `g`.
    pub fn new(g: &CsrGraph) -> Self {
        let tree = tree_edge_flags(g);
        let nontree = non_tree_edges(g);
        let mut nt_index = vec![u32::MAX; g.m()];
        for (i, &e) in nontree.iter().enumerate() {
            nt_index[e as usize] = i as u32;
        }
        CycleSpace {
            tree,
            nontree,
            nt_index,
        }
    }

    /// Cycle-space dimension `f = m − n + k`.
    pub fn dim(&self) -> usize {
        self.nontree.len()
    }

    /// Assembles a [`Cycle`] from an edge set, computing weight and the
    /// `E'` restriction. The edge list is deduplicated mod 2 (an edge
    /// appearing twice cancels), which is what re-expansion and signed
    /// search need.
    pub fn cycle_from_edges(&self, g: &CsrGraph, edges: impl IntoIterator<Item = EdgeId>) -> Cycle {
        let mut toggle = std::collections::HashMap::<EdgeId, bool>::new();
        for e in edges {
            *toggle.entry(e).or_insert(false) ^= true;
        }
        let mut kept: Vec<EdgeId> = toggle
            .into_iter()
            .filter_map(|(e, on)| on.then_some(e))
            .collect();
        kept.sort_unstable();
        let weight = kept.iter().map(|&e| g.weight(e)).sum();
        let mut nt: Vec<u32> = kept
            .iter()
            .filter_map(|&e| {
                let i = self.nt_index[e as usize];
                (i != u32::MAX).then_some(i)
            })
            .collect();
        nt.sort_unstable();
        Cycle {
            edges: kept,
            weight,
            nt,
        }
    }

    /// The witness-space representation of a cycle as a dense vector.
    pub fn to_dense(&self, c: &Cycle) -> DenseBits {
        let mut b = DenseBits::zero(self.dim());
        for &i in &c.nt {
            b.set(i as usize, true);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_bits_roundtrip() {
        let mut b = DenseBits::zero(100);
        assert!(b.is_empty());
        b.set(0, true);
        b.set(64, true);
        b.set(99, true);
        assert!(b.get(0) && b.get(64) && b.get(99));
        assert!(!b.get(1));
        assert_eq!(b.popcount(), 3);
        assert_eq!(b.lowest_set(), Some(0));
        b.set(0, false);
        assert_eq!(b.lowest_set(), Some(64));
    }

    #[test]
    fn unit_vectors_are_orthonormal() {
        for i in 0..5 {
            for j in 0..5 {
                let a = DenseBits::unit(5, i);
                let b = DenseBits::unit(5, j);
                assert_eq!(a.dense_dot(&b), i == j);
            }
        }
    }

    #[test]
    fn xor_assign_is_gf2_addition() {
        let mut a = DenseBits::unit(70, 3);
        let b = DenseBits::unit(70, 68);
        a.xor_assign(&b);
        assert!(a.get(3) && a.get(68));
        a.xor_assign(&b);
        assert!(a.get(3) && !a.get(68));
    }

    #[test]
    fn sparse_dot_matches_dense_dot() {
        let mut a = DenseBits::zero(10);
        a.set(2, true);
        a.set(7, true);
        // sparse vector {2, 5}: intersection {2} → odd → true
        assert!(a.sparse_dot(&[2, 5]));
        // sparse {2, 7}: intersection even → false
        assert!(!a.sparse_dot(&[2, 7]));
    }

    #[test]
    fn cycle_space_dimension() {
        // Triangle plus pendant: m=4, n=4, k=1 → f=1.
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1)]);
        let cs = CycleSpace::new(&g);
        assert_eq!(cs.dim(), 1);
        // Two components, each a triangle: f = 6 - 6 + 2 = 2.
        let g2 = CsrGraph::from_edges(
            6,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 3, 1),
            ],
        );
        assert_eq!(CycleSpace::new(&g2).dim(), 2);
    }

    #[test]
    fn self_loops_and_parallel_edges_count_in_dimension() {
        let g = CsrGraph::from_edges(2, &[(0, 1, 1), (0, 1, 2), (0, 0, 3)]);
        let cs = CycleSpace::new(&g);
        // m=3, n=2, k=1 → f = 2 (one parallel copy + the self-loop).
        assert_eq!(cs.dim(), 2);
    }

    #[test]
    fn cycle_from_edges_cancels_duplicates() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 5), (1, 2, 7), (2, 0, 9)]);
        let cs = CycleSpace::new(&g);
        let c = cs.cycle_from_edges(&g, vec![0, 1, 2, 1, 1]);
        assert_eq!(c.edges, vec![0, 1, 2]);
        assert_eq!(c.weight, 21);
        let c2 = cs.cycle_from_edges(&g, vec![0, 0]);
        assert!(c2.edges.is_empty());
        assert_eq!(c2.weight, 0);
    }

    #[test]
    fn to_dense_restricts_to_nontree() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1), (2, 0, 1)]);
        let cs = CycleSpace::new(&g);
        assert_eq!(cs.dim(), 1);
        let c = cs.cycle_from_edges(&g, vec![0, 1, 2]);
        assert_eq!(c.nt.len(), 1);
        let d = cs.to_dense(&c);
        assert_eq!(d.popcount(), 1);
    }
}
