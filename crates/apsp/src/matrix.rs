//! Dense symmetric distance-matrix storage.

use ear_graph::{Weight, INF};

/// A dense `n × n` distance matrix (row-major `u64` entries).
///
/// Stored square rather than triangular: the post-processing and query
/// loops are row-streaming, and the paper's memory accounting (Table 1) is
/// reproduced analytically in [`crate::oracle::OracleStats`] rather than by
/// measuring this struct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistMatrix {
    n: usize,
    d: Vec<Weight>,
}

impl DistMatrix {
    /// An `n × n` matrix filled with `INF`, zero diagonal.
    pub fn new(n: usize) -> Self {
        let mut d = vec![INF; n * n];
        for i in 0..n {
            d[i * n + i] = 0;
        }
        DistMatrix { n, d }
    }

    /// Builds from already-computed rows (each of length `n`).
    pub fn from_rows(rows: Vec<Vec<Weight>>) -> Self {
        let n = rows.len();
        let mut d = Vec::with_capacity(n * n);
        for r in &rows {
            assert_eq!(r.len(), n, "row length mismatch");
            d.extend_from_slice(r);
        }
        DistMatrix { n, d }
    }

    /// Side length.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance entry.
    #[inline]
    pub fn get(&self, i: u32, j: u32) -> Weight {
        self.d[i as usize * self.n + j as usize]
    }

    /// Sets one entry (not mirrored — callers decide symmetry).
    #[inline]
    pub fn set(&mut self, i: u32, j: u32, w: Weight) {
        self.d[i as usize * self.n + j as usize] = w;
    }

    /// Sets `d[i][j]` and `d[j][i]`.
    #[inline]
    pub fn set_sym(&mut self, i: u32, j: u32, w: Weight) {
        self.set(i, j, w);
        self.set(j, i, w);
    }

    /// Immutable row view.
    #[inline]
    pub fn row(&self, i: u32) -> &[Weight] {
        &self.d[i as usize * self.n..(i as usize + 1) * self.n]
    }

    /// Mutable row view.
    #[inline]
    pub fn row_mut(&mut self, i: u32) -> &mut [Weight] {
        &mut self.d[i as usize * self.n..(i as usize + 1) * self.n]
    }

    /// Mutable views of every row, in order: disjoint `&mut` rows that one
    /// parallel region can fill.
    pub fn rows_mut(&mut self) -> impl Iterator<Item = &mut [Weight]> {
        self.d.chunks_mut(self.n.max(1))
    }

    /// Checks symmetry (used by tests; undirected distances are symmetric).
    pub fn is_symmetric(&self) -> bool {
        (0..self.n).all(|i| (i..self.n).all(|j| self.d[i * self.n + j] == self.d[j * self.n + i]))
    }

    /// Bytes this matrix actually occupies.
    pub fn bytes(&self) -> usize {
        self.d.len() * std::mem::size_of::<Weight>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_has_zero_diagonal_inf_elsewhere() {
        let m = DistMatrix::new(3);
        assert_eq!(m.get(0, 0), 0);
        assert_eq!(m.get(1, 1), 0);
        assert_eq!(m.get(0, 2), INF);
        assert_eq!(m.get(2, 2), 0);
    }

    #[test]
    fn set_sym_mirrors() {
        let mut m = DistMatrix::new(4);
        m.set_sym(1, 3, 42);
        assert_eq!(m.get(1, 3), 42);
        assert_eq!(m.get(3, 1), 42);
        assert!(m.is_symmetric());
    }

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![vec![0, 5, 9], vec![5, 0, 4], vec![9, 4, 0]];
        let m = DistMatrix::from_rows(rows.clone());
        for i in 0..3u32 {
            assert_eq!(m.row(i), &rows[i as usize][..]);
        }
        assert!(m.is_symmetric());
    }

    #[test]
    fn asymmetry_is_detected() {
        let mut m = DistMatrix::new(2);
        m.set(0, 1, 7);
        assert!(!m.is_symmetric());
    }

    #[test]
    fn bytes_accounts_full_square() {
        let m = DistMatrix::new(10);
        assert_eq!(m.bytes(), 100 * 8);
    }
}
