//! Plain-text graph interchange: Matrix Market and weighted edge lists.
//!
//! The paper's general-graph datasets come from the University of Florida
//! Sparse Matrix Collection, distributed as Matrix Market files; this module
//! reads the `coordinate` flavour (pattern, real or integer entries) and
//! interprets the matrix as an undirected graph the way the paper does:
//! one vertex per row/column index, one edge per stored off-diagonal entry,
//! symmetric duplicates collapsed.
//!
//! # Weight contract
//!
//! Both readers reject a file whose edge weights sum to [`INF`] or more
//! (summed with `checked_add`, so a `u64` overflow is rejected too). Every
//! simple path and every contracted degree-2 chain uses each edge at most
//! once, so its length is at most the total and stays below `INF`: an
//! accepted graph can never present a finite distance that reads as
//! "unreachable", and chain contraction can sum weights without
//! overflow checks.

use std::io::{BufRead, Write};

use crate::csr::CsrGraph;
use crate::types::{VertexId, Weight, INF};

/// Errors produced by the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the input text.
    Parse { line: usize, msg: String },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_err(line: usize, msg: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        msg: msg.into(),
    }
}

/// Adds the weight of the edge read at `line` to the file's running total,
/// enforcing the [weight contract](self#weight-contract).
fn add_weight(total: Weight, w: Weight, line: usize) -> Result<Weight, IoError> {
    total.checked_add(w).filter(|&t| t < INF).ok_or_else(|| {
        parse_err(
            line,
            format!("total edge weight reaches INF = {INF} (weight {w} after {total})"),
        )
    })
}

/// Rejects a vertex count of `VertexId::MAX` or more, which
/// [`CsrGraph::from_edges`] cannot index, as a parse error at `line`.
fn check_vertex_count(n: usize, line: usize) -> Result<(), IoError> {
    if n >= VertexId::MAX as usize {
        return Err(parse_err(
            line,
            format!("{n} vertices exceed the {}-vertex limit", VertexId::MAX - 1),
        ));
    }
    Ok(())
}

/// Reads a Matrix Market `coordinate` file as an undirected graph.
///
/// * Pattern matrices get unit weights.
/// * Real/integer values are taken as weights via `weight_of` (absolute
///   value, rounded, clamped to at least 1) so that metric algorithms see
///   positive integer weights.
/// * Diagonal entries (self-loops) are skipped.
/// * For `general` symmetry, entries `(i,j)` and `(j,i)` are collapsed.
/// * A size line declaring `VertexId::MAX` or more rows or columns is a
///   parse error: a graph holds at most `VertexId::MAX − 1` vertices
///   (see [`CsrGraph::from_edges`]), and the check runs before anything
///   is allocated.
/// * The kept edges' weights must sum below [`INF`] (the
///   [weight contract](self#weight-contract)); otherwise the file is
///   rejected with a parse error at the edge that reaches it.
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<CsrGraph, IoError> {
    let mut lines = reader.lines().enumerate();
    // Header.
    let (hline, header) = loop {
        match lines.next() {
            Some((i, l)) => {
                let l = l?;
                if !l.trim().is_empty() {
                    break (i + 1, l);
                }
            }
            None => return Err(parse_err(0, "empty file")),
        }
    };
    let h: Vec<String> = header
        .split_whitespace()
        .map(|s| s.to_ascii_lowercase())
        .collect();
    if h.len() < 4 || h[0] != "%%matrixmarket" || h[1] != "matrix" || h[2] != "coordinate" {
        return Err(parse_err(
            hline,
            "expected '%%MatrixMarket matrix coordinate ...' header",
        ));
    }
    let pattern = h[3] == "pattern";
    // Size line (skipping comments).
    let (n, _declared_nnz, size_line) = loop {
        match lines.next() {
            Some((i, l)) => {
                let l = l?;
                let t = l.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                let parts: Vec<&str> = t.split_whitespace().collect();
                if parts.len() < 3 {
                    return Err(parse_err(i + 1, "size line needs rows cols nnz"));
                }
                let rows: usize = parts[0]
                    .parse()
                    .map_err(|_| parse_err(i + 1, "bad row count"))?;
                let cols: usize = parts[1]
                    .parse()
                    .map_err(|_| parse_err(i + 1, "bad col count"))?;
                let nnz: usize = parts[2].parse().map_err(|_| parse_err(i + 1, "bad nnz"))?;
                let n = rows.max(cols);
                check_vertex_count(n, i + 1)?;
                break (n, nnz, i + 1);
            }
            None => return Err(parse_err(0, "missing size line")),
        }
    };
    let _ = size_line;
    let mut seen = std::collections::HashSet::new();
    let mut edges = Vec::new();
    let mut total: Weight = 0;
    for (i, l) in lines {
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        if parts.len() < 2 {
            return Err(parse_err(i + 1, "entry needs at least row and col"));
        }
        let r: usize = parts[0]
            .parse()
            .map_err(|_| parse_err(i + 1, "bad row index"))?;
        let c: usize = parts[1]
            .parse()
            .map_err(|_| parse_err(i + 1, "bad col index"))?;
        if r == 0 || c == 0 || r > n || c > n {
            return Err(parse_err(i + 1, "index out of declared range"));
        }
        if r == c {
            continue; // diagonal entry = self-loop; the paper's graphs drop these
        }
        let w: Weight = if pattern || parts.len() < 3 {
            1
        } else {
            weight_of(parts[2]).ok_or_else(|| parse_err(i + 1, "bad value"))?
        };
        let (a, b) = ((r - 1) as u32, (c - 1) as u32);
        let key = if a < b { (a, b) } else { (b, a) };
        if seen.insert(key) {
            total = add_weight(total, w, i + 1)?;
            edges.push((key.0, key.1, w));
        }
    }
    Ok(CsrGraph::from_edges(n, &edges))
}

/// Maps a textual numeric value to a positive integer weight: `|x|` rounded,
/// clamped to ≥ 1 so that zero-valued entries still denote unit edges.
fn weight_of(s: &str) -> Option<Weight> {
    let x: f64 = s.parse().ok()?;
    if !x.is_finite() {
        return None;
    }
    Some((x.abs().round() as u64).max(1))
}

/// Reads a whitespace-separated weighted edge list: each non-comment line is
/// `u v [w]` with zero-based vertex ids; `w` defaults to 1. The vertex count
/// is `max id + 1` unless a larger `min_n` is given.
///
/// The weights must sum below [`INF`] (the
/// [weight contract](self#weight-contract)); otherwise the file is
/// rejected with a parse error at the edge that reaches it.
///
/// The vertex count must stay below `VertexId::MAX` (see
/// [`CsrGraph::from_edges`]): an id of `VertexId::MAX − 1` or more is a
/// parse error at its line, and a `min_n` of `VertexId::MAX` or more one
/// at line 0.
pub fn read_edge_list<R: BufRead>(reader: R, min_n: usize) -> Result<CsrGraph, IoError> {
    check_vertex_count(min_n, 0)?;
    let mut edges: Vec<(u32, u32, Weight)> = Vec::new();
    let mut n = min_n;
    let mut total: Weight = 0;
    for (i, l) in reader.lines().enumerate() {
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        if parts.len() < 2 {
            return Err(parse_err(i + 1, "edge line needs u v [w]"));
        }
        let u: u32 = parts[0].parse().map_err(|_| parse_err(i + 1, "bad u"))?;
        let v: u32 = parts[1].parse().map_err(|_| parse_err(i + 1, "bad v"))?;
        let w: Weight = if parts.len() >= 3 {
            parts[2].parse().map_err(|_| parse_err(i + 1, "bad w"))?
        } else {
            1
        };
        total = add_weight(total, w, i + 1)?;
        n = n.max(u.max(v) as usize + 1);
        check_vertex_count(n, i + 1)?;
        edges.push((u, v, w));
    }
    Ok(CsrGraph::from_edges(n, &edges))
}

/// Writes a graph in the edge-list format accepted by [`read_edge_list`].
pub fn write_edge_list<W: Write>(g: &CsrGraph, mut out: W) -> std::io::Result<()> {
    writeln!(out, "# n={} m={}", g.n(), g.m())?;
    for e in g.edges() {
        writeln!(out, "{} {} {}", e.u, e.v, e.w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn matrix_market_pattern_symmetric() {
        let text = "\
%%MatrixMarket matrix coordinate pattern symmetric
% a comment
3 3 3
2 1
3 1
3 2
";
        let g = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert!(g.is_simple());
    }

    #[test]
    fn matrix_market_real_general_collapses_duplicates_and_diagonal() {
        let text = "\
%%MatrixMarket matrix coordinate real general
3 3 5
1 2 2.6
2 1 2.6
1 1 9.0
2 3 -4.4
3 2 -4.4
";
        let g = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(g.m(), 2);
        let ws: Vec<_> = g.edges().iter().map(|e| e.w).collect();
        assert!(ws.contains(&3)); // |2.6| rounds to 3
        assert!(ws.contains(&4)); // |-4.4| rounds to 4
    }

    #[test]
    fn matrix_market_rejects_bad_header() {
        let text = "%%MatrixMarket matrix array real general\n2 2\n1.0\n";
        assert!(read_matrix_market(Cursor::new(text)).is_err());
    }

    #[test]
    fn matrix_market_rejects_out_of_range_index() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 5\n";
        assert!(read_matrix_market(Cursor::new(text)).is_err());
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 5), (2, 3, 7), (1, 2, 1)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf), 0).unwrap();
        assert_eq!(g2.n(), g.n());
        assert_eq!(g2.m(), g.m());
        for (a, b) in g.edges().iter().zip(g2.edges()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn edge_list_default_weight_and_min_n() {
        let g = read_edge_list(Cursor::new("0 1\n"), 10).unwrap();
        assert_eq!(g.n(), 10);
        assert_eq!(g.weight(0), 1);
    }

    #[test]
    fn matrix_market_rejects_sizes_beyond_vertex_ids() {
        // 2^32 + 1 rows: vertex 2^32 would fold onto vertex 0 as a u32.
        let text =
            "%%MatrixMarket matrix coordinate pattern general\n4294967297 2 1\n4294967297 1\n";
        match read_matrix_market(Cursor::new(text)) {
            Err(IoError::Parse { line: 2, .. }) => {}
            other => panic!("expected a size-line parse error, got {other:?}"),
        }
    }

    #[test]
    fn matrix_market_rejects_a_size_at_the_vertex_id_limit() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n4294967295 4294967295 0\n";
        assert!(matches!(
            read_matrix_market(Cursor::new(text)),
            Err(IoError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn edge_list_rejects_ids_and_min_n_at_the_vertex_id_limit() {
        // Id u32::MAX − 1 needs n = u32::MAX vertices.
        assert!(matches!(
            read_edge_list(Cursor::new("0 1\n0 4294967294\n"), 0),
            Err(IoError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            read_edge_list(Cursor::new("0 1\n"), u32::MAX as usize),
            Err(IoError::Parse { line: 0, .. })
        ));
    }

    #[test]
    fn readers_reject_a_single_weight_at_inf() {
        let el = format!("0 1 {INF}\n");
        assert!(matches!(
            read_edge_list(Cursor::new(el), 0),
            Err(IoError::Parse { line: 1, .. })
        ));
        let mm = format!("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 {INF}\n");
        assert!(matches!(
            read_matrix_market(Cursor::new(mm)),
            Err(IoError::Parse { line: 3, .. })
        ));
        // Just below the bound is accepted.
        let g = read_edge_list(Cursor::new(format!("0 1 {}\n", INF - 1)), 0).unwrap();
        assert_eq!(g.weight(0), INF - 1);
    }

    #[test]
    fn readers_reject_weights_whose_sum_overflows() {
        // 5 + u64::MAX wraps: checked_add catches it.
        let el = format!("0 1 5\n1 2 {}\n", u64::MAX);
        assert!(matches!(
            read_edge_list(Cursor::new(el), 0),
            Err(IoError::Parse { line: 2, .. })
        ));
        let mm = format!(
            "%%MatrixMarket matrix coordinate integer general\n3 3 2\n1 2 5\n2 3 {}\n",
            u64::MAX
        );
        assert!(matches!(
            read_matrix_market(Cursor::new(mm)),
            Err(IoError::Parse { line: 4, .. })
        ));
        // Each weight alone below INF, the running sum reaching it.
        let half = INF / 2 + 1;
        let el = format!("0 1 {half}\n1 2 {half}\n");
        assert!(matches!(
            read_edge_list(Cursor::new(el), 0),
            Err(IoError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn zero_value_entries_get_unit_weight() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 0.0\n";
        let g = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(g.weight(0), 1);
    }
}
