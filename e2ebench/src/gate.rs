//! The correctness gate. Runs outside every timed region; each comparison
//! is one attempted operation and each mismatch one failed operation.

use ear_graph::{connected_components, dijkstra, CsrGraph, VertexId, Weight};
use ear_mcb::{verify_basis, McbResult};

/// Operations checked and failed so far, plus the first few failures.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that gave a wrong answer.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// Compares `answer(s, t)` with plain Dijkstra on `g` for every source in
/// `sources` and every target.
pub fn check_sources(
    tally: &mut Tally,
    g: &CsrGraph,
    sources: &[VertexId],
    label: &str,
    answer: impl Fn(VertexId, VertexId) -> Weight,
) {
    for &s in sources {
        let truth = dijkstra(g, s);
        for (t, &d) in truth.iter().enumerate() {
            let got = answer(s, t as VertexId);
            tally.check(got == d, || {
                format!("{label}: d({s},{t}) = {got}, expected {d}")
            });
        }
    }
}

/// Compares recorded `(u, v, answer)` triples with plain Dijkstra on `g`.
pub fn check_pairs(
    tally: &mut Tally,
    g: &CsrGraph,
    pairs: &[(VertexId, VertexId, Weight)],
    label: &str,
) {
    for &(u, v, got) in pairs {
        let d = dijkstra(g, u)[v as usize];
        tally.check(got == d, || {
            format!("{label}: d({u},{v}) = {got}, expected {d}")
        });
    }
}

/// Checks an MCB answer: basis validity (`verify_basis`: cycle vectors,
/// stored weights, full rank), the dimension `m − n + k` both as reported
/// and as returned, and the total weight against an independently
/// computed reference.
pub fn check_mcb(tally: &mut Tally, g: &CsrGraph, res: &McbResult, reference: Weight) {
    let cycles = &res.cycles;
    let basis = verify_basis(g, cycles);
    tally.check(basis.is_ok(), || {
        format!("mcb basis: {}", basis.unwrap_err())
    });
    let expected = g.m() + connected_components(g).count - g.n();
    tally.check(res.dim == expected && cycles.len() == expected, || {
        format!(
            "mcb dim: reported {}, {} cycles, expected {expected}",
            res.dim,
            cycles.len()
        )
    });
    let sum: Weight = cycles.iter().map(|c| c.weight).sum();
    tally.check(res.total_weight == reference && sum == reference, || {
        format!(
            "mcb weight: {} (cycles sum {sum}), reference {reference}",
            res.total_weight
        )
    });
}
