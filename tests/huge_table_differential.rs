//! Differential suite for distance tables larger than a 2 MiB huge page.
//!
//! Every table is allocated zeroed and advised for transparent huge
//! pages before it is written (`ear_apsp::arena`). The property suites
//! draw graphs far too small to reach that path, so this one builds a
//! single block of 1200 vertices — a 5.8 MB table at `u32` — and the same
//! graph plus a disjoint `u32::MAX` edge, which stores it at `u64`
//! (11.5 MB). At both widths a cold build and each oracle along a 2-hop
//! refresh chain must answer every pair as Dijkstra does, and each
//! refreshed oracle's tables must be bit-identical to a cold build's.
//!
//! The same checks run on a block whose `u32` tables are built from
//! min-plus sums near `u32::MAX`: the row kernels run on vector lanes
//! where the CPU has them (`ear_graph::kernel_path`), and a lane whose
//! top bit is set must still compare as unsigned.

use std::sync::Arc;

use ear_apsp::{build_oracle_with_plan, ApspMethod, DistanceOracle, QueryEngine};
use ear_decomp::plan::DecompPlan;
use ear_graph::{CsrGraph, Weight};
use ear_hetero::HeteroExecutor;
use ear_testkit::reference::dijkstra;
use ear_testkit::TestRng;

const N: u32 = 1200;

/// Edges lighter than this are re-weighted along a refresh chain; the
/// heavy edges keep their weight, and with it the tables' entry width.
const LIGHT: Weight = 1 << 10;

/// A ring of `N` vertices with a chord from every fourth vertex, weights
/// 1–7: one block, about half its vertices of degree 2. With `heavy`, a
/// disjoint edge `(N, N + 1)` of weight `u32::MAX` is appended.
fn ring_with_chords(heavy: bool) -> CsrGraph {
    let mut edges: Vec<(u32, u32, Weight)> = (0..N)
        .map(|i| (i, (i + 1) % N, Weight::from(1 + i % 7)))
        .collect();
    edges.extend(
        (0..N)
            .step_by(4)
            .map(|i| (i, (7 * i + 13) % N, Weight::from(1 + 3 * i % 7))),
    );
    let mut n = N as usize;
    if heavy {
        edges.push((N, N + 1, Weight::from(u32::MAX)));
        n += 2;
    }
    CsrGraph::from_edges(n, &edges)
}

/// `o` and its query engine answer every pair of `g` as Dijkstra does.
fn matches_dijkstra(o: &DistanceOracle, g: &CsrGraph, what: &str) {
    let q = QueryEngine::new(o);
    for u in 0..g.n() as u32 {
        let row = dijkstra(g, u);
        for (v, &d) in (0..).zip(&row) {
            assert_eq!(o.dist(u, v), d, "{what}: oracle d({u},{v})");
            assert_eq!(q.dist(u, v), d, "{what}: engine d({u},{v})");
        }
    }
}

/// `o`'s tables are bit-identical to a cold build's on the same plan.
fn matches_cold(o: &DistanceOracle, exec: &HeteroExecutor, what: &str) {
    let cold = build_oracle_with_plan(Arc::clone(o.plan()), exec, ApspMethod::Ear);
    let (a, b) = (o.tables(), cold.tables());
    assert_eq!(a.entry_bytes(), b.entry_bytes(), "{what}: width");
    assert_eq!(a.ap_span(), b.ap_span(), "{what}: AP table");
    // `assert!`, not `assert_eq!`: a failure would print 1.4M entries.
    for blk in 0..o.plan().n_blocks() as u32 {
        assert!(
            a.block_span(blk) == b.block_span(blk),
            "{what}: block {blk}"
        );
    }
}

/// A cold build and a 2-hop refresh chain on `ring_with_chords(heavy)`,
/// each stored at `bytes` per entry.
fn cold_and_refresh_chain(heavy: bool, bytes: usize) {
    let exec = HeteroExecutor::sequential();
    let g = ring_with_chords(heavy);
    let o = build_oracle_with_plan(Arc::new(DecompPlan::build(&g)), &exec, ApspMethod::Ear);
    assert_eq!(o.tables().entry_bytes(), bytes);
    assert_eq!(o.plan().n_blocks(), 1 + usize::from(heavy));
    assert!(o.tables().bytes() > 4 << 20, "{} bytes", o.tables().bytes());
    matches_dijkstra(&o, &g, "cold");
    refresh_chain(o, &g, &exec, u64::from(heavy) + 0x4b9e);
}

/// Refreshes cold oracle `o` of `g` twice, each time re-weighting about
/// half the edges lighter than [`LIGHT`] to 1–7 and keeping the rest. Each
/// refreshed oracle keeps its entry width, answers every pair as Dijkstra
/// does and holds a cold build's tables.
fn refresh_chain(mut o: DistanceOracle, g: &CsrGraph, exec: &HeteroExecutor, seed: u64) {
    let bytes = o.tables().entry_bytes();
    let mut rng = TestRng::new(seed);
    let mut w: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
    for hop in 0..2 {
        for x in w.iter_mut().filter(|x| **x < LIGHT) {
            if rng.coin() {
                *x = rng.u64_in(1, 8);
            }
        }
        let plan = Arc::new(o.plan().recustomized(&w));
        o = o.recustomized(plan, exec);
        let what = format!("hop {hop}");
        assert_eq!(o.tables().entry_bytes(), bytes, "{what}");
        matches_cold(&o, exec, &what);
        let edges: Vec<_> = g
            .edges()
            .iter()
            .zip(&w)
            .map(|(e, &w)| (e.u, e.v, w))
            .collect();
        matches_dijkstra(&o, &CsrGraph::from_edges(g.n(), &edges), &what);
    }
}

#[test]
fn u32_tables_past_a_huge_page_match_dijkstra_and_cold() {
    cold_and_refresh_chain(false, 4);
}

#[test]
fn u64_tables_past_a_huge_page_match_dijkstra_and_cold() {
    cold_and_refresh_chain(true, 8);
}

/// Weight of each of the two heavy edges of [`heavy_linked_rings`]:
/// `2³¹ − 2¹⁰`, so the graph's total weight stays below `u32::MAX`.
const HEAVY: Weight = (1 << 31) - (1 << 10);

/// Two rings joined by two heavy edges: `(20, 100)`, and `(0, 120)`
/// continued by `(120, 80)` of weight 1 through degree-2 vertex 120. Ring
/// A (`0..80`) has a chord from every even vertex, so its vertices have
/// degree 3 or 4; in ring B (`80..120`) every fifth vertex is a hub
/// joined to the seven others (degree 9 or 10), with chains of degree-2
/// vertices between hubs. Light edges weigh 1–7. One block of 121
/// vertices, 88 of them retained.
fn heavy_linked_rings() -> CsrGraph {
    const A: u32 = 80;
    const B: u32 = 40;
    let mut edges = Vec::new();
    for (base, r) in [(0, A), (A, B)] {
        for i in 0..r {
            edges.push((base + i, base + (i + 1) % r, Weight::from(1 + i % 7)));
        }
    }
    for i in (0..A).step_by(2) {
        edges.push((i, (i + 41) % A, Weight::from(1 + 3 * i % 7)));
    }
    for a in (0..B).step_by(5) {
        for b in (a + 5..B).step_by(5) {
            edges.push((A + a, A + b, Weight::from(1 + (a + b) % 7)));
        }
    }
    edges.extend([(20, A + 20, HEAVY), (0, A + B, HEAVY), (A + B, A, 1)]);
    CsrGraph::from_edges((A + B + 1) as usize, &edges)
}

/// `u32` tables whose min-plus sums reach the top of the `u32` range.
/// Phase II runs the highest-degree sources first, so ring B's hubs
/// finish first, and a later search from ring A crosses a heavy edge and
/// folds a hub's row: its entries for ring A come out as two heavy
/// crossings plus light paths, about `2³² − 2¹¹`. Phase III's row of
/// vertex 120 does the same through its heavy chain weight. Each such lane
/// has its top bit set and lies within 2¹¹ of `INF`, and the shorter
/// candidate must win in each. (In a block with finite entries no sum
/// passes `u32::MAX`: two edge-disjoint paths join any two of its
/// vertices, so each distance is at most half the total weight. The
/// kernels' unit tests cover sums at and past `INF`.) Cold build and a
/// 2-hop refresh chain, against Dijkstra and against cold builds.
#[test]
fn u32_tables_with_sums_near_u32_max_match_dijkstra_and_cold() {
    let exec = HeteroExecutor::sequential();
    let g = heavy_linked_rings();
    let total: Weight = g.edges().iter().map(|e| e.w).sum();
    assert!(total < Weight::from(u32::MAX) && total > 2 * HEAVY);
    let o = build_oracle_with_plan(Arc::new(DecompPlan::build(&g)), &exec, ApspMethod::Ear);
    assert_eq!(o.tables().entry_bytes(), 4);
    assert_eq!(o.plan().n_blocks(), 1);
    assert_eq!(
        o.stats().removed_vertices,
        33,
        "ring B's chains and vertex 120"
    );
    matches_dijkstra(&o, &g, "cold");
    refresh_chain(o, &g, &exec, 0x2b31);
}
