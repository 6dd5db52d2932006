//! Differential suite for phase II's row reuse.
//!
//! Phase II runs one search per source of each block's phase-II graph
//! (the reduced graph, or the block itself when it is not reduced), and
//! each search stops where a row finished in an earlier round takes
//! over. This suite holds those tables to one `SsspEngine` run per
//! source, bit for bit, on every testkit family — as generated and with
//! every third edge reweighted to zero — and on the edge cases the reuse
//! has to get right: a self-loop-only block, a bridge block, a
//! non-simple block processed plainly, zero-weight edges and a
//! disconnected input. The phase-II tables are read where
//! `ApspMethod::Reduced` stores them: its block spans. The schedule is
//! checked too: every source runs exactly once, the tables and work
//! counters equal the plainly written schedule of
//! `ear_testkit::reference::reuse_apsp` and do not depend on the
//! executor, and `u64` tables hold the same distances. The testkit
//! families are small enough that every search takes the engine's heap,
//! so blocks past `DIAL_MIN_N` run the same checks once on each of its
//! three queues. The Banerjee baseline (`ApspMethod::Plain`) is pinned to
//! exactly one full Dijkstra per block vertex.

use std::sync::Arc;

use ear_apsp::{build_oracle, build_oracle_with_plan, ApspMethod, DistMatrix};
use ear_decomp::plan::DecompPlan;
use ear_graph::engine::{DIAL_BUCKETS, DIAL_MIN_N, DIAL_WEIGHT_LIMIT};
use ear_graph::{CsrGraph, CsrView, QueuedView, SsspEngine, Weight, INF};
use ear_hetero::{HeteroExecutor, WorkCounters};
use ear_testkit::reference::reuse_apsp;
use ear_testkit::{
    biconnected_graphs, cactus_graphs, chain_heavy_graphs, forall, multi_bcc_graphs, multigraphs,
    simple_graphs, workload_graphs, GraphStrategy,
};

/// Every strategy family the testkit ships, in one list.
fn families() -> Vec<(&'static str, GraphStrategy)> {
    vec![
        ("simple", simple_graphs(14)),
        ("multigraph", multigraphs(12)),
        ("biconnected", biconnected_graphs(12)),
        ("chain_heavy", chain_heavy_graphs(30)),
        ("cactus", cactus_graphs(16)),
        ("multi_bcc", multi_bcc_graphs(16)),
        ("workload", workload_graphs(40)),
    ]
}

/// One `SsspEngine` run per source of `g`.
fn dijkstra_rows(g: CsrView<'_>) -> DistMatrix {
    let mut eng = SsspEngine::new();
    let mut m = DistMatrix::new(g.n());
    for (s, row) in (0..).zip(m.rows_mut()) {
        eng.run_view(g, s);
        eng.write_dist(row);
    }
    m
}

/// `g` plus the disjoint edge `(n, n + 1)` of weight `u32::MAX`: its
/// tables are stored at `u64`, and no distance among `g`'s vertices
/// changes.
fn with_heavy_edge(g: &CsrGraph) -> CsrGraph {
    let n = g.n() as u32;
    let mut edges: Vec<_> = g.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
    edges.push((n, n + 1, Weight::from(u32::MAX)));
    CsrGraph::from_edges(g.n() + 2, &edges)
}

/// Every block's phase-II table — the `Reduced` oracle's span of the
/// block — equals one Dijkstra per source of the block's phase-II graph,
/// with one executor unit per source, and the phase-II work counters
/// equal the reference schedule's, at `Ear` (whose phase III adds only
/// `distances_combined`) as at `Reduced`; the CPU+GPU executor builds the
/// same tables with the same counters, and the `u64` copy of `g` answers
/// every pair of `g`'s vertices alike. The full tables agree too: `Ear`
/// spans (phase II, then phase III) equal `Plain`'s, and those are one
/// Dijkstra per block vertex.
fn check_graph(g: &CsrGraph) -> Result<(), String> {
    let exec = HeteroExecutor::sequential();
    let plan = Arc::new(DecompPlan::build(g));
    let reduced = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Reduced);
    let (mut sources, mut want_counters) = (0, WorkCounters::default());
    for b in 0..plan.n_blocks() as u32 {
        let target = plan
            .reduction(b)
            .map_or_else(|| plan.block_graph(b), |r| r.reduced.view());
        let (span, want, n) = (
            reduced.tables().block_span(b),
            dijkstra_rows(target),
            target.n(),
        );
        let (model, counters) = reuse_apsp(target);
        if model != want {
            return Err(format!(
                "block {b}: reference schedule differs from Dijkstra"
            ));
        }
        want_counters.merge(&counters);
        if span.len() != n * n {
            return Err(format!("block {b}: span of {} for n = {n}", span.len()));
        }
        for (s, row) in (0..).zip(span.chunks(n.max(1))) {
            if row != want.row(s) {
                return Err(format!(
                    "block {b} row {s}: {row:?} vs Dijkstra {:?}",
                    want.row(s)
                ));
            }
        }
        sources += n;
    }
    if reduced.processing.total_units() != sources {
        return Err(format!(
            "{} units for {sources} sources",
            reduced.processing.total_units()
        ));
    }
    let counters = reduced.processing.total_counters();
    if counters != want_counters {
        return Err(format!(
            "phase-II counters {counters:?} vs reference schedule {want_counters:?}"
        ));
    }
    let hetero = build_oracle_with_plan(
        Arc::clone(&plan),
        &HeteroExecutor::cpu_gpu(),
        ApspMethod::Reduced,
    );
    if hetero.processing.total_counters() != counters {
        return Err(format!(
            "CPU+GPU phase-II counters {:?} vs sequential {counters:?}",
            hetero.processing.total_counters()
        ));
    }
    if hetero.processing.total_units() != sources {
        return Err(format!(
            "CPU+GPU: {} units for {sources} sources",
            hetero.processing.total_units()
        ));
    }
    for b in 0..plan.n_blocks() as u32 {
        if hetero.tables().block_span(b) != reduced.tables().block_span(b) {
            return Err(format!("block {b}: CPU+GPU span differs from sequential"));
        }
    }
    let ear = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Ear);
    let ear_counters = WorkCounters {
        distances_combined: 0,
        ..ear.processing.total_counters()
    };
    if ear_counters != counters {
        return Err(format!(
            "Ear phase-II counters {ear_counters:?} vs Reduced {counters:?}"
        ));
    }
    let plain = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Plain);
    for b in 0..plan.n_blocks() as u32 {
        let (e, p) = (ear.tables().block_span(b), plain.tables().block_span(b));
        if e != p {
            return Err(format!("block {b}: Ear span {e:?} vs Plain {p:?}"));
        }
        let bg = plan.block_graph(b);
        let want = dijkstra_rows(bg);
        if (0..)
            .zip(p.chunks(bg.n().max(1)))
            .any(|(s, row)| row != want.row(s))
        {
            return Err(format!("block {b}: Plain span differs from Dijkstra"));
        }
    }
    if ear.tables().ap_span() != plain.tables().ap_span() {
        return Err("AP spans differ".into());
    }
    let heavy = with_heavy_edge(g);
    for method in [ApspMethod::Ear, ApspMethod::Reduced] {
        let wide = build_oracle(&heavy, &exec, method);
        if wide.tables().entry_bytes() != 8 {
            return Err(format!("{method:?}: the heavy copy is not stored at u64"));
        }
        let narrow = if method == ApspMethod::Ear {
            &ear
        } else {
            &reduced
        };
        for u in 0..g.n() as u32 {
            for v in 0..g.n() as u32 {
                if wide.dist(u, v) != narrow.dist(u, v) {
                    return Err(format!(
                        "{method:?} d({u}, {v}): u64 {} vs u16 {}",
                        wide.dist(u, v),
                        narrow.dist(u, v)
                    ));
                }
            }
        }
    }
    Ok(())
}

/// `g` with every third edge reweighted to zero.
fn with_zero_weights(g: &CsrGraph) -> CsrGraph {
    let w: Vec<Weight> = (0..)
        .zip(g.edges())
        .map(|(i, e)| if i % 3 == 0 { 0 } else { e.w })
        .collect();
    g.reweighted(&w)
}

#[test]
fn derived_rows_match_dijkstra_on_every_family() {
    for (name, strategy) in families() {
        forall("derived_rows_match_dijkstra_on_every_family")
            .cases(24)
            .run(&strategy, |g| {
                check_graph(g).map_err(|e| format!("{name}: {e}"))?;
                check_graph(&with_zero_weights(g)).map_err(|e| format!("{name}, zero weights: {e}"))
            });
    }
}

#[test]
fn edge_case_blocks_match_dijkstra() {
    // Triangle 0-1-2, a self-loop at 3 hanging off a bridge 2-3, and a
    // parallel pair 3-4 closing into a non-simple block with 4-5-3.
    let g = CsrGraph::from_edges(
        6,
        &[
            (0, 1, 2),
            (1, 2, 0),
            (2, 0, 5),
            (2, 3, 4),
            (3, 3, 7),
            (3, 4, 1),
            (3, 4, 3),
            (4, 5, 0),
            (5, 3, 2),
        ],
    );
    let plan = DecompPlan::build(&g);
    let sizes: Vec<usize> = (0..plan.n_blocks() as u32)
        .map(|b| plan.block(b).n())
        .collect();
    assert!(sizes.contains(&1), "a self-loop-only block: {sizes:?}");
    assert!(sizes.contains(&2), "a bridge block: {sizes:?}");
    assert!(
        (0..plan.n_blocks() as u32).any(|b| plan.block(b).n() == 3 && plan.reduction(b).is_none()),
        "a non-simple block processed plainly"
    );
    check_graph(&g).unwrap();

    // One vertex with only a self-loop; two vertices joined by a bridge.
    for (n, edges) in [(1, vec![(0, 0, 3)]), (2, vec![(0, 1, 9)])] {
        let g = CsrGraph::from_edges(n, &edges);
        check_graph(&g).unwrap();
        let reduced = build_oracle(&g, &HeteroExecutor::sequential(), ApspMethod::Reduced);
        assert_eq!(reduced.tables().block_span(0)[0], 0);
    }
}

#[test]
fn reduced_oracle_on_a_disconnected_input_matches_dijkstra() {
    // Two triangles with a pendant chain, one isolated vertex.
    let g = CsrGraph::from_edges(
        9,
        &[
            (0, 1, 1),
            (1, 2, 0),
            (2, 0, 3),
            (2, 3, 2),
            (3, 4, 5),
            (5, 6, 1),
            (6, 7, 2),
            (7, 5, 4),
        ],
    );
    let reduced = build_oracle(&g, &HeteroExecutor::cpu_gpu(), ApspMethod::Reduced);
    let dist = reduced.materialize();
    assert_eq!(dist, dijkstra_rows(g.view()));
    assert_eq!(dist.get(0, 5), INF);
    assert_eq!(dist.get(8, 8), 0);
    // Every block fits the first round: full searches, no rows folded.
    assert_eq!(reduced.processing.total_counters().dense_combined, 0);
}

#[test]
fn later_rounds_fold_finished_rows() {
    // A weighted 6 × 6 grid (its reduced block spans several rounds), a
    // disjoint triangle and an isolated vertex.
    let mut edges = Vec::new();
    for r in 0..6u32 {
        for c in 0..6u32 {
            let v = 6 * r + c;
            if c < 5 {
                edges.push((v, v + 1, Weight::from(1 + (v * 7) % 5)));
            }
            if r < 5 {
                edges.push((v, v + 6, Weight::from(1 + (v * 3) % 4)));
            }
        }
    }
    edges.extend([(36, 37, 2), (37, 38, 1), (38, 36, 4)]);
    let g = CsrGraph::from_edges(40, &edges);
    check_graph(&g).unwrap();
    check_graph(&with_zero_weights(&g)).unwrap();
    let reduced = build_oracle(&g, &HeteroExecutor::sequential(), ApspMethod::Reduced);
    let c = reduced.processing.total_counters();
    assert!(c.dense_combined > 0, "no row was folded: {c:?}");
    let full: u64 = (0..reduced.plan().n_blocks() as u32)
        .map(|b| reduced.plan().block(b).reduced_n().pow(2) as u64)
        .sum();
    assert!(
        c.vertices_settled < full,
        "{} vertices expanded, as many as {full} full searches",
        c.vertices_settled
    );
}

/// A `side × side` torus grid, every vertex of degree 4, with every
/// seventh edge subdivided by a degree-2 vertex that ear reduction
/// contracts away: one block whose phase-II graph at `Ear` and `Reduced`
/// is the `side²`-vertex torus, and at `Plain` the whole block. Torus
/// edge `i` (each half, when subdivided) weighs `weight(i)`.
fn subdivided_torus(side: u32, weight: impl Fn(u32) -> Weight) -> CsrGraph {
    let (mut edges, mut next, mut i) = (Vec::new(), side * side, 0);
    for r in 0..side {
        for c in 0..side {
            let v = r * side + c;
            for u in [r * side + (c + 1) % side, (r + 1) % side * side + c] {
                let w = weight(i);
                if i % 7 == 0 {
                    edges.extend([(v, next, w), (next, u, w)]);
                    next += 1;
                } else {
                    edges.push((v, u, w));
                }
                i += 1;
            }
        }
    }
    CsrGraph::from_edges(next as usize, &edges)
}

/// The queue `SsspEngine` takes on `g`, by the rule its module docs
/// state.
fn queue(g: CsrView<'_>) -> &'static str {
    let w = g.incidence_weights();
    let max = w.iter().copied().max().unwrap_or(0);
    if g.n() <= DIAL_MIN_N || w.contains(&0) || max >= DIAL_WEIGHT_LIMIT as Weight {
        "heap"
    } else if max < DIAL_BUCKETS as Weight {
        "plain Dial"
    } else {
        "overflow Dial"
    }
}

/// Weights of a few distinct values make equal distances common, so a
/// search whose equal-distance pops left ascending vertex order would
/// expand other vertices than the reference and fail the counter check.
#[test]
fn blocks_past_dial_min_n_match_on_every_queue() {
    let small = |i: u32| Weight::from(1 + i * 13 % 4);
    let cases = [
        ("plain Dial", subdivided_torus(17, small)),
        (
            "overflow Dial",
            subdivided_torus(17, |i| {
                if i % 2 == 0 {
                    DIAL_BUCKETS as Weight * small(i)
                } else {
                    small(i)
                }
            }),
        ),
        (
            "heap",
            subdivided_torus(17, |i| if i % 11 == 0 { 0 } else { small(i) }),
        ),
        (
            "heap",
            subdivided_torus(17, |i| {
                if i == 5 {
                    DIAL_WEIGHT_LIMIT as Weight
                } else {
                    small(i)
                }
            }),
        ),
    ];
    for (want, g) in cases {
        let plan = DecompPlan::build(&g);
        assert_eq!(plan.n_blocks(), 1, "{want}: one block");
        let reduced = &plan.reduction(0).expect("a simple block").reduced;
        assert_eq!(reduced.n(), 17 * 17, "{want}: the torus is retained");
        for target in [reduced.view(), plan.block_graph(0)] {
            assert!(target.n() > DIAL_MIN_N);
            assert_eq!(queue(target), want, "{} vertices", target.n());
        }
        check_graph(&g).unwrap_or_else(|e| panic!("{want}: {e}"));
        let plain = build_oracle(&g, &HeteroExecutor::sequential(), ApspMethod::Plain);
        let n = g.n() as u64;
        let c = plain.processing.total_counters();
        assert_eq!(
            (c.vertices_settled, c.edges_relaxed, c.dense_combined),
            (n * n, n * g.view().incidence_weights().len() as u64, 0),
            "{want}: Plain runs one full Dijkstra per vertex"
        );
    }
}

#[test]
fn a_search_without_finished_rows_is_plain_dijkstra() {
    for (name, strategy) in families() {
        forall("a_search_without_finished_rows_is_plain_dijkstra")
            .cases(16)
            .run(&strategy, |g| {
                let (mut eng, mut row) = (SsspEngine::new(), vec![0u64; g.n()]);
                for s in g.vertices() {
                    let plain = eng.run(g, s);
                    let queued = QueuedView::new(g.view());
                    let (stats, folded) = eng.run_reusing(queued, s, &mut row, |_| None);
                    if stats != plain || folded != 0 || row != eng.dist_vec() {
                        return Err(format!("{name}: source {s}: {stats:?} vs {plain:?}"));
                    }
                }
                Ok(())
            });
    }
}

#[test]
fn plain_oracle_runs_one_full_dijkstra_per_block_vertex() {
    let exec = HeteroExecutor::sequential();
    for (name, strategy) in families() {
        forall("plain_oracle_runs_one_full_dijkstra_per_block_vertex")
            .cases(16)
            .run(&strategy, |g| {
                let plan = Arc::new(DecompPlan::build(g));
                let plain = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Plain);
                let want: u64 = (0..plan.n_blocks() as u32)
                    .map(|b| {
                        let bg = plan.block_graph(b);
                        (bg.n() * bg.incidence_weights().len()) as u64
                    })
                    .sum();
                let c = plain.processing.total_counters();
                if c.edges_relaxed != want || c.dense_combined != 0 {
                    return Err(format!(
                        "{name}: edges_relaxed {} (want {want}), dense_combined {}",
                        c.edges_relaxed, c.dense_combined
                    ));
                }
                let sources: usize = (0..plan.n_blocks() as u32).map(|b| plan.block(b).n()).sum();
                if plain.processing.total_units() != sources {
                    return Err(format!(
                        "{name}: {} units for {sources} sources",
                        plain.processing.total_units()
                    ));
                }
                Ok(())
            });
    }
}
