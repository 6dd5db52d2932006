//! Differential suite for the batched GF(2) kernel layer: the kernel-built
//! de Pina phase loop (`ear_mcb::depina`) against the scalar reference
//! (`ear_testkit::reference`) across every graph family and a set of
//! fixed shapes, demanding not just equal basis weights but
//! **byte-identical cycles and [`PhaseTrace`]s** — the kernels may only
//! change how the work executes, never what work is recorded.

use ear_graph::CsrGraph;
use ear_mcb::depina::{self, DepinaOptions, PhaseTrace};
use ear_mcb::{Cycle, CycleSpace};
use ear_testkit::{
    cactus_graphs, chain_heavy_graphs, dense_residual_graphs, forall, invariants, multi_bcc_graphs,
    multigraphs, reference, simple_graphs, GraphStrategy,
};

/// Runs both paths on `g` and checks cycles, weights and traces match.
fn differential(g: &CsrGraph, opts: &DepinaOptions) -> Result<(), String> {
    let (batched, batched_trace) = depina::depina_mcb_traced(g, opts);
    let (scalar, scalar_trace) = reference::depina_mcb_traced(g, opts);
    check_equal(g, &batched, &batched_trace, &scalar, &scalar_trace)
}

fn check_equal(
    g: &CsrGraph,
    batched: &[Cycle],
    batched_trace: &PhaseTrace,
    scalar: &[Cycle],
    scalar_trace: &PhaseTrace,
) -> Result<(), String> {
    if batched.len() != scalar.len() {
        return Err(format!(
            "basis sizes differ: batched {} vs scalar {}",
            batched.len(),
            scalar.len()
        ));
    }
    for (i, (a, b)) in batched.iter().zip(scalar).enumerate() {
        if a != b {
            return Err(format!("cycle {i} differs: {a:?} vs {b:?}"));
        }
    }
    if batched_trace != scalar_trace {
        // Localise the first divergence for a readable failure.
        if batched_trace.tree != scalar_trace.tree {
            return Err("tree unit groups differ".into());
        }
        if batched_trace.fallbacks != scalar_trace.fallbacks {
            return Err(format!(
                "fallbacks differ: {} vs {}",
                batched_trace.fallbacks, scalar_trace.fallbacks
            ));
        }
        for (i, (a, b)) in batched_trace
            .phases
            .iter()
            .zip(&scalar_trace.phases)
            .enumerate()
        {
            if a.labels != b.labels {
                return Err(format!(
                    "phase {i} labels: {:?} vs {:?}",
                    a.labels, b.labels
                ));
            }
            if a.search != b.search {
                return Err(format!(
                    "phase {i} search: {:?} vs {:?}",
                    a.search, b.search
                ));
            }
            if a.update != b.update {
                return Err(format!(
                    "phase {i} update: {:?} vs {:?}",
                    a.update, b.update
                ));
            }
        }
        return Err("traces differ in phase count".into());
    }
    invariants::basis_valid(g, batched)
}

fn run_family(name: &'static str, strategy: GraphStrategy, cases: usize) {
    forall(name)
        .cases(cases)
        .run(&strategy, |g| differential(g, &DepinaOptions::default()));
}

#[test]
fn kernels_match_legacy_on_simple_graphs() {
    run_family(
        "kernels_match_legacy_on_simple_graphs",
        simple_graphs(18),
        40,
    );
}

#[test]
fn kernels_match_legacy_on_multigraphs() {
    run_family("kernels_match_legacy_on_multigraphs", multigraphs(14), 40);
}

#[test]
fn kernels_match_legacy_on_chain_heavy_graphs() {
    run_family(
        "kernels_match_legacy_on_chain_heavy_graphs",
        chain_heavy_graphs(40),
        25,
    );
}

#[test]
fn kernels_match_legacy_on_multi_bcc_graphs() {
    run_family(
        "kernels_match_legacy_on_multi_bcc_graphs",
        multi_bcc_graphs(30),
        25,
    );
}

#[test]
fn kernels_match_legacy_on_cactus_graphs() {
    run_family(
        "kernels_match_legacy_on_cactus_graphs",
        cactus_graphs(25),
        25,
    );
}

#[test]
fn kernels_match_legacy_on_dense_residual_graphs() {
    // The stress family: f ≥ n, so every kernel (batched dot, masked
    // update, column extraction) crosses word boundaries many times.
    run_family(
        "kernels_match_legacy_on_dense_residual_graphs",
        dense_residual_graphs(16),
        25,
    );
}

#[test]
fn kernels_match_legacy_under_force_signed() {
    // force_signed exercises the PackedWitness → DenseBits handoff to the
    // signed-graph backstop every phase.
    forall("kernels_match_legacy_under_force_signed")
        .cases(20)
        .run(&simple_graphs(10), |g| {
            differential(g, &DepinaOptions { force_signed: true })
        });
}

#[test]
fn kernels_match_reference_on_fixed_shapes() {
    let mut wheel = vec![];
    for i in 1..=6u32 {
        wheel.push((0, i, 2u64));
        wheel.push((i, if i == 6 { 1 } else { i + 1 }, 3u64));
    }
    let idx = |r: u32, c: u32| r * 4 + c;
    let mut grid = Vec::new();
    let mut w = 1u64;
    for r in 0..4u32 {
        for c in 0..4u32 {
            if c + 1 < 4 {
                grid.push((idx(r, c), idx(r, c + 1), w));
                w = w % 9 + 1;
            }
            if r + 1 < 4 {
                grid.push((idx(r, c), idx(r + 1, c), w));
                w = w % 7 + 1;
            }
        }
    }
    let shapes = [
        // Triangle.
        CsrGraph::from_edges(3, &[(0, 1, 1), (1, 2, 2), (2, 0, 3)]),
        // Two triangles sharing an edge.
        CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 0, 2), (2, 3, 1), (3, 1, 2)]),
        // K4 with unit weights (every candidate ties).
        CsrGraph::from_edges(
            4,
            &[
                (0, 1, 1),
                (0, 2, 1),
                (0, 3, 1),
                (1, 2, 1),
                (1, 3, 1),
                (2, 3, 1),
            ],
        ),
        // Multigraph with parallel edges and self-loops.
        CsrGraph::from_edges(
            3,
            &[
                (0, 1, 1),
                (0, 1, 2),
                (1, 2, 1),
                (2, 0, 1),
                (2, 2, 4),
                (0, 0, 9),
            ],
        ),
        CsrGraph::from_edges(7, &wheel),
        CsrGraph::from_edges(16, &grid),
        // Two components, one with a pendant vertex.
        CsrGraph::from_edges(
            7,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (3, 4, 2),
                (4, 5, 2),
                (5, 3, 2),
                (5, 6, 1),
            ],
        ),
    ];
    for (i, g) in shapes.iter().enumerate() {
        if let Err(e) = differential(g, &DepinaOptions::default()) {
            panic!("shape {i}: {e}");
        }
    }
}

#[test]
fn phase_loop_entry_matches_full_run() {
    // `depina_phase_loop` replays a cloned candidate set; that public
    // entry point must agree with the full traced run.
    forall("phase_loop_entry_matches_full_run")
        .cases(20)
        .run(&dense_residual_graphs(12), |g| {
            let cs = CycleSpace::new(g);
            let cands = ear_mcb::candidates::generate(g);
            let opts = DepinaOptions::default();

            let mut c1 = cands.clone();
            let (basis_loop, mut trace_loop) = depina::depina_phase_loop(g, &cs, &mut c1, &opts);
            trace_loop.tree = cands.tree_units.clone();

            let (basis_full, trace_full) = depina::depina_mcb_traced(g, &opts);
            check_equal(g, &basis_loop, &trace_loop, &basis_full, &trace_full)?;

            let mut c2 = cands.clone();
            let (basis_ref, mut trace_ref) = reference::depina_phase_loop(g, &cs, &mut c2, &opts);
            trace_ref.tree = cands.tree_units.clone();
            check_equal(g, &basis_loop, &trace_loop, &basis_ref, &trace_ref)
        });
}

#[test]
fn pooled_scratch_runs_are_deterministic() {
    // Re-running on the same graph reuses pooled scratch whose buffers
    // carry stale contents from other graphs; results must not change.
    let graphs = [
        CsrGraph::from_edges(3, &[(0, 1, 1), (1, 2, 2), (2, 0, 3)]),
        CsrGraph::from_edges(
            5,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 3, 1),
                (3, 4, 1),
                (4, 0, 1),
                (0, 2, 2),
                (1, 3, 2),
                (2, 4, 2),
            ],
        ),
        CsrGraph::from_edges(3, &[(0, 1, 1), (0, 1, 2), (1, 2, 1), (2, 0, 1), (2, 2, 4)]),
    ];
    let opts = DepinaOptions::default();
    let first: Vec<_> = graphs
        .iter()
        .map(|g| depina::depina_mcb_traced(g, &opts))
        .collect();
    // Interleave in a different order to shuffle scratch shapes.
    for _ in 0..3 {
        for (g, (basis, trace)) in graphs.iter().zip(&first).rev() {
            let (b2, t2) = depina::depina_mcb_traced(g, &opts);
            assert_eq!(&b2, basis, "basis changed across pooled runs");
            assert_eq!(&t2, trace, "trace changed across pooled runs");
        }
    }
}
