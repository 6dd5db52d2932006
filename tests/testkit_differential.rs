//! The tentpole's acceptance test: every APSP implementation and every
//! MCB configuration in the workspace, cross-validated through the
//! `ear-testkit` differential registry on all of the testkit's graph
//! families. A divergence anywhere prints a one-line
//! `EAR_TESTKIT_SEED=… cargo test <name>` reproduction.

use ear_testkit::differential::{apsp_implementations, mcb_implementations};
use ear_testkit::{
    biconnected_graphs, cactus_graphs, chain_heavy_graphs, cross_validate, cross_validate_apsp,
    cross_validate_mcb, forall, multi_bcc_graphs, multigraphs, simple_graphs,
};

fn fail(d: ear_testkit::Divergence) -> String {
    d.to_string()
}

/// The registries are complete: 10 APSP implementations (reference +
/// 9 candidates), 11 MCB configurations (3 standalone algorithms + the
/// 4-mode × 2-ear pipeline grid).
#[test]
fn registries_enumerate_every_implementation() {
    let apsp: Vec<&str> = apsp_implementations().iter().map(|i| i.name).collect();
    for expected in [
        "floyd_warshall",
        "plain_apsp/sequential",
        "plain_apsp/cpu_gpu",
        "djidjev_apsp/k2",
        "djidjev_apsp/k4",
        "oracle/ear",
        "oracle/ear/cpu_gpu",
        "oracle/plain",
        "oracle/reduced",
        "oracle/reduced/cpu_gpu",
    ] {
        assert!(apsp.contains(&expected), "APSP registry missing {expected}");
    }
    let mcb: Vec<&str> = mcb_implementations().iter().map(|i| i.name).collect();
    for expected in [
        "signed",
        "horton",
        "depina/sequential",
        "mcb/Sequential/plain",
        "mcb/Sequential/ear",
        "mcb/Multi-Core/plain",
        "mcb/Multi-Core/ear",
        "mcb/GPU/plain",
        "mcb/GPU/ear",
        "mcb/CPU+GPU/plain",
        "mcb/CPU+GPU/ear",
    ] {
        assert!(mcb.contains(&expected), "MCB registry missing {expected}");
    }
}

/// Full cross-validation (APSP + MCB) on arbitrary simple graphs.
#[test]
fn cross_validate_simple_graphs() {
    forall("cross_validate_simple_graphs")
        .cases(24)
        .run(&simple_graphs(16), |g| cross_validate(g).map_err(fail));
}

/// Multigraphs run the reduced registry (implementations that accept
/// parallel edges and self-loops).
#[test]
fn cross_validate_multigraphs() {
    forall("cross_validate_multigraphs")
        .cases(24)
        .run(&multigraphs(12), |g| cross_validate(g).map_err(fail));
}

/// Biconnected graphs hit the single-block fast paths of the oracle and
/// the ear pipeline.
#[test]
fn cross_validate_biconnected_graphs() {
    forall("cross_validate_biconnected_graphs")
        .cases(20)
        .run(&biconnected_graphs(14), |g| cross_validate(g).map_err(fail));
}

/// Chain-heavy graphs (long degree-2 ears) make the reduction do real
/// work — the paper's favourable case, where the §2/§3 extrapolation
/// formulas are actually exercised.
#[test]
fn cross_validate_chain_heavy_graphs() {
    forall("cross_validate_chain_heavy_graphs")
        .cases(12)
        .run(&chain_heavy_graphs(36), |g| {
            cross_validate_apsp(g).map_err(fail)
        });
}

/// Cactus graphs: every block is a cycle or bridge, so per-block work is
/// minimal and the block-cut-tree routing dominates.
#[test]
fn cross_validate_cactus_graphs() {
    forall("cross_validate_cactus_graphs")
        .cases(20)
        .run(&cactus_graphs(18), |g| cross_validate(g).map_err(fail));
}

/// Disconnected multi-BCC graphs stress cross-component INF handling and
/// articulation-table routing.
#[test]
fn cross_validate_multi_bcc_graphs() {
    forall("cross_validate_multi_bcc_graphs")
        .cases(20)
        .run(&multi_bcc_graphs(20), |g| cross_validate(g).map_err(fail));
}

/// MCB-only sweep at a slightly larger scale (the MCB side is the cheaper
/// half, so it affords bigger graphs).
#[test]
fn cross_validate_mcb_on_larger_simple_graphs() {
    forall("cross_validate_mcb_on_larger_simple_graphs")
        .cases(16)
        .run(&simple_graphs(20), |g| cross_validate_mcb(g).map_err(fail));
}
