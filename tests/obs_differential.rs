//! Differential test for the `ear-obs` layer: turning tracing on must not
//! change a single output bit, and the metrics it records must agree with
//! the legacy statistics structs (`ExecutionReport` work counters for the
//! APSP oracle, `PhaseProfile` for the MCB phase loop).
//!
//! Everything runs in ONE `#[test]` because the tracing switch, collector
//! and registry are process-global; a second test toggling them in a
//! parallel thread would race. (Separate test *binaries* are separate
//! processes and unaffected.)

use ear_apsp::{build_oracle, ApspMethod, DistanceOracle};
use ear_graph::CsrGraph;
use ear_hetero::{HeteroExecutor, WorkCounters};
use ear_mcb::{mcb, ExecMode, McbConfig};
use ear_testkit::invariants::trace_invariants;
use ear_testkit::{
    biconnected_graphs, cactus_graphs, chain_heavy_graphs, multi_bcc_graphs, multigraphs,
    simple_graphs, workload_graphs, GraphStrategy, Strategy, TestRng,
};

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

/// Full distance matrix as a flat vector — the bit-identity fingerprint.
fn all_dists(oracle: &DistanceOracle, n: usize) -> Vec<u64> {
    let mut v = Vec::with_capacity(n * n);
    for u in 0..n as u32 {
        for w in 0..n as u32 {
            v.push(oracle.dist(u, w));
        }
    }
    v
}

fn assert_counters_eq(tag: &str, snap: &ear_obs::MetricsSnapshot, prefix: &str, c: &WorkCounters) {
    let pairs = [
        ("edges_relaxed", c.edges_relaxed),
        ("vertices_settled", c.vertices_settled),
        ("labels_computed", c.labels_computed),
        ("cycles_inspected", c.cycles_inspected),
        ("words_xored", c.words_xored),
        ("distances_combined", c.distances_combined),
        ("dense_combined", c.dense_combined),
    ];
    for (field, want) in pairs {
        let name = format!("{prefix}.{field}");
        assert_eq!(
            snap.counter(&name),
            want,
            "{tag}: registry {name} disagrees with legacy counter"
        );
    }
}

#[test]
fn tracing_is_transparent_and_metrics_match_legacy_stats() {
    let exec = HeteroExecutor::sequential();
    let config = McbConfig {
        mode: ExecMode::Sequential,
        use_ear: true,
    };

    for (fi, (family, strat)) in families().into_iter().enumerate() {
        for case in 0..3u64 {
            let g: CsrGraph = strat.generate(&mut TestRng::new(0x0B5 ^ ((fi as u64) << 32) ^ case));
            let tag = format!("{family}/{case} (n={}, m={})", g.n(), g.m());

            // ---- Baseline with tracing off: outputs + proof of silence.
            ear_obs::disable();
            ear_obs::reset();
            let base_oracle = build_oracle(&g, &exec, ApspMethod::Ear);
            let base_dists = all_dists(&base_oracle, g.n());
            let base_mcb = g.is_simple().then(|| mcb(&g, &config));
            assert_eq!(
                ear_obs::event_count(),
                0,
                "{tag}: events recorded while tracing was off"
            );
            assert!(
                ear_obs::metrics_snapshot().is_empty(),
                "{tag}: metrics recorded while tracing was off"
            );

            // ---- Instrumented APSP on a clean slate.
            ear_obs::reset();
            ear_obs::enable();
            let obs_oracle = build_oracle(&g, &exec, ApspMethod::Ear);
            let apsp_metrics = ear_obs::metrics_snapshot();
            let apsp_trace = ear_obs::trace_snapshot();

            // ---- Instrumented MCB on a clean slate.
            ear_obs::reset();
            let obs_mcb = g.is_simple().then(|| mcb(&g, &config));
            let mcb_metrics = ear_obs::metrics_snapshot();
            let mcb_trace = ear_obs::trace_snapshot();
            ear_obs::disable();
            ear_obs::reset();

            // ---- Outputs are bit-identical with tracing on.
            assert_eq!(
                base_dists,
                all_dists(&obs_oracle, g.n()),
                "{tag}: APSP distances diverged under tracing"
            );
            assert_eq!(
                base_oracle.stats(),
                obs_oracle.stats(),
                "{tag}: oracle stats diverged under tracing"
            );
            if let (Some(a), Some(b)) = (&base_mcb, &obs_mcb) {
                assert_eq!(a.dim, b.dim, "{tag}: MCB dimension diverged");
                assert_eq!(a.total_weight, b.total_weight, "{tag}: MCB weight diverged");
                assert_eq!(a.cycles.len(), b.cycles.len(), "{tag}: MCB size diverged");
                for (i, (ca, cb)) in a.cycles.iter().zip(&b.cycles).enumerate() {
                    assert_eq!(ca.weight, cb.weight, "{tag}: cycle {i} weight diverged");
                    assert_eq!(ca.edges, cb.edges, "{tag}: cycle {i} edges diverged");
                }
            }

            // ---- APSP registry counters equal the legacy report sums.
            let mut legacy = obs_oracle.processing.total_counters();
            legacy.merge(&obs_oracle.ap_phase.total_counters());
            assert_counters_eq(&tag, &apsp_metrics, "hetero", &legacy);
            let units = obs_oracle.processing.total_units() + obs_oracle.ap_phase.total_units();
            assert_eq!(
                apsp_metrics.counter("hetero.units"),
                units as u64,
                "{tag}: hetero.units disagrees with report totals"
            );
            assert_eq!(
                apsp_metrics.counter("decomp.plans"),
                1,
                "{tag}: expected exactly one decomposition"
            );
            trace_invariants(&apsp_trace, Some(units))
                .unwrap_or_else(|e| panic!("{tag}: APSP trace invalid: {e}"));

            // ---- MCB registry counters equal the legacy PhaseProfile.
            if let Some(r) = &obs_mcb {
                let p = &r.profile;
                for (name, want) in [
                    ("mcb.labels_computed", p.counters.labels_computed),
                    ("mcb.cycles_inspected", p.counters.cycles_inspected),
                    ("mcb.words_xored", p.counters.words_xored),
                    ("mcb.edges_relaxed", p.counters.edges_relaxed),
                    ("mcb.vertices_settled", p.counters.vertices_settled),
                    ("mcb.fallbacks", p.fallbacks as u64),
                    ("mcb.dim", r.dim as u64),
                    ("mcb.weight", r.total_weight),
                ] {
                    assert_eq!(
                        mcb_metrics.counter(name),
                        want,
                        "{tag}: registry {name} disagrees with PhaseProfile"
                    );
                }
                for (name, want) in [
                    ("mcb.trees_s", p.trees_s),
                    ("mcb.labels_s", p.labels_s),
                    ("mcb.search_s", p.search_s),
                    ("mcb.update_s", p.update_s),
                ] {
                    assert_eq!(
                        mcb_metrics.gauge(name),
                        Some(want),
                        "{tag}: registry gauge {name} disagrees with PhaseProfile"
                    );
                }
                trace_invariants(&mcb_trace, None)
                    .unwrap_or_else(|e| panic!("{tag}: MCB trace invalid: {e}"));
            }

            // ---- Plain method: every workunit is an SSSP run, so the
            // engine's own counters must equal the executor's.
            ear_obs::reset();
            ear_obs::enable();
            let plain = build_oracle(&g, &exec, ApspMethod::Plain);
            let m = ear_obs::metrics_snapshot();
            ear_obs::disable();
            ear_obs::reset();
            assert_eq!(
                base_dists,
                all_dists(&plain, g.n()),
                "{tag}: Plain APSP distances diverged"
            );
            assert_eq!(
                m.counter("sssp.edges_relaxed"),
                m.counter("hetero.edges_relaxed"),
                "{tag}: engine and executor disagree on relaxations"
            );
            assert_eq!(
                m.counter("sssp.settled"),
                m.counter("hetero.vertices_settled"),
                "{tag}: engine and executor disagree on settles"
            );
        }
    }

    // ---- The modelled queue's end counters account for every unit the
    // executor ran, and on a graph big enough for the CPU+GPU platform to
    // interleave both ends pop work (e2ebench's `hetero.gpu_unit_share`
    // divides the front count by their sum).
    let side = 24u32;
    let mut edges = Vec::new();
    for r in 0..side {
        for c in 0..side {
            let v = r * side + c;
            if c + 1 < side {
                edges.push((v, v + 1, 1 + u64::from((r + c) % 5)));
            }
            if r + 1 < side {
                edges.push((v, v + side, 1 + u64::from((r * c) % 7)));
            }
        }
    }
    let grid = CsrGraph::from_edges((side * side) as usize, &edges);
    ear_obs::reset();
    ear_obs::enable();
    let oracle = build_oracle(&grid, &HeteroExecutor::cpu_gpu(), ApspMethod::Ear);
    let m = ear_obs::metrics_snapshot();
    ear_obs::disable();
    ear_obs::reset();
    let (front, back) = (
        m.counter("queue.units.front"),
        m.counter("queue.units.back"),
    );
    let units = oracle.processing.total_units() + oracle.ap_phase.total_units();
    assert_eq!(m.counter("hetero.units"), units as u64);
    assert_eq!(
        front + back,
        m.counter("hetero.units"),
        "queue ends vs units"
    );
    assert!(front > 0 && back > 0, "front {front}, back {back}");
}
