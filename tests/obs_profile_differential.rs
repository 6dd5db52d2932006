//! Differential test for the sampling profiler: running with the sampler
//! thread active must not change a single output bit. The sampler only
//! *reads* published span stacks — it opens no spans, records no metrics,
//! and takes no locks the workload contends on outside the collector's
//! short slot sections — so an APSP build and an MCB run under aggressive
//! sampling (200 µs period, 5× the default rate) must be bit-identical to
//! the tracing-off baselines across every testkit strategy family.
//!
//! A sample taken inside a parallel region reads as the region caller's
//! stack plus the worker's own spans, so every sampled stack starts at the
//! caller's root span.
//!
//! The tracing switch, collector, and sampler are process-global, so the
//! tests serialise on one lock.

use ear_apsp::{build_oracle, ApspMethod, DistanceOracle};
use ear_graph::CsrGraph;
use ear_hetero::HeteroExecutor;
use ear_mcb::{mcb, ExecMode, McbConfig};
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

fn all_dists(oracle: &DistanceOracle, n: usize) -> Vec<u64> {
    let mut v = Vec::with_capacity(n * n);
    for u in 0..n as u32 {
        for w in 0..n as u32 {
            v.push(oracle.dist(u, w));
        }
    }
    v
}

static OBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn sampling_on_runs_are_bit_identical() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let exec = HeteroExecutor::sequential();
    let config = McbConfig {
        mode: ExecMode::Sequential,
        use_ear: true,
    };
    let period = std::time::Duration::from_micros(200);

    for (fi, (family, strat)) in families().into_iter().enumerate() {
        for case in 0..2u64 {
            let g: CsrGraph =
                strat.generate(&mut TestRng::new(0x0B5D1FF ^ ((fi as u64) << 32) ^ case));
            let tag = format!("{family}/{case} (n={}, m={})", g.n(), g.m());

            // ---- Baseline: tracing off, no sampler.
            ear_obs::disable();
            ear_obs::reset();
            let base_oracle = build_oracle(&g, &exec, ApspMethod::Ear);
            let base_dists = all_dists(&base_oracle, g.n());
            let base_mcb = g.is_simple().then(|| mcb(&g, &config));

            // ---- Sampled run: tracing on AND the sampler thread live at
            // 5× the default rate, racing the build for the whole run.
            ear_obs::reset();
            ear_obs::enable();
            ear_obs::profile::start(period).unwrap();
            let sampled_oracle;
            let sampled_mcb;
            {
                let _root = ear_obs::span("profdiff.root");
                sampled_oracle = build_oracle(&g, &exec, ApspMethod::Ear);
                sampled_mcb = g.is_simple().then(|| mcb(&g, &config));
                // Stop inside the root span: the final synchronous sample
                // then always sees at least the root frame.
                ear_obs::profile::stop();
            }
            let folded = ear_obs::profile::collapsed();
            let ticks = ear_obs::profile::samples();
            ear_obs::disable();
            ear_obs::reset();

            // ---- Bit-identity.
            assert_eq!(
                base_dists,
                all_dists(&sampled_oracle, g.n()),
                "{tag}: APSP distances diverged under sampling"
            );
            assert_eq!(
                base_oracle.stats(),
                sampled_oracle.stats(),
                "{tag}: oracle stats diverged under sampling"
            );
            if let (Some(a), Some(b)) = (&base_mcb, &sampled_mcb) {
                assert_eq!(a.dim, b.dim, "{tag}: MCB dimension diverged");
                assert_eq!(a.total_weight, b.total_weight, "{tag}: MCB weight diverged");
                for (i, (ca, cb)) in a.cycles.iter().zip(&b.cycles).enumerate() {
                    assert_eq!(ca.weight, cb.weight, "{tag}: cycle {i} weight diverged");
                    assert_eq!(ca.edges, cb.edges, "{tag}: cycle {i} edges diverged");
                }
            }

            // ---- The sampler actually observed the run: at least the
            // final stop() sample fired with `profdiff.root` open, and
            // every folded line is rooted there (all work happened under
            // the root span, and parallel workers root their stacks at
            // their caller's).
            assert!(ticks >= 1, "{tag}: sampler took no samples");
            assert!(
                folded
                    .lines()
                    .any(|l| l.starts_with("profdiff.root ") || l.starts_with("profdiff.root;")),
                "{tag}: folded stacks missing the root span: {folded:?}"
            );
            for line in folded.lines() {
                let (stack, count) = line.rsplit_once(' ').expect("stack<space>count");
                assert!(
                    stack == "profdiff.root" || stack.starts_with("profdiff.root;"),
                    "{tag}: stack not rooted at profdiff.root: {line:?}"
                );
                assert!(
                    count.parse::<u64>().unwrap() >= 1,
                    "{tag}: bad count in {line:?}"
                );
            }
        }
    }
}

/// The sampler's last sample is taken from inside a `par_map` worker while
/// every unit holds a span open: on a host with more than one thread the
/// sample sees worker threads, whose stacks must read as the caller's root
/// span plus their own unit span.
#[test]
fn samples_inside_a_parallel_region_are_rooted_at_its_caller() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    ear_obs::reset();
    ear_obs::enable();
    // A period far longer than the test: only stop()'s final sample falls
    // inside the region.
    ear_obs::profile::start(std::time::Duration::from_secs(3600)).unwrap();
    let units: Vec<u32> = (0..2 * ear_graph::pool::threads() as u32).collect();
    {
        let _root = ear_obs::span("pardiff.root");
        ear_graph::par_map(&units, |&u| {
            let _unit = ear_obs::span("pardiff.unit");
            if u == 0 {
                ear_obs::profile::stop();
            }
        });
    }
    let folded = ear_obs::profile::collapsed();
    ear_obs::disable();
    ear_obs::reset();
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("pardiff.root;pardiff.unit ")),
        "no sample inside the region: {folded:?}"
    );
    for line in folded.lines() {
        assert!(
            line.starts_with("pardiff.root ") || line.starts_with("pardiff.root;"),
            "stack not rooted at the region's caller: {line:?}"
        );
    }
}
