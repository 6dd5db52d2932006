//! Shared-decomposition-plan benchmark: what the `DecompPlan` refactor
//! buys over the five duplicated decompose-reduce front halves it replaced.
//!
//! Two measurements per graph family:
//!
//! 1. **Front half**: building one [`DecompPlan`] versus building it five
//!    times — the pre-refactor workspace ran the BCC split + block-cut
//!    tree + per-block extraction + reduction independently inside
//!    `build_oracle`, the reduced-table oracle's build, `mcb`, the CLI
//!    `decompose` command and `GraphStats::measure`, so five rebuilds is
//!    exactly the duplicated cost a combined run used to pay.
//! 2. **Combined pipelines**: stats + APSP oracle + MCB sharing one
//!    `Arc<DecompPlan>` versus the same three consumers each decomposing
//!    from scratch. Outputs are cross-checked (distance/weight checksums)
//!    so the speedup is certified apples-to-apples.
//!
//! Flags: `--seed S` (default 7), `--reps R` (default 7), `--max-n N`
//! (graph scale, default 48), `--smoke` (tiny inputs for CI), `--out PATH`
//! (default `BENCH_decomp.json`). Writes medians as JSON.

use std::sync::Arc;
use std::time::Instant;

use ear_apsp::{build_oracle, build_oracle_with_plan, ApspMethod};
use ear_decomp::plan::DecompPlan;
use ear_graph::{CsrGraph, Weight};
use ear_hetero::HeteroExecutor;
use ear_mcb::{mcb, mcb_with_plan, ExecMode, McbConfig};
use ear_testkit::{chain_heavy_graphs, multi_bcc_graphs, workload_graphs, Strategy, TestRng};
use ear_workloads::GraphStats;

struct Opts {
    seed: u64,
    reps: usize,
    smoke: bool,
    max_n: usize,
    out: String,
    obs: ear_bench::report::ObsOpts,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        seed: 7,
        reps: 7,
        smoke: false,
        max_n: 48,
        out: "BENCH_decomp.json".to_string(),
        obs: Default::default(),
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        if opts.obs.try_parse(&args, &mut i) {
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                opts.seed = args[i].parse().expect("--seed takes an integer");
            }
            "--reps" => {
                i += 1;
                opts.reps = args[i].parse().expect("--reps takes an integer");
            }
            "--smoke" => opts.smoke = true,
            "--max-n" => {
                i += 1;
                opts.max_n = args[i].parse().expect("--max-n takes an integer");
            }
            "--out" => {
                i += 1;
                opts.out = args[i].clone();
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    opts
}

/// The pre-refactor consumers each ran their own decomposition front half.
const DUPLICATED_SITES: usize = 5;

struct Workload {
    family: &'static str,
    graphs: Vec<CsrGraph>,
    vertices: u64,
    edges: u64,
}

fn prepare(family: &'static str, strat: &ear_testkit::GraphStrategy, cases: &[u64]) -> Workload {
    let graphs: Vec<CsrGraph> = cases
        .iter()
        .map(|&seed| strat.generate(&mut TestRng::new(seed)))
        .collect();
    let vertices = graphs.iter().map(|g| g.n() as u64).sum();
    let edges = graphs.iter().map(|g| g.m() as u64).sum();
    Workload {
        family,
        graphs,
        vertices,
        edges,
    }
}

/// Checksum over everything the combined consumers report, used to certify
/// that the shared-plan and cold paths computed identical results.
fn combined_checksum(
    oracle: &ear_apsp::DistanceOracle,
    mcb_weight: Weight,
    stats: &GraphStats,
    g: &CsrGraph,
) -> Weight {
    let mut sum: Weight = mcb_weight
        .wrapping_add(stats.table_entries)
        .wrapping_add(stats.removed as Weight);
    let n = g.n() as u32;
    for u in 0..n.min(16) {
        for v in 0..n {
            sum = sum.wrapping_add(oracle.dist(u, v));
        }
    }
    sum
}

fn run_cold(w: &Workload, exec: &HeteroExecutor, config: &McbConfig) -> (u128, Weight) {
    let t0 = Instant::now();
    let mut checksum: Weight = 0;
    for g in &w.graphs {
        let stats = GraphStats::measure(g);
        let oracle = build_oracle(g, exec, ApspMethod::Ear);
        let basis = mcb(g, config);
        checksum = checksum.wrapping_add(combined_checksum(&oracle, basis.total_weight, &stats, g));
    }
    (t0.elapsed().as_nanos(), checksum)
}

fn run_shared(w: &Workload, exec: &HeteroExecutor, config: &McbConfig) -> (u128, Weight) {
    let t0 = Instant::now();
    let mut checksum: Weight = 0;
    for g in &w.graphs {
        let plan = Arc::new(DecompPlan::build(g));
        let stats = GraphStats::from_plan(&plan);
        let oracle = build_oracle_with_plan(Arc::clone(&plan), exec, ApspMethod::Ear);
        let basis = mcb_with_plan(g, &plan, config);
        checksum = checksum.wrapping_add(combined_checksum(&oracle, basis.total_weight, &stats, g));
    }
    (t0.elapsed().as_nanos(), checksum)
}

fn run_front_half(w: &Workload, times: usize) -> u128 {
    let t0 = Instant::now();
    for g in &w.graphs {
        for _ in 0..times {
            std::hint::black_box(DecompPlan::build(g));
        }
    }
    t0.elapsed().as_nanos()
}

fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

struct FamilyResult {
    family: &'static str,
    graphs: usize,
    vertices: u64,
    edges: u64,
    checksum: Weight,
    plan_build_ns: f64,
    duplicated_front_ns: f64,
    front_speedup: f64,
    cold_ns: f64,
    shared_ns: f64,
    combined_speedup: f64,
}

fn bench_family(w: &Workload, reps: usize) -> FamilyResult {
    let exec = HeteroExecutor::sequential();
    let config = McbConfig {
        mode: ExecMode::Sequential,
        use_ear: true,
    };

    // Warm-up + correctness gate: shared-plan results must be identical.
    let (_, cold_sum) = run_cold(w, &exec, &config);
    let (_, shared_sum) = run_shared(w, &exec, &config);
    assert_eq!(
        cold_sum, shared_sum,
        "{}: shared-plan combined run diverged from cold runs",
        w.family
    );

    let mut plan_ns = Vec::with_capacity(reps);
    let mut dup_ns = Vec::with_capacity(reps);
    let mut cold_ns = Vec::with_capacity(reps);
    let mut shared_ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        plan_ns.push(run_front_half(w, 1) as f64);
        dup_ns.push(run_front_half(w, DUPLICATED_SITES) as f64);
        cold_ns.push(run_cold(w, &exec, &config).0 as f64);
        shared_ns.push(run_shared(w, &exec, &config).0 as f64);
    }
    let plan = median(&mut plan_ns);
    let dup = median(&mut dup_ns);
    let cold = median(&mut cold_ns);
    let shared = median(&mut shared_ns);
    FamilyResult {
        family: w.family,
        graphs: w.graphs.len(),
        vertices: w.vertices,
        edges: w.edges,
        checksum: shared_sum,
        plan_build_ns: plan,
        duplicated_front_ns: dup,
        front_speedup: dup / plan,
        cold_ns: cold,
        shared_ns: shared,
        combined_speedup: cold / shared,
    }
}

fn write_json(path: &str, opts: &Opts, results: &[FamilyResult]) {
    let mut rep = ear_bench::report::Report::new("decomp_plan");
    rep.params()
        .uint("seed", opts.seed)
        .uint("reps", opts.reps as u64)
        .flag("smoke", opts.smoke)
        .uint("duplicated_sites", DUPLICATED_SITES as u64);
    for r in results {
        rep.family(r.family, r.checksum, opts.reps as u64)
            .uint("graphs", r.graphs as u64)
            .uint("vertices", r.vertices)
            .uint("edges", r.edges)
            .num("plan_build_ns", r.plan_build_ns, 0)
            .num("duplicated_front_ns", r.duplicated_front_ns, 0)
            .num("front_speedup", r.front_speedup, 3)
            .num("cold_combined_ns", r.cold_ns, 0)
            .num("shared_combined_ns", r.shared_ns, 0)
            .num("combined_speedup", r.combined_speedup, 3);
    }
    let mut front: Vec<f64> = results.iter().map(|r| r.front_speedup).collect();
    let mut combined: Vec<f64> = results.iter().map(|r| r.combined_speedup).collect();
    rep.summary()
        .num("median_front_speedup", median(&mut front), 3)
        .num("median_combined_speedup", median(&mut combined), 3);
    rep.write(path);
}

fn main() {
    let opts = parse_args();
    opts.obs.init();
    let (max_n, cases_per_family, reps) = if opts.smoke {
        (24, 3, 2)
    } else {
        (opts.max_n, 10, opts.reps)
    };
    let case_seeds = |family_tag: u64| -> Vec<u64> {
        (0..cases_per_family as u64)
            .map(|i| opts.seed ^ (family_tag << 32) ^ i)
            .collect()
    };

    let workloads = [
        prepare("chain_heavy", &chain_heavy_graphs(max_n), &case_seeds(1)),
        prepare("multi_bcc", &multi_bcc_graphs(max_n), &case_seeds(2)),
        prepare("workload", &workload_graphs(max_n / 2), &case_seeds(3)),
    ];

    let mut table = ear_bench::Table::new(&[
        "family", "graphs", "plan", "dup x5", "cold", "shared", "combined",
    ]);
    let mut results = Vec::new();
    for w in &workloads {
        let r = bench_family(w, reps);
        table.row(vec![
            r.family.to_string(),
            r.graphs.to_string(),
            format!("{:.2} ms", r.plan_build_ns / 1e6),
            format!("{:.2} ms", r.duplicated_front_ns / 1e6),
            format!("{:.2} ms", r.cold_ns / 1e6),
            format!("{:.2} ms", r.shared_ns / 1e6),
            format!("{:.2}x", r.combined_speedup),
        ]);
        results.push(r);
    }
    table.print();
    write_json(&opts.out, &opts, &results);
    opts.obs.finish();
}
