//! Old-vs-new SSSP microbenchmark: the allocate-per-source reference
//! (`ear_testkit::reference`) against the pooled [`SsspEngine`], on the exact
//! workload the reduced oracle's build phase runs — all-sources Dijkstra
//! over the reduced biconnected blocks of testkit graph families.
//!
//! Both sides compute identical rows (asserted via checksum and
//! relaxation counts before any timing — the bench refuses to report a
//! speedup for an implementation that diverged); what differs is the
//! per-source overhead: the legacy path allocates and INF-fills fresh
//! arrays plus a lazy-deletion binary heap for every source, the engine
//! path reuses generation-stamped scratch and an indexed 4-ary heap.
//!
//! The headline families measure the oracle's design point — the small
//! reduced blocks left after chain contraction / BCC splitting, where the
//! per-source fixed costs dominate. The `*_large` families run cache-sized
//! multi-thousand-vertex blocks (sources capped per block so the sweep
//! stays linear in block size) where the engine's Dial bucket-queue path
//! replaces the binary heap — the regime the unit-weight-bounded testkit
//! families put every production block in.
//!
//! Both passes run on the same per-block targets, in the same vertex
//! labels, from the same sources.
//!
//! Flags: `--seed S` (default 7), `--reps R` (default 7), `--max-n N`
//! (design-point graph scale, default 32), `--smoke` (tiny inputs for CI),
//! `--large` (force the `*_large` families even with `--smoke`),
//! `--out PATH` (default `BENCH_sssp.json`). Writes medians as JSON:
//! ns/source and edges-relaxed/sec per family.

use std::time::Instant;

use ear_decomp::plan::DecompPlan;
use ear_graph::{CsrGraph, SsspEngine, Weight};
use ear_testkit::{chain_heavy_graphs, multi_bcc_graphs, workload_graphs, Strategy, TestRng};

struct Opts {
    seed: u64,
    reps: usize,
    smoke: bool,
    large: bool,
    max_n: usize,
    out: String,
    obs: ear_bench::report::ObsOpts,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        seed: 7,
        reps: 7,
        smoke: false,
        large: false,
        max_n: 32,
        out: "BENCH_sssp.json".to_string(),
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
            "--large" => opts.large = true,
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

/// The reduced-oracle build workload for one family: the per-block SSSP
/// targets (reduced graph for simple blocks, raw subgraph otherwise), each
/// run from its first `src_cap` vertices.
struct Workload {
    family: &'static str,
    graphs: usize,
    blocks: Vec<CsrGraph>,
    sources: u64,
    /// Per-block source count: every vertex for the design-point
    /// families; large families cap it so block sizes can grow without
    /// the sweep going quadratic.
    srcs: Vec<u32>,
}

fn prepare(
    family: &'static str,
    strat: &ear_testkit::GraphStrategy,
    cases: &[u64],
    src_cap: usize,
) -> Workload {
    let mut blocks = Vec::new();
    for &seed in cases {
        let g = strat.generate(&mut TestRng::new(seed));
        let plan = DecompPlan::build(&g);
        for b in 0..plan.n_blocks() as u32 {
            let target = match plan.reduction(b) {
                Some(r) => r.reduced.clone(),
                None => plan.block_graph(b).materialize(),
            };
            if target.n() > 0 {
                blocks.push(target);
            }
        }
    }
    let srcs: Vec<u32> = blocks.iter().map(|b| b.n().min(src_cap) as u32).collect();
    let sources = srcs.iter().map(|&k| k as u64).sum();
    Workload {
        family,
        graphs: cases.len(),
        blocks,
        sources,
        srcs,
    }
}

struct Pass {
    ns: u128,
    edges_relaxed: u64,
    checksum: Weight,
}

fn run_legacy(w: &Workload) -> Pass {
    let t0 = Instant::now();
    let mut edges_relaxed = 0u64;
    let mut checksum: Weight = 0;
    for (b, &k) in w.blocks.iter().zip(&w.srcs) {
        for s in 0..k {
            let (dist, stats) = ear_testkit::reference::dijkstra_with_stats(b, s);
            edges_relaxed += stats.edges_relaxed;
            for d in dist {
                checksum = checksum.wrapping_add(d);
            }
        }
    }
    Pass {
        ns: t0.elapsed().as_nanos(),
        edges_relaxed,
        checksum,
    }
}

fn run_engine(w: &Workload, eng: &mut SsspEngine) -> Pass {
    let t0 = Instant::now();
    let mut edges_relaxed = 0u64;
    let mut checksum: Weight = 0;
    for (b, &k) in w.blocks.iter().zip(&w.srcs) {
        for s in 0..k {
            let stats = eng.run(b, s);
            edges_relaxed += stats.edges_relaxed;
            for t in 0..b.n() as u32 {
                checksum = checksum.wrapping_add(eng.dist(t));
            }
        }
    }
    Pass {
        ns: t0.elapsed().as_nanos(),
        edges_relaxed,
        checksum,
    }
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
    blocks: usize,
    sources: u64,
    checksum: Weight,
    edges_relaxed_per_source: f64,
    legacy_ns_per_source: f64,
    engine_ns_per_source: f64,
    legacy_edges_per_sec: f64,
    engine_edges_per_sec: f64,
    speedup: f64,
}

fn bench_family(w: &Workload, reps: usize) -> FamilyResult {
    let mut eng = SsspEngine::new();
    // Warm-up: page in the graphs, size the engine, and cross-check that
    // both implementations agree before timing anything. A checksum or
    // relaxation-count mismatch aborts the run — the bench refuses to
    // report a speedup for an implementation that computed different
    // distances.
    let l0 = run_legacy(w);
    let e0 = run_engine(w, &mut eng);
    assert_eq!(
        l0.checksum, e0.checksum,
        "{}: engine distance checksum mismatch",
        w.family
    );
    assert_eq!(
        l0.edges_relaxed, e0.edges_relaxed,
        "{}: engine relaxation count mismatch",
        w.family
    );

    // Each timed sample aggregates enough back-to-back passes to outlast
    // timer granularity and scheduler jitter: a smoke-scale family is a
    // handful of microsecond blocks. The warmup pass sizes the
    // aggregation; full-scale families (ms-scale passes) keep
    // `iters == 1`.
    const TARGET_SAMPLE_NS: u128 = 200_000;
    let fastest = l0.ns.min(e0.ns).max(1);
    let iters = ((TARGET_SAMPLE_NS / fastest) as usize + 1).min(1024);
    let per_sample = (iters as u64 * w.sources) as f64;
    let mut legacy_ns: Vec<f64> = Vec::with_capacity(reps);
    let mut engine_ns: Vec<f64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut ns = [0u128; 2];
        for _ in 0..iters {
            ns[0] += run_legacy(w).ns;
        }
        for _ in 0..iters {
            ns[1] += run_engine(w, &mut eng).ns;
        }
        legacy_ns.push(ns[0] as f64 / per_sample);
        engine_ns.push(ns[1] as f64 / per_sample);
    }
    let legacy = median(&mut legacy_ns);
    let engine = median(&mut engine_ns);
    let per_source_edges = l0.edges_relaxed as f64 / w.sources as f64;
    FamilyResult {
        family: w.family,
        graphs: w.graphs,
        blocks: w.blocks.len(),
        sources: w.sources,
        checksum: l0.checksum,
        edges_relaxed_per_source: per_source_edges,
        legacy_ns_per_source: legacy,
        engine_ns_per_source: engine,
        legacy_edges_per_sec: per_source_edges / (legacy * 1e-9),
        engine_edges_per_sec: per_source_edges / (engine * 1e-9),
        speedup: legacy / engine,
    }
}

fn write_json(path: &str, opts: &Opts, results: &[FamilyResult]) {
    let mut rep = ear_bench::report::Report::new("sssp_engine");
    rep.params()
        .uint("seed", opts.seed)
        .uint("reps", opts.reps as u64)
        .flag("smoke", opts.smoke);
    use ear_bench::report::Direction::{Higher, Lower};
    rep.column("legacy_ns_per_source", Lower)
        .column("engine_ns_per_source", Lower)
        .column("legacy_edges_relaxed_per_sec", Higher)
        .column("engine_edges_relaxed_per_sec", Higher)
        .column("speedup", Higher);
    for r in results {
        rep.family(r.family, r.checksum, opts.reps as u64)
            .uint("graphs", r.graphs as u64)
            .uint("blocks", r.blocks as u64)
            .uint("sources", r.sources)
            .num("edges_relaxed_per_source", r.edges_relaxed_per_source, 1)
            .num("legacy_ns_per_source", r.legacy_ns_per_source, 1)
            .num("engine_ns_per_source", r.engine_ns_per_source, 1)
            .num("legacy_edges_relaxed_per_sec", r.legacy_edges_per_sec, 0)
            .num("engine_edges_relaxed_per_sec", r.engine_edges_per_sec, 0)
            .num("speedup", r.speedup, 3);
    }
    let mut speedups: Vec<f64> = results.iter().map(|r| r.speedup).collect();
    let mut large: Vec<f64> = results
        .iter()
        .filter(|r| r.family.ends_with("_large"))
        .map(|r| r.speedup)
        .collect();
    let s = rep.summary();
    s.num("median_speedup", median(&mut speedups), 3);
    if !large.is_empty() {
        s.num("engine_large_speedup", median(&mut large), 3);
    }
    rep.write(path);
}

fn main() {
    let opts = parse_args();
    opts.obs.init();
    // The headline rows measure the reduced oracle's design point: chain
    // contraction and BCC splitting leave *small* per-block SSSP targets,
    // where the legacy per-source allocations are a large fraction of the
    // runtime. The `*_large` rows document the other end of the scale —
    // blocks of tens of thousands of vertices whose runs are edge-bound,
    // where the engine's Dial bucket-queue path beats the legacy binary
    // heap on queue cost. `--max-n` rescales the design-point rows.
    // Smoke reps stay at 5 — each smoke rep is microseconds, so the extra
    // passes cost nothing.
    let (max_n, cases_per_family, reps) = if opts.smoke {
        (32, 3, 5)
    } else {
        (opts.max_n, 12, opts.reps)
    };
    let case_seeds = |family_tag: u64| -> Vec<u64> {
        (0..cases_per_family as u64)
            .map(|i| opts.seed ^ (family_tag << 32) ^ i)
            .collect()
    };

    let mut workloads = vec![
        prepare(
            "chain_heavy",
            &chain_heavy_graphs(max_n),
            &case_seeds(1),
            usize::MAX,
        ),
        prepare(
            "multi_bcc",
            &multi_bcc_graphs(max_n),
            &case_seeds(2),
            usize::MAX,
        ),
        prepare(
            "workload",
            &workload_graphs(max_n / 2),
            &case_seeds(3),
            usize::MAX,
        ),
    ];
    if !opts.smoke || opts.large {
        // Smoke runs forced with --large use a reduced scale so CI can
        // exercise the large-family code path without the full cost. At
        // full scale the blocks reach tens of thousands of vertices, so
        // the sweep runs each block from a capped slice of 16 sources
        // instead of every vertex — otherwise the
        // all-sources pass would go quadratic in block size.
        let (chain_scale, mbcc_scale) = if opts.smoke {
            (400, 400)
        } else {
            (100_000, 500_000)
        };
        let large_seeds = |family_tag: u64| -> Vec<u64> {
            (0..3u64)
                .map(|i| opts.seed ^ (family_tag << 32) ^ i)
                .collect()
        };
        workloads.push(prepare(
            "chain_heavy_large",
            &chain_heavy_graphs(chain_scale),
            &large_seeds(1),
            16,
        ));
        workloads.push(prepare(
            "multi_bcc_large",
            &multi_bcc_graphs(mbcc_scale),
            &large_seeds(2),
            16,
        ));
    }

    let mut table = ear_bench::Table::new(&[
        "family", "graphs", "blocks", "sources", "legacy", "engine", "speedup",
    ]);
    let mut results = Vec::new();
    for w in &workloads {
        let r = bench_family(w, reps);
        table.row(vec![
            r.family.to_string(),
            r.graphs.to_string(),
            r.blocks.to_string(),
            r.sources.to_string(),
            format!("{:.0} ns/src", r.legacy_ns_per_source),
            format!("{:.0} ns/src", r.engine_ns_per_source),
            format!("{:.2}x", r.speedup),
        ]);
        results.push(r);
    }
    table.print();
    write_json(&opts.out, &opts, &results);
    opts.obs.finish();
}
