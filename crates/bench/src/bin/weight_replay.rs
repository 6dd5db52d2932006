//! Weight-perturbation replay benchmark: what the topology/customization
//! split buys when edge weights change but the graph structure does not.
//!
//! For each graph family and each perturbation fraction (0.1%, 1%, 10%
//! and 100% of edges reweighted), the bench replays weight updates two
//! ways:
//!
//! 1. **Warm** — `DecompPlan::recustomized` (weight layer only, dirty
//!    blocks recomputed in parallel) followed by the incremental
//!    `DistanceOracle::recustomized` refreshes of an `Ear` and a `Reduced`
//!    oracle, which recompute only the dirty blocks' tables into a
//!    clone of the parent oracle's arena (clean tables are copied, never
//!    recomputed) and share the whole arena when no block is dirty.
//! 2. **Cold** — full `DecompPlan::build` on the reweighted graph plus
//!    cold oracle builds, exactly what a caller without the
//!    customization layer would pay.
//!
//! Every rep is checksum-gated: warm and cold oracles must answer a
//! deterministic sample of distance queries identically (and the
//! checksum lands in `BENCH_custom.json`), so a reported speedup can
//! never come from a wrong refresh. The report also records the median
//! dirty-block share and the executor work units of both paths —
//! `refresh_units / cold_units` tracking `dirty_share` is the evidence
//! that the incremental refresh scales with the dirty share, not with
//! graph size.
//!
//! The workloads are block chains — `B` mesh or small-world blocks glued
//! at shared articulation vertices — i.e. the many-BCC regime of the
//! paper's Table 1 where the decomposition (and hence the customization
//! split) pays. Dirty share is then a real variable: a 0.1% edge
//! perturbation touches a handful of blocks, a 100% one touches all.
//!
//! Flags: `--seed S` (default 7), `--reps R` (default 5), `--blocks B`
//! (blocks per chain, default 64), `--smoke` (tiny inputs for CI),
//! `--out PATH` (default `BENCH_custom.json`). Writes medians as JSON.

use std::sync::Arc;
use std::time::Instant;

use ear_apsp::{build_oracle_with_plan, ApspMethod, DistanceOracle};
use ear_decomp::plan::DecompPlan;
use ear_graph::{CsrGraph, GraphBuilder, Weight};
use ear_hetero::HeteroExecutor;
use ear_workloads::generators::{small_world, triangulated_grid};

/// Fractions of the edge set reweighted per replay round.
const FRACTIONS: &[f64] = &[0.001, 0.01, 0.1, 1.0];

struct Opts {
    seed: u64,
    reps: usize,
    smoke: bool,
    blocks: usize,
    out: String,
    obs: ear_bench::report::ObsOpts,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        seed: 7,
        reps: 5,
        smoke: false,
        blocks: 64,
        out: "BENCH_custom.json".to_string(),
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
            "--blocks" => {
                i += 1;
                opts.blocks = args[i].parse().expect("--blocks takes an integer");
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

/// Glues `blocks` generator outputs into one graph: block `i`'s last
/// vertex is block `i+1`'s first, so each part is its own biconnected
/// component hanging off a chain of articulation points. Weights are
/// redrawn uniformly in `1..=100`.
fn chain_of_blocks(blocks: usize, seed: u64, make: impl Fn(u64) -> CsrGraph) -> CsrGraph {
    assert!(blocks >= 1);
    let parts: Vec<CsrGraph> = (0..blocks as u64).map(|i| make(seed ^ (i << 40))).collect();
    let total: usize = parts.iter().map(|p| p.n()).sum::<usize>() - (blocks - 1);
    let mut b = GraphBuilder::new(total);
    let mut rng = seed ^ 0xb10c;
    let mut start = 0usize;
    for p in &parts {
        for e in p.edges() {
            b.add_edge(
                (start + e.u as usize) as u32,
                (start + e.v as usize) as u32,
                1 + splitmix(&mut rng) % 100,
            );
        }
        // Next block's local vertex 0 lands on this block's last vertex.
        start += p.n() - 1;
    }
    b.build()
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// How a perturbation round picks its edges.
#[derive(Clone, Copy, PartialEq)]
enum Model {
    /// A contiguous window of edge ids — a localized update stream (edge
    /// ids are block-contiguous in the chain workloads, so this models a
    /// region update touching ~`fraction` of the blocks). This is the
    /// model the acceptance summary gates on.
    Clustered,
    /// Uniform random picks with replacement — the adversarial spread
    /// where even small fractions dirty most blocks.
    Scatter,
}

impl Model {
    fn name(self) -> &'static str {
        match self {
            Model::Clustered => "clustered",
            Model::Scatter => "scatter",
        }
    }
}

/// Perturb `count` seeded edge picks of `base` under `model`.
fn perturb(base: &[Weight], count: usize, model: Model, rng: &mut u64) -> Vec<Weight> {
    let mut w = base.to_vec();
    match model {
        Model::Clustered => {
            let start = (splitmix(rng) % base.len() as u64) as usize;
            for i in 0..count {
                let e = (start + i) % base.len();
                w[e] = 1 + splitmix(rng) % 1000;
            }
        }
        Model::Scatter => {
            for _ in 0..count {
                let e = (splitmix(rng) % base.len() as u64) as usize;
                w[e] = 1 + splitmix(rng) % 1000;
            }
        }
    }
    w
}

/// FNV-1a over a deterministic sample of full-oracle and reduced-oracle
/// answers.
fn checksum(oracle: &DistanceOracle, reduced: &DistanceOracle, n: usize, seed: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut state = seed;
    let samples = 2048.min(n * n);
    for _ in 0..samples {
        let u = (splitmix(&mut state) % n as u64) as u32;
        let v = (splitmix(&mut state) % n as u64) as u32;
        for d in [oracle.dist(u, v), reduced.dist(u, v)] {
            for b in d.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
    }
    h
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

struct Cell {
    fraction: f64,
    model: Model,
    edges_changed: u64,
    warm_ns: f64,
    cold_ns: f64,
    speedup: f64,
    dirty_share: f64,
    refresh_units: f64,
    cold_units: f64,
    checksum: u64,
}

struct FamilyRun {
    family: &'static str,
    vertices: u64,
    edges: u64,
    blocks: u64,
    cells: Vec<Cell>,
}

fn bench_family(family: &'static str, graphs: &[CsrGraph], reps: usize, seed: u64) -> FamilyRun {
    let exec = HeteroExecutor::sequential();
    // Base plans and oracles — the state a long-lived server holds.
    let base: Vec<(Arc<DecompPlan>, DistanceOracle, DistanceOracle)> = graphs
        .iter()
        .map(|g| {
            let plan = Arc::new(DecompPlan::build(g));
            let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Ear);
            let reduced = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Reduced);
            (plan, oracle, reduced)
        })
        .collect();

    let mut cells = Vec::new();
    for &fraction in FRACTIONS {
        for model in [Model::Clustered, Model::Scatter] {
            let mut warm_ns = Vec::with_capacity(reps);
            let mut cold_ns = Vec::with_capacity(reps);
            let mut dirty_shares = Vec::with_capacity(reps);
            let mut refresh_units = Vec::with_capacity(reps);
            let mut cold_units = Vec::with_capacity(reps);
            let mut edges_changed = 0u64;
            let mut sum = 0u64;
            let mut rng = seed ^ (fraction * 1e6) as u64 ^ (model as u64) << 48;
            for rep in 0..reps {
                for (gi, g) in graphs.iter().enumerate() {
                    let (plan, oracle, reduced) = &base[gi];
                    let count = ((g.m() as f64 * fraction).round() as usize).clamp(1, g.m());
                    edges_changed += count as u64;
                    let weights: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
                    let w = perturb(&weights, count, model, &mut rng);

                    let t0 = Instant::now();
                    let warm_plan = Arc::new(plan.recustomized(&w));
                    let warm_oracle = oracle.recustomized(Arc::clone(&warm_plan), &exec);
                    let warm_reduced = reduced.recustomized(Arc::clone(&warm_plan), &exec);
                    warm_ns.push(t0.elapsed().as_nanos() as f64);

                    let gp = g.reweighted(&w);
                    let t1 = Instant::now();
                    let cold_plan = Arc::new(DecompPlan::build(&gp));
                    let cold_oracle =
                        build_oracle_with_plan(Arc::clone(&cold_plan), &exec, ApspMethod::Ear);
                    let cold_reduced =
                        build_oracle_with_plan(cold_plan, &exec, ApspMethod::Reduced);
                    cold_ns.push(t1.elapsed().as_nanos() as f64);

                    let pair_seed = seed ^ (rep as u64) << 8 ^ gi as u64;
                    let ws = checksum(&warm_oracle, &warm_reduced, g.n(), pair_seed);
                    let cs = checksum(&cold_oracle, &cold_reduced, g.n(), pair_seed);
                    assert_eq!(
                        ws, cs,
                        "{family} frac {fraction}: warm refresh diverged from cold rebuild"
                    );
                    sum = sum.wrapping_add(ws);

                    dirty_shares
                        .push(warm_plan.dirty_blocks().len() as f64 / warm_plan.n_blocks() as f64);
                    refresh_units.push(
                        (warm_oracle.processing.total_units()
                            + warm_reduced.processing.total_units()) as f64,
                    );
                    cold_units.push(
                        (cold_oracle.processing.total_units()
                            + cold_reduced.processing.total_units()) as f64,
                    );
                }
            }
            let warm = median(&mut warm_ns);
            let cold = median(&mut cold_ns);
            cells.push(Cell {
                fraction,
                model,
                edges_changed,
                warm_ns: warm,
                cold_ns: cold,
                speedup: cold / warm,
                dirty_share: median(&mut dirty_shares),
                refresh_units: median(&mut refresh_units),
                cold_units: median(&mut cold_units),
                checksum: sum,
            });
        }
    }
    FamilyRun {
        family,
        vertices: graphs.iter().map(|g| g.n() as u64).sum(),
        edges: graphs.iter().map(|g| g.m() as u64).sum(),
        blocks: base.iter().map(|(p, _, _)| p.n_blocks() as u64).sum(),
        cells,
    }
}

fn write_json(path: &str, opts: &Opts, runs: &[FamilyRun]) {
    let mut rep = ear_bench::report::Report::new("weight_replay");
    rep.params()
        .uint("seed", opts.seed)
        .uint("reps", opts.reps as u64)
        .flag("smoke", opts.smoke)
        .text(
            "fractions",
            &FRACTIONS
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
    use ear_bench::report::Direction::{Higher, Lower};
    rep.column("warm_ns", Lower)
        .column("cold_ns", Lower)
        .column("speedup", Higher);
    let mut small_speedups = Vec::new();
    for run in runs {
        for c in &run.cells {
            let tag = format!("{}@{}@{}", run.family, c.fraction, c.model.name());
            rep.family(&tag, c.checksum, opts.reps as u64)
                .uint("vertices", run.vertices)
                .uint("edges", run.edges)
                .uint("blocks", run.blocks)
                .num("fraction", c.fraction, 4)
                .text("model", c.model.name())
                .uint("edges_changed", c.edges_changed)
                .num("warm_ns", c.warm_ns, 0)
                .num("cold_ns", c.cold_ns, 0)
                .num("speedup", c.speedup, 3)
                .num("dirty_share", c.dirty_share, 4)
                .num("refresh_units", c.refresh_units, 0)
                .num("cold_units", c.cold_units, 0)
                .num("unit_share", c.refresh_units / c.cold_units.max(1.0), 4);
            if c.fraction <= 0.01 && c.model == Model::Clustered {
                small_speedups.push(c.speedup);
            }
        }
    }
    rep.summary().num(
        "min_small_fraction_speedup",
        small_speedups.iter().cloned().fold(f64::INFINITY, f64::min),
        3,
    );
    rep.write(path);
}

fn main() {
    let opts = parse_args();
    opts.obs.init();
    let (blocks, block_n, reps) = if opts.smoke {
        (8, 20, 2)
    } else {
        (opts.blocks, 48, opts.reps)
    };

    let families = [
        (
            "mesh_chain",
            vec![chain_of_blocks(blocks, opts.seed, |s| {
                triangulated_grid(6, (block_n / 6).max(2), s)
            })],
        ),
        (
            "sw_chain",
            vec![chain_of_blocks(blocks, opts.seed ^ 0x51, |s| {
                small_world(block_n, 4, 10, s)
            })],
        ),
        (
            "mixed_chain",
            vec![chain_of_blocks(blocks, opts.seed ^ 0xa2, |s| {
                if s & (1 << 40) == 0 {
                    triangulated_grid(4, (block_n / 4).max(2), s)
                } else {
                    small_world(block_n / 2, 4, 20, s)
                }
            })],
        ),
    ];

    let mut table = ear_bench::Table::new(&[
        "family", "fraction", "model", "dirty", "warm", "cold", "speedup", "units",
    ]);
    let mut runs = Vec::new();
    for (family, graphs) in &families {
        let run = bench_family(family, graphs, reps, opts.seed);
        for c in &run.cells {
            table.row(vec![
                family.to_string(),
                format!("{:.1}%", c.fraction * 100.0),
                c.model.name().to_string(),
                format!("{:.0}%", c.dirty_share * 100.0),
                format!("{:.3} ms", c.warm_ns / 1e6),
                format!("{:.3} ms", c.cold_ns / 1e6),
                format!("{:.1}x", c.speedup),
                format!("{:.0}/{:.0}", c.refresh_units, c.cold_units),
            ]);
        }
        runs.push(run);
    }
    table.print();
    write_json(&opts.out, &opts, &runs);
    opts.obs.finish();
}
