//! Query-serving throughput of the `QueryEngine`: block-cut-tree routing
//! over the oracle's distance arena, on the multi-BCC workloads where
//! routing cost shows.
//!
//! Two query shapes per graph family:
//!
//! * **p2p** — point-to-point `dist(u, v)` over a uniform workload and a
//!   zipf-skewed one (rank-1 popularity over a shuffled vertex
//!   permutation — the "hot landmarks" shape real query logs have).
//! * **path** — full path realization on sampled pairs.
//!
//! Every cell is **checksum-gated** against `ear_graph::dijkstra`: for up
//! to [`CHECK_SOURCES`] sources sampled from the cell's own pairs, the
//! engine's whole distance row must equal the Dijkstra row (p2p), and
//! every sampled path must be a walk of the graph whose weight is the
//! Dijkstra distance (path). The FNV-1a fold of the cell's answers is its
//! checksum. Latency samples are taken per 64-query chunk (amortizing
//! the timer read), each sample is the minimum over 5 repeated passes of
//! the same work (a scheduler noise window must hit the same chunk in
//! every pass to survive), and the qps mean is 1%-trimmed. The report
//! carries p50/p99 ns/query and queries/sec.
//!
//! Families: three chains of `--blocks` generator blocks (at most two
//! articulation points per block) and the `cond_mat_2003` Table-1 analog
//! at its APSP base scale (hundreds of blocks, one holding most of the
//! articulation points).
//!
//! Flags: `--seed S` (default 7), `--queries Q` (p2p queries per
//! workload, default 200000), `--blocks B` (blocks per chain, default
//! 256), `--smoke` (tiny inputs for CI), `--out PATH` (default
//! `BENCH_query.json`). Writes medians as JSON.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use ear_apsp::{build_oracle_with_plan, ApspMethod, QueryEngine};
use ear_decomp::plan::DecompPlan;
use ear_graph::{dijkstra, CsrGraph, GraphBuilder, VertexId, Weight};
use ear_hetero::HeteroExecutor;
use ear_workloads::generators::{small_world, triangulated_grid};
use ear_workloads::table1_specs;

/// Queries per timing chunk: one `Instant` read per chunk keeps timer
/// overhead out of the per-query figures.
const CHUNK: usize = 64;

/// Repetitions per measurement. Each timing sample covers identical work
/// in every repetition, so the per-sample **minimum** across repetitions
/// is the clean estimate: a scheduler noise window has to land on the
/// same chunk in all [`REPS`] passes to survive into the figures.
const REPS: usize = 5;

/// Sources per cell whose Dijkstra rows gate the cell's answers.
const CHECK_SOURCES: usize = 32;

/// Runs `pass` [`REPS`] times after one discarded warm-up repetition
/// (first-touch page faults on the tables, cold branch predictors,
/// frequency ramp-up). `pass` must fill `samples` by min-merging
/// (`samples[i] = samples[i].min(t)`) and return its checksum, which must
/// be identical across repetitions (the workloads are deterministic).
fn min_over_reps(samples: &mut [f64], mut pass: impl FnMut(&mut [f64]) -> u64) -> u64 {
    let h = pass(samples);
    samples.iter_mut().for_each(|s| *s = f64::INFINITY);
    for _ in 0..REPS {
        assert_eq!(pass(samples), h, "answers diverged across repetitions");
    }
    h
}

struct Opts {
    seed: u64,
    queries: usize,
    blocks: usize,
    smoke: bool,
    out: String,
    obs: ear_bench::report::ObsOpts,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        seed: 7,
        queries: 200_000,
        blocks: 256,
        smoke: false,
        out: "BENCH_query.json".to_string(),
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
            "--queries" => {
                i += 1;
                opts.queries = args[i].parse().expect("--queries takes an integer");
            }
            "--blocks" => {
                i += 1;
                opts.blocks = args[i].parse().expect("--blocks takes an integer");
            }
            "--smoke" => opts.smoke = true,
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

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Glues `blocks` generator outputs into one graph: block `i`'s last
/// vertex is block `i+1`'s first, so each part is its own biconnected
/// component hanging off a chain of articulation points.
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
        start += p.n() - 1;
    }
    b.build()
}

/// How a workload draws its endpoints.
#[derive(Clone, Copy, PartialEq)]
enum Skew {
    Uniform,
    /// Zipf(θ = 1): endpoint popularity follows `1 / rank`, ranks mapped
    /// to vertices through a seeded shuffle — a few hot landmarks soak
    /// up most of the traffic.
    Zipf,
}

impl Skew {
    fn name(self) -> &'static str {
        match self {
            Skew::Uniform => "uniform",
            Skew::Zipf => "zipf",
        }
    }
}

/// Seeded endpoint sampler for both workload skews. Zipf sampling is
/// hand-rolled: a cumulative `1/rank` table binary-searched with a
/// uniform draw, ranks permuted so hot vertices sit anywhere in the id
/// space.
struct PairSampler {
    n: u64,
    skew: Skew,
    rng: u64,
    /// Cumulative (unnormalized) zipf mass per rank.
    cdf: Vec<f64>,
    /// rank → vertex id.
    perm: Vec<u32>,
}

impl PairSampler {
    fn new(n: usize, skew: Skew, seed: u64) -> PairSampler {
        let mut rng = seed | 1;
        let (cdf, perm) = if skew == Skew::Zipf {
            let mut cdf = Vec::with_capacity(n);
            let mut acc = 0.0f64;
            for rank in 0..n {
                acc += 1.0 / (rank + 1) as f64;
                cdf.push(acc);
            }
            let mut perm: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                let j = (splitmix(&mut rng) % (i as u64 + 1)) as usize;
                perm.swap(i, j);
            }
            (cdf, perm)
        } else {
            (Vec::new(), Vec::new())
        };
        PairSampler {
            n: n as u64,
            skew,
            rng,
            cdf,
            perm,
        }
    }

    fn vertex(&mut self) -> VertexId {
        match self.skew {
            Skew::Uniform => (splitmix(&mut self.rng) % self.n) as u32,
            Skew::Zipf => {
                let total = *self.cdf.last().expect("non-empty graph");
                let x = (splitmix(&mut self.rng) as f64 / u64::MAX as f64) * total;
                let rank = self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1);
                self.perm[rank]
            }
        }
    }

    fn pairs(&mut self, count: usize) -> Vec<(VertexId, VertexId)> {
        (0..count).map(|_| (self.vertex(), self.vertex())).collect()
    }
}

fn fnv_fold(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// Per-chunk latency samples → (p50 ns/query, p99 ns/query, trimmed mean
/// ns/query). The mean discards samples above the p99: a scheduler
/// preemption landing inside one chunk charges ~100µs to 64 queries and
/// would dominate an untrimmed mean, so the trim keeps the qps figure
/// about the query path rather than about the scheduler.
fn percentiles(samples: &mut [f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p = |q: f64| samples[((samples.len() - 1) as f64 * q) as usize];
    let keep = &samples[..=((samples.len() - 1) as f64 * 0.99) as usize];
    let mean = keep.iter().sum::<f64>() / keep.len() as f64;
    (p(0.5), p(0.99), mean)
}

/// One timing pass over `pairs` in [`CHUNK`]-sized chunks, min-merging
/// into `samples` and FNV-folding every answer.
fn p2p_pass(
    pairs: &[(VertexId, VertexId)],
    samples: &mut [f64],
    mut answer: impl FnMut(VertexId, VertexId) -> Weight,
) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for (ci, chunk) in pairs.chunks(CHUNK).enumerate() {
        let t0 = Instant::now();
        for &(u, v) in chunk {
            fnv_fold(&mut h, answer(u, v));
        }
        let t = t0.elapsed().as_nanos() as f64 / chunk.len() as f64;
        samples[ci] = samples[ci].min(t);
    }
    h
}

struct Cell {
    variant: String,
    p50: f64,
    p99: f64,
    qps: f64,
    queries: u64,
    checksum: u64,
}

impl Cell {
    fn new(variant: String, samples: &mut [f64], queries: usize, checksum: u64) -> Cell {
        let (p50, p99, mean) = percentiles(samples);
        Cell {
            variant,
            p50,
            p99,
            qps: 1e9 / mean,
            queries: queries as u64,
            checksum,
        }
    }
}

struct FamilyRun {
    family: &'static str,
    vertices: u64,
    edges: u64,
    blocks: u64,
    cells: Vec<Cell>,
}

/// Dijkstra rows of up to [`CHECK_SOURCES`] sources spread evenly over
/// `pairs`, keyed by source.
fn reference_rows(g: &CsrGraph, pairs: &[(VertexId, VertexId)]) -> HashMap<VertexId, Vec<Weight>> {
    let step = pairs.len().div_ceil(CHECK_SOURCES).max(1);
    pairs
        .iter()
        .step_by(step)
        .map(|&(u, _)| (u, dijkstra(g, u)))
        .collect()
}

/// Weight of `path` as a walk of `g` from `u` to `v`; panics unless it
/// is one.
fn walk_weight(g: &CsrGraph, u: VertexId, v: VertexId, path: &[VertexId]) -> Weight {
    assert_eq!(
        (path[0], path[path.len() - 1]),
        (u, v),
        "path({u},{v}) ends"
    );
    let step = |w: &[VertexId]| {
        let edges = g.neighbors(w[0]).iter().filter(|&&(y, _)| y == w[1]);
        edges
            .map(|&(_, e)| g.weight(e))
            .min()
            .expect("path steps along an edge")
    };
    path.windows(2).map(step).sum()
}

fn bench_family(
    family: &'static str,
    g: &CsrGraph,
    queries: usize,
    paths: usize,
    seed: u64,
) -> FamilyRun {
    let exec = HeteroExecutor::sequential();
    let plan = Arc::new(DecompPlan::build(g));
    let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Ear);
    let q = QueryEngine::new(&oracle);
    let mut cells = Vec::new();

    // p2p, both skews.
    for skew in [Skew::Uniform, Skew::Zipf] {
        let pairs = PairSampler::new(g.n(), skew, seed ^ skew as u64).pairs(queries);
        for (s, row) in reference_rows(g, &pairs) {
            for (v, &want) in row.iter().enumerate() {
                let got = q.dist(s, v as VertexId);
                assert_eq!(got, want, "{family}/{}: dist({s},{v})", skew.name());
            }
        }
        let mut samples = vec![0.0; pairs.len().div_ceil(CHUNK)];
        let sum = min_over_reps(&mut samples, |s| p2p_pass(&pairs, s, |u, v| q.dist(u, v)));
        let variant = format!("p2p_{}", skew.name());
        cells.push(Cell::new(variant, &mut samples, pairs.len(), sum));
    }

    // Path realization. Checksums fold length and vertex sum of every
    // path.
    {
        let pairs = PairSampler::new(g.n(), Skew::Uniform, seed ^ 0x9a7).pairs(paths);
        let rows = reference_rows(g, &pairs);
        for &(u, v) in &pairs {
            let Some(row) = rows.get(&u) else { continue };
            let want = (row[v as usize] < ear_graph::INF).then_some(row[v as usize]);
            let walked = q.path(g, u, v).map(|p| walk_weight(g, u, v, &p));
            assert_eq!(walked, want, "{family}: path({u},{v}) weight");
        }
        let path_sum = |p: &Option<Vec<VertexId>>| -> u64 {
            match p {
                None => u64::MAX,
                Some(p) => p
                    .iter()
                    .fold(p.len() as u64, |acc, &v| acc.wrapping_mul(31) + v as u64),
            }
        };
        let mut samples = vec![0.0; pairs.len()];
        let sum = min_over_reps(&mut samples, |samples| {
            let mut h = 0xcbf29ce484222325u64;
            for (pi, &(u, v)) in pairs.iter().enumerate() {
                let t0 = Instant::now();
                let p = q.path(g, u, v);
                samples[pi] = samples[pi].min(t0.elapsed().as_nanos() as f64);
                fnv_fold(&mut h, path_sum(&p));
            }
            h
        });
        cells.push(Cell::new("path".into(), &mut samples, pairs.len(), sum));
    }

    FamilyRun {
        family,
        vertices: g.n() as u64,
        edges: g.m() as u64,
        blocks: plan.n_blocks() as u64,
        cells,
    }
}

fn write_json(path: &str, opts: &Opts, runs: &[FamilyRun]) {
    let mut rep = ear_bench::report::Report::new("query_throughput");
    rep.params()
        .uint("seed", opts.seed)
        .uint("queries", opts.queries as u64)
        .uint("blocks", opts.blocks as u64)
        .flag("smoke", opts.smoke);
    use ear_bench::report::Direction::{Higher, Lower};
    rep.column("p50_ns", Lower)
        .column("p99_ns", Lower)
        .column("qps", Higher);
    let mut worst_p2p = 0.0f64;
    for run in runs {
        for c in &run.cells {
            let tag = format!("{}@{}", run.family, c.variant);
            rep.family(&tag, c.checksum, c.queries)
                .uint("vertices", run.vertices)
                .uint("edges", run.edges)
                .uint("blocks", run.blocks)
                .text("variant", &c.variant)
                .uint("queries", c.queries)
                .num("p50_ns", c.p50, 1)
                .num("p99_ns", c.p99, 1)
                .num("qps", c.qps, 0);
            if c.variant.starts_with("p2p") {
                worst_p2p = worst_p2p.max(c.p50);
            }
        }
    }
    rep.summary().num("worst_p2p_p50_ns", worst_p2p, 1);
    rep.write(path);
}

fn main() {
    let opts = parse_args();
    opts.obs.init();
    let (blocks, block_n, queries, paths, extra_scale) = if opts.smoke {
        (8, 20, 4_096, 64, 8)
    } else {
        (opts.blocks, 48, opts.queries, 2_000, 1)
    };
    let cond_mat = table1_specs()
        .into_iter()
        .find(|s| s.name == "cond_mat_2003")
        .expect("cond_mat_2003 is a Table-1 spec");

    let families = [
        (
            "mesh_chain",
            chain_of_blocks(blocks, opts.seed, |s| {
                triangulated_grid(6, (block_n / 6).max(2), s)
            }),
        ),
        (
            "sw_chain",
            chain_of_blocks(blocks, opts.seed ^ 0x51, |s| small_world(block_n, 4, 10, s)),
        ),
        (
            "mixed_chain",
            chain_of_blocks(blocks, opts.seed ^ 0xa2, |s| {
                if s & (1 << 40) == 0 {
                    triangulated_grid(4, (block_n / 4).max(2), s)
                } else {
                    small_world(block_n / 2, 4, 20, s)
                }
            }),
        ),
        (
            "cond_mat_2003",
            cond_mat.build(ear_bench::base_scale(&cond_mat) * extra_scale, opts.seed),
        ),
    ];

    let mut table = ear_bench::Table::new(&["family", "variant", "p50", "p99", "qps"]);
    let mut runs = Vec::new();
    for (family, g) in &families {
        let run = bench_family(family, g, queries, paths, opts.seed);
        for c in &run.cells {
            table.row(vec![
                family.to_string(),
                c.variant.clone(),
                format!("{:.0} ns", c.p50),
                format!("{:.0} ns", c.p99),
                format!("{:.2}M", c.qps / 1e6),
            ]);
        }
        runs.push(run);
    }
    table.print();
    write_json(&opts.out, &opts, &runs);
    opts.obs.finish();
}
