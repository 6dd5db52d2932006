//! One benchmark run: set up the inputs, drive the pipeline through its
//! default public entry points, time each call from outside, and gate
//! every answer.
//!
//! A pass repeats a cycle of three stages until the run's time budget is
//! spent, at least [`MIN_CYCLES`] times:
//!
//! 1. **build**: a cold build, edge-list file → ready `QueryEngine`,
//!    followed by a closed loop of queries on the fresh engine;
//! 2. **refresh**: rounds of one clustered weight update → recustomized
//!    plan, oracle and engine, each followed by queries;
//! 3. **mcb**: `DecompPlan::build` + `mcb_with_plan` on the MCB instance.
//!
//! An untraced run makes one pass over the whole budget without the MCB
//! stage, which no end-to-end metric reads. A traced run makes an untraced
//! pass and then a traced pass, each over half of it: the first gives the
//! per-layer call times, `mcb_s` among them, the second the span-derived
//! numbers and the tracing overhead.

use std::collections::BTreeMap;
use std::error::Error;
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ear_apsp::{build_oracle_with_plan, ApspMethod, DistanceOracle, QueryEngine};
use ear_decomp::plan::DecompPlan;
use ear_graph::{io::read_edge_list, CsrGraph, VertexId, Weight};
use ear_hetero::HeteroExecutor;
use ear_mcb::{mcb, mcb_with_plan, McbConfig, McbResult};

use crate::attr::{attribute, Attribution, LAYERS};
use crate::gate::{check_mcb, check_pairs, check_sources, Tally};
use crate::workload::{
    clustered_update, fnv1a, generate, query_pairs, splitmix, write_inputs, EdgeLists, Size,
    Workload, FNV_OFFSET,
};
use crate::{median, quantile, unit_of};

/// What to run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload.
    pub workload: Workload,
    /// Input size.
    pub size: Size,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time budget.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Directory for the edge lists and exported traces.
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug)]
pub struct Outcome {
    /// Checked operations, mismatches and the first failure notes.
    pub tally: Tally,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Structural context and run settings, printed beside the metrics.
    pub context: BTreeMap<&'static str, String>,
}

/// Cycles per pass at least, so every median has samples behind it.
const MIN_CYCLES: usize = 3;
/// Setup repetitions: `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Queries per timed chunk.
const CHUNK: usize = 64;
/// Sources whose full distance rows are checked per gated state.
const GATE_SOURCES: usize = 4;
/// Timed-stream pairs re-checked against Dijkstra per gated state.
const GATE_STREAM_PAIRS: usize = 4;
/// Refresh rounds gated against Dijkstra: every `GATE_EVERY`-th of a
/// cycle, and its last. When a cycle chains several rounds, its last is
/// also compared against a cold rebuild; a single round on the Table-1
/// analogs recomputes the big block anyway, and Dijkstra gates it.
const GATE_EVERY: usize = 16;
/// Largest share by which the layers' self times, summed over a traced
/// pass, may miss the summed traced totals of a stage kind.
const ATTRIBUTION_TOLERANCE: f64 = 0.10;

/// A served state: the plan, oracle and engine answering queries.
struct Served {
    plan: Arc<DecompPlan>,
    oracle: DistanceOracle,
    engine: QueryEngine,
}

/// Wall times of one pass, seconds unless named `_ms` / `_ns`.
#[derive(Default)]
struct Pass {
    build: Vec<f64>,
    ingest: Vec<f64>,
    plan: Vec<f64>,
    oracle: Vec<f64>,
    engine: Vec<f64>,
    query_ns: Vec<f64>,
    refresh_ms: Vec<f64>,
    rc_plan_ms: Vec<f64>,
    rc_oracle_ms: Vec<f64>,
    rc_engine_ms: Vec<f64>,
    dirty_blocks: Vec<f64>,
    mcb: Vec<f64>,
    /// Time the correctness gate took, outside every timed region.
    gate_s: f64,
    /// Counts and modelled times of the first build and first MCB.
    counts: BTreeMap<&'static str, f64>,
    context: BTreeMap<&'static str, String>,
}

/// One traced stage: the time measured around it and its trace.
struct Stage {
    measured_s: f64,
    attr: Attribution,
    counters: BTreeMap<&'static str, u64>,
}

/// Counters read back from each traced stage.
const STAGE_COUNTERS: [&str; 5] = [
    "sssp.edges_relaxed",
    "mcb.phases",
    "mcb.words_xored",
    "queue.units.front",
    "queue.units.back",
];

/// Traced stages by kind (`build`, `refresh`, `mcb`).
#[derive(Default)]
struct TraceLog {
    stages: BTreeMap<&'static str, Vec<Stage>>,
}

/// Runs `f` as one stage. With a trace log, collection is on only for the
/// stage itself (the gate and the query loop stay untraced), and the
/// stage's spans and counters are drained into the log; the first stage
/// of each kind is also exported as a Chrome trace and an
/// `ear-metrics/v1` snapshot.
fn stage<R>(
    log: Option<&mut TraceLog>,
    kind: &'static str,
    cfg: &Config,
    tally: &mut Tally,
    f: impl FnOnce() -> Result<(R, f64), Box<dyn Error>>,
) -> Result<(R, f64), Box<dyn Error>> {
    let Some(log) = log else {
        return f();
    };
    ear_obs::reset();
    ear_obs::enable();
    let out = f();
    ear_obs::disable();
    let (r, measured_s) = out?;
    let trace = ear_obs::trace_snapshot();
    let metrics = ear_obs::metrics_snapshot();
    ear_obs::reset();
    let root = root_span(kind);
    let attr = attribute(&trace, root).ok_or("traced stage lost its root span")?;
    tally.check(attr.dropped == 0, || {
        format!("{kind} trace overflowed: {} events dropped", attr.dropped)
    });
    let runs = log.stages.entry(kind).or_default();
    if runs.is_empty() {
        let base = format!("{}.{kind}", cfg.workload.name());
        let json = ear_obs::chrome_trace_json(&trace);
        let valid = ear_obs::validate_chrome_trace(&json);
        tally.check(valid.is_ok(), || format!("{kind} trace invalid: {valid:?}"));
        std::fs::write(cfg.work_dir.join(format!("{base}.trace.json")), json)?;
        std::fs::write(
            cfg.work_dir.join(format!("{base}.metrics.json")),
            ear_obs::metrics_json(&metrics),
        )?;
    }
    runs.push(Stage {
        measured_s,
        attr,
        counters: STAGE_COUNTERS
            .iter()
            .map(|&c| (c, metrics.counter(c)))
            .collect(),
    });
    Ok((r, measured_s))
}

fn root_span(kind: &str) -> &'static str {
    match kind {
        "build" => "e2e.root.build",
        "refresh" => "e2e.root.refresh",
        _ => "e2e.root.mcb",
    }
}

fn ingest(path: &Path) -> Result<CsrGraph, Box<dyn Error>> {
    Ok(read_edge_list(BufReader::new(File::open(path)?), 0)?)
}

/// Edge-list file → ready `QueryEngine`, each call timed and spanned.
fn cold_build(
    path: &Path,
    exec: &HeteroExecutor,
    id: u64,
) -> Result<(CsrGraph, Served, [f64; 4]), Box<dyn Error>> {
    let _root = ear_obs::span_with("e2e.root.build", id);
    let t0 = Instant::now();
    let g = {
        let _s = ear_obs::span_with("e2e.graph.ingest", id);
        ingest(path)?
    };
    let t1 = Instant::now();
    let plan = {
        let _s = ear_obs::span_with("e2e.decomp.plan", id);
        Arc::new(DecompPlan::build(&g))
    };
    let t2 = Instant::now();
    let oracle = {
        let _s = ear_obs::span_with("e2e.apsp.oracle", id);
        build_oracle_with_plan(Arc::clone(&plan), exec, ApspMethod::Ear)
    };
    let t3 = Instant::now();
    let engine = {
        let _s = ear_obs::span_with("e2e.query.engine", id);
        QueryEngine::new(&oracle)
    };
    let t4 = Instant::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok((
        g,
        Served {
            plan,
            oracle,
            engine,
        },
        [secs(t0, t1), secs(t1, t2), secs(t2, t3), secs(t3, t4)],
    ))
}

/// One weight update → refreshed plan, oracle and engine, ready to answer.
fn refresh(s: &Served, weights: &[Weight], exec: &HeteroExecutor, id: u64) -> (Served, [f64; 3]) {
    let _root = ear_obs::span_with("e2e.root.refresh", id);
    let t0 = Instant::now();
    let plan = {
        let _s = ear_obs::span_with("e2e.decomp.recustomize", id);
        Arc::new(s.plan.recustomized(weights))
    };
    let t1 = Instant::now();
    let oracle = {
        let _s = ear_obs::span_with("e2e.apsp.recustomize", id);
        s.oracle.recustomized(Arc::clone(&plan), exec)
    };
    let t2 = Instant::now();
    let engine = {
        let _s = ear_obs::span_with("e2e.query.recustomize", id);
        s.engine.recustomized(&oracle)
    };
    let t3 = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    (
        Served {
            plan,
            oracle,
            engine,
        },
        [ms(t0, t1), ms(t1, t2), ms(t2, t3)],
    )
}

/// `DecompPlan::build` + `mcb_with_plan` with the default configuration.
fn mcb_run(g: &CsrGraph, id: u64) -> (DecompPlan, McbResult, f64) {
    let _root = ear_obs::span_with("e2e.root.mcb", id);
    let t0 = Instant::now();
    let plan = {
        let _s = ear_obs::span_with("e2e.decomp.mcb_plan", id);
        DecompPlan::build(g)
    };
    let res = {
        let _s = ear_obs::span_with("e2e.mcb.basis", id);
        mcb_with_plan(g, &plan, &McbConfig::default())
    };
    let dt = t0.elapsed().as_secs_f64();
    (plan, res, dt)
}

/// Closed loop, one caller: scalar `dist` over `pairs`, timed per chunk.
fn serve(
    engine: &QueryEngine,
    pairs: &[(VertexId, VertexId)],
    answers: &mut Vec<Weight>,
) -> Vec<f64> {
    answers.clear();
    let mut ns = Vec::with_capacity(pairs.len().div_ceil(CHUNK));
    for chunk in pairs.chunks(CHUNK) {
        let t = Instant::now();
        for &(u, v) in chunk {
            answers.push(black_box(engine.dist(black_box(u), black_box(v))));
        }
        ns.push(t.elapsed().as_nanos() as f64 / chunk.len() as f64);
    }
    ns
}

/// Gates one served state against Dijkstra on `g`: full rows from the
/// fixed sources through both the engine and the oracle, plus a spread
/// sample of the pairs the timed stream answered.
fn gate_state(
    tally: &mut Tally,
    g: &CsrGraph,
    s: &Served,
    sources: &[VertexId],
    pairs: &[(VertexId, VertexId)],
    answers: &[Weight],
) {
    check_sources(tally, g, sources, "engine", |u, v| s.engine.dist(u, v));
    check_sources(tally, g, sources, "oracle", |u, v| s.oracle.dist(u, v));
    let step = (pairs.len() / GATE_STREAM_PAIRS).max(1);
    let sampled: Vec<_> = (0..pairs.len())
        .step_by(step)
        .map(|i| (pairs[i].0, pairs[i].1, answers[i]))
        .collect();
    check_pairs(tally, g, &sampled, "stream");
}

/// Gates a refreshed state against a cold rebuild on the reweighted graph.
fn gate_cold(
    tally: &mut Tally,
    g: &CsrGraph,
    s: &Served,
    exec: &HeteroExecutor,
    sources: &[VertexId],
    pairs: &[(VertexId, VertexId)],
    answers: &[Weight],
) {
    let oracle = build_oracle_with_plan(Arc::new(DecompPlan::build(g)), exec, ApspMethod::Ear);
    let cold = QueryEngine::new(&oracle);
    for (&(u, v), &got) in pairs.iter().zip(answers) {
        let d = cold.dist(u, v);
        tally.check(got == d, || {
            format!("refresh vs cold: d({u},{v}) = {got}, cold {d}")
        });
    }
    for &u in sources {
        for v in 0..g.n() as VertexId {
            let (got, d) = (s.engine.dist(u, v), cold.dist(u, v));
            tally.check(got == d, || {
                format!("refresh vs cold: d({u},{v}) = {got}, cold {d}")
            });
        }
    }
}

/// One pass over the three phases.
/// The MCB instance and its reference weight.
struct McbInstance {
    g: CsrGraph,
    reference: Weight,
    reference_s: f64,
}

/// One pass: cycles of one cold build, a few refresh rounds chained from
/// it and one MCB run (skipped when `mcb` is `None`), until the budget is
/// spent and at least [`MIN_CYCLES`] cycles ran. Interleaving the stages
/// spreads each one's samples over the whole pass, so a burst of host
/// contention slows one sample of each kind rather than all of one kind.
fn pass(
    cfg: &Config,
    files: &EdgeLists,
    mcb: Option<&McbInstance>,
    budget_s: f64,
    tally: &mut Tally,
    mut log: Option<&mut TraceLog>,
) -> Result<Pass, Box<dyn Error>> {
    let id = fnv1a(FNV_OFFSET, cfg.workload.name().as_bytes()) ^ cfg.seed;
    let exec = HeteroExecutor::cpu_gpu();
    let mut rng = cfg.seed ^ 0x5eed_0e2e;
    let per_state = cfg.workload.queries_per_state(cfg.size);
    let rounds = cfg.workload.rounds_per_build(cfg.size);
    let mut p = Pass::default();
    let mut answers = Vec::with_capacity(per_state);
    let mut sources = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(budget_s);
    let mut cycles = 0;
    while cycles < MIN_CYCLES || start.elapsed() < budget {
        cycles += 1;

        // Cold build, then queries on the fresh engine.
        let ((g, mut served, t), total) = stage(log.as_deref_mut(), "build", cfg, tally, || {
            let t0 = Instant::now();
            let r = cold_build(&files.apsp, &exec, id)?;
            Ok((r, t0.elapsed().as_secs_f64()))
        })?;
        p.build.push(total);
        for (v, x) in [&mut p.ingest, &mut p.plan, &mut p.oracle, &mut p.engine]
            .into_iter()
            .zip(t)
        {
            v.push(x);
        }
        if sources.is_empty() {
            sources = (0..GATE_SOURCES)
                .map(|_| (splitmix(&mut rng) % g.n() as u64) as VertexId)
                .collect();
            record_build_counts(&mut p, &g, &served);
        }
        let pairs = query_pairs(g.n(), per_state, &mut rng);
        p.query_ns
            .extend(serve(&served.engine, &pairs, &mut answers));
        let t = Instant::now();
        gate_state(tally, &g, &served, &sources, &pairs, &answers);
        p.gate_s += t.elapsed().as_secs_f64();

        // Reweight while serving: update, refresh, queries.
        let mut weights = served.plan.edge_weights().to_vec();
        for r in 0..rounds {
            weights = clustered_update(&weights, &mut rng);
            let ((next, t), total) = stage(log.as_deref_mut(), "refresh", cfg, tally, || {
                let t0 = Instant::now();
                let r = refresh(&served, &weights, &exec, id);
                Ok((r, t0.elapsed().as_secs_f64()))
            })?;
            p.refresh_ms.push(total * 1e3);
            for (v, x) in [&mut p.rc_plan_ms, &mut p.rc_oracle_ms, &mut p.rc_engine_ms]
                .into_iter()
                .zip(t)
            {
                v.push(x);
            }
            p.dirty_blocks.push(next.plan.dirty_blocks().len() as f64);
            drop(std::mem::replace(&mut served, next));
            let pairs = query_pairs(g.n(), per_state, &mut rng);
            p.query_ns
                .extend(serve(&served.engine, &pairs, &mut answers));
            if r % GATE_EVERY == 0 || r + 1 == rounds {
                let t = Instant::now();
                let gw = g.reweighted(&weights);
                gate_state(tally, &gw, &served, &sources, &pairs, &answers);
                if rounds > 1 && r + 1 == rounds {
                    gate_cold(tally, &gw, &served, &exec, &sources, &pairs, &answers);
                }
                p.gate_s += t.elapsed().as_secs_f64();
            }
        }
        drop(served);

        // Minimum cycle basis on the MCB instance.
        let Some(McbInstance {
            g: gm, reference, ..
        }) = mcb
        else {
            continue;
        };
        let ((plan, res), total) = stage(log.as_deref_mut(), "mcb", cfg, tally, || {
            let (plan, res, dt) = mcb_run(gm, id);
            Ok(((plan, res), dt))
        })?;
        p.mcb.push(total);
        let t = Instant::now();
        check_mcb(tally, gm, &res, *reference);
        p.gate_s += t.elapsed().as_secs_f64();
        if p.mcb.len() == 1 {
            record_mcb_counts(&mut p, gm, &plan, &res);
        }
    }
    Ok(p)
}

fn record_build_counts(p: &mut Pass, g: &CsrGraph, s: &Served) {
    let plan = &s.plan;
    let st = s.oracle.stats();
    let a = st.articulation_points as u64;
    let n = g.n() as u64;
    let largest = plan.blocks().iter().map(|b| b.n()).max().unwrap_or(0);
    for (k, v) in [
        ("decomp.blocks", plan.n_blocks() as f64),
        ("decomp.removed_vertices", plan.removed_vertices() as f64),
        ("decomp.arena_bytes", plan.arena_bytes() as f64),
        ("apsp.table_bytes", (st.table_entries * 8) as f64),
        ("query.arena_bytes", (s.engine.arena_entries() * 8) as f64),
        ("query.gateway_records", s.engine.gateway_records() as f64),
        ("hetero.apsp_modelled_s", s.oracle.modelled_time_s()),
    ] {
        p.counts.insert(k, v);
    }
    for (k, v) in [
        ("apsp.n", n.to_string()),
        ("apsp.m", g.m().to_string()),
        ("apsp.bccs", st.n_bccs.to_string()),
        ("apsp.a", a.to_string()),
        ("apsp.removed_share", format!("{:.4}", st.removed_share())),
        ("apsp.largest_block_n", largest.to_string()),
        (
            "apsp.largest_block_edges",
            plan.largest_block_edges().to_string(),
        ),
        ("apsp.sum_ni2", (st.table_entries - a * a).to_string()),
        ("apsp.a2", (a * a).to_string()),
        ("apsp.n2", st.max_entries.to_string()),
    ] {
        p.context.insert(k, v);
    }
}

fn record_mcb_counts(p: &mut Pass, g: &CsrGraph, plan: &DecompPlan, res: &McbResult) {
    p.counts.insert("mcb.dim", res.dim as f64);
    p.counts
        .insert("hetero.mcb_modelled_s", res.modelled_time_s());
    for (k, v) in [
        ("mcb.n", g.n().to_string()),
        ("mcb.m", g.m().to_string()),
        ("mcb.bccs", plan.n_blocks().to_string()),
        ("mcb.dim", res.dim.to_string()),
        (
            "mcb.removed_share",
            format!("{:.4}", res.removed_vertices as f64 / g.n().max(1) as f64),
        ),
        (
            "mcb.largest_block_edges",
            plan.largest_block_edges().to_string(),
        ),
    ] {
        p.context.insert(k, v);
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs one workload end to end.
pub fn run(cfg: &Config) -> Result<Outcome, Box<dyn Error>> {
    std::fs::create_dir_all(&cfg.work_dir)?;
    let tag = format!("{}-{}", cfg.workload.name(), cfg.seed);
    let mut setup = Vec::new();
    let mut files = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let inputs = generate(cfg.workload, cfg.size, cfg.seed);
        let lists = write_inputs(&inputs, &cfg.work_dir, &tag)?;
        setup.push(t0.elapsed().as_secs_f64());
        files = Some(lists);
    }
    let files = files.expect("SETUP_REPS > 0");

    let mut tally = Tally::default();
    let result = if cfg.trace {
        mcb_instance(&files.mcb).and_then(|inst| measure_traced(cfg, &files, &inst, &mut tally))
    } else {
        measure(cfg, &files, &setup, &mut tally)
    };
    for f in [&files.apsp, &files.mcb] {
        let _ = std::fs::remove_file(f);
    }
    let (metrics, mut context) = result?;
    context.insert("edge_list_checksum", format!("{:016x}", files.checksum));
    Ok(Outcome {
        tally,
        metrics,
        context,
    })
}

/// Reads the MCB instance and computes its reference weight without ear
/// reduction (equal by Lemma 3.1), outside every timed region.
fn mcb_instance(path: &Path) -> Result<McbInstance, Box<dyn Error>> {
    let g = ingest(path)?;
    let config = McbConfig {
        use_ear: false,
        ..McbConfig::default()
    };
    let t = Instant::now();
    let reference = mcb(&g, &config).total_weight;
    Ok(McbInstance {
        g,
        reference,
        reference_s: t.elapsed().as_secs_f64(),
    })
}

type Measured = (Vec<Metric>, BTreeMap<&'static str, String>);

fn metric(name: &'static str, value: f64) -> Metric {
    Metric {
        name,
        value,
        unit: unit_of(name),
    }
}

fn measure(
    cfg: &Config,
    files: &EdgeLists,
    setup: &[f64],
    tally: &mut Tally,
) -> Result<Measured, Box<dyn Error>> {
    let p = pass(cfg, files, None, cfg.seconds, tally, None)?;
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let mut context = p.context;
    context.insert("samples.build", p.build.len().to_string());
    context.insert("samples.query_chunks", p.query_ns.len().to_string());
    context.insert("samples.refresh", p.refresh_ms.len().to_string());
    context.insert("gate_s", format!("{:.3}", p.gate_s));
    Ok((
        vec![
            metric("setup_s", median(setup)),
            metric("build_s", median(&p.build)),
            metric("query_ns_p50", median(&p.query_ns)),
            metric("refresh_ms_p50", median(&p.refresh_ms)),
            metric("peak_rss_mb", rss),
        ],
        context,
    ))
}

fn measure_traced(
    cfg: &Config,
    files: &EdgeLists,
    inst: &McbInstance,
    tally: &mut Tally,
) -> Result<Measured, Box<dyn Error>> {
    let plain = pass(cfg, files, Some(inst), cfg.seconds / 2.0, tally, None)?;
    let mut log = TraceLog::default();
    let traced = pass(
        cfg,
        files,
        Some(inst),
        cfg.seconds / 2.0,
        tally,
        Some(&mut log),
    )?;

    let stages = |kind: &str| log.stages.get(kind).map(Vec::as_slice).unwrap_or(&[]);
    let span = |kind: &str, name: &str| {
        let xs: Vec<f64> = stages(kind)
            .iter()
            .map(|s| s.attr.span_s.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&xs)
    };
    let counter = |kind: &str, name: &str| {
        let xs: Vec<f64> = stages(kind)
            .iter()
            .map(|s| s.counters[name] as f64)
            .collect();
        median(&xs)
    };
    let count = |name: &str| plain.counts.get(name).copied().unwrap_or(0.0);
    let (front, back) = log
        .stages
        .values()
        .flatten()
        .fold((0u64, 0u64), |(f, b), s| {
            (
                f + s.counters["queue.units.front"],
                b + s.counters["queue.units.back"],
            )
        });

    let mut m = vec![
        metric("query_ns_p99", quantile(&plain.query_ns, 0.99)),
        metric("refresh_ms_p99", quantile(&plain.refresh_ms, 0.99)),
        metric("mcb_s", median(&plain.mcb)),
        metric("graph.ingest_s", median(&plain.ingest)),
        metric(
            "graph.sssp.edges_relaxed",
            counter("build", "sssp.edges_relaxed"),
        ),
        metric("decomp.plan_s", median(&plain.plan)),
        metric("decomp.bcc_s", span("build", "decomp.bcc")),
        metric("decomp.bct_s", span("build", "decomp.bct")),
        metric("decomp.extract_s", span("build", "decomp.extract")),
        metric("decomp.reduce_s", span("build", "decomp.reduce")),
        metric("decomp.blocks", count("decomp.blocks")),
        metric("decomp.removed_vertices", count("decomp.removed_vertices")),
        metric("decomp.arena_bytes", count("decomp.arena_bytes")),
        metric("decomp.recustomize_ms_p50", median(&plain.rc_plan_ms)),
        metric(
            "decomp.dirty_blocks_per_update",
            median(&plain.dirty_blocks),
        ),
        metric("apsp.oracle_s", median(&plain.oracle)),
        metric("apsp.phase2_s", span("build", "apsp.phase2")),
        metric("apsp.phase3_s", span("build", "apsp.phase3")),
        metric("apsp.ap_table_s", span("build", "apsp.ap_table")),
        metric("apsp.table_bytes", count("apsp.table_bytes")),
        metric("apsp.refresh_ms_p50", median(&plain.rc_oracle_ms)),
        metric("query.engine_build_s", median(&plain.engine)),
        metric("query.arena_bytes", count("query.arena_bytes")),
        metric("query.gateway_records", count("query.gateway_records")),
        metric("query.refresh_ms_p50", median(&plain.rc_engine_ms)),
        metric("mcb.candidates_s", span("mcb", "mcb.candidates")),
        metric("mcb.phases_s", span("mcb", "mcb.phase")),
        metric("mcb.phases", counter("mcb", "mcb.phases")),
        metric("mcb.dim", count("mcb.dim")),
        metric("mcb.words_xored", counter("mcb", "mcb.words_xored")),
        metric("hetero.apsp_modelled_s", count("hetero.apsp_modelled_s")),
        metric("hetero.mcb_modelled_s", count("hetero.mcb_modelled_s")),
        metric(
            "hetero.gpu_unit_share",
            front as f64 / (front + back).max(1) as f64,
        ),
        metric(
            "obs.overhead_frac",
            median(&traced.build) / median(&plain.build) - 1.0,
        ),
    ];
    for (kind, names, residual) in [
        ("build", &SELF_BUILD, "attr.build.residual_frac"),
        ("refresh", &SELF_REFRESH, "attr.refresh.residual_frac"),
        ("mcb", &SELF_MCB, "attr.mcb.residual_frac"),
    ] {
        for (l, &name) in names.iter().enumerate() {
            let xs: Vec<f64> = stages(kind).iter().map(|s| s.attr.self_s[l]).collect();
            m.push(metric(name, median(&xs)));
        }
        let measured: f64 = stages(kind).iter().map(|s| s.measured_s).sum();
        let covered: f64 = stages(kind)
            .iter()
            .map(|s| s.attr.self_s.iter().sum::<f64>())
            .sum();
        let share = 1.0 - covered / measured;
        tally.check(share.abs() <= ATTRIBUTION_TOLERANCE, || {
            format!("{kind}: layer self times miss the traced total by {share:.4}")
        });
        m.push(metric(residual, share));
    }
    let mut context = plain.context;
    let gate_s = plain.gate_s + traced.gate_s + inst.reference_s;
    context.insert("gate_s", format!("{gate_s:.3}"));
    context.insert("samples.traced_build", stages("build").len().to_string());
    context.insert(
        "samples.traced_refresh",
        stages("refresh").len().to_string(),
    );
    context.insert("samples.traced_mcb", stages("mcb").len().to_string());
    Ok((m, context))
}

/// Per-layer self-time metric names, aligned with [`LAYERS`].
const SELF_BUILD: [&str; LAYERS.len()] = [
    "self.build.graph_s",
    "self.build.decomp_s",
    "self.build.apsp_s",
    "self.build.query_s",
    "self.build.mcb_s",
    "self.build.hetero_s",
];
const SELF_REFRESH: [&str; LAYERS.len()] = [
    "self.refresh.graph_s",
    "self.refresh.decomp_s",
    "self.refresh.apsp_s",
    "self.refresh.query_s",
    "self.refresh.mcb_s",
    "self.refresh.hetero_s",
];
const SELF_MCB: [&str; LAYERS.len()] = [
    "self.mcb.graph_s",
    "self.mcb.decomp_s",
    "self.mcb.apsp_s",
    "self.mcb.query_s",
    "self.mcb.mcb_s",
    "self.mcb.hetero_s",
];
