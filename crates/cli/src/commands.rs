//! Subcommand implementations.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use ear_apsp::{
    build_oracle_with_plan, entry_bytes, stored_entries, ApspMethod, DistanceOracle, QueryEngine,
};
use ear_decomp::{ear_decomposition, DecompPlan};
use ear_graph::rng::{TestRng, GOLDEN_GAMMA};
use ear_graph::{kernel_path, CsrGraph, Weight, INF};
use ear_mcb::{mcb_with_plan, verify_basis, McbResult};
use ear_workloads::specs::all_specs;
use ear_workloads::GraphStats;

use crate::{CliError, CommonOpts};

/// `ear stats` — the Table 1 columns for an arbitrary graph, and what its
/// distance tables store: entries, width and bytes.
pub fn stats(out: &mut dyn Write, g: &CsrGraph) -> Result<(), CliError> {
    Ok(print_stats(out, &DecompPlan::build(g))?)
}

fn print_stats(out: &mut dyn Write, plan: &DecompPlan) -> std::io::Result<()> {
    let s = GraphStats::from_plan(plan);
    let bound = plan.distance_bound();
    let (stored, bytes) = (stored_entries(plan, ApspMethod::Ear), entry_bytes(bound));
    writeln!(out, "row kernels           {}", kernel_path())?;
    writeln!(out, "vertices              {}", s.n)?;
    writeln!(out, "edges                 {}", s.m)?;
    writeln!(out, "biconnected comps     {}", s.n_bccs)?;
    writeln!(
        out,
        "largest BCC           {:.2}% of edges",
        s.largest_bcc_pct()
    )?;
    writeln!(out, "articulation points   {}", s.articulation_points)?;
    writeln!(
        out,
        "degree-2 removable    {} ({:.2}% of vertices)",
        s.removed,
        s.removed_pct()
    )?;
    writeln!(
        out,
        "table memory          {:.1} MB (blocks + AP table, 4-byte entries)",
        s.ours_memory_mb()
    )?;
    writeln!(
        out,
        "stored table          {stored} entries at u{}, {:.1} MB",
        8 * bytes,
        (stored * bytes) as f64 / (1024.0 * 1024.0)
    )?;
    writeln!(
        out,
        "reduced-table memory  {:.1} MB (on-demand extension variant)",
        s.reduced_memory_mb()
    )?;
    writeln!(out, "flat n^2 memory       {:.1} MB", s.max_memory_mb())?;
    writeln!(
        out,
        "table width           u{} (distance bound {bound})",
        8 * entry_bytes(bound)
    )?;
    Ok(())
}

/// `ear decompose` — blocks, articulation points, per-block ears and
/// reduction summary, all read off one [`DecompPlan`].
pub fn decompose(out: &mut dyn Write, g: &CsrGraph) -> Result<(), CliError> {
    Ok(print_decomposition(out, &DecompPlan::build(g))?)
}

fn print_decomposition(out: &mut dyn Write, plan: &DecompPlan) -> std::io::Result<()> {
    writeln!(
        out,
        "{} biconnected components, {} articulation points",
        plan.n_blocks(),
        plan.bct().ap_count()
    )?;
    for (rank, b) in plan.blocks_by_size_desc().into_iter().take(10).enumerate() {
        let bp = plan.block(b as u32);
        write!(out, "  block {rank}: {} vertices, {} edges", bp.n(), bp.m())?;
        if bp.m() >= bp.n() && bp.reduction.is_some() {
            // Ear decomposition wants an owned graph: materialize the
            // block (a print-path copy only).
            let sub = plan.block_graph(b as u32).materialize();
            match ear_decomposition(&sub) {
                Ok(d) => write!(out, ", {} ears", d.ears.len())?,
                Err(e) => write!(out, ", no open ear decomposition ({e})")?,
            }
            if let Some(r) = &bp.reduction {
                write!(
                    out,
                    ", reduction {} -> {} vertices ({} chains)",
                    bp.n(),
                    r.reduced.n(),
                    r.chains.len()
                )?;
            }
        }
        writeln!(out)?;
    }
    if plan.n_blocks() > 10 {
        writeln!(out, "  ... {} more blocks", plan.n_blocks() - 10)?;
    }
    writeln!(out, "bridges: {}", plan.bridges().len())?;
    Ok(())
}

/// `ear combined` — stats + decomposition + APSP + MCB off a single
/// [`DecompPlan`]: the graph is decomposed (BCC split, block-cut tree,
/// per-block subgraphs and reductions) exactly once and the plan is
/// shared by every stage.
pub fn combined(
    out: &mut dyn Write,
    g: &CsrGraph,
    opts: &CommonOpts,
    pairs: &[(u32, u32)],
) -> Result<(), CliError> {
    let obs = opts.begin_obs("cli.combined")?;
    let plan = Arc::new(DecompPlan::build(g));

    writeln!(out, "== stats ==")?;
    print_stats(out, &plan)?;

    writeln!(out, "== decomposition ==")?;
    print_decomposition(out, &plan)?;

    writeln!(out, "== apsp ==")?;
    let oracle = build_oracle_with_plan(Arc::clone(&plan), &opts.mode.executor(), opts.method());
    report_apsp(out, g, &oracle, pairs)?;

    writeln!(out, "== mcb ==")?;
    if g.is_simple() {
        report_mcb(out, g, &mcb_with_plan(g, &plan, &opts.mcb_config()), false)?;
    } else {
        writeln!(out, "skipped: mcb expects a simple graph")?;
    }
    obs.finish(out)
}

/// `ear apsp` — build the oracle, report stats, answer queries.
pub fn apsp(
    out: &mut dyn Write,
    g: &CsrGraph,
    opts: &CommonOpts,
    pairs: &[(u32, u32)],
) -> Result<(), CliError> {
    let obs = opts.begin_obs("cli.apsp")?;
    let plan = Arc::new(DecompPlan::build(g));
    let oracle = build_oracle_with_plan(plan, &opts.mode.executor(), opts.method());
    report_apsp(out, g, &oracle, pairs)?;
    obs.finish(out)
}

fn report_apsp(
    out: &mut dyn Write,
    g: &CsrGraph,
    oracle: &DistanceOracle,
    pairs: &[(u32, u32)],
) -> std::io::Result<()> {
    let st = oracle.stats();
    writeln!(
        out,
        "oracle built: {} blocks, {} APs, {} removed vertices, {} table entries ({} stored) \
         at u{} (bound {}), {} row kernels",
        st.n_bccs,
        st.articulation_points,
        st.removed_vertices,
        st.table_entries,
        oracle.tables().entries(),
        8 * oracle.tables().entry_bytes(),
        st.distance_bound,
        kernel_path()
    )?;
    writeln!(
        out,
        "modelled device time: {:.3} ms",
        oracle.modelled_time_s() * 1e3
    )?;
    for &(u, v) in pairs {
        let d = oracle.dist(u, v);
        if d >= INF {
            writeln!(out, "d({u},{v}) = unreachable")?;
        } else {
            match oracle.path(g, u, v) {
                Some(p) => writeln!(out, "d({u},{v}) = {d}  path {p:?}")?,
                None => writeln!(out, "d({u},{v}) = {d}")?,
            }
        }
    }
    Ok(())
}

/// `ear mcb` — minimum cycle basis with verification.
pub fn mcb(
    out: &mut dyn Write,
    g: &CsrGraph,
    opts: &CommonOpts,
    print_cycles: bool,
    profile: bool,
    profile_json: bool,
) -> Result<(), CliError> {
    if !g.is_simple() {
        return Err("mcb expects a simple graph (parallel edges/self-loops in input)".into());
    }
    let obs = opts.begin_obs("cli.mcb")?;
    let result = mcb_with_plan(g, &DecompPlan::build(g), &opts.mcb_config());
    report_mcb(out, g, &result, print_cycles)?;
    if profile {
        print_mcb_profile(out, &result.profile)?;
    }
    if profile_json {
        writeln!(out, "{}", mcb_profile_json(&result.profile))?;
    }
    obs.finish(out)
}

/// Machine-readable `--profile-json` line, mirroring the human table.
fn mcb_profile_json(p: &ear_mcb::PhaseProfile) -> String {
    let (l, s, u) = p.shares();
    let c = &p.counters;
    format!(
        concat!(
            "{{\"schema\":\"ear-mcb-profile/v1\",",
            "\"trees_s\":{},\"labels_s\":{},\"search_s\":{},\"update_s\":{},",
            "\"total_s\":{},",
            "\"shares\":{{\"labels\":{},\"search\":{},\"update\":{}}},",
            "\"fallbacks\":{},",
            "\"counters\":{{\"labels_computed\":{},\"cycles_inspected\":{},",
            "\"words_xored\":{},\"edges_relaxed\":{},\"vertices_settled\":{}}}}}"
        ),
        p.trees_s,
        p.labels_s,
        p.search_s,
        p.update_s,
        p.total_s(),
        l,
        s,
        u,
        p.fallbacks,
        c.labels_computed,
        c.cycles_inspected,
        c.words_xored,
        c.edges_relaxed,
        c.vertices_settled
    )
}

/// `ear trace-check` — validate a Chrome trace-event file's structure
/// (JSON shape, required keys, per-lane span nesting). CI runs this on
/// traces produced by `--trace-out` so a malformed exporter fails the
/// build instead of silently producing a file Perfetto rejects.
pub fn trace_check(out: &mut dyn Write, path: &str) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let check =
        ear_obs::validate_chrome_trace(&text).map_err(|e| format!("{path}: invalid trace: {e}"))?;
    writeln!(
        out,
        "{path}: ok ({} events, {} lanes, max span depth {}, {} complete events, {} counter events)",
        check.events, check.lanes, check.max_depth, check.complete_events, check.counter_events
    )?;
    Ok(())
}

/// The `--profile` table: modelled makespan per phase step under the
/// selected device mode, with shares over the phase loop (trees are
/// preprocessing and excluded from the share base, matching
/// `PhaseProfile::shares`).
fn print_mcb_profile(out: &mut dyn Write, p: &ear_mcb::PhaseProfile) -> std::io::Result<()> {
    let (l, s, u) = p.shares();
    writeln!(out, "phase profile (modelled):")?;
    writeln!(out, "  {:<10} {:>12} {:>8}", "step", "time (ms)", "share")?;
    writeln!(
        out,
        "  {:<10} {:>12.4} {:>8}",
        "trees",
        p.trees_s * 1e3,
        "-"
    )?;
    for (name, secs, share) in [
        ("labels", p.labels_s, l),
        ("search", p.search_s, s),
        ("update", p.update_s, u),
    ] {
        writeln!(
            out,
            "  {:<10} {:>12.4} {:>7.1}%",
            name,
            secs * 1e3,
            share * 100.0
        )?;
    }
    writeln!(
        out,
        "  total {:.4} ms, {} signed-search fallbacks",
        p.total_s() * 1e3,
        p.fallbacks
    )?;
    let c = &p.counters;
    writeln!(
        out,
        "  counters: {} labels, {} cycles inspected, {} words xored, {} edges relaxed",
        c.labels_computed, c.cycles_inspected, c.words_xored, c.edges_relaxed
    )?;
    Ok(())
}

fn report_mcb(
    out: &mut dyn Write,
    g: &CsrGraph,
    result: &McbResult,
    print_cycles: bool,
) -> Result<(), CliError> {
    verify_basis(g, &result.cycles).map_err(|e| format!("basis verification failed: {e}"))?;
    writeln!(
        out,
        "minimum cycle basis: dimension {}, total weight {}",
        result.dim, result.total_weight
    )?;
    writeln!(
        out,
        "ear reduction removed {} vertices; modelled device time {:.3} ms",
        result.removed_vertices,
        result.modelled_time_s() * 1e3
    )?;
    let (l, s, u) = result.profile.shares();
    writeln!(
        out,
        "phase shares: labels {:.0}% search {:.0}% update {:.0}%",
        l * 100.0,
        s * 100.0,
        u * 100.0
    )?;
    if print_cycles {
        for (i, c) in result.cycles.iter().enumerate() {
            writeln!(out, "cycle {i}: weight {} edges {:?}", c.weight, c.edges)?;
        }
    } else {
        let mut sizes: Vec<usize> = result.cycles.iter().map(|c| c.edges.len()).collect();
        sizes.sort_unstable();
        writeln!(out, "cycle lengths: {sizes:?}")?;
    }
    Ok(())
}

/// `ear bc` — betweenness centrality (pendant-reduced), top-K report.
pub fn bc(out: &mut dyn Write, g: &CsrGraph, top: usize) -> Result<(), CliError> {
    if !g.is_simple() {
        return Err("bc expects a simple graph".into());
    }
    let scores = ear_bc::betweenness_pendant_reduced(g).map_err(|e| e.to_string())?;
    let mut ranked: Vec<(u32, f64)> = scores
        .iter()
        .enumerate()
        .map(|(v, &s)| (v as u32, s))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    writeln!(
        out,
        "top {} vertices by betweenness centrality:",
        top.min(ranked.len())
    )?;
    for (v, s) in ranked.into_iter().take(top) {
        writeln!(out, "  {v:>8}  {s:.2}")?;
    }
    Ok(())
}

/// `ear generate` — synthesize a Table 1 analog to a file (or stdout).
pub fn generate(
    out: &mut dyn Write,
    name: &str,
    scale: usize,
    file: Option<&str>,
) -> Result<(), CliError> {
    let spec = all_specs()
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown spec '{name}'"))?;
    if scale == 0 {
        return Err("scale must be >= 1".into());
    }
    let g = spec.build(scale, 7);
    match file {
        Some(path) => {
            let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            ear_graph::io::write_edge_list(&g, std::io::BufWriter::new(f))
                .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "{}: wrote n={} m={} to {path}",
                spec.name,
                g.n(),
                g.m()
            )?;
        }
        None => {
            ear_graph::io::write_edge_list(&g, out)?;
        }
    }
    Ok(())
}

/// `ear recustomize` — weight-replay mode: perturb a seeded fraction of
/// edge weights each round, refresh the plan and oracle through the
/// customization layer, and compare against a cold rebuild on the same
/// weights. Every round is checksum-gated: a deterministic sample of
/// oracle answers from the warm (recustomized) oracle must match the cold
/// one bit for bit, so the reported speedup is never bought with wrong
/// distances.
pub fn recustomize(
    out: &mut dyn Write,
    g: &CsrGraph,
    opts: &CommonOpts,
    fraction: f64,
    rounds: usize,
    seed: u64,
) -> Result<(), CliError> {
    if !(fraction > 0.0 && fraction <= 1.0) {
        return Err("--fraction must be in (0, 1]".into());
    }
    if rounds == 0 {
        return Err("--rounds must be >= 1".into());
    }
    if g.m() == 0 {
        return Err("recustomize needs a graph with at least one edge".into());
    }
    let obs = opts.begin_obs("cli.recustomize")?;
    let method = opts.method();
    let exec = opts.mode.executor();

    let build_start = Instant::now();
    let mut plan = Arc::new(DecompPlan::build(g));
    let mut oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, method);
    writeln!(
        out,
        "initial build: {} blocks, {} table entries, {:.3} ms wall",
        plan.n_blocks(),
        oracle.stats().table_entries,
        build_start.elapsed().as_secs_f64() * 1e3
    )?;

    let per_round = ((g.m() as f64 * fraction).round() as usize).clamp(1, g.m());
    let mut weights: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
    let mut rng = TestRng::new(seed ^ GOLDEN_GAMMA);
    let (mut warm_total, mut cold_total) = (0.0f64, 0.0f64);
    for round in 0..rounds {
        for _ in 0..per_round {
            let e = (rng.next_u64() % g.m() as u64) as usize;
            weights[e] = 1 + rng.next_u64() % 1000;
        }

        let warm_start = Instant::now();
        let warm_plan = Arc::new(plan.recustomized(&weights));
        let warm_oracle = oracle.recustomized(Arc::clone(&warm_plan), &exec);
        let warm_s = warm_start.elapsed().as_secs_f64();

        let gp = g.reweighted(&weights);
        let cold_start = Instant::now();
        let cold_plan = Arc::new(DecompPlan::build(&gp));
        let cold_oracle = build_oracle_with_plan(cold_plan, &exec, method);
        let cold_s = cold_start.elapsed().as_secs_f64();

        let warm_sum = oracle_checksum(&warm_oracle, g.n(), seed ^ round as u64);
        let cold_sum = oracle_checksum(&cold_oracle, g.n(), seed ^ round as u64);
        if warm_sum != cold_sum {
            return Err(format!(
                "round {round}: checksum mismatch (warm {warm_sum:016x} != cold {cold_sum:016x})"
            )
            .into());
        }
        writeln!(
            out,
            "round {round}: {} dirty of {} blocks, warm {:.3} ms, cold {:.3} ms ({:.1}x), checksum ok {warm_sum:016x}",
            warm_plan.dirty_blocks().len(),
            warm_plan.n_blocks(),
            warm_s * 1e3,
            cold_s * 1e3,
            cold_s / warm_s.max(1e-9),
        )?;
        warm_total += warm_s;
        cold_total += cold_s;
        plan = warm_plan;
        oracle = warm_oracle;
    }
    writeln!(
        out,
        "replayed {rounds} rounds x {per_round} edges ({:.2}% of {}): warm {:.3} ms total, cold {:.3} ms total ({:.1}x)",
        fraction * 100.0,
        g.m(),
        warm_total * 1e3,
        cold_total * 1e3,
        cold_total / warm_total.max(1e-9),
    )?;
    obs.finish(out)
}

/// `ear query` — serve point-to-point queries off the [`QueryEngine`]
/// (block-cut-tree routing over the oracle's own distance arena), answer
/// any `--pairs` with distance and realized path, then time a seeded
/// uniform workload whose answers from sampled sources are gated against
/// Dijkstra.
pub fn query(
    out: &mut dyn Write,
    g: &CsrGraph,
    opts: &CommonOpts,
    pairs: &[(u32, u32)],
    queries: usize,
    seed: u64,
) -> Result<(), CliError> {
    let obs = opts.begin_obs("cli.query")?;
    let method = opts.method();
    let exec = opts.mode.executor();
    let build_start = Instant::now();
    let plan = Arc::new(DecompPlan::build(g));
    let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, method);
    let engine = QueryEngine::new(&oracle);
    writeln!(
        out,
        "query engine: {} blocks, {} APs, {} gateway entries, {} table entries (shared with the oracle), {:.3} ms build wall",
        plan.n_blocks(),
        plan.bct().ap_count(),
        engine.gateway_records(),
        engine.arena_entries(),
        build_start.elapsed().as_secs_f64() * 1e3
    )?;

    for &(u, v) in pairs {
        let d = engine.dist(u, v);
        let want = ear_graph::dijkstra(g, u)[v as usize];
        if d != want {
            return Err(
                format!("query engine diverged from Dijkstra on ({u},{v}): {d} vs {want}").into(),
            );
        }
        if d >= INF {
            writeln!(out, "d({u},{v}) = unreachable")?;
        } else {
            match engine.path(g, u, v) {
                Some(p) => writeln!(out, "d({u},{v}) = {d}  path {p:?}")?,
                None => writeln!(out, "d({u},{v}) = {d}")?,
            }
        }
    }

    if queries > 0 && g.n() > 0 {
        let mut rng = TestRng::new(seed ^ 0x9a7e);
        let workload: Vec<(u32, u32)> = (0..queries)
            .map(|_| {
                (
                    (rng.next_u64() % g.n() as u64) as u32,
                    (rng.next_u64() % g.n() as u64) as u32,
                )
            })
            .collect();
        let t0 = Instant::now();
        let mut h = 0xcbf29ce484222325u64;
        let mut answers = Vec::with_capacity(queries);
        for &(u, v) in &workload {
            let d = engine.dist(u, v);
            answers.push(d);
            for b in d.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        // Gate: the answers of up to 16 pairs spread over the workload
        // against Dijkstra rows from their sources.
        for (i, &(u, v)) in workload.iter().enumerate().step_by(queries.div_ceil(16)) {
            let want = ear_graph::dijkstra(g, u)[v as usize];
            if answers[i] != want {
                return Err(format!(
                    "workload query ({u},{v}) answered {} but Dijkstra says {want}",
                    answers[i]
                )
                .into());
            }
        }
        writeln!(
            out,
            "{queries} uniform queries: {:.2}M q/s, checksum ok {h:016x}",
            queries as f64 / wall_s.max(1e-9) / 1e6,
        )?;
    }
    obs.finish(out)
}

/// FNV-1a over a deterministic sample of oracle answers (up to 4096
/// pairs, or the full n^2 when smaller).
fn oracle_checksum(oracle: &DistanceOracle, n: usize, seed: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut digest = |d: Weight| {
        for b in d.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    if n == 0 {
        return h;
    }
    if n * n <= 4096 {
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                digest(oracle.dist(u, v));
            }
        }
    } else {
        let mut rng = TestRng::new(seed);
        for _ in 0..4096 {
            let u = (rng.next_u64() % n as u64) as u32;
            let v = (rng.next_u64() % n as u64) as u32;
            digest(oracle.dist(u, v));
        }
    }
    h
}
