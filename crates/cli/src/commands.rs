//! Subcommand implementations.

use std::sync::Arc;
use std::time::Instant;

use ear_apsp::{build_oracle_with_plan, QueryEngine};
use ear_core::prelude::*;
use ear_decomp::{ear_decomposition, DecompPlan};
use ear_mcb::verify_basis;
use ear_workloads::specs::all_specs;
use ear_workloads::GraphStats;

use crate::CommonOpts;

/// `ear stats` — the Table 1 columns for an arbitrary graph.
pub fn stats(g: &CsrGraph) -> Result<(), String> {
    print_stats(&GraphStats::measure(g));
    Ok(())
}

fn print_stats(s: &GraphStats) {
    println!("vertices              {}", s.n);
    println!("edges                 {}", s.m);
    println!("biconnected comps     {}", s.n_bccs);
    println!("largest BCC           {:.2}% of edges", s.largest_bcc_pct());
    println!("articulation points   {}", s.articulation_points);
    println!(
        "degree-2 removable    {} ({:.2}% of vertices)",
        s.removed,
        s.removed_pct()
    );
    println!(
        "table memory          {:.1} MB (blocks + AP table, 4-byte entries)",
        s.ours_memory_mb()
    );
    println!(
        "reduced-table memory  {:.1} MB (on-demand extension variant)",
        s.reduced_memory_mb()
    );
    println!("flat n^2 memory       {:.1} MB", s.max_memory_mb());
}

/// `ear decompose` — blocks, articulation points, per-block ears and
/// reduction summary, all read off one [`DecompPlan`].
pub fn decompose(g: &CsrGraph) -> Result<(), String> {
    let plan = DecompPlan::build(g);
    print_decomposition(&plan);
    Ok(())
}

fn print_decomposition(plan: &DecompPlan) {
    println!(
        "{} biconnected components, {} articulation points",
        plan.n_blocks(),
        plan.bct().ap_count()
    );
    for (rank, b) in plan.blocks_by_size_desc().into_iter().take(10).enumerate() {
        let bp = plan.block(b as u32);
        print!("  block {rank}: {} vertices, {} edges", bp.n(), bp.m());
        if bp.m() >= bp.n() && bp.simple {
            // Ear decomposition wants an owned graph: materialize the
            // block (a print-path copy only).
            let sub = plan.block_graph(b as u32).materialize();
            match ear_decomposition(&sub) {
                Ok(d) => print!(", {} ears", d.ears.len()),
                Err(e) => print!(", no open ear decomposition ({e})"),
            }
            if let Some(r) = &bp.reduction {
                print!(
                    ", reduction {} -> {} vertices ({} chains)",
                    bp.n(),
                    r.reduced.n(),
                    r.chains.len()
                );
            }
        }
        println!();
    }
    if plan.n_blocks() > 10 {
        println!("  ... {} more blocks", plan.n_blocks() - 10);
    }
    println!("bridges: {}", plan.bridges().len());
}

/// `ear combined` — stats + decomposition + APSP + MCB off a single
/// [`DecompPlan`]: the graph is decomposed (BCC split, block-cut tree,
/// per-block subgraphs and reductions) exactly once and the plan is
/// shared by every stage.
pub fn combined(g: &CsrGraph, opts: &CommonOpts, pairs: &[(u32, u32)]) -> Result<(), String> {
    let obs = opts.begin_obs("cli.combined")?;
    let plan = Arc::new(DecompPlan::build(g));

    println!("== stats ==");
    print_stats(&GraphStats::from_plan(&plan));

    println!("== decomposition ==");
    print_decomposition(&plan);

    println!("== apsp ==");
    let out = ApspPipeline::new()
        .mode(opts.mode)
        .use_ear(!opts.no_ear)
        .plan(Arc::clone(&plan))
        .run(g);
    report_apsp(g, &out, pairs);

    println!("== mcb ==");
    if g.is_simple() {
        let out = McbPipeline::new()
            .mode(opts.mode)
            .use_ear(!opts.no_ear)
            .plan(Arc::clone(&plan))
            .run(g);
        report_mcb(g, &out, false)?;
    } else {
        println!("skipped: mcb expects a simple graph");
    }
    obs.finish()
}

/// `ear apsp` — build the oracle, report stats, answer queries.
pub fn apsp(g: &CsrGraph, opts: &CommonOpts, pairs: &[(u32, u32)]) -> Result<(), String> {
    let obs = opts.begin_obs("cli.apsp")?;
    let out = ApspPipeline::new()
        .mode(opts.mode)
        .use_ear(!opts.no_ear)
        .plan(Arc::new(DecompPlan::build(g)))
        .run(g);
    report_apsp(g, &out, pairs);
    obs.finish()
}

fn report_apsp(g: &CsrGraph, out: &ApspOutcome, pairs: &[(u32, u32)]) {
    let st = out.oracle.stats();
    println!(
        "oracle built: {} blocks, {} APs, {} removed vertices, {} table entries",
        st.n_bccs, st.articulation_points, st.removed_vertices, st.table_entries
    );
    println!("modelled device time: {:.3} ms", out.modelled_time_s * 1e3);
    for &(u, v) in pairs {
        let d = out.oracle.dist(u, v);
        if d >= INF {
            println!("d({u},{v}) = unreachable");
        } else {
            match out.oracle.path(g, u, v) {
                Some(p) => println!("d({u},{v}) = {d}  path {p:?}"),
                None => println!("d({u},{v}) = {d}"),
            }
        }
    }
}

/// `ear mcb` — minimum cycle basis with verification.
pub fn mcb(
    g: &CsrGraph,
    opts: &CommonOpts,
    print_cycles: bool,
    profile: bool,
    profile_json: bool,
) -> Result<(), String> {
    if !g.is_simple() {
        return Err("mcb expects a simple graph (parallel edges/self-loops in input)".into());
    }
    // The profile is read back from the metrics registry, so tracing must
    // be on before the pipeline runs (even when no obs output file was
    // asked for and begin_obs alone wouldn't enable it).
    if profile || profile_json {
        ear_obs::enable();
    }
    let obs = opts.begin_obs("cli.mcb")?;
    let out = McbPipeline::new()
        .mode(opts.mode)
        .use_ear(!opts.no_ear)
        .plan(Arc::new(DecompPlan::build(g)))
        .run(g);
    report_mcb(g, &out, print_cycles)?;
    if profile || profile_json {
        let p = profile_from_registry();
        if profile {
            print_mcb_profile(&p);
        }
        if profile_json {
            println!("{}", mcb_profile_json(&p));
        }
    }
    obs.finish()
}

/// Rebuilds a [`ear_mcb::PhaseProfile`] from the metrics registry. The
/// registry is the source of truth for `--profile`: the pipeline publishes
/// its modelled phase timings as `mcb.*` gauges and its operation counters
/// as `mcb.*` counters, and the CLI runs exactly one MCB pipeline per
/// process, so the registry totals equal that run's profile.
fn profile_from_registry() -> ear_mcb::PhaseProfile {
    let snap = ear_obs::metrics_snapshot();
    ear_mcb::PhaseProfile {
        trees_s: snap.gauge("mcb.trees_s").unwrap_or(0.0),
        labels_s: snap.gauge("mcb.labels_s").unwrap_or(0.0),
        search_s: snap.gauge("mcb.search_s").unwrap_or(0.0),
        update_s: snap.gauge("mcb.update_s").unwrap_or(0.0),
        counters: ear_hetero::WorkCounters {
            labels_computed: snap.counter("mcb.labels_computed"),
            cycles_inspected: snap.counter("mcb.cycles_inspected"),
            words_xored: snap.counter("mcb.words_xored"),
            edges_relaxed: snap.counter("mcb.edges_relaxed"),
            vertices_settled: snap.counter("mcb.vertices_settled"),
            ..Default::default()
        },
        fallbacks: snap.counter("mcb.fallbacks") as usize,
    }
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
pub fn trace_check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let check =
        ear_obs::validate_chrome_trace(&text).map_err(|e| format!("{path}: invalid trace: {e}"))?;
    println!(
        "{path}: ok ({} events, {} lanes, max span depth {}, {} complete events, {} counter events)",
        check.events, check.lanes, check.max_depth, check.complete_events, check.counter_events
    );
    Ok(())
}

/// `ear bench-diff` — the perf-regression sentinel: compare two
/// `ear-bench/v1` reports (checksum-gated, direction-aware, see
/// [`ear_bench::diff`]), print the human table, optionally write the
/// `ear-bench-diff/v1` machine verdict, and exit non-zero on a
/// regression so CI can gate on it directly.
pub fn bench_diff(
    baseline: &str,
    candidate: &str,
    threshold: f64,
    json_out: Option<&str>,
) -> Result<(), String> {
    let base = std::fs::read_to_string(baseline).map_err(|e| format!("{baseline}: {e}"))?;
    let cand = std::fs::read_to_string(candidate).map_err(|e| format!("{candidate}: {e}"))?;
    let d = ear_bench::diff::diff_reports(&base, &cand, threshold)?;
    print!("{}", d.human_table());
    if let Some(path) = json_out {
        std::fs::write(path, d.to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote verdict to {path}");
    }
    if d.verdict() == ear_bench::diff::Verdict::Regression {
        // A regression is a failed check, not a usage error: exit
        // non-zero without the usage dump an Err would trigger.
        std::process::exit(1);
    }
    Ok(())
}

/// The `--profile` table: modelled makespan per phase step under the
/// selected device mode, with shares over the phase loop (trees are
/// preprocessing and excluded from the share base, matching
/// `PhaseProfile::shares`).
fn print_mcb_profile(p: &ear_mcb::PhaseProfile) {
    let (l, s, u) = p.shares();
    println!("phase profile (modelled):");
    println!("  {:<10} {:>12} {:>8}", "step", "time (ms)", "share");
    println!("  {:<10} {:>12.4} {:>8}", "trees", p.trees_s * 1e3, "-");
    for (name, secs, share) in [
        ("labels", p.labels_s, l),
        ("search", p.search_s, s),
        ("update", p.update_s, u),
    ] {
        println!(
            "  {:<10} {:>12.4} {:>7.1}%",
            name,
            secs * 1e3,
            share * 100.0
        );
    }
    println!(
        "  total {:.4} ms, {} signed-search fallbacks",
        p.total_s() * 1e3,
        p.fallbacks
    );
    let c = &p.counters;
    println!(
        "  counters: {} labels, {} cycles inspected, {} words xored, {} edges relaxed",
        c.labels_computed, c.cycles_inspected, c.words_xored, c.edges_relaxed
    );
}

fn report_mcb(g: &CsrGraph, out: &McbOutcome, print_cycles: bool) -> Result<(), String> {
    verify_basis(g, &out.result.cycles).map_err(|e| format!("basis verification failed: {e}"))?;
    println!(
        "minimum cycle basis: dimension {}, total weight {}",
        out.result.dim, out.result.total_weight
    );
    println!(
        "ear reduction removed {} vertices; modelled device time {:.3} ms",
        out.result.removed_vertices,
        out.modelled_time_s * 1e3
    );
    let (l, s, u) = out.result.profile.shares();
    println!(
        "phase shares: labels {:.0}% search {:.0}% update {:.0}%",
        l * 100.0,
        s * 100.0,
        u * 100.0
    );
    if print_cycles {
        for (i, c) in out.result.cycles.iter().enumerate() {
            println!("cycle {i}: weight {} edges {:?}", c.weight, c.edges);
        }
    } else {
        let mut sizes: Vec<usize> = out.result.cycles.iter().map(|c| c.edges.len()).collect();
        sizes.sort_unstable();
        println!("cycle lengths: {sizes:?}");
    }
    Ok(())
}

/// `ear bc` — betweenness centrality (pendant-reduced), top-K report.
pub fn bc(g: &CsrGraph, top: usize) -> Result<(), String> {
    if !g.is_simple() {
        return Err("bc expects a simple graph".into());
    }
    let scores = ear_bc::betweenness_pendant_reduced(g);
    let mut ranked: Vec<(u32, f64)> = scores
        .iter()
        .enumerate()
        .map(|(v, &s)| (v as u32, s))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    println!(
        "top {} vertices by betweenness centrality:",
        top.min(ranked.len())
    );
    for (v, s) in ranked.into_iter().take(top) {
        println!("  {v:>8}  {s:.2}");
    }
    Ok(())
}

/// `ear generate` — synthesize a Table 1 analog to a file (or stdout).
pub fn generate(name: &str, scale: usize, out: Option<&str>) -> Result<(), String> {
    let spec = all_specs()
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown spec '{name}'"))?;
    if scale == 0 {
        return Err("scale must be >= 1".into());
    }
    let g = spec.build(scale, 7);
    match out {
        Some(path) => {
            let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            ear_graph::io::write_edge_list(&g, std::io::BufWriter::new(f))
                .map_err(|e| e.to_string())?;
            println!("{}: wrote n={} m={} to {path}", spec.name, g.n(), g.m());
        }
        None => {
            ear_graph::io::write_edge_list(&g, std::io::stdout().lock())
                .map_err(|e| e.to_string())?;
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
    g: &CsrGraph,
    opts: &CommonOpts,
    fraction: f64,
    rounds: usize,
    seed: u64,
) -> Result<(), String> {
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
    let method = if opts.no_ear {
        ApspMethod::Plain
    } else {
        ApspMethod::Ear
    };
    let exec = opts.mode.executor();

    let build_start = Instant::now();
    let mut plan = Arc::new(DecompPlan::build(g));
    let mut oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, method);
    println!(
        "initial build: {} blocks, {} table entries, {:.3} ms wall",
        plan.n_blocks(),
        oracle.stats().table_entries,
        build_start.elapsed().as_secs_f64() * 1e3
    );

    let per_round = ((g.m() as f64 * fraction).round() as usize).clamp(1, g.m());
    let mut weights: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
    let mut rng = seed ^ 0x9E3779B97F4A7C15;
    let (mut warm_total, mut cold_total) = (0.0f64, 0.0f64);
    for round in 0..rounds {
        for _ in 0..per_round {
            let e = (splitmix(&mut rng) % g.m() as u64) as usize;
            weights[e] = 1 + splitmix(&mut rng) % 1000;
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
            ));
        }
        println!(
            "round {round}: {} dirty of {} blocks, warm {:.3} ms, cold {:.3} ms ({:.1}x), checksum ok {warm_sum:016x}",
            warm_plan.dirty_blocks().len(),
            warm_plan.n_blocks(),
            warm_s * 1e3,
            cold_s * 1e3,
            cold_s / warm_s.max(1e-9),
        );
        warm_total += warm_s;
        cold_total += cold_s;
        plan = warm_plan;
        oracle = warm_oracle;
    }
    println!(
        "replayed {rounds} rounds x {per_round} edges ({:.2}% of {}): warm {:.3} ms total, cold {:.3} ms total ({:.1}x)",
        fraction * 100.0,
        g.m(),
        warm_total * 1e3,
        cold_total * 1e3,
        cold_total / warm_total.max(1e-9),
    );
    obs.finish()
}

/// `ear query` — serve point-to-point queries off the fast-path
/// [`QueryEngine`] (precomputed gateway records over the oracle's own
/// distance arena),
/// answer any `--pairs` with distance and realized path, then run a
/// seeded uniform workload through both the fast path and the legacy
/// oracle, checksum-gated, and report the throughput of each.
pub fn query(
    g: &CsrGraph,
    opts: &CommonOpts,
    pairs: &[(u32, u32)],
    queries: usize,
    seed: u64,
) -> Result<(), String> {
    let obs = opts.begin_obs("cli.query")?;
    let method = if opts.no_ear {
        ApspMethod::Plain
    } else {
        ApspMethod::Ear
    };
    let exec = opts.mode.executor();
    let build_start = Instant::now();
    let plan = Arc::new(DecompPlan::build(g));
    let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, method);
    let engine = QueryEngine::new(&oracle);
    println!(
        "query engine: {} blocks, {} APs, {} gateway records, {} table entries (shared with the oracle), {:.3} ms build wall",
        plan.n_blocks(),
        plan.bct().ap_count(),
        engine.gateway_records(),
        engine.arena_entries(),
        build_start.elapsed().as_secs_f64() * 1e3
    );

    for &(u, v) in pairs {
        let d = engine.dist(u, v);
        let legacy = oracle.dist(u, v);
        if d != legacy {
            return Err(format!(
                "fast path diverged from legacy on ({u},{v}): {d} vs {legacy}"
            ));
        }
        if d >= INF {
            println!("d({u},{v}) = unreachable");
        } else {
            match engine.path(g, u, v) {
                Some(p) => println!("d({u},{v}) = {d}  path {p:?}"),
                None => println!("d({u},{v}) = {d}"),
            }
        }
    }

    if queries > 0 && g.n() > 0 {
        let mut rng = seed ^ 0x9a7e;
        let workload: Vec<(u32, u32)> = (0..queries)
            .map(|_| {
                (
                    (splitmix(&mut rng) % g.n() as u64) as u32,
                    (splitmix(&mut rng) % g.n() as u64) as u32,
                )
            })
            .collect();
        let digest = |mut h: u64, d: Weight| {
            for b in d.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            h
        };
        let t0 = Instant::now();
        let mut lh = 0xcbf29ce484222325u64;
        for &(u, v) in &workload {
            lh = digest(lh, oracle.dist(u, v));
        }
        let legacy_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let mut fh = 0xcbf29ce484222325u64;
        for &(u, v) in &workload {
            fh = digest(fh, engine.dist(u, v));
        }
        let fast_s = t0.elapsed().as_secs_f64();
        if fh != lh {
            return Err(format!(
                "workload checksum mismatch (fast {fh:016x} != legacy {lh:016x})"
            ));
        }
        println!(
            "{queries} uniform queries: fast {:.2}M q/s, legacy {:.2}M q/s ({:.1}x), checksum ok {fh:016x}",
            queries as f64 / fast_s.max(1e-9) / 1e6,
            queries as f64 / legacy_s.max(1e-9) / 1e6,
            legacy_s / fast_s.max(1e-9),
        );
    }
    obs.finish()
}

/// splitmix64 step — the CLI's only randomness, so replay runs are fully
/// determined by `--seed`.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
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
        let mut state = seed;
        for _ in 0..4096 {
            let u = (splitmix(&mut state) % n as u64) as u32;
            let v = (splitmix(&mut state) % n as u64) as u32;
            digest(oracle.dist(u, v));
        }
    }
    h
}
