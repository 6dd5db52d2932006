//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **FVS restriction** (Mehlhorn–Michail) — candidate-set size and tree
//!    count with a greedy FVS vs Horton's every-vertex roots;
//! 2. **Candidate restriction vs signed search** — modelled MCB time with
//!    the store-based search vs pure signed-graph phases;
//! 3. **Work-queue batch size** — heterogeneous makespan as the GPU batch
//!    grows (the paper's "batches whose size depends on the nature of the
//!    task");
//! 4. **Ear reduction in host wall-clock** — real time, no device model, of
//!    each computation without and with the reduction (APSP oracle, MCB
//!    pipeline, betweenness) and of the MCB algorithm ladder. Each pair must
//!    give the same answer before its row is printed.
//!
//! Sizes divide by `--scale` and are floored, so any scale runs.
//!
//! ```text
//! cargo run --release -p ear-bench --bin ablations [-- --scale N]
//! ```

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::Instant;

use ear_apsp::{build_oracle, ApspMethod};
use ear_bc::{betweenness, betweenness_pendant_reduced};
use ear_bench::{fmt_s, BenchOpts, Table};
use ear_decomp::feedback_vertex_set;
use ear_graph::{dijkstra_with_stats, CsrGraph};
use ear_hetero::{DeviceProfile, HeteroExecutor, WorkCounters};
use ear_mcb::depina::{depina_mcb, DepinaOptions};
use ear_mcb::{horton_mcb, mcb, signed_mcb, Cycle, ExecMode, McbConfig};
use ear_workloads::combinators::{attach_pendants, subdivide_edges};
use ear_workloads::generators::random_min_deg3;

/// Least timed runs per side in Ablation 4, after one untimed warm-up.
const RUNS: usize = 5;

/// Least timed wall time per side in Ablation 4: a side of a few ms runs
/// hundreds of times, so its median holds still on a shared host.
const MIN_SECS: f64 = 1.0;

/// One warm-up call of `f`, then timed calls until there are at least
/// [`RUNS`] of them and they add up to [`MIN_SECS`]; returns their median
/// wall time and the last call's answer.
fn timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut out = f();
    let (mut secs, mut total) = (Vec::new(), 0.0);
    while secs.len() < RUNS || total < MIN_SECS {
        let t0 = Instant::now();
        out = black_box(f());
        let dt = t0.elapsed().as_secs_f64();
        total += dt;
        secs.push(dt);
    }
    secs.sort_by(f64::total_cmp);
    (secs[secs.len() / 2], out)
}

fn weight(basis: &[Cycle]) -> u64 {
    basis.iter().map(|c| c.weight).sum()
}

fn main() {
    let opts = BenchOpts::from_args();
    // A size divided by the scale, floored at K4.
    let sz = |x: usize| (x / opts.scale).max(4);

    // ---------------------------------------------------------------- 1
    println!("Ablation 1 — FVS restriction of the Horton set (paper §3.2)\n");
    let g = random_min_deg3(sz(1200), sz(3000), opts.seed);
    let z = feedback_vertex_set(&g);
    let exec = HeteroExecutor::sequential();
    let cands_fvs = ear_mcb::candidates::generate(&g);
    println!(
        "  graph: n={}, m={}, cycle dim={}",
        g.n(),
        g.m(),
        g.m() - g.n() + 1
    );
    println!(
        "  greedy FVS size:            {} (vs n = {})",
        z.len(),
        g.n()
    );
    println!(
        "  candidate cycles with FVS:  {} (tree phase {})",
        cands_fvs.store.live(),
        fmt_s(exec.simulate_grouped(&cands_fvs.tree_units).makespan_s)
    );
    println!(
        "  Horton would build {} trees and ~n*(m-n+1) = {} cycles\n",
        g.n(),
        g.n() * (g.m() - g.n() + 1)
    );

    // ---------------------------------------------------------------- 2
    println!("Ablation 2 — candidate store vs per-phase signed search\n");
    let small = subdivide_edges(
        &random_min_deg3(160 / opts.scale + 8, 400 / opts.scale + 20, 3),
        100,
        2,
        4,
    );
    let t0 = Instant::now();
    let (b1, p1) = depina_mcb(&small, &exec, &DepinaOptions::default());
    let w1 = t0.elapsed();
    let t0 = Instant::now();
    let (b2, p2) = depina_mcb(&small, &exec, &DepinaOptions { force_signed: true });
    let w2 = t0.elapsed();
    assert_eq!(weight(&b1), weight(&b2));
    let mut t = Table::new(&["search strategy", "modelled", "wall", "fallbacks"]);
    t.row(vec![
        "restricted store".into(),
        fmt_s(p1.total_s()),
        format!("{w1:.2?}"),
        p1.fallbacks.to_string(),
    ]);
    t.row(vec![
        "signed per phase".into(),
        fmt_s(p2.total_s()),
        format!("{w2:.2?}"),
        "-".into(),
    ]);
    t.print();
    println!();

    // ---------------------------------------------------------------- 3
    println!("Ablation 3 — GPU batch size in the double-ended queue\n");
    let big = random_min_deg3(sz(3000), sz(9000), 11);
    let sources: Vec<u32> = (0..big.n() as u32).collect();
    let mut t = Table::new(&["gpu batch", "makespan", "gpu units", "cpu units"]);
    for batch in [32usize, 128, 256, 1024] {
        let mut gpu = DeviceProfile::k40c();
        gpu.batch_units = batch;
        let exec = HeteroExecutor::new(vec![DeviceProfile::e5_2650(), gpu]);
        let out = exec.run(
            sources.clone(),
            |_| big.m() as u64,
            |&s| {
                let (d, st) = dijkstra_with_stats(&big, s);
                (
                    d.len() as u64,
                    WorkCounters {
                        edges_relaxed: st.edges_relaxed,
                        vertices_settled: st.settled,
                        ..Default::default()
                    },
                )
            },
        );
        let gpu_units = out.report.devices[1].units;
        let cpu_units = out.report.devices[0].units;
        t.row(vec![
            batch.to_string(),
            fmt_s(out.report.makespan_s),
            gpu_units.to_string(),
            cpu_units.to_string(),
        ]);
    }
    t.print();

    // ---------------------------------------------------------------- 4
    println!(
        "\nAblation 4 — ear reduction in host wall-clock (median of >= {RUNS} runs and >= {MIN_SECS} s per side, threads={})\n",
        ear_graph::pool::threads()
    );
    let mut t = Table::new(&["computation", "n", "m", "without", "with", "ratio"]);
    let mut row = |name: &str, g: &CsrGraph, without: f64, with: f64| {
        t.row(vec![
            name.into(),
            g.n().to_string(),
            g.m().to_string(),
            fmt_s(without),
            fmt_s(with),
            format!("{:.1}x", without / with),
        ]);
    };

    let g = subdivide_edges(&random_min_deg3(sz(400), sz(1200), 7), sz(800), 2, 8);
    let cpu_gpu = HeteroExecutor::cpu_gpu();
    let (t0, plain) = timed(|| build_oracle(&g, &cpu_gpu, ApspMethod::Plain));
    let (t1, ear) = timed(|| build_oracle(&g, &cpu_gpu, ApspMethod::Ear));
    assert_eq!(plain.materialize(), ear.materialize(), "APSP: Plain vs Ear");
    row("APSP oracle: Plain vs Ear", &g, t0, t1);

    let g = subdivide_edges(&random_min_deg3(sz(90), sz(200), 5), sz(180), 2, 6);
    let config = |use_ear| McbConfig {
        mode: ExecMode::Hetero,
        use_ear,
    };
    let (t0, without) = timed(|| mcb(&g, &config(false)));
    let (t1, with) = timed(|| mcb(&g, &config(true)));
    assert_eq!(
        (without.dim, without.total_weight),
        (with.dim, with.total_weight)
    );
    row("MCB pipeline: w/o vs w ear", &g, t0, t1);

    let g = attach_pendants(&random_min_deg3(sz(300), sz(800), 21), sz(700), 22);
    let (t0, brandes) = timed(|| betweenness(&g));
    let (t1, reduced) = timed(|| betweenness_pendant_reduced(&g));
    for (v, (x, y)) in brandes.iter().zip(&reduced).enumerate() {
        assert!((x - y).abs() < 1e-6 * (1.0 + x.abs()), "BC {v}: {x} vs {y}");
    }
    row("BC: Brandes vs pendant-reduced", &g, t0, t1);

    let g = random_min_deg3(sz(60), sz(140), 3);
    let (th, horton) = timed(|| horton_mcb(&g));
    let (ts, signed) = timed(|| signed_mcb(&g));
    let (tr, (restricted, _)) = timed(|| depina_mcb(&g, &exec, &DepinaOptions::default()));
    assert_eq!(weight(&horton), weight(&restricted));
    assert_eq!(weight(&signed), weight(&restricted));
    row("MCB ladder: Horton vs restricted", &g, th, tr);
    row("MCB ladder: signed vs restricted", &g, ts, tr);
    t.print();
}
