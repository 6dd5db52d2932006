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
//!    pipeline, betweenness) and of the MCB algorithm ladder. The two sides
//!    of a pair are timed in alternating rounds, and each must give the
//!    same answer before its row is printed.
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

/// Least timed rounds per pair in Ablation 4, after one untimed warm-up
/// of each side.
const RUNS: usize = 5;

/// Least timed wall time per pair in Ablation 4, both sides together: a
/// pair of a few ms runs hundreds of rounds, so its medians hold still on
/// a shared host.
const MIN_SECS: f64 = 2.0;

/// One pair's timing: each side's median wall time and the median of the
/// per-round ratios `without / with`.
struct Timing {
    without: f64,
    with: f64,
    ratio: f64,
}

/// Times `without` against `with` call by call: one untimed warm-up of
/// each, then rounds of one timed call of each, the side that goes first
/// alternating from round to round, until there are at least [`RUNS`]
/// rounds and they add up to [`MIN_SECS`]. Host load that comes and goes
/// then falls on both sides of a round alike, and the median of the
/// per-round ratios discounts the rounds it still skews. Returns the
/// timing and each side's last answer.
fn timed_pair<A, B>(mut without: impl FnMut() -> A, mut with: impl FnMut() -> B) -> (Timing, A, B) {
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    };
    let (mut a, mut b) = (without(), with());
    let mut rounds: Vec<(f64, f64)> = Vec::new();
    let mut total = 0.0;
    while rounds.len() < RUNS || total < MIN_SECS {
        let mut ta = || time(&mut || a = black_box(without()));
        let mut tb = || time(&mut || b = black_box(with()));
        let (t0, t1) = if rounds.len().is_multiple_of(2) {
            let t0 = ta();
            (t0, tb())
        } else {
            let t1 = tb();
            (ta(), t1)
        };
        total += t0 + t1;
        rounds.push((t0, t1));
    }
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let timing = Timing {
        without: median(rounds.iter().map(|r| r.0).collect()),
        with: median(rounds.iter().map(|r| r.1).collect()),
        ratio: median(rounds.iter().map(|r| r.0 / r.1).collect()),
    };
    (timing, a, b)
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
        "\nAblation 4 — ear reduction in host wall-clock (each pair timed in >= {RUNS} alternating rounds and >= {MIN_SECS} s; medians, ratio = median of per-round ratios; threads={})\n",
        ear_graph::pool::threads()
    );
    let mut t = Table::new(&["computation", "n", "m", "without", "with", "ratio"]);
    let mut row = |name: &str, g: &CsrGraph, time: Timing| {
        t.row(vec![
            name.into(),
            g.n().to_string(),
            g.m().to_string(),
            fmt_s(time.without),
            fmt_s(time.with),
            format!("{:.1}x", time.ratio),
        ]);
    };

    let g = subdivide_edges(&random_min_deg3(sz(400), sz(1200), 7), sz(800), 2, 8);
    let cpu_gpu = HeteroExecutor::cpu_gpu();
    let (time, plain, ear) = timed_pair(
        || build_oracle(&g, &cpu_gpu, ApspMethod::Plain),
        || build_oracle(&g, &cpu_gpu, ApspMethod::Ear),
    );
    assert_eq!(plain.materialize(), ear.materialize(), "APSP: Plain vs Ear");
    row("APSP oracle: Plain vs Ear", &g, time);

    let g = subdivide_edges(&random_min_deg3(sz(90), sz(200), 5), sz(180), 2, 6);
    let config = |use_ear| McbConfig {
        mode: ExecMode::Hetero,
        use_ear,
    };
    let (time, without, with) = timed_pair(|| mcb(&g, &config(false)), || mcb(&g, &config(true)));
    assert_eq!(
        (without.dim, without.total_weight),
        (with.dim, with.total_weight)
    );
    row("MCB pipeline: w/o vs w ear", &g, time);

    let g = attach_pendants(&random_min_deg3(sz(300), sz(800), 21), sz(700), 22);
    let (time, brandes, reduced) =
        timed_pair(|| betweenness(&g), || betweenness_pendant_reduced(&g));
    let (brandes, reduced) = (brandes.expect("positive weights"), reduced.unwrap());
    for (v, (x, y)) in brandes.iter().zip(&reduced).enumerate() {
        assert!((x - y).abs() < 1e-6 * (1.0 + x.abs()), "BC {v}: {x} vs {y}");
    }
    row("BC: Brandes vs pendant-reduced", &g, time);

    let g = random_min_deg3(sz(60), sz(140), 3);
    let restricted = || depina_mcb(&g, &exec, &DepinaOptions::default()).0;
    let (time, horton, restricted_basis) = timed_pair(|| horton_mcb(&g), restricted);
    assert_eq!(weight(&horton), weight(&restricted_basis));
    row("MCB ladder: Horton vs restricted", &g, time);
    let (time, signed, restricted_basis) = timed_pair(|| signed_mcb(&g), restricted);
    assert_eq!(weight(&signed), weight(&restricted_basis));
    row("MCB ladder: signed vs restricted", &g, time);
    t.print();
}
