//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **FVS restriction** (Mehlhorn–Michail) — candidate-set size and tree
//!    count with a greedy FVS vs Horton's every-vertex roots;
//! 2. **Candidate restriction vs signed search** — modelled MCB time with
//!    the store-based search vs pure signed-graph phases;
//! 3. **Work-queue batch size** — heterogeneous makespan as the GPU batch
//!    grows (the paper's "batches whose size depends on the nature of the
//!    task").
//!
//! ```text
//! cargo run --release -p ear-bench --bin ablations [-- --scale N]
//! ```

use std::time::Instant;

use ear_bench::{fmt_s, BenchOpts, Table};
use ear_decomp::feedback_vertex_set;
use ear_graph::dijkstra_with_stats;
use ear_hetero::{DeviceProfile, HeteroExecutor, WorkCounters};
use ear_mcb::depina::{depina_mcb, DepinaOptions};
use ear_workloads::combinators::subdivide_edges;
use ear_workloads::generators::random_min_deg3;

fn main() {
    let opts = BenchOpts::from_args();
    let div = opts.scale;

    // ---------------------------------------------------------------- 1
    println!("Ablation 1 — FVS restriction of the Horton set (paper §3.2)\n");
    let g = random_min_deg3(1200 / div.max(1), 3000 / div.max(1), opts.seed);
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
        &random_min_deg3(160 / div.max(1) + 8, 400 / div.max(1) + 20, 3),
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
    assert_eq!(
        b1.iter().map(|c| c.weight).sum::<u64>(),
        b2.iter().map(|c| c.weight).sum::<u64>()
    );
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
    let big = random_min_deg3(3000 / div.max(1), 9000 / div.max(1), 11);
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
}
