//! Regenerates the paper's **Figure 3**: MTEPS (million traversed edges
//! per second, computed as `m · n / time / 1e6`) for Our Approach vs the
//! Banerjee et al. baseline on general graphs and the Djidjev et al.
//! baseline on planar graphs. Higher is better; the paper uses this as its
//! scalability metric.
//!
//! ```text
//! cargo run --release -p ear-bench --bin fig3_mteps [-- --scale N]
//! ```

#![forbid(unsafe_code)]

use ear_apsp::djidjev::djidjev_apsp;
use ear_apsp::{build_oracle, ApspMethod};
use ear_bench::{build_apsp, mteps, BenchOpts, Table};
use ear_hetero::HeteroExecutor;
use ear_workloads::specs::{planar_specs, table1_specs};

fn main() {
    let opts = BenchOpts::from_args();
    let exec = HeteroExecutor::cpu_gpu();

    println!("Figure 3 — MTEPS (m*n / time / 1e6), higher is better\n");
    let mut t = Table::new(&["Graph", "class", "Ours MTEPS", "Baseline MTEPS", "Baseline"]);
    for spec in table1_specs() {
        let (g, _) = build_apsp(&spec, &opts);
        let ours = build_oracle(&g, &exec, ApspMethod::Ear);
        let base = build_oracle(&g, &exec, ApspMethod::Plain);
        t.row(vec![
            spec.name.to_string(),
            "general".into(),
            format!("{:.0}", mteps(g.n(), g.m(), ours.modelled_time_s())),
            format!("{:.0}", mteps(g.n(), g.m(), base.modelled_time_s())),
            "Banerjee [4]".into(),
        ]);
    }
    for spec in planar_specs() {
        let (g, _) = build_apsp(&spec, &opts);
        let ours = build_oracle(&g, &exec, ApspMethod::Ear);
        let k = ((g.n() as f64).sqrt() / 4.0).round().max(2.0) as usize;
        let dj = djidjev_apsp(&g, k, &exec);
        t.row(vec![
            spec.name.to_string(),
            "planar".into(),
            format!("{:.0}", mteps(g.n(), g.m(), ours.modelled_time_s())),
            format!("{:.0}", mteps(g.n(), g.m(), dj.modelled_time_s())),
            "Djidjev [12]".into(),
        ]);
    }
    t.print();
    println!("\nOur Approach should post the higher MTEPS on every row, with the");
    println!("margin growing with the degree-2 share (paper Figure 3).");
}
