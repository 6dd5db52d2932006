//! Regenerates the paper's **Figure 5**: relative speedup of the
//! Multi-core, GPU and heterogeneous (CPU+GPU) MCB implementations over the
//! sequential one (all with ear decomposition), per graph and on average.
//!
//! Paper result: average speedups of 3x (multicore), 9x (GPU) and 11x
//! (CPU+GPU).
//!
//! ```text
//! cargo run --release -p ear-bench --bin fig5_speedup [-- --scale N]
//! ```

#![forbid(unsafe_code)]

use ear_bench::{build_mcb, geomean, BenchOpts, Table};
use ear_mcb::mcb_all_modes;
use ear_workloads::specs::mcb_specs;

fn main() {
    let opts = BenchOpts::from_args();
    println!("Figure 5 — MCB speedup over the sequential implementation\n");
    let mut t = Table::new(&["Graph", "Multi-Core", "GPU", "CPU+GPU"]);
    let mut acc: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for spec in mcb_specs() {
        let (g, _) = build_mcb(&spec, &opts);
        let (_, profiles) = mcb_all_modes(&g, true);
        let t_seq = profiles[0].total_s();
        let mut cells = vec![spec.name.to_string()];
        for (i, prof) in profiles[1..].iter().enumerate() {
            let sp = t_seq / prof.total_s();
            acc[i].push(sp);
            cells.push(format!("{sp:.2}x"));
        }
        t.row(cells);
    }
    t.print();
    println!("\naverages (geomean):");
    for (i, (name, paper)) in [("Multi-Core", 3.0), ("GPU", 9.0), ("CPU+GPU", 11.0)]
        .into_iter()
        .enumerate()
    {
        println!(
            "  {:<11} {:.2}x   [paper: {paper:.0}x]",
            name,
            geomean(&acc[i])
        );
    }
}
