//! Regenerates the paper's **Figure 6**: absolute times of the Sequential,
//! Multi-core, GPU and heterogeneous MCB implementations (with ear
//! decomposition), the bar-chart companion to Table 2.
//!
//! ```text
//! cargo run --release -p ear-bench --bin fig6_absolute [-- --scale N]
//! ```

#![forbid(unsafe_code)]

use ear_bench::{build_mcb, fmt_s, BenchOpts, Table};
use ear_mcb::mcb_all_modes;
use ear_workloads::specs::mcb_specs;

fn main() {
    let opts = BenchOpts::from_args();
    println!("Figure 6 — absolute MCB times (with ear decomposition)\n");
    let mut t = Table::new(&[
        "Graph",
        "f (dim)",
        "Sequential",
        "Multi-Core",
        "GPU",
        "CPU+GPU",
    ]);
    for spec in mcb_specs() {
        let (g, _) = build_mcb(&spec, &opts);
        let (res, profiles) = mcb_all_modes(&g, true);
        let mut cells = vec![spec.name.to_string(), res.dim.to_string()];
        for prof in &profiles {
            cells.push(fmt_s(prof.total_s()));
        }
        t.row(cells);
    }
    t.print();
    println!("\nExpected shape (the paper's Figure 6 bar heights): Sequential slowest,");
    println!("CPU+GPU fastest, GPU ahead of Multi-Core wherever the reduced graph keeps");
    println!("per-phase arrays big enough to amortise kernel launches.");
}
