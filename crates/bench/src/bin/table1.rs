//! Regenerates the paper's **Table 1**: dataset statistics and memory.
//!
//! For each of the fifteen synthetic dataset analogs: `|V|`, `|E|`, number
//! of biconnected components, largest-BCC edge share, nodes removed by the
//! ear preprocessing, and the paper's memory accounting ("Our's Memory" =
//! `a² + Σ nᵢ²` 4-byte entries vs "Max Memory" = `n²`). The `paper` columns
//! print the published percentages for side-by-side comparison.
//!
//! ```text
//! cargo run --release -p ear-bench --bin table1 [-- --scale N --seed S]
//! ```

#![forbid(unsafe_code)]

use ear_bench::{build_apsp, BenchOpts, Table};
use ear_workloads::{specs::all_specs, GraphStats};

fn main() {
    let opts = BenchOpts::from_args();
    println!("Table 1 — dataset statistics (synthetic analogs; sizes = paper / scale)\n");
    let mut t = Table::new(&[
        "Graph",
        "scale",
        "|V|",
        "|E|",
        "#BCCs",
        "LargestBCC%",
        "(paper)",
        "Removed%",
        "(paper)",
        "Ours MB",
        "Reduced MB",
        "Max MB",
        "Ratio",
        "(paper ratio)",
    ]);
    for spec in all_specs() {
        let (g, scale) = build_apsp(&spec, &opts);
        let s = GraphStats::measure(&g);
        let ratio = s.ours_memory_mb() / s.max_memory_mb();
        let paper_ratio = spec.paper_ours_mb as f64 / spec.paper_max_mb as f64;
        t.row(vec![
            spec.name.to_string(),
            format!("1/{scale}"),
            s.n.to_string(),
            s.m.to_string(),
            s.n_bccs.to_string(),
            format!("{:.2}", s.largest_bcc_pct()),
            format!("{:.2}", spec.largest_bcc_pct),
            format!("{:.2}", s.removed_pct()),
            format!("{:.2}", spec.removed_pct),
            format!("{:.1}", s.ours_memory_mb()),
            format!("{:.1}", s.reduced_memory_mb()),
            format!("{:.1}", s.max_memory_mb()),
            format!("{:.2}", ratio),
            format!("{:.2}", paper_ratio),
        ]);
    }
    t.print();
    println!("\nRatio < 1 means the paper's block-table layout beats the flat n^2 table;");
    println!("the measured ratios should track the (paper ratio) column. 'Reduced MB'");
    println!("is the a^2 + sum((n_i^r)^2) variant that stores only reduced-block tables");
    println!("and extends to removed vertices on demand — the storage level the paper's");
    println!("published MB figures for the chain-heavy rows imply (see EXPERIMENTS.md).");
}
