//! Regenerates the paper's **Table 2**: MCB time for the four execution
//! modes (Sequential / Multi-Core / GPU / CPU+GPU), each with ('w') and
//! without ('w/o') ear decomposition, on the first seven Table 1 graphs.
//!
//! Also prints the §3.5 phase breakdown (paper: label
//! computation 76%, minimum-weight-cycle search 14%, independence test 8%)
//! and the per-mode ear-decomposition speedups (paper: 3.1x / 2.7x / 2.5x /
//! 2.7x averages).
//!
//! ```text
//! cargo run --release -p ear-bench --bin table2_mcb [-- --scale N]
//! ```

#![forbid(unsafe_code)]

use ear_bench::{build_mcb, fmt_s, geomean, BenchOpts, Table};
use ear_mcb::{mcb_all_modes, ExecMode};
use ear_workloads::specs::mcb_specs;

fn main() {
    let opts = BenchOpts::from_args();
    println!("Table 2 — MCB timings, four implementations, w/ and w/o ear decomposition\n");
    let mut t = Table::new(&[
        "Graph", "n", "m", "Seq w", "Seq w/o", "MC w", "MC w/o", "GPU w", "GPU w/o", "Het w",
        "Het w/o",
    ]);
    // speedup accumulators per mode: w/o divided by w.
    let mut ear_speedup: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let mut phase_rows: Vec<(String, f64, f64, f64)> = Vec::new();

    for spec in mcb_specs() {
        let (g, _) = build_mcb(&spec, &opts);
        // Run the real computation once per ear-toggle; score every device
        // mode from the recorded trace.
        let (res_w, prof_w) = mcb_all_modes(&g, true);
        let (res_wo, prof_wo) = mcb_all_modes(&g, false);
        assert_eq!(
            res_w.total_weight, res_wo.total_weight,
            "ear toggle must not change the basis weight"
        );
        let mut cells = vec![spec.name.to_string(), g.n().to_string(), g.m().to_string()];
        for mi in 0..4 {
            let (tw, two) = (prof_w[mi].total_s(), prof_wo[mi].total_s());
            ear_speedup[mi].push(two / tw);
            cells.push(fmt_s(tw));
            cells.push(fmt_s(two));
            if mi == 3 {
                let (l, s, u) = prof_w[mi].shares();
                phase_rows.push((spec.name.to_string(), l, s, u));
            }
        }
        t.row(cells);
    }
    t.print();

    println!("\near-decomposition speedup per mode (geomean of w/o ÷ w):");
    let paper = [3.1, 2.7, 2.5, 2.7];
    for (mi, mode) in ExecMode::all().into_iter().enumerate() {
        println!(
            "  {:<11} {:.2}x   [paper: {:.1}x]",
            mode.name(),
            geomean(&ear_speedup[mi]),
            paper[mi]
        );
    }

    println!("\nPhase breakdown of the CPU+GPU w/ ear runs (paper §3.5: 76% / 14% / 8%):");
    let mut pt = Table::new(&["Graph", "labels %", "search %", "update %"]);
    for (name, l, s, u) in &phase_rows {
        pt.row(vec![
            name.clone(),
            format!("{:.0}", l * 100.0),
            format!("{:.0}", s * 100.0),
            format!("{:.0}", u * 100.0),
        ]);
    }
    pt.print();
}
