//! Regenerates the paper's **Figure 2**: absolute APSP time of "Our
//! Approach" vs Banerjee et al. (general graphs) and vs Djidjev et al.
//! (planar graphs), plus the per-graph and average speedups.
//!
//! Paper result to compare against: 1.7x average over Banerjee on general
//! graphs, 2.2x average over Djidjev on planar graphs.
//!
//! Before a general-graph row is printed, the Ours (`ApspMethod::Ear`),
//! Banerjee (`Plain`) and reduced-table (`Reduced`) oracles must agree on
//! a seeded sample of pairs; a mismatch aborts the run.
//!
//! ```text
//! cargo run --release -p ear-bench --bin fig2_apsp [-- --scale N]
//! ```

#![forbid(unsafe_code)]

use ear_apsp::djidjev::djidjev_apsp;
use ear_apsp::{build_oracle, ApspMethod, DistanceOracle};
use ear_bench::{build_apsp, fmt_s, geomean, BenchOpts, Table};
use ear_hetero::HeteroExecutor;
use ear_testkit::TestRng;
use ear_workloads::specs::{planar_specs, table1_specs};

/// Pairs sampled per graph for the agreement check.
const SAMPLED_PAIRS: usize = 4096;

/// Panics unless every oracle answers like `oracles[0]` on
/// `SAMPLED_PAIRS` pairs drawn from `seed`.
fn assert_agree(name: &str, n: usize, oracles: &[&DistanceOracle], seed: u64) {
    let mut rng = TestRng::new(seed);
    for _ in 0..SAMPLED_PAIRS {
        let (u, v) = (rng.usize_in(0, n) as u32, rng.usize_in(0, n) as u32);
        let want = oracles[0].dist(u, v);
        for o in &oracles[1..] {
            let (a, b) = (oracles[0].method(), o.method());
            assert_eq!(
                o.dist(u, v),
                want,
                "{name}: {a:?} and {b:?} disagree on d({u},{v})"
            );
        }
    }
}

fn main() {
    let opts = BenchOpts::from_args();
    let exec = HeteroExecutor::cpu_gpu();
    // Names the host for any wall clock read beside these tables; the
    // modelled times below depend on neither value.
    println!(
        "threads={} row kernels={}\n",
        ear_graph::pool::threads(),
        ear_graph::kernel_path()
    );

    println!("Figure 2a — general graphs: Our Approach vs Banerjee et al. [4]\n");
    let mut t = Table::new(&["Graph", "n", "m", "Ours", "Banerjee", "Speedup"]);
    let mut speedups = Vec::new();
    for spec in table1_specs() {
        let (g, _) = build_apsp(&spec, &opts);
        let ours = build_oracle(&g, &exec, ApspMethod::Ear);
        let base = build_oracle(&g, &exec, ApspMethod::Plain);
        let reduced = build_oracle(&g, &exec, ApspMethod::Reduced);
        assert_agree(spec.name, g.n(), &[&ours, &base, &reduced], opts.seed);
        let (to, tb) = (ours.modelled_time_s(), base.modelled_time_s());
        speedups.push(tb / to);
        t.row(vec![
            spec.name.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            fmt_s(to),
            fmt_s(tb),
            format!("{:.2}x", tb / to),
        ]);
    }
    t.print();
    println!(
        "\naverage speedup (geomean): {:.2}x   [paper: 1.7x]\n",
        geomean(&speedups)
    );

    println!("Figure 2b — planar graphs: Our Approach vs Djidjev et al. [12]\n");
    let mut t = Table::new(&["Graph", "n", "m", "k", "Ours", "Djidjev", "Speedup"]);
    let mut speedups = Vec::new();
    for spec in planar_specs() {
        let (g, _) = build_apsp(&spec, &opts);
        let ours = build_oracle(&g, &exec, ApspMethod::Ear);
        // Djidjev et al. tune the part count; give the baseline its best k
        // so the comparison is fair.
        let dj = [2usize, 4, 8]
            .into_iter()
            .map(|k| djidjev_apsp(&g, k, &exec))
            .min_by(|a, b| {
                a.modelled_time_s()
                    .partial_cmp(&b.modelled_time_s())
                    .unwrap()
            })
            .unwrap();
        let (to, td) = (ours.modelled_time_s(), dj.modelled_time_s());
        speedups.push(td / to);
        t.row(vec![
            spec.name.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            dj.k.to_string(),
            fmt_s(to),
            fmt_s(td),
            format!("{:.2}x", td / to),
        ]);
    }
    t.print();
    println!(
        "\naverage speedup (geomean): {:.2}x   [paper: 2.2x]",
        geomean(&speedups)
    );
}
