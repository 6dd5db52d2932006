//! Internet AS-topology analysis — the paper's `as-22july06` scenario.
//!
//! Autonomous-system graphs are extreme ear-decomposition material: the
//! paper's snapshot loses 77.6% of its vertices to degree-2 contraction.
//! This example builds the synthetic analog, runs the APSP oracle, and
//! reports everything a network operator would ask of it: routing-table
//! distances, actual AS paths, reachability, the memory story, and the
//! MTEPS scalability metric of the paper's Figure 3.
//!
//! ```text
//! cargo run --release --example internet_topology
//! ```

use ear_apsp::{build_oracle, ApspMethod};
use ear_graph::INF;
use ear_mcb::ExecMode;
use ear_workloads::specs::table1_specs;
use ear_workloads::GraphStats;

fn main() {
    // The as-22july06 analog at 1/40 of the published size.
    let spec = &table1_specs()[3];
    assert_eq!(spec.name, "as-22july06");
    let g = spec.build(40, 2026);
    println!(
        "AS topology analog: {} ASes, {} peering links (paper row: {}K/{}K)",
        g.n(),
        g.m(),
        spec.n / 1000,
        spec.m / 1000
    );

    let stats = GraphStats::measure(&g);
    println!(
        "degree-2 share: {:.1}% (paper: {:.1}%), biconnected components: {}",
        stats.removed_pct(),
        spec.removed_pct,
        stats.n_bccs
    );

    // Build the oracle on the heterogeneous platform.
    let exec = ExecMode::Hetero.executor();
    let o = build_oracle(&g, &exec, ApspMethod::Ear);
    let plain = build_oracle(&g, &exec, ApspMethod::Plain);
    let (ours_s, plain_s) = (o.modelled_time_s(), plain.modelled_time_s());

    println!("\n== modelled build time (CPU+GPU) ==");
    println!("  with ear reduction:  {:.2} ms", ours_s * 1e3);
    println!("  without (Banerjee):  {:.2} ms", plain_s * 1e3);
    println!("  speedup:             {:.2}x", plain_s / ours_s);
    let mteps = |t: f64| (g.n() as f64 * g.m() as f64) / t / 1e6;
    println!(
        "  MTEPS (fig. 3):      {:.0} vs {:.0}",
        mteps(ours_s),
        mteps(plain_s)
    );

    println!("\n== memory (4-byte entries) ==");
    println!(
        "  flat n^2 table:      {:>8.1} MB",
        o.stats().max_memory_bytes_f32() as f64 / (1024.0 * 1024.0)
    );
    println!(
        "  block tables + A:    {:>8.1} MB",
        o.stats().memory_bytes_f32() as f64 / (1024.0 * 1024.0)
    );
    println!(
        "  reduced tables + A:  {:>8.1} MB (on-demand extension variant)",
        stats.reduced_memory_mb()
    );

    // Routing queries: hub-to-edge and edge-to-edge paths.
    println!("\n== sample AS routes ==");
    let hub = (0..g.n() as u32).max_by_key(|&v| g.degree(v)).unwrap();
    let leaf = (0..g.n() as u32)
        .filter(|&v| g.degree(v) == 1)
        .max_by_key(|&v| o.dist(hub, v))
        .unwrap_or(0);
    let far = (0..g.n() as u32)
        .max_by_key(|&v| {
            let d = o.dist(leaf, v);
            if d >= INF {
                0
            } else {
                d
            }
        })
        .unwrap();
    for (a, b, label) in [
        (hub, leaf, "hub -> farthest stub"),
        (leaf, far, "stub -> farthest AS (network diameter path)"),
    ] {
        match o.path(&g, a, b) {
            Some(p) => println!(
                "  {label}: d({a},{b}) = {} over {} hops\n    {:?}",
                o.dist(a, b),
                p.len() - 1,
                p
            ),
            None => println!("  {label}: unreachable"),
        }
    }

    // Consistency spot check against a fresh Dijkstra.
    let d = ear_graph::dijkstra(&g, hub);
    for v in (0..g.n() as u32).step_by((g.n() / 29).max(1)) {
        assert_eq!(o.dist(hub, v), d[v as usize]);
    }
    println!("\noracle verified against direct Dijkstra from AS {hub}.");
}
