//! Road-network APSP: the paper's motivating scenario for the ear
//! reduction.
//!
//! Road networks are planar-ish meshes where long stretches of road between
//! junctions appear as chains of degree-2 vertices — exactly what the ear
//! reduction contracts. This example synthesises a small highway+local-road
//! network, builds the distance oracle with and without ear reduction, and
//! compares work, modelled time and memory.
//!
//! ```text
//! cargo run --release --example road_network
//! ```

use ear_apsp::{build_oracle, ApspMethod};
use ear_mcb::ExecMode;
use ear_workloads::combinators::subdivide_edges;
use ear_workloads::generators::grid;

fn main() {
    // A 14x14 junction grid ("city blocks"), then every road is subdivided
    // into 3 segments — the degree-2 "road geometry" vertices.
    let junctions = grid(26, 26, 2026);
    let roads = subdivide_edges(&junctions, junctions.m(), 3, 7);
    println!(
        "road network: {} junctions -> {} nodes after geometry, {} segments",
        junctions.n(),
        roads.n(),
        roads.m()
    );

    let exec = ExecMode::Hetero.executor();
    let ours = build_oracle(&roads, &exec, ApspMethod::Ear);
    let baseline = build_oracle(&roads, &exec, ApspMethod::Plain);

    let s = ours.stats();
    println!("\n== preprocessing ==");
    println!(
        "degree-2 vertices removed: {} of {} ({:.1}%)",
        s.removed_vertices,
        s.n,
        100.0 * s.removed_vertices as f64 / s.n as f64
    );

    println!("\n== work comparison (edge relaxations in the Dijkstra phase) ==");
    let ours_relax = ours.processing.total_counters().edges_relaxed;
    let base_relax = baseline.processing.total_counters().edges_relaxed;
    println!("  with ear reduction:    {ours_relax:>12}");
    println!("  without (Banerjee):    {base_relax:>12}");
    println!(
        "  reduction factor:      {:>11.2}x",
        base_relax as f64 / ours_relax as f64
    );

    println!("\n== modelled heterogeneous time ==");
    let (ours_s, base_s) = (ours.modelled_time_s(), baseline.modelled_time_s());
    println!("  with ear reduction:    {:.3} ms", ours_s * 1e3);
    println!("  without:               {:.3} ms", base_s * 1e3);
    println!(
        "  speedup:               {:.2}x (paper reports 1.7x on average)",
        base_s / ours_s
    );

    // Sample routes between far corners and mid-network points.
    println!("\n== sample routes ==");
    let far = (roads.n() - 1) as u32;
    for (a, b) in [(0u32, far), (0, far / 2), (far / 3, far)] {
        let (d1, d2) = (ours.dist(a, b), baseline.dist(a, b));
        assert_eq!(d1, d2, "both oracles must agree");
        println!("  d({a:>4}, {b:>4}) = {d1}");
    }

    println!("\n== memory (paper Table 1 accounting, 4-byte entries) ==");
    println!(
        "  block tables + AP table: {:.1} MB  vs flat n^2 table: {:.1} MB",
        s.memory_bytes_f32() as f64 / (1024.0 * 1024.0),
        s.max_memory_bytes_f32() as f64 / (1024.0 * 1024.0),
    );
}
