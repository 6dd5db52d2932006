//! Quickstart: the whole suite on a small graph.
//!
//! Builds the graph of the paper's running example style — two hubs joined
//! by degree-2 ears — then runs both pipelines and prints what each phase
//! did.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ear_apsp::{build_oracle, ApspMethod};
use ear_decomp::{ear_decomposition, DecompPlan};
use ear_graph::GraphBuilder;
use ear_mcb::{mcb, ExecMode, McbConfig};

fn main() {
    // Two hub vertices (0 and 1) joined by three ears, plus a pendant
    // triangle hanging off vertex 1 through a bridge.
    //
    //        2 --- 3             8
    //       /       \           / \
    //      0 -- 4 -- 1 -- 7 -- 9---+
    //       \       /
    //        5 --- 6
    let mut b = GraphBuilder::new(10);
    b.add_edge(0, 2, 1);
    b.add_edge(2, 3, 2);
    b.add_edge(3, 1, 1);
    b.add_edge(0, 4, 2);
    b.add_edge(4, 1, 2);
    b.add_edge(0, 5, 3);
    b.add_edge(5, 6, 1);
    b.add_edge(6, 1, 3);
    b.add_edge(1, 7, 5); // bridge into the satellite triangle
    b.add_edge(7, 9, 1);
    b.add_edge(9, 8, 2);
    b.add_edge(8, 7, 4);
    let g = b.build();

    println!("== input ==");
    println!("n = {}, m = {}", g.n(), g.m());

    // Structure: one decomposition plan fronts the biconnected split, the
    // block-cut tree and the per-block reductions for everything below.
    let plan = DecompPlan::build(&g);
    println!("\n== decomposition ==");
    println!("biconnected components: {}", plan.n_blocks());
    println!("articulation points:    {:?}", plan.bct().aps);
    let largest = plan.blocks_by_size_desc()[0] as u32;
    // block_graph works for both block layouts; materialize for the
    // owned-graph ear-decomposition API.
    let block = plan.block_graph(largest).materialize();
    match ear_decomposition(&block) {
        Ok(d) => {
            println!("largest block has {} ears:", d.ears.len());
            for (i, ear) in d.ears.iter().enumerate() {
                println!(
                    "  ear {i}: {} edges, {} ({:?})",
                    ear.edges.len(),
                    if ear.is_cycle { "cycle" } else { "open path" },
                    ear.vertices
                );
            }
        }
        Err(e) => println!("largest block not biconnected: {e}"),
    }
    let r = plan.reduction(largest).expect("largest block is simple");
    println!(
        "reduced graph: {} -> {} vertices ({} degree-2 vertices contracted)",
        block.n(),
        r.reduced.n(),
        r.removed_count()
    );

    // APSP.
    println!("\n== all-pairs shortest paths (Algorithm 1) ==");
    let oracle = build_oracle(&g, &ExecMode::Hetero.executor(), ApspMethod::Ear);
    let st = oracle.stats();
    println!(
        "stored {} table entries vs {} for a flat n x n table",
        st.table_entries, st.max_entries
    );
    for (u, v) in [(0u32, 1u32), (2, 6), (0, 8), (4, 9)] {
        println!("  d({u},{v}) = {}", oracle.dist(u, v));
    }
    println!(
        "modelled heterogeneous build time: {:.3} us",
        oracle.modelled_time_s() * 1e6
    );

    // MCB.
    println!("\n== minimum cycle basis (Algorithm 2 + Lemma 3.1) ==");
    let basis = mcb(&g, &McbConfig::default());
    println!(
        "dimension {} (= m - n + k), total weight {}",
        basis.dim, basis.total_weight
    );
    for (i, c) in basis.cycles.iter().enumerate() {
        println!("  cycle {i}: weight {:>3}, edges {:?}", c.weight, c.edges);
    }
    println!(
        "ear reduction removed {} vertices before the witness phases",
        basis.removed_vertices
    );
    let (l, s, u) = basis.profile.shares();
    println!(
        "phase shares: labels {:.0}%, search {:.0}%, update {:.0}% (paper: 76/14/8)",
        l * 100.0,
        s * 100.0,
        u * 100.0
    );
}
