//! Ring perception in molecules via minimum cycle basis.
//!
//! The paper motivates MCB with applications in biochemistry (Gleiss,
//! "minimum cycle bases of graphs from chemistry and biochemistry"): the
//! *smallest set of smallest rings* of a molecule is (close to) a minimum
//! cycle basis of its bond graph. This example encodes two fused-ring
//! molecules as graphs and extracts their ring systems.
//!
//! ```text
//! cargo run --release --example molecule_rings
//! ```

use ear_graph::{CsrGraph, GraphBuilder, VertexId, Weight};
use ear_mcb::verify::is_simple_cycle;
use ear_mcb::{mcb, ExecMode, McbConfig};

/// Naphthalene: two fused benzene rings (C10H8 skeleton, hydrogens
/// omitted). Vertices are carbons; all bonds weight 1.
fn naphthalene() -> CsrGraph {
    let bonds: &[(u32, u32)] = &[
        // first ring 0..5
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 0),
        // fusion bond is (4,5)'s neighbours: second ring on 4,5,6,7,8,9
        (5, 6),
        (6, 7),
        (7, 8),
        (8, 9),
        (9, 4),
    ];
    let edges: Vec<(u32, u32, Weight)> = bonds.iter().map(|&(a, b)| (a, b, 1)).collect();
    CsrGraph::from_edges(10, &edges)
}

/// Steroid-like fused tetracycle (gonane skeleton, 17 carbons): three
/// six-rings and one five-ring sharing edges.
fn gonane() -> CsrGraph {
    let bonds: &[(u32, u32)] = &[
        // ring A (0-5)
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 0),
        // ring B shares bond (3,4): vertices 3,4,6,7,8,9
        (4, 6),
        (6, 7),
        (7, 8),
        (8, 9),
        (9, 3),
        // ring C shares bond (7,8): vertices 7,8,10,11,12,13
        (8, 10),
        (10, 11),
        (11, 12),
        (12, 13),
        (13, 7),
        // ring D (five-membered) shares bond (11,12): vertices 11,12,14,15,16
        (12, 14),
        (14, 15),
        (15, 16),
        (16, 11),
    ];
    let edges: Vec<(u32, u32, Weight)> = bonds.iter().map(|&(a, b)| (a, b, 1)).collect();
    CsrGraph::from_edges(17, &edges)
}

fn report(name: &str, g: &CsrGraph, expected_rings: &[usize]) {
    let basis = mcb(
        g,
        &McbConfig {
            mode: ExecMode::MultiCore,
            use_ear: true,
        },
    );
    println!("== {name} ==");
    println!(
        "atoms {}, bonds {}, ring count (cyclomatic) {}",
        g.n(),
        g.m(),
        basis.dim
    );
    let mut sizes: Vec<usize> = basis.cycles.iter().map(|c| c.edges.len()).collect();
    sizes.sort_unstable();
    println!("ring sizes: {sizes:?} (expected {expected_rings:?})");
    assert_eq!(sizes, expected_rings, "{name}: wrong ring system");
    for (i, c) in basis.cycles.iter().enumerate() {
        assert!(
            is_simple_cycle(g, &c.edges),
            "ring {i} must be a simple cycle"
        );
        let mut atoms: Vec<u32> = c
            .edges
            .iter()
            .flat_map(|&e| {
                let r = g.edge(e);
                [r.u, r.v]
            })
            .collect();
        atoms.sort_unstable();
        atoms.dedup();
        println!("  ring {i}: {} atoms {atoms:?}", atoms.len());
    }
    println!();
}

fn main() {
    report("naphthalene (2 fused six-rings)", &naphthalene(), &[6, 6]);
    report(
        "gonane (steroid skeleton: 6-6-6-5)",
        &gonane(),
        &[5, 6, 6, 6],
    );

    // The ring systems above are small; show the ear reduction earning its
    // keep on a polymer: a long chain of naphthalene units connected by
    // 4-carbon linkers (all degree-2 — contracted away).
    let unit = naphthalene();
    let mut b = GraphBuilder::new(0);
    let mut last_exit: Option<VertexId> = None;
    for _ in 0..12 {
        let base = b.n() as u32;
        b.grow_to(b.n() + unit.n());
        for e in unit.edges() {
            b.add_edge(base + e.u, base + e.v, e.w);
        }
        if let Some(prev) = last_exit {
            // 4-carbon linker between units.
            let mut at = prev;
            for _ in 0..4 {
                let c = b.add_vertex();
                b.add_edge(at, c, 1);
                at = c;
            }
            b.add_edge(at, base, 1);
        }
        last_exit = Some(base + 7);
    }
    let polymer = b.build();
    let basis = mcb(&polymer, &McbConfig::default());
    println!("== polymer of 12 naphthalene units ==");
    println!(
        "atoms {}, bonds {}, rings {}, total ring weight {}",
        polymer.n(),
        polymer.m(),
        basis.dim,
        basis.total_weight
    );
    // The linker carbons sit on bridges (acyclic blocks the pipeline skips
    // outright); the contracted vertices are the degree-2 ring carbons
    // inside each naphthalene block — 8 of its 10 carbons.
    println!(
        "degree-2 ring carbons contracted by ear reduction: {}",
        basis.removed_vertices
    );
    assert_eq!(basis.dim, 24, "12 units x 2 rings");
}
