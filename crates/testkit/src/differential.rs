//! The differential harness: one registry of every APSP implementation
//! and every MCB configuration in the workspace, cross-validated on a
//! single input graph.
//!
//! The paper's reduced-graph algorithms are only worth benchmarking if
//! they are *exact*, so the harness treats the simplest implementation as
//! ground truth (Floyd–Warshall for APSP, Horton/signed for MCB) and
//! demands bit-exact agreement from everything else — every execution
//! mode, every reduction toggle, every oracle layout. A disagreement is
//! returned as a [`Divergence`] naming both sides, so the property runner
//! can attach the replayable seed.

use ear_apsp::baselines::{floyd_warshall, plain_apsp};
use ear_apsp::djidjev::djidjev_apsp;
use ear_apsp::oracle::{build_oracle, ApspMethod};
use ear_apsp::DistMatrix;
use ear_graph::CsrGraph;
use ear_hetero::HeteroExecutor;
use ear_mcb::ear_mcb::{mcb, ExecMode, McbConfig};
use ear_mcb::{depina_mcb, horton_mcb, signed_mcb, verify_basis, Cycle, DepinaOptions};

/// A disagreement between two implementations on one input.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Name of the reference implementation.
    pub reference: String,
    /// Name of the implementation that disagreed.
    pub candidate: String,
    /// Human-readable description of the first difference found.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "'{}' diverges from '{}': {}",
            self.candidate, self.reference, self.detail
        )
    }
}

/// Boxed runner computing a full distance matrix for one graph.
pub type ApspRunner = Box<dyn Fn(&CsrGraph) -> DistMatrix>;

/// Boxed runner computing a cycle basis for one graph.
pub type McbRunner = Box<dyn Fn(&CsrGraph) -> Vec<Cycle>>;

/// One APSP implementation: a display name, whether it requires a simple
/// input graph, and the full-matrix runner.
pub struct ApspImpl {
    /// Registry name (shown in divergence reports).
    pub name: &'static str,
    /// True for implementations built on ear reduction / BCC splitting,
    /// which assert simplicity.
    pub simple_only: bool,
    /// Computes the full distance matrix.
    pub run: ApspRunner,
}

/// Every APSP implementation in the workspace, reference first:
/// Floyd–Warshall, plain all-sources Dijkstra (sequential and CPU+GPU),
/// Djidjev partition APSP (k = 2 and 4), and the block-cut-tree oracle
/// under every build method (`Ear` and `Reduced` on both executors).
pub fn apsp_implementations() -> Vec<ApspImpl> {
    vec![
        ApspImpl {
            name: "floyd_warshall",
            simple_only: false,
            run: Box::new(floyd_warshall),
        },
        ApspImpl {
            name: "plain_apsp/sequential",
            simple_only: false,
            run: Box::new(|g| plain_apsp(g, &HeteroExecutor::sequential()).0),
        },
        ApspImpl {
            name: "plain_apsp/cpu_gpu",
            simple_only: false,
            run: Box::new(|g| plain_apsp(g, &HeteroExecutor::cpu_gpu()).0),
        },
        ApspImpl {
            name: "djidjev_apsp/k2",
            simple_only: true,
            run: Box::new(|g| djidjev_apsp(g, 2, &HeteroExecutor::sequential()).dist),
        },
        ApspImpl {
            name: "djidjev_apsp/k4",
            simple_only: true,
            run: Box::new(|g| djidjev_apsp(g, 4, &HeteroExecutor::cpu_gpu()).dist),
        },
        ApspImpl {
            name: "oracle/ear",
            simple_only: true,
            run: Box::new(|g| {
                build_oracle(g, &HeteroExecutor::sequential(), ApspMethod::Ear).materialize()
            }),
        },
        ApspImpl {
            name: "oracle/ear/cpu_gpu",
            simple_only: true,
            run: Box::new(|g| {
                build_oracle(g, &HeteroExecutor::cpu_gpu(), ApspMethod::Ear).materialize()
            }),
        },
        ApspImpl {
            name: "oracle/plain",
            simple_only: true,
            run: Box::new(|g| {
                build_oracle(g, &HeteroExecutor::sequential(), ApspMethod::Plain).materialize()
            }),
        },
        ApspImpl {
            name: "oracle/reduced",
            simple_only: true,
            run: Box::new(|g| {
                build_oracle(g, &HeteroExecutor::sequential(), ApspMethod::Reduced).materialize()
            }),
        },
        ApspImpl {
            name: "oracle/reduced/cpu_gpu",
            simple_only: true,
            run: Box::new(|g| {
                build_oracle(g, &HeteroExecutor::cpu_gpu(), ApspMethod::Reduced).materialize()
            }),
        },
    ]
}

fn first_matrix_diff(a: &DistMatrix, b: &DistMatrix) -> Option<String> {
    if a.n() != b.n() {
        return Some(format!("matrix sizes differ: {} vs {}", a.n(), b.n()));
    }
    for i in 0..a.n() as u32 {
        for j in 0..a.n() as u32 {
            if a.get(i, j) != b.get(i, j) {
                return Some(format!("d({i},{j}): {} vs {}", a.get(i, j), b.get(i, j)));
            }
        }
    }
    None
}

/// Runs every applicable APSP implementation on `g` and compares each
/// against Floyd–Warshall, entry by entry. Implementations that require a
/// simple graph are skipped on multigraphs.
pub fn cross_validate_apsp(g: &CsrGraph) -> Result<(), Divergence> {
    let impls = apsp_implementations();
    let simple = g.is_simple();
    let reference = (impls[0].run)(g);
    for imp in &impls[1..] {
        if imp.simple_only && !simple {
            continue;
        }
        let got = (imp.run)(g);
        if let Some(detail) = first_matrix_diff(&reference, &got) {
            return Err(Divergence {
                reference: impls[0].name.to_string(),
                candidate: imp.name.to_string(),
                detail,
            });
        }
    }
    Ok(())
}

/// One MCB configuration: name, simplicity requirement, and a runner
/// returning the basis cycles (edge ids of the input graph).
pub struct McbImpl {
    /// Registry name (shown in divergence reports).
    pub name: &'static str,
    /// True for configurations that route through per-block ear
    /// reduction, which asserts simplicity.
    pub simple_only: bool,
    /// Computes a minimum cycle basis.
    pub run: McbRunner,
}

/// Every MCB implementation/configuration in the workspace, reference
/// first: Horton's algorithm, the signed-graph algorithm, de Pina under a
/// sequential executor, and the full pipeline under all four execution
/// modes with the ear reduction both off and on.
pub fn mcb_implementations() -> Vec<McbImpl> {
    let mut impls: Vec<McbImpl> = vec![
        McbImpl {
            name: "signed",
            simple_only: false,
            run: Box::new(signed_mcb),
        },
        McbImpl {
            name: "horton",
            simple_only: true,
            run: Box::new(horton_mcb),
        },
        McbImpl {
            name: "depina/sequential",
            simple_only: false,
            run: Box::new(|g| {
                depina_mcb(g, &HeteroExecutor::sequential(), &DepinaOptions::default()).0
            }),
        },
    ];
    for mode in ExecMode::all() {
        for use_ear in [false, true] {
            let name: &'static str = match (mode, use_ear) {
                (ExecMode::Sequential, false) => "mcb/Sequential/plain",
                (ExecMode::Sequential, true) => "mcb/Sequential/ear",
                (ExecMode::MultiCore, false) => "mcb/Multi-Core/plain",
                (ExecMode::MultiCore, true) => "mcb/Multi-Core/ear",
                (ExecMode::Gpu, false) => "mcb/GPU/plain",
                (ExecMode::Gpu, true) => "mcb/GPU/ear",
                (ExecMode::Hetero, false) => "mcb/CPU+GPU/plain",
                (ExecMode::Hetero, true) => "mcb/CPU+GPU/ear",
            };
            impls.push(McbImpl {
                name,
                simple_only: true,
                run: Box::new(move |g| mcb(g, &McbConfig { mode, use_ear }).cycles),
            });
        }
    }
    impls
}

/// Runs every applicable MCB configuration on `g`, checks each result is
/// a valid basis, and compares total weight and dimension against the
/// reference (the signed-graph algorithm, which accepts multigraphs).
/// Cycle *sets* may legitimately differ — the minimum basis need not be
/// unique — so only the invariant quantities are compared.
pub fn cross_validate_mcb(g: &CsrGraph) -> Result<(), Divergence> {
    let impls = mcb_implementations();
    let simple = g.is_simple();
    let ref_cycles = (impls[0].run)(g);
    let ref_name = impls[0].name;
    if let Err(detail) = verify_basis(g, &ref_cycles) {
        return Err(Divergence {
            reference: "verify_basis".to_string(),
            candidate: ref_name.to_string(),
            detail,
        });
    }
    let ref_weight: u64 = ref_cycles.iter().map(|c| c.weight).sum();
    for imp in &impls[1..] {
        if imp.simple_only && !simple {
            continue;
        }
        let cycles = (imp.run)(g);
        if let Err(detail) = verify_basis(g, &cycles) {
            return Err(Divergence {
                reference: "verify_basis".to_string(),
                candidate: imp.name.to_string(),
                detail,
            });
        }
        let weight: u64 = cycles.iter().map(|c| c.weight).sum();
        if weight != ref_weight {
            return Err(Divergence {
                reference: ref_name.to_string(),
                candidate: imp.name.to_string(),
                detail: format!("basis weight {weight} vs {ref_weight}"),
            });
        }
        if cycles.len() != ref_cycles.len() {
            return Err(Divergence {
                reference: ref_name.to_string(),
                candidate: imp.name.to_string(),
                detail: format!("basis dimension {} vs {}", cycles.len(), ref_cycles.len()),
            });
        }
    }
    Ok(())
}

/// Cross-validates everything at once: all APSP implementations, then all
/// MCB configurations. Returns the first divergence found.
pub fn cross_validate(g: &CsrGraph) -> Result<(), Divergence> {
    cross_validate_apsp(g)?;
    cross_validate_mcb(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_cover_every_implementation() {
        // The tentpole's acceptance criterion: every APSP implementation
        // and every MCB mode is registered. 10 APSP entries; 3 standalone
        // MCB algorithms + 4 modes × 2 ear settings.
        assert_eq!(apsp_implementations().len(), 10);
        assert_eq!(mcb_implementations().len(), 11);
    }

    #[test]
    fn kitchen_sink_graph_cross_validates() {
        // Bridges + a dense block + a chain + a pendant: touches every
        // structural case at once.
        let g = CsrGraph::from_edges(
            10,
            &[
                (0, 1, 3),
                (1, 2, 1),
                (2, 0, 2),
                (2, 3, 4),
                (3, 4, 1),
                (4, 5, 1),
                (5, 3, 2),
                (5, 6, 1),
                (6, 7, 2),
                (7, 5, 2),
                (7, 8, 9),
                (0, 9, 1),
            ],
        );
        cross_validate(&g).unwrap();
    }

    #[test]
    fn multigraphs_use_the_reduced_registry() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 1), (0, 1, 2), (1, 2, 1), (2, 2, 5)]);
        assert!(!g.is_simple());
        cross_validate(&g).unwrap();
    }
}
