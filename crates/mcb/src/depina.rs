//! The de Pina phase loop (paper Algorithm 2) with Mehlhorn–Michail
//! candidates, per-phase instrumentation and heterogeneous cost modelling,
//! executed on the packed GF(2) kernels of [`crate::kernels`].
//!
//! All `f` witnesses live as columns of one word-transposed
//! [`crate::kernels::BitMatrix`]; each of the `f` phases:
//! 1. **label pass** — extract witness `S_i` from matrix column `i`
//!    ([`crate::kernels::PackedWitness`]) and recompute every tree's labels
//!    against it (Algorithm 3) as one sweep over the flat per-tree
//!    edge-incidence packing ([`crate::kernels::TreePacks`]; parallel
//!    across trees past a size threshold);
//! 2. **search** — scan the weight-sorted candidate store for the first
//!    cycle non-orthogonal to `S_i` (O(1) packed test per candidate via
//!    [`crate::kernels::EdgePack`]; early exit);
//! 3. **independence test** — one batched row-XOR sweep updates every
//!    later witness at once: `acc = ⊕_{b ∈ C_i} T[b]` computes all dots
//!    `⟨C_i, S_j⟩` simultaneously, and `T[b] ^= mask(acc)` over the support
//!    of `S_i` applies `S_j ← S_j ⊕ S_i` to every flagged `j > i` (row
//!    blocks fan out on a parallel region past a volume threshold — the GPU
//!    mode's block-per-witness mapping, word-transposed).
//!
//! The batching changes *how* the work executes, never *what* the trace
//! records: the per-unit [`WorkCounters`] multisets equal those of the
//! scalar phase loop (one dense vector per witness, fresh labels per
//! phase; kept as the reference in `ear_testkit::reference`) exactly —
//! label groups are phase-invariant and precomputed, and the update
//! step's two-cost multiset (updated vs. untouched witnesses) comes from
//! the batch in closed form via [`ear_hetero::group_units_two`].
//! `tests/mcb_kernels_differential.rs` enforces byte-identical traces
//! against that reference.
//!
//! If the restricted candidate set has no non-orthogonal member (possible
//! when shortest-path ties defeat the Horton-set restriction), the phase
//! falls back to the exact signed-graph search — counted in
//! [`PhaseProfile::fallbacks`], zero on all of the suite's workloads but
//! load-bearing for worst-case correctness.

use ear_graph::CsrGraph;
use ear_hetero::{group_units, group_units_two, HeteroExecutor, WorkCounters};

use crate::candidates::{self, Candidates};
use crate::cycle_space::{Cycle, CycleSpace};
use crate::kernels::with_depina_scratch;
use crate::signed::min_cycle_nonorthogonal;

pub use ear_hetero::UnitGroups;

/// The recorded steps of one de Pina phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseSteps {
    /// Label pass (one unit per tree).
    pub labels: UnitGroups,
    /// Candidate scan (one unit per inspected candidate; the signed-search
    /// backstop's Dijkstras land here too when it fires).
    pub search: UnitGroups,
    /// Witness update (one unit per remaining witness).
    pub update: UnitGroups,
}

/// A full recording of the algorithm's work, independent of any device
/// model. The real computation runs exactly once; every execution mode is
/// scored by replaying this trace through its device profiles
/// ([`replay_trace`]) — which is sound because the algorithm is
/// deterministic and its results are mode-independent (asserted by the
/// cross-validation tests).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseTrace {
    /// Tree-construction phase (one unit per FVS vertex).
    pub tree: UnitGroups,
    /// Per-phase steps, in phase order.
    pub phases: Vec<PhaseSteps>,
    /// Phases that needed the signed-search backstop.
    pub fallbacks: usize,
}

impl PhaseTrace {
    /// Merges another trace (e.g. a different block's) into this one.
    pub fn merge(&mut self, other: PhaseTrace) {
        self.tree.extend(other.tree);
        self.phases.extend(other.phases);
        self.fallbacks += other.fallbacks;
    }
}

/// Scores a recorded trace under a device configuration.
pub fn replay_trace(trace: &PhaseTrace, exec: &HeteroExecutor) -> PhaseProfile {
    let mut profile = PhaseProfile {
        fallbacks: trace.fallbacks,
        ..Default::default()
    };
    let tree_rep = exec.simulate_grouped(&trace.tree);
    profile.trees_s = tree_rep.makespan_s;
    profile.counters.merge(&tree_rep.total_counters());
    for ph in &trace.phases {
        let r = exec.simulate_grouped(&ph.labels);
        profile.labels_s += r.makespan_s;
        profile.counters.merge(&r.total_counters());
        let r = exec.simulate_grouped(&ph.search);
        profile.search_s += r.makespan_s;
        profile.counters.merge(&r.total_counters());
        let r = exec.simulate_grouped(&ph.update);
        profile.update_s += r.makespan_s;
        profile.counters.merge(&r.total_counters());
    }
    profile
}

/// Tuning knobs for [`depina_mcb`].
#[derive(Clone, Debug, Default)]
pub struct DepinaOptions {
    /// Skip the candidate store entirely and use signed search per phase
    /// (diagnostics / worst-case comparisons).
    pub force_signed: bool,
}

/// Modelled per-phase timing — the paper's §3.5 breakdown (label
/// computation 76%, minimum-cycle search 14%, independence test 8% on
/// their workloads).
#[derive(Clone, Debug, Default)]
pub struct PhaseProfile {
    /// Shortest-path tree construction (part of preprocessing).
    pub trees_s: f64,
    /// Label passes (Algorithm 3).
    pub labels_s: f64,
    /// Candidate scans.
    pub search_s: f64,
    /// Witness updates.
    pub update_s: f64,
    /// Aggregated operation counters.
    pub counters: WorkCounters,
    /// Phases that needed the signed-search backstop.
    pub fallbacks: usize,
}

impl PhaseProfile {
    /// Total modelled seconds.
    pub fn total_s(&self) -> f64 {
        self.trees_s + self.labels_s + self.search_s + self.update_s
    }

    /// `(labels, search, update)` as shares of the phase-loop time
    /// (excluding tree construction), for comparison with the paper's
    /// 76% / 14% / 8% split.
    pub fn shares(&self) -> (f64, f64, f64) {
        let t = self.labels_s + self.search_s + self.update_s;
        if t == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (self.labels_s / t, self.search_s / t, self.update_s / t)
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, o: &PhaseProfile) {
        self.trees_s += o.trees_s;
        self.labels_s += o.labels_s;
        self.search_s += o.search_s;
        self.update_s += o.update_s;
        self.counters.merge(&o.counters);
        self.fallbacks += o.fallbacks;
    }
}

/// Runs candidate-restricted de Pina on `g` (any weighted multigraph) and
/// returns the minimum cycle basis plus the modelled phase profile under
/// `exec`'s devices. Thin wrapper over [`depina_mcb_traced`] +
/// [`replay_trace`].
pub fn depina_mcb(
    g: &CsrGraph,
    exec: &HeteroExecutor,
    opts: &DepinaOptions,
) -> (Vec<Cycle>, PhaseProfile) {
    let (basis, trace) = depina_mcb_traced(g, opts);
    let profile = replay_trace(&trace, exec);
    (basis, profile)
}

/// The batched de Pina algorithm, recording a device-independent
/// [`PhaseTrace`]: candidate generation plus [`depina_phase_loop`].
pub fn depina_mcb_traced(g: &CsrGraph, opts: &DepinaOptions) -> (Vec<Cycle>, PhaseTrace) {
    let cs = CycleSpace::new(g);
    let mut trace = PhaseTrace::default();
    if cs.dim() == 0 {
        return (Vec::new(), trace);
    }
    let mut cands: Candidates = {
        let _s = ear_obs::span_with("mcb.candidates", cs.dim() as u64);
        candidates::generate(g)
    };
    trace.tree = cands.tree_units.clone();
    let (basis, loop_trace) = depina_phase_loop(g, &cs, &mut cands, opts);
    trace.merge(loop_trace);
    (basis, trace)
}

/// The batched phase loop alone, against a prebuilt candidate set (the
/// store is consumed), so a caller holding a generated set — the
/// differential tests, replaying one set through this loop and the
/// reference loop — runs it without rebuilding the trees; the returned
/// trace's `tree` groups are empty — [`depina_mcb_traced`] fills them
/// from [`Candidates::tree_units`].
pub fn depina_phase_loop(
    g: &CsrGraph,
    cs: &CycleSpace,
    cands: &mut Candidates,
    opts: &DepinaOptions,
) -> (Vec<Cycle>, PhaseTrace) {
    let f = cs.dim();
    let mut trace = PhaseTrace::default();
    let mut basis: Vec<Cycle> = Vec::with_capacity(f);
    if f == 0 {
        return (basis, trace);
    }
    let n_hint = g.n() as u64 + 1;
    let words = (f as u64).div_ceil(64);

    with_depina_scratch(|scr| {
        scr.prepare(g, cs, cands);

        // The label-pass cost groups are phase-invariant: every phase
        // labels the same trees over the same vertex sets, only the label
        // *values* differ. One computation, cloned per phase — identical
        // to the scalar path's per-phase grouping because the realized
        // per-tree counters are the same multiset every time.
        let label_groups = group_units(
            n_hint,
            (0..scr.tree_packs.trees()).map(|t| WorkCounters {
                labels_computed: scr.tree_packs.count(t),
                ..Default::default()
            }),
        );

        for i in 0..f {
            let _phase_span = ear_obs::span_with("mcb.phase", i as u64);
            let mut steps = PhaseSteps::default();

            // Phase 1: extract S_i from matrix column i and run the packed
            // label pass over every tree (paper Algorithm 3).
            let labels_span = ear_obs::span_with("mcb.phase.labels", i as u64);
            scr.begin_phase(i);
            steps.labels = label_groups.clone();
            drop(labels_span);

            // Phase 2: scan the weight-sorted store for the first cycle
            // non-orthogonal to S_i (packed O(1) test per candidate).
            let search_span = ear_obs::span_with("mcb.phase.search", i as u64);
            let mut inspected = 0u64;
            let cand = if opts.force_signed {
                None
            } else {
                cands
                    .store
                    .take_first(|c| scr.candidate_dot(c), &mut inspected)
            };
            if inspected > 0 {
                steps.search.push((
                    1,
                    WorkCounters {
                        cycles_inspected: 1,
                        ..Default::default()
                    },
                    inspected,
                ));
            }
            let cycle = match cand {
                Some(c) => {
                    let edges = cands.materialize(g, &c);
                    let cyc = cs.cycle_from_edges(g, edges);
                    debug_assert_eq!(cyc.weight, c.live_weight());
                    cyc
                }
                None => {
                    // Backstop: exact signed search over the FVS roots. Its
                    // Dijkstra work is charged to the search step.
                    trace.fallbacks += usize::from(!opts.force_signed);
                    let mut c = WorkCounters::default();
                    let s = scr.witness.to_dense();
                    let cyc = min_cycle_nonorthogonal(g, cs, &s, Some(&cands.z), &mut c)
                        .expect("every de Pina witness admits a cycle");
                    steps.search.push((n_hint, c, 1));
                    cyc
                }
            };
            drop(search_span);
            let update_span = ear_obs::span_with("mcb.phase.update", i as u64);

            // Phase 3: one batched row-XOR sweep updates every remaining
            // witness (steps 4-6 of the paper's Algorithm 2). The trace
            // still records one unit per remaining witness, at exactly the
            // scalar path's two per-unit costs: every witness pays the
            // |C_i|-word dot, updated ones pay the ⌈f/64⌉-word XOR on top.
            let updated = scr.update_witnesses(i, &cycle.nt);
            let light = WorkCounters {
                words_xored: cycle.nt.len() as u64,
                ..Default::default()
            };
            let heavy = WorkCounters {
                words_xored: cycle.nt.len() as u64 + words,
                ..Default::default()
            };
            let n_light = (f - 1 - i) as u64 - updated;
            steps.update = group_units_two(words, heavy, updated, light, n_light);
            drop(update_span);

            trace.phases.push(steps);
            basis.push(cycle);
        }
    });

    if ear_obs::is_enabled() {
        ear_obs::counter_add("mcb.phases", f as u64);
        ear_obs::counter_add("mcb.fallbacks", trace.fallbacks as u64);
    }

    (basis, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signed::signed_mcb;
    use crate::verify::verify_basis;
    use ear_graph::Weight;

    fn weight(basis: &[Cycle]) -> Weight {
        basis.iter().map(|c| c.weight).sum()
    }

    fn check(g: &CsrGraph) -> (Vec<Cycle>, PhaseProfile) {
        let exec = HeteroExecutor::sequential();
        let (basis, profile) = depina_mcb(g, &exec, &DepinaOptions::default());
        verify_basis(g, &basis).unwrap();
        let reference = signed_mcb(g);
        assert_eq!(
            weight(&basis),
            weight(&reference),
            "weight vs signed reference"
        );
        (basis, profile)
    }

    #[test]
    fn small_graphs_match_signed_reference() {
        check(&CsrGraph::from_edges(3, &[(0, 1, 1), (1, 2, 2), (2, 0, 3)]));
        check(&CsrGraph::from_edges(
            4,
            &[(0, 1, 1), (1, 2, 1), (2, 0, 2), (2, 3, 1), (3, 1, 2)],
        ));
        check(&CsrGraph::from_edges(
            4,
            &[
                (0, 1, 1),
                (0, 2, 1),
                (0, 3, 1),
                (1, 2, 1),
                (1, 3, 1),
                (2, 3, 1),
            ],
        ));
    }

    #[test]
    fn multigraph_with_parallel_and_loops() {
        check(&CsrGraph::from_edges(
            3,
            &[
                (0, 1, 1),
                (0, 1, 2),
                (1, 2, 1),
                (2, 0, 1),
                (2, 2, 4),
                (0, 0, 9),
            ],
        ));
    }

    #[test]
    fn wheel_graph() {
        let mut edges = vec![];
        for i in 1..=6u32 {
            edges.push((0, i, 2u64));
            edges.push((i, if i == 6 { 1 } else { i + 1 }, 3u64));
        }
        check(&CsrGraph::from_edges(7, &edges));
    }

    #[test]
    fn grid_graph() {
        let idx = |r: u32, c: u32| r * 4 + c;
        let mut edges = Vec::new();
        let mut w = 1u64;
        for r in 0..4u32 {
            for c in 0..4u32 {
                if c + 1 < 4 {
                    edges.push((idx(r, c), idx(r, c + 1), w));
                    w = w % 9 + 1;
                }
                if r + 1 < 4 {
                    edges.push((idx(r, c), idx(r + 1, c), w));
                    w = w % 7 + 1;
                }
            }
        }
        check(&CsrGraph::from_edges(16, &edges));
    }

    #[test]
    fn disconnected_graph() {
        check(&CsrGraph::from_edges(
            7,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (3, 4, 2),
                (4, 5, 2),
                (5, 3, 2),
                (5, 6, 1),
            ],
        ));
    }

    #[test]
    fn profile_phases_are_populated() {
        let g = CsrGraph::from_edges(
            4,
            &[
                (0, 1, 1),
                (0, 2, 1),
                (0, 3, 1),
                (1, 2, 1),
                (1, 3, 1),
                (2, 3, 1),
            ],
        );
        let (_, p) = check(&g);
        assert!(p.trees_s > 0.0);
        assert!(p.labels_s > 0.0);
        assert!(p.search_s > 0.0);
        assert!(p.update_s > 0.0);
        assert!(p.counters.labels_computed > 0);
        let (l, s, u) = p.shares();
        assert!((l + s + u - 1.0).abs() < 1e-9);
    }

    #[test]
    fn force_signed_agrees() {
        let g = CsrGraph::from_edges(
            5,
            &[
                (0, 1, 3),
                (1, 2, 5),
                (2, 3, 7),
                (3, 4, 9),
                (4, 0, 2),
                (1, 3, 4),
                (0, 2, 8),
            ],
        );
        let exec = HeteroExecutor::sequential();
        let (a, pa) = depina_mcb(&g, &exec, &DepinaOptions { force_signed: true });
        let (b, _) = depina_mcb(&g, &exec, &DepinaOptions::default());
        assert_eq!(weight(&a), weight(&b));
        assert_eq!(pa.fallbacks, 0, "forced signed phases are not fallbacks");
        verify_basis(&g, &a).unwrap();
    }

    #[test]
    fn modes_agree_on_results() {
        let mut edges = vec![];
        for i in 0..12u32 {
            edges.push((i, (i + 1) % 12, (i as u64 % 4) + 1));
        }
        edges.push((0, 6, 2));
        edges.push((3, 9, 3));
        let g = CsrGraph::from_edges(12, &edges);
        let (b_seq, _) = depina_mcb(&g, &HeteroExecutor::sequential(), &Default::default());
        let (b_mc, _) = depina_mcb(&g, &HeteroExecutor::multicore(), &Default::default());
        assert_eq!(weight(&b_seq), weight(&b_mc));
    }

    #[test]
    fn multicore_model_wins_once_work_is_big_enough() {
        // On tiny graphs the model correctly charges parallel overheads
        // (launch latency) that sequential does not pay; on a 20×20 grid
        // the label and tree phases carry enough work for the multicore
        // device to pull ahead, as on the paper's workloads.
        let cols = 20u32;
        let idx = |r: u32, c: u32| r * cols + c;
        let mut edges = Vec::new();
        let mut w = 1u64;
        for r in 0..20u32 {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1), w));
                    w = w % 9 + 1;
                }
                if r + 1 < 20 {
                    edges.push((idx(r, c), idx(r + 1, c), w));
                    w = w % 5 + 1;
                }
            }
        }
        let g = CsrGraph::from_edges(400, &edges);
        let (b_seq, p_seq) = depina_mcb(&g, &HeteroExecutor::sequential(), &Default::default());
        let (b_mc, p_mc) = depina_mcb(&g, &HeteroExecutor::multicore(), &Default::default());
        assert_eq!(weight(&b_seq), weight(&b_mc));
        assert!(
            p_mc.total_s() < p_seq.total_s(),
            "multicore {} vs sequential {}",
            p_mc.total_s(),
            p_seq.total_s()
        );
    }
}
