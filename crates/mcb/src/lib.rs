//! # ear-mcb
//!
//! Minimum weight cycle basis (paper §3): de Pina's witness algorithm with
//! the Mehlhorn–Michail candidate restriction, run on the ear-reduced graph
//! per Lemma 3.1, in four execution modes (sequential / multicore / GPU /
//! CPU+GPU — the grid of the paper's Table 2).
//!
//! Module map:
//! * [`cycle_space`] — spanning tree, the ordered non-tree edge set
//!   `E' = {e₁..e_f}`, dense GF(2) witness vectors, sparse cycle vectors;
//! * [`candidates`] — Horton cycles restricted to a feedback vertex set
//!   (one SSSP tree per FVS vertex; cycles kept implicit as `(z, e)` pairs),
//!   stored weight-sorted in the paper's hybrid linked-list-of-arrays
//!   [`candidates::CycleStore`] with MSB tombstones;
//! * [`kernels`] — the packed GF(2) kernel layer: word-transposed witness
//!   matrix, packed per-tree edge incidence, pooled scratch, and the
//!   per-tree node labels of Algorithm 3 that make each orthogonality
//!   test O(1) — the batched engine under the phase loop;
//! * [`signed`] — de Pina's signed auxiliary-graph search (§3.2.1), used
//!   both as a standalone exact algorithm and as the correctness backstop
//!   when candidate restriction plus tie-breaking leaves a phase empty;
//! * [`horton`] — Horton's original algorithm with Gaussian elimination
//!   (small-graph cross-validation baseline);
//! * [`depina`] — the phase loop: label pass → batched candidate scan →
//!   batched witness update, instrumented per phase (the scalar original
//!   it is tested against lives in `ear_testkit::reference`);
//! * [`ear_mcb`] — the full pipeline: BCC split, ear reduction, per-block
//!   MCB, chain re-expansion (Lemma 3.1);
//! * [`verify`] — independence (GF(2) rank), dimension and weight checks.
//!
//! The pipeline's decomposition front half (BCC split, block subgraphs,
//! per-block reduction) comes from `ear_decomp::plan::DecompPlan`:
//! [`mcb`] builds one internally, [`mcb_with_plan`] reuses a prebuilt
//! (possibly `Arc`-shared) plan so a combined run with the APSP oracle
//! decomposes the graph exactly once — see the "Decomposition plan"
//! sections of `README.md` / `DESIGN.md`.

#![forbid(unsafe_code)]

pub mod candidates;
pub mod cycle_space;
pub mod depina;
pub mod ear_mcb;
pub mod horton;
pub mod kernels;
pub mod signed;
pub mod verify;

pub use cycle_space::{Cycle, CycleSpace, DenseBits};
pub use depina::{
    depina_mcb, depina_mcb_traced, depina_phase_loop, replay_trace, DepinaOptions, PhaseProfile,
    PhaseSteps, PhaseTrace,
};
pub use ear_mcb::{mcb, mcb_all_modes, mcb_with_plan, ExecMode, McbConfig, McbResult};
pub use horton::horton_mcb;
pub use kernels::{with_depina_scratch, BitMatrix, DepinaScratch, PackedWitness};
pub use signed::signed_mcb;
pub use verify::{basis_rank, is_cycle_vector, verify_basis};
