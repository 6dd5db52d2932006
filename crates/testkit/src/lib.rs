//! # ear-testkit
//!
//! The workspace's differential-testing and invariant-checking subsystem.
//!
//! The paper's central claims are exactness claims — ear reduction
//! preserves APSP distances (§2/§3 extrapolation formulas) and preserves
//! the MCB weight and dimension (Lemma 3.1) — so the repo's value hinges
//! on machine-checked equivalence between the reduced-graph algorithms and
//! their baselines. This crate centralises everything the integration
//! tests previously hand-rolled per file:
//!
//! * [`rng`] / [`runner`] — a small deterministic property-test engine.
//!   Every generated case derives from a printable 64-bit seed; any
//!   failure panics with a one-line
//!   `EAR_TESTKIT_SEED=0x… cargo test <name>` reproduction, and setting
//!   that variable replays exactly the failing case.
//! * [`strategy`] — shared seeded graph strategies for the families that
//!   matter to the paper: arbitrary simple graphs, multigraphs,
//!   biconnected graphs, chain-heavy graphs with long degree-2 ears,
//!   cactus-like graphs, disconnected multi-BCC graphs, plus wrappers
//!   over the `ear-workloads` generators.
//! * [`invariants`] — reusable checkers returning `Result<(), String>`:
//!   metric axioms on distance matrices and oracles, ear-reduction
//!   bookkeeping, cycle-basis validity, exactly-once coverage of
//!   heterogeneous executor runs, and structural soundness of captured
//!   `ear-obs` traces (span nesting, workunit open/close pairing).
//! * [`differential`] — one registry of every APSP implementation and
//!   every MCB mode in the workspace, with a single
//!   [`differential::cross_validate`] entry point that runs all of them
//!   and reports the first divergence.
//! * [`reference`](mod@reference) — the reference implementations the production layers
//!   are differentially tested against: the allocate-per-source Dijkstra,
//!   the scalar de Pina phase loop, Floyd–Warshall, plain all-sources
//!   Dijkstra APSP and the oracle's phase-II row-reuse schedule.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod differential;
pub mod invariants;
pub mod reference;
pub mod rng;
pub mod runner;
pub mod strategy;

pub use differential::{cross_validate, cross_validate_apsp, cross_validate_mcb, Divergence};
pub use rng::TestRng;
pub use runner::{forall, Forall};
pub use strategy::{
    biconnected_graphs, cactus_graphs, chain_heavy_graphs, dense_residual_graphs, from_fn,
    multi_bcc_graphs, multigraphs, simple_graphs, usizes, workload_graphs, zip, GraphStrategy,
    Strategy,
};
