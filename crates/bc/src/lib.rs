//! # ear-bc
//!
//! Betweenness centrality on the heterogeneous platform.
//!
//! The paper's conclusions argue that its decomposition techniques "can be
//! employed to obtain significant speedup for other graph problems too,
//! especially the ones based on paths of a graph", and cites the authors'
//! companion work (Pachorkar et al., HiPC 2016) applying ear decomposition
//! to betweenness centrality. This crate provides that neighbouring
//! application as a library consumer of the same substrates:
//!
//! * [`brandes`] — exact weighted betweenness (Brandes' algorithm with
//!   Dijkstra path counting), sequential and as per-source workunits on
//!   the [`ear_hetero::HeteroExecutor`] — the identical scheduling shape
//!   to the paper's APSP Phase II. Weights must be positive: on a
//!   zero-weight edge every entry point returns [`ZeroWeightEdge`];
//! * [`pendant`] — the degree-1 reduction: pendant trees are peeled
//!   iteratively and their exactly-known contributions are accounted in
//!   closed form, so Brandes runs only on the 1-core (with vertex
//!   multiplicities), mirroring the pendant optimisation the paper
//!   credits to Banerjee et al.

#![forbid(unsafe_code)]

pub mod brandes;
pub mod pendant;

pub use brandes::{betweenness, betweenness_hetero, ZeroWeightEdge};
pub use pendant::{betweenness_pendant_reduced, pendant_reduction, PendantReduction};
