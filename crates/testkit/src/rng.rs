//! Deterministic seeded randomness for the property-test engine.
//!
//! Every generated test case is a pure function of a single `u64` seed,
//! which is what makes the one-line `EAR_TESTKIT_SEED=…` replay exact.
//! The stream is the workspace's one SplitMix64 generator,
//! [`ear_graph::rng`], shared with the workload generators; the
//! `golden_streams` test pins its first draws, so a replay seed keeps its
//! meaning.

pub use ear_graph::rng::{derive_seed, TestRng};
