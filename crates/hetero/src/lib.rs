//! # ear-hetero
//!
//! A simulated heterogeneous CPU+GPU execution platform.
//!
//! The paper runs its algorithms on an Intel E5-2650 multicore CPU plus an
//! NVidia Tesla K40c GPU, balancing work between them with a double-ended
//! work queue (Indarapu et al.; paper §2.3/§3.4). This crate reproduces that
//! platform **as a model**: kernels execute for real on host threads (so
//! every result is genuine and testable), once each, and a discrete-event
//! replay of the paper's queue then charges each device *modelled time*
//! derived from the units' instrumented operation counts and a calibrated
//! [`DeviceProfile`] (lanes × clock × efficiency, kernel-launch overhead,
//! memory bandwidth).
//!
//! Why this preserves the paper's behaviour: the reported speedups come from
//! (a) algorithmic work reduction — measured exactly here, because the
//! counters come from the real algorithm runs — and (b) device throughput
//! ratios — encoded in the profiles, which are derived from the published
//! hardware specifications (see [`profile::DeviceProfile::k40c`] and
//! [`profile::DeviceProfile::e5_2650`]). Absolute seconds are not comparable
//! to the paper's testbed; ratios and crossovers are.
//!
//! Modules:
//! * [`counters`] — the operation counters all algorithm crates report;
//! * [`profile`] — device descriptions and the batch time model;
//! * [`executor`] — runs workunits in one parallel region and replays the
//!   sorted double-ended work queue over their counters.

#![forbid(unsafe_code)]

pub mod counters;
pub mod executor;
pub mod profile;

pub use counters::{group_units, group_units_two, UnitGroups, WorkCounters};
pub use executor::{DeviceReport, ExecutionReport, HeteroExecutor, RunOutput};
pub use profile::{DeviceKind, DeviceProfile};
