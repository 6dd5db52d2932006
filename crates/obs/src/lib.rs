//! # ear-obs
//!
//! Zero-dependency (pure `std`) tracing and metrics layer for the
//! ear-decomposition suite, with Chrome trace-event export.
//!
//! The paper's evaluation (§3.5, Table 2, Figure 3) is built on per-phase
//! timings and operation counts; this crate gives the whole workspace one
//! first-class way to produce them instead of the four disconnected ad-hoc
//! mechanisms that grew organically (`DijkstraStats`, `WorkCounters`,
//! `PhaseTrace`, the CLI `--profile` table).
//!
//! Three pieces:
//!
//! * **Tracing** ([`collector`]) — span-based, with a thread-local span
//!   stack per worker thread, monotonic timestamps from a process-wide
//!   epoch, and a bounded per-thread ring buffer drained into a global
//!   collector on [`trace_snapshot`]. Modelled devices (the discrete-event
//!   schedule of `ear-hetero`) get their own lanes via [`modelled_run`].
//! * **Metrics** ([`metrics`]) — a process-wide registry of named
//!   counters, gauges and log₂-bucket histograms, absorbing the numbers
//!   the legacy structs carried.
//! * **Export** ([`export`], [`json`]) — Chrome trace-event JSON
//!   (loadable in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev),
//!   one lane per worker thread plus one per modelled device), a flat
//!   metrics-snapshot JSON, and a dependency-free JSON parser used to
//!   validate emitted traces ([`validate_chrome_trace`]).
//!
//! ## The disabled path
//!
//! Everything is gated behind one static [`AtomicBool`]: while disabled
//! (the default), every entry point is a single relaxed load followed by
//! an immediate return — no thread-local access, no locking, and **zero
//! allocation** (guarded by `tests/obs_zero_alloc.rs` at the workspace
//! root). Instrumentation is therefore left compiled into the hot paths
//! unconditionally.
//!
//! ```
//! ear_obs::enable();
//! {
//!     let _span = ear_obs::span("example.work");
//!     ear_obs::counter_add("example.items", 3);
//! }
//! let trace = ear_obs::trace_snapshot();
//! assert_eq!(trace.threads.iter().map(|t| t.events.len()).sum::<usize>(), 2);
//! let json = ear_obs::chrome_trace_json(&trace);
//! ear_obs::validate_chrome_trace(&json).unwrap();
//! ear_obs::disable();
//! ear_obs::reset();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod collector;
pub mod export;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod stream;

use std::sync::atomic::{AtomicBool, Ordering};

/// The master switch. Off by default; flipped by [`enable`] / [`disable`].
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether tracing + metrics collection is currently on.
///
/// This is the only check on the disabled hot path: a single relaxed
/// atomic load.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on. Pins the monotonic epoch on first call so all
/// timestamps share one origin.
pub fn enable() {
    collector::init_epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn collection off. Already-recorded events and metrics are kept
/// until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Clear all recorded events, modelled-device slices, metrics, and the
/// profiler's folded-stack accumulator. The enabled/disabled state is
/// unchanged, and a running sampler or exporter keeps running (its next
/// tick starts a fresh accumulation).
pub fn reset() {
    collector::reset();
    metrics::reset();
    profile::reset();
}

/// Runs one test on a freshly reset, enabled collector and leaves it
/// disabled and reset. The switch, buffers and registries are
/// process-global, so every test module that touches them serialises on
/// this one lock (a poisoned lock from a failed test is taken over).
#[cfg(test)]
pub(crate) fn with_obs<R>(f: impl FnOnce() -> R) -> R {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reset();
    enable();
    let r = f();
    disable();
    reset();
    r
}

pub use collector::snapshot as trace_snapshot;
pub use collector::{
    counter_event, event_count, modelled_run, open_stack, span, span_with, Event, EventKind,
    ModelledSlice, SpanGuard, StackRoot, ThreadLog, Trace,
};
pub use export::{chrome_trace_json, metrics_json, write_chrome_trace, write_metrics};
pub use json::{validate_chrome_trace, TraceCheck, Value};
pub use metrics::snapshot as metrics_snapshot;
pub use metrics::{
    counter_add, counter_value, gauge_set, gauge_value, histogram_record, Histogram,
    MetricsSnapshot,
};
