//! Span-stack sampling profiler: wall-clock attribution without
//! recompiling.
//!
//! Every instrumented thread already publishes its current span stack to
//! its collector slot (maintained in the same critical section as the
//! ring-buffer write, see [`crate::collector`]). This module adds a
//! *sampler thread* that wakes on a fixed period, snapshots every
//! published stack, and accumulates **folded stacks** — the
//! `outer;inner;leaf -> hit count` map that flamegraph tooling consumes
//! directly ([`collapsed`] renders the standard collapsed-stack text
//! format, one `stack count` line per distinct stack).
//!
//! Because the sampler only *reads* (it opens no spans, records no
//! metrics, and mutates nothing the workload can observe), sampling-on
//! runs are bit-identical to sampling-off runs; the differential test
//! `tests/obs_profile_differential.rs` proves it across every strategy
//! family. Overhead while sampling is one short lock per thread slot per
//! tick (period via [`period_from_env`], env `EAR_OBS_SAMPLE_US`,
//! default 1000 µs); with the profiler *not* running the cost is zero
//! beyond the span path's existing stack push/pop, and with tracing
//! disabled entirely the whole path stays one relaxed load (enforced by
//! `tests/obs_zero_alloc.rs`).
//!
//! ```
//! ear_obs::enable();
//! ear_obs::profile::start(std::time::Duration::from_micros(200)).unwrap();
//! {
//!     let _span = ear_obs::span("doc.work");
//!     std::thread::sleep(std::time::Duration::from_millis(2));
//! }
//! ear_obs::profile::stop();
//! // The final stop() sample plus periodic ticks saw "doc.work" if it
//! // was open at any sampling instant; collapsed() renders what was
//! // seen. (A run shorter than every tick can legitimately fold empty.)
//! let _folded = ear_obs::profile::collapsed();
//! ear_obs::disable();
//! ear_obs::reset();
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default sampling period when `EAR_OBS_SAMPLE_US` is unset: 1000 µs
/// (1 kHz), the design point whose overhead EXPERIMENTS.md records.
pub const DEFAULT_SAMPLE_US: u64 = 1000;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static STOP: AtomicBool = AtomicBool::new(false);
static SAMPLES: AtomicU64 = AtomicU64::new(0);

fn folded() -> &'static Mutex<BTreeMap<String, u64>> {
    static F: OnceLock<Mutex<BTreeMap<String, u64>>> = OnceLock::new();
    F.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn handle() -> &'static Mutex<Option<JoinHandle<()>>> {
    static H: OnceLock<Mutex<Option<JoinHandle<()>>>> = OnceLock::new();
    H.get_or_init(|| Mutex::new(None))
}

/// Whether the sampler thread is currently running.
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Number of sampling ticks taken since the last [`reset`](crate::reset).
pub fn samples() -> u64 {
    SAMPLES.load(Ordering::Relaxed)
}

/// The sampling period selected by the `EAR_OBS_SAMPLE_US` environment
/// variable (microseconds), falling back to [`DEFAULT_SAMPLE_US`] when
/// unset or unparsable (0 is clamped to 1 µs).
pub fn period_from_env() -> Duration {
    let us = std::env::var("EAR_OBS_SAMPLE_US")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(DEFAULT_SAMPLE_US)
        .max(1);
    Duration::from_micros(us)
}

/// Take one sample: fold every thread's currently open span stack into
/// the accumulator.
fn take_sample(scratch: &mut Vec<Vec<&'static str>>, key: &mut String) {
    crate::collector::sample_stacks(scratch);
    SAMPLES.fetch_add(1, Ordering::Relaxed);
    if scratch.is_empty() {
        return;
    }
    let mut map = folded().lock().unwrap();
    for stack in scratch.iter() {
        key.clear();
        for (i, frame) in stack.iter().enumerate() {
            if i > 0 {
                key.push(';');
            }
            key.push_str(frame);
        }
        if let Some(c) = map.get_mut(key.as_str()) {
            *c += 1;
        } else {
            map.insert(key.clone(), 1);
        }
    }
}

/// Start the sampler thread with the given period. Errors if a sampler
/// is already running. Collection ([`crate::enable`]) must be on for
/// threads to publish stacks; starting the sampler does not flip it.
pub fn start(period: Duration) -> Result<(), String> {
    let mut slot = handle().lock().unwrap();
    if slot.is_some() {
        return Err("sampling profiler already running".into());
    }
    STOP.store(false, Ordering::SeqCst);
    ACTIVE.store(true, Ordering::SeqCst);
    let h = std::thread::Builder::new()
        .name("ear-obs-sampler".into())
        .spawn(move || {
            let mut scratch = Vec::new();
            let mut key = String::new();
            while !STOP.load(Ordering::Relaxed) {
                take_sample(&mut scratch, &mut key);
                // Sleep in short slices so stop() never waits out a
                // long period for the join.
                let mut left = period;
                while !STOP.load(Ordering::Relaxed) && !left.is_zero() {
                    let step = left.min(Duration::from_millis(25));
                    std::thread::sleep(step);
                    left = left.saturating_sub(step);
                }
            }
        })
        .map_err(|e| format!("failed to spawn sampler thread: {e}"))?;
    *slot = Some(h);
    Ok(())
}

/// Stop the sampler thread and take one final synchronous sample, so a
/// run shorter than the period still attributes its open root span.
/// No-op if the sampler is not running.
pub fn stop() {
    let h = handle().lock().unwrap().take();
    if let Some(h) = h {
        STOP.store(true, Ordering::SeqCst);
        let _ = h.join();
        ACTIVE.store(false, Ordering::SeqCst);
        let mut scratch = Vec::new();
        let mut key = String::new();
        take_sample(&mut scratch, &mut key);
    }
}

/// Render the accumulated folded stacks as collapsed-stack text:
/// one `frame;frame;frame count` line per distinct stack, sorted —
/// directly consumable by `flamegraph.pl` / `inferno` / speedscope.
pub fn collapsed() -> String {
    let map = folded().lock().unwrap();
    let mut out = String::new();
    for (stack, count) in map.iter() {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&count.to_string());
        out.push('\n');
    }
    out
}

/// Write [`collapsed`] output to `path`.
pub fn write_collapsed(path: &str) -> std::io::Result<()> {
    std::fs::write(path, collapsed())
}

/// Clear the folded-stack accumulator and the sample counter. Does not
/// stop a running sampler (its next tick starts a fresh accumulation).
pub(crate) fn reset() {
    folded().lock().unwrap().clear();
    SAMPLES.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_obs;

    #[test]
    fn sampler_folds_open_stacks_and_final_sample_catches_short_runs() {
        with_obs(|| {
            // Period far longer than the test: only the stop() sample can
            // fire deterministically — which is exactly what we verify.
            start(Duration::from_secs(3600)).unwrap();
            assert!(is_active());
            assert!(start(Duration::from_secs(1)).is_err(), "double start");
            let _outer = crate::span("prof.outer");
            let _inner = crate::span("prof.inner");
            stop();
            assert!(!is_active());
            let text = collapsed();
            assert!(
                text.lines()
                    .any(|l| l.starts_with("prof.outer;prof.inner ")),
                "folded output missing the open stack: {text:?}"
            );
            for line in text.lines() {
                let (stack, count) = line.rsplit_once(' ').expect("stack<space>count");
                assert!(!stack.is_empty());
                assert!(count.parse::<u64>().unwrap() >= 1);
            }
            assert!(samples() >= 1);
        });
    }

    #[test]
    fn reset_clears_accumulator() {
        with_obs(|| {
            {
                let _s = crate::span("prof.reset");
                start(Duration::from_secs(3600)).unwrap();
                stop();
            }
            assert!(!collapsed().is_empty());
            crate::reset();
            assert!(collapsed().is_empty());
            assert_eq!(samples(), 0);
        });
    }
}
