//! Streaming metrics export: periodic `ear-metrics/v1` snapshots to a
//! file or FIFO.
//!
//! PR 5's metrics were exit dumps — one JSON document written after the
//! workload finished. Long soaks and the future `ear serve` need *live*
//! metrics: a background exporter that flushes the current registry
//! state on a fixed interval so an external consumer (a `tail -f`, a
//! scraper, a dashboard pipe) watches the run as it happens.
//!
//! The exporter writes **JSON lines**: one frame per flush, one line per
//! frame. Each frame wraps a compact `ear-metrics/v1` snapshot
//! ([`crate::export::metrics_json_compact`]) with a sequence number and
//! a counter *delta* section (counters that changed since the previous
//! frame — the increments, not the totals), so consumers can follow
//! rates without diffing snapshots themselves:
//!
//! ```text
//! {"schema": "ear-metrics-stream/v1", "seq": 0, "delta": {"counters": {...}}, "snapshot": {...}}
//! {"schema": "ear-metrics-stream/v1", "seq": 1, "delta": {"counters": {...}}, "snapshot": {...}}
//! ```
//!
//! [`stop`] flushes one final frame before joining, so a run shorter
//! than the interval still produces a complete stream (mirroring the
//! profiler's final-sample rule in [`crate::profile`]). With no stream
//! started, nothing here touches the hot path at all — the zero-alloc
//! guard in `tests/obs_zero_alloc.rs` covers the combination.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::export::metrics_json_compact;
use crate::json::escape;

/// Default flush interval when the CLI's `--metrics-interval` is absent.
pub const DEFAULT_INTERVAL_MS: u64 = 500;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static STOP: AtomicBool = AtomicBool::new(false);
static FRAMES: AtomicU64 = AtomicU64::new(0);

fn handle() -> &'static Mutex<Option<JoinHandle<std::io::Result<()>>>> {
    static H: OnceLock<Mutex<Option<JoinHandle<std::io::Result<()>>>>> = OnceLock::new();
    H.get_or_init(|| Mutex::new(None))
}

/// Whether the exporter thread is currently running.
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Number of frames flushed since the exporter was last started.
pub fn frames() -> u64 {
    FRAMES.load(Ordering::Relaxed)
}

/// Render one stream frame: sequence number, counter deltas vs `prev`,
/// and the full compact snapshot. Updates `prev` to the new totals.
fn frame(seq: u64, prev: &mut Vec<(String, u64)>) -> String {
    let snap = crate::metrics::snapshot();
    let mut out = String::with_capacity(256);
    out.push_str(&format!(
        "{{\"schema\": \"ear-metrics-stream/v1\", \"seq\": {seq}, \"delta\": {{\"counters\": {{"
    ));
    let mut first = true;
    for (name, v) in &snap.counters {
        let before = prev
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0);
        if *v != before {
            if !std::mem::take(&mut first) {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", escape(name), v.wrapping_sub(before)));
        }
    }
    out.push_str("}}, \"snapshot\": ");
    out.push_str(&metrics_json_compact(&snap));
    out.push_str("}\n");
    *prev = snap.counters;
    out
}

/// Start the exporter: create (truncate) `path` and flush a frame every
/// `interval` until [`stop`]. Errors if an exporter is already running
/// or the file cannot be created. Collection ([`crate::enable`]) must be
/// on for the registry to fill; starting the stream does not flip it.
pub fn start(path: &str, interval: Duration) -> Result<(), String> {
    let mut slot = handle().lock().unwrap();
    if slot.is_some() {
        return Err("metrics stream already running".into());
    }
    let mut file = std::fs::File::create(path)
        .map_err(|e| format!("failed to create metrics stream {path}: {e}"))?;
    STOP.store(false, Ordering::SeqCst);
    FRAMES.store(0, Ordering::SeqCst);
    ACTIVE.store(true, Ordering::SeqCst);
    let h = std::thread::Builder::new()
        .name("ear-obs-exporter".into())
        .spawn(move || -> std::io::Result<()> {
            let mut prev: Vec<(String, u64)> = Vec::new();
            let mut seq = 0u64;
            loop {
                // Sleep in short slices so stop() never waits a full
                // interval for the join.
                let mut left = interval;
                while !STOP.load(Ordering::Relaxed) && !left.is_zero() {
                    let step = left.min(Duration::from_millis(25));
                    std::thread::sleep(step);
                    left = left.saturating_sub(step);
                }
                let stopping = STOP.load(Ordering::Relaxed);
                file.write_all(frame(seq, &mut prev).as_bytes())?;
                file.flush()?;
                seq += 1;
                FRAMES.fetch_add(1, Ordering::Relaxed);
                if stopping {
                    return Ok(());
                }
            }
        })
        .map_err(|e| format!("failed to spawn exporter thread: {e}"))?;
    *slot = Some(h);
    Ok(())
}

/// Stop the exporter: flush one final frame, join the thread, and
/// surface any deferred I/O error. No-op `Ok` if not running.
pub fn stop() -> Result<(), String> {
    let h = handle().lock().unwrap().take();
    let Some(h) = h else { return Ok(()) };
    STOP.store(true, Ordering::SeqCst);
    let res = h.join();
    ACTIVE.store(false, Ordering::SeqCst);
    match res {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("metrics stream write failed: {e}")),
        Err(_) => Err("metrics stream exporter panicked".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::with_obs;

    #[test]
    fn stream_writes_parseable_frames_with_counter_deltas() {
        with_obs(|| {
            let dir = std::env::temp_dir().join("ear-obs-stream-test");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("frames.jsonl");
            let path_s = path.to_str().unwrap();

            crate::counter_add("stream.test", 5);
            // Interval far longer than the test: only the stop() flush fires.
            start(path_s, Duration::from_secs(3600)).unwrap();
            assert!(is_active());
            assert!(
                start(path_s, Duration::from_secs(1)).is_err(),
                "double start"
            );
            crate::counter_add("stream.test", 2);
            stop().unwrap();
            assert!(!is_active());
            assert!(frames() >= 1);

            let text = std::fs::read_to_string(&path).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert!(!lines.is_empty());
            let first = parse(lines[0]).unwrap();
            assert_eq!(
                first.get("schema").unwrap().as_str(),
                Some("ear-metrics-stream/v1")
            );
            assert_eq!(first.get("seq").unwrap().as_f64(), Some(0.0));
            // First frame's delta is vs an empty baseline: the full total.
            assert_eq!(
                first
                    .get("delta")
                    .unwrap()
                    .get("counters")
                    .unwrap()
                    .get("stream.test")
                    .unwrap()
                    .as_f64(),
                Some(7.0)
            );
            let snap = first.get("snapshot").unwrap();
            assert_eq!(snap.get("schema").unwrap().as_str(), Some("ear-metrics/v1"));
            assert_eq!(
                snap.get("counters")
                    .unwrap()
                    .get("stream.test")
                    .unwrap()
                    .as_f64(),
                Some(7.0)
            );

            let _ = std::fs::remove_file(&path);
        });
    }
}
