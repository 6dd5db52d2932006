//! Span tracing: per-thread ring buffers drained into a global collector.
//!
//! Each thread that records an event lazily registers a ring buffer of
//! [`Event`]s in a process-wide registry (the registration is the only
//! cross-thread synchronisation on the recording path; after it, a thread
//! only ever locks its own uncontended mutex). [`snapshot`] drains every
//! registered buffer — including those of threads that have since exited,
//! which matters because the rayon shim and the concurrent executor spawn
//! fresh scoped workers per batch.
//!
//! Timestamps are nanoseconds since a process-wide [`Instant`] epoch
//! pinned by [`crate::enable`], so lanes from different threads share one
//! timeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Per-thread ring capacity. At 32 bytes per event this bounds each
/// thread's buffer at 2 MiB; overflow overwrites the oldest events and
/// counts them in [`ThreadLog::dropped`] rather than growing without
/// bound.
pub const RING_CAPACITY: usize = 1 << 16;

/// What a recorded [`Event`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`ph: "B"` in Chrome trace terms).
    Begin,
    /// A span closed (`ph: "E"`).
    End,
    /// An instantaneous counter sample (`ph: "C"`); value in [`Event::arg`].
    Counter,
}

/// One recorded trace event. `Copy` and fixed-size so ring-buffer writes
/// never allocate.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Static span/counter name (see the span taxonomy in `DESIGN.md`).
    pub name: &'static str,
    /// Begin / End / Counter.
    pub kind: EventKind,
    /// Nanoseconds since the process epoch.
    pub ts_ns: u64,
    /// Span argument (Begin) or counter value (Counter); 0 for End.
    pub arg: u64,
}

/// The drained event log of one thread, in chronological order.
#[derive(Clone, Debug)]
pub struct ThreadLog {
    /// Dense lane id assigned at first record (1, 2, …).
    pub tid: u64,
    /// OS thread name, or `thread-<tid>` if unnamed.
    pub name: String,
    /// Events in recording order (oldest first, post-ring-rotation).
    pub events: Vec<Event>,
    /// Events overwritten by ring overflow before this snapshot.
    pub dropped: u64,
}

/// One busy interval on a *modelled* device lane (the discrete-event
/// clocks of the hetero executor, not wall time).
#[derive(Clone, Debug)]
pub struct ModelledSlice {
    /// Lane name — the modelled device's profile name.
    pub lane: String,
    /// Slice label (e.g. `batch`).
    pub name: String,
    /// Modelled start, seconds (absolute after [`modelled_run`] rebasing).
    pub start_s: f64,
    /// Modelled end, seconds.
    pub end_s: f64,
    /// Workunits executed in the slice.
    pub units: u64,
}

/// Everything [`snapshot`] collects: wall-clock thread lanes plus
/// modelled device lanes.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// One log per thread that recorded at least one event, sorted by tid.
    pub threads: Vec<ThreadLog>,
    /// Modelled-device busy slices across all executor runs so far.
    pub modelled: Vec<ModelledSlice>,
}

struct ThreadBuf {
    tid: u64,
    name: String,
    ring: Vec<Event>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
    /// The thread's *currently open* span stack, published here so the
    /// sampling profiler ([`crate::profile`]) can read it from its
    /// sampler thread. Maintained on every Begin/End record (same
    /// critical section as the ring write, so the stack is always
    /// consistent with the events) and deliberately *not* cleared by
    /// [`reset`]: spans still open keep their frames.
    stack: Vec<&'static str>,
    /// True span depth, including frames beyond [`MAX_STACK_DEPTH`] that
    /// were not pushed — keeps Begin/End pairing exact under truncation.
    depth: usize,
}

impl ThreadBuf {
    fn push(&mut self, e: Event) {
        match e.kind {
            EventKind::Begin => {
                self.depth += 1;
                if self.depth <= MAX_STACK_DEPTH {
                    self.stack.push(e.name);
                }
            }
            EventKind::End => {
                if self.depth <= MAX_STACK_DEPTH {
                    self.stack.pop();
                }
                self.depth = self.depth.saturating_sub(1);
            }
            EventKind::Counter => {}
        }
        if self.ring.len() < RING_CAPACITY {
            self.ring.push(e);
        } else {
            self.ring[self.head] = e;
            self.head = (self.head + 1) % RING_CAPACITY;
            self.dropped += 1;
        }
    }
}

/// Published span stacks deeper than this are truncated (the sampler
/// attributes time to the outermost frames; real span nesting in the
/// suite tops out around depth 8).
const MAX_STACK_DEPTH: usize = 64;

struct ModelledLanes {
    /// Where the next run's slices start: runs are laid out back-to-back
    /// on the modelled timeline since each executor run restarts its
    /// device clocks at zero.
    cursor_s: f64,
    slices: Vec<ModelledSlice>,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn registry() -> &'static Mutex<Vec<Arc<Mutex<ThreadBuf>>>> {
    static R: OnceLock<Mutex<Vec<Arc<Mutex<ThreadBuf>>>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

fn modelled() -> &'static Mutex<ModelledLanes> {
    static M: OnceLock<Mutex<ModelledLanes>> = OnceLock::new();
    M.get_or_init(|| {
        Mutex::new(ModelledLanes {
            cursor_s: 0.0,
            slices: Vec::new(),
        })
    })
}

thread_local! {
    static LOCAL: Arc<Mutex<ThreadBuf>> = register_thread();
}

fn register_thread() -> Arc<Mutex<ThreadBuf>> {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let name = std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("thread-{tid}"));
    let buf = Arc::new(Mutex::new(ThreadBuf {
        tid,
        name,
        ring: Vec::new(),
        head: 0,
        dropped: 0,
        stack: Vec::new(),
        depth: 0,
    }));
    registry().lock().unwrap().push(Arc::clone(&buf));
    buf
}

pub(crate) fn init_epoch() {
    EPOCH.get_or_init(Instant::now);
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn record(name: &'static str, kind: EventKind, arg: u64) {
    let ts_ns = now_ns();
    LOCAL.with(|buf| {
        buf.lock().unwrap().push(Event {
            name,
            kind,
            ts_ns,
            arg,
        })
    });
}

/// RAII guard returned by [`span`] / [`span_with`]; records the matching
/// End event when dropped. Inert (and allocation-free) when collection
/// was disabled at open time.
#[must_use = "a span covers the guard's lifetime; dropping it immediately records an empty span"]
pub struct SpanGuard {
    name: Option<&'static str>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            record(name, EventKind::End, 0);
        }
    }
}

/// Open a span on the current thread; it closes when the guard drops.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, 0)
}

/// Open a span carrying a numeric argument (source vertex, phase index,
/// workunit id, …) shown in the trace viewer's args pane.
#[inline]
pub fn span_with(name: &'static str, arg: u64) -> SpanGuard {
    if !crate::is_enabled() {
        return SpanGuard { name: None };
    }
    record(name, EventKind::Begin, arg);
    SpanGuard { name: Some(name) }
}

/// Record an instantaneous counter sample (rendered as a counter track
/// in the trace viewer, e.g. work-queue occupancy).
#[inline]
pub fn counter_event(name: &'static str, value: u64) {
    if !crate::is_enabled() {
        return;
    }
    record(name, EventKind::Counter, value);
}

/// Record the busy slices of one modelled executor run.
///
/// `slices` carry times relative to the run's own clocks (which start at
/// zero); the collector rebases them onto a global modelled timeline by
/// laying runs out back-to-back, advancing the cursor by `makespan_s`.
pub fn modelled_run(slices: Vec<ModelledSlice>, makespan_s: f64) {
    if !crate::is_enabled() {
        return;
    }
    let mut m = modelled().lock().unwrap();
    let base = m.cursor_s;
    for mut s in slices {
        s.start_s += base;
        s.end_s += base;
        m.slices.push(s);
    }
    if makespan_s.is_finite() && makespan_s > 0.0 {
        m.cursor_s = base + makespan_s;
    }
}

/// Drain a copy of everything recorded so far (events stay in the
/// buffers; use [`crate::reset`] to clear them).
pub fn snapshot() -> Trace {
    let mut threads: Vec<ThreadLog> = registry()
        .lock()
        .unwrap()
        .iter()
        .map(|buf| {
            let b = buf.lock().unwrap();
            let mut events = Vec::with_capacity(b.ring.len());
            events.extend_from_slice(&b.ring[b.head..]);
            events.extend_from_slice(&b.ring[..b.head]);
            ThreadLog {
                tid: b.tid,
                name: b.name.clone(),
                events,
                dropped: b.dropped,
            }
        })
        .filter(|t| !t.events.is_empty() || t.dropped > 0)
        .collect();
    threads.sort_by_key(|t| t.tid);
    let modelled = modelled().lock().unwrap().slices.clone();
    Trace { threads, modelled }
}

/// Copies every thread's currently open span stack (outermost frame
/// first), skipping threads with nothing open. This is the sampler's
/// read side: it locks each thread buffer only long enough to clone a
/// small `Vec` of `&'static str`, so a recording thread is stalled for
/// at most that window, and only when the sampler fires.
pub(crate) fn sample_stacks(out: &mut Vec<Vec<&'static str>>) {
    out.clear();
    for buf in registry().lock().unwrap().iter() {
        let b = buf.lock().unwrap();
        if !b.stack.is_empty() {
            out.push(b.stack.clone());
        }
    }
}

/// Total events currently buffered across all threads (dropped events
/// included). Used by the disabled-overhead guard test to prove the
/// disabled path records nothing.
pub fn event_count() -> u64 {
    registry()
        .lock()
        .unwrap()
        .iter()
        .map(|buf| {
            let b = buf.lock().unwrap();
            b.ring.len() as u64 + b.dropped
        })
        .sum()
}

pub(crate) fn reset() {
    for buf in registry().lock().unwrap().iter() {
        let mut b = buf.lock().unwrap();
        b.ring.clear();
        b.head = 0;
        b.dropped = 0;
    }
    let mut m = modelled().lock().unwrap();
    m.cursor_s = 0.0;
    m.slices.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_obs;

    #[test]
    fn spans_nest_and_order() {
        with_obs(|| {
            {
                let _outer = span_with("outer", 7);
                let _inner = span("inner");
            }
            let t = snapshot();
            let me: Vec<&Event> = t.threads.iter().flat_map(|l| &l.events).collect();
            let names: Vec<(&str, EventKind)> = me.iter().map(|e| (e.name, e.kind)).collect();
            assert_eq!(
                names,
                vec![
                    ("outer", EventKind::Begin),
                    ("inner", EventKind::Begin),
                    ("inner", EventKind::End),
                    ("outer", EventKind::End),
                ]
            );
            assert!(me.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
            assert_eq!(me[0].arg, 7);
        });
    }

    #[test]
    fn disabled_records_nothing() {
        with_obs(|| {
            crate::disable();
            let before = event_count();
            let _s = span("ghost");
            counter_event("ghost.counter", 1);
            drop(_s);
            assert_eq!(event_count(), before);
            crate::enable();
        });
    }

    #[test]
    fn ring_overflow_counts_drops() {
        with_obs(|| {
            for i in 0..(RING_CAPACITY + 10) {
                counter_event("tick", i as u64);
            }
            let t = snapshot();
            let log = t.threads.iter().find(|l| l.dropped > 0).expect("overflow");
            assert_eq!(log.dropped, 10);
            assert_eq!(log.events.len(), RING_CAPACITY);
            // Oldest events were overwritten: the first surviving tick is #10.
            assert_eq!(log.events[0].arg, 10);
        });
    }

    #[test]
    fn modelled_runs_are_laid_out_back_to_back() {
        with_obs(|| {
            let slice = |s: f64, e: f64| ModelledSlice {
                lane: "dev".into(),
                name: "batch".into(),
                start_s: s,
                end_s: e,
                units: 1,
            };
            modelled_run(vec![slice(0.0, 1.0)], 1.0);
            modelled_run(vec![slice(0.0, 2.0)], 2.0);
            let t = snapshot();
            assert_eq!(t.modelled.len(), 2);
            assert_eq!(t.modelled[1].start_s, 1.0);
            assert_eq!(t.modelled[1].end_s, 3.0);
        });
    }
}
