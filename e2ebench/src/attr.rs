//! Per-layer attribution of a traced stage.
//!
//! The benchmark wraps each public call in its own `e2e.<layer>.<call>`
//! span under one `e2e.root.<stage>` span per stage; the program's own
//! spans (`decomp.*`, `apsp.*`, `sssp.*`, …) nest inside. A layer's self
//! time is the wall time during which one of its spans is the innermost
//! open span. While the calling thread waits on worker threads (the
//! rayon shim parks it for the whole parallel region), the interval is
//! split evenly among the workers' innermost spans instead, so the layers
//! doing the work get the time, not the span that waits for them.

use std::collections::BTreeMap;

use ear_obs::{EventKind, Trace};

/// The program's layers, in report order.
pub const LAYERS: [&str; 6] = ["graph", "decomp", "apsp", "query", "mcb", "hetero"];

/// Index into [`LAYERS`] of a span name, or `None` for time the benchmark
/// itself owns (its `e2e.root.*` spans).
pub fn layer_of(span: &str) -> Option<usize> {
    let name = span.strip_prefix("e2e.").unwrap_or(span);
    let head = name.split('.').next().unwrap_or(name);
    let head = if head == "sssp" { "graph" } else { head };
    LAYERS.iter().position(|&l| l == head)
}

/// What one traced stage spent, by layer and by span name.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Self seconds per layer, aligned with [`LAYERS`].
    pub self_s: [f64; LAYERS.len()],
    /// Self seconds the benchmark's own root span kept.
    pub bench_s: f64,
    /// Duration of the root span.
    pub root_s: f64,
    /// Summed durations per span name, all threads.
    pub span_s: BTreeMap<&'static str, f64>,
    /// Events the per-thread rings overwrote before the snapshot.
    pub dropped: u64,
}

/// Attributes the stage under the span named `root` in `trace`. Returns
/// `None` when the root span is missing.
pub fn attribute(trace: &Trace, root: &str) -> Option<Attribution> {
    let main = trace
        .threads
        .iter()
        .position(|t| t.events.iter().any(|e| e.name == root))?;
    let mut events: Vec<(u64, usize, usize)> = Vec::new();
    for (ti, t) in trace.threads.iter().enumerate() {
        for (ei, e) in t.events.iter().enumerate() {
            if e.kind != EventKind::Counter {
                events.push((e.ts_ns, ti, ei));
            }
        }
    }
    events.sort_unstable();

    let mut out = Attribution {
        dropped: trace.threads.iter().map(|t| t.dropped).sum(),
        ..Attribution::default()
    };
    let mut stacks: Vec<Vec<(&'static str, u64)>> = vec![Vec::new(); trace.threads.len()];
    let mut window: Option<(u64, Option<u64>)> = None;
    let mut last = 0u64;
    for (ts, ti, ei) in events {
        let e = trace.threads[ti].events[ei];
        if let Some((_, None)) = window {
            let dt = ts.saturating_sub(last) as f64 * 1e-9;
            let workers: Vec<&str> = stacks
                .iter()
                .enumerate()
                .filter(|&(i, s)| i != main && !s.is_empty())
                .map(|(_, s)| s[s.len() - 1].0)
                .collect();
            if workers.is_empty() {
                match stacks[main].last().and_then(|&(n, _)| layer_of(n)) {
                    Some(l) => out.self_s[l] += dt,
                    None => out.bench_s += dt,
                }
            } else {
                let share = dt / workers.len() as f64;
                for w in workers {
                    match layer_of(w) {
                        Some(l) => out.self_s[l] += share,
                        None => out.bench_s += share,
                    }
                }
            }
        }
        last = ts;
        match e.kind {
            EventKind::Begin => {
                if ti == main && e.name == root && window.is_none() {
                    window = Some((ts, None));
                }
                stacks[ti].push((e.name, ts));
            }
            EventKind::End => {
                if let Some((name, start)) = stacks[ti].pop() {
                    *out.span_s.entry(name).or_default() += (ts - start) as f64 * 1e-9;
                    if ti == main && name == root {
                        if let Some((s, end @ None)) = window.as_mut() {
                            *end = Some(ts);
                            out.root_s = (ts - *s) as f64 * 1e-9;
                        }
                    }
                }
            }
            EventKind::Counter => {}
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_obs::{Event, ThreadLog};

    fn ev(name: &'static str, kind: EventKind, ts_ns: u64) -> Event {
        Event {
            name,
            kind,
            ts_ns,
            arg: 0,
        }
    }

    fn log(tid: u64, events: Vec<Event>) -> ThreadLog {
        ThreadLog {
            tid,
            name: format!("t{tid}"),
            events,
            dropped: 0,
        }
    }

    #[test]
    fn self_times_partition_the_root_span() {
        use EventKind::{Begin, End};
        let trace = Trace {
            threads: vec![
                log(
                    1,
                    vec![
                        ev("e2e.root.build", Begin, 0),
                        ev("e2e.graph.ingest", Begin, 10),
                        ev("e2e.graph.ingest", End, 30),
                        ev("e2e.apsp.oracle", Begin, 30),
                        ev("hetero.batch", Begin, 40),
                        ev("hetero.batch", End, 80),
                        ev("e2e.apsp.oracle", End, 90),
                        ev("e2e.root.build", End, 100),
                    ],
                ),
                log(2, vec![ev("sssp.run", Begin, 40), ev("sssp.run", End, 80)]),
                log(
                    3,
                    vec![ev("hetero.unit", Begin, 50), ev("hetero.unit", End, 70)],
                ),
            ],
            modelled: Vec::new(),
        };
        let a = attribute(&trace, "e2e.root.build").unwrap();
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(ns(a.root_s), 100);
        assert_eq!(ns(a.bench_s), 20);
        assert_eq!(ns(a.self_s[0]), 20 + 30); // ingest + sssp alone + half of the overlap
        assert_eq!(ns(a.self_s[2]), 20); // oracle outside the batch
        assert_eq!(ns(a.self_s[5]), 10); // the other half of the overlap
        let total: f64 = a.self_s.iter().sum::<f64>() + a.bench_s;
        assert_eq!(ns(total), 100);
        assert_eq!(ns(a.span_s["sssp.run"]), 40);
    }
}
