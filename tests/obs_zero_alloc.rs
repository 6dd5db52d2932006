//! Disabled-overhead guard for `ear-obs`: with tracing off, the
//! instrumentation must be a single relaxed atomic load per call site —
//! in particular, ZERO heap allocations. A counting global allocator
//! catches any regression (a lazily-registered thread buffer, a format!
//! in a span constructor, a metrics map touch...). The allocator also
//! tallies bytes, which pins that the query engine shares the oracle's
//! distance tables instead of copying them.
//!
//! One `#[test]` only: the allocator counter and the tracing switch are
//! process-global, and a parallel test would pollute the deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

/// Allocation delta of `f`, minimized over up to `attempts` runs. The
/// counter is process-global, so a worker thread from an earlier parallel
/// section releasing its caches can charge a stray allocation to an
/// unrelated window; that noise is transient, so a genuinely
/// allocation-free path observes a zero delta on some attempt, while a
/// real regression allocates on every one.
fn min_alloc_delta(attempts: usize, f: impl FnMut()) -> u64 {
    min_delta(allocs, attempts, f)
}

/// [`min_alloc_delta`] over any of the allocator's tallies.
fn min_delta(tally: fn() -> u64, attempts: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..attempts {
        let before = tally();
        f();
        best = best.min(tally() - before);
        if best == 0 {
            break;
        }
    }
    best
}

#[test]
fn disabled_tracing_allocates_nothing_and_records_nothing() {
    ear_obs::disable();
    ear_obs::reset();

    // 1. Hammer every obs entry point with tracing off: the disabled path
    //    must not allocate once across 100k iterations.
    let delta = min_alloc_delta(3, || {
        for i in 0..100_000u64 {
            let _a = ear_obs::span("guard.span");
            let _b = ear_obs::span_with("guard.span_with", i);
            ear_obs::counter_add("guard.counter", 1);
            ear_obs::gauge_set("guard.gauge", i as f64);
            ear_obs::histogram_record("guard.histogram", i);
            ear_obs::counter_event("guard.event", i);
        }
    });
    assert_eq!(
        delta, 0,
        "disabled obs entry points allocated {delta} times in 100k iterations"
    );

    // 1b. The v2 background machinery (sampling profiler, streaming
    //     exporter) is pay-for-what-you-use: with neither thread started,
    //     their state probes are plain atomic loads and the disabled span
    //     path — which with tracing ON would also publish the span stack —
    //     still allocates nothing and publishes nothing.
    assert!(!ear_obs::profile::is_active());
    assert!(!ear_obs::stream::is_active());
    let delta = min_alloc_delta(3, || {
        for _ in 0..100_000u64 {
            let _a = ear_obs::span("guard.profiled");
            let _b = ear_obs::span("guard.streamed");
            std::hint::black_box(ear_obs::profile::is_active());
            std::hint::black_box(ear_obs::stream::is_active());
            std::hint::black_box(ear_obs::profile::samples());
            std::hint::black_box(ear_obs::stream::frames());
        }
    });
    assert_eq!(
        delta, 0,
        "profiler/exporter-off probes allocated {delta} times in 100k iterations"
    );
    assert_eq!(
        ear_obs::profile::samples(),
        0,
        "sampler ticked without being started"
    );
    assert_eq!(
        ear_obs::stream::frames(),
        0,
        "exporter flushed without being started"
    );
    assert!(
        ear_obs::profile::collapsed().is_empty(),
        "folded stacks accumulated while tracing was off"
    );

    // 2. A real APSP + MCB pipeline with tracing off leaves the collector
    //    and registry untouched — the instrumented hot loops never reach
    //    an obs buffer, so they cannot have paid obs allocations either.
    let g = ear_graph::CsrGraph::from_edges(
        8,
        &[
            (0, 1, 1),
            (1, 2, 2),
            (0, 2, 10),
            (0, 3, 3),
            (3, 2, 4),
            (2, 4, 1),
            (4, 5, 2),
            (5, 2, 3),
            (5, 6, 1),
            (6, 7, 2),
            (7, 5, 1),
        ],
    );
    let exec = ear_hetero::HeteroExecutor::sequential();
    let oracle = ear_apsp::build_oracle(&g, &exec, ear_apsp::ApspMethod::Ear);
    let basis = ear_mcb::mcb(
        &g,
        &ear_mcb::McbConfig {
            mode: ear_mcb::ExecMode::Sequential,
            use_ear: true,
        },
    );
    assert_eq!(oracle.dist(0, 7), ear_graph::dijkstra(&g, 0)[7]);
    assert_eq!(basis.dim, 4);
    assert_eq!(
        ear_obs::event_count(),
        0,
        "pipeline recorded trace events while tracing was off"
    );
    assert!(
        ear_obs::metrics_snapshot().is_empty(),
        "pipeline recorded metrics while tracing was off"
    );

    // 3. The registry reads used by `--profile` are allocation-free too
    //    when nothing was recorded. (The pipeline in part 2 ran parallel
    //    sections whose worker threads may still be releasing caches, so
    //    this window in particular needs the transient-noise retry.)
    let delta = min_alloc_delta(5, || {
        for _ in 0..10_000 {
            std::hint::black_box(ear_obs::counter_value("guard.counter"));
            std::hint::black_box(ear_obs::is_enabled());
        }
    });
    assert_eq!(delta, 0, "registry reads allocated {delta} times");

    // 4. Query routing is allocation-free with tracing off: scalar `dist`
    //    over every pair of the graph above — three blocks joined at
    //    articulation points 2 and 5, so the pairs include same-block,
    //    cross-block and AP-endpoint routes.
    let q = ear_apsp::QueryEngine::new(&oracle);
    assert_eq!(q.plan().n_blocks(), 3);
    assert_eq!(q.plan().bct().aps, vec![2, 5]);
    let delta = min_alloc_delta(3, || {
        for u in 0..8u32 {
            for v in 0..8u32 {
                std::hint::black_box(q.dist(u, v));
            }
        }
    });
    assert_eq!(
        delta, 0,
        "disabled-obs scalar queries allocated {delta} times"
    );

    // 5. The arena block layout earns its name: a plan build allocates no
    //    per-block adjacency copies. Measured as a per-block slope — the
    //    allocation difference between a 96-block and a 48-block triangle
    //    chain — so fixed costs (reduction threads, the top-level arrays)
    //    cancel out. When this guard was written the arena layout measured
    //    2 028 allocations for the extra 48 blocks (~42 per block: id maps,
    //    reductions, side tables); the former per-block-copy layout
    //    measured 2 309, about 6 more per block. The bound allows one
    //    allocation per block of slack over the arena figure, which a
    //    layout paying 4 or more CSR arrays per block cannot meet.
    let triangle_chain = |blocks: u32| {
        let mut edges = Vec::new();
        for i in 0..blocks {
            let (a, b, c) = (2 * i, 2 * i + 1, 2 * i + 2);
            edges.extend_from_slice(&[(a, b, 1), (b, c, 1), (a, c, 1)]);
        }
        ear_graph::CsrGraph::from_edges(2 * blocks as usize + 1, &edges)
    };
    let (small, large) = (triangle_chain(48), triangle_chain(96));
    let plan_allocs = |g: &ear_graph::CsrGraph| {
        min_alloc_delta(3, || {
            std::hint::black_box(ear_decomp::plan::DecompPlan::build(g));
        })
    };
    let slope = plan_allocs(&large) - plan_allocs(&small);
    const ARENA_SLOPE: u64 = 2_028;
    const SLACK_PER_BLOCK: u64 = 1;
    assert!(
        slope <= ARENA_SLOPE + 48 * SLACK_PER_BLOCK,
        "48 extra blocks cost {slope} plan-build allocations, above the arena \
         layout's {ARENA_SLOPE} + {} slack — is a per-block copy back?",
        48 * SLACK_PER_BLOCK
    );
    // 6. One distance store: the query engine reads the oracle's arena
    //    instead of copying it, so building one allocates far less than
    //    the arena's own bytes (a copying engine allocates at least that
    //    much). A 24×24 grid is one block of 576 vertices: 331 776
    //    entries, 1.33 MB of tables at 4 bytes an entry.
    let side = 24u32;
    let mut edges = Vec::new();
    for r in 0..side {
        for c in 0..side {
            let v = r * side + c;
            if c + 1 < side {
                edges.push((v, v + 1, 1 + u64::from(v % 7)));
            }
            if r + 1 < side {
                edges.push((v, v + side, 1 + u64::from(v % 5)));
            }
        }
    }
    let grid = ear_graph::CsrGraph::from_edges((side * side) as usize, &edges);
    let oracle = ear_apsp::build_oracle(&grid, &exec, ear_apsp::ApspMethod::Ear);
    let arena_bytes = oracle.stats().table_bytes;
    assert!(
        arena_bytes >= 1 << 20,
        "grid arena is only {arena_bytes} bytes"
    );
    let engine_bytes = min_delta(alloc_bytes, 3, || {
        std::hint::black_box(ear_apsp::QueryEngine::new(&oracle));
    });
    assert!(
        engine_bytes < arena_bytes,
        "QueryEngine::new allocated {engine_bytes} bytes over a {arena_bytes}-byte arena \
         — is it copying the oracle's tables?"
    );
}
