//! Kernel-vs-legacy microbenchmark for the de Pina phase loop: the batched
//! GF(2) kernel path (`ear_mcb::depina::depina_phase_loop`, word-transposed
//! witness matrix + packed incidence + pooled scratch) against the scalar
//! reference (`ear_testkit::reference`), on whole testkit family graphs.
//!
//! Only the phase loop is timed — each repetition replays a cloned
//! snapshot of one pre-generated candidate set, so tree construction and
//! candidate enumeration (identical for both paths) stay out of the
//! numbers. A warm-up pass checksum-gates the comparison: both paths must
//! produce bit-identical basis weights *and* equal [`PhaseTrace`]s before
//! anything is timed.
//!
//! The binary installs a counting `#[global_allocator]`, so each row also
//! reports heap allocations per phase — the before/after audit for the
//! "no per-phase allocations" claim (the kernel path amortises to O(1)
//! small allocations per phase — the recorded trace rows — while the
//! legacy path allocates label vectors per tree per phase).
//!
//! Flags: `--seed S` (default 7), `--reps R` (default 7), `--max-n N`
//! (design-point graph scale, default 96), `--smoke` (tiny inputs for CI),
//! `--out PATH` (default `BENCH_mcb.json`). Writes medians as JSON:
//! ns/phase and allocations/phase per family, plus the speedup.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ear_graph::{CsrGraph, Weight};
use ear_mcb::candidates::{self, Candidates};
use ear_mcb::depina::{self, DepinaOptions, PhaseTrace};
use ear_mcb::{Cycle, CycleSpace};
use ear_testkit::{
    cactus_graphs, chain_heavy_graphs, dense_residual_graphs, multi_bcc_graphs, Strategy, TestRng,
};

/// Pass-through allocator that counts allocation events (alloc + realloc),
/// so the bench can report allocations per phase for each path.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

struct Opts {
    seed: u64,
    reps: usize,
    smoke: bool,
    max_n: usize,
    out: String,
    obs: ear_bench::report::ObsOpts,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        seed: 7,
        reps: 7,
        smoke: false,
        max_n: 96,
        out: "BENCH_mcb.json".to_string(),
        obs: Default::default(),
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        if opts.obs.try_parse(&args, &mut i) {
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                opts.seed = args[i].parse().expect("--seed takes an integer");
            }
            "--reps" => {
                i += 1;
                opts.reps = args[i].parse().expect("--reps takes an integer");
            }
            "--smoke" => opts.smoke = true,
            "--max-n" => {
                i += 1;
                opts.max_n = args[i].parse().expect("--max-n takes an integer");
            }
            "--out" => {
                i += 1;
                opts.out = args[i].clone();
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    opts
}

/// One family's pre-generated inputs: whole graphs with their cycle-space
/// frames and candidate sets built once; every timed repetition clones the
/// candidate snapshot (the phase loop consumes its store).
struct Workload {
    family: &'static str,
    cases: Vec<(CsrGraph, CycleSpace, Candidates)>,
    phases: u64,
}

fn prepare(family: &'static str, strat: &ear_testkit::GraphStrategy, seeds: &[u64]) -> Workload {
    let mut cases = Vec::new();
    let mut phases = 0u64;
    for &seed in seeds {
        let g = strat.generate(&mut TestRng::new(seed));
        let cs = CycleSpace::new(&g);
        if cs.dim() == 0 {
            continue;
        }
        phases += cs.dim() as u64;
        let cands = candidates::generate(&g);
        cases.push((g, cs, cands));
    }
    Workload {
        family,
        cases,
        phases,
    }
}

fn basis_weight(basis: &[Cycle]) -> Weight {
    basis.iter().map(|c| c.weight).sum()
}

struct Pass {
    ns: u128,
    allocs: u64,
    weight: Weight,
    traces: Vec<PhaseTrace>,
}

/// Runs one full pass over the workload through `run_loop`, timing and
/// alloc-counting only the phase-loop calls (candidate cloning stays
/// outside the measured windows).
fn run_pass(
    w: &Workload,
    mut run_loop: impl FnMut(
        &CsrGraph,
        &CycleSpace,
        &mut Candidates,
        &DepinaOptions,
    ) -> (Vec<Cycle>, PhaseTrace),
) -> Pass {
    let opts = DepinaOptions::default();
    let mut ns = 0u128;
    let mut allocs = 0u64;
    let mut weight: Weight = 0;
    let mut traces = Vec::with_capacity(w.cases.len());
    for (g, cs, cands) in &w.cases {
        let mut snapshot = cands.clone();
        let a0 = ALLOC_EVENTS.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let (basis, trace) = run_loop(g, cs, &mut snapshot, &opts);
        ns += t0.elapsed().as_nanos();
        allocs += ALLOC_EVENTS.load(Ordering::Relaxed) - a0;
        weight = weight.wrapping_add(basis_weight(&basis));
        traces.push(trace);
    }
    Pass {
        ns,
        allocs,
        weight,
        traces,
    }
}

fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

struct FamilyResult {
    family: &'static str,
    graphs: usize,
    phases: u64,
    weight: Weight,
    legacy_ns_per_phase: f64,
    kernel_ns_per_phase: f64,
    legacy_allocs_per_phase: f64,
    kernel_allocs_per_phase: f64,
    speedup: f64,
}

fn bench_family(w: &Workload, reps: usize) -> FamilyResult {
    // Warm-up doubles as the checksum gate: identical basis weight and
    // byte-identical traces, or the numbers mean nothing.
    let k0 = run_pass(w, depina::depina_phase_loop);
    let l0 = run_pass(w, ear_testkit::reference::depina_phase_loop);
    assert_eq!(
        k0.weight, l0.weight,
        "{}: basis weight checksum mismatch",
        w.family
    );
    assert_eq!(
        k0.traces, l0.traces,
        "{}: phase traces differ between kernel and legacy paths",
        w.family
    );

    let mut legacy_ns = Vec::with_capacity(reps);
    let mut kernel_ns = Vec::with_capacity(reps);
    let mut legacy_allocs = Vec::with_capacity(reps);
    let mut kernel_allocs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let k = run_pass(w, depina::depina_phase_loop);
        assert_eq!(k.weight, k0.weight, "{}: kernel weight drifted", w.family);
        kernel_ns.push(k.ns as f64 / w.phases as f64);
        kernel_allocs.push(k.allocs as f64 / w.phases as f64);
        let l = run_pass(w, ear_testkit::reference::depina_phase_loop);
        assert_eq!(l.weight, k0.weight, "{}: legacy weight drifted", w.family);
        legacy_ns.push(l.ns as f64 / w.phases as f64);
        legacy_allocs.push(l.allocs as f64 / w.phases as f64);
    }
    let legacy = median(&mut legacy_ns);
    let kernel = median(&mut kernel_ns);
    FamilyResult {
        family: w.family,
        graphs: w.cases.len(),
        phases: w.phases,
        weight: k0.weight,
        legacy_ns_per_phase: legacy,
        kernel_ns_per_phase: kernel,
        legacy_allocs_per_phase: median(&mut legacy_allocs),
        kernel_allocs_per_phase: median(&mut kernel_allocs),
        speedup: legacy / kernel,
    }
}

fn write_json(path: &str, opts: &Opts, results: &[FamilyResult]) {
    let mut rep = ear_bench::report::Report::new("mcb_kernels");
    rep.params()
        .uint("seed", opts.seed)
        .uint("reps", opts.reps as u64)
        .flag("smoke", opts.smoke);
    use ear_bench::report::Direction::{Higher, Lower};
    rep.column("legacy_ns_per_phase", Lower)
        .column("kernel_ns_per_phase", Lower)
        .column("legacy_allocs_per_phase", Lower)
        .column("kernel_allocs_per_phase", Lower)
        .column("speedup", Higher);
    for r in results {
        rep.family(r.family, r.weight, opts.reps as u64)
            .uint("graphs", r.graphs as u64)
            .uint("phases", r.phases)
            .uint("basis_weight_checksum", r.weight)
            .num("legacy_ns_per_phase", r.legacy_ns_per_phase, 1)
            .num("kernel_ns_per_phase", r.kernel_ns_per_phase, 1)
            .num("legacy_allocs_per_phase", r.legacy_allocs_per_phase, 2)
            .num("kernel_allocs_per_phase", r.kernel_allocs_per_phase, 2)
            .num("speedup", r.speedup, 3);
    }
    let mut speedups: Vec<f64> = results.iter().map(|r| r.speedup).collect();
    rep.summary()
        .num("median_speedup", median(&mut speedups), 3);
    rep.write(path);
}

fn main() {
    let opts = parse_args();
    opts.obs.init();
    // Design-point rows: the testkit families the paper's pipeline targets
    // (chain-heavy, multi-BCC, cactus) at whole-graph scale, plus the
    // dense-residual stress family where f ≥ n and the witness matrix is
    // wide — the shape the batched update kernel exists for.
    let (max_n, cases_per_family, reps) = if opts.smoke {
        (24, 2, 2)
    } else {
        (opts.max_n, 8, opts.reps)
    };
    let case_seeds = |family_tag: u64| -> Vec<u64> {
        (0..cases_per_family as u64)
            .map(|i| opts.seed ^ (family_tag << 32) ^ i)
            .collect()
    };

    let workloads = vec![
        prepare("chain_heavy", &chain_heavy_graphs(max_n), &case_seeds(1)),
        prepare("multi_bcc", &multi_bcc_graphs(max_n), &case_seeds(2)),
        prepare("cactus", &cactus_graphs(max_n), &case_seeds(3)),
        prepare(
            "dense_residual",
            &dense_residual_graphs((max_n / 3).max(8)),
            &case_seeds(4),
        ),
    ];

    let mut table = ear_bench::Table::new(&[
        "family",
        "graphs",
        "phases",
        "legacy",
        "kernel",
        "allocs/phase",
        "speedup",
    ]);
    let mut results = Vec::new();
    for w in &workloads {
        if w.phases == 0 {
            continue;
        }
        let r = bench_family(w, reps);
        table.row(vec![
            r.family.to_string(),
            r.graphs.to_string(),
            r.phases.to_string(),
            format!("{:.0} ns/ph", r.legacy_ns_per_phase),
            format!("{:.0} ns/ph", r.kernel_ns_per_phase),
            format!(
                "{:.1} -> {:.1}",
                r.legacy_allocs_per_phase, r.kernel_allocs_per_phase
            ),
            format!("{:.2}x", r.speedup),
        ]);
        results.push(r);
    }
    table.print();
    write_json(&opts.out, &opts, &results);
    opts.obs.finish();
}
