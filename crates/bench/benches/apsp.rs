//! Wall-clock benchmarks of the APSP implementations (real host time; the
//! modelled device comparison lives in the fig2/fig3 binaries).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ear_apsp::djidjev::djidjev_apsp;
use ear_apsp::{build_oracle, ApspMethod};
use ear_hetero::HeteroExecutor;
use ear_workloads::combinators::subdivide_edges;
use ear_workloads::generators::{random_min_deg3, triangulated_grid};
use std::hint::black_box;

fn bench_apsp(c: &mut Criterion) {
    let mut group = c.benchmark_group("apsp");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));

    // A chain-heavy sparse graph (the paper's favourable case).
    let core = random_min_deg3(400, 1200, 7);
    let chained = subdivide_edges(&core, 800, 2, 8);
    let exec = HeteroExecutor::cpu_gpu();

    group.bench_function("ear_oracle/chained_2k", |b| {
        b.iter(|| black_box(build_oracle(&chained, &exec, ApspMethod::Ear)))
    });
    group.bench_function("plain_oracle/chained_2k", |b| {
        b.iter(|| black_box(build_oracle(&chained, &exec, ApspMethod::Plain)))
    });

    // Planar mesh for the partition baseline.
    let mesh = triangulated_grid(36, 36, 9);
    for k in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("djidjev/mesh_1296", k), &k, |b, &k| {
            b.iter(|| black_box(djidjev_apsp(&mesh, k, &exec)))
        });
    }
    group.bench_function("ear_oracle/mesh_1296", |b| {
        b.iter(|| black_box(build_oracle(&mesh, &exec, ApspMethod::Ear)))
    });
    group.finish();
}

criterion_group!(benches, bench_apsp);
criterion_main!(benches);
