//! Benchmarks of the heterogeneous runtime itself: executor dispatch
//! overhead (one parallel region plus the modelled queue replay).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ear_hetero::{HeteroExecutor, WorkCounters};
use std::hint::black_box;

fn bench_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("hetero");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));

    let kernel = |x: &u64| {
        (
            x.wrapping_mul(2654435761),
            WorkCounters {
                edges_relaxed: 16,
                ..Default::default()
            },
        )
    };
    for &n in &[1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::new("executor_dispatch", n), &n, |b, &n| {
            let units: Vec<u64> = (0..n as u64).collect();
            let exec = HeteroExecutor::cpu_gpu();
            b.iter(|| black_box(exec.run(units.clone(), |&x| x, kernel).report.total_units()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_executor);
criterion_main!(benches);
