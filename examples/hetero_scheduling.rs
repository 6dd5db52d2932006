//! The heterogeneous work queue in isolation (paper §2.3 / §3.4).
//!
//! Demonstrates the double-ended queue on a skewed workload: a few huge
//! workunits plus a long tail of small ones — the shape per-BCC APSP
//! produces on real sparse graphs (one giant component, thousands of tiny
//! ones). Compares the paper's dynamic balancing against static splits
//! under the device model, and checks that every unit ran exactly once.
//!
//! ```text
//! cargo run --release --example hetero_scheduling
//! ```

use ear_hetero::{DeviceProfile, HeteroExecutor, WorkCounters};

/// A synthetic workunit: `size` abstract items of work.
fn kernel(size: &u64) -> (u64, WorkCounters) {
    // Pretend each item relaxes one edge; the checksum output proves the
    // work happened.
    let checksum = (0..*size).fold(0u64, |acc, x| acc.wrapping_mul(31).wrapping_add(x));
    (
        checksum,
        WorkCounters {
            edges_relaxed: *size,
            ..Default::default()
        },
    )
}

fn main() {
    // Zipf-ish workunit sizes: one giant block + a heavy tail, the paper's
    // "workunits sorted according to the size of the biconnected
    // component".
    let mut units: Vec<u64> = Vec::new();
    units.push(3_000_000);
    units.extend((0..8).map(|i| 400_000 >> i));
    units.extend(std::iter::repeat_n(700, 4000));
    let total: u64 = units.iter().sum();
    println!(
        "{} workunits, {} total items, largest unit holds {:.1}% of all work\n",
        units.len(),
        total,
        100.0 * 3_000_000.0 / total as f64
    );

    // Dynamic balancing on the modelled CPU+GPU platform.
    let exec = HeteroExecutor::cpu_gpu();
    let out = exec.run(units.clone(), |&s| s, kernel);
    println!("== dynamic double-ended queue (the paper's scheduler) ==");
    for d in &out.report.devices {
        println!(
            "  {:<22} {:>5} units in {:>3} batches, busy {:>9.3} ms, {:>9} items",
            d.name,
            d.units,
            d.batches,
            d.busy_s * 1e3,
            d.counters.edges_relaxed
        );
    }
    println!("  modelled makespan: {:.3} ms", out.report.makespan_s * 1e3);

    // Static splits for contrast: give the GPU a fixed fraction of units.
    println!("\n== static splits (fraction of the unit list to the GPU) ==");
    for gpu_frac in [0.0, 0.5, 0.9, 1.0] {
        let cut = (units.len() as f64 * gpu_frac) as usize;
        let mut sorted = units.clone();
        sorted.sort_unstable_by_key(|&s| std::cmp::Reverse(s));
        let (gpu_part, cpu_part) = sorted.split_at(cut);
        let gpu = HeteroExecutor::new(vec![DeviceProfile::k40c()]);
        let cpu = HeteroExecutor::new(vec![DeviceProfile::e5_2650()]);
        let t_gpu = gpu.run(gpu_part.to_vec(), |&s| s, kernel).report.makespan_s;
        let t_cpu = cpu.run(cpu_part.to_vec(), |&s| s, kernel).report.makespan_s;
        let makespan = t_gpu.max(t_cpu);
        println!(
            "  gpu={:>3.0}%: makespan {:>9.3} ms  (gpu {:>9.3} ms, cpu {:>9.3} ms)",
            gpu_frac * 100.0,
            makespan * 1e3,
            t_gpu * 1e3,
            t_cpu * 1e3
        );
    }
    println!(
        "\ndynamic balancing ({:.3} ms) tracks the best static split without\nknowing the workload in advance — that is why the paper uses the queue.",
        out.report.makespan_s * 1e3
    );

    // Every unit ran exactly once: the devices' counters add up to the
    // workload.
    let items: u64 = out.report.total_counters().edges_relaxed;
    assert_eq!(items, total, "every item processed exactly once");
    assert_eq!(out.report.total_units(), units.len());
    println!(
        "\n{} units ran once each in one parallel region: wall {:.1} ms",
        out.report.total_units(),
        out.report.wall_s * 1e3
    );
}
