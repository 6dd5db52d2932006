//! Exactly-once guarantees of the heterogeneous executor: every unit runs
//! once, through both the value-returning `run` and the in-place
//! `run_mut`, and the modelled schedule accounts for each unit once.

use std::sync::atomic::{AtomicUsize, Ordering};

use ear_hetero::{HeteroExecutor, WorkCounters};
use ear_testkit::{forall, invariants, usizes};

/// Every executor profile processes each workunit exactly once, keeps
/// result order, and reports internally consistent device counts.
#[test]
fn every_profile_processes_each_unit_exactly_once() {
    forall("every_profile_processes_each_unit_exactly_once")
        .cases(32)
        .run(&usizes(0..200), |&n| {
            for exec in [
                HeteroExecutor::sequential(),
                HeteroExecutor::multicore(),
                HeteroExecutor::gpu_only(),
                HeteroExecutor::cpu_gpu(),
            ] {
                let units: Vec<u32> = (0..n as u32).collect();
                let touched: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out = exec.run(
                    units,
                    |&u| u as u64 + 1,
                    |&u| {
                        touched[u as usize].fetch_add(1, Ordering::Relaxed);
                        (u as u64 * 2, WorkCounters::default())
                    },
                );
                invariants::exactly_once(&out.report, n)?;
                if let Some(u) = touched.iter().position(|c| c.load(Ordering::Relaxed) != 1) {
                    return Err(format!(
                        "unit {u} ran {} times",
                        touched[u].load(Ordering::Relaxed)
                    ));
                }
                // Results come back in submission order regardless of the
                // device interleaving.
                for (i, r) in out.results.iter().enumerate() {
                    if *r != i as u64 * 2 {
                        return Err(format!("result {i} = {r}, expected {}", i * 2));
                    }
                }

                // In place: each unit bumps its own slot.
                let mut slots = vec![0u32; n];
                let mut units: Vec<(u32, &mut u32)> = (0..).zip(&mut slots).collect();
                let report = exec.run_mut(
                    &mut units,
                    |&(u, _)| u as u64 + 1,
                    |(_, slot)| {
                        **slot += 1;
                        WorkCounters::default()
                    },
                );
                invariants::exactly_once(&report, n)?;
                if let Some(u) = slots.iter().position(|&c| c != 1) {
                    return Err(format!("run_mut: unit {u} ran {} times", slots[u]));
                }
            }
            Ok(())
        });
}
