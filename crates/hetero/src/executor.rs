//! The heterogeneous executor.
//!
//! [`HeteroExecutor::run`] is the centrepiece: a discrete-event scheduler
//! that mirrors the paper's dynamic CPU/GPU work balancing. Workunits are
//! sorted descending by a caller-supplied size hint into a
//! [`WorkQueue`]; whenever a device is free (its modelled clock is the
//! smallest) it pops a batch from its end — GPU from the big-unit front,
//! CPU from the small-unit back — executes the kernel *for real* on the
//! host (in parallel through Rayon), and advances its modelled clock by the
//! profile's batch time. The schedule this produces is exactly the one the
//! paper's queue produces on real hardware: devices keep pulling work until
//! the queue drains, and the modelled makespan is the slower device's final
//! clock.
//!
//! [`HeteroExecutor::run_concurrent`] is the wall-clock twin used by tests
//! and examples: one OS thread per device, genuinely concurrent, no model.
//!
//! Kernels that run SSSP should go through `ear_graph::with_engine`
//! rather than allocating scratch inline: batches execute on short-lived
//! Rayon worker threads, and the engine pool's thread-local slot plus
//! global free list keeps warm, pre-sized scratch flowing between batches
//! instead of reallocating per workunit. The APSP oracle builders use one
//! workunit per (block, source) pair, sized by the block's edge count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rayon::prelude::*;

use crate::counters::WorkCounters;
use crate::profile::{DeviceKind, DeviceProfile};
use crate::queue::WorkQueue;

/// Per-device execution summary.
#[derive(Clone, Debug)]
pub struct DeviceReport {
    /// Profile name.
    pub name: String,
    /// Device class.
    pub kind: DeviceKind,
    /// Workunits this device processed.
    pub units: usize,
    /// Batches popped.
    pub batches: usize,
    /// Modelled busy time in seconds (wall busy time in
    /// [`HeteroExecutor::run_concurrent`]).
    pub busy_s: f64,
    /// Accumulated kernel counters.
    pub counters: WorkCounters,
}

/// Whole-run summary.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// One entry per device.
    pub devices: Vec<DeviceReport>,
    /// Modelled completion time: the maximum device clock.
    pub makespan_s: f64,
    /// Real wall-clock time the host spent producing the results.
    pub wall_s: f64,
}

impl ExecutionReport {
    /// Sum of all devices' counters.
    pub fn total_counters(&self) -> WorkCounters {
        self.devices.iter().map(|d| d.counters).sum()
    }

    /// Total workunits processed.
    pub fn total_units(&self) -> usize {
        self.devices.iter().map(|d| d.units).sum()
    }
}

/// Publish a *real* execution's totals into the `ear-obs` metrics
/// registry under the `hetero.*` names. Only `run` / `run_concurrent`
/// call this: modelled replays (`simulate*`) would double-count work
/// that real kernels already reported.
fn publish_report(report: &ExecutionReport) {
    if !ear_obs::is_enabled() {
        return;
    }
    ear_obs::counter_add("hetero.units", report.total_units() as u64);
    ear_obs::counter_add(
        "hetero.batches",
        report.devices.iter().map(|d| d.batches as u64).sum(),
    );
    let c = report.total_counters();
    ear_obs::counter_add("hetero.edges_relaxed", c.edges_relaxed);
    ear_obs::counter_add("hetero.vertices_settled", c.vertices_settled);
    ear_obs::counter_add("hetero.labels_computed", c.labels_computed);
    ear_obs::counter_add("hetero.cycles_inspected", c.cycles_inspected);
    ear_obs::counter_add("hetero.words_xored", c.words_xored);
    ear_obs::counter_add("hetero.distances_combined", c.distances_combined);
    ear_obs::counter_add("hetero.dense_combined", c.dense_combined);
}

/// Results plus the execution report.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// Kernel outputs, in the original workunit order.
    pub results: Vec<R>,
    /// Timing/counter summary.
    pub report: ExecutionReport,
}

/// A set of devices sharing one work queue.
#[derive(Clone, Debug)]
pub struct HeteroExecutor {
    devices: Vec<DeviceProfile>,
}

impl HeteroExecutor {
    /// Builds an executor over explicit device profiles.
    ///
    /// # Panics
    /// Panics if `devices` is empty.
    pub fn new(devices: Vec<DeviceProfile>) -> Self {
        assert!(!devices.is_empty(), "need at least one device");
        HeteroExecutor { devices }
    }

    /// The paper's full platform: E5-2650 multicore + Tesla K40c.
    pub fn cpu_gpu() -> Self {
        Self::new(vec![DeviceProfile::e5_2650(), DeviceProfile::k40c()])
    }

    /// Multicore CPU only.
    pub fn multicore() -> Self {
        Self::new(vec![DeviceProfile::e5_2650()])
    }

    /// GPU only.
    pub fn gpu_only() -> Self {
        Self::new(vec![DeviceProfile::k40c()])
    }

    /// Single-core sequential baseline.
    pub fn sequential() -> Self {
        Self::new(vec![DeviceProfile::single_core()])
    }

    /// Access to the device profiles.
    pub fn devices(&self) -> &[DeviceProfile] {
        &self.devices
    }

    /// Discrete-event heterogeneous run (see module docs).
    ///
    /// `size_hint` orders the queue (bigger first); `kernel` maps a workunit
    /// to its result plus the operation counters the device model charges.
    ///
    /// ```
    /// use ear_hetero::{HeteroExecutor, WorkCounters};
    /// let exec = HeteroExecutor::cpu_gpu();
    /// let out = exec.run(
    ///     (0u64..1000).collect(),
    ///     |&x| x,                       // size hint: big units first
    ///     |&x| (x * x, WorkCounters { edges_relaxed: x, ..Default::default() }),
    /// );
    /// assert_eq!(out.results[30], 900);
    /// assert!(out.report.makespan_s > 0.0);
    /// ```
    pub fn run<T, R, K, S>(&self, units: Vec<T>, size_hint: S, kernel: K) -> RunOutput<R>
    where
        T: Send + Sync,
        R: Send,
        K: Fn(&T) -> (R, WorkCounters) + Sync,
        S: Fn(&T) -> u64,
    {
        let _span = ear_obs::span_with("hetero.run", units.len() as u64);
        let obs_on = ear_obs::is_enabled();
        let mut slices: Vec<ear_obs::ModelledSlice> = Vec::new();
        let wall_start = Instant::now();
        let n = units.len();
        let mut indexed: Vec<(usize, &T)> = units.iter().enumerate().collect();
        indexed.sort_by_key(|(i, t)| (std::cmp::Reverse(size_hint(t)), *i));
        let queue = WorkQueue::new(indexed);

        let mut clocks = vec![0.0_f64; self.devices.len()];
        let mut reports: Vec<DeviceReport> = self
            .devices
            .iter()
            .map(|d| DeviceReport {
                name: d.name.clone(),
                kind: d.kind,
                units: 0,
                batches: 0,
                busy_s: 0.0,
                counters: WorkCounters::default(),
            })
            .collect();
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();

        while !queue.is_empty() {
            // The free-est device pulls next — ties go to the earlier device
            // in the list, keeping the schedule deterministic.
            let d = (0..self.devices.len())
                .min_by(|&a, &b| clocks[a].partial_cmp(&clocks[b]).unwrap())
                .unwrap();
            let dev = &self.devices[d];
            // A lone device does not share the queue: it maps the whole
            // unit list to one kernel launch / one parallel-for region,
            // exactly as single-device implementations do. Batching only
            // exists to interleave devices.
            let take = if self.devices.len() == 1 {
                usize::MAX
            } else {
                dev.batch_units
            };
            let batch = match dev.kind {
                DeviceKind::Gpu => queue.pop_front_batch(take),
                DeviceKind::Cpu => queue.pop_back_batch(take),
            };
            if batch.is_empty() {
                break;
            }
            // Execute the batch for real, in parallel, on the host.
            let batch_span = ear_obs::span_with("hetero.batch", batch.len() as u64);
            let outs: Vec<(usize, R, WorkCounters)> = batch
                .par_iter()
                .map(|&(i, t)| {
                    let _u = ear_obs::span_with("hetero.unit", i as u64);
                    let (r, c) = kernel(t);
                    (i, r, c)
                })
                .collect();
            drop(batch_span);
            if obs_on {
                ear_obs::histogram_record("hetero.batch_units", outs.len() as u64);
                // Cumulative units series: a process-wide total emitted as
                // a trace counter event after every batch. The value only
                // ever grows, giving `ear trace-check` a genuinely
                // monotone `*.total` series to validate (the occupancy
                // counter `queue.len` legitimately goes up and down).
                static UNITS_TOTAL: AtomicU64 = AtomicU64::new(0);
                let total =
                    UNITS_TOTAL.fetch_add(outs.len() as u64, Ordering::Relaxed) + outs.len() as u64;
                ear_obs::counter_event("hetero.units.total", total);
            }
            let per_unit: Vec<WorkCounters> = outs.iter().map(|(_, _, c)| *c).collect();
            let rep = &mut reports[d];
            // Launch overhead is paid once per device per run: follow-up
            // batches stream (pipelined kernels / a live thread pool).
            let mut dt = dev.batch_work_s(&per_unit);
            if rep.batches == 0 {
                dt += dev.launch_overhead_us * 1e-6;
            }
            clocks[d] += dt;
            if obs_on {
                slices.push(ear_obs::ModelledSlice {
                    lane: dev.name.clone(),
                    name: "batch".to_string(),
                    start_s: clocks[d] - dt,
                    end_s: clocks[d],
                    units: outs.len() as u64,
                });
            }
            rep.units += outs.len();
            rep.batches += 1;
            rep.busy_s += dt;
            for (i, r, c) in outs {
                rep.counters.merge(&c);
                results[i] = Some(r);
            }
        }

        let makespan_s = clocks.iter().copied().fold(0.0, f64::max);
        let results: Vec<R> = results
            .into_iter()
            .map(|r| r.expect("every unit executed"))
            .collect();
        let report = ExecutionReport {
            devices: reports,
            makespan_s,
            wall_s: wall_start.elapsed().as_secs_f64(),
        };
        if obs_on {
            ear_obs::modelled_run(slices, makespan_s);
        }
        publish_report(&report);
        RunOutput { results, report }
    }

    /// Replays the discrete-event schedule over work that was *already*
    /// performed: `units` holds one `(size_hint, counters)` pair per
    /// workunit. Used by phases whose real execution shape does not match
    /// the workunit granularity (e.g. an early-exit candidate scan that ran
    /// sequentially but is modelled as the paper's per-batch parallel
    /// check), so the device model can still charge them consistently.
    pub fn simulate(&self, units: &[(u64, WorkCounters)]) -> ExecutionReport {
        let obs_on = ear_obs::is_enabled();
        let mut slices: Vec<ear_obs::ModelledSlice> = Vec::new();
        let mut order: Vec<usize> = (0..units.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(units[i].0), i));
        let queue = WorkQueue::new(order);
        let mut clocks = vec![0.0_f64; self.devices.len()];
        let mut reports: Vec<DeviceReport> = self
            .devices
            .iter()
            .map(|d| DeviceReport {
                name: d.name.clone(),
                kind: d.kind,
                units: 0,
                batches: 0,
                busy_s: 0.0,
                counters: WorkCounters::default(),
            })
            .collect();
        while !queue.is_empty() {
            let d = (0..self.devices.len())
                .min_by(|&a, &b| clocks[a].partial_cmp(&clocks[b]).unwrap())
                .unwrap();
            let dev = &self.devices[d];
            let take = if self.devices.len() == 1 {
                usize::MAX
            } else {
                dev.batch_units
            };
            let batch = match dev.kind {
                DeviceKind::Gpu => queue.pop_front_batch(take),
                DeviceKind::Cpu => queue.pop_back_batch(take),
            };
            if batch.is_empty() {
                break;
            }
            let per_unit: Vec<WorkCounters> = batch.iter().map(|&i| units[i].1).collect();
            let rep = &mut reports[d];
            let mut dt = dev.batch_work_s(&per_unit);
            if rep.batches == 0 {
                dt += dev.launch_overhead_us * 1e-6;
            }
            clocks[d] += dt;
            if obs_on {
                slices.push(ear_obs::ModelledSlice {
                    lane: dev.name.clone(),
                    name: "batch".to_string(),
                    start_s: clocks[d] - dt,
                    end_s: clocks[d],
                    units: batch.len() as u64,
                });
            }
            rep.units += batch.len();
            rep.batches += 1;
            rep.busy_s += dt;
            for c in &per_unit {
                rep.counters.merge(c);
            }
        }
        let makespan_s = clocks.iter().copied().fold(0.0, f64::max);
        if obs_on {
            ear_obs::modelled_run(slices, makespan_s);
        }
        ExecutionReport {
            devices: reports,
            makespan_s,
            wall_s: 0.0,
        }
    }

    /// Like [`HeteroExecutor::simulate`], but over *groups* of identical
    /// workunits: `groups[i] = (size_hint, counters, count)` stands for
    /// `count` units with the same cost. The discrete-event loop advances
    /// whole batches, so replaying a phase with a million uniform units
    /// costs O(batches), and a recorded trace stays a few bytes per phase.
    ///
    /// This is the workhorse of the MCB mode replay: the de Pina loop
    /// records one compact group list per phase step and every device
    /// configuration is scored from the same recording (the real
    /// computation runs once — results are identical across modes anyway).
    pub fn simulate_grouped(&self, groups: &[(u64, WorkCounters, u64)]) -> ExecutionReport {
        let obs_on = ear_obs::is_enabled();
        let mut slices: Vec<ear_obs::ModelledSlice> = Vec::new();
        // Expand group order: sorted descending by hint (stable).
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(groups[i].0), i));
        // Virtual deque over the concatenated (front-to-back) unit
        // sequence: cursors consume counts from both ends.
        let mut remaining: Vec<u64> = order.iter().map(|&i| groups[i].2).collect();
        let mut total_left: u64 = remaining.iter().sum();
        let mut front = 0usize;
        let mut back = remaining.len();

        let mut clocks = vec![0.0_f64; self.devices.len()];
        let mut reports: Vec<DeviceReport> = self
            .devices
            .iter()
            .map(|d| DeviceReport {
                name: d.name.clone(),
                kind: d.kind,
                units: 0,
                batches: 0,
                busy_s: 0.0,
                counters: WorkCounters::default(),
            })
            .collect();

        while total_left > 0 {
            let d = (0..self.devices.len())
                .min_by(|&a, &b| clocks[a].partial_cmp(&clocks[b]).unwrap())
                .unwrap();
            let dev = &self.devices[d];
            // Adaptive batching (the paper: batches "whose size depends on
            // the nature of the task"): a device takes at least its
            // configured batch, but never less than an eighth of the
            // remaining units — fine-grained units (witness updates,
            // candidate checks) would otherwise drown in per-batch launch
            // overhead that no real implementation pays.
            let want = if self.devices.len() == 1 {
                total_left
            } else {
                (dev.batch_units as u64).max(total_left / 8).min(total_left)
            };
            // Batch composition: (counters, count) pairs.
            let mut comp: Vec<(WorkCounters, u64)> = Vec::new();
            let mut need = want;
            match dev.kind {
                DeviceKind::Gpu => {
                    while need > 0 && front < back {
                        let gi = order[front];
                        let take = remaining[front].min(need);
                        remaining[front] -= take;
                        need -= take;
                        comp.push((groups[gi].1, take));
                        if remaining[front] == 0 {
                            front += 1;
                        }
                    }
                }
                DeviceKind::Cpu => {
                    while need > 0 && back > front {
                        let bi = back - 1;
                        let gi = order[bi];
                        let take = remaining[bi].min(need);
                        remaining[bi] -= take;
                        need -= take;
                        comp.push((groups[gi].1, take));
                        if remaining[bi] == 0 {
                            back -= 1;
                        }
                    }
                }
            }
            let taken: u64 = comp.iter().map(|&(_, c)| c).sum();
            if taken == 0 {
                break;
            }
            total_left -= taken;
            let rep = &mut reports[d];
            let mut dt = dev.batch_work_grouped(&comp);
            if rep.batches == 0 {
                dt += dev.launch_overhead_us * 1e-6;
            }
            clocks[d] += dt;
            if obs_on {
                slices.push(ear_obs::ModelledSlice {
                    lane: dev.name.clone(),
                    name: "batch".to_string(),
                    start_s: clocks[d] - dt,
                    end_s: clocks[d],
                    units: taken,
                });
            }
            rep.units += taken as usize;
            rep.batches += 1;
            rep.busy_s += dt;
            for (c, count) in comp {
                rep.counters.merge(&c.scaled(count));
            }
        }
        let makespan_s = clocks.iter().copied().fold(0.0, f64::max);

        // Lookahead: a dynamic scheduler never hands work to a device whose
        // participation slows the job down (on tiny phases the launch
        // overhead of a second device can exceed the whole phase). If some
        // device solo beats the shared schedule, the queue effectively
        // degenerates to that device.
        let all: Vec<(WorkCounters, u64)> = groups.iter().map(|&(_, c, k)| (c, k)).collect();
        let (solo_d, solo_t) = self
            .devices
            .iter()
            .enumerate()
            .map(|(i, d)| (i, d.launch_overhead_us * 1e-6 + d.batch_work_grouped(&all)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        if solo_t < makespan_s {
            let dev = &self.devices[solo_d];
            let total_units: u64 = groups.iter().map(|&(_, _, k)| k).sum();
            let mut counters = WorkCounters::default();
            for &(_, c, k) in groups {
                counters.merge(&c.scaled(k));
            }
            let devices = self
                .devices
                .iter()
                .enumerate()
                .map(|(i, d)| DeviceReport {
                    name: d.name.clone(),
                    kind: d.kind,
                    units: if i == solo_d { total_units as usize } else { 0 },
                    batches: usize::from(i == solo_d),
                    busy_s: if i == solo_d { solo_t } else { 0.0 },
                    counters: if i == solo_d {
                        counters
                    } else {
                        WorkCounters::default()
                    },
                })
                .collect();
            if obs_on {
                // The shared schedule was discarded; its slices go with it.
                ear_obs::modelled_run(
                    vec![ear_obs::ModelledSlice {
                        lane: dev.name.clone(),
                        name: "batch".to_string(),
                        start_s: 0.0,
                        end_s: solo_t,
                        units: total_units,
                    }],
                    solo_t,
                );
            }
            return ExecutionReport {
                devices,
                makespan_s: solo_t,
                wall_s: 0.0,
            };
        }
        if obs_on {
            ear_obs::modelled_run(slices, makespan_s);
        }
        ExecutionReport {
            devices: reports,
            makespan_s,
            wall_s: 0.0,
        }
    }

    /// Genuinely concurrent run: one OS thread per device, each pulling
    /// batches from its end of the shared queue until it drains. Reported
    /// `busy_s` is wall time; no modelling. Used to validate that the
    /// dynamic balancing itself (not the model) delivers exactly-once
    /// execution and full coverage under real concurrency.
    pub fn run_concurrent<T, R, K, S>(&self, units: Vec<T>, size_hint: S, kernel: K) -> RunOutput<R>
    where
        T: Send + Sync,
        R: Send,
        K: Fn(&T) -> (R, WorkCounters) + Sync,
        S: Fn(&T) -> u64,
    {
        let wall_start = Instant::now();
        let n = units.len();
        let mut indexed: Vec<(usize, &T)> = units.iter().enumerate().collect();
        indexed.sort_by_key(|(i, t)| (std::cmp::Reverse(size_hint(t)), *i));
        let queue = WorkQueue::new(indexed);

        let slots: Vec<parking_lot::Mutex<Option<R>>> =
            (0..n).map(|_| parking_lot::Mutex::new(None)).collect();
        let reports: Vec<parking_lot::Mutex<DeviceReport>> = self
            .devices
            .iter()
            .map(|d| {
                parking_lot::Mutex::new(DeviceReport {
                    name: d.name.clone(),
                    kind: d.kind,
                    units: 0,
                    batches: 0,
                    busy_s: 0.0,
                    counters: WorkCounters::default(),
                })
            })
            .collect();

        std::thread::scope(|scope| {
            for (d, dev) in self.devices.iter().enumerate() {
                let queue = &queue;
                let slots = &slots;
                let kernel = &kernel;
                let reports = &reports;
                // Named threads give the trace one readable lane per device.
                std::thread::Builder::new()
                    .name(format!("dev:{}", dev.name))
                    .spawn_scoped(scope, move || {
                        let t0 = Instant::now();
                        loop {
                            let batch = match dev.kind {
                                DeviceKind::Gpu => queue.pop_front_batch(dev.batch_units),
                                DeviceKind::Cpu => queue.pop_back_batch(dev.batch_units),
                            };
                            if batch.is_empty() {
                                break;
                            }
                            let _b = ear_obs::span_with("hetero.batch", batch.len() as u64);
                            // Accumulate counters locally; touch the shared
                            // report once per batch, not once per unit.
                            let mut acc = WorkCounters::default();
                            let units = batch.len();
                            for (i, t) in batch {
                                let _u = ear_obs::span_with("hetero.unit", i as u64);
                                let (r, c) = kernel(t);
                                *slots[i].lock() = Some(r);
                                acc.merge(&c);
                            }
                            let mut rep = reports[d].lock();
                            rep.batches += 1;
                            rep.units += units;
                            rep.counters.merge(&acc);
                        }
                        reports[d].lock().busy_s = t0.elapsed().as_secs_f64();
                    })
                    .expect("spawn device thread");
            }
        });

        let results: Vec<R> = slots
            .into_iter()
            .map(|s| s.into_inner().expect("every unit executed"))
            .collect();
        let devices: Vec<DeviceReport> = reports.into_iter().map(|r| r.into_inner()).collect();
        let wall_s = wall_start.elapsed().as_secs_f64();
        let makespan_s = devices.iter().map(|d| d.busy_s).fold(0.0, f64::max);
        let report = ExecutionReport {
            devices,
            makespan_s,
            wall_s,
        };
        publish_report(&report);
        RunOutput { results, report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_kernel(x: &u64) -> (u64, WorkCounters) {
        (
            x * x,
            WorkCounters {
                edges_relaxed: *x,
                ..Default::default()
            },
        )
    }

    #[test]
    fn results_come_back_in_input_order() {
        let ex = HeteroExecutor::cpu_gpu();
        let units: Vec<u64> = (0..1000).collect();
        let out = ex.run(units.clone(), |&x| x, square_kernel);
        let expect: Vec<u64> = units.iter().map(|x| x * x).collect();
        assert_eq!(out.results, expect);
    }

    #[test]
    fn both_devices_participate_on_big_runs() {
        let ex = HeteroExecutor::cpu_gpu();
        let units: Vec<u64> = (0..5000).map(|i| i % 997).collect();
        let out = ex.run(units, |&x| x + 1, square_kernel);
        assert!(
            out.report.devices.iter().all(|d| d.units > 0),
            "{:#?}",
            out.report.devices
        );
        assert_eq!(out.report.total_units(), 5000);
    }

    #[test]
    fn gpu_takes_the_big_units() {
        let ex = HeteroExecutor::cpu_gpu();
        // 256 huge units (exactly one GPU batch) + tiny ones.
        let mut units = vec![1_000_000u64; 256];
        units.extend(std::iter::repeat_n(1u64, 64));
        let out = ex.run(units, |&x| x, square_kernel);
        let gpu = out
            .report
            .devices
            .iter()
            .find(|d| d.kind == DeviceKind::Gpu)
            .unwrap();
        assert!(gpu.counters.edges_relaxed >= 256 * 1_000_000);
    }

    #[test]
    fn makespan_is_max_device_clock() {
        let ex = HeteroExecutor::cpu_gpu();
        let out = ex.run((0..2000u64).collect(), |&x| x, square_kernel);
        let max_busy = out
            .report
            .devices
            .iter()
            .map(|d| d.busy_s)
            .fold(0.0, f64::max);
        assert!((out.report.makespan_s - max_busy).abs() < 1e-12);
    }

    #[test]
    fn single_device_handles_everything() {
        let ex = HeteroExecutor::sequential();
        let out = ex.run((0..100u64).collect(), |&x| x, square_kernel);
        assert_eq!(out.report.devices.len(), 1);
        assert_eq!(out.report.devices[0].units, 100);
        assert_eq!(out.results[7], 49);
    }

    #[test]
    fn modelled_hierarchy_sequential_multicore_gpu() {
        let units: Vec<u64> = vec![50_000; 2048];
        let t = |ex: HeteroExecutor| {
            ex.run(units.clone(), |&x| x, square_kernel)
                .report
                .makespan_s
        };
        let seq = t(HeteroExecutor::sequential());
        let mc = t(HeteroExecutor::multicore());
        let gpu = t(HeteroExecutor::gpu_only());
        let het = t(HeteroExecutor::cpu_gpu());
        assert!(mc < seq, "multicore {mc} vs sequential {seq}");
        assert!(gpu < mc, "gpu {gpu} vs multicore {mc}");
        assert!(het <= gpu * 1.01, "hetero {het} vs gpu {gpu}");
    }

    #[test]
    fn empty_unit_list_is_fine() {
        let ex = HeteroExecutor::cpu_gpu();
        let out = ex.run(Vec::<u64>::new(), |&x| x, square_kernel);
        assert!(out.results.is_empty());
        assert_eq!(out.report.makespan_s, 0.0);
    }

    #[test]
    fn concurrent_mode_processes_everything_exactly_once() {
        let ex = HeteroExecutor::cpu_gpu();
        let units: Vec<u64> = (0..4000).collect();
        let out = ex.run_concurrent(units.clone(), |&x| x, square_kernel);
        let expect: Vec<u64> = units.iter().map(|x| x * x).collect();
        assert_eq!(out.results, expect);
        assert_eq!(out.report.total_units(), 4000);
        let relaxed: u64 = out.report.total_counters().edges_relaxed;
        assert_eq!(relaxed, units.iter().sum::<u64>());
    }

    #[test]
    fn deterministic_schedule() {
        let ex = HeteroExecutor::cpu_gpu();
        let units: Vec<u64> = (0..3000).map(|i| (i * 37) % 1009).collect();
        let a = ex.run(units.clone(), |&x| x, square_kernel);
        let b = ex.run(units, |&x| x, square_kernel);
        assert_eq!(a.report.makespan_s, b.report.makespan_s);
        for (da, db) in a.report.devices.iter().zip(&b.report.devices) {
            assert_eq!(da.units, db.units);
            assert_eq!(da.batches, db.batches);
        }
    }
}

#[cfg(test)]
mod grouped_tests {
    use super::*;

    fn unit(edges: u64) -> WorkCounters {
        WorkCounters {
            edges_relaxed: edges,
            ..Default::default()
        }
    }

    #[test]
    fn grouped_matches_ungrouped_on_single_device() {
        let per_unit: Vec<(u64, WorkCounters)> =
            (0..500).map(|i| (10, unit(1000 + i % 7))).collect();
        let mut groups = std::collections::HashMap::<u64, u64>::new();
        for &(_, c) in &per_unit {
            *groups.entry(c.edges_relaxed).or_insert(0) += 1;
        }
        let groups: Vec<(u64, WorkCounters, u64)> =
            groups.into_iter().map(|(e, k)| (10, unit(e), k)).collect();
        for exec in [
            HeteroExecutor::sequential(),
            HeteroExecutor::multicore(),
            HeteroExecutor::gpu_only(),
        ] {
            let a = exec.simulate(&per_unit);
            let b = exec.simulate_grouped(&groups);
            // Single device: both sides run one batch over everything.
            assert!(
                (a.makespan_s - b.makespan_s).abs() < 1e-12,
                "{}",
                exec.devices()[0].name
            );
            assert_eq!(a.total_counters(), b.total_counters());
        }
    }

    #[test]
    fn hetero_grouped_never_loses_to_solo_devices() {
        for size in [1u64, 100, 10_000, 1_000_000] {
            let groups = vec![(1u64, unit(size), 997u64)];
            let het = HeteroExecutor::cpu_gpu().simulate_grouped(&groups);
            let mc = HeteroExecutor::multicore().simulate_grouped(&groups);
            let gpu = HeteroExecutor::gpu_only().simulate_grouped(&groups);
            assert!(
                het.makespan_s <= mc.makespan_s.min(gpu.makespan_s) + 1e-12,
                "size {size}: het {} mc {} gpu {}",
                het.makespan_s,
                mc.makespan_s,
                gpu.makespan_s
            );
        }
    }

    #[test]
    fn grouped_counters_scale_with_counts() {
        let groups = vec![(1u64, unit(3), 10u64), (1, unit(5), 4)];
        let rep = HeteroExecutor::sequential().simulate_grouped(&groups);
        assert_eq!(rep.total_counters().edges_relaxed, 3 * 10 + 5 * 4);
        assert_eq!(rep.total_units(), 14);
    }

    #[test]
    fn empty_groups_are_free() {
        let rep = HeteroExecutor::cpu_gpu().simulate_grouped(&[]);
        assert_eq!(rep.makespan_s, 0.0);
        assert_eq!(rep.total_units(), 0);
    }

    #[test]
    fn big_uniform_workload_splits_across_devices() {
        // Enough work that both devices should participate.
        let groups = vec![(1u64, unit(100_000), 100_000u64)];
        let rep = HeteroExecutor::cpu_gpu().simulate_grouped(&groups);
        let busy: Vec<f64> = rep.devices.iter().map(|d| d.busy_s).collect();
        assert!(busy.iter().all(|&b| b > 0.0), "both devices busy: {busy:?}");
        // Makespan beats either device alone.
        let gpu = HeteroExecutor::gpu_only().simulate_grouped(&groups);
        assert!(rep.makespan_s < gpu.makespan_s);
    }
}
