//! The heterogeneous executor.
//!
//! [`HeteroExecutor::run_mut`] is the centrepiece. It executes every
//! workunit *for real*, once, in one parallel region on the host (units are
//! claimed biggest first), records each unit's operation counters, and
//! then replays the paper's dynamic CPU/GPU work balancing over those
//! counters with [`HeteroExecutor::simulate`]: workunits are sorted
//! descending by a caller-supplied size hint into a double-ended queue;
//! whenever a device is free (its modelled clock is the smallest) it pops
//! a batch from its end — GPU from the big-unit front, CPU from the
//! small-unit back — and advances its modelled clock by the profile's
//! batch time. The schedule this produces is exactly the one the paper's
//! queue produces on real hardware: devices keep pulling work until the
//! queue drains, and the modelled makespan is the slower device's final
//! clock. The schedule is a pure function of the per-unit `(size hint,
//! counters)` pairs, so running the kernels in a different order than the
//! model dispatches them changes no report.
//!
//! [`HeteroExecutor::run`] wraps `run_mut` for kernels that return a
//! value per unit; kernels that fill a caller-owned buffer (the APSP
//! oracle's arena rows) use `run_mut` directly and skip the per-unit
//! result allocation.
//!
//! Kernels that run SSSP should go through `ear_graph::with_engine`
//! rather than allocating scratch inline: units execute on the worker
//! threads of an `ear_graph::par_map_mut` region, and the engine pool's
//! thread-local slot plus global free list keeps warm, pre-sized scratch
//! flowing between units instead of reallocating per workunit. The APSP oracle builders use one workunit
//! per (block, source) pair, sized by the block's edge count.

use std::time::Instant;

use crate::counters::WorkCounters;
use crate::profile::{DeviceKind, DeviceProfile};

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
    /// Modelled busy time in seconds.
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

    /// The report of `self` followed by `next` on the same executor: per
    /// device, units, batches, busy time and counters add up, and so do
    /// the makespans and wall times of the two runs.
    pub fn merge(mut self, next: ExecutionReport) -> ExecutionReport {
        for (d, n) in self.devices.iter_mut().zip(&next.devices) {
            d.units += n.units;
            d.batches += n.batches;
            d.busy_s += n.busy_s;
            d.counters.merge(&n.counters);
        }
        self.makespan_s += next.makespan_s;
        self.wall_s += next.wall_s;
        self
    }
}

/// Publish a *real* execution's totals into the `ear-obs` metrics
/// registry under the `hetero.*` names. Only `run_mut` calls this:
/// modelled replays (`simulate*`) would double-count work that real
/// kernels already reported.
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

/// The device whose modelled clock is smallest — the next to pull work.
/// Ties go to the earlier device in the list, keeping the schedule
/// deterministic.
fn freest(clocks: &[f64]) -> usize {
    (0..clocks.len())
        .min_by(|&a, &b| {
            clocks[a]
                .partial_cmp(&clocks[b])
                .expect("modelled clocks are finite")
        })
        .expect("an executor has at least one device")
}

/// Results plus the execution report.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// Kernel outputs, in the original workunit order.
    pub results: Vec<R>,
    /// Timing/counter summary.
    pub report: ExecutionReport,
}

/// A set of devices sharing one modelled work queue.
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

    /// One empty report per device, in device order.
    fn idle_reports(&self) -> Vec<DeviceReport> {
        self.devices
            .iter()
            .map(|d| DeviceReport {
                name: d.name.clone(),
                kind: d.kind,
                units: 0,
                batches: 0,
                busy_s: 0.0,
                counters: WorkCounters::default(),
            })
            .collect()
    }

    /// Runs every workunit once and models the paper's schedule over the
    /// recorded counters (see module docs). `size_hint` orders the queue
    /// (bigger first); `kernel` does one unit's work in place — writing
    /// its output through whatever the unit borrows — and returns the
    /// operation counters the device model charges.
    ///
    /// ```
    /// use ear_hetero::{HeteroExecutor, WorkCounters};
    /// let mut rows = vec![[0u64; 4]; 100];
    /// let mut units: Vec<(u64, &mut [u64; 4])> = (0..).zip(&mut rows).collect();
    /// let report = HeteroExecutor::cpu_gpu().run_mut(
    ///     &mut units,
    ///     |&(x, _)| x, // size hint: big units first
    ///     |(x, row)| {
    ///         row.fill(*x);
    ///         WorkCounters { edges_relaxed: 4, ..Default::default() }
    ///     },
    /// );
    /// assert_eq!(rows[30], [30; 4]);
    /// assert_eq!(report.total_units(), 100);
    /// ```
    pub fn run_mut<T, K, S>(&self, units: &mut [T], size_hint: S, kernel: K) -> ExecutionReport
    where
        T: Send,
        K: Fn(&mut T) -> WorkCounters + Sync,
        S: Fn(&T) -> u64,
    {
        let _span = ear_obs::span_with("hetero.run", units.len() as u64);
        let wall_start = Instant::now();
        let hints: Vec<u64> = units.iter().map(size_hint).collect();
        // Claim units in the modelled queue's order, biggest first, so the
        // parallel region ends on small units.
        let mut order: Vec<(usize, &mut T)> = units.iter_mut().enumerate().collect();
        order.sort_by_key(|&(i, _)| (std::cmp::Reverse(hints[i]), i));
        let counters = ear_graph::par_map_mut(&mut order, |(i, t)| {
            let _u = ear_obs::span_with("hetero.unit", *i as u64);
            kernel(t)
        });
        let mut recorded = vec![(0, WorkCounters::default()); hints.len()];
        for ((i, _), c) in order.iter().zip(counters) {
            recorded[*i] = (hints[*i], c);
        }
        let mut report = self.simulate(&recorded);
        report.wall_s = wall_start.elapsed().as_secs_f64();
        publish_report(&report);
        report
    }

    /// [`HeteroExecutor::run_mut`] for kernels that return a value per
    /// workunit: `kernel` maps a unit to its result plus its counters, and
    /// the results come back in the original workunit order.
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
        let mut slots: Vec<(T, Option<R>)> = units.into_iter().map(|t| (t, None)).collect();
        let report = self.run_mut(
            &mut slots,
            |(t, _)| size_hint(t),
            |(t, out)| {
                let (r, c) = kernel(t);
                *out = Some(r);
                c
            },
        );
        let results = slots
            .into_iter()
            .map(|(_, r)| r.expect("every unit executed"))
            .collect();
        RunOutput { results, report }
    }

    /// The discrete-event schedule of the paper's double-ended queue over
    /// work that was *already* performed: `units` holds one
    /// `(size_hint, counters)` pair per workunit. [`HeteroExecutor::run_mut`]
    /// replays every real run through here.
    pub fn simulate(&self, units: &[(u64, WorkCounters)]) -> ExecutionReport {
        let obs_on = ear_obs::is_enabled();
        let mut slices: Vec<ear_obs::ModelledSlice> = Vec::new();
        let mut order: Vec<usize> = (0..units.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(units[i].0), i));
        // The queue is `order[front..back]`: the GPU pops from the front
        // (biggest units), the CPU from the back.
        let (mut front, mut back) = (0usize, order.len());
        let mut clocks = vec![0.0_f64; self.devices.len()];
        let mut reports = self.idle_reports();
        let mut batch: Vec<WorkCounters> = Vec::new();
        while front < back {
            let d = freest(&clocks);
            let dev = &self.devices[d];
            // A lone device does not share the queue: it maps the whole
            // unit list to one kernel launch / one parallel-for region,
            // exactly as single-device implementations do. Batching only
            // exists to interleave devices.
            let take = if self.devices.len() == 1 {
                back - front
            } else {
                dev.batch_units.min(back - front)
            };
            if take == 0 {
                break;
            }
            batch.clear();
            let counters = |i: &usize| units[*i].1;
            let (pops, popped_units) = match dev.kind {
                DeviceKind::Gpu => {
                    batch.extend(order[front..front + take].iter().map(counters));
                    front += take;
                    ("queue.pops.front", "queue.units.front")
                }
                // The back end pops the unit closest to it first.
                DeviceKind::Cpu => {
                    batch.extend(order[back - take..back].iter().rev().map(counters));
                    back -= take;
                    ("queue.pops.back", "queue.units.back")
                }
            };
            let rep = &mut reports[d];
            // Launch overhead is paid once per device per run: follow-up
            // batches stream (pipelined kernels / a live thread pool).
            let mut dt = dev.batch_work_s(&batch);
            if rep.batches == 0 {
                dt += dev.launch_overhead_us * 1e-6;
            }
            clocks[d] += dt;
            if obs_on {
                let left = (back - front) as u64;
                ear_obs::counter_add(pops, 1);
                ear_obs::counter_add(popped_units, take as u64);
                ear_obs::counter_event("queue.len", left);
                ear_obs::histogram_record("queue.len_after_pop", left);
                slices.push(ear_obs::ModelledSlice {
                    lane: dev.name.clone(),
                    name: "batch".to_string(),
                    start_s: clocks[d] - dt,
                    end_s: clocks[d],
                    units: take as u64,
                });
            }
            rep.units += take;
            rep.batches += 1;
            rep.busy_s += dt;
            for c in &batch {
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
        let mut reports = self.idle_reports();

        while total_left > 0 {
            let d = freest(&clocks);
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
    fn merge_adds_two_runs() {
        let ex = HeteroExecutor::cpu_gpu();
        let a = ex.run((0..3000).collect(), |&x| x, square_kernel).report;
        let b = ex.run((0..700).collect(), |&x| x, square_kernel).report;
        let m = a.clone().merge(b.clone());
        assert_eq!(m.total_units(), 3700);
        assert_eq!(m.makespan_s, a.makespan_s + b.makespan_s);
        assert_eq!(m.wall_s, a.wall_s + b.wall_s);
        for ((d, x), y) in m.devices.iter().zip(&a.devices).zip(&b.devices) {
            assert_eq!(
                (d.units, d.batches),
                (x.units + y.units, x.batches + y.batches)
            );
            assert_eq!(d.busy_s, x.busy_s + y.busy_s);
            assert_eq!(d.counters, x.counters + y.counters);
        }
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

    /// The modelled schedule is a pure function of the unit list: two runs
    /// agree, and every device's units, batches and busy time plus the
    /// makespan match, to the bit, the values the per-batch executor
    /// produced before kernels ran in one region. The lists mix sizes so
    /// the two-device platform interleaves CPU and GPU batches.
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

        let skewed = {
            let mut u = vec![3_000_000u64];
            u.extend((0..8).map(|i| 400_000u64 >> i));
            u.extend((0..700u64).map(|i| 500 + (i * 7919) % 300));
            u
        };
        let lists: [Vec<u64>; 3] = [
            (0..3000).map(|i| (i * 37) % 1009).collect(),
            skewed,
            (0..40).map(|i| (i * i) % 23).collect(),
        ];
        type Pin = (u64, &'static [(usize, usize, u64)]);
        // [list][sequential, multicore, gpu_only, cpu_gpu]:
        // (makespan bits, per device (units, batches, busy bits)).
        const PINNED: [[Pin; 4]; 3] = [
            [
                (0x3f658be0cd1512c6, &[(3000, 1, 0x3f658be0cd1512c6)]),
                (0x3f3762e77539067c, &[(3000, 1, 0x3f3762e77539067c)]),
                (0x3f181f52f8edb471, &[(3000, 1, 0x3f181f52f8edb471)]),
                (
                    0x3f13b4da596ef8cf,
                    &[
                        (1344, 84, 0x3f12f70488d0374c),
                        (1656, 7, 0x3f13b4da596ef8cf),
                    ],
                ),
            ],
            [
                (0x3f7e497d759bfd9b, &[(709, 1, 0x3f7e497d759bfd9b)]),
                (0x3f755fe13fd6a64f, &[(709, 1, 0x3f755fe13fd6a64f)]),
                (0x3f472ba0bcb8ad55, &[(709, 1, 0x3f472ba0bcb8ad55)]),
                (
                    0x3f472ba0bcb8ad55,
                    &[(453, 29, 0x3f110a1dddcc11e0), (256, 1, 0x3f472ba0bcb8ad55)],
                ),
            ],
            [
                (0x3ea2d94d69502d2a, &[(40, 1, 0x3ea2d94d69502d2a)]),
                (0x3eb20d6282f0cf7a, &[(40, 1, 0x3eb20d6282f0cf7a)]),
                (0x3ee0d099e4b88dff, &[(40, 1, 0x3ee0d099e4b88dff)]),
                (
                    0x3ee0cf701bea2b5e,
                    &[(16, 1, 0x3eb0f3c8cae704f4), (24, 1, 0x3ee0cf701bea2b5e)],
                ),
            ],
        ];
        let profiles = [
            HeteroExecutor::sequential(),
            HeteroExecutor::multicore(),
            HeteroExecutor::gpu_only(),
            HeteroExecutor::cpu_gpu(),
        ];
        for (units, pins) in lists.iter().zip(&PINNED) {
            for (ex, &(makespan, devices)) in profiles.iter().zip(pins) {
                let r = ex.run(units.clone(), |&x| x, square_kernel).report;
                let got: Vec<(usize, usize, u64)> = r
                    .devices
                    .iter()
                    .map(|d| (d.units, d.batches, d.busy_s.to_bits()))
                    .collect();
                let name = &ex.devices().last().unwrap().name;
                assert_eq!(got, devices, "{name} on {} units", units.len());
                assert_eq!(r.makespan_s.to_bits(), makespan, "{name}");
            }
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
