//! Device descriptions and the batch time model.

use crate::counters::WorkCounters;

/// Broad device class; drives queue-end selection (the paper's GPU takes
/// the big workunits from one end, the CPU the small ones from the other).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceKind {
    /// Latency-oriented device: small batches, low launch overhead.
    Cpu,
    /// Throughput-oriented device: large batches, kernel-launch overhead,
    /// poor efficiency on irregular access.
    Gpu,
}

/// A calibrated execution resource.
///
/// The model converts a batch of workunits (with measured [`WorkCounters`])
/// into seconds:
///
/// ```text
/// lane_rate   = clock_ghz · 1e9 · ops_per_cycle · irregular_efficiency
/// compute     = lane_rate · lanes
/// mem_rate    = mem_bandwidth_gbs · 1e9 / bytes-per-op(batch)
/// time(batch) = launch_overhead + max( critical_ops / (lane_rate · intra_unit_lanes),
///                                      total_ops / min(compute, mem_rate·ops/bytes) )
/// ```
///
/// i.e. a batch can be bound by its critical path (one big workunit), by
/// raw compute, or by memory bandwidth — for the sparse-graph kernels of
/// this suite the bandwidth term dominates, which is what makes the K40c's
/// 288 GB/s beat the E5-2650's 68 GB/s by roughly the factor the paper
/// reports between its GPU and multicore MCB implementations.
#[derive(Clone, Debug)]
pub struct DeviceProfile {
    /// Display name.
    pub name: String,
    /// Device class.
    pub kind: DeviceKind,
    /// Hardware parallel lanes (CPU: hardware threads; GPU: CUDA cores).
    pub lanes: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Useful operations per cycle per lane.
    pub ops_per_cycle: f64,
    /// Derating factor for irregular (pointer-chasing) access patterns.
    pub irregular_efficiency: f64,
    /// Per-batch launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Memory bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Device memory capacity in bytes (the paper's 12 GB GPU limit).
    pub mem_capacity_bytes: u64,
    /// Workunits popped from the queue per batch.
    pub batch_units: usize,
    /// Lanes cooperating *within* one workunit. A GPU kernel parallelises
    /// inside a single SSSP/scan workunit (Harish–Narayanan style frontier
    /// relaxation maps one workunit to a thread block), so its critical
    /// path is divided by an SM's worth of lanes; a CPU thread runs one
    /// workunit alone.
    pub intra_unit_lanes: u32,
}

impl DeviceProfile {
    /// The paper's multicore CPU: dual-socket Intel E5-2650 v3-class part —
    /// 2 × 10 cores × 2 hyperthreads at 2.3 GHz, 68 GB/s, 128 GB RAM.
    pub fn e5_2650() -> Self {
        DeviceProfile {
            name: "E5-2650 (2x10 cores)".into(),
            kind: DeviceKind::Cpu,
            lanes: 40,
            clock_ghz: 2.3,
            ops_per_cycle: 1.0,
            irregular_efficiency: 1.0,
            launch_overhead_us: 1.0,
            mem_bandwidth_gbs: 68.0,
            mem_capacity_bytes: 128 << 30,
            batch_units: 16,
            intra_unit_lanes: 1,
        }
    }

    /// The paper's GPU: NVidia Tesla K40c — 2880 cores over 15 SMs at
    /// 745 MHz, 288 GB/s, 12 GB GDDR5. The irregular-access efficiency is
    /// the usual order-of-magnitude SIMT derating for sparse graph kernels
    /// (divergent warps, uncoalesced loads).
    pub fn k40c() -> Self {
        DeviceProfile {
            name: "Tesla K40c".into(),
            kind: DeviceKind::Gpu,
            lanes: 2880,
            clock_ghz: 0.745,
            ops_per_cycle: 1.0,
            irregular_efficiency: 0.12,
            launch_overhead_us: 8.0,
            mem_bandwidth_gbs: 288.0,
            mem_capacity_bytes: 12 << 30,
            batch_units: 256,
            intra_unit_lanes: 192,
        }
    }

    /// One core of the E5-2650: the sequential baseline device.
    pub fn single_core() -> Self {
        DeviceProfile {
            name: "1 core E5-2650".into(),
            kind: DeviceKind::Cpu,
            lanes: 1,
            clock_ghz: 2.3,
            ops_per_cycle: 1.0,
            irregular_efficiency: 1.0,
            launch_overhead_us: 0.0,
            mem_bandwidth_gbs: 15.0, // single-thread attainable bandwidth
            mem_capacity_bytes: 128 << 30,
            batch_units: 1,
            intra_unit_lanes: 1,
        }
    }

    /// Effective operations per second of one lane.
    pub fn lane_rate(&self) -> f64 {
        self.clock_ghz * 1e9 * self.ops_per_cycle * self.irregular_efficiency
    }

    /// Modelled work time (seconds) of one batch, without launch overhead:
    /// `batch[i]` is `count` workunits sharing one counter set. Launch
    /// overhead is charged once per device per run by the simulators.
    pub fn batch_work_s(&self, batch: &[(WorkCounters, u64)]) -> f64 {
        if batch.is_empty() {
            return 0.0;
        }
        let total_ops: f64 = batch
            .iter()
            .map(|(c, k)| c.weighted_ops() * *k as f64)
            .sum();
        let total_bytes: f64 = batch
            .iter()
            .map(|(c, k)| c.approx_bytes() * *k as f64)
            .sum();
        let critical_ops = batch
            .iter()
            .map(|(c, _)| c.weighted_ops())
            .fold(0.0_f64, f64::max);
        self.work_time(total_ops, total_bytes, critical_ops)
    }

    fn work_time(&self, total_ops: f64, total_bytes: f64, critical_ops: f64) -> f64 {
        let lane = self.lane_rate();
        let compute_rate = lane * self.lanes as f64;
        let mem_time = total_bytes / (self.mem_bandwidth_gbs * 1e9);
        let throughput_time = (total_ops / compute_rate).max(mem_time);
        let critical_time = critical_ops / (lane * self.intra_unit_lanes as f64);
        throughput_time.max(critical_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(ops_edges: u64) -> (WorkCounters, u64) {
        let c = WorkCounters {
            edges_relaxed: ops_edges,
            ..Default::default()
        };
        (c, 1)
    }

    #[test]
    fn presets_are_sane() {
        let cpu = DeviceProfile::e5_2650();
        let gpu = DeviceProfile::k40c();
        let seq = DeviceProfile::single_core();
        assert!(gpu.lanes > cpu.lanes);
        assert!(seq.lanes == 1);
        assert!(gpu.mem_bandwidth_gbs > cpu.mem_bandwidth_gbs);
    }

    #[test]
    fn more_work_takes_longer() {
        let d = DeviceProfile::e5_2650();
        let t1 = d.batch_work_s(&[unit(1_000)]);
        let t2 = d.batch_work_s(&[unit(1_000_000)]);
        assert!(t2 > t1);
    }

    #[test]
    fn empty_batch_is_free() {
        assert_eq!(DeviceProfile::k40c().batch_work_s(&[]), 0.0);
    }

    #[test]
    fn critical_path_bounds_batch() {
        let d = DeviceProfile::e5_2650();
        // One giant unit among many tiny ones: time is at least the giant's
        // single-lane time.
        let mut batch = vec![unit(10); 39];
        batch.push(unit(10_000_000));
        let t = d.batch_work_s(&batch);
        let giant_alone = unit(10_000_000).0.weighted_ops() / d.lane_rate();
        assert!(t >= giant_alone);
    }

    #[test]
    fn parallel_batch_beats_serial_sum() {
        let d = DeviceProfile::e5_2650();
        let batch = vec![unit(1_000_000); 40];
        let together = d.batch_work_s(&batch);
        let serial: f64 = batch
            .iter()
            .map(|c| d.batch_work_s(std::slice::from_ref(c)))
            .sum();
        assert!(
            together < serial * 0.5,
            "together={together} serial={serial}"
        );
    }

    #[test]
    fn bulk_throughput_ratios_match_the_papers_shape() {
        // The modelled device hierarchy on big memory-bound batches must
        // reproduce the paper's ordering: sequential < multicore < GPU <
        // GPU+CPU, with GPU/multicore around the published bandwidth ratio.
        let batch: Vec<(WorkCounters, u64)> = (0..4096).map(|_| unit(100_000)).collect();
        let t_seq = DeviceProfile::single_core().batch_work_s(&batch);
        let t_cpu = DeviceProfile::e5_2650().batch_work_s(&batch);
        let t_gpu = DeviceProfile::k40c().batch_work_s(&batch);
        assert!(t_cpu < t_seq);
        assert!(t_gpu < t_cpu);
        let ratio = t_cpu / t_gpu;
        assert!(ratio > 2.0 && ratio < 8.0, "gpu/cpu speedup {ratio}");
    }

    #[test]
    fn launch_overhead_dominates_tiny_gpu_batches() {
        let gpu = DeviceProfile::k40c();
        assert!(gpu.batch_work_s(&[unit(1)]) < gpu.launch_overhead_us * 1e-6);
    }

    #[test]
    fn a_group_costs_what_its_units_cost() {
        let d = DeviceProfile::e5_2650();
        let (c, _) = unit(12_345);
        let grouped = d.batch_work_s(&[(c, 40)]);
        assert_eq!(grouped, d.batch_work_s(&vec![(c, 1); 40]));
    }
}
