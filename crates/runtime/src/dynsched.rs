//! A dynamic chunked self-scheduler — the StarPU/OmpSs-style baseline the
//! paper's related work compares against.
//!
//! Instead of predicting one static partitioning up front, the dynamic
//! scheduler splits the NDRange into fixed-size chunks and greedily feeds
//! each chunk to the device that would finish it earliest given the work
//! already queued on it (earliest-finish-time list scheduling, the
//! classic heterogeneous dynamic strategy). Every chunk pays its own
//! transfer and launch costs — the price of being adaptive without a
//! model, which is exactly the trade-off the paper's offline-trained
//! predictor avoids.

use hetpart_inspire::vm::BufferData;
use hetpart_inspire::VmError;
use hetpart_oclsim::model::estimate_time;
use serde::{Deserialize, Serialize};

use crate::exec::{
    coalesced_fraction, scalar_values, transfer_bytes, workload_shape, Executor, Launch,
};
use crate::profile::LaunchProfile;

/// Configuration of the dynamic baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynSchedConfig {
    /// Number of chunks the NDRange is split into (each is scheduled
    /// independently). StarPU-style runtimes typically use tens of tasks.
    pub num_chunks: usize,
}

impl Default for DynSchedConfig {
    fn default() -> Self {
        Self { num_chunks: 16 }
    }
}

/// Result of a dynamically scheduled launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynSchedReport {
    /// Simulated makespan in seconds.
    pub time: f64,
    /// Chunks executed per device.
    pub chunks_per_device: Vec<usize>,
    /// Busy time per device.
    pub busy_per_device: Vec<f64>,
}

impl DynSchedReport {
    /// Fraction of work (by chunk count) each device received.
    pub fn share(&self, device: usize) -> f64 {
        let total: usize = self.chunks_per_device.iter().sum();
        self.chunks_per_device[device] as f64 / total.max(1) as f64
    }
}

/// Simulate a dynamically scheduled launch: greedy earliest-finish-time
/// assignment of equal chunks, each paying its own transfers and launch
/// overhead.
pub fn dynamic_schedule(
    executor: &Executor,
    launch: &Launch,
    bufs: &[BufferData],
    cfg: DynSchedConfig,
) -> Result<DynSchedReport, VmError> {
    let profile = LaunchProfile::collect(
        launch.kernel,
        &launch.nd,
        &launch.args,
        bufs,
        crate::sweep::SWEEP_PROFILE_SAMPLES.max(executor.sample_items),
    )?;
    dynamic_schedule_with_profile(executor, launch, bufs, cfg, &profile)
}

/// As [`dynamic_schedule`], reusing a pre-collected profile.
pub fn dynamic_schedule_with_profile(
    executor: &Executor,
    launch: &Launch,
    bufs: &[BufferData],
    cfg: DynSchedConfig,
    profile: &LaunchProfile,
) -> Result<DynSchedReport, VmError> {
    let kernel = launch.kernel;
    let nd = &launch.nd;
    let extent = nd.split_extent();
    let n_chunks = cfg.num_chunks.clamp(1, extent);
    let n_dev = executor.machine.num_devices();
    let coalesced = coalesced_fraction(kernel);
    let scalars = scalar_values(kernel, &launch.args);

    let mut ready = vec![0.0f64; n_dev];
    let mut busy = vec![0.0f64; n_dev];
    let mut chunks_per_device = vec![0usize; n_dev];

    for c in 0..n_chunks {
        let start = extent * c / n_chunks;
        let end = extent * (c + 1) / n_chunks;
        if start == end {
            continue;
        }
        let (bytes_in, bytes_out) =
            transfer_bytes(kernel, nd, start..end, &scalars, &launch.args, bufs);
        let (counts, divergence) = profile.estimate(start..end);
        let shape = workload_shape(&counts, bytes_in, bytes_out, divergence, coalesced);

        // Earliest finish time over all devices.
        let best = executor
            .machine
            .device_ids()
            .map(|d| {
                let t = estimate_time(executor.machine.device(d), &shape).total;
                (d.0, ready[d.0] + t, t)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1));
        let Some((best_dev, best_finish, best_cost)) = best else {
            unreachable!("`Machine::new` and the registry reject machines without devices");
        };
        ready[best_dev] = best_finish;
        busy[best_dev] += best_cost;
        chunks_per_device[best_dev] += 1;
    }

    let makespan = ready.iter().copied().fold(0.0, f64::max);
    let active = chunks_per_device.iter().filter(|&&c| c > 0).count();
    Ok(DynSchedReport {
        time: makespan + executor.coordination_overhead(active),
        chunks_per_device,
        busy_per_device: busy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::sweep_partitions;
    use hetpart_inspire::compile;
    use hetpart_inspire::ir::NdRange;
    use hetpart_inspire::vm::ArgValue;
    use hetpart_oclsim::machines;

    const HEAVY: &str = "kernel void h(global const float* a, global float* o, int n) {
        int i = get_global_id(0);
        float s = a[i];
        for (int j = 0; j < 300; j++) { s = s * 1.0001 + sin(s) * 0.001; }
        o[i] = s;
    }";

    fn setup(n: usize) -> (Vec<BufferData>, Vec<ArgValue>) {
        (
            vec![BufferData::F32(vec![1.0; n]), BufferData::F32(vec![0.0; n])],
            vec![
                ArgValue::Buffer(0),
                ArgValue::Buffer(1),
                ArgValue::Int(n as i32),
            ],
        )
    }

    #[test]
    fn schedules_all_chunks_somewhere() {
        let k = compile(HEAVY).unwrap();
        let (bufs, args) = setup(1 << 14);
        let ex = Executor::new(machines::mc2());
        let launch = Launch::new(&k, NdRange::d1(1 << 14), args);
        let r = dynamic_schedule(&ex, &launch, &bufs, DynSchedConfig { num_chunks: 16 }).unwrap();
        assert_eq!(r.chunks_per_device.iter().sum::<usize>(), 16);
        assert!(r.time > 0.0);
        let busy_max = r.busy_per_device.iter().copied().fold(0.0f64, f64::max);
        assert!(r.time >= busy_max);
    }

    #[test]
    fn large_compute_bound_work_spreads_across_devices() {
        let k = compile(HEAVY).unwrap();
        let n = 1 << 15;
        let (bufs, args) = setup(n);
        let ex = Executor::new(machines::mc2());
        let launch = Launch::new(&k, NdRange::d1(n), args);
        let r = dynamic_schedule(&ex, &launch, &bufs, DynSchedConfig::default()).unwrap();
        let active = r.chunks_per_device.iter().filter(|&&c| c > 0).count();
        assert!(
            active >= 2,
            "dynamic scheduling should use several devices: {r:?}"
        );
    }

    #[test]
    fn oracle_static_partitioning_beats_dynamic_on_uniform_work() {
        // The paper's premise vs dynamic runtimes: per-chunk transfer and
        // launch overheads make the adaptive baseline pay for what the
        // trained model gets for free.
        let k = compile(HEAVY).unwrap();
        let n = 1 << 14;
        let (bufs, args) = setup(n);
        let ex = Executor::new(machines::mc2());
        let launch = Launch::new(&k, NdRange::d1(n), args.clone());
        let sweep = sweep_partitions(&ex, &launch, &bufs, 1).unwrap();
        let dynamic = dynamic_schedule(&ex, &launch, &bufs, DynSchedConfig::default()).unwrap();
        assert!(
            sweep.best().time <= dynamic.time * 1.001,
            "oracle static {:.6} must not lose to dynamic {:.6}",
            sweep.best().time,
            dynamic.time
        );
    }

    #[test]
    fn single_chunk_config_degenerates_to_best_single_device() {
        let k = compile(HEAVY).unwrap();
        let n = 4096;
        let (bufs, args) = setup(n);
        let ex = Executor::new(machines::mc1());
        let launch = Launch::new(&k, NdRange::d1(n), args);
        let r = dynamic_schedule(&ex, &launch, &bufs, DynSchedConfig { num_chunks: 1 }).unwrap();
        assert_eq!(r.chunks_per_device.iter().sum::<usize>(), 1);
        // One chunk, one device: time equals that device's single estimate,
        // and it is the minimum over devices. Compare against the sweep's
        // single-device entries.
        let sweep = sweep_partitions(&ex, &launch, &bufs, 10).unwrap();
        let best_single = sweep
            .entries
            .iter()
            .filter(|e| e.partition.is_single_device())
            .map(|e| e.time)
            .fold(f64::INFINITY, f64::min);
        assert!((r.time - best_single).abs() <= best_single * 0.05 + 1e-9);
    }
}
