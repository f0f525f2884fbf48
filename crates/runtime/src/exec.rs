//! Partitioned multi-device kernel execution.
//!
//! This is the runtime half of the paper's system: given a compiled
//! kernel, a launch NDRange and a [`Partition`], it splits the range into
//! one contiguous chunk per device, plans the host↔device transfers for
//! each chunk using the compiler's access-range analysis, executes the
//! chunks on the VM, and prices each chunk on its device's cost model —
//! from its executed counts, or, for the training oracle, from a sampled
//! launch profile. The reported launch time is the maximum over the
//! devices (they run concurrently) plus a coordination overhead for
//! multi-device launches — kernel time *including* memory transfers, the
//! paper's measurement convention.

use std::ops::Range;
use std::sync::Arc;

use hetpart_inspire::access::{access_ranges, BufferRange, LaunchBounds};
use hetpart_inspire::ir::{NdRange, ParamKind, ScalarType};
use hetpart_inspire::vm::{dynamic_counts, ArgValue, BufferData, DynamicCounts, Vm};
use hetpart_inspire::{CompiledKernel, VmError};
use hetpart_oclsim::fault::{FaultState, FaultVerdict};
use hetpart_oclsim::model::{estimate_time, TimeBreakdown, WorkloadShape};
use hetpart_oclsim::{DeviceId, Machine};
use serde::{Deserialize, Serialize};

use crate::partition::Partition;

/// Why a planned launch failed: the VM rejected or faulted it, a device
/// did, or the plan was built for another launch shape. Device faults carry whether the failure is permanent
/// (device death — re-plan around it) or transient (retry may succeed);
/// the serving layer's retry/re-plan logic branches on exactly that.
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchError {
    Vm(VmError),
    DeviceFault {
        device: DeviceId,
        /// The faulty device's registry (profile) name, so fault reports
        /// read without a device table at hand.
        device_name: String,
        permanent: bool,
    },
    /// [`Executor::run_planned`] was given a plan built for another
    /// NDRange: its chunks and transfer sizes are stale, so the caller
    /// must re-plan instead of replaying it.
    StalePlan {
        /// The NDRange the plan was built for.
        planned: NdRange,
        /// The NDRange of the launch it was replayed on.
        launched: NdRange,
    },
    /// [`Executor::run_planned`] was given a plan whose partition
    /// addresses another number of devices than the executor's machine
    /// has: it was built for another machine.
    ArityMismatch {
        /// The number of devices the plan's partition addresses.
        planned: usize,
        /// The executor's machine.
        machine: String,
        /// The number of devices that machine has.
        devices: usize,
    },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Vm(e) => write!(f, "{e}"),
            LaunchError::DeviceFault {
                device,
                device_name,
                permanent,
            } => write!(
                f,
                "{device} (`{device_name}`) {} during the launch",
                if *permanent {
                    "failed permanently"
                } else {
                    "failed transiently"
                }
            ),
            LaunchError::StalePlan { planned, launched } => write!(
                f,
                "plan was built for NDRange {planned:?} but the launch uses {launched:?}; \
                 re-plan instead of replaying stale transfer sizes"
            ),
            LaunchError::ArityMismatch {
                planned,
                machine,
                devices,
            } => write!(
                f,
                "plan partitions the launch over {planned} devices but machine `{machine}` has \
                 {devices}; re-plan for this machine"
            ),
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<VmError> for LaunchError {
    fn from(e: VmError) -> Self {
        LaunchError::Vm(e)
    }
}

/// A kernel launch: what the host enqueues.
#[derive(Debug, Clone)]
pub struct Launch<'a> {
    pub kernel: &'a CompiledKernel,
    pub nd: NdRange,
    pub args: Vec<ArgValue>,
}

impl<'a> Launch<'a> {
    /// Convenience constructor.
    pub fn new(kernel: &'a CompiledKernel, nd: NdRange, args: Vec<ArgValue>) -> Self {
        Self { kernel, nd, args }
    }
}

/// What one device did during a partitioned launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceRun {
    pub device: DeviceId,
    /// The slice of the split dimension this device executed.
    pub chunk_start: usize,
    pub chunk_end: usize,
    /// The measured/extrapolated dynamic shape of the chunk.
    pub shape: WorkloadShape,
    /// Simulated time on this device.
    pub time: TimeBreakdown,
}

/// The result of one partitioned launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    pub partition: Partition,
    /// One entry per device that received work.
    pub device_runs: Vec<DeviceRun>,
    /// End-to-end simulated launch time in seconds.
    pub time: f64,
}

impl ExecutionReport {
    /// The slowest device's breakdown (the launch critical path).
    pub fn critical_device(&self) -> Option<&DeviceRun> {
        self.device_runs
            .iter()
            .max_by(|a, b| a.time.total.total_cmp(&b.time.total))
    }
}

/// A pre-planned execution: the chosen partition plus the per-chunk data
/// that pricing needs besides the kernel's own counts (transfer sizes
/// from the access analysis, a launch-level divergence estimate from the
/// runtime-feature probe). Built once by [`Executor::plan_execution`];
/// repeat launches of the same (kernel, launch shape) replay it through
/// [`Executor::run_planned`] and pay only for the kernel work itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPlan {
    pub partition: Partition,
    /// The NDRange the plan was built for: transfer sizes depend on the
    /// chunk boundaries *and* the non-split dimensions, so replaying the
    /// plan against any other range would silently misprice the launch.
    /// [`Executor::run_planned`] validates it.
    pub nd: NdRange,
    /// `(bytes_in, bytes_out)` per device, aligned with
    /// `partition.chunks(extent)` (empty chunks hold `(0, 0)`).
    pub transfers: Vec<(u64, u64)>,
    /// Launch-level control-flow divergence estimate in `[0, 1]`.
    pub divergence: f64,
}

/// Work-items to sample per chunk when estimating dynamic behaviour.
pub const DEFAULT_SAMPLE_ITEMS: usize = 128;

/// The multi-device executor.
///
/// The machine description is behind an [`Arc`] so executors are cheap to
/// clone and share across deployment-service workers: a clone copies two
/// words, not the device profile table.
#[derive(Debug, Clone)]
pub struct Executor {
    pub machine: Arc<Machine>,
    /// Sample budget of the runtime-feature probe. Launch profiles sample
    /// the larger of it and
    /// [`SWEEP_PROFILE_SAMPLES`](crate::sweep::SWEEP_PROFILE_SAMPLES).
    pub sample_items: usize,
    /// Optional fault-injection state consulted by [`Executor::run_planned`]
    /// before every device chunk (the execution path). `None` — the
    /// default — injects nothing; the pricing paths
    /// ([`Executor::simulate_with_profile`], [`Executor::price_with_profile`])
    /// never consult it, so an oracle sweep is always fault-free. Shared
    /// behind an `Arc`: every executor clone of a worker pool sees one
    /// global fault timeline.
    pub faults: Option<Arc<FaultState>>,
}

impl Executor {
    /// Create an executor for a machine.
    pub fn new(machine: Machine) -> Self {
        Self::with_shared(Arc::new(machine))
    }

    /// Create an executor sharing an already-wrapped machine (the
    /// deployment service hands the same `Arc` to every worker).
    pub fn with_shared(machine: Arc<Machine>) -> Self {
        Self {
            machine,
            sample_items: DEFAULT_SAMPLE_ITEMS,
            faults: None,
        }
    }

    /// The same executor with fault injection armed on the planned
    /// execution path.
    pub fn with_faults(mut self, faults: Arc<FaultState>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Estimate a launch from a pre-collected
    /// [`LaunchProfile`](crate::LaunchProfile): no kernel execution
    /// happens at all — chunk counts come from the profile, transfer
    /// sizes from the access analysis. This is what the training sweep
    /// uses (one profile per launch, 66 partitionings priced from it).
    pub fn simulate_with_profile(
        &self,
        launch: &Launch,
        bufs: &[BufferData],
        partition: &Partition,
        profile: &crate::profile::LaunchProfile,
    ) -> ExecutionReport {
        let kernel = launch.kernel;
        let nd = &launch.nd;
        let scalars = scalar_values(kernel, &launch.args);
        self.price_with_profile(launch, partition, profile, |chunk| {
            transfer_bytes(kernel, nd, chunk, &scalars, &launch.args, bufs)
        })
    }

    /// Price one device's chunk of a launch from a pre-collected profile
    /// and known transfer sizes. This is the atomic pricing unit that both
    /// the full sweep ([`Executor::price_with_profile`]) and the pruned
    /// branch-and-bound sweep ([`crate::sweep::sweep_many_mode`]) compose,
    /// which is what keeps their per-device times bit-identical.
    pub fn price_chunk(
        &self,
        launch: &Launch,
        dev: DeviceId,
        chunk: Range<usize>,
        profile: &crate::profile::LaunchProfile,
        transfer: (u64, u64),
    ) -> DeviceRun {
        let (bytes_in, bytes_out) = transfer;
        let (counts, divergence) = profile.estimate(chunk.clone());
        let coalesced = coalesced_fraction(launch.kernel);
        let shape = workload_shape(&counts, bytes_in, bytes_out, divergence, coalesced);
        let time = estimate_time(self.machine.device(dev), &shape);
        DeviceRun {
            device: dev,
            chunk_start: chunk.start,
            chunk_end: chunk.end,
            shape,
            time,
        }
    }

    /// Assert that a partition addresses exactly this machine's devices.
    fn check_arity(&self, partition: &Partition) {
        assert_eq!(
            partition.num_devices(),
            self.machine.num_devices(),
            "partition is for {} devices but machine `{}` has {}",
            partition.num_devices(),
            self.machine.name,
            self.machine.num_devices()
        );
    }

    /// Assemble the launch report from per-device runs: the slowest
    /// device is the critical path, plus the multi-device coordination
    /// overhead. Execution and pricing both end here, so executed and
    /// profiled reports can never diverge in shape.
    fn finish_report(&self, partition: &Partition, device_runs: Vec<DeviceRun>) -> ExecutionReport {
        let slowest = device_runs.iter().map(|r| r.time.total).fold(0.0, f64::max);
        let coordination = self.coordination_overhead(device_runs.len());
        ExecutionReport {
            partition: partition.clone(),
            device_runs,
            time: slowest + coordination,
        }
    }

    /// The coordination overhead a launch pays when `active_devices` > 1.
    pub fn coordination_overhead(&self, active_devices: usize) -> f64 {
        if active_devices > 1 {
            self.machine.multi_device_overhead_us * 1e-6
        } else {
            0.0
        }
    }

    /// Price one partitioning of a launch from a pre-collected profile,
    /// with transfer sizes supplied by `transfer` — either a direct
    /// [`transfer_bytes`] call (see [`Executor::simulate_with_profile`])
    /// or a per-launch access-analysis cache (the batched training sweep,
    /// [`crate::sweep::sweep_many`]). Both paths run exactly this code,
    /// so cached and uncached pricing are bit-identical.
    ///
    /// # Panics
    ///
    /// If `partition` addresses another number of devices than the
    /// machine has.
    pub fn price_with_profile<F>(
        &self,
        launch: &Launch,
        partition: &Partition,
        profile: &crate::profile::LaunchProfile,
        mut transfer: F,
    ) -> ExecutionReport
    where
        F: FnMut(Range<usize>) -> (u64, u64),
    {
        self.check_arity(partition);
        let nd = &launch.nd;
        let chunks = partition.chunks(nd.split_extent());

        let mut device_runs = Vec::new();
        for (dev, chunk) in self.machine.device_ids().zip(&chunks) {
            if chunk.is_empty() {
                continue;
            }
            let t = transfer(chunk.clone());
            device_runs.push(self.price_chunk(launch, dev, chunk.clone(), profile, t));
        }
        self.finish_report(partition, device_runs)
    }

    /// Build an [`ExecPlan`] for one partitioning of a launch: the access
    /// analysis runs once per chunk *now* so that [`Executor::run_planned`]
    /// never has to. `divergence` is the launch-level control-flow
    /// divergence estimate (typically from the runtime-feature probe).
    pub fn plan_execution(
        &self,
        launch: &Launch,
        bufs: &[BufferData],
        partition: &Partition,
        divergence: f64,
    ) -> ExecPlan {
        let kernel = launch.kernel;
        let nd = &launch.nd;
        let scalars = scalar_values(kernel, &launch.args);
        let transfers = partition
            .chunks(nd.split_extent())
            .into_iter()
            .map(|chunk| transfer_bytes(kernel, nd, chunk, &scalars, &launch.args, bufs))
            .collect();
        ExecPlan {
            partition: partition.clone(),
            nd: nd.clone(),
            transfers,
            divergence: divergence.clamp(0.0, 1.0),
        }
    }

    /// Execute a pre-planned launch **functionally**: every work-item
    /// runs and the output buffers in `bufs` receive the kernel's results.
    /// Transfer sizes and the divergence estimate come from the plan;
    /// exact dynamic counts fall out of the execution itself. Outputs do
    /// not depend on the partition: every chunk runs `run_range` on the
    /// same buffers, in device order.
    ///
    /// When fault injection is armed ([`Executor::with_faults`]), each
    /// device's verdict is taken *before* its chunk runs: a faulted
    /// launch never partially executes the faulting chunk, and a chunk
    /// that runs is always complete. A verdict consumes one launch
    /// ordinal on the device; devices with an empty chunk are never
    /// consulted, so a degraded re-plan that routes around a dead device
    /// stops advancing that device's fault timeline.
    pub fn run_planned(
        &self,
        launch: &Launch,
        bufs: &mut [BufferData],
        plan: &ExecPlan,
    ) -> Result<ExecutionReport, LaunchError> {
        let partition = &plan.partition;
        if partition.num_devices() != self.machine.num_devices() {
            return Err(LaunchError::ArityMismatch {
                planned: partition.num_devices(),
                machine: self.machine.name.clone(),
                devices: self.machine.num_devices(),
            });
        }
        let kernel = launch.kernel;
        let nd = &launch.nd;
        Vm::check_args(&kernel.bytecode, &launch.args, bufs)?;

        if *nd != plan.nd {
            return Err(LaunchError::StalePlan {
                planned: plan.nd.clone(),
                launched: nd.clone(),
            });
        }
        let chunks = partition.chunks(nd.split_extent());
        let coalesced = coalesced_fraction(kernel);

        let mut device_runs = Vec::new();
        let mut vm = Vm::new();
        for ((dev, chunk), &(bytes_in, bytes_out)) in
            self.machine.device_ids().zip(&chunks).zip(&plan.transfers)
        {
            if chunk.is_empty() {
                continue;
            }
            let mut slowdown = 1.0;
            if let Some(fs) = &self.faults {
                match fs.verdict(dev, kernel.fingerprint) {
                    FaultVerdict::Healthy { slowdown: s } => slowdown = s,
                    FaultVerdict::Transient => {
                        return Err(LaunchError::DeviceFault {
                            device: dev,
                            device_name: self.machine.devices[dev.0].name.clone(),
                            permanent: false,
                        })
                    }
                    FaultVerdict::Dead => {
                        return Err(LaunchError::DeviceFault {
                            device: dev,
                            device_name: self.machine.devices[dev.0].name.clone(),
                            permanent: true,
                        })
                    }
                    FaultVerdict::Panic => {
                        panic!("injected fault: {dev} driver crashed mid-launch")
                    }
                }
            }
            let c = vm.run_range(&kernel.bytecode, nd, chunk.clone(), &launch.args, bufs)?;
            let counts = dynamic_counts(&kernel.bytecode, &c);
            let shape = workload_shape(&counts, bytes_in, bytes_out, plan.divergence, coalesced);
            let time = estimate_time(self.machine.device(dev), &shape).scaled(slowdown);
            device_runs.push(DeviceRun {
                device: dev,
                chunk_start: chunk.start,
                chunk_end: chunk.end,
                shape,
                time,
            });
        }

        Ok(self.finish_report(partition, device_runs))
    }
}

/// Static coalescing estimate: the fraction of buffer accesses whose index
/// is derived from the global id.
pub fn coalesced_fraction(kernel: &CompiledKernel) -> f64 {
    let f = &kernel.static_features;
    let accesses = f.loads + f.stores;
    if accesses == 0 {
        return 1.0;
    }
    (f64::from(f.gid_accesses) / f64::from(accesses)).clamp(0.0, 1.0)
}

/// Extract integer scalar argument values for the access analysis.
pub fn scalar_values(kernel: &CompiledKernel, args: &[ArgValue]) -> Vec<Option<i64>> {
    kernel
        .ir
        .params
        .iter()
        .zip(args)
        .map(|(p, a)| match (p.kind, a) {
            (ParamKind::Scalar(ScalarType::Int), ArgValue::Int(v)) => Some(i64::from(*v)),
            (ParamKind::Scalar(ScalarType::UInt), ArgValue::UInt(v)) => Some(i64::from(*v)),
            _ => None,
        })
        .collect()
}

/// Compute the bytes a device must receive before and send back after
/// executing `chunk`, using the interval access analysis. The union is
/// over read buffers (host→device) and written buffers (device→host).
///
/// An empty chunk transfers nothing: without the guard the split-dim
/// bound `chunk.end - 1` would sit *below* `chunk.start`, handing the
/// access analysis an inverted gid interval (internal callers skip empty
/// chunks, but this is a `pub` API).
pub fn transfer_bytes(
    kernel: &CompiledKernel,
    nd: &NdRange,
    chunk: Range<usize>,
    scalars: &[Option<i64>],
    args: &[ArgValue],
    bufs: &[BufferData],
) -> (u64, u64) {
    if chunk.is_empty() {
        return (0, 0);
    }
    let mut gid = [(0i64, 0i64); 3];
    for (d, g) in gid.iter_mut().enumerate() {
        *g = (0, nd.dim(d) as i64 - 1);
    }
    gid[nd.split_dim()] = (chunk.start as i64, chunk.end as i64 - 1);
    let bounds = LaunchBounds {
        gid,
        gsize: [nd.dim(0) as i64, nd.dim(1) as i64, nd.dim(2) as i64],
        scalars: scalars.to_vec(),
    };
    let ranges = access_ranges(&kernel.ir, &bounds);

    let buffer = |param_idx: usize| -> Option<&BufferData> {
        match args.get(param_idx) {
            Some(ArgValue::Buffer(b)) => bufs.get(*b),
            _ => None,
        }
    };
    let range_bytes = |r: &BufferRange, len: usize, elem_bytes: u64| -> u64 {
        match *r {
            BufferRange::Untouched => 0,
            BufferRange::Whole => len as u64 * elem_bytes,
            BufferRange::Exact { lo, hi } => {
                let lo = lo.max(0);
                let hi = hi.min(len as i64 - 1);
                if hi < lo {
                    0
                } else {
                    (hi - lo + 1) as u64 * elem_bytes
                }
            }
        }
    };

    let mut bytes_in = 0u64;
    let mut bytes_out = 0u64;
    for (i, _) in kernel.ir.params.iter().enumerate() {
        let Some(bd) = buffer(i) else { continue };
        let (len, eb) = (bd.len(), bd.elem_bytes() as u64);
        bytes_in += range_bytes(&ranges.read[i], len, eb);
        bytes_out += range_bytes(&ranges.write[i], len, eb);
    }
    (bytes_in, bytes_out)
}

/// Assemble the cost-model input from dynamic counts and transfer sizes.
pub fn workload_shape(
    d: &DynamicCounts,
    bytes_in: u64,
    bytes_out: u64,
    divergence: f64,
    coalesced_fraction: f64,
) -> WorkloadShape {
    use hetpart_inspire::bytecode::OpClass::*;
    WorkloadShape {
        items: d.items,
        int_ops: d.per_class[IntOp as usize],
        float_ops: d.per_class[FloatOp as usize],
        transcendental_ops: d.per_class[Transcendental as usize],
        cmp_ops: d.per_class[Cmp as usize],
        branch_ops: d.per_class[Branch as usize],
        other_ops: d.per_class[Other as usize],
        loads: d.per_class[Load as usize],
        stores: d.per_class[Store as usize],
        bytes_in,
        bytes_out,
        divergence,
        coalesced_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::LaunchProfile;
    use hetpart_inspire::compile;
    use hetpart_oclsim::machines;

    const VEC_ADD: &str = "kernel void vec_add(global const float* a, global const float* b,
                                               global float* c, int n) {
        int i = get_global_id(0);
        if (i < n) { c[i] = a[i] + b[i]; }
    }";

    fn vec_add_setup(n: usize) -> (Vec<BufferData>, Vec<ArgValue>) {
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..n).map(|i| (2 * i) as f32).collect();
        let bufs = vec![
            BufferData::F32(a),
            BufferData::F32(b),
            BufferData::F32(vec![0.0; n]),
        ];
        let args = vec![
            ArgValue::Buffer(0),
            ArgValue::Buffer(1),
            ArgValue::Buffer(2),
            ArgValue::Int(n as i32),
        ];
        (bufs, args)
    }

    /// The whole vec_add launch on the scalar engine: the independent
    /// reference for partitioned outputs.
    fn scalar_reference(k: &CompiledKernel, n: usize) -> Vec<BufferData> {
        let (mut bufs, args) = vec_add_setup(n);
        Vm::new()
            .run_range_scalar(&k.bytecode, &NdRange::d1(n), 0..n, &args, &mut bufs)
            .unwrap();
        bufs
    }

    /// Plan and execute `p` on fresh vec_add buffers.
    fn run_partition(
        ex: &Executor,
        launch: &Launch,
        p: &Partition,
    ) -> (Vec<BufferData>, ExecutionReport) {
        let (mut bufs, _) = vec_add_setup(launch.nd.total());
        let plan = ex.plan_execution(launch, &bufs, p, 0.0);
        let report = ex.run_planned(launch, &mut bufs, &plan).unwrap();
        (bufs, report)
    }

    /// Price `p` from a launch profile, without executing it.
    fn price(
        ex: &Executor,
        launch: &Launch,
        bufs: &[BufferData],
        p: &Partition,
    ) -> ExecutionReport {
        let profile = LaunchProfile::collect(
            launch.kernel,
            &launch.nd,
            &launch.args,
            bufs,
            DEFAULT_SAMPLE_ITEMS,
        )
        .unwrap();
        ex.simulate_with_profile(launch, bufs, p, &profile)
    }

    #[test]
    fn partitioned_run_equals_single_device_run() {
        let k = compile(VEC_ADD).unwrap();
        let n = 1000;
        let ex = Executor::new(machines::mc1());
        let launch = Launch::new(&k, NdRange::d1(n), vec_add_setup(n).1);
        let want = scalar_reference(&k, n);
        for p in [
            Partition::cpu_only(3),
            Partition::from_tenths(vec![3, 4, 3]),
            Partition::from_tenths(vec![0, 5, 5]),
            Partition::even(3),
        ] {
            let (bufs, _) = run_partition(&ex, &launch, &p);
            assert_eq!(
                bufs[2], want[2],
                "partition {p} must produce identical results"
            );
        }
    }

    #[test]
    fn report_covers_active_devices_only() {
        let k = compile(VEC_ADD).unwrap();
        let n = 100;
        let (bufs, args) = vec_add_setup(n);
        let ex = Executor::new(machines::mc1());
        let launch = Launch::new(&k, NdRange::d1(n), args);
        let r = price(&ex, &launch, &bufs, &Partition::from_tenths(vec![5, 0, 5]));
        assert_eq!(r.device_runs.len(), 2);
        assert_eq!(r.device_runs[0].device, DeviceId(0));
        assert_eq!(r.device_runs[1].device, DeviceId(2));
        assert!(r.critical_device().is_some());
    }

    #[test]
    fn multi_device_pays_coordination_overhead() {
        let k = compile(VEC_ADD).unwrap();
        let n = 64;
        let (bufs, args) = vec_add_setup(n);
        let ex = Executor::new(machines::mc1());
        let launch = Launch::new(&k, NdRange::d1(n), args);
        let single = price(&ex, &launch, &bufs, &Partition::cpu_only(3));
        assert_eq!(
            single.time, single.device_runs[0].time.total,
            "single device launch has no coordination overhead"
        );
        let multi = price(&ex, &launch, &bufs, &Partition::even(3));
        let slowest = multi
            .device_runs
            .iter()
            .map(|r| r.time.total)
            .fold(0.0, f64::max);
        assert!(multi.time > slowest);
    }

    #[test]
    fn transfer_bytes_scale_with_chunk() {
        let k = compile(VEC_ADD).unwrap();
        let n = 1000usize;
        let (bufs, args) = vec_add_setup(n);
        let scalars = scalar_values(&k, &args);
        let nd = NdRange::d1(n);
        let (in_all, out_all) = transfer_bytes(&k, &nd, 0..n, &scalars, &args, &bufs);
        // Whole range: two 4000-byte inputs in, one 4000-byte output back.
        assert_eq!(in_all, 8000);
        assert_eq!(out_all, 4000);
        let (in_half, out_half) = transfer_bytes(&k, &nd, 0..n / 2, &scalars, &args, &bufs);
        assert_eq!(in_half, 4000);
        assert_eq!(out_half, 2000);
    }

    #[test]
    fn indirect_kernel_transfers_whole_input() {
        let gather = compile(
            "kernel void gather(global const int* idx, global const float* v,
                                global float* o, int n) {
                int i = get_global_id(0);
                o[i] = v[idx[i]];
            }",
        )
        .unwrap();
        let n = 100usize;
        let bufs = vec![
            BufferData::I32((0..n as i32).rev().collect()),
            BufferData::F32(vec![1.0; n]),
            BufferData::F32(vec![0.0; n]),
        ];
        let args = vec![
            ArgValue::Buffer(0),
            ArgValue::Buffer(1),
            ArgValue::Buffer(2),
            ArgValue::Int(n as i32),
        ];
        let scalars = scalar_values(&gather, &args);
        let nd = NdRange::d1(n);
        let (bytes_in, _) = transfer_bytes(&gather, &nd, 0..10, &scalars, &args, &bufs);
        // idx: 10 elements exactly; v: whole buffer (data-dependent).
        assert_eq!(bytes_in, 10 * 4 + (n as u64) * 4);
    }

    #[test]
    fn coalesced_fraction_reflects_access_pattern() {
        let direct = compile(VEC_ADD).unwrap();
        assert!(coalesced_fraction(&direct) > 0.99);
        let gather = compile(
            "kernel void g(global const int* idx, global const float* v, global float* o) {
                int i = get_global_id(0);
                o[i] = v[idx[i]];
            }",
        )
        .unwrap();
        let f = coalesced_fraction(&gather);
        assert!(f < 1.0 && f > 0.0, "gather mixes direct and indirect: {f}");
    }

    #[test]
    fn full_counts_match_extrapolated_counts_for_uniform_kernel() {
        // Every vec_add item runs the same ops, so the profile's
        // extrapolation is exact and must equal the executed counts.
        let k = compile(VEC_ADD).unwrap();
        let n = 4096;
        let (bufs, args) = vec_add_setup(n);
        let ex = Executor::new(machines::mc2());
        let launch = Launch::new(&k, NdRange::d1(n), args);
        for p in [
            Partition::gpu_only(3),
            Partition::from_tenths(vec![3, 3, 4]),
        ] {
            let (_, full) = run_partition(&ex, &launch, &p);
            let sim = price(&ex, &launch, &bufs, &p);
            assert_eq!(full.device_runs.len(), sim.device_runs.len(), "{p}");
            for (f, s) in full.device_runs.iter().zip(&sim.device_runs) {
                // The divergence estimate is the plan's, not the profile's.
                let priced = WorkloadShape {
                    divergence: f.shape.divergence,
                    ..s.shape
                };
                assert_eq!(f.shape, priced, "{p}: {}", f.device);
            }
        }
    }

    #[test]
    fn empty_chunk_transfers_nothing() {
        // `transfer_bytes` is a pub API: an empty chunk used to produce an
        // inverted split-dim bound (`end - 1 < start`) and garbage sizes.
        let k = compile(VEC_ADD).unwrap();
        let n = 100usize;
        let (bufs, args) = vec_add_setup(n);
        let scalars = scalar_values(&k, &args);
        let nd = NdRange::d1(n);
        assert_eq!(
            transfer_bytes(&k, &nd, 50..50, &scalars, &args, &bufs),
            (0, 0)
        );
        assert_eq!(
            transfer_bytes(&k, &nd, 0..0, &scalars, &args, &bufs),
            (0, 0)
        );
    }

    #[test]
    fn transfer_bytes_use_buffer_element_width() {
        // Sizes must come from `BufferData::elem_bytes`, not a hardcoded 4.
        for bd in [
            BufferData::F32(vec![0.0; 8]),
            BufferData::I32(vec![0; 8]),
            BufferData::U32(vec![0; 8]),
        ] {
            assert_eq!(bd.elem_bytes(), 4);
            assert_eq!(bd.size_bytes(), 8 * bd.elem_bytes());
        }
        let k = compile(
            "kernel void copy_i(global const int* a, global int* o) {
                int i = get_global_id(0);
                o[i] = a[i];
            }",
        )
        .unwrap();
        let n = 64usize;
        let bufs = vec![BufferData::I32(vec![1; n]), BufferData::I32(vec![0; n])];
        let args = vec![ArgValue::Buffer(0), ArgValue::Buffer(1)];
        let scalars = scalar_values(&k, &args);
        let (bytes_in, bytes_out) =
            transfer_bytes(&k, &NdRange::d1(n), 0..16, &scalars, &args, &bufs);
        let eb = bufs[0].elem_bytes() as u64;
        assert_eq!(bytes_in, 16 * eb);
        assert_eq!(bytes_out, 16 * eb);
    }

    #[test]
    fn run_planned_matches_scalar_outputs_and_profiled_transfers() {
        let k = compile(VEC_ADD).unwrap();
        let n = 1000;
        let ex = Executor::new(machines::mc2());
        let (bufs, args) = vec_add_setup(n);
        let launch = Launch::new(&k, NdRange::d1(n), args);
        let want = scalar_reference(&k, n);
        for p in [
            Partition::even(3),
            Partition::gpu_only(3),
            Partition::from_tenths(vec![2, 0, 8]),
        ] {
            let (out, planned) = run_partition(&ex, &launch, &p);
            assert_eq!(out, want, "{p}: outputs must match the whole-range run");

            // Chunks, transfer sizes and item counts agree with pricing.
            let priced = price(&ex, &launch, &bufs, &p);
            assert_eq!(planned.partition, priced.partition);
            assert_eq!(planned.device_runs.len(), priced.device_runs.len());
            for (a, b) in planned.device_runs.iter().zip(&priced.device_runs) {
                assert_eq!(
                    (a.device, a.chunk_start, a.chunk_end),
                    (b.device, b.chunk_start, b.chunk_end)
                );
                assert_eq!(a.shape.bytes_in, b.shape.bytes_in);
                assert_eq!(a.shape.bytes_out, b.shape.bytes_out);
                assert_eq!(a.shape.items, b.shape.items);
            }
        }
    }

    #[test]
    fn replaying_a_plan_on_another_ndrange_is_a_typed_error() {
        let k = compile(VEC_ADD).unwrap();
        let n = 256;
        let (bufs, args) = vec_add_setup(n);
        let ex = Executor::new(machines::mc2());
        let planned = Launch::new(&k, NdRange::d1(n), args.clone());
        let plan = ex.plan_execution(&planned, &bufs, &Partition::even(3), 0.0);
        let launch = Launch::new(&k, NdRange::d1(n / 2), args);
        let mut attempt = bufs.clone();
        let err = ex.run_planned(&launch, &mut attempt, &plan).unwrap_err();
        assert_eq!(
            err,
            LaunchError::StalePlan {
                planned: NdRange::d1(n),
                launched: NdRange::d1(n / 2),
            }
        );
        assert_eq!(attempt, bufs, "a stale plan must not run any chunk");
    }

    #[test]
    fn replaying_a_plan_on_a_machine_with_more_devices_is_a_typed_error() {
        let k = compile(VEC_ADD).unwrap();
        let n = 256;
        let (bufs, args) = vec_add_setup(n);
        let launch = Launch::new(&k, NdRange::d1(n), args);
        let plan =
            Executor::new(machines::mc1()).plan_execution(&launch, &bufs, &Partition::even(2), 0.0);
        let ex = Executor::new(machines::mc2());
        let mut attempt = bufs.clone();
        let err = ex.run_planned(&launch, &mut attempt, &plan).unwrap_err();
        assert_eq!(
            err,
            LaunchError::ArityMismatch {
                planned: 2,
                machine: ex.machine.name.clone(),
                devices: 3,
            }
        );
        assert!(err.to_string().contains("over 2 devices"), "{err}");
        assert_eq!(attempt, bufs, "a plan for another machine must not run");
    }

    #[test]
    fn injected_faults_surface_as_typed_errors_and_spare_idle_devices() {
        use hetpart_oclsim::fault::{DeviceFaults, FaultPlan};
        let k = compile(VEC_ADD).unwrap();
        let n = 256;
        let (bufs, args) = vec_add_setup(n);
        let plan_spec = FaultPlan {
            seed: 9,
            faults: vec![DeviceFaults {
                transient_rate: 1.0,
                ..DeviceFaults::none(1)
            }],
        };
        let machine = machines::mc2();
        let state = Arc::new(machine.fault_state(&plan_spec).unwrap());
        let ex = Executor::new(machine).with_faults(Arc::clone(&state));
        let launch = Launch::new(&k, NdRange::d1(n), args);

        // A partition using the faulty device fails with a typed error.
        let p = Partition::even(3);
        let plan = ex.plan_execution(&launch, &bufs, &p, 0.0);
        let mut attempt = bufs.clone();
        let err = ex.run_planned(&launch, &mut attempt, &plan).unwrap_err();
        assert_eq!(
            err,
            LaunchError::DeviceFault {
                device: DeviceId(1),
                device_name: "NVIDIA GeForce GTX 480".into(),
                permanent: false
            }
        );
        assert!(
            err.to_string().contains("`NVIDIA GeForce GTX 480`"),
            "fault errors must name the device: {err}"
        );

        // A partition avoiding it succeeds, and never consults its fault
        // timeline (ordinals advance only for devices that get chunks).
        let before = state.launch_counts();
        let degraded = p.excluding(&[1]).unwrap();
        let plan = ex.plan_execution(&launch, &bufs, &degraded, 0.0);
        let mut ok_bufs = bufs.clone();
        ex.run_planned(&launch, &mut ok_bufs, &plan).unwrap();
        let after = state.launch_counts();
        assert_eq!(before[1], after[1], "idle device consumed an ordinal");

        // Outputs equal the fault-free reference despite the re-route.
        assert_eq!(ok_bufs[2], scalar_reference(&k, n)[2]);
    }

    #[test]
    fn slowdown_scales_simulated_time_not_outputs() {
        use hetpart_oclsim::fault::{DeviceFaults, FaultPlan};
        let k = compile(VEC_ADD).unwrap();
        let n = 512;
        let (bufs, args) = vec_add_setup(n);
        let launch = Launch::new(&k, NdRange::d1(n), args);
        let p = Partition::cpu_only(3);

        let healthy = Executor::new(machines::mc2());
        let plan = healthy.plan_execution(&launch, &bufs, &p, 0.0);
        let mut fast_bufs = bufs.clone();
        let fast = healthy.run_planned(&launch, &mut fast_bufs, &plan).unwrap();

        let spec = FaultPlan {
            seed: 0,
            faults: vec![DeviceFaults {
                slowdown: 3.0,
                ..DeviceFaults::none(0)
            }],
        };
        let machine = machines::mc2();
        let state = Arc::new(machine.fault_state(&spec).unwrap());
        let slow_ex = Executor::new(machine).with_faults(state);
        let mut slow_bufs = bufs.clone();
        let slow = slow_ex.run_planned(&launch, &mut slow_bufs, &plan).unwrap();

        assert_eq!(slow_bufs, fast_bufs, "a slow device still computes");
        let t_fast = fast.device_runs[0].time.total;
        let t_slow = slow.device_runs[0].time.total;
        assert!(
            (t_slow - 3.0 * t_fast).abs() <= 1e-12 * t_slow,
            "slowdown 3.0: {t_slow} vs {t_fast}"
        );
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn injected_panic_panics() {
        use hetpart_oclsim::fault::{DeviceFaults, FaultPlan};
        let k = compile(VEC_ADD).unwrap();
        let n = 64;
        let (mut bufs, args) = vec_add_setup(n);
        let spec = FaultPlan {
            seed: 0,
            faults: vec![DeviceFaults {
                panics_at_launch: Some(0),
                ..DeviceFaults::none(0)
            }],
        };
        let machine = machines::mc2();
        let state = Arc::new(machine.fault_state(&spec).unwrap());
        let ex = Executor::new(machine).with_faults(state);
        let launch = Launch::new(&k, NdRange::d1(n), args.clone());
        let plan = ex.plan_execution(&launch, &bufs, &Partition::cpu_only(3), 0.0);
        let _ = ex.run_planned(&launch, &mut bufs, &plan);
    }

    #[test]
    #[should_panic(expected = "partition is for")]
    fn wrong_partition_arity_panics() {
        let k = compile(VEC_ADD).unwrap();
        let (bufs, args) = vec_add_setup(16);
        let ex = Executor::new(machines::mc1());
        let launch = Launch::new(&k, NdRange::d1(16), args);
        let _ = price(&ex, &launch, &bufs, &Partition::from_tenths(vec![5, 5]));
    }
}
