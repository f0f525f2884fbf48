//! Exhaustive partition-space measurement — the training-phase oracle.
//!
//! During the paper's training phase every program is "executed with
//! various problem sizes and the available task partitionings" and the
//! best partitioning per (program, size) becomes the training label. This
//! module runs that sweep on the simulated machine.
//!
//! The workhorse is [`sweep_many`]: it takes a whole batch of launches
//! (the entire training suite, in production) and prices every
//! (launch × partitioning) pair in one rayon-parallel pass. Per launch it
//! builds an **access-analysis cache** — the interval analysis is
//! evaluated once per distinct chunk boundary pair instead of once per
//! partitioning — and every launch of the batch reuses its caller's
//! compiled kernel, so a benchmark swept at many problem sizes is
//! compiled exactly once. [`sweep_partitions`] is the single-launch
//! convenience wrapper over the same engine, which is what guarantees
//! that batched and sequential sweeps agree bit-for-bit.

use std::collections::HashMap;

use hetpart_inspire::vm::BufferData;
use hetpart_inspire::VmError;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::exec::{scalar_values, transfer_bytes, Executor, Launch};
use crate::partition::Partition;
use crate::profile::LaunchProfile;

/// Samples collected per launch profile during a sweep.
pub const SWEEP_PROFILE_SAMPLES: usize = 256;

/// How a sweep covers the partition space, kept only as a one-value
/// type: every sweep prices the whole space. `HarnessConfig::sweep_mode`
/// and [`sweep_many_mode`] still carry it because the benchmark package
/// passes them; the coordinated `benchmark/` edit deletes it.
#[derive(Debug, Clone, Copy)]
pub enum SweepMode {
    /// Price every partitioning — the paper's exhaustive oracle.
    Full,
}

/// One measured partitioning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepEntry {
    pub partition: Partition,
    /// Simulated launch time in seconds.
    pub time: f64,
}

/// All partitionings of one launch, measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionSweep {
    pub entries: Vec<SweepEntry>,
}

impl PartitionSweep {
    /// The oracle-best entry (minimum time).
    ///
    /// Time ties are broken on the partition itself (lexicographically
    /// smallest shares win), **not** on entry order: the oracle label of a
    /// sweep must not change when entries are reordered or merged from
    /// shards. Entry-order tie-breaking silently flipped training labels
    /// whenever two partitions priced identically and a merge changed
    /// which came first.
    ///
    /// # Panics
    /// Panics if the sweep is empty. Every sweep [`sweep_many`]
    /// builds holds at least the CPU-only and GPU-only baselines; a
    /// hand-built one must too.
    pub fn best(&self) -> &SweepEntry {
        let best = self.entries.iter().min_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then_with(|| a.partition.cmp(&b.partition))
        });
        let Some(best) = best else {
            unreachable!("a sweep always prices the CPU-only and GPU-only baselines");
        };
        best
    }

    /// Time of a specific partitioning, if it was measured.
    pub fn time_of(&self, p: &Partition) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| &e.partition == p)
            .map(|e| e.time)
    }

    /// Time of the CPU-only default strategy.
    ///
    /// # Panics
    /// Panics if the sweep lacks the CPU-only baseline (see
    /// [`PartitionSweep::best`]).
    pub fn cpu_only_time(&self) -> f64 {
        let n = self.entries[0].partition.num_devices();
        let Some(t) = self.time_of(&Partition::cpu_only(n)) else {
            unreachable!("a sweep always prices the CPU-only baseline");
        };
        t
    }

    /// Time of the GPU-only default strategy (first accelerator).
    ///
    /// # Panics
    /// Panics if the sweep lacks the GPU-only baseline (see
    /// [`PartitionSweep::best`]).
    pub fn gpu_only_time(&self) -> f64 {
        let n = self.entries[0].partition.num_devices();
        let Some(t) = self.time_of(&Partition::gpu_only(n)) else {
            unreachable!("a sweep always prices the GPU-only baseline");
        };
        t
    }

    /// Rank of a partitioning within the sweep (0 = best).
    pub fn rank_of(&self, p: &Partition) -> Option<usize> {
        let t = self.time_of(p)?;
        Some(self.entries.iter().filter(|e| e.time < t).count())
    }
}

/// One launch of a [`sweep_many`] batch. The kernel lives inside
/// `launch`, so callers sweeping one kernel at many problem sizes (the
/// training phase) compile it once and share the `CompiledKernel` across
/// jobs.
#[derive(Debug, Clone, Copy)]
pub struct SweepJob<'a> {
    pub launch: &'a Launch<'a>,
    /// Host buffers of the launch; never modified (pricing samples run on
    /// scratch copies).
    pub bufs: &'a [BufferData],
    /// Partition-space granularity in tenths (1 = the paper's 10% steps).
    pub step_tenths: u8,
}

/// Per-launch pricing context built once per job: the sampled execution
/// profile plus the access-analysis cache — transfer sizes for every
/// distinct chunk the partition space can produce.
struct PricingCtx {
    profile: LaunchProfile,
    /// `(chunk.start, chunk.end)` → `(bytes_in, bytes_out)`.
    transfers: HashMap<(usize, usize), (u64, u64)>,
}

impl PricingCtx {
    fn build(
        executor: &Executor,
        job: &SweepJob<'_>,
        space: &[Partition],
    ) -> Result<Self, VmError> {
        let launch = job.launch;
        // One sampled profile per launch; every partitioning is then
        // priced from it without re-executing the kernel.
        let profile = LaunchProfile::collect(
            launch.kernel,
            &launch.nd,
            &launch.args,
            job.bufs,
            SWEEP_PROFILE_SAMPLES.max(executor.sample_items),
        )?;

        // Access-analysis cache: the interval analysis runs once per
        // distinct chunk of the space instead of once per (partition,
        // device). Keys come from the same `Partition::chunks` call that
        // pricing uses, so every lookup is guaranteed to hit; chunks
        // repeat heavily across partitions (cumulative boundaries only
        // take `TENTHS/step + 1` values), which is what makes this a
        // cache rather than a re-spelling.
        let kernel = launch.kernel;
        let scalars = scalar_values(kernel, &launch.args);
        let extent = launch.nd.split_extent();
        let mut transfers = HashMap::new();
        for partition in space {
            for chunk in partition.chunks(extent) {
                if !chunk.is_empty() {
                    transfers
                        .entry((chunk.start, chunk.end))
                        .or_insert_with(|| {
                            transfer_bytes(
                                kernel,
                                &launch.nd,
                                chunk.clone(),
                                &scalars,
                                &launch.args,
                                job.bufs,
                            )
                        });
                }
            }
        }
        Ok(Self { profile, transfers })
    }
}

/// [`sweep_many`]; `mode` has one value. A forwarder kept for the
/// benchmark package, deleted by the coordinated `benchmark/` edit.
pub fn sweep_many_mode(
    executor: &Executor,
    jobs: &[SweepJob<'_>],
    _mode: SweepMode,
) -> Result<Vec<PartitionSweep>, VmError> {
    sweep_many(executor, jobs)
}

/// Sweep a whole batch of launches — the production shape of the training
/// oracle. Builds each job's pricing context (profile + access-analysis
/// cache) in parallel across jobs, then prices every (launch ×
/// partitioning) pair in one flat rayon pass, so a handful of huge
/// launches cannot serialize behind each other the way per-launch
/// parallelism would.
///
/// Returns one [`PartitionSweep`] per job, in job order, bit-identical to
/// calling [`sweep_partitions`] once per job.
pub fn sweep_many(
    executor: &Executor,
    jobs: &[SweepJob<'_>],
) -> Result<Vec<PartitionSweep>, VmError> {
    let num_devices = executor.machine.num_devices();

    // Partition spaces, shared across all jobs with the same granularity.
    let mut spaces: HashMap<u8, Vec<Partition>> = HashMap::new();
    for job in jobs {
        spaces
            .entry(job.step_tenths)
            .or_insert_with(|| Partition::enumerate(num_devices, job.step_tenths));
    }

    // Phase A: per-job pricing contexts (kernel sampling dominates).
    let ctxs: Vec<PricingCtx> = jobs
        .par_iter()
        .map(|job| PricingCtx::build(executor, job, &spaces[&job.step_tenths]))
        .collect::<Vec<Result<_, _>>>()
        .into_iter()
        .collect::<Result<_, _>>()?;

    // Phase B: flatten to (job, partition) pairs and price them all in
    // one parallel pass.
    let mut pairs = Vec::new();
    for (ji, job) in jobs.iter().enumerate() {
        for pi in 0..spaces[&job.step_tenths].len() {
            pairs.push((ji, pi));
        }
    }
    let entries: Vec<SweepEntry> = pairs
        .into_par_iter()
        .map(|(ji, pi)| {
            let job = &jobs[ji];
            let ctx = &ctxs[ji];
            let partition = &spaces[&job.step_tenths][pi];
            let report =
                executor.price_with_profile(job.launch, partition, &ctx.profile, |chunk| {
                    ctx.transfers[&(chunk.start, chunk.end)]
                });
            SweepEntry {
                partition: partition.clone(),
                time: report.time,
            }
        })
        .collect();

    // Regroup the flat entry list back into one sweep per job.
    let mut sweeps = Vec::with_capacity(jobs.len());
    let mut offset = 0;
    for job in jobs {
        let len = spaces[&job.step_tenths].len();
        sweeps.push(PartitionSweep {
            entries: entries[offset..offset + len].to_vec(),
        });
        offset += len;
    }
    Ok(sweeps)
}

/// Measure every partitioning of the space at `step_tenths` granularity
/// (1 = the paper's 10% steps) for one launch.
///
/// Buffers are never modified. This is [`sweep_many`] with a single job;
/// training-scale callers should batch launches instead.
pub fn sweep_partitions(
    executor: &Executor,
    launch: &Launch,
    bufs: &[BufferData],
    step_tenths: u8,
) -> Result<PartitionSweep, VmError> {
    let mut sweeps = sweep_many(
        executor,
        &[SweepJob {
            launch,
            bufs,
            step_tenths,
        }],
    )?;
    let Some(sweep) = sweeps.pop() else {
        unreachable!("`sweep_many` returns one sweep per job");
    };
    Ok(sweep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetpart_inspire::compile;
    use hetpart_inspire::ir::NdRange;
    use hetpart_inspire::vm::ArgValue;
    use hetpart_oclsim::machines;

    const STREAM: &str = "kernel void s(global const float* a, global float* o, int n) {
        int i = get_global_id(0);
        if (i < n) { o[i] = a[i] * 2.0 + 1.0; }
    }";

    const HEAVY: &str = "kernel void h(global const float* a, global float* o, int n) {
        int i = get_global_id(0);
        float s = a[i];
        for (int j = 0; j < 400; j++) { s = s * 1.0001 + sin(s) * 0.001; }
        o[i] = s;
    }";

    fn setup(n: usize) -> (Vec<BufferData>, Vec<ArgValue>) {
        (
            vec![BufferData::F32(vec![1.5; n]), BufferData::F32(vec![0.0; n])],
            vec![
                ArgValue::Buffer(0),
                ArgValue::Buffer(1),
                ArgValue::Int(n as i32),
            ],
        )
    }

    #[test]
    fn sweep_covers_the_full_space() {
        let k = compile(STREAM).unwrap();
        let (bufs, args) = setup(256);
        let ex = Executor::new(machines::mc1());
        let launch = Launch::new(&k, NdRange::d1(256), args);
        let sweep = sweep_partitions(&ex, &launch, &bufs, 1).unwrap();
        assert_eq!(sweep.entries.len(), 66);
        assert!(sweep
            .entries
            .iter()
            .all(|e| e.time.is_finite() && e.time > 0.0));
    }

    #[test]
    fn best_breaks_time_ties_on_the_partition_not_entry_order() {
        // Regression: `best()` used to keep the first of equal minima in
        // entry order, so merging a sweep (which reorders the entries)
        // could flip the oracle label between tied partitions.
        let tied = |shares: Vec<u8>| SweepEntry {
            partition: Partition::from_tenths(shares),
            time: 1.0,
        };
        let slow = SweepEntry {
            partition: Partition::from_tenths(vec![5, 5, 0]),
            time: 2.0,
        };
        let forward = PartitionSweep {
            entries: vec![tied(vec![10, 0, 0]), slow.clone(), tied(vec![0, 0, 10])],
        };
        let reversed = PartitionSweep {
            entries: vec![tied(vec![0, 0, 10]), slow, tied(vec![10, 0, 0])],
        };
        // Both orders pick the lexicographically smallest tied partition.
        assert_eq!(forward.best().partition, reversed.best().partition);
        assert_eq!(
            forward.best().partition,
            Partition::from_tenths(vec![0, 0, 10])
        );
        // A thinned sweep that still contains the winner agrees too.
        let thinned = PartitionSweep {
            entries: vec![tied(vec![0, 0, 10])],
        };
        assert_eq!(thinned.best().partition, forward.best().partition);
    }

    #[test]
    fn best_is_minimum_and_defaults_are_present() {
        let k = compile(STREAM).unwrap();
        let (bufs, args) = setup(1024);
        let ex = Executor::new(machines::mc2());
        let launch = Launch::new(&k, NdRange::d1(1024), args);
        let sweep = sweep_partitions(&ex, &launch, &bufs, 1).unwrap();
        let best = sweep.best();
        assert!(best.time <= sweep.cpu_only_time());
        assert!(best.time <= sweep.gpu_only_time());
        assert_eq!(sweep.rank_of(&best.partition.clone()), Some(0));
    }

    #[test]
    #[should_panic(expected = "step must divide 10")]
    fn sweep_rejects_invalid_step() {
        let k = compile(STREAM).unwrap();
        let (bufs, args) = setup(64);
        let ex = Executor::new(machines::mc1());
        let launch = Launch::new(&k, NdRange::d1(64), args);
        let _ = sweep_partitions(&ex, &launch, &bufs, 3);
    }

    #[test]
    fn tiny_streaming_launch_prefers_cpu_only() {
        // Small problem + streaming kernel: transfers and launch overheads
        // make accelerator shares useless on both machines.
        let k = compile(STREAM).unwrap();
        let (bufs, args) = setup(128);
        for m in [machines::mc1(), machines::mc2()] {
            let ex = Executor::new(m);
            let launch = Launch::new(&k, NdRange::d1(128), args.clone());
            let sweep = sweep_partitions(&ex, &launch, &bufs, 1).unwrap();
            assert_eq!(
                sweep.best().partition,
                Partition::cpu_only(3),
                "machine {} picked {}",
                ex.machine.name,
                sweep.best().partition
            );
        }
    }

    #[test]
    fn large_compute_bound_launch_uses_accelerators_on_mc2() {
        let k = compile(HEAVY).unwrap();
        let n = 1 << 15;
        let (bufs, args) = setup(n);
        let ex = Executor::new(machines::mc2());
        let launch = Launch::new(&k, NdRange::d1(n), args);
        let sweep = sweep_partitions(&ex, &launch, &bufs, 1).unwrap();
        let best = &sweep.best().partition;
        let gpu_share = best.fraction(1) + best.fraction(2);
        assert!(
            gpu_share > 0.5,
            "large compute-bound work should mostly go to the GTX 480s, got {best}"
        );
    }

    #[test]
    fn best_partition_depends_on_problem_size() {
        // The paper's central observation: the optimum moves as the
        // problem grows.
        let k = compile(HEAVY).unwrap();
        let ex = Executor::new(machines::mc2());
        let mut bests = Vec::new();
        for n in [64usize, 1 << 14] {
            let (bufs, args) = setup(n);
            let launch = Launch::new(&k, NdRange::d1(n), args);
            let sweep = sweep_partitions(&ex, &launch, &bufs, 1).unwrap();
            bests.push(sweep.best().partition.clone());
        }
        assert_ne!(
            bests[0], bests[1],
            "optimal partitioning must change with size"
        );
    }

    #[test]
    fn sweep_many_matches_sequential_sweeps_exactly() {
        // Oracle determinism under parallelism: one batched call must be
        // byte-identical to N sequential single-launch sweeps — same
        // entries, same times, same best partitions.
        let stream = compile(STREAM).unwrap();
        let heavy = compile(HEAVY).unwrap();
        let (bufs_a, args_a) = setup(256);
        let (bufs_b, args_b) = setup(4096);
        let (bufs_c, args_c) = setup(1 << 14);
        let ex = Executor::new(machines::mc2());

        // Three launches, two sharing one compiled kernel (the shared
        // kernel cache of a multi-size training batch), plus a coarser
        // granularity job mixed into the same batch.
        let launch_a = Launch::new(&stream, NdRange::d1(256), args_a);
        let launch_b = Launch::new(&stream, NdRange::d1(4096), args_b);
        let launch_c = Launch::new(&heavy, NdRange::d1(1 << 14), args_c);
        let jobs = [
            SweepJob {
                launch: &launch_a,
                bufs: &bufs_a,
                step_tenths: 1,
            },
            SweepJob {
                launch: &launch_b,
                bufs: &bufs_b,
                step_tenths: 1,
            },
            SweepJob {
                launch: &launch_c,
                bufs: &bufs_c,
                step_tenths: 5,
            },
        ];

        let batched = sweep_many(&ex, &jobs).unwrap();
        assert_eq!(batched.len(), 3);

        for (job, batch_sweep) in jobs.iter().zip(&batched) {
            let solo = sweep_partitions(&ex, job.launch, job.bufs, job.step_tenths).unwrap();
            assert_eq!(
                batch_sweep, &solo,
                "batched sweep must equal the sequential sweep"
            );
            assert_eq!(batch_sweep.best().partition, solo.best().partition);
            assert_eq!(
                batch_sweep.best().time.to_bits(),
                solo.best().time.to_bits(),
                "best times must be byte-identical"
            );
        }
    }

    #[test]
    fn sweep_entries_match_uncached_pricing() {
        // Independent oracle: `Executor::simulate_with_profile` prices
        // through a direct `transfer_bytes` call, bypassing the batched
        // sweep's access-analysis cache entirely. Every cached entry must
        // be bit-identical to the uncached price, so a wrong cache key or
        // stale cached value cannot hide behind a cached-vs-cached
        // comparison.
        let k = compile(HEAVY).unwrap();
        let (bufs_a, args_a) = setup(1000);
        let (bufs_b, args_b) = setup(4096);
        let ex = Executor::new(machines::mc2());
        let launch_a = Launch::new(&k, NdRange::d1(1000), args_a);
        let launch_b = Launch::new(&k, NdRange::d1(4096), args_b);
        let jobs = [
            SweepJob {
                launch: &launch_a,
                bufs: &bufs_a,
                step_tenths: 1,
            },
            SweepJob {
                launch: &launch_b,
                bufs: &bufs_b,
                step_tenths: 2,
            },
        ];
        let batched = sweep_many(&ex, &jobs).unwrap();

        for (job, sweep) in jobs.iter().zip(&batched) {
            let profile = LaunchProfile::collect(
                job.launch.kernel,
                &job.launch.nd,
                &job.launch.args,
                job.bufs,
                SWEEP_PROFILE_SAMPLES.max(ex.sample_items),
            )
            .unwrap();
            let space = Partition::enumerate(3, job.step_tenths);
            assert_eq!(sweep.entries.len(), space.len());
            for (entry, partition) in sweep.entries.iter().zip(&space) {
                assert_eq!(&entry.partition, partition, "space order must be preserved");
                let uncached = ex.simulate_with_profile(job.launch, job.bufs, partition, &profile);
                assert_eq!(
                    entry.time.to_bits(),
                    uncached.time.to_bits(),
                    "{partition}: cached sweep price must equal direct pricing"
                );
            }
        }
    }

    #[test]
    fn sweep_many_is_deterministic_across_calls() {
        let k = compile(HEAVY).unwrap();
        let (bufs, args) = setup(2048);
        let ex = Executor::new(machines::mc1());
        let launch = Launch::new(&k, NdRange::d1(2048), args);
        let jobs = [SweepJob {
            launch: &launch,
            bufs: &bufs,
            step_tenths: 1,
        }; 2];
        let a = sweep_many(&ex, &jobs).unwrap();
        let b = sweep_many(&ex, &jobs).unwrap();
        assert_eq!(a, b);
        assert_eq!(a[0], a[1], "identical jobs in one batch must agree");
    }

    #[test]
    fn coarser_steps_are_a_subset_space() {
        let k = compile(STREAM).unwrap();
        let (bufs, args) = setup(512);
        let ex = Executor::new(machines::mc1());
        let launch = Launch::new(&k, NdRange::d1(512), args);
        let fine = sweep_partitions(&ex, &launch, &bufs, 1).unwrap();
        let coarse = sweep_partitions(&ex, &launch, &bufs, 5).unwrap();
        assert_eq!(coarse.entries.len(), 6);
        // The coarse best can never beat the fine best.
        assert!(coarse.best().time >= fine.best().time - 1e-12);
    }
}
