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
use hetpart_oclsim::DeviceId;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::exec::{scalar_values, transfer_bytes, Executor, Launch};
use crate::partition::{Partition, TENTHS};
use crate::profile::LaunchProfile;

/// Samples collected per launch profile during a sweep.
pub const SWEEP_PROFILE_SAMPLES: usize = 256;

/// How a sweep covers the partition space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SweepMode {
    /// Price every partitioning — the paper's exhaustive oracle, and the
    /// only mode whose sweeps can price *arbitrary* partitions afterwards.
    #[default]
    Full,
    /// Branch-and-bound: enumerate partitions depth-first over per-device
    /// shares and skip every completion of a partial assignment whose
    /// lower bound (the max over already-priced device chunks, which can
    /// only grow as more devices are priced) already exceeds the
    /// incumbent best time. Per-device chunk times are additionally
    /// memoized across partitions sharing the same chunk boundaries.
    ///
    /// Oracle-exact: the argmin partition and its time are bit-identical
    /// to [`SweepMode::Full`] (ties are never pruned, so the tie-breaking
    /// of [`PartitionSweep::best`] is preserved). The returned sweep
    /// contains only the entries that were actually priced — always
    /// including the argmin and the CPU-only/GPU-only baselines — so it
    /// is suitable for oracle labels and default-strategy comparisons,
    /// not for pricing arbitrary partitions.
    Pruned,
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
    /// sweep must not change when entries are reordered, merged from
    /// shards, or thinned by pruning. Entry-order tie-breaking silently
    /// flipped training labels whenever two partitions priced identically
    /// and a merge or prune changed which came first.
    ///
    /// # Panics
    /// Panics if the sweep is empty. Every sweep [`sweep_many_mode`]
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

/// [`sweep_many`] with an explicit [`SweepMode`].
///
/// `Full` prices the whole space; `Pruned` runs the branch-and-bound
/// search per job (jobs still sweep in parallel) and returns subset
/// sweeps whose argmin is oracle-exact.
pub fn sweep_many_mode(
    executor: &Executor,
    jobs: &[SweepJob<'_>],
    mode: SweepMode,
) -> Result<Vec<PartitionSweep>, VmError> {
    match mode {
        SweepMode::Full => sweep_many(executor, jobs),
        SweepMode::Pruned => jobs
            .par_iter()
            .map(|job| BranchAndBound::sweep(executor, job))
            .collect::<Vec<Result<_, _>>>()
            .into_iter()
            .collect(),
    }
}

/// Branch-and-bound state for one pruned sweep job.
///
/// The DFS mirrors [`Partition::enumerate`]'s recursion exactly, so the
/// priced entries come out in enumeration (lexicographic-by-shares)
/// order, and subtrees are pruned only on a *strictly* greater lower
/// bound, so every partition tied with the optimum is fully priced.
/// [`PartitionSweep::best`] resolves time ties to the lexicographically
/// smallest partition; since the pruned entries contain every
/// minimal-time partition, that tie winner is the same partition the
/// full sweep selects, bit for bit. Do not weaken the never-prune-ties
/// property: dropping a tied minimum could remove the tie winner.
struct BranchAndBound<'a> {
    executor: &'a Executor,
    launch: &'a Launch<'a>,
    bufs: &'a [BufferData],
    profile: LaunchProfile,
    scalars: Vec<Option<i64>>,
    devs: Vec<DeviceId>,
    extent: usize,
    step: u8,
    /// Lazy access-analysis cache, keyed by chunk boundaries.
    transfers: HashMap<(usize, usize), (u64, u64)>,
    /// Memoized per-device chunk times, keyed by (device, start, end).
    chunk_times: HashMap<(usize, usize, usize), f64>,
    /// Priced partitions in enumeration order.
    entries: Vec<SweepEntry>,
    shares: Vec<u8>,
    incumbent: f64,
}

impl<'a> BranchAndBound<'a> {
    fn sweep(executor: &'a Executor, job: &'a SweepJob<'a>) -> Result<PartitionSweep, VmError> {
        // Same granularity contract as `Partition::enumerate`: an invalid
        // step must fail as loudly here as it does in a full sweep.
        assert!(
            (1..=TENTHS).contains(&job.step_tenths) && TENTHS.is_multiple_of(job.step_tenths),
            "step must divide 10"
        );
        let launch = job.launch;
        let num_devices = executor.machine.num_devices();
        let profile = LaunchProfile::collect(
            launch.kernel,
            &launch.nd,
            &launch.args,
            job.bufs,
            SWEEP_PROFILE_SAMPLES.max(executor.sample_items),
        )?;
        let mut bnb = Self {
            executor,
            launch,
            bufs: job.bufs,
            profile,
            scalars: scalar_values(launch.kernel, &launch.args),
            devs: executor.machine.device_ids().collect(),
            extent: launch.nd.split_extent(),
            step: job.step_tenths,
            transfers: HashMap::new(),
            chunk_times: HashMap::new(),
            entries: Vec::new(),
            shares: vec![0; num_devices],
            incumbent: f64::INFINITY,
        };

        // Seed the incumbent with the default strategies. They are cheap
        // (single-device), usually competitive, and guaranteeing their
        // presence keeps `cpu_only_time`/`gpu_only_time` usable on pruned
        // sweeps.
        let mut seeds = vec![Partition::cpu_only(num_devices)];
        if num_devices > 1 {
            seeds.push(Partition::gpu_only(num_devices));
        }
        let seed_entries: Vec<SweepEntry> = seeds
            .into_iter()
            .map(|partition| {
                let time = bnb.partition_time(&partition);
                SweepEntry { partition, time }
            })
            .collect();
        for e in &seed_entries {
            bnb.incumbent = bnb.incumbent.min(e.time);
        }

        bnb.dfs(0, TENTHS, 0, 0, 0.0, 0);

        // Splice the seeds into their enumeration-order slots if pruning
        // skipped them (their times are memoized, so a re-priced seed is
        // bitwise identical to its entry here).
        let mut entries = bnb.entries;
        for seed in seed_entries {
            match entries.binary_search_by(|e| e.partition.shares().cmp(seed.partition.shares())) {
                Ok(_) => {}
                Err(pos) => entries.insert(pos, seed),
            }
        }
        Ok(PartitionSweep { entries })
    }

    /// Chunk boundary at cumulative share `cum`, identical to
    /// [`Partition::chunks`]'s rounding.
    fn boundary(&self, cum: u32) -> usize {
        (self.extent as u64 * u64::from(cum) / u64::from(TENTHS)) as usize
    }

    /// Memoized simulated time of `chunk` on device index `dev`.
    fn chunk_time(&mut self, dev: usize, start: usize, end: usize) -> f64 {
        if let Some(&t) = self.chunk_times.get(&(dev, start, end)) {
            return t;
        }
        let transfer = match self.transfers.get(&(start, end)) {
            Some(&t) => t,
            None => {
                let t = transfer_bytes(
                    self.launch.kernel,
                    &self.launch.nd,
                    start..end,
                    &self.scalars,
                    &self.launch.args,
                    self.bufs,
                );
                self.transfers.insert((start, end), t);
                t
            }
        };
        let run = self.executor.price_chunk(
            self.launch,
            self.devs[dev],
            start..end,
            &self.profile,
            transfer,
        );
        let t = run.time.total;
        self.chunk_times.insert((dev, start, end), t);
        t
    }

    /// Price a full partition by composing memoized chunk times exactly
    /// like [`Executor::price_with_profile`]: max over non-empty chunks in
    /// device order, plus the multi-device coordination overhead.
    fn partition_time(&mut self, partition: &Partition) -> f64 {
        let chunks = partition.chunks(self.extent);
        let mut slowest = 0.0f64;
        let mut active = 0usize;
        for (dev, chunk) in chunks.iter().enumerate() {
            if chunk.is_empty() {
                continue;
            }
            slowest = slowest.max(self.chunk_time(dev, chunk.start, chunk.end));
            active += 1;
        }
        slowest + self.executor.coordination_overhead(active)
    }

    /// Assign device `idx`'s share and recurse, pruning subtrees whose
    /// lower bound exceeds the incumbent. `cur_max`/`active` describe the
    /// devices priced so far; remaining devices can only raise the max and
    /// the active count, so `cur_max` (plus coordination once two devices
    /// are active) is a sound lower bound for every completion.
    fn dfs(&mut self, idx: usize, left: u8, cum: u32, start: usize, cur_max: f64, active: usize) {
        let last = self.shares.len() - 1;
        let assign = |bnb: &mut Self, s: u8| -> Option<(f64, usize, usize)> {
            bnb.shares[idx] = s;
            let end = bnb.boundary(cum + u32::from(s));
            let (new_max, new_active) = if end > start {
                (cur_max.max(bnb.chunk_time(idx, start, end)), active + 1)
            } else {
                (cur_max, active)
            };
            let bound = new_max + bnb.executor.coordination_overhead(new_active);
            if bound > bnb.incumbent {
                return None;
            }
            Some((new_max, new_active, end))
        };
        if idx == last {
            // The final share is forced; finalize the leaf if it survives
            // the bound.
            if let Some((time_base, new_active, _)) = assign(self, left) {
                let time = time_base + self.executor.coordination_overhead(new_active);
                let partition = Partition::from_tenths(self.shares.clone());
                if time <= self.incumbent {
                    self.incumbent = time;
                }
                self.entries.push(SweepEntry { partition, time });
            }
            return;
        }
        let mut s = 0u8;
        while s <= left {
            if let Some((new_max, new_active, end)) = assign(self, s) {
                self.dfs(
                    idx + 1,
                    left - s,
                    cum + u32::from(s),
                    end,
                    new_max,
                    new_active,
                );
            }
            s += self.step;
        }
    }
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
    sweep_partitions_mode(executor, launch, bufs, step_tenths, SweepMode::Full)
}

/// [`sweep_partitions`] with an explicit [`SweepMode`].
pub fn sweep_partitions_mode(
    executor: &Executor,
    launch: &Launch,
    bufs: &[BufferData],
    step_tenths: u8,
    mode: SweepMode,
) -> Result<PartitionSweep, VmError> {
    let mut sweeps = sweep_many_mode(
        executor,
        &[SweepJob {
            launch,
            bufs,
            step_tenths,
        }],
        mode,
    )?;
    let Some(sweep) = sweeps.pop() else {
        unreachable!("`sweep_many_mode` returns one sweep per job");
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
        // entry order, so merging or pruning a sweep (both reorder or thin
        // the entries) could flip the oracle label between tied partitions.
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
    fn pruned_sweep_rejects_invalid_step_like_full() {
        let k = compile(STREAM).unwrap();
        let (bufs, args) = setup(64);
        let ex = Executor::new(machines::mc1());
        let launch = Launch::new(&k, NdRange::d1(64), args);
        let _ = sweep_partitions_mode(&ex, &launch, &bufs, 3, SweepMode::Pruned);
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
    fn pruned_sweep_is_oracle_exact() {
        // The branch-and-bound sweep must return exactly the same argmin
        // partition with a bit-identical time as the full sweep, for every
        // kernel shape, machine, problem size, and granularity.
        for (src, sizes) in [(STREAM, [128usize, 2048]), (HEAVY, [256, 1 << 14])] {
            let k = compile(src).unwrap();
            for m in [machines::mc1(), machines::mc2()] {
                for n in sizes {
                    for step in [1u8, 2, 5] {
                        let ex = Executor::new(m.clone());
                        let (bufs, args) = setup(n);
                        let launch = Launch::new(&k, NdRange::d1(n), args);
                        let full = sweep_partitions(&ex, &launch, &bufs, step).unwrap();
                        let pruned =
                            sweep_partitions_mode(&ex, &launch, &bufs, step, SweepMode::Pruned)
                                .unwrap();
                        assert_eq!(
                            pruned.best().partition,
                            full.best().partition,
                            "{} n={n} step={step}: pruned argmin must match",
                            ex.machine.name
                        );
                        assert_eq!(
                            pruned.best().time.to_bits(),
                            full.best().time.to_bits(),
                            "{} n={n} step={step}: pruned best time must be bit-identical",
                            ex.machine.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_sweep_entries_are_a_priced_subset() {
        let k = compile(HEAVY).unwrap();
        let (bufs, args) = setup(4096);
        let ex = Executor::new(machines::mc2());
        let launch = Launch::new(&k, NdRange::d1(4096), args);
        let full = sweep_partitions(&ex, &launch, &bufs, 1).unwrap();
        let pruned = sweep_partitions_mode(&ex, &launch, &bufs, 1, SweepMode::Pruned).unwrap();
        assert!(pruned.entries.len() <= full.entries.len());
        // Every pruned entry is bit-identical to the full sweep's entry
        // for the same partition, and the subset follows enumeration order.
        let mut last_idx = None;
        let space = Partition::enumerate(3, 1);
        for e in &pruned.entries {
            let t = full.time_of(&e.partition).expect("priced in full space");
            assert_eq!(e.time.to_bits(), t.to_bits(), "{}", e.partition);
            let idx = e.partition.class_index(&space).unwrap();
            assert!(last_idx.is_none_or(|p| p < idx), "enumeration order");
            last_idx = Some(idx);
        }
        // The baselines survive pruning so default-strategy comparisons
        // still work on pruned sweeps.
        assert_eq!(
            pruned.cpu_only_time().to_bits(),
            full.cpu_only_time().to_bits()
        );
        assert_eq!(
            pruned.gpu_only_time().to_bits(),
            full.gpu_only_time().to_bits()
        );
    }

    #[test]
    fn pruned_sweep_actually_prunes() {
        // Not a correctness property, but the whole point: on a realistic
        // launch the bound must cut a substantial part of the 66-partition
        // space.
        let k = compile(HEAVY).unwrap();
        let (bufs, args) = setup(1 << 14);
        let ex = Executor::new(machines::mc2());
        let launch = Launch::new(&k, NdRange::d1(1 << 14), args);
        let pruned = sweep_partitions_mode(&ex, &launch, &bufs, 1, SweepMode::Pruned).unwrap();
        assert!(
            pruned.entries.len() < 50,
            "expected real pruning of the 66-entry space, priced {}",
            pruned.entries.len()
        );
    }

    #[test]
    fn pruned_sweep_many_matches_per_launch_pruned_sweeps() {
        let stream = compile(STREAM).unwrap();
        let heavy = compile(HEAVY).unwrap();
        let (bufs_a, args_a) = setup(512);
        let (bufs_b, args_b) = setup(8192);
        let ex = Executor::new(machines::mc1());
        let launch_a = Launch::new(&stream, NdRange::d1(512), args_a);
        let launch_b = Launch::new(&heavy, NdRange::d1(8192), args_b);
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
        let batched = sweep_many_mode(&ex, &jobs, SweepMode::Pruned).unwrap();
        for (job, sweep) in jobs.iter().zip(&batched) {
            let solo = sweep_partitions_mode(
                &ex,
                job.launch,
                job.bufs,
                job.step_tenths,
                SweepMode::Pruned,
            )
            .unwrap();
            assert_eq!(sweep, &solo);
        }
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
