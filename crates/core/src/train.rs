//! The training phase: run every benchmark at every problem size under
//! every partitioning on a machine, and collect features + measurements.

use std::fmt;

use hetpart_inspire::{CompiledKernel, VmError};
use hetpart_oclsim::Machine;
use hetpart_runtime::{
    runtime_features, sweep_many_mode, sweep_partitions_mode, Executor, Launch, RuntimeFeatures,
    SweepJob,
};
use hetpart_suite::{Benchmark, Instance};
use rayon::prelude::*;

use crate::config::HarnessConfig;
use crate::db::{DbError, ShardedDb, TrainingDb, TrainingRecord};

/// Why the training phase failed, naming the (benchmark, size) that broke
/// instead of panicking inside a rayon worker (which used to abort the
/// whole process with a backtrace pointing at the thread pool, not the
/// offending launch).
#[derive(Debug)]
pub enum TrainError {
    /// Runtime-feature collection failed for one launch.
    Features {
        benchmark: String,
        size: usize,
        source: VmError,
    },
    /// The oracle sweep failed for one launch.
    Sweep {
        benchmark: String,
        size: usize,
        source: VmError,
    },
    /// A whole sweep batch failed but no individual launch reproduces it —
    /// a bug in the batching layer itself.
    Batch { source: VmError },
    /// Reading from or appending to the shard store failed.
    Shard(DbError),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Features {
                benchmark,
                size,
                source,
            } => write!(
                f,
                "{benchmark} (n = {size}): runtime features failed: {source}"
            ),
            TrainError::Sweep {
                benchmark,
                size,
                source,
            } => write!(f, "{benchmark} (n = {size}): sweep failed: {source}"),
            TrainError::Batch { source } => {
                write!(
                    f,
                    "batched training sweep failed (no single launch reproduces it): {source}"
                )
            }
            TrainError::Shard(e) => write!(f, "training shard store: {e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Features { source, .. }
            | TrainError::Sweep { source, .. }
            | TrainError::Batch { source } => Some(source),
            TrainError::Shard(e) => Some(e),
        }
    }
}

impl From<DbError> for TrainError {
    fn from(e: DbError) -> Self {
        TrainError::Shard(e)
    }
}

/// How many (benchmark, size) launches each [`sweep_many`] call batches.
///
/// Bounds peak memory: every job in flight holds a full benchmark
/// instance (input + output buffers, tens of MB at the top of a paper
/// size ladder), so an unbounded batch over the whole suite could reach
/// gigabytes. 32 jobs keep a few times the worker-thread count in
/// flight — enough that both sweep phases stay saturated (a batch spans
/// 32 × |space| pricing units) — while capping live buffers.
///
/// [`sweep_many`]: hetpart_runtime::sweep_many
const SWEEP_BATCH_JOBS: usize = 32;

/// Collect the full training database for one machine.
///
/// The suite trains as **batched sweeps**: every benchmark is compiled
/// exactly once (shared across all of its problem sizes), then
/// (benchmark, size) pairs stream through [`sweep_many_mode`] in groups
/// of [`SWEEP_BATCH_JOBS`] — instances and runtime features prepared in
/// parallel, every (launch × partitioning) pair of the group priced in
/// one flat rayon pass with per-launch access-analysis caches. No
/// buffers are mutated, and batch boundaries cannot affect results
/// (batched sweeps are bit-identical to sequential ones).
///
/// With `cfg.sweep_mode == SweepMode::Pruned` the oracle runs the
/// branch-and-bound sweep instead: each record's `best()` (the training
/// label) and the default-strategy baselines are bit-identical to the
/// full sweep, but the stored sweeps contain only the priced subset of
/// the partition space — use `Full` when downstream consumers (e.g. the
/// evaluation harness) must price arbitrary partitions.
///
/// The returned database is canonical ([`TrainingDb::canonicalize`]):
/// records sorted by (program, size), `program_idx` ranked by program
/// name — independent of the order of `benchmarks`.
///
/// A failing launch returns a [`TrainError`] naming the benchmark and
/// problem size (it used to panic inside a rayon worker).
pub fn collect_training_db(
    machine: &Machine,
    benchmarks: &[Benchmark],
    cfg: &HarnessConfig,
) -> Result<TrainingDb, TrainError> {
    let records = collect_into(machine, benchmarks, cfg, None, &Default::default())?;
    Ok(canonical_db(machine, records))
}

/// [`collect_training_db`] with **streaming JSONL persistence and crash
/// resume**: every measured record is appended to its (machine, program)
/// shard as soon as its batch completes, and (program, size) pairs
/// already present in the shards are skipped, so an interrupted run
/// resumes where it stopped instead of restarting. A torn final line
/// (crash mid-append) is dropped by the shard loader and re-measured
/// here.
///
/// Returns the canonical [`TrainingDb`] for exactly the requested
/// (benchmark, size) set — loading what the shards already hold and
/// measuring the rest — **bit-identical to a single
/// [`collect_training_db`] run over the same benchmarks**. Records an
/// earlier run left in the store beyond the requested set stay on disk
/// (visible to [`ShardedDb::merge`]) but are excluded from the returned
/// view.
///
/// A store opened for another machine (a different name, or the same
/// name with different hardware) fails with
/// [`DbError::MachineMismatch`] or [`DbError::MachineFingerprintMismatch`]
/// before anything is read or measured.
pub fn collect_training_db_sharded(
    machine: &Machine,
    benchmarks: &[Benchmark],
    cfg: &HarnessConfig,
    shards: &ShardedDb,
) -> Result<TrainingDb, TrainError> {
    if shards.machine() != machine.name {
        return Err(DbError::MachineMismatch {
            path: shards.dir().to_path_buf(),
            expected: machine.name.to_string(),
            found: shards.machine().to_string(),
        }
        .into());
    }
    if shards.machine_fingerprint() != machine.fingerprint() {
        return Err(DbError::MachineFingerprintMismatch {
            path: shards.dir().to_path_buf(),
            machine: machine.name.to_string(),
            expected: machine.fingerprint(),
            found: shards.machine_fingerprint(),
        }
        .into());
    }
    // Refuse to resume a store collected under different oracle settings
    // (sweep granularity, sample count, sweep mode) — the records would
    // not be comparable. First run records the fingerprint.
    shards.check_or_record_config(&cfg.oracle_fingerprint())?;
    // The (program, size) set this run is asked for. A reused store may
    // hold more (an earlier run over a larger suite or size ladder);
    // those records stay on disk — available to `ShardedDb::merge` — but
    // are excluded from the returned view, which must equal a
    // `collect_training_db` run over exactly `benchmarks`.
    let requested: std::collections::HashSet<(String, usize)> = benchmarks
        .iter()
        .flat_map(|b| {
            cfg.select_sizes(b)
                .into_iter()
                .map(move |n| (b.name.to_string(), n))
        })
        .collect();
    // One pass over the shard files: the already-measured records double
    // as the resume set and the head of the merged result (re-reading
    // every shard after collection would parse the whole store twice).
    let mut records: Vec<TrainingRecord> = Vec::new();
    let mut done: std::collections::HashSet<(String, usize)> = Default::default();
    for program in shards.programs()? {
        for r in shards.load_shard(&program)? {
            if !done.insert((r.program.clone(), r.size)) {
                return Err(DbError::DuplicateRecord {
                    program: r.program,
                    size: r.size,
                }
                .into());
            }
            if requested.contains(&(r.program.clone(), r.size)) {
                records.push(r);
            }
        }
    }
    records.extend(collect_into(machine, benchmarks, cfg, Some(shards), &done)?);
    Ok(canonical_db(machine, records))
}

fn canonical_db(machine: &Machine, records: Vec<TrainingRecord>) -> TrainingDb {
    let mut db = TrainingDb {
        machine: machine.name.clone(),
        machine_fingerprint: machine.fingerprint(),
        records,
    };
    db.canonicalize();
    db
}

/// Measure every (benchmark, size) pair not in `done`, appending each
/// finished batch to `shards` when given, and return the new records in
/// measurement order (callers canonicalize).
fn collect_into(
    machine: &Machine,
    benchmarks: &[Benchmark],
    cfg: &HarnessConfig,
    shards: Option<&ShardedDb>,
    done: &std::collections::HashSet<(String, usize)>,
) -> Result<Vec<TrainingRecord>, TrainError> {
    let executor = Executor {
        sample_items: cfg.sample_items,
        ..Executor::new(machine.clone())
    };

    // Compiled-kernel cache: one compile per benchmark, shared by every
    // problem size's launch below.
    let kernels: Vec<CompiledKernel> = benchmarks
        .par_iter()
        .map(|bench| bench.compile_with_modes(cfg.opt_level, cfg.regalloc))
        .collect();

    let work: Vec<(usize, usize)> = benchmarks
        .iter()
        .enumerate()
        .flat_map(|(idx, b)| cfg.select_sizes(b).into_iter().map(move |n| (idx, n)))
        .filter(|&(idx, n)| !done.contains(&(benchmarks[idx].name.to_string(), n)))
        .collect();

    let mut records: Vec<TrainingRecord> = Vec::with_capacity(work.len());
    for group in work.chunks(SWEEP_BATCH_JOBS) {
        // Instances + runtime features, in parallel over (benchmark, size).
        let prepared: Vec<(Instance, RuntimeFeatures)> = group
            .par_iter()
            .map(|&(program_idx, size)| {
                let bench = &benchmarks[program_idx];
                let inst = bench.instance(size);
                let rt = runtime_features(
                    &kernels[program_idx],
                    &inst.nd,
                    &inst.args,
                    &inst.bufs,
                    cfg.sample_items,
                )
                .map_err(|source| TrainError::Features {
                    benchmark: bench.name.to_string(),
                    size,
                    source,
                })?;
                Ok((inst, rt))
            })
            .collect::<Vec<Result<_, TrainError>>>()
            .into_iter()
            .collect::<Result<_, _>>()?;

        // One batched oracle sweep over the group.
        let launches: Vec<Launch> = group
            .iter()
            .zip(&prepared)
            .map(|(&(program_idx, _), (inst, _))| {
                Launch::new(&kernels[program_idx], inst.nd.clone(), inst.args.clone())
            })
            .collect();
        let jobs: Vec<SweepJob> = launches
            .iter()
            .zip(&prepared)
            .map(|(launch, (inst, _))| SweepJob {
                launch,
                bufs: &inst.bufs,
                step_tenths: cfg.step_tenths,
            })
            .collect();
        let sweeps = sweep_many_mode(&executor, &jobs, cfg.sweep_mode).map_err(|batch_err| {
            // Localize which launch of the batch failed so the error names
            // the benchmark and size instead of a 32-job group.
            for (job, &(program_idx, size)) in jobs.iter().zip(group) {
                if let Err(source) = sweep_partitions_mode(
                    &executor,
                    job.launch,
                    job.bufs,
                    job.step_tenths,
                    cfg.sweep_mode,
                ) {
                    return TrainError::Sweep {
                        benchmark: benchmarks[program_idx].name.to_string(),
                        size,
                        source,
                    };
                }
            }
            TrainError::Batch { source: batch_err }
        })?;

        let batch: Vec<TrainingRecord> = group
            .iter()
            .zip(prepared)
            .zip(sweeps)
            .map(|((&(program_idx, size), (_, rt)), sweep)| TrainingRecord {
                program: benchmarks[program_idx].name.to_string(),
                program_idx,
                size,
                static_features: kernels[program_idx].static_features.to_vec(),
                runtime_features: rt.to_vec(),
                sweep,
            })
            .collect();
        // Stream the finished batch into the shard store before measuring
        // the next one: a crash from here on resumes after this batch.
        if let Some(s) = shards {
            for r in &batch {
                s.append(r)?;
            }
        }
        records.extend(batch);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetpart_oclsim::machines;
    use hetpart_runtime::Partition;

    fn tiny_cfg() -> HarnessConfig {
        HarnessConfig {
            sizes_per_benchmark: 2,
            sample_items: 32,
            step_tenths: 5,
            ..HarnessConfig::quick()
        }
    }

    #[test]
    fn collects_records_for_each_benchmark_and_size() {
        let benches: Vec<_> = hetpart_suite::all().into_iter().take(3).collect();
        let db = collect_training_db(&machines::mc1(), &benches, &tiny_cfg()).unwrap();
        assert_eq!(db.machine, "mc1");
        assert_eq!(db.records.len(), 3 * 2);
        for r in &db.records {
            assert_eq!(r.sweep.entries.len(), 6, "step=5 space has 6 partitions");
            assert!(!r.static_features.is_empty());
            assert!(!r.runtime_features.is_empty());
            assert!(r.best().time > 0.0);
        }
    }

    #[test]
    fn records_are_canonical_sorted_and_ranked() {
        let benches: Vec<_> = hetpart_suite::all().into_iter().take(2).collect();
        let db = collect_training_db(&machines::mc2(), &benches, &tiny_cfg()).unwrap();
        let keys: Vec<(String, usize)> = db
            .records
            .iter()
            .map(|r| (r.program.clone(), r.size))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "records sort by (program, size)");
        // program_idx is the rank of the name, not the slice position.
        for r in &db.records {
            let rank = db
                .records
                .iter()
                .map(|o| o.program.as_str())
                .filter(|&n| n < r.program.as_str())
                .collect::<std::collections::BTreeSet<_>>()
                .len();
            assert_eq!(r.program_idx, rank, "{}", r.program);
        }
    }

    #[test]
    fn benchmark_order_does_not_change_the_database() {
        // The canonical form makes collection independent of the order the
        // benchmark slice happens to arrive in — a precondition for
        // shard merges being bit-identical to monolithic collection.
        let mut benches: Vec<_> = hetpart_suite::all().into_iter().take(3).collect();
        let forward = collect_training_db(&machines::mc1(), &benches, &tiny_cfg()).unwrap();
        benches.reverse();
        let reversed = collect_training_db(&machines::mc1(), &benches, &tiny_cfg()).unwrap();
        assert_eq!(forward, reversed);
    }

    #[test]
    fn pruned_training_oracle_is_label_exact() {
        // The paper's labels are the oracle argmins; the branch-and-bound
        // oracle must reproduce every one of them bit for bit, along with
        // the default-strategy baselines.
        let benches: Vec<_> = hetpart_suite::all().into_iter().take(4).collect();
        let full_cfg = HarnessConfig {
            step_tenths: 1,
            ..tiny_cfg()
        };
        let pruned_cfg = HarnessConfig {
            sweep_mode: hetpart_runtime::SweepMode::Pruned,
            ..full_cfg.clone()
        };
        let machine = machines::mc2();
        let full = collect_training_db(&machine, &benches, &full_cfg).unwrap();
        let pruned = collect_training_db(&machine, &benches, &pruned_cfg).unwrap();
        assert_eq!(full.records.len(), pruned.records.len());
        for (f, p) in full.records.iter().zip(&pruned.records) {
            assert_eq!((f.program_idx, f.size), (p.program_idx, p.size));
            assert_eq!(
                f.best().partition,
                p.best().partition,
                "{} n={}: label must survive pruning",
                f.program,
                f.size
            );
            assert_eq!(f.best().time.to_bits(), p.best().time.to_bits());
            assert_eq!(
                f.sweep.cpu_only_time().to_bits(),
                p.sweep.cpu_only_time().to_bits()
            );
            assert_eq!(
                f.sweep.gpu_only_time().to_bits(),
                p.sweep.gpu_only_time().to_bits()
            );
            assert!(p.sweep.entries.len() <= f.sweep.entries.len());
            // Features are oracle-independent.
            assert_eq!(f.runtime_features, p.runtime_features);
        }
        assert_eq!(full.label_space(), pruned.label_space());
    }

    #[test]
    fn failing_launch_is_a_named_error_not_a_panic() {
        // Regression: a faulting launch used to panic inside a rayon
        // worker, aborting the whole training run with a backtrace that
        // pointed at the thread pool. It must surface as a `TrainError`
        // naming the (benchmark, size) instead.
        use hetpart_inspire::vm::{ArgValue, BufferData};
        use hetpart_inspire::NdRange;

        fn oob_setup(n: usize, _seed: u64) -> Instance {
            Instance {
                nd: NdRange::d1(n),
                args: vec![
                    ArgValue::Buffer(0),
                    ArgValue::Buffer(1),
                    ArgValue::Int(n as i32),
                ],
                bufs: vec![BufferData::F32(vec![1.0; n]), BufferData::F32(vec![0.0; n])],
                outputs: vec![1],
            }
        }
        fn no_reference(_: &Instance) -> Vec<(usize, BufferData)> {
            Vec::new()
        }
        let broken = Benchmark {
            name: "oob_probe",
            origin: "test",
            description: "reads past the end of its input",
            // Valid source, faults at runtime: a[i + n] is out of bounds
            // for every work item.
            source: "kernel void oob(global const float* a, global float* o, int n) {
                int i = get_global_id(0);
                o[i] = a[i + n];
            }",
            sizes: &[64],
            setup: oob_setup,
            reference: no_reference,
        };
        let good = hetpart_suite::by_name("vec_add").unwrap();
        let err = collect_training_db(&machines::mc1(), &[good, broken], &tiny_cfg()).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("oob_probe") && msg.contains("64"),
            "error must name the failing (benchmark, size): {msg}"
        );
        assert!(
            matches!(
                err,
                TrainError::Features { ref benchmark, size: 64, .. }
                    | TrainError::Sweep { ref benchmark, size: 64, .. }
                    if benchmark == "oob_probe"
            ),
            "{err:?}"
        );
    }

    #[test]
    fn best_partition_varies_across_the_db() {
        // With a diverse suite and sizes, the oracle should not pick the
        // same partitioning for everything (the paper's premise).
        let benches: Vec<_> = hetpart_suite::all()
            .into_iter()
            .filter(|b| ["vec_add", "nbody", "sgemm", "blackscholes"].contains(&b.name))
            .collect();
        let cfg = HarnessConfig {
            sizes_per_benchmark: 3,
            ..tiny_cfg()
        };
        let db = collect_training_db(&machines::mc2(), &benches, &cfg).unwrap();
        let bests: Vec<Partition> = db
            .records
            .iter()
            .map(|r| r.best().partition.clone())
            .collect();
        let mut distinct = bests.clone();
        distinct.sort();
        distinct.dedup();
        assert!(
            distinct.len() >= 2,
            "expected multiple optimal partitionings, got only {:?}",
            distinct
        );
    }
}
