//! Pieces both workload families share: the configuration, the training
//! phase (the library call, or its traced replica), decision quality and
//! the small statistics the metrics are made of.

use std::collections::BTreeMap;

use hetpart_core::eval::PredictionOutcome;
use hetpart_core::{
    collect_training_db, FeatureSet, HarnessConfig, PartitionPredictor, TrainingDb, TrainingRecord,
};
use hetpart_inspire::vm::BufferData;
use hetpart_inspire::CompiledKernel;
use hetpart_ml::geometric_mean;
use hetpart_oclsim::Machine;
use hetpart_runtime::{
    runtime_features, sweep_many_mode, Executor, Launch, Partition, RuntimeFeatures, SweepJob,
};
use hetpart_suite::{Benchmark, Instance};
use rayon::prelude::*;

use crate::clock::SpeedGauge;
use crate::trace::Cx;

/// Batch size of the library's training sweep (`SWEEP_BATCH_JOBS` in
/// `hetpart_core::train`); the traced replica groups launches the same way.
const SWEEP_BATCH_JOBS: usize = 32;

/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// Command-line options every workload sees.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// Reduced suite and a single round, for the package's own tests.
    pub smoke: bool,
}

/// What a workload measured. `metrics` holds the end-to-end metrics and
/// the per-layer values only the workload can compute; `main` adds the
/// trace-derived ones.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// The paper's harness configuration, or the smoke-test reduction of it.
pub fn harness_config(smoke: bool) -> HarnessConfig {
    let paper = HarnessConfig::paper();
    if smoke {
        HarnessConfig {
            step_tenths: 5,
            ..paper
        }
    } else {
        paper
    }
}

/// The full suite, or three programs with two-rung ladders for smoke
/// runs (mandelbrot keeps the known reference mismatch on the smoke path).
pub fn suite(smoke: bool) -> Vec<Benchmark> {
    let all = hetpart_suite::all();
    if !smoke {
        return all;
    }
    all.into_iter()
        .filter(|b| ["vec_add", "sgemm", "mandelbrot"].contains(&b.name))
        .map(|b| Benchmark {
            sizes: &b.sizes[..2],
            ..b
        })
        .collect()
}

pub fn print_fingerprints(cfg: &HarnessConfig, machines: &[&Machine]) {
    println!("oracle fingerprint: {}", cfg.oracle_fingerprint());
    for m in machines {
        println!("machine {} fingerprint: {:#018x}", m.name, m.fingerprint());
    }
}

pub fn print_host_speed(gauge: &SpeedGauge) {
    println!(
        "host speed: the reference loop took {:.3}x its reference CPU time (median pass)",
        gauge.slowdown()
    );
}

/// One machine's training phase: the training database and the
/// predictor fitted on it.
pub struct Trained {
    pub db: TrainingDb,
    pub predictor: PartitionPredictor,
}

/// Collect the training database and fit the predictor. Untraced runs call
/// [`collect_training_db`]; traced runs repeat its steps from public calls
/// so each layer gets its own span (callers check the two agree).
pub fn train(cx: Cx, machine: &Machine, benches: &[Benchmark], cfg: &HarnessConfig) -> Trained {
    let db = if cx.traced() {
        collect_traced(cx, machine, benches, cfg)
    } else {
        collect_training_db(machine, benches, cfg)
            .unwrap_or_else(|e| panic!("training on {}: {e}", machine.name))
    };
    let predictor = cx.span("ml.fit", |_| {
        PartitionPredictor::train(&db, &cfg.model, FeatureSet::Both)
    });
    Trained { db, predictor }
}

/// In traced runs, check a database from [`train`] against the library's
/// own `collect_training_db`; returns the number of mismatches.
pub fn check_traced_training(
    cx: Cx,
    machine: &Machine,
    benches: &[Benchmark],
    cfg: &HarnessConfig,
    db: &TrainingDb,
) -> u64 {
    if !cx.traced() {
        return 0;
    }
    cx.span("verify", |_| {
        let same = collect_training_db(machine, benches, cfg).ok().as_ref() == Some(db);
        if !same {
            println!(
                "FAIL: traced training database of {} differs from collect_training_db",
                machine.name
            );
        }
        u64::from(!same)
    })
}

/// `collect_training_db`, step by step: compile each program once, then
/// per group of launches build instances and probe runtime features in
/// parallel, and price the whole partition space in one batched sweep.
fn collect_traced(
    cx: Cx,
    machine: &Machine,
    benches: &[Benchmark],
    cfg: &HarnessConfig,
) -> TrainingDb {
    let executor = Executor {
        sample_items: cfg.sample_items,
        ..Executor::new(machine.clone())
    };
    let kernels: Vec<CompiledKernel> = benches
        .par_iter()
        .map(|b| {
            cx.span("inspire.compile", |_| {
                b.compile_with_modes(cfg.opt_level, cfg.regalloc)
            })
        })
        .collect();
    let work: Vec<(usize, usize)> = benches
        .iter()
        .enumerate()
        .flat_map(|(i, b)| cfg.select_sizes(b).into_iter().map(move |n| (i, n)))
        .collect();
    let mut records = Vec::with_capacity(work.len());
    for group in work.chunks(SWEEP_BATCH_JOBS) {
        let prepared: Vec<(Instance, RuntimeFeatures)> = group
            .par_iter()
            .map(|&(i, n)| {
                let inst = cx.span("suite.instance", |_| benches[i].instance(n));
                cx.count("runtime.probe_bytes_cloned", buffer_bytes(&inst.bufs));
                let rt = cx.span("runtime.features", |_| {
                    runtime_features(
                        &kernels[i],
                        &inst.nd,
                        &inst.args,
                        &inst.bufs,
                        cfg.sample_items,
                    )
                });
                (
                    inst,
                    rt.unwrap_or_else(|e| panic!("{} n={n}: {e}", benches[i].name)),
                )
            })
            .collect();
        let launches: Vec<Launch> = group
            .iter()
            .zip(&prepared)
            .map(|(&(i, _), (inst, _))| {
                Launch::new(&kernels[i], inst.nd.clone(), inst.args.clone())
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
        let sweeps = cx
            .span("runtime.sweep", |_| {
                sweep_many_mode(&executor, &jobs, cfg.sweep_mode)
            })
            .unwrap_or_else(|e| panic!("training sweep on {}: {e}", machine.name));
        cx.count("runtime.sweep_launches", jobs.len() as f64);
        for ((&(i, n), (_, rt)), sweep) in group.iter().zip(prepared).zip(sweeps) {
            cx.count("runtime.partitions_priced", sweep.entries.len() as f64);
            records.push(TrainingRecord {
                program: benches[i].name.to_string(),
                program_idx: i,
                size: n,
                static_features: kernels[i].static_features.to_vec(),
                runtime_features: rt.to_vec(),
                sweep,
            });
        }
    }
    let mut db = TrainingDb {
        machine: machine.name.clone(),
        machine_fingerprint: machine.fingerprint(),
        records,
    };
    db.canonicalize();
    db
}

/// Bytes held by a launch's buffers (what a probe's scratch clone copies).
pub fn buffer_bytes(bufs: &[BufferData]) -> f64 {
    bufs.iter().map(|b| (b.len() * b.elem_bytes()) as f64).sum()
}

/// Decision quality, the paper's metric: how the simulated time of each
/// chosen partition compares with CPU-only, GPU-only and the oracle, all
/// priced by the training database's sweep of that (program, size).
#[derive(Debug, Default)]
pub struct Quality {
    over_cpu: Vec<f64>,
    over_gpu: Vec<f64>,
    of_oracle: Vec<f64>,
    oracle_hits: usize,
}

impl Quality {
    fn add(&mut self, chosen: f64, cpu: f64, gpu: f64, oracle: f64, hit: bool) {
        self.over_cpu.push(cpu / chosen);
        self.over_gpu.push(gpu / chosen);
        self.of_oracle.push(oracle / chosen);
        self.oracle_hits += usize::from(hit);
    }

    /// Add a leave-one-program-out prediction, priced by its record.
    pub fn add_outcome(&mut self, o: &PredictionOutcome) {
        self.add(
            o.predicted_time,
            o.cpu_only_time,
            o.gpu_only_time,
            o.oracle_time,
            o.predicted == o.oracle,
        );
    }

    /// Price `chosen` from `record`'s sweep; `false` if the sweep never
    /// priced that partition.
    pub fn add_record(&mut self, record: &TrainingRecord, chosen: &Partition) -> bool {
        let Some(t) = record.sweep.time_of(chosen) else {
            return false;
        };
        self.add(
            t,
            record.sweep.cpu_only_time(),
            record.sweep.gpu_only_time(),
            record.best().time,
            *chosen == record.best().partition,
        );
        true
    }

    pub fn len(&self) -> usize {
        self.over_cpu.len()
    }

    /// Geomean speedups over CPU-only and GPU-only, geomean fraction of
    /// the oracle, and the share of choices equal to the oracle's.
    pub fn summary(&self) -> [f64; 4] {
        if self.over_cpu.is_empty() {
            return [0.0; 4];
        }
        [
            geometric_mean(&self.over_cpu),
            geometric_mean(&self.over_gpu),
            geometric_mean(&self.of_oracle),
            self.oracle_hits as f64 / self.over_cpu.len() as f64,
        ]
    }

    /// Insert the three end-to-end quality metrics and `ml.accuracy`.
    pub fn record_into(&self, m: &mut BTreeMap<&'static str, f64>) {
        let [cpu, gpu, oracle, acc] = self.summary();
        m.insert("speedup_over_cpu", cpu);
        m.insert("speedup_over_gpu", gpu);
        m.insert("oracle_frac", oracle);
        m.insert("ml.accuracy", acc);
    }
}

/// Operation costs in CPU seconds by key: a (program, size) launch, or
/// one machine's leave-one-program-out folds. Every key recurs many times
/// in a run.
#[derive(Debug, Default)]
pub struct Latencies {
    samples: Vec<(usize, f64)>,
}

impl Latencies {
    pub fn push(&mut self, key: usize, seconds: f64) {
        self.samples.push((key, seconds));
    }

    /// Insert `ops_per_cpu_s`, `op_cpu_ms_p50` and `op_cpu_ms_p99`.
    ///
    /// Samples are CPU seconds at the reference speed ([`SpeedGauge`]).
    /// Each key's cost is the lower quartile of its samples: rescaling
    /// leaves some contention in, which only adds time. Over eight seeds
    /// on a heavily contended host, the lower quartile spread less across
    /// runs than the 10th percentile (which follows the gauge's errors
    /// downwards) on every workload, and within 3.5 points of the median,
    /// which spread more on `serve_hot`. The metrics are the 50th and
    /// 99th percentiles of those key costs over the operations run, and
    /// the reciprocal of their mean.
    pub fn record_into(&self, what: &str, m: &mut BTreeMap<&'static str, f64>) {
        let mut by_key: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for &(k, s) in &self.samples {
            by_key.entry(k).or_default().push(s);
        }
        let floor: BTreeMap<usize, f64> = by_key
            .iter()
            .map(|(k, v)| (*k, percentile(v, 0.25)))
            .collect();
        let per_op: Vec<f64> = self.samples.iter().map(|(k, _)| floor[k]).collect();
        let fewest = by_key.values().map(Vec::len).min().unwrap_or(0);
        println!(
            "samples: {} {what} over {} keys, at least {fewest} per key",
            per_op.len(),
            by_key.len()
        );
        let mean = per_op.iter().sum::<f64>() / per_op.len().max(1) as f64;
        m.insert("ops_per_cpu_s", if mean > 0.0 { 1.0 / mean } else { 0.0 });
        m.insert("op_cpu_ms_p50", percentile(&per_op, 0.5) * 1e3);
        m.insert("op_cpu_ms_p99", percentile(&per_op, 0.99) * 1e3);
    }
}

/// Nearest-rank percentile of unsorted samples (`p` in `[0, 1]`).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `f` `SETUPS` times and return the median CPU time of the process
/// (all its threads) per set-up at the reference speed
/// ([`SpeedGauge::alongside`]), the last result, and whether `same` held
/// between every consecutive pair (set-up is deterministic, so a
/// difference is a failure).
pub fn repeated_setup<T>(
    mut f: impl FnMut() -> T,
    same: impl Fn(&T, &T) -> bool,
) -> (f64, T, bool) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last: Option<T> = None;
    let mut deterministic = true;
    for _ in 0..SETUPS {
        let (v, used) = SpeedGauge::alongside(&mut f);
        times.push(used);
        if let Some(prev) = &last {
            deterministic &= same(prev, &v);
        }
        last = Some(v);
    }
    (
        percentile(&times, 0.5),
        last.expect("SETUPS > 0"),
        deterministic,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }
}
