//! The evaluation harness: one function per figure/table of the paper plus
//! the extension experiments, all driven by a shared [`EvalContext`].
//!
//! Every experiment uses **leave-one-program-out** cross-validation: the
//! partitioning of each benchmark is predicted by a model trained on the
//! other 22 programs, exactly the paper's deployment scenario.

use hetpart_ml::{geometric_mean, leave_one_group_out, ModelConfig};
use hetpart_runtime::Partition;
use hetpart_suite::Benchmark;
use serde::{Deserialize, Serialize};

use crate::config::HarnessConfig;
use crate::db::{FeatureSet, TrainingDb};
use crate::report::{bar, cell, num, rule};
use crate::train::collect_training_db;

/// Shared measurement context: one training database per machine.
#[derive(Debug, Clone)]
pub struct EvalContext {
    pub cfg: HarnessConfig,
    pub benchmarks: Vec<Benchmark>,
    pub dbs: Vec<TrainingDb>,
}

impl EvalContext {
    /// Run the training-phase measurements for every configured machine.
    ///
    /// # Panics
    /// Panics if a bundled benchmark fails to measure — the suite's own
    /// tests guarantee it cannot; the panic message names the launch.
    pub fn build(cfg: HarnessConfig, benchmarks: Vec<Benchmark>) -> Self {
        let dbs = cfg
            .machines
            .iter()
            .map(|m| {
                collect_training_db(m, &benchmarks, &cfg)
                    .unwrap_or_else(|e| panic!("training on {}: {e}", m.name))
            })
            .collect();
        Self {
            cfg,
            benchmarks,
            dbs,
        }
    }

    /// Like [`EvalContext::build`], but with **per-machine sharded
    /// collection**: each machine's measurements stream into JSONL shards
    /// under `<root>/<machine>/` as they complete, and each database is
    /// the merge of that machine's shards. Re-running over the same root
    /// resumes (already-measured records are loaded, not re-measured), and
    /// the merged databases are bit-identical to [`EvalContext::build`]'s.
    pub fn build_sharded(
        cfg: HarnessConfig,
        benchmarks: Vec<Benchmark>,
        root: &std::path::Path,
    ) -> Result<Self, crate::train::TrainError> {
        let dbs = cfg
            .machines
            .iter()
            .map(|m| {
                let shards = crate::db::ShardedDb::open(root, m)?;
                crate::train::collect_training_db_sharded(m, &benchmarks, &cfg, &shards)
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            cfg,
            benchmarks,
            dbs,
        })
    }

    /// Build with the full 23-program suite.
    pub fn build_full_suite(cfg: HarnessConfig) -> Self {
        Self::build(cfg, hetpart_suite::all())
    }
}

/// Per-record outcome of a leave-one-program-out prediction run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionOutcome {
    pub program: String,
    pub size: usize,
    pub predicted: Partition,
    pub oracle: Partition,
    /// Simulated time of the predicted partitioning.
    pub predicted_time: f64,
    pub oracle_time: f64,
    pub cpu_only_time: f64,
    pub gpu_only_time: f64,
}

/// Run LOPO-CV on one machine's database and price every prediction.
///
/// Outcomes follow [`TrainingDb::canonical_order`] — the row order of
/// [`TrainingDb::to_dataset`] — which is the identity for the canonical
/// databases an [`EvalContext`] holds.
pub fn lopo_outcomes(
    db: &TrainingDb,
    model: &ModelConfig,
    feature_set: FeatureSet,
) -> Vec<PredictionOutcome> {
    let (mut data, space) = db.to_dataset(feature_set);
    for row in &mut data.x {
        *row = crate::predictor::log_compress(row);
    }
    let cv = leave_one_group_out(model, &data);
    db.canonical_order()
        .into_iter()
        .map(|i| &db.records[i])
        .zip(&cv.predictions)
        .map(|(r, &cls)| {
            // Same policy as `PartitionPredictor::predict_vec`: a class
            // outside the label space is a loud error, never a silent
            // substitution that would skew the evaluation numbers.
            let predicted = space.get(cls).cloned().unwrap_or_else(|| {
                panic!(
                    "CV predicted class {cls} outside the label space of {} partitions \
                     for {} (n = {})",
                    space.len(),
                    r.program,
                    r.size
                )
            });
            let predicted_time = r.sweep.time_of(&predicted).unwrap_or_else(|| {
                panic!(
                    "partition {predicted} was not priced in the sweep for {} (n = {}) — \
                     evaluation needs a database collected with SweepMode::Full, not Pruned",
                    r.program, r.size
                )
            });
            PredictionOutcome {
                program: r.program.clone(),
                size: r.size,
                predicted,
                oracle: r.best().partition.clone(),
                predicted_time,
                oracle_time: r.best().time,
                cpu_only_time: r.sweep.cpu_only_time(),
                gpu_only_time: r.sweep.gpu_only_time(),
            }
        })
        .collect()
}

/// Price the StarPU-style dynamic chunked scheduler
/// ([`hetpart_runtime::dynamic_schedule`], the paper's related-work
/// baseline) on every record of one machine's database. Returns simulated
/// times aligned with [`lopo_outcomes`] (canonical record order).
// Every record of `db` was collected from a program in `ctx.benchmarks`,
// and its launch already ran at this size during collection.
#[allow(clippy::expect_used)]
fn dynsched_record_times(
    ctx: &EvalContext,
    machine: &hetpart_oclsim::Machine,
    db: &TrainingDb,
) -> Vec<f64> {
    use hetpart_runtime::{dynamic_schedule, DynSchedConfig, Executor, Launch};
    use std::collections::HashMap;
    let executor = Executor {
        sample_items: ctx.cfg.sample_items,
        ..Executor::new(machine.clone())
    };
    // Compile each program once; records share kernels across sizes.
    let mut compiled: HashMap<&str, hetpart_inspire::CompiledKernel> = HashMap::new();
    db.canonical_order()
        .into_iter()
        .map(|i| &db.records[i])
        .map(|r| {
            let bench = ctx
                .benchmarks
                .iter()
                .find(|b| b.name == r.program)
                .expect("record program is in the suite");
            let kernel = compiled
                .entry(r.program.as_str())
                .or_insert_with(|| bench.compile_with_modes(ctx.cfg.opt_level, ctx.cfg.regalloc));
            let inst = bench.instance(r.size);
            let launch = Launch::new(kernel, inst.nd.clone(), inst.args.clone());
            dynamic_schedule(&executor, &launch, &inst.bufs, DynSchedConfig::default())
                .expect("dynamic schedule succeeds")
                .time
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------

/// One program's bar pair in Figure 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure1Row {
    pub program: String,
    /// Geometric-mean speedup of the predicted partitioning over CPU-only
    /// across the program's problem sizes.
    pub over_cpu: f64,
    /// … and over GPU-only.
    pub over_gpu: f64,
}

/// Figure 1 for one machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure1Machine {
    pub machine: String,
    pub rows: Vec<Figure1Row>,
    pub geomean_over_cpu: f64,
    pub geomean_over_gpu: f64,
    pub peak_over_cpu: f64,
    pub peak_over_gpu: f64,
    /// LOPO prediction accuracy (exact oracle-partition match).
    pub accuracy: f64,
    /// Geomean fraction of oracle performance achieved.
    pub oracle_fraction: f64,
    /// Related-work baseline row: geomean speedup of the dynamic chunked
    /// scheduler (StarPU-style, see [`hetpart_runtime::dynamic_schedule`])
    /// over CPU-only across all records of this machine.
    pub dynsched_over_cpu: f64,
    /// … and over GPU-only.
    pub dynsched_over_gpu: f64,
}

/// The complete Figure 1: both machines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure1 {
    pub machines: Vec<Figure1Machine>,
}

/// Reproduce Figure 1: per-program speedups of the ML-guided partitioning
/// over the CPU-only and GPU-only default strategies on each machine.
pub fn figure1(ctx: &EvalContext) -> Figure1 {
    let machines = ctx
        .cfg
        .machines
        .iter()
        .zip(&ctx.dbs)
        .map(|(machine, db)| {
            let outcomes = lopo_outcomes(db, &ctx.cfg.model, FeatureSet::Both);
            let dyn_times = dynsched_record_times(ctx, machine, db);
            figure1_for_machine(db, &outcomes, &dyn_times)
        })
        .collect();
    Figure1 { machines }
}

fn figure1_for_machine(
    db: &TrainingDb,
    outcomes: &[PredictionOutcome],
    dyn_times: &[f64],
) -> Figure1Machine {
    let mut rows: Vec<Figure1Row> = Vec::new();
    let mut programs: Vec<String> = Vec::new();
    for o in outcomes {
        if !programs.contains(&o.program) {
            programs.push(o.program.clone());
        }
    }
    let mut all_cpu: Vec<f64> = Vec::new();
    let mut all_gpu: Vec<f64> = Vec::new();
    let mut peak_cpu = 0.0f64;
    let mut peak_gpu = 0.0f64;
    for p in &programs {
        let per: Vec<&PredictionOutcome> = outcomes.iter().filter(|o| &o.program == p).collect();
        let cpu: Vec<f64> = per
            .iter()
            .map(|o| o.cpu_only_time / o.predicted_time)
            .collect();
        let gpu: Vec<f64> = per
            .iter()
            .map(|o| o.gpu_only_time / o.predicted_time)
            .collect();
        peak_cpu = peak_cpu.max(cpu.iter().copied().fold(0.0, f64::max));
        peak_gpu = peak_gpu.max(gpu.iter().copied().fold(0.0, f64::max));
        all_cpu.extend(&cpu);
        all_gpu.extend(&gpu);
        rows.push(Figure1Row {
            program: p.clone(),
            over_cpu: geometric_mean(&cpu),
            over_gpu: geometric_mean(&gpu),
        });
    }
    let hits = outcomes.iter().filter(|o| o.predicted == o.oracle).count();
    let fractions: Vec<f64> = outcomes
        .iter()
        .map(|o| o.oracle_time / o.predicted_time)
        .collect();
    let dyn_cpu: Vec<f64> = outcomes
        .iter()
        .zip(dyn_times)
        .map(|(o, &d)| o.cpu_only_time / d)
        .collect();
    let dyn_gpu: Vec<f64> = outcomes
        .iter()
        .zip(dyn_times)
        .map(|(o, &d)| o.gpu_only_time / d)
        .collect();
    Figure1Machine {
        machine: db.machine.clone(),
        rows,
        geomean_over_cpu: geometric_mean(&all_cpu),
        geomean_over_gpu: geometric_mean(&all_gpu),
        peak_over_cpu: peak_cpu,
        peak_over_gpu: peak_gpu,
        accuracy: hits as f64 / outcomes.len().max(1) as f64,
        oracle_fraction: geometric_mean(&fractions),
        dynsched_over_cpu: geometric_mean(&dyn_cpu),
        dynsched_over_gpu: geometric_mean(&dyn_gpu),
    }
}

impl Figure1 {
    /// Render the figure as ASCII bar charts, one block per machine.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Figure 1: speedup of the ML-guided task partitioning over CPU-only and\n\
             GPU-only execution, per program and target architecture.\n\n",
        );
        for m in &self.machines {
            let max = m.peak_over_cpu.max(m.peak_over_gpu).max(1.0);
            out.push_str(&format!("== machine {} ==\n", m.machine));
            out.push_str(&format!(
                "{} {} {} speedup bars (scale max {:.1}x)\n",
                cell("program", 18),
                cell("overCPU", 8),
                cell("overGPU", 8),
                max,
            ));
            out.push_str(&format!("{}\n", rule(76)));
            for r in &m.rows {
                out.push_str(&format!(
                    "{} {} {} C|{}\n{} {} {} G|{}\n",
                    cell(&r.program, 18),
                    num(r.over_cpu, 8),
                    cell("", 8),
                    bar(r.over_cpu, max, 38),
                    cell("", 18),
                    cell("", 8),
                    num(r.over_gpu, 8),
                    bar(r.over_gpu, max, 38),
                ));
            }
            out.push_str(&format!("{}\n", rule(76)));
            out.push_str(&format!(
                "{} {} {} C|{}\n{} {} {} G|{}\n",
                cell("dynsched (base)", 18),
                num(m.dynsched_over_cpu, 8),
                cell("", 8),
                bar(m.dynsched_over_cpu, max, 38),
                cell("", 18),
                cell("", 8),
                num(m.dynsched_over_gpu, 8),
                bar(m.dynsched_over_gpu, max, 38),
            ));
            out.push_str(&format!("{}\n", rule(76)));
            out.push_str(&format!(
                "geomean over CPU-only: {:.2}x   over GPU-only: {:.2}x\n",
                m.geomean_over_cpu, m.geomean_over_gpu
            ));
            out.push_str(&format!(
                "dynamic-scheduler baseline (StarPU-style): {:.2}x over CPU-only, \
                 {:.2}x over GPU-only\n",
                m.dynsched_over_cpu, m.dynsched_over_gpu
            ));
            out.push_str(&format!(
                "peak    over CPU-only: {:.1}x   over GPU-only: {:.1}x\n",
                m.peak_over_cpu, m.peak_over_gpu
            ));
            out.push_str(&format!(
                "prediction accuracy: {:.1}%   of-oracle performance: {:.1}%\n\n",
                m.accuracy * 100.0,
                m.oracle_fraction * 100.0
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Prose claim P1: default-strategy comparison
// ---------------------------------------------------------------------

/// Which default strategy wins per program on one machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefaultStrategyMachine {
    pub machine: String,
    /// Programs whose geomean CPU-only time beats GPU-only.
    pub cpu_wins: Vec<String>,
    pub gpu_wins: Vec<String>,
}

/// P1: "in almost all test cases, the CPU-only strategy delivers a higher
/// performance on mc1, while on mc2 the GPU-only strategy usually performs
/// better."
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefaultStrategyReport {
    pub machines: Vec<DefaultStrategyMachine>,
}

/// Compare the two default strategies per program per machine.
pub fn default_strategy_comparison(ctx: &EvalContext) -> DefaultStrategyReport {
    let machines = ctx
        .dbs
        .iter()
        .map(|db| {
            let mut cpu_wins = Vec::new();
            let mut gpu_wins = Vec::new();
            let mut programs: Vec<String> = Vec::new();
            for r in &db.records {
                if !programs.contains(&r.program) {
                    programs.push(r.program.clone());
                }
            }
            for p in &programs {
                // Compare at the program's largest measured size — the
                // representative "benchmark default" configuration.
                // `programs` lists only names taken from `db.records`.
                #[allow(clippy::expect_used)]
                let r = db
                    .records
                    .iter()
                    .filter(|r| &r.program == p)
                    .max_by_key(|r| r.size)
                    .expect("program has records");
                if r.sweep.gpu_only_time() > r.sweep.cpu_only_time() {
                    cpu_wins.push(p.clone());
                } else {
                    gpu_wins.push(p.clone());
                }
            }
            DefaultStrategyMachine {
                machine: db.machine.clone(),
                cpu_wins,
                gpu_wins,
            }
        })
        .collect();
    DefaultStrategyReport { machines }
}

impl DefaultStrategyReport {
    /// Render the per-machine winner counts.
    pub fn render(&self) -> String {
        let mut out = String::from("Default-strategy comparison (paper claim P1)\n");
        for m in &self.machines {
            out.push_str(&format!(
                "{}: CPU-only wins {} programs, GPU-only wins {}\n",
                m.machine,
                m.cpu_wins.len(),
                m.gpu_wins.len()
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Prose claim P2: the optimum depends on program, size, machine
// ---------------------------------------------------------------------

/// P2 statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleSensitivity {
    /// Distinct oracle partitionings across the whole database, per machine.
    pub distinct_best_per_machine: Vec<(String, usize)>,
    /// Fraction of programs whose oracle partitioning changes across their
    /// size ladder (per machine).
    pub size_sensitive_fraction: Vec<(String, f64)>,
    /// Fraction of (program, size) pairs whose oracle differs between the
    /// first two machines.
    pub cross_machine_disagreement: f64,
}

/// Measure how the oracle-optimal partitioning moves with program, size
/// and machine.
pub fn oracle_sensitivity(ctx: &EvalContext) -> OracleSensitivity {
    let mut distinct_best_per_machine = Vec::new();
    let mut size_sensitive_fraction = Vec::new();
    for db in &ctx.dbs {
        let mut all: Vec<Partition> = db
            .records
            .iter()
            .map(|r| r.best().partition.clone())
            .collect();
        all.sort();
        all.dedup();
        distinct_best_per_machine.push((db.machine.clone(), all.len()));

        let mut programs: Vec<String> = Vec::new();
        for r in &db.records {
            if !programs.contains(&r.program) {
                programs.push(r.program.clone());
            }
        }
        let sensitive = programs
            .iter()
            .filter(|p| {
                let mut bests: Vec<Partition> = db
                    .records
                    .iter()
                    .filter(|r| &r.program == *p)
                    .map(|r| r.best().partition.clone())
                    .collect();
                bests.sort();
                bests.dedup();
                bests.len() > 1
            })
            .count();
        size_sensitive_fraction.push((
            db.machine.clone(),
            sensitive as f64 / programs.len().max(1) as f64,
        ));
    }

    let cross_machine_disagreement = if ctx.dbs.len() >= 2 {
        let a = &ctx.dbs[0];
        let b = &ctx.dbs[1];
        let mut total = 0usize;
        let mut differ = 0usize;
        for ra in &a.records {
            if let Some(rb) = b
                .records
                .iter()
                .find(|r| r.program == ra.program && r.size == ra.size)
            {
                total += 1;
                if rb.best().partition != ra.best().partition {
                    differ += 1;
                }
            }
        }
        differ as f64 / total.max(1) as f64
    } else {
        0.0
    };

    OracleSensitivity {
        distinct_best_per_machine,
        size_sensitive_fraction,
        cross_machine_disagreement,
    }
}

impl OracleSensitivity {
    /// Render the sensitivity statistics.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Oracle sensitivity (paper claim P2: the best partitioning depends on\n\
             program, problem size and machine)\n",
        );
        for (m, d) in &self.distinct_best_per_machine {
            out.push_str(&format!("{m}: {d} distinct oracle partitionings\n"));
        }
        for (m, f) in &self.size_sensitive_fraction {
            out.push_str(&format!(
                "{m}: {:.0}% of programs change their optimum with problem size\n",
                f * 100.0
            ));
        }
        out.push_str(&format!(
            "cross-machine: {:.0}% of (program, size) pairs have different optima\n",
            self.cross_machine_disagreement * 100.0
        ));
        out
    }
}

// ---------------------------------------------------------------------
// Extension E1: model comparison
// ---------------------------------------------------------------------

/// One row of the model-comparison table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelRow {
    pub model: String,
    /// Mean LOPO accuracy over machines.
    pub accuracy: f64,
    /// Geomean fraction of oracle performance.
    pub oracle_fraction: f64,
    pub speedup_over_cpu: f64,
    pub speedup_over_gpu: f64,
}

/// E1: the "machine learning approach" ablated over model families.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelComparison {
    pub rows: Vec<ModelRow>,
}

/// Compare all model families under LOPO-CV on every machine, plus the
/// model-free related-work baseline (the StarPU-style dynamic scheduler)
/// as the final row.
pub fn model_comparison(ctx: &EvalContext) -> ModelComparison {
    let mut rows: Vec<ModelRow> = ModelConfig::all_defaults()
        .into_iter()
        .map(|model| summarize_model(ctx, &model, FeatureSet::Both, model.name().to_string()))
        .collect();
    rows.push(dynsched_row(ctx));
    ModelComparison { rows }
}

/// The dynamic-scheduler baseline as a [`ModelRow`]: it predicts no
/// partitioning (accuracy is reported as 0), but its simulated times slot
/// into the same oracle-fraction and speedup columns, which is what the
/// paper's related-work comparison needs.
fn dynsched_row(ctx: &EvalContext) -> ModelRow {
    let mut fractions = Vec::new();
    let mut over_cpu = Vec::new();
    let mut over_gpu = Vec::new();
    for (machine, db) in ctx.cfg.machines.iter().zip(&ctx.dbs) {
        let times = dynsched_record_times(ctx, machine, db);
        let ordered = db.canonical_order().into_iter().map(|i| &db.records[i]);
        for (r, &t) in ordered.zip(&times) {
            fractions.push(r.best().time / t);
            over_cpu.push(r.sweep.cpu_only_time() / t);
            over_gpu.push(r.sweep.gpu_only_time() / t);
        }
    }
    ModelRow {
        model: "dynsched (baseline)".to_string(),
        accuracy: 0.0,
        oracle_fraction: geometric_mean(&fractions),
        speedup_over_cpu: geometric_mean(&over_cpu),
        speedup_over_gpu: geometric_mean(&over_gpu),
    }
}

fn summarize_model(
    ctx: &EvalContext,
    model: &ModelConfig,
    fs: FeatureSet,
    label: String,
) -> ModelRow {
    let mut hits = 0usize;
    let mut total = 0usize;
    let mut fractions = Vec::new();
    let mut over_cpu = Vec::new();
    let mut over_gpu = Vec::new();
    for db in &ctx.dbs {
        for o in lopo_outcomes(db, model, fs) {
            total += 1;
            if o.predicted == o.oracle {
                hits += 1;
            }
            fractions.push(o.oracle_time / o.predicted_time);
            over_cpu.push(o.cpu_only_time / o.predicted_time);
            over_gpu.push(o.gpu_only_time / o.predicted_time);
        }
    }
    ModelRow {
        model: label,
        accuracy: hits as f64 / total.max(1) as f64,
        oracle_fraction: geometric_mean(&fractions),
        speedup_over_cpu: geometric_mean(&over_cpu),
        speedup_over_gpu: geometric_mean(&over_gpu),
    }
}

impl ModelComparison {
    /// Render the comparison table.
    pub fn render(&self) -> String {
        let mut out = String::from("Model comparison (E1), leave-one-program-out\n");
        out.push_str(&format!(
            "{} {} {} {} {}\n{}\n",
            cell("model", 16),
            cell("acc%", 7),
            cell("oracle%", 8),
            cell("vs CPU", 7),
            cell("vs GPU", 7),
            rule(48)
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{} {} {} {} {}\n",
                cell(&r.model, 16),
                num(r.accuracy * 100.0, 7),
                num(r.oracle_fraction * 100.0, 8),
                num(r.speedup_over_cpu, 7),
                num(r.speedup_over_gpu, 7),
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Extension E2: feature ablation
// ---------------------------------------------------------------------

/// E2: static-only vs runtime-only vs both — the paper's central design
/// claim is that problem-size-dependent features are required.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureAblation {
    pub rows: Vec<ModelRow>,
}

/// Run the feature ablation with the configured model.
pub fn feature_ablation(ctx: &EvalContext) -> FeatureAblation {
    let rows = [
        FeatureSet::StaticOnly,
        FeatureSet::RuntimeOnly,
        FeatureSet::Both,
    ]
    .into_iter()
    .map(|fs| summarize_model(ctx, &ctx.cfg.model, fs, fs.label().to_string()))
    .collect();
    FeatureAblation { rows }
}

impl FeatureAblation {
    /// Render the ablation table.
    pub fn render(&self) -> String {
        let mut out = String::from("Feature ablation (E2), leave-one-program-out\n");
        out.push_str(&format!(
            "{} {} {} {} {}\n{}\n",
            cell("features", 18),
            cell("acc%", 7),
            cell("oracle%", 8),
            cell("vs CPU", 7),
            cell("vs GPU", 7),
            rule(50)
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{} {} {} {} {}\n",
                cell(&r.model, 18),
                num(r.accuracy * 100.0, 7),
                num(r.oracle_fraction * 100.0, 8),
                num(r.speedup_over_cpu, 7),
                num(r.speedup_over_gpu, 7),
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Extension E3: partition-space step sensitivity
// ---------------------------------------------------------------------

/// E3: how much oracle performance a coarser partition space loses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepSensitivity {
    /// (step in tenths, space size, geomean oracle slowdown vs the finest
    /// measured space).
    pub rows: Vec<(u8, usize, f64)>,
}

/// Evaluate coarser partition-space discretizations by restricting each
/// record's sweep to partitions whose shares are multiples of the step.
pub fn step_sensitivity(ctx: &EvalContext) -> StepSensitivity {
    let steps: &[u8] = &[1, 2, 5, 10];
    let base_step = ctx.cfg.step_tenths;
    let rows = steps
        .iter()
        .filter(|&&s| s >= base_step && s % base_step == 0)
        .map(|&step| {
            let mut ratios = Vec::new();
            let mut space_size = 0usize;
            for db in &ctx.dbs {
                for r in &db.records {
                    let fine_best = r.best().time;
                    let coarse_best = r
                        .sweep
                        .entries
                        .iter()
                        .filter(|e| e.partition.shares().iter().all(|&sh| sh % step == 0))
                        .map(|e| e.time)
                        .fold(f64::INFINITY, f64::min);
                    space_size = space_size.max(
                        r.sweep
                            .entries
                            .iter()
                            .filter(|e| e.partition.shares().iter().all(|&sh| sh % step == 0))
                            .count(),
                    );
                    ratios.push(coarse_best / fine_best);
                }
            }
            (step, space_size, geometric_mean(&ratios))
        })
        .collect();
    StepSensitivity { rows }
}

impl StepSensitivity {
    /// Render the step-sensitivity table.
    pub fn render(&self) -> String {
        let mut out = String::from("Partition-space step sensitivity (E3)\n");
        out.push_str(&format!(
            "{} {} {}\n{}\n",
            cell("step", 6),
            cell("space", 7),
            cell("oracle slowdown", 16),
            rule(30)
        ));
        for (step, size, slow) in &self.rows {
            out.push_str(&format!(
                "{} {} {}x\n",
                cell(&format!("{}0%", step), 6),
                cell(&size.to_string(), 7),
                num(*slow, 8),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> EvalContext {
        static CTX: std::sync::OnceLock<EvalContext> = std::sync::OnceLock::new();
        CTX.get_or_init(build_tiny_ctx).clone()
    }

    fn build_tiny_ctx() -> EvalContext {
        let benches: Vec<Benchmark> = hetpart_suite::all()
            .into_iter()
            .filter(|b| {
                ["vec_add", "nbody", "blackscholes", "mandelbrot", "sgemm"].contains(&b.name)
            })
            .collect();
        let cfg = HarnessConfig {
            sizes_per_benchmark: 2,
            sample_items: 32,
            step_tenths: 5,
            model: hetpart_ml::ModelConfig::Knn { k: 3 },
            ..HarnessConfig::quick()
        };
        EvalContext::build(cfg, benches)
    }

    #[test]
    fn figure1_has_rows_for_every_program_and_machine() {
        let ctx = tiny_ctx();
        let fig = figure1(&ctx);
        assert_eq!(fig.machines.len(), 2);
        for m in &fig.machines {
            assert_eq!(m.rows.len(), 5);
            assert!(m.geomean_over_cpu.is_finite() && m.geomean_over_cpu > 0.0);
            assert!(m.peak_over_gpu >= m.geomean_over_gpu);
            assert!((0.0..=1.0).contains(&m.accuracy));
            assert!(m.oracle_fraction <= 1.0 + 1e-9);
        }
        let txt = fig.render();
        assert!(txt.contains("mc1") && txt.contains("mc2"));
        assert!(txt.contains("vec_add"));
    }

    #[test]
    fn oracle_never_loses_to_predictions_or_defaults() {
        let ctx = tiny_ctx();
        for db in &ctx.dbs {
            for o in lopo_outcomes(db, &ctx.cfg.model, FeatureSet::Both) {
                assert!(o.oracle_time <= o.predicted_time + 1e-12);
                assert!(o.oracle_time <= o.cpu_only_time + 1e-12);
                assert!(o.oracle_time <= o.gpu_only_time + 1e-12);
            }
        }
    }

    #[test]
    fn default_strategy_report_covers_all_programs() {
        let ctx = tiny_ctx();
        let rep = default_strategy_comparison(&ctx);
        for m in &rep.machines {
            assert_eq!(m.cpu_wins.len() + m.gpu_wins.len(), 5);
        }
        assert!(rep.render().contains("CPU-only wins"));
    }

    #[test]
    fn oracle_sensitivity_statistics_are_sane() {
        let ctx = tiny_ctx();
        let s = oracle_sensitivity(&ctx);
        assert_eq!(s.distinct_best_per_machine.len(), 2);
        for (_, d) in &s.distinct_best_per_machine {
            assert!(*d >= 1);
        }
        assert!((0.0..=1.0).contains(&s.cross_machine_disagreement));
        assert!(s.render().contains("distinct oracle partitionings"));
    }

    #[test]
    fn step_sensitivity_is_monotone() {
        let ctx = tiny_ctx();
        let s = step_sensitivity(&ctx);
        // Steps 5 and 10 are available from a step-5 context.
        assert_eq!(s.rows.len(), 2);
        let mut prev = 1.0 - 1e-12;
        for (_, _, slow) in &s.rows {
            assert!(
                *slow >= prev,
                "coarser spaces cannot be faster: {slow} < {prev}"
            );
            prev = *slow;
        }
        assert!(s.render().contains("oracle slowdown"));
    }

    #[test]
    fn scheduler_comparison_reports_each_machine() {
        let ctx = tiny_ctx();
        let sc = scheduler_comparison(&ctx);
        assert_eq!(sc.rows.len(), 2);
        for r in &sc.rows {
            assert!(r.dynamic_over_oracle >= 0.99, "oracle cannot lose: {r:?}");
            assert!((0.0..=1.0).contains(&r.predicted_win_rate));
            assert!(r.dynamic_over_predicted.is_finite());
        }
        assert!(sc.render().contains("dyn/pred"));
    }

    #[test]
    fn feature_importance_ranks_every_feature() {
        let ctx = tiny_ctx();
        let rep = feature_importance(&ctx);
        assert_eq!(rep.per_machine.len(), 2);
        for (_, imp) in &rep.per_machine {
            assert_eq!(
                imp.len(),
                hetpart_inspire::features::STATIC_FEATURE_DIM
                    + hetpart_runtime::RUNTIME_FEATURE_DIM
            );
            // Sorted descending.
            for w in imp.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
        }
        assert!(rep.render().contains("top 8"));
    }

    #[test]
    fn figure1_includes_dynsched_baseline() {
        let ctx = tiny_ctx();
        let fig = figure1(&ctx);
        for m in &fig.machines {
            assert!(
                m.dynsched_over_cpu.is_finite() && m.dynsched_over_cpu > 0.0,
                "dynsched baseline must be priced: {m:?}"
            );
            assert!(m.dynsched_over_gpu.is_finite() && m.dynsched_over_gpu > 0.0);
        }
        let txt = fig.render();
        assert!(txt.contains("dynsched"), "baseline row must render");
    }

    #[test]
    fn model_comparison_ends_with_dynsched_baseline_row() {
        let ctx = tiny_ctx();
        let mc = model_comparison(&ctx);
        assert_eq!(
            mc.rows.len(),
            hetpart_ml::ModelConfig::all_defaults().len() + 1
        );
        let base = mc.rows.last().unwrap();
        assert_eq!(base.model, "dynsched (baseline)");
        // The model-free baseline cannot beat the oracle.
        assert!(base.oracle_fraction > 0.0 && base.oracle_fraction <= 1.0 + 1e-9);
        assert!(base.speedup_over_cpu.is_finite());
        assert!(mc.render().contains("dynsched (baseline)"));
    }

    #[test]
    fn feature_ablation_produces_three_rows() {
        let ctx = tiny_ctx();
        let a = feature_ablation(&ctx);
        assert_eq!(a.rows.len(), 3);
        for r in &a.rows {
            assert!(r.oracle_fraction > 0.0 && r.oracle_fraction <= 1.0 + 1e-9);
        }
        assert!(a.render().contains("static + runtime"));
    }
}

// ---------------------------------------------------------------------
// Extension E4: dynamic-scheduler baseline
// ---------------------------------------------------------------------

/// E4: the model-free alternative — a StarPU-style dynamic chunked
/// scheduler — versus the paper's offline-trained static prediction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerComparison {
    /// One row per machine.
    pub rows: Vec<SchedulerRow>,
}

/// Per-machine summary of the scheduler comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerRow {
    pub machine: String,
    /// Geomean of (dynamic time / ML-predicted time): > 1 means the
    /// trained model wins.
    pub dynamic_over_predicted: f64,
    /// Geomean of (dynamic time / oracle time).
    pub dynamic_over_oracle: f64,
    /// Fraction of (program, size) records where the ML prediction beats
    /// the dynamic scheduler.
    pub predicted_win_rate: f64,
}

/// Compare the LOPO-predicted static partitioning against the dynamic
/// chunked scheduler on every (program, size) record.
pub fn scheduler_comparison(ctx: &EvalContext) -> SchedulerComparison {
    let rows = ctx
        .cfg
        .machines
        .iter()
        .zip(&ctx.dbs)
        .map(|(machine, db)| {
            let outcomes = lopo_outcomes(db, &ctx.cfg.model, FeatureSet::Both);
            // Outcomes align with db.records, and so do the baseline times.
            let dyn_times = dynsched_record_times(ctx, machine, db);
            let mut ratios_pred = Vec::new();
            let mut ratios_oracle = Vec::new();
            let mut wins = 0usize;
            for (o, &dynamic) in outcomes.iter().zip(&dyn_times) {
                ratios_pred.push(dynamic / o.predicted_time);
                ratios_oracle.push(dynamic / o.oracle_time);
                if o.predicted_time < dynamic {
                    wins += 1;
                }
            }
            SchedulerRow {
                machine: db.machine.clone(),
                dynamic_over_predicted: geometric_mean(&ratios_pred),
                dynamic_over_oracle: geometric_mean(&ratios_oracle),
                predicted_win_rate: wins as f64 / outcomes.len().max(1) as f64,
            }
        })
        .collect();
    SchedulerComparison { rows }
}

impl SchedulerComparison {
    /// Render the comparison table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Dynamic-scheduler baseline (E4): StarPU-style chunked EFT scheduling\n\
             vs the offline-trained static prediction\n",
        );
        out.push_str(&format!(
            "{} {} {} {}\n{}\n",
            cell("machine", 9),
            cell("dyn/pred", 9),
            cell("dyn/oracle", 11),
            cell("pred wins", 10),
            rule(42)
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{} {} {} {}%\n",
                cell(&r.machine, 9),
                num(r.dynamic_over_predicted, 9),
                num(r.dynamic_over_oracle, 11),
                num(r.predicted_win_rate * 100.0, 9),
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Extension E5: which features drive the prediction
// ---------------------------------------------------------------------

/// E5: permutation importance of every feature, per machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureImportanceReport {
    /// Per machine: (feature, importance), sorted descending.
    pub per_machine: Vec<(String, Vec<(String, f64)>)>,
}

/// Fit the configured model on each machine's full database and rank the
/// features by permutation importance.
pub fn feature_importance(ctx: &EvalContext) -> FeatureImportanceReport {
    use hetpart_ml::{permutation_importance, Pipeline};
    let per_machine = ctx
        .dbs
        .iter()
        .map(|db| {
            let (mut data, space) = db.to_dataset(FeatureSet::Both);
            for row in &mut data.x {
                *row = crate::predictor::log_compress(row);
            }
            let pipe = Pipeline::fit(&ctx.cfg.model, &data.x, &data.y, space.len());
            let imp = permutation_importance(&pipe, &data, 3, ctx.cfg.seed);
            (
                db.machine.clone(),
                imp.into_iter().map(|f| (f.feature, f.importance)).collect(),
            )
        })
        .collect();
    FeatureImportanceReport { per_machine }
}

impl FeatureImportanceReport {
    /// Render the top-8 features per machine.
    pub fn render(&self) -> String {
        let mut out = String::from("Feature importance (E5), permutation method, top 8\n");
        for (machine, imp) in &self.per_machine {
            out.push_str(&format!("-- {machine} --\n"));
            for (name, v) in imp.iter().take(8) {
                out.push_str(&format!("{} {}\n", cell(name, 28), num(v * 100.0, 7)));
            }
        }
        out
    }
}
