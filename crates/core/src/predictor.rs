//! The trained partition predictor and the deployment-phase framework.

use std::fmt;

use hetpart_inspire::ir::NdRange;
use hetpart_inspire::vm::{ArgValue, BufferData};
use hetpart_inspire::{CompiledKernel, VmError};
use hetpart_ml::{ModelConfig, Pipeline};
use hetpart_runtime::{
    runtime_features, ExecPlan, ExecutionReport, Executor, Launch, LaunchError, Partition,
    RuntimeFeatures,
};
use serde::{Deserialize, Serialize};

use crate::db::{DbError, FeatureSet, ShardedDb, TrainingDb};

/// Why a prediction could not be made. Every variant used to be a silent
/// wrong answer: an out-of-range class was clamped to the last label, an
/// empty label space underflow-panicked, and a feature vector of the wrong
/// dimension was fed straight into the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// The predictor has no labels to map classes onto.
    EmptyLabelSpace,
    /// The pipeline was fitted for a different number of classes than the
    /// label space holds — a prediction could index past the labels or
    /// never reach some of them.
    ClassCountMismatch { model_classes: usize, labels: usize },
    /// The input feature vector does not match the dimension the pipeline
    /// was fitted on (wrong feature set, foreign database, …).
    FeatureDimMismatch { expected: usize, got: usize },
    /// The model produced a class index outside the label space.
    ClassOutOfRange { class: usize, labels: usize },
    /// The label space predicts partitions for a different device count
    /// than the machine the framework deploys on.
    ArityMismatch {
        partition_devices: usize,
        machine_devices: usize,
    },
    /// The predictor was trained on a different machine than the one it is
    /// deploying on — its label space and learned boundaries are
    /// meaningless there.
    MachineMismatch {
        trained_on: String,
        deploying_on: String,
    },
    /// The deployment machine has the training machine's *name* but
    /// different hardware — the device profiles changed since training.
    MachineFingerprintMismatch {
        machine: String,
        trained: u64,
        deployed: u64,
    },
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::EmptyLabelSpace => write!(f, "predictor has an empty label space"),
            PredictError::ClassCountMismatch {
                model_classes,
                labels,
            } => write!(
                f,
                "pipeline was fitted for {model_classes} classes but the label space has {labels}"
            ),
            PredictError::FeatureDimMismatch { expected, got } => write!(
                f,
                "feature vector has {got} entries but the predictor was trained on {expected}"
            ),
            PredictError::ClassOutOfRange { class, labels } => write!(
                f,
                "model predicted class {class} outside the label space of {labels} partitions"
            ),
            PredictError::ArityMismatch {
                partition_devices,
                machine_devices,
            } => write!(
                f,
                "label space predicts partitions for {partition_devices} devices but the machine \
                 has {machine_devices}"
            ),
            PredictError::MachineMismatch {
                trained_on,
                deploying_on,
            } => write!(
                f,
                "predictor was trained on machine `{trained_on}` but is deploying on \
                 `{deploying_on}` — retrain on the deployment machine (or load its predictor)"
            ),
            PredictError::MachineFingerprintMismatch {
                machine,
                trained,
                deployed,
            } => write!(
                f,
                "predictor was trained on a machine named `{machine}` with hardware fingerprint \
                 {trained:#018x}, but this `{machine}` fingerprints as {deployed:#018x} — the \
                 device profiles changed since training; retrain on the current profile"
            ),
        }
    }
}

impl std::error::Error for PredictError {}

/// A deployment-phase failure: the launch itself failed in the VM, the
/// predictor refused the inputs, a device faulted, or the serving layer
/// refused / lost the job (overload, shutdown, worker panic).
#[derive(Debug, Clone, PartialEq)]
pub enum DeployError {
    Vm(VmError),
    Predict(PredictError),
    /// A service worker panicked while handling the launch; the payload
    /// message is preserved so the client sees the cause instead of a
    /// hung ticket.
    Worker(String),
    /// A device failed during the launch and the service could not route
    /// around it (retries exhausted and no surviving devices to re-plan
    /// onto). `permanent` distinguishes a dead device from a transient
    /// execution fault; `device_name` is the registry (profile) name of
    /// the faulty device.
    Fault {
        device: usize,
        device_name: String,
        permanent: bool,
    },
    /// Admission control refused the launch: the queue held `depth` jobs,
    /// at or above the configured bound (and stayed there past the
    /// admission deadline under a blocking policy).
    Overloaded {
        depth: usize,
    },
    /// The job was shed after admission: the service shut down (or hit its
    /// drain deadline) before a worker picked the job up.
    Shed,
    /// The service could not be brought up (worker thread spawn failed or
    /// the configuration is invalid).
    Config(String),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Vm(e) => write!(f, "launch failed: {e}"),
            DeployError::Predict(e) => write!(f, "prediction failed: {e}"),
            DeployError::Worker(msg) => write!(f, "service worker panicked: {msg}"),
            DeployError::Fault {
                device,
                device_name,
                permanent,
            } => {
                let kind = if *permanent { "died" } else { "faulted" };
                write!(
                    f,
                    "device {device} (`{device_name}`) {kind} and the launch could not be re-planned"
                )
            }
            DeployError::Overloaded { depth } => {
                write!(
                    f,
                    "service overloaded: {depth} jobs queued, submission shed"
                )
            }
            DeployError::Shed => write!(f, "job shed before execution (service shutting down)"),
            DeployError::Config(msg) => write!(f, "service configuration rejected: {msg}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<VmError> for DeployError {
    fn from(e: VmError) -> Self {
        DeployError::Vm(e)
    }
}

impl From<PredictError> for DeployError {
    fn from(e: PredictError) -> Self {
        DeployError::Predict(e)
    }
}

impl From<LaunchError> for DeployError {
    fn from(e: LaunchError) -> Self {
        match e {
            LaunchError::Vm(e) => DeployError::Vm(e),
            LaunchError::DeviceFault {
                device,
                device_name,
                permanent,
            } => DeployError::Fault {
                device: device.0,
                device_name,
                permanent,
            },
            // The NDRange is part of the launch's arguments, and the plan
            // was built for others.
            e @ LaunchError::StalePlan { .. } => {
                DeployError::Vm(VmError::ArgumentMismatch(e.to_string()))
            }
        }
    }
}

/// Compress heavy-tailed count features (`items`, bytes, op counts span
/// six orders of magnitude) before scaling: `x -> ln(1 + x)`. Applied
/// symmetrically at training and prediction time.
pub fn log_compress(features: &[f64]) -> Vec<f64> {
    features.iter().map(|&x| (1.0 + x.max(0.0)).ln()).collect()
}

/// The offline-generated prediction model: maps a feature vector to a
/// task partitioning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionPredictor {
    /// Registry name of the machine the training measurements were taken
    /// on. A predictor only deploys on that machine.
    pub machine: String,
    /// Hardware fingerprint ([`hetpart_oclsim::Machine::fingerprint`]) of
    /// the training machine — catches a machine whose device profiles
    /// changed under an unchanged name.
    pub machine_fingerprint: u64,
    /// Dense class → partitioning mapping.
    pub label_space: Vec<Partition>,
    pub pipeline: Pipeline,
    pub feature_set: FeatureSet,
    /// Input dimension the pipeline was fitted on; every prediction input
    /// is validated against it.
    pub feature_dim: usize,
}

impl PartitionPredictor {
    /// Assemble a predictor, validating that the pieces agree: the label
    /// space must be non-empty and exactly as large as the class count the
    /// pipeline was fitted for. A mismatch used to surface only as a
    /// silently clamped (wrong) partition at predict time.
    pub fn new(
        machine: String,
        machine_fingerprint: u64,
        label_space: Vec<Partition>,
        pipeline: Pipeline,
        feature_set: FeatureSet,
        feature_dim: usize,
    ) -> Result<Self, PredictError> {
        if label_space.is_empty() {
            return Err(PredictError::EmptyLabelSpace);
        }
        let model_classes = pipeline.n_classes();
        if model_classes != label_space.len() {
            return Err(PredictError::ClassCountMismatch {
                model_classes,
                labels: label_space.len(),
            });
        }
        Ok(Self {
            machine,
            machine_fingerprint,
            label_space,
            pipeline,
            feature_set,
            feature_dim,
        })
    }

    /// Train on a database with the given model family and feature set.
    ///
    /// # Panics
    /// Panics on an empty database.
    // The pipeline is fitted on `db`'s own dataset, so its label space and
    // feature width agree with what `Self::new` checks.
    #[allow(clippy::expect_used)]
    pub fn train(db: &TrainingDb, model: &ModelConfig, feature_set: FeatureSet) -> Self {
        let (data, label_space) = db.to_dataset(feature_set);
        assert!(
            !data.is_empty(),
            "cannot train a predictor on an empty database"
        );
        let feature_dim = data.dim();
        let x: Vec<Vec<f64>> = data.x.iter().map(|r| log_compress(r)).collect();
        let pipeline = Pipeline::fit(model, &x, &data.y, label_space.len());
        Self::new(
            db.machine.clone(),
            db.machine_fingerprint,
            label_space,
            pipeline,
            feature_set,
            feature_dim,
        )
        .expect("a pipeline fitted on its own dataset is consistent")
    }

    /// Train on the merged view of one or more shard stores (collected by
    /// different processes, or a single resumable run). The merged
    /// database is canonical, so the resulting predictor is bit-identical
    /// to [`PartitionPredictor::train`] on a monolithic collection of the
    /// same measurements, regardless of shard order.
    pub fn train_from_shards(
        shards: &[&ShardedDb],
        model: &ModelConfig,
        feature_set: FeatureSet,
    ) -> Result<Self, DbError> {
        let db = ShardedDb::merge(shards)?;
        Ok(Self::train(&db, model, feature_set))
    }

    /// Predict a partitioning from a raw feature vector (already matching
    /// this predictor's feature set).
    ///
    /// Fails with a named [`PredictError`] instead of returning a
    /// plausible-but-wrong partition: the input dimension is checked
    /// against the fitted dimension, and a class index outside the label
    /// space is an error, not a clamp.
    pub fn predict_vec(&self, features: &[f64]) -> Result<Partition, PredictError> {
        if self.label_space.is_empty() {
            return Err(PredictError::EmptyLabelSpace);
        }
        if features.len() != self.feature_dim {
            return Err(PredictError::FeatureDimMismatch {
                expected: self.feature_dim,
                got: features.len(),
            });
        }
        let class = self.pipeline.predict(&log_compress(features));
        self.label_space
            .get(class)
            .cloned()
            .ok_or(PredictError::ClassOutOfRange {
                class,
                labels: self.label_space.len(),
            })
    }

    /// Predict from a compiled kernel's static features plus collected
    /// runtime features.
    pub fn predict(
        &self,
        kernel: &CompiledKernel,
        rt: &RuntimeFeatures,
    ) -> Result<Partition, PredictError> {
        let features = match self.feature_set {
            FeatureSet::StaticOnly => kernel.static_features.to_vec(),
            FeatureSet::RuntimeOnly => rt.to_vec(),
            FeatureSet::Both => {
                let mut v = kernel.static_features.to_vec();
                v.extend(rt.to_vec());
                v
            }
        };
        self.predict_vec(&features)
    }
}

/// The deployed system: executor + trained predictor. Mirrors the paper's
/// deployment phase — when a (new) program is launched, its static
/// features and freshly collected runtime features are fed to the model,
/// and the launch runs with the predicted partitioning.
#[derive(Debug, Clone)]
pub struct Framework {
    pub executor: Executor,
    pub predictor: PartitionPredictor,
}

/// Everything the deployment phase derives from one probe of a launch:
/// the predicted partitioning plus the pre-computed execution plan
/// (per-chunk transfer sizes, divergence estimate). The serve layer's
/// prediction cache stores these so repeat launches skip probe sampling,
/// model inference and access analysis entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchPlan {
    pub partition: Partition,
    pub exec: ExecPlan,
}

impl Framework {
    /// Check that this predictor can deploy on this executor's machine:
    /// every label-space partition must address exactly the machine's
    /// device count, and the machine must be the one the predictor was
    /// trained on — same registry name *and* same hardware fingerprint.
    /// Run it once at service start-up — a mismatch would otherwise panic
    /// deep inside the executor on the first launch, or silently deploy a
    /// model whose learned boundaries are meaningless on this hardware.
    pub fn validate(&self) -> Result<(), PredictError> {
        let machine = &self.executor.machine;
        let machine_devices = machine.num_devices();
        for p in &self.predictor.label_space {
            if p.num_devices() != machine_devices {
                return Err(PredictError::ArityMismatch {
                    partition_devices: p.num_devices(),
                    machine_devices,
                });
            }
        }
        if self.predictor.label_space.is_empty() {
            return Err(PredictError::EmptyLabelSpace);
        }
        if self.predictor.machine != machine.name {
            return Err(PredictError::MachineMismatch {
                trained_on: self.predictor.machine.clone(),
                deploying_on: machine.name.clone(),
            });
        }
        let deployed = machine.fingerprint();
        if self.predictor.machine_fingerprint != deployed {
            return Err(PredictError::MachineFingerprintMismatch {
                machine: machine.name.clone(),
                trained: self.predictor.machine_fingerprint,
                deployed,
            });
        }
        Ok(())
    }

    /// Predict the partitioning for a launch without executing it.
    pub fn plan(
        &self,
        kernel: &CompiledKernel,
        nd: &NdRange,
        args: &[ArgValue],
        bufs: &[BufferData],
    ) -> Result<Partition, DeployError> {
        let rt = runtime_features(kernel, nd, args, bufs, self.executor.sample_items)?;
        Ok(self.predictor.predict(kernel, &rt)?)
    }

    /// The full planning phase of one launch: probe runtime features,
    /// predict the partitioning, and pre-compute the execution plan.
    /// This is the expensive, cacheable half of [`Framework::run_auto`];
    /// [`Framework::execute_planned`] is the cheap, repeatable half.
    pub fn prepare(
        &self,
        kernel: &CompiledKernel,
        nd: &NdRange,
        args: &[ArgValue],
        bufs: &[BufferData],
    ) -> Result<LaunchPlan, DeployError> {
        let rt = runtime_features(kernel, nd, args, bufs, self.executor.sample_items)?;
        let partition = self.predictor.predict(kernel, &rt)?;
        let launch = Launch::new(kernel, nd.clone(), args.to_vec());
        let exec = self
            .executor
            .plan_execution(&launch, bufs, &partition, rt.divergence);
        Ok(LaunchPlan { partition, exec })
    }

    /// Execute a launch under a pre-computed [`LaunchPlan`]: only the
    /// kernel work runs — no probe, no inference, no access analysis.
    /// Outputs are bit-identical to [`Framework::run_auto`] with the same
    /// predicted partition. Injected device faults surface as
    /// [`DeployError::Fault`].
    pub fn execute_planned(
        &self,
        kernel: &CompiledKernel,
        nd: &NdRange,
        args: &[ArgValue],
        bufs: &mut [BufferData],
        plan: &LaunchPlan,
    ) -> Result<ExecutionReport, DeployError> {
        let launch = Launch::new(kernel, nd.clone(), args.to_vec());
        Ok(self.executor.run_planned(&launch, bufs, &plan.exec)?)
    }

    /// Re-derive a degraded [`LaunchPlan`] that avoids the given devices,
    /// redistributing their share of the base plan's partition
    /// proportionally across the survivors (CPU-only as the last resort).
    /// Returns `None` when every device is avoided — there is nowhere
    /// left to run. The divergence estimate of the base plan is reused so
    /// no fresh probe is needed on the degraded path.
    pub fn replan_excluding(
        &self,
        kernel: &CompiledKernel,
        nd: &NdRange,
        args: &[ArgValue],
        bufs: &[BufferData],
        base: &LaunchPlan,
        avoid: &[usize],
    ) -> Option<LaunchPlan> {
        let partition = base.partition.excluding(avoid)?;
        if partition == base.partition {
            return Some(base.clone());
        }
        let launch = Launch::new(kernel, nd.clone(), args.to_vec());
        let exec = self
            .executor
            .plan_execution(&launch, bufs, &partition, base.exec.divergence);
        Some(LaunchPlan { partition, exec })
    }

    /// Plan and execute: returns the chosen partitioning and the full
    /// execution report; output buffers receive the kernel results.
    pub fn run_auto(
        &self,
        kernel: &CompiledKernel,
        nd: &NdRange,
        args: &[ArgValue],
        bufs: &mut [BufferData],
    ) -> Result<(Partition, ExecutionReport), DeployError> {
        let partition = self.plan(kernel, nd, args, bufs)?;
        let launch = Launch::new(kernel, nd.clone(), args.to_vec());
        let report = self.executor.run(&launch, bufs, &partition)?;
        Ok((partition, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HarnessConfig;
    use crate::train::collect_training_db;
    use hetpart_ml::TreeConfig;
    use hetpart_oclsim::machines;

    #[test]
    fn stale_plans_surface_as_an_argument_mismatch() {
        use hetpart_inspire::NdRange;
        let e = LaunchError::StalePlan {
            planned: NdRange::d1(8),
            launched: NdRange::d1(4),
        };
        let msg = e.to_string();
        assert_eq!(
            DeployError::from(e),
            DeployError::Vm(VmError::ArgumentMismatch(msg))
        );
    }

    fn small_db() -> TrainingDb {
        let benches: Vec<_> = hetpart_suite::all()
            .into_iter()
            .filter(|b| ["vec_add", "nbody", "blackscholes", "sgemm"].contains(&b.name))
            .collect();
        let cfg = HarnessConfig {
            sizes_per_benchmark: 2,
            sample_items: 32,
            step_tenths: 5,
            ..HarnessConfig::quick()
        };
        collect_training_db(&machines::mc2(), &benches, &cfg).expect("training succeeds")
    }

    #[test]
    fn trains_and_predicts_valid_partitions() {
        let db = small_db();
        let p = PartitionPredictor::train(
            &db,
            &ModelConfig::Tree(TreeConfig::default()),
            FeatureSet::Both,
        );
        for r in &db.records {
            let pred = p.predict_vec(&r.features(FeatureSet::Both)).unwrap();
            assert_eq!(pred.num_devices(), 3);
            assert!(p.label_space.contains(&pred));
        }
    }

    #[test]
    fn training_set_predictions_recover_oracle_labels() {
        // A tree evaluated on its own training set should match the oracle
        // labels nearly always — this checks the label plumbing, not
        // generalization.
        let db = small_db();
        let p = PartitionPredictor::train(
            &db,
            &ModelConfig::Tree(TreeConfig::default()),
            FeatureSet::Both,
        );
        let hits = db
            .records
            .iter()
            .filter(|r| p.predict_vec(&r.features(FeatureSet::Both)).unwrap() == r.best().partition)
            .count();
        assert!(
            hits * 10 >= db.records.len() * 8,
            "tree should fit its training set: {hits}/{}",
            db.records.len()
        );
    }

    #[test]
    fn framework_runs_auto_and_produces_correct_outputs() {
        let db = small_db();
        let predictor = PartitionPredictor::train(
            &db,
            &ModelConfig::Tree(TreeConfig::default()),
            FeatureSet::Both,
        );
        let fw = Framework {
            executor: Executor::new(machines::mc2()),
            predictor,
        };
        // Deploy on a program the model has seen and one it has not.
        for name in ["vec_add", "triad"] {
            let bench = hetpart_suite::by_name(name).unwrap();
            let kernel = bench.compile();
            let inst = bench.instance(bench.smallest_size());
            let mut bufs = inst.bufs.clone();
            let (partition, report) = fw
                .run_auto(&kernel, &inst.nd, &inst.args, &mut bufs)
                .unwrap();
            assert_eq!(partition.num_devices(), 3);
            assert!(report.time > 0.0);
            bench
                .check_outputs(&inst, &bufs)
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn predictor_serde_roundtrip() {
        let db = small_db();
        let p = PartitionPredictor::train(&db, &ModelConfig::Knn { k: 3 }, FeatureSet::RuntimeOnly);
        let js = serde_json::to_string(&p).unwrap();
        let back: PartitionPredictor = serde_json::from_str(&js).unwrap();
        let f = db.records[0].features(FeatureSet::RuntimeOnly);
        assert_eq!(p.predict_vec(&f).unwrap(), back.predict_vec(&f).unwrap());
    }

    #[test]
    fn mismatched_feature_set_is_a_named_error_not_a_wrong_partition() {
        // Regression: a predictor trained on runtime features used to
        // accept a static+runtime vector and silently return whatever the
        // model made of the misaligned columns.
        let db = small_db();
        let p = PartitionPredictor::train(
            &db,
            &ModelConfig::Tree(TreeConfig::default()),
            FeatureSet::RuntimeOnly,
        );
        let wrong = db.records[0].features(FeatureSet::Both);
        let got = wrong.len();
        assert_eq!(
            p.predict_vec(&wrong),
            Err(PredictError::FeatureDimMismatch {
                expected: p.feature_dim,
                got,
            })
        );
        // The matching set still predicts.
        let right = db.records[0].features(FeatureSet::RuntimeOnly);
        assert!(p.predict_vec(&right).is_ok());
    }

    #[test]
    fn construction_rejects_class_count_mismatch_and_empty_labels() {
        let db = small_db();
        let p = PartitionPredictor::train(
            &db,
            &ModelConfig::Tree(TreeConfig::default()),
            FeatureSet::Both,
        );
        // The pipeline was fitted for the full label space; a truncated
        // label space must be rejected, not clamped into at predict time.
        let truncated: Vec<Partition> = p.label_space[..1].to_vec();
        let err = PartitionPredictor::new(
            p.machine.clone(),
            p.machine_fingerprint,
            truncated,
            p.pipeline.clone(),
            FeatureSet::Both,
            p.feature_dim,
        )
        .unwrap_err();
        assert!(
            matches!(err, PredictError::ClassCountMismatch { .. }),
            "{err}"
        );
        assert_eq!(
            PartitionPredictor::new(
                p.machine.clone(),
                p.machine_fingerprint,
                vec![],
                p.pipeline.clone(),
                FeatureSet::Both,
                p.feature_dim
            )
            .unwrap_err(),
            PredictError::EmptyLabelSpace
        );
    }

    #[test]
    fn framework_validate_catches_machine_arity_mismatch() {
        let db = small_db();
        let predictor = PartitionPredictor::train(
            &db,
            &ModelConfig::Tree(TreeConfig::default()),
            FeatureSet::Both,
        );
        // mc2 has 3 devices, matching the training machine.
        let ok = Framework {
            executor: Executor::new(machines::mc2()),
            predictor: predictor.clone(),
        };
        assert!(ok.validate().is_ok());
        // A 2-device machine cannot deploy a 3-device label space.
        let two = hetpart_oclsim::Machine::new("two", machines::mc2().devices[..2].to_vec(), 5.0);
        let bad = Framework {
            executor: Executor::new(two),
            predictor,
        };
        assert!(matches!(
            bad.validate().unwrap_err(),
            PredictError::ArityMismatch { .. }
        ));
    }

    #[test]
    fn framework_validate_catches_foreign_and_drifted_machines() {
        let db = small_db(); // trained on mc2
        let predictor = PartitionPredictor::train(
            &db,
            &ModelConfig::Tree(TreeConfig::default()),
            FeatureSet::Both,
        );
        // Same arity (3 devices), different machine: mc1.
        let foreign = Framework {
            executor: Executor::new(machines::mc1()),
            predictor: predictor.clone(),
        };
        let err = foreign.validate().unwrap_err();
        assert!(matches!(err, PredictError::MachineMismatch { .. }), "{err}");
        assert!(err.to_string().contains("mc1"), "{err}");
        assert!(err.to_string().contains("mc2"), "{err}");
        // Same name, drifted hardware: tweak one device's clock.
        let mut drifted_machine = machines::mc2();
        drifted_machine.devices[0].clock_ghz *= 1.5;
        let mut drifted_predictor = predictor;
        drifted_predictor.machine_fingerprint = machines::mc2().fingerprint();
        let drifted = Framework {
            executor: Executor::new(drifted_machine),
            predictor: drifted_predictor,
        };
        let err = drifted.validate().unwrap_err();
        assert!(
            matches!(err, PredictError::MachineFingerprintMismatch { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("device profiles changed"), "{err}");
    }
}
