//! # hetpart-core
//!
//! The task-partitioning framework of the paper, end to end:
//!
//! * **Training phase** ([`train`]): every benchmark runs at every problem
//!   size under every partitioning of the 10%-step space on a simulated
//!   machine; static features, runtime features and measurements land in a
//!   [`db::TrainingDb`] — or stream into per-(machine, program) JSONL
//!   shards ([`db::ShardedDb`]) that resume after a crash and merge
//!   across processes with stable labels.
//! * **Model** ([`predictor`]): an offline-trained classifier maps
//!   (static + runtime) features to the best partitioning.
//! * **Deployment phase** ([`predictor::Framework`]): a (new) kernel is
//!   compiled, its features collected, a partitioning predicted, and the
//!   launch executed across the machine's devices.
//! * **Deployment service** ([`serve`]): the concurrent serving layer —
//!   launches are enqueued and executed by a worker pool, with plans
//!   memoized per (kernel fingerprint, launch shape) so repeat traffic
//!   skips probe sampling and model inference entirely.
//! * **Evaluation** ([`eval`]): reproduces Figure 1 and the paper's prose
//!   claims, plus model-comparison / feature-ablation / step-sensitivity
//!   extension experiments, all under leave-one-program-out
//!   cross-validation.
//!
//! ```no_run
//! use hetpart_core::{config::HarnessConfig, eval};
//!
//! let ctx = eval::EvalContext::build_full_suite(HarnessConfig::paper());
//! let fig1 = eval::figure1(&ctx);
//! println!("{}", fig1.render());
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod cross_machine;
pub mod db;
pub mod eval;
pub mod predictor;
pub mod report;
pub mod serve;
pub mod train;

pub use config::HarnessConfig;
pub use cross_machine::{cross_machine_matrix, CrossMachineCell, CrossMachineMatrix};
pub use db::{DbError, FeatureSet, ShardedDb, TrainingDb, TrainingRecord, DB_SCHEMA_VERSION};
pub use eval::EvalContext;
pub use predictor::{DeployError, Framework, LaunchPlan, PartitionPredictor, PredictError};
pub use serve::{
    AdmissionPolicy, PlanKey, ServedLaunch, Service, ServiceConfig, ServiceStats, StripedCache,
    Ticket,
};
pub use train::{collect_training_db, collect_training_db_sharded, TrainError};
