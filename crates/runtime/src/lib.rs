//! # hetpart-runtime
//!
//! The multi-device runtime of the hetpart framework: the discretized
//! partitioning space (10% steps, as in the paper), partitioned kernel
//! execution with access-analysis-driven transfer planning, runtime
//! feature collection, and the exhaustive partition sweep used as the
//! training-phase oracle.
//!
//! ## Example
//!
//! ```
//! use hetpart_inspire::{compile, vm::{ArgValue, BufferData}, NdRange};
//! use hetpart_oclsim::machines;
//! use hetpart_runtime::{Executor, Launch, Partition};
//!
//! let k = compile(
//!     "kernel void scale(global const float* a, global float* o, float f) {
//!          int i = get_global_id(0);
//!          o[i] = a[i] * f;
//!      }",
//! ).unwrap();
//! let n = 1024;
//! let mut bufs = vec![
//!     BufferData::F32(vec![3.0; n]),
//!     BufferData::F32(vec![0.0; n]),
//! ];
//! let args = vec![ArgValue::Buffer(0), ArgValue::Buffer(1), ArgValue::Float(2.0)];
//!
//! let ex = Executor::new(machines::mc2());
//! let launch = Launch::new(&k, NdRange::d1(n), args);
//! // Split 40% CPU / 30% / 30% across the two GTX 480s: plan the
//! // per-chunk transfers once (divergence 0: a branch-free kernel),
//! // then execute.
//! let partition = Partition::from_tenths(vec![4, 3, 3]);
//! let plan = ex.plan_execution(&launch, &bufs, &partition, 0.0);
//! let report = ex.run_planned(&launch, &mut bufs, &plan).unwrap();
//! assert_eq!(bufs[1].as_f32().unwrap()[0], 6.0);
//! assert_eq!(report.device_runs.len(), 3);
//! ```

// Outside of tests, library code fails with typed errors (or an
// explicitly justified `unreachable!`) instead of unwrapping.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dynsched;
pub mod exec;
pub mod features;
pub mod partition;
pub mod profile;
pub mod sweep;

pub use dynsched::{dynamic_schedule, DynSchedConfig, DynSchedReport};
pub use exec::{
    DeviceRun, ExecPlan, ExecutionReport, Executor, Launch, LaunchError, DEFAULT_SAMPLE_ITEMS,
};
pub use features::{runtime_features, RuntimeFeatures, RUNTIME_FEATURE_DIM, RUNTIME_FEATURE_NAMES};
pub use partition::{Partition, TENTHS};
pub use profile::LaunchProfile;
pub use sweep::{
    sweep_many, sweep_many_mode, sweep_partitions, sweep_partitions_mode, PartitionSweep,
    SweepEntry, SweepJob, SweepMode,
};
