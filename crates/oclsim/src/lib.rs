//! # hetpart-oclsim
//!
//! A simulated OpenCL platform: device performance models, the paper's two
//! target machines (`mc1`, `mc2`), and the analytic cost model that turns
//! a kernel chunk's dynamic operation counts into a simulated execution
//! time.
//!
//! ## Why a simulator
//!
//! The paper evaluates on two physical machines with three OpenCL devices
//! each (one dual-socket CPU device + two discrete GPUs). This crate
//! substitutes calibrated analytic models for the hardware. The model
//! captures exactly the effects that make the paper's problem non-trivial:
//!
//! * relative ALU/memory throughput differences between CPU and GPU,
//! * PCIe transfer cost that penalizes GPUs at small problem sizes
//!   (kernel time is always measured *including* transfers, following
//!   Gregg & Hazelwood, as the paper does),
//! * per-launch overhead that penalizes multi-device splits of tiny
//!   kernels,
//! * SIMT divergence penalties and the VLIW ILP sensitivity that makes
//!   `mc1`'s Radeon HD 5870 weak on untuned scalar code (the paper calls
//!   this out explicitly),
//! * memory-coalescing sensitivity for GPU access patterns.
//!
//! Everything is deterministic: the same workload produces the same time.
//!
//! ## Example
//!
//! ```
//! use hetpart_oclsim::{machines, model::{WorkloadShape, estimate_time}};
//!
//! let mc2 = machines::mc2();
//! let n: u64 = 1 << 20;
//! let w = WorkloadShape {
//!     items: n,
//!     int_ops: 4 * n,
//!     float_ops: 200 * n,       // compute-heavy kernel
//!     transcendental_ops: 20 * n,
//!     cmp_ops: n,
//!     branch_ops: n,
//!     other_ops: 2 * n,
//!     loads: 2 * n,
//!     stores: n,
//!     bytes_in: 8 * n,
//!     bytes_out: 4 * n,
//!     divergence: 0.0,
//!     coalesced_fraction: 1.0,
//! };
//! let cpu = estimate_time(&mc2.devices[0], &w);
//! let gpu = estimate_time(&mc2.devices[1], &w);
//! // A compute-bound kernel this large runs faster on the GTX 480 than on
//! // the Xeon CPU device even after paying PCIe transfers.
//! assert!(gpu.total < cpu.total);
//! ```

// Outside of tests, library code fails with typed errors (or an
// explicitly justified `unreachable!`) instead of unwrapping.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod calibrate;
pub mod device;
pub mod fault;
pub mod machine;
pub mod machines;
pub mod model;
pub mod registry;

pub use calibrate::{
    calibrate_device, calibration_workloads, fit_op_costs, max_relative_error, CalibrateError,
    CalibrationOutcome,
};
pub use device::{DeviceClass, DeviceId, DeviceProfile, OpCosts};
pub use fault::{DeviceFaults, FaultPlan, FaultState, FaultVerdict};
pub use machine::Machine;
pub use model::{effective_alu_throughput, estimate_time, TimeBreakdown, WorkloadShape};
pub use registry::{
    machine_from_profile_str, machine_to_profile_json, validate_machine, MachineRegistry,
    RegistryError, PROFILE_SCHEMA_VERSION,
};
