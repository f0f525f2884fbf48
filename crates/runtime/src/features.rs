//! Problem-size-dependent runtime features.
//!
//! The paper's second feature class: "problem size dependent runtime
//! features, whose values are collected during program execution". They
//! are evaluated just before the kernel launch, from the actual launch
//! configuration and a cheap sampled pre-execution, and are what makes the
//! prediction model *input sensitive*.

use hetpart_inspire::ir::NdRange;
use hetpart_inspire::vm::{ArgValue, BufferData, Scratch, Vm};
use hetpart_inspire::{CompiledKernel, VmError};
use serde::{Deserialize, Serialize};

use crate::exec::{coalesced_fraction, scalar_values, transfer_bytes, workload_shape};

/// Runtime feature vector for one (program, problem size) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeFeatures {
    /// Total work-items of the launch.
    pub items: f64,
    /// `log2(items)` — size sensitivity is roughly logarithmic.
    pub log2_items: f64,
    /// Bytes the kernel's inputs occupy (host→device for an accelerator
    /// running the whole range).
    pub bytes_in: f64,
    /// Bytes written back.
    pub bytes_out: f64,
    /// Transferred bytes per work-item.
    pub bytes_per_item: f64,
    /// Mean dynamic instructions per work-item (sampled).
    pub ops_per_item: f64,
    /// Dynamic arithmetic intensity: ALU ops per byte of device-memory
    /// traffic.
    pub arith_intensity: f64,
    /// Control-flow divergence estimate in `[0, 1]`.
    pub divergence: f64,
    /// Transfer pressure: transferred bytes relative to bytes touched in
    /// device memory.
    pub transfer_ratio: f64,
    /// Static coalescing estimate (duplicated here so models that only see
    /// runtime features still know the access pattern quality).
    pub coalesced_fraction: f64,
}

/// Number of entries in [`RuntimeFeatures::to_vec`].
pub const RUNTIME_FEATURE_DIM: usize = 10;

/// Names aligned with [`RuntimeFeatures::to_vec`].
pub const RUNTIME_FEATURE_NAMES: [&str; RUNTIME_FEATURE_DIM] = [
    "rt.items",
    "rt.log2_items",
    "rt.bytes_in",
    "rt.bytes_out",
    "rt.bytes_per_item",
    "rt.ops_per_item",
    "rt.arith_intensity",
    "rt.divergence",
    "rt.transfer_ratio",
    "rt.coalesced_fraction",
];

impl RuntimeFeatures {
    /// Flatten into the numeric vector consumed by the ML models.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.items,
            self.log2_items,
            self.bytes_in,
            self.bytes_out,
            self.bytes_per_item,
            self.ops_per_item,
            self.arith_intensity,
            self.divergence,
            self.transfer_ratio,
            self.coalesced_fraction,
        ]
    }
}

/// Collect the runtime features of a launch by sampling `sample_items`
/// work-items. The sample runs on a copy-on-write [`Scratch`] view:
/// `bufs` is never modified, and only the buffers the sampled items store
/// to are copied.
pub fn runtime_features(
    kernel: &CompiledKernel,
    nd: &NdRange,
    args: &[ArgValue],
    bufs: &[BufferData],
    sample_items: usize,
) -> Result<RuntimeFeatures, VmError> {
    let scalars = scalar_values(kernel, args);
    let (bytes_in, bytes_out) =
        transfer_bytes(kernel, nd, 0..nd.split_extent(), &scalars, args, bufs);
    let sample = Vm::new().run_sampled(
        &kernel.bytecode,
        nd,
        0..nd.split_extent(),
        args,
        &mut Scratch::new(bufs),
        sample_items,
    )?;
    let counts = sample.extrapolated(&kernel.bytecode);
    // The static uniformity analysis already classified every branch: a
    // kernel with zero divergent branches provably executes the same
    // instruction sequence on every work-item, so the per-item op-count
    // CV is exactly 0 and the noisy sampled estimate can be skipped.
    let divergence = if kernel.static_features.divergent_branches == 0 {
        0.0
    } else {
        sample.ops_cv.clamp(0.0, 1.0)
    };
    let coalesced = coalesced_fraction(kernel);
    let shape = workload_shape(&counts, bytes_in, bytes_out, divergence, coalesced);

    let items = nd.total() as f64;
    let mem_bytes = shape.mem_bytes() as f64;
    Ok(RuntimeFeatures {
        items,
        log2_items: items.max(1.0).log2(),
        bytes_in: bytes_in as f64,
        bytes_out: bytes_out as f64,
        bytes_per_item: (bytes_in + bytes_out) as f64 / items.max(1.0),
        ops_per_item: sample.mean_ops_per_item,
        arith_intensity: shape.alu_ops() as f64 / mem_bytes.max(1.0),
        divergence,
        transfer_ratio: (bytes_in + bytes_out) as f64 / mem_bytes.max(1.0),
        coalesced_fraction: coalesced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetpart_inspire::compile;

    const SRC: &str = "kernel void k(global const float* a, global float* o, int n) {
        int i = get_global_id(0);
        float s = 0.0;
        for (int j = 0; j < n; j++) { s += a[i] * (float)j; }
        o[i] = s;
    }";

    fn features_for(n_items: usize, inner: i32) -> RuntimeFeatures {
        let k = compile(SRC).unwrap();
        let bufs = vec![
            BufferData::F32(vec![1.0; n_items]),
            BufferData::F32(vec![0.0; n_items]),
        ];
        let args = vec![
            ArgValue::Buffer(0),
            ArgValue::Buffer(1),
            ArgValue::Int(inner),
        ];
        runtime_features(&k, &NdRange::d1(n_items), &args, &bufs, 64).unwrap()
    }

    #[test]
    fn items_and_log_track_problem_size() {
        let f1 = features_for(256, 4);
        let f2 = features_for(4096, 4);
        assert_eq!(f1.items, 256.0);
        assert_eq!(f2.items, 4096.0);
        assert!((f2.log2_items - 12.0).abs() < 1e-9);
    }

    #[test]
    fn ops_per_item_scales_with_inner_work() {
        let small = features_for(256, 4);
        let big = features_for(256, 64);
        assert!(
            big.ops_per_item > 4.0 * small.ops_per_item,
            "inner loop work must show up: {} vs {}",
            big.ops_per_item,
            small.ops_per_item
        );
    }

    #[test]
    fn feature_vector_matches_names() {
        let f = features_for(128, 2);
        assert_eq!(f.to_vec().len(), RUNTIME_FEATURE_DIM);
        assert_eq!(RUNTIME_FEATURE_NAMES.len(), RUNTIME_FEATURE_DIM);
    }

    #[test]
    fn uniform_kernel_has_no_divergence() {
        let f = features_for(512, 8);
        assert!(f.divergence < 1e-9);
    }

    #[test]
    fn bytes_track_buffer_sizes() {
        let f = features_for(1024, 2);
        // a read whole (4 KiB) + o written (4 KiB).
        assert_eq!(f.bytes_in, 4096.0);
        assert_eq!(f.bytes_out, 4096.0);
        assert!((f.bytes_per_item - 8.0).abs() < 1e-9);
    }

    #[test]
    fn does_not_mutate_inputs() {
        let k = compile(SRC).unwrap();
        let bufs = vec![
            BufferData::F32(vec![1.0; 64]),
            BufferData::F32(vec![0.0; 64]),
        ];
        let before = bufs.clone();
        let args = vec![ArgValue::Buffer(0), ArgValue::Buffer(1), ArgValue::Int(3)];
        runtime_features(&k, &NdRange::d1(64), &args, &bufs, 16).unwrap();
        assert_eq!(bufs, before);
    }
}
