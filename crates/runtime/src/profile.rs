//! Launch profiling: sample the NDRange once, estimate any chunk.
//!
//! An exhaustive partition sweep prices 66 partitionings × up to 3 chunks.
//! Sampling every chunk separately re-executes the kernel hundreds of
//! times. Instead, [`LaunchProfile`] executes one stratified sample over
//! the *whole* split extent, remembers each sample's position and dynamic
//! counts, and estimates any chunk `[a, b)` by scaling the counts of the
//! samples that fall inside it. For uniform kernels this is exact; for
//! spatially varying kernels (mandelbrot!) it captures the per-chunk
//! differences that sampling each chunk would see, at a fraction of the
//! cost.

use hetpart_inspire::bytecode::N_OP_CLASSES;
use hetpart_inspire::ir::NdRange;
use hetpart_inspire::vm::{
    dynamic_counts, ArgValue, BufferData, Counters, DynamicCounts, OnlineStats, Scratch, Vm,
};
use hetpart_inspire::{CompiledKernel, VmError};
use std::ops::Range;

/// One sampled work-item: where it sat in the split dimension and what it
/// executed.
#[derive(Debug, Clone)]
struct SamplePoint {
    /// Split-dimension coordinate.
    slice: usize,
    counts: DynamicCounts,
    /// Total dynamic instructions (for divergence statistics).
    ops: f64,
}

/// A sampled execution profile of one launch.
#[derive(Debug, Clone)]
pub struct LaunchProfile {
    extent: usize,
    items_per_slice: usize,
    samples: Vec<SamplePoint>,
}

impl LaunchProfile {
    /// Execute a stratified sample of `max_samples` work-items across the
    /// whole NDRange and build the profile. The probe runs on a
    /// copy-on-write [`Scratch`] view: `bufs` is never modified, and only
    /// the buffers the sampled items store to are copied.
    ///
    /// All probe items run in one lane-batched [`Vm::run_items`] call —
    /// hundreds of single-item kernel entries collapse into a handful of
    /// lockstep batches, which is where the training oracle spends its
    /// VM time.
    pub fn collect(
        kernel: &CompiledKernel,
        nd: &NdRange,
        args: &[ArgValue],
        bufs: &[BufferData],
        max_samples: usize,
    ) -> Result<Self, VmError> {
        Self::collect_with(kernel, nd, bufs, max_samples, |gids, scratch| {
            Vm::new().run_items(&kernel.bytecode, nd, gids, args, scratch)
        })
    }

    /// [`LaunchProfile::collect`] on the scalar engine — the reference
    /// (and pre-lane-engine) probe path, kept for differential tests and
    /// the `vm_batch` benchmark's baseline.
    pub fn collect_scalar(
        kernel: &CompiledKernel,
        nd: &NdRange,
        args: &[ArgValue],
        bufs: &[BufferData],
        max_samples: usize,
    ) -> Result<Self, VmError> {
        Self::collect_with(kernel, nd, bufs, max_samples, |gids, scratch| {
            Vm::new().run_items_scalar(&kernel.bytecode, nd, gids, args, scratch)
        })
    }

    /// The shared probe-sampling policy: one representative work-item per
    /// stratified slice (the first item of the inner dimensions; see the
    /// uniformity note above), executed by `run_items` — either VM engine's
    /// explicit-item entry — on a scratch view of `bufs`.
    fn collect_with(
        kernel: &CompiledKernel,
        nd: &NdRange,
        bufs: &[BufferData],
        max_samples: usize,
        run_items: impl FnOnce(&[[usize; 3]], &mut Scratch<'_>) -> Result<Vec<Counters>, VmError>,
    ) -> Result<Self, VmError> {
        let extent = nd.split_extent();
        let inner = nd.items_per_slice();
        let total = nd.total();
        let n = total.min(max_samples.max(1));
        let split_dim = nd.split_dim();
        let mut slices = Vec::with_capacity(n);
        let mut gids = Vec::with_capacity(n);
        for j in 0..n {
            let li = if n == total {
                j
            } else {
                (j as u128 * total as u128 / n as u128) as usize
            };
            let slice = li / inner;
            let mut gid = [0usize; 3];
            gid[split_dim] = slice;
            slices.push(slice);
            gids.push(gid);
        }
        let per_item = run_items(&gids, &mut Scratch::new(bufs))?;
        Self::from_probes(kernel, extent, inner, slices, per_item)
    }

    fn from_probes(
        kernel: &CompiledKernel,
        extent: usize,
        items_per_slice: usize,
        slices: Vec<usize>,
        per_item: Vec<Counters>,
    ) -> Result<Self, VmError> {
        let samples = slices
            .into_iter()
            .zip(per_item)
            .map(|(slice, c)| {
                let d = dynamic_counts(&kernel.bytecode, &c);
                let ops = d.total_ops() as f64;
                SamplePoint {
                    slice,
                    counts: d,
                    ops,
                }
            })
            .collect();
        Ok(Self {
            extent,
            items_per_slice,
            samples,
        })
    }

    /// Number of collected samples.
    pub fn num_samples(&self) -> usize {
        self.samples.len()
    }

    /// Estimate the dynamic counts and divergence of the chunk
    /// `slices` (a range of the split dimension).
    ///
    /// Returns `(counts, divergence_cv)`. Panics if the range is empty or
    /// out of bounds — chunk construction guarantees validity.
    pub fn estimate(&self, slices: Range<usize>) -> (DynamicCounts, f64) {
        assert!(
            !slices.is_empty() && slices.end <= self.extent,
            "invalid chunk {slices:?}"
        );
        let chunk_items = (slices.len() * self.items_per_slice) as f64;
        let inside: Vec<&SamplePoint> = self
            .samples
            .iter()
            .filter(|s| slices.contains(&s.slice))
            .collect();
        // Fallback: no sample landed inside — take the nearest sample.
        let points: Vec<&SamplePoint> = if inside.is_empty() {
            let mid = slices.start + slices.len() / 2;
            let Some(nearest) = self.samples.iter().min_by_key(|s| s.slice.abs_diff(mid)) else {
                unreachable!("`collect` samples at least one item: NdRange dims are non-zero");
            };
            vec![nearest]
        } else {
            inside
        };

        let k = points.len() as f64;
        let mut acc = DynamicCounts {
            per_class: [0; N_OP_CLASSES],
            buf_reads: vec![0; points[0].counts.buf_reads.len()],
            buf_writes: vec![0; points[0].counts.buf_writes.len()],
            items: 0,
        };
        let mut stats = OnlineStats::default();
        for p in &points {
            for (a, b) in acc.per_class.iter_mut().zip(&p.counts.per_class) {
                *a += b;
            }
            for (a, b) in acc.buf_reads.iter_mut().zip(&p.counts.buf_reads) {
                *a += b;
            }
            for (a, b) in acc.buf_writes.iter_mut().zip(&p.counts.buf_writes) {
                *a += b;
            }
            acc.items += p.counts.items;
            stats.push(p.ops);
        }
        let scale = chunk_items / k;
        let counts = acc.scaled(scale);
        (counts, stats.cv().clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetpart_inspire::compile;

    const UNIFORM: &str = "kernel void u(global const float* a, global float* o, int n) {
        int i = get_global_id(0);
        o[i] = a[i] * 2.0 + 1.0;
    }";

    const VARYING: &str = "kernel void v(global float* o, int n) {
        int i = get_global_id(0);
        float s = 0.0;
        for (int j = 0; j < i; j++) { s += 1.0; }
        o[i] = s;
    }";

    fn bufs_args(n: usize) -> (Vec<BufferData>, Vec<ArgValue>) {
        (
            vec![BufferData::F32(vec![1.0; n]), BufferData::F32(vec![0.0; n])],
            vec![
                ArgValue::Buffer(0),
                ArgValue::Buffer(1),
                ArgValue::Int(n as i32),
            ],
        )
    }

    #[test]
    fn uniform_kernel_estimates_exactly() {
        let k = compile(UNIFORM).unwrap();
        let n = 1000;
        let (bufs, args) = bufs_args(n);
        let p = LaunchProfile::collect(&k, &NdRange::d1(n), &args, &bufs, 64).unwrap();
        assert_eq!(p.num_samples(), 64);
        let (counts, cv) = p.estimate(0..n);
        assert_eq!(counts.items, n as u64);
        assert_eq!(counts.buf_reads[0], n as u64);
        assert!(cv < 1e-9);
        let (half, _) = p.estimate(0..n / 2);
        assert_eq!(half.items, (n / 2) as u64);
        assert_eq!(half.buf_writes[1], (n / 2) as u64);
    }

    #[test]
    fn varying_kernel_estimates_differ_by_region() {
        let k = compile(VARYING).unwrap();
        let n = 4096;
        let bufs = vec![BufferData::F32(vec![0.0; n])];
        let args = vec![ArgValue::Buffer(0), ArgValue::Int(n as i32)];
        let p = LaunchProfile::collect(&k, &NdRange::d1(n), &args, &bufs, 128).unwrap();
        let (low, _) = p.estimate(0..n / 4);
        let (high, _) = p.estimate(3 * n / 4..n);
        assert!(
            high.alu_ops() > 3 * low.alu_ops(),
            "late items do ~7x more work: low={} high={}",
            low.alu_ops(),
            high.alu_ops()
        );
        // Whole-range divergence is substantial for a linear work ramp; a
        // single-sample chunk has none by definition.
        let (_, cv_all) = p.estimate(0..n);
        assert!(cv_all > 0.3, "ramp kernel divergence: {cv_all}");
        let (_, cv_single) = p.estimate(0..1);
        assert_eq!(cv_single, 0.0);
    }

    #[test]
    fn batched_and_scalar_profiles_are_identical() {
        let k = compile(VARYING).unwrap();
        let n = 2048;
        let bufs = vec![BufferData::F32(vec![0.0; n])];
        let args = vec![ArgValue::Buffer(0), ArgValue::Int(n as i32)];
        let nd = NdRange::d1(n);
        let lanes = LaunchProfile::collect(&k, &nd, &args, &bufs, 100).unwrap();
        let scalar = LaunchProfile::collect_scalar(&k, &nd, &args, &bufs, 100).unwrap();
        assert_eq!(lanes.num_samples(), scalar.num_samples());
        for chunk in [0..n, 0..n / 2, n / 3..n / 2, n - 1..n] {
            let (cl, dl) = lanes.estimate(chunk.clone());
            let (cs, ds) = scalar.estimate(chunk);
            assert_eq!(cl, cs);
            assert_eq!(dl.to_bits(), ds.to_bits());
        }
    }

    #[test]
    fn tiny_chunks_fall_back_to_nearest_sample() {
        let k = compile(UNIFORM).unwrap();
        let n = 10_000;
        let (bufs, args) = bufs_args(n);
        // 16 samples over 10k slices: a 10-slice chunk usually has none.
        let p = LaunchProfile::collect(&k, &NdRange::d1(n), &args, &bufs, 16).unwrap();
        let (counts, _) = p.estimate(5_000..5_010);
        assert_eq!(counts.items, 10);
    }

    #[test]
    #[should_panic(expected = "invalid chunk")]
    fn empty_chunk_panics() {
        let k = compile(UNIFORM).unwrap();
        let (bufs, args) = bufs_args(16);
        let p = LaunchProfile::collect(&k, &NdRange::d1(16), &args, &bufs, 4).unwrap();
        let _ = p.estimate(3..3);
    }
}
