//! Streaming and reduction workloads (vendor samples / SHOC): `vec_add`,
//! `triad`, `dot_product`, `reduction_sum`.

use hetpart_inspire::ir::NdRange;
use hetpart_inspire::vm::{ArgValue, BufferData};

use crate::workload::{hash_series, Benchmark, Instance};

/// Elements each work-item reduces in the block-reduction kernels.
pub const REDUCTION_BLOCK: usize = 64;

const VEC_ADD_SRC: &str = r#"
kernel void vec_add(global const float* a, global const float* b,
                    global float* c, int n) {
    int i = get_global_id(0);
    if (i < n) {
        c[i] = a[i] + b[i];
    }
}
"#;

/// `vec_add` — element-wise vector addition (vendor "hello world" of
/// OpenCL); 1:1 flop/byte, fully memory/transfer bound.
pub fn vec_add() -> Benchmark {
    Benchmark {
        name: "vec_add",
        origin: "vendor sample",
        description: "element-wise vector addition",
        source: VEC_ADD_SRC,
        sizes: &[1024, 4096, 16384, 65536, 262144, 1048576],
        setup: |n, seed| {
            let a = hash_series(seed, n, -1.0, 1.0);
            let b = hash_series(seed ^ 1, n, -1.0, 1.0);
            Instance {
                nd: NdRange::d1(n),
                args: vec![
                    ArgValue::Buffer(0),
                    ArgValue::Buffer(1),
                    ArgValue::Buffer(2),
                    ArgValue::Int(n as i32),
                ],
                bufs: vec![
                    BufferData::F32(a),
                    BufferData::F32(b),
                    BufferData::F32(vec![0.0; n]),
                ],
                outputs: vec![2],
            }
        },
        reference: |inst| {
            let a = inst.bufs[0].as_f32().expect("f32 input");
            let b = inst.bufs[1].as_f32().expect("f32 input");
            let c: Vec<f32> = a
                .iter()
                .zip(b)
                .map(|(x, y)| (f64::from(*x) + f64::from(*y)) as f32)
                .collect();
            vec![(2, BufferData::F32(c))]
        },
    }
}

const TRIAD_SRC: &str = r#"
kernel void triad(global const float* a, global const float* b,
                  global float* c, float s, int n) {
    int i = get_global_id(0);
    if (i < n) {
        c[i] = a[i] + s * b[i];
    }
}
"#;

/// `triad` — STREAM/SHOC Triad `c = a + s·b`; the canonical bandwidth
/// benchmark.
pub fn triad() -> Benchmark {
    Benchmark {
        name: "triad",
        origin: "SHOC",
        description: "STREAM triad c = a + s*b",
        source: TRIAD_SRC,
        sizes: &[1024, 4096, 16384, 65536, 262144, 1048576],
        setup: |n, seed| {
            let a = hash_series(seed, n, -2.0, 2.0);
            let b = hash_series(seed ^ 2, n, -2.0, 2.0);
            Instance {
                nd: NdRange::d1(n),
                args: vec![
                    ArgValue::Buffer(0),
                    ArgValue::Buffer(1),
                    ArgValue::Buffer(2),
                    ArgValue::Float(1.75),
                    ArgValue::Int(n as i32),
                ],
                bufs: vec![
                    BufferData::F32(a),
                    BufferData::F32(b),
                    BufferData::F32(vec![0.0; n]),
                ],
                outputs: vec![2],
            }
        },
        reference: |inst| {
            let a = inst.bufs[0].as_f32().expect("f32 input");
            let b = inst.bufs[1].as_f32().expect("f32 input");
            let s = 1.75f64;
            let c: Vec<f32> = a
                .iter()
                .zip(b)
                .map(|(x, y)| (f64::from(*x) + s * f64::from(*y)) as f32)
                .collect();
            vec![(2, BufferData::F32(c))]
        },
    }
}

const DOT_SRC: &str = r#"
kernel void dot_product(global const float* a, global const float* b,
                        global float* partial, int block) {
    int i = get_global_id(0);
    int base = i * block;
    float s = 0.0;
    for (int j = 0; j < block; j++) {
        s += a[base + j] * b[base + j];
    }
    partial[i] = s;
}
"#;

/// `dot_product` — blocked dot product: each work-item reduces a
/// contiguous block to one partial sum (the standard OpenCL reduction
/// shape without local memory).
pub fn dot_product() -> Benchmark {
    Benchmark {
        name: "dot_product",
        origin: "vendor sample",
        description: "blocked dot product with per-item partial sums",
        source: DOT_SRC,
        sizes: &[4096, 16384, 65536, 262144, 1048576, 4194304],
        setup: |n, seed| {
            let items = n / REDUCTION_BLOCK;
            let a = hash_series(seed, n, -1.0, 1.0);
            let b = hash_series(seed ^ 3, n, -1.0, 1.0);
            Instance {
                nd: NdRange::d1(items),
                args: vec![
                    ArgValue::Buffer(0),
                    ArgValue::Buffer(1),
                    ArgValue::Buffer(2),
                    ArgValue::Int(REDUCTION_BLOCK as i32),
                ],
                bufs: vec![
                    BufferData::F32(a),
                    BufferData::F32(b),
                    BufferData::F32(vec![0.0; items]),
                ],
                outputs: vec![2],
            }
        },
        reference: |inst| {
            let a = inst.bufs[0].as_f32().expect("f32 input");
            let b = inst.bufs[1].as_f32().expect("f32 input");
            let items = inst.bufs[2].len();
            let mut out = vec![0.0f32; items];
            for (i, o) in out.iter_mut().enumerate() {
                let mut s = 0.0f64;
                for j in 0..REDUCTION_BLOCK {
                    let k = i * REDUCTION_BLOCK + j;
                    s += f64::from(a[k]) * f64::from(b[k]);
                }
                *o = s as f32;
            }
            vec![(2, BufferData::F32(out))]
        },
    }
}

const REDUCTION_SRC: &str = r#"
kernel void reduction_sum(global const float* a, global float* partial,
                          int block, int n) {
    int i = get_global_id(0);
    int base = i * block;
    float s = 0.0;
    for (int j = 0; j < block; j++) {
        int k = base + j;
        if (k < n) {
            s += a[k];
        }
    }
    partial[i] = s;
}
"#;

/// `reduction_sum` — SHOC Reduction: blocked sum with a bounds guard in
/// the inner loop.
pub fn reduction_sum() -> Benchmark {
    Benchmark {
        name: "reduction_sum",
        origin: "SHOC",
        description: "blocked sum reduction to per-item partials",
        source: REDUCTION_SRC,
        sizes: &[4096, 16384, 65536, 262144, 1048576, 4194304],
        setup: |n, seed| {
            let items = n.div_ceil(REDUCTION_BLOCK);
            let a = hash_series(seed, n, 0.0, 1.0);
            Instance {
                nd: NdRange::d1(items),
                args: vec![
                    ArgValue::Buffer(0),
                    ArgValue::Buffer(1),
                    ArgValue::Int(REDUCTION_BLOCK as i32),
                    ArgValue::Int(n as i32),
                ],
                bufs: vec![BufferData::F32(a), BufferData::F32(vec![0.0; items])],
                outputs: vec![1],
            }
        },
        reference: |inst| {
            let a = inst.bufs[0].as_f32().expect("f32 input");
            let items = inst.bufs[1].len();
            let mut out = vec![0.0f32; items];
            for (i, o) in out.iter_mut().enumerate() {
                let mut s = 0.0f64;
                for j in 0..REDUCTION_BLOCK {
                    let k = i * REDUCTION_BLOCK + j;
                    if k < a.len() {
                        s += f64::from(a[k]);
                    }
                }
                *o = s as f32;
            }
            vec![(1, BufferData::F32(out))]
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_add_verifies() {
        vec_add().run_and_verify(1024).unwrap();
    }

    #[test]
    fn triad_verifies() {
        triad().run_and_verify(1024).unwrap();
    }

    #[test]
    fn dot_product_verifies() {
        dot_product().run_and_verify(4096).unwrap();
    }

    #[test]
    fn reduction_sum_verifies() {
        reduction_sum().run_and_verify(4096).unwrap();
    }

    #[test]
    fn reduction_guard_handles_non_multiple_sizes() {
        // A size that is not a multiple of the block exercises the bounds
        // check in the inner loop.
        let b = reduction_sum();
        let inst = (b.setup)(4096 + 17, 9);
        let kernel = b.compile();
        let mut bufs = inst.bufs.clone();
        let mut vm = hetpart_inspire::vm::Vm::new();
        vm.run_range(
            &kernel.bytecode,
            &inst.nd,
            0..inst.nd.split_extent(),
            &inst.args,
            &mut bufs,
        )
        .unwrap();
        b.check_outputs(&inst, &bufs).unwrap();
    }
}
