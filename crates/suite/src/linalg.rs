//! Dense linear-algebra workloads (SHOC / PolyBench-GPU): `sgemm`,
//! `mat_transpose`, `mvt`, `gemver`, `bicg`, `syrk`.

use hetpart_inspire::ir::NdRange;
use hetpart_inspire::vm::{ArgValue, BufferData};

use crate::workload::{hash_series, Benchmark, Instance};

const SGEMM_SRC: &str = r#"
kernel void sgemm(global const float* a, global const float* b,
                  global float* c, int n) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    float acc = 0.0;
    for (int k = 0; k < n; k++) {
        acc += a[y * n + k] * b[k * n + x];
    }
    c[y * n + x] = acc;
}
"#;

/// `sgemm` — square matrix multiply; O(n³) flops over O(n²) bytes, the
/// classic compute-bound kernel.
pub fn sgemm() -> Benchmark {
    Benchmark {
        name: "sgemm",
        origin: "SHOC / PolyBench",
        description: "dense square matrix multiplication",
        source: SGEMM_SRC,
        sizes: &[16, 32, 64, 128, 256, 512],
        setup: |n, seed| Instance {
            nd: NdRange::d2(n, n),
            args: vec![
                ArgValue::Buffer(0),
                ArgValue::Buffer(1),
                ArgValue::Buffer(2),
                ArgValue::Int(n as i32),
            ],
            bufs: vec![
                BufferData::F32(hash_series(seed, n * n, -1.0, 1.0)),
                BufferData::F32(hash_series(seed ^ 5, n * n, -1.0, 1.0)),
                BufferData::F32(vec![0.0; n * n]),
            ],
            outputs: vec![2],
        },
        reference: |inst| {
            let a = inst.bufs[0].as_f32().expect("f32");
            let b = inst.bufs[1].as_f32().expect("f32");
            let n = inst.nd.dim(0);
            let mut c = vec![0.0f32; n * n];
            for y in 0..n {
                for x in 0..n {
                    let mut acc = 0.0f64;
                    for k in 0..n {
                        acc += f64::from(a[y * n + k]) * f64::from(b[k * n + x]);
                    }
                    c[y * n + x] = acc as f32;
                }
            }
            vec![(2, BufferData::F32(c))]
        },
    }
}

const TRANSPOSE_SRC: &str = r#"
kernel void mat_transpose(global const float* a, global float* o,
                          int w, int h) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    o[x * h + y] = a[y * w + x];
}
"#;

/// `mat_transpose` — out-of-place transpose; strided stores make this the
/// coalescing stress test.
pub fn mat_transpose() -> Benchmark {
    Benchmark {
        name: "mat_transpose",
        origin: "vendor sample",
        description: "out-of-place matrix transpose",
        source: TRANSPOSE_SRC,
        sizes: &[16, 32, 64, 128, 256, 512],
        setup: |n, seed| Instance {
            nd: NdRange::d2(n, n),
            args: vec![
                ArgValue::Buffer(0),
                ArgValue::Buffer(1),
                ArgValue::Int(n as i32),
                ArgValue::Int(n as i32),
            ],
            bufs: vec![
                BufferData::F32(hash_series(seed, n * n, -4.0, 4.0)),
                BufferData::F32(vec![0.0; n * n]),
            ],
            outputs: vec![1],
        },
        reference: |inst| {
            let a = inst.bufs[0].as_f32().expect("f32");
            let n = inst.nd.dim(0);
            let mut o = vec![0.0f32; n * n];
            for y in 0..n {
                for x in 0..n {
                    o[x * n + y] = a[y * n + x];
                }
            }
            vec![(1, BufferData::F32(o))]
        },
    }
}

const MVT_SRC: &str = r#"
kernel void mvt(global const float* a, global const float* y1,
                global const float* y2, global float* x1,
                global float* x2, int n) {
    int i = get_global_id(0);
    float s1 = 0.0;
    float s2 = 0.0;
    for (int j = 0; j < n; j++) {
        s1 += a[i * n + j] * y1[j];
        s2 += a[j * n + i] * y2[j];
    }
    x1[i] = s1;
    x2[i] = s2;
}
"#;

/// `mvt` — PolyBench MVT: simultaneous `A·y1` and `Aᵀ·y2`; row and column
/// sweeps of the same matrix.
pub fn mvt() -> Benchmark {
    Benchmark {
        name: "mvt",
        origin: "PolyBench",
        description: "matrix-vector product and transposed product",
        source: MVT_SRC,
        sizes: &[64, 128, 256, 512, 1024, 2048],
        setup: |n, seed| Instance {
            nd: NdRange::d1(n),
            args: vec![
                ArgValue::Buffer(0),
                ArgValue::Buffer(1),
                ArgValue::Buffer(2),
                ArgValue::Buffer(3),
                ArgValue::Buffer(4),
                ArgValue::Int(n as i32),
            ],
            bufs: vec![
                BufferData::F32(hash_series(seed, n * n, -1.0, 1.0)),
                BufferData::F32(hash_series(seed ^ 7, n, -1.0, 1.0)),
                BufferData::F32(hash_series(seed ^ 8, n, -1.0, 1.0)),
                BufferData::F32(vec![0.0; n]),
                BufferData::F32(vec![0.0; n]),
            ],
            outputs: vec![3, 4],
        },
        reference: |inst| {
            let a = inst.bufs[0].as_f32().expect("f32");
            let y1 = inst.bufs[1].as_f32().expect("f32");
            let y2 = inst.bufs[2].as_f32().expect("f32");
            let n = y1.len();
            let mut x1 = vec![0.0f32; n];
            let mut x2 = vec![0.0f32; n];
            for i in 0..n {
                let mut s1 = 0.0f64;
                let mut s2 = 0.0f64;
                for j in 0..n {
                    s1 += f64::from(a[i * n + j]) * f64::from(y1[j]);
                    s2 += f64::from(a[j * n + i]) * f64::from(y2[j]);
                }
                x1[i] = s1 as f32;
                x2[i] = s2 as f32;
            }
            vec![(3, BufferData::F32(x1)), (4, BufferData::F32(x2))]
        },
    }
}

const GEMVER_SRC: &str = r#"
kernel void gemver(global const float* a, global const float* u1,
                   global const float* v1, global const float* u2,
                   global const float* v2, global float* b, int n) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    b[y * n + x] = a[y * n + x] + u1[y] * v1[x] + u2[y] * v2[x];
}
"#;

/// `gemver` — PolyBench GEMVER rank-2 update `B = A + u1·v1ᵀ + u2·v2ᵀ`.
pub fn gemver() -> Benchmark {
    Benchmark {
        name: "gemver",
        origin: "PolyBench",
        description: "rank-2 matrix update",
        source: GEMVER_SRC,
        sizes: &[16, 32, 64, 128, 256, 512],
        setup: |n, seed| Instance {
            nd: NdRange::d2(n, n),
            args: vec![
                ArgValue::Buffer(0),
                ArgValue::Buffer(1),
                ArgValue::Buffer(2),
                ArgValue::Buffer(3),
                ArgValue::Buffer(4),
                ArgValue::Buffer(5),
                ArgValue::Int(n as i32),
            ],
            bufs: vec![
                BufferData::F32(hash_series(seed, n * n, -1.0, 1.0)),
                BufferData::F32(hash_series(seed ^ 11, n, -1.0, 1.0)),
                BufferData::F32(hash_series(seed ^ 12, n, -1.0, 1.0)),
                BufferData::F32(hash_series(seed ^ 13, n, -1.0, 1.0)),
                BufferData::F32(hash_series(seed ^ 14, n, -1.0, 1.0)),
                BufferData::F32(vec![0.0; n * n]),
            ],
            outputs: vec![5],
        },
        reference: |inst| {
            let a = inst.bufs[0].as_f32().expect("f32");
            let u1 = inst.bufs[1].as_f32().expect("f32");
            let v1 = inst.bufs[2].as_f32().expect("f32");
            let u2 = inst.bufs[3].as_f32().expect("f32");
            let v2 = inst.bufs[4].as_f32().expect("f32");
            let n = u1.len();
            let mut b = vec![0.0f32; n * n];
            for y in 0..n {
                for x in 0..n {
                    let v = f64::from(a[y * n + x])
                        + f64::from(u1[y]) * f64::from(v1[x])
                        + f64::from(u2[y]) * f64::from(v2[x]);
                    b[y * n + x] = v as f32;
                }
            }
            vec![(5, BufferData::F32(b))]
        },
    }
}

const BICG_SRC: &str = r#"
kernel void bicg(global const float* a, global const float* p,
                 global const float* r, global float* q,
                 global float* s, int n) {
    int i = get_global_id(0);
    float sq = 0.0;
    float ss = 0.0;
    for (int j = 0; j < n; j++) {
        sq += a[i * n + j] * p[j];
        ss += a[j * n + i] * r[j];
    }
    q[i] = sq;
    s[i] = ss;
}
"#;

/// `bicg` — PolyBench BiCG sub-kernel: `q = A·p` and `s = Aᵀ·r` fused.
pub fn bicg() -> Benchmark {
    Benchmark {
        name: "bicg",
        origin: "PolyBench",
        description: "BiCG dual matrix-vector kernel",
        source: BICG_SRC,
        sizes: &[64, 128, 256, 512, 1024, 2048],
        setup: |n, seed| Instance {
            nd: NdRange::d1(n),
            args: vec![
                ArgValue::Buffer(0),
                ArgValue::Buffer(1),
                ArgValue::Buffer(2),
                ArgValue::Buffer(3),
                ArgValue::Buffer(4),
                ArgValue::Int(n as i32),
            ],
            bufs: vec![
                BufferData::F32(hash_series(seed, n * n, -1.0, 1.0)),
                BufferData::F32(hash_series(seed ^ 21, n, -1.0, 1.0)),
                BufferData::F32(hash_series(seed ^ 22, n, -1.0, 1.0)),
                BufferData::F32(vec![0.0; n]),
                BufferData::F32(vec![0.0; n]),
            ],
            outputs: vec![3, 4],
        },
        reference: |inst| {
            let a = inst.bufs[0].as_f32().expect("f32");
            let p = inst.bufs[1].as_f32().expect("f32");
            let r = inst.bufs[2].as_f32().expect("f32");
            let n = p.len();
            let mut q = vec![0.0f32; n];
            let mut s = vec![0.0f32; n];
            for i in 0..n {
                let mut sq = 0.0f64;
                let mut ss = 0.0f64;
                for j in 0..n {
                    sq += f64::from(a[i * n + j]) * f64::from(p[j]);
                    ss += f64::from(a[j * n + i]) * f64::from(r[j]);
                }
                q[i] = sq as f32;
                s[i] = ss as f32;
            }
            vec![(3, BufferData::F32(q)), (4, BufferData::F32(s))]
        },
    }
}

const SYRK_SRC: &str = r#"
kernel void syrk(global const float* a, global const float* c_in,
                 global float* c_out, float alpha, float beta, int n) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    float acc = 0.0;
    for (int k = 0; k < n; k++) {
        acc += a[y * n + k] * a[x * n + k];
    }
    c_out[y * n + x] = beta * c_in[y * n + x] + alpha * acc;
}
"#;

/// `syrk` — PolyBench SYRK symmetric rank-k update `C = β·C + α·A·Aᵀ`.
pub fn syrk() -> Benchmark {
    Benchmark {
        name: "syrk",
        origin: "PolyBench",
        description: "symmetric rank-k matrix update",
        source: SYRK_SRC,
        sizes: &[16, 32, 64, 128, 256, 512],
        setup: |n, seed| Instance {
            nd: NdRange::d2(n, n),
            args: vec![
                ArgValue::Buffer(0),
                ArgValue::Buffer(1),
                ArgValue::Buffer(2),
                ArgValue::Float(1.5),
                ArgValue::Float(0.5),
                ArgValue::Int(n as i32),
            ],
            bufs: vec![
                BufferData::F32(hash_series(seed, n * n, -1.0, 1.0)),
                BufferData::F32(hash_series(seed ^ 31, n * n, -1.0, 1.0)),
                BufferData::F32(vec![0.0; n * n]),
            ],
            outputs: vec![2],
        },
        reference: |inst| {
            let a = inst.bufs[0].as_f32().expect("f32");
            let c_in = inst.bufs[1].as_f32().expect("f32");
            let n = inst.nd.dim(0);
            let (alpha, beta) = (1.5f64, 0.5f64);
            let mut c = vec![0.0f32; n * n];
            for y in 0..n {
                for x in 0..n {
                    let mut acc = 0.0f64;
                    for k in 0..n {
                        acc += f64::from(a[y * n + k]) * f64::from(a[x * n + k]);
                    }
                    c[y * n + x] = (beta * f64::from(c_in[y * n + x]) + alpha * acc) as f32;
                }
            }
            vec![(2, BufferData::F32(c))]
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgemm_verifies() {
        sgemm().run_and_verify(16).unwrap();
    }

    #[test]
    fn transpose_verifies() {
        mat_transpose().run_and_verify(16).unwrap();
    }

    #[test]
    fn mvt_verifies() {
        mvt().run_and_verify(64).unwrap();
    }

    #[test]
    fn gemver_verifies() {
        gemver().run_and_verify(16).unwrap();
    }

    #[test]
    fn bicg_verifies() {
        bicg().run_and_verify(64).unwrap();
    }

    #[test]
    fn syrk_verifies() {
        syrk().run_and_verify(16).unwrap();
    }

    #[test]
    fn sgemm_matches_identity_multiplication() {
        // A × I = A: hand-built instance with B = identity.
        let b = sgemm();
        let n = 8;
        let mut inst = (b.setup)(n, 1);
        let mut ident = vec![0.0f32; n * n];
        for i in 0..n {
            ident[i * n + i] = 1.0;
        }
        inst.bufs[1] = BufferData::F32(ident);
        let kernel = b.compile();
        let mut bufs = inst.bufs.clone();
        let mut vm = hetpart_inspire::vm::Vm::new();
        vm.run_range(&kernel.bytecode, &inst.nd, 0..n, &inst.args, &mut bufs)
            .unwrap();
        assert_eq!(bufs[2].as_f32().unwrap(), inst.bufs[0].as_f32().unwrap());
    }
}
