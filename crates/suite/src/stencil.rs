//! Structured-grid workloads (SHOC / Rodinia / vendor): `stencil2d`,
//! `conv2d`, `hotspot`, `srad`, `pathfinder`.

use hetpart_inspire::ir::NdRange;
use hetpart_inspire::vm::{ArgValue, BufferData};

use crate::workload::{hash_series, Benchmark, Instance};

const STENCIL2D_SRC: &str = r#"
kernel void stencil2d(global const float* a, global float* o, int w, int h) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x > 0 && x < w - 1 && y > 0 && y < h - 1) {
        o[y * w + x] = 0.5 * a[y * w + x]
                     + 0.125 * (a[(y - 1) * w + x] + a[(y + 1) * w + x]
                              + a[y * w + x - 1] + a[y * w + x + 1]);
    } else {
        o[y * w + x] = a[y * w + x];
    }
}
"#;

/// `stencil2d` — SHOC Stencil2D: 5-point weighted average, borders copied.
pub fn stencil2d() -> Benchmark {
    Benchmark {
        name: "stencil2d",
        origin: "SHOC",
        description: "5-point 2D stencil",
        source: STENCIL2D_SRC,
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
                BufferData::F32(hash_series(seed, n * n, 0.0, 100.0)),
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
                    let idx = y * n + x;
                    o[idx] = if x > 0 && x < n - 1 && y > 0 && y < n - 1 {
                        (0.5 * f64::from(a[idx])
                            + 0.125
                                * (f64::from(a[(y - 1) * n + x])
                                    + f64::from(a[(y + 1) * n + x])
                                    + f64::from(a[y * n + x - 1])
                                    + f64::from(a[y * n + x + 1]))) as f32
                    } else {
                        a[idx]
                    };
                }
            }
            vec![(1, BufferData::F32(o))]
        },
    }
}

const CONV2D_SRC: &str = r#"
kernel void conv2d(global const float* img, global const float* filter,
                   global float* o, int w, int h) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x >= 2 && x < w - 2 && y >= 2 && y < h - 2) {
        float acc = 0.0;
        for (int fy = 0; fy < 5; fy++) {
            for (int fx = 0; fx < 5; fx++) {
                acc += img[(y + fy - 2) * w + (x + fx - 2)] * filter[fy * 5 + fx];
            }
        }
        o[y * w + x] = acc;
    } else {
        o[y * w + x] = img[y * w + x];
    }
}
"#;

/// `conv2d` — vendor convolution sample: dense 5×5 filter; a balanced
/// compute/memory mix with a constant-trip-count loop nest.
pub fn conv2d() -> Benchmark {
    Benchmark {
        name: "conv2d",
        origin: "vendor sample",
        description: "2D convolution with a 5x5 filter",
        source: CONV2D_SRC,
        sizes: &[16, 32, 64, 128, 256, 512],
        setup: |n, seed| Instance {
            nd: NdRange::d2(n, n),
            args: vec![
                ArgValue::Buffer(0),
                ArgValue::Buffer(1),
                ArgValue::Buffer(2),
                ArgValue::Int(n as i32),
                ArgValue::Int(n as i32),
            ],
            bufs: vec![
                BufferData::F32(hash_series(seed, n * n, 0.0, 1.0)),
                BufferData::F32(hash_series(seed ^ 51, 25, -0.2, 0.2)),
                BufferData::F32(vec![0.0; n * n]),
            ],
            outputs: vec![2],
        },
        reference: |inst| {
            let img = inst.bufs[0].as_f32().expect("f32");
            let filter = inst.bufs[1].as_f32().expect("f32");
            let n = inst.nd.dim(0);
            let mut o = vec![0.0f32; n * n];
            for y in 0..n {
                for x in 0..n {
                    let idx = y * n + x;
                    o[idx] = if x >= 2 && x < n - 2 && y >= 2 && y < n - 2 {
                        let mut acc = 0.0f64;
                        for fy in 0..5 {
                            for fx in 0..5 {
                                acc += f64::from(img[(y + fy - 2) * n + (x + fx - 2)])
                                    * f64::from(filter[fy * 5 + fx]);
                            }
                        }
                        acc as f32
                    } else {
                        img[idx]
                    };
                }
            }
            vec![(2, BufferData::F32(o))]
        },
    }
}

const HOTSPOT_SRC: &str = r#"
kernel void hotspot(global const float* temp, global const float* power,
                    global float* out, int w, int h,
                    float cap, float rx, float ry, float rz, float amb) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    int idx = y * w + x;
    int xl = max(x - 1, 0);
    int xr = min(x + 1, w - 1);
    int yt = max(y - 1, 0);
    int yb = min(y + 1, h - 1);
    float t = temp[idx];
    float delta = cap * (power[idx]
        + (temp[yb * w + x] + temp[yt * w + x] - 2.0 * t) * ry
        + (temp[y * w + xr] + temp[y * w + xl] - 2.0 * t) * rx
        + (amb - t) * rz);
    out[idx] = t + delta;
}
"#;

/// `hotspot` — Rodinia HotSpot thermal simulation step: two input grids
/// (temperature and power), clamped-neighbour diffusion.
pub fn hotspot() -> Benchmark {
    Benchmark {
        name: "hotspot",
        origin: "Rodinia",
        description: "thermal simulation stencil step",
        source: HOTSPOT_SRC,
        sizes: &[16, 32, 64, 128, 256, 512],
        setup: |n, seed| Instance {
            nd: NdRange::d2(n, n),
            args: vec![
                ArgValue::Buffer(0),
                ArgValue::Buffer(1),
                ArgValue::Buffer(2),
                ArgValue::Int(n as i32),
                ArgValue::Int(n as i32),
                ArgValue::Float(0.5),
                ArgValue::Float(0.1),
                ArgValue::Float(0.1),
                ArgValue::Float(0.05),
                ArgValue::Float(80.0),
            ],
            bufs: vec![
                BufferData::F32(hash_series(seed, n * n, 300.0, 350.0)),
                BufferData::F32(hash_series(seed ^ 61, n * n, 0.0, 5.0)),
                BufferData::F32(vec![0.0; n * n]),
            ],
            outputs: vec![2],
        },
        reference: |inst| {
            let temp = inst.bufs[0].as_f32().expect("f32");
            let power = inst.bufs[1].as_f32().expect("f32");
            let n = inst.nd.dim(0);
            let (cap, rx, ry, rz, amb) = (0.5f64, 0.1f64, 0.1f64, 0.05f64, 80.0f64);
            let mut out = vec![0.0f32; n * n];
            for y in 0..n {
                for x in 0..n {
                    let idx = y * n + x;
                    let xl = x.saturating_sub(1);
                    let xr = (x + 1).min(n - 1);
                    let yt = y.saturating_sub(1);
                    let yb = (y + 1).min(n - 1);
                    let t = f64::from(temp[idx]);
                    let delta = cap
                        * (f64::from(power[idx])
                            + (f64::from(temp[yb * n + x]) + f64::from(temp[yt * n + x])
                                - 2.0 * t)
                                * ry
                            + (f64::from(temp[y * n + xr]) + f64::from(temp[y * n + xl])
                                - 2.0 * t)
                                * rx
                            + (amb - t) * rz);
                    out[idx] = (t + delta) as f32;
                }
            }
            vec![(2, BufferData::F32(out))]
        },
    }
}

const SRAD_SRC: &str = r#"
kernel void srad(global const float* img, global float* o,
                 int w, int h, float lambda, float q0) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    int idx = y * w + x;
    int xl = max(x - 1, 0);
    int xr = min(x + 1, w - 1);
    int yt = max(y - 1, 0);
    int yb = min(y + 1, h - 1);
    float jc = img[idx];
    float dn = img[yt * w + x] - jc;
    float ds = img[yb * w + x] - jc;
    float dw = img[y * w + xl] - jc;
    float de = img[y * w + xr] - jc;
    float g2 = (dn * dn + ds * ds + dw * dw + de * de) / (jc * jc + 0.00001);
    float l = (dn + ds + dw + de) / (jc + 0.00001);
    float num = 0.5 * g2 - 0.0625 * l * l;
    float den = 1.0 + 0.25 * l;
    float qsqr = num / (den * den + 0.00001);
    float cden = (qsqr - q0) / (q0 * (1.0 + q0) + 0.00001);
    float c = 1.0 / (1.0 + cden);
    if (c < 0.0) {
        c = 0.0;
    } else if (c > 1.0) {
        c = 1.0;
    }
    o[idx] = jc + 0.25 * lambda * c * (dn + ds + dw + de);
}
"#;

/// `srad` — Rodinia SRAD speckle-reducing anisotropic diffusion step:
/// gradient-dependent coefficients with data-dependent clamping branches
/// (divergent control flow).
pub fn srad() -> Benchmark {
    Benchmark {
        name: "srad",
        origin: "Rodinia",
        description: "speckle-reducing anisotropic diffusion step",
        source: SRAD_SRC,
        sizes: &[16, 32, 64, 128, 256, 512],
        setup: |n, seed| Instance {
            nd: NdRange::d2(n, n),
            args: vec![
                ArgValue::Buffer(0),
                ArgValue::Buffer(1),
                ArgValue::Int(n as i32),
                ArgValue::Int(n as i32),
                ArgValue::Float(0.5),
                ArgValue::Float(0.05),
            ],
            bufs: vec![
                BufferData::F32(hash_series(seed, n * n, 0.05, 1.0)),
                BufferData::F32(vec![0.0; n * n]),
            ],
            outputs: vec![1],
        },
        reference: |inst| {
            let img = inst.bufs[0].as_f32().expect("f32");
            let n = inst.nd.dim(0);
            let (lambda, q0) = (0.5f64, 0.05f64);
            let mut o = vec![0.0f32; n * n];
            for y in 0..n {
                for x in 0..n {
                    let idx = y * n + x;
                    let xl = x.saturating_sub(1);
                    let xr = (x + 1).min(n - 1);
                    let yt = y.saturating_sub(1);
                    let yb = (y + 1).min(n - 1);
                    let jc = f64::from(img[idx]);
                    let dn = f64::from(img[yt * n + x]) - jc;
                    let ds = f64::from(img[yb * n + x]) - jc;
                    let dw = f64::from(img[y * n + xl]) - jc;
                    let de = f64::from(img[y * n + xr]) - jc;
                    let g2 = (dn * dn + ds * ds + dw * dw + de * de) / (jc * jc + 0.00001);
                    let l = (dn + ds + dw + de) / (jc + 0.00001);
                    let num = 0.5 * g2 - 0.0625 * l * l;
                    let den = 1.0 + 0.25 * l;
                    let qsqr = num / (den * den + 0.00001);
                    let cden = (qsqr - q0) / (q0 * (1.0 + q0) + 0.00001);
                    let c = (1.0 / (1.0 + cden)).clamp(0.0, 1.0);
                    o[idx] = (jc + 0.25 * lambda * c * (dn + ds + dw + de)) as f32;
                }
            }
            vec![(1, BufferData::F32(o))]
        },
    }
}

const PATHFINDER_SRC: &str = r#"
kernel void pathfinder(global const float* prev, global const float* row,
                       global float* dst, int n) {
    int i = get_global_id(0);
    int l = max(i - 1, 0);
    int r = min(i + 1, n - 1);
    float best = fmin(fmin(prev[l], prev[i]), prev[r]);
    dst[i] = row[i] + best;
}
"#;

/// `pathfinder` — Rodinia PathFinder dynamic-programming row step:
/// neighbour-min plus cost, the grid-DP access pattern.
pub fn pathfinder() -> Benchmark {
    Benchmark {
        name: "pathfinder",
        origin: "Rodinia",
        description: "dynamic-programming row relaxation",
        source: PATHFINDER_SRC,
        sizes: &[1024, 4096, 16384, 65536, 262144, 1048576],
        setup: |n, seed| Instance {
            nd: NdRange::d1(n),
            args: vec![
                ArgValue::Buffer(0),
                ArgValue::Buffer(1),
                ArgValue::Buffer(2),
                ArgValue::Int(n as i32),
            ],
            bufs: vec![
                BufferData::F32(hash_series(seed, n, 0.0, 10.0)),
                BufferData::F32(hash_series(seed ^ 71, n, 0.0, 10.0)),
                BufferData::F32(vec![0.0; n]),
            ],
            outputs: vec![2],
        },
        reference: |inst| {
            let prev = inst.bufs[0].as_f32().expect("f32");
            let row = inst.bufs[1].as_f32().expect("f32");
            let n = prev.len();
            let mut dst = vec![0.0f32; n];
            for (i, d) in dst.iter_mut().enumerate() {
                let l = i.saturating_sub(1);
                let r = (i + 1).min(n - 1);
                let best = f64::from(prev[l])
                    .min(f64::from(prev[i]))
                    .min(f64::from(prev[r]));
                *d = (f64::from(row[i]) + best) as f32;
            }
            vec![(2, BufferData::F32(dst))]
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil2d_verifies() {
        stencil2d().run_and_verify(16).unwrap();
    }

    #[test]
    fn conv2d_verifies() {
        conv2d().run_and_verify(16).unwrap();
    }

    #[test]
    fn hotspot_verifies() {
        hotspot().run_and_verify(16).unwrap();
    }

    #[test]
    fn srad_verifies() {
        srad().run_and_verify(16).unwrap();
    }

    #[test]
    fn pathfinder_verifies() {
        pathfinder().run_and_verify(1024).unwrap();
    }

    #[test]
    fn stencil_preserves_borders() {
        let b = stencil2d();
        let inst = (b.setup)(16, 5);
        let kernel = b.compile();
        let mut bufs = inst.bufs.clone();
        let mut vm = hetpart_inspire::vm::Vm::new();
        vm.run_range(&kernel.bytecode, &inst.nd, 0..16, &inst.args, &mut bufs)
            .unwrap();
        let input = inst.bufs[0].as_f32().unwrap();
        let out = bufs[1].as_f32().unwrap();
        for x in 0..16 {
            assert_eq!(out[x], input[x], "top border");
            assert_eq!(out[15 * 16 + x], input[15 * 16 + x], "bottom border");
        }
    }

    #[test]
    fn srad_has_divergent_conditions() {
        let k = srad().compile();
        assert!(k.static_features.divergent_conditions >= 1);
    }
}
