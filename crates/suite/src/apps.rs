//! Application workloads (Rodinia / SHOC / vendor / department codes):
//! `kmeans`, `nearest_neighbor`, `nbody`, `md_lj`, `blackscholes`,
//! `mandelbrot`, `monte_carlo_pi`.

use hetpart_inspire::ir::NdRange;
use hetpart_inspire::vm::{ArgValue, BufferData};

use crate::workload::{hash_indices, hash_series, Benchmark, Instance};

/// Dimensionality of the k-means points.
pub const KMEANS_DIMS: usize = 4;
/// Number of k-means clusters.
pub const KMEANS_K: usize = 8;
/// Neighbours per atom in the MD neighbour lists.
pub const MD_NEIGHBORS: usize = 16;
/// Mandelbrot iteration cap.
pub const MANDEL_MAX_ITER: i32 = 128;
/// Monte-Carlo samples per work-item.
pub const MC_SAMPLES: i32 = 256;

const KMEANS_SRC: &str = r#"
kernel void kmeans_assign(global const float* pts, global const float* ctr,
                          global int* assign, int k, int dims) {
    int i = get_global_id(0);
    float best = 1000000000.0;
    int best_c = 0;
    for (int c = 0; c < k; c++) {
        float d = 0.0;
        for (int j = 0; j < dims; j++) {
            float diff = pts[i * dims + j] - ctr[c * dims + j];
            d += diff * diff;
        }
        if (d < best) {
            best = d;
            best_c = c;
        }
    }
    assign[i] = best_c;
}
"#;

/// `kmeans` — Rodinia K-Means assignment step: nearest-centroid search
/// over a small table that every work-item re-reads.
pub fn kmeans() -> Benchmark {
    Benchmark {
        name: "kmeans",
        origin: "Rodinia",
        description: "k-means nearest-centroid assignment",
        source: KMEANS_SRC,
        sizes: &[1024, 4096, 16384, 65536, 262144, 1048576],
        setup: |n, seed| Instance {
            nd: NdRange::d1(n),
            args: vec![
                ArgValue::Buffer(0),
                ArgValue::Buffer(1),
                ArgValue::Buffer(2),
                ArgValue::Int(KMEANS_K as i32),
                ArgValue::Int(KMEANS_DIMS as i32),
            ],
            bufs: vec![
                BufferData::F32(hash_series(seed, n * KMEANS_DIMS, -10.0, 10.0)),
                BufferData::F32(hash_series(seed ^ 81, KMEANS_K * KMEANS_DIMS, -10.0, 10.0)),
                BufferData::I32(vec![0; n]),
            ],
            outputs: vec![2],
        },
        reference: |inst| {
            let pts = inst.bufs[0].as_f32().expect("f32");
            let ctr = inst.bufs[1].as_f32().expect("f32");
            let n = inst.bufs[2].len();
            let mut assign = vec![0i32; n];
            for (i, a) in assign.iter_mut().enumerate() {
                let mut best = 1_000_000_000.0f64;
                let mut best_c = 0i32;
                for c in 0..KMEANS_K {
                    let mut d = 0.0f64;
                    for j in 0..KMEANS_DIMS {
                        let diff = f64::from(pts[i * KMEANS_DIMS + j])
                            - f64::from(ctr[c * KMEANS_DIMS + j]);
                        d += diff * diff;
                    }
                    if d < best {
                        best = d;
                        best_c = c as i32;
                    }
                }
                *a = best_c;
            }
            vec![(2, BufferData::I32(assign))]
        },
    }
}

const NN_SRC: &str = r#"
kernel void nearest_neighbor(global const float* lat, global const float* lng,
                             global float* dist, float plat, float plng) {
    int i = get_global_id(0);
    float dl = lat[i] - plat;
    float dg = lng[i] - plng;
    dist[i] = sqrt(dl * dl + dg * dg);
}
"#;

/// `nearest_neighbor` — Rodinia NN: per-record Euclidean distance to a
/// query point; short, sqrt-containing, memory-light.
pub fn nearest_neighbor() -> Benchmark {
    Benchmark {
        name: "nearest_neighbor",
        origin: "Rodinia",
        description: "distance computation to a query point",
        source: NN_SRC,
        sizes: &[1024, 4096, 16384, 65536, 262144, 1048576],
        setup: |n, seed| Instance {
            nd: NdRange::d1(n),
            args: vec![
                ArgValue::Buffer(0),
                ArgValue::Buffer(1),
                ArgValue::Buffer(2),
                ArgValue::Float(30.5),
                ArgValue::Float(-75.25),
            ],
            bufs: vec![
                BufferData::F32(hash_series(seed, n, -90.0, 90.0)),
                BufferData::F32(hash_series(seed ^ 91, n, -180.0, 180.0)),
                BufferData::F32(vec![0.0; n]),
            ],
            outputs: vec![2],
        },
        reference: |inst| {
            let lat = inst.bufs[0].as_f32().expect("f32");
            let lng = inst.bufs[1].as_f32().expect("f32");
            let (plat, plng) = (30.5f64, -75.25f64);
            let out: Vec<f32> = lat
                .iter()
                .zip(lng)
                .map(|(a, b)| {
                    let dl = f64::from(*a) - plat;
                    let dg = f64::from(*b) - plng;
                    (dl * dl + dg * dg).sqrt() as f32
                })
                .collect();
            vec![(2, BufferData::F32(out))]
        },
    }
}

const NBODY_SRC: &str = r#"
kernel void nbody(global const float* px, global const float* py,
                  global const float* pz, global const float* mass,
                  global float* ax, global float* ay, global float* az,
                  int n, float eps) {
    int i = get_global_id(0);
    float xi = px[i];
    float yi = py[i];
    float zi = pz[i];
    float fx = 0.0;
    float fy = 0.0;
    float fz = 0.0;
    for (int j = 0; j < n; j++) {
        float dx = px[j] - xi;
        float dy = py[j] - yi;
        float dz = pz[j] - zi;
        float r2 = dx * dx + dy * dy + dz * dz + eps;
        float inv = rsqrt(r2);
        float inv3 = inv * inv * inv;
        float s = mass[j] * inv3;
        fx += dx * s;
        fy += dy * s;
        fz += dz * s;
    }
    ax[i] = fx;
    ay[i] = fy;
    az[i] = fz;
}
"#;

/// `nbody` — vendor NBody sample: all-pairs gravity, O(n) heavy FP work
/// per item; the compute-bound extreme of the suite.
pub fn nbody() -> Benchmark {
    Benchmark {
        name: "nbody",
        origin: "vendor sample",
        description: "all-pairs gravitational accelerations",
        source: NBODY_SRC,
        sizes: &[256, 512, 1024, 2048, 4096, 8192],
        setup: |n, seed| Instance {
            nd: NdRange::d1(n),
            args: vec![
                ArgValue::Buffer(0),
                ArgValue::Buffer(1),
                ArgValue::Buffer(2),
                ArgValue::Buffer(3),
                ArgValue::Buffer(4),
                ArgValue::Buffer(5),
                ArgValue::Buffer(6),
                ArgValue::Int(n as i32),
                ArgValue::Float(0.01),
            ],
            bufs: vec![
                BufferData::F32(hash_series(seed, n, -1.0, 1.0)),
                BufferData::F32(hash_series(seed ^ 101, n, -1.0, 1.0)),
                BufferData::F32(hash_series(seed ^ 102, n, -1.0, 1.0)),
                BufferData::F32(hash_series(seed ^ 103, n, 0.1, 1.0)),
                BufferData::F32(vec![0.0; n]),
                BufferData::F32(vec![0.0; n]),
                BufferData::F32(vec![0.0; n]),
            ],
            outputs: vec![4, 5, 6],
        },
        reference: |inst| {
            let px = inst.bufs[0].as_f32().expect("f32");
            let py = inst.bufs[1].as_f32().expect("f32");
            let pz = inst.bufs[2].as_f32().expect("f32");
            let mass = inst.bufs[3].as_f32().expect("f32");
            let n = px.len();
            let eps = 0.01f64;
            let mut ax = vec![0.0f32; n];
            let mut ay = vec![0.0f32; n];
            let mut az = vec![0.0f32; n];
            for i in 0..n {
                let (xi, yi, zi) = (f64::from(px[i]), f64::from(py[i]), f64::from(pz[i]));
                let (mut fx, mut fy, mut fz) = (0.0f64, 0.0f64, 0.0f64);
                for j in 0..n {
                    let dx = f64::from(px[j]) - xi;
                    let dy = f64::from(py[j]) - yi;
                    let dz = f64::from(pz[j]) - zi;
                    let r2 = dx * dx + dy * dy + dz * dz + eps;
                    let inv = 1.0 / r2.sqrt();
                    let inv3 = inv * inv * inv;
                    let s = f64::from(mass[j]) * inv3;
                    fx += dx * s;
                    fy += dy * s;
                    fz += dz * s;
                }
                ax[i] = fx as f32;
                ay[i] = fy as f32;
                az[i] = fz as f32;
            }
            vec![
                (4, BufferData::F32(ax)),
                (5, BufferData::F32(ay)),
                (6, BufferData::F32(az)),
            ]
        },
    }
}

const MD_SRC: &str = r#"
kernel void md_lj(global const float* x, global const float* y,
                  global const float* z, global const int* neigh,
                  global float* fx, global float* fy, global float* fz,
                  int k, float cutoff2) {
    int i = get_global_id(0);
    float xi = x[i];
    float yi = y[i];
    float zi = z[i];
    float ax = 0.0;
    float ay = 0.0;
    float az = 0.0;
    for (int j = 0; j < k; j++) {
        int nb = neigh[i * k + j];
        float dx = x[nb] - xi;
        float dy = y[nb] - yi;
        float dz = z[nb] - zi;
        float r2 = dx * dx + dy * dy + dz * dz;
        if (r2 < cutoff2 && r2 > 0.000001) {
            float sr2 = 1.0 / r2;
            float sr6 = sr2 * sr2 * sr2;
            float force = sr6 * (sr6 - 0.5) * sr2;
            ax += dx * force;
            ay += dy * force;
            az += dz * force;
        }
    }
    fx[i] = ax;
    fy[i] = ay;
    fz[i] = az;
}
"#;

/// `md_lj` — SHOC MD: Lennard-Jones forces over per-atom neighbour lists;
/// gather-heavy with a data-dependent cutoff branch.
pub fn md_lj() -> Benchmark {
    Benchmark {
        name: "md_lj",
        origin: "SHOC",
        description: "Lennard-Jones forces over neighbour lists",
        source: MD_SRC,
        sizes: &[1024, 4096, 16384, 65536, 262144, 1048576],
        setup: |n, seed| {
            let neigh = hash_indices(seed ^ 111, n * MD_NEIGHBORS, n);
            Instance {
                nd: NdRange::d1(n),
                args: vec![
                    ArgValue::Buffer(0),
                    ArgValue::Buffer(1),
                    ArgValue::Buffer(2),
                    ArgValue::Buffer(3),
                    ArgValue::Buffer(4),
                    ArgValue::Buffer(5),
                    ArgValue::Buffer(6),
                    ArgValue::Int(MD_NEIGHBORS as i32),
                    ArgValue::Float(4.0),
                ],
                bufs: vec![
                    BufferData::F32(hash_series(seed, n, -8.0, 8.0)),
                    BufferData::F32(hash_series(seed ^ 112, n, -8.0, 8.0)),
                    BufferData::F32(hash_series(seed ^ 113, n, -8.0, 8.0)),
                    BufferData::I32(neigh),
                    BufferData::F32(vec![0.0; n]),
                    BufferData::F32(vec![0.0; n]),
                    BufferData::F32(vec![0.0; n]),
                ],
                outputs: vec![4, 5, 6],
            }
        },
        reference: |inst| {
            let x = inst.bufs[0].as_f32().expect("f32");
            let y = inst.bufs[1].as_f32().expect("f32");
            let z = inst.bufs[2].as_f32().expect("f32");
            let neigh = inst.bufs[3].as_i32().expect("i32");
            let n = x.len();
            let cutoff2 = 4.0f64;
            let mut fx = vec![0.0f32; n];
            let mut fy = vec![0.0f32; n];
            let mut fz = vec![0.0f32; n];
            for i in 0..n {
                let (xi, yi, zi) = (f64::from(x[i]), f64::from(y[i]), f64::from(z[i]));
                let (mut ax, mut ay, mut az) = (0.0f64, 0.0f64, 0.0f64);
                for j in 0..MD_NEIGHBORS {
                    let nb = neigh[i * MD_NEIGHBORS + j] as usize;
                    let dx = f64::from(x[nb]) - xi;
                    let dy = f64::from(y[nb]) - yi;
                    let dz = f64::from(z[nb]) - zi;
                    let r2 = dx * dx + dy * dy + dz * dz;
                    if r2 < cutoff2 && r2 > 0.000001 {
                        let sr2 = 1.0 / r2;
                        let sr6 = sr2 * sr2 * sr2;
                        let force = sr6 * (sr6 - 0.5) * sr2;
                        ax += dx * force;
                        ay += dy * force;
                        az += dz * force;
                    }
                }
                fx[i] = ax as f32;
                fy[i] = ay as f32;
                fz[i] = az as f32;
            }
            vec![
                (4, BufferData::F32(fx)),
                (5, BufferData::F32(fy)),
                (6, BufferData::F32(fz)),
            ]
        },
    }
}

const BLACKSCHOLES_SRC: &str = r#"
kernel void blackscholes(global const float* price, global const float* strike,
                         global const float* years, global float* call,
                         global float* put, float riskfree, float volatility) {
    int i = get_global_id(0);
    float s = price[i];
    float k = strike[i];
    float t = years[i];
    float sqrt_t = sqrt(t);
    float d1 = (log(s / k) + (riskfree + 0.5 * volatility * volatility) * t)
             / (volatility * sqrt_t);
    float d2 = d1 - volatility * sqrt_t;

    float kd1 = 1.0 / (1.0 + 0.2316419 * fabs(d1));
    float cnd1 = 1.0 - 0.39894228040143267794 * exp(-0.5 * d1 * d1)
        * kd1 * (0.31938153 + kd1 * (-0.356563782 + kd1 * (1.781477937
            + kd1 * (-1.821255978 + kd1 * 1.330274429))));
    if (d1 < 0.0) {
        cnd1 = 1.0 - cnd1;
    }
    float kd2 = 1.0 / (1.0 + 0.2316419 * fabs(d2));
    float cnd2 = 1.0 - 0.39894228040143267794 * exp(-0.5 * d2 * d2)
        * kd2 * (0.31938153 + kd2 * (-0.356563782 + kd2 * (1.781477937
            + kd2 * (-1.821255978 + kd2 * 1.330274429))));
    if (d2 < 0.0) {
        cnd2 = 1.0 - cnd2;
    }

    float expRT = exp(-riskfree * t);
    call[i] = s * cnd1 - k * expRT * cnd2;
    put[i] = k * expRT * (1.0 - cnd2) - s * (1.0 - cnd1);
}
"#;

/// `blackscholes` — vendor sample: European option pricing; the
/// transcendental-function stress test (log/exp/sqrt per item).
pub fn blackscholes() -> Benchmark {
    Benchmark {
        name: "blackscholes",
        origin: "vendor sample",
        description: "Black-Scholes European option pricing",
        source: BLACKSCHOLES_SRC,
        sizes: &[1024, 4096, 16384, 65536, 262144, 1048576],
        setup: |n, seed| Instance {
            nd: NdRange::d1(n),
            args: vec![
                ArgValue::Buffer(0),
                ArgValue::Buffer(1),
                ArgValue::Buffer(2),
                ArgValue::Buffer(3),
                ArgValue::Buffer(4),
                ArgValue::Float(0.02),
                ArgValue::Float(0.30),
            ],
            bufs: vec![
                BufferData::F32(hash_series(seed, n, 5.0, 30.0)),
                BufferData::F32(hash_series(seed ^ 121, n, 1.0, 100.0)),
                BufferData::F32(hash_series(seed ^ 122, n, 0.25, 10.0)),
                BufferData::F32(vec![0.0; n]),
                BufferData::F32(vec![0.0; n]),
            ],
            outputs: vec![3, 4],
        },
        reference: |inst| {
            let price = inst.bufs[0].as_f32().expect("f32");
            let strike = inst.bufs[1].as_f32().expect("f32");
            let years = inst.bufs[2].as_f32().expect("f32");
            let n = price.len();
            let (riskfree, volatility) = (0.02f64, 0.30f64);
            let cnd = |d: f64| -> f64 {
                let k = 1.0 / (1.0 + 0.2316419 * d.abs());
                let c = 1.0
                    - 0.398_942_280_401_432_7
                        * (-0.5 * d * d).exp()
                        * k
                        * (0.31938153
                            + k * (-0.356563782
                                + k * (1.781477937 + k * (-1.821255978 + k * 1.330274429))));
                if d < 0.0 {
                    1.0 - c
                } else {
                    c
                }
            };
            let mut call = vec![0.0f32; n];
            let mut put = vec![0.0f32; n];
            for i in 0..n {
                let s = f64::from(price[i]);
                let k = f64::from(strike[i]);
                let t = f64::from(years[i]);
                let sqrt_t = t.sqrt();
                let d1 = ((s / k).ln() + (riskfree + 0.5 * volatility * volatility) * t)
                    / (volatility * sqrt_t);
                let d2 = d1 - volatility * sqrt_t;
                let cnd1 = cnd(d1);
                let cnd2 = cnd(d2);
                let exp_rt = (-riskfree * t).exp();
                call[i] = (s * cnd1 - k * exp_rt * cnd2) as f32;
                put[i] = (k * exp_rt * (1.0 - cnd2) - s * (1.0 - cnd1)) as f32;
            }
            vec![(3, BufferData::F32(call)), (4, BufferData::F32(put))]
        },
    }
}

const MANDEL_SRC: &str = r#"
kernel void mandelbrot(global int* out, int w, int h, int max_iter,
                       float x0, float y0, float dx, float dy) {
    int px = get_global_id(0);
    int py = get_global_id(1);
    float cx = x0 + (float)px * dx;
    float cy = y0 + (float)py * dy;
    float zx = 0.0;
    float zy = 0.0;
    int it = 0;
    while (zx * zx + zy * zy <= 4.0 && it < max_iter) {
        float t = zx * zx - zy * zy + cx;
        zy = 2.0 * zx * zy + cy;
        zx = t;
        it = it + 1;
    }
    out[py * w + px] = it;
}
"#;

/// `mandelbrot` — vendor sample: escape-time iteration; extreme
/// control-flow divergence and *zero* input transfer (output only).
pub fn mandelbrot() -> Benchmark {
    Benchmark {
        name: "mandelbrot",
        origin: "vendor sample",
        description: "Mandelbrot escape-time fractal",
        source: MANDEL_SRC,
        sizes: &[16, 32, 64, 128, 256, 512],
        setup: |n, _seed| Instance {
            nd: NdRange::d2(n, n),
            args: vec![
                ArgValue::Buffer(0),
                ArgValue::Int(n as i32),
                ArgValue::Int(n as i32),
                ArgValue::Int(MANDEL_MAX_ITER),
                ArgValue::Float(-2.0),
                ArgValue::Float(-1.25),
                ArgValue::Float(2.5 / n as f32),
                ArgValue::Float(2.5 / n as f32),
            ],
            bufs: vec![BufferData::I32(vec![0; n * n])],
            outputs: vec![0],
        },
        reference: |inst| {
            let n = inst.nd.dim(0);
            let (x0, y0) = (-2.0f64, -1.25f64);
            let dx = f64::from(2.5f32 / n as f32);
            let dy = f64::from(2.5f32 / n as f32);
            let mut out = vec![0i32; n * n];
            for py in 0..n {
                for px in 0..n {
                    // Mirror the VM: float temporaries stay in f64 (only
                    // buffer stores round to f32, and the output is int).
                    let cx = x0 + px as f64 * dx;
                    let cy = y0 + py as f64 * dy;
                    let mut zx = 0.0f64;
                    let mut zy = 0.0f64;
                    let mut it = 0i32;
                    while zx * zx + zy * zy <= 4.0 && it < MANDEL_MAX_ITER {
                        let t = zx * zx - zy * zy + cx;
                        zy = 2.0 * zx * zy + cy;
                        zx = t;
                        it += 1;
                    }
                    out[py * n + px] = it;
                }
            }
            vec![(0, BufferData::I32(out))]
        },
    }
}

const MC_PI_SRC: &str = r#"
kernel void monte_carlo_pi(global uint* hits, uint seed, int samples) {
    int i = get_global_id(0);
    uint s = seed + (uint)i * 2654435761u;
    if (s == 0u) {
        s = 1u;
    }
    uint count = 0u;
    for (int j = 0; j < samples; j++) {
        s = s ^ (s << 13);
        s = s ^ (s >> 17);
        s = s ^ (s << 5);
        float x = (float)(s & 65535u) / 65536.0;
        s = s ^ (s << 13);
        s = s ^ (s >> 17);
        s = s ^ (s << 5);
        float y = (float)(s & 65535u) / 65536.0;
        if (x * x + y * y <= 1.0) {
            count = count + 1u;
        }
    }
    hits[i] = count;
}
"#;

/// `monte_carlo_pi` — department code: in-kernel xorshift32 PRNG, trivial
/// transfers, pure compute; π estimation by rejection sampling.
pub fn monte_carlo_pi() -> Benchmark {
    Benchmark {
        name: "monte_carlo_pi",
        origin: "department code",
        description: "Monte-Carlo pi estimation with in-kernel PRNG",
        source: MC_PI_SRC,
        sizes: &[1024, 4096, 16384, 65536, 262144, 1048576],
        setup: |n, _seed| Instance {
            nd: NdRange::d1(n),
            args: vec![
                ArgValue::Buffer(0),
                ArgValue::UInt(0x9E3779B9),
                ArgValue::Int(MC_SAMPLES),
            ],
            bufs: vec![BufferData::U32(vec![0; n])],
            outputs: vec![0],
        },
        reference: |inst| {
            let n = inst.bufs[0].len();
            let seed = 0x9E3779B9u32;
            let mut hits = vec![0u32; n];
            for (i, h) in hits.iter_mut().enumerate() {
                let mut s = seed.wrapping_add((i as u32).wrapping_mul(2654435761));
                if s == 0 {
                    s = 1;
                }
                let mut count = 0u32;
                for _ in 0..MC_SAMPLES {
                    s ^= s << 13;
                    s ^= s >> 17;
                    s ^= s << 5;
                    let x = f64::from((s & 65535) as f32) / 65536.0;
                    s ^= s << 13;
                    s ^= s >> 17;
                    s ^= s << 5;
                    let y = f64::from((s & 65535) as f32) / 65536.0;
                    if x * x + y * y <= 1.0 {
                        count += 1;
                    }
                }
                *h = count;
            }
            vec![(0, BufferData::U32(hits))]
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::hash_u64;

    #[test]
    fn md_lj_neighbours_match_their_per_index_form() {
        // 1000 divides; 1024 masks.
        for n in [1000, 1024] {
            for seed in [0, 7, u64::MAX] {
                let inst = (md_lj().setup)(n, seed);
                let want: Vec<i32> = (0..(n * MD_NEIGHBORS) as u64)
                    .map(|i| (hash_u64(seed ^ 111, i) as usize % n) as i32)
                    .collect();
                assert_eq!(inst.bufs[3].as_i32(), Some(&want[..]), "n {n} seed {seed}");
            }
        }
    }

    #[test]
    fn kmeans_verifies() {
        kmeans().run_and_verify(1024).unwrap();
    }

    #[test]
    fn nearest_neighbor_verifies() {
        nearest_neighbor().run_and_verify(1024).unwrap();
    }

    #[test]
    fn nbody_verifies() {
        nbody().run_and_verify(256).unwrap();
    }

    #[test]
    fn md_lj_verifies() {
        md_lj().run_and_verify(1024).unwrap();
    }

    #[test]
    fn blackscholes_verifies() {
        blackscholes().run_and_verify(1024).unwrap();
    }

    #[test]
    fn mandelbrot_verifies() {
        let b = mandelbrot();
        for &n in b.sizes {
            b.run_and_verify(n).unwrap();
        }
    }

    #[test]
    fn monte_carlo_pi_verifies() {
        monte_carlo_pi().run_and_verify(1024).unwrap();
    }

    #[test]
    fn monte_carlo_estimates_pi() {
        let b = monte_carlo_pi();
        let inst = (b.setup)(4096, 0);
        let expected = (b.reference)(&inst);
        let BufferData::U32(hits) = &expected[0].1 else {
            panic!()
        };
        let total: u64 = hits.iter().map(|&h| u64::from(h)).sum();
        let samples = 4096u64 * MC_SAMPLES as u64;
        let pi = 4.0 * total as f64 / samples as f64;
        assert!((pi - std::f64::consts::PI).abs() < 0.02, "pi estimate {pi}");
    }

    #[test]
    fn mandelbrot_interior_hits_iteration_cap() {
        let b = mandelbrot();
        let inst = (b.setup)(32, 0);
        let expected = (b.reference)(&inst);
        let BufferData::I32(out) = &expected[0].1 else {
            panic!()
        };
        // The set's interior (around the origin of the image) must
        // saturate; the far exterior must escape almost immediately.
        assert!(out.contains(&MANDEL_MAX_ITER));
        assert!(out.iter().any(|&v| v <= 2));
    }

    #[test]
    fn kmeans_assignment_is_in_range() {
        let b = kmeans();
        let inst = (b.setup)(1024, 1);
        let expected = (b.reference)(&inst);
        let BufferData::I32(assign) = &expected[0].1 else {
            panic!()
        };
        assert!(assign.iter().all(|&a| (0..KMEANS_K as i32).contains(&a)));
        // More than one cluster should actually be used.
        let first = assign[0];
        assert!(assign.iter().any(|&a| a != first));
    }
}
