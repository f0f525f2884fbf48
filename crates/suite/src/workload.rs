//! The benchmark abstraction: kernel source + input generator + native
//! reference implementation + verification.

use hetpart_inspire::ir::NdRange;
use hetpart_inspire::vm::{ArgValue, BufferData, Vm};
use hetpart_inspire::{compile, tier_dispatch, CompiledKernel, Tier};

/// A concrete, runnable problem instance of a benchmark.
#[derive(Debug, Clone)]
pub struct Instance {
    pub nd: NdRange,
    pub args: Vec<ArgValue>,
    pub bufs: Vec<BufferData>,
    /// Indices into `bufs` that the kernel writes and the reference checks.
    pub outputs: Vec<usize>,
}

/// One benchmark program of the suite.
#[derive(Clone)]
pub struct Benchmark {
    /// Short identifier (`vec_add`, `sgemm`, …).
    pub name: &'static str,
    /// Which suite the paper drew the workload from.
    pub origin: &'static str,
    /// One-line description of the computation.
    pub description: &'static str,
    /// Kernel source in the hetpart kernel language.
    pub source: &'static str,
    /// Problem-size ladder (the primary size parameter; meaning is
    /// benchmark-specific, e.g. vector length or matrix dimension).
    pub sizes: &'static [usize],
    /// Build buffers, arguments and the NDRange for a problem size.
    pub setup: fn(n: usize, seed: u64) -> Instance,
    /// Compute the expected contents of each output buffer with a plain
    /// Rust implementation. Returns `(buffer index, expected data)` pairs.
    pub reference: fn(&Instance) -> Vec<(usize, BufferData)>,
}

impl std::fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Benchmark")
            .field("name", &self.name)
            .field("origin", &self.origin)
            .field("sizes", &self.sizes)
            .finish()
    }
}

impl Benchmark {
    /// Compile the kernel source.
    ///
    /// # Panics
    /// Panics if the bundled source does not compile — that is a bug in
    /// the suite, covered by tests.
    pub fn compile(&self) -> CompiledKernel {
        compile(self.source)
            .unwrap_or_else(|e| panic!("benchmark `{}` failed to compile: {e}", self.name))
    }

    /// Compile the kernel source at an explicit optimization level and
    /// register-allocation mode. Pre-decoding for the lane engine runs in
    /// every mode; no argument toggles it.
    ///
    /// # Panics
    /// Panics if the bundled source does not compile — that is a bug in
    /// the suite, covered by tests.
    pub fn compile_with_modes(
        &self,
        level: hetpart_inspire::OptLevel,
        regalloc: hetpart_inspire::RegAlloc,
    ) -> CompiledKernel {
        hetpart_inspire::compile_with_modes(self.source, level, regalloc)
            .unwrap_or_else(|e| panic!("benchmark `{}` failed to compile: {e}", self.name))
    }

    /// Smallest size of the ladder (used by functional tests).
    pub fn smallest_size(&self) -> usize {
        self.sizes[0]
    }

    /// A middle-of-the-ladder size.
    pub fn default_size(&self) -> usize {
        self.sizes[self.sizes.len() / 2]
    }

    /// Build an instance at size `n` with the default seed.
    pub fn instance(&self, n: usize) -> Instance {
        (self.setup)(n, 0x5EED_0000 ^ n as u64)
    }

    /// Execute the kernel functionally over the whole NDRange on a single
    /// VM and verify the outputs against the native reference.
    pub fn run_and_verify(&self, n: usize) -> Result<(), String> {
        let kernel = self.compile();
        let inst = self.instance(n);
        let mut bufs = inst.bufs.clone();
        let mut vm = Vm::new();
        vm.run_range(
            &kernel.bytecode,
            &inst.nd,
            0..inst.nd.split_extent(),
            &inst.args,
            &mut bufs,
        )
        .map_err(|e| format!("{}: VM error: {e}", self.name))?;
        self.check_outputs(&inst, &bufs)
    }

    /// Compare the output buffers of an executed instance against the
    /// reference implementation.
    pub fn check_outputs(&self, inst: &Instance, bufs: &[BufferData]) -> Result<(), String> {
        for (idx, expected) in (self.reference)(inst) {
            let got = &bufs[idx];
            compare_buffers(self.name, idx, &expected, got)?;
        }
        Ok(())
    }
}

/// Relative/absolute tolerance for float comparison. The VM computes in
/// `f64` and rounds to `f32` on store; references do the same, but op
/// reassociation in references is allowed, so a small tolerance remains.
pub fn approx_eq_f32(a: f32, b: f32) -> bool {
    if a == b {
        return true;
    }
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    let diff = (f64::from(a) - f64::from(b)).abs();
    let scale = f64::from(a.abs().max(b.abs()));
    diff <= 1e-4 * scale.max(1.0)
}

/// Element-wise buffer comparison with useful error messages.
pub fn compare_buffers(
    bench: &str,
    buf_idx: usize,
    expected: &BufferData,
    got: &BufferData,
) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "{bench}: output buffer {buf_idx} length mismatch: expected {}, got {}",
            expected.len(),
            got.len()
        ));
    }
    match (expected, got) {
        (BufferData::F32(e), BufferData::F32(g)) => {
            for (i, (ev, gv)) in e.iter().zip(g).enumerate() {
                if !approx_eq_f32(*ev, *gv) {
                    return Err(format!(
                        "{bench}: buffer {buf_idx}[{i}]: expected {ev}, got {gv}"
                    ));
                }
            }
            Ok(())
        }
        (BufferData::I32(e), BufferData::I32(g)) => {
            for (i, (ev, gv)) in e.iter().zip(g).enumerate() {
                if ev != gv {
                    return Err(format!(
                        "{bench}: buffer {buf_idx}[{i}]: expected {ev}, got {gv}"
                    ));
                }
            }
            Ok(())
        }
        (BufferData::U32(e), BufferData::U32(g)) => {
            for (i, (ev, gv)) in e.iter().zip(g).enumerate() {
                if ev != gv {
                    return Err(format!(
                        "{bench}: buffer {buf_idx}[{i}]: expected {ev}, got {gv}"
                    ));
                }
            }
            Ok(())
        }
        _ => Err(format!("{bench}: buffer {buf_idx} type mismatch")),
    }
}

/// Deterministic pseudo-random `f32` in `[lo, hi)` from an index and seed
/// (splitmix64-based; identical in setup and reference code).
///
/// This is the series contract every generator keeps:
/// [`hash_series`]`(seed, n, lo, hi)[i] == hash_f32(seed, i, lo, hi)`
/// bit for bit.
pub fn hash_f32(seed: u64, i: u64, lo: f32, hi: f32) -> f32 {
    let unit = (splitmix(seed, i) >> 11) as f64 / (1u64 << 53) as f64;
    lo + (hi - lo) * unit as f32
}

/// Deterministic pseudo-random `u64` from an index and seed: element `i`
/// of splitmix64's stream for `seed` (Steele, Lea & Flood, OOPSLA 2014).
///
/// [`hash_indices`]`(seed, n, m)[i] == (hash_u64(seed, i) as usize % m) as i32`
/// bit for bit.
pub fn hash_u64(seed: u64, i: u64) -> u64 {
    splitmix(seed, i)
}

/// `n` values of [`hash_f32`] for indices `0..n`, bit for bit, as one
/// vector loop.
pub fn hash_series(seed: u64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    let mut out = vec![0.0; n];
    series_on(Tier::detect(), seed, lo, hi, &mut out);
    out
}

/// `n` indices in `0..m`: element `i` is
/// `(hash_u64(seed, i) as usize % m) as i32`, bit for bit.
///
/// # Panics
/// Panics if `m == 0` and `n > 0`, like the `%` it replaces.
pub fn hash_indices(seed: u64, n: usize, m: usize) -> Vec<i32> {
    let mut out = vec![0; n];
    indices_on(Tier::detect(), seed, m, &mut out);
    out
}

/// `h as usize % m`. A power-of-two `m` reduces with a mask, which is
/// exact; any other `m` divides.
#[inline(always)]
pub(crate) fn reduce(h: u64, m: usize) -> usize {
    if m.is_power_of_two() {
        h as usize & (m - 1)
    } else {
        h as usize % m
    }
}

const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

fn splitmix(seed: u64, i: u64) -> u64 {
    mix(seed.wrapping_add(i.wrapping_mul(GAMMA)).wrapping_add(GAMMA))
}

#[inline(always)]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Write `f(splitmix(seed, i))` to `out[i]`. The state is a running
/// counter, `seed + (i + 1)·γ` under wrapping arithmetic, so an element
/// costs the two multiplies of the finalizer and no index multiply.
#[inline(always)]
fn fill<T>(seed: u64, out: &mut [T], f: impl Fn(u64) -> T) {
    let mut z = seed.wrapping_add(GAMMA);
    for o in out {
        *o = f(mix(z));
        z = z.wrapping_add(GAMMA);
    }
}

/// [`hash_series`] on `tier`. The `i64` conversion is exact because the
/// value is below 2⁵³, and scaling by 2⁻⁵³ equals [`hash_f32`]'s divide;
/// unlike `u64`, `i64` converts without a fix-up.
fn series_on(tier: Tier, seed: u64, lo: f32, hi: f32, out: &mut [f32]) {
    tier_dispatch!(
        tier,
        fn series_avx2(seed: u64, lo: f32, hi: f32, out: &mut [f32]) {
            const UNIT: f64 = 1.0 / (1u64 << 53) as f64;
            fill(seed, out, |h| {
                let unit = (h >> 11) as i64 as f64 * UNIT;
                lo + (hi - lo) * unit as f32
            });
        }
    )
}

/// [`hash_indices`] on `tier`. The power-of-two test in [`reduce`] is
/// loop-invariant, so the compiler hoists it out of the loop.
fn indices_on(tier: Tier, seed: u64, m: usize, out: &mut [i32]) {
    tier_dispatch!(
        tier,
        fn indices_avx2(seed: u64, m: usize, out: &mut [i32]) {
            fill(seed, out, |h| reduce(h, m) as i32);
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_accepts_rounding_noise() {
        assert!(approx_eq_f32(1.0, 1.0 + 1e-6));
        assert!(!approx_eq_f32(1.0, 1.01));
        assert!(approx_eq_f32(f32::NAN, f32::NAN));
        assert!(!approx_eq_f32(f32::NAN, 1.0));
        assert!(approx_eq_f32(0.0, 1e-6));
    }

    #[test]
    fn hash_f32_is_deterministic_and_in_range() {
        for i in 0..100 {
            let v = hash_f32(7, i, -2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
            assert_eq!(v, hash_f32(7, i, -2.0, 3.0));
        }
        assert_ne!(hash_f32(7, 0, 0.0, 1.0), hash_f32(8, 0, 0.0, 1.0));
    }

    /// Both codegen tiers this CPU runs: the portable one and the widest.
    fn tiers() -> [Tier; 2] {
        [Tier::Portable, Tier::detect()]
    }

    const LENS: [usize; 5] = [0, 1, 3, 64, 4097];
    // At `u64::MAX` the counter's start, `seed + γ`, already wraps.
    const SEEDS: [u64; 3] = [0, 7, u64::MAX];

    #[test]
    fn series_fill_matches_hash_f32_on_every_tier() {
        for tier in tiers() {
            for n in LENS {
                for seed in SEEDS {
                    for (lo, hi) in [(-1.0, 1.0), (0.25, 10.0), (300.0, 350.0)] {
                        let mut got = vec![f32::NAN; n];
                        series_on(tier, seed, lo, hi, &mut got);
                        for (i, g) in got.iter().enumerate() {
                            let want = hash_f32(seed, i as u64, lo, hi);
                            assert_eq!(
                                g.to_bits(),
                                want.to_bits(),
                                "{tier:?} seed {seed} n {n} [{lo}, {hi}) at {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn index_fill_matches_hash_u64_modulo_on_every_tier() {
        for tier in tiers() {
            for n in LENS {
                for seed in SEEDS {
                    for m in [1, 3, 1000, 1024, 1 << 20] {
                        let mut got = vec![-1; n];
                        indices_on(tier, seed, m, &mut got);
                        for (i, &g) in got.iter().enumerate() {
                            let want = (hash_u64(seed, i as u64) as usize % m) as i32;
                            assert_eq!(g, want, "{tier:?} seed {seed} n {n} m {m} at {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn compare_buffers_reports_position() {
        let e = BufferData::F32(vec![1.0, 2.0]);
        let g = BufferData::F32(vec![1.0, 3.0]);
        let err = compare_buffers("x", 0, &e, &g).unwrap_err();
        assert!(err.contains("[1]"), "{err}");
        assert!(compare_buffers("x", 0, &e, &e.clone()).is_ok());
    }

    #[test]
    fn compare_buffers_rejects_type_and_len_mismatch() {
        let f = BufferData::F32(vec![1.0]);
        let i = BufferData::I32(vec![1]);
        assert!(compare_buffers("x", 0, &f, &i).is_err());
        let short = BufferData::F32(vec![]);
        assert!(compare_buffers("x", 0, &f, &short).is_err());
    }
}
