//! Deterministic `tanh` and `exp` for the MLP, and `ln` for the
//! predictor's feature compression.
//!
//! The host libm's `f64::tanh`, `f64::exp` and `f64::ln` are not one
//! function on every host: glibc, for one, picks FMA variants of them at
//! load time on a CPU with FMA, and those differ from the plain ones in
//! the last bit. Fitted weights would follow the host. The functions here
//! are written from fdlibm's algorithms (`s_tanh.c`, `s_expm1.c`,
//! `e_exp.c` and `e_log.c`, <https://www.netlib.org/fdlibm/>) with only
//! `+ − × ÷`, compares, `abs`/`copysign`/`trunc` and bit operations.
//! IEEE 754 fixes the result of each of these, and Rust never fuses them
//! into a multiply-add, so every host computes the same bits. They stay
//! within 3 ulp of the host libm (the tests check it).
//!
//! [`tanh_panel`] is [`tanh`] over the lanes of a feature-major panel
//! without a branch: every case of the algorithm runs on every lane and
//! a bit-mask blend picks each lane's result, so the loop vectorizes
//! inside the MLP's training kernels. It is bit-identical to [`tanh`] on
//! every lane.

use crate::mlp::PANEL;

/// `ln 2` split for Cody–Waite reduction: `LN2_HI` has its low 32 bits
/// clear, so `k·LN2_HI` is exact for every `k` that occurs.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);

/// `e_exp.c`'s polynomial for `R(r²) ≈ r·(eʳ + 1)/(eʳ − 1)` on
/// `|r| ≤ 0.5·ln 2`.
const P: [f64; 5] = [
    f64::from_bits(0x3fc5_5555_5555_553e),
    f64::from_bits(0xbf66_c16c_16be_bd93),
    f64::from_bits(0x3f11_566a_af25_de2c),
    f64::from_bits(0xbebb_bd41_c5d2_6bf1),
    f64::from_bits(0x3e66_3769_72be_a4d0),
];

/// `s_expm1.c`'s scaled polynomial on `|r| ≤ 0.5·ln 2`.
const Q: [f64; 5] = [
    f64::from_bits(0xbfa1_1111_1111_10f4),
    f64::from_bits(0x3f5a_01a0_19fe_5585),
    f64::from_bits(0xbf14_ce19_9eaa_dbb7),
    f64::from_bits(0x3ed0_cfca_86e6_5239),
    f64::from_bits(0xbe8a_fdb7_6e09_c32d),
];

/// fdlibm tests the high 32 bits of `|x|` against thresholds. `|x| ≥
/// bound(h)` holds exactly when those bits are `≥ h` (for non-NaN `x`).
const fn bound(high: u64) -> f64 {
    f64::from_bits(high << 32)
}

/// Below `2^-55`, `tanh(x)` rounds to `x`.
const TANH_TINY: f64 = bound(0x3c80_0000);
/// From 22 on, `tanh(x)` rounds to `±1`.
const TANH_SAT: f64 = bound(0x4036_0000);
/// High word above `0x3fd62e42`: `|x| > 0.5·ln 2`, so reduce by `k·ln 2`.
const REDUCE: f64 = bound(0x3fd6_2e43);
/// Below `2^-28`, `exp(x)` rounds to `1 + x`.
const EXP_TINY: f64 = bound(0x3e30_0000);
/// `ln(f64::MAX)`: above it `exp` overflows.
const EXP_OVER: f64 = f64::from_bits(0x4086_2e42_fefa_39ef);
/// Below it `exp` underflows to `+0`.
const EXP_UNDER: f64 = f64::from_bits(0xc087_4910_d52d_3051);
/// `2^-1000`, for results that fall below the normal range.
const TWO_M1000: f64 = bound(0x0170_0000);
/// `e_log.c`'s polynomial for `(ln((1 + s)/(1 − s)) − 2s)/s` in `s²`.
const LG: [f64; 7] = [
    f64::from_bits(0x3fe5_5555_5555_5593),
    f64::from_bits(0x3fd9_9999_9997_fa04),
    f64::from_bits(0x3fd2_4924_9422_9359),
    f64::from_bits(0x3fcc_71c5_1d8e_78af),
    f64::from_bits(0x3fc7_4664_96cb_03de),
    f64::from_bits(0x3fc3_9a09_d078_c69f),
    f64::from_bits(0x3fc2_f112_df3e_5244),
];
/// `2^54`, to scale a subnormal argument of `ln` into the normal range.
const TWO54: f64 = bound(0x4350_0000);
/// The `1/3` of `e_log.c`'s short series.
const ONE_THIRD: f64 = f64::from_bits(0x3fd5_5555_5555_5555);
/// `1.5·2^52`: adding it to an integer-valued `f64` of magnitude below
/// `2^51` puts the integer, two's complement, in the low mantissa bits.
const MAGIC: f64 = 6_755_399_441_055_744.0;

/// `tanh(x)`, by `s_tanh.c`.
pub(crate) fn tanh(x: f64) -> f64 {
    let ax = x.abs();
    if x.is_nan() {
        return x;
    }
    if ax >= TANH_SAT {
        return 1.0f64.copysign(x);
    }
    if ax < TANH_TINY {
        // Keeps the sign of zero.
        return x * (1.0 + x);
    }
    let z = if ax >= 1.0 {
        let t = expm1(2.0 * ax);
        1.0 - 2.0 / (t + 2.0)
    } else {
        let t = expm1(-2.0 * ax);
        -t / (t + 2.0)
    };
    z.copysign(x)
}

/// `eˣ − 1`, by `s_expm1.c`, on the arguments [`tanh`] passes:
/// `2^-54 ≤ |x| < 44`. (fdlibm's overflow, saturation and tiny-argument
/// cases lie outside it.)
fn expm1(x: f64) -> f64 {
    let kf = if x.abs() >= REDUCE { nearest_k(x) } else { 0.0 };
    let (r, e) = expm1_kernel(x, kf);
    let k = int_bits(kf);
    match k as i64 {
        0 => r - e,
        -1 => 0.5 * (r - e) - 0.5,
        1 if r < -0.25 => -2.0 * (e - (r + 0.5)),
        1 => 1.0 + 2.0 * (r - e),
        2..=19 => scale((1.0 - pow2(k.wrapping_neg())) - (e - r), k),
        20..=56 => scale((r - (e + pow2(k.wrapping_neg()))) + 1.0, k),
        _ => scale(1.0 - (e - r), k) - 1.0,
    }
}

/// `eˣ`, by `e_exp.c`.
pub(crate) fn exp(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if x > EXP_OVER {
        return f64::INFINITY;
    }
    if x < EXP_UNDER {
        return 0.0;
    }
    let ax = x.abs();
    if ax < EXP_TINY {
        return 1.0 + x;
    }
    let kf = if ax >= REDUCE { nearest_k(x) } else { 0.0 };
    let (hi, lo, r) = reduce(x, kf);
    let t = r * r;
    let c = r - t * (P[0] + t * (P[1] + t * (P[2] + t * (P[3] + t * P[4]))));
    let k = int_bits(kf);
    if k == 0 {
        return 1.0 - ((r * c) / (c - 2.0) - r);
    }
    let y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    if k as i64 >= -1021 {
        scale(y, k)
    } else {
        scale(y, k.wrapping_add(1000)) * TWO_M1000
    }
}

/// `ln(x)`, by fdlibm's `e_log.c`: unlike `f64::ln`, the same bits on
/// every host. The predictor's feature compression uses it, so the
/// model's inputs do not depend on the host libm either.
pub fn ln(x: f64) -> f64 {
    if x == 0.0 {
        return f64::NEG_INFINITY;
    }
    if x.is_nan() || x < 0.0 {
        return f64::NAN;
    }
    if x == f64::INFINITY {
        return x;
    }
    let (x, mut k) = if x < f64::MIN_POSITIVE {
        (x * TWO54, -54)
    } else {
        (x, 0)
    };
    // x = 2^k·(1 + f) with 1 + f in [√2/2, √2).
    let hx = (x.to_bits() >> 32) as i64;
    k += (hx >> 20) - 1023;
    let hx = hx & 0x000f_ffff;
    let i = (hx + 0x9_5f64) & 0x10_0000;
    let m = f64::from_bits(((hx | (i ^ 0x3ff0_0000)) as u64) << 32 | (x.to_bits() & 0xffff_ffff));
    k += i >> 20;
    let f = m - 1.0;
    let dk = k as f64;
    if (0x000f_ffff & (2 + hx)) < 3 {
        // |f| < 2^-20.
        if f == 0.0 {
            return dk * LN2_HI + dk * LN2_LO;
        }
        let r = f * f * (0.5 - ONE_THIRD * f);
        return if k == 0 {
            f - r
        } else {
            dk * LN2_HI - ((r - dk * LN2_LO) - f)
        };
    }
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG[1] + w * (LG[3] + w * LG[5]));
    let t2 = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6])));
    let r = t2 + t1;
    if ((hx - 0x6_147a) | (0x6_b851 - hx)) > 0 {
        let hfsq = 0.5 * f * f;
        if k == 0 {
            f - (hfsq - s * (hfsq + r))
        } else {
            dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f)
        }
    } else if k == 0 {
        f - s * (f - r)
    } else {
        dk * LN2_HI - ((s * (f - r) - dk * LN2_LO) - f)
    }
}

/// [`tanh`] on every lane of `v`, branch-free. Inline it into its
/// caller: compiled on its own it runs on the baseline target's scalar
/// registers whatever tier calls it.
#[inline(always)]
pub(crate) fn tanh_panel(v: &mut [f64; PANEL]) {
    for x in v {
        *x = tanh_lane(*x);
    }
}

/// [`tanh`] with every case computed and the result blended, in
/// reverse order of [`tanh`]'s tests.
#[inline(always)]
fn tanh_lane(x: f64) -> f64 {
    let ax = x.abs();
    let big = ax >= 1.0;
    let t = expm1_lane(blend(big, 2.0 * ax, -2.0 * ax));
    // `1 − 2/(t + 2)` or `−t/(t + 2)`, with one division.
    let q = blend(big, 2.0, -t) / (t + 2.0);
    let z = blend(big, 1.0 - q, q).copysign(x);
    let z = blend(ax < TANH_TINY, x * (1.0 + x), z);
    let z = blend(ax >= TANH_SAT, 1.0f64.copysign(x), z);
    blend(x.is_nan(), x, z)
}

/// [`expm1`] with every case computed and the result blended.
#[inline(always)]
fn expm1_lane(x: f64) -> f64 {
    let kf = blend(x.abs() >= REDUCE, nearest_k(x), 0.0);
    let (r, e) = expm1_kernel(x, kf);
    let k = int_bits(kf);
    let two_mk = pow2(k.wrapping_neg());
    let far = (kf <= -2.0) | (kf > 56.0);
    let mid = blend(
        kf < 20.0,
        (1.0 - two_mk) - (e - r),
        (r - (e + two_mk)) + 1.0,
    );
    let y = scale(blend(far, 1.0 - (e - r), mid), k);
    let y = blend(far, y - 1.0, y);
    let one = blend(r < -0.25, -2.0 * (e - (r + 0.5)), 1.0 + 2.0 * (r - e));
    let y = blend(kf == 1.0, one, y);
    let y = blend(kf == -1.0, 0.5 * (r - e) - 0.5, y);
    blend(kf == 0.0, r - e, y)
}

/// `a` where `m` holds, else `b`, by bit mask.
#[inline(always)]
fn blend(m: bool, a: f64, b: f64) -> f64 {
    let mask = u64::from(m).wrapping_neg();
    f64::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

/// fdlibm's `k`: `x/ln 2` rounded half away from zero, as a float.
#[inline(always)]
fn nearest_k(x: f64) -> f64 {
    (INV_LN2 * x + 0.5f64.copysign(x)).trunc()
}

/// The integer value of `kf`, two's complement (`|kf| < 2^51`).
#[inline(always)]
fn int_bits(kf: f64) -> u64 {
    (kf + MAGIC).to_bits().wrapping_sub(MAGIC.to_bits())
}

/// `2^k` for `k` (two's complement) in the normal exponent range.
#[inline(always)]
fn pow2(k: u64) -> f64 {
    f64::from_bits(k.wrapping_add(1023) << 52)
}

/// `y·2^k` by adding `k` to the exponent field, as fdlibm does: exact
/// while `y` and the result are normal.
#[inline(always)]
fn scale(y: f64, k: u64) -> f64 {
    f64::from_bits(y.to_bits().wrapping_add(k << 52))
}

/// `x = k·ln 2 + r`, `r = hi − lo`: returns `(hi, lo, r)`. `kf = 0`
/// leaves `r = x`.
#[inline(always)]
fn reduce(x: f64, kf: f64) -> (f64, f64, f64) {
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    (hi, lo, hi - lo)
}

/// `s_expm1.c` up to its case split: the reduced argument `r` and the
/// correction `e` with `eʳ − 1 = r − e` when `k = 0`.
#[inline(always)]
fn expm1_kernel(x: f64, kf: f64) -> (f64, f64) {
    let (hi, lo, r) = reduce(x, kf);
    let c = (hi - r) - lo;
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q[0] + hxs * (Q[1] + hxs * (Q[2] + hxs * (Q[3] + hxs * Q[4]))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    (r, (r * (e - c) - c) - hxs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Tier;

    #[test]
    fn constants_are_fdlibms() {
        // fdlibm prints each constant in decimal beside its hex words.
        let printed = [
            ("6.93147180369123816490e-01", LN2_HI),
            ("1.90821492927058770002e-10", LN2_LO),
            ("1.44269504088896338700e+00", INV_LN2),
            ("1.66666666666666019037e-01", P[0]),
            ("-2.77777777770155933842e-03", P[1]),
            ("6.61375632143793436117e-05", P[2]),
            ("-1.65339022054652515390e-06", P[3]),
            ("4.13813679705723846039e-08", P[4]),
            ("-3.33333333333331316428e-02", Q[0]),
            ("1.58730158725481460165e-03", Q[1]),
            ("-7.93650757867487942473e-05", Q[2]),
            ("4.00821782732936239552e-06", Q[3]),
            ("-2.01099218183624371326e-07", Q[4]),
            ("7.09782712893383973096e+02", EXP_OVER),
            ("-7.45133219101941108420e+02", EXP_UNDER),
            ("9.33263618503218878990e-302", TWO_M1000),
            ("6.666666666666735130e-01", LG[0]),
            ("3.999999999940941908e-01", LG[1]),
            ("2.857142874366239149e-01", LG[2]),
            ("2.222219843214978396e-01", LG[3]),
            ("1.818357216161805012e-01", LG[4]),
            ("1.531383769920937332e-01", LG[5]),
            ("1.479819860511658591e-01", LG[6]),
            ("1.80143985094819840000e+16", TWO54),
            ("0.33333333333333333", ONE_THIRD),
        ];
        for (text, c) in printed {
            assert_eq!(
                text.parse::<f64>().map(f64::to_bits),
                Ok(c.to_bits()),
                "{text}"
            );
        }
    }

    #[test]
    fn special_values_are_exact() {
        let bits = |v: f64| v.to_bits();
        assert_eq!(bits(tanh(0.0)), bits(0.0));
        assert_eq!(bits(tanh(-0.0)), bits(-0.0));
        assert_eq!(tanh(f64::INFINITY), 1.0);
        assert_eq!(tanh(f64::NEG_INFINITY), -1.0);
        assert!(tanh(f64::NAN).is_nan());
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(bits(exp(f64::NEG_INFINITY)), bits(0.0));
        assert!(exp(f64::NAN).is_nan());
        assert_eq!(exp(710.0), f64::INFINITY);
        assert_eq!(bits(exp(-746.0)), bits(0.0));
    }

    /// The high words fdlibm branches on, and `exp`'s two cut-offs.
    fn thresholds() -> Vec<u64> {
        let words = [
            0x3fd6_2e42u64,
            0x3ff0_a2b2,
            0x3c90_0000,
            0x3c80_0000,
            0x3ff0_0000,
            0x4036_0000,
            0x3e30_0000,
            0x4086_2e42,
            // `ln`'s √2 normalization and its two polynomial forms.
            0x3ff6_a09c,
            0x3ff6_147a,
            0x3ff6_b851,
        ];
        let mut t: Vec<u64> = words.iter().map(|w| w << 32).collect();
        t.extend([EXP_OVER.to_bits(), EXP_UNDER.to_bits() & !(1 << 63)]);
        t
    }

    /// A dense sweep of [−25, 25], every binade of both signs (its ends,
    /// its middle and one scrambled mantissa), and ±3 ulps around every
    /// threshold of both signs.
    fn sweep() -> Vec<f64> {
        const STEPS: u32 = 1 << 18;
        let mut xs: Vec<f64> = (0..=STEPS)
            .map(|i| -25.0 + 50.0 * f64::from(i) / f64::from(STEPS))
            .collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for exponent in 0..2047u64 {
            state = state.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
            for mantissa in [0, 1, 1 << 51, (1 << 52) - 1, state >> 12] {
                let b = exponent << 52 | mantissa;
                xs.extend([f64::from_bits(b), f64::from_bits(b | 1 << 63)]);
            }
        }
        for t in thresholds() {
            for d in 0..=6 {
                let b = (t + d).wrapping_sub(3);
                xs.extend([f64::from_bits(b), f64::from_bits(b | 1 << 63)]);
            }
        }
        xs
    }

    /// Distance in units in the last place, across zero.
    fn ulps(a: f64, b: f64) -> u64 {
        let key = |v: f64| {
            let b = v.to_bits() as i64;
            if b < 0 {
                -(b & i64::MAX)
            } else {
                b
            }
        };
        key(a).abs_diff(key(b))
    }

    type Unary = fn(f64) -> f64;

    /// Each port, beside the host libm's function.
    const FNS: [(&str, Unary, Unary); 3] = [
        ("tanh", tanh, f64::tanh),
        ("exp", exp, f64::exp),
        ("ln", ln, f64::ln),
    ];

    #[test]
    fn within_3_ulp_of_the_host_libm() {
        for (name, ours, libm) in FNS {
            for x in sweep() {
                let (got, want) = (ours(x), libm(x));
                if want.is_nan() {
                    assert!(got.is_nan(), "{name}({x:e}) = {got:e}, libm NaN");
                    continue;
                }
                let d = ulps(got, want);
                assert!(d <= 3, "{name}({x:e}) = {got:e}, libm {want:e}: {d} ulp");
            }
        }
    }

    /// FNV-1a over the bits of `tanh`, then `exp`, then `ln` at every
    /// sweep point. Host-independent, so the value is recorded once.
    #[test]
    fn outputs_over_the_sweep_match_the_golden_hash() {
        let xs = sweep();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in FNS.iter().flat_map(|(_, f, _)| xs.iter().map(|&x| f(x))) {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x8bb2_bcaf_e571_5c86, "{h:#018x}");
    }

    /// `tanh_panel` compiled with AVX2 enabled, as the training loop's
    /// AVX2 tier inlines it.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn tanh_panel_avx2(v: &mut [f64; PANEL]) {
        tanh_panel(v);
    }

    fn tanh_panel_on(tier: Tier, v: &mut [f64; PANEL]) {
        match tier {
            Tier::Portable => tanh_panel(v),
            // SAFETY: `Tier::Avx2` is only constructed after
            // `is_x86_feature_detected!("avx2")` returned true.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { tanh_panel_avx2(v) },
        }
    }

    #[test]
    fn panel_equals_scalar_on_every_lane_and_tier() {
        let mut xs = sweep();
        xs.extend([0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        for tier in [Tier::Portable, Tier::detect()] {
            // Offset by one lane per pass, so each point visits every lane.
            for shift in 0..PANEL {
                for chunk in xs[shift..].chunks(PANEL) {
                    let mut v = [0.5; PANEL];
                    v[..chunk.len()].copy_from_slice(chunk);
                    let want = v.map(|x| tanh(x).to_bits());
                    tanh_panel_on(tier, &mut v);
                    assert_eq!(v.map(f64::to_bits), want, "{tier:?}: {chunk:?}");
                }
            }
        }
    }
}
