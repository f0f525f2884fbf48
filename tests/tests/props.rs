//! Property-based tests over the system's core invariants.

use hetpart_inspire::compile;
use hetpart_inspire::vm::{ArgValue, BufferData, Vm};
use hetpart_inspire::NdRange;
use hetpart_ml::StandardScaler;
use hetpart_runtime::Partition;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Partition-space invariants
// ---------------------------------------------------------------------

/// Arbitrary valid share vectors: compositions of 10 into 1..=4 parts.
fn shares_strategy() -> impl Strategy<Value = Vec<u8>> {
    (1usize..=4)
        .prop_flat_map(|n| proptest::collection::vec(0u8..=10, n))
        .prop_filter_map("must sum to 10", |mut v| {
            let sum: u32 = v.iter().map(|&s| u32::from(s)).sum();
            if sum == 0 {
                return None;
            }
            // Rescale the last entry so the vector sums to exactly 10.
            let partial: u32 = v[..v.len() - 1].iter().map(|&s| u32::from(s)).sum();
            if partial > 10 {
                return None;
            }
            let last = v.len() - 1;
            v[last] = (10 - partial) as u8;
            Some(v)
        })
}

proptest! {
    #[test]
    fn chunks_always_tile_the_extent(shares in shares_strategy(), extent in 1usize..100_000) {
        let p = Partition::from_tenths(shares);
        let chunks = p.chunks(extent);
        let mut pos = 0;
        for c in &chunks {
            prop_assert_eq!(c.start, pos);
            pos = c.end;
        }
        prop_assert_eq!(pos, extent);
    }

    #[test]
    fn chunk_sizes_track_shares(shares in shares_strategy(), extent in 1000usize..100_000) {
        let p = Partition::from_tenths(shares.clone());
        let chunks = p.chunks(extent);
        for (share, chunk) in shares.iter().zip(&chunks) {
            let ideal = extent as f64 * f64::from(*share) / 10.0;
            // Cumulative rounding keeps every chunk within 1 element of
            // its ideal proportional size.
            prop_assert!((chunk.len() as f64 - ideal).abs() <= 1.0);
        }
    }

    #[test]
    fn scaler_output_is_bounded_for_bounded_input(
        rows in proptest::collection::vec(
            proptest::collection::vec(-1e6f64..1e6, 4), 2..40)
    ) {
        let sc = StandardScaler::fit(&rows);
        for row in sc.transform(&rows) {
            for v in row {
                prop_assert!(v.is_finite());
                // z-scores of n samples are bounded by sqrt(n-1).
                prop_assert!(v.abs() <= (rows.len() as f64).sqrt() + 1e-9);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Compiler/VM oracle: random integer expressions must evaluate exactly
// like a reference evaluator with C wrap semantics.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum IExpr {
    Const(i32),
    Gid,
    Add(Box<IExpr>, Box<IExpr>),
    Sub(Box<IExpr>, Box<IExpr>),
    Mul(Box<IExpr>, Box<IExpr>),
    And(Box<IExpr>, Box<IExpr>),
    Or(Box<IExpr>, Box<IExpr>),
    Xor(Box<IExpr>, Box<IExpr>),
    Shl(Box<IExpr>, u8),
    Shr(Box<IExpr>, u8),
    Neg(Box<IExpr>),
    Min(Box<IExpr>, Box<IExpr>),
    Max(Box<IExpr>, Box<IExpr>),
}

impl IExpr {
    fn to_source(&self) -> String {
        match self {
            IExpr::Const(v) => {
                // Negative literals need parens to survive as primary exprs.
                if *v < 0 {
                    format!("(0 - {})", i64::from(*v).abs())
                } else {
                    format!("{v}")
                }
            }
            IExpr::Gid => "i".to_string(),
            IExpr::Add(a, b) => format!("({} + {})", a.to_source(), b.to_source()),
            IExpr::Sub(a, b) => format!("({} - {})", a.to_source(), b.to_source()),
            IExpr::Mul(a, b) => format!("({} * {})", a.to_source(), b.to_source()),
            IExpr::And(a, b) => format!("({} & {})", a.to_source(), b.to_source()),
            IExpr::Or(a, b) => format!("({} | {})", a.to_source(), b.to_source()),
            IExpr::Xor(a, b) => format!("({} ^ {})", a.to_source(), b.to_source()),
            IExpr::Shl(a, k) => format!("({} << {})", a.to_source(), k),
            IExpr::Shr(a, k) => format!("({} >> {})", a.to_source(), k),
            IExpr::Neg(a) => format!("(-{})", a.to_source()),
            IExpr::Min(a, b) => format!("min({}, {})", a.to_source(), b.to_source()),
            IExpr::Max(a, b) => format!("max({}, {})", a.to_source(), b.to_source()),
        }
    }

    /// Reference semantics: 32-bit wrapping, shifts modulo 32.
    fn eval(&self, i: i32) -> i32 {
        match self {
            IExpr::Const(v) => *v,
            IExpr::Gid => i,
            IExpr::Add(a, b) => a.eval(i).wrapping_add(b.eval(i)),
            IExpr::Sub(a, b) => a.eval(i).wrapping_sub(b.eval(i)),
            IExpr::Mul(a, b) => a.eval(i).wrapping_mul(b.eval(i)),
            IExpr::And(a, b) => a.eval(i) & b.eval(i),
            IExpr::Or(a, b) => a.eval(i) | b.eval(i),
            IExpr::Xor(a, b) => a.eval(i) ^ b.eval(i),
            IExpr::Shl(a, k) => a.eval(i).wrapping_shl(u32::from(*k) & 31),
            IExpr::Shr(a, k) => a.eval(i).wrapping_shr(u32::from(*k) & 31),
            IExpr::Neg(a) => a.eval(i).wrapping_neg(),
            IExpr::Min(a, b) => a.eval(i).min(b.eval(i)),
            IExpr::Max(a, b) => a.eval(i).max(b.eval(i)),
        }
    }
}

fn iexpr_strategy() -> impl Strategy<Value = IExpr> {
    let leaf = prop_oneof![
        (-1000i32..1000).prop_map(IExpr::Const),
        Just(IExpr::Gid),
        (0i32..i32::MAX).prop_map(IExpr::Const),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| IExpr::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| IExpr::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| IExpr::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| IExpr::And(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| IExpr::Or(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| IExpr::Xor(a.into(), b.into())),
            (inner.clone(), 0u8..40).prop_map(|(a, k)| IExpr::Shl(a.into(), k)),
            (inner.clone(), 0u8..40).prop_map(|(a, k)| IExpr::Shr(a.into(), k)),
            inner.clone().prop_map(|a| IExpr::Neg(a.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| IExpr::Min(a.into(), b.into())),
            (inner.clone(), inner).prop_map(|(a, b)| IExpr::Max(a.into(), b.into())),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn compiled_expressions_match_reference_semantics(expr in iexpr_strategy()) {
        let src = format!(
            "kernel void f(global int* out) {{
                 int i = get_global_id(0);
                 out[i] = {};
             }}",
            expr.to_source()
        );
        let kernel = compile(&src).unwrap_or_else(|e| panic!("source {src}\nerror {e}"));
        let n = 16usize;
        let mut bufs = vec![BufferData::I32(vec![0; n])];
        let mut vm = Vm::new();
        vm.run_range(&kernel.bytecode, &NdRange::d1(n), 0..n, &[ArgValue::Buffer(0)], &mut bufs)
            .unwrap();
        let got = bufs[0].as_i32().unwrap();
        for (i, g) in got.iter().enumerate() {
            let want = expr.eval(i as i32);
            prop_assert_eq!(*g, want, "expr {} at i={}", expr.to_source(), i);
        }
    }
}

// ---------------------------------------------------------------------
// Pretty-printer round-trip over the whole benchmark suite
// ---------------------------------------------------------------------

#[test]
fn every_suite_kernel_roundtrips_through_the_pretty_printer() {
    for bench in hetpart_suite::all() {
        let k1 = bench.compile();
        let text = hetpart_inspire::pretty::pretty(&k1.ir);
        let k2 = compile(&text).unwrap_or_else(|e| {
            panic!(
                "{}: pretty output failed to recompile: {e}\n{text}",
                bench.name
            )
        });
        assert_eq!(
            k1.static_features, k2.static_features,
            "{}: features changed across round-trip",
            bench.name
        );
    }
}

// ---------------------------------------------------------------------
// Interval arithmetic soundness against concrete i64 evaluation
// ---------------------------------------------------------------------

use hetpart_inspire::access::Interval;

/// Magnitude that exercises `i64` overflow in `mul` (2^41 * 2^41 > 2^63)
/// while keeping `add`/`sub` mostly in range, with plenty of negative
/// operands.
const IV_MAG: i64 = 1 << 41;

/// Deterministic sample point inside `[lo, hi]`.
fn iv_pick(lo: i64, hi: i64, s: u64) -> i64 {
    let span = (i128::from(hi) - i128::from(lo) + 1) as u128;
    (i128::from(lo) + (u128::from(s) % span) as i128) as i64
}

/// The soundness contract of every abstract operator: a `Range` result
/// must contain the exact (non-wrapped) concrete result; `Top` is always
/// sound.
fn iv_sound(result: Interval, exact: i128) -> bool {
    match result {
        Interval::Top => true,
        Interval::Range(lo, hi) => i128::from(lo) <= exact && exact <= i128::from(hi),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]
    #[test]
    fn interval_ops_contain_concrete_results(
        p in (
            (-IV_MAG..IV_MAG, -IV_MAG..IV_MAG),
            (-IV_MAG..IV_MAG, -IV_MAG..IV_MAG),
            (0u64..u64::MAX, 0u64..u64::MAX),
        )
    ) {
        let ((a, b), (c, d), (s, t)) = p;
        let (xlo, xhi) = (a.min(b), a.max(b));
        let (ylo, yhi) = (c.min(d), c.max(d));
        let x = Interval::Range(xlo, xhi);
        let y = Interval::Range(ylo, yhi);
        let px = iv_pick(xlo, xhi, s);
        let py = iv_pick(ylo, yhi, t);
        prop_assert!(x.contains(px) && y.contains(py));

        let (pxw, pyw) = (i128::from(px), i128::from(py));
        prop_assert!(iv_sound(x.add(y), pxw + pyw), "add {x:?} {y:?} @ {px} {py}");
        prop_assert!(iv_sound(x.sub(y), pxw - pyw), "sub {x:?} {y:?} @ {px} {py}");
        prop_assert!(iv_sound(x.mul(y), pxw * pyw), "mul {x:?} {y:?} @ {px} {py}");
        prop_assert!(iv_sound(x.min_i(y), pxw.min(pyw)), "min {x:?} {y:?}");
        prop_assert!(iv_sound(x.max_i(y), pxw.max(pyw)), "max {x:?} {y:?}");
        if py != 0 {
            // Truncated division/remainder, including negative operands —
            // the ops must either refuse (⊤) or contain the exact result.
            prop_assert!(iv_sound(x.div(y), pxw / pyw), "div {x:?} {y:?} @ {px} {py}");
            prop_assert!(iv_sound(x.rem(y), pxw % pyw), "rem {x:?} {y:?} @ {px} {py}");
        }

        // The lattice join: union covers both points.
        prop_assert!(x.union(y).contains(px) && x.union(y).contains(py));
    }

    #[test]
    fn interval_ops_with_top_are_sound(q in (-IV_MAG..IV_MAG, -IV_MAG..IV_MAG, 0u64..u64::MAX)) {
        let (a, b, s) = q;
        let x = Interval::Range(a.min(b), a.max(b));
        let px = iv_pick(a.min(b), a.max(b), s);
        for r in [
            x.add(Interval::Top),
            Interval::Top.sub(x),
            x.mul(Interval::Top),
            x.div(Interval::Top),
            x.rem(Interval::Top),
            x.union(Interval::Top),
        ] {
            prop_assert_eq!(r, Interval::Top);
        }
        prop_assert!(Interval::Top.contains(px));
    }
}
