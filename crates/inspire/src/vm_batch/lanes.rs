//! The lane sets the one op walk, [`LaneEngine::exec_dec`], runs over
//! (see [`LaneSet`]), and the compute kernels written once over them.
//!
//! The **active-lane mask** of a full batch is a prefix: the final batch
//! of a range may cover fewer than [`LANES`] items. Its lanes past the
//! live prefix are dead scratch, so every row pass that cannot fault runs
//! over all [`LANES`] lanes, with a trip count the compiler knows, and
//! may overwrite them (see [`Prefix`]). Gathers, scatters, their prescans,
//! integer-division walks, per-lane libm calls and every counter stay on
//! the live prefix.
//!
//! [`LaneEngine::exec_dec`]: super::LaneEngine::exec_dec
//! [`LANES`]: super::LANES

use std::ops::Range;

use super::mask::{ExecMask, Lanes};
use super::mem::{all_in_bounds, index_shape, Shape};
use super::tier::{Codegen, Row};
use crate::opt::decode::{DecOp, F_CONST, F_DIV};

/// `with_fsub!(sub, fimm, binary: |f| b, unary: |f| u, math: |f| m,
/// libm: |f| l, nullary: |f| c)`: decode the F-file micro-op `sub` (see
/// [`crate::opt::decode`]) and evaluate the body for its class with `f`
/// bound to its lane function of two operands (unary ops ignore the
/// second, the constant `fimm` both). `unary` covers mov, negate, sqrt
/// and fabs; `math` and `libm` the other unary math functions, whose
/// per-lane cost dwarfs the walk a fused pass saves: `math` rsqrt, floor
/// and ceil, `libm` the host libm calls exp, log, sin, cos and tan. The
/// short form `with_fsub!(sub, fimm, cheap: |f| body, math: fallback)`
/// evaluates one body for every class but `math` and `libm`, which
/// evaluate `fallback` instead.
///
/// Each arm instantiates its body with its own closure, so the loops in
/// the body stay monomorphic: one match per op, never per lane.
macro_rules! with_fsub {
    ($sub:expr, $fimm:expr, cheap: |$f:ident| $body:expr, math: $math:expr) => {
        with_fsub!(
            $sub,
            $fimm,
            binary: |$f| $body,
            unary: |$f| $body,
            math: |_f| $math,
            libm: |_f| $math,
            nullary: |$f| $body
        )
    };
    (
        $sub:expr,
        $fimm:expr,
        binary: |$fb:ident| $binary:expr,
        unary: |$fu:ident| $unary:expr,
        math: |$fm:ident| $math:expr,
        libm: |$fl:ident| $libm:expr,
        nullary: |$f0:ident| $nullary:expr
    ) => {{
        use $crate::opt::decode::{
            F_ADD, F_CEIL, F_COS, F_DIV, F_EXP, F_FABS, F_FLOOR, F_LOG, F_MOV, F_MUL, F_NEG,
            F_RSQRT, F_SIN, F_SQRT, F_SUB, F_TAN,
        };
        let fimm: f64 = $fimm;
        match $sub {
            F_ADD => {
                let $fb = |x: f64, y: f64| x + y;
                $binary
            }
            F_SUB => {
                let $fb = |x: f64, y: f64| x - y;
                $binary
            }
            F_MUL => {
                let $fb = |x: f64, y: f64| x * y;
                $binary
            }
            F_DIV => {
                let $fb = |x: f64, y: f64| x / y;
                $binary
            }
            F_MOV => {
                let $fu = |x: f64, _: f64| x;
                $unary
            }
            F_SQRT => {
                let $fu = |x: f64, _: f64| x.sqrt();
                $unary
            }
            F_RSQRT => {
                let $fm = |x: f64, _: f64| 1.0 / x.sqrt();
                $math
            }
            F_EXP => {
                let $fl = |x: f64, _: f64| x.exp();
                $libm
            }
            F_LOG => {
                let $fl = |x: f64, _: f64| x.ln();
                $libm
            }
            F_SIN => {
                let $fl = |x: f64, _: f64| x.sin();
                $libm
            }
            F_COS => {
                let $fl = |x: f64, _: f64| x.cos();
                $libm
            }
            F_TAN => {
                let $fl = |x: f64, _: f64| x.tan();
                $libm
            }
            F_FABS => {
                let $fu = |x: f64, _: f64| x.abs();
                $unary
            }
            F_FLOOR => {
                let $fm = |x: f64, _: f64| x.floor();
                $math
            }
            F_CEIL => {
                let $fm = |x: f64, _: f64| x.ceil();
                $math
            }
            F_NEG => {
                let $fu = |x: f64, _: f64| -x;
                $unary
            }
            _ => {
                let $f0 = move |_: f64, _: f64| fimm;
                $nullary
            }
        }
    }};
}
pub(super) use with_fsub;

/// `with_isub!(sub, |f| body)`: [`with_fsub!`] for the I-file micro-ops
/// (the non-faulting binops, signedness in bit 7).
macro_rules! with_isub {
    ($sub:expr, |$f:ident| $body:expr) => {{
        use $crate::opt::decode::I_UNSIGNED;
        use $crate::vm::wrap32;
        let sub: u8 = $sub;
        let u = sub & I_UNSIGNED != 0;
        match sub & !I_UNSIGNED {
            0 => {
                let $f = move |x: i64, y: i64| wrap32(x.wrapping_add(y), u);
                $body
            }
            1 => {
                let $f = move |x: i64, y: i64| wrap32(x.wrapping_sub(y), u);
                $body
            }
            _ => {
                let $f = move |x: i64, y: i64| wrap32(x.wrapping_mul(y), u);
                $body
            }
        }
    }};
}

/// The lanes one op walk runs over: [`Prefix`], the live prefix of a
/// batch, or [`Masked`] or [`Select`], the active lanes of a partial
/// mask walked one at a time or computed at full width with only the
/// active ones stored. A lane set supplies loop shapes only, and the
/// defaults are the walk over [`LaneSet::lanes`]. The row passes
/// (`map1`, `map2`, `zip1`, `zip2`, `fill`) may also write lanes outside
/// the set that hold no live state; the walks that can fault, the libm
/// passes and the counters visit exactly [`LaneSet::lanes`]. What every
/// op computes — its semantics, the sub-op decoding, the memory checks
/// and the superinstruction logic — is written once, in
/// [`LaneEngine::exec_dec`] and its helpers, and instantiated per set.
///
/// [`LaneEngine::exec_dec`]: super::LaneEngine::exec_dec
pub(super) trait LaneSet: Copy {
    /// Whether the set is walked lane by lane. Such a walk cannot be
    /// widened, so it inlines every helper (see `inline_if!`).
    const MASKED: bool;

    type Lanes: Iterator<Item = usize>;

    /// The lanes in ascending (= item) order: the order in which the
    /// loops that can fault visit them.
    fn lanes(self) -> Self::Lanes;

    /// The number of lanes.
    fn count(self) -> u64;

    /// `dst[l] = f(a[l], b[l])` within one register file, for an `f` that
    /// cannot fault; any operand may alias `dst`.
    fn map2<K: Codegen, T: Copy, F: Fn(T, T) -> T>(
        self,
        regs: &mut [Row<T>],
        dst: u16,
        a: u16,
        b: u16,
        f: F,
    );

    /// `dst[l] = f(a[l])` within one register file, for an `f` that cannot
    /// fault.
    fn map1<K: Codegen, T: Copy, F: Fn(T) -> T>(self, regs: &mut [Row<T>], dst: u16, a: u16, f: F);

    /// `d[l] = f(x[l])` from a row that cannot alias `d`; by default a
    /// walk over the lanes.
    #[inline(always)]
    fn zip1<T: Copy, U, F: Fn(T) -> U>(self, d: &mut Row<U>, x: &Row<T>, f: F) {
        for l in self.lanes() {
            d[l] = f(x[l]);
        }
    }

    /// `d[l] = f(x[l], y[l])` from rows that cannot alias `d`; by default
    /// a walk over the lanes.
    #[inline(always)]
    fn zip2<T: Copy, U, F: Fn(T, T) -> U>(self, d: &mut Row<U>, x: &Row<T>, y: &Row<T>, f: F) {
        for l in self.lanes() {
            d[l] = f(x[l], y[l]);
        }
    }

    /// `d[l] = v`; by default a walk over the lanes.
    #[inline(always)]
    fn fill<T: Copy>(self, d: &mut Row<T>, v: T) {
        for l in self.lanes() {
            d[l] = v;
        }
    }

    /// `dst[l] = f(a[l])` for a host libm call (`exp`, `log`, `sin`, `cos`,
    /// `tan`): a walk over the lanes on every set. The call costs as much
    /// on a lane outside the set as on one inside, and no vector width
    /// widens it.
    #[inline(always)]
    fn libm1<T: Copy, F: Fn(T) -> T>(self, regs: &mut [Row<T>], dst: u16, a: u16, f: F) {
        walk1(self, regs, dst, a, f);
    }

    /// `dst[l] = f(a[l], b[l])` for a host libm call (`pow`, `fmod`); see
    /// [`LaneSet::libm1`].
    #[inline(always)]
    fn libm2<T: Copy, F: Fn(T, T) -> T>(self, regs: &mut [Row<T>], dst: u16, a: u16, b: u16, f: F) {
        walk2(self, regs, dst, a, b, f);
    }

    /// The in-bounds prescan: `true` lets a checked access skip its
    /// faulting walk, and a fused memory pair run as one pass. By default
    /// `false`, with no prescan: over scattered active lanes the checked
    /// walk tests each index as it goes, where a separate scan would be a
    /// second walk, and an inactive lane's index may be out of bounds
    /// without the access faulting.
    #[inline(always)]
    fn in_bounds(self, _idx: &Row<i64>, _len: usize) -> bool {
        false
    }

    /// The shape of index row `idx` over the set, which lets a gather
    /// run as one row pass (see [`gather_row`](super::mem::gather_row)).
    /// By default never looked at: a walk over scattered active lanes
    /// gains nothing from a row pass.
    #[inline(always)]
    fn shape(self, _idx: &Row<i64>) -> Shape {
        Shape::Scattered
    }

    /// A fused `FOp2` under the set's pair policy; by default two row
    /// passes, one per half.
    #[inline(always)]
    fn fop2<K: Codegen>(self, fregs: &mut [Row<f64>], op: &DecOp) {
        apply_f::<K, _>(self, fregs, op.c, op.a, op.b, op.sub1, op.fimm);
        apply_f::<K, _>(self, fregs, op.dst, op.d, op.e, op.sub2, op.fimm);
    }

    /// A fused `IOp2` under the set's pair policy; by default two row
    /// passes, one per half.
    #[inline(always)]
    fn iop2<K: Codegen>(self, iregs: &mut [Row<i64>], op: &DecOp) {
        apply_i::<K, _>(self, iregs, op.c, op.a, op.b, op.sub1);
        apply_i::<K, _>(self, iregs, op.dst, op.d, op.e, op.sub2);
    }
}

/// The first `n` lanes of a batch, all active. Lanes `n..` exist only in
/// the final batch of a range and hold no live state, so the row passes
/// run over all [`LANES`](super::LANES) lanes: loops with a constant trip
/// count and no tail, which the optimizer vectorizes fully, and which may
/// overwrite the dead lanes. Everything that can fault or is counted —
/// gathers, scatters, their shape and bounds prescans, integer-division
/// walks — and the libm passes stay on `[..n]`, so a dead lane's stale
/// operands are never used.
#[derive(Clone, Copy)]
pub(super) struct Prefix(pub(super) usize);

impl LaneSet for Prefix {
    const MASKED: bool = false;

    type Lanes = Range<usize>;

    #[inline(always)]
    fn lanes(self) -> Range<usize> {
        0..self.0
    }

    #[inline(always)]
    fn count(self) -> u64 {
        self.0 as u64
    }

    #[inline(always)]
    fn map2<K: Codegen, T: Copy, F: Fn(T, T) -> T>(
        self,
        regs: &mut [Row<T>],
        dst: u16,
        a: u16,
        b: u16,
        f: F,
    ) {
        K::apply2(regs, dst, a, b, |_, _, x, y| f(x, y));
    }

    #[inline(always)]
    fn map1<K: Codegen, T: Copy, F: Fn(T) -> T>(self, regs: &mut [Row<T>], dst: u16, a: u16, f: F) {
        K::apply1(regs, dst, a, |_, _, x| f(x));
    }

    #[inline(always)]
    fn zip1<T: Copy, U, F: Fn(T) -> U>(self, d: &mut Row<U>, x: &Row<T>, f: F) {
        for (d, &x) in d.iter_mut().zip(x.iter()) {
            *d = f(x);
        }
    }

    #[inline(always)]
    fn zip2<T: Copy, U, F: Fn(T, T) -> U>(self, d: &mut Row<U>, x: &Row<T>, y: &Row<T>, f: F) {
        for ((d, &x), &y) in d.iter_mut().zip(x.iter()).zip(y.iter()) {
            *d = f(x, y);
        }
    }

    #[inline(always)]
    fn fill<T: Copy>(self, d: &mut Row<T>, v: T) {
        d.fill(v);
    }

    /// One vectorized min/max pass over the live index row.
    #[inline(always)]
    fn in_bounds(self, idx: &Row<i64>, len: usize) -> bool {
        all_in_bounds(idx, self.0, len)
    }

    #[inline(always)]
    fn shape(self, idx: &Row<i64>) -> Shape {
        index_shape(idx, self.0)
    }

    /// Two mono passes (as `iop2`) — the unfused execution minus one
    /// dispatch, with a `ConstF` first half folded (see [`const_fop2`]). A
    /// single loop carrying the intermediate in a register was tried here
    /// and measured *slower* than the two passes on every suite kernel
    /// (the two-output chain loop defeats the vectorizer); the masked set
    /// keeps its chain loop, where per-lane interleaving wins over a
    /// second pass across the scattered active set.
    #[inline(always)]
    fn fop2<K: Codegen>(self, fregs: &mut [Row<f64>], op: &DecOp) {
        if op.sub1 == F_CONST {
            return const_fop2::<K>(self, fregs, op);
        }
        apply_f::<K, _>(self, fregs, op.c, op.a, op.b, op.sub1, op.fimm);
        apply_f::<K, _>(self, fregs, op.dst, op.d, op.e, op.sub2, op.fimm);
    }
}

/// The active lanes of a partial mask: loops walk the set bits one lane
/// at a time, so inactive lanes — live state of diverged lane subsets —
/// are never read, written or faulted on.
#[derive(Clone, Copy)]
pub(super) struct Masked(pub(super) ExecMask);

impl LaneSet for Masked {
    const MASKED: bool = true;

    type Lanes = Lanes;

    #[inline(always)]
    fn lanes(self) -> Lanes {
        self.0.lanes()
    }

    #[inline(always)]
    fn count(self) -> u64 {
        u64::from(self.0.count())
    }

    #[inline(always)]
    fn map2<K: Codegen, T: Copy, F: Fn(T, T) -> T>(
        self,
        regs: &mut [Row<T>],
        dst: u16,
        a: u16,
        b: u16,
        f: F,
    ) {
        walk2(self, regs, dst, a, b, f);
    }

    #[inline(always)]
    fn map1<K: Codegen, T: Copy, F: Fn(T) -> T>(self, regs: &mut [Row<T>], dst: u16, a: u16, f: F) {
        walk1(self, regs, dst, a, f);
    }

    /// A per-lane chain: both halves back to back within each active lane
    /// (see [`chain`]); a `ConstF` half is a closure ignoring its operands.
    /// A pair with a `math` half runs as two passes instead.
    #[inline(always)]
    fn fop2<K: Codegen>(self, fregs: &mut [Row<f64>], op: &DecOp) {
        with_fsub!(
            op.sub1,
            op.fimm,
            cheap: |f1| with_fsub!(
                op.sub2,
                op.fimm,
                cheap: |f2| return chain(self, fregs, op, f1, f2),
                math: ()
            ),
            math: ()
        );
        apply_f::<K, _>(self, fregs, op.c, op.a, op.b, op.sub1, op.fimm);
        apply_f::<K, _>(self, fregs, op.dst, op.d, op.e, op.sub2, op.fimm);
    }

    /// A per-lane chain; see [`Masked::fop2`].
    #[inline(always)]
    fn iop2<K: Codegen>(self, iregs: &mut [Row<i64>], op: &DecOp) {
        with_isub!(op.sub1, |f1| {
            with_isub!(op.sub2, |f2| chain(self, iregs, op, f1, f2))
        })
    }
}

/// The active lanes of a partial mask, run at full width: a row pass
/// computes every lane and stores only the active ones, so inactive rows
/// keep their values bit for bit. An inactive lane's operands are another
/// lane subset's live state or stale, so only ops that cannot fault on
/// any value run under it: the predicated if-arms of
/// [`CfgInfo::if_arm`](crate::cfg::CfgInfo). `zip1`/`zip2`, the libm
/// passes and every gather, scatter and division walk visit only the
/// active lanes, as under [`Masked`]: the [`LaneSet`] defaults.
#[derive(Clone, Copy)]
pub(super) struct Select(pub(super) ExecMask);

impl Select {
    /// `new` on an active lane `l`, `old` on an inactive one.
    #[inline(always)]
    fn pick<T>(self, l: usize, old: T, new: T) -> T {
        if self.0 .0 >> l & 1 != 0 {
            new
        } else {
            old
        }
    }
}

impl LaneSet for Select {
    const MASKED: bool = false;

    type Lanes = Lanes;

    #[inline(always)]
    fn lanes(self) -> Lanes {
        self.0.lanes()
    }

    #[inline(always)]
    fn count(self) -> u64 {
        u64::from(self.0.count())
    }

    #[inline(always)]
    fn map2<K: Codegen, T: Copy, F: Fn(T, T) -> T>(
        self,
        regs: &mut [Row<T>],
        dst: u16,
        a: u16,
        b: u16,
        f: F,
    ) {
        K::apply2(regs, dst, a, b, |l, d, x, y| self.pick(l, d, f(x, y)));
    }

    #[inline(always)]
    fn map1<K: Codegen, T: Copy, F: Fn(T) -> T>(self, regs: &mut [Row<T>], dst: u16, a: u16, f: F) {
        K::apply1(regs, dst, a, |l, d, x| self.pick(l, d, f(x)));
    }

    #[inline(always)]
    fn fill<T: Copy>(self, d: &mut Row<T>, v: T) {
        for (l, d) in d.iter_mut().enumerate() {
            *d = self.pick(l, *d, v);
        }
    }
}

/// F-file micro-op over the lanes of `s`: the row kernels of the unfused
/// ops, selected by one match per op.
#[inline(always)]
pub(super) fn apply_f<K: Codegen, S: LaneSet>(
    s: S,
    fregs: &mut [Row<f64>],
    dst: u16,
    a: u16,
    b: u16,
    sub: u8,
    fimm: f64,
) {
    with_fsub!(
        sub,
        fimm,
        binary: |f| s.map2::<K, _, _>(fregs, dst, a, b, f),
        unary: |f| s.map1::<K, _, _>(fregs, dst, a, |x| f(x, x)),
        math: |f| s.map1::<K, _, _>(fregs, dst, a, |x| f(x, x)),
        libm: |f| s.libm1(fregs, dst, a, |x| f(x, x)),
        nullary: |_f| s.fill(&mut fregs[dst as usize], fimm)
    )
}

/// I-file micro-op (the non-faulting binops) over the lanes of `s`.
#[inline(always)]
fn apply_i<K: Codegen, S: LaneSet>(
    s: S,
    iregs: &mut [Row<i64>],
    dst: u16,
    a: u16,
    b: u16,
    sub: u8,
) {
    with_isub!(sub, |f| s.map2::<K, _, _>(iregs, dst, a, b, f))
}

/// `dst[l] = f(a[l])` lane by lane over `s`. Per-lane read-then-write
/// makes any operand aliasing trivially correct.
#[inline(always)]
fn walk1<S: LaneSet, T: Copy, F: Fn(T) -> T>(s: S, regs: &mut [Row<T>], dst: u16, a: u16, f: F) {
    let (dst, a) = (dst as usize, a as usize);
    for l in s.lanes() {
        let x = regs[a][l];
        regs[dst][l] = f(x);
    }
}

/// `dst[l] = f(a[l], b[l])` lane by lane over `s` (see [`walk1`]).
#[inline(always)]
fn walk2<S: LaneSet, T: Copy, F: Fn(T, T) -> T>(
    s: S,
    regs: &mut [Row<T>],
    dst: u16,
    a: u16,
    b: u16,
    f: F,
) {
    let (dst, a, b) = (dst as usize, a as usize, b as usize);
    for l in s.lanes() {
        let x = regs[a][l];
        let y = regs[b][l];
        regs[dst][l] = f(x, y);
    }
}

/// A fused compute pair `c = f1(a, b)`, `dst = f2(d, e)` with both halves
/// back to back within each lane of `s`. Bit-identical to two passes,
/// because every op reads only its own lane's elements: a second-half
/// operand naming the first's destination reads the fresh value in both
/// orders.
#[inline(always)]
fn chain<S: LaneSet, T: Copy, F1: Fn(T, T) -> T, F2: Fn(T, T) -> T>(
    s: S,
    regs: &mut [Row<T>],
    op: &DecOp,
    f1: F1,
    f2: F2,
) {
    let (t, z) = (op.c as usize, op.dst as usize);
    let (a, b, p, q) = (op.a as usize, op.b as usize, op.d as usize, op.e as usize);
    for l in s.lanes() {
        let v = f1(regs[a][l], regs[b][l]);
        regs[t][l] = v;
        let x = regs[p][l];
        let y = regs[q][l];
        regs[z][l] = f2(x, y);
    }
}

/// [`Prefix`] `FOp2` whose first half is `ConstF`: when the second half
/// reads the constant, the immediate folds into its pass (or both rows
/// become fills) instead of round-tripping through its row, and a
/// division by it becomes a multiply when that is exact (see
/// [`exact_recip`]); two passes otherwise.
#[inline(always)]
fn const_fop2<K: Codegen>(s: Prefix, fregs: &mut [Row<f64>], op: &DecOp) {
    let (c, z, p, q, fi) = (op.c, op.dst, op.d, op.e, op.fimm);
    s.fill(&mut fregs[c as usize], fi);
    if z == c || (p != c && q != c) {
        return apply_f::<K, _>(s, fregs, z, p, q, op.sub2, fi);
    }
    // Past the early return the second half reads the constant.
    if op.sub2 == F_DIV && p != c {
        if let Some(r) = exact_recip(fi) {
            return s.map1::<K, _, _>(fregs, z, p, |x| x * r);
        }
    }
    let zr = z as usize;
    with_fsub!(
        op.sub2,
        fi,
        binary: |f| {
            if p != c {
                s.map1::<K, _, _>(fregs, z, p, |x| f(x, fi));
            } else if q != c {
                s.map1::<K, _, _>(fregs, z, q, |y| f(fi, y));
            } else {
                s.fill(&mut fregs[zr], f(fi, fi));
            }
        },
        unary: |f| {
            if p != c {
                s.map1::<K, _, _>(fregs, z, p, |x| f(x, x));
            } else {
                s.fill(&mut fregs[zr], f(fi, fi));
            }
        },
        math: |f| {
            if p != c {
                s.map1::<K, _, _>(fregs, z, p, |x| f(x, x));
            } else {
                s.fill(&mut fregs[zr], f(fi, fi));
            }
        },
        libm: |f| {
            if p != c {
                s.libm1(fregs, z, p, |x| f(x, x));
            } else {
                s.fill(&mut fregs[zr], f(fi, fi));
            }
        },
        nullary: |f| s.fill(&mut fregs[zr], f(fi, fi))
    )
}

/// `1 / c` when it is finite and exact, which holds exactly when `c` is
/// `±2^k` with `-1023 <= k <= 1023` (below that the reciprocal
/// overflows). Then `x * (1 / c)` and `x / c` both round the one real
/// `x·2^-k` once, so they agree bit for bit on every `x`: zeros,
/// subnormals, infinities and NaNs included.
pub(super) fn exact_recip(c: f64) -> Option<f64> {
    const MANT: u64 = (1 << 52) - 1;
    let bits = c.to_bits() & !(1 << 63);
    let (exp, mant) = (bits >> 52, bits & MANT);
    let pow2 = if exp == 0 {
        mant.is_power_of_two()
    } else {
        exp < 0x7ff && mant == 0
    };
    let r = 1.0 / c;
    (pow2 && r.is_finite()).then_some(r)
}
