//! Buffer access over a lane set: shaped gathers, checked gathers and
//! scatters, and the fused memory superinstructions.
//!
//! Gathers over a [`Prefix`] look at the shape of their index row first.
//! A batch-uniform row (every lane reads one element, like a
//! loop-invariant `a[j]`) loads as one broadcast, and a unit-stride row
//! (lane `l` reads `base + l`, like `a[i]`) as one slice copy, instead of
//! one indexed load per lane. The first and last lanes screen out most
//! other rows in O(1) before a full check. A shaped row that reaches past
//! its buffer takes the checked walk, which faults exactly as before. The
//! walked lane sets never look: their active lanes are scattered.
//!
//! Every gather and scatter, its prescan and its shape test visit only
//! the lane set's lanes, also under [`Prefix`], whose compute passes run
//! full width: a lane past the live prefix holds a stale index.
//!
//! An index row holds 32-bit patterns. The op's decoded signedness
//! (`DecOp::unsigned`) says how each extends to the 64-bit index the
//! scalar engine sees ([`widen`]), so a negative `int` index and a `uint`
//! index of 2^31 or more fault with the same `OutOfBounds` payload on
//! both engines.
//!
//! [`Prefix`]: super::lanes::Prefix

use super::lanes::{apply_f, with_fsub, LaneSet};
use super::tier::{Codegen, Row};
use super::{LaneEngine, LANES};
use crate::error::VmError;
use crate::opt::decode::DecOp;
use crate::vm::{BufferData, Mem};

/// The index the 32-bit pattern `x` stands for: zero-extended when `u`,
/// sign-extended otherwise, as the scalar engine holds it.
#[inline(always)]
pub(super) fn widen(x: i32, u: bool) -> i64 {
    if u {
        i64::from(x as u32)
    } else {
        i64::from(x)
    }
}

/// Whether each of the first `n` lane indices (unsigned when `u`) is a
/// valid element index for a buffer of `len` elements — the
/// [`Prefix`](super::lanes::Prefix) prescan. A signed index is in bounds
/// exactly when its pattern, read as a `u32`, is below both `len` and
/// 2^31 (a negative one reads as 2^31 or more), so one max pass decides
/// either signedness.
#[inline(always)]
pub(super) fn all_in_bounds(idx: &[i32; LANES], u: bool, n: usize, len: usize) -> bool {
    let limit: u64 = if u { 1 << 32 } else { 1 << 31 };
    let hi = idx[..n].iter().fold(0u32, |m, &i| m.max(i as u32));
    u64::from(hi) < (len as u64).min(limit)
}

/// The shape of an index row over a lane set (see [`LaneSet::shape`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Shape {
    /// Every lane reads element `i`: a broadcast.
    Uniform(i64),
    /// Lane `l` of the first `n` reads element `base + l`: a slice.
    Stride(i64, usize),
    /// Anything else: a per-lane gather.
    Scattered,
}

/// The shape of the first `n` lanes of `idx` (unsigned when `u`). The
/// first and last lanes screen out most rows in O(1); a candidate is
/// confirmed by one branch-free pass over the row. The screen compares
/// the widened indices, so a stride never wraps past the end of the
/// signedness's range: every lane `l` then widens to `base + l`.
#[inline(always)]
pub(super) fn index_shape(idx: &[i32; LANES], u: bool, n: usize) -> Shape {
    let (first, last) = (idx[0], idx[n - 1]);
    let base = widen(first, u);
    if first == last {
        if idx[..n].iter().fold(0, |acc, &i| acc | (i ^ first)) == 0 {
            return Shape::Uniform(base);
        }
    } else if widen(last, u) - base == n as i64 - 1 {
        let off = idx[..n]
            .iter()
            .zip(0i32..)
            .fold(0, |acc, (&i, l)| acc | (i.wrapping_sub(l) ^ first));
        if off == 0 {
            return Shape::Stride(base, n);
        }
    }
    Shape::Scattered
}

/// `d[l] = conv(v[idx[l]])` over `s` as one row pass, when the index row
/// is uniform (a broadcast) or unit-stride (a slice copy) and every
/// element it reads is in bounds. Returns `false`, writing nothing,
/// otherwise: the caller then gathers lane by lane, and its checked walk
/// decides any fault.
#[inline(always)]
pub(super) fn gather_row<S: LaneSet, E: Copy, T: Copy>(
    s: S,
    d: &mut Row<T>,
    idx: &Row<i32>,
    u: bool,
    v: &[E],
    conv: impl Fn(E) -> T,
) -> bool {
    match s.shape(idx, u) {
        Shape::Uniform(i) => {
            let Some(&x) = usize::try_from(i).ok().and_then(|i| v.get(i)) else {
                return false;
            };
            s.fill(d, conv(x));
        }
        Shape::Stride(base, n) => {
            let Some(src) = usize::try_from(base)
                .ok()
                .and_then(|b| v.get(b..))
                .and_then(|t| t.get(..n))
            else {
                return false;
            };
            for (d, &x) in d[..n].iter_mut().zip(src) {
                *d = conv(x);
            }
        }
        Shape::Scattered => return false,
    }
    true
}

/// `d[l] = conv(v[idx[l]])` over `s`, shared by every gather: one row
/// pass for a uniform or unit-stride row in bounds ([`gather_row`]), the
/// plain loop when the prescan finds every index in bounds, and otherwise
/// a walk that faults at the first out-of-bounds lane. `u` is the index
/// row's signedness, and `buf` names the parameter in the fault.
#[inline(always)]
pub(super) fn gather<S: LaneSet, E: Copy, T: Copy>(
    s: S,
    d: &mut Row<T>,
    idx: &Row<i32>,
    u: bool,
    v: &[E],
    buf: u16,
    conv: impl Fn(E) -> T,
) -> Result<(), VmError> {
    if gather_row(s, d, idx, u, v, &conv) {
        return Ok(());
    }
    if s.in_bounds(idx, u, v.len()) {
        for l in s.lanes() {
            d[l] = conv(v[idx[l] as u32 as usize]);
        }
    } else {
        for l in s.lanes() {
            let i = widen(idx[l], u);
            let Some(&x) = usize::try_from(i).ok().and_then(|i| v.get(i)) else {
                return Err(VmError::OutOfBounds {
                    buffer: buf as usize,
                    index: i,
                    len: v.len(),
                });
            };
            d[l] = conv(x);
        }
    }
    Ok(())
}

/// `v[idx[l]] = conv(src[l])` over `s`, shared by every scatter: the
/// plain loop when the prescan finds every index in bounds, and otherwise
/// the faulting walk of [`gather`].
#[inline(always)]
pub(super) fn scatter<S: LaneSet, T: Copy, E>(
    s: S,
    v: &mut [E],
    idx: &Row<i32>,
    u: bool,
    src: &Row<T>,
    buf: u16,
    conv: impl Fn(T) -> E,
) -> Result<(), VmError> {
    let len = v.len();
    if s.in_bounds(idx, u, len) {
        for l in s.lanes() {
            v[idx[l] as u32 as usize] = conv(src[l]);
        }
    } else {
        for l in s.lanes() {
            let i = widen(idx[l], u);
            let Some(slot) = usize::try_from(i).ok().and_then(|i| v.get_mut(i)) else {
                return Err(VmError::OutOfBounds {
                    buffer: buf as usize,
                    index: i,
                    len,
                });
            };
            *slot = conv(src[l]);
        }
    }
    Ok(())
}

/// The fused `LoadFOp` pass over `s`, for a gather known in bounds:
/// `c[l] = v[idx[l]]` then `dst[l] = f2(d[l], e[l])`. Per-lane
/// interleaving is bit-identical to the two passes because every op reads
/// only its own lane's elements: an operand equal to `c` reads the
/// freshly loaded value, one equal to `dst` the old value of its own lane
/// (`c != dst` by fusion rule). The rows arrive as separate references so
/// the optimizer knows the stores cannot touch the index row.
#[inline(always)]
fn load_fop_pass<S: LaneSet, F: Fn(f64, f64) -> f64>(
    s: S,
    fregs: &mut [Row<f64>],
    idx: &Row<i32>,
    v: &[f32],
    op: &DecOp,
    f2: F,
) {
    let (x, z) = (op.c as usize, op.dst as usize);
    let (p, q) = (op.d as usize, op.e as usize);
    for l in s.lanes() {
        let loaded = f64::from(v[idx[l] as u32 as usize]);
        fregs[x][l] = loaded;
        let pv = fregs[p][l];
        let qv = fregs[q][l];
        fregs[z][l] = f2(pv, qv);
    }
}

/// The fused `FOpStore` pass over `s`, for a scatter known in bounds:
/// `dst[l] = f1(a[l], b[l])` and `v[idx[l]] = dst[l]`. Per-lane
/// read-before-write keeps `dst == a`/`dst == b` aliasing identical to
/// the unfused compute pass.
#[inline(always)]
fn fop_store_pass<S: LaneSet, F: Fn(f64, f64) -> f64>(
    s: S,
    fregs: &mut [Row<f64>],
    idx: &Row<i32>,
    v: &mut [f32],
    op: &DecOp,
    f1: F,
) {
    let (a, b, z) = (op.a as usize, op.b as usize, op.dst as usize);
    for l in s.lanes() {
        let t = f1(fregs[a][l], fregs[b][l]);
        fregs[z][l] = t;
        v[idx[l] as u32 as usize] = t as f32;
    }
}

impl LaneEngine {
    /// The `LoadF` kernel (`dst`, `idx` = index register, unsigned when
    /// `u`, `buf` = buffer param), shared with the unfused memory pairs.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn load_f<S: LaneSet>(
        &mut self,
        s: S,
        dst: u16,
        idx: u16,
        u: bool,
        buf: u16,
        bmap: &[usize],
        bufs: &Mem<'_>,
    ) -> Result<(), VmError> {
        let BufferData::F32(v) = bufs.load(bmap[buf as usize]) else {
            unreachable!("type-checked load");
        };
        let (d, idx) = (&mut self.fregs[dst as usize], &self.iregs[idx as usize]);
        gather(s, d, idx, u, v, buf, f64::from)
    }

    /// The `StoreF` kernel (`src` = source register, `idx` = index
    /// register, unsigned when `u`, `buf` = buffer param), shared with the
    /// unfused memory pairs.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn store_f<S: LaneSet>(
        &self,
        s: S,
        src: u16,
        idx: u16,
        u: bool,
        buf: u16,
        bmap: &[usize],
        bufs: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        let BufferData::F32(v) = bufs.store(bmap[buf as usize]) else {
            unreachable!("type-checked store");
        };
        let (idx, src) = (&self.iregs[idx as usize], &self.fregs[src as usize]);
        scatter(s, v, idx, u, src, buf, |x| x as f32)
    }

    /// `Load2F`: both gathers in one pass when the prescan finds both in
    /// bounds (the destinations are distinct by fusion rule) and neither index
    /// row has a row-pass shape; otherwise the unfused sequence, whose
    /// gathers load such rows in one pass each.
    #[inline(always)]
    pub(super) fn fused_load2f<S: LaneSet>(
        &mut self,
        s: S,
        op: &DecOp,
        bmap: &[usize],
        bufs: &Mem<'_>,
    ) -> Result<(), VmError> {
        let (idx1, idx2) = (&self.iregs[op.a as usize], &self.iregs[op.d as usize]);
        let BufferData::F32(v1) = bufs.load(bmap[op.b as usize]) else {
            unreachable!("type-checked load");
        };
        let BufferData::F32(v2) = bufs.load(bmap[op.e as usize]) else {
            unreachable!("type-checked load");
        };
        let u = op.unsigned;
        let scattered =
            s.shape(idx1, u) == Shape::Scattered && s.shape(idx2, u) == Shape::Scattered;
        if scattered && s.in_bounds(idx1, u, v1.len()) && s.in_bounds(idx2, u, v2.len()) {
            let Ok([d1, d2]) = self
                .fregs
                .get_disjoint_mut([op.c as usize, op.dst as usize])
            else {
                unreachable!("distinct fused load destinations");
            };
            for l in s.lanes() {
                d1[l] = f64::from(v1[idx1[l] as u32 as usize]);
                d2[l] = f64::from(v2[idx2[l] as u32 as usize]);
            }
            return Ok(());
        }
        self.load_f(s, op.c, op.a, u, op.b, bmap, bufs)?;
        self.load_f(s, op.dst, op.d, u, op.e, bmap, bufs)
    }

    /// `LoadFOp`: one pass ([`load_fop_pass`]) when the prescan finds the
    /// gather in bounds and `sub2` is not a `math` op (see `with_fsub!`); the
    /// unfused sequence otherwise.
    #[inline(always)]
    pub(super) fn fused_load_fop<K: Codegen, S: LaneSet>(
        &mut self,
        s: S,
        op: &DecOp,
        bmap: &[usize],
        bufs: &Mem<'_>,
    ) -> Result<(), VmError> {
        let idx = &self.iregs[op.a as usize];
        let BufferData::F32(v) = bufs.load(bmap[op.b as usize]) else {
            unreachable!("type-checked load");
        };
        // A uniform or unit-stride load is one row pass, and the compute
        // half a second one: the unfused sequence, with nothing to fault.
        let (fr, u) = (&mut self.fregs, op.unsigned);
        if gather_row(s, &mut fr[op.c as usize], idx, u, v, f64::from) {
            apply_f::<K, _>(s, fr, op.dst, op.d, op.e, op.sub2, op.fimm);
            return Ok(());
        }
        if s.in_bounds(idx, u, v.len()) {
            with_fsub!(
                op.sub2,
                op.fimm,
                cheap: |f2| {
                    load_fop_pass(s, fr, idx, v, op, f2);
                    return Ok(());
                },
                math: ()
            );
        }
        self.load_f(s, op.c, op.a, u, op.b, bmap, bufs)?;
        apply_f::<K, _>(s, &mut self.fregs, op.dst, op.d, op.e, op.sub2, op.fimm);
        Ok(())
    }

    /// `FOpStore`: one pass ([`fop_store_pass`]) when the prescan finds the
    /// scatter in bounds and `sub1` is not a `math` op; the unfused sequence
    /// otherwise.
    #[inline(always)]
    pub(super) fn fused_fop_store<K: Codegen, S: LaneSet>(
        &mut self,
        s: S,
        op: &DecOp,
        bmap: &[usize],
        bufs: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        let idx = &self.iregs[op.c as usize];
        let BufferData::F32(v) = bufs.store(bmap[op.d as usize]) else {
            unreachable!("type-checked store");
        };
        if s.in_bounds(idx, op.unsigned, v.len()) {
            let fr = &mut self.fregs;
            with_fsub!(
                op.sub1,
                op.fimm,
                cheap: |f1| {
                    fop_store_pass(s, fr, idx, v, op, f1);
                    return Ok(());
                },
                math: ()
            );
        }
        apply_f::<K, _>(s, &mut self.fregs, op.dst, op.a, op.b, op.sub1, op.fimm);
        self.store_f(s, op.dst, op.c, op.unsigned, op.d, bmap, bufs)
    }
}
