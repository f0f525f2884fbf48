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
//! [`Prefix`]: super::lanes::Prefix

use super::lanes::{apply_f, with_fsub, LaneSet};
use super::tier::{Codegen, Row};
use super::{LaneEngine, LANES};
use crate::error::VmError;
use crate::opt::decode::DecOp;
use crate::vm::{BufferData, Mem};

/// Whether every lane index is a valid element index for a buffer of
/// `len` elements — the [`Prefix`](super::lanes::Prefix) prescan.
#[inline(always)]
pub(super) fn all_in_bounds(idx: &[i64; LANES], n: usize, len: usize) -> bool {
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for &i in &idx[..n] {
        lo = lo.min(i);
        hi = hi.max(i);
    }
    lo >= 0 && (hi as u64) < len as u64
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

/// The shape of the first `n` lanes of `idx`. The first and last lanes
/// screen out most rows in O(1); a candidate is confirmed by one
/// branch-free pass over the row.
#[inline(always)]
pub(super) fn index_shape(idx: &[i64; LANES], n: usize) -> Shape {
    let (first, last) = (idx[0], idx[n - 1]);
    if first == last {
        if idx[..n].iter().fold(0, |acc, &i| acc | (i ^ first)) == 0 {
            return Shape::Uniform(first);
        }
    } else if last.wrapping_sub(first) == n as i64 - 1 {
        let off = idx[..n]
            .iter()
            .zip(0i64..)
            .fold(0, |acc, (&i, l)| acc | (i.wrapping_sub(l) ^ first));
        if off == 0 {
            return Shape::Stride(first, n);
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
    idx: &Row<i64>,
    v: &[E],
    conv: impl Fn(E) -> T,
) -> bool {
    match s.shape(idx) {
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
/// a walk that faults at the first out-of-bounds lane. `buf` names the
/// parameter in the fault.
#[inline(always)]
pub(super) fn gather<S: LaneSet, E: Copy, T: Copy>(
    s: S,
    d: &mut Row<T>,
    idx: &Row<i64>,
    v: &[E],
    buf: u16,
    conv: impl Fn(E) -> T,
) -> Result<(), VmError> {
    if gather_row(s, d, idx, v, &conv) {
        return Ok(());
    }
    if s.in_bounds(idx, v.len()) {
        for l in s.lanes() {
            d[l] = conv(v[idx[l] as usize]);
        }
    } else {
        for l in s.lanes() {
            let i = idx[l];
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
    idx: &Row<i64>,
    src: &Row<T>,
    buf: u16,
    conv: impl Fn(T) -> E,
) -> Result<(), VmError> {
    let len = v.len();
    if s.in_bounds(idx, len) {
        for l in s.lanes() {
            v[idx[l] as usize] = conv(src[l]);
        }
    } else {
        for l in s.lanes() {
            let i = idx[l];
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
    idx: &Row<i64>,
    v: &[f32],
    op: &DecOp,
    f2: F,
) {
    let (x, z) = (op.c as usize, op.dst as usize);
    let (p, q) = (op.d as usize, op.e as usize);
    for l in s.lanes() {
        let loaded = f64::from(v[idx[l] as usize]);
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
    idx: &Row<i64>,
    v: &mut [f32],
    op: &DecOp,
    f1: F,
) {
    let (a, b, z) = (op.a as usize, op.b as usize, op.dst as usize);
    for l in s.lanes() {
        let t = f1(fregs[a][l], fregs[b][l]);
        fregs[z][l] = t;
        v[idx[l] as usize] = t as f32;
    }
}

impl LaneEngine {
    /// The `LoadF` kernel (`dst`, `idx` = index register, `buf` = buffer
    /// param), shared with the unfused memory pairs.
    #[inline(always)]
    pub(super) fn load_f<S: LaneSet>(
        &mut self,
        s: S,
        dst: u16,
        idx: u16,
        buf: u16,
        bmap: &[usize],
        bufs: &Mem<'_>,
    ) -> Result<(), VmError> {
        let BufferData::F32(v) = bufs.load(bmap[buf as usize]) else {
            unreachable!("type-checked load");
        };
        let (d, idx) = (&mut self.fregs[dst as usize], &self.iregs[idx as usize]);
        gather(s, d, idx, v, buf, f64::from)
    }

    /// The `StoreF` kernel (`src` = source register, `idx` = index
    /// register, `buf` = buffer param), shared with the unfused memory
    /// pairs.
    #[inline(always)]
    pub(super) fn store_f<S: LaneSet>(
        &self,
        s: S,
        src: u16,
        idx: u16,
        buf: u16,
        bmap: &[usize],
        bufs: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        let BufferData::F32(v) = bufs.store(bmap[buf as usize]) else {
            unreachable!("type-checked store");
        };
        let (idx, src) = (&self.iregs[idx as usize], &self.fregs[src as usize]);
        scatter(s, v, idx, src, buf, |x| x as f32)
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
        let scattered = s.shape(idx1) == Shape::Scattered && s.shape(idx2) == Shape::Scattered;
        if scattered && s.in_bounds(idx1, v1.len()) && s.in_bounds(idx2, v2.len()) {
            let Ok([d1, d2]) = self
                .fregs
                .get_disjoint_mut([op.c as usize, op.dst as usize])
            else {
                unreachable!("distinct fused load destinations");
            };
            for l in s.lanes() {
                d1[l] = f64::from(v1[idx1[l] as usize]);
                d2[l] = f64::from(v2[idx2[l] as usize]);
            }
            return Ok(());
        }
        self.load_f(s, op.c, op.a, op.b, bmap, bufs)?;
        self.load_f(s, op.dst, op.d, op.e, bmap, bufs)
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
        let fr = &mut self.fregs;
        if gather_row(s, &mut fr[op.c as usize], idx, v, f64::from) {
            apply_f::<K, _>(s, fr, op.dst, op.d, op.e, op.sub2, op.fimm);
            return Ok(());
        }
        if s.in_bounds(idx, v.len()) {
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
        self.load_f(s, op.c, op.a, op.b, bmap, bufs)?;
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
        if s.in_bounds(idx, v.len()) {
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
        self.store_f(s, op.dst, op.c, op.d, bmap, bufs)
    }
}
