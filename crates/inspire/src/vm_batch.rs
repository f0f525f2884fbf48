//! The lane-batched SoA execution engine with SIMT reconvergence.
//!
//! The scalar engine in [`crate::vm`] interprets one work-item at a time:
//! every bytecode instruction pays the full dispatch cost (decode match,
//! register-file bounds checks) for a single item's worth of work. Since
//! data-parallel kernels execute the exact same instruction sequence for
//! long runs of adjacent work-items, this engine instead executes blocks
//! of up to [`LANES`] consecutive work-items in lockstep: the register
//! files are stored structure-of-arrays, one [`Row`] of `LANES` values
//! per register, so each instruction is decoded once and then applied
//! across all active lanes in a tight loop. Every row (and the per-lane
//! global ids and step counts) starts on a 64-byte cache line, so a
//! row's vector loads never straddle lines and its timing does not
//! depend on where the allocator happened to place it.
//!
//! The batch loop has two codegen tiers built from one body
//! (`exec_batch_body`), and each engine picks one when it is created,
//! from what the CPU reports:
//!
//! - **AVX2** (x86-64 CPUs with AVX2): the body is instantiated inside a
//!   `#[target_feature(enable = "avx2")]` entry with the whole full-width
//!   path (op dispatch, fused superinstructions, row and gather kernels)
//!   inlined into it, so the row kernels run four 64-bit lanes per
//!   vector. The masked path stays out of line: it walks active lanes
//!   one at a time, which AVX2 cannot widen. `fma` is not enabled and
//!   Rust never contracts `a * b + c`, so float results are bit-identical
//!   to the portable tier.
//! - **Portable** (every other CPU): the same body built for the crate's
//!   compile target (SSE2 on baseline x86-64), with the fused
//!   superinstructions and gather/scatter kernels out of line.
//!
//! Nothing but the CPU picks the tier; [`lane_tier`] reports it.
//!
//! The engine walks the function's pre-decoded op array
//! ([`crate::opt::decode`]): a flat one-level dispatch per op, with
//! adjacent op pairs fused into superinstructions that make one pass
//! over the lane rows where the unfused pair made two. The scalar engine
//! walks the enum blocks instead, so every scalar-vs-lanes comparison
//! checks two independent implementations of the bytecode semantics —
//! decoding and fusion included.
//!
//! Control flow follows the SIMT execution model of real GPU hardware
//! (which is also the model the paper's cost features assume):
//!
//! - **Uniform branches** (every active lane takes the same side) keep
//!   the whole batch in lockstep — the fast path, and the common case for
//!   guard-style `if (i < n)` conditions and fixed-trip-count loops. A
//!   branch condition is evaluated over all lane rows into one packed
//!   bitmask, so deciding uniform vs divergent costs the same either way.
//! - **Divergent branches** split the active mask. The engine pushes the
//!   not-taken subset onto a **reconvergence stack** together with the
//!   branch's **immediate post-dominator** (the first block every path
//!   from the branch must reach again, precomputed in [`crate::cfg`] and
//!   cached on the [`Function`]), then executes the taken side under its
//!   sub-mask. When a lane subset reaches its frame's rejoin block it is
//!   parked, and once all subsets arrive the parent frame resumes there
//!   with the re-merged mask — lanes re-join at the post-dominator
//!   exactly like a hardware SIMT stack. Instructions executed under a
//!   partial mask use masked variants that only read, write, and fault on
//!   active lanes.
//! - The **active-lane mask** of a full batch is a prefix: the final
//!   batch of a range may cover fewer than [`LANES`] items, and all lane
//!   loops iterate only over the live prefix.
//!
//! Semantics match the scalar engine exactly for race-free kernels
//! (every suite kernel; OpenCL gives racy kernels no ordering guarantees
//! anyway): buffers, block counters, and per-item step counts are bit
//! identical, which the workspace's differential test suite enforces.
//! Per-lane parity holds because reconvergence never changes *which*
//! blocks a lane executes — only when they run relative to other lanes —
//! so each lane's block-visit sequence, and therefore its block counts
//! and step count, is exactly the scalar engine's. The one observable
//! difference is *which* error surfaces when multiple work-items of a
//! batch fault: items execute in instruction lockstep, so the earliest
//! fault in lockstep order wins rather than the earliest item in item
//! order, and buffers may hold partial writes from other items of the
//! faulting batch.

use std::ops::{Deref, DerefMut};

use crate::bytecode::{CmpOp, Function, IBinOp, Terminator};
use crate::cfg::NO_POST_DOM;
use crate::error::VmError;
use crate::opt::decode::{
    DecOp, OpCode, F_ADD, F_CONST, F_DIV, F_MOV, F_MUL, F_NEG, F_SUB, I_UNSIGNED,
};
use crate::vm::{int_bin, wrap32, BufferData, Counters, Mem, Vm};

/// Work-items executed in lockstep per batch.
pub const LANES: usize = 64;

/// One register row: lane `l`'s value at index `l`, aligned to a 64-byte
/// cache line. It derefs to `[T; LANES]`, so row kernels index it like
/// the array it wraps.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
pub(crate) struct Row<T>([T; LANES]);

impl<T> Deref for Row<T> {
    type Target = [T; LANES];
    #[inline(always)]
    fn deref(&self) -> &[T; LANES] {
        &self.0
    }
}

impl<T> DerefMut for Row<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [T; LANES] {
        &mut self.0
    }
}

/// The codegen tier of the batch loop (see the module docs).
#[derive(Clone, Copy)]
enum Tier {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Tier {
    /// The widest tier this CPU supports.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return Self::Avx2;
        }
        Self::Portable
    }

    fn name(self) -> &'static str {
        match self {
            Self::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => "avx2",
        }
    }
}

/// The lane engine's codegen tier on this CPU, `"avx2"` or `"portable"`
/// (for reports; the CPU alone picks it).
pub fn lane_tier() -> &'static str {
    Tier::detect().name()
}

/// One codegen tier of the batch body, as the type parameter the body and
/// its full-width path are instantiated with. The two tiers want opposite
/// layouts, so the type carries the inlining policy:
///
/// - the AVX2 body inlines the whole full-width path, since any helper
///   left out of line compiles without AVX2, and keeps the masked path
///   out of line;
/// - the portable body keeps the fused superinstructions and the
///   gather/scatter kernels out of line and leaves the row kernels to
///   LLVM's heuristics; forcing them inline measured slower there.
trait Codegen {
    /// Inline the full-width path and outline the masked one (see
    /// `inline_if!`).
    const AVX2: bool;

    /// [`apply2`] under this tier's inlining policy.
    fn apply2<T: Copy, F: Fn(T, T) -> T>(
        regs: &mut [Row<T>],
        n: usize,
        dst: u16,
        a: u16,
        b: u16,
        f: F,
    );

    /// [`apply1`] under this tier's inlining policy.
    fn apply1<T: Copy, F: Fn(T) -> T>(regs: &mut [Row<T>], n: usize, dst: u16, a: u16, f: F);
}

/// The portable tier's body.
struct PortableBody;

impl Codegen for PortableBody {
    const AVX2: bool = false;

    #[inline]
    fn apply2<T: Copy, F: Fn(T, T) -> T>(
        regs: &mut [Row<T>],
        n: usize,
        dst: u16,
        a: u16,
        b: u16,
        f: F,
    ) {
        apply2(regs, n, dst, a, b, f);
    }

    #[inline]
    fn apply1<T: Copy, F: Fn(T) -> T>(regs: &mut [Row<T>], n: usize, dst: u16, a: u16, f: F) {
        apply1(regs, n, dst, a, f);
    }
}

/// The AVX2 tier's body.
#[cfg(target_arch = "x86_64")]
struct Avx2Body;

#[cfg(target_arch = "x86_64")]
impl Codegen for Avx2Body {
    const AVX2: bool = true;

    #[inline(always)]
    fn apply2<T: Copy, F: Fn(T, T) -> T>(
        regs: &mut [Row<T>],
        n: usize,
        dst: u16,
        a: u16,
        b: u16,
        f: F,
    ) {
        apply2(regs, n, dst, a, b, f);
    }

    #[inline(always)]
    fn apply1<T: Copy, F: Fn(T) -> T>(regs: &mut [Row<T>], n: usize, dst: u16, a: u16, f: F) {
        apply1(regs, n, dst, a, f);
    }
}

/// `inline_if!(INLINE, call)`: evaluate `call` in place when `INLINE`,
/// otherwise through an out-of-line call; how the batch body gives each
/// tier its layout (see [`Codegen`]). A macro rather than a function
/// taking a closure: the closure body would be a function of its own,
/// and LLVM may leave it out of line (and compiled without AVX2) even on
/// the inline side.
macro_rules! inline_if {
    ($inline:expr, $call:expr) => {
        if $inline {
            $call
        } else {
            out_of_line(|| $call)
        }
    };
}

#[inline(never)]
fn out_of_line<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Active-lane bitmask: bit `l` set means lane `l` executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ExecMask(u64);

impl ExecMask {
    /// The full prefix mask for a batch of `n` lanes.
    #[inline]
    fn full(n: usize) -> Self {
        debug_assert!((1..=LANES).contains(&n));
        Self(if n == LANES { !0 } else { (1u64 << n) - 1 })
    }

    #[inline]
    fn is_empty(self) -> bool {
        self.0 == 0
    }

    #[inline]
    fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterate the set lanes in ascending (= item) order.
    #[inline]
    fn lanes(self) -> Lanes {
        Lanes(self.0)
    }
}

/// Ascending iterator over the set bits of an [`ExecMask`].
struct Lanes(u64);

impl Iterator for Lanes {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let l = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(l)
        }
    }
}

/// One reconvergence-stack entry: a lane subset executing at `pc` that
/// must be re-merged into its parent when it reaches `rpc` (the pushing
/// branch's immediate post-dominator, or the virtual exit).
struct Frame {
    pc: u32,
    rpc: u32,
    mask: ExecMask,
}

/// Where block executions are counted.
pub(crate) enum CountSink<'a> {
    /// One shared counter set for the whole batch (a block execution by
    /// `k` active lanes adds `k`).
    Aggregate(&'a mut Counters),
    /// One counter set per lane (index = lane), for per-item profiles.
    PerLane(&'a mut [Counters]),
}

impl CountSink<'_> {
    /// Count one block execution by the first `lanes` lanes (a full
    /// prefix mask).
    #[inline]
    fn count_block(&mut self, block: usize, lanes: usize) {
        match self {
            CountSink::Aggregate(c) => c.block_counts[block] += lanes as u64,
            CountSink::PerLane(per) => {
                for c in per[..lanes].iter_mut() {
                    c.block_counts[block] += 1;
                }
            }
        }
    }

    /// Count one block execution by every active lane of `m`.
    #[inline]
    fn count_block_masked(&mut self, block: usize, m: ExecMask) {
        match self {
            CountSink::Aggregate(c) => c.block_counts[block] += u64::from(m.count()),
            CountSink::PerLane(per) => {
                for l in m.lanes() {
                    per[l].block_counts[block] += 1;
                }
            }
        }
    }
}

/// The structure-of-arrays lane engine. One instance is reused across all
/// batches of a run; lane register state persists between batches exactly
/// like the scalar engine's register file persists between items.
pub(crate) struct LaneEngine {
    iregs: Vec<Row<i64>>,
    fregs: Vec<Row<f64>>,
    gid: [Row<i64>; 3],
    /// Per-lane step counts. While a batch runs, lane `l`'s steps beyond
    /// the batch's shared full-mask count (see `exec_batch_body`); once
    /// it returns `Ok`, lane `l`'s total.
    steps: Row<u64>,
    /// The suspended reconvergence frames of the running batch; kept
    /// across batches so a divergent batch does not allocate.
    stack: Vec<Frame>,
    tier: Tier,
    /// Per-parameter bounds-check elision mask, copied from
    /// [`Vm::bounds_elide`] at construction (the run entry computes it
    /// before creating the engine). Bit `p` set = every access to buffer
    /// parameter `p` is statically proven in bounds for this launch, so
    /// the gather/scatter loops skip both the per-batch range scan and
    /// the per-lane checks.
    elide: u64,
    /// Maximum instructions one work-item may execute, copied from
    /// [`Vm::step_limit`].
    step_limit: u64,
}

/// Apply `f` lane-wise: `dst[l] = f(a[l], b[l])` for the first `n` lanes.
///
/// The common case (the compiler allocates a fresh temp for `dst`) borrows
/// all three registers disjointly and runs a bounds-check-free loop the
/// optimizer can vectorize; aliased operands fall back to copying, which
/// is always correct because each lane only reads its own elements.
#[inline(always)]
fn apply2<T: Copy, F: Fn(T, T) -> T>(
    regs: &mut [Row<T>],
    n: usize,
    dst: u16,
    a: u16,
    b: u16,
    f: F,
) {
    let (dst, a, b) = (dst as usize, a as usize, b as usize);
    if dst != a && dst != b && a != b {
        let Ok([d, x, y]) = regs.get_disjoint_mut([dst, a, b]) else {
            unreachable!("disjoint registers");
        };
        for ((d, &x), &y) in d[..n].iter_mut().zip(&x[..n]).zip(&y[..n]) {
            *d = f(x, y);
        }
    } else if a == b && dst != a {
        let Ok([d, x]) = regs.get_disjoint_mut([dst, a]) else {
            unreachable!("disjoint registers");
        };
        for (d, &x) in d[..n].iter_mut().zip(&x[..n]) {
            *d = f(x, x);
        }
    } else if dst == a && dst == b {
        for v in regs[dst][..n].iter_mut() {
            *v = f(*v, *v);
        }
    } else if dst == a {
        // In-place accumulator: each lane reads its own element before
        // writing it, so a pairwise disjoint borrow of [dst, b] suffices.
        let Ok([d, y]) = regs.get_disjoint_mut([dst, b]) else {
            unreachable!("disjoint registers");
        };
        for (d, &y) in d[..n].iter_mut().zip(&y[..n]) {
            *d = f(*d, y);
        }
    } else {
        let Ok([d, x]) = regs.get_disjoint_mut([dst, a]) else {
            unreachable!("disjoint registers");
        };
        for (d, &x) in d[..n].iter_mut().zip(&x[..n]) {
            *d = f(x, *d);
        }
    }
}

/// Apply `f` lane-wise: `dst[l] = f(a[l])` for the first `n` lanes.
#[inline(always)]
fn apply1<T: Copy, F: Fn(T) -> T>(regs: &mut [Row<T>], n: usize, dst: u16, a: u16, f: F) {
    let (dst, a) = (dst as usize, a as usize);
    if dst != a {
        let Ok([d, x]) = regs.get_disjoint_mut([dst, a]) else {
            unreachable!("disjoint registers");
        };
        for (d, &x) in d[..n].iter_mut().zip(&x[..n]) {
            *d = f(x);
        }
    } else {
        for v in regs[dst][..n].iter_mut() {
            *v = f(*v);
        }
    }
}

/// Masked [`apply2`]: `dst[l] = f(a[l], b[l])` for each active lane.
/// Per-lane read-then-write makes any operand aliasing trivially correct.
#[inline]
fn masked2<T: Copy, F: Fn(T, T) -> T>(
    regs: &mut [Row<T>],
    m: ExecMask,
    dst: u16,
    a: u16,
    b: u16,
    f: F,
) {
    let (dst, a, b) = (dst as usize, a as usize, b as usize);
    for l in m.lanes() {
        let x = regs[a][l];
        let y = regs[b][l];
        regs[dst][l] = f(x, y);
    }
}

/// Masked [`apply1`]: `dst[l] = f(a[l])` for each active lane.
#[inline]
fn masked1<T: Copy, F: Fn(T) -> T>(regs: &mut [Row<T>], m: ExecMask, dst: u16, a: u16, f: F) {
    let (dst, a) = (dst as usize, a as usize);
    for l in m.lanes() {
        let x = regs[a][l];
        regs[dst][l] = f(x);
    }
}

/// Whether every lane index is a valid element index for a buffer of
/// `len` elements — the gate for the bounds-check-free memory fast paths.
#[inline(always)]
fn all_in_bounds(idx: &[i64; LANES], n: usize, len: usize) -> bool {
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for &i in &idx[..n] {
        lo = lo.min(i);
        hi = hi.max(i);
    }
    lo >= 0 && (hi as u64) < len as u64
}

/// Full-width F-file micro-op: the same vectorized kernels as the
/// unfused interpreter arms, selected by one match per op (never per
/// lane — a per-lane sub dispatch would defeat vectorization).
#[inline(always)]
fn apply_f<K: Codegen>(
    fregs: &mut [Row<f64>],
    n: usize,
    dst: u16,
    a: u16,
    b: u16,
    sub: u8,
    fimm: f64,
) {
    match sub {
        F_ADD => K::apply2(fregs, n, dst, a, b, |x, y| x + y),
        F_SUB => K::apply2(fregs, n, dst, a, b, |x, y| x - y),
        F_MUL => K::apply2(fregs, n, dst, a, b, |x, y| x * y),
        F_DIV => K::apply2(fregs, n, dst, a, b, |x, y| x / y),
        F_MOV => K::apply1(fregs, n, dst, a, |x| x),
        5 => K::apply1(fregs, n, dst, a, f64::sqrt),
        6 => K::apply1(fregs, n, dst, a, |x| 1.0 / x.sqrt()),
        7 => K::apply1(fregs, n, dst, a, f64::exp),
        8 => K::apply1(fregs, n, dst, a, f64::ln),
        9 => K::apply1(fregs, n, dst, a, f64::sin),
        10 => K::apply1(fregs, n, dst, a, f64::cos),
        11 => K::apply1(fregs, n, dst, a, f64::tan),
        12 => K::apply1(fregs, n, dst, a, f64::abs),
        13 => K::apply1(fregs, n, dst, a, f64::floor),
        14 => K::apply1(fregs, n, dst, a, f64::ceil),
        F_NEG => K::apply1(fregs, n, dst, a, |x| -x),
        _ => fregs[dst as usize][..n].fill(fimm),
    }
}

/// Full-width I-file micro-op (the non-faulting binops), mono-dispatched
/// like [`apply_f`].
#[inline(always)]
fn apply_i<K: Codegen>(iregs: &mut [Row<i64>], n: usize, dst: u16, a: u16, b: u16, sub: u8) {
    let u = sub & I_UNSIGNED != 0;
    match sub & !I_UNSIGNED {
        0 => K::apply2(iregs, n, dst, a, b, |x, y| wrap32(x.wrapping_add(y), u)),
        1 => K::apply2(iregs, n, dst, a, b, |x, y| wrap32(x.wrapping_sub(y), u)),
        _ => K::apply2(iregs, n, dst, a, b, |x, y| wrap32(x.wrapping_mul(y), u)),
    }
}

/// Masked [`apply_f`].
fn masked_f(fregs: &mut [Row<f64>], m: ExecMask, dst: u16, a: u16, b: u16, sub: u8, fimm: f64) {
    match sub {
        F_ADD => masked2(fregs, m, dst, a, b, |x, y| x + y),
        F_SUB => masked2(fregs, m, dst, a, b, |x, y| x - y),
        F_MUL => masked2(fregs, m, dst, a, b, |x, y| x * y),
        F_DIV => masked2(fregs, m, dst, a, b, |x, y| x / y),
        F_MOV => masked1(fregs, m, dst, a, |x| x),
        5 => masked1(fregs, m, dst, a, f64::sqrt),
        6 => masked1(fregs, m, dst, a, |x| 1.0 / x.sqrt()),
        7 => masked1(fregs, m, dst, a, f64::exp),
        8 => masked1(fregs, m, dst, a, f64::ln),
        9 => masked1(fregs, m, dst, a, f64::sin),
        10 => masked1(fregs, m, dst, a, f64::cos),
        11 => masked1(fregs, m, dst, a, f64::tan),
        12 => masked1(fregs, m, dst, a, f64::abs),
        13 => masked1(fregs, m, dst, a, f64::floor),
        14 => masked1(fregs, m, dst, a, f64::ceil),
        F_NEG => masked1(fregs, m, dst, a, |x| -x),
        _ => {
            for l in m.lanes() {
                fregs[dst as usize][l] = fimm;
            }
        }
    }
}

/// Masked chain loop shared by the fused compute pairs: both halves run
/// back to back within each active lane, which is bit-identical to two
/// masked passes because every op reads only its own lane's elements (a
/// second-half operand naming the first's destination reads the fresh
/// value in both orders).
#[inline]
fn masked_chain<T: Copy, F1: Fn(T, T) -> T, F2: Fn(T, T) -> T>(
    regs: &mut [Row<T>],
    m: ExecMask,
    op: &DecOp,
    f1: F1,
    f2: F2,
) {
    let (t, z) = (op.c as usize, op.dst as usize);
    let (a, b, p, q) = (op.a as usize, op.b as usize, op.d as usize, op.e as usize);
    for l in m.lanes() {
        let v = f1(regs[a][l], regs[b][l]);
        regs[t][l] = v;
        let x = regs[p][l];
        let y = regs[q][l];
        regs[z][l] = f2(x, y);
    }
}

/// Full-width fused `LoadFOp` fast path (gather already known fully in
/// bounds): `x[l] = buf[idx[l]]` then `z[l] = f2(p[l], q[l])` in one
/// pass. Per-lane interleaving is bit-identical to the two full-width
/// passes because every op reads only its own lane's elements: an
/// operand equal to `x` reads the freshly loaded value (as it would
/// after a full load pass), an operand equal to `z` reads the old value
/// for its own lane. `x != z` is guaranteed at fusion time.
#[inline(always)]
fn load_fop_fast<F: Fn(f64, f64) -> f64>(
    fregs: &mut [Row<f64>],
    idxv: &[i64; LANES],
    v: &[f32],
    n: usize,
    op: &DecOp,
    el: bool,
    f2: F,
) {
    let (x, z) = (op.c as usize, op.dst as usize);
    let (p, q) = (op.d as usize, op.e as usize);
    if el {
        for l in 0..n {
            // SAFETY: `el` is set only when the interval analysis proved
            // every access on this parameter in `[0, len)` (and the
            // caller's debug_assert re-checked it).
            let loaded = f64::from(unsafe { *v.get_unchecked(idxv[l] as usize) });
            fregs[x][l] = loaded;
            let pv = fregs[p][l];
            let qv = fregs[q][l];
            fregs[z][l] = f2(pv, qv);
        }
    } else {
        for l in 0..n {
            let loaded = f64::from(v[idxv[l] as usize]);
            fregs[x][l] = loaded;
            let pv = fregs[p][l];
            let qv = fregs[q][l];
            fregs[z][l] = f2(pv, qv);
        }
    }
}

/// Full-width fused `FOpStore` fast path (scatter already known fully in
/// bounds): `z[l] = f1(a[l], b[l])` and `buf[idx[l]] = z[l]` in one
/// pass. Per-lane read-before-write keeps `z == a`/`z == b` aliasing
/// identical to the unfused compute pass.
#[inline(always)]
fn fop_store_fast<F: Fn(f64, f64) -> f64>(
    fregs: &mut [Row<f64>],
    idxv: &[i64; LANES],
    v: &mut [f32],
    n: usize,
    op: &DecOp,
    el: bool,
    f1: F,
) {
    let (a, b, z) = (op.a as usize, op.b as usize, op.dst as usize);
    if el {
        for l in 0..n {
            let t = f1(fregs[a][l], fregs[b][l]);
            fregs[z][l] = t;
            // SAFETY: see `load_fop_fast` — statically proven in bounds.
            unsafe { *v.get_unchecked_mut(idxv[l] as usize) = t as f32 };
        }
    } else {
        for l in 0..n {
            let t = f1(fregs[a][l], fregs[b][l]);
            fregs[z][l] = t;
            v[idxv[l] as usize] = t as f32;
        }
    }
}

/// Lane-wise comparison producing an I-register boolean:
/// `dst[l] = f(a[l], b[l]) as i64`.
#[inline(always)]
fn apply_cmp<T: Copy, F: Fn(T, T) -> bool>(
    out: &mut [i64; LANES],
    a: &[T; LANES],
    b: &[T; LANES],
    n: usize,
    f: F,
) {
    for ((d, &x), &y) in out[..n].iter_mut().zip(&a[..n]).zip(&b[..n]) {
        *d = i64::from(f(x, y));
    }
}

/// Branch-condition bitmask over all [`LANES`] rows: bit `l` is
/// `f(a[l], b[l])`. Built 8 lanes per byte so the loop vectorises; the
/// caller ANDs the result with its active mask.
#[inline(always)]
fn pack_rows<T: Copy, F: Fn(T, T) -> bool>(a: &[T; LANES], b: &[T; LANES], f: F) -> u64 {
    let mut bytes = [0u8; LANES / 8];
    for (k, byte) in bytes.iter_mut().enumerate() {
        for j in 0..8 {
            *byte |= u8::from(f(a[8 * k + j], b[8 * k + j])) << j;
        }
    }
    u64::from_le_bytes(bytes)
}

/// [`pack_rows`] for a fused cmp+branch, with the comparison matched once
/// rather than per lane.
#[inline(always)]
fn cmp_rows<T: Copy + PartialOrd>(op: CmpOp, a: &[T; LANES], b: &[T; LANES]) -> u64 {
    match op {
        CmpOp::Lt => pack_rows(a, b, |x, y| x < y),
        CmpOp::Le => pack_rows(a, b, |x, y| x <= y),
        CmpOp::Gt => pack_rows(a, b, |x, y| x > y),
        CmpOp::Ge => pack_rows(a, b, |x, y| x >= y),
        CmpOp::Eq => pack_rows(a, b, |x, y| x == y),
        CmpOp::Ne => pack_rows(a, b, |x, y| x != y),
    }
}

impl LaneEngine {
    /// Allocate lane register files for `f` and broadcast the scalar
    /// engine's bound registers (kernel arguments; everything else zero)
    /// across all lanes.
    pub(crate) fn new(f: &Function, vm: &Vm) -> Self {
        let iregs = vm.iregs.iter().map(|&v| Row([v; LANES])).collect();
        let fregs = vm.fregs.iter().map(|&v| Row([v; LANES])).collect();
        debug_assert_eq!(vm.iregs.len(), f.n_iregs as usize);
        debug_assert_eq!(vm.fregs.len(), f.n_fregs as usize);
        Self {
            iregs,
            fregs,
            gid: [Row([0; LANES]); 3],
            steps: Row([0; LANES]),
            stack: Vec::new(),
            tier: Tier::detect(),
            elide: vm.bounds_elide,
            step_limit: vm.step_limit,
        }
    }

    /// Is buffer parameter `p` proven in bounds for the current launch?
    #[inline(always)]
    fn elided(&self, p: u16) -> bool {
        p < 64 && self.elide & (1u64 << p) != 0
    }

    /// Per-lane step totals of the most recent batch that returned `Ok`
    /// (valid for its first `n` lanes), equal to the scalar engine's
    /// per-item step counts.
    pub(crate) fn lane_steps(&self) -> &[u64; LANES] {
        &self.steps
    }

    /// Execute one batch of `gids.len()` (≤ [`LANES`]) work-items from
    /// block 0 to completion, on the engine's codegen tier.
    pub(crate) fn exec_batch(
        &mut self,
        f: &Function,
        gids: &[[usize; 3]],
        gsize: [usize; 3],
        bmap: &[usize],
        bufs: &mut Mem<'_>,
        sink: CountSink<'_>,
    ) -> Result<(), VmError> {
        match self.tier {
            Tier::Portable => {
                self.exec_batch_body::<PortableBody>(f, gids, gsize, bmap, bufs, sink)
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => {
                // SAFETY: `Tier::detect` picks `Avx2` only on a CPU that
                // reports AVX2.
                unsafe { self.exec_batch_avx2(f, gids, gsize, bmap, bufs, sink) }
            }
        }
    }

    /// `exec_batch_body` compiled with AVX2 enabled: the full-width path
    /// inlines into it, so its row kernels use 256-bit vectors.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn exec_batch_avx2(
        &mut self,
        f: &Function,
        gids: &[[usize; 3]],
        gsize: [usize; 3],
        bmap: &[usize],
        bufs: &mut Mem<'_>,
        sink: CountSink<'_>,
    ) -> Result<(), VmError> {
        self.exec_batch_body::<Avx2Body>(f, gids, gsize, bmap, bufs, sink)
    }

    /// The one batch loop both tiers instantiate; `K` picks the layout.
    #[inline(always)]
    fn exec_batch_body<K: Codegen>(
        &mut self,
        f: &Function,
        gids: &[[usize; 3]],
        gsize: [usize; 3],
        bmap: &[usize],
        bufs: &mut Mem<'_>,
        mut sink: CountSink<'_>,
    ) -> Result<(), VmError> {
        let n = gids.len();
        debug_assert!((1..=LANES).contains(&n));
        for d in 0..3 {
            for (l, g) in gids.iter().enumerate() {
                self.gid[d][l] = g[d] as i64;
            }
        }
        let full = ExecMask::full(n);
        let exit = f.cfg.exit();
        // The current reconvergence frame lives in locals so the uniform
        // fast path never touches the stack; `self.stack` holds only
        // suspended frames (the other branch sides and the parked parents).
        let mut pc: u32 = 0;
        let mut rpc: u32 = exit;
        let mut mask = full;
        self.stack.clear();
        // Step accounting: `batch_steps` is charged once per block run
        // under the full mask, and `self.steps[l]` holds lane `l`'s
        // offset from it, charged only by blocks run under a partial mask
        // (so a full-mask block costs O(1) even after divergence). Lane
        // `l`'s total is `batch_steps + steps[l]`, and every lane's total
        // stayed within the limit at the previous check, so testing the
        // largest offset fires at exactly the block where the scalar
        // engine would.
        let mut batch_steps: u64 = 0;
        let mut max_off: u64 = 0;
        self.steps[..n].fill(0);
        let dec = &f.decoded;
        loop {
            if pc == rpc {
                // The current lane subset reached its reconvergence point;
                // resume the most recently suspended frame. (Its lanes are
                // re-merged implicitly: the parked parent's mask already
                // contains them.) An empty stack means every lane returned.
                match self.stack.pop() {
                    Some(fr) => {
                        pc = fr.pc;
                        rpc = fr.rpc;
                        mask = fr.mask;
                        continue;
                    }
                    None => break,
                }
            }
            let block = pc as usize;
            let b = &f.blocks[block];
            if mask == full {
                sink.count_block(block, n);
                batch_steps += b.step_cost();
            } else {
                sink.count_block_masked(block, mask);
                let cost = b.step_cost();
                for l in mask.lanes() {
                    self.steps[l] += cost;
                    max_off = max_off.max(self.steps[l]);
                }
            }
            if batch_steps + max_off > self.step_limit {
                return Err(VmError::StepLimitExceeded {
                    limit: self.step_limit,
                });
            }
            if mask == full {
                for op in dec.block_ops(block) {
                    self.exec_dec::<K>(op, n, gsize, bmap, bufs)?;
                }
            } else {
                // Per-lane scalar work that AVX2 cannot widen stays out
                // of the AVX2 body.
                let ops = dec.block_ops(block);
                inline_if!(
                    !K::AVX2,
                    self.exec_block_masked(ops, mask, gsize, bmap, bufs)
                )?;
            }
            // Branch-like terminators evaluate their condition over all
            // `LANES` rows at once and keep the active lanes' bits (rows
            // past the live prefix hold stale values, which the AND
            // drops); direct jumps and returns short-circuit the loop.
            let (then, els, taken) = match b.term {
                Terminator::Jump(t) => {
                    pc = t;
                    continue;
                }
                Terminator::Ret => {
                    // A `Ret` can only execute in a frame whose rejoin is
                    // the virtual exit: a reconvergence region rejoining
                    // at a real block r has every path pass through r
                    // before returning (r post-dominates the region).
                    debug_assert_eq!(rpc, exit);
                    pc = rpc;
                    continue;
                }
                Terminator::Branch { cond, then, els } => {
                    let c = &self.iregs[cond as usize];
                    (then, els, pack_rows(c, c, |v, _| v != 0))
                }
                Terminator::BranchCmp {
                    op,
                    float,
                    a,
                    b: rb,
                    then,
                    els,
                } => {
                    // Fused cmp+branch: no boolean register is written.
                    let taken = if float {
                        cmp_rows(op, &self.fregs[a as usize], &self.fregs[rb as usize])
                    } else {
                        cmp_rows(op, &self.iregs[a as usize], &self.iregs[rb as usize])
                    };
                    (then, els, taken)
                }
            };
            // A uniform branch (the hot case for guards and loop
            // back-edges) leaves one side empty and keeps the frame.
            let t = ExecMask(mask.0 & taken);
            let e = ExecMask(mask.0 & !taken);
            if e.is_empty() {
                pc = then;
                continue;
            }
            if t.is_empty() {
                pc = els;
                continue;
            }
            // A branch with no post-dominator (an infinite loop)
            // rejoins "at the exit": such lanes can only stop via
            // the step limit, exactly as on the scalar engine.
            let r = match f.cfg.ipdom[block] {
                NO_POST_DOM => exit,
                r => r,
            };
            // Suspend the current frame parked at the rejoin with
            // the merged mask, then the not-taken side; the taken
            // side becomes current. A side that jumps straight to
            // the rejoin needs no frame — its lanes simply wait in
            // the parked parent.
            self.stack.push(Frame { pc: r, rpc, mask });
            if els != r {
                self.stack.push(Frame {
                    pc: els,
                    rpc: r,
                    mask: e,
                });
            }
            if then != r {
                pc = then;
                rpc = r;
                mask = t;
            } else {
                // The taken side *is* the rejoin: resume the most
                // recently pushed frame instead (the not-taken
                // side, or the parked parent if that side also
                // jumps straight to the rejoin).
                let Some(fr) = self.stack.pop() else {
                    unreachable!("parent frame just pushed");
                };
                pc = fr.pc;
                rpc = fr.rpc;
                mask = fr.mask;
            }
        }
        for s in self.steps[..n].iter_mut() {
            *s += batch_steps;
        }
        Ok(())
    }

    /// Execute one decoded op across the first `n` lanes: lane-wise row
    /// kernels reached by one flat dispatch on the [`OpCode`], with
    /// operands and immediates already extracted. Results are
    /// bit-identical to the scalar engine running the corresponding
    /// [`Instr`](crate::bytecode::Instr)s once per item.
    ///
    /// The fused superinstructions and the `LoadF`/`StoreF` kernels go
    /// through `inline_if!` and the row kernels through `K`, so each tier
    /// gets its layout (see [`Codegen`]).
    #[inline(always)]
    fn exec_dec<K: Codegen>(
        &mut self,
        op: &DecOp,
        n: usize,
        gsize: [usize; 3],
        bmap: &[usize],
        bufs: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        let u = op.unsigned;
        let (dst, a, b) = (op.dst, op.a, op.b);
        match op.code {
            OpCode::ConstI => self.iregs[dst as usize][..n].fill(op.imm),
            OpCode::ConstF => self.fregs[dst as usize][..n].fill(op.fimm),
            OpCode::MovI => {
                let s = self.iregs[a as usize];
                self.iregs[dst as usize][..n].copy_from_slice(&s[..n]);
            }
            OpCode::MovF => {
                let s = self.fregs[a as usize];
                self.fregs[dst as usize][..n].copy_from_slice(&s[..n]);
            }
            OpCode::IAdd => K::apply2(&mut self.iregs, n, dst, a, b, |x, y| {
                wrap32(x.wrapping_add(y), u)
            }),
            OpCode::ISub => K::apply2(&mut self.iregs, n, dst, a, b, |x, y| {
                wrap32(x.wrapping_sub(y), u)
            }),
            OpCode::IMul => K::apply2(&mut self.iregs, n, dst, a, b, |x, y| {
                wrap32(x.wrapping_mul(y), u)
            }),
            OpCode::IDiv | OpCode::IRem => {
                let o = if op.code == OpCode::IDiv {
                    IBinOp::Div
                } else {
                    IBinOp::Rem
                };
                let x = self.iregs[a as usize];
                let y = self.iregs[b as usize];
                let d = &mut self.iregs[dst as usize];
                for ((d, &x), &y) in d[..n].iter_mut().zip(&x[..n]).zip(&y[..n]) {
                    *d = int_bin(o, x, y, u)?;
                }
            }
            OpCode::IAnd => K::apply2(&mut self.iregs, n, dst, a, b, |x, y| wrap32(x & y, u)),
            OpCode::IOr => K::apply2(&mut self.iregs, n, dst, a, b, |x, y| wrap32(x | y, u)),
            OpCode::IXor => K::apply2(&mut self.iregs, n, dst, a, b, |x, y| wrap32(x ^ y, u)),
            OpCode::IShl => K::apply2(&mut self.iregs, n, dst, a, b, |x, y| {
                wrap32(x.wrapping_shl((y & 31) as u32), u)
            }),
            OpCode::IShr => K::apply2(&mut self.iregs, n, dst, a, b, |x, y| {
                let s = (y & 31) as u32;
                let v = if u {
                    ((x as u64) >> s) as i64
                } else {
                    (x as i32 >> s) as i64
                };
                wrap32(v, u)
            }),
            OpCode::ImmAdd => {
                let imm = op.imm;
                K::apply1(&mut self.iregs, n, dst, a, |x| {
                    wrap32(x.wrapping_add(imm), u)
                });
            }
            OpCode::ImmSub => {
                let imm = op.imm;
                K::apply1(&mut self.iregs, n, dst, a, |x| {
                    wrap32(x.wrapping_sub(imm), u)
                });
            }
            OpCode::ImmMul => {
                let imm = op.imm;
                K::apply1(&mut self.iregs, n, dst, a, |x| {
                    wrap32(x.wrapping_mul(imm), u)
                });
            }
            OpCode::ImmDiv | OpCode::ImmRem => {
                let o = if op.code == OpCode::ImmDiv {
                    IBinOp::Div
                } else {
                    IBinOp::Rem
                };
                let x = self.iregs[a as usize];
                let d = &mut self.iregs[dst as usize];
                for (d, &x) in d[..n].iter_mut().zip(&x[..n]) {
                    *d = int_bin(o, x, op.imm, u)?;
                }
            }
            OpCode::ImmAnd => {
                let imm = op.imm;
                K::apply1(&mut self.iregs, n, dst, a, |x| wrap32(x & imm, u));
            }
            OpCode::ImmOr => {
                let imm = op.imm;
                K::apply1(&mut self.iregs, n, dst, a, |x| wrap32(x | imm, u));
            }
            OpCode::ImmXor => {
                let imm = op.imm;
                K::apply1(&mut self.iregs, n, dst, a, |x| wrap32(x ^ imm, u));
            }
            OpCode::ImmShl => {
                let s = (op.imm & 31) as u32;
                K::apply1(&mut self.iregs, n, dst, a, |x| wrap32(x.wrapping_shl(s), u));
            }
            OpCode::ImmShr => {
                let s = (op.imm & 31) as u32;
                K::apply1(&mut self.iregs, n, dst, a, |x| {
                    let v = if u {
                        ((x as u64) >> s) as i64
                    } else {
                        (x as i32 >> s) as i64
                    };
                    wrap32(v, u)
                });
            }
            OpCode::FAdd => K::apply2(&mut self.fregs, n, dst, a, b, |x, y| x + y),
            OpCode::FSub => K::apply2(&mut self.fregs, n, dst, a, b, |x, y| x - y),
            OpCode::FMul => K::apply2(&mut self.fregs, n, dst, a, b, |x, y| x * y),
            OpCode::FDiv => K::apply2(&mut self.fregs, n, dst, a, b, |x, y| x / y),
            OpCode::ICmpLt => K::apply2(&mut self.iregs, n, dst, a, b, |x, y| i64::from(x < y)),
            OpCode::ICmpLe => K::apply2(&mut self.iregs, n, dst, a, b, |x, y| i64::from(x <= y)),
            OpCode::ICmpGt => K::apply2(&mut self.iregs, n, dst, a, b, |x, y| i64::from(x > y)),
            OpCode::ICmpGe => K::apply2(&mut self.iregs, n, dst, a, b, |x, y| i64::from(x >= y)),
            OpCode::ICmpEq => K::apply2(&mut self.iregs, n, dst, a, b, |x, y| i64::from(x == y)),
            OpCode::ICmpNe => K::apply2(&mut self.iregs, n, dst, a, b, |x, y| i64::from(x != y)),
            OpCode::FCmpLt
            | OpCode::FCmpLe
            | OpCode::FCmpGt
            | OpCode::FCmpGe
            | OpCode::FCmpEq
            | OpCode::FCmpNe => {
                let x = &self.fregs[a as usize];
                let y = &self.fregs[b as usize];
                let d = &mut self.iregs[dst as usize];
                match op.code {
                    OpCode::FCmpLt => apply_cmp(d, x, y, n, |x, y| x < y),
                    OpCode::FCmpLe => apply_cmp(d, x, y, n, |x, y| x <= y),
                    OpCode::FCmpGt => apply_cmp(d, x, y, n, |x, y| x > y),
                    OpCode::FCmpGe => apply_cmp(d, x, y, n, |x, y| x >= y),
                    OpCode::FCmpEq => apply_cmp(d, x, y, n, |x, y| x == y),
                    _ => apply_cmp(d, x, y, n, |x, y| x != y),
                }
            }
            OpCode::NegI => K::apply1(&mut self.iregs, n, dst, a, |x| {
                wrap32(0i64.wrapping_sub(x), u)
            }),
            OpCode::NegF => K::apply1(&mut self.fregs, n, dst, a, |x| -x),
            OpCode::NotI => K::apply1(&mut self.iregs, n, dst, a, |x| i64::from(x == 0)),
            OpCode::BitNotI => K::apply1(&mut self.iregs, n, dst, a, |x| wrap32(!x, u)),
            OpCode::CastIF => {
                let x = &self.iregs[a as usize];
                let d = &mut self.fregs[dst as usize];
                for (d, &x) in d[..n].iter_mut().zip(&x[..n]) {
                    *d = x as f64;
                }
            }
            OpCode::CastFI => {
                let x = &self.fregs[a as usize];
                let d = &mut self.iregs[dst as usize];
                if u {
                    for (d, &x) in d[..n].iter_mut().zip(&x[..n]) {
                        *d = i64::from(x as u32);
                    }
                } else {
                    for (d, &x) in d[..n].iter_mut().zip(&x[..n]) {
                        *d = i64::from(x as i32);
                    }
                }
            }
            OpCode::CastII => K::apply1(&mut self.iregs, n, dst, a, |x| wrap32(x, u)),
            OpCode::Sqrt => K::apply1(&mut self.fregs, n, dst, a, f64::sqrt),
            OpCode::Rsqrt => K::apply1(&mut self.fregs, n, dst, a, |x| 1.0 / x.sqrt()),
            OpCode::Exp => K::apply1(&mut self.fregs, n, dst, a, f64::exp),
            OpCode::Log => K::apply1(&mut self.fregs, n, dst, a, f64::ln),
            OpCode::Sin => K::apply1(&mut self.fregs, n, dst, a, f64::sin),
            OpCode::Cos => K::apply1(&mut self.fregs, n, dst, a, f64::cos),
            OpCode::Tan => K::apply1(&mut self.fregs, n, dst, a, f64::tan),
            OpCode::Fabs => K::apply1(&mut self.fregs, n, dst, a, f64::abs),
            OpCode::Floor => K::apply1(&mut self.fregs, n, dst, a, f64::floor),
            OpCode::Ceil => K::apply1(&mut self.fregs, n, dst, a, f64::ceil),
            OpCode::Pow => K::apply2(&mut self.fregs, n, dst, a, b, f64::powf),
            OpCode::Fmin => K::apply2(&mut self.fregs, n, dst, a, b, f64::min),
            OpCode::Fmax => K::apply2(&mut self.fregs, n, dst, a, b, f64::max),
            OpCode::Fmod => K::apply2(&mut self.fregs, n, dst, a, b, |x, y| x % y),
            OpCode::IMin => K::apply2(&mut self.iregs, n, dst, a, b, i64::min),
            OpCode::IMax => K::apply2(&mut self.iregs, n, dst, a, b, i64::max),
            OpCode::IAbs => K::apply1(&mut self.iregs, n, dst, a, |x| {
                wrap32(x.wrapping_abs(), false)
            }),
            OpCode::LoadF => inline_if!(K::AVX2, self.lane_load_f(dst, a, b, n, bmap, bufs))?,
            OpCode::LoadI => {
                // Index and destination share the I register file; copy
                // the index lanes so the destination can borrow mutably.
                let el = self.elided(b);
                let idxv = self.iregs[a as usize];
                let idxv = &idxv;
                let bd = bufs.load(bmap[b as usize]);
                let d = &mut self.iregs[dst as usize];
                if el {
                    debug_assert!(all_in_bounds(idxv, n, bd.len()), "elision proof violated");
                    // SAFETY: the elision bit is set only when the interval
                    // analysis proved every access on this parameter in
                    // `[0, len)`.
                    unsafe {
                        match bd {
                            BufferData::I32(v) => {
                                for (d, &i) in d[..n].iter_mut().zip(&idxv[..n]) {
                                    *d = i64::from(*v.get_unchecked(i as usize));
                                }
                            }
                            BufferData::U32(v) => {
                                for (d, &i) in d[..n].iter_mut().zip(&idxv[..n]) {
                                    *d = i64::from(*v.get_unchecked(i as usize));
                                }
                            }
                            BufferData::F32(_) => unreachable!("type-checked load"),
                        }
                    }
                } else if all_in_bounds(idxv, n, bd.len()) {
                    match bd {
                        BufferData::I32(v) => {
                            for (d, &i) in d[..n].iter_mut().zip(&idxv[..n]) {
                                *d = i64::from(v[i as usize]);
                            }
                        }
                        BufferData::U32(v) => {
                            for (d, &i) in d[..n].iter_mut().zip(&idxv[..n]) {
                                *d = i64::from(v[i as usize]);
                            }
                        }
                        BufferData::F32(_) => unreachable!("type-checked load"),
                    }
                } else {
                    for (d, &i) in d[..n].iter_mut().zip(&idxv[..n]) {
                        let val = match bd {
                            BufferData::I32(v) => usize::try_from(i)
                                .ok()
                                .and_then(|i| v.get(i))
                                .map(|&x| i64::from(x)),
                            BufferData::U32(v) => usize::try_from(i)
                                .ok()
                                .and_then(|i| v.get(i))
                                .map(|&x| i64::from(x)),
                            BufferData::F32(_) => unreachable!("type-checked load"),
                        };
                        let Some(val) = val else {
                            return Err(VmError::OutOfBounds {
                                buffer: b as usize,
                                index: i,
                                len: bd.len(),
                            });
                        };
                        *d = val;
                    }
                }
            }
            OpCode::StoreF => inline_if!(K::AVX2, self.lane_store_f(dst, a, b, n, bmap, bufs))?,
            OpCode::StoreI => {
                let el = self.elided(b);
                let idxv = &self.iregs[a as usize];
                let srcv = &self.iregs[dst as usize];
                let bd = bufs.store(bmap[b as usize]);
                let len = bd.len();
                if el {
                    debug_assert!(all_in_bounds(idxv, n, len), "elision proof violated");
                    // SAFETY: see `LoadI` above — statically proven in bounds.
                    unsafe {
                        match bd {
                            BufferData::I32(v) => {
                                for (&i, &x) in idxv[..n].iter().zip(&srcv[..n]) {
                                    *v.get_unchecked_mut(i as usize) = x as i32;
                                }
                            }
                            BufferData::U32(v) => {
                                for (&i, &x) in idxv[..n].iter().zip(&srcv[..n]) {
                                    *v.get_unchecked_mut(i as usize) = x as u32;
                                }
                            }
                            BufferData::F32(_) => unreachable!("type-checked store"),
                        }
                    }
                } else if all_in_bounds(idxv, n, len) {
                    match bd {
                        BufferData::I32(v) => {
                            for (&i, &x) in idxv[..n].iter().zip(&srcv[..n]) {
                                v[i as usize] = x as i32;
                            }
                        }
                        BufferData::U32(v) => {
                            for (&i, &x) in idxv[..n].iter().zip(&srcv[..n]) {
                                v[i as usize] = x as u32;
                            }
                        }
                        BufferData::F32(_) => unreachable!("type-checked store"),
                    }
                } else {
                    for (&i, &x) in idxv[..n].iter().zip(&srcv[..n]) {
                        let slot = match bd {
                            BufferData::I32(v) => {
                                usize::try_from(i).ok().and_then(|i| v.get_mut(i)).map(|s| {
                                    *s = x as i32;
                                })
                            }
                            BufferData::U32(v) => {
                                usize::try_from(i).ok().and_then(|i| v.get_mut(i)).map(|s| {
                                    *s = x as u32;
                                })
                            }
                            BufferData::F32(_) => unreachable!("type-checked store"),
                        };
                        if slot.is_none() {
                            return Err(VmError::OutOfBounds {
                                buffer: b as usize,
                                index: i,
                                len,
                            });
                        }
                    }
                }
            }
            OpCode::GlobalId => {
                let g = self.gid[a as usize];
                self.iregs[dst as usize][..n].copy_from_slice(&g[..n]);
            }
            OpCode::GlobalSize => {
                self.iregs[dst as usize][..n].fill(gsize[a as usize] as i64);
            }
            // Superinstructions. Compute pairs run as two mono passes —
            // exactly the unfused execution, reached through a single
            // dispatch. Memory pairs collapse to a single loop when all
            // accesses are known in bounds, and fall back to the unfused
            // sequence otherwise so each lane faults exactly where the
            // original pair would.
            OpCode::FOp2 => inline_if!(K::AVX2, self.fused_fop2::<K>(op, n)),
            OpCode::IOp2 => inline_if!(K::AVX2, self.fused_iop2::<K>(op, n)),
            OpCode::Load2F => inline_if!(K::AVX2, self.fused_load2f(op, n, bmap, bufs))?,
            OpCode::LoadFOp => inline_if!(K::AVX2, self.fused_load_fop::<K>(op, n, bmap, bufs))?,
            OpCode::FOpStore => inline_if!(K::AVX2, self.fused_fop_store::<K>(op, n, bmap, bufs))?,
        }
        Ok(())
    }

    /// Full-width `FOp2`: a single chain-fused pass when the second op
    /// reads the first's result and no written row aliases a first-half
    /// operand; two mono passes (the unfused execution, one dispatch)
    /// otherwise. A constant-producing half folds its immediate into
    /// the partner's loop instead of round-tripping through its row.
    #[inline(always)]
    fn fused_fop2<K: Codegen>(&mut self, op: &DecOp, n: usize) {
        let (s1, s2) = (op.sub1, op.sub2);
        if s2 == F_CONST {
            // The second half reads nothing, so there is no chain.
            apply_f::<K>(&mut self.fregs, n, op.c, op.a, op.b, s1, op.fimm);
            self.fregs[op.dst as usize][..n].fill(op.fimm);
            return;
        }
        if s1 == F_CONST {
            return self.fused_const_fop::<K>(op, n);
        }
        // Two mono passes — the unfused execution minus one dispatch.
        // A single loop carrying the intermediate in a register was
        // tried here and measured *slower* than the two passes on every
        // suite kernel (the two-output chain loop defeats the
        // vectorizer); the masked path keeps its chain loop, where
        // per-lane interleaving wins over a second pass across the
        // scattered active set.
        apply_f::<K>(&mut self.fregs, n, op.c, op.a, op.b, s1, op.fimm);
        apply_f::<K>(&mut self.fregs, n, op.dst, op.d, op.e, s2, op.fimm);
    }

    /// Full-width `FOp2` whose first half is `ConstF`: when the second
    /// op reads the constant, the immediate is folded straight into its
    /// loop (or the whole pair collapses to two row fills); two mono
    /// passes otherwise.
    #[inline(always)]
    fn fused_const_fop<K: Codegen>(&mut self, op: &DecOp, n: usize) {
        let (t, z) = (op.c as usize, op.dst as usize);
        let (p, q) = (op.d, op.e);
        let fi = op.fimm;
        if t != z && (p == op.c || q == op.c) {
            let s2 = op.sub2;
            macro_rules! cc {
                ($g:expr) => {{
                    let g = $g;
                    self.fregs[t][..n].fill(fi);
                    if p == op.c && q == op.c {
                        let v = g(fi, fi);
                        self.fregs[z][..n].fill(v);
                    } else {
                        let (swap, o) = if p == op.c {
                            (false, q as usize)
                        } else {
                            (true, p as usize)
                        };
                        if o == z {
                            for x in self.fregs[z][..n].iter_mut() {
                                *x = if swap { g(*x, fi) } else { g(fi, *x) };
                            }
                        } else {
                            let Ok([dz, ro]) = self.fregs.get_disjoint_mut([z, o]) else {
                                unreachable!("disjoint const-chain registers");
                            };
                            for l in 0..n {
                                dz[l] = if swap { g(ro[l], fi) } else { g(fi, ro[l]) };
                            }
                        }
                    }
                    return;
                }};
            }
            match s2 {
                F_ADD => cc!(|x: f64, y: f64| x + y),
                F_SUB => cc!(|x: f64, y: f64| x - y),
                F_MUL => cc!(|x: f64, y: f64| x * y),
                F_DIV => cc!(|x: f64, y: f64| x / y),
                _ => {
                    // A unary second half reads `p` only; when that is
                    // the constant, both rows become fills.
                    if p == op.c {
                        let vz = match s2 {
                            F_MOV => Some(fi),
                            5 => Some(fi.sqrt()),
                            6 => Some(1.0 / fi.sqrt()),
                            7 => Some(fi.exp()),
                            8 => Some(fi.ln()),
                            9 => Some(fi.sin()),
                            10 => Some(fi.cos()),
                            11 => Some(fi.tan()),
                            12 => Some(fi.abs()),
                            13 => Some(fi.floor()),
                            14 => Some(fi.ceil()),
                            F_NEG => Some(-fi),
                            _ => None,
                        };
                        if let Some(vz) = vz {
                            self.fregs[t][..n].fill(fi);
                            self.fregs[z][..n].fill(vz);
                            return;
                        }
                    }
                }
            }
        }
        self.fregs[t][..n].fill(fi);
        apply_f::<K>(&mut self.fregs, n, op.dst, op.d, op.e, op.sub2, fi);
    }

    /// Full-width `IOp2`.
    #[inline(always)]
    fn fused_iop2<K: Codegen>(&mut self, op: &DecOp, n: usize) {
        // Two mono passes; see `fused_fop2` for why there is no
        // full-width chain loop.
        apply_i::<K>(&mut self.iregs, n, op.c, op.a, op.b, op.sub1);
        apply_i::<K>(&mut self.iregs, n, op.dst, op.d, op.e, op.sub2);
    }

    /// Full-width `Load2F`: when both gathers are fully in bounds, one
    /// pass performs both (the destinations are distinct by fusion
    /// rule); otherwise the halves run unfused so each lane faults
    /// exactly where the original pair would.
    #[inline(always)]
    fn fused_load2f(
        &mut self,
        op: &DecOp,
        n: usize,
        bmap: &[usize],
        bufs: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        {
            let el = self.elided(op.b) && self.elided(op.e);
            let idx1 = &self.iregs[op.a as usize];
            let idx2 = &self.iregs[op.d as usize];
            let BufferData::F32(v1) = bufs.load(bmap[op.b as usize]) else {
                unreachable!("type-checked load");
            };
            let BufferData::F32(v2) = bufs.load(bmap[op.e as usize]) else {
                unreachable!("type-checked load");
            };
            if el {
                debug_assert!(
                    all_in_bounds(idx1, n, v1.len()) && all_in_bounds(idx2, n, v2.len()),
                    "elision proof violated"
                );
                let Ok([d1, d2]) = self
                    .fregs
                    .get_disjoint_mut([op.c as usize, op.dst as usize])
                else {
                    unreachable!("distinct fused load destinations");
                };
                for l in 0..n {
                    // SAFETY: both elision bits are set only when the
                    // interval analysis proved every access on each
                    // parameter in `[0, len)`.
                    unsafe {
                        d1[l] = f64::from(*v1.get_unchecked(idx1[l] as usize));
                        d2[l] = f64::from(*v2.get_unchecked(idx2[l] as usize));
                    }
                }
                return Ok(());
            }
            if all_in_bounds(idx1, n, v1.len()) && all_in_bounds(idx2, n, v2.len()) {
                let Ok([d1, d2]) = self
                    .fregs
                    .get_disjoint_mut([op.c as usize, op.dst as usize])
                else {
                    unreachable!("distinct fused load destinations");
                };
                for l in 0..n {
                    d1[l] = f64::from(v1[idx1[l] as usize]);
                    d2[l] = f64::from(v2[idx2[l] as usize]);
                }
                return Ok(());
            }
        }
        self.lane_load_f(op.c, op.a, op.b, n, bmap, bufs)?;
        self.lane_load_f(op.dst, op.d, op.e, n, bmap, bufs)
    }

    /// Full-width `LoadFOp`: gather + float compute in one pass when the
    /// gather is fully in bounds and the compute is a hot binop; the
    /// unfused sequence otherwise.
    #[inline(always)]
    fn fused_load_fop<K: Codegen>(
        &mut self,
        op: &DecOp,
        n: usize,
        bmap: &[usize],
        bufs: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        let (s2, fimm) = (op.sub2, op.fimm);
        let el = self.elided(op.b);
        let fused = {
            let idxv = &self.iregs[op.a as usize];
            let BufferData::F32(v) = bufs.load(bmap[op.b as usize]) else {
                unreachable!("type-checked load");
            };
            if el || all_in_bounds(idxv, n, v.len()) {
                debug_assert!(all_in_bounds(idxv, n, v.len()), "elision proof violated");
                match s2 {
                    F_ADD => load_fop_fast(&mut self.fregs, idxv, v, n, op, el, |x, y| x + y),
                    F_SUB => load_fop_fast(&mut self.fregs, idxv, v, n, op, el, |x, y| x - y),
                    F_MUL => load_fop_fast(&mut self.fregs, idxv, v, n, op, el, |x, y| x * y),
                    F_DIV => load_fop_fast(&mut self.fregs, idxv, v, n, op, el, |x, y| x / y),
                    F_MOV => load_fop_fast(&mut self.fregs, idxv, v, n, op, el, |x, _| x),
                    F_NEG => load_fop_fast(&mut self.fregs, idxv, v, n, op, el, |x: f64, _| -x),
                    5 => load_fop_fast(&mut self.fregs, idxv, v, n, op, el, |x: f64, _| x.sqrt()),
                    12 => load_fop_fast(&mut self.fregs, idxv, v, n, op, el, |x: f64, _| x.abs()),
                    _ => {
                        {
                            let dx = &mut self.fregs[op.c as usize];
                            for l in 0..n {
                                dx[l] = f64::from(v[idxv[l] as usize]);
                            }
                        }
                        apply_f::<K>(&mut self.fregs, n, op.dst, op.d, op.e, s2, fimm);
                    }
                }
                true
            } else {
                false
            }
        };
        if !fused {
            self.lane_load_f(op.c, op.a, op.b, n, bmap, bufs)?;
            apply_f::<K>(&mut self.fregs, n, op.dst, op.d, op.e, s2, fimm);
        }
        Ok(())
    }

    /// Full-width `FOpStore`: compute + scatter in one pass when the
    /// scatter is fully in bounds and the compute is a hot binop;
    /// compute-then-checked-store otherwise.
    #[inline(always)]
    fn fused_fop_store<K: Codegen>(
        &mut self,
        op: &DecOp,
        n: usize,
        bmap: &[usize],
        bufs: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        let (s1, fimm) = (op.sub1, op.fimm);
        let el = self.elided(op.d);
        let fused = {
            let idxv = &self.iregs[op.c as usize];
            let bd = bufs.store(bmap[op.d as usize]);
            let len = bd.len();
            let BufferData::F32(v) = bd else {
                unreachable!("type-checked store");
            };
            if el || all_in_bounds(idxv, n, len) {
                debug_assert!(all_in_bounds(idxv, n, len), "elision proof violated");
                match s1 {
                    F_ADD => {
                        fop_store_fast(&mut self.fregs, idxv, v, n, op, el, |x, y| x + y);
                        true
                    }
                    F_SUB => {
                        fop_store_fast(&mut self.fregs, idxv, v, n, op, el, |x, y| x - y);
                        true
                    }
                    F_MUL => {
                        fop_store_fast(&mut self.fregs, idxv, v, n, op, el, |x, y| x * y);
                        true
                    }
                    F_DIV => {
                        fop_store_fast(&mut self.fregs, idxv, v, n, op, el, |x, y| x / y);
                        true
                    }
                    F_MOV => {
                        fop_store_fast(&mut self.fregs, idxv, v, n, op, el, |x, _| x);
                        true
                    }
                    F_NEG => {
                        fop_store_fast(&mut self.fregs, idxv, v, n, op, el, |x: f64, _| -x);
                        true
                    }
                    5 => {
                        fop_store_fast(&mut self.fregs, idxv, v, n, op, el, |x: f64, _| x.sqrt());
                        true
                    }
                    12 => {
                        fop_store_fast(&mut self.fregs, idxv, v, n, op, el, |x: f64, _| x.abs());
                        true
                    }
                    F_CONST => {
                        // Constant store: fill the row, stream the value.
                        self.fregs[op.dst as usize][..n].fill(fimm);
                        let c = fimm as f32;
                        for l in 0..n {
                            v[idxv[l] as usize] = c;
                        }
                        true
                    }
                    _ => false,
                }
            } else {
                false
            }
        };
        if !fused {
            apply_f::<K>(&mut self.fregs, n, op.dst, op.a, op.b, s1, fimm);
            self.lane_store_f(op.dst, op.c, op.d, n, bmap, bufs)?;
        }
        Ok(())
    }

    /// The full-width `LoadF` kernel (`dst`, `idx` = index register,
    /// `buf` = buffer param), shared with the fused slow paths.
    #[inline(always)]
    fn lane_load_f(
        &mut self,
        dst: u16,
        idx: u16,
        buf: u16,
        n: usize,
        bmap: &[usize],
        bufs: &Mem<'_>,
    ) -> Result<(), VmError> {
        let el = self.elided(buf);
        let idxv = &self.iregs[idx as usize];
        let bd = bufs.load(bmap[buf as usize]);
        let BufferData::F32(v) = bd else {
            unreachable!("type-checked load");
        };
        let d = &mut self.fregs[dst as usize];
        if el {
            debug_assert!(all_in_bounds(idxv, n, v.len()), "elision proof violated");
            for (d, &i) in d[..n].iter_mut().zip(&idxv[..n]) {
                // SAFETY: the elision bit is set only when the interval
                // analysis proved every access on this parameter in
                // `[0, len)`.
                *d = f64::from(unsafe { *v.get_unchecked(i as usize) });
            }
        } else if all_in_bounds(idxv, n, v.len()) {
            for (d, &i) in d[..n].iter_mut().zip(&idxv[..n]) {
                *d = f64::from(v[i as usize]);
            }
        } else {
            for (d, &i) in d[..n].iter_mut().zip(&idxv[..n]) {
                let Some(val) = usize::try_from(i).ok().and_then(|i| v.get(i)) else {
                    return Err(VmError::OutOfBounds {
                        buffer: buf as usize,
                        index: i,
                        len: v.len(),
                    });
                };
                *d = f64::from(*val);
            }
        }
        Ok(())
    }

    /// The full-width `StoreF` kernel (`src` = source register, `idx` =
    /// index register, `buf` = buffer param), shared with the fused slow
    /// paths.
    #[inline(always)]
    fn lane_store_f(
        &mut self,
        src: u16,
        idx: u16,
        buf: u16,
        n: usize,
        bmap: &[usize],
        bufs: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        let el = self.elided(buf);
        let idxv = &self.iregs[idx as usize];
        let srcv = &self.fregs[src as usize];
        let bd = bufs.store(bmap[buf as usize]);
        let len = bd.len();
        let BufferData::F32(v) = bd else {
            unreachable!("type-checked store");
        };
        if el {
            debug_assert!(all_in_bounds(idxv, n, len), "elision proof violated");
            for (&i, &x) in idxv[..n].iter().zip(&srcv[..n]) {
                // SAFETY: see `lane_load_f` — statically proven in bounds.
                unsafe { *v.get_unchecked_mut(i as usize) = x as f32 };
            }
        } else if all_in_bounds(idxv, n, len) {
            for (&i, &x) in idxv[..n].iter().zip(&srcv[..n]) {
                v[i as usize] = x as f32;
            }
        } else {
            for (&i, &x) in idxv[..n].iter().zip(&srcv[..n]) {
                let Some(slot) = usize::try_from(i).ok().and_then(|i| v.get_mut(i)) else {
                    return Err(VmError::OutOfBounds {
                        buffer: buf as usize,
                        index: i,
                        len,
                    });
                };
                *slot = x as f32;
            }
        }
        Ok(())
    }

    /// Execute one block's decoded ops on the active lanes of `m`.
    #[inline(always)]
    fn exec_block_masked(
        &mut self,
        ops: &[DecOp],
        m: ExecMask,
        gsize: [usize; 3],
        bmap: &[usize],
        bufs: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        for op in ops {
            self.exec_dec_masked(op, m, gsize, bmap, bufs)?;
        }
        Ok(())
    }

    /// Execute one decoded op on the active lanes of `m` only: inactive
    /// lanes hold live register state of diverged lane subsets (parked at
    /// a rejoin point or scheduled on the other branch side), so their
    /// registers must not be written, their buffer accesses must not
    /// happen, and only active lanes may fault.
    #[inline(always)]
    fn exec_dec_masked(
        &mut self,
        op: &DecOp,
        m: ExecMask,
        gsize: [usize; 3],
        bmap: &[usize],
        bufs: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        let u = op.unsigned;
        let (dst, a, b) = (op.dst, op.a, op.b);
        match op.code {
            OpCode::ConstI => {
                for l in m.lanes() {
                    self.iregs[dst as usize][l] = op.imm;
                }
            }
            OpCode::ConstF => {
                for l in m.lanes() {
                    self.fregs[dst as usize][l] = op.fimm;
                }
            }
            OpCode::MovI => masked1(&mut self.iregs, m, dst, a, |x| x),
            OpCode::MovF => masked1(&mut self.fregs, m, dst, a, |x| x),
            OpCode::IAdd => masked2(&mut self.iregs, m, dst, a, b, |x, y| {
                wrap32(x.wrapping_add(y), u)
            }),
            OpCode::ISub => masked2(&mut self.iregs, m, dst, a, b, |x, y| {
                wrap32(x.wrapping_sub(y), u)
            }),
            OpCode::IMul => masked2(&mut self.iregs, m, dst, a, b, |x, y| {
                wrap32(x.wrapping_mul(y), u)
            }),
            OpCode::IDiv | OpCode::IRem => {
                let o = if op.code == OpCode::IDiv {
                    IBinOp::Div
                } else {
                    IBinOp::Rem
                };
                for l in m.lanes() {
                    let x = self.iregs[a as usize][l];
                    let y = self.iregs[b as usize][l];
                    self.iregs[dst as usize][l] = int_bin(o, x, y, u)?;
                }
            }
            OpCode::IAnd => masked2(&mut self.iregs, m, dst, a, b, |x, y| wrap32(x & y, u)),
            OpCode::IOr => masked2(&mut self.iregs, m, dst, a, b, |x, y| wrap32(x | y, u)),
            OpCode::IXor => masked2(&mut self.iregs, m, dst, a, b, |x, y| wrap32(x ^ y, u)),
            OpCode::IShl => masked2(&mut self.iregs, m, dst, a, b, |x, y| {
                wrap32(x.wrapping_shl((y & 31) as u32), u)
            }),
            OpCode::IShr => masked2(&mut self.iregs, m, dst, a, b, |x, y| {
                let s = (y & 31) as u32;
                let v = if u {
                    ((x as u64) >> s) as i64
                } else {
                    (x as i32 >> s) as i64
                };
                wrap32(v, u)
            }),
            OpCode::ImmAdd => {
                let imm = op.imm;
                masked1(&mut self.iregs, m, dst, a, |x| {
                    wrap32(x.wrapping_add(imm), u)
                });
            }
            OpCode::ImmSub => {
                let imm = op.imm;
                masked1(&mut self.iregs, m, dst, a, |x| {
                    wrap32(x.wrapping_sub(imm), u)
                });
            }
            OpCode::ImmMul => {
                let imm = op.imm;
                masked1(&mut self.iregs, m, dst, a, |x| {
                    wrap32(x.wrapping_mul(imm), u)
                });
            }
            OpCode::ImmDiv | OpCode::ImmRem => {
                let o = if op.code == OpCode::ImmDiv {
                    IBinOp::Div
                } else {
                    IBinOp::Rem
                };
                for l in m.lanes() {
                    let x = self.iregs[a as usize][l];
                    self.iregs[dst as usize][l] = int_bin(o, x, op.imm, u)?;
                }
            }
            OpCode::ImmAnd => {
                let imm = op.imm;
                masked1(&mut self.iregs, m, dst, a, |x| wrap32(x & imm, u));
            }
            OpCode::ImmOr => {
                let imm = op.imm;
                masked1(&mut self.iregs, m, dst, a, |x| wrap32(x | imm, u));
            }
            OpCode::ImmXor => {
                let imm = op.imm;
                masked1(&mut self.iregs, m, dst, a, |x| wrap32(x ^ imm, u));
            }
            OpCode::ImmShl => {
                let s = (op.imm & 31) as u32;
                masked1(&mut self.iregs, m, dst, a, |x| wrap32(x.wrapping_shl(s), u));
            }
            OpCode::ImmShr => {
                let s = (op.imm & 31) as u32;
                masked1(&mut self.iregs, m, dst, a, |x| {
                    let v = if u {
                        ((x as u64) >> s) as i64
                    } else {
                        (x as i32 >> s) as i64
                    };
                    wrap32(v, u)
                });
            }
            OpCode::FAdd => masked2(&mut self.fregs, m, dst, a, b, |x, y| x + y),
            OpCode::FSub => masked2(&mut self.fregs, m, dst, a, b, |x, y| x - y),
            OpCode::FMul => masked2(&mut self.fregs, m, dst, a, b, |x, y| x * y),
            OpCode::FDiv => masked2(&mut self.fregs, m, dst, a, b, |x, y| x / y),
            OpCode::ICmpLt => masked2(&mut self.iregs, m, dst, a, b, |x, y| i64::from(x < y)),
            OpCode::ICmpLe => masked2(&mut self.iregs, m, dst, a, b, |x, y| i64::from(x <= y)),
            OpCode::ICmpGt => masked2(&mut self.iregs, m, dst, a, b, |x, y| i64::from(x > y)),
            OpCode::ICmpGe => masked2(&mut self.iregs, m, dst, a, b, |x, y| i64::from(x >= y)),
            OpCode::ICmpEq => masked2(&mut self.iregs, m, dst, a, b, |x, y| i64::from(x == y)),
            OpCode::ICmpNe => masked2(&mut self.iregs, m, dst, a, b, |x, y| i64::from(x != y)),
            OpCode::FCmpLt
            | OpCode::FCmpLe
            | OpCode::FCmpGt
            | OpCode::FCmpGe
            | OpCode::FCmpEq
            | OpCode::FCmpNe => {
                for l in m.lanes() {
                    let x = self.fregs[a as usize][l];
                    let y = self.fregs[b as usize][l];
                    let r = match op.code {
                        OpCode::FCmpLt => x < y,
                        OpCode::FCmpLe => x <= y,
                        OpCode::FCmpGt => x > y,
                        OpCode::FCmpGe => x >= y,
                        OpCode::FCmpEq => x == y,
                        _ => x != y,
                    };
                    self.iregs[dst as usize][l] = i64::from(r);
                }
            }
            OpCode::NegI => masked1(&mut self.iregs, m, dst, a, |x| {
                wrap32(0i64.wrapping_sub(x), u)
            }),
            OpCode::NegF => masked1(&mut self.fregs, m, dst, a, |x| -x),
            OpCode::NotI => masked1(&mut self.iregs, m, dst, a, |x| i64::from(x == 0)),
            OpCode::BitNotI => masked1(&mut self.iregs, m, dst, a, |x| wrap32(!x, u)),
            OpCode::CastIF => {
                for l in m.lanes() {
                    self.fregs[dst as usize][l] = self.iregs[a as usize][l] as f64;
                }
            }
            OpCode::CastFI => {
                for l in m.lanes() {
                    let x = self.fregs[a as usize][l];
                    self.iregs[dst as usize][l] = if u {
                        i64::from(x as u32)
                    } else {
                        i64::from(x as i32)
                    };
                }
            }
            OpCode::CastII => masked1(&mut self.iregs, m, dst, a, |x| wrap32(x, u)),
            OpCode::Sqrt => masked1(&mut self.fregs, m, dst, a, f64::sqrt),
            OpCode::Rsqrt => masked1(&mut self.fregs, m, dst, a, |x| 1.0 / x.sqrt()),
            OpCode::Exp => masked1(&mut self.fregs, m, dst, a, f64::exp),
            OpCode::Log => masked1(&mut self.fregs, m, dst, a, f64::ln),
            OpCode::Sin => masked1(&mut self.fregs, m, dst, a, f64::sin),
            OpCode::Cos => masked1(&mut self.fregs, m, dst, a, f64::cos),
            OpCode::Tan => masked1(&mut self.fregs, m, dst, a, f64::tan),
            OpCode::Fabs => masked1(&mut self.fregs, m, dst, a, f64::abs),
            OpCode::Floor => masked1(&mut self.fregs, m, dst, a, f64::floor),
            OpCode::Ceil => masked1(&mut self.fregs, m, dst, a, f64::ceil),
            OpCode::Pow => masked2(&mut self.fregs, m, dst, a, b, f64::powf),
            OpCode::Fmin => masked2(&mut self.fregs, m, dst, a, b, f64::min),
            OpCode::Fmax => masked2(&mut self.fregs, m, dst, a, b, f64::max),
            OpCode::Fmod => masked2(&mut self.fregs, m, dst, a, b, |x, y| x % y),
            OpCode::IMin => masked2(&mut self.iregs, m, dst, a, b, i64::min),
            OpCode::IMax => masked2(&mut self.iregs, m, dst, a, b, i64::max),
            OpCode::IAbs => masked1(&mut self.iregs, m, dst, a, |x| {
                wrap32(x.wrapping_abs(), false)
            }),
            OpCode::LoadF => self.masked_load_f(dst, a, b, m, bmap, bufs)?,
            OpCode::LoadI => {
                let el = self.elided(b);
                let bd = bufs.load(bmap[b as usize]);
                if el {
                    for l in m.lanes() {
                        let i = self.iregs[a as usize][l];
                        debug_assert!((0..bd.len() as i64).contains(&i), "elision proof violated");
                        // SAFETY: the elision bit is set only when the
                        // interval analysis proved every access on this
                        // parameter in `[0, len)`.
                        let val = unsafe {
                            match bd {
                                BufferData::I32(v) => i64::from(*v.get_unchecked(i as usize)),
                                BufferData::U32(v) => i64::from(*v.get_unchecked(i as usize)),
                                BufferData::F32(_) => unreachable!("type-checked load"),
                            }
                        };
                        self.iregs[dst as usize][l] = val;
                    }
                    return Ok(());
                }
                for l in m.lanes() {
                    let i = self.iregs[a as usize][l];
                    let val = match bd {
                        BufferData::I32(v) => usize::try_from(i)
                            .ok()
                            .and_then(|i| v.get(i))
                            .map(|&x| i64::from(x)),
                        BufferData::U32(v) => usize::try_from(i)
                            .ok()
                            .and_then(|i| v.get(i))
                            .map(|&x| i64::from(x)),
                        BufferData::F32(_) => unreachable!("type-checked load"),
                    };
                    let Some(val) = val else {
                        return Err(VmError::OutOfBounds {
                            buffer: b as usize,
                            index: i,
                            len: bd.len(),
                        });
                    };
                    self.iregs[dst as usize][l] = val;
                }
            }
            OpCode::StoreF => self.masked_store_f(dst, a, b, m, bmap, bufs)?,
            OpCode::StoreI => {
                let el = self.elided(b);
                let bd = bufs.store(bmap[b as usize]);
                let len = bd.len();
                if el {
                    for l in m.lanes() {
                        let i = self.iregs[a as usize][l];
                        let x = self.iregs[dst as usize][l];
                        debug_assert!((0..len as i64).contains(&i), "elision proof violated");
                        // SAFETY: see `LoadI` above — statically proven
                        // in bounds.
                        unsafe {
                            match bd {
                                BufferData::I32(v) => *v.get_unchecked_mut(i as usize) = x as i32,
                                BufferData::U32(v) => *v.get_unchecked_mut(i as usize) = x as u32,
                                BufferData::F32(_) => unreachable!("type-checked store"),
                            }
                        }
                    }
                    return Ok(());
                }
                for l in m.lanes() {
                    let i = self.iregs[a as usize][l];
                    let x = self.iregs[dst as usize][l];
                    let stored = match bd {
                        BufferData::I32(v) => {
                            usize::try_from(i).ok().and_then(|i| v.get_mut(i)).map(|s| {
                                *s = x as i32;
                            })
                        }
                        BufferData::U32(v) => {
                            usize::try_from(i).ok().and_then(|i| v.get_mut(i)).map(|s| {
                                *s = x as u32;
                            })
                        }
                        BufferData::F32(_) => unreachable!("type-checked store"),
                    };
                    if stored.is_none() {
                        return Err(VmError::OutOfBounds {
                            buffer: b as usize,
                            index: i,
                            len,
                        });
                    }
                }
            }
            OpCode::GlobalId => {
                for l in m.lanes() {
                    self.iregs[dst as usize][l] = self.gid[a as usize][l];
                }
            }
            OpCode::GlobalSize => {
                for l in m.lanes() {
                    self.iregs[dst as usize][l] = gsize[a as usize] as i64;
                }
            }
            // Superinstructions. Compute pairs interleave per lane in a
            // single masked loop: they can't fault, and each lane reads
            // only its own elements, so running both halves back to back
            // within a lane is bit-identical to two masked passes (a
            // second-half operand naming the first's destination reads
            // the fresh value either way). `LoadFOp`/`FOpStore` also
            // interleave: the faultable half walks the active lanes in
            // the same order as the unfused pass, so the committed
            // stores and the reported fault are identical, and register
            // rows touched after an abort are unobservable. `Load2F`
            // must NOT interleave — with two faultable halves the
            // original faults on the *first* op's later lane before the
            // second op's earlier lane.
            OpCode::FOp2 => self.masked_fop2(op, m),
            OpCode::IOp2 => self.masked_iop2(op, m),
            OpCode::Load2F => {
                self.masked_load_f(op.c, op.a, op.b, m, bmap, bufs)?;
                self.masked_load_f(op.dst, op.d, op.e, m, bmap, bufs)?;
            }
            OpCode::LoadFOp => self.masked_load_fop(op, m, bmap, bufs)?,
            OpCode::FOpStore => self.masked_fop_store(op, m, bmap, bufs)?,
        }
        Ok(())
    }

    /// The masked `LoadF` kernel, shared with the fused memory pairs.
    #[inline]
    fn masked_load_f(
        &mut self,
        dst: u16,
        idx: u16,
        buf: u16,
        m: ExecMask,
        bmap: &[usize],
        bufs: &Mem<'_>,
    ) -> Result<(), VmError> {
        let el = self.elided(buf);
        let bd = bufs.load(bmap[buf as usize]);
        let BufferData::F32(v) = bd else {
            unreachable!("type-checked load");
        };
        if el {
            for l in m.lanes() {
                let i = self.iregs[idx as usize][l];
                debug_assert!((0..v.len() as i64).contains(&i), "elision proof violated");
                // SAFETY: the elision bit is set only when the interval
                // analysis proved every access on this parameter in
                // `[0, len)`.
                self.fregs[dst as usize][l] = f64::from(unsafe { *v.get_unchecked(i as usize) });
            }
            return Ok(());
        }
        for l in m.lanes() {
            let i = self.iregs[idx as usize][l];
            let Some(val) = usize::try_from(i).ok().and_then(|i| v.get(i)) else {
                return Err(VmError::OutOfBounds {
                    buffer: buf as usize,
                    index: i,
                    len: v.len(),
                });
            };
            self.fregs[dst as usize][l] = f64::from(*val);
        }
        Ok(())
    }

    /// The masked `StoreF` kernel, shared with the fused memory pairs.
    #[inline]
    fn masked_store_f(
        &mut self,
        src: u16,
        idx: u16,
        buf: u16,
        m: ExecMask,
        bmap: &[usize],
        bufs: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        let el = self.elided(buf);
        let bd = bufs.store(bmap[buf as usize]);
        let len = bd.len();
        let BufferData::F32(v) = bd else {
            unreachable!("type-checked store");
        };
        if el {
            for l in m.lanes() {
                let i = self.iregs[idx as usize][l];
                let x = self.fregs[src as usize][l];
                debug_assert!((0..len as i64).contains(&i), "elision proof violated");
                // SAFETY: see `masked_load_f` — statically proven in bounds.
                unsafe { *v.get_unchecked_mut(i as usize) = x as f32 };
            }
            return Ok(());
        }
        for l in m.lanes() {
            let i = self.iregs[idx as usize][l];
            let x = self.fregs[src as usize][l];
            let Some(slot) = usize::try_from(i).ok().and_then(|i| v.get_mut(i)) else {
                return Err(VmError::OutOfBounds {
                    buffer: buf as usize,
                    index: i,
                    len,
                });
            };
            *slot = x as f32;
        }
        Ok(())
    }

    /// Masked `FOp2`: one interleaved loop over the active lanes for the
    /// cheap micro-op pairs (the per-lane sequential order of
    /// [`masked_chain`] makes every aliasing shape correct, and a
    /// `ConstF` half becomes a closure ignoring its operands); two
    /// masked passes otherwise.
    #[inline(always)]
    fn masked_fop2(&mut self, op: &DecOp, m: ExecMask) {
        let (s1, s2) = (op.sub1, op.sub2);
        let fi = op.fimm;
        macro_rules! chain {
            ($f1:expr, $f2:expr) => {
                return masked_chain(&mut self.fregs, m, op, $f1, $f2)
            };
        }
        macro_rules! by2 {
            ($f1:expr) => {
                match s2 {
                    F_ADD => chain!($f1, |x, y| x + y),
                    F_SUB => chain!($f1, |x, y| x - y),
                    F_MUL => chain!($f1, |x, y| x * y),
                    F_DIV => chain!($f1, |x, y| x / y),
                    F_MOV => chain!($f1, |x, _| x),
                    F_NEG => chain!($f1, |x: f64, _| -x),
                    5 => chain!($f1, |x: f64, _| x.sqrt()),
                    12 => chain!($f1, |x: f64, _| x.abs()),
                    F_CONST => chain!($f1, |_, _| fi),
                    _ => {}
                }
            };
        }
        match s1 {
            F_ADD => by2!(|x, y| x + y),
            F_SUB => by2!(|x, y| x - y),
            F_MUL => by2!(|x, y| x * y),
            F_DIV => by2!(|x, y| x / y),
            F_MOV => by2!(|x, _| x),
            F_NEG => by2!(|x: f64, _| -x),
            5 => by2!(|x: f64, _| x.sqrt()),
            12 => by2!(|x: f64, _| x.abs()),
            F_CONST => by2!(|_, _| fi),
            _ => {}
        }
        masked_f(&mut self.fregs, m, op.c, op.a, op.b, s1, fi);
        masked_f(&mut self.fregs, m, op.dst, op.d, op.e, s2, fi);
    }

    /// Masked `IOp2`: one interleaved loop over the active lanes.
    #[inline(always)]
    fn masked_iop2(&mut self, op: &DecOp, m: ExecMask) {
        let u1 = op.sub1 & I_UNSIGNED != 0;
        let u2 = op.sub2 & I_UNSIGNED != 0;
        macro_rules! chain {
            ($f1:expr, $f2:expr) => {
                masked_chain(&mut self.iregs, m, op, $f1, $f2)
            };
        }
        match (op.sub1 & !I_UNSIGNED, op.sub2 & !I_UNSIGNED) {
            (0, 0) => chain!(|x: i64, y| wrap32(x.wrapping_add(y), u1), |x: i64, y| {
                wrap32(x.wrapping_add(y), u2)
            }),
            (0, 1) => chain!(|x: i64, y| wrap32(x.wrapping_add(y), u1), |x: i64, y| {
                wrap32(x.wrapping_sub(y), u2)
            }),
            (0, _) => chain!(|x: i64, y| wrap32(x.wrapping_add(y), u1), |x: i64, y| {
                wrap32(x.wrapping_mul(y), u2)
            }),
            (1, 0) => chain!(|x: i64, y| wrap32(x.wrapping_sub(y), u1), |x: i64, y| {
                wrap32(x.wrapping_add(y), u2)
            }),
            (1, 1) => chain!(|x: i64, y| wrap32(x.wrapping_sub(y), u1), |x: i64, y| {
                wrap32(x.wrapping_sub(y), u2)
            }),
            (1, _) => chain!(|x: i64, y| wrap32(x.wrapping_sub(y), u1), |x: i64, y| {
                wrap32(x.wrapping_mul(y), u2)
            }),
            (_, 0) => chain!(|x: i64, y| wrap32(x.wrapping_mul(y), u1), |x: i64, y| {
                wrap32(x.wrapping_add(y), u2)
            }),
            (_, 1) => chain!(|x: i64, y| wrap32(x.wrapping_mul(y), u1), |x: i64, y| {
                wrap32(x.wrapping_sub(y), u2)
            }),
            (_, _) => chain!(|x: i64, y| wrap32(x.wrapping_mul(y), u1), |x: i64, y| {
                wrap32(x.wrapping_mul(y), u2)
            }),
        }
    }

    /// Masked `LoadFOp`: gather + compute interleaved over the active
    /// lanes for the hot binops (the gather faults in the same per-lane
    /// order as the unfused pass); two masked passes otherwise.
    #[inline(always)]
    fn masked_load_fop(
        &mut self,
        op: &DecOp,
        m: ExecMask,
        bmap: &[usize],
        bufs: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        let (s2, fimm) = (op.sub2, op.fimm);
        macro_rules! go {
            ($f2:expr) => {{
                let el = self.elided(op.b);
                let (x, z) = (op.c as usize, op.dst as usize);
                let (p, q) = (op.d as usize, op.e as usize);
                let BufferData::F32(v) = bufs.load(bmap[op.b as usize]) else {
                    unreachable!("type-checked load");
                };
                for l in m.lanes() {
                    let i = self.iregs[op.a as usize][l];
                    let loaded = if el {
                        debug_assert!((0..v.len() as i64).contains(&i), "elision proof violated");
                        // SAFETY: the elision bit is set only when the
                        // interval analysis proved every access on this
                        // parameter in `[0, len)`.
                        f64::from(unsafe { *v.get_unchecked(i as usize) })
                    } else {
                        let Some(val) = usize::try_from(i).ok().and_then(|i| v.get(i)) else {
                            return Err(VmError::OutOfBounds {
                                buffer: op.b as usize,
                                index: i,
                                len: v.len(),
                            });
                        };
                        f64::from(*val)
                    };
                    self.fregs[x][l] = loaded;
                    let pv = self.fregs[p][l];
                    let qv = self.fregs[q][l];
                    self.fregs[z][l] = $f2(pv, qv);
                }
                return Ok(());
            }};
        }
        match s2 {
            F_ADD => go!(|x, y| x + y),
            F_SUB => go!(|x, y| x - y),
            F_MUL => go!(|x, y| x * y),
            F_DIV => go!(|x, y| x / y),
            F_MOV => go!(|x, _| x),
            F_NEG => go!(|x: f64, _| -x),
            5 => go!(|x: f64, _| x.sqrt()),
            12 => go!(|x: f64, _| x.abs()),
            _ => {}
        }
        self.masked_load_f(op.c, op.a, op.b, m, bmap, bufs)?;
        masked_f(&mut self.fregs, m, op.dst, op.d, op.e, s2, fimm);
        Ok(())
    }

    /// Masked `FOpStore`: compute + scatter interleaved over the active
    /// lanes for the hot binops (stores commit and fault in the same
    /// per-lane order as the unfused pass); two masked passes otherwise.
    #[inline(always)]
    fn masked_fop_store(
        &mut self,
        op: &DecOp,
        m: ExecMask,
        bmap: &[usize],
        bufs: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        let (s1, fimm) = (op.sub1, op.fimm);
        macro_rules! go {
            ($f1:expr) => {{
                let el = self.elided(op.d);
                let (a, b, z) = (op.a as usize, op.b as usize, op.dst as usize);
                let bd = bufs.store(bmap[op.d as usize]);
                let len = bd.len();
                let BufferData::F32(v) = bd else {
                    unreachable!("type-checked store");
                };
                for l in m.lanes() {
                    let t = $f1(self.fregs[a][l], self.fregs[b][l]);
                    self.fregs[z][l] = t;
                    let i = self.iregs[op.c as usize][l];
                    if el {
                        debug_assert!((0..len as i64).contains(&i), "elision proof violated");
                        // SAFETY: see `masked_load_fop` — statically
                        // proven in bounds.
                        unsafe { *v.get_unchecked_mut(i as usize) = t as f32 };
                        continue;
                    }
                    let Some(slot) = usize::try_from(i).ok().and_then(|i| v.get_mut(i)) else {
                        return Err(VmError::OutOfBounds {
                            buffer: op.d as usize,
                            index: i,
                            len,
                        });
                    };
                    *slot = t as f32;
                }
                return Ok(());
            }};
        }
        match s1 {
            F_ADD => go!(|x, y| x + y),
            F_SUB => go!(|x, y| x - y),
            F_MUL => go!(|x, y| x * y),
            F_DIV => go!(|x, y| x / y),
            F_MOV => go!(|x, _| x),
            F_NEG => go!(|x: f64, _| -x),
            5 => go!(|x: f64, _| x.sqrt()),
            12 => go!(|x: f64, _| x.abs()),
            F_CONST => go!(|_, _| fimm),
            _ => {}
        }
        masked_f(&mut self.fregs, m, op.dst, op.a, op.b, s1, fimm);
        self.masked_store_f(op.dst, op.c, op.d, m, bmap, bufs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::ir::NdRange;
    use crate::vm::{ArgValue, LaunchBuffers};

    /// Everything a sequence of batches leaves behind; floats and buffer
    /// elements as bit patterns, so NaNs compare too.
    #[derive(Debug, PartialEq)]
    struct Trace {
        results: Vec<Result<(), VmError>>,
        iregs: Vec<Vec<i64>>,
        fregs: Vec<Vec<u64>>,
        steps: Vec<Vec<u64>>,
        counts: Vec<Vec<Counters>>,
        bufs: Vec<Vec<u32>>,
    }

    /// Run items `0..n` of `src` batch by batch on `tier`, recording the
    /// engine state after every batch; stops at the first fault.
    fn trace(
        src: &str,
        n: usize,
        args: &[ArgValue],
        bufs: &[BufferData],
        elide: bool,
        tier: Tier,
    ) -> Trace {
        let k = compile(src).expect("test kernel compiles");
        let f = &k.bytecode;
        let nd = NdRange::d1(n);
        let mut vm = Vm::new();
        vm.set_bounds_elide(elide);
        let mut bufs = bufs.to_vec();
        let mut mem = bufs.mem();
        let bmap = vm
            .start_launch(f, &nd, args, mem.layout())
            .expect("valid launch");
        let mut eng = LaneEngine::new(f, &vm);
        eng.tier = tier;
        let gids: Vec<[usize; 3]> = (0..n).map(|i| [i, 0, 0]).collect();
        let mut t = Trace {
            results: vec![],
            iregs: vec![],
            fregs: vec![],
            steps: vec![],
            counts: vec![],
            bufs: vec![],
        };
        for batch in gids.chunks(LANES) {
            let mut counts = vec![Counters::new(f); batch.len()];
            let sink = CountSink::PerLane(&mut counts);
            let r = eng.exec_batch(f, batch, [n, 1, 1], &bmap, &mut mem, sink);
            let failed = r.is_err();
            t.results.push(r);
            t.iregs.push(eng.iregs.iter().flat_map(|r| r.0).collect());
            t.fregs.push(
                eng.fregs
                    .iter()
                    .flat_map(|r| r.0.map(f64::to_bits))
                    .collect(),
            );
            t.steps.push(eng.lane_steps()[..batch.len()].to_vec());
            t.counts.push(counts);
            if failed {
                break;
            }
        }
        t.bufs = bufs
            .iter()
            .map(|b| match b {
                BufferData::F32(v) => v.iter().map(|x| x.to_bits()).collect(),
                BufferData::I32(v) => v.iter().map(|&x| x as u32).collect(),
                BufferData::U32(v) => v.clone(),
            })
            .collect();
        t
    }

    /// Run `src` on the portable tier and on the tier this CPU picks
    /// (AVX2 where available), with and without bounds elision, and
    /// require identical traces. Returns the portable traces.
    fn assert_tier_parity(
        src: &str,
        n: usize,
        args: &[ArgValue],
        bufs: &[BufferData],
    ) -> Vec<Trace> {
        [true, false]
            .into_iter()
            .map(|elide| {
                let portable = trace(src, n, args, bufs, elide, Tier::Portable);
                let native = trace(src, n, args, bufs, elide, Tier::detect());
                assert_eq!(portable, native, "tier divergence (elide = {elide})");
                portable
            })
            .collect()
    }

    fn f32_buf(n: usize, g: impl Fn(usize) -> f32) -> BufferData {
        BufferData::F32((0..n).map(g).collect())
    }

    // 150 items: two full batches and a 22-lane tail batch.
    const N: usize = 150;

    #[test]
    fn tiers_match_on_uniform_loops() {
        let src = "kernel void k(global const float* a, global float* o, int n) {
            int i = get_global_id(0);
            float acc = 0.0;
            int s = 0;
            for (int j = 0; j < 16; j++) {
                acc = acc * 0.5 + a[i] * (float)j - 1.0 / (a[i] + 3.0);
                s = s * 3 + j - i;
            }
            o[i] = acc + (float)s;
        }";
        let bufs = [f32_buf(N, |i| i as f32 * 0.25 - 7.0), f32_buf(N, |_| 0.0)];
        let args = [
            ArgValue::Buffer(0),
            ArgValue::Buffer(1),
            ArgValue::Int(N as i32),
        ];
        assert_tier_parity(src, N, &args, &bufs);
    }

    #[test]
    fn tiers_match_on_divergent_branches_and_early_returns() {
        let src = "kernel void k(global const float* a, global int* o, int n) {
            int i = get_global_id(0);
            if (i % 3 == 0) {
                if (i % 2 == 0) { o[i] = -1; return; }
                o[i] = i * 7;
            } else {
                int s = 0;
                for (int j = 0; j < i % 13; j++) {
                    if (j == i % 4) { continue; }
                    s = s + j * i;
                    if (s > 400 && i % 5 == 1) { break; }
                }
                if (a[i] > 10.0 || s < 3) { s = -s; }
                o[i] = s;
            }
        }";
        let bufs = [
            f32_buf(N, |i| (i as f32).sin() * 20.0),
            BufferData::I32(vec![0; N]),
        ];
        let args = [
            ArgValue::Buffer(0),
            ArgValue::Buffer(1),
            ArgValue::Int(N as i32),
        ];
        assert_tier_parity(src, N, &args, &bufs);
    }

    #[test]
    fn tiers_match_on_unsigned_xorshift() {
        let src = "kernel void k(global uint* hits, uint seed, int samples) {
            int i = get_global_id(0);
            uint s = seed + (uint)i * 2654435761u;
            if (s == 0u) { s = 1u; }
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
                if (x * x + y * y <= 1.0) { count = count + 1u; }
            }
            hits[i] = count ^ (s >> (uint)(i % 32));
        }";
        let bufs = [BufferData::U32(vec![0; N])];
        let args = [
            ArgValue::Buffer(0),
            ArgValue::UInt(12345),
            ArgValue::Int(40),
        ];
        assert_tier_parity(src, N, &args, &bufs);
    }

    #[test]
    fn tiers_match_on_float_math() {
        let src = "kernel void k(global const float* a, global float* o, global int* c, int n) {
            int i = get_global_id(0);
            float x = a[i];
            float y = sqrt(fabs(x)) + exp(x * 0.01) - log(fabs(x) + 1.0);
            y = y + sin(x) * cos(x) + tan(x * 0.1) + rsqrt(fabs(x) + 0.5);
            y = fmin(y, fmax(x, 0.0)) + floor(x) - ceil(y) + pow(fabs(x), 0.3);
            y = y + fmod(x, 3.0) + x / (x - x) + sqrt(x);
            o[i] = y * 2.0 - 1.0;
            c[i] = (int)(x * 1.0e9) + (int)y;
        }";
        let bufs = [
            f32_buf(N, |i| (i as f32 - 75.0) * 0.73),
            f32_buf(N, |_| 0.0),
            BufferData::I32(vec![0; N]),
        ];
        let args = [
            ArgValue::Buffer(0),
            ArgValue::Buffer(1),
            ArgValue::Buffer(2),
            ArgValue::Int(N as i32),
        ];
        assert_tier_parity(src, N, &args, &bufs);
    }

    #[test]
    fn tiers_match_on_gathers_and_scatters() {
        let src = "kernel void k(global const float* a, global const int* ix,
                             global float* o, global int* p, int n) {
            int i = get_global_id(0);
            int j = ix[i];
            float v = a[j] * 2.0 + a[i];
            o[(i * 7) % n] = v;
            p[i] = j + ix[(i + 1) % n];
            o[i] = o[i] + a[j];
        }";
        let bufs = [
            f32_buf(N, |i| i as f32 * 0.5),
            BufferData::I32((0..N).map(|i| ((i * 31) % N) as i32).collect()),
            f32_buf(N, |_| 0.0),
            BufferData::I32(vec![0; N]),
        ];
        let args = [
            ArgValue::Buffer(0),
            ArgValue::Buffer(1),
            ArgValue::Buffer(2),
            ArgValue::Buffer(3),
            ArgValue::Int(N as i32),
        ];
        assert_tier_parity(src, N, &args, &bufs);
    }

    #[test]
    fn tiers_fault_identically_out_of_bounds() {
        // Items past 140 store past the end: the third batch faults on
        // both tiers at the same lane, after the same partial writes.
        let src = "kernel void k(global const float* a, global float* o, int n) {
            int i = get_global_id(0);
            float v = a[i] + 1.0;
            if (i % 2 == 0) { v = v * 3.0; }
            o[i + 10] = v;
        }";
        let bufs = [f32_buf(N, |i| i as f32), f32_buf(N, |_| 0.0)];
        let args = [
            ArgValue::Buffer(0),
            ArgValue::Buffer(1),
            ArgValue::Int(N as i32),
        ];
        for t in assert_tier_parity(src, N, &args, &bufs) {
            assert!(
                matches!(t.results.last(), Some(Err(VmError::OutOfBounds { .. }))),
                "expected an out-of-bounds fault, got {:?}",
                t.results
            );
        }
    }

    #[test]
    fn lane_rows_start_on_cache_lines() {
        let src = "kernel void k(global float* o, int n) {
            int i = get_global_id(0);
            o[i] = (float)(i * n) + 0.5;
        }";
        let k = compile(src).expect("test kernel compiles");
        let mut vm = Vm::new();
        let mut bufs = vec![f32_buf(8, |_| 0.0)];
        let args = [ArgValue::Buffer(0), ArgValue::Int(8)];
        vm.run_range(&k.bytecode, &NdRange::d1(8), 0..8, &args, &mut bufs)
            .expect("kernel runs");
        let eng = LaneEngine::new(&k.bytecode, &vm);
        assert!(!eng.iregs.is_empty() && !eng.fregs.is_empty());
        let addrs = eng
            .iregs
            .iter()
            .map(|r| r.as_ptr() as usize)
            .chain(eng.fregs.iter().map(|r| r.as_ptr() as usize))
            .chain(eng.gid.iter().map(|r| r.as_ptr() as usize))
            .chain([eng.steps.as_ptr() as usize]);
        for a in addrs {
            assert_eq!(a % 64, 0, "row at {a:#x} is not 64-byte aligned");
        }
    }
}
