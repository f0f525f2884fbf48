//! The lane-batched SoA execution engine with SIMT reconvergence.
//!
//! The scalar engine in [`crate::vm`] interprets one work-item at a time:
//! every bytecode instruction pays the full dispatch cost (decode match,
//! register-file bounds checks) for a single item's worth of work. Since
//! data-parallel kernels execute the exact same instruction sequence for
//! long runs of adjacent work-items, this engine instead executes blocks
//! of up to [`LANES`] consecutive work-items in lockstep: the register
//! files are stored structure-of-arrays (`Vec<[i64; LANES]>` /
//! `Vec<[f64; LANES]>`), so each instruction is decoded once and then
//! applied across all active lanes in a tight loop.
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

use crate::bytecode::{CmpOp, Function, IBinOp, Terminator};
use crate::cfg::NO_POST_DOM;
use crate::error::VmError;
use crate::opt::decode::{
    DecOp, OpCode, F_ADD, F_CONST, F_DIV, F_MOV, F_MUL, F_NEG, F_SUB, I_UNSIGNED,
};
use crate::vm::{int_bin, wrap32, BufferData, Counters, Mem, Vm};

/// Work-items executed in lockstep per batch.
pub const LANES: usize = 64;

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
    iregs: Vec<[i64; LANES]>,
    fregs: Vec<[f64; LANES]>,
    gid: [[i64; LANES]; 3],
    /// Per-lane step counts. While a batch runs, lane `l`'s steps beyond
    /// the batch's shared full-mask count (see [`Self::exec_batch`]); once
    /// it returns `Ok`, lane `l`'s total.
    steps: [u64; LANES],
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
#[inline]
fn apply2<T: Copy, F: Fn(T, T) -> T>(
    regs: &mut [[T; LANES]],
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
#[inline]
fn apply1<T: Copy, F: Fn(T) -> T>(regs: &mut [[T; LANES]], n: usize, dst: u16, a: u16, f: F) {
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
    regs: &mut [[T; LANES]],
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
fn masked1<T: Copy, F: Fn(T) -> T>(regs: &mut [[T; LANES]], m: ExecMask, dst: u16, a: u16, f: F) {
    let (dst, a) = (dst as usize, a as usize);
    for l in m.lanes() {
        let x = regs[a][l];
        regs[dst][l] = f(x);
    }
}

/// Whether every lane index is a valid element index for a buffer of
/// `len` elements — the gate for the bounds-check-free memory fast paths.
#[inline]
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
fn apply_f(fregs: &mut [[f64; LANES]], n: usize, dst: u16, a: u16, b: u16, sub: u8, fimm: f64) {
    match sub {
        F_ADD => apply2(fregs, n, dst, a, b, |x, y| x + y),
        F_SUB => apply2(fregs, n, dst, a, b, |x, y| x - y),
        F_MUL => apply2(fregs, n, dst, a, b, |x, y| x * y),
        F_DIV => apply2(fregs, n, dst, a, b, |x, y| x / y),
        F_MOV => apply1(fregs, n, dst, a, |x| x),
        5 => apply1(fregs, n, dst, a, f64::sqrt),
        6 => apply1(fregs, n, dst, a, |x| 1.0 / x.sqrt()),
        7 => apply1(fregs, n, dst, a, f64::exp),
        8 => apply1(fregs, n, dst, a, f64::ln),
        9 => apply1(fregs, n, dst, a, f64::sin),
        10 => apply1(fregs, n, dst, a, f64::cos),
        11 => apply1(fregs, n, dst, a, f64::tan),
        12 => apply1(fregs, n, dst, a, f64::abs),
        13 => apply1(fregs, n, dst, a, f64::floor),
        14 => apply1(fregs, n, dst, a, f64::ceil),
        F_NEG => apply1(fregs, n, dst, a, |x| -x),
        _ => fregs[dst as usize][..n].fill(fimm),
    }
}

/// Full-width I-file micro-op (the non-faulting binops), mono-dispatched
/// like [`apply_f`].
fn apply_i(iregs: &mut [[i64; LANES]], n: usize, dst: u16, a: u16, b: u16, sub: u8) {
    let u = sub & I_UNSIGNED != 0;
    match sub & !I_UNSIGNED {
        0 => apply2(iregs, n, dst, a, b, |x, y| wrap32(x.wrapping_add(y), u)),
        1 => apply2(iregs, n, dst, a, b, |x, y| wrap32(x.wrapping_sub(y), u)),
        _ => apply2(iregs, n, dst, a, b, |x, y| wrap32(x.wrapping_mul(y), u)),
    }
}

/// Masked [`apply_f`].
fn masked_f(fregs: &mut [[f64; LANES]], m: ExecMask, dst: u16, a: u16, b: u16, sub: u8, fimm: f64) {
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
    regs: &mut [[T; LANES]],
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
#[inline]
fn load_fop_fast<F: Fn(f64, f64) -> f64>(
    fregs: &mut [[f64; LANES]],
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
#[inline]
fn fop_store_fast<F: Fn(f64, f64) -> f64>(
    fregs: &mut [[f64; LANES]],
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
#[inline]
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
        let iregs = vm.iregs.iter().map(|&v| [v; LANES]).collect();
        let fregs = vm.fregs.iter().map(|&v| [v; LANES]).collect();
        debug_assert_eq!(vm.iregs.len(), f.n_iregs as usize);
        debug_assert_eq!(vm.fregs.len(), f.n_fregs as usize);
        Self {
            iregs,
            fregs,
            gid: [[0; LANES]; 3],
            steps: [0; LANES],
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
    /// block 0 to completion.
    pub(crate) fn exec_batch(
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
        // fast path never touches the stack; `stack` holds only suspended
        // frames (the other branch sides and the parked parents).
        let mut pc: u32 = 0;
        let mut rpc: u32 = exit;
        let mut mask = full;
        let mut stack: Vec<Frame> = Vec::new();
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
                match stack.pop() {
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
                    self.exec_dec(op, n, gsize, bmap, bufs)?;
                }
            } else {
                for op in dec.block_ops(block) {
                    self.exec_dec_masked(op, mask, gsize, bmap, bufs)?;
                }
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
            stack.push(Frame { pc: r, rpc, mask });
            if els != r {
                stack.push(Frame {
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
                let Some(fr) = stack.pop() else {
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
    #[inline]
    fn exec_dec(
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
            OpCode::IAdd => apply2(&mut self.iregs, n, dst, a, b, |x, y| {
                wrap32(x.wrapping_add(y), u)
            }),
            OpCode::ISub => apply2(&mut self.iregs, n, dst, a, b, |x, y| {
                wrap32(x.wrapping_sub(y), u)
            }),
            OpCode::IMul => apply2(&mut self.iregs, n, dst, a, b, |x, y| {
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
            OpCode::IAnd => apply2(&mut self.iregs, n, dst, a, b, |x, y| wrap32(x & y, u)),
            OpCode::IOr => apply2(&mut self.iregs, n, dst, a, b, |x, y| wrap32(x | y, u)),
            OpCode::IXor => apply2(&mut self.iregs, n, dst, a, b, |x, y| wrap32(x ^ y, u)),
            OpCode::IShl => apply2(&mut self.iregs, n, dst, a, b, |x, y| {
                wrap32(x.wrapping_shl((y & 31) as u32), u)
            }),
            OpCode::IShr => apply2(&mut self.iregs, n, dst, a, b, |x, y| {
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
                apply1(&mut self.iregs, n, dst, a, |x| {
                    wrap32(x.wrapping_add(imm), u)
                });
            }
            OpCode::ImmSub => {
                let imm = op.imm;
                apply1(&mut self.iregs, n, dst, a, |x| {
                    wrap32(x.wrapping_sub(imm), u)
                });
            }
            OpCode::ImmMul => {
                let imm = op.imm;
                apply1(&mut self.iregs, n, dst, a, |x| {
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
                apply1(&mut self.iregs, n, dst, a, |x| wrap32(x & imm, u));
            }
            OpCode::ImmOr => {
                let imm = op.imm;
                apply1(&mut self.iregs, n, dst, a, |x| wrap32(x | imm, u));
            }
            OpCode::ImmXor => {
                let imm = op.imm;
                apply1(&mut self.iregs, n, dst, a, |x| wrap32(x ^ imm, u));
            }
            OpCode::ImmShl => {
                let s = (op.imm & 31) as u32;
                apply1(&mut self.iregs, n, dst, a, |x| wrap32(x.wrapping_shl(s), u));
            }
            OpCode::ImmShr => {
                let s = (op.imm & 31) as u32;
                apply1(&mut self.iregs, n, dst, a, |x| {
                    let v = if u {
                        ((x as u64) >> s) as i64
                    } else {
                        (x as i32 >> s) as i64
                    };
                    wrap32(v, u)
                });
            }
            OpCode::FAdd => apply2(&mut self.fregs, n, dst, a, b, |x, y| x + y),
            OpCode::FSub => apply2(&mut self.fregs, n, dst, a, b, |x, y| x - y),
            OpCode::FMul => apply2(&mut self.fregs, n, dst, a, b, |x, y| x * y),
            OpCode::FDiv => apply2(&mut self.fregs, n, dst, a, b, |x, y| x / y),
            OpCode::ICmpLt => apply2(&mut self.iregs, n, dst, a, b, |x, y| i64::from(x < y)),
            OpCode::ICmpLe => apply2(&mut self.iregs, n, dst, a, b, |x, y| i64::from(x <= y)),
            OpCode::ICmpGt => apply2(&mut self.iregs, n, dst, a, b, |x, y| i64::from(x > y)),
            OpCode::ICmpGe => apply2(&mut self.iregs, n, dst, a, b, |x, y| i64::from(x >= y)),
            OpCode::ICmpEq => apply2(&mut self.iregs, n, dst, a, b, |x, y| i64::from(x == y)),
            OpCode::ICmpNe => apply2(&mut self.iregs, n, dst, a, b, |x, y| i64::from(x != y)),
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
            OpCode::NegI => apply1(&mut self.iregs, n, dst, a, |x| {
                wrap32(0i64.wrapping_sub(x), u)
            }),
            OpCode::NegF => apply1(&mut self.fregs, n, dst, a, |x| -x),
            OpCode::NotI => apply1(&mut self.iregs, n, dst, a, |x| i64::from(x == 0)),
            OpCode::BitNotI => apply1(&mut self.iregs, n, dst, a, |x| wrap32(!x, u)),
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
            OpCode::CastII => apply1(&mut self.iregs, n, dst, a, |x| wrap32(x, u)),
            OpCode::Sqrt => apply1(&mut self.fregs, n, dst, a, f64::sqrt),
            OpCode::Rsqrt => apply1(&mut self.fregs, n, dst, a, |x| 1.0 / x.sqrt()),
            OpCode::Exp => apply1(&mut self.fregs, n, dst, a, f64::exp),
            OpCode::Log => apply1(&mut self.fregs, n, dst, a, f64::ln),
            OpCode::Sin => apply1(&mut self.fregs, n, dst, a, f64::sin),
            OpCode::Cos => apply1(&mut self.fregs, n, dst, a, f64::cos),
            OpCode::Tan => apply1(&mut self.fregs, n, dst, a, f64::tan),
            OpCode::Fabs => apply1(&mut self.fregs, n, dst, a, f64::abs),
            OpCode::Floor => apply1(&mut self.fregs, n, dst, a, f64::floor),
            OpCode::Ceil => apply1(&mut self.fregs, n, dst, a, f64::ceil),
            OpCode::Pow => apply2(&mut self.fregs, n, dst, a, b, f64::powf),
            OpCode::Fmin => apply2(&mut self.fregs, n, dst, a, b, f64::min),
            OpCode::Fmax => apply2(&mut self.fregs, n, dst, a, b, f64::max),
            OpCode::Fmod => apply2(&mut self.fregs, n, dst, a, b, |x, y| x % y),
            OpCode::IMin => apply2(&mut self.iregs, n, dst, a, b, i64::min),
            OpCode::IMax => apply2(&mut self.iregs, n, dst, a, b, i64::max),
            OpCode::IAbs => apply1(&mut self.iregs, n, dst, a, |x| {
                wrap32(x.wrapping_abs(), false)
            }),
            OpCode::LoadF => self.lane_load_f(dst, a, b, n, bmap, bufs)?,
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
            OpCode::StoreF => self.lane_store_f(dst, a, b, n, bmap, bufs)?,
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
            OpCode::FOp2 => self.fused_fop2(op, n),
            OpCode::IOp2 => self.fused_iop2(op, n),
            OpCode::Load2F => self.fused_load2f(op, n, bmap, bufs)?,
            OpCode::LoadFOp => self.fused_load_fop(op, n, bmap, bufs)?,
            OpCode::FOpStore => self.fused_fop_store(op, n, bmap, bufs)?,
        }
        Ok(())
    }

    /// Full-width `FOp2`: a single chain-fused pass when the second op
    /// reads the first's result and no written row aliases a first-half
    /// operand; two mono passes (the unfused execution, one dispatch)
    /// otherwise. A constant-producing half folds its immediate into
    /// the partner's loop instead of round-tripping through its row.
    #[inline(never)]
    fn fused_fop2(&mut self, op: &DecOp, n: usize) {
        let (s1, s2) = (op.sub1, op.sub2);
        if s2 == F_CONST {
            // The second half reads nothing, so there is no chain.
            apply_f(&mut self.fregs, n, op.c, op.a, op.b, s1, op.fimm);
            self.fregs[op.dst as usize][..n].fill(op.fimm);
            return;
        }
        if s1 == F_CONST {
            return self.fused_const_fop(op, n);
        }
        // Two mono passes — the unfused execution minus one dispatch.
        // A single loop carrying the intermediate in a register was
        // tried here and measured *slower* than the two passes on every
        // suite kernel (the two-output chain loop defeats the
        // vectorizer); the masked path keeps its chain loop, where
        // per-lane interleaving wins over a second pass across the
        // scattered active set.
        apply_f(&mut self.fregs, n, op.c, op.a, op.b, s1, op.fimm);
        apply_f(&mut self.fregs, n, op.dst, op.d, op.e, s2, op.fimm);
    }

    /// Full-width `FOp2` whose first half is `ConstF`: when the second
    /// op reads the constant, the immediate is folded straight into its
    /// loop (or the whole pair collapses to two row fills); two mono
    /// passes otherwise.
    #[inline(never)]
    fn fused_const_fop(&mut self, op: &DecOp, n: usize) {
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
        apply_f(&mut self.fregs, n, op.dst, op.d, op.e, op.sub2, fi);
    }

    /// Full-width `IOp2`.
    #[inline(never)]
    fn fused_iop2(&mut self, op: &DecOp, n: usize) {
        // Two mono passes; see `fused_fop2` for why there is no
        // full-width chain loop.
        apply_i(&mut self.iregs, n, op.c, op.a, op.b, op.sub1);
        apply_i(&mut self.iregs, n, op.dst, op.d, op.e, op.sub2);
    }

    /// Full-width `Load2F`: when both gathers are fully in bounds, one
    /// pass performs both (the destinations are distinct by fusion
    /// rule); otherwise the halves run unfused so each lane faults
    /// exactly where the original pair would.
    #[inline(never)]
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
    #[inline(never)]
    fn fused_load_fop(
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
                        apply_f(&mut self.fregs, n, op.dst, op.d, op.e, s2, fimm);
                    }
                }
                true
            } else {
                false
            }
        };
        if !fused {
            self.lane_load_f(op.c, op.a, op.b, n, bmap, bufs)?;
            apply_f(&mut self.fregs, n, op.dst, op.d, op.e, s2, fimm);
        }
        Ok(())
    }

    /// Full-width `FOpStore`: compute + scatter in one pass when the
    /// scatter is fully in bounds and the compute is a hot binop;
    /// compute-then-checked-store otherwise.
    #[inline(never)]
    fn fused_fop_store(
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
            apply_f(&mut self.fregs, n, op.dst, op.a, op.b, s1, fimm);
            self.lane_store_f(op.dst, op.c, op.d, n, bmap, bufs)?;
        }
        Ok(())
    }

    /// The full-width `LoadF` kernel (`dst`, `idx` = index register,
    /// `buf` = buffer param), shared with the fused slow paths.
    #[inline]
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
    #[inline]
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

    /// Execute one decoded op on the active lanes of `m` only: inactive
    /// lanes hold live register state of diverged lane subsets (parked at
    /// a rejoin point or scheduled on the other branch side), so their
    /// registers must not be written, their buffer accesses must not
    /// happen, and only active lanes may fault.
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
