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
//!   path (op dispatch, fused superinstructions, row and gather kernels,
//!   for the [`Prefix`] and [`Select`] walks) inlined into it, so the row
//!   kernels run four 64-bit lanes per vector. The op walk's [`Masked`]
//!   instantiation stays out of line (`exec_block_masked`): it walks
//!   active lanes one at a time, which AVX2 cannot widen. `fma` is not
//!   enabled and Rust never contracts `a * b + c`, so float results are
//!   bit-identical to the portable tier.
//! - **Portable** (every other CPU): the same body built for the crate's
//!   compile target (SSE2 on baseline x86-64), with the fused
//!   superinstructions and gather/scatter kernels out of line.
//!
//! Nothing but the CPU picks the tier; [`lane_tier`] reports it.
//!
//! The engine walks the function's pre-decoded op array
//! ([`crate::opt::decode`]): a flat one-level dispatch per op, with
//! adjacent op pairs fused into superinstructions that make one pass
//! over the lane rows where the unfused pair made two. There is one op
//! walk, [`LaneEngine::exec_dec`], generic over the [`LaneSet`] it runs
//! on: [`Prefix`], the live prefix of a batch; [`Masked`], the active
//! lanes of a partial mask, walked one at a time; or [`Select`], the
//! same lanes computed at full width with only the active ones stored.
//! The lane set supplies loop shapes only, so every op's semantics is
//! written once. The scalar engine
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
//!   partial mask run the same op walk over the [`Masked`] lane set, whose
//!   loops only read, write, and fault on active lanes.
//! - **Predicated if-arms** skip the stack. When one side of a divergent
//!   branch is a single block that cannot fault and jumps straight to
//!   the post-dominator `r`, and the other side is `r` itself (an if-then
//!   triangle), and at least `LANES / 2` lanes take the arm
//!   (`PREDICATE_MIN_LANES`), the arm runs under the [`Select`] lane set:
//!   full-width row passes that store only the arm's lanes, with the
//!   arm's block count and step cost charged to exactly those lanes.
//!   The frame then continues at `r` with its mask unchanged, where the
//!   stack would have resumed it, so no frame is pushed and no lane is
//!   walked alone. This is the select-at-join rule of whole-function
//!   vectorization (Karrenberg & Hack, CGO 2011). The arm of each branch
//!   is found once per compiled [`Function`], next to the
//!   post-dominators, in `CfgInfo::if_arm` ([`crate::cfg`]). Below the
//!   gate, the arm's few lanes are cheaper to walk one at a time than a
//!   full-width pass, so the frame path runs it.
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
//! and step count, is exactly the scalar engine's (a predicated arm is
//! charged only to its lanes, so this holds there too). The one observable
//! difference is *which* error surfaces when multiple work-items of a
//! batch fault: items execute in instruction lockstep, so the earliest
//! fault in lockstep order wins rather than the earliest item in item
//! order, and buffers may hold partial writes from other items of the
//! faulting batch.

use std::ops::{Deref, DerefMut, Range};

use crate::bytecode::{CmpOp, Function, IBinOp, Terminator};
use crate::cfg::{NO_ARM, NO_POST_DOM};
use crate::error::VmError;
use crate::opt::decode::{
    DecOp, OpCode, F_ADD, F_CONST, F_DIV, F_MOV, F_MUL, F_NEG, F_SUB, I_UNSIGNED,
};
use crate::vm::{int_bin, wrap32, BufferData, Counters, Mem, Vm};

/// Work-items executed in lockstep per batch.
pub const LANES: usize = 64;

/// The fewest lanes that run a predicated if-arm (see the module docs).
/// Below it the arm's full-width passes cost more than walking its few
/// lanes one at a time under a pushed frame.
const PREDICATE_MIN_LANES: u32 = LANES as u32 / 2;

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
    fn apply2<T: Copy, G: Fn(usize, T, T, T) -> T>(
        regs: &mut [Row<T>],
        n: usize,
        dst: u16,
        a: u16,
        b: u16,
        g: G,
    );

    /// [`apply1`] under this tier's inlining policy.
    fn apply1<T: Copy, G: Fn(usize, T, T) -> T>(
        regs: &mut [Row<T>],
        n: usize,
        dst: u16,
        a: u16,
        g: G,
    );
}

/// The portable tier's body.
struct PortableBody;

impl Codegen for PortableBody {
    const AVX2: bool = false;

    #[inline]
    fn apply2<T: Copy, G: Fn(usize, T, T, T) -> T>(
        regs: &mut [Row<T>],
        n: usize,
        dst: u16,
        a: u16,
        b: u16,
        g: G,
    ) {
        apply2(regs, n, dst, a, b, g);
    }

    #[inline]
    fn apply1<T: Copy, G: Fn(usize, T, T) -> T>(
        regs: &mut [Row<T>],
        n: usize,
        dst: u16,
        a: u16,
        g: G,
    ) {
        apply1(regs, n, dst, a, g);
    }
}

/// The AVX2 tier's body.
#[cfg(target_arch = "x86_64")]
struct Avx2Body;

#[cfg(target_arch = "x86_64")]
impl Codegen for Avx2Body {
    const AVX2: bool = true;

    #[inline(always)]
    fn apply2<T: Copy, G: Fn(usize, T, T, T) -> T>(
        regs: &mut [Row<T>],
        n: usize,
        dst: u16,
        a: u16,
        b: u16,
        g: G,
    ) {
        apply2(regs, n, dst, a, b, g);
    }

    #[inline(always)]
    fn apply1<T: Copy, G: Fn(usize, T, T) -> T>(
        regs: &mut [Row<T>],
        n: usize,
        dst: u16,
        a: u16,
        g: G,
    ) {
        apply1(regs, n, dst, a, g);
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

/// `with_fsub!(sub, fimm, binary: |f| b, unary: |f| u, math: |f| m,
/// nullary: |f| c)`: decode the F-file micro-op `sub` (see
/// [`crate::opt::decode`]) and evaluate the body for its class with `f`
/// bound to its lane function of two operands (unary ops ignore the
/// second, the constant `fimm` both). `unary` covers mov, negate, sqrt
/// and fabs; `math` the other unary math functions, whose per-lane cost
/// dwarfs the walk a fused pass saves. Two short forms:
///
/// - `with_fsub!(sub, fimm, |f| body)`: one body for every class;
/// - `with_fsub!(sub, fimm, cheap: |f| body, math: fallback)`: one body
///   for every class but `math`, which evaluates `fallback` instead.
///
/// Each arm instantiates its body with its own closure, so the loops in
/// the body stay monomorphic: one match per op, never per lane.
macro_rules! with_fsub {
    ($sub:expr, $fimm:expr, |$f:ident| $body:expr) => {
        with_fsub!(
            $sub,
            $fimm,
            binary: |$f| $body,
            unary: |$f| $body,
            math: |$f| $body,
            nullary: |$f| $body
        )
    };
    ($sub:expr, $fimm:expr, cheap: |$f:ident| $body:expr, math: $math:expr) => {
        with_fsub!(
            $sub,
            $fimm,
            binary: |$f| $body,
            unary: |$f| $body,
            math: |_f| $math,
            nullary: |$f| $body
        )
    };
    (
        $sub:expr,
        $fimm:expr,
        binary: |$fb:ident| $binary:expr,
        unary: |$fu:ident| $unary:expr,
        math: |$fm:ident| $math:expr,
        nullary: |$f0:ident| $nullary:expr
    ) => {{
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
            5 => {
                let $fu = |x: f64, _: f64| x.sqrt();
                $unary
            }
            6 => {
                let $fm = |x: f64, _: f64| 1.0 / x.sqrt();
                $math
            }
            7 => {
                let $fm = |x: f64, _: f64| x.exp();
                $math
            }
            8 => {
                let $fm = |x: f64, _: f64| x.ln();
                $math
            }
            9 => {
                let $fm = |x: f64, _: f64| x.sin();
                $math
            }
            10 => {
                let $fm = |x: f64, _: f64| x.cos();
                $math
            }
            11 => {
                let $fm = |x: f64, _: f64| x.tan();
                $math
            }
            12 => {
                let $fu = |x: f64, _: f64| x.abs();
                $unary
            }
            13 => {
                let $fm = |x: f64, _: f64| x.floor();
                $math
            }
            14 => {
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

/// `with_isub!(sub, |f| body)`: [`with_fsub!`] for the I-file micro-ops
/// (the non-faulting binops, signedness in bit 7).
macro_rules! with_isub {
    ($sub:expr, |$f:ident| $body:expr) => {{
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

/// Where block executions are counted.
pub(crate) enum CountSink<'a> {
    /// One shared counter set for the whole batch (a block execution by
    /// `k` active lanes adds `k`).
    Aggregate(&'a mut Counters),
    /// One counter set per lane (index = lane), for per-item profiles.
    PerLane(&'a mut [Counters]),
}

impl CountSink<'_> {
    /// Count one block execution by every lane of `s`.
    #[inline]
    fn count_block<S: LaneSet>(&mut self, block: usize, s: S) {
        match self {
            CountSink::Aggregate(c) => c.block_counts[block] += s.count(),
            CountSink::PerLane(per) => {
                for l in s.lanes() {
                    per[l].block_counts[block] += 1;
                }
            }
        }
    }
}

/// The lanes one op walk runs over: [`Prefix`], the live prefix of a
/// batch, or [`Masked`] or [`Select`], the active lanes of a partial
/// mask walked one at a time or computed at full width. A lane set
/// supplies loop shapes only. What every op computes — its semantics,
/// the sub-op decoding, bounds-elision handling and the superinstruction
/// logic — is written once, in [`LaneEngine::exec_dec`] and its helpers,
/// and instantiated per set.
trait LaneSet: Copy {
    /// Whether the set is walked lane by lane. Such a walk cannot be
    /// widened, so it inlines every helper (see `inline_if!`).
    const MASKED: bool;

    type Lanes: Iterator<Item = usize>;

    /// The lanes in ascending (= item) order: the order in which the
    /// loops that can fault visit them.
    fn lanes(self) -> Self::Lanes;

    /// The number of lanes.
    fn count(self) -> u64;

    /// `dst[l] = f(a[l], b[l])` within one register file; any operand may
    /// alias `dst`.
    fn map2<K: Codegen, T: Copy, F: Fn(T, T) -> T>(
        self,
        regs: &mut [Row<T>],
        dst: u16,
        a: u16,
        b: u16,
        f: F,
    );

    /// `dst[l] = f(a[l])` within one register file.
    fn map1<K: Codegen, T: Copy, F: Fn(T) -> T>(self, regs: &mut [Row<T>], dst: u16, a: u16, f: F);

    /// `d[l] = f(x[l])` from a row that cannot alias `d`.
    fn zip1<T: Copy, U, F: Fn(T) -> U>(self, d: &mut Row<U>, x: &Row<T>, f: F);

    /// `d[l] = f(x[l], y[l])` from rows that cannot alias `d`.
    fn zip2<T: Copy, U, F: Fn(T, T) -> U>(self, d: &mut Row<U>, x: &Row<T>, y: &Row<T>, f: F);

    /// `d[l] = v`.
    fn fill<T: Copy>(self, d: &mut Row<T>, v: T);

    /// The in-bounds prescan: `true` lets a checked access skip its
    /// faulting walk, and a fused memory pair run as one pass.
    fn in_bounds(self, idx: &Row<i64>, len: usize) -> bool;

    /// A fused `FOp2` under the set's pair policy.
    fn fop2<K: Codegen>(self, fregs: &mut [Row<f64>], op: &DecOp);

    /// A fused `IOp2` under the set's pair policy.
    fn iop2<K: Codegen>(self, iregs: &mut [Row<i64>], op: &DecOp);
}

/// The first `n` lanes of a batch, all active: row loops over `[..n]`
/// that the optimizer vectorizes.
#[derive(Clone, Copy)]
struct Prefix(usize);

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
        K::apply2(regs, self.0, dst, a, b, |_, _, x, y| f(x, y));
    }

    #[inline(always)]
    fn map1<K: Codegen, T: Copy, F: Fn(T) -> T>(self, regs: &mut [Row<T>], dst: u16, a: u16, f: F) {
        K::apply1(regs, self.0, dst, a, |_, _, x| f(x));
    }

    #[inline(always)]
    fn zip1<T: Copy, U, F: Fn(T) -> U>(self, d: &mut Row<U>, x: &Row<T>, f: F) {
        let n = self.0;
        for (d, &x) in d[..n].iter_mut().zip(&x[..n]) {
            *d = f(x);
        }
    }

    #[inline(always)]
    fn zip2<T: Copy, U, F: Fn(T, T) -> U>(self, d: &mut Row<U>, x: &Row<T>, y: &Row<T>, f: F) {
        let n = self.0;
        for ((d, &x), &y) in d[..n].iter_mut().zip(&x[..n]).zip(&y[..n]) {
            *d = f(x, y);
        }
    }

    #[inline(always)]
    fn fill<T: Copy>(self, d: &mut Row<T>, v: T) {
        d[..self.0].fill(v);
    }

    /// One vectorized min/max pass over the live index row.
    #[inline(always)]
    fn in_bounds(self, idx: &Row<i64>, len: usize) -> bool {
        all_in_bounds(idx, self.0, len)
    }

    /// Two mono passes — the unfused execution minus one dispatch. A
    /// single loop carrying the intermediate in a register was tried here
    /// and measured *slower* than the two passes on every suite kernel
    /// (the two-output chain loop defeats the vectorizer); the masked set
    /// keeps its chain loop, where per-lane interleaving wins over a
    /// second pass across the scattered active set.
    #[inline(always)]
    fn fop2<K: Codegen>(self, fregs: &mut [Row<f64>], op: &DecOp) {
        if op.sub1 == F_CONST {
            return const_fop2::<K>(fregs, self.0, op);
        }
        apply_f::<K, _>(self, fregs, op.c, op.a, op.b, op.sub1, op.fimm);
        apply_f::<K, _>(self, fregs, op.dst, op.d, op.e, op.sub2, op.fimm);
    }

    /// Two mono passes; see [`Prefix::fop2`].
    #[inline(always)]
    fn iop2<K: Codegen>(self, iregs: &mut [Row<i64>], op: &DecOp) {
        apply_i::<K, _>(self, iregs, op.c, op.a, op.b, op.sub1);
        apply_i::<K, _>(self, iregs, op.dst, op.d, op.e, op.sub2);
    }
}

/// The active lanes of a partial mask: loops walk the set bits one lane
/// at a time, so inactive lanes — live state of diverged lane subsets —
/// are never read, written or faulted on.
#[derive(Clone, Copy)]
struct Masked(ExecMask);

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

    /// Per-lane read-then-write makes any operand aliasing trivially
    /// correct.
    #[inline(always)]
    fn map2<K: Codegen, T: Copy, F: Fn(T, T) -> T>(
        self,
        regs: &mut [Row<T>],
        dst: u16,
        a: u16,
        b: u16,
        f: F,
    ) {
        let (dst, a, b) = (dst as usize, a as usize, b as usize);
        for l in self.lanes() {
            let x = regs[a][l];
            let y = regs[b][l];
            regs[dst][l] = f(x, y);
        }
    }

    #[inline(always)]
    fn map1<K: Codegen, T: Copy, F: Fn(T) -> T>(self, regs: &mut [Row<T>], dst: u16, a: u16, f: F) {
        let (dst, a) = (dst as usize, a as usize);
        for l in self.lanes() {
            let x = regs[a][l];
            regs[dst][l] = f(x);
        }
    }

    #[inline(always)]
    fn zip1<T: Copy, U, F: Fn(T) -> U>(self, d: &mut Row<U>, x: &Row<T>, f: F) {
        for l in self.lanes() {
            d[l] = f(x[l]);
        }
    }

    #[inline(always)]
    fn zip2<T: Copy, U, F: Fn(T, T) -> U>(self, d: &mut Row<U>, x: &Row<T>, y: &Row<T>, f: F) {
        for l in self.lanes() {
            d[l] = f(x[l], y[l]);
        }
    }

    #[inline(always)]
    fn fill<T: Copy>(self, d: &mut Row<T>, v: T) {
        for l in self.lanes() {
            d[l] = v;
        }
    }

    /// No prescan: the checked walk tests each active index as it goes,
    /// and a separate scan would be a second walk over the same scattered
    /// lanes. Only elided accesses take the unchecked shapes.
    #[inline(always)]
    fn in_bounds(self, _idx: &Row<i64>, _len: usize) -> bool {
        false
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
/// [`CfgInfo::if_arm`](crate::cfg::CfgInfo). `zip1`/`zip2` and every
/// gather, scatter and division walk visit only the active lanes, as
/// under [`Masked`]: an elided gather shares `zip1`, and must never read
/// an inactive lane's index.
#[derive(Clone, Copy)]
struct Select(ExecMask);

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
        K::apply2(regs, LANES, dst, a, b, |l, d, x, y| {
            self.pick(l, d, f(x, y))
        });
    }

    #[inline(always)]
    fn map1<K: Codegen, T: Copy, F: Fn(T) -> T>(self, regs: &mut [Row<T>], dst: u16, a: u16, f: F) {
        K::apply1(regs, LANES, dst, a, |l, d, x| self.pick(l, d, f(x)));
    }

    #[inline(always)]
    fn zip1<T: Copy, U, F: Fn(T) -> U>(self, d: &mut Row<U>, x: &Row<T>, f: F) {
        Masked(self.0).zip1(d, x, f);
    }

    #[inline(always)]
    fn zip2<T: Copy, U, F: Fn(T, T) -> U>(self, d: &mut Row<U>, x: &Row<T>, y: &Row<T>, f: F) {
        Masked(self.0).zip2(d, x, y, f);
    }

    #[inline(always)]
    fn fill<T: Copy>(self, d: &mut Row<T>, v: T) {
        for (l, d) in d.iter_mut().enumerate() {
            *d = self.pick(l, *d, v);
        }
    }

    /// No prescan, as under [`Masked`]: an inactive lane's index may be
    /// out of bounds without the access faulting.
    #[inline(always)]
    fn in_bounds(self, _idx: &Row<i64>, _len: usize) -> bool {
        false
    }

    /// Two row passes, one per half.
    #[inline(always)]
    fn fop2<K: Codegen>(self, fregs: &mut [Row<f64>], op: &DecOp) {
        apply_f::<K, _>(self, fregs, op.c, op.a, op.b, op.sub1, op.fimm);
        apply_f::<K, _>(self, fregs, op.dst, op.d, op.e, op.sub2, op.fimm);
    }

    /// Two row passes, one per half.
    #[inline(always)]
    fn iop2<K: Codegen>(self, iregs: &mut [Row<i64>], op: &DecOp) {
        apply_i::<K, _>(self, iregs, op.c, op.a, op.b, op.sub1);
        apply_i::<K, _>(self, iregs, op.dst, op.d, op.e, op.sub2);
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

/// Apply `g` lane-wise over the first `n` lanes: `dst[l] = g(l, dst[l],
/// a[l], b[l])`, where the old `dst[l]` lets a [`Select`] pass keep an
/// inactive lane's value.
///
/// The common case (the compiler allocates a fresh temp for `dst`) borrows
/// all three registers disjointly and runs a bounds-check-free loop the
/// optimizer can vectorize; aliased operands fall back to copying, which
/// is always correct because each lane only reads its own elements.
#[inline(always)]
fn apply2<T: Copy, G: Fn(usize, T, T, T) -> T>(
    regs: &mut [Row<T>],
    n: usize,
    dst: u16,
    a: u16,
    b: u16,
    g: G,
) {
    let (dst, a, b) = (dst as usize, a as usize, b as usize);
    if dst != a && dst != b && a != b {
        let Ok([d, x, y]) = regs.get_disjoint_mut([dst, a, b]) else {
            unreachable!("disjoint registers");
        };
        for (l, ((d, &x), &y)) in d[..n].iter_mut().zip(&x[..n]).zip(&y[..n]).enumerate() {
            *d = g(l, *d, x, y);
        }
    } else if a == b && dst != a {
        let Ok([d, x]) = regs.get_disjoint_mut([dst, a]) else {
            unreachable!("disjoint registers");
        };
        for (l, (d, &x)) in d[..n].iter_mut().zip(&x[..n]).enumerate() {
            *d = g(l, *d, x, x);
        }
    } else if dst == a && dst == b {
        for (l, v) in regs[dst][..n].iter_mut().enumerate() {
            *v = g(l, *v, *v, *v);
        }
    } else if dst == a {
        // In-place accumulator: each lane reads its own element before
        // writing it, so a pairwise disjoint borrow of [dst, b] suffices.
        let Ok([d, y]) = regs.get_disjoint_mut([dst, b]) else {
            unreachable!("disjoint registers");
        };
        for (l, (d, &y)) in d[..n].iter_mut().zip(&y[..n]).enumerate() {
            *d = g(l, *d, *d, y);
        }
    } else {
        let Ok([d, x]) = regs.get_disjoint_mut([dst, a]) else {
            unreachable!("disjoint registers");
        };
        for (l, (d, &x)) in d[..n].iter_mut().zip(&x[..n]).enumerate() {
            *d = g(l, *d, x, *d);
        }
    }
}

/// Apply `g` lane-wise over the first `n` lanes: `dst[l] = g(l, dst[l],
/// a[l])` (see [`apply2`]).
#[inline(always)]
fn apply1<T: Copy, G: Fn(usize, T, T) -> T>(regs: &mut [Row<T>], n: usize, dst: u16, a: u16, g: G) {
    let (dst, a) = (dst as usize, a as usize);
    if dst != a {
        let Ok([d, x]) = regs.get_disjoint_mut([dst, a]) else {
            unreachable!("disjoint registers");
        };
        for (l, (d, &x)) in d[..n].iter_mut().zip(&x[..n]).enumerate() {
            *d = g(l, *d, x);
        }
    } else {
        for (l, v) in regs[dst][..n].iter_mut().enumerate() {
            *v = g(l, *v, *v);
        }
    }
}

/// Is buffer parameter `p` proven in bounds under elision mask `elide`?
#[inline(always)]
fn elided(elide: u64, p: u16) -> bool {
    p < 64 && elide & (1u64 << p) != 0
}

/// Whether every lane index is a valid element index for a buffer of
/// `len` elements — the [`Prefix`] prescan.
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

/// Whether every index of `s` is in `[0, len)`, walked lane by lane: the
/// debug check behind bounds elision.
fn proven<S: LaneSet>(s: S, idx: &Row<i64>, len: usize) -> bool {
    s.lanes().all(|l| (idx[l] as u64) < len as u64)
}

/// F-file micro-op over the lanes of `s`: the row kernels of the unfused
/// ops, selected by one match per op.
#[inline(always)]
fn apply_f<K: Codegen, S: LaneSet>(
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
/// reads the constant, the immediate folds into its loop (or both rows
/// become fills) instead of round-tripping through its row; two passes
/// otherwise.
#[inline(always)]
fn const_fop2<K: Codegen>(fregs: &mut [Row<f64>], n: usize, op: &DecOp) {
    let (c, z, p, q, fi) = (op.c, op.dst, op.d, op.e, op.fimm);
    fregs[c as usize][..n].fill(fi);
    if z == c || (p != c && q != c) {
        return apply_f::<K, _>(Prefix(n), fregs, z, p, q, op.sub2, fi);
    }
    // Past the early return the second half reads the constant.
    with_fsub!(
        op.sub2,
        fi,
        binary: |f| {
            if p != c {
                K::apply1(fregs, n, z, p, |_, _, x| f(x, fi));
            } else if q != c {
                K::apply1(fregs, n, z, q, |_, _, y| f(fi, y));
            } else {
                fregs[z as usize][..n].fill(f(fi, fi));
            }
        },
        unary: |f| {
            if p != c {
                K::apply1(fregs, n, z, p, |_, _, x| f(x, x));
            } else {
                fregs[z as usize][..n].fill(f(fi, fi));
            }
        },
        math: |f| {
            if p != c {
                K::apply1(fregs, n, z, p, |_, _, x| f(x, x));
            } else {
                fregs[z as usize][..n].fill(f(fi, fi));
            }
        },
        nullary: |f| fregs[z as usize][..n].fill(f(fi, fi))
    )
}

/// `d[l] = conv(v[idx[l]])` over `s`, shared by every gather: unchecked
/// when the accesses are proven in bounds (`el`), the plain loop when the
/// prescan finds every index in bounds, and otherwise a walk that faults
/// at the first out-of-bounds lane. `buf` names the parameter in the
/// fault.
#[inline(always)]
fn gather<S: LaneSet, E: Copy, T>(
    s: S,
    d: &mut Row<T>,
    idx: &Row<i64>,
    v: &[E],
    el: bool,
    buf: u16,
    conv: impl Fn(E) -> T,
) -> Result<(), VmError> {
    if el {
        debug_assert!(proven(s, idx, v.len()), "elision proof violated");
        s.zip1(d, idx, |i| {
            // SAFETY: the elision bit is set only when the interval
            // analysis proved every access on this parameter in `[0, len)`.
            conv(unsafe { *v.get_unchecked(i as usize) })
        });
    } else if s.in_bounds(idx, v.len()) {
        s.zip1(d, idx, |i| conv(v[i as usize]));
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

/// `v[idx[l]] = conv(src[l])` over `s`, shared by every scatter; the
/// three shapes of [`gather`].
#[inline(always)]
fn scatter<S: LaneSet, T: Copy, E>(
    s: S,
    v: &mut [E],
    idx: &Row<i64>,
    src: &Row<T>,
    el: bool,
    buf: u16,
    conv: impl Fn(T) -> E,
) -> Result<(), VmError> {
    let len = v.len();
    if el {
        debug_assert!(proven(s, idx, len), "elision proof violated");
        for l in s.lanes() {
            // SAFETY: see `gather` — statically proven in bounds.
            unsafe { *v.get_unchecked_mut(idx[l] as usize) = conv(src[l]) };
        }
    } else if s.in_bounds(idx, len) {
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
    el: bool,
    f2: F,
) {
    let (x, z) = (op.c as usize, op.dst as usize);
    let (p, q) = (op.d as usize, op.e as usize);
    if el {
        for l in s.lanes() {
            // SAFETY: see `gather` — statically proven in bounds.
            let loaded = f64::from(unsafe { *v.get_unchecked(idx[l] as usize) });
            fregs[x][l] = loaded;
            let pv = fregs[p][l];
            let qv = fregs[q][l];
            fregs[z][l] = f2(pv, qv);
        }
    } else {
        for l in s.lanes() {
            let loaded = f64::from(v[idx[l] as usize]);
            fregs[x][l] = loaded;
            let pv = fregs[p][l];
            let qv = fregs[q][l];
            fregs[z][l] = f2(pv, qv);
        }
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
    el: bool,
    f1: F,
) {
    let (a, b, z) = (op.a as usize, op.b as usize, op.dst as usize);
    if el {
        for l in s.lanes() {
            let t = f1(fregs[a][l], fregs[b][l]);
            fregs[z][l] = t;
            // SAFETY: see `gather` — statically proven in bounds.
            unsafe { *v.get_unchecked_mut(idx[l] as usize) = t as f32 };
        }
    } else {
        for l in s.lanes() {
            let t = f1(fregs[a][l], fregs[b][l]);
            fregs[z][l] = t;
            v[idx[l] as usize] = t as f32;
        }
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
        // `l`'s total is `batch_steps + steps[l]`; `max_off` bounds the
        // largest offset from above (see `check_steps`). Every row is
        // zeroed, because the predicated path charges all `LANES` rows and
        // `check_steps` reads them all.
        let mut batch_steps: u64 = 0;
        let mut max_off: u64 = 0;
        self.steps.fill(0);
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
                sink.count_block(block, Prefix(n));
                batch_steps += b.step_cost();
            } else {
                sink.count_block(block, Masked(mask));
                let cost = b.step_cost();
                for l in mask.lanes() {
                    self.steps[l] += cost;
                    max_off = max_off.max(self.steps[l]);
                }
            }
            self.check_steps(batch_steps, &mut max_off)?;
            if mask == full {
                for op in dec.block_ops(block) {
                    self.exec_dec::<K, _>(op, Prefix(n), gsize, bmap, bufs)?;
                }
            } else {
                // Per-lane scalar work that AVX2 cannot widen stays out
                // of the AVX2 body.
                let ops = dec.block_ops(block);
                inline_if!(
                    !K::AVX2,
                    self.exec_block_masked(ops, Masked(mask), gsize, bmap, bufs)
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
            // A predicable if-arm taken by enough lanes runs at full width
            // under a select mask, charged to its lanes only; then the
            // whole frame continues at the rejoin, where the frame path
            // would also resume it.
            let arm = f.cfg.if_arm[block];
            if arm != NO_ARM {
                let on = if arm == then { t } else { e };
                if on.count() >= PREDICATE_MIN_LANES {
                    let arm = arm as usize;
                    sink.count_block(arm, Select(on));
                    let cost = f.blocks[arm].step_cost();
                    for (l, s) in self.steps.iter_mut().enumerate() {
                        *s += cost & 0u64.wrapping_sub(on.0 >> l & 1);
                    }
                    max_off += cost;
                    self.check_steps(batch_steps, &mut max_off)?;
                    for op in dec.block_ops(arm) {
                        self.exec_dec::<K, _>(op, Select(on), gsize, bmap, bufs)?;
                    }
                    pc = f.cfg.ipdom[block];
                    continue;
                }
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

    /// Fail if some lane's step total `batch_steps + steps[l]` exceeds the
    /// limit. `max_off` is an upper bound on the largest offset; when the
    /// bound crosses the limit it is first tightened to the exact maximum.
    /// Every lane's total stayed within the limit at the previous check,
    /// so the limit fires at exactly the block where the scalar engine's
    /// does.
    #[inline(always)]
    fn check_steps(&self, batch_steps: u64, max_off: &mut u64) -> Result<(), VmError> {
        if batch_steps + *max_off > self.step_limit {
            *max_off = self.steps.iter().fold(0, |m, &s| m.max(s));
            if batch_steps + *max_off > self.step_limit {
                return Err(VmError::StepLimitExceeded {
                    limit: self.step_limit,
                });
            }
        }
        Ok(())
    }

    /// Execute one block's decoded ops on the active lanes of `m`. The
    /// per-lane walk never widens, so one instantiation (the portable
    /// one) serves both tiers.
    #[inline(always)]
    fn exec_block_masked(
        &mut self,
        ops: &[DecOp],
        m: Masked,
        gsize: [usize; 3],
        bmap: &[usize],
        bufs: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        for op in ops {
            self.exec_dec::<PortableBody, _>(op, m, gsize, bmap, bufs)?;
        }
        Ok(())
    }

    /// Execute one decoded op on the lanes of `s`, by one flat dispatch on
    /// the [`OpCode`], with operands and immediates already extracted.
    /// Results are bit-identical to the scalar engine running the
    /// corresponding [`Instr`](crate::bytecode::Instr)s once per item.
    /// Under [`Masked`], inactive lanes hold live register state of
    /// diverged lane subsets, so the set's loops never write their
    /// registers, touch their buffer elements or fault on them.
    ///
    /// The fused superinstructions and the `LoadF`/`StoreF` kernels go
    /// through `inline_if!` and the row kernels through `K`, so each tier
    /// gets its layout (see [`Codegen`]); a masked walk inlines them all.
    #[inline(always)]
    fn exec_dec<K: Codegen, S: LaneSet>(
        &mut self,
        op: &DecOp,
        s: S,
        gsize: [usize; 3],
        bmap: &[usize],
        bufs: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        let u = op.unsigned;
        let (dst, a, b) = (op.dst, op.a, op.b);
        let (di, ai, bi) = (dst as usize, a as usize, b as usize);
        let ir = &mut self.iregs;
        let fr = &mut self.fregs;
        match op.code {
            OpCode::ConstI => s.fill(&mut ir[di], op.imm),
            OpCode::ConstF => s.fill(&mut fr[di], op.fimm),
            OpCode::MovI => s.map1::<K, _, _>(ir, dst, a, |x| x),
            OpCode::MovF => s.map1::<K, _, _>(fr, dst, a, |x| x),
            OpCode::IAdd => s.map2::<K, _, _>(ir, dst, a, b, |x, y| wrap32(x.wrapping_add(y), u)),
            OpCode::ISub => s.map2::<K, _, _>(ir, dst, a, b, |x, y| wrap32(x.wrapping_sub(y), u)),
            OpCode::IMul => s.map2::<K, _, _>(ir, dst, a, b, |x, y| wrap32(x.wrapping_mul(y), u)),
            OpCode::IDiv | OpCode::IRem => {
                let o = if op.code == OpCode::IDiv {
                    IBinOp::Div
                } else {
                    IBinOp::Rem
                };
                for l in s.lanes() {
                    let (x, y) = (ir[ai][l], ir[bi][l]);
                    ir[di][l] = int_bin(o, x, y, u)?;
                }
            }
            OpCode::IAnd => s.map2::<K, _, _>(ir, dst, a, b, |x, y| wrap32(x & y, u)),
            OpCode::IOr => s.map2::<K, _, _>(ir, dst, a, b, |x, y| wrap32(x | y, u)),
            OpCode::IXor => s.map2::<K, _, _>(ir, dst, a, b, |x, y| wrap32(x ^ y, u)),
            OpCode::IShl => s.map2::<K, _, _>(ir, dst, a, b, |x, y| {
                wrap32(x.wrapping_shl((y & 31) as u32), u)
            }),
            OpCode::IShr => s.map2::<K, _, _>(ir, dst, a, b, |x, y| {
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
                s.map1::<K, _, _>(ir, dst, a, |x| wrap32(x.wrapping_add(imm), u));
            }
            OpCode::ImmSub => {
                let imm = op.imm;
                s.map1::<K, _, _>(ir, dst, a, |x| wrap32(x.wrapping_sub(imm), u));
            }
            OpCode::ImmMul => {
                let imm = op.imm;
                s.map1::<K, _, _>(ir, dst, a, |x| wrap32(x.wrapping_mul(imm), u));
            }
            OpCode::ImmDiv | OpCode::ImmRem => {
                let o = if op.code == OpCode::ImmDiv {
                    IBinOp::Div
                } else {
                    IBinOp::Rem
                };
                for l in s.lanes() {
                    let x = ir[ai][l];
                    ir[di][l] = int_bin(o, x, op.imm, u)?;
                }
            }
            OpCode::ImmAnd => {
                let imm = op.imm;
                s.map1::<K, _, _>(ir, dst, a, |x| wrap32(x & imm, u));
            }
            OpCode::ImmOr => {
                let imm = op.imm;
                s.map1::<K, _, _>(ir, dst, a, |x| wrap32(x | imm, u));
            }
            OpCode::ImmXor => {
                let imm = op.imm;
                s.map1::<K, _, _>(ir, dst, a, |x| wrap32(x ^ imm, u));
            }
            OpCode::ImmShl => {
                let s2 = (op.imm & 31) as u32;
                s.map1::<K, _, _>(ir, dst, a, |x| wrap32(x.wrapping_shl(s2), u));
            }
            OpCode::ImmShr => {
                let s2 = (op.imm & 31) as u32;
                s.map1::<K, _, _>(ir, dst, a, |x| {
                    let v = if u {
                        ((x as u64) >> s2) as i64
                    } else {
                        (x as i32 >> s2) as i64
                    };
                    wrap32(v, u)
                });
            }
            OpCode::FAdd => s.map2::<K, _, _>(fr, dst, a, b, |x, y| x + y),
            OpCode::FSub => s.map2::<K, _, _>(fr, dst, a, b, |x, y| x - y),
            OpCode::FMul => s.map2::<K, _, _>(fr, dst, a, b, |x, y| x * y),
            OpCode::FDiv => s.map2::<K, _, _>(fr, dst, a, b, |x, y| x / y),
            OpCode::ICmpLt => s.map2::<K, _, _>(ir, dst, a, b, |x, y| i64::from(x < y)),
            OpCode::ICmpLe => s.map2::<K, _, _>(ir, dst, a, b, |x, y| i64::from(x <= y)),
            OpCode::ICmpGt => s.map2::<K, _, _>(ir, dst, a, b, |x, y| i64::from(x > y)),
            OpCode::ICmpGe => s.map2::<K, _, _>(ir, dst, a, b, |x, y| i64::from(x >= y)),
            OpCode::ICmpEq => s.map2::<K, _, _>(ir, dst, a, b, |x, y| i64::from(x == y)),
            OpCode::ICmpNe => s.map2::<K, _, _>(ir, dst, a, b, |x, y| i64::from(x != y)),
            OpCode::FCmpLt => s.zip2(&mut ir[di], &fr[ai], &fr[bi], |x, y| i64::from(x < y)),
            OpCode::FCmpLe => s.zip2(&mut ir[di], &fr[ai], &fr[bi], |x, y| i64::from(x <= y)),
            OpCode::FCmpGt => s.zip2(&mut ir[di], &fr[ai], &fr[bi], |x, y| i64::from(x > y)),
            OpCode::FCmpGe => s.zip2(&mut ir[di], &fr[ai], &fr[bi], |x, y| i64::from(x >= y)),
            OpCode::FCmpEq => s.zip2(&mut ir[di], &fr[ai], &fr[bi], |x, y| i64::from(x == y)),
            OpCode::FCmpNe => s.zip2(&mut ir[di], &fr[ai], &fr[bi], |x, y| i64::from(x != y)),
            OpCode::NegI => s.map1::<K, _, _>(ir, dst, a, |x| wrap32(0i64.wrapping_sub(x), u)),
            OpCode::NegF => s.map1::<K, _, _>(fr, dst, a, |x| -x),
            OpCode::NotI => s.map1::<K, _, _>(ir, dst, a, |x| i64::from(x == 0)),
            OpCode::BitNotI => s.map1::<K, _, _>(ir, dst, a, |x| wrap32(!x, u)),
            OpCode::CastIF => s.zip1(&mut fr[di], &ir[ai], |x| x as f64),
            OpCode::CastFI => {
                let (d, x) = (&mut ir[di], &fr[ai]);
                if u {
                    s.zip1(d, x, |x| i64::from(x as u32));
                } else {
                    s.zip1(d, x, |x| i64::from(x as i32));
                }
            }
            OpCode::CastII => s.map1::<K, _, _>(ir, dst, a, |x| wrap32(x, u)),
            OpCode::Sqrt => s.map1::<K, _, _>(fr, dst, a, f64::sqrt),
            OpCode::Rsqrt => s.map1::<K, _, _>(fr, dst, a, |x| 1.0 / x.sqrt()),
            OpCode::Exp => s.map1::<K, _, _>(fr, dst, a, f64::exp),
            OpCode::Log => s.map1::<K, _, _>(fr, dst, a, f64::ln),
            OpCode::Sin => s.map1::<K, _, _>(fr, dst, a, f64::sin),
            OpCode::Cos => s.map1::<K, _, _>(fr, dst, a, f64::cos),
            OpCode::Tan => s.map1::<K, _, _>(fr, dst, a, f64::tan),
            OpCode::Fabs => s.map1::<K, _, _>(fr, dst, a, f64::abs),
            OpCode::Floor => s.map1::<K, _, _>(fr, dst, a, f64::floor),
            OpCode::Ceil => s.map1::<K, _, _>(fr, dst, a, f64::ceil),
            OpCode::Pow => s.map2::<K, _, _>(fr, dst, a, b, f64::powf),
            OpCode::Fmin => s.map2::<K, _, _>(fr, dst, a, b, f64::min),
            OpCode::Fmax => s.map2::<K, _, _>(fr, dst, a, b, f64::max),
            OpCode::Fmod => s.map2::<K, _, _>(fr, dst, a, b, |x, y| x % y),
            OpCode::IMin => s.map2::<K, _, _>(ir, dst, a, b, i64::min),
            OpCode::IMax => s.map2::<K, _, _>(ir, dst, a, b, i64::max),
            OpCode::IAbs => s.map1::<K, _, _>(ir, dst, a, |x| wrap32(x.wrapping_abs(), false)),
            OpCode::LoadF => {
                inline_if!(K::AVX2 || S::MASKED, self.load_f(s, dst, a, b, bmap, bufs))?;
            }
            OpCode::LoadI => {
                // Index and destination share the I register file: borrow
                // them disjointly, or copy the index row when they are
                // the same register.
                let el = elided(self.elide, b);
                let copy;
                let (d, idx) = if di == ai {
                    copy = ir[ai];
                    (&mut ir[di], &copy)
                } else {
                    let Ok([d, idx]) = ir.get_disjoint_mut([di, ai]) else {
                        unreachable!("disjoint registers");
                    };
                    (d, &*idx)
                };
                match bufs.load(bmap[bi]) {
                    BufferData::I32(v) => gather(s, d, idx, v, el, b, i64::from)?,
                    BufferData::U32(v) => gather(s, d, idx, v, el, b, i64::from)?,
                    BufferData::F32(_) => unreachable!("type-checked load"),
                }
            }
            OpCode::StoreF => {
                inline_if!(K::AVX2 || S::MASKED, self.store_f(s, dst, a, b, bmap, bufs))?;
            }
            OpCode::StoreI => {
                let el = elided(self.elide, b);
                let (idx, src) = (&self.iregs[ai], &self.iregs[di]);
                match bufs.store(bmap[bi]) {
                    BufferData::I32(v) => scatter(s, v, idx, src, el, b, |x| x as i32)?,
                    BufferData::U32(v) => scatter(s, v, idx, src, el, b, |x| x as u32)?,
                    BufferData::F32(_) => unreachable!("type-checked store"),
                }
            }
            OpCode::GlobalId => s.zip1(&mut ir[di], &self.gid[ai], |g| g),
            OpCode::GlobalSize => s.fill(&mut ir[di], gsize[ai] as i64),
            // Superinstructions. Compute pairs run under the lane set's
            // pair policy. Memory pairs make one pass when every access
            // is known in bounds, and otherwise run as the unfused
            // sequence, so each lane faults exactly where the original
            // pair would.
            OpCode::FOp2 => inline_if!(K::AVX2 || S::MASKED, s.fop2::<K>(fr, op)),
            OpCode::IOp2 => inline_if!(K::AVX2 || S::MASKED, s.iop2::<K>(ir, op)),
            OpCode::Load2F => {
                inline_if!(K::AVX2 || S::MASKED, self.fused_load2f(s, op, bmap, bufs))?;
            }
            OpCode::LoadFOp => inline_if!(
                K::AVX2 || S::MASKED,
                self.fused_load_fop::<K, _>(s, op, bmap, bufs)
            )?,
            OpCode::FOpStore => inline_if!(
                K::AVX2 || S::MASKED,
                self.fused_fop_store::<K, _>(s, op, bmap, bufs)
            )?,
        }
        Ok(())
    }

    /// The `LoadF` kernel (`dst`, `idx` = index register, `buf` = buffer
    /// param), shared with the unfused memory pairs.
    #[inline(always)]
    fn load_f<S: LaneSet>(
        &mut self,
        s: S,
        dst: u16,
        idx: u16,
        buf: u16,
        bmap: &[usize],
        bufs: &Mem<'_>,
    ) -> Result<(), VmError> {
        let el = elided(self.elide, buf);
        let BufferData::F32(v) = bufs.load(bmap[buf as usize]) else {
            unreachable!("type-checked load");
        };
        let (d, idx) = (&mut self.fregs[dst as usize], &self.iregs[idx as usize]);
        gather(s, d, idx, v, el, buf, f64::from)
    }

    /// The `StoreF` kernel (`src` = source register, `idx` = index
    /// register, `buf` = buffer param), shared with the unfused memory
    /// pairs.
    #[inline(always)]
    fn store_f<S: LaneSet>(
        &self,
        s: S,
        src: u16,
        idx: u16,
        buf: u16,
        bmap: &[usize],
        bufs: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        let el = elided(self.elide, buf);
        let BufferData::F32(v) = bufs.store(bmap[buf as usize]) else {
            unreachable!("type-checked store");
        };
        let (idx, src) = (&self.iregs[idx as usize], &self.fregs[src as usize]);
        scatter(s, v, idx, src, el, buf, |x| x as f32)
    }

    /// `Load2F`: both gathers in one pass when both are known in bounds
    /// (the destinations are distinct by fusion rule).
    #[inline(always)]
    fn fused_load2f<S: LaneSet>(
        &mut self,
        s: S,
        op: &DecOp,
        bmap: &[usize],
        bufs: &Mem<'_>,
    ) -> Result<(), VmError> {
        let el = elided(self.elide, op.b) && elided(self.elide, op.e);
        let (idx1, idx2) = (&self.iregs[op.a as usize], &self.iregs[op.d as usize]);
        let BufferData::F32(v1) = bufs.load(bmap[op.b as usize]) else {
            unreachable!("type-checked load");
        };
        let BufferData::F32(v2) = bufs.load(bmap[op.e as usize]) else {
            unreachable!("type-checked load");
        };
        if el || (s.in_bounds(idx1, v1.len()) && s.in_bounds(idx2, v2.len())) {
            debug_assert!(
                proven(s, idx1, v1.len()) && proven(s, idx2, v2.len()),
                "elision proof violated"
            );
            let Ok([d1, d2]) = self
                .fregs
                .get_disjoint_mut([op.c as usize, op.dst as usize])
            else {
                unreachable!("distinct fused load destinations");
            };
            if el {
                for l in s.lanes() {
                    // SAFETY: both elision bits are set only when the
                    // interval analysis proved every access on each
                    // parameter in `[0, len)`.
                    unsafe {
                        d1[l] = f64::from(*v1.get_unchecked(idx1[l] as usize));
                        d2[l] = f64::from(*v2.get_unchecked(idx2[l] as usize));
                    }
                }
            } else {
                for l in s.lanes() {
                    d1[l] = f64::from(v1[idx1[l] as usize]);
                    d2[l] = f64::from(v2[idx2[l] as usize]);
                }
            }
            return Ok(());
        }
        self.load_f(s, op.c, op.a, op.b, bmap, bufs)?;
        self.load_f(s, op.dst, op.d, op.e, bmap, bufs)
    }

    /// `LoadFOp`: one pass ([`load_fop_pass`]) when the gather is known
    /// in bounds and `sub2` is not a `math` op (see `with_fsub!`); the
    /// unfused sequence otherwise.
    #[inline(always)]
    fn fused_load_fop<K: Codegen, S: LaneSet>(
        &mut self,
        s: S,
        op: &DecOp,
        bmap: &[usize],
        bufs: &Mem<'_>,
    ) -> Result<(), VmError> {
        let el = elided(self.elide, op.b);
        let idx = &self.iregs[op.a as usize];
        let BufferData::F32(v) = bufs.load(bmap[op.b as usize]) else {
            unreachable!("type-checked load");
        };
        if el || s.in_bounds(idx, v.len()) {
            debug_assert!(proven(s, idx, v.len()), "elision proof violated");
            let fr = &mut self.fregs;
            with_fsub!(
                op.sub2,
                op.fimm,
                cheap: |f2| {
                    load_fop_pass(s, fr, idx, v, op, el, f2);
                    return Ok(());
                },
                math: ()
            );
        }
        self.load_f(s, op.c, op.a, op.b, bmap, bufs)?;
        apply_f::<K, _>(s, &mut self.fregs, op.dst, op.d, op.e, op.sub2, op.fimm);
        Ok(())
    }

    /// `FOpStore`: one pass ([`fop_store_pass`]) when the scatter is known
    /// in bounds and `sub1` is not a `math` op; the unfused sequence
    /// otherwise.
    #[inline(always)]
    fn fused_fop_store<K: Codegen, S: LaneSet>(
        &mut self,
        s: S,
        op: &DecOp,
        bmap: &[usize],
        bufs: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        let el = elided(self.elide, op.d);
        let idx = &self.iregs[op.c as usize];
        let BufferData::F32(v) = bufs.store(bmap[op.d as usize]) else {
            unreachable!("type-checked store");
        };
        if el || s.in_bounds(idx, v.len()) {
            debug_assert!(proven(s, idx, v.len()), "elision proof violated");
            let fr = &mut self.fregs;
            with_fsub!(
                op.sub1,
                op.fimm,
                cheap: |f1| {
                    fop_store_pass(s, fr, idx, v, op, el, f1);
                    return Ok(());
                },
                math: ()
            );
        }
        apply_f::<K, _>(s, &mut self.fregs, op.dst, op.a, op.b, op.sub1, op.fimm);
        self.store_f(s, op.dst, op.c, op.d, bmap, bufs)
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

    // Op-by-op lane-set parity. Every `OpCode` runs as a `DecOp` literal
    // on hand-built register files, under `Prefix` and under `Masked`, on
    // both codegen tiers.

    /// Buffer length; index rows `I_IDX0`/`I_IDX1` are in-bounds
    /// permutations, `I_OOB` is out of bounds on some hazard lanes.
    const LEN: usize = 80;
    const I_IDX0: u16 = 0;
    const I_IDX1: u16 = 1;
    const I_OOB: u16 = 6;
    /// A divisor row that is zero on some hazard lanes.
    const I_ZDIV: u16 = 5;
    const N_IREGS: usize = 10;
    const N_FREGS: usize = 8;
    /// The lanes where `I_ZDIV` is zero or `I_OOB` is out of bounds.
    const HAZARDS: [usize; 5] = [20, 37, 41, 45, 50];
    /// A sparse mask over the safe lanes, and the same plus every hazard.
    const SPARSE: u64 = 0x8A51_3C0F_F00D_B6E3 & !HAZARD_BITS;
    const HAZARD_BITS: u64 = 1 << 20 | 1 << 37 | 1 << 41 | 1 << 45 | 1 << 50;
    const GSIZE: [usize; 3] = [100, 3, 2];

    fn irow(r: usize, l: usize) -> i64 {
        let li = l as i64;
        match r {
            0 => ((l * 37 + 5) % 64) as i64,
            1 => ((l * 13 + 11) % 64 + 16) as i64,
            2 => match l {
                10 => i64::from(i32::MIN),
                11 => i64::from(u32::MAX),
                _ => ((l * 7919) % 201) as i64 - 100,
            },
            3 => match li % 7 - 3 {
                0 => 5,
                d => d,
            },
            4 => (li << 33) | ((li * 12345) * if l.is_multiple_of(3) { -1 } else { 1 }),
            5 => match l {
                20 | 41 => 0,
                _ => li + 1,
            },
            6 => match l {
                37 => LEN as i64 + 3,
                45 => -3,
                50 => LEN as i64 + 50,
                _ => li,
            },
            7 => li,
            8 => i64::from(!l.is_multiple_of(3)),
            _ => li * -123_456_789,
        }
    }

    fn frow(r: usize, l: usize) -> f64 {
        let x = l as f64;
        match (r, l) {
            (2, 0) => f64::NAN,
            (2, 1) => f64::INFINITY,
            (2, 2) => f64::NEG_INFINITY,
            (2, 3) => -0.0,
            (2, 4) => 0.0,
            (0, _) => (x - 30.0) * 0.37,
            (1, _) => x * 0.5 + 0.25,
            (2, _) => (x * 1.7).sin() * 100.0,
            (3, _) => (x - 32.0) * 1.3e8,
            _ => (x * 0.9 + r as f64).cos() * 3.0 + 0.5,
        }
    }

    /// A fresh engine; `patched` makes every hazard lane safe.
    fn engine(elide: u64, patched: bool) -> LaneEngine {
        let mut iregs: Vec<Row<i64>> = (0..N_IREGS)
            .map(|r| Row(std::array::from_fn(|l| irow(r, l))))
            .collect();
        if patched {
            for l in HAZARDS {
                iregs[I_ZDIV as usize][l] = 1;
                iregs[I_OOB as usize][l] = l as i64;
            }
        }
        LaneEngine {
            iregs,
            fregs: (0..N_FREGS)
                .map(|r| Row(std::array::from_fn(|l| frow(r, l))))
                .collect(),
            gid: std::array::from_fn(|d| Row(std::array::from_fn(|l| (l * (d + 2)) as i64))),
            steps: Row([0; LANES]),
            stack: Vec::new(),
            tier: Tier::Portable,
            elide,
            step_limit: u64::MAX,
        }
    }

    /// Buffer 0 is `F32`, 1 `I32`, 2 `U32`.
    fn buffers() -> Vec<BufferData> {
        vec![
            f32_buf(LEN, |i| i as f32 * 1.25 - 9.0),
            BufferData::I32((0..LEN as i32).map(|i| i * 3 - 70).collect()),
            BufferData::U32(
                (0..LEN as u32)
                    .map(|i| i.wrapping_mul(2_654_435_761))
                    .collect(),
            ),
        ]
    }

    /// Everything one op leaves behind; floats and buffer elements as bit
    /// patterns.
    #[derive(Debug, PartialEq, Clone)]
    struct Snap {
        result: Result<(), VmError>,
        iregs: Vec<[i64; LANES]>,
        fregs: Vec<[u64; LANES]>,
        bufs: Vec<Vec<u32>>,
    }

    fn snap(eng: &LaneEngine, bufs: &[BufferData], result: Result<(), VmError>) -> Snap {
        Snap {
            result,
            iregs: eng.iregs.iter().map(|r| r.0).collect(),
            fregs: eng.fregs.iter().map(|r| r.0.map(f64::to_bits)).collect(),
            bufs: bufs
                .iter()
                .map(|b| match b {
                    BufferData::F32(v) => v.iter().map(|x| x.to_bits()).collect(),
                    BufferData::I32(v) => v.iter().map(|&x| x as u32).collect(),
                    BufferData::U32(v) => v.clone(),
                })
                .collect(),
        }
    }

    /// `exec_dec` instantiated with the AVX2 tier's body, compiled with
    /// AVX2 enabled as in `exec_batch_avx2`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn exec_avx2<S: LaneSet>(
        eng: &mut LaneEngine,
        op: &DecOp,
        s: S,
        mem: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        eng.exec_dec::<Avx2Body, S>(op, s, GSIZE, &[0, 1, 2], mem)
    }

    /// Run `op` once on `s` from a fresh state.
    fn run_op<S: LaneSet>(tier: Tier, op: &DecOp, s: S, elide: u64, patched: bool) -> Snap {
        let mut eng = engine(elide, patched);
        let mut bufs = buffers();
        let mut mem = bufs.mem();
        let r = match tier {
            Tier::Portable => eng.exec_dec::<PortableBody, S>(op, s, GSIZE, &[0, 1, 2], &mut mem),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Tier::Avx2` comes only from `Tier::detect`.
            Tier::Avx2 => unsafe { exec_avx2(&mut eng, op, s, &mut mem) },
        };
        snap(&eng, &bufs, r)
    }

    fn dec(code: OpCode, dst: u16, a: u16, b: u16) -> DecOp {
        DecOp {
            code,
            dst,
            a,
            b,
            c: 0,
            d: 0,
            e: 0,
            sub1: 0,
            sub2: 0,
            unsigned: false,
            imm: 0,
            fimm: 0.0,
        }
    }

    /// A fused pair `c = sub1(a, b)`-style op with the extra fields set.
    #[allow(clippy::too_many_arguments)]
    fn fused(
        code: OpCode,
        c: u16,
        a: u16,
        b: u16,
        dst: u16,
        d: u16,
        e: u16,
        s1: u8,
        s2: u8,
    ) -> DecOp {
        DecOp {
            c,
            d,
            e,
            sub1: s1,
            sub2: s2,
            fimm: 2.5,
            ..dec(code, dst, a, b)
        }
    }

    /// Every shape of `code` the parity test runs; the match is
    /// exhaustive, so a new opcode cannot go untested.
    fn cases(code: OpCode) -> Vec<DecOp> {
        use OpCode::*;
        let signs = |ops: Vec<DecOp>| -> Vec<DecOp> {
            ops.into_iter()
                .flat_map(|o| {
                    [false, true].map(|u| DecOp {
                        unsigned: u,
                        ..o.clone()
                    })
                })
                .collect()
        };
        let ibin = [
            (8, 2, 4),
            (2, 2, 4),
            (4, 2, 4),
            (2, 2, 2),
            (8, 4, 4),
            (8, 2, 7),
        ];
        let fbin = [(7, 0, 2), (0, 0, 2), (2, 0, 2), (0, 0, 0)];
        match code {
            ConstI => vec![DecOp {
                imm: -77,
                ..dec(code, 8, 0, 0)
            }],
            ConstF => vec![DecOp {
                fimm: -1.5,
                ..dec(code, 7, 0, 0)
            }],
            MovI => vec![dec(code, 8, 2, 0), dec(code, 2, 2, 0)],
            MovF => vec![dec(code, 7, 2, 0), dec(code, 2, 2, 0)],
            IAdd | ISub | IMul | IAnd | IOr | IXor | IShl | IShr | ICmpLt | ICmpLe | ICmpGt
            | ICmpGe | ICmpEq | ICmpNe | IMin | IMax => {
                signs(ibin.iter().map(|&(d, a, b)| dec(code, d, a, b)).collect())
            }
            IDiv | IRem => signs(vec![
                dec(code, 8, 2, 3),
                dec(code, 3, 2, 3),
                dec(code, 8, 2, I_ZDIV),
            ]),
            ImmAdd | ImmSub | ImmMul | ImmAnd | ImmOr | ImmXor | ImmShl | ImmShr => signs(
                [-7, 3, 45]
                    .into_iter()
                    .flat_map(|imm| {
                        [dec(code, 8, 4, 0), dec(code, 4, 4, 0)].map(|o| DecOp { imm, ..o })
                    })
                    .collect(),
            ),
            ImmDiv | ImmRem => signs(
                [-7, 3, 0]
                    .into_iter()
                    .map(|imm| DecOp {
                        imm,
                        ..dec(code, 8, 2, 0)
                    })
                    .collect(),
            ),
            FAdd | FSub | FMul | FDiv | Pow | Fmin | Fmax | Fmod => {
                fbin.iter().map(|&(d, a, b)| dec(code, d, a, b)).collect()
            }
            FCmpLt | FCmpLe | FCmpGt | FCmpGe | FCmpEq | FCmpNe => {
                vec![dec(code, 8, 0, 2), dec(code, 8, 2, 2)]
            }
            NegI | NotI | BitNotI | CastII | IAbs => signs(vec![
                dec(code, 8, 4, 0),
                dec(code, 4, 4, 0),
                dec(code, 8, 9, 0),
            ]),
            NegF | Sqrt | Rsqrt | Exp | Log | Sin | Cos | Tan | Fabs | Floor | Ceil => {
                vec![dec(code, 7, 2, 0), dec(code, 2, 2, 0), dec(code, 7, 0, 0)]
            }
            CastIF => vec![dec(code, 7, 4, 0), dec(code, 7, 2, 0)],
            CastFI => signs(vec![dec(code, 8, 3, 0), dec(code, 8, 2, 0)]),
            LoadF => vec![dec(code, 7, I_IDX0, 0), dec(code, 7, I_OOB, 0)],
            LoadI => vec![
                dec(code, 8, I_IDX0, 1),
                dec(code, 8, I_IDX1, 2),
                dec(code, I_IDX0, I_IDX0, 1),
                dec(code, 8, I_OOB, 1),
            ],
            StoreF => vec![dec(code, 2, I_IDX0, 0), dec(code, 3, I_OOB, 0)],
            StoreI => vec![
                dec(code, 2, I_IDX1, 1),
                dec(code, 4, I_IDX0, 2),
                dec(code, I_IDX0, I_IDX0, 2),
                dec(code, 2, I_OOB, 1),
            ],
            GlobalId => (0..3).map(|dim| dec(code, 8, dim, 0)).collect(),
            GlobalSize => (0..3).map(|dim| dec(code, 8, dim, 0)).collect(),
            FOp2 => {
                let shapes = [
                    (6, 0, 1, 7, 6, 2),
                    (6, 0, 1, 7, 2, 6),
                    (6, 0, 1, 0, 6, 6),
                    (6, 6, 1, 6, 6, 3),
                    (6, 0, 1, 7, 2, 3),
                ];
                let mut v = vec![];
                for s1 in 0..=F_CONST {
                    for s2 in (0..=F_CONST).filter(|&s2| s1 != F_CONST || s2 != F_CONST) {
                        for (c, a, b, d, p, q) in shapes {
                            v.push(fused(code, c, a, b, d, p, q, s1, s2));
                        }
                    }
                }
                v
            }
            IOp2 => {
                let mut v = vec![];
                for s1 in [0, 1, 2, I_UNSIGNED, 1 | I_UNSIGNED, 2 | I_UNSIGNED] {
                    for s2 in [0, 1, 2, I_UNSIGNED | 2] {
                        for (c, a, b, d, p, q) in
                            [(8, 2, 4, 9, 8, 3), (8, 2, 4, 2, 8, 8), (8, 8, 2, 8, 3, 8)]
                        {
                            v.push(fused(code, c, a, b, d, p, q, s1, s2));
                        }
                    }
                }
                v
            }
            Load2F => vec![
                fused(code, 6, I_IDX0, 0, 7, I_IDX1, 0, 0, 0),
                fused(code, 6, I_OOB, 0, 7, I_IDX0, 0, 0, 0),
                fused(code, 6, I_IDX0, 0, 7, I_OOB, 0, 0, 0),
            ],
            LoadFOp => {
                let mut v = vec![];
                for s2 in 0..F_CONST {
                    for (idx, d, p, q) in [(I_IDX0, 7, 6, 2), (I_IDX1, 7, 2, 7), (I_OOB, 7, 6, 6)] {
                        v.push(fused(code, 6, idx, 0, d, p, q, 0, s2));
                    }
                }
                v
            }
            FOpStore => {
                let mut v = vec![];
                for s1 in 0..=F_CONST {
                    for (a, b, z, idx) in [(0, 2, 7, I_IDX0), (7, 2, 7, I_IDX1), (0, 2, 7, I_OOB)] {
                        let mut o = fused(code, idx, a, b, z, 0, 0, s1, 0);
                        o.d = 0;
                        v.push(o);
                    }
                }
                v
            }
        }
    }

    const ALL_OPCODES: [OpCode; 75] = {
        use OpCode::*;
        [
            ConstI, ConstF, MovI, MovF, IAdd, ISub, IMul, IDiv, IRem, IAnd, IOr, IXor, IShl, IShr,
            ImmAdd, ImmSub, ImmMul, ImmDiv, ImmRem, ImmAnd, ImmOr, ImmXor, ImmShl, ImmShr, FAdd,
            FSub, FMul, FDiv, ICmpLt, ICmpLe, ICmpGt, ICmpGe, ICmpEq, ICmpNe, FCmpLt, FCmpLe,
            FCmpGt, FCmpGe, FCmpEq, FCmpNe, NegI, NegF, NotI, BitNotI, CastIF, CastFI, CastII,
            Sqrt, Rsqrt, Exp, Log, Sin, Cos, Tan, Fabs, Floor, Ceil, Pow, Fmin, Fmax, Fmod, IMin,
            IMax, IAbs, LoadF, LoadI, StoreF, StoreI, GlobalId, GlobalSize, FOp2, IOp2, Load2F,
            LoadFOp, FOpStore,
        ]
    };

    /// The buffer elements lane `l` of `op` stores to, as (buffer, index).
    fn store_target(op: &DecOp, eng: &LaneEngine, l: usize) -> Option<(usize, usize)> {
        let (idx, buf) = if matches!(op.code, OpCode::StoreF | OpCode::StoreI) {
            (op.a, op.b)
        } else if op.code == OpCode::FOpStore {
            (op.c, op.d)
        } else {
            return None;
        };
        Some((buf as usize, eng.iregs[idx as usize][l] as usize))
    }

    /// Whether `code` can fault on some operand values: such an op never
    /// runs under [`Select`] (see [`crate::cfg::CfgInfo::if_arm`]).
    fn can_fault(code: OpCode) -> bool {
        use OpCode::*;
        matches!(
            code,
            IDiv | IRem
                | ImmDiv
                | ImmRem
                | LoadF
                | LoadI
                | StoreF
                | StoreI
                | Load2F
                | LoadFOp
                | FOpStore
        )
    }

    /// Check one op on one tier with one elision mask.
    fn check_lane_sets(tier: Tier, op: &DecOp, elide: u64) {
        let ctx = format!("{op:?} on {} (elide {elide:#x})", tier.name());
        let select = !can_fault(op.code);
        // Prefix(n), Masked(full(n)) and, for an op that cannot fault,
        // Select(full(n)) leave identical state, faults included.
        let mut faults = false;
        for n in [LANES, 22] {
            let p = run_op(tier, op, Prefix(n), elide, false);
            let m = run_op(tier, op, Masked(ExecMask::full(n)), elide, false);
            assert_eq!(p, m, "Prefix({n}) vs Masked(full({n})): {ctx}");
            if select {
                let s = run_op(tier, op, Select(ExecMask::full(n)), elide, false);
                assert_eq!(p, s, "Prefix({n}) vs Select(full({n})): {ctx}");
            }
            faults |= p.result.is_err();
        }
        // Under a sparse mask over safe lanes, active lanes match the
        // full-width run (with the hazards patched away) and inactive
        // lanes' rows and buffer elements keep their values, even where
        // an inactive lane holds an out-of-bounds index or zero divisor.
        let init = snap(&engine(elide, false), &buffers(), Ok(()));
        let full = run_op(tier, op, Prefix(LANES), elide, true);
        let sparse = run_op(tier, op, Masked(ExecMask(SPARSE)), elide, false);
        if full.result.is_ok() {
            assert_eq!(sparse.result, Ok(()), "sparse mask faulted: {ctx}");
            let on = |l: usize| SPARSE >> l & 1 != 0;
            fn blend<T: Copy>(
                on: impl Fn(usize) -> bool,
                new: &[[T; LANES]],
                old: &[[T; LANES]],
            ) -> Vec<[T; LANES]> {
                new.iter()
                    .zip(old)
                    .map(|(n, o)| std::array::from_fn(|l| if on(l) { n[l] } else { o[l] }))
                    .collect()
            }
            assert_eq!(
                sparse.iregs,
                blend(on, &full.iregs, &init.iregs),
                "I rows: {ctx}"
            );
            assert_eq!(
                sparse.fregs,
                blend(on, &full.fregs, &init.fregs),
                "F rows: {ctx}"
            );
            let mut want = init.bufs.clone();
            let eng = engine(elide, false);
            for l in (0..LANES).filter(|&l| on(l)) {
                if let Some((b, i)) = store_target(op, &eng, l) {
                    want[b][i] = full.bufs[b][i];
                }
            }
            assert_eq!(sparse.bufs, want, "buffers: {ctx}");
            // Select computes the inactive lanes too, but stores only the
            // active ones: the same rows and buffers as the masked walk.
            if select {
                let s = run_op(tier, op, Select(ExecMask(SPARSE)), elide, false);
                assert_eq!(s, sparse, "Select vs Masked under a sparse mask: {ctx}");
            }
        }
        // With the hazard lanes active too, the fault is the one the
        // lowest faulting active lane raises on its own.
        let hazardous = ExecMask(SPARSE | HAZARD_BITS);
        let m = run_op(tier, op, Masked(hazardous), elide, false);
        if !faults && m.result.is_ok() {
            return;
        }
        let lowest = hazardous.lanes().find_map(|l| {
            run_op(tier, op, Masked(ExecMask(1 << l)), elide, false)
                .result
                .err()
        });
        assert_eq!(m.result, lowest.map_or(Ok(()), Err), "fault lane: {ctx}");
    }

    #[test]
    fn lane_sets_agree_op_by_op() {
        let mut tiers = vec![Tier::Portable];
        if !matches!(Tier::detect(), Tier::Portable) {
            tiers.push(Tier::detect());
        }
        let mut faulting = 0;
        for code in ALL_OPCODES {
            let ops = cases(code);
            assert!(!ops.is_empty(), "{code:?} has no case");
            for op in &ops {
                // Elide only where every index of the op is in bounds:
                // elision on an out-of-bounds index is undefined.
                let uses_oob = [op.a, op.c, op.d].contains(&I_OOB)
                    && matches!(
                        code,
                        OpCode::LoadF
                            | OpCode::LoadI
                            | OpCode::StoreF
                            | OpCode::StoreI
                            | OpCode::Load2F
                            | OpCode::LoadFOp
                            | OpCode::FOpStore
                    );
                for &tier in &tiers {
                    check_lane_sets(tier, op, 0);
                    if !uses_oob {
                        check_lane_sets(tier, op, 0b111);
                    }
                }
                if run_op(Tier::Portable, op, Prefix(LANES), 0, false)
                    .result
                    .is_err()
                {
                    faulting += 1;
                }
            }
        }
        // The faulting shapes: zero divisors (IDiv, IRem, ImmDiv and
        // ImmRem by zero, each signed and unsigned) and out-of-bounds
        // accesses (LoadF, LoadI, StoreF, StoreI, two Load2F halves, 16
        // LoadFOp and 17 FOpStore sub-ops).
        assert_eq!(faulting, 8 + 1 + 1 + 1 + 1 + 2 + 16 + 17);
    }
}
