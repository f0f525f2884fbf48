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
//! across all active lanes in a tight loop.
//!
//! This module holds the batch driver and the op walk; [`tier`], [`mask`],
//! [`lanes`] and [`mem`] the rest, split by concern.
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
//!   guard-style `if (i < n)` conditions and fixed-trip-count loops.
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

mod lanes;
mod mask;
mod mem;
#[cfg(test)]
mod tests;
mod tier;

use lanes::{LaneSet, Masked, Prefix, Select};
use mask::{cmp_rows, pack_rows, ExecMask, Frame};
use mem::{gather, scatter};
#[cfg(target_arch = "x86_64")]
use tier::Avx2Body;
use tier::{inline_if, Codegen, PortableBody, Row};
pub use tier::{lane_tier, Tier};

use crate::bytecode::{Function, IBinOp, Terminator};
use crate::cfg::{NO_ARM, NO_POST_DOM};
use crate::error::VmError;
use crate::opt::decode::{DecOp, OpCode};
use crate::vm::{int_bin, wrap32, BufferData, Counters, Mem, Vm};

/// Work-items executed in lockstep per batch.
pub const LANES: usize = 64;

/// The fewest lanes that run a predicated if-arm (see the module docs).
/// Below it the arm's full-width passes cost more than walking its few
/// lanes one at a time under a pushed frame.
const PREDICATE_MIN_LANES: u32 = LANES as u32 / 2;

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
    /// Maximum instructions one work-item may execute, copied from
    /// [`Vm::step_limit`].
    step_limit: u64,
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
        crate::tier_dispatch!(
            self.tier,
            type K = PortableBody | Avx2Body,
            fn exec_batch_avx2(
                eng: &mut LaneEngine = self,
                f: &Function,
                gids: &[[usize; 3]],
                gsize: [usize; 3],
                bmap: &[usize],
                bufs: &mut Mem<'_>,
                sink: CountSink<'_>,
            ) -> Result<(), VmError> {
                eng.exec_batch_body::<K>(f, gids, gsize, bmap, bufs, sink)
            }
        )
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
                        Frame { pc, rpc, mask } = fr;
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
                    (then, els, pack_rows::<K, _, _>(c, c, |v, _| v != 0))
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
                        cmp_rows::<K, _>(op, &self.fregs[a as usize], &self.fregs[rb as usize])
                    } else {
                        cmp_rows::<K, _>(op, &self.iregs[a as usize], &self.iregs[rb as usize])
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
                Frame { pc, rpc, mask } = fr;
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
                    BufferData::I32(v) => gather(s, d, idx, v, b, i64::from)?,
                    BufferData::U32(v) => gather(s, d, idx, v, b, i64::from)?,
                    BufferData::F32(_) => unreachable!("type-checked load"),
                }
            }
            OpCode::StoreF => {
                inline_if!(K::AVX2 || S::MASKED, self.store_f(s, dst, a, b, bmap, bufs))?;
            }
            OpCode::StoreI => {
                let (idx, src) = (&self.iregs[ai], &self.iregs[di]);
                match bufs.store(bmap[bi]) {
                    BufferData::I32(v) => scatter(s, v, idx, src, b, |x| x as i32)?,
                    BufferData::U32(v) => scatter(s, v, idx, src, b, |x| x as u32)?,
                    BufferData::F32(_) => unreachable!("type-checked store"),
                }
            }
            OpCode::GlobalId => s.zip1(&mut ir[di], &self.gid[ai], |g| g),
            OpCode::GlobalSize => s.fill(&mut ir[di], gsize[ai] as i64),
            // Superinstructions. Compute pairs run under the lane set's
            // pair policy. Memory pairs make one pass when the prescan
            // finds every access in bounds, and otherwise run as the
            // unfused sequence, so each lane faults exactly where the
            // original pair would.
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
}
