//! Control-flow-graph analyses over compiled bytecode.
//!
//! The lane engine's SIMT reconvergence (see `vm_batch/mod.rs`) needs to
//! know, for every divergent branch, where the diverged lane subsets are
//! guaranteed to meet again: the branch block's **immediate
//! post-dominator**. This module computes, once per compiled
//! [`Function`](crate::bytecode::Function) and cached on it:
//!
//! - the successor and predecessor graphs of the basic blocks,
//! - a reverse post-order of the forward CFG,
//! - immediate post-dominators (over the CFG extended with a single
//!   virtual exit node that every `Ret` block jumps to),
//! - each branch's **predicable if-arm**: the one-block side of an
//!   if-then triangle, which the lane engine may run under a select mask
//!   instead of splitting the batch, and
//! - per-block **live-in register sets** (registers read before written on
//!   some path from the block), which the optimizer's dead-code
//!   elimination and copy propagation consume.
//!
//! All analyses are straight textbook implementations: post-dominators via
//! the Cooper–Harvey–Kennedy iterative dominator algorithm run on the
//! reversed graph, liveness via backward bit-vector dataflow to a
//! fixpoint. Functions are small (tens of blocks), so simplicity wins over
//! asymptotics.

use crate::bytecode::{Block, IBinOp, Instr, Terminator};

/// Sentinel for "no immediate post-dominator": the block cannot reach the
/// function exit (it sits in an infinite loop), so no reconvergence point
/// exists. The lane engine treats this like the virtual exit — such lanes
/// can only terminate via the step limit, exactly as on the scalar engine.
pub const NO_POST_DOM: u32 = u32::MAX;

/// Sentinel of `CfgInfo::if_arm`: the block has no predicable if-arm.
pub(crate) const NO_ARM: u32 = u32::MAX;

/// Cached CFG analyses of one compiled function.
///
/// Built by [`CfgInfo::build`] during bytecode compilation; every field is
/// a pure function of the block list, so two equal functions always carry
/// equal `CfgInfo` (keeping the derived `PartialEq` on `Function` honest).
#[derive(Debug, Clone, PartialEq)]
pub struct CfgInfo {
    /// Forward successors of each block (branch targets in `then`, `els`
    /// order; `Ret` blocks have none — their successor is the virtual
    /// exit).
    pub succs: Vec<Vec<u32>>,
    /// Forward predecessors of each block.
    pub preds: Vec<Vec<u32>>,
    /// Reverse post-order of the forward CFG from block 0 (unreachable
    /// blocks are absent).
    pub rpo: Vec<u32>,
    /// Immediate post-dominator of each block: a block index, the virtual
    /// exit ([`CfgInfo::exit`]), or [`NO_POST_DOM`].
    pub ipdom: Vec<u32>,
    /// I registers live at entry of each block, ascending.
    pub live_in_i: Vec<Vec<u16>>,
    /// F registers live at entry of each block, ascending.
    pub live_in_f: Vec<Vec<u16>>,
    /// The predicable if-arm of each branch block, or [`NO_ARM`]: the
    /// side that is one block jumping straight to the branch's immediate
    /// post-dominator `r`, while the other side is `r` itself, and whose
    /// instructions cannot fault (no loads, stores, or integer division
    /// or remainder). A lane that skips the arm may hold any value in its
    /// registers, so only such an arm can run on every lane.
    pub(crate) if_arm: Vec<u32>,
    n_blocks: u32,
}

impl CfgInfo {
    /// The virtual exit node id (one past the last block). `Ret`
    /// terminators conceptually jump here; it is the reconvergence point
    /// of divergent branches whose paths only meet by returning.
    pub fn exit(&self) -> u32 {
        self.n_blocks
    }

    /// Compute all analyses for `blocks`.
    pub fn build(blocks: &[Block], n_iregs: u16, n_fregs: u16) -> Self {
        let n = blocks.len();
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (b, block) in blocks.iter().enumerate() {
            match block.term {
                Terminator::Jump(t) => succs[b].push(t),
                Terminator::Branch { then, els, .. } | Terminator::BranchCmp { then, els, .. } => {
                    succs[b].push(then);
                    if els != then {
                        succs[b].push(els);
                    }
                }
                Terminator::Ret => {}
            }
        }
        for (b, ss) in succs.iter().enumerate() {
            for &s in ss {
                preds[s as usize].push(b as u32);
            }
        }

        let rpo = forward_rpo(&succs);
        let ipdom = post_dominators(blocks, &succs);
        let (live_in_i, live_in_f) = liveness(blocks, &succs, n_iregs, n_fregs);
        let if_arm = if_arms(blocks, &ipdom);

        Self {
            succs,
            preds,
            rpo,
            ipdom,
            live_in_i,
            live_in_f,
            if_arm,
            n_blocks: n as u32,
        }
    }
}

/// [`CfgInfo::if_arm`] of every block.
fn if_arms(blocks: &[Block], ipdom: &[u32]) -> Vec<u32> {
    blocks
        .iter()
        .zip(ipdom)
        .map(|(b, &r)| {
            let (Terminator::Branch { then, els, .. } | Terminator::BranchCmp { then, els, .. }) =
                b.term
            else {
                return NO_ARM;
            };
            let arm = match (then == r, els == r) {
                (true, false) => els,
                (false, true) => then,
                _ => return NO_ARM,
            };
            let a = &blocks[arm as usize];
            let joins = matches!(a.term, Terminator::Jump(t) if t == r);
            if joins && !a.instrs.iter().any(can_fault) {
                arm
            } else {
                NO_ARM
            }
        })
        .collect()
}

/// Whether `ins` can fault on some operand values: a buffer access (its
/// index may be out of bounds) or an integer division or remainder (its
/// divisor may be zero).
fn can_fault(ins: &Instr) -> bool {
    match *ins {
        Instr::LoadF { .. } | Instr::LoadI { .. } | Instr::StoreF { .. } | Instr::StoreI { .. } => {
            true
        }
        Instr::IBin { op, .. } | Instr::IBinImm { op, .. } => {
            matches!(op, IBinOp::Div | IBinOp::Rem)
        }
        _ => false,
    }
}

/// Reverse post-order of the forward CFG from block 0.
fn forward_rpo(succs: &[Vec<u32>]) -> Vec<u32> {
    let n = succs.len();
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with an explicit (node, next-child) stack.
    let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
    state[0] = 1;
    while let Some(&mut (v, ref mut i)) = stack.last_mut() {
        if let Some(&s) = succs[v as usize].get(*i) {
            *i += 1;
            if state[s as usize] == 0 {
                state[s as usize] = 1;
                stack.push((s, 0));
            }
        } else {
            state[v as usize] = 2;
            post.push(v);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// Immediate post-dominators: the CHK iterative dominator algorithm on the
/// reversed CFG, rooted at a virtual exit node `n` that every `Ret` block
/// feeds into. Blocks that cannot reach the exit get [`NO_POST_DOM`].
fn post_dominators(blocks: &[Block], succs: &[Vec<u32>]) -> Vec<u32> {
    let n = blocks.len();
    let exit = n as u32;
    // Reverse-graph successors: exit -> every Ret block; v -> u for each
    // forward edge u -> v. Node ids 0..n are blocks, n is the exit.
    let mut rsuccs: Vec<Vec<u32>> = vec![Vec::new(); n + 1];
    for (b, block) in blocks.iter().enumerate() {
        if matches!(block.term, Terminator::Ret) {
            rsuccs[n].push(b as u32);
        }
        for &s in &succs[b] {
            rsuccs[s as usize].push(b as u32);
        }
    }

    // Post-order of the reverse graph from the exit; nodes not reached
    // cannot reach the exit in the forward graph.
    let mut state = vec![0u8; n + 1];
    let mut post: Vec<u32> = Vec::with_capacity(n + 1);
    let mut stack: Vec<(u32, usize)> = vec![(exit, 0)];
    state[exit as usize] = 1;
    while let Some(&mut (v, ref mut i)) = stack.last_mut() {
        if let Some(&s) = rsuccs[v as usize].get(*i) {
            *i += 1;
            if state[s as usize] == 0 {
                state[s as usize] = 1;
                stack.push((s, 0));
            }
        } else {
            post.push(v);
            stack.pop();
        }
    }
    // rpo_num[v] = position in reverse post-order of the reverse graph.
    let mut rpo_num = vec![usize::MAX; n + 1];
    for (i, &v) in post.iter().rev().enumerate() {
        rpo_num[v as usize] = i;
    }

    let mut idom = vec![NO_POST_DOM; n + 1];
    idom[exit as usize] = exit;
    let mut changed = true;
    while changed {
        changed = false;
        // Process in reverse post-order of the reverse graph (skip the
        // root). `post` is post-order, so iterate it backwards.
        for &v in post.iter().rev() {
            if v == exit {
                continue;
            }
            // Predecessors of `v` in the reverse graph are its forward
            // successors — plus the exit if `v` returns.
            let mut new_idom = NO_POST_DOM;
            let fwd = &succs[v as usize];
            let ret = matches!(blocks[v as usize].term, Terminator::Ret);
            for &p in fwd.iter().chain(ret.then_some(&exit)) {
                if idom[p as usize] == NO_POST_DOM {
                    continue; // not yet processed / can't reach exit
                }
                new_idom = if new_idom == NO_POST_DOM {
                    p
                } else {
                    intersect(&idom, &rpo_num, new_idom, p)
                };
            }
            if new_idom != NO_POST_DOM && idom[v as usize] != new_idom {
                idom[v as usize] = new_idom;
                changed = true;
            }
        }
    }
    idom.truncate(n);
    idom
}

/// CHK finger intersection in reverse-graph RPO numbering.
fn intersect(idom: &[u32], rpo_num: &[usize], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while rpo_num[a as usize] > rpo_num[b as usize] {
            a = idom[a as usize];
        }
        while rpo_num[b as usize] > rpo_num[a as usize] {
            b = idom[b as usize];
        }
    }
    a
}

/// Dense bitset over register indices.
#[derive(Clone, PartialEq)]
pub(crate) struct RegSet(Vec<u64>);

impl RegSet {
    pub(crate) fn new(n_regs: u16) -> Self {
        Self(vec![0; (n_regs as usize).div_ceil(64).max(1)])
    }
    pub(crate) fn set(&mut self, r: u16) {
        self.0[r as usize / 64] |= 1 << (r % 64);
    }
    pub(crate) fn clear(&mut self, r: u16) {
        self.0[r as usize / 64] &= !(1 << (r % 64));
    }
    pub(crate) fn contains(&self, r: u16) -> bool {
        self.0[r as usize / 64] & (1 << (r % 64)) != 0
    }
    /// `self |= other & !mask`; returns whether `self` changed.
    fn union_minus(&mut self, other: &RegSet, mask: &RegSet) -> bool {
        let mut changed = false;
        for ((s, &o), &m) in self.0.iter_mut().zip(&other.0).zip(&mask.0) {
            let new = *s | (o & !m);
            changed |= new != *s;
            *s = new;
        }
        changed
    }
    fn to_vec(&self) -> Vec<u16> {
        let mut out = Vec::new();
        for (w, &bits) in self.0.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let b = bits.trailing_zeros();
                out.push((w * 64) as u16 + b as u16);
                bits &= bits - 1;
            }
        }
        out
    }
}

/// Invoke `read_i` / `read_f` for every register one instruction reads.
pub(crate) fn reg_uses(ins: &Instr, mut read_i: impl FnMut(u16), mut read_f: impl FnMut(u16)) {
    use Instr::*;
    match *ins {
        ConstI { .. } | ConstF { .. } | GlobalId { .. } | GlobalSize { .. } => {}
        MovI { src, .. } => read_i(src),
        MovF { src, .. } => read_f(src),
        IBin { a, b, .. } | CmpI { a, b, .. } | IMin { a, b, .. } | IMax { a, b, .. } => {
            read_i(a);
            read_i(b);
        }
        IBinImm { a, .. } => read_i(a),
        FBin { a, b, .. } | CmpF { a, b, .. } | Math2 { a, b, .. } => {
            read_f(a);
            read_f(b);
        }
        NegI { a, .. } | NotI { a, .. } | BitNotI { a, .. } | CastII { a, .. } | IAbs { a, .. } => {
            read_i(a)
        }
        NegF { a, .. } | CastFI { a, .. } | Math1 { a, .. } => read_f(a),
        CastIF { a, .. } => read_i(a),
        LoadF { idx, .. } | LoadI { idx, .. } => read_i(idx),
        StoreF { idx, src, .. } => {
            read_i(idx);
            read_f(src);
        }
        StoreI { idx, src, .. } => {
            read_i(idx);
            read_i(src);
        }
    }
}

/// The register one instruction writes, if any: `(is_float, reg)`.
pub(crate) fn reg_def(ins: &Instr) -> Option<(bool, u16)> {
    use Instr::*;
    match *ins {
        ConstI { dst, .. }
        | MovI { dst, .. }
        | IBin { dst, .. }
        | IBinImm { dst, .. }
        | CmpI { dst, .. }
        | CmpF { dst, .. }
        | NegI { dst, .. }
        | NotI { dst, .. }
        | BitNotI { dst, .. }
        | CastFI { dst, .. }
        | CastII { dst, .. }
        | IMin { dst, .. }
        | IMax { dst, .. }
        | IAbs { dst, .. }
        | LoadI { dst, .. }
        | GlobalId { dst, .. }
        | GlobalSize { dst, .. } => Some((false, dst)),
        ConstF { dst, .. }
        | MovF { dst, .. }
        | FBin { dst, .. }
        | NegF { dst, .. }
        | CastIF { dst, .. }
        | Math1 { dst, .. }
        | Math2 { dst, .. }
        | LoadF { dst, .. } => Some((true, dst)),
        StoreF { .. } | StoreI { .. } => None,
    }
}

/// Invoke `read_i` / `read_f` for every register a terminator reads.
pub(crate) fn term_uses(
    term: &Terminator,
    mut read_i: impl FnMut(u16),
    mut read_f: impl FnMut(u16),
) {
    match *term {
        Terminator::Jump(_) | Terminator::Ret => {}
        Terminator::Branch { cond, .. } => read_i(cond),
        Terminator::BranchCmp { float, a, b, .. } => {
            if float {
                read_f(a);
                read_f(b);
            } else {
                read_i(a);
                read_i(b);
            }
        }
    }
}

/// Backward bit-vector liveness to a fixpoint; returns per-block live-in
/// sets as sorted register lists (I, F).
#[allow(clippy::type_complexity)]
fn liveness(
    blocks: &[Block],
    succs: &[Vec<u32>],
    n_iregs: u16,
    n_fregs: u16,
) -> (Vec<Vec<u16>>, Vec<Vec<u16>>) {
    let n = blocks.len();
    // Per-block gen (read before written) and kill (written) sets.
    let mut gen_i = Vec::with_capacity(n);
    let mut gen_f = Vec::with_capacity(n);
    let mut kill_i = Vec::with_capacity(n);
    let mut kill_f = Vec::with_capacity(n);
    for block in blocks {
        let mut gi = RegSet::new(n_iregs);
        let mut gf = RegSet::new(n_fregs);
        let mut ki = RegSet::new(n_iregs);
        let mut kf = RegSet::new(n_fregs);
        for ins in &block.instrs {
            reg_uses(
                ins,
                |r| {
                    if !ki.contains(r) {
                        gi.set(r)
                    }
                },
                |r| {
                    if !kf.contains(r) {
                        gf.set(r)
                    }
                },
            );
            match reg_def(ins) {
                Some((true, r)) => kf.set(r),
                Some((false, r)) => ki.set(r),
                None => {}
            }
        }
        term_uses(
            &block.term,
            |r| {
                if !ki.contains(r) {
                    gi.set(r)
                }
            },
            |r| {
                if !kf.contains(r) {
                    gf.set(r)
                }
            },
        );
        gen_i.push(gi);
        gen_f.push(gf);
        kill_i.push(ki);
        kill_f.push(kf);
    }

    // live_in[b] = gen[b] ∪ (∪_{s ∈ succ(b)} live_in[s] − kill[b])
    let mut live_i: Vec<RegSet> = gen_i.clone();
    let mut live_f: Vec<RegSet> = gen_f.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            for &s in &succs[b] {
                let (out_i, out_f) = (live_i[s as usize].clone(), live_f[s as usize].clone());
                changed |= live_i[b].union_minus(&out_i, &kill_i[b]);
                changed |= live_f[b].union_minus(&out_f, &kill_f[b]);
            }
        }
    }
    (
        live_i.iter().map(RegSet::to_vec).collect(),
        live_f.iter().map(RegSet::to_vec).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Function;
    use crate::opt::OptLevel;

    /// These tests assert analyses over the naive codegen CFG shapes
    /// (diamond arms, join blocks), which the optimizer collapses — so
    /// compile with the pipeline off.
    fn compile_fn(src: &str) -> Function {
        crate::compile_with_modes(src, OptLevel::None)
            .unwrap()
            .bytecode
    }

    /// Walk the scalar semantics: every branch block's ipdom must be a
    /// block (or the exit) that every path from the branch reaches.
    #[test]
    fn diamond_rejoins_at_join_block() {
        let f = compile_fn(
            "kernel void k(global float* o, int n) {
                int i = get_global_id(0);
                float s = 1.0;
                if (i < n) { s = 2.0; } else { s = 3.0; }
                o[i] = s;
            }",
        );
        let cfg = &f.cfg;
        // Exactly one branch block; its ipdom is the join block, which is
        // a real block (not the exit) because the store follows the if.
        let branch = f
            .blocks
            .iter()
            .position(|b| matches!(b.term, Terminator::Branch { .. }))
            .unwrap();
        let r = cfg.ipdom[branch];
        assert_ne!(r, cfg.exit(), "diamond must rejoin before the exit");
        assert_ne!(r, NO_POST_DOM);
        // Both successors reach the rejoin block.
        let Terminator::Branch { then, els, .. } = f.blocks[branch].term else {
            unreachable!()
        };
        for t in [then, els] {
            // then/els are empty bodies that jump straight to the join.
            match f.blocks[t as usize].term {
                Terminator::Jump(j) => assert_eq!(j, r),
                _ => panic!("diamond arm must jump to the join"),
            }
        }
    }

    #[test]
    fn early_return_branch_rejoins_at_exit() {
        let f = compile_fn(
            "kernel void k(global float* o, int n) {
                int i = get_global_id(0);
                if (i >= n) { return; }
                o[i] = 1.0;
            }",
        );
        let cfg = &f.cfg;
        let branch = f
            .blocks
            .iter()
            .position(|b| matches!(b.term, Terminator::Branch { .. }))
            .unwrap();
        assert_eq!(
            cfg.ipdom[branch],
            cfg.exit(),
            "paths that split between returning and falling through only \
             meet at the virtual exit"
        );
    }

    #[test]
    fn loop_head_rejoins_at_loop_exit() {
        let f = compile_fn(
            "kernel void k(global float* o, int n) {
                int i = get_global_id(0);
                float s = 0.0;
                for (int j = 0; j < i; j++) { s = s + 1.0; }
                o[i] = s;
            }",
        );
        let cfg = &f.cfg;
        let branch = f
            .blocks
            .iter()
            .position(|b| matches!(b.term, Terminator::Branch { .. }))
            .unwrap();
        let Terminator::Branch { els, .. } = f.blocks[branch].term else {
            unreachable!()
        };
        // The loop-head branch reconverges at its own exit edge target.
        assert_eq!(cfg.ipdom[branch], els);
    }

    #[test]
    fn infinite_loop_has_no_post_dominator() {
        // `for (;;)` with no break: the cycle cannot reach the exit.
        let f = compile_fn(
            "kernel void k(global int* o, int n) {
                int i = 0;
                for (;;) { i = i + 1; }
                o[0] = i;
            }",
        );
        let cfg = &f.cfg;
        // Blocks inside the cycle can't reach Ret, so they carry the
        // sentinel. (The branch itself always re-enters the loop — both
        // its targets are within or beyond the cycle.)
        assert!(cfg.ipdom.contains(&NO_POST_DOM));
    }

    #[test]
    fn successors_and_predecessors_are_consistent() {
        let f = compile_fn(
            "kernel void k(global float* o, int n) {
                int i = get_global_id(0);
                for (int j = 0; j < n; j++) {
                    if (j == 2) { continue; }
                    if (j > 4) { break; }
                    o[i] = o[i] + 1.0;
                }
            }",
        );
        let cfg = &f.cfg;
        for (b, ss) in cfg.succs.iter().enumerate() {
            for &s in ss {
                assert!(
                    cfg.preds[s as usize].contains(&(b as u32)),
                    "edge {b}->{s} missing from preds"
                );
            }
        }
        // RPO starts at the entry block.
        assert_eq!(cfg.rpo.first(), Some(&0));
    }

    #[test]
    fn live_in_tracks_reads_not_dead_registers() {
        let f = compile_fn(
            "kernel void k(global const float* a, global float* o, int n) {
                int i = get_global_id(0);
                float s = a[i];
                float dead = s * 2.0;
                if (i < n) { o[i] = s; }
            }",
        );
        let cfg = &f.cfg;
        let branch = f
            .blocks
            .iter()
            .position(|b| matches!(b.term, Terminator::Branch { .. }))
            .unwrap();
        let Terminator::Branch { then, .. } = f.blocks[branch].term else {
            unreachable!()
        };
        let then = then as usize;
        // The store in the then-block reads `s` (an F register) and `i`:
        // the F live-in set is non-empty but does not include every F
        // register (`dead`'s register is written before the branch and
        // never read after).
        assert!(!cfg.live_in_f[then].is_empty());
        assert!(
            (cfg.live_in_f[then].len() as u16) < f.n_fregs,
            "dead registers must not be live-in: {:?} of {} F regs",
            cfg.live_in_f[then],
            f.n_fregs
        );
        assert!(!cfg.live_in_i[then].is_empty(), "index register is live");
    }

    /// The suite's `monte_carlo_pi` kernel.
    const MONTE_CARLO_PI: &str =
        "kernel void monte_carlo_pi(global uint* hits, uint seed, int samples) {
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
        hits[i] = count;
    }";

    /// The branch blocks of `f` with a predicable arm, as (branch, arm).
    fn arms(f: &Function) -> Vec<(usize, u32)> {
        (0..f.blocks.len())
            .filter(|&b| f.cfg.if_arm[b] != NO_ARM)
            .map(|b| (b, f.cfg.if_arm[b]))
            .collect()
    }

    #[test]
    fn if_arm_marks_short_non_faulting_triangles_only() {
        // The sample test's `count++` arm, as the default pipeline
        // compiles it; the `s == 0` guard's arm too.
        let f = crate::compile(MONTE_CARLO_PI).unwrap().bytecode;
        let a = arms(&f);
        assert!(a.contains(&(4, 7)), "bb4 -> bb7 arm missing: {a:?}");
        for (b, arm) in a {
            assert!(
                matches!(f.blocks[arm as usize].term, Terminator::Jump(r) if r == f.cfg.ipdom[b])
            );
        }
        // An arm holding a load or an integer division can fault on the
        // lanes that skip it; a loop exit is no triangle.
        for (what, body) in [
            ("load", "if (i < n) { v = v + o[i]; }"),
            ("division", "if (i > 0) { v = n / i; }"),
            ("remainder", "if (i > 0) { v = v % 7; }"),
            ("loop exit", "for (int j = 0; j < i; j++) { v = v + 3; }"),
        ] {
            let src = format!(
                "kernel void k(global int* o, int n) {{
                    int i = get_global_id(0);
                    int v = i * 5;
                    {body}
                    o[i] = v;
                }}"
            );
            assert_eq!(arms(&crate::compile(&src).unwrap().bytecode), [], "{what}");
        }
        // The same triangle with a non-faulting arm is predicable. (Only
        // optimized code has triangles: codegen gives every `if` an else
        // block, which the optimizer drops when it is empty.)
        let f = crate::compile(
            "kernel void k(global int* o, int n) {
                int i = get_global_id(0);
                int v = i * 5;
                if (i > 0) { v = v * 7 + n; }
                o[i] = v;
            }",
        )
        .unwrap()
        .bytecode;
        assert_eq!(arms(&f).len(), 1);
    }

    #[test]
    fn loop_carried_registers_stay_live_around_the_backedge() {
        let f = compile_fn(
            "kernel void k(global float* o, int n) {
                int i = get_global_id(0);
                float s = 0.0;
                for (int j = 0; j < i; j++) { s = s + 0.5; }
                o[i] = s;
            }",
        );
        let cfg = &f.cfg;
        // `s` is read in the loop body and after the loop, so it must be
        // live-in at the body block even though the body also writes it.
        let branch = f
            .blocks
            .iter()
            .position(|b| matches!(b.term, Terminator::Branch { .. }))
            .unwrap();
        let Terminator::Branch { then, .. } = f.blocks[branch].term else {
            unreachable!()
        };
        assert!(
            !cfg.live_in_f[then as usize].is_empty(),
            "accumulator must be live-in at the loop body"
        );
    }
}
