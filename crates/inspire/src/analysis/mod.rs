//! Static analyses over the compiled bytecode.
//!
//! A small forward-dataflow framework ([`ForwardAnalysis`] / [`solve`])
//! over the basic blocks and the cached [`CfgInfo`](crate::cfg::CfgInfo),
//! with three clients:
//!
//! - [`verify`] — a typed IR checker that runs after every optimizer pass
//!   in builds with `debug_assertions` and turns miscompiles into
//!   compile-time diagnostics naming the offending pass and instruction.
//! - [`bounds`] — launch-seeded interval abstract interpretation (with
//!   widening at loop headers and branch-condition narrowing) that proves
//!   buffer accesses in bounds, letting both VM engines elide per-access
//!   bounds checks (`Vm::set_bounds_elide(false)` restores the checked
//!   paths).
//! - [`uniform`] — gid/load taint plus control-dependence propagation
//!   that classifies every branch as work-item-uniform or divergent,
//!   feeding the partition predictor's static feature vector.
//!
//! The framework is deliberately minimal: states are per-block *entry*
//! facts, joined over incoming edges, transferred through instruction
//! lists, and optionally refined along terminator edges (branch-condition
//! narrowing). Widening is delegated to the client so finite-height
//! domains (taint) pay nothing for it.

pub mod bounds;
pub mod uniform;
pub mod verify;

use crate::bytecode::{Block, Instr, Terminator};

/// A forward dataflow problem over basic blocks.
pub trait ForwardAnalysis {
    /// Per-block-entry abstract state.
    type State: Clone;

    /// Entry state of block 0 (function boundary).
    fn boundary(&self) -> Self::State;

    /// `into ⊔= from`; returns whether `into` changed.
    fn join(&self, into: &mut Self::State, from: &Self::State) -> bool;

    /// Widening applied at blocks whose entry state keeps changing (loop
    /// headers): accelerate `next` with respect to the previous state
    /// `prev`. The default is no acceleration, which is fine for
    /// finite-height domains.
    fn widen(&self, _next: &mut Self::State, _prev: &Self::State) {}

    /// Transfer one instruction in place (`block`/`idx` locate it for
    /// clients that record per-site facts).
    fn transfer_instr(&self, ins: &Instr, block: usize, idx: usize, state: &mut Self::State);

    /// Refine the out-state along one terminator edge (`succ_idx` is the
    /// position in [`term_targets`]'s order: 0 = jump target / `then`,
    /// 1 = `els`). Default: no refinement.
    fn transfer_edge(
        &self,
        _term: &Terminator,
        _succ_idx: usize,
        _block: usize,
        _state: &mut Self::State,
    ) {
    }
}

/// Successor blocks of a terminator, in edge order (`then` before `els`).
pub fn term_targets(term: &Terminator) -> impl Iterator<Item = u32> + '_ {
    let (a, b) = match *term {
        Terminator::Jump(t) => (Some(t), None),
        Terminator::Branch { then, els, .. } | Terminator::BranchCmp { then, els, .. } => {
            (Some(then), Some(els))
        }
        Terminator::Ret => (None, None),
    };
    a.into_iter().chain(b)
}

/// After how many joins that change a block's entry state the solver
/// starts widening it. Two plain iterations let short ascending chains
/// (e.g. `[0,0] ⊔ [1,1]`) settle exactly before bounds get thrown away.
const WIDEN_AFTER: u32 = 2;

/// Narrowing sweeps run after the widened fixpoint. Decreasing iteration
/// from a post-fixpoint is sound for monotone transfers; two sweeps
/// recover loop-header bounds cut by branch conditions.
const NARROW_SWEEPS: usize = 2;

/// Solve a forward dataflow problem to a (widened, then narrowed)
/// fixpoint. Returns the entry state of every block; `None` marks blocks
/// the analysis proved unreachable from the entry.
pub fn solve<A: ForwardAnalysis>(a: &A, blocks: &[Block]) -> Vec<Option<A::State>> {
    let n = blocks.len();
    let mut in_states: Vec<Option<A::State>> = vec![None; n];
    if n == 0 {
        return in_states;
    }
    in_states[0] = Some(a.boundary());
    let mut change_count = vec![0u32; n];
    let mut dirty = vec![false; n];
    let mut worklist: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    worklist.push_back(0);
    dirty[0] = true;

    while let Some(b) = worklist.pop_front() {
        dirty[b] = false;
        let Some(mut state) = in_states[b].clone() else {
            continue;
        };
        for (idx, ins) in blocks[b].instrs.iter().enumerate() {
            a.transfer_instr(ins, b, idx, &mut state);
        }
        for (succ_idx, target) in term_targets(&blocks[b].term).enumerate() {
            let t = target as usize;
            let mut out = state.clone();
            a.transfer_edge(&blocks[b].term, succ_idx, b, &mut out);
            let changed = match &mut in_states[t] {
                Some(existing) => {
                    let prev = existing.clone();
                    let mut changed = a.join(existing, &out);
                    if changed && change_count[t] >= WIDEN_AFTER {
                        a.widen(existing, &prev);
                        changed = true;
                    }
                    changed
                }
                slot @ None => {
                    *slot = Some(out);
                    true
                }
            };
            if changed {
                change_count[t] += 1;
                if !dirty[t] {
                    dirty[t] = true;
                    worklist.push_back(t);
                }
            }
        }
    }

    // Narrowing: recompute entry states from predecessors without joining
    // into the old value. The widened solution is a post-fixpoint, so
    // plain decreasing iteration stays a sound over-approximation while
    // clawing back the bounds branch conditions establish.
    for _ in 0..NARROW_SWEEPS {
        for b in 0..n {
            if b == 0 {
                continue; // The boundary state is not recomputed.
            }
            if in_states[b].is_none() {
                continue;
            }
            let mut new_in: Option<A::State> = None;
            for p in 0..n {
                let Some(pin) = in_states[p].clone() else {
                    continue;
                };
                let mut pstate = pin;
                for (idx, ins) in blocks[p].instrs.iter().enumerate() {
                    a.transfer_instr(ins, p, idx, &mut pstate);
                }
                for (succ_idx, target) in term_targets(&blocks[p].term).enumerate() {
                    if target as usize != b {
                        continue;
                    }
                    let mut out = pstate.clone();
                    a.transfer_edge(&blocks[p].term, succ_idx, p, &mut out);
                    match &mut new_in {
                        Some(acc) => {
                            a.join(acc, &out);
                        }
                        slot @ None => *slot = Some(out),
                    }
                }
            }
            if new_in.is_some() {
                in_states[b] = new_in;
            }
        }
    }
    in_states
}

/// Walk a solved analysis over every reachable instruction, invoking
/// `visit` with the state holding *before* each instruction executes.
/// This is how clients extract per-site facts after [`solve`].
pub fn visit_sites<A: ForwardAnalysis>(
    a: &A,
    blocks: &[Block],
    in_states: &[Option<A::State>],
    mut visit: impl FnMut(usize, usize, &Instr, &A::State),
) {
    for (b, block) in blocks.iter().enumerate() {
        let Some(entry) = &in_states[b] else {
            continue;
        };
        let mut state = entry.clone();
        for (idx, ins) in block.instrs.iter().enumerate() {
            visit(b, idx, ins, &state);
            a.transfer_instr(ins, b, idx, &mut state);
        }
    }
}
