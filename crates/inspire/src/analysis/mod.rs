//! Static analyses over the compiled bytecode, with two clients:
//!
//! - [`verify`] — a typed IR checker that runs after every optimizer pass
//!   in builds with `debug_assertions` and turns miscompiles into
//!   compile-time diagnostics naming the offending pass and instruction.
//! - [`uniform`] — gid/load taint plus control-dependence propagation
//!   that classifies every branch as work-item-uniform or divergent,
//!   feeding the partition predictor's static feature vector.
//! - [`signedness`] — a forward fixpoint over the CFG that finds how each
//!   integer operand extends past 32 bits, which the lane engine's
//!   32-bit integer rows need at every op that reads past them.
//!
//! `verify` and `uniform` are direct walks over the basic blocks
//! (`uniform` also reads the cached [`CfgInfo`](crate::cfg::CfgInfo)
//! post-dominators); `signedness` iterates one small lattice per register.

pub mod signedness;
pub mod uniform;
pub mod verify;

use crate::bytecode::Terminator;

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
