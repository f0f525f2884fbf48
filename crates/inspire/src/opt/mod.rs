//! Bytecode optimizer: a pass pipeline over the compiled block list.
//!
//! Codegen in [`crate::bytecode`] is naive per-statement expansion — every
//! constant gets its own `ConstI`, every variable read a `MovI`, every
//! `break`/`return` leaves an orphan block behind. This module cleans that
//! up between codegen and the final [`CfgInfo`](crate::cfg::CfgInfo)
//! build, so both VM engines, the dynamic instruction statistics, and the
//! kernel fingerprint all see the optimized form:
//!
//! - **simplify-cfg** — jump threading through empty blocks, folding of
//!   constant/degenerate branches, unreachable-block elimination (which
//!   canonicalizes the orphan blocks codegen leaves after early exits),
//!   and straight-line merging of single-predecessor jump chains.
//! - **const-fold** — evaluates instructions whose operands are known
//!   constants, using the VM's own arithmetic helpers so folded results
//!   are bit-identical to runtime results. Operations that can fault
//!   (`Div`/`Rem` by zero) are never folded away.
//! - **copy-prop** — forwards `MovI`/`MovF` sources through later uses
//!   within a block, drops self-moves, and coalesces `t = op …; v = mov t`
//!   pairs into `v = op …` when the temporary dies.
//! - **dce** — liveness-based dead-code elimination. Dead *loads* are
//!   removable (OpenCL makes out-of-bounds access undefined, so dropping
//!   a dead load can only remove a fault, never add one); stores and
//!   faulting divisions always stay.
//! - **fuse** — superinstruction fusion: `const + op` becomes the
//!   immediate form [`Instr::IBinImm`](crate::bytecode::Instr) and a
//!   compare feeding an otherwise-dead branch condition becomes the fused
//!   [`Terminator::BranchCmp`](crate::bytecode::Terminator).
//!
//! Every pass takes and returns `Vec<Block>`; after each one the pipeline
//! rebuilds the per-block [`OpHistogram`](crate::bytecode::OpHistogram)
//! through the one shared [`Block::recompute_histo`] so the histograms the
//! cost features consume can never drift from the instructions executed.
//! Compiling at [`OptLevel::None`] skips the pipeline entirely.
//!
//! Whatever the opt level, the final blocks are then pre-decoded
//! (`decode`) into the flat direct-threaded op array the lane engine
//! executes; the scalar reference engine keeps matching on the
//! instruction enum. No pass reallocates registers: every variable keeps
//! its codegen register, which keeps the flow-insensitive uniformity
//! analysis ([`crate::analysis::uniform`]) from merging the live ranges
//! of unrelated values.

use crate::bytecode::{Block, FnParam, Instr, Terminator};
use crate::cfg::{reg_def, reg_uses, term_uses};
use crate::ir::{ParamKind, ScalarType};
use std::cell::Cell;

mod const_fold;
mod copy_prop;
mod dce;
pub(crate) mod decode;
mod fuse;
mod simplify_cfg;

/// How hard the compiler optimizes. Threaded through
/// `HarnessConfig` and folded into the oracle fingerprint, because the
/// optimization level shapes the bytecode and therefore simulated times
/// and oracle labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// Naive codegen output, untouched. The reference the differential
    /// suite compares optimized execution against.
    None,
    /// The full pass pipeline. The default.
    Full,
}

impl OptLevel {
    /// Whether the pipeline runs at all.
    pub fn enabled(self) -> bool {
        matches!(self, OptLevel::Full)
    }

    /// Short stable tag for config fingerprints.
    pub fn tag(self) -> &'static str {
        match self {
            OptLevel::None => "none",
            OptLevel::Full => "full",
        }
    }
}

/// The register-allocation mode, kept only as a one-value type: the
/// allocator is gone, so codegen register files are always kept.
/// `HarnessConfig::regalloc` and the second parameter of the suite's
/// `Benchmark::compile_with_modes` still carry it because the benchmark
/// package passes them; the coordinated `benchmark/` edit deletes it.
#[derive(Debug, Clone, Copy)]
pub enum RegAlloc {
    /// Keep codegen-shaped register files.
    Off,
}

/// Shared context passed to every pass.
pub(crate) struct Ctx<'a> {
    pub(crate) params: &'a [FnParam],
}

type Pass = for<'a, 'b> fn(Vec<Block>, &'b Ctx<'a>) -> Vec<Block>;

/// Run the full pipeline over `blocks`. The caller re-runs
/// [`CfgInfo::build`](crate::cfg::CfgInfo::build) on the result so SIMT
/// reconvergence sees the final CFG.
///
/// When verification is on (builds with `debug_assertions`), the IR
/// verifier runs after every pass and a broken pass surfaces as a
/// [`CompileError`](crate::error::CompileError) naming it, instead of a
/// wrong answer at execution time.
pub(crate) fn optimize(
    name: &str,
    mut blocks: Vec<Block>,
    params: &[FnParam],
    n_params: usize,
) -> Result<Vec<Block>, crate::error::CompileError> {
    let ctx = Ctx { params };
    // Two cleanup rounds (simplify-cfg unlocks cross-block folding by
    // merging straight lines), then fusion over the settled code, then a
    // final sweep for constants and copies the fusion made dead.
    const PIPELINE: &[(&str, Pass)] = &[
        ("simplify-cfg", simplify_cfg::run),
        ("const-fold", const_fold::run),
        ("copy-prop", copy_prop::run),
        ("dce", dce::run),
        ("simplify-cfg", simplify_cfg::run),
        ("const-fold", const_fold::run),
        ("copy-prop", copy_prop::run),
        ("dce", dce::run),
        ("fuse", fuse::run),
        ("dce", dce::run),
        ("simplify-cfg", simplify_cfg::run),
    ];
    for (pname, pass) in PIPELINE {
        blocks = pass(blocks, &ctx);
        for b in &mut blocks {
            b.recompute_histo(n_params);
        }
        if cfg!(debug_assertions) {
            // Register-file sizes are fixed only after the pipeline, so
            // only structural checks apply (u16::MAX bounds).
            crate::analysis::verify::verify_blocks(
                pname,
                name,
                &blocks,
                params,
                u16::MAX,
                u16::MAX,
            )?;
        }
    }
    Ok(blocks)
}

/// Tight register-file spans `(n_iregs, n_fregs)` of the optimized code:
/// one past the highest register any instruction, terminator, or scalar
/// parameter touches. Parameter registers count even when dead — argument
/// binding writes them unconditionally.
pub(crate) fn reg_span(blocks: &[Block], params: &[FnParam]) -> (u16, u16) {
    let ni = Cell::new(0u32);
    let nf = Cell::new(0u32);
    for p in params {
        match p.kind {
            ParamKind::Scalar(ScalarType::Float) => nf.set(nf.get().max(p.reg as u32 + 1)),
            ParamKind::Scalar(_) => ni.set(ni.get().max(p.reg as u32 + 1)),
            ParamKind::Buffer { .. } => {}
        }
    }
    let ui = |r: u16| ni.set(ni.get().max(r as u32 + 1));
    let uf = |r: u16| nf.set(nf.get().max(r as u32 + 1));
    for b in blocks {
        for ins in &b.instrs {
            reg_uses(ins, ui, uf);
            match reg_def(ins) {
                Some((true, r)) => uf(r),
                Some((false, r)) => ui(r),
                None => {}
            }
        }
        term_uses(&b.term, ui, uf);
    }
    (ni.get() as u16, nf.get() as u16)
}

/// Rewrite every register an instruction *reads* through `fi` (I file) /
/// `ff` (F file). The dual of [`reg_uses`].
pub(super) fn map_uses(ins: &mut Instr, fi: impl Fn(u16) -> u16, ff: impl Fn(u16) -> u16) {
    use Instr::*;
    match ins {
        ConstI { .. } | ConstF { .. } | GlobalId { .. } | GlobalSize { .. } => {}
        MovI { src, .. } => *src = fi(*src),
        MovF { src, .. } => *src = ff(*src),
        IBin { a, b, .. } | CmpI { a, b, .. } | IMin { a, b, .. } | IMax { a, b, .. } => {
            *a = fi(*a);
            *b = fi(*b);
        }
        IBinImm { a, .. } => *a = fi(*a),
        FBin { a, b, .. } | CmpF { a, b, .. } | Math2 { a, b, .. } => {
            *a = ff(*a);
            *b = ff(*b);
        }
        NegI { a, .. } | NotI { a, .. } | BitNotI { a, .. } | CastII { a, .. } | IAbs { a, .. } => {
            *a = fi(*a)
        }
        CastIF { a, .. } => *a = fi(*a),
        NegF { a, .. } | CastFI { a, .. } | Math1 { a, .. } => *a = ff(*a),
        LoadF { idx, .. } | LoadI { idx, .. } => *idx = fi(*idx),
        StoreF { idx, src, .. } => {
            *idx = fi(*idx);
            *src = ff(*src);
        }
        StoreI { idx, src, .. } => {
            *idx = fi(*idx);
            *src = fi(*src);
        }
    }
}

/// Rewrite every register a terminator reads. The dual of [`term_uses`].
pub(super) fn map_term_uses(
    term: &mut Terminator,
    fi: impl Fn(u16) -> u16,
    ff: impl Fn(u16) -> u16,
) {
    match term {
        Terminator::Jump(_) | Terminator::Ret => {}
        Terminator::Branch { cond, .. } => *cond = fi(*cond),
        Terminator::BranchCmp { float, a, b, .. } => {
            if *float {
                *a = ff(*a);
                *b = ff(*b);
            } else {
                *a = fi(*a);
                *b = fi(*b);
            }
        }
    }
}

/// Redirect an instruction's destination register.
///
/// # Panics
/// Panics on stores, which define no register.
pub(super) fn set_def(ins: &mut Instr, new_dst: u16) {
    use Instr::*;
    match ins {
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
        | GlobalSize { dst, .. }
        | ConstF { dst, .. }
        | MovF { dst, .. }
        | FBin { dst, .. }
        | NegF { dst, .. }
        | CastIF { dst, .. }
        | Math1 { dst, .. }
        | Math2 { dst, .. }
        | LoadF { dst, .. } => *dst = new_dst,
        StoreF { .. } | StoreI { .. } => unreachable!("stores define no register"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Function, IBinOp};
    use crate::compile_with_modes;

    fn opt(src: &str) -> Function {
        compile_with_modes(src, OptLevel::Full).unwrap().bytecode
    }

    fn noopt(src: &str) -> Function {
        compile_with_modes(src, OptLevel::None).unwrap().bytecode
    }

    #[test]
    fn constant_expressions_fold_to_a_single_const() {
        let f = opt("kernel void k(global int* o) {
                int i = get_global_id(0);
                o[i] = (2 + 3) * 4;
            }");
        // No IBin survives: the arithmetic happened at compile time.
        for b in &f.blocks {
            for ins in &b.instrs {
                assert!(
                    !matches!(ins, Instr::IBin { .. } | Instr::IBinImm { .. }),
                    "arith on constants must fold: {ins:?}"
                );
            }
        }
        assert!(
            f.num_instrs()
                < noopt(
                    "kernel void k(global int* o) {
                int i = get_global_id(0);
                o[i] = (2 + 3) * 4;
            }"
                )
                .num_instrs()
        );
    }

    #[test]
    fn division_by_constant_zero_never_folds() {
        let f = opt("kernel void k(global int* o) {
                int z = 0;
                o[0] = 1 / z;
            }");
        let has_div = f.blocks.iter().any(|b| {
            b.instrs.iter().any(|i| {
                matches!(
                    i,
                    Instr::IBin {
                        op: IBinOp::Div,
                        ..
                    } | Instr::IBinImm {
                        op: IBinOp::Div,
                        ..
                    }
                )
            })
        });
        assert!(has_div, "faulting division must survive the optimizer");
    }

    #[test]
    fn stores_are_never_eliminated() {
        let src = "kernel void k(global float* o) {
            int i = get_global_id(0);
            o[i] = 1.0;
            o[i] = 2.0;
        }";
        let f = opt(src);
        let stores: usize = f
            .blocks
            .iter()
            .map(|b| {
                b.instrs
                    .iter()
                    .filter(|i| matches!(i, Instr::StoreF { .. } | Instr::StoreI { .. }))
                    .count()
            })
            .sum();
        assert_eq!(stores, 2, "both stores must execute (no store elimination)");
    }

    #[test]
    fn orphan_blocks_after_return_are_eliminated() {
        // The statements after `return` compile into an unreachable block
        // chain; the optimizer must drop it so semantically identical
        // kernels get identical code.
        let with_dead = opt("kernel void k(global float* o, int n) {
                int i = get_global_id(0);
                if (i >= n) { return; }
                o[i] = 1.0;
            }");
        for b in 1..with_dead.blocks.len() {
            assert!(
                !with_dead.cfg.preds[b].is_empty(),
                "block {b} is unreachable but survived"
            );
        }
    }

    #[test]
    fn cmp_feeding_branch_fuses() {
        let f = opt("kernel void k(global float* o, int n) {
                int i = get_global_id(0);
                if (i < n) { o[i] = 1.0; }
            }");
        assert!(
            f.blocks
                .iter()
                .any(|b| matches!(b.term, Terminator::BranchCmp { .. })),
            "guard compare must fuse into the branch"
        );
        // And the boolean register materialization is gone.
        let cmps: usize = f
            .blocks
            .iter()
            .map(|b| {
                b.instrs
                    .iter()
                    .filter(|i| matches!(i, Instr::CmpI { .. } | Instr::CmpF { .. }))
                    .count()
            })
            .sum();
        assert_eq!(cmps, 0);
    }

    #[test]
    fn loop_increment_uses_immediate_form() {
        let f = opt("kernel void k(global float* o, int n) {
                int i = get_global_id(0);
                float s = 0.0;
                for (int j = 0; j < n; j++) { s = s + 1.0; }
                o[i] = s;
            }");
        assert!(
            f.blocks.iter().any(|b| b.instrs.iter().any(|i| matches!(
                i,
                Instr::IBinImm {
                    op: IBinOp::Add,
                    ..
                }
            ))),
            "j++ must fuse its constant into an immediate add"
        );
    }

    #[test]
    fn histograms_stay_consistent_after_optimization() {
        let f = opt(
            "kernel void k(global const float* a, global float* o, int n) {
                int i = get_global_id(0);
                if (i < n) { o[i] = a[i] * 2.0 + 1.0; }
            }",
        );
        for b in &f.blocks {
            let mut copy = b.clone();
            copy.recompute_histo(f.params.len());
            assert_eq!(copy.histo, b.histo);
        }
    }

    #[test]
    fn reg_span_accounts_for_unused_params() {
        // Scalar param registers must stay allocated even if optimized
        // code never reads them — binding writes them unconditionally.
        let f = opt("kernel void k(global float* o, int unused, float fuses) {
                o[0] = 1.0;
            }");
        let i_param = f.params[1].reg;
        let f_param = f.params[2].reg;
        assert!(f.n_iregs > i_param);
        assert!(f.n_fregs > f_param);
    }

    #[test]
    fn optimized_code_shrinks_but_computes_the_same() {
        use crate::vm::{ArgValue, BufferData, Vm};
        let src = "kernel void k(global const float* a, global float* o, int n) {
            int i = get_global_id(0);
            float acc = 0.0;
            for (int j = 0; j < 4; j++) {
                acc = acc + a[i] * (1.0 + 1.0);
            }
            if (i < n) { o[i] = acc; }
        }";
        let fo = opt(src);
        let fn_ = noopt(src);
        assert!(
            fo.num_instrs() < fn_.num_instrs(),
            "optimizer must shrink static code: {} !< {}",
            fo.num_instrs(),
            fn_.num_instrs()
        );
        let n = 33usize;
        let a: Vec<f32> = (0..n).map(|i| i as f32 * 0.5 - 3.0).collect();
        let run = |f: &Function| {
            let mut bufs = vec![BufferData::F32(a.clone()), BufferData::F32(vec![0.0; n])];
            let mut vm = Vm::new();
            vm.run_range(
                f,
                &crate::ir::NdRange::d1(n),
                0..n,
                &[
                    ArgValue::Buffer(0),
                    ArgValue::Buffer(1),
                    ArgValue::Int(n as i32),
                ],
                &mut bufs,
            )
            .unwrap();
            bufs
        };
        assert_eq!(run(&fo), run(&fn_));
    }
}
