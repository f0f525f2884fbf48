//! Liveness-driven linear-scan register allocation.
//!
//! Codegen assigns one register per variable plus a temp watermark, so
//! the register files of compiled code are much wider than the maximum
//! number of simultaneously live values. That width is what the 64-lane
//! SoA engine multiplies by `LANES × 8B` per file — shrinking it is a
//! direct cache-footprint win for the batch VM.
//!
//! The allocator runs after the optimizer pipeline, separately for the
//! I and F files. It numbers every instruction with a linear position,
//! derives a conservative `[first, last]` live interval per virtual
//! register from the cached CFG liveness sets (live-in at a block entry
//! extends the interval to the block's start; live-out extends it past
//! the terminator; back-edge liveness therefore covers whole loops),
//! and then runs the classic linear scan: intervals sorted by start,
//! expired intervals return their physical register to the free pool,
//! each live interval takes the lowest free one.
//!
//! Two register classes are *pinned* (kept on their original number and
//! never recycled):
//!
//! - **Scalar parameter registers** — argument binding writes them
//!   unconditionally before execution, even when the kernel never reads
//!   them, so another value may not alias them.
//! - **Entry-live-in registers** — registers read before any write.
//!   Compiled kernels only ever have parameters in this class (every
//!   variable declaration has an initializer), but hand-built or fuzzed
//!   IR may rely on register files persisting across items, and reusing
//!   such a register would change which stale value it observes.
//!
//! Sharing is allowed at interval boundaries (`end <= start`): the
//! defining instruction of one value may reuse the register of an
//! operand whose last use is that same instruction, because every
//! interpreter — scalar, full-width, and masked — reads its operands
//! before writing its destination (per lane, for the masked engine).

use std::cell::Cell;

use crate::bytecode::{Block, FnParam};
use crate::cfg::{reg_def, reg_uses, term_uses, CfgInfo};
use crate::ir::{ParamKind, ScalarType};

/// Whether linear-scan register allocation runs after the optimizer.
/// Like [`OptLevel`](super::OptLevel) this is an explicit compile mode
/// with an environment escape hatch; allocation is semantics-preserving
/// (it only renames registers), so the knob exists for A/B measurement of
/// register-file size and debugging, not correctness. It does not select
/// an execution walk: every mode is pre-decoded for the lane engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegAlloc {
    /// Keep codegen-shaped register files.
    Off,
    /// Allocate registers to shrink both register files.
    On,
}

impl RegAlloc {
    /// Mode selected by the environment: `INSPIRE_REGALLOC=0` disables
    /// register allocation, anything else (including unset) enables it.
    pub fn from_env() -> Self {
        match std::env::var_os("INSPIRE_REGALLOC") {
            Some(v) if v == "0" => RegAlloc::Off,
            _ => RegAlloc::On,
        }
    }

    /// Whether register allocation runs at all.
    pub fn enabled(self) -> bool {
        matches!(self, RegAlloc::On)
    }

    /// Short stable tag for config fingerprints.
    pub fn tag(self) -> &'static str {
        match self {
            RegAlloc::Off => "off",
            RegAlloc::On => "on",
        }
    }
}

/// Allocation result for one register file: old register → new register
/// (identity for registers the code never touches) and the new file
/// width.
struct FileMap {
    map: Vec<u16>,
    n_regs: u16,
}

/// Allocate both register files over `blocks`, rewrite every
/// instruction, terminator, and scalar parameter in place, and return
/// the new `(n_iregs, n_fregs)`. The result is never wider than the
/// input files.
pub(crate) fn allocate(
    blocks: &mut [Block],
    params: &mut [FnParam],
    n_iregs: u16,
    n_fregs: u16,
) -> (u16, u16) {
    let cfg = CfgInfo::build(blocks, n_iregs, n_fregs);

    // Linear positions: block `b`'s instruction `j` sits at `base[b]+j`,
    // its terminator one past the instructions, and a live-out marker one
    // past that (so values crossing the block edge outlive the
    // terminator). Position 0 is reserved for parameter binding.
    let mut base = Vec::with_capacity(blocks.len());
    let mut pos = 1u32;
    for b in blocks.iter() {
        base.push(pos);
        pos += b.instrs.len() as u32 + 2;
    }

    let mi = alloc_file(blocks, params, &cfg, n_iregs, &base, false);
    let mf = alloc_file(blocks, params, &cfg, n_fregs, &base, true);

    for b in blocks.iter_mut() {
        for ins in &mut b.instrs {
            // Map the reads first: `reg_def` still sees the original
            // destination afterwards because `map_uses` never touches it.
            super::map_uses(ins, |r| mi.map[r as usize], |r| mf.map[r as usize]);
            if let Some((is_f, d)) = reg_def(ins) {
                let file = if is_f { &mf } else { &mi };
                super::set_def(ins, file.map[d as usize]);
            }
        }
        super::map_term_uses(&mut b.term, |r| mi.map[r as usize], |r| mf.map[r as usize]);
    }
    for p in params.iter_mut() {
        match p.kind {
            ParamKind::Scalar(ScalarType::Float) => p.reg = mf.map[p.reg as usize],
            ParamKind::Scalar(_) => p.reg = mi.map[p.reg as usize],
            ParamKind::Buffer { .. } => {}
        }
    }
    (mi.n_regs, mf.n_regs)
}

fn alloc_file(
    blocks: &[Block],
    params: &[FnParam],
    cfg: &CfgInfo,
    n_regs: u16,
    base: &[u32],
    is_float: bool,
) -> FileMap {
    let n = n_regs as usize;
    // Conservative [start, end] touch intervals per virtual register.
    let start: Vec<Cell<u32>> = (0..n).map(|_| Cell::new(u32::MAX)).collect();
    let end: Vec<Cell<u32>> = (0..n).map(|_| Cell::new(0)).collect();
    let touch = |r: u16, p: u32| {
        let r = r as usize;
        start[r].set(start[r].get().min(p));
        end[r].set(end[r].get().max(p));
    };

    let live_in = if is_float {
        &cfg.live_in_f
    } else {
        &cfg.live_in_i
    };
    for (bi, b) in blocks.iter().enumerate() {
        let b0 = base[bi];
        for &r in &live_in[bi] {
            touch(r, b0);
        }
        for (j, ins) in b.instrs.iter().enumerate() {
            let p = b0 + j as u32;
            let ti = |r| {
                if !is_float {
                    touch(r, p)
                }
            };
            let tf = |r| {
                if is_float {
                    touch(r, p)
                }
            };
            reg_uses(ins, ti, tf);
            if let Some((f, d)) = reg_def(ins) {
                if f == is_float {
                    touch(d, p);
                }
            }
        }
        let p_term = b0 + b.instrs.len() as u32;
        let ti = |r| {
            if !is_float {
                touch(r, p_term)
            }
        };
        let tf = |r| {
            if is_float {
                touch(r, p_term)
            }
        };
        term_uses(&b.term, ti, tf);
        // Live-out = union of successor live-ins, one past the terminator.
        for &s in &cfg.succs[bi] {
            for &r in &live_in[s as usize] {
                touch(r, p_term + 1);
            }
        }
    }

    // Pin scalar parameters (position 0 binding writes) and entry
    // live-ins (read-before-write values whose identity must survive).
    let mut pinned = vec![false; n];
    for p in params {
        let in_file = match p.kind {
            ParamKind::Scalar(ScalarType::Float) => is_float,
            ParamKind::Scalar(_) => !is_float,
            ParamKind::Buffer { .. } => false,
        };
        if in_file {
            pinned[p.reg as usize] = true;
        }
    }
    if !blocks.is_empty() {
        for &r in &live_in[0] {
            pinned[r as usize] = true;
        }
    }

    let mut map: Vec<u16> = (0..n_regs).collect();
    let mut occupied = vec![false; n];
    let mut hi = 0u32;
    for (r, &pin) in pinned.iter().enumerate() {
        if pin {
            occupied[r] = true;
            hi = hi.max(r as u32 + 1);
        }
    }

    // Linear scan over the unpinned, actually-touched intervals.
    let mut order: Vec<u16> = (0..n_regs)
        .filter(|&r| !pinned[r as usize] && start[r as usize].get() != u32::MAX)
        .collect();
    order.sort_by_key(|&r| (start[r as usize].get(), r));
    let mut active: Vec<(u32, u16)> = Vec::new(); // (end, phys)
    for r in order {
        let s = start[r as usize].get();
        active.retain(|&(e, phys)| {
            if e <= s {
                occupied[phys as usize] = false;
                false
            } else {
                true
            }
        });
        // `occupied` has one slot per input register, and at most that
        // many live ranges can overlap, so a free slot always exists.
        let Some(free) = occupied.iter().position(|&o| !o) else {
            unreachable!("more simultaneously live registers than the input file holds");
        };
        let phys = free as u16;
        occupied[phys as usize] = true;
        map[r as usize] = phys;
        hi = hi.max(u32::from(phys) + 1);
        active.push((end[r as usize].get(), phys));
    }

    FileMap {
        map,
        n_regs: hi as u16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Instr, Terminator};
    use crate::ir::ParamKind;

    fn block(instrs: Vec<Instr>, term: Terminator) -> Block {
        let mut b = Block {
            instrs,
            term,
            histo: crate::bytecode::OpHistogram {
                classes: [0; crate::bytecode::N_OP_CLASSES],
                buf_reads: Vec::new(),
                buf_writes: Vec::new(),
            },
        };
        b.recompute_histo(1);
        b
    }

    fn buf_param() -> FnParam {
        FnParam {
            kind: ParamKind::Buffer {
                elem: ScalarType::Int,
                is_const: false,
            },
            reg: 0,
        }
    }

    #[test]
    fn chained_dead_temps_collapse() {
        // i0 (index) stays live to the store; i1→i2→i3 die immediately
        // and must all share one physical register.
        let mut blocks = vec![block(
            vec![
                Instr::ConstI { dst: 0, v: 0 },
                Instr::ConstI { dst: 1, v: 5 },
                Instr::MovI { dst: 2, src: 1 },
                Instr::MovI { dst: 3, src: 2 },
                Instr::StoreI {
                    buf: 0,
                    idx: 0,
                    src: 3,
                },
            ],
            Terminator::Ret,
        )];
        let mut params = vec![buf_param()];
        let (ni, nf) = allocate(&mut blocks, &mut params, 4, 0);
        assert_eq!(nf, 0);
        assert_eq!(ni, 2, "three chained temps must share one register");
    }

    #[test]
    fn overlapping_values_keep_distinct_registers() {
        // i0 and i1 are simultaneously live across the IBin; the result
        // may share with the dying operand but not with i0, which the
        // store still reads.
        let mut blocks = vec![block(
            vec![
                Instr::ConstI { dst: 0, v: 0 },
                Instr::ConstI { dst: 1, v: 7 },
                Instr::IBin {
                    op: crate::bytecode::IBinOp::Add,
                    dst: 2,
                    a: 0,
                    b: 1,
                    unsigned: false,
                },
                Instr::StoreI {
                    buf: 0,
                    idx: 0,
                    src: 2,
                },
            ],
            Terminator::Ret,
        )];
        let mut params = vec![buf_param()];
        let (ni, _) = allocate(&mut blocks, &mut params, 3, 0);
        assert_eq!(ni, 2);
        let (a, b) = match blocks[0].instrs[2] {
            Instr::IBin { a, b, .. } => (a, b),
            ref other => panic!("unexpected rewrite: {other:?}"),
        };
        assert_ne!(a, b, "simultaneously live operands must not collide");
        match blocks[0].instrs[3] {
            Instr::StoreI { idx, .. } => assert_eq!(idx, a, "index register must survive"),
            ref other => panic!("unexpected rewrite: {other:?}"),
        }
    }

    #[test]
    fn scalar_params_are_pinned_even_when_dead() {
        // A dead scalar parameter still owns its register: binding writes
        // it before execution, so the temp must not be allocated over it.
        let mut blocks = vec![block(
            vec![
                Instr::ConstI { dst: 1, v: 3 },
                Instr::StoreI {
                    buf: 0,
                    idx: 1,
                    src: 1,
                },
            ],
            Terminator::Ret,
        )];
        let mut params = vec![
            buf_param(),
            FnParam {
                kind: ParamKind::Scalar(ScalarType::Int),
                reg: 0,
            },
        ];
        let (ni, _) = allocate(&mut blocks, &mut params, 2, 0);
        assert_eq!(params[1].reg, 0, "parameter register must not move");
        assert_eq!(ni, 2, "temp must be allocated above the pinned param");
        match blocks[0].instrs[0] {
            Instr::ConstI { dst, .. } => assert_ne!(dst, 0),
            ref other => panic!("unexpected rewrite: {other:?}"),
        }
    }

    #[test]
    fn loop_carried_values_span_the_whole_loop() {
        // bb0: i1 = 0; i2 = 10        (counter, bound)
        // bb1: branch i1 < i2 ? bb2 : bb3
        // bb2: i3 = 1; i1 = i1 + i3; jump bb1
        // bb3: store; ret
        // The counter i1 is live around the back edge, so the loop-body
        // temp i3 must not take its register, while the bound i2 — also
        // loop-carried — needs a third slot only if it overlaps both.
        let mut blocks = vec![
            block(
                vec![
                    Instr::ConstI { dst: 1, v: 0 },
                    Instr::ConstI { dst: 2, v: 10 },
                ],
                Terminator::Jump(1),
            ),
            block(
                vec![],
                Terminator::BranchCmp {
                    op: crate::bytecode::CmpOp::Lt,
                    float: false,
                    a: 1,
                    b: 2,
                    then: 2,
                    els: 3,
                },
            ),
            block(
                vec![
                    Instr::ConstI { dst: 3, v: 1 },
                    Instr::IBin {
                        op: crate::bytecode::IBinOp::Add,
                        dst: 1,
                        a: 1,
                        b: 3,
                        unsigned: false,
                    },
                ],
                Terminator::Jump(1),
            ),
            block(
                vec![Instr::StoreI {
                    buf: 0,
                    idx: 1,
                    src: 2,
                }],
                Terminator::Ret,
            ),
        ];
        let mut params = vec![buf_param()];
        let before = 4;
        let (ni, _) = allocate(&mut blocks, &mut params, before, 0);
        assert!(ni <= before);
        let (counter, bound) = match blocks[1].term {
            Terminator::BranchCmp { a, b, .. } => (a, b),
            ref other => panic!("unexpected rewrite: {other:?}"),
        };
        let temp = match blocks[2].instrs[0] {
            Instr::ConstI { dst, .. } => dst,
            ref other => panic!("unexpected rewrite: {other:?}"),
        };
        assert_ne!(counter, bound, "both loop-carried values stay live");
        assert_ne!(temp, counter, "body temp must not clobber the counter");
        assert_ne!(temp, bound, "body temp must not clobber the bound");
    }

    #[test]
    fn allocation_never_widens_either_file() {
        let srcs = [
            "kernel void k(global const float* a, global float* o, int n) {
                int i = get_global_id(0);
                float x = a[i % n];
                float y = x * 2.0 + 1.0;
                float z = y - x;
                if (i < n) { o[i] = z * y; }
            }",
            "kernel void k(global float* o, int n) {
                int i = get_global_id(0);
                float s = 0.0;
                for (int j = 0; j < n; j++) { s += (float)j * 0.5; }
                o[i] = s;
            }",
        ];
        for src in srcs {
            let off = crate::bytecode::compile_with_modes(
                &crate::sema::analyze(
                    &crate::parser::parse(&crate::lexer::lex(src).unwrap())
                        .unwrap()
                        .kernels[0],
                )
                .unwrap(),
                super::super::OptLevel::Full,
                RegAlloc::Off,
            )
            .unwrap();
            let on = crate::bytecode::compile_with_modes(
                &crate::sema::analyze(
                    &crate::parser::parse(&crate::lexer::lex(src).unwrap())
                        .unwrap()
                        .kernels[0],
                )
                .unwrap(),
                super::super::OptLevel::Full,
                RegAlloc::On,
            )
            .unwrap();
            assert!(on.n_iregs <= off.n_iregs, "I file grew: {src}");
            assert!(on.n_fregs <= off.n_fregs, "F file grew: {src}");
        }
    }
}
