//! Static uniformity / divergence analysis.
//!
//! Classifies every branch in the compiled bytecode as **work-item
//! uniform** (all work-items of a launch take the same direction) or
//! **potentially divergent**. A value is divergent when it depends on
//! `get_global_id` — directly, through arithmetic, through a load whose
//! *index* is divergent (different work-items read different elements),
//! or through **control dependence**: any value defined inside the
//! influence region of a divergent branch (the blocks between the branch
//! and its immediate post-dominator) differs across work-items that took
//! different paths.
//!
//! The counts feed the partition predictor's static feature vector
//! ([`crate::features::StaticFeatures`]), and a kernel with *zero*
//! divergent branches lets the runtime skip the dynamic divergence probe
//! entirely: per-item operation counts are then provably identical, so
//! `ops_cv` is exactly 0.
//!
//! Registers are treated flow-insensitively (a register is divergent if
//! any reachable definition of it is). That is sound: a branch classified
//! uniform is uniform on every launch.

use crate::bytecode::{Function, Instr, Terminator};
use crate::cfg::{reg_def, reg_uses, term_uses, NO_POST_DOM};

/// Per-function uniformity facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniformityFacts {
    /// Conditional branches whose condition is gid-uniform.
    pub uniform_branches: u32,
    /// Conditional branches whose condition may diverge across work-items.
    pub divergent_branches: u32,
    /// Per-block: does the block end in a divergent conditional branch?
    pub divergent_term: Vec<bool>,
}

impl UniformityFacts {
    /// Whether every work-item provably executes the same instruction
    /// sequence (no divergent branch anywhere).
    pub fn fully_uniform(&self) -> bool {
        self.divergent_branches == 0
    }
}

struct Taint {
    i: Vec<bool>,
    f: Vec<bool>,
}

impl Taint {
    fn instr_input_divergent(&self, ins: &Instr) -> bool {
        match *ins {
            // The divergence source.
            Instr::GlobalId { .. } => true,
            // A load is divergent iff its index is: a uniform index means
            // every work-item reads the same element.
            Instr::LoadF { idx, .. } | Instr::LoadI { idx, .. } => self.i[idx as usize],
            _ => {
                let tainted = std::cell::Cell::new(false);
                reg_uses(
                    ins,
                    |r| tainted.set(tainted.get() | self.i[r as usize]),
                    |r| tainted.set(tainted.get() | self.f[r as usize]),
                );
                tainted.get()
            }
        }
    }

    fn term_divergent(&self, term: &Terminator) -> bool {
        let tainted = std::cell::Cell::new(false);
        term_uses(
            term,
            |r| tainted.set(tainted.get() | self.i[r as usize]),
            |r| tainted.set(tainted.get() | self.f[r as usize]),
        );
        tainted.get()
    }
}

/// Blocks strictly between `block`'s successors and its immediate
/// post-dominator — the region whose execution depends on the branch
/// direction. `NO_POST_DOM` (no common post-dominator) taints every
/// block reachable from the successors.
fn influence_region(f: &Function, block: usize) -> Vec<usize> {
    let stop = f.cfg.ipdom[block];
    let mut seen = vec![false; f.blocks.len()];
    let mut stack: Vec<u32> = f.cfg.succs[block].clone();
    let mut region = Vec::new();
    while let Some(b) = stack.pop() {
        if (stop != NO_POST_DOM && b == stop) || seen[b as usize] {
            continue;
        }
        seen[b as usize] = true;
        region.push(b as usize);
        stack.extend_from_slice(&f.cfg.succs[b as usize]);
    }
    region
}

/// Run the uniformity analysis over a compiled function.
pub fn analyze(f: &Function) -> UniformityFacts {
    let mut t = Taint {
        i: vec![false; f.n_iregs as usize],
        f: vec![false; f.n_fregs as usize],
    };
    // Fixpoint: data taint and control-dependence taint feed each other
    // (a divergent branch taints defs in its region, which may make more
    // branches divergent).
    loop {
        let mut changed = false;
        for block in &f.blocks {
            for ins in &block.instrs {
                let Some((is_float, r)) = reg_def(ins) else {
                    continue;
                };
                let already = if is_float {
                    t.f[r as usize]
                } else {
                    t.i[r as usize]
                };
                if !already && t.instr_input_divergent(ins) {
                    if is_float {
                        t.f[r as usize] = true;
                    } else {
                        t.i[r as usize] = true;
                    }
                    changed = true;
                }
            }
        }
        for (b, block) in f.blocks.iter().enumerate() {
            if !matches!(
                block.term,
                Terminator::Branch { .. } | Terminator::BranchCmp { .. }
            ) || !t.term_divergent(&block.term)
            {
                continue;
            }
            for r in influence_region(f, b) {
                for ins in &f.blocks[r].instrs {
                    if let Some((is_float, reg)) = reg_def(ins) {
                        let slot = if is_float {
                            &mut t.f[reg as usize]
                        } else {
                            &mut t.i[reg as usize]
                        };
                        if !*slot {
                            *slot = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut uniform = 0u32;
    let mut divergent = 0u32;
    let mut divergent_term = vec![false; f.blocks.len()];
    for (b, block) in f.blocks.iter().enumerate() {
        if !matches!(
            block.term,
            Terminator::Branch { .. } | Terminator::BranchCmp { .. }
        ) {
            continue;
        }
        if t.term_divergent(&block.term) {
            divergent += 1;
            divergent_term[b] = true;
        } else {
            uniform += 1;
        }
    }
    UniformityFacts {
        uniform_branches: uniform,
        divergent_branches: divergent,
        divergent_term,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::OptLevel;

    fn compiled(src: &str, level: OptLevel) -> Function {
        let tokens = crate::lexer::lex(src).expect("lex");
        let program = crate::parser::parse(&tokens).expect("parse");
        let ir = crate::sema::analyze(&program.kernels[0]).expect("sema");
        crate::bytecode::compile_with_modes(&ir, level).expect("bytecode")
    }

    #[test]
    fn gid_guard_is_divergent() {
        let f = compiled(
            "kernel void k(global float* o, int n) {\n\
             int i = get_global_id(0);\n\
             if (i < n) { o[i] = 1.0; }\n\
             }",
            OptLevel::Full,
        );
        let u = analyze(&f);
        assert!(u.divergent_branches >= 1);
        assert!(!u.fully_uniform());
    }

    #[test]
    fn scalar_arg_loop_is_uniform() {
        let f = compiled(
            "kernel void k(global float* o, int n) {\n\
             int i = get_global_id(0);\n\
             float s = 0.0;\n\
             for (int j = 0; j < n; j++) { s += 2.0; }\n\
             o[i] = s;\n\
             }",
            OptLevel::Full,
        );
        let u = analyze(&f);
        assert_eq!(u.divergent_branches, 0, "{u:?}");
        assert!(u.fully_uniform());
    }

    #[test]
    fn control_dependence_propagates_divergence() {
        // `x` is assigned under a gid-dependent branch, so the later
        // branch on `x` is divergent even though no gid flows into it
        // as data.
        let f = compiled(
            "kernel void k(global float* o, int n) {\n\
             int i = get_global_id(0);\n\
             int x = 0;\n\
             if (i < n) { x = 1; }\n\
             if (x > 0) { o[0] = 1.0; }\n\
             }",
            OptLevel::None,
        );
        let u = analyze(&f);
        assert!(u.divergent_branches >= 2, "{u:?}");
    }
}
