//! Typed IR verifier.
//!
//! Runs after every optimizer pass (and once more on the finished,
//! pre-decoded function) in builds with `debug_assertions` — to verify an
//! optimised build, compile it with
//! `CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true` — and turns
//! a miscompile into a [`CompileError`] naming the offending pass, block,
//! and instruction — instead of a wrong answer caught (or missed) later
//! by the differential suite.
//!
//! Checks, in order of how often passes have historically broken them:
//!
//! - **terminator targets** point at existing blocks
//! - **operand kinds**: buffer operands name buffer params of the right
//!   element class (F-ops on float buffers, I-ops on int/uint buffers),
//!   `GlobalId`/`GlobalSize` dims are `< 3`
//! - **register-file bounds**: every register read or written (including
//!   by terminators) fits the function's allocated register files
//! - **histogram-vs-body consistency**: each block's cached
//!   [`OpHistogram`](crate::bytecode::OpHistogram) matches a recount of its instruction list — the
//!   dynamic statistics the partition predictor trains on depend on it
//! - **decode-table agreement**: the pre-decoded direct-threaded program
//!   equals a fresh re-decode of the enum blocks

use crate::bytecode::{Block, FnParam, Function, Instr};
use crate::cfg::{reg_def, reg_uses, term_uses};
use crate::error::CompileError;
use crate::ir::{ParamKind, ScalarType};

fn err(pass: &str, func: &str, detail: String) -> CompileError {
    CompileError::verify(format!("[{pass}] {func}: {detail}"))
}

/// Structural verification of a block list mid-pipeline, before register
/// allocation fixes the register-file sizes. `n_iregs`/`n_fregs` bound
/// the register checks; pass `u16::MAX` when the files are not yet
/// allocated.
pub fn verify_blocks(
    pass: &str,
    func: &str,
    blocks: &[Block],
    params: &[FnParam],
    n_iregs: u16,
    n_fregs: u16,
) -> Result<(), CompileError> {
    let n_blocks = blocks.len() as u32;
    if n_blocks == 0 {
        return Err(err(pass, func, "function has no blocks".into()));
    }
    for (b, block) in blocks.iter().enumerate() {
        for (i, ins) in block.instrs.iter().enumerate() {
            let at =
                |what: String| err(pass, func, format!("block {b} instr {i} ({ins:?}): {what}"));
            // Register-file bounds (reads, then the def).
            let bad = std::cell::Cell::new(None::<(char, u16)>);
            reg_uses(
                ins,
                |r| {
                    if r >= n_iregs && bad.get().is_none() {
                        bad.set(Some(('i', r)));
                    }
                },
                |r| {
                    if r >= n_fregs && bad.get().is_none() {
                        bad.set(Some(('f', r)));
                    }
                },
            );
            if let Some((file, r)) = bad.get() {
                return Err(at(format!("reads {file}-register {r} out of range")));
            }
            if let Some((is_float, r)) = reg_def(ins) {
                let limit = if is_float { n_fregs } else { n_iregs };
                if r >= limit {
                    let file = if is_float { 'f' } else { 'i' };
                    return Err(at(format!("writes {file}-register {r} out of range")));
                }
            }
            // Operand kinds.
            match *ins {
                Instr::LoadF { buf, .. }
                | Instr::LoadI { buf, .. }
                | Instr::StoreF { buf, .. }
                | Instr::StoreI { buf, .. } => {
                    let Some(p) = params.get(buf as usize) else {
                        return Err(at(format!(
                            "buffer operand {buf} out of range ({} params)",
                            params.len()
                        )));
                    };
                    let ParamKind::Buffer { elem, .. } = p.kind else {
                        return Err(at(format!("buffer operand {buf} is a scalar param")));
                    };
                    let wants_float = matches!(ins, Instr::LoadF { .. } | Instr::StoreF { .. });
                    let is_float = elem == ScalarType::Float;
                    if wants_float != is_float {
                        return Err(at(format!(
                            "element class mismatch on buffer {buf} ({elem:?})"
                        )));
                    }
                }
                Instr::GlobalId { dim, .. } | Instr::GlobalSize { dim, .. } if dim >= 3 => {
                    return Err(at(format!("dimension {dim} out of range")));
                }
                _ => {}
            }
        }
        // Terminator: register bounds and target validity.
        let bad = std::cell::Cell::new(None::<(char, u16)>);
        term_uses(
            &block.term,
            |r| {
                if r >= n_iregs && bad.get().is_none() {
                    bad.set(Some(('i', r)));
                }
            },
            |r| {
                if r >= n_fregs && bad.get().is_none() {
                    bad.set(Some(('f', r)));
                }
            },
        );
        if let Some((file, r)) = bad.get() {
            return Err(err(
                pass,
                func,
                format!(
                    "block {b} terminator ({:?}): reads {file}-register {r} out of range",
                    block.term
                ),
            ));
        }
        for t in crate::analysis::term_targets(&block.term) {
            if t >= n_blocks {
                return Err(err(
                    pass,
                    func,
                    format!(
                        "block {b} terminator ({:?}): target {t} out of range ({n_blocks} blocks)",
                        block.term
                    ),
                ));
            }
        }
        // Histogram consistency.
        let mut fresh = block.clone();
        fresh.recompute_histo(params.len());
        if fresh.histo != block.histo {
            return Err(err(
                pass,
                func,
                format!(
                    "block {b}: stale histogram (cached {:?}, recounted {:?})",
                    block.histo, fresh.histo
                ),
            ));
        }
    }
    Ok(())
}

/// Full verification of a finished [`Function`]: structural checks
/// against the allocated register files, plus agreement between the
/// cached pre-decoded program and a fresh re-decode of the enum blocks.
pub fn verify_function(pass: &str, f: &Function) -> Result<(), CompileError> {
    verify_blocks(pass, &f.name, &f.blocks, &f.params, f.n_iregs, f.n_fregs)?;
    let dec = &f.decoded;
    let fresh = crate::opt::decode::decode(&f.blocks);
    if *dec != fresh {
        // Name the first differing op so the diagnostic is actionable.
        let detail = dec
            .ops
            .iter()
            .zip(fresh.ops.iter())
            .position(|(a, b)| a != b)
            .map(|i| {
                format!(
                    "first differing op at index {i}: cached {:?} vs re-decoded {:?}",
                    dec.ops[i], fresh.ops[i]
                )
            })
            .unwrap_or_else(|| "op arrays differ in length or spans differ".into());
        return Err(err(
            pass,
            &f.name,
            format!("pre-decoded program disagrees with re-decode: {detail}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::{OptLevel, RegAlloc};

    fn compiled(src: &str) -> Function {
        let tokens = crate::lexer::lex(src).expect("lex");
        let program = crate::parser::parse(&tokens).expect("parse");
        let ir = crate::sema::analyze(&program.kernels[0]).expect("sema");
        crate::bytecode::compile_with_modes(&ir, OptLevel::Full, RegAlloc::On).expect("bytecode")
    }

    const K: &str = "kernel void k(global float* o, global const float* a, int n) {\n\
                     int i = get_global_id(0);\n\
                     if (i < n) { o[i] = a[i] * 2.0f; }\n\
                     }";

    #[test]
    fn accepts_well_formed() {
        let f = compiled(K);
        verify_function("test", &f).expect("verifies");
    }

    #[test]
    fn rejects_decode_disagreement() {
        let mut f = compiled(K);
        let dec = &mut f.decoded;
        // Corrupt one pre-decoded register operand; the enum blocks stay
        // intact, so a re-decode must disagree.
        dec.ops[0].dst ^= 1;
        let e = verify_function("test", &f).expect_err("must reject");
        assert!(
            e.message.contains("disagrees with re-decode"),
            "{}",
            e.message
        );
    }
}
