//! Integer signedness: how each I-register value extends past 32 bits.
//!
//! Every integer value the VM computes is a 32-bit pattern. The scalar
//! engine holds it in an `i64`, sign-extended for an `int` and
//! zero-extended for a `uint`; the lane engine holds only the 32-bit
//! pattern. Most integer ops read only the low 32 bits of their operands,
//! so they need not know the extension. The ops whose result depends on
//! it are the ordered compares (`CmpI`, an integer `BranchCmp`), `CastIF`,
//! `IMin`, `IMax`, `IAbs` and every buffer index. The bytecode carries no
//! signedness for them: it lives in the extension of the operand.
//!
//! This analysis recovers it statically, by a forward fixpoint over the
//! CFG of each I register's extension kind. The kinds come from:
//!
//! - the defining op's flag: `IBin`, `IBinImm`, `NegI` and `BitNotI`
//!   `unsigned`, `CastFI` `unsigned`, `CastII` `to_unsigned`; `IAbs` is
//!   signed;
//! - the declared type of a scalar parameter, or the element type of a
//!   `LoadI`'s buffer;
//! - "either" for values known to lie in `[0, 2^31)`, where both
//!   extensions agree: `CmpI`, `CmpF` and `NotI` results, `GlobalId` and
//!   `GlobalSize` (the VM refuses an NDRange with 2^31 or more items in a
//!   dimension), a `ConstI` in that range, and a register's initial zero;
//! - the source register's kind, for `MovI`, `IMin` and `IMax`.
//!
//! Register files persist from one work-item to the next, so each `Ret`
//! also flows into the entry block.
//!
//! Sema gives both operands of a compare, a min/max or a division one
//! common type, so in compiled code the kinds that reach any use agree.
//! A use whose kinds conflict — a register signed on one path and
//! unsigned on another, or two operands of different kinds — is rejected
//! with a [`Phase::Decode`](crate::error::Phase::Decode) error, as is a
//! `ConstI` or an immediate outside `[-2^31, 2^32)`, whose high bits no
//! 32-bit row could hold.

use crate::bytecode::{Block, CmpOp, FnParam, IBinOp, Instr, Terminator};
use crate::cfg::{reg_def, reg_uses, term_uses};
use crate::error::CompileError;
use crate::ir::{ParamKind, ScalarType};

/// Whether each op is decoded as unsigned, per block: one entry per
/// instruction and one for the terminator. An op that carries a
/// signedness flag gets its flag; an op whose result depends on its
/// operands' extension gets their kind, where a value in `[0, 2^31)`
/// reads as signed. Every other op reads `false`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signedness {
    /// Per block, per instruction.
    pub instrs: Vec<Vec<bool>>,
    /// Per block, for the terminator.
    pub terms: Vec<bool>,
}

/// A register's kind at a program point: the join of the kinds of every
/// definition that reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// No definition reaches (an unreachable block).
    Undef,
    /// In `[0, 2^31)`: both extensions agree.
    Either,
    Signed,
    Unsigned,
    /// Signed on one path and unsigned on another.
    Mixed,
}

impl Kind {
    fn flag(unsigned: bool) -> Self {
        if unsigned {
            Kind::Unsigned
        } else {
            Kind::Signed
        }
    }

    fn join(self, other: Self) -> Self {
        use Kind::*;
        match (self, other) {
            (Undef, k) | (k, Undef) => k,
            (Either, k) | (k, Either) => k,
            (a, b) if a == b => a,
            _ => Mixed,
        }
    }

    /// Whether an op reading this kind decodes as unsigned, or `None` on
    /// a conflict.
    fn unsigned(self) -> Option<bool> {
        match self {
            Kind::Undef | Kind::Either | Kind::Signed => Some(false),
            Kind::Unsigned => Some(true),
            Kind::Mixed => None,
        }
    }
}

/// The kind of a 32-bit constant as the scalar engine holds it, or an
/// error for a value outside `[-2^31, 2^32)`.
fn const_kind(v: i64) -> Result<Kind, String> {
    match v {
        0..=0x7fff_ffff => Ok(Kind::Either),
        -0x8000_0000..=-1 => Ok(Kind::Signed),
        0x8000_0000..=0xffff_ffff => Ok(Kind::Unsigned),
        _ => Err(format!("constant {v} does not fit in 32 bits")),
    }
}

/// Compute the extension of every integer op of `blocks` (see the module
/// docs), or fail on the first conflicting use.
pub fn analyze(blocks: &[Block], params: &[FnParam]) -> Result<Signedness, CompileError> {
    let n_regs = reg_count(blocks, params);
    // The entry state: a scalar parameter's declared kind, every other
    // register's initial zero; `Ret` states are joined in below.
    let mut entry = vec![Kind::Either; n_regs];
    for p in params {
        if let ParamKind::Scalar(t) = p.kind {
            match t {
                ScalarType::Int => entry[p.reg as usize] = Kind::Signed,
                ScalarType::UInt => entry[p.reg as usize] = Kind::Unsigned,
                ScalarType::Float | ScalarType::Bool => {}
            }
        }
    }
    let mut ins = vec![vec![Kind::Undef; n_regs]; blocks.len()];
    if let Some(first) = ins.first_mut() {
        first.clone_from(&entry);
    }
    // Round-robin to a fixpoint: the lattice has height three, so every
    // register's kind changes at most three times.
    let mut changed = !blocks.is_empty();
    while changed {
        changed = false;
        for (b, block) in blocks.iter().enumerate() {
            let mut st = ins[b].clone();
            for i in &block.instrs {
                transfer(i, &mut st, params).map_err(|m| err(b, m))?;
            }
            let succs: Vec<u32> = match block.term {
                Terminator::Ret => vec![0],
                ref t => super::term_targets(t).collect(),
            };
            for s in succs {
                let Some(dst) = ins.get_mut(s as usize) else {
                    return Err(err(b, format!("branch to missing block {s}")));
                };
                for (d, &k) in dst.iter_mut().zip(&st) {
                    let j = d.join(k);
                    if j != *d {
                        *d = j;
                        changed = true;
                    }
                }
            }
        }
    }
    // One last pass reads each op's operand kinds off the fixpoint.
    let mut out = Signedness {
        instrs: Vec::with_capacity(blocks.len()),
        terms: Vec::with_capacity(blocks.len()),
    };
    for (b, block) in blocks.iter().enumerate() {
        let mut st = ins[b].clone();
        let mut exts = Vec::with_capacity(block.instrs.len());
        for i in &block.instrs {
            exts.push(use_ext(i, &st).map_err(|m| err(b, m))?);
            transfer(i, &mut st, params).map_err(|m| err(b, m))?;
        }
        out.instrs.push(exts);
        let term = match block.term {
            Terminator::BranchCmp {
                float: false,
                a,
                b: y,
                op,
                ..
            } => operands(op_name(op), &st, a, y).map_err(|m| err(b, m))?,
            _ => false,
        };
        out.terms.push(term);
    }
    Ok(out)
}

fn err(block: usize, m: String) -> CompileError {
    CompileError::decode(format!("bb{block}: {m}"))
}

/// One past the highest I register any parameter, instruction or
/// terminator names.
fn reg_count(blocks: &[Block], params: &[FnParam]) -> usize {
    let mut n = 0;
    let mut see = |r: u16| n = n.max(usize::from(r) + 1);
    for p in params {
        if let ParamKind::Scalar(ScalarType::Int | ScalarType::UInt) = p.kind {
            see(p.reg);
        }
    }
    for b in blocks {
        for i in &b.instrs {
            reg_uses(i, &mut see, |_| {});
            if let Some((false, r)) = reg_def(i) {
                see(r);
            }
        }
        term_uses(&b.term, &mut see, |_| {});
    }
    n
}

fn op_name(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq | CmpOp::Ne => "equality compare",
        _ => "ordered compare",
    }
}

/// The one kind two operands of `what` agree on.
fn operands(what: &str, st: &[Kind], a: u16, b: u16) -> Result<bool, String> {
    let (x, y) = (st[a as usize], st[b as usize]);
    x.join(y)
        .unsigned()
        .ok_or_else(|| format!("{what} of i{a} ({x:?}) and i{b} ({y:?}) has no single signedness"))
}

/// The one kind operand `r` of `what` has.
fn operand(what: &str, st: &[Kind], r: u16) -> Result<bool, String> {
    let k = st[r as usize];
    k.unsigned().ok_or_else(|| {
        format!("{what} reads i{r}, which is signed on one path and unsigned on another")
    })
}

/// Require operand kind `k` of a `what` to match the op's own flag.
fn matches_flag(what: &str, k: Kind, unsigned: bool) -> Result<(), String> {
    match (k, unsigned) {
        (Kind::Undef | Kind::Either, _) | (Kind::Signed, false) | (Kind::Unsigned, true) => Ok(()),
        _ => Err(format!(
            "{what}{} reads an operand of kind {k:?}",
            if unsigned { ".u" } else { "" }
        )),
    }
}

/// Whether `i` decodes as unsigned, given the kinds `st` before it.
fn use_ext(i: &Instr, st: &[Kind]) -> Result<bool, String> {
    use Instr::*;
    Ok(match *i {
        // Division, remainder and the logical shift read their operands
        // past 32 bits on the scalar engine: the kinds must be the flag's.
        IBin {
            op, a, b, unsigned, ..
        } => {
            match op {
                IBinOp::Div | IBinOp::Rem => {
                    matches_flag("div/rem", st[a as usize].join(st[b as usize]), unsigned)?
                }
                IBinOp::Shr if unsigned => matches_flag("shr", st[a as usize], true)?,
                _ => {}
            }
            unsigned
        }
        IBinImm {
            op,
            a,
            imm,
            unsigned,
            ..
        } => {
            let k = const_kind(imm)?;
            match op {
                IBinOp::Div | IBinOp::Rem => {
                    matches_flag("div/rem", st[a as usize].join(k), unsigned)?
                }
                IBinOp::Shr if unsigned => matches_flag("shr", st[a as usize], true)?,
                _ => {}
            }
            unsigned
        }
        NegI { unsigned, .. } | BitNotI { unsigned, .. } | CastFI { unsigned, .. } => unsigned,
        CastII { to_unsigned, .. } => to_unsigned,
        CmpI { op, a, b, .. } => operands(op_name(op), st, a, b)?,
        IMin { a, b, .. } | IMax { a, b, .. } => operands("min/max", st, a, b)?,
        CastIF { a, .. } => operand("i2f", st, a)?,
        IAbs { a, .. } => operand("abs", st, a)?,
        LoadF { idx, .. } | LoadI { idx, .. } | StoreF { idx, .. } | StoreI { idx, .. } => {
            operand("buffer index", st, idx)?
        }
        ConstI { .. }
        | ConstF { .. }
        | MovI { .. }
        | MovF { .. }
        | FBin { .. }
        | CmpF { .. }
        | NegF { .. }
        | NotI { .. }
        | Math1 { .. }
        | Math2 { .. }
        | GlobalId { .. }
        | GlobalSize { .. } => false,
    })
}

/// Update the kinds `st` past `i`.
fn transfer(i: &Instr, st: &mut [Kind], params: &[FnParam]) -> Result<(), String> {
    use Instr::*;
    let (dst, k) = match *i {
        ConstI { dst, v } => (dst, const_kind(v)?),
        MovI { dst, src } => (dst, st[src as usize]),
        IBin { dst, unsigned, .. }
        | IBinImm { dst, unsigned, .. }
        | NegI { dst, unsigned, .. }
        | BitNotI { dst, unsigned, .. }
        | CastFI { dst, unsigned, .. } => (dst, Kind::flag(unsigned)),
        CastII {
            dst, to_unsigned, ..
        } => (dst, Kind::flag(to_unsigned)),
        CmpI { dst, .. }
        | CmpF { dst, .. }
        | NotI { dst, .. }
        | GlobalId { dst, .. }
        | GlobalSize { dst, .. } => (dst, Kind::Either),
        IMin { dst, a, b } | IMax { dst, a, b } => (dst, st[a as usize].join(st[b as usize])),
        IAbs { dst, .. } => (dst, Kind::Signed),
        LoadI { dst, buf, .. } => {
            let elem = params.get(buf as usize).map(|p| p.kind);
            let k = match elem {
                Some(ParamKind::Buffer {
                    elem: ScalarType::Int,
                    ..
                }) => Kind::Signed,
                Some(ParamKind::Buffer {
                    elem: ScalarType::UInt,
                    ..
                }) => Kind::Unsigned,
                _ => {
                    return Err(format!(
                        "integer load from parameter {buf}, not an integer buffer"
                    ))
                }
            };
            (dst, k)
        }
        ConstF { .. }
        | MovF { .. }
        | FBin { .. }
        | NegF { .. }
        | CastIF { .. }
        | Math1 { .. }
        | Math2 { .. }
        | LoadF { .. }
        | StoreF { .. }
        | StoreI { .. } => return Ok(()),
    };
    st[dst as usize] = k;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{OpHistogram, N_OP_CLASSES};
    use crate::error::Phase;

    fn block(instrs: Vec<Instr>, term: Terminator, n_params: usize) -> Block {
        let mut b = Block {
            instrs,
            term,
            histo: OpHistogram {
                classes: [0; N_OP_CLASSES],
                buf_reads: vec![],
                buf_writes: vec![],
            },
        };
        b.recompute_histo(n_params);
        b
    }

    /// `int n` in i0, a `uint` buffer in parameter 1.
    fn params() -> Vec<FnParam> {
        vec![
            FnParam {
                kind: ParamKind::Scalar(ScalarType::Int),
                reg: 0,
            },
            FnParam {
                kind: ParamKind::Buffer {
                    elem: ScalarType::UInt,
                    is_const: true,
                },
                reg: 0,
            },
        ]
    }

    /// bb0 branches on `gid < n`; bb1 sets i3 from `then`, bb2 from
    /// `els`, and bb3 runs `tail` where both meet.
    fn diamond(then: Instr, els: Instr, tail: Vec<Instr>) -> Vec<Block> {
        use Instr::*;
        vec![
            block(
                vec![GlobalId { dst: 1, dim: 0 }],
                Terminator::BranchCmp {
                    op: CmpOp::Lt,
                    float: false,
                    a: 1,
                    b: 0,
                    then: 1,
                    els: 2,
                },
                2,
            ),
            block(vec![then], Terminator::Jump(3), 2),
            block(vec![els], Terminator::Jump(3), 2),
            block(tail, Terminator::Ret, 2),
        ]
    }

    fn decode_err(blocks: &[Block]) -> CompileError {
        let e = crate::opt::decode::decode(blocks, &params()).expect_err("must reject");
        assert_eq!(e.phase, Phase::Decode, "{e}");
        e
    }

    #[test]
    fn a_register_signed_on_one_path_and_unsigned_on_another_is_rejected() {
        use Instr::*;
        let signed = ConstI { dst: 3, v: -5 };
        let unsigned = LoadI {
            dst: 3,
            buf: 1,
            idx: 1,
        };
        let cmp = CmpI {
            op: CmpOp::Lt,
            dst: 4,
            a: 3,
            b: 1,
        };
        let e = decode_err(&diamond(signed.clone(), unsigned.clone(), vec![cmp]));
        assert!(e.message.contains("bb3") && e.message.contains("i3"), "{e}");
        // Every other op that reads past 32 bits rejects it too.
        for tail in [
            CastIF { dst: 0, a: 3 },
            IMin { dst: 4, a: 3, b: 1 },
            IAbs { dst: 4, a: 3 },
            LoadI {
                dst: 4,
                buf: 1,
                idx: 3,
            },
        ] {
            decode_err(&diamond(signed.clone(), unsigned.clone(), vec![tail]));
        }
        // A fused compare-and-branch as well.
        let mut blocks = diamond(signed.clone(), unsigned.clone(), vec![]);
        blocks[3].term = Terminator::BranchCmp {
            op: CmpOp::Ge,
            float: false,
            a: 3,
            b: 0,
            then: 3,
            els: 3,
        };
        decode_err(&blocks);
        // Ops that read only the 32-bit pattern do not care.
        let add = IBin {
            op: IBinOp::Add,
            dst: 4,
            a: 3,
            b: 3,
            unsigned: false,
        };
        let ok = diamond(signed, unsigned, vec![add]);
        assert!(crate::opt::decode::decode(&ok, &params()).is_ok());
    }

    #[test]
    fn operands_of_different_signedness_are_rejected() {
        use Instr::*;
        let load = LoadI {
            dst: 3,
            buf: 1,
            idx: 1,
        };
        let tails = [
            // `int n` against a `uint`.
            CmpI {
                op: CmpOp::Eq,
                dst: 4,
                a: 0,
                b: 3,
            },
            IMax { dst: 4, a: 3, b: 0 },
            // A signed division of a `uint`, and a logical shift of an `int`.
            IBin {
                op: IBinOp::Div,
                dst: 4,
                a: 3,
                b: 1,
                unsigned: false,
            },
            IBinImm {
                op: IBinOp::Shr,
                dst: 4,
                a: 0,
                imm: 3,
                unsigned: true,
            },
            IBinImm {
                op: IBinOp::Rem,
                dst: 4,
                a: 3,
                imm: -1,
                unsigned: true,
            },
        ];
        for tail in tails {
            decode_err(&diamond(load.clone(), load.clone(), vec![tail]));
        }
    }

    #[test]
    fn constants_outside_32_bits_are_rejected() {
        use Instr::*;
        let nop = MovI { dst: 2, src: 2 };
        for v in [1 << 32, -(1 << 31) - 1, i64::MIN] {
            let e = decode_err(&diamond(ConstI { dst: 3, v }, nop.clone(), vec![]));
            assert!(e.message.contains("32 bits"), "{e}");
        }
        let imm = IBinImm {
            op: IBinOp::Add,
            dst: 3,
            a: 1,
            imm: 1 << 40,
            unsigned: false,
        };
        decode_err(&diamond(imm, nop, vec![]));
    }

    #[test]
    fn kinds_flow_through_moves_loops_and_returns() {
        use Instr::*;
        // A `uint` moved into i3 on both paths, then compared: unsigned.
        let mov = MovI { dst: 3, src: 2 };
        let mut blocks = diamond(mov.clone(), mov, vec![]);
        blocks[0].instrs.push(LoadI {
            dst: 2,
            buf: 1,
            idx: 1,
        });
        blocks[3].instrs.push(CmpI {
            op: CmpOp::Lt,
            dst: 4,
            a: 3,
            b: 1,
        });
        let s = analyze(&blocks, &params()).expect("one kind");
        assert!(s.instrs[3][0]);
        // The entry's `gid < n` compares as signed.
        assert!(!s.terms[0]);
        // i3 persists into the next work-item, where bb0 reads it as a
        // signed operand: the `uint` from the previous item conflicts.
        blocks[0].instrs.insert(0, IMin { dst: 5, a: 3, b: 0 });
        decode_err(&blocks);
    }
}
