//! Pre-decoding of bytecode blocks into a flat direct-threaded op array.
//!
//! The enum interpreter pays a two-level match per executed instruction
//! (variant, then inner op) and chases the per-block `Vec<Instr>`
//! layout. Decoding lowers the final blocks of every compiled function
//! once at compile time into one contiguous [`DecOp`] array — a fixed
//! struct-of-fields format with a flat [`OpCode`] and the register
//! numbers, immediates, and signedness pre-extracted — plus per-block
//! `(start, end)` spans into that array. The lane engine then steps over
//! one slice per block with a single one-level dispatch per op; the
//! scalar reference engine keeps walking the enum blocks.
//!
//! Terminators and step costs stay on the blocks (the lane engine needs
//! block ids for per-block counters and the SIMT rejoin stack); the
//! spans *are* the decoded jump targets: taking an edge to block `b`
//! continues at op offset `spans[b].0`.
//!
//! Decoding is semantics-preserving — fault order and every observable
//! value are exactly those of the enum blocks, which is what the
//! scalar-vs-lanes differential suite pins down.
//!
//! On top of the 1:1 re-encoding, a peephole pass fuses adjacent op
//! pairs into superinstructions ([`OpCode::FOp2`], [`OpCode::IOp2`],
//! [`OpCode::Load2F`], [`OpCode::LoadFOp`], [`OpCode::FOpStore`]): the
//! lane engine then makes *one* pass over the per-lane SoA arrays where
//! the unfused pair made two. Fusion is legal for any register aliasing
//! because every op only ever reads a lane's own elements: executing
//! both halves per lane in original order is bit-identical to executing
//! them as two full-width passes. Ops that can fault (loads, stores)
//! only fuse with the fault check kept in its original position, and
//! the faulting Div/Rem integer ops never fuse.

use crate::bytecode::{Block, CmpOp, FBinOp, IBinOp, Instr, MathFn1, MathFn2};

/// Flat opcode of a decoded op. Signedness lives in [`DecOp::unsigned`],
/// not in the opcode, so the table stays at one variant per `Instr`
/// operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::upper_case_acronyms)]
pub(crate) enum OpCode {
    ConstI,
    ConstF,
    MovI,
    MovF,
    IAdd,
    ISub,
    IMul,
    IDiv,
    IRem,
    IAnd,
    IOr,
    IXor,
    IShl,
    IShr,
    ImmAdd,
    ImmSub,
    ImmMul,
    ImmDiv,
    ImmRem,
    ImmAnd,
    ImmOr,
    ImmXor,
    ImmShl,
    ImmShr,
    FAdd,
    FSub,
    FMul,
    FDiv,
    ICmpLt,
    ICmpLe,
    ICmpGt,
    ICmpGe,
    ICmpEq,
    ICmpNe,
    FCmpLt,
    FCmpLe,
    FCmpGt,
    FCmpGe,
    FCmpEq,
    FCmpNe,
    NegI,
    NegF,
    NotI,
    BitNotI,
    CastIF,
    CastFI,
    CastII,
    Sqrt,
    Rsqrt,
    Exp,
    Log,
    Sin,
    Cos,
    Tan,
    Fabs,
    Floor,
    Ceil,
    Pow,
    Fmin,
    Fmax,
    Fmod,
    IMin,
    IMax,
    IAbs,
    LoadF,
    LoadI,
    StoreF,
    StoreI,
    GlobalId,
    GlobalSize,
    /// Fused pair of F-file compute ops (see [`DecOp`] fused layout).
    FOp2,
    /// Fused pair of non-faulting I-file binops.
    IOp2,
    /// Fused pair of float loads.
    Load2F,
    /// Float load fused with a following F-file compute op.
    LoadFOp,
    /// F-file compute op fused with a store of its result.
    FOpStore,
}

/// Micro-op codes for the compute halves of fused ops. The F table
/// covers binops (0–3), mov (4), the unary math ops (5–14), negate (15)
/// and a float constant (16, value in [`DecOp::fimm`]); the I table
/// covers the non-faulting add/sub/mul (0–2) with the unsigned flag
/// packed into bit 7. The encoder and the lane engine both use the
/// names, never the numbers.
pub(crate) const F_ADD: u8 = 0;
pub(crate) const F_SUB: u8 = 1;
pub(crate) const F_MUL: u8 = 2;
pub(crate) const F_DIV: u8 = 3;
pub(crate) const F_MOV: u8 = 4;
pub(crate) const F_SQRT: u8 = 5;
pub(crate) const F_RSQRT: u8 = 6;
pub(crate) const F_EXP: u8 = 7;
pub(crate) const F_LOG: u8 = 8;
pub(crate) const F_SIN: u8 = 9;
pub(crate) const F_COS: u8 = 10;
pub(crate) const F_TAN: u8 = 11;
pub(crate) const F_FABS: u8 = 12;
pub(crate) const F_FLOOR: u8 = 13;
pub(crate) const F_CEIL: u8 = 14;
pub(crate) const F_NEG: u8 = 15;
pub(crate) const F_CONST: u8 = 16;
pub(crate) const I_UNSIGNED: u8 = 0x80;

/// One decoded op. Operand conventions:
///
/// - binaries / compares: `dst`, `a`, `b`
/// - unaries / casts / movs: `dst`, `a`
/// - immediates: `dst`, `a`, `imm` (`fimm` for `ConstF`)
/// - loads: `dst`, `a` = index register, `b` = buffer param
/// - stores: `dst` = source register, `a` = index register, `b` = buffer
/// - `GlobalId` / `GlobalSize`: `dst`, `a` = dimension
///
/// Fused superinstructions use the extra fields; the first half always
/// executes before the second, per lane:
///
/// - `FOp2` / `IOp2`: first op `c = sub1(a, b)`, second `dst = sub2(d, e)`
///   (an operand equal to `c` reads the first op's fresh result)
/// - `Load2F`: `c = buf b[a]`, then `dst = buf e[d]`
/// - `LoadFOp`: `c = buf b[a]`, then `dst = sub2(d, e)`
/// - `FOpStore`: `dst = sub1(a, b)`, then `buf d[c] = dst`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DecOp {
    pub(crate) code: OpCode,
    pub(crate) dst: u16,
    pub(crate) a: u16,
    pub(crate) b: u16,
    pub(crate) c: u16,
    pub(crate) d: u16,
    pub(crate) e: u16,
    pub(crate) sub1: u8,
    pub(crate) sub2: u8,
    pub(crate) unsigned: bool,
    pub(crate) imm: i64,
    pub(crate) fimm: f64,
}

impl DecOp {
    fn new(code: OpCode) -> Self {
        DecOp {
            code,
            dst: 0,
            a: 0,
            b: 0,
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
}

/// The decoded form of a whole function: one flat op array plus
/// per-block spans (indexed by block id, mirroring `Function::blocks`;
/// terminators and step costs are read from the blocks themselves).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DecodedProgram {
    pub(crate) ops: Vec<DecOp>,
    /// Per block: `[start, end)` into [`DecodedProgram::ops`].
    pub(crate) spans: Vec<(u32, u32)>,
}

impl DecodedProgram {
    /// The decoded ops of block `b`.
    #[inline]
    pub(crate) fn block_ops(&self, b: usize) -> &[DecOp] {
        let (s, e) = self.spans[b];
        &self.ops[s as usize..e as usize]
    }
}

fn ibin_code(op: IBinOp) -> OpCode {
    match op {
        IBinOp::Add => OpCode::IAdd,
        IBinOp::Sub => OpCode::ISub,
        IBinOp::Mul => OpCode::IMul,
        IBinOp::Div => OpCode::IDiv,
        IBinOp::Rem => OpCode::IRem,
        IBinOp::And => OpCode::IAnd,
        IBinOp::Or => OpCode::IOr,
        IBinOp::Xor => OpCode::IXor,
        IBinOp::Shl => OpCode::IShl,
        IBinOp::Shr => OpCode::IShr,
    }
}

fn imm_code(op: IBinOp) -> OpCode {
    match op {
        IBinOp::Add => OpCode::ImmAdd,
        IBinOp::Sub => OpCode::ImmSub,
        IBinOp::Mul => OpCode::ImmMul,
        IBinOp::Div => OpCode::ImmDiv,
        IBinOp::Rem => OpCode::ImmRem,
        IBinOp::And => OpCode::ImmAnd,
        IBinOp::Or => OpCode::ImmOr,
        IBinOp::Xor => OpCode::ImmXor,
        IBinOp::Shl => OpCode::ImmShl,
        IBinOp::Shr => OpCode::ImmShr,
    }
}

fn fbin_code(op: FBinOp) -> OpCode {
    match op {
        FBinOp::Add => OpCode::FAdd,
        FBinOp::Sub => OpCode::FSub,
        FBinOp::Mul => OpCode::FMul,
        FBinOp::Div => OpCode::FDiv,
    }
}

fn icmp_code(op: CmpOp) -> OpCode {
    match op {
        CmpOp::Lt => OpCode::ICmpLt,
        CmpOp::Le => OpCode::ICmpLe,
        CmpOp::Gt => OpCode::ICmpGt,
        CmpOp::Ge => OpCode::ICmpGe,
        CmpOp::Eq => OpCode::ICmpEq,
        CmpOp::Ne => OpCode::ICmpNe,
    }
}

fn fcmp_code(op: CmpOp) -> OpCode {
    match op {
        CmpOp::Lt => OpCode::FCmpLt,
        CmpOp::Le => OpCode::FCmpLe,
        CmpOp::Gt => OpCode::FCmpGt,
        CmpOp::Ge => OpCode::FCmpGe,
        CmpOp::Eq => OpCode::FCmpEq,
        CmpOp::Ne => OpCode::FCmpNe,
    }
}

fn math1_code(f: MathFn1) -> OpCode {
    match f {
        MathFn1::Sqrt => OpCode::Sqrt,
        MathFn1::Rsqrt => OpCode::Rsqrt,
        MathFn1::Exp => OpCode::Exp,
        MathFn1::Log => OpCode::Log,
        MathFn1::Sin => OpCode::Sin,
        MathFn1::Cos => OpCode::Cos,
        MathFn1::Tan => OpCode::Tan,
        MathFn1::Fabs => OpCode::Fabs,
        MathFn1::Floor => OpCode::Floor,
        MathFn1::Ceil => OpCode::Ceil,
    }
}

fn math2_code(f: MathFn2) -> OpCode {
    match f {
        MathFn2::Pow => OpCode::Pow,
        MathFn2::Fmin => OpCode::Fmin,
        MathFn2::Fmax => OpCode::Fmax,
        MathFn2::Fmod => OpCode::Fmod,
    }
}

fn decode_instr(ins: &Instr) -> DecOp {
    use Instr::*;
    match *ins {
        ConstI { dst, v } => {
            let mut o = DecOp::new(OpCode::ConstI);
            o.dst = dst;
            o.imm = v;
            o
        }
        ConstF { dst, v } => {
            let mut o = DecOp::new(OpCode::ConstF);
            o.dst = dst;
            o.fimm = v;
            o
        }
        MovI { dst, src } => {
            let mut o = DecOp::new(OpCode::MovI);
            o.dst = dst;
            o.a = src;
            o
        }
        MovF { dst, src } => {
            let mut o = DecOp::new(OpCode::MovF);
            o.dst = dst;
            o.a = src;
            o
        }
        IBin {
            op,
            dst,
            a,
            b,
            unsigned,
        } => {
            let mut o = DecOp::new(ibin_code(op));
            o.dst = dst;
            o.a = a;
            o.b = b;
            o.unsigned = unsigned;
            o
        }
        IBinImm {
            op,
            dst,
            a,
            imm,
            unsigned,
        } => {
            let mut o = DecOp::new(imm_code(op));
            o.dst = dst;
            o.a = a;
            o.imm = imm;
            o.unsigned = unsigned;
            o
        }
        FBin { op, dst, a, b } => {
            let mut o = DecOp::new(fbin_code(op));
            o.dst = dst;
            o.a = a;
            o.b = b;
            o
        }
        CmpI { op, dst, a, b } => {
            let mut o = DecOp::new(icmp_code(op));
            o.dst = dst;
            o.a = a;
            o.b = b;
            o
        }
        CmpF { op, dst, a, b } => {
            let mut o = DecOp::new(fcmp_code(op));
            o.dst = dst;
            o.a = a;
            o.b = b;
            o
        }
        NegI { dst, a, unsigned } => {
            let mut o = DecOp::new(OpCode::NegI);
            o.dst = dst;
            o.a = a;
            o.unsigned = unsigned;
            o
        }
        NegF { dst, a } => {
            let mut o = DecOp::new(OpCode::NegF);
            o.dst = dst;
            o.a = a;
            o
        }
        NotI { dst, a } => {
            let mut o = DecOp::new(OpCode::NotI);
            o.dst = dst;
            o.a = a;
            o
        }
        BitNotI { dst, a, unsigned } => {
            let mut o = DecOp::new(OpCode::BitNotI);
            o.dst = dst;
            o.a = a;
            o.unsigned = unsigned;
            o
        }
        CastIF { dst, a } => {
            let mut o = DecOp::new(OpCode::CastIF);
            o.dst = dst;
            o.a = a;
            o
        }
        CastFI { dst, a, unsigned } => {
            let mut o = DecOp::new(OpCode::CastFI);
            o.dst = dst;
            o.a = a;
            o.unsigned = unsigned;
            o
        }
        CastII {
            dst,
            a,
            to_unsigned,
        } => {
            let mut o = DecOp::new(OpCode::CastII);
            o.dst = dst;
            o.a = a;
            o.unsigned = to_unsigned;
            o
        }
        Math1 { f, dst, a } => {
            let mut o = DecOp::new(math1_code(f));
            o.dst = dst;
            o.a = a;
            o
        }
        Math2 { f, dst, a, b } => {
            let mut o = DecOp::new(math2_code(f));
            o.dst = dst;
            o.a = a;
            o.b = b;
            o
        }
        IMin { dst, a, b } => {
            let mut o = DecOp::new(OpCode::IMin);
            o.dst = dst;
            o.a = a;
            o.b = b;
            o
        }
        IMax { dst, a, b } => {
            let mut o = DecOp::new(OpCode::IMax);
            o.dst = dst;
            o.a = a;
            o.b = b;
            o
        }
        IAbs { dst, a } => {
            let mut o = DecOp::new(OpCode::IAbs);
            o.dst = dst;
            o.a = a;
            o
        }
        LoadF { dst, buf, idx } => {
            let mut o = DecOp::new(OpCode::LoadF);
            o.dst = dst;
            o.a = idx;
            o.b = buf;
            o
        }
        LoadI { dst, buf, idx } => {
            let mut o = DecOp::new(OpCode::LoadI);
            o.dst = dst;
            o.a = idx;
            o.b = buf;
            o
        }
        StoreF { buf, idx, src } => {
            let mut o = DecOp::new(OpCode::StoreF);
            o.dst = src;
            o.a = idx;
            o.b = buf;
            o
        }
        StoreI { buf, idx, src } => {
            let mut o = DecOp::new(OpCode::StoreI);
            o.dst = src;
            o.a = idx;
            o.b = buf;
            o
        }
        GlobalId { dst, dim } => {
            let mut o = DecOp::new(OpCode::GlobalId);
            o.dst = dst;
            o.a = u16::from(dim);
            o
        }
        GlobalSize { dst, dim } => {
            let mut o = DecOp::new(OpCode::GlobalSize);
            o.dst = dst;
            o.a = u16::from(dim);
            o
        }
    }
}

/// Classify a decoded op as an F-file compute micro-op: returns
/// `(sub, x, y)` where `x`/`y` are the operand registers (unused ones
/// are 0 and never read for that micro-op).
fn f_micro(op: &DecOp) -> Option<(u8, u16, u16)> {
    use OpCode::*;
    let sub = match op.code {
        FAdd => F_ADD,
        FSub => F_SUB,
        FMul => F_MUL,
        FDiv => F_DIV,
        MovF => F_MOV,
        Sqrt => F_SQRT,
        Rsqrt => F_RSQRT,
        Exp => F_EXP,
        Log => F_LOG,
        Sin => F_SIN,
        Cos => F_COS,
        Tan => F_TAN,
        Fabs => F_FABS,
        Floor => F_FLOOR,
        Ceil => F_CEIL,
        NegF => F_NEG,
        ConstF => F_CONST,
        _ => return None,
    };
    Some((sub, op.a, op.b))
}

/// Classify a decoded op as a non-faulting I-file binop micro-op
/// (add/sub/mul only — Div/Rem can raise and must keep their own op).
fn i_micro(op: &DecOp) -> Option<(u8, u16, u16)> {
    use OpCode::*;
    let sub = match op.code {
        IAdd => 0,
        ISub => 1,
        IMul => 2,
        _ => return None,
    };
    Some((sub | if op.unsigned { I_UNSIGNED } else { 0 }, op.a, op.b))
}

/// Try to fuse two adjacent decoded ops into one superinstruction.
fn try_fuse(x: &DecOp, y: &DecOp) -> Option<DecOp> {
    use OpCode::*;
    // Two F-file compute ops. At most one side may carry the float
    // constant (there is a single `fimm` slot).
    if let (Some((s1, a, b)), Some((s2, d, e))) = (
        f_micro(x).filter(|_| x.code != ConstF || y.code != ConstF),
        f_micro(y),
    ) {
        let mut o = DecOp::new(FOp2);
        o.dst = y.dst;
        o.c = x.dst;
        o.a = a;
        o.b = b;
        o.d = d;
        o.e = e;
        o.sub1 = s1;
        o.sub2 = s2;
        o.fimm = if x.code == ConstF { x.fimm } else { y.fimm };
        return Some(o);
    }
    // Two non-faulting I-file binops.
    if let (Some((s1, a, b)), Some((s2, d, e))) = (i_micro(x), i_micro(y)) {
        let mut o = DecOp::new(IOp2);
        o.dst = y.dst;
        o.c = x.dst;
        o.a = a;
        o.b = b;
        o.d = d;
        o.e = e;
        o.sub1 = s1;
        o.sub2 = s2;
        return Some(o);
    }
    // Two float loads: one bounds pass, one gather pass. Distinct
    // destinations keep the single-pass loop free of aliasing cases.
    if x.code == LoadF && y.code == LoadF && x.dst != y.dst {
        let mut o = DecOp::new(Load2F);
        o.c = x.dst;
        o.a = x.a;
        o.b = x.b;
        o.dst = y.dst;
        o.d = y.a;
        o.e = y.b;
        return Some(o);
    }
    // Float load + F-file compute (a following constant gains nothing;
    // a distinct compute destination keeps the fused loop single-pass).
    if x.code == LoadF && y.code != ConstF && y.dst != x.dst {
        if let Some((s2, d, e)) = f_micro(y) {
            let mut o = DecOp::new(LoadFOp);
            o.c = x.dst;
            o.a = x.a;
            o.b = x.b;
            o.dst = y.dst;
            o.d = d;
            o.e = e;
            o.sub2 = s2;
            return Some(o);
        }
    }
    // F-file compute + store of its own result.
    if y.code == StoreF && y.dst == x.dst {
        if let Some((s1, a, b)) = f_micro(x) {
            let mut o = DecOp::new(FOpStore);
            o.dst = x.dst;
            o.a = a;
            o.b = b;
            o.sub1 = s1;
            o.c = y.a;
            o.d = y.b;
            o.fimm = x.fimm;
            return Some(o);
        }
    }
    None
}

/// Single greedy left-to-right peephole pass over one block's ops.
fn fuse_block(ops: Vec<DecOp>) -> Vec<DecOp> {
    let mut out = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        if i + 1 < ops.len() {
            if let Some(f) = try_fuse(&ops[i], &ops[i + 1]) {
                out.push(f);
                i += 2;
                continue;
            }
        }
        out.push(ops[i].clone());
        i += 1;
    }
    out
}

/// Lower blocks into the flat decoded form.
pub(crate) fn decode(blocks: &[Block]) -> DecodedProgram {
    let total = blocks.iter().map(|b| b.instrs.len()).sum();
    let mut ops = Vec::with_capacity(total);
    let mut spans = Vec::with_capacity(blocks.len());
    for b in blocks {
        let start = ops.len() as u32;
        ops.extend(fuse_block(b.instrs.iter().map(decode_instr).collect()));
        spans.push((start, ops.len() as u32));
    }
    DecodedProgram { ops, spans }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_cover_the_op_array_exactly() {
        let src = "kernel void k(global const float* a, global float* o, int n) {
            int i = get_global_id(0);
            float s = 0.0;
            for (int j = 0; j < i % 7; j++) { s += a[(i + j) % n]; }
            if (i < n) { o[i] = s; } else { o[i] = -s; }
        }";
        let prog = crate::parser::parse(&crate::lexer::lex(src).unwrap()).unwrap();
        let f = crate::bytecode::compile_with_modes(
            &crate::sema::analyze(&prog.kernels[0]).unwrap(),
            crate::opt::OptLevel::Full,
            crate::opt::RegAlloc::Off,
        )
        .unwrap();
        let dec = decode(&f.blocks);
        assert_eq!(dec.spans.len(), f.blocks.len());
        let mut next = 0u32;
        for (bi, &(s, e)) in dec.spans.iter().enumerate() {
            assert_eq!(s, next, "bb{bi} span must be contiguous");
            // Fusion may shrink a block, never grow or reorder it.
            assert!((e - s) as usize <= f.blocks[bi].instrs.len());
            next = e;
        }
        assert_eq!(next as usize, dec.ops.len());
    }

    #[test]
    fn fuses_streaming_load_compute_store_pairs() {
        // load; load; fadd; store -> Load2F; FOpStore.
        let block = [
            Instr::LoadF {
                dst: 0,
                buf: 0,
                idx: 2,
            },
            Instr::LoadF {
                dst: 1,
                buf: 1,
                idx: 2,
            },
            Instr::FBin {
                op: FBinOp::Add,
                dst: 0,
                a: 0,
                b: 1,
            },
            Instr::StoreF {
                buf: 2,
                idx: 2,
                src: 0,
            },
        ];
        let fused = fuse_block(block.iter().map(decode_instr).collect());
        assert_eq!(fused.len(), 2);
        assert_eq!(fused[0].code, OpCode::Load2F);
        assert_eq!((fused[0].c, fused[0].a, fused[0].b), (0, 2, 0));
        assert_eq!((fused[0].dst, fused[0].d, fused[0].e), (1, 2, 1));
        assert_eq!(fused[1].code, OpCode::FOpStore);
        assert_eq!(fused[1].sub1, F_ADD);
        assert_eq!((fused[1].dst, fused[1].a, fused[1].b), (0, 0, 1));
        assert_eq!((fused[1].c, fused[1].d), (2, 2));
    }

    #[test]
    fn fuses_compute_chains_but_never_faulting_int_ops() {
        let chain = [
            Instr::FBin {
                op: FBinOp::Mul,
                dst: 2,
                a: 0,
                b: 1,
            },
            Instr::FBin {
                op: FBinOp::Add,
                dst: 3,
                a: 2,
                b: 0,
            },
            Instr::IBin {
                op: IBinOp::Mul,
                dst: 4,
                a: 5,
                b: 6,
                unsigned: false,
            },
            Instr::IBin {
                op: IBinOp::Div,
                dst: 4,
                a: 4,
                b: 7,
                unsigned: false,
            },
        ];
        let fused = fuse_block(chain.iter().map(decode_instr).collect());
        // fmul+fadd fuse; the int mul cannot fuse with the faulting div.
        assert_eq!(fused.len(), 3);
        assert_eq!(fused[0].code, OpCode::FOp2);
        assert_eq!((fused[0].sub1, fused[0].sub2), (F_MUL, F_ADD));
        assert_eq!(fused[1].code, OpCode::IMul);
        assert_eq!(fused[2].code, OpCode::IDiv);
    }

    #[test]
    fn const_pairs_keep_their_single_fimm_slot() {
        // Two constants must not fuse (one fimm field).
        let two = [
            Instr::ConstF { dst: 0, v: 1.5 },
            Instr::ConstF { dst: 1, v: 2.5 },
        ];
        let fused = fuse_block(two.iter().map(decode_instr).collect());
        assert_eq!(fused.len(), 2);

        // const + fmul fuses with the constant on sub1.
        let pair = [
            Instr::ConstF { dst: 0, v: 0.5 },
            Instr::FBin {
                op: FBinOp::Mul,
                dst: 1,
                a: 0,
                b: 2,
            },
        ];
        let fused = fuse_block(pair.iter().map(decode_instr).collect());
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].code, OpCode::FOp2);
        assert_eq!((fused[0].sub1, fused[0].sub2), (F_CONST, F_MUL));
        assert_eq!(fused[0].fimm, 0.5);
    }

    #[test]
    fn operand_conventions_round_trip() {
        let ins = Instr::StoreF {
            buf: 3,
            idx: 7,
            src: 9,
        };
        let o = decode_instr(&ins);
        assert_eq!(o.code, OpCode::StoreF);
        assert_eq!((o.dst, o.a, o.b), (9, 7, 3));

        let ins = Instr::LoadI {
            dst: 4,
            buf: 2,
            idx: 6,
        };
        let o = decode_instr(&ins);
        assert_eq!(o.code, OpCode::LoadI);
        assert_eq!((o.dst, o.a, o.b), (4, 6, 2));

        let ins = Instr::IBinImm {
            op: IBinOp::Shr,
            dst: 1,
            a: 2,
            imm: 5,
            unsigned: true,
        };
        let o = decode_instr(&ins);
        assert_eq!(o.code, OpCode::ImmShr);
        assert!(o.unsigned);
        assert_eq!(o.imm, 5);
    }
}
