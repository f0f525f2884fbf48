//! Lowering from the typed IR to register bytecode.
//!
//! The VM executes straight-line basic blocks of register instructions
//! with explicit terminators. Each block carries a statically computed
//! operation histogram, so exact dynamic operation counts cost one counter
//! increment per block execution (see [`crate::vm`]).
//!
//! Registers live in two files: `I` registers hold `i64` (all integer and
//! boolean values, canonically sign- or zero-extended 32-bit), `F`
//! registers hold `f64`. Local variables get dedicated registers;
//! expression temporaries are allocated above a per-statement watermark
//! and recycled.

use crate::ast::{BinOp, UnOp};
use crate::builtins::Builtin;
use crate::error::CompileError;
use crate::ir::{Expr, ExprKind, Kernel, ParamKind, ScalarType, Stmt, VarId};

/// Dynamic operation classes tracked by the per-block histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Integer ALU operations.
    IntOp = 0,
    /// Floating-point ALU operations (including conversions).
    FloatOp = 1,
    /// Transcendental / special-function operations.
    Transcendental = 2,
    /// Comparisons.
    Cmp = 3,
    /// Buffer loads.
    Load = 4,
    /// Buffer stores.
    Store = 5,
    /// Conditional branches.
    Branch = 6,
    /// Register moves, constants, id queries.
    Other = 7,
}

/// Number of [`OpClass`] values.
pub const N_OP_CLASSES: usize = 8;

/// Human-readable op-class names aligned with the histogram layout.
pub const OP_CLASS_NAMES: [&str; N_OP_CLASSES] = [
    "int",
    "float",
    "transcendental",
    "cmp",
    "load",
    "store",
    "branch",
    "other",
];

/// Integer binary ALU operations (wrap to 32 bits per `unsigned`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

/// Float binary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FBinOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Comparison predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// Unary float math intrinsics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MathFn1 {
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
}

/// Binary float math intrinsics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MathFn2 {
    Pow,
    Fmin,
    Fmax,
    Fmod,
}

/// One bytecode instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    ConstI {
        dst: u16,
        v: i64,
    },
    ConstF {
        dst: u16,
        v: f64,
    },
    MovI {
        dst: u16,
        src: u16,
    },
    MovF {
        dst: u16,
        src: u16,
    },
    IBin {
        op: IBinOp,
        dst: u16,
        a: u16,
        b: u16,
        unsigned: bool,
    },
    /// Fused `const + op` immediate form: `dst = a <op> imm`. Produced by
    /// the optimizer's superinstruction fusion; codegen never emits it.
    /// `imm` is already canonical 32-bit.
    IBinImm {
        op: IBinOp,
        dst: u16,
        a: u16,
        imm: i64,
        unsigned: bool,
    },
    FBin {
        op: FBinOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    CmpI {
        op: CmpOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    CmpF {
        op: CmpOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    /// Arithmetic negation (wraps like C).
    NegI {
        dst: u16,
        a: u16,
        unsigned: bool,
    },
    NegF {
        dst: u16,
        a: u16,
    },
    /// Logical not: `dst = (a == 0)`.
    NotI {
        dst: u16,
        a: u16,
    },
    BitNotI {
        dst: u16,
        a: u16,
        unsigned: bool,
    },
    /// int → float.
    CastIF {
        dst: u16,
        a: u16,
    },
    /// float → int/uint (saturating, like Rust `as`).
    CastFI {
        dst: u16,
        a: u16,
        unsigned: bool,
    },
    /// Reinterpret between int and uint 32-bit canonical forms.
    CastII {
        dst: u16,
        a: u16,
        to_unsigned: bool,
    },
    Math1 {
        f: MathFn1,
        dst: u16,
        a: u16,
    },
    Math2 {
        f: MathFn2,
        dst: u16,
        a: u16,
        b: u16,
    },
    IMin {
        dst: u16,
        a: u16,
        b: u16,
    },
    IMax {
        dst: u16,
        a: u16,
        b: u16,
    },
    IAbs {
        dst: u16,
        a: u16,
    },
    /// Load from a float buffer into an F register.
    LoadF {
        dst: u16,
        buf: u16,
        idx: u16,
    },
    /// Load from an int/uint buffer into an I register (extension per the
    /// buffer's element type).
    LoadI {
        dst: u16,
        buf: u16,
        idx: u16,
    },
    StoreF {
        buf: u16,
        idx: u16,
        src: u16,
    },
    StoreI {
        buf: u16,
        idx: u16,
        src: u16,
    },
    GlobalId {
        dst: u16,
        dim: u8,
    },
    GlobalSize {
        dst: u16,
        dim: u8,
    },
}

impl Instr {
    /// The histogram class of this instruction.
    pub fn class(&self) -> OpClass {
        use Instr::*;
        match self {
            ConstI { .. }
            | ConstF { .. }
            | MovI { .. }
            | MovF { .. }
            | GlobalId { .. }
            | GlobalSize { .. } => OpClass::Other,
            IBin { .. }
            | IBinImm { .. }
            | NegI { .. }
            | NotI { .. }
            | BitNotI { .. }
            | IMin { .. }
            | IMax { .. }
            | IAbs { .. }
            | CastII { .. } => OpClass::IntOp,
            FBin { .. } | NegF { .. } | CastIF { .. } | CastFI { .. } => OpClass::FloatOp,
            Math1 { f, .. } => match f {
                MathFn1::Fabs | MathFn1::Floor | MathFn1::Ceil => OpClass::FloatOp,
                _ => OpClass::Transcendental,
            },
            Math2 { f, .. } => match f {
                MathFn2::Fmin | MathFn2::Fmax | MathFn2::Fmod => OpClass::FloatOp,
                MathFn2::Pow => OpClass::Transcendental,
            },
            CmpI { .. } | CmpF { .. } => OpClass::Cmp,
            LoadF { .. } | LoadI { .. } => OpClass::Load,
            StoreF { .. } | StoreI { .. } => OpClass::Store,
        }
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    Jump(u32),
    Branch {
        cond: u16,
        then: u32,
        els: u32,
    },
    /// Fused `cmp + branch`: branch on `a <op> b` without materializing
    /// the boolean in a register. Produced by the optimizer when the
    /// compare feeding a branch is otherwise dead; codegen never emits it.
    BranchCmp {
        op: CmpOp,
        /// Operands live in the F register file (a [`Instr::CmpF`] was
        /// fused) rather than the I file.
        float: bool,
        a: u16,
        b: u16,
        then: u32,
        els: u32,
    },
    Ret,
}

/// Static operation histogram of one basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpHistogram {
    /// Counts per [`OpClass`].
    pub classes: [u32; N_OP_CLASSES],
    /// Load element counts per kernel parameter.
    pub buf_reads: Vec<u32>,
    /// Store element counts per kernel parameter.
    pub buf_writes: Vec<u32>,
}

/// One basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub instrs: Vec<Instr>,
    pub term: Terminator,
    pub histo: OpHistogram,
}

impl Block {
    /// Step-budget cost of one execution of this block: its instructions
    /// plus the terminator. Both VM engines charge exactly this amount per
    /// block execution, which is what makes their per-item instruction
    /// statistics comparable bit for bit.
    pub fn step_cost(&self) -> u64 {
        self.instrs.len() as u64 + 1
    }

    /// Rebuild [`Block::histo`] from the current instruction list and
    /// terminator. Codegen and every optimizer pass go through this one
    /// function, so the per-block counts that the VM's dynamic statistics
    /// rely on can never drift from the instructions actually executed.
    pub fn recompute_histo(&mut self, n_params: usize) {
        let mut classes = [0u32; N_OP_CLASSES];
        let mut buf_reads = vec![0u32; n_params];
        let mut buf_writes = vec![0u32; n_params];
        for i in &self.instrs {
            classes[i.class() as usize] += 1;
            match i {
                Instr::LoadF { buf, .. } | Instr::LoadI { buf, .. } => {
                    buf_reads[*buf as usize] += 1
                }
                Instr::StoreF { buf, .. } | Instr::StoreI { buf, .. } => {
                    buf_writes[*buf as usize] += 1
                }
                _ => {}
            }
        }
        match self.term {
            Terminator::Branch { .. } => classes[OpClass::Branch as usize] += 1,
            // The fused form still performs both the comparison and the
            // branch, so dynamic operation counts are invariant under
            // cmp+branch fusion.
            Terminator::BranchCmp { .. } => {
                classes[OpClass::Branch as usize] += 1;
                classes[OpClass::Cmp as usize] += 1;
            }
            Terminator::Jump(_) | Terminator::Ret => {}
        }
        self.histo = OpHistogram {
            classes,
            buf_reads,
            buf_writes,
        };
    }
}

/// Kernel parameter metadata the VM needs to validate and bind arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnParam {
    pub kind: ParamKind,
    /// For scalar params: the dedicated register holding the value.
    pub reg: u16,
}

/// A compiled kernel function.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    pub name: String,
    pub params: Vec<FnParam>,
    pub blocks: Vec<Block>,
    pub n_iregs: u16,
    pub n_fregs: u16,
    /// CFG analyses computed once at compile time. The lane engine's SIMT
    /// reconvergence consumes the immediate post-dominators; the
    /// successor/predecessor graphs, per-block live-in registers and
    /// reverse post-order are exposed for further analyses.
    pub cfg: crate::cfg::CfgInfo,
    /// Pre-decoded direct-threaded form of `blocks` (flat op array with
    /// pre-resolved registers, immediates, fused superinstructions, and
    /// per-block spans), built once at the end of compilation for every
    /// opt level and register-allocation mode. The lane engine walks it;
    /// the scalar engine walks the enum `blocks`. Always semantically
    /// identical to `blocks`.
    pub(crate) decoded: crate::opt::decode::DecodedProgram,
}

impl Function {
    /// Total static instruction count across all blocks.
    pub fn num_instrs(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len() + 1).sum()
    }
}

/// Compile a type-checked kernel to bytecode at the optimization level
/// and register-allocation mode selected by the environment
/// (`INSPIRE_OPT=0` disables the optimizer, `INSPIRE_REGALLOC=0` the
/// linear-scan register allocator).
pub fn compile(k: &Kernel) -> Result<Function, CompileError> {
    compile_with_modes(
        k,
        crate::opt::OptLevel::from_env(),
        crate::opt::RegAlloc::from_env(),
    )
}

/// Compile a type-checked kernel to bytecode at an explicit optimization
/// level. [`OptLevel::None`](crate::opt::OptLevel::None) yields the naive
/// per-statement codegen output untouched — the reference the differential
/// suite compares optimized execution against. Register allocation
/// follows the environment (`INSPIRE_REGALLOC=0` disables it).
pub fn compile_with_opt(k: &Kernel, level: crate::opt::OptLevel) -> Result<Function, CompileError> {
    compile_with_modes(k, level, crate::opt::RegAlloc::from_env())
}

/// Compile a type-checked kernel to bytecode at an explicit optimization
/// level and register-allocation mode. Liveness-driven register
/// allocation runs only when the optimizer is enabled *and* `regalloc` is
/// [`RegAlloc::On`]; at [`OptLevel::None`] the naive codegen output is
/// always left untouched. Every mode ends by pre-decoding the final
/// blocks for the lane engine.
///
/// [`RegAlloc::On`]: crate::opt::RegAlloc::On
/// [`OptLevel::None`]: crate::opt::OptLevel::None
pub fn compile_with_modes(
    k: &Kernel,
    level: crate::opt::OptLevel,
    regalloc: crate::opt::RegAlloc,
) -> Result<Function, CompileError> {
    let mut c = Compiler::new(k)?;
    for s in &k.body {
        c.stmt(s)?;
    }
    c.terminate(Terminator::Ret);
    c.finish(k, level, regalloc)
}

const MAX_REGS: u32 = u16::MAX as u32;

struct BlockBuilder {
    instrs: Vec<Instr>,
    term: Option<Terminator>,
}

struct Compiler<'a> {
    k: &'a Kernel,
    blocks: Vec<BlockBuilder>,
    current: usize,
    /// Per-variable dedicated register.
    var_regs: Vec<u16>,
    params: Vec<FnParam>,
    next_i: u32,
    next_f: u32,
    max_i: u32,
    max_f: u32,
    /// (break_target, continue_target) stack.
    loop_stack: Vec<(u32, u32)>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Reg {
    I(u16),
    F(u16),
}

impl Reg {
    /// The I-file register number. A class mismatch here means sema let a
    /// float value reach an integer position — surfaced as a typed
    /// [`CompileError`] so a codegen bug fails the compile instead of
    /// aborting the process (and with it a whole rayon sweep worker).
    fn i(self) -> Result<u16, CompileError> {
        match self {
            Reg::I(r) => Ok(r),
            Reg::F(r) => Err(CompileError::codegen(format!(
                "register class mismatch: expected I register, found f{r}"
            ))),
        }
    }
    /// The F-file register number (see [`Reg::i`]).
    fn f(self) -> Result<u16, CompileError> {
        match self {
            Reg::F(r) => Ok(r),
            Reg::I(r) => Err(CompileError::codegen(format!(
                "register class mismatch: expected F register, found i{r}"
            ))),
        }
    }
}

fn is_float(t: ScalarType) -> bool {
    t == ScalarType::Float
}

impl<'a> Compiler<'a> {
    fn new(k: &'a Kernel) -> Result<Self, CompileError> {
        let mut next_i = 0u32;
        let mut next_f = 0u32;
        // Dedicated registers for scalar parameters.
        let params = k
            .params
            .iter()
            .map(|p| {
                let reg = match p.kind {
                    ParamKind::Scalar(t) if is_float(t) => {
                        let r = next_f;
                        next_f += 1;
                        r as u16
                    }
                    ParamKind::Scalar(_) => {
                        let r = next_i;
                        next_i += 1;
                        r as u16
                    }
                    ParamKind::Buffer { .. } => 0,
                };
                FnParam { kind: p.kind, reg }
            })
            .collect();
        // Dedicated registers for variables.
        let var_regs = k
            .var_types
            .iter()
            .map(|&t| {
                if is_float(t) {
                    let r = next_f;
                    next_f += 1;
                    r as u16
                } else {
                    let r = next_i;
                    next_i += 1;
                    r as u16
                }
            })
            .collect();
        if next_i > MAX_REGS || next_f > MAX_REGS {
            return Err(CompileError::codegen("too many variables"));
        }
        Ok(Self {
            k,
            blocks: vec![BlockBuilder {
                instrs: Vec::new(),
                term: None,
            }],
            current: 0,
            var_regs,
            params,
            max_i: next_i,
            max_f: next_f,
            next_i,
            next_f,
            loop_stack: Vec::new(),
        })
    }

    fn emit(&mut self, i: Instr) {
        let b = &mut self.blocks[self.current];
        if b.term.is_none() {
            b.instrs.push(i);
        }
        // Instructions after a terminator are unreachable; drop them.
    }

    fn new_block(&mut self) -> u32 {
        self.blocks.push(BlockBuilder {
            instrs: Vec::new(),
            term: None,
        });
        (self.blocks.len() - 1) as u32
    }

    fn switch_to(&mut self, b: u32) {
        self.current = b as usize;
    }

    fn terminate(&mut self, t: Terminator) {
        let b = &mut self.blocks[self.current];
        if b.term.is_none() {
            b.term = Some(t);
        }
    }

    fn temp_i(&mut self) -> Result<u16, CompileError> {
        let r = self.next_i;
        self.next_i += 1;
        self.max_i = self.max_i.max(self.next_i);
        if r >= MAX_REGS {
            return Err(CompileError::codegen(
                "expression too complex (I registers)",
            ));
        }
        Ok(r as u16)
    }

    fn temp_f(&mut self) -> Result<u16, CompileError> {
        let r = self.next_f;
        self.next_f += 1;
        self.max_f = self.max_f.max(self.next_f);
        if r >= MAX_REGS {
            return Err(CompileError::codegen(
                "expression too complex (F registers)",
            ));
        }
        Ok(r as u16)
    }

    fn temp(&mut self, t: ScalarType) -> Result<Reg, CompileError> {
        if is_float(t) {
            Ok(Reg::F(self.temp_f()?))
        } else {
            Ok(Reg::I(self.temp_i()?))
        }
    }

    /// Save/restore the temp watermarks around a statement.
    fn with_temp_scope<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        let (si, sf) = (self.next_i, self.next_f);
        let r = f(self);
        self.next_i = si;
        self.next_f = sf;
        r
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Decl { var, init } | Stmt::AssignVar { var, value: init } => self
                .with_temp_scope(|c| {
                    let v = c.expr(init)?;
                    c.store_var(*var, v);
                    Ok(())
                }),
            Stmt::Store { buf, index, value } => self.with_temp_scope(|c| {
                let idx = c.expr(index)?.i()?;
                let val = c.expr(value)?;
                let b = buf.0 as u16;
                match val {
                    Reg::F(r) => c.emit(Instr::StoreF {
                        buf: b,
                        idx,
                        src: r,
                    }),
                    Reg::I(r) => c.emit(Instr::StoreI {
                        buf: b,
                        idx,
                        src: r,
                    }),
                }
                Ok(())
            }),
            Stmt::If { cond, then, els } => {
                let cond_reg = self.with_temp_scope(|c| {
                    // The condition temp must survive until the branch, so
                    // materialize it into a fresh temp *outside* the scope
                    // of subexpression temps. Since the branch consumes it
                    // immediately at the end of this block, reuse is safe.
                    c.expr(cond)?.i()
                })?;
                let then_bb = self.new_block();
                let els_bb = self.new_block();
                let join_bb = self.new_block();
                self.terminate(Terminator::Branch {
                    cond: cond_reg,
                    then: then_bb,
                    els: els_bb,
                });
                self.switch_to(then_bb);
                for s in then {
                    self.stmt(s)?;
                }
                self.terminate(Terminator::Jump(join_bb));
                self.switch_to(els_bb);
                for s in els {
                    self.stmt(s)?;
                }
                self.terminate(Terminator::Jump(join_bb));
                self.switch_to(join_bb);
                Ok(())
            }
            Stmt::While { cond, body } => {
                let head = self.new_block();
                let body_bb = self.new_block();
                let exit = self.new_block();
                self.terminate(Terminator::Jump(head));
                self.switch_to(head);
                let cond_reg = self.with_temp_scope(|c| c.expr(cond)?.i())?;
                self.terminate(Terminator::Branch {
                    cond: cond_reg,
                    then: body_bb,
                    els: exit,
                });
                self.switch_to(body_bb);
                self.loop_stack.push((exit, head));
                for s in body {
                    self.stmt(s)?;
                }
                self.loop_stack.pop();
                self.terminate(Terminator::Jump(head));
                self.switch_to(exit);
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let head = self.new_block();
                let body_bb = self.new_block();
                let step_bb = self.new_block();
                let exit = self.new_block();
                self.terminate(Terminator::Jump(head));
                self.switch_to(head);
                match cond {
                    Some(c) => {
                        let r = self.with_temp_scope(|cc| cc.expr(c)?.i())?;
                        self.terminate(Terminator::Branch {
                            cond: r,
                            then: body_bb,
                            els: exit,
                        });
                    }
                    None => self.terminate(Terminator::Jump(body_bb)),
                }
                self.switch_to(body_bb);
                self.loop_stack.push((exit, step_bb));
                for s in body {
                    self.stmt(s)?;
                }
                self.loop_stack.pop();
                self.terminate(Terminator::Jump(step_bb));
                self.switch_to(step_bb);
                if let Some(st) = step {
                    self.stmt(st)?;
                }
                self.terminate(Terminator::Jump(head));
                self.switch_to(exit);
                Ok(())
            }
            Stmt::Break => {
                let Some(&(exit, _)) = self.loop_stack.last() else {
                    return Err(CompileError::codegen("break outside loop"));
                };
                self.terminate(Terminator::Jump(exit));
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
            Stmt::Continue => {
                let Some(&(_, cont)) = self.loop_stack.last() else {
                    return Err(CompileError::codegen("continue outside loop"));
                };
                self.terminate(Terminator::Jump(cont));
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
            Stmt::Return => {
                self.terminate(Terminator::Ret);
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
            Stmt::Block(body) => {
                for s in body {
                    self.stmt(s)?;
                }
                Ok(())
            }
        }
    }

    fn store_var(&mut self, var: VarId, value: Reg) {
        let dst = self.var_regs[var.0 as usize];
        match value {
            Reg::F(src) => self.emit(Instr::MovF { dst, src }),
            Reg::I(src) => self.emit(Instr::MovI { dst, src }),
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<Reg, CompileError> {
        match &e.kind {
            ExprKind::IntConst(v) => {
                let dst = self.temp_i()?;
                // Canonicalize the constant per the node type.
                let v = if e.ty == ScalarType::UInt {
                    i64::from(*v as u32)
                } else {
                    i64::from(*v as i32)
                };
                self.emit(Instr::ConstI { dst, v });
                Ok(Reg::I(dst))
            }
            ExprKind::FloatConst(v) => {
                let dst = self.temp_f()?;
                self.emit(Instr::ConstF { dst, v: *v });
                Ok(Reg::F(dst))
            }
            ExprKind::BoolConst(b) => {
                let dst = self.temp_i()?;
                self.emit(Instr::ConstI {
                    dst,
                    v: i64::from(*b),
                });
                Ok(Reg::I(dst))
            }
            ExprKind::Var(v) => {
                let r = self.var_regs[v.0 as usize];
                Ok(if is_float(self.k.var_types[v.0 as usize]) {
                    Reg::F(r)
                } else {
                    Reg::I(r)
                })
            }
            ExprKind::Param(p) => {
                let fp = self.params[p.0 as usize];
                let ParamKind::Scalar(t) = fp.kind else {
                    return Err(CompileError::codegen("buffer parameter used as scalar"));
                };
                Ok(if is_float(t) {
                    Reg::F(fp.reg)
                } else {
                    Reg::I(fp.reg)
                })
            }
            ExprKind::GlobalId(d) => {
                let dst = self.temp_i()?;
                self.emit(Instr::GlobalId { dst, dim: *d });
                Ok(Reg::I(dst))
            }
            ExprKind::GlobalSize(d) => {
                let dst = self.temp_i()?;
                self.emit(Instr::GlobalSize { dst, dim: *d });
                Ok(Reg::I(dst))
            }
            ExprKind::Binary { op, lhs, rhs } => self.binary(*op, lhs, rhs, e.ty),
            ExprKind::Unary { op, operand } => {
                let o = self.expr(operand)?;
                match (op, o) {
                    (UnOp::Neg, Reg::F(a)) => {
                        let dst = self.temp_f()?;
                        self.emit(Instr::NegF { dst, a });
                        Ok(Reg::F(dst))
                    }
                    (UnOp::Neg, Reg::I(a)) => {
                        let dst = self.temp_i()?;
                        self.emit(Instr::NegI {
                            dst,
                            a,
                            unsigned: e.ty == ScalarType::UInt,
                        });
                        Ok(Reg::I(dst))
                    }
                    (UnOp::Not, Reg::I(a)) => {
                        let dst = self.temp_i()?;
                        self.emit(Instr::NotI { dst, a });
                        Ok(Reg::I(dst))
                    }
                    (UnOp::BitNot, Reg::I(a)) => {
                        let dst = self.temp_i()?;
                        self.emit(Instr::BitNotI {
                            dst,
                            a,
                            unsigned: e.ty == ScalarType::UInt,
                        });
                        Ok(Reg::I(dst))
                    }
                    _ => Err(CompileError::codegen("type error in unary op")),
                }
            }
            ExprKind::Cast(inner) => {
                let o = self.expr(inner)?;
                match (inner.ty, e.ty) {
                    (a, b) if a == b => Ok(o),
                    (ScalarType::Float, t) if t.is_integer() => {
                        let dst = self.temp_i()?;
                        self.emit(Instr::CastFI {
                            dst,
                            a: o.f()?,
                            unsigned: t == ScalarType::UInt,
                        });
                        Ok(Reg::I(dst))
                    }
                    (src, ScalarType::Float) if src.is_integer() || src == ScalarType::Bool => {
                        let dst = self.temp_f()?;
                        self.emit(Instr::CastIF { dst, a: o.i()? });
                        Ok(Reg::F(dst))
                    }
                    (a, b)
                        if (a.is_integer() || a == ScalarType::Bool)
                            && (b.is_integer() || b == ScalarType::Bool) =>
                    {
                        let dst = self.temp_i()?;
                        self.emit(Instr::CastII {
                            dst,
                            a: o.i()?,
                            to_unsigned: b == ScalarType::UInt,
                        });
                        Ok(Reg::I(dst))
                    }
                    _ => Err(CompileError::codegen("unsupported cast")),
                }
            }
            ExprKind::Load { buf, index } => {
                let idx = self.expr(index)?.i()?;
                let b = buf.0 as u16;
                let ParamKind::Buffer { elem, .. } = self.k.params[buf.0 as usize].kind else {
                    return Err(CompileError::codegen("load from non-buffer"));
                };
                if is_float(elem) {
                    let dst = self.temp_f()?;
                    self.emit(Instr::LoadF { dst, buf: b, idx });
                    Ok(Reg::F(dst))
                } else {
                    let dst = self.temp_i()?;
                    self.emit(Instr::LoadI { dst, buf: b, idx });
                    Ok(Reg::I(dst))
                }
            }
            ExprKind::Call { f, args } => self.call(*f, args),
            ExprKind::Select { cond, then, els } => {
                let dst = self.temp(e.ty)?;
                let cond_reg = self.expr(cond)?.i()?;
                let then_bb = self.new_block();
                let els_bb = self.new_block();
                let join = self.new_block();
                self.terminate(Terminator::Branch {
                    cond: cond_reg,
                    then: then_bb,
                    els: els_bb,
                });
                self.switch_to(then_bb);
                let tv = self.expr(then)?;
                self.mov(dst, tv)?;
                self.terminate(Terminator::Jump(join));
                self.switch_to(els_bb);
                let fv = self.expr(els)?;
                self.mov(dst, fv)?;
                self.terminate(Terminator::Jump(join));
                self.switch_to(join);
                Ok(dst)
            }
        }
    }

    fn mov(&mut self, dst: Reg, src: Reg) -> Result<(), CompileError> {
        match (dst, src) {
            (Reg::I(d), Reg::I(s)) => self.emit(Instr::MovI { dst: d, src: s }),
            (Reg::F(d), Reg::F(s)) => self.emit(Instr::MovF { dst: d, src: s }),
            _ => {
                return Err(CompileError::codegen(format!(
                    "register class mismatch in mov: {dst:?} = {src:?}"
                )))
            }
        }
        Ok(())
    }

    fn binary(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        result_ty: ScalarType,
    ) -> Result<Reg, CompileError> {
        use BinOp::*;
        // Short-circuit logical operators compile to control flow.
        if matches!(op, LogAnd | LogOr) {
            let dst = self.temp_i()?;
            let l = self.expr(lhs)?.i()?;
            let rhs_bb = self.new_block();
            let join = self.new_block();
            let short_val = i64::from(op == LogOr);
            self.emit(Instr::ConstI { dst, v: short_val });
            let (then, els) = if op == LogAnd {
                (rhs_bb, join)
            } else {
                (join, rhs_bb)
            };
            self.terminate(Terminator::Branch { cond: l, then, els });
            self.switch_to(rhs_bb);
            let r = self.expr(rhs)?.i()?;
            self.emit(Instr::MovI { dst, src: r });
            self.terminate(Terminator::Jump(join));
            self.switch_to(join);
            return Ok(Reg::I(dst));
        }

        let l = self.expr(lhs)?;
        let r = self.expr(rhs)?;
        let operand_float = matches!(l, Reg::F(_));
        match op {
            Add | Sub | Mul | Div if operand_float => {
                let fop = match op {
                    Add => FBinOp::Add,
                    Sub => FBinOp::Sub,
                    Mul => FBinOp::Mul,
                    _ => FBinOp::Div,
                };
                let dst = self.temp_f()?;
                self.emit(Instr::FBin {
                    op: fop,
                    dst,
                    a: l.f()?,
                    b: r.f()?,
                });
                Ok(Reg::F(dst))
            }
            Add | Sub | Mul | Div | Rem | BitAnd | BitOr | BitXor | Shl | Shr => {
                let iop = match op {
                    Add => IBinOp::Add,
                    Sub => IBinOp::Sub,
                    Mul => IBinOp::Mul,
                    Div => IBinOp::Div,
                    Rem => IBinOp::Rem,
                    BitAnd => IBinOp::And,
                    BitOr => IBinOp::Or,
                    BitXor => IBinOp::Xor,
                    Shl => IBinOp::Shl,
                    _ => IBinOp::Shr,
                };
                let dst = self.temp_i()?;
                self.emit(Instr::IBin {
                    op: iop,
                    dst,
                    a: l.i()?,
                    b: r.i()?,
                    unsigned: result_ty == ScalarType::UInt || lhs.ty == ScalarType::UInt,
                });
                Ok(Reg::I(dst))
            }
            Lt | Le | Gt | Ge | Eq | Ne => {
                let cop = match op {
                    Lt => CmpOp::Lt,
                    Le => CmpOp::Le,
                    Gt => CmpOp::Gt,
                    Ge => CmpOp::Ge,
                    Eq => CmpOp::Eq,
                    _ => CmpOp::Ne,
                };
                let dst = self.temp_i()?;
                if operand_float {
                    self.emit(Instr::CmpF {
                        op: cop,
                        dst,
                        a: l.f()?,
                        b: r.f()?,
                    });
                } else {
                    self.emit(Instr::CmpI {
                        op: cop,
                        dst,
                        a: l.i()?,
                        b: r.i()?,
                    });
                }
                Ok(Reg::I(dst))
            }
            LogAnd | LogOr => unreachable!("handled above"),
        }
    }

    fn call(&mut self, f: Builtin, args: &[Expr]) -> Result<Reg, CompileError> {
        use Builtin::*;
        let regs: Vec<Reg> = args
            .iter()
            .map(|a| self.expr(a))
            .collect::<Result<_, _>>()?;
        let m1 = |f| match f {
            Sqrt => MathFn1::Sqrt,
            Rsqrt => MathFn1::Rsqrt,
            Exp => MathFn1::Exp,
            Log => MathFn1::Log,
            Sin => MathFn1::Sin,
            Cos => MathFn1::Cos,
            Tan => MathFn1::Tan,
            Fabs => MathFn1::Fabs,
            Floor => MathFn1::Floor,
            Ceil => MathFn1::Ceil,
            _ => unreachable!(),
        };
        match f {
            Sqrt | Rsqrt | Exp | Log | Sin | Cos | Tan | Fabs | Floor | Ceil => {
                let dst = self.temp_f()?;
                self.emit(Instr::Math1 {
                    f: m1(f),
                    dst,
                    a: regs[0].f()?,
                });
                Ok(Reg::F(dst))
            }
            Pow | Fmin | Fmax | Fmod => {
                let f2 = match f {
                    Pow => MathFn2::Pow,
                    Fmin => MathFn2::Fmin,
                    Fmax => MathFn2::Fmax,
                    _ => MathFn2::Fmod,
                };
                let dst = self.temp_f()?;
                self.emit(Instr::Math2 {
                    f: f2,
                    dst,
                    a: regs[0].f()?,
                    b: regs[1].f()?,
                });
                Ok(Reg::F(dst))
            }
            IMin | IMax => {
                let dst = self.temp_i()?;
                let i = Instr::IMin {
                    dst,
                    a: regs[0].i()?,
                    b: regs[1].i()?,
                };
                let i = if f == IMax {
                    Instr::IMax {
                        dst,
                        a: regs[0].i()?,
                        b: regs[1].i()?,
                    }
                } else {
                    i
                };
                self.emit(i);
                Ok(Reg::I(dst))
            }
            IAbs => {
                let dst = self.temp_i()?;
                self.emit(Instr::IAbs {
                    dst,
                    a: regs[0].i()?,
                });
                Ok(Reg::I(dst))
            }
            IClamp => {
                // clamp(x, lo, hi) = min(max(x, lo), hi)
                let t = self.temp_i()?;
                self.emit(Instr::IMax {
                    dst: t,
                    a: regs[0].i()?,
                    b: regs[1].i()?,
                });
                let dst = self.temp_i()?;
                self.emit(Instr::IMin {
                    dst,
                    a: t,
                    b: regs[2].i()?,
                });
                Ok(Reg::I(dst))
            }
            FClamp => {
                let t = self.temp_f()?;
                self.emit(Instr::Math2 {
                    f: MathFn2::Fmax,
                    dst: t,
                    a: regs[0].f()?,
                    b: regs[1].f()?,
                });
                let dst = self.temp_f()?;
                self.emit(Instr::Math2 {
                    f: MathFn2::Fmin,
                    dst,
                    a: t,
                    b: regs[2].f()?,
                });
                Ok(Reg::F(dst))
            }
        }
    }

    fn finish(
        self,
        k: &Kernel,
        level: crate::opt::OptLevel,
        regalloc: crate::opt::RegAlloc,
    ) -> Result<Function, CompileError> {
        let n_params = k.params.len();
        let mut params = self.params;
        let mut blocks = self
            .blocks
            .into_iter()
            .map(|b| {
                let mut block = Block {
                    instrs: b.instrs,
                    term: b.term.unwrap_or(Terminator::Ret),
                    histo: OpHistogram {
                        classes: [0; N_OP_CLASSES],
                        buf_reads: Vec::new(),
                        buf_writes: Vec::new(),
                    },
                };
                block.recompute_histo(n_params);
                block
            })
            .collect::<Vec<Block>>();
        let mut n_iregs = self.max_i.min(MAX_REGS) as u16;
        let mut n_fregs = self.max_f.min(MAX_REGS) as u16;
        if level.enabled() {
            blocks = crate::opt::optimize(&k.name, blocks, &params, n_params, level)?;
            // Trailing registers the optimized code no longer touches need
            // no register-file slots — but parameter registers must stay
            // allocated even when unused: argument binding writes them
            // unconditionally.
            let (ni, nf) = crate::opt::reg_span(&blocks, &params);
            n_iregs = ni.min(n_iregs);
            n_fregs = nf.min(n_fregs);
            if regalloc.enabled() {
                let (ni, nf) =
                    crate::opt::regalloc::allocate(&mut blocks, &mut params, n_iregs, n_fregs);
                n_iregs = ni;
                n_fregs = nf;
                for b in &mut blocks {
                    b.recompute_histo(n_params);
                }
            }
        }
        let decoded = crate::opt::decode::decode(&blocks);
        if crate::opt::dump_enabled() {
            eprintln!(
                "[inspire-opt] {}: final (iregs={n_iregs}, fregs={n_fregs}, decoded_ops={})\n{}",
                k.name,
                decoded.ops.len(),
                crate::pretty::disasm_blocks_spanned(&blocks, Some(&decoded.spans))
            );
        }
        // Re-run the CFG analyses on the final block list so SIMT
        // reconvergence (post-dominators) sees the optimized CFG.
        let cfg = crate::cfg::CfgInfo::build(&blocks, n_iregs, n_fregs);
        let f = Function {
            name: k.name.clone(),
            params,
            blocks,
            n_iregs,
            n_fregs,
            cfg,
            decoded,
        };
        // Final gate over the whole backend: codegen output, allocated
        // register files, and decode-table agreement.
        if crate::analysis::verify::verify_enabled() {
            crate::analysis::verify::verify_function("backend", &f)?;
        }
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::sema::analyze;

    /// These tests assert the shape of the naive codegen output, so they
    /// compile with the optimizer off (the opt pipeline has its own
    /// tests in [`crate::opt`]).
    fn compile_src(src: &str) -> Function {
        let prog = parse(&lex(src).unwrap()).unwrap();
        compile_with_opt(
            &analyze(&prog.kernels[0]).unwrap(),
            crate::opt::OptLevel::None,
        )
        .unwrap()
    }

    #[test]
    fn compiles_vec_add_shape() {
        let f = compile_src(
            "kernel void vec_add(global const float* a, global const float* b,
                                 global float* c, int n) {
                int i = get_global_id(0);
                if (i < n) { c[i] = a[i] + b[i]; }
            }",
        );
        assert_eq!(f.name, "vec_add");
        assert_eq!(f.params.len(), 4);
        // entry + then + else + join = 4 blocks.
        assert_eq!(f.blocks.len(), 4);
        let total_loads: u32 = f
            .blocks
            .iter()
            .map(|b| b.histo.classes[OpClass::Load as usize])
            .sum();
        assert_eq!(total_loads, 2);
        let total_stores: u32 = f
            .blocks
            .iter()
            .map(|b| b.histo.classes[OpClass::Store as usize])
            .sum();
        assert_eq!(total_stores, 1);
    }

    #[test]
    fn every_block_is_terminated() {
        let f = compile_src(
            "kernel void k(global float* o, int n) {
                for (int i = 0; i < n; i++) {
                    if (i > 2) { break; }
                    if (i == 1) { continue; }
                    o[i] = 1.0;
                }
                return;
            }",
        );
        // All blocks have terminators by construction (enforced by type) —
        // check branch targets are in range.
        for b in &f.blocks {
            match b.term {
                Terminator::Jump(t) => assert!((t as usize) < f.blocks.len()),
                Terminator::Branch { then, els, .. } | Terminator::BranchCmp { then, els, .. } => {
                    assert!((then as usize) < f.blocks.len());
                    assert!((els as usize) < f.blocks.len());
                }
                Terminator::Ret => {}
            }
        }
    }

    #[test]
    fn histogram_counts_match_instrs() {
        let f = compile_src(
            "kernel void k(global float* o) {
                int i = get_global_id(0);
                o[i] = sqrt((float)i) + 1.0;
            }",
        );
        let h: u32 = f
            .blocks
            .iter()
            .map(|b| b.histo.classes[OpClass::Transcendental as usize])
            .sum();
        assert_eq!(h, 1);
        let fl: u32 = f
            .blocks
            .iter()
            .map(|b| b.histo.classes[OpClass::FloatOp as usize])
            .sum();
        assert!(fl >= 2); // cast + add
    }

    #[test]
    fn scalar_params_get_dedicated_registers() {
        let f = compile_src("kernel void k(int a, float b, uint c) { }");
        assert_eq!(f.params[0].reg, 0); // first I reg
        assert_eq!(f.params[1].reg, 0); // first F reg
        assert_eq!(f.params[2].reg, 1); // second I reg
    }

    #[test]
    fn buffer_read_write_block_counts() {
        let f = compile_src(
            "kernel void k(global const float* a, global float* b) {
                int i = get_global_id(0);
                b[i] = a[i] * a[i];
            }",
        );
        let reads: u32 = f.blocks.iter().map(|b| b.histo.buf_reads[0]).sum();
        let writes: u32 = f.blocks.iter().map(|b| b.histo.buf_writes[1]).sum();
        assert_eq!(reads, 2);
        assert_eq!(writes, 1);
    }

    #[test]
    fn code_after_return_is_unreachable() {
        let f = compile_src(
            "kernel void k(global float* o) {
                return;
                o[0] = 1.0;
            }",
        );
        // Compute the blocks reachable from entry; the store must not be in
        // any of them.
        let mut reachable = vec![false; f.blocks.len()];
        let mut stack = vec![0u32];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut reachable[b as usize], true) {
                continue;
            }
            match f.blocks[b as usize].term {
                Terminator::Jump(t) => stack.push(t),
                Terminator::Branch { then, els, .. } | Terminator::BranchCmp { then, els, .. } => {
                    stack.push(then);
                    stack.push(els);
                }
                Terminator::Ret => {}
            }
        }
        for (b, r) in f.blocks.iter().zip(&reachable) {
            if *r {
                assert_eq!(b.histo.classes[OpClass::Store as usize], 0);
            }
        }
    }
}
