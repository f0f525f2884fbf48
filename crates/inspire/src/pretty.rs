//! Pretty-printer for the typed IR, and a bytecode disassembler.
//!
//! Renders a [`Kernel`] back to kernel-language-like text with resolved
//! names and explicit casts — the INSPIRE-style "dump" used for debugging
//! analyses and in error reports. The output round-trips through the
//! compiler for every kernel of the benchmark suite (verified by tests):
//! pretty-printing then re-compiling yields a semantically identical
//! program.
//!
//! [`disasm`] renders compiled bytecode as one instruction per line. The
//! optimizer's `INSPIRE_DUMP_IR=1` per-pass dump uses the same renderer.

use std::fmt::Write;

use crate::ast::{BinOp, UnOp};
use crate::bytecode::{Block, CmpOp, FBinOp, Function, IBinOp, Instr, Terminator};
use crate::ir::{Expr, ExprKind, Kernel, ParamKind, Stmt};

/// Render a kernel to text.
pub fn pretty(kernel: &Kernel) -> String {
    // Pick a variable-name prefix that cannot collide with any parameter
    // (parameters keep their source names).
    let collides = |prefix: &str| {
        kernel.params.iter().any(|p| {
            p.name
                .strip_prefix(prefix)
                .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
        })
    };
    let mut prefix = "v".to_string();
    while collides(&prefix) {
        prefix.insert(0, '_');
    }
    let mut p = Printer {
        k: kernel,
        out: String::new(),
        indent: 0,
        prefix,
    };
    p.kernel();
    p.out
}

struct Printer<'a> {
    k: &'a Kernel,
    out: String,
    indent: usize,
    prefix: String,
}

impl<'a> Printer<'a> {
    fn kernel(&mut self) {
        let params: Vec<String> = self
            .k
            .params
            .iter()
            .map(|p| match p.kind {
                ParamKind::Buffer { elem, is_const } => {
                    let c = if is_const { "const " } else { "" };
                    format!("global {c}{}* {}", elem.name(), p.name)
                }
                ParamKind::Scalar(t) => format!("{} {}", t.name(), p.name),
            })
            .collect();
        let _ = writeln!(
            self.out,
            "kernel void {}({}) {{",
            self.k.name,
            params.join(", ")
        );
        self.indent = 1;
        for s in &self.k.body {
            self.stmt(s);
        }
        self.out.push_str("}\n");
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn var_name(&self, v: crate::ir::VarId) -> String {
        format!("{}{}", self.prefix, v.0)
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl { var, init } => {
                let t = self.k.var_types[var.0 as usize].name();
                let line = format!("{t} {} = {};", self.var_name(*var), self.expr(init));
                self.line(&line);
            }
            Stmt::AssignVar { var, value } => {
                let line = format!("{} = {};", self.var_name(*var), self.expr(value));
                self.line(&line);
            }
            Stmt::Store { buf, index, value } => {
                let name = &self.k.params[buf.0 as usize].name;
                let line = format!("{name}[{}] = {};", self.expr(index), self.expr(value));
                self.line(&line);
            }
            Stmt::If { cond, then, els } => {
                let line = format!("if ({}) {{", self.expr(cond));
                self.line(&line);
                self.indent += 1;
                for s in then {
                    self.stmt(s);
                }
                self.indent -= 1;
                if els.is_empty() {
                    self.line("}");
                } else {
                    self.line("} else {");
                    self.indent += 1;
                    for s in els {
                        self.stmt(s);
                    }
                    self.indent -= 1;
                    self.line("}");
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                let init_s = init.as_deref().map_or(String::new(), |s| self.simple(s));
                let cond_s = cond.as_ref().map_or(String::new(), |c| self.expr(c));
                let step_s = step.as_deref().map_or(String::new(), |s| self.simple(s));
                let line = format!("for ({init_s}; {cond_s}; {step_s}) {{");
                self.line(&line);
                self.indent += 1;
                for s in body {
                    self.stmt(s);
                }
                self.indent -= 1;
                self.line("}");
            }
            Stmt::While { cond, body } => {
                let line = format!("while ({}) {{", self.expr(cond));
                self.line(&line);
                self.indent += 1;
                for s in body {
                    self.stmt(s);
                }
                self.indent -= 1;
                self.line("}");
            }
            Stmt::Break => self.line("break;"),
            Stmt::Continue => self.line("continue;"),
            Stmt::Return => self.line("return;"),
            Stmt::Block(body) => {
                self.line("{");
                self.indent += 1;
                for s in body {
                    self.stmt(s);
                }
                self.indent -= 1;
                self.line("}");
            }
        }
    }

    /// A statement rendered without the trailing semicolon/newline (for
    /// `for` headers).
    fn simple(&mut self, s: &Stmt) -> String {
        match s {
            Stmt::Decl { var, init } => {
                let t = self.k.var_types[var.0 as usize].name();
                format!("{t} {} = {}", self.var_name(*var), self.expr(init))
            }
            Stmt::AssignVar { var, value } => {
                format!("{} = {}", self.var_name(*var), self.expr(value))
            }
            _ => String::from("/* complex */"),
        }
    }

    fn expr(&self, e: &Expr) -> String {
        match &e.kind {
            ExprKind::IntConst(v) => {
                if e.ty == crate::ir::ScalarType::UInt {
                    format!("{}u", *v as u32)
                } else if *v < 0 {
                    format!("(0 - {})", (i64::from(*v as i32)).unsigned_abs())
                } else {
                    format!("{v}")
                }
            }
            ExprKind::FloatConst(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    format!("{v:e}")
                }
            }
            ExprKind::BoolConst(b) => b.to_string(),
            ExprKind::Var(v) => self.var_name(*v),
            ExprKind::Param(p) => self.k.params[p.0 as usize].name.clone(),
            ExprKind::GlobalId(d) => format!("get_global_id({d})"),
            ExprKind::GlobalSize(d) => format!("get_global_size({d})"),
            ExprKind::Binary { op, lhs, rhs } => {
                format!("({} {} {})", self.expr(lhs), binop_str(*op), self.expr(rhs))
            }
            ExprKind::Unary { op, operand } => {
                let o = match op {
                    UnOp::Neg => "-",
                    UnOp::Not => "!",
                    UnOp::BitNot => "~",
                };
                format!("({o}{})", self.expr(operand))
            }
            ExprKind::Cast(inner) => format!("({}){}", e.ty.name(), self.expr(inner)),
            ExprKind::Load { buf, index } => {
                format!(
                    "{}[{}]",
                    self.k.params[buf.0 as usize].name,
                    self.expr(index)
                )
            }
            ExprKind::Call { f, args } => {
                let rendered: Vec<String> = args.iter().map(|a| self.expr(a)).collect();
                format!("{}({})", f.name(), rendered.join(", "))
            }
            ExprKind::Select { cond, then, els } => format!(
                "({} ? {} : {})",
                self.expr(cond),
                self.expr(then),
                self.expr(els)
            ),
        }
    }
}

/// Disassemble compiled bytecode: a header line with the register-file
/// sizes, then every block with one instruction per line.
///
/// Register numbers are the final (allocated) ones: after register
/// allocation runs, the blocks hold the renamed registers, so the listing
/// shows the allocation. Each block label is annotated with its span —
/// the op offsets of the flat pre-decoded array the lane engine executes
/// (and the decoded jump target of every edge into that block).
pub fn disasm(f: &Function) -> String {
    format!(
        "fn {}(params={}, iregs={}, fregs={})\n{}",
        f.name,
        f.params.len(),
        f.n_iregs,
        f.n_fregs,
        disasm_blocks_spanned(&f.blocks, Some(&f.decoded.spans))
    )
}

/// Disassemble a bare block list (used by the optimizer's per-pass dump,
/// where no [`Function`] exists yet).
pub(crate) fn disasm_blocks(blocks: &[Block]) -> String {
    disasm_blocks_spanned(blocks, None)
}

/// [`disasm_blocks`] with optional per-block decoded-op spans to annotate
/// the labels with (the `INSPIRE_DUMP_IR=1` final dump uses it).
pub(crate) fn disasm_blocks_spanned(blocks: &[Block], spans: Option<&[(u32, u32)]>) -> String {
    let mut out = String::new();
    for (i, b) in blocks.iter().enumerate() {
        match spans.and_then(|s| s.get(i)) {
            Some(&(s, e)) => {
                let _ = writeln!(out, "bb{i}:  ; ops[{s}..{e})");
            }
            None => {
                let _ = writeln!(out, "bb{i}:");
            }
        }
        for ins in &b.instrs {
            let _ = writeln!(out, "    {}", fmt_instr(ins));
        }
        let _ = writeln!(out, "    {}", fmt_term(&b.term));
    }
    out
}

fn ibinop_str(op: IBinOp) -> &'static str {
    match op {
        IBinOp::Add => "add",
        IBinOp::Sub => "sub",
        IBinOp::Mul => "mul",
        IBinOp::Div => "div",
        IBinOp::Rem => "rem",
        IBinOp::And => "and",
        IBinOp::Or => "or",
        IBinOp::Xor => "xor",
        IBinOp::Shl => "shl",
        IBinOp::Shr => "shr",
    }
}

fn fbinop_str(op: FBinOp) -> &'static str {
    match op {
        FBinOp::Add => "fadd",
        FBinOp::Sub => "fsub",
        FBinOp::Mul => "fmul",
        FBinOp::Div => "fdiv",
    }
}

fn cmpop_str(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Lt => "lt",
        CmpOp::Le => "le",
        CmpOp::Gt => "gt",
        CmpOp::Ge => "ge",
        CmpOp::Eq => "eq",
        CmpOp::Ne => "ne",
    }
}

fn u_suffix(unsigned: bool) -> &'static str {
    if unsigned {
        ".u"
    } else {
        ""
    }
}

fn fmt_instr(ins: &Instr) -> String {
    use Instr::*;
    match *ins {
        ConstI { dst, v } => format!("i{dst} = const {v}"),
        ConstF { dst, v } => format!("f{dst} = const {v:?}"),
        MovI { dst, src } => format!("i{dst} = mov i{src}"),
        MovF { dst, src } => format!("f{dst} = mov f{src}"),
        IBin {
            op,
            dst,
            a,
            b,
            unsigned,
        } => format!(
            "i{dst} = {}{} i{a}, i{b}",
            ibinop_str(op),
            u_suffix(unsigned)
        ),
        IBinImm {
            op,
            dst,
            a,
            imm,
            unsigned,
        } => format!(
            "i{dst} = {}{} i{a}, #{imm}",
            ibinop_str(op),
            u_suffix(unsigned)
        ),
        FBin { op, dst, a, b } => format!("f{dst} = {} f{a}, f{b}", fbinop_str(op)),
        CmpI { op, dst, a, b } => format!("i{dst} = cmp.{} i{a}, i{b}", cmpop_str(op)),
        CmpF { op, dst, a, b } => format!("i{dst} = fcmp.{} f{a}, f{b}", cmpop_str(op)),
        NegI { dst, a, unsigned } => format!("i{dst} = neg{} i{a}", u_suffix(unsigned)),
        NegF { dst, a } => format!("f{dst} = fneg f{a}"),
        NotI { dst, a } => format!("i{dst} = not i{a}"),
        BitNotI { dst, a, unsigned } => format!("i{dst} = bitnot{} i{a}", u_suffix(unsigned)),
        CastIF { dst, a } => format!("f{dst} = i2f i{a}"),
        CastFI { dst, a, unsigned } => format!("i{dst} = f2i{} f{a}", u_suffix(unsigned)),
        CastII {
            dst,
            a,
            to_unsigned,
        } => format!("i{dst} = i2i{} i{a}", u_suffix(to_unsigned)),
        Math1 { f, dst, a } => format!("f{dst} = {:?} f{a}", f).to_lowercase(),
        Math2 { f, dst, a, b } => format!("f{dst} = {:?} f{a}, f{b}", f).to_lowercase(),
        IMin { dst, a, b } => format!("i{dst} = min i{a}, i{b}"),
        IMax { dst, a, b } => format!("i{dst} = max i{a}, i{b}"),
        IAbs { dst, a } => format!("i{dst} = abs i{a}"),
        LoadF { dst, buf, idx } => format!("f{dst} = load buf{buf}[i{idx}]"),
        LoadI { dst, buf, idx } => format!("i{dst} = load buf{buf}[i{idx}]"),
        StoreF { buf, idx, src } => format!("store buf{buf}[i{idx}] = f{src}"),
        StoreI { buf, idx, src } => format!("store buf{buf}[i{idx}] = i{src}"),
        GlobalId { dst, dim } => format!("i{dst} = global_id {dim}"),
        GlobalSize { dst, dim } => format!("i{dst} = global_size {dim}"),
    }
}

fn fmt_term(term: &Terminator) -> String {
    match *term {
        Terminator::Jump(t) => format!("jump bb{t}"),
        Terminator::Branch { cond, then, els } => {
            format!("branch i{cond} ? bb{then} : bb{els}")
        }
        Terminator::BranchCmp {
            op,
            float,
            a,
            b,
            then,
            els,
        } => {
            let (p, file) = if float {
                ("fbranch", 'f')
            } else {
                ("branch", 'i')
            };
            format!(
                "{p}.{} {file}{a}, {file}{b} ? bb{then} : bb{els}",
                cmpop_str(op)
            )
        }
        Terminator::Ret => "ret".to_string(),
    }
}

fn binop_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::BitAnd => "&",
        BinOp::BitOr => "|",
        BinOp::BitXor => "^",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::LogAnd => "&&",
        BinOp::LogOr => "||",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn renders_a_simple_kernel() {
        let k = compile(
            "kernel void k(global const float* a, global float* o, int n) {
                int i = get_global_id(0);
                if (i < n) { o[i] = a[i] * 2.0; }
            }",
        )
        .unwrap();
        let text = pretty(&k.ir);
        assert!(text.contains("kernel void k(global const float* a, global float* o, int n) {"));
        assert!(text.contains("int v0 = get_global_id(0);"));
        assert!(text.contains("o[v0] = (a[v0] * 2.0);"));
    }

    #[test]
    fn pretty_output_recompiles_to_equivalent_features() {
        // Round-trip: pretty(compile(src)) compiles again with identical
        // static features and bytecode shape.
        let src = "kernel void rt(global const float* a, global float* o, int n, float s) {
            int i = get_global_id(0);
            float acc = 0.0;
            for (int j = 0; j < n; j++) {
                acc += a[i] * s - (float)(j % 3);
                if (acc > 100.0) { break; }
            }
            o[i] = acc > 0.0 ? acc : -acc;
        }";
        let k1 = compile(src).unwrap();
        let text = pretty(&k1.ir);
        let k2 = compile(&text).unwrap_or_else(|e| panic!("pretty output:\n{text}\nerror: {e}"));
        assert_eq!(k1.static_features, k2.static_features, "output:\n{text}");
        assert_eq!(k1.bytecode.blocks.len(), k2.bytecode.blocks.len());
    }

    #[test]
    fn disasm_covers_every_block_and_names_the_function() {
        let k = compile(
            "kernel void dd(global const float* a, global float* o, int n) {
                int i = get_global_id(0);
                if (i < n) { o[i] = a[i] + 1.0; }
            }",
        )
        .unwrap();
        let text = disasm(&k.bytecode);
        assert!(text.starts_with("fn dd("), "{text}");
        for b in 0..k.bytecode.blocks.len() {
            assert!(text.contains(&format!("bb{b}:")), "missing bb{b}:\n{text}");
        }
        assert!(text.contains("load"), "{text}");
        assert!(text.contains("store"), "{text}");
    }

    #[test]
    fn disasm_annotates_decoded_op_offsets() {
        use crate::{compile_with_modes, OptLevel, RegAlloc};
        let src = "kernel void sp(global const float* a, global float* o, int n) {
            int i = get_global_id(0);
            if (i < n) { o[i] = a[i] + 1.0; }
        }";
        // Every function is pre-decoded, so in every compile mode each
        // block label carries its span into the decoded op array; block 0
        // always starts at op 0.
        for (level, ra) in [
            (OptLevel::Full, RegAlloc::On),
            (OptLevel::Full, RegAlloc::Off),
            (OptLevel::None, RegAlloc::On),
        ] {
            let k = compile_with_modes(src, level, ra).unwrap();
            let text = disasm(&k.bytecode);
            assert!(text.contains("bb0:  ; ops[0.."), "{level:?}/{ra:?}: {text}");
        }
    }
}
