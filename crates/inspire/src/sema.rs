//! Semantic analysis: name resolution, type checking, desugaring.
//!
//! Turns the untyped [`crate::ast`] into the typed [`crate::ir`]. All
//! implicit conversions become explicit [`ExprKind::Cast`] nodes;
//! compound assignments and increments are desugared; `get_global_id` /
//! `get_global_size` become dedicated IR nodes.

use std::collections::HashMap;

use crate::ast::{
    self, AssignOp, BinOp, ExprKind as AK, ParamKind as AstParamKind, TypeName, UnOp,
};
use crate::builtins;
use crate::error::CompileError;
use crate::ir::{Expr, ExprKind, Kernel, Param, ParamId, ParamKind, ScalarType, Stmt, VarId};
use crate::token::Span;

/// Type-check one kernel declaration.
pub fn analyze(decl: &ast::KernelDecl) -> Result<Kernel, CompileError> {
    let mut ctx = Ctx::new(decl)?;
    let body = ctx.block(&decl.body)?;
    Ok(Kernel {
        name: decl.name.clone(),
        params: ctx.params,
        body,
        var_types: ctx.var_types,
    })
}

fn scalar_of(t: TypeName) -> ScalarType {
    match t {
        TypeName::Int => ScalarType::Int,
        TypeName::UInt => ScalarType::UInt,
        TypeName::Float => ScalarType::Float,
        TypeName::Bool => ScalarType::Bool,
    }
}

#[derive(Clone, Copy)]
enum Binding {
    Var(VarId),
    Param(ParamId),
}

struct Ctx {
    params: Vec<Param>,
    param_names: HashMap<String, ParamId>,
    scopes: Vec<HashMap<String, Binding>>,
    var_types: Vec<ScalarType>,
    loop_depth: usize,
}

impl Ctx {
    fn new(decl: &ast::KernelDecl) -> Result<Self, CompileError> {
        let mut params = Vec::with_capacity(decl.params.len());
        let mut param_names = HashMap::new();
        for (i, p) in decl.params.iter().enumerate() {
            let kind = match p.kind {
                AstParamKind::Buffer { elem, is_const } => {
                    let elem = scalar_of(elem);
                    if elem == ScalarType::Bool {
                        return Err(CompileError::sema(
                            "bool buffers are not supported",
                            p.span.start,
                        ));
                    }
                    ParamKind::Buffer { elem, is_const }
                }
                AstParamKind::Scalar(t) => ParamKind::Scalar(scalar_of(t)),
            };
            if param_names
                .insert(p.name.clone(), ParamId(i as u32))
                .is_some()
            {
                return Err(CompileError::sema(
                    format!("duplicate parameter name `{}`", p.name),
                    p.span.start,
                ));
            }
            params.push(Param {
                name: p.name.clone(),
                kind,
            });
        }
        Ok(Self {
            params,
            param_names,
            scopes: vec![HashMap::new()],
            var_types: Vec::new(),
            loop_depth: 0,
        })
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        for scope in self.scopes.iter().rev() {
            if let Some(b) = scope.get(name) {
                return Some(*b);
            }
        }
        self.param_names.get(name).map(|&p| Binding::Param(p))
    }

    fn declare(&mut self, name: &str, ty: ScalarType, span: Span) -> Result<VarId, CompileError> {
        let Some(scope) = self.scopes.last_mut() else {
            return Err(CompileError::sema(
                "internal error: declaration outside any scope",
                span.start,
            ));
        };
        if scope.contains_key(name) {
            return Err(CompileError::sema(
                format!("`{name}` is already declared in this scope"),
                span.start,
            ));
        }
        let id = VarId(self.var_types.len() as u32);
        self.var_types.push(ty);
        scope.insert(name.to_string(), Binding::Var(id));
        Ok(id)
    }

    fn block(&mut self, stmts: &[ast::Stmt]) -> Result<Vec<Stmt>, CompileError> {
        self.scopes.push(HashMap::new());
        let out = stmts.iter().map(|s| self.stmt(s)).collect();
        self.scopes.pop();
        out
    }

    fn stmt(&mut self, s: &ast::Stmt) -> Result<Stmt, CompileError> {
        match s {
            ast::Stmt::Decl {
                ty,
                name,
                init,
                span,
            } => {
                let ty = scalar_of(*ty);
                let init = self.expr(init)?;
                let init = self.coerce(init, ty, *span)?;
                // Declare after checking the initializer so `int x = x;`
                // cannot read the new variable.
                let var = self.declare(name, ty, *span)?;
                Ok(Stmt::Decl { var, init })
            }
            ast::Stmt::Assign {
                target,
                op,
                value,
                span,
            } => self.assign(target, *op, value, *span),
            ast::Stmt::If {
                cond, then, els, ..
            } => {
                let cond = self.condition(cond)?;
                let then = self.block(then)?;
                let els = self.block(els)?;
                Ok(Stmt::If { cond, then, els })
            }
            ast::Stmt::While { cond, body, .. } => {
                let cond = self.condition(cond)?;
                self.loop_depth += 1;
                let body = self.block(body);
                self.loop_depth -= 1;
                Ok(Stmt::While { cond, body: body? })
            }
            ast::Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                // The init declaration scopes over cond/step/body.
                self.scopes.push(HashMap::new());
                let result = (|| {
                    let init = init.as_ref().map(|s| self.stmt(s)).transpose()?;
                    let cond = cond.as_ref().map(|c| self.condition(c)).transpose()?;
                    let step = step.as_ref().map(|s| self.stmt(s)).transpose()?;
                    self.loop_depth += 1;
                    let body = self.block(body);
                    self.loop_depth -= 1;
                    Ok(Stmt::For {
                        init: init.map(Box::new),
                        cond,
                        step: step.map(Box::new),
                        body: body?,
                    })
                })();
                self.scopes.pop();
                result
            }
            ast::Stmt::Break(span) => {
                if self.loop_depth == 0 {
                    return Err(CompileError::sema("`break` outside of loop", span.start));
                }
                Ok(Stmt::Break)
            }
            ast::Stmt::Continue(span) => {
                if self.loop_depth == 0 {
                    return Err(CompileError::sema("`continue` outside of loop", span.start));
                }
                Ok(Stmt::Continue)
            }
            ast::Stmt::Return(_) => Ok(Stmt::Return),
            ast::Stmt::Block(stmts, _) => Ok(Stmt::Block(self.block(stmts)?)),
        }
    }

    fn assign(
        &mut self,
        target: &ast::Expr,
        op: AssignOp,
        value: &ast::Expr,
        span: Span,
    ) -> Result<Stmt, CompileError> {
        let rhs = self.expr(value)?;
        match &target.kind {
            AK::Ident(name) => {
                let Some(Binding::Var(var)) = self.lookup(name) else {
                    return Err(CompileError::sema(
                        format!("cannot assign to `{name}` (not a local variable)"),
                        target.span.start,
                    ));
                };
                let ty = self.var_types[var.0 as usize];
                let value = match assign_binop(op) {
                    None => self.coerce(rhs, ty, span)?,
                    Some(bop) => {
                        let cur = Expr::new(ExprKind::Var(var), ty);
                        let combined = self.binary(bop, cur, rhs, span)?;
                        self.coerce(combined, ty, span)?
                    }
                };
                Ok(Stmt::AssignVar { var, value })
            }
            AK::Index { base, index } => {
                let (buf, elem) = self.buffer_of(base)?;
                if let ParamKind::Buffer { is_const: true, .. } = self.params[buf.0 as usize].kind {
                    return Err(CompileError::sema(
                        format!(
                            "cannot store to `const` buffer `{}`",
                            self.params[buf.0 as usize].name
                        ),
                        target.span.start,
                    ));
                }
                let index = self.index_expr(index)?;
                let value = match assign_binop(op) {
                    None => self.coerce(rhs, elem, span)?,
                    Some(bop) => {
                        let cur = Expr::new(
                            ExprKind::Load {
                                buf,
                                index: Box::new(index.clone()),
                            },
                            elem,
                        );
                        let combined = self.binary(bop, cur, rhs, span)?;
                        self.coerce(combined, elem, span)?
                    }
                };
                Ok(Stmt::Store { buf, index, value })
            }
            _ => Err(CompileError::sema(
                "assignment target must be a variable or buffer element",
                target.span.start,
            )),
        }
    }

    /// Resolve an expression that must denote a buffer parameter.
    fn buffer_of(&self, e: &ast::Expr) -> Result<(ParamId, ScalarType), CompileError> {
        match &e.kind {
            AK::Ident(name) => match self.lookup(name) {
                Some(Binding::Param(p)) => match self.params[p.0 as usize].kind {
                    ParamKind::Buffer { elem, .. } => Ok((p, elem)),
                    ParamKind::Scalar(_) => Err(CompileError::sema(
                        format!("`{name}` is a scalar, not a buffer"),
                        e.span.start,
                    )),
                },
                Some(Binding::Var(_)) => Err(CompileError::sema(
                    format!("`{name}` is a local variable, not a buffer"),
                    e.span.start,
                )),
                None => Err(CompileError::sema(
                    format!("unknown name `{name}`"),
                    e.span.start,
                )),
            },
            _ => Err(CompileError::sema(
                "only kernel buffer parameters can be indexed",
                e.span.start,
            )),
        }
    }

    fn index_expr(&mut self, e: &ast::Expr) -> Result<Expr, CompileError> {
        let idx = self.expr(e)?;
        if !idx.ty.is_integer() {
            return Err(CompileError::sema(
                format!("buffer index must be an integer, found `{}`", idx.ty.name()),
                e.span.start,
            ));
        }
        // Normalize to Int so the VM has a single index form.
        Ok(self.cast_to(idx, ScalarType::Int))
    }

    fn condition(&mut self, e: &ast::Expr) -> Result<Expr, CompileError> {
        let c = self.expr(e)?;
        self.to_bool(c, e.span)
    }

    fn to_bool(&self, e: Expr, span: Span) -> Result<Expr, CompileError> {
        match e.ty {
            ScalarType::Bool => Ok(e),
            t if t.is_numeric() => {
                let zero = match t {
                    ScalarType::Float => Expr::new(ExprKind::FloatConst(0.0), t),
                    _ => Expr::new(ExprKind::IntConst(0), t),
                };
                Ok(Expr::new(
                    ExprKind::Binary {
                        op: BinOp::Ne,
                        lhs: Box::new(e),
                        rhs: Box::new(zero),
                    },
                    ScalarType::Bool,
                ))
            }
            _ => Err(CompileError::sema(
                "expected a boolean or numeric condition",
                span.start,
            )),
        }
    }

    /// Insert a cast if needed; errors if the conversion is not allowed.
    fn coerce(&self, e: Expr, to: ScalarType, span: Span) -> Result<Expr, CompileError> {
        if e.ty == to {
            return Ok(e);
        }
        let ok = (e.ty.is_numeric() && to.is_numeric())
            || (e.ty == ScalarType::Bool && to.is_numeric())
            || (e.ty.is_numeric() && to == ScalarType::Bool);
        if !ok {
            return Err(CompileError::sema(
                format!("cannot convert `{}` to `{}`", e.ty.name(), to.name()),
                span.start,
            ));
        }
        if to == ScalarType::Bool {
            return self.to_bool(e, span);
        }
        Ok(self.cast_to(e, to))
    }

    fn cast_to(&self, e: Expr, to: ScalarType) -> Expr {
        if e.ty == to {
            e
        } else {
            Expr::new(ExprKind::Cast(Box::new(e)), to)
        }
    }

    fn promote_pair(
        &self,
        a: Expr,
        b: Expr,
        span: Span,
    ) -> Result<(Expr, Expr, ScalarType), CompileError> {
        if !a.ty.is_numeric() || !b.ty.is_numeric() {
            return Err(CompileError::sema(
                format!(
                    "operands must be numeric, found `{}` and `{}`",
                    a.ty.name(),
                    b.ty.name()
                ),
                span.start,
            ));
        }
        let common = if a.ty == ScalarType::Float || b.ty == ScalarType::Float {
            ScalarType::Float
        } else if a.ty == ScalarType::UInt || b.ty == ScalarType::UInt {
            ScalarType::UInt
        } else {
            ScalarType::Int
        };
        Ok((self.cast_to(a, common), self.cast_to(b, common), common))
    }

    fn binary(
        &mut self,
        op: BinOp,
        lhs: Expr,
        rhs: Expr,
        span: Span,
    ) -> Result<Expr, CompileError> {
        use BinOp::*;
        match op {
            Add | Sub | Mul | Div => {
                let (l, r, t) = self.promote_pair(lhs, rhs, span)?;
                Ok(Expr::new(
                    ExprKind::Binary {
                        op,
                        lhs: Box::new(l),
                        rhs: Box::new(r),
                    },
                    t,
                ))
            }
            Rem | BitAnd | BitOr | BitXor => {
                let (l, r, t) = self.promote_pair(lhs, rhs, span)?;
                if !t.is_integer() {
                    return Err(CompileError::sema(
                        format!("operator requires integer operands, found `{}`", t.name()),
                        span.start,
                    ));
                }
                Ok(Expr::new(
                    ExprKind::Binary {
                        op,
                        lhs: Box::new(l),
                        rhs: Box::new(r),
                    },
                    t,
                ))
            }
            Shl | Shr => {
                if !lhs.ty.is_integer() || !rhs.ty.is_integer() {
                    return Err(CompileError::sema(
                        "shift requires integer operands",
                        span.start,
                    ));
                }
                let t = lhs.ty;
                let r = self.cast_to(rhs, ScalarType::Int);
                Ok(Expr::new(
                    ExprKind::Binary {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(r),
                    },
                    t,
                ))
            }
            Lt | Le | Gt | Ge => {
                let (l, r, _) = self.promote_pair(lhs, rhs, span)?;
                Ok(Expr::new(
                    ExprKind::Binary {
                        op,
                        lhs: Box::new(l),
                        rhs: Box::new(r),
                    },
                    ScalarType::Bool,
                ))
            }
            Eq | Ne => {
                if lhs.ty == ScalarType::Bool && rhs.ty == ScalarType::Bool {
                    return Ok(Expr::new(
                        ExprKind::Binary {
                            op,
                            lhs: Box::new(lhs),
                            rhs: Box::new(rhs),
                        },
                        ScalarType::Bool,
                    ));
                }
                let (l, r, _) = self.promote_pair(lhs, rhs, span)?;
                Ok(Expr::new(
                    ExprKind::Binary {
                        op,
                        lhs: Box::new(l),
                        rhs: Box::new(r),
                    },
                    ScalarType::Bool,
                ))
            }
            LogAnd | LogOr => {
                let l = self.to_bool(lhs, span)?;
                let r = self.to_bool(rhs, span)?;
                Ok(Expr::new(
                    ExprKind::Binary {
                        op,
                        lhs: Box::new(l),
                        rhs: Box::new(r),
                    },
                    ScalarType::Bool,
                ))
            }
        }
    }

    fn expr(&mut self, e: &ast::Expr) -> Result<Expr, CompileError> {
        let span = e.span;
        match &e.kind {
            AK::IntLit { value, unsigned } => {
                let ty = if *unsigned {
                    ScalarType::UInt
                } else {
                    ScalarType::Int
                };
                Ok(Expr::new(ExprKind::IntConst(*value), ty))
            }
            AK::FloatLit(v) => Ok(Expr::new(ExprKind::FloatConst(*v), ScalarType::Float)),
            AK::BoolLit(b) => Ok(Expr::new(ExprKind::BoolConst(*b), ScalarType::Bool)),
            AK::Ident(name) => match self.lookup(name) {
                Some(Binding::Var(v)) => {
                    Ok(Expr::new(ExprKind::Var(v), self.var_types[v.0 as usize]))
                }
                Some(Binding::Param(p)) => match self.params[p.0 as usize].kind {
                    ParamKind::Scalar(t) => Ok(Expr::new(ExprKind::Param(p), t)),
                    ParamKind::Buffer { .. } => Err(CompileError::sema(
                        format!("buffer `{name}` must be indexed with `[...]`"),
                        span.start,
                    )),
                },
                None => Err(CompileError::sema(
                    format!("unknown name `{name}`"),
                    span.start,
                )),
            },
            AK::Binary { op, lhs, rhs } => {
                let l = self.expr(lhs)?;
                let r = self.expr(rhs)?;
                self.binary(*op, l, r, span)
            }
            AK::Unary { op, operand } => {
                let o = self.expr(operand)?;
                match op {
                    UnOp::Neg => {
                        if !o.ty.is_numeric() {
                            return Err(CompileError::sema(
                                "unary `-` requires a numeric operand",
                                span.start,
                            ));
                        }
                        let ty = o.ty;
                        Ok(Expr::new(
                            ExprKind::Unary {
                                op: UnOp::Neg,
                                operand: Box::new(o),
                            },
                            ty,
                        ))
                    }
                    UnOp::Not => {
                        let b = self.to_bool(o, span)?;
                        Ok(Expr::new(
                            ExprKind::Unary {
                                op: UnOp::Not,
                                operand: Box::new(b),
                            },
                            ScalarType::Bool,
                        ))
                    }
                    UnOp::BitNot => {
                        if !o.ty.is_integer() {
                            return Err(CompileError::sema(
                                "`~` requires an integer operand",
                                span.start,
                            ));
                        }
                        let ty = o.ty;
                        Ok(Expr::new(
                            ExprKind::Unary {
                                op: UnOp::BitNot,
                                operand: Box::new(o),
                            },
                            ty,
                        ))
                    }
                }
            }
            AK::Cast { ty, operand } => {
                let o = self.expr(operand)?;
                self.coerce(o, scalar_of(*ty), span)
            }
            AK::Index { base, index } => {
                let (buf, elem) = self.buffer_of(base)?;
                let index = self.index_expr(index)?;
                Ok(Expr::new(
                    ExprKind::Load {
                        buf,
                        index: Box::new(index),
                    },
                    elem,
                ))
            }
            AK::Ternary { cond, then, els } => {
                let c = self.condition(cond)?;
                let t = self.expr(then)?;
                let f = self.expr(els)?;
                if t.ty == ScalarType::Bool && f.ty == ScalarType::Bool {
                    return Ok(Expr::new(
                        ExprKind::Select {
                            cond: Box::new(c),
                            then: Box::new(t),
                            els: Box::new(f),
                        },
                        ScalarType::Bool,
                    ));
                }
                let (t, f, ty) = self.promote_pair(t, f, span)?;
                Ok(Expr::new(
                    ExprKind::Select {
                        cond: Box::new(c),
                        then: Box::new(t),
                        els: Box::new(f),
                    },
                    ty,
                ))
            }
            AK::Call { name, args } => self.call(name, args, span),
        }
    }

    fn call(&mut self, name: &str, args: &[ast::Expr], span: Span) -> Result<Expr, CompileError> {
        // get_global_id / get_global_size take a literal dimension 0..=2.
        if name == "get_global_id" || name == "get_global_size" {
            if args.len() != 1 {
                return Err(CompileError::sema(
                    format!("`{name}` takes exactly one argument"),
                    span.start,
                ));
            }
            let AK::IntLit { value, .. } = args[0].kind else {
                return Err(CompileError::sema(
                    format!("`{name}` dimension must be an integer literal"),
                    args[0].span.start,
                ));
            };
            if !(0..=2).contains(&value) {
                return Err(CompileError::sema(
                    format!("`{name}` dimension must be 0, 1 or 2"),
                    args[0].span.start,
                ));
            }
            let kind = if name == "get_global_id" {
                ExprKind::GlobalId(value as u8)
            } else {
                ExprKind::GlobalSize(value as u8)
            };
            return Ok(Expr::new(kind, ScalarType::Int));
        }

        let mut checked: Vec<Expr> = args
            .iter()
            .map(|a| self.expr(a))
            .collect::<Result<_, _>>()?;
        let arg_types: Vec<ScalarType> = checked.iter().map(|a| a.ty).collect();
        let Some(b) = builtins::resolve(name, &arg_types) else {
            return Err(CompileError::sema(
                format!("unknown function `{name}` (the language has builtins only)"),
                span.start,
            ));
        };
        if checked.len() != b.arity() {
            return Err(CompileError::sema(
                format!(
                    "`{name}` takes {} argument(s), found {}",
                    b.arity(),
                    checked.len()
                ),
                span.start,
            ));
        }
        let (target, ret) = if b.is_float() {
            (ScalarType::Float, ScalarType::Float)
        } else {
            // Integer intrinsics: promote to a common integer type.
            let common = if arg_types.contains(&ScalarType::UInt) {
                ScalarType::UInt
            } else {
                ScalarType::Int
            };
            (common, common)
        };
        for a in &mut checked {
            if !a.ty.is_numeric() {
                return Err(CompileError::sema(
                    format!("`{name}` arguments must be numeric"),
                    span.start,
                ));
            }
            let taken = std::mem::replace(a, Expr::int(0));
            *a = self.coerce(taken, target, span)?;
        }
        Ok(Expr::new(
            ExprKind::Call {
                f: b,
                args: checked,
            },
            ret,
        ))
    }
}

fn assign_binop(op: AssignOp) -> Option<BinOp> {
    match op {
        AssignOp::Set => None,
        AssignOp::Add => Some(BinOp::Add),
        AssignOp::Sub => Some(BinOp::Sub),
        AssignOp::Mul => Some(BinOp::Mul),
        AssignOp::Div => Some(BinOp::Div),
        AssignOp::Rem => Some(BinOp::Rem),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn sema(src: &str) -> Result<Kernel, CompileError> {
        let prog = parse(&lex(src).unwrap()).unwrap();
        analyze(&prog.kernels[0])
    }

    #[test]
    fn resolves_params_and_vars() {
        let k = sema(
            "kernel void k(global float* a, int n) { int i = get_global_id(0); a[i] = (float)n; }",
        )
        .unwrap();
        assert_eq!(k.var_types, vec![ScalarType::Int]);
        assert!(matches!(k.body[0], Stmt::Decl { var: VarId(0), .. }));
        assert!(matches!(
            k.body[1],
            Stmt::Store {
                buf: ParamId(0),
                ..
            }
        ));
    }

    #[test]
    fn inserts_implicit_casts() {
        let k = sema("kernel void k(int n) { float x = n; }").unwrap();
        let Stmt::Decl { init, .. } = &k.body[0] else {
            panic!()
        };
        assert_eq!(init.ty, ScalarType::Float);
        assert!(matches!(init.kind, ExprKind::Cast(_)));
    }

    #[test]
    fn promotes_mixed_arithmetic_to_float() {
        let k = sema("kernel void k(int n) { float x = n * 2.0; }").unwrap();
        let Stmt::Decl { init, .. } = &k.body[0] else {
            panic!()
        };
        let ExprKind::Binary { lhs, rhs, .. } = &init.kind else {
            panic!()
        };
        assert_eq!(lhs.ty, ScalarType::Float);
        assert_eq!(rhs.ty, ScalarType::Float);
    }

    #[test]
    fn rejects_store_to_const_buffer() {
        let err = sema("kernel void k(global const float* a) { a[0] = 1.0; }").unwrap_err();
        assert!(err.message.contains("const"), "{err}");
    }

    #[test]
    fn rejects_unknown_names() {
        assert!(sema("kernel void k(int n) { int x = y; }").is_err());
        assert!(sema("kernel void k(int n) { int x = frob(n); }").is_err());
    }

    #[test]
    fn rejects_buffer_without_index() {
        assert!(sema("kernel void k(global float* a, int n) { float x = a + 1.0; }").is_err());
    }

    #[test]
    fn rejects_indexing_scalar() {
        assert!(sema("kernel void k(int n) { int x = n[0]; }").is_err());
    }

    #[test]
    fn rejects_float_index() {
        assert!(sema("kernel void k(global float* a) { a[1.5] = 0.0; }").is_err());
    }

    #[test]
    fn rejects_break_outside_loop() {
        assert!(sema("kernel void k(int n) { break; }").is_err());
        assert!(sema("kernel void k(int n) { continue; }").is_err());
    }

    #[test]
    fn allows_break_inside_loop() {
        assert!(sema("kernel void k(int n) { while (true) { break; } }").is_ok());
    }

    #[test]
    fn numeric_condition_coerced_to_bool() {
        let k = sema("kernel void k(int n) { if (n) { } }").unwrap();
        let Stmt::If { cond, .. } = &k.body[0] else {
            panic!()
        };
        assert_eq!(cond.ty, ScalarType::Bool);
        assert!(matches!(cond.kind, ExprKind::Binary { op: BinOp::Ne, .. }));
    }

    #[test]
    fn compound_assignment_desugars() {
        let k = sema("kernel void k(global float* a, int n) { a[n] += 2.0; }").unwrap();
        let Stmt::Store { value, .. } = &k.body[0] else {
            panic!()
        };
        let ExprKind::Binary {
            op: BinOp::Add,
            lhs,
            ..
        } = &value.kind
        else {
            panic!()
        };
        assert!(matches!(lhs.kind, ExprKind::Load { .. }));
    }

    #[test]
    fn shadowing_in_inner_scope_is_allowed() {
        let k = sema("kernel void k(int n) { int x = 1; { int x = 2; } }").unwrap();
        assert_eq!(k.var_types.len(), 2);
    }

    #[test]
    fn duplicate_in_same_scope_rejected() {
        assert!(sema("kernel void k(int n) { int x = 1; int x = 2; }").is_err());
    }

    #[test]
    fn global_id_requires_literal_dim() {
        assert!(sema("kernel void k(int n) { int i = get_global_id(n); }").is_err());
        assert!(sema("kernel void k(int n) { int i = get_global_id(3); }").is_err());
        assert!(sema("kernel void k(int n) { int i = get_global_id(2); }").is_ok());
    }

    #[test]
    fn rem_requires_integers() {
        assert!(sema("kernel void k(float x) { float y = x % 2.0; }").is_err());
        assert!(sema("kernel void k(int n) { int y = n % 2; }").is_ok());
    }

    #[test]
    fn shift_requires_integers() {
        assert!(sema("kernel void k(float x) { float y = x << 1; }").is_err());
    }

    #[test]
    fn unsigned_promotion() {
        let k = sema("kernel void k(uint u, int n) { uint x = u + n; }").unwrap();
        let Stmt::Decl { init, .. } = &k.body[0] else {
            panic!()
        };
        assert_eq!(init.ty, ScalarType::UInt);
    }

    #[test]
    fn builtin_polymorphism_resolves() {
        let k = sema("kernel void k(int a, int b) { int m = min(a, b); }").unwrap();
        let Stmt::Decl { init, .. } = &k.body[0] else {
            panic!()
        };
        let ExprKind::Call { f, .. } = &init.kind else {
            panic!()
        };
        assert_eq!(*f, crate::builtins::Builtin::IMin);
    }

    #[test]
    fn builtin_arity_checked() {
        assert!(sema("kernel void k(float x) { float y = pow(x); }").is_err());
    }

    #[test]
    fn ternary_promotes_arms() {
        let k = sema("kernel void k(int n) { float x = n > 0 ? 1 : 0.5; }").unwrap();
        let Stmt::Decl { init, .. } = &k.body[0] else {
            panic!()
        };
        assert_eq!(init.ty, ScalarType::Float);
    }

    #[test]
    fn decl_initializer_cannot_see_itself() {
        assert!(sema("kernel void k(int n) { int x = x; }").is_err());
    }

    #[test]
    fn for_init_scopes_over_body() {
        assert!(
            sema("kernel void k(int n) { for (int i = 0; i < n; i++) { int y = i; } }").is_ok()
        );
        // …but not past the loop.
        assert!(
            sema("kernel void k(int n) { for (int i = 0; i < n; i++) { } int y = i; }").is_err()
        );
    }
}
