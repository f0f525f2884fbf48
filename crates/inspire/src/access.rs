//! Buffer access-range analysis.
//!
//! The multi-device runtime only wants to move the bytes a device chunk
//! will actually touch. This module computes, for a kernel and a concrete
//! launch (scalar argument values + a sub-range of the NDRange), a
//! conservative interval of element indices each buffer parameter may read
//! and may write, via interval abstract interpretation of the IR:
//!
//! * `get_global_id(d)` evaluates to the chunk's bounds in dimension `d`;
//! * integer scalar parameters evaluate to their exact runtime values;
//! * canonical `for (v = a; v < b; v += s)` loops bound their induction
//!   variable; every other variable assigned inside a loop is widened to ⊤;
//! * values loaded from memory are ⊤ (data-dependent indexing ⇒ transfer
//!   the whole buffer — the same conservative policy the Insieme runtime
//!   applies when its analysis cannot prove an access range).
//!
//! Any ⊤ index widens that buffer's range to "whole buffer".

use crate::ast::BinOp;
use crate::builtins::Builtin;
use crate::ir::{Expr, ExprKind, Kernel, ParamId, ScalarType, Stmt, VarId};

/// Static per-buffer read/write classification (computed at compile time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSummary {
    /// One entry per kernel parameter (scalars get `is_read = is_written =
    /// false`).
    pub buffers: Vec<BufferAccess>,
}

/// Whether a parameter's buffer is read and/or written anywhere in the
/// kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferAccess {
    pub param: ParamId,
    pub is_read: bool,
    pub is_written: bool,
}

/// Compute the static read/write sets of a kernel.
pub fn analyze(k: &Kernel) -> AccessSummary {
    let mut buffers: Vec<BufferAccess> = (0..k.params.len())
        .map(|i| BufferAccess {
            param: ParamId(i as u32),
            is_read: false,
            is_written: false,
        })
        .collect();
    fn walk_expr(e: &Expr, buffers: &mut [BufferAccess]) {
        match &e.kind {
            ExprKind::Load { buf, index } => {
                buffers[buf.0 as usize].is_read = true;
                walk_expr(index, buffers);
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                walk_expr(lhs, buffers);
                walk_expr(rhs, buffers);
            }
            ExprKind::Unary { operand, .. } | ExprKind::Cast(operand) => {
                walk_expr(operand, buffers)
            }
            ExprKind::Call { args, .. } => args.iter().for_each(|a| walk_expr(a, buffers)),
            ExprKind::Select { cond, then, els } => {
                walk_expr(cond, buffers);
                walk_expr(then, buffers);
                walk_expr(els, buffers);
            }
            _ => {}
        }
    }
    fn walk_stmt(s: &Stmt, buffers: &mut [BufferAccess]) {
        match s {
            Stmt::Decl { init, .. } | Stmt::AssignVar { value: init, .. } => {
                walk_expr(init, buffers)
            }
            Stmt::Store { buf, index, value } => {
                buffers[buf.0 as usize].is_written = true;
                walk_expr(index, buffers);
                walk_expr(value, buffers);
            }
            Stmt::If { cond, then, els } => {
                walk_expr(cond, buffers);
                then.iter().for_each(|s| walk_stmt(s, buffers));
                els.iter().for_each(|s| walk_stmt(s, buffers));
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    walk_stmt(i, buffers);
                }
                if let Some(c) = cond {
                    walk_expr(c, buffers);
                }
                if let Some(st) = step {
                    walk_stmt(st, buffers);
                }
                body.iter().for_each(|s| walk_stmt(s, buffers));
            }
            Stmt::While { cond, body } => {
                walk_expr(cond, buffers);
                body.iter().for_each(|s| walk_stmt(s, buffers));
            }
            Stmt::Block(body) => body.iter().for_each(|s| walk_stmt(s, buffers)),
            Stmt::Break | Stmt::Continue | Stmt::Return => {}
        }
    }
    for s in &k.body {
        walk_stmt(s, &mut buffers);
    }
    AccessSummary { buffers }
}

/// An integer interval, or ⊤ (unbounded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interval {
    /// `lo..=hi` (always `lo <= hi`).
    Range(i64, i64),
    /// Unknown.
    Top,
}

// The arithmetic methods deliberately shadow the `std::ops` names: they
// are abstract transfer functions over intervals (with ⊤ and overflow
// fallbacks), not the concrete operators, and spelling them `x.add(y)`
// keeps the abstract-interpretation transfer tables readable.
#[allow(clippy::should_implement_trait)]
impl Interval {
    /// Exact singleton value.
    pub fn exact(v: i64) -> Self {
        Interval::Range(v, v)
    }

    /// Does the interval contain the concrete value `v`?
    pub fn contains(self, v: i64) -> bool {
        match self {
            Interval::Range(lo, hi) => lo <= v && v <= hi,
            Interval::Top => true,
        }
    }

    /// Smallest interval containing both operands (the lattice join).
    pub fn union(self, other: Interval) -> Interval {
        match (self, other) {
            (Interval::Range(a, b), Interval::Range(c, d)) => Interval::Range(a.min(c), b.max(d)),
            _ => Interval::Top,
        }
    }

    /// Largest interval contained in both operands, or `None` when they
    /// are disjoint. Used for branch-condition refinement.
    pub fn intersect(self, other: Interval) -> Option<Interval> {
        match (self, other) {
            (Interval::Range(a, b), Interval::Range(c, d)) => {
                let (lo, hi) = (a.max(c), b.min(d));
                (lo <= hi).then_some(Interval::Range(lo, hi))
            }
            (x, Interval::Top) | (Interval::Top, x) => Some(x),
        }
    }

    /// Standard widening: any bound that moved since `prev` jumps to the
    /// corresponding infinity (the saturated `i64` extreme), so ascending
    /// chains at loop headers stabilize in at most two steps per bound.
    pub fn widen_from(self, prev: Interval) -> Interval {
        match (prev, self) {
            (Interval::Range(a, b), Interval::Range(c, d)) => {
                let lo = if c < a { i64::MIN } else { a.min(c) };
                let hi = if d > b { i64::MAX } else { b.max(d) };
                Interval::Range(lo, hi)
            }
            _ => Interval::Top,
        }
    }

    /// Evaluate `f` at the four endpoint pairs and take the hull.
    ///
    /// Sound only for operators that attain their extremes at box corners
    /// — i.e. operators monotone in each argument separately over the
    /// given intervals (add, sub, mul, min, max, and div with a
    /// single-signed divisor all qualify; rem does **not**, see
    /// [`Interval::rem`]). `None` from `f` (overflow) goes to ⊤.
    fn map2(self, other: Interval, f: impl Fn(i64, i64) -> Option<i64>) -> Interval {
        let (Interval::Range(a, b), Interval::Range(c, d)) = (self, other) else {
            return Interval::Top;
        };
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for &x in &[a, b] {
            for &y in &[c, d] {
                match f(x, y) {
                    Some(v) => {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    None => return Interval::Top,
                }
            }
        }
        Interval::Range(lo, hi)
    }

    pub fn add(self, o: Interval) -> Interval {
        self.map2(o, i64::checked_add)
    }

    pub fn sub(self, o: Interval) -> Interval {
        self.map2(o, i64::checked_sub)
    }

    /// Negative-operand soundness: `x*y` is monotone in `x` for fixed `y`
    /// (increasing for `y >= 0`, decreasing for `y < 0`) and vice versa,
    /// so the extremes over a box lie at its corners regardless of sign;
    /// `checked_mul` turns the sole wrapping corner (overflow) into ⊤.
    pub fn mul(self, o: Interval) -> Interval {
        self.map2(o, i64::checked_mul)
    }

    /// Negative-operand soundness: guarded on a divisor interval that
    /// excludes 0, truncated division is monotone in the dividend and —
    /// separately on the all-positive / all-negative divisor ranges the
    /// guard enforces — monotone in the divisor, so endpoint evaluation
    /// is exact; `checked_div` turns `i64::MIN / -1` into ⊤.
    pub fn div(self, o: Interval) -> Interval {
        // Conservative: only divide when the divisor interval excludes 0.
        match o {
            Interval::Range(c, d) if c > 0 || d < 0 => self.map2(o, i64::checked_div),
            _ => Interval::Top,
        }
    }

    /// `rem` is **not** corner-monotone (`7 % 4 = 3` beats both `7 % 3`
    /// and `7 % 5`), so it never uses `Interval::map2`: for `x >= 0`
    /// and divisors in `[c, d]` with `c > 0`, `x % y` lies in
    /// `[0, min(d-1, x_hi)]` (`x % y <= x` for non-negative `x`). Any
    /// negative operand falls to ⊤ — the sign of a truncated remainder
    /// follows the dividend, so a corner formula would be unsound there.
    pub fn rem(self, o: Interval) -> Interval {
        match (self, o) {
            (Interval::Range(a, b), Interval::Range(c, d)) if a >= 0 && c > 0 => {
                Interval::Range(0, (d - 1).min(b))
            }
            _ => Interval::Top,
        }
    }

    pub fn min_i(self, o: Interval) -> Interval {
        self.map2(o, |x, y| Some(x.min(y)))
    }

    pub fn max_i(self, o: Interval) -> Interval {
        self.map2(o, |x, y| Some(x.max(y)))
    }
}

/// Concrete launch context for the range analysis.
#[derive(Debug, Clone)]
pub struct LaunchBounds {
    /// Inclusive `get_global_id(d)` bounds per dimension (index 0..3).
    pub gid: [(i64, i64); 3],
    /// `get_global_size(d)` per dimension.
    pub gsize: [i64; 3],
    /// Per-parameter scalar values (`None` for buffers and float scalars).
    pub scalars: Vec<Option<i64>>,
}

/// The result of the range analysis for one buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferRange {
    /// The kernel does not access this buffer in this chunk context.
    Untouched,
    /// Accesses lie within `lo..=hi` (element indices; may need clamping to
    /// the actual buffer length by the caller).
    Exact { lo: i64, hi: i64 },
    /// The analysis could not bound the accesses: treat as whole-buffer.
    Whole,
}

impl BufferRange {
    /// Grow the range to also cover `iv` (⊤ forces [`BufferRange::Whole`]).
    pub fn widen(&mut self, iv: Interval) {
        let new = match iv {
            Interval::Top => BufferRange::Whole,
            Interval::Range(lo, hi) => BufferRange::Exact { lo, hi },
        };
        *self = match (*self, new) {
            (BufferRange::Whole, _) | (_, BufferRange::Whole) => BufferRange::Whole,
            (BufferRange::Untouched, n) => n,
            (e @ BufferRange::Exact { .. }, BufferRange::Untouched) => e,
            (BufferRange::Exact { lo: a, hi: b }, BufferRange::Exact { lo: c, hi: d }) => {
                BufferRange::Exact {
                    lo: a.min(c),
                    hi: b.max(d),
                }
            }
        };
    }
}

/// Per-buffer read and write ranges for one launch chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRanges {
    /// Indexed by parameter position.
    pub read: Vec<BufferRange>,
    /// Indexed by parameter position.
    pub write: Vec<BufferRange>,
}

/// Run the interval analysis for a kernel under the given launch bounds.
pub fn access_ranges(k: &Kernel, bounds: &LaunchBounds) -> AccessRanges {
    let mut interp = AbstractInterp {
        k,
        bounds,
        env: vec![Interval::Top; k.var_types.len()],
        read: vec![BufferRange::Untouched; k.params.len()],
        write: vec![BufferRange::Untouched; k.params.len()],
    };
    for s in &k.body {
        interp.stmt(s);
    }
    AccessRanges {
        read: interp.read,
        write: interp.write,
    }
}

struct AbstractInterp<'a> {
    k: &'a Kernel,
    bounds: &'a LaunchBounds,
    env: Vec<Interval>,
    read: Vec<BufferRange>,
    write: Vec<BufferRange>,
}

impl<'a> AbstractInterp<'a> {
    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl { var, init } | Stmt::AssignVar { var, value: init } => {
                let iv = self.eval(init);
                self.env[var.0 as usize] = iv;
            }
            Stmt::Store { buf, index, value } => {
                let iv = self.eval(index);
                self.write[buf.0 as usize].widen(iv);
                self.eval(value);
            }
            Stmt::If { cond, then, els } => {
                self.eval(cond);
                let before = self.env.clone();
                then.iter().for_each(|s| self.stmt(s));
                let after_then = std::mem::replace(&mut self.env, before);
                els.iter().for_each(|s| self.stmt(s));
                for (e, t) in self.env.iter_mut().zip(after_then) {
                    *e = e.union(t);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(i);
                }
                // Try the canonical bounded-loop pattern.
                let canonical = canonical_for_var(init.as_deref(), cond.as_ref());
                let mut assigned = Vec::new();
                body.iter().for_each(|s| collect_assigned(s, &mut assigned));
                if let Some(st) = step {
                    collect_assigned(st, &mut assigned);
                }
                match canonical {
                    Some((var, limit, inclusive)) => {
                        let init_iv = self.env[var.0 as usize];
                        let limit_iv = self.eval(limit);
                        let var_iv = match (init_iv, limit_iv) {
                            (Interval::Range(a, _), Interval::Range(_, d)) => {
                                let hi = if inclusive { d } else { d - 1 };
                                if hi >= a {
                                    Interval::Range(a, hi)
                                } else {
                                    // Loop may not execute; keep the init
                                    // value as the only possibility.
                                    init_iv
                                }
                            }
                            _ => Interval::Top,
                        };
                        for v in &assigned {
                            if *v != var {
                                self.env[v.0 as usize] = Interval::Top;
                            }
                        }
                        self.env[var.0 as usize] = var_iv;
                    }
                    None => {
                        for v in &assigned {
                            self.env[v.0 as usize] = Interval::Top;
                        }
                        if let Some(c) = cond {
                            self.eval(c);
                        }
                    }
                }
                body.iter().for_each(|s| self.stmt(s));
                if let Some(st) = step {
                    self.stmt(st);
                }
                // After the loop the induction variable has stepped past the
                // bound; widen everything that the loop touched.
                for v in &assigned {
                    self.env[v.0 as usize] = Interval::Top;
                }
                if let Some((var, _, _)) = canonical {
                    self.env[var.0 as usize] = Interval::Top;
                }
            }
            Stmt::While { cond, body } => {
                let mut assigned = Vec::new();
                body.iter().for_each(|s| collect_assigned(s, &mut assigned));
                for v in &assigned {
                    self.env[v.0 as usize] = Interval::Top;
                }
                self.eval(cond);
                body.iter().for_each(|s| self.stmt(s));
            }
            Stmt::Block(body) => body.iter().for_each(|s| self.stmt(s)),
            Stmt::Break | Stmt::Continue | Stmt::Return => {}
        }
    }

    fn eval(&mut self, e: &Expr) -> Interval {
        match &e.kind {
            ExprKind::IntConst(v) => Interval::exact(*v),
            ExprKind::FloatConst(_) => Interval::Top,
            ExprKind::BoolConst(b) => Interval::exact(i64::from(*b)),
            ExprKind::Var(v) => {
                if self.k.var_types[v.0 as usize].is_integer()
                    || self.k.var_types[v.0 as usize] == ScalarType::Bool
                {
                    self.env[v.0 as usize]
                } else {
                    Interval::Top
                }
            }
            ExprKind::Param(p) => self
                .bounds
                .scalars
                .get(p.0 as usize)
                .copied()
                .flatten()
                .map_or(Interval::Top, Interval::exact),
            ExprKind::GlobalId(d) => {
                let (lo, hi) = self.bounds.gid[*d as usize];
                Interval::Range(lo, hi)
            }
            ExprKind::GlobalSize(d) => Interval::exact(self.bounds.gsize[*d as usize]),
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs);
                let r = self.eval(rhs);
                match op {
                    BinOp::Add => l.add(r),
                    BinOp::Sub => l.sub(r),
                    BinOp::Mul => l.mul(r),
                    BinOp::Div => l.div(r),
                    BinOp::Rem => l.rem(r),
                    BinOp::Shl => l.mul(pow2(r)),
                    BinOp::Shr => l.div(pow2(r)),
                    BinOp::Lt
                    | BinOp::Le
                    | BinOp::Gt
                    | BinOp::Ge
                    | BinOp::Eq
                    | BinOp::Ne
                    | BinOp::LogAnd
                    | BinOp::LogOr => Interval::Range(0, 1),
                    BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor => {
                        // Masking with a non-negative constant bounds the result.
                        if *op == BinOp::BitAnd {
                            if let Interval::Range(c, d) = r {
                                if c >= 0 {
                                    return Interval::Range(0, d);
                                }
                            }
                            if let Interval::Range(c, d) = l {
                                if c >= 0 {
                                    return Interval::Range(0, d);
                                }
                            }
                        }
                        Interval::Top
                    }
                }
            }
            ExprKind::Unary { op, operand } => {
                let o = self.eval(operand);
                match op {
                    crate::ast::UnOp::Neg => Interval::exact(0).sub(o),
                    crate::ast::UnOp::Not => Interval::Range(0, 1),
                    crate::ast::UnOp::BitNot => Interval::Top,
                }
            }
            ExprKind::Cast(inner) => {
                let iv = self.eval(inner);
                // int<->uint casts preserve small non-negative ranges;
                // float-involved casts are unbounded.
                if inner.ty == ScalarType::Float || e.ty == ScalarType::Float {
                    Interval::Top
                } else {
                    iv
                }
            }
            ExprKind::Load { buf, index } => {
                let iv = self.eval(index);
                self.read[buf.0 as usize].widen(iv);
                Interval::Top
            }
            ExprKind::Call { f, args } => {
                let ivs: Vec<Interval> = args.iter().map(|a| self.eval(a)).collect();
                match f {
                    Builtin::IMin => ivs[0].min_i(ivs[1]),
                    Builtin::IMax => ivs[0].max_i(ivs[1]),
                    Builtin::IAbs => match ivs[0] {
                        Interval::Range(a, b) if a >= 0 => Interval::Range(a, b),
                        Interval::Range(a, b) => {
                            Interval::Range(0, b.abs().max(a.checked_abs().unwrap_or(i64::MAX)))
                        }
                        Interval::Top => Interval::Top,
                    },
                    Builtin::IClamp => ivs[0].max_i(ivs[1]).min_i(ivs[2]),
                    _ => Interval::Top,
                }
            }
            ExprKind::Select { cond, then, els } => {
                self.eval(cond);
                let t = self.eval(then);
                let f = self.eval(els);
                t.union(f)
            }
        }
    }
}

fn pow2(iv: Interval) -> Interval {
    match iv {
        Interval::Range(a, b) if a >= 0 && b < 63 => Interval::Range(1 << a, 1 << b),
        _ => Interval::Top,
    }
}

/// Recognize `for (v = ...; v < limit; ...)` and return `(v, limit,
/// inclusive)`.
fn canonical_for_var<'a>(
    init: Option<&Stmt>,
    cond: Option<&'a Expr>,
) -> Option<(VarId, &'a Expr, bool)> {
    let var = match init? {
        Stmt::Decl { var, .. } | Stmt::AssignVar { var, .. } => *var,
        _ => return None,
    };
    let ExprKind::Binary { op, lhs, rhs } = &cond?.kind else {
        return None;
    };
    let ExprKind::Var(cv) = lhs.kind else {
        return None;
    };
    if cv != var {
        return None;
    }
    match op {
        BinOp::Lt => Some((var, rhs, false)),
        BinOp::Le => Some((var, rhs, true)),
        _ => None,
    }
}

fn collect_assigned(s: &Stmt, out: &mut Vec<VarId>) {
    match s {
        Stmt::Decl { var, .. } | Stmt::AssignVar { var, .. } => out.push(*var),
        Stmt::If { then, els, .. } => {
            then.iter().for_each(|s| collect_assigned(s, out));
            els.iter().for_each(|s| collect_assigned(s, out));
        }
        Stmt::For {
            init, step, body, ..
        } => {
            if let Some(i) = init {
                collect_assigned(i, out);
            }
            if let Some(st) = step {
                collect_assigned(st, out);
            }
            body.iter().for_each(|s| collect_assigned(s, out));
        }
        Stmt::While { body, .. } => body.iter().for_each(|s| collect_assigned(s, out)),
        Stmt::Block(body) => body.iter().for_each(|s| collect_assigned(s, out)),
        Stmt::Store { .. } | Stmt::Break | Stmt::Continue | Stmt::Return => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::sema::analyze as sema;

    fn kernel(src: &str) -> Kernel {
        let prog = parse(&lex(src).unwrap()).unwrap();
        sema(&prog.kernels[0]).unwrap()
    }

    fn bounds_1d(lo: i64, hi: i64, scalars: Vec<Option<i64>>) -> LaunchBounds {
        LaunchBounds {
            gid: [(lo, hi), (0, 0), (0, 0)],
            gsize: [hi + 1, 1, 1],
            scalars,
        }
    }

    #[test]
    fn static_read_write_sets() {
        let k = kernel(
            "kernel void k(global const float* a, global float* b, int n) {
                int i = get_global_id(0);
                b[i] = a[i] + b[i];
            }",
        );
        let s = analyze(&k);
        assert!(s.buffers[0].is_read && !s.buffers[0].is_written);
        assert!(s.buffers[1].is_read && s.buffers[1].is_written);
        assert!(!s.buffers[2].is_read && !s.buffers[2].is_written);
    }

    #[test]
    fn direct_gid_access_gives_chunk_range() {
        let k = kernel(
            "kernel void k(global const float* a, global float* c, int n) {
                int i = get_global_id(0);
                if (i < n) { c[i] = a[i]; }
            }",
        );
        let r = access_ranges(&k, &bounds_1d(10, 19, vec![None, None, Some(100)]));
        assert_eq!(r.read[0], BufferRange::Exact { lo: 10, hi: 19 });
        assert_eq!(r.write[1], BufferRange::Exact { lo: 10, hi: 19 });
        assert_eq!(r.read[1], BufferRange::Untouched);
    }

    #[test]
    fn row_major_2d_access_scales_by_width() {
        let k = kernel(
            "kernel void k(global const float* a, global float* c, int w) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                c[y * w + x] = a[y * w + x];
            }",
        );
        let b = LaunchBounds {
            gid: [(0, 7), (4, 5), (0, 0)],
            gsize: [8, 16, 1],
            scalars: vec![None, None, Some(8)],
        };
        let r = access_ranges(&k, &b);
        assert_eq!(r.read[0], BufferRange::Exact { lo: 32, hi: 47 });
        assert_eq!(r.write[1], BufferRange::Exact { lo: 32, hi: 47 });
    }

    #[test]
    fn indirect_access_is_whole_buffer() {
        let k = kernel(
            "kernel void k(global const int* idx, global const float* v, global float* o) {
                int i = get_global_id(0);
                o[i] = v[idx[i]];
            }",
        );
        let r = access_ranges(&k, &bounds_1d(0, 3, vec![None, None, None]));
        assert_eq!(r.read[0], BufferRange::Exact { lo: 0, hi: 3 });
        assert_eq!(r.read[1], BufferRange::Whole);
        assert_eq!(r.write[2], BufferRange::Exact { lo: 0, hi: 3 });
    }

    #[test]
    fn canonical_loop_bounds_induction_variable() {
        let k = kernel(
            "kernel void k(global const float* a, global float* o, int n) {
                int i = get_global_id(0);
                float s = 0.0;
                for (int j = 0; j < n; j++) { s += a[i * n + j]; }
                o[i] = s;
            }",
        );
        let r = access_ranges(&k, &bounds_1d(2, 3, vec![None, None, Some(10)]));
        // i in [2,3], j in [0,9] → index in [20, 39].
        assert_eq!(r.read[0], BufferRange::Exact { lo: 20, hi: 39 });
        assert_eq!(r.write[1], BufferRange::Exact { lo: 2, hi: 3 });
    }

    #[test]
    fn non_canonical_loop_widens_to_whole() {
        let k = kernel(
            "kernel void k(global const float* a, global float* o, int n) {
                int i = get_global_id(0);
                int j = 0;
                float s = 0.0;
                while (j < n) { s += a[j]; j += 1; }
                o[i] = s;
            }",
        );
        let r = access_ranges(&k, &bounds_1d(0, 1, vec![None, None, Some(10)]));
        assert_eq!(r.read[0], BufferRange::Whole);
    }

    #[test]
    fn stencil_halo_is_captured() {
        let k = kernel(
            "kernel void k(global const float* a, global float* o, int n) {
                int i = get_global_id(0);
                if (i > 0 && i < n - 1) {
                    o[i] = a[i - 1] + a[i] + a[i + 1];
                }
            }",
        );
        let r = access_ranges(&k, &bounds_1d(16, 31, vec![None, None, Some(64)]));
        assert_eq!(r.read[0], BufferRange::Exact { lo: 15, hi: 32 });
        assert_eq!(r.write[1], BufferRange::Exact { lo: 16, hi: 31 });
    }

    #[test]
    fn scalar_param_times_gsize() {
        let k = kernel(
            "kernel void k(global float* o, int n) {
                int i = get_global_id(0);
                o[i + get_global_size(0)] = 1.0;
            }",
        );
        let r = access_ranges(&k, &bounds_1d(0, 7, vec![None, Some(0)]));
        assert_eq!(r.write[0], BufferRange::Exact { lo: 8, hi: 15 });
    }

    #[test]
    fn if_branches_join() {
        let k = kernel(
            "kernel void k(global float* o, int n) {
                int i = get_global_id(0);
                int j = 0;
                if (i > 2) { j = 1; } else { j = 5; }
                o[j] = 0.0;
            }",
        );
        let r = access_ranges(&k, &bounds_1d(0, 7, vec![None, Some(0)]));
        assert_eq!(r.write[0], BufferRange::Exact { lo: 1, hi: 5 });
    }

    #[test]
    fn interval_arithmetic_is_sound_under_negation_and_mul() {
        let a = Interval::Range(-3, 4);
        let b = Interval::Range(2, 5);
        assert_eq!(a.mul(b), Interval::Range(-15, 20));
        assert_eq!(Interval::exact(0).sub(a), Interval::Range(-4, 3));
        assert_eq!(a.add(b), Interval::Range(-1, 9));
        assert_eq!(a.union(Interval::Top), Interval::Top);
    }

    #[test]
    fn division_by_interval_containing_zero_is_top() {
        let a = Interval::Range(0, 100);
        assert_eq!(a.div(Interval::Range(-1, 1)), Interval::Top);
        assert_eq!(a.div(Interval::Range(2, 2)), Interval::Range(0, 50));
    }

    #[test]
    fn modulo_bounds_result() {
        let k = kernel(
            "kernel void k(global float* o, int n) {
                int i = get_global_id(0);
                o[i % n] = 1.0;
            }",
        );
        let r = access_ranges(&k, &bounds_1d(0, 1000, vec![None, Some(16)]));
        assert_eq!(r.write[0], BufferRange::Exact { lo: 0, hi: 15 });
    }
}
