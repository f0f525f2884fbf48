//! # hetpart-inspire
//!
//! The compiler front end of the hetpart framework: a small OpenCL-C-like
//! kernel language, an INSPIRE-like typed intermediate representation,
//! static program-feature extraction, a buffer access-range analysis, and a
//! register-bytecode virtual machine that functionally executes kernels on
//! host buffers while counting dynamic operations per basic block.
//!
//! The paper's Insieme compiler translates single-device OpenCL programs
//! into the INSPIRE IR, extracts *static program features* from it, and
//! hands the IR to a backend that emits multi-device code. This crate plays
//! the same role: [`compile`] takes kernel source text and produces a
//! [`CompiledKernel`] bundling the typed IR, the static feature vector, the
//! per-buffer access summaries used by the runtime to plan partial
//! transfers, and executable bytecode.
//!
//! ## Example
//!
//! ```
//! use hetpart_inspire::{compile, vm::{Vm, BufferData, ArgValue}, NdRange};
//!
//! let src = r#"
//!     kernel void vec_add(global const float* a, global const float* b,
//!                         global float* c, int n) {
//!         int i = get_global_id(0);
//!         if (i < n) { c[i] = a[i] + b[i]; }
//!     }
//! "#;
//! let k = compile(src).unwrap();
//! assert_eq!(k.name, "vec_add");
//!
//! let mut bufs = vec![
//!     BufferData::F32(vec![1.0, 2.0, 3.0, 4.0]),
//!     BufferData::F32(vec![10.0, 20.0, 30.0, 40.0]),
//!     BufferData::F32(vec![0.0; 4]),
//! ];
//! let args = vec![
//!     ArgValue::Buffer(0), ArgValue::Buffer(1), ArgValue::Buffer(2),
//!     ArgValue::Int(4),
//! ];
//! let mut vm = Vm::new();
//! vm.run_range(&k.bytecode, &NdRange::d1(4), 0..4, &args, &mut bufs)
//!   .unwrap();
//! assert_eq!(bufs[2].as_f32().unwrap(), &[11.0, 22.0, 33.0, 44.0]);
//! ```

// Panics in the compiler are miscompiles waiting to happen: outside of
// tests, every fallible step must surface a typed `CompileError` (or an
// explicitly justified `unreachable!`) instead of unwrapping.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Every `unsafe` block states why it is sound.
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod access;
pub mod analysis;
pub mod ast;
pub mod builtins;
pub mod bytecode;
pub mod cfg;
pub mod error;
pub mod features;
pub mod ir;
pub mod lexer;
pub mod opt;
pub mod parser;
pub mod pretty;
pub mod sema;
pub mod token;
pub mod vm;
mod vm_batch;
mod vm_mem;

pub use access::{AccessSummary, BufferAccess};
pub use bytecode::Function;
pub use error::{CompileError, VmError};
pub use features::StaticFeatures;
pub use ir::{Kernel, NdRange, ScalarType};
pub use opt::{OptLevel, RegAlloc};
pub use vm_batch::Tier;

/// A fully compiled kernel: typed IR plus every analysis product the
/// runtime and the machine-learning pipeline consume.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Kernel name as written in the source.
    pub name: String,
    /// Typed INSPIRE-like IR (used by analyses and for inspection).
    pub ir: Kernel,
    /// Static program features extracted from the IR at "compile time".
    pub static_features: StaticFeatures,
    /// Per-buffer access summaries for transfer planning.
    pub access: AccessSummary,
    /// Executable register bytecode.
    pub bytecode: Function,
    /// Cheap stable identity: FNV-1a over the kernel name and a canonical
    /// rendering of the **optimized bytecode** (params + blocks). Two
    /// kernels that compile to identical code share a fingerprint — in
    /// particular, source-level differences the optimizer erases (dead
    /// statements after an early `return`, constant spelling) collapse to
    /// one fingerprint, so the deployment service's prediction cache sees
    /// one `PlanKey` for them. Compiling at a different [`OptLevel`]
    /// changes the bytecode and therefore the fingerprint.
    pub fingerprint: u64,
}

/// FNV-1a over a byte string (the fingerprint hash).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Compile kernel source text containing exactly one `kernel` function.
///
/// Returns a [`CompileError`] describing the first problem found, with a
/// byte offset into `src`. Compiles at the default modes,
/// [`OptLevel::Full`] and [`RegAlloc::On`].
pub fn compile(src: &str) -> Result<CompiledKernel, CompileError> {
    compile_with_modes(src, OptLevel::Full, RegAlloc::On)
}

/// [`compile`] at an explicit optimization level and register-allocation
/// mode.
pub fn compile_with_modes(
    src: &str,
    level: OptLevel,
    regalloc: RegAlloc,
) -> Result<CompiledKernel, CompileError> {
    let kernels = compile_all_with_modes(src, level, regalloc)?;
    let n = kernels.len();
    match kernels.into_iter().next() {
        Some(k) if n == 1 => Ok(k),
        _ => Err(CompileError::other(format!(
            "expected exactly one kernel in translation unit, found {n}"
        ))),
    }
}

/// Compile kernel source text containing one or more `kernel` functions.
pub fn compile_all(src: &str) -> Result<Vec<CompiledKernel>, CompileError> {
    compile_all_with_modes(src, OptLevel::Full, RegAlloc::On)
}

/// [`compile_all`] at an explicit optimization level and register-allocation
/// mode.
pub fn compile_all_with_modes(
    src: &str,
    level: OptLevel,
    regalloc: RegAlloc,
) -> Result<Vec<CompiledKernel>, CompileError> {
    let tokens = lexer::lex(src)?;
    let program = parser::parse(&tokens)?;
    program
        .kernels
        .into_iter()
        .map(|k| {
            let ir = sema::analyze(&k)?;
            let mut static_features = features::extract(&ir);
            let access = access::analyze(&ir);
            let bytecode = bytecode::compile_with_modes(&ir, level, regalloc)?;
            // The uniformity analysis runs on the optimized bytecode, so
            // its branch classification lands here rather than in
            // `features::extract`.
            let uni = analysis::uniform::analyze(&bytecode);
            static_features.uniform_branches = uni.uniform_branches;
            static_features.divergent_branches = uni.divergent_branches;
            let fingerprint = fnv1a(
                format!(
                    "{}\u{0}{:?}\u{0}{:?}",
                    bytecode.name, bytecode.params, bytecode.blocks
                )
                .as_bytes(),
            );
            Ok(CompiledKernel {
                name: ir.name.clone(),
                ir,
                static_features,
                access,
                bytecode,
                fingerprint,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_rejects_empty_source() {
        assert!(compile("").is_err());
    }

    #[test]
    fn compile_rejects_two_kernels_via_single_entry() {
        let src = "kernel void a(int n) { } kernel void b(int n) { }";
        assert!(compile(src).is_err());
        assert_eq!(compile_all(src).unwrap().len(), 2);
    }

    #[test]
    fn uniformity_features_are_filled_after_codegen() {
        let guarded =
            compile("kernel void k(global float* o, int n) { int i = get_global_id(0); if (i < n) { o[i] = 1.0; } }")
                .unwrap();
        assert!(guarded.static_features.divergent_branches >= 1);
        let unguarded =
            compile("kernel void k(global float* o) { o[get_global_id(0)] = 1.0; }").unwrap();
        assert_eq!(unguarded.static_features.divergent_branches, 0);
    }

    #[test]
    fn fingerprint_is_stable_and_distinguishes_kernels() {
        let a = "kernel void k(global float* o) { o[get_global_id(0)] = 1.0; }";
        let b = "kernel void k(global float* o) { o[get_global_id(0)] = 2.0; }";
        assert_eq!(
            compile(a).unwrap().fingerprint,
            compile(a).unwrap().fingerprint
        );
        assert_ne!(
            compile(a).unwrap().fingerprint,
            compile(b).unwrap().fingerprint
        );
    }

    #[test]
    fn dead_code_after_return_does_not_change_the_fingerprint() {
        // Statements after `return` compile into orphan blocks that the
        // optimizer eliminates, so these two semantically identical
        // kernels must share a fingerprint (and therefore a `PlanKey`).
        let clean = "kernel void k(global float* o, int n) {
            int i = get_global_id(0);
            if (i >= n) { return; }
            o[i] = 1.0;
        }";
        let with_dead = "kernel void k(global float* o, int n) {
            int i = get_global_id(0);
            if (i >= n) { return; o[i] = 3.0; o[i] = 4.0; }
            o[i] = 1.0;
        }";
        let a = compile_with_modes(clean, OptLevel::Full, RegAlloc::On).unwrap();
        let b = compile_with_modes(with_dead, OptLevel::Full, RegAlloc::On).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.bytecode.blocks, b.bytecode.blocks);
        // Unoptimized, the dead statements inflate the code and split the
        // fingerprints — the regression this guards against.
        let an = compile_with_modes(clean, OptLevel::None, RegAlloc::On).unwrap();
        let bn = compile_with_modes(with_dead, OptLevel::None, RegAlloc::On).unwrap();
        assert_ne!(an.fingerprint, bn.fingerprint);
    }

    #[test]
    fn regalloc_mode_changes_the_fingerprint() {
        // Register allocation rewrites the blocks, so the fingerprint —
        // FNV over params + blocks — distinguishes the two modes whenever
        // the allocation is not the identity (this kernel has a
        // collapsible temp chain, so it is not).
        let src = "kernel void k(global const float* a, global float* o, int n) {
            int i = get_global_id(0);
            float x = a[i % n];
            float y = x * 2.0;
            float z = y + 1.0;
            if (i < n) { o[i] = z; }
        }";
        let on = compile_with_modes(src, OptLevel::Full, RegAlloc::On).unwrap();
        let off = compile_with_modes(src, OptLevel::Full, RegAlloc::Off).unwrap();
        assert_ne!(on.fingerprint, off.fingerprint);
        assert!(on.bytecode.n_fregs <= off.bytecode.n_fregs);
        assert_eq!(on.bytecode.num_instrs(), off.bytecode.num_instrs());
    }

    #[test]
    fn opt_level_changes_the_fingerprint() {
        let src = "kernel void k(global float* o, int n) {
            int i = get_global_id(0);
            if (i < n) { o[i] = 2.0 * 3.0; }
        }";
        let full = compile_with_modes(src, OptLevel::Full, RegAlloc::On).unwrap();
        let none = compile_with_modes(src, OptLevel::None, RegAlloc::On).unwrap();
        assert_ne!(full.fingerprint, none.fingerprint);
        assert!(full.bytecode.num_instrs() < none.bytecode.num_instrs());
    }
}
