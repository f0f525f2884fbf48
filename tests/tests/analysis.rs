//! Integration tests for the static analyses: the IR verifier over the
//! whole benchmark suite, mutation coverage for each corruption class,
//! the IR-level access ranges the runtime sizes transfers with, checked
//! against execution, and the bounds checks both engines keep on every
//! access.

use std::ops::Range;

use hetpart_inspire::access::{self, BufferRange, LaunchBounds};
use hetpart_inspire::analysis::verify;
use hetpart_inspire::bytecode::{Instr, Terminator};
use hetpart_inspire::vm::{ArgValue, BufferData, Vm};
use hetpart_inspire::{compile_with_modes, CompiledKernel, NdRange, OptLevel, RegAlloc, VmError};

const MODES: [(OptLevel, RegAlloc); 4] = [
    (OptLevel::None, RegAlloc::Off),
    (OptLevel::None, RegAlloc::On),
    (OptLevel::Full, RegAlloc::Off),
    (OptLevel::Full, RegAlloc::On),
];

// ---------------------------------------------------------------------
// Verifier: the whole suite at every compilation mode
// ---------------------------------------------------------------------

#[test]
fn verifier_accepts_every_suite_kernel_at_every_mode() {
    for bench in hetpart_suite::all() {
        for (level, ra) in MODES {
            let k = bench.compile_with_modes(level, ra);
            verify::verify_function("suite", &k.bytecode).unwrap_or_else(|e| {
                panic!(
                    "{} at {level:?}/{ra:?} failed verification: {e}",
                    bench.name
                )
            });
        }
    }
}

// ---------------------------------------------------------------------
// Mutation coverage: each corruption class must be rejected
// ---------------------------------------------------------------------

fn compiled(src: &str) -> CompiledKernel {
    compile_with_modes(src, OptLevel::Full, RegAlloc::On).expect("compiles")
}

const GUARDED: &str = "kernel void k(global const float* a, global float* o, int n) {
    int i = get_global_id(0);
    if (i < n) { o[i] = a[i] * 2.0f; }
}";

#[test]
fn verifier_rejects_out_of_range_branch_target() {
    let mut k = compiled(GUARDED);
    let last = k.bytecode.blocks.len() - 1;
    k.bytecode.blocks[last].term = Terminator::Jump(9999);
    let e = verify::verify_blocks(
        "mutation",
        &k.bytecode.name,
        &k.bytecode.blocks,
        &k.bytecode.params,
        k.bytecode.n_iregs,
        k.bytecode.n_fregs,
    )
    .expect_err("must reject");
    assert!(e.message.contains("target 9999"), "{}", e.message);
}

#[test]
fn verifier_rejects_out_of_range_register() {
    let mut k = compiled(GUARDED);
    // A write beyond the allocated I register file. The instruction list
    // check fires before the histogram comparison.
    k.bytecode.blocks[0]
        .instrs
        .push(Instr::GlobalId { dst: 9999, dim: 0 });
    let e = verify::verify_function("mutation", &k.bytecode).expect_err("must reject");
    assert!(
        e.message.contains("writes i-register 9999"),
        "{}",
        e.message
    );
}

#[test]
fn verifier_rejects_out_of_range_dimension() {
    let mut k = compiled(GUARDED);
    k.bytecode.blocks[0]
        .instrs
        .push(Instr::GlobalId { dst: 0, dim: 7 });
    // Recompute so the earlier histogram check cannot mask the kind check.
    let n_params = k.bytecode.params.len();
    k.bytecode.blocks[0].recompute_histo(n_params);
    let e = verify::verify_blocks(
        "mutation",
        &k.bytecode.name,
        &k.bytecode.blocks,
        &k.bytecode.params,
        k.bytecode.n_iregs,
        k.bytecode.n_fregs,
    )
    .expect_err("must reject");
    assert!(e.message.contains("dimension 7"), "{}", e.message);
}

#[test]
fn verifier_rejects_stale_histogram() {
    let mut k = compiled(GUARDED);
    // Doctor the cached counts without touching the instruction list —
    // exactly what a buggy pass that forgets `recompute_histo` produces.
    k.bytecode.blocks[0].histo.classes[0] = k.bytecode.blocks[0].histo.classes[0].wrapping_add(1);
    let e = verify::verify_blocks(
        "mutation",
        &k.bytecode.name,
        &k.bytecode.blocks,
        &k.bytecode.params,
        k.bytecode.n_iregs,
        k.bytecode.n_fregs,
    )
    .expect_err("must reject");
    assert!(e.message.contains("stale histogram"), "{}", e.message);
}

#[test]
fn verifier_names_the_offending_pass() {
    let mut k = compiled(GUARDED);
    let last = k.bytecode.blocks.len() - 1;
    k.bytecode.blocks[last].term = Terminator::Jump(42);
    let e = verify::verify_blocks(
        "const-fold",
        "my_kernel",
        &k.bytecode.blocks,
        &k.bytecode.params,
        k.bytecode.n_iregs,
        k.bytecode.n_fregs,
    )
    .expect_err("must reject");
    assert!(
        e.message.contains("[const-fold] my_kernel"),
        "{}",
        e.message
    );
}

// ---------------------------------------------------------------------
// Access ranges cover every access the kernel makes
// ---------------------------------------------------------------------

/// The launch bounds the runtime sizes one chunk's transfers with: the
/// whole NDRange except `chunk` in the split dimension.
fn chunk_bounds(nd: &NdRange, chunk: &Range<usize>, args: &[ArgValue]) -> LaunchBounds {
    let mut gid = [(0i64, 0i64); 3];
    for (d, g) in gid.iter_mut().enumerate() {
        *g = (0, nd.dim(d) as i64 - 1);
    }
    gid[nd.split_dim()] = (chunk.start as i64, chunk.end as i64 - 1);
    let scalars = args
        .iter()
        .map(|a| match a {
            ArgValue::Int(v) => Some(i64::from(*v)),
            ArgValue::UInt(v) => Some(i64::from(*v)),
            _ => None,
        })
        .collect();
    LaunchBounds {
        gid,
        gsize: [nd.dim(0) as i64, nd.dim(1) as i64, nd.dim(2) as i64],
        scalars,
    }
}

/// How many leading elements of a buffer its read and write ranges
/// cover: one past the hull's upper end (0 when both are `Untouched`),
/// `None` when either is `Whole`.
fn covered_prefix(ranges: [BufferRange; 2]) -> Option<usize> {
    let mut len = 0;
    for r in ranges {
        match r {
            BufferRange::Untouched => {}
            BufferRange::Exact { hi, .. } => {
                len = len.max(usize::try_from(hi.saturating_add(1)).unwrap_or(0))
            }
            BufferRange::Whole => return None,
        }
    }
    Some(len)
}

fn truncate(b: &mut BufferData, len: usize) {
    match b {
        BufferData::F32(v) => v.truncate(len),
        BufferData::I32(v) => v.truncate(len),
        BufferData::U32(v) => v.truncate(len),
    }
}

/// The transfer sizes the runtime plans come from `access_ranges`, so an
/// access outside them would read data never sent or write data never
/// returned. For the whole NDRange and for its leading half, cut every
/// buffer to the prefix the chunk's ranges cover: the chunk must run
/// without a fault, writing exactly the full-size run's values into that
/// prefix.
#[test]
fn access_ranges_cover_every_suite_access() {
    let mut truncated_any = false;
    for bench in hetpart_suite::all() {
        let k = bench.compile();
        let inst = bench.instance(bench.smallest_size());
        let extent = inst.nd.split_extent();
        for chunk in [0..extent, 0..extent.div_ceil(2)] {
            let ranges = access::access_ranges(&k.ir, &chunk_bounds(&inst.nd, &chunk, &inst.args));
            // A buffer bound to several parameters keeps the longest prefix.
            let mut keep: Vec<Option<usize>> = vec![Some(0); inst.bufs.len()];
            for (p, arg) in inst.args.iter().enumerate() {
                let ArgValue::Buffer(b) = *arg else {
                    continue;
                };
                keep[b] = match (keep[b], covered_prefix([ranges.read[p], ranges.write[p]])) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    _ => None,
                };
            }
            let mut cut = inst.bufs.clone();
            for (b, keep) in cut.iter_mut().zip(&keep) {
                if let Some(n) = *keep {
                    truncated_any |= n < b.len();
                    truncate(b, n.min(b.len()));
                }
            }

            let ctx = format!("{} over items {chunk:?}", bench.name);
            let mut vm = Vm::new();
            let mut full = inst.bufs.clone();
            vm.run_range_scalar(&k.bytecode, &inst.nd, chunk.clone(), &inst.args, &mut full)
                .unwrap_or_else(|e| panic!("{ctx}: full-size run faulted: {e}"));
            vm.run_range_scalar(&k.bytecode, &inst.nd, chunk.clone(), &inst.args, &mut cut)
                .unwrap_or_else(|e| {
                    panic!("{ctx}: an access falls outside the access ranges: {e}")
                });
            for (b, (cut, full)) in cut.iter().zip(&full).enumerate() {
                let mut prefix = full.clone();
                truncate(&mut prefix, cut.len());
                assert_eq!(
                    *cut, prefix,
                    "{ctx}: buffer {b} differs from the full-size run"
                );
            }
        }
    }
    assert!(
        truncated_any,
        "no suite buffer was cut: the check is vacuous"
    );
}

// ---------------------------------------------------------------------
// Bounds checks: both engines fault alike on out-of-bounds shapes
// ---------------------------------------------------------------------

/// Run `o[i + offset] = 1.0` over `len(o) == n == 64` items on both
/// engines: each must return the `OutOfBounds` fault at index `n`, leave
/// the same partial writes behind, and have stored exactly `stored` ones.
fn assert_engines_fault_alike(offset: &str, stored: usize) {
    let n = 64usize;
    let k = compiled(&format!(
        "kernel void k(global float* o, int n) {{
            int i = get_global_id(0);
            o[i + {offset}] = 1.0;
        }}"
    ));
    let args = vec![ArgValue::Buffer(0), ArgValue::Int(n as i32)];
    let nd = NdRange::d1(n);
    let mut vm = Vm::new();
    let mut b_scalar = vec![BufferData::F32(vec![0.0; n])];
    let e_scalar = vm
        .run_range_scalar(&k.bytecode, &nd, 0..n, &args, &mut b_scalar)
        .expect_err("scalar engine must fault");
    let mut b_lanes = vec![BufferData::F32(vec![0.0; n])];
    let e_lanes = vm
        .run_range_lanes(&k.bytecode, &nd, 0..n, &args, &mut b_lanes)
        .expect_err("lane engine must fault");
    let fault = VmError::OutOfBounds {
        buffer: 0,
        index: n as i64,
        len: n,
    };
    assert_eq!(e_scalar, fault, "o[i + {offset}]");
    assert_eq!(e_lanes, fault, "o[i + {offset}]");
    assert_eq!(b_scalar, b_lanes, "o[i + {offset}]: partial writes differ");
    let ones = b_scalar[0].as_f32().unwrap().iter().filter(|&&x| x == 1.0);
    assert_eq!(ones.count(), stored, "o[i + {offset}]");
}

#[test]
fn elision_never_claims_an_out_of_bounds_access() {
    // `o[i + n]` is out of bounds for every work-item: the first item
    // faults before any store lands.
    assert_engines_fault_alike("n", 0);
}

#[test]
fn boundary_crossing_guard_is_not_elided_but_stays_identical() {
    // In bounds for items 0..n-4, out of bounds for the last 4: the lane
    // engine faults mid-batch, after the same stores as the scalar one.
    assert_engines_fault_alike("4", 64 - 4);
}
