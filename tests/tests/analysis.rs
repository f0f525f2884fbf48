//! Integration tests for the bytecode static-analysis framework: the IR
//! verifier over the whole benchmark suite, mutation coverage for each
//! corruption class, agreement between the bytecode-level bounds analysis
//! and the IR-level access-range analysis, and bit-identity of the
//! bounds-check-elision fast paths.

use hetpart_inspire::access::{self, BufferRange, LaunchBounds};
use hetpart_inspire::analysis::{bounds, verify};
use hetpart_inspire::bytecode::{Instr, Terminator};
use hetpart_inspire::ir::ParamKind;
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
// Bounds analysis vs. the IR-level access-range analysis
// ---------------------------------------------------------------------

/// Hull of a `BufferRange` as an optional interval (`Untouched` = empty).
fn hull(r: &BufferRange) -> Option<(i64, i64)> {
    match r {
        BufferRange::Untouched => None,
        BufferRange::Exact { lo, hi } => Some((*lo, *hi)),
        BufferRange::Whole => Some((i64::MIN, i64::MAX)),
    }
}

fn launch_bounds(nd: &NdRange, args: &[ArgValue]) -> LaunchBounds {
    let mut gid = [(0i64, 0i64); 3];
    let mut gsize = [1i64; 3];
    for d in 0..3 {
        let e = nd.dim(d) as i64;
        gid[d] = (0, (e - 1).max(0));
        gsize[d] = e;
    }
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
        gsize,
        scalars,
    }
}

#[test]
fn bounds_analysis_agrees_with_the_ir_access_ranges() {
    for bench in hetpart_suite::all() {
        let k = bench.compile();
        let inst = bench.instance(bench.smallest_size());
        let Some(seed) =
            bounds::LaunchSeed::from_launch(&k.bytecode, &inst.nd, &inst.args, &inst.bufs)
        else {
            panic!(
                "{}: launch seed must build for a suite instance",
                bench.name
            );
        };
        let facts = bounds::analyze_launch(&k.bytecode, &seed);
        let ir = access::access_ranges(&k.ir, &launch_bounds(&inst.nd, &inst.args));
        for (p, (byte_r, ir_r)) in facts.read.iter().zip(&ir.read).enumerate() {
            check_agrees(bench.name, p, "read", byte_r, ir_r);
        }
        for (p, (byte_w, ir_w)) in facts.write.iter().zip(&ir.write).enumerate() {
            check_agrees(bench.name, p, "write", byte_w, ir_w);
        }
    }
}

/// Both analyses over-approximate the same concrete access set, so they
/// need not *refine* each other — widening at a strided loop header can
/// cost the bytecode analysis a lower bound the structural IR analysis
/// keeps, and dead-code elimination can remove an access the IR still
/// counts. What must hold: an access the bytecode sees, the IR sees too,
/// and any two non-empty ranges for the same parameter overlap.
fn check_agrees(name: &str, p: usize, what: &str, byte: &BufferRange, ir: &BufferRange) {
    let Some((blo, bhi)) = hull(byte) else {
        return;
    };
    let Some((ilo, ihi)) = hull(ir) else {
        panic!("{name}: param {p} {what} seen by the bytecode analysis but not the IR analysis");
    };
    assert!(
        blo <= ihi && ilo <= bhi,
        "{name}: param {p} {what} range [{blo}, {bhi}] from bytecode is \
         disjoint from the IR range [{ilo}, {ihi}]"
    );
}

#[test]
fn elision_facts_are_within_the_buffer_length() {
    let mut proved_any = false;
    for bench in hetpart_suite::all() {
        let k = bench.compile();
        let inst = bench.instance(bench.smallest_size());
        let Some(seed) =
            bounds::LaunchSeed::from_launch(&k.bytecode, &inst.nd, &inst.args, &inst.bufs)
        else {
            continue;
        };
        let facts = bounds::analyze_launch(&k.bytecode, &seed);
        for (p, param) in k.bytecode.params.iter().enumerate() {
            if p >= 64 || facts.elide & (1 << p) == 0 {
                continue;
            }
            proved_any = true;
            assert!(matches!(param.kind, ParamKind::Buffer { .. }));
            let len = seed.buf_len[p].unwrap_or(0) as i64;
            for r in [&facts.read[p], &facts.write[p]] {
                if let Some((lo, hi)) = hull(r) {
                    assert!(
                        lo >= 0 && hi < len,
                        "{}: param {p} elided but range [{lo}, {hi}] vs len {len}",
                        bench.name
                    );
                }
            }
        }
    }
    assert!(
        proved_any,
        "the bounds analysis proved no suite access in bounds — elision is vacuous"
    );
}

// ---------------------------------------------------------------------
// Elision A/B: bit-identical results, faults preserved
// ---------------------------------------------------------------------

/// One elision-on and one elision-off run: (outcome, buffers) for each.
type AbOutcome = (
    Result<(), VmError>,
    Vec<BufferData>,
    Result<(), VmError>,
    Vec<BufferData>,
);

fn run_ab(
    k: &CompiledKernel,
    nd: &NdRange,
    args: &[ArgValue],
    bufs: &[BufferData],
    lanes: bool,
) -> AbOutcome {
    let mut on = bufs.to_vec();
    let mut off = bufs.to_vec();
    let mut vm = Vm::new();
    vm.set_bounds_elide(Some(true));
    let r_on = if lanes {
        vm.run_range_lanes(&k.bytecode, nd, 0..nd.split_extent(), args, &mut on)
    } else {
        vm.run_range_scalar(&k.bytecode, nd, 0..nd.split_extent(), args, &mut on)
    };
    vm.set_bounds_elide(Some(false));
    let r_off = if lanes {
        vm.run_range_lanes(&k.bytecode, nd, 0..nd.split_extent(), args, &mut off)
    } else {
        vm.run_range_scalar(&k.bytecode, nd, 0..nd.split_extent(), args, &mut off)
    };
    (r_on.map(|_| ()), on, r_off.map(|_| ()), off)
}

#[test]
fn elision_is_bit_identical_across_the_suite() {
    for bench in hetpart_suite::all() {
        for (level, ra) in MODES {
            let k = bench.compile_with_modes(level, ra);
            let inst = bench.instance(bench.smallest_size());
            let outcomes = [false, true].map(|lanes| {
                let (r_on, on, r_off, off) = run_ab(&k, &inst.nd, &inst.args, &inst.bufs, lanes);
                assert_eq!(
                    r_on.is_ok(),
                    r_off.is_ok(),
                    "{} {level:?}/{ra:?} lanes={lanes}: outcome differs",
                    bench.name
                );
                assert_eq!(
                    on, off,
                    "{} {level:?}/{ra:?} lanes={lanes}: buffers differ with elision",
                    bench.name
                );
                (r_on, on)
            });
            // The scalar engine walks the enum blocks and the lane engine
            // the decoded ops, so this also holds decoding and fusion to
            // the reference at every compile mode.
            let [(s_out, s_bufs), (l_out, l_bufs)] = &outcomes;
            assert_eq!(
                s_out, l_out,
                "{} {level:?}/{ra:?}: lane outcome differs from scalar",
                bench.name
            );
            if s_out.is_ok() {
                assert_eq!(
                    s_bufs, l_bufs,
                    "{} {level:?}/{ra:?}: lane buffers differ from scalar",
                    bench.name
                );
            }
        }
    }
}

#[test]
fn elision_triggers_for_a_guarded_streaming_kernel() {
    let k = compiled(GUARDED);
    let n = 128usize;
    let bufs = vec![BufferData::F32(vec![1.0; n]), BufferData::F32(vec![0.0; n])];
    let args = vec![
        ArgValue::Buffer(0),
        ArgValue::Buffer(1),
        ArgValue::Int(n as i32),
    ];
    let mask = bounds::elide_mask(&k.bytecode, &NdRange::d1(n), &args, &bufs);
    assert!(
        mask & 0b11 == 0b11,
        "guarded `o[i] = a[i] * 2` must prove both buffers in bounds, got {mask:#b}"
    );
}

#[test]
fn elision_never_claims_an_out_of_bounds_access() {
    // `o[i + n]` is out of bounds for every work-item when `len(o) == n`.
    let k = compiled(
        "kernel void k(global float* o, int n) {
            int i = get_global_id(0);
            o[i + n] = 1.0;
        }",
    );
    let n = 64usize;
    let bufs = vec![BufferData::F32(vec![0.0; n])];
    let args = vec![ArgValue::Buffer(0), ArgValue::Int(n as i32)];
    let nd = NdRange::d1(n);
    let mask = bounds::elide_mask(&k.bytecode, &nd, &args, &bufs);
    assert_eq!(mask & 1, 0, "faulting access must not be elided");
    // And forcing elision on still reports the same fault: the mask, not
    // the switch, is what licenses the unchecked path.
    for lanes in [false, true] {
        let (r_on, _, r_off, _) = run_ab(&k, &nd, &args, &bufs, lanes);
        let on = r_on.expect_err("must fault");
        let off = r_off.expect_err("must fault");
        assert_eq!(format!("{on}"), format!("{off}"), "lanes={lanes}");
    }
}

#[test]
fn boundary_crossing_guard_is_not_elided_but_stays_identical() {
    // In-bounds for most items, out of bounds for the last 4 — the
    // analysis must refuse to elide, and both settings must fault with
    // the same error.
    let k = compiled(
        "kernel void k(global float* o, int n) {
            int i = get_global_id(0);
            o[i + 4] = 1.0;
        }",
    );
    let n = 64usize;
    let bufs = vec![BufferData::F32(vec![0.0; n])];
    let args = vec![ArgValue::Buffer(0), ArgValue::Int(n as i32)];
    let nd = NdRange::d1(n);
    assert_eq!(bounds::elide_mask(&k.bytecode, &nd, &args, &bufs) & 1, 0);
    for lanes in [false, true] {
        let (r_on, on, r_off, off) = run_ab(&k, &nd, &args, &bufs, lanes);
        assert_eq!(
            format!("{}", r_on.expect_err("must fault")),
            format!("{}", r_off.expect_err("must fault")),
        );
        // Partial effects before the fault must also match bit for bit.
        assert_eq!(on, off, "lanes={lanes}");
    }
}
