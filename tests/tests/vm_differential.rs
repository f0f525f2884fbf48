//! Differential tests: the lane-batched VM engine against the scalar
//! reference engine.
//!
//! The lane engine must be a pure performance change: for every suite
//! kernel and every NDRange shape, buffers, block counters, and sample
//! statistics must be **bit-identical** to the scalar engine — including
//! divergent kernels with nested and looping branches (masked SIMT
//! reconvergence), randomly generated control-flow graphs, and sizes that
//! are not multiples of the lane width (which exercise the partial tail
//! batch). The scalar engine walks the enum blocks and the lane engine the
//! pre-decoded, fused op array, so every comparison here also checks
//! decoding and fusion against an independent implementation.

use hetpart_inspire::vm::{ArgValue, BufferData, Counters, Vm, LANES};
use hetpart_inspire::VmError;
use hetpart_inspire::{compile, compile_with_modes, CompiledKernel, NdRange, OptLevel, RegAlloc};
use proptest::prelude::*;

/// Run the scalar engine and the lane engine over the same range and
/// assert bitwise equality of buffers and counters. Returns the buffers
/// for further checks.
fn assert_range_parity(
    src: &str,
    nd: &NdRange,
    range: std::ops::Range<usize>,
    args: &[ArgValue],
    bufs: &[BufferData],
) -> (Vec<BufferData>, Counters) {
    assert_kernel_parity(&compile(src).unwrap(), nd, range, args, bufs)
}

/// [`assert_range_parity`] for an already compiled kernel.
fn assert_kernel_parity(
    k: &CompiledKernel,
    nd: &NdRange,
    range: std::ops::Range<usize>,
    args: &[ArgValue],
    bufs: &[BufferData],
) -> (Vec<BufferData>, Counters) {
    let mut vm = Vm::new();
    let mut scalar_bufs = bufs.to_vec();
    let scalar = vm
        .run_range_scalar(&k.bytecode, nd, range.clone(), args, &mut scalar_bufs)
        .unwrap();
    let mut lane_bufs = bufs.to_vec();
    let lanes = vm
        .run_range_lanes(&k.bytecode, nd, range, args, &mut lane_bufs)
        .unwrap();
    assert_eq!(scalar_bufs, lane_bufs, "buffers must be bit-identical");
    assert_eq!(scalar, lanes, "counters must be identical");
    (lane_bufs, lanes)
}

/// Assert that sampled execution — which additionally exposes per-lane
/// step counts through the mean/CV statistics — is bit-identical across
/// the scalar engine and the lane engine.
fn assert_sampled_parity(
    src: &str,
    nd: &NdRange,
    range: std::ops::Range<usize>,
    args: &[ArgValue],
    bufs: &[BufferData],
    max_items: usize,
) {
    let k = compile(src).unwrap();
    let mut vm = Vm::new();
    let mut b_scalar = bufs.to_vec();
    let s = vm
        .run_sampled_scalar(
            &k.bytecode,
            nd,
            range.clone(),
            args,
            &mut b_scalar,
            max_items,
        )
        .unwrap();
    let mut b_lanes = bufs.to_vec();
    let l = vm
        .run_sampled_lanes(&k.bytecode, nd, range, args, &mut b_lanes, max_items)
        .unwrap();
    assert_eq!(b_scalar, b_lanes, "sampled buffers");
    assert_eq!(s.counters, l.counters, "sampled counters");
    assert_eq!(
        s.mean_ops_per_item.to_bits(),
        l.mean_ops_per_item.to_bits(),
        "per-lane step counts feed the mean"
    );
    assert_eq!(s.ops_cv.to_bits(), l.ops_cv.to_bits(), "cv");
}

/// Four-way differential: the **unoptimized** scalar execution is the
/// semantic reference; the optimized bytecode — with and without register
/// allocation, on the scalar engine (enum walk) and on the lane engine
/// (decoded walk) — must produce identical buffers and identical fault
/// behavior. Step counts shrink under optimization, so counters are not
/// compared against the reference; but between the two allocation
/// variants they must be **bit-identical** (register allocation only
/// renames registers — it may not change which blocks execute, how often,
/// or what they cost).
fn assert_opt_parity(
    src: &str,
    nd: &NdRange,
    range: std::ops::Range<usize>,
    args: &[ArgValue],
    bufs: &[BufferData],
) {
    let reference = compile_with_modes(src, OptLevel::None, RegAlloc::On).unwrap();
    let noalloc = compile_with_modes(src, OptLevel::Full, RegAlloc::Off).unwrap();
    let optimized = compile_with_modes(src, OptLevel::Full, RegAlloc::On).unwrap();
    assert!(
        noalloc.bytecode.num_instrs() <= reference.bytecode.num_instrs(),
        "the optimizer must never grow the code"
    );
    assert_eq!(
        optimized.bytecode.num_instrs(),
        noalloc.bytecode.num_instrs(),
        "register allocation must only rename, never add or drop code"
    );
    assert!(
        optimized.bytecode.n_iregs <= noalloc.bytecode.n_iregs
            && optimized.bytecode.n_fregs <= noalloc.bytecode.n_fregs,
        "register allocation must never widen a register file"
    );
    // Renaming registers must leave every per-block static histogram (and
    // with it the dynamic-op accounting it feeds) untouched.
    for (bi, (a, b)) in noalloc
        .bytecode
        .blocks
        .iter()
        .zip(&optimized.bytecode.blocks)
        .enumerate()
    {
        assert_eq!(a.histo, b.histo, "bb{bi}: histogram drifted under regalloc");
    }
    let mut vm = Vm::new();
    let mut ref_bufs = bufs.to_vec();
    let ref_out = vm.run_range_scalar(&reference.bytecode, nd, range.clone(), args, &mut ref_bufs);

    // Scalar engine, both allocation variants; counters must agree
    // between the variants (same blocks, same costs — only register
    // names differ).
    let mut variant_counters = Vec::new();
    for (what, k) in [("noalloc", &noalloc), ("regalloc", &optimized)] {
        let mut opt_bufs = bufs.to_vec();
        let opt_out = vm.run_range_scalar(&k.bytecode, nd, range.clone(), args, &mut opt_bufs);
        assert_eq!(
            ref_out.is_ok(),
            opt_out.is_ok(),
            "{what}: optimized scalar fault behavior drifted: {ref_out:?} vs {opt_out:?}"
        );
        if let (Err(a), Err(b)) = (&ref_out, &opt_out) {
            assert_eq!(a, b, "{what}: optimized scalar fault kind drifted");
        }
        if ref_out.is_ok() {
            assert_eq!(
                ref_bufs, opt_bufs,
                "{what}: optimized scalar buffers drifted"
            );
        }
        variant_counters.push(opt_out.ok());
    }
    assert_eq!(
        variant_counters[0], variant_counters[1],
        "regalloc changed block counters on the scalar engine"
    );

    // Lane engine, both allocation variants.
    let mut variant_counters = Vec::new();
    for (what, k) in [("noalloc", &noalloc), ("regalloc", &optimized)] {
        let mut lane_bufs = bufs.to_vec();
        let lane_out = vm.run_range_lanes(&k.bytecode, nd, range.clone(), args, &mut lane_bufs);
        assert_eq!(
            ref_out.is_ok(),
            lane_out.is_ok(),
            "{what}: optimized lane fault behavior drifted"
        );
        if let (Err(a), Err(b)) = (&ref_out, &lane_out) {
            assert_eq!(a, b, "{what}: optimized lane fault kind drifted");
        }
        if ref_out.is_ok() {
            assert_eq!(
                ref_bufs, lane_bufs,
                "{what}: optimized lane buffers drifted"
            );
        }
        variant_counters.push(lane_out.ok());
    }
    assert_eq!(
        variant_counters[0], variant_counters[1],
        "regalloc changed block counters on the lane engine"
    );
}

// ---------------------------------------------------------------------
// Every suite kernel
// ---------------------------------------------------------------------

#[test]
fn every_suite_kernel_is_bit_identical_across_engines() {
    for bench in hetpart_suite::all() {
        let kernel = bench.compile();
        let inst = bench.instance(bench.smallest_size());
        let extent = inst.nd.split_extent();

        let mut vm = Vm::new();
        let mut scalar_bufs = inst.bufs.clone();
        let scalar = vm
            .run_range_scalar(
                &kernel.bytecode,
                &inst.nd,
                0..extent,
                &inst.args,
                &mut scalar_bufs,
            )
            .unwrap();
        let mut lane_bufs = inst.bufs.clone();
        let lanes = vm
            .run_range_lanes(
                &kernel.bytecode,
                &inst.nd,
                0..extent,
                &inst.args,
                &mut lane_bufs,
            )
            .unwrap();
        assert_eq!(scalar_bufs, lane_bufs, "{}: buffers differ", bench.name);
        assert_eq!(scalar, lanes, "{}: counters differ", bench.name);

        // The lane engine's output must still satisfy the benchmark's own
        // native reference.
        bench
            .check_outputs(&inst, &lane_bufs)
            .unwrap_or_else(|e| panic!("lane engine fails verification: {e}"));

        // An odd sub-range exercises chunked execution with a misaligned
        // tail batch.
        if extent >= 3 {
            let sub = (extent / 3)..(extent - 1);
            assert_range_parity(bench.source, &inst.nd, sub, &inst.args, &inst.bufs);
        }
    }
}

#[test]
fn every_suite_kernel_agrees_across_engines_at_every_compile_mode() {
    for bench in hetpart_suite::all() {
        let inst = bench.instance(bench.smallest_size());
        let extent = inst.nd.split_extent();
        for (level, ra) in [
            (OptLevel::None, RegAlloc::Off),
            (OptLevel::None, RegAlloc::On),
            (OptLevel::Full, RegAlloc::Off),
            (OptLevel::Full, RegAlloc::On),
        ] {
            let k = bench.compile_with_modes(level, ra);
            let mut vm = Vm::new();
            let mut scalar_bufs = inst.bufs.clone();
            let scalar = vm.run_range_scalar(
                &k.bytecode,
                &inst.nd,
                0..extent,
                &inst.args,
                &mut scalar_bufs,
            );
            let mut lane_bufs = inst.bufs.clone();
            let lanes =
                vm.run_range_lanes(&k.bytecode, &inst.nd, 0..extent, &inst.args, &mut lane_bufs);
            let ctx = format!("{} at {level:?}/{ra:?}", bench.name);
            assert_eq!(scalar, lanes, "{ctx}: outcome or counters differ");
            assert_eq!(scalar_bufs, lane_bufs, "{ctx}: buffers differ");
        }
    }
}

#[test]
fn every_suite_kernel_matches_the_unoptimized_reference() {
    // Three-way parity on the whole suite: unoptimized scalar is the
    // reference; optimized scalar and optimized lanes must agree with it
    // on every output buffer (and the native reference still passes).
    for bench in hetpart_suite::all() {
        let inst = bench.instance(bench.smallest_size());
        let extent = inst.nd.split_extent();
        assert_opt_parity(bench.source, &inst.nd, 0..extent, &inst.args, &inst.bufs);

        let optimized = bench.compile_with_modes(OptLevel::Full, RegAlloc::On);
        let mut bufs = inst.bufs.clone();
        let mut vm = Vm::new();
        vm.run_range(
            &optimized.bytecode,
            &inst.nd,
            0..extent,
            &inst.args,
            &mut bufs,
        )
        .unwrap_or_else(|e| panic!("{}: optimized execution faulted: {e}", bench.name));
        bench
            .check_outputs(&inst, &bufs)
            .unwrap_or_else(|e| panic!("optimized bytecode fails verification: {e}"));
    }
}

#[test]
fn regalloc_shrinks_register_files_on_every_suite_kernel() {
    // The point of the liveness-driven allocator is a denser register
    // file (the lane engine's SoA arrays scale as 64 × regs × 8 bytes):
    // neither file may ever grow on any suite kernel, and the mean width
    // across the suite must strictly shrink. (A per-kernel strict check
    // would be wrong: reduction_sum is already at its live minimum.)
    let mut total_before = 0u32;
    let mut total_after = 0u32;
    for bench in hetpart_suite::all() {
        let off = bench.compile_with_modes(OptLevel::Full, RegAlloc::Off);
        let on = bench.compile_with_modes(OptLevel::Full, RegAlloc::On);
        assert!(
            on.bytecode.n_iregs <= off.bytecode.n_iregs,
            "{}: I file grew ({} -> {})",
            bench.name,
            off.bytecode.n_iregs,
            on.bytecode.n_iregs
        );
        assert!(
            on.bytecode.n_fregs <= off.bytecode.n_fregs,
            "{}: F file grew ({} -> {})",
            bench.name,
            off.bytecode.n_fregs,
            on.bytecode.n_fregs
        );
        total_before += u32::from(off.bytecode.n_iregs + off.bytecode.n_fregs);
        total_after += u32::from(on.bytecode.n_iregs + on.bytecode.n_fregs);
    }
    assert!(
        total_after < total_before,
        "no suite-wide register-file reduction ({total_before} -> {total_after})"
    );
}

#[test]
fn optimized_code_keeps_per_item_fault_behavior() {
    // Faults must neither appear nor disappear under optimization. This
    // kernel divides by a loaded value that is zero for exactly one item;
    // constant folding and immediate fusion must leave that fault intact.
    let src = "kernel void k(global const int* a, global int* o, int n) {
        int i = get_global_id(0);
        int d = a[i];
        o[i] = (100 + n) / d;
    }";
    let n = 70usize;
    let mut data: Vec<i32> = (0..n as i32).map(|i| i + 1).collect();
    data[37] = 0;
    let bufs = vec![BufferData::I32(data), BufferData::I32(vec![0; n])];
    let args = vec![
        ArgValue::Buffer(0),
        ArgValue::Buffer(1),
        ArgValue::Int(n as i32),
    ];
    assert_opt_parity(src, &NdRange::d1(n), 0..n, &args, &bufs);

    // An out-of-bounds store near the end of the range: unreachable-block
    // elimination and DCE must not touch live stores.
    let oob = "kernel void k(global float* o, int n) {
        int i = get_global_id(0);
        o[i + (n - 4)] = (float)i * (2.0 * 3.0);
    }";
    let bufs = vec![BufferData::F32(vec![0.0; n])];
    let args = vec![ArgValue::Buffer(0), ArgValue::Int(n as i32)];
    assert_opt_parity(oob, &NdRange::d1(n), 0..n, &args, &bufs);
}

#[test]
fn suite_kernel_sampling_is_bit_identical_across_engines() {
    for bench in hetpart_suite::all() {
        let kernel = bench.compile();
        let inst = bench.instance(bench.smallest_size());
        let extent = inst.nd.split_extent();
        let mut vm = Vm::new();
        for max_items in [16usize, 100, usize::MAX] {
            let mut b1 = inst.bufs.clone();
            let s = vm
                .run_sampled_scalar(
                    &kernel.bytecode,
                    &inst.nd,
                    0..extent,
                    &inst.args,
                    &mut b1,
                    max_items,
                )
                .unwrap();
            let mut b2 = inst.bufs.clone();
            let l = vm
                .run_sampled_lanes(
                    &kernel.bytecode,
                    &inst.nd,
                    0..extent,
                    &inst.args,
                    &mut b2,
                    max_items,
                )
                .unwrap();
            assert_eq!(b1, b2, "{}: sampled buffers differ", bench.name);
            assert_eq!(s.counters, l.counters, "{}: sampled counters", bench.name);
            assert_eq!(s.sampled_items, l.sampled_items);
            assert_eq!(
                s.mean_ops_per_item.to_bits(),
                l.mean_ops_per_item.to_bits(),
                "{}: mean ops",
                bench.name
            );
            assert_eq!(s.ops_cv.to_bits(), l.ops_cv.to_bits(), "{}: cv", bench.name);
        }
    }
}

// ---------------------------------------------------------------------
// Divergence and lane-width edges
// ---------------------------------------------------------------------

/// Per-item trip counts, nested branches, break/continue, and a
/// short-circuit condition: maximal control-flow divergence.
const DIVERGENT: &str = "kernel void d(global const float* a, global float* o, int n) {
    int i = get_global_id(0);
    float s = a[i % n];
    for (int j = 0; j < i % 29; j++) {
        if (j == i % 7) { continue; }
        if (j > 20 && i % 2 == 0) { break; }
        s = s * 1.0001 + (float)j;
    }
    if (i % 5 == 0 || s > 100.0) { s = s - floor(s); }
    o[i] = s;
}";

#[test]
fn divergent_kernel_parity_at_lane_width_edges() {
    // Sizes straddling multiples of the lane width force every tail-batch
    // shape, including the single-item batch.
    for n in [1usize, 2, LANES - 1, LANES, LANES + 1, 2 * LANES, 193, 1000] {
        let bufs = vec![
            BufferData::F32((0..n).map(|i| (i as f32).sin()).collect()),
            BufferData::F32(vec![0.0; n]),
        ];
        let args = vec![
            ArgValue::Buffer(0),
            ArgValue::Buffer(1),
            ArgValue::Int(n as i32),
        ];
        assert_range_parity(DIVERGENT, &NdRange::d1(n), 0..n, &args, &bufs);
    }
}

#[test]
fn multidimensional_ranges_match() {
    const K2D: &str = "kernel void k(global float* o, int w) {
        int x = get_global_id(0);
        int y = get_global_id(1);
        float s = 0.0;
        for (int j = 0; j < (x + y) % 11; j++) { s += sqrt((float)(j + 1)); }
        o[y * w + x] = s;
    }";
    for (w, h) in [(7usize, 13usize), (64, 3), (65, 65), (1, 100)] {
        let bufs = vec![BufferData::F32(vec![0.0; w * h])];
        let args = vec![ArgValue::Buffer(0), ArgValue::Int(w as i32)];
        let nd = NdRange::d2(w, h);
        assert_range_parity(K2D, &nd, 0..h, &args, &bufs);
        // Partial slice ranges (partitioned execution shape).
        if h >= 2 {
            assert_range_parity(K2D, &nd, 1..h - 1, &args, &bufs);
        }
    }

    const K3D: &str = "kernel void k(global float* o, int w, int h) {
        int x = get_global_id(0);
        int y = get_global_id(1);
        int z = get_global_id(2);
        int idx = (z * h + y) * w + x;
        o[idx] = (float)(idx % 17) * 0.5;
    }";
    let (w, h, d) = (5usize, 9usize, 11usize);
    let bufs = vec![BufferData::F32(vec![0.0; w * h * d])];
    let args = vec![
        ArgValue::Buffer(0),
        ArgValue::Int(w as i32),
        ArgValue::Int(h as i32),
    ];
    let nd = NdRange::new(&[w, h, d]);
    assert_range_parity(K3D, &nd, 0..d, &args, &bufs);
    assert_range_parity(K3D, &nd, 3..8, &args, &bufs);
}

#[test]
fn integer_and_uint_semantics_match() {
    // Wrapping arithmetic, shifts, casts, and min/max/abs across lanes.
    const INTS: &str = "kernel void k(global const int* a, global int* o, global uint* u, int n) {
        int i = get_global_id(0);
        int v = a[i];
        uint x = (uint)(v * 2654435761);
        x = x ^ (x >> 16);
        int w = min(max(v * v, -1000), 1000);
        if (i % 4 < 2) { w = abs(v - n); }
        o[i] = w + (v >> 2) + (int)x;
        u[i] = x / (uint)(i + 1) + x % (uint)(i + 1);
    }";
    let n = 301usize;
    let bufs = vec![
        BufferData::I32((0..n as i32).map(|i| i.wrapping_mul(92821) - 150).collect()),
        BufferData::I32(vec![0; n]),
        BufferData::U32(vec![0; n]),
    ];
    let args = vec![
        ArgValue::Buffer(0),
        ArgValue::Buffer(1),
        ArgValue::Buffer(2),
        ArgValue::Int(n as i32),
    ];
    assert_range_parity(INTS, &NdRange::d1(n), 0..n, &args, &bufs);
}

#[test]
fn lane_engine_reports_errors_like_scalar_on_uniform_faults() {
    // A fault every item hits at the same instruction must surface as the
    // same error from both engines.
    let src = "kernel void k(global float* o, int n) {
        int i = get_global_id(0);
        o[i + n] = 1.0;
    }";
    let k = compile(src).unwrap();
    let n = 100usize;
    let args = vec![ArgValue::Buffer(0), ArgValue::Int(n as i32)];
    let mut vm = Vm::new();
    let mut b1 = vec![BufferData::F32(vec![0.0; n])];
    let e_scalar = vm
        .run_range_scalar(&k.bytecode, &NdRange::d1(n), 0..n, &args, &mut b1)
        .unwrap_err();
    let mut b2 = vec![BufferData::F32(vec![0.0; n])];
    let e_lanes = vm
        .run_range_lanes(&k.bytecode, &NdRange::d1(n), 0..n, &args, &mut b2)
        .unwrap_err();
    assert_eq!(e_scalar, e_lanes);
}

#[test]
fn engines_pick_different_faults_when_items_fault_at_different_ops() {
    // Item 5 faults at the first store, item 3 at the last. The scalar
    // engine runs item by item, so the first faulting *item* wins; the
    // lane engine runs each op over the whole batch, so the first
    // faulting *op* wins. The engines agree on the error only where the
    // first faulting item is also the first faulting op, as on every
    // suite kernel. Partial buffers of a faulted launch are unspecified.
    let src = "kernel void k(global float* o) {
        int i = get_global_id(0);
        if (i == 5) { o[1000] = 1.0; }
        o[i] = 2.0;
        if (i == 3) { o[2000] = 1.0; }
    }";
    let k = compile(src).unwrap();
    let n = 64usize;
    let nd = NdRange::d1(n);
    let args = [ArgValue::Buffer(0)];
    let oob = |index| VmError::OutOfBounds {
        buffer: 0,
        index,
        len: n,
    };
    let mut vm = Vm::new();
    let mut b = vec![BufferData::F32(vec![0.0; n])];
    let scalar = vm.run_range_scalar(&k.bytecode, &nd, 0..n, &args, &mut b);
    assert_eq!(scalar.unwrap_err(), oob(2000));
    let mut b = vec![BufferData::F32(vec![0.0; n])];
    let lanes = vm.run_range_lanes(&k.bytecode, &nd, 0..n, &args, &mut b);
    assert_eq!(lanes.unwrap_err(), oob(1000));
}

#[test]
fn nested_divergence_with_early_return_rejoins_correctly() {
    // Divergent early return (rejoin = virtual exit), a divergent loop
    // whose body contains another divergent branch (nested reconvergence
    // frames), and a loop-carried accumulator that must survive masked
    // execution of the other side.
    let src = "kernel void k(global const float* a, global float* o, int n) {
        int i = get_global_id(0);
        if (i % 11 == 3) { return; }
        float s = a[i % n];
        for (int j = 0; j < i % 9; j++) {
            if ((i + j) % 2 == 0) { s = s + 1.0; } else { s = s * 1.5; }
            if (j == i % 4) { continue; }
            s = s - 0.25;
        }
        if (i % 6 < 2) { o[i] = s; } else { o[i] = -s; }
    }";
    for n in [5usize, LANES, LANES + 7, 311] {
        let bufs = vec![
            BufferData::F32((0..n).map(|i| (i as f32 * 0.37).cos()).collect()),
            BufferData::F32(vec![0.0; n]),
        ];
        let args = vec![
            ArgValue::Buffer(0),
            ArgValue::Buffer(1),
            ArgValue::Int(n as i32),
        ];
        assert_range_parity(src, &NdRange::d1(n), 0..n, &args, &bufs);
        assert_sampled_parity(src, &NdRange::d1(n), 0..n, &args, &bufs, 97);
    }
}

/// If-then triangles whose arms cannot fault: predicable arms on the
/// `then` side (`lane < t`) and on the `else` side (the empty `then` is
/// dropped by the optimizer), each taken by `t` lanes of every full batch,
/// plus one inside a divergent loop, where it runs under a partial mask.
const TRIANGLES: &str = "kernel void k(global int* o, global float* g, int t, int n) {
    int i = get_global_id(0);
    int lane = i % 64;
    int v = i * 7;
    float x = (float)i * 0.25;
    if (lane < t) { v = v * 3 + 7; x = x * 1.5 - 2.0; }
    if (lane >= t) { } else { v = v ^ 85; x = sqrt(fabs(x) + 1.0); }
    for (int j = 0; j < lane % 5 + 1; j++) {
        if ((lane + j) % 64 < t) { v = v + j; x = x * 0.5; }
    }
    o[i] = v;
    g[i] = x;
}";

#[test]
fn predicated_triangles_match_at_every_arm_occupancy() {
    // Taken-lane counts on both sides of the predication gate (half the
    // lanes); 150 items add a 22-lane tail batch, which never reaches it.
    let n = 150usize;
    let bufs = vec![BufferData::I32(vec![0; n]), BufferData::F32(vec![0.0; n])];
    for t in [1, 31, 32, 33, 63] {
        let args = vec![
            ArgValue::Buffer(0),
            ArgValue::Buffer(1),
            ArgValue::Int(t),
            ArgValue::Int(n as i32),
        ];
        assert_range_parity(TRIANGLES, &NdRange::d1(n), 0..n, &args, &bufs);
        assert_sampled_parity(TRIANGLES, &NdRange::d1(n), 0..n, &args, &bufs, n);
        assert_sampled_parity(TRIANGLES, &NdRange::d1(n), 0..n, &args, &bufs, 41);
    }
}

#[test]
fn step_limit_bound_crossed_in_a_predicated_arm() {
    // A quarter of the lanes run a long arm first (below the gate, so a
    // pushed frame), then the other three quarters run a predicated arm.
    // Charging that arm raises the engine's upper bound on the largest
    // step offset past the true one, and the bound crosses the limit set
    // to the exact maximum there: the engine must recompute the exact
    // maximum instead of failing. One below, every engine fails at the
    // store, as the scalar one does.
    let src = "kernel void k(global int* o, int n) {
        int i = get_global_id(0);
        int v = i;
        if (i % 4 == 0) { v = v * 3; v = v + 7; v = v ^ 5; v = v * 9; v = v - n; v = v * 11; }
        if (i % 4 != 0) { v = v + 1; v = v * 5; v = v ^ 3; }
        o[i] = v;
    }";
    let n = 3 * LANES;
    let args = vec![ArgValue::Buffer(0), ArgValue::Int(n as i32)];
    let bufs = vec![BufferData::I32(vec![0; n])];
    let k = compile(src).unwrap();
    assert_step_limit_boundary("predicated arm", &k, &NdRange::d1(n), &args, &bufs);
}

#[test]
fn divergent_loop_trip_counts_keep_per_lane_steps_exact() {
    // A mandelbrot-shaped kernel: per-lane loop exit via a data-dependent
    // condition. Per-lane step counts (observable through the sampled
    // mean/CV) must match the scalar engine bit for bit.
    let src = "kernel void k(global float* o, int n) {
        int i = get_global_id(0);
        float zx = 0.0;
        float zy = (float)i * 0.01;
        int it = 0;
        while (zx * zx + zy * zy <= 4.0 && it < 64) {
            float t = zx * zx - zy * zy + 0.3;
            zy = 2.0 * zx * zy + (float)(i % 7) * 0.1;
            zx = t;
            it = it + 1;
        }
        o[i] = (float)it;
    }";
    let n = 421usize;
    let bufs = vec![BufferData::F32(vec![0.0; n])];
    let args = vec![ArgValue::Buffer(0), ArgValue::Int(n as i32)];
    assert_range_parity(src, &NdRange::d1(n), 0..n, &args, &bufs);
    assert_sampled_parity(src, &NdRange::d1(n), 0..n, &args, &bufs, 203);
}

#[test]
fn run_items_per_item_counters_match_scalar() {
    let src = "kernel void k(global const float* a, global float* o, int n) {
        int i = get_global_id(0);
        float s = 0.0;
        for (int j = 0; j <= i % 13; j++) {
            if (j % 3 == 1) { s += a[(i + j) % n]; } else { s -= 0.5; }
        }
        o[i] = s;
    }";
    let k = compile(src).unwrap();
    let n = 260usize;
    let args = vec![
        ArgValue::Buffer(0),
        ArgValue::Buffer(1),
        ArgValue::Int(n as i32),
    ];
    let gids: Vec<[usize; 3]> = (0..n).step_by(2).map(|i| [i, 0, 0]).collect();
    let mk = || vec![BufferData::F32(vec![1.0; n]), BufferData::F32(vec![0.0; n])];
    let mut vm = Vm::new();
    let mut b_ref = mk();
    let per_scalar = vm
        .run_items_scalar(&k.bytecode, &NdRange::d1(n), &gids, &args, &mut b_ref)
        .unwrap();
    let mut b = mk();
    let per_lanes = vm
        .run_items(&k.bytecode, &NdRange::d1(n), &gids, &args, &mut b)
        .unwrap();
    assert_eq!(b_ref, b, "buffers");
    assert_eq!(per_scalar, per_lanes, "per-item counters");
}

#[test]
fn every_entry_rejects_work_items_outside_the_ndrange() {
    // An unguarded kernel: `a[i]`/`c[i]` are in bounds only for the
    // NDRange's own items, `i < 64`. A request past the NDRange must be
    // refused before any item executes, with a typed error and the
    // buffers untouched.
    let src = "kernel void k(global const float* a, global float* c) {
        int i = get_global_id(0);
        c[i] = a[i] + 1.0f;
    }";
    let k = compile(src).unwrap();
    let f = &k.bytecode;
    let n = 64usize;
    let nd = NdRange::d1(n);
    let args = vec![ArgValue::Buffer(0), ArgValue::Buffer(1)];
    let bufs = vec![BufferData::F32(vec![1.0; n]), BufferData::F32(vec![0.0; n])];
    let past_range = Err(VmError::OutsideNdRange {
        dim: 0,
        index: 4 * n - 1,
        size: n,
    });
    let past_item = Err(VmError::OutsideNdRange {
        dim: 0,
        index: n,
        size: n,
    });
    let gids = [[0, 0, 0], [n, 0, 0]];
    let mut vm = Vm::new();
    let mut b = bufs.clone();
    let outcomes = [
        (
            "run_range_scalar",
            vm.run_range_scalar(f, &nd, 0..4 * n, &args, &mut b)
                .map(drop),
            &past_range,
        ),
        (
            "run_range_lanes",
            vm.run_range_lanes(f, &nd, 0..4 * n, &args, &mut b)
                .map(drop),
            &past_range,
        ),
        (
            "run_sampled_scalar",
            vm.run_sampled_scalar(f, &nd, 0..4 * n, &args, &mut b, 4 * n)
                .map(drop),
            &past_range,
        ),
        (
            "run_sampled_lanes",
            vm.run_sampled_lanes(f, &nd, 0..4 * n, &args, &mut b, 4 * n)
                .map(drop),
            &past_range,
        ),
        (
            "run_items",
            vm.run_items(f, &nd, &gids, &args, &mut b).map(drop),
            &past_item,
        ),
        (
            "run_items_scalar",
            vm.run_items_scalar(f, &nd, &gids, &args, &mut b).map(drop),
            &past_item,
        ),
    ];
    for (name, got, want) in &outcomes {
        assert_eq!(got, *want, "{name}");
    }
    assert_eq!(b, bufs, "no work-item may run");
    // In-range requests through the same entries still succeed.
    vm.run_sampled(f, &nd, 0..n, &args, &mut b, n).unwrap();
    assert_eq!(b[1], BufferData::F32(vec![2.0; n]));
}

#[test]
fn divergent_step_limit_errors_match_scalar() {
    // Half the lanes enter an unbounded loop; the step limit must fire
    // with the same error as the scalar engine.
    let src = "kernel void k(global int* o, int n) {
        int i = get_global_id(0);
        int v = 0;
        while (i % 2 == 0) { v = v + 1; }
        o[i] = v;
    }";
    let k = compile(src).unwrap();
    let n = 96usize;
    let args = vec![ArgValue::Buffer(0), ArgValue::Int(n as i32)];
    let mut vm = Vm::new();
    vm.step_limit = 10_000;
    let mut b = vec![BufferData::I32(vec![0; n])];
    let e_scalar = vm
        .run_range_scalar(&k.bytecode, &NdRange::d1(n), 0..n, &args, &mut b)
        .unwrap_err();
    let mut b = vec![BufferData::I32(vec![0; n])];
    let e_lanes = vm
        .run_range_lanes(&k.bytecode, &NdRange::d1(n), 0..n, &args, &mut b)
        .unwrap_err();
    assert_eq!(e_scalar, e_lanes);
}

/// The largest per-item step count of a full launch on the scalar engine:
/// Σ `block_counts` × `step_cost` for each work-item.
fn max_item_steps(k: &CompiledKernel, nd: &NdRange, args: &[ArgValue], bufs: &[BufferData]) -> u64 {
    let f = &k.bytecode;
    let mut gids = Vec::new();
    for z in 0..nd.dim(2) {
        for y in 0..nd.dim(1) {
            for x in 0..nd.dim(0) {
                gids.push([x, y, z]);
            }
        }
    }
    let per_item = Vm::new()
        .run_items_scalar(f, nd, &gids, args, &mut bufs.to_vec())
        .unwrap();
    per_item
        .iter()
        .map(|c| {
            c.block_counts
                .iter()
                .zip(&f.blocks)
                .map(|(&k, b)| k * b.step_cost())
                .sum::<u64>()
        })
        .max()
        .unwrap()
}

/// Run a full launch on both engines with `step_limit` set to exactly the
/// largest per-item step count, then to one less: the first must succeed
/// bit-identically on both, the second must fail on both.
fn assert_step_limit_boundary(
    name: &str,
    k: &CompiledKernel,
    nd: &NdRange,
    args: &[ArgValue],
    bufs: &[BufferData],
) {
    let max = max_item_steps(k, nd, args, bufs);
    let extent = nd.split_extent();
    let mut vm = Vm::new();
    vm.step_limit = max;
    let mut scalar_bufs = bufs.to_vec();
    let scalar = vm.run_range_scalar(&k.bytecode, nd, 0..extent, args, &mut scalar_bufs);
    let mut lane_bufs = bufs.to_vec();
    let lanes = vm.run_range_lanes(&k.bytecode, nd, 0..extent, args, &mut lane_bufs);
    assert!(scalar.is_ok(), "{name}: scalar at limit {max}: {scalar:?}");
    assert_eq!(scalar, lanes, "{name}: counters at limit {max}");
    assert_eq!(scalar_bufs, lane_bufs, "{name}: buffers at limit {max}");

    vm.step_limit = max - 1;
    let over = Err(VmError::StepLimitExceeded { limit: max - 1 });
    let scalar = vm.run_range_scalar(&k.bytecode, nd, 0..extent, args, &mut bufs.to_vec());
    let lanes = vm.run_range_lanes(&k.bytecode, nd, 0..extent, args, &mut bufs.to_vec());
    assert_eq!(
        scalar.map(drop),
        over,
        "{name}: scalar at limit {}",
        max - 1
    );
    assert_eq!(lanes.map(drop), over, "{name}: lanes at limit {}", max - 1);
}

#[test]
fn divergent_suite_kernels_hit_the_step_limit_at_the_same_count() {
    for name in ["monte_carlo_pi", "mandelbrot", "spmv_csr", "kmeans"] {
        let bench = hetpart_suite::by_name(name).unwrap();
        let inst = bench.instance(bench.smallest_size());
        let k = bench.compile();
        assert_step_limit_boundary(name, &k, &inst.nd, &inst.args, &inst.bufs);
    }
}

#[test]
fn step_limit_crossed_in_full_mask_and_masked_blocks() {
    let cases = [
        // Even lanes take the longer side, so after the rejoin they carry
        // a larger step offset than odd lanes; the batch then runs the
        // uniform loop and the store at full width. One below the
        // maximum is first crossed by the even lanes in the final
        // full-mask block.
        (
            "full-mask",
            96,
            "kernel void k(global int* o, int n) {
                int i = get_global_id(0);
                int v = 0;
                if (i % 2 == 0) { v = v * 3 + i; v = v ^ 5; v = v + 7; } else { v = v - 1; }
                for (int j = 0; j < 20; j++) { v = v + j; }
                o[i] = v;
            }",
        ),
        // Only lanes with `i % 3 == 0` run the loop, and they return from
        // inside the divergent region: their last step is charged by a
        // masked block, and no full-mask block follows for them.
        (
            "masked",
            100,
            "kernel void k(global int* o, int n) {
                int i = get_global_id(0);
                int v = i;
                if (i % 3 == 0) {
                    for (int j = 0; j < i % 11 + 4; j++) { v = v + j; }
                    o[i] = v;
                    return;
                }
                o[i] = -v;
            }",
        ),
    ];
    for (what, n, src) in cases {
        let args = vec![ArgValue::Buffer(0), ArgValue::Int(n as i32)];
        let bufs = vec![BufferData::I32(vec![0; n])];
        for opt in [OptLevel::None, OptLevel::Full] {
            let k = compile_with_modes(src, opt, RegAlloc::On).unwrap();
            assert_step_limit_boundary(what, &k, &NdRange::d1(n), &args, &bufs);
        }
    }
}

#[test]
fn stale_rows_of_a_partial_batch_never_join_a_branch() {
    // The first batch (items 0..64) takes the `then` side everywhere.
    // The partial final batch (items 64..69) takes `else`, while its
    // dead rows 5..64 still hold batch one's registers, which would take
    // `then`. Unoptimized code branches on a boolean register, optimized
    // code on a fused compare; both must keep the branch uniform.
    let src = "kernel void k(global int* o, int n) {
        int i = get_global_id(0);
        if (i < 64) { o[i] = i * 2; } else { o[i] = i + 1000; }
    }";
    let n = LANES + 5;
    let args = vec![ArgValue::Buffer(0), ArgValue::Int(n as i32)];
    let bufs = vec![BufferData::I32(vec![0; n])];
    for opt in [OptLevel::None, OptLevel::Full] {
        let k = compile_with_modes(src, opt, RegAlloc::On).unwrap();
        let (out, _) = assert_kernel_parity(&k, &NdRange::d1(n), 0..n, &args, &bufs);
        let want: Vec<i32> = (0..n as i32)
            .map(|i| if i < 64 { i * 2 } else { i + 1000 })
            .collect();
        assert_eq!(out[0], BufferData::I32(want));
        assert_step_limit_boundary("stale rows", &k, &NdRange::d1(n), &args, &bufs);
    }
}

/// Items `lo..` divide by `i - z` and read and write element `i - lo`.
const STALE_LANES: &str =
    "kernel void k(global const int* a, global int* o, int lo, int z, int r) {
    int i = get_global_id(0);
    if (i >= lo) {
        int k = i - lo;
        o[k] = a[k] + a[(k * 7) % r] + 1000 / (i - z);
    }
}";

/// The `STALE_LANES` outputs of items `lo..lo + r`.
fn stale_lanes_want(a: &[i32], lo: i32, z: i32) -> Vec<i32> {
    let r = a.len() as i32;
    (0..r)
        .map(|k| a[k as usize] + a[(k * 7 % r) as usize] + 1000 / (lo + k - z))
        .collect()
}

#[test]
fn stale_lanes_of_a_partial_batch_never_fault() {
    // Only the final batch's live lanes reach the division, gathers and
    // scatter. Its lanes `r..` still hold the previous batch's ids
    // `lo - 64 + r..lo`: in a full-width pass they would divide by zero
    // (id `z`) and index before element 0.
    for n in [197, 2 * LANES + 1] {
        let r = n % LANES;
        let (lo, z) = ((n - r) as i32, (n - LANES) as i32);
        let a: Vec<i32> = (0..r as i32).map(|k| k * 5 - 3).collect();
        let bufs = vec![BufferData::I32(a.clone()), BufferData::I32(vec![0; r])];
        let args = [
            ArgValue::Buffer(0),
            ArgValue::Buffer(1),
            ArgValue::Int(lo),
            ArgValue::Int(z),
            ArgValue::Int(r as i32),
        ];
        let nd = NdRange::d1(n);
        for opt in [OptLevel::None, OptLevel::Full] {
            let k = compile_with_modes(STALE_LANES, opt, RegAlloc::On).unwrap();
            let mut vm = Vm::new();
            let mut scalar_bufs = bufs.clone();
            let scalar = vm.run_range_scalar(&k.bytecode, &nd, 0..n, &args, &mut scalar_bufs);
            let mut lane_bufs = bufs.clone();
            let lanes = vm.run_range(&k.bytecode, &nd, 0..n, &args, &mut lane_bufs);
            assert!(lanes.is_ok(), "n = {n}, {opt:?}: {lanes:?}");
            assert_eq!(scalar, lanes, "n = {n}, {opt:?}: counters");
            assert_eq!(scalar_bufs, lane_bufs, "n = {n}, {opt:?}: buffers");
            let want = stale_lanes_want(&a, lo, z);
            assert_eq!(lane_bufs[1], BufferData::I32(want), "n = {n}, {opt:?}");
        }
    }
    // An item list in one partial batch: the lanes past it hold the
    // engine's initial id 0, so `z = 0` divides by zero there and
    // `0 - lo` indexes before element 0. The list is out of order, so
    // the index rows are scattered, not unit-stride.
    for m in [9, 37, LANES - 1] {
        let lo = 100;
        let a: Vec<i32> = (0..m as i32).map(|k| 2 - k * 3).collect();
        let bufs = vec![BufferData::I32(a.clone()), BufferData::I32(vec![0; m])];
        let args = [
            ArgValue::Buffer(0),
            ArgValue::Buffer(1),
            ArgValue::Int(lo as i32),
            ArgValue::Int(0),
            ArgValue::Int(m as i32),
        ];
        let nd = NdRange::d1(lo + m);
        let gids: Vec<[usize; 3]> = (0..m).map(|k| [lo + (k * 5) % m, 0, 0]).collect();
        for opt in [OptLevel::None, OptLevel::Full] {
            let k = compile_with_modes(STALE_LANES, opt, RegAlloc::On).unwrap();
            let mut vm = Vm::new();
            let mut scalar_bufs = bufs.clone();
            let scalar = vm.run_items_scalar(&k.bytecode, &nd, &gids, &args, &mut scalar_bufs);
            let mut lane_bufs = bufs.clone();
            let lanes = vm.run_items(&k.bytecode, &nd, &gids, &args, &mut lane_bufs);
            assert!(lanes.is_ok(), "m = {m}, {opt:?}: {lanes:?}");
            assert_eq!(scalar, lanes, "m = {m}, {opt:?}: per-item counters");
            assert_eq!(scalar_bufs, lane_bufs, "m = {m}, {opt:?}: buffers");
            let want = stale_lanes_want(&a, lo as i32, 0);
            assert_eq!(lane_bufs[1], BufferData::I32(want), "m = {m}, {opt:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Random structured CFGs
// ---------------------------------------------------------------------

/// Tiny deterministic PRNG for the kernel generator (xorshift64*).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9E3779B97F4A7C15);
        self.0 = x;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Emit a random block of statements over `i` (the global id), the float
/// accumulator `s`, the int accumulator `t`, and any enclosing loop
/// variables — nested/looping divergent branches, break/continue, and
/// early returns included.
fn gen_block(rng: &mut Rng, depth: u32, loop_vars: &mut Vec<String>, out: &mut String, pad: usize) {
    let n_stmts = 1 + rng.below(3);
    for _ in 0..n_stmts {
        let indent = "    ".repeat(pad);
        // Leaves only at max depth; otherwise mix in ifs and loops.
        let kind = if depth == 0 {
            rng.below(2)
        } else {
            rng.below(6)
        };
        match kind {
            0 => {
                let c = rng.below(11);
                out.push_str(&format!(
                    "{indent}s = s * 1.0001 + (float)((i + {c}) % 7);\n"
                ));
            }
            1 => {
                let c = 1 + rng.below(5);
                out.push_str(&format!("{indent}t = t * 3 + {c};\n"));
            }
            2 | 3 => {
                // Divergent if, data-dependent on the global id (and on
                // the innermost loop variable, when there is one).
                let m = 2 + rng.below(6);
                let t = rng.below(m);
                let var = loop_vars
                    .last()
                    .map(|v| format!("(i + {v})"))
                    .unwrap_or_else(|| "i".to_string());
                out.push_str(&format!("{indent}if ({var} % {m} < {t}) {{\n"));
                gen_block(rng, depth - 1, loop_vars, out, pad + 1);
                if rng.below(2) == 0 {
                    out.push_str(&format!("{indent}}} else {{\n"));
                    gen_block(rng, depth - 1, loop_vars, out, pad + 1);
                }
                out.push_str(&format!("{indent}}}\n"));
            }
            4 => {
                // Divergent loop with a per-lane trip count; occasionally
                // guarded break/continue inside.
                let v = format!("j{}", loop_vars.len());
                let c = rng.below(7);
                let m = 2 + rng.below(7);
                out.push_str(&format!(
                    "{indent}for (int {v} = 0; {v} < (i + {c}) % {m}; {v}++) {{\n"
                ));
                loop_vars.push(v.clone());
                if rng.below(3) == 0 {
                    let b = rng.below(m);
                    let kw = if rng.below(2) == 0 {
                        "break"
                    } else {
                        "continue"
                    };
                    out.push_str(&format!(
                        "{}if ({v} == {b}) {{ {kw}; }}\n",
                        "    ".repeat(pad + 1)
                    ));
                }
                gen_block(rng, depth - 1, loop_vars, out, pad + 1);
                loop_vars.pop();
                out.push_str(&format!("{indent}}}\n"));
            }
            _ => {
                // Divergent early return: lanes leave at different points.
                let m = 5 + rng.below(13);
                out.push_str(&format!(
                    "{indent}if ((i + t) % {m} == 1) {{ o[i] = s; return; }}\n"
                ));
            }
        }
    }
}

/// Build a complete random kernel from a seed.
fn gen_kernel(seed: u64) -> String {
    let mut rng = Rng(seed);
    let mut body = String::new();
    let mut loop_vars = Vec::new();
    gen_block(&mut rng, 2, &mut loop_vars, &mut body, 1);
    format!(
        "kernel void r(global const float* a, global float* o, int n) {{\n    \
         int i = get_global_id(0);\n    \
         float s = a[i % n];\n    \
         int t = i % 17;\n{body}    \
         o[i] = s + (float)(t % 1024);\n}}"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random small CFGs with nested and looping divergent branches:
    /// buffers, block counters, and per-lane step statistics must be
    /// bit-identical across the scalar engine and the lane engine at every
    /// compile mode — and the optimized bytecode must match the
    /// unoptimized scalar reference output for output.
    #[test]
    fn random_divergent_cfgs_are_bit_identical(
        seed in 0u64..(1u64 << 48),
        n in 65usize..320,
    ) {
        let src = gen_kernel(seed);
        let bufs = vec![
            BufferData::F32((0..n).map(|i| (i as f32 * 0.11).sin() + 1.5).collect()),
            BufferData::F32(vec![0.0; n]),
        ];
        let args = vec![
            ArgValue::Buffer(0),
            ArgValue::Buffer(1),
            ArgValue::Int(n as i32),
        ];
        let nd = NdRange::d1(n);
        // Every compilation mode of the random CFG must pass the IR
        // verifier — the same corpus that exercises the engines also
        // exercises the static checks — and run bit-identically on the
        // enum-walking scalar engine and the decoded-walking lane engine.
        for level in [OptLevel::None, OptLevel::Full] {
            for ra in [RegAlloc::Off, RegAlloc::On] {
                let k = compile_with_modes(&src, level, ra).unwrap();
                hetpart_inspire::analysis::verify::verify_function("proptest", &k.bytecode)
                    .unwrap();
                assert_kernel_parity(&k, &nd, 0..n, &args, &bufs);
            }
        }
        assert_range_parity(&src, &nd, 0..n, &args, &bufs);
        // A misaligned sub-range exercises partial tail batches.
        assert_range_parity(&src, &nd, (n / 7)..(n - 3), &args, &bufs);
        // Sampled execution checks per-lane step counts bit for bit.
        assert_sampled_parity(&src, &nd, 0..n, &args, &bufs, 83);
        // Three-way: optimized scalar + lanes vs unoptimized reference.
        assert_opt_parity(&src, &nd, 0..n, &args, &bufs);
    }
}

// ---------------------------------------------------------------------
// Property-based parity
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_shapes_and_ranges_are_bit_identical(
        w in 1usize..40,
        h in 1usize..40,
        lo_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let nd = NdRange::d2(w, h);
        let lo = ((h as f64 * lo_frac) as usize).min(h - 1);
        let len = (((h - lo) as f64 * len_frac) as usize).max(1).min(h - lo);
        let bufs = vec![BufferData::F32(vec![0.5; w * h])];
        let args = vec![ArgValue::Buffer(0), ArgValue::Int(w as i32)];
        let src = "kernel void k(global float* o, int w) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            float s = 1.0;
            for (int j = 0; j < (x * 3 + y) % 19; j++) { s = s * 1.01 + 0.25; }
            o[y * w + x] = s;
        }";
        let k = compile(src).unwrap();
        let mut vm = Vm::new();
        let mut b1 = bufs.clone();
        let c1 = vm
            .run_range_scalar(&k.bytecode, &nd, lo..lo + len, &args, &mut b1)
            .unwrap();
        let mut b2 = bufs.clone();
        let c2 = vm
            .run_range_lanes(&k.bytecode, &nd, lo..lo + len, &args, &mut b2)
            .unwrap();
        prop_assert_eq!(b1, b2);
        prop_assert_eq!(c1, c2);
    }

    #[test]
    fn random_sampling_budgets_are_bit_identical(
        n in 9usize..3000,
        max_items in 9usize..512,
    ) {
        let bufs = vec![
            BufferData::F32((0..n).map(|i| i as f32 * 0.125).collect()),
            BufferData::F32(vec![0.0; n]),
        ];
        let args = vec![
            ArgValue::Buffer(0),
            ArgValue::Buffer(1),
            ArgValue::Int(n as i32),
        ];
        let k = compile(DIVERGENT).unwrap();
        let nd = NdRange::d1(n);
        let mut vm = Vm::new();
        let mut b1 = bufs.clone();
        let s = vm
            .run_sampled_scalar(&k.bytecode, &nd, 0..n, &args, &mut b1, max_items)
            .unwrap();
        let mut b2 = bufs.clone();
        let l = vm
            .run_sampled_lanes(&k.bytecode, &nd, 0..n, &args, &mut b2, max_items)
            .unwrap();
        prop_assert_eq!(b1, b2);
        prop_assert_eq!(s.counters, l.counters);
        prop_assert_eq!(s.mean_ops_per_item.to_bits(), l.mean_ops_per_item.to_bits());
        prop_assert_eq!(s.ops_cv.to_bits(), l.ops_cv.to_bits());
    }
}
