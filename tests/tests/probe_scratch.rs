//! Probes on copy-on-write scratch views.
//!
//! Runtime features and launch profiles execute sampled work-items that
//! store to the launch's buffers. They run on a [`Scratch`] view, which
//! borrows the caller's buffers and copies one only on the first store
//! to it. These suites pin down that the view is invisible: every sampled
//! run on a scratch view matches the same run on an explicit copy of all
//! buffers, bit for bit, for every suite kernel; the caller's buffers are
//! never touched; parameters bound to one buffer stay coherent; and the
//! view copies exactly the buffers stored to.

use std::collections::BTreeSet;

use hetpart_inspire::ir::NdRange;
use hetpart_inspire::vm::{dynamic_counts, ArgValue, BufferData, Counters, Scratch, Vm};
use hetpart_inspire::{compile, CompiledKernel};
use hetpart_oclsim::machines;
use hetpart_runtime::sweep::SWEEP_PROFILE_SAMPLES;
use hetpart_runtime::{
    runtime_features, Executor, Launch, LaunchProfile, Partition, DEFAULT_SAMPLE_ITEMS,
};
use hetpart_suite::Instance;

/// Every suite kernel at its two smallest problem sizes.
fn cases() -> Vec<(String, CompiledKernel, Instance)> {
    let mut out = Vec::new();
    for bench in hetpart_suite::all() {
        let kernel = bench.compile();
        let mut sizes = bench.sizes.to_vec();
        sizes.sort_unstable();
        for &n in &sizes[..2] {
            out.push((
                format!("{} n={n}", bench.name),
                kernel.clone(),
                bench.instance(n),
            ));
        }
    }
    out
}

/// The launch profile's stratified probe items: one per slice of the
/// split dimension, evenly spaced over the whole NDRange.
fn probe_items(nd: &NdRange, max: usize) -> Vec<[usize; 3]> {
    let total = nd.total();
    let n = total.min(max);
    (0..n)
        .map(|j| {
            let li = (j as u128 * total as u128 / n as u128) as usize;
            let mut gid = [0usize; 3];
            gid[nd.split_dim()] = li / nd.items_per_slice();
            gid
        })
        .collect()
}

/// Buffer indices some executed store wrote to, from the block counters.
fn stored_to(kernel: &CompiledKernel, args: &[ArgValue], counters: &[Counters]) -> Vec<usize> {
    let mut out = BTreeSet::new();
    for c in counters {
        let d = dynamic_counts(&kernel.bytecode, c);
        for (p, arg) in args.iter().enumerate() {
            if let ArgValue::Buffer(b) = arg {
                if d.buf_writes[p] > 0 {
                    out.insert(*b);
                }
            }
        }
    }
    out.into_iter().collect()
}

/// Every buffer of a scratch view equals the explicit copy's.
fn assert_same_buffers(name: &str, scratch: &Scratch, copy: &[BufferData]) {
    for (i, want) in copy.iter().enumerate() {
        assert_eq!(scratch.get(i), Some(want), "{name}: buffer {i}");
    }
}

#[test]
fn sampled_runs_match_explicit_copies() {
    for (name, kernel, inst) in cases() {
        let f = &kernel.bytecode;
        let (nd, args) = (&inst.nd, &inst.args[..]);
        let whole = 0..nd.split_extent();

        // Runtime features: one sample over the whole range, either engine.
        for engine in 0..3 {
            let mut copy = inst.bufs.to_vec();
            let mut scratch = Scratch::new(&inst.bufs);
            let (want, got) = match engine {
                0 => (
                    Vm::new().run_sampled(f, nd, whole.clone(), args, &mut copy, 128),
                    Vm::new().run_sampled(f, nd, whole.clone(), args, &mut scratch, 128),
                ),
                1 => (
                    Vm::new().run_sampled_scalar(f, nd, whole.clone(), args, &mut copy, 128),
                    Vm::new().run_sampled_scalar(f, nd, whole.clone(), args, &mut scratch, 128),
                ),
                _ => (
                    Vm::new().run_sampled_lanes(f, nd, whole.clone(), args, &mut copy, 128),
                    Vm::new().run_sampled_lanes(f, nd, whole.clone(), args, &mut scratch, 128),
                ),
            };
            let (want, got) = (want.unwrap(), got.unwrap());
            assert_eq!(
                want.counters, got.counters,
                "{name}: engine {engine} counters"
            );
            assert_eq!(
                want.mean_ops_per_item.to_bits(),
                got.mean_ops_per_item.to_bits(),
                "{name}: engine {engine} mean"
            );
            assert_eq!(want.ops_cv.to_bits(), got.ops_cv.to_bits(), "{name}: cv");
            assert_same_buffers(&name, &scratch, &copy);
            let copied: Vec<usize> = scratch.copied().collect();
            assert_eq!(
                copied,
                stored_to(&kernel, args, &[got.counters]),
                "{name}: engine {engine} copied"
            );
        }

        // Launch profiles: explicit probe items, either engine.
        let gids = probe_items(nd, SWEEP_PROFILE_SAMPLES);
        for scalar in [false, true] {
            let mut copy = inst.bufs.to_vec();
            let mut scratch = Scratch::new(&inst.bufs);
            let (want, got) = if scalar {
                (
                    Vm::new().run_items_scalar(f, nd, &gids, args, &mut copy),
                    Vm::new().run_items_scalar(f, nd, &gids, args, &mut scratch),
                )
            } else {
                (
                    Vm::new().run_items(f, nd, &gids, args, &mut copy),
                    Vm::new().run_items(f, nd, &gids, args, &mut scratch),
                )
            };
            let got = got.unwrap();
            assert_eq!(
                want.unwrap(),
                got,
                "{name}: scalar={scalar} per-item counters"
            );
            assert_same_buffers(&name, &scratch, &copy);
            let copied: Vec<usize> = scratch.copied().collect();
            assert_eq!(copied, stored_to(&kernel, args, &got), "{name}: copied");
        }

        // Simulated launches: one sample per chunk, in device order, on
        // one view — each chunk sees the stores of the chunks before it.
        let mut copy = inst.bufs.to_vec();
        let mut scratch = Scratch::new(&inst.bufs);
        let mut all = Vec::new();
        let extent = nd.split_extent();
        for chunk in Partition::from_tenths(vec![2, 5, 3]).chunks(extent) {
            if chunk.is_empty() {
                continue;
            }
            let want = Vm::new()
                .run_sampled(f, nd, chunk.clone(), args, &mut copy, DEFAULT_SAMPLE_ITEMS)
                .unwrap();
            let got = Vm::new()
                .run_sampled(f, nd, chunk, args, &mut scratch, DEFAULT_SAMPLE_ITEMS)
                .unwrap();
            assert_eq!(want, got, "{name}: chunk sample");
            all.push(got.counters);
        }
        assert_same_buffers(&name, &scratch, &copy);
        let copied: Vec<usize> = scratch.copied().collect();
        assert_eq!(copied, stored_to(&kernel, args, &all), "{name}: copied");
    }
}

#[test]
fn probes_are_bit_identical_and_leave_caller_buffers_untouched() {
    let ex = Executor::new(machines::mc2());
    let partitions = [
        Partition::cpu_only(3),
        Partition::even(3),
        Partition::from_tenths(vec![1, 2, 7]),
    ];
    for (name, kernel, inst) in cases() {
        let before = inst.bufs.clone();
        let copy = inst.bufs.to_vec();
        let (nd, args) = (&inst.nd, &inst.args[..]);

        let want = runtime_features(&kernel, nd, args, &copy, DEFAULT_SAMPLE_ITEMS).unwrap();
        let got = runtime_features(&kernel, nd, args, &inst.bufs, DEFAULT_SAMPLE_ITEMS).unwrap();
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(want.to_vec()), bits(got.to_vec()), "{name}: features");

        let extent = nd.split_extent();
        let chunks = [0..extent, 0..extent.div_ceil(2), extent / 3..extent];
        for scalar in [false, true] {
            let collect = if scalar {
                LaunchProfile::collect_scalar
            } else {
                LaunchProfile::collect
            };
            let want = collect(&kernel, nd, args, &copy, SWEEP_PROFILE_SAMPLES).unwrap();
            let got = collect(&kernel, nd, args, &inst.bufs, SWEEP_PROFILE_SAMPLES).unwrap();
            for chunk in chunks.iter().filter(|c| !c.is_empty()) {
                let (wc, wd) = want.estimate(chunk.clone());
                let (gc, gd) = got.estimate(chunk.clone());
                assert_eq!(wc, gc, "{name}: scalar={scalar} {chunk:?} counts");
                assert_eq!(wd.to_bits(), gd.to_bits(), "{name}: {chunk:?} divergence");
            }
            let launch = Launch::new(&kernel, nd.clone(), inst.args.clone());
            for p in &partitions {
                let want = ex.simulate_with_profile(&launch, &copy, p, &want);
                let got = ex.simulate_with_profile(&launch, &inst.bufs, p, &got);
                assert_eq!(want, got, "{name}: scalar={scalar} priced under {p}");
            }
        }
        assert_eq!(inst.bufs, before, "{name}: caller buffers modified");
    }
}

#[test]
fn parameters_bound_to_one_buffer_stay_coherent() {
    // `a` and `b` are bound to the same buffer: a load through `b` must
    // see the store through `a`, on the scratch copy as on real buffers.
    let k = compile(
        "kernel void alias(global float* a, global const float* b, global float* o) {
            int i = get_global_id(0);
            a[i] = (float)i * 2.0;
            o[i] = b[i] + 1.0;
        }",
    )
    .unwrap();
    let n = 100;
    let nd = NdRange::d1(n);
    let bufs = vec![
        BufferData::F32(vec![-1.0; n]),
        BufferData::F32(vec![0.0; n]),
        BufferData::F32(vec![5.0; n]),
    ];
    let args = [
        ArgValue::Buffer(0),
        ArgValue::Buffer(0),
        ArgValue::Buffer(1),
    ];
    let expected: Vec<f32> = (0..n).map(|i| i as f32 * 2.0 + 1.0).collect();
    let gids: Vec<[usize; 3]> = (0..n).map(|i| [i, 0, 0]).collect();
    for engine in 0..3 {
        let mut scratch = Scratch::new(&bufs);
        let mut vm = Vm::new();
        match engine {
            0 => vm
                .run_items(&k.bytecode, &nd, &gids, &args, &mut scratch)
                .map(drop),
            1 => vm
                .run_items_scalar(&k.bytecode, &nd, &gids, &args, &mut scratch)
                .map(drop),
            _ => vm
                .run_sampled(&k.bytecode, &nd, 0..n, &args, &mut scratch, n)
                .map(drop),
        }
        .unwrap();
        assert_eq!(
            scratch.get(1).and_then(BufferData::as_f32),
            Some(&expected[..]),
            "engine {engine}: load through `b` missed the store through `a`"
        );
        assert_eq!(scratch.copied().collect::<Vec<_>>(), vec![0, 1]);

        let mut real = bufs.clone();
        vm.run_range(&k.bytecode, &nd, 0..n, &args, &mut real)
            .unwrap();
        assert_eq!(real[1].as_f32(), Some(&expected[..]), "real buffers");
    }
    assert_eq!(bufs[0], BufferData::F32(vec![-1.0; n]), "caller buffer 0");
    assert_eq!(bufs[1], BufferData::F32(vec![0.0; n]), "caller buffer 1");
}
