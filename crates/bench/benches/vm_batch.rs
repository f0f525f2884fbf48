//! `vm_batch`: the lane-batched VM and pruned-sweep performance baseline.
//!
//! Times three layers against their scalar/exhaustive baselines and
//! writes the results to `reports/BENCH_vm.json` so future PRs have a
//! machine-readable perf trajectory:
//!
//! 1. **Kernel execution** — `run_range` on representative suite kernels
//!    (uniform, compute-bound, divergent): the original scalar engine on
//!    unoptimized bytecode vs today's lane engine on optimized bytecode,
//!    plus A/B columns isolating each layer — optimized vs
//!    unoptimized bytecode, and register allocation on vs off.
//! 2. **Training oracle** — one full oracle pass over a batch of
//!    training launches: the PR-1 shape (scalar probe profiles over
//!    unoptimized bytecode + the exhaustive partition space) vs today's
//!    lane-batched profiles over optimized bytecode, full and pruned.
//! 3. A sanity check that the pruned oracle's argmins match the full
//!    sweep on the benchmarked batch (the regression suites prove this
//!    exhaustively; the bench refuses to record numbers from a broken
//!    comparison).
//!
//! The scalar baseline is timed in one round-robin (`interleaved_best`)
//! with the lane engine, so a gated `speedup` compares runs from the
//! same host phase rather than two phases timed apart; the three lane
//! configurations share a second round-robin.
//!
//! `target_met` in the JSON gates CI: the pruned oracle must hold its
//! ≥ 3x speedup, the divergent kernels must stay batched end-to-end
//! (mandelbrot ≥ 3x, blackscholes ≥ 2.5x, monte_carlo_pi ≥ 9x over the
//! scalar engine; monte_carlo_pi's floor also guards the predicated
//! if-arms and the full-width row passes of its loop body, whose
//! divisions by 65536.0 run as exact multiplies), and the bytecode
//! optimizer must pay for itself — lane
//! execution on optimized code at least as fast as on unoptimized code
//! (geomean over the picks) with a ≥ 15% suite-wide static shrink.
//! Register allocation has its own A/B column against `RegAlloc::Off`
//! and must hold a geomean lane speedup within noise of break-even. Set
//! `VM_BENCH_QUICK=1` for the reduced sizes CI uses.
//!
//! A note on the register-allocation floor: both sides of that A/B walk
//! the same pre-decoded, fused op array on the lane engine, so it
//! isolates the register-file shrink alone (the lane engine's SoA rows
//! scale as 64 × regs × 8 bytes). That shrink is a cache-footprint
//! effect that is small at these batch widths, so the CI floor only
//! guards against allocation *regressing* execution (beyond the ~5%
//! timing noise of a shared CI host), not a speedup target.

use std::collections::HashMap;

use hetpart_bench::{check_floors, geomean, interleaved_best, time_best, write_report};
use hetpart_inspire::vm::Vm;
use hetpart_runtime::exec::{scalar_values, transfer_bytes};
use hetpart_runtime::sweep::SWEEP_PROFILE_SAMPLES;
use hetpart_runtime::{
    sweep_many, sweep_many_mode, Executor, Launch, LaunchProfile, Partition, PartitionSweep,
    SweepJob, SweepMode,
};
use hetpart_suite::Instance;
use serde::Serialize;

#[derive(Serialize)]
struct RunRangeRow {
    kernel: String,
    items: u64,
    /// Scalar engine on **unoptimized** bytecode: the full original
    /// baseline (PR 1 had neither the lane engine nor the optimizer),
    /// so `speedup` records the cumulative system win.
    scalar_s: f64,
    /// Lane engine on optimized, register-allocated bytecode, timed in
    /// the scalar baseline's round-robin.
    paired_lanes_s: f64,
    /// Lane engine on optimized, register-allocated bytecode, timed in
    /// the lane configurations' round-robin.
    lanes_s: f64,
    /// Lane engine on the **unoptimized** bytecode (`OptLevel::None`) —
    /// the same engine minus the optimizer pipeline, timed for A/B.
    unopt_lanes_s: f64,
    /// Lane engine on optimized bytecode with register allocation off
    /// (`RegAlloc::Off`): the same decoded walk over the wider
    /// codegen-shaped register files — isolates what allocation buys.
    noregalloc_lanes_s: f64,
    /// scalar_s / paired_lanes_s.
    speedup: f64,
    /// unopt_lanes_s / lanes_s: what the optimizer buys end-to-end.
    speedup_vs_unopt: f64,
    /// noregalloc_lanes_s / lanes_s: what register allocation buys.
    speedup_vs_noregalloc: f64,
    /// Static instruction count, unoptimized vs optimized.
    static_instrs_unopt: usize,
    static_instrs_opt: usize,
    /// Register-file widths before (RegAlloc::Off) and after
    /// (RegAlloc::On) linear-scan allocation — the lane engine's per-lane
    /// SoA arrays scale directly with these.
    regfile_i_before: u16,
    regfile_i_after: u16,
    regfile_f_before: u16,
    regfile_f_after: u16,
}

#[derive(Serialize)]
struct OracleRow {
    jobs: usize,
    partitions_per_job: usize,
    /// The PR-1 oracle: scalar probe profiles over **unoptimized**
    /// bytecode and the exhaustive partition space — the system as it
    /// stood before the lane engine, the pruned sweep and the optimizer.
    scalar_engine_s: f64,
    lanes_full_s: f64,
    lanes_pruned_s: f64,
    speedup_full: f64,
    speedup_pruned: f64,
}

/// Perf floors that gate `target_met` (and therefore CI).
#[derive(Serialize)]
struct Targets {
    oracle_speedup: f64,
    mandelbrot_speedup: f64,
    blackscholes_speedup: f64,
    monte_carlo_pi_speedup: f64,
    /// The optimizer must not make lane execution slower on geomean.
    opt_geomean_speedup: f64,
    /// … and must shrink the suite's static code size by this fraction.
    opt_static_reduction: f64,
    /// Register allocation must not cost more than measurement noise on
    /// geomean over the picks (see the module doc for why this is a
    /// break-even floor, not a speedup target).
    regalloc_geomean_speedup: f64,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    lane_width: usize,
    /// The lane engine's codegen tier on the recording CPU (`"avx512"`,
    /// `"avx2"` or `"portable"`); every lane time and ratio was measured
    /// on it.
    lane_tier: &'static str,
    quick: bool,
    run_range: Vec<RunRangeRow>,
    oracle: OracleRow,
    /// Geomean of `speedup_vs_unopt` over the benchmarked kernels.
    opt_geomean_speedup: f64,
    /// Geomean of `speedup_vs_noregalloc` over the benchmarked kernels.
    regalloc_geomean_speedup: f64,
    /// Suite-wide geomean static shrink: 1 - geomean(opt/unopt instrs)
    /// over all suite kernels, not just the benchmarked picks.
    opt_static_reduction: f64,
    targets: Targets,
    target_met: bool,
}

fn bench_instance(name: &str, n: usize) -> (hetpart_inspire::CompiledKernel, Instance) {
    let bench = hetpart_suite::by_name(name).expect("suite kernel exists");
    (bench.compile(), bench.instance(n))
}

/// Suite-wide static shrink: `1 - geomean(optimized/unoptimized)` over
/// every kernel's static instruction count.
fn static_reduction() -> f64 {
    use hetpart_inspire::{OptLevel, RegAlloc};
    1.0 - geomean(hetpart_suite::all().iter().map(|b| {
        let unopt = b.compile_with_modes(OptLevel::None, RegAlloc::On);
        let opt = b.compile();
        opt.bytecode.num_instrs() as f64 / unopt.bytecode.num_instrs() as f64
    }))
}

fn run_range_rows(quick: bool) -> Vec<RunRangeRow> {
    // Uniform streaming, compute-bound uniform, and four divergent
    // kernels (blackscholes: branchy tail after a uniform transcendental
    // body; mandelbrot: data-dependent loop exit — the reconvergence
    // stress tests; monte_carlo_pi: a divergent one-block arm on every
    // trip of a uniform loop, the serve workloads' p99 key, whose floor
    // also guards the predicated if-arms; stencil2d: three predicable
    // boundary triangles, recorded without a floor) — plus nbody and
    // kmeans, whose uniform index rows load as one broadcast per row,
    // recorded without a floor. Sizes match the
    // training-shaped oracle batch below: the lane engine exists to speed
    // up the VM the training sweeps run on, and sweeps launch at exactly
    // this scale — a DRAM-bound size would measure memory bandwidth
    // instead of dispatch.
    let picks: &[(&str, usize)] = if quick {
        &[
            ("vec_add", 1 << 14),
            ("blackscholes", 1 << 12),
            ("sgemm", 48),
            ("mandelbrot", 48),
            ("monte_carlo_pi", 1 << 10),
            ("stencil2d", 64),
            ("nbody", 1 << 8),
            ("kmeans", 1 << 10),
        ]
    } else {
        &[
            ("vec_add", 1 << 16),
            ("blackscholes", 1 << 14),
            ("sgemm", 64),
            ("mandelbrot", 64),
            ("monte_carlo_pi", 1 << 12),
            ("stencil2d", 128),
            ("nbody", 1 << 10),
            ("kmeans", 1 << 12),
        ]
    };
    let reps = if quick { 3 } else { 5 };
    let mut rows = Vec::new();
    for &(name, n) in picks {
        let (kernel, inst) = bench_instance(name, n);
        let bench = hetpart_suite::by_name(name).expect("suite kernel exists");
        let unopt = bench.compile_with_modes(
            hetpart_inspire::OptLevel::None,
            hetpart_inspire::RegAlloc::On,
        );
        // Same optimizer pipeline, register allocation off: the same
        // decoded walk over the pre-allocation register files.
        let noalloc = bench.compile_with_modes(
            hetpart_inspire::OptLevel::Full,
            hetpart_inspire::RegAlloc::Off,
        );
        let extent = inst.nd.split_extent();
        let mut vm = Vm::new();
        let mut bufs = inst.bufs.clone();
        // Every ratio compares configurations timed interleaved (one rep
        // of each per round, min over rounds) rather than in sequential
        // blocks, because interleaving cancels the slow frequency/load
        // drift and host phases that otherwise dominate block-to-block
        // comparisons. The scalar baseline shares its round-robin with
        // the lane engine. The first lane run after a scalar run
        // re-warms the lane engine's code (up to 25% of a short kmeans
        // run), so a lane run whose time is discarded sits between them.
        let [scalar_s, _, paired_lanes_s] = interleaved_best(5 * reps, |config| {
            if config == 0 {
                vm.run_range_scalar(&unopt.bytecode, &inst.nd, 0..extent, &inst.args, &mut bufs)
            } else {
                vm.run_range_lanes(&kernel.bytecode, &inst.nd, 0..extent, &inst.args, &mut bufs)
            }
            .unwrap();
        });
        // The three lane configurations get a round-robin of their own:
        // rounds stretched by the scalar run span host phases, and their
        // minima then come from different phases.
        let configs = [&kernel, &unopt, &noalloc];
        let [lanes_s, unopt_lanes_s, noregalloc_lanes_s] = interleaved_best(5 * reps, |config| {
            vm.run_range_lanes(
                &configs[config].bytecode,
                &inst.nd,
                0..extent,
                &inst.args,
                &mut bufs,
            )
            .unwrap();
        });
        rows.push(RunRangeRow {
            kernel: name.to_string(),
            items: inst.nd.total() as u64,
            scalar_s,
            paired_lanes_s,
            lanes_s,
            unopt_lanes_s,
            noregalloc_lanes_s,
            speedup: scalar_s / paired_lanes_s,
            speedup_vs_unopt: unopt_lanes_s / lanes_s,
            speedup_vs_noregalloc: noregalloc_lanes_s / lanes_s,
            static_instrs_unopt: unopt.bytecode.num_instrs(),
            static_instrs_opt: kernel.bytecode.num_instrs(),
            regfile_i_before: noalloc.bytecode.n_iregs,
            regfile_i_after: kernel.bytecode.n_iregs,
            regfile_f_before: noalloc.bytecode.n_fregs,
            regfile_f_after: kernel.bytecode.n_fregs,
        });
    }
    rows
}

/// The PR-1 training oracle, reconstructed from public APIs with the
/// scalar engine and the *same* two-phase rayon structure as
/// [`sweep_many`]: parallel per-job contexts (scalar probe profile +
/// transfer cache), then one flat parallel pass over (job × partition)
/// pairs. Keeping the parallelism identical means the recorded speedups
/// isolate the lane engine and the pruning, not core count.
fn scalar_engine_oracle(ex: &Executor, jobs: &[SweepJob<'_>]) -> Vec<PartitionSweep> {
    use rayon::prelude::*;
    type Ctx = (
        LaunchProfile,
        HashMap<(usize, usize), (u64, u64)>,
        Vec<Partition>,
    );
    let ctxs: Vec<Ctx> = jobs
        .par_iter()
        .map(|job| {
            let launch = job.launch;
            let profile = LaunchProfile::collect_scalar(
                launch.kernel,
                &launch.nd,
                &launch.args,
                job.bufs,
                SWEEP_PROFILE_SAMPLES.max(ex.sample_items),
            )
            .unwrap();
            let scalars = scalar_values(launch.kernel, &launch.args);
            let space = Partition::enumerate(ex.machine.num_devices(), job.step_tenths);
            let extent = launch.nd.split_extent();
            let mut transfers: HashMap<(usize, usize), (u64, u64)> = HashMap::new();
            for partition in &space {
                for chunk in partition.chunks(extent) {
                    if !chunk.is_empty() {
                        transfers
                            .entry((chunk.start, chunk.end))
                            .or_insert_with(|| {
                                transfer_bytes(
                                    launch.kernel,
                                    &launch.nd,
                                    chunk.clone(),
                                    &scalars,
                                    &launch.args,
                                    job.bufs,
                                )
                            });
                    }
                }
            }
            (profile, transfers, space)
        })
        .collect();

    let mut pairs = Vec::new();
    for (ji, (_, _, space)) in ctxs.iter().enumerate() {
        for pi in 0..space.len() {
            pairs.push((ji, pi));
        }
    }
    let entries: Vec<hetpart_runtime::SweepEntry> = pairs
        .into_par_iter()
        .map(|(ji, pi)| {
            let job = &jobs[ji];
            let (profile, transfers, space) = &ctxs[ji];
            let partition = &space[pi];
            let report = ex.price_with_profile(job.launch, partition, profile, |chunk| {
                transfers[&(chunk.start, chunk.end)]
            });
            hetpart_runtime::SweepEntry {
                partition: partition.clone(),
                time: report.time,
            }
        })
        .collect();

    let mut sweeps = Vec::with_capacity(jobs.len());
    let mut offset = 0;
    for (_, _, space) in &ctxs {
        sweeps.push(PartitionSweep {
            entries: entries[offset..offset + space.len()].to_vec(),
        });
        offset += space.len();
    }
    sweeps
}

fn oracle_row(quick: bool) -> OracleRow {
    let ex = Executor::new(hetpart_oclsim::machines::mc2());
    // A training-shaped batch: mixed arithmetic intensity, mixed sizes.
    let picks: &[(&str, usize)] = if quick {
        &[
            ("vec_add", 1 << 13),
            ("blackscholes", 1 << 11),
            ("nbody", 1 << 9),
            ("sgemm", 48),
            ("mandelbrot", 48),
            ("dot_product", 1 << 12),
        ]
    } else {
        &[
            ("vec_add", 1 << 14),
            ("vec_add", 1 << 16),
            ("blackscholes", 1 << 12),
            ("blackscholes", 1 << 14),
            ("nbody", 1 << 10),
            ("sgemm", 64),
            ("mandelbrot", 64),
            ("dot_product", 1 << 14),
        ]
    };
    let compiled: Vec<(hetpart_inspire::CompiledKernel, Instance)> = picks
        .iter()
        .map(|&(name, n)| bench_instance(name, n))
        .collect();
    let launches: Vec<Launch> = compiled
        .iter()
        .map(|(k, inst)| Launch::new(k, inst.nd.clone(), inst.args.clone()))
        .collect();
    let jobs: Vec<SweepJob> = launches
        .iter()
        .zip(&compiled)
        .map(|(launch, (_, inst))| SweepJob {
            launch,
            bufs: &inst.bufs,
            step_tenths: 1,
        })
        .collect();
    // The PR-1 baseline ran on unoptimized bytecode — compile a second
    // set of kernels at `OptLevel::None` for its timing.
    let compiled_unopt: Vec<(hetpart_inspire::CompiledKernel, Instance)> = picks
        .iter()
        .map(|&(name, n)| {
            let bench = hetpart_suite::by_name(name).expect("suite kernel exists");
            (
                bench.compile_with_modes(
                    hetpart_inspire::OptLevel::None,
                    hetpart_inspire::RegAlloc::On,
                ),
                bench.instance(n),
            )
        })
        .collect();
    let launches_unopt: Vec<Launch> = compiled_unopt
        .iter()
        .map(|(k, inst)| Launch::new(k, inst.nd.clone(), inst.args.clone()))
        .collect();
    let jobs_unopt: Vec<SweepJob> = launches_unopt
        .iter()
        .zip(&compiled_unopt)
        .map(|(launch, (_, inst))| SweepJob {
            launch,
            bufs: &inst.bufs,
            step_tenths: 1,
        })
        .collect();

    let reps = if quick { 2 } else { 3 };
    let scalar_engine_s = time_best(reps, || {
        let _ = scalar_engine_oracle(&ex, &jobs_unopt);
    });
    let lanes_full_s = time_best(reps, || {
        sweep_many(&ex, &jobs).unwrap();
    });
    let lanes_pruned_s = time_best(reps, || {
        sweep_many_mode(&ex, &jobs, SweepMode::Pruned).unwrap();
    });

    // Refuse to record numbers from a broken comparison: all three
    // oracles must agree on every argmin. The parity check runs the
    // scalar-engine oracle on the *same* (optimized) bytecode as the
    // lane oracles so it isolates engine/pruning drift — the unoptimized
    // set above is only the timing baseline.
    let reference = scalar_engine_oracle(&ex, &jobs);
    let full = sweep_many(&ex, &jobs).unwrap();
    let pruned = sweep_many_mode(&ex, &jobs, SweepMode::Pruned).unwrap();
    for ((r, f), p) in reference.iter().zip(&full).zip(&pruned) {
        assert_eq!(r.best().partition, f.best().partition, "oracle drift");
        assert_eq!(f.best().partition, p.best().partition, "pruning drift");
        assert_eq!(f.best().time.to_bits(), p.best().time.to_bits());
    }

    OracleRow {
        jobs: jobs.len(),
        partitions_per_job: Partition::enumerate(ex.machine.num_devices(), 1).len(),
        scalar_engine_s,
        lanes_full_s,
        lanes_pruned_s,
        speedup_full: scalar_engine_s / lanes_full_s,
        speedup_pruned: scalar_engine_s / lanes_pruned_s,
    }
}

fn main() {
    let quick = std::env::var_os("VM_BENCH_QUICK").is_some_and(|v| v != "0" && !v.is_empty());
    println!("vm_batch — lane-batched VM + pruned sweep vs scalar baselines\n");
    if quick {
        println!("(VM_BENCH_QUICK=1: reduced sizes for the CI gate)\n");
    }
    let lane_tier = hetpart_inspire::vm::lane_tier();
    println!("lane tier: {lane_tier}\n");

    let run_range = run_range_rows(quick);
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9} {:>9} {:>11} {:>11}",
        "kernel",
        "items",
        "scalar",
        "opt-off",
        "ra-off",
        "lanes",
        "speedup",
        "vs opt-off",
        "vs ra-off",
        "instrs",
        "regs i+f"
    );
    for r in &run_range {
        println!(
            "{:<14} {:>10} {:>10.3}ms {:>10.3}ms {:>10.3}ms {:>10.3}ms {:>8.2}x {:>8.2}x {:>8.2}x {:>5} -> {:>3} {:>4} -> {:>3}",
            r.kernel,
            r.items,
            r.scalar_s * 1e3,
            r.unopt_lanes_s * 1e3,
            r.noregalloc_lanes_s * 1e3,
            r.lanes_s * 1e3,
            r.speedup,
            r.speedup_vs_unopt,
            r.speedup_vs_noregalloc,
            r.static_instrs_unopt,
            r.static_instrs_opt,
            r.regfile_i_before + r.regfile_f_before,
            r.regfile_i_after + r.regfile_f_after,
        );
    }

    let oracle = oracle_row(quick);
    println!(
        "\ntraining oracle ({} jobs x {} partitions):",
        oracle.jobs, oracle.partitions_per_job
    );
    println!(
        "  scalar engine  {:>10.3}ms\n  lanes, full    {:>10.3}ms  ({:.2}x)\n  lanes, pruned  {:>10.3}ms  ({:.2}x)",
        oracle.scalar_engine_s * 1e3,
        oracle.lanes_full_s * 1e3,
        oracle.speedup_full,
        oracle.lanes_pruned_s * 1e3,
        oracle.speedup_pruned,
    );

    let opt_geomean_speedup = geomean(run_range.iter().map(|r| r.speedup_vs_unopt));
    let opt_static_reduction = static_reduction();
    let regalloc_geomean_speedup = geomean(run_range.iter().map(|r| r.speedup_vs_noregalloc));
    println!(
        "\noptimizer A/B: geomean lane speedup {opt_geomean_speedup:.2}x, \
         suite static shrink {:.1}%",
        opt_static_reduction * 100.0
    );
    println!(
        "register allocation A/B: geomean lane speedup {regalloc_geomean_speedup:.2}x \
         (allocated vs unallocated register files, same decoded walk)"
    );

    let targets = Targets {
        oracle_speedup: 3.0,
        mandelbrot_speedup: 3.0,
        blackscholes_speedup: 2.5,
        monte_carlo_pi_speedup: 9.0,
        opt_geomean_speedup: 1.0,
        opt_static_reduction: 0.15,
        regalloc_geomean_speedup: 0.95,
    };
    let kernel_speedup = |name: &str| {
        run_range
            .iter()
            .find(|r| r.kernel == name)
            .map_or(0.0, |r| r.speedup)
    };
    let target_met = check_floors(&[
        (
            "oracle_speedup",
            oracle.speedup_pruned,
            targets.oracle_speedup,
        ),
        (
            "mandelbrot_speedup",
            kernel_speedup("mandelbrot"),
            targets.mandelbrot_speedup,
        ),
        (
            "blackscholes_speedup",
            kernel_speedup("blackscholes"),
            targets.blackscholes_speedup,
        ),
        (
            "monte_carlo_pi_speedup",
            kernel_speedup("monte_carlo_pi"),
            targets.monte_carlo_pi_speedup,
        ),
        (
            "opt_geomean_speedup",
            opt_geomean_speedup,
            targets.opt_geomean_speedup,
        ),
        (
            "opt_static_reduction",
            opt_static_reduction,
            targets.opt_static_reduction,
        ),
        (
            "regalloc_geomean_speedup",
            regalloc_geomean_speedup,
            targets.regalloc_geomean_speedup,
        ),
    ]);
    println!("\ntarget_met: {target_met}");
    let report = Report {
        bench: "vm_batch".to_string(),
        lane_width: hetpart_inspire::vm::LANES,
        lane_tier,
        quick,
        run_range,
        oracle,
        opt_geomean_speedup,
        regalloc_geomean_speedup,
        opt_static_reduction,
        targets,
        target_met,
    };
    write_report("BENCH_vm.json", &report);
}
