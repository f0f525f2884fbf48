//! The correctness property of the whole system: partitioned multi-device
//! execution must be functionally identical to single-device execution for
//! every benchmark of the suite — the source-to-source transformation the
//! Insieme compiler performs must not change program semantics.

use hetpart_inspire::vm::BufferData;
use hetpart_oclsim::machines;
use hetpart_runtime::{
    ExecutionReport, Executor, Launch, LaunchError, LaunchProfile, Partition, DEFAULT_SAMPLE_ITEMS,
};

/// Partitions that exercise interesting split shapes.
fn probe_partitions() -> Vec<Partition> {
    vec![
        Partition::cpu_only(3),
        Partition::gpu_only(3),
        Partition::even(3),
        Partition::from_tenths(vec![1, 2, 7]),
        Partition::from_tenths(vec![0, 9, 1]),
    ]
}

/// Plan `partition` for `launch` and execute it on `bufs`.
fn run(
    ex: &Executor,
    launch: &Launch,
    bufs: &mut [BufferData],
    partition: &Partition,
) -> Result<ExecutionReport, LaunchError> {
    let plan = ex.plan_execution(launch, bufs, partition, 0.0);
    ex.run_planned(launch, bufs, &plan)
}

#[test]
fn every_benchmark_is_partition_invariant() {
    let ex = Executor::new(machines::mc1());
    for bench in hetpart_suite::all() {
        let kernel = bench.compile();
        let n = bench.smallest_size();
        let inst = bench.instance(n);
        for partition in probe_partitions() {
            let mut bufs = inst.bufs.clone();
            let launch = Launch::new(&kernel, inst.nd.clone(), inst.args.clone());
            run(&ex, &launch, &mut bufs, &partition)
                .unwrap_or_else(|e| panic!("{} under {partition}: {e}", bench.name));
            bench
                .check_outputs(&inst, &bufs)
                .unwrap_or_else(|e| panic!("{} under {partition}: {e}", bench.name));
        }
    }
}

#[test]
fn two_dimensional_kernels_split_rows_not_columns() {
    // For a 2D kernel, the chunks partition the row (outermost) dimension:
    // verify via the execution report that the chunk bounds tile the rows.
    let bench = hetpart_suite::by_name("stencil2d").unwrap();
    let kernel = bench.compile();
    let n = bench.smallest_size();
    let inst = bench.instance(n);
    let ex = Executor::new(machines::mc2());
    let launch = Launch::new(&kernel, inst.nd.clone(), inst.args.clone());
    let mut bufs = inst.bufs.clone();
    let report = run(&ex, &launch, &mut bufs, &Partition::even(3)).unwrap();
    let mut covered = 0;
    for run in &report.device_runs {
        assert_eq!(run.chunk_start, covered, "chunks must be contiguous");
        covered = run.chunk_end;
    }
    assert_eq!(covered, n, "chunks must cover all {n} rows");
}

#[test]
fn partition_report_times_are_positive_and_bounded() {
    let ex = Executor::new(machines::mc2());
    for bench in hetpart_suite::all().into_iter().take(6) {
        let kernel = bench.compile();
        let inst = bench.instance(bench.smallest_size());
        let launch = Launch::new(&kernel, inst.nd.clone(), inst.args.clone());
        let profile = LaunchProfile::collect(
            &kernel,
            &inst.nd,
            &inst.args,
            &inst.bufs,
            DEFAULT_SAMPLE_ITEMS,
        )
        .unwrap();
        let report = ex.simulate_with_profile(&launch, &inst.bufs, &Partition::even(3), &profile);
        assert!(
            report.time > 0.0 && report.time < 10.0,
            "{}: {}",
            bench.name,
            report.time
        );
        let slowest = report
            .device_runs
            .iter()
            .map(|r| r.time.total)
            .fold(0.0f64, f64::max);
        assert!(report.time >= slowest);
    }
}
