//! Deployment-service correctness: concurrent, cached serving must be
//! observably identical to the serial `run_auto` loop.
//!
//! For every benchmark in the suite, N concurrent submissions produce
//! output buffers and chosen partitions bit-identical to running the same
//! launches serially through `Framework::run_auto`, and a cache-hit
//! launch returns the same partition (and outputs) as its cold-miss twin.

use std::sync::Arc;

use hetpart_core::{
    collect_training_db, FeatureSet, Framework, HarnessConfig, PartitionPredictor, Service,
    ServiceConfig,
};
use hetpart_ml::{ModelConfig, TreeConfig};
use hetpart_oclsim::machines;
use hetpart_runtime::Executor;

fn deployed_framework() -> Framework {
    let benches: Vec<_> = hetpart_suite::all()
        .into_iter()
        .filter(|b| ["vec_add", "blackscholes", "sgemm", "spmv_csr"].contains(&b.name))
        .collect();
    let cfg = HarnessConfig {
        sizes_per_benchmark: 2,
        sample_items: 32,
        step_tenths: 5,
        ..HarnessConfig::quick()
    };
    let db = collect_training_db(&machines::mc2(), &benches, &cfg).unwrap();
    let predictor = PartitionPredictor::train(
        &db,
        &ModelConfig::Tree(TreeConfig::default()),
        FeatureSet::Both,
    );
    Framework {
        executor: Executor::new(machines::mc2()),
        predictor,
    }
}

/// Every suite benchmark, submitted concurrently, matches the serial
/// deployment path bit for bit — partitions, reports and output buffers.
#[test]
fn concurrent_service_is_bit_identical_to_serial_run_auto_for_every_benchmark() {
    let fw = deployed_framework();

    // Serial reference: the synchronous deployment loop.
    let suite = hetpart_suite::all();
    let mut serial = Vec::new();
    for bench in &suite {
        let kernel = Arc::new(bench.compile());
        let inst = bench.instance(bench.smallest_size());
        let mut bufs = inst.bufs.clone();
        let (partition, report) = fw
            .run_auto(&kernel, &inst.nd, &inst.args, &mut bufs)
            .unwrap_or_else(|e| panic!("{}: serial launch failed: {e}", bench.name));
        serial.push((kernel, inst, partition, report, bufs));
    }

    // Concurrent: submit everything up front on a multi-worker service,
    // then collect.
    let service = Service::new(
        fw,
        ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        },
    )
    .expect("trained framework deploys on its training machine");
    let tickets: Vec<_> = serial
        .iter()
        .map(|(kernel, inst, _, _, _)| {
            service
                .submit(
                    Arc::clone(kernel),
                    inst.nd.clone(),
                    inst.args.clone(),
                    inst.bufs.clone(),
                )
                .expect("admitted")
        })
        .collect();

    for (i, ticket) in tickets.into_iter().enumerate() {
        let (_, inst, partition, report, bufs) = &serial[i];
        let bench = &suite[i];
        let served = ticket
            .wait()
            .unwrap_or_else(|e| panic!("{}: served launch failed: {e}", bench.name));
        assert_eq!(
            served.partition, *partition,
            "{}: service chose a different partition than run_auto",
            bench.name
        );
        assert_eq!(
            served.report, *report,
            "{}: service report differs from run_auto",
            bench.name
        );
        assert_eq!(
            served.bufs, *bufs,
            "{}: service outputs differ from run_auto",
            bench.name
        );
        bench
            .check_outputs(inst, &served.bufs)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
    }

    let stats = service.stats();
    assert_eq!(stats.completed, suite.len() as u64);
    assert_eq!(stats.errors, 0);
    service.shutdown();
}

/// A cache-hit launch must return the same partition (and outputs) as its
/// cold-miss twin, for every suite benchmark.
#[test]
fn cache_hits_match_their_cold_miss_twins() {
    let fw = deployed_framework();
    let service = Service::new(fw, ServiceConfig::default()).expect("valid framework");
    for bench in hetpart_suite::all() {
        let kernel = Arc::new(bench.compile());
        let inst = bench.instance(bench.smallest_size());
        let cold = service
            .submit(
                Arc::clone(&kernel),
                inst.nd.clone(),
                inst.args.clone(),
                inst.bufs.clone(),
            )
            .expect("admitted")
            .wait()
            .unwrap_or_else(|e| panic!("{}: cold launch failed: {e}", bench.name));
        assert!(!cold.cache_hit, "{}: first launch must miss", bench.name);
        let warm = service
            .submit(
                kernel,
                inst.nd.clone(),
                inst.args.clone(),
                inst.bufs.clone(),
            )
            .expect("admitted")
            .wait()
            .unwrap_or_else(|e| panic!("{}: warm launch failed: {e}", bench.name));
        assert!(warm.cache_hit, "{}: repeat launch must hit", bench.name);
        assert_eq!(warm.partition, cold.partition, "{}", bench.name);
        assert_eq!(warm.bufs, cold.bufs, "{}", bench.name);
    }
    let stats = service.stats();
    assert_eq!(stats.cache_hits, stats.cache_misses);
    service.shutdown();
}

/// The same, with the content-keyed result memo enabled: replayed results
/// are bit-identical to executed ones.
#[test]
fn result_memo_is_bit_identical_across_the_suite() {
    let fw = deployed_framework();
    let service = Service::new(
        fw,
        ServiceConfig {
            result_cache_capacity: 64,
            ..ServiceConfig::default()
        },
    )
    .expect("valid framework");
    for bench in hetpart_suite::all().into_iter().take(8) {
        let kernel = Arc::new(bench.compile());
        let inst = bench.instance(bench.smallest_size());
        let submit = || {
            service
                .submit(
                    Arc::clone(&kernel),
                    inst.nd.clone(),
                    inst.args.clone(),
                    inst.bufs.clone(),
                )
                .expect("admitted")
        };
        let cold = submit().wait().unwrap();
        assert!(!cold.result_hit, "{}", bench.name);
        let warm = submit().wait().unwrap();
        assert!(warm.result_hit, "{}", bench.name);
        assert_eq!(warm.partition, cold.partition, "{}", bench.name);
        assert_eq!(warm.bufs, cold.bufs, "{}", bench.name);
        assert_eq!(warm.report, cold.report, "{}", bench.name);
    }
    service.shutdown();
}
