//! Unit tests of the deployment service, grouped by the module whose code
//! they exercise. They go through the service's private state (the queue,
//! the counters, the breaker registry), so they live inside `serve`.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use hetpart_inspire::vm::{ArgValue, BufferData};
use hetpart_ml::{ModelConfig, TreeConfig};
use hetpart_oclsim::{machines, DeviceFaults, FaultPlan};
use hetpart_runtime::{Executor, Partition};

use super::health::HealthRegistry;
use super::launch::writable_copies;
use super::*;
use crate::config::HarnessConfig;
use crate::db::FeatureSet;
use crate::predictor::PartitionPredictor;
use crate::train::collect_training_db;

fn small_framework() -> Framework {
    let benches: Vec<_> = hetpart_suite::all()
        .into_iter()
        .filter(|b| ["vec_add", "blackscholes", "sgemm"].contains(&b.name))
        .collect();
    let cfg = HarnessConfig {
        sizes_per_benchmark: 2,
        sample_items: 32,
        step_tenths: 5,
        ..HarnessConfig::quick()
    };
    let db = collect_training_db(&machines::mc2(), &benches, &cfg).expect("training succeeds");
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

/// A framework whose predictor always answers the given partition
/// (single-class KNN): fault tests control exactly which devices a
/// launch uses, independent of training noise.
fn pinned_framework(tenths: Vec<u8>) -> Framework {
    let probe = hetpart_suite::by_name("vec_add").unwrap().compile();
    let dim = probe.static_features.to_vec().len();
    let x = vec![vec![0.0; dim]];
    let pipeline = hetpart_ml::Pipeline::fit(&ModelConfig::Knn { k: 1 }, &x, &[0], 1);
    let machine = machines::mc2();
    let predictor = PartitionPredictor::new(
        machine.name.clone(),
        machine.fingerprint(),
        vec![Partition::from_tenths(tenths)],
        pipeline,
        FeatureSet::StaticOnly,
        dim,
    )
    .unwrap();
    Framework {
        executor: Executor::new(machines::mc2()),
        predictor,
    }
}

fn gpu1_only_faulty(faults: DeviceFaults, config: ServiceConfig) -> Service {
    // All work pinned to device 1 (the first GPU), which is the
    // faulted device: every launch hits the fault machinery.
    let fw = pinned_framework(vec![0, 10, 0]);
    Service::new(
        fw,
        ServiceConfig {
            workers: 1,
            fault_plan: Some(FaultPlan {
                seed: 7,
                faults: vec![faults],
            }),
            ..config
        },
    )
    .unwrap()
}

fn submit_vec_add(service: &Service) -> Result<Ticket, DeployError> {
    let bench = hetpart_suite::by_name("vec_add").unwrap();
    let kernel = Arc::new(bench.compile());
    let inst = bench.instance(bench.smallest_size());
    service.submit(
        kernel,
        inst.nd.clone(),
        inst.args.clone(),
        inst.bufs.clone(),
    )
}

// ---- cache: plan keys and the striped memo ----

#[test]
fn plan_key_separates_kernels_sizes_and_scalars() {
    let bench = hetpart_suite::by_name("vec_add").unwrap();
    let kernel = bench.compile();
    let a = bench.instance(bench.smallest_size());
    let key_a = PlanKey::of(&kernel, &a.nd, &a.args, &a.bufs);
    assert_eq!(key_a, PlanKey::of(&kernel, &a.nd, &a.args, &a.bufs));

    let b = bench.instance(bench.sizes[1]);
    assert_ne!(key_a, PlanKey::of(&kernel, &b.nd, &b.args, &b.bufs));

    let other = hetpart_suite::by_name("triad").unwrap().compile();
    assert_ne!(key_a, PlanKey::of(&other, &a.nd, &a.args, &a.bufs));
}

#[test]
fn plan_key_distinguishes_buffer_bindings() {
    // [Buffer(0), Buffer(1)] vs [Buffer(1), Buffer(0)]: same shapes,
    // opposite data flow — must not share a plan or memoized result.
    let kernel = hetpart_inspire::compile(
        "kernel void copy(global const float* src, global float* dst) {
            int i = get_global_id(0);
            dst[i] = src[i];
        }",
    )
    .unwrap();
    let nd = hetpart_inspire::NdRange::d1(16);
    let bufs = vec![
        BufferData::F32(vec![1.0; 16]),
        BufferData::F32(vec![2.0; 16]),
    ];
    let fwd = [ArgValue::Buffer(0), ArgValue::Buffer(1)];
    let rev = [ArgValue::Buffer(1), ArgValue::Buffer(0)];
    assert_ne!(
        PlanKey::of(&kernel, &nd, &fwd, &bufs),
        PlanKey::of(&kernel, &nd, &rev, &bufs)
    );
    let aliased = [ArgValue::Buffer(0), ArgValue::Buffer(0)];
    assert_ne!(
        PlanKey::of(&kernel, &nd, &fwd, &bufs),
        PlanKey::of(&kernel, &nd, &aliased, &bufs)
    );
}

#[test]
fn striped_cache_agrees_with_single_stripe_and_bounds_occupancy() {
    // Same key set, any stripe count: identical visible contents.
    let single: StripedCache<u64, u64> = StripedCache::new(1024, 1);
    let striped: StripedCache<u64, u64> = StripedCache::new(1024, 16);
    for k in 0..512u64 {
        single.insert(k, k * 3);
        striped.insert(k, k * 3);
    }
    for k in 0..512u64 {
        assert_eq!(single.get(&k), Some(k * 3));
        assert_eq!(striped.get(&k), single.get(&k));
    }
    assert_eq!(striped.get(&9999), None);

    // Per-stripe FIFO keeps total occupancy near the capacity even
    // under heavy churn.
    let tiny: StripedCache<u64, u64> = StripedCache::new(32, 8);
    for k in 0..10_000u64 {
        tiny.insert(k, k);
    }
    let live = (0..10_000u64).filter(|k| tiny.get(k).is_some()).count();
    assert!(
        live <= 32 + 8,
        "occupancy {live} exceeds capacity + stripes"
    );

    // Capacity 0 disables caching regardless of stripe count.
    let off: StripedCache<u64, u64> = StripedCache::new(0, 16);
    off.insert(1, 1);
    assert_eq!(off.get(&1), None);
}

#[test]
fn striped_cache_is_safe_under_concurrent_mixed_traffic() {
    let cache: Arc<StripedCache<u64, u64>> = Arc::new(StripedCache::new(256, 16));
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let k = (t * 37 + i) % 64;
                    cache.insert(k, k + 1);
                    if let Some(v) = cache.get(&k) {
                        assert_eq!(v, k + 1, "a striped read must never tear");
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

// ---- health: circuit breakers ----

#[test]
fn breaker_opens_after_threshold_cools_down_and_probes_half_open() {
    let h = HealthRegistry::new(3, 2, Duration::from_millis(20));
    assert!(h.avoided().is_empty());
    h.record_failure(1, false);
    assert!(h.avoided().is_empty(), "one failure is under threshold");
    h.record_failure(1, false);
    assert_eq!(h.avoided(), vec![1], "threshold reached: breaker open");
    assert_eq!(h.open_breakers(), 1);
    std::thread::sleep(Duration::from_millis(25));
    // Cooldown elapsed: the device is offered for one half-open probe.
    assert!(h.avoided().is_empty());
    // A failed probe re-opens immediately (no threshold counting).
    h.record_failure(1, false);
    assert_eq!(h.avoided(), vec![1]);
    std::thread::sleep(Duration::from_millis(25));
    assert!(h.avoided().is_empty());
    h.record_success(1);
    h.record_failure(1, false);
    assert!(h.avoided().is_empty(), "success reset the failure count");
    // Permanent death avoids the device regardless of breaker state.
    h.record_failure(2, true);
    assert_eq!(h.avoided(), vec![2]);
    assert_eq!(h.dead_devices(), 1);
}

// ---- launch: tiered lookup, retry and re-plan ----

#[test]
fn retry_restore_copies_only_writable_buffers() {
    let k = hetpart_inspire::compile(
        "kernel void k(global const float* a, global float* o, global float* p) {
            int i = get_global_id(0);
            o[i] = a[i];
            p[i] = p[i] + 1.0;
        }",
    )
    .unwrap();
    let bufs = vec![
        BufferData::F32(vec![1.0; 4]),
        BufferData::F32(vec![2.0; 4]),
        BufferData::F32(vec![3.0; 4]),
    ];
    // `o` and `p` share buffer 1; buffer 0 is only read and buffer 2
    // is not bound at all.
    let args = [
        ArgValue::Buffer(0),
        ArgValue::Buffer(1),
        ArgValue::Buffer(1),
    ];
    assert_eq!(
        writable_copies(&k, &args, &bufs),
        vec![(1, bufs[1].clone())]
    );
}

#[test]
fn served_launch_matches_run_auto_and_caches() {
    let fw = small_framework();
    let bench = hetpart_suite::by_name("vec_add").unwrap();
    let kernel = Arc::new(bench.compile());
    let inst = bench.instance(bench.smallest_size());

    let mut serial_bufs = inst.bufs.clone();
    let (serial_partition, serial_report) = fw
        .run_auto(&kernel, &inst.nd, &inst.args, &mut serial_bufs)
        .unwrap();

    let service = Service::new(fw, ServiceConfig::default()).unwrap();
    let cold = service
        .submit(
            Arc::clone(&kernel),
            inst.nd.clone(),
            inst.args.clone(),
            inst.bufs.clone(),
        )
        .expect("admitted")
        .wait()
        .unwrap();
    assert!(!cold.cache_hit);
    assert_eq!(cold.partition, serial_partition);
    assert_eq!(cold.report, serial_report);
    assert_eq!(cold.bufs, serial_bufs);

    let warm = service
        .submit(
            kernel,
            inst.nd.clone(),
            inst.args.clone(),
            inst.bufs.clone(),
        )
        .expect("admitted")
        .wait()
        .unwrap();
    assert!(warm.cache_hit);
    assert_eq!(warm.partition, serial_partition);
    assert_eq!(warm.report, serial_report);
    assert_eq!(warm.bufs, serial_bufs);

    let stats = service.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.errors, 0);
    service.shutdown();
}

#[test]
fn result_memo_replays_identical_launches_exactly() {
    let fw = small_framework();
    let bench = hetpart_suite::by_name("vec_add").unwrap();
    let kernel = Arc::new(bench.compile());
    let inst = bench.instance(bench.smallest_size());
    let service = Service::new(
        fw,
        ServiceConfig {
            result_cache_capacity: 64,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let submit = |bufs: Vec<BufferData>| {
        service
            .submit(
                Arc::clone(&kernel),
                inst.nd.clone(),
                inst.args.clone(),
                bufs,
            )
            .expect("admitted")
            .wait()
            .unwrap()
    };
    let cold = submit(inst.bufs.clone());
    assert!(!cold.result_hit);
    let warm = submit(inst.bufs.clone());
    assert!(warm.result_hit && warm.cache_hit);
    assert_eq!(warm.bufs, cold.bufs);
    assert_eq!(warm.partition, cold.partition);
    assert_eq!(warm.report, cold.report);

    // Different contents (same shape) must execute, not replay.
    let mut other = inst.bufs.clone();
    match &mut other[0] {
        BufferData::F32(v) => v[0] += 1.0,
        _ => panic!("vec_add input 0 is f32"),
    }
    let different = submit(other);
    assert!(!different.result_hit, "contents changed: memo must miss");
    assert!(different.cache_hit, "plan tier still hits on same shape");
    assert_ne!(different.bufs, cold.bufs);
    assert_eq!(service.stats().result_hits, 1);
    service.shutdown();
}

#[test]
fn disabled_cache_never_hits() {
    let fw = small_framework();
    let bench = hetpart_suite::by_name("vec_add").unwrap();
    let kernel = Arc::new(bench.compile());
    let inst = bench.instance(bench.smallest_size());
    let service = Service::new(
        fw,
        ServiceConfig {
            cache_capacity: 0,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    for _ in 0..3 {
        let r = service
            .submit(
                Arc::clone(&kernel),
                inst.nd.clone(),
                inst.args.clone(),
                inst.bufs.clone(),
            )
            .expect("admitted")
            .wait()
            .unwrap();
        assert!(!r.cache_hit);
    }
    assert_eq!(service.stats().cache_misses, 3);
    service.shutdown();
}

#[test]
fn single_stripe_service_still_serves_and_caches() {
    // cache_stripes: 1 is the exact pre-striping layout; the service
    // must behave identically (the bench compares the two for perf).
    let fw = small_framework();
    let bench = hetpart_suite::by_name("vec_add").unwrap();
    let kernel = Arc::new(bench.compile());
    let inst = bench.instance(bench.smallest_size());
    let service = Service::new(
        fw,
        ServiceConfig {
            cache_stripes: 1,
            workers: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let mut partitions = Vec::new();
    for _ in 0..3 {
        let served = service
            .submit(
                Arc::clone(&kernel),
                inst.nd.clone(),
                inst.args.clone(),
                inst.bufs.clone(),
            )
            .expect("admitted")
            .wait()
            .unwrap();
        partitions.push(served.partition);
    }
    assert!(partitions.windows(2).all(|w| w[0] == w[1]));
    assert!(service.stats().cache_hits >= 1);
    service.shutdown();
}

#[test]
fn transient_faults_retry_then_replan_to_survivors() {
    let service = gpu1_only_faulty(
        DeviceFaults {
            transient_rate: 1.0,
            ..DeviceFaults::none(1)
        },
        ServiceConfig {
            max_retries: 2,
            backoff_base: Duration::ZERO,
            breaker_threshold: 0,
            ..ServiceConfig::default()
        },
    );
    let served = submit_vec_add(&service).unwrap().wait().unwrap();
    // Retries exhausted on the always-faulting GPU, then re-planned
    // onto the CPU (the only survivor of [0,10,0] minus device 1).
    assert_eq!(served.partition, Partition::from_tenths(vec![10, 0, 0]));
    let bench = hetpart_suite::by_name("vec_add").unwrap();
    let inst = bench.instance(bench.smallest_size());
    bench
        .check_outputs(&inst, &served.bufs)
        .unwrap_or_else(|e| panic!("{e}"));
    let stats = service.stats();
    assert_eq!(stats.retries, 2);
    assert_eq!(stats.replans, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.errors, 0);
    service.shutdown();
}

#[test]
fn dead_device_replans_and_subsequent_launches_pre_avoid_it() {
    let service = gpu1_only_faulty(
        DeviceFaults {
            dies_at_launch: Some(0),
            ..DeviceFaults::none(1)
        },
        ServiceConfig::default(),
    );
    let first = submit_vec_add(&service).unwrap().wait().unwrap();
    assert_eq!(first.partition, Partition::from_tenths(vec![10, 0, 0]));
    let mid = service.stats();
    assert_eq!(mid.replans, 1);
    assert_eq!(mid.retries, 0, "permanent death must not burn retries");
    assert_eq!(mid.dead_devices, 1);
    // The death is sticky: the next launch routes around the device
    // *before* executing (a second replan, still zero retries).
    let second = submit_vec_add(&service).unwrap().wait().unwrap();
    assert_eq!(second.partition, Partition::from_tenths(vec![10, 0, 0]));
    assert_eq!(second.bufs, first.bufs);
    let stats = service.stats();
    assert_eq!(stats.replans, 2);
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.completed, 2);
    service.shutdown();
}

// ---- queue, worker pool and shutdown ----

#[test]
fn panicking_job_resolves_ticket_and_service_keeps_serving() {
    // Regression: a panic mid-job used to be survivable only because
    // every later lock `expect` had not yet been poisoned by it; now
    // the locks recover explicitly and the panic is accounted.
    let service = gpu1_only_faulty(
        DeviceFaults {
            panics_at_launch: Some(0),
            ..DeviceFaults::none(1)
        },
        ServiceConfig::default(),
    );
    let err = submit_vec_add(&service).unwrap().wait().unwrap_err();
    assert!(matches!(err, DeployError::Worker(_)), "{err}");
    let mid = service.stats();
    assert_eq!(mid.worker_panics, 1);
    assert_eq!(mid.errors, 1);
    // The panic fired once (launch ordinal 0); the service keeps
    // serving on the same device afterwards.
    let served = submit_vec_add(&service).unwrap().wait().unwrap();
    assert_eq!(served.partition, Partition::from_tenths(vec![0, 10, 0]));
    let bench = hetpart_suite::by_name("vec_add").unwrap();
    let inst = bench.instance(bench.smallest_size());
    bench
        .check_outputs(&inst, &served.bufs)
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(service.stats().completed, 1);
    service.shutdown();
}

/// A service whose single worker is deterministically busy for about
/// 50 ms per job (every attempt transiently faults; the 12 retries
/// sleep 1, 2, 4, then 5 ms each before the CPU re-plan completes the
/// job) — the backbone of the overload and shutdown tests.
fn busy_service(config: ServiceConfig) -> Service {
    gpu1_only_faulty(
        DeviceFaults {
            transient_rate: 1.0,
            ..DeviceFaults::none(1)
        },
        ServiceConfig {
            max_retries: 12,
            backoff_base: Duration::from_millis(1),
            breaker_threshold: 0,
            ..config
        },
    )
}

#[test]
fn full_queue_sheds_with_typed_overload_error() {
    let service = busy_service(ServiceConfig {
        max_queue_depth: 1,
        ..ServiceConfig::default()
    });
    // First job: admitted, and we wait for the worker to actually pop
    // it (under a loaded test runner the worker's condvar wake-up can
    // lag past our next submission, which would shed job 2 as well).
    let first = submit_vec_add(&service).expect("empty queue admits");
    while !lock_recover(&service.shared.queue).jobs.is_empty() {
        std::thread::yield_now();
    }
    // Worker busy with job 1 (~50ms of retry backoff): job 2 fills
    // the queue, job 3 must shed with the typed overload error.
    let second = submit_vec_add(&service).expect("empty queue admits");
    let err = match submit_vec_add(&service) {
        Err(e) => e,
        Ok(_) => panic!("full queue must shed"),
    };
    assert!(matches!(err, DeployError::Overloaded { depth: 1 }), "{err}");
    first.wait().unwrap();
    second.wait().unwrap();
    assert_eq!(service.stats().sheds, 1);
    // Load gone: admission works again.
    submit_vec_add(&service).unwrap().wait().unwrap();
    service.shutdown();
}

/// Queue several jobs behind the busy worker, stop the service with
/// `stop`, and check that the queue drained: every ticket resolves
/// `Ok`, every admitted job completed, and nothing was shed.
fn assert_stop_drains_queue(stop: fn(Service)) {
    const JOBS: u64 = 4;
    let service = busy_service(ServiceConfig::default());
    let shared = Arc::clone(&service.shared);
    let tickets: Vec<_> = (0..JOBS)
        .map(|_| submit_vec_add(&service).unwrap())
        .collect();
    assert!(
        !lock_recover(&shared.queue).jobs.is_empty(),
        "the busy worker cannot have drained the queue yet"
    );
    stop(service);
    for t in tickets {
        t.wait().unwrap();
    }
    assert_eq!(shared.stats.completed.load(Ordering::Relaxed), JOBS);
    assert_eq!(shared.stats.errors.load(Ordering::Relaxed), 0);
    assert_eq!(shared.stats.sheds.load(Ordering::Relaxed), 0);
}

#[test]
fn shutdown_completes_every_queued_job() {
    assert_stop_drains_queue(Service::shutdown);
}

#[test]
fn drop_completes_every_queued_job() {
    assert_stop_drains_queue(drop);
}

#[test]
fn noop_fault_plan_stays_disarmed_and_live_plan_arms() {
    let service = gpu1_only_faulty(DeviceFaults::none(1), ServiceConfig::default());
    // A no-op plan never arms fault state at all.
    assert!(service.fault_state().is_none());
    let armed = gpu1_only_faulty(
        DeviceFaults {
            transient_rate: 0.5,
            ..DeviceFaults::none(1)
        },
        ServiceConfig::default(),
    );
    assert!(armed.fault_state().is_some());
    service.shutdown();
    armed.shutdown();
}

#[test]
fn bad_submission_resolves_with_an_error_not_a_hang() {
    let fw = small_framework();
    let bench = hetpart_suite::by_name("vec_add").unwrap();
    let kernel = Arc::new(bench.compile());
    let inst = bench.instance(bench.smallest_size());
    let service = Service::new(fw, ServiceConfig::default()).unwrap();
    // Drop the trailing scalar argument: the VM rejects the launch.
    let short_args = inst.args[..inst.args.len() - 1].to_vec();
    let err = service
        .submit(kernel, inst.nd.clone(), short_args, inst.bufs.clone())
        .expect("admitted")
        .wait()
        .unwrap_err();
    assert!(matches!(err, DeployError::Vm(_)), "{err}");
    assert_eq!(service.stats().errors, 1);
    service.shutdown();
}
