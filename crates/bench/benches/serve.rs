//! `serve`: throughput of the concurrent deployment service on repeat
//! (kernel, size) traffic, versus the synchronous `run_auto` path.
//!
//! The deployment phase's per-launch overhead is the probe (runtime
//! feature collection: a scratch buffer clone plus sampled execution),
//! model inference, and one access-analysis pass per device chunk —
//! `Framework::run_auto` pays all of it on *every* launch. The service's
//! prediction cache pays it once per (kernel fingerprint, launch shape)
//! and replays the plan, so a warm launch runs only the kernel work.
//!
//! Four columns per traffic class, and totals:
//!
//! * **cold run_auto** — the synchronous deployment path, `prepare` +
//!   `execute_planned` on every launch (the baseline the acceptance
//!   target is measured against);
//! * **serve cold** — first pass through the service: every launch a
//!   cache miss (plan once + planned execution);
//! * **warm plan** — repeat passes against the plan cache only: the
//!   launch still executes, but skips probe, inference and access
//!   analysis (near 2x plus the inference and analysis cost by
//!   construction: the cold probe samples at most the extent the warm
//!   launch must still execute);
//! * **warm result** — repeat passes with the content-keyed result memo
//!   on: a bit-identical launch replays its memoized outputs.
//!
//! A fifth column measures **overload**: warm traffic fired open-loop at
//! 2x the measured closed-loop capacity against a bounded queue — shed
//! rate, p50/p99 served latency, and served throughput, which must stay
//! within 10% of the closed-loop ceiling (admission control sheds at the
//! door instead of melting the worker).
//!
//! The bench refuses to record numbers from a broken comparison: served
//! outputs, partitions and reports must be bit-identical to the serial
//! loop, and the hit/miss counters must add up. `target_met` gates CI (set
//! `SERVE_BENCH_QUICK=1` for the reduced CI sizes): warm served launches
//! (result tier) must be ≥ 5x faster than cold `run_auto` on this
//! repeat traffic, and the plan tier alone must hold ≥ 1.5x.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hetpart_bench::{check_floors, time_best, write_report};
use hetpart_core::{
    collect_training_db, DeployError, FeatureSet, Framework, HarnessConfig, LaunchPlan,
    PartitionPredictor, PlanKey, Service, ServiceConfig, StripedCache,
};
use hetpart_inspire::CompiledKernel;
use hetpart_ml::{ModelConfig, TreeConfig};
use hetpart_oclsim::machines;
use hetpart_runtime::Executor;
use hetpart_suite::Instance;
use serde::Serialize;

/// One worker, always: this bench compares *per-launch* cold and warm
/// latency, and a single worker keeps the cache accounting deterministic
/// (with N workers, N concurrent cold submissions of the same key can
/// each legitimately count a miss before the first plan lands in the
/// cache — fine for serving, fatal for exact assert_eq gates on a
/// multi-core CI runner).
fn bench_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }
}

#[derive(Serialize)]
struct TrafficRow {
    kernel: String,
    size: usize,
    launches: usize,
    /// Serial `run_auto` per launch (re-planned every time).
    cold_run_auto_ms: f64,
    /// Served, cache cold (plan once + planned execution).
    serve_cold_ms: f64,
    /// Served, plan-cache hit (planned execution only).
    warm_plan_ms: f64,
    /// Served, result-memo hit (no execution).
    warm_result_ms: f64,
    /// cold_run_auto_ms / warm_plan_ms.
    plan_speedup: f64,
    /// cold_run_auto_ms / warm_result_ms.
    warm_speedup: f64,
}

#[derive(Serialize)]
struct Totals {
    launches: usize,
    cold_run_auto_s: f64,
    warm_plan_s: f64,
    warm_result_s: f64,
    plan_speedup: f64,
    warm_speedup: f64,
    cache_hits: u64,
    cache_misses: u64,
    result_hits: u64,
}

/// The lock-striping column: the prediction cache hammered from a worker
/// pool's worth of threads, single mutex (`stripes = 1`, the PR-4 layout)
/// versus the striped default, plus the end-to-end served comparison.
#[derive(Serialize)]
struct StripedRow {
    threads: usize,
    stripes: usize,
    keys: usize,
    ops_per_thread: usize,
    /// Million cache ops/sec, one mutex.
    single_mutex_mops: f64,
    /// Million cache ops/sec, striped.
    striped_mops: f64,
    /// striped_mops / single_mutex_mops.
    cache_speedup: f64,
    /// Warm result-tier traffic through a multi-worker service, one
    /// cache mutex.
    serve_single_ms: f64,
    /// … and with the striped cache.
    serve_striped_ms: f64,
    /// serve_single_ms / serve_striped_ms.
    serve_speedup: f64,
}

/// The overload column: warm traffic fired open-loop at 2x the measured
/// closed-loop capacity against a bounded queue. A well-behaved
/// backpressure layer sheds the excess at admission (cheap) and keeps the
/// worker saturated, so throughput of *served* launches stays at the
/// closed-loop ceiling instead of collapsing under queue pressure.
#[derive(Serialize)]
struct OverloadRow {
    /// Bounded queue depth of the overloaded service.
    queue_depth: usize,
    /// Submissions fired at 2x capacity.
    offered: usize,
    admitted: usize,
    shed: usize,
    /// shed / offered.
    shed_rate: f64,
    /// Closed-loop ceiling, launches/sec (unbounded queue, same worker).
    closed_loop_ops: f64,
    /// Served launches/sec under the shedding burst.
    overload_ops: f64,
    /// overload_ops / closed_loop_ops.
    throughput_ratio: f64,
    /// Submit-to-completion latency of served (admitted) launches.
    served_p50_ms: f64,
    served_p99_ms: f64,
}

#[derive(Serialize)]
struct Targets {
    warm_speedup: f64,
    plan_speedup: f64,
    /// The striped cache must beat one mutex under contention …
    cache_speedup: f64,
    /// … and must not slow the served path down (parity modulo noise:
    /// every other serialization point — queue mutex, condvars — is
    /// shared between the two layouts).
    serve_striped_speedup: f64,
    /// Served throughput under a shedding 2x burst must stay within 10%
    /// of the closed-loop ceiling (admission control must not melt the
    /// worker), and the burst must actually shed (`shed_rate > 0`).
    overload_throughput_ratio: f64,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    quick: bool,
    workers: usize,
    traffic: Vec<TrafficRow>,
    totals: Totals,
    striped: StripedRow,
    overload: OverloadRow,
    targets: Targets,
    target_met: bool,
}

fn trained_framework() -> Framework {
    let benches: Vec<_> = hetpart_suite::all()
        .into_iter()
        .filter(|b| ["vec_add", "blackscholes", "sgemm", "nbody"].contains(&b.name))
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

fn traffic_picks(quick: bool) -> Vec<(&'static str, usize)> {
    // Repeat-traffic shapes: small and mid-size launches where the
    // deployment overhead (probe + inference + access analysis) is a
    // visible share of the launch. Larger launches amortize planning
    // anyway — the cache is for the painful, chatty traffic.
    if quick {
        vec![
            ("blackscholes", 1 << 8),
            ("dot_product", 1 << 9),
            ("nbody", 1 << 7),
            ("triad", 1 << 9),
        ]
    } else {
        vec![
            ("blackscholes", 1 << 8),
            ("dot_product", 1 << 9),
            ("reduction_sum", 1 << 9),
            ("spmv_csr", 1 << 8),
            ("bicg", 64),
            ("mvt", 64),
            ("nbody", 1 << 7),
            ("md_lj", 1 << 7),
            ("triad", 1 << 9),
        ]
    }
}

/// Measure the lock-striping win two ways:
///
/// * **Cache level** — the real `StripedCache<PlanKey, LaunchPlan>` under
///   a worker pool's worth of threads doing get-heavy mixed traffic on
///   real plan keys, one stripe (the PR-4 single-mutex layout) vs the
///   service default. This isolates the serialization the striping
///   removes.
/// * **Service level** — warm result-tier traffic through a multi-worker
///   [`Service`], `cache_stripes: 1` vs the default. The queue mutex and
///   ticket condvars are shared by both layouts, so the expectation here
///   is "striping never loses", not a large win.
fn striped_comparison(
    fw: &Framework,
    compiled: &[(Arc<CompiledKernel>, Instance, &str, usize)],
    quick: bool,
    reps: usize,
) -> StripedRow {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .clamp(2, 8);
    let default_stripes = ServiceConfig::default().cache_stripes;
    // The A/B passes here compare sub-millisecond totals, so the min-of-N
    // needs more reps than the throughput rows to shake scheduler noise —
    // especially on time-sliced single-core runners.
    let reps = reps.max(6);

    // Real keys and plans: every traffic class at several problem sizes.
    let sizes_per = if quick { 2 } else { 4 };
    let mut entries: Vec<(PlanKey, LaunchPlan)> = Vec::new();
    for (kernel, _, name, _) in compiled {
        let bench = hetpart_suite::by_name(name).expect("suite kernel exists");
        for &n in bench.sizes.iter().take(sizes_per) {
            let inst = bench.instance(n);
            let plan = fw
                .prepare(kernel, &inst.nd, &inst.args, &inst.bufs)
                .expect("plan succeeds");
            entries.push((PlanKey::of(kernel, &inst.nd, &inst.args, &inst.bufs), plan));
        }
    }
    let entries = Arc::new(entries);
    let ops_per_thread = if quick { 100_000 } else { 400_000 };

    let cache_pass = |stripes: usize| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..=reps {
            let cache: Arc<StripedCache<PlanKey, LaunchPlan>> =
                Arc::new(StripedCache::new(1024, stripes));
            for (k, v) in entries.iter() {
                cache.insert(k.clone(), v.clone());
            }
            let t = Instant::now();
            let handles: Vec<_> = (0..threads)
                .map(|tid| {
                    let cache = Arc::clone(&cache);
                    let entries = Arc::clone(&entries);
                    std::thread::spawn(move || {
                        let mut live = 0usize;
                        for i in 0..ops_per_thread {
                            // Weyl-sequence key pick, decorrelated across
                            // threads; ~10% of ops refresh the entry.
                            let j = (i * 2654435761 + tid * 40503) % entries.len();
                            let (k, v) = &entries[j];
                            if i % 10 == 0 {
                                cache.insert(k.clone(), v.clone());
                            } else if cache.get(k).is_some() {
                                live += 1;
                            }
                        }
                        live
                    })
                })
                .collect();
            for h in handles {
                assert!(h.join().expect("cache thread") > 0, "gets must hit");
            }
            best = best.min(t.elapsed().as_secs_f64());
        }
        (threads * ops_per_thread) as f64 / best / 1e6
    };
    let single_mutex_mops = cache_pass(1);
    let striped_mops = cache_pass(default_stripes);

    // Service level: warm result-memo traffic, all classes interleaved.
    let serve_pass = |stripes: usize| -> f64 {
        let service = Service::new(
            fw.clone(),
            ServiceConfig {
                workers: threads,
                result_cache_capacity: 256,
                cache_stripes: stripes,
                ..ServiceConfig::default()
            },
        )
        .expect("valid framework");
        let service_ref = &service;
        let submit_all = || {
            let tickets: Vec<_> = compiled
                .iter()
                .flat_map(|(kernel, inst, _, _)| {
                    (0..4).map(move |_| {
                        service_ref
                            .submit(
                                Arc::clone(kernel),
                                inst.nd.clone(),
                                inst.args.clone(),
                                inst.bufs.clone(),
                            )
                            .expect("admitted")
                    })
                })
                .collect();
            for t in tickets {
                t.wait().expect("served launch");
            }
        };
        let best = time_best(reps, submit_all);
        service.shutdown();
        best
    };
    let serve_single_s = serve_pass(1);
    let serve_striped_s = serve_pass(default_stripes);

    StripedRow {
        threads,
        stripes: default_stripes,
        keys: entries.len(),
        ops_per_thread,
        single_mutex_mops,
        striped_mops,
        cache_speedup: striped_mops / single_mutex_mops,
        serve_single_ms: serve_single_s * 1e3,
        serve_striped_ms: serve_striped_s * 1e3,
        serve_speedup: serve_single_s / serve_striped_s,
    }
}

/// Measure the backpressure column. One worker throughout (the per-launch
/// columns' determinism argument applies here too). Served latency is
/// end-to-end as recorded by the service itself (`queued_seconds` +
/// `service_seconds`), so no collector thread competes with the worker.
fn overload_comparison(
    fw: &Framework,
    compiled: &[(Arc<CompiledKernel>, Instance, &str, usize)],
) -> OverloadRow {
    // Use the heaviest traffic kernel: per-launch execution must dominate
    // the cost of generating the offered load (payload clones + submit
    // bookkeeping), or on small hosts — where the open-loop generator
    // time-slices with the single worker — the ratio measures generator
    // overhead instead of service throughput.
    let (kernel, inst, _, _) = compiled
        .iter()
        .find(|(_, _, name, _)| *name == "nbody")
        .unwrap_or(&compiled[0]);
    // The same size under `SERVE_BENCH_QUICK`: the whole section costs
    // ~1s, and shorter runs leave the ratio at the mercy of sleep-wake
    // jitter.
    let launches = 300;
    let reps = 5;
    let make_payloads = |n: usize| -> Vec<_> {
        (0..n)
            .map(|_| (inst.nd.clone(), inst.args.clone(), inst.bufs.clone()))
            .collect()
    };
    let submit_prepared = |service: &Service, (nd, args, bufs): (_, _, _)| {
        service.submit(Arc::clone(kernel), nd, args, bufs)
    };

    // Closed-loop ceiling: unbounded queue, every submission admitted,
    // plan cache primed by one untimed launch. Best of `reps` (the
    // shared `time_best` idiom: the fastest pass is the least-perturbed
    // measurement of the service's actual capacity).
    let service = Service::new(
        fw.clone(),
        ServiceConfig {
            max_queue_depth: 0,
            ..bench_config()
        },
    )
    .expect("valid framework");
    let mut closed_s = f64::INFINITY;
    for rep in 0..=reps {
        let payloads = make_payloads(launches);
        let t = Instant::now();
        let tickets: Vec<_> = payloads
            .into_iter()
            .map(|p| submit_prepared(&service, p).expect("unbounded queue admits"))
            .collect();
        for ticket in tickets {
            ticket.wait().expect("served launch");
        }
        // Rep 0 is the untimed warm-up.
        if rep > 0 {
            closed_s = closed_s.min(t.elapsed().as_secs_f64());
        }
    }
    service.shutdown();
    let closed_loop_ops = launches as f64 / closed_s;

    // Open-loop burst: 2x as many submissions, paced at 2x the ceiling,
    // against a small bounded queue. Best of `reps` by throughput, same
    // reasoning as the ceiling.
    let queue_depth = 16;
    let offered = 2 * launches;
    let interval = Duration::from_secs_f64(closed_s / offered as f64);
    let mut best: Option<OverloadRow> = None;
    for _ in 0..reps {
        let service = Service::new(
            fw.clone(),
            ServiceConfig {
                max_queue_depth: queue_depth,
                ..bench_config()
            },
        )
        .expect("valid framework");
        let mut warmup = make_payloads(1);
        submit_prepared(&service, warmup.pop().expect("one payload"))
            .expect("admitted")
            .wait()
            .expect("warm-up launch");

        let payloads = make_payloads(offered);
        let mut shed = 0usize;
        let mut tickets = Vec::new();
        // Pace with sleeps, in small batches: spinning would starve the
        // worker of CPU on small hosts (this runs on single-core CI
        // boxes), and per-launch sleeps undershoot the offered rate when
        // the interval is below the OS timer granularity. A batch bursts
        // `batch` submissions back to back, then sleeps until the batch
        // boundary — same average rate, and the bounded queue is sized to
        // absorb the bursts.
        let batch = ((Duration::from_millis(1).as_secs_f64() / interval.as_secs_f64().max(1e-9))
            .ceil() as usize)
            .clamp(1, queue_depth / 2);
        let start = Instant::now();
        for (k, payload) in payloads.into_iter().enumerate() {
            if k % batch == 0 {
                let target = interval * k as u32;
                let elapsed = start.elapsed();
                if elapsed < target {
                    std::thread::sleep(target - elapsed);
                }
            }
            match submit_prepared(&service, payload) {
                Ok(ticket) => tickets.push(ticket),
                Err(DeployError::Overloaded { .. }) => shed += 1,
                Err(e) => panic!("unexpected submit error under overload: {e}"),
            }
        }
        // Drain the tail: end-to-end latency (queue wait + service time)
        // is recorded by the service itself, so no collector thread has
        // to race completions — the generator is the only load besides
        // the worker.
        let admitted = tickets.len();
        let mut latencies: Vec<f64> = tickets
            .into_iter()
            .map(|t| {
                let served = t.wait().expect("admitted launch completes");
                served.queued_seconds + served.service_seconds
            })
            .collect();
        let total_s = start.elapsed().as_secs_f64();
        let stats = service.stats();
        assert_eq!(stats.sheds as usize, shed, "shed accounting must add up");
        assert_eq!(stats.errors, 0, "overload must shed, not fail, launches");
        service.shutdown();

        latencies.sort_by(f64::total_cmp);
        let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize] * 1e3;
        let overload_ops = admitted as f64 / total_s;
        let row = OverloadRow {
            queue_depth,
            offered,
            admitted,
            shed,
            shed_rate: shed as f64 / offered as f64,
            closed_loop_ops,
            overload_ops,
            throughput_ratio: overload_ops / closed_loop_ops,
            served_p50_ms: pct(0.50),
            served_p99_ms: pct(0.99),
        };
        if best
            .as_ref()
            .is_none_or(|b| row.throughput_ratio > b.throughput_ratio)
        {
            best = Some(row);
        }
    }
    best.expect("at least one overload rep")
}

fn main() {
    let quick = std::env::var_os("SERVE_BENCH_QUICK").is_some_and(|v| v != "0" && !v.is_empty());
    println!("serve — concurrent deployment service vs synchronous run_auto\n");
    if quick {
        println!("(SERVE_BENCH_QUICK=1: reduced sizes for the CI gate)\n");
    }

    let fw = trained_framework();
    let picks = traffic_picks(quick);
    let launches_per_pick = if quick { 8 } else { 16 };
    let reps = if quick { 3 } else { 5 };

    let compiled: Vec<(Arc<CompiledKernel>, Instance, &str, usize)> = picks
        .iter()
        .map(|&(name, n)| {
            let bench = hetpart_suite::by_name(name).expect("suite kernel exists");
            (Arc::new(bench.compile()), bench.instance(n), name, n)
        })
        .collect();

    // --- Correctness gate: served results must match the serial loop,
    // from the plan cache and from the result memo alike. ---
    for result_cache_capacity in [0, 256] {
        let memo = result_cache_capacity > 0;
        let service = Service::new(
            fw.clone(),
            ServiceConfig {
                result_cache_capacity,
                ..bench_config()
            },
        )
        .expect("valid framework");
        for (kernel, inst, name, _) in &compiled {
            let mut serial_bufs = inst.bufs.clone();
            let (serial_partition, serial_report) = fw
                .run_auto(kernel, &inst.nd, &inst.args, &mut serial_bufs)
                .expect("serial launch");
            for pass in 0..2 {
                let served = service
                    .submit(
                        Arc::clone(kernel),
                        inst.nd.clone(),
                        inst.args.clone(),
                        inst.bufs.clone(),
                    )
                    .expect("admitted")
                    .wait()
                    .expect("served launch");
                assert_eq!(
                    served.partition, serial_partition,
                    "{name} (memo {memo}): served partition drifted from run_auto"
                );
                assert_eq!(
                    served.report, serial_report,
                    "{name} (memo {memo}): served report drifted from run_auto"
                );
                assert_eq!(
                    served.bufs, serial_bufs,
                    "{name} (memo {memo}): served outputs drifted from run_auto"
                );
                assert_eq!(served.cache_hit, pass > 0, "{name}: cache state");
                assert_eq!(served.result_hit, memo && pass > 0, "{name}: memo state");
            }
        }
        service.shutdown();
    }

    // --- Timed passes. ---
    let mut rows = Vec::new();
    let mut total_cold = 0.0;
    let mut total_plan = 0.0;
    let mut total_result = 0.0;
    let mut total_launches = 0usize;

    // Cold service: caching disabled, so every submission re-plans.
    let cold_service = Service::new(
        fw.clone(),
        ServiceConfig {
            cache_capacity: 0,
            ..bench_config()
        },
    )
    .expect("valid framework");
    // Plan-tier service: prediction cache only.
    let plan_service = Service::new(fw.clone(), bench_config()).expect("valid framework");
    // Full service: prediction cache + content-keyed result memo.
    let memo_service = Service::new(
        fw.clone(),
        ServiceConfig {
            result_cache_capacity: 256,
            ..bench_config()
        },
    )
    .expect("valid framework");
    let workers = bench_config().workers;

    for (kernel, inst, name, n) in &compiled {
        // Cold run_auto: every launch re-planned, the synchronous path.
        let cold_s = time_best(reps, || {
            for _ in 0..launches_per_pick {
                let mut bufs = inst.bufs.clone();
                fw.run_auto(kernel, &inst.nd, &inst.args, &mut bufs)
                    .expect("cold launch");
            }
        });

        // One timed pass of served traffic.
        let served_pass = |service: &Service| {
            time_best(reps, || {
                let tickets: Vec<_> = (0..launches_per_pick)
                    .map(|_| {
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
                for t in tickets {
                    t.wait().expect("served launch");
                }
            })
        };
        // Serve cold: the shared no-cache service — every launch a
        // genuine miss, with thread spawn/join outside the timed region.
        let serve_cold_s = served_pass(&cold_service);
        // Warm passes: caches primed by the untimed warm-up rep.
        let warm_plan_s = served_pass(&plan_service);
        let warm_result_s = served_pass(&memo_service);

        let per = launches_per_pick as f64;
        rows.push(TrafficRow {
            kernel: name.to_string(),
            size: *n,
            launches: launches_per_pick,
            cold_run_auto_ms: cold_s / per * 1e3,
            serve_cold_ms: serve_cold_s / per * 1e3,
            warm_plan_ms: warm_plan_s / per * 1e3,
            warm_result_ms: warm_result_s / per * 1e3,
            plan_speedup: cold_s / warm_plan_s,
            warm_speedup: cold_s / warm_result_s,
        });
        total_cold += cold_s;
        total_plan += warm_plan_s;
        total_result += warm_result_s;
        total_launches += launches_per_pick;
    }

    let plan_stats = plan_service.stats();
    let memo_stats = memo_service.stats();
    // Every pick was planned exactly once per service (the warm-up rep's
    // first launch); everything else must have hit.
    assert_eq!(
        plan_stats.cache_misses,
        compiled.len() as u64,
        "warm service must plan each traffic class exactly once"
    );
    assert_eq!(
        memo_stats.cache_misses,
        compiled.len() as u64,
        "memo service must execute each traffic class exactly once"
    );
    assert_eq!(
        memo_stats.result_hits, memo_stats.cache_hits,
        "every memo-service hit must come from the result tier"
    );
    assert_eq!(plan_stats.errors + memo_stats.errors, 0);
    cold_service.shutdown();
    plan_service.shutdown();
    memo_service.shutdown();

    println!(
        "{:<14} {:>8} {:>9} {:>13} {:>11} {:>11} {:>12} {:>8} {:>8}",
        "kernel",
        "size",
        "launches",
        "cold run_auto",
        "serve cold",
        "warm plan",
        "warm result",
        "plan x",
        "result x"
    );
    for r in &rows {
        println!(
            "{:<14} {:>8} {:>9} {:>11.3}ms {:>9.3}ms {:>9.3}ms {:>10.4}ms {:>7.2}x {:>7.2}x",
            r.kernel,
            r.size,
            r.launches,
            r.cold_run_auto_ms,
            r.serve_cold_ms,
            r.warm_plan_ms,
            r.warm_result_ms,
            r.plan_speedup,
            r.warm_speedup,
        );
    }

    let totals = Totals {
        launches: total_launches,
        cold_run_auto_s: total_cold,
        warm_plan_s: total_plan,
        warm_result_s: total_result,
        plan_speedup: total_cold / total_plan,
        warm_speedup: total_cold / total_result,
        cache_hits: plan_stats.cache_hits + memo_stats.cache_hits,
        cache_misses: plan_stats.cache_misses + memo_stats.cache_misses,
        result_hits: memo_stats.result_hits,
    };
    println!(
        "\ntotal over {} launches: cold run_auto {:.3}ms, warm plan {:.3}ms ({:.2}x), \
         warm result {:.3}ms ({:.2}x)",
        totals.launches,
        totals.cold_run_auto_s * 1e3,
        totals.warm_plan_s * 1e3,
        totals.plan_speedup,
        totals.warm_result_s * 1e3,
        totals.warm_speedup,
    );

    let striped = striped_comparison(&fw, &compiled, quick, reps);
    println!(
        "\nstriped cache ({} threads, {} keys): single mutex {:.1} Mops/s, \
         {} stripes {:.1} Mops/s ({:.2}x); served warm traffic {:.3}ms -> {:.3}ms ({:.2}x)",
        striped.threads,
        striped.keys,
        striped.single_mutex_mops,
        striped.stripes,
        striped.striped_mops,
        striped.cache_speedup,
        striped.serve_single_ms,
        striped.serve_striped_ms,
        striped.serve_speedup,
    );

    let overload = overload_comparison(&fw, &compiled);
    println!(
        "\noverload (queue {} deep, {} offered at 2x capacity): {} served / {} shed \
         ({:.0}% shed rate); throughput {:.0} -> {:.0} launches/s ({:.2}x of ceiling); \
         served latency p50 {:.3}ms p99 {:.3}ms",
        overload.queue_depth,
        overload.offered,
        overload.admitted,
        overload.shed,
        overload.shed_rate * 100.0,
        overload.closed_loop_ops,
        overload.overload_ops,
        overload.throughput_ratio,
        overload.served_p50_ms,
        overload.served_p99_ms,
    );

    let targets = Targets {
        warm_speedup: 5.0,
        plan_speedup: 1.5,
        // Lock contention needs real cores to exist: on a machine with 8+
        // logical CPUs (>= 4 physical cores even under 2-way SMT — std
        // only exposes the logical count) the striped cache must hold at
        // least parity with one mutex under contention. Below that —
        // single/dual-core or SMT-inflated CI runners — threads
        // time-slice, there is little to de-serialize, and the recorded
        // parity (~0.97x at 2 threads) shows hashing overhead plus
        // scheduler noise can nose ahead either way; the gate there is
        // "striping must not regress" with a noise allowance matched to
        // the sub-millisecond totals being compared.
        cache_speedup: if striped.threads >= 8 { 1.0 } else { 0.85 },
        serve_striped_speedup: if striped.threads >= 8 { 0.9 } else { 0.85 },
        overload_throughput_ratio: 0.9,
    };
    let target_met = check_floors(&[
        ("warm_speedup", totals.warm_speedup, targets.warm_speedup),
        ("plan_speedup", totals.plan_speedup, targets.plan_speedup),
        (
            "cache_speedup",
            striped.cache_speedup,
            targets.cache_speedup,
        ),
        (
            "serve_striped_speedup",
            striped.serve_speedup,
            targets.serve_striped_speedup,
        ),
        (
            "overload_throughput_ratio",
            overload.throughput_ratio,
            targets.overload_throughput_ratio,
        ),
        // The burst must actually shed (`shed_rate > 0`).
        ("overload.shed", overload.shed as f64, 1.0),
    ]);
    println!("\ntarget_met: {target_met}");
    let report = Report {
        bench: "serve".to_string(),
        quick,
        workers,
        traffic: rows,
        totals,
        striped,
        overload,
        targets,
        target_met,
    };
    write_report("BENCH_serve.json", &report);
}
