//! `serve_hot`, `serve_cold` and `serve_chaos`: the deployment service on
//! mc2, one worker thread, driven in a closed loop by one client thread.
//!
//! Set-up compiles the suite, collects mc2's training database under the
//! paper configuration, fits the predictor and starts the `Service`. The
//! launch inputs (seeded contents) and their expected outputs are made
//! before any clock starts. A round is a batch of launches submitted one
//! at a time, each waited for before the next; rounds repeat until the
//! run's time is up. A launch's cost is the CPU time the client and the
//! worker spend from submit to `Ticket::wait` return.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use hetpart_core::{
    DeployError, Framework, LaunchPlan, ServedLaunch, Service, ServiceConfig, Ticket,
};
use hetpart_inspire::vm::{BufferData, Vm};
use hetpart_inspire::CompiledKernel;
use hetpart_oclsim::{machines, DeviceFaults, FaultPlan};
use hetpart_runtime::{runtime_features, Executor, Launch};
use hetpart_suite::workload::{approx_eq_f32, compare_buffers, hash_u64};
use hetpart_suite::{Benchmark, Instance};

use crate::clock::{started_thread, CpuClock, SpeedGauge};
use crate::common::{
    buffer_bytes, check_traced_training, harness_config, percentile, print_fingerprints,
    print_host_speed, repeated_setup, suite, train, Latencies, Opts, Outcome, Quality, Trained,
};
use crate::trace::Cx;

/// Kernels whose native reference disagrees with the VM, a defect that
/// lives in `hetpart-suite`/`hetpart-inspire`, not in the partitioning
/// system under test: mandelbrot differs at every n >= 32 under every
/// partition, including one whole-range `Vm::run_range`. Their served
/// outputs are checked bit for bit against that whole-range VM run, and
/// the reference mismatch is printed for every such key.
const KNOWN_REFERENCE_DEFECTS: &[&str] = &["mandelbrot"];

/// How often each key appears in one round of the repeated-key
/// workloads. Every round holds the same mix, so the metrics do not
/// depend on how many expensive keys the seed happened to draw.
const HOT_REPEATS: usize = 6;
const SMOKE_HOT_REPEATS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// All 23 programs at ladder rungs 1 and 2 (where mc2's oracle starts
    /// to split work onto the GPUs), each key six times per round in a
    /// seeded order: after one warm-up pass every launch hits the plan
    /// cache.
    Hot,
    /// All 23 programs at rungs 0 and 1, where planning costs most
    /// relative to execution, each key once per round in a seeded order,
    /// on a fresh service per round: every launch misses.
    Cold,
    /// `Hot` traffic while device 1 fails transiently at 25% and device 2
    /// is dead from its first launch.
    Chaos,
}

/// One (program, size) the traffic draws from, with its inputs and the
/// outputs a correct launch must produce.
struct Key {
    bench: usize,
    n: usize,
    inst: Instance,
    expected: Vec<(usize, BufferData)>,
    /// Index of this (program, size) in the training database.
    record: usize,
    known_defect: bool,
}

struct Setup {
    kernels: Vec<Arc<CompiledKernel>>,
    trained: Trained,
    /// The fault-free framework the service was started with; traced runs
    /// replay launches on it.
    framework: Framework,
    service: Worker,
}

pub fn run(cx: Cx, opts: &Opts, traffic: Traffic) -> Outcome {
    let cfg = harness_config(opts.smoke);
    let machine = machines::mc2();
    print_fingerprints(&cfg, &[&machine]);
    let benches = suite(opts.smoke);
    let mut out = Outcome::default();

    let (setup_s, setup, deterministic) = repeated_setup(
        || {
            cx.span("setup", |cx| {
                let kernels = benches
                    .iter()
                    .map(|b| {
                        cx.span("inspire.compile", |_| {
                            Arc::new(b.compile_with_modes(cfg.opt_level, cfg.regalloc))
                        })
                    })
                    .collect();
                let trained = train(cx, &machine, &benches, &cfg);
                let framework = Framework {
                    executor: Executor {
                        sample_items: cfg.sample_items,
                        ..Executor::new(machine.clone())
                    },
                    predictor: trained.predictor.clone(),
                };
                let service = start_service(&framework, traffic, opts.seed);
                Setup {
                    kernels,
                    trained,
                    framework,
                    service,
                }
            })
        },
        |a, b| a.trained.db == b.trained.db && a.trained.predictor == b.trained.predictor,
    );
    if !deterministic {
        println!("FAIL: repeated set-ups produced different databases or predictors");
        out.failed += 1;
    }
    let Setup {
        kernels,
        trained,
        framework,
        mut service,
    } = setup;
    out.failed += check_traced_training(cx, &machine, &benches, &cfg, &trained.db);

    // Smoke ladders have two rungs.
    let rungs: &[usize] = if traffic == Traffic::Cold || opts.smoke {
        &[0, 1]
    } else {
        &[1, 2]
    };
    let keys: Vec<Key> = cx.span("prep", |cx| {
        benches
            .iter()
            .enumerate()
            .flat_map(|(b, bench)| rungs.iter().map(move |&r| (b, bench.sizes[r])))
            .map(|(b, n)| make_key(cx, &benches[b], b, n, opts.seed, &kernels[b], &trained))
            .collect()
    });

    let mut checker = Checker {
        benches: &benches,
        keys: &keys,
        kernels: &kernels,
        trained: &trained,
        framework: &framework,
        compare_partition: traffic != Traffic::Chaos,
        replay_plans: HashMap::new(),
        stats: LaunchStats::default(),
        out: &mut out,
    };

    let repeats = match traffic {
        Traffic::Cold => 1,
        _ if opts.smoke => SMOKE_HOT_REPEATS,
        _ => HOT_REPEATS,
    };

    let mut gauge = SpeedGauge::start();
    if traffic != Traffic::Cold {
        // Untimed warm-up: one launch per key fills the plan cache.
        let warm: Vec<usize> = (0..keys.len()).collect();
        let launched = cx.span("warmup", |cx| {
            serve(cx, &service, &keys, &kernels, &warm, 0, &mut gauge)
        });
        checker.check(cx, launched, false);
    }
    let start = Instant::now();
    let mut round = 0u64;
    let mut next_id = keys.len() as u64;
    loop {
        if traffic == Traffic::Cold {
            if round > 0 {
                service = cx.span("prep", |_| start_service(&framework, traffic, opts.seed));
            }
            checker.replay_plans.clear();
        }
        let keys_this_round = launch_order(keys.len(), repeats, opts.seed, round);
        let before = service.service.stats();
        let launched = cx.span("round", |cx| {
            serve(
                cx,
                &service,
                &keys,
                &kernels,
                &keys_this_round,
                next_id,
                &mut gauge,
            )
        });
        let after = service.service.stats();
        let stats = &mut checker.stats;
        stats.retries += after.retries - before.retries;
        stats.replans += after.replans - before.replans;
        next_id += launched.len() as u64;
        checker.check(cx, launched, true);
        round += 1;
        if opts.smoke || start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    print_host_speed(&gauge);
    service.service.shutdown();
    let stats = std::mem::take(&mut checker.stats);
    stats.finish(checker.out, setup_s);
    out
}

/// Checks every served launch and accumulates the metrics' inputs.
struct Checker<'a> {
    benches: &'a [Benchmark],
    keys: &'a [Key],
    kernels: &'a [Arc<CompiledKernel>],
    trained: &'a Trained,
    framework: &'a Framework,
    /// Whether a replay must pick the served partition (not under faults,
    /// where the service may re-plan around a failing device).
    compare_partition: bool,
    /// The traced replay's own plan cache, mirroring the service's.
    replay_plans: HashMap<usize, LaunchPlan>,
    stats: LaunchStats,
    out: &'a mut Outcome,
}

impl Checker<'_> {
    fn check(&mut self, cx: Cx, launched: Vec<Launched>, timed: bool) {
        cx.span("verify", |cx| {
            for l in launched {
                let ok = cx
                    .request(l.id)
                    .span("check", |cx| self.check_one(cx, &l, timed));
                self.out.attempted += 1;
                self.out.failed += u64::from(!ok);
            }
        });
    }

    fn check_one(&mut self, cx: Cx, l: &Launched, timed: bool) -> bool {
        let key = &self.keys[l.key];
        let bench = &self.benches[key.bench];
        let served = match &l.served {
            Ok(s) => s,
            Err(e) => {
                println!("FAIL: {} n={}: {e}", bench.name, key.n);
                return false;
            }
        };
        self.stats.record(key, served, l, timed, self.trained);
        let verdict = verify(key, served, bench);
        if let Err(msg) = &verdict {
            println!("FAIL: {msg}");
        }
        let replayed = !cx.traced() || self.replay(cx, l.key, served);
        if !replayed {
            println!(
                "FAIL: {} n={}: replay outside the service disagrees with the served launch",
                bench.name, key.n
            );
        }
        verdict.is_ok() && replayed
    }

    /// Repeat a served launch outside the service, through the same public
    /// calls the service makes, each in its own span: probe, inference and
    /// execution planning on a cache miss, then planned execution. Returns
    /// whether the outputs (and, without faults, the partition) agree.
    fn replay(&mut self, cx: Cx, key_idx: usize, served: &ServedLaunch) -> bool {
        let (fw, inst) = (self.framework, &self.keys[key_idx].inst);
        let kernel = &*self.kernels[self.keys[key_idx].bench];
        cx.span("replay", |cx| {
            let plan = match self.replay_plans.get(&key_idx) {
                Some(p) if served.cache_hit => p.clone(),
                _ => {
                    cx.count("runtime.probe_bytes_cloned", buffer_bytes(&inst.bufs));
                    let rt = cx.span("runtime.features", |_| {
                        runtime_features(
                            kernel,
                            &inst.nd,
                            &inst.args,
                            &inst.bufs,
                            fw.executor.sample_items,
                        )
                    });
                    let Ok(rt) = rt else { return false };
                    let predicted = cx.span("ml.predict", |_| fw.predictor.predict(kernel, &rt));
                    let Ok(partition) = predicted else {
                        return false;
                    };
                    let launch = Launch::new(kernel, inst.nd.clone(), inst.args.clone());
                    let exec = cx.span("runtime.plan_execution", |_| {
                        fw.executor
                            .plan_execution(&launch, &inst.bufs, &partition, rt.divergence)
                    });
                    let plan = LaunchPlan { partition, exec };
                    self.replay_plans.insert(key_idx, plan.clone());
                    plan
                }
            };
            let mut bufs = inst.bufs.clone();
            let ran = cx.span("runtime.run_planned", |_| {
                fw.execute_planned(kernel, &inst.nd, &inst.args, &mut bufs, &plan)
            });
            cx.count("inspire.vm_items", inst.nd.total() as f64);
            let transferred = plan.exec.transfers.iter().map(|(i, o)| (i + o) as f64);
            cx.count("runtime.transfer_bytes", transferred.sum());
            ran.is_ok()
                && bufs == served.bufs
                && (!self.compare_partition || plan.partition == served.partition)
        })
    }
}

/// A running service and the CPU clock of its one worker thread.
struct Worker {
    service: Service,
    clock: CpuClock,
}

fn start_service(framework: &Framework, traffic: Traffic, seed: u64) -> Worker {
    let fault_plan = (traffic == Traffic::Chaos).then(|| FaultPlan {
        seed,
        faults: vec![
            DeviceFaults {
                transient_rate: 0.25,
                ..DeviceFaults::none(1)
            },
            DeviceFaults {
                dies_at_launch: Some(0),
                ..DeviceFaults::none(2)
            },
        ],
    });
    let config = ServiceConfig {
        workers: 1,
        fault_plan,
        ..ServiceConfig::default()
    };
    let (service, clock) = started_thread("hetpart-serve-0", || {
        Service::new(framework.clone(), config).expect("the predictor was trained on mc2")
    });
    Worker { service, clock }
}

/// One round's key sequence: every key `repeats` times, in an order
/// drawn from the seed (Fisher-Yates).
fn launch_order(keys: usize, repeats: usize, seed: u64, round: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..keys * repeats).map(|i| i % keys).collect();
    for i in (1..v.len()).rev() {
        let j = (hash_u64(seed, (round << 32) | i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

fn make_key(
    cx: Cx,
    bench: &Benchmark,
    b: usize,
    n: usize,
    seed: u64,
    kernel: &CompiledKernel,
    trained: &Trained,
) -> Key {
    let inst = cx.span("suite.instance", |_| {
        (bench.setup)(n, hash_u64(seed, ((b as u64) << 32) | n as u64))
    });
    let reference = cx.span("suite.reference", |_| (bench.reference)(&inst));
    let known_defect = KNOWN_REFERENCE_DEFECTS.contains(&bench.name);
    let expected = if known_defect {
        let mut bufs = inst.bufs.clone();
        Vm::new()
            .run_range(
                &kernel.bytecode,
                &inst.nd,
                0..inst.nd.split_extent(),
                &inst.args,
                &mut bufs,
            )
            .unwrap_or_else(|e| panic!("{} n={n}: {e}", bench.name));
        for (idx, want) in &reference {
            let differ = count_mismatches(want, &bufs[*idx]);
            match compare_buffers(bench.name, *idx, want, &bufs[*idx]) {
                Err(first) => println!(
                    "known reference defect: {} n={n}: {differ} of {} elements differ from the \
                     native reference, first: {first}",
                    bench.name,
                    want.len()
                ),
                Ok(()) => println!(
                    "known reference defect: {} n={n} matches its native reference",
                    bench.name
                ),
            }
        }
        reference
            .iter()
            .map(|(i, _)| (*i, bufs[*i].clone()))
            .collect()
    } else {
        reference
    };
    let record = trained
        .db
        .records
        .iter()
        .position(|r| r.program == bench.name && r.size == n)
        .unwrap_or_else(|| panic!("{} n={n} is in the training database", bench.name));
    Key {
        bench: b,
        n,
        inst,
        expected,
        record,
        known_defect,
    }
}

fn count_mismatches(want: &BufferData, got: &BufferData) -> usize {
    match (want, got) {
        (BufferData::F32(w), BufferData::F32(g)) => w
            .iter()
            .zip(g)
            .filter(|(a, b)| !approx_eq_f32(**a, **b))
            .count(),
        (BufferData::I32(w), BufferData::I32(g)) => w.iter().zip(g).filter(|(a, b)| a != b).count(),
        (BufferData::U32(w), BufferData::U32(g)) => w.iter().zip(g).filter(|(a, b)| a != b).count(),
        _ => want.len().max(got.len()),
    }
}

struct Launched {
    id: u64,
    key: usize,
    served: Result<ServedLaunch, DeployError>,
    /// CPU time from submit to `Ticket::wait` return, the client thread's
    /// plus the worker's, at the reference speed.
    cpu_s: f64,
}

/// CPU seconds of launches between two passes of the speed gauge.
const GAUGE_EVERY_S: f64 = 0.025;

/// Submit `order`'s launches one at a time, each waited for before the
/// next. Inputs are copied before any launch is timed.
fn serve(
    cx: Cx,
    service: &Worker,
    keys: &[Key],
    kernels: &[Arc<CompiledKernel>],
    order: &[usize],
    first_id: u64,
    gauge: &mut SpeedGauge,
) -> Vec<Launched> {
    let client = CpuClock::this_thread();
    let cpu = || {
        let read = |c: CpuClock| c.seconds().expect("client and worker threads are running");
        read(client) + read(service.clock)
    };
    let inputs: Vec<_> = order
        .iter()
        .map(|&k| {
            let inst = &keys[k].inst;
            (k, inst.nd.clone(), inst.args.clone(), inst.bufs.clone())
        })
        .collect();
    let mut launched: Vec<Launched> = Vec::with_capacity(order.len());
    // Launches since the last pass, and their CPU time.
    let (mut unscaled, mut unscaled_s) = (0, 0.0);
    gauge.restart();
    for (id, (k, nd, args, bufs)) in (first_id..).zip(inputs) {
        let kernel = Arc::clone(&kernels[keys[k].bench]);
        let t = cpu();
        let served = cx.request(id).span("core.serve.launch", |_| {
            service
                .service
                .submit(kernel, nd, args, bufs)
                .and_then(Ticket::wait)
        });
        let cpu_s = cpu() - t;
        launched.push(Launched {
            id,
            key: k,
            served,
            cpu_s,
        });
        unscaled_s += cpu_s;
        if unscaled_s >= GAUGE_EVERY_S || launched.len() == order.len() {
            let scale = gauge.scale();
            for l in &mut launched[unscaled..] {
                l.cpu_s *= scale;
            }
            (unscaled, unscaled_s) = (launched.len(), 0.0);
        }
    }
    launched
}

fn verify(key: &Key, served: &ServedLaunch, bench: &Benchmark) -> Result<(), String> {
    for (idx, want) in &key.expected {
        let got = served
            .bufs
            .get(*idx)
            .ok_or_else(|| format!("{} n={}: output buffer {idx} missing", bench.name, key.n))?;
        compare_buffers(bench.name, *idx, want, got).map_err(|e| format!("{e} (n={})", key.n))?;
    }
    Ok(())
}

/// Everything the serve metrics are computed from.
#[derive(Default)]
struct LaunchStats {
    latencies: Latencies,
    queue_waits: Vec<f64>,
    service_times: Vec<f64>,
    plan_times: Vec<f64>,
    timed: usize,
    hits: usize,
    known_defect: usize,
    retries: u64,
    replans: u64,
    quality: Quality,
    unpriced: usize,
}

impl LaunchStats {
    fn record(
        &mut self,
        key: &Key,
        s: &ServedLaunch,
        l: &Launched,
        timed: bool,
        trained: &Trained,
    ) {
        if !s.cache_hit {
            self.plan_times.push(s.plan_seconds);
        }
        if !timed {
            return;
        }
        self.timed += 1;
        self.latencies.push(l.key, l.cpu_s);
        self.queue_waits.push(s.queued_seconds);
        self.service_times.push(s.service_seconds);
        self.hits += usize::from(s.cache_hit);
        self.known_defect += usize::from(key.known_defect);
        if !self
            .quality
            .add_record(&trained.db.records[key.record], &s.partition)
        {
            self.unpriced += 1;
        }
    }

    fn finish(self, out: &mut Outcome, setup_s: f64) {
        if self.unpriced > 0 {
            println!(
                "FAIL: {} served partitions were not priced by the training sweep",
                self.unpriced
            );
            out.failed += self.unpriced as u64;
        }
        let n = self.timed.max(1) as f64;
        println!(
            "{} launches on keys with a known reference defect (checked against the VM); \
             {} retries, {} replans",
            self.known_defect, self.retries, self.replans
        );
        let m = &mut out.metrics;
        m.insert("setup_s", setup_s);
        self.latencies.record_into("timed launches", m);
        self.quality.record_into(m);
        m.insert(
            "core.serve.queue_wait_ms",
            percentile(&self.queue_waits, 0.5) * 1e3,
        );
        m.insert(
            "core.serve.service_ms",
            percentile(&self.service_times, 0.5) * 1e3,
        );
        m.insert(
            "core.serve.plan_ms",
            percentile(&self.plan_times, 0.5) * 1e3,
        );
        m.insert("core.serve.hit_rate", self.hits as f64 / n);
        m.insert("core.serve.retries_per_launch", self.retries as f64 / n);
        m.insert("core.serve.replans_per_launch", self.replans as f64 / n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_change_the_launch_order_but_not_the_mix() {
        let a = launch_order(46, 6, 1, 0);
        assert_eq!(a, launch_order(46, 6, 1, 0));
        assert_ne!(a, launch_order(46, 6, 2, 0));
        assert_ne!(a, launch_order(46, 6, 1, 1));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let expected: Vec<usize> = (0..46).flat_map(|k| [k; 6]).collect();
        assert_eq!(sorted, expected);
    }
}
