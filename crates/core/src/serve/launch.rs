//! One served launch: the tiered lookup (result memo, then plan cache,
//! then planning) and the retry / re-plan loop around execution.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hetpart_inspire::ir::NdRange;
use hetpart_inspire::vm::{ArgValue, BufferData};
use hetpart_inspire::CompiledKernel;

use super::cache::{content_hash, CachedResult, PlanKey};
use super::{ServedLaunch, Shared};
use crate::predictor::DeployError;

/// Upper bound on a single retry backoff sleep.
const BACKOFF_CAP: Duration = Duration::from_millis(5);

/// Copies of the buffers `kernel` can store to, keyed by buffer index:
/// everything a partially executed attempt can corrupt. The write set is
/// the static access summary's, mapped through `args`; a buffer bound to
/// several parameters is copied once.
pub(super) fn writable_copies(
    kernel: &CompiledKernel,
    args: &[ArgValue],
    bufs: &[BufferData],
) -> Vec<(usize, BufferData)> {
    let mut written: Vec<usize> = kernel
        .access
        .buffers
        .iter()
        .zip(args)
        .filter_map(|(access, arg)| match arg {
            ArgValue::Buffer(b) if access.is_written => Some(*b),
            _ => None,
        })
        .collect();
    written.sort_unstable();
    written.dedup();
    written
        .into_iter()
        .filter_map(|b| Some((b, bufs.get(b)?.clone())))
        .collect()
}

pub(super) fn process(
    shared: &Shared,
    kernel: Arc<CompiledKernel>,
    nd: NdRange,
    args: Vec<ArgValue>,
    mut bufs: Vec<BufferData>,
    queued_seconds: f64,
) -> Result<ServedLaunch, DeployError> {
    let started = Instant::now();
    let fw = &shared.framework;
    let key = PlanKey::of(&kernel, &nd, &args, &bufs);

    // Tier 2 (opt-in): a bit-identical launch replays its memoized result
    // without executing.
    let result_key = shared
        .memoize_results
        .then(|| (key.clone(), content_hash(&bufs)));
    if let Some(rk) = &result_key {
        if let Some(cached) = shared.results.get(rk) {
            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            shared.stats.result_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(ServedLaunch {
                partition: cached.partition.clone(),
                report: cached.report.clone(),
                bufs: cached.bufs.clone(),
                cache_hit: true,
                result_hit: true,
                plan_seconds: 0.0,
                service_seconds: started.elapsed().as_secs_f64(),
                queued_seconds,
            });
        }
    }

    // Tier 1: reuse the plan for this launch shape, or build and memoize
    // one.
    let cached = shared.plans.get(&key);
    let (plan, cache_hit, plan_seconds) = match cached {
        Some(plan) => {
            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            (plan, true, 0.0)
        }
        None => {
            let t = Instant::now();
            let plan = fw.prepare(&kernel, &nd, &args, &bufs)?;
            let plan_seconds = t.elapsed().as_secs_f64();
            shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            shared
                .stats
                .plan_ns
                .fetch_add((plan_seconds * 1e9) as u64, Ordering::Relaxed);
            shared.plans.insert(key.clone(), plan.clone());
            (plan, false, plan_seconds)
        }
    };

    // Degraded pre-planning: route around devices already known bad
    // (dead, or breaker open). If *every* device is currently avoided,
    // fall back to the base plan — breakers are advisory, and trying
    // beats refusing outright.
    let mut avoid = shared.health.avoided();
    let mut active = plan.clone();
    if !avoid.is_empty() {
        if let Some(degraded) = fw.replan_excluding(&kernel, &nd, &args, &bufs, &plan, &avoid) {
            if degraded.partition != active.partition {
                shared.stats.replans.fetch_add(1, Ordering::Relaxed);
            }
            active = degraded;
        }
    }

    // Execute with retry (transients), backoff, and degraded re-planning
    // (dead or persistently faulting devices). Pristine copies of the
    // buffers the kernel can store to — kept only when fault injection is
    // armed — restore read-modify-write inputs before each retry, so a
    // partially executed attempt can never corrupt the final outputs.
    let pristine = shared
        .faults
        .as_ref()
        .map(|_| writable_copies(&kernel, &args, &bufs));
    let mut transient_tries = 0u32;
    let report = loop {
        let t = Instant::now();
        let attempt = fw.execute_planned(&kernel, &nd, &args, &mut bufs, &active);
        shared
            .stats
            .exec_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match attempt {
            Ok(report) => {
                for dev in active.partition.active_devices() {
                    shared.health.record_success(dev);
                }
                break report;
            }
            Err(DeployError::Fault {
                device,
                device_name,
                permanent,
            }) => {
                shared.health.record_failure(device, permanent);
                for (b, copy) in pristine.iter().flatten() {
                    bufs[*b].clone_from(copy);
                }
                if permanent || transient_tries >= shared.max_retries {
                    // Exclude the device (for exhausted transients it is
                    // treated as suspect) and re-plan on the survivors.
                    if !avoid.contains(&device) {
                        avoid.push(device);
                    }
                    match fw.replan_excluding(&kernel, &nd, &args, &bufs, &plan, &avoid) {
                        Some(degraded) if degraded.partition != active.partition => {
                            shared.stats.replans.fetch_add(1, Ordering::Relaxed);
                            active = degraded;
                            transient_tries = 0;
                        }
                        // No survivors (or no change, which would loop
                        // forever): surface the fault.
                        _ => {
                            return Err(DeployError::Fault {
                                device,
                                device_name,
                                permanent,
                            })
                        }
                    }
                } else {
                    transient_tries += 1;
                    shared.stats.retries.fetch_add(1, Ordering::Relaxed);
                    let exp = transient_tries.saturating_sub(1).min(10);
                    let backoff = shared
                        .backoff_base
                        .saturating_mul(1u32 << exp)
                        .min(BACKOFF_CAP);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
            }
            Err(e) => return Err(e),
        }
    };

    if let Some(rk) = result_key {
        // Degraded execution is still bit-exact (the partition only moves
        // work between devices; the VM is deterministic per item), so the
        // memo stays valid across fault episodes.
        let cached = Arc::new(CachedResult {
            partition: active.partition.clone(),
            report: report.clone(),
            bufs: bufs.clone(),
        });
        shared.results.insert(rk, cached);
    }

    Ok(ServedLaunch {
        partition: active.partition,
        report,
        bufs,
        cache_hit,
        result_hit: false,
        plan_seconds,
        service_seconds: started.elapsed().as_secs_f64(),
        queued_seconds,
    })
}
