//! The concurrent deployment service: enqueue launches, plan them once,
//! execute them with cached plans.
//!
//! The paper's deployment phase collects a launched program's runtime
//! features, feeds them to the trained model and runs the launch with the
//! predicted partitioning. [`Framework::run_auto`] does exactly that —
//! synchronously, [`Framework::prepare`] then
//! [`Framework::execute_planned`], re-probing the kernel on *every* launch. For serving
//! repeat traffic that is wasted work: the same (kernel, launch shape)
//! pair produces the same features, the same prediction and the same
//! transfer plan every time.
//!
//! [`Service`] wraps a [`Framework`] behind a submission API:
//!
//! * **Queue + worker pool** — [`Service::submit`] enqueues a launch and
//!   returns a [`Ticket`]; a pool of worker threads drains the queue.
//!   With more than one worker, feature collection for queued launches
//!   overlaps with execution of running ones.
//! * **Prediction cache** — plans are memoized under a [`PlanKey`]
//!   (kernel fingerprint + launch shape). A cache hit skips probe
//!   sampling, model inference *and* access analysis: the launch goes
//!   straight to [`Framework::execute_planned`], which runs only the
//!   kernel work itself. The cache is **lock-striped**
//!   ([`StripedCache`]): entries shard across
//!   [`ServiceConfig::cache_stripes`] independent mutexes by key hash,
//!   so a worker pool serving mixed traffic stops serializing on one
//!   cache mutex (`cache_stripes: 1` restores the single-mutex layout).
//! * **Stats** — hits, misses, completions, errors and cumulative
//!   plan/execute latency, via [`Service::stats`].
//!
//! Cache-key semantics: the key captures the kernel identity
//! ([`CompiledKernel::fingerprint`]), the NDRange, and every argument's
//! shape (scalar *values*, buffer *lengths and element types* — not
//! buffer contents). Two launches with the same key reuse one plan; for
//! kernels whose control flow depends on buffer contents the cached
//! partition is the one planned for the first-seen contents, which is the
//! deliberate trade of plan caching (set `cache_capacity: 0` to disable).
//! Execution itself always runs on the submitted buffers, so outputs are
//! exact either way. Workers racing on the *same cold key* may each plan
//! it once (the cache is populated after planning, not reserved before);
//! plans are deterministic, so the duplicates cost wasted probe work,
//! never wrong answers — single-flight dedup is future work.
//!
//! A second, opt-in tier memoizes whole results: with
//! `result_cache_capacity > 0`, a launch whose plan key *and* buffer
//! contents (64-bit content hash) match a previous launch returns that
//! launch's outputs without executing at all. The VM is deterministic, so
//! the memoized outputs are bit-identical to re-execution; the trade is
//! memory (cached output buffers) and the vanishing probability of a
//! 64-bit hash collision, which is why the tier is off by default.
//!
//! The code is split by concern: this module holds the queue, the
//! worker pool and the public handles; `cache` the plan key and the
//! striped memo tiers; `health` the per-device breakers; `launch` the
//! tiered lookup and the retry / re-plan loop of one launch; `tests` the
//! unit tests of all four.
//!
//! # Fault tolerance & overload
//!
//! The service is built to stay up when devices or jobs misbehave:
//!
//! * **Bounded queue + load shedding** — the queue holds at most
//!   [`ServiceConfig::max_queue_depth`] jobs. A submission against a full
//!   queue is shed at once with [`DeployError::Overloaded`]; `submit`
//!   never blocks, and the caller owns retry policy.
//! * **Fault injection** — an optional [`FaultPlan`]
//!   ([`ServiceConfig::fault_plan`]) arms deterministic, seeded device
//!   faults in the executor: transient execution failures, permanent
//!   device death, slowdowns. `fault_plan: None` leaves faults disarmed.
//! * **Retry, re-plan, circuit breakers** — transient faults retry with
//!   exponential backoff capped at 5 ms; a permanently dead (or
//!   persistently faulting) device is excluded and the launch re-planned
//!   on the survivors via proportional redistribution, CPU-only as the
//!   last resort. A per-device circuit breaker opens after
//!   [`ServiceConfig::breaker_threshold`] consecutive failures, routes
//!   planning around the device for a fixed 100 ms cooldown, then admits
//!   one half-open probe.
//! * **Panic isolation** — a job that panics resolves its ticket with
//!   [`DeployError::Worker`] instead of poisoning locks or hanging
//!   waiters; the worker survives and keeps serving. Every serve-path
//!   lock recovers from poisoning.
//! * **Shutdown** — [`Service::shutdown`] and dropping the service both
//!   drain the queue fully: every admitted job runs and resolves its
//!   ticket before the workers are joined.

mod cache;
mod health;
mod launch;
#[cfg(test)]
mod tests;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hetpart_inspire::ir::NdRange;
use hetpart_inspire::vm::{ArgValue, BufferData};
use hetpart_inspire::CompiledKernel;
use hetpart_oclsim::{FaultPlan, FaultState};
use hetpart_runtime::{ExecutionReport, Partition};

use crate::predictor::{DeployError, Framework, LaunchPlan};
use cache::CachedResult;
pub use cache::{PlanKey, StripedCache};
use health::{HealthRegistry, BREAKER_COOLDOWN};

/// Lock a mutex, recovering the guard if a previous holder panicked.
/// Serve-path state (queue, tickets, caches, breakers) stays consistent
/// under panics by construction — every critical section either completes
/// its invariant or leaves plain data a later holder can still use — so
/// poisoning must not cascade one panicked job into a wedged service.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `Condvar::wait` with the same poison recovery as [`lock_recover`].
fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the queue. Defaults to the machine's
    /// available parallelism (at least 1).
    pub workers: usize,
    /// Maximum cached plans; `0` disables the prediction cache.
    pub cache_capacity: usize,
    /// Maximum memoized whole results (content-keyed tier); `0` — the
    /// default — disables result memoization. See the module docs.
    pub result_cache_capacity: usize,
    /// Lock stripes of the plan and result caches (clamped to at least
    /// 1). `1` restores the single-mutex cache; the default keeps a
    /// worker pool from serializing on one cache lock.
    pub cache_stripes: usize,
    /// Maximum queued (not yet picked up) jobs; `0` means unbounded
    /// (the pre-backpressure layout). In-flight jobs do not count. A
    /// submission against a full queue is shed with
    /// [`DeployError::Overloaded`].
    pub max_queue_depth: usize,
    /// Retries of a transiently faulting launch before the device is
    /// excluded and the launch re-planned.
    pub max_retries: u32,
    /// First retry backoff; doubles per retry up to a fixed 5 ms cap.
    pub backoff_base: Duration,
    /// Consecutive per-device failures that open its circuit breaker
    /// for a fixed 100 ms cooldown; `0` disables breakers.
    pub breaker_threshold: u32,
    /// Optional deterministic fault plan, injected into the executor's
    /// planned-execution path (see [`FaultPlan`]).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            cache_capacity: 1024,
            result_cache_capacity: 0,
            cache_stripes: 16,
            max_queue_depth: 1024,
            max_retries: 3,
            // Simulated launches run in microseconds-to-milliseconds, so
            // backoff is sized to match: enough to let a glitching device
            // settle, not enough to stall the worker visibly.
            backoff_base: Duration::from_micros(50),
            breaker_threshold: 8,
            fault_plan: None,
        }
    }
}

/// The completed result of one served launch.
#[derive(Debug, Clone)]
pub struct ServedLaunch {
    /// The partitioning the launch ran with.
    pub partition: Partition,
    pub report: ExecutionReport,
    /// The submission's buffers, outputs filled in.
    pub bufs: Vec<BufferData>,
    /// Whether the plan came from the prediction cache.
    pub cache_hit: bool,
    /// Whether the whole result came from the content-keyed result memo
    /// (implies `cache_hit`; the launch did not execute).
    pub result_hit: bool,
    /// Seconds spent planning (probe + inference + access analysis);
    /// `0.0` on a cache hit.
    pub plan_seconds: f64,
    /// Seconds from dequeue to completion.
    pub service_seconds: f64,
    /// Seconds spent waiting in the queue (submission to dequeue) — the
    /// admission-delay component of end-to-end latency under load.
    pub queued_seconds: f64,
}

struct TicketState {
    slot: Mutex<Option<Result<ServedLaunch, DeployError>>>,
    done: Condvar,
}

/// A handle to a submitted launch; [`Ticket::wait`] blocks until the
/// worker pool has executed it.
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    /// Block until the launch completes and take its result.
    pub fn wait(self) -> Result<ServedLaunch, DeployError> {
        let mut slot = lock_recover(&self.state.slot);
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = wait_recover(&self.state.done, slot);
        }
    }
}

struct Job {
    kernel: Arc<CompiledKernel>,
    nd: NdRange,
    args: Vec<ArgValue>,
    bufs: Vec<BufferData>,
    ticket: Arc<TicketState>,
    submitted_at: Instant,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

#[derive(Default)]
struct Stats {
    submitted: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    sheds: AtomicU64,
    retries: AtomicU64,
    replans: AtomicU64,
    worker_panics: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    result_hits: AtomicU64,
    plan_ns: AtomicU64,
    exec_ns: AtomicU64,
}

/// A point-in-time snapshot of the service counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceStats {
    /// Admitted submissions (sheds are counted separately).
    pub submitted: u64,
    pub completed: u64,
    /// Jobs whose ticket resolved with an error.
    pub errors: u64,
    /// Submissions refused at admission because the queue was full. An
    /// admitted job is never shed: shutdown drains the queue.
    pub sheds: u64,
    /// Transient-fault retry attempts across all launches.
    pub retries: u64,
    /// Degraded re-plans: launches re-partitioned onto surviving devices.
    pub replans: u64,
    /// Jobs that panicked inside a worker (each resolved its ticket with
    /// [`DeployError::Worker`]; the worker kept serving).
    pub worker_panics: u64,
    /// Devices whose circuit breaker is currently open.
    pub open_breakers: u64,
    /// Devices marked permanently dead.
    pub dead_devices: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Launches answered entirely from the result memo (subset of
    /// `cache_hits`).
    pub result_hits: u64,
    /// Cumulative seconds spent in the planning phase (cold launches).
    pub plan_seconds: f64,
    /// Cumulative seconds spent executing kernels.
    pub exec_seconds: f64,
}

impl ServiceStats {
    /// Fraction of planned launches answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

struct Shared {
    framework: Framework,
    queue: Mutex<QueueState>,
    /// Signals workers: a job is available (or shutdown began).
    available: Condvar,
    max_queue_depth: usize,
    max_retries: u32,
    backoff_base: Duration,
    /// Armed fault-injection state, if any; also the signal that buffers
    /// need a pristine copy for retry restoration.
    faults: Option<Arc<FaultState>>,
    health: HealthRegistry,
    plans: StripedCache<PlanKey, LaunchPlan>,
    /// Whether the result memo is enabled (fixed at construction; read
    /// without touching the `results` stripes).
    memoize_results: bool,
    results: StripedCache<(PlanKey, u64), Arc<CachedResult>>,
    stats: Stats,
}

/// The concurrent deployment service. See the module docs.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Start a service over a framework, validating up front that the
    /// predictor's label space fits the executor's machine and that any
    /// configured fault plan fits the machine.
    pub fn new(mut framework: Framework, config: ServiceConfig) -> Result<Self, DeployError> {
        framework.validate()?;
        let devices = framework.executor.machine.num_devices();
        let faults = match &config.fault_plan {
            Some(plan) if !plan.is_noop() => {
                let state = framework
                    .executor
                    .machine
                    .fault_state(plan)
                    .map_err(DeployError::Config)?;
                let state = Arc::new(state);
                framework.executor.faults = Some(Arc::clone(&state));
                Some(state)
            }
            _ => None,
        };
        let shared = Arc::new(Shared {
            framework,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            max_queue_depth: config.max_queue_depth,
            max_retries: config.max_retries,
            backoff_base: config.backoff_base,
            faults,
            health: HealthRegistry::new(devices, config.breaker_threshold, BREAKER_COOLDOWN),
            plans: StripedCache::new(config.cache_capacity, config.cache_stripes),
            memoize_results: config.result_cache_capacity > 0,
            results: StripedCache::new(config.result_cache_capacity, config.cache_stripes),
            stats: Stats::default(),
        });
        let mut service = Self {
            shared,
            workers: Vec::with_capacity(config.workers.max(1)),
        };
        for i in 0..config.workers.max(1) {
            let shared = Arc::clone(&service.shared);
            let handle = std::thread::Builder::new()
                .name(format!("hetpart-serve-{i}"))
                .spawn(move || worker_main(&shared))
                .map_err(|e| {
                    // Dropping `service` here joins the workers already
                    // spawned, so a partial start cleans up after itself.
                    DeployError::Config(format!("failed to spawn service worker {i}: {e}"))
                })?;
            service.workers.push(handle);
        }
        Ok(service)
    }

    /// Enqueue a launch. The returned [`Ticket`] resolves once a worker
    /// has planned (or cache-hit) and executed it; `bufs` travel with the
    /// job and come back in the [`ServedLaunch`] with outputs filled in.
    ///
    /// Against a full queue this never blocks: the submission is shed
    /// with [`DeployError::Overloaded`].
    pub fn submit(
        &self,
        kernel: Arc<CompiledKernel>,
        nd: NdRange,
        args: Vec<ArgValue>,
        bufs: Vec<BufferData>,
    ) -> Result<Ticket, DeployError> {
        let state = Arc::new(TicketState {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        let job = Job {
            kernel,
            nd,
            args,
            bufs,
            ticket: Arc::clone(&state),
            submitted_at: Instant::now(),
        };
        let mut q = lock_recover(&self.shared.queue);
        if self.shared.max_queue_depth > 0 && q.jobs.len() >= self.shared.max_queue_depth {
            let depth = q.jobs.len();
            drop(q);
            self.shared.stats.sheds.fetch_add(1, Ordering::Relaxed);
            return Err(DeployError::Overloaded { depth });
        }
        self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        q.jobs.push_back(job);
        drop(q);
        self.shared.available.notify_one();
        Ok(Ticket { state })
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.shared.stats;
        ServiceStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            errors: s.errors.load(Ordering::Relaxed),
            sheds: s.sheds.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
            replans: s.replans.load(Ordering::Relaxed),
            worker_panics: s.worker_panics.load(Ordering::Relaxed),
            open_breakers: self.shared.health.open_breakers(),
            dead_devices: self.shared.health.dead_devices(),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            cache_misses: s.cache_misses.load(Ordering::Relaxed),
            result_hits: s.result_hits.load(Ordering::Relaxed),
            plan_seconds: s.plan_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            exec_seconds: s.exec_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }

    /// The framework this service deploys.
    pub fn framework(&self) -> &Framework {
        &self.shared.framework
    }

    /// The armed fault-injection state, if a fault plan that can fire was
    /// configured.
    pub fn fault_state(&self) -> Option<&FaultState> {
        self.shared.faults.as_deref()
    }

    /// Stop the workers once they have drained the queue fully, and join
    /// them. Dropping the service does the same.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        lock_recover(&self.shared.queue).shutdown = true;
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Worker thread entry point: run the queue loop, respawning it in place
/// if it ever panics outside the per-job `catch_unwind` (so a bug in
/// queue handling shrinks to a recorded incident, not a silently smaller
/// pool).
fn worker_main(shared: &Arc<Shared>) {
    loop {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker_loop(shared))) {
            Ok(()) => return,
            Err(_) => {
                shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = lock_recover(&shared.queue);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = wait_recover(&shared.available, q);
            }
        };
        let queued_seconds = job.submitted_at.elapsed().as_secs_f64();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            launch::process(
                shared,
                job.kernel,
                job.nd,
                job.args,
                job.bufs,
                queued_seconds,
            )
        }))
        .unwrap_or_else(|payload| {
            shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_string());
            Err(DeployError::Worker(msg))
        });
        if result.is_err() {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.stats.completed.fetch_add(1, Ordering::Relaxed);
        }
        let mut slot = lock_recover(&job.ticket.slot);
        *slot = Some(result);
        drop(slot);
        job.ticket.done.notify_all();
    }
}
