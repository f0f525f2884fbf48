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
//! # Fault tolerance & overload
//!
//! The service is built to stay up when devices or jobs misbehave:
//!
//! * **Bounded queue + admission control** — the queue holds at most
//!   [`ServiceConfig::max_queue_depth`] jobs. A submission against a full
//!   queue is *shed* with [`DeployError::Overloaded`] (the default
//!   [`AdmissionPolicy::Shed`]) or blocks until space frees or an
//!   admission deadline passes ([`AdmissionPolicy::Block`]).
//! * **Fault injection** — an optional [`FaultPlan`]
//!   ([`ServiceConfig::fault_plan`]) arms deterministic, seeded device
//!   faults in the executor: transient execution failures, permanent
//!   device death, slowdowns. `fault_plan: None` leaves faults disarmed.
//! * **Retry, re-plan, circuit breakers** — transient faults retry with
//!   capped exponential backoff; a permanently dead (or persistently
//!   faulting) device is excluded and the launch re-planned on the
//!   survivors via proportional redistribution, CPU-only as the last
//!   resort. A per-device circuit breaker opens after
//!   [`ServiceConfig::breaker_threshold`] consecutive failures, routes
//!   planning around the device for
//!   [`ServiceConfig::breaker_cooldown`], then admits one half-open
//!   probe.
//! * **Panic isolation** — a job that panics resolves its ticket with
//!   [`DeployError::Worker`] instead of poisoning locks or hanging
//!   waiters; the worker survives and keeps serving. Every serve-path
//!   lock recovers from poisoning.
//! * **Shutdown** — [`Service::shutdown`] drains forever;
//!   [`Service::shutdown_drain`] drains up to a deadline then sheds the
//!   remainder; [`Service::shutdown_now`] sheds everything still queued.
//!   Shed jobs resolve their tickets with [`DeployError::Shed`].

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hetpart_inspire::ir::NdRange;
use hetpart_inspire::vm::{ArgValue, BufferData};
use hetpart_inspire::{CompiledKernel, ScalarType};
use hetpart_oclsim::{FaultPlan, FaultState};
use hetpart_runtime::{ExecutionReport, Partition};

use crate::predictor::{DeployError, Framework, LaunchPlan};

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

/// `Condvar::wait_timeout` with poison recovery.
fn wait_timeout_recover<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> MutexGuard<'a, T> {
    match cv.wait_timeout(guard, dur) {
        Ok((g, _)) => g,
        Err(p) => p.into_inner().0,
    }
}

/// The shape-identity of one kernel argument inside a [`PlanKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ArgKey {
    Int(i32),
    UInt(u32),
    /// Bit pattern — floats hash by representation.
    Float(u32),
    /// Binding index plus element type and length of the bound buffer.
    /// The index matters: `[Buffer(0), Buffer(1)]` and
    /// `[Buffer(1), Buffer(0)]` bind the same buffers to different
    /// parameters and must not share a plan (or a memoized result).
    Buffer {
        index: usize,
        elem: ScalarType,
        len: usize,
    },
    /// A buffer argument whose index has no backing buffer (the launch
    /// will be rejected by `Vm::check_args`, but the key must still be
    /// well-defined and distinct).
    DanglingBuffer {
        index: usize,
    },
}

/// What makes two launches "the same" to the prediction cache: the kernel
/// fingerprint plus the launch shape (NDRange dimensions, scalar argument
/// values, buffer lengths and element types). Buffer *contents* are
/// deliberately excluded — see the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    fingerprint: u64,
    dims: Vec<usize>,
    args: Vec<ArgKey>,
}

impl PlanKey {
    /// Build the cache key of a launch.
    pub fn of(
        kernel: &CompiledKernel,
        nd: &NdRange,
        args: &[ArgValue],
        bufs: &[BufferData],
    ) -> Self {
        let dims = (0..3).map(|d| nd.dim(d)).collect();
        let args = args
            .iter()
            .map(|a| match a {
                ArgValue::Int(v) => ArgKey::Int(*v),
                ArgValue::UInt(v) => ArgKey::UInt(*v),
                ArgValue::Float(v) => ArgKey::Float(v.to_bits()),
                ArgValue::Buffer(b) => match bufs.get(*b) {
                    Some(bd) => ArgKey::Buffer {
                        index: *b,
                        elem: bd.elem_type(),
                        len: bd.len(),
                    },
                    None => ArgKey::DanglingBuffer { index: *b },
                },
            })
            .collect();
        Self {
            fingerprint: kernel.fingerprint,
            dims,
            args,
        }
    }
}

/// 64-bit content hash of a launch's buffers (FxHash-style word folding —
/// fast enough that hashing is orders of magnitude cheaper than kernel
/// execution).
fn content_hash(bufs: &[BufferData]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |w: u64| h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    for bd in bufs {
        // Type tag then length: two same-bits buffers of different
        // scalar types must not collide.
        fold(match bd {
            BufferData::F32(_) => 1,
            BufferData::I32(_) => 2,
            BufferData::U32(_) => 3,
        });
        fold(bd.len() as u64);
        match bd {
            BufferData::F32(v) => v.iter().for_each(|x| fold(u64::from(x.to_bits()))),
            BufferData::I32(v) => v.iter().for_each(|x| fold(*x as u32 as u64)),
            BufferData::U32(v) => v.iter().for_each(|x| fold(u64::from(*x))),
        }
    }
    h
}

/// Bounded FIFO memo, generic over the cached value (plans and results).
/// One stripe of a [`StripedCache`].
struct FifoCache<K, V> {
    capacity: usize,
    map: HashMap<K, V>,
    order: VecDeque<K>,
}

impl<K: std::hash::Hash + Eq + Clone, V: Clone> FifoCache<K, V> {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, key: &K) -> Option<V> {
        self.map.get(key).cloned()
    }

    fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
            while self.order.len() > self.capacity {
                if let Some(evict) = self.order.pop_front() {
                    self.map.remove(&evict);
                }
            }
        }
    }
}

/// A bounded FIFO memo sharded across `N` independently locked stripes
/// by key hash — the serving-scale successor to one `Mutex<FifoCache>`.
///
/// With a single mutex every worker of the pool serializes on the cache
/// for each lookup and fill, even when they touch unrelated keys. Keys
/// hash to a fixed stripe, so concurrent operations on different stripes
/// never contend, and operations on the same key keep the same
/// consistency they had under one lock (a stripe *is* one lock).
///
/// The capacity splits evenly across stripes (rounded up), so eviction is
/// per-stripe FIFO: total occupancy never exceeds `capacity + stripes`.
/// `stripes == 1` is exactly the old single-mutex cache.
pub struct StripedCache<K, V> {
    stripes: Vec<Mutex<FifoCache<K, V>>>,
}

impl<K: Hash + Eq + Clone, V: Clone> StripedCache<K, V> {
    /// A cache holding ~`capacity` entries across `stripes` locks
    /// (`stripes` is clamped to at least 1; `capacity == 0` disables
    /// caching entirely).
    pub fn new(capacity: usize, stripes: usize) -> Self {
        let stripes = stripes.max(1);
        let per_stripe = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(stripes)
        };
        Self {
            stripes: (0..stripes)
                .map(|_| Mutex::new(FifoCache::new(per_stripe)))
                .collect(),
        }
    }

    fn stripe(&self, key: &K) -> &Mutex<FifoCache<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.stripes[(h.finish() as usize) % self.stripes.len()]
    }

    /// Clone out the cached value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        lock_recover(self.stripe(key)).get(key)
    }

    /// Memoize `value` under `key` (no-op when the capacity is 0).
    pub fn insert(&self, key: K, value: V) {
        lock_recover(self.stripe(&key)).insert(key, value);
    }
}

/// A memoized launch outcome: everything a repeat of a bit-identical
/// launch needs to answer without executing. Shared via `Arc` so a cache
/// hit clones two words plus the output buffers it hands out.
struct CachedResult {
    partition: Partition,
    report: ExecutionReport,
    bufs: Vec<BufferData>,
}

/// What [`Service::submit`] does when the queue is at
/// [`ServiceConfig::max_queue_depth`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Reject immediately with [`DeployError::Overloaded`] (load
    /// shedding — the default; the caller owns retry policy).
    Shed,
    /// Block the submitter until space frees, up to the admission
    /// deadline; past it the submission is shed. `Duration::ZERO`
    /// behaves like [`AdmissionPolicy::Shed`].
    Block { deadline: Duration },
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
    /// (the pre-backpressure layout). In-flight jobs do not count.
    pub max_queue_depth: usize,
    /// What to do with submissions against a full queue.
    pub admission: AdmissionPolicy,
    /// Retries of a transiently faulting launch before the device is
    /// excluded and the launch re-planned.
    pub max_retries: u32,
    /// First retry backoff; doubles per retry up to [`Self::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound on a single retry backoff sleep.
    pub backoff_cap: Duration,
    /// Consecutive per-device failures that open its circuit breaker;
    /// `0` disables breakers.
    pub breaker_threshold: u32,
    /// How long an open breaker routes planning around its device before
    /// admitting a half-open probe.
    pub breaker_cooldown: Duration,
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
            admission: AdmissionPolicy::Shed,
            max_retries: 3,
            // Simulated launches run in microseconds-to-milliseconds, so
            // backoff is sized to match: enough to let a glitching device
            // settle, not enough to stall the worker visibly.
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(5),
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_millis(100),
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

    /// Wait up to `timeout` for the launch to complete. On timeout the
    /// ticket comes back in `Err` so the caller can keep waiting (or
    /// drop it — the job still runs, its result is simply discarded).
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> Result<Result<ServedLaunch, DeployError>, Self> {
        let deadline = Instant::now() + timeout;
        let mut slot = lock_recover(&self.state.slot);
        loop {
            if let Some(result) = slot.take() {
                return Ok(result);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(slot);
                return Err(self);
            }
            slot = wait_timeout_recover(&self.state.done, slot, deadline - now);
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
    /// Jobs whose ticket resolved with an error (sheds excluded).
    pub errors: u64,
    /// Submissions refused at admission plus queued jobs shed at
    /// shutdown.
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

/// Per-device circuit breaker state.
#[derive(Debug, Clone, Copy)]
enum Breaker {
    /// Healthy (or recovering): `failures` consecutive failures so far.
    Closed { failures: u32 },
    /// Tripped: planning routes around the device until `until`.
    Open { until: Instant },
    /// Cooldown elapsed: one probe launch may use the device; its
    /// outcome closes or re-opens the breaker.
    HalfOpen,
}

/// Sticky per-device health: permanent-death flags plus circuit
/// breakers. Fed by launch outcomes, consulted by planning.
struct HealthRegistry {
    breakers: Vec<Mutex<Breaker>>,
    dead: Vec<AtomicBool>,
    threshold: u32,
    cooldown: Duration,
}

impl HealthRegistry {
    fn new(devices: usize, threshold: u32, cooldown: Duration) -> Self {
        Self {
            breakers: (0..devices)
                .map(|_| Mutex::new(Breaker::Closed { failures: 0 }))
                .collect(),
            dead: (0..devices).map(|_| AtomicBool::new(false)).collect(),
            threshold,
            cooldown,
        }
    }

    fn record_success(&self, device: usize) {
        if let Some(b) = self.breakers.get(device) {
            *lock_recover(b) = Breaker::Closed { failures: 0 };
        }
    }

    fn record_failure(&self, device: usize, permanent: bool) {
        if permanent {
            if let Some(d) = self.dead.get(device) {
                d.store(true, Ordering::Relaxed);
            }
        }
        let Some(b) = self.breakers.get(device) else {
            return;
        };
        let mut b = lock_recover(b);
        *b = match *b {
            Breaker::Closed { failures } => {
                let failures = failures.saturating_add(1);
                if self.threshold > 0 && failures >= self.threshold {
                    Breaker::Open {
                        until: Instant::now() + self.cooldown,
                    }
                } else {
                    Breaker::Closed { failures }
                }
            }
            // A failed half-open probe (or a failure racing an open
            // breaker) restarts the full cooldown.
            Breaker::HalfOpen | Breaker::Open { .. } => Breaker::Open {
                until: Instant::now() + self.cooldown,
            },
        };
    }

    /// Devices planning should currently route around: dead devices plus
    /// open breakers. An expired breaker transitions to half-open here
    /// and is *not* avoided — the calling launch is its probe.
    fn avoided(&self) -> Vec<usize> {
        let mut avoid = Vec::new();
        for (i, b) in self.breakers.iter().enumerate() {
            if self.dead[i].load(Ordering::Relaxed) {
                avoid.push(i);
                continue;
            }
            let mut b = lock_recover(b);
            if let Breaker::Open { until } = *b {
                if Instant::now() >= until {
                    *b = Breaker::HalfOpen;
                } else {
                    avoid.push(i);
                }
            }
        }
        avoid
    }

    fn open_breakers(&self) -> u64 {
        self.breakers
            .iter()
            .filter(|b| matches!(*lock_recover(b), Breaker::Open { .. }))
            .count() as u64
    }

    fn dead_devices(&self) -> u64 {
        self.dead
            .iter()
            .filter(|d| d.load(Ordering::Relaxed))
            .count() as u64
    }
}

struct Shared {
    framework: Framework,
    queue: Mutex<QueueState>,
    /// Signals workers: a job is available (or shutdown began).
    available: Condvar,
    /// Signals blocked submitters: queue space freed (or shutdown).
    space: Condvar,
    max_queue_depth: usize,
    admission: AdmissionPolicy,
    max_retries: u32,
    backoff_base: Duration,
    backoff_cap: Duration,
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
            space: Condvar::new(),
            max_queue_depth: config.max_queue_depth,
            admission: config.admission,
            max_retries: config.max_retries,
            backoff_base: config.backoff_base,
            backoff_cap: config.backoff_cap,
            faults,
            health: HealthRegistry::new(devices, config.breaker_threshold, config.breaker_cooldown),
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
    /// Against a full queue this sheds ([`DeployError::Overloaded`]) or
    /// blocks up to the admission deadline, per
    /// [`ServiceConfig::admission`]; after shutdown began it returns
    /// [`DeployError::Shed`].
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
        if q.shutdown {
            return Err(DeployError::Shed);
        }
        if self.shared.max_queue_depth > 0 && q.jobs.len() >= self.shared.max_queue_depth {
            match self.shared.admission {
                AdmissionPolicy::Shed => {
                    let depth = q.jobs.len();
                    drop(q);
                    self.shared.stats.sheds.fetch_add(1, Ordering::Relaxed);
                    return Err(DeployError::Overloaded { depth });
                }
                AdmissionPolicy::Block { deadline } => {
                    let deadline_at = Instant::now() + deadline;
                    loop {
                        if q.shutdown {
                            return Err(DeployError::Shed);
                        }
                        if q.jobs.len() < self.shared.max_queue_depth {
                            break;
                        }
                        let now = Instant::now();
                        if now >= deadline_at {
                            let depth = q.jobs.len();
                            drop(q);
                            self.shared.stats.sheds.fetch_add(1, Ordering::Relaxed);
                            return Err(DeployError::Overloaded { depth });
                        }
                        q = wait_timeout_recover(&self.shared.space, q, deadline_at - now);
                    }
                }
            }
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

    /// Stop accepting work, drain the queue fully, and join the workers.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Stop accepting work and drain the queue for up to `deadline`;
    /// jobs still queued past it are shed (tickets resolve with
    /// [`DeployError::Shed`]). Returns how many jobs were shed.
    /// In-flight jobs always run to completion.
    pub fn shutdown_drain(mut self, deadline: Duration) -> usize {
        let deadline_at = Instant::now() + deadline;
        {
            let mut q = lock_recover(&self.shared.queue);
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        self.shared.space.notify_all();
        let shed = loop {
            let mut q = lock_recover(&self.shared.queue);
            if q.jobs.is_empty() {
                break 0;
            }
            if Instant::now() >= deadline_at {
                break shed_queued(&self.shared, &mut q);
            }
            drop(q);
            std::thread::sleep(Duration::from_micros(200));
        };
        self.join_workers();
        shed
    }

    /// Stop accepting work and shed everything still queued (tickets
    /// resolve with [`DeployError::Shed`]); in-flight jobs run to
    /// completion. Returns how many jobs were shed.
    pub fn shutdown_now(mut self) -> usize {
        let shed = {
            let mut q = lock_recover(&self.shared.queue);
            q.shutdown = true;
            shed_queued(&self.shared, &mut q)
        };
        self.shared.available.notify_all();
        self.shared.space.notify_all();
        self.join_workers();
        shed
    }

    fn stop_and_join(&mut self) {
        {
            let mut q = lock_recover(&self.shared.queue);
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        self.shared.space.notify_all();
        self.join_workers();
    }

    fn join_workers(&mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Pop and shed every queued job, resolving its ticket with
/// [`DeployError::Shed`]. Returns the count.
fn shed_queued(shared: &Shared, q: &mut QueueState) -> usize {
    let mut shed = 0;
    while let Some(job) = q.jobs.pop_front() {
        shared.stats.sheds.fetch_add(1, Ordering::Relaxed);
        let mut slot = lock_recover(&job.ticket.slot);
        *slot = Some(Err(DeployError::Shed));
        drop(slot);
        job.ticket.done.notify_all();
        shed += 1;
    }
    shed
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_and_join();
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
        // The pop freed one queue slot; wake a blocked submitter.
        shared.space.notify_one();
        let queued_seconds = job.submitted_at.elapsed().as_secs_f64();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            process(
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

/// Copies of the buffers `kernel` can store to, keyed by buffer index:
/// everything a partially executed attempt can corrupt. The write set is
/// the static access summary's, mapped through `args`; a buffer bound to
/// several parameters is copied once.
fn writable_copies(
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

fn process(
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
                        .min(shared.backoff_cap);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HarnessConfig;
    use crate::db::FeatureSet;
    use crate::predictor::PartitionPredictor;
    use crate::train::collect_training_db;
    use hetpart_ml::{ModelConfig, TreeConfig};
    use hetpart_oclsim::machines;
    use hetpart_runtime::Executor;

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
        let submit = |bufs: Vec<hetpart_inspire::vm::BufferData>| {
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
            hetpart_inspire::vm::BufferData::F32(v) => v[0] += 1.0,
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
        use hetpart_inspire::vm::{ArgValue, BufferData};
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

    use hetpart_oclsim::DeviceFaults;

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

    /// A service whose single worker is deterministically busy for tens
    /// of milliseconds per job (every attempt transiently faults, each
    /// retry sleeps 1ms) — the backbone of the overload tests.
    fn busy_service(config: ServiceConfig) -> Service {
        gpu1_only_faulty(
            DeviceFaults {
                transient_rate: 1.0,
                ..DeviceFaults::none(1)
            },
            ServiceConfig {
                max_retries: 50,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(1),
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
        // Worker busy with job 1 (≥50ms of retry backoff): job 2 fills
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

    #[test]
    fn blocking_admission_waits_for_space_instead_of_shedding() {
        let service = busy_service(ServiceConfig {
            max_queue_depth: 1,
            admission: AdmissionPolicy::Block {
                deadline: Duration::from_secs(30),
            },
            ..ServiceConfig::default()
        });
        let tickets: Vec<_> = (0..3)
            .map(|_| submit_vec_add(&service).expect("blocking admission never sheds here"))
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.sheds, 0);
        assert_eq!(stats.completed, 3);
        service.shutdown();
    }

    #[test]
    fn wait_timeout_returns_the_ticket_until_the_job_completes() {
        let service = busy_service(ServiceConfig::default());
        let ticket = submit_vec_add(&service).unwrap();
        // The job spends ≥50ms in retry backoff; a 1ms wait must time out
        // and hand the ticket back.
        let ticket = match ticket.wait_timeout(Duration::from_millis(1)) {
            Err(t) => t,
            Ok(r) => panic!("job finished implausibly fast: {r:?}"),
        };
        ticket.wait().unwrap();
        service.shutdown();
    }

    #[test]
    fn shutdown_now_sheds_queued_jobs_but_finishes_in_flight_work() {
        let service = busy_service(ServiceConfig::default());
        let tickets: Vec<_> = (0..4).map(|_| submit_vec_add(&service).unwrap()).collect();
        let shed = service.shutdown_now();
        let results: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
        let completed = results.iter().filter(|r| r.is_ok()).count();
        let shed_tickets = results
            .iter()
            .filter(|r| matches!(r, Err(DeployError::Shed)))
            .count();
        assert_eq!(completed + shed_tickets, 4, "every ticket must resolve");
        assert_eq!(shed, shed_tickets);
        assert!(shed >= 1, "the busy worker cannot have drained the queue");
        // Submissions after shutdown shed immediately.
    }

    #[test]
    fn shutdown_drain_with_headroom_sheds_nothing() {
        let service = busy_service(ServiceConfig::default());
        let tickets: Vec<_> = (0..3).map(|_| submit_vec_add(&service).unwrap()).collect();
        let shed = service.shutdown_drain(Duration::from_secs(60));
        assert_eq!(shed, 0);
        for t in tickets {
            t.wait().unwrap();
        }
    }

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
}
