//! CPU-time clocks (the time the kernel accounts to a thread or to the
//! whole process), and the reference loop that rescales CPU times to a
//! fixed CPU speed.
//!
//! The benchmark times its operations on these clocks, not on the wall
//! clock. On a shared host the wall time of an operation also counts the
//! time its vCPU spent descheduled by the hypervisor or waiting behind
//! another runnable thread; a Linux guest with paravirtual steal-time
//! accounting (`CONFIG_PARAVIRT_TIME_ACCOUNTING`) leaves both out of a
//! thread's CPU time. CPU time still follows the speed the host runs the
//! vCPU at, which changed by up to 2x from one second to the next on the
//! host the benchmark was written on; [`SpeedGauge`] measures that speed
//! with a fixed loop of this package's own code and divides it out, on the
//! one CPU [`pin_to_current_cpu`] keeps the process on. Only 64-bit Linux
//! is supported.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Barrier;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// A CPU-time clock (a POSIX `clockid_t`).
#[derive(Debug, Clone, Copy)]
pub struct CpuClock(i32);

impl CpuClock {
    /// The calling thread's CPU time.
    pub fn this_thread() -> Self {
        Self(CLOCK_THREAD_CPUTIME_ID)
    }

    /// The CPU time of every thread of the process, exited ones included.
    pub fn process() -> Self {
        Self(CLOCK_PROCESS_CPUTIME_ID)
    }

    /// Another thread's CPU time, by kernel thread id: the kernel's
    /// `MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)`. Unlike the process
    /// clock, reading it also counts the time the thread has run since
    /// the last scheduler tick when it is running on another CPU.
    fn of_thread(tid: i32) -> Self {
        Self(((!tid) << 3) | 6)
    }

    /// Seconds on this clock, or `None` if the clock is gone (a thread
    /// that has exited).
    pub fn seconds(self) -> Option<f64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the call.
        let rc = unsafe { clock_gettime(self.0, &mut ts) };
        (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }
}

/// Run `f`, which starts threads named `name`, and return its result and
/// the CPU clock of the one thread of that name it started. A new thread
/// names itself once it runs, so this waits up to a few seconds for it.
pub fn started_thread<T>(name: &str, f: impl FnOnce() -> T) -> (T, CpuClock) {
    let before = threads_named(name);
    let out = f();
    let waited = std::time::Instant::now();
    loop {
        let new: Vec<i32> = threads_named(name).difference(&before).copied().collect();
        match new[..] {
            [tid] => return (out, CpuClock::of_thread(tid)),
            [] if waited.elapsed().as_secs() < 5 => {
                std::thread::sleep(std::time::Duration::from_millis(1))
            }
            _ => panic!("expected one new thread named {name}, found {new:?}"),
        }
    }
}

/// Kernel thread ids of this process's threads called `name`.
fn threads_named(name: &str) -> BTreeSet<i32> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task is readable");
    tasks
        .filter_map(|e| {
            let e = e.ok()?;
            let comm = std::fs::read_to_string(e.path().join("comm")).ok()?;
            let tid = e.file_name().to_str()?.parse().ok()?;
            (comm.trim_end() == name).then_some(tid)
        })
        .collect()
}

/// Pin the process to the CPU it is running on. Call it before starting
/// any thread: threads inherit the mask, so every thread of the benchmark
/// then runs on the CPU whose speed [`SpeedGauge`] measures. The serve
/// workloads lose nothing by it (their client waits while the worker
/// runs); set-up's parallel training runs on one CPU, which its CPU time
/// does not see. Returns the CPU, or `None` if the kernel refused.
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only returns a value.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16]; // a glibc `cpu_set_t`: 1024 bits
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, fully initialised buffer of exactly the
    // size passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// CPU seconds one reference pass takes at the reference speed: its
/// median on the 2-vCPU KVM guest (Intel Xeon) the benchmark was written
/// on. Rescaled times are CPU times on that machine in a typical phase.
const REFERENCE_PASS_S: f64 = 0.0016;

/// Wall time between the passes [`SpeedGauge::alongside`] runs.
const ALONGSIDE_EVERY: Duration = Duration::from_millis(25);

/// Rescales CPU times to the reference speed. A reference pass runs
/// before the first measured operation and then between operations, every
/// fold or every few dozen milliseconds of launches, or on a second thread
/// while a set-up runs ([`SpeedGauge::alongside`]); times measured between
/// two passes are multiplied by `REFERENCE_PASS_S` over the mean of those
/// two passes' CPU times.
///
/// The pass is one small MLP layer over and over: `f64` dot products,
/// `tanh`, `exp` and fresh small allocations. When the host slowed the
/// vCPU, it slowed this loop, fitting the MLP, and running sgemm and
/// monte_carlo_pi on the VM alike: over 5-second windows of a 4-minute
/// run, the logarithms of their CPU times correlated at 0.88-0.96, while
/// integer-only and memory-bound loops barely moved. It is this package's
/// code: a faster library leaves it unchanged.
pub struct SpeedGauge {
    /// CPU seconds of every pass so far.
    passes: Vec<f64>,
}

impl SpeedGauge {
    /// Start gauging with one reference pass.
    pub fn start() -> Self {
        let mut gauge = Self { passes: Vec::new() };
        gauge.pass_s();
        gauge
    }

    /// Run a pass that starts a new bracket, after work that is not
    /// rescaled.
    pub fn restart(&mut self) {
        self.pass_s();
    }

    /// Run a reference pass and return the factor for CPU times measured
    /// since the previous one.
    pub fn scale(&mut self) -> f64 {
        let before = self.passes[self.passes.len() - 1];
        let now = self.pass_s();
        REFERENCE_PASS_S * 2.0 / (before + now)
    }

    /// The passes' median CPU time over the reference one: how much
    /// slower than the reference this host ran.
    pub fn slowdown(&self) -> f64 {
        crate::common::percentile(&self.passes, 0.5) / REFERENCE_PASS_S
    }

    /// Run `f` while a second thread runs a reference pass every
    /// `ALONGSIDE_EVERY` of wall time, and return `f`'s result with the CPU
    /// time every other thread of the process used meanwhile, rescaled
    /// interval by interval between those passes.
    ///
    /// For work that cannot be split between passes, such as a whole
    /// set-up (about a second of library calls): two passes around it
    /// missed how the host's speed changed inside it, and rescaled set-ups
    /// spread as much as unscaled ones. The thread shares the pinned CPU,
    /// so its passes measure the CPU `f` runs on; its own CPU time is left
    /// out.
    pub fn alongside<T>(f: impl FnOnce() -> T) -> (T, f64) {
        let ready = &Barrier::new(2);
        // Dropping `done` wakes the gauge thread at once for its last pass.
        let (done, finished) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let gauge = s.spawn(move || {
                let me = CpuClock::this_thread();
                let process = CpuClock::process();
                let others = || {
                    let read = |c: CpuClock| c.seconds().expect("process and own CPU clocks");
                    read(process) - read(me)
                };
                let mut gauge = SpeedGauge::start();
                let mut from = others();
                ready.wait();
                let mut scaled = 0.0;
                loop {
                    let waited = finished.recv_timeout(ALONGSIDE_EVERY);
                    let used = others() - from;
                    scaled += used * gauge.scale();
                    from = others();
                    if waited != Err(RecvTimeoutError::Timeout) {
                        return scaled;
                    }
                }
            });
            ready.wait();
            let out = f();
            drop(done);
            (out, gauge.join().expect("the gauge thread does not panic"))
        })
    }

    /// CPU seconds of one reference pass on this thread.
    fn pass_s(&mut self) -> f64 {
        let clock = CpuClock::this_thread();
        let t = clock.seconds().expect("own thread clock");
        black_box(mlp_layer(black_box(1_800)));
        let used = clock.seconds().expect("own thread clock") - t;
        self.passes.push(used);
        used
    }
}

/// A 17-input, 32-unit tanh layer and a softmax-style `exp` sum per
/// iteration, on freshly allocated vectors.
#[inline(never)]
fn mlp_layer(iters: usize) -> f64 {
    const IN: usize = 17;
    const OUT: usize = 32;
    let w: Vec<f64> = (0..IN * OUT)
        .map(|k| (k * 37 % 1000) as f64 / 1000.0 - 0.5)
        .collect();
    let mut acc = 0.0;
    for i in 0..iters {
        let x: Vec<f64> = (0..IN).map(|j| ((i + j) % 13) as f64 * 0.1).collect();
        let z: Vec<f64> = w
            .chunks_exact(IN)
            .map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum::<f64>().tanh())
            .collect();
        let m = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        acc += z.iter().map(|v| (v - m).exp()).sum::<f64>();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run until this thread has used `seconds` of CPU time in all.
    fn spin_until(seconds: f64) {
        while CpuClock::this_thread().seconds().expect("own clock") < seconds {
            black_box(0);
        }
    }

    #[test]
    fn sleeping_uses_no_cpu_time() {
        let me = CpuClock::this_thread();
        let t0 = me.seconds().expect("own clock");
        std::thread::sleep(std::time::Duration::from_millis(50));
        let used = me.seconds().expect("own clock") - t0;
        assert!(used < 0.01, "{used}");
    }

    #[test]
    fn gauge_factors_are_positive() {
        let mut gauge = SpeedGauge::start();
        let factor = gauge.scale();
        assert!(factor.is_finite() && factor > 0.0, "{factor}");
        assert!(gauge.slowdown() > 0.0);
    }

    #[test]
    fn alongside_returns_the_result_and_a_cpu_time() {
        // Other tests run in this process meanwhile, so the time counts
        // their CPU too; only its sign is certain.
        let (out, used) = SpeedGauge::alongside(|| {
            spin_until(0.05);
            7
        });
        assert_eq!(out, 7);
        assert!(used.is_finite() && used > 0.0, "{used}");
    }

    #[test]
    fn another_threads_clock_is_found_and_read() {
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let (handle, clock) = started_thread("clock-test", || {
            std::thread::Builder::new()
                .name("clock-test".into())
                .spawn(move || {
                    spin_until(0.02);
                    done_tx.send(()).expect("test waits");
                    stop_rx.recv().ok();
                })
                .expect("spawn")
        });
        done_rx.recv().expect("thread spins");
        let used = clock.seconds().expect("thread is alive");
        assert!((0.02..0.5).contains(&used), "{used}");
        stop_tx.send(()).expect("thread waits");
        handle.join().expect("thread ends");
        assert!(CpuClock::process().seconds().expect("process clock") >= used);
    }
}
