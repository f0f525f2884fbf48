//! # The hetpart end-to-end benchmark
//!
//! One run measures one workload and prints every metric by name, unit
//! and value, one per line, then a JSON object as the last line:
//!
//! ```text
//! cargo run --quiet --release --locked --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_hot --seed 42 --seconds 20 --trace 0
//! ```
//!
//! `--seed` (default 42, the MLP's library default seed) makes the inputs;
//! `--seconds` (default 20) is how long the measured phase runs;
//! `--trace 1` repeats the same work with spans around each layer's calls
//! and prints the per-layer metrics instead of the end-to-end ones
//! (`--trace-out PATH` also writes the spans as JSONL); `--smoke` runs a
//! three-program, one-round version, which the package's tests use
//! (`cargo test --manifest-path benchmark/Cargo.toml`). Each workload runs
//! in its own process; `BENCHMARK.json` at the repository root names the
//! command, the workloads and every metric with its bound.
//!
//! ## Workloads
//!
//! * `offline_paper` — the paper's offline phase under
//!   `HarnessConfig::paper()`: set-up collects mc1's and mc2's training
//!   databases (23 programs x 6 sizes x 66 partitions) and fits their
//!   predictors; the measured operation is one leave-one-program-out fold,
//!   and the first pass over both machines' 46 folds gives Figure 1. The
//!   seed replaces `MlpConfig::seed`. Time goes to `ml` fits, `suite`
//!   input generation, the `runtime` probe and the sweep; the serve layer
//!   is idle.
//! * `serve_hot` — the `Service` on mc2 with one worker and one
//!   closed-loop client: all 23 programs at ladder rungs 1 and 2, each key
//!   six times per round in a seeded order, after an untimed warm-up. At
//!   rung 1 mc2's oracle keeps 22 of 23 programs on the CPU; rung 2 adds
//!   GPU and split partitions. The plan cache hits every time, so time
//!   goes to `Executor::run_planned` and VM execution; probe and `ml` are
//!   idle.
//! * `serve_cold` — the same service, restarted empty every round; a round
//!   launches each program at rungs 0 and 1 once, in a seeded order. Every
//!   launch misses the cache and the inputs are small, so planning weighs
//!   most: probe (scratch clone plus sampled VM), inference and access
//!   analysis. A cache gain should leave it unchanged; a probe gain shows
//!   only here.
//! * `serve_chaos` — `serve_hot` traffic while a seeded `FaultPlan` makes
//!   device 1 fail 25% of its launches and kills device 2 at its first:
//!   the same `run_planned` path through retries, pristine-buffer
//!   restores, re-plans and breakers. A healthy-path gain that costs the
//!   degraded path shows here.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! | metric | unit | better | bound | meaning |
//! |---|---|---|---|---|
//! | `setup_s` | s | lower | 0.25 | CPU time of one set-up, all threads; median of 3 set-ups in the run |
//! | `ops_per_cpu_s` | 1/s | higher | 0.25 | operations per second of CPU time |
//! | `op_cpu_ms_p50` | ms | lower | 0.25 | median CPU time of an operation |
//! | `op_cpu_ms_p99` | ms | lower | 0.25 | 99th-percentile CPU time of an operation |
//! | `speedup_over_cpu` | x | higher | 0.15 | geomean simulated speedup of the chosen partitions over CPU-only |
//! | `speedup_over_gpu` | x | higher | 0.15 | the same over GPU-only |
//! | `oracle_frac` | ratio | higher | 0.15 | geomean share of the oracle partition's performance reached |
//!
//! An operation is a launch or a LOPO fold. A launch's CPU time is what
//! the client thread and the service's worker thread spend between submit
//! and `Ticket::wait` return; a fold runs on one thread. All times are CPU
//! time, not wall time, rescaled to a reference CPU speed by a fixed loop
//! run between batches of operations, or beside a set-up on a second
//! thread (see "Host noise" and `clock`); each run prints how fast the
//! host ran that loop. Every key — a (program, size) launch, or one
//! machine's folds, which all fit the same number of records — runs many
//! times per run, and its cost is the lower quartile of its samples; the
//! timing metrics are the 50th and 99th
//! percentiles of those key costs over the operations run and the
//! reciprocal of their mean. The keys are balanced, so the 99th
//! percentile is the slowest key's cost: mc2's `monte_carlo_pi` on the
//! serve workloads, the slower machine's folds offline. Each run prints
//! its sample counts.
//!
//! Decision quality is priced by the training database's full sweep of
//! each (program, size), as in the paper's Figure 1: on `offline_paper`
//! over the 276 LOPO predictions of the first pass (at the default seed
//! 1.1487x over CPU, 3.6754x over GPU, 0.8500 of the oracle; per machine
//! it prints the Figure-1 row and whether it matches the recorded one), on
//! the serve workloads over every timed launch's served partition. It
//! repeats exactly at a fixed seed on all but `serve_chaos`, whose breaker
//! cooldown runs on the wall clock.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! Spans are recorded from this package's files around public calls (see
//! `trace`): the traced training phase repeats `collect_training_db`'s
//! steps and must produce the same database; the evaluation, always run
//! fold by fold, must produce `lopo_outcomes`' predictions; every served
//! launch is replayed outside the service (probe, `predict`,
//! `plan_execution` on a miss, then `execute_planned`) and must produce
//! the served outputs. Times are mean self time per call. The layer and
//! the end-to-end metric each should move:
//!
//! * `inspire.compile_ms` -> `setup_s`; `inspire.vm_items` (work-items per
//!   executed launch) -> serve throughput and tail.
//! * `suite.instance_ms` -> `setup_s`.
//! * `runtime.features_ms`, `runtime.probe_bytes_cloned` -> `serve_cold`
//!   latency and `setup_s`; `runtime.sweep_ms`,
//!   `runtime.partitions_priced` (per swept launch) -> `setup_s`;
//!   `runtime.plan_execution_ms` -> `serve_cold` latency;
//!   `runtime.run_planned_ms`, `runtime.transfer_bytes` -> serve hot and
//!   chaos throughput. `oclsim` pricing sits inside the sweep and
//!   planned-execution spans.
//! * `ml.fit_ms` -> `offline_paper` throughput and `setup_s`;
//!   `ml.predict_us` -> `serve_cold` latency; `ml.accuracy` -> quality.
//! * `core.serve.{queue_wait_ms,service_ms,plan_ms}` (medians from
//!   `ServedLaunch`) -> serve latency; `core.serve.hit_rate` is a sanity
//!   check (1 on hot, 0 on cold); `core.serve.{retries,replans}_per_launch`
//!   -> `serve_chaos` tail.
//! * `trace.coverage` (share of the traced run under top-level spans),
//!   `trace.overhead_frac` (span count times the measured cost of one
//!   span, over the traced wall time) and `process.peak_rss_mb`
//!   (`VmHWM`).
//!
//! ## Host noise
//!
//! The benchmark was written on a 2-vCPU KVM guest (Intel Xeon, 2 MiB L2
//! per core, 300 MiB shared L3) of a shared host. Two threads running
//! identical VM work there took 34-135 ms per repetition, and a 2-worker,
//! 2-client service reached 900 launches/s in one run and 1600 in the
//! next; hence one worker and one client. Wall-clock latencies did not
//! repeat across runs: in two sets of ten runs on such a host, a run's
//! median latency spread by 40-70% of the median (interquartile range),
//! as the host descheduled the vCPU or ran it slower for seconds at a
//! time.
//!
//! So every time is CPU time. The kernel leaves time stolen by the
//! hypervisor out of it, and time spent waiting behind another thread.
//! CPU time alone was not enough: ten runs spread by 6-14%, and by 11-40%
//! when the host was busiest, because it still follows the speed the host
//! gives the vCPU, which changed by up to 2x from one LOPO fold to the
//! next. Fitting the MLP and running sgemm or monte_carlo_pi on the VM
//! slowed and sped up together with a small MLP-layer loop (floating
//! point, `tanh`, `exp`, small allocations), while integer-only and
//! memory-bound loops barely moved. That loop is the reference pass of
//! `clock::SpeedGauge`. The process is pinned to one CPU, so the pass
//! measures the CPU every thread runs on (the client waits while the
//! worker runs, so the serve workloads lose nothing). A pass runs between
//! folds and after every 25 ms of launch CPU time; each operation is
//! rescaled by the passes on either side of it, and each key's cost is
//! the lower quartile of its rescaled samples. A set-up is about a second
//! of library calls with no room for a pass between them, and two passes
//! around it missed how the speed changed inside it: rescaled so, set-ups
//! spread by 10-25%, as much as unscaled ones. So while a set-up runs, a
//! second thread on the same CPU runs a pass every 25 ms of wall time
//! (`SpeedGauge::alongside`), and the set-up's CPU time is rescaled
//! between those passes. Set-up runs three times per run; `setup_s` is
//! the median.
//!
//! Measured so on that guest in two sets of ten seeds while the host was
//! busy (the pass took 0.98-1.91x its reference time), the timing metrics
//! spread by 1.9-8.0% of their median (interquartile range) and the two
//! sets' medians agreed within 5.7%. `setup_s` spread by 5.8-13.9%, and
//! its medians moved by up to 16% between the sets, which ran 20 minutes
//! apart; hence its bound is the largest allowed. Quality varies only with
//! the seed: 2-4% on `offline_paper` (the MLP initialisation), under 0.1%
//! elsewhere.
//!
//! ## Correctness
//!
//! Every served output is compared with the suite's native reference.
//! mandelbrot's reference disagrees with the VM at every n >= 32 (the
//! first mismatch is `out[488]` at n = 32: expected 53, got 54), under
//! every partition: a defect of `hetpart-suite`/`hetpart-inspire`, not of
//! the partitioning system. Its launches are kept (1 in 23 on `serve_hot`
//! and `serve_chaos`, 1 in 46 on `serve_cold`) and checked bit for bit
//! against a whole-range VM run instead; every run prints the per-key
//! mismatch count and first index, and how many launches hit such keys.
//! `offline_paper` checks that set-ups and passes repeat exactly and that
//! no prediction beats the oracle. A failure sets `"correct": false`.
//!
//! The environment variables that change the measured program
//! (`INSPIRE_*` compiler and VM switches, `SERVE_FAULTS`, `HETPART_FAST`)
//! must be unset; each run prints the oracle and machine fingerprints so
//! two runs can be shown to measure the same configuration.

mod clock;
mod common;
mod offline;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use common::{Opts, Outcome};
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["offline_paper", "serve_hot", "serve_cold", "serve_chaos"];

/// End-to-end metrics and their units, as declared in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_cpu_s", "1/s"),
    ("op_cpu_ms_p50", "ms"),
    ("op_cpu_ms_p99", "ms"),
    ("speedup_over_cpu", "x"),
    ("speedup_over_gpu", "x"),
    ("oracle_frac", "ratio"),
];

/// Per-layer metrics and their units, as declared in `BENCHMARK.json`.
/// A layer a workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 22] = [
    ("inspire.compile_ms", "ms"),
    ("inspire.vm_items", "count"),
    ("suite.instance_ms", "ms"),
    ("runtime.features_ms", "ms"),
    ("runtime.probe_bytes_cloned", "bytes"),
    ("runtime.sweep_ms", "ms"),
    ("runtime.partitions_priced", "count"),
    ("runtime.plan_execution_ms", "ms"),
    ("runtime.run_planned_ms", "ms"),
    ("runtime.transfer_bytes", "bytes"),
    ("ml.fit_ms", "ms"),
    ("ml.predict_us", "us"),
    ("ml.accuracy", "ratio"),
    ("core.serve.queue_wait_ms", "ms"),
    ("core.serve.service_ms", "ms"),
    ("core.serve.plan_ms", "ms"),
    ("core.serve.hit_rate", "ratio"),
    ("core.serve.retries_per_launch", "count"),
    ("core.serve.replans_per_launch", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("process.peak_rss_mb", "MB"),
];

/// Variables that silently change what is measured: compiler and VM
/// switches, the fault-injection escape hatch (`SERVE_FAULTS=0` disarms
/// `serve_chaos`) and the examples' reduced configuration.
const FORBIDDEN_ENV: [&str; 9] = [
    "INSPIRE_OPT",
    "INSPIRE_REGALLOC",
    "INSPIRE_FUSE",
    "INSPIRE_BOUNDS_ELIDE",
    "INSPIRE_NO_RECONVERGE",
    "INSPIRE_VERIFY",
    "INSPIRE_DUMP_IR",
    "SERVE_FAULTS",
    "HETPART_FAST",
];

struct Args {
    workload: String,
    opts: Opts,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: hetpart_ml::MlpConfig::default().seed,
        seconds: 20.0,
        smoke: false,
    };
    let mut trace = false;
    let mut trace_out = None;
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err(bad(&"must be a positive number of seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        opts,
        trace: trace || trace_out.is_some(),
        trace_out,
    })
}

/// Run one workload; the returned metrics are the end-to-end set, or the
/// per-layer set when traced.
fn run(workload: &str, opts: &Opts, tracer: &Tracer) -> Outcome {
    let cx = tracer.root();
    let mut out = match workload {
        "offline_paper" => offline::run(cx, opts),
        "serve_hot" => serve::run(cx, opts, serve::Traffic::Hot),
        "serve_cold" => serve::run(cx, opts, serve::Traffic::Cold),
        "serve_chaos" => serve::run(cx, opts, serve::Traffic::Chaos),
        other => unreachable!("workload {other} was validated"),
    };
    out.metrics
        .insert("process.peak_rss_mb", common::peak_rss_mb());
    if cx.traced() {
        layer_metrics(tracer, &mut out.metrics);
    }
    out
}

/// Per-layer metrics derived from the spans and counters.
fn layer_metrics(tracer: &Tracer, m: &mut BTreeMap<&'static str, f64>) {
    let times = tracer.self_times();
    let counters = tracer.counters();
    let calls = |name: &str| times.get(name).map_or(0, |t| t.1) as f64;
    let mean = |name: &str, scale: f64| {
        times
            .get(name)
            .map_or(0.0, |&(secs, n)| secs * scale / n.max(1) as f64)
    };
    let per = |counter: &str, n: f64| counters.get(counter).map_or(0.0, |c| c / n.max(1.0));
    let executed = calls("runtime.run_planned");
    let swept = counters
        .get("runtime.sweep_launches")
        .copied()
        .unwrap_or(0.0);
    m.insert("inspire.compile_ms", mean("inspire.compile", 1e3));
    m.insert("inspire.vm_items", per("inspire.vm_items", executed));
    m.insert("suite.instance_ms", mean("suite.instance", 1e3));
    m.insert("runtime.features_ms", mean("runtime.features", 1e3));
    m.insert(
        "runtime.probe_bytes_cloned",
        per("runtime.probe_bytes_cloned", calls("runtime.features")),
    );
    m.insert(
        "runtime.sweep_ms",
        times
            .get("runtime.sweep")
            .map_or(0.0, |t| t.0 * 1e3 / swept.max(1.0)),
    );
    m.insert(
        "runtime.partitions_priced",
        per("runtime.partitions_priced", swept),
    );
    m.insert(
        "runtime.plan_execution_ms",
        mean("runtime.plan_execution", 1e3),
    );
    m.insert("runtime.run_planned_ms", mean("runtime.run_planned", 1e3));
    m.insert(
        "runtime.transfer_bytes",
        per("runtime.transfer_bytes", executed),
    );
    m.insert("ml.fit_ms", mean("ml.fit", 1e3));
    m.insert("ml.predict_us", mean("ml.predict", 1e6));
    m.insert("trace.coverage", tracer.coverage());
    m.insert("trace.overhead_frac", tracer.overhead_frac());
    for (name, (secs, n)) in &times {
        println!("span {name}: {n} calls, {:.3} s self time", secs);
    }
}

/// Print each metric on its own line and return the result object (the
/// run's last line): every metric of the table that matches the run.
fn report(out: &Outcome, traced: bool) -> String {
    let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => panic!("workload did not report end-to-end metric {name}"),
        };
        println!("metric {name} = {value} {unit}");
        let value = if value.is_finite() { value } else { 0.0 };
        json.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        json.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("benchmark: environment variable {var} is set; it changes the measured program, unset it");
        return ExitCode::from(2);
    }
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let pinned = clock::pin_to_current_cpu().map_or("not pinned".to_string(), |cpu| {
        format!("pinned to CPU {cpu}")
    });
    println!(
        "workload {} seed {} seconds {} trace {} smoke {} ({cpus} CPUs available, {pinned})",
        args.workload,
        args.opts.seed,
        args.opts.seconds,
        u8::from(args.trace),
        args.opts.smoke,
    );
    let tracer = Tracer::new(args.trace);
    let out = run(&args.workload, &args.opts, &tracer);
    if let Some(path) = &args.trace_out {
        if let Err(e) = tracer.write_jsonl(path) {
            eprintln!("benchmark: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report(&out, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn smoke(workload: &str, seed: u64, traced: bool) -> (Outcome, Value) {
        let opts = Opts {
            seed,
            seconds: 1.0,
            smoke: true,
        };
        let out = run(workload, &opts, &Tracer::new(traced));
        let json: Value = serde_json::from_str(&report(&out, traced)).expect("result is JSON");
        assert_eq!(
            json.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}: {out:?}"
        );
        (out, json)
    }

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        let field = |m: &Value, f: &str| match m.get(f) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key}: {f} is {other:?}"),
        };
        v.get(key)
            .and_then(Value::as_seq)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    m.get("unit").map_or(String::new(), |_| field(m, "unit")),
                )
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let decl: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&decl, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&decl, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names(&decl, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_workload_emits_every_metric_and_repeats_its_quality() {
        for w in WORKLOADS {
            for traced in [false, true] {
                let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
                let (out, json) = smoke(w, 7, traced);
                let metrics = json.get("metrics").expect("metrics");
                for (name, unit) in table {
                    let m = metrics
                        .get(name)
                        .unwrap_or_else(|| panic!("{w}: {name} missing"));
                    assert_eq!(m.get("unit"), Some(&Value::Str(unit.to_string())));
                }
                if traced {
                    // The traced run repeats the training phase, the
                    // evaluation and every launch from public calls and
                    // fails if any of them disagrees with the library.
                    assert_eq!(out.failed, 0, "{w}");
                    assert!(out.metrics["trace.coverage"] > 0.5, "{w}");
                }
            }
            let quality = |o: &Outcome| {
                ["speedup_over_cpu", "speedup_over_gpu", "oracle_frac"]
                    .map(|m| o.metrics[m].to_bits())
            };
            if w != "serve_chaos" {
                assert_eq!(
                    quality(&smoke(w, 7, false).0),
                    quality(&smoke(w, 7, false).0),
                    "{w}"
                );
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |a: &[&str]| parse_args(a.iter().map(|s| s.to_string()));
        let ok = parse(&[
            "--workload",
            "serve_hot",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert!(ok.trace && ok.opts.seed == 3 && ok.opts.seconds == 2.0);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "serve_hot", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "serve_hot", "--seconds", "0"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err());
    }
}
