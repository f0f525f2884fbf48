//! # hetpart-bench
//!
//! The timing harness shared by the two perf recorders under `benches/`:
//! `vm_batch` (lane VM and pruned training sweep against their scalar and
//! exhaustive baselines) and `serve` (the deployment service against the
//! synchronous `run_auto` path). Each recorder times its columns with
//! these helpers, gates `target_met` on named floors, and writes
//! `reports/BENCH_*.json`.
//!
//! The paper's tables (Figure 1, P1, P2, E1–E5) come from
//! `examples/full_report.rs`; per-layer timings of the pipeline come from
//! the repo benchmark's `--trace 1`.
//!
//! Every ratio a recorder gates on compares configurations timed
//! interleaved, one run of each per round with the minimum kept over
//! rounds ([`interleaved_best`]): slow frequency and load drift then
//! hits all sides of the ratio alike instead of whichever block ran
//! during it (Mytkowicz et al., *Producing wrong data without doing
//! anything obviously wrong!*, ASPLOS 2009).

use std::fs;
use std::time::Instant;

use serde::Serialize;

/// Minimum wall-clock seconds of `reps` timed runs of `f`, after one
/// untimed warm-up run.
pub fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Time `N` configurations round-robin: each round calls `run(0)`,
/// `run(1)`, …, `run(N - 1)` in order. Round 0 is an untimed warm-up;
/// the next `rounds` rounds are timed. Returns each configuration's
/// minimum wall-clock seconds.
pub fn interleaved_best<const N: usize, F: FnMut(usize)>(rounds: usize, mut run: F) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for round in 0..=rounds {
        for (config, best) in best.iter_mut().enumerate() {
            let t = Instant::now();
            run(config);
            if round > 0 {
                *best = best.min(t.elapsed().as_secs_f64());
            }
        }
    }
    best
}

/// Geometric mean of `values`.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (log_sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(sum, n), v| (sum + v.ln(), n + 1));
    (log_sum / n as f64).exp()
}

/// Check `(name, measured, floor)` triples: a floor holds when
/// `measured >= floor`. Prints every miss with its measured value and
/// returns whether all floors hold.
pub fn check_floors(floors: &[(&str, f64, f64)]) -> bool {
    let mut met = true;
    for &(name, measured, floor) in floors {
        let holds = measured >= floor;
        if !holds {
            println!("floor MISSED: {name} measured {measured:.3}, floor {floor}");
            met = false;
        }
    }
    met
}

/// Write `report` as pretty JSON to `reports/<file>` at the repository
/// root.
pub fn write_report(file: &str, report: &impl Serialize) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../reports");
    fs::create_dir_all(dir).expect("create reports dir");
    let path = format!("{dir}/{file}");
    let json = serde_json::to_string_pretty(report).expect("serialize report");
    fs::write(&path, json).expect("write report");
    println!("\nwrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn interleaved_best_runs_configs_in_order_and_skips_the_warm_up() {
        let pause = Duration::from_millis(2);
        let mut calls = Vec::new();
        let best: [f64; 3] = interleaved_best(2, |config| {
            // Only the warm-up round (the first three calls) is instant,
            // so a recorded warm-up would pull a minimum below `pause`.
            if calls.len() >= 3 {
                std::thread::sleep(pause);
            }
            calls.push(config);
        });
        assert_eq!(calls, [0, 1, 2, 0, 1, 2, 0, 1, 2]);
        for b in best {
            assert!(b >= pause.as_secs_f64(), "warm-up round was recorded: {b}");
        }
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([1.0, 10.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean([3.5]) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn check_floors_fails_on_any_miss_and_holds_at_equality() {
        assert!(check_floors(&[("a", 3.0, 3.0), ("b", 0.95, 0.95)]));
        assert!(!check_floors(&[("a", 3.0, 3.0), ("b", 0.94, 0.95)]));
        assert!(!check_floors(&[("a", 2.99, 3.0), ("b", 1.0, 0.95)]));
        assert!(!check_floors(&[("a", f64::NAN, 0.0)]));
        assert!(check_floors(&[]));
    }
}
