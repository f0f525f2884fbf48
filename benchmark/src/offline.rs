//! `offline_paper`: the paper's offline phase and its Figure 1.
//!
//! Set-up is the training phase under `HarnessConfig::paper()`: collect
//! the training database of mc1 and mc2 (23 programs x 6 sizes x 66
//! partitions, full sweep) and fit each machine's predictor. The measured
//! operation is one leave-one-program-out fold (fit on 22 programs,
//! predict the held-out one); a round is one machine's 23 folds
//! (`eval::lopo_outcomes`), rounds alternate between the machines, and
//! whole passes repeat until the run's time is up. Decision quality comes
//! from the first pass and is the Figure-1 number.

use std::time::Instant;

use hetpart_core::eval::{lopo_outcomes, PredictionOutcome};
use hetpart_core::predictor::log_compress;
use hetpart_core::{FeatureSet, TrainingDb};
use hetpart_ml::{MlpConfig, ModelConfig, Pipeline};

use crate::clock::{CpuClock, SpeedGauge};
use crate::common::{
    check_traced_training, harness_config, print_fingerprints, print_host_speed, repeated_setup,
    suite, train, Latencies, Opts, Outcome, Quality,
};
use crate::trace::Cx;

/// Per-machine Figure-1 numbers (over CPU, over GPU, oracle fraction,
/// accuracy) this repository produces at the default seed, to four
/// decimals. A difference is printed, not failed: a better predictor is
/// allowed to move them.
const FIGURE1_AT_DEFAULT_SEED: [(&str, [f64; 4]); 2] = [
    ("mc1", [1.0885, 4.8401, 0.8307, 0.7464]),
    ("mc2", [1.2121, 2.7911, 0.8698, 0.7174]),
];

pub fn run(cx: Cx, opts: &Opts) -> Outcome {
    let mut cfg = harness_config(opts.smoke);
    // The seed picks the MLP's initialisation; the default seed is the
    // library's own, which gives the repository's Figure 1.
    let default_seed = MlpConfig::default().seed;
    cfg.model = ModelConfig::Mlp(MlpConfig {
        seed: opts.seed,
        ..MlpConfig::default()
    });
    print_fingerprints(&cfg, &cfg.machines.iter().collect::<Vec<_>>());
    let benches = suite(opts.smoke);
    let mut out = Outcome::default();

    let (setup_s, trained, deterministic) = repeated_setup(
        || {
            cx.span("setup", |cx| {
                cfg.machines
                    .iter()
                    .map(|m| train(cx, m, &benches, &cfg))
                    .collect::<Vec<_>>()
            })
        },
        |a, b| {
            a.iter()
                .zip(b)
                .all(|(x, y)| x.db == y.db && x.predictor == y.predictor)
        },
    );
    if !deterministic {
        println!("FAIL: repeated training phases produced different databases or predictors");
        out.failed += 1;
    }
    for (m, t) in cfg.machines.iter().zip(&trained) {
        out.failed += check_traced_training(cx, m, &benches, &cfg, &t.db);
    }

    // A round is one machine's evaluation; rounds alternate between the
    // machines and stop after a whole pass. One machine's folds all fit
    // 22 programs' records for the same number of epochs, so they share a
    // latency key.
    let start = Instant::now();
    let mut gauge = SpeedGauge::start();
    let mut latencies = Latencies::default();
    let mut first: Vec<Vec<PredictionOutcome>> = Vec::new();
    for round in 0.. {
        let t = &trained[round % trained.len()];
        let mut fold_times = Vec::new();
        let outcomes = cx.span("round", |cx| {
            lopo(cx, &t.db, &cfg.model, &mut gauge, &mut fold_times)
        });
        for secs in fold_times {
            latencies.push(round % trained.len(), secs);
        }
        out.attempted += outcomes.len() as u64;
        if round < trained.len() {
            out.failed += invariant_violations(&outcomes);
            if cx.traced() {
                cx.span("verify", |_| {
                    if lopo_outcomes(&t.db, &cfg.model, FeatureSet::Both) != outcomes {
                        println!(
                            "FAIL: traced evaluation of {} differs from lopo_outcomes",
                            t.db.machine
                        );
                        out.failed += 1;
                    }
                });
            }
            first.push(outcomes);
        } else if first[round % trained.len()] != outcomes {
            println!(
                "FAIL: a repeated evaluation of {} changed its predictions",
                t.db.machine
            );
            out.failed += outcomes.len() as u64;
        }
        let pass_done = (round + 1) % trained.len() == 0;
        if pass_done && (opts.smoke || start.elapsed().as_secs_f64() >= opts.seconds) {
            break;
        }
    }
    print_host_speed(&gauge);

    let compare_with_recorded = opts.seed == default_seed && !opts.smoke;
    let mut overall = Quality::default();
    for (t, outcomes) in trained.iter().zip(&first) {
        let name = &t.db.machine;
        let mut q = Quality::default();
        for o in outcomes {
            q.add_outcome(o);
            overall.add_outcome(o);
        }
        let s = q.summary();
        println!(
            "figure1 {name}: over_cpu {:.4} over_gpu {:.4} oracle_frac {:.4} accuracy {:.4} ({} records)",
            s[0],
            s[1],
            s[2],
            s[3],
            q.len()
        );
        let recorded = FIGURE1_AT_DEFAULT_SEED.iter().find(|(m, _)| m == name);
        if let Some((_, reference)) = recorded.filter(|_| compare_with_recorded) {
            let same = s.iter().zip(reference).all(|(v, r)| (v - r).abs() < 6e-5);
            println!(
                "figure1 {name}: {} the numbers recorded for the default seed {reference:?}",
                if same { "matches" } else { "DIFFERS from" }
            );
        }
    }
    overall.record_into(&mut out.metrics);
    out.metrics.insert("setup_s", setup_s);
    latencies.record_into("leave-one-program-out folds", &mut out.metrics);
    out
}

/// One machine's leave-one-program-out evaluation: `eval::lopo_outcomes`
/// unrolled fold by fold through the same public calls, so each fold's
/// CPU time (one thread), rescaled by `gauge`, goes into `fold_times` and,
/// when traced, fitting and inference get spans of their own. Traced runs
/// check the result equals the library's.
fn lopo(
    cx: Cx,
    db: &TrainingDb,
    model: &ModelConfig,
    gauge: &mut SpeedGauge,
    fold_times: &mut Vec<f64>,
) -> Vec<PredictionOutcome> {
    cx.span("core.eval.lopo", |cx| {
        let (mut data, space) = db.to_dataset(FeatureSet::Both);
        for row in &mut data.x {
            *row = log_compress(row);
        }
        let n_classes = data.n_classes();
        let mut predicted = vec![usize::MAX; data.len()];
        let cpu = || CpuClock::this_thread().seconds().expect("thread CPU clock");
        gauge.restart();
        for g in data.group_ids() {
            let t = cpu();
            let (fold, _) = data.split_by_group(g);
            let pipe = cx.span("ml.fit", |_| {
                Pipeline::fit(model, &fold.x, &fold.y, n_classes)
            });
            for (i, slot) in predicted.iter_mut().enumerate() {
                if data.groups[i] == g {
                    *slot = cx.span("ml.predict", |_| pipe.predict(&data.x[i]));
                }
            }
            let used = cpu() - t;
            fold_times.push(used * gauge.scale());
        }
        db.canonical_order()
            .into_iter()
            .map(|i| &db.records[i])
            .zip(predicted)
            .map(|(r, class)| {
                let predicted = space[class].clone();
                PredictionOutcome {
                    program: r.program.clone(),
                    size: r.size,
                    predicted_time: r
                        .sweep
                        .time_of(&predicted)
                        .expect("full sweep prices every partition"),
                    predicted,
                    oracle: r.best().partition.clone(),
                    oracle_time: r.best().time,
                    cpu_only_time: r.sweep.cpu_only_time(),
                    gpu_only_time: r.sweep.gpu_only_time(),
                }
            })
            .collect()
    })
}

/// Outcomes that break the oracle's definition: a non-positive time, or
/// an oracle slower than the prediction or either default strategy.
fn invariant_violations(outcomes: &[PredictionOutcome]) -> u64 {
    let mut bad = 0;
    for o in outcomes {
        let times = [
            o.predicted_time,
            o.oracle_time,
            o.cpu_only_time,
            o.gpu_only_time,
        ];
        let ok = times.iter().all(|t| t.is_finite() && *t > 0.0)
            && times.iter().all(|&t| o.oracle_time <= t * (1.0 + 1e-12));
        if !ok {
            println!(
                "FAIL: {} n={}: oracle invariant broken: {o:?}",
                o.program, o.size
            );
            bad += 1;
        }
    }
    bad
}
