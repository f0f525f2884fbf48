//! Harness configuration shared by training and evaluation.

use hetpart_inspire::{OptLevel, RegAlloc};
use hetpart_ml::{MlpConfig, ModelConfig};
use hetpart_oclsim::{machines, Machine};
use hetpart_runtime::SweepMode;
use hetpart_suite::Benchmark;

/// How much of each benchmark's size ladder and partition space to cover.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Target machines to evaluate (the paper uses `mc1` and `mc2`).
    pub machines: Vec<Machine>,
    /// Partition-space granularity in tenths (1 = the paper's 10% steps).
    pub step_tenths: u8,
    /// One-value sweep mode: the training oracle always prices the whole
    /// partition space. Kept because the benchmark package passes it; the
    /// coordinated `benchmark/` edit deletes it.
    pub sweep_mode: SweepMode,
    /// Work-items sampled per chunk when estimating dynamic behaviour.
    pub sample_items: usize,
    /// Problem sizes used per benchmark (evenly spaced picks from the
    /// ladder; `usize::MAX` = the full ladder).
    pub sizes_per_benchmark: usize,
    /// Bytecode optimization level used when compiling kernels. Shapes
    /// the bytecode (and therefore simulated times and oracle labels), so
    /// it participates in [`HarnessConfig::oracle_fingerprint`].
    pub opt_level: OptLevel,
    /// One-value register-allocation mode: kernels keep their codegen
    /// register files. Kept because the benchmark package passes it; the
    /// coordinated `benchmark/` edit deletes it.
    pub regalloc: RegAlloc,
    /// The prediction model.
    pub model: ModelConfig,
    /// Global seed.
    pub seed: u64,
}

impl HarnessConfig {
    /// The paper's configuration: both machines, 10% steps, full ladders,
    /// ANN model.
    pub fn paper() -> Self {
        Self {
            machines: machines::paper_machines(),
            step_tenths: 1,
            sweep_mode: SweepMode::Full,
            sample_items: 128,
            sizes_per_benchmark: usize::MAX,
            opt_level: OptLevel::Full,
            regalloc: RegAlloc::Off,
            model: ModelConfig::Mlp(MlpConfig::default()),
            seed: 0xC0FFEE,
        }
    }

    /// A reduced configuration for unit tests and smoke runs: coarser
    /// partition space, fewer sizes, smaller samples.
    pub fn quick() -> Self {
        Self {
            machines: machines::paper_machines(),
            step_tenths: 2,
            sweep_mode: SweepMode::Full,
            sample_items: 48,
            sizes_per_benchmark: 3,
            opt_level: OptLevel::Full,
            regalloc: RegAlloc::Off,
            model: ModelConfig::Mlp(MlpConfig {
                hidden: vec![16],
                epochs: 120,
                ..MlpConfig::default()
            }),
            seed: 0xC0FFEE,
        }
    }

    /// Evenly spaced picks from a benchmark's size ladder.
    pub fn select_sizes(&self, bench: &Benchmark) -> Vec<usize> {
        select_evenly(bench.sizes, self.sizes_per_benchmark)
    }

    /// The measurement-affecting subset of the config as a stable string:
    /// two (program, size) records are only comparable when these agree,
    /// so shard stores refuse to resume or merge across different
    /// fingerprints. The model, seed, machine list and size selection
    /// don't change what a given record *contains* and are excluded; the
    /// opt level is included because it shapes the compiled bytecode and
    /// through it every simulated time and oracle label.
    pub fn oracle_fingerprint(&self) -> String {
        format!(
            "step_tenths={};sample_items={};opt={}",
            self.step_tenths,
            self.sample_items,
            self.opt_level.tag()
        )
    }
}

/// Pick `k` evenly spaced elements from `ladder` (all of them if `k >=
/// len`, none if `k == 0`), always including the first and last.
pub fn select_evenly(ladder: &[usize], k: usize) -> Vec<usize> {
    let n = ladder.len();
    if k >= n {
        return ladder.to_vec();
    }
    if k == 0 {
        return Vec::new();
    }
    if k == 1 {
        return vec![ladder[n / 2]];
    }
    (0..k).map(|i| ladder[i * (n - 1) / (k - 1)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_evenly_includes_endpoints() {
        let ladder = [1, 2, 4, 8, 16, 32];
        assert_eq!(select_evenly(&ladder, 2), vec![1, 32]);
        assert_eq!(select_evenly(&ladder, 3), vec![1, 4, 32]);
        assert_eq!(select_evenly(&ladder, 6), ladder.to_vec());
        assert_eq!(select_evenly(&ladder, 99), ladder.to_vec());
        assert_eq!(select_evenly(&ladder, 1), vec![8]);
        assert_eq!(select_evenly(&ladder, 0), Vec::<usize>::new());
    }

    #[test]
    fn paper_config_matches_the_paper() {
        let c = HarnessConfig::paper();
        assert_eq!(c.machines.len(), 2);
        assert_eq!(c.machines[0].name, "mc1");
        assert_eq!(c.machines[1].name, "mc2");
        assert_eq!(c.step_tenths, 1, "10% step size");
        assert!(
            matches!(c.model, ModelConfig::Mlp(_)),
            "the paper used an ANN"
        );
    }

    #[test]
    fn quick_config_is_cheaper() {
        let q = HarnessConfig::quick();
        let p = HarnessConfig::paper();
        assert!(q.step_tenths > p.step_tenths);
        assert!(q.sample_items < p.sample_items);
        assert!(q.sizes_per_benchmark < 6);
    }
}
