//! Workspace-level acceptance tests for the bytecode optimizer pipeline:
//! histogram consistency (the cost model prices blocks through their
//! stored `OpHistogram`, so a stale histogram silently corrupts every
//! simulated time) and the static-shrink target across the whole suite.

use hetpart_inspire::{compile_with_modes, OptLevel, RegAlloc};

#[test]
fn stored_histograms_equal_recomputation_for_every_suite_kernel() {
    // Every pass must leave `Block::histo` equal to what a from-scratch
    // recount of the block's instructions produces — at both levels, for
    // every block of every suite kernel.
    for bench in hetpart_suite::all() {
        for level in [OptLevel::None, OptLevel::Full] {
            let k = compile_with_modes(bench.source, level, RegAlloc::On).unwrap();
            let n_params = k.bytecode.params.len();
            for (bi, block) in k.bytecode.blocks.iter().enumerate() {
                let mut fresh = block.clone();
                fresh.recompute_histo(n_params);
                assert_eq!(
                    block.histo, fresh.histo,
                    "{} ({level:?}) bb{bi}: stored histogram drifted from the code",
                    bench.name
                );
            }
        }
    }
}

#[test]
fn optimizer_shrinks_the_suite_by_at_least_15_percent_geomean() {
    let mut log_sum = 0.0f64;
    let mut report = Vec::new();
    let benches = hetpart_suite::all();
    for bench in &benches {
        let none = compile_with_modes(bench.source, OptLevel::None, RegAlloc::On).unwrap();
        let full = compile_with_modes(bench.source, OptLevel::Full, RegAlloc::On).unwrap();
        let before = none.bytecode.num_instrs();
        let after = full.bytecode.num_instrs();
        assert!(
            after <= before,
            "{}: the optimizer grew the code: {before} -> {after}",
            bench.name
        );
        log_sum += (after as f64 / before as f64).ln();
        report.push(format!("{}: {before} -> {after}", bench.name));
    }
    let geomean_ratio = (log_sum / benches.len() as f64).exp();
    assert!(
        geomean_ratio <= 0.85,
        "geomean optimized/unoptimized static size is {geomean_ratio:.3}, \
         need <= 0.85 (>= 15% reduction):\n{}",
        report.join("\n")
    );
}
