//! # hetpart-suite
//!
//! The 23-program benchmark suite of the paper's evaluation, re-implemented
//! in the hetpart kernel language with deterministic input generators and
//! native Rust reference implementations for verification.
//!
//! The workloads are drawn from the same sources the paper cites — OpenCL
//! vendor example codes, Rodinia, SHOC, PolyBench-GPU, and
//! department/partner codes — and cover the axes that make task
//! partitioning non-trivial: streaming vs. compute-bound, regular vs.
//! gather/scatter access, uniform vs. divergent control flow, and
//! transfer-light vs. transfer-heavy kernels.
//!
//! ```
//! let suite = hetpart_suite::all();
//! assert_eq!(suite.len(), 23);
//! let vec_add = hetpart_suite::by_name("vec_add").unwrap();
//! vec_add.run_and_verify(1024).unwrap();
//! ```

// Every `unsafe` block states why it is sound.
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod apps;
pub mod linalg;
pub mod sparse;
pub mod stencil;
pub mod streaming;
pub mod workload;

pub use workload::{Benchmark, Instance};

/// All 23 benchmarks, in the suite's canonical order.
pub fn all() -> Vec<Benchmark> {
    vec![
        streaming::vec_add(),
        streaming::triad(),
        streaming::dot_product(),
        streaming::reduction_sum(),
        linalg::sgemm(),
        linalg::mat_transpose(),
        linalg::mvt(),
        linalg::gemver(),
        linalg::bicg(),
        linalg::syrk(),
        sparse::spmv_csr(),
        stencil::stencil2d(),
        stencil::conv2d(),
        stencil::hotspot(),
        stencil::srad(),
        stencil::pathfinder(),
        apps::kmeans(),
        apps::nearest_neighbor(),
        apps::nbody(),
        apps::md_lj(),
        apps::blackscholes(),
        apps::mandelbrot(),
        apps::monte_carlo_pi(),
    ]
}

/// Look up a benchmark by name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    all().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn suite_has_23_uniquely_named_programs() {
        let suite = all();
        assert_eq!(suite.len(), 23, "the paper evaluates 23 programs");
        let names: HashSet<&str> = suite.iter().map(|b| b.name).collect();
        assert_eq!(names.len(), 23, "names must be unique");
    }

    #[test]
    fn every_kernel_compiles() {
        for b in all() {
            let k = b.compile();
            assert!(!k.name.is_empty());
            assert!(k.bytecode.num_instrs() > 0, "{} has no code", b.name);
        }
    }

    #[test]
    fn every_benchmark_has_a_size_ladder() {
        for b in all() {
            assert!(
                b.sizes.len() >= 6,
                "{} needs >= 6 problem sizes for the size-sensitivity study",
                b.name
            );
            let mut sorted = b.sizes.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, b.sizes, "{}: sizes must be ascending", b.name);
            assert!(
                *b.sizes.last().unwrap() >= 32 * b.sizes[0],
                "{}: ladder must span >= 1.5 orders of magnitude",
                b.name
            );
        }
    }

    #[test]
    fn by_name_finds_each_benchmark() {
        for b in all() {
            assert_eq!(by_name(b.name).unwrap().name, b.name);
        }
        assert!(by_name("missing").is_none());
    }

    #[test]
    fn setup_is_deterministic() {
        for b in all().into_iter().take(4) {
            let a = b.instance(b.smallest_size());
            let c = b.instance(b.smallest_size());
            assert_eq!(a.bufs, c.bufs, "{}", b.name);
        }
    }

    #[test]
    fn origins_cover_the_cited_suites() {
        let origins: HashSet<&str> = all().iter().map(|b| b.origin).collect();
        for needed in ["Rodinia", "SHOC", "PolyBench", "vendor sample"] {
            assert!(
                origins.iter().any(|o| o.contains(needed)),
                "no benchmark from {needed}"
            );
        }
    }
}
