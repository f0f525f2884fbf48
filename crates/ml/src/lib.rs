//! # hetpart-ml
//!
//! From-scratch machine learning for the task-partitioning predictor: the
//! paper's ANN plus standard comparators (decision tree, random forest,
//! k-NN, linear SVM), feature scaling, and the cross-validation schemes
//! used by the evaluation — including leave-one-program-out, which is the
//! paper's deployment scenario (predict for a program the model has never
//! seen).
//!
//! Everything is deterministic for fixed seeds and serializable with
//! serde, so trained predictors can be persisted and reloaded.
//!
//! ## Example
//!
//! ```
//! use hetpart_ml::{Dataset, ModelConfig, Pipeline};
//!
//! let mut data = Dataset::new(vec!["size".into(), "intensity".into()]);
//! // Tiny toy problem: two regimes split by problem size.
//! for i in 0..40 {
//!     let size = i as f64 * 1000.0;
//!     data.push(vec![size, 2.0], usize::from(i >= 20), i % 4);
//! }
//! let pipe = Pipeline::fit(&ModelConfig::Knn { k: 3 }, &data.x, &data.y, 2);
//! assert_eq!(pipe.predict(&[1_000.0, 2.0]), 0);
//! assert_eq!(pipe.predict(&[39_000.0, 2.0]), 1);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Every `unsafe` block states why it is sound.
#![deny(clippy::undocumented_unsafe_blocks)]

mod activation;
pub mod cv;
pub mod dataset;
pub mod forest;
pub mod importance;
pub mod knn;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod scale;
pub mod svm;
pub mod tree;

pub use activation::ln;
pub use cv::{kfold_cv, leave_one_group_out, CvResult};
pub use dataset::Dataset;
pub use forest::{ForestConfig, RandomForest};
pub use importance::{permutation_importance, FeatureImportance};
pub use knn::Knn;
pub use metrics::{accuracy, confusion_matrix, geometric_mean};
pub use mlp::{Mlp, MlpConfig};
pub use model::{Model, ModelConfig, Pipeline};
pub use scale::StandardScaler;
pub use svm::{LinearSvm, SvmConfig};
pub use tree::{DecisionTree, TreeConfig};

/// Index of the largest element under `cmp`; the last of equal maxima
/// wins, as with `Iterator::max_by`. An empty slice gives 0.
pub(crate) fn argmax_by<T>(v: &[T], mut cmp: impl FnMut(&T, &T) -> std::cmp::Ordering) -> usize {
    let mut best = 0;
    for (i, x) in v.iter().enumerate().skip(1) {
        if cmp(x, &v[best]).is_ge() {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::argmax_by;

    #[test]
    fn argmax_keeps_the_last_of_equal_maxima() {
        let v = [1.0f64, 3.0, 2.0, 3.0, 0.5];
        let want = v
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i);
        assert_eq!(Some(argmax_by(&v, f64::total_cmp)), want);
        assert_eq!(argmax_by(&[2usize, 2, 2], Ord::cmp), 2);
        assert_eq!(argmax_by(&[7usize], Ord::cmp), 0);
        assert_eq!(argmax_by::<f64>(&[], f64::total_cmp), 0);
    }
}
