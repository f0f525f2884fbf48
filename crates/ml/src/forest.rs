//! Random forest: bagged decision trees with per-split feature sampling.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::tree::{DecisionTree, TreeConfig};

/// Hyper-parameters for [`RandomForest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForestConfig {
    pub n_trees: usize,
    pub tree: TreeConfig,
    /// Features sampled per split; `None` ⇒ `ceil(sqrt(dim))`.
    pub max_features: Option<usize>,
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 50,
            tree: TreeConfig::default(),
            max_features: None,
            seed: 42,
        }
    }
}

/// A trained random forest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    pub config: ForestConfig,
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Train on `x`/`y` with dense labels in `0..n_classes`.
    pub fn fit(config: ForestConfig, x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Self {
        assert!(!x.is_empty(), "cannot train on an empty dataset");
        let dim = x[0].len();
        let m = config
            .max_features
            .unwrap_or_else(|| (dim as f64).sqrt().ceil() as usize);
        let m = m.clamp(1, dim);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = x.len();
        let mut trees = Vec::with_capacity(config.n_trees);
        let all: Vec<usize> = (0..dim).collect();
        for _ in 0..config.n_trees {
            // Bootstrap sample.
            let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let bx: Vec<Vec<f64>> = idx.iter().map(|&i| x[i].clone()).collect();
            let by: Vec<usize> = idx.iter().map(|&i| y[i]).collect();
            // Per-split feature sampling, driven by the shared RNG.
            let mut tree_rng = StdRng::seed_from_u64(rng.gen());
            let mut sampler = |_depth: usize| -> Vec<usize> {
                let mut feats = all.clone();
                feats.shuffle(&mut tree_rng);
                feats.truncate(m);
                feats
            };
            trees.push(DecisionTree::fit_with_feature_sampler(
                config.tree,
                &bx,
                &by,
                n_classes,
                &mut sampler,
            ));
        }
        Self {
            config,
            trees,
            n_classes,
        }
    }

    /// Number of classes this forest was fitted for.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Soft vote: summed leaf distributions, normalized.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0f64; self.n_classes];
        for t in &self.trees {
            let counts = t.leaf_counts(x);
            let total: usize = counts.iter().sum();
            if total == 0 {
                continue;
            }
            for (a, &c) in acc.iter_mut().zip(counts) {
                *a += c as f64 / total as f64;
            }
        }
        let s: f64 = acc.iter().sum();
        if s > 0.0 {
            for a in &mut acc {
                *a /= s;
            }
        }
        acc
    }

    /// Majority-vote prediction.
    pub fn predict(&self, x: &[f64]) -> usize {
        crate::argmax_by(&self.predict_proba(x), f64::total_cmp)
    }

    /// Number of trees actually trained.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_blobs(seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for c in 0..3usize {
            let cx = c as f64 * 4.0;
            for _ in 0..50 {
                x.push(vec![
                    cx + rng.gen_range(-1.5..1.5),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0), // noise feature
                ]);
                y.push(c);
            }
        }
        (x, y)
    }

    #[test]
    fn classifies_blobs_well() {
        let (x, y) = noisy_blobs(3);
        let f = RandomForest::fit(
            ForestConfig {
                n_trees: 25,
                ..Default::default()
            },
            &x,
            &y,
            3,
        );
        let acc = x
            .iter()
            .zip(&y)
            .filter(|(xi, &yi)| f.predict(xi) == yi)
            .count() as f64
            / x.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (x, y) = noisy_blobs(5);
        let cfg = ForestConfig {
            n_trees: 10,
            ..Default::default()
        };
        let a = RandomForest::fit(cfg.clone(), &x, &y, 3);
        let b = RandomForest::fit(cfg, &x, &y, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn proba_sums_to_one() {
        let (x, y) = noisy_blobs(9);
        let f = RandomForest::fit(
            ForestConfig {
                n_trees: 7,
                ..Default::default()
            },
            &x,
            &y,
            3,
        );
        let p = f.predict_proba(&x[0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(f.num_trees(), 7);
    }

    #[test]
    fn single_tree_forest_matches_bagging_behaviour() {
        let (x, y) = noisy_blobs(11);
        let f = RandomForest::fit(
            ForestConfig {
                n_trees: 1,
                ..Default::default()
            },
            &x,
            &y,
            3,
        );
        assert_eq!(f.num_trees(), 1);
        // It should still classify most of the training set.
        let acc = x
            .iter()
            .zip(&y)
            .filter(|(xi, &yi)| f.predict(xi) == yi)
            .count();
        assert!(acc * 2 > x.len());
    }
}
