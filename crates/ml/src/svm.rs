//! Linear SVM: one-vs-rest hinge loss trained by SGD.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters for [`LinearSvm`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvmConfig {
    pub epochs: usize,
    pub lr: f64,
    /// L2 regularization strength.
    pub lambda: f64,
    pub seed: u64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            lr: 0.05,
            lambda: 1e-4,
            seed: 42,
        }
    }
}

/// One-vs-rest linear SVM classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearSvm {
    pub config: SvmConfig,
    /// One (w, b) per class.
    weights: Vec<Vec<f64>>,
    biases: Vec<f64>,
    dim: usize,
}

impl LinearSvm {
    /// Train on `x`/`y` with dense labels in `0..n_classes`. Expects
    /// scaled features.
    pub fn fit(config: SvmConfig, x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Self {
        assert!(!x.is_empty(), "cannot train on an empty dataset");
        assert_eq!(x.len(), y.len());
        assert!(y.iter().all(|&l| l < n_classes), "label out of range");
        let dim = x[0].len();
        let mut weights = vec![vec![0.0; dim]; n_classes];
        let mut biases = vec![0.0; n_classes];
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..x.len()).collect();

        // Subgradient SGD on hinge + L2 does not converge with a constant
        // step — it cycles, and the final iterate depends on the last
        // epoch's shuffle. Decay the step per epoch and average the tail
        // iterates (Polyak averaging) so training lands on the regularized
        // minimizer regardless of shuffle order.
        let avg_from = config.epochs - config.epochs / 2;
        let mut avg_weights = vec![vec![0.0; dim]; n_classes];
        let mut avg_biases = vec![0.0; n_classes];
        let mut avg_count = 0u32;

        for epoch in 0..config.epochs {
            let lr = config.lr / (1.0 + 0.05 * epoch as f64);
            order.shuffle(&mut rng);
            for &i in &order {
                for c in 0..n_classes {
                    let target = if y[i] == c { 1.0 } else { -1.0 };
                    let margin = target * (dot(&weights[c], &x[i]) + biases[c]);
                    // Subgradient step on hinge + L2.
                    let w = &mut weights[c];
                    if margin < 1.0 {
                        for (wj, xj) in w.iter_mut().zip(&x[i]) {
                            *wj += lr * (target * xj - config.lambda * *wj);
                        }
                        biases[c] += lr * target;
                    } else {
                        for wj in w.iter_mut() {
                            *wj -= lr * config.lambda * *wj;
                        }
                    }
                }
            }
            if epoch >= avg_from {
                for (aw, w) in avg_weights.iter_mut().zip(&weights) {
                    for (a, v) in aw.iter_mut().zip(w) {
                        *a += v;
                    }
                }
                for (ab, b) in avg_biases.iter_mut().zip(&biases) {
                    *ab += b;
                }
                avg_count += 1;
            }
        }
        if avg_count > 0 {
            let inv = 1.0 / f64::from(avg_count);
            for w in &mut avg_weights {
                for v in w.iter_mut() {
                    *v *= inv;
                }
            }
            for b in &mut avg_biases {
                *b *= inv;
            }
            weights = avg_weights;
            biases = avg_biases;
        }
        Self {
            config,
            weights,
            biases,
            dim,
        }
    }

    /// Per-class decision values (not probabilities).
    pub fn decision(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        self.weights
            .iter()
            .zip(&self.biases)
            .map(|(w, b)| dot(w, x) + b)
            .collect()
    }

    /// Number of classes this classifier was fitted for.
    pub fn n_classes(&self) -> usize {
        self.weights.len()
    }

    /// Class with the largest decision value.
    pub fn predict(&self, x: &[f64]) -> usize {
        crate::argmax_by(&self.decision(x), f64::total_cmp)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data() -> (Vec<Vec<f64>>, Vec<usize>) {
        // Separable by x0.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let v = i as f64 / 10.0 - 3.0;
            x.push(vec![v, (i % 7) as f64 / 7.0]);
            y.push(usize::from(v > 0.0));
        }
        (x, y)
    }

    #[test]
    fn separates_linear_data() {
        let (x, y) = linear_data();
        let m = LinearSvm::fit(SvmConfig::default(), &x, &y, 2);
        let acc = x
            .iter()
            .zip(&y)
            .filter(|(xi, &yi)| m.predict(xi) == yi)
            .count() as f64
            / x.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn three_class_one_vs_rest() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for c in 0..3usize {
            for j in 0..30 {
                x.push(vec![c as f64 * 3.0 + (j % 5) as f64 * 0.1, 0.0]);
                y.push(c);
            }
        }
        let m = LinearSvm::fit(SvmConfig::default(), &x, &y, 3);
        assert_eq!(m.predict(&[0.0, 0.0]), 0);
        assert_eq!(m.predict(&[3.0, 0.0]), 1);
        assert_eq!(m.predict(&[6.2, 0.0]), 2);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (x, y) = linear_data();
        let a = LinearSvm::fit(SvmConfig::default(), &x, &y, 2);
        let b = LinearSvm::fit(SvmConfig::default(), &x, &y, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn decision_has_one_value_per_class() {
        let (x, y) = linear_data();
        let m = LinearSvm::fit(
            SvmConfig {
                epochs: 5,
                ..Default::default()
            },
            &x,
            &y,
            2,
        );
        assert_eq!(m.decision(&x[0]).len(), 2);
    }
}
