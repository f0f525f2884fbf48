//! CART decision-tree classifier (Gini impurity, axis-aligned splits).

use serde::{Deserialize, Serialize};

/// Hyper-parameters for [`DecisionTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeConfig {
    pub max_depth: usize,
    pub min_samples_split: usize,
    pub min_samples_leaf: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_samples_split: 4,
            min_samples_leaf: 1,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        /// Class-count distribution at the leaf.
        counts: Vec<usize>,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// `x[feature] <= threshold` goes left.
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A trained decision tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    pub config: TreeConfig,
    root: Node,
    n_classes: usize,
}

fn gini(counts: &[usize]) -> f64 {
    let n: usize = counts.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / n).powi(2)).sum::<f64>()
}

fn class_counts(y: &[usize], idx: &[usize], n_classes: usize) -> Vec<usize> {
    let mut c = vec![0; n_classes];
    for &i in idx {
        c[y[i]] += 1;
    }
    c
}

impl DecisionTree {
    /// Fit a tree. Feature subsets per split can be restricted via
    /// [`DecisionTree::fit_with_feature_sampler`] (used by the random
    /// forest); this variant considers all features.
    pub fn fit(config: TreeConfig, x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Self {
        let all: Vec<usize> = (0..x.first().map_or(0, |r| r.len())).collect();
        Self::fit_with_feature_sampler(config, x, y, n_classes, &mut |_| all.clone())
    }

    /// Fit a tree, asking `sampler` for the candidate feature set at each
    /// split (it receives the node depth).
    pub fn fit_with_feature_sampler(
        config: TreeConfig,
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        sampler: &mut dyn FnMut(usize) -> Vec<usize>,
    ) -> Self {
        assert!(!x.is_empty(), "cannot train on an empty dataset");
        assert_eq!(x.len(), y.len());
        assert!(y.iter().all(|&l| l < n_classes), "label out of range");
        let idx: Vec<usize> = (0..x.len()).collect();
        let root = Self::build(&config, x, y, n_classes, &idx, 0, sampler);
        Self {
            config,
            root,
            n_classes,
        }
    }

    fn build(
        cfg: &TreeConfig,
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        idx: &[usize],
        depth: usize,
        sampler: &mut dyn FnMut(usize) -> Vec<usize>,
    ) -> Node {
        let counts = class_counts(y, idx, n_classes);
        let node_gini = gini(&counts);
        if depth >= cfg.max_depth || idx.len() < cfg.min_samples_split || node_gini == 0.0 {
            return Node::Leaf { counts };
        }

        // Find the best (feature, threshold) by exhaustive scan over the
        // sampled features and the sorted unique values.
        let mut best: Option<(usize, f64, f64)> = None; // (feature, thr, score)
        for f in sampler(depth) {
            let mut vals: Vec<f64> = idx.iter().map(|&i| x[i][f]).collect();
            vals.sort_by(f64::total_cmp);
            vals.dedup();
            if vals.len() < 2 {
                continue;
            }
            // Candidate thresholds: midpoints between consecutive values.
            for w in vals.windows(2) {
                let thr = (w[0] + w[1]) / 2.0;
                let mut lc = vec![0usize; n_classes];
                let mut rc = vec![0usize; n_classes];
                for &i in idx {
                    if x[i][f] <= thr {
                        lc[y[i]] += 1;
                    } else {
                        rc[y[i]] += 1;
                    }
                }
                let ln: usize = lc.iter().sum();
                let rn: usize = rc.iter().sum();
                if ln < cfg.min_samples_leaf || rn < cfg.min_samples_leaf {
                    continue;
                }
                let score = (ln as f64 * gini(&lc) + rn as f64 * gini(&rc)) / idx.len() as f64;
                if best.is_none_or(|(_, _, s)| score < s) {
                    best = Some((f, thr, score));
                }
            }
        }

        let Some((feature, threshold, score)) = best else {
            return Node::Leaf { counts };
        };
        if score >= node_gini {
            // No impurity reduction.
            return Node::Leaf { counts };
        }
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| x[i][feature] <= threshold);
        let left = Self::build(cfg, x, y, n_classes, &left_idx, depth + 1, sampler);
        let right = Self::build(cfg, x, y, n_classes, &right_idx, depth + 1, sampler);
        Node::Split {
            feature,
            threshold,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Class-count distribution at the leaf `x` lands in.
    pub fn leaf_counts(&self, x: &[f64]) -> &[usize] {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { counts } => return counts,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Majority class at the leaf.
    pub fn predict(&self, x: &[f64]) -> usize {
        crate::argmax_by(self.leaf_counts(x), Ord::cmp)
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Total number of nodes (for size sanity checks).
    pub fn num_nodes(&self) -> usize {
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + count(left) + count(right),
            }
        }
        count(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_axis_aligned_data_perfectly() {
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64, (i * 7 % 11) as f64])
            .collect();
        let y: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let t = DecisionTree::fit(TreeConfig::default(), &x, &y, 2);
        for (xi, yi) in x.iter().zip(&y) {
            assert_eq!(t.predict(xi), *yi);
        }
        // The split threshold must separate 19.x: a shallow tree suffices.
        assert!(t.num_nodes() <= 7, "nodes = {}", t.num_nodes());
    }

    #[test]
    fn respects_max_depth() {
        // Random-ish labels force deep trees unless capped.
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..64).map(|i| ((i * 2654435761usize) >> 3) % 2).collect();
        let shallow = DecisionTree::fit(
            TreeConfig {
                max_depth: 2,
                ..Default::default()
            },
            &x,
            &y,
            2,
        );
        // Depth-2 binary tree has at most 7 nodes.
        assert!(shallow.num_nodes() <= 7);
    }

    #[test]
    fn pure_nodes_stop_splitting() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![1, 1, 1];
        let t = DecisionTree::fit(TreeConfig::default(), &x, &y, 2);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.predict(&[99.0]), 1);
    }

    #[test]
    fn multiclass_splits() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..30).map(|i| i / 10).collect();
        let t = DecisionTree::fit(TreeConfig::default(), &x, &y, 3);
        assert_eq!(t.predict(&[5.0]), 0);
        assert_eq!(t.predict(&[15.0]), 1);
        assert_eq!(t.predict(&[25.0]), 2);
    }

    #[test]
    fn gini_is_zero_for_pure_and_max_for_uniform() {
        assert_eq!(gini(&[10, 0]), 0.0);
        assert!((gini(&[5, 5]) - 0.5).abs() < 1e-12);
        assert!((gini(&[4, 4, 4, 4]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn serde_roundtrip() {
        let x = vec![vec![0.0], vec![1.0], vec![5.0], vec![6.0]];
        let y = vec![0, 0, 1, 1];
        let t = DecisionTree::fit(TreeConfig::default(), &x, &y, 2);
        let js = serde_json::to_string(&t).unwrap();
        let back: DecisionTree = serde_json::from_str(&js).unwrap();
        assert_eq!(t, back);
    }
}
