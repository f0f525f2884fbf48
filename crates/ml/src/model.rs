//! A unified interface over all classifier families, plus the
//! scaler+model pipeline used everywhere in the framework.

use serde::{Deserialize, Serialize};

use crate::forest::{ForestConfig, RandomForest};
use crate::knn::Knn;
use crate::mlp::{Mlp, MlpConfig};
use crate::scale::StandardScaler;
use crate::svm::{LinearSvm, SvmConfig};
use crate::tree::{DecisionTree, TreeConfig};

/// Which model family to train, with its hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelConfig {
    /// The paper family's choice: an artificial neural network.
    Mlp(MlpConfig),
    Tree(TreeConfig),
    Forest(ForestConfig),
    Knn {
        k: usize,
    },
    Svm(SvmConfig),
}

impl ModelConfig {
    /// Display name for report tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelConfig::Mlp(_) => "ANN (MLP)",
            ModelConfig::Tree(_) => "Decision Tree",
            ModelConfig::Forest(_) => "Random Forest",
            ModelConfig::Knn { .. } => "k-NN",
            ModelConfig::Svm(_) => "Linear SVM",
        }
    }

    /// Whether the family is distance/gradient based and therefore needs
    /// standardized inputs.
    pub fn needs_scaling(&self) -> bool {
        !matches!(self, ModelConfig::Tree(_) | ModelConfig::Forest(_))
    }

    /// Default configuration of every family, for model-comparison tables.
    pub fn all_defaults() -> Vec<ModelConfig> {
        vec![
            ModelConfig::Mlp(MlpConfig::default()),
            ModelConfig::Forest(ForestConfig::default()),
            ModelConfig::Tree(TreeConfig::default()),
            ModelConfig::Knn { k: 5 },
            ModelConfig::Svm(SvmConfig::default()),
        ]
    }
}

/// A trained model of any family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Model {
    Mlp(Mlp),
    Tree(DecisionTree),
    Forest(RandomForest),
    Knn(Knn),
    Svm(LinearSvm),
}

impl Model {
    /// Predict the class of one (already scaled, if applicable) row.
    pub fn predict(&self, x: &[f64]) -> usize {
        match self {
            Model::Mlp(m) => m.predict(x),
            Model::Tree(m) => m.predict(x),
            Model::Forest(m) => m.predict(x),
            Model::Knn(m) => m.predict(x),
            Model::Svm(m) => m.predict(x),
        }
    }

    /// Number of classes this model was fitted for. Every prediction is a
    /// dense label in `0..n_classes()`.
    pub fn n_classes(&self) -> usize {
        match self {
            Model::Mlp(m) => m.n_classes(),
            Model::Tree(m) => m.n_classes(),
            Model::Forest(m) => m.n_classes(),
            Model::Knn(m) => m.n_classes(),
            Model::Svm(m) => m.n_classes(),
        }
    }
}

/// Scaler + model: the deployable predictor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pipeline {
    pub scaler: Option<StandardScaler>,
    pub model: Model,
}

impl Pipeline {
    /// Fit the configured family on raw (unscaled) features.
    ///
    /// # Panics
    /// Panics on empty data or labels outside `0..n_classes` (programming
    /// errors in the training pipeline).
    pub fn fit(config: &ModelConfig, x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Self {
        let (scaler, xs): (Option<StandardScaler>, Vec<Vec<f64>>) = if config.needs_scaling() {
            let sc = StandardScaler::fit(x);
            let xs = sc.transform(x);
            (Some(sc), xs)
        } else {
            (None, x.to_vec())
        };
        let model = match config {
            ModelConfig::Mlp(c) => Model::Mlp(Mlp::fit(c.clone(), &xs, y, n_classes)),
            ModelConfig::Tree(c) => Model::Tree(DecisionTree::fit(*c, &xs, y, n_classes)),
            ModelConfig::Forest(c) => {
                Model::Forest(RandomForest::fit(c.clone(), &xs, y, n_classes))
            }
            ModelConfig::Knn { k } => Model::Knn(Knn::fit(*k, &xs, y, n_classes)),
            ModelConfig::Svm(c) => Model::Svm(LinearSvm::fit(c.clone(), &xs, y, n_classes)),
        };
        Self { scaler, model }
    }

    /// Number of classes the underlying model was fitted for.
    pub fn n_classes(&self) -> usize {
        self.model.n_classes()
    }

    /// Predict the class of one raw feature row.
    pub fn predict(&self, x: &[f64]) -> usize {
        match (&self.scaler, &self.model) {
            // The MLP scales the row inside its one inference buffer.
            (Some(sc), Model::Mlp(m)) => crate::argmax_by(
                &m.predict_proba_with(x, |row| sc.transform_row(row)),
                f64::total_cmp,
            ),
            (Some(sc), model) => {
                let mut row = x.to_vec();
                sc.transform_row(&mut row);
                model.predict(&row)
            }
            (None, model) => model.predict(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        // Feature 0 is informative but on a huge scale; feature 1 is noise
        // on a tiny scale. Scaling matters for distance/gradient models.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let c = usize::from(i >= 30);
            x.push(vec![
                c as f64 * 1e6 + (i % 10) as f64 * 1e4,
                (i % 3) as f64 * 0.01,
            ]);
            y.push(c);
        }
        (x, y)
    }

    #[test]
    fn every_family_fits_and_predicts() {
        let (x, y) = blobs();
        for cfg in ModelConfig::all_defaults() {
            let p = Pipeline::fit(&cfg, &x, &y, 2);
            let acc = x
                .iter()
                .zip(&y)
                .filter(|(xi, &yi)| p.predict(xi) == yi)
                .count() as f64
                / x.len() as f64;
            assert!(acc > 0.9, "{} accuracy {acc}", cfg.name());
        }
    }

    #[test]
    fn mlp_pipeline_scales_inside_the_inference_buffer() {
        let (x, y) = blobs();
        let p = Pipeline::fit(&ModelConfig::Mlp(MlpConfig::default()), &x, &y, 2);
        let (Some(sc), Model::Mlp(m)) = (&p.scaler, &p.model) else {
            panic!("an MLP pipeline scales its inputs");
        };
        for xi in &x {
            let mut row = xi.clone();
            sc.transform_row(&mut row);
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let want = m.predict_proba(&row);
            assert_eq!(
                bits(m.predict_proba_with(xi, |r| sc.transform_row(r))),
                bits(want.clone())
            );
            assert_eq!(p.predict(xi), crate::argmax_by(&want, f64::total_cmp));
        }
    }

    #[test]
    fn scaling_flags_are_correct() {
        assert!(ModelConfig::Mlp(MlpConfig::default()).needs_scaling());
        assert!(ModelConfig::Knn { k: 3 }.needs_scaling());
        assert!(ModelConfig::Svm(SvmConfig::default()).needs_scaling());
        assert!(!ModelConfig::Tree(TreeConfig::default()).needs_scaling());
        assert!(!ModelConfig::Forest(ForestConfig::default()).needs_scaling());
    }

    #[test]
    fn pipeline_serde_roundtrip_preserves_predictions() {
        let (x, y) = blobs();
        let p = Pipeline::fit(&ModelConfig::Knn { k: 3 }, &x, &y, 2);
        let js = serde_json::to_string(&p).unwrap();
        let back: Pipeline = serde_json::from_str(&js).unwrap();
        for xi in &x {
            assert_eq!(p.predict(xi), back.predict(xi));
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = ModelConfig::all_defaults()
            .iter()
            .map(|c| c.name())
            .collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), 5);
        assert_eq!(dedup.len(), 5);
    }
}
