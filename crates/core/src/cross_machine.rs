//! Cross-machine transfer evaluation: how well a predictor trained on one
//! machine's measurements performs when its predictions are priced on
//! *another* machine.
//!
//! The paper trains one model per machine and the fingerprint guards in
//! [`crate::db`] and [`crate::predictor::Framework::validate`] enforce
//! that at deployment time. This module quantifies *why*: it trains a
//! full-database predictor on each machine of a zoo and evaluates it
//! against every other machine's oracle, producing a transfer matrix of
//! prediction accuracy and oracle-relative slowdown. Off-diagonal cells
//! degrade sharply — the empirical argument for per-machine training.

use hetpart_ml::{geometric_mean, ModelConfig};
use hetpart_oclsim::Machine;
use serde::{Deserialize, Serialize};

use crate::db::{FeatureSet, TrainingDb};
use crate::predictor::PartitionPredictor;
use crate::report::{cell, num, rule};

/// One (train machine, eval machine) cell of the transfer matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossMachineCell {
    /// Machine the predictor was trained on.
    pub train_machine: String,
    /// Machine whose oracle priced the predictions.
    pub eval_machine: String,
    /// Whether the pair is comparable at all: a predictor's label space
    /// addresses a fixed device count, so machines of different arity
    /// cannot exchange predictors. Incompatible cells carry no numbers.
    pub compatible: bool,
    /// Records evaluated (0 for incompatible cells).
    pub records: usize,
    /// Exact oracle-partition match rate on the eval machine.
    pub accuracy: f64,
    /// Geometric mean of (predicted time / oracle time) on the eval
    /// machine — 1.0 is oracle-perfect, higher is slower.
    pub oracle_slowdown: f64,
}

/// The full train × eval transfer matrix over a machine zoo.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossMachineMatrix {
    /// Machine names, in matrix order (rows = train, columns = eval).
    pub machines: Vec<String>,
    /// Row-major cells: `cells[i * machines.len() + j]` trains on machine
    /// `i` and evaluates on machine `j`.
    pub cells: Vec<CrossMachineCell>,
}

/// Build the transfer matrix: train a full-database predictor per machine
/// and price its predictions against every machine's oracle sweeps.
///
/// `machines` and `dbs` must align index-by-index (each database collected
/// on its machine); every sweep must price the whole partition space so
/// arbitrary predicted partitions can be priced.
///
/// # Panics
/// Panics if a database's machine identity does not match its machine, or
/// if a predicted partition is missing from an eval sweep.
pub fn cross_machine_matrix(
    machines: &[Machine],
    dbs: &[TrainingDb],
    model: &ModelConfig,
    feature_set: FeatureSet,
) -> CrossMachineMatrix {
    assert_eq!(
        machines.len(),
        dbs.len(),
        "one training database per machine"
    );
    for (m, db) in machines.iter().zip(dbs) {
        assert_eq!(db.machine, m.name, "database collected on its machine");
        assert_eq!(
            db.machine_fingerprint,
            m.fingerprint(),
            "database fingerprint matches its machine"
        );
    }
    let predictors: Vec<PartitionPredictor> = dbs
        .iter()
        .map(|db| PartitionPredictor::train(db, model, feature_set))
        .collect();
    let mut cells = Vec::with_capacity(machines.len() * machines.len());
    for (train_idx, predictor) in predictors.iter().enumerate() {
        for (eval_idx, eval_db) in dbs.iter().enumerate() {
            cells.push(evaluate_cell(
                &machines[train_idx],
                predictor,
                &machines[eval_idx],
                eval_db,
                feature_set,
            ));
        }
    }
    CrossMachineMatrix {
        machines: machines.iter().map(|m| m.name.clone()).collect(),
        cells,
    }
}

fn evaluate_cell(
    train_machine: &Machine,
    predictor: &PartitionPredictor,
    eval_machine: &Machine,
    eval_db: &TrainingDb,
    feature_set: FeatureSet,
) -> CrossMachineCell {
    if train_machine.num_devices() != eval_machine.num_devices() {
        return CrossMachineCell {
            train_machine: train_machine.name.clone(),
            eval_machine: eval_machine.name.clone(),
            compatible: false,
            records: 0,
            accuracy: f64::NAN,
            oracle_slowdown: f64::NAN,
        };
    }
    let mut hits = 0usize;
    let mut slowdowns = Vec::with_capacity(eval_db.records.len());
    for r in &eval_db.records {
        let predicted = predictor
            .predict_vec(&r.features(feature_set))
            .unwrap_or_else(|e| {
                panic!(
                    "predictor trained on `{}` rejected features of `{}` (n = {}) from `{}`: {e}",
                    train_machine.name, r.program, r.size, eval_machine.name
                )
            });
        let predicted_time = r.sweep.time_of(&predicted).unwrap_or_else(|| {
            panic!(
                "partition {predicted} was not priced in the `{}` sweep for {} (n = {}) — \
                 cross-machine evaluation needs sweeps that price the whole partition space",
                eval_machine.name, r.program, r.size
            )
        });
        if predicted == r.best().partition {
            hits += 1;
        }
        slowdowns.push(predicted_time / r.best().time);
    }
    CrossMachineCell {
        train_machine: train_machine.name.clone(),
        eval_machine: eval_machine.name.clone(),
        compatible: true,
        records: eval_db.records.len(),
        accuracy: hits as f64 / eval_db.records.len().max(1) as f64,
        oracle_slowdown: geometric_mean(&slowdowns),
    }
}

impl CrossMachineMatrix {
    /// The cell training on machine `i` and evaluating on machine `j`.
    pub fn cell(&self, train_idx: usize, eval_idx: usize) -> &CrossMachineCell {
        &self.cells[train_idx * self.machines.len() + eval_idx]
    }

    /// Render the matrix as two tables (accuracy, oracle slowdown);
    /// incompatible cells print as `-`.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Cross-machine transfer matrix: rows train, columns evaluate.\n\
             Diagonal = same-machine (training-set) performance; off-diagonal\n\
             shows what deploying a foreign predictor would cost.\n\n",
        );
        for (title, pick) in [
            (
                "prediction accuracy (%)",
                (|c: &CrossMachineCell| c.accuracy * 100.0) as fn(&CrossMachineCell) -> f64,
            ),
            ("oracle slowdown (x)", |c: &CrossMachineCell| {
                c.oracle_slowdown
            }),
        ] {
            out.push_str(&format!("== {title} ==\n"));
            out.push_str(&cell("train \\ eval", 18));
            for m in &self.machines {
                out.push(' ');
                out.push_str(&cell(m, 12));
            }
            out.push('\n');
            out.push_str(&format!("{}\n", rule(19 + 13 * self.machines.len())));
            for (i, m) in self.machines.iter().enumerate() {
                out.push_str(&cell(m, 18));
                for j in 0..self.machines.len() {
                    let c = self.cell(i, j);
                    out.push(' ');
                    if c.compatible {
                        out.push_str(&num(pick(c), 12));
                    } else {
                        out.push_str(&cell("-", 12));
                    }
                }
                out.push('\n');
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HarnessConfig;
    use crate::train::collect_training_db;
    use hetpart_ml::TreeConfig;
    use hetpart_oclsim::machines;

    fn tiny_matrix(machine_list: Vec<Machine>) -> CrossMachineMatrix {
        let benches: Vec<_> = hetpart_suite::all()
            .into_iter()
            .filter(|b| ["vec_add", "nbody", "blackscholes", "sgemm"].contains(&b.name))
            .collect();
        let cfg = HarnessConfig {
            sizes_per_benchmark: 2,
            sample_items: 32,
            step_tenths: 5,
            ..HarnessConfig::quick()
        };
        let dbs: Vec<TrainingDb> = machine_list
            .iter()
            .map(|m| collect_training_db(m, &benches, &cfg).expect("training succeeds"))
            .collect();
        cross_machine_matrix(
            &machine_list,
            &dbs,
            &ModelConfig::Tree(TreeConfig::default()),
            FeatureSet::Both,
        )
    }

    #[test]
    fn matrix_covers_every_pair_and_diagonal_fits_its_training_set() {
        let m = tiny_matrix(vec![machines::mc1(), machines::mc2()]);
        assert_eq!(m.machines, vec!["mc1", "mc2"]);
        assert_eq!(m.cells.len(), 4);
        for i in 0..2 {
            for j in 0..2 {
                let c = m.cell(i, j);
                assert_eq!(c.train_machine, m.machines[i]);
                assert_eq!(c.eval_machine, m.machines[j]);
                assert!(c.compatible, "mc1 and mc2 are both 3-device machines");
                assert!(c.records > 0);
                assert!((0.0..=1.0).contains(&c.accuracy));
                assert!(
                    c.oracle_slowdown >= 1.0 - 1e-9,
                    "nothing beats the oracle: {c:?}"
                );
            }
            // A tree evaluated on its own training set recovers most
            // oracle labels; transfer cannot do better than that.
            let own = m.cell(i, i);
            assert!(
                own.accuracy >= 0.5,
                "diagonal should fit its training set: {own:?}"
            );
        }
        let txt = m.render();
        assert!(txt.contains("prediction accuracy"));
        assert!(txt.contains("oracle slowdown"));
    }

    #[test]
    fn arity_mismatched_machines_get_incompatible_cells() {
        // igpu_laptop has 2 devices; the paper machines have 3.
        let m = tiny_matrix(vec![machines::mc2(), machines::by_name("igpu_laptop")]);
        assert!(m.cell(0, 0).compatible);
        assert!(m.cell(1, 1).compatible);
        let c = m.cell(0, 1);
        assert!(!c.compatible);
        assert_eq!(c.records, 0);
        assert!(c.accuracy.is_nan() && c.oracle_slowdown.is_nan());
        assert!(!m.cell(1, 0).compatible);
        assert!(m.render().contains('-'));
    }
}
