//! Sharded training databases: JSONL round-trips, crash resume, and the
//! merge-stability guarantees — sharded collection and shard merges must
//! be **bit-identical** to monolithic collection, and predictors must not
//! depend on record or shard order.

use std::path::PathBuf;

use hetpart_core::{
    collect_training_db, collect_training_db_sharded, DbError, FeatureSet, HarnessConfig,
    PartitionPredictor, ShardedDb, TrainingDb,
};
use hetpart_ml::ModelConfig;
use hetpart_oclsim::machines;
use hetpart_suite::Benchmark;

fn benches() -> Vec<Benchmark> {
    hetpart_suite::all()
        .into_iter()
        .filter(|b| ["vec_add", "nbody", "blackscholes", "sgemm"].contains(&b.name))
        .collect()
}

fn cfg() -> HarnessConfig {
    HarnessConfig {
        sizes_per_benchmark: 2,
        sample_items: 24,
        step_tenths: 5,
        ..HarnessConfig::quick()
    }
}

fn tmp_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&root).ok();
    root
}

#[test]
fn sharded_collection_is_bit_identical_to_serial() {
    let machine = machines::mc2();
    let serial = collect_training_db(&machine, &benches(), &cfg()).unwrap();

    let root = tmp_root("hetpart_it_shard_serial");
    let shards = ShardedDb::open(&root, &machine).unwrap();
    let sharded = collect_training_db_sharded(&machine, &benches(), &cfg(), &shards).unwrap();
    assert_eq!(
        serial, sharded,
        "streaming persistence must not change the database"
    );

    // And the on-disk shards round-trip to the same database again.
    let reloaded = shards.to_training_db().unwrap();
    assert_eq!(serial, reloaded);
    // One shard file per program.
    assert_eq!(
        shards.programs().unwrap(),
        vec!["blackscholes", "nbody", "sgemm", "vec_add"]
    );
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn interrupted_collection_resumes_without_remeasuring() {
    let machine = machines::mc1();
    let all = benches();
    let root = tmp_root("hetpart_it_shard_resume");
    let shards = ShardedDb::open(&root, &machine).unwrap();

    // "First run": only part of the suite completes before the crash.
    collect_training_db_sharded(&machine, &all[..2], &cfg(), &shards).unwrap();

    // Simulate the crash arriving mid-append: chop the last record line.
    let victim = shards.programs().unwrap().pop().unwrap();
    let path = shards.shard_path(&victim);
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() - 25]).unwrap();
    let before = shards.existing_keys().unwrap();

    // "Second run" over the full suite: finishes the missing work (the
    // torn record plus the never-measured benchmarks) and nothing else.
    let untouched: Vec<String> = shards
        .programs()
        .unwrap()
        .into_iter()
        .filter(|p| *p != victim)
        .collect();
    let before_bytes: Vec<(String, String)> = untouched
        .iter()
        .map(|p| {
            (
                p.clone(),
                std::fs::read_to_string(shards.shard_path(p)).unwrap(),
            )
        })
        .collect();

    let resumed = collect_training_db_sharded(&machine, &all, &cfg(), &shards).unwrap();
    let serial = collect_training_db(&machine, &all, &cfg()).unwrap();
    assert_eq!(
        resumed, serial,
        "resumed collection must equal a fresh serial one"
    );

    // Intact shards were not rewritten — resume appended only what was
    // missing.
    for (p, bytes) in before_bytes {
        assert_eq!(
            bytes,
            std::fs::read_to_string(shards.shard_path(&p)).unwrap(),
            "shard `{p}` was already complete and must not be touched"
        );
    }
    let after = shards.existing_keys().unwrap();
    assert!(after.is_superset(&before));
    assert!(
        after.len() > before.len(),
        "resume must add the missing records"
    );
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn merged_shards_train_a_bit_identical_predictor_in_any_order() {
    // The acceptance gate: per-benchmark shards collected by two
    // "processes", merged in either order, must train a predictor
    // bit-identical to one trained on the monolithic database.
    let machine = machines::mc2();
    let all = benches();
    let monolithic = collect_training_db(&machine, &all, &cfg()).unwrap();

    let root_a = tmp_root("hetpart_it_shard_proc_a");
    let root_b = tmp_root("hetpart_it_shard_proc_b");
    let proc_a = ShardedDb::open(&root_a, &machine).unwrap();
    let proc_b = ShardedDb::open(&root_b, &machine).unwrap();
    // Process A measures half the suite, process B the other half — note
    // B's slice is *reversed* so its local benchmark order differs too.
    collect_training_db_sharded(&machine, &all[..2], &cfg(), &proc_a).unwrap();
    let mut rest: Vec<Benchmark> = all[2..].to_vec();
    rest.reverse();
    collect_training_db_sharded(&machine, &rest, &cfg(), &proc_b).unwrap();

    let ab = ShardedDb::merge(&[&proc_a, &proc_b]).unwrap();
    let ba = ShardedDb::merge(&[&proc_b, &proc_a]).unwrap();
    assert_eq!(
        ab, monolithic,
        "merged view must equal monolithic collection"
    );
    assert_eq!(ba, monolithic, "merge must be shard-order independent");

    for model in [
        ModelConfig::Knn { k: 3 },
        ModelConfig::Tree(Default::default()),
        ModelConfig::Mlp(hetpart_ml::MlpConfig {
            epochs: 40,
            ..Default::default()
        }),
    ] {
        let mono = PartitionPredictor::train(&monolithic, &model, FeatureSet::Both);
        let from_ab =
            PartitionPredictor::train_from_shards(&[&proc_a, &proc_b], &model, FeatureSet::Both)
                .unwrap();
        let from_ba =
            PartitionPredictor::train_from_shards(&[&proc_b, &proc_a], &model, FeatureSet::Both)
                .unwrap();
        assert_eq!(mono, from_ab, "{model:?}: shard-trained predictor drifted");
        assert_eq!(mono, from_ba, "{model:?}: predictor depends on shard order");
    }
    std::fs::remove_dir_all(root_a).ok();
    std::fs::remove_dir_all(root_b).ok();
}

#[test]
fn training_on_empty_shard_stores_is_a_typed_error() {
    let machine = machines::mc2();
    let root = tmp_root("hetpart_it_shard_empty");
    let store = ShardedDb::open(&root, &machine).unwrap();
    let err = PartitionPredictor::train_from_shards(
        &[&store],
        &ModelConfig::Knn { k: 1 },
        FeatureSet::Both,
    )
    .unwrap_err();
    assert!(
        matches!(&err, DbError::NoRecords { machine: m } if *m == machine.name),
        "{err:?}"
    );
    assert!(err.to_string().contains("no training records"), "{err}");
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn reused_store_returns_only_the_requested_view() {
    // A store filled by an earlier, larger run must not leak
    // out-of-scope records into a later, smaller collection — the
    // returned database has to equal a fresh serial run over exactly the
    // requested benchmarks (and eval over it must not meet unknown
    // programs).
    let machine = machines::mc1();
    let all = benches();
    let root = tmp_root("hetpart_it_shard_scope");
    let shards = ShardedDb::open(&root, &machine).unwrap();
    collect_training_db_sharded(&machine, &all, &cfg(), &shards).unwrap();

    let subset = &all[..2];
    let from_store = collect_training_db_sharded(&machine, subset, &cfg(), &shards).unwrap();
    let serial = collect_training_db(&machine, subset, &cfg()).unwrap();
    assert_eq!(from_store, serial);
    // The extra programs are still on disk for a full merge.
    assert_eq!(
        shards.to_training_db().unwrap().records.len(),
        all.len() * 2
    );
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn resuming_with_a_different_oracle_config_is_refused() {
    // A shard store remembers the measurement-affecting config; resuming
    // with different sweep granularity / sampling would silently mix
    // incomparable records into one database.
    let machine = machines::mc1();
    let all = benches();
    let root = tmp_root("hetpart_it_shard_config");
    let shards = ShardedDb::open(&root, &machine).unwrap();
    collect_training_db_sharded(&machine, &all[..1], &cfg(), &shards).unwrap();
    let drifted = HarnessConfig {
        step_tenths: 2,
        ..cfg()
    };
    let err = collect_training_db_sharded(&machine, &all, &drifted, &shards).unwrap_err();
    assert!(
        matches!(
            err,
            hetpart_core::TrainError::Shard(hetpart_core::DbError::ConfigMismatch { .. })
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("incompatible"), "{err}");
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn resuming_with_a_drifted_opt_level_is_refused() {
    // The bytecode optimization level shapes the compiled code and with it
    // every simulated time and oracle label, so it is part of the oracle
    // fingerprint: a store recorded with optimized kernels must refuse to
    // resume unoptimized (and vice versa) instead of
    // silently mixing records priced from different bytecode.
    let machine = machines::mc1();
    let all = benches();
    let root = tmp_root("hetpart_it_shard_opt_level");
    let shards = ShardedDb::open(&root, &machine).unwrap();
    let optimized = HarnessConfig {
        opt_level: hetpart_inspire::OptLevel::Full,
        ..cfg()
    };
    collect_training_db_sharded(&machine, &all[..1], &optimized, &shards).unwrap();
    let drifted = HarnessConfig {
        opt_level: hetpart_inspire::OptLevel::None,
        ..optimized.clone()
    };
    assert_ne!(optimized.oracle_fingerprint(), drifted.oracle_fingerprint());
    let err = collect_training_db_sharded(&machine, &all, &drifted, &shards).unwrap_err();
    assert!(
        matches!(
            err,
            hetpart_core::TrainError::Shard(hetpart_core::DbError::ConfigMismatch { .. })
        ),
        "{err:?}"
    );
    // Resuming with the original level still works.
    collect_training_db_sharded(&machine, &all[..1], &optimized, &shards).unwrap();
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn eval_context_from_shards_matches_direct_build() {
    // The evaluation harness' per-machine merge: building from shard
    // stores must produce the same databases as direct collection, and a
    // second build over the same root must resume (load) rather than
    // re-measure.
    let benches: Vec<Benchmark> = hetpart_suite::all()
        .into_iter()
        .filter(|b| ["vec_add", "nbody"].contains(&b.name))
        .collect();
    let direct = hetpart_core::EvalContext::build(cfg(), benches.clone());
    let root = tmp_root("hetpart_it_shard_eval");
    let sharded = hetpart_core::EvalContext::build_sharded(cfg(), benches.clone(), &root).unwrap();
    assert_eq!(direct.dbs, sharded.dbs);
    let resumed = hetpart_core::EvalContext::build_sharded(cfg(), benches, &root).unwrap();
    assert_eq!(direct.dbs, resumed.dbs);
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn record_shuffles_cannot_permute_labels_or_predictors() {
    // Regression for the order-dependent label space: a shuffled database
    // used to assign different class indices (first-appearance order) and
    // silently corrupt every predictor trained after a reorder.
    let machine = machines::mc2();
    let db = collect_training_db(&machine, &benches(), &cfg()).unwrap();
    let mut shuffled = TrainingDb {
        machine: db.machine.clone(),
        machine_fingerprint: db.machine_fingerprint,
        records: db.records.clone(),
    };
    // Deterministic pseudo-shuffle.
    let n = shuffled.records.len();
    for i in 0..n {
        shuffled.records.swap(i, (i * 5 + 3) % n);
    }
    assert_eq!(db.label_space(), shuffled.label_space());
    assert_eq!(
        db.to_dataset(FeatureSet::Both),
        shuffled.to_dataset(FeatureSet::Both)
    );
    let model = ModelConfig::Tree(Default::default());
    assert_eq!(
        PartitionPredictor::train(&db, &model, FeatureSet::Both),
        PartitionPredictor::train(&shuffled, &model, FeatureSet::Both),
        "record order leaked into the trained predictor"
    );
}
