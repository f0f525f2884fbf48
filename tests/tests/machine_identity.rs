//! Machine-identity guards end to end: training data and saved predictors
//! are bound to the machine (registry name + hardware fingerprint) they
//! were measured on, and every cross-machine mix-up fails with a typed,
//! descriptive error instead of silently training or deploying wrong.

use std::path::PathBuf;

use hetpart_core::{
    collect_training_db, collect_training_db_sharded, DbError, FeatureSet, Framework,
    HarnessConfig, PartitionPredictor, PredictError, ShardedDb, TrainError,
};
use hetpart_ml::ModelConfig;
use hetpart_oclsim::{machines, Machine};
use hetpart_runtime::Executor;
use hetpart_suite::Benchmark;

fn benches() -> Vec<Benchmark> {
    hetpart_suite::all()
        .into_iter()
        .filter(|b| ["vec_add", "sgemm"].contains(&b.name))
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

/// A zoo machine whose profile was edited after collection: same registry
/// name, different hardware.
fn drifted(mut m: Machine) -> Machine {
    m.devices[0].clock_ghz *= 2.0;
    m
}

#[test]
fn resuming_shards_on_edited_hardware_is_a_typed_error() {
    let machine = machines::by_name("slow_interconnect");
    let root = tmp_root("hetpart_it_identity_shards");
    let shards = ShardedDb::open(&root, &machine).unwrap();
    let db = collect_training_db(&machine, &benches(), &cfg()).unwrap();
    for r in &db.records {
        shards.append(r).unwrap();
    }

    // The same directory viewed by a same-name machine whose profile
    // changed: every load path fails with the fingerprint error, naming
    // the machine and both fingerprints.
    let edited = ShardedDb::open(&root, &drifted(machine.clone())).unwrap();
    let err = edited.load_shard("vec_add").unwrap_err();
    assert!(
        matches!(err, DbError::MachineFingerprintMismatch { .. }),
        "{err}"
    );
    let msg = err.to_string();
    assert!(msg.contains("slow_interconnect"), "{msg}");
    assert!(msg.contains("device profiles changed"), "{msg}");
    // Resume discovery is blocked the same way — an edited machine can
    // never silently extend a foreign store.
    let err = edited.existing_keys().unwrap_err();
    assert!(
        matches!(err, DbError::MachineFingerprintMismatch { .. }),
        "{err}"
    );

    // The original machine still loads its own shards.
    let again = ShardedDb::open(&root, &machine).unwrap();
    assert_eq!(again.to_training_db().unwrap(), db);
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn collecting_into_a_foreign_shard_store_is_a_typed_error() {
    let machine = machines::by_name("slow_interconnect");
    let root = tmp_root("hetpart_it_identity_collect");
    let shards = ShardedDb::open(&root, &machine).unwrap();

    // Another machine's store: the name differs.
    let other = machines::mc2();
    let err = collect_training_db_sharded(&other, &benches(), &cfg(), &shards).unwrap_err();
    let TrainError::Shard(DbError::MachineMismatch {
        path,
        expected,
        found,
    }) = err
    else {
        panic!("expected a machine mismatch, got {err}");
    };
    assert_eq!(path, shards.dir());
    assert_eq!(
        (expected.as_str(), found.as_str()),
        ("mc2", "slow_interconnect")
    );

    // The same name on edited hardware: the fingerprint differs.
    let edited = drifted(machine.clone());
    let err = collect_training_db_sharded(&edited, &benches(), &cfg(), &shards).unwrap_err();
    let TrainError::Shard(DbError::MachineFingerprintMismatch {
        path,
        machine: name,
        expected,
        found,
    }) = err
    else {
        panic!("expected a fingerprint mismatch, got {err}");
    };
    assert_eq!(path, shards.dir());
    assert_eq!(name, "slow_interconnect");
    assert_eq!(expected, edited.fingerprint());
    assert_eq!(found, machine.fingerprint());

    // Neither refusal measured or wrote anything.
    assert!(shards.programs().unwrap().is_empty());
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn deploying_a_foreign_or_stale_predictor_is_a_typed_error() {
    let machine = machines::mc2();
    let db = collect_training_db(&machine, &benches(), &cfg()).unwrap();
    let predictor = PartitionPredictor::train(&db, &ModelConfig::Knn { k: 3 }, FeatureSet::Both);

    // Round-trip through disk, as a deployment would load it.
    let json = serde_json::to_string(&predictor).unwrap();
    let loaded: PartitionPredictor = serde_json::from_str(&json).unwrap();
    assert_eq!(loaded.machine, "mc2");
    assert_eq!(loaded.machine_fingerprint, machine.fingerprint());

    // Deploying on the machine it was trained on passes.
    let ok = Framework {
        executor: Executor::new(machine.clone()),
        predictor: loaded.clone(),
    };
    ok.validate().unwrap();

    // A different 3-device machine (arity matches, identity does not).
    let foreign = Framework {
        executor: Executor::new(machines::by_name("biglittle")),
        predictor: loaded.clone(),
    };
    let err = foreign.validate().unwrap_err();
    assert!(matches!(err, PredictError::MachineMismatch { .. }), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("mc2") && msg.contains("biglittle"), "{msg}");

    // The same machine after a profile edit: fingerprint guard fires.
    let stale = Framework {
        executor: Executor::new(drifted(machine)),
        predictor: loaded,
    };
    let err = stale.validate().unwrap_err();
    assert!(
        matches!(err, PredictError::MachineFingerprintMismatch { .. }),
        "{err}"
    );
    assert!(err.to_string().contains("device profiles changed"), "{err}");
}
