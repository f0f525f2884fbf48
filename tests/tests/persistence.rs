//! Persistence: the training database and trained predictors survive a
//! JSON round-trip (the deployment phase loads the offline-generated model
//! from disk).

use hetpart_core::{
    collect_training_db, FeatureSet, HarnessConfig, PartitionPredictor, TrainingDb,
};
use hetpart_ml::ModelConfig;
use hetpart_oclsim::{machines, Machine};

#[test]
fn training_db_roundtrips_through_disk() {
    let benches: Vec<_> = hetpart_suite::all()
        .into_iter()
        .filter(|b| ["vec_add", "spmv_csr"].contains(&b.name))
        .collect();
    let cfg = HarnessConfig {
        sizes_per_benchmark: 2,
        sample_items: 16,
        step_tenths: 5,
        ..HarnessConfig::quick()
    };
    let db = collect_training_db(&machines::mc1(), &benches, &cfg).unwrap();
    let dir = std::env::temp_dir().join("hetpart_persistence_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.json");
    db.save(&path).unwrap();
    let loaded = TrainingDb::load(&path).unwrap();
    assert_eq!(db, loaded);
    std::fs::remove_file(&path).ok();
}

#[test]
fn predictor_roundtrips_and_predicts_identically() {
    let benches: Vec<_> = hetpart_suite::all()
        .into_iter()
        .filter(|b| ["triad", "nbody", "kmeans"].contains(&b.name))
        .collect();
    let cfg = HarnessConfig {
        sizes_per_benchmark: 2,
        sample_items: 16,
        step_tenths: 5,
        ..HarnessConfig::quick()
    };
    let db = collect_training_db(&machines::mc2(), &benches, &cfg).unwrap();
    for model in [
        ModelConfig::Knn { k: 3 },
        ModelConfig::Tree(Default::default()),
    ] {
        let p = PartitionPredictor::train(&db, &model, FeatureSet::Both);
        let js = serde_json::to_string(&p).unwrap();
        let q: PartitionPredictor = serde_json::from_str(&js).unwrap();
        for r in &db.records {
            let f = r.features(FeatureSet::Both);
            assert_eq!(p.predict_vec(&f), q.predict_vec(&f));
        }
    }
}

#[test]
fn mc2_database_persists_under_schema_v2_and_indexes_fast() {
    // A freshly measured mc2 database must round-trip under the current
    // schema version (a drifted file fails loudly instead of training
    // silently wrong), and building its dataset must stay cheap — the
    // map-indexed label lookup replaced O(records x classes) linear
    // scans.
    let benches: Vec<_> = hetpart_suite::all()
        .into_iter()
        .filter(|b| ["vec_add", "nbody", "sgemm"].contains(&b.name))
        .collect();
    let cfg = HarnessConfig {
        sizes_per_benchmark: 2,
        sample_items: 16,
        step_tenths: 5,
        ..HarnessConfig::quick()
    };
    let fresh = collect_training_db(&machines::mc2(), &benches, &cfg).unwrap();
    let dir = std::env::temp_dir().join("hetpart_persistence_v2_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("training_db_mc2.json");
    fresh.save(&path).unwrap();
    let db = TrainingDb::load(&path).expect("v2 database loads under the current schema");
    assert_eq!(db, fresh);
    std::fs::remove_dir_all(&dir).ok();

    // The locally regenerated artifact (written by the train_and_deploy
    // example; gitignored, so it only exists after a local run) must
    // carry the current schema too.
    let artifact = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../reports/training_db_mc2.json"
    ));
    if artifact.exists() {
        let shipped = TrainingDb::load(artifact)
            .expect("reports/training_db_mc2.json is drifted — rerun train_and_deploy");
        assert_eq!(shipped.machine, "mc2");
    }

    let t = std::time::Instant::now();
    let mut rows = 0usize;
    for _ in 0..50 {
        let (data, space) = db.to_dataset(FeatureSet::Both);
        assert!(!space.is_empty());
        rows += data.len();
    }
    assert_eq!(rows, 50 * db.records.len());
    assert!(
        t.elapsed().as_secs_f64() < 5.0,
        "50 dataset builds took {:?} — indexing regression?",
        t.elapsed()
    );
}

#[test]
fn machines_roundtrip_through_json() {
    for m in machines::paper_machines() {
        let js = serde_json::to_string_pretty(&m).unwrap();
        let back: Machine = serde_json::from_str(&js).unwrap();
        assert_eq!(m, back);
    }
}

#[test]
fn quick_mlp_predictor_matches_the_golden_hash() {
    // Locks the fitted ANN bit for bit: the serializer prints every f64 in
    // its shortest round-trip form, so the pipeline JSON (scaler + weights)
    // determines and is determined by the parameters' bit patterns.
    let benches: Vec<_> = hetpart_suite::all()
        .into_iter()
        .filter(|b| ["vec_add", "nbody", "sgemm", "kmeans"].contains(&b.name))
        .collect();
    let cfg = HarnessConfig {
        sizes_per_benchmark: 2,
        sample_items: 16,
        step_tenths: 5,
        ..HarnessConfig::quick()
    };
    let db = collect_training_db(&machines::mc2(), &benches, &cfg).unwrap();
    let p = PartitionPredictor::train(&db, &cfg.model, FeatureSet::Both);
    let js = serde_json::to_string(&p.pipeline).unwrap();
    let hash = js.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!(
        hash, 0xe2cb_bcdb_1f5b_baae,
        "fitted pipeline drifted: {hash:#018x}"
    );
}
