//! The training database: measured partition sweeps with the features of
//! each (program, problem size) pair.
//!
//! This is the paper's "database" that the training phase fills ("the
//! obtained performance measurements, together with the problem size
//! dependent features of the program, are collected and added to the
//! database") and from which the prediction model is generated.
//!
//! Two persistence shapes exist:
//!
//! * [`TrainingDb`] — the in-memory view (one machine, all records), saved
//!   as a single schema-versioned JSON file.
//! * [`ShardedDb`] — one **JSONL shard per (machine, program)** under a
//!   root directory. Records are appended as they are measured (a crashed
//!   training run resumes instead of restarting), shards load lazily, and
//!   shards collected on different processes or machines merge into a
//!   [`TrainingDb`] view via [`ShardedDb::merge`].
//!
//! Everything downstream of a database is **merge-stable**: the label
//! space is a canonical total order over partitions (not first-appearance
//! order) and datasets are built in a canonical record order, so shuffling
//! records, re-collecting shards, or merging them in any order yields
//! bit-identical trained predictors.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use hetpart_inspire::features::STATIC_FEATURE_NAMES;
use hetpart_ml::Dataset;
use hetpart_oclsim::Machine;
use hetpart_runtime::{Partition, PartitionSweep, SweepEntry, RUNTIME_FEATURE_NAMES};
use serde::{Deserialize, Serialize};

/// Schema version written into every persisted database (monolithic JSON
/// and JSONL shard headers alike). Bump when the on-disk record layout
/// changes; loads of a different version fail with a descriptive error
/// instead of silently training on drifted data.
pub const DB_SCHEMA_VERSION: u32 = 3;

/// Why a persisted database could not be loaded or merged.
#[derive(Debug)]
pub enum DbError {
    /// Filesystem failure (path included where known).
    Io { path: PathBuf, source: io::Error },
    /// The file is not valid JSON / does not match the record schema.
    Parse { path: PathBuf, detail: String },
    /// The file carries a different schema version than this build writes.
    SchemaVersion {
        path: PathBuf,
        found: Option<u64>,
        expected: u32,
    },
    /// A shard belongs to a different machine than the database it is
    /// being loaded or merged into.
    MachineMismatch {
        path: PathBuf,
        expected: String,
        found: String,
    },
    /// A shard carries the right machine *name* but a different hardware
    /// fingerprint — the device profiles changed between collection runs
    /// (edited profile JSON, different registry), so the measurements are
    /// not comparable even though the name matches.
    MachineFingerprintMismatch {
        path: PathBuf,
        machine: String,
        expected: u64,
        found: u64,
    },
    /// Two shards (or two lines of one shard) measured the same
    /// (program, size) pair — merging would double-count the record.
    DuplicateRecord { program: String, size: usize },
    /// [`ShardedDb::merge`] was called with no shard stores — usually a
    /// mis-computed shard list (wrong root path), not an empty machine.
    NoShards,
    /// The shard stores exist but hold no records, so there is nothing to
    /// train a predictor on (the collection has not run yet, or ran on
    /// another root).
    NoRecords { machine: String },
    /// The shard store was collected under a different harness
    /// configuration than the resuming run — mixing the measurements
    /// would train on inconsistent sweeps and features.
    ConfigMismatch {
        path: PathBuf,
        expected: String,
        found: String,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            DbError::Parse { path, detail } => {
                write!(f, "{}: {detail}", path.display())
            }
            DbError::SchemaVersion {
                path,
                found,
                expected,
            } => match found {
                Some(v) => write!(
                    f,
                    "{}: database schema version {v}, this build reads version {expected} — \
                     regenerate it (e.g. `cargo run --release --example train_and_deploy`)",
                    path.display()
                ),
                None => write!(
                    f,
                    "{}: database has no schema version (written before v{expected}) — \
                     regenerate it (e.g. `cargo run --release --example train_and_deploy`)",
                    path.display()
                ),
            },
            DbError::MachineMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: shard was measured on machine `{found}` but this database is for \
                 `{expected}` — per-machine databases must not mix measurements",
                path.display()
            ),
            DbError::MachineFingerprintMismatch {
                path,
                machine,
                expected,
                found,
            } => write!(
                f,
                "{}: shard was measured on a machine named `{machine}` with hardware \
                 fingerprint {found:#018x}, but this run's `{machine}` fingerprints as \
                 {expected:#018x} — the device profiles changed between runs; use a \
                 fresh shard root (or the original machine profile)",
                path.display()
            ),
            DbError::DuplicateRecord { program, size } => write!(
                f,
                "duplicate training record for `{program}` (n = {size}) — the same \
                 (program, size) pair was measured in more than one shard"
            ),
            DbError::NoShards => write!(
                f,
                "cannot merge zero shard stores — no machine or records to build a \
                 database from (is the shard root path right?)"
            ),
            DbError::NoRecords { machine } => write!(
                f,
                "the shard stores for machine `{machine}` hold no training records — \
                 collect into them first (is the shard root path right?)"
            ),
            DbError::ConfigMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: shards were collected under config `{found}` but this run uses \
                 `{expected}` — resuming would mix measurements taken under \
                 incompatible settings; use a fresh shard root (or the original config)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Which feature columns a model sees (the E2 ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureSet {
    /// Compile-time program features only.
    StaticOnly,
    /// Problem-size-dependent runtime features only.
    RuntimeOnly,
    /// Both — the paper's configuration.
    Both,
}

impl FeatureSet {
    /// Human-readable label for tables.
    pub fn label(self) -> &'static str {
        match self {
            FeatureSet::StaticOnly => "static only",
            FeatureSet::RuntimeOnly => "runtime only",
            FeatureSet::Both => "static + runtime",
        }
    }
}

/// One training pattern: "the static features of a program, its runtime
/// features for a certain problem size as well as the best task
/// partitioning for the given program with the current input size" —
/// plus the full sweep so evaluation can price *any* partitioning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingRecord {
    pub program: String,
    /// Dense benchmark index (the cross-validation group). Canonical
    /// databases assign it as the rank of `program` among the database's
    /// distinct program names, so it survives shard merges unchanged.
    pub program_idx: usize,
    /// Primary problem-size parameter.
    pub size: usize,
    pub static_features: Vec<f64>,
    pub runtime_features: Vec<f64>,
    pub sweep: PartitionSweep,
}

impl TrainingRecord {
    /// The oracle-best entry of this record's sweep.
    pub fn best(&self) -> &SweepEntry {
        self.sweep.best()
    }

    /// Feature vector for a feature-set choice.
    pub fn features(&self, set: FeatureSet) -> Vec<f64> {
        match set {
            FeatureSet::StaticOnly => self.static_features.clone(),
            FeatureSet::RuntimeOnly => self.runtime_features.clone(),
            FeatureSet::Both => {
                let mut v = self.static_features.clone();
                v.extend_from_slice(&self.runtime_features);
                v
            }
        }
    }
}

/// Feature names for a feature-set choice, aligned with
/// [`TrainingRecord::features`].
pub fn feature_names(set: FeatureSet) -> Vec<String> {
    let stat = STATIC_FEATURE_NAMES.iter().map(|s| s.to_string());
    let rt = RUNTIME_FEATURE_NAMES.iter().map(|s| s.to_string());
    match set {
        FeatureSet::StaticOnly => stat.collect(),
        FeatureSet::RuntimeOnly => rt.collect(),
        FeatureSet::Both => stat.chain(rt).collect(),
    }
}

/// On-disk shape of a monolithic [`TrainingDb`] file.
#[derive(Serialize, Deserialize)]
struct DbFile {
    version: u32,
    machine: String,
    machine_fingerprint: u64,
    records: Vec<TrainingRecord>,
}

/// The complete training database for one machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingDb {
    /// Machine name the measurements were taken on.
    pub machine: String,
    /// Hardware fingerprint ([`hetpart_oclsim::Machine::fingerprint`]) of
    /// that machine at collection time — catches profiles that changed
    /// under an unchanged name.
    pub machine_fingerprint: u64,
    pub records: Vec<TrainingRecord>,
}

impl TrainingDb {
    /// Persist as schema-versioned JSON. Serializes the fields in place
    /// (same layout as `DbFile`) instead of deep-cloning the records
    /// into a wrapper first.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        use serde::{Serialize as _, Value};
        let file = Value::Map(vec![
            ("version".to_string(), DB_SCHEMA_VERSION.to_value()),
            ("machine".to_string(), self.machine.to_value()),
            (
                "machine_fingerprint".to_string(),
                self.machine_fingerprint.to_value(),
            ),
            ("records".to_string(), self.records.to_value()),
        ]);
        let json = serde_json::to_string_pretty(&file).map_err(io::Error::other)?;
        fs::write(path, json)
    }

    /// Load from JSON, rejecting files of a different schema version with
    /// a descriptive error naming the file and both versions.
    pub fn load(path: &Path) -> Result<Self, DbError> {
        let data = fs::read_to_string(path).map_err(|source| DbError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let value: serde::Value = serde_json::from_str(&data).map_err(|e| DbError::Parse {
            path: path.to_path_buf(),
            detail: format!("not valid JSON: {e}"),
        })?;
        check_version(value.get("version"), path)?;
        let file: DbFile = serde_json::from_value(&value).map_err(|e| DbError::Parse {
            path: path.to_path_buf(),
            detail: format!("schema version matches but the records do not parse: {e}"),
        })?;
        Ok(Self {
            machine: file.machine,
            machine_fingerprint: file.machine_fingerprint,
            records: file.records,
        })
    }

    /// The distinct oracle-best partitionings in a **canonical total
    /// order** (sorted by their share vectors) — the label space of the
    /// classification problem.
    ///
    /// The order is a function of the record *set* only: shuffling
    /// records, merging shards, or re-collecting in a different batch
    /// order cannot permute class indices. (It used to be first-appearance
    /// order, which silently corrupted every saved predictor whenever a
    /// merge or re-collection reordered records.)
    pub fn label_space(&self) -> Vec<Partition> {
        let space: BTreeSet<Partition> = self
            .records
            .iter()
            .map(|r| r.best().partition.clone())
            .collect();
        space.into_iter().collect()
    }

    /// Indices of `records` in canonical order: sorted by
    /// (program name, size), ties keeping insertion order. Dataset rows
    /// and cross-validation predictions follow this order; for canonical
    /// databases (everything produced by collection or merge) it is the
    /// identity.
    pub fn canonical_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.records.len()).collect();
        order.sort_by(|&a, &b| {
            let (ra, rb) = (&self.records[a], &self.records[b]);
            ra.program
                .cmp(&rb.program)
                .then(ra.size.cmp(&rb.size))
                .then(a.cmp(&b))
        });
        order
    }

    /// Put the database into canonical form: records sorted by
    /// (program name, size) and `program_idx` reassigned as the rank of
    /// the program name among the database's distinct names. Collection
    /// and merge always return canonical databases; machine- and
    /// process-local benchmark orderings cannot leak into the dataset.
    pub fn canonicalize(&mut self) {
        self.records
            .sort_by(|a, b| a.program.cmp(&b.program).then(a.size.cmp(&b.size)));
        let names: BTreeSet<&str> = self.records.iter().map(|r| r.program.as_str()).collect();
        let rank: HashMap<&str, usize> = names.into_iter().zip(0..).collect();
        let ranks: Vec<usize> = self
            .records
            .iter()
            .map(|r| rank[r.program.as_str()])
            .collect();
        for (r, idx) in self.records.iter_mut().zip(ranks) {
            r.program_idx = idx;
        }
    }

    /// Build the ML dataset: features per `set`, labels = dense indices
    /// into [`TrainingDb::label_space`], groups = program index.
    ///
    /// Rows follow [`TrainingDb::canonical_order`] and labels index the
    /// canonical label space, so the dataset — and every predictor fitted
    /// on it — depends only on the record *set*, never on record order.
    pub fn to_dataset(&self, set: FeatureSet) -> (Dataset, Vec<Partition>) {
        let space = self.label_space();
        let class_of: HashMap<&Partition, usize> = space.iter().zip(0..).collect();
        // Use the canonical names when the stored vectors have the
        // canonical dimensions, generic names otherwise (foreign DBs).
        let canonical = feature_names(set);
        let names = match self.records.first() {
            Some(r) if r.features(set).len() == canonical.len() => canonical,
            Some(r) => (0..r.features(set).len())
                .map(|i| format!("f{i}"))
                .collect(),
            None => canonical,
        };
        let mut data = Dataset::new(names);
        for i in self.canonical_order() {
            let r = &self.records[i];
            // `label_space` is the set of every record's best partition.
            #[allow(clippy::expect_used)]
            let label = *class_of
                .get(&r.best().partition)
                .expect("label space covers every best partition");
            data.push(r.features(set), label, r.program_idx);
        }
        (data, space)
    }
}

// ---------------------------------------------------------------------
// Sharded persistence
// ---------------------------------------------------------------------

/// First line of every shard file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ShardHeader {
    version: u32,
    machine: String,
    machine_fingerprint: u64,
    program: String,
}

/// A training database sharded by (machine, program) under a root
/// directory:
///
/// ```text
/// <root>/<machine>/<program>.jsonl
/// ```
///
/// Each shard is a JSONL stream — a `ShardHeader` line (schema version,
/// machine, program) followed by one [`TrainingRecord`] per line, appended
/// as records are measured. Appends are crash-consistent: a torn final
/// line (the process died mid-write) is detected and dropped on load, and
/// the resumed run simply re-measures that record.
///
/// Shards collected by different processes — or different machines'
/// subtrees of a shared filesystem — combine with [`ShardedDb::merge`]
/// into a canonical [`TrainingDb`] whose label space and dataset are
/// independent of shard order.
#[derive(Debug, Clone)]
pub struct ShardedDb {
    dir: PathBuf,
    machine: String,
    machine_fingerprint: u64,
}

impl ShardedDb {
    /// Open (creating if needed) the shard directory for one machine under
    /// `root`. The store is bound to the machine's registry name *and* its
    /// hardware fingerprint: shards written by a differently-configured
    /// machine of the same name are rejected on load.
    pub fn open(root: impl Into<PathBuf>, machine: &Machine) -> Result<Self, DbError> {
        let dir = root.into().join(&machine.name);
        fs::create_dir_all(&dir).map_err(|source| DbError::Io {
            path: dir.clone(),
            source,
        })?;
        Ok(Self {
            dir,
            machine: machine.name.clone(),
            machine_fingerprint: machine.fingerprint(),
        })
    }

    /// The machine these shards were measured on.
    pub fn machine(&self) -> &str {
        &self.machine
    }

    /// Hardware fingerprint of the machine these shards were measured on.
    pub fn machine_fingerprint(&self) -> u64 {
        self.machine_fingerprint
    }

    /// The directory holding this machine's shard files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of one program's shard file.
    pub fn shard_path(&self, program: &str) -> PathBuf {
        self.dir.join(format!("{program}.jsonl"))
    }

    /// Path of the store's collection-config marker.
    fn config_path(&self) -> PathBuf {
        self.dir.join("CONFIG")
    }

    /// The recorded collection-config fingerprint, if any.
    pub fn config_marker(&self) -> Result<Option<String>, DbError> {
        match fs::read_to_string(self.config_path()) {
            Ok(s) => Ok(Some(s.trim().to_string())),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(source) => Err(DbError::Io {
                path: self.config_path(),
                source,
            }),
        }
    }

    /// Record the collection-config fingerprint of this store, or verify
    /// it matches the one recorded by an earlier run. Resuming with a
    /// different oracle configuration (sweep granularity, sample count,
    /// sweep mode) would silently mix incomparable measurements — the
    /// same failure class the schema version guards against, one level
    /// up.
    pub fn check_or_record_config(&self, fingerprint: &str) -> Result<(), DbError> {
        match self.config_marker()? {
            Some(found) if found == fingerprint => Ok(()),
            Some(found) => Err(DbError::ConfigMismatch {
                path: self.config_path(),
                expected: fingerprint.to_string(),
                found,
            }),
            None => {
                // Write-then-rename so a crash cannot leave a torn marker
                // that would block every future resume.
                let tmp = self.dir.join("CONFIG.tmp");
                let io_err = |path: PathBuf| {
                    move |source| DbError::Io {
                        path: path.clone(),
                        source,
                    }
                };
                fs::write(&tmp, format!("{fingerprint}\n")).map_err(io_err(tmp.clone()))?;
                fs::rename(&tmp, self.config_path()).map_err(io_err(self.config_path()))
            }
        }
    }

    /// Append one measured record to its program's shard, creating the
    /// shard (header line first) if this is the program's first record.
    ///
    /// If the shard ends in a torn line (a previous run crashed
    /// mid-append), the tail is truncated back to the last complete line
    /// first — appending after the fragment would glue two records into
    /// one unparseable line. Shards are single-writer: one process owns a
    /// (machine, program) shard at a time.
    pub fn append(&self, record: &TrainingRecord) -> Result<(), DbError> {
        use std::io::{Read, Seek, SeekFrom};
        let path = self.shard_path(&record.program);
        let io_err = |source| DbError::Io {
            path: path.clone(),
            source,
        };
        let mut file = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(io_err)?;
        let len = file.metadata().map_err(io_err)?.len();
        let mut empty = len == 0;
        if len > 0 {
            file.seek(SeekFrom::End(-1)).map_err(io_err)?;
            let mut last = [0u8; 1];
            file.read_exact(&mut last).map_err(io_err)?;
            if last[0] != b'\n' {
                // Torn tail from a crashed append: drop the fragment (the
                // caller re-measures that record).
                file.seek(SeekFrom::Start(0)).map_err(io_err)?;
                let mut content = String::new();
                file.read_to_string(&mut content).map_err(io_err)?;
                let keep = content.rfind('\n').map_or(0, |i| i + 1) as u64;
                file.set_len(keep).map_err(io_err)?;
                empty = keep == 0;
            }
        }
        file.seek(SeekFrom::End(0)).map_err(io_err)?;
        let mut out = String::new();
        if empty {
            let header = ShardHeader {
                version: DB_SCHEMA_VERSION,
                machine: self.machine.clone(),
                machine_fingerprint: self.machine_fingerprint,
                program: record.program.clone(),
            };
            out.push_str(&serde_json::to_string(&header).map_err(|e| DbError::Parse {
                path: path.clone(),
                detail: e.to_string(),
            })?);
            out.push('\n');
        }
        out.push_str(&serde_json::to_string(record).map_err(|e| DbError::Parse {
            path: path.clone(),
            detail: e.to_string(),
        })?);
        out.push('\n');
        file.write_all(out.as_bytes()).map_err(io_err)
    }

    /// Programs with a shard file, sorted by name.
    pub fn programs(&self) -> Result<Vec<String>, DbError> {
        let entries = fs::read_dir(&self.dir).map_err(|source| DbError::Io {
            path: self.dir.clone(),
            source,
        })?;
        let mut programs = Vec::new();
        for entry in entries {
            let path = entry
                .map_err(|source| DbError::Io {
                    path: self.dir.clone(),
                    source,
                })?
                .path();
            if path.extension().is_some_and(|e| e == "jsonl") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    programs.push(stem.to_string());
                }
            }
        }
        programs.sort();
        Ok(programs)
    }

    /// Load one program's shard: validate the header (schema version,
    /// machine, program), parse the record lines, and drop a torn final
    /// line (crash mid-append) so the caller can re-measure it.
    ///
    /// A crash inside the shard's *first* append can leave an empty file
    /// or a torn header fragment; both read as an empty shard (the next
    /// append repairs the file), not an error — otherwise a resumed run
    /// could never get past its own crash. A *complete* header line that
    /// is wrong (legacy version, foreign machine) still fails loudly.
    pub fn load_shard(&self, program: &str) -> Result<Vec<TrainingRecord>, DbError> {
        let path = self.shard_path(program);
        let data = fs::read_to_string(&path).map_err(|source| DbError::Io {
            path: path.clone(),
            source,
        })?;
        // `append` writes whole lines (content + '\n') in one write, so an
        // unterminated final line is a torn crash artifact *even when its
        // prefix happens to parse as valid JSON* — counting such a record
        // as measured while `append`'s repair truncates it would silently
        // lose it from later merges. Strip the torn tail up front; every
        // surviving line is complete and must parse, loudly.
        let body = if data.ends_with('\n') {
            data.as_str()
        } else {
            &data[..data.rfind('\n').map_or(0, |i| i + 1)]
        };
        let mut lines = body.lines().enumerate();
        let Some((_, header_line)) = lines.next() else {
            // Empty file, or only a torn first line: a crash inside the
            // shard's first append. Reads as an empty shard (the next
            // append repairs the file) so a resumed run can get past its
            // own crash.
            return Ok(Vec::new());
        };
        let header_value: serde::Value =
            serde_json::from_str(header_line).map_err(|e| DbError::Parse {
                path: path.clone(),
                detail: format!("header line is not valid JSON: {e}"),
            })?;
        check_version(header_value.get("version"), &path)?;
        let header: ShardHeader =
            serde_json::from_value(&header_value).map_err(|e| DbError::Parse {
                path: path.clone(),
                detail: format!("bad shard header: {e}"),
            })?;
        if header.machine != self.machine {
            return Err(DbError::MachineMismatch {
                path,
                expected: self.machine.clone(),
                found: header.machine,
            });
        }
        if header.machine_fingerprint != self.machine_fingerprint {
            return Err(DbError::MachineFingerprintMismatch {
                path,
                machine: self.machine.clone(),
                expected: self.machine_fingerprint,
                found: header.machine_fingerprint,
            });
        }
        if header.program != program {
            return Err(DbError::Parse {
                path,
                detail: format!(
                    "shard file is named `{program}` but its header says `{}`",
                    header.program
                ),
            });
        }
        let mut records = Vec::new();
        for (lineno, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let r: TrainingRecord = serde_json::from_str(line).map_err(|e| DbError::Parse {
                path: path.clone(),
                detail: format!("line {}: {e}", lineno + 1),
            })?;
            if r.program != program {
                return Err(DbError::Parse {
                    path,
                    detail: format!(
                        "line {}: record for `{}` inside the `{program}` shard",
                        lineno + 1,
                        r.program
                    ),
                });
            }
            records.push(r);
        }
        Ok(records)
    }

    /// The (program, size) pairs already measured into these shards — the
    /// resume set of an interrupted training run. Torn tails are excluded
    /// (they will be re-measured).
    pub fn existing_keys(&self) -> Result<HashSet<(String, usize)>, DbError> {
        let mut keys = HashSet::new();
        for program in self.programs()? {
            for r in self.load_shard(&program)? {
                keys.insert((r.program, r.size));
            }
        }
        Ok(keys)
    }

    /// Load every shard of this root into a canonical [`TrainingDb`].
    pub fn to_training_db(&self) -> Result<TrainingDb, DbError> {
        Self::merge(&[self])
    }

    /// Merge shards collected on different processes (or different roots
    /// of a shared filesystem) into one canonical [`TrainingDb`].
    ///
    /// All inputs must belong to the same machine; a (program, size) pair
    /// measured in more than one shard is an error (merging would
    /// double-count it). The result is canonical — records sorted by
    /// (program, size), `program_idx` ranked by name — so the merged
    /// database, its label space, and every predictor trained from it are
    /// **bit-identical regardless of shard order**, and identical to a
    /// monolithic collection of the same measurements.
    pub fn merge(parts: &[&ShardedDb]) -> Result<TrainingDb, DbError> {
        let first = parts.first().ok_or(DbError::NoShards)?;
        let machine = first.machine.clone();
        let machine_fingerprint = first.machine_fingerprint;
        let mut records: Vec<TrainingRecord> = Vec::new();
        let mut seen: HashSet<(String, usize)> = HashSet::new();
        // Stores carrying a collection-config marker must all agree —
        // measurements taken under different oracle settings are not
        // comparable.
        let mut config: Option<String> = None;
        for part in parts {
            if let Some(found) = part.config_marker()? {
                match &config {
                    Some(expected) if *expected != found => {
                        return Err(DbError::ConfigMismatch {
                            path: part.config_path(),
                            expected: expected.clone(),
                            found,
                        });
                    }
                    _ => config = Some(found),
                }
            }
        }
        for part in parts {
            if part.machine != machine {
                return Err(DbError::MachineMismatch {
                    path: part.dir.clone(),
                    expected: machine,
                    found: part.machine.clone(),
                });
            }
            if part.machine_fingerprint != machine_fingerprint {
                return Err(DbError::MachineFingerprintMismatch {
                    path: part.dir.clone(),
                    machine,
                    expected: machine_fingerprint,
                    found: part.machine_fingerprint,
                });
            }
            for program in part.programs()? {
                for r in part.load_shard(&program)? {
                    if !seen.insert((r.program.clone(), r.size)) {
                        return Err(DbError::DuplicateRecord {
                            program: r.program,
                            size: r.size,
                        });
                    }
                    records.push(r);
                }
            }
        }
        let mut db = TrainingDb {
            machine,
            machine_fingerprint,
            records,
        };
        db.canonicalize();
        Ok(db)
    }
}

/// Validate a persisted `version` field against [`DB_SCHEMA_VERSION`].
fn check_version(version: Option<&serde::Value>, path: &Path) -> Result<(), DbError> {
    let found = match version {
        Some(serde::Value::U64(v)) => Some(*v),
        Some(serde::Value::I64(v)) if *v >= 0 => Some(*v as u64),
        _ => None,
    };
    if found != Some(u64::from(DB_SCHEMA_VERSION)) {
        return Err(DbError::SchemaVersion {
            path: path.to_path_buf(),
            found,
            expected: DB_SCHEMA_VERSION,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetpart_oclsim::machines;
    use hetpart_runtime::SweepEntry;

    fn record(program: &str, idx: usize, size: usize, best: Vec<u8>) -> TrainingRecord {
        let sweep = PartitionSweep {
            entries: vec![
                SweepEntry {
                    partition: Partition::from_tenths(best),
                    time: 1.0,
                },
                SweepEntry {
                    partition: Partition::cpu_only(3),
                    time: 2.0,
                },
                SweepEntry {
                    partition: Partition::gpu_only(3),
                    time: 3.0,
                },
            ],
        };
        TrainingRecord {
            program: program.into(),
            program_idx: idx,
            size,
            static_features: vec![1.0, 2.0],
            runtime_features: vec![3.0],
            sweep,
        }
    }

    fn db() -> TrainingDb {
        TrainingDb {
            machine: "mc1".into(),
            machine_fingerprint: machines::mc1().fingerprint(),
            records: vec![
                record("a", 0, 64, vec![5, 5, 0]),
                record("a", 0, 128, vec![0, 5, 5]),
                record("b", 1, 64, vec![5, 5, 0]),
            ],
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn label_space_is_canonical_not_first_appearance() {
        let space = db().label_space();
        assert_eq!(space.len(), 2);
        // Sorted by share vectors: [0,5,5] < [5,5,0], even though [5,5,0]
        // appears first in the records.
        assert_eq!(space[0], Partition::from_tenths(vec![0, 5, 5]));
        assert_eq!(space[1], Partition::from_tenths(vec![5, 5, 0]));
    }

    #[test]
    fn label_space_is_independent_of_record_order() {
        let forward = db();
        let mut reversed = db();
        reversed.records.reverse();
        assert_eq!(forward.label_space(), reversed.label_space());
    }

    #[test]
    fn to_dataset_builds_dense_labels_and_groups() {
        let (data, space) = db().to_dataset(FeatureSet::Both);
        assert_eq!(data.len(), 3);
        assert_eq!(data.dim(), 3); // 2 static + 1 runtime (test fixtures)
        assert_eq!(data.y, vec![1, 0, 1]);
        assert_eq!(data.groups, vec![0, 0, 1]);
        assert_eq!(space.len(), 2);
    }

    #[test]
    fn to_dataset_is_independent_of_record_order() {
        // Shuffle-proof datasets are what make shard merges and
        // re-collections train bit-identical predictors.
        let forward = db().to_dataset(FeatureSet::Both);
        let mut shuffled = db();
        shuffled.records.swap(0, 2);
        shuffled.records.swap(1, 2);
        assert_eq!(shuffled.to_dataset(FeatureSet::Both), forward);
    }

    #[test]
    fn canonicalize_sorts_and_ranks_program_indices() {
        let mut d = TrainingDb {
            machine: "mc1".into(),
            machine_fingerprint: machines::mc1().fingerprint(),
            records: vec![
                record("zeta", 0, 64, vec![5, 5, 0]),
                record("alpha", 1, 128, vec![0, 5, 5]),
                record("alpha", 1, 64, vec![0, 5, 5]),
            ],
        };
        d.canonicalize();
        let keys: Vec<(&str, usize, usize)> = d
            .records
            .iter()
            .map(|r| (r.program.as_str(), r.size, r.program_idx))
            .collect();
        assert_eq!(
            keys,
            vec![("alpha", 64, 0), ("alpha", 128, 0), ("zeta", 64, 1)]
        );
        assert_eq!(d.canonical_order(), vec![0, 1, 2]);
    }

    #[test]
    fn feature_sets_project_columns() {
        let r = record("a", 0, 64, vec![10, 0, 0]);
        assert_eq!(r.features(FeatureSet::StaticOnly), vec![1.0, 2.0]);
        assert_eq!(r.features(FeatureSet::RuntimeOnly), vec![3.0]);
        assert_eq!(r.features(FeatureSet::Both), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn feature_names_match_real_dims() {
        use hetpart_inspire::features::STATIC_FEATURE_DIM;
        use hetpart_runtime::RUNTIME_FEATURE_DIM;
        assert_eq!(
            feature_names(FeatureSet::StaticOnly).len(),
            STATIC_FEATURE_DIM
        );
        assert_eq!(
            feature_names(FeatureSet::RuntimeOnly).len(),
            RUNTIME_FEATURE_DIM
        );
        assert_eq!(
            feature_names(FeatureSet::Both).len(),
            STATIC_FEATURE_DIM + RUNTIME_FEATURE_DIM
        );
    }

    #[test]
    fn save_load_roundtrip_carries_the_schema_version() {
        let d = db();
        let dir = tmp_dir("hetpart_db_test");
        let path = dir.join("db.json");
        d.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"version\""));
        let back = TrainingDb::load(&path).unwrap();
        assert_eq!(d, back);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn load_rejects_missing_and_mismatched_schema_versions() {
        let dir = tmp_dir("hetpart_db_version_test");
        // Pre-versioning file shape (what PR 4 and earlier wrote).
        let legacy = dir.join("legacy.json");
        std::fs::write(&legacy, r#"{"machine": "mc1", "records": []}"#).unwrap();
        let err = TrainingDb::load(&legacy).unwrap_err();
        assert!(
            matches!(err, DbError::SchemaVersion { found: None, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("no schema version"), "{err}");

        let future = dir.join("future.json");
        std::fs::write(
            &future,
            format!(
                r#"{{"version": {}, "machine": "mc1", "records": []}}"#,
                DB_SCHEMA_VERSION + 1
            ),
        )
        .unwrap();
        let err = TrainingDb::load(&future).unwrap_err();
        assert!(matches!(
            err,
            DbError::SchemaVersion {
                found: Some(v), ..
            } if v == u64::from(DB_SCHEMA_VERSION) + 1
        ));
        assert!(err.to_string().contains("regenerate"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn shard_append_load_roundtrip() {
        let root = tmp_dir("hetpart_shard_roundtrip");
        let shards = ShardedDb::open(&root, &machines::mc1()).unwrap();
        let d = db();
        for r in &d.records {
            shards.append(r).unwrap();
        }
        assert_eq!(shards.programs().unwrap(), vec!["a", "b"]);
        assert_eq!(shards.load_shard("a").unwrap(), d.records[..2].to_vec());
        assert_eq!(shards.load_shard("b").unwrap(), d.records[2..].to_vec());
        let merged = shards.to_training_db().unwrap();
        assert_eq!(merged, d); // db() is already canonical
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn torn_final_line_is_dropped_and_resumable() {
        let root = tmp_dir("hetpart_shard_torn");
        let shards = ShardedDb::open(&root, &machines::mc1()).unwrap();
        let d = db();
        shards.append(&d.records[0]).unwrap();
        shards.append(&d.records[1]).unwrap();
        // Simulate a crash mid-append: chop the last line in half.
        let path = shards.shard_path("a");
        let text = std::fs::read_to_string(&path).unwrap();
        let keep = text.len() - 40;
        std::fs::write(&path, &text[..keep]).unwrap();
        let records = shards.load_shard("a").unwrap();
        assert_eq!(records, vec![d.records[0].clone()]);
        let keys = shards.existing_keys().unwrap();
        assert!(keys.contains(&("a".to_string(), 64)));
        assert!(
            !keys.contains(&("a".to_string(), 128)),
            "torn record must be re-measured"
        );
        // Resuming appends over the torn tail repairs it: the fragment is
        // truncated away, the re-measured record lands cleanly.
        shards.append(&d.records[1]).unwrap();
        assert_eq!(shards.load_shard("a").unwrap(), d.records[..2].to_vec());

        // A torn tail whose prefix happens to be *complete valid JSON*
        // (the crash cut exactly between the record and its newline) must
        // also read as torn: `append`'s repair truncates it, so counting
        // it as measured would silently lose it from later merges.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end_matches('\n')).unwrap();
        assert_eq!(
            shards.load_shard("a").unwrap(),
            d.records[..1].to_vec(),
            "unterminated-but-parseable tail must be dropped, matching append's repair"
        );
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn newline_terminated_corrupt_tail_is_an_error_not_a_torn_append() {
        // `append` writes record + '\n' in one write, so a genuine crash
        // artifact never ends in a newline. A corrupt *terminated* final
        // line is external damage: a pure merge would silently lose the
        // measurement if it were forgiven.
        use std::io::Write as _;
        let root = tmp_dir("hetpart_shard_terminated_tail");
        let shards = ShardedDb::open(&root, &machines::mc1()).unwrap();
        shards.append(&db().records[0]).unwrap();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(shards.shard_path("a"))
            .unwrap();
        f.write_all(b"{garbled record}\n").unwrap();
        drop(f);
        let err = shards.load_shard("a").unwrap_err();
        assert!(matches!(err, DbError::Parse { .. }), "{err}");
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn config_marker_guards_resume_and_merge() {
        let root_a = tmp_dir("hetpart_shard_config_a");
        let root_b = tmp_dir("hetpart_shard_config_b");
        let a = ShardedDb::open(&root_a, &machines::mc1()).unwrap();
        // First run records, identical runs pass, a drifted run fails.
        a.check_or_record_config("step=5;samples=32").unwrap();
        a.check_or_record_config("step=5;samples=32").unwrap();
        let err = a.check_or_record_config("step=2;samples=16").unwrap_err();
        assert!(matches!(err, DbError::ConfigMismatch { .. }), "{err}");
        assert!(err.to_string().contains("incompatible"), "{err}");
        // The marker file is not mistaken for a program shard.
        assert!(a.programs().unwrap().is_empty());

        // Merging stores with disagreeing markers is refused too.
        let b = ShardedDb::open(&root_b, &machines::mc1()).unwrap();
        b.check_or_record_config("step=2;samples=16").unwrap();
        a.append(&db().records[0]).unwrap();
        b.append(&db().records[2]).unwrap();
        let err = ShardedDb::merge(&[&a, &b]).unwrap_err();
        assert!(matches!(err, DbError::ConfigMismatch { .. }), "{err}");
        std::fs::remove_dir_all(root_a).ok();
        std::fs::remove_dir_all(root_b).ok();
    }

    #[test]
    fn merging_zero_stores_is_an_error() {
        assert!(matches!(ShardedDb::merge(&[]), Err(DbError::NoShards)));
    }

    #[test]
    fn mid_file_corruption_is_a_loud_error() {
        // Only a *final* torn line is crash tolerance; junk between two
        // good lines is real corruption and must not be skipped silently.
        let root = tmp_dir("hetpart_shard_corrupt");
        let shards = ShardedDb::open(&root, &machines::mc1()).unwrap();
        let d = db();
        shards.append(&d.records[0]).unwrap();
        let path = shards.shard_path("a");
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{this is not a record\n");
        std::fs::write(&path, text).unwrap();
        shards.append(&d.records[1]).unwrap();
        let err = shards.load_shard("a").unwrap_err();
        assert!(matches!(err, DbError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("line 3"), "{err}");
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn crash_inside_the_first_append_still_resumes() {
        // A collector can die after creating the shard file but before —
        // or midway through — writing the header. Both must read as an
        // empty shard (so the resumed run re-measures and the next append
        // repairs the file), never as a permanent parse error.
        let root = tmp_dir("hetpart_shard_torn_header");
        let shards = ShardedDb::open(&root, &machines::mc1()).unwrap();
        let d = db();

        // Crash before any byte landed: empty file.
        std::fs::write(shards.shard_path("a"), "").unwrap();
        assert_eq!(shards.load_shard("a").unwrap(), Vec::new());
        assert!(shards.existing_keys().unwrap().is_empty());

        // Crash mid-header: an unterminated JSON fragment.
        std::fs::write(shards.shard_path("a"), "{\"version\": 2, \"mach").unwrap();
        assert_eq!(shards.load_shard("a").unwrap(), Vec::new());
        assert!(shards.existing_keys().unwrap().is_empty());

        // The next append repairs the file and the shard works normally.
        shards.append(&d.records[0]).unwrap();
        assert_eq!(shards.load_shard("a").unwrap(), vec![d.records[0].clone()]);
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn shard_header_is_validated() {
        let root = tmp_dir("hetpart_shard_header");
        let shards = ShardedDb::open(&root, &machines::mc1()).unwrap();
        shards.append(&db().records[0]).unwrap();
        // A different machine's view of the same directory refuses it.
        let other = ShardedDb {
            dir: shards.dir().to_path_buf(),
            machine: "mc2".into(),
            machine_fingerprint: machines::mc2().fingerprint(),
        };
        let err = other.load_shard("a").unwrap_err();
        assert!(matches!(err, DbError::MachineMismatch { .. }), "{err}");
        // Same machine *name* but different hardware (profile drift under
        // an unchanged name) is refused with the fingerprint error.
        let drifted = ShardedDb {
            dir: shards.dir().to_path_buf(),
            machine: "mc1".into(),
            machine_fingerprint: machines::mc1().fingerprint() ^ 1,
        };
        let err = drifted.load_shard("a").unwrap_err();
        assert!(
            matches!(err, DbError::MachineFingerprintMismatch { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("device profiles changed"), "{err}");
        // A legacy shard without a version is named as such.
        let legacy = shards.shard_path("legacy");
        std::fs::write(&legacy, "{\"machine\": \"mc1\", \"program\": \"legacy\"}\n").unwrap();
        let err = shards.load_shard("legacy").unwrap_err();
        assert!(
            matches!(err, DbError::SchemaVersion { found: None, .. }),
            "{err}"
        );
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn merge_is_shard_order_independent_and_rejects_duplicates() {
        let root_a = tmp_dir("hetpart_shard_merge_a");
        let root_b = tmp_dir("hetpart_shard_merge_b");
        let a = ShardedDb::open(&root_a, &machines::mc1()).unwrap();
        let b = ShardedDb::open(&root_b, &machines::mc1()).unwrap();
        let d = db();
        a.append(&d.records[0]).unwrap();
        a.append(&d.records[1]).unwrap();
        b.append(&d.records[2]).unwrap();
        let ab = ShardedDb::merge(&[&a, &b]).unwrap();
        let ba = ShardedDb::merge(&[&b, &a]).unwrap();
        assert_eq!(ab, ba, "merge must not depend on shard order");
        assert_eq!(ab, d);
        // The same (program, size) in two roots is a loud error.
        b.append(&d.records[0]).unwrap();
        let err = ShardedDb::merge(&[&a, &b]).unwrap_err();
        assert!(matches!(err, DbError::DuplicateRecord { .. }), "{err}");
        // So is mixing machines.
        let c = ShardedDb::open(&root_b, &machines::mc2()).unwrap();
        let err = ShardedDb::merge(&[&a, &c]).unwrap_err();
        assert!(matches!(err, DbError::MachineMismatch { .. }), "{err}");
        std::fs::remove_dir_all(root_a).ok();
        std::fs::remove_dir_all(root_b).ok();
    }

    #[test]
    fn indexed_label_space_stays_fast_on_large_dbs() {
        // Guard against reintroducing the O(records x classes) linear
        // scans: a database with thousands of records over a wide label
        // space must build its dataset in well under a second.
        let space = Partition::enumerate(3, 1); // 66 classes
        let records: Vec<TrainingRecord> = (0..20_000)
            .map(|i| {
                let mut r = record(
                    &format!("p{:03}", i % 23),
                    i % 23,
                    1 << (6 + (i % 8)),
                    vec![10, 0, 0],
                );
                r.sweep.entries[0].partition = space[i % space.len()].clone();
                r.sweep.entries[0].time = 0.5;
                r
            })
            .collect();
        let big = TrainingDb {
            machine: "mc1".into(),
            machine_fingerprint: machines::mc1().fingerprint(),
            records,
        };
        let t = std::time::Instant::now();
        let (data, labels) = big.to_dataset(FeatureSet::Both);
        assert_eq!(data.len(), 20_000);
        assert_eq!(labels.len(), space.len());
        assert!(
            t.elapsed().as_secs_f64() < 2.0,
            "to_dataset took {:?} on 20k records — quadratic scan regression?",
            t.elapsed()
        );
    }
}
