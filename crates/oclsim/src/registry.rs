//! Machines as data: load [`Machine`] definitions from JSON profiles.
//!
//! A *profile* is a JSON document describing one machine — its registry
//! name, its devices (full [`DeviceProfile`] field set each), and the
//! multi-device coordination overhead — plus a `schema_version` marker so
//! old tooling fails loudly on new profiles instead of misreading them.
//! The stock paper machines (`mc1`, `mc2`) and the synthetic zoo under
//! `profiles/` are all embedded into the crate and load through the exact
//! same path as a user-supplied file, so the data path is regression-locked
//! by every existing mc1/mc2 test.
//!
//! Everything that can be wrong with a profile is a typed
//! [`RegistryError`], not a panic: malformed JSON, a schema-version
//! mismatch, an unknown device kind, non-positive op costs, an empty
//! device list, out-of-range profile numbers, and duplicate machine names
//! within one registry.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};

use crate::machine::Machine;

/// Version of the on-disk profile schema. Bump when the JSON layout of
/// [`crate::DeviceProfile`] / [`Machine`] changes incompatibly.
pub const PROFILE_SCHEMA_VERSION: u32 = 1;

/// Everything that can go wrong loading or registering a machine profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The file could not be read at all.
    Io { path: PathBuf, detail: String },
    /// The text is not valid JSON, or a field has the wrong shape.
    Parse { source: String, detail: String },
    /// The profile was written under a different schema version.
    SchemaVersion {
        source: String,
        found: Option<u64>,
        expected: u32,
    },
    /// A device's `class` is not one of the known kinds.
    UnknownDeviceClass {
        machine: String,
        device: String,
        found: String,
    },
    /// An op-cost entry is zero, negative, or non-finite.
    NonPositiveCost {
        machine: String,
        device: String,
        op: String,
        /// `{:?}`-formatted offending value (kept as text so the error is `Eq`).
        value: String,
    },
    /// A device profile failed numeric validation.
    InvalidDevice {
        machine: String,
        device: String,
        detail: String,
    },
    /// The machine itself is malformed (empty name, bad overhead, …).
    InvalidMachine { machine: String, detail: String },
    /// The machine declares no devices at all.
    NoDevices { machine: String },
    /// A machine with this registry name is already registered.
    DuplicateMachine { name: String },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Io { path, detail } => {
                write!(f, "cannot read profile `{}`: {detail}", path.display())
            }
            RegistryError::Parse { source, detail } => {
                write!(f, "profile `{source}` is malformed: {detail}")
            }
            RegistryError::SchemaVersion {
                source,
                found,
                expected,
            } => match found {
                Some(v) => write!(
                    f,
                    "profile `{source}` has schema_version {v}, this build expects {expected}"
                ),
                None => write!(
                    f,
                    "profile `{source}` is missing schema_version (expected {expected})"
                ),
            },
            RegistryError::UnknownDeviceClass {
                machine,
                device,
                found,
            } => write!(
                f,
                "machine `{machine}`, device `{device}`: unknown device class `{found}` \
                 (expected Cpu, GpuSimt, or GpuVliw)"
            ),
            RegistryError::NonPositiveCost {
                machine,
                device,
                op,
                value,
            } => write!(
                f,
                "machine `{machine}`, device `{device}`: op cost `{op}` must be a positive \
                 cycle count, got {value}"
            ),
            RegistryError::InvalidDevice {
                machine,
                device,
                detail,
            } => write!(f, "machine `{machine}`, device `{device}`: {detail}"),
            RegistryError::InvalidMachine { machine, detail } => {
                write!(f, "machine `{machine}`: {detail}")
            }
            RegistryError::NoDevices { machine } => {
                write!(f, "machine `{machine}` declares no devices")
            }
            RegistryError::DuplicateMachine { name } => {
                write!(f, "a machine named `{name}` is already registered")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Parse and fully validate one machine profile. `source` is a label for
/// error messages (a file name or registry entry name).
pub fn machine_from_profile_str(source: &str, json: &str) -> Result<Machine, RegistryError> {
    let parse = |detail: String| RegistryError::Parse {
        source: source.to_string(),
        detail,
    };
    let root: Value = serde_json::from_str(json).map_err(|e| parse(e.to_string()))?;

    // Schema gate first: a profile from a future layout should fail on the
    // version marker, not on whatever field happens to confuse serde.
    match root.get("schema_version").cloned() {
        Some(Value::U64(v)) if v == u64::from(PROFILE_SCHEMA_VERSION) => {}
        Some(Value::U64(v)) => {
            return Err(RegistryError::SchemaVersion {
                source: source.to_string(),
                found: Some(v),
                expected: PROFILE_SCHEMA_VERSION,
            })
        }
        Some(Value::I64(v)) => {
            return Err(RegistryError::SchemaVersion {
                source: source.to_string(),
                found: u64::try_from(v).ok(),
                expected: PROFILE_SCHEMA_VERSION,
            })
        }
        _ => {
            return Err(RegistryError::SchemaVersion {
                source: source.to_string(),
                found: None,
                expected: PROFILE_SCHEMA_VERSION,
            })
        }
    }

    let machine_name = match root.get("name") {
        Some(Value::Str(s)) if !s.is_empty() => s.clone(),
        Some(Value::Str(_)) => {
            return Err(RegistryError::InvalidMachine {
                machine: source.to_string(),
                detail: "machine name must not be empty".into(),
            })
        }
        _ => return Err(parse("missing string field `name`".into())),
    };

    // Give the device kind its own typed error before handing the tree to
    // serde, which would only report a generic unknown-variant string.
    let devices = match root.get("devices") {
        Some(Value::Seq(devs)) => devs,
        _ => return Err(parse("missing array field `devices`".into())),
    };
    if devices.is_empty() {
        return Err(RegistryError::NoDevices {
            machine: machine_name,
        });
    }
    for (idx, dev) in devices.iter().enumerate() {
        let dev_name = match dev.get("name") {
            Some(Value::Str(s)) if !s.is_empty() => s.clone(),
            _ => format!("#{idx}"),
        };
        match dev.get("class") {
            Some(Value::Str(c)) if matches!(c.as_str(), "Cpu" | "GpuSimt" | "GpuVliw") => {}
            Some(Value::Str(c)) => {
                return Err(RegistryError::UnknownDeviceClass {
                    machine: machine_name,
                    device: dev_name,
                    found: c.clone(),
                })
            }
            other => {
                return Err(RegistryError::UnknownDeviceClass {
                    machine: machine_name,
                    device: dev_name,
                    found: match other {
                        Some(_) => "<not a string>".into(),
                        None => "<missing>".into(),
                    },
                })
            }
        }
    }

    // Shapes are right; let serde build the struct (it ignores the extra
    // `schema_version` key), then run the numeric validators.
    let machine =
        Machine::from_value(&root).map_err(|e| parse(format!("cannot decode machine: {e}")))?;
    validate_machine(&machine)?;
    Ok(machine)
}

/// Validate an already-constructed machine with the same typed errors the
/// JSON path produces — used by [`MachineRegistry::register`] so machines
/// built in code meet the same bar as machines loaded from disk.
pub fn validate_machine(machine: &Machine) -> Result<(), RegistryError> {
    if machine.name.is_empty() {
        return Err(RegistryError::InvalidMachine {
            machine: machine.name.clone(),
            detail: "machine name must not be empty".into(),
        });
    }
    if machine.devices.is_empty() {
        return Err(RegistryError::NoDevices {
            machine: machine.name.clone(),
        });
    }
    if !machine.multi_device_overhead_us.is_finite() || machine.multi_device_overhead_us < 0.0 {
        return Err(RegistryError::InvalidMachine {
            machine: machine.name.clone(),
            detail: format!(
                "multi_device_overhead_us must be finite and non-negative, got {:?}",
                machine.multi_device_overhead_us
            ),
        });
    }
    for d in &machine.devices {
        if let Err((op, v)) = d.cost.validate() {
            return Err(RegistryError::NonPositiveCost {
                machine: machine.name.clone(),
                device: d.name.clone(),
                op: op.to_string(),
                value: format!("{v:?}"),
            });
        }
        if let Err(detail) = d.validate() {
            return Err(RegistryError::InvalidDevice {
                machine: machine.name.clone(),
                device: d.name.clone(),
                detail,
            });
        }
    }
    Ok(())
}

/// Serialize a machine to profile JSON (schema version included) such that
/// loading it back yields a bit-identical machine: floats are written with
/// shortest-round-trip formatting.
pub fn machine_to_profile_json(machine: &Machine) -> String {
    let mut fields = vec![(
        "schema_version".to_string(),
        Value::U64(u64::from(PROFILE_SCHEMA_VERSION)),
    )];
    match machine.to_value() {
        Value::Map(entries) => fields.extend(entries),
        other => fields.push(("machine".to_string(), other)),
    }
    // Serializing a `Value` fails only on non-string map keys, and every
    // key of this tree is a `String`.
    let Ok(json) = serde_json::to_string_pretty(&Value::Map(fields)) else {
        unreachable!("a Value tree with string keys always serializes");
    };
    json
}

/// A named collection of validated machines.
///
/// The registry is the single entry point for machine definitions: the
/// embedded stock machines and zoo profiles load through
/// [`MachineRegistry::builtin`], external files through
/// [`MachineRegistry::load_file`] / [`MachineRegistry::load_dir`], and
/// in-code machines through [`MachineRegistry::register`] — all with the
/// same validation and duplicate-name detection.
#[derive(Debug, Clone, Default)]
pub struct MachineRegistry {
    machines: Vec<Machine>,
}

/// Embedded profile sources: the paper machines plus the synthetic zoo.
/// Kept in one place so `builtin()` and the docs agree on the inventory.
pub const EMBEDDED_PROFILES: &[(&str, &str)] = &[
    ("mc1.json", include_str!("../../../profiles/mc1.json")),
    ("mc2.json", include_str!("../../../profiles/mc2.json")),
    (
        "igpu_laptop.json",
        include_str!("../../../profiles/igpu_laptop.json"),
    ),
    (
        "gpu_server.json",
        include_str!("../../../profiles/gpu_server.json"),
    ),
    (
        "biglittle.json",
        include_str!("../../../profiles/biglittle.json"),
    ),
    (
        "slow_interconnect.json",
        include_str!("../../../profiles/slow_interconnect.json"),
    ),
    (
        "cpu_only.json",
        include_str!("../../../profiles/cpu_only.json"),
    ),
];

impl MachineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry of embedded machines: `mc1`, `mc2`, and the zoo.
    ///
    /// # Panics
    /// Panics if an embedded profile fails to load — the profiles ship
    /// inside the crate and are covered by tests, so that is a build bug.
    pub fn builtin() -> Self {
        let mut reg = Self::new();
        for (source, json) in EMBEDDED_PROFILES {
            reg.load_str(source, json)
                .unwrap_or_else(|e| panic!("embedded profile {source} must load: {e}"));
        }
        reg
    }

    /// Register an already-constructed machine after validating it.
    pub fn register(&mut self, machine: Machine) -> Result<&Machine, RegistryError> {
        validate_machine(&machine)?;
        if self.get(&machine.name).is_some() {
            return Err(RegistryError::DuplicateMachine {
                name: machine.name.clone(),
            });
        }
        self.machines.push(machine);
        Ok(self.machines.last().unwrap_or_else(|| unreachable!()))
    }

    /// Parse, validate, and register a profile from a JSON string.
    pub fn load_str(&mut self, source: &str, json: &str) -> Result<&Machine, RegistryError> {
        let machine = machine_from_profile_str(source, json)?;
        self.register(machine)
    }

    /// Load one profile file.
    pub fn load_file(&mut self, path: impl AsRef<Path>) -> Result<&Machine, RegistryError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| RegistryError::Io {
            path: path.to_path_buf(),
            detail: e.to_string(),
        })?;
        self.load_str(&path.display().to_string(), &text)
    }

    /// Load every `*.json` profile in a directory (sorted by file name, so
    /// registration order — and duplicate detection — is deterministic).
    /// Returns how many machines were added.
    pub fn load_dir(&mut self, dir: impl AsRef<Path>) -> Result<usize, RegistryError> {
        let dir = dir.as_ref();
        let entries = std::fs::read_dir(dir).map_err(|e| RegistryError::Io {
            path: dir.to_path_buf(),
            detail: e.to_string(),
        })?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        let before = self.machines.len();
        for p in paths {
            self.load_file(&p)?;
        }
        Ok(self.machines.len() - before)
    }

    /// Machine by registry name.
    pub fn get(&self, name: &str) -> Option<&Machine> {
        self.machines.iter().find(|m| m.name == name)
    }

    /// All registered machines, in registration order.
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.machines.iter().map(|m| m.name.as_str()).collect()
    }

    /// Number of registered machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;

    #[test]
    fn builtin_contains_paper_machines_and_zoo() {
        let reg = MachineRegistry::builtin();
        assert_eq!(reg.len(), EMBEDDED_PROFILES.len());
        for name in [
            "mc1",
            "mc2",
            "igpu_laptop",
            "gpu_server",
            "biglittle",
            "slow_interconnect",
            "cpu_only",
        ] {
            let m = reg.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.name, name);
            validate_machine(m).unwrap_or_else(|e| panic!("{e}"));
        }
        // The zoo spans device counts 1 through 5.
        let counts: Vec<usize> = ["cpu_only", "igpu_laptop", "mc1", "gpu_server"]
            .iter()
            .map(|n| reg.get(n).unwrap().num_devices())
            .collect();
        assert_eq!(counts, vec![1, 2, 3, 5]);
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        let err = machine_from_profile_str("bad.json", "{ not json").unwrap_err();
        assert!(matches!(err, RegistryError::Parse { .. }), "{err}");
    }

    #[test]
    fn schema_version_is_gated() {
        let err = machine_from_profile_str("v9.json", r#"{"schema_version": 9}"#).unwrap_err();
        assert_eq!(
            err,
            RegistryError::SchemaVersion {
                source: "v9.json".into(),
                found: Some(9),
                expected: PROFILE_SCHEMA_VERSION,
            }
        );
        let err = machine_from_profile_str("none.json", r#"{"name": "x"}"#).unwrap_err();
        assert!(
            matches!(err, RegistryError::SchemaVersion { found: None, .. }),
            "{err}"
        );
    }

    #[test]
    fn unknown_device_class_is_typed() {
        let json = machine_to_profile_json(&machines::mc1()).replace("\"GpuVliw\"", "\"Fpga\"");
        let err = machine_from_profile_str("mc1.json", &json).unwrap_err();
        match err {
            RegistryError::UnknownDeviceClass {
                machine,
                device,
                found,
            } => {
                assert_eq!(machine, "mc1");
                assert_eq!(device, "ATI Radeon HD 5870");
                assert_eq!(found, "Fpga");
            }
            other => panic!("expected UnknownDeviceClass, got {other}"),
        }
    }

    #[test]
    fn non_positive_costs_are_typed() {
        let mut m = machines::mc2();
        m.devices[1].cost.transcendental = 0.0;
        let err = machine_from_profile_str("mc2.json", &machine_to_profile_json(&m)).unwrap_err();
        match err {
            RegistryError::NonPositiveCost {
                machine,
                device,
                op,
                ..
            } => {
                assert_eq!(machine, "mc2");
                assert_eq!(device, "NVIDIA GeForce GTX 480");
                assert_eq!(op, "transcendental");
            }
            other => panic!("expected NonPositiveCost, got {other}"),
        }
    }

    #[test]
    fn zero_devices_is_typed() {
        let json = r#"{"schema_version": 1, "name": "husk", "devices": [],
                       "multi_device_overhead_us": 1.0}"#;
        assert_eq!(
            machine_from_profile_str("husk.json", json).unwrap_err(),
            RegistryError::NoDevices {
                machine: "husk".into()
            }
        );
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut reg = MachineRegistry::new();
        reg.register(machines::mc1()).unwrap();
        assert_eq!(
            reg.register(machines::mc1()).unwrap_err(),
            RegistryError::DuplicateMachine { name: "mc1".into() }
        );
    }

    #[test]
    fn out_of_range_profile_numbers_are_typed() {
        let mut m = machines::mc1();
        m.devices[0].clock_ghz = -2.0;
        let err = machine_from_profile_str("mc1.json", &machine_to_profile_json(&m)).unwrap_err();
        assert!(
            matches!(err, RegistryError::InvalidDevice { ref machine, .. } if machine == "mc1"),
            "{err}"
        );
    }

    #[test]
    fn every_embedded_profile_roundtrips_bit_identically() {
        for (source, json) in EMBEDDED_PROFILES {
            let loaded = machine_from_profile_str(source, json)
                .unwrap_or_else(|e| panic!("load {source}: {e}"));
            let re_serialized = machine_to_profile_json(&loaded);
            let re_loaded = machine_from_profile_str(source, &re_serialized)
                .unwrap_or_else(|e| panic!("reload {source}: {e}"));
            assert_eq!(loaded, re_loaded, "round-trip changed {source}");
            assert_eq!(
                loaded.fingerprint(),
                re_loaded.fingerprint(),
                "round-trip changed the fingerprint of {source}"
            );
        }
    }

    #[test]
    fn load_dir_reads_the_shipped_profiles() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
            .join("profiles");
        let mut reg = MachineRegistry::new();
        let n = reg.load_dir(&dir).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(n, EMBEDDED_PROFILES.len());
        // Disk and embedded copies agree exactly.
        let builtin = MachineRegistry::builtin();
        for m in reg.machines() {
            assert_eq!(Some(m), builtin.get(&m.name));
        }
    }
}
