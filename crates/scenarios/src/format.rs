//! Scenario file I/O: the `.scenario.json` text format.
//!
//! A [`Scenario`] is plain data, and this module makes it a *file*: users
//! add catalog entries by dropping a JSON document into a directory instead
//! of editing `catalog.rs` and recompiling. Serialization rides on the
//! in-tree `json` document model (`crates/compat/json`) — no `serde` in
//! this workspace — and reading is strict: unknown keys, missing fields,
//! wrong types, `null`ed numbers and out-of-range values are all
//! [`ConfigError`]s naming the offending path within the document.
//!
//! # Format, version `sara-scenario/v1`
//!
//! | key | type | meaning |
//! |---|---|---|
//! | `format` | string | version tag, must be `"sara-scenario/v1"` |
//! | `name` | string | registry key, non-empty |
//! | `description` | string | one-line description |
//! | `freq_mhz` | integer | DRAM I/O frequency in MHz (≥ 1) |
//! | `policy` | string | scheduling policy: `FCFS`, `RR`, `FrameQoS`, `QoS`, `QoS-RB`, `FR-FCFS` |
//! | `frame_period_ns` | number | frame period in nanoseconds (> 0) |
//! | `duration_ms` | number | nominal run length in milliseconds (> 0) |
//! | `seed` | integer | master seed (full `u64` range round-trips) |
//! | `channels` | integer, *optional* | DRAM channel count: a power of two in 1..=256 (absent = 2, the Table 1 part; emitted only when ≠ 2) |
//! | `governor` | object, *optional* | online self-adaptation stanza (absent = static run) |
//! | `cores` | array | one object per core: `kind` (Table 2 name, e.g. `"GPU"`, `"Image Proc."`) + `dmas` |
//!
//! The optional `governor` stanza configures the `sara-governor` closed
//! loop: `epoch_us` (> 0), `ladder_mhz` (strictly ascending array),
//! `up_threshold` < `down_threshold`, `patience` (≥ 1), plus optional
//! `start_mhz` (a ladder rung), `escalate_policy` (policy vocabulary
//! above) and `per_channel` (boolean; one ladder automaton per DRAM
//! channel instead of the single knob — emitted only when `true`).
//! Documents without the stanza are byte-for-byte unchanged from
//! pre-governor `v1`.
//!
//! Each DMA carries `name`, `op` (`"RD"`/`"WR"`), `window` (max outstanding
//! transactions, ≥ 1) and three tagged unions mirroring
//! `sara_workloads::builders`:
//!
//! | union | `kind` | payload |
//! |---|---|---|
//! | `traffic` | `burst` / `constant` / `poisson` | `bytes_per_s` |
//! | | `batch` | `unit_bytes`, `period_ns`, `deadline_ns` |
//! | | `elastic` | — |
//! | `pattern` | `sequential` / `random` | `region_bytes` |
//! | | `strided` | `region_bytes`, `stride_bytes` |
//! | `meter` | `latency` | `limit_ns`, `alpha` |
//! | | `frame-rate` / `work-unit` / `best-effort` | — |
//! | | `occupancy` | `direction` (`"fill"`/`"drain"`), `capacity_bytes` |
//! | | `bandwidth` | `target_fraction`, `window_ns` |
//!
//! Versioning: the `format` tag is checked exactly. A future `v2` will get
//! its own reader; `v1` documents stay readable (the built-in catalog's
//! documents under `crates/scenarios/catalog/` pin the emitted bytes per
//! catalog entry).
//!
//! # Examples
//!
//! ```
//! use sara_scenarios::Scenario;
//!
//! let text = r#"{
//!   "format": "sara-scenario/v1",
//!   "name": "doc-example",
//!   "description": "one latency-bounded DSP stream",
//!   "freq_mhz": 1600,
//!   "policy": "QoS",
//!   "frame_period_ns": 33333333.333333336,
//!   "duration_ms": 5,
//!   "seed": 1515913217,
//!   "cores": [
//!     {
//!       "kind": "DSP",
//!       "dmas": [
//!         {
//!           "name": "dsp-rd",
//!           "op": "RD",
//!           "window": 6,
//!           "traffic": {"kind": "poisson", "bytes_per_s": 250000000},
//!           "pattern": {"kind": "random", "region_bytes": 67108864},
//!           "meter": {"kind": "latency", "limit_ns": 400, "alpha": 0.05}
//!         }
//!       ]
//!     }
//!   ]
//! }"#;
//! let s = Scenario::from_json_str(text)?;
//! assert_eq!(s.name, "doc-example");
//! assert_eq!(s.freq.as_u32(), 1600);
//! assert_eq!(s.dma_count(), 1);
//! // Emission is the exact inverse.
//! assert_eq!(Scenario::from_json_str(&s.to_json())?, s);
//! # Ok::<(), sara_types::ConfigError>(())
//! ```

use std::path::{Path, PathBuf};

use json::read::{self, Fields};
use json::Value;
use sara_core::BufferDirection;
use sara_memctrl::PolicyKind;
use sara_types::{ConfigError, CoreKind, MegaHertz, MemOp};
use sara_workloads::{CoreSpec, DmaSpec, MeterSpec, PatternSpec, TrafficSpec};

use crate::governor_spec::GovernorSpec;
use crate::scenario::Scenario;

/// The version tag every `v1` document carries in its `format` field.
pub const FORMAT_TAG: &str = "sara-scenario/v1";

/// The file-name suffix scenario files use (and [`load_dir`] selects by).
pub const SCENARIO_FILE_SUFFIX: &str = ".scenario.json";

// --- emission -------------------------------------------------------------

fn kv(key: &str, value: impl Into<Value>) -> (String, Value) {
    (key.to_string(), value.into())
}

fn traffic_value(t: &TrafficSpec) -> Value {
    Value::Object(match t {
        TrafficSpec::Burst { bytes_per_s } => {
            vec![kv("kind", "burst"), kv("bytes_per_s", *bytes_per_s)]
        }
        TrafficSpec::Constant { bytes_per_s } => {
            vec![kv("kind", "constant"), kv("bytes_per_s", *bytes_per_s)]
        }
        TrafficSpec::Poisson { bytes_per_s } => {
            vec![kv("kind", "poisson"), kv("bytes_per_s", *bytes_per_s)]
        }
        TrafficSpec::Batch {
            unit_bytes,
            period_ns,
            deadline_ns,
        } => vec![
            kv("kind", "batch"),
            kv("unit_bytes", *unit_bytes),
            kv("period_ns", *period_ns),
            kv("deadline_ns", *deadline_ns),
        ],
        TrafficSpec::Elastic => vec![kv("kind", "elastic")],
    })
}

fn pattern_value(p: &PatternSpec) -> Value {
    Value::Object(match p {
        PatternSpec::Sequential { region_bytes } => {
            vec![kv("kind", "sequential"), kv("region_bytes", *region_bytes)]
        }
        PatternSpec::Strided {
            region_bytes,
            stride_bytes,
        } => vec![
            kv("kind", "strided"),
            kv("region_bytes", *region_bytes),
            kv("stride_bytes", *stride_bytes),
        ],
        PatternSpec::Random { region_bytes } => {
            vec![kv("kind", "random"), kv("region_bytes", *region_bytes)]
        }
    })
}

fn meter_value(m: &MeterSpec) -> Value {
    Value::Object(match m {
        MeterSpec::Latency { limit_ns, alpha } => vec![
            kv("kind", "latency"),
            kv("limit_ns", *limit_ns),
            kv("alpha", *alpha),
        ],
        MeterSpec::FrameRate => vec![kv("kind", "frame-rate")],
        MeterSpec::Occupancy {
            direction,
            capacity_bytes,
        } => vec![
            kv("kind", "occupancy"),
            kv(
                "direction",
                match direction {
                    BufferDirection::ConstantFill => "fill",
                    BufferDirection::ConstantDrain => "drain",
                },
            ),
            kv("capacity_bytes", *capacity_bytes),
        ],
        MeterSpec::Bandwidth {
            target_fraction,
            window_ns,
        } => vec![
            kv("kind", "bandwidth"),
            kv("target_fraction", *target_fraction),
            kv("window_ns", *window_ns),
        ],
        MeterSpec::WorkUnit => vec![kv("kind", "work-unit")],
        MeterSpec::BestEffort => vec![kv("kind", "best-effort")],
    })
}

fn dma_value(d: &DmaSpec) -> Value {
    Value::Object(vec![
        kv("name", d.name.as_str()),
        kv("op", d.op.name()),
        kv("window", d.window),
        ("traffic".to_string(), traffic_value(&d.traffic)),
        ("pattern".to_string(), pattern_value(&d.pattern)),
        ("meter".to_string(), meter_value(&d.meter)),
    ])
}

fn governor_value(g: &GovernorSpec) -> Value {
    let mut members = vec![
        kv("epoch_us", g.epoch_us),
        (
            "ladder_mhz".to_string(),
            Value::Array(g.ladder_mhz.iter().map(|&mhz| Value::from(mhz)).collect()),
        ),
        kv("up_threshold", g.up_threshold),
        kv("down_threshold", g.down_threshold),
        kv("patience", g.patience),
    ];
    if let Some(start) = g.start_mhz {
        members.push(kv("start_mhz", start));
    }
    if let Some(policy) = g.escalate_policy {
        members.push(kv("escalate_policy", policy.name()));
    }
    // Emitted only when set, so pre-lane documents keep their exact bytes.
    if g.per_channel {
        members.push(kv("per_channel", true));
    }
    Value::Object(members)
}

fn core_value(c: &CoreSpec) -> Value {
    Value::Object(vec![
        kv("kind", c.kind.name()),
        (
            "dmas".to_string(),
            Value::Array(c.dmas.iter().map(dma_value).collect()),
        ),
    ])
}

// --- reading the vocabulary -----------------------------------------------

fn traffic_from(v: &Value, path: &str) -> Result<TrafficSpec, String> {
    let f = Fields::new(v, path)?;
    let kind = f.str("kind")?;
    match kind {
        "burst" | "constant" | "poisson" => {
            let bytes_per_s = f.only(&["kind", "bytes_per_s"])?.positive("bytes_per_s")?;
            Ok(match kind {
                "burst" => TrafficSpec::Burst { bytes_per_s },
                "constant" => TrafficSpec::Constant { bytes_per_s },
                _ => TrafficSpec::Poisson { bytes_per_s },
            })
        }
        "batch" => {
            let f = f.only(&["kind", "unit_bytes", "period_ns", "deadline_ns"])?;
            Ok(TrafficSpec::Batch {
                unit_bytes: f.nonzero("unit_bytes")?,
                period_ns: f.positive("period_ns")?,
                deadline_ns: f.positive("deadline_ns")?,
            })
        }
        "elastic" => {
            f.only(&["kind"])?;
            Ok(TrafficSpec::Elastic)
        }
        other => Err(f.error(format!(
            "unknown traffic kind \"{other}\" (expected burst, constant, poisson, batch or \
             elastic)"
        ))),
    }
}

fn pattern_from(v: &Value, path: &str) -> Result<PatternSpec, String> {
    let f = Fields::new(v, path)?;
    let kind = f.str("kind")?;
    match kind {
        "sequential" | "random" => {
            let region_bytes = f.only(&["kind", "region_bytes"])?.nonzero("region_bytes")?;
            Ok(if kind == "sequential" {
                PatternSpec::Sequential { region_bytes }
            } else {
                PatternSpec::Random { region_bytes }
            })
        }
        "strided" => {
            let f = f.only(&["kind", "region_bytes", "stride_bytes"])?;
            Ok(PatternSpec::Strided {
                region_bytes: f.nonzero("region_bytes")?,
                stride_bytes: f.nonzero("stride_bytes")?,
            })
        }
        other => Err(f.error(format!(
            "unknown pattern kind \"{other}\" (expected sequential, strided or random)"
        ))),
    }
}

fn meter_from(v: &Value, path: &str) -> Result<MeterSpec, String> {
    let f = Fields::new(v, path)?;
    let kind = f.str("kind")?;
    match kind {
        "latency" => {
            let f = f.only(&["kind", "limit_ns", "alpha"])?;
            let limit_ns = f.positive("limit_ns")?;
            let alpha = f.positive("alpha")?;
            if alpha > 1.0 {
                return Err(f.key_error("alpha", format!("must be in (0, 1], got {alpha}")));
            }
            Ok(MeterSpec::Latency { limit_ns, alpha })
        }
        "frame-rate" => {
            f.only(&["kind"])?;
            Ok(MeterSpec::FrameRate)
        }
        "occupancy" => {
            let f = f.only(&["kind", "direction", "capacity_bytes"])?;
            let direction = match f.str("direction")? {
                "fill" => BufferDirection::ConstantFill,
                "drain" => BufferDirection::ConstantDrain,
                other => {
                    return Err(f.error(format!(
                        "unknown direction \"{other}\" (expected \"fill\" or \"drain\")"
                    )));
                }
            };
            Ok(MeterSpec::Occupancy {
                direction,
                capacity_bytes: f.nonzero("capacity_bytes")?,
            })
        }
        "bandwidth" => {
            let f = f.only(&["kind", "target_fraction", "window_ns"])?;
            Ok(MeterSpec::Bandwidth {
                target_fraction: f.positive("target_fraction")?,
                window_ns: f.positive("window_ns")?,
            })
        }
        "work-unit" => {
            f.only(&["kind"])?;
            Ok(MeterSpec::WorkUnit)
        }
        "best-effort" => {
            f.only(&["kind"])?;
            Ok(MeterSpec::BestEffort)
        }
        other => Err(f.error(format!(
            "unknown meter kind \"{other}\" (expected latency, frame-rate, occupancy, \
             bandwidth, work-unit or best-effort)"
        ))),
    }
}

/// A policy name under `key`.
fn policy(f: &Fields, key: &str) -> Result<PolicyKind, String> {
    PolicyKind::parse(f.str(key)?).map_err(|m| f.error(m))
}

fn governor_from(v: &Value, path: &str) -> Result<GovernorSpec, String> {
    let f = Fields::new(v, path)?.only(&[
        "epoch_us",
        "ladder_mhz",
        "up_threshold",
        "down_threshold",
        "patience",
        "start_mhz",
        "escalate_policy",
        "per_channel",
    ])?;
    let ladder_mhz = f.list("ladder_mhz", |v| read::mhz(read::uint(v)?))?;
    let patience = f.read("patience", |v| read::fits_u32(read::uint(v)?))?;
    let start_mhz = f.optional("start_mhz", Fields::mhz)?;
    let escalate_policy = f.optional("escalate_policy", policy)?;
    let per_channel = f.optional("per_channel", Fields::bool)?.unwrap_or(false);
    let spec = GovernorSpec {
        epoch_us: f.positive("epoch_us")?,
        ladder_mhz,
        up_threshold: f.positive("up_threshold")?,
        down_threshold: f.positive("down_threshold")?,
        patience,
        start_mhz,
        escalate_policy,
        per_channel,
    };
    spec.validate().map_err(|e| f.error(e.message()))?;
    Ok(spec)
}

fn dma_from(v: &Value, path: &str) -> Result<DmaSpec, String> {
    let f = Fields::new(v, path)?.only(&["name", "op", "window", "traffic", "pattern", "meter"])?;
    let name = f.non_empty("name")?;
    let op_name = f.str("op")?;
    let op = MemOp::from_name(op_name).ok_or_else(|| {
        f.error(format!(
            "unknown op \"{op_name}\" (expected \"RD\" or \"WR\")"
        ))
    })?;
    let window = f.nonzero("window")?;
    let window = usize::try_from(window)
        .map_err(|_| f.key_error("window", format!("{window} does not fit this platform")))?;
    Ok(DmaSpec::new(
        name,
        op,
        traffic_from(f.get("traffic")?, &format!("{path}.traffic"))?,
        pattern_from(f.get("pattern")?, &format!("{path}.pattern"))?,
        meter_from(f.get("meter")?, &format!("{path}.meter"))?,
        window,
    ))
}

fn core_from(v: &Value, path: &str) -> Result<CoreSpec, String> {
    let f = Fields::new(v, path)?.only(&["kind", "dmas"])?;
    let kind = CoreKind::parse(f.str("kind")?).map_err(|m| f.error(m))?;
    let dmas = f.array("dmas")?;
    if dmas.is_empty() {
        return Err(f.key_error("dmas", "must contain at least one DMA"));
    }
    let dmas = dmas
        .iter()
        .enumerate()
        .map(|(i, d)| dma_from(d, &format!("{path}.dmas[{i}]")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CoreSpec::new(kind, dmas))
}

fn scenario_from(doc: &Value) -> Result<Scenario, String> {
    let path = "scenario";
    let f = Fields::new(doc, path)?;
    // Check the version tag before strictness: a v2 document should say
    // "unsupported version", not "unknown key".
    let tag = f.str("format")?;
    if tag != FORMAT_TAG {
        return Err(f.error(format!(
            "unsupported format tag \"{tag}\" (this reader understands \"{FORMAT_TAG}\")"
        )));
    }
    let f = f.only(&[
        "format",
        "name",
        "description",
        "freq_mhz",
        "policy",
        "frame_period_ns",
        "duration_ms",
        "seed",
        "channels",
        "governor",
        "cores",
    ])?;
    let name = f.non_empty("name")?;
    let freq_mhz = f.mhz("freq_mhz")?;
    let policy = policy(&f, "policy")?;
    let cores = f.array("cores")?;
    if cores.is_empty() {
        return Err(f.key_error("cores", "must contain at least one core"));
    }
    let cores = cores
        .iter()
        .enumerate()
        .map(|(i, c)| core_from(c, &format!("{path}.cores[{i}]")))
        .collect::<Result<Vec<_>, _>>()?;
    // Optional count: absent = the two-channel Table 1 part.
    let channels = f.optional("channels", |f, k| {
        f.read(k, |v| Scenario::channel_count(read::uint(v)?))
    })?;
    // Optional stanza: absent = static run (v1 documents unchanged).
    let governor = f
        .opt("governor")
        .map(|v| governor_from(v, &format!("{path}.governor")))
        .transpose()?;
    Ok(Scenario {
        name: name.to_string(),
        description: f.str("description")?.to_string(),
        freq: MegaHertz::new(freq_mhz),
        policy,
        cores,
        frame_period_ns: f.positive("frame_period_ns")?,
        duration_ms: f.positive("duration_ms")?,
        seed: f.u64("seed")?,
        channels: channels.unwrap_or(2),
        governor,
    })
}

impl Scenario {
    /// The scenario as a JSON document node (version `v1` layout). The
    /// optional `governor` stanza is emitted only when present, so
    /// pre-governor documents keep their exact bytes.
    pub fn to_json_value(&self) -> Value {
        let mut members = vec![
            kv("format", FORMAT_TAG),
            kv("name", self.name.as_str()),
            kv("description", self.description.as_str()),
            kv("freq_mhz", self.freq.as_u32()),
            kv("policy", self.policy.name()),
            kv("frame_period_ns", self.frame_period_ns),
            kv("duration_ms", self.duration_ms),
            kv("seed", self.seed),
        ];
        // Emitted only off-default, so two-channel documents keep their
        // exact pre-channels bytes.
        if self.channels != 2 {
            members.push(kv("channels", self.channels as u64));
        }
        if let Some(governor) = &self.governor {
            members.push(("governor".to_string(), governor_value(governor)));
        }
        members.push((
            "cores".to_string(),
            Value::Array(self.cores.iter().map(core_value).collect()),
        ));
        Value::Object(members)
    }

    /// Serializes the scenario as a complete `.scenario.json` text file:
    /// pretty-printed, trailing newline, byte-identical for equal
    /// scenarios. [`Scenario::from_json_str`] is the exact inverse.
    pub fn to_json(&self) -> String {
        let mut text = self.to_json_value().to_string_pretty();
        text.push('\n');
        text
    }

    /// Reads a scenario from an already-parsed JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the offending path for any schema
    /// violation: wrong version tag, missing or unknown keys, wrong types,
    /// `null`ed (non-finite) numbers, or out-of-range values.
    pub fn from_json_value(doc: &Value) -> Result<Scenario, ConfigError> {
        scenario_from(doc).map_err(ConfigError::new)
    }

    /// Parses a scenario from `.scenario.json` text.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] carrying the line/column for malformed JSON,
    /// or the offending document path for schema violations (see
    /// [`Scenario::from_json_value`]).
    pub fn from_json_str(text: &str) -> Result<Scenario, ConfigError> {
        let doc = json::parse(text).map_err(|e| ConfigError::new(format!("scenario JSON: {e}")))?;
        Scenario::from_json_value(&doc)
    }

    /// Reads a scenario from a `.scenario.json` file.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] (prefixed with the file path) for I/O
    /// failures, malformed JSON, or schema violations.
    pub fn from_json_file(path: impl AsRef<Path>) -> Result<Scenario, ConfigError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError::new(format!("{}: {e}", path.display())))?;
        Scenario::from_json_str(&text)
            .map_err(|e| ConfigError::new(format!("{}: {}", path.display(), e.message())))
    }
}

/// Every `*.scenario.json` file in a directory, sorted by file name (so
/// run order is stable no matter what the filesystem returns).
///
/// # Errors
///
/// Returns [`ConfigError`] if the directory cannot be read or contains no
/// scenario files.
pub fn scenario_files(dir: &Path) -> Result<Vec<PathBuf>, ConfigError> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| ConfigError::new(format!("{}: {e}", dir.display())))?;
    let mut paths = Vec::new();
    for entry in entries {
        // Propagate iteration errors: silently skipping an unreadable
        // entry would run an incomplete matrix and report success.
        let path = entry
            .map_err(|e| ConfigError::new(format!("{}: {e}", dir.display())))?
            .path();
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(SCENARIO_FILE_SUFFIX))
        {
            paths.push(path);
        }
    }
    paths.sort();
    if paths.is_empty() {
        return Err(ConfigError::new(format!(
            "{}: no *{SCENARIO_FILE_SUFFIX} files found",
            dir.display()
        )));
    }
    Ok(paths)
}

/// Loads every [`scenario_files`] entry of a directory, in that order.
///
/// This is how `sara matrix --dir` runs user-supplied
/// catalogs without recompiling.
///
/// # Errors
///
/// Returns [`ConfigError`] if the directory cannot be read, contains no
/// scenario files, or any file fails to parse (the error names the file).
pub fn load_dir(dir: impl AsRef<Path>) -> Result<Vec<Scenario>, ConfigError> {
    scenario_files(dir.as_ref())?
        .iter()
        .map(Scenario::from_json_file)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::generator::random_scenario;

    #[test]
    fn catalog_and_generated_scenarios_round_trip() {
        for s in catalog::builtin()
            .into_iter()
            .chain((0..4).map(random_scenario))
        {
            let text = s.to_json();
            let back = Scenario::from_json_str(&text)
                .unwrap_or_else(|e| panic!("{}: {e}\n{text}", s.name));
            assert_eq!(back, s, "{} not value-exact", s.name);
            assert_eq!(back.to_json(), text, "{} not byte-exact", s.name);
        }
    }

    #[test]
    fn files_and_directories_load() {
        let dir = std::env::temp_dir().join(format!("sara-fmt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = catalog::by_name("adas").unwrap();
        let b = catalog::by_name("ar-headset").unwrap();
        std::fs::write(dir.join("b-second.scenario.json"), b.to_json()).unwrap();
        std::fs::write(dir.join("a-first.scenario.json"), a.to_json()).unwrap();
        std::fs::write(dir.join("ignored.json"), "not a scenario").unwrap();

        let one = Scenario::from_json_file(dir.join("a-first.scenario.json")).unwrap();
        assert_eq!(one, a);
        // Sorted by file name, non-matching files ignored.
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded, vec![a, b]);

        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let e = load_dir(&empty).unwrap_err();
        assert!(e.message().contains("no *.scenario.json"), "{e}");
        let e = Scenario::from_json_file(dir.join("missing.scenario.json")).unwrap_err();
        assert!(e.message().contains("missing.scenario.json"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_tag_is_checked_first() {
        let mut s = catalog::by_name("adas").unwrap().to_json();
        s = s.replace("sara-scenario/v1", "sara-scenario/v2");
        let e = Scenario::from_json_str(&s).unwrap_err();
        assert!(e.message().contains("unsupported format tag"), "{e}");
        assert!(e.message().contains("sara-scenario/v1"), "{e}");
    }

    #[test]
    fn truncated_input_names_the_position() {
        let text = catalog::by_name("adas").unwrap().to_json();
        let cut = &text[..text.len() / 2];
        let e = Scenario::from_json_str(cut).unwrap_err();
        assert!(e.message().contains("line"), "no position in: {e}");
    }

    #[test]
    fn unknown_keys_are_rejected_with_context() {
        let text = catalog::by_name("adas")
            .unwrap()
            .to_json()
            .replace("\"seed\":", "\"sede\":");
        let e = Scenario::from_json_str(&text).unwrap_err();
        assert!(e.message().contains("unknown key \"sede\""), "{e}");

        let text = catalog::by_name("adas")
            .unwrap()
            .to_json()
            .replace("\"op\": \"RD\"", "\"op\": \"RD\", \"burst\": 7");
        let e = Scenario::from_json_str(&text).unwrap_err();
        assert!(e.message().contains("unknown key \"burst\""), "{e}");
        assert!(e.message().contains("dmas[0]"), "no path in: {e}");
    }

    #[test]
    fn nulled_numbers_are_rejected_with_guidance() {
        // A NaN frame period emits as null; the reader must say why that
        // is invalid rather than "expected number".
        let mut s = catalog::by_name("adas").unwrap();
        s.frame_period_ns = f64::NAN;
        let e = Scenario::from_json_str(&s.to_json()).unwrap_err();
        assert!(e.message().contains("frame_period_ns"), "{e}");
        assert!(e.message().contains("non-finite"), "{e}");
    }

    #[test]
    fn wrong_enum_spellings_list_the_vocabulary() {
        let base = catalog::by_name("adas").unwrap().to_json();
        let cases = [
            (
                "\"policy\": \"QoS\"",
                "\"policy\": \"qos\"",
                "unknown policy",
            ),
            (
                "\"kind\": \"Camera\"",
                "\"kind\": \"camera\"",
                "unknown core kind",
            ),
            (
                "\"kind\": \"burst\"",
                "\"kind\": \"bursty\"",
                "unknown traffic kind",
            ),
            (
                "\"kind\": \"work-unit\"",
                "\"kind\": \"workunit\"",
                "unknown meter kind",
            ),
            (
                "\"direction\": \"fill\"",
                "\"direction\": \"full\"",
                "unknown direction",
            ),
            ("\"op\": \"RD\"", "\"op\": \"READ\"", "unknown op"),
        ];
        for (from, to, expect) in cases {
            assert!(base.contains(from), "test fixture drifted: {from}");
            let e = Scenario::from_json_str(&base.replacen(from, to, 1)).unwrap_err();
            assert!(e.message().contains(expect), "{from} -> {to}: {e}");
        }
    }

    #[test]
    fn range_violations_are_rejected() {
        let base = catalog::by_name("adas").unwrap().to_json();
        let cases = [
            ("\"freq_mhz\": 1600", "\"freq_mhz\": 0", "freq_mhz"),
            ("\"freq_mhz\": 1600", "\"freq_mhz\": 5000000000", "exceeds"),
            ("\"duration_ms\": 5", "\"duration_ms\": -1", "duration_ms"),
            ("\"window\": 8", "\"window\": 0", "window"),
            ("\"alpha\": 0.05", "\"alpha\": 1.5", "alpha"),
            ("\"seed\": 1515847681", "\"seed\": -3", "seed"),
        ];
        for (from, to, expect) in cases {
            assert!(base.contains(from), "test fixture drifted: {from}");
            let e = Scenario::from_json_str(&base.replacen(from, to, 1)).unwrap_err();
            assert!(e.message().contains(expect), "{from} -> {to}: {e}");
        }
    }

    #[test]
    fn channels_key_round_trips_and_is_optional() {
        // Off-default counts are emitted and read back exactly.
        let s = Scenario {
            channels: 8,
            ..catalog::by_name("adas").unwrap()
        };
        let text = s.to_json();
        assert!(text.contains("\"channels\": 8"), "{text}");
        let back = Scenario::from_json_str(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), text);

        // The default count never appears: two-channel documents keep
        // their pre-channels bytes, and readers default absent to 2.
        let plain = catalog::by_name("adas").unwrap();
        let text = plain.to_json();
        assert!(!text.contains("\"channels\""), "{text}");
        assert_eq!(Scenario::from_json_str(&text).unwrap().channels, 2);

        // Non-power-of-two, zero and oversized counts are rejected.
        let base = s.to_json();
        for bad in ["\"channels\": 3", "\"channels\": 0", "\"channels\": 512"] {
            let e = Scenario::from_json_str(&base.replacen("\"channels\": 8", bad, 1)).unwrap_err();
            assert!(e.message().contains("channels"), "{bad}: {e}");
        }
    }

    #[test]
    fn governor_stanza_round_trips_and_is_optional() {
        use crate::governor_spec::GovernorSpec;
        use sara_memctrl::PolicyKind;

        // Full stanza (all optional keys) round-trips value- and byte-exact.
        let spec = GovernorSpec {
            start_mhz: Some(1600),
            epoch_us: 50.0,
            escalate_policy: Some(PolicyKind::QosRowBuffer),
            ..GovernorSpec::new(vec![1333, 1600, 1866])
        };
        let s = Scenario {
            governor: Some(spec),
            ..catalog::by_name("adas").unwrap()
        };
        let text = s.to_json();
        assert!(text.contains("\"governor\""), "{text}");
        let back = Scenario::from_json_str(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), text);

        // Dropping the stanza yields a governor-less scenario whose bytes
        // carry no governor key (v1 compatibility).
        let mut plain = s.clone();
        plain.governor = None;
        let text = plain.to_json();
        assert!(!text.contains("governor"), "{text}");
        assert_eq!(Scenario::from_json_str(&text).unwrap().governor, None);
    }

    #[test]
    fn governor_stanza_violations_are_rejected_with_context() {
        use crate::governor_spec::GovernorSpec;

        let base = Scenario {
            governor: Some(GovernorSpec::new(vec![1333, 1600])),
            ..catalog::by_name("adas").unwrap()
        }
        .to_json();
        // The pretty emitter breaks arrays across lines; match the block.
        let ladder = "\"ladder_mhz\": [\n      1333,\n      1600\n    ]";
        let cases = [
            (
                ladder,
                "\"ladder_mhz\": [\n      1600,\n      1333\n    ]",
                "ascending",
            ),
            (
                ladder,
                "\"ladder_mhz\": [\n      1600,\n      1600\n    ]",
                "ascending",
            ),
            ("\"epoch_us\": 100", "\"epoch_us\": 0", "epoch_us"),
            ("\"patience\": 3", "\"patience\": 0", "patience"),
            (
                "\"up_threshold\": 0.97",
                "\"up_threshold\": 2.5",
                "down_threshold",
            ),
            ("\"patience\": 3", "\"patince\": 3", "unknown key"),
        ];
        for (from, to, expect) in cases {
            assert!(base.contains(from), "test fixture drifted: {from}");
            let e = Scenario::from_json_str(&base.replacen(from, to, 1)).unwrap_err();
            assert!(e.message().contains(expect), "{from} -> {to}: {e}");
            assert!(e.message().contains("governor"), "no path in: {e}");
        }
    }

    /// One broken document per rule, with the whole message pinned: these
    /// are the strings the reader printed before it moved onto
    /// `json::read::Fields`, and every front door now borrows its wording.
    #[test]
    fn every_rule_keeps_its_exact_message() {
        use crate::governor_spec::GovernorSpec;

        let adas = catalog::by_name("adas").unwrap().to_json();
        let eight = Scenario {
            channels: 8,
            ..catalog::by_name("adas").unwrap()
        }
        .to_json();
        let governed = Scenario {
            governor: Some(GovernorSpec::new(vec![1333, 1600])),
            ..catalog::by_name("adas").unwrap()
        }
        .to_json();
        let mut no_seed = json::parse(&adas).unwrap();
        if let Value::Object(members) = &mut no_seed {
            members.retain(|(k, _)| k != "seed");
        }
        let ladder = "\"ladder_mhz\": [\n      1333,\n      1600\n    ]";
        let big_rung = "\"ladder_mhz\": [\n      1333,\n      5000000000\n    ]";
        let cases = [
            (
                "[1, 2, 3]".to_string(),
                "scenario: expected an object, got array",
            ),
            (
                adas.replacen("\"seed\":", "\"sede\":", 1),
                "scenario: unknown key \"sede\" (expected one of: format, name, description, \
                 freq_mhz, policy, frame_period_ns, duration_ms, seed, channels, governor, cores)",
            ),
            (
                no_seed.to_string_pretty(),
                "scenario: missing required key \"seed\"",
            ),
            (
                adas.replacen("\"name\": \"adas\"", "\"name\": 7", 1),
                "scenario: \"name\" must be a string, got number",
            ),
            (
                adas.replacen("\"duration_ms\": 5", "\"duration_ms\": null", 1),
                "scenario: \"duration_ms\" is null — non-finite numbers (NaN/infinity) cannot \
                 round-trip through JSON and are not valid here",
            ),
            (
                adas.replacen("\"duration_ms\": 5", "\"duration_ms\": -1", 1),
                "scenario: \"duration_ms\" must be > 0, got -1",
            ),
            (
                adas.replacen("\"window\": 8", "\"window\": 0", 1),
                "scenario.cores[0].dmas[0]: \"window\" must be ≥ 1",
            ),
            (
                adas.replacen("\"freq_mhz\": 1600", "\"freq_mhz\": 5000000000", 1),
                "scenario: \"freq_mhz\" 5000000000 exceeds 4294967295",
            ),
            (
                adas.replacen("\"policy\": \"QoS\"", "\"policy\": \"qos\"", 1),
                "scenario: unknown policy \"qos\" (expected one of: FCFS, RR, FrameQoS, QoS, \
                 QoS-RB, FR-FCFS)",
            ),
            (
                adas.replacen("\"kind\": \"Camera\"", "\"kind\": \"camera\"", 1),
                "scenario.cores[0]: unknown core kind \"camera\" (expected one of: GPU, DSP, \
                 Image Proc., Video Codec, Rotator, JPEG, Camera, Display, GPS, WiFi, USB, \
                 Modem, Audio, CPU)",
            ),
            (
                adas.replacen("\"op\": \"RD\"", "\"op\": \"READ\"", 1),
                "scenario.cores[1].dmas[0]: unknown op \"READ\" (expected \"RD\" or \"WR\")",
            ),
            (
                adas.replacen("\"direction\": \"fill\"", "\"direction\": \"full\"", 1),
                "scenario.cores[0].dmas[0].meter: unknown direction \"full\" (expected \"fill\" \
                 or \"drain\")",
            ),
            (
                adas.replacen("\"kind\": \"burst\"", "\"kind\": \"bursty\"", 1),
                "scenario.cores[3].dmas[0].traffic: unknown traffic kind \"bursty\" (expected \
                 burst, constant, poisson, batch or elastic)",
            ),
            (
                adas.replacen("\"kind\": \"sequential\"", "\"kind\": \"linear\"", 1),
                "scenario.cores[0].dmas[0].pattern: unknown pattern kind \"linear\" (expected \
                 sequential, strided or random)",
            ),
            (
                adas.replacen("\"kind\": \"work-unit\"", "\"kind\": \"workunit\"", 1),
                "scenario.cores[1].dmas[0].meter: unknown meter kind \"workunit\" (expected \
                 latency, frame-rate, occupancy, bandwidth, work-unit or best-effort)",
            ),
            (
                eight.replacen("\"channels\": 8", "\"channels\": 3", 1),
                "scenario: \"channels\" must be a power of two in 1..=256, got 3",
            ),
            (
                governed.replacen(ladder, big_rung, 1),
                "scenario.governor: \"ladder_mhz[1]\" 5000000000 exceeds 4294967295",
            ),
        ];
        for (text, want) in cases {
            let e = Scenario::from_json_str(&text).unwrap_err();
            assert_eq!(e.message(), want);
        }
    }

    #[test]
    fn loaded_scenarios_lower_onto_configs() {
        // The decisive end check: a file round-trip later still builds.
        for s in catalog::builtin() {
            let back = Scenario::from_json_str(&s.to_json()).unwrap();
            back.config().unwrap_or_else(|e| panic!("{}: {e}", s.name));
        }
    }
}
