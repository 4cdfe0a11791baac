//! # sara-scenarios
//!
//! A workload layer above the SARA simulation stack: declarative
//! [`Scenario`]s, a catalog of built-in allocation problems beyond the
//! paper's camcorder, a seeded random scenario generator, and a
//! multi-threaded batch harness that crosses scenarios with policies and
//! frequencies.
//!
//! The paper evaluates self-aware allocation on exactly one workload
//! (Fig. 2's camcorder). This crate decouples *what runs* from *what it
//! runs on* — SCALL-style declarative specs over the layered platform
//! model — so policy questions can be asked across a whole catalog at
//! once:
//!
//! * [`Scenario`] — name + cores + platform knobs, lowered onto
//!   `SystemConfig::from_scenario` by [`Scenario::config`];
//! * [`catalog`] — built-ins: the two camcorder cases, an AR headset, an
//!   automotive ADAS stack (plus a mixed-criticality overload variant),
//!   smartphone burst multitasking, ML-inference offload, and a
//!   deliberate DRAM saturation stress;
//! * [`GovernorSpec`] — the optional `governor` stanza: epoch length,
//!   DVFS ladder, hysteresis thresholds and policy escalation for the
//!   `sara-governor` online control loop (absent = static run);
//! * [`random_scenario`] — seeded fuzz-style generation from the same
//!   traffic/pattern/meter vocabulary (same seed → same scenario);
//! * [`format`](mod@format) — `.scenario.json` file I/O: [`Scenario::to_json`] /
//!   [`Scenario::from_json_str`] plus [`load_dir`] for running
//!   user-supplied catalogs without recompiling (and
//!   [`catalog::export_all`] for seeding such a directory);
//! * [`run_matrix`] — scenario × policy × frequency cells, each lowered
//!   once to a system ([`CellSpec::system`]), aggregated into a ranked
//!   [`MatrixSummary`] whose JSON is identical no matter the thread count;
//! * [`run_ordered`] — the one place cells run on threads, under every
//!   `sara serve` job and [`run_systems`]: the one batch of systems
//!   `run_matrix`, `dvfs_search`, `sara sweep` and `sara repro` simulate
//!   through, equal systems once;
//! * [`dvfs_search`] — the offline DVFS search: one scenario × candidate
//!   frequencies as one batch, lowest passing frequency chosen.
//!
//! # Examples
//!
//! ```
//! use sara_memctrl::PolicyKind;
//! use sara_scenarios::{catalog, run_matrix, MatrixSpec};
//!
//! let scenarios = vec![catalog::by_name("camcorder-b").unwrap()];
//! let spec = MatrixSpec {
//!     policies: vec![PolicyKind::Fcfs, PolicyKind::Priority],
//!     duration_ms: Some(0.05), // longer runs are more interesting
//!     ..MatrixSpec::default()
//! };
//! let summary = run_matrix(&scenarios, &spec)?;
//! assert_eq!(summary.cells.len(), 2);
//! println!("{}", summary.summary_table());
//! # Ok::<(), sara_types::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod catalog;
pub mod format;
mod generator;
mod governor_spec;
mod matrix;
mod ordered;
mod scenario;
mod search;

pub use format::{load_dir, scenario_files, FORMAT_TAG, SCENARIO_FILE_SUFFIX};
pub use generator::{random_scenario, random_scenario_with, GeneratorConfig};
pub use governor_spec::{
    GovernorSpec, DEFAULT_DOWN_THRESHOLD, DEFAULT_EPOCH_US, DEFAULT_PATIENCE, DEFAULT_UP_THRESHOLD,
};
pub use matrix::{
    cell_fingerprint, cell_head_members, csv_field, expand_cells, rank_cells, run_cell, run_matrix,
    screen_cell, summarize_cells, CellOutcome, CellProfile, CellSpec, MatrixCell, MatrixSpec,
    MatrixSummary, RankKey, ScenarioFingerprint, ScenarioRanking, ScreenMode,
};
pub use ordered::{run_ordered, run_systems};
pub use scenario::Scenario;
pub use search::{dvfs_search, SearchOutcome};
