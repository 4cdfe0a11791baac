//! # sara-sim
//!
//! The deterministic co-simulation engine tying the SARA stack together:
//! self-aware DMAs (`sara-core` + `sara-workloads`) inject prioritised
//! transactions into the arbitration tree (`sara-noc`), the QoS-aware
//! memory controller (`sara-memctrl`) schedules them against the
//! cycle-level LPDDR4 model (`sara-dram`), and completions feed back into
//! each DMA's performance meter — the full closed loop of Fig. 3.
//!
//! Entry points:
//!
//! * [`SystemConfig`] — one run's workload and substrates (the clock is
//!   the DRAM's, the policy the controller's); build arbitrary workloads
//!   via [`SystemConfig::from_scenario`],
//! * [`Simulation`] — build with [`Simulation::new`], drive with
//!   [`Simulation::run_for_ms`], inspect the returned [`SimReport`],
//! * [`experiment`] — the DVFS search's per-report projection, with its
//!   CSV and JSON forms (the cells run through `sara-scenarios`),
//! * [`SystemHealth`] — the live snapshot API ([`Simulation::health`]:
//!   per-DMA live NPI and sampled floor, queue depths, each channel's
//!   clock and the analytic bandwidth bound it prices, the policy and the
//!   DRAM byte counter) and the online actuators
//!   ([`Simulation::set_dram_freq`], [`Simulation::set_channel_freq`],
//!   [`Simulation::set_policy`]) that the `sara-governor` closed loop
//!   drives at every control epoch,
//! * [`json`] — machine-comparable report serialization
//!   ([`SimReport::to_json`]),
//! * [`telemetry`] — the deterministic metrics plane: the owned snapshot
//!   of the engine's hot-path recorders that every report embeds
//!   ([`TelemetryReport`], serialized under the report's `telemetry` key).
//!
//! # Examples
//!
//! ```
//! use sara_memctrl::PolicyKind;
//! use sara_sim::{Simulation, SystemConfig};
//! use sara_types::{CoreKind, MegaHertz, MemOp};
//! use sara_workloads::builders::{constant_mb, occupancy_drain_kib, seq_mib};
//! use sara_workloads::{CoreSpec, DmaSpec};
//!
//! // A display refresh under the SARA policy for 2 ms — long enough for
//! // the meters to settle. (The catalog's workloads, the paper's
//! // camcorder among them, lower the same way: `sara_scenarios`.)
//! let display = CoreSpec::new(
//!     CoreKind::Display,
//!     vec![DmaSpec::new(
//!         "display-rd",
//!         MemOp::Read,
//!         constant_mb(1500.0),
//!         seq_mib(64),
//!         occupancy_drain_kib(512),
//!         8,
//!     )],
//! );
//! let cfg = SystemConfig::from_scenario(
//!     MegaHertz::new(1866),
//!     PolicyKind::Priority,
//!     vec![display],
//!     SystemConfig::DEFAULT_FRAME_PERIOD_NS,
//!     SystemConfig::DEFAULT_SEED,
//!     SystemConfig::DEFAULT_CHANNELS,
//! )?;
//! let report = Simulation::new(cfg)?.run_for_ms(2.0);
//! println!("{}", report.summary());
//! assert!(report.all_targets_met());
//! # Ok::<(), sara_types::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analytic;
mod config;
mod engine;
mod event_queue;
pub mod experiment;
mod health;
pub mod json;
mod lane;
mod report;
mod runtime;
mod sampling;
pub mod telemetry;

/// The engine's version string, stamped into content-addressed result
/// caches (see `sara_scenarios::cell_fingerprint`): a report is only
/// reusable by the exact engine build line that produced it, so cached
/// cells can never leak across releases with different simulation
/// behavior.
///
/// A change that means to move simulated results bumps this literal: it is
/// the one line an engine bump edits (the crate versions and both
/// `Cargo.lock`s stay put), and `scripts/rebaseline.sh` then regenerates
/// every pin of simulated output.
pub const ENGINE_VERSION: &str = "0.1.0";

pub use analytic::analytic_report;
pub use config::SystemConfig;
// Re-exported so downstream crates read verdicts without a direct
// `sara-analytic` dependency.
pub use engine::Simulation;
pub use health::{DmaHealth, SystemHealth};
pub use report::{CoreReport, SimReport, FAIL_THRESHOLD};
pub use sampling::MAX_LEVELS;
pub use sara_analytic::{AnalyticReport, ScreenVerdict};
pub use telemetry::TelemetryReport;
