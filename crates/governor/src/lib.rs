//! # sara-governor
//!
//! Online, scenario-aware self-adaptation: a closed control loop running
//! *inside* the simulation. Where `sara_scenarios::dvfs_search` re-runs
//! whole simulations per candidate frequency (offline search), this
//! crate puts the controller in the loop — at every control epoch it
//! reads SARA's own health signals through the sim layer's snapshot API
//! ([`sara_sim::Simulation::health`]: per-DMA meters/NPI, queue depths)
//! and actuates the live platform: it steps the DRAM frequency through a
//! configurable ladder ([`sara_sim::Simulation::set_dram_freq`]) and can
//! escalate the memory-scheduling policy
//! ([`sara_sim::Simulation::set_policy`]) when the top rung alone cannot
//! restore QoS.
//!
//! The pieces:
//!
//! * [`Governor`] — the deterministic decision automaton: hysteresis band
//!   (`up_threshold` / `down_threshold`), patience, and a failed-rung
//!   memory that guarantees convergence on statistically steady workloads
//!   (a rung observed failing is never re-entered);
//! * [`run_governed`] — the epoch loop over any declarative
//!   [`Scenario`](sara_scenarios::Scenario), yielding a byte-deterministic
//!   per-epoch [`EpochRecord`] trace plus the final
//!   [`SimReport`](sara_sim::SimReport); every figure a run is judged by
//!   ([`GovernedOutcome::freq_changes`], [`GovernedOutcome::qos_deficit`],
//!   the final operating point, …) is read off that trace;
//! * [`run_pinned`] — the equivalent *static* run (same beat clock, fixed
//!   frequency) every governed run is judged against;
//! * [`trace`] — CSV/JSON serialization of epoch traces.
//!
//! Scenarios opt in declaratively through the `.scenario.json` `governor`
//! stanza ([`GovernorSpec`]); the `sara govern` CLI drives the whole loop
//! from the command line.
//!
//! # Examples
//!
//! ```
//! use sara_governor::{run_governed, GovernedOutcome};
//! use sara_scenarios::catalog;
//!
//! let scenario = catalog::by_name("adas-overload").unwrap();
//! // Its stanza if present, else the default ladder at its nominal clock.
//! let spec = scenario.governor_spec();
//! // Five 100 µs control epochs — long runs climb further.
//! let out: GovernedOutcome = run_governed(&scenario, &spec, 0.5)?;
//! assert!(out.freq_changes() > 0, "the overload forces the ladder up");
//! println!("{}", out.summary_line());
//! # Ok::<(), sara_types::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
mod controller;
mod run;
pub mod trace;

pub use controller::{Governor, GovernorAction};
pub use run::{run_governed, run_pinned, EpochRecord, GovernedOutcome};

// The stanza type lives with the scenario format; re-export it so
// downstream users need only this crate.
pub use sara_scenarios::GovernorSpec;
