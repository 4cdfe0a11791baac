//! # SARA — Self-Aware Resource Allocation for heterogeneous MPSoCs
//!
//! A from-scratch Rust reproduction of *SARA: Self-Aware Resource Allocation
//! for Heterogeneous MPSoCs* (Song, Alavoine, Lin — DAC 2018), including
//! every substrate its evaluation needs:
//!
//! * [`core`] — the SARA framework: distributed performance meters, NPI
//!   (Eqns 1–3), LUT-based priority adaptation (§3.1–§3.4);
//! * [`dram`] — a cycle-level multi-channel LPDDR4 model with the full
//!   Table 1 timing set and an independent timing checker;
//! * [`noc`] — the on-chip arbitration tree with per-class virtual-channel
//!   flow control and the four arbitration disciplines;
//! * [`memctrl`] — the 42-entry five-queue memory controller with the six
//!   scheduling policies of §4 (FCFS, RR, frame-rate QoS, Policy 1,
//!   Policy 2/QoS-RB, FR-FCFS);
//! * [`workloads`] — the composable traffic/pattern/meter vocabulary of
//!   deterministic synthetic traffic ([`workloads::builders`]);
//! * [`scenarios`] — the scenario catalog: the camcorder use case
//!   (Fig. 2 / Table 2) in both Table 1 cases, then AR headset,
//!   automotive ADAS, smartphone multitasking, ML offload and a
//!   saturation stress; a seeded random scenario generator, the
//!   multi-threaded scenario × policy × frequency batch harness, and the
//!   offline DVFS search over its cells;
//! * [`sim`] — the event-driven co-simulation engine and the per-report
//!   projections behind the paper's sweeps;
//! * [`governor`] — online, scenario-aware self-adaptation: a closed
//!   control loop stepping DRAM frequency (and optionally the scheduling
//!   policy) *inside* a running simulation;
//! * [`telemetry`] — the deterministic metrics substrate: counters,
//!   gauges, log2-bucketed latency histograms with exact merge, and the
//!   Chrome trace-event builder behind every `--chrome-trace` export.
//!
//! # Quickstart
//!
//! Run one camcorder frame under the SARA policy and check that every
//! heterogeneous core meets its target:
//!
//! ```no_run
//! use sara::memctrl::PolicyKind;
//! use sara::scenarios::catalog;
//!
//! let case_a = catalog::camcorder_a().with_policy(PolicyKind::Priority);
//! let report = case_a.run_for_ms(33.3)?;
//! println!("{}", report.summary());
//! assert!(report.all_targets_met());
//! # Ok::<(), sara::types::ConfigError>(())
//! ```
//!
//! The production entry point is the `sara` binary (`crates/cli`):
//! `sara export` / `validate` / `list` / `matrix` / `sweep` / `govern` /
//! `gen` / `report` / `serve` drive everything above from the command
//! line, and `sara repro` regenerates each table and figure of the paper
//! with its claims checked; the `examples/` show the library API directly.

#![warn(missing_docs)]

pub use sara_core as core;
pub use sara_dram as dram;
pub use sara_governor as governor;
pub use sara_memctrl as memctrl;
pub use sara_noc as noc;
pub use sara_scenarios as scenarios;
pub use sara_sim as sim;
pub use sara_telemetry as telemetry;
pub use sara_types as types;
pub use sara_workloads as workloads;
