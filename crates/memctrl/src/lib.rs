//! # sara-memctrl
//!
//! The QoS-aware memory controller of the SARA stack (§3.3, §4): five class
//! transaction queues sharing a 42-entry budget (Table 1), work-conserving
//! command scheduling against the cycle-level DRAM model of `sara-dram`, and
//! the six arbitration policies the paper evaluates — FCFS, round-robin, the
//! frame-rate QoS baseline, **Policy 1** (priority-based round-robin with
//! starvation aging), **Policy 2** (QoS-RB: row-buffer optimisation gated by
//! the δ threshold) and FR-FCFS.
//!
//! The controller is split along the channel boundary: a shared policy
//! front-end ([`AdmissionControl`]) admits transactions against the
//! per-class capacities and the shared entry budget, after which each
//! transaction belongs to exactly one [`ChannelController`] — the
//! scheduling engine for one DRAM channel, with its own queues,
//! round-robin/aging state and counters. [`MemoryController`] composes the
//! two halves behind the original single-object API; a lane-structured
//! engine owns the halves directly so channels can be stepped
//! independently (and concurrently).
//!
//! See [`MemoryController`] for the scheduling protocol and [`PolicyKind`]
//! for the policy taxonomy.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod channel_ctrl;
mod config;
mod controller;
mod policy;
mod stats;

pub use channel_ctrl::{AdmissionControl, ChannelController};
pub use config::{McConfig, McConfigBuilder, NUM_QUEUES};
pub use controller::{Completion, MemoryController, TickResult};
pub use policy::{select, Candidate, PolicyKind, PolicyState};
pub use stats::{ClassStats, McStats};

// The facade and sim crates re-export the DRAM types alongside the
// controller; keep the pairing visible here for doc links.
pub use sara_dram as dram;
