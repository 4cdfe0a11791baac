//! # sara-dram
//!
//! A cycle-level, multi-channel LPDDR4 DRAM model — the substrate the SARA
//! paper simulates with DRAMSim2 (§4, Table 1). The model enforces the full
//! bank/rank/channel timing protocol (tRCD, tRP, tRAS, tRRD, tFAW, tWTR,
//! tRTP, tWR, tCCD, CL/WL, data-bus occupancy, all-bank refresh), tracks
//! row-buffer hits/misses/conflicts, and accounts bandwidth per channel.
//! The part is Table 1's: its geometry and energy figures are constants,
//! and a [`DramConfig`] varies only the I/O frequency, the channel count
//! and the timing set.
//!
//! The device is *passive*: a memory controller (see `sara-memctrl`) asks
//! what a transaction needs next ([`Dram::next_command`]), when that command
//! may legally issue ([`Dram::earliest`]) and then issues it
//! ([`Dram::issue`]). A deliberately independent [`TimingChecker`] validates
//! command streams in tests so that model bugs cannot hide.
//!
//! # Examples
//!
//! Reading one burst from a cold bank costs ACT + tRCD + RD + CL + BL:
//!
//! ```
//! use sara_dram::{Dram, DramConfig, Interleave};
//! use sara_types::{Addr, Cycle, MemOp};
//!
//! let mut dram = Dram::new(DramConfig::table1_1866(), Interleave::default())?;
//! let loc = dram.decode(Addr::new(0));
//! let mut now = Cycle::ZERO;
//! let done = loop {
//!     now = now.max(dram.earliest(&loc, MemOp::Read));
//!     if let Some(done) = dram.issue(&loc, MemOp::Read, now).completion() {
//!         break done;
//!     }
//! };
//! assert_eq!(done.as_u64(), 34 + 36 + 16); // tRCD + CL + BL
//! # Ok::<(), sara_types::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod address;
mod bank;
mod channel;
mod checker;
mod command;
mod config;
mod device;
mod energy;
mod stats;
mod timing;

pub use address::{AddressMap, Interleave, Location};
pub use bank::AccessOutcome;
pub use channel::{Channel, Gates};
pub use checker::{TimingChecker, TimingViolation};
pub use command::{CommandRecord, DramCommand, Issued, NextCommand};
pub use config::{DramConfig, BURST_BYTES};
pub use device::Dram;
pub use energy::{estimate_energy, EnergyEstimate};
pub use stats::{ChannelStats, DramStats};
pub use timing::{TimingParams, TimingParamsBuilder};
