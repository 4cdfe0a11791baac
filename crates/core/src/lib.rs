//! # sara-core
//!
//! The SARA framework proper — the paper's primary contribution (§3):
//!
//! 1. **Distributed self-monitoring** (§3.1): each DMA carries a lightweight
//!    [`PerformanceMeter`] measuring its own notion of performance — average
//!    latency (Eqn 1), frame progress (Eqn 2), buffer occupancy (Eqn 3),
//!    bandwidth, or processing time — normalised into an [`Npi`].
//! 2. **Priority-based adaptation** (§3.2, §3.4): a [`PriorityMap`]
//!    look-up table (8 registers + 8 comparators per core in hardware)
//!    translates the NPI into a 3-bit priority level; [`SelfAwareDma`]
//!    stamps that level on every outgoing transaction.
//! 3. **Distributed system response** (§3.3): the stamped priorities are
//!    consumed by `sara-noc` arbiters and the `sara-memctrl` scheduler
//!    (Policy 1 / Policy 2) — no central QoS monitor anywhere.
//!
//! # Examples
//!
//! A DSP-style latency-bounded DMA adapting under load:
//!
//! ```
//! use sara_core::{LatencyMeter, PriorityMap, SelfAwareDma};
//! use sara_types::{Cycle, MemOp, Priority};
//!
//! let mut dma = SelfAwareDma::new(
//!     Box::new(LatencyMeter::new(400.0, 0.25)),
//!     PriorityMap::paper_default(),
//! );
//! // Healthy: low latency, relaxed priority.
//! dma.on_complete(Cycle::new(100), 128, 150, MemOp::Read);
//! assert!(dma.npi().is_met());
//! // Interference drives the average latency over the limit...
//! for i in 0..8 {
//!     dma.on_complete(Cycle::new(200 + i * 50), 128, 2_000, MemOp::Read);
//! }
//! // ...and the self-adaptation raises the stamped priority.
//! assert!(dma.priority() >= Priority::new(6));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adaptation;
mod meter;
mod npi;
mod priority_map;

pub use adaptation::SelfAwareDma;
pub use meter::{
    BandwidthMeter, BoxedMeter, BufferDirection, FrameProgressMeter, LatencyMeter, OccupancyMeter,
    PerformanceMeter, WorkUnitMeter,
};
pub use npi::Npi;
pub use priority_map::PriorityMap;
