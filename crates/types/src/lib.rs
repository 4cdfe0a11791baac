//! # sara-types
//!
//! Common vocabulary for the SARA (Self-Aware Resource Allocation) MPSoC
//! simulation stack: simulated time ([`Cycle`], [`Clock`]), memory
//! transactions ([`Transaction`], [`Addr`], [`MemOp`]), QoS priorities
//! ([`Priority`], [`PriorityBits`]) and core/class identities
//! ([`CoreKind`], [`CoreClass`], [`DmaId`]). Every other crate in the
//! workspace builds on these types. Besides the one arbitration order the
//! NoC and the memory controller both rank by ([`arbitration`]), none of
//! them carry behaviour beyond cheap conversions, so the substrates (DRAM
//! model, NoC, memory controller) and the SARA framework can interoperate
//! without depending on each other.
//!
//! # Examples
//!
//! ```
//! use sara_types::{Addr, Clock, CoreKind, Cycle, DmaId, MegaHertz, MemOp, Priority,
//!                  Transaction, TransactionId};
//!
//! let clk = Clock::new(MegaHertz::new(1866));
//! let txn = Transaction {
//!     id: TransactionId::new(0),
//!     dma: DmaId::new(0),
//!     core: CoreKind::Display,
//!     class: CoreKind::Display.class(),
//!     op: MemOp::Read,
//!     addr: Addr::new(0x8000_0000),
//!     bytes: 128,
//!     injected_at: Cycle::ZERO,
//!     priority: Priority::LOWEST,
//!     urgent: false,
//! };
//! assert_eq!(txn.class.queue_index(), 3); // media queue
//! assert!(clk.cycles_from_ms(33.0) > 60_000_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arbitration;
mod error;
mod ids;
mod priority;
mod time;
mod transaction;
pub mod units;

pub use error::ConfigError;
pub use ids::{ChannelId, CoreClass, CoreKind, DmaId};
pub use priority::{Priority, PriorityBits};
pub use time::{Clock, Cycle, MegaHertz};
pub use transaction::{Addr, MemOp, Transaction, TransactionId};
