//! # sara-noc
//!
//! The on-chip network substrate of the SARA stack: a class-grouped tree of
//! arbitration nodes carrying memory transactions from DMAs to the memory
//! controller, with per-input FIFOs, bounded link/service rates and
//! backpressure at every hop.
//!
//! §3.3 of the paper requires that "transactions with higher priorities are
//! preferentially selected during switch allocation" in routers; the
//! [`ArbiterKind::Priority`] policy implements exactly that, while
//! [`ArbiterKind::Fcfs`], [`ArbiterKind::RoundRobin`] and
//! [`ArbiterKind::FrameUrgent`] provide the paper's three baselines so the
//! whole interconnect can be flipped between disciplines.
//!
//! # Examples
//!
//! ```
//! use sara_noc::{ArbiterKind, Noc, NocConfig};
//! use sara_types::{Addr, CoreClass, CoreKind, Cycle, DmaId, MemOp, Priority,
//!                  Transaction, TransactionId};
//!
//! let mut noc = Noc::class_tree(NocConfig::new(ArbiterKind::Priority), &[CoreClass::Cpu])?;
//! let txn = Transaction {
//!     id: TransactionId::new(0),
//!     dma: DmaId::new(0),
//!     core: CoreKind::Cpu,
//!     class: CoreClass::Cpu,
//!     op: MemOp::Read,
//!     addr: Addr::new(0),
//!     bytes: 128,
//!     injected_at: Cycle::ZERO,
//!     priority: Priority::LOWEST,
//!     urgent: false,
//! };
//! assert!(noc.inject(0, Cycle::ZERO, txn).is_ok());
//! let mut delivered = Vec::new();
//! let mut sink = |t: Transaction| { delivered.push(t); Ok(()) };
//! for t in [6u64, 12] {
//!     noc.pump(Cycle::new(t), &mut sink);
//! }
//! assert_eq!(delivered.len(), 1);
//! # Ok::<(), sara_types::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arbiter;
mod network;
mod node;

pub use arbiter::{select, ArbiterKind, Contender};
pub use network::{Noc, NocConfig, PumpOutcome};
pub use node::NodeStats;
