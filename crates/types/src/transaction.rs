//! Memory transactions travelling from a DMA through the NoC and memory
//! controller to DRAM.

use core::fmt;

use crate::{CoreClass, CoreKind, Cycle, DmaId, Priority};

/// Direction of a memory transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// Data flows DRAM → core; completion is when read data returns.
    Read,
    /// Data flows core → DRAM; completion is when the write burst is issued.
    Write,
}

impl MemOp {
    /// Whether this is a read.
    #[inline]
    pub fn is_read(self) -> bool {
        matches!(self, MemOp::Read)
    }

    /// Short name as printed by [`fmt::Display`] (`"RD"` / `"WR"`).
    pub fn name(self) -> &'static str {
        match self {
            MemOp::Read => "RD",
            MemOp::Write => "WR",
        }
    }

    /// Parses the [`MemOp::name`] spelling back into an op — the inverse
    /// used by scenario file I/O.
    pub fn from_name(name: &str) -> Option<MemOp> {
        match name {
            "RD" => Some(MemOp::Read),
            "WR" => Some(MemOp::Write),
            _ => None,
        }
    }
}

impl fmt::Display for MemOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A physical byte address in the shared DRAM space.
///
/// # Examples
///
/// ```
/// use sara_types::Addr;
///
/// let a = Addr::new(0x4000_0000);
/// assert_eq!(a.as_u64(), 0x4000_0000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address.
    #[inline]
    pub const fn new(addr: u64) -> Self {
        Addr(addr)
    }

    /// The raw address value.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#012x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// Unique identifier of an in-flight transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TransactionId(u64);

impl TransactionId {
    /// Creates an identifier from a monotonic sequence number.
    #[inline]
    pub const fn new(seq: u64) -> Self {
        TransactionId(seq)
    }

    /// The raw sequence number (also the global injection order).
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TransactionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// A memory transaction: one DMA burst (typically a single 128-byte DRAM
/// column burst) with the QoS metadata that SARA attaches to it.
///
/// The `priority` field is stamped by the issuing DMA's priority-based
/// adaptation at injection time (§3.2) and is read by every arbiter on the
/// path to DRAM. `urgent` carries the frame-deadline flag used by the
/// baseline frame-rate QoS policy of [Jeong et al., DAC'12].
#[derive(Debug, Clone, PartialEq)]
pub struct Transaction {
    /// Unique id; also encodes global arrival order for FCFS policies.
    pub id: TransactionId,
    /// The DMA engine that issued this transaction.
    pub dma: DmaId,
    /// The kind of core that owns the DMA (for reporting).
    pub core: CoreKind,
    /// Traffic class (selects the memory-controller queue).
    pub class: CoreClass,
    /// Read or write.
    pub op: MemOp,
    /// Start address of the burst.
    pub addr: Addr,
    /// Burst length in bytes.
    pub bytes: u32,
    /// Cycle at which the DMA injected the transaction into the NoC.
    pub injected_at: Cycle,
    /// SARA priority level stamped at injection.
    pub priority: Priority,
    /// Frame-urgency flag for the frame-rate-based QoS baseline.
    pub urgent: bool,
}

impl Transaction {
    /// Cycles this transaction has been in flight at `now`.
    #[inline]
    pub fn age(&self, now: Cycle) -> u64 {
        now.saturating_sub(self.injected_at)
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {}B @{} {} from {}({})",
            self.id,
            self.op,
            self.addr,
            self.bytes,
            self.injected_at,
            self.priority,
            self.core,
            self.dma
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Transaction {
        Transaction {
            id: TransactionId::new(7),
            dma: DmaId::new(2),
            core: CoreKind::Display,
            class: CoreClass::Media,
            op: MemOp::Read,
            addr: Addr::new(0x1000),
            bytes: 128,
            injected_at: Cycle::new(100),
            priority: Priority::new(5),
            urgent: false,
        }
    }

    #[test]
    fn age_saturates() {
        let t = sample();
        assert_eq!(t.age(Cycle::new(150)), 50);
        assert_eq!(t.age(Cycle::new(50)), 0);
    }

    #[test]
    fn display_formats() {
        let t = sample();
        let s = t.to_string();
        assert!(s.contains("txn#7"));
        assert!(s.contains("RD"));
        assert!(s.contains("P5"));
        assert_eq!(format!("{:x}", t.addr), "1000");
    }

    #[test]
    fn mem_op_names_round_trip() {
        for op in [MemOp::Read, MemOp::Write] {
            assert_eq!(MemOp::from_name(op.name()), Some(op));
        }
        assert_eq!(MemOp::from_name("read"), None);
    }
}
