//! Optional per-transaction tracing: a bounded ring of completion records
//! for debugging workloads and policies (who waited, who hit rows, who was
//! rescued by aging).

use std::collections::VecDeque;

use sara_types::{CoreKind, Cycle, DmaId, MemOp, Priority, TransactionId};

/// One completed transaction, as observed at the memory controller.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Transaction id (global injection order).
    pub id: TransactionId,
    /// Issuing DMA.
    pub dma: DmaId,
    /// Owning core.
    pub core: CoreKind,
    /// Direction.
    pub op: MemOp,
    /// Stamped SARA priority.
    pub priority: Priority,
    /// Injection cycle.
    pub injected_at: Cycle,
    /// Data completion cycle.
    pub done_at: Cycle,
    /// Controller queueing delay in cycles.
    pub queued_for: u64,
    /// Whether the final column access hit an open row.
    pub row_hit: bool,
    /// Whether starvation aging promoted it.
    pub was_aged: bool,
}

/// A bounded ring buffer of [`TraceRecord`]s (oldest evicted first).
///
/// # Examples
///
/// ```
/// use sara_sim::TransactionTrace;
///
/// let trace = TransactionTrace::new(1024);
/// assert!(trace.is_empty());
/// assert_eq!(trace.capacity(), 1024);
/// ```
#[derive(Debug, Clone)]
pub struct TransactionTrace {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl TransactionTrace {
    /// Creates a trace keeping at most `capacity` most-recent records.
    pub fn new(capacity: usize) -> Self {
        TransactionTrace {
            records: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    /// Maximum records retained.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records retained so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted because the ring was full.
    #[inline]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&mut self, record: TraceRecord) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }

    /// Iterates over retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64) -> TraceRecord {
        TraceRecord {
            id: TransactionId::new(id),
            dma: DmaId::new(0),
            core: CoreKind::Dsp,
            op: MemOp::Read,
            priority: Priority::new(3),
            injected_at: Cycle::new(id * 10),
            done_at: Cycle::new(id * 10 + 100),
            queued_for: 40,
            row_hit: id.is_multiple_of(2),
            was_aged: false,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = TransactionTrace::new(2);
        t.push(record(0));
        t.push(record(1));
        t.push(record(2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
        let ids: Vec<u64> = t.iter().map(|r| r.id.as_u64()).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut t = TransactionTrace::new(0);
        t.push(record(0));
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 1);
    }
}
