//! Optional per-transaction tracing: a bounded ring of completion records
//! for debugging workloads and policies (who waited, who hit rows, who was
//! rescued by aging).

use std::collections::VecDeque;
use std::io::{BufWriter, Write};
use std::path::Path;

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

    /// Writes the retained records as CSV.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut f = BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            f,
            "id,dma,core,op,priority,injected_at,done_at,latency,queued_for,row_hit,was_aged"
        )?;
        for r in &self.records {
            writeln!(
                f,
                "{},{},{},{},{},{},{},{},{},{},{}",
                r.id.as_u64(),
                r.dma.index(),
                r.core.name().replace(' ', "_"),
                r.op,
                r.priority.as_u8(),
                r.injected_at.as_u64(),
                r.done_at.as_u64(),
                r.done_at.saturating_sub(r.injected_at),
                r.queued_for,
                r.row_hit as u8,
                r.was_aged as u8,
            )?;
        }
        f.flush()
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

    #[test]
    fn csv_has_one_row_per_record() {
        let mut t = TransactionTrace::new(8);
        for i in 0..5 {
            t.push(record(i));
        }
        let dir = std::env::temp_dir().join("sara_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        t.write_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 6); // header + 5
        assert!(text.lines().nth(1).unwrap().starts_with("0,0,DSP,RD,3,"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
