//! DRAM activity counters: bandwidth, row-buffer outcomes, command mix.

use crate::bank::AccessOutcome;

/// Counters for one channel.
///
/// # Examples
///
/// ```
/// use sara_dram::ChannelStats;
///
/// let s = ChannelStats::default();
/// assert_eq!(s.row_hit_rate(), 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// ACT commands issued.
    pub activates: u64,
    /// PRE commands issued (scheduler-demanded, not refresh).
    pub precharges: u64,
    /// Read bursts issued.
    pub reads: u64,
    /// Write bursts issued.
    pub writes: u64,
    /// All-bank refreshes performed.
    pub refreshes: u64,
    /// Column accesses that hit an open row.
    pub row_hits: u64,
    /// Column accesses that opened a closed bank.
    pub row_misses: u64,
    /// Column accesses that evicted another row.
    pub row_conflicts: u64,
    /// Data-bus beats spent transferring data.
    pub data_beats: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
}

impl ChannelStats {
    pub(crate) fn record_outcome(&mut self, outcome: AccessOutcome) {
        match outcome {
            AccessOutcome::Hit => self.row_hits += 1,
            AccessOutcome::Miss => self.row_misses += 1,
            AccessOutcome::Conflict => self.row_conflicts += 1,
        }
    }

    /// Total column accesses (reads + writes).
    #[inline]
    pub fn column_accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of column accesses that hit an open row.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.column_accesses();
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Total bytes moved.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Merges another channel's counters into this one.
    pub fn merge(&mut self, other: &ChannelStats) {
        self.activates += other.activates;
        self.precharges += other.precharges;
        self.reads += other.reads;
        self.writes += other.writes;
        self.refreshes += other.refreshes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.data_beats += other.data_beats;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
    }
}

/// Aggregated device-level statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Sum over all channels.
    pub total: ChannelStats,
    /// Per-channel breakdown.
    pub per_channel: Vec<ChannelStats>,
}

impl DramStats {
    /// Aggregates per-channel counters into a device-level view — the
    /// merge step a lane-structured engine uses when each channel's stats
    /// live with its lane rather than in one `Dram` value.
    pub fn from_channels<'a>(channels: impl IntoIterator<Item = &'a ChannelStats>) -> DramStats {
        let per_channel: Vec<ChannelStats> = channels.into_iter().cloned().collect();
        let mut total = ChannelStats::default();
        for c in &per_channel {
            total.merge(c);
        }
        DramStats { total, per_channel }
    }

    /// Average delivered bandwidth in bytes/second given the I/O frequency
    /// in hertz and the elapsed cycle count.
    ///
    /// Note: elapsed cycles are shared by all channels (they run in
    /// lock-step), so total bytes divide by a single elapsed window.
    pub fn bandwidth_bytes_per_s(&self, freq_hz: u64, elapsed_cycles: u64) -> f64 {
        if elapsed_cycles == 0 {
            return 0.0;
        }
        self.total.total_bytes() as f64 * freq_hz as f64 / elapsed_cycles as f64
    }
}

#[cfg(test)]
// Tests build stats field-by-field on a Default base on purpose: the
// struct is all counters and a literal would bury the one that matters.
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_counts_only_column_accesses() {
        let mut s = ChannelStats::default();
        s.reads = 8;
        s.writes = 2;
        s.row_hits = 5;
        assert!((s.row_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn outcome_recording() {
        let mut s = ChannelStats::default();
        s.record_outcome(AccessOutcome::Hit);
        s.record_outcome(AccessOutcome::Miss);
        s.record_outcome(AccessOutcome::Conflict);
        s.record_outcome(AccessOutcome::Conflict);
        assert_eq!((s.row_hits, s.row_misses, s.row_conflicts), (1, 1, 2));
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = ChannelStats::default();
        a.reads = 1;
        a.data_beats = 16;
        let mut b = ChannelStats::default();
        b.reads = 2;
        b.data_beats = 32;
        a.merge(&b);
        assert_eq!(a.reads, 3);
        assert_eq!(a.data_beats, 48);
    }

    #[test]
    fn bandwidth_math() {
        let mut s = ChannelStats::default();
        s.read_bytes = 1000;
        let d = DramStats {
            total: s.clone(),
            per_channel: vec![s],
        };
        // 1000 bytes over 100 cycles at 1 GHz = 10 GB/s.
        assert!((d.bandwidth_bytes_per_s(1_000_000_000, 100) - 1e10).abs() < 1.0);
    }

    #[test]
    fn zero_elapsed_is_zero_bandwidth() {
        let mut s = ChannelStats::default();
        s.read_bytes = 1000;
        let d = DramStats {
            total: s.clone(),
            per_channel: vec![s],
        };
        assert_eq!(d.bandwidth_bytes_per_s(1_000_000_000, 0), 0.0);
    }
}
