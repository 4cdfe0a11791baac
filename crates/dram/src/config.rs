//! DRAM geometry and device configuration (Table 1).

use sara_types::{ConfigError, MegaHertz};

use crate::timing::TimingParams;

/// Bytes moved by one column burst (BL16 on an 8-byte channel). Every
/// transaction the simulator issues is one burst.
pub const BURST_BYTES: u32 = 128;
const RANKS: usize = 2;
const BANKS: usize = 8;
const ROWS: usize = 32 * 1024;
const ROW_BYTES: u64 = 2048;
const BYTES_PER_BEAT: u32 = 8;

// The memory controller's row guard keeps one bit per bank of a channel in
// a `u64`.
const _: () = assert!(RANKS * BANKS <= 64);

/// The simulated DRAM part: Table 1's geometry at a chosen I/O frequency,
/// channel count and timing set.
///
/// The paper's Table 1 system is 2 GB, 2 channels × 2 ranks × 8 banks, I/O
/// up to 1866 MHz. Rows (32 Ki per bank), row size (2 KiB), beat width
/// (8 B) and burst size ([`BURST_BYTES`]) are LPDDR4-typical constants
/// that multiply out to that capacity. A wider part repeats the same
/// per-channel geometry ([`DramConfig::with_channels`]).
///
/// # Examples
///
/// ```
/// use sara_dram::DramConfig;
///
/// let cfg = DramConfig::table1_1866();
/// assert_eq!(cfg.channels(), 2);
/// assert_eq!(cfg.ranks(), 2);
/// assert_eq!(cfg.banks(), 8);
/// assert_eq!(cfg.capacity_bytes(), 2 * 1024 * 1024 * 1024);
/// // 8 bytes/beat * 1866 MHz * 2 channels ≈ 29.9 GB/s peak
/// assert!((cfg.peak_bandwidth_bytes_per_s() - 29.856e9).abs() < 1e7);
/// assert_eq!(cfg.with_channels(8)?.capacity_bytes(), 8 << 30);
/// # Ok::<(), sara_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    channels: usize,
    io_freq: MegaHertz,
    timing: TimingParams,
}

impl DramConfig {
    /// The paper's Table 1 configuration at 1866 MHz (test case A).
    pub fn table1_1866() -> Self {
        Self::table1(MegaHertz::new(1866))
    }

    /// The Table 1 part at an arbitrary I/O frequency (test case B uses
    /// 1700 MHz; Fig. 7 sweeps 1300–1700 MHz).
    ///
    /// Cycle-denominated timings are kept constant across frequencies; the
    /// wall-clock duration of a cycle scales instead (`docs/reproduction.md`).
    pub fn table1(io_freq: MegaHertz) -> Self {
        DramConfig {
            channels: 2,
            io_freq,
            timing: TimingParams::lpddr4_1866(),
        }
    }

    /// The same part with `n` channels.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] unless `n` is a non-zero power of two (the
    /// address map is pure bit slicing).
    pub fn with_channels(mut self, n: usize) -> Result<Self, ConfigError> {
        if !n.is_power_of_two() {
            return Err(ConfigError::new(format!(
                "channels must be a non-zero power of two, got {n}"
            )));
        }
        self.channels = n;
        Ok(self)
    }

    /// The same part under another timing set.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] unless the set's burst length is the
    /// [`BURST_BYTES`] burst's beat count (16).
    pub fn with_timing(mut self, timing: TimingParams) -> Result<Self, ConfigError> {
        let beats = (BURST_BYTES / BYTES_PER_BEAT) as u64;
        if beats != timing.burst_beats() {
            return Err(ConfigError::new(format!(
                "burst occupies {beats} beats but timing BL is {}",
                timing.burst_beats()
            )));
        }
        self.timing = timing;
        Ok(self)
    }

    /// Number of independent channels.
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Ranks per channel.
    #[inline]
    pub fn ranks(&self) -> usize {
        RANKS
    }

    /// Banks per rank.
    #[inline]
    pub fn banks(&self) -> usize {
        BANKS
    }

    /// Rows per bank.
    #[inline]
    pub fn rows(&self) -> usize {
        ROWS
    }

    /// Bytes stored in one row (row-buffer size).
    #[inline]
    pub fn row_bytes(&self) -> u64 {
        ROW_BYTES
    }

    /// Bytes transferred by one column burst ([`BURST_BYTES`]).
    #[inline]
    pub fn burst_bytes(&self) -> u32 {
        BURST_BYTES
    }

    /// Bytes moved per data-bus beat (channel width).
    #[inline]
    pub fn bytes_per_beat(&self) -> u32 {
        BYTES_PER_BEAT
    }

    /// I/O bus frequency.
    #[inline]
    pub fn io_freq(&self) -> MegaHertz {
        self.io_freq
    }

    /// Timing parameter set.
    #[inline]
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Column bursts per row.
    #[inline]
    pub fn cols(&self) -> usize {
        (ROW_BYTES / BURST_BYTES as u64) as usize
    }

    /// Total device capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        (self.channels * RANKS * BANKS * ROWS) as u64 * ROW_BYTES
    }

    /// Theoretical peak data bandwidth across all channels, in bytes/second.
    #[inline]
    pub fn peak_bandwidth_bytes_per_s(&self) -> f64 {
        self.channels as f64 * BYTES_PER_BEAT as f64 * self.io_freq.as_hz() as f64
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::table1_1866()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_capacity_is_2gb() {
        let cfg = DramConfig::table1_1866();
        assert_eq!(cfg.capacity_bytes(), 2 << 30);
        assert_eq!(cfg.cols(), 16);
    }

    #[test]
    fn builder_rejects_non_power_of_two() {
        let cfg = DramConfig::table1_1866();
        assert!(cfg.clone().with_channels(3).is_err());
        assert!(cfg.clone().with_channels(0).is_err());
        assert_eq!(cfg.with_channels(16).unwrap().channels(), 16);
    }

    #[test]
    fn builder_rejects_mismatched_burst() {
        // An 8-beat burst cannot carry Table 1's 128-byte burst.
        let t = TimingParams::builder()
            .burst_beats(8)
            .tccd(8)
            .build()
            .unwrap();
        let cfg = DramConfig::table1_1866();
        assert!(cfg.clone().with_timing(t).is_err());
        let t = TimingParams::builder()
            .refresh_enabled(false)
            .build()
            .unwrap();
        assert!(!cfg.with_timing(t).unwrap().timing().refresh_enabled());
    }

    #[test]
    fn peak_bandwidth_scales_with_frequency() {
        let fast = DramConfig::table1(MegaHertz::new(1866));
        let slow = DramConfig::table1(MegaHertz::new(1300));
        assert!(fast.peak_bandwidth_bytes_per_s() > slow.peak_bandwidth_bytes_per_s());
    }
}
