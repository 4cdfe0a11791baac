//! DRAM geometry and device configuration (Table 1).

use sara_types::{ConfigError, MegaHertz};

use crate::timing::TimingParams;

/// Geometry + timing of the simulated DRAM device.
///
/// The paper's Table 1 system: 2 GB, 2 channels × 2 ranks × 8 banks, I/O up
/// to 1866 MHz. Row size and burst size are chosen LPDDR4-typical (2 KiB
/// rows, 128-byte column bursts on an 8-byte-per-beat channel) and are
/// validated to multiply out to the configured capacity.
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
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    channels: usize,
    ranks: usize,
    banks: usize,
    rows: usize,
    row_bytes: u64,
    burst_bytes: u32,
    bytes_per_beat: u32,
    io_freq: MegaHertz,
    timing: TimingParams,
}

impl DramConfig {
    /// The paper's Table 1 configuration at 1866 MHz (test case A).
    pub fn table1_1866() -> Self {
        Self::table1(MegaHertz::new(1866))
    }

    /// The Table 1 geometry at an arbitrary I/O frequency (test case B uses
    /// 1700 MHz; Fig. 7 sweeps 1300–1700 MHz).
    ///
    /// Cycle-denominated timings are kept constant across frequencies; the
    /// wall-clock duration of a cycle scales instead (`docs/reproduction.md`).
    pub fn table1(io_freq: MegaHertz) -> Self {
        DramConfig {
            channels: 2,
            ranks: 2,
            banks: 8,
            rows: 32 * 1024,
            row_bytes: 2048,
            burst_bytes: 128,
            bytes_per_beat: 8,
            io_freq,
            timing: TimingParams::lpddr4_1866(),
        }
    }

    /// Starts building a custom configuration from the Table 1 baseline.
    pub fn builder() -> DramConfigBuilder {
        DramConfigBuilder {
            cfg: Self::table1_1866(),
        }
    }

    /// Number of independent channels.
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Ranks per channel.
    #[inline]
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Banks per rank.
    #[inline]
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Rows per bank.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bytes stored in one row (row-buffer size).
    #[inline]
    pub fn row_bytes(&self) -> u64 {
        self.row_bytes
    }

    /// Bytes transferred by one column burst.
    #[inline]
    pub fn burst_bytes(&self) -> u32 {
        self.burst_bytes
    }

    /// Bytes moved per data-bus beat (channel width).
    #[inline]
    pub fn bytes_per_beat(&self) -> u32 {
        self.bytes_per_beat
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
        (self.row_bytes / self.burst_bytes as u64) as usize
    }

    /// Total device capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.channels as u64
            * self.ranks as u64
            * self.banks as u64
            * self.rows as u64
            * self.row_bytes
    }

    /// Theoretical peak data bandwidth across all channels, in bytes/second.
    #[inline]
    pub fn peak_bandwidth_bytes_per_s(&self) -> f64 {
        self.channels as f64 * self.bytes_per_beat as f64 * self.io_freq.as_hz() as f64
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::table1_1866()
    }
}

/// Builder for [`DramConfig`].
///
/// # Examples
///
/// ```
/// use sara_dram::DramConfig;
/// use sara_types::MegaHertz;
///
/// let small = DramConfig::builder().channels(1).ranks(1).rows(1024).build()?;
/// assert_eq!(small.channels(), 1);
/// # Ok::<(), sara_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DramConfigBuilder {
    cfg: DramConfig,
}

impl DramConfigBuilder {
    /// Sets the channel count (must be a power of two).
    pub fn channels(mut self, n: usize) -> Self {
        self.cfg.channels = n;
        self
    }

    /// Sets ranks per channel (must be a power of two).
    pub fn ranks(mut self, n: usize) -> Self {
        self.cfg.ranks = n;
        self
    }

    /// Sets banks per rank (must be a power of two).
    pub fn banks(mut self, n: usize) -> Self {
        self.cfg.banks = n;
        self
    }

    /// Sets rows per bank (must be a power of two).
    pub fn rows(mut self, n: usize) -> Self {
        self.cfg.rows = n;
        self
    }

    /// Sets the row size in bytes (power of two, multiple of burst size).
    pub fn row_bytes(mut self, bytes: u64) -> Self {
        self.cfg.row_bytes = bytes;
        self
    }

    /// Sets the column-burst size in bytes (power of two).
    pub fn burst_bytes(mut self, bytes: u32) -> Self {
        self.cfg.burst_bytes = bytes;
        self
    }

    /// Sets the channel width in bytes per beat.
    pub fn bytes_per_beat(mut self, bytes: u32) -> Self {
        self.cfg.bytes_per_beat = bytes;
        self
    }

    /// Sets the I/O frequency.
    pub fn io_freq(mut self, freq: MegaHertz) -> Self {
        self.cfg.io_freq = freq;
        self
    }

    /// Replaces the timing set.
    pub fn timing(mut self, timing: TimingParams) -> Self {
        self.cfg.timing = timing;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any dimension is zero or not a power of
    /// two, if a channel would have more than 64 banks (`ranks * banks`),
    /// if the row size is not a multiple of the burst size, or if the
    /// burst size is not a multiple of the channel width (bursts must occupy
    /// a whole number of beats matching the timing set's BL).
    pub fn build(self) -> Result<DramConfig, ConfigError> {
        let c = &self.cfg;
        for (name, v) in [
            ("channels", c.channels),
            ("ranks", c.ranks),
            ("banks", c.banks),
            ("rows", c.rows),
        ] {
            if v == 0 || !v.is_power_of_two() {
                return Err(ConfigError::new(format!(
                    "{name} must be a non-zero power of two, got {v}"
                )));
            }
        }
        if c.ranks * c.banks > 64 {
            return Err(ConfigError::new(format!(
                "{} ranks x {} banks is {} banks per channel; the limit is 64, one bit \
                 each in the memory controller's row-guard bank mask",
                c.ranks,
                c.banks,
                c.ranks * c.banks
            )));
        }
        if !c.row_bytes.is_power_of_two() || !c.burst_bytes.is_power_of_two() {
            return Err(ConfigError::new(
                "row and burst sizes must be powers of two",
            ));
        }
        if !c.row_bytes.is_multiple_of(c.burst_bytes as u64) {
            return Err(ConfigError::new(format!(
                "row size {} must be a multiple of burst size {}",
                c.row_bytes, c.burst_bytes
            )));
        }
        if !c.burst_bytes.is_multiple_of(c.bytes_per_beat) {
            return Err(ConfigError::new(format!(
                "burst size {} must be a multiple of channel width {}",
                c.burst_bytes, c.bytes_per_beat
            )));
        }
        let beats = (c.burst_bytes / c.bytes_per_beat) as u64;
        if beats != c.timing.burst_beats() {
            return Err(ConfigError::new(format!(
                "burst occupies {beats} beats but timing BL is {}",
                c.timing.burst_beats()
            )));
        }
        Ok(self.cfg)
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
        assert!(DramConfig::builder().channels(3).build().is_err());
        assert!(DramConfig::builder().rows(0).build().is_err());
    }

    #[test]
    fn builder_rejects_more_than_64_banks_per_channel() {
        let err = DramConfig::builder()
            .ranks(8)
            .banks(16)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("limit is 64"), "{err}");
        assert!(DramConfig::builder().ranks(4).banks(16).build().is_ok());
    }

    #[test]
    fn builder_rejects_mismatched_burst() {
        // 64-byte burst = 8 beats, but timing BL stays 16.
        assert!(DramConfig::builder().burst_bytes(64).build().is_err());
        // Fixing the timing makes it valid.
        let t = TimingParams::builder()
            .burst_beats(8)
            .tccd(8)
            .build()
            .unwrap();
        assert!(DramConfig::builder()
            .burst_bytes(64)
            .timing(t)
            .build()
            .is_ok());
    }

    #[test]
    fn peak_bandwidth_scales_with_frequency() {
        let fast = DramConfig::table1(MegaHertz::new(1866));
        let slow = DramConfig::table1(MegaHertz::new(1300));
        assert!(fast.peak_bandwidth_bytes_per_s() > slow.peak_bandwidth_bytes_per_s());
    }
}
