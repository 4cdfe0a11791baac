//! DRAM energy estimation from command statistics.
//!
//! §3.3 motivates row-buffer hits with "less time *and power* are wasted on
//! row activation and precharge operations". This module turns the
//! command-level counters of [`crate::ChannelStats`] into an energy
//! estimate with an IDD-style model: a fixed charge per ACT/PRE pair, per
//! column burst, per refresh, plus background power — enough to compare
//! scheduling policies' energy-per-bit, which is what row-hit optimisation
//! actually buys.
//!
//! The five charges are constants of the modelled LPDDR4-class part:
//! order-of-magnitude values assembled from public LPDDR4 datasheet IDD
//! figures. The interesting output is the *relative* energy-per-bit
//! between scheduling policies, which depends only weakly on the absolute
//! calibration.

use crate::stats::ChannelStats;

/// One ACT + PRE pair (row open + close), pJ.
const ACT_PRE_PJ: f64 = 160.0;
/// One read column burst (BL16 × 8 B), pJ.
const READ_BURST_PJ: f64 = 380.0;
/// One write column burst, pJ.
const WRITE_BURST_PJ: f64 = 420.0;
/// One all-bank refresh, pJ.
const REFRESH_PJ: f64 = 22_000.0;
/// Background (standby) power per channel, mW.
const BACKGROUND_MW: f64 = 45.0;

/// An energy estimate over a simulated window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyEstimate {
    /// Activate/precharge energy, millijoules.
    pub act_pre_mj: f64,
    /// Column-access (data movement) energy, millijoules.
    pub column_mj: f64,
    /// Refresh energy, millijoules.
    pub refresh_mj: f64,
    /// Background energy, millijoules.
    pub background_mj: f64,
}

impl EnergyEstimate {
    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.act_pre_mj + self.column_mj + self.refresh_mj + self.background_mj
    }

    /// Energy per transferred bit, in picojoules (the figure of merit for
    /// row-buffer optimisation).
    ///
    /// Returns `f64::INFINITY` when no data moved.
    pub fn pj_per_bit(&self, total_bytes: u64) -> f64 {
        if total_bytes == 0 {
            f64::INFINITY
        } else {
            self.total_mj() * 1e9 / (total_bytes as f64 * 8.0)
        }
    }
}

/// Estimates the energy the LPDDR4-class part consumes for the activity
/// recorded in `stats` over `elapsed_cycles` at `freq_hz`.
///
/// # Examples
///
/// ```
/// use sara_dram::{estimate_energy, ChannelStats};
///
/// let mut stats = ChannelStats::default();
/// stats.activates = 1000;
/// stats.precharges = 1000;
/// stats.reads = 10_000;
/// stats.read_bytes = 10_000 * 128;
/// let e = estimate_energy(&stats, 1_866_000_000, 1_866_000);
/// assert!(e.total_mj() > 0.0);
/// assert!(e.pj_per_bit(stats.total_bytes()).is_finite());
/// ```
pub fn estimate_energy(stats: &ChannelStats, freq_hz: u64, elapsed_cycles: u64) -> EnergyEstimate {
    let acts = stats.activates.max(stats.precharges) as f64;
    let act_pre_mj = acts * ACT_PRE_PJ * 1e-9;
    let column_mj =
        (stats.reads as f64 * READ_BURST_PJ + stats.writes as f64 * WRITE_BURST_PJ) * 1e-9;
    let refresh_mj = stats.refreshes as f64 * REFRESH_PJ * 1e-9;
    let seconds = elapsed_cycles as f64 / freq_hz as f64;
    let background_mj = BACKGROUND_MW * seconds;
    EnergyEstimate {
        act_pre_mj,
        column_mj,
        refresh_mj,
        background_mj,
    }
}

#[cfg(test)]
// Tests build stats field-by-field on a Default base on purpose: the
// struct is all counters and a literal would bury the one that matters.
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::bank::AccessOutcome;

    fn stats(acts: u64, reads: u64) -> ChannelStats {
        let mut s = ChannelStats::default();
        s.activates = acts;
        s.precharges = acts;
        s.reads = reads;
        s.read_bytes = reads * 128;
        s.data_beats = reads * 16;
        for _ in 0..acts.min(reads) {
            s.record_outcome(AccessOutcome::Miss);
        }
        s
    }

    #[test]
    fn more_row_hits_means_less_energy_per_bit() {
        // Same data volume; hit-friendly schedule needs 10x fewer ACTs.
        let thrash = stats(10_000, 10_000);
        let friendly = stats(1_000, 10_000);
        let e_thrash = estimate_energy(&thrash, 1_866_000_000, 1_000_000);
        let e_friendly = estimate_energy(&friendly, 1_866_000_000, 1_000_000);
        assert!(
            e_friendly.pj_per_bit(friendly.total_bytes())
                < e_thrash.pj_per_bit(thrash.total_bytes())
        );
    }

    #[test]
    fn background_scales_with_time() {
        let s = stats(10, 10);
        let short = estimate_energy(&s, 1_000_000_000, 1_000_000);
        let long = estimate_energy(&s, 1_000_000_000, 2_000_000);
        assert!((long.background_mj - 2.0 * short.background_mj).abs() < 1e-12);
        assert_eq!(long.act_pre_mj, short.act_pre_mj);
    }

    #[test]
    fn empty_stats_pure_background() {
        let e = estimate_energy(&ChannelStats::default(), 1_866_000_000, 1_866_000);
        assert_eq!(e.act_pre_mj, 0.0);
        assert_eq!(e.column_mj, 0.0);
        assert!(e.background_mj > 0.0);
        assert!(e.pj_per_bit(0).is_infinite());
    }

    #[test]
    fn component_sum_is_total() {
        let s = stats(500, 4000);
        let e = estimate_energy(&s, 1_866_000_000, 500_000);
        let sum = e.act_pre_mj + e.column_mj + e.refresh_mj + e.background_mj;
        assert!((e.total_mj() - sum).abs() < 1e-15);
    }
}
