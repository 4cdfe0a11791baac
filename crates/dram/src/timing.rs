//! DRAM timing parameters (Table 1 of the paper).
//!
//! All values are denominated in I/O-bus cycles (beats). The paper specifies
//! the LPDDR4 set `CL-tRCD-tRP = 36-34-34`, `tWTR-tRTP-tWR = 19-14-34`,
//! `tRRD-tFAW = 19-75` at a maximum I/O frequency of 1866 MHz. Parameters the
//! paper leaves implicit (burst length, write latency, tRAS, tCCD, refresh)
//! use JESD209-4 LPDDR4-consistent values and are documented per field.

use sara_types::ConfigError;

/// A complete DRAM timing set, in I/O-bus cycles.
///
/// Constructed via [`TimingParams::lpddr4_1866`] (the paper's Table 1) or
/// [`TimingParams::builder`]. Validated so that derived quantities (e.g.
/// `tRC = tRAS + tRP`) stay consistent.
///
/// # Examples
///
/// ```
/// use sara_dram::TimingParams;
///
/// let t = TimingParams::lpddr4_1866();
/// assert_eq!(t.cl(), 36);
/// assert_eq!(t.trcd(), 34);
/// assert_eq!(t.tfaw(), 75);
/// assert_eq!(t.trc(), t.tras() + t.trp());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingParams {
    cl: u64,
    wl: u64,
    trcd: u64,
    trp: u64,
    tras: u64,
    twtr: u64,
    trtp: u64,
    twr: u64,
    trrd: u64,
    tfaw: u64,
    tccd: u64,
    burst_beats: u64,
    rtw_gap: u64,
    trefi: u64,
    trfc: u64,
    refresh_enabled: bool,
}

impl TimingParams {
    /// The paper's Table 1 LPDDR4 set at 1866 MHz I/O.
    ///
    /// Values taken verbatim from Table 1: CL 36, tRCD 34, tRP 34, tWTR 19,
    /// tRTP 14, tWR 34, tRRD 19, tFAW 75. Values the paper does not list:
    /// BL 16 beats (LPDDR4 native), WL 18, tRAS 68, tCCD 16 (= BL, gapless
    /// back-to-back bursts), read→write bus turnaround gap 4, tREFI 7280
    /// (3.9 µs all-bank refresh interval) and tRFC 522 (280 ns).
    pub fn lpddr4_1866() -> Self {
        TimingParams {
            cl: 36,
            wl: 18,
            trcd: 34,
            trp: 34,
            tras: 68,
            twtr: 19,
            trtp: 14,
            twr: 34,
            trrd: 19,
            tfaw: 75,
            tccd: 16,
            burst_beats: 16,
            rtw_gap: 4,
            trefi: 7280,
            trfc: 522,
            refresh_enabled: true,
        }
    }

    /// Starts building a custom timing set from the Table 1 baseline.
    pub fn builder() -> TimingParamsBuilder {
        TimingParamsBuilder {
            params: Self::lpddr4_1866(),
        }
    }

    /// CAS (read) latency: RD command to first data beat.
    #[inline]
    pub fn cl(&self) -> u64 {
        self.cl
    }

    /// Write latency: WR command to first data beat.
    #[inline]
    pub fn wl(&self) -> u64 {
        self.wl
    }

    /// RAS-to-CAS delay: ACT to first RD/WR on the activated row.
    #[inline]
    pub fn trcd(&self) -> u64 {
        self.trcd
    }

    /// Precharge period: PRE to next ACT on the same bank.
    #[inline]
    pub fn trp(&self) -> u64 {
        self.trp
    }

    /// Minimum row-open time: ACT to PRE on the same bank.
    #[inline]
    pub fn tras(&self) -> u64 {
        self.tras
    }

    /// Write-to-read turnaround: end of write data to next RD.
    #[inline]
    pub fn twtr(&self) -> u64 {
        self.twtr
    }

    /// Read-to-precharge delay.
    #[inline]
    pub fn trtp(&self) -> u64 {
        self.trtp
    }

    /// Write recovery: end of write data to PRE on the same bank.
    #[inline]
    pub fn twr(&self) -> u64 {
        self.twr
    }

    /// ACT-to-ACT delay between different banks of one rank.
    #[inline]
    pub fn trrd(&self) -> u64 {
        self.trrd
    }

    /// Four-activate window per rank.
    #[inline]
    pub fn tfaw(&self) -> u64 {
        self.tfaw
    }

    /// CAS-to-CAS command spacing.
    #[inline]
    pub fn tccd(&self) -> u64 {
        self.tccd
    }

    /// Data beats per column burst (BL).
    #[inline]
    pub fn burst_beats(&self) -> u64 {
        self.burst_beats
    }

    /// Extra idle beats inserted on the bus between read data and
    /// subsequent write data (bus turnaround).
    #[inline]
    pub fn rtw_gap(&self) -> u64 {
        self.rtw_gap
    }

    /// All-bank refresh interval.
    #[inline]
    pub fn trefi(&self) -> u64 {
        self.trefi
    }

    /// All-bank refresh duration.
    #[inline]
    pub fn trfc(&self) -> u64 {
        self.trfc
    }

    /// Whether periodic refresh is simulated.
    #[inline]
    pub fn refresh_enabled(&self) -> bool {
        self.refresh_enabled
    }

    /// Row cycle time: minimum ACT-to-ACT on the same bank (`tRAS + tRP`).
    #[inline]
    pub fn trc(&self) -> u64 {
        self.tras + self.trp
    }

    /// The same timing set re-denominated for a memory clock running at
    /// `den/num` of the reference clock these parameters are expressed in:
    /// every cycle-denominated value is multiplied by `num/den` (rounded
    /// up, so no constraint ever becomes *less* conservative than the
    /// datasheet).
    ///
    /// This is the DVFS view of the device. The simulation beat clock
    /// never changes; running the DRAM at, say, 2/3 of the beat frequency
    /// means each DRAM clock spans 3/2 beat cycles, so tRCD, CL, the burst
    /// occupancy (BL) and every other clock-domain constraint stretch by
    /// 3/2 when measured in beat cycles. The one exception is tREFI: cell
    /// retention is wall-time physics, independent of the interface clock,
    /// and the beat clock's wall duration is fixed — so the refresh
    /// *interval* stays put (a down-clocked device must not refresh less
    /// often), while tRFC (the busy time each refresh costs) stretches
    /// with the slower device. Because all scaled values share one ratio
    /// and `ceil` is monotone, the builder's invariants (`tRAS ≥ tRCD`,
    /// `tFAW ≥ tRRD`, `tCCD ≥ BL`) are preserved.
    ///
    /// # Panics
    ///
    /// Panics if `num` or `den` is zero.
    #[must_use]
    pub fn rescaled(&self, num: u64, den: u64) -> TimingParams {
        assert!(num > 0 && den > 0, "rescale ratio must be positive");
        let s = |v: u64| v.saturating_mul(num).div_ceil(den).max(1);
        let scaled = TimingParams {
            cl: s(self.cl),
            wl: s(self.wl),
            trcd: s(self.trcd),
            trp: s(self.trp),
            tras: s(self.tras),
            twtr: s(self.twtr),
            trtp: s(self.trtp),
            twr: s(self.twr),
            trrd: s(self.trrd),
            tfaw: s(self.tfaw),
            tccd: s(self.tccd),
            burst_beats: s(self.burst_beats),
            // The turnaround gap is the one value legitimately allowed to
            // be zero; scale without the floor.
            rtw_gap: self.rtw_gap.saturating_mul(num).div_ceil(den),
            // Retention-driven, wall-time denominated: see above.
            trefi: self.trefi,
            trfc: s(self.trfc),
            refresh_enabled: self.refresh_enabled,
        };
        debug_assert!(
            !scaled.refresh_enabled || scaled.trefi > scaled.trfc,
            "rescale collapsed the refresh interval"
        );
        scaled
    }

    /// Cost in cycles of a row conflict (PRE→ACT→CAS).
    #[inline]
    pub fn row_conflict_penalty(&self) -> u64 {
        self.trp + self.trcd
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::lpddr4_1866()
    }
}

/// Builder for [`TimingParams`]; starts from the Table 1 baseline.
///
/// # Examples
///
/// ```
/// use sara_dram::TimingParams;
///
/// let fast = TimingParams::builder().cl(28).trcd(26).trp(26).build()?;
/// assert_eq!(fast.cl(), 28);
/// # Ok::<(), sara_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TimingParamsBuilder {
    params: TimingParams,
}

macro_rules! builder_setter {
    ($(#[$doc:meta] $name:ident),+ $(,)?) => {
        $(
            #[$doc]
            pub fn $name(mut self, cycles: u64) -> Self {
                self.params.$name = cycles;
                self
            }
        )+
    };
}

impl TimingParamsBuilder {
    builder_setter! {
        /// Sets CAS latency.
        cl,
        /// Sets write latency.
        wl,
        /// Sets ACT→CAS delay.
        trcd,
        /// Sets precharge period.
        trp,
        /// Sets minimum row-open time.
        tras,
        /// Sets write-to-read turnaround.
        twtr,
        /// Sets read-to-precharge delay.
        trtp,
        /// Sets write recovery time.
        twr,
        /// Sets inter-bank ACT spacing.
        trrd,
        /// Sets the four-activate window.
        tfaw,
        /// Sets CAS-to-CAS spacing.
        tccd,
        /// Sets the burst length in beats.
        burst_beats,
        /// Sets the read→write bus turnaround gap.
        rtw_gap,
        /// Sets the refresh interval.
        trefi,
        /// Sets the refresh duration.
        trfc,
    }

    /// Enables or disables periodic refresh.
    pub fn refresh_enabled(mut self, enabled: bool) -> Self {
        self.params.refresh_enabled = enabled;
        self
    }

    /// Validates and produces the timing set.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any parameter is zero where a positive
    /// value is required, if `tRAS < tRCD` (a row could close before its
    /// first column access), if `tFAW < tRRD` (window shorter than the
    /// pairwise spacing it bounds), or if `tCCD < burst length` (bursts
    /// would overlap on the data bus).
    pub fn build(self) -> Result<TimingParams, ConfigError> {
        let p = &self.params;
        for (name, v) in [
            ("CL", p.cl),
            ("WL", p.wl),
            ("tRCD", p.trcd),
            ("tRP", p.trp),
            ("tRAS", p.tras),
            ("tWTR", p.twtr),
            ("tRTP", p.trtp),
            ("tWR", p.twr),
            ("tRRD", p.trrd),
            ("tFAW", p.tfaw),
            ("tCCD", p.tccd),
            ("BL", p.burst_beats),
        ] {
            if v == 0 {
                return Err(ConfigError::new(format!("{name} must be positive")));
            }
        }
        if p.tras < p.trcd {
            return Err(ConfigError::new(format!(
                "tRAS ({}) must be >= tRCD ({})",
                p.tras, p.trcd
            )));
        }
        if p.tfaw < p.trrd {
            return Err(ConfigError::new(format!(
                "tFAW ({}) must be >= tRRD ({})",
                p.tfaw, p.trrd
            )));
        }
        if p.tccd < p.burst_beats {
            return Err(ConfigError::new(format!(
                "tCCD ({}) must be >= burst length ({}) or data bursts overlap",
                p.tccd, p.burst_beats
            )));
        }
        if p.refresh_enabled && p.trefi <= p.trfc {
            return Err(ConfigError::new(format!(
                "tREFI ({}) must exceed tRFC ({})",
                p.trefi, p.trfc
            )));
        }
        Ok(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let t = TimingParams::lpddr4_1866();
        assert_eq!(
            (t.cl(), t.trcd(), t.trp()),
            (36, 34, 34),
            "CL-tRCD-tRP per Table 1"
        );
        assert_eq!((t.twtr(), t.trtp(), t.twr()), (19, 14, 34));
        assert_eq!((t.trrd(), t.tfaw()), (19, 75));
        assert!(t.refresh_enabled());
    }

    #[test]
    fn derived_quantities() {
        let t = TimingParams::lpddr4_1866();
        assert_eq!(t.trc(), 102);
        assert_eq!(t.row_conflict_penalty(), 68);
        assert!(t.row_conflict_penalty() > t.trcd());
    }

    #[test]
    fn builder_overrides() {
        let t = TimingParams::builder()
            .cl(20)
            .refresh_enabled(false)
            .build()
            .unwrap();
        assert_eq!(t.cl(), 20);
        assert!(!t.refresh_enabled());
        // untouched fields keep Table 1 values
        assert_eq!(t.trcd(), 34);
    }

    #[test]
    fn builder_rejects_zero() {
        assert!(TimingParams::builder().cl(0).build().is_err());
        assert!(TimingParams::builder().burst_beats(0).build().is_err());
    }

    #[test]
    fn rescaled_stretches_and_identity_is_exact() {
        let t = TimingParams::lpddr4_1866();
        assert_eq!(t.rescaled(1, 1), t, "1:1 rescale must be the identity");
        // 1866 → 1333 MHz: every constraint stretches by 1866/1333, ceil.
        let slow = t.rescaled(1866, 1333);
        assert_eq!(slow.trcd(), (34u64 * 1866).div_ceil(1333));
        assert_eq!(slow.burst_beats(), (16u64 * 1866).div_ceil(1333));
        assert!(slow.cl() > t.cl() && slow.tfaw() > t.tfaw());
        // The refresh *interval* is retention-driven wall time and the
        // beat clock's wall duration is fixed: it must not stretch. The
        // refresh *cost* does.
        assert_eq!(slow.trefi(), t.trefi());
        assert!(slow.trfc() > t.trfc());
        // Invariants survive the stretch.
        assert!(slow.tras() >= slow.trcd());
        assert!(slow.tfaw() >= slow.trrd());
        assert!(slow.tccd() >= slow.burst_beats());
        assert!(slow.trefi() > slow.trfc());
        assert!(slow.refresh_enabled());
    }

    #[test]
    fn repeated_rescales_from_the_reference_round_trip_exactly() {
        // The DVFS contract: every step re-derives from the reference set,
        // so a ladder walk — down and back up, in any order, repeatedly —
        // restores the reference bit-for-bit whenever it lands on the 1:1
        // rung, and revisiting any rung reproduces the same set exactly.
        // (Chaining rescales instead would compound the ceil rounding.)
        let reference = TimingParams::lpddr4_1866();
        let ladder: [u64; 4] = [933, 1333, 1600, 1866];
        let first_visit: Vec<TimingParams> = ladder
            .iter()
            .map(|&rung| reference.rescaled(1866, rung))
            .collect();
        for _ in 0..3 {
            for (&rung, first) in ladder.iter().rev().zip(first_visit.iter().rev()) {
                assert_eq!(
                    &reference.rescaled(1866, rung),
                    first,
                    "revisiting {rung} MHz must reproduce the first visit exactly"
                );
            }
        }
        assert_eq!(
            reference.rescaled(1866, 1866),
            reference,
            "the top rung is the reference itself"
        );
        // And a chained down→up pair is *not* the identity, which is why
        // the reference-based derivation matters: 34 → ceil(34·2) = 68 →
        // ceil(68/2) = 34 happens to survive, but odd values do not.
        let odd = TimingParams::builder().trrd(19).build().unwrap();
        let chained = odd.rescaled(3, 2).rescaled(2, 3);
        assert!(
            chained.trrd() >= odd.trrd(),
            "chained rescales only ever get more conservative"
        );
        assert_ne!(
            chained, odd,
            "chaining 3/2 then 2/3 must not silently pretend to round-trip"
        );
    }

    #[test]
    fn trefi_is_wall_time_invariant_across_a_full_ladder_walk() {
        // Cell retention is physics: however deep the ladder walk goes, the
        // refresh *interval* in beat cycles must never move, while every
        // clock-domain constraint (including the refresh *cost* tRFC)
        // stretches monotonically as the clock slows.
        let reference = TimingParams::lpddr4_1866();
        let ladder: [u64; 5] = [466, 933, 1120, 1600, 1866];
        let mut prev_trfc = 0;
        for &rung in &ladder {
            let scaled = reference.rescaled(1866, rung);
            assert_eq!(
                scaled.trefi(),
                reference.trefi(),
                "tREFI drifted at {rung} MHz"
            );
            assert!(scaled.trfc() >= reference.trfc());
            assert!(
                scaled.trfc() <= prev_trfc || prev_trfc == 0,
                "tRFC must shrink as the ladder climbs"
            );
            prev_trfc = scaled.trfc();
            assert!(
                scaled.trefi() > scaled.trfc(),
                "refresh interval collapsed at {rung} MHz"
            );
        }
    }

    #[test]
    fn extreme_rescales_stay_consistent() {
        let t = TimingParams::lpddr4_1866();
        // A pathological 10× slowdown must keep the builder invariants
        // (beyond ~14× the refresh cost would overrun the wall-time
        // interval, which the debug assertion in `rescaled` rejects —
        // refresh physically cannot keep up on such a device).
        let crawl = t.rescaled(10, 1);
        assert!(crawl.tras() >= crawl.trcd());
        assert!(crawl.tfaw() >= crawl.trrd());
        assert!(crawl.tccd() >= crawl.burst_beats());
        assert!(crawl.trefi() > crawl.trfc());
        // Scaling *up* past the reference clamps at 1 rather than hitting 0
        // (ceil keeps every non-zero constraint alive).
        let sprint = t.rescaled(1, 10_000);
        assert!(sprint.cl() >= 1 && sprint.burst_beats() >= 1);
        assert_eq!(sprint.rtw_gap(), 1);
        // The turnaround gap is the one field allowed to *be* zero, and a
        // zero gap stays zero at any ratio.
        let gapless = TimingParams::builder().rtw_gap(0).build().unwrap();
        assert_eq!(gapless.rescaled(7, 3).rtw_gap(), 0);
    }

    #[test]
    fn builder_rejects_inconsistent() {
        assert!(TimingParams::builder().tras(10).build().is_err()); // < tRCD
        assert!(TimingParams::builder().tfaw(5).build().is_err()); // < tRRD
        assert!(TimingParams::builder().tccd(8).build().is_err()); // < BL
        assert!(TimingParams::builder().trefi(100).build().is_err()); // <= tRFC
    }
}
