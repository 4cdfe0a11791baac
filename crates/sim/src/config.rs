//! Whole-system configuration: clock, policy, workload, substrates.

use sara_dram::{DramConfig, Interleave};
use sara_memctrl::{McConfig, PolicyKind};
use sara_noc::{ArbiterKind, NocConfig};
use sara_types::{Clock, ConfigError, MegaHertz, PriorityBits};
use sara_workloads::{CoreSpec, TestCase, FRAMES_PER_SECOND};

/// Cycles between a NoC admission decision and the transaction becoming
/// visible to its channel lane: a plausible interconnect forwarding delay.
/// Modelling this forward latency is also what lets decoupled lanes run
/// that many cycles ahead of the event drain — the engine's look-ahead
/// window.
pub(crate) const ADMIT_LATENCY: u64 = 48;

/// Extra cycles for read data to travel back through the interconnect.
pub(crate) const READ_RESPONSE_LATENCY: u64 = 10;

/// NPI/priority/bandwidth sampling period.
const SAMPLE_PERIOD_NS: f64 = 10_000.0;

/// Time ignored by failure verdicts while the meters settle.
const WARMUP_NS: f64 = 1_000_000.0;

/// The NoC arbitration discipline matching a memory-controller policy, so
/// the whole path applies one consistent QoS scheme (§2's end-to-end
/// argument).
pub(crate) fn arbiter_for(policy: PolicyKind) -> ArbiterKind {
    match policy {
        PolicyKind::Fcfs => ArbiterKind::Fcfs,
        PolicyKind::RoundRobin => ArbiterKind::RoundRobin,
        PolicyKind::FrameQos => ArbiterKind::FrameUrgent,
        PolicyKind::Priority | PolicyKind::QosRowBuffer => ArbiterKind::Priority,
        // FR-FCFS is a controller-level optimisation; its interconnect is
        // plain FCFS.
        PolicyKind::FrFcfs => ArbiterKind::Fcfs,
    }
}

/// Complete configuration of one simulation run.
///
/// # Examples
///
/// ```
/// use sara_memctrl::PolicyKind;
/// use sara_sim::SystemConfig;
/// use sara_workloads::TestCase;
///
/// let cfg = SystemConfig::camcorder(TestCase::A, PolicyKind::Priority)?;
/// assert_eq!(cfg.freq.as_u32(), 1866);
/// assert!(cfg.frame_period_cycles > 60_000_000); // 33.3 ms at 1866 MHz
/// # Ok::<(), sara_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// DRAM I/O frequency (also the simulation beat clock).
    pub freq: MegaHertz,
    /// Memory scheduling policy (the NoC arbiters follow it).
    pub policy: PolicyKind,
    /// The workload.
    pub cores: Vec<CoreSpec>,
    /// Frame period in cycles (camcorder default: 1/30 s).
    pub frame_period_cycles: u64,
    /// On-chip network configuration.
    pub noc: NocConfig,
    /// Memory-controller configuration.
    pub mc: McConfig,
    /// DRAM configuration (frequency must match `freq`).
    pub dram: DramConfig,
    /// Address interleaving.
    pub interleave: Interleave,
    /// Master seed for all stochastic generators.
    pub seed: u64,
    /// Priority encoding width k (the paper uses 3 bits; the ablation
    /// sweeps 1..=4). Non-default widths replace every core's custom map
    /// with a linear ramp of the chosen width.
    pub priority_bits: PriorityBits,
    /// Per-transaction trace ring size (0 disables tracing).
    pub trace_capacity: usize,
}

impl SystemConfig {
    /// The frame period every workload starts from (in [`Self::custom`]
    /// and `sara_scenarios::Scenario::new`): the camcorder's 30 fps.
    pub const DEFAULT_FRAME_PERIOD_NS: f64 = 1e9 / FRAMES_PER_SECOND;
    /// The master seed every workload starts from: the paper runs' seed.
    pub const DEFAULT_SEED: u64 = 0x5a5a_0001;
    /// The DRAM channel count every workload starts from: Table 1's two.
    pub const DEFAULT_CHANNELS: usize = 2;

    /// The paper's camcorder configuration for a test case and policy:
    /// Table 1 DRAM, 42-entry controller, matching NoC discipline, 30 fps
    /// frame period, ~10 µs NPI sampling.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the derived substrate configs are
    /// inconsistent (should not happen for the built-in cases).
    pub fn camcorder(case: TestCase, policy: PolicyKind) -> Result<Self, ConfigError> {
        Self::custom(case.dram_freq(), policy, case.cores())
    }

    /// A configuration with default substrates for an arbitrary workload at
    /// the camcorder defaults.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the substrate configuration is invalid.
    pub fn custom(
        freq: MegaHertz,
        policy: PolicyKind,
        cores: Vec<CoreSpec>,
    ) -> Result<Self, ConfigError> {
        Self::from_scenario(
            freq,
            policy,
            cores,
            Self::DEFAULT_FRAME_PERIOD_NS,
            Self::DEFAULT_SEED,
            Self::DEFAULT_CHANNELS,
        )
    }

    /// The one constructor, which a scenario lowers onto: default
    /// substrates (Table 1 DRAM geometry at the requested frequency and
    /// channel count, 42-entry controller, matching NoC discipline) for an
    /// arbitrary workload, frame period and seed.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the substrate configuration is invalid or
    /// the frame period is not positive.
    pub fn from_scenario(
        freq: MegaHertz,
        policy: PolicyKind,
        cores: Vec<CoreSpec>,
        frame_period_ns: f64,
        seed: u64,
        channels: usize,
    ) -> Result<Self, ConfigError> {
        if !frame_period_ns.is_finite() || frame_period_ns <= 0.0 {
            return Err(ConfigError::new(format!(
                "frame period must be positive, got {frame_period_ns} ns"
            )));
        }
        let frame_period_cycles = Clock::new(freq).cycles_from_ns(frame_period_ns).max(1);
        // Table 1 is a 2-channel part; wider configs re-derive the same
        // geometry per channel and adopt the channel-skewed map so strided
        // traffic cannot camp on one lane.
        let dram = if channels == 2 {
            DramConfig::table1(freq)
        } else {
            DramConfig::builder()
                .channels(channels)
                .io_freq(freq)
                .build()?
        };
        let interleave = if channels > 2 {
            Interleave::RowRankBankColChanXor
        } else {
            Interleave::default()
        };
        Ok(SystemConfig {
            freq,
            policy,
            cores,
            frame_period_cycles,
            noc: NocConfig::new(arbiter_for(policy)),
            mc: McConfig::builder(policy).build()?,
            dram,
            interleave,
            seed,
            priority_bits: PriorityBits::PAPER,
            trace_capacity: 0,
        })
    }

    /// The clock for wall-clock conversions.
    pub fn clock(&self) -> Clock {
        Clock::new(self.freq)
    }

    /// NPI/priority/bandwidth sampling period in cycles (10 µs).
    pub(crate) fn sample_period(&self) -> u64 {
        self.clock().cycles_from_ns(SAMPLE_PERIOD_NS)
    }

    /// Cycles ignored by failure verdicts while the meters settle (1 ms).
    pub(crate) fn warmup_cycles(&self) -> u64 {
        self.clock().cycles_from_ns(WARMUP_NS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arbiter_mapping_is_consistent() {
        assert_eq!(arbiter_for(PolicyKind::Fcfs), ArbiterKind::Fcfs);
        assert_eq!(arbiter_for(PolicyKind::RoundRobin), ArbiterKind::RoundRobin);
        assert_eq!(arbiter_for(PolicyKind::FrameQos), ArbiterKind::FrameUrgent);
        assert_eq!(arbiter_for(PolicyKind::Priority), ArbiterKind::Priority);
        assert_eq!(arbiter_for(PolicyKind::QosRowBuffer), ArbiterKind::Priority);
        assert_eq!(arbiter_for(PolicyKind::FrFcfs), ArbiterKind::Fcfs);
    }

    #[test]
    fn camcorder_config_matches_case() {
        let a = SystemConfig::camcorder(TestCase::A, PolicyKind::Priority).unwrap();
        assert_eq!(a.freq.as_u32(), 1866);
        assert_eq!(a.dram.io_freq().as_u32(), 1866);
        assert_eq!(a.cores.len(), 14);
        let b = SystemConfig::camcorder(TestCase::B, PolicyKind::Fcfs).unwrap();
        assert_eq!(b.freq.as_u32(), 1700);
        assert_eq!(b.cores.len(), 10);
        assert!(b.frame_period_cycles < a.frame_period_cycles);
    }

    /// `from_scenario` at the camcorder defaults, with one field replaced.
    fn lowered(
        frame_period_ns: f64,
        seed: u64,
        channels: usize,
    ) -> Result<SystemConfig, ConfigError> {
        SystemConfig::from_scenario(
            MegaHertz::new(1600),
            PolicyKind::Priority,
            TestCase::B.cores(),
            frame_period_ns,
            seed,
            channels,
        )
    }

    #[test]
    fn from_scenario_honours_period_and_seed() {
        let cfg = lowered(1e9 / 90.0, 42, 2).unwrap(); // 90 fps
        assert_eq!(cfg.seed, 42);
        let expected = 1600.0e6 / 90.0;
        assert!((cfg.frame_period_cycles as f64 - expected).abs() < 2.0);
        assert!(lowered(0.0, 42, 2).is_err());
    }

    #[test]
    fn channels_knob_scales_dram_and_switches_interleave() {
        let (period, seed) = (
            SystemConfig::DEFAULT_FRAME_PERIOD_NS,
            SystemConfig::DEFAULT_SEED,
        );
        let cfg = lowered(period, seed, 4).unwrap();
        assert_eq!(cfg.dram.channels(), 4);
        assert_eq!(cfg.dram.io_freq().as_u32(), 1600);
        assert_eq!(cfg.interleave, Interleave::RowRankBankColChanXor);

        let cfg = lowered(period, seed, 2).unwrap();
        assert_eq!(cfg.dram.channels(), 2);
        assert_eq!(cfg.interleave, Interleave::default());

        assert!(lowered(period, seed, 3).is_err(), "non-power-of-two");
    }

    #[test]
    fn frame_period_is_one_thirtieth_second() {
        let cfg = SystemConfig::camcorder(TestCase::A, PolicyKind::Priority).unwrap();
        let expected = 1866.0e6 / 30.0;
        assert!((cfg.frame_period_cycles as f64 - expected).abs() < 2.0);
    }
}
