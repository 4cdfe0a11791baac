//! Whole-system configuration: clock, policy, workload, substrates.

use sara_dram::{DramConfig, Interleave};
use sara_memctrl::{McConfig, PolicyKind};
use sara_noc::{ArbiterKind, NocConfig};
use sara_types::{Clock, ConfigError, MegaHertz, PriorityBits};
use sara_workloads::CoreSpec;

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
/// use sara_types::MegaHertz;
///
/// let cfg = SystemConfig::from_scenario(
///     MegaHertz::new(1866),
///     PolicyKind::Priority,
///     Vec::new(), // the workload's `CoreSpec`s
///     SystemConfig::DEFAULT_FRAME_PERIOD_NS,
///     SystemConfig::DEFAULT_SEED,
///     SystemConfig::DEFAULT_CHANNELS,
/// )?;
/// assert_eq!(cfg.freq().as_u32(), 1866);
/// assert!(cfg.frame_period_cycles() > 60_000_000); // 33.3 ms at 1866 MHz
/// # Ok::<(), sara_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// The workload.
    pub cores: Vec<CoreSpec>,
    /// Frame period in nanoseconds (camcorder default: 1/30 s).
    pub frame_period_ns: f64,
    /// On-chip network configuration.
    pub noc: NocConfig,
    /// Memory-controller configuration; its policy is the system's
    /// scheduling policy.
    pub mc: McConfig,
    /// DRAM configuration; its I/O frequency is the simulation beat clock
    /// and its channel count picks the address interleave.
    pub dram: DramConfig,
    /// Master seed for all stochastic generators.
    pub seed: u64,
    /// Priority encoding width k (the paper uses 3 bits; the ablation
    /// sweeps 1..=4). Non-default widths replace every core's custom map
    /// with a linear ramp of the chosen width.
    pub priority_bits: PriorityBits,
}

impl SystemConfig {
    /// The frame period every workload starts from (in
    /// `sara_scenarios::Scenario::new`): the camcorder's 30 fps, 33.3 ms.
    pub const DEFAULT_FRAME_PERIOD_NS: f64 = 1e9 / 30.0;
    /// The master seed every workload starts from: the paper runs' seed.
    pub const DEFAULT_SEED: u64 = 0x5a5a_0001;
    /// The DRAM channel count every workload starts from: Table 1's two.
    pub const DEFAULT_CHANNELS: usize = 2;

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
        // Wider parts repeat Table 1's per-channel geometry (and
        // `interleave` skews their map).
        let dram = DramConfig::table1(freq).with_channels(channels)?;
        Ok(SystemConfig {
            cores,
            frame_period_ns,
            noc: NocConfig::new(arbiter_for(policy)),
            mc: McConfig::builder(policy).build()?,
            dram,
            seed,
            priority_bits: PriorityBits::PAPER,
        })
    }

    /// DRAM I/O frequency, which is also the simulation beat clock.
    pub fn freq(&self) -> MegaHertz {
        self.dram.io_freq()
    }

    /// The memory-scheduling policy (the NoC arbiters follow it).
    pub fn policy(&self) -> PolicyKind {
        self.mc.policy()
    }

    /// The address interleave: wider-than-Table-1 parts adopt the
    /// channel-skewed map so strided traffic cannot camp on one lane.
    pub fn interleave(&self) -> Interleave {
        if self.dram.channels() > 2 {
            Interleave::RowRankBankColChanXor
        } else {
            Interleave::default()
        }
    }

    /// The clock for wall-clock conversions.
    pub fn clock(&self) -> Clock {
        Clock::new(self.freq())
    }

    /// The frame period in beat cycles (at least one).
    pub fn frame_period_cycles(&self) -> u64 {
        self.clock().cycles_from_ns(self.frame_period_ns).max(1)
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

    /// `from_scenario` of an empty workload at the defaults, with one
    /// field replaced.
    fn lowered(
        frame_period_ns: f64,
        seed: u64,
        channels: usize,
    ) -> Result<SystemConfig, ConfigError> {
        SystemConfig::from_scenario(
            MegaHertz::new(1600),
            PolicyKind::Priority,
            Vec::new(),
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
        assert!((cfg.frame_period_cycles() as f64 - expected).abs() < 2.0);
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
        assert_eq!(cfg.interleave(), Interleave::RowRankBankColChanXor);

        let cfg = lowered(period, seed, 2).unwrap();
        assert_eq!(cfg.dram.channels(), 2);
        assert_eq!(cfg.interleave(), Interleave::default());

        assert!(lowered(period, seed, 3).is_err(), "non-power-of-two");
    }
}
