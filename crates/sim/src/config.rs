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

/// The workload-facing slice of a [`SystemConfig`]: everything a scenario
/// catalog needs to vary per run, with the substrate details (NoC, MC,
/// DRAM geometry) derived from policy and frequency.
///
/// This is the generic entry point the `sara-scenarios` crate lowers its
/// declarative `Scenario` type onto; the camcorder constructor is one
/// instantiation of it.
#[derive(Debug, Clone)]
pub struct ScenarioParams {
    /// DRAM I/O frequency (also the simulation beat clock).
    pub freq: MegaHertz,
    /// Memory scheduling policy.
    pub policy: PolicyKind,
    /// The workload.
    pub cores: Vec<CoreSpec>,
    /// Frame period in nanoseconds (drives `Burst` traffic and frame-rate
    /// meters).
    pub frame_period_ns: f64,
    /// Master seed for all stochastic generators.
    pub seed: u64,
    /// DRAM channel count. The paper's Table 1 ships 2; wider configs
    /// (4, 8, ...) scale out the lane-structured engine and switch to the
    /// channel-skewed address map.
    pub channels: usize,
}

impl ScenarioParams {
    /// Parameters with the camcorder defaults: 30 fps frame period and the
    /// seed the paper runs use.
    pub fn new(freq: MegaHertz, policy: PolicyKind, cores: Vec<CoreSpec>) -> Self {
        ScenarioParams {
            freq,
            policy,
            cores,
            frame_period_ns: 1e9 / FRAMES_PER_SECOND,
            seed: 0x5a5a_0001,
            channels: 2,
        }
    }

    /// Replaces the frame period.
    #[must_use]
    pub fn frame_period_ns(mut self, ns: f64) -> Self {
        self.frame_period_ns = ns;
        self
    }

    /// Replaces the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the DRAM channel count.
    #[must_use]
    pub fn channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
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
#[derive(Debug, Clone)]
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
    /// the camcorder defaults (30 fps frame period, paper seed).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the substrate configuration is invalid.
    pub fn custom(
        freq: MegaHertz,
        policy: PolicyKind,
        cores: Vec<CoreSpec>,
    ) -> Result<Self, ConfigError> {
        Self::from_scenario(ScenarioParams::new(freq, policy, cores))
    }

    /// The generic scenario entry point: a configuration with default
    /// substrates (Table 1 DRAM at the requested frequency, 42-entry
    /// controller, matching NoC discipline) for an arbitrary workload,
    /// frame period and seed.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the substrate configuration is invalid or
    /// the frame period is not positive.
    pub fn from_scenario(params: ScenarioParams) -> Result<Self, ConfigError> {
        if !params.frame_period_ns.is_finite() || params.frame_period_ns <= 0.0 {
            return Err(ConfigError::new(format!(
                "frame period must be positive, got {} ns",
                params.frame_period_ns
            )));
        }
        let clock = Clock::new(params.freq);
        let frame_period_cycles = clock.cycles_from_ns(params.frame_period_ns).max(1);
        // Table 1 is a 2-channel part; wider configs re-derive the same
        // geometry per channel and adopt the channel-skewed map so strided
        // traffic cannot camp on one lane.
        let dram = if params.channels == 2 {
            DramConfig::table1(params.freq)
        } else {
            DramConfig::builder()
                .channels(params.channels)
                .io_freq(params.freq)
                .build()?
        };
        let interleave = if params.channels > 2 {
            Interleave::RowRankBankColChanXor
        } else {
            Interleave::default()
        };
        Ok(SystemConfig {
            freq: params.freq,
            policy: params.policy,
            cores: params.cores,
            frame_period_cycles,
            noc: NocConfig::new(arbiter_for(params.policy)),
            mc: McConfig::builder(params.policy).build()?,
            dram,
            interleave,
            seed: params.seed,
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

    #[test]
    fn from_scenario_honours_period_and_seed() {
        let params = ScenarioParams::new(
            MegaHertz::new(1600),
            PolicyKind::Priority,
            TestCase::B.cores(),
        )
        .frame_period_ns(1e9 / 90.0) // 90 fps
        .seed(42);
        let cfg = SystemConfig::from_scenario(params).unwrap();
        assert_eq!(cfg.seed, 42);
        let expected = 1600.0e6 / 90.0;
        assert!((cfg.frame_period_cycles as f64 - expected).abs() < 2.0);

        let bad = ScenarioParams::new(
            MegaHertz::new(1600),
            PolicyKind::Priority,
            TestCase::B.cores(),
        )
        .frame_period_ns(0.0);
        assert!(SystemConfig::from_scenario(bad).is_err());
    }

    #[test]
    fn channels_knob_scales_dram_and_switches_interleave() {
        let wide = ScenarioParams::new(
            MegaHertz::new(1866),
            PolicyKind::Priority,
            TestCase::A.cores(),
        )
        .channels(4);
        let cfg = SystemConfig::from_scenario(wide).unwrap();
        assert_eq!(cfg.dram.channels(), 4);
        assert_eq!(cfg.dram.io_freq().as_u32(), 1866);
        assert_eq!(cfg.interleave, Interleave::RowRankBankColChanXor);

        let narrow = ScenarioParams::new(
            MegaHertz::new(1866),
            PolicyKind::Priority,
            TestCase::A.cores(),
        );
        let cfg = SystemConfig::from_scenario(narrow).unwrap();
        assert_eq!(cfg.dram.channels(), 2);
        assert_eq!(cfg.interleave, Interleave::default());

        let bad = ScenarioParams::new(
            MegaHertz::new(1866),
            PolicyKind::Priority,
            TestCase::A.cores(),
        )
        .channels(3);
        assert!(
            SystemConfig::from_scenario(bad).is_err(),
            "non-power-of-two"
        );
    }

    #[test]
    fn frame_period_is_one_thirtieth_second() {
        let cfg = SystemConfig::camcorder(TestCase::A, PolicyKind::Priority).unwrap();
        let expected = 1866.0e6 / 30.0;
        assert!((cfg.frame_period_cycles as f64 - expected).abs() < 2.0);
    }
}
