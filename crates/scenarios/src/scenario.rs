//! The declarative [`Scenario`] type: one named workload × platform
//! parameterisation, ready to lower onto a [`SystemConfig`].

use sara_memctrl::PolicyKind;
use sara_sim::{SimReport, Simulation, SystemConfig};
use sara_types::{ConfigError, MegaHertz};
use sara_workloads::CoreSpec;

use crate::governor_spec::GovernorSpec;
use crate::matrix::CellSpec;
use crate::ordered::run_system;

/// One self-contained allocation problem: a named set of core specs plus
/// the platform knobs a run varies (DRAM frequency, scheduling policy,
/// frame period, duration, seed).
///
/// Scenarios are plain data — SCALL-style declarative specs that
/// [`Scenario::config`] lowers onto a [`SystemConfig`] as a matrix cell
/// ([`CellSpec::system`]).
/// The batch harness ([`crate::run_matrix`]) crosses them with policy and
/// frequency overrides without touching the workload definition.
///
/// # Examples
///
/// ```
/// use sara_scenarios::catalog;
///
/// let s = catalog::by_name("ar-headset").unwrap();
/// let report = s.run_for_ms(0.2)?;
/// assert_eq!(report.policy, s.policy);
/// # Ok::<(), sara_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Registry key, kebab-case (e.g. `"ar-headset"`).
    pub name: String,
    /// One-line description of what the scenario stresses.
    pub description: String,
    /// DRAM I/O frequency (also the simulation beat clock).
    pub freq: MegaHertz,
    /// Default memory scheduling policy (matrix runs override it).
    pub policy: PolicyKind,
    /// The workload.
    pub cores: Vec<CoreSpec>,
    /// Frame period in nanoseconds (drives `Burst` traffic and frame-rate
    /// meters).
    pub frame_period_ns: f64,
    /// Nominal run length in simulated milliseconds.
    pub duration_ms: f64,
    /// Master seed for all stochastic generators.
    pub seed: u64,
    /// Number of DRAM channels (Table 1 ships 2; wider parts use a
    /// channel-skewed address map — see [`SystemConfig::from_scenario`]).
    pub channels: usize,
    /// Optional online self-adaptation stanza (`None` = static run; the
    /// batch harness always runs scenarios statically regardless).
    pub governor: Option<GovernorSpec>,
}

impl Scenario {
    /// A scenario with the catalog defaults: SARA's Policy 1, a 5 ms
    /// nominal window, and the camcorder defaults of [`SystemConfig`]
    /// (30 fps frame period, the paper seed, two channels).
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        freq: MegaHertz,
        cores: Vec<CoreSpec>,
    ) -> Self {
        Scenario {
            name: name.into(),
            description: description.into(),
            freq,
            policy: PolicyKind::Priority,
            cores,
            frame_period_ns: SystemConfig::DEFAULT_FRAME_PERIOD_NS,
            duration_ms: 5.0,
            seed: SystemConfig::DEFAULT_SEED,
            channels: SystemConfig::DEFAULT_CHANNELS,
            governor: None,
        }
    }

    /// Replaces the default policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the DRAM frequency.
    #[must_use]
    pub fn with_freq(mut self, freq: MegaHertz) -> Self {
        self.freq = freq;
        self
    }

    /// Replaces the frame period (e.g. `1e9 / 90.0` for a 90 fps headset).
    #[must_use]
    pub fn with_frame_period_ns(mut self, ns: f64) -> Self {
        self.frame_period_ns = ns;
        self
    }

    /// Replaces the nominal run length.
    #[must_use]
    pub fn with_duration_ms(mut self, ms: f64) -> Self {
        self.duration_ms = ms;
        self
    }

    /// Replaces the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the DRAM channel count (power of two; 2 is the Table 1
    /// default, wider counts lower onto a channel-skewed address map).
    #[must_use]
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// The one check of a DRAM channel count, for scenario files, `submit`
    /// requests and CLI flags alike: a power of two in `1..=256` (the
    /// address map folds the channel index out of power-of-two bit fields).
    ///
    /// # Errors
    ///
    /// `must be a power of two in 1..=256, got <n>`.
    pub fn channel_count(n: u64) -> Result<usize, String> {
        if n.is_power_of_two() && n <= 256 {
            Ok(n as usize)
        } else {
            Err(format!("must be a power of two in 1..=256, got {n}"))
        }
    }

    /// Attaches an online-governor stanza (see [`GovernorSpec`]).
    #[must_use]
    pub fn with_governor(mut self, spec: GovernorSpec) -> Self {
        self.governor = Some(spec);
        self
    }

    /// The governor spec this scenario runs under: its own stanza, or the
    /// default ladder anchored at its nominal frequency. This is the one
    /// resolution rule shared by `sara govern` and the governor test
    /// suites (CLI flags may override fields afterwards).
    pub fn governor_spec(&self) -> GovernorSpec {
        self.governor
            .clone()
            .unwrap_or_else(|| GovernorSpec::new(GovernorSpec::default_ladder(self.freq.as_u32())))
    }

    /// The scenario's own cell at `freq`: its policy and channel count for
    /// its nominal duration, indexing a one-entry scenario list.
    pub fn cell_at(&self, freq: MegaHertz) -> CellSpec {
        CellSpec {
            scenario: 0,
            policy: self.policy,
            freq,
            channels: self.channels,
            duration_ms: self.duration_ms,
        }
    }

    /// Lowers the scenario onto a full system configuration with default
    /// substrates: its own cell's system ([`CellSpec::system`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on an inconsistent spec (e.g. a meter/traffic
    /// mismatch or address regions exceeding DRAM capacity).
    pub fn config(&self) -> Result<SystemConfig, ConfigError> {
        self.cell_at(self.freq).system(self)
    }

    /// Runs the scenario for an explicit duration in milliseconds: its own
    /// system through the one simulate step ([`run_system`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on an inconsistent spec.
    pub fn run_for_ms(&self, ms: f64) -> Result<SimReport, ConfigError> {
        Ok(run_system(self.config()?, ms)?.0)
    }

    /// The scenario's runnable simulation, not yet advanced, for the
    /// frozen `benchmark/` package (the flag is ignored).
    #[doc(hidden)]
    pub fn build_stepped(&self, _: bool) -> Result<Simulation, ConfigError> {
        Simulation::new(self.config()?)
    }

    /// Total offered load of all rated (non-elastic) traffic, GB/s.
    pub fn offered_gbs(&self) -> f64 {
        self.cores
            .iter()
            .map(CoreSpec::mean_demand_bytes_per_s)
            .sum::<f64>()
            / 1e9
    }

    /// Number of DMA engines across all cores.
    pub fn dma_count(&self) -> usize {
        self.cores.iter().map(|c| c.dmas.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sara_types::{CoreKind, MemOp};
    use sara_workloads::builders::{best_effort, elastic, seq_mib};
    use sara_workloads::DmaSpec;

    fn tiny() -> Scenario {
        Scenario::new(
            "tiny",
            "one elastic CPU",
            MegaHertz::new(1600),
            vec![CoreSpec::new(
                CoreKind::Cpu,
                vec![DmaSpec::new(
                    "cpu",
                    MemOp::Read,
                    elastic(),
                    seq_mib(8),
                    best_effort(),
                    8,
                )],
            )],
        )
    }

    #[test]
    fn builders_replace_fields() {
        let s = tiny()
            .with_policy(PolicyKind::Fcfs)
            .with_freq(MegaHertz::new(1333))
            .with_frame_period_ns(1e9 / 60.0)
            .with_duration_ms(2.0)
            .with_seed(9)
            .with_channels(4);
        assert_eq!(s.policy, PolicyKind::Fcfs);
        assert_eq!(s.freq.as_u32(), 1333);
        assert_eq!(s.seed, 9);
        assert_eq!(s.channels, 4);
        let cfg = s.config().unwrap();
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.dram.channels(), 4);
        assert_eq!(cfg.policy, PolicyKind::Fcfs);
        let expected = 1333.0e6 / 60.0;
        assert!((cfg.frame_period_cycles as f64 - expected).abs() < 2.0);
    }

    #[test]
    fn elastic_only_scenario_offers_nothing_but_runs() {
        let s = tiny();
        assert_eq!(s.offered_gbs(), 0.0);
        assert_eq!(s.dma_count(), 1);
        let report = s.run_for_ms(0.05).unwrap();
        assert!(report.mc.total_completed() > 0);
    }
}
