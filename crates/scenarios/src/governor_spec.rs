//! The declarative `governor` stanza: how a scenario asks for online,
//! closed-loop self-adaptation.
//!
//! Like everything else in a [`Scenario`](crate::Scenario), this is plain
//! data — the `sara-governor` crate lowers it onto a running simulation.
//! The stanza is *optional* and the `.scenario.json` format stays at
//! version `v1`: a document without a `governor` key describes a static
//! run, exactly as before.

use json::read;
use sara_memctrl::PolicyKind;
use sara_types::ConfigError;

/// Configuration of the online self-aware governor for one scenario: the
/// control-epoch length, the DVFS ladder, the QoS hysteresis band, and an
/// optional scheduling-policy escalation.
///
/// # Examples
///
/// ```
/// use sara_scenarios::GovernorSpec;
///
/// let spec = GovernorSpec::new(vec![1333, 1600, 1866]);
/// spec.validate()?;
/// assert_eq!(spec.start_mhz(), 1333);
/// # Ok::<(), sara_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorSpec {
    /// Control-epoch length in microseconds (> 0). The governor reads the
    /// system's health signals and actuates once per epoch.
    pub epoch_us: f64,
    /// DVFS ladder in MHz, strictly ascending. The top rung is the beat
    /// clock the governed system is built at (or the scenario's nominal
    /// frequency, whichever is higher).
    pub ladder_mhz: Vec<u32>,
    /// Worst sampled NPI below this steps the frequency *up* one rung.
    pub up_threshold: f64,
    /// Worst sampled NPI must exceed this (for `patience` consecutive
    /// epochs) before the governor steps *down* a rung.
    pub down_threshold: f64,
    /// Consecutive healthy epochs required before a down-step (and failing
    /// top-rung epochs before a policy escalation). ≥ 1.
    pub patience: u32,
    /// Starting rung in MHz; defaults to the lowest rung when `None`.
    /// Must be a ladder member when set.
    pub start_mhz: Option<u32>,
    /// Policy to switch to when the top rung alone cannot restore QoS
    /// (after `patience` failing epochs at the top). `None` disables
    /// policy switching.
    pub escalate_policy: Option<PolicyKind>,
    /// Per-channel control: one ladder automaton per DRAM channel, each
    /// stepping its own lane's frequency (`false` = the classic single
    /// knob over all channels). Requires a lane-aware runner; the stanza
    /// stays v1-compatible because the key is emitted only when set.
    pub per_channel: bool,
}

/// Default control-epoch length (µs): ten NPI sampling periods.
pub const DEFAULT_EPOCH_US: f64 = 100.0;
/// Default up-step threshold: the report layer's failure line.
pub const DEFAULT_UP_THRESHOLD: f64 = sara_sim::FAIL_THRESHOLD;
/// Default down-step threshold: comfortable headroom above target.
pub const DEFAULT_DOWN_THRESHOLD: f64 = 1.10;
/// Default patience in epochs.
pub const DEFAULT_PATIENCE: u32 = 3;

impl GovernorSpec {
    /// A spec with the given ladder and the catalog defaults: 100 µs
    /// epochs, up/down thresholds at 0.97 / 1.10, patience 3, starting at
    /// the lowest rung, no policy escalation.
    pub fn new(ladder_mhz: Vec<u32>) -> Self {
        GovernorSpec {
            epoch_us: DEFAULT_EPOCH_US,
            ladder_mhz,
            up_threshold: DEFAULT_UP_THRESHOLD,
            down_threshold: DEFAULT_DOWN_THRESHOLD,
            patience: DEFAULT_PATIENCE,
            start_mhz: None,
            escalate_policy: None,
            per_channel: false,
        }
    }

    /// The default ladder for a platform whose nominal DRAM frequency is
    /// `freq_mhz`: roughly 70% and 85% rungs below the nominal clock.
    /// Deterministic, so traces stay byte-comparable across runs.
    pub fn default_ladder(freq_mhz: u32) -> Vec<u32> {
        let mut ladder = vec![freq_mhz * 7 / 10, freq_mhz * 17 / 20, freq_mhz];
        ladder.dedup();
        ladder.retain(|&f| f > 0);
        ladder
    }

    /// The starting rung: `start_mhz` if set, else the lowest rung.
    ///
    /// # Panics
    ///
    /// Panics on an empty ladder (rejected by [`GovernorSpec::validate`]).
    pub fn start_mhz(&self) -> u32 {
        self.start_mhz.unwrap_or_else(|| self.ladder_mhz[0])
    }

    /// Checks the spec's internal consistency: positive finite epoch, a
    /// non-empty strictly-ascending ladder, a sane hysteresis band
    /// (`0 < up < down`), patience ≥ 1, and a start rung that is a ladder
    /// member.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let rule = |name: &str, rule: Result<(), String>| {
            rule.map_err(|r| ConfigError::new(format!("governor {name} {r}")))
        };
        rule("epoch_us", read::positive(self.epoch_us).map(drop))?;
        if self.ladder_mhz.is_empty() {
            return Err(ConfigError::new("governor ladder must not be empty"));
        }
        if self.ladder_mhz[0] == 0 {
            return Err(ConfigError::new("governor ladder rungs must be ≥ 1 MHz"));
        }
        for pair in self.ladder_mhz.windows(2) {
            if pair[1] <= pair[0] {
                return Err(ConfigError::new(format!(
                    "governor ladder must be strictly ascending ({} then {})",
                    pair[0], pair[1]
                )));
            }
        }
        rule("up_threshold", read::positive(self.up_threshold).map(drop))?;
        if !self.down_threshold.is_finite() || self.down_threshold <= self.up_threshold {
            return Err(ConfigError::new(format!(
                "governor down_threshold ({}) must exceed up_threshold ({})",
                self.down_threshold, self.up_threshold
            )));
        }
        rule(
            "patience",
            read::at_least_one(self.patience.into()).map(drop),
        )?;
        if let Some(start) = self.start_mhz {
            if !self.ladder_mhz.contains(&start) {
                return Err(ConfigError::new(format!(
                    "governor start_mhz {start} is not a ladder rung ({:?})",
                    self.ladder_mhz
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_start_at_the_bottom() {
        let spec = GovernorSpec::new(GovernorSpec::default_ladder(1866));
        spec.validate().unwrap();
        assert_eq!(spec.ladder_mhz, vec![1306, 1586, 1866]);
        assert_eq!(spec.start_mhz(), 1306);
        let pinned = GovernorSpec {
            start_mhz: Some(1866),
            ..spec
        };
        pinned.validate().unwrap();
        assert_eq!(pinned.start_mhz(), 1866);
    }

    #[test]
    fn validation_rejects_malformed_specs() {
        let good = GovernorSpec::new(vec![1333, 1600]);
        good.validate().unwrap();

        let mut bad = good.clone();
        bad.epoch_us = 0.0;
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.ladder_mhz = vec![];
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.ladder_mhz = vec![1600, 1600];
        assert!(bad.validate().unwrap_err().message().contains("ascending"));

        let mut bad = good.clone();
        bad.ladder_mhz = vec![1600, 1333];
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.down_threshold = bad.up_threshold;
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.patience = 0;
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.start_mhz = Some(1500);
        assert!(bad.validate().unwrap_err().message().contains("start_mhz"));

        let mut bad = good;
        bad.escalate_policy = Some(PolicyKind::Fcfs);
        bad.validate().unwrap();
    }

    #[test]
    fn default_ladder_is_ascending_for_catalog_frequencies() {
        for mhz in [1333, 1600, 1700, 1866, 2133] {
            let spec = GovernorSpec::new(GovernorSpec::default_ladder(mhz));
            spec.validate().unwrap();
            assert_eq!(*spec.ladder_mhz.last().unwrap(), mhz);
        }
    }
}
