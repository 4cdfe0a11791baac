//! Memory-controller configuration (Table 1: 42 entries, 5 queues).

use sara_types::{ConfigError, Priority};

use crate::policy::PolicyKind;

/// Number of class queues (CPU, GPU, DSP, media, system — §4.1).
pub const NUM_QUEUES: usize = 5;

/// Table 1's controller entries, all of them in the class queues.
const TOTAL_ENTRIES: usize = 42;

/// Memory-controller configuration.
///
/// Defaults follow the paper: Table 1's 42 entries split over five class
/// queues (the split itself is not specified by Table 1; the default CPU 6,
/// GPU 6, DSP 4, media 20, system 6 reflects that media cores dominate
/// camcorder traffic), starvation aging at T = 10000 cycles (§3.3), and
/// row-buffer threshold δ = 6 for Policy 2. Any split must use all 42
/// entries, so the queues' capacities are the whole budget.
///
/// # Examples
///
/// ```
/// use sara_memctrl::{McConfig, PolicyKind};
///
/// let cfg = McConfig::builder(PolicyKind::Priority).build()?;
/// assert_eq!(cfg.total_entries(), 42);
/// assert_eq!(cfg.aging_threshold(), Some(10_000));
/// assert_eq!(cfg.delta().as_u8(), 6);
/// # Ok::<(), sara_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McConfig {
    policy: PolicyKind,
    queue_capacities: [usize; NUM_QUEUES],
    aging_threshold: Option<u64>,
    delta: Priority,
}

impl McConfig {
    /// Starts a builder with the paper's defaults and the given policy.
    pub fn builder(policy: PolicyKind) -> McConfigBuilder {
        McConfigBuilder {
            cfg: McConfig {
                policy,
                queue_capacities: [6, 6, 4, 20, 6],
                aging_threshold: Some(10_000),
                delta: Priority::new(6),
            },
        }
    }

    /// The scheduling policy.
    #[inline]
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Replaces the scheduling policy in place. Every other knob (queue
    /// split, aging threshold, δ) is policy-independent, so this is the
    /// complete online policy switch — used by the self-aware governor to
    /// re-parameterise a live controller between control epochs.
    #[inline]
    pub fn set_policy(&mut self, policy: PolicyKind) {
        self.policy = policy;
    }

    /// Per-class queue capacities, indexed by `CoreClass::queue_index`.
    #[inline]
    pub fn queue_capacities(&self) -> [usize; NUM_QUEUES] {
        self.queue_capacities
    }

    /// Total entries over all queues: Table 1's 42.
    #[inline]
    pub fn total_entries(&self) -> usize {
        TOTAL_ENTRIES
    }

    /// Aging threshold T in cycles; `None` disables starvation aging.
    ///
    /// Aging applies to the priority-aware policies (Policy 1 and Policy 2);
    /// the baselines ignore it, as in the paper.
    #[inline]
    pub fn aging_threshold(&self) -> Option<u64> {
        self.aging_threshold
    }

    /// The row-buffer threshold δ of Policy 2 (§3.3).
    #[inline]
    pub fn delta(&self) -> Priority {
        self.delta
    }
}

/// Builder for [`McConfig`].
#[derive(Debug, Clone)]
pub struct McConfigBuilder {
    cfg: McConfig,
}

impl McConfigBuilder {
    /// Overrides the per-class queue capacities (a split of the 42
    /// entries).
    pub fn queue_capacities(mut self, caps: [usize; NUM_QUEUES]) -> Self {
        self.cfg.queue_capacities = caps;
        self
    }

    /// Sets the aging threshold T (cycles); `None` disables aging.
    pub fn aging_threshold(mut self, t: Option<u64>) -> Self {
        self.cfg.aging_threshold = t;
        self
    }

    /// Sets the δ threshold of Policy 2.
    pub fn delta(mut self, delta: Priority) -> Self {
        self.cfg.delta = delta;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any queue capacity is zero, if the
    /// capacities do not add up to 42, or if the aging threshold is zero.
    pub fn build(self) -> Result<McConfig, ConfigError> {
        let c = &self.cfg;
        if let Some(i) = c.queue_capacities.iter().position(|&cap| cap == 0) {
            return Err(ConfigError::new(format!(
                "queue {i} capacity must be positive"
            )));
        }
        let sum: usize = c.queue_capacities.iter().sum();
        if sum != TOTAL_ENTRIES {
            return Err(ConfigError::new(format!(
                "queue capacities {:?} add up to {sum}, not the controller's \
                 {TOTAL_ENTRIES} entries",
                c.queue_capacities
            )));
        }
        if c.aging_threshold == Some(0) {
            return Err(ConfigError::new(
                "aging threshold must be positive (use None to disable)",
            ));
        }
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let cfg = McConfig::builder(PolicyKind::Fcfs).build().unwrap();
        assert_eq!(cfg.queue_capacities().iter().sum::<usize>(), 42);
        assert_eq!(cfg.total_entries(), 42);
        assert_eq!(cfg.queue_capacities().len(), NUM_QUEUES);
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(McConfig::builder(PolicyKind::Fcfs)
            .queue_capacities([0, 8, 6, 20, 8])
            .build()
            .is_err());
    }

    #[test]
    fn rejects_capacity_above_total() {
        for caps in [[50, 8, 6, 12, 8], [6, 6, 4, 20, 5], [6, 6, 4, 20, 7]] {
            let err = McConfig::builder(PolicyKind::Fcfs)
                .queue_capacities(caps)
                .build()
                .unwrap_err();
            assert!(err.to_string().contains("42 entries"), "{err}");
        }
        assert!(McConfig::builder(PolicyKind::Fcfs)
            .queue_capacities([2, 10, 10, 10, 10])
            .build()
            .is_ok());
    }

    #[test]
    fn rejects_zero_aging() {
        assert!(McConfig::builder(PolicyKind::Priority)
            .aging_threshold(Some(0))
            .build()
            .is_err());
        assert!(McConfig::builder(PolicyKind::Priority)
            .aging_threshold(None)
            .build()
            .is_ok());
    }
}
