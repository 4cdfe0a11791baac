//! The governor's decision automaton: a deterministic hysteresis
//! controller over the DVFS ladder with a failed-rung memory.

use sara_memctrl::PolicyKind;
use sara_scenarios::GovernorSpec;
use sara_types::{ConfigError, MegaHertz};

/// What the governor decided at the end of one control epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GovernorAction {
    /// Keep the current operating point.
    Hold,
    /// Step the DRAM up to this frequency (QoS error detected).
    StepUp(MegaHertz),
    /// Step the DRAM down to this frequency (sustained headroom).
    StepDown(MegaHertz),
    /// Switch the memory-scheduling policy (top rung exhausted).
    SwitchPolicy(PolicyKind),
}

impl GovernorAction {
    /// A short machine-stable label for traces (`hold`, `up:1600`,
    /// `down:1333`, `policy:QoS-RB`).
    pub fn label(&self) -> String {
        match self {
            GovernorAction::Hold => "hold".to_string(),
            GovernorAction::StepUp(f) => format!("up:{}", f.as_u32()),
            GovernorAction::StepDown(f) => format!("down:{}", f.as_u32()),
            GovernorAction::SwitchPolicy(p) => format!("policy:{}", p.name()),
        }
    }
}

/// The closed-loop decision state machine.
///
/// Policy, in order:
///
/// 1. **QoS error** (worst NPI below `up_threshold`): mark the current
///    rung failed and step up one rung. At the top rung, count failing
///    epochs; once `patience` of them accumulate and an escalation policy
///    is configured (and not yet used), switch the scheduling policy.
/// 2. **Headroom** (worst NPI above `down_threshold` for `patience`
///    consecutive epochs): step down one rung — but never onto a rung
///    already observed failing. This memory is what makes the loop
///    *settle* on statistically steady workloads: each rung can be probed
///    downward at most once, so the number of frequency changes is
///    finite.
/// 3. Otherwise hold.
///
/// The automaton is a pure function of its inputs — no clocks, no
/// randomness — so governed runs are reproducible to the byte.
#[derive(Debug, Clone)]
pub struct Governor {
    ladder: Vec<MegaHertz>,
    rung: usize,
    up_threshold: f64,
    down_threshold: f64,
    patience: u32,
    escalate_policy: Option<PolicyKind>,
    /// Bitmask of rungs observed failing (ladders are short; u64 is ample).
    failed_rungs: u64,
    healthy_run: u32,
    top_fail_run: u32,
    escalated: bool,
}

impl Governor {
    /// Builds the automaton from a validated spec.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the spec fails
    /// [`GovernorSpec::validate`] or the ladder exceeds 64 rungs.
    pub fn new(spec: &GovernorSpec) -> Result<Self, ConfigError> {
        spec.validate()?;
        if spec.ladder_mhz.len() > 64 {
            return Err(ConfigError::new(format!(
                "governor ladder has {} rungs; at most 64 supported",
                spec.ladder_mhz.len()
            )));
        }
        let ladder: Vec<MegaHertz> = spec.ladder_mhz.iter().map(|&f| MegaHertz::new(f)).collect();
        let start = spec.start_mhz();
        let rung = ladder
            .iter()
            .position(|f| f.as_u32() == start)
            .expect("validate checked start is a rung");
        Ok(Governor {
            ladder,
            rung,
            up_threshold: spec.up_threshold,
            down_threshold: spec.down_threshold,
            patience: spec.patience,
            escalate_policy: spec.escalate_policy,
            failed_rungs: 0,
            healthy_run: 0,
            top_fail_run: 0,
            escalated: false,
        })
    }

    /// The frequency of the current rung.
    #[inline]
    pub fn current_freq(&self) -> MegaHertz {
        self.ladder[self.rung]
    }

    /// One control decision, fed the epoch's worst observed NPI. Updates
    /// internal state; the caller applies the returned action.
    pub fn decide(&mut self, worst_npi: f64) -> GovernorAction {
        if worst_npi < self.up_threshold {
            self.healthy_run = 0;
            self.failed_rungs |= 1 << self.rung;
            if self.rung + 1 < self.ladder.len() {
                self.rung += 1;
                return GovernorAction::StepUp(self.ladder[self.rung]);
            }
            // Top rung still failing: frequency is exhausted.
            self.top_fail_run += 1;
            if let Some(policy) = self.escalate_policy {
                if !self.escalated && self.top_fail_run >= self.patience {
                    self.escalated = true;
                    return GovernorAction::SwitchPolicy(policy);
                }
            }
            return GovernorAction::Hold;
        }
        self.top_fail_run = 0;
        if worst_npi > self.down_threshold {
            self.healthy_run += 1;
            if self.healthy_run >= self.patience
                && self.rung > 0
                && self.failed_rungs & (1 << (self.rung - 1)) == 0
            {
                self.rung -= 1;
                self.healthy_run = 0;
                return GovernorAction::StepDown(self.ladder[self.rung]);
            }
        } else {
            self.healthy_run = 0;
        }
        GovernorAction::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn governor(ladder: Vec<u32>) -> Governor {
        Governor::new(&GovernorSpec::new(ladder)).unwrap()
    }

    #[test]
    fn failure_climbs_the_ladder_and_holds_at_the_top() {
        let mut g = governor(vec![1000, 1500, 2000]);
        assert_eq!(g.current_freq().as_u32(), 1000);
        assert_eq!(g.decide(0.5), GovernorAction::StepUp(MegaHertz::new(1500)));
        assert_eq!(g.decide(0.5), GovernorAction::StepUp(MegaHertz::new(2000)));
        assert_eq!(g.decide(0.5), GovernorAction::Hold);
        assert_eq!(g.current_freq().as_u32(), 2000);
    }

    #[test]
    fn headroom_steps_down_only_after_patience() {
        let mut g = governor(vec![1000, 1500, 2000]);
        g.rung = 2;
        assert_eq!(g.decide(1.5), GovernorAction::Hold);
        assert_eq!(g.decide(1.5), GovernorAction::Hold);
        assert_eq!(
            g.decide(1.5),
            GovernorAction::StepDown(MegaHertz::new(1500))
        );
        // The healthy run restarts after a step.
        assert_eq!(g.decide(1.5), GovernorAction::Hold);
    }

    #[test]
    fn on_target_band_holds_and_resets_the_healthy_run() {
        let mut g = governor(vec![1000, 2000]);
        g.rung = 1;
        assert_eq!(g.decide(1.5), GovernorAction::Hold);
        assert_eq!(g.decide(1.5), GovernorAction::Hold);
        // Inside the band (above up, below down): no step, run resets.
        assert_eq!(g.decide(1.0), GovernorAction::Hold);
        assert_eq!(g.decide(1.5), GovernorAction::Hold);
        assert_eq!(g.decide(1.5), GovernorAction::Hold);
        assert_eq!(
            g.decide(1.5),
            GovernorAction::StepDown(MegaHertz::new(1000))
        );
    }

    #[test]
    fn failed_rungs_are_never_re_entered() {
        let mut g = governor(vec![1000, 2000]);
        // Fails at 1000, climbs.
        assert_eq!(g.decide(0.5), GovernorAction::StepUp(MegaHertz::new(2000)));
        // Ample headroom forever: must never fall back onto the failed rung.
        for _ in 0..20 {
            assert_eq!(g.decide(5.0), GovernorAction::Hold);
        }
        assert_eq!(g.current_freq().as_u32(), 2000);
    }

    #[test]
    fn escalation_fires_once_after_patience_at_the_top() {
        let spec = GovernorSpec {
            escalate_policy: Some(PolicyKind::Priority),
            ..GovernorSpec::new(vec![1000, 2000])
        };
        let mut g = Governor::new(&spec).unwrap();
        assert_eq!(g.decide(0.5), GovernorAction::StepUp(MegaHertz::new(2000)));
        assert_eq!(g.decide(0.5), GovernorAction::Hold);
        assert_eq!(g.decide(0.5), GovernorAction::Hold);
        assert_eq!(
            g.decide(0.5),
            GovernorAction::SwitchPolicy(PolicyKind::Priority)
        );
        // Never twice.
        for _ in 0..10 {
            assert_eq!(g.decide(0.5), GovernorAction::Hold);
        }
    }

    #[test]
    fn convergence_is_structural_for_any_steady_signal() {
        // Whatever fixed NPI each rung produces, the number of frequency
        // changes is bounded: simulate a rung→NPI map and count switches.
        let rung_npi = [0.4, 0.9, 1.3, 2.0];
        let mut g = governor(vec![1000, 1300, 1600, 1900]);
        let mut switches = 0;
        for _ in 0..100 {
            let idx = g
                .ladder
                .iter()
                .position(|f| f == &g.current_freq())
                .unwrap();
            match g.decide(rung_npi[idx]) {
                GovernorAction::Hold => {}
                _ => switches += 1,
            }
        }
        assert!(
            switches <= 2 * 4,
            "switch count must be bounded: {switches}"
        );
        // And the tail is quiet: the last 50 decisions hold.
        let settled = g.current_freq();
        for _ in 0..50 {
            let idx = g
                .ladder
                .iter()
                .position(|f| f == &g.current_freq())
                .unwrap();
            assert_eq!(g.decide(rung_npi[idx]), GovernorAction::Hold);
        }
        assert_eq!(g.current_freq(), settled);
    }

    #[test]
    fn label_is_machine_stable() {
        assert_eq!(GovernorAction::Hold.label(), "hold");
        assert_eq!(
            GovernorAction::StepUp(MegaHertz::new(1600)).label(),
            "up:1600"
        );
        assert_eq!(
            GovernorAction::StepDown(MegaHertz::new(1333)).label(),
            "down:1333"
        );
        assert_eq!(
            GovernorAction::SwitchPolicy(PolicyKind::QosRowBuffer).label(),
            "policy:QoS-RB"
        );
    }
}
