//! The governed epoch loop: build one simulation, then sense → decide →
//! actuate at every control epoch until the run completes.

use sara_memctrl::PolicyKind;
use sara_scenarios::{GovernorSpec, Scenario};
use sara_sim::{channel_bound_bytes_per_s, SimReport, Simulation};
use sara_types::{ConfigError, Cycle, MegaHertz};

use crate::controller::{Governor, GovernorAction};

/// One row of the per-epoch trace: the operating point during the epoch,
/// the health observed over it, and the action taken at its end.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: u32,
    /// Simulated time at the epoch's end, milliseconds.
    pub end_ms: f64,
    /// DRAM frequency in force *during* the epoch (the fastest lane's
    /// clock domain when per-channel control has decoupled them).
    pub freq_mhz: u32,
    /// Effective DRAM frequency of each channel's clock domain during the
    /// epoch, in channel order.
    pub freq_per_channel: Vec<u32>,
    /// Scheduling policy in force during the epoch.
    pub policy: PolicyKind,
    /// Worst NPI observed over the epoch (sampled floor ∧ live readout),
    /// clamped into the report layer's `[0, 10]` plot range.
    pub worst_npi: f64,
    /// DMAs reading below the governor's up-threshold at the epoch's end.
    pub failing_dmas: u32,
    /// Memory-controller occupancy at the epoch's end.
    pub mc_occupancy: u32,
    /// Queued transactions per DRAM channel at the epoch's end — the
    /// per-lane pressure signal, auditable even in single-knob mode.
    pub queued_per_channel: Vec<u32>,
    /// DRAM bytes transferred during the epoch.
    pub bytes: u64,
    /// Closed-form aggregate bandwidth bound at the operating point in
    /// force during the epoch (sum over channels of the analytic
    /// per-channel ceiling at each lane's stretched timings), GB/s.
    pub bound_gbs: f64,
    /// The governor's decision at the epoch's end (applies to the next
    /// epoch).
    pub action: GovernorAction,
    /// The lane the action applied to (`None` for the single knob and for
    /// holds).
    pub action_lane: Option<u8>,
}

/// Everything a governed run produces: the per-epoch trace, the final
/// report, and the aggregate QoS accounting used to judge the run against
/// a static baseline.
#[derive(Debug, Clone)]
pub struct GovernedOutcome {
    /// Scenario name.
    pub scenario: String,
    /// The spec the run was governed by (after resolution).
    pub spec: GovernorSpec,
    /// The beat clock the system was built at (ladder top ∨ scenario
    /// nominal).
    pub beat_freq: MegaHertz,
    /// Per-epoch trace, in order.
    pub trace: Vec<EpochRecord>,
    /// Final full report over the whole window.
    pub report: SimReport,
    /// Frequency in force when the run ended (fastest lane).
    pub final_freq: MegaHertz,
    /// Frequency of each channel's clock domain when the run ended, in
    /// channel order — the per-lane convergence witness.
    pub final_freq_per_channel: Vec<u32>,
    /// Policy in force when the run ended.
    pub final_policy: PolicyKind,
    /// Number of frequency steps taken.
    pub freq_changes: u32,
    /// Number of policy escalations taken (0 or 1).
    pub policy_changes: u32,
    /// Epochs whose worst NPI fell below the up-threshold.
    pub failing_epochs: u32,
    /// Sum over epochs of `max(0, up_threshold − worst_npi)` — the
    /// integrated QoS error, the governed-vs-static comparison metric.
    pub qos_deficit: f64,
}

impl GovernedOutcome {
    /// Whether every lane's frequency was constant over the last `tail`
    /// epochs (the convergence check; `tail` is clamped to the trace
    /// length).
    pub fn settled(&self, tail: usize) -> bool {
        let n = self.trace.len();
        if n == 0 {
            return false;
        }
        let tail = tail.clamp(1, n);
        let window = &self.trace[n - tail..];
        window.iter().all(|e| {
            e.freq_mhz == window[0].freq_mhz
                && e.freq_per_channel == window[0].freq_per_channel
                && matches!(e.action, GovernorAction::Hold)
        })
    }

    /// One human-readable summary line for CLI output.
    pub fn summary_line(&self) -> String {
        format!(
            "{}: {} -> {} MHz in {} step{} ({} epochs, {} failing, deficit {:.3}), policy {}",
            self.scenario,
            self.spec.start_mhz(),
            self.final_freq.as_u32(),
            self.freq_changes,
            if self.freq_changes == 1 { "" } else { "s" },
            self.trace.len(),
            self.failing_epochs,
            self.qos_deficit,
            self.final_policy.name()
        )
    }
}

/// QoS accounting over an epoch trace: `(failing_epochs, qos_deficit)`.
fn qos_accounting(trace: &[EpochRecord], up_threshold: f64) -> (u32, f64) {
    let mut failing = 0u32;
    let mut deficit = 0.0f64;
    for e in trace {
        if e.worst_npi < up_threshold {
            failing += 1;
            deficit += up_threshold - e.worst_npi;
        }
    }
    (failing, deficit)
}

/// The beat clock a governed system is built at: the ladder's top rung or
/// the scenario's nominal frequency, whichever is higher. Workload rates,
/// frame periods and meter targets are all lowered at this clock once;
/// DVFS then only ever *stretches* DRAM timings below it.
fn beat_freq(scenario: &Scenario, spec: &GovernorSpec) -> MegaHertz {
    let top = spec.ladder_mhz.last().copied().unwrap_or(0);
    MegaHertz::new(top.max(scenario.freq.as_u32()))
}

/// Runs `scenario` under the online governor for `duration_ms` simulated
/// milliseconds.
///
/// The system is built once at the beat clock, stepped to the spec's
/// starting rung, and then re-parameterised *in place* at each epoch
/// boundary — no per-candidate re-simulation. Identical inputs produce a
/// byte-identical trace.
///
/// # Errors
///
/// Returns [`ConfigError`] for an invalid spec or an inconsistent
/// scenario.
pub fn run_governed(
    scenario: &Scenario,
    spec: &GovernorSpec,
    duration_ms: f64,
) -> Result<GovernedOutcome, ConfigError> {
    let beat = beat_freq(scenario, spec);
    run_at_beat(scenario, spec, beat, duration_ms)
}

/// The per-channel control law: pick which lane (if any) receives the
/// system's QoS signal this epoch; every other lane sees an in-band
/// reading and holds.
///
/// * **QoS error** (worst NPI below the up-threshold): the *most loaded*
///   lane (deepest queue; ties to the lowest channel) is the bottleneck —
///   it climbs. Staggering the up-steps one lane per epoch is what lets
///   lanes settle on *different* rungs once aggregate service suffices.
/// * **Headroom** (worst NPI above the down-threshold): the *least
///   loaded* lane probes downward, guarded by its own patience and
///   failed-rung memory.
///
/// Each lane's automaton keeps the full hysteresis/failed-rung machinery,
/// so per-lane convergence is structural exactly as in the single-knob
/// case: each lane can fail each rung at most once.
fn per_channel_target(worst: f64, depths: &[usize], spec: &GovernorSpec) -> Option<usize> {
    if worst < spec.up_threshold {
        depths
            .iter()
            .enumerate()
            .max_by_key(|&(i, &d)| (d, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
    } else if worst > spec.down_threshold {
        depths
            .iter()
            .enumerate()
            .min_by_key(|&(i, &d)| (d, i))
            .map(|(i, _)| i)
    } else {
        None
    }
}

fn run_at_beat(
    scenario: &Scenario,
    spec: &GovernorSpec,
    beat: MegaHertz,
    duration_ms: f64,
) -> Result<GovernedOutcome, ConfigError> {
    if !duration_ms.is_finite() || duration_ms <= 0.0 {
        return Err(ConfigError::new(format!(
            "duration must be > 0 ms, got {duration_ms}"
        )));
    }
    // The scenario's own cell at the beat clock: the matrix's lowering.
    let mut sim = Simulation::new(scenario.cell_at(beat).system(scenario)?)?;
    let channels = sim.channel_count();
    // One automaton for the single knob; one per lane under `per_channel`.
    let mut governors: Vec<Governor> = if spec.per_channel {
        (0..channels)
            .map(|_| Governor::new(spec))
            .collect::<Result<_, _>>()?
    } else {
        vec![Governor::new(spec)?]
    };
    sim.set_dram_freq(governors[0].current_freq())?;
    // The in-band reading fed to non-target lanes: holds and resets their
    // down-step patience without marking anything failed.
    let mid_band = (spec.up_threshold + spec.down_threshold) / 2.0;

    let clock = sim.config().clock();
    let epoch_cycles = clock.cycles_from_ns(spec.epoch_us * 1e3).max(1);
    let end = Cycle::new(clock.cycles_from_ms(duration_ms));
    // The analytic per-channel ceiling is priced at each lane's *stretched*
    // timings: the engine keeps one beat-clock domain and rescales DRAM
    // timings by beat/target, so the same rescale reproduces each lane's
    // effective timing set exactly.
    let (ref_timing, burst_bytes, beat_u, beat_hz) = {
        let dram = &sim.config().dram;
        (
            dram.timing().clone(),
            dram.burst_bytes(),
            u64::from(beat.as_u32()),
            f64::from(beat.as_u32()) * 1e6,
        )
    };

    let mut trace = Vec::new();
    let mut freq_changes = 0u32;
    let mut policy_changes = 0u32;
    let mut escalated = false;
    let mut prev_bytes = 0u64;
    let mut epoch = 0u32;
    let mut epoch_end = Cycle::new(epoch_cycles).min(end);
    loop {
        let freq_during = sim.effective_dram_freq();
        let freqs_during: Vec<u32> = sim.channel_freqs().iter().map(|f| f.as_u32()).collect();
        let policy_during = sim.config().policy;
        sim.advance_until(epoch_end);
        let health = sim.health();
        let worst = health.worst_npi();
        // An epoch-end action governs the *next* epoch; at the final
        // boundary there is none, so don't actuate (or count) a step no
        // simulated time would ever run under.
        let (mut action, action_lane) = if epoch_end >= end {
            (GovernorAction::Hold, None)
        } else if spec.per_channel {
            let target = per_channel_target(worst, &health.queued_per_channel, spec);
            let failing = worst < spec.up_threshold;
            let mut chosen = GovernorAction::Hold;
            for (ch, governor) in governors.iter_mut().enumerate() {
                if Some(ch) == target {
                    chosen = governor.decide(worst);
                } else if !failing {
                    // In-band or headroom: non-target lanes see the
                    // in-band reading (holds, resets down-step patience).
                    let act = governor.decide(mid_band);
                    debug_assert_eq!(act, GovernorAction::Hold);
                }
                // While the system is *failing*, non-target lanes hold
                // without being fed a synthetic healthy reading: a lane
                // already at the top keeps its escalation counter, so
                // policy escalation still fires even when the deepest
                // queue alternates between channels epoch to epoch.
            }
            (chosen, target.map(|ch| ch as u8))
        } else {
            (governors[0].decide(worst), None)
        };
        match action {
            GovernorAction::Hold => {}
            GovernorAction::StepUp(f) | GovernorAction::StepDown(f) => {
                match action_lane {
                    Some(ch) => sim.set_channel_freq(ch as usize, f)?,
                    None => sim.set_dram_freq(f)?,
                }
                freq_changes += 1;
            }
            GovernorAction::SwitchPolicy(p) => {
                // The scheduling policy is a platform-wide actuator: the
                // first lane to exhaust its ladder escalates, later
                // requests collapse into holds.
                if escalated {
                    action = GovernorAction::Hold;
                } else {
                    escalated = true;
                    sim.set_policy(p);
                    policy_changes += 1;
                }
            }
        }
        let bound_gbs = freqs_during
            .iter()
            .map(|&f| {
                channel_bound_bytes_per_s(
                    &ref_timing.rescaled(beat_u, u64::from(f)),
                    burst_bytes,
                    beat_hz,
                )
            })
            .sum::<f64>()
            / 1e9;
        trace.push(EpochRecord {
            epoch,
            end_ms: clock.ns_from_cycles(epoch_end.as_u64()) / 1e6,
            freq_mhz: freq_during.as_u32(),
            freq_per_channel: freqs_during,
            policy: policy_during,
            worst_npi: worst.clamp(0.0, 10.0),
            failing_dmas: health.failing(spec.up_threshold) as u32,
            mc_occupancy: health.mc_occupancy as u32,
            queued_per_channel: health
                .queued_per_channel
                .iter()
                .map(|&q| q as u32)
                .collect(),
            bytes: health.dram_bytes - prev_bytes,
            bound_gbs,
            action,
            action_lane: match action {
                GovernorAction::Hold => None,
                _ => action_lane,
            },
        });
        prev_bytes = health.dram_bytes;
        sim.mark_epoch();
        if epoch_end >= end {
            break;
        }
        epoch += 1;
        epoch_end = (epoch_end + epoch_cycles).min(end);
    }

    let report = sim.report();
    let (failing_epochs, qos_deficit) = qos_accounting(&trace, spec.up_threshold);
    Ok(GovernedOutcome {
        scenario: scenario.name.clone(),
        spec: spec.clone(),
        beat_freq: beat,
        final_freq: sim.effective_dram_freq(),
        final_freq_per_channel: sim.channel_freqs().iter().map(|f| f.as_u32()).collect(),
        final_policy: report.policy,
        trace,
        report,
        freq_changes,
        policy_changes,
        failing_epochs,
        qos_deficit,
    })
}

/// The static control every governed run is judged against: the same
/// system, built at the *same beat clock* as the governed run of `spec`,
/// pinned at `freq` for the whole window — implemented as a one-rung
/// ladder so the trace has the same epoch structure and QoS accounting as
/// the governed run.
///
/// # Errors
///
/// Returns [`ConfigError`] for an inconsistent scenario or a pin above
/// the beat clock.
pub fn run_pinned(
    scenario: &Scenario,
    spec: &GovernorSpec,
    freq: MegaHertz,
    duration_ms: f64,
) -> Result<GovernedOutcome, ConfigError> {
    let mut pinned = spec.clone();
    pinned.ladder_mhz = vec![freq.as_u32()];
    pinned.start_mhz = None;
    pinned.escalate_policy = None;
    pinned.per_channel = false;
    run_at_beat(scenario, &pinned, beat_freq(scenario, spec), duration_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sara_scenarios::catalog;

    fn short_spec(ladder: Vec<u32>) -> GovernorSpec {
        GovernorSpec::new(ladder)
    }

    #[test]
    fn governed_runs_are_byte_deterministic() {
        let s = catalog::by_name("camcorder-b").unwrap();
        let spec = short_spec(vec![850, 1275, 1700]);
        let a = run_governed(&s, &spec, 0.8).unwrap();
        let b = run_governed(&s, &spec, 0.8).unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.freq_changes, b.freq_changes);
        assert_eq!(a.qos_deficit, b.qos_deficit);
    }

    #[test]
    fn epoch_structure_covers_the_window_exactly() {
        let s = catalog::by_name("adas").unwrap();
        let spec = short_spec(vec![1120, 1600]).with_epoch_us(200.0);
        let out = run_governed(&s, &spec, 1.0).unwrap();
        assert_eq!(out.trace.len(), 5, "1 ms at 200 µs epochs");
        let last = out.trace.last().unwrap();
        assert!((last.end_ms - 1.0).abs() < 1e-9);
        for (i, e) in out.trace.iter().enumerate() {
            assert_eq!(e.epoch as usize, i);
        }
        assert_eq!(out.beat_freq.as_u32(), 1600);
    }

    #[test]
    fn pinned_run_never_changes_frequency() {
        let s = catalog::by_name("adas").unwrap();
        let spec = short_spec(vec![1120, 1360, 1600]);
        let out = run_pinned(&s, &spec, MegaHertz::new(1120), 0.6).unwrap();
        assert_eq!(out.freq_changes, 0);
        assert!(out.trace.iter().all(|e| e.freq_mhz == 1120));
        // Built at the governed run's beat clock for a fair comparison.
        assert_eq!(out.beat_freq.as_u32(), 1600);
    }

    #[test]
    fn a_pinned_run_at_the_beat_clock_is_the_matrix_cell() {
        // Pinned at its own beat clock, a run never re-clocks, so it is
        // the scenario's matrix cell at that frequency, byte for byte:
        // the governor lowers a scenario as the batch harness does.
        for s in catalog::builtin() {
            let spec = s.governor_spec();
            let beat = beat_freq(&s, &spec);
            let pinned = run_pinned(&s, &spec, beat, 0.6).unwrap();
            let cell = sara_scenarios::CellSpec {
                scenario: 0,
                policy: s.policy,
                freq: beat,
                channels: s.channels,
                duration_ms: 0.6,
            };
            let matrix = sara_scenarios::run_cell(&s, &cell).unwrap();
            assert_eq!(pinned.report.to_json(), matrix.to_json(), "{}", s.name);
        }
    }

    #[test]
    fn rejects_bad_duration_and_bad_spec() {
        let s = catalog::by_name("adas").unwrap();
        let spec = short_spec(vec![1120, 1600]);
        assert!(run_governed(&s, &spec, 0.0).is_err());
        let mut bad = spec;
        bad.ladder_mhz = vec![1600, 1120];
        assert!(run_governed(&s, &bad, 0.5).is_err());
    }
}
