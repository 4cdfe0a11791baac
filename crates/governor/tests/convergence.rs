//! Catalog-wide governor convergence properties:
//!
//! 1. on every built-in (statistically steady) scenario the online
//!    governor *settles* — the frequency stops moving well before the run
//!    ends;
//! 2. on an overload scenario the governed run measurably improves QoS
//!    over the equivalent static run pinned at the starting rung, with at
//!    least one mid-run frequency change;
//! 3. the whole loop is deterministic to the last byte of its trace.
//!
//! Each test's doc comment says at how many of the 7 points of the
//! constant band it holds: the committed latencies and each one-cycle
//! neighbour of the three the paper does not give (`ADMIT_LATENCY`
//! 47/49, `READ_RESPONSE_LATENCY` 9/11, `HOP_LATENCY` 5/7). The table is
//! in `docs/reproduction.md`, "The governor across the constant band".

use sara_governor::{run_governed, run_pinned, trace, GovernorAction, GovernorSpec};
use sara_scenarios::{catalog, random_scenario_with, GeneratorConfig};
use sara_types::MegaHertz;

/// Holds at 6 of 7 band points: at `HOP_LATENCY` 7, `adas-overload`
/// climbs 1600 → 1750 → 1866 in the last epochs and does not settle.
#[test]
fn every_catalog_scenario_settles_at_a_fixed_frequency() {
    for s in catalog::builtin() {
        // `Scenario::governor_spec` is the same resolution `sara govern`
        // uses, so this sweep exercises exactly what the CLI runs.
        let out = run_governed(&s, &s.governor_spec(), 1.5).unwrap();
        assert!(
            out.settled(4),
            "{} did not settle: tail of trace {:?}",
            s.name,
            out.trace
                .iter()
                .rev()
                .take(4)
                .map(|e| (e.freq_mhz(), e.action.label()))
                .collect::<Vec<_>>()
        );
        // Settling is not just inactivity at the end: the run never takes
        // more steps than the structural bound (each rung left at most
        // twice).
        assert!(
            (out.freq_changes() as usize) <= 2 * out.spec.ladder_mhz.len(),
            "{}: {} changes on a {}-rung ladder",
            s.name,
            out.freq_changes(),
            out.spec.ladder_mhz.len()
        );
    }
}

/// Holds at 7 of 7 band points.
#[test]
fn overload_scenario_improves_over_the_equivalent_static_run() {
    // The catalog's mixed-criticality overload, governed from the lowest
    // rung, versus the same system pinned there.
    let s = catalog::by_name("adas-overload").unwrap();
    let spec = s.governor_spec();
    let start = MegaHertz::new(spec.start_mhz());
    let governed = run_governed(&s, &spec, 2.0).unwrap();
    let pinned = run_pinned(&s, &spec, start, 2.0).unwrap();

    // A mid-run frequency change is visible in the trace...
    assert!(governed.freq_changes() >= 1);
    assert!(governed
        .trace
        .iter()
        .any(|e| matches!(e.action, GovernorAction::StepUp(_))));
    let freqs: std::collections::BTreeSet<u32> =
        governed.trace.iter().map(|e| e.freq_mhz()).collect();
    assert!(freqs.len() >= 2, "trace must span several rungs: {freqs:?}");
    // ...and the closed loop measurably beats the static run.
    assert!(
        governed.failing_epochs() < pinned.failing_epochs(),
        "governed {} vs pinned {} failing epochs",
        governed.failing_epochs(),
        pinned.failing_epochs()
    );
    assert!(
        governed.qos_deficit() < pinned.qos_deficit() * 0.5,
        "governed deficit {} must clearly beat pinned {}",
        governed.qos_deficit(),
        pinned.qos_deficit()
    );
}

/// Holds at 2 of 7 band points, the committed one and `HOP_LATENCY` 5.
/// The lanes settle on [1600, 1600] at `ADMIT_LATENCY` 47 and on
/// [1480, 1480] at `ADMIT_LATENCY` 49 and `READ_RESPONSE_LATENCY` 11; at
/// `READ_RESPONSE_LATENCY` 9 per-channel control loses to the single knob
/// (deficit 1.190 vs 0.600). The showcase is constant-fragile.
#[test]
fn per_channel_control_settles_lanes_on_different_rungs() {
    // The overload is unsatisfiable at the lower rungs but satisfiable in
    // between: per-channel control staggers its up-steps one lane per
    // epoch, so the climb passes through asymmetric operating points and
    // the hysteresis band catches the first one that restores QoS. The
    // single knob can only jump both channels at once, overshoots to the
    // ceiling, and still degrades — per-lane structure beats it outright.
    let s = catalog::by_name("adas-overload").unwrap();
    let spec = GovernorSpec {
        per_channel: true,
        ..s.governor_spec()
    };
    let out = run_governed(&s, &spec, 2.0).unwrap();
    assert!(out.settled(4), "per-channel run must converge");
    let rungs: std::collections::BTreeSet<u32> =
        out.final_freq_per_channel().iter().copied().collect();
    assert!(
        rungs.len() >= 2,
        "lanes must settle on different rungs: {:?}",
        out.final_freq_per_channel()
    );
    // Every settled rung is a ladder member and the trace recorded which
    // lane each step applied to.
    for f in out.final_freq_per_channel() {
        assert!(spec.ladder_mhz.contains(f), "{f} is not a ladder rung");
    }
    assert!(out
        .trace
        .iter()
        .any(|e| !matches!(e.action, GovernorAction::Hold) && e.action_lane.is_some()));
    // Structural convergence holds per lane: at most 2 changes per rung
    // per lane.
    let lanes = out.final_freq_per_channel().len() as u32;
    assert!(out.freq_changes() <= 2 * lanes * spec.ladder_mhz.len() as u32);

    // The asymmetric operating point ends healthier than the single-knob
    // run over the same window.
    let single = run_governed(&s, &s.governor_spec(), 2.0).unwrap();
    assert!(
        out.qos_deficit() <= single.qos_deficit(),
        "per-channel (deficit {}) must not lose to the single knob ({})",
        out.qos_deficit(),
        single.qos_deficit()
    );
}

/// Holds at 7 of 7 band points.
#[test]
fn per_channel_mode_still_escalates_policy_when_every_lane_tops_out() {
    // Saturation offers ~27 GB/s against a ~21 GB/s platform: no rung can
    // restore QoS, so per-channel control drives every lane to the top —
    // and the escalation actuator must still fire there, even though the
    // deepest queue (the up-step target) can alternate between channels
    // epoch to epoch. Non-target lanes hold *without* a synthetic healthy
    // reading precisely so their escalation counters survive the
    // alternation.
    let s = catalog::by_name("saturation").unwrap();
    let spec = GovernorSpec {
        per_channel: true,
        escalate_policy: Some(sara_memctrl::PolicyKind::QosRowBuffer),
        ..s.governor_spec()
    };
    let out = run_governed(&s, &spec, 2.0).unwrap();
    assert_eq!(
        out.final_freq_per_channel(),
        vec![*spec.ladder_mhz.last().unwrap(); 2],
        "sustained saturation must drive every lane to the top rung"
    );
    assert_eq!(
        out.policy_changes(),
        1,
        "escalation must fire exactly once: {:?}",
        out.trace
            .iter()
            .map(|e| e.action.label())
            .collect::<Vec<_>>()
    );
    assert_eq!(out.final_policy(), sara_memctrl::PolicyKind::QosRowBuffer);
}

/// Holds at 7 of 7 band points.
#[test]
fn per_channel_runs_are_deterministic() {
    let s = catalog::by_name("adas-overload").unwrap();
    let spec = GovernorSpec {
        per_channel: true,
        ..s.governor_spec()
    };
    let text = || {
        let out = run_governed(&s, &spec, 1.0).unwrap();
        trace::trace_json(&[(out.clone(), None)]) + &trace::trace_csv(&[out])
    };
    assert_eq!(text(), text(), "per-channel trace drifted between runs");
}

/// Holds at 7 of 7 band points.
#[test]
fn generated_overload_scenarios_also_drive_the_ladder_up() {
    // `sara gen --overload`-style workloads: rated demand above platform
    // peak must push the governor off its starting rung.
    let cfg = GeneratorConfig {
        overload: Some(1.4),
        ..GeneratorConfig::default()
    };
    let s = random_scenario_with(&cfg, 7);
    let spec = GovernorSpec::new(GovernorSpec::default_ladder(s.freq.as_u32()));
    let out = run_governed(&s, &spec, 1.5).unwrap();
    assert!(
        out.freq_changes() >= 1,
        "{}: overload must force at least one step",
        s.name
    );
    assert_eq!(
        out.final_freq().as_u32(),
        *spec.ladder_mhz.last().unwrap(),
        "sustained overload ends at the top rung"
    );
}

/// Holds at 7 of 7 band points.
#[test]
fn governed_traces_are_byte_deterministic() {
    let s = catalog::by_name("adas-overload").unwrap();
    let spec = s.governor_spec();
    let run = || {
        let out = run_governed(&s, &spec, 1.0).unwrap();
        let base = run_pinned(&s, &spec, MegaHertz::new(spec.start_mhz()), 1.0).unwrap();
        trace::trace_json(&[(out.clone(), Some(base))]) + &trace::trace_csv(&[out])
    };
    assert_eq!(run(), run());
}
