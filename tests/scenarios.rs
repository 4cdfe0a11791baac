//! End-to-end coverage of the scenario subsystem through the `sara`
//! facade: every built-in scenario completes a 1 ms run, the generator is
//! a pure function of its seed, and the batch harness aggregates
//! identically regardless of worker-thread count.

use sara::memctrl::PolicyKind;
use sara::scenarios::{catalog, random_scenario, run_matrix, MatrixSpec, Scenario, ScreenMode};

/// Every catalog entry builds and survives a 1 ms window under its default
/// policy without panicking. Runs through the harness with 8 workers so
/// the smoke sweep finishes in wall-clock seconds.
#[test]
fn every_builtin_scenario_completes_one_ms() {
    let scenarios = catalog::builtin();
    assert!(scenarios.len() >= 8, "catalog shrank: {}", scenarios.len());
    let spec = MatrixSpec {
        policies: vec![PolicyKind::Priority],
        freqs_mhz: Vec::new(),
        channels: Vec::new(),
        duration_ms: Some(1.0),
        threads: 8,
        screen: ScreenMode::Off,
    };
    let summary = run_matrix(&scenarios, &spec).expect("matrix must run");
    assert_eq!(summary.cells.len(), scenarios.len());
    for (cell, scenario) in summary.cells.iter().zip(&scenarios) {
        assert_eq!(cell.scenario, scenario.name);
        assert!(
            cell.report().unwrap().mc.total_completed() > 0,
            "{}: no transactions completed",
            cell.scenario
        );
        let report = cell.report().unwrap();
        let lane_completions: u64 = report.telemetry.lanes.iter().map(|l| l.completions).sum();
        assert_eq!(
            lane_completions,
            report.mc.total_completed(),
            "{}: telemetry lost completions",
            cell.scenario
        );
        assert_eq!(
            cell.report().unwrap().cores.len(),
            scenario.cores.len(),
            "{}: report lost cores",
            cell.scenario
        );
        assert!(
            (cell.report().unwrap().elapsed_ms - 1.0).abs() < 1e-6,
            "{}: ran {} ms",
            cell.scenario,
            cell.report().unwrap().elapsed_ms
        );
    }
}

/// The paper's feasibility claim survives the port onto the scenario
/// layer: SARA's Policy 1 meets every camcorder-B target while plain FCFS
/// does not (Fig. 5's contrast), and the ranking notices.
#[test]
fn rankings_prefer_the_policy_that_meets_targets() {
    let scenarios = vec![catalog::by_name("camcorder-b").unwrap()];
    let spec = MatrixSpec {
        policies: vec![PolicyKind::Fcfs, PolicyKind::Priority],
        freqs_mhz: Vec::new(),
        channels: Vec::new(),
        duration_ms: Some(1.5),
        threads: 2,
        screen: ScreenMode::Off,
    };
    let summary = run_matrix(&scenarios, &spec).unwrap();
    let best = summary.best("camcorder-b").unwrap();
    assert_eq!(best.policy, PolicyKind::Priority);
    assert!(best.report().unwrap().all_targets_met());
}

#[test]
fn generator_is_deterministic_per_seed() {
    let seeds = [3u64, 0x5a5a, u64::MAX];
    for seed in seeds {
        let a: Scenario = random_scenario(seed);
        let b = random_scenario(seed);
        assert_eq!(a, b, "seed {seed}");
        // And the run itself is reproducible end to end.
        let ra = a.run_for_ms(0.1).unwrap();
        let rb = b.run_for_ms(0.1).unwrap();
        assert_eq!(ra.to_json(), rb.to_json(), "seed {seed} run diverged");
    }
}

#[test]
fn matrix_json_identical_for_1_2_and_8_workers() {
    let scenarios = vec![
        catalog::by_name("camcorder-b").unwrap(),
        catalog::by_name("ml-inference").unwrap(),
    ];
    let json_for = |threads: usize| {
        let spec = MatrixSpec {
            policies: vec![
                PolicyKind::Fcfs,
                PolicyKind::RoundRobin,
                PolicyKind::Priority,
            ],
            freqs_mhz: Vec::new(),
            channels: Vec::new(),
            duration_ms: Some(0.25),
            threads,
            screen: ScreenMode::Off,
        };
        run_matrix(&scenarios, &spec).unwrap().to_json()
    };
    let one = json_for(1);
    assert_eq!(one, json_for(2), "2 workers diverged from serial");
    assert_eq!(one, json_for(8), "8 workers diverged from serial");
    assert!(one.starts_with("{\"cells\":["));
}
