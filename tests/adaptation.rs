//! Integration tests of the SARA adaptation loop itself: priorities really
//! adapt, the look-up tables bound them, and the Fig. 7 mechanism
//! (frequency ↓ → priority residency ↑) holds on the full system.

use sara::memctrl::PolicyKind;
use sara::scenarios::{catalog, run_matrix, MatrixSpec};
use sara::sim::experiment::{run_camcorder, FreqPoint};
use sara::sim::{Simulation, SystemConfig};
use sara::types::{CoreKind, MegaHertz};
use sara::workloads::TestCase;

#[test]
fn priority_residency_shifts_with_frequency() {
    let spec = MatrixSpec {
        policies: vec![PolicyKind::Priority],
        freqs_mhz: vec![1300, 1700],
        duration_ms: Some(3.0),
        ..MatrixSpec::default()
    };
    let summary = run_matrix(&[catalog::camcorder_a()], &spec).unwrap();
    let sweep: Vec<FreqPoint> = summary
        .reports()
        .filter_map(|r| FreqPoint::from_report(r, CoreKind::ImageProcessor))
        .collect();
    let low = &sweep[0];
    let high = &sweep[1];
    assert!(
        high.residency[0] > low.residency[0],
        "more relaxed time at 1700 MHz: {:?} vs {:?}",
        high.residency,
        low.residency
    );
    let urgent_low: f64 = low.residency[3..].iter().sum();
    let urgent_high: f64 = high.residency[3..].iter().sum();
    assert!(
        urgent_low > urgent_high,
        "more urgent time at 1300 MHz ({urgent_low:.3} vs {urgent_high:.3})"
    );
}

#[test]
fn residency_distributions_are_normalised() {
    let report = run_camcorder(TestCase::A, PolicyKind::Priority, 1.0).unwrap();
    for core in &report.cores {
        let total: f64 = core.priority_residency.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "{}: residency sums to {total}",
            core.kind.name()
        );
        // 3-bit encoding: nothing above level 7.
        assert!(core.priority_residency[8..].iter().all(|&v| v == 0.0));
    }
}

#[test]
fn best_effort_cpu_never_escalates() {
    let report = run_camcorder(TestCase::A, PolicyKind::Priority, 2.0).unwrap();
    let cpu = report.core(CoreKind::Cpu).unwrap();
    assert!(
        (cpu.priority_residency[0] - 1.0).abs() < 1e-9,
        "best-effort CPU must stay at priority 0, got {:?}",
        &cpu.priority_residency[..8]
    );
}

#[test]
fn latency_cores_hold_the_fig4_floor_under_load() {
    let report = run_camcorder(TestCase::A, PolicyKind::Priority, 2.0).unwrap();
    let dsp = report.core(CoreKind::Dsp).unwrap();
    // The DSP is loaded throughout; its map floors at level 3 (Fig. 4a), so
    // levels 1-2 must be (almost) unvisited.
    assert!(
        dsp.priority_residency[1] + dsp.priority_residency[2] < 0.05,
        "DSP residency: {:?}",
        &dsp.priority_residency[..8]
    );
}

#[test]
fn overload_drives_priorities_up_not_down() {
    // Crank the display demand beyond any reasonable share and check that
    // its adaptation saturates at the top level instead of oscillating.
    let mut cores = TestCase::A.cores();
    for core in &mut cores {
        if core.kind == CoreKind::Display {
            for dma in &mut core.dmas {
                if let sara::workloads::TrafficSpec::Constant { bytes_per_s } = &mut dma.traffic {
                    *bytes_per_s *= 6.0; // 9 GB/s display: impossible
                }
            }
        }
    }
    let cfg = SystemConfig::custom(MegaHertz::new(1866), PolicyKind::Priority, cores).unwrap();
    let mut sim = Simulation::new(cfg).unwrap();
    let report = sim.run_for_ms(2.0);
    let display = report.core(CoreKind::Display).unwrap();
    assert!(display.failed, "an impossible target must be missed");
    assert!(
        display.priority_residency[7] > 0.5,
        "impossible target must saturate at level 7: {:?}",
        &display.priority_residency[..8]
    );
}
