//! Integration tests of the SARA adaptation loop itself: priorities really
//! adapt and the look-up tables bound them. (The Fig. 7 mechanism —
//! frequency ↓ → priority residency ↑ — is a claim of `sara repro fig7`.)

use sara::memctrl::PolicyKind;
use sara::scenarios::catalog;
use sara::sim::{SimReport, Simulation};
use sara::types::CoreKind;

/// Case A under the SARA policy for `ms` milliseconds.
fn camcorder_a(ms: f64) -> SimReport {
    let camcorder = catalog::camcorder_a().with_policy(PolicyKind::Priority);
    camcorder.run_for_ms(ms).unwrap()
}

#[test]
fn residency_distributions_are_normalised() {
    let report = camcorder_a(1.0);
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
    let report = camcorder_a(2.0);
    let cpu = report.core(CoreKind::Cpu).unwrap();
    assert!(
        (cpu.priority_residency[0] - 1.0).abs() < 1e-9,
        "best-effort CPU must stay at priority 0, got {:?}",
        &cpu.priority_residency[..8]
    );
}

#[test]
fn latency_cores_hold_the_fig4_floor_under_load() {
    let report = camcorder_a(2.0);
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
    let mut camcorder = catalog::camcorder_a().with_policy(PolicyKind::Priority);
    for core in &mut camcorder.cores {
        if core.kind == CoreKind::Display {
            for dma in &mut core.dmas {
                if let sara::workloads::TrafficSpec::Constant { bytes_per_s } = &mut dma.traffic {
                    *bytes_per_s *= 6.0; // 9 GB/s display: impossible
                }
            }
        }
    }
    let mut sim = Simulation::new(camcorder.config().unwrap()).unwrap();
    let report = sim.run_for_ms(2.0);
    let display = report.core(CoreKind::Display).unwrap();
    assert!(display.failed, "an impossible target must be missed");
    assert!(
        display.priority_residency[7] > 0.5,
        "impossible target must saturate at level 7: {:?}",
        &display.priority_residency[..8]
    );
}
