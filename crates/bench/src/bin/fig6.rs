//! Fig. 6 — NPI of critical cores during one frame period for test case B
//! (GPS, camera, rotator and JPEG inactive; DRAM at 1700 MHz) under the
//! same four policies.
//!
//! Expected shape (paper): FCFS hurts the latency-sensitive DSP; RR gives
//! the DSP its own queue (it recovers) but the display fails from
//! intensified media interference; frame-rate QoS fails the non-media
//! cores; the priority-based policy meets all targets.

use sara_bench::{figure_duration_ms, print_npi_matrix, results_dir, FIG5_POLICIES};
use sara_scenarios::{catalog, run_matrix, MatrixSpec};
use sara_types::Clock;
use sara_workloads::TestCase;

fn main() {
    let duration = figure_duration_ms();
    let case = TestCase::B;
    let spec = MatrixSpec {
        policies: FIG5_POLICIES.to_vec(),
        duration_ms: Some(duration),
        ..MatrixSpec::default()
    };
    let summary = run_matrix(&[catalog::camcorder_b()], &spec).expect("camcorder case B builds");
    let reports: Vec<_> = summary.reports().collect();
    print_npi_matrix(
        &format!("Fig. 6: case B NPI over {duration:.1} ms"),
        &reports,
        &case.critical_cores(),
    );
    let dir = results_dir();
    for r in reports {
        let path = dir.join(format!("fig6_{}.csv", r.policy.name().to_lowercase()));
        r.write_npi_csv(&path, Clock::new(r.freq))
            .expect("write CSV");
        println!("wrote {}", path.display());
    }
}
