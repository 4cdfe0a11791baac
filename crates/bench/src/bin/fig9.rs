//! Fig. 9 — NPI of critical cores under FR-FCFS vs QoS-RB (Policy 2),
//! test case A.
//!
//! Expected shape (paper): FR-FCFS maximises row hits but degrades the GPS
//! and the display; QoS-RB keeps the bandwidth within ~1% of FR-FCFS with
//! no performance degradation to any core.

use sara_bench::{figure_duration_ms, print_npi_matrix, results_dir};
use sara_memctrl::PolicyKind;
use sara_scenarios::{catalog, run_matrix, MatrixSpec};
use sara_types::Clock;
use sara_workloads::TestCase;

fn main() {
    let duration = figure_duration_ms();
    let case = TestCase::A;
    let spec = MatrixSpec {
        policies: vec![PolicyKind::FrFcfs, PolicyKind::QosRowBuffer],
        duration_ms: Some(duration),
        ..MatrixSpec::default()
    };
    let summary = run_matrix(&[catalog::camcorder_a()], &spec).expect("camcorder case A builds");
    let reports: Vec<_> = summary.reports().collect();
    print_npi_matrix(
        &format!("Fig. 9: FR-FCFS vs QoS-RB over {duration:.1} ms"),
        &reports,
        &case.critical_cores(),
    );
    let dir = results_dir();
    for r in reports {
        let path = dir.join(format!("fig9_{}.csv", r.policy.name().to_lowercase()));
        r.write_npi_csv(&path, Clock::new(r.freq))
            .expect("write CSV");
        println!("wrote {}", path.display());
    }
}
