//! Fig. 5 — NPI of critical cores during one frame period (33 ms) for test
//! case A under FCFS, round-robin, frame-rate QoS and the SARA
//! priority-based QoS policy.
//!
//! Expected shape (paper): FCFS starves GPS and the display (display NPI
//! bottoms out around 0.13); RR starves display and camera (< 10% of
//! target); frame-rate QoS rescues media but fails every system core; the
//! priority-based policy meets all targets.

use sara_bench::{figure_duration_ms, print_npi_matrix, results_dir, FIG5_POLICIES};
use sara_scenarios::{catalog, run_matrix, MatrixSpec};
use sara_types::Clock;
use sara_workloads::TestCase;

fn main() {
    let duration = figure_duration_ms();
    let case = TestCase::A;
    let spec = MatrixSpec {
        policies: FIG5_POLICIES.to_vec(),
        duration_ms: Some(duration),
        ..MatrixSpec::default()
    };
    let summary = run_matrix(&[catalog::camcorder_a()], &spec).expect("camcorder case A builds");
    let reports: Vec<_> = summary.reports().collect();
    print_npi_matrix(
        &format!("Fig. 5: case A NPI over {duration:.1} ms"),
        &reports,
        &case.critical_cores(),
    );
    let dir = results_dir();
    for r in reports {
        let path = dir.join(format!("fig5_{}.csv", r.policy.name().to_lowercase()));
        r.write_npi_csv(&path, Clock::new(r.freq))
            .expect("write CSV");
        println!("wrote {}", path.display());
    }
}
