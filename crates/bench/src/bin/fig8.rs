//! Fig. 8 — average DRAM bandwidth over one frame under RR, FCFS, QoS
//! (Policy 1), QoS-RB (Policy 2) and FR-FCFS, test case A.
//!
//! Expected shape (paper): FR-FCFS achieves the most row hits and the
//! highest bandwidth; QoS-RB lands within ~1% of it; QoS-RB beats RR, FCFS
//! and plain QoS by roughly +24%, +12% and +10% — without any QoS failures
//! (that part is Fig. 9).

use std::io::{BufWriter, Write};

use sara_bench::{figure_duration_ms, results_dir, FIG8_POLICIES};
use sara_scenarios::{catalog, run_matrix, MatrixSpec};
use sara_sim::experiment::DvfsPoint;

fn main() {
    let duration = figure_duration_ms();
    let spec = MatrixSpec {
        policies: FIG8_POLICIES.to_vec(),
        duration_ms: Some(duration),
        ..MatrixSpec::default()
    };
    let summary = run_matrix(&[catalog::camcorder_a()], &spec).expect("camcorder case A builds");
    let reports: Vec<_> = summary.reports().collect();

    println!("== Fig. 8: average DRAM bandwidth over {duration:.1} ms (case A) ==");
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>8} {:>10}",
        "policy", "GB/s", "row-hit%", "vs QoS-RB", "failures", "pJ/bit"
    );
    let qos_rb = reports
        .iter()
        .find(|r| r.policy == sara_memctrl::PolicyKind::QosRowBuffer)
        .expect("QoS-RB in set")
        .bandwidth_gbs;
    let dir = results_dir();
    let mut csv = BufWriter::new(std::fs::File::create(dir.join("fig8.csv")).expect("create CSV"));
    writeln!(csv, "policy,bandwidth_gbs,row_hit_rate,failures").unwrap();
    for r in reports {
        println!(
            "{:<10} {:>12.2} {:>10.1} {:>+9.1}% {:>8} {:>10.1}",
            r.policy.name(),
            r.bandwidth_gbs,
            r.row_hit_rate * 100.0,
            (r.bandwidth_gbs / qos_rb - 1.0) * 100.0,
            r.failed_cores().len(),
            DvfsPoint::from_report(r).pj_per_bit,
        );
        writeln!(
            csv,
            "{},{:.4},{:.4},{}",
            r.policy.name(),
            r.bandwidth_gbs,
            r.row_hit_rate,
            r.failed_cores().len()
        )
        .unwrap();
    }
    csv.flush().expect("write CSV");
    println!("wrote {}", dir.join("fig8.csv").display());
}
