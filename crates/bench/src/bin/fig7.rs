//! Fig. 7 — distribution of the image processor's priority levels during
//! one frame period as the DRAM frequency drops from 1700 to 1300 MHz
//! (case-A workload, Policy 1).
//!
//! Expected shape (paper): at 1700 MHz the image processor spends ~90% of
//! the frame at priority 0; as frequency (and thus deliverable bandwidth)
//! falls, the self-adaptation shifts residency towards the urgent levels,
//! reaching a priority-7-dominated distribution at 1300 MHz, while the
//! core's average bandwidth stays above target.

use std::io::{BufWriter, Write};

use sara_bench::{figure_duration_ms, results_dir};
use sara_memctrl::PolicyKind;
use sara_scenarios::{catalog, run_matrix, MatrixSpec};
use sara_sim::experiment::FreqPoint;
use sara_types::CoreKind;

fn main() {
    let duration = figure_duration_ms();
    let spec = MatrixSpec {
        policies: vec![PolicyKind::Priority],
        freqs_mhz: vec![1300, 1400, 1500, 1600, 1700],
        duration_ms: Some(duration),
        ..MatrixSpec::default()
    };
    let summary = run_matrix(&[catalog::camcorder_a()], &spec).expect("case-A sweep builds");
    let points: Vec<FreqPoint> = summary
        .reports()
        .filter_map(|r| FreqPoint::from_report(r, CoreKind::ImageProcessor))
        .collect();

    println!("== Fig. 7: image processor priority residency over {duration:.1} ms ==");
    print!("{:<10}", "freq");
    for level in 0..8 {
        print!(" {:>6}", format!("P{level}"));
    }
    println!("  {:>8} {:>10}", "minNPI", "coreGB/s");
    let dir = results_dir();
    let mut csv = BufWriter::new(std::fs::File::create(dir.join("fig7.csv")).expect("create CSV"));
    writeln!(csv, "freq_mhz,p0,p1,p2,p3,p4,p5,p6,p7,min_npi,core_gbs").unwrap();
    for p in &points {
        print!("{:<10}", p.freq.to_string());
        for level in 0..8 {
            print!(" {:>5.1}%", p.residency[level] * 100.0);
        }
        println!("  {:>8.3} {:>10.2}", p.min_npi, p.core_bytes_per_s / 1e9);
        write!(csv, "{}", p.freq.as_u32()).unwrap();
        for level in 0..8 {
            write!(csv, ",{:.4}", p.residency[level]).unwrap();
        }
        writeln!(csv, ",{:.4},{:.4}", p.min_npi, p.core_bytes_per_s / 1e9).unwrap();
    }
    csv.flush().expect("write CSV");
    println!("wrote {}", dir.join("fig7.csv").display());
}
