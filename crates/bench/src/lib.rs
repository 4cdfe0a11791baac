//! # sara-bench
//!
//! The evaluation harness: one binary per table/figure of the paper
//! (`table1`, `table2`, `fig5`, `fig6`, `fig7`, `fig8`, `fig9`) and
//! ablation binaries for the design knobs DESIGN.md calls out. Host-time
//! measurement lives in the standalone `benchmark/` package.
//!
//! Binaries print the same rows/series the paper reports and drop CSV files
//! into `results/`. Absolute bandwidth numbers depend on the synthetic
//! traffic calibration (DESIGN.md §1); the reproduction targets are the
//! *shapes*: which cores fail under which baseline, who wins, by what
//! factor, and where the crossovers sit.

#![warn(missing_docs)]

use std::path::{Path, PathBuf};

use sara_memctrl::PolicyKind;
use sara_sim::SimReport;
use sara_types::CoreKind;

/// Default figure-run duration: one full 33.3 ms camcorder frame.
pub const FRAME_MS: f64 = 33.334;

/// Duration (ms) for figure runs; override with `SARA_FIG_MS` for quick
/// previews (e.g. `SARA_FIG_MS=4 cargo run --release -p sara-bench --bin
/// fig5`).
pub fn figure_duration_ms() -> f64 {
    std::env::var("SARA_FIG_MS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(FRAME_MS)
}

/// The `results/` directory (created on demand).
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Prints a per-policy × per-core NPI verdict matrix (the textual form of
/// Figs 5/6/9).
pub fn print_npi_matrix(title: &str, reports: &[&SimReport], critical: &[CoreKind]) {
    println!("== {title} ==");
    print!("{:<14}", "core");
    for r in reports {
        print!(" | {:>16}", r.policy.name());
    }
    println!();
    for &kind in critical {
        print!("{:<14}", kind.name());
        for r in reports {
            match r.core(kind) {
                Some(c) => print!(
                    " | min {:>5.2} {:>5}",
                    c.min_npi.min(99.0),
                    if c.failed { "FAIL" } else { "ok" }
                ),
                None => print!(" | {:>16}", "-"),
            }
        }
        println!();
    }
    print!("{:<14}", "DRAM GB/s");
    for r in reports {
        print!(" | {:>16.2}", r.bandwidth_gbs);
    }
    println!();
    print!("{:<14}", "row-hit %");
    for r in reports {
        print!(" | {:>16.1}", r.row_hit_rate * 100.0);
    }
    println!();
}

/// The four policies of Figs 5 and 6, in the paper's panel order.
pub const FIG5_POLICIES: [PolicyKind; 4] = [
    PolicyKind::Fcfs,
    PolicyKind::RoundRobin,
    PolicyKind::FrameQos,
    PolicyKind::Priority,
];

/// The five policies of Fig. 8, in the paper's bar order (bottom to top:
/// RR, FCFS, QoS, QoS-RB, FR-FCFS).
pub const FIG8_POLICIES: [PolicyKind; 5] = [
    PolicyKind::RoundRobin,
    PolicyKind::Fcfs,
    PolicyKind::Priority,
    PolicyKind::QosRowBuffer,
    PolicyKind::FrFcfs,
];
