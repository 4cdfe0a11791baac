//! Lowering a [`SystemConfig`] onto the closed-form `sara-analytic`
//! model — the one place the simulator's view of a cell (timing,
//! geometry, clock, workload, front-end latencies) is translated into
//! the screener's input, so every consumer (the `analytic` report
//! section, the matrix screener, the serve pre-cache check) prices a
//! cell identically.

use sara_analytic::{evaluate, AnalyticInput, AnalyticReport};

use crate::config::{SystemConfig, ADMIT_LATENCY, READ_RESPONSE_LATENCY};

/// Evaluates the closed-form analytic model for a configured cell:
/// optimistic bandwidth bound, rated demand, latency feasibility, the
/// optimal-static-allocation baseline, and the screening verdict.
///
/// Deterministic and cheap (microseconds): safe to call per cell, per
/// epoch, or per serve submission without showing up in profiles.
pub fn analytic_report(cfg: &SystemConfig) -> AnalyticReport {
    evaluate(&AnalyticInput {
        timing: cfg.dram.timing(),
        channels: cfg.dram.channels(),
        ranks: cfg.dram.ranks(),
        banks: cfg.dram.banks(),
        bytes_per_beat: cfg.dram.bytes_per_beat(),
        row_bytes: cfg.dram.row_bytes(),
        burst_bytes: cfg.dram.burst_bytes(),
        freq: cfg.freq(),
        cores: &cfg.cores,
        admit_latency: ADMIT_LATENCY,
        read_response_latency: READ_RESPONSE_LATENCY,
    })
}
