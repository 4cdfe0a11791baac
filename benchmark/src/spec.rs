//! What the benchmark measures: the workloads, the end-to-end metrics with
//! their regression bounds, and the per-layer metrics. `BENCHMARK.json` at
//! the repository root states the same tables for the driver; a unit test
//! holds the two together.

/// One metric: its name, unit, direction and (end-to-end only) the share
/// of the base median by which it may worsen before it is a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed and as keyed in every result document.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a larger value is the better one.
    pub higher_is_better: bool,
    /// Regression bound; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// A workload and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload was chosen (which layers it loads).
    pub why: &'static str,
}

/// The four workloads, in the order `run` executes them.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "frame_dense",
        why: "camcorder-a under QoS, QoS-RB, FCFS: queues stay full, so memctrl select, noc retry and dram issue dominate",
    },
    WorkloadDef {
        name: "lanes_wide",
        why: "ml-inference-8ch, same policies: shallow queues, so lane advance, merge and event-queue cost per transaction dominate",
    },
    WorkloadDef {
        name: "matrix_catalog",
        why: "10-scenario catalog x 6 policies through run_matrix, then the summary's JSON: short cells, expansion, report build and emit",
    },
    WorkloadDef {
        name: "serve_mix",
        why: "in-process sara serve over TCP, seeded mix of cached, freshly simulated and screened jobs: cache read vs insert vs bypass",
    },
];

/// Default measured seconds per run; equals `run_seconds` in
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 30;

/// End-to-end metrics, reported by every workload with tracing off. A
/// *job* is the request a user waits for: one three-policy comparison on
/// the engine workloads, one whole matrix on `matrix_catalog`, one submit
/// on `serve_mix` (where `job_ms` is over the `warm` kind).
///
/// Every timing is a quiet-host figure (`stats::quiet`): the tenth
/// percentile of the repetitions of the same work in a run. With that,
/// ten-run sets on the seed host spread 1 to 6 % on the engine and matrix
/// workloads and 4 to 11 % on `serve_mix`, and the host's own speed drifts
/// by up to 11 % over tens of minutes; the bounds are what such a host can
/// resolve, not what one would like to catch.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("sim_mcycles_per_s", "Mcycles/s", true, 0.25),
    e2e("cells_per_s", "1/s", true, 0.25),
    e2e("jobs_per_s", "1/s", true, 0.25),
    e2e("job_ms", "ms", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.15),
];

/// Per-layer metrics, reported by every workload's traced run. A layer a
/// workload does not reach reports 0 for its replay figures; the layer
/// kernels (everything after `serve.cache_hit_ratio`) are the same fixed
/// loops in every traced run.
pub const PER_LAYER: [MetricDef; 56] = [
    // Spans around the public calls of one job, median over the window.
    layer("sim.build_s", "s", false),
    layer("sim.advance_s", "s", false),
    layer("sim.report_s", "s", false),
    layer("json.report_emit_s", "s", false),
    // Exact simulated counts of one job; identical on every run.
    layer("sim.cycles", "count", true),
    layer("sim.txn_completed", "count", true),
    layer("sim.dram_commands", "count", true),
    layer("sim.admit_attempts", "count", false),
    layer("sim.admit_ratio", "ratio", true),
    layer("sim.ns_per_txn", "ns", false),
    layer("sim.ns_per_cycle", "ns", false),
    layer("scenarios.expand_s", "s", false),
    layer("scenarios.summarize_s", "s", false),
    layer("scenarios.matrix_emit_s", "s", false),
    layer("scenarios.parallel_efficiency", "ratio", true),
    // Client spans, the server's journal and its metrics record.
    layer("serve.warm_job_p50_ms", "ms", false),
    layer("serve.warm_job_p95_ms", "ms", false),
    layer("serve.fresh_job_p50_ms", "ms", false),
    layer("serve.screened_job_p50_ms", "ms", false),
    layer("serve.accept_us_p50", "us", false),
    layer("serve.first_cell_us_p50", "us", false),
    layer("serve.cache_lookup_us_p50", "us", false),
    layer("serve.queue_wait_us_p50", "us", false),
    layer("serve.sim_us_p50", "us", false),
    layer("serve.emit_us_p50", "us", false),
    layer("serve.bytes_per_warm_job", "B", false),
    layer("serve.cache_entries", "count", false),
    layer("serve.cache_hit_ratio", "ratio", true),
    // Layer kernels: direct loops over public functions.
    layer("sim.par_over_seq", "ratio", false),
    layer("governor.governed_over_plain", "ratio", false),
    layer("dram.decode_ns", "ns", false),
    layer("dram.issue_seq_ns", "ns", false),
    layer("dram.issue_conflict_ns", "ns", false),
    layer("memctrl.select42_ns.FCFS", "ns", false),
    layer("memctrl.select42_ns.RR", "ns", false),
    layer("memctrl.select42_ns.FrameQoS", "ns", false),
    layer("memctrl.select42_ns.QoS", "ns", false),
    layer("memctrl.select42_ns.QoS-RB", "ns", false),
    layer("memctrl.select42_ns.FR-FCFS", "ns", false),
    layer("memctrl.accept_tick_ns", "ns", false),
    layer("noc.inject_pump_ns", "ns", false),
    layer("noc.arbiter_select_ns", "ns", false),
    layer("core.latency_meter_ns", "ns", false),
    layer("core.frame_meter_ns", "ns", false),
    layer("core.priority_lut_ns", "ns", false),
    layer("analytic.screen_cell_us", "us", false),
    layer("scenarios.fingerprint_us", "us", false),
    layer("scenarios.parse_us", "us", false),
    layer("scenarios.to_json_us", "us", false),
    layer("serve.parse_request_us", "us", false),
    layer("serve.cache_hit_us", "us", false),
    layer("serve.cell_record_us", "us", false),
    layer("json.emit_mb_s", "MB/s", true),
    layer("json.parse_mb_s", "MB/s", true),
    layer("telemetry.hist_record_ns", "ns", false),
    layer("telemetry.prometheus_encode_us", "us", false),
];

/// Looks a metric up by name in both tables.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
