//! `matrix_catalog`: the built-in catalog crossed with all six policies
//! through `run_matrix`, then `MatrixSummary::to_json_writer` — the shape
//! `sara matrix` and `sara bench` users run. A *job* is one whole matrix.
//!
//! Every job is preceded by one set-up, so that set-ups are spread over
//! the run like the jobs and meet the same host.
//!
//! The timed jobs run on the threads the pinned process has (one); the
//! same matrix on every core of the host is run once afterwards, unpinned,
//! to check its bytes and report the pool's efficiency.

use std::time::{Duration, Instant};

use sara_scenarios::{
    catalog, expand_cells, run_matrix, summarize_cells, MatrixSpec, MatrixSummary, Scenario,
    ScreenMode,
};
use sara_types::ConfigError;

use crate::host;
use crate::outcome::{Outcome, Reading, RunArgs};
use crate::stats;
use crate::trace::Tracer;

/// Simulated milliseconds per cell: half of what
/// `tests/data/bench-baseline.json` uses, so that a job lasts about 1.5 s
/// on one thread and a run holds enough of them for a tenth percentile.
const DURATION_MS: f64 = 0.1;

/// Simulated length of the cells a set-up's warm-up matrix runs.
const WARMUP_MS: f64 = 0.01;

fn spec(duration_ms: f64, threads: usize) -> MatrixSpec {
    MatrixSpec {
        duration_ms: Some(duration_ms),
        threads,
        screen: ScreenMode::Off,
        ..MatrixSpec::default()
    }
}

/// Runs one matrix and emits it into `sink`; returns the summary with the
/// host seconds of `run_matrix` and of the emit.
fn run_job(
    scenarios: &[Scenario],
    spec: &MatrixSpec,
    sink: &mut Vec<u8>,
) -> Result<(MatrixSummary, [Instant; 3]), ConfigError> {
    let start = Instant::now();
    let summary = run_matrix(scenarios, spec)?;
    let ran = Instant::now();
    sink.clear();
    summary
        .to_json_writer(sink)
        .expect("writing to a Vec cannot fail");
    Ok((summary, [start, ran, Instant::now()]))
}

/// Seconds the cells of `summary` spent in set-up, simulation and report,
/// summed across workers.
fn phases(summary: &MatrixSummary) -> [f64; 3] {
    let sum_ms = |f: fn(&sara_scenarios::CellProfile) -> f64| {
        summary.profile.iter().map(f).sum::<f64>() / 1e3
    };
    [
        sum_ms(|p| p.setup_ms),
        sum_ms(|p| p.sim_ms),
        sum_ms(|p| p.report_ms),
    ]
}

/// Runs the workload.
///
/// # Errors
///
/// Returns the [`ConfigError`] of the first failing cell; a verification
/// mismatch is tallied in the outcome instead.
pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Result<Outcome, ConfigError> {
    let threads = host::nproc();
    let mut sink = Vec::with_capacity(1 << 20);
    tracer.track(1, "harness");
    for w in 0..threads {
        tracer.track(w as u32 + 2, &format!("worker {w}"));
    }
    let job_spec = spec(DURATION_MS, threads);
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    // Per job: seconds in `run_matrix`, in the emit, and in each phase of
    // its cells.
    let (mut matrix_s, mut emit_s) = (Vec::new(), Vec::new());
    let mut phase_s: Vec<[f64; 3]> = Vec::new();
    let mut scenarios;
    let mut last;
    // Stop while the slowest round so far would still end inside the window.
    let mut longest = 0.0f64;
    let window = Instant::now();
    loop {
        let round = Instant::now();
        scenarios = catalog::builtin();
        std::hint::black_box(run_job(&scenarios, &spec(WARMUP_MS, threads), &mut sink)?);
        setup_s.push(round.elapsed().as_secs_f64());

        let (summary, at) = run_job(&scenarios, &job_spec, &mut sink)?;
        longest = longest.max(round.elapsed().as_secs_f64());
        for _ in &summary.cells {
            outcome.checks.op(true, String::new);
        }
        let digest = stats::fnv1a(stats::FNV_OFFSET, &sink);
        if matrix_s.is_empty() {
            outcome.sim_digest = digest;
            for cell in &summary.cells {
                let Some(r) = cell.report() else { continue };
                outcome.checks.op(
                    r.bandwidth_gbs <= r.analytic.bound_gbs * (1.0 + 1e-9),
                    || {
                        format!(
                            "{} {}: achieved {} GB/s beats the analytic bound {} GB/s",
                            cell.scenario,
                            cell.policy.name(),
                            r.bandwidth_gbs,
                            r.analytic.bound_gbs
                        )
                    },
                );
            }
        }
        let same = digest == outcome.sim_digest;
        outcome.checks.op(same, || {
            "the matrix bytes differ from the first job's".to_string()
        });
        phase_s.push(phases(&summary));
        matrix_s.push(at[1].duration_since(at[0]).as_secs_f64());
        emit_s.push(at[2].duration_since(at[1]).as_secs_f64());

        let job = tracer.span(1, "job", "benchmark", at[0], at[2], None);
        tracer.span(1, "run_matrix", "scenarios", at[0], at[1], Some(job));
        tracer.span(1, "to_json_writer", "json", at[1], at[2], Some(job));
        if tracer.enabled() {
            for (cell, p) in summary.cells.iter().zip(&summary.profile) {
                let tid = p.worker as u32 + 2;
                let ms = |ms: f64| at[0] + Duration::from_secs_f64(ms.max(0.0) / 1e3);
                let bounds = [
                    p.start_ms,
                    p.start_ms + p.setup_ms,
                    p.start_ms + p.setup_ms + p.sim_ms,
                    p.start_ms + p.total_ms(),
                ];
                let name = format!("{} {}", cell.scenario, cell.policy.name());
                let parent = tracer.span(
                    tid,
                    &name,
                    "scenarios",
                    ms(bounds[0]),
                    ms(bounds[3]),
                    Some(job),
                );
                for (k, call) in ["build_stepped", "advance_until", "report"]
                    .into_iter()
                    .enumerate()
                {
                    tracer.span(
                        tid,
                        call,
                        "sim",
                        ms(bounds[k]),
                        ms(bounds[k + 1]),
                        Some(parent),
                    );
                }
            }
        }
        last = summary;
        if window.elapsed().as_secs_f64() + longest >= args.seconds {
            break;
        }
    }
    let summary = last;
    let cells = summary.cells.len();
    let reports = || summary.cells.iter().filter_map(|c| c.report());
    let cycles: u64 = reports().map(|r| r.elapsed_cycles).sum();
    let completed: u64 = reports().map(|r| r.mc.total_completed()).sum();

    let n = matrix_s.len();
    let job_s: Vec<f64> = matrix_s.iter().zip(&emit_s).map(|(m, e)| m + e).collect();
    let quiet_s = stats::quiet(&job_s);

    outcome.readings = if args.trace {
        // The two harness passes around the cells, timed on their own on
        // the last job's inputs.
        let t0 = Instant::now();
        let specs = expand_cells(&scenarios, &job_spec)?;
        let expand_s = t0.elapsed().as_secs_f64();
        let outcomes = summary.cells.iter().map(|c| c.outcome.clone()).collect();
        let t1 = Instant::now();
        std::hint::black_box(summarize_cells(
            &scenarios,
            &specs,
            outcomes,
            summary.profile,
        ));
        let summarize_s = t1.elapsed().as_secs_f64();
        let phase = |k: usize| -> Vec<f64> { phase_s.iter().map(|p| p[k]).collect() };
        let advance_s = stats::quiet(&phase(1));
        vec![
            Reading::quiet("sim.build_s", &phase(0)),
            Reading::quiet("sim.advance_s", &phase(1)),
            Reading::quiet("sim.report_s", &phase(2)),
            Reading::new("sim.cycles", cycles as f64, 1),
            Reading::new("sim.txn_completed", completed as f64, 1),
            Reading::new("sim.ns_per_txn", advance_s * 1e9 / completed as f64, n),
            Reading::new("sim.ns_per_cycle", advance_s * 1e9 / cycles as f64, n),
            Reading::new("scenarios.expand_s", expand_s, 1),
            Reading::new("scenarios.summarize_s", summarize_s, 1),
            Reading::quiet("scenarios.matrix_emit_s", &emit_s),
        ]
    } else {
        vec![
            Reading::quiet("setup_s", &setup_s),
            Reading::new("sim_mcycles_per_s", cycles as f64 / quiet_s / 1e6, n),
            Reading::new("cells_per_s", cells as f64 / quiet_s, n),
            Reading::new("jobs_per_s", 1.0 / quiet_s, n),
            Reading::quiet("job_ms", &job_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
            Reading::new("peak_rss_mb", host::peak_rss_mb(), 1),
        ]
    };
    outcome.counts = vec![
        ("jobs", n as u64),
        ("cells_per_job", cells as u64),
        ("threads", threads as u64),
        ("sim_cycles_per_job", cycles),
        ("txn_completed_per_job", completed),
    ];
    outcome.job_ms = quiet_s * 1e3;
    Ok(outcome)
}

/// The same matrix on every core the host offers (call it unpinned): its
/// bytes must equal the timed jobs', and a traced run reports the pool's
/// efficiency, summed cell time over threads × `run_matrix` wall time.
///
/// # Errors
///
/// Returns the [`ConfigError`] of the first failing cell.
pub fn on_all_cores(outcome: &mut Outcome, trace: bool) -> Result<(), ConfigError> {
    let threads = host::nproc();
    let mut sink = Vec::new();
    let (summary, at) = run_job(&catalog::builtin(), &spec(DURATION_MS, threads), &mut sink)?;
    let same = stats::fnv1a(stats::FNV_OFFSET, &sink) == outcome.sim_digest;
    outcome.checks.op(same, || {
        format!("the matrix on {threads} threads differs from the timed one")
    });
    if trace {
        let wall_s = at[1].duration_since(at[0]).as_secs_f64();
        let efficiency = phases(&summary).iter().sum::<f64>() / (threads as f64 * wall_s);
        outcome
            .readings
            .push(Reading::new("scenarios.parallel_efficiency", efficiency, 1));
    }
    Ok(())
}
