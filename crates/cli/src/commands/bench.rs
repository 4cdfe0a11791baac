//! `sara bench` — scenario-matrix throughput with a CI-gateable baseline.
//!
//! Each catalog scenario runs its full policy matrix serially (one worker
//! thread, so the number is single-core simulation throughput and stays
//! comparable across machines with different core counts), best-of
//! `--repeat` wall-clock timings, reported as matrix cells per second.
//!
//! The JSON document is deterministic in *shape* — same keys, same
//! scenario order, same cell counts on every run and machine — with only
//! the measured `cells_per_sec` values varying, which is what makes a
//! checked-in baseline diffable and a tolerance-gated CI comparison
//! meaningful.
//!
//! The baseline gate compares *relative* per-scenario throughput: each
//! scenario's cells/sec is normalised by the geometric mean of the run it
//! came from, and the measured profile must stay within `--tolerance` of
//! the baseline profile. A uniformly slower machine (CI runner vs the
//! laptop that recorded the baseline) cancels out entirely; only a
//! scenario that regressed *relative to its peers* — the signature of a
//! real per-scenario performance bug — trips the gate.

use std::time::Instant;

use json::Value;
use sara_memctrl::PolicyKind;
use sara_scenarios::{catalog, run_matrix, MatrixSpec, ScreenMode};

use crate::args::{Args, CliError};
use crate::output::{emit_value, page, Progress, Sink};

const USAGE: &str = "usage: sara bench [--duration-ms MS] [--repeat N] [--json PATH|-] \
                     [--pretty] [--baseline PATH] [--tolerance F] [--history PATH] \
                     [--screen] [--min-speedup F]";

const HELP: &str = "\
sara bench — measure matrix throughput; emit or check a baseline

usage: sara bench [options]

  --duration-ms MS   simulated length per cell (default 0.2)
  --repeat N         timing repeats per scenario, best-of (default 3)
  --json PATH|-      write the measurement document as JSON
  --pretty           pretty-print the JSON output
  --baseline PATH    compare against a checked-in baseline document and
                     fail on regression; with SARA_UPDATE_BASELINE=1 in
                     the environment, (re)write PATH instead
  --tolerance F      allowed per-scenario slowdown relative to the run's
                     own geometric mean vs the baseline profile (default
                     2.5)
  --history PATH     append this run (timestamp, geo mean, per-scenario
                     cells/sec) to a perf-timeline JSON document, creating
                     PATH on first use; summarize it with `sara report`
  --screen           time the overload catalog scenarios (saturation,
                     adas-overload) across downclocked frequencies with
                     analytic pre-screening off vs prune, instead of the
                     normal measurement (exclusive mode; --duration-ms,
                     --repeat, --min-speedup, --json and --pretty apply)
  --min-speedup F    with --screen, fail unless prune mode is at least F
                     times faster on every scenario (default 0: report
                     only)

Every catalog scenario runs all six policies serially; throughput is
matrix cells per second. The output shape (keys, scenario order, cell
counts) is byte-deterministic across runs — only the timings move.

The gate is *relative*: each scenario's cells/sec is normalised by the
geometric mean of its own run before comparing against the baseline's
normalised profile, so a uniformly faster or slower machine never trips
it — only a scenario that slowed down relative to its peers does.

Regenerate the committed baseline after an intentional change:
  SARA_UPDATE_BASELINE=1 sara bench --baseline tests/data/bench-baseline.json";

/// The `format` tag carried by measurement and baseline documents.
pub const FORMAT_TAG: &str = "sara-bench/v1";

/// The `format` tag carried by `--history` perf-timeline documents.
pub const HISTORY_FORMAT_TAG: &str = "sara-bench-history/v1";

/// The `format` tag carried by `--screen --json` documents.
pub const SCREEN_FORMAT_TAG: &str = "sara-bench-screen/v1";

/// One scenario's measured throughput.
#[derive(Debug, Clone, PartialEq)]
struct Measurement {
    name: String,
    cells: usize,
    cells_per_sec: f64,
}

/// Runs the subcommand.
///
/// # Errors
///
/// Usage error for bad flags; runtime failure for simulation errors,
/// output I/O, an unreadable baseline, or a throughput regression.
pub fn run(raw: &[String]) -> Result<(), CliError> {
    let mut args = Args::new(raw, USAGE);
    if args.help_requested() {
        page(HELP);
        return Ok(());
    }
    let duration_ms = args.take_parsed::<f64>("--duration-ms")?.unwrap_or(0.2);
    if !duration_ms.is_finite() || duration_ms <= 0.0 {
        return Err(CliError::usage(USAGE, "--duration-ms must be > 0"));
    }
    let repeat = args.take_parsed::<usize>("--repeat")?.unwrap_or(3).max(1);
    let json_sink = args.take_opt("--json")?.map(|raw| Sink::parse(&raw));
    let pretty = args.take_flag("--pretty");
    let baseline_path = args.take_opt("--baseline")?;
    let tolerance = args.take_parsed::<f64>("--tolerance")?.unwrap_or(2.5);
    if !tolerance.is_finite() || tolerance < 1.0 {
        return Err(CliError::usage(USAGE, "--tolerance must be ≥ 1"));
    }
    let history_path = args.take_opt("--history")?;
    let screen = args.take_flag("--screen");
    let min_speedup = args.take_parsed::<f64>("--min-speedup")?.unwrap_or(0.0);
    if !min_speedup.is_finite() || min_speedup < 0.0 {
        return Err(CliError::usage(USAGE, "--min-speedup must be ≥ 0"));
    }
    args.finish()?;

    let progress = Progress::new(&[json_sink.as_ref()]);
    if screen {
        if baseline_path.is_some() || history_path.is_some() {
            return Err(CliError::usage(
                USAGE,
                "--screen is an exclusive mode; drop --baseline/--history",
            ));
        }
        return screen_bench_run(
            duration_ms,
            repeat,
            min_speedup,
            json_sink.as_ref(),
            pretty,
            &progress,
        );
    }
    let measurements = measure(duration_ms, repeat, &progress)?;
    let doc = to_value(duration_ms, &measurements);

    if let Some(sink) = &json_sink {
        sink.write(&emit_value(&doc, pretty))?;
        if !sink.is_stdout() {
            progress.line(format!("wrote {}", sink.describe()));
        }
    }

    if let Some(path) = &history_path {
        let records = append_history(path, duration_ms, &measurements)?;
        progress.line(format!(
            "appended to history {path} ({records} record{})",
            if records == 1 { "" } else { "s" }
        ));
    }

    if let Some(path) = &baseline_path {
        if std::env::var_os("SARA_UPDATE_BASELINE").is_some() {
            Sink::File(path.into()).write(&emit_value(&doc, true))?;
            progress.line(format!("wrote baseline {path}"));
        } else {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
            let baseline =
                json::parse(&text).map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
            for line in compare_baseline(&doc, &baseline, tolerance)? {
                progress.line(line);
            }
            progress.line(format!(
                "baseline check passed ({} scenarios' relative profiles within \
                 {tolerance}x of {path})",
                measurements.len()
            ));
        }
    }
    Ok(())
}

/// The downclocked frequency ladder `--screen` sweeps: every rung sits
/// below both overload scenarios' provable-feasibility boundary (rated
/// demand exceeds the analytic bound by more than the screener's
/// margin), so pruning answers every cell and the benchmark measures the
/// closed-form fast path head-to-head against cycle-accurate simulation
/// — the deep-downclock regime the screening tier exists for.
const SCREEN_BENCH_FREQS: [u32; 3] = [266, 333, 400];

/// Times the overload catalog scenarios' full policy matrices across
/// [`SCREEN_BENCH_FREQS`] with screening off vs prune (one worker thread,
/// best-of `repeat`), failing if any prune-mode speedup lands under
/// `min_speedup`. The cell count is identical in both modes — pruned
/// cells are still emitted, as synthetic screened cells — so cells/sec is
/// directly comparable.
fn screen_bench_run(
    duration_ms: f64,
    repeat: usize,
    min_speedup: f64,
    json_sink: Option<&Sink>,
    pretty: bool,
    progress: &Progress,
) -> Result<(), CliError> {
    let scenarios: Vec<_> = ["saturation", "adas-overload"]
        .iter()
        .map(|name| {
            catalog::by_name(name)
                .ok_or_else(|| CliError::Failure(format!("catalog scenario \"{name}\" is missing")))
        })
        .collect::<Result<_, _>>()?;
    let spec = |screen: ScreenMode| MatrixSpec {
        policies: PolicyKind::ALL.to_vec(),
        freqs_mhz: SCREEN_BENCH_FREQS.to_vec(),
        channels: Vec::new(),
        duration_ms: Some(duration_ms),
        threads: 1,
        screen,
    };
    progress.line(format!(
        "screening benchmark: saturation + adas-overload x {} policies x {:?} MHz, \
         {duration_ms} ms per cell, best of {repeat}, serial",
        PolicyKind::ALL.len(),
        SCREEN_BENCH_FREQS
    ));
    let mut failures = Vec::new();
    let mut rows = Vec::new();
    for s in &scenarios {
        let one = [s.clone()];
        let time = |mode: ScreenMode| -> Result<(f64, usize, usize), CliError> {
            let mut best = f64::INFINITY;
            let mut cells = 0;
            let mut screened = 0;
            for _ in 0..repeat {
                let start = Instant::now();
                let summary = run_matrix(&one, &spec(mode))
                    .map_err(|e| CliError::Failure(e.message().to_string()))?;
                best = best.min(start.elapsed().as_secs_f64());
                cells = summary.cells.len();
                screened = summary
                    .cells
                    .iter()
                    .filter(|c| c.screened().is_some())
                    .count();
            }
            Ok((best, cells, screened))
        };
        let (off_s, cells, _) = time(ScreenMode::Off)?;
        let (prune_s, prune_cells, screened) = time(ScreenMode::Prune)?;
        debug_assert_eq!(cells, prune_cells);
        let off_cps = cells as f64 / off_s;
        let prune_cps = cells as f64 / prune_s;
        let speedup = off_s / prune_s;
        progress.line(format!(
            "{:<18} {cells} cells ({screened} pruned): off {off_cps:.2} cells/sec, \
             prune {prune_cps:.2} cells/sec -> {speedup:.2}x",
            s.name
        ));
        if speedup < min_speedup {
            failures.push(format!(
                "{}: {speedup:.2}x is below the --min-speedup floor of {min_speedup}x",
                s.name
            ));
        }
        rows.push(Value::Object(vec![
            ("name".to_string(), s.name.as_str().into()),
            ("cells".to_string(), cells.into()),
            ("screened".to_string(), screened.into()),
            ("off_s".to_string(), off_s.into()),
            ("prune_s".to_string(), prune_s.into()),
            ("off_cells_per_sec".to_string(), off_cps.into()),
            ("prune_cells_per_sec".to_string(), prune_cps.into()),
            ("speedup".to_string(), speedup.into()),
        ]));
    }
    if let Some(sink) = json_sink {
        let doc = Value::Object(vec![
            ("format".to_string(), SCREEN_FORMAT_TAG.into()),
            ("duration_ms".to_string(), duration_ms.into()),
            (
                "freqs_mhz".to_string(),
                Value::Array(SCREEN_BENCH_FREQS.iter().map(|&f| f.into()).collect()),
            ),
            ("min_speedup".to_string(), min_speedup.into()),
            ("scenarios".to_string(), Value::Array(rows)),
        ]);
        sink.write(&emit_value(&doc, pretty))?;
        if !sink.is_stdout() {
            progress.line(format!("wrote {}", sink.describe()));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(CliError::Failure(format!(
            "screening speedup too low on {} scenario{}:\n  {}",
            failures.len(),
            if failures.len() == 1 { "" } else { "s" },
            failures.join("\n  ")
        )))
    }
}

/// Times every catalog scenario's policy matrix, serially, best-of
/// `repeat`.
fn measure(
    duration_ms: f64,
    repeat: usize,
    progress: &Progress,
) -> Result<Vec<Measurement>, CliError> {
    let scenarios = catalog::builtin();
    if scenarios.is_empty() {
        // Unreachable with the built-in catalog, but the geometric means
        // downstream are meaningless on an empty set — fail loudly rather
        // than emit NaN documents.
        return Err(CliError::Failure(
            "the scenario catalog is empty; nothing to measure".to_string(),
        ));
    }
    let spec = MatrixSpec {
        policies: PolicyKind::ALL.to_vec(),
        freqs_mhz: Vec::new(),
        channels: Vec::new(),
        duration_ms: Some(duration_ms),
        threads: 1,
        screen: ScreenMode::Off,
    };
    progress.line(format!(
        "{} scenarios x {} policies, {duration_ms} ms per cell, best of {repeat}, serial",
        scenarios.len(),
        spec.policies.len()
    ));
    let mut out = Vec::new();
    for scenario in scenarios {
        let cells = spec.policies.len();
        let scenarios = [scenario];
        let mut best = f64::INFINITY;
        for _ in 0..repeat {
            let start = Instant::now();
            run_matrix(&scenarios, &spec)
                .map_err(|e| CliError::Failure(e.message().to_string()))?;
            best = best.min(start.elapsed().as_secs_f64());
        }
        let cells_per_sec = cells as f64 / best;
        progress.line(format!(
            "{:<18} {:>8.2} cells/sec  ({cells} cells in {:.3}s)",
            scenarios[0].name, cells_per_sec, best
        ));
        out.push(Measurement {
            name: scenarios[0].name.clone(),
            cells,
            cells_per_sec,
        });
    }
    Ok(out)
}

/// Builds the measurement document (the same shape baselines are stored
/// in).
fn to_value(duration_ms: f64, measurements: &[Measurement]) -> Value {
    Value::Object(vec![
        ("format".to_string(), FORMAT_TAG.into()),
        ("duration_ms".to_string(), duration_ms.into()),
        (
            "policies".to_string(),
            Value::Array(PolicyKind::ALL.iter().map(|p| p.name().into()).collect()),
        ),
        (
            "scenarios".to_string(),
            Value::Array(
                measurements
                    .iter()
                    .map(|m| {
                        Value::Object(vec![
                            ("name".to_string(), m.name.as_str().into()),
                            ("cells".to_string(), m.cells.into()),
                            ("cells_per_sec".to_string(), m.cells_per_sec.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Appends one timestamped record to the perf-timeline history at
/// `path` (created with an empty record list on first use), returning
/// the new record count. The document is rewritten pretty-printed so it
/// diffs cleanly under version control.
fn append_history(
    path: &str,
    duration_ms: f64,
    measurements: &[Measurement],
) -> Result<usize, CliError> {
    let fail = |e: String| CliError::Failure(format!("{path}: {e}"));
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text).map_err(|e| fail(e.to_string()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Value::Object(vec![
            ("format".to_string(), HISTORY_FORMAT_TAG.into()),
            ("records".to_string(), Value::Array(Vec::new())),
        ]),
        Err(e) => return Err(fail(e.to_string())),
    };
    match doc.get("format").and_then(Value::as_str) {
        Some(HISTORY_FORMAT_TAG) => {}
        other => {
            return Err(fail(format!(
                "format tag {other:?} (expected \"{HISTORY_FORMAT_TAG}\"; \
                 --history will not overwrite an unrelated file)"
            )))
        }
    }
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let record = Value::Object(vec![
        ("unix_ms".to_string(), unix_ms.into()),
        ("duration_ms".to_string(), duration_ms.into()),
        ("geo_mean".to_string(), geo_mean(measurements).into()),
        (
            "scenarios".to_string(),
            Value::Array(
                measurements
                    .iter()
                    .map(|m| {
                        Value::Object(vec![
                            ("name".to_string(), m.name.as_str().into()),
                            ("cells_per_sec".to_string(), m.cells_per_sec.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let Value::Object(members) = &mut doc else {
        return Err(fail("history document is not an object".to_string()));
    };
    let records = members
        .iter_mut()
        .find(|(k, _)| k == "records")
        .ok_or_else(|| fail("missing \"records\" array".to_string()))?;
    let Value::Array(list) = &mut records.1 else {
        return Err(fail("\"records\" is not an array".to_string()));
    };
    list.push(record);
    let count = list.len();
    Sink::File(path.into()).write(&emit_value(&doc, true))?;
    Ok(count)
}

/// Reads the scenario list out of a measurement/baseline document.
fn scenarios_of(doc: &Value, what: &str) -> Result<Vec<Measurement>, CliError> {
    let bad = |msg: String| CliError::Failure(format!("{what}: {msg}"));
    match doc.get("format").and_then(Value::as_str) {
        Some(FORMAT_TAG) => {}
        other => {
            return Err(bad(format!(
                "format tag {other:?} (expected \"{FORMAT_TAG}\")"
            )))
        }
    }
    let scenarios = doc
        .get("scenarios")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("missing \"scenarios\" array".to_string()))?;
    if scenarios.is_empty() {
        // An empty list would make the geometric-mean normalisation
        // downstream divide 0 by 0 and "pass" every comparison on NaN.
        return Err(bad("\"scenarios\" array is empty".to_string()));
    }
    scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let field = |key: &str| {
                s.get(key)
                    .ok_or_else(|| bad(format!("scenarios[{i}] missing \"{key}\"")))
            };
            Ok(Measurement {
                name: field("name")?
                    .as_str()
                    .ok_or_else(|| bad(format!("scenarios[{i}].name not a string")))?
                    .to_string(),
                cells: field("cells")?
                    .as_u64()
                    .ok_or_else(|| bad(format!("scenarios[{i}].cells not an integer")))?
                    as usize,
                cells_per_sec: field("cells_per_sec")?
                    .as_f64()
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .ok_or_else(|| {
                        bad(format!(
                            "scenarios[{i}].cells_per_sec not a positive number"
                        ))
                    })?,
            })
        })
        .collect()
}

/// Geometric mean of the scenarios' throughputs — the run-local yardstick
/// relative gating normalises by. Positive by construction
/// ([`scenarios_of`] rejects non-positive numbers and empty lists; an
/// empty list here would otherwise yield `exp(0/0) = NaN`, which every
/// `<` comparison silently passes).
fn geo_mean(list: &[Measurement]) -> f64 {
    assert!(!list.is_empty(), "geometric mean of an empty list");
    let n = list.len() as f64;
    (list.iter().map(|m| m.cells_per_sec.ln()).sum::<f64>() / n).exp()
}

/// Compares a fresh measurement against a stored baseline *relatively*:
/// every baseline scenario must still exist with the same cell count, and
/// its throughput normalised by the run's own geometric mean must stay
/// within `tolerance ×` of the baseline's normalised value. Uniform
/// machine-speed differences cancel; per-scenario regressions do not.
/// Returns the per-scenario report lines.
fn compare_baseline(
    measured: &Value,
    baseline: &Value,
    tolerance: f64,
) -> Result<Vec<String>, CliError> {
    const REGEN: &str =
        "regenerate with SARA_UPDATE_BASELINE=1 sara bench --baseline <path> after an \
         intentional catalog or harness change";
    let (m_ms, b_ms) = (
        measured.get("duration_ms").and_then(Value::as_f64),
        baseline.get("duration_ms").and_then(Value::as_f64),
    );
    if m_ms != b_ms {
        return Err(CliError::Failure(format!(
            "baseline was recorded at duration_ms {b_ms:?} but this run used {m_ms:?} — \
             cells/sec are not comparable; match --duration-ms or {REGEN}"
        )));
    }
    let measured = scenarios_of(measured, "measurement")?;
    let baseline = scenarios_of(baseline, "baseline")?;
    let names = |list: &[Measurement]| {
        list.iter()
            .map(|m| m.name.clone())
            .collect::<Vec<_>>()
            .join(", ")
    };
    if measured.len() != baseline.len()
        || measured
            .iter()
            .zip(&baseline)
            .any(|(m, b)| m.name != b.name || m.cells != b.cells)
    {
        return Err(CliError::Failure(format!(
            "baseline shape does not match this catalog (baseline: {}; measured: {}) — {REGEN}",
            names(&baseline),
            names(&measured)
        )));
    }
    let (m_mean, b_mean) = (geo_mean(&measured), geo_mean(&baseline));
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for (m, b) in measured.iter().zip(&baseline) {
        let m_rel = m.cells_per_sec / m_mean;
        let b_rel = b.cells_per_sec / b_mean;
        let floor = b_rel / tolerance;
        if m_rel < floor {
            regressions.push(format!(
                "{}: {:.3}x of this run's mean, below the {tolerance}x floor of {:.3}x \
                 (baseline profile {:.3}x; measured {:.2} cells/sec)",
                m.name, m_rel, floor, b_rel, m.cells_per_sec
            ));
        } else {
            lines.push(format!(
                "ok {:<18} {:>6.3}x of run mean (baseline {:.3}x, floor {:.3}x, \
                 {:.2} cells/sec)",
                m.name, m_rel, b_rel, floor, m.cells_per_sec
            ));
        }
    }
    if regressions.is_empty() {
        Ok(lines)
    } else {
        Err(CliError::Failure(format!(
            "throughput regression in {} scenario{}:\n  {}\n{REGEN}",
            regressions.len(),
            if regressions.len() == 1 { "" } else { "s" },
            regressions.join("\n  ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(entries: &[(&str, usize, f64)]) -> Value {
        to_value(
            0.2,
            &entries
                .iter()
                .map(|&(name, cells, cps)| Measurement {
                    name: name.to_string(),
                    cells,
                    cells_per_sec: cps,
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn document_round_trips_through_the_parser() {
        let d = doc(&[("adas", 6, 120.0), ("saturation", 6, 80.5)]);
        let text = emit_value(&d, true);
        let back = scenarios_of(&json::parse(text.trim()).unwrap(), "t").unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "adas");
        assert_eq!(back[1].cells_per_sec, 80.5);
    }

    #[test]
    fn within_tolerance_passes_and_reports_every_scenario() {
        let base = doc(&[("a", 6, 100.0), ("b", 6, 50.0)]);
        let measured = doc(&[("a", 6, 90.0), ("b", 6, 55.0)]);
        let lines = compare_baseline(&measured, &base, 2.5).unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("ok a"));
        assert!(lines[1].starts_with("ok b"));
    }

    #[test]
    fn uniform_machine_slowdown_never_trips_the_relative_gate() {
        // A CI runner 10x slower than the laptop that recorded the
        // baseline keeps every scenario's *relative* profile intact — the
        // exact case the old absolute gate kept false-failing on.
        let base = doc(&[("a", 6, 100.0), ("b", 6, 50.0), ("c", 6, 25.0)]);
        let slowed = doc(&[("a", 6, 10.0), ("b", 6, 5.0), ("c", 6, 2.5)]);
        assert!(compare_baseline(&slowed, &base, 1.01).is_ok());
    }

    #[test]
    fn regression_fails_with_the_offender_named() {
        // `a` collapses by 10x while `b` holds: relative to the run mean,
        // `a` drops well below the 2.5x floor.
        let base = doc(&[("a", 6, 100.0), ("b", 6, 100.0)]);
        let measured = doc(&[("a", 6, 10.0), ("b", 6, 100.0)]);
        let err = compare_baseline(&measured, &base, 2.5).unwrap_err();
        let CliError::Failure(msg) = err else {
            panic!("expected failure")
        };
        assert!(msg.contains("a: "), "{msg}");
        assert!(msg.contains("SARA_UPDATE_BASELINE"), "{msg}");
        assert!(!msg.contains("b: "), "{msg}");
    }

    #[test]
    fn faster_than_baseline_is_fine() {
        let base = doc(&[("a", 6, 100.0), ("b", 6, 100.0)]);
        let measured = doc(&[("a", 6, 1000.0), ("b", 6, 1000.0)]);
        assert!(compare_baseline(&measured, &base, 2.5).is_ok());
    }

    #[test]
    fn catalog_shape_mismatch_demands_a_regen() {
        let base = doc(&[("a", 6, 100.0)]);
        let renamed = doc(&[("z", 6, 100.0)]);
        let err = compare_baseline(&renamed, &base, 2.5).unwrap_err();
        assert!(matches!(&err, CliError::Failure(m) if m.contains("shape")));
        let fewer_cells = doc(&[("a", 5, 100.0)]);
        assert!(compare_baseline(&fewer_cells, &base, 2.5).is_err());
    }

    #[test]
    fn duration_mismatch_is_not_comparable() {
        let base = doc(&[("a", 6, 100.0)]);
        let mut other = doc(&[("a", 6, 100.0)]);
        if let Value::Object(members) = &mut other {
            members[1].1 = 0.5f64.into();
        }
        let err = compare_baseline(&other, &base, 2.5).unwrap_err();
        assert!(matches!(&err, CliError::Failure(m) if m.contains("duration_ms")));
    }

    #[test]
    fn history_creates_then_appends_and_refuses_unrelated_files() {
        let dir = std::env::temp_dir().join(format!("sara-bench-history-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.json");
        let path = path.to_str().unwrap();
        let measurements = [
            Measurement {
                name: "adas".to_string(),
                cells: 6,
                cells_per_sec: 120.0,
            },
            Measurement {
                name: "saturation".to_string(),
                cells: 6,
                cells_per_sec: 80.0,
            },
        ];
        assert_eq!(append_history(path, 0.2, &measurements).unwrap(), 1);
        assert_eq!(append_history(path, 0.2, &measurements).unwrap(), 2);
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.get("format").and_then(Value::as_str),
            Some(HISTORY_FORMAT_TAG)
        );
        let records = doc.get("records").and_then(Value::as_array).unwrap();
        assert_eq!(records.len(), 2);
        for r in records {
            assert_eq!(
                r.get("scenarios").and_then(Value::as_array).map(<[_]>::len),
                Some(2)
            );
            let gm = r.get("geo_mean").and_then(Value::as_f64).unwrap();
            assert!((gm - (120.0f64 * 80.0).sqrt()).abs() < 1e-6);
        }
        // A file that is not a history document is never overwritten.
        let other = dir.join("other.json");
        std::fs::write(&other, "{\"format\":\"something-else\"}").unwrap();
        let err = append_history(other.to_str().unwrap(), 0.2, &measurements).unwrap_err();
        assert!(matches!(&err, CliError::Failure(m) if m.contains("format tag")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_scenario_lists_are_rejected_not_nan() {
        // Regression: geo_mean on an empty list is exp(0/0) = NaN, and a
        // NaN-normalised profile passes every tolerance check. The parser
        // must refuse empty documents before the math runs.
        let empty = doc(&[]);
        let err = scenarios_of(&empty, "baseline").unwrap_err();
        assert!(matches!(&err, CliError::Failure(m) if m.contains("empty")));
        let measured = doc(&[("a", 6, 100.0)]);
        assert!(compare_baseline(&measured, &empty, 2.5).is_err());
        assert!(compare_baseline(&empty, &measured, 2.5).is_err());
    }

    #[test]
    fn wrong_format_tag_is_rejected() {
        let mut d = doc(&[("a", 6, 100.0)]);
        if let Value::Object(members) = &mut d {
            members[0].1 = "sara-bench/v0".into();
        }
        let err = scenarios_of(&d, "baseline").unwrap_err();
        assert!(matches!(&err, CliError::Failure(m) if m.contains("format tag")));
    }
}
