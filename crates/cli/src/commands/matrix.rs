//! `sara matrix` — the scenario × policy × frequency batch harness.

use sara_scenarios::{run_matrix, MatrixSpec, ScreenMode};

use crate::args::{channels, count, flag_word, mhz, policies, positive, Args, CliError};
use crate::commands::{load_scenarios, scenario_row, take_scenario_names};
use crate::output::{emit_value, Progress, Sink};

pub(crate) const USAGE: &str =
    "usage: sara matrix [--dir DIR | --scenarios NAMES] [--policies NAMES] \
     [--freqs MHZ] [--channels COUNTS] [--duration-ms MS] [--jobs N] \
     [--screen off|prune|verify] [--json PATH|-] [--csv PATH|-] \
     [--chrome-trace PATH|-] [--pretty]";

pub(crate) const HELP: &str = "\
sara matrix — run scenarios x policies x frequencies, ranked

usage: sara matrix [options]

scenario selection (default: the whole built-in catalog):
  --dir DIR          run every *.scenario.json in DIR instead
  --scenarios NAMES  comma-separated catalog names (e.g. adas,ar-headset)

matrix shape:
  --policies NAMES   comma-separated policies (FCFS, RR, FrameQoS, QoS,
                     QoS-RB, FR-FCFS) or `all`; default all six
  --freqs MHZ        comma-separated DRAM frequency overrides; default:
                     each scenario's own frequency
  --channels COUNTS  comma-separated DRAM channel-count overrides (powers
                     of two in 1..=256); default: each scenario's own
                     channel count
  --duration-ms MS   run length per cell; default: each scenario's
                     nominal duration
  --jobs N           worker threads (default: all hardware threads; the
                     aggregate is byte-identical for any value)
  --screen MODE      analytic pre-screening: `off` (default) simulates
                     every cell; `prune` skips provably-decided cells and
                     emits them as synthetic `screened` cells carrying the
                     closed-form bound (unpruned cells are byte-identical
                     to `off`); `verify` simulates everything anyway and
                     hard-errors if the engine ever contradicts a verdict
                     or exceeds a bound

output:
  --json PATH|-      write the full summary (cells + rankings) as JSON
  --csv PATH|-       write one CSV row per cell with its scenario-local rank
  --chrome-trace PATH|-
                     write a Chrome trace-event profile of the harness
                     itself: per-cell setup/sim/report wall-clock phase
                     spans, one track per worker thread
  --pretty           pretty-print the JSON output

`-` sends machine output to stdout and demotes progress text to stderr.";

/// Runs the subcommand.
///
/// # Errors
///
/// Usage error for bad flags or selections; runtime failure for load,
/// simulation, or output I/O errors.
pub(crate) fn run(mut args: Args) -> Result<(), CliError> {
    let dir = args.take_opt("--dir")?;
    let names = take_scenario_names(&mut args, USAGE)?;
    let policies = args
        .take_one("--policies", policies)?
        .unwrap_or_else(|| sara_memctrl::PolicyKind::ALL.to_vec());
    let freqs_mhz = args.take_list("--freqs", mhz)?.unwrap_or_default();
    let channels = args.take_list("--channels", channels)?.unwrap_or_default();
    let duration_ms = args.take_one("--duration-ms", positive)?;
    let jobs = args.take_one("--jobs", count)?;
    let screen = args
        .take_one("--screen", |name, raw| {
            flag_word(name, ScreenMode::parse(raw))
        })?
        .unwrap_or_default();
    let json_sink = args.take_opt("--json")?.map(|raw| Sink::parse(&raw));
    let csv_sink = args.take_opt("--csv")?.map(|raw| Sink::parse(&raw));
    let chrome_sink = args
        .take_opt("--chrome-trace")?
        .map(|raw| Sink::parse(&raw));
    let progress = Progress::for_outputs(
        &[
            ("--json", &json_sink),
            ("--csv", &csv_sink),
            ("--chrome-trace", &chrome_sink),
        ],
        USAGE,
    )?;
    let pretty = args.take_flag("--pretty");
    args.finish()?;

    let scenarios = load_scenarios(dir.as_deref(), &names, USAGE)?;
    let spec = MatrixSpec {
        policies,
        freqs_mhz,
        channels,
        duration_ms,
        threads: jobs.unwrap_or_else(|| MatrixSpec::default().threads),
        screen,
    };

    for s in &scenarios {
        progress.line(scenario_row(s));
    }
    let freqs_per_scenario = spec.freqs_mhz.len().max(1);
    let channels_per_scenario = spec.channels.len().max(1);
    progress.line(format!(
        "\nrunning {} cells ({} scenarios x {} policies x {} frequencies x {} channel \
         counts) on {} threads...\n",
        scenarios.len() * spec.policies.len() * freqs_per_scenario * channels_per_scenario,
        scenarios.len(),
        spec.policies.len(),
        freqs_per_scenario,
        channels_per_scenario,
        spec.threads.max(1)
    ));

    let summary =
        run_matrix(&scenarios, &spec).map_err(|e| CliError::Failure(e.message().to_string()))?;
    progress.line(summary.summary_table());

    if let Some(sink) = &json_sink {
        sink.deliver(progress, |w| summary.write_json(w, pretty))?;
    }
    if let Some(sink) = &csv_sink {
        sink.deliver(progress, |w| w.write_all(summary.to_csv().as_bytes()))?;
    }
    if let Some(sink) = &chrome_sink {
        let doc = emit_value(&summary.chrome_trace_value(), pretty);
        sink.deliver(progress, |w| w.write_all(doc.as_bytes()))?;
    }
    Ok(())
}
