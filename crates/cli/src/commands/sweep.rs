//! `sara sweep` — the offline DVFS search over scenarios.

use json::Value;
use sara_scenarios::{csv_field, dvfs_search, SearchOutcome};
use sara_sim::experiment::DvfsPoint;
use sara_types::ConfigError;

use crate::args::{ascending_mhz, positive, Args, CliError};
use crate::commands::{load_scenarios, take_scenario_names};
use crate::output::{Progress, Sink};

pub(crate) const USAGE: &str = "usage: sara sweep [--dir DIR | --scenarios NAMES] [--freqs MHZ] \
                                [--screen] [--duration-ms MS] [--csv PATH|-] [--json PATH|-]";

pub(crate) const HELP: &str = "\
sara sweep — offline DVFS search

usage: sara sweep [options]

Per scenario, simulates every candidate DRAM frequency and reports the
lowest one at which every core meets its target.

scenario selection (default: the whole built-in catalog):
  --dir DIR          search every *.scenario.json in DIR instead
  --scenarios NAMES  comma-separated catalog names (e.g. adas,ar-headset)

search:
  --freqs MHZ        candidate frequencies (default: 1333,1600,1700,1866)
  --screen           drop provably-infeasible candidate frequencies
                     (closed-form analytic bound under the rated demand by
                     a safe margin) before simulating; sound because an
                     infeasible candidate can never be the lowest passing
                     frequency
  --duration-ms MS   run length per candidate; default: each scenario's
                     nominal duration

output:
  --csv PATH|-       write the search as CSV (plot input)
  --json PATH|-      write the search as JSON (machine-comparable)

Frequency lists must be strictly ascending (duplicates rejected).
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
    let freqs = args.take_one("--freqs", ascending_mhz)?;
    let screen = args.take_flag("--screen");
    let duration_ms = args.take_one("--duration-ms", positive)?;
    let csv_sink = args.take_opt("--csv")?.map(|raw| Sink::parse(&raw));
    let json_sink = args.take_opt("--json")?.map(|raw| Sink::parse(&raw));
    let progress = Progress::for_outputs(&[("--json", &json_sink), ("--csv", &csv_sink)], USAGE)?;
    args.finish()?;

    let freqs = freqs.unwrap_or_else(|| vec![1333, 1600, 1700, 1866]);
    let scenarios = load_scenarios(dir.as_deref(), &names, USAGE)?;
    let mut outcomes = Vec::with_capacity(scenarios.len());
    for s in &scenarios {
        let fail = |e: ConfigError| CliError::Failure(format!("{}: {}", s.name, e.message()));
        let outcome = dvfs_search(s, &freqs, duration_ms, screen).map_err(fail)?;
        for (mhz, reason) in &outcome.screened_out {
            progress.line(format!("{}: screened out {mhz} MHz ({reason})", s.name));
        }
        if outcome.points.is_empty() {
            progress.line(format!(
                "{}: every candidate frequency is provably infeasible",
                s.name
            ));
        }
        progress.line(format!("{}:", s.name));
        print_dvfs_table(&progress, &outcome.points);
        match outcome.chosen_mhz() {
            Some(mhz) => progress.line(format!(
                "  -> lowest candidate meeting every target: {mhz} MHz\n"
            )),
            None => progress.line("  -> no candidate meets every target\n"),
        }
        outcomes.push(outcome);
    }

    if let Some(sink) = &csv_sink {
        sink.deliver(progress, |w| w.write_all(search_csv(&outcomes).as_bytes()))?;
    }
    if let Some(sink) = &json_sink {
        sink.deliver(progress, |w| w.write_all(search_json(&outcomes).as_bytes()))?;
    }
    Ok(())
}

/// The per-candidate table of one scenario's search.
fn print_dvfs_table(progress: &Progress, points: &[DvfsPoint]) {
    progress.line(format!(
        "{:<10} {:>8} {:>11} {:>10} {:>9}",
        "freq", "all_met", "energy_mJ", "pJ/bit", "GB/s"
    ));
    for p in points {
        progress.line(format!(
            "{:<10} {:>8} {:>11.3} {:>10.3} {:>9.2}",
            p.freq.to_string(),
            p.all_met,
            p.energy_mj,
            p.pj_per_bit,
            p.bandwidth_gbs
        ));
    }
}

/// The searches as CSV: [`DvfsPoint`]'s columns between the quoted
/// scenario name and a `chosen` marker per row.
fn search_csv(outcomes: &[SearchOutcome]) -> String {
    let mut out = format!("scenario,{},chosen\n", DvfsPoint::CSV_HEADER);
    for o in outcomes {
        let scenario = csv_field(&o.scenario);
        for (i, p) in o.points.iter().enumerate() {
            let chosen = o.chosen == Some(i);
            out.push_str(&format!("{scenario},{},{chosen}\n", p.csv_row()));
        }
    }
    out
}

/// The searches as a JSON array (one object per scenario, its points as
/// [`DvfsPoint`] objects).
fn search_json(outcomes: &[SearchOutcome]) -> String {
    let doc = Value::Array(
        outcomes
            .iter()
            .map(|o| {
                Value::Object(vec![
                    ("scenario".to_string(), o.scenario.as_str().into()),
                    (
                        "chosen_mhz".to_string(),
                        match o.chosen_mhz() {
                            Some(mhz) => mhz.into(),
                            None => Value::Null,
                        },
                    ),
                    (
                        "points".to_string(),
                        Value::Array(o.points.iter().map(DvfsPoint::to_json_value).collect()),
                    ),
                ])
            })
            .collect(),
    );
    format!("{}\n", doc.to_string_compact())
}
