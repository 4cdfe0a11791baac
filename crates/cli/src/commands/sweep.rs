//! `sara sweep` — DRAM frequency and DVFS-governor sweeps.

use json::Value;
use sara_memctrl::PolicyKind::Priority;
use sara_scenarios::{
    catalog, csv_field, dvfs_search, run_systems, MatrixSpec, Scenario, SearchOutcome,
};
use sara_sim::experiment::{DvfsPoint, FreqPoint};
use sara_sim::{SystemConfig, MAX_LEVELS};
use sara_types::{ConfigError, CoreKind, MegaHertz};
use sara_workloads::TestCase;

use crate::args::{ascending_mhz, flag_word, positive, Args, CliError};
use crate::commands::{load_scenarios, take_scenario_names};
use crate::output::{Progress, Sink};

pub(crate) const USAGE: &str = "usage: sara sweep [--dvfs] [--core NAME] [--case A|B] \
                                [--dir DIR | --scenarios NAMES] [--freqs MHZ] [--screen] \
                                [--duration-ms MS] [--csv PATH|-] [--json PATH|-]";

pub(crate) const HELP: &str = "\
sara sweep — DRAM frequency / DVFS sweeps

usage: sara sweep [options]

default mode (priority-adaptation sweep, the paper's Fig. 7):
  --core NAME        observed core, Table 2 spelling (default: Image Proc.)
  --freqs MHZ        frequencies to sweep (default: 1300,1500,1700)

--dvfs mode (offline governor search: the lowest candidate frequency at
which every core meets its target):
  --case A|B         camcorder test case (default: B when no scenarios
                     are selected)
  --scenarios NAMES  comma-separated catalog names to search instead
  --dir DIR          search every *.scenario.json in DIR instead
  --freqs MHZ        candidate frequencies (default: 1333,1600,1700,1866)
  --screen           drop provably-infeasible candidate frequencies
                     (closed-form analytic bound under the rated demand by
                     a safe margin) before simulating; sound because an
                     infeasible candidate can never be the lowest passing
                     frequency (scenario searches only)

common:
  --duration-ms MS   run length per point (default: 6; scenario searches
                     default to each scenario's nominal duration)
  --csv PATH|-       write the sweep as CSV (plot input)
  --json PATH|-      write the sweep as JSON (machine-comparable)

Frequency lists must be strictly ascending (duplicates rejected).
`-` sends machine output to stdout and demotes progress text to stderr.";

/// Runs the subcommand.
///
/// # Errors
///
/// Usage error for bad flags; runtime failure for simulation or output
/// I/O errors.
pub(crate) fn run(mut args: Args) -> Result<(), CliError> {
    let dvfs = args.take_flag("--dvfs");
    let core = args.take_one("--core", |name, raw| flag_word(name, CoreKind::parse(raw)))?;
    let case = args.take_opt("--case")?;
    let dir = args.take_opt("--dir")?;
    let names = take_scenario_names(&mut args, USAGE)?;
    let freqs = args.take_one("--freqs", ascending_mhz)?;
    let screen = args.take_flag("--screen");
    let duration_flag = args.take_one("--duration-ms", positive)?;
    let duration_ms = duration_flag.unwrap_or(6.0);
    let csv_sink = args.take_opt("--csv")?.map(|raw| Sink::parse(&raw));
    let json_sink = args.take_opt("--json")?.map(|raw| Sink::parse(&raw));
    let progress = Progress::for_outputs(&[("--json", &json_sink), ("--csv", &csv_sink)], USAGE)?;
    args.finish()?;

    let scenario_mode = dir.is_some() || !names.is_empty();
    if scenario_mode && !dvfs {
        return Err(CliError::usage(
            USAGE,
            "--dir/--scenarios only apply with --dvfs (the Fig. 7 sweep is camcorder-only)",
        ));
    }
    if screen && !scenario_mode {
        return Err(CliError::usage(
            USAGE,
            "--screen only applies to --dvfs scenario searches (--dir/--scenarios)",
        ));
    }

    let (csv, json) = if dvfs {
        if core.is_some() {
            return Err(CliError::usage(USAGE, "--core only applies without --dvfs"));
        }
        let freqs = freqs.unwrap_or_else(|| vec![1333, 1600, 1700, 1866]);
        if scenario_mode {
            if case.is_some() {
                return Err(CliError::usage(
                    USAGE,
                    "--case and --dir/--scenarios are mutually exclusive",
                ));
            }
            let scenarios = load_scenarios(dir.as_deref(), &names, USAGE)?;
            let mut outcomes = Vec::with_capacity(scenarios.len());
            for s in &scenarios {
                let fail =
                    |e: ConfigError| CliError::Failure(format!("{}: {}", s.name, e.message()));
                let outcome = dvfs_search(s, &freqs, duration_flag, screen).map_err(fail)?;
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
            (search_csv(&outcomes), search_json(&outcomes))
        } else {
            let case = parse_case(case.as_deref().unwrap_or("B"))?;
            let SearchOutcome { points, chosen, .. } =
                dvfs_search(&case, &freqs, Some(duration_ms), false)
                    .map_err(|e| CliError::Failure(e.message().to_string()))?;
            print_dvfs_table(&progress, &points);
            match chosen {
                Some(i) => progress.line(format!(
                    "\ngovernor picks {} — the lowest candidate meeting every target",
                    points[i].freq
                )),
                None => progress.line("\nno candidate frequency meets every target"),
            }
            (
                csv_doc(DvfsPoint::CSV_HEADER, &points, DvfsPoint::csv_row),
                json_doc(&points, DvfsPoint::to_json_value),
            )
        }
    } else {
        if case.is_some() {
            return Err(CliError::usage(USAGE, "--case only applies with --dvfs"));
        }
        let observed = core.unwrap_or(CoreKind::ImageProcessor);
        let freqs = freqs.unwrap_or_else(|| vec![1300, 1500, 1700]);
        let fail = |e: ConfigError| CliError::Failure(e.message().to_string());
        let systems = fig7_systems(&freqs).map_err(fail)?;
        let runs: Vec<_> = systems.into_iter().map(|s| (s, duration_ms)).collect();
        let points: Vec<FreqPoint> = run_systems(&runs, MatrixSpec::default().threads)
            .map_err(fail)?
            .iter()
            .map(|(report, _)| FreqPoint::from_report(report, observed))
            .collect::<Option<_>>()
            .ok_or_else(|| CliError::Failure(format!("core {observed} not in workload")))?;
        progress.line(format!(
            "{} priority residency vs DRAM frequency",
            observed.name()
        ));
        progress.line(residency_table(&points));
        (
            csv_doc(&FreqPoint::csv_header(), &points, FreqPoint::csv_row),
            json_doc(&points, FreqPoint::to_json_value),
        )
    };

    if let Some(sink) = &csv_sink {
        sink.deliver(progress, |w| w.write_all(csv.as_bytes()))?;
    }
    if let Some(sink) = &json_sink {
        sink.deliver(progress, |w| w.write_all(json.as_bytes()))?;
    }
    Ok(())
}

/// The systems of the Fig. 7 sweep: case A under Policy 1 at each
/// frequency — what `sara sweep` and `sara repro fig7` simulate.
pub(crate) fn fig7_systems(freqs: &[u32]) -> Result<Vec<SystemConfig>, ConfigError> {
    let at = |&mhz: &u32| SystemConfig::custom(MegaHertz::new(mhz), Priority, TestCase::A.cores());
    freqs.iter().map(at).collect()
}

/// A CSV document: `header`, then one `row` per point.
pub(crate) fn csv_doc<T>(header: &str, points: &[T], row: fn(&T) -> String) -> String {
    let mut out = format!("{header}\n");
    for p in points {
        out.push_str(&row(p));
        out.push('\n');
    }
    out
}

/// The points as one compact JSON array, newline-terminated.
fn json_doc<T>(points: &[T], value: fn(&T) -> Value) -> String {
    let doc = Value::Array(points.iter().map(value).collect());
    format!("{}\n", doc.to_string_compact())
}

/// The priority-residency table of the Fig. 7 sweep, one row per
/// frequency (what `sara repro fig7` prints too).
pub(crate) fn residency_table(points: &[FreqPoint]) -> String {
    let mut out = format!("{:<10}", "freq");
    for level in 0..MAX_LEVELS {
        out.push_str(&format!(" {:>6}", format!("P{level}")));
    }
    out.push_str(&format!("  {:>7} {:>9}", "minNPI", "coreGB/s"));
    for p in points {
        out.push_str(&format!("\n{:<10}", p.freq.to_string()));
        for level in 0..MAX_LEVELS {
            out.push_str(&format!(" {:>5.1}%", p.residency[level] * 100.0));
        }
        out.push_str(&format!(
            "  {:>7.3} {:>9.2}",
            p.min_npi,
            p.core_bytes_per_s / 1e9
        ));
    }
    out
}

/// The shared per-candidate table of `--dvfs` output.
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

/// Scenario searches as CSV: [`DvfsPoint`]'s columns between the quoted
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

/// Scenario searches as a JSON array (one object per scenario, its points
/// as [`DvfsPoint`] objects).
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

/// The camcorder test cases are the catalog's `camcorder-a` / `camcorder-b`.
fn parse_case(raw: &str) -> Result<Scenario, CliError> {
    match raw {
        "A" | "a" => Ok(catalog::camcorder_a()),
        "B" | "b" => Ok(catalog::camcorder_b()),
        other => Err(CliError::usage(
            USAGE,
            format!("unknown test case \"{other}\" (expected A or B)"),
        )),
    }
}
