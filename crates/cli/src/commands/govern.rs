//! `sara govern` — the online self-aware governor over scenarios.

use sara_governor::{run_governed, run_pinned, trace, GovernedOutcome};
use sara_memctrl::PolicyKind;
use sara_types::MegaHertz;

use crate::args::{ascending_mhz, flag_word, positive, Args, CliError};
use crate::commands::{load_scenarios, take_scenario_names};
use crate::output::{emit_value, Progress, Sink};

pub(crate) const USAGE: &str =
    "usage: sara govern [--dir DIR | --scenarios NAMES] [--epoch-us US] \
     [--ladder MHZ] [--start MHZ] [--escalate-policy NAME] [--per-channel] \
     [--duration-ms MS] [--no-baseline] [--json PATH|-] [--csv PATH|-] \
     [--chrome-trace PATH|-]";

pub(crate) const HELP: &str = "\
sara govern — run scenarios under the online self-aware governor

usage: sara govern [options]

Runs each scenario once, with the closed control loop inside the
simulation: every epoch the governor reads the platform's own health
signals (per-DMA meters/NPI, queue depths) and steps the DRAM frequency
through the ladder — up on QoS error, down on sustained headroom — and
can escalate the scheduling policy when the top rung is not enough. A
static baseline pinned at the starting rung runs alongside for
comparison (disable with --no-baseline).

scenario selection (default: the whole built-in catalog):
  --dir DIR          run every *.scenario.json in DIR instead
  --scenarios NAMES  comma-separated catalog names (e.g. adas-overload)

governor configuration (flags override each scenario's own `governor`
stanza; scenarios without a stanza use the default ladder of ~70%, ~85%
and 100% of their nominal frequency):
  --epoch-us US          control-epoch length in microseconds
  --ladder MHZ           comma-separated ascending frequency ladder
  --start MHZ            starting rung (must be a ladder member)
  --escalate-policy P    switch to policy P when the top rung still fails
                         (FCFS, RR, FrameQoS, QoS, QoS-RB, FR-FCFS)
  --per-channel          one ladder automaton per DRAM channel: each epoch
                         the most-loaded lane climbs on QoS error and the
                         least-loaded lane probes downward on headroom, so
                         lanes can settle on different rungs

run shape and output:
  --duration-ms MS   run length (default: each scenario's nominal duration)
  --no-baseline      skip the pinned static comparison run
  --json PATH|-      write trace + outcome (+ baseline) as JSON
  --csv PATH|-       write the per-epoch trace as CSV
  --chrome-trace PATH|-
                     write a Chrome trace-event / Perfetto document: one
                     process per scenario with a governor track (epoch
                     spans, action markers) and one track per DRAM lane,
                     plus queue/frequency/NPI counter series, on
                     simulated-time timestamps (byte-deterministic)

Traces are byte-deterministic: identical inputs give identical files.
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
    let epoch_us = args.take_one("--epoch-us", positive)?;
    let ladder = args.take_one("--ladder", ascending_mhz)?;
    let start = args.take_parsed::<u32>("--start")?;
    let escalate = args.take_one("--escalate-policy", |name, raw| {
        flag_word(name, PolicyKind::parse(raw))
    })?;
    let per_channel = args.take_flag("--per-channel");
    let duration_ms = args.take_one("--duration-ms", positive)?;
    let baseline_wanted = !args.take_flag("--no-baseline");
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
    args.finish()?;

    let scenarios = load_scenarios(dir.as_deref(), &names, USAGE)?;

    let mut runs: Vec<(GovernedOutcome, Option<GovernedOutcome>)> = Vec::new();
    for s in &scenarios {
        // Resolution order: CLI flags > scenario stanza > defaults.
        let mut spec = s.governor_spec();
        if let Some(ladder) = &ladder {
            spec.ladder_mhz = ladder.clone();
            // A stanza start pinned to the old ladder cannot survive a new
            // one; --start re-pins it explicitly.
            spec.start_mhz = None;
        }
        if let Some(us) = epoch_us {
            spec.epoch_us = us;
        }
        if let Some(mhz) = start {
            spec.start_mhz = Some(mhz);
        }
        if let Some(policy) = escalate {
            spec.escalate_policy = Some(policy);
        }
        if per_channel {
            spec.per_channel = true;
        }
        let duration = duration_ms.unwrap_or(s.duration_ms);
        let fail =
            |e: sara_types::ConfigError| CliError::Failure(format!("{}: {}", s.name, e.message()));
        let governed = run_governed(s, &spec, duration).map_err(fail)?;
        let baseline = if baseline_wanted {
            Some(run_pinned(s, &spec, MegaHertz::new(spec.start_mhz()), duration).map_err(fail)?)
        } else {
            None
        };
        progress.line(governed.summary_line());
        if spec.per_channel {
            progress.line(format!(
                "  lanes: {}",
                governed
                    .final_freq_per_channel()
                    .iter()
                    .enumerate()
                    .map(|(ch, f)| format!("ch{ch}={f} MHz"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        if let Some(b) = &baseline {
            progress.line(format!(
                "  static @ {} MHz: {} failing epochs, deficit {:.3} -> governed {} \
                 ({} failing, deficit {:.3})",
                b.final_freq().as_u32(),
                b.failing_epochs(),
                b.qos_deficit(),
                if governed.qos_deficit() <= b.qos_deficit() {
                    "improves"
                } else {
                    "regresses"
                },
                governed.failing_epochs(),
                governed.qos_deficit()
            ));
        }
        runs.push((governed, baseline));
    }

    if let Some(sink) = &json_sink {
        sink.deliver(progress, |w| writeln!(w, "{}", trace::trace_json(&runs)))?;
    }
    if let Some(sink) = &csv_sink {
        let csv = trace::trace_csv(runs.iter().map(|(o, _)| o));
        sink.deliver(progress, |w| w.write_all(csv.as_bytes()))?;
    }
    if let Some(sink) = &chrome_sink {
        let doc = sara_governor::chrome::chrome_trace_value(runs.iter().map(|(o, _)| o));
        sink.deliver(progress, |w| {
            w.write_all(emit_value(&doc, false).as_bytes())
        })?;
    }
    Ok(())
}
