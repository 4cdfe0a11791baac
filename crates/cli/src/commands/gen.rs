//! `sara gen` — seeded random scenario generation.

use std::path::Path;

use sara_scenarios::{random_scenario_with, GeneratorConfig, Scenario, SCENARIO_FILE_SUFFIX};

use crate::args::{channels, count, positive, Args, CliError};
use crate::commands::scenario_row;
use crate::output::page;

pub(crate) const USAGE: &str = "usage: sara gen [--count N] [--seed S] [--out DIR] [--overload F] \
                                [--max-gbs G] [--min-cores N] [--max-cores N] [--channels N]";

pub(crate) const HELP: &str = "\
sara gen — generate seeded random scenarios

usage: sara gen [options]

  --count N       how many scenarios (seeds S, S+1, ...; default 1)
  --seed S        first seed (default 0); same seed, same scenario
  --out DIR       write each as DIR/gen-<seed as 16-digit hex>.scenario.json
                  (e.g. seed 40 -> gen-0000000000000028.scenario.json; the
                  directory is created if needed); without --out only the
                  summary table prints
  --overload F    scale QoS-rated demand to F x the platform's theoretical
                  peak instead of capping at the feasibility envelope —
                  F > 1 guarantees at least one missed target whenever the
                  draw has QoS-metered traffic (always, at min-cores >= 2;
                  a rare CPU-only draw is left unscaled with a warning)
  --max-gbs G     feasibility envelope in GB/s (default 20)
  --min-cores N   minimum distinct cores (default 4)
  --max-cores N   maximum distinct cores (default 9, at most 14)
  --channels N    DRAM channel count for every generated scenario (power of
                  two in 1..=256; default 2, the Table 1 part)

Generated files validate and run like any catalog entry:
`sara gen --count 8 --out fuzz && sara matrix --dir fuzz`.";

/// Runs the subcommand.
///
/// # Errors
///
/// Usage error for bad flags or degenerate bounds; runtime failure on
/// I/O errors.
pub(crate) fn run(mut args: Args) -> Result<(), CliError> {
    let count = args.take_one("--count", count)?.unwrap_or(1);
    let seed = args.take_parsed::<u64>("--seed")?.unwrap_or(0);
    let out = args.take_opt("--out")?;
    let overload = args.take_one("--overload", positive)?;
    let max_gbs = args.take_one("--max-gbs", positive)?;
    let min_cores = args.take_parsed::<usize>("--min-cores")?;
    let max_cores = args.take_parsed::<usize>("--max-cores")?;
    let channels = args.take_one("--channels", channels)?;
    args.finish()?;

    let defaults = GeneratorConfig::default();
    let cfg = GeneratorConfig {
        min_cores: min_cores.unwrap_or(defaults.min_cores),
        max_cores: max_cores.unwrap_or(defaults.max_cores),
        max_offered_gbs: max_gbs.unwrap_or(defaults.max_offered_gbs),
        overload,
        ..defaults
    };
    if cfg.min_cores == 0 || cfg.min_cores > cfg.max_cores || cfg.max_cores > 14 {
        return Err(CliError::usage(
            USAGE,
            "core-count bounds must satisfy 1 ≤ min ≤ max ≤ 14",
        ));
    }

    let end = seed.checked_add(count).ok_or_else(|| {
        CliError::usage(
            USAGE,
            format!("--seed {seed} + --count {count} overflows the u64 seed range"),
        )
    })?;

    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).map_err(|e| CliError::Failure(format!("{dir}: {e}")))?;
    }
    for seed in seed..end {
        let mut scenario = random_scenario_with(&cfg, seed);
        if let Some(n) = channels {
            scenario.channels = n;
        }
        page(scenario_row(&scenario));
        // The overload guarantee is quoted against QoS-metered demand; a
        // draw without any (possible only at min-cores 1, where the single
        // core may be a pure best-effort CPU) cannot miss a target, so say
        // so instead of silently emitting a feasible "overload" scenario.
        if overload.is_some() && !has_qos_rated_traffic(&scenario) {
            eprintln!(
                "warning: {} has no QoS-metered rated traffic — --overload left it \
                 unscaled and no target can be missed",
                scenario.name
            );
        }
        if let Some(dir) = &out {
            let path = Path::new(dir).join(format!("{}{SCENARIO_FILE_SUFFIX}", scenario.name));
            std::fs::write(&path, scenario.to_json())
                .map_err(|e| CliError::Failure(format!("{}: {e}", path.display())))?;
            page(format!("  wrote {}", path.display()));
        }
    }
    Ok(())
}

/// Whether any DMA can actually miss a target — the same predicate
/// ([`sara_workloads::DmaSpec::is_qos_rated`]) the generator quotes the
/// overload factor against, so this warning cannot drift from what the
/// scaling actually did.
fn has_qos_rated_traffic(scenario: &Scenario) -> bool {
    scenario
        .cores
        .iter()
        .flat_map(|c| &c.dmas)
        .any(sara_workloads::DmaSpec::is_qos_rated)
}
