//! `sara validate` — strictly parse and check scenario files.

use std::path::Path;

use sara_scenarios::{scenario_files, Scenario};
use sara_sim::Simulation;

use crate::args::{Args, CliError};
use crate::output::page;

pub(crate) const USAGE: &str = "usage: sara validate PATH [PATH ...]";

pub(crate) const HELP: &str = "\
sara validate — strictly parse and check scenario files

usage: sara validate PATH [PATH ...]

Each PATH is a .scenario.json file or a directory (every *.scenario.json
inside, sorted by file name). Validation is the full production path: the
strict sara-scenario/v1 reader (unknown keys, missing fields, nulled
numbers and out-of-range values are errors naming the offending path)
plus the engine's own build check: the scenario must build a simulator
(meter/traffic pairing and region capacity included).
Exits non-zero on the first error.";

/// Runs the subcommand.
///
/// # Errors
///
/// Usage error when no path is given; runtime failure naming the first
/// file that fails to parse, check, or build.
pub(crate) fn run(args: Args) -> Result<(), CliError> {
    let paths = args.finish_positional(usize::MAX)?;
    if paths.is_empty() {
        return Err(CliError::usage(
            USAGE,
            "expected at least one file or directory",
        ));
    }
    let mut checked = 0usize;
    for path in &paths {
        let path = Path::new(path);
        let files = if path.is_dir() {
            scenario_files(path).map_err(|e| CliError::Failure(e.message().to_string()))?
        } else {
            vec![path.to_path_buf()]
        };
        for file in files {
            let scenario = validate_file(&file)?;
            page(format!(
                "ok {} ({}: {} cores, {} DMAs)",
                file.display(),
                scenario.name,
                scenario.cores.len(),
                scenario.dma_count()
            ));
            checked += 1;
        }
    }
    page(format!(
        "{checked} scenario file{} valid",
        if checked == 1 { "" } else { "s" }
    ));
    Ok(())
}

/// Parses one file and checks that the engine builds it.
fn validate_file(path: &Path) -> Result<Scenario, CliError> {
    let scenario =
        Scenario::from_json_file(path).map_err(|e| CliError::Failure(e.message().to_string()))?;
    scenario
        .config()
        .and_then(Simulation::new)
        .map_err(|e| CliError::Failure(format!("{}: {}", path.display(), e.message())))?;
    Ok(scenario)
}
