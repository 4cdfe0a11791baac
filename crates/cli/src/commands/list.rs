//! `sara list` — summarize the catalog and optional scenario directories.

use sara_scenarios::{catalog, load_dir};

use crate::args::{Args, CliError};
use crate::commands::scenario_row;
use crate::output::page;

pub(crate) const USAGE: &str = "usage: sara list [--dir DIR]";

pub(crate) const HELP: &str = "\
sara list — summarize the catalog (and optionally a scenario directory)

usage: sara list [--dir DIR]

options:
  --dir DIR   also load every *.scenario.json in DIR and list it below
              the built-in catalog

Each row shows the registry name, DRAM frequency, total rated (non-
elastic) demand, DMA count and description.";

/// Runs the subcommand.
///
/// # Errors
///
/// Usage error for bad flags; runtime failure if the directory cannot be
/// loaded.
pub(crate) fn run(mut args: Args) -> Result<(), CliError> {
    let dir = args.take_opt("--dir")?;
    args.finish()?;

    page("built-in catalog:");
    for s in catalog::builtin() {
        page(format!("  {}", scenario_row(&s)));
    }
    if let Some(dir) = dir {
        let loaded = load_dir(&dir).map_err(|e| CliError::Failure(e.message().to_string()))?;
        page(format!("\n{dir}:"));
        for s in &loaded {
            page(format!("  {}", scenario_row(s)));
        }
    }
    Ok(())
}
