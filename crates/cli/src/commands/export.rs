//! `sara export` — write the built-in catalog as `.scenario.json` files.

use sara_scenarios::catalog;

use crate::args::{Args, CliError};
use crate::output::page;

pub(crate) const USAGE: &str = "usage: sara export [DIR]";

pub(crate) const HELP: &str = "\
sara export — write the built-in catalog as .scenario.json files

usage: sara export [DIR]

Writes every built-in scenario as DIR/<name>.scenario.json (DIR defaults
to `catalog`, created if needed). The written files are byte-identical to
the built-in documents and are directly runnable with
`sara matrix --dir DIR` after any edits — the zero-recompilation path.";

/// Runs the subcommand.
///
/// # Errors
///
/// Usage error for bad flags; runtime failure on I/O errors.
pub(crate) fn run(args: Args) -> Result<(), CliError> {
    let positional = args.finish_positional(1)?;
    let dir = positional
        .first()
        .map_or("catalog", String::as_str)
        .to_string();
    let paths = catalog::export_all(&dir).map_err(|e| CliError::Failure(format!("{dir}: {e}")))?;
    for path in &paths {
        page(format!("wrote {}", path.display()));
    }
    page(format!("{} scenario files in {dir}", paths.len()));
    Ok(())
}
