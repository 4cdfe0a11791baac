//! # sara-cli
//!
//! The production entry point for the SARA reproduction: one `sara` binary
//! wrapping the scenario subsystem — catalog export, strict scenario-file
//! validation, the scenario × policy × frequency batch matrix, frequency
//! and DVFS sweeps, seeded scenario generation, the online governor, a
//! reader for every dump it writes, the paper reproduction with its
//! claims checked, and the job service.
//!
//! The crate is a *library* first ([`run`] takes any argument iterator and
//! returns the process exit code) so integration tests can drive every
//! path in-process or through the built binary.
//!
//! Exit codes follow the usual Unix convention the integration tests pin
//! down: `0` success, `1` runtime failure (missing directory, malformed
//! scenario file, simulation error, `report --diff` regression, a failed
//! `repro` claim), `2` usage
//! error (unknown command or flag, unparseable value).
//!
//! # Examples
//!
//! ```
//! // Equivalent of `sara list` on the command line.
//! assert_eq!(sara_cli::run(["list".to_string()]), 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod args;
mod commands;
mod output;

pub use args::CliError;

use args::{help_requested, Args};
use commands::COMMANDS;

/// The top-level `sara --help` text (pinned by a golden file in the
/// integration tests — update `crates/cli/tests/data/help.txt` via
/// `SARA_UPDATE_GOLDENS=1` after an intentional change).
pub const HELP: &str = "\
sara — scenario-driven evaluation for the SARA reproduction (DAC 2018)

usage: sara <command> [options]

commands:
  export     write the built-in catalog as .scenario.json files
  validate   strictly parse and check scenario files or directories
  list       summarize the catalog (and optionally a scenario directory)
  matrix     run scenarios x policies x frequencies, ranked
  sweep      DRAM frequency / DVFS sweeps (offline search)
  govern     online self-aware governor: closed-loop DVFS inside one run
  gen        generate seeded random scenarios
  report     summarize or diff matrix/govern/serve JSON dumps
  repro      reproduce the paper's tables and figures, every claim checked
  serve      long-lived NDJSON simulation service (stdin, TCP or Unix socket)
  completions
             emit a bash/zsh/fish completion script

run `sara <command> --help` for per-command options.";

/// Runs the CLI on the given arguments (without the program name) and
/// returns the process exit code.
///
/// All human-readable progress goes to stdout; errors go to stderr.
/// Machine-readable output (`--json -` / `--csv -`) claims stdout for
/// itself, demoting progress text to stderr.
pub fn run<I>(args: I) -> i32
where
    I: IntoIterator<Item = String>,
{
    let args: Vec<String> = args.into_iter().collect();
    match dispatch(&args) {
        Ok(()) => 0,
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}");
            2
        }
        Err(CliError::Failure(msg)) => {
            eprintln!("error: {msg}");
            1
        }
    }
}

/// One-line usage hint printed with top-level usage errors.
fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    format!(
        "usage: sara <{}> [options] (see `sara --help`)",
        names.join("|")
    )
}

fn dispatch(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage(usage()));
    };
    let rest = &args[1..];
    match command.as_str() {
        // `sara help matrix` forwards to `sara matrix --help`.
        "help" if !rest.is_empty() => {
            let mut forwarded: Vec<String> = rest.to_vec();
            forwarded.push("--help".to_string());
            dispatch(&forwarded)
        }
        "--help" | "-h" | "help" => {
            output::page(HELP);
            Ok(())
        }
        name => match COMMANDS.iter().find(|c| c.name == name) {
            // Checked before parsing, so a broken invocation can still
            // ask for help.
            Some(c) if help_requested(rest) => {
                output::page(c.help);
                Ok(())
            }
            Some(c) => (c.run)(Args::new(rest, c.usage)),
            None => Err(CliError::Usage(format!(
                "unknown command \"{name}\"\n{}",
                usage()
            ))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_command_is_a_usage_error() {
        assert_eq!(run(Vec::new()), 2);
        assert_eq!(run(["no-such-command".to_string()]), 2);
    }

    #[test]
    fn help_succeeds() {
        assert_eq!(run(["--help".to_string()]), 0);
        assert_eq!(run(["help".to_string()]), 0);
        // `help <command>` forwards to the subcommand's own help...
        assert_eq!(run(["help".to_string(), "matrix".to_string()]), 0);
        // ...so an unknown command is still a loud usage error.
        assert_eq!(run(["help".to_string(), "conquer".to_string()]), 2);
    }
}
