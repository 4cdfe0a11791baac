//! The subcommands, one module each, the [`COMMANDS`] table that names
//! them, plus the scenario-loading driver logic they share.

mod completions;
mod export;
mod gen;
mod govern;
mod list;
mod matrix;
mod report;
mod repro;
mod serve;
mod sweep;
mod validate;

use sara_scenarios::{catalog, load_dir, Scenario};

use crate::args::{parse_names, Args, CliError};

/// One subcommand: everything the dispatcher, the top-level usage line
/// and the shell completions know about it.
pub(crate) struct Command {
    pub(crate) name: &'static str,
    /// The one-line description a completion menu shows.
    pub(crate) summary: &'static str,
    /// The usage line; its flags are the ones completions offer.
    pub(crate) usage: &'static str,
    /// The `--help` page.
    pub(crate) help: &'static str,
    /// Parses the command's arguments (its `--help` already answered)
    /// and runs it.
    pub(crate) run: fn(Args) -> Result<(), CliError>,
}

impl Command {
    /// The flags the usage line names, as `(value flags, switches)`, each
    /// kind in usage-line order. Inside a `[...]` group every ` | `
    /// alternative `--flag META` takes a value and a bare `--flag` is a
    /// switch; a flag outside brackets (`report`'s `--diff OLD NEW`) is a
    /// switch.
    pub(crate) fn flags(&self) -> (Vec<&'static str>, Vec<&'static str>) {
        let (mut values, mut switches) = (Vec::new(), Vec::new());
        // Brackets do not nest, so odd pieces are the bracketed groups.
        for (i, piece) in self.usage.split(['[', ']']).enumerate() {
            let is_flag = |word: &&str| word.starts_with("--");
            if i % 2 == 0 {
                switches.extend(piece.split_whitespace().filter(is_flag));
                continue;
            }
            for alternative in piece.split(" | ") {
                let mut words = alternative.split_whitespace();
                if let Some(flag) = words.next().filter(is_flag) {
                    match words.next() {
                        Some(_) => values.push(flag),
                        None => switches.push(flag),
                    }
                }
            }
        }
        (values, switches)
    }
}

/// A [`COMMANDS`] row for the command implemented by module `$name`.
macro_rules! command {
    ($name:ident, $summary:literal) => {
        Command {
            name: stringify!($name),
            summary: $summary,
            usage: $name::USAGE,
            help: $name::HELP,
            run: $name::run,
        }
    };
}

/// Every subcommand, in `sara --help` order.
pub(crate) const COMMANDS: &[Command] = &[
    command!(export, "write the built-in catalog as .scenario.json files"),
    command!(validate, "strictly parse and check scenario files"),
    command!(list, "summarize the catalog"),
    command!(matrix, "run scenarios x policies x frequencies, ranked"),
    command!(sweep, "DRAM frequency / DVFS sweeps"),
    command!(govern, "online self-aware governor"),
    command!(gen, "generate seeded random scenarios"),
    command!(report, "summarize or diff sara JSON dumps"),
    command!(
        repro,
        "paper tables, figures and ablations with every claim checked"
    ),
    command!(serve, "long-lived NDJSON simulation service"),
    command!(completions, "emit a shell completion script"),
];

/// Consumes a command's `--scenarios` flag: a comma-separated name list,
/// where an empty selection (e.g. an unset shell variable) is a loud
/// usage error instead of silently widening into the whole catalog.
/// Returns the empty list when the flag is absent.
///
/// # Errors
///
/// Usage error on a present-but-empty selection.
pub(crate) fn take_scenario_names(args: &mut Args, usage: &str) -> Result<Vec<String>, CliError> {
    match args.take_opt("--scenarios")? {
        None => Ok(Vec::new()),
        Some(raw) => {
            let names = parse_names(&raw);
            if names.is_empty() {
                return Err(CliError::usage(
                    usage,
                    "--scenarios selected nothing (empty list)",
                ));
            }
            Ok(names)
        }
    }
}

/// Resolves the scenario set a command runs on: a `--dir` of
/// `*.scenario.json` files, a `--scenarios` name filter over the built-in
/// catalog, or (neither) the whole catalog.
///
/// # Errors
///
/// Usage error if both selectors are given or a name is not in the
/// catalog; runtime failure if the directory cannot be loaded.
pub(crate) fn load_scenarios(
    dir: Option<&str>,
    names: &[String],
    usage: &str,
) -> Result<Vec<Scenario>, CliError> {
    match (dir, names.is_empty()) {
        (Some(_), false) => Err(CliError::usage(
            usage,
            "--dir and --scenarios are mutually exclusive",
        )),
        (Some(dir), true) => load_dir(dir).map_err(|e| CliError::Failure(e.message().to_string())),
        (None, false) => names
            .iter()
            .map(|name| {
                catalog::by_name(name).ok_or_else(|| {
                    CliError::usage(
                        usage,
                        format!(
                            "unknown scenario \"{name}\" (catalog: {})",
                            catalog::names().join(", ")
                        ),
                    )
                })
            })
            .collect(),
        (None, true) => Ok(catalog::builtin()),
    }
}

/// One formatted catalog row shared by `list`, `matrix` and `gen`.
pub(crate) fn scenario_row(s: &Scenario) -> String {
    format!(
        "{:<18} {:>5} MHz {:>6.1} GB/s offered  {:>2} DMAs  {}",
        s.name,
        s.freq.as_u32(),
        s.offered_gbs(),
        s.dma_count(),
        s.description
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_matches_the_help_page() {
        // Command rows of `sara --help` are indented exactly two spaces
        // (deeper indents continue a summary).
        let rows: Vec<&str> = crate::HELP
            .lines()
            .filter_map(|line| line.strip_prefix("  "))
            .filter(|rest| !rest.starts_with(' '))
            .filter_map(|rest| rest.split_whitespace().next())
            .collect();
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        assert_eq!(rows, names);
        for c in COMMANDS {
            let head = format!("usage: sara {} ", c.name);
            assert!(c.usage.starts_with(&head), "{}", c.usage);
        }
    }

    #[test]
    fn every_flag_a_usage_line_names_is_parsed() {
        // The trailing unknown flag stops each command at its parser, so
        // nothing runs and nothing is written.
        for c in COMMANDS {
            let (values, switches) = c.flags();
            let with_value = values.iter().map(|f| vec![c.name, f, "1"]);
            for mut argv in with_value.chain(switches.iter().map(|f| vec![c.name, f])) {
                argv.push("--not-a-flag");
                let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
                let unknown = format!("unknown flag \"{}\"", argv[1]);
                match crate::dispatch(&args) {
                    Err(CliError::Usage(m)) => assert!(!m.contains(&unknown), "{argv:?}: {m}"),
                    other => panic!("{argv:?} got past its parser: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn load_scenarios_defaults_to_the_catalog() {
        let all = load_scenarios(None, &[], "u").unwrap();
        assert_eq!(all.len(), catalog::builtin().len());
    }

    #[test]
    fn load_scenarios_filters_by_name() {
        let names = vec!["adas".to_string(), "ar-headset".to_string()];
        let got = load_scenarios(None, &names, "u").unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].name, "adas");
        let err = load_scenarios(None, &["nope".to_string()], "u").unwrap_err();
        assert!(matches!(&err, CliError::Usage(m) if m.contains("nope")));
    }

    #[test]
    fn load_scenarios_rejects_both_selectors() {
        let err = load_scenarios(Some("dir"), &["adas".to_string()], "u").unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn load_scenarios_missing_dir_is_a_failure() {
        let err = load_scenarios(Some("/no/such/dir"), &[], "u").unwrap_err();
        assert!(matches!(&err, CliError::Failure(m) if m.contains("/no/such/dir")));
    }
}
