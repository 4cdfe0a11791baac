//! The subcommands, one module each, plus the scenario-loading driver
//! logic they share.

pub(crate) mod completions;
pub(crate) mod export;
pub(crate) mod gen;
pub(crate) mod govern;
pub(crate) mod list;
pub(crate) mod matrix;
pub(crate) mod report;
pub(crate) mod repro;
pub(crate) mod serve;
pub(crate) mod sweep;
pub(crate) mod validate;

use sara_scenarios::{catalog, load_dir, Scenario};

use crate::args::{parse_names, Args, CliError};

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
