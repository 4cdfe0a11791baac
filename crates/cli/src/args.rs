//! Hand-rolled argument parsing shared by every subcommand.
//!
//! The workspace builds offline, so there is no `clap`; instead a small
//! take-what-you-know scanner: each command removes the flags it owns from
//! the argument list, then whatever remains must be expected positionals —
//! anything else is a usage error naming the stray token.

use sara_memctrl::PolicyKind;

/// Everything a subcommand can fail with, split by exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad invocation (unknown flag, missing value, unparseable number):
    /// printed to stderr, exit code 2.
    Usage(String),
    /// Runtime failure (missing file, malformed scenario, regression):
    /// printed to stderr with an `error:` prefix, exit code 1.
    Failure(String),
}

impl CliError {
    /// A usage error that also prints the command's usage line.
    pub fn usage(usage: &str, message: impl AsRef<str>) -> CliError {
        CliError::Usage(format!("{}\n{usage}", message.as_ref()))
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Failure(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// A consumable view of a subcommand's arguments.
#[derive(Debug)]
pub(crate) struct Args<'a> {
    items: Vec<String>,
    usage: &'a str,
}

impl<'a> Args<'a> {
    /// Wraps the raw arguments with the owning command's usage text.
    pub(crate) fn new(items: &[String], usage: &'a str) -> Self {
        Args {
            items: items.to_vec(),
            usage,
        }
    }

    /// Whether `--help`/`-h` appears anywhere (checked before parsing, so
    /// a broken invocation can still ask for help).
    pub(crate) fn help_requested(&self) -> bool {
        self.items.iter().any(|a| a == "--help" || a == "-h")
    }

    /// Removes a boolean flag (every occurrence), returning whether it was
    /// present.
    pub(crate) fn take_flag(&mut self, name: &str) -> bool {
        let before = self.items.len();
        self.items.retain(|a| a != name);
        self.items.len() != before
    }

    /// Removes every `name VALUE` occurrence, returning the last value if
    /// the flag was present (so a shim can pin a default and still let the
    /// user override it by appending the flag again).
    ///
    /// # Errors
    ///
    /// Usage error if the flag is present without a value — including when
    /// the next token is another flag (a lone `-`, the stdout sink, is a
    /// value; `--anything` is not), so `--json --pretty` fails loudly
    /// instead of writing a file named `--pretty`.
    pub(crate) fn take_opt(&mut self, name: &str) -> Result<Option<String>, CliError> {
        let mut value = None;
        while let Some(i) = self.items.iter().position(|a| a == name) {
            let next = self.items.get(i + 1);
            if next.is_none() || next.is_some_and(|v| v.len() > 1 && v.starts_with('-')) {
                return Err(CliError::usage(
                    self.usage,
                    format!("{name} requires a value"),
                ));
            }
            value = Some(self.items.remove(i + 1));
            self.items.remove(i);
        }
        Ok(value)
    }

    /// Like [`Args::take_opt`], but parses the value.
    ///
    /// # Errors
    ///
    /// Usage error on a missing or unparseable value.
    pub(crate) fn take_parsed<T: std::str::FromStr>(
        &mut self,
        name: &str,
    ) -> Result<Option<T>, CliError> {
        match self.take_opt(name)? {
            None => Ok(None),
            Some(raw) => raw.parse().map(Some).map_err(|_| {
                CliError::usage(self.usage, format!("{name}: cannot parse \"{raw}\""))
            }),
        }
    }

    /// Consumes the remaining arguments as positionals (at most `max`; any
    /// remaining `--flag` is a usage error naming it).
    ///
    /// # Errors
    ///
    /// Usage error on an unknown flag or too many positionals.
    pub(crate) fn finish_positional(self, max: usize) -> Result<Vec<String>, CliError> {
        if let Some(flag) = self.items.iter().find(|a| a.starts_with('-')) {
            return Err(CliError::usage(
                self.usage,
                format!("unknown flag \"{flag}\""),
            ));
        }
        if self.items.len() > max {
            return Err(CliError::usage(
                self.usage,
                format!(
                    "unexpected argument \"{}\" (at most {max} positional argument{} allowed)",
                    self.items[max],
                    if max == 1 { "" } else { "s" }
                ),
            ));
        }
        Ok(self.items)
    }

    /// Consumes the remaining arguments, requiring that none are left.
    ///
    /// # Errors
    ///
    /// Usage error if anything remains.
    pub(crate) fn finish(self) -> Result<(), CliError> {
        self.finish_positional(0).map(|_| ())
    }
}

/// Parses a comma-separated policy list (`FCFS,QoS,FR-FCFS`) using the
/// report spellings; `all` selects every policy.
///
/// # Errors
///
/// Usage error naming the unknown policy and the full vocabulary.
pub(crate) fn parse_policies(raw: &str, usage: &str) -> Result<Vec<PolicyKind>, CliError> {
    if raw == "all" {
        return Ok(PolicyKind::ALL.to_vec());
    }
    raw.split(',')
        .map(|name| {
            PolicyKind::from_name(name).ok_or_else(|| {
                let known: Vec<&str> = PolicyKind::ALL.iter().map(|p| p.name()).collect();
                CliError::usage(
                    usage,
                    format!(
                        "unknown policy \"{name}\" (expected one of: {}, or \"all\")",
                        known.join(", ")
                    ),
                )
            })
        })
        .collect()
}

/// Parses a comma-separated MHz list (`1333,1700`).
///
/// # Errors
///
/// Usage error on an unparseable or zero entry.
pub(crate) fn parse_freqs(raw: &str, usage: &str) -> Result<Vec<u32>, CliError> {
    raw.split(',')
        .map(|tok| match tok.parse::<u32>() {
            Ok(mhz) if mhz > 0 => Ok(mhz),
            _ => Err(CliError::usage(
                usage,
                format!("bad frequency \"{tok}\" (expected a positive MHz integer)"),
            )),
        })
        .collect()
}

/// Parses a comma-separated DRAM channel-count list; each entry must be
/// a power of two in `1..=256` (the address map folds the channel index
/// out of power-of-two bit fields).
///
/// # Errors
///
/// Usage error naming the offending token.
pub(crate) fn parse_channels(raw: &str, usage: &str) -> Result<Vec<usize>, CliError> {
    raw.split(',')
        .map(|tok| match tok.parse::<usize>() {
            Ok(n) if n > 0 && n <= 256 && n.is_power_of_two() => Ok(n),
            _ => Err(CliError::usage(
                usage,
                format!("bad channel count \"{tok}\" (expected a power of two in 1..=256)"),
            )),
        })
        .collect()
}

/// Like [`parse_freqs`], but additionally rejects duplicate and
/// non-ascending candidate lists — sweep and ladder semantics depend on
/// order, and silently sweeping `1700,1333,1700` would burn simulation
/// time on a malformed experiment.
///
/// # Errors
///
/// Usage error naming the offending pair.
pub(crate) fn parse_freqs_ascending(raw: &str, usage: &str) -> Result<Vec<u32>, CliError> {
    let freqs = parse_freqs(raw, usage)?;
    for pair in freqs.windows(2) {
        if pair[1] == pair[0] {
            return Err(CliError::usage(
                usage,
                format!("duplicate frequency {} MHz in \"{raw}\"", pair[0]),
            ));
        }
        if pair[1] < pair[0] {
            return Err(CliError::usage(
                usage,
                format!(
                    "frequencies must be ascending ({} MHz after {} MHz in \"{raw}\")",
                    pair[1], pair[0]
                ),
            ));
        }
    }
    Ok(freqs)
}

/// Splits a comma-separated name list, dropping empty segments.
pub(crate) fn parse_names(raw: &str) -> Vec<String> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(items: &[&str]) -> Args<'static> {
        let owned: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        Args {
            items: owned,
            usage: "usage: test",
        }
    }

    #[test]
    fn flags_and_options_are_consumed() {
        let mut a = args(&["--jobs", "4", "--pretty", "positional"]);
        assert!(a.take_flag("--pretty"));
        assert!(!a.take_flag("--pretty"));
        assert_eq!(a.take_parsed::<usize>("--jobs").unwrap(), Some(4));
        assert_eq!(a.finish_positional(1).unwrap(), vec!["positional"]);
    }

    #[test]
    fn missing_value_and_unknown_flag_are_usage_errors() {
        let mut a = args(&["--jobs"]);
        assert!(matches!(a.take_opt("--jobs"), Err(CliError::Usage(_))));
        let a = args(&["--bogus"]);
        let err = a.finish().unwrap_err();
        assert!(matches!(&err, CliError::Usage(m) if m.contains("--bogus")));
    }

    #[test]
    fn unparseable_values_name_the_flag() {
        let mut a = args(&["--duration-ms", "fast"]);
        let err = a.take_parsed::<f64>("--duration-ms").unwrap_err();
        assert!(matches!(&err, CliError::Usage(m) if m.contains("--duration-ms")));
    }

    #[test]
    fn flag_like_values_are_rejected_but_lone_dash_is_a_value() {
        // `--json --pretty` must not write a file named "--pretty".
        let mut a = args(&["--json", "--pretty"]);
        let err = a.take_opt("--json").unwrap_err();
        assert!(matches!(&err, CliError::Usage(m) if m.contains("--json requires a value")));
        // But `-` is the stdout sink, a legitimate value.
        let mut a = args(&["--json", "-"]);
        assert_eq!(a.take_opt("--json").unwrap().as_deref(), Some("-"));
    }

    #[test]
    fn repeated_flags_are_last_wins() {
        let mut a = args(&["--duration-ms", "6", "--duration-ms", "0.5"]);
        assert_eq!(a.take_parsed::<f64>("--duration-ms").unwrap(), Some(0.5));
        a.finish().unwrap();
        let mut a = args(&["--pretty", "--pretty"]);
        assert!(a.take_flag("--pretty"));
        a.finish().unwrap();
    }

    #[test]
    fn too_many_positionals_rejected() {
        let a = args(&["one", "two"]);
        assert!(matches!(a.finish_positional(1), Err(CliError::Usage(_))));
    }

    #[test]
    fn policy_and_freq_lists_parse() {
        let got = parse_policies("FCFS,QoS-RB", "u").unwrap();
        assert_eq!(got, vec![PolicyKind::Fcfs, PolicyKind::QosRowBuffer]);
        assert_eq!(
            parse_policies("all", "u").unwrap(),
            PolicyKind::ALL.to_vec()
        );
        assert!(parse_policies("qos", "u").is_err());
        assert_eq!(parse_freqs("1333,1700", "u").unwrap(), vec![1333, 1700]);
        assert!(parse_freqs("0", "u").is_err());
        assert!(parse_freqs("fast", "u").is_err());
    }

    #[test]
    fn ascending_freq_lists_reject_duplicates_and_disorder() {
        assert_eq!(
            parse_freqs_ascending("1333,1600,1866", "u").unwrap(),
            vec![1333, 1600, 1866]
        );
        let err = parse_freqs_ascending("1333,1333", "u").unwrap_err();
        assert!(matches!(&err, CliError::Usage(m) if m.contains("duplicate")));
        let err = parse_freqs_ascending("1700,1333", "u").unwrap_err();
        assert!(matches!(&err, CliError::Usage(m) if m.contains("ascending")));
        assert!(parse_freqs_ascending("1333,fast", "u").is_err());
    }
}
