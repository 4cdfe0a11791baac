//! Hand-rolled argument parsing shared by every subcommand.
//!
//! The workspace builds offline, so there is no `clap`; instead a small
//! take-what-you-know scanner: each command removes the flags it owns from
//! the argument list, then whatever remains must be expected positionals —
//! anything else is a usage error naming the stray token.

use std::str::FromStr;

use json::read;
use sara_memctrl::PolicyKind;
use sara_scenarios::Scenario;

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

/// A `json::read` complaint about a document is a runtime failure.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Failure(message)
    }
}

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
    /// the next token is another flag, `--anything` (any other token is a
    /// value: the stdout sink `-`, a negative number such as `-1`), so
    /// `--json --pretty` fails loudly instead of writing a file named
    /// `--pretty`, and `--budget -1` reaches the value's own check.
    pub(crate) fn take_opt(&mut self, name: &str) -> Result<Option<String>, CliError> {
        let mut value = None;
        while let Some(i) = self.items.iter().position(|a| a == name) {
            let next = self.items.get(i + 1);
            if next.is_none_or(|v| v.starts_with("--")) {
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

    /// Like [`Args::take_one`], with a plain parse of the value.
    pub(crate) fn take_parsed<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, CliError> {
        self.take_one(name, number)
    }

    /// Like [`Args::take_opt`], but reads the value with `read` (one of the
    /// value readers below); what it refuses is a usage error.
    pub(crate) fn take_one<T>(
        &mut self,
        name: &str,
        read: impl FnOnce(&str, &str) -> Result<T, String>,
    ) -> Result<Option<T>, CliError> {
        match self.take_opt(name)? {
            None => Ok(None),
            Some(raw) => read(name, &raw)
                .map(Some)
                .map_err(|message| CliError::usage(self.usage, message)),
        }
    }

    /// Like [`Args::take_one`], for a comma-separated list of entries.
    pub(crate) fn take_list<T>(
        &mut self,
        name: &str,
        read: impl Fn(&str, &str) -> Result<T, String>,
    ) -> Result<Option<Vec<T>>, CliError> {
        self.take_one(name, |name, raw| {
            raw.split(',').map(|entry| read(name, entry)).collect()
        })
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

/// Whether `--help`/`-h` appears anywhere among a command's arguments.
pub(crate) fn help_requested(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

/// `raw` as a number, or `<flag>: cannot parse "<raw>"`.
fn number<T: FromStr>(name: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{name}: cannot parse \"{raw}\""))
}

/// A rule's text after the flag it refused: `--freqs must be ≥ 1`.
fn flag_rule<T>(name: &str, rule: Result<T, String>) -> Result<T, String> {
    rule.map_err(|rule| format!("{name} {rule}"))
}

/// A finite quantity > 0 (a duration, an epoch, a rate).
pub(crate) fn positive(name: &str, raw: &str) -> Result<f64, String> {
    flag_rule(name, read::positive(number(name, raw)?))
}

/// A count of at least one, in the caller's integer type.
pub(crate) fn count<T: FromStr + Copy + TryInto<u64>>(name: &str, raw: &str) -> Result<T, String> {
    let n: T = number(name, raw)?;
    flag_rule(name, read::at_least_one(n.try_into().unwrap_or(u64::MAX))).map(|_| n)
}

/// A DRAM frequency in MHz.
pub(crate) fn mhz(name: &str, raw: &str) -> Result<u32, String> {
    flag_rule(name, read::mhz(number(name, raw)?))
}

/// A DRAM channel count.
pub(crate) fn channels(name: &str, raw: &str) -> Result<usize, String> {
    flag_rule(name, Scenario::channel_count(number(name, raw)?))
}

/// A name a `parse` vocabulary lacks: `--policies: unknown policy "qos" (…)`.
pub(crate) fn flag_word<T>(name: &str, parsed: Result<T, String>) -> Result<T, String> {
    parsed.map_err(|message| format!("{name}: {message}"))
}

/// A comma-separated policy list (`FCFS,QoS,FR-FCFS`); `all` selects
/// every policy.
pub(crate) fn policies(name: &str, raw: &str) -> Result<Vec<PolicyKind>, String> {
    if raw == "all" {
        return Ok(PolicyKind::ALL.to_vec());
    }
    raw.split(',')
        .map(|entry| flag_word(name, PolicyKind::parse(entry)))
        .collect()
}

/// A comma-separated MHz list that must be strictly ascending — sweep and
/// ladder semantics depend on order, and silently sweeping
/// `1700,1333,1700` would burn simulation time on a malformed experiment.
pub(crate) fn ascending_mhz(name: &str, raw: &str) -> Result<Vec<u32>, String> {
    let freqs: Vec<u32> = raw
        .split(',')
        .map(|entry| mhz(name, entry))
        .collect::<Result<_, _>>()?;
    match freqs.windows(2).find(|pair| pair[1] <= pair[0]) {
        None => Ok(freqs),
        Some([a, b]) if a == b => Err(format!("duplicate frequency {a} MHz in \"{raw}\"")),
        Some(pair) => Err(format!(
            "frequencies must be ascending ({} MHz after {} MHz in \"{raw}\")",
            pair[1], pair[0]
        )),
    }
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
        // So is a negative number: its own check refuses it, naming it.
        let mut a = args(&["--budget", "-1"]);
        assert_eq!(a.take_opt("--budget").unwrap().as_deref(), Some("-1"));
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
        let got = policies("--policies", "FCFS,QoS-RB").unwrap();
        assert_eq!(got, vec![PolicyKind::Fcfs, PolicyKind::QosRowBuffer]);
        assert_eq!(
            policies("--policies", "all").unwrap(),
            PolicyKind::ALL.to_vec()
        );
        assert!(policies("--policies", "qos").is_err());
        let mut a = args(&["--freqs", "1333,1700"]);
        assert_eq!(a.take_list("--freqs", mhz).unwrap(), Some(vec![1333, 1700]));
        assert_eq!(mhz("--freqs", "0").unwrap_err(), "--freqs must be ≥ 1");
        assert_eq!(
            mhz("--freqs", "fast").unwrap_err(),
            "--freqs: cannot parse \"fast\""
        );
        let mut a = args(&["--duration-ms", "0"]);
        let err = a.take_one("--duration-ms", positive).unwrap_err();
        assert!(matches!(&err, CliError::Usage(m) if m.starts_with("--duration-ms must be > 0")));
    }

    #[test]
    fn ascending_freq_lists_reject_duplicates_and_disorder() {
        assert_eq!(
            ascending_mhz("--freqs", "1333,1600,1866").unwrap(),
            vec![1333, 1600, 1866]
        );
        assert!(ascending_mhz("--freqs", "1333,1333")
            .unwrap_err()
            .contains("duplicate"));
        assert!(ascending_mhz("--freqs", "1700,1333")
            .unwrap_err()
            .contains("ascending"));
        assert!(ascending_mhz("--freqs", "1333,fast").is_err());
    }
}
