//! `sara completions` — static shell completion scripts.
//!
//! The scripts are generated from one table of subcommands and flags, so
//! they cannot drift apart across shells; golden tests pin each script's
//! exact bytes (regen with `SARA_UPDATE_GOLDENS=1`).

use crate::args::{Args, CliError};
use crate::output::page;

const USAGE: &str = "usage: sara completions <bash|zsh|fish>";

const HELP: &str = "\
sara completions — emit a static shell completion script

usage: sara completions <bash|zsh|fish>

Writes the script to stdout; install it with your shell's mechanism:

  bash:  sara completions bash > /etc/bash_completion.d/sara
         (or source it from ~/.bashrc)
  zsh:   sara completions zsh > ~/.zfunc/_sara
         (with ~/.zfunc in $fpath, then `autoload -Uz compinit && compinit`)
  fish:  sara completions fish > ~/.config/fish/completions/sara.fish

The scripts are static: they complete subcommand names and each
subcommand's flags, and fall back to file completion for values.";

/// One subcommand and the flags it owns, the single source every shell
/// script is rendered from.
struct Command {
    name: &'static str,
    summary: &'static str,
    /// Flags that take a value (`--flag VALUE`).
    value_flags: &'static [&'static str],
    /// Boolean switches (no value).
    bool_flags: &'static [&'static str],
}

/// The completion table. Keep in sync with each subcommand's `USAGE`
/// (the golden tests make drift loud, and `table_matches_dispatch` pins
/// the command list against `sara --help`).
const COMMANDS: &[Command] = &[
    Command {
        name: "export",
        summary: "write the built-in catalog as .scenario.json files",
        value_flags: &[],
        bool_flags: &[],
    },
    Command {
        name: "validate",
        summary: "strictly parse and check scenario files",
        value_flags: &[],
        bool_flags: &[],
    },
    Command {
        name: "list",
        summary: "summarize the catalog",
        value_flags: &["--dir"],
        bool_flags: &[],
    },
    Command {
        name: "matrix",
        summary: "run scenarios x policies x frequencies, ranked",
        value_flags: &[
            "--dir",
            "--scenarios",
            "--policies",
            "--freqs",
            "--channels",
            "--duration-ms",
            "--jobs",
            "--screen",
            "--json",
            "--csv",
            "--chrome-trace",
        ],
        bool_flags: &["--pretty"],
    },
    Command {
        name: "sweep",
        summary: "DRAM frequency / DVFS sweeps",
        value_flags: &[
            "--core",
            "--case",
            "--dir",
            "--scenarios",
            "--freqs",
            "--duration-ms",
            "--csv",
            "--json",
        ],
        bool_flags: &["--dvfs", "--screen"],
    },
    Command {
        name: "govern",
        summary: "online self-aware governor",
        value_flags: &[
            "--dir",
            "--scenarios",
            "--epoch-us",
            "--ladder",
            "--start",
            "--escalate-policy",
            "--duration-ms",
            "--json",
            "--csv",
            "--chrome-trace",
        ],
        bool_flags: &["--per-channel", "--no-baseline"],
    },
    Command {
        name: "gen",
        summary: "generate seeded random scenarios",
        value_flags: &[
            "--count",
            "--seed",
            "--out",
            "--overload",
            "--max-gbs",
            "--min-cores",
            "--max-cores",
            "--channels",
        ],
        bool_flags: &[],
    },
    Command {
        name: "report",
        summary: "summarize or diff sara JSON dumps",
        value_flags: &["--tolerance"],
        bool_flags: &["--diff"],
    },
    Command {
        name: "repro",
        summary: "paper tables, figures and ablations with every claim checked",
        value_flags: &["--duration-ms", "--out"],
        bool_flags: &[],
    },
    Command {
        name: "serve",
        summary: "long-lived NDJSON simulation service",
        value_flags: &[
            "--tcp",
            "--unix",
            "--workers",
            "--budget",
            "--max-sessions",
            "--journal",
            "--journal-max-bytes",
            "--metrics",
            "--chrome-trace",
        ],
        bool_flags: &[],
    },
    Command {
        name: "completions",
        summary: "emit a shell completion script",
        value_flags: &[],
        bool_flags: &[],
    },
];

/// Runs the subcommand.
///
/// # Errors
///
/// Usage error for a missing or unknown shell name.
pub(crate) fn run(raw: &[String]) -> Result<(), CliError> {
    let args = Args::new(raw, USAGE);
    if args.help_requested() {
        page(HELP);
        return Ok(());
    }
    let positionals = args.finish_positional(1)?;
    let Some(shell) = positionals.first() else {
        return Err(CliError::usage(USAGE, "which shell?"));
    };
    let script = match shell.as_str() {
        "bash" => bash(),
        "zsh" => zsh(),
        "fish" => fish(),
        other => {
            return Err(CliError::usage(
                USAGE,
                format!("unknown shell \"{other}\" (expected bash, zsh or fish)"),
            ))
        }
    };
    page(&script);
    Ok(())
}

fn command_names() -> String {
    COMMANDS
        .iter()
        .map(|c| c.name)
        .collect::<Vec<_>>()
        .join(" ")
}

pub(crate) fn bash() -> String {
    let mut out = String::from(
        "# bash completion for sara — generated by `sara completions bash`\n\
         _sara() {\n\
         \x20   local cur prev words cword\n\
         \x20   cur=\"${COMP_WORDS[COMP_CWORD]}\"\n\
         \x20   if [[ $COMP_CWORD -eq 1 ]]; then\n",
    );
    out.push_str(&format!(
        "        COMPREPLY=( $(compgen -W \"{} help\" -- \"$cur\") )\n",
        command_names()
    ));
    out.push_str(
        "        return 0\n\
         \x20   fi\n\
         \x20   case \"${COMP_WORDS[1]}\" in\n",
    );
    for c in COMMANDS {
        let mut words: Vec<&str> = c.value_flags.to_vec();
        words.extend_from_slice(c.bool_flags);
        words.push("--help");
        out.push_str(&format!(
            "        {})\n            COMPREPLY=( $(compgen -W \"{}\" -- \"$cur\") )\n            ;;\n",
            c.name,
            words.join(" ")
        ));
    }
    out.push_str(
        "    esac\n\
         \x20   return 0\n\
         }\n\
         complete -o default -F _sara sara\n",
    );
    out
}

pub(crate) fn zsh() -> String {
    let mut out = String::from(
        "#compdef sara\n\
         # zsh completion for sara — generated by `sara completions zsh`\n\
         _sara() {\n\
         \x20   local -a commands\n\
         \x20   commands=(\n",
    );
    for c in COMMANDS {
        out.push_str(&format!("        '{}:{}'\n", c.name, c.summary));
    }
    out.push_str(
        "    )\n\
         \x20   if (( CURRENT == 2 )); then\n\
         \x20       _describe -t commands 'sara command' commands\n\
         \x20       return\n\
         \x20   fi\n\
         \x20   case \"$words[2]\" in\n",
    );
    for c in COMMANDS {
        // `--flag:value` (space-separated argument): the CLI's scanner
        // takes the value as the next token, not `--flag=value`.
        let mut specs: Vec<String> = c
            .value_flags
            .iter()
            .map(|f| format!("'{f}:value:_files'"))
            .collect();
        specs.extend(c.bool_flags.iter().map(|f| format!("'{f}'")));
        specs.push("'--help'".to_string());
        out.push_str(&format!(
            "        {})\n            _arguments -s {} '*:file:_files'\n            ;;\n",
            c.name,
            specs.join(" ")
        ));
    }
    out.push_str(
        "    esac\n\
         }\n\
         _sara \"$@\"\n",
    );
    out
}

pub(crate) fn fish() -> String {
    let mut out = String::from(
        "# fish completion for sara — generated by `sara completions fish`\n\
         complete -c sara -f\n",
    );
    for c in COMMANDS {
        out.push_str(&format!(
            "complete -c sara -n __fish_use_subcommand -a {} -d '{}'\n",
            c.name, c.summary
        ));
        for flag in c.value_flags {
            let long = flag.trim_start_matches("--");
            out.push_str(&format!(
                "complete -c sara -n '__fish_seen_subcommand_from {}' -l {} -r\n",
                c.name, long
            ));
        }
        for flag in c.bool_flags {
            let long = flag.trim_start_matches("--");
            out.push_str(&format!(
                "complete -c sara -n '__fish_seen_subcommand_from {}' -l {}\n",
                c.name, long
            ));
        }
        out.push_str(&format!(
            "complete -c sara -n '__fish_seen_subcommand_from {}' -l help\n",
            c.name
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_script_names_every_command() {
        for script in [bash(), zsh(), fish()] {
            for c in COMMANDS {
                assert!(script.contains(c.name), "{} missing", c.name);
            }
        }
    }

    #[test]
    fn table_matches_dispatch() {
        // Every completion entry is a real subcommand (per the top-level
        // help), and every advertised subcommand can be completed.
        for c in COMMANDS {
            assert!(
                crate::HELP.contains(&format!("\n  {}", c.name)),
                "\"{}\" not in `sara --help`",
                c.name
            );
        }
        for line in crate::HELP.lines() {
            if let Some(rest) = line.strip_prefix("  ") {
                // Command rows are indented exactly two spaces (deeper
                // indents are summary continuation lines).
                if rest.starts_with(' ') {
                    continue;
                }
                if let Some(name) = rest.split_whitespace().next() {
                    assert!(
                        COMMANDS.iter().any(|c| c.name == name),
                        "\"{name}\" has no completion entry"
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_shell_is_a_usage_error() {
        let err = run(&["powershell".to_string()]).unwrap_err();
        assert!(matches!(&err, CliError::Usage(m) if m.contains("powershell")));
        assert!(matches!(
            run(&[]).unwrap_err(),
            CliError::Usage(m) if m.contains("which shell")
        ));
    }
}
