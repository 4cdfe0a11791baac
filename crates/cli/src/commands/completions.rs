//! `sara completions` — static shell completion scripts.
//!
//! Every script is rendered from [`COMMANDS`], so the shells cannot drift
//! apart, and each command's flags are read off its usage line by
//! [`Command::flags`](super::Command::flags): inside a `[...]` group each
//! ` | ` alternative `--flag META` completes as a flag taking a value and a
//! bare `--flag` as a switch, a flag outside brackets is a switch, and
//! value flags come first, each kind in usage-line order. A flag the usage
//! line omits is therefore never completed. Golden tests pin each script's
//! exact bytes (regen with `SARA_UPDATE_GOLDENS=1`).

use super::COMMANDS;
use crate::args::{Args, CliError};
use crate::output::page;

pub(crate) const USAGE: &str = "usage: sara completions <bash|zsh|fish>";

pub(crate) const HELP: &str = "\
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

/// Runs the subcommand.
///
/// # Errors
///
/// Usage error for a missing or unknown shell name.
pub(crate) fn run(args: Args) -> Result<(), CliError> {
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
        let (mut words, switches) = c.flags();
        words.extend(switches);
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
        let (values, switches) = c.flags();
        // `--flag:value` (space-separated argument): the CLI's scanner
        // takes the value as the next token, not `--flag=value`.
        let mut specs: Vec<String> = values
            .iter()
            .map(|f| format!("'{f}:value:_files'"))
            .collect();
        specs.extend(switches.iter().map(|f| format!("'{f}'")));
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
        let (values, switches) = c.flags();
        let flags = values.iter().map(|f| (f, " -r"));
        for (flag, suffix) in flags.chain(switches.iter().map(|f| (f, ""))) {
            let long = flag.trim_start_matches("--");
            out.push_str(&format!(
                "complete -c sara -n '__fish_seen_subcommand_from {}' -l {long}{suffix}\n",
                c.name
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
    fn unknown_shell_is_a_usage_error() {
        let err = run(Args::new(&["powershell".to_string()], USAGE)).unwrap_err();
        assert!(matches!(&err, CliError::Usage(m) if m.contains("powershell")));
        assert!(matches!(
            run(Args::new(&[], USAGE)).unwrap_err(),
            CliError::Usage(m) if m.contains("which shell")
        ));
    }
}
