//! Output-sink selection shared by every subcommand: `--json`/`--csv`
//! values name a file, or `-` for stdout. When a sink claims stdout, the
//! human-readable progress text moves to stderr so machine output stays
//! parseable in a pipe.

use std::io::{BufWriter, Write};
use std::path::PathBuf;

use json::Value;

use crate::args::CliError;

/// Where serialized output goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Sink {
    /// `-`: write to stdout.
    Stdout,
    /// Anything else: write (create/truncate) the named file.
    File(PathBuf),
}

impl Sink {
    /// Parses a `--json`/`--csv` flag value.
    pub(crate) fn parse(raw: &str) -> Sink {
        if raw == "-" {
            Sink::Stdout
        } else {
            Sink::File(PathBuf::from(raw))
        }
    }

    /// Whether this sink writes to stdout.
    pub(crate) fn is_stdout(&self) -> bool {
        matches!(self, Sink::Stdout)
    }

    /// Hands `emit` one `BufWriter` over the sink — the created file, or
    /// a locked stdout (a bare `Stdout` is line-buffered: one write per
    /// pretty line) — and flushes it, so a streamed document leaves in
    /// buffer-sized writes.
    ///
    /// A closed stdout pipe (the reader took what it wanted — `sara
    /// matrix --json - | head`) is success, not a panic or an error.
    ///
    /// # Errors
    ///
    /// Runtime failure naming the file on any I/O error.
    pub(crate) fn write_with(
        &self,
        emit: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
    ) -> Result<(), CliError> {
        fn through<W: Write>(
            sink: W,
            emit: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
        ) -> std::io::Result<()> {
            let mut out = BufWriter::new(sink);
            emit(&mut out)?;
            out.flush()
        }
        match self {
            Sink::Stdout => match through(std::io::stdout().lock(), emit) {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
                Err(e) => Err(CliError::Failure(format!("stdout: {e}"))),
            },
            Sink::File(path) => std::fs::File::create(path)
                .and_then(|file| through(file, emit))
                .map_err(|e| CliError::Failure(format!("{}: {e}", path.display()))),
        }
    }

    /// Writes one machine output through [`Sink::write_with`] and, when it
    /// went to a file, says so on the progress stream.
    ///
    /// # Errors
    ///
    /// As [`Sink::write_with`].
    pub(crate) fn deliver(
        &self,
        progress: Progress,
        emit: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
    ) -> Result<(), CliError> {
        self.write_with(emit)?;
        if let Sink::File(path) = self {
            progress.line(format!("wrote {}", path.display()));
        }
        Ok(())
    }
}

/// Serializes a JSON document for a sink: compact by default, pretty on
/// request (both via the shared `sara_compat_json` emitters), always with
/// a trailing newline.
pub(crate) fn emit_value(value: &Value, pretty: bool) -> String {
    let mut text = if pretty {
        value.to_string_pretty()
    } else {
        value.to_string_compact()
    };
    text.push('\n');
    text
}

/// Prints one human-readable line to stdout, tolerating a closed pipe:
/// `sara list | head` must exit cleanly once the reader has what it
/// wants, exactly like the machine sinks already do. All CLI
/// human-output paths route through this (or [`Progress::line`]) instead
/// of `println!`, whose default panic hook aborts on EPIPE.
pub(crate) fn page(text: impl AsRef<str>) {
    let _ = writeln!(std::io::stdout(), "{}", text.as_ref());
}

/// A progress printer that yields stdout to machine output when any sink
/// claims it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Progress {
    to_stderr: bool,
}

impl Progress {
    /// Checks a command's machine outputs, each `(flag, sink)`, as one
    /// set and chooses the progress stream: stderr when an output claims
    /// stdout, stdout otherwise.
    ///
    /// # Errors
    ///
    /// Usage error naming the first two flags that both claim stdout: the
    /// interleaved stream would be no valid document.
    pub(crate) fn for_outputs(
        outputs: &[(&str, &Option<Sink>)],
        usage: &str,
    ) -> Result<Progress, CliError> {
        let mut on_stdout = outputs
            .iter()
            .filter(|(_, sink)| sink.as_ref().is_some_and(Sink::is_stdout))
            .map(|(flag, _)| flag);
        let first = on_stdout.next();
        if let (Some(a), Some(b)) = (first, on_stdout.next()) {
            return Err(CliError::usage(
                usage,
                format!(
                    "at most one of {a}/{b} can write to stdout (`-`); send the other to a file"
                ),
            ));
        }
        Ok(Progress {
            to_stderr: first.is_some(),
        })
    }

    /// Prints one progress line on the chosen stream. A closed pipe drops
    /// the line instead of panicking mid-run.
    pub(crate) fn line(&self, text: impl AsRef<str>) {
        let _ = if self.to_stderr {
            writeln!(std::io::stderr(), "{}", text.as_ref())
        } else {
            writeln!(std::io::stdout(), "{}", text.as_ref())
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_parse_distinguishes_stdout() {
        assert_eq!(Sink::parse("-"), Sink::Stdout);
        assert!(Sink::parse("-").is_stdout());
        let file = Sink::parse("out/matrix.json");
        assert_eq!(file, Sink::File(PathBuf::from("out/matrix.json")));
        assert!(!file.is_stdout());
    }

    #[test]
    fn emit_value_is_newline_terminated_both_ways() {
        let v = Value::Object(vec![("a".to_string(), Value::UInt(1))]);
        let compact = emit_value(&v, false);
        let pretty = emit_value(&v, true);
        assert!(compact.ends_with('\n') && pretty.ends_with('\n'));
        assert!(compact.len() < pretty.len());
        assert_eq!(json::parse(compact.trim()).unwrap(), v);
        assert_eq!(json::parse(pretty.trim()).unwrap(), v);
    }

    #[test]
    fn two_outputs_on_stdout_are_refused_by_name() {
        let (stdout, file) = (Some(Sink::Stdout), Some(Sink::File(PathBuf::from("x"))));
        let outputs = [
            ("--json", &stdout),
            ("--csv", &file),
            ("--chrome-trace", &stdout),
        ];
        let err = Progress::for_outputs(&outputs, "u").unwrap_err();
        assert!(matches!(&err, CliError::Usage(m)
            if m.starts_with("at most one of --json/--chrome-trace can write to stdout")));
        let progress = Progress::for_outputs(&outputs[..2], "u").unwrap();
        assert!(progress.to_stderr);
        let progress = Progress::for_outputs(&[("--json", &file), ("--csv", &None)], "u").unwrap();
        assert!(!progress.to_stderr);
    }

    #[test]
    fn file_sink_write_failure_names_the_path() {
        let sink = Sink::File(PathBuf::from("/nonexistent-dir/x.json"));
        let err = sink.write_with(|w| w.write_all(b"x")).unwrap_err();
        assert!(matches!(&err, CliError::Failure(m) if m.contains("/nonexistent-dir/x.json")));
    }
}
