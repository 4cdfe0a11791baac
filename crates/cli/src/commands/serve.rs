//! `sara serve` — the long-lived NDJSON simulation service.
//!
//! A thin shim over [`sara_serve::Server`]: parse the transport and pool
//! flags, build the server, and hand the chosen byte streams to it. All
//! protocol behaviour (and its tests) lives in the `sara-serve` crate;
//! the wire format is specified in `docs/serve-protocol.md`.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use sara_serve::{journal, Journal, ServeConfig, Server, DEFAULT_CACHE_MAX_BYTES};

use crate::args::{count, Args, CliError};
use crate::output::{emit_value, page};

pub(crate) const USAGE: &str =
    "usage: sara serve [--tcp ADDR | --unix PATH] [--workers N] [--budget N] \
     [--cache-max-bytes N] [--max-sessions N] [--journal PATH] [--journal-max-bytes N] \
     [--metrics ADDR] [--chrome-trace PATH]";

pub(crate) const HELP: &str = "\
sara serve — long-lived NDJSON simulation service

usage: sara serve [options]

Accepts `sara-serve/v1` requests as newline-delimited JSON and streams
replies the same way (see docs/serve-protocol.md). Each submitted job is
lowered into the same scenario x policy x frequency x channel cells as
`sara matrix`; results are byte-identical to the batch harness for any
worker count or cache state. A content-addressed cache guarantees no
cell is simulated twice within a job, nor twice across jobs while its
entry is within the cache's byte budget.

With no transport flag the session runs over stdin/stdout (one session,
then exit — shell-pipeline friendly):

  printf '%s\\n' '{\"format\":\"sara-serve/v1\",\"type\":\"ping\"}' | sara serve

  --tcp ADDR            listen on a TCP address (e.g. 127.0.0.1:7979);
                        prints the bound address, serves until killed
  --unix PATH           listen on a Unix socket path instead
  --max-sessions N      with --tcp/--unix: exit after N sessions
                        (default: serve forever)
  --workers N           worker threads per job (default: all cores);
                        never changes output bytes, only wall-clock
  --budget N            per-client admission budget: max outstanding
                        cells per client across its in-flight jobs
                        (default 4096)
  --cache-max-bytes N   the result cache's byte budget of rendered JSON
                        (default 2097152 = 2 MiB; 0 keeps nothing); past
                        it the cells nobody reads again are evicted
                        first, which moves hit/miss counts, never bytes

Observability (see docs/observability.md):

  --journal PATH        write one `sara-serve-journal/v1` NDJSON event
                        per job/cell lifecycle transition (accepted,
                        queued, cache hit/miss, screened, sim start/end,
                        emitted, evicted, rejected); feed the file to
                        `sara report` for per-stage latency quantiles
  --journal-max-bytes N rotate the journal when the next event would push
                        it past N bytes: PATH is renamed to PATH.1
                        (replacing any previous PATH.1) and a fresh PATH
                        begins; rotation happens only on event boundaries,
                        so both files always hold complete NDJSON lines
  --metrics ADDR        serve the full metrics registry — stats counters,
                        wall-clock stage histograms, per-client series —
                        as a Prometheus text exposition over HTTP
                        (e.g. 127.0.0.1:9590); the bound address is
                        printed to stderr so port 0 works in scripts
  --chrome-trace PATH   when the service exits, write a Chrome
                        trace-event view of the whole session: one track
                        per worker with simulation spans, plus a session
                        track with emit spans and admission markers

Sessions are sequential: one misbehaving client cannot interleave bytes
into another session's stream, and results within a job always arrive
in submission order.";

/// Runs the subcommand.
///
/// # Errors
///
/// Usage error for conflicting transports or bad values; runtime failure
/// when the listener cannot bind or a session dies on I/O.
pub(crate) fn run(mut args: Args) -> Result<(), CliError> {
    let tcp = args.take_opt("--tcp")?;
    let unix = args.take_opt("--unix")?;
    let workers = args.take_one("--workers", count)?.unwrap_or(0);
    let budget = args
        .take_one("--budget", count)?
        .unwrap_or_else(|| ServeConfig::default().budget);
    let cache_max_bytes = args
        .take_parsed::<usize>("--cache-max-bytes")?
        .unwrap_or(DEFAULT_CACHE_MAX_BYTES);
    let max_sessions = args.take_one("--max-sessions", count)?;
    let journal_path = args.take_opt("--journal")?;
    let journal_max_bytes = args.take_one("--journal-max-bytes", count)?;
    let metrics_addr = args.take_opt("--metrics")?;
    let chrome_path = args.take_opt("--chrome-trace")?;
    args.finish()?;

    if journal_max_bytes.is_some() && journal_path.is_none() {
        return Err(CliError::usage(
            USAGE,
            "--journal-max-bytes needs --journal PATH",
        ));
    }

    if tcp.is_some() && unix.is_some() {
        return Err(CliError::usage(
            USAGE,
            "--tcp and --unix are mutually exclusive",
        ));
    }
    if max_sessions.is_some() && tcp.is_none() && unix.is_none() {
        return Err(CliError::usage(
            USAGE,
            "--max-sessions needs a listener (--tcp or --unix)",
        ));
    }

    let journal = if journal_path.is_some() || chrome_path.is_some() {
        let writer: Option<Box<dyn Write + Send>> = match &journal_path {
            Some(path) => {
                let fail =
                    |e: io::Error| CliError::Failure(format!("cannot create journal {path}: {e}"));
                Some(match journal_max_bytes {
                    Some(max) => Box::new(RotatingWriter::create(path, max).map_err(fail)?),
                    None => Box::new(File::create(path).map_err(fail)?),
                })
            }
            None => None,
        };
        // The Chrome export replays the whole session, so it needs the
        // events retained in memory.
        Journal::new(writer, chrome_path.is_some())
    } else {
        Journal::disabled()
    };

    let config = ServeConfig {
        workers,
        budget,
        cache_max_bytes,
    };
    let server = Arc::new(Server::new(config).with_journal(journal));

    if let Some(addr) = &metrics_addr {
        let listener = TcpListener::bind(addr)
            .map_err(|e| CliError::Failure(format!("cannot bind metrics {addr}: {e}")))?;
        let bound = listener
            .local_addr()
            .map_err(|e| CliError::Failure(format!("{addr}: {e}")))?;
        // Stderr, not stdout: in stdio mode stdout is the protocol stream.
        eprintln!("metrics on {bound}");
        let scrape_target = Arc::clone(&server);
        std::thread::spawn(move || serve_metrics(&listener, &scrape_target));
    }

    let result = serve(&server, tcp, unix, max_sessions);

    if let Some(path) = &chrome_path {
        let doc = journal::chrome_trace_of(&server.journal_events()).to_value();
        std::fs::write(path, emit_value(&doc, false))
            .map_err(|e| CliError::Failure(format!("cannot write trace {path}: {e}")))?;
    }
    result
}

/// A size-capped journal sink: when the next complete NDJSON line would
/// push the file past `max_bytes`, the current file is renamed to
/// `PATH.1` (replacing any previous rotation) and a fresh `PATH` begins.
///
/// Incoming bytes are buffered until a newline and flushed to disk one
/// complete line at a time, so a rotation boundary can never split an
/// event — both files always parse as NDJSON. A single line larger than
/// the cap still rotates first and is then written whole.
struct RotatingWriter {
    path: std::path::PathBuf,
    file: File,
    max_bytes: u64,
    written: u64,
    /// Bytes received but not yet terminated by a newline.
    pending: Vec<u8>,
}

impl RotatingWriter {
    fn create(path: &str, max_bytes: u64) -> io::Result<Self> {
        Ok(Self {
            path: std::path::PathBuf::from(path),
            file: File::create(path)?,
            max_bytes,
            written: 0,
            pending: Vec::new(),
        })
    }

    /// Writes one complete line, rotating first when it would cross the
    /// cap (never rotating an empty file, so oversized lines land whole).
    fn write_line(&mut self, line: &[u8]) -> io::Result<()> {
        if self.written > 0 && self.written + line.len() as u64 > self.max_bytes {
            self.file.flush()?;
            let rotated = self.path.with_extension(rotated_extension(&self.path));
            std::fs::rename(&self.path, rotated)?;
            self.file = File::create(&self.path)?;
            self.written = 0;
        }
        self.file.write_all(line)?;
        self.written += line.len() as u64;
        Ok(())
    }
}

/// The `PATH.1` extension for a rotated journal (`journal.ndjson` →
/// `journal.ndjson.1`).
fn rotated_extension(path: &std::path::Path) -> std::ffi::OsString {
    let mut ext = path.extension().unwrap_or_default().to_os_string();
    if !ext.is_empty() {
        ext.push(".");
    }
    ext.push("1");
    ext
}

impl Write for RotatingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(buf);
        // Flush every complete line; a trailing fragment waits for its
        // newline (journal events arrive one full line per write, so the
        // buffer is almost always drained to empty here).
        while let Some(nl) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=nl).collect();
            self.write_line(&line)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl Drop for RotatingWriter {
    fn drop(&mut self) {
        // An unterminated trailing fragment (nothing the journal emits,
        // but Write allows it) is not silently lost.
        if !self.pending.is_empty() {
            let line = std::mem::take(&mut self.pending);
            let _ = self.write_line(&line);
        }
        let _ = self.file.flush();
    }
}

fn serve(
    server: &Server,
    tcp: Option<String>,
    unix: Option<String>,
    max_sessions: Option<usize>,
) -> Result<(), CliError> {
    if let Some(addr) = tcp {
        let listener = TcpListener::bind(&addr)
            .map_err(|e| CliError::Failure(format!("cannot bind {addr}: {e}")))?;
        let bound = listener
            .local_addr()
            .map_err(|e| CliError::Failure(format!("{addr}: {e}")))?;
        // Stdout is free in listener mode; scripts bind port 0 and read
        // the line back to learn the port.
        page(format!("listening on {bound}"));
        io::stdout().flush().ok();
        server
            .serve_listener(&listener, max_sessions)
            .map_err(|e| CliError::Failure(format!("serve: {e}")))
    } else if let Some(path) = unix {
        serve_unix(server, &path, max_sessions)
    } else {
        // Stdio mode: stdout *is* the protocol stream, so nothing else
        // may write to it.
        let stdin = io::stdin();
        let stdout = io::stdout();
        server
            .handle_session(BufReader::new(stdin.lock()), stdout.lock())
            .map_err(|e| CliError::Failure(format!("serve: {e}")))
    }
}

/// The most bytes of an HTTP request head (request line, headers, blank
/// line) a scrape may send: 8 KiB, the usual server limit and two orders
/// of magnitude above what Prometheus or `curl` sends. A longer head is
/// dropped unanswered, so a newline-free stream cannot grow the buffer.
const MAX_SCRAPE_HEAD: u64 = 8 << 10;

/// How long a scrape may keep the metrics thread waiting for its next
/// byte. Scrapes are answered one at a time, so without it a peer that
/// connects and sends nothing would block every later scrape for the life
/// of the server.
const SCRAPE_READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Answers every HTTP request on `listener` with the server's current
/// Prometheus text exposition. Runs on a detached thread; process exit
/// reaps it.
fn serve_metrics(listener: &TcpListener, server: &Server) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let _ = answer_scrape(stream, server);
    }
}

fn answer_scrape(stream: TcpStream, server: &Server) -> io::Result<()> {
    stream.set_read_timeout(Some(SCRAPE_READ_TIMEOUT))?;
    // Drain the request head; the path is irrelevant — every request
    // gets the exposition. The cap is over the whole head, not per line.
    let mut head = BufReader::new((&stream).take(MAX_SCRAPE_HEAD));
    let mut line = String::new();
    let mut ended = false;
    while !ended && head.read_line(&mut line)? > 0 {
        ended = line == "\r\n" || line == "\n";
        line.clear();
    }
    if !ended && head.get_ref().limit() == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("request head exceeds {MAX_SCRAPE_HEAD} bytes"),
        ));
    }
    let body = server.prometheus_text();
    let mut stream = &stream;
    write!(
        stream,
        "HTTP/1.0 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(unix)]
fn serve_unix(server: &Server, path: &str, max_sessions: Option<usize>) -> Result<(), CliError> {
    use std::os::unix::net::UnixListener;
    // A stale socket file from a previous run would fail the bind with
    // AddrInUse even though nothing is listening; binding is the rendezvous.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)
        .map_err(|e| CliError::Failure(format!("cannot bind {path}: {e}")))?;
    page(format!("listening on {path}"));
    io::stdout().flush().ok();
    let result = server
        .serve_unix(&listener, max_sessions)
        .map_err(|e| CliError::Failure(format!("serve: {e}")));
    let _ = std::fs::remove_file(path);
    result
}

#[cfg(not(unix))]
fn serve_unix(_server: &Server, _path: &str, _max: Option<usize>) -> Result<(), CliError> {
    Err(CliError::Failure(
        "--unix is only supported on Unix platforms".to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Args<'static> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Args::new(&owned, USAGE)
    }

    #[test]
    fn conflicting_transports_are_a_usage_error() {
        let err = run(argv(&["--tcp", "127.0.0.1:0", "--unix", "/tmp/x"])).unwrap_err();
        assert!(matches!(&err, CliError::Usage(m) if m.contains("mutually exclusive")));
    }

    #[test]
    fn zero_budget_is_a_usage_error() {
        let err = run(argv(&["--budget", "0"])).unwrap_err();
        assert!(matches!(&err, CliError::Usage(m) if m.contains("--budget")));
    }

    #[test]
    fn max_sessions_requires_a_listener() {
        let err = run(argv(&["--max-sessions", "1"])).unwrap_err();
        assert!(matches!(&err, CliError::Usage(m) if m.contains("--max-sessions")));
        let err = run(argv(&["--tcp", "127.0.0.1:0", "--max-sessions", "0"])).unwrap_err();
        assert!(matches!(&err, CliError::Usage(m) if m.contains("--max-sessions must be ≥ 1")));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = run(argv(&["--port", "7979"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn journal_max_bytes_needs_a_journal_and_a_positive_cap() {
        let err = run(argv(&["--journal-max-bytes", "1024"])).unwrap_err();
        assert!(matches!(&err, CliError::Usage(m) if m.contains("--journal PATH")));
        let err = run(argv(&["--journal", "/tmp/j", "--journal-max-bytes", "0"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("--journal-max-bytes must be ≥ 1"))
        );
    }

    /// Every NDJSON property rotation must preserve: files hold only
    /// complete lines, nothing is lost, and the cap is honoured per line.
    fn assert_complete_lines(text: &str) {
        assert!(
            text.is_empty() || text.ends_with('\n'),
            "split line: {text:?}"
        );
        for line in text.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "torn: {line:?}"
            );
        }
    }

    #[test]
    fn rotation_never_splits_an_ndjson_line() {
        let dir = std::env::temp_dir().join(format!("sara-journal-rot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.ndjson");
        let path_str = path.to_str().unwrap();
        let lines: Vec<String> = (0..40)
            .map(|i| format!("{{\"event\":\"e{i}\",\"payload\":\"0123456789abcdef\"}}\n"))
            .collect();
        {
            let mut w = RotatingWriter::create(path_str, 256).unwrap();
            for line in &lines {
                // Stress the line-buffering: split each event across two
                // writes, so rotation decisions can never key off write()
                // boundaries.
                let (a, b) = line.as_bytes().split_at(line.len() / 2);
                w.write_all(a).unwrap();
                w.write_all(b).unwrap();
            }
            w.flush().unwrap();
        }
        let rotated = std::fs::read_to_string(dir.join("journal.ndjson.1")).unwrap();
        let current = std::fs::read_to_string(&path).unwrap();
        assert_complete_lines(&rotated);
        assert_complete_lines(&current);
        assert!(
            rotated.len() as u64 <= 256,
            "cap ignored: {}",
            rotated.len()
        );
        // The tail of the stream is intact and in order: rotated keeps
        // older events, current the newest, nothing dropped in between.
        assert!(current.contains("\"event\":\"e39\""));
        let survivors: Vec<&str> = rotated.lines().chain(current.lines()).collect();
        let all: Vec<&str> = lines.iter().map(|l| l.trim_end()).collect();
        assert!(all.ends_with(&survivors[..]), "events lost or reordered");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_lines_land_whole() {
        let dir = std::env::temp_dir().join(format!("sara-journal-big-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.ndjson");
        let big = format!("{{\"event\":\"{}\"}}\n", "x".repeat(300));
        {
            let mut w = RotatingWriter::create(path.to_str().unwrap(), 64).unwrap();
            w.write_all(b"{\"event\":\"small\"}\n").unwrap();
            w.write_all(big.as_bytes()).unwrap();
            w.flush().unwrap();
        }
        // The small event rotated out; the oversized line is whole in the
        // current file despite exceeding the cap on its own.
        let current = std::fs::read_to_string(&path).unwrap();
        assert_eq!(current, big);
        assert_complete_lines(&std::fs::read_to_string(dir.join("j.ndjson.1")).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
