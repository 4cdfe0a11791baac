//! `serve_mix`: an in-process `sara_serve::Server` behind `serve_listener`
//! on a loopback TCP port, driven closed-loop over one client connection
//! (the next job is sent only after the previous summary arrived) with a
//! seeded shuffle of three job kinds:
//!
//! * `warm` — one catalog scenario × 6 policies at 0.05 ms, already in the
//!   result cache from the cold fill: 6 cache hits, a large reply;
//! * `fresh` — a generated scenario sent inline × QoS, FCFS at 0.05 ms:
//!   2 misses, simulated and inserted;
//! * `screened` — `saturation`, `adas-overload` × 266/333/400 MHz with
//!   `"screen":"prune"`: 36 cells answered by the analytic screener.
//!
//! The same cache is read, grown and bypassed in one process, so a gain on
//! the hit path that costs the insert path (or memory) shows.
//!
//! The schedule's length is fixed by `--seconds` (jobs per budgeted second,
//! sized so that the seed host is done in about two thirds of the budget
//! and a host half as fast still fits) rather than by the clock: the cache
//! and the resident set depend on how many jobs ran, so a faster server
//! must not be handed more of them.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::linux::net::TcpStreamExt;
use std::time::Instant;

use json::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sara_scenarios::{catalog, random_scenario_with, GeneratorConfig};
use sara_serve::{Journal, ServeConfig, Server};
use sara_types::Clock;

use crate::host;
use crate::outcome::{Checks, Outcome, Reading, RunArgs};
use crate::stats;
use crate::trace::Tracer;

/// The schedule is made of rounds with the same jobs by kind in each: one
/// `warm` job per catalog scenario, [`FRESH_PER_ROUND`] `fresh` and
/// [`SCREENED_PER_ROUND`] `screened` ones, so that the cache-read and the
/// simulate-and-insert paths each take a little under half of a round and
/// the screener the rest. Equal rounds can be compared: the quiet-host
/// time of a round is the tenth percentile of the rounds' times.
const FRESH_PER_ROUND: usize = 8;
const SCREENED_PER_ROUND: usize = 5;

/// Rounds per budgeted second; one takes about 0.4 s on the seed host,
/// so the session is done in under two thirds of the budget and a host half
/// as fast still fits.
const ROUNDS_PER_S: f64 = 1.5;

/// Simulated milliseconds per catalog cell (cold fill and `warm`). A cache
/// hit costs the same whatever the cell's length; a short one keeps the
/// cold fill, which every run repeats [`SETUP_REPS`] times, short.
const WARM_MS: f64 = 0.05;
/// Simulated milliseconds per `fresh` cell.
const FRESH_MS: f64 = 0.05;

/// Set-ups (server start + cold fill) timed per run: one before the
/// session, the session's own, and one after it.
const SETUP_REPS: usize = 3;

/// Server-side journal spans are added to the Chrome trace for this many
/// jobs; the client spans cover every job.
const TRACED_SERVER_JOBS: u64 = 200;

/// The three kinds of job in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Six cache hits.
    Warm,
    /// Two misses: simulated and inserted.
    Fresh,
    /// Thirty-six analytically screened cells.
    Screened,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Warm => "warm",
            Kind::Fresh => "fresh",
            Kind::Screened => "screened",
        }
    }
}

/// One job of the schedule: the request line and what its summary must
/// say.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Which kind.
    pub kind: Kind,
    /// The `submit` record, newline-terminated.
    pub line: String,
    /// Cells the job lowers into.
    pub cells: u64,
    /// For `warm`: index of the catalog scenario whose cold answer the
    /// cell records must equal.
    pub catalog: usize,
    /// DRAM cycles the server must simulate for the job.
    pub sim_cycles: u64,
}

fn submit_line(id: &str, rest: &str) -> String {
    format!("{{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"{id}\",{rest}}}\n")
}

/// The submit for catalog scenario `name` under all six policies — the
/// cold fill and every `warm` job send this same line (same id), so a
/// warm reply must equal the cold one byte for byte.
fn catalog_line(name: &str) -> String {
    submit_line(
        &format!("cat-{name}"),
        &format!("\"scenarios\":[\"{name}\"],\"duration_ms\":{WARM_MS}"),
    )
}

fn fresh_job(seed: u64, i: u64) -> Job {
    let scenario = random_scenario_with(
        &GeneratorConfig::default(),
        seed.wrapping_mul(1_000_003).wrapping_add(i),
    );
    let doc = scenario.to_json_value().to_string_compact();
    Job {
        kind: Kind::Fresh,
        line: submit_line(
            &format!("fresh-{i}"),
            &format!(
                "\"scenarios\":[{doc}],\"policies\":[\"QoS\",\"FCFS\"],\"duration_ms\":{FRESH_MS}"
            ),
        ),
        cells: 2,
        catalog: 0,
        sim_cycles: 2 * Clock::new(scenario.freq).cycles_from_ms(FRESH_MS),
    }
}

fn screened_job() -> Job {
    Job {
        kind: Kind::Screened,
        line: submit_line(
            "screened",
            "\"scenarios\":[\"saturation\",\"adas-overload\"],\"freqs_mhz\":[266,333,400],\"screen\":\"prune\"",
        ),
        cells: 36,
        catalog: 0,
        sim_cycles: 0,
    }
}

/// Jobs in one round of the schedule.
fn round_len(catalog_names: &[String]) -> usize {
    catalog_names.len() + FRESH_PER_ROUND + SCREENED_PER_ROUND
}

/// Builds the job schedule for `seed`: a number of rounds fixed by
/// `seconds`, each holding the same jobs by kind (its `fresh` scenarios
/// are new ones) in an order shuffled by the seed.
pub fn schedule(seed: u64, seconds: f64, catalog_names: &[String]) -> Vec<Job> {
    let rounds = ((ROUNDS_PER_S * seconds).round() as u64).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut jobs = Vec::new();
    for r in 0..rounds {
        let start = jobs.len();
        jobs.extend(catalog_names.iter().enumerate().map(|(k, name)| Job {
            kind: Kind::Warm,
            line: catalog_line(name),
            cells: 6,
            catalog: k,
            sim_cycles: 0,
        }));
        let fresh = FRESH_PER_ROUND as u64;
        jobs.extend((r * fresh..(r + 1) * fresh).map(|i| fresh_job(seed, i)));
        jobs.extend((0..SCREENED_PER_ROUND).map(|_| screened_job()));
        let round = &mut jobs[start..];
        for i in (1..round.len()).rev() {
            round.swap(i, rng.gen_range(0..i + 1));
        }
    }
    jobs
}

impl Reply {
    fn ms(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64() * 1e3
    }
}

/// What came back for one job.
struct Reply {
    sent: Instant,
    accepted: Option<Instant>,
    first_cell: Option<Instant>,
    done: Instant,
    cells: u64,
    bytes: usize,
    cell_digest: u64,
    /// `(cells, cache_hits, cache_misses, screened)` of the summary.
    summary: Option<[u64; 4]>,
    error: Option<String>,
}

/// One client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    cell_lines: Vec<u8>,
    line: Vec<u8>,
}

fn parse_line(line: &[u8]) -> io::Result<Value> {
    json::parse(&String::from_utf8_lossy(line))
        .map_err(|e| io::Error::other(format!("bad reply: {e:?}")))
}

const CELL: &[u8] = br#"{"format":"sara-serve/v1","type":"cell""#;
const ACCEPTED: &[u8] = br#"{"format":"sara-serve/v1","type":"accepted""#;

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::with_capacity(256 << 10, stream.try_clone()?),
            writer: stream,
            cell_lines: Vec::new(),
            line: Vec::new(),
        })
    }

    /// Sends one record and reads one reply line.
    fn ask(&mut self, record: &str) -> io::Result<Value> {
        self.writer.write_all(record.as_bytes())?;
        self.line.clear();
        self.reader.read_until(b'\n', &mut self.line)?;
        parse_line(&self.line)
    }

    /// Submits one job and reads its reply stream up to the `summary` (or
    /// `error`) record. The clock stops when that record has arrived;
    /// hashing the cell lines happens after.
    fn submit(&mut self, line: &str, spans: bool) -> io::Result<Reply> {
        self.cell_lines.clear();
        let sent = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        // The server writes a reply through an unbuffered `TcpStream`, in
        // thousands of pieces. Left to delay its ACKs, the client would
        // make every job wait out the kernel's 40 ms timer, and that timer
        // would be all this workload measures. The kernel drops the flag
        // again on its own, hence once per job.
        self.writer.set_quickack(true)?;
        let (mut accepted, mut first_cell) = (None, None);
        let mut cells = 0u64;
        let mut bytes = 0usize;
        let last = loop {
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                return Err(io::Error::other("server closed the session mid-job"));
            }
            bytes += self.line.len();
            if self.line.starts_with(CELL) {
                if spans && first_cell.is_none() {
                    first_cell = Some(Instant::now());
                }
                cells += 1;
                self.cell_lines.extend_from_slice(&self.line);
            } else if self.line.starts_with(ACCEPTED) {
                if spans {
                    accepted = Some(Instant::now());
                }
            } else {
                break Instant::now();
            }
        };
        let record = parse_line(&self.line)?;
        let field = |k: &str| record.get(k).and_then(Value::as_u64).unwrap_or(0);
        let is_summary = record.get("type").and_then(Value::as_str) == Some("summary");
        Ok(Reply {
            sent,
            accepted,
            first_cell,
            done: last,
            cells,
            bytes,
            cell_digest: stats::fnv1a(stats::FNV_OFFSET, &self.cell_lines),
            summary: is_summary.then(|| {
                [
                    field("cells"),
                    field("cache_hits"),
                    field("cache_misses"),
                    field("screened"),
                ]
            }),
            error: (!is_summary)
                .then(|| String::from_utf8_lossy(&self.line).trim_end().to_string()),
        })
    }

    fn shutdown(mut self) -> io::Result<()> {
        self.writer
            .write_all(b"{\"format\":\"sara-serve/v1\",\"type\":\"shutdown\"}\n")
    }
}

/// Fills the cache with the whole catalog over one session; returns the
/// digest of each scenario's cell records (the cold answers).
fn cold_fill(addr: SocketAddr, names: &[String], checks: &mut Checks) -> io::Result<Vec<u64>> {
    let mut client = Client::connect(addr)?;
    let mut digests = Vec::with_capacity(names.len());
    for name in names {
        let reply = client.submit(&catalog_line(name), false)?;
        checks.op(
            reply.summary == Some([6, 0, 6, 0]) && reply.cells == 6,
            || {
                format!(
                    "cold fill of {name}: summary {:?}, error {:?}",
                    reply.summary, reply.error
                )
            },
        );
        digests.push(reply.cell_digest);
    }
    client.shutdown()?;
    Ok(digests)
}

/// Starts a server on a loopback port for `sessions` sessions and runs
/// `body` against it; returns once every session has drained.
fn with_server<T>(
    server: &Server,
    sessions: usize,
    body: impl FnOnce(SocketAddr) -> io::Result<T>,
) -> io::Result<T> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| {
        let accept = scope.spawn(|| server.serve_listener(&listener, Some(sessions)));
        let out = body(addr);
        if out.is_err() {
            // Unblock `accept` so the scope can end: use up the sessions
            // the failed body did not open.
            for _ in 0..sessions {
                let _ = TcpStream::connect(addr);
            }
        }
        accept
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))??;
        out
    })
}

fn new_server(trace: bool) -> Server {
    let server = Server::new(ServeConfig {
        workers: host::nproc(),
        ..ServeConfig::default()
    });
    if trace {
        server.with_journal(Journal::new(None, true))
    } else {
        server
    }
}

/// The metric `name` as the median `dur_us` of the journal events called
/// one of `names`; 0 when there are none.
fn journal_p50(name: &str, events: &[Value], names: &[&str]) -> Reading {
    let durs: Vec<f64> = events
        .iter()
        .filter(|e| {
            e.get("event")
                .and_then(Value::as_str)
                .is_some_and(|n| names.contains(&n))
        })
        .filter_map(|e| e.get("dur_us").and_then(Value::as_f64))
        .collect();
    if durs.is_empty() {
        Reading::new(name, 0.0, 0)
    } else {
        Reading::median(name, &durs)
    }
}

/// What the measured session brings back.
struct Measured {
    /// Replies in schedule order.
    replies: Vec<Reply>,
    /// The server's `stats` reply after the last job.
    stats: Value,
}

/// Sends the whole schedule over one closed-loop connection.
fn measure(
    addr: SocketAddr,
    jobs: &[Job],
    trace: bool,
    checks: &mut Checks,
) -> io::Result<Measured> {
    let mut client = Client::connect(addr)?;
    let mut replies = Vec::with_capacity(jobs.len());
    for job in jobs {
        replies.push(client.submit(&job.line, trace)?);
    }
    let stats = client.ask("{\"format\":\"sara-serve/v1\",\"type\":\"stats\"}\n")?;
    if trace {
        let metrics = client.ask("{\"format\":\"sara-serve/v1\",\"type\":\"metrics\"}\n")?;
        let text = metrics
            .get("exposition")
            .and_then(Value::as_str)
            .unwrap_or("");
        checks.op(
            sara_serve::STAGE_HISTOGRAMS
                .iter()
                .all(|h| text.contains(&format!("{h}_count"))),
            || "the metrics record lacks a stage histogram".to_string(),
        );
    }
    client.shutdown()?;
    Ok(Measured { replies, stats })
}

/// Runs the workload.
///
/// # Errors
///
/// Returns any I/O error of the loopback transport; refused or failed
/// jobs and verification mismatches are tallied in the outcome instead.
pub fn run(args: &RunArgs, tracer: &mut Tracer) -> io::Result<Outcome> {
    let names = catalog::names();
    let jobs = schedule(args.seed, args.seconds, &names);
    let mut checks = Checks::default();

    // One throw-away set-up: a server on a loopback port, cold-filled.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut spare_setup = |checks: &mut Checks| -> io::Result<()> {
        let t0 = Instant::now();
        let server = new_server(args.trace);
        with_server(&server, 1, |addr| cold_fill(addr, &names, checks))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok(())
    };
    spare_setup(&mut checks)?;
    let t0 = Instant::now();
    tracer.rebase(t0);
    tracer.track(1, "client");
    let server = new_server(args.trace);
    // `cold`: digest of each catalog scenario's cold cell records;
    // `cold_events`: journal events the cold fill left (not a stage figure).
    let (cold, own_setup_s, cold_events, m) = with_server(&server, 2, |addr| {
        let cold = cold_fill(addr, &names, &mut checks)?;
        let own_setup_s = t0.elapsed().as_secs_f64();
        let cold_events = server.journal_events().len();
        let m = measure(addr, &jobs, args.trace, &mut checks)?;
        Ok((cold, own_setup_s, cold_events, m))
    })?;
    spare_setup(&mut checks)?;
    setup_s.push(own_setup_s);

    // Verify every job and sort its latency by kind, by round and — the
    // warm ones — by catalog scenario.
    let mut latency: [Vec<f64>; 3] = Default::default();
    let mut round_ms = vec![0.0f64; jobs.len() / round_len(&names)];
    let mut warm_ms: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let (mut warm_bytes, mut cells_answered, mut sim_cycles) = (0usize, 0u64, 0u64);
    let (mut accept_us, mut first_cell_us) = (Vec::new(), Vec::new());
    let mut digest = cold
        .iter()
        .fold(stats::FNV_OFFSET, |h, d| stats::fnv1a(h, &d.to_le_bytes()));
    for (i, (job, reply)) in jobs.iter().zip(&m.replies).enumerate() {
        let want = match job.kind {
            Kind::Warm => [6, 6, 0, 0],
            Kind::Fresh => [2, 0, 2, 0],
            Kind::Screened => [36, 0, 0, 36],
        };
        let bytes_ok = job.kind != Kind::Warm || reply.cell_digest == cold[job.catalog];
        checks.op(
            reply.summary == Some(want) && reply.cells == job.cells && bytes_ok,
            || {
                format!(
                    "{} job {i}: summary {:?} (want {want:?}), {} cell records, equals the cold answer: {bytes_ok}, error {:?}",
                    job.kind.name(),
                    reply.summary,
                    reply.cells,
                    reply.error
                )
            },
        );
        latency[job.kind as usize].push(reply.ms());
        round_ms[i / round_len(&names)] += reply.ms();
        cells_answered += reply.cells;
        sim_cycles += job.sim_cycles;
        if job.kind == Kind::Warm {
            warm_ms[job.catalog].push(reply.ms());
            warm_bytes += reply.bytes;
        } else {
            // Fresh and screened answers are a function of the seed alone.
            digest = stats::fnv1a(digest, &reply.cell_digest.to_le_bytes());
        }
        if let (Some(accepted), Some(first_cell)) = (reply.accepted, reply.first_cell) {
            let us = |at: Instant| at.duration_since(reply.sent).as_secs_f64() * 1e6;
            accept_us.push(us(accepted));
            first_cell_us.push(us(first_cell));
            let name = format!("{} {i}", job.kind.name());
            let span = tracer.span(1, &name, "benchmark", reply.sent, reply.done, None);
            tracer.span(1, "accept", "serve", reply.sent, accepted, Some(span));
            tracer.span(1, "first cell", "serve", accepted, first_cell, Some(span));
            tracer.span(1, "stream", "serve", first_cell, reply.done, Some(span));
        }
    }

    let total = m.replies.len();
    let [warm, fresh, screened] = &latency;
    // Closed loop over one connection: a round is as long as its jobs, and
    // the session as its rounds, each at the quiet-host time of a round.
    let session_s = round_ms.len() as f64 * stats::quiet(&round_ms) / 1e3;
    // A warm job's quiet-host latency, averaged over the catalog.
    let warm_job_ms = warm_ms.iter().map(|ms| stats::quiet(ms)).sum::<f64>() / names.len() as f64;
    let counter = |k: &str| {
        m.stats
            .get("counters")
            .and_then(|c| c.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let (hits, misses) = (counter("cache_hits"), counter("cache_misses"));
    let sent = (total + names.len()) as u64;
    checks.op(counter("jobs_accepted") == sent, || {
        format!(
            "the server accepted {} jobs, the client sent {sent}",
            counter("jobs_accepted")
        )
    });

    let readings = if args.trace {
        let events = server.journal_events();
        let measured = &events[cold_events.min(events.len())..];
        let job_no = |e: &Value| e.get("job").and_then(Value::as_u64);
        let first_job = measured.first().and_then(job_no).unwrap_or(0);
        let sample: Vec<Value> = measured
            .iter()
            .filter(|e| job_no(e).is_some_and(|j| j < first_job + TRACED_SERVER_JOBS))
            .cloned()
            .collect();
        tracer.extend(&sara_serve::journal::chrome_trace_of(&sample).to_value());
        let stage = |name: &str, events: &[&str]| journal_p50(name, measured, events);
        vec![
            Reading::median("serve.warm_job_p50_ms", warm),
            Reading::new(
                "serve.warm_job_p95_ms",
                stats::percentile(warm, 95.0),
                warm.len(),
            ),
            Reading::median("serve.fresh_job_p50_ms", fresh),
            Reading::median("serve.screened_job_p50_ms", screened),
            Reading::median("serve.accept_us_p50", &accept_us),
            Reading::median("serve.first_cell_us_p50", &first_cell_us),
            stage("serve.cache_lookup_us_p50", &["cache_hit", "cache_miss"]),
            stage("serve.queue_wait_us_p50", &["sim_start"]),
            stage("serve.sim_us_p50", &["sim_end"]),
            stage("serve.emit_us_p50", &["emitted"]),
            Reading::new(
                "serve.bytes_per_warm_job",
                warm_bytes as f64 / warm.len() as f64,
                warm.len(),
            ),
            Reading::new("serve.cache_entries", server.cache_len() as f64, 1),
            Reading::new(
                "serve.cache_hit_ratio",
                hits as f64 / (hits + misses) as f64,
                1,
            ),
        ]
    } else {
        vec![
            Reading::quiet("setup_s", &setup_s),
            Reading::new(
                "sim_mcycles_per_s",
                sim_cycles as f64 / session_s / 1e6,
                total,
            ),
            Reading::new("cells_per_s", cells_answered as f64 / session_s, total),
            Reading::new("jobs_per_s", total as f64 / session_s, total),
            Reading::new("job_ms", warm_job_ms, warm.len()),
            Reading::new("peak_rss_mb", host::peak_rss_mb(), 1),
        ]
    };
    Ok(Outcome {
        readings,
        checks,
        sim_digest: digest,
        counts: vec![
            ("jobs", total as u64),
            ("rounds", round_ms.len() as u64),
            ("warm_jobs", warm.len() as u64),
            ("fresh_jobs", fresh.len() as u64),
            ("screened_jobs", screened.len() as u64),
            ("workers", host::nproc() as u64),
            ("cells_answered", cells_answered),
            ("sim_cycles", sim_cycles),
            ("cache_entries", server.cache_len() as u64),
        ],
        job_ms: warm_job_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_schedule() {
        let names = catalog::names();
        let a = schedule(7, 2.0, &names);
        assert_eq!(a, schedule(7, 2.0, &names));
        let b = schedule(8, 2.0, &names);
        assert_ne!(a, b);
        // Every round holds the same jobs by kind whatever the seed, with
        // one warm job per catalog scenario, and no fresh job comes twice.
        for jobs in [&a, &b] {
            assert_eq!(jobs.len(), 3 * round_len(&names));
            for round in jobs.chunks(round_len(&names)) {
                let of = |k: Kind| round.iter().filter(|j| j.kind == k).count();
                assert_eq!(of(Kind::Fresh), FRESH_PER_ROUND);
                assert_eq!(of(Kind::Screened), SCREENED_PER_ROUND);
                let mut warm: Vec<usize> = round
                    .iter()
                    .filter(|j| j.kind == Kind::Warm)
                    .map(|j| j.catalog)
                    .collect();
                warm.sort_unstable();
                assert_eq!(warm, (0..names.len()).collect::<Vec<_>>());
            }
            let mut fresh: Vec<&str> = jobs
                .iter()
                .filter(|j| j.kind == Kind::Fresh)
                .map(|j| j.line.as_str())
                .collect();
            fresh.sort_unstable();
            fresh.dedup();
            assert_eq!(fresh.len(), 3 * FRESH_PER_ROUND);
        }
        // Every request is one line the server's strict parser accepts.
        for job in &a {
            assert_eq!(job.line.matches('\n').count(), 1);
            assert!(sara_serve::protocol::parse_request(job.line.trim_end()).is_ok());
        }
    }
}
