//! The long-lived simulation server: sessions, admission, job execution.
//!
//! A [`Server`] owns the process-wide state — the content-addressed
//! [`ResultCache`], the telemetry [`Registry`], and the per-client
//! admission ledger — and [`Server::handle_session`] runs one client
//! conversation over any `BufRead`/`Write` pair: stdin/stdout, a TCP
//! stream, or a Unix socket. Each `submit` takes the same steps as
//! `sara matrix` — `expand_cells`, `lower_cell`, `run_system` on
//! `run_ordered`, and `rank_cells` with `write_matrix_document` for its
//! artifact — which is what makes a served job byte-identical to the
//! equivalent batch run no matter the worker count, the cache state, or
//! the order jobs arrive in.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpListener;
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex};

use json::Value;
use sara_memctrl::PolicyKind;
use sara_scenarios::{
    catalog, cell_head_members, expand_cells, lower_cell, rank_cells, run_ordered, run_system,
    write_matrix_document, CellBody, CellSpec, LoweredCell, MatrixSpec, RankKey, Scenario,
    ScenarioFingerprint, ScreenMode,
};
use sara_sim::{AnalyticReport, SystemConfig, ENGINE_VERSION};
use sara_telemetry::{prometheus, Metric, Registry, TimeSource, WallClock};
use sara_types::ConfigError;

use crate::cache::{CachedReport, ResultCache};
use crate::journal::{Journal, EVENTS};
use crate::protocol::{self, JobRequest, JobSummary, Request, ScenarioRef};

/// The server's cumulative counters, registered in this order at
/// construction so `stats` replies list them deterministically.
pub const COUNTERS: [&str; 8] = [
    "jobs_accepted",
    "jobs_rejected",
    "jobs_failed",
    "cells_total",
    "cells_screened",
    "cache_hits",
    "cache_misses",
    "protocol_errors",
];

/// The longest request line a session holds in memory, in bytes
/// (terminator excluded): 1 MiB, two orders of magnitude above a catalog
/// scenario sent inline. A longer line is answered with an `error` record
/// and skipped, so a newline-free stream cannot grow the server's memory.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// The capacity of a session's reply buffer, in bytes: 64 KiB, above a
/// warm catalog job's whole reply (about 50 KB) and a screened job's. The
/// buffer is written when it is full, at the end of every reply, and just
/// before the session waits for a cell to be simulated, so a reply whose
/// cells are all ready leaves in one write and no record waits behind a
/// simulation.
pub const REPLY_BUFFER: usize = 64 << 10;

/// Tunables of one server instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads per job (0 = one per available core). Never changes
    /// results, only wall-clock.
    pub workers: usize,
    /// Per-client admission budget: the most cells one client may have
    /// outstanding across its in-flight jobs.
    pub budget: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            budget: 4096,
        }
    }
}

/// A running service instance; shared by every session.
#[derive(Debug)]
pub struct Server {
    config: ServeConfig,
    workers: usize,
    clock: Box<dyn TimeSource>,
    journal: Journal,
    /// Every catalog scenario, resolved once, with its fingerprint prefix:
    /// a job that names one neither rebuilds nor re-hashes it.
    catalog: Vec<(Scenario, ScenarioFingerprint)>,
    cache: Mutex<ResultCache>,
    registry: Mutex<Registry>,
    outstanding: Mutex<HashMap<String, usize>>,
}

/// Where a cell's report comes from, decided up front so the hit/miss
/// accounting is a pure function of the job and the cache state.
enum CellSource {
    /// Served from the result cache: a handle on the entry, not a copy.
    Cached(Arc<CachedReport>),
    /// A within-job duplicate of an earlier cell (by fingerprint); filled
    /// from that cell's report, never simulated.
    DupOf(usize),
    /// Provably decided by the analytic screener (`"screen": "prune"`)
    /// before the cache was even consulted; never simulated and never
    /// counted as a hit or a miss.
    Screened(Box<AnalyticReport>),
    /// Simulated by the job's workers: from what screening lowered (a
    /// system, or the error it met) in a screened job; in an unscreened
    /// one the worker lowers the cell.
    Run(Option<Result<LoweredCell, ConfigError>>),
}

/// What an emitted cell was answered with, kept to the end of the job.
#[derive(Clone)]
enum Answer<'a> {
    /// A rendered report: the cache's entry on a hit, the entry-to-be of a
    /// cell this job simulated. Shared, never copied.
    Simulated(Arc<CachedReport>),
    /// The screener's evaluation, held by the cell's [`CellSource`].
    Screened(&'a AnalyticReport),
}

impl Answer<'_> {
    /// What the rankings read of the cell.
    fn key(&self) -> RankKey {
        match self {
            Answer::Simulated(entry) => entry.key(),
            Answer::Screened(analytic) => RankKey::screened(analytic),
        }
    }

    /// What answers the cell in its record and in the job's artifact.
    fn body(&self) -> CellBody<'_> {
        match self {
            Answer::Simulated(entry) => CellBody::Rendered(entry.json()),
            Answer::Screened(analytic) => CellBody::Screened(analytic),
        }
    }
}

/// A simulated cell's outcome with its capture context: which worker ran
/// it and when. Workers only fill these; all journaling and histogram
/// recording happens later on the session thread in submission order,
/// which is what keeps the journal's event sequence independent of the
/// workers' completion order.
struct TimedResult {
    /// The cell's cache entry, rendered on the worker as soon as the
    /// simulation ends; the report itself is not kept.
    result: Result<CachedReport, ConfigError>,
    worker: usize,
    start_us: u64,
    end_us: u64,
}

/// Releases a client's admitted cells when the job leaves the server,
/// however it leaves (completion, failure, or I/O error).
struct BudgetGuard<'a> {
    server: &'a Server,
    client: String,
    cells: usize,
}

impl Drop for BudgetGuard<'_> {
    fn drop(&mut self) {
        let mut outstanding = self.server.outstanding.lock().expect("admission ledger");
        if let Some(n) = outstanding.get_mut(&self.client) {
            *n = n.saturating_sub(self.cells);
            if *n == 0 {
                outstanding.remove(&self.client);
            }
        }
    }
}

impl Server {
    /// Builds a server, registering every counter in [`COUNTERS`] order.
    /// Timing uses the real [`WallClock`] and no journal is recorded;
    /// see [`Server::with_clock`] and [`Server::with_journal`].
    pub fn new(config: ServeConfig) -> Server {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.workers
        };
        let mut registry = Registry::new();
        for name in COUNTERS {
            registry.counter(name);
        }
        Server {
            config,
            workers,
            clock: Box::new(WallClock::new()),
            journal: Journal::disabled(),
            catalog: catalog::builtin()
                .into_iter()
                .map(|s| {
                    let prefix = ScenarioFingerprint::new(&s);
                    (s, prefix)
                })
                .collect(),
            cache: Mutex::new(ResultCache::new()),
            registry: Mutex::new(registry),
            outstanding: Mutex::new(HashMap::new()),
        }
    }

    /// Replaces the time source (builder-style). Tests substitute a
    /// `MockClock` to make journals and `elapsed_us` deterministic.
    pub fn with_clock(mut self, clock: Box<dyn TimeSource>) -> Server {
        self.clock = clock;
        self
    }

    /// Replaces the event journal (builder-style).
    pub fn with_journal(mut self, journal: Journal) -> Server {
        self.journal = journal;
        self
    }

    /// Snapshot of the fixed [`COUNTERS`] as the JSON object `stats`
    /// replies carry. Deliberately *excludes* the wall-clock stage
    /// histograms and per-client series — `stats` replies stay
    /// deterministic; the full registry is what `metrics` is for.
    pub fn counters(&self) -> Value {
        let registry = self.registry.lock().expect("registry");
        Value::Object(
            COUNTERS
                .iter()
                .map(|name| {
                    let count = match registry.get(name) {
                        Some(Metric::Counter(c)) => c.get(),
                        _ => 0,
                    };
                    (name.to_string(), count.into())
                })
                .collect(),
        )
    }

    /// The full metrics registry — counters, per-client series, stage
    /// histograms — as Prometheus text exposition (format 0.0.4).
    pub fn prometheus_text(&self) -> String {
        prometheus::encode(&self.registry.lock().expect("registry"))
    }

    /// A copy of the journal's retained events (empty unless the journal
    /// was built to retain them).
    pub fn journal_events(&self) -> Vec<Value> {
        self.journal.events()
    }

    /// Number of distinct cells in the result cache.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().expect("cache").len()
    }

    fn bump(&self, name: &str, by: u64) {
        self.registry
            .lock()
            .expect("registry")
            .counter(name)
            .add(by);
    }

    /// Records one sample into a stage histogram. Stage histograms are
    /// registered on first sample, behind the fixed [`COUNTERS`], so
    /// `stats` replies are unaffected.
    fn observe(&self, name: &str, v: u64) {
        self.registry
            .lock()
            .expect("registry")
            .histogram(name)
            .record(v);
    }

    /// Records a timed transition of job `job_no` that ran from `from_us`
    /// to `to_us`: its duration goes into the stage histogram [`EVENTS`]
    /// gives `event`, if any, and the event is journaled with `fields`
    /// followed by `dur_us` and `ts_us` (= `to_us`).
    fn record(
        &self,
        event: &str,
        job_no: u64,
        id: &str,
        fields: impl IntoIterator<Item = (&'static str, Value)>,
        from_us: u64,
        to_us: u64,
    ) {
        let dur_us = to_us.saturating_sub(from_us);
        if let Some(&(_, Some(stage))) = EVENTS.iter().find(|(name, _)| *name == event) {
            self.observe(stage, dur_us);
        }
        let timing = [("dur_us", dur_us.into()), ("ts_us", to_us.into())];
        self.journal
            .append(event, job_no, id, fields.into_iter().chain(timing));
    }

    /// Journals the refusal of job `job_no` for `reason`.
    fn journal_rejected(&self, job_no: u64, job: &JobRequest, reason: &str) {
        let fields = [
            ("client", job.client.as_str().into()),
            ("reason", reason.into()),
            ("ts_us", self.clock.now_us().into()),
        ];
        self.journal.append("rejected", job_no, &job.id, fields);
    }

    /// Bumps a per-client counter series (`kind{client="…"}`).
    fn bump_client(&self, kind: &str, client: &str, by: u64) {
        let escaped = prometheus::escape_label_value(client);
        self.bump(&format!("{kind}{{client=\"{escaped}\"}}"), by);
    }

    /// Runs one client session: reads request lines until EOF or a
    /// `shutdown` request, writing response records as they become ready
    /// through one [`REPLY_BUFFER`]-sized buffer. Blank lines are ignored;
    /// malformed lines get an `error` record and the session continues. A
    /// client that disconnects mid-stream (`BrokenPipe`) ends the session
    /// cleanly.
    ///
    /// # Errors
    ///
    /// Returns any I/O error other than `BrokenPipe` from the transport.
    pub fn handle_session<R: BufRead, W: Write>(&self, reader: R, writer: W) -> io::Result<()> {
        let mut replies = BufWriter::with_capacity(REPLY_BUFFER, writer);
        let ended = self
            .session_loop(reader, &mut replies)
            .and_then(|()| replies.flush());
        // Bytes are left over only when a write failed: they are dropped,
        // not retried on a dead transport.
        drop(replies.into_parts());
        match ended {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
            other => other,
        }
    }

    fn session_loop<R: BufRead, W: Write>(
        &self,
        mut reader: R,
        writer: &mut BufWriter<W>,
    ) -> io::Result<()> {
        let mut buf = Vec::new();
        loop {
            buf.clear();
            // One byte past the cap tells a line of exactly the cap (plus
            // its newline) from a longer one.
            let mut within_cap = (&mut reader).take(MAX_REQUEST_LINE as u64 + 1);
            if within_cap.read_until(b'\n', &mut buf)? == 0 {
                return Ok(());
            }
            if buf.last() == Some(&b'\n') {
                buf.pop();
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
            } else if buf.len() > MAX_REQUEST_LINE {
                self.refuse(
                    "protocol_errors",
                    None,
                    &format!("request line exceeds {MAX_REQUEST_LINE} bytes; skipped"),
                    writer,
                )?;
                reader.skip_until(b'\n')?;
                continue;
            }
            // A line that is not UTF-8 is one more malformed request, not
            // the end of the session.
            let Ok(line) = std::str::from_utf8(&buf) else {
                self.refuse(
                    "protocol_errors",
                    None,
                    "request line is not valid UTF-8; skipped",
                    writer,
                )?;
                continue;
            };
            if line.trim().is_empty() {
                continue;
            }
            match protocol::parse_request(line) {
                Err(err) => {
                    self.refuse("protocol_errors", err.id.as_deref(), &err.message, writer)?;
                }
                Ok(Request::Ping) => {
                    protocol::pong_record().write_ndjson_line(writer)?;
                    writer.flush()?;
                }
                Ok(Request::Stats) => {
                    protocol::stats_record(self.counters()).write_ndjson_line(writer)?;
                    writer.flush()?;
                }
                Ok(Request::Metrics) => {
                    protocol::metrics_record(&self.prometheus_text()).write_ndjson_line(writer)?;
                    writer.flush()?;
                }
                Ok(Request::Shutdown) => return Ok(()),
                Ok(Request::Submit(job)) => self.run_job(&job, writer)?,
            }
        }
    }

    /// Accepts TCP connections until `max_sessions` have been served
    /// (forever when `None`), one thread per session. Returns once every
    /// accepted session has drained.
    ///
    /// # Errors
    ///
    /// Returns the first `accept` error.
    pub fn serve_listener(
        &self,
        listener: &TcpListener,
        max_sessions: Option<usize>,
    ) -> io::Result<()> {
        self.serve_streams(max_sessions, || {
            let (stream, _addr) = listener.accept()?;
            // A session is request/response, and a reply can leave in
            // several writes (one per simulated cell). Under Nagle a small
            // write waits for the ACK of the one before it, which a peer
            // with delayed ACKs holds for 40 ms.
            // Failing to set the option costs latency, never bytes.
            let _ = stream.set_nodelay(true);
            Ok(stream)
        })
    }

    /// [`Server::serve_listener`] over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Returns the first `accept` error.
    #[cfg(unix)]
    pub fn serve_unix(
        &self,
        listener: &std::os::unix::net::UnixListener,
        max_sessions: Option<usize>,
    ) -> io::Result<()> {
        self.serve_streams(max_sessions, || Ok(listener.accept()?.0))
    }

    /// The accept loop under every listener: one session thread per
    /// stream `accept` yields, until `max_sessions` have been accepted.
    fn serve_streams<S>(
        &self,
        max_sessions: Option<usize>,
        mut accept: impl FnMut() -> io::Result<S>,
    ) -> io::Result<()>
    where
        S: Send,
        for<'a> &'a S: Read + Write,
    {
        std::thread::scope(|scope| {
            let mut served = 0usize;
            while max_sessions.is_none_or(|max| served < max) {
                let stream = accept()?;
                served += 1;
                scope.spawn(move || {
                    let _ = self.handle_session(BufReader::new(&stream), &stream);
                });
            }
            Ok(())
        })
    }

    /// Reserves `cells` of `client`'s budget, or refuses.
    fn admit(&self, client: &str, cells: usize) -> Option<BudgetGuard<'_>> {
        let mut outstanding = self.outstanding.lock().expect("admission ledger");
        let used = outstanding.get(client).copied().unwrap_or(0);
        if used.saturating_add(cells) > self.config.budget {
            return None;
        }
        *outstanding.entry(client.to_string()).or_insert(0) += cells;
        Some(BudgetGuard {
            server: self,
            client: client.to_string(),
            cells,
        })
    }

    /// Counts a refusal and answers it with an `error` record (`id`: the
    /// job's, when the request got far enough to have one).
    fn refuse<W: Write>(
        &self,
        counter: &str,
        id: Option<&str>,
        message: &str,
        writer: &mut BufWriter<W>,
    ) -> io::Result<()> {
        self.bump(counter, 1);
        protocol::error_record(id, message).write_ndjson_line(writer)?;
        writer.flush()
    }

    fn run_job<W: Write>(&self, job: &JobRequest, writer: &mut BufWriter<W>) -> io::Result<()> {
        let job_no = self.journal.next_job();
        let t_accept = self.clock.now_us();
        // Lower the job exactly as `sara matrix` would: resolve scenarios,
        // then expand the cross product in scenario-major order. A
        // scenario's document is serialised and hashed at most once per
        // job (an inline one), or never (a catalog one: `Server::new` did).
        let mut scenarios: Vec<Scenario> = Vec::with_capacity(job.scenarios.len());
        let mut prefixes: Vec<ScenarioFingerprint> = Vec::with_capacity(job.scenarios.len());
        for sref in &job.scenarios {
            let (scenario, prefix) = match sref {
                ScenarioRef::Inline(s) => ((**s).clone(), ScenarioFingerprint::new(s)),
                ScenarioRef::Catalog(name) => {
                    let Some((s, prefix)) = self.catalog.iter().find(|(s, _)| s.name == *name)
                    else {
                        self.journal_rejected(job_no, job, "unknown-scenario");
                        let names: Vec<&str> =
                            self.catalog.iter().map(|(s, _)| s.name.as_str()).collect();
                        return self.refuse(
                            "jobs_failed",
                            Some(&job.id),
                            &format!("unknown scenario {name:?} (catalog: {})", names.join(", ")),
                            writer,
                        );
                    };
                    (s.clone(), *prefix)
                }
            };
            scenarios.push(scenario);
            prefixes.push(prefix);
        }
        let spec = MatrixSpec {
            policies: if job.policies.is_empty() {
                PolicyKind::ALL.to_vec()
            } else {
                job.policies.clone()
            },
            freqs_mhz: job.freqs_mhz.clone(),
            channels: job.channels.clone(),
            duration_ms: job.duration_ms,
            threads: 1, // unused: the job runs its cells on run_ordered itself
            screen: job.screen,
        };
        let cells = match expand_cells(&scenarios, &spec) {
            Ok(cells) => cells,
            Err(e) => {
                self.journal_rejected(job_no, job, "bad-matrix");
                return self.refuse("jobs_failed", Some(&job.id), e.message(), writer);
            }
        };

        let Some(_budget) = self.admit(&job.client, cells.len()) else {
            self.journal_rejected(job_no, job, "budget");
            return self.refuse(
                "jobs_rejected",
                Some(&job.id),
                &format!(
                    "admission refused: {} cells would exceed client {:?}'s budget of {}",
                    cells.len(),
                    job.client,
                    self.config.budget
                ),
                writer,
            );
        };
        self.bump("jobs_accepted", 1);
        self.bump("cells_total", cells.len() as u64);
        self.bump_client("jobs", &job.client, 1);
        self.bump_client("cells", &job.client, cells.len() as u64);
        let fields = [
            ("client", job.client.as_str().into()),
            ("cells", cells.len().into()),
            ("ts_us", t_accept.into()),
        ];
        self.journal.append("accepted", job_no, &job.id, fields);
        // Buffered: it leaves with the first cell that does not wait for a
        // simulation, or alone just before the first one that does.
        protocol::accepted_record(&job.id, cells.len()).write_ndjson_line(writer)?;

        let scenario_of = |i: usize| &scenarios[cells[i].scenario];
        let fingerprints: Vec<u64> = cells
            .iter()
            .map(|c| prefixes[c.scenario].cell(c, ENGINE_VERSION))
            .collect();

        // Classify every cell against the cache under one lock, so the
        // hit/miss split is a pure function of job + cache state (no
        // worker races in the accounting). With `"screen": "prune"`
        // each cell is lowered and screened first (`lower_cell`, as in
        // `sara matrix`): a provably-decided cell never reaches the cache
        // (or a worker) at all.
        let mut sources: Vec<CellSource> = Vec::with_capacity(cells.len());
        let mut first_seen: HashMap<u64, usize> = HashMap::new();
        let (mut hits, mut misses, mut screened) = (0u64, 0u64, 0u64);
        // Per-cell timestamp of classification completion: the moment the
        // cell became runnable, the origin of its queue-wait measurement.
        let mut queued_us: Vec<u64> = Vec::with_capacity(cells.len());
        {
            let mut cache = self.cache.lock().expect("cache");
            for (i, &fp) in fingerprints.iter().enumerate() {
                let t_queued = self.clock.now_us();
                let queued = [("seq", i.into()), ("ts_us", t_queued.into())];
                self.journal.append("queued", job_no, &job.id, queued);
                let screen = job.screen != ScreenMode::Off;
                let lowered =
                    match screen.then(|| lower_cell(scenario_of(i), &cells[i], job.screen)) {
                        Some(Ok(LoweredCell::Pruned(analytic))) => {
                            screened += 1;
                            let t_screened = self.clock.now_us();
                            let verdict = analytic.verdict.label().unwrap_or("needs-sim");
                            let fields = [("seq", i.into()), ("verdict", verdict.into())];
                            self.record("screened", job_no, &job.id, fields, t_queued, t_screened);
                            sources.push(CellSource::Screened(Box::new(analytic)));
                            queued_us.push(t_screened);
                            continue;
                        }
                        lowered => lowered,
                    };
                let hit = if let Some(&j) = first_seen.get(&fp) {
                    hits += 1;
                    sources.push(CellSource::DupOf(j));
                    true
                } else if let Some(entry) = cache.lookup(fp) {
                    hits += 1;
                    first_seen.insert(fp, i);
                    sources.push(CellSource::Cached(entry));
                    true
                } else {
                    misses += 1;
                    first_seen.insert(fp, i);
                    sources.push(CellSource::Run(lowered));
                    false
                };
                let t_classified = self.clock.now_us();
                let event = if hit { "cache_hit" } else { "cache_miss" };
                let fields = [("seq", i.into())];
                self.record(event, job_no, &job.id, fields, t_queued, t_classified);
                queued_us.push(t_classified);
            }
        }
        self.bump("cells_screened", screened);
        self.bump("cache_hits", hits);
        self.bump("cache_misses", misses);
        // The session is about to wait for a simulation: what is buffered
        // leaves first.
        let waits_for = |i: usize| matches!(sources.get(i), Some(CellSource::Run(_)));
        if waits_for(0) {
            writer.flush()?;
        }

        // Shard the misses across the workers; stream every cell record
        // the moment it and all its predecessors are ready. Emission order
        // is submission order, so the byte stream is independent of worker
        // count and completion order. With one worker (or a single
        // runnable cell) the session thread runs each cell itself right
        // before emitting it: every clock read then happens on one thread
        // in canonical order, which is what makes a mock-clock journal
        // byte-identical across runs.
        let runnable = sources
            .iter()
            .filter(|s| matches!(s, CellSource::Run(_)))
            .count();
        let mut answers: Vec<Answer> = Vec::with_capacity(cells.len());
        let stopped = run_ordered(
            cells.len(),
            self.workers.min(runnable),
            |i, worker| {
                let CellSource::Run(lowered) = &sources[i] else {
                    return None;
                };
                let start_us = self.clock.now_us();
                // An unscreened job's cell lowers here, inside its span.
                let system = match lowered {
                    Some(Ok(LoweredCell::Run(system, _))) => Ok(SystemConfig::clone(system)),
                    Some(Err(e)) => Err(e.clone()),
                    _ => cells[i].system(scenario_of(i)),
                };
                let result = system.and_then(|system| run_system(system, cells[i].duration_ms));
                let end_us = self.clock.now_us();
                Some(TimedResult {
                    result: result.map(|(report, _)| CachedReport::new(&report)),
                    worker,
                    start_us,
                    end_us,
                })
            },
            |i, timed| {
                // Every simulated cell is answered with its entry's one
                // rendering: a hit's, an in-job duplicate's (which counts
                // as one) and a fresh cell's, made as its simulation ended.
                let answer = match &sources[i] {
                    CellSource::Cached(entry) => Answer::Simulated(Arc::clone(entry)),
                    CellSource::DupOf(j) => answers[*j].clone(),
                    CellSource::Screened(analytic) => Answer::Screened(analytic),
                    CellSource::Run(_) => {
                        let timed = timed.expect("a Run cell was simulated");
                        let fields = || [("seq", i.into()), ("worker", timed.worker.into())];
                        let (start, end) = (timed.start_us, timed.end_us);
                        self.record("sim_start", job_no, &job.id, fields(), queued_us[i], start);
                        self.record("sim_end", job_no, &job.id, fields(), start, end);
                        match timed.result {
                            Ok(entry) => Answer::Simulated(Arc::new(entry)),
                            // The job ends at its first failing cell.
                            Err(e) => {
                                return ControlFlow::Break(self.refuse(
                                    "jobs_failed",
                                    Some(&job.id),
                                    e.message(),
                                    writer,
                                ))
                            }
                        }
                    }
                };
                let name = &scenario_of(i).name;
                let ends_run = waits_for(i + 1);
                let emitted =
                    self.emit_cell(job, job_no, i, name, &cells[i], &answer, ends_run, writer);
                if let Err(e) = emitted {
                    return ControlFlow::Break(Err(e));
                }
                answers.push(answer);
                ControlFlow::Continue(())
            },
        );
        if let ControlFlow::Break(ended) = stopped {
            return ended;
        }

        // Publish fresh results so no future job simulates these cells:
        // the cache takes a handle on the entry the job already holds.
        {
            let mut cache = self.cache.lock().expect("cache");
            for (i, answer) in answers.iter().enumerate() {
                if let (CellSource::Run(_), Answer::Simulated(entry)) = (&sources[i], answer) {
                    cache.insert_shared(fingerprints[i], Arc::clone(entry));
                }
            }
        }

        let targets_met = answers.iter().filter(|answer| answer.key().met).count();
        let artifact = match &job.json_out {
            None => None,
            Some(path) => {
                // The `sara matrix --json` document of the job's matrix, its
                // simulated reports spliced in as their entries store them.
                let keys: Vec<RankKey> = answers.iter().map(Answer::key).collect();
                let rankings = rank_cells(&scenarios, &cells, &keys);
                let bodies = cells.iter().zip(&answers).map(|(spec, answer)| {
                    let name = &scenarios[spec.scenario].name;
                    let head = cell_head_members(name, spec.policy, spec.freq, spec.channels);
                    (head, answer.body())
                });
                let write = std::fs::File::create(path).and_then(|file| {
                    let mut out = BufWriter::new(file);
                    write_matrix_document(&mut out, false, bodies, &rankings)?;
                    out.flush()
                });
                if let Err(e) = write {
                    return self.refuse(
                        "jobs_failed",
                        Some(&job.id),
                        &format!("failed to write artifact {}: {e}", path.display()),
                        writer,
                    );
                }
                Some(path.display().to_string())
            }
        };

        protocol::summary_record(
            &job.id,
            &JobSummary {
                cells: cells.len(),
                cache_hits: hits as usize,
                cache_misses: misses as usize,
                screened: screened as usize,
                targets_met,
                elapsed_us: self.clock.now_us().saturating_sub(t_accept),
                artifact,
            },
        )
        .write_ndjson_line(writer)?;
        writer.flush()
    }

    /// Copies one cell record into the reply buffer, writes the buffer
    /// out when the record ends a run of ready cells (`ends_run`: the next
    /// cell is simulated), and journals its emission. A simulated cell's
    /// record is its small head with the entry's JSON spliced in behind
    /// it, rendered once when the cell was simulated, by this job or an
    /// earlier one.
    #[allow(clippy::too_many_arguments)]
    fn emit_cell<W: Write>(
        &self,
        job: &JobRequest,
        job_no: u64,
        i: usize,
        scenario: &str,
        spec: &CellSpec,
        answer: &Answer<'_>,
        ends_run: bool,
        writer: &mut BufWriter<W>,
    ) -> io::Result<()> {
        let t_emit = self.clock.now_us();
        protocol::write_cell_record(writer, &job.id, i, scenario, spec, answer.body())?;
        if ends_run {
            writer.flush()?;
        }
        let t_done = self.clock.now_us();
        let fields = [("seq", i.into())];
        self.record("emitted", job_no, &job.id, fields, t_emit, t_done);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_scenario_is_stored_with_its_own_fingerprint_prefix() {
        let server = Server::new(ServeConfig::default());
        let stored: Vec<&str> = server
            .catalog
            .iter()
            .map(|(s, _)| s.name.as_str())
            .collect();
        assert_eq!(stored, catalog::names());
        for (scenario, prefix) in &server.catalog {
            let built = catalog::by_name(&scenario.name).expect("a catalog name");
            assert_eq!(*scenario, built);
            assert_eq!(
                *prefix,
                ScenarioFingerprint::new(&built),
                "{}",
                scenario.name
            );
        }
    }
}
