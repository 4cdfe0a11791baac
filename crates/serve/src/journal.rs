//! The `sara-serve-journal/v1` structured event journal: one NDJSON
//! record per job/cell lifecycle transition, the service's durable
//! flight recorder.
//!
//! Every record is a single-line JSON object led by
//! `"format": "sara-serve-journal/v1"`, an `event` name, and a
//! journal-wide monotonic `span` id; job-scoped events add a monotonic
//! `job` number plus the client-chosen job `id`. Timestamps (`ts_us`)
//! and durations (`dur_us`) are microseconds from the server's
//! [`TimeSource`](sara_telemetry::TimeSource) — wall-clock in
//! production, deterministic under a mock clock in tests.
//!
//! The event vocabulary, in the order one successful two-cell job
//! produces it:
//!
//! | event | scope | extra fields | `dur_us` measures |
//! |---|---|---|---|
//! | `accepted` | job | `client`, `cells` | — |
//! | `queued` | cell | `seq` | — |
//! | `screened` | cell | `seq`, `verdict` | analytic screening |
//! | `cache_hit` / `cache_miss` | cell | `seq` | cache classification |
//! | `sim_start` | cell | `seq`, `worker` | queue wait |
//! | `sim_end` | cell | `seq`, `worker` | simulation |
//! | `emitted` | cell | `seq` | result write |
//! | `rejected` | job | `client`, `reason` | — |
//!
//! All appends happen on the session thread in submission (`seq`) order
//! — workers only capture timestamps — so the *sequence* of events is a
//! pure function of the request stream: masking `ts_us`, `dur_us` and
//! `worker` yields identical journals for any worker count. Under a
//! mock clock with one worker the journal is byte-identical across
//! runs, full stop.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use json::Value;
use sara_telemetry::ChromeTrace;

/// The version tag carried by every journal record.
pub const JOURNAL_TAG: &str = "sara-serve-journal/v1";

/// The server's event journal: streams records to an optional writer
/// and/or retains them in memory for Chrome-trace export.
///
/// A disabled journal ([`Journal::disabled`]) costs one atomic branch
/// per would-be event; servers without `--journal`/`--chrome-trace` pay
/// essentially nothing.
pub struct Journal {
    next_job: AtomicU64,
    enabled: bool,
    inner: Mutex<Inner>,
}

struct Inner {
    next_span: u64,
    writer: Option<Box<dyn Write + Send>>,
    retained: Option<Vec<Value>>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// A journal that records nothing (the default for a bare server).
    pub fn disabled() -> Journal {
        Journal::build(None, false)
    }

    /// A journal streaming NDJSON records to `writer` (when given) and
    /// retaining events in memory when `retain` is set (required for
    /// [`Journal::chrome_trace`]).
    pub fn new(writer: Option<Box<dyn Write + Send>>, retain: bool) -> Journal {
        Journal::build(writer, retain)
    }

    fn build(writer: Option<Box<dyn Write + Send>>, retain: bool) -> Journal {
        Journal {
            next_job: AtomicU64::new(1),
            enabled: writer.is_some() || retain,
            inner: Mutex::new(Inner {
                next_span: 1,
                writer,
                retained: retain.then(Vec::new),
            }),
        }
    }

    /// Allocates the next monotonic job number (1-based).
    pub(crate) fn next_job(&self) -> u64 {
        self.next_job.fetch_add(1, Ordering::Relaxed)
    }

    /// A copy of the retained events (empty unless built with `retain`).
    pub fn events(&self) -> Vec<Value> {
        self.inner
            .lock()
            .expect("journal")
            .retained
            .clone()
            .unwrap_or_default()
    }

    /// Appends one event. `tail` follows the `format`/`event`/`span`
    /// lead-in; writes are best-effort (a full disk must not kill the
    /// service).
    fn append(&self, event: &str, tail: Vec<(String, Value)>) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock().expect("journal");
        let span = inner.next_span;
        inner.next_span += 1;
        let mut members: Vec<(String, Value)> = vec![
            ("format".to_string(), JOURNAL_TAG.into()),
            ("event".to_string(), event.into()),
            ("span".to_string(), span.into()),
        ];
        members.extend(tail);
        let record = Value::Object(members);
        if let Some(w) = &mut inner.writer {
            let _ = record.write_ndjson_line(w);
            let _ = w.flush();
        }
        if let Some(events) = &mut inner.retained {
            events.push(record);
        }
    }

    fn kv(key: &str, value: impl Into<Value>) -> (String, Value) {
        (key.to_string(), value.into())
    }

    /// Job passed admission and expands to `cells` cells.
    pub(crate) fn job_accepted(&self, job: u64, id: &str, client: &str, cells: usize, ts_us: u64) {
        self.append(
            "accepted",
            vec![
                Self::kv("job", job),
                Self::kv("id", id),
                Self::kv("client", client),
                Self::kv("cells", cells as u64),
                Self::kv("ts_us", ts_us),
            ],
        );
    }

    /// Job refused before any cell ran (`reason`: `"unknown-scenario"`,
    /// `"bad-matrix"` or `"budget"`).
    pub(crate) fn job_rejected(&self, job: u64, id: &str, client: &str, reason: &str, ts_us: u64) {
        self.append(
            "rejected",
            vec![
                Self::kv("job", job),
                Self::kv("id", id),
                Self::kv("client", client),
                Self::kv("reason", reason),
                Self::kv("ts_us", ts_us),
            ],
        );
    }

    /// Cell `seq` entered classification.
    pub(crate) fn cell_queued(&self, job: u64, id: &str, seq: usize, ts_us: u64) {
        self.append(
            "queued",
            vec![
                Self::kv("job", job),
                Self::kv("id", id),
                Self::kv("seq", seq as u64),
                Self::kv("ts_us", ts_us),
            ],
        );
    }

    /// Cell `seq` was provably decided by the analytic screener
    /// (`verdict`: `"infeasible"` or `"trivial"`) and will never be
    /// simulated; `dur_us` is the screening time.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn cell_screened(
        &self,
        job: u64,
        id: &str,
        seq: usize,
        verdict: &str,
        dur_us: u64,
        ts_us: u64,
    ) {
        self.append(
            "screened",
            vec![
                Self::kv("job", job),
                Self::kv("id", id),
                Self::kv("seq", seq as u64),
                Self::kv("verdict", verdict),
                Self::kv("dur_us", dur_us),
                Self::kv("ts_us", ts_us),
            ],
        );
    }

    /// Cell `seq` was classified against the result cache; `dur_us` is
    /// the lookup time.
    pub(crate) fn cell_cache(
        &self,
        job: u64,
        id: &str,
        seq: usize,
        hit: bool,
        dur_us: u64,
        ts_us: u64,
    ) {
        self.append(
            if hit { "cache_hit" } else { "cache_miss" },
            vec![
                Self::kv("job", job),
                Self::kv("id", id),
                Self::kv("seq", seq as u64),
                Self::kv("dur_us", dur_us),
                Self::kv("ts_us", ts_us),
            ],
        );
    }

    /// Cell `seq` started simulating on `worker`; `dur_us` is the queue
    /// wait (classification → sim start), `ts_us` the sim start time.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sim_started(
        &self,
        job: u64,
        id: &str,
        seq: usize,
        worker: usize,
        dur_us: u64,
        ts_us: u64,
    ) {
        self.append(
            "sim_start",
            vec![
                Self::kv("job", job),
                Self::kv("id", id),
                Self::kv("seq", seq as u64),
                Self::kv("worker", worker as u64),
                Self::kv("dur_us", dur_us),
                Self::kv("ts_us", ts_us),
            ],
        );
    }

    /// Cell `seq` finished simulating on `worker`; `dur_us` is the sim
    /// time.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sim_finished(
        &self,
        job: u64,
        id: &str,
        seq: usize,
        worker: usize,
        dur_us: u64,
        ts_us: u64,
    ) {
        self.append(
            "sim_end",
            vec![
                Self::kv("job", job),
                Self::kv("id", id),
                Self::kv("seq", seq as u64),
                Self::kv("worker", worker as u64),
                Self::kv("dur_us", dur_us),
                Self::kv("ts_us", ts_us),
            ],
        );
    }

    /// Cell `seq`'s result record was written to the client; `dur_us`
    /// is the write+flush time.
    pub(crate) fn cell_emitted(&self, job: u64, id: &str, seq: usize, dur_us: u64, ts_us: u64) {
        self.append(
            "emitted",
            vec![
                Self::kv("job", job),
                Self::kv("id", id),
                Self::kv("seq", seq as u64),
                Self::kv("dur_us", dur_us),
                Self::kv("ts_us", ts_us),
            ],
        );
    }

    /// Renders the retained events as a Chrome trace: one track per
    /// worker carrying sim spans, plus a `session` track with emit
    /// spans and instant markers for admissions and cache decisions.
    pub fn chrome_trace(&self) -> ChromeTrace {
        chrome_trace_of(&self.events())
    }
}

/// Builds the Chrome-trace view of a journal event slice (see
/// [`Journal::chrome_trace`]); exposed so saved journals can be
/// re-rendered without a live server.
pub fn chrome_trace_of(events: &[Value]) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    trace.process_name(0, "sara serve");
    trace.thread_name(0, 0, "session");
    // Name worker tracks in worker order, not first-appearance order,
    // so the metadata block is stable across schedules.
    let mut workers: Vec<u64> = events
        .iter()
        .filter_map(|e| e.get("worker").and_then(Value::as_u64))
        .collect();
    workers.sort_unstable();
    workers.dedup();
    for &w in &workers {
        trace.thread_name(0, w as u32 + 1, &format!("worker {w}"));
    }
    for e in events {
        let event = e.get("event").and_then(Value::as_str).unwrap_or("");
        let ts = e.get("ts_us").and_then(Value::as_u64).unwrap_or(0);
        let dur = e.get("dur_us").and_then(Value::as_u64).unwrap_or(0);
        let id = e.get("id").and_then(Value::as_str).unwrap_or("?");
        let seq = e.get("seq").and_then(Value::as_u64);
        let label = match seq {
            Some(seq) => format!("{id}[{seq}]"),
            None => id.to_string(),
        };
        let args = |v: &Value| -> Vec<(String, Value)> {
            v.as_object()
                .map(|m| {
                    m.iter()
                        .filter(|(k, _)| matches!(k.as_str(), "job" | "client" | "reason"))
                        .cloned()
                        .collect()
                })
                .unwrap_or_default()
        };
        let arg_pairs = args(e);
        let arg_refs: Vec<(&str, Value)> = arg_pairs
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        match event {
            "sim_end" => {
                let worker = e.get("worker").and_then(Value::as_u64).unwrap_or(0) as u32;
                trace.complete(
                    0,
                    worker + 1,
                    &label,
                    "sim",
                    ts.saturating_sub(dur),
                    dur,
                    &arg_refs,
                );
            }
            "emitted" => {
                trace.complete(0, 0, &label, "emit", ts.saturating_sub(dur), dur, &arg_refs);
            }
            "accepted" | "rejected" | "cache_hit" | "cache_miss" | "screened" => {
                trace.instant(0, 0, &format!("{event}:{label}"), event, ts, &arg_refs);
            }
            // queued/sim_start carry no span of their own: the queue
            // wait is sim_start's dur and renders inside the sim span.
            _ => {}
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A Vec<u8> sink that can be read back after the journal owns it.
    #[derive(Clone, Default)]
    struct Shared(Arc<StdMutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn disabled_journal_records_nothing_but_counts_jobs() {
        let j = Journal::disabled();
        assert_eq!(j.next_job(), 1);
        assert_eq!(j.next_job(), 2);
        j.job_accepted(1, "a", "ci", 2, 10);
        assert!(j.events().is_empty());
    }

    #[test]
    fn events_are_span_numbered_and_streamed() {
        let sink = Shared::default();
        let j = Journal::new(Some(Box::new(sink.clone())), true);
        let job = j.next_job();
        j.job_accepted(job, "a", "ci", 1, 100);
        j.cell_queued(job, "a", 0, 110);
        j.cell_cache(job, "a", 0, false, 5, 115);
        j.sim_started(job, "a", 0, 3, 10, 125);
        j.sim_finished(job, "a", 0, 3, 50, 175);
        j.cell_emitted(job, "a", 0, 7, 182);

        let events = j.events();
        assert_eq!(events.len(), 6);
        let spans: Vec<u64> = events
            .iter()
            .map(|e| e.get("span").and_then(Value::as_u64).unwrap())
            .collect();
        assert_eq!(spans, vec![1, 2, 3, 4, 5, 6]);
        let first = events[0].to_string_compact();
        assert_eq!(
            first,
            "{\"format\":\"sara-serve-journal/v1\",\"event\":\"accepted\",\
             \"span\":1,\"job\":1,\"id\":\"a\",\"client\":\"ci\",\"cells\":1,\"ts_us\":100}"
        );
        // The streamed NDJSON matches the retained events line for line.
        let streamed = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = streamed.lines().collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0], first);
        assert!(lines[3].contains("\"event\":\"sim_start\""), "{}", lines[3]);
        assert!(lines[3].contains("\"worker\":3"), "{}", lines[3]);
    }

    #[test]
    fn chrome_trace_has_one_track_per_worker() {
        let j = Journal::new(None, true);
        let job = j.next_job();
        j.job_accepted(job, "a", "ci", 2, 0);
        for (seq, worker) in [(0usize, 1usize), (1, 0)] {
            j.cell_queued(job, "a", seq, 1);
            j.cell_cache(job, "a", seq, false, 1, 2);
            j.sim_started(job, "a", seq, worker, 3, 5);
            j.sim_finished(job, "a", seq, worker, 20, 25);
            j.cell_emitted(job, "a", seq, 2, 27);
        }
        let doc = j.chrome_trace().to_value();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
            })
            .collect();
        assert_eq!(names, vec!["sara serve", "session", "worker 0", "worker 1"]);
        // One sim span per cell, on the right worker track.
        let sims: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("sim"))
            .collect();
        assert_eq!(sims.len(), 2);
        assert_eq!(sims[0].get("tid").and_then(Value::as_u64), Some(2));
        assert_eq!(sims[1].get("tid").and_then(Value::as_u64), Some(1));
        assert_eq!(sims[0].get("ts").and_then(Value::as_u64), Some(5));
        assert_eq!(sims[0].get("dur").and_then(Value::as_u64), Some(20));
    }
}
