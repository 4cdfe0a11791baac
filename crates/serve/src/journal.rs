//! The `sara-serve-journal/v1` structured event journal: one NDJSON
//! record per job/cell lifecycle transition, the service's durable
//! flight recorder.
//!
//! Every record is a single-line JSON object led by
//! `"format": "sara-serve-journal/v1"`, an `event` name, a journal-wide
//! monotonic `span` id, the monotonic `job` number and the client-chosen
//! job `id`. Timestamps (`ts_us`) and durations (`dur_us`) are
//! microseconds from the server's [`TimeSource`](sara_telemetry::TimeSource)
//! — wall-clock in production, deterministic under a mock clock in tests.
//! [`EVENTS`] is the vocabulary and the stage histogram each event's
//! `dur_us` feeds; `docs/observability.md` lists each event's fields.
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

/// The wall-clock service histograms, one per job stage in pipeline
/// order, all in microseconds: cache classification, queue wait
/// (classification → sim start), simulation, and result write.
pub const STAGE_HISTOGRAMS: [&str; 4] = ["cache_lookup_us", "queue_wait_us", "sim_us", "emit_us"];

/// Every journal event, in the order one job produces them, with the
/// stage histogram its `dur_us` feeds. `screened` carries the screening
/// time as its `dur_us` but feeds no stage: a screened cell never
/// reaches the cache. `evicted` (one per entry the cache drops when the
/// job publishes its fresh entries, with the entry's JSON `bytes`) is
/// untimed.
pub const EVENTS: [(&str, Option<&str>); 10] = [
    ("accepted", None),
    ("queued", None),
    ("screened", None),
    ("cache_hit", Some(STAGE_HISTOGRAMS[0])),
    ("cache_miss", Some(STAGE_HISTOGRAMS[0])),
    ("sim_start", Some(STAGE_HISTOGRAMS[1])),
    ("sim_end", Some(STAGE_HISTOGRAMS[2])),
    ("emitted", Some(STAGE_HISTOGRAMS[3])),
    ("evicted", None),
    ("rejected", None),
];

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
        Journal::new(None, false)
    }

    /// A journal streaming NDJSON records to `writer` (when given) and
    /// retaining events in memory when `retain` is set (required for
    /// [`Journal::chrome_trace`]).
    pub fn new(writer: Option<Box<dyn Write + Send>>, retain: bool) -> Journal {
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

    /// Appends one [`EVENTS`] record of job number `job` (client id `id`):
    /// the `format`/`event`/`span`/`job`/`id` lead-in, then the members
    /// `fields` builds, in order. A disabled journal never calls `fields`,
    /// so a server without one builds no event. Writes are best-effort (a
    /// full disk must not kill the service).
    pub(crate) fn append<F>(&self, event: &str, job: u64, id: &str, fields: impl FnOnce() -> F)
    where
        F: IntoIterator<Item = (&'static str, Value)>,
    {
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
            ("job".to_string(), job.into()),
            ("id".to_string(), id.into()),
        ];
        members.extend(fields().into_iter().map(|(k, v)| (k.to_string(), v)));
        let record = Value::Object(members);
        if let Some(w) = &mut inner.writer {
            let _ = record.write_ndjson_line(w);
            let _ = w.flush();
        }
        if let Some(events) = &mut inner.retained {
            events.push(record);
        }
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
        let arg_refs: Vec<(&str, Value)> = e
            .as_object()
            .unwrap_or_default()
            .iter()
            .filter(|(k, _)| matches!(k.as_str(), "job" | "client" | "reason" | "bytes"))
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
            "accepted" | "rejected" | "cache_hit" | "cache_miss" | "screened" | "evicted" => {
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

    /// Appends cell events of job `job` (id `a`) with integer fields.
    fn cells(j: &Journal, job: u64, events: &[(&str, &[(&'static str, u64)])]) {
        for &(event, fields) in events {
            j.append(event, job, "a", || {
                fields.iter().map(|&(k, v)| (k, v.into()))
            });
        }
    }

    /// The fields of an `accepted` event.
    fn accepted(client: &str, cells: u64, ts_us: u64) -> [(&'static str, Value); 3] {
        [
            ("client", client.into()),
            ("cells", cells.into()),
            ("ts_us", ts_us.into()),
        ]
    }

    #[test]
    fn every_stage_histogram_is_fed_and_only_by_events() {
        let fed: Vec<&str> = EVENTS.iter().filter_map(|&(_, h)| h).collect();
        assert!(fed.iter().all(|h| STAGE_HISTOGRAMS.contains(h)), "{fed:?}");
        assert!(STAGE_HISTOGRAMS.iter().all(|h| fed.contains(h)), "{fed:?}");
    }

    #[test]
    fn disabled_journal_records_nothing_but_counts_jobs() {
        let j = Journal::disabled();
        assert_eq!(j.next_job(), 1);
        assert_eq!(j.next_job(), 2);
        j.append("accepted", 1, "a", || -> [(&'static str, Value); 0] {
            panic!("a disabled journal builds no fields")
        });
        assert!(j.events().is_empty());
    }

    #[test]
    fn events_are_span_numbered_and_streamed() {
        let sink = Shared::default();
        let j = Journal::new(Some(Box::new(sink.clone())), true);
        let job = j.next_job();
        j.append("accepted", job, "a", || accepted("ci", 1, 100));
        cells(
            &j,
            job,
            &[
                ("queued", &[("seq", 0), ("ts_us", 110)]),
                ("cache_miss", &[("seq", 0), ("dur_us", 5), ("ts_us", 115)]),
                (
                    "sim_start",
                    &[("seq", 0), ("worker", 3), ("dur_us", 10), ("ts_us", 125)],
                ),
                (
                    "sim_end",
                    &[("seq", 0), ("worker", 3), ("dur_us", 50), ("ts_us", 175)],
                ),
                ("emitted", &[("seq", 0), ("dur_us", 7), ("ts_us", 182)]),
            ],
        );

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
        j.append("accepted", job, "a", || accepted("ci", 2, 0));
        for (seq, worker) in [(0, 1), (1, 0)] {
            cells(
                &j,
                job,
                &[
                    ("queued", &[("seq", seq), ("ts_us", 1)]),
                    ("cache_miss", &[("seq", seq), ("dur_us", 1), ("ts_us", 2)]),
                    (
                        "sim_start",
                        &[
                            ("seq", seq),
                            ("worker", worker),
                            ("dur_us", 3),
                            ("ts_us", 5),
                        ],
                    ),
                    (
                        "sim_end",
                        &[
                            ("seq", seq),
                            ("worker", worker),
                            ("dur_us", 20),
                            ("ts_us", 25),
                        ],
                    ),
                    ("emitted", &[("seq", seq), ("dur_us", 2), ("ts_us", 27)]),
                ],
            );
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
