//! Span recording for the traced run. The workloads time every call into a
//! layer with `Instant` either way; with tracing on, those intervals are
//! also kept as spans (name, start, end, causing span) in memory and
//! written as one Chrome trace when the workload ends.

use std::path::Path;
use std::time::Instant;

use json::Value;
use sara_telemetry::ChromeTrace;

/// Identifier of a recorded span, for naming it as another span's cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

/// The process group the benchmark's own spans go under; 0 is left to
/// traces the program renders itself (the serve journal).
const PID: u32 = 1;

/// An in-memory span log; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: u64,
    trace: ChromeTrace,
    /// Events of other trace documents, appended on write.
    foreign: Vec<Value>,
}

impl Tracer {
    /// A tracer for `workload`; `enabled` is the run's `--trace` flag.
    pub fn new(workload: &str, enabled: bool) -> Tracer {
        let mut trace = ChromeTrace::new();
        if enabled {
            trace.process_name(PID, &format!("benchmark: {workload}"));
        }
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: 1,
            trace,
            foreign: Vec::new(),
        }
    }

    /// Moves time zero to `epoch`, to line the spans up with a trace whose
    /// clock started then.
    pub fn rebase(&mut self, epoch: Instant) {
        self.epoch = epoch;
    }

    /// Adds the events of another Chrome trace document (as rendered by
    /// the program under test) to the output.
    pub fn extend(&mut self, document: &Value) {
        if let Some(events) = document.get("traceEvents").and_then(Value::as_array) {
            self.foreign.extend_from_slice(events);
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Names a track (`tid`) of the trace.
    pub fn track(&mut self, tid: u32, name: &str) {
        if self.enabled {
            self.trace.thread_name(PID, tid, name);
        }
    }

    /// Microseconds from the tracer's epoch to `at`.
    fn us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Records the span `[start, end)` on track `tid`, caused by `parent`.
    pub fn span(
        &mut self,
        tid: u32,
        name: &str,
        layer: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) -> SpanId {
        let id = SpanId(self.next);
        if !self.enabled {
            return id;
        }
        self.next += 1;
        let mut args: Vec<(&str, Value)> = vec![("span", id.0.into())];
        if let Some(SpanId(parent)) = parent {
            args.push(("parent", parent.into()));
        }
        let ts = self.us(start);
        let dur = self.us(end).saturating_sub(ts);
        self.trace.complete(PID, tid, name, layer, ts, dur, &args);
        id
    }

    /// Writes the spans as a Chrome trace-event document to `path`; does
    /// nothing when disabled.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or the file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.trace.to_value();
        let mut events = own
            .get("traceEvents")
            .and_then(Value::as_array)
            .map_or_else(Vec::new, <[Value]>::to_vec);
        events.extend_from_slice(&self.foreign);
        let document = Value::Object(vec![
            ("traceEvents".to_string(), Value::Array(events)),
            ("displayTimeUnit".to_string(), "ms".into()),
        ]);
        std::fs::write(path, document.to_string_compact())
    }
}
