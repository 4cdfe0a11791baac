//! The `sara-serve/v1` wire protocol: newline-delimited JSON records,
//! one per line, UTF-8, over stdin/stdout or a TCP/Unix socket.
//!
//! Every record — request or response — is a single-line JSON object
//! whose first member is `"format": "sara-serve/v1"` and whose second is
//! `"type"`. Requests are parsed strictly ([`parse_request`]): an
//! unknown key, a missing required key, or a wrong type is a protocol
//! error, answered with an `error` record rather than guessed around.
//! The normative spec lives in `docs/serve-protocol.md`; the
//! [`record_keys`] table below is the single source the parser, the
//! emitters, and the spec's drift tests all bind to, so the document
//! cannot quietly diverge from the implementation.

use std::io::{self, Write};
use std::path::PathBuf;

use json::read::{self, Fields};
use json::{Stream, Value};
use sara_memctrl::PolicyKind;
use sara_scenarios::{
    cell_head_members, write_cell_members, CellBody, CellSpec, MatrixCell, Scenario, ScreenMode,
};

/// The version tag carried by every request and response record.
pub const FORMAT_TAG: &str = "sara-serve/v1";

/// The required and optional top-level keys of each record type, in
/// emission order — requests and responses alike. This is the normative
/// key table: [`parse_request`] rejects keys outside it, the response
/// builders emit exactly these members, and the `docs/serve-protocol.md`
/// drift tests compare the spec's field tables against it.
///
/// Returns `(required, optional)`, or `None` for an unknown record type.
pub fn record_keys(
    record_type: &str,
) -> Option<(&'static [&'static str], &'static [&'static str])> {
    match record_type {
        // Requests.
        "submit" => Some((
            &["format", "type", "id", "scenarios"],
            &[
                "client",
                "policies",
                "freqs_mhz",
                "channels",
                "duration_ms",
                "screen",
                "json_out",
            ],
        )),
        "stats" => Some((&["format", "type"], &[])),
        "metrics" => Some((&["format", "type"], &[])),
        "ping" => Some((&["format", "type"], &[])),
        "shutdown" => Some((&["format", "type"], &[])),
        // Responses.
        "accepted" => Some((&["format", "type", "id", "cells"], &[])),
        "cell" => Some((
            &[
                "format", "type", "id", "seq", "scenario", "policy", "freq_mhz", "channels",
            ],
            // A simulated cell carries `report`; a pruned cell carries
            // `screened` (the verdict label) plus `analytic` (the
            // closed-form evaluation) instead.
            &["report", "screened", "analytic"],
        )),
        "summary" => Some((
            &[
                "format",
                "type",
                "id",
                "cells",
                "cache_hits",
                "cache_misses",
                "targets_met",
                "elapsed_us",
            ],
            &["screened", "artifact"],
        )),
        "error" => Some((&["format", "type", "error"], &["id"])),
        "stats-reply" => Some((&["format", "type", "counters"], &[])),
        "metrics-reply" => Some((&["format", "type", "exposition"], &[])),
        "pong" => Some((&["format", "type"], &[])),
        _ => None,
    }
}

/// The response record type answering a `stats` request. The request and
/// the reply share the wire spelling `"stats"`; [`record_keys`] keeps
/// them apart under this internal name.
pub const STATS_REPLY: &str = "stats-reply";

/// The response record type answering a `metrics` request (same
/// request/reply wire-spelling situation as [`STATS_REPLY`]).
pub const METRICS_REPLY: &str = "metrics-reply";

/// One parsed request record.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `submit`: run a job (a scenario × policy × frequency × channels
    /// matrix) and stream its results back.
    Submit(Box<JobRequest>),
    /// `stats`: report the server's cumulative counters.
    Stats,
    /// `metrics`: report the full metrics registry (counters, per-client
    /// series, latency histograms) as Prometheus text exposition.
    Metrics,
    /// `ping`: liveness probe, answered with `pong`.
    Ping,
    /// `shutdown`: end this session (the server keeps running for
    /// others).
    Shutdown,
}

/// A scenario reference inside a `submit` request: a built-in catalog
/// name, or a complete inline `sara-scenario/v1` document.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioRef {
    /// A name resolved against the built-in catalog.
    Catalog(String),
    /// A full scenario object, validated on parse with the same strict
    /// reader `.scenario.json` files go through.
    Inline(Box<Scenario>),
}

/// A fully parsed `submit` request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Client-chosen job id, echoed on every response record of the job.
    pub id: String,
    /// Admission-budget principal; defaults to `"anonymous"`.
    pub client: String,
    /// What to run (non-empty).
    pub scenarios: Vec<ScenarioRef>,
    /// Policies to cross with (empty = all six).
    pub policies: Vec<PolicyKind>,
    /// DRAM frequency overrides (empty = each scenario's own).
    pub freqs_mhz: Vec<u32>,
    /// DRAM channel-count overrides (empty = each scenario's own).
    pub channels: Vec<usize>,
    /// Per-cell run length override in milliseconds.
    pub duration_ms: Option<f64>,
    /// Analytic pre-screening: `Prune` answers provably-decided cells
    /// from the closed-form model without simulating (or caching) them.
    /// Defaults to `Off`. (`verify` is a batch-harness mode and is not
    /// accepted over the wire.)
    pub screen: ScreenMode,
    /// Server-side path to write the job's full matrix summary to —
    /// byte-identical to `sara matrix --json` for the same matrix.
    pub json_out: Option<PathBuf>,
}

/// A request that could not be honoured: the offending job id when one
/// was recoverable from the line, plus a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// The `id` of the offending record, when the line carried one.
    pub id: Option<String>,
    /// What was wrong.
    pub message: String,
}

/// Parses one request line strictly.
///
/// # Errors
///
/// Returns a [`ProtocolError`] (carrying the job id when the line had
/// one) for malformed JSON, a wrong or missing format tag, an unknown
/// record type, unknown or missing keys, or out-of-range values.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let doc = json::parse(line).map_err(|e| ProtocolError {
        id: None,
        message: format!("bad JSON: {e}"),
    })?;
    parse_record(&doc).map_err(|message| ProtocolError {
        // Recover the id so even badly-shaped submits are correlatable.
        id: doc.get("id").and_then(Value::as_str).map(str::to_string),
        message,
    })
}

/// Reads a parsed request: its format tag, then its record type, then
/// keys by [`record_keys`].
fn parse_record(doc: &Value) -> Result<Request, String> {
    let envelope = Fields::new(doc, "request")?;
    let tag = envelope.str("format")?;
    if tag != FORMAT_TAG {
        return Err(format!(
            "unsupported format tag {tag:?} (this server speaks {FORMAT_TAG:?})"
        ));
    }
    let rtype = envelope.str("type")?;
    let (required, optional) = match rtype {
        "submit" | "stats" | "metrics" | "ping" | "shutdown" => {
            record_keys(rtype).expect("request types are in the key table")
        }
        other => {
            return Err(format!(
                "unknown request type {other:?} (expected submit, stats, metrics, ping or shutdown)"
            ))
        }
    };
    let f = Fields::new(doc, rtype)?.only(required.iter().chain(optional))?;
    for key in required {
        f.get(key)?;
    }
    match rtype {
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "submit" => parse_submit(&f).map(|job| Request::Submit(Box::new(job))),
        _ => unreachable!("handled above"),
    }
}

fn parse_submit(f: &Fields) -> Result<JobRequest, String> {
    let id = f.non_empty("id")?.to_string();
    let client = f
        .optional("client", Fields::non_empty)?
        .unwrap_or("anonymous");
    let scenarios = f.list("scenarios", |entry| match entry {
        Value::Str(name) if !name.is_empty() => Ok(ScenarioRef::Catalog(name.clone())),
        Value::Object(_) => Scenario::from_json_value(entry)
            .map(|s| ScenarioRef::Inline(Box::new(s)))
            .map_err(|e| format!("is not a valid scenario: {}", e.message())),
        other => Err(format!(
            "must be a catalog name or a scenario object, got {}",
            other.type_name()
        )),
    })?;
    if scenarios.is_empty() {
        return Err(f.key_error("scenarios", "must be non-empty"));
    }
    let policies = f
        .optional("policies", |f, k| f.list(k, read::string))?
        .unwrap_or_default()
        .into_iter()
        .map(|name| PolicyKind::parse(name).map_err(|m| f.error(m)))
        .collect::<Result<Vec<_>, _>>()?;
    let freqs_mhz = f.optional("freqs_mhz", |f, k| f.list(k, |v| read::mhz(read::uint(v)?)))?;
    let channels = f.optional("channels", |f, k| {
        f.list(k, |v| Scenario::channel_count(read::uint(v)?))
    })?;
    let duration_ms = f.optional("duration_ms", Fields::positive)?;
    let screen = match f.optional("screen", Fields::str)? {
        None => ScreenMode::Off,
        Some(name) => match ScreenMode::parse(name).map_err(|m| f.error(m))? {
            ScreenMode::Verify => {
                return Err(f.key_error("screen", "must be \"off\" or \"prune\", got \"verify\""))
            }
            mode => mode,
        },
    };
    let json_out = f.optional("json_out", Fields::non_empty)?;
    Ok(JobRequest {
        id,
        client: client.to_string(),
        scenarios,
        policies,
        freqs_mhz: freqs_mhz.unwrap_or_default(),
        channels: channels.unwrap_or_default(),
        duration_ms,
        screen,
        json_out: json_out.map(PathBuf::from),
    })
}

// --- response builders -------------------------------------------------------

fn kv(key: &str, value: impl Into<Value>) -> (String, Value) {
    (key.to_string(), value.into())
}

fn envelope(record_type: &str) -> Vec<(String, Value)> {
    vec![kv("format", FORMAT_TAG), kv("type", record_type)]
}

/// The per-job outcome counters a `summary` record carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSummary {
    /// Total cells in the job.
    pub cells: usize,
    /// Cells answered from the result cache (or deduplicated within the
    /// job) instead of simulated.
    pub cache_hits: usize,
    /// Cells that had to be simulated.
    pub cache_misses: usize,
    /// Cells answered by the analytic screener (`"screen": "prune"`)
    /// without consulting the cache or the pool.
    pub screened: usize,
    /// Cells whose report met every QoS target (a pruned cell counts as
    /// its verdict proves: trivial met, infeasible not).
    pub targets_met: usize,
    /// Wall-clock microseconds from admission to this summary. The one
    /// wall-clock field in the reply stream: masked by the determinism
    /// suites, invaluable to clients watching service latency.
    pub elapsed_us: u64,
    /// The `json_out` artifact path, echoed when one was written.
    pub artifact: Option<String>,
}

/// Builds an `accepted` record: the job passed admission and expands to
/// `cells` cells.
pub fn accepted_record(id: &str, cells: usize) -> Value {
    let mut members = envelope("accepted");
    members.push(kv("id", id));
    members.push(kv("cells", cells as u64));
    Value::Object(members)
}

/// Builds a `cell` record: envelope plus the exact member list a
/// `sara matrix` dump's `cells[seq]` entry carries, so the payload is
/// byte-identical to the batch harness's output for the same cell.
pub fn cell_record(id: &str, seq: usize, cell: &MatrixCell) -> Value {
    let mut members = cell_envelope(id, seq);
    members.extend(cell.json_members());
    Value::Object(members)
}

/// What a `cell` record carries ahead of the cell's own members.
fn cell_envelope(id: &str, seq: usize) -> Vec<(String, Value)> {
    let mut members = envelope("cell");
    members.push(kv("id", id));
    members.push(kv("seq", seq as u64));
    members
}

/// Writes a cell's record, terminator included: the envelope, then the
/// cell's members ([`write_cell_members`]). A report rendered already
/// ([`CellBody::Rendered`]) is spliced in as is, so a cache hit is
/// answered without walking or copying its report again. The bytes equal
/// `cell_record(..).write_ndjson_line(..)`, the reference. The record
/// reaches `writer` in several pieces, so `writer` should buffer.
///
/// # Errors
///
/// Returns the first error `writer` reports.
pub fn write_cell_record<W: Write>(
    writer: &mut W,
    id: &str,
    seq: usize,
    scenario: &str,
    spec: &CellSpec,
    body: CellBody<'_>,
) -> io::Result<()> {
    let mut record = Stream::new(writer, false);
    record.open_object(None);
    for (key, value) in cell_envelope(id, seq) {
        record.node(Some(&key), &value)?;
    }
    let head = cell_head_members(scenario, spec.policy, spec.freq, spec.channels);
    write_cell_members(&mut record, head, body)?;
    record.close();
    record.finish()
}

/// Builds a job's final `summary` record.
pub fn summary_record(id: &str, summary: &JobSummary) -> Value {
    let mut members = envelope("summary");
    members.push(kv("id", id));
    members.push(kv("cells", summary.cells as u64));
    members.push(kv("cache_hits", summary.cache_hits as u64));
    members.push(kv("cache_misses", summary.cache_misses as u64));
    members.push(kv("targets_met", summary.targets_met as u64));
    members.push(kv("elapsed_us", summary.elapsed_us));
    // Omitted for unscreened jobs, so their summary bytes are identical
    // to what pre-screening servers emitted.
    if summary.screened > 0 {
        members.push(kv("screened", summary.screened as u64));
    }
    if let Some(artifact) = &summary.artifact {
        members.push(kv("artifact", artifact.as_str()));
    }
    Value::Object(members)
}

/// Builds an `error` record; `id` is included when the failing request
/// was correlatable.
pub fn error_record(id: Option<&str>, message: &str) -> Value {
    let mut members = envelope("error");
    if let Some(id) = id {
        members.push(kv("id", id));
    }
    members.push(kv("error", message));
    Value::Object(members)
}

/// Builds the reply to a `stats` request around a counters snapshot
/// (a `sara_telemetry::Registry` JSON object).
pub fn stats_record(counters: Value) -> Value {
    let mut members = envelope("stats");
    members.push(("counters".to_string(), counters));
    Value::Object(members)
}

/// Builds the reply to a `metrics` request: the registry rendered as
/// Prometheus text exposition, carried as one JSON string.
pub fn metrics_record(exposition: &str) -> Value {
    let mut members = envelope("metrics");
    members.push(kv("exposition", exposition));
    Value::Object(members)
}

/// Builds the `pong` reply to a `ping`.
pub fn pong_record() -> Value {
    Value::Object(envelope("pong"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit_with(scenarios: &str, extra: &str) -> String {
        format!(
            "{{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"j1\",\
             \"scenarios\":{scenarios}{extra}}}"
        )
    }

    fn submit_line(extra: &str) -> String {
        submit_with("[\"adas\"]", extra)
    }

    #[test]
    fn bare_requests_parse() {
        for (rtype, want) in [
            ("stats", Request::Stats),
            ("metrics", Request::Metrics),
            ("ping", Request::Ping),
            ("shutdown", Request::Shutdown),
        ] {
            let line = format!("{{\"format\":\"sara-serve/v1\",\"type\":\"{rtype}\"}}");
            assert_eq!(parse_request(&line).unwrap(), want);
        }
    }

    #[test]
    fn submit_parses_with_defaults_and_overrides() {
        let Request::Submit(job) = parse_request(&submit_line("")).unwrap() else {
            panic!("not a submit");
        };
        assert_eq!(job.id, "j1");
        assert_eq!(job.client, "anonymous");
        assert_eq!(job.scenarios, vec![ScenarioRef::Catalog("adas".into())]);
        assert!(job.policies.is_empty() && job.freqs_mhz.is_empty() && job.channels.is_empty());
        assert_eq!(job.duration_ms, None);
        assert_eq!(job.screen, ScreenMode::Off);
        assert_eq!(job.json_out, None);

        let line = submit_line(
            ",\"client\":\"ci\",\"policies\":[\"QoS\",\"FCFS\"],\"freqs_mhz\":[1333,1700],\
             \"channels\":[2,4],\"duration_ms\":0.5,\"screen\":\"prune\",\
             \"json_out\":\"/tmp/out.json\"",
        );
        let Request::Submit(job) = parse_request(&line).unwrap() else {
            panic!("not a submit");
        };
        assert_eq!(job.client, "ci");
        assert_eq!(
            job.policies,
            vec![PolicyKind::Priority, PolicyKind::Fcfs],
            "policy names use the report spellings"
        );
        assert_eq!(job.freqs_mhz, vec![1333, 1700]);
        assert_eq!(job.channels, vec![2, 4]);
        assert_eq!(job.duration_ms, Some(0.5));
        assert_eq!(job.screen, ScreenMode::Prune);
        assert_eq!(
            job.json_out.as_deref(),
            Some(std::path::Path::new("/tmp/out.json"))
        );
    }

    #[test]
    fn submit_accepts_inline_scenarios_and_rejects_bad_ones() {
        let scenario = sara_scenarios::catalog::by_name("camcorder-b").unwrap();
        let inline = scenario.to_json_value().to_string_compact();
        let line = submit_with(&format!("[{inline}]"), "");
        let Request::Submit(job) = parse_request(&line).unwrap() else {
            panic!("not a submit");
        };
        assert_eq!(job.scenarios, vec![ScenarioRef::Inline(Box::new(scenario))]);
        // An inline object goes through the strict scenario reader.
        let line = submit_with("[{\"format\":\"sara-scenario/v1\"}]", "");
        let err = parse_request(&line).unwrap_err();
        assert_eq!(err.id.as_deref(), Some("j1"));
        assert!(err.message.contains("scenarios[0]"), "{err:?}");
    }

    #[test]
    fn strictness_rejects_unknown_and_missing_keys() {
        let err = parse_request(&submit_line(",\"bogus\":1")).unwrap_err();
        assert!(err.message.contains("unknown key \"bogus\""), "{err:?}");
        assert_eq!(err.id.as_deref(), Some("j1"));

        let err = parse_request("{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"j2\"}")
            .unwrap_err();
        assert!(err.message.contains("\"scenarios\""), "{err:?}");

        let err = parse_request("{\"format\":\"sara-serve/v0\",\"type\":\"ping\"}").unwrap_err();
        assert!(err.message.contains("unsupported format tag"), "{err:?}");

        let err = parse_request("{\"type\":\"ping\"}").unwrap_err();
        assert!(
            err.message.contains("missing required key \"format\""),
            "{err:?}"
        );

        let err = parse_request("{\"format\":\"sara-serve/v1\",\"type\":\"dance\"}").unwrap_err();
        assert!(err.message.contains("unknown request type"), "{err:?}");

        let err = parse_request("not json at all").unwrap_err();
        assert!(err.message.contains("bad JSON"), "{err:?}");
        assert_eq!(err.id, None);
    }

    #[test]
    fn submit_validates_value_ranges() {
        for (extra, needle) in [
            (",\"duration_ms\":0", "duration_ms"),
            (",\"duration_ms\":\"fast\"", "duration_ms"),
            (",\"freqs_mhz\":[0]", "\"freqs_mhz[0]\" must be ≥ 1"),
            (
                ",\"channels\":[3]",
                "\"channels[0]\" must be a power of two",
            ),
            (
                ",\"channels\":[512]",
                "\"channels[0]\" must be a power of two",
            ),
            (",\"policies\":[\"qos\"]", "unknown policy"),
            (",\"screen\":\"verify\"", "\"screen\""),
            (",\"screen\":1", "\"screen\""),
            (",\"json_out\":\"\"", "json_out"),
            (",\"client\":\"\"", "client"),
        ] {
            let err = parse_request(&submit_line(extra)).unwrap_err();
            assert!(err.message.contains(needle), "{extra}: {err:?}");
        }
        for (scenarios, needle) in [("[]", "scenarios"), ("[42]", "scenarios[0]")] {
            let err = parse_request(&submit_with(scenarios, "")).unwrap_err();
            assert!(err.message.contains(needle), "{scenarios}: {err:?}");
        }
    }

    #[test]
    fn a_spliced_cell_line_equals_the_built_record() {
        use sara_scenarios::{catalog, run_cell, screen_cell, CellOutcome};
        let scenario = catalog::by_name("camcorder-b").unwrap();
        let spec = CellSpec {
            scenario: 0,
            policy: PolicyKind::QosRowBuffer,
            freq: scenario.freq,
            channels: scenario.channels,
            duration_ms: 0.05,
        };
        let report = run_cell(&scenario, &spec).unwrap();
        let report_json = report.to_json_value().to_string_compact();
        let analytic = screen_cell(&scenario, &spec).unwrap();
        // Ids and scenario names come from the client: the head goes
        // through the same escaping as the built record. A simulated cell
        // streams its report rendered or whole; a pruned one its verdict.
        for (id, name) in [("j", "camcorder-b"), ("a\"b\\c\n", "inline \"x\"\t\u{1}é")] {
            let cells = [
                (
                    CellBody::Rendered(&report_json),
                    CellOutcome::Simulated(Box::new(report.clone())),
                ),
                (
                    CellBody::Simulated(&report),
                    CellOutcome::Simulated(Box::new(report.clone())),
                ),
                (
                    CellBody::Screened(&analytic),
                    CellOutcome::Screened(analytic.clone()),
                ),
            ];
            for (body, outcome) in cells {
                let cell = MatrixCell {
                    scenario: name.to_string(),
                    policy: spec.policy,
                    freq: spec.freq,
                    channels: spec.channels,
                    outcome,
                };
                let mut built = Vec::new();
                cell_record(id, 7, &cell)
                    .write_ndjson_line(&mut built)
                    .unwrap();
                let mut streamed = Vec::new();
                write_cell_record(&mut streamed, id, 7, name, &spec, body).unwrap();
                assert_eq!(streamed, built);
            }
        }
    }

    #[test]
    fn response_builders_emit_the_documented_keys() {
        let keys = |v: &Value| -> Vec<String> {
            v.as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        assert_eq!(
            keys(&accepted_record("j", 3)),
            record_keys("accepted").unwrap().0
        );
        let summary = JobSummary {
            cells: 3,
            cache_hits: 1,
            cache_misses: 1,
            screened: 1,
            targets_met: 3,
            elapsed_us: 12_345,
            artifact: Some("/tmp/x.json".into()),
        };
        let (required, optional) = record_keys("summary").unwrap();
        let mut want: Vec<&str> = required.to_vec();
        want.extend(optional);
        assert_eq!(keys(&summary_record("j", &summary)), want);
        let bare = JobSummary {
            screened: 0,
            artifact: None,
            ..summary
        };
        assert_eq!(keys(&summary_record("j", &bare)), required);

        assert_eq!(
            keys(&error_record(Some("j"), "boom")),
            ["format", "type", "id", "error"]
        );
        assert_eq!(
            keys(&error_record(None, "boom")),
            ["format", "type", "error"]
        );
        assert_eq!(
            keys(&stats_record(Value::Object(vec![]))),
            record_keys(STATS_REPLY).unwrap().0
        );
        assert_eq!(
            keys(&metrics_record("# TYPE x counter\nx 1\n")),
            record_keys(METRICS_REPLY).unwrap().0
        );
        assert_eq!(keys(&pong_record()), record_keys("pong").unwrap().0);
        // Every record leads with the format tag.
        assert!(pong_record()
            .to_string_compact()
            .starts_with("{\"format\":\"sara-serve/v1\",\"type\":\"pong\""));
    }
}

/// Seeded fuzzing of [`parse_request`], the first thing every byte from a
/// client reaches: it never panics, a rejection always says why, and an
/// accepted `submit` always names a job and something to run.
#[cfg(test)]
mod fuzz {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sara_scenarios::catalog;

    fn check(line: &str) {
        match parse_request(line) {
            Err(e) => assert!(!e.message.is_empty(), "silent rejection of {line:?}"),
            Ok(Request::Submit(job)) => {
                assert!(!job.id.is_empty(), "empty id accepted from {line:?}");
                assert!(!job.scenarios.is_empty(), "empty job accepted: {line:?}");
            }
            Ok(_) => {}
        }
    }

    /// The members of a valid `submit` that sets every key the protocol
    /// knows, one scenario inline.
    fn submit_members() -> Vec<(&'static str, String)> {
        let inline = catalog::by_name("camcorder-b").expect("catalog").to_json();
        vec![
            ("format", format!("{FORMAT_TAG:?}")),
            ("type", "\"submit\"".to_string()),
            ("id", "\"fuzz-1\"".to_string()),
            ("client", "\"ci\"".to_string()),
            ("scenarios", format!("[\"adas\",{}]", inline.trim())),
            ("policies", "[\"FCFS\",\"QoS-RB\"]".to_string()),
            ("freqs_mhz", "[1600,1866]".to_string()),
            ("channels", "[2,4]".to_string()),
            ("duration_ms", "0.05".to_string()),
            ("screen", "\"prune\"".to_string()),
            ("json_out", "\"/tmp/out.json\"".to_string()),
        ]
    }

    fn line_of(members: &[(&str, String)]) -> String {
        let body: Vec<String> = members.iter().map(|(k, v)| format!("{k:?}:{v}")).collect();
        format!("{{{}}}", body.join(","))
    }

    fn random_scalar(rng: &mut StdRng) -> String {
        match rng.gen_range(0u32..8) {
            0 => "null".to_string(),
            1 => rng.gen_bool(0.5).to_string(),
            2 => rng.next_u64().to_string(),
            3 => format!("-{}", rng.gen_range(0u64..1 << 40)),
            4 => format!("{:e}", f64::from_bits(rng.next_u64())),
            5 => "\"\"".to_string(),
            6 => format!("\"{}\"", rng.next_u64()),
            _ => "0".to_string(),
        }
    }

    #[test]
    fn the_unmutated_submit_is_accepted() {
        let line = line_of(&submit_members());
        assert!(
            matches!(parse_request(&line), Ok(Request::Submit(_))),
            "{:?}",
            parse_request(&line)
        );
    }

    #[test]
    fn arbitrary_bytes_are_rejected_with_a_reason() {
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(0x5e7e_0000 + seed);
            for _ in 0..64 {
                let len = rng.gen_range(0usize..256);
                // Half the lines draw from JSON's own alphabet, so some get
                // past the first token.
                const JSON_ALPHABET: &[u8] = b"{}[]\":,\\ 0123456789.-+eEtruefalsn";
                let structural = rng.gen_bool(0.5);
                let bytes: Vec<u8> = (0..len)
                    .map(|_| {
                        if structural {
                            JSON_ALPHABET[rng.gen_range(0..JSON_ALPHABET.len())]
                        } else {
                            rng.gen_range(0u32..256) as u8
                        }
                    })
                    .collect();
                check(&String::from_utf8_lossy(&bytes));
            }
        }
    }

    #[test]
    fn mutated_submits_never_yield_an_empty_job() {
        let members = submit_members();
        let valid = line_of(&members);
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(0x5e7e_1000 + seed);
            for _ in 0..16 {
                // One byte flipped (any bit pattern, so UTF-8 may break).
                let mut bytes = valid.clone().into_bytes();
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0u32..8);
                check(&String::from_utf8_lossy(&bytes));

                // One key dropped.
                let mut fewer = members.clone();
                fewer.remove(rng.gen_range(0..fewer.len()));
                check(&line_of(&fewer));

                // One value replaced by a random scalar.
                let mut swapped = members.clone();
                let at = rng.gen_range(0..swapped.len());
                swapped[at].1 = random_scalar(&mut rng);
                check(&line_of(&swapped));
            }
        }
    }
}
