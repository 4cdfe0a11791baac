//! The spec drift gate: `docs/serve-protocol.md` is parsed and compared
//! against the implementation, in both directions. If the document's
//! field tables or examples disagree with `protocol::record_keys` — or
//! with the records a live session actually emits — the build fails,
//! which is what keeps the prose normative. `docs/observability.md`'s
//! journal event table and stage histograms are held to the journal's
//! own [`EVENTS`] and [`STAGE_HISTOGRAMS`] the same way.

use std::collections::BTreeSet;

use json::Value;
use sara_serve::protocol::{record_keys, METRICS_REPLY, STATS_REPLY};
use sara_serve::{
    ServeConfig, Server, EVENTS, FORMAT_TAG, MAX_REQUEST_LINE, REPLY_BUFFER, STAGE_HISTOGRAMS,
};

/// One `### \`type\`` section of the spec.
#[derive(Debug, Default)]
struct Section {
    /// `true` under `## Requests`, `false` under `## Responses`.
    request: bool,
    required: BTreeSet<String>,
    optional: BTreeSet<String>,
    examples: Vec<String>,
}

/// The record-type name `record_keys` uses for a documented section: the
/// `stats` and `metrics` *replies* share their wire spelling with the
/// matching request, so the key table stores them under [`STATS_REPLY`]
/// and [`METRICS_REPLY`].
fn lookup_name(name: &str, request: bool) -> String {
    match (request, name) {
        (false, "stats") => STATS_REPLY.to_string(),
        (false, "metrics") => METRICS_REPLY.to_string(),
        _ => name.to_string(),
    }
}

fn doc_text(name: &str) -> String {
    let path = format!("{}/../../docs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn spec_text() -> String {
    doc_text("serve-protocol.md")
}

/// The lines of a markdown document's `## {heading}` section.
fn section<'a>(text: &'a str, heading: &str) -> Vec<&'a str> {
    text.lines()
        .skip_while(|l| l.strip_prefix("## ") != Some(heading))
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .collect()
}

/// Parses the spec's record sections: heading, field table, examples.
fn parse_spec(text: &str) -> Vec<(String, Section)> {
    let mut sections: Vec<(String, Section)> = Vec::new();
    let mut in_requests = false;
    let mut in_responses = false;
    let mut in_json = false;
    let mut json_buf = String::new();
    for line in text.lines() {
        if in_json {
            if line.trim() == "```" {
                in_json = false;
                if let Some((_, section)) = sections.last_mut() {
                    section.examples.push(json_buf.clone());
                }
            } else {
                json_buf.push_str(line);
                json_buf.push('\n');
            }
            continue;
        }
        if let Some(heading) = line.strip_prefix("## ") {
            in_requests = heading.trim() == "Requests";
            in_responses = heading.trim() == "Responses";
            continue;
        }
        if !in_requests && !in_responses {
            continue;
        }
        if let Some(heading) = line.strip_prefix("### ") {
            let name = heading.trim().trim_matches('`').to_string();
            sections.push((
                name,
                Section {
                    request: in_requests,
                    ..Section::default()
                },
            ));
            continue;
        }
        if line.trim() == "```json" {
            in_json = true;
            json_buf.clear();
            continue;
        }
        // A field-table row: `| \`name\` | yes | ... |`.
        if let Some(rest) = line.strip_prefix("| `") {
            let Some((field, rest)) = rest.split_once('`') else {
                continue;
            };
            let second = rest
                .trim_start_matches(' ')
                .trim_start_matches('|')
                .split('|')
                .next()
                .map(str::trim)
                .unwrap_or("");
            let (_, section) = sections.last_mut().expect("table row before any section");
            match second {
                "yes" => {
                    section.required.insert(field.to_string());
                }
                "no" => {
                    section.optional.insert(field.to_string());
                }
                other => {
                    panic!("spec row for `{field}` has required-column \"{other}\" (want yes/no)")
                }
            }
        }
    }
    sections
}

#[test]
fn spec_field_tables_match_the_implementation() {
    let text = spec_text();
    let sections = parse_spec(&text);
    assert!(
        sections.len() >= 12,
        "spec parser found only {} record sections — did the heading or \
         table format change?",
        sections.len()
    );
    let mut documented = BTreeSet::new();
    for (name, section) in &sections {
        let key = lookup_name(name, section.request);
        let (required, optional) = record_keys(&key)
            .unwrap_or_else(|| panic!("spec documents unknown record type `{name}`"));
        let want_required: BTreeSet<String> = required.iter().map(|s| s.to_string()).collect();
        let want_optional: BTreeSet<String> = optional.iter().map(|s| s.to_string()).collect();
        assert_eq!(
            section.required, want_required,
            "`{name}` required fields: spec vs record_keys"
        );
        assert_eq!(
            section.optional, want_optional,
            "`{name}` optional fields: spec vs record_keys"
        );
        documented.insert(key);
    }
    // ...and every type the implementation knows is documented.
    for key in [
        "submit",
        "stats",
        "metrics",
        "ping",
        "shutdown",
        "accepted",
        "cell",
        "summary",
        "error",
        STATS_REPLY,
        METRICS_REPLY,
        "pong",
    ] {
        assert!(documented.contains(key), "record type `{key}` undocumented");
    }
}

#[test]
fn spec_states_the_request_line_cap_the_server_enforces() {
    let text = spec_text();
    let sentence = format!("A request line may be at most **{MAX_REQUEST_LINE} bytes**");
    assert!(
        text.contains(&sentence),
        "docs/serve-protocol.md must state the cap as: {sentence}"
    );
}

#[test]
fn spec_states_the_reply_buffer_the_server_writes_through() {
    let text = spec_text();
    let sentence = format!("through a buffer of **{REPLY_BUFFER} bytes**");
    assert!(
        text.contains(&sentence),
        "docs/serve-protocol.md must state the buffer as: {sentence}"
    );
}

#[test]
fn spec_examples_are_valid_records() {
    let text = spec_text();
    for (name, section) in parse_spec(&text) {
        let key = lookup_name(&name, section.request);
        let (required, optional) = record_keys(&key).expect("known type");
        assert!(
            !section.examples.is_empty(),
            "`{name}` has no ```json example"
        );
        for example in &section.examples {
            let record = json::parse(example)
                .unwrap_or_else(|e| panic!("`{name}` example does not parse: {e}\n{example}"));
            assert_eq!(
                record.get("format").and_then(Value::as_str),
                Some(FORMAT_TAG),
                "`{name}` example format tag"
            );
            // Replies to `stats` and `metrics` share their request's
            // wire spelling; the key table suffixes them.
            let wire_type = key.strip_suffix("-reply").unwrap_or(&key);
            assert_eq!(
                record.get("type").and_then(Value::as_str),
                Some(wire_type),
                "`{name}` example type"
            );
            let keys: BTreeSet<String> = record
                .as_object()
                .expect("example is an object")
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            for field in required {
                assert!(
                    keys.contains(*field),
                    "`{name}` example missing required `{field}`"
                );
            }
            for k in &keys {
                assert!(
                    required.contains(&k.as_str()) || optional.contains(&k.as_str()),
                    "`{name}` example carries undocumented key `{k}`"
                );
            }
            // Request examples must actually be accepted by the parser
            // (responses carry illustrative values, requests are strict).
            if section.request {
                sara_serve::protocol::parse_request(example)
                    .unwrap_or_else(|e| panic!("`{name}` example rejected: {}", e.message));
            }
        }
    }
}

#[test]
fn live_session_records_obey_the_spec() {
    let text = spec_text();
    let sections = parse_spec(&text);
    let server = Server::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let session = concat!(
        r#"{"format":"sara-serve/v1","type":"ping"}"#,
        "\n",
        "this is not json\n",
        r#"{"format":"sara-serve/v1","type":"submit","id":"spec","scenarios":["camcorder-b"],"policies":["FCFS"],"duration_ms":0.05}"#,
        "\n",
        r#"{"format":"sara-serve/v1","type":"stats"}"#,
        "\n",
        r#"{"format":"sara-serve/v1","type":"metrics"}"#,
        "\n",
        r#"{"format":"sara-serve/v1","type":"shutdown"}"#,
        "\n",
    );
    let mut replies = Vec::new();
    server
        .handle_session(session.as_bytes(), &mut replies)
        .expect("session");
    let replies = String::from_utf8(replies).expect("utf-8");
    let mut seen = BTreeSet::new();
    for line in replies.lines() {
        let record = json::parse(line).expect("reply parses");
        let wire_type = record
            .get("type")
            .and_then(Value::as_str)
            .expect("reply type")
            .to_string();
        let key = lookup_name(&wire_type, false);
        let (required, optional) = record_keys(&key)
            .unwrap_or_else(|| panic!("server emitted unknown type `{wire_type}`"));
        let keys: Vec<String> = record
            .as_object()
            .expect("reply is an object")
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        for field in required {
            assert!(
                keys.iter().any(|k| k == field),
                "`{wire_type}` missing `{field}`: {line}"
            );
        }
        for k in &keys {
            assert!(
                required.contains(&k.as_str()) || optional.contains(&k.as_str()),
                "`{wire_type}` emitted undocumented key `{k}`: {line}"
            );
        }
        // The record type must have a Responses section in the spec.
        assert!(
            sections
                .iter()
                .any(|(n, s)| !s.request && lookup_name(n, false) == key),
            "server emitted `{wire_type}` but the spec has no section for it"
        );
        seen.insert(key);
    }
    // The session above exercises every response type the spec documents.
    for (name, section) in &sections {
        if !section.request {
            let key = lookup_name(name, false);
            assert!(
                seen.contains(&key),
                "documented response `{name}` never emitted by the probe session"
            );
        }
    }
}

#[test]
fn observability_journal_table_is_the_stage_table() {
    let text = doc_text("observability.md");
    // One row per event (`a` / `b` rows name two), the stage histogram in
    // the last column, `—` for none.
    let mut documented: Vec<(String, Option<String>)> = Vec::new();
    for row in section(&text, "The serve event journal (`sara-serve-journal/v1`)") {
        if !row.starts_with("| `") {
            continue;
        }
        let cells: Vec<&str> = row.trim_matches('|').split(" | ").map(str::trim).collect();
        let histogram = match cells[cells.len() - 1] {
            "—" => None,
            h => Some(h.trim_matches('`').to_string()),
        };
        for event in cells[0].split(" / ") {
            documented.push((event.trim_matches('`').to_string(), histogram.clone()));
        }
    }
    let want: Vec<(String, Option<String>)> = EVENTS
        .iter()
        .map(|(event, h)| (event.to_string(), h.map(str::to_string)))
        .collect();
    assert_eq!(
        documented, want,
        "docs/observability.md's journal table vs sara_serve::EVENTS"
    );
}

#[test]
fn observability_lists_the_stage_histograms() {
    let text = doc_text("observability.md");
    let prose = section(&text, "The metrics endpoint").join(" ");
    let (_, rest) = prose
        .split_once("stage histograms** (")
        .expect("the metrics endpoint section lists its stage histograms");
    let (list, _) = rest.split_once(')').expect("a closed list");
    let listed: Vec<&str> = list
        .split(',')
        .map(|h| h.trim().trim_matches('`'))
        .collect();
    assert_eq!(listed, STAGE_HISTOGRAMS);
}
