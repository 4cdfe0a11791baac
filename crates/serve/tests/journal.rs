//! The observability guarantees, end to end: byte-identical journals
//! under a mock clock, worker-count-invariant event sequences under the
//! real clock, the Prometheus `metrics` reply, and multi-client serving
//! with per-client accounting.

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};

use json::Value;
use sara_serve::{Journal, ServeConfig, Server, COUNTERS};
use sara_telemetry::{prometheus, MockClock};

fn run_session(server: &Server, input: &str) -> String {
    let mut out = Vec::new();
    server
        .handle_session(input.as_bytes(), &mut out)
        .expect("session I/O");
    String::from_utf8(out).expect("utf-8 replies")
}

fn submit(id: &str, extra: &str) -> String {
    format!(
        "{{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"{id}\",\
         \"scenarios\":[\"camcorder-b\"],\"policies\":[\"FCFS\",\"QoS\"],\
         \"duration_ms\":0.05{extra}}}\n"
    )
}

fn records(transcript: &str) -> Vec<Value> {
    transcript
        .lines()
        .map(|l| json::parse(l).expect("every reply line is valid JSON"))
        .collect()
}

fn of_type<'a>(records: &'a [Value], rtype: &str) -> Vec<&'a Value> {
    records
        .iter()
        .filter(|r| r.get("type").and_then(Value::as_str) == Some(rtype))
        .collect()
}

fn u64_field(record: &Value, key: &str) -> u64 {
    record
        .get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing {key} in {record:?}"))
}

/// The journal as NDJSON text (the same bytes a `--journal` file gets).
fn journal_text(server: &Server) -> String {
    server
        .journal_events()
        .iter()
        .fold(String::new(), |mut acc, e| {
            acc.push_str(&e.to_string_compact());
            acc.push('\n');
            acc
        })
}

/// Journal NDJSON with the scheduling-dependent fields zeroed: `ts_us`
/// and `dur_us` are wall-clock, `worker` depends on which pool thread
/// won the race. What remains is the canonical event sequence.
fn masked_journal(server: &Server) -> String {
    server
        .journal_events()
        .iter()
        .fold(String::new(), |mut acc, e| {
            let members = e
                .as_object()
                .expect("journal records are objects")
                .iter()
                .map(|(k, v)| match k.as_str() {
                    "ts_us" | "dur_us" | "worker" => (k.clone(), Value::from(0u64)),
                    _ => (k.clone(), v.clone()),
                })
                .collect();
            acc.push_str(&Value::Object(members).to_string_compact());
            acc.push('\n');
            acc
        })
}

#[test]
fn mock_clock_journal_is_byte_identical_across_runs() {
    let run = || {
        let server = Server::new(ServeConfig {
            workers: 1,
            ..Default::default()
        })
        .with_clock(Box::new(MockClock::new(7)))
        .with_journal(Journal::new(None, true));
        let input = format!("{}{}", submit("a", ""), submit("b", ""));
        let transcript = run_session(&server, &input);
        (journal_text(&server), transcript)
    };
    let (journal_1, transcript_1) = run();
    let (journal_2, transcript_2) = run();
    assert_eq!(journal_1, journal_2, "mock-clock journal must not vary");
    // Under the mock clock even `elapsed_us` is deterministic, so the
    // whole reply stream is byte-identical too.
    assert_eq!(transcript_1, transcript_2);

    // The canonical double-submit shape: job a misses twice and
    // simulates, job b is served from cache (no sim events).
    let kinds: Vec<String> = journal_1
        .lines()
        .map(|l| {
            let e = json::parse(l).expect("journal line parses");
            e.get("event").and_then(Value::as_str).unwrap().to_string()
        })
        .collect();
    assert_eq!(
        kinds,
        [
            "accepted",
            "queued",
            "cache_miss",
            "queued",
            "cache_miss",
            "sim_start",
            "sim_end",
            "emitted",
            "sim_start",
            "sim_end",
            "emitted",
            "accepted",
            "queued",
            "cache_hit",
            "queued",
            "cache_hit",
            "emitted",
            "emitted",
        ]
    );
    // Span ids are journal-wide monotonic, job numbers per submit.
    let events: Vec<Value> = journal_1.lines().map(|l| json::parse(l).unwrap()).collect();
    for (i, e) in events.iter().enumerate() {
        assert_eq!(u64_field(e, "span"), i as u64 + 1);
    }
    assert_eq!(u64_field(&events[0], "job"), 1);
    assert_eq!(u64_field(&events[11], "job"), 2);
}

/// A `submit` line with the given id and members.
fn submit_with(id: &str, members: &str) -> String {
    format!("{{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"{id}\",{members}}}\n")
}

/// One infeasible cell under `"screen":"prune"`: never looked up, never
/// simulated.
const PRUNED: &str = "\"scenarios\":[\"saturation\"],\"policies\":[\"FCFS\"],\
                      \"freqs_mhz\":[400],\"duration_ms\":0.05,\"screen\":\"prune\"";

/// The journal of one fixed mock-clock session — a miss/hit double
/// submit, a prune job and a budget rejection — captured byte for byte
/// from the journal before its eight event methods became one `append`.
const PINNED_JOURNAL: &str = r#"{"format":"sara-serve-journal/v1","event":"accepted","span":1,"job":1,"id":"a","client":"anonymous","cells":2,"ts_us":0}
{"format":"sara-serve-journal/v1","event":"queued","span":2,"job":1,"id":"a","seq":0,"ts_us":7}
{"format":"sara-serve-journal/v1","event":"cache_miss","span":3,"job":1,"id":"a","seq":0,"dur_us":7,"ts_us":14}
{"format":"sara-serve-journal/v1","event":"queued","span":4,"job":1,"id":"a","seq":1,"ts_us":21}
{"format":"sara-serve-journal/v1","event":"cache_miss","span":5,"job":1,"id":"a","seq":1,"dur_us":7,"ts_us":28}
{"format":"sara-serve-journal/v1","event":"sim_start","span":6,"job":1,"id":"a","seq":0,"worker":0,"dur_us":21,"ts_us":35}
{"format":"sara-serve-journal/v1","event":"sim_end","span":7,"job":1,"id":"a","seq":0,"worker":0,"dur_us":7,"ts_us":42}
{"format":"sara-serve-journal/v1","event":"emitted","span":8,"job":1,"id":"a","seq":0,"dur_us":7,"ts_us":56}
{"format":"sara-serve-journal/v1","event":"sim_start","span":9,"job":1,"id":"a","seq":1,"worker":0,"dur_us":35,"ts_us":63}
{"format":"sara-serve-journal/v1","event":"sim_end","span":10,"job":1,"id":"a","seq":1,"worker":0,"dur_us":7,"ts_us":70}
{"format":"sara-serve-journal/v1","event":"emitted","span":11,"job":1,"id":"a","seq":1,"dur_us":7,"ts_us":84}
{"format":"sara-serve-journal/v1","event":"accepted","span":12,"job":2,"id":"b","client":"anonymous","cells":2,"ts_us":98}
{"format":"sara-serve-journal/v1","event":"queued","span":13,"job":2,"id":"b","seq":0,"ts_us":105}
{"format":"sara-serve-journal/v1","event":"cache_hit","span":14,"job":2,"id":"b","seq":0,"dur_us":7,"ts_us":112}
{"format":"sara-serve-journal/v1","event":"queued","span":15,"job":2,"id":"b","seq":1,"ts_us":119}
{"format":"sara-serve-journal/v1","event":"cache_hit","span":16,"job":2,"id":"b","seq":1,"dur_us":7,"ts_us":126}
{"format":"sara-serve-journal/v1","event":"emitted","span":17,"job":2,"id":"b","seq":0,"dur_us":7,"ts_us":140}
{"format":"sara-serve-journal/v1","event":"emitted","span":18,"job":2,"id":"b","seq":1,"dur_us":7,"ts_us":154}
{"format":"sara-serve-journal/v1","event":"accepted","span":19,"job":3,"id":"p","client":"anonymous","cells":1,"ts_us":168}
{"format":"sara-serve-journal/v1","event":"queued","span":20,"job":3,"id":"p","seq":0,"ts_us":175}
{"format":"sara-serve-journal/v1","event":"screened","span":21,"job":3,"id":"p","seq":0,"verdict":"infeasible","dur_us":7,"ts_us":182}
{"format":"sara-serve-journal/v1","event":"emitted","span":22,"job":3,"id":"p","seq":0,"dur_us":7,"ts_us":196}
{"format":"sara-serve-journal/v1","event":"rejected","span":23,"job":4,"id":"big","client":"anonymous","reason":"budget","ts_us":217}
"#;

#[test]
fn mock_clock_journal_bytes_are_pinned() {
    let server = Server::new(ServeConfig {
        workers: 1,
        budget: 4,
        ..Default::default()
    })
    .with_clock(Box::new(MockClock::new(7)))
    .with_journal(Journal::new(None, true));
    let input = [
        submit("a", ""),
        submit("b", ""),
        submit_with("p", PRUNED),
        submit_with(
            "big",
            "\"scenarios\":[\"camcorder-b\"],\"duration_ms\":0.05",
        ),
    ]
    .concat();
    run_session(&server, &input);
    assert_eq!(journal_text(&server), PINNED_JOURNAL);
}

/// A screened cell's screening time is journaled, but it is not a cache
/// lookup: the `cache_lookup_us` histogram counts exactly the lookups the
/// `stats` counters and the journal's `cache_hit`/`cache_miss` events do.
#[test]
fn screening_time_is_not_a_cache_lookup() {
    let server = Server::new(ServeConfig {
        workers: 1,
        ..Default::default()
    })
    .with_journal(Journal::new(None, true));
    let input = [
        submit_with("p", PRUNED),
        submit_with(
            "one",
            "\"scenarios\":[\"camcorder-b\"],\"policies\":[\"FCFS\"],\"duration_ms\":0.05",
        ),
        "{\"format\":\"sara-serve/v1\",\"type\":\"stats\"}\n".to_string(),
    ]
    .concat();
    let replies = records(&run_session(&server, &input));
    let counters = of_type(&replies, "stats")[0]
        .get("counters")
        .expect("counters object");
    let lookups = u64_field(counters, "cache_hits") + u64_field(counters, "cache_misses");
    assert_eq!(u64_field(counters, "cells_screened"), 1);
    assert_eq!(lookups, 1);
    let exposition = server.prometheus_text();
    assert!(
        exposition.contains(&format!("cache_lookup_us_count {lookups}\n")),
        "{exposition}"
    );
    let journaled = server
        .journal_events()
        .iter()
        .filter(|e| {
            matches!(
                e.get("event").and_then(Value::as_str),
                Some("cache_hit" | "cache_miss")
            )
        })
        .count();
    assert_eq!(journaled as u64, lookups);
}

#[test]
fn masked_journal_sequence_is_worker_count_invariant() {
    // 1 scenario × 6 policies so a wide pool actually shards, twice,
    // through a cache that keeps two of the six entries (about 10 KB
    // each): the second job mixes hits with re-simulated evicted cells,
    // and both jobs evict.
    let all = "{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"w\",\
               \"scenarios\":[\"camcorder-b\"],\"duration_ms\":0.05}\n";
    let masked = |workers: usize| {
        let server = Server::new(ServeConfig {
            workers,
            cache_max_bytes: 25_000,
            ..Default::default()
        })
        .with_journal(Journal::new(None, true));
        run_session(&server, &all.repeat(2));
        assert_eq!(server.cache_len(), 2);
        masked_journal(&server)
    };
    let serial = masked(1);
    let wide = masked(8);
    assert!(!serial.is_empty());
    assert!(serial.contains("\"event\":\"evicted\""), "{serial}");
    assert!(serial.contains("\"event\":\"cache_hit\""), "{serial}");
    assert_eq!(
        serial, wide,
        "worker count leaked into the journal's event sequence"
    );
}

#[test]
fn rejected_jobs_are_journaled_with_a_reason() {
    let server = Server::new(ServeConfig {
        budget: 3,
        ..Default::default()
    })
    .with_journal(Journal::new(None, true));
    // 6 cells > budget 3 → "budget"; unknown scenario → "unknown-scenario".
    run_session(
        &server,
        "{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"big\",\
         \"scenarios\":[\"camcorder-b\"],\"duration_ms\":0.05}\n\
         {\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"bad\",\
         \"scenarios\":[\"no-such\"],\"client\":\"ci\"}\n",
    );
    let events = server.journal_events();
    assert_eq!(events.len(), 2);
    assert_eq!(
        events[0].get("event").and_then(Value::as_str),
        Some("rejected")
    );
    assert_eq!(
        events[0].get("reason").and_then(Value::as_str),
        Some("budget")
    );
    assert_eq!(events[0].get("id").and_then(Value::as_str), Some("big"));
    assert_eq!(
        events[1].get("reason").and_then(Value::as_str),
        Some("unknown-scenario")
    );
    assert_eq!(events[1].get("client").and_then(Value::as_str), Some("ci"));
}

#[test]
fn metrics_reply_carries_prometheus_exposition() {
    let server = Server::new(ServeConfig::default());
    run_session(&server, &submit("m", ",\"client\":\"ci\""));
    // A client name needing every label-value escape: `a "b"\c` + newline.
    run_session(&server, &submit("n", ",\"client\":\"a \\\"b\\\"\\\\c\\n\""));
    let replies = records(&run_session(
        &server,
        "{\"format\":\"sara-serve/v1\",\"type\":\"metrics\"}\n",
    ));
    assert_eq!(replies.len(), 1);
    assert_eq!(
        replies[0].get("type").and_then(Value::as_str),
        Some("metrics")
    );
    let exposition = replies[0]
        .get("exposition")
        .and_then(Value::as_str)
        .expect("exposition string");
    assert!(
        exposition.contains("# TYPE cache_hits counter\n"),
        "{exposition}"
    );
    assert!(exposition.contains("cache_misses 2\n"), "{exposition}");
    assert!(exposition.contains("cache_evictions 0\n"), "{exposition}");
    assert!(
        exposition.contains("# TYPE sim_us histogram\n"),
        "{exposition}"
    );
    assert!(exposition.contains("sim_us_bucket{le=\""), "{exposition}");
    assert!(exposition.contains("sim_us_count 2\n"), "{exposition}");
    assert!(
        exposition.contains("jobs{client=\"ci\"} 1\n"),
        "{exposition}"
    );
    assert!(
        exposition.contains("cells{client=\"ci\"} 2\n"),
        "{exposition}"
    );
    assert!(
        exposition.contains("jobs{client=\"a \\\"b\\\"\\\\c\\n\"} 1\n"),
        "{exposition}"
    );
    // The live exposition passes the strict checker `sara report` runs.
    if let Err(e) = prometheus::check(exposition) {
        panic!("{e}\n{exposition}");
    }
    // `stats` stays the fixed nine counters, in order — wall-clock data
    // must not leak into the deterministic reply.
    let stats = records(&run_session(
        &server,
        "{\"format\":\"sara-serve/v1\",\"type\":\"stats\"}\n",
    ));
    let counters = stats[0].get("counters").expect("counters object");
    let names: Vec<&str> = counters
        .as_object()
        .unwrap()
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(names, COUNTERS);
    assert_eq!(COUNTERS.len(), 9);
}

#[test]
fn chrome_trace_renders_journal_spans() {
    let server = Server::new(ServeConfig {
        workers: 1,
        ..Default::default()
    })
    .with_clock(Box::new(MockClock::new(5)))
    .with_journal(Journal::new(None, true));
    run_session(&server, &submit("c", ""));
    let trace = sara_serve::journal::chrome_trace_of(&server.journal_events()).to_value();
    let events = trace.get("traceEvents").unwrap().as_array().unwrap();
    let sims = events
        .iter()
        .filter(|e| e.get("cat").and_then(Value::as_str) == Some("sim"))
        .count();
    let emits = events
        .iter()
        .filter(|e| e.get("cat").and_then(Value::as_str) == Some("emit"))
        .count();
    assert_eq!(sims, 2);
    assert_eq!(emits, 2);
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
        })
        .collect();
    assert_eq!(names, ["sara serve", "session", "worker 0"]);
}

/// Satellite: two concurrent TCP clients with interleaved submits.
/// Per-client budget accounting, the `protocol_errors` counter, and
/// deterministic per-job `seq` ordering are all asserted.
#[test]
fn concurrent_tcp_clients_keep_budgets_and_ordering_separate() {
    let server = Server::new(ServeConfig {
        budget: 4,
        workers: 2,
        ..Default::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let talk = |input: String| -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(input.as_bytes()).expect("send");
        stream
            .write_all(b"{\"format\":\"sara-serve/v1\",\"type\":\"shutdown\"}\n")
            .expect("send shutdown");
        let mut transcript = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut transcript)
            .expect("read replies");
        transcript
    };

    let (alice, bob) = std::thread::scope(|scope| {
        let service = scope.spawn(|| server.serve_listener(&listener, Some(2)));
        // Alice: one in-budget job, one garbage line, one 6-cell job that
        // must bounce off her 4-cell budget.
        let alice = scope.spawn(move || {
            talk(format!(
                "{}garbage, not json\n\
                 {{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"a2\",\
                 \"client\":\"alice\",\"scenarios\":[\"camcorder-b\"],\"duration_ms\":0.05}}\n",
                submit("a1", ",\"client\":\"alice\"")
            ))
        });
        // Bob: two identical jobs at a frequency alice never touches, so
        // his second is served from his own cached cells regardless of
        // how the sessions interleave.
        let bob = scope.spawn(move || {
            talk(format!(
                "{}{}",
                submit("b1", ",\"client\":\"bob\",\"freqs_mhz\":[1500]"),
                submit("b2", ",\"client\":\"bob\",\"freqs_mhz\":[1500]")
            ))
        });
        let (alice, bob) = (alice.join().expect("alice"), bob.join().expect("bob"));
        service.join().expect("service").expect("accept loop");
        (alice, bob)
    });

    // Alice: a1 completed, the garbage answered, a2 refused over budget.
    let replies = records(&alice);
    let summaries = of_type(&replies, "summary");
    assert_eq!(summaries.len(), 1, "{alice}");
    assert_eq!(u64_field(summaries[0], "cells"), 2);
    let errors = of_type(&replies, "error");
    assert_eq!(errors.len(), 2, "{alice}");
    assert!(errors[0]
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("bad JSON"));
    assert!(errors[1]
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("budget"));

    // Bob: both jobs served; the repeat entirely from cache.
    let replies = records(&bob);
    let summaries = of_type(&replies, "summary");
    assert_eq!(summaries.len(), 2, "{bob}");
    assert_eq!(u64_field(summaries[0], "cache_misses"), 2);
    assert_eq!(u64_field(summaries[1], "cache_hits"), 2);
    assert_eq!(u64_field(summaries[1], "cache_misses"), 0);

    // Per-job seq ordering is deterministic inside every transcript.
    for transcript in [&alice, &bob] {
        let replies = records(transcript);
        for id in ["a1", "b1", "b2"] {
            let seqs: Vec<u64> = replies
                .iter()
                .filter(|r| {
                    r.get("type").and_then(Value::as_str) == Some("cell")
                        && r.get("id").and_then(Value::as_str) == Some(id)
                })
                .map(|r| u64_field(r, "seq"))
                .collect();
            let want: Vec<u64> = (0..seqs.len() as u64).collect();
            assert_eq!(seqs, want, "{id} cells out of order");
        }
    }

    // The shared counters add up across both clients, whatever the
    // interleaving.
    let stats = records(&run_session(
        &server,
        "{\"format\":\"sara-serve/v1\",\"type\":\"stats\"}\n",
    ));
    let counters = stats[0].get("counters").expect("counters object");
    assert_eq!(u64_field(counters, "jobs_accepted"), 3);
    assert_eq!(u64_field(counters, "jobs_rejected"), 1);
    assert_eq!(u64_field(counters, "protocol_errors"), 1);
    assert_eq!(u64_field(counters, "cache_hits"), 2);
    assert_eq!(u64_field(counters, "cache_misses"), 4);

    // Per-client series surface in the exposition.
    let metrics = records(&run_session(
        &server,
        "{\"format\":\"sara-serve/v1\",\"type\":\"metrics\"}\n",
    ));
    let exposition = metrics[0]
        .get("exposition")
        .and_then(Value::as_str)
        .unwrap();
    assert!(
        exposition.contains("jobs{client=\"alice\"} 1\n"),
        "{exposition}"
    );
    assert!(
        exposition.contains("jobs{client=\"bob\"} 2\n"),
        "{exposition}"
    );
    assert!(
        exposition.contains("cells{client=\"bob\"} 4\n"),
        "{exposition}"
    );
}
