//! End-to-end tests of the service against its two core guarantees:
//! byte-identity with `sara matrix` (for any worker count, cache state,
//! cache budget, or arrival order) and "no cell is simulated twice while
//! its entry is within the budget" (proved by the cache-hit accounting),
//! plus admission control and the transports: one write per reply plus
//! one per simulated cell (the reply buffer goes out before each
//! simulation), no delayed-ACK stall over TCP, a client that leaves
//! mid-job ending only its own session, a capped request line, and
//! seeded mutants of a valid submit, each refused alone.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

use json::Value;
use sara_memctrl::PolicyKind;
use sara_scenarios::{catalog, run_matrix, MatrixSpec, ScreenMode};
use sara_serve::{ServeConfig, Server, FORMAT_TAG, MAX_REQUEST_LINE, REPLY_BUFFER};

/// Runs one in-process session and returns its reply stream.
fn run_session(server: &Server, input: &str) -> String {
    let mut out = Vec::new();
    server
        .handle_session(input.as_bytes(), &mut out)
        .expect("session I/O");
    String::from_utf8(out).expect("utf-8 replies")
}

/// A canonical small-job submit line: camcorder-b × {FCFS, QoS} at 0.05 ms.
fn submit(id: &str, extra: &str) -> String {
    format!(
        "{{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"{id}\",\
         \"scenarios\":[\"camcorder-b\"],\"policies\":[\"FCFS\",\"QoS\"],\
         \"duration_ms\":0.05{extra}}}\n"
    )
}

/// The MatrixSpec equivalent of [`submit`], for batch-harness comparison.
fn submit_spec() -> MatrixSpec {
    MatrixSpec {
        policies: vec![PolicyKind::Fcfs, PolicyKind::Priority],
        freqs_mhz: Vec::new(),
        channels: Vec::new(),
        duration_ms: Some(0.05),
        threads: 1,
        screen: ScreenMode::Off,
    }
}

/// The result lines of a transcript — everything except `summary`
/// records, whose cache_hits/cache_misses fields legitimately depend on
/// cache state (that dependence is the whole point of the counters).
fn result_lines(transcript: &str) -> String {
    transcript
        .lines()
        .filter(|l| !l.contains("\"type\":\"summary\""))
        .fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        })
}

/// Masks the one wall-clock field in a reply stream — the summary's
/// `elapsed_us` — so byte comparisons see only deterministic content.
fn mask_elapsed(transcript: &str) -> String {
    let needle = "\"elapsed_us\":";
    let mut out = String::with_capacity(transcript.len());
    let mut rest = transcript;
    while let Some(pos) = rest.find(needle) {
        let start = pos + needle.len();
        out.push_str(&rest[..start]);
        out.push('0');
        let tail = &rest[start..];
        let digits = tail
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(tail.len());
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
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

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sara-serve-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn double_submit_simulates_each_cell_exactly_once() {
    let server = Server::new(ServeConfig::default());
    let first = run_session(&server, &submit("a", ""));
    let second = run_session(&server, &submit("b", ""));

    let first_summary = of_type(&records(&first), "summary")[0].clone();
    assert_eq!(u64_field(&first_summary, "cells"), 2);
    assert_eq!(u64_field(&first_summary, "cache_hits"), 0);
    assert_eq!(u64_field(&first_summary, "cache_misses"), 2);

    let second_summary = of_type(&records(&second), "summary")[0].clone();
    assert_eq!(
        u64_field(&second_summary, "cache_hits"),
        2,
        "a resubmitted job must be served entirely from cache"
    );
    assert_eq!(u64_field(&second_summary, "cache_misses"), 0);
    assert_eq!(server.cache_len(), 2, "only distinct cells are stored");

    // Cached replies are byte-identical to simulated ones (only the job
    // id — and the summary's hit/miss split, by design — differs).
    assert_eq!(
        result_lines(&second.replace("\"id\":\"b\"", "\"id\":\"a\"")),
        result_lines(&first)
    );

    // The server-wide counters agree with the per-job summaries.
    let stats = records(&run_session(
        &server,
        "{\"format\":\"sara-serve/v1\",\"type\":\"stats\"}\n",
    ));
    let counters = stats[0].get("counters").expect("counters object");
    assert_eq!(u64_field(counters, "jobs_accepted"), 2);
    assert_eq!(u64_field(counters, "cells_total"), 4);
    assert_eq!(u64_field(counters, "cache_hits"), 2);
    assert_eq!(u64_field(counters, "cache_misses"), 2);
}

#[test]
fn a_cache_with_no_budget_keeps_nothing_and_changes_no_byte() {
    let server = Server::new(ServeConfig {
        cache_max_bytes: 0,
        ..ServeConfig::default()
    });
    let first = run_session(&server, &submit("a", ""));
    let second = run_session(&server, &submit("a", ""));
    for transcript in [&first, &second] {
        let summary = of_type(&records(transcript), "summary")[0].clone();
        assert_eq!(u64_field(&summary, "cache_hits"), 0);
        assert_eq!(u64_field(&summary, "cache_misses"), 2);
    }
    assert_eq!(mask_elapsed(&first), mask_elapsed(&second));
    assert_eq!(server.cache_len(), 0);
    let stats = records(&run_session(
        &server,
        "{\"format\":\"sara-serve/v1\",\"type\":\"stats\"}\n",
    ));
    let counters = stats[0].get("counters").expect("counters object");
    assert_eq!(u64_field(counters, "cache_evictions"), 4);
}

#[test]
fn worker_count_and_cache_state_never_change_the_byte_stream() {
    // A bigger job so the pool actually shards: 1 scenario × 6 policies.
    let all = "{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"w\",\
               \"scenarios\":[\"camcorder-b\"],\"duration_ms\":0.05}\n";
    let serial = run_session(
        &Server::new(ServeConfig {
            workers: 1,
            ..Default::default()
        }),
        all,
    );
    let wide = run_session(
        &Server::new(ServeConfig {
            workers: 8,
            ..Default::default()
        }),
        all,
    );
    assert_eq!(
        mask_elapsed(&serial),
        mask_elapsed(&wide),
        "worker count leaked into the byte stream"
    );

    // A warmed cache must replay the same result bytes too (only the
    // summary's hit/miss split moves, by design).
    let warmed = Server::new(ServeConfig::default());
    run_session(&warmed, all);
    assert_eq!(
        result_lines(&run_session(&warmed, all)),
        result_lines(&serial)
    );
}

#[test]
fn served_cells_and_artifact_match_the_batch_harness_byte_for_byte() {
    // The canonical job once, then a mixed one twice in one server: with
    // `"screen":"prune"`, 266 MHz screens saturation's and camcorder-b's
    // cells and FCFS twice makes an in-job duplicate, so the cold run
    // holds screened, simulated and duplicate cells and the warm run
    // screened cells and hits. `(hits, misses, screened)` per run.
    let mixed_spec = MatrixSpec {
        policies: vec![PolicyKind::Fcfs, PolicyKind::Priority, PolicyKind::Fcfs],
        freqs_mhz: vec![266, 1700],
        screen: ScreenMode::Prune,
        ..submit_spec()
    };
    let jobs = [
        (
            (|out| submit("m", &format!(",\"json_out\":\"{out}\""))) as fn(&str) -> String,
            vec!["camcorder-b"],
            submit_spec(),
            vec![(0, 2, 0)],
        ),
        (
            |out| {
                format!(
                    "{{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"m\",\
                     \"scenarios\":[\"saturation\",\"camcorder-b\"],\
                     \"policies\":[\"FCFS\",\"QoS\",\"FCFS\"],\"freqs_mhz\":[266,1700],\
                     \"duration_ms\":0.05,\"screen\":\"prune\",\"json_out\":\"{out}\"}}\n"
                )
            },
            vec!["saturation", "camcorder-b"],
            mixed_spec,
            vec![(2, 4, 6), (6, 0, 6)],
        ),
    ];
    let dir = scratch("artifact");
    for (n, (submit_to, names, spec, runs)) in jobs.iter().enumerate() {
        let scenarios: Vec<_> = names.iter().map(|s| catalog::by_name(s).unwrap()).collect();
        let batch = run_matrix(&scenarios, spec).unwrap();
        let server = Server::new(ServeConfig::default());
        for (run, &(hits, misses, screened)) in runs.iter().enumerate() {
            let artifact = dir.join(format!("job-{n}-{run}.json"));
            let transcript = run_session(&server, &submit_to(&artifact.display().to_string()));

            // Every streamed cell record is the batch cell plus the
            // envelope.
            let replies = records(&transcript);
            let cells = of_type(&replies, "cell");
            assert_eq!(cells.len(), batch.cells.len());
            for (seq, (record, batch_cell)) in cells.iter().zip(&batch.cells).enumerate() {
                let mut members = vec![
                    ("format".to_string(), Value::from(FORMAT_TAG)),
                    ("type".to_string(), Value::from("cell")),
                    ("id".to_string(), Value::from("m")),
                    ("seq".to_string(), Value::from(seq as u64)),
                ];
                members.extend(batch_cell.json_members());
                assert_eq!(
                    record.to_string_compact(),
                    Value::Object(members).to_string_compact(),
                    "job {n} run {run}: cell {seq} drifted from the batch harness"
                );
            }

            // The artifact is exactly what `sara matrix --json` writes.
            let served_bytes = std::fs::read_to_string(&artifact).expect("artifact written");
            assert_eq!(
                served_bytes,
                format!("{}\n", batch.to_json()),
                "job {n} run {run}"
            );
            let summary = of_type(&replies, "summary")[0];
            assert_eq!(
                summary.get("artifact").and_then(Value::as_str),
                Some(artifact.display().to_string().as_str())
            );
            let count = |key| summary.get(key).and_then(Value::as_u64).unwrap_or(0);
            assert_eq!(
                (
                    count("cache_hits"),
                    count("cache_misses"),
                    count("screened")
                ),
                (hits, misses, screened),
                "job {n} run {run}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `cell` lines of a transcript, terminators dropped.
fn cell_lines(transcript: &str) -> Vec<&str> {
    transcript
        .lines()
        .filter(|l| l.contains("\"type\":\"cell\""))
        .collect()
}

#[test]
fn every_hit_replays_the_cold_cell_lines_from_the_one_rendering() {
    // One server, the whole catalog under all six policies: the cold job
    // simulates and renders each cell once, and two warm jobs copy those
    // renderings. The same scenario sent inline keys the same cells as
    // its catalog name: a third warm job.
    let server = Server::new(ServeConfig::default());
    for name in catalog::names() {
        let submit = |scenario: &str| {
            format!(
                "{{\"format\":\"{FORMAT_TAG}\",\"type\":\"submit\",\"id\":\"cat\",\
                 \"scenarios\":[{scenario}],\"duration_ms\":0.05}}\n"
            )
        };
        let line = submit(&format!("\"{name}\""));
        let cold = run_session(&server, &line);
        let first = run_session(&server, &line);
        let second = run_session(&server, &line);
        let document = catalog::by_name(&name).unwrap().to_json_value();
        let inline = run_session(&server, &submit(&document.to_string_compact()));
        assert_eq!(cell_lines(&cold).len(), 6, "{name}");
        for (warm, what) in [(&first, "first"), (&second, "second"), (&inline, "inline")] {
            let summary = of_type(&records(warm), "summary")[0].clone();
            assert_eq!(u64_field(&summary, "cache_hits"), 6, "{name}");
            assert_eq!(
                cell_lines(warm),
                cell_lines(&cold),
                "{name}: the {what} warm reply drifted from the cold one"
            );
        }
    }
}

#[test]
fn every_kind_of_cell_is_emitted_as_the_reference_builder_would() {
    // saturation and camcorder-b at 400 MHz are pruned; 1866 MHz twice
    // makes each simulated cell and an in-job duplicate of it. With
    // saturation's two simulated cells cached beforehand the job holds a
    // hit, a miss, a duplicate of each and screened cells.
    let server = Server::new(ServeConfig::default());
    let warm_up = "{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"w\",\
                   \"scenarios\":[\"saturation\"],\"policies\":[\"FCFS\",\"QoS\"],\
                   \"freqs_mhz\":[1866],\"duration_ms\":0.05}\n";
    run_session(&server, warm_up);
    let mixed = "{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"mix\",\
                 \"scenarios\":[\"saturation\",\"camcorder-b\"],\
                 \"policies\":[\"FCFS\",\"QoS\"],\"freqs_mhz\":[400,1866,1866],\
                 \"duration_ms\":0.05,\"screen\":\"prune\"}\n";
    let transcript = run_session(&server, mixed);
    let summary = of_type(&records(&transcript), "summary")[0].clone();
    assert_eq!(u64_field(&summary, "cells"), 12);
    assert_eq!(u64_field(&summary, "screened"), 4);
    assert_eq!(u64_field(&summary, "cache_misses"), 2);
    // Two cached cells, and the second copy of all four simulated ones.
    assert_eq!(u64_field(&summary, "cache_hits"), 6);

    let scenarios: Vec<_> = ["saturation", "camcorder-b"]
        .iter()
        .map(|name| catalog::by_name(name).unwrap())
        .collect();
    let batch = run_matrix(
        &scenarios,
        &MatrixSpec {
            freqs_mhz: vec![400, 1866, 1866],
            screen: ScreenMode::Prune,
            ..submit_spec()
        },
    )
    .unwrap();
    let mut reference = Vec::new();
    for (seq, cell) in batch.cells.iter().enumerate() {
        sara_serve::protocol::cell_record("mix", seq, cell)
            .write_ndjson_line(&mut reference)
            .expect("writing to a Vec cannot fail");
    }
    let reference = String::from_utf8(reference).expect("utf-8 records");
    assert_eq!(cell_lines(&transcript), cell_lines(&reference));
}

#[test]
fn an_all_hit_job_writes_the_artifact_of_the_all_miss_job_before_it() {
    let dir = scratch("artifact-from-cache");
    let (cold, warm) = (dir.join("cold.json"), dir.join("warm.json"));
    let server = Server::new(ServeConfig::default());
    for (id, path, hits) in [("cold", &cold, 0), ("warm", &warm, 2)] {
        let transcript = run_session(
            &server,
            &submit(id, &format!(",\"json_out\":\"{}\"", path.display())),
        );
        let summary = of_type(&records(&transcript), "summary")[0].clone();
        assert_eq!(u64_field(&summary, "cache_hits"), hits);
    }
    let cold_bytes = std::fs::read(&cold).expect("cold artifact written");
    assert!(!cold_bytes.is_empty());
    assert_eq!(std::fs::read(&warm).expect("warm artifact"), cold_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_artifact_that_cannot_be_written_fails_its_job_and_the_session_goes_on() {
    // `/dev/full` opens, then refuses every write. The simulated job's
    // artifact meets that mid-document; the screened one-cell job's is
    // smaller than the artifact writer's buffer, so it meets it only in
    // the final flush.
    let screened = |json_out: &str| {
        format!(
            "{{\"format\":\"{FORMAT_TAG}\",\"type\":\"submit\",\"id\":\"screened\",\
             \"scenarios\":[\"saturation\"],\"policies\":[\"FCFS\"],\"freqs_mhz\":[400],\
             \"screen\":\"prune\",\"json_out\":\"{json_out}\"}}\n"
        )
    };
    let dir = scratch("artifact-on-a-full-device");
    let small = dir.join("screened.json");
    let server = Server::new(ServeConfig::default());
    run_session(&server, &screened(&small.display().to_string()));
    let small_len = std::fs::metadata(&small).expect("artifact written").len();
    assert!(small_len < 8 << 10, "{small_len} bytes fill the buffer");
    let _ = std::fs::remove_dir_all(&dir);

    let transcript = run_session(
        &server,
        &format!(
            "{}{}{{\"format\":\"{FORMAT_TAG}\",\"type\":\"ping\"}}\n",
            submit("simulated", ",\"json_out\":\"/dev/full\""),
            screened("/dev/full"),
        ),
    );
    let replies = records(&transcript);
    let errors = of_type(&replies, "error");
    assert_eq!(errors.len(), 2, "{transcript}");
    for (error, id) in errors.iter().zip(["simulated", "screened"]) {
        assert_eq!(error.get("id").and_then(Value::as_str), Some(id));
        let message = error.get("error").and_then(Value::as_str).unwrap();
        assert!(
            message.starts_with("failed to write artifact /dev/full: "),
            "{message}"
        );
    }
    assert!(of_type(&replies, "summary").is_empty(), "{transcript}");
    assert_eq!(of_type(&replies, "pong").len(), 1, "session survived");
    assert_eq!(u64_field(&server.counters(), "jobs_failed"), 2);
}

#[test]
fn duplicate_cells_within_one_job_simulate_once() {
    // The same frequency twice expands to two fingerprint-identical
    // cells; the second must come from the first, not the pool.
    let server = Server::new(ServeConfig::default());
    let transcript = run_session(&server, &submit("d", ",\"freqs_mhz\":[1700,1700]"));
    let replies = records(&transcript);
    let summary = of_type(&replies, "summary")[0];
    assert_eq!(u64_field(summary, "cells"), 4); // 2 policies × 2 freqs
    assert_eq!(u64_field(summary, "cache_hits"), 2);
    assert_eq!(u64_field(summary, "cache_misses"), 2);
    // Both copies of each cell carry identical payloads.
    let cells = of_type(&replies, "cell");
    let body = |v: &Value| {
        let mut members = v.as_object().unwrap().to_vec();
        members.retain(|(k, _)| k != "seq");
        Value::Object(members).to_string_compact()
    };
    assert_eq!(body(cells[0]), body(cells[1]));
    assert_eq!(body(cells[2]), body(cells[3]));
}

#[test]
fn admission_budget_bounds_each_client() {
    let server = Server::new(ServeConfig {
        budget: 3,
        ..Default::default()
    });
    // 6 policies × 1 scenario = 6 cells > 3: refused before simulating.
    let refused = run_session(
        &server,
        "{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"big\",\
         \"scenarios\":[\"camcorder-b\"],\"duration_ms\":0.05}\n",
    );
    let replies = records(&refused);
    assert_eq!(replies.len(), 1, "{refused}");
    let error = of_type(&replies, "error")[0];
    assert!(
        error
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("budget"),
        "{refused}"
    );
    // Within budget still works, proving the refusal released nothing.
    let ok = run_session(&server, &submit("small", ""));
    assert_eq!(of_type(&records(&ok), "summary").len(), 1);
    let stats = records(&run_session(
        &server,
        "{\"format\":\"sara-serve/v1\",\"type\":\"stats\"}\n",
    ));
    let counters = stats[0].get("counters").expect("counters object");
    assert_eq!(u64_field(counters, "jobs_rejected"), 1);
    assert_eq!(u64_field(counters, "jobs_accepted"), 1);
}

#[test]
fn protocol_errors_answer_without_killing_the_session() {
    let server = Server::new(ServeConfig::default());
    let transcript = run_session(
        &server,
        "this is not json\n\
         {\"format\":\"sara-serve/v1\",\"type\":\"dance\"}\n\
         \n\
         {\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"x\",\
          \"scenarios\":[\"no-such-scenario\"]}\n\
         {\"format\":\"sara-serve/v1\",\"type\":\"ping\"}\n",
    );
    let replies = records(&transcript);
    assert_eq!(of_type(&replies, "error").len(), 3);
    assert_eq!(of_type(&replies, "pong").len(), 1, "session survived");
    let unknown = of_type(&replies, "error")[2];
    assert_eq!(unknown.get("id").and_then(Value::as_str), Some("x"));
    assert!(
        unknown
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("unknown scenario"),
        "{transcript}"
    );
}

/// The members of the valid warm submit the mutants start from, values
/// as JSON text.
fn warm_members() -> Vec<(&'static str, String)> {
    vec![
        ("format", format!("{FORMAT_TAG:?}")),
        ("type", "\"submit\"".to_string()),
        ("id", "\"warm\"".to_string()),
        ("scenarios", "[\"camcorder-b\"]".to_string()),
        ("policies", "[\"FCFS\",\"QoS\"]".to_string()),
        ("duration_ms", "0.05".to_string()),
    ]
}

fn line_of(members: &[(&str, String)]) -> String {
    let body: Vec<String> = members.iter().map(|(k, v)| format!("{k:?}:{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// Seeded mutants of the warm submit, one line each (no line break):
/// truncations, one byte flipped, a key given twice, a value of another
/// type, and two long ids — one past the line cap, one past the reply
/// buffer. A value is replaced only by one of another type, never by
/// another number: nothing bounds a job's length yet.
fn submit_mutants(seed: u64) -> Vec<Vec<u8>> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    const VALUES: [&str; 7] = ["null", "true", "-3", "\"x\"", "[]", "{}", "[1,\"a\"]"];
    // A JSON value's type, by its first byte.
    let kind = |text: &str| match text.as_bytes()[0] {
        b'-' | b'0'..=b'9' => b'0',
        first => first,
    };
    let members = warm_members();
    let valid = line_of(&members).into_bytes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mutants = Vec::new();
    while mutants.len() < 400 {
        let mutant = match rng.gen_range(0u32..4) {
            0 => valid[..rng.gen_range(1..valid.len())].to_vec(),
            1 => {
                let mut bytes = valid.clone();
                bytes[rng.gen_range(0..valid.len())] ^= 1 << rng.gen_range(0u32..8);
                bytes
            }
            2 => {
                let mut twice = members.clone();
                let at = rng.gen_range(0..twice.len());
                twice.insert(rng.gen_range(0..twice.len() + 1), members[at].clone());
                line_of(&twice).into_bytes()
            }
            _ => {
                let mut swapped = members.clone();
                let at = rng.gen_range(0..swapped.len());
                let value = VALUES[rng.gen_range(0..VALUES.len())];
                if kind(value) == kind(&swapped[at].1) {
                    continue;
                }
                swapped[at].1 = value.to_string();
                line_of(&swapped).into_bytes()
            }
        };
        // A line break would make two requests of one mutant.
        if !mutant.contains(&b'\n') {
            mutants.push(mutant);
        }
    }
    for id_len in [MAX_REQUEST_LINE, REPLY_BUFFER + 1] {
        let mut long = members.clone();
        long[2].1 = format!("\"{}\"", "i".repeat(id_len));
        mutants.push(line_of(&long).into_bytes());
    }
    mutants
}

#[test]
fn submit_mutants_get_one_error_each_and_leave_the_session_whole() {
    let warm = line_of(&warm_members());
    let ping = format!("{{\"format\":\"{FORMAT_TAG}\",\"type\":\"ping\"}}");
    let mutants = submit_mutants(0x5e7e_3000);
    // Each request is followed by a ping, so the replies split into one
    // segment per request at the pongs: the cold job, the warm one, each
    // mutant, and the warm job again.
    let mut input = Vec::new();
    for line in [warm.as_bytes(), warm.as_bytes()]
        .into_iter()
        .chain(mutants.iter().map(Vec::as_slice))
        .chain([warm.as_bytes()])
    {
        input.extend_from_slice(line);
        input.push(b'\n');
        input.extend_from_slice(ping.as_bytes());
        input.push(b'\n');
    }
    let server = Server::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut out = Vec::new();
    server
        .handle_session(input.as_slice(), &mut out)
        .expect("session I/O");
    let transcript = String::from_utf8(out).expect("utf-8 replies");
    let mut segments = vec![String::new()];
    for line in transcript.lines() {
        if line.contains("\"type\":\"pong\"") {
            segments.push(String::new());
        } else {
            let segment = segments.last_mut().expect("one segment at least");
            segment.push_str(line);
            segment.push('\n');
        }
    }
    assert_eq!(
        segments.pop().as_deref(),
        Some(""),
        "a pong ends the session"
    );
    assert_eq!(segments.len(), mutants.len() + 3, "one reply per request");

    let mut refused = 0;
    for (mutant, segment) in mutants.iter().zip(&segments[2..]) {
        let shown = String::from_utf8_lossy(&mutant[..mutant.len().min(200)]);
        let replies = records(segment);
        let request = std::str::from_utf8(mutant)
            .ok()
            .filter(|line| line.len() <= MAX_REQUEST_LINE)
            .map(sara_serve::protocol::parse_request);
        match request {
            Some(Ok(sara_serve::Request::Submit(job))) => {
                // Still a valid submit: answered as a job, or refused by
                // the server (say, a scenario name no catalog entry has).
                let kinds: Vec<&str> = replies
                    .iter()
                    .map(|r| r.get("type").and_then(Value::as_str).unwrap())
                    .collect();
                let answered =
                    kinds.first() == Some(&"accepted") && kinds.last() == Some(&"summary");
                assert!(answered || kinds == ["error"], "{shown}: {kinds:?}");
                for reply in &replies {
                    assert_eq!(
                        reply.get("id").and_then(Value::as_str),
                        Some(job.id.as_str())
                    );
                }
            }
            Some(Ok(other)) => panic!("a mutant became another request: {other:?}"),
            _ => {
                refused += 1;
                assert_eq!(replies.len(), 1, "{shown}: {segment}");
                assert_eq!(of_type(&replies, "error").len(), 1, "{shown}: {segment}");
            }
        }
    }
    assert!(
        refused >= mutants.len() / 2,
        "only {refused} mutants were refused"
    );
    assert_eq!(
        mask_elapsed(&segments[segments.len() - 1]),
        mask_elapsed(&segments[1]),
        "the warm job after the mutants"
    );
    assert!(
        segments[1].contains("\"cache_hits\":2,\"cache_misses\":0"),
        "{}",
        segments[1]
    );
}

#[test]
fn tcp_sessions_stream_the_same_bytes_as_stdio() {
    let server = Server::new(ServeConfig::default());
    let stdio = run_session(&server, &submit("t", ""));

    let fresh = Server::new(ServeConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let transcript = std::thread::scope(|scope| {
        let service = scope.spawn(|| fresh.serve_listener(&listener, Some(1)));
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(submit("t", "").as_bytes()).expect("send");
        stream
            .write_all(b"{\"format\":\"sara-serve/v1\",\"type\":\"shutdown\"}\n")
            .expect("send shutdown");
        let mut transcript = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut transcript)
            .expect("read replies");
        service
            .join()
            .expect("service thread")
            .expect("accept loop");
        transcript
    });
    assert_eq!(
        mask_elapsed(&transcript),
        mask_elapsed(&stdio),
        "transport leaked into the byte stream"
    );
}

/// A transport that accepts whatever it is handed and counts the calls.
#[derive(Default)]
struct Counting {
    bytes: Vec<u8>,
    writes: usize,
}

impl Write for Counting {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs one session on `server` over a [`Counting`] transport.
fn counted_session(server: &Server, input: &str) -> Counting {
    let mut counted = Counting::default();
    server
        .handle_session(input.as_bytes(), &mut counted)
        .expect("session I/O");
    counted
}

/// The 36-cell job every cell of which the analytic screener answers:
/// `saturation` and `adas-overload` under six policies at three deep
/// downclocks.
fn screened_job(id: &str) -> String {
    format!(
        "{{\"format\":\"{FORMAT_TAG}\",\"type\":\"submit\",\"id\":\"{id}\",\
         \"scenarios\":[\"saturation\",\"adas-overload\"],\
         \"freqs_mhz\":[266,333,400],\"screen\":\"prune\"}}\n"
    )
}

#[test]
fn a_reply_costs_one_write_plus_one_per_simulated_cell() {
    // Every reply kind with a body: pong, a simulated job, the same job
    // from cache, stats.
    let session = format!(
        "{{\"format\":\"{FORMAT_TAG}\",\"type\":\"ping\"}}\n{}{}\
         {{\"format\":\"{FORMAT_TAG}\",\"type\":\"stats\"}}\n",
        submit("cold", ""),
        submit("warm", "")
    );
    let stdio = run_session(&Server::new(ServeConfig::default()), &session);

    let server = Server::new(ServeConfig::default());
    let counted = counted_session(&server, &session);
    let transcript = String::from_utf8(counted.bytes).expect("utf-8 replies");
    assert_eq!(mask_elapsed(&transcript), mask_elapsed(&stdio));
    // pong + 2 × (accepted, 2 cells, summary) + stats.
    assert_eq!(transcript.lines().count(), 10);
    // pong | accepted | cold cell 0 | cold cell 1 + summary | the warm
    // job | stats: the buffer goes out before each simulation and at the
    // end of each reply, never once per record or per token.
    assert_eq!(counted.writes, 6);

    // 38 records, all ready at once: one write while the reply fits the
    // buffer.
    let screened = counted_session(&server, &screened_job("s"));
    assert_eq!(String::from_utf8_lossy(&screened.bytes).lines().count(), 38);
    assert!(
        screened.bytes.len() < REPLY_BUFFER,
        "{}",
        screened.bytes.len()
    );
    assert_eq!(screened.writes, 1);

    // A hit, then a miss: the hit leaves with `accepted` before the
    // session waits for the miss, which leaves with the summary.
    let hit_then_miss = "{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"hm\",\
                         \"scenarios\":[\"camcorder-b\"],\"policies\":[\"QoS\",\"QoS-RB\"],\
                         \"duration_ms\":0.05}\n";
    let counted = counted_session(&server, hit_then_miss);
    let summary = of_type(
        &records(&String::from_utf8_lossy(&counted.bytes)),
        "summary",
    )[0]
    .clone();
    assert_eq!(
        (
            u64_field(&summary, "cache_hits"),
            u64_field(&summary, "cache_misses")
        ),
        (1, 1)
    );
    assert_eq!(counted.writes, 2);
}

#[test]
fn a_client_that_leaves_mid_job_ends_only_its_own_session() {
    // Six simulated cells: the client closes its socket as soon as
    // `accepted` arrives, so the reply's later writes meet a closed
    // connection. The server drops that session and its job, and the
    // listener goes on to serve the next client exactly as a fresh server
    // would.
    let leaving = "{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"gone\",\
                   \"scenarios\":[\"camcorder-b\"],\"duration_ms\":0.1}\n";
    let after = format!(
        "{}{{\"format\":\"{FORMAT_TAG}\",\"type\":\"shutdown\"}}\n",
        submit("after", "")
    );
    let fresh = run_session(&Server::new(ServeConfig::default()), &after);

    let server = Server::new(ServeConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let transcript = std::thread::scope(|scope| {
        let service = scope.spawn(|| server.serve_listener(&listener, Some(2)));
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(leaving.as_bytes()).expect("send");
        let mut accepted = String::new();
        BufReader::new(&stream)
            .read_line(&mut accepted)
            .expect("read accepted");
        assert!(accepted.contains("\"type\":\"accepted\""), "{accepted}");
        drop(stream);

        let mut stream = TcpStream::connect(addr).expect("connect again");
        stream.write_all(after.as_bytes()).expect("send");
        let mut transcript = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut transcript)
            .expect("read replies");
        service
            .join()
            .expect("service thread")
            .expect("accept loop");
        transcript
    });
    assert_eq!(mask_elapsed(&transcript), mask_elapsed(&fresh));
    // The abandoned job ended at a failed write and published nothing;
    // the second session's two cells are all the cache holds.
    assert_eq!(server.cache_len(), 2);
}

#[test]
fn small_records_do_not_wait_out_delayed_acks_over_tcp() {
    // Every job is a screened cell, then a cell simulated afresh (each job
    // asks for a new duration), so its reply leaves in two writes:
    // `accepted` with the screened cell, then, a simulation later, the
    // simulated cell with the summary. The client is a plain `TcpStream` —
    // no TCP_NODELAY, no TCP_QUICKACK — so it delays its ACKs; a server
    // that leaves Nagle on then holds the second write of every job until
    // the client's 40 ms ACK timer fires.
    let job = |i: u32| {
        format!(
            "{{\"format\":\"{FORMAT_TAG}\",\"type\":\"submit\",\"id\":\"s\",\
             \"scenarios\":[\"saturation\"],\"policies\":[\"FCFS\"],\
             \"freqs_mhz\":[400,1866],\"duration_ms\":{},\"screen\":\"prune\"}}\n",
            0.02 + f64::from(i) / 1000.0
        )
    };
    let server = Server::new(ServeConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let mut job_ms: Vec<f64> = std::thread::scope(|scope| {
        let service = scope.spawn(|| server.serve_listener(&listener, Some(1)));
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut replies = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        let job_ms = (0..20)
            .map(|i| {
                let sent = std::time::Instant::now();
                stream.write_all(job(i).as_bytes()).expect("send");
                let (mut screened, mut simulated) = (0, 0);
                loop {
                    line.clear();
                    assert!(replies.read_line(&mut line).expect("read") > 0, "EOF");
                    if line.contains("\"type\":\"summary\"") {
                        break;
                    }
                    assert!(!line.contains("\"type\":\"error\""), "{line}");
                    screened += usize::from(line.contains("\"screened\":"));
                    simulated += usize::from(line.contains("\"report\":"));
                }
                assert_eq!((screened, simulated), (1, 1), "job {i}");
                sent.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        stream
            .write_all(b"{\"format\":\"sara-serve/v1\",\"type\":\"shutdown\"}\n")
            .expect("send shutdown");
        service
            .join()
            .expect("service thread")
            .expect("accept loop");
        job_ms
    });
    job_ms.sort_by(f64::total_cmp);
    let median = job_ms[job_ms.len() / 2];
    assert!(
        median < 20.0,
        "median two-write job took {median:.1} ms (all: {job_ms:.1?}); a delayed-ACK stall is >= 40 ms"
    );
}

#[test]
fn an_over_long_request_line_is_refused_and_skipped() {
    let ping = format!("{{\"format\":\"{FORMAT_TAG}\",\"type\":\"ping\"}}");
    let server = Server::new(ServeConfig::default());
    // A line of exactly the cap is served (trailing blanks are legal
    // JSON); one byte more is refused, skipped up to its newline — here
    // several caps away — and the session carries on.
    let padded = |len: usize| format!("{ping}{}\n", " ".repeat(len - ping.len()));
    let (at_cap, too_long) = (padded(MAX_REQUEST_LINE), padded(3 * MAX_REQUEST_LINE + 7));
    let replies = records(&run_session(
        &server,
        &format!("{at_cap}{too_long}{ping}\r\n"),
    ));
    let kinds: Vec<&str> = replies
        .iter()
        .map(|r| r.get("type").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(kinds, ["pong", "error", "pong"]);
    let message = replies[1].get("error").and_then(Value::as_str).unwrap();
    assert!(message.contains(&MAX_REQUEST_LINE.to_string()), "{message}");
    assert_eq!(u64_field(&server.counters(), "protocol_errors"), 1);

    // A stream that never sends a newline gets one refusal, not a buffer
    // that grows with it.
    let endless = std::io::repeat(b'x').take(64 * MAX_REQUEST_LINE as u64);
    let mut out = Vec::new();
    server
        .handle_session(BufReader::new(endless), &mut out)
        .expect("session I/O");
    let replies = records(&String::from_utf8(out).unwrap());
    assert_eq!(replies.len(), 1);
    assert_eq!(u64_field(&server.counters(), "protocol_errors"), 2);
}

#[test]
fn a_request_line_that_is_not_utf8_is_refused_and_the_session_goes_on() {
    let server = Server::new(ServeConfig::default());
    let mut input = b"\xff\xfe{\n".to_vec();
    input.extend_from_slice(
        format!("{{\"format\":\"{FORMAT_TAG}\",\"type\":\"ping\"}}\n").as_bytes(),
    );
    let mut out = Vec::new();
    server
        .handle_session(input.as_slice(), &mut out)
        .expect("one hostile byte must not end the session");
    let replies = records(&String::from_utf8(out).unwrap());
    let kinds: Vec<&str> = replies
        .iter()
        .map(|r| r.get("type").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(kinds, ["error", "pong"]);
    let message = replies[0].get("error").and_then(Value::as_str).unwrap();
    assert!(message.contains("UTF-8"), "{message}");
    assert_eq!(u64_field(&server.counters(), "protocol_errors"), 1);
}

#[cfg(unix)]
#[test]
fn unix_socket_sessions_work() {
    use std::os::unix::net::{UnixListener, UnixStream};
    let dir = scratch("unix");
    let path = dir.join("sara.sock");
    let server = Server::new(ServeConfig::default());
    let listener = UnixListener::bind(&path).expect("bind unix socket");
    let reply = std::thread::scope(|scope| {
        let service = scope.spawn(|| server.serve_unix(&listener, Some(1)));
        let mut stream = UnixStream::connect(&path).expect("connect");
        stream
            .write_all(
                b"{\"format\":\"sara-serve/v1\",\"type\":\"ping\"}\n\
                  {\"format\":\"sara-serve/v1\",\"type\":\"shutdown\"}\n",
            )
            .expect("send");
        let mut reply = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut reply)
            .expect("read");
        service
            .join()
            .expect("service thread")
            .expect("accept loop");
        reply
    });
    assert_eq!(
        reply,
        format!("{{\"format\":\"{FORMAT_TAG}\",\"type\":\"pong\"}}\n")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn accepted_precedes_cells_and_streaming_is_in_submission_order() {
    let server = Server::new(ServeConfig::default());
    let replies = records(&run_session(&server, &submit("o", "")));
    let kinds: Vec<&str> = replies
        .iter()
        .map(|r| r.get("type").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(kinds, ["accepted", "cell", "cell", "summary"]);
    assert_eq!(u64_field(&replies[0], "cells"), 2);
    for (i, cell) in of_type(&replies, "cell").iter().enumerate() {
        assert_eq!(u64_field(cell, "seq"), i as u64);
    }
    // Submission order is scenario-major: both cells name the scenario,
    // policies in request order.
    let cells = of_type(&replies, "cell");
    assert_eq!(cells[0].get("policy").and_then(Value::as_str), Some("FCFS"));
    assert_eq!(cells[1].get("policy").and_then(Value::as_str), Some("QoS"));
}

#[test]
fn a_failing_cell_ends_the_job_after_its_predecessors_streamed() {
    // camcorder-a does not fit one DRAM channel, so the job's last cell
    // fails to lower: the three before it stream, then one error record
    // ends the job — no summary, a live session. Under "prune" the
    // screener decides none of the four, and the one it cannot price falls
    // through to the cache: a miss like the others.
    for (screen, workers) in [("off", 1), ("off", 4), ("prune", 1), ("prune", 4)] {
        let job = format!(
            "{{\"format\":\"{FORMAT_TAG}\",\"type\":\"submit\",\"id\":\"f\",\
             \"scenarios\":[\"camcorder-b\",\"camcorder-a\"],\"policies\":[\"QoS\"],\
             \"channels\":[2,1],\"duration_ms\":0.05,\"screen\":\"{screen}\"}}\n\
             {{\"format\":\"{FORMAT_TAG}\",\"type\":\"ping\"}}\n"
        );
        let server = Server::new(ServeConfig {
            workers,
            ..ServeConfig::default()
        });
        let replies = records(&run_session(&server, &job));
        let kinds: Vec<&str> = replies
            .iter()
            .map(|r| r.get("type").and_then(Value::as_str).unwrap())
            .collect();
        let want = ["accepted", "cell", "cell", "cell", "error", "pong"];
        assert_eq!(kinds, want, "{screen}, {workers} workers");
        let error = replies[4].get("error").and_then(Value::as_str).unwrap();
        assert!(error.contains("exceed DRAM capacity"), "{error}");
        let counters = server.counters();
        assert_eq!(u64_field(&counters, "jobs_failed"), 1);
        assert_eq!(u64_field(&counters, "cells_screened"), 0);
        assert_eq!(u64_field(&counters, "cache_hits"), 0);
        assert_eq!(u64_field(&counters, "cache_misses"), 4);
        // Only completed jobs publish to the cache.
        assert_eq!(server.cache_len(), 0);
    }
}

#[test]
fn screened_cells_stream_verdicts_and_skip_the_cache() {
    let server = Server::new(ServeConfig::default());
    let line = "{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"scr\",\
                \"scenarios\":[\"saturation\"],\"policies\":[\"FCFS\"],\
                \"freqs_mhz\":[400,1866],\"duration_ms\":0.05,\"screen\":\"prune\"}\n";
    let replies = records(&run_session(&server, line));
    let cells = of_type(&replies, "cell");
    assert_eq!(cells.len(), 2);
    for cell in &cells {
        match u64_field(cell, "freq_mhz") {
            // Saturation's 23.8 GB/s demand is provably infeasible at
            // 400 MHz: answered analytically, no simulation report.
            400 => {
                assert_eq!(
                    cell.get("screened").and_then(Value::as_str),
                    Some("infeasible")
                );
                assert!(cell.get("report").is_none());
                let analytic = cell.get("analytic").expect("screened cells carry the eval");
                assert!(analytic.get("bound_gbs").and_then(Value::as_f64).unwrap() > 0.0);
            }
            // At the top rung the model cannot decide: a normal cell.
            1866 => {
                assert!(cell.get("screened").is_none());
                assert!(cell.get("report").is_some());
            }
            other => panic!("unexpected cell frequency {other}"),
        }
    }

    let summary = of_type(&replies, "summary")[0].clone();
    assert_eq!(u64_field(&summary, "cells"), 2);
    assert_eq!(u64_field(&summary, "screened"), 1);
    assert_eq!(
        u64_field(&summary, "cache_hits") + u64_field(&summary, "cache_misses"),
        1,
        "screened cells count toward neither cache bucket"
    );
    assert_eq!(
        server.cache_len(),
        1,
        "screened cells never enter the cache"
    );

    // Resubmitting screens the pruned cell again (deterministically) and
    // serves the simulated one from cache.
    let again = records(&run_session(&server, &line.replace("\"scr\"", "\"scr2\"")));
    let again_summary = of_type(&again, "summary")[0].clone();
    assert_eq!(u64_field(&again_summary, "screened"), 1);
    assert_eq!(u64_field(&again_summary, "cache_hits"), 1);

    // The server-wide counter tracks both jobs; an unscreened summary
    // omits the key entirely.
    let stats = records(&run_session(
        &server,
        "{\"format\":\"sara-serve/v1\",\"type\":\"stats\"}\n",
    ));
    let counters = stats[0].get("counters").unwrap();
    assert_eq!(
        counters.get("cells_screened").and_then(Value::as_u64),
        Some(2)
    );
    let plain = records(&run_session(&server, &submit("off", "")));
    assert!(of_type(&plain, "summary")[0].get("screened").is_none());

    // The batch harness's verify mode is batch-only over the wire.
    let err = records(&run_session(&server, &line.replace("prune", "verify")));
    assert_eq!(err[0].get("type").and_then(Value::as_str), Some("error"));
}
