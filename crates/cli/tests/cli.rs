//! Integration tests driving the built `sara` binary: exit codes and
//! stderr on bad invocations, golden `--help` output, and the
//! export → validate → matrix end-to-end path.
//!
//! Goldens follow `tests/support/golden.rs` at the repository root:
//! after an intentional output change, regenerate them with
//!
//! ```sh
//! SARA_UPDATE_GOLDENS=1 cargo test -p sara-cli --test cli
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use json::Value;

fn sara(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sara"))
        .args(args)
        .output()
        .expect("spawn sara")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout utf-8")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr utf-8")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

/// A per-test scratch directory (process id + test name keeps parallel
/// test threads and parallel suites apart).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sara-cli-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

// --- golden --help output ---------------------------------------------------

#[path = "../../../tests/support/golden.rs"]
mod golden;

fn check_golden(args: &[&str], name: &str) {
    let out = sara(args);
    assert_eq!(code(&out), 0, "{args:?} failed: {}", stderr(&out));
    golden::check(name, &stdout(&out));
}

#[test]
fn help_output_matches_goldens() {
    check_golden(&["--help"], "help.txt");
    check_golden(&["matrix", "--help"], "help-matrix.txt");
    check_golden(&["govern", "--help"], "help-govern.txt");
    check_golden(&["report", "--help"], "help-report.txt");
    check_golden(&["repro", "--help"], "help-repro.txt");
    check_golden(&["serve", "--help"], "help-serve.txt");
}

/// `sara help` is `sara --help`, and `sara help <command>` forwards to the
/// command's own `--help`, so an unknown command is still a loud usage
/// error.
#[test]
fn help_forwards_to_the_command_help() {
    for (help, direct) in [
        (&["help"][..], &["--help"][..]),
        (&["help", "matrix"], &["matrix", "--help"]),
    ] {
        let (out, want) = (sara(help), sara(direct));
        assert_eq!(code(&out), 0, "sara {help:?}");
        assert_eq!(out.stdout, want.stdout, "sara {help:?} vs sara {direct:?}");
        assert!(!out.stdout.is_empty());
    }
    let out = sara(&["help", "conquer"]);
    assert_eq!(code(&out), 2);
    assert!(
        stderr(&out).contains("unknown command \"conquer\""),
        "{}",
        stderr(&out)
    );
    assert!(stdout(&out).is_empty());
}

#[test]
fn completion_scripts_match_goldens() {
    check_golden(&["completions", "bash"], "completions-bash.txt");
    check_golden(&["completions", "zsh"], "completions-zsh.txt");
    check_golden(&["completions", "fish"], "completions-fish.txt");
    // An unknown shell is a usage error naming the vocabulary.
    let out = sara(&["completions", "tcsh"]);
    assert_eq!(code(&out), 2);
    assert!(
        stderr(&out).contains("bash, zsh or fish"),
        "{}",
        stderr(&out)
    );
    // Every script names every subcommand, including itself.
    for shell in ["bash", "zsh", "fish"] {
        let text = stdout(&sara(&["completions", shell]));
        for cmd in [
            "export",
            "validate",
            "list",
            "matrix",
            "sweep",
            "govern",
            "gen",
            "report",
            "repro",
            "serve",
            "completions",
        ] {
            assert!(text.contains(cmd), "{shell} script missing {cmd}");
        }
        assert!(
            text.contains("per-channel") || text.contains("l per-channel"),
            "{shell} script missing the govern flags"
        );
    }
}

#[test]
fn every_subcommand_answers_help() {
    for cmd in [
        "export",
        "validate",
        "list",
        "matrix",
        "sweep",
        "govern",
        "gen",
        "report",
        "repro",
        "serve",
        "completions",
    ] {
        let out = sara(&[cmd, "--help"]);
        assert_eq!(code(&out), 0, "{cmd} --help failed");
        let text = stdout(&out);
        assert!(
            text.contains(&format!("usage: sara {cmd}")),
            "{cmd} --help missing its usage line:\n{text}"
        );
    }
}

// --- exit codes and stderr on bad invocations -------------------------------

#[test]
fn bad_flags_exit_2_with_usage_on_stderr() {
    let out = sara(&["matrix", "--bogus"]);
    assert_eq!(code(&out), 2);
    let err = stderr(&out);
    assert!(err.contains("unknown flag \"--bogus\""), "{err}");
    assert!(err.contains("usage: sara matrix"), "{err}");
    assert!(
        stdout(&out).is_empty(),
        "usage errors must not touch stdout"
    );

    // Retired switches (lane stepping; the sweep's Fig. 7 mode, its
    // observed core and its camcorder cases) are ordinary unknown flags.
    for (cmd, flag) in [
        ("matrix", "--parallel-channels"),
        ("govern", "--parallel-channels"),
        ("serve", "--parallel-channels"),
        ("sweep", "--dvfs"),
        ("sweep", "--core"),
        ("sweep", "--case"),
    ] {
        let out = sara(&[cmd, flag]);
        assert_eq!(code(&out), 2, "sara {cmd} {flag}");
        let err = stderr(&out);
        assert!(err.contains(&format!("unknown flag \"{flag}\"")), "{err}");
        assert!(err.contains(&format!("usage: sara {cmd}")), "{err}");
    }

    // The retired `bench` subcommand is an ordinary unknown command.
    let out = sara(&["bench"]);
    assert_eq!(code(&out), 2);
    assert!(
        stderr(&out).contains("unknown command \"bench\""),
        "{}",
        stderr(&out)
    );
    assert!(stdout(&out).is_empty());

    let out = sara(&["matrix", "--duration-ms", "fast"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("--duration-ms"), "{}", stderr(&out));

    // `repro` needs a known target and a positive duration.
    for (args, complaint) in [
        (&["repro"][..], "which target?"),
        (&["repro", "fig10"], "unknown target \"fig10\""),
        (
            &["repro", "table1", "--duration-ms", "0"],
            "--duration-ms must be > 0",
        ),
    ] {
        let out = sara(args);
        assert_eq!(code(&out), 2, "sara {args:?}");
        let err = stderr(&out);
        assert!(err.contains(complaint), "{err}");
        assert!(err.contains("usage: sara repro"), "{err}");
        assert!(stdout(&out).is_empty());
    }

    let out = sara(&["matrix", "--policies", "qos"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("unknown policy"), "{}", stderr(&out));

    // A worker count is a count: zero names the flag, like `--budget 0`.
    for (cmd, flag) in [("matrix", "--jobs"), ("serve", "--workers")] {
        let out = sara(&[cmd, flag, "0"]);
        assert_eq!(code(&out), 2, "sara {cmd} {flag} 0");
        let err = stderr(&out);
        assert!(err.contains(&format!("{flag} must be ≥ 1")), "{err}");
        assert!(err.contains(&format!("usage: sara {cmd}")), "{err}");
        assert!(stdout(&out).is_empty());
    }

    // A negative number is a value, not the next flag: its own check
    // refuses it and names it.
    for (cmd, flag, complaint) in [
        ("serve", "--budget", "--budget: cannot parse \"-1\""),
        (
            "matrix",
            "--duration-ms",
            "--duration-ms must be > 0, got -1",
        ),
    ] {
        let out = sara(&[cmd, flag, "-1"]);
        assert_eq!(code(&out), 2, "sara {cmd} {flag} -1");
        let err = stderr(&out);
        assert!(err.starts_with(complaint), "{err}");
        assert!(err.contains(&format!("usage: sara {cmd}")), "{err}");
        assert!(stdout(&out).is_empty());
    }
}

#[test]
fn two_outputs_claiming_stdout_are_refused_by_name() {
    for (cmd, a, b) in [
        ("matrix", "--json", "--chrome-trace"),
        ("sweep", "--json", "--csv"),
        ("govern", "--csv", "--chrome-trace"),
    ] {
        let out = sara(&[cmd, a, "-", b, "-"]);
        assert_eq!(code(&out), 2, "sara {cmd} {a} - {b} -");
        assert!(stdout(&out).is_empty(), "sara {cmd} {a} - {b} -");
        let err = stderr(&out);
        assert!(
            err.starts_with(&format!("at most one of {a}/{b} can write to stdout")),
            "{err}"
        );
        assert!(err.contains(&format!("usage: sara {cmd}")), "{err}");
    }
    // The --json/--csv wording is unchanged, whichever comes first.
    let out = sara(&["sweep", "--csv", "-", "--json", "-"]);
    assert_eq!(
        stderr(&out).lines().next(),
        Some("at most one of --json/--csv can write to stdout (`-`); send the other to a file")
    );
}

#[test]
fn unknown_and_missing_commands_exit_2() {
    let out = sara(&["conquer"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("unknown command \"conquer\""));

    let out = sara(&[]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("usage: sara"));
}

#[test]
fn missing_directory_exits_1_naming_it() {
    let dir = scratch("missing-dir");
    let nope = dir.join("nope");
    let out = sara(&["matrix", "--dir", nope.to_str().unwrap()]);
    assert_eq!(code(&out), 1);
    assert!(stderr(&out).contains("nope"), "{}", stderr(&out));

    let out = sara(&["list", "--dir", nope.to_str().unwrap()]);
    assert_eq!(code(&out), 1);
}

#[test]
fn malformed_scenario_files_exit_1_with_the_offender_named() {
    let dir = scratch("malformed");
    // Not JSON at all: the parser's line/column error must surface.
    let truncated = dir.join("truncated.scenario.json");
    std::fs::write(&truncated, "{\"format\": \"sara-scenario/v1\",").unwrap();
    let out = sara(&["validate", truncated.to_str().unwrap()]);
    assert_eq!(code(&out), 1);
    let err = stderr(&out);
    assert!(err.contains("truncated.scenario.json"), "{err}");
    assert!(err.contains("line"), "no position info: {err}");

    // Valid JSON, invalid schema: the strict reader names the bad key.
    let misspelled = dir.join("misspelled.scenario.json");
    let export_dir = dir.join("exported");
    let out = sara(&["export", export_dir.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let good = std::fs::read_to_string(export_dir.join("adas.scenario.json")).unwrap();
    std::fs::write(&misspelled, good.replace("\"seed\":", "\"sede\":")).unwrap();
    let out = sara(&["validate", misspelled.to_str().unwrap()]);
    assert_eq!(code(&out), 1);
    let err = stderr(&out);
    assert!(err.contains("unknown key \"sede\""), "{err}");

    // A directory is checked file-by-file: the bad one fails the run.
    std::fs::write(dir.join("ok.scenario.json"), &good).unwrap();
    let out = sara(&["validate", dir.to_str().unwrap()]);
    assert_eq!(code(&out), 1);
    assert!(
        stderr(&out).contains("misspelled.scenario.json") || stderr(&out).contains("truncated")
    );

    // Parses and lowers, but the engine refuses to build it: an occupancy
    // meter over burst traffic.
    let unbuildable = scratch("unbuildable").join("burst.scenario.json");
    let at = good.find("\"cam-front\"").unwrap();
    let kind = at + good[at..].find("\"kind\": \"constant\"").unwrap();
    let burst = good[..kind].to_string() + "\"kind\": \"burst\"" + &good[kind + 18..];
    std::fs::write(&unbuildable, burst).unwrap();
    let out = sara(&["validate", unbuildable.to_str().unwrap()]);
    assert_eq!(code(&out), 1, "{}", stdout(&out));
    let err = stderr(&out);
    assert!(err.contains("burst.scenario.json"), "{err}");
    assert!(err.contains("cam-front"), "{err}");
}

/// What follows `subject` on the first line of `message`.
fn rule_after(message: &str, subject: &str) -> String {
    let line = message.lines().next().unwrap_or_default();
    let at = line
        .find(subject)
        .unwrap_or_else(|| panic!("{subject:?} not in {message:?}"));
    line[at + subject.len()..].to_string()
}

/// One rule per value kind: a bad value is refused by every front door
/// that reads it — a `.scenario.json` file, a `submit` line, a CLI flag —
/// and the rule text after the door's own subject is the same string.
#[test]
fn every_front_door_words_each_rule_the_same() {
    let dir = scratch("front-doors");
    let adas = sara_scenarios::Scenario {
        channels: 8,
        ..sara_scenarios::catalog::by_name("adas").unwrap()
    }
    .to_json();
    let file = |from: &str, to: &str| {
        assert!(adas.contains(from), "fixture drifted: {from}");
        let path = dir.join("bad.scenario.json");
        std::fs::write(&path, adas.replacen(from, to, 1)).unwrap();
        let out = sara(&["validate", path.to_str().unwrap()]);
        assert_eq!(code(&out), 1, "{to}: {}", stderr(&out));
        stderr(&out)
    };
    let submit = |extra: &str| {
        let line = format!(
            "{{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"j\",\
             \"scenarios\":[\"adas\"]{extra}}}"
        );
        sara_serve::protocol::parse_request(&line)
            .unwrap_err()
            .message
    };
    let flags = |args: &[&str]| {
        let out = sara(args);
        assert_eq!(code(&out), 2, "{args:?}: {}", stderr(&out));
        stderr(&out)
    };
    let mut cases = Vec::new();
    for n in ["3", "0", "512"] {
        cases.push(vec![
            rule_after(
                &file("\"channels\": 8", &format!("\"channels\": {n}")),
                "scenario: \"channels\" ",
            ),
            rule_after(
                &submit(&format!(",\"channels\":[{n}]")),
                "submit: \"channels[0]\" ",
            ),
            rule_after(&flags(&["matrix", "--channels", n]), "--channels "),
            rule_after(&flags(&["gen", "--channels", n]), "--channels "),
        ]);
    }
    cases.push(vec![
        rule_after(
            &file("\"freq_mhz\": 1600", "\"freq_mhz\": 0"),
            "scenario: \"freq_mhz\" ",
        ),
        rule_after(&submit(",\"freqs_mhz\":[0]"), "submit: \"freqs_mhz[0]\" "),
        rule_after(&flags(&["matrix", "--freqs", "0"]), "--freqs "),
    ]);
    cases.push(vec![
        rule_after(
            &file("\"policy\": \"QoS\"", "\"policy\": \"qos\""),
            "scenario: ",
        ),
        rule_after(&submit(",\"policies\":[\"qos\"]"), "submit: "),
        rule_after(&flags(&["matrix", "--policies", "qos"]), "--policies: "),
        rule_after(
            &flags(&["govern", "--escalate-policy", "qos"]),
            "--escalate-policy: ",
        ),
    ]);
    cases.push(vec![
        rule_after(
            &file("\"duration_ms\": 5", "\"duration_ms\": 0"),
            "scenario: \"duration_ms\" ",
        ),
        rule_after(&submit(",\"duration_ms\":0"), "submit: \"duration_ms\" "),
        rule_after(&flags(&["matrix", "--duration-ms", "0"]), "--duration-ms "),
    ]);
    for rules in &cases {
        assert!(!rules[0].is_empty());
        assert!(rules.iter().all(|r| *r == rules[0]), "{rules:#?}");
    }
    assert_eq!(cases[0][0], "must be a power of two in 1..=256, got 3");
    assert_eq!(cases[3][0], "must be ≥ 1");
    assert_eq!(cases[5][0], "must be > 0, got 0");
}

// --- the end-to-end production path -----------------------------------------

#[test]
fn export_validate_matrix_end_to_end() {
    let dir = scratch("end-to-end");
    let catalog = dir.join("catalog");
    let catalog = catalog.to_str().unwrap();

    let out = sara(&["export", catalog]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stdout(&out).contains("10 scenario files"));

    let out = sara(&["validate", catalog]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stdout(&out).contains("10 scenario files valid"));

    let out = sara(&["list", "--dir", catalog]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stdout(&out).contains("built-in catalog:"));
    assert!(stdout(&out).contains("saturation"));

    // `--json -` claims stdout: the document must parse clean, with the
    // human progress demoted to stderr.
    let out = sara(&[
        "matrix",
        "--dir",
        catalog,
        "--duration-ms",
        "0.05",
        "--policies",
        "FCFS,QoS",
        "--json",
        "-",
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let doc = json::parse(stdout(&out).trim()).expect("matrix JSON parses");
    let cells = doc.get("cells").and_then(Value::as_array).unwrap();
    assert_eq!(cells.len(), 10 * 2, "10 scenarios x 2 policies");
    assert!(stderr(&out).contains("running"), "progress went to stderr");

    // CSV sink to a file: header plus one row per cell.
    let csv_path = dir.join("matrix.csv");
    let out = sara(&[
        "matrix",
        "--dir",
        catalog,
        "--duration-ms",
        "0.05",
        "--policies",
        "FCFS",
        "--csv",
        csv_path.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    assert_eq!(csv.lines().count(), 1 + 10);
    assert!(csv.starts_with("scenario,policy,freq_mhz,channels,"));
}

#[test]
fn gen_writes_deterministic_loadable_scenarios() {
    let dir = scratch("gen");
    let a = dir.join("a");
    let b = dir.join("b");
    for out_dir in [&a, &b] {
        let out = sara(&[
            "gen",
            "--count",
            "2",
            "--seed",
            "40",
            "--overload",
            "1.5",
            "--out",
            out_dir.to_str().unwrap(),
        ]);
        assert_eq!(code(&out), 0, "{}", stderr(&out));
    }
    for name in ["gen-0000000000000028", "gen-0000000000000029"] {
        let file = format!("{name}.scenario.json");
        let first = std::fs::read_to_string(a.join(&file)).unwrap();
        let second = std::fs::read_to_string(b.join(&file)).unwrap();
        assert_eq!(first, second, "{file} not byte-deterministic");
    }
    let out = sara(&["validate", a.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
}

// --- the paper reproduction ---------------------------------------------------

/// Tier-1's check of the paper: all 44 claims, ablations included, hold at
/// 3 ms (39 cells, 30 distinct systems). `fig9` alone then prints the same
/// section and writes the same two NPI series: what a target reports does
/// not depend on what it ran beside, or on the run. The aging-threshold
/// ablation's table (worst queueing delays, aged completions) is pinned
/// byte for byte.
#[test]
fn repro_checks_every_figure_claim_and_is_target_independent() {
    // No simulation: the bytes the former `table1` / `table2` binaries printed.
    check_golden(&["repro", "table1"], "repro-table1.txt");
    check_golden(&["repro", "table2"], "repro-table2.txt");

    let dir = scratch("repro");
    let flags = ["--duration-ms", "3", "--out", dir.to_str().unwrap()];
    let out = sara(&[&["repro", "all"][..], &flags].concat());
    let together = stdout(&out);
    assert_eq!(code(&out), 0, "{together}{}", stderr(&out));
    assert!(together.ends_with("\n44 of 44 claims hold\n"), "{together}");
    assert!(!together.contains("[FAIL]"), "{together}");
    let aging = together
        .split("\n\n")
        .find(|section| section.starts_with("== ablation: aging threshold T"))
        .expect("aging ablation section");
    golden::check("repro-aging-3ms.txt", &format!("{aging}\n"));
    let written = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(written, 12, "10 NPI series, fig7.csv and fig8.csv");
    let npi = |policy| std::fs::read(dir.join(format!("fig9_{policy}.csv"))).unwrap();
    let series = [npi("fr-fcfs"), npi("qos-rb")];

    let out = sara(&[&["repro", "fig9"], &flags[..]].concat());
    let alone = stdout(&out);
    assert_eq!(code(&out), 0, "{alone}{}", stderr(&out));
    let section = alone.strip_suffix("4 of 4 claims hold\n").expect("trailer");
    assert!(together.contains(section), "{alone}\nvs\n{together}");
    assert_eq!([npi("fr-fcfs"), npi("qos-rb")], series);
}

// --- the online governor -----------------------------------------------------

#[test]
fn govern_trace_is_byte_deterministic_and_shows_adaptation() {
    let run = || {
        let out = sara(&[
            "govern",
            "--scenarios",
            "adas-overload",
            "--duration-ms",
            "1.2",
            "--json",
            "-",
        ]);
        assert_eq!(code(&out), 0, "{}", stderr(&out));
        stdout(&out)
    };
    let (first, second) = (run(), run());
    assert_eq!(first, second, "governed trace must be byte-deterministic");

    let doc = json::parse(first.trim()).expect("govern JSON parses");
    let runs = doc.as_array().unwrap();
    assert_eq!(runs.len(), 1);
    let run = &runs[0];
    assert_eq!(
        run.get("scenario").and_then(Value::as_str),
        Some("adas-overload")
    );
    // The overload forces a mid-run frequency change...
    let trace = run.get("trace").and_then(Value::as_array).unwrap();
    let freqs: std::collections::BTreeSet<u64> = trace
        .iter()
        .map(|e| e.get("freq_mhz").and_then(Value::as_u64).unwrap())
        .collect();
    assert!(freqs.len() >= 2, "expected several rungs, got {freqs:?}");
    let changes = run
        .get("outcome")
        .and_then(|o| o.get("freq_changes"))
        .and_then(Value::as_u64)
        .unwrap();
    assert!(changes >= 1);
    // ...and beats the static baseline pinned at the starting rung.
    let deficit = |v: &Value| {
        v.get("outcome")
            .and_then(|o| o.get("qos_deficit"))
            .and_then(Value::as_f64)
            .unwrap()
    };
    let baseline = run.get("baseline").expect("baseline runs by default");
    assert!(
        deficit(run) < deficit(baseline),
        "governed deficit {} must beat static {}",
        deficit(run),
        deficit(baseline)
    );
}

#[test]
fn govern_csv_covers_each_epoch_and_flags_are_validated() {
    let dir = scratch("govern-csv");
    let csv_path = dir.join("trace.csv");
    let out = sara(&[
        "govern",
        "--scenarios",
        "camcorder-b",
        "--duration-ms",
        "0.6",
        "--epoch-us",
        "200",
        "--no-baseline",
        "--csv",
        csv_path.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + 3, "0.6 ms at 200 µs epochs");
    assert!(lines[0].starts_with("scenario,epoch,end_ms,freq_mhz,"));
    assert!(lines[1].starts_with("camcorder-b,0,"));

    // Ladder and flag validation surface as usage errors.
    let out = sara(&["govern", "--ladder", "1700,1333"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("ascending"), "{}", stderr(&out));
    let out = sara(&["govern", "--epoch-us", "0"]);
    assert_eq!(code(&out), 2);
    let out = sara(&["govern", "--escalate-policy", "bogus"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("unknown policy"), "{}", stderr(&out));
    // A --start off the ladder is caught by spec validation at run time.
    let out = sara(&[
        "govern",
        "--scenarios",
        "adas",
        "--ladder",
        "1120,1600",
        "--start",
        "1500",
        "--duration-ms",
        "0.2",
    ]);
    assert_eq!(code(&out), 1);
    assert!(stderr(&out).contains("start_mhz"), "{}", stderr(&out));
}

/// Per-channel DVFS on the overload showcase, byte for byte (the claim that
/// its lanes settle on different rungs is the governor's own test). CI
/// `cmp`s the release binary's trace with this golden.
#[test]
fn per_channel_govern_csv_matches_its_golden() {
    let out = sara(&[
        "govern",
        "--scenarios",
        "adas-overload",
        "--per-channel",
        "--duration-ms",
        "1.5",
        "--no-baseline",
        "--csv",
        "-",
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    golden::check("govern-per-channel.csv", &stdout(&out));
}

/// A single-knob run that climbs the ladder and escalates its policy, with
/// its pinned baseline, byte for byte: every outcome member, `beat_mhz`,
/// `pinned_mhz` and each epoch's `bound_gbs` as JSON, and the lanes'
/// spans as a Chrome trace. CI `cmp`s the release binary's JSON with the
/// golden.
#[test]
fn escalating_govern_json_and_chrome_trace_match_their_goldens() {
    let run = |output: &str| {
        let out = sara(&[
            "govern",
            "--scenarios",
            "adas-overload",
            "--duration-ms",
            "1.5",
            "--escalate-policy",
            "QoS-RB",
            output,
            "-",
        ]);
        assert_eq!(code(&out), 0, "{}", stderr(&out));
        stdout(&out)
    };
    let json_text = run("--json");
    golden::check("govern-escalate.json", &json_text);
    golden::check("govern-escalate.chrome.json", &run("--chrome-trace"));
    // The golden keeps covering both step counts.
    let doc = json::parse(json_text.trim()).expect("govern JSON parses");
    let actions: Vec<String> = doc.as_array().unwrap()[0]
        .get("trace")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|e| e.get("action").and_then(Value::as_str).unwrap().to_string())
        .collect();
    for kind in ["up:", "policy:"] {
        assert!(
            actions.iter().any(|a| a.starts_with(kind)),
            "no {kind} action in {actions:?}"
        );
    }
}

#[test]
fn sweep_rejects_unordered_or_duplicate_freqs() {
    for freqs in ["1700,1333", "1333,1333"] {
        let out = sara(&["sweep", "--freqs", freqs]);
        assert_eq!(code(&out), 2, "freqs {freqs} must be rejected");
        let err = stderr(&out);
        assert!(
            err.contains("ascending") || err.contains("duplicate"),
            "{err}"
        );
    }
}

/// A camcorder search and a screened two-scenario search, byte for byte
/// (the screened goldens were generated before the searches moved onto
/// `run_matrix`; they must not drift).
#[test]
fn sweep_output_matches_goldens() {
    let camcorder = "sweep --scenarios camcorder-b --freqs 600,1700 --duration-ms 0.3";
    let screened = "sweep --scenarios adas,ar-headset --freqs 400,1120,1866 --screen \
                    --duration-ms 0.3";
    for (args, golden) in [
        (format!("{camcorder} --json -"), "sweep-camcorder-b.json"),
        (format!("{camcorder} --csv -"), "sweep-camcorder-b.csv"),
        (format!("{screened} --json -"), "sweep-dvfs-screened.json"),
        (format!("{screened} --csv -"), "sweep-dvfs-screened.csv"),
    ] {
        check_golden(&args.split_whitespace().collect::<Vec<_>>(), golden);
    }
}

/// `repro fig7 --out`'s `fig7.csv`, byte for byte: the image processor's
/// residency at each Fig. 7 frequency.
#[test]
fn repro_fig7_csv_matches_its_golden() {
    let dir = scratch("repro-fig7");
    let out = sara(&[
        "repro",
        "fig7",
        "--duration-ms",
        "0.3",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(stdout(&out).contains("wrote "), "{}", stdout(&out));
    let csv = std::fs::read_to_string(dir.join("fig7.csv")).expect("fig7.csv written");
    golden::check("repro-fig7.csv", &csv);
}

/// Splits one RFC 4180 row (no embedded newlines) into its fields.
fn csv_fields(row: &str) -> Vec<String> {
    let mut fields = vec![String::new()];
    let mut quoted = false;
    let mut chars = row.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                fields.last_mut().unwrap().push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => fields.push(String::new()),
            c => fields.last_mut().unwrap().push(c),
        }
    }
    fields
}

/// A legal scenario name carrying CSV metacharacters is quoted the same
/// way by every CSV writer: each row has the header's column count and
/// reads back the name.
#[test]
fn every_csv_writer_quotes_scenario_names() {
    const NAME: &str = "adas,\"v2\"";
    let dir = scratch("csv-quoting");
    let catalog = Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios/catalog");
    let text = std::fs::read_to_string(catalog.join("adas.scenario.json")).unwrap();
    let renamed = text.replacen("\"name\": \"adas\"", "\"name\": \"adas,\\\"v2\\\"\"", 1);
    assert_ne!(renamed, text);
    std::fs::write(dir.join("adas-v2.scenario.json"), renamed).unwrap();
    let dir = dir.to_str().unwrap();
    for args in [
        vec!["matrix", "--policies", "FCFS,QoS", "--duration-ms", "0.05"],
        vec!["sweep", "--freqs", "1120,1866", "--duration-ms", "0.05"],
        vec!["govern", "--duration-ms", "0.2", "--no-baseline"],
    ] {
        let out = sara(&[&args[..], &["--dir", dir, "--csv", "-"]].concat());
        assert_eq!(code(&out), 0, "{args:?}: {}", stderr(&out));
        let csv = stdout(&out);
        let mut rows = csv.lines();
        let columns = csv_fields(rows.next().unwrap()).len();
        let rows: Vec<Vec<String>> = rows.map(csv_fields).collect();
        assert!(rows.len() >= 2, "{args:?}: {csv}");
        for row in rows {
            assert_eq!(row.len(), columns, "{args:?}: {row:?}");
            assert_eq!(row[0], NAME, "{args:?}");
        }
    }
}

#[test]
fn sweep_dvfs_runs_over_scenarios() {
    let out = sara(&[
        "sweep",
        "--scenarios",
        "adas,smartphone-burst",
        "--freqs",
        "1120,1600",
        "--duration-ms",
        "1.2",
        "--json",
        "-",
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let doc = json::parse(stdout(&out).trim()).expect("sweep JSON parses");
    let runs = doc.as_array().unwrap();
    assert_eq!(runs.len(), 2);
    for run in runs {
        let points = run.get("points").and_then(Value::as_array).unwrap();
        assert_eq!(points.len(), 2);
    }
    // --dir and --scenarios conflict.
    let out = sara(&["sweep", "--dir", "x", "--scenarios", "adas"]);
    assert_eq!(code(&out), 2);
    assert!(
        stderr(&out).contains("mutually exclusive"),
        "{}",
        stderr(&out)
    );
}

// --- report: summarize and diff ---------------------------------------------

/// Walks a document scaling every `bandwidth_gbs` by `factor` — the
/// regression-injection helper the `report --diff` gate is tested with.
fn scale_bandwidth(doc: &Value, factor: f64) -> Value {
    match doc {
        Value::Object(members) => Value::Object(
            members
                .iter()
                .map(|(k, v)| {
                    if k == "bandwidth_gbs" {
                        (k.clone(), Value::Float(v.as_f64().unwrap() * factor))
                    } else {
                        (k.clone(), scale_bandwidth(v, factor))
                    }
                })
                .collect(),
        ),
        Value::Array(items) => {
            Value::Array(items.iter().map(|v| scale_bandwidth(v, factor)).collect())
        }
        other => other.clone(),
    }
}

#[test]
fn a_matrix_dump_to_a_full_device_fails_naming_it() {
    // `/dev/full` opens, then refuses every write: the streamed document
    // meets the error mid-way, and the run ends as a runtime failure.
    let out = sara(&[
        "matrix",
        "--scenarios",
        "camcorder-b",
        "--policies",
        "FCFS,QoS",
        "--duration-ms",
        "0.05",
        "--json",
        "/dev/full",
    ]);
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("/dev/full: "), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn a_matrix_dump_whose_reader_leaves_early_exits_cleanly() {
    // `sara matrix --json - --pretty | head -c 4096`: twelve pretty cells
    // are far more than a pipe holds, so the writer is still going when
    // the reader closes its end.
    use std::io::Read;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_sara"))
        .args([
            "matrix",
            "--scenarios",
            "camcorder-b",
            "--freqs",
            "1333,1866",
            "--duration-ms",
            "0.05",
            "--json",
            "-",
            "--pretty",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sara");
    let mut head = [0u8; 4096];
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_exact(&mut head)
        .expect("the document's first 4 KiB");
    assert!(head.starts_with(b"{\n  \"cells\": [\n"));
    let out = child.wait_with_output().expect("sara exits");
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
}

#[test]
fn report_summarizes_and_diffs_matrix_dumps() {
    let dir = scratch("report-matrix");
    let old = dir.join("old.json");
    let out = sara(&[
        "matrix",
        "--scenarios",
        "adas,camcorder-b",
        "--policies",
        "FCFS,QoS",
        "--duration-ms",
        "0.05",
        "--json",
        old.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));

    // Summarize: kind is detected from shape, one line per scenario.
    let out = sara(&["report", old.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("matrix dump"), "{text}");
    assert!(text.contains("adas"), "{text}");
    assert!(text.contains("camcorder-b"), "{text}");

    // A dump diffed against itself is clean (exit 0).
    let out = sara(&[
        "report",
        "--diff",
        old.to_str().unwrap(),
        old.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stdout(&out).contains("no regressions"), "{}", stdout(&out));

    // Injecting a per-scenario bandwidth collapse flags a regression and
    // exits non-zero — the CI acceptance gate.
    let doc = json::parse(&std::fs::read_to_string(&old).unwrap()).unwrap();
    let new = dir.join("new.json");
    std::fs::write(&new, scale_bandwidth(&doc, 0.5).to_string_compact()).unwrap();
    let out = sara(&[
        "report",
        "--diff",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("regression"), "{err}");
    assert!(err.contains("bandwidth"), "{err}");

    // Mixed kinds refuse to diff; a bogus file fails loudly.
    let bogus = dir.join("bogus.json");
    std::fs::write(&bogus, "{\"who\": \"knows\"}").unwrap();
    let out = sara(&[
        "report",
        "--diff",
        old.to_str().unwrap(),
        bogus.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 1);
    assert!(
        stderr(&out).contains("unrecognized document shape"),
        "{}",
        stderr(&out)
    );
}

/// A screened-infeasible cell fails as many cores in `sara report` as in
/// the ranking and CSV that wrote it, and a prune dump diffs clean against
/// the simulated one: failed cores, like bandwidth, are judged only
/// between two simulated cells.
#[test]
fn report_reads_screened_failures_as_the_ranking_does() {
    let dir = scratch("report-screened");
    let dump = |screen: &str| {
        let path = dir.join(format!("{screen}.json"));
        let out = sara(&[
            "matrix",
            "--scenarios",
            "saturation",
            "--policies",
            "FCFS,QoS",
            "--freqs",
            "266",
            "--screen",
            screen,
            "--duration-ms",
            "0.05",
            "--json",
            path.to_str().unwrap(),
            "--csv",
            "-",
        ]);
        assert_eq!(code(&out), 0, "{}", stderr(&out));
        (path.to_str().unwrap().to_string(), stdout(&out))
    };
    let (pruned, csv) = dump("prune");
    let (simulated, _) = dump("off");
    let rows: Vec<Vec<String>> = csv.lines().map(csv_fields).collect();
    let column = |name: &str| rows[0].iter().position(|c| c == name).unwrap();
    let best = rows.iter().find(|r| r[column("rank")] == "1").unwrap();
    assert_eq!(best[column("screened")], "infeasible", "{csv}");
    let failures = &best[column("failures")];
    assert_ne!(failures, "0", "{csv}");

    let out = sara(&["report", &pruned]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    let best_line = format!("best {:<8} @266 MHz", best[column("policy")]);
    let line = text.lines().find(|l| l.contains(&best_line)).expect(&text);
    assert!(
        line.ends_with(&format!(" {failures} failed cores")),
        "{text}"
    );

    for (old, new) in [(&pruned, &simulated), (&simulated, &pruned)] {
        let out = sara(&["report", "--diff", old, new]);
        assert_eq!(code(&out), 0, "{old} -> {new}: {}", stderr(&out));
        assert!(!stderr(&out).contains("failed cores"), "{}", stderr(&out));
    }
}

#[test]
fn govern_chrome_trace_is_deterministic_and_reportable() {
    let dir = scratch("chrome-trace");
    let run = |name: &str| {
        let path = dir.join(name);
        let out = sara(&[
            "govern",
            "--scenarios",
            "camcorder-b",
            "--duration-ms",
            "0.6",
            "--epoch-us",
            "200",
            "--no-baseline",
            "--chrome-trace",
            path.to_str().unwrap(),
        ]);
        assert_eq!(code(&out), 0, "{}", stderr(&out));
        path
    };
    let (a, b) = (run("a.json"), run("b.json"));
    // Simulated-time timestamps make two identical runs byte-identical.
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "chrome trace must be byte-deterministic"
    );
    let doc = json::parse(std::fs::read_to_string(&a).unwrap().trim()).expect("trace parses");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    assert!(!events.is_empty());
    // `sara report` recognizes and summarizes the trace.
    let out = sara(&["report", a.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stdout(&out).contains("chrome trace"), "{}", stdout(&out));
}

#[test]
fn matrix_chrome_trace_profiles_the_harness() {
    let dir = scratch("matrix-chrome");
    let path = dir.join("profile.json");
    let out = sara(&[
        "matrix",
        "--scenarios",
        "adas",
        "--policies",
        "FCFS",
        "--duration-ms",
        "0.05",
        "--chrome-trace",
        path.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let doc = json::parse(std::fs::read_to_string(&path).unwrap().trim()).expect("parses");
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    // One cell: its span plus the three phase spans, plus metadata.
    let cells = events
        .iter()
        .filter(|e| e.get("cat").and_then(Value::as_str) == Some("cell"))
        .count();
    assert_eq!(cells, 1);
    let phases: Vec<&str> = events
        .iter()
        .filter(|e| e.get("cat").and_then(Value::as_str) == Some("phase"))
        .map(|e| e.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert!(phases.contains(&"sim"), "{phases:?}");
}

// --- serve: the service mode end to end --------------------------------------

/// Runs `sara serve` (stdio mode) with the given NDJSON session piped in.
fn sara_serve_session(input: &str) -> Output {
    sara_serve_session_with(&[], input)
}

/// Like [`sara_serve_session`], with extra `sara serve` flags.
fn sara_serve_session_with(extra: &[&str], input: &str) -> Output {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_sara"))
        .arg("serve")
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sara serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write session");
    child.wait_with_output().expect("serve session")
}

#[test]
fn serve_transcripts_are_matrix_identical_and_reportable() {
    let dir = scratch("serve-e2e");
    let artifact = dir.join("served.json");
    let session = format!(
        concat!(
            r#"{{"format":"sara-serve/v1","type":"submit","id":"e2e","scenarios":["camcorder-b"],"#,
            r#""policies":["FCFS","QoS"],"duration_ms":0.05,"json_out":"{}"}}"#,
            "\n",
            r#"{{"format":"sara-serve/v1","type":"shutdown"}}"#,
            "\n"
        ),
        artifact.display()
    );
    let out = sara_serve_session(&session);
    assert_eq!(code(&out), 0, "serve failed: {}", stderr(&out));
    let transcript = stdout(&out);
    assert!(
        transcript.contains("\"type\":\"summary\""),
        "no summary record:\n{transcript}"
    );

    // The job artifact is byte-identical to the batch harness's output.
    let matrix_json = dir.join("matrix.json");
    let out = sara(&[
        "matrix",
        "--scenarios",
        "camcorder-b",
        "--policies",
        "FCFS,QoS",
        "--duration-ms",
        "0.05",
        "--json",
        matrix_json.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "matrix failed: {}", stderr(&out));
    let served_bytes = std::fs::read(&artifact).expect("served artifact");
    let matrix_bytes = std::fs::read(&matrix_json).expect("matrix dump");
    assert_eq!(
        served_bytes, matrix_bytes,
        "serve json_out must be byte-identical to `sara matrix --json`"
    );

    // `sara report` understands the transcript, and diffs it against the
    // batch dump with no regressions (they are the same cells).
    let transcript_path = dir.join("session.ndjson");
    std::fs::write(&transcript_path, &transcript).expect("write transcript");
    let out = sara(&["report", transcript_path.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "report failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("serve transcript"), "{text}");
    assert!(text.contains("job e2e"), "{text}");
    let out = sara(&[
        "report",
        "--diff",
        transcript_path.to_str().unwrap(),
        matrix_json.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "diff regressed: {}", stderr(&out));
    assert!(stdout(&out).contains("no regressions"), "{}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_with_no_cache_budget_misses_every_time_and_journals_evictions() {
    let dir = scratch("serve-zero-cache");
    let journal = dir.join("session.journal");
    let submit = concat!(
        r#"{"format":"sara-serve/v1","type":"submit","id":"z","scenarios":["camcorder-b"],"#,
        r#""policies":["FCFS","QoS"],"duration_ms":0.05}"#,
        "\n"
    );
    let flags = [
        "--cache-max-bytes",
        "0",
        "--journal",
        journal.to_str().unwrap(),
    ];
    let out = sara_serve_session_with(&flags, &submit.repeat(2));
    assert_eq!(code(&out), 0, "serve failed: {}", stderr(&out));
    let transcript = stdout(&out);
    let all_misses = r#""cells":2,"cache_hits":0,"cache_misses":2"#;
    assert_eq!(transcript.matches(all_misses).count(), 2, "{transcript}");
    let out = sara(&["report", journal.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "report failed: {}", stderr(&out));
    assert!(
        stdout(&out).contains("cache hit rate 0.0% (0/4 lookups); 4 cache evictions"),
        "{}",
        stdout(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_rejects_protocol_garbage_with_exit_zero() {
    // A session that only ever sends garbage still terminates cleanly on
    // EOF: errors are records on the stream, not process failures.
    let out = sara_serve_session("not json at all\n");
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"type\":\"error\""), "{text}");
}

// --- serve observability: journal, metrics endpoint, chrome trace ------------

#[test]
fn serve_observability_journal_metrics_and_trace() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::process::Stdio;

    let dir = scratch("serve-observability");
    let journal = dir.join("session.journal");
    let trace = dir.join("trace.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_sara"))
        .args([
            "serve",
            "--journal",
            journal.to_str().unwrap(),
            "--metrics",
            "127.0.0.1:0",
            "--chrome-trace",
            trace.to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sara serve");

    // The bound metrics address goes to stderr (stdout is the protocol),
    // which is how scripts — and this test — discover a port-0 bind.
    let mut child_stderr = BufReader::new(child.stderr.take().expect("stderr"));
    let mut line = String::new();
    child_stderr.read_line(&mut line).expect("metrics line");
    let addr = line
        .trim()
        .strip_prefix("metrics on ")
        .unwrap_or_else(|| panic!("unexpected stderr line: {line:?}"))
        .to_string();

    let mut stdin = child.stdin.take().expect("stdin");
    stdin
        .write_all(
            concat!(
                r#"{"format":"sara-serve/v1","type":"submit","id":"obs","client":"ci","#,
                r#""scenarios":["camcorder-b"],"policies":["FCFS","QoS"],"duration_ms":0.05}"#,
                "\n"
            )
            .as_bytes(),
        )
        .expect("submit");
    stdin.flush().unwrap();
    let mut child_stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let last = loop {
        let mut reply = String::new();
        assert!(
            child_stdout.read_line(&mut reply).expect("reply") > 0,
            "stream ended before the summary"
        );
        if reply.contains("\"type\":\"summary\"") {
            break reply;
        }
    };
    // The summary carries its wall-clock elapsed time.
    let summary = json::parse(last.trim()).expect("summary parses");
    assert!(
        summary.get("elapsed_us").and_then(Value::as_u64).is_some(),
        "{summary:?}"
    );

    // Two hostile scrapes first — one that never sends a byte, one that
    // sends 64 KiB without a newline. Scrapes are answered one at a time,
    // so the honest one below only gets through if both are dropped.
    let mut silent = TcpStream::connect(&addr).expect("connect metrics");
    let mut endless = TcpStream::connect(&addr).expect("connect metrics");
    // The server may hang up mid-write; that is the point.
    let _ = endless.write_all(&[b'x'; 64 << 10]);

    // Scrape the Prometheus endpoint mid-session.
    let mut scrape = TcpStream::connect(&addr).expect("connect metrics");
    scrape
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: sara\r\n\r\n")
        .expect("GET");
    let mut response = String::new();
    scrape.read_to_string(&mut response).expect("scrape");
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
    assert!(
        response.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "{response}"
    );
    let body = response.split_once("\r\n\r\n").expect("header/body").1;
    assert!(body.contains("# TYPE cache_misses counter\n"), "{body}");
    assert!(body.contains("cache_misses 2\n"), "{body}");
    assert!(body.contains("sim_us_bucket{le=\""), "{body}");
    assert!(body.contains("jobs{client=\"ci\"} 1\n"), "{body}");

    for (name, hostile) in [("silent", &mut silent), ("endless", &mut endless)] {
        let mut answer = Vec::new();
        // A reset (unread request bytes at close) is as good as an EOF.
        let _ = hostile.read_to_end(&mut answer);
        assert!(answer.is_empty(), "the {name} scrape was answered");
    }

    // The strict checker in `sara report` validates the scrape.
    let exposition = dir.join("metrics.txt");
    std::fs::write(&exposition, body).unwrap();
    let out = sara(&["report", exposition.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(
        stdout(&out).contains("format checks passed"),
        "{}",
        stdout(&out)
    );

    drop(stdin); // EOF ends the stdio session
    let status = child.wait().expect("serve exit");
    assert!(status.success());

    // The journal landed on disk and reports per-stage quantiles.
    let out = sara(&["report", journal.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("serve journal"), "{text}");
    assert!(text.contains("cache hit rate 0.0% (0/2 lookups)"), "{text}");
    assert!(text.contains("sim"), "{text}");
    assert!(text.contains("client ci"), "{text}");

    // The Chrome trace landed and `sara report` recognizes it.
    let doc = json::parse(std::fs::read_to_string(&trace).unwrap().trim()).expect("trace parses");
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    assert!(!events.is_empty());
    let out = sara(&["report", trace.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stdout(&out).contains("chrome trace"), "{}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_diff_gates_on_latency_regressions() {
    let dir = scratch("journal-diff");
    let journal = dir.join("base.journal");
    let session = concat!(
        r#"{"format":"sara-serve/v1","type":"submit","id":"d","scenarios":["camcorder-b"],"#,
        r#""policies":["FCFS","QoS"],"duration_ms":0.05}"#,
        "\n",
        r#"{"format":"sara-serve/v1","type":"shutdown"}"#,
        "\n",
    );
    let out = sara_serve_session_with(&["--journal", journal.to_str().unwrap()], session);
    assert_eq!(code(&out), 0, "{}", stderr(&out));

    // Identical journals diff clean.
    let out = sara(&[
        "report",
        "--diff",
        journal.to_str().unwrap(),
        journal.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stdout(&out).contains("no regressions"), "{}", stdout(&out));

    // Injecting a latency regression into every stage trips the gate.
    let slow = dir.join("slow.journal");
    let scaled: String = std::fs::read_to_string(&journal)
        .unwrap()
        .lines()
        .map(|line| {
            let event = json::parse(line).expect("journal line parses");
            let members = event
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, v)| {
                    if k == "dur_us" {
                        (k.clone(), Value::UInt(v.as_u64().unwrap() * 10 + 10_000))
                    } else {
                        (k.clone(), v.clone())
                    }
                })
                .collect();
            Value::Object(members).to_string_compact() + "\n"
        })
        .collect();
    std::fs::write(&slow, scaled).unwrap();
    let out = sara(&[
        "report",
        "--diff",
        journal.to_str().unwrap(),
        slow.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 1, "{}", stdout(&out));
    let err = stderr(&out);
    assert!(err.contains("regression"), "{err}");
    assert!(err.contains("sim:"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

// --- docs stay wired to the code ---------------------------------------------

#[test]
fn format_docs_name_every_tag_and_are_linked_from_the_readme() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let formats = std::fs::read_to_string(root.join("docs/formats.md")).expect("docs/formats.md");
    // Every on-disk format tag the workspace emits is catalogued.
    for tag in [
        sara_scenarios::FORMAT_TAG,
        sara_serve::FORMAT_TAG,
        sara_serve::JOURNAL_TAG,
    ] {
        assert!(formats.contains(tag), "docs/formats.md missing tag {tag}");
    }
    assert!(
        formats.contains("observability.md"),
        "docs/formats.md missing the observability cross-link"
    );
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    for link in [
        "docs/formats.md",
        "docs/serve-protocol.md",
        "docs/observability.md",
        "## Service mode",
    ] {
        assert!(readme.contains(link), "README.md missing {link}");
    }
    // The serve spec exists and declares the format tag it governs.
    let spec = std::fs::read_to_string(root.join("docs/serve-protocol.md"))
        .expect("docs/serve-protocol.md");
    assert!(spec.contains("sara-serve/v1"));
    // The observability doc covers the journal, the metrics endpoint and
    // the trace exports it claims to consolidate.
    let observability =
        std::fs::read_to_string(root.join("docs/observability.md")).expect("docs/observability.md");
    for needle in [
        "sara-serve-journal/v1",
        "--metrics",
        "--journal",
        "--chrome-trace",
    ] {
        assert!(
            observability.contains(needle),
            "docs/observability.md missing {needle}"
        );
    }
}

/// Every repository path the README and `docs/*.md` put in backticks
/// exists (globs and placeholders — spans with `*`, `{` or `<` — aside).
#[test]
fn backticked_repository_paths_in_the_docs_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut docs = vec![root.join("README.md")];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/") {
        let path = entry.expect("docs entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            docs.push(path);
        }
    }
    let (mut checked, mut missing) = (0, Vec::new());
    for doc in &docs {
        let text = std::fs::read_to_string(doc).expect("readable doc");
        let mut fenced = false;
        for line in text.lines() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if fenced {
                continue;
            }
            for span in line.split('`').skip(1).step_by(2) {
                let is_path = [
                    "crates/",
                    "tests/",
                    "docs/",
                    "benchmark/",
                    "examples/",
                    "src/",
                ]
                .iter()
                .any(|p| span.starts_with(p));
                if is_path && !span.contains(['*', '{', '<']) {
                    checked += 1;
                    if !root.join(span).exists() {
                        missing.push(format!("{}: `{span}`", doc.display()));
                    }
                }
            }
        }
    }
    assert!(
        checked >= 26,
        "only {checked} paths found: the scan drifted"
    );
    assert!(missing.is_empty(), "missing paths:\n{}", missing.join("\n"));
}
