//! The repository benchmark.
//!
//! `run --workload W --seed N --seconds S --trace 0|1` measures one
//! workload in this process and prints, as the last line of stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` — every
//! end-to-end metric with tracing off, every per-layer metric with it on.
//! `run` without `--workload` runs all four, each in a fresh child process,
//! and writes `benchmark/out/result.json`; `compare A.json B.json` judges
//! two such files against the bounds. See `benchmark/README.md`.

mod compare;
mod engine;
mod host;
mod kernels;
mod matrix;
mod outcome;
mod serve;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Value;

use outcome::{Outcome, Reading, RunArgs};
use trace::Tracer;

const USAGE: &str = "usage:
  sara-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--runs N] [--out PATH]
  sara-benchmark compare A.json B.json
workloads: frame_dense, lanes_wide, matrix_catalog, serve_mix (default: all, each in a child process)";

/// The benchmark package's directory, where `out/` and the manifests are.
fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// The `key = value` lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    let mut profile = BTreeMap::new();
    let mut inside = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == "[profile.release]";
        } else if let (true, Some((key, value))) = (inside, line.split_once('=')) {
            profile.insert(key.trim().to_string(), value.trim().to_string());
        }
    }
    profile
}

/// Same-program guard: the benchmark must be built with the release
/// profile the repository's own binaries get.
fn check_profiles() -> Result<(), String> {
    let read = |path: PathBuf| {
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let own = release_profile(&read(package_dir().join("Cargo.toml"))?);
    let root = release_profile(&read(package_dir().join("../Cargo.toml"))?);
    if own == root {
        Ok(())
    } else {
        Err(format!(
            "benchmark/Cargo.toml [profile.release] {own:?} differs from the root manifest's {root:?}; refusing to measure a different program"
        ))
    }
}

/// What `run` was asked to do.
struct RunOptions {
    workload: Option<String>,
    args: RunArgs,
    runs: u64,
    out: Option<PathBuf>,
}

fn parse_run(mut argv: std::slice::Iter<'_, String>) -> Result<RunOptions, String> {
    let mut opts = RunOptions {
        workload: None,
        args: RunArgs {
            seed: 1,
            seconds: spec::RUN_SECONDS as f64,
            trace: false,
        },
        runs: 1,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = Some(value("a workload name")?),
            "--seed" => {
                opts.args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.args.seconds > 0.0 && opts.args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
            }
            "--runs" => {
                opts.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if opts.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value("a path")?)),
            // `--trace 0|1` as the driver passes it, or bare `--trace`.
            "--trace" => {
                opts.args.trace = match argv.as_slice().first().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Measures one workload in this process: pinned to one CPU while
/// anything is timed, then on every core for the multi-core checks.
fn measure(workload: &str, args: &RunArgs) -> Result<Outcome, String> {
    let pinned = host::pin();
    let mut tracer = Tracer::new(workload, args.trace);
    let mut outcome = match workload {
        "frame_dense" => {
            engine::run(&engine::FRAME_DENSE, args, &mut tracer).map_err(|e| e.to_string())
        }
        "lanes_wide" => {
            engine::run(&engine::LANES_WIDE, args, &mut tracer).map_err(|e| e.to_string())
        }
        "matrix_catalog" => matrix::run(args, &mut tracer).map_err(|e| e.to_string()),
        "serve_mix" => serve::run(args, &mut tracer).map_err(|e| e.to_string()),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    }?;
    outcome.counts.push(("pinned", u64::from(pinned.is_some())));
    if args.trace {
        outcome
            .readings
            .extend(kernels::run().map_err(|e| e.to_string())?);
    }
    if let Some(before) = &pinned {
        host::unpin(before);
    }
    if workload == "matrix_catalog" {
        matrix::on_all_cores(&mut outcome, args.trace).map_err(|e| e.to_string())?;
    }
    let mut measured = std::mem::take(&mut outcome.readings);
    if args.trace {
        kernels::ratios(&mut outcome.checks, &mut measured).map_err(|e| e.to_string())?;
        tracer
            .write(&out_dir().join(format!("trace-{workload}.json")))
            .map_err(|e| format!("cannot write the trace: {e}"))?;
    }
    // Report in the spec's order. A layer this workload never reaches
    // reads 0; a missing end-to-end metric is a bug.
    let defs = if args.trace {
        &spec::PER_LAYER[..]
    } else {
        &spec::END_TO_END[..]
    };
    outcome.readings = defs
        .iter()
        .map(
            |def| match measured.iter().position(|r| r.def.name == def.name) {
                Some(i) => measured.swap_remove(i),
                None if args.trace => Reading::new(def.name, 0.0, 0),
                None => panic!("{workload} did not measure {}", def.name),
            },
        )
        .collect();
    Ok(outcome)
}

fn print_readings(workload: &str, args: &RunArgs, outcome: &Outcome) {
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}  nproc {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc()
    );
    for r in &outcome.readings {
        let tail = r
            .tail
            .map_or(String::new(), |(p, v)| format!("  p{p} {v:.4}"));
        println!(
            "  {:<34} {:>14.4} {:<10} n={}{tail}",
            r.def.name, r.value, r.def.unit, r.samples
        );
    }
    for (name, count) in &outcome.counts {
        println!("  {name} = {count}");
    }
    println!(
        "  sim_digest {:016x}  attempted {}  failed {}",
        outcome.sim_digest, outcome.checks.attempted, outcome.checks.failed
    );
    for message in &outcome.checks.messages {
        println!("  FAILED: {message}");
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn detail_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("{workload}-trace{}.json", u8::from(trace)))
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.to_string_pretty() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `run --workload W`: measure, print, and end with the result line.
fn run_one(workload: &str, args: &RunArgs) -> Result<ExitCode, String> {
    let outcome = measure(workload, args)?;
    print_readings(workload, args, &outcome);
    write_json(
        &detail_path(workload, args.trace),
        &outcome.to_json(workload, args),
    )?;
    println!("{}", outcome.result_line());
    Ok(exit_code(outcome.checks.failed == 0))
}

/// Runs one workload in a child process and returns its detail document.
fn run_child(workload: &str, args: &RunArgs) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let status = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let path = detail_path(workload, args.trace);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{workload} child ({status}) left no {}: {e}",
            path.display()
        )
    })?;
    json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(package_dir())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Collects each metric's value and sample count from every run's detail
/// document.
fn gather(runs: &[Value], defs: &[spec::MetricDef]) -> Value {
    let members = defs.iter().map(|def| {
        let column = |key: &str| {
            Value::Array(
                runs.iter()
                    .filter_map(|r| r.get("metrics")?.get(def.name)?.get(key).cloned())
                    .collect(),
            )
        };
        (
            def.name.to_string(),
            Value::Object(vec![
                ("unit".to_string(), def.unit.into()),
                ("values".to_string(), column("value")),
                ("samples".to_string(), column("samples")),
            ]),
        )
    });
    Value::Object(members.collect())
}

/// `run` without `--workload`: every workload in its own child process,
/// `runs` times with consecutive seeds, plus one traced run each when
/// asked; writes the result document and prints a summary.
fn run_all(opts: &RunOptions) -> Result<ExitCode, String> {
    let mut workloads = Vec::new();
    let mut failed = false;
    for workload in spec::WORKLOADS {
        let mut runs = Vec::new();
        for i in 0..opts.runs {
            let args = RunArgs {
                seed: opts.args.seed + i,
                trace: false,
                ..opts.args.clone()
            };
            runs.push(run_child(workload.name, &args)?);
        }
        let traced = if opts.args.trace {
            Some(run_child(workload.name, &opts.args)?)
        } else {
            None
        };
        let field = |r: &Value, k: &str| r.get(k).cloned().unwrap_or(Value::Null);
        let all = || runs.iter().chain(&traced);
        let sum = |k: &str| all().filter_map(|r| r.get(k)?.as_u64()).sum::<u64>();
        failed |= sum("failed") > 0 || all().any(|r| r.get("correct") != Some(&Value::Bool(true)));
        let mut members = vec![
            ("why".to_string(), workload.why.into()),
            ("attempted".to_string(), sum("attempted").into()),
            ("failed".to_string(), sum("failed").into()),
            (
                "sim_digest".to_string(),
                Value::Array(runs.iter().map(|r| field(r, "sim_digest")).collect()),
            ),
            ("counts".to_string(), field(&runs[0], "counts")),
            ("metrics".to_string(), gather(&runs, &spec::END_TO_END)),
        ];
        if let Some(traced) = &traced {
            let job_ms = |r: &Value| r.get("job_ms").and_then(Value::as_f64);
            let untraced: Vec<f64> = runs.iter().filter_map(job_ms).collect();
            let base = stats::median(&untraced);
            let share = job_ms(traced).map_or(0.0, |t| (t - base) / base);
            members.push(("trace_overhead_share".to_string(), share.into()));
            members.push((
                "layers".to_string(),
                gather(std::slice::from_ref(traced), &spec::PER_LAYER),
            ));
        }
        workloads.push((workload.name.to_string(), Value::Object(members)));
    }
    let document = Value::Object(vec![
        ("format".to_string(), "sara-benchmark-result/v1".into()),
        ("nproc".to_string(), host::nproc().into()),
        ("rustc".to_string(), command_line("rustc", &["-V"]).into()),
        (
            "commit".to_string(),
            command_line("git", &["rev-parse", "HEAD"]).into(),
        ),
        ("seed".to_string(), opts.args.seed.into()),
        ("seconds".to_string(), opts.args.seconds.into()),
        ("runs".to_string(), opts.runs.into()),
        ("workloads".to_string(), Value::Object(workloads)),
    ]);
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("result.json"));
    write_json(&path, &document)?;

    println!(
        "\n{:<15} {:<20} {:>14} {:<10} {:>5} {:>7}",
        "workload", "metric", "median", "unit", "runs", "iqr"
    );
    for workload in spec::WORKLOADS {
        for def in spec::END_TO_END {
            let values = compare::values(&document, workload.name, "metrics", def.name);
            if values.is_empty() {
                continue;
            }
            println!(
                "{:<15} {:<20} {:>14.4} {:<10} {:>5} {:>6.1}%",
                workload.name,
                def.name,
                stats::median(&values),
                def.unit,
                values.len(),
                stats::spread(&values) * 100.0
            );
        }
    }
    println!("result written to {}", path.display());
    Ok(exit_code(!failed))
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e:?}"))
    };
    Ok(exit_code(!compare::report(&load(a)?, &load(b)?)))
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    match argv.first().map(String::as_str) {
        Some("run") => {
            check_profiles()?;
            let opts = parse_run(argv[1..].iter())?;
            match &opts.workload {
                Some(workload) => run_one(workload, &opts.args),
                None => run_all(&opts),
            }
        }
        Some("compare") => match &argv[1..] {
            [a, b] => compare_files(a, b),
            _ => Err(USAGE.to_string()),
        },
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&argv).unwrap_or_else(|message| {
        eprintln!("sara-benchmark: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_reads_only_its_table() {
        let manifest = "[package]\nname = \"x\"\n\n[profile.release]\n# why\nlto = \"thin\" # trailing\ncodegen-units = 4\n\n[profile.dev]\nopt-level = 1\n";
        let profile = release_profile(manifest);
        assert_eq!(profile.len(), 2);
        assert_eq!(profile["lto"], "\"thin\"");
        assert_eq!(profile["codegen-units"], "4");
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn this_package_is_built_like_the_repository() {
        check_profiles().expect("the two [profile.release] tables are equal");
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let parse = |words: &[&str]| {
            let argv: Vec<String> = words.iter().map(|w| w.to_string()).collect();
            parse_run(argv.iter()).map(|o| (o.args.trace, o.args.seed, o.workload))
        };
        assert_eq!(
            parse(&["--trace", "0", "--seed", "9"]),
            Ok((false, 9, None))
        );
        assert_eq!(parse(&["--trace", "1"]), Ok((true, 1, None)));
        assert_eq!(parse(&["--trace"]), Ok((true, 1, None)));
        assert_eq!(
            parse(&["--trace", "--workload", "serve_mix"]),
            Ok((true, 1, Some("serve_mix".to_string())))
        );
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    /// `BENCHMARK.json` is what the driver reads; it must state exactly
    /// the workloads, metrics, units, directions and bounds of `spec`.
    #[test]
    fn benchmark_json_matches_the_spec() {
        let text = std::fs::read_to_string(package_dir().join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("valid JSON");
        let list = |key: &str| doc.get(key).and_then(Value::as_array).expect(key).to_vec();
        let text_of = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);

        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_u64),
            Some(spec::RUN_SECONDS)
        );
        let workloads = list("workloads");
        assert_eq!(workloads.len(), spec::WORKLOADS.len());
        for (have, want) in workloads.iter().zip(spec::WORKLOADS) {
            assert_eq!(text_of(have, "name").as_deref(), Some(want.name));
            assert_eq!(text_of(have, "why").as_deref(), Some(want.why));
        }
        for (key, defs) in [
            ("end_to_end", &spec::END_TO_END[..]),
            ("per_layer", &spec::PER_LAYER[..]),
        ] {
            let metrics = list(key);
            assert_eq!(metrics.len(), defs.len(), "{key}");
            for (have, want) in metrics.iter().zip(defs) {
                assert_eq!(text_of(have, "name").as_deref(), Some(want.name));
                assert_eq!(
                    text_of(have, "unit").as_deref(),
                    Some(want.unit),
                    "{}",
                    want.name
                );
                let better = if want.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    text_of(have, "better").as_deref(),
                    Some(better),
                    "{}",
                    want.name
                );
                assert_eq!(
                    have.get("bound").and_then(Value::as_f64),
                    want.bound,
                    "{}",
                    want.name
                );
            }
        }
    }
}
