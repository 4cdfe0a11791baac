//! `sara report` — summarize or diff the JSON documents the other
//! subcommands emit.
//!
//! A triage loop produces dumps faster than humans read them: matrix
//! summaries, governed traces, Chrome trace-event exports, serve
//! transcripts, serve journals, Prometheus expositions. This command
//! recognizes each kind by shape (no flags to remember), prints a compact
//! summary, and — for the kinds carrying comparable numbers — diffs two
//! dumps, exiting non-zero when the new one regressed, which is what CI
//! wires into a gate.

use std::collections::{HashMap, HashSet};

use json::read::Fields;
use json::Value;

use crate::args::{Args, CliError};
use crate::output::page;
use sara_scenarios::RankKey;
use sara_serve::FORMAT_TAG as SERVE_TAG;
use sara_serve::{EVENTS, JOURNAL_TAG, STAGE_HISTOGRAMS};
use sara_telemetry::prometheus;

pub(crate) const USAGE: &str =
    "usage: sara report FILE | sara report --diff OLD NEW [--tolerance F]";

pub(crate) const HELP: &str = "\
sara report — summarize or diff sara JSON dumps

usage: sara report FILE
       sara report --diff OLD NEW [--tolerance F]

Reads a JSON document written by another sara subcommand, recognizes its
kind by shape, and either summarizes it or compares two dumps of the
same kind for regressions:

  matrix    `sara matrix --json` summaries (cells + rankings)
  govern    `sara govern --json` governed-run trace batches
  chrome    `--chrome-trace` trace-event documents
  serve     `sara serve` session transcripts (NDJSON record streams)
  journal   `sara serve --journal` event journals: per-stage wall-clock
            latency quantiles (p50/p95/p99), per-client job and cell
            counts, and the cache hit rate
  prometheus  `sara serve --metrics` text expositions, checked strictly
            against the Prometheus 0.0.4 text format (TYPE/HELP
            present, histogram buckets cumulative and +Inf-terminated)

  --diff OLD NEW   compare two dumps of the same kind; any regression in
                   NEW relative to OLD exits 1 with the offenders named:
                     matrix  QoS targets newly missed, more failed
                             cores, or bandwidth down past the tolerance
                     serve   same cell-level checks as matrix — serve
                             transcripts and matrix dumps diff against
                             each other freely (the service streams the
                             very same cells the batch harness writes)
                     govern  more failing epochs, or a QoS deficit grown
                             past the tolerance
                     journal a stage's p50/p95/p99 growing past the
                             tolerance (plus a 50 us jitter allowance),
                             or the cache hit rate dropping more than
                             the tolerance
  --tolerance F    allowed fractional drop before a numeric change
                   counts as a regression (default 0.05)

Chrome traces and Prometheus expositions summarize only (no --diff).
Output tolerates a closed pipe: `sara report big.json | head` exits
cleanly.";

/// The document kinds `report` understands, detected by shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Matrix,
    Govern,
    Chrome,
    Serve,
    Journal,
    Prometheus,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Matrix => "matrix",
            Kind::Govern => "govern",
            Kind::Chrome => "chrome trace",
            Kind::Serve => "serve transcript",
            Kind::Journal => "serve journal",
            Kind::Prometheus => "prometheus exposition",
        }
    }

    /// Matrix dumps and serve transcripts carry the same cells, so they
    /// diff against each other freely.
    fn carries_cells(self) -> bool {
        matches!(self, Kind::Matrix | Kind::Serve)
    }
}

/// Runs the subcommand.
///
/// # Errors
///
/// Usage error for bad flags; runtime failure for unreadable or
/// unrecognizable files, and for any detected regression in `--diff`
/// mode (exit code 1, the acceptance gate).
pub(crate) fn run(mut args: Args) -> Result<(), CliError> {
    let diff_mode = args.take_flag("--diff");
    let tolerance = args.take_parsed::<f64>("--tolerance")?.unwrap_or(0.05);
    if !tolerance.is_finite() || tolerance < 0.0 {
        return Err(CliError::usage(USAGE, "--tolerance must be ≥ 0"));
    }
    let files = args.finish_positional(2)?;

    if diff_mode {
        if files.len() != 2 {
            return Err(CliError::usage(
                USAGE,
                "--diff needs exactly two files: OLD NEW",
            ));
        }
        let (old_doc, old_kind) = load(&files[0])?;
        let (new_doc, new_kind) = load(&files[1])?;
        let compatible =
            old_kind == new_kind || (old_kind.carries_cells() && new_kind.carries_cells());
        if !compatible {
            return Err(CliError::Failure(format!(
                "cannot diff a {} dump against a {} dump",
                old_kind.name(),
                new_kind.name()
            )));
        }
        let (ok, regressions) = diff(&old_doc, &new_doc, old_kind, new_kind, tolerance)?;
        for line in ok {
            page(line);
        }
        if regressions.is_empty() {
            page(format!(
                "no regressions ({} dump, tolerance {tolerance})",
                old_kind.name()
            ));
            Ok(())
        } else {
            Err(CliError::Failure(format!(
                "{} regression{} in {} vs {}:\n  {}",
                regressions.len(),
                if regressions.len() == 1 { "" } else { "s" },
                files[1],
                files[0],
                regressions.join("\n  ")
            )))
        }
    } else {
        if files.len() != 1 {
            return Err(CliError::usage(
                USAGE,
                "exactly one FILE to summarize (or --diff OLD NEW)",
            ));
        }
        let (doc, kind) = load(&files[0])?;
        for line in summarize(&doc, kind)? {
            page(line);
        }
        Ok(())
    }
}

/// Reads, parses and classifies one dump. Serve transcripts are NDJSON —
/// one record per line — so when the whole text is not a single JSON
/// document, the loader retries line by line and accepts the result if
/// every line is a `sara-serve/v1` record.
fn load(path: &str) -> Result<(Value, Kind), CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
    let doc = match json::parse(&text) {
        Ok(doc) => doc,
        Err(whole_doc_error) => match parse_ndjson(&text) {
            Some(doc) => doc,
            // Not JSON at all: a Prometheus text exposition is the one
            // non-JSON artifact `sara serve` produces.
            None if text.lines().any(|l| l.starts_with("# TYPE ")) => {
                return Ok((Value::Str(text), Kind::Prometheus));
            }
            None => return Err(CliError::Failure(format!("{path}: {whole_doc_error}"))),
        },
    };
    let kind = detect(&doc).ok_or_else(|| {
        CliError::Failure(format!(
            "{path}: unrecognized document shape (expected a sara matrix, govern, \
             serve, serve-journal, prometheus, or chrome-trace dump)"
        ))
    })?;
    // A single saved serve or journal record (e.g. just the summary line)
    // classifies like a whole stream: normalize to the array-of-records
    // shape.
    let doc = match (kind, &doc) {
        (Kind::Serve | Kind::Journal, Value::Object(_)) => Value::Array(vec![doc]),
        _ => doc,
    };
    Ok((doc, kind))
}

/// Parses newline-delimited JSON into an array of records, or `None`
/// when any line fails to parse or the lines are not uniformly tagged
/// `sara-serve/v1` (a transcript) or `sara-serve-journal/v1` (a journal).
fn parse_ndjson(text: &str) -> Option<Value> {
    let records = text
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| json::parse(line).ok())
        .collect::<Option<Vec<Value>>>()?;
    let kind = tagged_kind(records.first()?)?;
    let uniform = records.iter().all(|r| tagged_kind(r) == Some(kind));
    uniform.then_some(Value::Array(records))
}

/// The kind a record's `format` tag names: a serve transcript's or a
/// serve journal's.
fn tagged_kind(record: &Value) -> Option<Kind> {
    match record.get("format").and_then(Value::as_str)? {
        SERVE_TAG => Some(Kind::Serve),
        JOURNAL_TAG => Some(Kind::Journal),
        _ => None,
    }
}

/// Classifies a document by its shape.
fn detect(doc: &Value) -> Option<Kind> {
    if let Some(kind) = tagged_kind(doc) {
        return Some(kind);
    }
    if doc.get("cells").is_some() && doc.get("rankings").is_some() {
        return Some(Kind::Matrix);
    }
    if doc.get("traceEvents").is_some() {
        return Some(Kind::Chrome);
    }
    let records = doc.as_array().filter(|records| !records.is_empty())?;
    let kind = tagged_kind(&records[0]);
    if kind.is_some() && records.iter().all(|r| tagged_kind(r) == kind) {
        return kind;
    }
    let governed = |r: &Value| r.get("scenario").is_some() && r.get("trace").is_some();
    records.iter().all(governed).then_some(Kind::Govern)
}

// --- the diff rule -----------------------------------------------------------

/// The one rule every `--diff` follows: each OLD entry is paired with the
/// first NEW entry of the same key, found through one index of NEW. An OLD
/// key missing from NEW is a regression and a key only in NEW is noted.
/// `judge` rules on a pair with its faults (none: the pair is fine) and
/// the line to print when it is fine, or has nothing to say.
fn diff_keyed<T>(
    noun: &str,
    old: &[T],
    new: &[T],
    key: impl Fn(&T) -> String,
    judge: impl Fn(&str, &T, &T) -> Option<(Vec<String>, String)>,
) -> (Vec<String>, Vec<String>) {
    let new_keys: Vec<String> = new.iter().map(&key).collect();
    let mut index: HashMap<&str, usize> = HashMap::with_capacity(new.len());
    for (i, k) in new_keys.iter().enumerate() {
        index.entry(k.as_str()).or_insert(i);
    }
    let (mut ok, mut bad) = (Vec::new(), Vec::new());
    let mut old_keys = HashSet::with_capacity(old.len());
    for o in old {
        let k = key(o);
        match index.get(k.as_str()) {
            None => bad.push(format!("{k}: {noun} missing from the new dump")),
            Some(&i) => match judge(&k, o, &new[i]) {
                Some((faults, _)) if !faults.is_empty() => {
                    bad.push(format!("{k}: {}", faults.join("; ")));
                }
                Some((_, line)) => ok.push(line),
                None => {}
            },
        }
        old_keys.insert(k);
    }
    for k in new_keys {
        if !old_keys.contains(&k) {
            ok.push(format!("new {noun} {k} (not in the old dump)"));
        }
    }
    (ok, bad)
}

/// `" (N screened without simulation)"`, or nothing when none were.
fn screened_note(screened: usize) -> String {
    if screened > 0 {
        format!(" ({screened} screened without simulation)")
    } else {
        String::new()
    }
}

// --- matrix ------------------------------------------------------------------

/// What the matrix diff compares, one entry per cell.
struct CellFacts {
    scenario: String,
    policy: String,
    freq_mhz: u64,
    /// Channel count, when the dump carries one (older dumps predate the
    /// channels axis and omit the key).
    channels: Option<u64>,
    /// Met, failed cores and bandwidth: the simulated figures, or what
    /// [`RankKey::pruned`] ranks a pruned cell by.
    rank: RankKey,
    /// The screening verdict (`infeasible`/`trivial`) of a pruned cell
    /// that was never simulated; `None` for simulated cells.
    screened: Option<String>,
    /// The closed-form bandwidth bound, when the dump carries one (either
    /// a screened cell's verdict bound or a simulated report's `analytic`
    /// section).
    bound_gbs: Option<f64>,
    /// Achieved bandwidth as a fraction of the bound (simulated cells
    /// with an `analytic` section only).
    achieved_over_bound: Option<f64>,
}

impl CellFacts {
    fn key(&self) -> String {
        let mut key = format!("{} {} @{} MHz", self.scenario, self.policy, self.freq_mhz);
        if let Some(channels) = self.channels {
            key.push_str(&format!(" x{channels}ch"));
        }
        key
    }
}

/// Extracts the comparable facts from one cell object — the shape is
/// shared between matrix dumps (`cells[i]`) and serve transcripts
/// (`cell` records), which is what lets the two kinds diff against each
/// other.
fn cell_facts(cell: &Value, what: &str) -> Result<CellFacts, CliError> {
    let cell = Fields::new(cell, what)?;
    let scenario = cell.str("scenario")?.to_string();
    let policy = cell.str("policy")?.to_string();
    let freq_mhz = cell.u64("freq_mhz")?;
    let channels = cell.opt("channels").and_then(Value::as_u64);
    // A pruned cell was never simulated: it carries a screening verdict
    // and the closed-form evaluation instead of a report.
    if let Some(verdict) = cell.opt("screened").and_then(Value::as_str) {
        let analytic = Fields::new(cell.get("analytic")?, what)?;
        let bound_gbs = analytic.finite("bound_gbs")?;
        let demands = analytic
            .array("static_alloc")?
            .iter()
            .map(|share| Fields::new(share, what)?.finite("demand_gbs"))
            .collect::<Result<Vec<f64>, _>>()?;
        return Ok(CellFacts {
            scenario,
            policy,
            freq_mhz,
            channels,
            rank: RankKey::pruned(verdict == "trivial", demands, bound_gbs),
            screened: Some(verdict.to_string()),
            bound_gbs: Some(bound_gbs),
            achieved_over_bound: None,
        });
    }
    let report = Fields::new(cell.get("report")?, what)?;
    let failures = report
        .array("cores")?
        .iter()
        .filter(|c| c.get("failed").and_then(Value::as_bool) == Some(true))
        .count();
    let analytic = report.opt("analytic");
    Ok(CellFacts {
        scenario,
        policy,
        freq_mhz,
        channels,
        rank: RankKey {
            met: report.bool("all_targets_met")?,
            failures,
            bandwidth_gbs: report.finite("bandwidth_gbs")?,
        },
        screened: None,
        bound_gbs: analytic
            .and_then(|a| a.get("bound_gbs"))
            .and_then(Value::as_f64),
        achieved_over_bound: analytic
            .and_then(|a| a.get("achieved_over_bound"))
            .and_then(Value::as_f64),
    })
}

/// Every cell's facts, in order: a matrix dump's `cells`, or a serve
/// transcript's `cell` records.
fn cells_of(doc: &Value, kind: Kind, what: &str) -> Result<Vec<CellFacts>, CliError> {
    let (cells, at): (Vec<&Value>, &str) = match kind {
        Kind::Matrix => (
            Fields::new(doc, what)?.array("cells")?.iter().collect(),
            "cells",
        ),
        _ => (
            serve_records(doc, what)?
                .iter()
                .filter(|r| r.get("type").and_then(Value::as_str) == Some("cell"))
                .collect(),
            "cell record ",
        ),
    };
    cells
        .into_iter()
        .enumerate()
        .map(|(i, cell)| cell_facts(cell, &format!("{what}: {at}[{i}]")))
        .collect()
}

/// `"all targets met in M/N {what}"`, plus how many of them were screened.
fn targets_met(cells: &[CellFacts], what: &str) -> String {
    let met = cells.iter().filter(|c| c.rank.met).count();
    let screened = cells.iter().filter(|c| c.screened.is_some()).count();
    format!(
        "all targets met in {met}/{} {what}{}",
        cells.len(),
        screened_note(screened)
    )
}

/// Achieved bandwidth within this fraction of the analytic bound is
/// flagged: the engine is running into the closed-form ceiling, so the
/// cell's performance is bus-limited, not policy-limited.
const NEAR_BOUND: f64 = 0.98;

fn summarize_matrix(doc: &Value) -> Result<Vec<String>, CliError> {
    const WHAT: &str = "matrix dump";
    let cells = cells_of(doc, Kind::Matrix, WHAT)?;
    let rankings = Fields::new(doc, WHAT)?.array("rankings")?;
    let mut lines = vec![format!(
        "matrix dump: {} cells across {} scenarios; {}",
        cells.len(),
        rankings.len(),
        targets_met(&cells, "cells")
    )];
    for r in rankings {
        let r = Fields::new(r, WHAT)?;
        let scenario = r.str("scenario")?;
        let ranked = r.array("ranked")?;
        let best = ranked
            .first()
            .and_then(Value::as_u64)
            .map(|i| i as usize)
            .filter(|&i| i < cells.len())
            .ok_or_else(|| {
                CliError::Failure(format!(
                    "{WHAT}: ranking for {scenario} has no valid winner"
                ))
            })?;
        let c = &cells[best];
        lines.push(format!(
            "  {:<18} best {:<8} @{} MHz  {:>7.2} GB/s  {} failed core{}{}{}",
            scenario,
            c.policy,
            c.freq_mhz,
            c.rank.bandwidth_gbs,
            c.rank.failures,
            if c.rank.failures == 1 { "" } else { "s" },
            if c.rank.met {
                "  (all targets met)"
            } else {
                ""
            },
            match c.achieved_over_bound {
                Some(r) => format!("  ({:.1}% of analytic bound)", r * 100.0),
                None => String::new(),
            }
        ));
    }
    let near: Vec<&CellFacts> = cells
        .iter()
        .filter(|c| c.achieved_over_bound.is_some_and(|r| r >= NEAR_BOUND))
        .collect();
    if !near.is_empty() {
        lines.push(format!(
            "  {} cell{} within {:.0}% of the analytic bound (bus-limited):",
            near.len(),
            if near.len() == 1 { "" } else { "s" },
            (1.0 - NEAR_BOUND) * 100.0
        ));
        for c in near {
            lines.push(format!(
                "    {:<36} {:.2} GB/s achieved vs {:.2} GB/s bound ({:.1}%)",
                c.key(),
                c.rank.bandwidth_gbs,
                c.bound_gbs.unwrap_or(f64::NAN),
                c.achieved_over_bound.unwrap_or(f64::NAN) * 100.0
            ));
        }
    }
    Ok(lines)
}

/// The cell-level regression check shared by matrix dumps and serve
/// transcripts (in any combination).
fn diff_cells(old: &[CellFacts], new: &[CellFacts], tol: f64) -> (Vec<String>, Vec<String>) {
    diff_keyed("cell", old, new, CellFacts::key, |key, o, n| {
        let mut faults = Vec::new();
        if o.rank.met && !n.rank.met {
            faults.push("QoS targets newly missed".to_string());
        }
        // A screened cell carries its analytic *bound* and a pessimistic
        // failure count, not achieved figures — comparing them across
        // prune/off dumps would flag every achieved-under-bound cell, so
        // failed cores and the bandwidth floor are judged only when both
        // sides were simulated.
        let comparable = o.screened.is_none() && n.screened.is_none();
        if comparable && n.rank.failures > o.rank.failures {
            faults.push(format!(
                "failed cores {} -> {}",
                o.rank.failures, n.rank.failures
            ));
        }
        let floor = o.rank.bandwidth_gbs * (1.0 - tol);
        if comparable && n.rank.bandwidth_gbs < floor {
            faults.push(format!(
                "bandwidth {:.3} -> {:.3} GB/s (below the {floor:.3} GB/s floor)",
                o.rank.bandwidth_gbs, n.rank.bandwidth_gbs
            ));
        }
        if let (Some(ov), Some(nv)) = (&o.screened, &n.screened) {
            if ov != nv {
                faults.push(format!("screening verdict {ov} -> {nv}"));
            }
        }
        let line = if comparable {
            format!(
                "ok {key:<36} {:.3} -> {:.3} GB/s",
                o.rank.bandwidth_gbs, n.rank.bandwidth_gbs
            )
        } else {
            format!(
                "ok {key:<36} screened ({} -> {})",
                o.screened.as_deref().unwrap_or("simulated"),
                n.screened.as_deref().unwrap_or("simulated")
            )
        };
        Some((faults, line))
    })
}

// --- serve -------------------------------------------------------------------

/// The record array of a (normalized) serve transcript.
fn serve_records<'a>(doc: &'a Value, what: &str) -> Result<&'a [Value], CliError> {
    doc.as_array()
        .ok_or_else(|| CliError::Failure(format!("{what}: not a serve record array")))
}

fn summarize_serve(doc: &Value) -> Result<Vec<String>, CliError> {
    const WHAT: &str = "serve transcript";
    let records = serve_records(doc, WHAT)?;
    let count = |t: &str| {
        records
            .iter()
            .filter(|r| r.get("type").and_then(Value::as_str) == Some(t))
            .count()
    };
    let mut lines = vec![format!(
        "serve transcript: {} records ({} jobs accepted, {} cells, {} summaries, {} errors)",
        records.len(),
        count("accepted"),
        count("cell"),
        count("summary"),
        count("error"),
    )];
    for (i, r) in records.iter().enumerate() {
        if r.get("type").and_then(Value::as_str) != Some("summary") {
            continue;
        }
        let what = format!("{WHAT}: records[{i}]");
        let r = Fields::new(r, &what)?;
        let (cells, hits, misses) = (
            r.u64("cells")?,
            r.u64("cache_hits")?,
            r.u64("cache_misses")?,
        );
        let screened = r.opt("screened").and_then(Value::as_u64).unwrap_or(0);
        lines.push(format!(
            "  job {:<12} {cells} cells ({} targets met), cache {hits} hit{} / {misses} miss{}{}",
            r.str("id")?,
            r.u64("targets_met")?,
            if hits == 1 { "" } else { "s" },
            if misses == 1 { "" } else { "es" },
            if screened > 0 {
                format!(", {screened} screened")
            } else {
                String::new()
            }
        ));
    }
    let cells = cells_of(doc, Kind::Serve, WHAT)?;
    if !cells.is_empty() {
        lines.push(format!("  {}", targets_met(&cells, "streamed cells")));
    }
    Ok(lines)
}

// --- govern ------------------------------------------------------------------

/// One governed run, read once for its summary and its diff.
struct RunFacts {
    scenario: String,
    epochs: usize,
    final_mhz: u64,
    final_policy: String,
    freq_changes: u64,
    failing_epochs: u64,
    qos_deficit: f64,
    /// Achieved over analytic bound, per epoch that carries a bound.
    bound_ratios: Vec<f64>,
    /// The pinned static baseline: (MHz, failing epochs, QoS deficit).
    baseline: Option<(u64, u64, f64)>,
}

fn govern_runs(doc: &Value, what: &str) -> Result<Vec<RunFacts>, CliError> {
    doc.as_array()
        .ok_or_else(|| CliError::Failure(format!("{what}: not a run array")))?
        .iter()
        .enumerate()
        .map(|(i, run)| {
            let what = format!("{what}: runs[{i}]");
            let run = Fields::new(run, &what)?;
            let outcome = Fields::new(run.get("outcome")?, &what)?;
            let trace = run.array("trace")?;
            // Fields are read in the order the summary prints them, so the
            // first missing one is the one reported.
            Ok(RunFacts {
                scenario: run.str("scenario")?.to_string(),
                epochs: trace.len(),
                final_mhz: outcome.u64("final_mhz")?,
                final_policy: outcome.str("final_policy")?.to_string(),
                freq_changes: outcome.u64("freq_changes")?,
                failing_epochs: outcome.u64("failing_epochs")?,
                qos_deficit: outcome.finite("qos_deficit")?,
                bound_ratios: bound_ratios(trace),
                baseline: match run.opt("baseline") {
                    None => None,
                    Some(baseline) => {
                        let baseline = Fields::new(baseline, &what)?;
                        let b = Fields::new(baseline.get("outcome")?, &what)?;
                        let deficit = b.finite("qos_deficit")?;
                        let pinned_mhz = baseline.u64("pinned_mhz")?;
                        Some((pinned_mhz, b.u64("failing_epochs")?, deficit))
                    }
                },
            })
        })
        .collect()
}

/// Achieved-vs-bound per epoch, when the trace carries analytic bounds:
/// achieved = epoch bytes over the epoch's wall-clock share, bound = the
/// closed-form ceiling at the epoch's operating point.
fn bound_ratios(trace: &[Value]) -> Vec<f64> {
    let mut ratios = Vec::new();
    let mut prev_ms = 0.0;
    for e in trace {
        let end_ms = e.get("end_ms").and_then(Value::as_f64).unwrap_or(prev_ms);
        let span_s = (end_ms - prev_ms) / 1e3;
        prev_ms = end_ms;
        let (Some(bound), Some(bytes)) = (
            e.get("bound_gbs").and_then(Value::as_f64),
            e.get("bytes").and_then(Value::as_u64),
        ) else {
            continue;
        };
        if span_s > 0.0 && bound > 0.0 {
            let achieved_gbs = bytes as f64 / span_s / 1e9;
            ratios.push(achieved_gbs / bound);
        }
    }
    ratios
}

fn summarize_govern(doc: &Value) -> Result<Vec<String>, CliError> {
    let runs = govern_runs(doc, "govern dump")?;
    let mut lines = vec![format!("governed runs: {}", runs.len())];
    for run in &runs {
        lines.push(format!(
            "  {:<18} {} epochs, final {} MHz {}, {} freq changes, {} failing epochs, deficit {:.4}",
            run.scenario,
            run.epochs,
            run.final_mhz,
            run.final_policy,
            run.freq_changes,
            run.failing_epochs,
            run.qos_deficit
        ));
        let ratios = &run.bound_ratios;
        if !ratios.is_empty() {
            let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
            let peak = ratios.iter().cloned().fold(f64::MIN, f64::max);
            let near = ratios.iter().filter(|&&r| r >= NEAR_BOUND).count();
            lines.push(format!(
                "    achieved vs analytic bound: mean {:.1}%, peak {:.1}% \
                 ({near}/{} epochs within {:.0}% of bound)",
                mean * 100.0,
                peak * 100.0,
                ratios.len(),
                (1.0 - NEAR_BOUND) * 100.0
            ));
        }
        if let Some((pinned_mhz, b_failing, b_deficit)) = run.baseline {
            lines.push(format!(
                "    vs static @{pinned_mhz} MHz: {b_failing} failing epochs, deficit {b_deficit:.4} ({})",
                if run.qos_deficit <= b_deficit {
                    "governed improves"
                } else {
                    "governed regresses"
                }
            ));
        }
    }
    Ok(lines)
}

fn diff_govern(old: &Value, new: &Value, tol: f64) -> Result<(Vec<String>, Vec<String>), CliError> {
    let old = govern_runs(old, "OLD")?;
    let new = govern_runs(new, "NEW")?;
    let key = |r: &RunFacts| r.scenario.clone();
    Ok(diff_keyed("run", &old, &new, key, |scenario, o, n| {
        let mut faults = Vec::new();
        if n.failing_epochs > o.failing_epochs {
            faults.push(format!(
                "failing epochs {} -> {}",
                o.failing_epochs, n.failing_epochs
            ));
        }
        if n.qos_deficit > o.qos_deficit * (1.0 + tol) {
            faults.push(format!(
                "QoS deficit {:.4} -> {:.4} (grew more than {:.1}%)",
                o.qos_deficit,
                n.qos_deficit,
                tol * 100.0
            ));
        }
        let line = format!(
            "ok {scenario:<18} deficit {:.4} -> {:.4}",
            o.qos_deficit, n.qos_deficit
        );
        Some((faults, line))
    }))
}

// --- serve journal -----------------------------------------------------------

/// What a journal summary and diff work from.
struct JournalFacts {
    events: usize,
    /// How many events of each [`EVENTS`] name, in table order.
    counts: [u64; EVENTS.len()],
    cells: u64,
    /// Per [`STAGE_HISTOGRAMS`] stage, in pipeline order: its name
    /// (`queue_wait_us` reads "queue wait") and the ascending-sorted
    /// `dur_us` samples of the events [`EVENTS`] maps to it.
    stages: Vec<(String, Vec<u64>)>,
    /// Client → (jobs, cells), in first-appearance order.
    clients: Vec<(String, u64, u64)>,
}

impl JournalFacts {
    /// How many `event` events the journal holds.
    fn count(&self, event: &str) -> u64 {
        EVENTS
            .iter()
            .position(|(name, _)| *name == event)
            .map_or(0, |i| self.counts[i])
    }

    /// Cache hit rate as a fraction, when any lookup happened.
    fn hit_rate(&self) -> Option<f64> {
        let (hits, lookups) = (self.count("cache_hit"), self.lookups());
        (lookups > 0).then(|| hits as f64 / lookups as f64)
    }

    fn lookups(&self) -> u64 {
        self.count("cache_hit") + self.count("cache_miss")
    }
}

fn journal_facts(doc: &Value, what: &str) -> Result<JournalFacts, CliError> {
    let records = doc
        .as_array()
        .ok_or_else(|| CliError::Failure(format!("{what}: not a journal event array")))?;
    let mut facts = JournalFacts {
        events: records.len(),
        counts: [0; EVENTS.len()],
        cells: 0,
        stages: STAGE_HISTOGRAMS
            .iter()
            .map(|h| (h.trim_end_matches("_us").replace('_', " "), Vec::new()))
            .collect(),
        clients: Vec::new(),
    };
    for (i, r) in records.iter().enumerate() {
        let what = format!("{what}: events[{i}]");
        let r = Fields::new(r, &what)?;
        let event = r.str("event")?;
        let Some(e) = EVENTS.iter().position(|(name, _)| *name == event) else {
            return Err(CliError::Failure(format!(
                "{what}: unknown journal event \"{event}\""
            )));
        };
        facts.counts[e] += 1;
        if let Some(histogram) = EVENTS[e].1 {
            let stage = STAGE_HISTOGRAMS.iter().position(|h| *h == histogram);
            let samples = &mut facts.stages[stage.expect("EVENTS names stage histograms")].1;
            samples.push(r.u64("dur_us")?);
        }
        if event == "accepted" {
            let cells = r.u64("cells")?;
            facts.cells += cells;
            let client = r.str("client")?.to_string();
            match facts.clients.iter_mut().find(|(c, _, _)| *c == client) {
                Some((_, jobs, total)) => {
                    *jobs += 1;
                    *total += cells;
                }
                None => facts.clients.push((client, 1, cells)),
            }
        }
    }
    for (_, samples) in &mut facts.stages {
        samples.sort_unstable();
    }
    Ok(facts)
}

/// Nearest-rank quantile of an ascending-sorted, non-empty sample set.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn summarize_journal(doc: &Value) -> Result<Vec<String>, CliError> {
    let facts = journal_facts(doc, "serve journal")?;
    let mut head = format!(
        "serve journal: {} events; {} jobs accepted, {} rejected, {} cells{}",
        facts.events,
        facts.count("accepted"),
        facts.count("rejected"),
        facts.cells,
        screened_note(facts.count("screened") as usize)
    );
    if let Some(rate) = facts.hit_rate() {
        head.push_str(&format!(
            "; cache hit rate {:.1}% ({}/{} lookups)",
            rate * 100.0,
            facts.count("cache_hit"),
            facts.lookups()
        ));
    }
    let evicted = facts.count("evicted");
    if evicted > 0 {
        head.push_str(&format!("; {evicted} cache evictions"));
    }
    let mut lines = vec![head];
    for (stage, samples) in &facts.stages {
        if samples.is_empty() {
            continue;
        }
        lines.push(format!(
            "  {stage:<13} p50 {:>8} us  p95 {:>8} us  p99 {:>8} us  ({} sample{})",
            quantile(samples, 0.50),
            quantile(samples, 0.95),
            quantile(samples, 0.99),
            samples.len(),
            if samples.len() == 1 { "" } else { "s" }
        ));
    }
    for (client, jobs, cells) in &facts.clients {
        lines.push(format!(
            "  client {client:<12} {jobs} job{}, {cells} cell{}",
            if *jobs == 1 { "" } else { "s" },
            if *cells == 1 { "" } else { "s" }
        ));
    }
    Ok(lines)
}

/// Diffs two journals: per-stage latency quantiles must not grow past
/// the tolerance (plus a small absolute allowance, so microsecond jitter
/// on near-zero stages never flags), and the cache hit rate must not
/// drop more than the tolerance. A stage with no samples in NEW is noted,
/// not flagged: that journal's jobs never reached it.
fn diff_journal(
    old: &Value,
    new: &Value,
    tol: f64,
) -> Result<(Vec<String>, Vec<String>), CliError> {
    const SLACK_US: f64 = 50.0;
    let old = journal_facts(old, "OLD")?;
    let new = journal_facts(new, "NEW")?;
    let key = |(stage, _): &(String, Vec<u64>)| stage.clone();
    let (mut ok, mut bad) = diff_keyed(
        "stage",
        &old.stages,
        &new.stages,
        key,
        |stage, (_, o), (_, n)| {
            if o.is_empty() {
                return None;
            }
            if n.is_empty() {
                return Some((
                    Vec::new(),
                    format!("stage {stage} absent from the new journal"),
                ));
            }
            let faults = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)]
                .into_iter()
                .filter_map(|(label, q)| {
                    let (o_q, n_q) = (quantile(o, q), quantile(n, q));
                    let grew = n_q as f64 > o_q as f64 * (1.0 + tol) + SLACK_US;
                    grew.then(|| format!("{label} {o_q} -> {n_q} us"))
                })
                .collect();
            let line = format!(
                "ok {stage:<13} p95 {} -> {} us",
                quantile(o, 0.95),
                quantile(n, 0.95)
            );
            Some((faults, line))
        },
    );
    if let (Some(o_rate), Some(n_rate)) = (old.hit_rate(), new.hit_rate()) {
        if n_rate < o_rate - tol {
            bad.push(format!(
                "cache hit rate {:.1}% -> {:.1}% (down more than {:.1} points)",
                o_rate * 100.0,
                n_rate * 100.0,
                tol * 100.0
            ));
        } else {
            ok.push(format!(
                "ok cache hit rate {:.1}% -> {:.1}%",
                o_rate * 100.0,
                n_rate * 100.0
            ));
        }
    }
    Ok((ok, bad))
}

// --- prometheus --------------------------------------------------------------

/// Runs the strict format check (`sara_telemetry::prometheus::check`) and
/// prints its census.
fn summarize_prometheus(doc: &Value) -> Result<Vec<String>, CliError> {
    let fail = |e: &str| CliError::Failure(format!("prometheus exposition: {e}"));
    let text = doc.as_str().ok_or_else(|| fail("not a text document"))?;
    let census = prometheus::check(text).map_err(|e| fail(&e))?;
    Ok(vec![format!(
        "prometheus exposition: {census} — format checks passed"
    )])
}

// --- chrome ------------------------------------------------------------------

fn summarize_chrome(doc: &Value) -> Result<Vec<String>, CliError> {
    const WHAT: &str = "chrome trace";
    let events = Fields::new(doc, WHAT)?.array("traceEvents")?;
    let count_ph = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
            .count()
    };
    let pids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter_map(|e| e.get("pid").and_then(Value::as_u64))
        .collect();
    let end_us = events
        .iter()
        .map(|e| {
            e.get("ts").and_then(Value::as_u64).unwrap_or(0)
                + e.get("dur").and_then(Value::as_u64).unwrap_or(0)
        })
        .max()
        .unwrap_or(0);
    Ok(vec![format!(
        "chrome trace: {} events ({} spans, {} instants, {} counter samples, {} metadata) \
         across {} process{}, ending at {end_us} us",
        events.len(),
        count_ph("X"),
        count_ph("i"),
        count_ph("C"),
        count_ph("M"),
        pids.len(),
        if pids.len() == 1 { "" } else { "es" }
    )])
}

// --- dispatch ----------------------------------------------------------------

fn summarize(doc: &Value, kind: Kind) -> Result<Vec<String>, CliError> {
    match kind {
        Kind::Matrix => summarize_matrix(doc),
        Kind::Govern => summarize_govern(doc),
        Kind::Chrome => summarize_chrome(doc),
        Kind::Serve => summarize_serve(doc),
        Kind::Journal => summarize_journal(doc),
        Kind::Prometheus => summarize_prometheus(doc),
    }
}

fn diff(
    old: &Value,
    new: &Value,
    old_kind: Kind,
    new_kind: Kind,
    tol: f64,
) -> Result<(Vec<String>, Vec<String>), CliError> {
    if old_kind.carries_cells() && new_kind.carries_cells() {
        let old = cells_of(old, old_kind, "OLD")?;
        let new = cells_of(new, new_kind, "NEW")?;
        return Ok(diff_cells(&old, &new, tol));
    }
    match old_kind {
        Kind::Govern => diff_govern(old, new, tol),
        Kind::Journal => diff_journal(old, new, tol),
        kind => Err(CliError::Failure(format!(
            "--diff is not supported for {} dumps (summaries only)",
            kind.name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diff_matrix(
        old: &Value,
        new: &Value,
        tol: f64,
    ) -> Result<(Vec<String>, Vec<String>), CliError> {
        Ok(diff_cells(
            &cells_of(old, Kind::Matrix, "OLD")?,
            &cells_of(new, Kind::Matrix, "NEW")?,
            tol,
        ))
    }

    fn matrix_doc(cells: &[(&str, &str, u64, bool, usize, f64)]) -> Value {
        let cell_values: Vec<Value> = cells
            .iter()
            .map(|&(scenario, policy, freq, met, failed, bw)| {
                let cores: Vec<Value> = (0..failed.max(1))
                    .map(|i| {
                        Value::Object(vec![
                            ("core".to_string(), "CPU".into()),
                            ("failed".to_string(), (i < failed).into()),
                        ])
                    })
                    .collect();
                Value::Object(vec![
                    ("scenario".to_string(), scenario.into()),
                    ("policy".to_string(), policy.into()),
                    ("freq_mhz".to_string(), freq.into()),
                    (
                        "report".to_string(),
                        Value::Object(vec![
                            ("bandwidth_gbs".to_string(), bw.into()),
                            ("all_targets_met".to_string(), met.into()),
                            ("cores".to_string(), Value::Array(cores)),
                        ]),
                    ),
                ])
            })
            .collect();
        let mut scenarios: Vec<&str> = cells.iter().map(|c| c.0).collect();
        scenarios.dedup();
        let rankings: Vec<Value> = scenarios
            .iter()
            .map(|s| {
                let ranked: Vec<Value> = cells
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.0 == *s)
                    .map(|(i, _)| Value::from(i as u64))
                    .collect();
                Value::Object(vec![
                    ("scenario".to_string(), (*s).into()),
                    ("ranked".to_string(), Value::Array(ranked)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("cells".to_string(), Value::Array(cell_values)),
            ("rankings".to_string(), Value::Array(rankings)),
        ])
    }

    fn govern_doc(runs: &[(&str, u64, f64)]) -> Value {
        Value::Array(
            runs.iter()
                .map(|&(scenario, failing, deficit)| {
                    Value::Object(vec![
                        ("scenario".to_string(), scenario.into()),
                        ("trace".to_string(), Value::Array(vec![])),
                        (
                            "outcome".to_string(),
                            Value::Object(vec![
                                ("final_mhz".to_string(), 1600u64.into()),
                                ("final_policy".to_string(), "QoS".into()),
                                ("freq_changes".to_string(), 1u64.into()),
                                ("failing_epochs".to_string(), failing.into()),
                                ("qos_deficit".to_string(), deficit.into()),
                            ]),
                        ),
                    ])
                })
                .collect(),
        )
    }

    #[test]
    fn detect_recognizes_each_kind() {
        assert_eq!(
            detect(&matrix_doc(&[("a", "FCFS", 1600, true, 0, 10.0)])),
            Some(Kind::Matrix)
        );
        assert_eq!(detect(&govern_doc(&[("a", 0, 0.0)])), Some(Kind::Govern));
        let chrome = Value::Object(vec![
            ("traceEvents".to_string(), Value::Array(vec![])),
            ("displayTimeUnit".to_string(), "ms".into()),
        ]);
        assert_eq!(detect(&chrome), Some(Kind::Chrome));
        assert_eq!(detect(&Value::Object(vec![])), None);
        assert_eq!(detect(&Value::Array(vec![])), None);
    }

    #[test]
    fn matrix_diff_flags_targets_failures_and_bandwidth() {
        let old = matrix_doc(&[
            ("a", "FCFS", 1600, true, 0, 10.0),
            ("b", "FCFS", 1600, true, 0, 10.0),
        ]);
        let new = matrix_doc(&[
            ("a", "FCFS", 1600, false, 2, 4.0),
            ("b", "FCFS", 1600, true, 0, 10.0),
        ]);
        let (ok, bad) = diff_matrix(&old, &new, 0.05).unwrap();
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("a FCFS @1600 MHz"), "{bad:?}");
        assert!(bad[0].contains("QoS targets newly missed"), "{bad:?}");
        assert!(bad[0].contains("failed cores 0 -> 2"), "{bad:?}");
        assert!(bad[0].contains("bandwidth"), "{bad:?}");
        assert_eq!(ok.len(), 1);
        assert!(ok[0].starts_with("ok b FCFS"), "{ok:?}");
    }

    #[test]
    fn matrix_diff_identical_is_clean_and_tolerance_absorbs_noise() {
        let doc = matrix_doc(&[("a", "QoS", 1333, true, 0, 8.0)]);
        let (ok, bad) = diff_matrix(&doc, &doc, 0.0).unwrap();
        assert!(bad.is_empty(), "{bad:?}");
        assert_eq!(ok.len(), 1);
        // A 3% dip stays under the default 5% tolerance.
        let dipped = matrix_doc(&[("a", "QoS", 1333, true, 0, 7.76)]);
        let (_, bad) = diff_matrix(&doc, &dipped, 0.05).unwrap();
        assert!(bad.is_empty(), "{bad:?}");
        let (_, bad) = diff_matrix(&doc, &dipped, 0.01).unwrap();
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn matrix_diff_missing_cell_is_a_regression() {
        let old = matrix_doc(&[
            ("a", "FCFS", 1600, true, 0, 10.0),
            ("b", "FCFS", 1600, true, 0, 10.0),
        ]);
        let new = matrix_doc(&[("a", "FCFS", 1600, true, 0, 10.0)]);
        let (_, bad) = diff_matrix(&old, &new, 0.05).unwrap();
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("missing"), "{bad:?}");
    }

    #[test]
    fn matrix_keys_carry_channels_only_when_present() {
        // New dumps stamp the channel count into the cell key; dumps from
        // before the channels axis (no key) keep their old identity.
        let mut doc = matrix_doc(&[("a", "FCFS", 1600, true, 0, 10.0)]);
        let cells = cells_of(&doc, Kind::Matrix, "t").unwrap();
        assert_eq!(cells[0].key(), "a FCFS @1600 MHz");
        if let Value::Object(members) = &mut doc {
            if let Value::Array(cells) = &mut members[0].1 {
                if let Value::Object(cell) = &mut cells[0] {
                    cell.insert(1, ("channels".to_string(), 4u64.into()));
                }
            }
        }
        let cells = cells_of(&doc, Kind::Matrix, "t").unwrap();
        assert_eq!(cells[0].key(), "a FCFS @1600 MHz x4ch");
    }

    #[test]
    fn a_pruned_cell_reads_back_as_the_ranking_ranks_it() {
        use sara_memctrl::PolicyKind;
        use sara_scenarios::{catalog, screen_cell, CellOutcome, CellSpec, MatrixCell};
        use sara_sim::ScreenVerdict;
        use sara_types::MegaHertz;

        let scenario = catalog::by_name("saturation").unwrap();
        let spec = CellSpec {
            scenario: 0,
            policy: PolicyKind::Priority,
            freq: MegaHertz::new(266),
            channels: scenario.channels,
            duration_ms: 0.05,
        };
        let infeasible = screen_cell(&scenario, &spec).unwrap();
        assert_eq!(infeasible.verdict, ScreenVerdict::ProvablyInfeasible);
        let trivial = sara_sim::AnalyticReport {
            verdict: ScreenVerdict::ProvablyTrivial,
            ..infeasible.clone()
        };
        for analytic in [infeasible, trivial] {
            let cell = MatrixCell {
                scenario: scenario.name.clone(),
                policy: spec.policy,
                freq: spec.freq,
                channels: spec.channels,
                outcome: CellOutcome::Screened(analytic.clone()),
            };
            let facts = cell_facts(&cell.to_json_value(), "t").unwrap();
            assert_eq!(
                facts.rank,
                RankKey::screened(&analytic),
                "{:?}",
                analytic.verdict
            );
        }
    }

    #[test]
    fn govern_diff_flags_deficit_growth_and_failing_epochs() {
        let old = govern_doc(&[("adas", 2, 0.10), ("camcorder-b", 0, 0.0)]);
        let worse = govern_doc(&[("adas", 5, 0.30), ("camcorder-b", 0, 0.0)]);
        let (ok, bad) = diff_govern(&old, &worse, 0.05).unwrap();
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("adas"), "{bad:?}");
        assert!(bad[0].contains("failing epochs 2 -> 5"), "{bad:?}");
        assert!(bad[0].contains("QoS deficit"), "{bad:?}");
        assert_eq!(ok.len(), 1);
        // Identical runs are clean even at zero tolerance.
        let (_, bad) = diff_govern(&old, &old, 0.0).unwrap();
        assert!(bad.is_empty(), "{bad:?}");
    }

    #[test]
    fn summaries_render_for_each_kind() {
        let lines = summarize_matrix(&matrix_doc(&[("adas", "QoS", 1600, true, 0, 9.5)])).unwrap();
        assert!(lines[0].contains("1 cells"), "{lines:?}");
        assert!(lines[1].contains("adas"), "{lines:?}");
        assert!(lines[1].contains("all targets met"), "{lines:?}");

        let lines = summarize_govern(&govern_doc(&[("adas", 1, 0.2)])).unwrap();
        assert!(lines[1].contains("failing epochs"), "{lines:?}");

        let chrome = Value::Object(vec![(
            "traceEvents".to_string(),
            Value::Array(vec![Value::Object(vec![
                ("name".to_string(), "x".into()),
                ("cat".to_string(), "cell".into()),
                ("ph".to_string(), "X".into()),
                ("pid".to_string(), 0u64.into()),
                ("ts".to_string(), 5u64.into()),
                ("dur".to_string(), 10u64.into()),
            ])]),
        )]);
        let lines = summarize_chrome(&chrome).unwrap();
        assert!(lines[0].contains("1 spans"), "{lines:?}");
        assert!(lines[0].contains("ending at 15 us"), "{lines:?}");
    }

    #[test]
    fn kinds_without_numbers_refuse_to_diff() {
        let chrome = Value::Object(vec![("traceEvents".to_string(), Value::Array(vec![]))]);
        let err = diff(&chrome, &chrome, Kind::Chrome, Kind::Chrome, 0.05).unwrap_err();
        assert!(matches!(&err, CliError::Failure(m) if m.contains("not supported")));
    }

    /// A serve transcript carrying the given cells, as the array-of-records
    /// shape `load` normalizes to.
    fn serve_doc(cells: &[(&str, &str, u64, bool, usize, f64)]) -> Value {
        let matrix = matrix_doc(cells);
        let cell_values = matrix.get("cells").unwrap().as_array().unwrap();
        let mut records = vec![Value::Object(vec![
            ("format".to_string(), SERVE_TAG.into()),
            ("type".to_string(), "accepted".into()),
            ("id".to_string(), "job-1".into()),
            ("cells".to_string(), (cells.len() as u64).into()),
        ])];
        for (seq, cell) in cell_values.iter().enumerate() {
            let mut members = vec![
                ("format".to_string(), SERVE_TAG.into()),
                ("type".to_string(), "cell".into()),
                ("id".to_string(), "job-1".into()),
                ("seq".to_string(), (seq as u64).into()),
            ];
            if let Value::Object(cell_members) = cell {
                members.extend(cell_members.iter().cloned());
            }
            records.push(Value::Object(members));
        }
        let met = cells.iter().filter(|c| c.3).count() as u64;
        records.push(Value::Object(vec![
            ("format".to_string(), SERVE_TAG.into()),
            ("type".to_string(), "summary".into()),
            ("id".to_string(), "job-1".into()),
            ("cells".to_string(), (cells.len() as u64).into()),
            ("cache_hits".to_string(), 0u64.into()),
            ("cache_misses".to_string(), (cells.len() as u64).into()),
            ("targets_met".to_string(), met.into()),
        ]));
        Value::Array(records)
    }

    #[test]
    fn detect_recognizes_serve_transcripts() {
        let doc = serve_doc(&[("adas", "QoS", 1600, true, 0, 9.5)]);
        assert_eq!(detect(&doc), Some(Kind::Serve));
        // A single saved record (e.g. just the summary line) also counts.
        let one = Value::Object(vec![
            ("format".to_string(), SERVE_TAG.into()),
            ("type".to_string(), "summary".into()),
        ]);
        assert_eq!(detect(&one), Some(Kind::Serve));
        // A govern-style array without the tag stays govern, not serve.
        assert_eq!(detect(&govern_doc(&[("a", 0, 0.0)])), Some(Kind::Govern));
    }

    #[test]
    fn ndjson_loader_accepts_only_tagged_streams() {
        let transcript = "\
            {\"format\":\"sara-serve/v1\",\"type\":\"accepted\",\"id\":\"j\",\"cells\":1}\n\
            {\"format\":\"sara-serve/v1\",\"type\":\"summary\",\"id\":\"j\"}\n";
        let doc = parse_ndjson(transcript).expect("tagged NDJSON loads");
        assert_eq!(doc.as_array().map(<[Value]>::len), Some(2));
        // Untagged lines refuse: this is not a serve transcript.
        assert!(parse_ndjson("{\"a\":1}\n{\"b\":2}\n").is_none());
        assert!(parse_ndjson("not json\n").is_none());
        assert!(parse_ndjson("\n\n").is_none());
    }

    #[test]
    fn serve_summaries_render() {
        let lines = summarize_serve(&serve_doc(&[("adas", "QoS", 1600, true, 0, 9.5)])).unwrap();
        assert!(lines[0].contains("1 jobs accepted"), "{lines:?}");
        assert!(lines[0].contains("1 cells"), "{lines:?}");
        assert!(lines[1].contains("job job-1"), "{lines:?}");
        assert!(lines[1].contains("cache 0 hits / 1 miss"), "{lines:?}");
        assert!(lines[2].contains("1/1 streamed cells"), "{lines:?}");
    }

    #[test]
    fn serve_transcripts_diff_like_matrix_dumps_and_against_them() {
        let good = &[("adas", "QoS", 1600, true, 0, 9.5)][..];
        let bad_cells = &[("adas", "QoS", 1600, false, 1, 4.0)][..];
        // serve vs serve
        let (_, bad) = diff(
            &serve_doc(good),
            &serve_doc(bad_cells),
            Kind::Serve,
            Kind::Serve,
            0.05,
        )
        .unwrap();
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("QoS targets newly missed"), "{bad:?}");
        // matrix vs serve, both directions: the same cells compare clean.
        let (ok, bad) = diff(
            &matrix_doc(good),
            &serve_doc(good),
            Kind::Matrix,
            Kind::Serve,
            0.05,
        )
        .unwrap();
        assert!(bad.is_empty(), "{bad:?}");
        assert_eq!(ok.len(), 1);
        let (_, bad) = diff(
            &serve_doc(good),
            &matrix_doc(bad_cells),
            Kind::Serve,
            Kind::Matrix,
            0.05,
        )
        .unwrap();
        assert_eq!(bad.len(), 1, "{bad:?}");
    }

    /// A journal with one accepted 2-cell job (miss + hit) whose stage
    /// durations are all scaled by `scale`.
    fn journal_doc(client: &str, scale: u64) -> Value {
        let event = |members: Vec<(&str, Value)>| {
            let mut full = vec![("format".to_string(), JOURNAL_TAG.into())];
            full.extend(members.into_iter().map(|(k, v)| (k.to_string(), v)));
            Value::Object(full)
        };
        Value::Array(vec![
            event(vec![
                ("event", "accepted".into()),
                ("id", "j".into()),
                ("client", client.into()),
                ("cells", 2u64.into()),
            ]),
            event(vec![("event", "queued".into())]),
            event(vec![
                ("event", "cache_miss".into()),
                ("dur_us", (3 * scale).into()),
            ]),
            event(vec![("event", "queued".into())]),
            event(vec![
                ("event", "cache_hit".into()),
                ("dur_us", (2 * scale).into()),
            ]),
            event(vec![
                ("event", "sim_start".into()),
                ("dur_us", (40 * scale).into()),
            ]),
            event(vec![
                ("event", "sim_end".into()),
                ("dur_us", (9000 * scale).into()),
            ]),
            event(vec![
                ("event", "emitted".into()),
                ("dur_us", (70 * scale).into()),
            ]),
            event(vec![
                ("event", "emitted".into()),
                ("dur_us", (80 * scale).into()),
            ]),
        ])
    }

    #[test]
    fn detect_recognizes_journals() {
        assert_eq!(detect(&journal_doc("ci", 1)), Some(Kind::Journal));
        let one = Value::Object(vec![
            ("format".to_string(), JOURNAL_TAG.into()),
            ("event".to_string(), "queued".into()),
        ]);
        assert_eq!(detect(&one), Some(Kind::Journal));
    }

    #[test]
    fn ndjson_loader_accepts_journals_but_not_mixed_tags() {
        let journal = "\
            {\"format\":\"sara-serve-journal/v1\",\"event\":\"queued\"}\n\
            {\"format\":\"sara-serve-journal/v1\",\"event\":\"emitted\",\"dur_us\":5}\n";
        let doc = parse_ndjson(journal).expect("journal NDJSON loads");
        assert_eq!(detect(&doc), Some(Kind::Journal));
        let mixed = "\
            {\"format\":\"sara-serve-journal/v1\",\"event\":\"queued\"}\n\
            {\"format\":\"sara-serve/v1\",\"type\":\"pong\"}\n";
        assert!(parse_ndjson(mixed).is_none());
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&samples, 0.50), 50);
        assert_eq!(quantile(&samples, 0.95), 95);
        assert_eq!(quantile(&samples, 0.99), 99);
        assert_eq!(quantile(&[7], 0.50), 7);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn journal_summaries_render_stages_clients_and_hit_rate() {
        let lines = summarize_journal(&journal_doc("ci", 1)).unwrap();
        assert!(lines[0].contains("1 jobs accepted"), "{lines:?}");
        assert!(
            lines[0].contains("cache hit rate 50.0% (1/2 lookups)"),
            "{lines:?}"
        );
        assert!(!lines[0].contains("evictions"), "{lines:?}");
        let stages: Vec<&String> = lines.iter().filter(|l| l.contains(" p95 ")).collect();
        assert_eq!(stages.len(), 4, "{lines:?}");
        assert!(stages[2].contains("sim"), "{lines:?}");
        assert!(lines.last().unwrap().contains("client ci"), "{lines:?}");
        assert!(
            lines.last().unwrap().contains("1 job, 2 cells"),
            "{lines:?}"
        );

        // Evictions are counted and feed no stage.
        let Value::Array(mut events) = journal_doc("ci", 1) else {
            unreachable!("a journal is an event array")
        };
        let evicted = Value::Object(vec![
            ("format".to_string(), JOURNAL_TAG.into()),
            ("event".to_string(), "evicted".into()),
            ("bytes".to_string(), 9654u64.into()),
        ]);
        events.extend([evicted.clone(), evicted]);
        let with_evictions = summarize_journal(&Value::Array(events)).unwrap();
        assert!(
            with_evictions[0].ends_with("(1/2 lookups); 2 cache evictions"),
            "{with_evictions:?}"
        );
        assert_eq!(with_evictions[1..], lines[1..]);
    }

    #[test]
    fn journal_diff_flags_latency_growth_but_absorbs_jitter() {
        let base = journal_doc("ci", 1);
        // Identical journals are clean even at zero tolerance.
        let (_, bad) = diff_journal(&base, &base, 0.0).unwrap();
        assert!(bad.is_empty(), "{bad:?}");
        // 10x slower stages trip the gate.
        let (_, bad) = diff_journal(&base, &journal_doc("ci", 10), 0.05).unwrap();
        assert!(bad.iter().any(|b| b.starts_with("sim:")), "{bad:?}");
        assert!(bad.iter().any(|b| b.contains("p95")), "{bad:?}");
        // ...but the near-zero cache-lookup stage (3 us -> 30 us) stays
        // inside the absolute jitter allowance.
        assert!(
            !bad.iter().any(|b| b.starts_with("cache lookup:")),
            "{bad:?}"
        );
    }

    #[test]
    fn journal_diff_flags_hit_rate_drops() {
        let mut cold = journal_doc("ci", 1);
        // Turn the hit into a second miss: the rate halves.
        if let Value::Array(events) = &mut cold {
            if let Value::Object(members) = &mut events[4] {
                members[1].1 = "cache_miss".into();
            }
        }
        let (_, bad) = diff_journal(&journal_doc("ci", 1), &cold, 0.05).unwrap();
        assert!(bad.iter().any(|b| b.contains("cache hit rate")), "{bad:?}");
    }

    #[test]
    fn prometheus_checker_accepts_the_encoders_shape() {
        let mut r = sara_telemetry::Registry::new();
        r.counter("jobs_accepted").add(2);
        r.counter("jobs{client=\"ci\"}").add(2);
        r.histogram("sim_us").record(100);
        r.histogram("sim_us").record(200);
        let doc = Value::Str(prometheus::encode(&r));
        assert_eq!(
            summarize(&doc, Kind::Prometheus).unwrap(),
            [
                "prometheus exposition: 3 families (2 counters, 0 gauges, 1 histogram), \
              7 samples — format checks passed"
            ]
        );
    }

    #[test]
    fn prometheus_checker_rejects_malformed_expositions() {
        // The checker's own cases live beside it; here, the prefix.
        let err = summarize(&Value::Str("jobs 1\n".to_string()), Kind::Prometheus).unwrap_err();
        assert!(
            matches!(&err, CliError::Failure(m)
                if m == "prometheus exposition: line 1: sample precedes its # TYPE: \"jobs 1\""),
            "{err:?}"
        );
    }
}
