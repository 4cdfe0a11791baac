//! The multi-threaded batch harness: scenario × policy × frequency ×
//! channel-count runs sharded across scoped worker threads, aggregated
//! into a ranked comparison summary.
//!
//! Each cell of the matrix lowers (and screens) once ([`lower_cell`]) and
//! is one fully deterministic single-threaded simulation ([`run_system`]);
//! [`run_systems`] returns the reports in submission order, so the
//! aggregate is byte-identical no matter how many workers run it (the
//! property `matrix_deterministic_across_thread_counts` pins down). A
//! `sara serve` job takes the same steps.

use std::borrow::Borrow;
use std::io::{self, Write};
use std::time::Instant;

use json::{Scalar, Value};
use sara_memctrl::PolicyKind;
use sara_sim::{AnalyticReport, ScreenVerdict, SimReport, SystemConfig};
use sara_telemetry::ChromeTrace;
use sara_types::{ConfigError, MegaHertz};

use crate::ordered::{run_system, run_systems};
use crate::scenario::Scenario;

/// How the analytic pre-screener participates in a matrix run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScreenMode {
    /// No screening: every cell is simulated (the historical behaviour).
    #[default]
    Off,
    /// Provably-decided cells skip simulation and are emitted as
    /// synthetic `screened` cells carrying the analytic bound.
    Prune,
    /// Every cell is simulated *and* screened, and the run hard-errors
    /// if simulation ever contradicts a verdict or exceeds a bound —
    /// the correctness harness for the analytic model.
    Verify,
}

impl ScreenMode {
    /// Parses the spelling `--screen` and `submit` share (`off` / `prune` /
    /// `verify`).
    ///
    /// # Errors
    ///
    /// `unknown screen mode "<s>" (expected one of: off, prune, verify)`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(ScreenMode::Off),
            "prune" => Ok(ScreenMode::Prune),
            "verify" => Ok(ScreenMode::Verify),
            _ => Err(format!(
                "unknown screen mode \"{s}\" (expected one of: off, prune, verify)"
            )),
        }
    }
}

/// What to cross with the scenario list.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSpec {
    /// Policies to run every scenario under (must be non-empty).
    pub policies: Vec<PolicyKind>,
    /// DRAM frequencies to sweep; empty means "each scenario's own".
    pub freqs_mhz: Vec<u32>,
    /// DRAM channel counts to sweep; empty means "each scenario's own".
    pub channels: Vec<usize>,
    /// Run length override in ms; `None` uses each scenario's nominal
    /// duration.
    pub duration_ms: Option<f64>,
    /// Worker threads (0 and 1 both mean serial; capped at the job count).
    pub threads: usize,
    /// Analytic pre-screening mode (see [`ScreenMode`]).
    pub screen: ScreenMode,
}

impl Default for MatrixSpec {
    fn default() -> Self {
        MatrixSpec {
            policies: PolicyKind::ALL.to_vec(),
            freqs_mhz: Vec::new(),
            channels: Vec::new(),
            duration_ms: None,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            screen: ScreenMode::Off,
        }
    }
}

/// How one cell was resolved: by the engine, or by the closed-form
/// screener without ever simulating.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The cell was simulated; the full report.
    Simulated(Box<SimReport>),
    /// The cell was pruned by `--screen=prune`; the analytic evaluation
    /// (whose verdict is never [`ScreenVerdict::NeedsSim`]) stands in
    /// for the simulated numbers.
    Screened(AnalyticReport),
}

/// One completed cell of the matrix.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Scenario registry name.
    pub scenario: String,
    /// Policy this cell ran under.
    pub policy: PolicyKind,
    /// DRAM frequency this cell ran at.
    pub freq: MegaHertz,
    /// DRAM channel count this cell ran with.
    pub channels: usize,
    /// How the cell was resolved.
    pub outcome: CellOutcome,
}

impl MatrixCell {
    /// The full simulation report, if the cell was simulated.
    pub fn report(&self) -> Option<&SimReport> {
        match &self.outcome {
            CellOutcome::Simulated(r) => Some(r),
            CellOutcome::Screened(_) => None,
        }
    }

    /// The wire label of a pruned cell (`"infeasible"` / `"trivial"`),
    /// `None` for simulated cells.
    pub fn screened(&self) -> Option<&'static str> {
        match &self.outcome {
            CellOutcome::Simulated(_) => None,
            CellOutcome::Screened(a) => a.verdict.label(),
        }
    }

    /// What the rankings read of the cell: the engine's figures for a
    /// simulated cell, the screener's proof for a pruned one.
    pub fn rank_key(&self) -> RankKey {
        match &self.outcome {
            CellOutcome::Simulated(r) => RankKey::of(r),
            CellOutcome::Screened(a) => RankKey::screened(a),
        }
    }

    /// The cell as one JSON object node — the exact member list and
    /// order every `cells[i]` entry of a matrix dump carries, and (with
    /// envelope keys prepended) the body of a `sara serve` cell record.
    pub fn to_json_value(&self) -> Value {
        Value::Object(self.json_members())
    }

    /// The cell's JSON members in emission order, so a wire protocol can
    /// prepend envelope keys without re-serializing the report.
    ///
    /// Simulated cells carry a `report` member with the identical bytes
    /// they had before screening existed; pruned cells replace it with
    /// `screened` (the verdict label) plus `analytic` (the closed-form
    /// evaluation).
    pub fn json_members(&self) -> Vec<(String, Value)> {
        let head = cell_head_members(&self.scenario, self.policy, self.freq, self.channels);
        let mut members = Vec::with_capacity(head.len() + 2);
        members.extend(head.map(|(key, value)| (key.to_string(), value.into())));
        match &self.outcome {
            CellOutcome::Simulated(r) => {
                members.push(("report".to_string(), r.to_json_value()));
            }
            CellOutcome::Screened(a) => {
                let label = a.verdict.label().unwrap_or("needs-sim");
                members.push(("screened".to_string(), label.into()));
                members.push(("analytic".to_string(), a.to_json_value()));
            }
        }
        members
    }
}

/// A matrix cell's head members, the ones ahead of its outcome, in
/// emission order: [`MatrixCell::json_members`] starts with them, and so
/// does a `sara serve` cell record spliced around a cached report. They
/// borrow what they name, so a streamed head builds no [`Value`].
pub fn cell_head_members(
    scenario: &str,
    policy: PolicyKind,
    freq: MegaHertz,
    channels: usize,
) -> [(&'static str, Scalar<'_>); 4] {
    [
        ("scenario", Scalar::Str(scenario)),
        ("policy", Scalar::Str(policy.name())),
        ("freq_mhz", Scalar::UInt(freq.as_u32().into())),
        ("channels", Scalar::UInt(channels as u64)),
    ]
}

/// What answers a cell in a matrix document, after its head members.
#[derive(Debug, Clone, Copy)]
pub enum CellBody<'a> {
    /// A simulated cell's report.
    Simulated(&'a SimReport),
    /// A simulated cell's report as already rendered compact JSON, spliced
    /// in as is (a compact document only).
    Rendered(&'a str),
    /// A pruned cell's closed-form evaluation.
    Screened(&'a AnalyticReport),
}

/// Writes a cell's members — those of [`MatrixCell::json_members`] — into
/// the open object of `doc`: `head` ([`cell_head_members`]), then `body`.
/// A matrix document's `cells[i]` and a `sara serve` cell record alike.
///
/// # Errors
///
/// Returns the first error the writer reports.
pub fn write_cell_members<W: Write + ?Sized>(
    doc: &mut json::Stream<'_, W>,
    head: [(&'static str, Scalar<'_>); 4],
    body: CellBody<'_>,
) -> io::Result<()> {
    for (key, value) in head {
        doc.scalar(Some(key), value);
    }
    match body {
        CellBody::Simulated(r) => doc.node(Some("report"), &r.to_json_value()),
        CellBody::Rendered(report_json) => doc.raw(Some("report"), report_json),
        CellBody::Screened(a) => {
            let label = a.verdict.label().unwrap_or("needs-sim");
            doc.scalar(Some("screened"), Scalar::Str(label));
            doc.node(Some("analytic"), &a.to_json_value())
        }
    }
}

/// The one writer of a matrix document, under [`MatrixSummary::write_json`]
/// and a `sara serve` `json_out` artifact: `cells` then `rankings`,
/// compact or pretty, plus a trailing newline, written one cell at a time
/// ([`write_cell_members`]) so the emit holds one cell's tree, never the
/// grid's.
///
/// # Errors
///
/// Returns any I/O error from the writer, after a partial document.
pub fn write_matrix_document<'a, W: Write + ?Sized>(
    w: &mut W,
    pretty: bool,
    cells: impl IntoIterator<Item = ([(&'static str, Scalar<'a>); 4], CellBody<'a>)>,
    rankings: &[ScenarioRanking],
) -> io::Result<()> {
    let mut doc = json::Stream::new(w, pretty);
    doc.open_object(None);
    doc.open_array(Some("cells"));
    for (head, body) in cells {
        doc.open_object(None);
        write_cell_members(&mut doc, head, body)?;
        doc.close();
    }
    doc.close();
    doc.open_array(Some("rankings"));
    for ranking in rankings {
        doc.node(None, &ranking.to_json_value())?;
    }
    doc.close();
    doc.close();
    doc.finish()
}

/// The facts a cell is ranked by, and all a ranking needs of it:
/// [`rank_cells`] orders cells by these alone, so a caller that keeps a
/// report only as rendered JSON can still rank it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankKey {
    /// Whether every core met its target.
    pub met: bool,
    /// Number of cores that missed their targets.
    pub failures: usize,
    /// Delivered bandwidth, GB/s.
    pub bandwidth_gbs: f64,
}

impl RankKey {
    /// A simulated cell's key: the report's own verdict and figures.
    pub fn of(report: &SimReport) -> RankKey {
        RankKey {
            met: report.all_targets_met(),
            failures: report.failed_cores().len(),
            bandwidth_gbs: report.bandwidth_gbs,
        }
    }

    /// A pruned cell's key, from its screening report.
    pub fn screened(analytic: &AnalyticReport) -> RankKey {
        RankKey::pruned(
            analytic.verdict == ScreenVerdict::ProvablyTrivial,
            analytic.static_alloc.iter().map(|s| s.demand_gbs),
            analytic.bound_gbs,
        )
    }

    /// The one rule that ranks a pruned cell, given its verdict, each
    /// core's rated demand (its `static_alloc` entry's `demand_gbs`) and
    /// the analytic bound. Provably trivial cells meet every target;
    /// provably infeasible ones fail every core with a rated demand — a
    /// deterministic pessimistic stand-in (at least one of them must
    /// fail; the exact set is unknowable without simulating). The bound
    /// stands in for delivered bandwidth. `sara report` reads a dumped
    /// cell through this rule too, so its summary agrees with the ranking.
    pub fn pruned(
        trivial: bool,
        demands_gbs: impl IntoIterator<Item = f64>,
        bound_gbs: f64,
    ) -> RankKey {
        let rated = demands_gbs.into_iter().filter(|&d| d > 0.0).count();
        RankKey {
            met: trivial,
            failures: if trivial { 0 } else { rated.max(1) },
            bandwidth_gbs: bound_gbs,
        }
    }
}

/// Wall-clock phase profile of one matrix cell — where the *harness*
/// spent its time, as opposed to the simulated time the cell's report
/// covers.
///
/// Wall-clock readings vary run to run, so profiles are deliberately kept
/// out of [`MatrixSummary::write_json`] (whose bytes are pinned across
/// thread counts); they surface through
/// [`MatrixSummary::chrome_trace_value`] and direct field access.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellProfile {
    /// Index of the worker thread that ran the cell (0 for serial runs).
    pub worker: usize,
    /// Cell start, milliseconds since its [`run_systems`] batch started.
    pub start_ms: f64,
    /// System construction (a pruned cell's: lowering and screening), ms.
    pub setup_ms: f64,
    /// Event-loop simulation, milliseconds.
    pub sim_ms: f64,
    /// Report aggregation, milliseconds.
    pub report_ms: f64,
}

impl CellProfile {
    /// Total wall-clock spent on the cell, milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.setup_ms + self.sim_ms + self.report_ms
    }
}

/// Aggregated outcome of a matrix run: all cells in deterministic
/// (scenario-major) order plus per-scenario policy rankings.
#[derive(Debug, Clone)]
pub struct MatrixSummary {
    /// All cells, ordered scenario × policy × frequency as submitted.
    pub cells: Vec<MatrixCell>,
    /// Per-scenario ranking of cell indices, best first.
    pub rankings: Vec<ScenarioRanking>,
    /// Wall-clock phase profile of each cell, aligned with
    /// [`MatrixSummary::cells`].
    pub profile: Vec<CellProfile>,
}

/// Ranked cells of one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioRanking {
    /// Scenario registry name.
    pub scenario: String,
    /// Indices into [`MatrixSummary::cells`], best candidate first, in
    /// [`rank_cells`] order.
    pub ranked: Vec<usize>,
}

impl ScenarioRanking {
    /// The ranking as one `rankings[i]` object of a matrix dump.
    pub fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("scenario".to_string(), self.scenario.as_str().into()),
            ("ranked".to_string(), self.ranked.clone().into()),
        ])
    }
}

impl MatrixSummary {
    /// The winning cell for a scenario, if it ran.
    pub fn best(&self, scenario: &str) -> Option<&MatrixCell> {
        self.rankings
            .iter()
            .find(|r| r.scenario == scenario)
            .and_then(|r| r.ranked.first())
            .map(|&i| &self.cells[i])
    }

    /// A human-readable ranked comparison table.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        for ranking in &self.rankings {
            out.push_str(&format!("=== {} ===\n", ranking.scenario));
            out.push_str(&format!(
                "{:<6} {:<10} {:>6} {:>8} {:>9} {:>10}\n",
                "rank", "policy", "MHz", "GB/s", "row-hit%", "failures"
            ));
            for (rank, &i) in ranking.ranked.iter().enumerate() {
                let c = &self.cells[i];
                match &c.outcome {
                    CellOutcome::Simulated(r) => out.push_str(&format!(
                        "{:<6} {:<10} {:>6} {:>8.2} {:>9.1} {:>10}\n",
                        rank + 1,
                        c.policy.name(),
                        c.freq.as_u32(),
                        r.bandwidth_gbs,
                        r.row_hit_rate * 100.0,
                        c.rank_key().failures
                    )),
                    CellOutcome::Screened(a) => out.push_str(&format!(
                        "{:<6} {:<10} {:>6} {:>8.2} {:>9} {:>10}\n",
                        rank + 1,
                        c.policy.name(),
                        c.freq.as_u32(),
                        a.bound_gbs,
                        "-",
                        c.screened().unwrap_or("screened")
                    )),
                }
            }
        }
        out
    }

    /// Writes the summary document ([`write_matrix_document`]), the bytes
    /// of the assembled document, deterministic across worker counts.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer, after a partial document.
    pub fn write_json<W: Write + ?Sized>(&self, w: &mut W, pretty: bool) -> io::Result<()> {
        let cells = self.cells.iter().map(|c| {
            let body = match &c.outcome {
                CellOutcome::Simulated(r) => CellBody::Simulated(r),
                CellOutcome::Screened(a) => CellBody::Screened(a),
            };
            (
                cell_head_members(&c.scenario, c.policy, c.freq, c.channels),
                body,
            )
        });
        write_matrix_document(w, pretty, cells, &self.rankings)
    }

    /// The compact summary document, without the trailing newline
    /// [`MatrixSummary::write_json`] ends a file with.
    pub fn to_json(&self) -> String {
        let mut bytes = Vec::new();
        self.to_json_writer(&mut bytes)
            .expect("writing to a Vec cannot fail");
        bytes.pop();
        String::from_utf8(bytes).expect("the emitter writes UTF-8")
    }

    /// Streams the compact summary document plus a trailing newline to a
    /// writer ([`MatrixSummary::write_json`] with `pretty` off) — the
    /// bytes of `sara matrix --json` and of a `sara serve` `json_out`
    /// artifact.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer, after a partial document.
    pub fn to_json_writer<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.write_json(w, false)
    }

    /// The harness profile as a Chrome trace-event document
    /// (`chrome://tracing` / Perfetto): one track per worker thread, one
    /// complete span per cell with nested setup/sim/report phase spans,
    /// and the cell's headline results attached as span args.
    ///
    /// Timestamps are wall-clock microseconds since the cells' batch
    /// started, so — unlike [`MatrixSummary::write_json`] — the
    /// document is *not* byte-stable across runs.
    pub fn chrome_trace_value(&self) -> Value {
        let mut trace = ChromeTrace::new();
        trace.process_name(0, "sara matrix");
        let mut workers: Vec<usize> = self.profile.iter().map(|p| p.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        for &w in &workers {
            trace.thread_name(0, w as u32, &format!("worker {w}"));
        }
        let us = |ms: f64| (ms * 1e3).round().max(0.0) as u64;
        for (cell, p) in self.cells.iter().zip(&self.profile) {
            let tid = p.worker as u32;
            let name = format!(
                "{} {} @{}MHz",
                cell.scenario,
                cell.policy.name(),
                cell.freq.as_u32()
            );
            let start = us(p.start_ms);
            let key = cell.rank_key();
            trace.complete(
                0,
                tid,
                &name,
                "cell",
                start,
                us(p.total_ms()),
                &[
                    ("bandwidth_gbs", key.bandwidth_gbs.into()),
                    ("all_targets_met", key.met.into()),
                    ("failures", key.failures.into()),
                ],
            );
            trace.complete(0, tid, "setup", "phase", start, us(p.setup_ms), &[]);
            trace.complete(
                0,
                tid,
                "sim",
                "phase",
                start + us(p.setup_ms),
                us(p.sim_ms),
                &[],
            );
            trace.complete(
                0,
                tid,
                "report",
                "phase",
                start + us(p.setup_ms) + us(p.sim_ms),
                us(p.report_ms),
                &[],
            );
        }
        trace.to_value()
    }

    /// Serializes the summary as CSV: one row per cell in submission order,
    /// with each cell's rank within its scenario's policy comparison.
    ///
    /// Columns: `scenario,policy,freq_mhz,channels,bandwidth_gbs,`
    /// `row_hit_rate,failures,all_met,screened,rank`. Floats use the
    /// shortest round-trip form; scenario names go through [`csv_field`].
    /// Pruned cells carry the analytic bound in the bandwidth column, an
    /// empty `row_hit_rate`, and their verdict label in `screened` (empty
    /// for simulated cells).
    pub fn to_csv(&self) -> String {
        // rank[i] = 1-based position of cell i within its scenario.
        let mut rank = vec![0usize; self.cells.len()];
        for r in &self.rankings {
            for (pos, &i) in r.ranked.iter().enumerate() {
                rank[i] = pos + 1;
            }
        }
        let mut out = String::from(
            "scenario,policy,freq_mhz,channels,bandwidth_gbs,row_hit_rate,failures,all_met,screened,rank\n",
        );
        for (i, c) in self.cells.iter().enumerate() {
            let row_hit = c
                .report()
                .map(|r| r.row_hit_rate.to_string())
                .unwrap_or_default();
            let key = c.rank_key();
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                csv_field(&c.scenario),
                c.policy.name(),
                c.freq.as_u32(),
                c.channels,
                key.bandwidth_gbs,
                row_hit,
                key.failures,
                key.met,
                c.screened().unwrap_or(""),
                rank[i]
            ));
        }
        out
    }
}

/// RFC 4180 quoting for a free-text CSV field: wrapped in double quotes
/// (with `"` doubled) only when it contains a comma, quote, or newline.
/// The one quoting rule of every CSV writer that carries a scenario name
/// (`sara matrix`, `sara sweep`, `sara govern`): the format only
/// requires a name to be non-empty, so `adas,"v2"` is a legal registry
/// key.
pub fn csv_field(raw: &str) -> String {
    if raw.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", raw.replace('"', "\"\""))
    } else {
        raw.to_string()
    }
}

/// One fully-lowered unit of work: which scenario (by index into the
/// submitted list) runs under which policy, frequency, and channel-count
/// override, for how long.
///
/// A matrix is nothing but a vector of these in deterministic submission
/// order ([`expand_cells`]); `sara serve` runs the same specs through the
/// same [`run_ordered`](crate::run_ordered) and caches each one by
/// [`cell_fingerprint`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Index into the scenario list the cell was expanded from.
    pub scenario: usize,
    /// Policy the cell runs under.
    pub policy: PolicyKind,
    /// DRAM frequency the cell runs at.
    pub freq: MegaHertz,
    /// DRAM channel count the cell runs with.
    pub channels: usize,
    /// Run length in milliseconds.
    pub duration_ms: f64,
}

impl CellSpec {
    /// The system this cell runs: `scenario` (the entry `self.scenario`
    /// indexes) under the cell's policy, frequency and channel count — the
    /// one place a cell becomes a system.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on an inconsistent cell (e.g. a channel
    /// count that is not a power of two).
    pub fn system(&self, scenario: &Scenario) -> Result<SystemConfig, ConfigError> {
        SystemConfig::from_scenario(
            self.freq,
            self.policy,
            scenario.cores.clone(),
            scenario.frame_period_ns,
            scenario.seed,
            self.channels,
        )
    }
}

/// Expands a matrix spec into its cells — the deterministic
/// scenario-major submission order every harness (batch or service)
/// agrees on, so aggregates are comparable byte for byte.
///
/// # Errors
///
/// Returns an error for an empty matrix (no scenarios or no policies).
pub fn expand_cells(
    scenarios: &[impl Borrow<Scenario>],
    spec: &MatrixSpec,
) -> Result<Vec<CellSpec>, ConfigError> {
    if scenarios.is_empty() || spec.policies.is_empty() {
        return Err(ConfigError::new("empty scenario matrix"));
    }
    let mut cells = Vec::new();
    for (si, s) in scenarios.iter().map(Borrow::borrow).enumerate() {
        let freqs: Vec<MegaHertz> = if spec.freqs_mhz.is_empty() {
            vec![s.freq]
        } else {
            spec.freqs_mhz.iter().map(|&m| MegaHertz::new(m)).collect()
        };
        let channel_counts = if spec.channels.is_empty() {
            std::slice::from_ref(&s.channels)
        } else {
            &spec.channels
        };
        for &policy in &spec.policies {
            for &freq in &freqs {
                for &channels in channel_counts {
                    cells.push(CellSpec {
                        scenario: si,
                        policy,
                        freq,
                        channels,
                        duration_ms: spec.duration_ms.unwrap_or(s.duration_ms),
                    });
                }
            }
        }
    }
    Ok(cells)
}

/// Runs one cell of a matrix to its report: its system
/// ([`CellSpec::system`]) through [`run_system`], as in every batch, so
/// the report is byte-identical (through `SimReport::to_json_value`) to
/// the same cell inside a batch run.
///
/// `scenario` must be the entry `cell.scenario` indexes in the list the
/// cell was expanded from.
///
/// # Errors
///
/// Returns the [`ConfigError`] of a cell whose system fails to lower or
/// build.
pub fn run_cell(scenario: &Scenario, cell: &CellSpec) -> Result<SimReport, ConfigError> {
    Ok(run_system(cell.system(scenario)?, cell.duration_ms)?.0)
}

/// Assembles completed cells into a [`MatrixSummary`], ranked by
/// [`rank_cells`] — the pass under [`run_matrix`], `sara repro` and the
/// benchmark.
///
/// `reports` and `profile` must align with `cells` (one entry each, in
/// expansion order).
///
/// # Panics
///
/// Panics if the slices disagree on length or a cell indexes past the
/// scenario list.
pub fn summarize_cells(
    scenarios: &[Scenario],
    specs: &[CellSpec],
    outcomes: Vec<CellOutcome>,
    profile: Vec<CellProfile>,
) -> MatrixSummary {
    assert_eq!(specs.len(), outcomes.len(), "one outcome per cell");
    assert_eq!(specs.len(), profile.len(), "one profile per cell");
    let cells: Vec<MatrixCell> = specs
        .iter()
        .zip(outcomes)
        .map(|(spec, outcome)| MatrixCell {
            scenario: scenarios[spec.scenario].name.clone(),
            policy: spec.policy,
            freq: spec.freq,
            channels: spec.channels,
            outcome,
        })
        .collect();

    let keys: Vec<RankKey> = cells.iter().map(MatrixCell::rank_key).collect();
    let rankings = rank_cells(scenarios, specs, &keys);

    MatrixSummary {
        cells,
        rankings,
        profile,
    }
}

/// Ranks each scenario's cells by their keys (`keys[i]` is cell `i`'s),
/// best first: all targets met beats not, fewer failed cores beats more,
/// then higher bandwidth, and submission order breaks exact ties. Cells
/// match their scenario by submitted index, not name, so two entries that
/// share a name — the same catalog scenario at two frequencies — keep
/// separate rankings. The one ranking rule: [`summarize_cells`] and a
/// `sara serve` artifact both rank through it.
///
/// # Panics
///
/// Panics if `keys` and `specs` disagree on length.
pub fn rank_cells(
    scenarios: &[impl Borrow<Scenario>],
    specs: &[CellSpec],
    keys: &[RankKey],
) -> Vec<ScenarioRanking> {
    assert_eq!(specs.len(), keys.len(), "one key per cell");
    scenarios
        .iter()
        .map(Borrow::borrow)
        .enumerate()
        .map(|(si, s)| {
            let mut ranked: Vec<usize> = (0..specs.len())
                .filter(|&i| specs[i].scenario == si)
                .collect();
            ranked.sort_by(|&a, &b| {
                let (ka, kb) = (&keys[a], &keys[b]);
                kb.met
                    .cmp(&ka.met)
                    .then(ka.failures.cmp(&kb.failures))
                    .then(kb.bandwidth_gbs.total_cmp(&ka.bandwidth_gbs))
                    .then(a.cmp(&b))
            });
            ScenarioRanking {
                scenario: s.name.clone(),
                ranked,
            }
        })
        .collect()
}

/// Content fingerprint of one cell: a 64-bit FNV-1a hash over the
/// scenario's canonical `.scenario.json` bytes plus the cell's
/// policy/frequency/channel/duration overrides and the engine version.
///
/// Two cells with equal fingerprints produce byte-identical reports (the
/// scenario document captures every workload and platform knob, the
/// overrides capture the rest, and the engine is deterministic), which is
/// what lets `sara serve` return a cached report instead of simulating —
/// the basis of its guarantee that no cell is simulated twice within a
/// job, nor twice across jobs while its entry is within the cache's byte
/// budget. The
/// engine version ties keys to the code that produced them, so persisted
/// caches cannot leak stale reports across releases.
pub fn cell_fingerprint(scenario: &Scenario, cell: &CellSpec, engine_version: &str) -> u64 {
    ScenarioFingerprint::new(scenario).cell(cell, engine_version)
}

/// The part of [`cell_fingerprint`] every cell of one scenario shares:
/// the hash state after the scenario's canonical document. Serialising
/// and hashing that document is nearly all of a fingerprint's cost, so a
/// caller keying many cells of one scenario (a `sara serve` job) builds
/// this once and finishes it per cell with [`ScenarioFingerprint::cell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioFingerprint(u64);

impl ScenarioFingerprint {
    /// Hashes `scenario`'s canonical `.scenario.json` bytes.
    pub fn new(scenario: &Scenario) -> Self {
        // FNV-1a, 64-bit: tiny, dependency-free, and plenty for cache
        // keying (collisions would need ~2^32 distinct cells in one server).
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        ScenarioFingerprint(fnv_field(OFFSET, scenario.to_json().as_bytes()))
    }

    /// The [`cell_fingerprint`] of `cell` run on this scenario.
    pub fn cell(self, cell: &CellSpec, engine_version: &str) -> u64 {
        let mut hash = self.0;
        hash = fnv_field(hash, cell.policy.name().as_bytes());
        hash = fnv_field(hash, &cell.freq.as_u32().to_le_bytes());
        hash = fnv_field(hash, &(cell.channels as u64).to_le_bytes());
        hash = fnv_field(hash, &cell.duration_ms.to_bits().to_le_bytes());
        fnv_field(hash, engine_version.as_bytes())
    }
}

/// Folds one field into an FNV-1a state, followed by its byte count as an
/// out-of-band separator (keeps "ab"+"c" distinct from "a"+"bc").
fn fnv_field(mut hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash ^= bytes.len() as u64;
    hash.wrapping_mul(PRIME)
}

/// A cell after [`lower_cell`].
#[derive(Debug)]
pub enum LoweredCell {
    /// Decided outright by the screener under [`ScreenMode::Prune`].
    Pruned(AnalyticReport),
    /// The system to simulate, with the screener's evaluation if screened.
    Run(Box<SystemConfig>, Option<AnalyticReport>),
}

/// The one lower-and-screen step: lowers `cell` to its system
/// ([`CellSpec::system`]) and, unless `screen` is [`ScreenMode::Off`],
/// prices it with the closed-form screener (microseconds, no simulator
/// state). The one prune rule: under [`ScreenMode::Prune`] a cell the
/// screener decides outright is pruned. `scenario` is the entry
/// `cell.scenario` indexes.
///
/// # Errors
///
/// Returns the [`ConfigError`] of a cell whose system fails to lower.
pub fn lower_cell(
    scenario: &Scenario,
    cell: &CellSpec,
    screen: ScreenMode,
) -> Result<LoweredCell, ConfigError> {
    let system = cell.system(scenario)?;
    let analytic = (screen != ScreenMode::Off).then(|| sara_sim::analytic_report(&system));
    Ok(match analytic {
        Some(a) if screen == ScreenMode::Prune && !a.verdict.needs_sim() => LoweredCell::Pruned(a),
        analytic => LoweredCell::Run(Box::new(system), analytic),
    })
}

/// The closed-form screener's evaluation of one cell: [`lower_cell`] under
/// [`ScreenMode::Verify`], which screens every cell and prunes none.
///
/// # Errors
///
/// Returns the [`ConfigError`] of a cell whose system fails to lower.
pub fn screen_cell(scenario: &Scenario, cell: &CellSpec) -> Result<AnalyticReport, ConfigError> {
    match lower_cell(scenario, cell, ScreenMode::Verify)? {
        LoweredCell::Run(_, Some(analytic)) => Ok(analytic),
        _ => unreachable!("verify screens and never prunes"),
    }
}

/// `--screen=verify`'s per-cell contract: simulation must never
/// contradict the screener. A violation is a model bug, not a workload
/// property, so it is a hard error.
fn verify_screened_cell(
    scenario: &str,
    job: &CellSpec,
    analytic: &AnalyticReport,
    report: &SimReport,
) -> Result<(), ConfigError> {
    let at = format!(
        "{scenario} {} @{}MHz x{}ch",
        job.policy.name(),
        job.freq.as_u32(),
        job.channels
    );
    // Tiny epsilon absorbs decimal round-tripping, nothing more: the
    // bound itself must already dominate every schedule.
    if report.bandwidth_gbs > analytic.bound_gbs * (1.0 + 1e-9) {
        return Err(ConfigError::new(format!(
            "analytic bound violated at {at}: simulated {} GB/s > bound {} GB/s",
            report.bandwidth_gbs, analytic.bound_gbs
        )));
    }
    match analytic.verdict {
        ScreenVerdict::ProvablyInfeasible if report.all_targets_met() => {
            Err(ConfigError::new(format!(
                "screener unsound at {at}: ProvablyInfeasible cell met all targets ({})",
                analytic.reason
            )))
        }
        ScreenVerdict::ProvablyTrivial if !report.all_targets_met() => {
            Err(ConfigError::new(format!(
                "screener unsound at {at}: ProvablyTrivial cell missed targets ({})",
                analytic.reason
            )))
        }
        _ => Ok(()),
    }
}

/// Runs every scenario under every policy (× every frequency and
/// channel-count override): each cell lowers and screens once
/// ([`lower_cell`]) and the systems simulate as one [`run_systems`] batch
/// on `spec.threads` workers, so equal cells simulate once.
///
/// With `spec.screen == ScreenMode::Prune`, provably-decided cells skip
/// simulation entirely and surface as [`CellOutcome::Screened`]; the
/// remaining cells' JSON is byte-identical to an unscreened run. With
/// `ScreenMode::Verify`, everything simulates and any disagreement
/// between screener and engine is an error.
///
/// # Errors
///
/// Returns an error for an empty matrix, else — in every screen mode —
/// the [`ConfigError`] of the earliest cell (in submission order) that
/// fails to lower or build; no cell after it starts. Under
/// `ScreenMode::Verify`, once every cell has run, the earliest screening
/// contradiction.
pub fn run_matrix(scenarios: &[Scenario], spec: &MatrixSpec) -> Result<MatrixSummary, ConfigError> {
    let cells = expand_cells(scenarios, spec)?;

    // Lower (and screen) in submission order up to the first cell that
    // fails to lower; the cells before it still run, since one that fails
    // to build is the earlier error. Screening is serial on purpose —
    // microseconds per cell, and a fixed evaluation order keeps the
    // emitted floats trivially deterministic. Per cell: its evaluation,
    // and a pruned cell's setup time.
    let (mut screens, mut runs, mut lowered) = (Vec::new(), Vec::new(), Ok(()));
    for cell in &cells {
        let started = Instant::now();
        match lower_cell(&scenarios[cell.scenario], cell, spec.screen) {
            Ok(LoweredCell::Pruned(analytic)) => {
                let setup_ms = started.elapsed().as_secs_f64() * 1e3;
                screens.push((Some(analytic), Some(setup_ms)));
            }
            Ok(LoweredCell::Run(system, analytic)) => {
                runs.push((*system, cell.duration_ms));
                screens.push((analytic, None));
            }
            Err(e) => {
                lowered = Err(e);
                break;
            }
        }
    }
    let mut ran = run_systems(&runs, spec.threads)?.into_iter();
    lowered?;

    let (mut outcomes, mut profile) = (Vec::new(), Vec::new());
    for (cell, screen) in cells.iter().zip(screens) {
        match screen {
            (Some(analytic), Some(setup_ms)) => {
                outcomes.push(CellOutcome::Screened(analytic));
                profile.push(CellProfile {
                    setup_ms,
                    ..CellProfile::default()
                });
            }
            (analytic, _) => {
                let (report, cell_profile) = ran.next().expect("every unpruned cell ran");
                if let (ScreenMode::Verify, Some(analytic)) = (spec.screen, &analytic) {
                    let name = &scenarios[cell.scenario].name;
                    verify_screened_cell(name, cell, analytic, &report)?;
                }
                outcomes.push(CellOutcome::Simulated(Box::new(report)));
                profile.push(cell_profile);
            }
        }
    }
    Ok(summarize_cells(scenarios, &cells, outcomes, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn small_matrix(threads: usize) -> MatrixSummary {
        let scenarios = vec![
            catalog::by_name("camcorder-b").unwrap(),
            catalog::by_name("ar-headset").unwrap(),
        ];
        let spec = MatrixSpec {
            policies: vec![PolicyKind::Fcfs, PolicyKind::Priority, PolicyKind::FrFcfs],
            freqs_mhz: Vec::new(),
            channels: Vec::new(),
            duration_ms: Some(0.2),
            threads,
            screen: ScreenMode::Off,
        };
        run_matrix(&scenarios, &spec).unwrap()
    }

    #[test]
    fn matrix_covers_the_cross_product() {
        let summary = small_matrix(2);
        assert_eq!(summary.cells.len(), 6); // 2 scenarios × 3 policies
        assert_eq!(summary.rankings.len(), 2);
        for r in &summary.rankings {
            assert_eq!(r.ranked.len(), 3);
        }
        assert!(summary.best("camcorder-b").is_some());
        assert!(summary.best("nonexistent").is_none());
        let table = summary.summary_table();
        assert!(table.contains("=== ar-headset ==="));
    }

    #[test]
    fn profile_covers_every_cell_and_chrome_trace_parses() {
        let summary = small_matrix(2);
        assert_eq!(summary.profile.len(), summary.cells.len());
        for p in &summary.profile {
            assert!(p.total_ms() > 0.0);
            assert!(p.setup_ms >= 0.0 && p.sim_ms >= 0.0 && p.report_ms >= 0.0);
        }
        let text = summary.chrome_trace_value().to_string_compact();
        let parsed = json::parse(&text).expect("chrome trace re-parses");
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        // One process-name metadata event, at least one worker track, and
        // four spans (cell + three phases) per cell.
        assert!(
            events.len() >= 2 + summary.cells.len() * 4,
            "{}",
            events.len()
        );
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some("sim")));
        // Wall-clock profiles stay out of the deterministic summary JSON.
        assert!(!summary.to_json().contains("profile"));
    }

    #[test]
    fn matrix_deterministic_across_thread_counts() {
        let one = small_matrix(1).to_json();
        let two = small_matrix(2).to_json();
        let eight = small_matrix(8).to_json();
        assert_eq!(one, two);
        assert_eq!(one, eight);
        // A grid that names one system twice.
        let duplicated = |threads| {
            let spec = MatrixSpec {
                policies: vec![PolicyKind::Fcfs, PolicyKind::Priority, PolicyKind::Fcfs],
                duration_ms: Some(0.1),
                threads,
                ..MatrixSpec::default()
            };
            let scenarios = [catalog::by_name("camcorder-b").unwrap()];
            run_matrix(&scenarios, &spec).unwrap().to_json()
        };
        assert_eq!(duplicated(1), duplicated(8));
    }

    #[test]
    fn csv_has_one_row_per_cell_with_scenario_local_ranks() {
        let summary = small_matrix(2);
        let csv = summary.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + summary.cells.len());
        assert!(lines[0].starts_with("scenario,policy,freq_mhz,"));
        let cols = lines[0].split(',').count();
        assert!(lines.iter().all(|l| l.split(',').count() == cols));
        // Each scenario's rows carry ranks 1..=policies exactly once.
        for ranking in &summary.rankings {
            let mut ranks: Vec<usize> = lines[1..]
                .iter()
                .filter(|l| l.starts_with(&format!("{},", ranking.scenario)))
                .map(|l| l.rsplit(',').next().unwrap().parse().unwrap())
                .collect();
            ranks.sort_unstable();
            assert_eq!(ranks, vec![1, 2, 3], "{}", ranking.scenario);
        }
    }

    #[test]
    fn csv_quotes_hostile_scenario_names() {
        // The format only requires names to be non-empty, so commas and
        // quotes are legal registry keys and must not corrupt the columns.
        let mut s = catalog::by_name("camcorder-b").unwrap();
        s.name = "adas,v2 \"hot\"".to_string();
        let spec = MatrixSpec {
            policies: vec![PolicyKind::Fcfs],
            freqs_mhz: Vec::new(),
            channels: Vec::new(),
            duration_ms: Some(0.05),
            threads: 1,
            screen: ScreenMode::Off,
        };
        let summary = run_matrix(&[s], &spec).unwrap();
        let csv = summary.to_csv();
        let row = csv.lines().nth(1).unwrap();
        assert!(row.starts_with("\"adas,v2 \"\"hot\"\"\",FCFS,"), "{row}");
        assert_eq!(csv_field("plain-name"), "plain-name");
    }

    #[test]
    fn empty_matrix_rejected() {
        assert!(run_matrix(&[], &MatrixSpec::default()).is_err());
        let s = vec![catalog::by_name("camcorder-b").unwrap()];
        let spec = MatrixSpec {
            policies: Vec::new(),
            ..MatrixSpec::default()
        };
        assert!(run_matrix(&s, &spec).is_err());
    }

    #[test]
    fn earliest_failing_cell_wins_at_any_thread_count() {
        use sara_workloads::PatternSpec;
        // Cells 1 and 3 fail to lower (3 and 5 channels are not powers
        // of two); the error must be cell 1's however the cells are
        // scheduled, and must differ from cell 3's.
        let s = catalog::by_name("camcorder-b").unwrap();
        let error = |s: &Scenario, channels: Vec<usize>, screen, threads| {
            let spec = MatrixSpec {
                policies: vec![PolicyKind::Priority],
                freqs_mhz: Vec::new(),
                channels,
                duration_ms: Some(0.05),
                threads,
                screen,
            };
            let e = run_matrix(std::slice::from_ref(s), &spec).unwrap_err();
            e.message().to_string()
        };
        let first = error(&s, vec![2, 3, 2, 5], ScreenMode::Off, 1);
        assert_ne!(first, error(&s, vec![2, 5], ScreenMode::Off, 1));
        for threads in [1, 4] {
            let e = error(&s, vec![2, 3, 2, 5], ScreenMode::Off, threads);
            assert_eq!(e, first, "{threads} threads");
        }
        // A 1.5 GiB region: the one-channel cell lowers (the screener
        // rates it as needing simulation) but fails to build, and its error
        // must beat cell 1's lowering failure in every screen mode.
        let mut big = s;
        match &mut big.cores[0].dmas[0].pattern {
            PatternSpec::Sequential { region_bytes }
            | PatternSpec::Strided { region_bytes, .. }
            | PatternSpec::Random { region_bytes } => *region_bytes = 3 << 29,
        }
        let capacity = "workload regions exceed DRAM capacity (1610612736 > 1073741824)";
        for screen in [ScreenMode::Off, ScreenMode::Prune, ScreenMode::Verify] {
            for threads in [1, 4] {
                let e = error(&big, vec![1, 3], screen, threads);
                assert_eq!(e, capacity, "{screen:?}, {threads} threads");
            }
        }
    }

    #[test]
    fn duplicate_scenario_names_keep_separate_rankings() {
        use sara_types::MegaHertz;
        // Same catalog scenario submitted twice at different frequencies:
        // the shared name must not merge their rankings.
        let base = catalog::by_name("camcorder-b").unwrap();
        let faster = Scenario {
            freq: MegaHertz::new(1333),
            ..base.clone()
        };
        let scenarios = vec![faster, base];
        let spec = MatrixSpec {
            policies: vec![PolicyKind::Fcfs, PolicyKind::Priority],
            freqs_mhz: Vec::new(),
            channels: Vec::new(),
            duration_ms: Some(0.1),
            threads: 2,
            screen: ScreenMode::Off,
        };
        let summary = run_matrix(&scenarios, &spec).unwrap();
        assert_eq!(summary.cells.len(), 4);
        assert_eq!(summary.rankings.len(), 2);
        for (ri, r) in summary.rankings.iter().enumerate() {
            assert_eq!(r.ranked.len(), 2, "ranking {ri} merged cells");
            let expected_freq = scenarios[ri].freq;
            for &i in &r.ranked {
                assert_eq!(summary.cells[i].freq, expected_freq);
            }
        }
    }

    #[test]
    fn channels_override_expands_cells() {
        let s = vec![catalog::by_name("camcorder-b").unwrap()];
        let spec = MatrixSpec {
            policies: vec![PolicyKind::Priority],
            freqs_mhz: Vec::new(),
            channels: vec![2, 4],
            duration_ms: Some(0.1),
            threads: 2,
            screen: ScreenMode::Off,
        };
        let summary = run_matrix(&s, &spec).unwrap();
        assert_eq!(summary.cells.len(), 2);
        assert_eq!(summary.cells[0].channels, 2);
        assert_eq!(summary.cells[1].channels, 4);
        // The axis reaches the sim: twice the channels, different traffic
        // distribution, but the same workload injected.
        let json = summary.to_json();
        assert!(json.contains("\"channels\":2"), "{json}");
        assert!(json.contains("\"channels\":4"), "{json}");
        let csv = summary.to_csv();
        assert!(csv.lines().nth(1).unwrap().contains(",1700,2,"), "{csv}");
        assert!(csv.lines().nth(2).unwrap().contains(",1700,4,"), "{csv}");
    }

    #[test]
    fn run_cell_matches_the_matrix_cell() {
        // The single-cell runner is the matrix's own per-cell path, so a
        // service that runs cells one at a time (and caches them) can
        // guarantee byte-identical reports to a batch run. The second grid
        // names one system twice: the repeat is not simulated again.
        use PolicyKind::{Fcfs, Priority};
        let scenarios = vec![catalog::by_name("camcorder-b").unwrap()];
        for policies in [vec![Fcfs, Priority], vec![Fcfs, Priority, Fcfs]] {
            let spec = MatrixSpec {
                policies,
                freqs_mhz: Vec::new(),
                channels: Vec::new(),
                duration_ms: Some(0.1),
                threads: 2,
                screen: ScreenMode::Off,
            };
            let summary = run_matrix(&scenarios, &spec).unwrap();
            let cells = expand_cells(&scenarios, &spec).unwrap();
            assert_eq!(cells.len(), summary.cells.len());
            for (i, (spec_cell, matrix_cell)) in cells.iter().zip(&summary.cells).enumerate() {
                let report = run_cell(&scenarios[spec_cell.scenario], spec_cell).unwrap();
                assert_eq!(
                    report.to_json_value().to_string_compact(),
                    matrix_cell
                        .report()
                        .expect("unscreened matrix simulates every cell")
                        .to_json_value()
                        .to_string_compact()
                );
                let repeat = cells[..i].contains(spec_cell);
                assert_eq!(summary.profile[i].total_ms() == 0.0, repeat, "cell {i}");
            }
            // Rebuilding the summary from the individual reports reproduces
            // the batch aggregate byte for byte (profiles stay out of the
            // JSON, so placeholder timings are fine).
            let outcomes: Vec<CellOutcome> = cells
                .iter()
                .map(|c| {
                    let report = run_cell(&scenarios[c.scenario], c).unwrap();
                    CellOutcome::Simulated(Box::new(report))
                })
                .collect();
            let profile: Vec<CellProfile> = summary.profile.clone();
            let rebuilt = summarize_cells(&scenarios, &cells, outcomes, profile);
            assert_eq!(rebuilt.to_json(), summary.to_json());
        }
    }

    #[test]
    fn a_camcorder_cell_lowers_to_the_papers_system() {
        let cell = |s: &Scenario, policy, mhz| CellSpec {
            scenario: 0,
            policy,
            freq: MegaHertz::new(mhz),
            channels: s.channels,
            duration_ms: s.duration_ms,
        };
        // A scenario's own system is its own cell's, for every entry.
        for s in catalog::builtin() {
            let own = cell(&s, s.policy, s.freq.as_u32()).system(&s).unwrap();
            assert!(s.config().unwrap() == own, "{}", s.name);
        }
    }

    #[test]
    fn fingerprints_key_on_every_axis() {
        let s = catalog::by_name("camcorder-b").unwrap();
        let cell = CellSpec {
            scenario: 0,
            policy: PolicyKind::Fcfs,
            freq: MegaHertz::new(1600),
            channels: 2,
            duration_ms: 0.5,
        };
        let base = cell_fingerprint(&s, &cell, "0.1.0");
        // Stable for identical inputs.
        assert_eq!(base, cell_fingerprint(&s, &cell, "0.1.0"));
        // Every axis moves the key.
        let mut other = cell.clone();
        other.policy = PolicyKind::Priority;
        assert_ne!(base, cell_fingerprint(&s, &other, "0.1.0"));
        let mut other = cell.clone();
        other.freq = MegaHertz::new(1333);
        assert_ne!(base, cell_fingerprint(&s, &other, "0.1.0"));
        let mut other = cell.clone();
        other.channels = 4;
        assert_ne!(base, cell_fingerprint(&s, &other, "0.1.0"));
        let mut other = cell.clone();
        other.duration_ms = 0.6;
        assert_ne!(base, cell_fingerprint(&s, &other, "0.1.0"));
        // A different scenario or engine version is a different key.
        let adas = catalog::by_name("adas").unwrap();
        assert_ne!(base, cell_fingerprint(&adas, &cell, "0.1.0"));
        assert_ne!(base, cell_fingerprint(&s, &cell, "0.2.0"));
    }

    /// The fingerprint as first shipped: one FNV-1a pass over the fields,
    /// each followed by its length. Caches are keyed by these values, so
    /// the scenario-prefix/cell-suffix split must reproduce them exactly.
    fn one_pass_fingerprint(scenario: &Scenario, cell: &CellSpec, engine_version: &str) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for field in [
            scenario.to_json().as_bytes(),
            cell.policy.name().as_bytes(),
            &cell.freq.as_u32().to_le_bytes(),
            &(cell.channels as u64).to_le_bytes(),
            &cell.duration_ms.to_bits().to_le_bytes(),
            engine_version.as_bytes(),
        ] {
            for &b in field {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            hash = (hash ^ field.len() as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    #[test]
    fn a_scenario_prefix_plus_a_cell_suffix_is_the_cell_fingerprint() {
        for scenario in catalog::builtin() {
            let prefix = ScenarioFingerprint::new(&scenario);
            for policy in PolicyKind::ALL {
                for freq in [800, 1866] {
                    for channels in [1, 4] {
                        for duration_ms in [0.05, 2.0] {
                            let cell = CellSpec {
                                scenario: 0,
                                policy,
                                freq: MegaHertz::new(freq),
                                channels,
                                duration_ms,
                            };
                            let want = one_pass_fingerprint(&scenario, &cell, "0.1.0");
                            assert_eq!(cell_fingerprint(&scenario, &cell, "0.1.0"), want);
                            assert_eq!(prefix.cell(&cell, "0.1.0"), want);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fingerprint_values_are_pinned() {
        // Literal keys, so a change to the hash, the field order or a
        // catalog scenario's canonical document cannot move cache keys
        // without this test saying so.
        let key = |name: &str, policy, freq, channels, duration_ms| {
            let cell = CellSpec {
                scenario: 0,
                policy,
                freq: MegaHertz::new(freq),
                channels,
                duration_ms,
            };
            cell_fingerprint(&catalog::by_name(name).unwrap(), &cell, "0.1.0")
        };
        assert_eq!(
            key("camcorder-a", PolicyKind::Priority, 1866, 2, 0.05),
            0xa845_b532_0954_39ea
        );
        assert_eq!(
            key("adas", PolicyKind::Fcfs, 1600, 4, 2.0),
            0x75c7_f4cd_c89b_e65c
        );
        assert_eq!(
            key("ml-inference-8ch", PolicyKind::FrFcfs, 800, 8, 0.1),
            0x3629_2722_cc34_73ed
        );
    }

    #[test]
    fn expand_cells_orders_scenario_major() {
        let scenarios = vec![
            catalog::by_name("camcorder-b").unwrap(),
            catalog::by_name("ar-headset").unwrap(),
        ];
        let spec = MatrixSpec {
            policies: vec![PolicyKind::Fcfs, PolicyKind::Priority],
            freqs_mhz: vec![1333, 1700],
            channels: Vec::new(),
            duration_ms: Some(0.1),
            threads: 1,
            screen: ScreenMode::Off,
        };
        let cells = expand_cells(&scenarios, &spec).unwrap();
        assert_eq!(cells.len(), 2 * 2 * 2);
        // Scenario-major, then policy, then frequency.
        assert_eq!(cells[0].scenario, 0);
        assert_eq!(cells[0].policy, PolicyKind::Fcfs);
        assert_eq!(cells[0].freq.as_u32(), 1333);
        assert_eq!(cells[1].freq.as_u32(), 1700);
        assert_eq!(cells[2].policy, PolicyKind::Priority);
        assert_eq!(cells[4].scenario, 1);
        // Every cell inherits the overridden duration.
        assert!(cells.iter().all(|c| c.duration_ms == 0.1));
    }

    #[test]
    fn screen_prune_keeps_unpruned_cells_byte_identical() {
        use sara_sim::ScreenVerdict;
        // saturation (~27 GB/s rated) at 400 MHz is provably infeasible
        // (~5.9 GB/s bound); at its native point it needs simulation —
        // one matrix exercising both paths.
        let scenarios = vec![catalog::by_name("saturation").unwrap()];
        let base = MatrixSpec {
            policies: vec![PolicyKind::Fcfs, PolicyKind::Priority],
            freqs_mhz: vec![400, 1866],
            channels: vec![2],
            duration_ms: Some(0.1),
            threads: 2,
            screen: ScreenMode::Off,
        };
        let off = run_matrix(&scenarios, &base).unwrap();
        let pruned = run_matrix(
            &scenarios,
            &MatrixSpec {
                screen: ScreenMode::Prune,
                ..base.clone()
            },
        )
        .unwrap();

        assert_eq!(off.cells.len(), pruned.cells.len());
        let labels: Vec<Option<&str>> = pruned.cells.iter().map(MatrixCell::screened).collect();
        assert!(
            labels.iter().any(Option::is_some) && labels.iter().any(Option::is_none),
            "matrix must mix pruned and simulated cells: {labels:?}"
        );
        for (o, p) in off.cells.iter().zip(&pruned.cells) {
            match p.screened() {
                // Unpruned cells: byte-identical to the unscreened run.
                None => assert_eq!(
                    o.to_json_value().to_string_compact(),
                    p.to_json_value().to_string_compact()
                ),
                // Pruned cells: the verdict label, the analytic payload,
                // and agreement with the screener re-evaluated directly.
                Some(label) => {
                    assert_eq!(label, "infeasible");
                    assert!(matches!(&p.outcome, CellOutcome::Screened(a)
                        if a.verdict == ScreenVerdict::ProvablyInfeasible));
                    assert!(!p.rank_key().met);
                    let json = p.to_json_value().to_string_compact();
                    assert!(json.contains("\"screened\":\"infeasible\""), "{json}");
                    assert!(json.contains("\"bound_gbs\""), "{json}");
                    assert!(!json.contains("\"report\""), "{json}");
                }
            }
        }
        // The screened column rides before `rank`, so rank stays last.
        let csv = pruned.to_csv();
        assert!(csv.lines().next().unwrap().ends_with(",screened,rank"));
        assert!(csv.contains(",infeasible,"), "{csv}");
    }

    #[test]
    fn the_streamed_document_is_the_assembled_value_byte_for_byte() {
        // Simulated and screened cells (saturation is provably infeasible
        // at 400 MHz), two rankings, and the empty summary whose arrays
        // stay inline.
        let scenarios = vec![
            catalog::by_name("saturation").unwrap(),
            catalog::by_name("camcorder-b").unwrap(),
        ];
        let spec = MatrixSpec {
            policies: vec![PolicyKind::Fcfs, PolicyKind::Priority],
            freqs_mhz: vec![400, 1866],
            channels: vec![2],
            duration_ms: Some(0.05),
            threads: 2,
            screen: ScreenMode::Prune,
        };
        let mixed = run_matrix(&scenarios, &spec).unwrap();
        assert!(mixed.cells.iter().any(|c| c.screened().is_some()));
        assert!(mixed.cells.iter().any(|c| c.report().is_some()));
        let empty = summarize_cells(&[], &[], vec![], vec![]);
        for summary in [&mixed, &empty] {
            let cells = summary.cells.iter().map(MatrixCell::to_json_value);
            let rankings = summary.rankings.iter().map(ScenarioRanking::to_json_value);
            let assembled = Value::Object(vec![
                ("cells".to_string(), Value::Array(cells.collect())),
                ("rankings".to_string(), Value::Array(rankings.collect())),
            ]);
            for pretty in [false, true] {
                let mut bytes = Vec::new();
                summary.write_json(&mut bytes, pretty).unwrap();
                let text = String::from_utf8(bytes).unwrap();
                let body = text.strip_suffix('\n').expect("a trailing newline");
                let parsed = json::parse(body).unwrap();
                let reemitted = if pretty {
                    parsed.to_string_pretty()
                } else {
                    parsed.to_string_compact()
                };
                assert_eq!(body, reemitted, "pretty={pretty}");
                // An integral float emits as an integer and reads back as
                // one, so the assembled value is compared as read back too.
                let assembled_read = json::parse(&assembled.to_string_compact()).unwrap();
                assert_eq!(parsed, assembled_read, "pretty={pretty}");
            }
            assert_eq!(summary.to_json(), assembled.to_string_compact());
        }
        assert_eq!(empty.to_json(), r#"{"cells":[],"rankings":[]}"#);
    }

    #[test]
    fn screen_prune_is_deterministic_across_thread_counts() {
        let scenarios = vec![catalog::by_name("saturation").unwrap()];
        let spec = |threads| MatrixSpec {
            policies: vec![PolicyKind::Fcfs, PolicyKind::Priority],
            freqs_mhz: vec![400, 1866],
            channels: vec![2],
            duration_ms: Some(0.1),
            threads,
            screen: ScreenMode::Prune,
        };
        let one = run_matrix(&scenarios, &spec(1)).unwrap().to_json();
        let eight = run_matrix(&scenarios, &spec(8)).unwrap().to_json();
        assert_eq!(one, eight);
    }

    #[test]
    fn screen_verify_agrees_with_the_engine() {
        // An infeasible point simulated with verify on: the engine must
        // confirm the verdict (targets missed, bound respected) or the
        // run errors — this is the in-tree slice of the CI-wide check.
        let scenarios = vec![catalog::by_name("saturation").unwrap()];
        let spec = MatrixSpec {
            policies: vec![PolicyKind::Fcfs],
            freqs_mhz: vec![400],
            channels: vec![2],
            duration_ms: Some(2.0),
            threads: 2,
            screen: ScreenMode::Verify,
        };
        let summary = run_matrix(&scenarios, &spec).unwrap();
        // Verify simulates everything: no synthetic cells in the output.
        assert!(summary.cells.iter().all(|c| c.screened().is_none()));
        let report = summary.cells[0].report().unwrap();
        assert!(report.bandwidth_gbs <= report.analytic.bound_gbs);
        assert!(!report.all_targets_met());
    }

    #[test]
    fn screen_cell_matches_simulated_analytic_section() {
        // One model, one lowering: the screener's evaluation is the
        // same object the simulated report embeds.
        let s = catalog::by_name("camcorder-b").unwrap();
        let cell = CellSpec {
            scenario: 0,
            policy: PolicyKind::Priority,
            freq: s.freq,
            channels: s.channels,
            duration_ms: 0.1,
        };
        let screened = screen_cell(&s, &cell).unwrap();
        let simulated = run_cell(&s, &cell).unwrap();
        assert_eq!(screened, simulated.analytic);
    }

    #[test]
    fn frequency_override_expands_cells() {
        let s = vec![catalog::by_name("camcorder-b").unwrap()];
        let spec = MatrixSpec {
            policies: vec![PolicyKind::Priority],
            freqs_mhz: vec![1333, 1700],
            channels: Vec::new(),
            duration_ms: Some(0.1),
            threads: 2,
            screen: ScreenMode::Off,
        };
        let summary = run_matrix(&s, &spec).unwrap();
        assert_eq!(summary.cells.len(), 2);
        assert_eq!(summary.cells[0].freq.as_u32(), 1333);
        assert_eq!(summary.cells[1].freq.as_u32(), 1700);
    }
}
