//! What one workload run hands back: metric readings, the operation and
//! verification tally, the simulated-output digest and exact counts.

use json::Value;

use crate::spec::{self, MetricDef};
use crate::stats;

/// The arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Drives the `serve_mix` schedule and its generated scenarios only.
    pub seed: u64,
    /// How long the measured part runs.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// One metric's value with how many samples stand behind it.
#[derive(Debug, Clone)]
pub struct Reading {
    /// The metric.
    pub def: &'static MetricDef,
    /// The reported value.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
    /// For timings: the highest percentile with at least ten samples
    /// beyond it, as `(percentile, value)`.
    pub tail: Option<(f64, f64)>,
}

impl Reading {
    /// A reading of the metric `name` (which must be in the spec tables).
    pub fn new(name: &str, value: f64, samples: usize) -> Reading {
        Reading {
            def: spec::metric(name).unwrap_or_else(|| panic!("metric {name} is not in the spec")),
            value,
            samples,
            tail: None,
        }
    }

    /// The quiet-host value of the timing `samples` ([`stats::quiet`]),
    /// with their resolvable tail.
    pub fn quiet(name: &str, samples: &[f64]) -> Reading {
        Reading {
            tail: stats::tail(samples),
            ..Reading::new(name, stats::quiet(samples), samples.len())
        }
    }

    /// The median of `samples`, for the metrics named `p50`, with their
    /// resolvable tail.
    pub fn median(name: &str, samples: &[f64]) -> Reading {
        Reading {
            tail: stats::tail(samples),
            ..Reading::new(name, stats::median(samples), samples.len())
        }
    }
}

/// Operations attempted and failed. Every simulated cell or served job is
/// one operation, and so is every output verification.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and verifications attempted.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
    /// One line per failure (capped), for the operator.
    pub messages: Vec<String>,
}

impl Checks {
    /// Tallies one operation or verification; `what` names it on failure.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every end-to-end metric (untraced run) or every per-layer metric
    /// (traced run).
    pub readings: Vec<Reading>,
    /// The operation and verification tally.
    pub checks: Checks,
    /// FNV-1a over the emitted report bytes: equal digests mean every
    /// simulated statistic is identical.
    pub sim_digest: u64,
    /// Fixed rep/job counts and exact simulated counts of this run.
    pub counts: Vec<(&'static str, u64)>,
    /// Quiet-host time of one job in this run, traced or not; the two
    /// runs' difference is the tracing overhead.
    pub job_ms: f64,
}

impl Outcome {
    /// The detail document written next to the traces: everything the
    /// final stdout line carries plus sample counts, tails, the digest
    /// and the exact counts.
    pub fn to_json(&self, workload: &str, args: &RunArgs) -> Value {
        let metrics = self
            .readings
            .iter()
            .map(|r| {
                let mut m: Vec<(String, Value)> = vec![
                    ("value".to_string(), r.value.into()),
                    ("unit".to_string(), r.def.unit.into()),
                    ("samples".to_string(), (r.samples as u64).into()),
                ];
                if let Some((p, v)) = r.tail {
                    m.push(("tail_percentile".to_string(), p.into()));
                    m.push(("tail_value".to_string(), v.into()));
                }
                (r.def.name.to_string(), Value::Object(m))
            })
            .collect();
        Value::Object(vec![
            ("workload".to_string(), workload.into()),
            ("seed".to_string(), args.seed.into()),
            ("seconds".to_string(), args.seconds.into()),
            ("trace".to_string(), args.trace.into()),
            ("correct".to_string(), (self.checks.failed == 0).into()),
            ("attempted".to_string(), self.checks.attempted.into()),
            ("failed".to_string(), self.checks.failed.into()),
            (
                "sim_digest".to_string(),
                format!("{:016x}", self.sim_digest).into(),
            ),
            ("job_ms".to_string(), self.job_ms.into()),
            (
                "counts".to_string(),
                Value::Object(
                    self.counts
                        .iter()
                        .map(|&(k, v)| (k.to_string(), v.into()))
                        .collect(),
                ),
            ),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics` (each metric exactly `value` and `unit`).
    pub fn result_line(&self) -> String {
        let metrics = self
            .readings
            .iter()
            .map(|r| {
                (
                    r.def.name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), r.value.into()),
                        ("unit".to_string(), r.def.unit.into()),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), (self.checks.failed == 0).into()),
            ("attempted".to_string(), self.checks.attempted.into()),
            ("failed".to_string(), self.checks.failed.into()),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
        .to_string_compact()
    }
}
