//! CSV/JSON serialization for governed-run epoch traces, following the
//! conventions of `sara_sim::experiment`'s sweep points: stable
//! column/key order, shortest round-trip floats, byte-identical output
//! for identical runs. Scenario names are quoted by
//! [`sara_scenarios::csv_field`].

use ::json::Value;
use sara_scenarios::csv_field;

use crate::run::{EpochRecord, GovernedOutcome};

/// An epoch member: its key and how it reads off the record.
type Member = (&'static str, fn(&EpochRecord) -> Value);

/// One epoch's members in emission order: the one list the JSON object,
/// the CSV header and every CSV row are rendered from. The
/// `*_per_channel` members hold one value per DRAM channel in channel
/// order; `action_lane` names the channel a per-channel action applied
/// to (`null` for the single knob and for holds); `bound_gbs` is the
/// epoch's analytic bandwidth bound in GB/s.
const EPOCH_MEMBERS: [Member; 13] = [
    ("epoch", |e| e.epoch.into()),
    ("end_ms", |e| e.end_ms.into()),
    ("freq_mhz", |e| e.freq_mhz().into()),
    ("freq_per_channel", |e| e.freq_per_channel.clone().into()),
    ("policy", |e| e.policy.name().into()),
    ("worst_npi", |e| e.worst_npi.into()),
    ("failing_dmas", |e| e.failing_dmas.into()),
    ("mc_occupancy", |e| e.mc_occupancy.into()),
    ("queued_per_channel", |e| {
        e.queued_per_channel.clone().into()
    }),
    ("bytes", |e| e.bytes.into()),
    ("action", |e| e.action.label().into()),
    ("action_lane", |e| {
        e.action_lane.map_or(Value::Null, |ch| u64::from(ch).into())
    }),
    ("bound_gbs", |e| e.bound_gbs.into()),
];

/// The CSV header shared by every epoch-trace row: `scenario`, then the
/// epoch members, with `bound_gbs` spelled `bound`.
fn csv_header() -> String {
    let columns = EPOCH_MEMBERS.map(|(key, _)| if key == "bound_gbs" { "bound" } else { key });
    format!("scenario,{}\n", columns.join(","))
}

/// One member as a CSV cell: a per-channel array packs into one
/// semicolon-joined cell (so the header stays fixed whatever the device
/// geometry), `null` reads `-`, floats print shortest round-trip.
fn csv_cell(v: &Value) -> String {
    match v {
        Value::Null => "-".to_string(),
        Value::UInt(u) => u.to_string(),
        Value::Float(f) => format!("{f}"),
        Value::Str(s) => s.clone(),
        Value::Array(items) => items.iter().map(csv_cell).collect::<Vec<_>>().join(";"),
        other => unreachable!("no epoch member is {other:?}"),
    }
}

/// Serializes governed runs as CSV: one row per (scenario, epoch).
/// Borrow-based so callers holding `(outcome, baseline)` pairs can feed
/// it without cloning traces.
pub fn trace_csv<'a>(outcomes: impl IntoIterator<Item = &'a GovernedOutcome>) -> String {
    let mut out = csv_header();
    for o in outcomes {
        let scenario = csv_field(&o.scenario);
        for e in &o.trace {
            let cells = EPOCH_MEMBERS.map(|(_, value)| csv_cell(&value(e)));
            out.push_str(&format!("{scenario},{}\n", cells.join(",")));
        }
    }
    out
}

fn epoch_value(e: &EpochRecord) -> Value {
    Value::Object(
        EPOCH_MEMBERS
            .iter()
            .map(|(key, value)| (key.to_string(), value(e)))
            .collect(),
    )
}

/// Aggregate QoS accounting of a run as a JSON node (shared between the
/// governed result and its static baseline).
fn outcome_value(o: &GovernedOutcome) -> Value {
    Value::Object(vec![
        ("final_mhz".to_string(), o.final_freq().as_u32().into()),
        (
            "final_mhz_per_channel".to_string(),
            o.final_freq_per_channel().to_vec().into(),
        ),
        ("final_policy".to_string(), o.final_policy().name().into()),
        ("freq_changes".to_string(), o.freq_changes().into()),
        ("policy_changes".to_string(), o.policy_changes().into()),
        ("failing_epochs".to_string(), o.failing_epochs().into()),
        ("qos_deficit".to_string(), o.qos_deficit().into()),
        (
            "failed_cores".to_string(),
            Value::Array(
                o.report
                    .failed_cores()
                    .iter()
                    .map(|k| Value::from(k.name()))
                    .collect(),
            ),
        ),
        ("bandwidth_gbs".to_string(), o.report.bandwidth_gbs.into()),
    ])
}

/// One governed run (plus its optional static baseline) as a JSON node.
pub fn governed_value(o: &GovernedOutcome, baseline: Option<&GovernedOutcome>) -> Value {
    let mut members = vec![
        ("scenario".to_string(), o.scenario.as_str().into()),
        ("beat_mhz".to_string(), o.beat_freq().as_u32().into()),
        ("epoch_us".to_string(), o.spec.epoch_us.into()),
        ("ladder_mhz".to_string(), o.spec.ladder_mhz.clone().into()),
        ("start_mhz".to_string(), o.spec.start_mhz().into()),
        ("up_threshold".to_string(), o.spec.up_threshold.into()),
        ("down_threshold".to_string(), o.spec.down_threshold.into()),
        ("patience".to_string(), o.spec.patience.into()),
        (
            "escalate_policy".to_string(),
            match o.spec.escalate_policy {
                Some(p) => p.name().into(),
                None => Value::Null,
            },
        ),
        ("per_channel".to_string(), o.spec.per_channel.into()),
        (
            "trace".to_string(),
            Value::Array(o.trace.iter().map(epoch_value).collect()),
        ),
        ("outcome".to_string(), outcome_value(o)),
    ];
    if let Some(b) = baseline {
        members.push((
            "baseline".to_string(),
            Value::Object(vec![
                ("pinned_mhz".to_string(), b.final_freq().as_u32().into()),
                ("outcome".to_string(), outcome_value(b)),
            ]),
        ));
    }
    Value::Object(members)
}

/// Serializes a batch of governed runs (with optional per-run baselines)
/// as one JSON array document.
pub fn trace_json(runs: &[(GovernedOutcome, Option<GovernedOutcome>)]) -> String {
    Value::Array(
        runs.iter()
            .map(|(o, b)| governed_value(o, b.as_ref()))
            .collect(),
    )
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_governed;
    use sara_scenarios::{catalog, GovernorSpec};

    fn outcome() -> GovernedOutcome {
        let s = catalog::by_name("adas").unwrap();
        let spec = GovernorSpec {
            epoch_us: 200.0,
            ..GovernorSpec::new(vec![1120, 1600])
        };
        run_governed(&s, &spec, 0.6).unwrap()
    }

    #[test]
    fn csv_has_one_row_per_epoch_and_constant_width() {
        let o = outcome();
        let csv = trace_csv(std::slice::from_ref(&o));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), o.trace.len() + 1);
        assert_eq!(lines[0], csv_header().trim_end());
        let cols = lines[0].split(',').count();
        assert!(lines.iter().all(|l| l.split(',').count() == cols));
        assert!(lines[1].starts_with("adas,0,"));
    }

    #[test]
    fn epoch_bounds_are_positive_and_track_frequency() {
        let o = outcome();
        for e in &o.trace {
            assert!(e.bound_gbs > 0.0 && e.bound_gbs.is_finite());
        }
        // A lower operating point can never have a higher bound.
        for pair in o.trace.windows(2) {
            if pair[1].freq_mhz() < pair[0].freq_mhz()
                && pair[1]
                    .freq_per_channel
                    .iter()
                    .zip(&pair[0].freq_per_channel)
                    .all(|(n, p)| n <= p)
            {
                assert!(pair[1].bound_gbs <= pair[0].bound_gbs);
            }
        }
    }

    #[test]
    fn json_parses_back_with_trace_and_baseline() {
        let o = outcome();
        let text = trace_json(&[(o.clone(), Some(o.clone()))]);
        let doc = ::json::parse(&text).expect("trace JSON parses");
        let runs = doc.as_array().unwrap();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(run.get("scenario").and_then(Value::as_str), Some("adas"));
        let trace = run.get("trace").and_then(Value::as_array).unwrap();
        assert_eq!(trace.len(), o.trace.len());
        assert_eq!(
            trace[0].get("freq_mhz").and_then(Value::as_u64),
            Some(u64::from(o.trace[0].freq_mhz()))
        );
        assert!(run.get("baseline").is_some());
        assert!(run
            .get("outcome")
            .and_then(|v| v.get("qos_deficit"))
            .is_some());
        // Identical runs serialize to identical bytes.
        assert_eq!(text, trace_json(&[(o.clone(), Some(o))]));
    }
}
