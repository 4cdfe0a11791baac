//! Chrome trace-event export for governed runs (`sara govern
//! --chrome-trace`).
//!
//! Renders each [`GovernedOutcome`] as one process in a Chrome
//! trace-event / Perfetto document: the governor gets the first track
//! (one complete span per control epoch, actions as instant markers),
//! each DRAM channel lane gets its own track (per-epoch spans named by
//! the lane's operating frequency), and the per-epoch QoS/occupancy
//! readings become counter series.
//!
//! Timestamps are **simulated** microseconds — epoch boundaries from the
//! deterministic trace, not wall-clock — so two identical runs export
//! byte-identical documents (CI `cmp`s them).

use ::json::Value;
use sara_telemetry::ChromeTrace;

use crate::controller::GovernorAction;
use crate::run::GovernedOutcome;

/// Track id of the governor inside each scenario's process; lane `ch`
/// renders on track `LANE_TRACK_BASE + ch`.
const GOVERNOR_TRACK: u32 = 0;
const LANE_TRACK_BASE: u32 = 1;

fn us(ms: f64) -> u64 {
    (ms * 1e3).round().max(0.0) as u64
}

/// Builds the trace-event document for a batch of governed runs, one
/// process per run in batch order.
pub fn chrome_trace_value<'a>(outcomes: impl IntoIterator<Item = &'a GovernedOutcome>) -> Value {
    let mut trace = ChromeTrace::new();
    for (pid, o) in outcomes.into_iter().enumerate() {
        let pid = pid as u32;
        let lanes = o.final_freq_per_channel().len();
        trace.process_name(pid, &o.scenario);
        trace.thread_name(pid, GOVERNOR_TRACK, "governor");
        let lane_names: Vec<String> = (0..lanes).map(|ch| format!("ch{ch}")).collect();
        for (ch, name) in lane_names.iter().enumerate() {
            trace.thread_name(pid, LANE_TRACK_BASE + ch as u32, name);
        }
        let mut start = 0u64;
        for e in &o.trace {
            let end = us(e.end_ms);
            let dur = end.saturating_sub(start);
            trace.complete(
                pid,
                GOVERNOR_TRACK,
                &format!("epoch {}", e.epoch),
                "epoch",
                start,
                dur,
                &[
                    ("policy", e.policy.name().into()),
                    ("worst_npi", e.worst_npi.into()),
                    ("failing_dmas", e.failing_dmas.into()),
                    ("mc_occupancy", e.mc_occupancy.into()),
                ],
            );
            if e.action != GovernorAction::Hold {
                let mut args: Vec<(&str, Value)> = vec![("action", e.action.label().into())];
                if let Some(ch) = e.action_lane {
                    args.push(("lane", u32::from(ch).into()));
                }
                trace.instant(
                    pid,
                    GOVERNOR_TRACK,
                    &e.action.label(),
                    "governor",
                    end,
                    &args,
                );
            }
            for (ch, (&freq, &queued)) in e
                .freq_per_channel
                .iter()
                .zip(&e.queued_per_channel)
                .enumerate()
            {
                trace.complete(
                    pid,
                    LANE_TRACK_BASE + ch as u32,
                    &format!("{freq} MHz"),
                    "lane",
                    start,
                    dur,
                    &[("queued", queued.into())],
                );
            }
            let queued_series: Vec<(&str, Value)> = lane_names
                .iter()
                .zip(&e.queued_per_channel)
                .map(|(name, &q)| (name.as_str(), Value::from(q)))
                .collect();
            trace.counter(pid, "queued", end, &queued_series);
            let freq_series: Vec<(&str, Value)> = lane_names
                .iter()
                .zip(&e.freq_per_channel)
                .map(|(name, &f)| (name.as_str(), Value::from(f)))
                .collect();
            trace.counter(pid, "freq_mhz", end, &freq_series);
            trace.counter(pid, "worst_npi", end, &[("npi", e.worst_npi.into())]);
            start = end;
        }
    }
    trace.to_value()
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
    fn trace_has_lane_tracks_epoch_spans_and_counters() {
        let o = outcome();
        let doc = chrome_trace_value(std::slice::from_ref(&o));
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let lanes = o.final_freq_per_channel().len();
        // Metadata: 1 process name + governor + one per lane.
        let meta = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .count();
        assert_eq!(meta, 2 + lanes);
        // One epoch span per trace record on the governor track.
        let epochs = events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("epoch"))
            .count();
        assert_eq!(epochs, o.trace.len());
        // One lane span per (epoch, lane).
        let lane_spans = events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("lane"))
            .count();
        assert_eq!(lane_spans, o.trace.len() * lanes);
        // Non-hold actions appear as instant events.
        let actions = o
            .trace
            .iter()
            .filter(|e| e.action != GovernorAction::Hold)
            .count();
        let instants = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("i"))
            .count();
        assert_eq!(instants, actions);
        // Counter series cover every epoch.
        let counters = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
            .count();
        assert_eq!(counters, o.trace.len() * 3);
    }

    #[test]
    fn export_is_deterministic_and_reparses() {
        let export = || chrome_trace_value(std::slice::from_ref(&outcome())).to_string_compact();
        let (a, b) = (export(), export());
        assert_eq!(a, b);
        let doc = ::json::parse(&a).expect("chrome trace parses");
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Value::as_str),
            Some("ms")
        );
    }
}
