//! Machine-comparable JSON output for simulation reports.
//!
//! The workspace builds with no network and no registry cache, so `serde`
//! is not available; serialization rides on the in-tree `json` document
//! model (`crates/compat/json`), the same layer scenario file I/O uses.
//! The emitted format is deliberately boring: stable key order, `null` for
//! non-finite floats, no whitespace dependence on input — byte-identical
//! output for identical reports, which is what batch harnesses diff across
//! PRs.

use std::io::Write;

use ::json::Value;

use crate::report::{CoreReport, SimReport};

fn core_value(c: &CoreReport) -> Value {
    Value::Object(vec![
        ("core".to_string(), c.kind.name().into()),
        ("min_npi".to_string(), c.min_npi.into()),
        ("mean_npi".to_string(), c.mean_npi.into()),
        ("final_npi".to_string(), c.final_npi.into()),
        ("failed".to_string(), c.failed.into()),
        ("completed".to_string(), c.completed.into()),
        ("bytes".to_string(), c.bytes.into()),
        ("mean_latency_cycles".to_string(), c.mean_latency.into()),
        (
            "priority_residency".to_string(),
            c.priority_residency.to_vec().into(),
        ),
    ])
}

impl SimReport {
    /// The report as a JSON document node, for embedding into larger
    /// documents (the batch harness nests one per matrix cell).
    ///
    /// Covers everything batch comparisons need — policy, frequency,
    /// elapsed window, system bandwidth and row-hit rate, DRAM/controller
    /// totals, per-core QoS verdicts, and the `telemetry` snapshot
    /// (latency/queue-delay histograms plus per-class / per-DMA /
    /// per-lane / NoC counters). The per-sample NPI/bandwidth series are
    /// omitted (they are plot inputs, exported via the CSV writers).
    pub fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("policy".to_string(), self.policy.name().into()),
            ("freq_mhz".to_string(), self.freq.as_u32().into()),
            ("elapsed_ms".to_string(), self.elapsed_ms.into()),
            ("elapsed_cycles".to_string(), self.elapsed_cycles.into()),
            ("bandwidth_gbs".to_string(), self.bandwidth_gbs.into()),
            ("row_hit_rate".to_string(), self.row_hit_rate.into()),
            ("all_targets_met".to_string(), self.all_targets_met().into()),
            (
                "dram_bytes".to_string(),
                self.dram.total.total_bytes().into(),
            ),
            ("mc_completed".to_string(), self.mc.total_completed().into()),
            ("noc_forwarded".to_string(), self.noc_forwarded.into()),
            (
                "cores".to_string(),
                Value::Array(self.cores.iter().map(core_value).collect()),
            ),
            (
                "telemetry".to_string(),
                self.telemetry.to_json_value(&self.mc, &self.dram),
            ),
            // The closed-form yardstick, appended last so every earlier
            // byte of the report is identical to pre-analytic consumers.
            ("analytic".to_string(), {
                let mut members = self.analytic.summary_members();
                members.push((
                    "achieved_over_bound".to_string(),
                    self.achieved_over_bound().into(),
                ));
                Value::Object(members)
            }),
        ])
    }

    /// Serializes the report as a single compact JSON object.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_compact()
    }

    /// Writes [`SimReport::to_json`] (plus a trailing newline) to a writer.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn to_json_writer<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        writeln!(w, "{}", self.to_json())
    }
}
