//! The DVFS search's per-report projection, [`DvfsPoint`]. The cells
//! themselves run through `sara-scenarios`' `run_systems`.
//!
//! The projection owns its CSV header, CSV row and JSON object, with
//! [`SimReport::to_json`]'s conventions: stable column/key order,
//! shortest-round-trip floats, `null` (JSON) for non-finite values. CSV is
//! the plot input, JSON the machine-comparable form batch tooling diffs.

use ::json::Value;
use sara_types::MegaHertz;

use crate::report::SimReport;

/// Outcome of one DVFS candidate frequency.
#[derive(Debug, Clone)]
pub struct DvfsPoint {
    /// Candidate DRAM frequency.
    pub freq: MegaHertz,
    /// Whether every core met its target.
    pub all_met: bool,
    /// Estimated DRAM energy over the window, millijoules.
    pub energy_mj: f64,
    /// Estimated energy per transferred bit, picojoules.
    pub pj_per_bit: f64,
    /// Delivered bandwidth, GB/s.
    pub bandwidth_gbs: f64,
}

impl DvfsPoint {
    /// The CSV header of a DVFS search (no newline).
    pub const CSV_HEADER: &'static str = "freq_mhz,all_met,energy_mj,pj_per_bit,bandwidth_gbs";

    /// Projects one candidate's verdict, energy and bandwidth out of its
    /// report.
    pub fn from_report(report: &SimReport) -> Self {
        let energy = sara_dram::estimate_energy(
            &report.dram.total,
            report.freq.as_hz(),
            report.elapsed_cycles,
        );
        DvfsPoint {
            freq: report.freq,
            all_met: report.all_targets_met(),
            energy_mj: energy.total_mj(),
            pj_per_bit: energy.pj_per_bit(report.dram.total.total_bytes()),
            bandwidth_gbs: report.bandwidth_gbs,
        }
    }

    /// This point as one CSV row in [`DvfsPoint::CSV_HEADER`] order (no
    /// newline).
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{}",
            self.freq.as_u32(),
            self.all_met,
            self.energy_mj,
            self.pj_per_bit,
            self.bandwidth_gbs
        )
    }

    /// This point as a JSON object.
    pub fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("freq_mhz".to_string(), self.freq.as_u32().into()),
            ("all_met".to_string(), self.all_met.into()),
            ("energy_mj".to_string(), self.energy_mj.into()),
            ("pj_per_bit".to_string(), self.pj_per_bit.into()),
            ("bandwidth_gbs".to_string(), self.bandwidth_gbs.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dvfs_fixture() -> DvfsPoint {
        DvfsPoint {
            freq: MegaHertz::new(1600),
            all_met: true,
            energy_mj: 12.5,
            pj_per_bit: 3.75,
            bandwidth_gbs: 21.5,
        }
    }

    #[test]
    fn dvfs_csv_has_header_and_one_row_per_point() {
        assert_eq!(
            DvfsPoint::CSV_HEADER,
            "freq_mhz,all_met,energy_mj,pj_per_bit,bandwidth_gbs"
        );
        assert_eq!(dvfs_fixture().csv_row(), "1600,true,12.5,3.75,21.5");
    }

    #[test]
    fn dvfs_json_parses_back_with_the_same_fields() {
        let json = dvfs_fixture().to_json_value().to_string_compact();
        let point = ::json::parse(&json).expect("sweep JSON parses");
        assert_eq!(point.get("all_met").and_then(Value::as_bool), Some(true));
        assert_eq!(point.get("energy_mj").and_then(Value::as_f64), Some(12.5));
    }
}
