//! The per-report projections behind the paper's sweeps. The cells
//! themselves (policy comparisons, frequency sweeps, the DVFS search, the
//! reproduction) run through `sara-scenarios`' `run_systems`.
//!
//! Each projection owns its CSV header and CSV row (and [`DvfsPoint`]
//! its JSON object), with [`SimReport::to_json`]'s conventions: stable
//! column/key order, shortest-round-trip floats, `null` (JSON) for
//! non-finite values. CSV is the plot input, JSON the machine-comparable
//! form batch tooling diffs.

use ::json::Value;
use sara_types::{CoreKind, MegaHertz};

use crate::report::SimReport;
use crate::sampling::MAX_LEVELS;

/// One point of the Fig. 7 frequency sweep: one core's priority
/// adaptation as observed in one run.
#[derive(Debug, Clone)]
pub struct FreqPoint {
    /// DRAM frequency of this run.
    pub freq: MegaHertz,
    /// Priority-level residency of the observed core (fractions per level).
    pub residency: [f64; MAX_LEVELS],
    /// Worst post-warmup NPI of the observed core.
    pub min_npi: f64,
    /// Average delivered bandwidth of the observed core in bytes/second.
    pub core_bytes_per_s: f64,
    /// System DRAM bandwidth in GB/s.
    pub system_bandwidth_gbs: f64,
}

impl FreqPoint {
    /// Projects `observed`'s adaptation out of one report; `None` if the
    /// core is not in the workload.
    pub fn from_report(report: &SimReport, observed: CoreKind) -> Option<Self> {
        let core = report.core(observed)?;
        Some(FreqPoint {
            freq: report.freq,
            residency: core.priority_residency,
            min_npi: core.min_npi,
            core_bytes_per_s: core.bytes as f64 / (report.elapsed_ms / 1e3),
            system_bandwidth_gbs: report.bandwidth_gbs,
        })
    }

    /// The CSV header of a frequency sweep: a `residency_p<level>` column
    /// per priority level (no newline).
    pub fn csv_header() -> String {
        let mut out = String::from("freq_mhz,min_npi,core_bytes_per_s,system_bandwidth_gbs");
        for level in 0..MAX_LEVELS {
            out.push_str(&format!(",residency_p{level}"));
        }
        out
    }

    /// This point as one CSV row in [`FreqPoint::csv_header`] order (no
    /// newline).
    pub fn csv_row(&self) -> String {
        let mut out = format!(
            "{},{},{},{}",
            self.freq.as_u32(),
            self.min_npi,
            self.core_bytes_per_s,
            self.system_bandwidth_gbs
        );
        for r in self.residency {
            out.push_str(&format!(",{r}"));
        }
        out
    }
}

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
            &sara_dram::EnergyParams::lpddr4(),
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

    fn freq_fixture() -> Vec<FreqPoint> {
        let mut residency = [0.0; MAX_LEVELS];
        residency[0] = 0.75;
        residency[7] = 0.25;
        vec![
            FreqPoint {
                freq: MegaHertz::new(1333),
                residency,
                min_npi: 0.875,
                core_bytes_per_s: 1.5e9,
                system_bandwidth_gbs: 19.25,
            },
            FreqPoint {
                freq: MegaHertz::new(1866),
                residency: [0.0; MAX_LEVELS],
                min_npi: 1.25,
                core_bytes_per_s: 2e9,
                system_bandwidth_gbs: 27.5,
            },
        ]
    }

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
    fn freq_csv_has_header_and_one_row_per_point() {
        let header = FreqPoint::csv_header();
        let rows: Vec<String> = freq_fixture().iter().map(FreqPoint::csv_row).collect();
        assert!(header.starts_with("freq_mhz,min_npi,"));
        assert!(header.ends_with(&format!("residency_p{}", MAX_LEVELS - 1)));
        assert!(rows[0].starts_with("1333,0.875,1500000000,19.25,0.75,"));
        assert!(rows[1].starts_with("1866,1.25,"));
        // Every row has the same column count as the header.
        let cols = header.split(',').count();
        assert!(rows.iter().all(|l| l.split(',').count() == cols));
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
