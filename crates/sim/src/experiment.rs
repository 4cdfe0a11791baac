//! Single-cell runners and the per-report projections behind the
//! paper's sweeps. Batches of cells (policy comparisons, frequency
//! sweeps, the DVFS search) run through `sara-scenarios`' `run_matrix`.

use sara_memctrl::PolicyKind;
use sara_types::{ConfigError, CoreKind, MegaHertz};
use sara_workloads::TestCase;

use crate::config::SystemConfig;
use crate::engine::Simulation;
use crate::report::SimReport;
use crate::sampling::MAX_LEVELS;

/// Runs the camcorder workload for one policy (Figs 5/6/9 machinery).
///
/// # Errors
///
/// Returns [`ConfigError`] on inconsistent configuration.
pub fn run_camcorder(
    case: TestCase,
    policy: PolicyKind,
    duration_ms: f64,
) -> Result<SimReport, ConfigError> {
    let cfg = SystemConfig::camcorder(case, policy)?;
    Ok(Simulation::new(cfg)?.run_for_ms(duration_ms))
}

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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short smoke run: the full camcorder system simulates end to end
    /// and produces sane numbers. (Figure-length runs are `sara repro`.)
    #[test]
    fn camcorder_smoke() {
        let report = run_camcorder(TestCase::A, PolicyKind::Priority, 0.5).unwrap();
        assert!(report.bandwidth_gbs > 1.0, "bw = {}", report.bandwidth_gbs);
        assert_eq!(report.cores.len(), 14);
        assert!(report.noc_forwarded > 1000);
        assert!(report.mc.total_completed() > 1000);
        // Series exist for every core.
        for c in &report.cores {
            assert!(!report.npi_series[&c.kind].is_empty());
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_camcorder(TestCase::B, PolicyKind::Fcfs, 0.3).unwrap();
        let b = run_camcorder(TestCase::B, PolicyKind::Fcfs, 0.3).unwrap();
        assert_eq!(a.dram.total, b.dram.total);
        assert_eq!(a.mc.total_completed(), b.mc.total_completed());
        for (x, y) in a.cores.iter().zip(&b.cores) {
            assert_eq!(x.min_npi, y.min_npi);
            assert_eq!(x.completed, y.completed);
        }
    }
}
