//! Live system-health readout: the snapshot API the online governor polls
//! at every control epoch.
//!
//! Unlike [`SimReport`](crate::SimReport) — a full post-mortem built from
//! the complete sample history — a [`SystemHealth`] is a cheap instant
//! view: per-DMA live NPI (the meter read without restamping, via
//! [`sara_core::SelfAwareDma::meter`]) and the worst NPI *sampled* since
//! the last epoch mark, queue depths in the memory controller, each
//! channel's clock and the analytic bandwidth bound they price, the
//! scheduling policy, and the cumulative DRAM byte counter. Everything a
//! closed-loop controller needs, nothing it has to pay a report build for.

use sara_memctrl::PolicyKind;
use sara_types::MegaHertz;

/// Health of one DMA engine at a snapshot instant (its identity is its
/// index in [`SystemHealth::dmas`], the workload order).
#[derive(Debug, Clone, PartialEq)]
pub struct DmaHealth {
    /// Live NPI at the snapshot instant.
    pub npi: f64,
    /// Worst NPI recorded by the periodic sampler since the last
    /// [`crate::Simulation::mark_epoch`] (`f64::INFINITY` when no sample
    /// fell inside the window).
    pub epoch_floor: f64,
}

impl DmaHealth {
    /// The pessimistic health reading: the worse of the live NPI and the
    /// sampled floor.
    pub fn worst(&self) -> f64 {
        self.npi.min(self.epoch_floor)
    }
}

/// An instant health snapshot of the whole simulated system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemHealth {
    /// Per-DMA health, in workload order.
    pub dmas: Vec<DmaHealth>,
    /// Transactions queued in the memory controller.
    pub mc_occupancy: usize,
    /// Queue depth per DRAM channel.
    pub queued_per_channel: Vec<usize>,
    /// Effective DRAM frequency of each channel's clock domain, in
    /// channel order (all equal until per-channel DVFS decouples them).
    pub freq_per_channel: Vec<MegaHertz>,
    /// Closed-form aggregate bandwidth bound at these clocks: the sum over
    /// channels of the analytic per-channel ceiling
    /// ([`sara_analytic::channel_bound_bytes_per_s`]) at each channel's
    /// own current timing set, GB/s.
    pub bound_gbs: f64,
    /// Cumulative DRAM bytes transferred (reads + writes).
    pub dram_bytes: u64,
    /// Scheduling policy currently in force.
    pub policy: PolicyKind,
}

impl SystemHealth {
    /// The worst pessimistic NPI across all DMAs — the governor's QoS
    /// error signal. `f64::INFINITY` only for an empty workload (which
    /// [`crate::Simulation::new`] rejects).
    pub fn worst_npi(&self) -> f64 {
        self.dmas
            .iter()
            .map(DmaHealth::worst)
            .fold(f64::INFINITY, f64::min)
    }

    /// How many DMAs currently read below `threshold`.
    pub fn failing(&self, threshold: f64) -> usize {
        self.dmas.iter().filter(|d| d.worst() < threshold).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dma(npi: f64, epoch_floor: f64) -> DmaHealth {
        DmaHealth { npi, epoch_floor }
    }

    #[test]
    fn worst_takes_the_sampled_floor_into_account() {
        assert_eq!(dma(1.2, 0.8).worst(), 0.8);
        assert_eq!(dma(0.5, f64::INFINITY).worst(), 0.5);
    }

    #[test]
    fn system_aggregates_minimum_and_failing_count() {
        let h = SystemHealth {
            dmas: vec![dma(1.2, 1.1), dma(0.9, 0.6), dma(2.0, f64::INFINITY)],
            mc_occupancy: 0,
            queued_per_channel: vec![0, 0],
            freq_per_channel: vec![MegaHertz::new(1866); 2],
            bound_gbs: 0.0,
            dram_bytes: 0,
            policy: PolicyKind::Priority,
        };
        assert_eq!(h.worst_npi(), 0.6);
        assert_eq!(h.failing(0.97), 1);
        assert_eq!(h.failing(1.15), 2);
    }
}
