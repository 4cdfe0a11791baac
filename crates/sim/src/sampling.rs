//! Periodic samplers: NPI time series, priority-level residency, delivered
//! bandwidth — the raw material of the paper's Figs 5, 6, 7 and 9.

use sara_core::Npi;
use sara_types::Priority;

/// Maximum representable priority levels (4-bit ablation ceiling).
pub const MAX_LEVELS: usize = 16;

/// Collected sample streams for every DMA.
#[derive(Debug, Clone)]
pub(crate) struct Samplers {
    period: u64,
    /// `npi[dma][k]` = NPI at sample k.
    npi: Vec<Vec<f64>>,
    /// `priority_cycles[dma][level]` = cycles spent stamped at `level`.
    priority_cycles: Vec<[u64; MAX_LEVELS]>,
    /// Cumulative DRAM bytes at each sample.
    bytes: Vec<u64>,
}

impl Samplers {
    /// Creates samplers for `dmas` DMAs at the given period (cycles).
    pub(crate) fn new(dmas: usize, period: u64) -> Self {
        Samplers {
            period,
            npi: vec![Vec::new(); dmas],
            priority_cycles: vec![[0; MAX_LEVELS]; dmas],
            bytes: Vec::new(),
        }
    }

    /// The sampling period in cycles.
    #[inline]
    pub(crate) fn period(&self) -> u64 {
        self.period
    }

    /// Records one DMA's sample: the NPI value and the priority level it
    /// held for the elapsed period.
    pub(crate) fn record(&mut self, dma: usize, npi: Npi, priority: Priority) {
        self.npi[dma].push(npi.as_f64());
        self.priority_cycles[dma][priority.index()] += self.period;
    }

    /// Records the cumulative DRAM byte counter.
    pub(crate) fn record_bandwidth(&mut self, total_bytes: u64) {
        self.bytes.push(total_bytes);
    }

    /// Samples taken so far (each sample records every DMA).
    pub(crate) fn samples(&self) -> usize {
        self.bytes.len()
    }

    /// NPI series of one DMA.
    pub(crate) fn npi_series(&self, dma: usize) -> &[f64] {
        &self.npi[dma]
    }

    /// Priority residency of one DMA: fraction of sampled time at each
    /// level (Fig. 7's horizontal bars).
    pub(crate) fn residency(&self, dma: usize) -> [f64; MAX_LEVELS] {
        let total: u64 = self.priority_cycles[dma].iter().sum();
        let mut out = [0.0; MAX_LEVELS];
        if total > 0 {
            for (o, c) in out.iter_mut().zip(self.priority_cycles[dma]) {
                *o = c as f64 / total as f64;
            }
        }
        out
    }

    /// Delivered bandwidth in bytes/cycle per sampling interval.
    pub(crate) fn bandwidth_series(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.bytes.len());
        let mut prev = 0u64;
        for &b in &self.bytes {
            out.push((b - prev) as f64 / self.period as f64);
            prev = b;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_normalises() {
        let mut s = Samplers::new(1, 100);
        s.record(0, Npi::new(2.0), Priority::new(0));
        s.record(0, Npi::new(0.5), Priority::new(7));
        s.record(0, Npi::new(0.5), Priority::new(7));
        let r = s.residency(0);
        assert!((r[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((r[7] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.npi_series(0), &[2.0, 0.5, 0.5]);
    }

    #[test]
    fn residency_empty_is_zero() {
        let s = Samplers::new(1, 100);
        assert_eq!(s.residency(0)[0], 0.0);
    }

    #[test]
    fn bandwidth_series_differences() {
        let mut s = Samplers::new(1, 100);
        s.record_bandwidth(1000);
        s.record_bandwidth(3000);
        let bw = s.bandwidth_series();
        assert_eq!(bw, vec![10.0, 20.0]);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn period_accessor_and_multi_dma_independence() {
        let mut s = Samplers::new(2, 50);
        assert_eq!(s.period(), 50);
        s.record(0, Npi::new(1.0), Priority::new(0));
        s.record(1, Npi::new(0.5), Priority::new(7));
        assert_eq!(s.npi_series(0), &[1.0]);
        assert_eq!(s.npi_series(1), &[0.5]);
        assert!(s.residency(0)[0] > 0.99);
        assert!(s.residency(1)[7] > 0.99);
    }

    #[test]
    fn bandwidth_series_empty_initially() {
        let s = Samplers::new(1, 10);
        assert_eq!(s.bandwidth_series(), Vec::<f64>::new());
    }
}
