//! Average-latency meter (Eqn 1): `NPI = max latency limit / avg latency`.

use std::collections::VecDeque;

use sara_types::{Cycle, MemOp};

use crate::meter::PerformanceMeter;
use crate::npi::Npi;

/// Latency meter for latency-bounded cores (DSP, audio).
///
/// Maintains an exponentially-weighted moving average of completion
/// latencies; the DSP in the paper "demands the memory latency to remain
/// below a certain limit" and its NPI is the ratio of that limit to the
/// measured average (Eqn 1). Outstanding (not yet completed) transactions
/// are aged into the estimate, so a fully starved DMA degrades instead of
/// holding a stale healthy reading.
///
/// # Examples
///
/// ```
/// use sara_core::{LatencyMeter, PerformanceMeter};
/// use sara_types::{Cycle, MemOp};
///
/// let mut meter = LatencyMeter::new(400.0, 0.25);
/// meter.on_complete(Cycle::new(100), 128, 200, MemOp::Read);
/// assert!(meter.npi(Cycle::new(100)).is_met());   // 400/200 = 2.0
/// meter.on_complete(Cycle::new(200), 128, 4_000, MemOp::Read);
/// assert!(!meter.npi(Cycle::new(200)).is_met());  // average blew the limit
/// ```
#[derive(Debug, Clone)]
pub struct LatencyMeter {
    limit: f64,
    alpha: f64,
    avg: Option<f64>,
    /// Injection times of in-flight transactions (FIFO approximation).
    outstanding: VecDeque<Cycle>,
}

impl LatencyMeter {
    /// Creates a meter with a latency `limit` in cycles and EWMA weight
    /// `alpha` (0 < alpha ≤ 1; higher reacts faster).
    ///
    /// # Panics
    ///
    /// Panics if `limit` is not positive or `alpha` is outside (0, 1].
    pub fn new(limit: f64, alpha: f64) -> Self {
        assert!(limit > 0.0, "latency limit must be positive");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        LatencyMeter {
            limit,
            alpha,
            avg: None,
            outstanding: VecDeque::new(),
        }
    }

    /// The configured maximum average latency, in cycles.
    #[inline]
    pub fn limit(&self) -> f64 {
        self.limit
    }

    /// The current average latency estimate (None before any completion).
    #[inline]
    pub fn average(&self) -> Option<f64> {
        self.avg
    }
}

impl PerformanceMeter for LatencyMeter {
    fn on_inject(&mut self, now: Cycle) {
        self.outstanding.push_back(now);
    }

    fn on_complete(&mut self, _now: Cycle, _bytes: u32, latency: u64, _op: MemOp) {
        self.outstanding.pop_front();
        let sample = latency as f64;
        self.avg = Some(match self.avg {
            Some(avg) => avg + self.alpha * (sample - avg),
            None => sample,
        });
    }

    fn npi(&self, now: Cycle) -> Npi {
        // The oldest in-flight transaction has *at least* its current age as
        // latency. Eqn 1 is an *average* condition, so the pending age is
        // blended in as one EWMA sample: a single straggler barely moves the
        // reading, while sustained starvation (pending age growing without
        // completions) steadily degrades it.
        let pending_age = self
            .outstanding
            .front()
            .map(|t| now.saturating_sub(*t) as f64)
            .unwrap_or(0.0);
        let effective = match self.avg {
            Some(avg) if pending_age > avg => avg + self.alpha * (pending_age - avg),
            Some(avg) => avg,
            None => pending_age,
        };
        if effective <= 0.0 {
            // Idle with no history: healthy by definition.
            Npi::new(f64::INFINITY)
        } else {
            Npi::new(self.limit / effective)
        }
    }

    fn describe_target(&self) -> String {
        format!("average latency <= {:.0} cycles", self.limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_meter_is_healthy() {
        let m = LatencyMeter::new(500.0, 0.5);
        assert!(m.npi(Cycle::ZERO).is_met());
        assert_eq!(m.average(), None);
    }

    #[test]
    fn npi_is_limit_over_average() {
        let mut m = LatencyMeter::new(500.0, 1.0); // alpha 1: last sample only
        m.on_complete(Cycle::ZERO, 128, 250, MemOp::Read);
        assert!((m.npi(Cycle::ZERO).as_f64() - 2.0).abs() < 1e-12);
        m.on_complete(Cycle::ZERO, 128, 1000, MemOp::Read);
        assert!((m.npi(Cycle::ZERO).as_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ewma_smooths() {
        let mut m = LatencyMeter::new(500.0, 0.5);
        m.on_complete(Cycle::ZERO, 128, 100, MemOp::Read);
        m.on_complete(Cycle::ZERO, 128, 300, MemOp::Read);
        // avg = 100 + 0.5*(300-100) = 200
        assert!((m.average().unwrap() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn writes_also_count() {
        let mut m = LatencyMeter::new(500.0, 1.0);
        m.on_complete(Cycle::ZERO, 128, 2000, MemOp::Write);
        assert!(!m.npi(Cycle::ZERO).is_met());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha() {
        let _ = LatencyMeter::new(500.0, 1.5);
    }

    #[test]
    fn describes_target() {
        assert!(LatencyMeter::new(400.0, 0.5)
            .describe_target()
            .contains("400"));
    }

    #[test]
    fn starved_outstanding_transaction_degrades_npi() {
        let mut m = LatencyMeter::new(500.0, 0.5);
        m.on_inject(Cycle::new(100));
        // Still healthy shortly after injection...
        assert!(m.npi(Cycle::new(200)).is_met());
        // ...but a transaction stuck for 10x the limit is a failure even
        // though nothing ever completed (cold start uses the age directly).
        assert!(!m.npi(Cycle::new(5_100)).is_met());
        // Completion clears the outstanding age.
        m.on_complete(Cycle::new(5_100), 128, 250, MemOp::Read);
        assert!(m.npi(Cycle::new(5_100)).is_met());
    }

    #[test]
    fn single_straggler_is_averaged_not_panicked_over() {
        // Established healthy average; one transaction stuck at 4x the
        // limit only nudges the EWMA — Eqn 1 is an average condition.
        let mut m = LatencyMeter::new(500.0, 0.05);
        m.on_complete(Cycle::new(100), 128, 250, MemOp::Read);
        m.on_inject(Cycle::new(200));
        assert!(m.npi(Cycle::new(2_200)).is_met()); // pending age 2000
                                                    // Sustained starvation still escalates.
        assert!(!m.npi(Cycle::new(60_000)).is_met());
    }

    #[test]
    fn outstanding_age_uses_oldest() {
        let mut m = LatencyMeter::new(500.0, 1.0);
        m.on_inject(Cycle::new(0));
        m.on_inject(Cycle::new(900));
        assert!(!m.npi(Cycle::new(1_000)).is_met()); // cold start, oldest 1000
        m.on_complete(Cycle::new(1_000), 128, 100, MemOp::Read);
        // Remaining outstanding is only 100 cycles old; avg is 100.
        assert!(m.npi(Cycle::new(1_000)).is_met());
    }
}
