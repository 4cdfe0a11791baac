//! Priority-based self-adaptation (§3.2): meter → NPI → LUT → priority.

use sara_types::{Cycle, Priority};

use crate::meter::{BoxedMeter, PerformanceMeter};
use crate::npi::Npi;
use crate::priority_map::PriorityMap;

/// The self-aware adaptation unit of one DMA: couples a performance meter
/// with an NPI→priority look-up table and stamps the resulting level (and
/// the frame-urgency flag used by the DAC'12 baseline) onto outgoing
/// transactions.
///
/// # Examples
///
/// ```
/// use sara_core::{LatencyMeter, PriorityMap, SelfAwareDma};
/// use sara_types::{Cycle, MemOp, Priority};
///
/// let mut dma = SelfAwareDma::new(
///     Box::new(LatencyMeter::new(400.0, 0.5)),
///     PriorityMap::paper_default(),
/// );
/// assert_eq!(dma.priority(), Priority::new(0)); // idle → healthy → relaxed
/// dma.on_complete(Cycle::new(100), 128, 3_000, MemOp::Read);
/// assert!(dma.priority() >= Priority::new(6)); // starved → urgent
/// assert!(dma.is_urgent());
/// ```
#[derive(Debug)]
pub struct SelfAwareDma {
    meter: BoxedMeter,
    map: PriorityMap,
    current: Priority,
    last_npi: Npi,
}

impl SelfAwareDma {
    /// Creates an adaptation unit from a meter and a priority map.
    pub fn new(meter: BoxedMeter, map: PriorityMap) -> Self {
        let mut dma = SelfAwareDma {
            meter,
            map,
            current: Priority::LOWEST,
            last_npi: Npi::ON_TARGET,
        };
        dma.refresh(Cycle::ZERO);
        dma
    }

    /// Records that the DMA injected a transaction (for starvation-aware
    /// meters); does not restamp the current priority.
    pub fn on_inject(&mut self, now: Cycle) {
        self.meter.on_inject(now);
    }

    /// Feeds a completed transaction into the meter and re-adapts.
    pub fn on_complete(&mut self, now: Cycle, bytes: u32, latency: u64, op: sara_types::MemOp) {
        self.meter.on_complete(now, bytes, latency, op);
        self.refresh(now);
    }

    /// Re-samples the meter and updates the stamped priority.
    pub fn refresh(&mut self, now: Cycle) {
        self.last_npi = self.meter.npi(now);
        self.current = self.map.map(self.last_npi);
    }

    /// The priority level currently stamped on new transactions.
    #[inline]
    pub fn priority(&self) -> Priority {
        self.current
    }

    /// The NPI at the last refresh.
    #[inline]
    pub fn npi(&self) -> Npi {
        self.last_npi
    }

    /// Frame-urgency flag for the frame-rate QoS baseline: the core is
    /// urgent when it runs behind target (NPI < 1).
    #[inline]
    pub fn is_urgent(&self) -> bool {
        !self.last_npi.is_met()
    }

    /// Access to the underlying meter: its live NPI at any instant, read
    /// without restamping the priority (the governor's health sensor).
    pub fn meter(&self) -> &dyn PerformanceMeter {
        self.meter.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::{FrameProgressMeter, LatencyMeter};
    use sara_types::MemOp;

    #[test]
    fn adapts_up_and_down() {
        let mut dma = SelfAwareDma::new(
            Box::new(LatencyMeter::new(400.0, 1.0)),
            PriorityMap::paper_default(),
        );
        dma.on_complete(Cycle::new(10), 128, 2_000, MemOp::Read);
        let urgent = dma.priority();
        assert!(urgent >= Priority::new(6));
        dma.on_complete(Cycle::new(20), 128, 100, MemOp::Read);
        assert!(dma.priority() < urgent, "recovery lowers the priority");
    }

    #[test]
    fn urgency_follows_npi() {
        let mut dma = SelfAwareDma::new(
            Box::new(FrameProgressMeter::new(1000, 1000)),
            PriorityMap::paper_default(),
        );
        assert!(!dma.is_urgent());
        // No progress through most of the frame.
        dma.refresh(Cycle::new(900));
        assert!(dma.is_urgent());
        assert!(!dma.npi().is_met());
    }

    #[test]
    fn npi_at_does_not_restamp() {
        let mut dma = SelfAwareDma::new(
            Box::new(FrameProgressMeter::new(1000, 1000)),
            PriorityMap::paper_default(),
        );
        dma.refresh(Cycle::ZERO);
        let stamped = dma.priority();
        let live = dma.meter().npi(Cycle::new(900));
        assert!(live.as_f64() < 1.0, "live meter sees the stall");
        assert!(dma.npi().is_met(), "the stamped NPI is the refresh's");
        assert_eq!(
            dma.priority(),
            stamped,
            "reading the meter is side-effect free"
        );
    }

    #[test]
    fn exposes_meter_description() {
        let dma = SelfAwareDma::new(
            Box::new(LatencyMeter::new(250.0, 0.5)),
            PriorityMap::paper_default(),
        );
        assert!(dma.meter().describe_target().contains("250"));
    }
}
