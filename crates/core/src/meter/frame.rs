//! Frame-progress meter (Eqn 2): `NPI = frame progress / reference progress`.

use sara_types::{Cycle, MemOp};

use crate::meter::PerformanceMeter;
use crate::npi::Npi;

/// Frame-progress meter for frame-rate cores (GPU, image processor, video
/// codec, rotator, JPEG).
///
/// A frame of `bytes_per_frame` bytes must complete every `frame_period`
/// cycles. The meter compares cumulative completed bytes against the
/// reference progress that "grows proportionally with frame time" (§3.2):
/// deficits carry across frame boundaries, so a core that missed a deadline
/// stays unhealthy until it catches up — exactly the behaviour that lets
/// bursty media cores run far ahead early in the frame (NPI ≫ 1 in Fig. 5a)
/// and starved ones sink below 1.
///
/// # Examples
///
/// ```
/// use sara_core::{FrameProgressMeter, PerformanceMeter};
/// use sara_types::{Cycle, MemOp};
///
/// // 1000 bytes per 1000-cycle frame.
/// let mut m = FrameProgressMeter::new(1000, 1000);
/// m.on_complete(Cycle::new(100), 500, 10, MemOp::Read);
/// // Half the frame done at 10% of the period: far ahead of reference.
/// assert!(m.npi(Cycle::new(100)).as_f64() > 3.0);
/// // No more traffic: by 90% of the period the core is behind.
/// assert!(!m.npi(Cycle::new(900)).is_met());
/// ```
#[derive(Debug, Clone)]
pub struct FrameProgressMeter {
    bytes_per_frame: u64,
    frame_period: u64,
    completed: u64,
    /// Progress quantum damping the division at frame start (1% of a frame).
    quantum: f64,
}

impl FrameProgressMeter {
    /// Creates a meter for `bytes_per_frame` bytes per `frame_period`
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(bytes_per_frame: u64, frame_period: u64) -> Self {
        assert!(bytes_per_frame > 0, "frame size must be positive");
        assert!(frame_period > 0, "frame period must be positive");
        FrameProgressMeter {
            bytes_per_frame,
            frame_period,
            completed: 0,
            quantum: bytes_per_frame as f64 / 100.0,
        }
    }

    /// Completed frames that missed their deadline, judged retrospectively
    /// at `now`: frame k missed if fewer than `(k+1) * bytes_per_frame`
    /// bytes had completed by its end. (Deficit-carrying meters recover, so
    /// this counts frames that *ended* behind.)
    pub fn reference_bytes(&self, now: Cycle) -> f64 {
        self.bytes_per_frame as f64 * now.as_u64() as f64 / self.frame_period as f64
    }
}

impl PerformanceMeter for FrameProgressMeter {
    fn on_complete(&mut self, _now: Cycle, bytes: u32, _latency: u64, _op: MemOp) {
        self.completed += bytes as u64;
    }

    fn npi(&self, now: Cycle) -> Npi {
        let reference = self.reference_bytes(now);
        Npi::new((self.completed as f64 + self.quantum) / (reference + self.quantum))
    }

    fn describe_target(&self) -> String {
        format!(
            "{} bytes per {}-cycle frame",
            self.bytes_per_frame, self.frame_period
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_on_target() {
        let m = FrameProgressMeter::new(1000, 1000);
        assert!((m.npi(Cycle::ZERO).as_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ahead_of_reference_is_healthy() {
        let mut m = FrameProgressMeter::new(1000, 1000);
        m.on_complete(Cycle::new(10), 1000, 5, MemOp::Read);
        // Whole frame done at 1% of the period.
        assert!(m.npi(Cycle::new(10)).as_f64() > 10.0);
        // Still exactly on target at the frame boundary.
        assert!((m.npi(Cycle::new(1000)).as_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deficit_carries_across_frames() {
        let mut m = FrameProgressMeter::new(1000, 1000);
        // Only 40% of frame 0 completes.
        m.on_complete(Cycle::new(500), 400, 5, MemOp::Read);
        assert!(!m.npi(Cycle::new(1000)).is_met());
        // Frame 1 completes fully but the 600-byte hole remains.
        m.on_complete(Cycle::new(1500), 1000, 5, MemOp::Read);
        assert!(!m.npi(Cycle::new(2000)).is_met());
        // Catching up restores health.
        m.on_complete(Cycle::new(2100), 700, 5, MemOp::Read);
        assert!(m.npi(Cycle::new(2100)).is_met());
    }

    #[test]
    fn reference_grows_linearly() {
        let m = FrameProgressMeter::new(2000, 1000);
        assert!((m.reference_bytes(Cycle::new(500)) - 1000.0).abs() < 1e-12);
        assert!((m.reference_bytes(Cycle::new(1500)) - 3000.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frame_rejected() {
        let _ = FrameProgressMeter::new(0, 1000);
    }
}
