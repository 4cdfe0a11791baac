//! Bandwidth meter: `NPI = average bandwidth / target bandwidth` (§3.2).

use sara_types::{Cycle, MemOp};

use crate::meter::PerformanceMeter;
use crate::npi::Npi;

const BUCKETS: usize = 16;

/// Windowed-average bandwidth meter for streaming cores (WiFi, USB).
///
/// Bytes completed in the last `window` cycles are tracked in a ring of 16
/// buckets; the NPI is the ratio of the measured average rate to the target
/// rate. During the first window the average divides by elapsed time, so a
/// healthy stream is not penalised at start-up.
///
/// # Examples
///
/// ```
/// use sara_core::{BandwidthMeter, PerformanceMeter};
/// use sara_types::{Cycle, MemOp};
///
/// // Target: 0.5 bytes/cycle over a 1000-cycle window.
/// let mut m = BandwidthMeter::new(0.5, 1000);
/// for i in 0..10 {
///     m.on_complete(Cycle::new(i * 100), 128, 40, MemOp::Read);
/// }
/// assert!(m.npi(Cycle::new(1000)).is_met()); // 1280B/1000cyc = 1.28 B/cyc
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthMeter {
    target_bytes_per_cycle: f64,
    window: u64,
    bucket_len: u64,
    buckets: [u64; BUCKETS],
    current_bucket: u64,
    started: bool,
}

impl BandwidthMeter {
    /// Creates a meter with a target rate (bytes/cycle) and averaging
    /// window (cycles).
    ///
    /// # Panics
    ///
    /// Panics if the target is not positive or the window shorter than the
    /// bucket count.
    pub fn new(target_bytes_per_cycle: f64, window: u64) -> Self {
        assert!(target_bytes_per_cycle > 0.0, "target must be positive");
        assert!(window >= BUCKETS as u64, "window too short");
        BandwidthMeter {
            target_bytes_per_cycle,
            window,
            bucket_len: window / BUCKETS as u64,
            buckets: [0; BUCKETS],
            current_bucket: 0,
            started: false,
        }
    }

    /// The target rate in bytes per cycle.
    #[inline]
    pub fn target(&self) -> f64 {
        self.target_bytes_per_cycle
    }

    fn rotate_to(&mut self, now: Cycle) {
        let bucket = now.as_u64() / self.bucket_len;
        if !self.started {
            self.current_bucket = bucket;
            self.started = true;
            return;
        }
        while self.current_bucket < bucket {
            self.current_bucket += 1;
            let idx = (self.current_bucket as usize) % BUCKETS;
            self.buckets[idx] = 0;
        }
    }
}

impl PerformanceMeter for BandwidthMeter {
    fn on_complete(&mut self, now: Cycle, bytes: u32, _latency: u64, _op: MemOp) {
        self.rotate_to(now);
        let idx = (self.current_bucket as usize) % BUCKETS;
        self.buckets[idx] += bytes as u64;
    }

    fn npi(&self, now: Cycle) -> Npi {
        // Start-up grace: before any completion within the first window the
        // stream has no history — report neutral health rather than
        // catastrophic failure.
        if !self.started && now.as_u64() <= self.window {
            return Npi::ON_TARGET;
        }
        // Rotation is applied lazily on completions; for the query we
        // discount buckets that have fallen out of the window.
        let bucket_now = now.as_u64() / self.bucket_len;
        let mut total = 0u64;
        for i in 0..BUCKETS as u64 {
            let b = self.current_bucket.saturating_sub(i);
            if bucket_now.saturating_sub(b) < BUCKETS as u64 {
                total += self.buckets[(b as usize) % BUCKETS];
            }
            if b == 0 {
                break;
            }
        }
        let elapsed = now.as_u64().max(1).min(self.window);
        let rate = total as f64 / elapsed as f64;
        Npi::new(rate / self.target_bytes_per_cycle)
    }

    fn describe_target(&self) -> String {
        format!(
            "average bandwidth >= {:.3} bytes/cycle",
            self.target_bytes_per_cycle
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meets_target_when_stream_on_rate() {
        let mut m = BandwidthMeter::new(0.1, 1600);
        // 128 bytes every 1000 cycles = 0.128 B/cyc > 0.1.
        for i in 1..=16u64 {
            m.on_complete(Cycle::new(i * 100), 128, 10, MemOp::Write);
        }
        assert!(m.npi(Cycle::new(1600)).is_met());
    }

    #[test]
    fn starved_stream_fails() {
        let mut m = BandwidthMeter::new(1.0, 1600);
        m.on_complete(Cycle::new(10), 128, 10, MemOp::Read);
        // One burst then silence: far below 1 B/cyc.
        assert!(!m.npi(Cycle::new(1600)).is_met());
    }

    #[test]
    fn early_window_uses_elapsed_time() {
        let mut m = BandwidthMeter::new(1.0, 16_000);
        m.on_complete(Cycle::new(50), 128, 10, MemOp::Read);
        // At t=100: 128B/100cyc = 1.28 ≥ 1 even though window is 16k.
        assert!(m.npi(Cycle::new(100)).is_met());
    }

    #[test]
    fn old_traffic_falls_out_of_window() {
        let mut m = BandwidthMeter::new(0.5, 1600);
        m.on_complete(Cycle::new(10), 12800, 10, MemOp::Read);
        assert!(m.npi(Cycle::new(1000)).is_met());
        // 10 windows later the old burst no longer counts.
        assert!(!m.npi(Cycle::new(16_000)).is_met());
    }

    #[test]
    fn measured_rate_is_bytes_per_cycle() {
        let mut m = BandwidthMeter::new(0.5, 1600);
        m.on_complete(Cycle::new(100), 800, 10, MemOp::Read);
        // 800 bytes over the 1600-cycle window is exactly the 0.5 target.
        let npi = m.npi(Cycle::new(1600)).as_f64();
        assert!((npi - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_target_rejected() {
        let _ = BandwidthMeter::new(0.0, 1600);
    }
}
