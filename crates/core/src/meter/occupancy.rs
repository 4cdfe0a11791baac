//! Buffer-occupancy meter (Eqn 3): health from the drift of a rate buffer.

use sara_types::{Cycle, MemOp};

use crate::meter::PerformanceMeter;
use crate::npi::Npi;

/// Which side of the buffer the constant-rate agent sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferDirection {
    /// Display-style: the LCD panel *drains* the buffer at a constant rate;
    /// completed DRAM reads refill it. Health degrades as the buffer
    /// empties.
    ConstantDrain,
    /// Camera-style: the sensor *fills* the buffer at a constant rate;
    /// completed DRAM writes drain it. Health degrades as the buffer fills.
    ConstantFill,
}

/// Occupancy meter for rate-buffered cores (display, camera).
///
/// Implements Eqn 3 as the larger of two health terms:
///
/// * the **occupancy term** — with the half-buffer normalisation window
///   `w = capacity/(2R)`, `1 + Δoccupancy/(R·w)` reduces to `2 × occupancy
///   fraction` for the display (mirror for the camera): 50% full → 1,
///   empty → 0;
/// * the **service-ratio term** `Rrefill/Rread` measured over the recent
///   window — once the buffer has hit its rail this is what Eqn 3 reports
///   (the paper's starved display reads 0.13 = 13% of the needed refill
///   rate, not 0).
///
/// # Examples
///
/// ```
/// use sara_core::{BufferDirection, OccupancyMeter, PerformanceMeter};
/// use sara_types::{Cycle, MemOp};
///
/// // 64 KiB display buffer drained at 1 byte/cycle.
/// let mut m = OccupancyMeter::new(BufferDirection::ConstantDrain, 65_536, 1.0);
/// assert!((m.npi(Cycle::ZERO).as_f64() - 1.0).abs() < 1e-9);
/// // 10k cycles with no refill: the buffer drains below half.
/// assert!(!m.npi(Cycle::new(10_000)).is_met());
/// ```
#[derive(Debug, Clone)]
pub struct OccupancyMeter {
    direction: BufferDirection,
    capacity: f64,
    rate: f64,
    level: f64,
    last_update: Cycle,
    underruns: u64,
    overflows: u64,
    /// Ring of served bytes for the service-ratio term.
    buckets: [u64; 8],
    bucket_len: u64,
    current_bucket: u64,
}

impl OccupancyMeter {
    /// Creates a meter for a buffer of `capacity_bytes`, moved by the
    /// constant-rate agent at `rate` bytes/cycle, starting 50% full.
    ///
    /// # Panics
    ///
    /// Panics if capacity or rate is not positive.
    pub fn new(direction: BufferDirection, capacity_bytes: u64, rate: f64) -> Self {
        Self::with_initial_fill(direction, capacity_bytes, rate, 0.5)
    }

    /// Like [`OccupancyMeter::new`] but with an explicit initial fill
    /// fraction. The NPI reference stays the half-full point (Eqn 3's
    /// "initial level (e.g. 50%)"); starting the display buffer slightly
    /// above it models the prefetch headroom real display controllers keep
    /// so that service jitter does not oscillate the health reading around
    /// exactly 1.0.
    ///
    /// # Panics
    ///
    /// Panics if capacity or rate is not positive, or the fraction is
    /// outside `(0, 1)`.
    pub fn with_initial_fill(
        direction: BufferDirection,
        capacity_bytes: u64,
        rate: f64,
        initial_fraction: f64,
    ) -> Self {
        assert!(capacity_bytes > 0, "capacity must be positive");
        assert!(rate > 0.0, "rate must be positive");
        assert!(
            initial_fraction > 0.0 && initial_fraction < 1.0,
            "initial fill must be a fraction in (0, 1)"
        );
        // Service ratio measured over one half-buffer time.
        let window = ((capacity_bytes as f64 / 2.0) / rate).max(8.0) as u64;
        OccupancyMeter {
            direction,
            capacity: capacity_bytes as f64,
            rate,
            level: capacity_bytes as f64 * initial_fraction,
            last_update: Cycle::ZERO,
            underruns: 0,
            overflows: 0,
            buckets: [0; 8],
            bucket_len: (window / 8).max(1),
            current_bucket: 0,
        }
    }

    /// Integrates the constant-rate side up to `now`.
    fn integrate(&mut self, now: Cycle) {
        let dt = now.saturating_sub(self.last_update) as f64;
        if dt <= 0.0 {
            return;
        }
        self.last_update = self.last_update.max(now);
        match self.direction {
            BufferDirection::ConstantDrain => {
                self.level -= self.rate * dt;
                if self.level < 0.0 {
                    self.level = 0.0;
                    self.underruns += 1;
                }
            }
            BufferDirection::ConstantFill => {
                self.level += self.rate * dt;
                if self.level > self.capacity {
                    self.level = self.capacity;
                    self.overflows += 1;
                }
            }
        }
    }

    /// Times the display-style buffer ran empty.
    #[inline]
    pub fn underruns(&self) -> u64 {
        self.underruns
    }

    /// Times the camera-style buffer overflowed.
    #[inline]
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    fn npi_of_level(&self, level: f64) -> f64 {
        let fraction = level / self.capacity;
        let v = match self.direction {
            BufferDirection::ConstantDrain => 2.0 * fraction,
            BufferDirection::ConstantFill => 2.0 * (1.0 - fraction),
        };
        v.max(0.0)
    }

    fn rotate_to(&mut self, now: Cycle) {
        let bucket = now.as_u64() / self.bucket_len;
        while self.current_bucket < bucket {
            self.current_bucket += 1;
            self.buckets[(self.current_bucket % 8) as usize] = 0;
        }
    }

    /// Served bytes over the recent window, as a fraction of the demanded
    /// rate (the Eqn 3 `Rrefill/Rread` term).
    fn service_ratio(&self, now: Cycle) -> f64 {
        let bucket_now = now.as_u64() / self.bucket_len;
        let mut total = 0u64;
        for i in 0..8u64 {
            let b = self.current_bucket.saturating_sub(i);
            if bucket_now.saturating_sub(b) < 8 {
                total += self.buckets[(b % 8) as usize];
            }
            if b == 0 {
                break;
            }
        }
        let window = (8 * self.bucket_len).min(now.as_u64().max(1));
        total as f64 / (self.rate * window as f64)
    }
}

impl PerformanceMeter for OccupancyMeter {
    fn on_complete(&mut self, now: Cycle, bytes: u32, _latency: u64, _op: MemOp) {
        self.integrate(now);
        self.rotate_to(now);
        self.buckets[(self.current_bucket % 8) as usize] += bytes as u64;
        match self.direction {
            BufferDirection::ConstantDrain => {
                self.level = (self.level + bytes as f64).min(self.capacity);
            }
            BufferDirection::ConstantFill => {
                self.level = (self.level - bytes as f64).max(0.0);
            }
        }
    }

    fn npi(&self, now: Cycle) -> Npi {
        // Project the constant-rate side forward without mutating state.
        let dt = now.saturating_sub(self.last_update) as f64;
        let projected = match self.direction {
            BufferDirection::ConstantDrain => (self.level - self.rate * dt).max(0.0),
            BufferDirection::ConstantFill => (self.level + self.rate * dt).min(self.capacity),
        };
        let occupancy_term = self.npi_of_level(projected);
        // Eqn 3's windowed Rrefill/Rread: a buffer whose level has degraded
        // but whose service keeps pace reads just under target (capped at
        // 0.99 until the level itself recovers); a railed buffer reads its
        // achieved service fraction (the paper's 0.13-style floor).
        let service_term = self.service_ratio(now).min(0.99);
        Npi::new(occupancy_term.max(service_term))
    }

    fn describe_target(&self) -> String {
        let side = match self.direction {
            BufferDirection::ConstantDrain => "refill",
            BufferDirection::ConstantFill => "drain",
        };
        format!(
            "{side} a {:.0}-byte buffer against {:.3} bytes/cycle",
            self.capacity, self.rate
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_refill_holds_npi_at_one() {
        let mut m = OccupancyMeter::new(BufferDirection::ConstantDrain, 10_000, 1.0);
        // Refill exactly at the drain rate: 100 bytes per 100 cycles.
        for i in 1..=50u64 {
            m.on_complete(Cycle::new(i * 100), 100, 10, MemOp::Read);
        }
        let npi = m.npi(Cycle::new(5000));
        assert!((npi.as_f64() - 1.0).abs() < 0.05, "npi = {npi}");
    }

    #[test]
    fn starved_display_fails_and_underruns() {
        let mut m = OccupancyMeter::new(BufferDirection::ConstantDrain, 1000, 1.0);
        assert!(!m.npi(Cycle::new(400)).is_met()); // drained to 10%
        assert_eq!(m.npi(Cycle::new(2000)).as_f64(), 0.0);
        m.on_complete(Cycle::new(2000), 100, 10, MemOp::Read);
        assert_eq!(m.underruns(), 1);
    }

    #[test]
    fn railed_display_reports_service_ratio() {
        // Buffer long empty, but refills trickle at ~13% of the drain rate:
        // the paper's display reads ≈0.13, not 0.
        let mut m = OccupancyMeter::new(BufferDirection::ConstantDrain, 1000, 1.0);
        for k in 1..=80u64 {
            m.on_complete(Cycle::new(2_000 + k * 100), 13, 10, MemOp::Read);
        }
        let npi = m.npi(Cycle::new(10_000)).as_f64();
        assert!((0.05..0.3).contains(&npi), "npi = {npi}");
    }

    #[test]
    fn over_refilled_display_is_extra_healthy() {
        let mut m = OccupancyMeter::new(BufferDirection::ConstantDrain, 1000, 0.1);
        m.on_complete(Cycle::new(10), 400, 10, MemOp::Read);
        let npi = m.npi(Cycle::new(10));
        assert!(npi.as_f64() > 1.5, "npi = {npi}");
    }

    #[test]
    fn camera_fills_up_when_writes_starve() {
        let mut m = OccupancyMeter::new(BufferDirection::ConstantFill, 1000, 1.0);
        assert!(!m.npi(Cycle::new(400)).is_met()); // filled to 90%
        m.on_complete(Cycle::new(1200), 10, 10, MemOp::Write);
        assert_eq!(m.overflows(), 1);
    }

    #[test]
    fn camera_keeping_up_is_healthy() {
        let mut m = OccupancyMeter::new(BufferDirection::ConstantFill, 10_000, 1.0);
        for i in 1..=50u64 {
            m.on_complete(Cycle::new(i * 100), 100, 10, MemOp::Write);
        }
        assert!((m.npi(Cycle::new(5000)).as_f64() - 1.0).abs() < 0.05);
    }

    #[test]
    fn npi_projection_does_not_mutate() {
        let m = OccupancyMeter::new(BufferDirection::ConstantDrain, 1000, 1.0);
        let a = m.npi(Cycle::new(100));
        let b = m.npi(Cycle::new(100));
        assert_eq!(a, b);
        assert!((m.level / m.capacity - 0.5).abs() < 1e-12);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The occupancy level stays within [0, capacity] and the NPI stays
    /// finite and non-negative under seeded random completion schedules.
    #[test]
    fn level_and_npi_bounded() {
        for case in 0u64..64 {
            let mut rng = StdRng::seed_from_u64(0x0cc0_0000 + case);
            let capacity = rng.gen_range(512u64..65_536);
            let rate = rng.gen_range(0.01f64..4.0);
            let events: Vec<(u64, u32)> = (0..rng.gen_range(1usize..60))
                .map(|_| (rng.gen_range(1u64..5_000), rng.gen_range(1u32..4_096)))
                .collect();
            for direction in [
                BufferDirection::ConstantDrain,
                BufferDirection::ConstantFill,
            ] {
                let mut m = OccupancyMeter::new(direction, capacity, rate);
                let mut now = 0u64;
                for (dt, bytes) in &events {
                    now += dt;
                    m.on_complete(Cycle::new(now), *bytes, 10, MemOp::Read);
                    let frac = m.level / m.capacity;
                    assert!((0.0..=1.0).contains(&frac), "case {case}: fraction {frac}");
                    let npi = m.npi(Cycle::new(now)).as_f64();
                    assert!(npi.is_finite() && npi >= 0.0, "case {case}: npi {npi}");
                }
            }
        }
    }
}
