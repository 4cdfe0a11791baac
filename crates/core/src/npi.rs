//! The Normalized Performance Indicator (§3.1).
//!
//! Every core normalises its measured performance against its own target
//! into a single fractional number — the NPI. **NPI ≥ 1 means the target is
//! met**; the further below 1, the worse the core's intrinsic health.

use core::fmt;

/// A Normalized Performance Indicator sample.
///
/// # Examples
///
/// ```
/// use sara_core::Npi;
///
/// let healthy = Npi::new(1.3);
/// assert!(healthy.is_met());
/// let failing = Npi::new(0.13); // the paper's display under FCFS
/// assert!(!failing.is_met());
/// assert_eq!(healthy.min(failing), failing);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Npi(f64);

impl Npi {
    /// Exactly on target.
    pub const ON_TARGET: Npi = Npi(1.0);

    /// Creates an NPI sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or NaN — meters must produce
    /// well-formed ratios.
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && value >= 0.0 || value == f64::INFINITY,
            "NPI must be a non-negative number, got {value}"
        );
        Npi(value)
    }

    /// The raw ratio.
    #[inline]
    pub const fn as_f64(self) -> f64 {
        self.0
    }

    /// Whether the target performance is achieved (NPI ≥ 1).
    #[inline]
    pub fn is_met(self) -> bool {
        self.0 >= 1.0
    }

    /// The smaller of two samples (worst health).
    pub fn min(self, other: Npi) -> Npi {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }
}

impl fmt::Display for Npi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

impl From<Npi> for f64 {
    fn from(npi: Npi) -> f64 {
        npi.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn met_threshold() {
        assert!(Npi::new(1.0).is_met());
        assert!(Npi::new(5.0).is_met());
        assert!(!Npi::new(0.999).is_met());
    }

    #[test]
    fn infinity_allowed_for_idle_meters() {
        let idle = Npi::new(f64::INFINITY);
        assert!(idle.is_met());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rejected() {
        let _ = Npi::new(-0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_rejected() {
        let _ = Npi::new(f64::NAN);
    }

    #[test]
    fn min_and_display() {
        assert_eq!(Npi::new(0.5).min(Npi::new(2.0)), Npi::new(0.5));
        assert_eq!(Npi::new(0.5).to_string(), "0.500");
    }
}
