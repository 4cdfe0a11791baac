//! Transaction priority levels (§3.2 of the paper).
//!
//! Priorities are quantised into `2^k` levels encoded in `k` bits; the paper
//! finds `k = 3` (levels 0–7) sufficient. Numerically **higher levels are more
//! urgent** — a core whose measured performance falls far below target adapts
//! its transactions toward level 7.

use core::fmt;

use crate::ConfigError;

/// Number of bits used to encode a priority level (`k` in §3.2).
///
/// The paper evaluates `k = 3`; the ablation benches sweep `k ∈ 1..=4`.
///
/// # Examples
///
/// ```
/// use sara_types::PriorityBits;
///
/// let bits = PriorityBits::new(3)?;
/// assert_eq!(bits.levels(), 8);
/// assert_eq!(bits.max_level().as_u8(), 7);
/// # Ok::<(), sara_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PriorityBits(u8);

impl PriorityBits {
    /// The paper's configuration: 3 bits, 8 levels.
    pub const PAPER: PriorityBits = PriorityBits(3);

    /// Creates a priority encoding width.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] unless `1 <= bits <= 4`.
    pub fn new(bits: u8) -> Result<Self, ConfigError> {
        if (1..=4).contains(&bits) {
            Ok(PriorityBits(bits))
        } else {
            Err(ConfigError::new(format!(
                "priority bits must be in 1..=4, got {bits}"
            )))
        }
    }

    /// The encoding width in bits.
    #[inline]
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Number of representable levels (`2^k`).
    #[inline]
    pub const fn levels(self) -> usize {
        1 << self.0
    }

    /// The most urgent representable level (`2^k - 1`).
    #[inline]
    pub const fn max_level(self) -> Priority {
        Priority((1 << self.0) - 1)
    }
}

impl Default for PriorityBits {
    fn default() -> Self {
        Self::PAPER
    }
}

/// A transaction's relative priority level. Higher is more urgent.
///
/// `Priority` values are produced by a core's NPI→priority look-up table and
/// travel attached to memory transactions; on-chip network arbiters and the
/// memory controller compare them during arbitration (§3.3).
///
/// # Examples
///
/// ```
/// use sara_types::Priority;
///
/// assert!(Priority::new(7) > Priority::LOWEST);
/// assert_eq!(Priority::new(5).as_u8(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Priority(u8);

impl Priority {
    /// The least urgent level (0).
    pub const LOWEST: Priority = Priority(0);
    /// Largest level representable by any supported encoding (4 bits).
    pub const MAX_SUPPORTED: Priority = Priority(15);

    /// Creates a priority level.
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds [`Priority::MAX_SUPPORTED`].
    #[inline]
    pub fn new(level: u8) -> Self {
        assert!(
            level <= Self::MAX_SUPPORTED.0,
            "priority level {level} exceeds the 4-bit maximum"
        );
        Priority(level)
    }

    /// The numeric level.
    #[inline]
    pub const fn as_u8(self) -> u8 {
        self.0
    }

    /// The numeric level as an index into per-level tables.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<Priority> for u8 {
    fn from(p: Priority) -> u8 {
        p.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_levels() {
        assert_eq!(PriorityBits::new(1).unwrap().levels(), 2);
        assert_eq!(PriorityBits::new(3).unwrap().levels(), 8);
        assert_eq!(PriorityBits::new(4).unwrap().levels(), 16);
        assert_eq!(PriorityBits::PAPER.max_level(), Priority::new(7));
    }

    #[test]
    fn bits_out_of_range() {
        assert!(PriorityBits::new(0).is_err());
        assert!(PriorityBits::new(5).is_err());
    }

    #[test]
    fn ordering_is_urgency() {
        assert!(Priority::new(7) > Priority::new(3));
        assert!(Priority::new(3) >= Priority::new(3));
        assert!(Priority::new(2) < Priority::new(3));
    }

    #[test]
    #[should_panic(expected = "4-bit maximum")]
    fn out_of_range_level_panics() {
        let _ = Priority::new(16);
    }

    #[test]
    fn display() {
        assert_eq!(Priority::new(6).to_string(), "P6");
    }
}
