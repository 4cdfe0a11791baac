//! Byte-quantity and rate helpers used throughout workload and report code.

/// One kibibyte (1024 bytes).
pub const KIB: u64 = 1024;
/// One mebibyte (1024² bytes).
pub const MIB: u64 = 1024 * 1024;

/// Converts a rate in megabytes per second (decimal, 10⁶) to bytes/second.
///
/// The paper quotes targets like "89MB/s for each DMA" using decimal
/// megabytes; workload specs follow the same convention.
///
/// # Examples
///
/// ```
/// use sara_types::units::mb_per_s;
///
/// assert_eq!(mb_per_s(89.0), 89_000_000.0);
/// ```
#[inline]
pub fn mb_per_s(mb: f64) -> f64 {
    mb * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert_eq!(KIB, 1 << 10);
        assert_eq!(MIB, 1 << 20);
    }

    #[test]
    fn conversions() {
        assert_eq!(mb_per_s(1.0), 1e6);
    }
}
