//! NPI → priority translation (§3.2, §3.4).
//!
//! Hardware model: a look-up table with one entry per priority level, each
//! holding the *lowest NPI admitted at that level*. All entries are compared
//! against the current NPI in parallel; among the asserted levels, the
//! lowest is adopted. Lower NPI therefore maps to a higher (more urgent)
//! level. The paper's configuration uses k = 3 bits → 8 entries, i.e. eight
//! registers and eight comparators per core.

use sara_types::{ConfigError, Priority, PriorityBits};

use crate::npi::Npi;

/// The NPI→priority look-up table of one DMA.
///
/// # Examples
///
/// ```
/// use sara_core::{Npi, PriorityMap};
/// use sara_types::Priority;
///
/// let map = PriorityMap::paper_default();
/// // Comfortably above target → lowest priority.
/// assert_eq!(map.map(Npi::new(2.0)), Priority::new(0));
/// // Far below target → most urgent level.
/// assert_eq!(map.map(Npi::new(0.2)), Priority::new(7));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PriorityMap {
    /// `bounds[p]` = lowest NPI asserted at level `p`; strictly decreasing,
    /// with the final entry 0 so some level always asserts.
    bounds: Vec<f64>,
    bits: PriorityBits,
}

impl PriorityMap {
    /// The default 3-bit map used throughout the evaluation.
    ///
    /// Levels 0–7 assert at NPI ≥ 1.25, 1.10, 1.02, 0.95, 0.88, 0.80, 0.70
    /// and 0. Cores comfortably ahead of target sit at level 0; cores at
    /// roughly the target hover around levels 2–4 (compare Fig. 4's DSP
    /// mapping); badly failing cores saturate at level 7.
    pub fn paper_default() -> Self {
        PriorityMap {
            bounds: vec![1.25, 1.10, 1.02, 0.95, 0.88, 0.80, 0.70, 0.0],
            bits: PriorityBits::PAPER,
        }
    }

    /// The Fig. 4(a)-style map for latency-bounded cores (DSP, audio).
    ///
    /// The paper's DSP example adapts between levels 3 and 5 — it never
    /// drops to the relaxed levels, because a latency-sensitive core that
    /// has already been hurt cannot retroactively fix the latency of the
    /// transaction that hurt it. Levels 0–2 are reserved for the idle state
    /// (unbounded NPI); any loaded-but-healthy reading floors at level 3.
    pub fn latency_sensitive() -> Self {
        PriorityMap {
            bounds: vec![1e12, 1e11, 1e10, 1.10, 0.95, 0.88, 0.80, 0.0],
            bits: PriorityBits::PAPER,
        }
    }

    /// The map for hard-deadline work-unit cores (GPS, modem).
    ///
    /// A deadline core that falls behind pace mid-unit cannot recover the
    /// lost time, so its map escalates *before* the target is missed: it
    /// reaches level 6 — the δ threshold of Policy 2, i.e. the level that
    /// may break open rows — while still on pace (NPI ≈ 1), and level 7 as
    /// soon as the reading degrades. §3.2: "the formulation of the NPI
    /// metric and the adaptations of priority can be implemented
    /// differently from core to core".
    pub fn deadline() -> Self {
        PriorityMap {
            bounds: vec![1e12, 1e11, 1.30, 1.15, 1.08, 1.02, 0.99, 0.0],
            bits: PriorityBits::PAPER,
        }
    }

    /// Width-generic variant of [`PriorityMap::latency_sensitive`]: the
    /// floor sits at the same ~3/8 fraction of the level range.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the generated ramp is malformed (cannot
    /// happen for supported widths).
    pub fn latency_sensitive_for(bits: PriorityBits) -> Result<Self, ConfigError> {
        if bits == PriorityBits::PAPER {
            return Ok(Self::latency_sensitive());
        }
        let levels = bits.levels();
        if levels == 2 {
            return Self::from_bounds(bits, vec![1.0, 0.0]);
        }
        let floor = (levels * 3) / 8;
        let mut bounds = Vec::with_capacity(levels);
        for p in 0..levels - 1 {
            if p < floor {
                bounds.push(1e12 / 10f64.powi(p as i32));
            } else {
                let span = (levels - 1 - floor).max(1) as f64;
                let t = (p - floor) as f64 / span;
                bounds.push(1.10 - (1.10 - 0.80) * t);
            }
        }
        bounds.push(0.0);
        Self::from_bounds(bits, bounds)
    }

    /// Width-generic variant of [`PriorityMap::deadline`]: ~1/4 of the
    /// range reserved for the idle state, the rest ramping so the
    /// next-to-last level asserts just below target.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the generated ramp is malformed (cannot
    /// happen for supported widths).
    pub fn deadline_for(bits: PriorityBits) -> Result<Self, ConfigError> {
        if bits == PriorityBits::PAPER {
            return Ok(Self::deadline());
        }
        let levels = bits.levels();
        if levels == 2 {
            return Self::from_bounds(bits, vec![0.99, 0.0]);
        }
        let idle = levels / 4;
        let mut bounds = Vec::with_capacity(levels);
        for p in 0..levels - 1 {
            if p < idle {
                bounds.push(1e12 / 10f64.powi(p as i32));
            } else {
                let span = (levels - 2 - idle).max(1) as f64;
                let t = (p - idle) as f64 / span;
                bounds.push(1.30 - (1.30 - 0.99) * t);
            }
        }
        bounds.push(0.0);
        Self::from_bounds(bits, bounds)
    }

    /// Builds a map from explicit per-level lower bounds.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the number of bounds does not equal
    /// `bits.levels()`, the bounds are not strictly decreasing, or the last
    /// bound is not 0 (some level must always assert).
    pub fn from_bounds(bits: PriorityBits, bounds: Vec<f64>) -> Result<Self, ConfigError> {
        if bounds.len() != bits.levels() {
            return Err(ConfigError::new(format!(
                "expected {} bounds for {}-bit priorities, got {}",
                bits.levels(),
                bits.bits(),
                bounds.len()
            )));
        }
        for pair in bounds.windows(2) {
            if pair[0].partial_cmp(&pair[1]) != Some(std::cmp::Ordering::Greater) {
                return Err(ConfigError::new(format!(
                    "bounds must be strictly decreasing, got {} then {}",
                    pair[0], pair[1]
                )));
            }
        }
        if !bounds.iter().all(|b| b.is_finite() && *b >= 0.0) {
            return Err(ConfigError::new("bounds must be finite and non-negative"));
        }
        if bounds.last().copied() != Some(0.0) {
            return Err(ConfigError::new(
                "last bound must be 0 so that a level always asserts",
            ));
        }
        Ok(PriorityMap { bounds, bits })
    }

    /// Builds a linear ramp: level 0 asserts at `relaxed`, the next-to-last
    /// level at `critical`, and the last level always.
    ///
    /// Useful for the ablation over priority widths k ∈ 1..=4.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `relaxed <= critical` or `critical <= 0`.
    pub fn linear(bits: PriorityBits, relaxed: f64, critical: f64) -> Result<Self, ConfigError> {
        let gt = |a: f64, b: f64| a.partial_cmp(&b) == Some(std::cmp::Ordering::Greater);
        if !gt(relaxed, critical) || !gt(critical, 0.0) {
            return Err(ConfigError::new(format!(
                "need relaxed > critical > 0, got {relaxed} and {critical}"
            )));
        }
        let levels = bits.levels();
        let mut bounds = Vec::with_capacity(levels);
        if levels == 2 {
            bounds.push(relaxed);
        } else {
            let steps = (levels - 2) as f64;
            for p in 0..levels - 1 {
                bounds.push(relaxed - (relaxed - critical) * p as f64 / steps);
            }
        }
        bounds.push(0.0);
        Self::from_bounds(bits, bounds)
    }

    /// The encoding width.
    #[inline]
    pub fn bits(&self) -> PriorityBits {
        self.bits
    }

    /// The per-level lower bounds (level 0 first).
    #[inline]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Translates an NPI sample to a priority level: the lowest level whose
    /// stored bound does not exceed the NPI (parallel-comparator semantics).
    pub fn map(&self, npi: Npi) -> Priority {
        let v = npi.as_f64();
        for (level, bound) in self.bounds.iter().enumerate() {
            if v >= *bound {
                return Priority::new(level as u8);
            }
        }
        // Unreachable: the last bound is 0 and NPI is non-negative.
        self.bits.max_level()
    }
}

impl Default for PriorityMap {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn paper_default_boundaries() {
        let m = PriorityMap::paper_default();
        assert_eq!(m.map(Npi::new(1.25)), Priority::new(0));
        assert_eq!(m.map(Npi::new(1.24)), Priority::new(1));
        assert_eq!(m.map(Npi::new(1.0)), Priority::new(3));
        assert_eq!(m.map(Npi::new(0.0)), Priority::new(7));
        assert_eq!(m.map(Npi::new(f64::INFINITY)), Priority::new(0));
    }

    #[test]
    fn latency_sensitive_floors_at_three() {
        let m = PriorityMap::latency_sensitive();
        assert_eq!(m.map(Npi::new(5.0)), Priority::new(3));
        assert_eq!(m.map(Npi::new(1.0)), Priority::new(4));
        assert_eq!(m.map(Npi::new(0.5)), Priority::new(7));
        // Only a truly idle meter relaxes below the floor.
        assert_eq!(m.map(Npi::new(f64::INFINITY)), Priority::new(0));
    }

    #[test]
    fn from_bounds_validation() {
        let bits = PriorityBits::PAPER;
        assert!(PriorityMap::from_bounds(bits, vec![1.0; 8]).is_err()); // not decreasing
        assert!(PriorityMap::from_bounds(bits, vec![8.0, 7.0, 6.0]).is_err()); // wrong len
        let mut ok = vec![7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.5];
        assert!(PriorityMap::from_bounds(bits, ok.clone()).is_err()); // last != 0
        *ok.last_mut().unwrap() = 0.0;
        assert!(PriorityMap::from_bounds(bits, ok).is_ok());
    }

    #[test]
    fn linear_ramp_widths() {
        for bits in 1..=4u8 {
            let bits = PriorityBits::new(bits).unwrap();
            let m = PriorityMap::linear(bits, 1.25, 0.7).unwrap();
            assert_eq!(m.bounds().len(), bits.levels());
            assert_eq!(m.map(Npi::new(10.0)), Priority::new(0));
            assert_eq!(m.map(Npi::new(0.0)), bits.max_level());
        }
        assert!(PriorityMap::linear(PriorityBits::PAPER, 0.5, 0.7).is_err());
    }

    /// Lower NPI must never map to a *less* urgent priority.
    #[test]
    fn monotone_urgency() {
        let mut rng = StdRng::seed_from_u64(0x9a70_0001);
        let m = PriorityMap::paper_default();
        for _ in 0..512 {
            let a = rng.gen_range(0.0f64..4.0);
            let b = rng.gen_range(0.0f64..4.0);
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            assert!(m.map(Npi::new(lo)) >= m.map(Npi::new(hi)));
        }
    }

    /// The mapped level is always representable in the encoding width.
    #[test]
    fn level_in_range() {
        let mut rng = StdRng::seed_from_u64(0x9a70_0002);
        let m = PriorityMap::paper_default();
        for _ in 0..512 {
            let v = rng.gen_range(0.0f64..100.0);
            assert!(m.map(Npi::new(v)) <= m.bits().max_level());
        }
    }
}
