//! The content-addressed result cache behind the "no cell is ever
//! simulated twice" guarantee.
//!
//! Keys are [`sara_scenarios::cell_fingerprint`] values: a 64-bit content
//! hash over the cell's canonical scenario document, its
//! policy/frequency/channel/duration overrides, and the engine version.
//! Because every simulation input is covered by the key and the engine is
//! deterministic, a cached report is byte-identical (through
//! `SimReport::to_json_value`) to what a fresh simulation of the same
//! cell would produce — which is what lets the server serve hits without
//! perturbing the byte-level output contract.

use std::collections::HashMap;

use sara_sim::SimReport;

/// An in-memory fingerprint → report store with hit/miss accounting.
#[derive(Debug, Default)]
pub struct ResultCache {
    reports: HashMap<u64, SimReport>,
    hits: u64,
    misses: u64,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Looks a fingerprint up, counting the outcome: a hit bumps the hit
    /// counter, a miss the miss counter.
    pub fn lookup(&mut self, fingerprint: u64) -> Option<SimReport> {
        match self.reports.get(&fingerprint) {
            Some(report) => {
                self.hits += 1;
                Some(report.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a freshly simulated report under its fingerprint.
    pub fn insert(&mut self, fingerprint: u64, report: SimReport) {
        self.reports.insert(fingerprint, report);
    }

    /// Number of distinct cells cached.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Lifetime (hits, misses) across all lookups.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sara_memctrl::PolicyKind;
    use sara_scenarios::{catalog, cell_fingerprint, run_cell, CellSpec};

    #[test]
    fn lookup_counts_and_returns_identical_reports() {
        let scenario = catalog::by_name("camcorder-b").unwrap();
        let cell = CellSpec {
            scenario: 0,
            policy: PolicyKind::Fcfs,
            freq: scenario.freq,
            channels: scenario.channels,
            duration_ms: 0.05,
        };
        let key = cell_fingerprint(&scenario, &cell, sara_sim::ENGINE_VERSION);
        let report = run_cell(&scenario, &cell).unwrap();

        let mut cache = ResultCache::new();
        assert!(cache.is_empty());
        assert!(cache.lookup(key).is_none());
        cache.insert(key, report.clone());
        assert_eq!(cache.len(), 1);
        let hit = cache.lookup(key).expect("cached");
        assert_eq!(
            hit.to_json_value().to_string_compact(),
            report.to_json_value().to_string_compact(),
            "a cache hit is byte-identical to the stored report"
        );
        assert_eq!(cache.stats(), (1, 1));
    }
}
