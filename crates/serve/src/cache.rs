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
//!
//! An entry ([`CachedReport`]) is the report's compact JSON plus its
//! [`RankKey`]: the only bytes a hit ever sends, and the only facts a
//! job's summary and artifact rankings read. The JSON is rendered once,
//! when the cell is simulated, and that rendering is both the record the
//! simulating job streams and what every later hit copies; the report
//! itself is dropped right after. A catalog report of 0.01–0.2 simulated
//! ms holds 5.6–14.6 KB of heap (36–52 % of it telemetry histograms,
//! which store only the buckets they filled) while its compact JSON is
//! 6.1–13.4 KB. Over the 60 catalog × policy cells at 0.05 ms
//! (`tests/cache_memory.rs`) the cache retains 8.3 KB an entry — its
//! 8.2 KB of JSON plus under 100 B — about what an entry that kept its
//! report would retain (7.8 KB), and `json().len()` plus a small
//! constant is an entry's whole size. The cache hands entries out behind an [`Arc`], so a hit
//! copies a pointer under the cache lock and nothing else.

use std::collections::HashMap;
use std::sync::Arc;

use sara_scenarios::RankKey;
use sara_sim::SimReport;

/// One cache entry: a report's compact JSON and rank key.
#[derive(Debug)]
pub struct CachedReport {
    json: Box<str>,
    key: RankKey,
}

impl CachedReport {
    /// Renders a report into an entry; the report is not kept.
    pub(crate) fn new(report: &SimReport) -> Self {
        CachedReport {
            // Boxed: the stored copy keeps no spare capacity.
            json: report.to_json_value().to_string_compact().into_boxed_str(),
            key: RankKey::of(report),
        }
    }

    /// The report's compact JSON: `to_json_value().to_string_compact()`.
    pub fn json(&self) -> &str {
        &self.json
    }

    /// What the rankings read of the report.
    pub fn key(&self) -> RankKey {
        self.key
    }
}

/// An in-memory fingerprint → report store. The server counts its hits
/// and misses (`cache_hits`/`cache_misses`).
#[derive(Debug, Default)]
pub struct ResultCache {
    reports: HashMap<u64, Arc<CachedReport>>,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Looks a fingerprint up. A hit shares the entry; no report is
    /// copied.
    pub fn lookup(&self, fingerprint: u64) -> Option<Arc<CachedReport>> {
        self.reports.get(&fingerprint).map(Arc::clone)
    }

    /// Renders a freshly simulated report and stores the entry under its
    /// fingerprint.
    pub fn insert(&mut self, fingerprint: u64, report: SimReport) {
        self.insert_shared(fingerprint, Arc::new(CachedReport::new(&report)));
    }

    /// Stores an entry its producer keeps a handle on: the rendering is
    /// shared with the job that simulated it, not copied.
    pub(crate) fn insert_shared(&mut self, fingerprint: u64, entry: Arc<CachedReport>) {
        self.reports.insert(fingerprint, entry);
    }

    /// Number of distinct cells cached.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sara_memctrl::PolicyKind;
    use sara_scenarios::{catalog, cell_fingerprint, run_cell, CellSpec};

    fn camcorder_b_fcfs() -> (u64, SimReport) {
        let scenario = catalog::by_name("camcorder-b").unwrap();
        let cell = CellSpec {
            scenario: 0,
            policy: PolicyKind::Fcfs,
            freq: scenario.freq,
            channels: scenario.channels,
            duration_ms: 0.05,
        };
        let key = cell_fingerprint(&scenario, &cell, sara_sim::ENGINE_VERSION);
        (key, run_cell(&scenario, &cell).unwrap())
    }

    #[test]
    fn lookup_returns_identical_reports() {
        let (key, report) = camcorder_b_fcfs();
        let mut cache = ResultCache::new();
        assert!(cache.is_empty());
        assert!(cache.lookup(key).is_none());
        cache.insert(key, report.clone());
        assert_eq!(cache.len(), 1);
        let hit = cache.lookup(key).expect("cached");
        assert_eq!(
            hit.json(),
            report.to_json_value().to_string_compact(),
            "a cache hit is byte-identical to the stored report"
        );
    }

    #[test]
    fn hits_share_one_entry_rendered_when_inserted() {
        let (key, report) = camcorder_b_fcfs();
        let mut cache = ResultCache::new();
        cache.insert(key, report.clone());
        cache.insert(key + 1, report.clone());

        let first = cache.lookup(key).expect("cached");
        let second = cache.lookup(key).expect("cached");
        assert!(Arc::ptr_eq(&first, &second), "a hit copies a pointer");
        assert_eq!(first.json(), report.to_json_value().to_string_compact());
        assert_eq!(first.key(), RankKey::of(&report));
        assert!(
            std::ptr::eq(first.json(), second.json()),
            "every hit reads the one rendering"
        );

        assert!(cache.lookup(key + 2).is_none());
        assert!(cache.lookup(key + 1).is_some());
        assert_eq!(cache.len(), 2);
    }
}
