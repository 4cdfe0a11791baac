//! The content-addressed result cache behind the serve guarantee that
//! no cell is simulated twice within a job, nor twice across jobs while
//! its entry is within the cache's byte budget.
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
//! constant is an entry's whole size. The cache hands entries out behind
//! an [`Arc`], so a hit copies a pointer and sets one flag under the
//! cache lock, and nothing else.
//!
//! The cache keeps at most a byte budget of JSON, counted exactly as the
//! sum of its entries' `json().len()`, and evicts in least-recently-used
//! order approximated by CLOCK: every entry carries a reference bit that
//! a hit sets, an insert queues its key on a ring, and while the cache is
//! over budget the key at the ring's front either gets a second chance
//! (its bit was set: clear it, requeue the key) or is evicted. An entry
//! read since the hand last passed it therefore outlives every entry
//! nobody read again, and a hit stays `&self`, O(1) and allocation-free.
//! An entry larger than the whole budget is not kept. Eviction never
//! changes an output byte: an evicted cell re-simulates to the same
//! report, so only the hit/miss split of a later job moves.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sara_scenarios::RankKey;
use sara_sim::SimReport;

/// The default byte budget of a [`ResultCache`]: 2 MiB of JSON, four
/// times the 60 catalog × policy cells at 0.05 ms (about 0.5 MB).
pub const DEFAULT_CACHE_MAX_BYTES: usize = 2 << 20;

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

/// A stored entry and its CLOCK reference bit.
#[derive(Debug)]
struct Slot {
    entry: Arc<CachedReport>,
    /// Set by every hit, cleared when the hand gives the entry a second
    /// chance.
    referenced: AtomicBool,
}

/// An in-memory fingerprint → report store within a byte budget. The
/// server counts its hits, misses and evictions (`cache_hits`,
/// `cache_misses`, `cache_evictions`).
#[derive(Debug)]
pub struct ResultCache {
    slots: HashMap<u64, Slot>,
    /// Every stored key once, in the order the hand visits them.
    ring: VecDeque<u64>,
    /// Σ `json().len()` over the stored entries.
    bytes: usize,
    budget: usize,
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::with_budget(DEFAULT_CACHE_MAX_BYTES)
    }
}

impl ResultCache {
    /// An empty cache with the [`DEFAULT_CACHE_MAX_BYTES`] budget.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// An empty cache that keeps at most `budget` bytes of JSON (0 keeps
    /// nothing).
    pub fn with_budget(budget: usize) -> Self {
        ResultCache {
            slots: HashMap::new(),
            ring: VecDeque::new(),
            bytes: 0,
            budget,
        }
    }

    /// Looks a fingerprint up. A hit shares the entry, no report is
    /// copied, and the entry is marked as read for the eviction hand.
    pub fn lookup(&self, fingerprint: u64) -> Option<Arc<CachedReport>> {
        let slot = self.slots.get(&fingerprint)?;
        // Relaxed: the bit publishes no data, and the hand reads it
        // through `&mut self`.
        slot.referenced.store(true, Ordering::Relaxed);
        Some(Arc::clone(&slot.entry))
    }

    /// Renders a freshly simulated report and stores the entry under its
    /// fingerprint, evicting what the budget no longer holds.
    pub fn insert(&mut self, fingerprint: u64, report: SimReport) {
        self.insert_shared(fingerprint, Arc::new(CachedReport::new(&report)));
    }

    /// Stores an entry its producer keeps a handle on (the rendering is
    /// shared with the job that simulated it, not copied), then evicts
    /// until the cache is within its budget. Returns the JSON size of each
    /// entry that left, in eviction order; an entry larger than the whole
    /// budget is not stored and is returned as evicted at once. A
    /// fingerprint already stored keeps its entry.
    pub(crate) fn insert_shared(
        &mut self,
        fingerprint: u64,
        entry: Arc<CachedReport>,
    ) -> Vec<usize> {
        let size = entry.json().len();
        if size > self.budget {
            return vec![size];
        }
        // Two sessions that missed the same cell both publish it; the
        // stored rendering has the same bytes.
        if self.slots.contains_key(&fingerprint) {
            return Vec::new();
        }
        let referenced = AtomicBool::new(false);
        self.slots.insert(fingerprint, Slot { entry, referenced });
        self.ring.push_back(fingerprint);
        self.bytes += size;
        let mut evicted = Vec::new();
        while self.bytes > self.budget {
            let key = self
                .ring
                .pop_front()
                .expect("a cache over budget holds an entry");
            let slot = self.slots.get_mut(&key).expect("every ring key is stored");
            if std::mem::take(slot.referenced.get_mut()) {
                self.ring.push_back(key);
                continue;
            }
            let size = slot.entry.json().len();
            self.slots.remove(&key);
            self.bytes -= size;
            evicted.push(size);
        }
        evicted
    }

    /// Number of distinct cells cached.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The JSON bytes the cache holds: Σ `json().len()` over its entries,
    /// never above its budget.
    pub fn bytes(&self) -> usize {
        self.bytes
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

    #[test]
    fn a_key_read_between_inserts_outlives_the_cold_ones() {
        let (_, report) = camcorder_b_fcfs();
        let entry = Arc::new(CachedReport::new(&report));
        let size = entry.json().len();
        let mut cache = ResultCache::with_budget(3 * size);
        for key in 0..3 {
            assert!(cache.insert_shared(key, Arc::clone(&entry)).is_empty());
        }
        for key in 3..20 {
            assert!(
                cache.lookup(0).is_some(),
                "key 0 left before key {key} came"
            );
            assert_eq!(cache.insert_shared(key, Arc::clone(&entry)), [size]);
            assert_eq!((cache.len(), cache.bytes()), (3, 3 * size));
        }
        // Cold keys leave oldest first; the warm one keeps its place.
        let kept: Vec<u64> = (0..20).filter(|k| cache.slots.contains_key(k)).collect();
        assert_eq!(kept, [0, 18, 19]);
    }
}
