//! The cache's byte budget under a soak: 10⁴ distinct cells through a
//! 256 KiB budget. The JSON the cache holds never exceeds the budget, is
//! exactly the sum of its entries' `json().len()`, and once the inserted
//! reports are dropped the heap the cache retains is at most the budget
//! plus [`PER_ENTRY`] an entry — however many cells went through it.
//!
//! A counting global allocator tracks live bytes, so this binary holds
//! this one test: another test running beside it would allocate into the
//! same counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sara_memctrl::PolicyKind;
use sara_scenarios::{catalog, run_cell, CellSpec};
use sara_serve::ResultCache;
use sara_sim::SimReport;

/// Heap an entry may hold beyond its JSON: the shared handle, the rank
/// key, the map slot and the ring slot.
const PER_ENTRY: usize = 512;

/// The byte budget under test.
const BUDGET: usize = 256 << 10;

/// Distinct keys inserted.
const KEYS: u64 = 10_000;

static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_add(new_size, Ordering::SeqCst);
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn ten_thousand_cells_stay_within_the_byte_budget() {
    // Six reports of different sizes, one per policy, inserted in turn
    // under fresh keys.
    let scenario = catalog::by_name("camcorder-b").expect("a catalog entry");
    let reports: Vec<SimReport> = PolicyKind::ALL
        .into_iter()
        .map(|policy| {
            let cell = CellSpec {
                scenario: 0,
                policy,
                freq: scenario.freq,
                channels: scenario.channels,
                duration_ms: 0.01,
            };
            run_cell(&scenario, &cell).expect("a catalog cell runs")
        })
        .collect();
    let base = LIVE.load(Ordering::SeqCst);

    let mut cache = ResultCache::with_budget(BUDGET);
    for key in 0..KEYS {
        cache.insert(key, reports[key as usize % reports.len()].clone());
        assert!(
            cache.bytes() <= BUDGET,
            "{} bytes of JSON after key {key}",
            cache.bytes()
        );
    }
    let retained = LIVE.load(Ordering::SeqCst) - base;
    let bound = BUDGET + PER_ENTRY * cache.len();
    assert!(
        retained <= bound,
        "the cache retains {retained} bytes for {} entries (bound {bound})",
        cache.len()
    );

    // Nothing was read, so the entries kept are the newest, and the
    // budget counts their JSON exactly.
    let kept = cache.len() as u64;
    assert!(kept > 1, "{kept} entries");
    let json: usize = (KEYS - kept..KEYS)
        .map(|key| {
            cache
                .lookup(key)
                .expect("a newest key is kept")
                .json()
                .len()
        })
        .sum();
    assert_eq!(json, cache.bytes());
    assert!(cache.lookup(KEYS - kept - 1).is_none());
}
