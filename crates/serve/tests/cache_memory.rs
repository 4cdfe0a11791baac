//! A cache entry is its report's compact JSON and rank key, nothing more:
//! once the 60 catalog × policy reports are inserted and dropped, the
//! heap the cache retains is at most the entries' JSON bytes plus
//! [`PER_ENTRY`] each. An entry that kept its `SimReport` held about
//! twice its JSON.
//!
//! A counting global allocator tracks live bytes, so this binary holds
//! this one test: another test running beside it would allocate into the
//! same counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sara_memctrl::PolicyKind;
use sara_scenarios::{catalog, cell_fingerprint, run_cell, CellSpec};
use sara_serve::ResultCache;

/// Heap an entry may hold beyond its JSON: the shared handle, the rank
/// key and the map slot.
const PER_ENTRY: usize = 512;

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
fn a_cache_entry_retains_its_json_and_little_else() {
    let scenarios = catalog::builtin();
    let base = LIVE.load(Ordering::SeqCst);

    let mut cache = ResultCache::new();
    let mut keys = Vec::new();
    for scenario in &scenarios {
        for policy in PolicyKind::ALL {
            let cell = CellSpec {
                scenario: 0,
                policy,
                freq: scenario.freq,
                channels: scenario.channels,
                duration_ms: 0.05,
            };
            let key = cell_fingerprint(scenario, &cell, sara_sim::ENGINE_VERSION);
            let report = run_cell(scenario, &cell).expect("a catalog cell runs");
            cache.insert(key, report);
            keys.push(key);
        }
    }
    assert_eq!(cache.len(), 60);
    let retained = LIVE.load(Ordering::SeqCst) - base - keys.capacity() * size_of::<u64>();

    let json: usize = keys
        .iter()
        .map(|&key| cache.lookup(key).expect("cached").json().len())
        .sum();
    let bound = json + PER_ENTRY * keys.len();
    assert!(
        retained >= json,
        "the cache retains {retained} bytes, less than its {json} bytes of JSON"
    );
    assert!(
        retained <= bound,
        "the cache retains {retained} bytes for {json} bytes of JSON (bound {bound})"
    );
}
