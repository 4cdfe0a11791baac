//! What a matrix summary costs in heap. The catalog × six-policy summary
//! at 0.01 simulated ms must retain at most [`CELL_BOUND`] a cell: its
//! reports' telemetry histograms store only the buckets they filled
//! (about 7.5 KB a cell), where fixed 65-bucket histograms retained about
//! 16 KB. And its emit holds one cell, not the grid: writing the summary
//! must raise the peak live heap by less than [`BOUND`] over its level
//! before the write. Assembling the whole document as one `Value` tree
//! plus one `String` first, as the emit once did, raised it by about
//! 3.3 MB.
//!
//! A counting global allocator tracks live and peak bytes, so this binary
//! holds this one test: another test running beside it would allocate
//! into the same counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sara_scenarios::{catalog, run_matrix, MatrixSpec, ScreenMode};

/// Heap a summary may retain per cell.
const CELL_BOUND: usize = 10 << 10;

/// Peak heap rise the emit may cost.
const BOUND: usize = 256 << 10;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::SeqCst) + by;
        PEAK.fetch_max(live, Ordering::SeqCst);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Counting::grew(layout.size());
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
            if new_size >= layout.size() {
                Counting::grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::SeqCst);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn writing_the_catalog_matrix_holds_one_cell_not_the_grid() {
    let spec = MatrixSpec {
        duration_ms: Some(0.01),
        threads: 2,
        screen: ScreenMode::Off,
        ..MatrixSpec::default()
    };
    let scenarios = catalog::builtin();
    let before = LIVE.load(Ordering::SeqCst);
    let summary = run_matrix(&scenarios, &spec).expect("the catalog runs");
    assert_eq!(summary.cells.len(), 60);
    let per_cell = (LIVE.load(Ordering::SeqCst) - before) / summary.cells.len();
    assert!(
        per_cell <= CELL_BOUND,
        "the summary retains {per_cell} bytes a cell (bound {CELL_BOUND})"
    );

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    summary
        .to_json_writer(&mut std::io::sink())
        .expect("the sink accepts everything");
    let rise = PEAK.load(Ordering::SeqCst) - base;
    assert!(
        rise < BOUND,
        "the emit raised the peak live heap by {rise} bytes (bound {BOUND})"
    );
}
