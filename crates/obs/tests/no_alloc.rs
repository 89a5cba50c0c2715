//! The null-sink hot path must not allocate. This binary installs a counting
//! global allocator and holds exactly one test so no concurrent test can
//! pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn null_sink_hot_path_allocates_nothing() {
    use dgs_obs::MetricsSink;

    let sink = MetricsSink::null();
    // Handle resolution and operations on the null sink: zero allocations.
    let before = ALLOCATIONS.load(Relaxed);
    let counter = sink.counter("dgs_test_zero_alloc_counter");
    let gauge = sink.gauge("dgs_test_zero_alloc_gauge");
    let hist = sink.histogram("dgs_test_zero_alloc_hist");
    for i in 0..10_000u64 {
        counter.inc();
        counter.add(i);
        gauge.set(i as i64);
        gauge.add(1);
        hist.record(i);
        hist.start_timer().observe();
        let c2 = counter.clone();
        c2.inc();
    }
    let after = ALLOCATIONS.load(Relaxed);
    assert_eq!(
        after - before,
        0,
        "null-sink hot path allocated {} times",
        after - before
    );
}
