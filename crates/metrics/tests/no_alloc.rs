//! Once its per-thread buffers have grown, a Wasserstein metric call
//! performs no heap allocation.
//!
//! The counting allocator is process-wide, so this file holds a single test:
//! no other test thread allocates while it measures.

use dwv_geom::{HalfSpace, Region};
use dwv_interval::IntervalBox;
use dwv_metrics::WassersteinMetric;
use dwv_reach::Flowpipe;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards every call to the system allocator unchanged; the
// counter is a plain atomic with no effect on the allocation itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: as for `alloc`, the caller upholds the trait's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn metric_calls_do_not_allocate_once_warm() {
    let universe = IntervalBox::from_bounds(&[(-10.0, 10.0), (-10.0, 10.0)]);
    let goal = Region::from_box(IntervalBox::from_bounds(&[(4.0, 6.0), (-1.0, 1.0)]));
    let boxed = Region::from_box(IntervalBox::from_bounds(&[(-6.0, -4.0), (-1.0, 1.0)]));
    let half = Region::from_halfspace(HalfSpace::new(vec![1.0, 0.0], -5.0));
    let fp = Flowpipe::from_boxes(
        vec![IntervalBox::from_bounds(&[(-1.0, 2.0), (0.0, 1.0)])],
        0.1,
    );
    for unsafe_region in [boxed, half] {
        let mut m = WassersteinMetric::new(unsafe_region, goal.clone(), universe.clone());
        m.samples = 48;
        // Warm-up: grows this thread's buffers to 48 points.
        let _ = m.evaluate(&fp);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for cap in [0.5, 50.0] {
            let _ = m.evaluate(&fp);
            let _ = m.capped_distances(&fp, cap);
        }
        assert_eq!(ALLOCATIONS.load(Ordering::Relaxed), before);
    }
}
