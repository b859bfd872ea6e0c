//! A warm pool dispatches without touching the heap: a steady-state
//! `par_chunks_mut(..).enumerate().for_each(..)` call at 2 workers makes
//! no allocation on any thread. This file holds a single test so no other
//! test allocates while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rayon::prelude::*;

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards every request to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn warm_dispatch_makes_no_heap_allocation() {
    let mut data = vec![0u64; 2 * 4096];
    let caller = std::thread::current().id();
    let helped = AtomicBool::new(false);
    let step = |data: &mut [u64]| {
        data.par_chunks_mut(4096)
            .enumerate()
            .for_each(|(i, chunk)| {
                if std::thread::current().id() != caller {
                    helped.store(true, Ordering::Relaxed);
                }
                for v in chunk.iter_mut() {
                    *v = v.wrapping_mul(31).wrapping_add(i as u64);
                }
            });
    };
    rayon::with_num_threads(2, || {
        // Warm up until the helper has been spawned and has run a chunk,
        // so its one-time start-up is behind us.
        for _ in 0..100_000 {
            step(&mut data);
            if helped.load(Ordering::Relaxed) {
                break;
            }
        }
        assert!(
            helped.load(Ordering::Relaxed),
            "no pool helper ever ran a chunk"
        );
        ARMED.store(true, Ordering::SeqCst);
        for _ in 0..1000 {
            step(&mut data);
        }
        ARMED.store(false, Ordering::SeqCst);
    });
    assert_eq!(
        ALLOCS.load(Ordering::SeqCst),
        0,
        "heap allocations in warm dispatch"
    );
}
