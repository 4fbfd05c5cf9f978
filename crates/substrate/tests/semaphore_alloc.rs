//! A queued `Semaphore` acquirer costs its queue entry and no allocation of
//! its own: parking `n` acquirers behind one held permit and serving them
//! all allocates only as the queue's buffer grows, O(log n) times.
//!
//! One test in its own binary, so the counting allocator sees no other
//! test's work; it counts only on the thread that enables it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use hm_substrate::sync::{Acquire, Semaphore};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: forwards every call to `System` unchanged; the bookkeeping touches
// only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCS.with(Cell::get)
}

fn poll(acq: &mut Acquire) -> Poll<hm_substrate::sync::SemaphoreGuard> {
    Pin::new(acq).poll(&mut Context::from_waker(Waker::noop()))
}

#[test]
fn queued_acquirers_allocate_only_for_queue_growth() {
    const N: usize = 1_000;
    let sem = Semaphore::new(1);
    let Poll::Ready(held) = poll(&mut sem.acquire()) else {
        panic!("a free permit is granted at once");
    };
    let mut acquirers: Vec<Acquire> = Vec::with_capacity(N);
    let allocs = allocs_in(|| {
        for _ in 0..N {
            let mut acq = sem.acquire();
            assert!(poll(&mut acq).is_pending());
            acquirers.push(acq);
        }
        assert_eq!(sem.queue_len(), N);
        // Serve them all in order: each guard, dropped, grants the next.
        drop(held);
        for acq in &mut acquirers {
            let Poll::Ready(guard) = poll(acq) else {
                panic!("the previous release granted this acquirer");
            };
            drop(guard);
        }
    });
    assert_eq!((sem.entries(), sem.available()), (0, 1));
    // A doubling buffer reaches N entries in about log2(N) growths.
    let bound = 2 * u64::from(N.ilog2() + 1);
    println!("{N} queued acquirers: {allocs} allocations (bound {bound})");
    assert!(
        allocs <= bound,
        "{allocs} allocations for {N} queued acquirers"
    );
}
