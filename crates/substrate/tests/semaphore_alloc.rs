//! Waiting costs a wait-list entry and no allocation of its own:
//! - a queued `Semaphore` acquirer: parking `n` acquirers behind one held
//!   permit and serving them all allocates only as the queue's buffer grows;
//! - a `TaskGroup` member: `run` holds the member inline, so `n` members
//!   that park and then complete, or that one `cancel` tears down, allocate
//!   only as the group's wait list grows.
//!
//! Each costs O(log n) allocations. One test in its own binary, so the
//! counting allocator sees no other test's work; it counts only on the
//! thread that enables it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use hm_substrate::sync::{Acquire, Cancelled, RunCancellable, Semaphore, TaskGroup};

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

const N: usize = 1_000;

fn poll<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
    Pin::new(fut).poll(&mut Context::from_waker(Waker::noop()))
}

/// Allocations to queue `N` acquirers behind one held permit and serve them
/// all in order.
fn queued_acquirers_allocs() -> u64 {
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
    allocs
}

/// A group member: pending at its first poll, ready at the next.
struct ParkOnce(bool);

impl Future for ParkOnce {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            return Poll::Ready(());
        }
        self.0 = true;
        Poll::Pending
    }
}

/// Allocations for `N` members of one group to join it and park, then to
/// run to completion, or (`cancel`) to be torn down by one `cancel`.
fn group_members_allocs(cancel: bool) -> u64 {
    let group = TaskGroup::new();
    let mut members: Vec<RunCancellable<ParkOnce>> = Vec::with_capacity(N);
    let allocs = allocs_in(|| {
        for _ in 0..N {
            let mut member = group.run(ParkOnce(false));
            assert!(poll(&mut member).is_pending());
            members.push(member);
        }
        assert_eq!(group.members(), N);
        if cancel {
            group.cancel();
        }
        for member in &mut members {
            let expect = if cancel { Err(Cancelled) } else { Ok(()) };
            assert_eq!(poll(member), Poll::Ready(expect));
        }
    });
    assert_eq!(group.members(), 0);
    allocs
}

#[test]
fn queued_acquirers_allocate_only_for_queue_growth() {
    // A doubling buffer reaches N entries in about log2(N) growths.
    let bound = 2 * u64::from(N.ilog2() + 1);
    for (what, allocs) in [
        ("queued acquirers", queued_acquirers_allocs()),
        ("completed group members", group_members_allocs(false)),
        ("cancelled group members", group_members_allocs(true)),
    ] {
        println!("{N} {what}: {allocs} allocations (bound {bound})");
        assert!(allocs <= bound, "{allocs} allocations for {N} {what}");
    }
}
