//! Counting global allocator for the allocation-budget benchmarks.
//!
//! The zero-copy hot-path work (DESIGN.md §11) is only provable with an
//! allocator-level oracle: wall time on a loaded CI box is too noisy to
//! catch a reintroduced per-op clone, but *allocations per operation* is a
//! deterministic function of the code path for a seeded simulation. This
//! module provides a [`GlobalAlloc`] wrapper that counts every allocation
//! and allocated byte with relaxed atomics (a handful of nanoseconds per
//! call — it does not perturb what it measures), plus a snapshot/delta API
//! so a bench can charge a phase's churn to a specific component.
//!
//! Install it in a binary and bracket the measured phase with
//! [`AllocSnapshot::take`] / [`AllocSnapshot::since`]:
//!
//! ```
//! use std::hint::black_box;
//!
//! use hm_bench::alloc::{AllocSnapshot, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//!
//! fn main() {
//!     let before = AllocSnapshot::take();
//!     let v: Vec<u64> = black_box(Vec::with_capacity(16));
//!     let delta = AllocSnapshot::take().since(&before);
//!     assert!(delta.allocs >= 1 && delta.bytes >= 128, "{delta:?}");
//!     drop(v);
//! }
//! ```
//!
//! Only allocations and reallocation *growth* are
//! counted; frees are tracked separately so leak-shaped regressions are
//! visible too. `realloc` charges just the grown bytes (shrinks charge
//! nothing): growing a `Vec` in place is not new memory pressure, which is
//! exactly the distinction an arena-recycling audit cares about.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREE_COUNT: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts calls and bytes.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters are plain relaxed
// atomics with no reentrant allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREE_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A point-in-time reading of the allocator counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocator calls (`alloc` + `alloc_zeroed` + `realloc`).
    pub allocs: u64,
    /// Bytes requested by those calls (realloc charges growth only).
    pub bytes: u64,
    /// `dealloc` calls.
    pub frees: u64,
}

impl AllocSnapshot {
    /// Reads the current counters.
    #[must_use]
    pub fn take() -> AllocSnapshot {
        AllocSnapshot {
            allocs: ALLOC_COUNT.load(Ordering::Relaxed),
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            frees: FREE_COUNT.load(Ordering::Relaxed),
        }
    }

    /// Counter deltas accumulated since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.wrapping_sub(earlier.allocs),
            bytes: self.bytes.wrapping_sub(earlier.bytes),
            frees: self.frees.wrapping_sub(earlier.frees),
        }
    }
}

/// Per-phase allocation rates for one measured hot path.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocRate {
    /// Allocator calls per operation.
    pub allocs_per_op: f64,
    /// Allocated bytes per operation.
    pub bytes_per_op: f64,
}

impl AllocRate {
    /// Divides a snapshot delta by an operation count.
    #[must_use]
    pub fn per_op(delta: AllocSnapshot, ops: u64) -> AllocRate {
        let n = ops.max(1) as f64;
        AllocRate {
            allocs_per_op: delta.allocs as f64 / n,
            bytes_per_op: delta.bytes as f64 / n,
        }
    }
}
