//! The virtual-time async executor: the one machine every deployment in
//! this workspace runs on.
//!
//! [`Sim`] owns the task slab, the timer wheel, the virtual clock and a
//! seeded RNG, and is the run-loop owner; [`Ctx`] is the weak, clonable
//! handle tasks reach it through, and the one context type the rest of the
//! workspace sees. The ready queue is FIFO, timers tie-break by
//! registration order and all randomness flows from the one seeded
//! `SmallRng`, so two runs with the same seed interleave identically.
//!
//! Single-threaded: futures need not be `Send`, and all shared state inside
//! a simulation can use `Rc<RefCell<…>>`. Wakers are hand-rolled over `Rc`
//! (see [`WakeData`]) — the `Send + Sync` contract of `std::task::Waker` is
//! upheld vacuously because nothing in a simulation ever crosses a thread.
//!
//! ## Internals
//!
//! Tasks live in a generational slab: a `TaskId` is (index, generation),
//! so completed-then-reused slots make stale wakes cheap no-ops instead of
//! requiring a hash lookup. Each task's waker is built once at spawn and
//! reused for every poll.
//!
//! Timers live in a hierarchical timer wheel (1024 ns ticks, 64-bucket
//! levels, ≈ 19.5 h horizon): a small binary heap orders the near window
//! (next 64 ticks) exactly, coarse buckets with cached minima hold the far
//! mass, and a `BinaryHeap` fallback takes deadlines past the horizon.
//! Simultaneous deadlines fire in registration order — the wheel preserves
//! the exact `(deadline, seq)` total order the previous heap implementation
//! had, which fixed-seed golden tests pin.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::Time;

/// Converts a virtual instant to nanoseconds, saturating past ~584 years.
fn dur_ns(d: Time) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Ready queue and wakers
// ---------------------------------------------------------------------------

/// FIFO of (task index, generation) pairs. Plain `RefCell`: the executor is
/// single-threaded, so the old mutex bought nothing but lock traffic.
struct ReadyQueue {
    queue: RefCell<VecDeque<(u32, u32)>>,
}

impl ReadyQueue {
    fn push(&self, idx: u32, gen: u32) {
        self.queue.borrow_mut().push_back((idx, gen));
    }

    fn pop(&self) -> Option<(u32, u32)> {
        self.queue.borrow_mut().pop_front()
    }
}

/// Per-task waker payload: created once at spawn, shared by every clone of
/// the task's `Waker`.
///
/// `idx`/`gen` are `Cell`s so a retired payload can be re-targeted at a new
/// task and recycled through [`Inner::take_wake_data`] — legal only while the
/// executor holds the sole strong reference (checked at recycle time), so no
/// live `Waker` clone can ever observe the retarget.
struct WakeData {
    idx: Cell<u32>,
    gen: Cell<u32>,
    ready: Rc<ReadyQueue>,
}

// SAFETY (whole vtable): `Waker` nominally requires `Send + Sync`, but this
// executor is strictly single-threaded — `Sim`, its tasks, and every waker
// clone live and die on one thread (`Sim` is `!Send`: it holds `Rc`s, and
// spawned futures are not required to be `Send`). The `Rc` refcount and the
// `RefCell` ready queue are therefore never touched concurrently.
//
// A `static`, not a `const`: every `&VTABLE` must name one address, or a
// waker and its own clone could carry different promoted copies of the table
// and `Waker::will_wake` would never recognise them as the same task.
static VTABLE: RawWakerVTable = RawWakerVTable::new(clone_w, wake_w, wake_by_ref_w, drop_w);

unsafe fn clone_w(p: *const ()) -> RawWaker {
    unsafe { Rc::increment_strong_count(p.cast::<WakeData>()) };
    RawWaker::new(p, &VTABLE)
}

unsafe fn wake_w(p: *const ()) {
    let data = unsafe { Rc::from_raw(p.cast::<WakeData>()) };
    data.ready.push(data.idx.get(), data.gen.get());
}

unsafe fn wake_by_ref_w(p: *const ()) {
    let data = unsafe { &*p.cast::<WakeData>() };
    data.ready.push(data.idx.get(), data.gen.get());
}

unsafe fn drop_w(p: *const ()) {
    drop(unsafe { Rc::from_raw(p.cast::<WakeData>()) });
}

fn make_waker(data: Rc<WakeData>) -> Waker {
    let raw = RawWaker::new(Rc::into_raw(data).cast::<()>(), &VTABLE);
    unsafe { Waker::from_raw(raw) }
}

// ---------------------------------------------------------------------------
// Task slab
// ---------------------------------------------------------------------------

type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

struct TaskEntry {
    fut: LocalFuture,
    /// Built once at spawn; every poll borrows it instead of allocating.
    waker: Waker,
    /// The payload behind `waker`, retained so task completion can recycle
    /// it into [`Inner::waker_pool`] when no outside clone survives.
    wake: Rc<WakeData>,
}

/// Generational slab of live tasks. `gens[i]` outlives the entry so stale
/// ready-queue ids from earlier occupants are detected and skipped.
struct TaskSlab {
    slots: Vec<Option<TaskEntry>>,
    gens: Vec<u32>,
    free: Vec<u32>,
    live: usize,
}

impl TaskSlab {
    fn new() -> TaskSlab {
        TaskSlab {
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn insert(&mut self, entry: TaskEntry) -> (u32, u32) {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(entry);
            (idx, self.gens[idx as usize])
        } else {
            let idx = u32::try_from(self.slots.len()).expect("task slab overflow");
            self.slots.push(Some(entry));
            self.gens.push(0);
            (idx, 0)
        }
    }

    fn release(&mut self, idx: u32) {
        self.gens[idx as usize] = self.gens[idx as usize].wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
    }
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

/// One tick is 2^10 ns ≈ 1 µs: finer than any latency model in the suite,
/// so nearly all same-slot collisions are true same-instant timers.
const TICK_SHIFT: u32 = 10;
/// 64 slots per level.
const LEVEL_BITS: u32 = 6;
const SLOTS_PER_LEVEL: usize = 1 << LEVEL_BITS;
const SLOT_MASK: u64 = SLOTS_PER_LEVEL as u64 - 1;
/// 6 levels cover 64^6 ticks ≈ 19.5 h; farther deadlines overflow to a heap.
const LEVELS: usize = 6;

/// Timer registration. Slots are reused; `gen` disambiguates occupants so a
/// `Sleep` future holding (idx, gen) can tell "my timer fired" (generation
/// advanced) from "still pending".
struct TimerSlot {
    gen: u32,
    at_ns: u64,
    seq: u64,
    waker: Option<Waker>,
}

struct TimerWheel {
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
    /// Deadlines within the next 64 ticks, ordered by (at, seq). A heap,
    /// not buckets: dense simulations put hundreds of timers in the same
    /// tick, and a bucket would need an O(bucket) min-scan per advance
    /// where the heap pays O(log n) once per timer.
    near: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// `levels[l][s]` (l ≥ 1 only; index 0 is unused — the near heap plays
    /// that role) holds slab indices; order within a bucket is irrelevant
    /// (firing sorts by `(at, seq)`), so removal can swap.
    levels: [[Vec<u32>; SLOTS_PER_LEVEL]; LEVELS],
    /// Per-level occupancy bitmaps; bit `s` set iff `levels[l][s]` is
    /// non-empty. Scans are rotate + trailing_zeros, not bucket walks.
    occupied: [u64; LEVELS],
    /// Cached per-bucket `(at, seq)` minimum, maintained on push and
    /// recomputed only when a bucket loses entries — so the per-advance
    /// min comparison never walks a bucket.
    mins: [[Option<(u64, u64)>; SLOTS_PER_LEVEL]; LEVELS],
    /// Deadlines beyond the wheel horizon, ordered by (at, seq).
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Registration sequence; ties on `at` fire in this order.
    next_seq: u64,
    /// Pending registrations (near + wheel + overflow).
    pending: usize,
    /// Scratch for [`TimerWheel::take_due`], reused across calls so the
    /// once-per-instant firing path performs no allocation.
    due: Vec<u32>,
}

impl TimerWheel {
    fn new() -> TimerWheel {
        TimerWheel {
            slots: Vec::new(),
            free: Vec::new(),
            near: BinaryHeap::new(),
            levels: std::array::from_fn(|_| std::array::from_fn(|_| Vec::new())),
            occupied: [0; LEVELS],
            mins: [[None; SLOTS_PER_LEVEL]; LEVELS],
            overflow: BinaryHeap::new(),
            next_seq: 0,
            pending: 0,
            due: Vec::new(),
        }
    }

    /// Registers a deadline; returns the (slot, generation) handle the
    /// `Sleep` future polls against.
    fn register(&mut self, now_ns: u64, at_ns: u64) -> (u32, u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            slot.at_ns = at_ns;
            slot.seq = seq;
            debug_assert!(slot.waker.is_none());
            idx
        } else {
            let idx = u32::try_from(self.slots.len()).expect("timer slab overflow");
            self.slots.push(TimerSlot {
                gen: 0,
                at_ns,
                seq,
                waker: None,
            });
            idx
        };
        self.attach(now_ns >> TICK_SHIFT, idx);
        self.pending += 1;
        (idx, self.slots[idx as usize].gen)
    }

    /// Files `idx` into the near heap (next 64 ticks) or the finest coarse
    /// level whose 64-bucket window (measured in *window numbers*, not raw
    /// tick delta — when `now` is unaligned, a raw delta under `64^(l+1)`
    /// can still be 64 windows ahead, aliasing onto the current position's
    /// bucket) reaches the deadline.
    fn attach(&mut self, now_tick: u64, idx: u32) {
        let slot = &self.slots[idx as usize];
        let (at_ns, seq) = (slot.at_ns, slot.seq);
        let tick = at_ns >> TICK_SHIFT;
        if tick.saturating_sub(now_tick) < SLOTS_PER_LEVEL as u64 {
            self.near.push(Reverse((at_ns, seq, idx)));
            return;
        }
        for level in 1..LEVELS {
            let shift = LEVEL_BITS * level as u32;
            if (tick >> shift).saturating_sub(now_tick >> shift) < SLOTS_PER_LEVEL as u64 {
                let s = ((tick >> shift) & SLOT_MASK) as usize;
                self.levels[level][s].push(idx);
                self.occupied[level] |= 1 << s;
                let cand = (at_ns, seq);
                if self.mins[level][s].is_none_or(|m| cand < m) {
                    self.mins[level][s] = Some(cand);
                }
                return;
            }
        }
        self.overflow.push(Reverse((at_ns, seq, idx)));
    }

    /// Index of the earliest occupied bucket at `level`, scanning circularly
    /// from the bucket containing `now`. Sound because every pending tick at
    /// this level lies within one wrap of `now` (enforced by `attach` and
    /// the fact that the clock never passes an unfired timer).
    fn earliest_bucket(&self, level: usize, now_tick: u64) -> Option<usize> {
        let occ = self.occupied[level];
        if occ == 0 {
            return None;
        }
        let pos = ((now_tick >> (LEVEL_BITS * level as u32)) & SLOT_MASK) as u32;
        let off = occ.rotate_right(pos).trailing_zeros();
        Some(((pos + off) & SLOT_MASK as u32) as usize)
    }

    /// Flushes, for each level ≥ 1, the bucket whose window contains `now`
    /// down to finer levels. Purely an efficiency measure: it keeps the
    /// min-scan buckets small. A single ascending pass suffices — an entry
    /// flushed from level `l` lands at a level whose `now` window it is
    /// outside of (its delta exceeds that level's bucket width).
    fn cascade(&mut self, now_tick: u64) {
        for level in 1..LEVELS {
            let pos = ((now_tick >> (LEVEL_BITS * level as u32)) & SLOT_MASK) as usize;
            if self.occupied[level] & (1 << pos) == 0 {
                continue;
            }
            let mut entries = std::mem::take(&mut self.levels[level][pos]);
            self.occupied[level] &= !(1 << pos);
            self.mins[level][pos] = None;
            for idx in entries.drain(..) {
                self.attach(now_tick, idx);
            }
            // Every entry went to a finer level, so the bucket is still
            // empty: hand its buffer back for the next deadline filed here.
            debug_assert!(self.levels[level][pos].is_empty());
            self.levels[level][pos] = entries;
        }
    }

    /// The earliest pending `(at, seq)`, if any. Buckets at different
    /// levels can interleave near window boundaries, so every level's
    /// earliest bucket competes, as do both heaps. Cached bucket minima
    /// make this O(levels), never an entry walk.
    fn min_deadline(&self, now_tick: u64) -> Option<(u64, u64)> {
        let mut best: Option<(u64, u64)> = None;
        if let Some(&Reverse((at, seq, _))) = self.near.peek() {
            best = Some((at, seq));
        }
        for level in 1..LEVELS {
            if let Some(s) = self.earliest_bucket(level, now_tick) {
                let cand = self.mins[level][s].expect("occupied bucket has a min");
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            }
        }
        if let Some(&Reverse((at, seq, _))) = self.overflow.peek() {
            let cand = (at, seq);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        best
    }

    /// Removes every registration with deadline exactly `at_ns`, releasing
    /// their slots, and appends their wakers to `fired` in registration
    /// order. `fired` is a caller-owned scratch buffer (cleared here), so
    /// the once-per-instant firing path performs no allocation in steady
    /// state.
    fn take_due(&mut self, at_ns: u64, now_tick: u64, fired: &mut Vec<(u64, Option<Waker>)>) {
        fired.clear();
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        while matches!(self.near.peek(), Some(&Reverse((at, _, _))) if at == at_ns) {
            let Reverse((_, _, idx)) = self.near.pop().unwrap();
            due.push(idx);
        }
        for level in 1..LEVELS {
            let Some(s) = self.earliest_bucket(level, now_tick) else {
                continue;
            };
            if self.mins[level][s].map(|(at, _)| at) != Some(at_ns) {
                continue;
            }
            let bucket = &mut self.levels[level][s];
            let mut k = 0;
            while k < bucket.len() {
                let idx = bucket[k];
                if self.slots[idx as usize].at_ns == at_ns {
                    bucket.swap_remove(k);
                    due.push(idx);
                } else {
                    k += 1;
                }
            }
            if bucket.is_empty() {
                self.occupied[level] &= !(1 << s);
                self.mins[level][s] = None;
            } else {
                // Recompute the cached min; only paid when this bucket
                // actually lost entries.
                self.mins[level][s] = bucket
                    .iter()
                    .map(|&idx| {
                        let slot = &self.slots[idx as usize];
                        (slot.at_ns, slot.seq)
                    })
                    .min();
            }
        }
        while matches!(self.overflow.peek(), Some(&Reverse((at, _, _))) if at == at_ns) {
            let Reverse((_, _, idx)) = self.overflow.pop().unwrap();
            due.push(idx);
        }
        for &idx in &due {
            let slot = &mut self.slots[idx as usize];
            let waker = slot.waker.take();
            let seq = slot.seq;
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(idx);
            self.pending -= 1;
            fired.push((seq, waker));
        }
        self.due = due;
        if fired.len() > 1 {
            fired.sort_unstable_by_key(|&(seq, _)| seq);
        }
    }
}

// ---------------------------------------------------------------------------
// Simulation core
// ---------------------------------------------------------------------------

/// Shared core of one simulation.
struct Inner {
    now: Cell<Time>,
    tasks: RefCell<TaskSlab>,
    ready: Rc<ReadyQueue>,
    /// Shared with `Sleep` futures directly (not via `Inner`) so a `Sleep`
    /// held inside a task does not keep the whole simulation alive.
    timers: Rc<RefCell<TimerWheel>>,
    rng: RefCell<SmallRng>,
    /// Poll counter — useful for diagnosing runaway simulations in tests.
    polls: Cell<u64>,
    /// Retired [`WakeData`] payloads awaiting reuse (every entry has strong
    /// count 1). Spawning a task in steady state then allocates only the
    /// boxed future, not the waker payload.
    waker_pool: RefCell<Vec<Rc<WakeData>>>,
}

/// Upper bound on [`Inner::waker_pool`]; beyond this, retired payloads are
/// simply dropped. Sized for bursty fan-out (a batch flush spawns two tasks;
/// chaos plans spawn dozens) without pinning memory after a spike.
const WAKER_POOL_CAP: usize = 256;

impl Inner {
    /// A waker payload targeting task `(idx, gen)` — recycled when the pool
    /// has one, freshly allocated otherwise.
    fn take_wake_data(&self, idx: u32, gen: u32) -> Rc<WakeData> {
        if let Some(data) = self.waker_pool.borrow_mut().pop() {
            data.idx.set(idx);
            data.gen.set(gen);
            data
        } else {
            Rc::new(WakeData {
                idx: Cell::new(idx),
                gen: Cell::new(gen),
                ready: self.ready.clone(),
            })
        }
    }

    /// Returns a payload to the pool if the executor holds the only strong
    /// reference — i.e. no timer slot, channel, or stashed `Waker` clone can
    /// still wake through it. Otherwise the payload is dropped normally and
    /// the stragglers keep their (stale, generation-guarded) handle.
    fn recycle_wake_data(&self, data: Rc<WakeData>) {
        if Rc::strong_count(&data) == 1 {
            let mut pool = self.waker_pool.borrow_mut();
            if pool.len() < WAKER_POOL_CAP {
                pool.push(data);
            }
        }
    }
}

/// A deterministic discrete-event simulation.
///
/// Create one per experiment, spawn the workload via [`Sim::ctx`], then
/// drive it with [`Sim::run`], [`Sim::run_until`], or [`Sim::block_on`].
pub struct Sim {
    inner: Rc<Inner>,
    /// Scratch buffer of wakers fired at one instant, reused across
    /// [`Sim::advance_to_next_timer`] calls.
    fired: Vec<(u64, Option<Waker>)>,
}

impl Sim {
    /// Creates a simulation whose randomness derives entirely from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Sim {
        Sim {
            inner: Rc::new(Inner {
                now: Cell::new(Time::ZERO),
                tasks: RefCell::new(TaskSlab::new()),
                ready: Rc::new(ReadyQueue {
                    queue: RefCell::new(VecDeque::new()),
                }),
                timers: Rc::new(RefCell::new(TimerWheel::new())),
                rng: RefCell::new(SmallRng::seed_from_u64(seed)),
                polls: Cell::new(0),
                waker_pool: RefCell::new(Vec::new()),
            }),
            fired: Vec::new(),
        }
    }

    /// A clonable context for tasks to capture.
    #[must_use]
    pub fn ctx(&self) -> Ctx {
        Ctx {
            inner: Rc::downgrade(&self.inner),
        }
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.inner.now.get()
    }

    /// Number of tasks that have been spawned and not yet completed.
    #[must_use]
    pub fn live_tasks(&self) -> usize {
        self.inner.tasks.borrow().live
    }

    /// Total number of future polls performed so far.
    #[must_use]
    pub fn poll_count(&self) -> u64 {
        self.inner.polls.get()
    }

    /// Runs until no task is runnable and no timer is pending.
    ///
    /// Tasks blocked forever on channels that nobody will signal are left in
    /// place (check [`Sim::live_tasks`] to detect deadlocks in tests).
    pub fn run(&mut self) {
        self.run_inner(None);
    }

    /// Runs events with timestamps `≤ deadline`, then sets the clock to
    /// `deadline`. Ready (zero-delay) work at the deadline is completed.
    pub fn run_until(&mut self, deadline: Time) {
        self.run_inner(Some(deadline));
        if self.inner.now.get() < deadline {
            self.inner.now.set(deadline);
        }
    }

    /// Advances the simulation by `d` from the current virtual time.
    pub fn run_for(&mut self, d: Time) {
        let deadline = self.inner.now.get() + d;
        self.run_until(deadline);
    }

    /// Spawns `fut` and runs the simulation until it completes, returning
    /// its output. Unlike [`Sim::run`], this stops as soon as the future
    /// finishes — background tasks with unbounded timer chains (periodic
    /// GC, monitors) do not keep it alive.
    ///
    /// # Panics
    /// Panics if the simulation stalls (deadlocks) before `fut` finishes.
    pub fn block_on<T: 'static>(&mut self, fut: impl Future<Output = T> + 'static) -> T {
        let handle = self.ctx().spawn(fut);
        loop {
            while let Some((idx, gen)) = self.inner.ready.pop() {
                self.poll_task(idx, gen);
            }
            if let Some(v) = handle.try_take() {
                return v;
            }
            if !self.advance_to_next_timer(None) {
                panic!("simulation stalled before block_on future completed");
            }
        }
    }

    fn run_inner(&mut self, deadline: Option<Time>) {
        loop {
            // Drain everything runnable at the current instant.
            while let Some((idx, gen)) = self.inner.ready.pop() {
                self.poll_task(idx, gen);
            }
            if !self.advance_to_next_timer(deadline) {
                break;
            }
        }
    }

    /// Advances the clock to the next pending timer (within `deadline`, if
    /// any) and fires every timer at that instant. Returns false if there
    /// was no eligible timer.
    fn advance_to_next_timer(&mut self, deadline: Option<Time>) -> bool {
        let now_tick = dur_ns(self.inner.now.get()) >> TICK_SHIFT;
        {
            let mut wheel = self.inner.timers.borrow_mut();
            wheel.cascade(now_tick);
            let Some((at_ns, _)) = wheel.min_deadline(now_tick) else {
                return false;
            };
            let next_at = Time::from_nanos(at_ns);
            if let Some(deadline) = deadline {
                if next_at > deadline {
                    return false;
                }
            }
            debug_assert!(next_at >= self.inner.now.get(), "timer in the past");
            self.inner.now.set(next_at);
            wheel.take_due(at_ns, now_tick, &mut self.fired);
        }
        // Wake outside the wheel borrow: a waker may be a task waker (ready
        // push, harmless) but keeping borrows narrow is free insurance.
        for (_, waker) in self.fired.drain(..) {
            if let Some(waker) = waker {
                waker.wake();
            }
        }
        true
    }

    fn poll_task(&self, idx: u32, gen: u32) {
        // Take the entry out of the slab while polling so the task may
        // re-borrow the slab (e.g. by spawning).
        let mut entry = {
            let mut tasks = self.inner.tasks.borrow_mut();
            if tasks.gens.get(idx as usize) != Some(&gen) {
                return; // completed earlier; spurious wake
            }
            match tasks.slots[idx as usize].take() {
                Some(entry) => entry,
                None => return,
            }
        };
        self.inner.polls.set(self.inner.polls.get() + 1);
        let mut cx = Context::from_waker(&entry.waker);
        match entry.fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                self.inner.tasks.borrow_mut().release(idx);
                // Drop the future first (it may own `Waker` clones), then
                // the task's own waker, so the payload's strong count
                // reflects only clones that truly escaped — a clone parked
                // in a timer slot or channel keeps the payload un-recycled.
                let TaskEntry { fut, waker, wake } = entry;
                drop(fut);
                drop(waker);
                self.inner.recycle_wake_data(wake);
            }
            Poll::Pending => {
                self.inner.tasks.borrow_mut().slots[idx as usize] = Some(entry);
            }
        }
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Sim(now={:?}, live_tasks={})",
            self.now(),
            self.live_tasks()
        )
    }
}

/// Cheap clonable handle to the executor a deployment runs on: `now`,
/// `sleep`, `spawn`, seeded RNG draws. Obtain one from [`Sim::ctx`] or,
/// inside a partitioned fan-out, from
/// [`Partition::ctx`](crate::Partition::ctx), which is the same thing: a
/// partition is a `Sim`.
///
/// Weak: a context that outlives its [`Sim`] is inert, and everything but
/// [`Ctx::try_now`] then panics with a clear message rather than leaking
/// cycles.
#[derive(Clone)]
pub struct Ctx {
    inner: Weak<Inner>,
}

impl Ctx {
    fn inner(&self) -> Rc<Inner> {
        self.inner
            .upgrade()
            .expect("Ctx used after its Sim was dropped")
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.inner().now.get()
    }

    /// [`Ctx::now`], or `None` once the [`Sim`] behind this context is
    /// gone: for `Drop` code, which runs during that teardown too.
    #[must_use]
    pub fn try_now(&self) -> Option<Time> {
        self.inner.upgrade().map(|inner| inner.now.get())
    }

    /// Spawns a task onto the executor; tasks enter a FIFO ready queue in
    /// spawn order.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        let inner = self.inner();
        let state = Rc::new(JoinState {
            result: RefCell::new(None),
            waker: RefCell::new(None),
        });
        let state2 = state.clone();
        let wrapped = Box::pin(async move {
            let out = fut.await;
            *state2.result.borrow_mut() = Some(out);
            if let Some(w) = state2.waker.borrow_mut().take() {
                w.wake();
            }
        });
        // The payload is targeted after insertion (slot id not known yet);
        // the interim (0, 0) target is never visible — the task is pushed
        // onto the ready queue only once `idx`/`gen` are set.
        let wake = inner.take_wake_data(0, 0);
        let waker = make_waker(wake.clone());
        let (idx, gen) = inner.tasks.borrow_mut().insert(TaskEntry {
            fut: wrapped,
            waker,
            wake: wake.clone(),
        });
        wake.idx.set(idx);
        wake.gen.set(gen);
        inner.ready.push(idx, gen);
        JoinHandle { state }
    }

    /// Spawns a task nobody will join. Scheduling is identical to
    /// [`Ctx::spawn`] (same ready-queue push, same FIFO position); the
    /// only difference is cost — no join-state allocation and no wrapper
    /// future, for fire-and-forget hot paths like the shared log's
    /// group-commit flushes.
    pub fn spawn_detached(&self, fut: impl Future<Output = ()> + 'static) {
        let inner = self.inner();
        let wake = inner.take_wake_data(0, 0);
        let waker = make_waker(wake.clone());
        let (idx, gen) = inner.tasks.borrow_mut().insert(TaskEntry {
            fut: Box::pin(fut),
            waker,
            wake: wake.clone(),
        });
        wake.idx.set(idx);
        wake.gen.set(gen);
        inner.ready.push(idx, gen);
    }

    /// Resolves after `d` of virtual time.
    pub fn sleep(&self, d: Time) -> Sleep {
        let inner = self.inner();
        let now = inner.now.get();
        let at = now + d;
        let (idx, gen) = inner
            .timers
            .borrow_mut()
            .register(dur_ns(now), dur_ns(at));
        Sleep {
            wheel: inner.timers.clone(),
            idx,
            gen,
        }
    }

    /// Resolves at the absolute instant `at` (immediately if in the past).
    pub fn sleep_until(&self, at: Time) -> Sleep {
        let now = self.now();
        self.sleep(at.saturating_sub(now))
    }

    /// Runs `f` with the executor's seeded RNG. All randomness must flow
    /// through here for runs to be reproducible.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SmallRng) -> T) -> T {
        let inner = self.inner();
        let mut rng = inner.rng.borrow_mut();
        f(&mut rng)
    }

    /// Yields once, letting every currently-ready task run before this one
    /// continues. Implemented as a zero-duration sleep, which preserves the
    /// executor's FIFO determinism.
    pub fn yield_now(&self) -> Sleep {
        self.sleep(Time::ZERO)
    }
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Ctx")
    }
}

/// Future returned by [`Ctx::sleep`].
///
/// Holds (slot, generation) into the timer wheel's slab. Dropping a `Sleep`
/// before its deadline does NOT cancel the registration: the clock still
/// advances through the deadline and any stored waker still fires, exactly
/// as with the previous heap-of-`Rc` implementation (golden runs depend on
/// those spurious wakes).
pub struct Sleep {
    wheel: Rc<RefCell<TimerWheel>>,
    idx: u32,
    gen: u32,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut wheel = self.wheel.borrow_mut();
        let slot = &mut wheel.slots[self.idx as usize];
        if slot.gen != self.gen {
            // The slot's generation advanced: this registration fired.
            Poll::Ready(())
        } else {
            slot.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

struct JoinState<T> {
    result: RefCell<Option<T>>,
    waker: RefCell<Option<Waker>>,
}

/// Handle to a spawned task; awaiting it yields the task's output.
pub struct JoinHandle<T> {
    state: Rc<JoinState<T>>,
}

impl<T> JoinHandle<T> {
    /// Takes the result if the task has completed.
    pub fn try_take(&self) -> Option<T> {
        self.state.result.borrow_mut().take()
    }

    /// True if the task has finished (and the result not yet taken).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.state.result.borrow().is_some()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        if let Some(v) = self.state.result.borrow_mut().take() {
            Poll::Ready(v)
        } else {
            *self.state.waker.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use rand::RngExt;

    use super::*;

    #[test]
    fn block_on_returns_value() {
        let mut sim = Sim::new(1);
        let out = sim.block_on(async { 21 * 2 });
        assert_eq!(out, 42);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn sleep_advances_virtual_time_only() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let wall = std::time::Instant::now();
        sim.block_on(async move {
            ctx.sleep(Duration::from_secs(3600)).await;
        });
        assert_eq!(sim.now(), Duration::from_secs(3600));
        assert!(
            wall.elapsed() < Duration::from_secs(1),
            "virtual sleep took wall time"
        );
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (i, ms) in [(0u32, 30u64), (1, 10), (2, 20)] {
            let ctx2 = ctx.clone();
            let order = order.clone();
            ctx.spawn(async move {
                ctx2.sleep(Duration::from_millis(ms)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![1, 2, 0]);
    }

    #[test]
    fn cascade_keeps_bucket_buffers() {
        let mut wheel = TimerWheel::new();
        // 100 ticks ahead is past the near heap: level 1, bucket 1.
        for _ in 0..8 {
            wheel.register(0, 100 << TICK_SHIFT);
        }
        let capacity = wheel.levels[1][1].capacity();
        assert_eq!(wheel.levels[1][1].len(), 8);
        // The clock enters that bucket's window; its timers move to the
        // near heap and the next timer filed there must not reallocate.
        wheel.cascade(64);
        assert_eq!(wheel.near.len(), 8);
        assert!(wheel.levels[1][1].is_empty());
        assert_eq!(wheel.levels[1][1].capacity(), capacity);
        assert_eq!(wheel.occupied[1], 0);
    }

    #[test]
    fn simultaneous_timers_fire_in_registration_order() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5u32 {
            let ctx2 = ctx.clone();
            let order = order.clone();
            ctx.spawn(async move {
                ctx2.sleep(Duration::from_millis(5)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let fired = Rc::new(Cell::new(false));
        let fired2 = fired.clone();
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            ctx2.sleep(Duration::from_secs(10)).await;
            fired2.set(true);
        });
        sim.run_until(Duration::from_secs(5));
        assert!(!fired.get());
        assert_eq!(sim.now(), Duration::from_secs(5));
        sim.run_until(Duration::from_secs(15));
        assert!(fired.get());
    }

    #[test]
    fn nested_spawn_and_join() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let out = sim.block_on({
            let ctx = ctx;
            async move {
                let inner = ctx.spawn({
                    let ctx = ctx.clone();
                    async move {
                        ctx.sleep(Duration::from_millis(1)).await;
                        7
                    }
                });
                inner.await + 1
            }
        });
        assert_eq!(out, 8);
    }

    #[test]
    fn deterministic_across_runs() {
        fn trace(seed: u64) -> (Vec<u64>, Time) {
            let mut sim = Sim::new(seed);
            let ctx = sim.ctx();
            let log = Rc::new(RefCell::new(Vec::new()));
            for _ in 0..10 {
                let ctx2 = ctx.clone();
                let log = log.clone();
                ctx.spawn(async move {
                    let d = ctx2.with_rng(|r| r.random_range(1..100u64));
                    ctx2.sleep(Duration::from_millis(d)).await;
                    log.borrow_mut().push(d);
                });
            }
            sim.run();
            let out = log.borrow().clone();
            (out, sim.now())
        }
        assert_eq!(trace(99), trace(99));
        assert_ne!(trace(99).0, trace(100).0);
    }

    #[test]
    fn yield_now_interleaves_fairly() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..2u32 {
            let ctx2 = ctx.clone();
            let order = order.clone();
            ctx.spawn(async move {
                for step in 0..3u32 {
                    order.borrow_mut().push((i, step));
                    ctx2.yield_now().await;
                }
            });
        }
        sim.run();
        // Both tasks alternate steps rather than running to completion.
        assert_eq!(order.borrow()[0], (0, 0));
        assert_eq!(order.borrow()[1], (1, 0));
        assert_eq!(order.borrow()[2], (0, 1));
    }

    #[test]
    fn stalled_task_is_reported_as_live() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        // A future that is never woken.
        struct Never;
        impl Future for Never {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        ctx.spawn(Never);
        sim.run();
        assert_eq!(sim.live_tasks(), 1);
    }

    #[test]
    #[should_panic(expected = "simulation stalled")]
    fn block_on_panics_on_deadlock() {
        let mut sim = Sim::new(1);
        struct Never;
        impl Future for Never {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        sim.block_on(Never);
    }

    #[test]
    fn join_handle_try_take_before_and_after() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = ctx.spawn(async { "done" });
        assert!(!h.is_finished());
        assert!(h.try_take().is_none());
        sim.run();
        assert!(h.is_finished());
        assert_eq!(h.try_take(), Some("done"));
        assert!(h.try_take().is_none());
    }

    #[test]
    fn sleep_until_past_instant_completes_immediately() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        sim.block_on({
            let ctx = ctx;
            async move {
                ctx.sleep(Duration::from_millis(10)).await;
                let before = ctx.now();
                ctx.sleep_until(Duration::from_millis(5)).await;
                assert_eq!(ctx.now(), before);
            }
        });
    }

    // -- Tests specific to the wheel/slab implementation ------------------

    /// A coarse-level timer whose deadline falls just after a level
    /// boundary must still fire before a nearer-by-registration level-0
    /// timer with a later deadline (cross-level min comparison).
    #[test]
    fn cross_level_deadline_ordering() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let order = Rc::new(RefCell::new(Vec::new()));
        // Level-2 registration: 4100 ticks ahead of t=0.
        let far = Duration::from_nanos(4100 << TICK_SHIFT);
        {
            let ctx2 = ctx.clone();
            let order = order.clone();
            ctx.spawn(async move {
                ctx2.sleep(far).await;
                order.borrow_mut().push("far");
            });
        }
        // A task that wakes at tick 4095 (just before the 64^2 window
        // boundary) and then registers a level-0 timer for tick 4150 —
        // later than `far` but at a finer level.
        {
            let ctx2 = ctx.clone();
            let order = order.clone();
            ctx.spawn(async move {
                ctx2.sleep(Duration::from_nanos(4095 << TICK_SHIFT)).await;
                order.borrow_mut().push("wake");
                ctx2.sleep(Duration::from_nanos(55 << TICK_SHIFT)).await;
                order.borrow_mut().push("near");
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["wake", "far", "near"]);
        assert_eq!(sim.now(), Duration::from_nanos(4150 << TICK_SHIFT));
    }

    /// Deadlines in the same 1024 ns tick fire in exact-instant order, and
    /// the clock lands on each exact deadline, not the tick boundary.
    #[test]
    fn sub_tick_deadlines_fire_exactly() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let times = Rc::new(RefCell::new(Vec::new()));
        for ns in [900u64, 300, 600] {
            let ctx2 = ctx.clone();
            let times = times.clone();
            ctx.spawn(async move {
                ctx2.sleep(Duration::from_nanos(ns)).await;
                times.borrow_mut().push(ctx2.now());
            });
        }
        sim.run();
        let want: Vec<Time> = [300u64, 600, 900]
            .iter()
            .map(|&ns| Duration::from_nanos(ns))
            .collect();
        assert_eq!(*times.borrow(), want);
    }

    /// Deadlines beyond the wheel horizon (~19.5 h) take the overflow-heap
    /// path and still fire in global order.
    #[test]
    fn far_future_timers_use_overflow_heap() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (name, d) in [
            ("2d", Duration::from_secs(48 * 3600)),
            ("1ms", Duration::from_millis(1)),
            ("30h", Duration::from_secs(30 * 3600)),
        ] {
            let ctx2 = ctx.clone();
            let order = order.clone();
            ctx.spawn(async move {
                ctx2.sleep(d).await;
                order.borrow_mut().push(name);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["1ms", "30h", "2d"]);
        assert_eq!(sim.now(), Duration::from_secs(48 * 3600));
    }

    /// A dropped `Sleep` does not cancel its registration: the clock still
    /// advances through the deadline (pre-rewrite behavior, pinned by the
    /// golden metrics snapshots).
    #[test]
    fn dropped_sleep_still_advances_clock() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let s = ctx.sleep(Duration::from_millis(5));
        drop(s);
        sim.run();
        assert_eq!(sim.now(), Duration::from_millis(5));
    }

    /// Task and timer slots are reused; generation counters keep stale
    /// wakes and stale `Sleep` handles from touching the new occupants.
    #[test]
    fn slot_reuse_is_isolated() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        // Burn through many short-lived tasks and timers so slots recycle.
        for round in 0..50u64 {
            let ctx2 = ctx.clone();
            ctx.spawn(async move {
                ctx2.sleep(Duration::from_micros(round)).await;
            });
        }
        sim.run();
        assert_eq!(sim.live_tasks(), 0);
        // Slab sizes stay bounded by peak concurrency, not total spawns.
        assert!(sim.inner.tasks.borrow().slots.len() <= 51);
        assert!(sim.inner.timers.borrow().slots.len() <= 51);
        let more = sim.block_on({
            let ctx = ctx;
            async move {
                ctx.sleep(Duration::from_millis(1)).await;
                "reused"
            }
        });
        assert_eq!(more, "reused");
    }

    /// A task's waker recognises its own clones — across polls too, since the
    /// waker is built once at spawn — and no other task's. Primitives rely on
    /// this to skip re-cloning an unchanged waker.
    #[test]
    fn waker_will_wake_its_own_clone_only() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let seen = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let ctx2 = ctx.clone();
            let seen = seen.clone();
            ctx.spawn(async move {
                let first = std::future::poll_fn(|cx| Poll::Ready(cx.waker().clone())).await;
                ctx2.sleep(Duration::from_millis(1)).await;
                let second = std::future::poll_fn(|cx| Poll::Ready(cx.waker().clone())).await;
                seen.borrow_mut().push((first, second));
            });
        }
        sim.run();
        let seen = seen.borrow();
        let ((a1, a2), (b1, _)) = (&seen[0], &seen[1]);
        assert!(a1.will_wake(&a1.clone()), "a waker must match its clone");
        assert!(a1.will_wake(a2), "one task, two polls: same waker");
        assert!(!a1.will_wake(b1), "different tasks must not match");
    }

    /// run_until across a window boundary keeps firing order intact when
    /// timers registered before and after the jump interleave.
    #[test]
    fn run_until_then_new_timers_order() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let order = Rc::new(RefCell::new(Vec::new()));
        {
            let ctx2 = ctx.clone();
            let order = order.clone();
            ctx.spawn(async move {
                ctx2.sleep(Duration::from_millis(80)).await;
                order.borrow_mut().push("pre");
            });
        }
        sim.run_until(Duration::from_millis(50));
        {
            let ctx2 = ctx.clone();
            let order = order.clone();
            ctx.spawn(async move {
                ctx2.sleep(Duration::from_millis(10)).await; // fires at 60ms
                order.borrow_mut().push("post");
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["post", "pre"]);
        assert_eq!(sim.now(), Duration::from_millis(80));
    }
}
