//! The virtual-time async executor: the one machine every deployment in
//! this workspace runs on.
//!
//! [`Sim`] owns the task slab, the timer heap, the virtual clock and a
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
//! Timers live in one `BinaryHeap` keyed by `(deadline ns, registration
//! seq)` over a generational slot slab that holds each sleeper's waker.
//! The seq is assigned at the `sleep()` call, not at first poll, so
//! simultaneous deadlines fire in registration order: the total order
//! fixed-seed golden tests pin.

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
// Timers
// ---------------------------------------------------------------------------

/// Timer registration. Slots are reused; `gen` disambiguates occupants so a
/// `Sleep` future holding (idx, gen) can tell "my timer fired" (generation
/// advanced) from "still pending". Deadline and seq live in the heap key.
#[derive(Default)]
struct TimerSlot {
    gen: u32,
    waker: Option<Waker>,
}

/// Every pending deadline in one binary heap. The workloads hold tens of
/// timers at a time (thousands only inside GC trim bursts; DESIGN.md §10),
/// each a 0.1–5 ms modelled latency, so one push and one pop per sleep is
/// the whole cost and there is no structure to maintain per clock advance.
#[derive(Default)]
struct Timers {
    /// One key per pending registration, earliest first: deadline ns, then
    /// 40 bits of registration seq, then [`SLOT_BITS`] of slot index. The
    /// seq is unique, so ties on the deadline fire in registration order
    /// (fixed-seed golden tests pin it). One integer, not a tuple, so the
    /// heap's sift loop picks a child branch-free (10 % of `executor_churn`).
    heap: BinaryHeap<Reverse<u128>>,
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
    next_seq: u64,
    /// Most registrations ever pending at once ([`Sim::peak_timers`]).
    peak: usize,
}

const SLOT_BITS: u32 = 24;

impl Timers {
    /// Registers a deadline; returns the (slot, generation) handle the
    /// `Sleep` future polls against.
    fn register(&mut self, at_ns: u64) -> (u32, u32) {
        let idx = self.free.pop().unwrap_or_else(|| {
            assert!(self.slots.len() < 1 << SLOT_BITS, "timer slab overflow");
            self.slots.push(TimerSlot::default());
            self.slots.len() as u32 - 1
        });
        debug_assert!(self.slots[idx as usize].waker.is_none());
        assert!(self.next_seq < 1 << (64 - SLOT_BITS), "timer seq overflow");
        let low = u128::from(self.next_seq << SLOT_BITS | u64::from(idx));
        self.heap.push(Reverse(u128::from(at_ns) << 64 | low));
        self.next_seq += 1;
        self.peak = self.peak.max(self.heap.len());
        (idx, self.slots[idx as usize].gen)
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
    timers: Rc<RefCell<Timers>>,
    rng: RefCell<SmallRng>,
    /// Poll counter — useful for diagnosing runaway simulations in tests.
    polls: Cell<u64>,
    /// Retired [`WakeData`] payloads awaiting reuse (every entry has strong
    /// count 1). Spawning a task in steady state then allocates only the
    /// boxed future, not the waker payload.
    waker_pool: RefCell<Vec<Rc<WakeData>>>,
}

/// Upper bound on [`Inner::waker_pool`]; beyond this, retired payloads are
/// simply dropped. Sized for bursty fan-out (every group-commit batch
/// spawns a task; chaos plans spawn dozens) without pinning memory after a
/// spike.
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
    fired: Vec<Option<Waker>>,
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
                timers: Rc::default(),
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

    /// The most timers ever pending at once: the depth the heap had to hold.
    #[must_use]
    pub fn peak_timers(&self) -> usize {
        self.inner.timers.borrow().peak
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
        {
            let mut timers = self.inner.timers.borrow_mut();
            let Some(&Reverse(top)) = timers.heap.peek() else {
                return false;
            };
            let next_at = Time::from_nanos((top >> 64) as u64);
            if deadline.is_some_and(|deadline| next_at > deadline) {
                return false;
            }
            debug_assert!(next_at >= self.inner.now.get(), "timer in the past");
            self.inner.now.set(next_at);
            while let Some(&Reverse(key)) = timers.heap.peek() {
                if key >> 64 != top >> 64 {
                    break;
                }
                timers.heap.pop();
                let idx = key as u32 & ((1 << SLOT_BITS) - 1);
                let slot = &mut timers.slots[idx as usize];
                slot.gen = slot.gen.wrapping_add(1);
                self.fired.push(slot.waker.take());
                timers.free.push(idx);
            }
        }
        // Wake outside the timer borrow: a waker may be a task waker (ready
        // push, harmless) but keeping borrows narrow is free insurance.
        for waker in self.fired.drain(..).flatten() {
            waker.wake();
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
/// `sleep`, `spawn`, seeded RNG draws. Obtain one from [`Sim::ctx`].
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

    /// Resolves after `d` of virtual time. A deadline past what the clock
    /// can hold saturates: it orders after every finite one.
    pub fn sleep(&self, d: Time) -> Sleep {
        let inner = self.inner();
        let at = inner.now.get().saturating_add(d);
        let at_ns = u64::try_from(at.as_nanos()).unwrap_or(u64::MAX); // ~584 years
        let (idx, gen) = inner.timers.borrow_mut().register(at_ns);
        Sleep {
            timers: inner.timers.clone(),
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
/// Holds (slot, generation) into the timer slab. Dropping a `Sleep` before
/// its deadline does NOT cancel the registration: the clock still advances
/// through the deadline and any stored waker still fires (golden runs
/// depend on those spurious wakes).
pub struct Sleep {
    timers: Rc<RefCell<Timers>>,
    idx: u32,
    gen: u32,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut timers = self.timers.borrow_mut();
        let slot = &mut timers.slots[self.idx as usize];
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

    // -- Tests of the timer order and the slot slab ------------------------

    /// A deadline registered long in advance must still fire before a
    /// later deadline that a task registers, at short range, just before
    /// the first one is due.
    #[test]
    fn near_and_far_deadlines_interleave_in_order() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let order = Rc::new(RefCell::new(Vec::new()));
        let far = Duration::from_micros(4100);
        {
            let ctx2 = ctx.clone();
            let order = order.clone();
            ctx.spawn(async move {
                ctx2.sleep(far).await;
                order.borrow_mut().push("far");
            });
        }
        // A task that wakes 5 µs before `far` is due and then sleeps to
        // 50 µs after it.
        {
            let ctx2 = ctx.clone();
            let order = order.clone();
            ctx.spawn(async move {
                ctx2.sleep(Duration::from_micros(4095)).await;
                order.borrow_mut().push("wake");
                ctx2.sleep(Duration::from_micros(55)).await;
                order.borrow_mut().push("near");
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["wake", "far", "near"]);
        assert_eq!(sim.now(), Duration::from_micros(4150));
    }

    /// Deadlines less than a microsecond apart fire in exact-instant order,
    /// and the clock lands on each exact deadline: nothing is rounded.
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

    /// Deadlines days away fire in global order with millisecond ones.
    #[test]
    fn far_future_timers_fire_in_order() {
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

    /// A sleep too long for the clock saturates instead of panicking: it
    /// stays pending and fires after every finite deadline.
    #[test]
    fn unrepresentable_sleep_saturates_and_fires_last() {
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        let far = Duration::from_secs(500 * 365 * 86_400);
        // The third registers at t = 1 s, where `now + MAX` overflows.
        for (after_s, d) in [(0, Duration::MAX), (0, far), (1, Duration::MAX)] {
            let (ctx, order) = (sim.ctx(), order.clone());
            sim.ctx().spawn(async move {
                ctx.sleep(Duration::from_secs(after_s)).await;
                ctx.sleep(d).await;
                order.borrow_mut().push((after_s, d));
            });
        }
        sim.run_until(Duration::from_secs(1));
        assert_eq!(sim.inner.timers.borrow().heap.len(), 3);
        sim.run();
        let want = vec![(0, far), (0, Duration::MAX), (1, Duration::MAX)];
        assert_eq!(*order.borrow(), want);
    }

    /// Differential test of the timer order: 3 200 registrations a seed
    /// (ties on a 250 µs grid, zero and sub-µs durations, sleeps of days,
    /// sleeps dropped before their first poll, sleeps registered by a task
    /// at the very instant it was woken and they are due) fire as the
    /// registrations sorted by `(deadline, registration order)`.
    #[test]
    fn timers_fire_as_registrations_sorted_by_deadline_then_seq() {
        for seed in [3, 20_230_923, 777_001] {
            let mut sim = Sim::new(seed);
            // (deadline, awaited) per `sleep()` call, in call order.
            let registered = Rc::new(RefCell::new(Vec::new()));
            let fired = Rc::new(RefCell::new(Vec::new()));
            for _ in 0..32 {
                let (ctx, registered, fired) = (sim.ctx(), registered.clone(), fired.clone());
                sim.ctx().spawn(async move {
                    for _ in 0..100 {
                        let now = ctx.now();
                        let to_grid = (250_000 - now.subsec_nanos() % 250_000) % 250_000;
                        let (d, awaited) = ctx.with_rng(|r| {
                            let d = match r.random_range(0..8u32) {
                                0 => Duration::ZERO,
                                1 => Duration::from_nanos(r.random_range(1..1000)),
                                2 | 3 => Duration::from_nanos(to_grid.into()),
                                4 | 5 => Duration::from_micros(r.random_range(100..5000)),
                                6 => Duration::from_millis(r.random_range(1..2000)),
                                _ => Duration::from_secs(3600 * r.random_range(20..72u64)),
                            };
                            (d, r.random_range(0..4u32) != 0)
                        });
                        let sleep = ctx.sleep(d);
                        let id = registered.borrow().len();
                        registered.borrow_mut().push((now + d, awaited));
                        if awaited {
                            sleep.await;
                            assert_eq!(ctx.now(), now + d);
                            fired.borrow_mut().push(id);
                        }
                    }
                });
            }
            sim.run();
            let registered = registered.borrow();
            let mut want = Vec::from_iter((0..3200).filter(|&id: &usize| registered[id].1));
            want.sort_by_key(|&id| (registered[id].0, id));
            assert_eq!(*fired.borrow(), want, "seed {seed}");
            // Dropped sleeps wake nobody, but the clock runs through them.
            assert_eq!(Some(sim.now()), registered.iter().map(|r| r.0).max());
        }
    }

    /// A dropped `Sleep` does not cancel its registration: the clock still
    /// advances through the deadline (pinned by the golden metrics
    /// snapshots).
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

    /// run_until keeps firing order intact when timers registered before
    /// and after the jump interleave.
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
