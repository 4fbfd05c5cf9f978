//! Wall-clock backend: a current-thread executor whose timers are real.
//!
//! Same shape as a tokio current-thread runtime (the container vendors no
//! tokio crate, so the loop is hand-rolled here — the trait surface is
//! exactly what a real tokio adapter would implement): one thread, a FIFO
//! ready queue, a timer heap, `thread::park_timeout` while idle. Sleeps
//! take real time and [`WallCtx::now`] reports real elapsed time, so the
//! protocol code that simulates in milliseconds becomes a runnable system.
//!
//! The executor honors the same scheduling contracts as the simulator —
//! FIFO ready queue, timers firing in `(deadline, registration)` order,
//! zero-duration sleeps acting as fair yields, dropped sleeps not
//! disturbing other timers — so the sync primitives and protocol code run
//! unchanged. What it does *not* promise is determinism: the real clock
//! decides which deadlines coincide, so concurrent workloads may interleave
//! differently run to run (DESIGN.md §17 discusses when histories still
//! match).

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::Time;

/// Cross-thread half of the executor: the ready queue and the thread to
/// unpark. Wakers must be `Send + Sync`, so this lives behind an `Arc` and
/// a `Mutex` even though in practice everything runs on one thread.
struct Shared {
    ready: Mutex<VecDeque<u64>>,
    thread: Thread,
}

impl Shared {
    fn push_ready(&self, task: u64) {
        self.ready.lock().expect("ready queue poisoned").push_back(task);
        self.thread.unpark();
    }
}

/// Waker for one task: re-queues the task id and unparks the runner.
/// Stale wakes (the task already completed) hit a missing map key and are
/// no-ops.
struct WallWake {
    task: u64,
    shared: Arc<Shared>,
}

impl Wake for WallWake {
    fn wake(self: Arc<Self>) {
        self.shared.push_ready(self.task);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.shared.push_ready(self.task);
    }
}

struct TimerEntry {
    fired: bool,
    waker: Option<Waker>,
}

/// Pending timers: a min-heap of `(deadline, seq)` plus per-seq state. The
/// seq tie-break makes simultaneous deadlines fire in registration order,
/// matching the simulator's timer wheel.
#[derive(Default)]
struct TimerTable {
    heap: BinaryHeap<Reverse<(Instant, u64)>>,
    entries: HashMap<u64, TimerEntry>,
    next_seq: u64,
}

impl TimerTable {
    fn register(&mut self, deadline: Instant) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(
            seq,
            TimerEntry {
                fired: false,
                waker: None,
            },
        );
        self.heap.push(Reverse((deadline, seq)));
        seq
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse((at, _))| *at)
    }

    /// Marks every timer with `deadline <= now` fired and wakes its sleeper.
    fn fire_due(&mut self, now: Instant) {
        while let Some(Reverse((at, _))) = self.heap.peek() {
            if *at > now {
                break;
            }
            let Reverse((_, seq)) = self.heap.pop().expect("peeked entry vanished");
            // Entry may be gone if the sleep future was dropped: no-op.
            if let Some(entry) = self.entries.get_mut(&seq) {
                entry.fired = true;
                if let Some(w) = entry.waker.take() {
                    w.wake();
                }
            }
        }
    }
}

/// A spawned task, erased to its polling interface. Tasks communicate
/// results through [`JoinState`], so the stored future's output is `()`.
type BoxedTask = Pin<Box<dyn Future<Output = ()>>>;

struct WallInner {
    start: Instant,
    shared: Arc<Shared>,
    tasks: RefCell<HashMap<u64, BoxedTask>>,
    next_task: Cell<u64>,
    timers: Rc<RefCell<TimerTable>>,
    rng: RefCell<SmallRng>,
}

/// Owner of the wall-clock executor; the entry point holds it and calls
/// [`WallRunner::block_on`]. The counterpart of [`crate::sim::Sim`].
pub struct WallRunner {
    inner: Rc<WallInner>,
}

impl WallRunner {
    /// Creates a runner whose RNG is seeded with `seed`. The clock starts
    /// at zero *now* (real elapsed time since construction).
    #[must_use]
    pub fn new(seed: u64) -> WallRunner {
        WallRunner {
            inner: Rc::new(WallInner {
                start: Instant::now(),
                shared: Arc::new(Shared {
                    ready: Mutex::new(VecDeque::new()),
                    thread: std::thread::current(),
                }),
                tasks: RefCell::new(HashMap::new()),
                next_task: Cell::new(0),
                timers: Rc::new(RefCell::new(TimerTable::default())),
                rng: RefCell::new(SmallRng::seed_from_u64(seed)),
            }),
        }
    }

    /// A clonable context for tasks to capture.
    #[must_use]
    pub fn ctx(&self) -> WallCtx {
        WallCtx {
            inner: Rc::downgrade(&self.inner),
        }
    }

    /// Real time elapsed since the runner was created.
    #[must_use]
    pub fn now(&self) -> Time {
        self.inner.start.elapsed()
    }

    /// Number of live (spawned, not yet completed) tasks.
    #[must_use]
    pub fn live_tasks(&self) -> usize {
        self.inner.tasks.borrow().len()
    }

    /// Spawns `fut` and runs the executor until it completes, returning its
    /// output. Other live tasks keep running while the future is pending;
    /// they are left in place (pending) when it resolves.
    ///
    /// # Panics
    ///
    /// Panics if every task is blocked and no timer is pending — the
    /// wall-clock equivalent of the simulator's stall detection (parking
    /// forever would otherwise hang the process silently).
    pub fn block_on<T: 'static>(&mut self, fut: impl Future<Output = T> + 'static) -> T {
        let handle = self.ctx().spawn(fut);
        loop {
            self.inner
                .timers
                .borrow_mut()
                .fire_due(Instant::now());
            let drained = self.drain_ready();
            if let Some(v) = handle.try_take() {
                return v;
            }
            if drained {
                continue;
            }
            let next = self.inner.timers.borrow().next_deadline();
            match next {
                Some(deadline) => {
                    let now = Instant::now();
                    if deadline > now {
                        std::thread::park_timeout(deadline - now);
                    }
                }
                None => {
                    // A waker could in principle arrive from another thread,
                    // but nothing in this workspace spawns threads: if the
                    // ready queue is still empty here, no event can ever
                    // arrive.
                    if self.inner.shared.ready.lock().expect("ready queue poisoned").is_empty() {
                        panic!(
                            "wall executor stalled: {} tasks blocked with no pending timer",
                            self.live_tasks()
                        );
                    }
                }
            }
        }
    }

    /// Polls every currently-ready task once; returns whether any ran.
    fn drain_ready(&self) -> bool {
        let mut any = false;
        loop {
            let next = self
                .inner
                .shared
                .ready
                .lock()
                .expect("ready queue poisoned")
                .pop_front();
            let Some(id) = next else { break };
            any = true;
            // Take the task out while polling so a reentrant spawn/wake
            // does not alias the borrow.
            let Some(mut task) = self.inner.tasks.borrow_mut().remove(&id) else {
                continue; // stale wake: task already completed
            };
            let waker = Waker::from(Arc::new(WallWake {
                task: id,
                shared: self.inner.shared.clone(),
            }));
            let mut cx = Context::from_waker(&waker);
            if task.as_mut().poll(&mut cx).is_pending() {
                self.inner.tasks.borrow_mut().insert(id, task);
            }
        }
        any
    }
}

impl std::fmt::Debug for WallRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WallRunner(now={:?}, live_tasks={})",
            self.now(),
            self.live_tasks()
        )
    }
}

/// Clonable handle to a running wall-clock executor, captured by tasks.
///
/// Holds a weak reference: contexts captured inside tasks do not keep the
/// executor alive (same pattern as the simulator's `SimCtx`).
#[derive(Clone)]
pub struct WallCtx {
    inner: Weak<WallInner>,
}

impl WallCtx {
    fn inner(&self) -> Rc<WallInner> {
        self.inner
            .upgrade()
            .expect("WallCtx used after its WallRunner was dropped")
    }

    /// Real time elapsed since the runner was created.
    #[must_use]
    pub fn now(&self) -> Time {
        self.inner().start.elapsed()
    }

    /// [`WallCtx::now`], or `None` once the runner is gone.
    #[must_use]
    pub fn try_now(&self) -> Option<Time> {
        self.inner.upgrade().map(|inner| inner.start.elapsed())
    }

    /// Resolves after `d` of real time.
    pub fn sleep(&self, d: Time) -> WallSleep {
        let inner = self.inner();
        let deadline = Instant::now() + d;
        let seq = inner.timers.borrow_mut().register(deadline);
        WallSleep {
            timers: inner.timers.clone(),
            seq,
        }
    }

    /// Resolves at absolute time `at` on the runner's clock (immediately if
    /// in the past).
    pub fn sleep_until(&self, at: Time) -> WallSleep {
        let inner = self.inner();
        let deadline = inner.start + at;
        let seq = inner.timers.borrow_mut().register(deadline);
        WallSleep {
            timers: inner.timers.clone(),
            seq,
        }
    }

    /// Yields once: a zero-duration sleep, so every currently-ready task
    /// runs before this one continues.
    pub fn yield_now(&self) -> WallSleep {
        self.sleep(Time::ZERO)
    }

    /// Spawns a task; the handle resolves to its output.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> WallJoinHandle<T> {
        let state = Rc::new(JoinState {
            value: RefCell::new(None),
            waker: RefCell::new(None),
        });
        let state2 = state.clone();
        self.spawn_detached(async move {
            let v = fut.await;
            *state2.value.borrow_mut() = Some(v);
            if let Some(w) = state2.waker.borrow_mut().take() {
                w.wake();
            }
        });
        WallJoinHandle { state }
    }

    /// Spawns a task nobody will join.
    pub fn spawn_detached(&self, fut: impl Future<Output = ()> + 'static) {
        let inner = self.inner();
        let id = inner.next_task.get();
        inner.next_task.set(id + 1);
        inner.tasks.borrow_mut().insert(id, Box::pin(fut));
        inner.shared.push_ready(id);
    }

    /// Runs `f` with the executor's seeded RNG.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SmallRng) -> T) -> T {
        let inner = self.inner();
        let mut rng = inner.rng.borrow_mut();
        f(&mut rng)
    }
}

impl std::fmt::Debug for WallCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WallCtx")
    }
}

/// Future returned by [`WallCtx::sleep`]. Dropping it before the deadline
/// deregisters quietly; other timers are unaffected.
pub struct WallSleep {
    timers: Rc<RefCell<TimerTable>>,
    seq: u64,
}

impl Future for WallSleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut table = self.timers.borrow_mut();
        match table.entries.get_mut(&self.seq) {
            // Completion is the *fired flag*, not a wall-time comparison:
            // a zero-duration sleep must stay pending until the run loop's
            // timer pass, which is what makes yield_now a fair yield.
            Some(entry) if !entry.fired => {
                entry.waker = Some(cx.waker().clone());
                Poll::Pending
            }
            Some(_) => {
                table.entries.remove(&self.seq);
                Poll::Ready(())
            }
            None => Poll::Ready(()),
        }
    }
}

impl Drop for WallSleep {
    fn drop(&mut self) {
        // The heap entry stays and fires as a no-op; only the per-seq state
        // is reclaimed.
        self.timers.borrow_mut().entries.remove(&self.seq);
    }
}

struct JoinState<T> {
    value: RefCell<Option<T>>,
    waker: RefCell<Option<Waker>>,
}

/// Handle to a task spawned on the wall-clock executor.
pub struct WallJoinHandle<T> {
    state: Rc<JoinState<T>>,
}

impl<T> WallJoinHandle<T> {
    /// Takes the result if the task has completed.
    pub fn try_take(&self) -> Option<T> {
        self.state.value.borrow_mut().take()
    }

    /// True if the task has finished (and the result not yet taken).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.state.value.borrow().is_some()
    }
}

impl<T> Future for WallJoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        if let Some(v) = self.state.value.borrow_mut().take() {
            Poll::Ready(v)
        } else {
            *self.state.waker.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

impl<T> crate::TaskHandle<T> for WallJoinHandle<T> {
    fn try_take(&self) -> Option<T> {
        WallJoinHandle::try_take(self)
    }

    fn is_finished(&self) -> bool {
        WallJoinHandle::is_finished(self)
    }
}

// --- substrate trait impls -------------------------------------------------

impl crate::Clock for WallCtx {
    type Sleep = WallSleep;

    fn now(&self) -> Time {
        WallCtx::now(self)
    }

    fn sleep(&self, d: Time) -> WallSleep {
        WallCtx::sleep(self, d)
    }

    fn sleep_until(&self, at: Time) -> WallSleep {
        WallCtx::sleep_until(self, at)
    }
}

impl crate::Spawner for WallCtx {
    type Handle<T: 'static> = WallJoinHandle<T>;

    fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> WallJoinHandle<T> {
        WallCtx::spawn(self, fut)
    }

    fn spawn_detached(&self, fut: impl Future<Output = ()> + 'static) {
        WallCtx::spawn_detached(self, fut);
    }
}

impl crate::RngSource for WallCtx {
    fn with_rng<T>(&self, f: impl FnOnce(&mut SmallRng) -> T) -> T {
        WallCtx::with_rng(self, f)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;
    use std::time::Duration;

    use rand::Rng;

    use super::*;

    #[test]
    fn block_on_returns_value() {
        let mut wall = WallRunner::new(1);
        let out = wall.block_on(async { 21 * 2 });
        assert_eq!(out, 42);
        assert_eq!(wall.live_tasks(), 0);
    }

    #[test]
    fn sleep_takes_real_time() {
        let mut wall = WallRunner::new(1);
        let ctx = wall.ctx();
        wall.block_on(async move {
            ctx.sleep(Duration::from_millis(20)).await;
        });
        assert!(wall.now() >= Duration::from_millis(20));
    }

    #[test]
    fn simultaneous_deadlines_fire_in_registration_order() {
        let mut wall = WallRunner::new(1);
        let ctx = wall.ctx();
        let order = Rc::new(RefCell::new(Vec::new()));
        // sleep_until the same absolute instant: ties must break by seq.
        let at = Duration::from_millis(10);
        for i in 0..4u32 {
            let ctx2 = ctx.clone();
            let order = order.clone();
            ctx.spawn_detached(async move {
                ctx2.sleep_until(at).await;
                order.borrow_mut().push(i);
            });
        }
        let ctx2 = ctx;
        wall.block_on(async move {
            ctx2.sleep(Duration::from_millis(30)).await;
        });
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn yield_now_lets_ready_tasks_run_first() {
        let mut wall = WallRunner::new(1);
        let ctx = wall.ctx();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let log = log.clone();
            ctx.spawn_detached(async move {
                log.borrow_mut().push(i);
            });
        }
        let ctx2 = ctx;
        let log2 = log.clone();
        wall.block_on(async move {
            log2.borrow_mut().push(99);
            ctx2.yield_now().await;
            log2.borrow_mut().push(100);
        });
        // The three spawned tasks were queued before block_on's task, and
        // the yield parks the main task past them.
        assert_eq!(*log.borrow(), vec![0, 1, 2, 99, 100]);
    }

    #[test]
    fn join_handle_try_take_and_await() {
        let mut wall = WallRunner::new(1);
        let ctx = wall.ctx();
        let out = wall.block_on(async move {
            let h = ctx.spawn(async { 7u32 });
            assert!(!h.is_finished());
            h.await
        });
        assert_eq!(out, 7);
    }

    #[test]
    fn dropped_sleep_does_not_disturb_other_timers() {
        let mut wall = WallRunner::new(1);
        let ctx = wall.ctx();
        let fired = Rc::new(Cell::new(false));
        {
            let ctx2 = ctx.clone();
            let fired = fired.clone();
            ctx.spawn_detached(async move {
                let long = ctx2.sleep(Duration::from_secs(60));
                drop(long);
                ctx2.sleep(Duration::from_millis(5)).await;
                fired.set(true);
            });
        }
        let ctx2 = ctx;
        wall.block_on(async move {
            ctx2.sleep(Duration::from_millis(20)).await;
        });
        assert!(fired.get());
    }

    #[test]
    fn rng_is_seeded_and_deterministic_in_program_order() {
        let draw = |seed: u64| {
            let mut wall = WallRunner::new(seed);
            let ctx = wall.ctx();
            wall.block_on(async move {
                ctx.with_rng(|rng| (rng.next_u64(), rng.next_u64()))
            })
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    #[should_panic(expected = "wall executor stalled")]
    fn block_on_panics_on_deadlock() {
        let mut wall = WallRunner::new(1);
        struct Never;
        impl Future for Never {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        wall.block_on(Never);
    }
}
