//! Coordination primitives for tasks.
//!
//! Everything here is single-threaded (`Rc`-based) and speaks only the
//! [`std::task::Waker`] protocol; the executor's wakers are the only
//! cross-cutting piece.
//!
//! - [`Semaphore`]: counting semaphore with FIFO fairness — models bounded
//!   worker slots on function nodes (8 vCPUs per node in the paper's setup).
//! - [`TaskGroup`]: a cancellable group of cooperating futures — models a
//!   whole function node whose in-flight work is torn down on a crash.
//! - [`Gate`]: a one-shot broadcast — many waiters released by one event,
//!   in registration order. Models group commit: every member of a flushed
//!   batch learns of completion from the same storage acknowledgement.
//!
//! The ordering guarantees (FIFO semaphore grants, registration-order gate
//! release and group cancellation) are part of the contract, and so is the
//! memory bound: a wait list or semaphore queue holds at most one entry per
//! live waiter, owned and released by the waiting future, and a waiter costs
//! its entry and no allocation of its own. `tests/sync_contracts.rs` is the
//! executable spec.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

/// One acquirer's entry in the semaphore's queue. `ticket` numbers
/// arrivals, so the queue is sorted by it and an acquirer finds its own
/// entry by binary search.
struct Waiter {
    ticket: u64,
    waker: Option<Waker>,
}

struct SemState {
    permits: usize,
    /// One entry per live acquirer that had to queue, in arrival order:
    /// first the `granted` ones whose acquirer has not observed its grant
    /// yet (grants go FIFO, so they form a prefix and an entry is granted
    /// iff its index is below `granted`), then the ones still waiting. The acquiring future takes its entry out when it observes
    /// its grant or is dropped, so the queue never outgrows the acquirers
    /// alive, and a steady queue reuses its buffer without allocating.
    waiters: VecDeque<Waiter>,
    granted: usize,
    next_ticket: u64,
}

impl SemState {
    /// Acquirers still waiting for a grant.
    fn waiting(&self) -> usize {
        self.waiters.len() - self.granted
    }

    /// Index of the entry `ticket` names; its holder is alive, so it is
    /// there.
    fn position(&self, ticket: u64) -> usize {
        self.waiters
            .binary_search_by_key(&ticket, |w| w.ticket)
            .expect("a live acquirer's entry stays queued")
    }
}

/// A counting semaphore with FIFO fairness.
///
/// Fairness matters for the latency experiments: without it, queued requests
/// under saturation would starve unpredictably and p99 latencies would be
/// artifacts of the scheduler rather than of the load.
#[derive(Clone)]
pub struct Semaphore {
    state: Rc<RefCell<SemState>>,
}

impl Semaphore {
    /// Creates a semaphore with `permits` available slots.
    #[must_use]
    pub fn new(permits: usize) -> Semaphore {
        Semaphore {
            state: Rc::new(RefCell::new(SemState {
                permits,
                waiters: VecDeque::new(),
                granted: 0,
                next_ticket: 0,
            })),
        }
    }

    /// Currently available permits.
    #[must_use]
    pub fn available(&self) -> usize {
        self.state.borrow().permits
    }

    /// Number of tasks waiting for a permit (queue depth under load).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.state.borrow().waiting()
    }

    /// Entries in the waiter queue: every acquirer that had to queue, until
    /// it observes its grant or is dropped — at most one per live acquirer
    /// (test/introspection helper; the mirror of [`Gate::waiters`]).
    #[must_use]
    pub fn entries(&self) -> usize {
        self.state.borrow().waiters.len()
    }

    /// Acquires one permit, waiting FIFO behind earlier acquirers.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            sem: self.clone(),
            ticket: None,
        }
    }

    /// Grants the permit to the first waiting acquirer, or returns it to
    /// the pool if nobody waits.
    fn release_one(&self) {
        let mut st = self.state.borrow_mut();
        let first = st.granted;
        let Some(waiter) = st.waiters.get_mut(first) else {
            st.permits += 1;
            return;
        };
        let waker = waiter.waker.take();
        st.granted += 1;
        drop(st);
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

impl std::fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Semaphore(available={}, queued={})",
            self.available(),
            self.queue_len()
        )
    }
}

/// Future returned by [`Semaphore::acquire`]. Queued, it holds the ticket
/// of its one entry in the semaphore's queue.
pub struct Acquire {
    sem: Semaphore,
    ticket: Option<u64>,
}

impl Future for Acquire {
    type Output = SemaphoreGuard;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let mut st = this.sem.state.borrow_mut();
        if let Some(ticket) = this.ticket {
            let i = st.position(ticket);
            if i < st.granted {
                st.waiters.remove(i);
                st.granted -= 1;
                drop(st);
                this.ticket = None;
                return Poll::Ready(SemaphoreGuard {
                    sem: this.sem.clone(),
                });
            }
            st.waiters[i].waker = Some(cx.waker().clone());
            return Poll::Pending;
        }
        if st.permits > 0 && st.waiting() == 0 {
            st.permits -= 1;
            drop(st);
            return Poll::Ready(SemaphoreGuard {
                sem: this.sem.clone(),
            });
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.waiters.push_back(Waiter {
            ticket,
            waker: Some(cx.waker().clone()),
        });
        this.ticket = Some(ticket);
        Poll::Pending
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        let Some(ticket) = self.ticket.take() else {
            return;
        };
        let mut st = self.sem.state.borrow_mut();
        let i = st.position(ticket);
        st.waiters.remove(i);
        if i < st.granted {
            // Granted but never observed: pass the permit on.
            st.granted -= 1;
            drop(st);
            self.sem.release_one();
        }
    }
}

/// Releases its permit on drop.
pub struct SemaphoreGuard {
    sem: Semaphore,
}

impl Drop for SemaphoreGuard {
    fn drop(&mut self) {
        self.sem.release_one();
    }
}

// ---------------------------------------------------------------------------
// WaitList / Latch (owner-held waker registrations)
// ---------------------------------------------------------------------------

/// One waiter's entry in a [`WaitList`]; `waker` is `None` while the slot
/// sits on the free list.
struct WaitSlot {
    seq: u64,
    waker: Option<Waker>,
}

/// A waiting future's claim on one [`WaitList`] slot. `seq` is never reused
/// within a list, so once the slot is drained or re-let the ticket simply
/// stops matching — a stale ticket can neither refresh nor free a slot that
/// now belongs to someone else.
#[derive(Clone, Copy)]
struct Ticket {
    idx: u32,
    seq: u64,
}

/// The wakers of the futures currently parked on one event.
///
/// The bound is structural: a slot is created by, refreshed by and released
/// by the one future holding its [`Ticket`], so the list never holds more
/// than one entry per live waiter no matter how often each is polled.
/// `Waker::will_wake` only saves the clone when the waker is unchanged; it is
/// best-effort (an executor may hand out a fresh waker every poll) and
/// nothing here relies on it for the bound.
struct WaitList {
    slots: Vec<WaitSlot>,
    free: Vec<u32>,
    next_seq: u64,
}

impl WaitList {
    fn with_capacity(waiters: usize) -> WaitList {
        WaitList {
            slots: Vec::with_capacity(waiters),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Number of parked waiters.
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn slot_of(&mut self, ticket: Ticket) -> Option<&mut WaitSlot> {
        self.slots
            .get_mut(ticket.idx as usize)
            .filter(|slot| slot.seq == ticket.seq)
    }

    /// Parks `waker` in the slot `ticket` names, taking a slot (and the next
    /// sequence number) first if the ticket is absent or stale.
    fn park(&mut self, ticket: &mut Option<Ticket>, waker: &Waker) {
        if let Some(slot) = ticket.and_then(|t| self.slot_of(t)) {
            let held = slot.waker.as_mut().expect("a ticketed slot is occupied");
            if !held.will_wake(waker) {
                *held = waker.clone();
            }
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = WaitSlot {
            seq,
            waker: Some(waker.clone()),
        };
        let idx = if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = slot;
            idx
        } else {
            self.slots.push(slot);
            u32::try_from(self.slots.len() - 1).expect("wait list overflow")
        };
        *ticket = Some(Ticket { idx, seq });
    }

    /// Frees the slot `ticket` names, if it still names one.
    fn release(&mut self, ticket: &mut Option<Ticket>) {
        let Some(t) = ticket.take() else { return };
        if let Some(slot) = self.slot_of(t) {
            slot.waker = None;
            self.free.push(t.idx);
        }
    }

    /// Empties the list and returns the parked waiters in first-registration
    /// order. Every outstanding ticket goes stale.
    fn drain(&mut self) -> Vec<WaitSlot> {
        self.free.clear();
        let mut parked = std::mem::take(&mut self.slots);
        parked.retain(|slot| slot.waker.is_some());
        // Only a slot freed by one waiter and re-let to a later one sits
        // out of order; otherwise this is one pass over a sorted list.
        parked.sort_unstable_by_key(|slot| slot.seq);
        parked
    }
}

/// A level-triggered flag and the futures waiting for it to be set — the
/// state behind both [`Gate`] (flag = open) and [`TaskGroup`] (flag =
/// cancelled).
struct Latch {
    set: bool,
    waiters: WaitList,
}

impl Latch {
    fn with_capacity(waiters: usize) -> Rc<RefCell<Latch>> {
        Rc::new(RefCell::new(Latch {
            set: false,
            waiters: WaitList::with_capacity(waiters),
        }))
    }

    /// Sets the flag and wakes each parked waiter once, in the order they
    /// first parked, so the executor's FIFO ready queue resumes them
    /// deterministically in that order.
    fn raise(this: &RefCell<Latch>) {
        let mut woken = {
            let mut st = this.borrow_mut();
            st.set = true;
            st.waiters.drain()
        };
        for slot in woken.drain(..) {
            if let Some(waker) = slot.waker {
                waker.wake();
            }
        }
        // Hand the emptied buffer back: nothing parks while the flag is
        // set, so it sits unused until the flag is lowered again — at which
        // point the retained capacity makes the next round of waiters
        // allocation-free.
        let mut st = this.borrow_mut();
        if st.waiters.slots.capacity() == 0 {
            st.waiters.slots = woken;
        }
    }
}

/// Resolves once its latch's flag is set (immediately if it already is):
/// the future behind [`Gate::wait`] and [`TaskGroup::cancelled`]. Parked, it
/// holds one registration, which it gives back when dropped.
pub struct LatchWait {
    latch: Rc<RefCell<Latch>>,
    ticket: Option<Ticket>,
}

impl Future for LatchWait {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let mut st = this.latch.borrow_mut();
        if st.set {
            return Poll::Ready(());
        }
        st.waiters.park(&mut this.ticket, cx.waker());
        Poll::Pending
    }
}

impl Drop for LatchWait {
    fn drop(&mut self) {
        self.latch.borrow_mut().waiters.release(&mut self.ticket);
    }
}

// ---------------------------------------------------------------------------
// Gate (one-shot broadcast)
// ---------------------------------------------------------------------------

/// A one-shot broadcast gate: any number of tasks [`Gate::wait`] until one
/// call to [`Gate::open`] releases them all.
///
/// Level-triggered — waiting on an already-open gate resolves immediately —
/// and fair: waiters are woken in the order they first polled, so the
/// executor's FIFO ready queue resumes them deterministically in
/// registration order. Clones share state. A gate never closes again while
/// anyone else holds it; for a recurring barrier, make a fresh gate per
/// round or [`Gate::try_reset`] one nobody else holds (the shared-log
/// batcher does the latter with each pooled batch's gate).
#[derive(Clone)]
pub struct Gate {
    state: Rc<RefCell<Latch>>,
}

impl Default for Gate {
    fn default() -> Gate {
        Gate::new()
    }
}

impl Gate {
    /// Creates a closed gate.
    #[must_use]
    pub fn new() -> Gate {
        Gate::with_capacity(0)
    }

    /// Creates a closed gate with room for `waiters` parked tasks before
    /// the wait list reallocates. Use when the waiter count is known up
    /// front (the shared-log batcher sizes gates to the batch cap).
    #[must_use]
    pub fn with_capacity(waiters: usize) -> Gate {
        Gate {
            state: Latch::with_capacity(waiters),
        }
    }

    /// Closes this gate back up for reuse — but only if this handle is the
    /// *last* reference, so no task can ever observe an open gate turning
    /// closed (the one-shot contract holds for every observer). Returns
    /// whether the reset happened; on `false` the caller should allocate a
    /// fresh gate. Retains the wait list's capacity, which is the point:
    /// a recycled gate parks its next round of waiters allocation-free.
    #[must_use]
    pub fn try_reset(&self) -> bool {
        if Rc::strong_count(&self.state) != 1 {
            return false;
        }
        self.state.borrow_mut().set = false;
        true
    }

    /// Opens the gate, waking every waiter. Idempotent.
    pub fn open(&self) {
        Latch::raise(&self.state);
    }

    /// True once the gate has been opened.
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.state.borrow().set
    }

    /// Number of live [`Gate::wait`] futures currently parked on the gate
    /// (test/introspection helper). Exact: a waiter dropped before the open
    /// takes its registration with it.
    #[must_use]
    pub fn waiters(&self) -> usize {
        self.state.borrow().waiters.len()
    }

    /// Resolves once the gate is open (immediately if it already is).
    #[must_use]
    pub fn wait(&self) -> LatchWait {
        LatchWait {
            latch: self.state.clone(),
            ticket: None,
        }
    }
}

impl std::fmt::Debug for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.borrow();
        write!(f, "Gate(open={}, waiters={})", st.set, st.waiters.len())
    }
}

// ---------------------------------------------------------------------------
// TaskGroup (cancellable)
// ---------------------------------------------------------------------------

/// A future was torn down by [`TaskGroup::cancel`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("task group cancelled")
    }
}
impl std::error::Error for Cancelled {}

/// A cancellable group of cooperating futures.
///
/// Futures join the group by running inside [`TaskGroup::run`], which
/// resolves to `Err(Cancelled)` — dropping the wrapped future and thereby
/// its resources — as soon as [`TaskGroup::cancel`] fires. The group models
/// a failure domain (in this workspace: one function node); cancelling it is
/// the simulation's equivalent of the node's process dying with all in-flight
/// work. [`TaskGroup::reset`] re-arms the group when the domain recovers.
///
/// The wrapper holds the inner future inline and polls it in place on the
/// same task: when the group is never cancelled, scheduling is
/// bit-identical to running the future bare (no extra tasks, timers, RNG
/// draws or allocations).
///
/// A member costs the group one registration while it is parked and nothing
/// once it has completed or been dropped, so a long-lived group's footprint
/// and per-poll cost follow the work in flight, not the work ever served.
#[derive(Clone)]
pub struct TaskGroup {
    state: Rc<RefCell<Latch>>,
}

impl Default for TaskGroup {
    fn default() -> TaskGroup {
        TaskGroup::new()
    }
}

impl TaskGroup {
    /// Creates a live (non-cancelled) group.
    #[must_use]
    pub fn new() -> TaskGroup {
        TaskGroup {
            state: Latch::with_capacity(0),
        }
    }

    /// Cancels the group: every future inside [`TaskGroup::run`] resolves to
    /// `Err(Cancelled)` at its next poll, and its inner future is dropped.
    /// Each parked member is woken exactly once, in the order the members
    /// first parked. Idempotent; the group stays cancelled until
    /// [`TaskGroup::reset`].
    pub fn cancel(&self) {
        Latch::raise(&self.state);
    }

    /// Re-arms a cancelled group (the failure domain recovered).
    ///
    /// Cancellation is a level read at poll time, not an event delivered to
    /// each member: a member that [`TaskGroup::cancel`] woke but that has not
    /// been polled yet when `reset` runs finds the group live, never observes
    /// the cancellation, and carries on (parking afresh, behind any member
    /// that parked in between). To tear work down reliably, let the woken
    /// members run before resetting — the runtime separates a node's crash
    /// from its recovery by virtual time.
    pub fn reset(&self) {
        self.state.borrow_mut().set = false;
    }

    /// True while the group is cancelled.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.state.borrow().set
    }

    /// Number of live [`TaskGroup::run`] / [`TaskGroup::cancelled`] futures
    /// currently parked in the group (test/introspection helper; the mirror
    /// of [`Gate::waiters`]).
    #[must_use]
    pub fn members(&self) -> usize {
        self.state.borrow().waiters.len()
    }

    /// Runs `fut` under the group: yields `Ok(output)` on completion, or
    /// `Err(Cancelled)` — dropping `fut` in place mid-flight — if the group
    /// is cancelled first.
    pub fn run<F: Future>(&self, fut: F) -> RunCancellable<F> {
        RunCancellable {
            group: self.clone(),
            fut: Some(fut),
            ticket: None,
        }
    }

    /// Resolves when the group is cancelled (level-triggered: immediately if
    /// it already is).
    #[must_use]
    pub fn cancelled(&self) -> LatchWait {
        LatchWait {
            latch: self.state.clone(),
            ticket: None,
        }
    }
}

impl std::fmt::Debug for TaskGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.borrow();
        write!(
            f,
            "TaskGroup(cancelled={}, members={})",
            st.set,
            st.waiters.len()
        )
    }
}

/// Future returned by [`TaskGroup::run`]. It is `Unpin` exactly when the
/// member is.
pub struct RunCancellable<F: Future> {
    group: TaskGroup,
    fut: Option<F>,
    ticket: Option<Ticket>,
}

impl<F: Future> RunCancellable<F> {
    /// Drops the inner future in place and gives the registration back.
    /// Called at the completion or cancellation instant — teardown does not
    /// wait for the wrapper to be dropped — and again, harmlessly, on drop.
    fn finish(&mut self) {
        self.fut = None;
        self.group
            .state
            .borrow_mut()
            .waiters
            .release(&mut self.ticket);
    }
}

impl<F: Future> Future for RunCancellable<F> {
    type Output = Result<F::Output, Cancelled>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: `fut` is the only structurally pinned field. It is never
        // moved: it is polled through the pin below and dropped in place by
        // `finish` (assigning `None`), here and in `Drop`. Every other field
        // is `Unpin`, and the type has no `Unpin` impl of its own.
        let this = unsafe { self.get_unchecked_mut() };
        if this.group.is_cancelled() {
            this.finish();
            return Poll::Ready(Err(Cancelled));
        }
        // SAFETY: see above.
        let fut = unsafe { Pin::new_unchecked(&mut this.fut) }
            .as_pin_mut()
            .expect("RunCancellable polled after completion");
        match fut.poll(cx) {
            Poll::Ready(v) => {
                this.finish();
                Poll::Ready(Ok(v))
            }
            Poll::Pending => {
                let mut st = this.group.state.borrow_mut();
                st.waiters.park(&mut this.ticket, cx.waker());
                Poll::Pending
            }
        }
    }
}

impl<F: Future> Drop for RunCancellable<F> {
    fn drop(&mut self) {
        self.finish();
    }
}
