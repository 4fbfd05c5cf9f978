//! Executable spec for the substrate sync contracts, run on a [`Sim`]:
//! the one way a [`Ctx`] comes to exist (a fan-out partition is a `Sim`).
//!
//! Randomization is a seeded loop (the workspace vendors no proptest): each
//! iteration draws its shape — permit counts, waiter counts, hold times —
//! from a `SmallRng` seeded with the iteration index, so failures replay
//! exactly.
//!
//! Contracts under test (the ones that depend on the executor's wakeup
//! order):
//! - `Semaphore`: permits are granted in strict arrival (FIFO) order, and
//!   the configured concurrency bound is never exceeded but is reached
//!   once enough acquirers overlap.
//! - `Gate`: one `open()` releases every waiter at that instant, in
//!   registration order; `open()` is idempotent and level-triggered.
//! - `TaskGroup`: one `cancel()` wakes every live member exactly once, in
//!   first-registration order, across `reset()` rounds, and drops each
//!   member's future at the cancel instant. A cancelled group resolves
//!   new `run` and `cancelled` futures at once.
//! - Wait lists (`TaskGroup`, `Gate`) and the `Semaphore`'s queue: at most
//!   one entry per live waiter — however often it is polled — and none for a
//!   waiter that completed or was dropped. A `Semaphore` waiter dropped
//!   before its grant leaves the queue (`queue_len()` stays exact and the
//!   rest keep their FIFO order); one dropped after its grant but before
//!   observing it passes the permit to the next waiter in order. The bound
//!   comes from ownership; the executor's `Waker::will_wake` is only a fast
//!   path (pinned here too: a task's waker recognises its own clone and
//!   the waker of its later polls, and no other task's).

use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use hm_substrate::sim::Sim;
use hm_substrate::sync::{Acquire, Cancelled, Gate, Semaphore, SemaphoreGuard, TaskGroup};
use hm_substrate::Ctx;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Iterations per property.
const ITERS: u64 = 64;

/// Arrival stagger between contending tasks.
const STAGGER: Duration = Duration::from_millis(2);

/// Runs `body` to completion on a `Sim` at `seed`.
fn run<R: 'static, Fut>(seed: u64, body: impl FnOnce(Ctx) -> Fut) -> R
where
    Fut: Future<Output = R> + 'static,
{
    let mut sim = Sim::new(seed);
    sim.block_on(body(sim.ctx()))
}

/// Semaphore FIFO: `n` tasks arrive at distinct instants and contend for
/// `permits` slots held for `hold` each; grants must come in arrival
/// order and concurrency must never exceed `permits`. Returns the grant
/// order, the peak concurrency and the permits free once all are done.
async fn semaphore_fifo_property(
    ctx: Ctx,
    n: u32,
    permits: usize,
    hold: Duration,
) -> (Vec<u32>, usize, usize) {
    let sem = Semaphore::new(permits);
    let order = Rc::new(RefCell::new(Vec::new()));
    let cur = Rc::new(Cell::new(0usize));
    let peak = Rc::new(Cell::new(0usize));
    let mut handles = Vec::new();
    for i in 0..n {
        let ctx2 = ctx.clone();
        let sem = sem.clone();
        let order = order.clone();
        let cur = cur.clone();
        let peak = peak.clone();
        handles.push(ctx.spawn(async move {
            ctx2.sleep(STAGGER * i).await;
            let _guard = sem.acquire().await;
            order.borrow_mut().push(i);
            cur.set(cur.get() + 1);
            peak.set(peak.get().max(cur.get()));
            ctx2.sleep(hold).await;
            cur.set(cur.get() - 1);
        }));
    }
    for h in handles {
        h.await;
    }
    let got = order.borrow().clone();
    (got, peak.get(), sem.available())
}

/// Gate broadcast: `n` waiters register at distinct instants; one
/// `open()` after the last registration must release all of them at the
/// open instant, in registration order. A second `open()` is a no-op, and
/// a wait on the open gate resolves without time passing.
async fn gate_release_property(ctx: Ctx, n: u32) -> Vec<u32> {
    let gate = Gate::new();
    let order = Rc::new(RefCell::new(Vec::new()));
    let open_at = STAGGER * n + STAGGER;
    let mut handles = Vec::new();
    for i in 0..n {
        let ctx2 = ctx.clone();
        let gate = gate.clone();
        let order = order.clone();
        handles.push(ctx.spawn(async move {
            ctx2.sleep(STAGGER * i).await;
            gate.wait().await;
            assert_eq!(ctx2.now(), open_at, "waiter {i} released late");
            order.borrow_mut().push(i);
        }));
    }
    // Open strictly after every waiter has parked.
    ctx.sleep(open_at).await;
    assert_eq!(gate.waiters(), n as usize, "all waiters parked before open");
    assert!(!gate.is_open());
    gate.open();
    gate.open();
    assert!(gate.is_open());
    for h in handles {
        h.await;
    }
    gate.wait().await;
    assert_eq!(ctx.now(), open_at, "an open gate must not wait");
    let got = order.borrow().clone();
    got
}

#[test]
fn semaphore_grants_fifo() {
    for iter in 0..ITERS {
        let mut shape = SmallRng::seed_from_u64(0x5e3a_0000 + iter);
        let n = shape.random_range(2..10u32);
        let permits = shape.random_range(1..4usize);
        let hold = Duration::from_millis(shape.random_range(1..6u64)) * n;

        let (order, peak, available) =
            run(iter, |ctx| semaphore_fifo_property(ctx, n, permits, hold));

        let expect: Vec<u32> = (0..n).collect();
        assert_eq!(
            order, expect,
            "broke semaphore FIFO (iter {iter}: n={n} permits={permits})"
        );
        assert!(
            peak <= permits,
            "exceeded the concurrency bound \
             (iter {iter}: peak {peak} > permits {permits})"
        );
        // The first `permits` arrivals overlap once a hold outlasts their
        // stagger, and then the bound is reached.
        if hold > STAGGER * (permits as u32 - 1) {
            assert_eq!(
                peak,
                permits.min(n as usize),
                "left a permit idle (iter {iter}: n={n} permits={permits})"
            );
        }
        assert_eq!(available, permits, "lost a permit (iter {iter})");
    }
}

/// Polls a semaphore acquirer by hand under a no-op waker.
fn poll_acquire(acq: &mut Acquire) -> Poll<SemaphoreGuard> {
    Pin::new(acq).poll(&mut Context::from_waker(Waker::noop()))
}

/// A permit `sem` has free, taken at once.
fn granted_now(sem: &Semaphore) -> SemaphoreGuard {
    match poll_acquire(&mut sem.acquire()) {
        Poll::Ready(guard) => guard,
        Poll::Pending => panic!("a free permit is granted at once"),
    }
}

/// `permits` guards taken at once from a fresh semaphore, and `n` acquirers
/// queued behind them in index order.
fn queued_behind(permits: usize, n: u32) -> (Semaphore, Vec<SemaphoreGuard>, Vec<Option<Acquire>>) {
    let sem = Semaphore::new(permits);
    let held = (0..permits).map(|_| granted_now(&sem)).collect();
    let mut waiters: Vec<_> = (0..n).map(|_| Some(sem.acquire())).collect();
    for w in waiters.iter_mut().flatten() {
        assert!(poll_acquire(w).is_pending());
    }
    assert_eq!(sem.queue_len(), n as usize);
    (sem, held, waiters)
}

/// Waiters dropped mid-queue leave it: after each drop `queue_len()` counts
/// exactly the rest, and releasing the held permits one at a time grants
/// the rest in arrival order — whatever order the survivors are polled in.
#[test]
fn semaphore_dropped_waiters_keep_fifo_and_count() {
    for iter in 0..ITERS {
        let mut shape = SmallRng::seed_from_u64(0x5d70_0000 + iter);
        let permits = shape.random_range(1..4usize);
        let n = shape.random_range(2..24u32);
        let (sem, mut held, mut waiters) = queued_behind(permits, n);
        let mut live: Vec<u32> = (0..n).collect();
        for i in 0..n {
            if shape.random_range(0..3u32) == 0 {
                waiters[i as usize] = None;
                live.retain(|&w| w != i);
                assert_eq!(
                    sem.queue_len(),
                    live.len(),
                    "iter {iter}: after dropping {i}"
                );
            }
        }
        let mut granted = Vec::new();
        while !held.is_empty() {
            held.remove(0);
            // Poll the survivors newest first: only the oldest may be granted.
            let ready: Vec<u32> = (0..n)
                .rev()
                .filter_map(|i| {
                    let w = waiters[i as usize].as_mut()?;
                    let Poll::Ready(guard) = poll_acquire(w) else {
                        return None;
                    };
                    waiters[i as usize] = None;
                    held.push(guard);
                    Some(i)
                })
                .collect();
            assert!(
                ready.len() <= 1,
                "iter {iter}: one release granted {ready:?}"
            );
            granted.extend(ready);
            let left = live.len() - granted.len();
            assert_eq!(sem.queue_len(), left, "iter {iter}: after {granted:?}");
        }
        assert_eq!(granted, live, "iter {iter}: grants out of arrival order");
        assert_eq!(
            (sem.entries(), sem.available()),
            (0, permits),
            "iter {iter}"
        );
    }
}

/// A waiter granted a permit but dropped before it observes the grant
/// passes the permit on to the next waiter in arrival order. Each waiter's
/// waker logs its index, so the wake log is the grant order; a seeded
/// subset of the waiters is dropped unobserved, the rest take their guard
/// and release it.
#[test]
fn semaphore_unobserved_grant_passes_to_the_next_waiter() {
    for iter in 0..ITERS {
        let mut shape = SmallRng::seed_from_u64(0x9a55_0000 + iter);
        let n = shape.random_range(2..24u32);
        let sem = Semaphore::new(1);
        let held = granted_now(&sem);
        let log = Arc::new(Mutex::new(Vec::new()));
        let waiters: Vec<Acquire> = (0..n)
            .map(|i| {
                let waker = Waker::from(Arc::new(LoggingWake {
                    id: i,
                    log: log.clone(),
                }));
                let mut w = sem.acquire();
                assert!(Pin::new(&mut w)
                    .poll(&mut Context::from_waker(&waker))
                    .is_pending());
                w
            })
            .collect();
        drop(held);
        for (i, mut w) in (0..n).zip(waiters) {
            // Waiter `i` holds the grant and has not observed it.
            let granted: Vec<u32> = (0..=i).collect();
            assert_eq!(*log.lock().unwrap(), granted, "iter {iter}");
            assert_eq!(sem.queue_len(), (n - i - 1) as usize, "iter {iter}");
            if shape.random_range(0..2u32) == 0 {
                drop(w);
            } else {
                let Poll::Ready(guard) = poll_acquire(&mut w) else {
                    panic!("iter {iter}: waiter {i} was woken but not granted");
                };
                assert_eq!(*log.lock().unwrap(), granted, "iter {iter}: held");
                drop(guard);
            }
        }
        assert_eq!(log.lock().unwrap().len(), n as usize, "iter {iter}");
        assert_eq!((sem.entries(), sem.available()), (0, 1), "iter {iter}");
    }
}

/// Seeded churn of arrivals, re-polls, drops and releases: after every
/// step the queue holds no more entries than live acquirers, and
/// `queue_len()` never exceeds the entries; once everything is dropped the
/// queue is empty and every permit is back.
#[test]
fn semaphore_churn_keeps_one_entry_per_acquirer() {
    for iter in 0..ITERS {
        let mut shape = SmallRng::seed_from_u64(0xc4e2_0000 + iter);
        let permits = shape.random_range(1..4usize);
        let sem = Semaphore::new(permits);
        let mut acquirers: Vec<Acquire> = Vec::new();
        let mut guards: Vec<SemaphoreGuard> = Vec::new();
        for step in 0..400 {
            match shape.random_range(0..8u32) {
                // A new acquirer polls once: granted at once or queued.
                0..=2 => {
                    let mut acq = sem.acquire();
                    match poll_acquire(&mut acq) {
                        Poll::Ready(guard) => guards.push(guard),
                        Poll::Pending => acquirers.push(acq),
                    }
                }
                // A live acquirer is polled again, observing any grant.
                3 | 4 if !acquirers.is_empty() => {
                    let i = shape.random_range(0..acquirers.len());
                    if let Poll::Ready(guard) = poll_acquire(&mut acquirers[i]) {
                        acquirers.remove(i);
                        guards.push(guard);
                    }
                }
                // A live acquirer is dropped, granted or not.
                5 if !acquirers.is_empty() => {
                    let i = shape.random_range(0..acquirers.len());
                    acquirers.remove(i);
                }
                // A held guard is released.
                6 | 7 if !guards.is_empty() => {
                    let i = shape.random_range(0..guards.len());
                    guards.remove(i);
                }
                _ => {}
            }
            assert!(
                sem.entries() <= acquirers.len(),
                "iter {iter} step {step}: {} entries for {} live acquirers",
                sem.entries(),
                acquirers.len()
            );
            assert!(sem.queue_len() <= sem.entries(), "iter {iter} step {step}");
            assert!(guards.len() <= permits, "iter {iter} step {step}");
        }
        acquirers.clear();
        guards.clear();
        assert_eq!((sem.entries(), sem.queue_len()), (0, 0), "iter {iter}");
        assert_eq!(sem.available(), permits, "iter {iter}");
    }
}

#[test]
fn gate_releases_in_registration_order() {
    for iter in 0..ITERS {
        let mut shape = SmallRng::seed_from_u64(0x6a7e_0000 + iter);
        let n = shape.random_range(2..12u32);

        let order = run(iter, |ctx| gate_release_property(ctx, n));

        let expect: Vec<u32> = (0..n).collect();
        assert_eq!(
            order, expect,
            "broke gate registration-order release (iter {iter}: n={n})"
        );
    }
}

// ---------------------------------------------------------------------------
// Wait-list bound and TaskGroup cancellation order
// ---------------------------------------------------------------------------

/// Polls `fut` once with the calling task's waker.
async fn poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
    poll_fn(|cx| Poll::Ready(Pin::new(&mut *fut).poll(cx))).await
}

/// Returns `Pending` `n` times, waking itself each time so the executor
/// polls again at once, and runs `each` at every poll.
async fn repoll(n: u32, mut each: impl FnMut()) {
    let mut left = n;
    poll_fn(|cx| {
        each();
        if left == 0 {
            return Poll::Ready(());
        }
        left -= 1;
        cx.waker().wake_by_ref();
        Poll::Pending
    })
    .await;
}

/// (a) One member polled `polls` times holds at most one registration, and
/// none once it completes.
async fn one_member_many_polls_property(polls: u32) -> (usize, usize) {
    let group = TaskGroup::new();
    let peak = Rc::new(Cell::new(0usize));
    let (g, p) = (group.clone(), peak.clone());
    let out = group
        .run(repoll(polls, move || p.set(p.get().max(g.members()))))
        .await;
    assert_eq!(out, Ok(()));
    (peak.get(), group.members())
}

/// (b) `n` members that each park once and run to completion leave nothing
/// behind. Returns (peak registrations seen, registrations left).
async fn completed_members_property(ctx: Ctx, n: u32) -> (usize, usize) {
    let group = TaskGroup::new();
    let peak = Rc::new(Cell::new(0usize));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let (group, peak) = (group.clone(), peak.clone());
            ctx.spawn(async move {
                let g = group.clone();
                let body = repoll(1, move || peak.set(peak.get().max(g.members())));
                assert_eq!(group.run(body).await, Ok(()));
            })
        })
        .collect();
    for h in handles {
        h.await;
    }
    (peak.get(), group.members())
}

/// (c) An unfinished waiter dropped mid-wait frees its slot: returns the
/// (parked, after-drop) counts for `RunCancellable` and the `LatchWait`s of
/// `TaskGroup::cancelled` and `Gate::wait`. The waiters parked around a
/// dropped one still hear the event. Once the event is raised, a waiter
/// that arrives after it resolves at its first poll.
async fn dropped_waiters_property() -> [(usize, usize); 3] {
    let group = TaskGroup::new();
    let gate = Gate::new();
    // A live bystander in each list, so the slot freed is not simply the last.
    let mut bystander = group.cancelled();
    let mut gate_bystander = gate.wait();
    assert!(poll_once(&mut bystander).await.is_pending());
    assert!(poll_once(&mut gate_bystander).await.is_pending());

    let mut run = group.run(std::future::pending::<()>());
    assert!(poll_once(&mut run).await.is_pending());
    let run_parked = group.members();
    drop(run);
    let run_after = group.members();

    let mut cancelled = group.cancelled();
    assert!(poll_once(&mut cancelled).await.is_pending());
    let cancelled_parked = group.members();
    drop(cancelled);
    let cancelled_after = group.members();

    let mut wait = gate.wait();
    assert!(poll_once(&mut wait).await.is_pending());
    let wait_parked = gate.waiters();
    drop(wait);
    let wait_after = gate.waiters();
    // A waiter parked after the dropped one.
    let mut gate_latecomer = gate.wait();
    assert!(poll_once(&mut gate_latecomer).await.is_pending());

    // The bystanders and the latecomer still hear the event.
    group.cancel();
    gate.open();
    assert!(poll_once(&mut bystander).await.is_ready());
    assert!(poll_once(&mut gate_bystander).await.is_ready());
    assert!(poll_once(&mut gate_latecomer).await.is_ready());
    // Level-triggered: latecomers do not park, and new work is rejected.
    assert!(group.is_cancelled());
    assert!(poll_once(&mut group.cancelled()).await.is_ready());
    assert!(poll_once(&mut gate.wait()).await.is_ready());
    let late = poll_once(&mut group.run(std::future::ready(()))).await;
    assert_eq!(late, Poll::Ready(Err(Cancelled)));
    [
        (run_parked - 1, run_after - 1),
        (cancelled_parked - 1, cancelled_after - 1),
        (wait_parked - 1, wait_after - 1),
    ]
}

/// What a member of [`cancel_order_property`] does after parking.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    /// Parks once and waits for the cancel.
    Parked,
    /// Re-polled a few times before the cancel: must keep its place.
    Repolled,
    /// Completes before the cancel: must not be woken by it.
    Finishes,
}

/// Records the virtual instant it is dropped at (none if the `Sim` is
/// already gone).
struct DropClock(Ctx, Rc<Cell<Option<Duration>>>);

impl Drop for DropClock {
    fn drop(&mut self) {
        self.1.set(self.0.try_now());
    }
}

/// (d) + (e): two rounds on one group. In each, members arrive at distinct
/// instants and take a seeded role; one `cancel()` after the last arrival
/// must resume exactly the live ones, in arrival order, with each one's
/// future dropped at the cancel instant, and leave the group empty;
/// `reset()` then re-arms it, so round two runs on reused slots.
/// Returns, per round, (resume order, expected order).
async fn cancel_order_property(ctx: Ctx, roles: [Vec<Role>; 2]) -> Vec<(Vec<u32>, Vec<u32>)> {
    let group = TaskGroup::new();
    let mut rounds = Vec::new();
    for roles in roles {
        let n = roles.len() as u32;
        let order = Rc::new(RefCell::new(Vec::new()));
        let cancel_at = ctx.now() + STAGGER * n + STAGGER;
        let mut handles = Vec::new();
        for (i, role) in (0..n).zip(roles.iter().copied()) {
            let (ctx2, group, order) = (ctx.clone(), group.clone(), order.clone());
            handles.push(ctx.spawn(async move {
                ctx2.sleep(STAGGER * i).await;
                let ctx3 = ctx2.clone();
                let dropped_at = Rc::new(Cell::new(None));
                let clock = DropClock(ctx2.clone(), dropped_at.clone());
                let body = async move {
                    let _clock = clock;
                    match role {
                        Role::Parked => ctx3.sleep(Duration::from_secs(3600)).await,
                        Role::Repolled => {
                            for _ in 0..3 {
                                ctx3.sleep(STAGGER / 4).await;
                            }
                            ctx3.sleep(Duration::from_secs(3600)).await;
                        }
                        Role::Finishes => ctx3.sleep(STAGGER / 2).await,
                    }
                };
                if group.run(body).await == Err(Cancelled) {
                    assert_eq!(
                        dropped_at.get(),
                        Some(cancel_at),
                        "member {i} torn down late"
                    );
                    order.borrow_mut().push(i);
                }
            }));
        }
        // Cancel strictly after every member has parked (and the
        // finishers have finished).
        ctx.sleep_until(cancel_at).await;
        let live: Vec<u32> = (0..n)
            .filter(|&i| roles[i as usize] != Role::Finishes)
            .collect();
        assert_eq!(
            group.members(),
            live.len(),
            "one registration per live member"
        );
        group.cancel();
        for h in handles {
            h.await;
        }
        assert_eq!(
            group.members(),
            0,
            "a cancelled group holds no registration"
        );
        group.reset();
        assert!(!group.is_cancelled(), "reset re-arms the group");
        rounds.push((order.borrow().clone(), live));
    }
    rounds
}

/// `cancel()` immediately followed by `reset()`: the member was woken but
/// finds the group live when polled, so it carries on — and, having parked
/// afresh, is torn down by the next cancel.
async fn cancel_then_reset_property(ctx: Ctx) -> (bool, Result<(), Cancelled>) {
    let group = TaskGroup::new();
    let polled_after_reset = Rc::new(Cell::new(false));
    let armed = Rc::new(Cell::new(false));
    let member = {
        let (ctx2, group) = (ctx.clone(), group.clone());
        let (polled, armed) = (polled_after_reset.clone(), armed.clone());
        ctx.spawn(async move {
            let forever = ctx2.sleep(Duration::from_secs(3600));
            let mut forever = std::pin::pin!(forever);
            let body = poll_fn(move |cx| {
                if armed.get() {
                    polled.set(true);
                }
                forever.as_mut().poll(cx)
            });
            group.run(body).await
        })
    };
    ctx.sleep(STAGGER).await;
    assert_eq!(group.members(), 1);
    group.cancel();
    group.reset();
    armed.set(true);
    assert_eq!(group.members(), 0, "cancel consumed the registration");
    ctx.sleep(STAGGER).await;
    // Woken by the cancel, the member re-polled its body under a live group
    // and parked again.
    let repolled = polled_after_reset.get();
    assert!(!member.is_finished(), "the cancellation was never observed");
    assert_eq!(group.members(), 1);
    group.cancel();
    (repolled, member.await)
}

/// The executor's wakers: (own clone matches, the same task's waker at a
/// later poll matches, another task's matches).
async fn waker_identity_property(ctx: Ctx) -> (bool, bool, bool) {
    let other = ctx
        .spawn(poll_fn(|cx| Poll::Ready(cx.waker().clone())))
        .await;
    let first = poll_fn(|cx| Poll::Ready(cx.waker().clone())).await;
    ctx.sleep(STAGGER).await;
    poll_fn(move |cx| {
        let mine = cx.waker();
        Poll::Ready((
            mine.will_wake(&mine.clone()),
            mine.will_wake(&first),
            mine.will_wake(&other),
        ))
    })
    .await
}

#[test]
fn wait_lists_hold_one_registration_per_live_waiter() {
    const MANY: u32 = 10_000;
    let (peak, left) = run(1, |_| one_member_many_polls_property(MANY));
    assert_eq!((peak, left), (1, 0), "one member, {MANY} polls");

    let (peak, left) = run(2, |ctx| completed_members_property(ctx, MANY));
    assert!(peak <= MANY as usize, "peak {peak} registrations");
    assert_eq!(left, 0, "{MANY} completed members left registrations");

    let counts = run(3, |_| dropped_waiters_property());
    assert_eq!(counts, [(1, 0); 3], "(parked, after drop) per waiter kind");
}

#[test]
fn cancel_resumes_live_members_in_registration_order() {
    for iter in 0..ITERS {
        let mut shape = SmallRng::seed_from_u64(0x7a5c_0000 + iter);
        let roles: [Vec<Role>; 2] = std::array::from_fn(|_| {
            let n = shape.random_range(2..10u32);
            (0..n)
                .map(|_| match shape.random_range(0..4u32) {
                    0 => Role::Finishes,
                    1 => Role::Repolled,
                    _ => Role::Parked,
                })
                .collect()
        });

        let rounds = run(iter, |ctx| cancel_order_property(ctx, roles.clone()));
        for (round, (got, expect)) in rounds.into_iter().enumerate() {
            assert_eq!(
                got, expect,
                "broke cancel order (iter {iter} round {round}: {:?})",
                roles[round]
            );
        }
    }
}

#[test]
fn reset_hides_an_unobserved_cancel() {
    let (repolled, out) = run(0, cancel_then_reset_property);
    assert!(repolled, "cancel must wake the parked member");
    assert_eq!(out, Err(Cancelled), "the second cancel lands");
}

#[test]
fn a_waker_matches_its_own_clone_only() {
    let (own, later, other) = run(0, waker_identity_property);
    assert!(own, "a task's waker must will_wake its own clone");
    assert!(later, "one task, two polls: same waker");
    assert!(!other, "a task's waker must not will_wake another task's");
}

/// Waker that logs its id when woken.
struct LoggingWake {
    id: u32,
    log: Arc<Mutex<Vec<u32>>>,
}

impl Wake for LoggingWake {
    fn wake(self: Arc<Self>) {
        self.log.lock().expect("wake log poisoned").push(self.id);
    }
}

/// `cancel()` delivers exactly one wake per live member — to the waker of
/// its *latest* poll — in first-registration order, with no executor in the
/// way: members are polled by hand, every poll under a brand-new waker (the
/// worst case for `will_wake`), a seeded number of times in a seeded
/// interleaving, and a seeded subset is dropped before the cancel.
#[test]
fn cancel_wakes_each_live_member_exactly_once() {
    for iter in 0..64u64 {
        let mut shape = SmallRng::seed_from_u64(0xca9c_0000 + iter);
        let n = shape.random_range(1..24u32);
        let group = TaskGroup::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let stale = Arc::new(Mutex::new(Vec::new()));
        let mut members: Vec<_> = (0..n)
            .map(|_| Some(Box::pin(group.run(std::future::pending::<()>()))))
            .collect();
        let mut first_poll = Vec::new();
        for step in 0..n * 4 {
            // The first n steps park everyone in a shuffled-by-draw order;
            // later steps re-poll or drop at random.
            let i = shape.random_range(0..n);
            let Some(member) = members[i as usize].as_mut() else {
                continue;
            };
            if step >= n && shape.random_range(0..4u32) == 0 {
                members[i as usize] = None;
                first_poll.retain(|&m| m != i);
                continue;
            }
            // Only the latest waker may be woken: every earlier one logs
            // into `stale`.
            let earlier = Waker::from(Arc::new(LoggingWake {
                id: i,
                log: stale.clone(),
            }));
            let latest = Waker::from(Arc::new(LoggingWake {
                id: i,
                log: log.clone(),
            }));
            assert!(member
                .as_mut()
                .poll(&mut Context::from_waker(&earlier))
                .is_pending());
            assert!(member
                .as_mut()
                .poll(&mut Context::from_waker(&latest))
                .is_pending());
            if !first_poll.contains(&i) {
                first_poll.push(i);
            }
        }
        assert_eq!(group.members(), first_poll.len(), "iter {iter}");
        group.cancel();
        assert_eq!(
            *log.lock().unwrap(),
            first_poll,
            "iter {iter}: one wake each, in order"
        );
        assert!(
            stale.lock().unwrap().is_empty(),
            "iter {iter}: a superseded waker was woken"
        );
        assert_eq!(group.members(), 0);
    }
}
