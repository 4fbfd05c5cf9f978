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
//!   the configured concurrency bound is never exceeded.
//! - `Gate`: one `open()` releases every waiter, in registration order.
//! - `TaskGroup`: one `cancel()` wakes every live member exactly once, in
//!   first-registration order, across `reset()` rounds.
//! - Wait lists (`TaskGroup`, `Gate`): at most one registration per live
//!   waiter — however often it is polled — and none for a waiter that
//!   completed or was dropped. The bound comes from ownership; the executor's
//!   `Waker::will_wake` is only a fast path (pinned here too: a task's waker
//!   recognises its own clone and no other task's).

use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use hm_substrate::sim::Sim;
use hm_substrate::sync::{Cancelled, Gate, Semaphore, TaskGroup};
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
/// order and concurrency must never exceed `permits`.
async fn semaphore_fifo_property(
    ctx: Ctx,
    n: u32,
    permits: usize,
    hold: Duration,
) -> (Vec<u32>, usize) {
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
    (got, peak.get())
}

/// Gate broadcast: `n` waiters register at distinct instants; one
/// `open()` after the last registration must release all of them, in
/// registration order.
async fn gate_release_property(ctx: Ctx, n: u32) -> Vec<u32> {
    let gate = Gate::new();
    let order = Rc::new(RefCell::new(Vec::new()));
    let mut handles = Vec::new();
    for i in 0..n {
        let ctx2 = ctx.clone();
        let gate = gate.clone();
        let order = order.clone();
        handles.push(ctx.spawn(async move {
            ctx2.sleep(STAGGER * i).await;
            gate.wait().await;
            order.borrow_mut().push(i);
        }));
    }
    // Open strictly after every waiter has parked.
    ctx.sleep(STAGGER * n + STAGGER).await;
    assert_eq!(gate.waiters(), n as usize, "all waiters parked before open");
    gate.open();
    for h in handles {
        h.await;
    }
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

        let (order, peak) = run(iter, |ctx| semaphore_fifo_property(ctx, n, permits, hold));

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
/// (parked, after-drop) counts for `RunCancellable`, `CancelledFut`, `GateWait`.
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

    // The bystanders still hear the event.
    group.cancel();
    gate.open();
    assert!(poll_once(&mut bystander).await.is_ready());
    assert!(poll_once(&mut gate_bystander).await.is_ready());
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

/// (d) + (e): two rounds on one group. In each, members arrive at distinct
/// instants and take a seeded role; one `cancel()` after the last arrival
/// must resume exactly the live ones, in arrival order, and leave the group
/// empty; `reset()` then re-arms it, so round two runs on reused slots.
/// Returns, per round, (resume order, expected order).
async fn cancel_order_property(ctx: Ctx, roles: [Vec<Role>; 2]) -> Vec<(Vec<u32>, Vec<u32>)> {
    let group = TaskGroup::new();
    let mut rounds = Vec::new();
    for roles in roles {
        let n = roles.len() as u32;
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut handles = Vec::new();
        for (i, role) in (0..n).zip(roles.iter().copied()) {
            let (ctx2, group, order) = (ctx.clone(), group.clone(), order.clone());
            handles.push(ctx.spawn(async move {
                ctx2.sleep(STAGGER * i).await;
                let ctx3 = ctx2.clone();
                let body = async move {
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
                    order.borrow_mut().push(i);
                }
            }));
        }
        // Cancel strictly after every member has parked (and the
        // finishers have finished).
        ctx.sleep(STAGGER * n + STAGGER).await;
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

/// The executor's wakers: (own clone matches, another task's matches).
async fn waker_identity_property(ctx: Ctx) -> (bool, bool) {
    let other = ctx
        .spawn(poll_fn(|cx| Poll::Ready(cx.waker().clone())))
        .await;
    poll_fn(move |cx| {
        let mine = cx.waker();
        Poll::Ready((mine.will_wake(&mine.clone()), mine.will_wake(&other)))
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
    let (own, other) = run(0, waker_identity_property);
    assert!(own, "a task's waker must will_wake its own clone");
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
