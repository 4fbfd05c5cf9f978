//! [`Ctx`]: the backend-erased substrate context upper layers hold.
//!
//! `Ctx` is an enum over the concrete backend contexts, not a boxed trait
//! object: every method is a small match that the compiler resolves to a
//! direct call. On the sim backend this makes the abstraction free — no
//! allocation, no indirect call, no schedule perturbation — which is what
//! keeps deterministic runs bit-identical to the pre-substrate code. The
//! parallel backend's context delegates its clock, spawning, and RNG to
//! the partition's own sim executor, so the same zero-perturbation
//! argument applies per partition.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use hm_sim::SimCtx;
use rand::rngs::SmallRng;

use crate::par::ParCtx;
use crate::wall::{WallCtx, WallJoinHandle, WallSleep};
use crate::{BackendKind, Clock, RngSource, Spawner, TaskHandle, Time};

/// Cheap clonable handle to the substrate a deployment runs on.
///
/// Mirrors the API protocol code needs — `now`, `sleep`, `spawn`, seeded
/// RNG draws — and implements the [`Clock`], [`Spawner`], and
/// [`RngSource`] traits. Obtain one from [`crate::sim::Sim::ctx`],
/// [`crate::wall::WallRunner::ctx`], or [`crate::Runner::ctx`].
#[derive(Clone)]
pub enum Ctx {
    /// Virtual-time simulation context.
    Sim(SimCtx),
    /// Wall-clock (tokio-style current-thread) context.
    Wall(WallCtx),
    /// Partitioned parallel context: one partition's virtual-time executor
    /// plus the cross-partition messaging surface.
    Par(ParCtx),
}

impl Ctx {
    /// Which backend this context executes on.
    #[must_use]
    pub fn backend(&self) -> BackendKind {
        match self {
            Ctx::Sim(_) => BackendKind::Sim,
            Ctx::Wall(_) => BackendKind::Wall,
            Ctx::Par(_) => BackendKind::Parallel,
        }
    }

    /// The parallel-backend context, if this is one. Protocol code that
    /// exchanges cross-partition messages uses this to reach
    /// [`ParCtx::send`]/[`ParCtx::recv`]; on the other backends it returns
    /// `None` (there is exactly one partition).
    #[must_use]
    pub fn as_par(&self) -> Option<&ParCtx> {
        match self {
            Ctx::Par(c) => Some(c),
            _ => None,
        }
    }

    /// Index of the partition this context executes on (0 outside the
    /// parallel backend).
    #[must_use]
    pub fn partition(&self) -> usize {
        match self {
            Ctx::Par(c) => c.partition(),
            _ => 0,
        }
    }

    /// Total partitions in the run (1 outside the parallel backend).
    #[must_use]
    pub fn partitions(&self) -> usize {
        match self {
            Ctx::Par(c) => c.partitions(),
            _ => 1,
        }
    }

    /// Current substrate time.
    #[must_use]
    pub fn now(&self) -> Time {
        match self {
            Ctx::Sim(c) => c.now(),
            Ctx::Wall(c) => c.now(),
            Ctx::Par(c) => c.now(),
        }
    }

    /// [`Ctx::now`], or `None` once the backend behind this context is
    /// gone: for `Drop` code, which runs during that teardown too.
    #[must_use]
    pub fn try_now(&self) -> Option<Time> {
        match self {
            Ctx::Sim(c) => c.try_now(),
            Ctx::Wall(c) => c.try_now(),
            Ctx::Par(c) => c.try_now(),
        }
    }

    /// Resolves after `d` of substrate time.
    pub fn sleep(&self, d: Time) -> Sleep {
        match self {
            Ctx::Sim(c) => Sleep::Sim(c.sleep(d)),
            Ctx::Wall(c) => Sleep::Wall(c.sleep(d)),
            Ctx::Par(c) => Sleep::Sim(c.sleep(d)),
        }
    }

    /// Resolves at the absolute instant `at` (immediately if in the past).
    pub fn sleep_until(&self, at: Time) -> Sleep {
        match self {
            Ctx::Sim(c) => Sleep::Sim(c.sleep_until(at)),
            Ctx::Wall(c) => Sleep::Wall(c.sleep_until(at)),
            Ctx::Par(c) => Sleep::Sim(c.sleep_until(at)),
        }
    }

    /// Yields once, letting every currently-ready task run first.
    pub fn yield_now(&self) -> Sleep {
        self.sleep(Time::ZERO)
    }

    /// Spawns a task onto the substrate's executor.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        match self {
            Ctx::Sim(c) => JoinHandle::Sim(c.spawn(fut)),
            Ctx::Wall(c) => JoinHandle::Wall(c.spawn(fut)),
            Ctx::Par(c) => JoinHandle::Sim(c.spawn(fut)),
        }
    }

    /// Spawns a task nobody will join; scheduling is identical to
    /// [`Ctx::spawn`], only the join-state cost disappears.
    pub fn spawn_detached(&self, fut: impl Future<Output = ()> + 'static) {
        match self {
            Ctx::Sim(c) => c.spawn_detached(fut),
            Ctx::Wall(c) => c.spawn_detached(fut),
            Ctx::Par(c) => c.spawn_detached(fut),
        }
    }

    /// Runs `f` with the substrate RNG. All randomness must flow through
    /// here for runs to be reproducible.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SmallRng) -> T) -> T {
        match self {
            Ctx::Sim(c) => c.with_rng(f),
            Ctx::Wall(c) => c.with_rng(f),
            Ctx::Par(c) => c.with_rng(f),
        }
    }
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ctx({})", self.backend())
    }
}

impl From<SimCtx> for Ctx {
    fn from(ctx: SimCtx) -> Ctx {
        Ctx::Sim(ctx)
    }
}

impl From<WallCtx> for Ctx {
    fn from(ctx: WallCtx) -> Ctx {
        Ctx::Wall(ctx)
    }
}

impl From<ParCtx> for Ctx {
    fn from(ctx: ParCtx) -> Ctx {
        Ctx::Par(ctx)
    }
}

/// Future returned by [`Ctx::sleep`] — the backend's sleep, no boxing.
pub enum Sleep {
    /// Virtual-time sleep.
    Sim(hm_sim::Sleep),
    /// Wall-clock sleep.
    Wall(WallSleep),
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // Both variants are Unpin (plain handles into their executor's
        // timer table), so projection needs no unsafe.
        match self.get_mut() {
            Sleep::Sim(s) => Pin::new(s).poll(cx),
            Sleep::Wall(s) => Pin::new(s).poll(cx),
        }
    }
}

/// Handle to a task spawned via [`Ctx::spawn`]; awaiting it yields the
/// task's output.
pub enum JoinHandle<T> {
    /// Handle into the sim executor.
    Sim(hm_sim::JoinHandle<T>),
    /// Handle into the wall-clock executor.
    Wall(WallJoinHandle<T>),
}

impl<T> JoinHandle<T> {
    /// Takes the result if the task has completed.
    pub fn try_take(&self) -> Option<T> {
        match self {
            JoinHandle::Sim(h) => h.try_take(),
            JoinHandle::Wall(h) => h.try_take(),
        }
    }

    /// True if the task has finished (and the result not yet taken).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        match self {
            JoinHandle::Sim(h) => h.is_finished(),
            JoinHandle::Wall(h) => h.is_finished(),
        }
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        match self.get_mut() {
            JoinHandle::Sim(h) => Pin::new(h).poll(cx),
            JoinHandle::Wall(h) => Pin::new(h).poll(cx),
        }
    }
}

impl<T> TaskHandle<T> for JoinHandle<T> {
    fn try_take(&self) -> Option<T> {
        JoinHandle::try_take(self)
    }

    fn is_finished(&self) -> bool {
        JoinHandle::is_finished(self)
    }
}

// --- trait impls: the sim backend ------------------------------------------

impl Clock for SimCtx {
    type Sleep = hm_sim::Sleep;

    fn now(&self) -> Time {
        SimCtx::now(self)
    }

    fn sleep(&self, d: Time) -> hm_sim::Sleep {
        SimCtx::sleep(self, d)
    }

    fn sleep_until(&self, at: Time) -> hm_sim::Sleep {
        SimCtx::sleep_until(self, at)
    }
}

impl Spawner for SimCtx {
    type Handle<T: 'static> = hm_sim::JoinHandle<T>;

    fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> hm_sim::JoinHandle<T> {
        SimCtx::spawn(self, fut)
    }

    fn spawn_detached(&self, fut: impl Future<Output = ()> + 'static) {
        SimCtx::spawn_detached(self, fut);
    }
}

impl RngSource for SimCtx {
    fn with_rng<T>(&self, f: impl FnOnce(&mut SmallRng) -> T) -> T {
        SimCtx::with_rng(self, f)
    }
}

impl<T> TaskHandle<T> for hm_sim::JoinHandle<T> {
    fn try_take(&self) -> Option<T> {
        hm_sim::JoinHandle::try_take(self)
    }

    fn is_finished(&self) -> bool {
        hm_sim::JoinHandle::is_finished(self)
    }
}

// --- trait impls: the erased context ---------------------------------------

impl Clock for Ctx {
    type Sleep = Sleep;

    fn now(&self) -> Time {
        Ctx::now(self)
    }

    fn sleep(&self, d: Time) -> Sleep {
        Ctx::sleep(self, d)
    }

    fn sleep_until(&self, at: Time) -> Sleep {
        Ctx::sleep_until(self, at)
    }
}

impl Spawner for Ctx {
    type Handle<T: 'static> = JoinHandle<T>;

    fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        Ctx::spawn(self, fut)
    }

    fn spawn_detached(&self, fut: impl Future<Output = ()> + 'static) {
        Ctx::spawn_detached(self, fut);
    }
}

impl RngSource for Ctx {
    fn with_rng<T>(&self, f: impl FnOnce(&mut SmallRng) -> T) -> T {
        Ctx::with_rng(self, f)
    }
}
