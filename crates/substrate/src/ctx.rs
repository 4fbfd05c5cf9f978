//! [`Ctx`]: the one context type every layer above this crate holds.

use std::future::Future;

use rand::rngs::SmallRng;

use crate::executor::SimCtx;
use crate::par::ParCtx;
use crate::{JoinHandle, Sleep, Time};

/// Cheap clonable handle to the executor a deployment runs on: `now`,
/// `sleep`, `spawn`, seeded RNG draws. Obtain one from
/// [`Sim::ctx`](crate::sim::Sim::ctx) or, inside a partitioned fan-out, from
/// [`Partition::ctx`](crate::Partition::ctx).
///
/// It is the executor's own task-side handle, so every call forwards
/// straight to it (no dispatch, no extra spawn, timer, RNG draw or
/// allocation), plus the partition's messaging link when there is one.
/// Weak: a context that outlives its [`Sim`](crate::sim::Sim) is inert, and
/// everything but [`Ctx::try_now`] then panics with a clear message.
#[derive(Clone)]
pub struct Ctx {
    exec: SimCtx,
    par: Option<ParCtx>,
}

impl Ctx {
    pub(crate) fn new(exec: SimCtx, par: Option<ParCtx>) -> Ctx {
        Ctx { exec, par }
    }

    /// The cross-partition messaging surface ([`ParCtx::send`] /
    /// [`ParCtx::recv`]) when this context belongs to a partition of a
    /// [`Runner::run_partitions`](crate::Runner::run_partitions) fan-out;
    /// `None` on a bare [`Sim`](crate::sim::Sim).
    #[must_use]
    pub fn as_par(&self) -> Option<&ParCtx> {
        self.par.as_ref()
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.exec.now()
    }

    /// [`Ctx::now`], or `None` once the executor behind this context is
    /// gone: for `Drop` code, which runs during that teardown too.
    #[must_use]
    pub fn try_now(&self) -> Option<Time> {
        self.exec.try_now()
    }

    /// Resolves after `d` of virtual time.
    pub fn sleep(&self, d: Time) -> Sleep {
        self.exec.sleep(d)
    }

    /// Resolves at the absolute instant `at` (immediately if in the past).
    pub fn sleep_until(&self, at: Time) -> Sleep {
        self.exec.sleep_until(at)
    }

    /// Yields once, letting every currently-ready task run first.
    pub fn yield_now(&self) -> Sleep {
        self.exec.yield_now()
    }

    /// Spawns a task onto the executor; tasks enter a FIFO ready queue in
    /// spawn order.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        self.exec.spawn(fut)
    }

    /// Spawns a task nobody will join; scheduling is identical to
    /// [`Ctx::spawn`], only the join-state cost disappears.
    pub fn spawn_detached(&self, fut: impl Future<Output = ()> + 'static) {
        self.exec.spawn_detached(fut);
    }

    /// Runs `f` with the executor's seeded RNG. All randomness must flow
    /// through here for runs to be reproducible.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SmallRng) -> T) -> T {
        self.exec.with_rng(f)
    }
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.par {
            None => f.write_str("Ctx"),
            Some(par) => write!(f, "Ctx({par:?})"),
        }
    }
}
