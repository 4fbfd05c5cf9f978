//! Substrate abstraction: the execution platform the Halfmoon reproduction
//! runs on, stated as traits instead of a concrete executor.
//!
//! Everything above this crate — the logging protocols, the sharded shared
//! log, the runtime, the KV store — is written against [`Ctx`], a cheap
//! clonable context exposing a clock ([`Clock`]), task spawning
//! ([`Spawner`]), seeded randomness ([`RngSource`]), and the coordination
//! primitives in [`sync`]. Which machine actually executes that code is a
//! backend choice made at the entry point:
//!
//! - [`sim`]: `hm-sim`'s single-threaded **virtual-time** executor. Runs a
//!   "10-minute" experiment in milliseconds and is exactly reproducible
//!   from its seed — the default for tests, benches, and experiments.
//! - [`wall`]: a current-thread **wall-clock** executor in the style of a
//!   tokio current-thread runtime (the container has no tokio crate, so
//!   the loop is hand-rolled here; the traits are exactly what a real
//!   tokio adapter would implement). Sleeps take real time, `now()` is
//!   real elapsed time — the same protocol code becomes a runnable system.
//! - [`par`]: **partitioned parallel** virtual-time execution — one sim
//!   executor per partition spread over N worker threads, cross-partition
//!   sends as timestamped envelopes under a conservative time frontier.
//!   Deterministic at every worker count; one partition is bit-identical
//!   to [`sim`].
//!
//! Alongside [`RngSource`] sits [`explore::ChoiceSource`]: harnesses that
//! route their nondeterminism through explicit choice points instead of
//! RNG draws can have every schedule enumerated systematically by
//! [`explore::Explorer`] (DFS with sleep-set partial-order pruning), with
//! any explored path serialized as an [`explore::Schedule`] that replays
//! byte-identically as a normal fixed-seed run.
//!
//! Entry points construct a [`Runner`] through [`Runner::builder`]:
//!
//! ```
//! use hm_substrate::{Backend, Runner};
//! let mut runner = Runner::builder().backend(Backend::Sim).seed(42).build();
//! let two = runner.block_on(async { 1 + 1 });
//! assert_eq!(two, 2);
//! ```
//!
//! # Determinism
//!
//! Dispatch through [`Ctx`] is an enum match, not a boxed vtable: on the
//! sim backend every call inlines to the underlying `SimCtx` call, so the
//! abstraction introduces **no extra spawns, RNG draws, timer
//! registrations, or allocations**. Deterministic runs are schedule- and
//! bit-identical to code written directly against `hm-sim` (DESIGN.md §17
//! gives the argument; the bench fingerprints pin it).
//!
//! # Layering
//!
//! `hm-sim` sits *below* this crate and keeps no public consumers above it
//! other than this crate: upper layers name [`Ctx`]/[`Time`], never
//! `Sim`/`SimCtx` (`scripts/verify.sh` greps for violations).

use std::future::Future;

use rand::rngs::SmallRng;

mod ctx;
pub mod explore;
pub mod par;
mod runner;
pub mod sim;
pub mod sync;
mod util;
pub mod wall;

pub use ctx::{Ctx, JoinHandle, Sleep};
pub use explore::{Alt, ChoiceSource, Explorer, Schedule};
pub use par::{ParCtx, Partition, PartitionFuture, PartitionPolicy};
pub use runner::{Runner, RunnerBuilder};
pub use util::{join_all, timeout, TimedOut};

/// Short alias for [`BackendKind`], matching the fluent builder surface:
/// `Runner::builder().backend(Backend::Parallel)`.
pub use BackendKind as Backend;

/// Time since the substrate started: virtual time on the [`sim`] backend,
/// real elapsed time on the [`wall`] backend.
///
/// A plain [`std::time::Duration`] — no epoch concept; `Duration`
/// arithmetic and formatting are exactly what experiments need. (The sim
/// backend's `SimTime` is the same alias.)
pub type Time = std::time::Duration;

/// Which backend a [`Ctx`] executes on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BackendKind {
    /// Deterministic single-threaded virtual-time simulation (`hm-sim`).
    #[default]
    Sim,
    /// Current-thread wall-clock executor (tokio-style; real sleeps).
    Wall,
    /// Partitioned deterministic parallel execution across worker threads
    /// (see [`par`]).
    Parallel,
}

impl BackendKind {
    /// The accepted `--backend` spellings, for CLI help and error
    /// messages. Every name round-trips through
    /// [`FromStr`](std::str::FromStr) and `Display`.
    pub const HELP: &'static str = "sim | wall | parallel";
}

/// Error returned when parsing an unknown backend name.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnknownBackend {
    name: String,
}

impl std::fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown backend {:?} (expected {})",
            self.name,
            BackendKind::HELP
        )
    }
}

impl std::error::Error for UnknownBackend {}

impl std::str::FromStr for BackendKind {
    type Err = UnknownBackend;

    fn from_str(name: &str) -> Result<BackendKind, UnknownBackend> {
        match name {
            "sim" => Ok(BackendKind::Sim),
            "wall" => Ok(BackendKind::Wall),
            "parallel" | "par" => Ok(BackendKind::Parallel),
            _ => Err(UnknownBackend {
                name: name.to_string(),
            }),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Sim => "sim",
            BackendKind::Wall => "wall",
            BackendKind::Parallel => "parallel",
        })
    }
}

/// Read the substrate's clock and schedule against it.
///
/// Contract (what alternate backends must honor; the sync-contract tests
/// exercise it on every backend):
/// - `now()` is monotonically non-decreasing and starts at zero.
/// - `sleep(d)` resolves no earlier than `now() + d`; sleeps whose
///   deadlines are ordered resolve in deadline order, and *simultaneous*
///   deadlines resolve in registration order.
/// - Dropping the future returned by `sleep` does not disturb other
///   timers.
pub trait Clock: Clone {
    /// The future returned by [`Clock::sleep`].
    type Sleep: Future<Output = ()>;

    /// Current substrate time.
    fn now(&self) -> Time;

    /// Resolves after `d` of substrate time.
    fn sleep(&self, d: Time) -> Self::Sleep;

    /// Resolves at the absolute instant `at` (immediately if in the past).
    fn sleep_until(&self, at: Time) -> Self::Sleep;

    /// Yields once, letting every currently-ready task run before this one
    /// continues (a zero-duration sleep on both backends, which preserves
    /// FIFO fairness).
    fn yield_now(&self) -> Self::Sleep {
        self.sleep(Time::ZERO)
    }
}

/// Spawn tasks onto the substrate's executor.
///
/// Contract: spawned tasks enter a FIFO ready queue in spawn order;
/// `spawn_detached` schedules identically to `spawn` (same queue position),
/// differing only in cost (no join-state allocation).
pub trait Spawner: Clone {
    /// Handle type returned by [`Spawner::spawn`] for a task yielding `T`.
    type Handle<T: 'static>: TaskHandle<T>;

    /// Spawns a task; the handle resolves to the task's output.
    fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> Self::Handle<T>;

    /// Spawns a task nobody will join (fire-and-forget hot paths).
    fn spawn_detached(&self, fut: impl Future<Output = ()> + 'static);
}

/// A handle to a spawned task: awaitable, and pollable without waiting.
pub trait TaskHandle<T>: Future<Output = T> {
    /// Takes the result if the task has completed.
    fn try_take(&self) -> Option<T>;

    /// True if the task has finished (and the result not yet taken).
    fn is_finished(&self) -> bool;
}

/// Draw randomness from the substrate's seeded RNG.
///
/// Contract: one RNG per substrate, seeded at construction; all randomness
/// flows through it, so a fixed seed plus a deterministic schedule yields
/// a reproducible run.
pub trait RngSource: Clone {
    /// Runs `f` with the substrate RNG.
    fn with_rng<T>(&self, f: impl FnOnce(&mut SmallRng) -> T) -> T;
}

#[cfg(test)]
mod backend_kind_tests {
    use super::BackendKind;

    #[test]
    fn from_str_round_trips_every_spelling() {
        for (name, want) in [
            ("sim", BackendKind::Sim),
            ("wall", BackendKind::Wall),
            ("parallel", BackendKind::Parallel),
            ("par", BackendKind::Parallel),
        ] {
            let parsed: BackendKind = name.parse().unwrap();
            assert_eq!(parsed, want, "{name}");
            // Display output re-parses to the same backend: aliases
            // normalize ("par" -> Parallel -> "parallel" -> Parallel).
            assert_eq!(parsed.to_string().parse::<BackendKind>(), Ok(parsed));
        }
        assert!("tokio".parse::<BackendKind>().is_err());
        let err = "x".parse::<BackendKind>().unwrap_err();
        assert!(err.to_string().contains(BackendKind::HELP), "{err}");
    }
}
