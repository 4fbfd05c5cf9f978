//! The execution substrate: the one deterministic machine every Halfmoon
//! deployment in this workspace runs on.
//!
//! This crate is the workspace's substitute for the paper's AWS testbed: a
//! single-threaded async executor driven by *virtual time*. Simulated
//! operations (a DynamoDB read, a shared-log append, an RPC hop) express
//! their cost as [`Ctx::sleep`]s whose durations come from calibrated
//! latency distributions; the executor advances the virtual clock from
//! event to event, so a "10-minute" experiment finishes in milliseconds of
//! wall time and every run is exactly reproducible from its seed.
//!
//! - [`sim::Sim`] owns one executor: `new(seed)`, `ctx()`, then `run`,
//!   `run_until` or `block_on`. It is the one way to start a run.
//! - [`Ctx`] is the cheap clonable context everything above this crate —
//!   the logging protocols, the sharded shared log, the runtime, the KV
//!   store — is written against: clock, `sleep`, `spawn`, seeded RNG.
//! - [`sync`] holds the coordination primitives ([`sync::Semaphore`],
//!   [`sync::Gate`], [`sync::TaskGroup`]).
//! - [`par_map`] does the one thing a single `Sim` cannot: it maps
//!   independent items, each building its own `Sim` from its own seed, over
//!   up to `N` scoped threads, returning results in item order. Items share
//!   nothing, so results are the same at every worker count.
//! - [`explore`]: harnesses that route their nondeterminism through
//!   explicit choice points ([`ChoiceSource`]) instead of RNG draws can
//!   have every schedule enumerated systematically by [`Explorer`] (DFS
//!   with sleep-set partial-order pruning), with any explored path
//!   serialized as a [`Schedule`] that replays byte-identically as a normal
//!   fixed-seed run.
//!
//! ```
//! use hm_substrate::sim::Sim;
//! use std::time::Duration;
//!
//! let mut sim = Sim::new(42);
//! let ctx = sim.ctx();
//! let woke_at = sim.block_on(async move {
//!     ctx.sleep(Duration::from_secs(600)).await;
//!     ctx.now()
//! });
//! assert_eq!(woke_at, Duration::from_secs(600));
//! ```
//!
//! # Determinism
//!
//! The ready queue is FIFO, simultaneous timers fire in registration order,
//! and all randomness flows from one seeded RNG per executor, so equal seeds
//! give bit-identical runs (DESIGN.md §17; the bench fingerprints pin it).
//! That is load-bearing beyond reproducible benches: the model checker
//! replays a counterexample by rerunning the same seed with the same
//! serialized decision vector.
//!
//! # Layering
//!
//! The executor is a private module; the compiler, not a grep, keeps upper
//! layers on the surface above. Its internals (the timer heap, the task
//! slab) cannot be named from outside:
//!
//! ```compile_fail,E0603
//! use hm_substrate::executor::Timers;
//! ```

mod executor;
pub mod explore;
mod runner;
pub mod sync;

/// The deterministic virtual-time executor.
pub mod sim {
    pub use crate::executor::Sim;
}

pub use executor::{Ctx, JoinHandle, Sleep};
pub use explore::{Alt, ChoiceSource, Explorer, Schedule};
pub use runner::par_map;

/// Virtual time since the executor started.
///
/// A plain [`std::time::Duration`] — no epoch concept; `Duration`
/// arithmetic and formatting are exactly what experiments need.
pub type Time = std::time::Duration;
