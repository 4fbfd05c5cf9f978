//! [`Runner`]: one entry-point type over every backend.
//!
//! Binaries that offer a `--backend` flag (quickstart, the bench binary)
//! and the backend-parity tests construct a [`Runner`] through
//! [`Runner::builder`] and drive the same workload through any executor:
//!
//! ```
//! use hm_substrate::{Backend, PartitionPolicy, Runner};
//!
//! let mut runner = Runner::builder()
//!     .backend(Backend::Parallel)
//!     .seed(42)
//!     .workers(4)
//!     .partition_policy(PartitionPolicy::RoundRobin)
//!     .build();
//! let v = runner.block_on(async { 40 + 2 });
//! assert_eq!(v, 42);
//! ```

use std::future::Future;

use crate::par::{ParRunner, Partition, PartitionFuture, PartitionPolicy, DEFAULT_LOOKAHEAD};
use crate::sim::Sim;
use crate::wall::WallRunner;
use crate::{BackendKind, Ctx, Time};

/// A backend-selected executor: deterministic simulation, the wall clock,
/// or partitioned parallel execution.
pub enum Runner {
    /// Virtual-time simulation.
    Sim(Sim),
    /// Wall-clock executor.
    Wall(WallRunner),
    /// Partitioned parallel executor.
    Par(ParRunner),
}

impl Runner {
    /// Starts building a runner. Defaults: sim backend, seed 0, one
    /// worker, round-robin partition placement.
    #[must_use]
    pub fn builder() -> RunnerBuilder {
        RunnerBuilder::default()
    }

    /// Which backend this runner executes on.
    #[must_use]
    pub fn backend(&self) -> BackendKind {
        match self {
            Runner::Sim(_) => BackendKind::Sim,
            Runner::Wall(_) => BackendKind::Wall,
            Runner::Par(_) => BackendKind::Parallel,
        }
    }

    /// Worker threads available to [`Runner::run_partitions`] (1 on the
    /// sequential backends).
    #[must_use]
    pub fn workers(&self) -> usize {
        match self {
            Runner::Sim(_) | Runner::Wall(_) => 1,
            Runner::Par(p) => p.workers(),
        }
    }

    /// A clonable substrate context for tasks to capture.
    #[must_use]
    pub fn ctx(&self) -> Ctx {
        match self {
            Runner::Sim(s) => s.ctx(),
            Runner::Wall(w) => Ctx::Wall(w.ctx()),
            Runner::Par(p) => p.ctx(),
        }
    }

    /// Current substrate time (virtual or real elapsed).
    #[must_use]
    pub fn now(&self) -> Time {
        match self {
            Runner::Sim(s) => s.now(),
            Runner::Wall(w) => w.now(),
            Runner::Par(p) => p.now(),
        }
    }

    /// Runs `fut` to completion on the selected backend. On the parallel
    /// backend this runs on the resident partition-0 executor and is
    /// bit-identical to the sim backend.
    ///
    /// # Panics
    ///
    /// Panics if the executor stalls (every task blocked with no pending
    /// timer) before the future resolves.
    pub fn block_on<T: 'static>(&mut self, fut: impl Future<Output = T> + 'static) -> T {
        match self {
            Runner::Sim(s) => s.block_on(fut),
            Runner::Wall(w) => w.block_on(fut),
            Runner::Par(p) => p.block_on(fut),
        }
    }

    /// Runs `partitions` independent partition roots and returns their
    /// results in partition order. `setup` receives each partition's
    /// [`Partition`] handle and returns its root future.
    ///
    /// On the parallel backend the partitions are spread over the
    /// configured workers and may exchange timestamped envelopes (see
    /// [`crate::par`]); on the sim backend they run sequentially, each on
    /// a fresh executor with the same per-partition seeds — byte-identical
    /// to the parallel backend for workloads that do not message across
    /// partitions.
    ///
    /// # Panics
    ///
    /// Panics on the wall backend (partitioned execution is virtual-time
    /// only), if a partitioned run stalls, or if a partition root panics.
    pub fn run_partitions<R, F>(&mut self, partitions: usize, setup: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Partition) -> PartitionFuture<R> + Send + Sync,
    {
        match self {
            Runner::Sim(s) => crate::par::run_sequential(s.seed(), partitions, &setup),
            Runner::Wall(_) => {
                panic!("partitioned execution requires the sim or parallel backend")
            }
            Runner::Par(p) => p.run_partitions(partitions, setup),
        }
    }
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Runner::Sim(s) => s.fmt(f),
            Runner::Wall(w) => w.fmt(f),
            Runner::Par(p) => p.fmt(f),
        }
    }
}

/// Fluent configuration for a [`Runner`]; obtained from
/// [`Runner::builder`].
#[derive(Clone, Debug)]
pub struct RunnerBuilder {
    backend: BackendKind,
    seed: u64,
    workers: usize,
    policy: PartitionPolicy,
    lookahead: Time,
}

impl Default for RunnerBuilder {
    fn default() -> RunnerBuilder {
        RunnerBuilder {
            backend: BackendKind::Sim,
            seed: 0,
            workers: 1,
            policy: PartitionPolicy::RoundRobin,
            lookahead: DEFAULT_LOOKAHEAD,
        }
    }
}

impl RunnerBuilder {
    /// Selects the backend (default: [`BackendKind::Sim`]).
    #[must_use]
    pub fn backend(mut self, backend: BackendKind) -> RunnerBuilder {
        self.backend = backend;
        self
    }

    /// Seeds the substrate RNG (default: 0). On the parallel backend,
    /// partition 0 inherits this seed and the others derive independent
    /// streams from it.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> RunnerBuilder {
        self.seed = seed;
        self
    }

    /// Worker threads for partitioned runs (default: 1; clamped to at
    /// least 1). Only the parallel backend uses more than one; results
    /// never depend on this value.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> RunnerBuilder {
        self.workers = workers.max(1);
        self
    }

    /// How partitions are placed onto workers (default: round-robin).
    #[must_use]
    pub fn partition_policy(mut self, policy: PartitionPolicy) -> RunnerBuilder {
        self.policy = policy;
        self
    }

    /// Cross-partition envelope latency, which is also the frontier
    /// lookahead (default: [`DEFAULT_LOOKAHEAD`]). Loosely-coupled
    /// partitions synchronize less often with a larger value; the merged
    /// virtual schedule is deterministic at any setting.
    #[must_use]
    pub fn lookahead(mut self, lookahead: Time) -> RunnerBuilder {
        self.lookahead = lookahead;
        self
    }

    /// Builds the runner.
    #[must_use]
    pub fn build(self) -> Runner {
        match self.backend {
            BackendKind::Sim => Runner::Sim(Sim::new(self.seed)),
            BackendKind::Wall => Runner::Wall(WallRunner::new(self.seed)),
            BackendKind::Parallel => Runner::Par(ParRunner::new(
                self.seed,
                self.workers,
                self.policy,
                self.lookahead,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_sim_seed_zero() {
        let r = Runner::builder().build();
        assert_eq!(r.backend(), BackendKind::Sim);
        assert_eq!(r.workers(), 1);
    }

    #[test]
    fn sim_and_parallel_run_partitions_agree() {
        let setup = |p: Partition| -> PartitionFuture<u64> {
            let ctx = p.ctx();
            let idx = p.index() as u64;
            Box::pin(async move {
                ctx.sleep(Time::from_millis(idx + 1)).await;
                ctx.with_rng(rand::Rng::next_u64).wrapping_add(idx)
            })
        };
        let mut sim = Runner::builder().seed(11).build();
        let mut par = Runner::builder()
            .backend(BackendKind::Parallel)
            .seed(11)
            .workers(3)
            .build();
        assert_eq!(
            sim.run_partitions(5, setup),
            par.run_partitions(5, setup)
        );
    }

    #[test]
    #[should_panic(expected = "partitioned execution requires")]
    fn wall_run_partitions_panics() {
        let mut w = Runner::builder().backend(BackendKind::Wall).build();
        let _ = w.run_partitions(1, |_p| -> PartitionFuture<()> { Box::pin(async {}) });
    }
}
