//! [`Runner`]: configures and runs a partitioned fan-out, the one thing a
//! single [`Sim`](crate::sim::Sim) cannot do.
//!
//! ```
//! use hm_substrate::{PartitionFuture, Runner};
//! use std::time::Duration;
//!
//! let runner = Runner::builder()
//!     .seed(42)
//!     .workers(2)
//!     .lookahead(Duration::from_millis(1))
//!     .build();
//! let clocks = runner.run_partitions(4, |p| -> PartitionFuture<Duration> {
//!     let (ctx, index) = (p.ctx(), p.index() as u64);
//!     Box::pin(async move {
//!         ctx.sleep(Duration::from_millis(index)).await;
//!         ctx.now()
//!     })
//! });
//! assert_eq!(clocks[3], Duration::from_millis(3));
//! ```

use crate::par::{run_partitioned, Partition, PartitionFuture};
use crate::Time;

/// A configured partitioned fan-out: `P` executors spread over worker
/// threads, exchanging timestamped envelopes under a conservative time
/// frontier. Built by [`Runner::builder`].
#[derive(Clone, Debug)]
pub struct Runner {
    seed: u64,
    workers: usize,
    lookahead: Time,
}

impl Runner {
    /// Starts building a runner. Defaults: seed 0, one worker, 1 ms
    /// lookahead.
    #[must_use]
    pub fn builder() -> RunnerBuilder {
        RunnerBuilder {
            runner: Runner {
                seed: 0,
                workers: 1,
                lookahead: Time::from_millis(1),
            },
        }
    }

    /// Runs `partitions` partition roots to completion and returns their
    /// results in partition order. `setup` is called once per partition —
    /// possibly concurrently, on the worker thread that hosts the
    /// partition — with its [`Partition`] handle, and returns the
    /// partition's root future.
    ///
    /// Every call builds fresh executors (clocks at zero; partition 0 seeded
    /// with the run seed, the others with streams derived from it), so
    /// repeated calls with the same arguments produce identical results at
    /// any worker count, and a one-partition run is bit-identical to
    /// `Sim::new(seed)` on the same workload.
    ///
    /// # Panics
    ///
    /// Panics if the run stalls (every partition idle, no envelope in
    /// flight, some root incomplete) or if any partition root panics — with
    /// the first such panic's own payload, whichever worker thread hit it.
    pub fn run_partitions<R, F>(&self, partitions: usize, setup: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Partition) -> PartitionFuture<R> + Send + Sync,
    {
        run_partitioned(self.seed, partitions, self.workers, self.lookahead, &setup)
    }
}

/// Fluent configuration for a [`Runner`]; obtained from
/// [`Runner::builder`].
#[derive(Clone, Debug)]
pub struct RunnerBuilder {
    runner: Runner,
}

impl RunnerBuilder {
    /// Seeds the run (default: 0). Partition 0 inherits this seed and the
    /// others derive independent streams from it.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> RunnerBuilder {
        self.runner.seed = seed;
        self
    }

    /// Worker threads the partitions are spread over, round-robin (default:
    /// 1; clamped to at least 1). Results never depend on this value; only
    /// wall time does.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> RunnerBuilder {
        self.runner.workers = workers.max(1);
        self
    }

    /// Cross-partition envelope latency, which is also the frontier
    /// lookahead (default: 1 ms). Loosely-coupled partitions synchronize
    /// less often with a larger value; the merged virtual schedule is
    /// deterministic at any setting.
    #[must_use]
    pub fn lookahead(mut self, lookahead: Time) -> RunnerBuilder {
        self.runner.lookahead = lookahead;
        self
    }

    /// Builds the runner.
    #[must_use]
    pub fn build(self) -> Runner {
        self.runner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use crate::Ctx;

    async fn draws(ctx: Ctx, index: u64) -> (u64, Time) {
        ctx.sleep(Time::from_millis(index + 1)).await;
        (ctx.with_rng(rand::Rng::next_u64), ctx.now())
    }

    #[test]
    fn builder_defaults_are_sim_seed_zero() {
        let mut sim = Sim::new(0);
        let want = sim.block_on(draws(sim.ctx(), 0));
        let got = Runner::builder()
            .build()
            .run_partitions(1, |p| -> PartitionFuture<_> { Box::pin(draws(p.ctx(), 0)) });
        assert_eq!(got, vec![want]);
    }

    #[test]
    fn sim_and_parallel_run_partitions_agree() {
        let run = |workers| {
            Runner::builder()
                .seed(11)
                .workers(workers)
                .build()
                .run_partitions(5, |p| -> PartitionFuture<_> {
                    Box::pin(draws(p.ctx(), p.index() as u64))
                })
        };
        let one = run(1);
        assert_eq!(one, run(3));
        // Partition 0 is the bare executor at the run seed.
        let mut sim = Sim::new(11);
        assert_eq!(one[0], sim.block_on(draws(sim.ctx(), 0)));
    }
}
