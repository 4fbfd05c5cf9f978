//! [`Runner`]: a fan-out of independent [`Sim`]s over scoped threads, the
//! one thing a single `Sim` cannot do.
//!
//! ```
//! use hm_substrate::{PartitionFuture, Runner};
//! use std::time::Duration;
//!
//! let clocks = Runner::new(42, 2).run_partitions(4, |p| -> PartitionFuture<Duration> {
//!     let (ctx, index) = (p.ctx(), p.index() as u64);
//!     Box::pin(async move {
//!         ctx.sleep(Duration::from_millis(index)).await;
//!         ctx.now()
//!     })
//! });
//! assert_eq!(clocks[3], Duration::from_millis(3));
//! ```

use std::future::Future;
use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::pin::Pin;

use crate::sim::Sim;
use crate::Ctx;

/// Boxed partition root future, as produced by a `run_partitions` setup
/// closure. Local (non-`Send`): it runs entirely on its partition's thread.
pub type PartitionFuture<R> = Pin<Box<dyn Future<Output = R> + 'static>>;

/// Handle passed to a `run_partitions` setup closure: the partition's
/// context plus its coordinates.
pub struct Partition {
    ctx: Ctx,
    index: usize,
    count: usize,
}

impl Partition {
    /// The context of this partition's executor.
    #[must_use]
    pub fn ctx(&self) -> Ctx {
        self.ctx.clone()
    }

    /// This partition's index, `0..count`.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total partitions in the run.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }
}

/// Per-partition RNG seed: partition 0 inherits the run seed (so a
/// one-partition run is bit-identical to `Sim::new(seed)`); other
/// partitions get splitmix-derived independent streams.
fn partition_seed(seed: u64, partition: u32) -> u64 {
    if partition == 0 {
        return seed;
    }
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(partition));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A partitioned fan-out: `P` independent [`Sim`]s, each run to completion
/// on one of up to `workers` threads. Partitions share nothing, so the
/// worker count decides wall time and never results.
#[derive(Clone, Debug)]
pub struct Runner {
    seed: u64,
    workers: usize,
}

impl Runner {
    /// A fan-out at `seed` over at most `workers` threads. Partition 0
    /// inherits the seed and the others derive independent streams from it.
    #[must_use]
    pub fn new(seed: u64, workers: usize) -> Runner {
        Runner { seed, workers }
    }

    /// Runs `partitions` partition roots to completion and returns their
    /// results in partition order. `setup` is called once per partition, on
    /// the thread that runs the partition (so possibly concurrently), with
    /// its [`Partition`] handle, and returns the partition's root future,
    /// which [`Sim::block_on`] then drives on a fresh executor.
    ///
    /// Partitions are dealt round-robin over `min(workers, partitions,
    /// available cores)` threads, the caller's included. Every call builds
    /// fresh executors (clocks at zero), so repeated calls with the same
    /// arguments produce identical results at any worker count, and
    /// partition 0 is bit-identical to `Sim::new(seed)` on the same
    /// workload.
    ///
    /// # Panics
    ///
    /// Panics with `block_on`'s "simulation stalled" if a root can never
    /// complete, and re-raises a panicking root's own payload (the caller
    /// thread's, if roots panic on several threads).
    pub fn run_partitions<R, F>(&self, partitions: usize, setup: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Partition) -> PartitionFuture<R> + Send + Sync,
    {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let threads = self.workers.min(partitions).min(cores).max(1);
        // Thread `t`'s share: partitions t, t + threads, ..., one after
        // another, each on a `Sim` built here because a `Sim` is `!Send`.
        let run_share = |t: usize| -> Vec<R> {
            (t..partitions)
                .step_by(threads)
                .map(|index| {
                    let mut sim = Sim::new(partition_seed(self.seed, index as u32));
                    let root = setup(Partition {
                        ctx: sim.ctx(),
                        index,
                        count: partitions,
                    });
                    sim.block_on(root)
                })
                .collect()
        };
        let mut shares: Vec<_> = std::thread::scope(|s| {
            let run_share = &run_share;
            let spawned: Vec<_> = (1..threads)
                .map(|t| s.spawn(move || run_share(t)))
                .collect();
            let mut shares = vec![run_share(0).into_iter()];
            for handle in spawned {
                // Joined by hand: the scope's own join would replace a
                // root's panic payload with "a scoped thread panicked".
                shares.push(
                    handle
                        .join()
                        .unwrap_or_else(|p| resume_unwind(p))
                        .into_iter(),
                );
            }
            shares
        });
        (0..partitions)
            .map(|p| {
                shares[p % threads]
                    .next()
                    .expect("one result per partition")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use crate::Time;

    async fn draws(ctx: Ctx, index: u64) -> (u64, Time) {
        ctx.sleep(Time::from_millis(index + 1)).await;
        (ctx.with_rng(rand::Rng::next_u64), ctx.now())
    }

    #[test]
    fn one_partition_is_sim_at_the_run_seed() {
        let mut sim = Sim::new(0);
        let want = sim.block_on(draws(sim.ctx(), 0));
        let got = Runner::new(0, 1)
            .run_partitions(1, |p| -> PartitionFuture<_> { Box::pin(draws(p.ctx(), 0)) });
        assert_eq!(got, vec![want]);
    }

    #[test]
    fn sim_and_parallel_run_partitions_agree() {
        let run = |workers| {
            Runner::new(11, workers).run_partitions(5, |p| -> PartitionFuture<_> {
                Box::pin(draws(p.ctx(), p.index() as u64))
            })
        };
        let one = run(1);
        assert_eq!(one, run(3));
        // Partition 0 is the bare executor at the run seed.
        let mut sim = Sim::new(11);
        assert_eq!(one[0], sim.block_on(draws(sim.ctx(), 0)));
    }

    #[test]
    fn partition_zero_inherits_seed() {
        assert_eq!(partition_seed(42, 0), 42);
        assert_ne!(partition_seed(42, 1), partition_seed(42, 2));
    }

    #[test]
    fn partitions_without_messaging_match_sequential() {
        let body = |ctx: Ctx| async move {
            let mut acc = 0u64;
            for i in 0..20u64 {
                ctx.sleep(Time::from_micros(i * 7 + 1)).await;
                acc = acc
                    .wrapping_mul(0x100000001b3)
                    .wrapping_add(ctx.with_rng(rand::Rng::next_u64));
            }
            (acc, ctx.now())
        };
        // Each partition is a bare `Sim` at that partition's seed.
        let seq: Vec<_> = (0..4)
            .map(|p| {
                let mut sim = Sim::new(partition_seed(7, p));
                sim.block_on(body(sim.ctx()))
            })
            .collect();
        for workers in [1, 2, 4] {
            let got = Runner::new(7, workers)
                .run_partitions(4, |p| -> PartitionFuture<_> { Box::pin(body(p.ctx())) });
            assert_eq!(got, seq, "workers={workers}");
        }
    }

    #[test]
    fn no_partitions_is_empty() {
        let out = Runner::new(1, 4).run_partitions(0, |_| -> PartitionFuture<u8> {
            unreachable!("no partition to set up")
        });
        assert!(out.is_empty());
    }

    /// Partition 1 sits on the caller's thread at one worker and on a
    /// spawned thread at two (when the host has two cores); either way the
    /// caller sees the root's own payload, not a join error.
    #[test]
    fn panicking_root_reraises_its_own_payload() {
        for workers in [1, 2] {
            let err = catch_unwind(AssertUnwindSafe(|| {
                Runner::new(3, workers).run_partitions(4, |p| -> PartitionFuture<usize> {
                    let (ctx, index) = (p.ctx(), p.index());
                    Box::pin(async move {
                        ctx.sleep(Time::from_millis(1)).await;
                        assert!(index != 1, "root {index} gave up");
                        index
                    })
                })
            }))
            .expect_err("partition 1 panics");
            let msg = err.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(msg, "root 1 gave up", "workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "simulation stalled")]
    fn root_that_cannot_complete_panics_instead_of_hanging() {
        let _ = Runner::new(3, 2).run_partitions(2, |p| -> PartitionFuture<()> {
            if p.index() == 1 {
                Box::pin(std::future::pending())
            } else {
                Box::pin(async {})
            }
        });
    }
}
