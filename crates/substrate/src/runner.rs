//! [`par_map`]: independent items over scoped threads, the one thing a
//! single `Sim` cannot do.
//!
//! A `Sim` is `!Send`, so an item that simulates builds its own from the
//! seed it carries; only items and results cross threads.
//!
//! ```
//! use hm_substrate::{par_map, sim::Sim};
//! use std::time::Duration;
//!
//! let clocks = par_map(&[0u64, 1, 2, 3], 2, |&ms| {
//!     let mut sim = Sim::new(42 + ms);
//!     let ctx = sim.ctx();
//!     sim.block_on(async move {
//!         ctx.sleep(Duration::from_millis(ms)).await;
//!         ctx.now()
//!     })
//! });
//! assert_eq!(clocks[3], Duration::from_millis(3));
//! ```

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `f` of every item, in item order, computed on at most `min(workers,
/// items, available cores)` threads, the caller's included. Each thread
/// takes the next unclaimed item, so long and short items balance; which
/// thread runs an item decides wall time and never the result.
///
/// # Panics
///
/// Re-raises a panicking item's own payload (the caller thread's, if
/// items panic on several threads).
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let threads = workers.min(items.len()).min(cores).max(1);
    let next = AtomicUsize::new(0);
    let run_share = || -> Vec<(usize, R)> {
        std::iter::from_fn(|| {
            let index = next.fetch_add(1, Ordering::Relaxed);
            items.get(index).map(|item| (index, f(item)))
        })
        .collect()
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..threads).map(|_| s.spawn(run_share)).collect();
        let mut done = run_share();
        for handle in spawned {
            // Joined by hand: the scope's own join would replace an item's
            // panic payload with "a scoped thread panicked".
            done.extend(handle.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    use super::*;
    use crate::sim::Sim;
    use crate::{Ctx, Time};

    async fn draws(ctx: Ctx, index: u64) -> (u64, Time) {
        let mut acc = 0u64;
        for i in 0..20u64 {
            ctx.sleep(Time::from_micros(i * 7 + index + 1)).await;
            acc = acc
                .wrapping_mul(0x100000001b3)
                .wrapping_add(ctx.with_rng(rand::Rng::next_u64));
        }
        (acc, ctx.now())
    }

    fn on_sim(seed: u64) -> (u64, Time) {
        let mut sim = Sim::new(seed);
        sim.block_on(draws(sim.ctx(), seed))
    }

    fn cores() -> usize {
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
    }

    /// Where exactly two threads run, a barrier hands items 0 and 1 one to
    /// each, and the spawned thread's item finishes only after the
    /// caller's thread has done every other item: results arrive out of
    /// item order whichever thread took item 0.
    #[test]
    fn results_come_back_in_item_order() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..8).collect();
        let want: Vec<usize> = items.iter().map(|i| i * i).collect();
        for workers in [1, 2, 4] {
            let forced = workers.min(cores()) == 2;
            let (barrier, done) = (Barrier::new(2), AtomicUsize::new(0));
            let out = par_map(&items, workers, |&i| {
                if forced && i < 2 {
                    barrier.wait();
                    while std::thread::current().id() != caller
                        && done.load(Ordering::Acquire) < items.len() - 1
                    {
                        std::thread::yield_now();
                    }
                }
                done.fetch_add(1, Ordering::Release);
                i * i
            });
            assert_eq!(out, want, "workers={workers}");
        }
    }

    #[test]
    fn sims_built_per_item_match_sequential() {
        let seeds = [7u64, 8, 9, 10];
        let seq: Vec<_> = seeds.iter().map(|&s| on_sim(s)).collect();
        for workers in [1, 2, 4] {
            assert_eq!(
                par_map(&seeds, workers, |&s| on_sim(s)),
                seq,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn no_items_is_empty() {
        let out: Vec<u8> = par_map(&[] as &[u8], 4, |_| unreachable!("no item to map"));
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items_maps_each_item_once() {
        let calls = AtomicUsize::new(0);
        let out = par_map(&[1u8, 2], 64, |&i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i * 10
        });
        assert_eq!(out, vec![10, 20]);
        assert_eq!(calls.into_inner(), 2);
    }

    /// At two workers on two or more cores, a barrier holds one item on
    /// the caller's thread and one on a spawned thread, and the spawned
    /// one's `Sim` root panics; at one worker item 1's root panics on the
    /// caller's thread. Either way the caller sees the root's own payload,
    /// not a join error.
    #[test]
    fn panicking_root_reraises_its_own_payload() {
        let caller = std::thread::current().id();
        for workers in [1, 2] {
            let two_threads = workers.min(cores()) == 2;
            let barrier = Barrier::new(2);
            let err = catch_unwind(AssertUnwindSafe(|| {
                par_map(&[0usize, 1], workers, |&index| {
                    if two_threads {
                        barrier.wait();
                    }
                    let gives_up = match two_threads {
                        true => std::thread::current().id() != caller,
                        false => index == 1,
                    };
                    let mut sim = Sim::new(3);
                    let ctx = sim.ctx();
                    sim.block_on(async move {
                        ctx.sleep(Time::from_millis(1)).await;
                        assert!(!gives_up, "root {index} gave up");
                        index
                    })
                })
            }))
            .expect_err("one root panics");
            let msg = err.downcast_ref::<String>().expect("a formatted panic");
            let want: &[&str] = match two_threads {
                true => &["root 0 gave up", "root 1 gave up"],
                false => &["root 1 gave up"],
            };
            assert!(want.contains(&msg.as_str()), "workers={workers}: {msg}");
        }
    }

    #[test]
    #[should_panic(expected = "simulation stalled")]
    fn root_that_cannot_complete_panics_instead_of_hanging() {
        par_map(&[0, 1], 2, |&index| {
            let mut sim = Sim::new(3);
            if index == 1 {
                sim.block_on(std::future::pending::<()>());
            }
        });
    }
}
