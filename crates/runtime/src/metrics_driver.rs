//! Periodic metrics sampling: one row of the deployment's own counters per
//! interval of virtual time, appended to a [`MetricsRegistry`] series.
//!
//! A row reads the counter structs the deployment already keeps, through
//! their field tables ([`hm_common::op_counters!`]): the log's and the
//! store's [`OpCounters`] merged (their fields do not overlap), each
//! shard's counters and degraded appends (`shardN.`), [`RecoveryStats`]
//! (`recovery.`) and [`FlushStats`] (`flush.`) with its mean batch size.
//!
//! The driver is strictly opt-in: it spawns a task and sleeps on the
//! virtual clock, which *does* change the simulation's interleavings, so
//! nothing starts one implicitly. Benchmarks that compare traced vs
//! untraced fingerprints must not enable it. Sampling itself draws no
//! randomness, so runs with the driver remain deterministic per seed.
//!
//! [`OpCounters`]: hm_common::metrics::OpCounters
//! [`RecoveryStats`]: halfmoon::RecoveryStats
//! [`FlushStats`]: halfmoon::FlushStats

use std::cell::Cell;
use std::rc::Rc;

use halfmoon::{Client, ShardId};
use hm_common::trace::MetricsRegistry;
use hm_substrate::Time;

/// Handle to a running periodic metrics sampler.
pub struct MetricsDriver {
    stop: Rc<Cell<bool>>,
    samples: Rc<Cell<u64>>,
}

impl MetricsDriver {
    /// Spawns a background task appending one row of `client`'s counters
    /// to `registry` every `interval` of virtual time.
    #[must_use]
    pub fn start(client: Client, registry: Rc<MetricsRegistry>, interval: Time) -> MetricsDriver {
        let stop = Rc::new(Cell::new(false));
        let samples = Rc::new(Cell::new(0u64));
        let ctx = client.ctx().clone();
        let (stopped, taken) = (stop.clone(), samples.clone());
        ctx.clone().spawn(async move {
            loop {
                ctx.sleep(interval).await;
                if stopped.get() {
                    break;
                }
                registry.sample(ctx.now(), row(&client));
                taken.set(taken.get() + 1);
            }
        });
        MetricsDriver { stop, samples }
    }

    /// Stops the driver before its next sample.
    pub fn stop(&self) {
        self.stop.set(true);
    }

    /// Samples taken so far.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples.get()
    }
}

/// Every counter of the deployment, named by its struct's field table.
fn row(client: &Client) -> Vec<(String, f64)> {
    let log = client.log();
    let mut row = Vec::new();
    let mut put = |prefix: &str, table: &[(&str, u64)]| {
        for &(name, v) in table {
            row.push((format!("{prefix}{name}"), v as f64));
        }
    };
    let all = log.counters().merged(&client.store().counters());
    put("", &all.table());
    for s in 0..log.shard_count() {
        let id = ShardId(u8::try_from(s).expect("shard ids fit a u8"));
        let (prefix, degraded) = (format!("shard{s}."), log.shard_degraded_appends(id));
        put(&prefix, &log.shard_counters(id).table());
        put(&prefix, &[("degraded_appends", degraded)]);
    }
    put("recovery.", &client.recovery_stats().table());
    let flush = log.flush_stats();
    put("flush.", &flush.table());
    row.push(("flush.mean_batch_size".to_string(), flush.mean_batch_size()));
    row
}

impl Drop for MetricsDriver {
    fn drop(&mut self) {
        self.stop.set(true);
    }
}

impl std::fmt::Debug for MetricsDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsDriver(samples={})", self.samples())
    }
}
