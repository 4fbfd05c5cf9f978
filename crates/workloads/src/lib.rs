//! Evaluation workloads (§6).
//!
//! Three realistic applications and the synthetic SSFs the paper's
//! experiments use:
//!
//! - [`travel`] — travel reservation, a 10-SSF workflow adapted from
//!   DeathStarBench's hotel-reservation service. Read-intensive: users
//!   search nearby hotels by distance and rating, and occasionally reserve.
//! - [`movie`] — movie review, a 13-SSF workflow adapted from
//!   DeathStarBench's media service. Skewed toward writes: posting reviews
//!   is the core function.
//! - [`retwis`] — the Redis tutorial's Twitter clone: post-tweet,
//!   get-timeline, follow, profile over a key-value store. Read-intensive.
//! - [`synthetic`] — the microbenchmark SSFs: one read + one write per
//!   request (§6.1), and the 10-operation variable-read-ratio SSF
//!   (§6.3, §6.4).
//!
//! **Determinism rule**: SSF bodies must be deterministic (§2), so every
//! random choice (which hotel, which user, read or write) is sampled by the
//! *request factory* at the gateway and carried in the invocation input.
//!
//! [`run_app`] is the one open-loop harness: the paper's figures, the
//! simulator benchmark and the seeded load tests each run a [`Workload`]
//! through it and read what they need off the handles it returns.

pub mod movie;
pub mod retwis;
pub mod synthetic;
pub mod travel;

use std::cell::Cell;
use std::rc::Rc;

use halfmoon::{Client, ClientBuilder};
use hm_runtime::chaos::ChaosDriver;
use hm_runtime::{Gateway, GcDriver, LoadReport, LoadSpec, RequestFactory, Runtime, RuntimeConfig};
use hm_substrate::{sim::Sim, Time};

/// A runnable workload: functions, base data, and a request generator.
pub trait Workload {
    /// Human-readable name used in benchmark tables.
    fn name(&self) -> &'static str;

    /// Registers all SSFs with the runtime.
    fn register(&self, runtime: &Runtime);

    /// Seeds base application data into the store.
    fn populate(&self, client: &Client);

    /// The gateway's request generator.
    fn factory(&self) -> RequestFactory;
}

/// Experiment parameters for one workload run.
pub struct AppRun {
    /// RNG seed.
    pub seed: u64,
    /// Open-loop arrival rate.
    pub rate: f64,
    /// Measured window.
    pub duration: Time,
    /// Warmup window.
    pub warmup: Time,
    /// Runtime topology.
    pub rt_config: RuntimeConfig,
    /// GC interval (None disables GC).
    pub gc_interval: Option<Time>,
}

/// What one workload run made: its executor and deployment, the drivers
/// that ran beside the load, and the gateway's report.
pub struct AppRunOutput {
    /// The run's executor, stopped where the gateway drained; its clock,
    /// poll count and timer peak are the run's.
    pub sim: Sim,
    /// The deployment (log, store, recorder, op latencies).
    pub client: Client,
    /// The runtime the gateway drove (retries, duplicates, node crashes).
    pub runtime: Runtime,
    /// The collector, stopped after the drain (None when GC was off).
    pub gc: Option<GcDriver>,
    /// The chaos driver of the client's fault plan; a plan with no
    /// scheduled fault leaves it idle.
    pub chaos: ChaosDriver,
    /// Gateway report (latency histogram, counts).
    pub report: LoadReport,
    /// Log appends from the end of warmup to the end of the drain.
    pub log_appends: u64,
}

/// Runs one workload experiment end to end. The deployment is what
/// `client` makes of a fresh [`Client::builder`] (protocol, protocol
/// config, fault plan, tracer); the calibrated latency model and one log
/// shard are the builder's defaults. The plan's scheduled faults fire
/// from a [`ChaosDriver`], and the storage windows reset at the end of
/// warmup.
#[must_use]
pub fn run_app(
    workload: &dyn Workload,
    params: &AppRun,
    client: impl FnOnce(ClientBuilder) -> ClientBuilder,
) -> AppRunOutput {
    let mut sim = Sim::new(params.seed);
    let client = client(Client::builder(sim.ctx())).build();
    let runtime = Runtime::new(client.clone(), params.rt_config);
    workload.populate(&client);
    workload.register(&runtime);
    let chaos = ChaosDriver::start(&runtime);
    let gc = params
        .gc_interval
        .map(|interval| GcDriver::start(client.clone(), hm_common::NodeId(0), interval));
    let gateway = Gateway::new(runtime.clone());
    let spec = LoadSpec {
        rate_per_sec: params.rate,
        duration: params.duration,
        warmup: params.warmup,
        factory: workload.factory(),
    };
    // Reset measurement windows at the end of warmup.
    let appends_at_warmup = Rc::new(Cell::new(0u64));
    let (at_warmup, windowed, warmup) = (appends_at_warmup.clone(), client.clone(), params.warmup);
    sim.ctx().spawn(async move {
        windowed.ctx().sleep(warmup).await;
        windowed.log().reset_storage_window();
        windowed.store().reset_storage_window();
        at_warmup.set(windowed.log().counters().log_appends);
    });
    let report = sim.block_on(async move { gateway.run_open_loop(spec).await });
    if let Some(gc) = &gc {
        gc.stop();
    }
    let log_appends = client.log().counters().log_appends - appends_at_warmup.get();
    AppRunOutput {
        sim,
        client,
        runtime,
        gc,
        chaos,
        report,
        log_appends,
    }
}
