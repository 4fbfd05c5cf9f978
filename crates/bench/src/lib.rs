//! Shared harness for the paper reproduction and the simulator benchmark.
//!
//! Every table and figure of the paper's evaluation is a function in
//! [`paper`] returning a value; the `paper` bench target (`harness =
//! false`) prints them and `tests/paper_claims.rs` asserts their shapes.
//! Every open-loop run goes through [`run_app`]. `EXPERIMENTS.md` records
//! paper-vs-measured.
//!
//! The `bench_sim_core` binary instead times the simulator itself; its
//! components live in [`sim_core`].
//!
//! Both binaries read one environment variable, `HM_BENCH_SCALE`: a
//! multiplier on experiment durations (see [`scale`]).

pub mod alloc;
pub mod cli;
pub mod paper;
pub mod sim_core;

use std::cell::Cell;
use std::rc::Rc;

use halfmoon::{Client, ClientBuilder};
use hm_runtime::{Gateway, GcDriver, LoadReport, LoadSpec, Runtime, RuntimeConfig};
use hm_substrate::{sim::Sim, Time};
use hm_workloads::Workload;

/// Smallest duration scale a run accepts; smaller requests clamp up to it.
const MIN_SCALE: f64 = 0.05;

/// The duration scale `HM_BENCH_SCALE` asks for: 1.0 when unset, values
/// in (0, 0.05) clamped up to 0.05.
///
/// # Errors
///
/// A value that is not a finite number above zero, naming the variable
/// and the value.
pub fn scale() -> Result<f64, String> {
    std::env::var_os("HM_BENCH_SCALE").map_or(Ok(1.0), |raw| parse_scale(&raw.to_string_lossy()))
}

fn parse_scale(raw: &str) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(s) if s.is_finite() && s > 0.0 => Ok(s.max(MIN_SCALE)),
        _ => Err(format!("HM_BENCH_SCALE={raw:?} is not a finite number > 0")),
    }
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

/// Results of one workload run, including storage gauges.
pub struct AppRunOutput {
    /// Gateway report (latency histogram, counts).
    pub report: LoadReport,
    /// Time-averaged log bytes over the measured window.
    pub avg_log_bytes: f64,
    /// Time-averaged store bytes over the measured window.
    pub avg_store_bytes: f64,
    /// Per-operation latencies accumulated by the client.
    pub op_latencies: halfmoon::client::OpLatencies,
    /// Log appends over the measured window.
    pub log_appends: u64,
    /// Most timers the run's executor held pending at once.
    pub peak_timers: usize,
}

/// Runs one workload experiment end to end. The deployment is what
/// `client` makes of a fresh [`Client::builder`] (protocol, protocol
/// config, fault plan, tracer); the calibrated latency model and one log
/// shard are the builder's defaults.
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
    let gc = params
        .gc_interval
        .map(|interval| GcDriver::start(client.clone(), hm_common::NodeId(0), interval));
    let gateway = Gateway::new(runtime);
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
    if let Some(gc) = gc {
        gc.stop();
    }
    AppRunOutput {
        report,
        avg_log_bytes: client.log().average_bytes(),
        avg_store_bytes: client.store().average_bytes(),
        op_latencies: client.op_latencies(),
        log_appends: client.log().counters().log_appends - appends_at_warmup.get(),
        peak_timers: sim.peak_timers(),
    }
}

/// Prints a markdown-style table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", headers.join(" | "));
    println!("|{}|", vec!["---"; headers.len()].join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::parse_scale;

    #[test]
    fn scale_takes_positive_finite_numbers_and_clamps_tiny_ones() {
        for (raw, scale) in [("1", 1.0), ("0.2", 0.2), ("0.01", 0.05), ("1e-9", 0.05)] {
            assert_eq!(parse_scale(raw), Ok(scale), "{raw}");
        }
    }

    #[test]
    fn scale_rejects_garbage_by_name() {
        for raw in ["0,1", "", "fast", "inf", "-inf", "NaN", "0", "-1"] {
            let err = parse_scale(raw).expect_err(raw);
            assert!(
                err.contains("HM_BENCH_SCALE") && err.contains(&format!("{raw:?}")),
                "{raw}: {err}"
            );
        }
    }
}
