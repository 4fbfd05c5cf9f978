//! Shared harness for the paper-reproduction benchmarks.
//!
//! Every table and figure of the paper's evaluation has a bench target in
//! `benches/` (declared `harness = false`); each builds a simulated
//! deployment through this crate's helpers, runs the experiment, and
//! prints the table rows. `EXPERIMENTS.md` records paper-vs-measured.
//!
//! The `bench_sim_core` binary instead times the simulator itself; its
//! components live in [`sim_core`].
//!
//! Environment knobs (all optional):
//! - `HM_BENCH_SCALE` — fractional multiplier on experiment durations
//!   (default 1.0; use 0.2 for a quick smoke pass).

pub mod alloc;
pub mod cli;
pub mod sim_core;

use std::rc::Rc;
use std::time::Duration;

use halfmoon::{Client, ProtocolConfig, ProtocolKind};
use hm_common::latency::LatencyModel;
use hm_runtime::{Gateway, GcDriver, LoadReport, LoadSpec, Runtime, RuntimeConfig};
use hm_substrate::{sim::Sim, Time};
use hm_workloads::Workload;

/// A built simulated deployment, ready to run one experiment.
pub struct BenchEnv {
    /// The simulation (owns the run loop).
    pub sim: Sim,
    /// The deployment handle.
    pub client: Client,
    /// The runtime executing functions.
    pub runtime: Runtime,
}

/// Builds a deployment with the calibrated latency model.
#[must_use]
pub fn build_env(seed: u64, kind: ProtocolKind, rt_config: RuntimeConfig) -> BenchEnv {
    build_env_with_topology(seed, kind, rt_config, halfmoon::Topology::default())
}

/// Like [`build_env`], with an explicit logging topology (shard count).
#[must_use]
pub fn build_env_with_topology(
    seed: u64,
    kind: ProtocolKind,
    rt_config: RuntimeConfig,
    topology: halfmoon::Topology,
) -> BenchEnv {
    build_env_inner(seed, kind, rt_config, topology, None)
}

fn build_env_inner(
    seed: u64,
    kind: ProtocolKind,
    rt_config: RuntimeConfig,
    topology: halfmoon::Topology,
    tracer: Option<Rc<hm_common::trace::Tracer>>,
) -> BenchEnv {
    let sim = Sim::new(seed);
    let mut builder = Client::builder(sim.ctx())
        .model(LatencyModel::calibrated())
        .protocol_config(ProtocolConfig::uniform(kind))
        .topology(topology);
    if let Some(tracer) = tracer {
        builder = builder.tracer(tracer);
    }
    let client = builder.build();
    let runtime = Runtime::new(client.clone(), rt_config);
    BenchEnv {
        sim,
        client,
        runtime,
    }
}

/// Duration scale from `HM_BENCH_SCALE` (default 1.0, clamped ≥ 0.05).
#[must_use]
pub fn scale() -> f64 {
    std::env::var("HM_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0)
        .max(0.05)
}

/// Scales a base duration (seconds) by [`scale`].
#[must_use]
pub fn scaled_secs(base: f64) -> Time {
    Duration::from_secs_f64(base * scale())
}

/// Experiment parameters for one workload run.
pub struct AppRun {
    /// RNG seed.
    pub seed: u64,
    /// Protocol under test.
    pub kind: ProtocolKind,
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
    /// Log/store op counters over the measured window.
    pub log_appends: u64,
    /// Most timers the run's executor held pending at once.
    pub peak_timers: usize,
}

/// Runs one workload experiment end to end.
#[must_use]
pub fn run_app(workload: &dyn Workload, params: &AppRun) -> AppRunOutput {
    run_app_inner(workload, params, None)
}

/// [`run_app`] with causal tracing: the caller's tracer is attached to the
/// deployment before any load runs, so every request in the run exports
/// spans. The tracer draws no randomness and adds no virtual-time work, so
/// a traced run's results are identical to the untraced run per seed.
#[must_use]
pub fn run_app_traced(
    workload: &dyn Workload,
    params: &AppRun,
    tracer: Rc<hm_common::trace::Tracer>,
) -> AppRunOutput {
    run_app_inner(workload, params, Some(tracer))
}

fn run_app_inner(
    workload: &dyn Workload,
    params: &AppRun,
    tracer: Option<Rc<hm_common::trace::Tracer>>,
) -> AppRunOutput {
    let mut env = build_env_inner(
        params.seed,
        params.kind,
        params.rt_config,
        halfmoon::Topology::default(),
        tracer,
    );
    workload.populate(&env.client);
    workload.register(&env.runtime);
    let gc = params
        .gc_interval
        .map(|interval| GcDriver::start(env.client.clone(), hm_common::NodeId(0), interval));
    let gateway = Gateway::new(env.runtime.clone());
    let spec = LoadSpec {
        rate_per_sec: params.rate,
        duration: params.duration,
        warmup: params.warmup,
        factory: workload.factory(),
    };
    // Reset measurement windows at the end of warmup.
    let client = env.client.clone();
    let ctx = env.client.ctx().clone();
    let warmup = params.warmup;
    let appends_at_warmup = Rc::new(std::cell::Cell::new(0u64));
    {
        let appends_at_warmup = appends_at_warmup.clone();
        let client = client;
        ctx.clone().spawn(async move {
            ctx.sleep(warmup).await;
            client.log().reset_storage_window();
            client.store().reset_storage_window();
            appends_at_warmup.set(client.log().counters().log_appends);
        });
    }
    let report = env
        .sim
        .block_on(async move { gateway.run_open_loop(spec).await });
    if let Some(gc) = gc {
        gc.stop();
    }
    AppRunOutput {
        report,
        avg_log_bytes: env.client.log().average_bytes(),
        avg_store_bytes: env.client.store().average_bytes(),
        op_latencies: env.client.op_latencies(),
        log_appends: env.client.log().counters().log_appends - appends_at_warmup.get(),
        peak_timers: env.sim.peak_timers(),
    }
}

/// The four systems the evaluation compares.
#[must_use]
pub fn all_systems() -> [ProtocolKind; 4] {
    [
        ProtocolKind::Unsafe,
        ProtocolKind::Boki,
        ProtocolKind::HalfmoonRead,
        ProtocolKind::HalfmoonWrite,
    ]
}

/// Prints a markdown-style table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    println!();
}

/// Formats milliseconds with two decimals, or a dash when absent.
#[must_use]
pub fn fmt_ms(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| format!("{v:.2}"))
}

/// Formats a byte count as MB.
#[must_use]
pub fn fmt_mb(bytes: f64) -> String {
    format!("{:.2}", bytes / 1e6)
}

/// Renders one or more named series as an ASCII line chart (the benches
/// print these under the tables so the figures read as figures).
///
/// Each series is `(label, points)`; all series share the x positions
/// given by `x_labels`. Heights are scaled to the global min/max.
pub fn print_ascii_chart(
    title: &str,
    x_labels: &[String],
    series: &[(&str, Vec<f64>)],
    y_unit: &str,
) {
    const ROWS: usize = 12;
    let marks = ['*', 'o', '+', 'x', '#', '@'];
    let all: Vec<f64> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .filter(|v| v.is_finite())
        .collect();
    let Some(max) = all.iter().copied().max_by(f64::total_cmp) else {
        return;
    };
    let min = all.iter().copied().min_by(f64::total_cmp).unwrap_or(0.0);
    let span = (max - min).max(1e-9);
    let cols = x_labels.len();
    let col_width = 6usize;
    println!("\n{title} ({y_unit})");
    let mut grid = vec![vec![' '; cols * col_width]; ROWS];
    for (si, (_, pts)) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        for (i, v) in pts.iter().enumerate() {
            if !v.is_finite() {
                continue;
            }
            let row = ((max - v) / span * (ROWS as f64 - 1.0)).round() as usize;
            let col = i * col_width + col_width / 2;
            grid[row.min(ROWS - 1)][col] = mark;
        }
    }
    for (r, row) in grid.iter().enumerate() {
        let y = max - span * r as f64 / (ROWS as f64 - 1.0);
        let line: String = row.iter().collect();
        println!("{y:8.1} |{}", line.trim_end());
    }
    let mut axis = String::new();
    for label in x_labels {
        axis.push_str(&format!("{label:^col_width$}"));
    }
    println!("{:8} +{}", "", "-".repeat(cols * col_width));
    println!("{:8}  {}", "", axis);
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(si, (name, _))| format!("{} {name}", marks[si % marks.len()]))
        .collect();
    println!("{:8}  legend: {}", "", legend.join("   "));
}
