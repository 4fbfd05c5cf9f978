//! Wall-clock benchmark of the simulation substrate's hot paths.
//!
//! Unlike the `paper` bench target (which reproduces the paper's
//! *simulated* figures), this binary measures how fast the simulator
//! itself runs: it times each component of [`hm_bench::sim_core`] —
//! executor timer churn, raw shared-log traffic, full application
//! workloads and the rest — with plain `std::time::Instant`, and emits
//! `BENCH_sim_core.json` so
//! successive changes can track the substrate's wall-clock trajectory.
//! `work_fingerprint` combines the components' fingerprints: two builds
//! that disagree on it did different simulated work.
//!
//! Knobs:
//! - `HM_BENCH_SCALE` (default 1.0): multiplies workload durations; use a
//!   small value (e.g. 0.05) for a smoke run. A value that is not a
//!   finite number above zero stops the binary with an error naming it.
//! - `HM_BENCH_OUT` (default `BENCH_sim_core.json`): output path.
//! - `--trace-out <path>`: re-run the synthetic Halfmoon-read workload with
//!   causal tracing attached, assert its work fingerprint matches the
//!   untraced run (tracing must not perturb the simulation) and that every
//!   function node's lane carries spans, report the traced wall time as an
//!   extra component, and write the Chrome `trace_event` JSON to `<path>`
//!   (load it at `ui.perfetto.dev`).
//!
//! Arguments parse through the workspace-wide `hm_bench::cli::CommonOpts`
//! surface; the deployment-shaping flags (`--shards`, `--batch`) are
//! rejected here because every component pins its own topology. A bad
//! argument prints its error and exits with status 2.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use halfmoon::ProtocolKind;
use hm_bench::alloc::CountingAlloc;
use hm_bench::cli::{exit_usage, CommonOpts};
use hm_bench::sim_core::{self, mix, Run};
use hm_common::trace::{Lane, Phase, Tracer};
use hm_runtime::RuntimeConfig;

/// Every allocation in the process is counted so `hot_path_alloc` can
/// report allocations/op; the counter is two relaxed atomic adds per call,
/// far below the noise floor of the timed components.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A component's name and body; the body takes the duration scale.
type Component = (&'static str, fn(f64) -> Run);

/// The components, in report order. A component's detail section (if any)
/// lands at the report's top level under its name.
const COMPONENTS: [Component; 14] = [
    ("executor_churn", sim_core::executor_churn),
    ("executor_timer_stress", sim_core::executor_timer_stress),
    ("sharedlog_ops", sim_core::sharedlog_ops),
    ("sharedlog_trim_stress", sim_core::sharedlog_trim_stress),
    ("sharedlog_shard_sweep", sim_core::sharedlog_shard_sweep),
    ("append_batching", sim_core::append_batching),
    ("synthetic_halfmoon_read", |scale| {
        sim_core::app(ProtocolKind::HalfmoonRead, false, scale, None)
    }),
    ("synthetic_halfmoon_write", |scale| {
        sim_core::app(ProtocolKind::HalfmoonWrite, false, scale, None)
    }),
    ("travel_halfmoon_read", |scale| {
        sim_core::app(ProtocolKind::HalfmoonRead, true, scale, None)
    }),
    ("recovery", sim_core::recovery),
    ("hot_path_alloc", sim_core::hot_path_alloc),
    ("admission_knee", sim_core::admission_knee),
    ("parallel_scaling", sim_core::parallel_scaling),
    ("model_check", |_| sim_core::model_check()),
];

/// One timed component: name, wall time, what it did.
type Timed = (&'static str, Duration, Run);

fn timed(name: &'static str, component: impl FnOnce() -> Run) -> Timed {
    let start = Instant::now();
    let run = component();
    (name, start.elapsed(), run)
}

/// The synthetic Halfmoon-read component again, traced, with the Chrome
/// trace written to `path`. Same seed and parameters as the untraced run,
/// whose fingerprint (`untraced`) it must reproduce; the wall-time delta
/// between the two is the tracing overhead.
fn traced_twin(scale: f64, path: &str, untraced: u64) -> Timed {
    let tracer = Tracer::new();
    let twin = timed("synthetic_halfmoon_read_traced", || {
        sim_core::app(
            ProtocolKind::HalfmoonRead,
            false,
            scale,
            Some(tracer.clone()),
        )
    });
    assert_eq!(
        twin.2.fingerprint, untraced,
        "tracing perturbed the simulation: traced and untraced runs diverged"
    );
    let node_lanes: BTreeSet<u32> = tracer
        .recent_events(usize::MAX)
        .into_iter()
        .filter(|e| e.phase == Phase::Begin && Lane::pid(e.lane) == 0)
        .map(|e| e.lane)
        .collect();
    assert!(
        node_lanes
            .iter()
            .copied()
            .eq(0..RuntimeConfig::default().nodes),
        "every function node's lane must carry spans: {node_lanes:?}"
    );
    std::fs::write(path, tracer.export_chrome_json()).expect("write trace output");
    eprintln!(
        "wrote {path} ({} events recorded, {} dropped; spans on node lanes {node_lanes:?})",
        tracer.events_recorded(),
        tracer.events_dropped()
    );
    twin
}

fn main() {
    let scale = hm_bench::scale().unwrap_or_else(|e| exit_usage(&e));
    let out_path =
        std::env::var("HM_BENCH_OUT").unwrap_or_else(|_| "BENCH_sim_core.json".to_string());
    let opts = CommonOpts::from_env()
        .and_then(|o| o.reject_shape_overrides("bench_sim_core").map(|()| o))
        .unwrap_or_else(|e| exit_usage(&e));

    let mut components: Vec<Timed> = COMPONENTS
        .iter()
        .map(|&(name, component)| timed(name, || component(scale)))
        .collect();
    if let Some(path) = &opts.trace_out {
        let (_, _, untraced) = components
            .iter()
            .find(|c| c.0 == "synthetic_halfmoon_read")
            .expect("untraced twin component");
        let twin = traced_twin(scale, path, untraced.fingerprint);
        components.push(twin);
    }

    let total: Duration = components.iter().map(|c| c.1).sum();
    let fp = components.iter().fold(0, |fp, c| mix(fp, c.2.fingerprint));

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"sim_core\",");
    let _ = writeln!(json, "  \"schema_version\": 8,");
    let _ = writeln!(json, "  \"scale\": {scale},");
    for (name, _, run) in &components {
        if let Some(detail) = &run.detail {
            let _ = writeln!(json, "  \"{name}\": {detail},");
        }
    }
    let _ = writeln!(
        json,
        "  \"total_wall_ms\": {:.3},",
        total.as_secs_f64() * 1e3
    );
    let _ = writeln!(json, "  \"work_fingerprint\": \"{fp:016x}\",");
    json.push_str("  \"components\": [\n");
    for (i, (name, wall, run)) in components.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{name}\", \"wall_ms\": {:.3}, \"polls\": {}, \"peak_timers\": {}, \"fingerprint\": \"{:016x}\"",
            wall.as_secs_f64() * 1e3,
            run.polls,
            run.peak_timers,
            run.fingerprint,
        );
        if !run.alloc.is_empty() {
            json.push_str(", \"alloc\": {");
            for (j, p) in run.alloc.iter().enumerate() {
                let _ = write!(
                    json,
                    "{}\"{}\": {{\"ops\": {}, \"allocs_per_op\": {:.3}, \"bytes_per_op\": {:.1}}}",
                    if j == 0 { "" } else { ", " },
                    p.name,
                    p.ops,
                    p.rate.allocs_per_op,
                    p.rate.bytes_per_op,
                );
            }
            json.push('}');
        }
        let _ = writeln!(
            json,
            "}}{}",
            if i + 1 < components.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write bench output");
    println!("{json}");
    eprintln!(
        "wrote {out_path} (total {:.1} ms)",
        total.as_secs_f64() * 1e3
    );
}
