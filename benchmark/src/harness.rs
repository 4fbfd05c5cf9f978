//! The end-to-end run: rounds of one workload, each in its own process,
//! for `--seconds`; medians (or the fastest round) of the host numbers; the output checks; and the
//! result line the driver reads.

use std::fmt::Write as _;
use std::process::Command;
use std::time::Instant;

use crate::round::RoundReport;
use crate::util::median;
use crate::{RoundArgs, Workload};

/// One reported metric: name, unit, and which direction is better.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// `host`: measured on this machine, differs run to run. `virtual`:
    /// output of the seeded model, repeats exactly for a seed.
    pub clock: &'static str,
}

impl Metric {
    pub const fn new(
        name: &'static str,
        unit: &'static str,
        better: &'static str,
        clock: &'static str,
    ) -> Metric {
        Metric {
            name,
            unit,
            better,
            clock,
        }
    }
}

/// The end-to-end metrics, in the order of `BENCHMARK.json`.
pub const END_TO_END: [Metric; 9] = [
    Metric::new("setup_s", "s", "lower", "host"),
    Metric::new("host_us_per_op", "us", "lower", "host"),
    Metric::new("peak_rss_mb", "MB", "lower", "host"),
    Metric::new("allocs_per_op", "1/op", "lower", "host"),
    Metric::new("virt_p50_ms", "ms", "lower", "virtual"),
    Metric::new("virt_p99_ms", "ms", "lower", "virtual"),
    Metric::new("virt_goodput_ops_s", "1/s", "higher", "virtual"),
    Metric::new("log_appends_per_op", "1/op", "lower", "virtual"),
    Metric::new("storage_avg_mb", "MB", "lower", "virtual"),
];

/// Rounds every run completes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Runs one round in a process of its own and reads its report.
pub fn spawn_round(args: &RoundArgs) -> Result<RoundReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("round")
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--spin-us", &args.spin.as_micros().to_string()])
        .args(["--scale", &args.scale.to_string()]);
    let mut o = args.observers;
    let observers: Vec<&str> = o
        .named()
        .into_iter()
        .filter_map(|(name, on)| on.then_some(name))
        .collect();
    if !observers.is_empty() {
        cmd.args(["--observers", &observers.join(",")]);
    }
    if let Some(protocol) = args.protocol {
        cmd.args([
            "--protocol",
            match protocol {
                halfmoon::ProtocolKind::Boki => "boki",
                halfmoon::ProtocolKind::HalfmoonWrite => "hm-write",
                _ => "hm-read",
            },
        ]);
    }
    // `output` waits for the process, so none outlives the harness.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a round: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "round exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    RoundReport::parse(&String::from_utf8_lossy(&out.stdout))
}

/// Rounds of one workload and what they agree on.
pub struct Rounds {
    pub reports: Vec<RoundReport>,
    /// Failed output checks over all rounds, including disagreement
    /// between rounds of the same seed.
    pub failures: Vec<String>,
}

impl Rounds {
    /// Starts rounds until `seconds` are used up (at least [`MIN_ROUNDS`]).
    pub fn collect(args: &RoundArgs, seconds: f64) -> Result<Rounds, String> {
        let start = Instant::now();
        let mut reports: Vec<RoundReport> = Vec::new();
        loop {
            reports.push(spawn_round(args)?);
            let used = start.elapsed().as_secs_f64();
            // Stop where another round would overshoot by more than it
            // undershoots.
            let per_round = used / reports.len() as f64;
            if reports.len() >= MIN_ROUNDS && used + per_round / 2.0 >= seconds {
                break;
            }
        }
        let mut failures = Vec::new();
        for (i, r) in reports.iter().enumerate() {
            failures.extend(r.failures.iter().map(|f| format!("round {i}: {f}")));
            if r.fingerprint != reports[0].fingerprint || r.virt != reports[0].virt {
                failures.push(format!(
                    "round {i}: virtual results differ from round 0 at the same seed \
                     ({:016x} vs {:016x})",
                    r.fingerprint, reports[0].fingerprint
                ));
            }
        }
        Ok(Rounds { reports, failures })
    }

    /// A virtual result or count: the same in every round.
    pub fn virt(&self, name: &str) -> f64 {
        self.reports[0].get(name)
    }

    /// An end-to-end host metric, one sample per round; `None` for a
    /// virtual or count metric.
    pub fn host_samples(&self, name: &str) -> Option<Vec<f64>> {
        let per_round: fn(&RoundReport) -> f64 = match name {
            "setup_s" => |r| r.get("setup_s"),
            "peak_rss_mb" => |r| r.get("peak_rss_mb"),
            "host_us_per_op" => RoundReport::host_us_per_op,
            "allocs_per_op" => |r| r.get("allocs") / r.get("ops"),
            _ => return None,
        };
        Some(self.reports.iter().map(per_round).collect())
    }

    /// Ops attempted and failed over all rounds: a request that errored or
    /// never drained is a failure, as is a lost conditional append.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let sum = |name: &str| self.reports.iter().map(|r| r.get(name)).sum::<f64>() as u64;
        let (generated, completed) = (sum("generated"), sum("completed"));
        (
            generated,
            generated - completed.min(generated) + sum("errors"),
        )
    }

    /// The value of an end-to-end metric.
    pub fn end_to_end(&self, name: &str) -> f64 {
        match self.host_samples(name) {
            // Every round does the same deterministic work on one thread,
            // so rounds differ only by what the machine adds, and it only
            // ever adds: the fastest round is the closest to the code's
            // cost, and moved a quarter as much from run to run as the
            // median did on the shared host this was sized on.
            Some(samples) if name == "host_us_per_op" => {
                samples.into_iter().fold(f64::INFINITY, f64::min)
            }
            Some(samples) => median(&samples),
            None => self.virt(name),
        }
    }
}

/// Formats the driver's result line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` keeps every digit; a non-finite value is a bug upstream.
        assert!(value.is_finite(), "metric {name} is not finite");
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

/// The `--trace 0` run of one workload.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<bool, String> {
    let rounds = Rounds::collect(&RoundArgs::new(workload, seed), seconds)?;
    println!(
        "workload {} seed {seed}: {} rounds, {} ops each, virtual fingerprint {:016x}",
        workload.name(),
        rounds.reports.len(),
        rounds.virt("ops"),
        rounds.reports[0].fingerprint
    );
    println!(
        "{:<22} {:>16} {:<5} {:<7} {:<8} rounds (host) or exact (virtual)",
        "metric", "value", "unit", "better", "clock"
    );
    let mut metrics = Vec::new();
    for m in &END_TO_END {
        let value = rounds.end_to_end(m.name);
        let detail = match rounds.host_samples(m.name) {
            Some(samples) => fmt_samples(&samples),
            None if m.name == "virt_p99_ms" => format!("{} samples", rounds.virt("completed")),
            None => String::new(),
        };
        println!(
            "{:<22} {:>16.6} {:<5} {:<7} {:<8} {detail}",
            m.name, value, m.unit, m.better, m.clock
        );
        metrics.push((m.name, value, m.unit));
    }
    println!("generator lateness 0 ms: arrivals are virtual-time timers, latency runs from the scheduled arrival");
    for f in &rounds.failures {
        println!("CHECK FAILED: {f}");
    }
    let (attempted, failed) = rounds.attempted_failed();
    let correct = rounds.failures.is_empty();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn fmt_samples(samples: &[f64]) -> String {
    let mut s: Vec<f64> = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let list: Vec<String> = s.iter().map(|v| format!("{v:.4}")).collect();
    format!("[{}]", list.join(" "))
}
