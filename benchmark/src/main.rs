//! The repo benchmark (`BENCHMARK.json`): four workloads, end-to-end
//! metrics on the host clock and the virtual clock, and a per-layer
//! traced run. See `benchmark/README.md`.
//!
//! ```text
//! hm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hm-benchmark selfcheck [--seed <n>]
//! hm-benchmark round --workload <name> --seed <n> [--observers a,b] [--spin-us n] [--scale x]
//! ```
//!
//! The first form is the harness: it starts one process per round of the
//! workload (`round`, the third form) until `--seconds` are used up, checks
//! every round's outputs, and prints each metric followed by one JSON line.

mod apps;
mod harness;
mod layers;
mod logstorm;
mod round;
mod selfcheck;
mod spans;
mod trace;
mod util;

use std::process::ExitCode;
use std::time::Duration;

use hm_bench::alloc::CountingAlloc;

use apps::{AppShape, Observers};
use logstorm::StormShape;
use round::RoundReport;

/// Counts every allocation of the process for `allocs_per_op`.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The default `--seed`, recorded in `benchmark/README.md`.
pub const DEFAULT_SEED: u64 = 20230923;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SteadyMixed,
    OverloadBacklog,
    CrashRecovery,
    LogStorm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SteadyMixed,
        Workload::OverloadBacklog,
        Workload::CrashRecovery,
        Workload::LogStorm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyMixed => "steady_mixed",
            Workload::OverloadBacklog => "overload_backlog",
            Workload::CrashRecovery => "crash_recovery",
            Workload::LogStorm => "log_storm",
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))
    }

    /// The application shape, `None` for `log_storm`.
    pub fn app_shape(self) -> Option<AppShape> {
        match self {
            Workload::SteadyMixed => Some(AppShape::steady_mixed()),
            Workload::OverloadBacklog => Some(AppShape::overload_backlog()),
            Workload::CrashRecovery => Some(AppShape::crash_recovery()),
            Workload::LogStorm => None,
        }
    }
}

/// Arguments of one round; the harness passes them to the round's process.
#[derive(Clone, Copy, Debug)]
pub struct RoundArgs {
    pub workload: Workload,
    pub seed: u64,
    pub observers: Observers,
    /// Busy-wait injected into the benchmark's factory wrapper.
    pub spin: Duration,
    /// Multiplies the generation window (the self-check's size doubling).
    pub scale: f64,
    /// Overrides the workload's protocol (the self-check's comparison).
    pub protocol: Option<halfmoon::ProtocolKind>,
}

impl RoundArgs {
    pub fn new(workload: Workload, seed: u64) -> RoundArgs {
        RoundArgs {
            workload,
            seed,
            observers: Observers::NONE,
            spin: Duration::ZERO,
            scale: 1.0,
            protocol: None,
        }
    }

    fn run(&self) -> RoundReport {
        let mut report = match self.workload.app_shape() {
            Some(mut shape) => {
                shape.window = shape.window.mul_f64(self.scale);
                if let Some(protocol) = self.protocol {
                    shape.protocol = protocol;
                }
                apps::app_round(&shape, self.seed, self.observers, self.spin)
            }
            None => {
                let mut shape = StormShape::log_storm();
                shape.iterations = (shape.iterations as f64 * self.scale) as u64;
                logstorm::storm_round(&shape, self.seed, self.observers.tracer)
            }
        };
        report.set_host("peak_rss_mb", util::peak_rss_mb());
        report
    }
}

struct Cli {
    command: String,
    round: RoundArgs,
    seconds: f64,
    trace: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter().peekable();
    let command = match it.peek() {
        Some(a) if !a.starts_with("--") => it.next().cloned().unwrap_or_default(),
        _ => "run".to_string(),
    };
    let mut workload = None;
    let mut cli = Cli {
        command,
        round: RoundArgs::new(Workload::SteadyMixed, DEFAULT_SEED),
        seconds: 15.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("bad value `{value}` for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => cli.round.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err(bad(&"must be within (0, 600]"));
                }
            }
            "--trace" => {
                cli.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--observers" => {
                for name in value.split(',').filter(|n| !n.is_empty()) {
                    match cli
                        .round
                        .observers
                        .named()
                        .into_iter()
                        .find(|(n, _)| *n == name)
                    {
                        Some((_, on)) => *on = true,
                        None => return Err(bad(&"unknown observer")),
                    }
                }
            }
            "--spin-us" => {
                cli.round.spin = Duration::from_micros(value.parse().map_err(|e| bad(&e))?);
            }
            "--scale" => {
                cli.round.scale = value.parse().map_err(|e| bad(&e))?;
                if !(cli.round.scale > 0.0 && cli.round.scale <= 16.0) {
                    return Err(bad(&"must be within (0, 16]"));
                }
            }
            "--protocol" => {
                cli.round.protocol = Some(match value {
                    "boki" => halfmoon::ProtocolKind::Boki,
                    "hm-read" => halfmoon::ProtocolKind::HalfmoonRead,
                    "hm-write" => halfmoon::ProtocolKind::HalfmoonWrite,
                    _ => return Err(bad(&"unknown protocol")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    match (cli.command.as_str(), workload) {
        ("selfcheck", _) => {}
        (_, Some(w)) => cli.round.workload = w,
        (_, None) => return Err("--workload is required".to_string()),
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("hm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cli.command.as_str() {
        "round" => {
            print!("{}", cli.round.run().to_lines());
            Ok(true)
        }
        "run" if cli.trace => trace::run(cli.round.workload, cli.round.seed, cli.seconds),
        "run" => harness::run(cli.round.workload, cli.round.seed, cli.seconds),
        "selfcheck" => selfcheck::run(cli.round.seed),
        other => Err(format!("unknown command `{other}`")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hm-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
