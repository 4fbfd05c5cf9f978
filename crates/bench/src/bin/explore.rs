//! Systematic model-checking driver: enumerates every schedule of the
//! small 2-node configurations and checks the §4.4 propositions on each.
//!
//! Where `bench_sim_core` measures how fast the simulator runs, this
//! binary measures — and asserts — what the model checker *covers*: for
//! each protocol × configuration it exhausts the choice-point tree
//! (scheduler picks, crash placements, stall injections) with sleep-set
//! pruning on, optionally re-runs the naive (unpruned) enumeration for
//! the pruning-ratio column, and prints the EXPERIMENTS.md exploration
//! table. Any counterexample is printed as a replayable schedule.
//!
//! Flags (parsed by `hm_bench::cli::ExploreOpts`; a bad one prints its
//! error and exits with status 2):
//! - `--protocol <name>` — restrict to one protocol
//!   (`unsafe | boki | hm-read | hm-write`); default: all four.
//! - `--config <name>` — restrict to one configuration
//!   (`wr-1s | ww-1s | xy-1s | xy-2s`); default: all four.
//! - `--naive` — also run the unpruned enumeration (slower; fills the
//!   naive-runs and pruned-% columns).
//! - `--workers <n>` — spread the root frontier over n threads, capped
//!   at the host's cores (results are identical at every worker count;
//!   default 1).
//! - `--assert` — exit nonzero unless the report matches the repo's
//!   documented claims: all three fault-tolerant protocols explore
//!   completely with zero violations, the unsafe baseline yields a
//!   counterexample on `ww-1s`, and sleep-set pruning removes ≥ 50 % of
//!   the naive interleavings on the `xy-1s` headline row (implies
//!   `--naive` for the rows that claim needs).

use std::time::Instant;

use halfmoon::ProtocolKind;
use hm_bench::cli::{exit_usage, ExploreOpts};
use hm_bench::print_table;
use hm_runtime::mc::{explore_config, run_schedule, standard_configs, McConfig};
use hm_substrate::explore::ExploreStats;

/// One table row, plus what the `--assert` checks need to see.
struct Row {
    protocol: ProtocolKind,
    config: McConfig,
    pruned: ExploreStats,
    naive: Option<ExploreStats>,
    wall: std::time::Duration,
}

fn main() {
    let opts = ExploreOpts::parse(std::env::args().skip(1)).unwrap_or_else(|e| exit_usage(&e));
    // The --assert claims quantify over the full matrix and need the
    // naive baseline for the pruning row.
    let (naive, protocols, config) = if opts.check {
        (true, ExploreOpts::default().protocols, None)
    } else {
        (opts.naive, opts.protocols.clone(), opts.config.clone())
    };

    let mut rows: Vec<Row> = Vec::new();
    for &protocol in &protocols {
        for cfg in standard_configs(protocol) {
            if let Some(only) = &config {
                if cfg.name != only {
                    continue;
                }
            }
            let t = Instant::now();
            let pruned = explore_config(&cfg, true, opts.workers);
            let wall = t.elapsed();
            let naive_stats = naive.then(|| explore_config(&cfg, false, opts.workers));
            rows.push(Row {
                protocol,
                config: cfg,
                pruned,
                naive: naive_stats,
                wall,
            });
        }
    }
    if rows.is_empty() {
        exit_usage(
            "no (protocol, config) cell selected: --config takes wr-1s | ww-1s | xy-1s | xy-2s",
        );
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let naive_runs = r
                .naive
                .as_ref()
                .map_or_else(|| "-".to_string(), |n| n.executions().to_string());
            let pruned_pct = r.naive.as_ref().map_or_else(
                || "-".to_string(),
                |n| {
                    let saved = 1.0 - r.pruned.executions() as f64 / n.executions() as f64;
                    format!("{:.0}%", saved * 100.0)
                },
            );
            vec![
                r.protocol.label().to_string(),
                r.config.name.to_string(),
                r.config.depth().to_string(),
                r.pruned.runs.to_string(),
                r.pruned.aborted.to_string(),
                r.pruned.nodes.to_string(),
                naive_runs,
                pruned_pct,
                format!("{:.0}", r.wall.as_secs_f64() * 1e3),
                if r.pruned.counterexamples.is_empty() {
                    format!("pass ({})", if r.pruned.complete { "exhaustive" } else { "capped" })
                } else {
                    format!("VIOLATION x{}", r.pruned.counterexamples.len())
                },
            ]
        })
        .collect();
    print_table(
        "Systematic exploration (2 nodes, crash budget 1)",
        &[
            "protocol", "config", "ops", "runs", "pruned-runs", "nodes", "naive-runs",
            "pruned", "wall ms", "verdict",
        ],
        &table,
    );

    for r in &rows {
        if let Some(cx) = r.pruned.counterexamples.first() {
            println!(
                "counterexample [{} {}] schedule \"{}\": {}",
                r.protocol.label(),
                r.config.name,
                cx.schedule,
                cx.violations.join("; ")
            );
        }
    }

    if opts.check {
        let ft = |r: &Row| r.protocol != ProtocolKind::Unsafe;
        for r in rows.iter().filter(|r| ft(r)) {
            assert!(
                r.pruned.complete,
                "{:?} {} did not exhaust its tree",
                r.protocol, r.config.name
            );
            assert!(
                r.pruned.counterexamples.is_empty(),
                "{:?} {} violated the propositions: {:?}",
                r.protocol,
                r.config.name,
                r.pruned.counterexamples[0].violations
            );
            let n = r.naive.as_ref().expect("--assert runs naive");
            assert!(
                n.counterexamples.is_empty(),
                "{:?} {}: naive enumeration found a violation pruning missed",
                r.protocol,
                r.config.name
            );
        }
        let unsafe_ww = rows
            .iter()
            .find(|r| r.protocol == ProtocolKind::Unsafe && r.config.name == "ww-1s")
            .expect("ww-1s row");
        let cx = unsafe_ww
            .pruned
            .counterexamples
            .first()
            .expect("the unsafe baseline must yield a ww-1s counterexample");
        // The counterexample must replay: same schedule, same violation.
        let replay = run_schedule(&unsafe_ww.config, &cx.schedule);
        assert_eq!(
            replay.violations, cx.violations,
            "counterexample schedule did not reproduce its violation"
        );
        let headline = rows
            .iter()
            .find(|r| r.protocol == ProtocolKind::HalfmoonRead && r.config.name == "xy-1s")
            .expect("xy-1s headline row");
        let naive_runs = headline.naive.as_ref().unwrap().executions();
        assert!(
            headline.pruned.executions() * 2 <= naive_runs,
            "sleep-set pruning must remove >= 50% of naive interleavings on \
             hm-read xy-1s: {} pruned vs {} naive",
            headline.pruned.executions(),
            naive_runs
        );
        println!(
            "assertions hold: FT protocols exhaustively pass, unsafe ww-1s \
             counterexample replays, pruning saves >= 50% on hm-read xy-1s"
        );
    }
}
