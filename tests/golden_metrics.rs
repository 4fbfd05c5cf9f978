//! Golden fixed-seed metrics snapshots of the simulation substrate.
//!
//! These tests pin the *simulated results* of representative workloads —
//! op counters, latency percentiles (bit-exact f64), storage gauges, final
//! virtual time — against a committed snapshot. Any divergence means a
//! change moved simulated behavior; a change that only speeds up the
//! executor or the shared log must leave every line as it is.
//!
//! To re-record after an *intentional* behavior change:
//! `HM_BLESS_GOLDEN=1 cargo test -q --test golden_metrics` and commit the
//! updated `tests/golden/sim_core_metrics.txt` with an explanation.
//!
//! Floats are printed both human-readably and as raw IEEE-754 bits, so a
//! mismatch is unambiguous (no formatting/rounding slack) yet the diff is
//! still readable.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use halfmoon::ProtocolKind;
use hm_common::ids::TagKind;
use hm_common::latency::LatencyModel;
use hm_common::metrics::{Histogram, OpCounters};
use hm_common::{NodeId, SeqNum, Tag};
use hm_runtime::RuntimeConfig;
use hm_sharedlog::{CondAppendOutcome, LogConfig, LogService};
use hm_substrate::sim::Sim;
use hm_workloads::synthetic::SyntheticOps;
use hm_workloads::travel::Travel;
use hm_workloads::{run_app, AppRun, AppRunOutput, Workload};

const GOLDEN_PATH: &str = "tests/golden/sim_core_metrics.txt";

fn fmt_f64(out: &mut String, label: &str, v: f64) {
    let _ = writeln!(out, "  {label} = {v:.9} (bits {:016x})", v.to_bits());
}

fn fmt_opt_ms(out: &mut String, label: &str, v: Option<f64>) {
    match v {
        Some(v) => fmt_f64(out, label, v),
        None => {
            let _ = writeln!(out, "  {label} = none");
        }
    }
}

fn fmt_latency(out: &mut String, h: &Histogram) {
    let _ = writeln!(out, "  latency_count = {}", h.count());
    fmt_opt_ms(out, "latency_p25_ms", h.quantile_ms(0.25));
    fmt_opt_ms(out, "latency_p50_ms", h.median_ms());
    fmt_opt_ms(out, "latency_p90_ms", h.quantile_ms(0.90));
    fmt_opt_ms(out, "latency_p99_ms", h.p99_ms());
    fmt_opt_ms(out, "latency_max_ms", h.max_ms());
    fmt_opt_ms(out, "latency_mean_ms", h.mean_ms());
}

/// Prints each counter field by name: new fields added later (e.g. cache
/// statistics) do not disturb the golden text.
fn fmt_counters(out: &mut String, c: &OpCounters) {
    let _ = writeln!(out, "  log_appends = {}", c.log_appends);
    let _ = writeln!(out, "  cond_append_conflicts = {}", c.cond_append_conflicts);
    let _ = writeln!(out, "  log_reads = {}", c.log_reads);
    let _ = writeln!(out, "  log_trims = {}", c.log_trims);
    let _ = writeln!(out, "  db_reads = {}", c.db_reads);
    let _ = writeln!(out, "  db_writes = {}", c.db_writes);
    let _ = writeln!(out, "  db_cond_writes = {}", c.db_cond_writes);
    let _ = writeln!(out, "  db_deletes = {}", c.db_deletes);
}

/// Direct shared-log traffic: appends, conditional appends (with forced
/// conflicts), stream reads, trims, and appends to trimmed-then-revived
/// streams — the paths whose data structures the rewrite replaces.
fn scenario_log_micro() -> String {
    scenario_log_micro_with(LogConfig::default())
}

fn scenario_log_micro_with(config: LogConfig) -> String {
    let mut sim = Sim::new(0x601d_0001);
    let log: LogService<u64> =
        LogService::new(sim.ctx(), LatencyModel::uniform_test_model(), config);
    let l = log.clone();
    sim.block_on(async move {
        let tags: Vec<Tag> = (0..16)
            .map(|i| Tag::new(TagKind::ObjectLog, 0x900 + i))
            .collect();
        let aux = Tag::new(TagKind::TransitionLog, 0xA00);
        let mut conflicts = 0u32;
        for i in 0..400u64 {
            let node = NodeId((i % 4) as u32);
            let t = tags[(i % 16) as usize];
            if i % 7 == 0 {
                // Two racers, same expected position: exactly one conflicts.
                let pos = {
                    // Current stream length is the expected append position.
                    let len = l.read_stream(node, aux).await.len();
                    len
                };
                match l.cond_append(node, vec![aux, t], i, aux, pos).await {
                    CondAppendOutcome::Appended(_) => {}
                    CondAppendOutcome::Conflict(_) => conflicts += 1,
                }
                match l.cond_append(node, vec![aux], i + 1000, aux, pos).await {
                    CondAppendOutcome::Appended(_) => {}
                    CondAppendOutcome::Conflict(_) => conflicts += 1,
                }
            } else {
                l.append(node, vec![t, tags[((i * 3 + 1) % 16) as usize]], i)
                    .await;
            }
            if i % 3 == 0 {
                l.read_prev(node, t, SeqNum::MAX).await;
            }
            if i % 5 == 0 {
                l.read_next(node, t, SeqNum(1)).await;
            }
            if i % 50 == 49 {
                // Trim a stream entirely, then append to it again: the
                // revived stream must re-account bytes exactly once.
                let victim = tags[((i / 50) % 16) as usize];
                l.trim(node, victim, l.head_seqnum()).await;
                l.append(node, vec![victim], i + 2000).await;
            }
        }
        assert!(conflicts > 0, "scenario must exercise conflict path");
    });
    let mut out = String::from("[log_micro]\n");
    fmt_counters(&mut out, &log.counters());
    let _ = writeln!(out, "  live_records = {}", log.live_records());
    let _ = writeln!(out, "  head_seqnum = {}", log.head_seqnum().0);
    fmt_f64(&mut out, "current_bytes", log.current_bytes());
    fmt_f64(&mut out, "average_bytes", log.average_bytes());
    let _ = writeln!(out, "  now_ns = {}", sim.now().as_nanos());
    out
}

/// Full-stack application run through the open-loop harness, scaled down
/// for test budgets.
fn scenario_app(
    name: &str,
    kind: ProtocolKind,
    seed: u64,
    workload: &dyn Workload,
    rate: f64,
    secs: f64,
    gc: bool,
) -> String {
    let params = AppRun {
        seed,
        rate,
        duration: Duration::from_secs_f64(secs),
        warmup: Duration::from_secs_f64(0.5),
        rt_config: RuntimeConfig::default(),
        gc_interval: gc.then_some(Duration::from_secs(1)),
    };
    let AppRunOutput {
        sim,
        client,
        report,
        ..
    } = run_app(workload, &params, |b| b.protocol(kind));
    let mut out = format!("[{name}]\n");
    let _ = writeln!(out, "  generated = {}", report.generated);
    let _ = writeln!(out, "  completed = {}", report.completed);
    let _ = writeln!(out, "  errors = {}", report.errors);
    let _ = writeln!(out, "  peak_queue = {}", report.peak_queue);
    fmt_latency(&mut out, &report.latency);
    // Log and store keep separate counters; merge for one complete view.
    let mut counters = client.log().counters();
    let store = client.store().counters();
    counters.db_reads = store.db_reads;
    counters.db_writes = store.db_writes;
    counters.db_cond_writes = store.db_cond_writes;
    counters.db_deletes = store.db_deletes;
    fmt_counters(&mut out, &counters);
    let _ = writeln!(out, "  log_live_records = {}", client.log().live_records());
    fmt_f64(&mut out, "log_current_bytes", client.log().current_bytes());
    fmt_f64(
        &mut out,
        "store_current_bytes",
        client.store().current_bytes(),
    );
    let _ = writeln!(out, "  now_ns = {}", sim.now().as_nanos());
    out
}

/// Pure executor schedule: many tasks on colliding timer instants. Pins the
/// final virtual clock, which is sensitive to the (deadline, registration)
/// firing order the timer heap must preserve.
fn scenario_executor() -> String {
    let mut sim = Sim::new(0xE8EC_0001);
    let ctx = sim.ctx();
    for t in 0..300usize {
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            for r in 0..120u64 {
                let d = Duration::from_nanos(700 + ((t as u64 * 41 + r) % 1500));
                ctx2.sleep(d).await;
            }
        });
    }
    sim.run();
    let mut out = String::from("[executor_churn]\n");
    let _ = writeln!(out, "  now_ns = {}", sim.now().as_nanos());
    out
}

fn full_snapshot() -> String {
    let mut s = String::from("# Golden fixed-seed metrics for the simulation substrate.\n# Re-record ONLY for intentional behavior changes: HM_BLESS_GOLDEN=1.\n\n");
    s.push_str(&scenario_executor());
    s.push('\n');
    s.push_str(&scenario_log_micro());
    s.push('\n');
    s.push_str(&scenario_app(
        "synthetic_halfmoon_read",
        ProtocolKind::HalfmoonRead,
        0x601d_1001,
        &SyntheticOps {
            objects: 500,
            ..SyntheticOps::default()
        },
        120.0,
        3.0,
        true,
    ));
    s.push('\n');
    s.push_str(&scenario_app(
        "synthetic_boki",
        ProtocolKind::Boki,
        0x601d_2001,
        &SyntheticOps {
            objects: 500,
            ..SyntheticOps::default()
        },
        100.0,
        2.0,
        false,
    ));
    s.push('\n');
    s.push_str(&scenario_app(
        "travel_halfmoon_write",
        ProtocolKind::HalfmoonWrite,
        0x601d_3001,
        &Travel {
            hotels: 30,
            users: 50,
        },
        80.0,
        2.5,
        true,
    ));
    s
}

/// An explicitly single-sharded log reproduces the golden `[log_micro]`
/// section bit-for-bit: `Topology::sharded(1)` takes the same code path
/// as the default construction, so the sharding refactor is invisible
/// to the committed snapshot.
#[test]
fn single_shard_topology_reproduces_golden_log_micro() {
    let sharded = scenario_log_micro_with(LogConfig {
        topology: halfmoon::Topology::sharded(1),
        ..LogConfig::default()
    });
    assert_eq!(
        sharded,
        scenario_log_micro(),
        "shards=1 must match the default-topology log_micro scenario"
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if let Ok(golden) = std::fs::read_to_string(&path) {
        let golden_section: String = golden
            .lines()
            .skip_while(|l| *l != "[log_micro]")
            .take_while(|l| !l.is_empty())
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(
            sharded, golden_section,
            "shards=1 diverged from the committed [log_micro] snapshot"
        );
    }
}

#[test]
fn golden_sim_core_metrics() {
    let snapshot = full_snapshot();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var("HM_BLESS_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &snapshot).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); record it with HM_BLESS_GOLDEN=1",
            path.display()
        )
    });
    if snapshot != golden {
        // Show the first diverging line for a readable failure.
        for (i, (g, s)) in golden.lines().zip(snapshot.lines()).enumerate() {
            assert_eq!(
                g,
                s,
                "golden metrics diverged at line {} — simulated behavior changed",
                i + 1
            );
        }
        panic!(
            "golden metrics length mismatch ({} vs {} lines) — simulated behavior changed",
            golden.lines().count(),
            snapshot.lines().count()
        );
    }
}
