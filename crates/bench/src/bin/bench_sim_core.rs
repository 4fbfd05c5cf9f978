//! Wall-clock benchmark of the simulation substrate's hot paths.
//!
//! Unlike the `benches/` targets (which reproduce the paper's *simulated*
//! figures), this binary measures how fast the simulator itself runs: it
//! executes a fixed-seed macro-workload — executor timer churn, raw
//! shared-log traffic, and two full application workloads — with plain
//! `std::time::Instant`, and emits `BENCH_sim_core.json` so successive PRs
//! can track the substrate's wall-clock trajectory.
//!
//! Determinism: every component runs from a pinned seed and reports a
//! `work_fingerprint` built from simulated-result metrics (op counters,
//! completion counts, virtual clock). Two builds that disagree on the
//! fingerprint did *different simulated work* and their wall times must not
//! be compared.
//!
//! Knobs:
//! - `HM_BENCH_SCALE` (default 1.0): multiplies workload durations; use a
//!   small value (e.g. 0.05) for a smoke run.
//! - `HM_BENCH_OUT` (default `BENCH_sim_core.json`): output path.
//! - `--trace-out <path>`: re-run the synthetic Halfmoon-read workload with
//!   causal tracing attached, assert its work fingerprint matches the
//!   untraced run (tracing must not perturb the simulation), report the
//!   traced wall time as an extra component, and write the Chrome
//!   `trace_event` JSON to `<path>` (load it at `ui.perfetto.dev`).
//!
//! Arguments parse through the workspace-wide `hm_bench::cli::CommonOpts`
//! surface; the deployment-shaping flags (`--shards`, `--batch`) are
//! rejected here because every component pins its own topology.

use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use halfmoon::ProtocolKind;
use hm_bench::alloc::{AllocRate, AllocSnapshot, CountingAlloc};
use hm_bench::cli::CommonOpts;
use hm_bench::{run_app, run_app_traced, AppRun};
use hm_common::ids::TagKind;
use hm_common::trace::Tracer;
use hm_common::latency::LatencyModel;
use hm_common::{NodeId, Tag};
use hm_runtime::RuntimeConfig;
use hm_sharedlog::{LogConfig, LogService, Payload};
use hm_substrate::sim::Sim;
use hm_substrate::{Partition, PartitionFuture, Runner};
use hm_workloads::synthetic::SyntheticOps;
use hm_workloads::travel::Travel;

/// Every allocation in the process is counted so `hot_path_alloc` can
/// report allocations/op; the counter is two relaxed atomic adds per call,
/// far below the noise floor of the timed components.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation rates for one bracketed phase of a component.
struct AllocPhase {
    name: &'static str,
    ops: u64,
    rate: AllocRate,
}

/// One timed component of the macro-workload.
struct Component {
    name: &'static str,
    wall: Duration,
    /// Future polls driven by the executor (event-loop iterations).
    polls: u64,
    /// Most timers any of the component's executors held pending at once
    /// (`Sim::peak_timers`): the depth the timer heap is sized against.
    /// 0 for `parallel_scaling` and `model_check`: no `Sim` in reach.
    peak_timers: usize,
    /// Simulated-result fingerprint; must be identical across builds.
    fingerprint: u64,
    /// Per-phase allocation rates (only `hot_path_alloc` reports these).
    /// Deliberately *not* part of the fingerprint: the fingerprint pins
    /// simulated work, while allocation counts are exactly what the
    /// zero-copy PRs are expected to change.
    alloc: Vec<AllocPhase>,
}

fn mix(h: u64, v: u64) -> u64 {
    // splitmix-style combiner: order-sensitive, stable across platforms.
    let mut x = h ^ v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 31)
}

/// Executor stress: a fan of tasks looping on staggered timers — the
/// spawn/sleep/wake cycle with almost no payload work, so slab, timer-heap
/// and ready-queue costs dominate.
fn executor_churn(scale: f64) -> Component {
    let start = Instant::now();
    let mut sim = Sim::new(0xC0DE);
    let ctx = sim.ctx();
    let tasks = 600usize;
    let rounds = ((400.0 * scale) as u32).max(10);
    for t in 0..tasks {
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            for r in 0..rounds {
                // Staggered micro-sleeps: adjacent tasks collide on many
                // instants, exercising same-tick ordering.
                let d = Duration::from_nanos(500 + ((t as u64 * 37 + u64::from(r)) % 2000));
                ctx2.sleep(d).await;
            }
        });
    }
    sim.run();
    let mut fp = mix(0, sim.now().as_nanos() as u64);
    fp = mix(fp, tasks as u64);
    Component {
        name: "executor_churn",
        wall: start.elapsed(),
        polls: sim.poll_count(),
        peak_timers: sim.peak_timers(),
        fingerprint: fp,
        alloc: Vec::new(),
    }
}

/// Executor at its design scale: tens of thousands of *concurrent* timers.
///
/// `executor_churn` keeps ~600 timers pending — small enough that a flat
/// binary heap is competitive. Long-horizon simulations (the paper's §6
/// experiments run minutes of virtual time at hundreds of requests per
/// second) hold tens of thousands of in-flight deadlines, where per-entry
/// heap depth and allocation start to dominate; this component pins that
/// regime.
fn executor_timer_stress(scale: f64) -> Component {
    let start = Instant::now();
    let mut sim = Sim::new(0x71AE);
    let ctx = sim.ctx();
    let tasks = 60_000usize;
    let rounds = ((4.0 * scale) as u32).max(1);
    for t in 0..tasks {
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            for r in 0..rounds {
                // Deadlines spread over ~3 s of virtual time keep the
                // pending set ~60 k deep for the whole run.
                let ns = 1_000
                    + ((t as u64)
                        .wrapping_mul(2_654_435_761)
                        .wrapping_add(u64::from(r) * 97)
                        % 3_000_000_000);
                ctx2.sleep(Duration::from_nanos(ns)).await;
            }
        });
    }
    sim.run();
    let mut fp = mix(0, sim.now().as_nanos() as u64);
    fp = mix(fp, tasks as u64);
    fp = mix(fp, u64::from(rounds));
    Component {
        name: "executor_timer_stress",
        wall: start.elapsed(),
        polls: sim.poll_count(),
        peak_timers: sim.peak_timers(),
        fingerprint: fp,
        alloc: Vec::new(),
    }
}

/// Garbage collection at its design scale: trims over a large multi-tag
/// log.
///
/// The paper's GC (§4.5) trims object and step streams that have grown to
/// ~10⁵ records between passes (minutes of virtual time at production
/// rates). Every record here carries eight tags, so reclaiming it requires
/// deciding when its *last* stream reference dies — the path where
/// per-record liveness bookkeeping (refcounts vs. cross-stream searches)
/// dominates wall time.
fn sharedlog_trim_stress(scale: f64) -> Component {
    let start = Instant::now();
    let mut sim = Sim::new(0x7213);
    let log: LogService<u64> = LogService::new(
        sim.ctx(),
        LatencyModel::uniform_test_model(),
        LogConfig::default(),
    );
    let l = log.clone();
    let records = ((96_000.0 * scale) as u64).max(1_000);
    sim.block_on(async move {
        let tags: Vec<Tag> = (0..8)
            .map(|i| Tag::new(TagKind::ObjectLog, 0x9100 + i))
            .collect();
        for i in 0..records {
            l.append(NodeId((i % 4) as u32), &tags[..], i).await;
        }
        // One GC pass: trim every stream to the head in turn. A record's
        // bytes must be reclaimed exactly when its eighth stream trims it.
        let head = l.head_seqnum();
        for (i, &t) in tags.iter().enumerate() {
            l.trim(NodeId((i % 4) as u32), t, head).await;
        }
    });
    let c = log.counters();
    let mut fp = mix(0, c.log_appends);
    fp = mix(fp, c.log_trims);
    fp = mix(fp, log.live_records() as u64);
    fp = mix(fp, log.current_bytes().to_bits());
    fp = mix(fp, sim.now().as_nanos() as u64);
    Component {
        name: "sharedlog_trim_stress",
        wall: start.elapsed(),
        polls: sim.poll_count(),
        peak_timers: sim.peak_timers(),
        fingerprint: fp,
        alloc: Vec::new(),
    }
}

/// Sequencer saturation sweep: the same concurrent append load pushed
/// through 1/2/4/8 shards, each shard's sequencer capped at a fixed
/// ordering capacity. One shard saturates (sustained throughput pins at
/// the cap); adding shards moves the knee, so sustainable throughput must
/// climb strictly from 1 to 4 shards — asserted here, so the bench itself
/// is the regression test for the sharded topology's scaling.
fn sharedlog_shard_sweep(scale: f64) -> Component {
    let start = Instant::now();
    // 4 000 appends/s of ordering capacity per shard; 64 writers driving
    // ~64 tags offer far more than one lane can order.
    let capacity = 4_000.0;
    let writers = 64u64;
    let per_writer = (((12_000.0 * scale) as u64).max(1_024) / writers).max(4);
    let mut fp = 0u64;
    let mut polls = 0u64;
    let mut peak_timers = 0usize;
    let mut throughput = Vec::new();
    for &shards in &[1u8, 2, 4, 8] {
        let mut sim = Sim::new(0x5EED);
        let log: LogService<u64> = LogService::new(
            sim.ctx(),
            LatencyModel::uniform_test_model(),
            LogConfig {
                topology: hm_sharedlog::Topology::sharded(shards),
                sequencer_capacity: Some(capacity),
                ..LogConfig::default()
            },
        );
        let ctx = sim.ctx();
        for w in 0..writers {
            let l = log.clone();
            ctx.spawn(async move {
                let tag = Tag::new(TagKind::ObjectLog, 0x7000 + w);
                for i in 0..per_writer {
                    l.append(NodeId((w % 8) as u32), [tag], i).await;
                }
            });
        }
        sim.run();
        let appends = log.counters().log_appends;
        assert_eq!(appends, writers * per_writer);
        let tput = appends as f64 / sim.now().as_secs_f64();
        throughput.push(tput);
        fp = mix(fp, u64::from(shards));
        fp = mix(fp, appends);
        fp = mix(fp, sim.now().as_nanos() as u64);
        fp = mix(fp, tput.to_bits());
        for lane in log.shard_appends() {
            fp = mix(fp, lane);
        }
        polls += sim.poll_count();
        peak_timers = peak_timers.max(sim.peak_timers());
    }
    eprintln!(
        "shard sweep sustainable appends/s: 1={:.0} 2={:.0} 4={:.0} 8={:.0}",
        throughput[0], throughput[1], throughput[2], throughput[3]
    );
    assert!(
        throughput[2] > throughput[0],
        "4 shards must sustain strictly more appends/s than 1: {throughput:?}"
    );
    Component {
        name: "sharedlog_shard_sweep",
        wall: start.elapsed(),
        polls,
        peak_timers,
        fingerprint: fp,
        alloc: Vec::new(),
    }
}

/// Group-commit sweep: the same saturating concurrent append load pushed
/// through one capacity-limited sequencer at batch sizes 1/4/16/64. At
/// batch 1 every append pays its own ordering decision, so throughput pins
/// at the lane capacity; group commit amortizes the decision across the
/// batch and moves the knee up. The ≥ 1.5× throughput gain at batch 16 is
/// asserted here, so the bench is its own regression test (EXPERIMENTS.md
/// tabulates the sweep).
fn append_batching(scale: f64) -> Component {
    let start = Instant::now();
    // Same lane capacity and writer pool as the shard sweep: 4 000
    // ordering decisions/s, 64 closed-loop writers — well past the
    // unbatched saturation knee.
    let capacity = 4_000.0;
    let writers = 64u64;
    let per_writer = (((12_000.0 * scale) as u64).max(1_024) / writers).max(4);
    let mut fp = 0u64;
    let mut polls = 0u64;
    let mut peak_timers = 0usize;
    let mut throughput = Vec::new();
    for &batch in &[1usize, 4, 16, 64] {
        let mut sim = Sim::new(0xBA7C);
        let log: LogService<u64> = LogService::new(
            sim.ctx(),
            LatencyModel::uniform_test_model(),
            LogConfig {
                sequencer_capacity: Some(capacity),
                batch_max_records: batch,
                ..LogConfig::default()
            },
        );
        let ctx = sim.ctx();
        for w in 0..writers {
            let l = log.clone();
            ctx.spawn(async move {
                let tag = Tag::new(TagKind::ObjectLog, 0x8000 + w);
                for i in 0..per_writer {
                    l.append(NodeId((w % 8) as u32), [tag], i).await;
                }
            });
        }
        sim.run();
        let appends = log.counters().log_appends;
        assert_eq!(appends, writers * per_writer);
        let tput = appends as f64 / sim.now().as_secs_f64();
        throughput.push(tput);
        let flush = log.flush_stats();
        if batch > 1 {
            assert_eq!(flush.records, appends, "every append must pass through a flush");
        }
        fp = mix(fp, batch as u64);
        fp = mix(fp, appends);
        fp = mix(fp, sim.now().as_nanos() as u64);
        fp = mix(fp, tput.to_bits());
        fp = mix(fp, flush.flushes);
        fp = mix(fp, flush.size_trigger);
        fp = mix(fp, flush.deadline_trigger);
        polls += sim.poll_count();
        peak_timers = peak_timers.max(sim.peak_timers());
    }
    eprintln!(
        "append batching sustainable appends/s: b1={:.0} b4={:.0} b16={:.0} b64={:.0}",
        throughput[0], throughput[1], throughput[2], throughput[3]
    );
    assert!(
        throughput[2] >= 1.5 * throughput[0],
        "batch 16 must beat batch 1 by >= 1.5x at the saturation knee: {throughput:?}"
    );
    Component {
        name: "append_batching",
        wall: start.elapsed(),
        polls,
        peak_timers,
        fingerprint: fp,
        alloc: Vec::new(),
    }
}

/// Raw shared-log traffic: appends, conditional appends, stream reads, and
/// trims against many tags — the log's index/refcount/caching hot paths
/// without protocol logic on top.
fn sharedlog_ops(scale: f64) -> Component {
    let start = Instant::now();
    let mut sim = Sim::new(0x10C);
    let log: LogService<u64> = LogService::new(
        sim.ctx(),
        LatencyModel::uniform_test_model(),
        LogConfig::default(),
    );
    let l = log.clone();
    let ops = ((6_000.0 * scale) as u64).max(200);
    sim.block_on(async move {
        let tags: Vec<Tag> = (0..64)
            .map(|i| Tag::new(TagKind::ObjectLog, 0x5000 + i))
            .collect();
        for i in 0..ops {
            let node = NodeId((i % 8) as u32);
            let t1 = tags[(i % 64) as usize];
            let t2 = tags[((i * 7 + 3) % 64) as usize];
            if t1 == t2 {
                l.append(node, [t1], i).await;
            } else {
                l.append(node, [t1, t2], i).await;
            }
            if i % 3 == 0 {
                l.read_prev(node, t1, hm_common::SeqNum::MAX).await;
            }
            if i % 5 == 0 {
                l.read_next(NodeId(((i + 1) % 8) as u32), t2, hm_common::SeqNum(1))
                    .await;
            }
            if i % 64 == 63 {
                let upto = l.head_seqnum();
                l.trim(node, tags[((i / 64) % 64) as usize], upto).await;
            }
        }
    });
    let c = log.counters();
    let mut fp = mix(0, c.log_appends);
    fp = mix(fp, c.log_reads);
    fp = mix(fp, c.log_trims);
    fp = mix(fp, log.live_records() as u64);
    fp = mix(fp, log.current_bytes().to_bits());
    fp = mix(fp, sim.now().as_nanos() as u64);
    Component {
        name: "sharedlog_ops",
        wall: start.elapsed(),
        polls: sim.poll_count(),
        peak_timers: sim.peak_timers(),
        fingerprint: fp,
        alloc: Vec::new(),
    }
}

/// Full-stack application run (the paper's synthetic mixed workload).
fn app(name: &'static str, kind: ProtocolKind, scale: f64, travel: bool) -> Component {
    app_inner(name, kind, scale, travel, None)
}

fn app_inner(
    name: &'static str,
    kind: ProtocolKind,
    scale: f64,
    travel: bool,
    tracer: Option<Rc<Tracer>>,
) -> Component {
    let start = Instant::now();
    let params = AppRun {
        seed: 0xA11,
        kind,
        rate: 250.0,
        duration: Duration::from_secs_f64(12.0 * scale),
        warmup: Duration::from_secs_f64(1.0 * scale),
        rt_config: RuntimeConfig::default(),
        gc_interval: Some(Duration::from_secs(1)),
    };
    let synthetic = SyntheticOps {
        objects: 1_000,
        ..SyntheticOps::default()
    };
    let travel_wl = Travel { hotels: 40, users: 60 };
    let workload: &dyn hm_workloads::Workload = if travel { &travel_wl } else { &synthetic };
    let out = match tracer {
        Some(tracer) => run_app_traced(workload, &params, tracer),
        None => run_app(workload, &params),
    };
    let mut fp = mix(0, out.report.completed);
    fp = mix(fp, out.report.generated);
    fp = mix(fp, out.report.errors);
    fp = mix(fp, out.log_appends);
    fp = mix(fp, out.avg_log_bytes.to_bits());
    fp = mix(
        fp,
        out.report.latency.median_ms().unwrap_or(0.0).to_bits(),
    );
    Component {
        name,
        wall: start.elapsed(),
        polls: 0, // the Sim is consumed inside run_app
        peak_timers: out.peak_timers,
        fingerprint: fp,
        alloc: Vec::new(),
    }
}

/// §7 recovery-cost f-sweep: the three fault-tolerant protocols under a
/// per-attempt Bernoulli crash process, failure rates 0 → 50 %.
///
/// For each (protocol, f) cell a short synthetic run executes with
/// `FaultPolicy::per_attempt(f, ..)` installed through the fault plan; the
/// §5 recovery meters (`Client::recovery_stats`) and the median request
/// latency land in the fingerprint, and the cell latencies are printed as
/// the f-sweep table. Shape assertions encode the paper's claim: at f = 0
/// Halfmoon-read beats the symmetric baseline outright (fewer appends),
/// and every protocol's latency degrades as f grows — the curves converge
/// toward a crossover as re-execution work mounts (§7: boundary f ≈ 0.3).
fn recovery_cost(scale: f64) -> Component {
    use halfmoon::{Client, FaultPolicy};
    use hm_runtime::{Gateway, LoadSpec, Runtime};
    use hm_workloads::Workload;

    let start = Instant::now();
    let systems = [
        ProtocolKind::Boki,
        ProtocolKind::HalfmoonRead,
        ProtocolKind::HalfmoonWrite,
    ];
    let failure_rates = [0.0, 0.25, 0.5];
    let workload = SyntheticOps {
        objects: 500,
        read_ratio: 0.5,
        ..SyntheticOps::default()
    };
    let mut fp = 0u64;
    let mut polls = 0u64;
    let mut peak_timers = 0usize;
    let mut medians: Vec<Vec<f64>> = Vec::new();
    let mut replayed_per_req: Vec<Vec<f64>> = Vec::new();
    for kind in systems {
        let mut row = Vec::new();
        let mut replay_row = Vec::new();
        for &f in &failure_rates {
            let mut sim = Sim::new(0x5c0_7e44 + (f * 100.0) as u64);
            let mut builder = Client::builder(sim.ctx()).protocol(kind);
            if f > 0.0 {
                // ~30 crash points per synthetic execution (§7's Bernoulli
                // process); uncapped so the rate holds for the whole run.
                builder = builder.faults(FaultPolicy::per_attempt(f, 30, u32::MAX));
            }
            let client = builder.build();
            workload.populate(&client);
            let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
            workload.register(&runtime);
            let gateway = Gateway::new(runtime.clone());
            let spec = LoadSpec {
                rate_per_sec: 150.0,
                duration: Duration::from_secs_f64(6.0 * scale),
                warmup: Duration::from_secs_f64(0.5 * scale),
                factory: workload.factory(),
            };
            let report = sim.block_on(async move { gateway.run_open_loop(spec).await });
            let recovery = client.recovery_stats();
            let median = report.latency.median_ms().unwrap_or(f64::NAN);
            row.push(median);
            replay_row.push(recovery.replayed_records as f64 / report.completed.max(1) as f64);
            fp = mix(fp, kind as u64);
            fp = mix(fp, (f * 100.0) as u64);
            fp = mix(fp, report.completed);
            fp = mix(fp, runtime.retries());
            fp = mix(fp, recovery.attempts);
            fp = mix(fp, recovery.replayed_records);
            fp = mix(fp, recovery.log_reads);
            fp = mix(fp, median.to_bits());
            polls += sim.poll_count();
            peak_timers = peak_timers.max(sim.peak_timers());
        }
        medians.push(row);
        replayed_per_req.push(replay_row);
    }
    for (kind, (row, replays)) in systems.iter().zip(medians.iter().zip(&replayed_per_req)) {
        eprintln!(
            "recovery sweep {:<14} median ms @ f={:?}: {:?}  (replayed records/req: {:?})",
            kind.label(),
            failure_rates,
            row.iter().map(|v| (v * 100.0).round() / 100.0).collect::<Vec<_>>(),
            replays.iter().map(|v| (v * 100.0).round() / 100.0).collect::<Vec<_>>()
        );
    }
    let (boki, hm_read) = (&medians[0], &medians[1]);
    assert!(
        hm_read[0] < boki[0],
        "failure-free Halfmoon-read must beat the symmetric baseline: {hm_read:?} vs {boki:?}"
    );
    for (kind, row) in systems.iter().zip(&medians) {
        assert!(
            row[failure_rates.len() - 1] > row[0],
            "{kind:?}: latency must degrade as f grows: {row:?}"
        );
    }
    Component {
        name: "recovery_cost",
        wall: start.elapsed(),
        polls,
        peak_timers,
        fingerprint: fp,
        alloc: Vec::new(),
    }
}

/// Zero-copy hot-path oracle: batched appends of read-log `StepRecord`s
/// (the §6.3 hot path — records carrying whole read values) followed by a
/// §5-style replay that adopts every logged op, with the process-global
/// allocation counters bracketed around each phase.
///
/// Two phases, each reporting allocations/op and bytes/op into the JSON
/// (`scripts/verify.sh` holds them against `scripts/alloc_budget.json`):
///
/// - **append**: 32 closed-loop writers push value-carrying records through
///   the group-commit batcher (batch 16). Each op clones a per-writer
///   template value into its record — the client-owns-value →
///   record-owns-value handoff — then pays batching, install, and storage
///   accounting.
/// - **replay**: every writer's stream is replayed (`replay_stream`) and
///   each record's op is cloned out of the shared record, exactly what
///   `env.rs` adoption does during recovery, plus a point-read loop over
///   the per-node caches.
///
/// The fingerprint pins the *simulated* results (counters, bytes, virtual
/// time, a content checksum over replayed values) and is representation-
/// independent; the allocation rates are the measurement.
fn hot_path_alloc(scale: f64) -> Component {
    use halfmoon::record::{OpRecord, StepRecord};
    use hm_common::{InstanceId, SeqNum, StepNum, Value};

    let start = Instant::now();
    let mut sim = Sim::new(0xA110C);
    let log: LogService<StepRecord> = LogService::new(
        sim.ctx(),
        LatencyModel::uniform_test_model(),
        LogConfig {
            batch_max_records: 16,
            ..LogConfig::default()
        },
    );
    let writers = 32u64;
    let per_writer = (((8_000.0 * scale) as u64) / writers).max(8);
    let append_ops = writers * per_writer;
    let ctx = sim.ctx();

    // Warmup storm over disjoint tags: fills the executor's waker pool and
    // the batcher's batch/outcome/gate arenas, grows the task and record
    // slabs, and warms the per-node caches so the bracketed phases below
    // measure steady state instead of one-time arena construction. Warmup
    // records live on their own tags so the measured replay still observes
    // exactly `append_ops` records.
    let warm_per_writer = 16u64;
    for w in 0..writers {
        let l = log.clone();
        ctx.spawn(async move {
            let tag = Tag::new(TagKind::ObjectLog, 0xA0D0 + w);
            let template = Value::str(format!("warm-value-{w:>03}-").repeat(6));
            for i in 0..warm_per_writer {
                let payload = StepRecord {
                    instance: InstanceId(u128::from(0x1000 + w)),
                    step: StepNum(i as u32),
                    op: OpRecord::Read {
                        data: template.clone(),
                    },
                };
                l.append(NodeId((w % 8) as u32), [tag], payload).await;
            }
        });
    }
    sim.run();
    let lw = log.clone();
    sim.block_on(async move {
        for w in 0..writers {
            let tag = Tag::new(TagKind::ObjectLog, 0xA0D0 + w);
            let (records, _stats) = lw.replay_stream(NodeId((w % 8) as u32), tag).await;
            assert_eq!(records.len() as u64, warm_per_writer);
            let _ = lw
                .read_prev(NodeId(((w + 3) % 8) as u32), tag, SeqNum::MAX)
                .await;
        }
    });

    for w in 0..writers {
        let l = log.clone();
        ctx.spawn(async move {
            let tag = Tag::new(TagKind::ObjectLog, 0xA110 + w);
            // The value a read-log record carries: ~100 B, like the
            // serialized row images in the paper's storage experiments.
            let template = Value::str(format!("read-value-{w:>03}-").repeat(6));
            for i in 0..per_writer {
                let payload = StepRecord {
                    instance: InstanceId(u128::from(w)),
                    step: StepNum(i as u32),
                    op: OpRecord::Read {
                        data: template.clone(),
                    },
                };
                l.append(NodeId((w % 8) as u32), [tag], payload).await;
            }
        });
    }
    let before_append = AllocSnapshot::take();
    sim.run();
    let append_delta = AllocSnapshot::take().since(&before_append);

    // Replay phase: force-flush + full stream replay per writer tag, op
    // adoption per record, then a point-read loop over warm caches.
    let l = log.clone();
    let point_reads = (append_ops / 2).max(64);
    let before_replay = AllocSnapshot::take();
    let (checksum, replayed) = sim.block_on(async move {
        let mut checksum = 0u64;
        let mut replayed = 0u64;
        for w in 0..writers {
            let tag = Tag::new(TagKind::ObjectLog, 0xA110 + w);
            let (records, _stats) = l.replay_stream(NodeId((w % 8) as u32), tag).await;
            for rec in &records {
                // Recovery adoption: the replayer takes its own handle on
                // the logged op (env.rs does exactly this per record).
                let op = rec.payload.op.clone();
                if let OpRecord::Read { data } = &op {
                    checksum = mix(checksum, data.fingerprint());
                }
                replayed += 1;
            }
        }
        for i in 0..point_reads {
            let w = i % writers;
            let tag = Tag::new(TagKind::ObjectLog, 0xA110 + w);
            let rec = l
                .read_prev(NodeId(((i + 3) % 8) as u32), tag, SeqNum::MAX)
                .await;
            if let Some(rec) = rec {
                checksum = mix(checksum, rec.payload.size_bytes() as u64);
            }
        }
        (checksum, replayed)
    });
    let replay_delta = AllocSnapshot::take().since(&before_replay);
    let replay_ops = replayed + point_reads;

    assert_eq!(replayed, append_ops, "replay must observe every append");
    let c = log.counters();
    let mut fp = mix(0, c.log_appends);
    fp = mix(fp, c.log_reads);
    fp = mix(fp, log.live_records() as u64);
    fp = mix(fp, log.current_bytes().to_bits());
    fp = mix(fp, checksum);
    fp = mix(fp, log.flush_stats().flushes);
    fp = mix(fp, sim.now().as_nanos() as u64);
    let append_rate = AllocRate::per_op(append_delta, append_ops);
    let replay_rate = AllocRate::per_op(replay_delta, replay_ops);
    let fs = log.flush_stats();
    eprintln!(
        "hot path alloc: append {:.2} allocs/op {:.0} B/op ({} ops), \
         replay {:.2} allocs/op {:.0} B/op ({} ops), \
         {} flushes ({:.1} rec/flush, {} size / {} deadline)",
        append_rate.allocs_per_op,
        append_rate.bytes_per_op,
        append_ops,
        replay_rate.allocs_per_op,
        replay_rate.bytes_per_op,
        replay_ops,
        fs.flushes,
        fs.records as f64 / fs.flushes.max(1) as f64,
        fs.size_trigger,
        fs.deadline_trigger,
    );
    Component {
        name: "hot_path_alloc",
        wall: start.elapsed(),
        polls: sim.poll_count(),
        peak_timers: sim.peak_timers(),
        fingerprint: fp,
        alloc: vec![
            AllocPhase {
                name: "append",
                ops: append_ops,
                rate: append_rate,
            },
            AllocPhase {
                name: "replay",
                ops: replay_ops,
                rate: replay_rate,
            },
        ],
    }
}

/// Phase-attributed tail-latency decomposition at three open-loop rates
/// straddling the admission knee.
///
/// The sequencer's ordering capacity is expressed in *request* terms: a
/// short uncontended probe measures appends per completed request, and the
/// capacity is set to `4 000 req/s × appends/req` so the pipeline knees at
/// 4 000 requests/s. Each load point (0.5×, 1×, 1.5× the knee) then runs
/// with an [`Anatomy`](hm_common::anatomy::Anatomy) collector attached and reports the per-phase
/// p50/p95/p99 waterfall into the JSON (`scripts/latency_report` renders it
/// and re-asserts reconciliation).
///
/// Three properties are asserted here, so the bench is its own regression
/// test:
/// - **observer neutrality**: the knee point re-run *without* anatomy does
///   bit-identical simulated work (same report fingerprint, same poll
///   count);
/// - **reconciliation**: per-op `|sum(phases) − e2e|/e2e ≤ 1 %` and the
///   aggregate phase totals sum to the aggregate e2e total within 1 %
///   (exact equality is expected — the phase clock partitions wall time);
/// - **the knee is where the time goes**: mean admission residency per op
///   grows from the below-knee point to the above-knee point. (The root
///   cause is the sequencer's ordering capacity, but once per-request
///   latency inflates, the worker pool fills and the backlog queues
///   *upstream* at admission — exactly the attribution the waterfall is
///   meant to surface.)
fn latency_anatomy(scale: f64) -> (Component, String) {
    use halfmoon::Client;
    use hm_common::anatomy::Anatomy;
    use hm_runtime::{Gateway, LoadReport, LoadSpec, Runtime};
    use hm_workloads::Workload;

    let start = Instant::now();
    let knee_rate = 4_000.0f64;
    let workload = SyntheticOps {
        objects: 1_000,
        ..SyntheticOps::default()
    };
    let run_point = |rate: f64,
                     secs: f64,
                     capacity: Option<f64>,
                     anatomy: Option<Rc<Anatomy>>|
     -> (LoadReport, u64, usize) {
        let mut sim = Sim::new(0x1A7E);
        let mut builder = Client::builder(sim.ctx())
            .model(LatencyModel::calibrated())
            .protocol(ProtocolKind::HalfmoonRead);
        if let Some(c) = capacity {
            builder = builder.sequencer_capacity(c);
        }
        if let Some(a) = anatomy {
            builder = builder.anatomy(a);
        }
        let client = builder.build();
        workload.populate(&client);
        let runtime = Runtime::new(client, RuntimeConfig::default());
        workload.register(&runtime);
        let gateway = Gateway::new(runtime);
        let spec = LoadSpec {
            rate_per_sec: rate,
            duration: Duration::from_secs_f64(secs),
            warmup: Duration::from_secs_f64(0.25 * secs),
            factory: workload.factory(),
        };
        let report = sim.block_on(async move { gateway.run_open_loop(spec).await });
        (report, sim.poll_count(), sim.peak_timers())
    };
    let report_fp = |r: &LoadReport| {
        let mut f = mix(0, r.generated);
        f = mix(f, r.completed);
        f = mix(f, r.errors);
        f = mix(f, r.latency.median_ms().unwrap_or(0.0).to_bits());
        for &a in &r.per_shard_appends {
            f = mix(f, a);
        }
        f
    };

    // Probe: appends per completed request at an uncontended rate.
    let (probe, probe_polls, mut peak_timers) = run_point(300.0, (1.0 * scale).max(0.3), None, None);
    let probe_appends: u64 = probe.per_shard_appends.iter().sum();
    let appends_per_req = probe_appends as f64 / probe.completed.max(1) as f64;
    let capacity = knee_rate * appends_per_req;

    let mut fp = mix(0, appends_per_req.to_bits());
    let mut polls = probe_polls;
    let secs = (2.0 * scale).max(0.4);
    let mut points_json: Vec<String> = Vec::new();
    // Mean admission residency per completed op at each load point, for
    // the knee-shape assertion.
    let mut admission_mean_ns: Vec<f64> = Vec::new();
    let mut summaries: Vec<String> = Vec::new();
    for &ratio in &[0.5f64, 1.0, 1.5] {
        let rate = knee_rate * ratio;
        let anatomy = Anatomy::new();
        let (report, pt_polls, pt_timers) =
            run_point(rate, secs, Some(capacity), Some(anatomy.clone()));
        polls += pt_polls;
        peak_timers = peak_timers.max(pt_timers);
        if (ratio - 1.0).abs() < f64::EPSILON {
            // Observer neutrality: the same point without anatomy must do
            // bit-identical simulated work on the same schedule.
            let (plain, plain_polls, _) = run_point(rate, secs, Some(capacity), None);
            assert_eq!(
                report_fp(&plain),
                report_fp(&report),
                "anatomy perturbed the simulation at the knee point"
            );
            assert_eq!(
                plain_polls, pt_polls,
                "anatomy changed the executor schedule at the knee point"
            );
            polls += plain_polls;
        }
        let ops = anatomy.ops();
        assert!(ops > 0, "load point {rate} completed no measured ops");
        assert_eq!(
            ops, report.completed,
            "anatomy must fold exactly the measured completions"
        );
        let rel_err = anatomy.max_rel_err();
        assert!(
            rel_err <= 0.01,
            "per-op phase sums must reconcile with e2e within 1%: {rel_err}"
        );
        let phase_sum: u128 = anatomy.phase_totals_ns().iter().sum();
        let e2e_total = anatomy.e2e_total_ns();
        let agg_err = (phase_sum as f64 - e2e_total as f64).abs() / e2e_total.max(1) as f64;
        assert!(
            agg_err <= 0.01,
            "aggregate phase totals must reconcile with e2e within 1%: {agg_err}"
        );
        let e2e = anatomy.e2e_stat().expect("ops > 0");
        let stat_json = |count: u64, p50: u64, p95: u64, p99: u64, total: u128| {
            format!(
                "{{\"count\": {count}, \"p50_ns\": {p50}, \"p95_ns\": {p95}, \
                 \"p99_ns\": {p99}, \"total_ns\": {total}}}"
            )
        };
        let mut phases = String::new();
        let mut admission_total = 0u128;
        for s in anatomy.waterfall() {
            let p = s.phase.expect("waterfall rows are per-phase");
            if !phases.is_empty() {
                phases.push_str(", ");
            }
            phases.push_str(&format!(
                "\"{}\": {}",
                p.name(),
                stat_json(s.count, s.p50_ns, s.p95_ns, s.p99_ns, s.total_ns)
            ));
            if p == hm_common::anatomy::Phase::Admission {
                admission_total = s.total_ns;
            }
            fp = mix(fp, s.count);
            fp = mix(fp, s.total_ns as u64);
            fp = mix(fp, (s.total_ns >> 64) as u64);
        }
        admission_mean_ns.push(admission_total as f64 / ops as f64);
        points_json.push(format!(
            "{{\"rate_per_sec\": {rate}, \"generated\": {}, \"completed\": {}, \
             \"errors\": {}, \"max_rel_err\": {rel_err}, \"e2e\": {}, \"phases\": {{{phases}}}}}",
            report.generated,
            report.completed,
            report.errors,
            stat_json(e2e.count, e2e.p50_ns, e2e.p95_ns, e2e.p99_ns, e2e.total_ns),
        ));
        summaries.push(format!(
            "{rate:.0}/s: {} ops, e2e p50={:.2} ms p99={:.2} ms, admission mean {:.2} ms",
            ops,
            e2e.p50_ns as f64 / 1e6,
            e2e.p99_ns as f64 / 1e6,
            admission_mean_ns.last().unwrap() / 1e6,
        ));
        fp = mix(fp, rate as u64);
        fp = mix(fp, report.generated);
        fp = mix(fp, report.completed);
        fp = mix(fp, report.errors);
        fp = mix(fp, e2e.total_ns as u64);
        fp = mix(fp, (e2e.total_ns >> 64) as u64);
    }
    for line in &summaries {
        eprintln!("latency anatomy {line}");
    }
    assert!(
        admission_mean_ns[2] > admission_mean_ns[0],
        "admission residency must grow across the knee: {admission_mean_ns:?}"
    );
    let json = format!(
        "{{\"knee_rate_per_sec\": {knee_rate}, \"appends_per_request\": {appends_per_req}, \
         \"sequencer_capacity_per_sec\": {capacity}, \"points\": [{}]}}",
        points_json.join(", ")
    );
    (
        Component {
            name: "latency_anatomy",
            wall: start.elapsed(),
            polls,
            peak_timers,
            fingerprint: fp,
            alloc: Vec::new(),
        },
        json,
    )
}

/// Core scaling: the same multi-tenant deployment driven as a partitioned
/// fan-out at 1/2/4/8 worker threads.
///
/// Sixteen tenant slices — each a complete single-shard deployment with
/// its own log service and writer pool, tenant `t` pinned to partition
/// `t % 8` — run as eight independent `Sim`s. The per-partition results
/// are asserted byte-identical across every worker count (the fan-out's
/// determinism contract: workers change wall time, never results), and
/// the wall time per worker count is reported alongside the host's core
/// count. The fan-out never uses more threads than cores, so on a
/// single-core host every row is the sequential run — `cores` in the JSON
/// says which regime the numbers came from, and `scripts/verify.sh` only
/// asserts a speedup when the host can physically provide one.
fn parallel_scaling(scale: f64) -> (Component, String) {
    let start = Instant::now();
    let partitions = 8usize;
    let tenants = 16usize;
    let writers = 8u64;
    let per_writer = (((1_500.0 * scale) as u64).max(256) / writers).max(4);
    let capacity = 4_000.0;

    let mut fps = Vec::new();
    let mut walls = Vec::new();
    for &workers in &[1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let runner = Runner::new(0x5CA1E, workers);
        let results = runner.run_partitions(partitions, |p: Partition| -> PartitionFuture<Vec<u64>> {
            let ctx = p.ctx();
            let hosted = (p.index()..tenants).step_by(partitions);
            Box::pin(async move {
                // One complete deployment slice per hosted tenant: its own
                // single-shard log and closed-loop writer pool, tag space
                // keyed by tenant id so slices never alias.
                let mut out = Vec::new();
                for tenant in hosted {
                    let log: LogService<u64> = LogService::new(
                        ctx.clone(),
                        LatencyModel::uniform_test_model(),
                        LogConfig {
                            sequencer_capacity: Some(capacity),
                            ..LogConfig::default()
                        },
                    );
                    let mut handles = Vec::new();
                    for w in 0..writers {
                        let l = log.clone();
                        handles.push(ctx.spawn(async move {
                            let tag = Tag::new(TagKind::ObjectLog, (tenant as u64) << 16 | w);
                            for i in 0..per_writer {
                                l.append(NodeId((w % 8) as u32), [tag], i).await;
                            }
                        }));
                    }
                    for h in handles {
                        h.await;
                    }
                    out.push(tenant as u64);
                    out.push(log.counters().log_appends);
                    out.push(ctx.now().as_nanos() as u64);
                }
                out
            })
        });
        walls.push(t0.elapsed());
        let mut fp = 0u64;
        for per_partition in &results {
            for &v in per_partition {
                fp = mix(fp, v);
            }
        }
        fps.push(fp);
    }
    assert!(
        fps.iter().all(|&f| f == fps[0]),
        "worker count changed simulated results: {fps:?}"
    );

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let speedup_4w = walls[0].as_secs_f64() / walls[2].as_secs_f64().max(f64::MIN_POSITIVE);
    eprintln!(
        "parallel scaling wall ms ({cores} cores): 1w={:.1} 2w={:.1} 4w={:.1} 8w={:.1} (4w speedup {speedup_4w:.2}x)",
        walls[0].as_secs_f64() * 1e3,
        walls[1].as_secs_f64() * 1e3,
        walls[2].as_secs_f64() * 1e3,
        walls[3].as_secs_f64() * 1e3,
    );

    let mut json = String::new();
    json.push('{');
    let _ = write!(
        json,
        "\"partitions\": {partitions}, \"tenants\": {tenants}, \"cores\": {cores}"
    );
    for (label, wall) in [("workers_1", walls[0]), ("workers_2", walls[1]), ("workers_4", walls[2]), ("workers_8", walls[3])] {
        let _ = write!(json, ", \"{label}_wall_ms\": {:.3}", wall.as_secs_f64() * 1e3);
    }
    let _ = write!(json, ", \"speedup_4w\": {speedup_4w:.3}}}");

    (
        Component {
            name: "parallel_scaling",
            wall: start.elapsed(),
            // Partition executors live on worker threads; their poll
            // counters are not observable through the public surface.
            polls: 0,
            peak_timers: 0,
            fingerprint: fps[0],
            alloc: Vec::new(),
        },
        json,
    )
}

/// Systematic model checking (DESIGN.md §18): exhausts every schedule ×
/// crash placement of the smallest 2-node configuration for all four
/// protocols, plus the unsafe baseline's counterexample configuration and
/// the sleep-set headline configuration, timing the enumerations.
///
/// Coverage, not duration, is the workload, so `scale` does not apply:
/// the explored trees are fixed-size and the per-cell run/node counts are
/// exact — they land in the fingerprint, pinning the checker's coverage
/// the way op counters pin the other components' simulated work. Three
/// §4.4 claims are asserted here, so the bench is its own regression
/// test: the fault-tolerant protocols exhaust their trees with zero
/// violations, the unsafe baseline yields a replayable `ww-1s`
/// counterexample, and pruning removes ≥ 50 % of the naive interleavings
/// on the Halfmoon-read `xy-1s` row.
fn model_check() -> (Component, String) {
    use hm_runtime::mc::{explore_config, run_schedule, standard_configs, McConfig};

    let start = Instant::now();
    let fp = std::cell::Cell::new(0u64);
    let cells: std::cell::RefCell<Vec<String>> = std::cell::RefCell::new(Vec::new());
    let run_cell = |kind: ProtocolKind, cfg: &McConfig, naive: bool| {
        let t0 = Instant::now();
        let stats = explore_config(cfg, true, 1);
        let pruned_wall = t0.elapsed();
        let t0 = Instant::now();
        let naive_stats = naive.then(|| explore_config(cfg, false, 1));
        let naive_wall = t0.elapsed();
        assert!(stats.complete, "{kind:?} {} must exhaust its tree", cfg.name);
        for v in [
            kind as u64,
            stats.runs as u64,
            stats.aborted as u64,
            stats.nodes as u64,
            stats.slept as u64,
            stats.counterexamples.len() as u64,
        ] {
            fp.set(mix(fp.get(), v));
        }
        let naive_runs = naive_stats.as_ref().map_or(0, hm_substrate::explore::ExploreStats::executions);
        if let Some(n) = &naive_stats {
            fp.set(mix(fp.get(), n.runs as u64));
            fp.set(mix(fp.get(), n.counterexamples.len() as u64));
        }
        cells.borrow_mut().push(format!(
            "{{\"protocol\": \"{}\", \"config\": \"{}\", \"runs\": {}, \"aborted\": {}, \
             \"nodes\": {}, \"slept\": {}, \"naive_runs\": {naive_runs}, \
             \"counterexamples\": {}, \"wall_ms\": {:.3}, \"naive_wall_ms\": {:.3}}}",
            kind.label(),
            cfg.name,
            stats.runs,
            stats.aborted,
            stats.nodes,
            stats.slept,
            stats.counterexamples.len(),
            pruned_wall.as_secs_f64() * 1e3,
            naive_wall.as_secs_f64() * 1e3,
        ));
        stats
    };

    for kind in [
        ProtocolKind::Boki,
        ProtocolKind::HalfmoonRead,
        ProtocolKind::HalfmoonWrite,
    ] {
        let stats = run_cell(kind, &McConfig::minimal(kind), true);
        assert!(
            stats.counterexamples.is_empty(),
            "{kind:?} wr-1s violated the §4.4 propositions"
        );
    }
    // The unsafe baseline's §1 anomaly needs a crash point after a write
    // took effect: ww-1s is the smallest configuration exhibiting it.
    let unsafe_ww = standard_configs(ProtocolKind::Unsafe).remove(1);
    let stats = run_cell(ProtocolKind::Unsafe, &unsafe_ww, true);
    let cx = stats
        .counterexamples
        .first()
        .expect("the unsafe baseline must yield a ww-1s counterexample");
    let replay = run_schedule(&unsafe_ww, &cx.schedule);
    assert_eq!(
        replay.violations, cx.violations,
        "counterexample schedule did not reproduce its violation"
    );
    fp.set(mix(fp.get(), replay.events as u64));
    // Headline pruning row: disjoint keys under log-free reads.
    let headline = standard_configs(ProtocolKind::HalfmoonRead).remove(2);
    let stats = run_cell(ProtocolKind::HalfmoonRead, &headline, true);
    assert!(
        stats.counterexamples.is_empty(),
        "hm-read xy-1s violated the §4.4 propositions"
    );

    let json = format!("{{\"cells\": [{}]}}", cells.borrow().join(", "));
    (
        Component {
            name: "model_check",
            wall: start.elapsed(),
            // Each exploration run consumes its own Sim inside run_once.
            polls: 0,
            peak_timers: 0,
            fingerprint: fp.get(),
            alloc: Vec::new(),
        },
        json,
    )
}

fn json_escape_free(s: &str) -> &str {
    // All strings we emit are static identifiers; assert rather than escape.
    assert!(s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
    s
}

fn main() {
    let scale = hm_bench::scale();
    let out_path =
        std::env::var("HM_BENCH_OUT").unwrap_or_else(|_| "BENCH_sim_core.json".to_string());
    let opts = CommonOpts::from_env();
    opts.reject_shape_overrides("bench_sim_core");
    let trace_out = opts.trace_out;

    let mut components = vec![
        executor_churn(scale),
        executor_timer_stress(scale),
        sharedlog_ops(scale),
        sharedlog_trim_stress(scale),
        sharedlog_shard_sweep(scale),
        append_batching(scale),
        app("synthetic_halfmoon_read", ProtocolKind::HalfmoonRead, scale, false),
        app("synthetic_halfmoon_write", ProtocolKind::HalfmoonWrite, scale, false),
        app("travel_halfmoon_read", ProtocolKind::HalfmoonRead, scale, true),
        recovery_cost(scale),
        hot_path_alloc(scale),
    ];
    let (lat_component, lat_json) = latency_anatomy(scale);
    components.push(lat_component);
    let (par_component, par_json) = parallel_scaling(scale);
    components.push(par_component);
    let (mc_component, mc_json) = model_check();
    components.push(mc_component);

    if let Some(path) = &trace_out {
        // Same seed and parameters as the untraced synthetic Halfmoon-read
        // component; the tracer must not perturb the simulated work, so the
        // fingerprints must agree exactly. The wall-time delta between the
        // two components is the tracing overhead.
        let tracer = Tracer::new();
        let traced = app_inner(
            "synthetic_halfmoon_read_traced",
            ProtocolKind::HalfmoonRead,
            scale,
            false,
            Some(tracer.clone()),
        );
        let untraced = components
            .iter()
            .find(|c| c.name == "synthetic_halfmoon_read")
            .expect("untraced twin component");
        assert_eq!(
            traced.fingerprint, untraced.fingerprint,
            "tracing perturbed the simulation: traced and untraced runs diverged"
        );
        std::fs::write(path, tracer.export_chrome_json()).expect("write trace output");
        eprintln!(
            "wrote {path} ({} events recorded, {} dropped)",
            tracer.events_recorded(),
            tracer.events_dropped()
        );
        components.push(traced);
    }

    let total: Duration = components.iter().map(|c| c.wall).sum();
    let mut fp = 0u64;
    for c in &components {
        fp = mix(fp, c.fingerprint);
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"sim_core\",");
    let _ = writeln!(json, "  \"schema_version\": 6,");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"latency_anatomy\": {lat_json},");
    let _ = writeln!(json, "  \"parallel_scaling\": {par_json},");
    let _ = writeln!(json, "  \"model_check\": {mc_json},");
    let _ = writeln!(json, "  \"total_wall_ms\": {:.3},", total.as_secs_f64() * 1e3);
    let _ = writeln!(json, "  \"work_fingerprint\": \"{fp:016x}\",");
    json.push_str("  \"components\": [\n");
    for (i, c) in components.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"polls\": {}, \"peak_timers\": {}, \"fingerprint\": \"{:016x}\"",
            json_escape_free(c.name),
            c.wall.as_secs_f64() * 1e3,
            c.polls,
            c.peak_timers,
            c.fingerprint,
        );
        if !c.alloc.is_empty() {
            json.push_str(", \"alloc\": {");
            for (j, p) in c.alloc.iter().enumerate() {
                let _ = write!(
                    json,
                    "{}\"{}\": {{\"ops\": {}, \"allocs_per_op\": {:.3}, \"bytes_per_op\": {:.1}}}",
                    if j == 0 { "" } else { ", " },
                    json_escape_free(p.name),
                    p.ops,
                    p.rate.allocs_per_op,
                    p.rate.bytes_per_op,
                );
            }
            json.push('}');
        }
        let _ = writeln!(json, "}}{}", if i + 1 < components.len() { "," } else { "" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write bench output");
    println!("{json}");
    eprintln!("wrote {out_path} (total {:.1} ms)", total.as_secs_f64() * 1e3);
}
