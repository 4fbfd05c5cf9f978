//! The components of the `bench_sim_core` wall-clock macro-workload.
//!
//! Each component runs a fixed-seed piece of simulated work (executor
//! timer churn, raw shared-log traffic, full application workloads, the
//! §7 recovery figure, the admission-knee waterfall, Figure 12's cells
//! fanned out over threads, the model checker) and returns a [`Run`]: a
//! fingerprint of the simulated results plus the counts reported beside
//! its wall time.
//! Components assert the shapes they exist to show, so a run is its own
//! regression test.
//!
//! Determinism: every component runs from a pinned seed, and its
//! fingerprint is built from simulated-result metrics (op counters,
//! completion counts, virtual clock). Two builds that disagree on a
//! fingerprint did *different simulated work* and their wall times must
//! not be compared.
//!
//! `scale` multiplies workload durations; 1.0 is what the committed
//! `BENCH_sim_core.json` records.

use std::rc::Rc;
use std::time::{Duration, Instant};

use halfmoon::record::{OpRecord, StepRecord};
use halfmoon::ProtocolKind;
use hm_common::ids::TagKind;
use hm_common::latency::LatencyModel;
use hm_common::trace::Tracer;
use hm_common::{InstanceId, NodeId, SeqNum, StepNum, Tag, Value};
use hm_runtime::RuntimeConfig;
use hm_sharedlog::{LogConfig, LogService, Payload, Topology};
use hm_substrate::sim::Sim;
use hm_substrate::{Ctx, JoinHandle};
use hm_workloads::synthetic::SyntheticOps;
use hm_workloads::travel::Travel;

use crate::alloc::{AllocRate, AllocSnapshot};
use crate::{run_app, AppRun, AppRunOutput};

/// What one component did.
pub struct Run {
    /// Simulated-result fingerprint; must be identical across builds.
    pub fingerprint: u64,
    /// Future polls driven by the component's executors. 0 where no `Sim`
    /// is in reach: `app`, `recovery` and `parallel_scaling` leave theirs
    /// inside [`run_app`], and each model-checker run owns its own.
    pub polls: u64,
    /// Most timers any of the component's executors held pending at once
    /// (`Sim::peak_timers`): the depth the timer heap is sized against.
    /// 0 for `recovery`, `parallel_scaling` and `model_check`, as for
    /// `polls`.
    pub peak_timers: usize,
    /// Per-phase allocation rates (only `hot_path_alloc` reports these).
    /// Deliberately *not* part of the fingerprint: the fingerprint pins
    /// simulated work, while allocation counts are exactly what the
    /// zero-copy work is expected to change.
    pub alloc: Vec<AllocPhase>,
    /// A JSON object the report carries at its top level under the
    /// component's name.
    pub detail: Option<String>,
}

impl Run {
    fn new(fingerprint: u64) -> Run {
        Run {
            fingerprint,
            polls: 0,
            peak_timers: 0,
            alloc: Vec::new(),
            detail: None,
        }
    }

    /// `fingerprint`, with `sim`'s counts.
    fn of(sim: &Sim, fingerprint: u64) -> Run {
        let mut run = Run::new(fingerprint);
        run.count(sim);
        run
    }

    /// Adds one more executor's counts: polls sum, timer peaks max.
    fn count(&mut self, sim: &Sim) {
        self.polls += sim.poll_count();
        self.peak_timers = self.peak_timers.max(sim.peak_timers());
    }

    /// [`Run::count`] for an executor that [`run_app`] kept.
    fn count_app(&mut self, out: &AppRunOutput) {
        self.polls += out.polls;
        self.peak_timers = self.peak_timers.max(out.peak_timers);
    }
}

/// Allocation rates for one bracketed phase of a component.
pub struct AllocPhase {
    /// Phase name, as `scripts/alloc_budget.json` keys it.
    pub name: &'static str,
    /// Operations the phase performed.
    pub ops: u64,
    /// Allocations and bytes per operation.
    pub rate: AllocRate,
}

/// The fingerprint combiner: splitmix-style, order-sensitive, stable
/// across platforms.
#[must_use]
pub fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 31)
}

/// Executor stress: `tasks` tasks, task `t` sleeping `sleep_ns(t, r)` in
/// round `r` of `rounds` — the spawn/sleep/wake cycle with almost no
/// payload work, so slab, timer-heap and ready-queue costs dominate.
fn executor_storm(seed: u64, tasks: u64, rounds: u32, sleep_ns: fn(u64, u32) -> u64) -> Run {
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    for t in 0..tasks {
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            for r in 0..rounds {
                ctx2.sleep(Duration::from_nanos(sleep_ns(t, r))).await;
            }
        });
    }
    sim.run();
    let fp = mix(mix(0, sim.now().as_nanos() as u64), tasks);
    Run::of(&sim, fp)
}

/// The executor storm at ~600 pending timers, small enough that a flat
/// binary heap is competitive. Staggered micro-sleeps: adjacent tasks
/// collide on many instants, exercising same-tick ordering.
#[must_use]
pub fn executor_churn(scale: f64) -> Run {
    let rounds = ((400.0 * scale) as u32).max(10);
    executor_storm(0xC0DE, 600, rounds, |t, r| {
        500 + (t * 37 + u64::from(r)) % 2000
    })
}

/// The executor storm at its design scale: tens of thousands of
/// *concurrent* timers. Long-horizon simulations (the paper's §6
/// experiments run minutes of virtual time at hundreds of requests per
/// second) hold tens of thousands of in-flight deadlines, where per-entry
/// heap depth and allocation start to dominate; deadlines spread over ~3 s
/// of virtual time keep the pending set ~60 k deep for the whole run.
#[must_use]
pub fn executor_timer_stress(scale: f64) -> Run {
    let rounds = ((4.0 * scale) as u32).max(1);
    let mut run = executor_storm(0x71AE, 60_000, rounds, |t, r| {
        1_000
            + t.wrapping_mul(2_654_435_761)
                .wrapping_add(u64::from(r) * 97)
                % 3_000_000_000
    });
    run.fingerprint = mix(run.fingerprint, u64::from(rounds));
    run
}

/// Raw shared-log traffic: appends, conditional appends, stream reads, and
/// trims against many tags — the log's index/refcount/caching hot paths
/// without protocol logic on top.
#[must_use]
pub fn sharedlog_ops(scale: f64) -> Run {
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
                l.read_prev(node, t1, SeqNum::MAX).await;
            }
            if i % 5 == 0 {
                l.read_next(NodeId(((i + 1) % 8) as u32), t2, SeqNum(1))
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
    Run::of(&sim, fp)
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
#[must_use]
pub fn sharedlog_trim_stress(scale: f64) -> Run {
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
    Run::of(&sim, fp)
}

/// A closed-loop writer storm: `writers` tasks on `ctx`, writer `w`
/// appending `per_writer` records to `tag(w)` from node `w % 8`, each
/// append awaited before the next. `records(w)` runs inside writer `w`'s
/// task and yields its `i`-th record. Returns the writers' join handles.
fn writer_storm<P, R>(
    ctx: &Ctx,
    log: &LogService<P>,
    writers: u64,
    per_writer: u64,
    tag: impl Fn(u64) -> Tag,
    records: impl Fn(u64) -> R + Clone + 'static,
) -> Vec<JoinHandle<()>>
where
    P: Payload,
    R: FnMut(u64) -> P,
{
    (0..writers)
        .map(|w| {
            let log = log.clone();
            let tag = tag(w);
            let records = records.clone();
            ctx.spawn(async move {
                let mut record = records(w);
                for i in 0..per_writer {
                    log.append(NodeId((w % 8) as u32), [tag], record(i)).await;
                }
            })
        })
        .collect()
}

/// A saturating writer storm per `(knob, config)`: 64 closed-loop writers
/// (writer `w` on tag `tag_base + w`) against lanes of 4 000 ordering
/// decisions/s, far more load than one unbatched lane can order, each on
/// a fresh `Sim` from `seed`. Each storm's knob, append count, virtual end
/// time and sustained appends/s go into the fingerprint, then whatever
/// `extra` reads off the drained log. Returns the throughputs with the run.
fn saturation_sweep(
    scale: f64,
    seed: u64,
    tag_base: u64,
    configs: impl IntoIterator<Item = (u64, LogConfig)>,
    extra: impl Fn(&LogService<u64>) -> Vec<u64>,
) -> (Vec<f64>, Run) {
    let writers = 64u64;
    let per_writer = (((12_000.0 * scale) as u64).max(1_024) / writers).max(4);
    let mut run = Run::new(0);
    let mut throughput = Vec::new();
    for (knob, config) in configs {
        let mut sim = Sim::new(seed);
        let log: LogService<u64> = LogService::new(
            sim.ctx(),
            LatencyModel::uniform_test_model(),
            LogConfig {
                sequencer_capacity: Some(4_000.0),
                ..config
            },
        );
        let tag = |w: u64| Tag::new(TagKind::ObjectLog, tag_base + w);
        writer_storm(&sim.ctx(), &log, writers, per_writer, tag, |_| |i: u64| i);
        sim.run();
        let appends = log.counters().log_appends;
        assert_eq!(appends, writers * per_writer);
        let tput = appends as f64 / sim.now().as_secs_f64();
        throughput.push(tput);
        let basics = [knob, appends, sim.now().as_nanos() as u64, tput.to_bits()];
        for v in basics.into_iter().chain(extra(&log)) {
            run.fingerprint = mix(run.fingerprint, v);
        }
        run.count(&sim);
    }
    (throughput, run)
}

/// Sequencer saturation sweep: the saturating storm through 1/2/4/8
/// shards. One shard saturates (sustained throughput pins at the cap);
/// adding shards moves the knee, so sustainable throughput must climb
/// strictly from 1 to 4 shards — asserted here, so the bench itself is the
/// regression test for the sharded topology's scaling.
#[must_use]
pub fn sharedlog_shard_sweep(scale: f64) -> Run {
    let configs = [1u8, 2, 4, 8].map(|shards| {
        let config = LogConfig {
            topology: Topology::sharded(shards),
            ..LogConfig::default()
        };
        (u64::from(shards), config)
    });
    let (tput, run) = saturation_sweep(scale, 0x5EED, 0x7000, configs, LogService::shard_appends);
    eprintln!(
        "shard sweep sustainable appends/s: 1={:.0} 2={:.0} 4={:.0} 8={:.0}",
        tput[0], tput[1], tput[2], tput[3]
    );
    assert!(
        tput[2] > tput[0],
        "4 shards must sustain strictly more appends/s than 1: {tput:?}"
    );
    run
}

/// Group-commit sweep: the saturating storm through one shard at batch
/// sizes 1/4/16/64. At batch 1 every append pays its own ordering
/// decision, so throughput pins at the lane capacity; group commit
/// amortizes the decision across the batch and moves the knee up. The
/// ≥ 1.5× throughput gain at batch 16 is asserted here, so the bench is
/// its own regression test (EXPERIMENTS.md tabulates the sweep).
#[must_use]
pub fn append_batching(scale: f64) -> Run {
    let configs = [1usize, 4, 16, 64].map(|batch| {
        let config = LogConfig {
            batch_max_records: batch,
            ..LogConfig::default()
        };
        (batch as u64, config)
    });
    let flushes = |log: &LogService<u64>| {
        let flush = log.flush_stats();
        if log.batching_enabled() {
            assert_eq!(
                flush.records,
                log.counters().log_appends,
                "every append must pass through a flush"
            );
        }
        vec![flush.flushes, flush.size_trigger, flush.deadline_trigger]
    };
    let (tput, run) = saturation_sweep(scale, 0xBA7C, 0x8000, configs, flushes);
    eprintln!(
        "append batching sustainable appends/s: b1={:.0} b4={:.0} b16={:.0} b64={:.0}",
        tput[0], tput[1], tput[2], tput[3]
    );
    assert!(
        tput[2] >= 1.5 * tput[0],
        "batch 16 must beat batch 1 by >= 1.5x at the saturation knee: {tput:?}"
    );
    run
}

/// Full-stack application run: the paper's synthetic mixed workload (or,
/// with `travel`, the travel-reservation app) at 250 req/s under `kind`,
/// with GC every second. A `tracer` is attached before any load runs; it
/// draws no randomness and adds no virtual-time work, so a traced run's
/// fingerprint equals the untraced one's.
#[must_use]
pub fn app(kind: ProtocolKind, travel: bool, scale: f64, tracer: Option<Rc<Tracer>>) -> Run {
    let params = AppRun {
        seed: 0xA11,
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
    let travel_wl = Travel {
        hotels: 40,
        users: 60,
    };
    let workload: &dyn hm_workloads::Workload = if travel { &travel_wl } else { &synthetic };
    let out = run_app(workload, &params, |b| match tracer {
        Some(tracer) => b.protocol(kind).tracer(tracer),
        None => b.protocol(kind),
    });
    let mut fp = mix(0, out.report.completed);
    fp = mix(fp, out.report.generated);
    fp = mix(fp, out.report.errors);
    fp = mix(fp, out.log_appends);
    fp = mix(fp, out.avg_log_bytes.to_bits());
    fp = mix(fp, out.report.latency.median_ms().unwrap_or(0.0).to_bits());
    Run {
        peak_timers: out.peak_timers,
        ..Run::new(fp)
    }
}

/// The §7 recovery figure, `paper::figure("recovery")`, at 5 % of
/// `scale`: every value of its panel goes into the fingerprint. The
/// figure's shape asserts are `paper_claims.rs`'s; its runs go through
/// [`run_app`], which keeps their executors, so `polls` and
/// `peak_timers` are 0.
#[must_use]
pub fn recovery(scale: f64) -> Run {
    let figure = crate::paper::figure("recovery")(0.05 * scale);
    let values = (figure.panels.iter())
        .flat_map(|panel| &panel.rows)
        .flat_map(|(_, row)| row);
    Run::new(values.fold(0, |fp, v| mix(fp, v.to_bits())))
}

/// Writer `instance`'s read-log records: step `i` carries `template`, the
/// whole read value, like §6.3's hot path.
fn read_records(instance: u64, template: Value) -> impl FnMut(u64) -> StepRecord {
    move |i| StepRecord {
        instance: InstanceId(u128::from(instance)),
        step: StepNum(i as u32),
        op: OpRecord::Read {
            data: template.clone(),
        },
    }
}

/// Zero-copy hot-path oracle: batched appends of read-log `StepRecord`s
/// (the §6.3 hot path — records carrying whole read values) followed by a
/// §5-style replay that adopts every logged op, with the process-global
/// allocation counters bracketed around each phase.
///
/// Two phases, each reporting allocations/op and bytes/op
/// (`tests/request_alloc_budget.rs` holds them against
/// `scripts/alloc_budget.json`; the counts are only meaningful under
/// [`crate::alloc::CountingAlloc`] as the global allocator):
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
#[must_use]
pub fn hot_path_alloc(scale: f64) -> Run {
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
    // the batcher's batch pool, grows the task and record slabs, and
    // warms the per-node caches so the bracketed phases below
    // measure steady state instead of one-time arena construction. Warmup
    // records live on their own tags so the measured replay still observes
    // exactly `append_ops` records.
    let warm_per_writer = 16u64;
    writer_storm(
        &ctx,
        &log,
        writers,
        warm_per_writer,
        |w| Tag::new(TagKind::ObjectLog, 0xA0D0 + w),
        |w| {
            read_records(
                0x1000 + w,
                Value::str(format!("warm-value-{w:>03}-").repeat(6)),
            )
        },
    );
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

    // The value a read-log record carries: ~100 B, like the serialized row
    // images in the paper's storage experiments.
    writer_storm(
        &ctx,
        &log,
        writers,
        per_writer,
        |w| Tag::new(TagKind::ObjectLog, 0xA110 + w),
        |w| read_records(w, Value::str(format!("read-value-{w:>03}-").repeat(6))),
    );
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
    let mut run = Run::of(&sim, fp);
    run.alloc = vec![
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
    ];
    run
}

/// Phase-attributed tail-latency decomposition at 0.5×, 1× and 1.5× the
/// admission knee.
///
/// What binds is the runtime's worker slots (8 nodes × 8), so the knee is
/// where they fill. A short probe at 300 req/s measures the mean request
/// latency, and Little's law puts the knee at slots ÷ mean latency
/// (64 ÷ 28.3 ms ≈ 2 265 req/s at full scale). The sequencer is
/// uncapped, as in every application run. Each load point goes through
/// [`run_app`] with an
/// [`Anatomy`](hm_common::anatomy::Anatomy) collector attached; the
/// per-phase p50/p95/p99 waterfall goes into the run's detail and is
/// printed as a table.
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
///   grows from the 0.5× to the 1.5× point, as requests queue for a slot.
#[must_use]
pub fn admission_knee(scale: f64) -> Run {
    use hm_common::anatomy::{Anatomy, Phase, PhaseStat};
    use hm_runtime::LoadReport;

    let workload = SyntheticOps {
        objects: 1_000,
        ..SyntheticOps::default()
    };
    let run_point = |rate: f64, secs: f64, anatomy: Option<Rc<Anatomy>>| {
        let params = AppRun {
            seed: 0x1A7E,
            rate,
            duration: Duration::from_secs_f64(secs),
            warmup: Duration::from_secs_f64(0.25 * secs),
            rt_config: RuntimeConfig::default(),
            gc_interval: None,
        };
        run_app(&workload, &params, |b| {
            let b = b.protocol(ProtocolKind::HalfmoonRead);
            match anatomy {
                Some(a) => b.anatomy(a),
                None => b,
            }
        })
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
    let stat_json = |s: &PhaseStat| {
        format!(
            "{{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"total_ns\": {}}}",
            s.count, s.p50_ns, s.p95_ns, s.p99_ns, s.total_ns
        )
    };

    // Probe: mean request latency at an uncontended rate, which is how
    // long a request holds its worker slot.
    let mut run = Run::new(0);
    let probe = run_point(300.0, (1.0 * scale).max(0.3), None);
    run.count_app(&probe);
    let probe_mean_ms = (probe.report.latency.mean_ms()).expect("the probe completes requests");
    let rt = RuntimeConfig::default();
    let slots = rt.nodes * rt.workers_per_node;
    let knee_rate = f64::from(slots) / (probe_mean_ms / 1e3);
    eprintln!(
        "admission knee: {slots} worker slots / {probe_mean_ms:.2} ms mean latency at 300 req/s \
         = {knee_rate:.0} req/s"
    );

    let mut fp = mix(0, probe_mean_ms.to_bits());
    let secs = (2.0 * scale).max(0.4);
    let mut points_json: Vec<String> = Vec::new();
    // Mean admission residency per completed op at each load point, for
    // the knee-shape assertion.
    let mut admission_mean_ns: Vec<f64> = Vec::new();
    for &ratio in &[0.5f64, 1.0, 1.5] {
        let rate = knee_rate * ratio;
        let anatomy = Anatomy::new();
        let out = run_point(rate, secs, Some(anatomy.clone()));
        run.count_app(&out);
        let report = &out.report;
        if (ratio - 1.0).abs() < f64::EPSILON {
            // Observer neutrality: the same point without anatomy must do
            // bit-identical simulated work on the same schedule.
            let plain = run_point(rate, secs, None);
            assert_eq!(
                report_fp(&plain.report),
                report_fp(report),
                "anatomy perturbed the simulation at the knee point"
            );
            assert_eq!(
                plain.polls, out.polls,
                "anatomy changed the executor schedule at the knee point"
            );
            run.count_app(&plain);
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
        let waterfall = anatomy.waterfall();
        let admission_total = waterfall
            .iter()
            .find(|s| s.phase == Some(Phase::Admission))
            .map_or(0, |s| s.total_ns);
        admission_mean_ns.push(admission_total as f64 / ops as f64);

        eprintln!(
            "\n{rate:.0} req/s ({ratio}x knee): {} completed, {} errors, \
             reconciliation err {agg_err:.1e} (worst op {rel_err:.1e})",
            report.completed, report.errors
        );
        eprintln!(
            "  {:<10} {:>7} {:>9} {:>9} {:>9} {:>12} {:>6}",
            "phase", "ops", "p50 ms", "p95 ms", "p99 ms", "total ms", "share"
        );
        let mut phases = Vec::new();
        for s in waterfall.iter().chain([&e2e]) {
            let name = s.phase.map_or("end-to-end", Phase::name);
            eprintln!(
                "  {name:<10} {:>7} {:>9.3} {:>9.3} {:>9.3} {:>12.3} {:>5.1}%",
                s.count,
                s.p50_ns as f64 / 1e6,
                s.p95_ns as f64 / 1e6,
                s.p99_ns as f64 / 1e6,
                s.total_ns as f64 / 1e6,
                100.0 * s.total_ns as f64 / e2e_total.max(1) as f64,
            );
            if s.phase.is_some() {
                phases.push(format!("\"{name}\": {}", stat_json(s)));
                fp = mix(fp, s.count);
                fp = mix(fp, s.total_ns as u64);
                fp = mix(fp, (s.total_ns >> 64) as u64);
            }
        }
        points_json.push(format!(
            "{{\"rate_per_sec\": {rate:.3}, \"generated\": {}, \"completed\": {}, \
             \"errors\": {}, \"max_rel_err\": {rel_err}, \"e2e\": {}, \"phases\": {{{}}}}}",
            report.generated,
            report.completed,
            report.errors,
            stat_json(&e2e),
            phases.join(", "),
        ));
        fp = mix(fp, rate.to_bits());
        fp = mix(fp, report.generated);
        fp = mix(fp, report.completed);
        fp = mix(fp, report.errors);
        fp = mix(fp, e2e.total_ns as u64);
        fp = mix(fp, (e2e.total_ns >> 64) as u64);
    }
    assert!(
        admission_mean_ns[2] > admission_mean_ns[0],
        "admission residency must grow across the knee: {admission_mean_ns:?}"
    );
    run.fingerprint = fp;
    run.detail = Some(format!(
        "{{\"worker_slots\": {slots}, \"probe_mean_latency_ms\": {probe_mean_ms:.6}, \
         \"knee_rate_per_sec\": {knee_rate:.3}, \"points\": [{}]}}",
        points_json.join(", ")
    ));
    run
}

/// Core scaling: Figure 12 panel (a)'s 15 cells at 5 % of `scale`,
/// mapped over one and then two worker threads by
/// [`par_map`](hm_substrate::par_map).
///
/// The cells' values are asserted bit-identical at both worker counts
/// (workers change wall time, never results), and the wall time of each
/// is reported beside the host's core count. `par_map` never uses more
/// threads than cores, so on a single-core host both rows are the
/// sequential run. `cores_delivered`, a two-thread CPU probe timed just
/// before and just after the sweep, says how many cores the host actually
/// ran in parallel meanwhile. `scripts/verify.sh` floors the speedup by
/// it, so a shared host that withholds a core lowers the floor along with
/// the speedup.
#[must_use]
pub fn parallel_scaling(scale: f64) -> Run {
    let panel = &crate::paper::FIG12_PANELS[..1];
    let delivered_before = cores_delivered();
    let (mut fps, mut walls, mut cells) = (Vec::new(), Vec::new(), 0);
    for workers in [1, 2] {
        let t0 = Instant::now();
        let values = crate::paper::fig12_cells(0.05 * scale, panel, workers);
        walls.push(t0.elapsed().as_secs_f64() * 1e3);
        fps.push(values.iter().fold(0, |fp, v| mix(fp, v.to_bits())));
        cells = values.len();
    }
    assert_eq!(fps[0], fps[1], "worker count changed simulated results");

    let delivered = delivered_before.min(cores_delivered());
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (one, two) = (walls[0], walls[1]);
    let speedup_2w = one / two.max(f64::MIN_POSITIVE);
    eprintln!(
        "parallel scaling wall ms ({cores} cores, {delivered:.2} delivered): \
         1w={one:.1} 2w={two:.1} (2w speedup {speedup_2w:.2}x)"
    );
    Run {
        detail: Some(format!(
            "{{\"cells\": {cells}, \"cores\": {cores}, \"cores_delivered\": {delivered:.3}, \
             \"workers_1_wall_ms\": {one:.3}, \"workers_2_wall_ms\": {two:.3}, \
             \"speedup_2w\": {speedup_2w:.3}}}"
        )),
        ..Run::new(fps[0])
    }
}

/// The parallelism the host delivers right now, between 1 and 2: twice the
/// time one thread takes for a fixed CPU-bound loop over the time two
/// threads take to run that loop once each, side by side. Reads ≈2 when a
/// second core is free and ≈1 when the threads share one.
fn cores_delivered() -> f64 {
    fn spin() {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..std::hint::black_box(4_000_000) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
    }
    let t0 = Instant::now();
    spin();
    let one = t0.elapsed();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        s.spawn(spin);
        spin();
    });
    let two = t0.elapsed();
    (2.0 * one.as_secs_f64() / two.as_secs_f64().max(f64::MIN_POSITIVE)).clamp(1.0, 2.0)
}

/// Systematic model checking (DESIGN.md §18): exhausts every schedule ×
/// crash placement of the smallest 2-node configuration for all four
/// protocols, plus the unsafe baseline's counterexample configuration and
/// the sleep-set headline configuration, timing the enumerations.
///
/// Coverage, not duration, is the workload, so there is no `scale`: the
/// explored trees are fixed-size and the per-cell run/node counts are
/// exact — they land in the fingerprint, pinning the checker's coverage
/// the way op counters pin the other components' simulated work. Two
/// §4.4 claims are asserted here, so the bench is its own regression
/// test: the fault-tolerant protocols exhaust their trees with zero
/// violations, and the unsafe baseline yields a replayable `ww-1s`
/// counterexample. (The third, ≥ 50 % pruning on the Halfmoon-read
/// `xy-1s` row, is `explore --assert`'s.)
#[must_use]
pub fn model_check() -> Run {
    use hm_runtime::mc::{explore_config, run_schedule, standard_configs, McConfig};

    let mut cells: Vec<(ProtocolKind, McConfig)> = [
        ProtocolKind::Boki,
        ProtocolKind::HalfmoonRead,
        ProtocolKind::HalfmoonWrite,
    ]
    .map(|kind| (kind, McConfig::minimal(kind)))
    .into();
    // The unsafe baseline's §1 anomaly needs a crash point after a write
    // took effect: ww-1s is the smallest configuration exhibiting it.
    let unsafe_ww = standard_configs(ProtocolKind::Unsafe).remove(1);
    cells.push((ProtocolKind::Unsafe, unsafe_ww));
    // Headline pruning row: disjoint keys under log-free reads.
    let headline = standard_configs(ProtocolKind::HalfmoonRead).remove(2);
    cells.push((ProtocolKind::HalfmoonRead, headline));

    let mut fp = 0u64;
    let mut json = Vec::new();
    for (kind, cfg) in &cells {
        let t0 = Instant::now();
        let stats = explore_config(cfg, true, 1);
        let pruned_wall = t0.elapsed();
        let t0 = Instant::now();
        let naive = explore_config(cfg, false, 1);
        let naive_wall = t0.elapsed();
        assert!(
            stats.complete,
            "{kind:?} {} must exhaust its tree",
            cfg.name
        );
        for v in [
            *kind as u64,
            stats.runs as u64,
            stats.aborted as u64,
            stats.nodes as u64,
            stats.slept as u64,
            stats.counterexamples.len() as u64,
            naive.runs as u64,
            naive.counterexamples.len() as u64,
        ] {
            fp = mix(fp, v);
        }
        json.push(format!(
            "{{\"protocol\": \"{}\", \"config\": \"{}\", \"runs\": {}, \"aborted\": {}, \
             \"nodes\": {}, \"slept\": {}, \"naive_runs\": {}, \
             \"counterexamples\": {}, \"wall_ms\": {:.3}, \"naive_wall_ms\": {:.3}}}",
            kind.label(),
            cfg.name,
            stats.runs,
            stats.aborted,
            stats.nodes,
            stats.slept,
            naive.executions(),
            stats.counterexamples.len(),
            pruned_wall.as_secs_f64() * 1e3,
            naive_wall.as_secs_f64() * 1e3,
        ));
        if *kind == ProtocolKind::Unsafe {
            let cx = stats
                .counterexamples
                .first()
                .expect("the unsafe baseline must yield a ww-1s counterexample");
            let replay = run_schedule(cfg, &cx.schedule);
            assert_eq!(
                replay.violations, cx.violations,
                "counterexample schedule did not reproduce its violation"
            );
            fp = mix(fp, replay.events as u64);
        } else {
            assert!(
                stats.counterexamples.is_empty(),
                "{kind:?} {} violated the §4.4 propositions",
                cfg.name
            );
        }
    }
    Run {
        detail: Some(format!("{{\"cells\": [{}]}}", json.join(", "))),
        ..Run::new(fp)
    }
}
