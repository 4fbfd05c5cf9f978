//! Whole-stack determinism: identical seeds must produce bit-identical
//! experiment results — the property that makes every benchmark in this
//! repository exactly reproducible.
//!
//! The fan-out matrix at the bottom extends the property to `par_map`: a
//! seeded run inside it is byte-identical to the same run on the caller's
//! thread (fingerprints, trace JSONL, anatomy JSONL, the chaos campaign's
//! journal) at every worker count, on the caller's thread or a spawned one,
//! and rerun-identical from the same seed, and four seeded log slices
//! produce the same results at every worker count.

use std::rc::Rc;
use std::time::Duration;

use halfmoon::{ClientBuilder, FaultPlan, FaultPolicy, ProtocolKind, ShardId};
use hm_common::latency::LatencyModel;
use hm_common::metrics::OpCounters;
use hm_runtime::RuntimeConfig;
use hm_substrate::sim::Sim;
use hm_substrate::{par_map, Ctx};
use hm_workloads::synthetic::SyntheticOps;
use hm_workloads::travel::Travel;
use hm_workloads::{run_app, AppRun, AppRunOutput, Workload};

/// Everything a run can disagree on: completion count, the *full*
/// [`OpCounters`] of both the shared log and the backing store (every
/// counter field, not a summary), and a latency/bytes digest.
type RunFingerprint = (u64, OpCounters, OpCounters, String);

/// `secs` of open-loop load after a 500 ms warmup, at `rate`, collected
/// every second when `gc` is set.
fn open_loop(seed: u64, rate: f64, secs: u64, gc: bool) -> AppRun {
    AppRun {
        seed,
        rate,
        duration: Duration::from_secs(secs),
        warmup: Duration::from_millis(500),
        rt_config: RuntimeConfig::default(),
        gc_interval: gc.then_some(Duration::from_secs(1)),
    }
}

/// What a finished run's fingerprint reads off its handles.
fn fingerprint(out: &AppRunOutput) -> RunFingerprint {
    let (client, latency) = (&out.client, &out.report.latency);
    (
        out.report.completed,
        client.log().counters(),
        client.store().counters(),
        format!(
            "{:?}/{:?}/{}/{}",
            latency.median_ms(),
            latency.p99_ms(),
            out.runtime.retries(),
            client.store().current_bytes(),
        ),
    )
}

/// `workload` at 120 req/s for 4 s under `kind` with random crash points
/// and GC; `deploy` adds the rest of the deployment (tracer, anatomy,
/// topology, group commit).
fn run_fingerprint(
    seed: u64,
    workload: &dyn Workload,
    kind: ProtocolKind,
    deploy: impl FnOnce(ClientBuilder) -> ClientBuilder,
) -> RunFingerprint {
    let out = run_app(workload, &open_loop(seed, 120.0, 4, true), |b| {
        deploy(b.protocol(kind).faults(FaultPolicy::random(0.002, 100)))
    });
    fingerprint(&out)
}

#[test]
fn identical_seeds_identical_runs() {
    let workload = SyntheticOps {
        objects: 300,
        ..SyntheticOps::default()
    };
    for kind in [
        ProtocolKind::HalfmoonRead,
        ProtocolKind::HalfmoonWrite,
        ProtocolKind::Boki,
    ] {
        let a = run_fingerprint(1234, &workload, kind, |b| b);
        let b = run_fingerprint(1234, &workload, kind, |b| b);
        assert_eq!(a, b, "{kind}: same seed must reproduce exactly");
    }
}

#[test]
fn different_seeds_different_runs() {
    let workload = SyntheticOps {
        objects: 300,
        ..SyntheticOps::default()
    };
    let a = run_fingerprint(1, &workload, ProtocolKind::HalfmoonRead, |b| b);
    let b = run_fingerprint(2, &workload, ProtocolKind::HalfmoonRead, |b| b);
    assert_ne!(a.3, b.3, "different seeds should visibly diverge");
}

/// Enabling tracing must not change a single simulated outcome: the
/// tracer is pure bookkeeping on the caller's stack — no RNG draws, no
/// spawned tasks, no virtual-time sleeps — so the traced run's full
/// fingerprint equals the untraced run's.
#[test]
fn tracing_does_not_perturb_the_simulation() {
    let workload = SyntheticOps {
        objects: 300,
        ..SyntheticOps::default()
    };
    for kind in [ProtocolKind::HalfmoonRead, ProtocolKind::HalfmoonWrite] {
        let plain = run_fingerprint(4242, &workload, kind, |b| b);
        let tracer = hm_common::trace::Tracer::new();
        let traced = run_fingerprint(4242, &workload, kind, |b| b.tracer(tracer.clone()));
        assert_eq!(plain, traced, "{kind}: tracing changed the simulation");
        assert!(tracer.events_recorded() > 0, "{kind}: trace is empty");
    }
}

/// The trace itself is deterministic: two runs from the same seed export
/// byte-identical JSONL event logs (same spans, same ids, same virtual
/// timestamps, same order).
#[test]
fn identical_seeds_identical_traces() {
    let workload = SyntheticOps {
        objects: 300,
        ..SyntheticOps::default()
    };
    let export = || {
        let tracer = hm_common::trace::Tracer::new();
        let _ = run_fingerprint(9001, &workload, ProtocolKind::HalfmoonRead, |b| {
            b.tracer(tracer.clone())
        });
        tracer.export_jsonl()
    };
    let a = export();
    let b = export();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must export byte-identical traces");
}

/// Latency anatomy is held to the same standard as tracing: enabling it
/// must not perturb the simulation (the phase clock is caller-stack
/// bookkeeping — no RNG draws, no tasks, no sleeps), and the phase-stamp
/// export itself must be byte-identical across two runs of the same seed.
/// Each op's phases must also partition its end-to-end lifetime exactly.
#[test]
fn anatomy_is_neutral_and_deterministic() {
    let workload = SyntheticOps {
        objects: 300,
        ..SyntheticOps::default()
    };
    for kind in [ProtocolKind::HalfmoonRead, ProtocolKind::HalfmoonWrite] {
        let plain = run_fingerprint(5353, &workload, kind, |b| b);
        let instrumented = || {
            let anatomy = hm_common::anatomy::Anatomy::new();
            let fp = run_fingerprint(5353, &workload, kind, |b| b.anatomy(anatomy.clone()));
            (fp, anatomy)
        };
        let (fp_a, anatomy_a) = instrumented();
        let (fp_b, anatomy_b) = instrumented();
        assert_eq!(plain, fp_a, "{kind}: anatomy changed the simulation");
        assert_eq!(fp_a, fp_b, "{kind}: anatomy run must reproduce exactly");
        assert!(anatomy_a.ops() > 0, "{kind}: no phase sheets completed");
        assert_eq!(
            anatomy_a.max_rel_err(),
            0.0,
            "{kind}: phases must partition each op's lifetime exactly"
        );
        let rows_a = anatomy_a.rows_jsonl();
        let rows_b = anatomy_b.rows_jsonl();
        assert!(!rows_a.is_empty(), "{kind}: phase-stamp export is empty");
        assert_eq!(
            rows_a, rows_b,
            "{kind}: same seed must export byte-identical phase stamps"
        );
    }
}

#[test]
fn workflow_heavy_runs_are_deterministic() {
    let workload = Travel {
        hotels: 20,
        users: 30,
    };
    let a = run_fingerprint(777, &workload, ProtocolKind::HalfmoonRead, |b| b);
    let b = run_fingerprint(777, &workload, ProtocolKind::HalfmoonRead, |b| b);
    assert_eq!(a, b);
}

/// A sharded topology is exactly as deterministic as the single-shard
/// one: the same seed at `shards = 4` reproduces the full fingerprint
/// bit-for-bit, and the traced variant exports byte-identical JSONL
/// (per-shard sequencer lanes included).
#[test]
fn sharded_topology_runs_are_deterministic() {
    let workload = SyntheticOps {
        objects: 300,
        ..SyntheticOps::default()
    };
    let run = || {
        let tracer = hm_common::trace::Tracer::new();
        let fp = run_fingerprint(3131, &workload, ProtocolKind::HalfmoonRead, |b| {
            b.tracer(tracer.clone())
                .topology(halfmoon::Topology::sharded(4))
        });
        (fp, tracer.export_jsonl())
    };
    let (fp_a, trace_a) = run();
    let (fp_b, trace_b) = run();
    assert_eq!(fp_a, fp_b, "shards=4: same seed must reproduce exactly");
    assert!(!trace_a.is_empty());
    assert_eq!(
        trace_a, trace_b,
        "shards=4: same seed must export byte-identical traces"
    );
}

/// `Topology::sharded(1)` is not merely equivalent to the default
/// single-shard deployment — it is the *same code path*, so its run
/// fingerprint matches the default construction's bit-for-bit. This pins the
/// refactor's central promise: sharding is invisible until asked for.
#[test]
fn single_shard_topology_matches_default_construction() {
    let workload = SyntheticOps {
        objects: 300,
        ..SyntheticOps::default()
    };
    for kind in [ProtocolKind::HalfmoonRead, ProtocolKind::HalfmoonWrite] {
        let default_fp = run_fingerprint(2468, &workload, kind, |b| b);
        let sharded_fp = run_fingerprint(2468, &workload, kind, |b| {
            b.topology(halfmoon::Topology::sharded(1))
        });
        assert_eq!(
            default_fp, sharded_fp,
            "{kind}: shards=1 must be bit-identical to the default topology"
        );
    }
}

/// Simultaneous timers fire in registration order — the tie-break the timer
/// heap must preserve so that event *orderings*, not just aggregate
/// metrics, are reproducible. Covers deadlines microseconds, milliseconds
/// and minutes away.
#[test]
fn simultaneous_timers_fire_in_registration_order() {
    fn trace(deadline: Duration) -> Vec<u32> {
        let mut sim = Sim::new(42);
        let ctx = sim.ctx();
        let order = Rc::new(std::cell::RefCell::new(Vec::new()));
        for i in 0..64u32 {
            let ctx2 = ctx.clone();
            let order = order.clone();
            ctx.spawn(async move {
                ctx2.sleep(deadline).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        let out = order.borrow().clone();
        out
    }
    for d in [
        Duration::from_micros(5),
        Duration::from_millis(3),
        Duration::from_secs(300),
    ] {
        let a = trace(d);
        assert_eq!(
            a,
            (0..64).collect::<Vec<_>>(),
            "same-instant timers must fire in registration order at {d:?}"
        );
        assert_eq!(
            a,
            trace(d),
            "two runs must produce the same ordering at {d:?}"
        );
    }
}

/// A group-commit deployment (`batch_max_records = 16`) is exactly as
/// deterministic as the unbatched one: the same seed reproduces the full
/// fingerprint bit-for-bit — completion counts, every log and store
/// counter, the latency digest — and the traced variant exports
/// byte-identical JSONL, flush scheduling included.
#[test]
fn batched_runs_are_deterministic() {
    let workload = SyntheticOps {
        objects: 300,
        ..SyntheticOps::default()
    };
    for kind in [ProtocolKind::HalfmoonRead, ProtocolKind::HalfmoonWrite] {
        let run = || {
            let tracer = hm_common::trace::Tracer::new();
            let fp = run_fingerprint(6161, &workload, kind, |b| {
                b.tracer(tracer.clone()).batching(16)
            });
            (fp, tracer.export_jsonl())
        };
        let (fp_a, trace_a) = run();
        let (fp_b, trace_b) = run();
        assert_eq!(
            fp_a, fp_b,
            "{kind}: batch=16 same seed must reproduce exactly"
        );
        assert!(!trace_a.is_empty());
        assert_eq!(
            trace_a, trace_b,
            "{kind}: batch=16 must export byte-identical traces"
        );
    }
}

/// `batching(1)` is not merely equivalent to the default unbatched
/// deployment — it is the *same code path* (the batcher never engages), so
/// the run fingerprint matches the default construction bit-for-bit. This
/// pins the tentpole's central promise: group commit is invisible until
/// asked for.
#[test]
fn batch_of_one_matches_default_construction() {
    let workload = SyntheticOps {
        objects: 300,
        ..SyntheticOps::default()
    };
    for kind in [ProtocolKind::HalfmoonRead, ProtocolKind::HalfmoonWrite] {
        let default_fp = run_fingerprint(1357, &workload, kind, |b| b);
        let batched_fp = run_fingerprint(1357, &workload, kind, |b| b.batching(1));
        assert_eq!(
            default_fp, batched_fp,
            "{kind}: batch=1 must be bit-identical to the default deployment"
        );
    }
}

/// The hot-path arenas (pooled batch vectors, recycled gates and outcome
/// cells, the executor's waker-payload pool, per-service scratch buffers)
/// are pure representation: two identical runs at a small batch size —
/// maximizing pool churn, with GC trims and replays recycling buffers
/// mid-run — must reproduce the fingerprint AND export byte-identical
/// JSONL traces. Any pool that leaked state between recycles (a cleared
/// payload, a stale outcome, a waker waking the wrong task) would perturb
/// the schedule and diverge here.
#[test]
fn arena_recycling_is_invisible_to_determinism() {
    let workload = SyntheticOps {
        objects: 200,
        ..SyntheticOps::default()
    };
    let run = || {
        let tracer = hm_common::trace::Tracer::new();
        // Small batches: every few appends claims and recycles a batch.
        let fp = run_fingerprint(0xA2E7A, &workload, ProtocolKind::HalfmoonWrite, |b| {
            b.tracer(tracer.clone()).batching(4)
        });
        (fp, tracer.export_jsonl())
    };
    let (fp_a, trace_a) = run();
    let (fp_b, trace_b) = run();
    assert_eq!(fp_a, fp_b, "arena-backed runs must reproduce exactly");
    assert!(!trace_a.is_empty());
    assert_eq!(
        trace_a, trace_b,
        "arena recycling must leave traces byte-identical"
    );
}

/// A batched deployment under a seeded chaos campaign — node crashes,
/// a replica outage, a sequencer stall, a retry storm — reproduces both
/// the run fingerprint and the chaos injection journal byte-for-byte from
/// the same seed. Forced flushes from §5 recovery reads are part of the
/// reproduced schedule.
#[test]
fn batched_chaos_campaign_is_deterministic() {
    let run = || {
        let plan = FaultPlan::new()
            .instance_faults(FaultPolicy::random(0.004, 60))
            .node_recovery_delay(Duration::from_millis(300))
            .seeded_node_crashes(
                0xBA7C,
                0.4,
                Duration::from_millis(600),
                Duration::from_secs(4),
                8,
            )
            .fail_replica_at(
                Duration::from_secs(2),
                ShardId(0),
                1,
                Duration::from_millis(1500),
            );
        let workload = SyntheticOps {
            objects: 200,
            ..SyntheticOps::default()
        };
        let out = run_app(&workload, &open_loop(0xBA7C, 150.0, 5, false), |b| {
            b.protocol(ProtocolKind::HalfmoonRead)
                .batching(16)
                .faults(plan)
        });
        assert!(out.chaos.injected() > 0, "campaign must actually bite");
        (
            out.report.completed,
            out.client.log().counters(),
            out.client.log().flush_stats(),
            out.client.recovery_stats(),
            out.chaos.events_jsonl(),
        )
    };
    let a = run();
    let b = run();
    assert!(
        a.2.flushes > 0,
        "batched campaign must have flushed batches"
    );
    assert_eq!(a, b, "batch=16 chaos campaign must reproduce exactly");
}

/// Runs `body` on a bare [`Sim`] at `seed`.
fn on_sim<R: 'static, Fut>(seed: u64, body: impl FnOnce(Ctx) -> Fut) -> R
where
    Fut: std::future::Future<Output = R> + 'static,
{
    let mut sim = Sim::new(seed);
    sim.block_on(body(sim.ctx()))
}

/// Runs `run(seed)` twice inside one `par_map` over `workers` threads, so
/// that at two or more workers (and cores) one of the runs is on a spawned
/// thread. The two must agree byte for byte.
fn in_par_map<R>(seed: u64, workers: usize, run: impl Fn(u64) -> R + Sync) -> R
where
    R: Send + PartialEq + std::fmt::Debug,
{
    let mut runs = par_map(&[seed, seed], workers, |&seed| run(seed));
    let second = runs.pop().expect("two runs");
    let first = runs.pop().expect("two runs");
    assert_eq!(
        first, second,
        "workers={workers}: the two runs of one seed diverged"
    );
    first
}

/// The standard instrumented workload at `seed`: returns the run
/// fingerprint plus the byte-exact trace and anatomy JSONL exports.
fn instrumented_run(seed: u64, kind: ProtocolKind) -> (RunFingerprint, String, String) {
    let workload = SyntheticOps {
        objects: 200,
        ..SyntheticOps::default()
    };
    let tracer = hm_common::trace::Tracer::new();
    let anatomy = hm_common::anatomy::Anatomy::new();
    let out = run_app(&workload, &open_loop(seed, 120.0, 2, true), |b| {
        b.protocol(kind)
            .faults(FaultPolicy::random(0.002, 100))
            .tracer(tracer.clone())
            .anatomy(anatomy.clone())
    });
    (
        fingerprint(&out),
        tracer.export_jsonl(),
        anatomy.rows_jsonl(),
    )
}

/// A seeded run inside `par_map` is not merely equivalent to the same run
/// on the caller's thread, it is one, wherever it lands: the full fingerprint
/// AND the trace/anatomy JSONL exports are byte-identical, whatever the
/// worker count on offer.
#[test]
fn par_map_run_is_bit_identical_to_sim() {
    let sim = instrumented_run(0xD17, ProtocolKind::HalfmoonRead);
    assert!(!sim.1.is_empty() && !sim.2.is_empty(), "exports are empty");
    for workers in [1usize, 2, 4] {
        let par = in_par_map(0xD17, workers, |seed| {
            instrumented_run(seed, ProtocolKind::HalfmoonRead)
        });
        assert_eq!(
            sim, par,
            "a run inside par_map at workers={workers} diverged from the caller's run"
        );
    }
}

/// Two fan-outs from the same seed reproduce the fingerprint and both
/// JSONL exports byte-for-byte.
#[test]
fn fan_out_reruns_are_identical() {
    for workers in [2usize, 4] {
        let run = || {
            in_par_map(0xE23, workers, |seed| {
                instrumented_run(seed, ProtocolKind::HalfmoonWrite)
            })
        };
        assert_eq!(run(), run(), "workers={workers}: rerun diverged");
    }
}

/// Four seeded log slices produce the same results, in item order, at
/// every worker count, and rerun identically. Each item runs its own
/// single-shard log slice on a `Sim` at its own seed and reports a digest
/// of it, so the slice-local schedules are pinned whichever thread runs
/// them.
#[test]
fn partitioned_log_slices_are_worker_count_invariant() {
    use hm_sharedlog::{LogConfig, LogService};

    let run = |workers: usize| -> Vec<Vec<u64>> {
        par_map(&[0u64, 1, 2, 3], workers, |&me| {
            on_sim(0xFEED + me, |ctx| async move {
                let log: LogService<u64> = LogService::new(
                    ctx.clone(),
                    LatencyModel::uniform_test_model(),
                    LogConfig::default(),
                );
                let mut handles = Vec::new();
                for w in 0..4u64 {
                    let l = log.clone();
                    handles.push(ctx.spawn(async move {
                        let tag =
                            hm_common::Tag::new(hm_common::ids::TagKind::ObjectLog, (me << 8) | w);
                        for i in 0..32u64 {
                            l.append(hm_common::NodeId(w as u32), [tag], i).await;
                        }
                    }));
                }
                for h in handles {
                    h.await;
                }
                let digest = log.counters().log_appends ^ (ctx.now().as_nanos() as u64);
                vec![me, digest, ctx.now().as_nanos() as u64]
            })
        })
    };
    let w1 = run(1);
    // One result per item, in item order.
    assert_eq!(
        w1.iter().map(|r| r[0]).collect::<Vec<_>>(),
        vec![0, 1, 2, 3]
    );
    assert_eq!(w1, run(2), "workers=2 diverged from workers=1");
    assert_eq!(w1, run(4), "workers=4 diverged from workers=1");
    assert_eq!(run(2), run(2), "workers=2 rerun diverged");
}

/// The seeded chaos campaign — crashes, a replica outage, retry storms,
/// recovery-forced flushes — reproduces byte-for-byte inside `par_map`: the
/// caller's run, the runs inside `par_map` at 1, 2 and 4 workers, and a rerun
/// all agree on counters, flush stats, recovery stats, and the chaos
/// injection journal.
#[test]
fn chaos_campaign_is_worker_count_invariant() {
    fn campaign(seed: u64) -> impl PartialEq + std::fmt::Debug + Send {
        let plan = FaultPlan::new()
            .instance_faults(FaultPolicy::random(0.004, 60))
            .node_recovery_delay(Duration::from_millis(300))
            .seeded_node_crashes(
                0xBA7C,
                0.4,
                Duration::from_millis(600),
                Duration::from_secs(3),
                8,
            )
            .fail_replica_at(
                Duration::from_secs(1),
                ShardId(0),
                1,
                Duration::from_millis(1000),
            );
        let workload = SyntheticOps {
            objects: 200,
            ..SyntheticOps::default()
        };
        let out = run_app(&workload, &open_loop(seed, 150.0, 3, false), |b| {
            b.protocol(ProtocolKind::HalfmoonRead)
                .batching(16)
                .faults(plan)
        });
        assert!(out.chaos.injected() > 0, "campaign must actually bite");
        (
            out.report.completed,
            out.client.log().counters(),
            out.client.log().flush_stats(),
            out.client.recovery_stats(),
            out.chaos.events_jsonl(),
        )
    }
    let sim = campaign(0xBA7C);
    for workers in [1usize, 2, 4] {
        assert_eq!(
            sim,
            in_par_map(0xBA7C, workers, campaign),
            "chaos campaign diverged inside par_map at workers={workers}"
        );
    }
    assert_eq!(
        in_par_map(0xBA7C, 2, campaign),
        in_par_map(0xBA7C, 2, campaign),
        "chaos campaign rerun diverged"
    );
}

/// The simulator's virtual time is decoupled from wall time: a simulated
/// hour of idle load costs well under a second of wall time.
#[test]
fn virtual_time_is_free() {
    let wall = std::time::Instant::now();
    let mut sim = Sim::new(5);
    let ctx = sim.ctx();
    let ticks = Rc::new(std::cell::Cell::new(0u32));
    let t2 = ticks.clone();
    let ctx2 = ctx.clone();
    ctx.spawn(async move {
        for _ in 0..3600 {
            ctx2.sleep(Duration::from_secs(1)).await;
            t2.set(t2.get() + 1);
        }
    });
    sim.run();
    assert_eq!(ticks.get(), 3600);
    assert_eq!(sim.now(), Duration::from_secs(3600));
    assert!(wall.elapsed() < Duration::from_secs(2));
}

/// A model-checking counterexample is a *replayable artifact*: the
/// schedule recorded from an exploring run, re-executed through
/// `run_schedule`, reproduces the exact violating history — byte for
/// byte, run after run. This is the DESIGN.md §13 claim that makes a violation a
/// deterministic repro rather than a flaky observation.
#[test]
fn model_check_counterexamples_replay_byte_identically() {
    use hm_runtime::mc::{explore_config, run_schedule, standard_configs};

    let cfg = standard_configs(ProtocolKind::Unsafe).remove(1);
    assert_eq!(cfg.name, "ww-1s");
    let stats = explore_config(&cfg, true, 1);
    let cx = stats
        .counterexamples
        .first()
        .expect("the unsafe baseline must produce a counterexample");

    // The schedule round-trips through its string form (what the flight
    // recorder dump carries) and replays to the same violating history.
    let parsed = cx.schedule.to_string().parse().expect("schedule parses");
    let first = run_schedule(&cfg, &parsed);
    let second = run_schedule(&cfg, &parsed);
    assert_eq!(first.violations, cx.violations, "violation must reproduce");
    assert_eq!(
        first.history, second.history,
        "replayed histories must be byte-identical"
    );
    assert!(!first.history.is_empty() && first.events > 0);
    assert_eq!(first.schedule, second.schedule);

    // And an *innocent* schedule replays deterministically too: the empty
    // decision vector (every choice defaults to alternative 0).
    let quiet = run_schedule(&cfg, &"".parse().unwrap());
    let quiet2 = run_schedule(&cfg, &"".parse().unwrap());
    assert_eq!(quiet.history, quiet2.history);
    assert!(quiet.violations.is_empty(), "{:?}", quiet.violations);
}
