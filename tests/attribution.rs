//! Observations land on the request that made them (`hm_common::observe`):
//! phase time is charged to the sheet of the request that spent it, spans
//! nest under the op that issued them (a child invocation under its
//! parent's `invoke`), and background work stays on trace 0.

use std::rc::Rc;
use std::time::Duration;

use halfmoon::{
    Client, Env, FaultPlan, FaultPolicy, InvocationSpec, ProtocolKind, ShardId, Topology,
};
use hm_common::anatomy::{Anatomy, Phase};
use hm_common::trace::Tracer;
use hm_common::{FxHashMap, FxHashSet, Key, NodeId, Value};
use hm_runtime::{Gateway, LoadSpec, Runtime, RuntimeConfig};
use hm_substrate::sim::Sim;
use hm_workloads::synthetic::SyntheticOps;
use hm_workloads::travel::Travel;
use hm_workloads::{run_app, AppRun};

const FT_PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::HalfmoonRead,
    ProtocolKind::HalfmoonWrite,
    ProtocolKind::Boki,
];

/// One field of a tracer JSONL line, unquoted.
fn field<'a>(line: &'a str, name: &str) -> &'a str {
    let pat = format!("\"{name}\":");
    let rest = &line[line.find(&pat).expect("field present") + pat.len()..];
    rest[..rest.find([',', '}']).expect("field ends")].trim_matches('"')
}

/// Idle requests (an empty body: init and finish records only) run beside
/// one task reading under Halfmoon-read outside any request. The reader's
/// store round-trips are its own: no request's sheet may be charged for a
/// store it never touches.
#[test]
fn a_bystanders_store_time_is_not_charged_to_idle_requests() {
    let mut sim = Sim::new(99);
    let anatomy = Anatomy::new();
    let client = Client::builder(sim.ctx())
        .protocol(ProtocolKind::HalfmoonRead)
        .anatomy(anatomy.clone())
        .build();
    for i in 0..50 {
        client.populate(Key::new(format!("k{i}")), Value::Int(i));
    }
    let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
    runtime.register("idle", async |_env, _input| Ok(Value::Null));
    sim.ctx().spawn(async move {
        let spec = InvocationSpec::new(client.fresh_instance_id(), NodeId(7));
        Env::run(&client, spec, async |env: &mut Env, _| {
            for i in 0..2000 {
                env.read(&Key::new(format!("k{}", i % 50))).await?;
            }
            Ok(Value::Null)
        })
        .await
    });
    let gateway = Gateway::new(runtime);
    let spec = LoadSpec {
        rate_per_sec: 1000.0,
        duration: Duration::from_secs(1),
        warmup: Duration::ZERO,
        factory: Rc::new(|_rng, _seq| ("idle".to_string(), Value::Null)),
    };
    let report = sim.block_on(async move { gateway.run_open_loop(spec).await });
    assert!(report.completed > 900, "{report:?}");
    assert_eq!(anatomy.ops(), report.completed);
    assert_eq!(anatomy.phase_totals_ns()[Phase::StoreIo.index()], 0);
    assert_eq!(anatomy.max_rel_err(), 0.0);
}

/// `secs` of open-loop load at `rate` with no warmup and no collector.
fn open_loop(seed: u64, rate: f64, secs: u64, rt_config: RuntimeConfig) -> AppRun {
    AppRun {
        seed,
        rate,
        duration: Duration::from_secs(secs),
        warmup: Duration::ZERO,
        rt_config,
        gc_interval: None,
    }
}

struct Observed {
    tracer: Rc<Tracer>,
    anatomy: Rc<Anatomy>,
    retries: u64,
}

/// 500 req/s of the ten-op synthetic function for 3 s under instance
/// crashes, with the GC collecting every 0.5 s beside the load.
fn crashy_synthetic_run(kind: ProtocolKind, topology: Topology, batch: usize) -> Observed {
    let workload = SyntheticOps {
        objects: 200,
        ..SyntheticOps::default()
    };
    let tracer = Tracer::with_capacity(1 << 20);
    let anatomy = Anatomy::new();
    let params = AppRun {
        gc_interval: Some(Duration::from_millis(500)),
        ..open_loop(424_242, 500.0, 3, RuntimeConfig::default())
    };
    let out = run_app(&workload, &params, |b| {
        b.protocol(kind)
            .topology(topology)
            .batching(batch)
            .faults(FaultPolicy::random(0.004, 200))
            .tracer(tracer.clone())
            .anatomy(anatomy.clone())
    });
    let report = out.report;
    assert_eq!(report.errors, 0);
    assert_eq!(report.completed, report.generated);
    assert_eq!(anatomy.ops(), report.completed);
    assert_eq!(tracer.events_dropped(), 0);
    Observed {
        tracer,
        anatomy,
        retries: out.runtime.retries(),
    }
}

/// A body without `compute` or `invoke` spends no virtual time outside a
/// log or store call, so the protocol residuals are exactly zero; and the
/// only time between a crash and the next dispatch is the detection delay.
#[test]
fn protocol_residuals_are_zero_and_recovery_is_the_detection_delay() {
    for kind in FT_PROTOCOLS {
        let run = crashy_synthetic_run(kind, Topology::default(), 1);
        let totals = run.anatomy.phase_totals_ns();
        for phase in [Phase::ProtoRead, Phase::ProtoWrite, Phase::ProtoTxn] {
            assert_eq!(totals[phase.index()], 0, "{kind}: {}", phase.name());
        }
        assert!(run.retries > 50, "{kind}: only {} retries", run.retries);
        let detection = hm_runtime::DETECTION_DELAY.as_nanos();
        assert_eq!(
            totals[Phase::Recovery.index()],
            u128::from(run.retries) * detection,
            "{kind}: {} retries",
            run.retries
        );
        assert_eq!(run.anatomy.max_rel_err(), 0.0, "{kind}");
    }
}

/// Every trim is the collector's: each `log_trim` round trip is on trace 0
/// under a `gc_cycle` span, and each stream it trims is a `trim_reclaimed`
/// instant under one of those round trips.
#[test]
fn every_trim_is_background_work_under_its_gc_cycle() {
    for kind in FT_PROTOCOLS {
        let jsonl = crashy_synthetic_run(kind, Topology::default(), 1)
            .tracer
            .export_jsonl();
        let events = |ph: &'static str, name: &'static str| {
            jsonl
                .lines()
                .filter(move |l| field(l, "ph") == ph && field(l, "name") == name)
        };
        let cycles: FxHashSet<&str> = events("B", "gc_cycle").map(|l| field(l, "span")).collect();
        let mut trims = FxHashSet::default();
        for line in events("B", "log_trim") {
            assert!(
                field(line, "trace") == "0" && cycles.contains(field(line, "parent")),
                "{kind}: {line}"
            );
            trims.insert(field(line, "span"));
        }
        let streams: Vec<&str> = events("I", "trim_reclaimed").collect();
        assert!(
            streams.len() > 1000,
            "{kind}: {} streams trimmed",
            streams.len()
        );
        for line in streams {
            assert!(
                field(line, "trace") == "0" && trims.contains(field(line, "parent")),
                "{kind}: {line}"
            );
        }
    }
}

/// With group commit on, `init`'s step-log fetch first waits out a forced
/// flush. The fetch still belongs to the `init` that issued it: its span
/// opens before that wait, under the same trace.
#[test]
fn a_batched_step_log_fetch_stays_under_its_own_init() {
    let jsonl = crashy_synthetic_run(ProtocolKind::HalfmoonRead, Topology::sharded(4), 16)
        .tracer
        .export_jsonl();
    // span id → (name, trace)
    let spans: FxHashMap<&str, (&str, &str)> = jsonl
        .lines()
        .filter(|l| field(l, "ph") == "B")
        .map(|l| (field(l, "span"), (field(l, "name"), field(l, "trace"))))
        .collect();
    let mut under_init = 0;
    for line in jsonl
        .lines()
        .filter(|l| field(l, "name") == "log_read_stream")
    {
        let (parent, trace) = spans[field(line, "parent")];
        assert_eq!(trace, field(line, "trace"), "{line}");
        assert!(parent == "init" || parent == "gc_cycle", "{line}");
        under_init += usize::from(parent == "init");
    }
    assert!(under_init > 1000, "{under_init}");
}

/// The sequencer lane is uncapped in every deployment, so an append
/// waits there only while a fault stalls it. The same seed runs twice:
/// with a 20 ms stall the wait is charged to `Phase::Sequencer`, and
/// without it that phase gets exactly 0 ns. Either way the phases sum to
/// the end-to-end time.
#[test]
fn a_stalled_sequencer_is_charged_to_the_sequencer_phase() {
    let workload = SyntheticOps {
        objects: 200,
        ..SyntheticOps::default()
    };
    let sequencer_ns = |plan: FaultPlan| {
        let anatomy = Anatomy::new();
        let params = open_loop(4_711, 300.0, 1, RuntimeConfig::default());
        let report = run_app(&workload, &params, |b| {
            b.protocol(ProtocolKind::HalfmoonRead)
                .faults(plan)
                .anatomy(anatomy.clone())
        })
        .report;
        assert_eq!(anatomy.ops(), report.completed);
        assert!(anatomy.max_rel_err() <= 0.01, "{}", anatomy.max_rel_err());
        let totals = anatomy.phase_totals_ns();
        let sum = totals.iter().sum::<u128>() as f64;
        let e2e = anatomy.e2e_total_ns() as f64;
        assert!((sum - e2e).abs() <= 0.01 * e2e, "phases {sum} vs e2e {e2e}");
        totals[Phase::Sequencer.index()]
    };
    let stall = FaultPlan::new().stall_sequencer_at(
        Duration::from_millis(500),
        ShardId(0),
        Duration::from_millis(20),
    );
    assert!(sequencer_ns(stall) > 0);
    assert_eq!(sequencer_ns(FaultPlan::new()), 0);
}

/// A child invocation's context crosses the `Invoker` boundary as an
/// argument: under crashes and §5.1 peers, every child's `invocation` span
/// nests under the `invoke` op that issued it, on the parent's trace, and
/// no attempt roots a trace of its own beside the requests.
#[test]
fn a_childs_invocation_nests_under_its_parents_invoke() {
    let workload = Travel {
        hotels: 20,
        users: 30,
    };
    let tracer = Tracer::with_capacity(1 << 20);
    let anatomy = Anatomy::new();
    let config = RuntimeConfig {
        duplicate_prob: 0.05,
        ..RuntimeConfig::default()
    };
    let out = run_app(&workload, &open_loop(777, 300.0, 2, config), |b| {
        b.faults(FaultPolicy::random(0.004, 200))
            .tracer(tracer.clone())
            .anatomy(anatomy.clone())
    });
    let (report, runtime) = (&out.report, &out.runtime);
    assert!(report.completed > 400, "{report:?}");
    assert!(runtime.retries() > 0 && runtime.duplicates() > 0);
    assert_eq!(anatomy.ops(), report.completed);
    assert_eq!(tracer.events_dropped(), 0);
    let jsonl = tracer.export_jsonl();
    let begins = || jsonl.lines().filter(|l| field(l, "ph") == "B");
    // span id → (name, trace)
    let spans: FxHashMap<&str, (&str, &str)> = begins()
        .map(|l| (field(l, "span"), (field(l, "name"), field(l, "trace"))))
        .collect();
    let requests: FxHashSet<&str> = begins()
        .filter(|l| field(l, "name") == "request")
        .map(|l| field(l, "trace"))
        .collect();
    let mut children = 0;
    for line in begins() {
        match field(line, "name") {
            "invocation" => {
                let (parent, trace) = spans[field(line, "parent")];
                assert!(parent == "request" || parent == "invoke", "{line}");
                assert_eq!(trace, field(line, "trace"), "{line}");
                children += usize::from(parent == "invoke");
            }
            "attempt" => assert!(requests.contains(field(line, "trace")), "{line}"),
            _ => {}
        }
    }
    assert!(children > 1000, "{children} child invocations");
}
