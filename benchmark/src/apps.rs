//! The three application workloads: one open-loop run of the §6.3
//! synthetic function through `Gateway::run_open_loop`, on a fresh
//! deployment, at a fixed seed.
//!
//! A *round* is one such run. The harness repeats rounds of the same seed
//! until its time is up: every round does the same virtual work (checked
//! through the fingerprint), so host metrics are medians over rounds and
//! virtual metrics are exact per seed.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use halfmoon::{Client, FaultPlan, FaultPolicy, GarbageCollector, ProtocolKind, ShardId};
use hm_bench::alloc::AllocSnapshot;
use hm_common::anatomy::{Anatomy, Phase};
use hm_common::flightrec::FlightRecorder;
use hm_common::metrics::OpCounters;
use hm_common::trace::{MetricsRegistry, Tracer};
use hm_common::NodeId;
use hm_runtime::{
    audit, ChaosDriver, Gateway, GcDriver, LoadSpec, MetricsDriver, RequestFactory, Runtime,
    RuntimeConfig,
};
use hm_substrate::sim::Sim;
use hm_workloads::synthetic::SyntheticOps;
use hm_workloads::Workload;

use crate::round::RoundReport;
use crate::util::{count_at_or_below, growth_ratio, mix, quantile_ms};

/// The latency limit behind `virt_goodput_ops_s`.
pub const SLO: Duration = Duration::from_millis(100);

/// Which nodes crash when is part of the `crash_recovery` workload, not of
/// its seed: a node crash empties that node's `TaskGroup` waker list, so a
/// seeded schedule moved `host_us_per_op` by 39 % between seeds. The seed
/// still draws the requests, the crash points and every latency.
const NODE_CRASH_PLAN: u64 = 0x5EED_C4A5;

/// Sizes of one application workload. Constants of the benchmark, not
/// flags: a change of size is a change of benchmark.
#[derive(Clone, Copy, Debug)]
pub struct AppShape {
    pub protocol: ProtocolKind,
    pub ops: SyntheticOps,
    /// Open-loop Poisson arrival rate, requests per virtual second.
    pub rate: f64,
    pub warmup: Duration,
    pub window: Duration,
    /// `GcDriver` period during the load; `None` runs one collection after
    /// the drain instead, inside the timed load phase.
    pub gc_interval: Option<Duration>,
    /// Crash points, node crashes, a replica outage and a sequencer stall,
    /// with the history recorder on and the audit run afterwards.
    pub chaos: bool,
}

impl AppShape {
    /// §6.3 below the knee: ≈45 % of the 64 worker slots busy, no queue.
    pub fn steady_mixed() -> AppShape {
        AppShape {
            protocol: ProtocolKind::HalfmoonRead,
            ops: SyntheticOps::default(),
            rate: 1000.0,
            warmup: Duration::from_millis(500),
            window: Duration::from_secs(5),
            gc_interval: Some(Duration::from_secs(1)),
            chaos: false,
        }
    }

    /// The same deployment and mix offered at 3× the ≈2.2k req/s worker-slot
    /// knee for 0.7 s, then drained: differs from `steady_mixed` only in
    /// rate, so it isolates admission queueing (≈3000 requests queued).
    ///
    /// Three times, not the 1.35× first planned: close above the knee the
    /// backlog is the small difference of two large rates and the Poisson
    /// noise of the arrival count moved `virt_p50_ms` by 24 % between
    /// seeds. No warmup: the burst meets an idle system, so its first
    /// requests still meet the latency limit and goodput is never zero.
    pub fn overload_backlog() -> AppShape {
        AppShape {
            rate: 6600.0,
            warmup: Duration::ZERO,
            window: Duration::from_millis(700),
            ..AppShape::steady_mixed()
        }
    }

    /// Write-heavy mix on the write-optimised protocol under a fault plan.
    pub fn crash_recovery() -> AppShape {
        AppShape {
            protocol: ProtocolKind::HalfmoonWrite,
            ops: SyntheticOps {
                objects: 1_000,
                value_bytes: 1024,
                ops_per_request: 10,
                read_ratio: 0.2,
            },
            rate: 1000.0,
            warmup: Duration::from_millis(500),
            window: Duration::from_secs(12),
            // A collection that runs beside the load trims the step log of
            // an instance whose finish record is in the log while a late
            // retry of it (crashed after the append) is reading that log,
            // and `LogService::fetch` panics: one seed in forty hit it.
            gc_interval: None,
            chaos: true,
        }
    }

    /// Faults fire on a virtual-time schedule, so requests due during an
    /// outage are counted. Every event, recoveries included, falls inside
    /// the generation window: the run ends with the schedule done.
    fn fault_plan(&self) -> FaultPlan {
        let horizon = (self.warmup + self.window).saturating_sub(Duration::from_secs(1));
        FaultPlan::new()
            .instance_faults(FaultPolicy::per_attempt(0.1, 30, u32::MAX))
            .seeded_node_crashes(
                NODE_CRASH_PLAN,
                0.5,
                Duration::from_millis(500),
                horizon,
                RuntimeConfig::default().nodes,
            )
            .fail_replica_at(horizon / 4, ShardId(0), 0, Duration::from_secs(2))
            .stall_sequencer_at(horizon / 2, ShardId(0), Duration::from_millis(40))
    }
}

/// Which of the program's observers a round attaches (all off for the
/// end-to-end metrics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Observers {
    pub tracer: bool,
    pub anatomy: bool,
    pub flightrec: bool,
    pub metrics_driver: bool,
}

impl Observers {
    pub const NONE: Observers = Observers {
        tracer: false,
        anatomy: false,
        flightrec: false,
        metrics_driver: false,
    };

    /// The observers by the names the command line gives them.
    pub fn named(&mut self) -> [(&'static str, &mut bool); 4] {
        [
            ("tracer", &mut self.tracer),
            ("anatomy", &mut self.anatomy),
            ("flightrec", &mut self.flightrec),
            ("metrics_driver", &mut self.metrics_driver),
        ]
    }
}

/// Runs one round. `spin` busy-waits that long inside the benchmark's own
/// factory wrapper (the sensitivity self-check's injected cost).
pub fn app_round(shape: &AppShape, seed: u64, observers: Observers, spin: Duration) -> RoundReport {
    let t0 = Instant::now();
    let mut sim = Sim::new(seed);
    let mut builder = Client::builder(sim.ctx()).protocol(shape.protocol);
    if shape.chaos {
        builder = builder.faults(shape.fault_plan()).recorder();
    }
    let tracer = observers.tracer.then(Tracer::new);
    let anatomy = observers.anatomy.then(Anatomy::new);
    if let Some(t) = &tracer {
        builder = builder.tracer(t.clone());
    }
    if let Some(a) = &anatomy {
        builder = builder.anatomy(a.clone());
    }
    if observers.flightrec {
        builder = builder.flight_recorder(FlightRecorder::new());
    }
    let client = builder.build();
    shape.ops.populate(&client);
    let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
    shape.ops.register(&runtime);
    let gc = shape
        .gc_interval
        .map(|every| GcDriver::start(client.clone(), NodeId(0), every));
    let chaos = ChaosDriver::start(&runtime);
    let metrics = observers.metrics_driver.then(|| {
        MetricsDriver::start(
            client.clone(),
            MetricsRegistry::new(),
            Duration::from_millis(100),
        )
    });

    // The benchmark's own factory wrapper: counts ops and stamps each
    // generation instant on the host clock.
    let stamps: Rc<RefCell<Vec<Instant>>> = Rc::new(RefCell::new(Vec::new()));
    let allocs_at_first = Rc::new(Cell::new(None::<AllocSnapshot>));
    let inner = shape.ops.factory();
    let factory: RequestFactory = {
        let stamps = stamps.clone();
        let allocs_at_first = allocs_at_first.clone();
        Rc::new(move |rng, seq| {
            if allocs_at_first.get().is_none() {
                allocs_at_first.set(Some(AllocSnapshot::take()));
            }
            stamps.borrow_mut().push(Instant::now());
            if !spin.is_zero() {
                let until = Instant::now() + spin;
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
            inner(rng, seq)
        })
    };

    // Measurement windows of the storage gauges and counters open when
    // the warmup ends, like `hm_bench::run_app`.
    let at_warmup = Rc::new(Cell::new((OpCounters::default(), OpCounters::default())));
    {
        let (client, ctx, at_warmup, warmup) = (
            client.clone(),
            client.ctx().clone(),
            at_warmup.clone(),
            shape.warmup,
        );
        ctx.clone().spawn(async move {
            ctx.sleep(warmup).await;
            client.log().reset_storage_window();
            client.store().reset_storage_window();
            at_warmup.set((client.log().counters(), client.store().counters()));
        });
    }
    let gateway = Gateway::new(runtime.clone());
    let spec = LoadSpec {
        rate_per_sec: shape.rate,
        duration: shape.window,
        warmup: shape.warmup,
        factory,
    };
    let collect_after = gc
        .is_none()
        .then(|| GarbageCollector::new(client.clone(), NodeId(0)));
    let ctx = client.ctx().clone();
    let (report, drained_at, collected) = sim.block_on(async move {
        let report = gateway.run_open_loop(spec).await;
        let drained_at = ctx.now();
        let collected = match collect_after {
            Some(gc) => Some(gc.collect().await),
            None => None,
        };
        (report, drained_at, collected)
    });
    let t_end = Instant::now();
    let allocs_end = AllocSnapshot::take();
    let (gc_instances, gc_versions) = match (&gc, collected) {
        (Some(driver), _) => {
            driver.stop();
            let totals = driver.totals();
            (totals.instances_reclaimed, totals.versions_deleted)
        }
        (None, Some(stats)) => (
            stats.instances_reclaimed as u64,
            stats.versions_deleted as u64,
        ),
        (None, None) => (0, 0),
    };
    if let Some(m) = &metrics {
        m.stop();
    }

    let stamps = stamps.borrow();
    let first = stamps.first().copied().unwrap_or(t_end);
    let ops = stamps.len() as u64;

    let mut out = RoundReport::default();
    out.set_host("setup_s", (first - t0).as_secs_f64());
    out.set_host("load_s", (t_end - first).as_secs_f64());
    out.set_host(
        "allocs",
        allocs_at_first
            .get()
            .map_or(0, |a| allocs_end.since(&a).allocs) as f64,
    );
    out.set_host("host_growth_ratio", growth_ratio(&stamps));

    if shape.chaos {
        let t = Instant::now();
        let verdict = audit(&client);
        out.set_host("audit_s", t.elapsed().as_secs_f64());
        if !verdict.passed() {
            out.failures.push(format!("{verdict}"));
        }
        if !chaos.is_done() {
            out.failures
                .push("chaos schedule did not finish".to_string());
        }
        if runtime.node_crashes() == 0 || runtime.retries() == 0 {
            out.failures.push(format!(
                "fault plan too quiet: {} node crashes, {} retries",
                runtime.node_crashes(),
                runtime.retries()
            ));
        }
    } else {
        out.set_host("audit_s", 0.0);
    }
    if report.errors != 0 {
        out.failures
            .push(format!("{} requests returned an error", report.errors));
    }

    let (log0, store0) = at_warmup.get();
    let log = client.log().counters().since(&log0);
    let store = client.store().counters().since(&store0);
    let within_slo = count_at_or_below(&report.latency, SLO.as_nanos() as u64);
    let recovery = client.recovery_stats();
    let op_latencies = client.op_latencies();
    let window_s = shape.window.as_secs_f64();
    let completed = report.completed.max(1) as f64;
    let counts: [(&str, u64); 29] = [
        ("ops", ops),
        ("polls", sim.poll_count()),
        ("generated", report.generated),
        ("completed", report.completed),
        ("errors", report.errors),
        ("within_slo", within_slo),
        ("queue_peak", report.peak_queue as u64),
        ("invocations", runtime.invocations()),
        ("retries", runtime.retries()),
        ("node_crashes", runtime.node_crashes()),
        ("chaos_injected", chaos.injected()),
        ("recovery_attempts", recovery.attempts),
        ("replayed_records", recovery.replayed_records),
        ("gc_instances", gc_instances),
        ("gc_versions", gc_versions),
        ("store_versions", client.store().version_count() as u64),
        ("store_keys_written", client.written_keys().len() as u64),
        ("live_records", client.log().live_records() as u64),
        ("env_reads", op_latencies.read.count()),
        ("env_writes", op_latencies.write.count()),
        ("log.appends", log.log_appends),
        ("log.reads", log.log_reads),
        ("log.trims", log.log_trims),
        ("log.cache_hits", log.cache_hits),
        ("log.cache_misses", log.cache_misses),
        ("store.reads", store.db_reads),
        ("store.writes", store.db_writes),
        ("store.cond_writes", store.db_cond_writes),
        ("store.deletes", store.db_deletes),
    ];
    let mut fingerprint = mix(0, sim.now().as_nanos() as u64);
    for (name, n) in counts {
        out.set_virt(name, n as f64);
        // Polls are schedule, not result: a host-only change may save some.
        if name != "polls" {
            fingerprint = mix(fingerprint, n);
        }
    }
    out.set_virt("virt_p50_ms", quantile_ms(&report.latency, 0.5));
    out.set_virt("virt_p99_ms", quantile_ms(&report.latency, 0.99));
    out.set_virt("virt_p999_ms", quantile_ms(&report.latency, 0.999));
    out.set_virt("virt_goodput_ops_s", within_slo as f64 / window_s);
    out.set_virt("log_appends_per_op", log.log_appends as f64 / completed);
    out.set_virt(
        "storage_avg_mb",
        (client.log().average_bytes() + client.store().average_bytes()) / 1e6,
    );
    out.set_virt(
        "virt_drain_s",
        drained_at
            .saturating_sub(shape.warmup + shape.window)
            .as_secs_f64(),
    );
    for name in ["virt_p50_ms", "virt_p99_ms", "storage_avg_mb"] {
        fingerprint = mix(fingerprint, out.get(name).to_bits());
    }
    out.fingerprint = fingerprint;

    if let Some(a) = &anatomy {
        // Phase totals over the e2e total: which modelled resource the
        // virtual latency is made of.
        let totals = a.phase_totals_ns();
        let e2e = a.e2e_total_ns().max(1) as f64;
        let share =
            |phases: &[Phase]| phases.iter().map(|p| totals[p.index()]).sum::<u128>() as f64 / e2e;
        for (name, phases) in VIRT_SHARES {
            out.set_virt(&format!("virt.share.{name}"), share(phases));
        }
        let admission_p50_ns = a
            .waterfall()
            .iter()
            .find(|s| s.phase == Some(Phase::Admission))
            .map_or(0, |s| s.p50_ns);
        out.set_virt("admission_wait_p50_ms", admission_p50_ns as f64 / 1e6);
        // Slot-seconds held by measured requests over slot-seconds offered
        // from the end of the warmup to the last completion.
        let slots = f64::from(runtime.config().nodes * runtime.config().workers_per_node);
        let held_s = (a.e2e_total_ns() - totals[Phase::Admission.index()]) as f64 / 1e9;
        let offered_s = drained_at.saturating_sub(shape.warmup).as_secs_f64();
        out.set_virt("worker_util", held_s / (slots * offered_s));
    }
    out
}

/// The anatomy's fourteen phases folded into the ten the report names.
pub const VIRT_SHARES: [(&str, &[Phase]); 10] = [
    ("admission", &[Phase::Admission]),
    ("dispatch_exec", &[Phase::Dispatch, Phase::Execution]),
    (
        "proto",
        &[Phase::ProtoRead, Phase::ProtoWrite, Phase::ProtoTxn],
    ),
    ("log_hop", &[Phase::LogHop]),
    ("batch_wait", &[Phase::BatchWait]),
    ("sequencer", &[Phase::Sequencer]),
    ("quorum", &[Phase::Quorum]),
    ("log_read", &[Phase::LogRead]),
    ("store_io", &[Phase::StoreIo]),
    ("replay_recovery", &[Phase::Replay, Phase::Recovery]),
];
