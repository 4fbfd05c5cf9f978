//! Full-stack integration: application workloads on the runtime with GC,
//! random crash injection, duplicate peers, and a mid-load protocol switch
//! — everything at once, with every consistency invariant checked.

use std::time::Duration;

use halfmoon::{audit, Client, FaultPolicy, ProtocolConfig, ProtocolKind, ShardId, Switcher};
use hm_common::latency::LatencyModel;
use hm_common::NodeId;
use hm_runtime::{Gateway, GcDriver, LoadSpec, Runtime, RuntimeConfig};
use hm_substrate::sim::Sim;
use hm_workloads::retwis::Retwis;
use hm_workloads::synthetic::SyntheticOps;
use hm_workloads::travel::Travel;
use hm_workloads::Workload;

#[test]
fn travel_with_crashes_duplicates_and_gc() {
    let mut sim = Sim::new(0xe2e1);
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::calibrated())
        .protocol(ProtocolKind::HalfmoonRead)
        .recorder()
        .build();
    client.set_fault_plan(FaultPolicy::random(0.002, 300));
    let workload = Travel {
        hotels: 40,
        users: 60,
    };
    workload.populate(&client);
    let rt_config = RuntimeConfig {
        duplicate_prob: 0.05,
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::new(client.clone(), rt_config);
    workload.register(&runtime);
    let gc = GcDriver::start(client.clone(), NodeId(0), Duration::from_secs(2));
    let gateway = Gateway::new(runtime.clone());
    let spec = LoadSpec {
        rate_per_sec: 150.0,
        duration: Duration::from_secs(10),
        warmup: Duration::from_secs(1),
        factory: workload.factory(),
    };
    let report = sim.block_on(async move { gateway.run_open_loop(spec).await });
    gc.stop();
    assert_eq!(report.errors, 0);
    assert!(report.completed > 1000, "completed {}", report.completed);
    assert!(runtime.retries() > 0, "crash injection should have fired");
    assert!(
        runtime.duplicates() > 0,
        "duplicate peers should have been launched"
    );
    assert!(gc.cycles() >= 4);
    assert!(
        gc.totals().instances_reclaimed > 500,
        "GC reclaimed finished SSFs"
    );
    audit(&client).assert_passed("travel with crashes duplicates and gc");
}

#[test]
fn retwis_under_halfmoon_write_with_crashes() {
    let mut sim = Sim::new(0xe2e2);
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::calibrated())
        .protocol(ProtocolKind::HalfmoonWrite)
        .recorder()
        .build();
    client.set_fault_plan(FaultPolicy::random(0.002, 300));
    let workload = Retwis {
        users: 50,
        tweet_bytes: 140,
        timeline_cap: 8,
    };
    workload.populate(&client);
    let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
    workload.register(&runtime);
    let gc = GcDriver::start(client.clone(), NodeId(0), Duration::from_secs(2));
    let gateway = Gateway::new(runtime);
    let spec = LoadSpec {
        rate_per_sec: 150.0,
        duration: Duration::from_secs(8),
        warmup: Duration::from_secs(1),
        factory: workload.factory(),
    };
    let report = sim.block_on(async move { gateway.run_open_loop(spec).await });
    gc.stop();
    assert_eq!(report.errors, 0);
    audit(&client).assert_passed("retwis under halfmoon write with crashes");
}

#[test]
fn switching_under_load_with_crashes_end_to_end() {
    let mut sim = Sim::new(0xe2e3);
    let mut config = ProtocolConfig::uniform(ProtocolKind::HalfmoonWrite);
    config.switching_enabled = true;
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::calibrated())
        .protocol_config(config)
        .recorder()
        .faults(FaultPolicy::random(0.001, 100))
        .build();
    let workload = SyntheticOps {
        objects: 500,
        value_bytes: 256,
        ops_per_request: 6,
        read_ratio: 0.5,
    };
    workload.populate(&client);
    let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
    workload.register(&runtime);
    let gc = GcDriver::start(client.clone(), NodeId(0), Duration::from_secs(2));
    let gateway = Gateway::new(runtime);
    // Load generator runs while two switches happen.
    let load = {
        let spec = LoadSpec {
            rate_per_sec: 120.0,
            duration: Duration::from_secs(9),
            warmup: Duration::from_millis(500),
            factory: workload.factory(),
        };
        sim.ctx()
            .spawn(async move { gateway.run_open_loop(spec).await })
    };
    let switches = {
        let client = client.clone();
        let ctx = sim.ctx();
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            let switcher = Switcher::new(client, NodeId(0));
            ctx2.sleep(Duration::from_secs(3)).await;
            let a = switcher
                .switch_to(ProtocolKind::HalfmoonRead)
                .await
                .unwrap();
            ctx2.sleep(Duration::from_secs(3)).await;
            let b = switcher
                .switch_to(ProtocolKind::HalfmoonWrite)
                .await
                .unwrap();
            (a, b)
        })
    };
    // run_until rather than run(): the periodic GC task's timer chain is
    // unbounded, so "no timers left" never happens while it is armed.
    sim.run_until(Duration::from_secs(40));
    gc.stop();
    let report = load.try_take().expect("load completed");
    let (a, b) = switches.try_take().expect("switches completed");
    assert_eq!(report.errors, 0);
    assert!(report.completed > 700);
    assert!(
        a.switching_delay() < Duration::from_secs(1),
        "delay {:?}",
        a.switching_delay()
    );
    assert!(
        b.switching_delay() < Duration::from_secs(1),
        "delay {:?}",
        b.switching_delay()
    );
    audit(&client).assert_passed("switching under load with crashes end to end");
}

#[test]
fn storage_stays_bounded_with_gc_over_long_run() {
    let mut sim = Sim::new(0xe2e4);
    let client = Client::new(
        sim.ctx(),
        LatencyModel::calibrated(),
        ProtocolConfig::uniform(ProtocolKind::HalfmoonRead),
    );
    let workload = SyntheticOps {
        objects: 200,
        value_bytes: 256,
        ops_per_request: 4,
        read_ratio: 0.3,
    };
    workload.populate(&client);
    let base_bytes = client.total_bytes();
    let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
    workload.register(&runtime);
    let gc = GcDriver::start(client.clone(), NodeId(0), Duration::from_secs(1));
    let gateway = Gateway::new(runtime);
    let spec = LoadSpec {
        rate_per_sec: 100.0,
        duration: Duration::from_secs(30),
        warmup: Duration::from_secs(1),
        factory: workload.factory(),
    };
    let load = sim
        .ctx()
        .spawn(async move { gateway.run_open_loop(spec).await });
    // Sample the footprint mid-run and at the end: with a 1s GC the
    // write-heavy Halfmoon-read deployment reaches a steady state (a small
    // multiple of the base data set) instead of growing with the ~3000
    // requests served.
    sim.run_until(Duration::from_secs(16));
    let mid_bytes = client.total_bytes();
    sim.run_until(Duration::from_secs(45));
    gc.stop();
    let report = load.try_take().expect("load completed");
    assert_eq!(report.errors, 0);
    let final_bytes = client.total_bytes();
    assert!(
        final_bytes < mid_bytes * 1.5,
        "storage kept growing after steady state: mid {mid_bytes:.0}B, final {final_bytes:.0}B"
    );
    assert!(
        final_bytes < base_bytes * 10.0,
        "footprint far beyond steady state: base {base_bytes:.0}B, final {final_bytes:.0}B"
    );
    assert!(
        gc.totals().versions_deleted > 1000,
        "GC was active: {:?}",
        gc.totals()
    );
}

/// A log storage replica fails mid-run and recovers: the layer stays
/// available (Boki-style reconfiguration), latencies degrade visibly
/// during the outage, and exactly-once semantics are unaffected.
#[test]
fn storage_replica_failure_degrades_but_preserves_correctness() {
    let mut sim = Sim::new(0xe2e5);
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::calibrated())
        .protocol(ProtocolKind::HalfmoonWrite)
        .recorder()
        .build();
    client.set_fault_plan(FaultPolicy::random(0.002, 100));
    let workload = SyntheticOps {
        objects: 300,
        value_bytes: 256,
        ops_per_request: 6,
        read_ratio: 0.6,
    };
    workload.populate(&client);
    let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
    workload.register(&runtime);
    let gateway = Gateway::new(runtime);
    let load = {
        let spec = LoadSpec {
            rate_per_sec: 120.0,
            duration: Duration::from_secs(9),
            warmup: Duration::from_millis(500),
            factory: workload.factory(),
        };
        sim.ctx()
            .spawn(async move { gateway.run_open_loop(spec).await })
    };
    // Fail a replica at t=3s, a second at t=4s, recover both at t=6s.
    {
        let client = client.clone();
        let ctx = sim.ctx();
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            ctx2.sleep(Duration::from_secs(3)).await;
            client.log().fail_storage_replica_on(ShardId(0), 0);
            ctx2.sleep(Duration::from_secs(1)).await;
            client.log().fail_storage_replica_on(ShardId(0), 1);
            ctx2.sleep(Duration::from_secs(2)).await;
            client.log().recover_storage_replica_on(ShardId(0), 0);
            client.log().recover_storage_replica_on(ShardId(0), 1);
        });
    }
    sim.run_until(Duration::from_secs(45));
    let report = load.try_take().expect("load completed");
    assert_eq!(
        report.errors, 0,
        "availability preserved through the outage"
    );
    assert!(report.completed > 800);
    assert!(
        client.log().degraded_appends() > 0,
        "the below-quorum window must have been exercised"
    );
    assert_eq!(client.log().live_storage_replicas_on(ShardId(0)), 3);
    audit(&client).assert_passed("storage replica failure degrades but preserves correctness");
}

/// The series `MetricsRegistry::series_json` exported: its column names
/// and, per row, the virtual time in ns and the values.
fn parse_series(json: &str) -> (Vec<String>, Vec<(u128, Vec<f64>)>) {
    let columns = json
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"columns\": [")?.strip_suffix("],"))
        .expect("columns line in series_json")
        .split(',')
        .map(|c| c.trim_matches('"').to_string())
        .collect();
    let rows = json
        .lines()
        .filter_map(|l| {
            let (at, rest) = l
                .trim()
                .strip_prefix("{\"at_ns\":")?
                .split_once(",\"values\":[")?;
            let values = rest.split(']').next()?.split(',');
            Some((
                at.parse().unwrap(),
                values.map(|v| v.parse().unwrap()).collect(),
            ))
        })
        .collect();
    (columns, rows)
}

/// The metrics driver samples substrate counters into a registry as a
/// virtual-time series: one row per sample, spaced by the configured
/// interval, mirroring the log's own counters, monotone non-decreasing.
#[test]
fn metrics_driver_samples_substrate_counters() {
    let mut sim = Sim::new(0xe2e7);
    let client = Client::new(
        sim.ctx(),
        LatencyModel::calibrated(),
        ProtocolConfig::uniform(ProtocolKind::HalfmoonRead),
    );
    let workload = SyntheticOps {
        objects: 100,
        ..SyntheticOps::default()
    };
    workload.populate(&client);
    let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
    workload.register(&runtime);
    let registry = hm_common::trace::MetricsRegistry::new();
    let driver = hm_runtime::MetricsDriver::start(
        client.clone(),
        registry.clone(),
        Duration::from_millis(200),
    );
    let gateway = Gateway::new(runtime);
    let spec = LoadSpec {
        rate_per_sec: 80.0,
        duration: Duration::from_secs(2),
        warmup: Duration::ZERO,
        factory: workload.factory(),
    };
    let report = sim.block_on(async move { gateway.run_open_loop(spec).await });
    driver.stop();
    assert!(report.completed > 0);
    assert!(
        driver.samples() >= 5,
        "expected ≥5 samples at 200ms over 2s"
    );
    let (columns, rows) = parse_series(&registry.series_json());
    assert_eq!(rows.len(), driver.samples() as usize);
    assert!(columns.iter().any(|c| c == "log_appends"), "{columns:?}");
    // The mirror trails the live counter by at most the work done since
    // the last sample tick; it never exceeds it.
    let appends = registry.latest("log_appends").expect("a sampled row");
    assert!(appends > 0.0, "sampled counter never populated");
    assert!(
        appends <= client.log().counters().log_appends as f64,
        "registry mirror cannot exceed the log's own counter"
    );
    for pair in rows.windows(2) {
        assert!(pair[0].0 < pair[1].0, "samples advance in virtual time");
        for (a, b) in pair[0].1.iter().zip(&pair[1].1) {
            assert!(a <= b, "mirrored counters are monotone");
        }
    }
}

/// Per-shard columns under group commit: a 4-shard deployment with
/// batch-16 group commit samples each shard's counters as `shardN.*`. A
/// row is built in one synchronous tick, so in every row the shards'
/// `log_appends` must sum to the aggregate exactly; the group-commit
/// columns must be live; and the whole exported series must be
/// byte-identical across two runs of the same seed.
#[test]
fn metrics_driver_shard_mirrors_sum_under_batching() {
    let run = || -> String {
        let mut sim = Sim::new(0x3a2d_0042);
        let client = Client::builder(sim.ctx())
            .model(LatencyModel::calibrated())
            .protocol(ProtocolKind::HalfmoonRead)
            .topology(halfmoon::Topology::sharded(4))
            .batching(16)
            .build();
        let workload = SyntheticOps {
            objects: 100,
            ..SyntheticOps::default()
        };
        workload.populate(&client);
        let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
        workload.register(&runtime);
        let registry = hm_common::trace::MetricsRegistry::new();
        let driver =
            hm_runtime::MetricsDriver::start(client, registry.clone(), Duration::from_millis(200));
        let gateway = Gateway::new(runtime);
        let spec = LoadSpec {
            rate_per_sec: 120.0,
            duration: Duration::from_secs(2),
            warmup: Duration::ZERO,
            factory: workload.factory(),
        };
        let report = sim.block_on(async move { gateway.run_open_loop(spec).await });
        driver.stop();
        assert!(report.completed > 0);
        assert!(
            driver.samples() >= 5,
            "expected >=5 samples at 200ms over 2s"
        );
        let json = registry.series_json();
        let (columns, rows) = parse_series(&json);
        let idx = |name: &str| {
            columns
                .iter()
                .position(|c| c == name)
                .unwrap_or_else(|| panic!("missing column {name}"))
        };
        let agg = idx("log_appends");
        let shards: Vec<usize> = (0..4)
            .map(|s| idx(&format!("shard{s}.log_appends")))
            .collect();
        assert!(!rows.is_empty());
        for (_, values) in &rows {
            let sum: f64 = shards.iter().map(|&s| values[s]).sum();
            assert_eq!(
                sum, values[agg],
                "per-shard columns must sum to the aggregate in every row"
            );
        }
        assert!(
            registry.latest("flush.flushes") > Some(0.0),
            "batch 16 under load must flush"
        );
        json
    };
    let a = run();
    let b = run();
    assert_eq!(
        a, b,
        "metrics series must be byte-identical across two seeded runs"
    );
}
