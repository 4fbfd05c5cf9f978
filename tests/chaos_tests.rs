//! Chaos-engine integration tests: seeded multi-fault campaigns must leave
//! every fault-tolerant protocol exactly-once (the post-campaign auditor
//! passes), the unsafe baseline must demonstrably fail the same audit, and
//! a campaign's injection journal must be byte-identical across runs.

use std::time::Duration;

use halfmoon::{Client, FaultPlan, FaultPolicy, ProtocolConfig, ProtocolKind, ShardId};
use hm_common::latency::LatencyModel;
use hm_runtime::chaos::{audit, AuditReport, ChaosDriver};
use hm_runtime::{Gateway, LoadSpec, Runtime, RuntimeConfig};
use hm_substrate::sim::Sim;
use hm_workloads::synthetic::SyntheticOps;
use hm_workloads::Workload;

/// A seeded campaign: random instance crash points plus a Bernoulli
/// node-crash process, a replica outage, a sequencer stall, and a retry
/// storm — everything the injection API can express, compressed into a
/// few simulated seconds.
fn campaign(seed: u64) -> FaultPlan {
    FaultPlan::new()
        .instance_faults(FaultPolicy::random(0.004, 60))
        .node_recovery_delay(Duration::from_millis(300))
        .seeded_node_crashes(
            seed,
            0.4,
            Duration::from_millis(600),
            Duration::from_secs(5),
            8,
        )
        .fail_replica_at(
            Duration::from_secs(2),
            ShardId(0),
            1,
            Duration::from_millis(1500),
        )
        .stall_sequencer_at(
            Duration::from_secs(3),
            ShardId(0),
            Duration::from_millis(30),
        )
        .retry_storm_at(Duration::from_millis(3500), 0.4, Duration::from_millis(400))
}

/// Runs `config` under the seeded campaign and returns the audit verdict
/// plus the injection counts (infrastructure, instance-level).
fn run_campaign(config: ProtocolConfig, seed: u64) -> (AuditReport, u64, u32, String) {
    let mut sim = Sim::new(0xc4a0 ^ seed);
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::calibrated())
        .protocol_config(config)
        .recorder()
        .faults(campaign(seed))
        .build();
    let workload = SyntheticOps {
        objects: 200,
        value_bytes: 64,
        ops_per_request: 6,
        read_ratio: 0.5,
    };
    workload.populate(&client);
    let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
    workload.register(&runtime);
    let chaos = ChaosDriver::start(&runtime);
    let gateway = Gateway::new(runtime);
    let spec = LoadSpec {
        rate_per_sec: 150.0,
        duration: Duration::from_secs(6),
        warmup: Duration::from_millis(500),
        factory: workload.factory(),
    };
    let report = sim.block_on(async move { gateway.run_open_loop(spec).await });
    assert!(report.completed > 300, "campaign load barely ran");
    assert!(chaos.is_done(), "schedule must fire fully within the run");
    let injected = chaos.injected();
    let instance_crashes = client.faults().injected();
    (
        audit(&client),
        injected,
        instance_crashes,
        chaos.events_jsonl(),
    )
}

/// Every fault-tolerant configuration — the three uniform protocols plus
/// a switching (transitional) deployment — survives seeded multi-fault
/// campaigns with its exactly-once audit intact, and the campaigns
/// actually bite (both infrastructure and instance faults fire).
#[test]
fn fault_tolerant_protocols_pass_the_auditor_under_chaos() {
    let mut configs: Vec<(String, ProtocolConfig)> = [
        ProtocolKind::Boki,
        ProtocolKind::HalfmoonRead,
        ProtocolKind::HalfmoonWrite,
    ]
    .into_iter()
    .map(|k| (k.to_string(), ProtocolConfig::uniform(k)))
    .collect();
    let mut switching = ProtocolConfig::uniform(ProtocolKind::HalfmoonWrite);
    switching.switching_enabled = true;
    configs.push(("switching".to_string(), switching));

    for (label, config) in configs {
        for seed in [11, 42] {
            let (verdict, injected, instance_crashes, _) = run_campaign(config.clone(), seed);
            assert!(
                injected > 0 && instance_crashes > 0,
                "{label}/seed {seed}: campaign injected nothing \
                 (infra {injected}, instance {instance_crashes})"
            );
            assert!(
                verdict.passed(),
                "{label}/seed {seed}: exactly-once audit failed: {verdict}"
            );
            assert!(
                verdict.recovery.attempts > 0 && verdict.recovery.replayed_records > 0,
                "{label}/seed {seed}: §5 recovery must have replayed the log: {:?}",
                verdict.recovery
            );
        }
    }
}

/// The same campaigns catch the §1 anomaly: the unsafe baseline re-applies
/// raw writes on retry, so across a handful of seeds the auditor must fail
/// at least once — the auditor is demonstrably sound, not vacuously green.
#[test]
fn unsafe_baseline_fails_the_auditor_under_chaos() {
    let mut failures = 0;
    for seed in [11, 42, 99] {
        let (verdict, _, instance_crashes, _) =
            run_campaign(ProtocolConfig::uniform(ProtocolKind::Unsafe), seed);
        assert!(instance_crashes > 0, "seed {seed}: no crashes injected");
        if !verdict.passed() {
            assert!(
                verdict
                    .violations
                    .iter()
                    .any(|v| v.starts_with("raw_write_uniqueness")),
                "seed {seed}: expected a duplicated raw write, got: {verdict}"
            );
            failures += 1;
        }
    }
    assert!(
        failures > 0,
        "the unsafe baseline never failed the audit — the auditor can't \
         distinguish it from the fault-tolerant protocols"
    );
}

/// A failing audit is the flight recorder's primary trigger: running the
/// unsafe baseline under the seeded campaign with a recorder attached must
/// leave a black-box dump behind — the triggering violation, the
/// fault-injection incidents that preceded it, and the retained per-op
/// phase stamps — and the dump itself is deterministic across reruns.
#[test]
fn failed_audit_dumps_the_flight_recorder() {
    let run = |seed: u64| {
        let mut sim = Sim::new(0xc4a0 ^ seed);
        let fr = hm_common::flightrec::FlightRecorder::new();
        let client = Client::builder(sim.ctx())
            .model(LatencyModel::calibrated())
            .protocol_config(ProtocolConfig::uniform(ProtocolKind::Unsafe))
            .recorder()
            .anatomy(hm_common::anatomy::Anatomy::new())
            .flight_recorder(fr.clone())
            .faults(campaign(seed))
            .build();
        let workload = SyntheticOps {
            objects: 200,
            value_bytes: 64,
            ops_per_request: 6,
            read_ratio: 0.5,
        };
        workload.populate(&client);
        let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
        workload.register(&runtime);
        let chaos = ChaosDriver::start(&runtime);
        let gateway = Gateway::new(runtime);
        let spec = LoadSpec {
            rate_per_sec: 150.0,
            duration: Duration::from_secs(6),
            warmup: Duration::from_millis(500),
            factory: workload.factory(),
        };
        let _ = sim.block_on(async move { gateway.run_open_loop(spec).await });
        assert!(chaos.is_done(), "schedule must fire fully within the run");
        let verdict = audit(&client);
        (verdict, fr)
    };
    // The unsafe baseline fails the audit for at least one of these seeds
    // (pinned by `unsafe_baseline_fails_the_auditor_under_chaos`); the
    // first failing seed exercises the dump path.
    let failing = [11u64, 42, 99]
        .into_iter()
        .find(|&seed| !run(seed).0.passed())
        .expect("unsafe baseline never failed the audit");
    let (verdict, fr) = run(failing);
    assert!(!verdict.passed());
    assert!(fr.dumps() > 0, "failed audit must trigger a dump");
    let dump = fr.last_dump().expect("dump must be retained");
    assert!(!dump.is_empty());
    assert!(
        dump.contains("\"trigger\":\"audit_violation\""),
        "dump must name its trigger: {dump}"
    );
    assert!(
        dump.contains("\"incident\":\"fault_injected\""),
        "dump must carry the preceding fault injections"
    );
    assert!(
        dump.contains("\"phases\":{"),
        "dump must carry retained phase-stamp rows"
    );
    // Black-box forensics are as reproducible as the campaign itself.
    let (_, fr_b) = run(failing);
    assert_eq!(
        dump,
        fr_b.last_dump().expect("rerun must also dump"),
        "same seed must produce a byte-identical dump"
    );
}

/// A chaos campaign is deterministic end to end: the injection journal —
/// fire times, event kinds, operands — is byte-identical across two runs
/// of the same seeds, and so is the audit summary.
#[test]
fn campaign_journal_is_byte_identical_across_runs() {
    let run = || {
        let (verdict, injected, _, journal) =
            run_campaign(ProtocolConfig::uniform(ProtocolKind::HalfmoonRead), 7);
        (format!("{verdict}"), injected, journal)
    };
    let (verdict_a, injected_a, journal_a) = run();
    let (verdict_b, injected_b, journal_b) = run();
    assert!(injected_a > 0);
    assert!(!journal_a.is_empty());
    assert_eq!(journal_a, journal_b, "journals must match byte-for-byte");
    assert_eq!(injected_a, injected_b);
    assert_eq!(verdict_a, verdict_b, "audits of identical runs must agree");
    // Different seed, different campaign: the journal must actually
    // depend on the schedule, not be a constant.
    let (_, _, _, other) = run_campaign(ProtocolConfig::uniform(ProtocolKind::HalfmoonRead), 8);
    assert_ne!(journal_a, other, "seed must shape the journal");
}
