//! Chaos-engine integration tests: seeded multi-fault campaigns, with the
//! collector running beside the load, must leave every fault-tolerant
//! protocol exactly-once (the post-campaign auditor passes) with no failed
//! or unfinished request, on an unsharded unbatched log and on sharded,
//! batched ones; the unsafe baseline must demonstrably fail the same
//! audit, and a campaign's injection journal must be byte-identical across
//! runs.
//!
//! `collector_soak_with_peers` is the long form: `#[ignore]`d here, run in
//! release by `scripts/verify.sh`
//! (`cargo test --release -q --test chaos_tests -- --ignored`).

use std::time::Duration;

use halfmoon::{
    audit, AuditReport, Client, FaultPlan, FaultPolicy, ProtocolConfig, ProtocolKind, ShardId,
    Topology,
};
use hm_common::latency::LatencyModel;
use hm_common::NodeId;
use hm_runtime::chaos::ChaosDriver;
use hm_runtime::{Gateway, GcDriver, LoadReport, LoadSpec, Runtime, RuntimeConfig};
use hm_substrate::par_map;
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

/// A log layout: (shards, group-commit batch size).
type Layout = (u8, usize);

/// The default construction: one shard, no batching.
const UNSHARDED: Layout = (1, 1);

/// What one campaign run leaves: the audit verdict, the load report, the
/// injection counts (infrastructure, instance-level) and the journal.
struct Campaign {
    verdict: AuditReport,
    report: LoadReport,
    injected: u64,
    instance_crashes: u32,
    journal: String,
}

/// Runs `config` on a log laid out as `(shards, batch)` under the seeded
/// campaign, peers launched with `duplicate_prob` and a `GcDriver`
/// collecting every 500 ms.
fn run_campaign(
    config: ProtocolConfig,
    (shards, batch): Layout,
    seed: u64,
    duplicate_prob: f64,
) -> Campaign {
    let mut sim = Sim::new(0xc4a0 ^ seed);
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::calibrated())
        .protocol_config(config)
        .topology(Topology::sharded(shards))
        .batching(batch)
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
    let config = RuntimeConfig {
        duplicate_prob,
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::new(client.clone(), config);
    workload.register(&runtime);
    let chaos = ChaosDriver::start(&runtime);
    let gc = GcDriver::start(client.clone(), NodeId(0), Duration::from_millis(500));
    let gateway = Gateway::new(runtime);
    let spec = LoadSpec {
        rate_per_sec: 150.0,
        duration: Duration::from_secs(6),
        warmup: Duration::from_millis(500),
        factory: workload.factory(),
    };
    let report = sim.block_on(async move { gateway.run_open_loop(spec).await });
    gc.stop();
    assert!(report.completed > 300, "campaign load barely ran");
    assert!(chaos.is_done(), "schedule must fire fully within the run");
    Campaign {
        verdict: audit(&client),
        report,
        injected: chaos.injected(),
        instance_crashes: client.faults().injected(),
        journal: chaos.events_jsonl(),
    }
}

/// Every fault-tolerant configuration — the three uniform protocols plus
/// a switching (transitional) deployment — on every layout, over `seeds`:
/// each campaign bites (both infrastructure and instance faults fire, and
/// §5 recovery replays the log), its exactly-once audit passes, and no
/// request fails or is left unfinished.
fn assert_fault_tolerant(layouts: &[Layout], seeds: &[u64], duplicate_prob: f64) {
    // A `ProtocolConfig` is not `Sync`: each run builds its own from a
    // protocol and whether it switches.
    let configs = [
        (ProtocolKind::Boki, false),
        (ProtocolKind::HalfmoonRead, false),
        (ProtocolKind::HalfmoonWrite, false),
        (ProtocolKind::HalfmoonWrite, true),
    ];
    let runs: Vec<_> = layouts
        .iter()
        .flat_map(|&layout| configs.map(|config| (layout, config)))
        .flat_map(|run| seeds.iter().map(move |&seed| (run, seed)))
        .collect();
    par_map(&runs, 2, |&((layout, (kind, switching)), seed)| {
        let mut config = ProtocolConfig::uniform(kind);
        config.switching_enabled = switching;
        let label = if switching {
            "switching".to_string()
        } else {
            kind.to_string()
        };
        let run = run_campaign(config, layout, seed, duplicate_prob);
        let (shards, batch) = layout;
        let at = format!("{label}/{shards} shards/batch {batch}/seed {seed}");
        assert!(
            run.injected > 0 && run.instance_crashes > 0,
            "{at}: campaign injected nothing (infra {}, instance {})",
            run.injected,
            run.instance_crashes
        );
        run.verdict.assert_passed(&at);
        let recovery = run.verdict.recovery;
        assert!(
            recovery.attempts > 0 && recovery.replayed_records > 0,
            "{at}: §5 recovery must have replayed the log: {recovery:?}"
        );
        let (errors, unfinished) = (run.report.errors, run.report.unfinished);
        assert_eq!(
            (errors, unfinished),
            (0, 0),
            "{at}: failed, unfinished requests"
        );
    });
}

/// The campaigns at the tier-1 budget, unsharded and on 4 shards batching
/// 16. The retry storm launches peers, and the collector runs beside them.
#[test]
fn fault_tolerant_protocols_pass_the_auditor_under_chaos() {
    let seeds: Vec<u64> = (0..16).chain([42]).collect();
    assert_fault_tolerant(&[UNSHARDED, (4, 16)], &seeds, 0.0);
}

/// The collector soak: peers on 10 % of invocations throughout, 64 seeds
/// per configuration, on each combination of 1 or 4 shards and batch 1 or
/// 16.
#[test]
#[ignore = "a release-build soak; scripts/verify.sh runs it"]
fn collector_soak_with_peers() {
    let seeds: Vec<u64> = (0..64).collect();
    assert_fault_tolerant(&[UNSHARDED, (1, 16), (4, 1), (4, 16)], &seeds, 0.1);
}

/// The same campaigns catch the §1 anomaly: the unsafe baseline re-applies
/// raw writes on retry, so across a handful of seeds the auditor must fail
/// at least once — the auditor is demonstrably sound, not vacuously green.
#[test]
fn unsafe_baseline_fails_the_auditor_under_chaos() {
    let mut failures = 0;
    for seed in [11, 42, 99] {
        let Campaign {
            verdict,
            instance_crashes,
            ..
        } = run_campaign(
            ProtocolConfig::uniform(ProtocolKind::Unsafe),
            UNSHARDED,
            seed,
            0.0,
        );
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
        let run = run_campaign(
            ProtocolConfig::uniform(ProtocolKind::HalfmoonRead),
            UNSHARDED,
            7,
            0.0,
        );
        (format!("{}", run.verdict), run.injected, run.journal)
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
    let other = run_campaign(
        ProtocolConfig::uniform(ProtocolKind::HalfmoonRead),
        UNSHARDED,
        8,
        0.0,
    );
    assert_ne!(journal_a, other.journal, "seed must shape the journal");
}
