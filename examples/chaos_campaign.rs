//! A deterministic chaos campaign (§5): one declarative [`FaultPlan`]
//! combining instance crash points, seeded whole-node crashes, a storage
//! replica outage, a sequencer stall, and a gateway retry storm — driven
//! against the travel-reservation workload, then audited for exactly-once
//! execution.
//!
//! Run with: `cargo run --release --example chaos_campaign`
//!
//! The campaign is fully deterministic: the schedule is expanded from its
//! own seed before the simulation starts, every injection is journaled,
//! and two runs export byte-identical JSONL journals.

use std::time::Duration;

use halfmoon::{Client, FaultPlan, FaultPolicy, ProtocolKind, ShardId};
use hm_runtime::chaos::{audit, ChaosDriver};
use hm_runtime::{Gateway, LoadSpec, Runtime, RuntimeConfig};
use hm_substrate::sim::Sim;
use hm_workloads::travel::Travel;
use hm_workloads::Workload;

fn main() {
    let mut sim = Sim::new(0xc405);

    // The whole campaign, declared up front: random instance crashes on
    // the §4 crash-point lattice, a Bernoulli node-crash process expanded
    // from seed 7, one storage replica outage, a sequencer stall, and a
    // retry storm that doubles gateway deliveries for half a second.
    let plan = FaultPlan::new()
        .instance_faults(FaultPolicy::random(0.002, 100))
        .node_recovery_delay(Duration::from_millis(400))
        .seeded_node_crashes(
            7,
            0.35,
            Duration::from_millis(700),
            Duration::from_secs(9),
            8,
        )
        .fail_replica_at(
            Duration::from_secs(3),
            ShardId(0),
            1,
            Duration::from_secs(2),
        )
        .stall_sequencer_at(
            Duration::from_secs(5),
            ShardId(0),
            Duration::from_millis(40),
        )
        .retry_storm_at(Duration::from_secs(6), 0.5, Duration::from_millis(500));

    let client = Client::builder(sim.ctx())
        .protocol(ProtocolKind::HalfmoonRead)
        .recorder()
        .faults(plan)
        .build();
    let workload = Travel {
        hotels: 40,
        users: 60,
    };
    workload.populate(&client);
    let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
    workload.register(&runtime);

    // The chaos driver compiles the schedule into sim events and fires
    // them on the virtual clock while the gateway generates load.
    let chaos = ChaosDriver::start(&runtime);
    let gateway = Gateway::new(runtime.clone());
    let spec = LoadSpec {
        rate_per_sec: 200.0,
        duration: Duration::from_secs(10),
        warmup: Duration::from_secs(1),
        factory: workload.factory(),
    };
    let report = sim.block_on(async move { gateway.run_open_loop(spec).await });

    println!("chaos campaign over travel @ 200 req/s, 10s simulated");
    println!("requests completed:   {}", report.completed);
    println!("faults injected:      {}", chaos.injected());
    println!("node crashes:         {}", runtime.node_crashes());
    println!("instance crashes:     {}", client.faults().injected());
    println!("re-executions:        {}", runtime.retries());
    let recovery = client.recovery_stats();
    println!(
        "recovery: {} attempts replayed {} step-log records ({} skipped as trimmed)",
        recovery.attempts, recovery.replayed_records, recovery.trimmed_skipped
    );
    assert!(chaos.is_done(), "the schedule must have fully fired");
    assert_eq!(report.errors, 0, "chaos must not surface client errors");

    // The injection journal: deterministic, byte-identical across runs.
    let journal = chaos.events_jsonl();
    println!("journal: {} injections recorded", journal.lines().count());

    // The exactly-once auditor: every generic idempotence check plus the
    // Proposition 4.7 sequential-consistency check for Halfmoon-read.
    let verdict = audit(&client);
    println!("{verdict}");
    assert!(verdict.passed(), "{verdict}");
}
