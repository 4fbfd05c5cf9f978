//! Group-commit batching integration tests: batching must change *when*
//! work happens, never *what* the client observes. A batched deployment
//! produces the same recorded operation history as an unbatched one, a
//! recovery that lands mid-flush counts each parked record exactly once
//! (the `RecoveryStats` double-count regression), and a batched chaos
//! campaign still passes the exactly-once auditor.

use std::time::Duration;

use halfmoon::{
    audit, Client, FaultPlan, FaultPolicy, OpRecord, ProtocolKind, ShardId, StepRecord, Topology,
};
use hm_common::latency::LatencyModel;
use hm_common::{Key, NodeId, StepNum, Value};
use hm_runtime::{Runtime, RuntimeConfig};
use hm_substrate::{sim::Sim, Time};
use hm_workloads::synthetic::SyntheticOps;
use hm_workloads::{run_app, AppRun, AppRunOutput};

/// Runs the quickstart-style crash-and-retry deposit sequence at the
/// given batch size and shard count and returns the client-visible face
/// of the run: the recorded operation history (minus virtual timestamps,
/// which batching and sharding legitimately shift), the final balance,
/// and the append count.
fn deposit_run(batch: usize, shards: u8) -> (Vec<String>, Value, u64) {
    let mut sim = Sim::new(4242);
    let client = Client::builder(sim.ctx())
        .protocol(ProtocolKind::HalfmoonRead)
        .topology(Topology::sharded(shards))
        .batching(batch)
        .recorder()
        .faults(FaultPolicy::random(0.35, 5))
        .build();
    client.populate(Key::new("balance"), Value::Int(100));
    let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
    runtime.register("deposit", async move |env, input| {
        let amount = input.get("amount").and_then(Value::as_int).unwrap_or(0);
        let balance = env.read(&Key::new("balance")).await?.as_int().unwrap_or(0);
        env.compute().await;
        env.write(&Key::new("balance"), Value::Int(balance + amount))
            .await?;
        Ok(Value::Int(balance + amount))
    });
    let rt = runtime;
    let result = sim.block_on(async move {
        let mut last = Value::Null;
        for amount in [25i64, 17, -3] {
            let input = Value::map([("amount", Value::Int(amount))]);
            last = rt
                .invoke_request("deposit", input)
                .await
                .expect("exactly once");
        }
        last
    });
    let recorder = client.recorder().expect("recorder was requested");
    // Timestamps shift under batching (deadline waits); everything else —
    // instance, attempt, pc, and the operation itself — must not.
    let history: Vec<String> = recorder
        .events()
        .iter()
        .map(|e| format!("{:?}/{}/{}/{:?}", e.instance, e.attempt, e.pc, e.kind))
        .collect();
    (history, result, client.log().counters().log_appends)
}

/// The recorded operation history of a crashing, retrying workload is
/// identical with and without group commit, and on one shard or four:
/// same operations, same attempts, same program counters, same final
/// state, same append count.
#[test]
fn batching_preserves_the_client_visible_history() {
    let plain = deposit_run(1, 1);
    assert!(!plain.0.is_empty(), "recorder must have seen the run");
    assert_eq!(plain.1, Value::Int(100 + 25 + 17 - 3));
    for (batch, shards) in [(16, 1), (1, 4)] {
        let other = deposit_run(batch, shards);
        let label = format!("batch {batch}, {shards} shards");
        assert_eq!(
            plain.0, other.0,
            "{label}: operation history must not change"
        );
        assert_eq!(plain.1, other.1, "{label}");
        assert_eq!(plain.2, other.2, "{label}: append counts must not change");
    }
}

/// Regression test for the mid-flush double-count: a recovery that
/// arrives while records are still parked in an open batch force-flushes
/// them and must count them *once* in `replayed_records`, reporting the
/// forced subset in `pending_flushed` rather than adding it on top.
#[test]
fn recovery_counts_records_parked_mid_flush_exactly_once() {
    let mut sim = Sim::new(9);
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::uniform_test_model())
        .batching(8)
        .build();
    let ctx = sim.ctx();
    let id = client.fresh_instance_id();
    let tag = id.step_log_tag();
    for i in 0..3u32 {
        let log = client.log().clone();
        let c = ctx.clone();
        ctx.spawn(async move {
            c.sleep(Time::from_micros(u64::from(i))).await;
            let rec = StepRecord {
                instance: id,
                step: StepNum(i),
                op: OpRecord::Init {
                    input: Value::Int(i64::from(i)),
                },
            };
            log.append(NodeId(0), vec![tag], rec).await;
        });
    }
    let c = client.clone();
    let handle = ctx.spawn(async move {
        // Arrive while all three appends are parked in the open batch:
        // under the uniform test model they reach the sequencer at
        // 400–402µs, and the 200µs deadline fires at 600µs.
        c.ctx().sleep(Time::from_micros(450)).await;
        let (recs, replay) = c.log().replay_stream(NodeId(1), tag).await;
        assert_eq!(recs.len(), 3, "the forced flush must surface all records");
        c.note_recovery(replay);
        // A second replay finds nothing parked: the batch was flushed.
        let (recs2, replay2) = c.log().replay_stream(NodeId(1), tag).await;
        assert_eq!(recs2.len(), 3);
        c.note_recovery(replay2);
    });
    sim.run();
    handle.try_take().expect("replay task must finish");
    let stats = client.recovery_stats();
    assert_eq!(stats.attempts, 2);
    assert_eq!(
        stats.replayed_records, 6,
        "3 records per replay — forced-out records counted once, not twice"
    );
    assert_eq!(
        stats.pending_flushed, 3,
        "only the first replay found an open batch"
    );
    let flush = client.log().flush_stats();
    assert_eq!(flush.forced_trigger, 1);
    assert_eq!(flush.records, 3);
    assert_eq!(client.log().pending_batch_len(ShardId(0)), 0);
}

/// A seeded chaos campaign — instance crashes, node crashes, a replica
/// outage — over a *batched* sharded log still leaves every object
/// exactly-once: group commit must not let a crash smear a batch into
/// duplicated or lost effects.
#[test]
fn batched_chaos_campaign_passes_the_exactly_once_audit() {
    let plan = FaultPlan::new()
        .instance_faults(FaultPolicy::random(0.004, 40))
        .node_recovery_delay(Duration::from_millis(300))
        .seeded_node_crashes(
            7,
            0.35,
            Duration::from_millis(700),
            Duration::from_secs(4),
            8,
        )
        .fail_replica_at(
            Duration::from_secs(2),
            ShardId(0),
            1,
            Duration::from_millis(1200),
        );
    let workload = SyntheticOps {
        objects: 150,
        value_bytes: 64,
        ops_per_request: 6,
        read_ratio: 0.5,
    };
    let params = AppRun {
        seed: 0xbb06,
        rate: 150.0,
        duration: Duration::from_secs(5),
        warmup: Duration::from_millis(500),
        rt_config: RuntimeConfig::default(),
        gc_interval: None,
    };
    let AppRunOutput {
        client,
        chaos,
        report,
        ..
    } = run_app(&workload, &params, |b| {
        b.protocol(ProtocolKind::HalfmoonWrite)
            .batching(16)
            .recorder()
            .faults(plan)
    });
    assert!(report.completed > 200, "campaign load barely ran");
    assert!(chaos.injected() > 0, "the campaign must actually bite");
    let flush = client.log().flush_stats();
    assert!(flush.flushes > 0, "group commit must have engaged");
    assert!(
        flush.records >= flush.flushes,
        "every flush carries at least one record"
    );
    audit(&client).assert_passed("batched chaos campaign");
}
