//! The replica quorum: latency with replicas down and degraded appends.

use hm_common::ids::TagKind;
use hm_substrate::sim::Sim;

use super::*;

fn setup() -> (Sim, LogService<u64>) {
    let sim = Sim::new(0x9e9);
    let log = LogService::new(
        sim.ctx(),
        LatencyModel::uniform_test_model(),
        LogConfig::default(),
    );
    (sim, log)
}

fn t() -> Tag {
    Tag::named(TagKind::StepLog, "rep")
}

async fn timed_append(log: &LogService<u64>, ctx: &hm_substrate::Ctx, v: u64) -> f64 {
    let start = ctx.now();
    log.append(NodeId(0), vec![t()], v).await;
    (ctx.now() - start).as_secs_f64() * 1e3
}

#[test]
fn full_quorum_matches_calibration() {
    let (mut sim, log) = setup();
    let ctx = sim.ctx();
    let l = log.clone();
    let ms = sim.block_on(async move { timed_append(&l, &ctx, 1).await });
    // Test model: constant 1.0 ms append end to end.
    assert!((ms - 1.0).abs() < 1e-6, "healthy append {ms}ms");
    assert_eq!(log.live_storage_replicas_on(ShardId(0)), 3);
    assert_eq!(log.degraded_appends(), 0);
}

#[test]
fn replica_failure_slows_appends_but_preserves_availability() {
    let (mut sim, log) = setup();
    let ctx = sim.ctx();
    let l = log.clone();
    let (healthy, down_one, down_two) = sim.block_on(async move {
        let healthy = timed_append(&l, &ctx, 1).await;
        l.fail_storage_replica_on(ShardId(0), 0);
        let down_one = timed_append(&l, &ctx, 2).await;
        l.fail_storage_replica_on(ShardId(0), 1);
        let down_two = timed_append(&l, &ctx, 3).await;
        (healthy, down_one, down_two)
    });
    assert!(down_one > healthy, "losing a replica must cost latency");
    assert!(down_two > down_one, "losing the quorum costs more");
    assert_eq!(log.live_storage_replicas_on(ShardId(0)), 1);
    // Below quorum strength: appends counted as degraded but succeed.
    assert_eq!(log.degraded_appends(), 1);
    assert_eq!(log.head_seqnum(), SeqNum(4), "all three appends landed");
}

#[test]
fn recovery_restores_full_speed() {
    let (mut sim, log) = setup();
    let ctx = sim.ctx();
    let l = log.clone();
    let ms = sim.block_on(async move {
        l.fail_storage_replica_on(ShardId(0), 2);
        timed_append(&l, &ctx, 1).await;
        l.recover_storage_replica_on(ShardId(0), 2);
        timed_append(&l, &ctx, 2).await
    });
    assert!((ms - 1.0).abs() < 1e-6, "recovered append {ms}ms");
    assert_eq!(log.live_storage_replicas_on(ShardId(0)), 3);
}

#[test]
fn total_outage_pays_reconfiguration() {
    let (mut sim, log) = setup();
    let ctx = sim.ctx();
    let l = log.clone();
    let ms = sim.block_on(async move {
        for r in 0..3 {
            l.fail_storage_replica_on(ShardId(0), r);
        }
        timed_append(&l, &ctx, 1).await
    });
    // Sequencer 0.4ms + 3 x 0.6ms storage = 2.2ms in the test model.
    assert!(ms > 2.0, "outage append {ms}ms");
    assert_eq!(log.degraded_appends(), 1);
}

/// Replica faults are shard-scoped; shard 0 is addressed explicitly.
#[test]
fn replica_faults_target_explicit_shard() {
    let (_sim, log) = setup();
    log.fail_storage_replica_on(ShardId(0), 1);
    assert_eq!(log.live_storage_replicas_on(ShardId(0)), 2);
    log.recover_storage_replica_on(ShardId(0), 1);
    assert_eq!(log.live_storage_replicas_on(ShardId(0)), 3);
}
