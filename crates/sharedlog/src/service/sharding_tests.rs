//! Shards and group commit: per-shard bytes and replicas, sequencer
//! lanes, flush triggers and batch peers.

use hm_common::ids::TagKind;
use hm_substrate::{sim::Sim, Time};

use super::*;
use crate::shard::RECORD_META_BYTES;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);

fn t(name: &str) -> Tag {
    Tag::named(TagKind::StepLog, name)
}

fn sharded(sim: &Sim, shards: u8) -> LogService<String> {
    LogService::new(
        sim.ctx(),
        LatencyModel::uniform_test_model(),
        LogConfig {
            topology: Topology::sharded(shards),
            ..LogConfig::default()
        },
    )
}

/// First ObjectLog tag (by index) that the given topology routes to
/// `want`.
fn tag_on_shard(shards: u8, want: u8) -> Tag {
    (0..10_000u64)
        .map(|i| Tag::new(TagKind::ObjectLog, i))
        .find(|&tag| shard_for_tag(tag, shards) == ShardId(want))
        .expect("some tag must land on every shard")
}

/// Distinct tag routed to the same shard as `other`.
fn second_tag_on_shard(shards: u8, want: u8, other: Tag) -> Tag {
    (0..10_000u64)
        .map(|i| Tag::new(TagKind::ObjectLog, i))
        .find(|&tag| tag != other && shard_for_tag(tag, shards) == ShardId(want))
        .expect("some second tag must land on the shard")
}

#[test]
fn same_shard_multi_tag_record_charges_bytes_once() {
    let mut sim = Sim::new(21);
    let log = sharded(&sim, 4);
    let a = tag_on_shard(4, 2);
    let b = second_tag_on_shard(4, 2, a);
    let l = log;
    sim.block_on(async move {
        let sn = l.append(N0, vec![a, b], "payload".into()).await;
        // One record, two streams on one shard — bytes charged once.
        let once = ("payload".len() + RECORD_META_BYTES) as f64;
        assert_eq!(l.current_bytes(), once);
        assert_eq!(l.shard_current_bytes(ShardId(2)), once);
        assert_eq!(l.read_prev(N0, a, SeqNum::MAX).await.unwrap().seqnum, sn);
        assert_eq!(l.read_prev(N0, b, SeqNum::MAX).await.unwrap().seqnum, sn);
        // Freed exactly once, when the second stream lets go.
        l.trim(N0, a, sn).await;
        assert_eq!(l.current_bytes(), once);
        l.trim(N0, b, sn).await;
        assert_eq!(l.current_bytes(), 0.0);
        assert_eq!(l.live_records(), 0);
    });
}

#[test]
fn cross_shard_multi_tag_record_stored_once_indexed_everywhere() {
    // The documented cross-shard policy: the record is stored (and its
    // bytes charged) once, on the first tag's home shard; foreign tags
    // get index-only stream entries that resolve through the slab.
    let mut sim = Sim::new(22);
    let log = sharded(&sim, 4);
    let a = tag_on_shard(4, 0);
    let b = tag_on_shard(4, 3);
    let l = log;
    sim.block_on(async move {
        let sn = l.append(N0, vec![a, b], "xs".into()).await;
        let once = ("xs".len() + RECORD_META_BYTES) as f64;
        assert_eq!(
            l.shard_current_bytes(ShardId(0)),
            once,
            "home = first tag's shard"
        );
        assert_eq!(l.shard_current_bytes(ShardId(3)), 0.0, "index-only entry");
        assert_eq!(l.current_bytes(), once);
        // Visible through both sub-streams.
        assert_eq!(l.read_prev(N0, a, SeqNum::MAX).await.unwrap().seqnum, sn);
        assert_eq!(l.read_prev(N0, b, SeqNum::MAX).await.unwrap().seqnum, sn);
        assert_eq!(l.peek_record(sn).unwrap().payload, "xs");
        // The appender cached it on both shards; another node caches
        // per shard it read through, so shard 0's copy does not serve
        // a read through shard 3.
        assert_eq!((l.counters().cache_hits, l.counters().cache_misses), (2, 0));
        l.read_prev(N1, a, SeqNum::MAX).await;
        l.read_prev(N1, a, SeqNum::MAX).await;
        assert_eq!((l.counters().cache_hits, l.counters().cache_misses), (3, 1));
        l.read_prev(N1, b, SeqNum::MAX).await;
        assert_eq!((l.counters().cache_hits, l.counters().cache_misses), (3, 2));
        assert_eq!((l.node_cache_len(N0), l.node_cache_len(N1)), (2, 2));
        // Trimming the foreign stream kills that membership only.
        l.trim(N0, b, sn).await;
        assert_eq!(l.live_records(), 1, "record survives via its home stream");
        assert_eq!(l.current_bytes(), once);
        // Trimming the home stream frees the bytes exactly once.
        l.trim(N0, a, sn).await;
        assert_eq!(l.live_records(), 0);
        assert_eq!(l.current_bytes(), 0.0);
        assert_eq!(l.shard_current_bytes(ShardId(0)), 0.0);
        assert_eq!(l.shard_current_bytes(ShardId(3)), 0.0);
    });
}

#[test]
fn replica_failure_is_shard_scoped() {
    let mut sim = Sim::new(23);
    let log = sharded(&sim, 2);
    let on0 = tag_on_shard(2, 0);
    let on1 = tag_on_shard(2, 1);
    let ctx = sim.ctx();
    let l = log;
    sim.block_on(async move {
        // Knock shard 1 below quorum; shard 0 keeps a full quorum.
        l.fail_storage_replica_on(ShardId(1), 0);
        l.fail_storage_replica_on(ShardId(1), 1);
        assert_eq!(l.live_storage_replicas_on(ShardId(0)), 3);
        assert_eq!(l.live_storage_replicas_on(ShardId(1)), 1);
        let start = ctx.now();
        l.append(N0, vec![on0], "fast".into()).await;
        let healthy_ms = (ctx.now() - start).as_secs_f64() * 1e3;
        assert!(
            (healthy_ms - 1.0).abs() < 1e-6,
            "shard 0 must stay at full speed: {healthy_ms}ms"
        );
        let start = ctx.now();
        l.append(N0, vec![on1], "slow".into()).await;
        let degraded_ms = (ctx.now() - start).as_secs_f64() * 1e3;
        assert!(degraded_ms > healthy_ms, "degraded shard must be slower");
        // Degraded-append accounting stays on the failed shard.
        assert_eq!(l.shard_degraded_appends(ShardId(0)), 0);
        assert_eq!(l.shard_degraded_appends(ShardId(1)), 1);
        assert_eq!(l.degraded_appends(), 1);
    });
}

#[test]
fn shards_share_one_seqnum_clock() {
    let mut sim = Sim::new(24);
    let log = sharded(&sim, 4);
    let a = tag_on_shard(4, 1);
    let b = tag_on_shard(4, 2);
    let l = log;
    sim.block_on(async move {
        let s1 = l.append(N0, vec![a], "1".into()).await;
        let s2 = l.append(N0, vec![b], "2".into()).await;
        let s3 = l.append(N0, vec![a], "3".into()).await;
        // Dense, globally comparable seqnums across shards.
        assert_eq!((s1, s2, s3), (SeqNum(1), SeqNum(2), SeqNum(3)));
        // Each record lives on its own tag's shard.
        let one = (1 + RECORD_META_BYTES) as f64;
        assert_eq!(l.shard_current_bytes(ShardId(1)), 2.0 * one);
        assert_eq!(l.shard_current_bytes(ShardId(2)), one);
        assert_eq!(l.head_seqnum(), SeqNum(4));
    });
}

#[test]
fn bounded_sequencer_queues_concurrent_appends() {
    // Uncapped, 8 concurrent appends all finish in one append latency
    // (1 ms in the test model). With a 1000/s sequencer each ordering
    // decision books 1 ms of lane time, so the last append waits out
    // the backlog.
    let run = |capacity: Option<f64>| {
        let mut sim = Sim::new(25);
        let log: LogService<String> = LogService::new(
            sim.ctx(),
            LatencyModel::uniform_test_model(),
            LogConfig {
                sequencer_capacity: capacity,
                ..LogConfig::default()
            },
        );
        let ctx = sim.ctx();
        let tag = Tag::named(TagKind::ObjectLog, "hot");
        for i in 0..8u32 {
            let l = log.clone();
            ctx.spawn(async move {
                l.append(NodeId(i % 4), vec![tag], format!("v{i}")).await;
            });
        }
        sim.run();
        (sim.now().as_secs_f64() * 1e3, log.head_seqnum())
    };
    let (uncapped_ms, uncapped_head) = run(None);
    let (capped_ms, capped_head) = run(Some(1000.0));
    assert_eq!(uncapped_head, SeqNum(9));
    assert_eq!(
        capped_head,
        SeqNum(9),
        "capacity delays appends, never drops them"
    );
    assert!(
        (uncapped_ms - 1.0).abs() < 1e-6,
        "uncapped appends overlap fully: {uncapped_ms}ms"
    );
    assert!(
        capped_ms >= 7.0,
        "a 1000/s lane must serialize 8 decisions: {capped_ms}ms"
    );
}

#[test]
fn more_shards_drain_a_saturated_sequencer_faster() {
    let run = |shards: u8| {
        let mut sim = Sim::new(26);
        let log: LogService<String> = LogService::new(
            sim.ctx(),
            LatencyModel::uniform_test_model(),
            LogConfig {
                topology: Topology::sharded(shards),
                sequencer_capacity: Some(2000.0),
                ..LogConfig::default()
            },
        );
        let ctx = sim.ctx();
        for w in 0..32u64 {
            let l = log.clone();
            ctx.spawn(async move {
                let tag = Tag::new(TagKind::ObjectLog, w);
                for i in 0..8u64 {
                    l.append(NodeId((w % 8) as u32), vec![tag], format!("{i}"))
                        .await;
                }
            });
        }
        sim.run();
        assert_eq!(log.counters().log_appends, 32 * 8);
        sim.now().as_secs_f64()
    };
    let one = run(1);
    let four = run(4);
    assert!(
        four < one,
        "4 shards must finish the same load sooner: {four}s vs {one}s"
    );
}

// ---- group-commit batching ----

fn setup_batched(batch: usize) -> (Sim, LogService<String>) {
    let sim = Sim::new(11);
    let log = LogService::new(
        sim.ctx(),
        LatencyModel::uniform_test_model(),
        LogConfig {
            batch_max_records: batch,
            ..LogConfig::default()
        },
    );
    (sim, log)
}

#[test]
fn size_triggered_batch_assigns_contiguous_seqnums_in_arrival_order() {
    let (mut sim, log) = setup_batched(4);
    let ctx = sim.ctx();
    let mut handles = Vec::new();
    for w in 0..4u64 {
        let l = log.clone();
        let c = ctx.clone();
        handles.push(ctx.spawn(async move {
            // Staggered starts force a deterministic arrival order.
            c.sleep(Time::from_micros(w)).await;
            l.append(
                NodeId(w as u32),
                vec![Tag::new(TagKind::ObjectLog, w)],
                format!("{w}"),
            )
            .await
        }));
    }
    sim.run();
    let sns: Vec<SeqNum> = handles.into_iter().map(|h| h.try_take().unwrap()).collect();
    assert_eq!(sns, vec![SeqNum(1), SeqNum(2), SeqNum(3), SeqNum(4)]);
    let flush = log.flush_stats();
    assert_eq!(flush.flushes, 1, "4 appends at batch=4 are one flush");
    assert_eq!(flush.records, 4);
    assert_eq!(flush.size_trigger, 1);
    assert_eq!(flush.deadline_trigger, 0);
    assert_eq!(log.counters().log_appends, 4);
}

#[test]
fn deadline_flushes_a_partial_batch() {
    let (mut sim, log) = setup_batched(64);
    let l = log.clone();
    let sn = sim.block_on(async move { l.append(N0, vec![t("solo")], "x".into()).await });
    assert_eq!(sn, SeqNum(1));
    let flush = log.flush_stats();
    assert_eq!(flush.flushes, 1);
    assert_eq!(flush.records, 1);
    assert_eq!(
        flush.deadline_trigger, 1,
        "a lone append must flush on the deadline"
    );
    assert_eq!(log.pending_batch_len(ShardId(0)), 0);
}

#[test]
fn batched_cond_append_still_resolves_exactly_one_winner() {
    let (mut sim, log) = setup_batched(8);
    let ctx = sim.ctx();
    let tag = t("step0");
    let mut handles = Vec::new();
    // Three peers race the same step position inside one batch: the
    // first to reach the sequencer wins, the rest adopt its record.
    for w in 0..3u32 {
        let l = log.clone();
        let c = ctx.clone();
        handles.push(ctx.spawn(async move {
            c.sleep(Time::from_micros(u64::from(w))).await;
            l.cond_append(NodeId(w), vec![tag], format!("peer{w}"), tag, 0)
                .await
        }));
    }
    sim.run();
    let outcomes: Vec<CondAppendOutcome> =
        handles.into_iter().map(|h| h.try_take().unwrap()).collect();
    let winners: Vec<SeqNum> = outcomes
        .iter()
        .filter_map(|o| match o {
            CondAppendOutcome::Appended(sn) => Some(*sn),
            CondAppendOutcome::Conflict(_) => None,
        })
        .collect();
    assert_eq!(
        winners,
        vec![SeqNum(1)],
        "exactly one peer must win the step"
    );
    for o in &outcomes[1..] {
        assert_eq!(*o, CondAppendOutcome::Conflict(SeqNum(1)));
    }
    assert_eq!(log.counters().cond_append_conflicts, 2);
    assert_eq!(log.counters().log_appends, 1, "losers' appends are undone");
}

#[test]
fn replay_stream_force_flushes_the_open_batch_and_counts_once() {
    let (mut sim, log) = setup_batched(64);
    let ctx = sim.ctx();
    let tag = t("recover-me");
    for i in 0..3u64 {
        let l = log.clone();
        let c = ctx.clone();
        ctx.spawn(async move {
            c.sleep(Time::from_micros(i)).await;
            l.append(N0, vec![tag], format!("r{i}")).await;
        });
    }
    let l = log.clone();
    let stats = ctx.spawn(async move {
        // Arrive while all three appends are parked in the open batch:
        // they reach the sequencer at ~400µs (the to-sequencer share of
        // the 1ms test-model sample) and the deadline fires at ~600µs.
        l.ctx.sleep(Time::from_micros(500)).await;
        let (recs, stats) = l.replay_stream(N1, tag).await;
        assert_eq!(recs.len(), 3);
        stats
    });
    sim.run();
    let stats = stats.try_take().unwrap();
    assert_eq!(
        stats.replayed, 3,
        "forced-out records are counted once, not twice"
    );
    assert_eq!(stats.pending_flushed, 3);
    assert_eq!(stats.trimmed, 0);
    let flush = log.flush_stats();
    assert_eq!(flush.forced_trigger, 1);
    assert_eq!(
        flush.deadline_trigger, 0,
        "the deadline task must stand down"
    );
    assert_eq!(log.pending_batch_len(ShardId(0)), 0);
}

#[test]
fn batch_of_one_reduces_to_the_unbatched_path_bit_identically() {
    // Sequential workload: every append flushes alone, so batching adds
    // no waiting partner and must not perturb a single RNG draw.
    let run = |batch: usize| {
        let (mut sim, log) = setup_batched(batch);
        let l = log.clone();
        sim.block_on(async move {
            for i in 0..16u32 {
                l.append(N0, vec![t("seq")], format!("{i}")).await;
            }
            let _ = l
                .cond_append(N0, vec![t("cond")], "c".into(), t("cond"), 0)
                .await;
        });
        (sim.now(), log.counters(), log.head_seqnum())
    };
    let unbatched = run(1);
    let batched_sequential = run(64);
    // batch=1 never reaches the batcher; batch=64 over a purely
    // sequential workload flushes every record alone via the deadline,
    // so virtual time differs only by the deadline waits — but counters
    // and seqnums must match exactly.
    assert_eq!(unbatched.1, batched_sequential.1);
    assert_eq!(unbatched.2, batched_sequential.2);
}

#[test]
fn batched_append_pays_one_admission_per_flush() {
    // A capacity-limited lane books 1/capacity per ordering decision.
    // With batching the decision covers the whole batch, so 64 writers
    // drain far sooner than 64 solo admissions would take.
    let run = |batch: usize| {
        let mut sim = Sim::new(7);
        let log: LogService<String> = LogService::new(
            sim.ctx(),
            LatencyModel::uniform_test_model(),
            LogConfig {
                sequencer_capacity: Some(1000.0),
                batch_max_records: batch,
                ..LogConfig::default()
            },
        );
        let ctx = sim.ctx();
        for w in 0..64u64 {
            let l = log.clone();
            ctx.spawn(async move {
                l.append(
                    NodeId(w as u32),
                    vec![Tag::new(TagKind::ObjectLog, w)],
                    "p".into(),
                )
                .await;
            });
        }
        if batch > 1 {
            // All 64 reach the sequencer at 400 µs and fill 64 / batch
            // batches in that instant. At 500 µs the first is in its
            // storage write and the rest queue at the lane, each carried
            // by its own deadline task: no flush task is spawned beside it.
            sim.run_until(Time::from_micros(500));
            assert_eq!(sim.live_tasks(), 64 + 64 / batch);
        }
        sim.run();
        assert_eq!(log.counters().log_appends, 64);
        sim.now().as_secs_f64()
    };
    let solo = run(1);
    let grouped = run(16);
    assert!(
        grouped < solo / 2.0,
        "group commit must amortize admissions: batched {grouped}s vs solo {solo}s"
    );
}

#[test]
fn crashed_appender_leaves_batch_peers_payloads_intact() {
    // An appender that dies while parked at the batch gate has already
    // handed its record to the sequencer: the batch still flushes it,
    // peers on the same gate complete normally, and — the refcount
    // property the zero-copy path must uphold — nobody observes a
    // freed or cleared payload, even though the crashed task dropped
    // its half of every shared handle (payload clone, batch handle,
    // gate waiter) mid-flight.
    use hm_substrate::sync::TaskGroup;

    let mut sim = Sim::new(11);
    let log: LogService<hm_common::SharedBytes> = LogService::new(
        sim.ctx(),
        LatencyModel::uniform_test_model(),
        LogConfig {
            batch_max_records: 8, // > appender count: only the deadline flushes
            ..LogConfig::default()
        },
    );
    let ctx = sim.ctx();
    let tag = t("crash_batch");
    let node_a = TaskGroup::new();
    let doomed = hm_common::SharedBytes::copy_from(b"doomed-but-durable");

    // Appender on the failure domain `node_a`: enqueues, parks, dies.
    let l1 = log.clone();
    let g1 = node_a.clone();
    let d1 = doomed.clone();
    let crashed = ctx.spawn(async move { g1.run(l1.append(N0, [tag], d1)).await });

    // Peer appender sharing the batch (and its gate).
    let l2 = log.clone();
    let c2 = ctx.clone();
    let peer = ctx.spawn(async move {
        c2.sleep(Time::from_micros(1)).await;
        l2.append(N1, [tag], hm_common::SharedBytes::copy_from(b"peer"))
            .await
    });

    // Crash node_a once both records are enqueued but the batch has
    // not flushed (the deadline is comfortably far away).
    let c3 = ctx.clone();
    let lc = log.clone();
    ctx.spawn(async move {
        let shard = lc.shard_of(tag);
        while lc.pending_batch_len(shard) < 2 {
            c3.sleep(Time::from_micros(5)).await;
        }
        node_a.cancel();
    });

    sim.run();
    assert!(
        crashed.try_take().expect("resolved").is_err(),
        "appender must have been cancelled while parked"
    );
    let peer_sn = peer.try_take().expect("peer completed");
    let flush = log.flush_stats();
    assert_eq!(flush.flushes, 1);
    assert_eq!(flush.records, 2, "crashed record still flushed");
    assert_eq!(flush.deadline_trigger, 1);

    // Both payloads are live and intact in the log.
    let sns = log.peek_stream(tag);
    assert_eq!(sns.len(), 2);
    let first = log.peek_record(sns[0]).expect("crashed record installed");
    assert_eq!(first.payload.as_slice(), b"doomed-but-durable");
    assert!(
        first.payload.ptr_eq(&doomed),
        "zero-copy: the log shares the appender's buffer, no deep copy"
    );
    let second = log.peek_record(peer_sn).expect("peer record installed");
    assert_eq!(second.payload.as_slice(), b"peer");
    assert_eq!(log.live_records(), 2);
}
