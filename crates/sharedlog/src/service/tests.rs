//! The handle's unit tests that the reference-log differential
//! (`tests/reference_log.rs`) does not already make: counters, caches,
//! timings, payload types other than `String` and the stream pool.

use std::time::Duration;

use hm_common::ids::TagKind;
use hm_substrate::{sim::Sim, Time};

use super::*;
use crate::shard::RECORD_META_BYTES;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);

fn setup() -> (Sim, LogService<String>) {
    let sim = Sim::new(11);
    let log = LogService::new(
        sim.ctx(),
        LatencyModel::uniform_test_model(),
        LogConfig::default(),
    );
    (sim, log)
}

fn t(name: &str) -> Tag {
    Tag::named(TagKind::StepLog, name)
}

#[test]
fn concurrent_appends_order_by_sequencer_arrival() {
    let (mut sim, log) = setup();
    let ctx = sim.ctx();
    let l1 = log.clone();
    let l2 = log;
    let ctx2 = ctx.clone();
    let h1 = ctx.spawn(async move { l1.append(N0, vec![t("a")], "first".into()).await });
    let h2 = ctx.spawn(async move {
        // Starts 1µs later; sequencer sees it second.
        ctx2.sleep(Time::from_micros(1)).await;
        l2.append(N1, vec![t("b")], "second".into()).await
    });
    sim.run();
    assert_eq!(h1.try_take().unwrap(), SeqNum(1));
    assert_eq!(h2.try_take().unwrap(), SeqNum(2));
}

#[test]
fn cond_append_success_then_conflict() {
    let (mut sim, log) = setup();
    let l = log;
    sim.block_on(async move {
        let tag = t("inst");
        let out = l.cond_append(N0, vec![tag], "step0".into(), tag, 0).await;
        let CondAppendOutcome::Appended(first) = out else {
            panic!("expected success, got {out:?}")
        };
        // A peer retries step 0: conflicts and learns the winner.
        let out = l
            .cond_append(N1, vec![tag], "step0-dup".into(), tag, 0)
            .await;
        assert_eq!(out, CondAppendOutcome::Conflict(first));
        // Stream contains only the winner.
        assert_eq!(l.peek_stream(tag).len(), 1);
        assert_eq!(l.counters().cond_append_conflicts, 1);
        // Seqnums of undone appends are not reused but nothing is stored.
        let out = l.cond_append(N1, vec![tag], "step1".into(), tag, 1).await;
        assert!(matches!(out, CondAppendOutcome::Appended(_)));
    });
}

#[test]
fn trim_removes_prefix_and_keeps_offsets_stable() {
    let (mut sim, log) = setup();
    let l = log;
    sim.block_on(async move {
        let tag = t("gc");
        let mut sns = Vec::new();
        for i in 0..5 {
            sns.push(l.append(N0, vec![tag], format!("r{i}")).await);
        }
        l.trim(N0, tag, sns[2]).await;
        assert_eq!(l.peek_stream(tag), vec![sns[3], sns[4]]);
        assert_eq!(l.live_records(), 2);
        // cond_append offsets still count trimmed records.
        let out = l.cond_append(N0, vec![tag], "r5".into(), tag, 5).await;
        assert!(matches!(out, CondAppendOutcome::Appended(_)), "{out:?}");
        // Trimming the stream empty releases its buffer but not its
        // offset count: the next record still lands at `trimmed + 0`.
        l.trim(N0, tag, SeqNum::MAX).await;
        assert_eq!(l.live_records(), 0);
        let stream_state = |l: &LogService<String>| {
            let inner = l.inner.borrow();
            let stream = &inner.shards[inner.shard_of(tag) as usize].streams[&tag];
            (
                stream.trimmed,
                stream.seqnums.len(),
                stream.seqnums.capacity(),
            )
        };
        assert_eq!(stream_state(&l), (6, 0, 0));
        let stale = l.cond_append(N0, vec![tag], "r6".into(), tag, 5).await;
        assert!(matches!(stale, CondAppendOutcome::Conflict(_)), "{stale:?}");
        let out = l.cond_append(N0, vec![tag], "r6".into(), tag, 6).await;
        let CondAppendOutcome::Appended(sn) = out else {
            panic!("{out:?}");
        };
        assert_eq!(l.peek_stream(tag), vec![sn]);
        assert_eq!(stream_state(&l).0, 6);
    });
}

/// `trim_many` over N streams leaves exactly what N sequential trims
/// leave — live records, every shard's bytes, every shard's trim count
/// — and takes one round trip. The list names streams on all four
/// shards, records shared between them, a stream twice and one that
/// was never written.
#[test]
fn trim_many_is_sequential_trims_in_one_round_trip() {
    let tags: Vec<Tag> = (0..8).map(|i| t(&format!("many{i}"))).collect();
    let run = |batched: bool| {
        let mut sim = Sim::new(11);
        let log: LogService<String> = LogService::new(
            sim.ctx(),
            LatencyModel::uniform_test_model(),
            LogConfig {
                topology: Topology::sharded(4),
                ..LogConfig::default()
            },
        );
        let (l, tags, ctx) = (log.clone(), tags.clone(), sim.ctx());
        let elapsed = sim.block_on(async move {
            let mut sns = Vec::new();
            for i in 0..40usize {
                let picked = vec![tags[i % 8], tags[(i * 3 + 1) % 8]];
                sns.push(l.append(N0, picked, format!("r{i}")).await);
            }
            let mut trims: Vec<(Tag, SeqNum)> = tags
                .iter()
                .enumerate()
                .map(|(i, &tag)| (tag, sns[i * 4]))
                .collect();
            trims.push((tags[2], SeqNum::MAX));
            trims.push((t("never_written"), SeqNum::MAX));
            let start = ctx.now();
            if batched {
                l.trim_many(&trims).await;
            } else {
                for &(tag, upto) in &trims {
                    l.trim(N1, tag, upto).await;
                }
            }
            ctx.now() - start
        });
        let shards: Vec<(u64, f64)> = (0..4)
            .map(|s| {
                let shard = ShardId(s);
                (
                    log.shard_counters(shard).log_trims,
                    log.shard_current_bytes(shard),
                )
            })
            .collect();
        (log.live_records(), shards, elapsed)
    };
    let (live_seq, shards_seq, _) = run(false);
    let (live, shards, elapsed) = run(true);
    assert!(live > 0 && live < 40, "{live} live");
    assert_eq!(live, live_seq);
    assert_eq!(shards, shards_seq);
    assert_eq!(shards.iter().map(|s| s.0).sum::<u64>(), 10);
    assert_eq!(elapsed, Time::from_millis(1), "one log_append round trip");
}

#[test]
fn shared_bytes_payload_charges_logical_size_once() {
    let mut sim = Sim::new(11);
    let log: LogService<hm_common::SharedBytes> = LogService::new(
        sim.ctx(),
        LatencyModel::uniform_test_model(),
        LogConfig::default(),
    );
    let l = log;
    sim.block_on(async move {
        let (a, b) = (t("sb_a"), t("sb_b"));
        let buf = hm_common::SharedBytes::copy_from(&[7u8; 100]);
        // Two records over one backing buffer: each charges its full
        // logical length (the paper's storage units are per record,
        // not per heap allocation), and the zero-copy clone/slice
        // machinery must not make the charge depend on sharing.
        l.append(N0, [a], buf.clone()).await;
        l.append(N0, [b], buf.slice(0, 100)).await;
        let full = (100 + RECORD_META_BYTES) as f64;
        assert_eq!(l.current_bytes(), 2.0 * full);
        // A narrower view charges its view length, not the backing
        // buffer's capacity.
        l.append(N0, [a], buf.slice(0, 10)).await;
        let narrow = (10 + RECORD_META_BYTES) as f64;
        assert_eq!(l.current_bytes(), 2.0 * full + narrow);
        // Trim frees exactly what install charged, even though the
        // caller (and any replica holding a refcount clone) still
        // keeps the backing buffer alive.
        l.trim(N0, a, l.head_seqnum()).await;
        assert_eq!(l.current_bytes(), full, "only b's record remains");
        l.trim(N0, b, l.head_seqnum()).await;
        assert_eq!(l.current_bytes(), 0.0);
        assert_eq!(l.live_records(), 0);
        assert_eq!(buf.as_slice()[0], 7, "caller's view unaffected");
    });
}

/// A trim that empties a stream pools its buffer and the next stream
/// without one takes it: the buffer arrives empty, so no stream ever
/// reads another's seqnums, and the emptied stream keeps its offsets.
#[test]
fn recycled_stream_buffers_carry_no_earlier_seqnums() {
    let (mut sim, log) = setup();
    let l = log;
    sim.block_on(async move {
        let (a, b) = (t("a"), t("b"));
        let pooled = |l: &LogService<String>| l.inner.borrow().stream_pool.len();
        let read = |tag| {
            let l = l.clone();
            async move {
                let records = l.read_stream(N0, tag).await;
                let records = records.into_iter().map(|r| (r.seqnum, r.payload));
                records.collect::<Vec<_>>()
            }
        };
        for i in 0..3 {
            l.append(N0, vec![a], format!("a{i}")).await;
        }
        l.trim(N0, a, SeqNum::MAX).await;
        assert_eq!(pooled(&l), 1, "the emptied buffer is pooled");
        let b0 = l.append(N0, vec![b], "b0".into()).await;
        assert_eq!(pooled(&l), 0, "the new stream took it");
        assert_eq!(read(b).await, [(b0, "b0".to_string())]);
        l.trim(N0, b, SeqNum::MAX).await;
        // A takes back the buffer B used: B's entry is not in it, and
        // A's next record lands at its untrimmed offset 3.
        let stale = l.cond_append(N0, vec![a], "a3".into(), a, 2).await;
        assert!(matches!(stale, CondAppendOutcome::Conflict(_)), "{stale:?}");
        let out = l.cond_append(N0, vec![a], "a3".into(), a, 3).await;
        let CondAppendOutcome::Appended(a3) = out else {
            panic!("{out:?}");
        };
        assert_eq!(pooled(&l), 0);
        assert_eq!(read(a).await, [(a3, "a3".to_string())]);
        let b1 = l.append(N0, vec![b], "b1".into()).await;
        assert_eq!(read(b).await, [(b1, "b1".to_string())]);
        assert_eq!(read(a).await, [(a3, "a3".to_string())]);
    });
}

/// One trim emptying more streams than the pool holds leaves it at its
/// cap; a buffer longer than the pool takes is freed.
#[test]
fn stream_pool_never_outgrows_its_cap() {
    let (mut sim, log) = setup();
    let l = log;
    sim.block_on(async move {
        let tags: Vec<Tag> = (0..STREAM_POOL_CAP + 10)
            .map(|i| Tag::named(TagKind::StepLog, &format!("s{i}")))
            .collect();
        for &tag in &tags {
            l.append(N0, vec![tag], "x".into()).await;
        }
        let long = t("long");
        for _ in 0..=STREAM_POOL_MAX_CAPACITY {
            l.append(N0, vec![long], "x".into()).await;
        }
        l.trim(N0, long, SeqNum::MAX).await;
        let pooled = l.inner.borrow().stream_pool.len();
        assert_eq!(pooled, 0, "a long buffer is freed");
        let trims: Vec<(Tag, SeqNum)> = tags.iter().map(|&tag| (tag, SeqNum::MAX)).collect();
        l.trim_many(&trims).await;
        assert_eq!(l.live_records(), 0);
        let inner = l.inner.borrow();
        assert_eq!(inner.stream_pool.len(), STREAM_POOL_CAP);
        assert!(inner.stream_pool.iter().all(VecDeque::is_empty));
    });
}

#[test]
fn cached_read_is_faster_than_miss() {
    // Node 0 appends; node 1's first read misses, second hits.
    let (mut sim, log) = setup();
    let l = log.clone();
    let ctx = sim.ctx();
    sim.block_on(async move {
        l.append(N0, vec![t("c")], "v".into()).await;
        let start = ctx.now();
        l.read_prev(N1, t("c"), SeqNum::MAX).await;
        let miss_cost = ctx.now() - start;
        let start = ctx.now();
        l.read_prev(N1, t("c"), SeqNum::MAX).await;
        let hit_cost = ctx.now() - start;
        // Test model: miss 0.3ms, hit 0.1ms.
        assert!(
            miss_cost > hit_cost,
            "miss {miss_cost:?} vs hit {hit_cost:?}"
        );
        // The appender reads its own record from cache immediately.
        let start = ctx.now();
        l.read_prev(N0, t("c"), SeqNum::MAX).await;
        assert_eq!(ctx.now() - start, Time::from_micros(100));
    });
    let c = log.counters();
    assert_eq!(c.cache_misses, 1, "only node 1's first read missed");
    assert_eq!(c.cache_hits, 2);
}

#[test]
fn empty_stream_reads_are_cheap_and_none() {
    let (mut sim, log) = setup();
    let l = log.clone();
    sim.block_on(async move {
        assert!(l.read_prev(N0, t("none"), SeqNum::MAX).await.is_none());
        assert!(l.read_next(N0, t("none"), SeqNum::ZERO).await.is_none());
        assert!(l.read_stream(N0, t("none")).await.is_empty());
    });
    let c = log.counters();
    assert_eq!(c.log_reads, 3);
    // Reads that found nothing touch no cache bucket.
    assert_eq!(c.cache_hits + c.cache_misses, 0);
}

#[test]
fn node_caches_are_independent() {
    let (mut sim, log) = setup();
    let l = log;
    sim.block_on(async move {
        let sn = l.append(N0, vec![t("i")], "v".into()).await;
        // Node 0 (appender) hits; nodes 1 and 2 each miss once.
        l.read_prev(N0, t("i"), sn).await;
        l.read_prev(N1, t("i"), sn).await;
        l.read_prev(NodeId(2), t("i"), sn).await;
        l.read_prev(NodeId(2), t("i"), sn).await;
        let c = l.counters();
        assert_eq!(c.cache_hits, 2, "node 0 + node 2's second read");
        assert_eq!(c.cache_misses, 2, "nodes 1 and 2 first reads");
    });
}

#[test]
fn replay_stream_reports_trim_horizon() {
    let (mut sim, log) = setup();
    let l = log;
    sim.block_on(async move {
        let tag = t("replay");
        let mut sns = Vec::new();
        for i in 0..5 {
            sns.push(l.append(N0, vec![tag], format!("r{i}")).await);
        }
        // Before any trim: the whole stream is replayed.
        let (recs, stats) = l.replay_stream(N0, tag).await;
        assert_eq!(recs.len(), 5);
        assert_eq!(
            stats,
            ReplayStats {
                replayed: 5,
                ..ReplayStats::default()
            }
        );
        // After trimming past the first two, replay starts at the
        // horizon: only the untrimmed suffix is re-read.
        l.trim(N0, tag, sns[1]).await;
        let (recs, stats) = l.replay_stream(N0, tag).await;
        assert_eq!(recs.len(), 3);
        assert_eq!(
            stats,
            ReplayStats {
                replayed: 3,
                trimmed: 2,
                pending_flushed: 0
            }
        );
        // Unknown stream: nothing to replay, nothing trimmed.
        let (recs, stats) = l.replay_stream(N0, t("never-written")).await;
        assert!(recs.is_empty());
        assert_eq!(stats, ReplayStats::default());
    });
}

#[test]
fn clear_node_cache_forces_cold_reads() {
    let (mut sim, log) = setup();
    let l = log;
    sim.block_on(async move {
        let tag = t("cold");
        l.append(N0, vec![tag], "v".into()).await;
        // The appending node cached its own record: warm read.
        l.read_prev(N0, tag, SeqNum::MAX).await.unwrap();
        assert_eq!(l.counters().cache_hits, 1);
        assert_eq!(l.counters().cache_misses, 0);
        l.clear_node_cache(N0);
        assert_eq!(l.node_cache_len(N0), 0);
        l.read_prev(N0, tag, SeqNum::MAX).await.unwrap(); // cold again
        assert_eq!(l.counters().cache_hits, 1);
        assert_eq!(l.counters().cache_misses, 1);
        // Other nodes' caches are untouched by a crash of N0.
        l.read_prev(N1, tag, SeqNum::MAX).await.unwrap();
        l.clear_node_cache(N0);
        assert_eq!(l.node_cache_len(N1), 1);
    });
}

#[test]
fn stalled_sequencer_delays_appends_without_losing_them() {
    let (mut sim, log) = setup();
    let ctx = sim.ctx();
    let l = log.clone();
    let (stalled_ms, healthy_ms) = sim.block_on(async move {
        l.stall_sequencer(ShardId(0), Duration::from_millis(5));
        let start = ctx.now();
        l.append(N0, vec![t("s")], "delayed".into()).await;
        let stalled_ms = (ctx.now() - start).as_secs_f64() * 1e3;
        let start = ctx.now();
        l.append(N0, vec![t("s")], "after".into()).await;
        let healthy_ms = (ctx.now() - start).as_secs_f64() * 1e3;
        (stalled_ms, healthy_ms)
    });
    // Test model: 0.4 ms to the sequencer, wait out the 5 ms stall,
    // 0.6 ms storage. The stall delays, never drops.
    assert!(
        (stalled_ms - 5.6).abs() < 1e-6,
        "stalled append {stalled_ms}ms"
    );
    assert!(
        (healthy_ms - 1.0).abs() < 1e-6,
        "post-stall append {healthy_ms}ms"
    );
    assert_eq!(log.head_seqnum(), SeqNum(3));
}
