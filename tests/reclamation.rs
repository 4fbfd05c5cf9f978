//! What is dropped is actually freed: the log's host memory follows its
//! live records, a reader that loses a race against `trim` gets an answer
//! instead of a panic, a dropped deployment takes its log with it, the
//! collector keeps up with the versions a steady load writes, and no
//! version outlives the commit record that names it.

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

use halfmoon::{
    Client, Env, FaultPlan, FaultPolicy, GarbageCollector, InvocationSpec, ProtocolKind, StepRecord,
};
use hm_common::ids::TagKind;
use hm_common::latency::LatencyModel;
use hm_common::trace::Tracer;
use hm_common::{FxHashMap, FxHashSet, HmError, Key, NodeId, SeqNum, Tag, Value};
use hm_runtime::chaos::ChaosDriver;
use hm_runtime::{Gateway, GcDriver, LoadSpec, Runtime, RuntimeConfig};
use hm_sharedlog::{shard_for_tag, LogConfig, LogService, Topology, SLAB_SEGMENT_RECORDS};
use hm_substrate::sim::Sim;
use hm_substrate::Ctx;
use hm_workloads::synthetic::SyntheticOps;
use hm_workloads::Workload;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

const WRITERS: u64 = 4;
const NODES: u64 = 4;
const SHARED_TAGS: u64 = 2;
const TRIM_EVERY: u64 = 64;

fn own_tag(w: u64) -> Tag {
    Tag::new(TagKind::StepLog, 0x0E00 + w)
}

fn shared_tag(i: u64) -> Tag {
    Tag::new(TagKind::ObjectLog, 0x0F00 + i % SHARED_TAGS)
}

/// The `log_storm` writer in miniature: two-tag appends, a same-node tail
/// read, a far-node lookup, and a trim of both streams every
/// [`TRIM_EVERY`] iterations up to the record from half a period ago, so
/// live records plateau while appends keep coming.
async fn storm_writer(log: LogService<u64>, w: u64, iterations: u64) {
    let node = NodeId((w % NODES) as u32);
    let far = NodeId(((w + 1) % NODES) as u32);
    let own = own_tag(w);
    let mut mine = Vec::new();
    for i in 0..iterations {
        let shared = shared_tag(w + i);
        let sn = log.append(node, [own, shared], i).await;
        mine.push(sn);
        if i % 2 == 1 {
            let tail = log.read_prev(node, own, SeqNum::MAX).await;
            assert_eq!(tail.map(|r| r.seqnum), Some(sn));
        }
        if i % 4 == 3 {
            let found = log.read_next(far, shared, sn).await;
            assert_eq!(found.map(|r| r.seqnum), Some(sn));
        }
        if i % TRIM_EVERY == TRIM_EVERY - 1 {
            let upto = mine[mine.len() - (TRIM_EVERY / 2) as usize];
            log.trim(node, own, upto).await;
            if w < SHARED_TAGS {
                log.trim(node, shared_tag(w), upto).await;
            }
        }
    }
}

/// Slab slots and cache entries the log holds after a storm of
/// `iterations` per writer, next to its live record count. The cache
/// entries are bits of the live slots, so they cannot outnumber
/// live × nodes × the two shards a record's two tags can route to.
fn storm_footprint(iterations: u64) -> (usize, usize, usize) {
    let mut sim = Sim::new(0x5107);
    let log: LogService<u64> = LogService::new(
        sim.ctx(),
        LatencyModel::calibrated(),
        LogConfig {
            topology: Topology::sharded(4),
            ..LogConfig::default()
        },
    );
    let ctx = sim.ctx();
    for w in 0..WRITERS {
        ctx.spawn(storm_writer(log.clone(), w, iterations));
    }
    sim.run();
    assert_eq!(log.head_seqnum(), SeqNum(WRITERS * iterations + 1));
    let cached = (0..NODES).map(|n| log.node_cache_len(NodeId(n as u32))).sum();
    (log.live_records(), log.retained_records(), cached)
}

#[test]
fn log_memory_follows_live_records_not_appends() {
    // Long enough that total appends dwarf the allowed slack at both
    // lengths (40k and 160k appends against ~16k slots of slack).
    for iterations in [10_000, 40_000] {
        let (live, retained, cached) = storm_footprint(iterations);
        assert!(live > 0 && live < 1_000, "the storm must plateau: {live} live");
        assert!(
            retained <= live + WRITERS as usize * SLAB_SEGMENT_RECORDS,
            "{iterations} iterations: {retained} slab slots retained for {live} live records"
        );
        assert!(
            cached > 0 && cached <= live * NODES as usize * 2,
            "{iterations} iterations: {cached} cache entries for {live} live records"
        );
    }
}

/// The slot is the record's only home, and dead slots stay allocated
/// until their segment empties: its size is host memory per *retained*
/// record. 192 bytes is what `steady_mixed`'s `peak_rss_mb` was measured
/// with; a field added beside the payload shows here before it shows there.
#[test]
fn a_step_record_slot_stays_within_its_measured_size() {
    let (slot, payload) = (LogService::<StepRecord>::SLOT_BYTES, std::mem::size_of::<StepRecord>());
    assert!(slot <= 192, "{slot} bytes per slot");
    assert_eq!(slot - payload, 96, "what a slot holds beside its {payload}-byte payload");
}

/// A node id past the lane-tracked range (and one that a wrapping shift
/// would fold onto node 6) is tracked, and dropped at reclaim, all the same.
#[test]
fn reclaimed_records_leave_the_caches_of_high_numbered_nodes() {
    let mut sim = Sim::new(3);
    let log: LogService<u64> =
        LogService::new(sim.ctx(), LatencyModel::uniform_test_model(), LogConfig::default());
    let l = log.clone();
    let (near, high) = (NodeId(2), NodeId(70));
    sim.block_on(async move {
        let tag = own_tag(0);
        let first = l.append(near, [tag], 1).await;
        let second = l.append(high, [tag], 2).await;
        assert_eq!(l.read_prev(high, tag, first).await.unwrap().seqnum, first);
        assert_eq!((l.node_cache_len(near), l.node_cache_len(high)), (1, 2));
        assert_eq!(l.node_cache_len(NodeId(70 % 64)) + l.node_cache_len(NodeId(70 % 16)), 0);
        l.trim(near, tag, first).await;
        assert_eq!((l.node_cache_len(near), l.node_cache_len(high)), (0, 1));
        l.trim(near, tag, second).await;
        assert_eq!(l.node_cache_len(high), 0);
    });
    assert_eq!(log.retained_records(), 2, "the filling segment stays allocated");
}

/// Every hit/miss decision and every cache size, against a plain set of
/// `(shard, node, seqnum)` kept beside the log: multi-tag (sometimes
/// spilling, sometimes duplicated) records over four shards, point and
/// stream reads from nodes on both sides of the lane width and of 64,
/// trims that reclaim, and node crashes. One driver, so the reference can
/// mirror each operation exactly.
#[test]
fn cache_hits_and_sizes_match_a_reference_set() {
    const SHARDS: u8 = 4;
    let nodes = [0, 5, 15, 16, 31, 63, 64, 70, 200].map(NodeId);
    let tags: Vec<Tag> = (0..12).map(|i| Tag::new(TagKind::ObjectLog, 0x0C00 + i)).collect();
    let shard = |tag: Tag| shard_for_tag(tag, SHARDS).0;
    assert_eq!(tags.iter().map(|&t| shard(t)).collect::<FxHashSet<_>>().len(), SHARDS as usize);

    for seed in 0..6u64 {
        let mut sim = Sim::new(0xCAC4E + seed);
        let log: LogService<u64> = LogService::new(
            sim.ctx(),
            LatencyModel::uniform_test_model(),
            LogConfig {
                topology: Topology::sharded(SHARDS),
                ..LogConfig::default()
            },
        );
        let (l, tags) = (log.clone(), tags.clone());
        let (hits, misses, reclaimed) = sim.block_on(async move {
            let mut rng = SmallRng::seed_from_u64(seed);
            // The reference: who caches what, each stream's live entries,
            // and each record's remaining memberships.
            let mut cached: FxHashSet<(u8, NodeId, SeqNum)> = FxHashSet::default();
            let mut streams: FxHashMap<Tag, VecDeque<SeqNum>> = FxHashMap::default();
            let mut memberships: FxHashMap<SeqNum, usize> = FxHashMap::default();
            let mut reclaimed = 0;
            for step in 0..1_500 {
                let node = nodes[rng.random_range(0..nodes.len())];
                let tag = tags[rng.random_range(0..tags.len())];
                let before = l.counters();
                // The record a read should have targeted, if any.
                let mut target = None;
                match rng.random_range(0..20u32) {
                    0..=5 => {
                        let n = if rng.random_range(0..8u32) == 0 { 6 } else { rng.random_range(1..=3) };
                        let picked: Vec<Tag> =
                            (0..n).map(|_| tags[rng.random_range(0..tags.len())]).collect();
                        let sn = l.append(node, picked.clone(), step).await;
                        for &t in &picked {
                            cached.insert((shard(t), node, sn));
                            streams.entry(t).or_default().push_back(sn);
                        }
                        memberships.insert(sn, picked.len());
                    }
                    6..=15 => {
                        let head = l.head_seqnum().0;
                        let bound = match rng.random_range(0..3u32) {
                            0 => SeqNum::MAX,
                            _ => SeqNum(rng.random_range(0..=head)),
                        };
                        let live = streams.entry(tag).or_default();
                        let got = if rng.random() {
                            target = live.iter().rev().find(|&&sn| sn <= bound).copied();
                            l.read_prev(node, tag, bound).await
                        } else {
                            target = live.iter().find(|&&sn| sn >= bound).copied();
                            l.read_next(node, tag, bound).await
                        };
                        assert_eq!(got.map(|r| r.seqnum), target, "seed {seed} step {step}");
                    }
                    16 | 17 => {
                        let live = streams.entry(tag).or_default();
                        target = live.front().copied();
                        let got = l.read_stream(node, tag).await;
                        assert!(got.iter().map(|r| r.seqnum).eq(live.iter().copied()));
                    }
                    18 => {
                        let live = streams.entry(tag).or_default();
                        let upto = match live.len() {
                            0 => SeqNum::MAX,
                            n => live[rng.random_range(0..n)],
                        };
                        l.trim(node, tag, upto).await;
                        while live.front().is_some_and(|&sn| sn <= upto) {
                            let sn = live.pop_front().expect("checked");
                            let left = memberships.get_mut(&sn).expect("a live entry");
                            *left -= 1;
                            if *left == 0 {
                                memberships.remove(&sn);
                                cached.retain(|&(_, _, held)| held != sn);
                                reclaimed += 1;
                            }
                        }
                    }
                    _ => {
                        l.clear_node_cache(node);
                        cached.retain(|&(_, n, _)| n != node);
                    }
                }
                // The decision the log made is the one the reference makes.
                let after = l.counters();
                let decided = (
                    after.cache_hits - before.cache_hits,
                    after.cache_misses - before.cache_misses,
                );
                let expected = match target {
                    None => (0, 0),
                    Some(sn) if cached.contains(&(shard(tag), node, sn)) => (1, 0),
                    Some(_) => (0, 1),
                };
                assert_eq!(decided, expected, "seed {seed} step {step}: {node:?} via {tag:?}");
                if let Some(sn) = target {
                    cached.insert((shard(tag), node, sn));
                }
                for &n in &nodes {
                    let want = cached.iter().filter(|&&(_, holder, _)| holder == n).count();
                    assert_eq!(l.node_cache_len(n), want, "seed {seed} step {step}: {n:?}");
                }
                assert_eq!(l.live_records(), memberships.len());
            }
            let c = l.counters();
            (c.cache_hits, c.cache_misses, reclaimed)
        });
        assert!(hits > 50 && misses > 50 && reclaimed > 50, "seed {seed}: {hits} hits, {misses} misses, {reclaimed} reclaimed");
    }
}

/// Readers on every read call of one stream while another task trims it
/// every few appends. A read picks its record, sleeps, then fetches it: a
/// trim landing in that sleep used to hit an `expect`. Every record handed
/// back must be live when it is.
#[test]
fn reads_racing_trims_return_live_records() {
    let hot = Tag::new(TagKind::ObjectLog, 0x0A07);
    let side = Tag::new(TagKind::ObjectLog, 0x0A08);

    async fn reader(ctx: Ctx, log: LogService<u64>, hot: Tag, seed: u64, done: Rc<Cell<bool>>, seen: Rc<Cell<u64>>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let node = NodeId(rng.random_range(0..4));
        let live_now = |sn: SeqNum| log.peek_record(sn).is_some();
        while !done.get() {
            let head = log.head_seqnum().0;
            let bound = SeqNum(rng.random_range(head.saturating_sub(12)..=head));
            match rng.random_range(0..4u32) {
                0 => {
                    if let Some(r) = log.read_prev(node, hot, SeqNum::MAX).await {
                        assert!(live_now(r.seqnum), "read_prev(MAX) returned reclaimed {:?}", r.seqnum);
                        seen.set(seen.get() + 1);
                    }
                }
                1 => {
                    if let Some(r) = log.read_prev(node, hot, bound).await {
                        assert!(r.seqnum <= bound);
                        assert!(live_now(r.seqnum), "read_prev returned reclaimed {:?}", r.seqnum);
                        seen.set(seen.get() + 1);
                    }
                }
                2 => {
                    if let Some(r) = log.read_next(node, hot, bound).await {
                        assert!(r.seqnum >= bound);
                        assert!(live_now(r.seqnum), "read_next returned reclaimed {:?}", r.seqnum);
                        seen.set(seen.get() + 1);
                    }
                }
                _ => {
                    let (records, stats) = log.replay_stream(node, hot).await;
                    assert_eq!(stats.replayed, records.len() as u64);
                    assert!(records.windows(2).all(|w| w[0].seqnum < w[1].seqnum));
                    for r in &records {
                        assert!(live_now(r.seqnum), "replay returned reclaimed {:?}", r.seqnum);
                    }
                    seen.set(seen.get() + records.len() as u64);
                }
            }
            // Desynchronise from the trimmer's rhythm.
            ctx.sleep(std::time::Duration::from_micros(rng.random_range(0..300))).await;
        }
    }

    for seed in 0..48u64 {
        let mut sim = Sim::new(0x7213 + seed);
        let log: LogService<u64> = LogService::new(
            sim.ctx(),
            LatencyModel::calibrated(),
            LogConfig {
                topology: Topology::sharded(2),
                ..LogConfig::default()
            },
        );
        let done = Rc::new(Cell::new(false));
        let seen = Rc::new(Cell::new(0u64));
        let ctx = sim.ctx();
        for r in 0..4 {
            ctx.spawn(reader(ctx.clone(), log.clone(), hot, seed * 16 + r, done.clone(), seen.clone()));
        }
        // Two appenders keep the stream moving; the trimmer cuts it behind
        // them every few appends, sometimes all the way to the head.
        for a in 0..2u64 {
            let (l, done) = (log.clone(), done.clone());
            ctx.spawn(async move {
                for i in 0..300u64 {
                    // Every third record also lives in an untrimmed stream
                    // and so survives the hot stream's trims.
                    if i % 3 == 0 {
                        l.append(NodeId(a as u32), [hot, side], i).await;
                    } else {
                        l.append(NodeId(a as u32), [hot], i).await;
                    }
                }
                if a == 0 {
                    done.set(true);
                }
            });
        }
        let (l, d) = (log.clone(), done.clone());
        let c = ctx.clone();
        ctx.spawn(async move {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x7717);
            while !d.get() {
                let stream = l.peek_stream(hot);
                let upto = match rng.random_range(0..4u32) {
                    0 => SeqNum::MAX,
                    _ => stream
                        .get(rng.random_range(0..stream.len().max(1)))
                        .copied()
                        .unwrap_or(SeqNum::ZERO),
                };
                l.trim(NodeId(3), hot, upto).await;
                c.sleep(std::time::Duration::from_micros(rng.random_range(0..800))).await;
            }
        });
        sim.run();
        assert!(seen.get() > 100, "seed {seed}: readers saw only {} records", seen.get());
        // Whatever the hot stream still lists is live, and nothing else of
        // it is.
        let tail = log.peek_stream(hot);
        assert!(tail.iter().all(|&sn| log.peek_record(sn).is_some()));
        assert_eq!(log.live_records(), {
            let mut live: Vec<SeqNum> = tail;
            live.extend(log.peek_stream(side));
            live.sort_unstable();
            live.dedup();
            live.len()
        });
    }
}

fn deployment() -> (Sim, Client, Runtime) {
    let sim = Sim::new(0xD309);
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::uniform_test_model())
        .protocol(ProtocolKind::HalfmoonRead)
        .build();
    client.populate(Key::new("C"), Value::Int(0));
    let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
    runtime.register("bump", |env, _input| {
        Box::pin(async move {
            let c = env.read(&Key::new("C")).await?.as_int().unwrap_or(0);
            env.write(&Key::new("C"), Value::Int(c + 1)).await?;
            Ok(Value::Int(c + 1))
        })
    });
    runtime.register("parent", |env, _input| {
        Box::pin(async move { env.invoke("bump", Value::Null).await })
    });
    (sim, client, runtime)
}

/// The client reaches its runtime weakly, so the two do not keep each
/// other — and the whole deployment — alive.
#[test]
fn dropping_a_deployment_drops_its_log() {
    let (mut sim, client, runtime) = deployment();
    // Only the log's shared state holds this tracer: it dies with it.
    let probe = {
        let tracer = Tracer::new();
        client.log().set_tracer(tracer.clone());
        Rc::downgrade(&tracer)
    };
    let rt = runtime.clone();
    let out = sim.block_on(async move { rt.invoke_request("parent", Value::Null).await });
    assert_eq!(out.unwrap(), Value::Int(1));
    assert!(client.log().live_records() > 0);
    assert!(probe.upgrade().is_some());
    drop(runtime);
    assert!(probe.upgrade().is_some(), "the client still holds the log");
    drop(client);
    assert!(probe.upgrade().is_none(), "the deployment outlived its last handle");
}

#[test]
fn child_invoke_after_the_runtime_is_gone_is_a_config_error() {
    let (mut sim, client, runtime) = deployment();
    drop(runtime);
    let id = client.fresh_instance_id();
    let out = sim.block_on(async move {
        let mut env = Env::init(&client, InvocationSpec::new(id, NodeId(0))).await?;
        env.invoke("bump", Value::Null).await
    });
    assert!(matches!(out, Err(HmError::Config { .. })), "{out:?}");
}

/// `steady_mixed`'s deployment: the ten-op 50/50 function on Halfmoon-read
/// at 1 000 req/s for 5 s, collected every second. Every scheduled cycle
/// finishes inside its interval. A cycle leaves each written key its
/// latest version below the watermark plus what was written since, so a
/// collector at most one cycle behind holds under one version per written
/// key plus two intervals' worth of writes at the end.
#[test]
fn the_collector_keeps_up_with_a_steady_load() {
    let workload = SyntheticOps::default();
    let mut sim = Sim::new(20_230_923);
    let client = Client::builder(sim.ctx())
        .protocol(ProtocolKind::HalfmoonRead)
        .build();
    workload.populate(&client);
    let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
    workload.register(&runtime);
    let gc = GcDriver::start(client.clone(), NodeId(0), Duration::from_secs(1));
    let gateway = Gateway::new(runtime);
    let spec = LoadSpec {
        rate_per_sec: 1000.0,
        duration: Duration::from_secs(5),
        warmup: Duration::ZERO,
        factory: workload.factory(),
    };
    let report = sim.block_on(async move { gateway.run_open_loop(spec).await });
    gc.stop();
    assert_eq!(report.errors, 0);
    assert!(gc.cycles() >= 4, "{} of 5 scheduled cycles completed", gc.cycles());
    let versions = client.store().version_count();
    let keys = client.written_keys().len();
    let per_interval = client.store().counters().db_writes as usize / 5;
    assert!(
        versions < keys + 2 * per_interval,
        "{versions} live versions of {keys} keys, {per_interval} written per interval"
    );
}

/// Halfmoon-read under per-attempt crashes, duplicate peers and node
/// crashes, collected every 50 ms beside the load and once more after it
/// drains. The collector never looks for a version without a commit, so
/// one stored under anything but the logged intent (a retry's or a
/// losing peer's) would be left here: every version in the store must be
/// named by a live commit record in its key's write log.
#[test]
fn every_stored_version_is_named_by_a_live_commit_record() {
    let workload = SyntheticOps {
        objects: 200,
        ..SyntheticOps::default()
    };
    for seed in 0..8u64 {
        let mut sim = Sim::new(0x0E1F + seed);
        let plan = FaultPlan::new()
            .instance_faults(FaultPolicy::per_attempt(0.3, 30, u32::MAX))
            .node_recovery_delay(Duration::from_millis(200))
            .seeded_node_crashes(
                seed,
                0.5,
                Duration::from_millis(300),
                Duration::from_secs(3),
                8,
            );
        let client = Client::builder(sim.ctx())
            .protocol(ProtocolKind::HalfmoonRead)
            .faults(plan)
            .build();
        workload.populate(&client);
        let config = RuntimeConfig {
            duplicate_prob: 0.3,
            ..RuntimeConfig::default()
        };
        let runtime = Runtime::new(client.clone(), config);
        workload.register(&runtime);
        let _chaos = ChaosDriver::start(&runtime);
        let gc = GcDriver::start(client.clone(), NodeId(0), Duration::from_millis(50));
        let gateway = Gateway::new(runtime.clone());
        let spec = LoadSpec {
            rate_per_sec: 300.0,
            duration: Duration::from_secs(3),
            warmup: Duration::ZERO,
            factory: workload.factory(),
        };
        // The report's errors are not counted: a peer that outlives its
        // instance's reclamation fails at `Init`, before it can write.
        sim.block_on(async move { gateway.run_open_loop(spec).await });
        gc.stop();
        // Let the last peers and the fault schedule play out, then collect.
        sim.run();
        let collector = GarbageCollector::new(client.clone(), NodeId(0));
        let last = sim.block_on(async move { collector.collect().await });
        assert!(runtime.node_crashes() > 0, "seed {seed}: no node crashed");
        let retries = runtime.retries();
        assert!(retries > 100, "seed {seed}: {retries} retries");
        let reclaimed = gc.totals().instances_reclaimed + last.instances_reclaimed as u64;
        assert!(reclaimed > 500, "seed {seed}: {reclaimed} reclaimed");

        let (log, store) = (client.log(), client.store());
        let mut named = FxHashSet::default();
        for key in client.written_keys() {
            for sn in log.peek_stream(key.object_log_tag()) {
                let rec = log.peek_record(sn).expect("a listed record is live");
                if let Some(version) = rec.payload.version_for(&key) {
                    assert!(
                        store.peek_version(&key, version).is_some(),
                        "seed {seed}: the commit at {sn:?} names a missing version of {key:?}"
                    );
                    named.insert((key.clone(), version));
                }
            }
        }
        assert_eq!(
            store.version_count(),
            named.len(),
            "seed {seed}: stored versions vs versions named by live commit records"
        );
    }
}
