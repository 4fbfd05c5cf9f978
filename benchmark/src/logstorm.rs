//! `log_storm`: closed-loop writers drive `LogService` directly, on the
//! sharded, batched, sequencer-capacity-bound log the application path
//! never configures. No runtime, no protocol code, no store.
//!
//! An op is one `LogService` call. Every conditional append names the
//! writer's own stream position, which only that writer advances, so no
//! call fails.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use hm_bench::alloc::AllocSnapshot;
use hm_common::ids::TagKind;
use hm_common::latency::LatencyModel;
use hm_common::trace::Tracer;
use hm_common::{NodeId, SeqNum, SharedBytes, Tag};
use hm_sharedlog::{CondAppendOutcome, LogConfig, LogService, Topology};
use hm_substrate::sim::Sim;
use hm_substrate::Ctx;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::round::RoundReport;
use crate::util::{growth_ratio, mix};

const WRITERS: u64 = 64;
const SHARED_TAGS: u64 = 16;
const NODES: u64 = 8;
const SHARDS: u8 = 4;
/// Ordering decisions per second one shard's sequencer lane can make.
const SEQUENCER_CAPACITY: f64 = 20_000.0;
const PAYLOAD_BYTES: usize = 256;
/// Each writer slices its payloads out of one seeded buffer of this size.
const BUFFER_BYTES: usize = 4096;
/// Iterations per writer in the measured phase (each writer adds up to one
/// trim period, drawn from the seed).
pub const ITERATIONS: u64 = 15_000;
/// Records appended to every shared stream before the measured phase.
const PRELOAD_PER_TAG: u64 = 512;
/// A writer trims every this many iterations, up to its record from half
/// that many iterations ago, so live records plateau.
const TRIM_EVERY: u64 = 256;

/// Sizes of the storm; `iterations` is the only one the self-check and
/// the layer drivers vary.
#[derive(Clone, Copy, Debug)]
pub struct StormShape {
    pub iterations: u64,
    pub batch_max_records: usize,
}

impl StormShape {
    pub fn log_storm() -> StormShape {
        StormShape {
            iterations: ITERATIONS,
            batch_max_records: 16,
        }
    }
}

fn own_tag(w: u64) -> Tag {
    Tag::new(TagKind::StepLog, 0x5700_0000 + w)
}

fn shared_tag(i: u64) -> Tag {
    Tag::new(TagKind::ObjectLog, 0x5A00_0000 + i % SHARED_TAGS)
}

/// What a writer folds over its untrimmed records, and again over what
/// `replay_stream` hands back: order, seqnums and payload heads.
fn fold_record(h: u64, seqnum: SeqNum, payload: &SharedBytes) -> u64 {
    let head: [u8; 8] = payload.as_slice()[..8]
        .try_into()
        .expect("payload ≥ 8 bytes");
    mix(mix(h, seqnum.0), u64::from_le_bytes(head))
}

#[derive(Default)]
struct Tally {
    calls: Cell<u64>,
    appends: Cell<u64>,
    conflicts: Cell<u64>,
    replay_mismatches: Cell<u64>,
    replayed_records: Cell<u64>,
    checksum: Cell<u64>,
    append_ns: RefCell<Vec<u64>>,
    /// Host instants of writer 0's iterations, for `host_growth_ratio`.
    stamps: RefCell<Vec<Instant>>,
}

impl Tally {
    fn call(&self) {
        self.calls.set(self.calls.get() + 1);
    }
}

async fn writer(
    ctx: Ctx,
    log: LogService<SharedBytes>,
    w: u64,
    buffer: SharedBytes,
    n: u64,
    t: Rc<Tally>,
) {
    let node = NodeId((w % NODES) as u32);
    let far = NodeId(((w + 3) % NODES) as u32);
    let own = own_tag(w);
    // Own-stream records not yet trimmed, oldest first.
    let mut live: VecDeque<(SeqNum, SharedBytes)> = VecDeque::new();
    for i in 0..n {
        if w == 0 {
            t.stamps.borrow_mut().push(Instant::now());
        }
        let payload = buffer.slice(
            (i as usize * 8) % (BUFFER_BYTES - PAYLOAD_BYTES),
            PAYLOAD_BYTES,
        );
        let shared = shared_tag(w + i);
        let started = ctx.now();
        let seqnum = if i % 8 == 7 {
            t.call();
            match log
                .cond_append(node, [own, shared], payload.clone(), own, i as usize)
                .await
            {
                CondAppendOutcome::Appended(sn) => sn,
                CondAppendOutcome::Conflict(sn) => {
                    t.conflicts.set(t.conflicts.get() + 1);
                    sn
                }
            }
        } else {
            t.call();
            log.append(node, [own, shared], payload.clone()).await
        };
        t.append_ns
            .borrow_mut()
            .push((ctx.now() - started).as_nanos() as u64);
        t.appends.set(t.appends.get() + 1);
        live.push_back((seqnum, payload));
        if i % 2 == 1 {
            t.call();
            let newest = log.read_prev(node, own, SeqNum::MAX).await;
            if newest.map(|r| r.seqnum) != Some(seqnum) {
                t.replay_mismatches.set(t.replay_mismatches.get() + 1);
            }
        }
        if i % 4 == 3 {
            t.call();
            // Another node looks the new record up in the shared stream:
            // a cache miss. Only this writer trims its own records, so the
            // read cannot race a trim (`LogService::fetch` panics on a
            // record reclaimed while the read was in flight).
            let found = log.read_next(far, shared, seqnum).await;
            if found.map(|r| r.seqnum) != Some(seqnum) {
                t.replay_mismatches.set(t.replay_mismatches.get() + 1);
            }
        }
        if i % TRIM_EVERY == TRIM_EVERY - 1 {
            let upto = live[live.len() - (TRIM_EVERY / 2) as usize].0;
            t.call();
            log.trim(node, own, upto).await;
            while live.front().is_some_and(|(sn, _)| *sn <= upto) {
                live.pop_front();
            }
            if w < SHARED_TAGS {
                t.call();
                log.trim(node, shared_tag(w), upto).await;
            }
        }
    }
    // The output check: the stream gives back exactly the untrimmed suffix.
    t.call();
    let (records, _) = log.replay_stream(node, own).await;
    let expected = live.iter().fold(0, |h, (sn, p)| fold_record(h, *sn, p));
    let got = records
        .iter()
        .fold(0, |h, r| fold_record(h, r.seqnum, &r.payload));
    if expected != got || records.len() != live.len() {
        t.replay_mismatches.set(t.replay_mismatches.get() + 1);
    }
    t.replayed_records
        .set(t.replayed_records.get() + records.len() as u64);
    t.checksum.set(mix(t.checksum.get(), got));
}

/// Runs one round of the storm.
pub fn storm_round(shape: &StormShape, seed: u64, tracer: bool) -> RoundReport {
    let t0 = Instant::now();
    let mut sim = Sim::new(seed);
    let log: LogService<SharedBytes> = LogService::new(
        sim.ctx(),
        LatencyModel::calibrated(),
        LogConfig {
            topology: Topology::sharded(SHARDS),
            sequencer_capacity: Some(SEQUENCER_CAPACITY),
            batch_max_records: shape.batch_max_records,
            ..LogConfig::default()
        },
    );
    if tracer {
        log.set_tracer(Tracer::new());
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let buffers: Vec<SharedBytes> = (0..WRITERS)
        .map(|_| {
            let words = (0..BUFFER_BYTES / 8).map(|_| rng.random::<u64>());
            SharedBytes::from_vec(words.flat_map(u64::to_le_bytes).collect())
        })
        .collect();
    // Preload: the shared streams start with history, the caches warm.
    {
        let ctx = sim.ctx();
        for s in 0..SHARED_TAGS {
            let (log, payload) = (log.clone(), buffers[s as usize].slice(0, PAYLOAD_BYTES));
            ctx.spawn(async move {
                for _ in 0..PRELOAD_PER_TAG {
                    log.append(NodeId((s % NODES) as u32), [shared_tag(s)], payload.clone())
                        .await;
                }
            });
        }
        sim.run();
    }
    let preload_counters = log.counters();
    let load_from = sim.now();
    log.reset_storage_window();

    let tally = Rc::new(Tally::default());
    let t_load = Instant::now();
    let allocs_start = AllocSnapshot::take();
    let polls_start = sim.poll_count();
    {
        let ctx = sim.ctx();
        for (w, buffer) in buffers.iter().enumerate() {
            // Writers do not end in lockstep: up to one trim period more,
            // drawn from the seed.
            let iterations = shape.iterations + rng.random_range(0..TRIM_EVERY);
            ctx.spawn(writer(
                ctx.clone(),
                log.clone(),
                w as u64,
                buffer.clone(),
                iterations,
                tally.clone(),
            ));
        }
    }
    sim.run();
    let load_s = t_load.elapsed().as_secs_f64();
    let allocs = AllocSnapshot::take().since(&allocs_start).allocs;

    let mut out = RoundReport::default();
    out.set_host("setup_s", (t_load - t0).as_secs_f64());
    out.set_host("load_s", load_s);
    out.set_host("allocs", allocs as f64);
    out.set_host("audit_s", 0.0);
    out.set_host("host_growth_ratio", growth_ratio(&tally.stamps.borrow()));

    if tally.conflicts.get() != 0 {
        out.failures.push(format!(
            "{} conditional appends lost",
            tally.conflicts.get()
        ));
    }
    if tally.replay_mismatches.get() != 0 {
        out.failures.push(format!(
            "{} reads or replays did not return what was appended",
            tally.replay_mismatches.get()
        ));
    }

    let counters = log.counters().since(&preload_counters);
    let flush = log.flush_stats();
    let virt_s = (sim.now() - load_from).as_secs_f64();
    let mut append_ns = tally.append_ns.borrow_mut();
    append_ns.sort_unstable();
    let at = |q: f64| append_ns[((append_ns.len() - 1) as f64 * q) as usize] as f64 / 1e6;
    let calls = tally.calls.get();
    let counts: [(&str, u64); 14] = [
        ("ops", calls),
        ("polls", sim.poll_count() - polls_start),
        ("generated", calls),
        ("completed", calls),
        (
            "errors",
            tally.conflicts.get() + tally.replay_mismatches.get(),
        ),
        ("appends", tally.appends.get()),
        ("replayed_records", tally.replayed_records.get()),
        ("live_records", log.live_records() as u64),
        ("log.appends", counters.log_appends),
        ("log.reads", counters.log_reads),
        ("log.trims", counters.log_trims),
        ("log.cache_hits", counters.cache_hits),
        ("log.cache_misses", counters.cache_misses),
        ("log.flushes", flush.flushes),
    ];
    let mut fingerprint = mix(tally.checksum.get(), sim.now().as_nanos() as u64);
    for (name, n) in counts {
        out.set_virt(name, n as f64);
        if name != "polls" {
            fingerprint = mix(fingerprint, n);
        }
    }
    out.set_virt("virt_p50_ms", at(0.5));
    out.set_virt("virt_p99_ms", at(0.99));
    out.set_virt("virt_p999_ms", at(0.999));
    out.set_virt("virt_goodput_ops_s", tally.appends.get() as f64 / virt_s);
    out.set_virt(
        "log_appends_per_op",
        counters.log_appends as f64 / calls.max(1) as f64,
    );
    out.set_virt("storage_avg_mb", log.average_bytes() / 1e6);
    out.set_virt("virt_drain_s", 0.0);
    out.set_virt("records_per_flush", flush.mean_batch_size());
    // Ordering decisions per second over what the four lanes can order.
    out.set_virt(
        "sequencer_util",
        flush.flushes as f64 / virt_s / (SHARDS as f64 * SEQUENCER_CAPACITY),
    );
    for name in ["virt_p50_ms", "virt_p99_ms", "storage_avg_mb"] {
        fingerprint = mix(fingerprint, out.get(name).to_bits());
    }
    out.fingerprint = fingerprint;
    out
}
