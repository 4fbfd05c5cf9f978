//! The routed log facade: Figure 3's API over one or more shards.
//!
//! [`LogService`] keeps the exact call shapes of the pre-sharding
//! monolith — `append` / `cond_append` / `read_prev` / `read_next` /
//! `read_stream` / `trim` — so `hm-core`'s Env, protocol ops and GC
//! code is oblivious to the topology. Internally every operation:
//!
//! 1. routes by tag (`router::shard_for_tag`) to the shard owning the
//!    sub-stream,
//! 2. passes that shard's sequencer lane (bounded by
//!    [`LogConfig::sequencer_capacity`], a no-op when uncapped),
//! 3. draws seqnums from the *shared* clock so cross-stream comparisons
//!    keep working (see `router` module docs), and
//! 4. charges latency, bytes, caches, and counters to that shard.
//!
//! # Multi-tag records across shards
//!
//! A record is sequenced once and **stored once**, on its *home* shard:
//! the shard of its first tag (for `cond_append`, the shard of the
//! condition tag, so the offset check and the store land on the same
//! sequencer). Tags routed elsewhere get index-only stream entries —
//! the seqnum appears in the foreign shard's sub-stream and resolves
//! through the service-wide slab to the record (which names its home
//! shard), like Boki's index replication. Bytes are charged exactly once
//! (home shard) and freed exactly once, when the last stream membership —
//! on any shard — dies.
//!
//! With `shards == 1` every operation routes to shard 0 and the service
//! is behaviorally bit-identical to the old monolith: same RNG draw
//! order, same sleeps, same counter and gauge update sequence.
//!
//! # Group-commit batching (`batch_max_records > 1`)
//!
//! Each shard's sequencer optionally coalesces appends into batches
//! (DESIGN.md §14). An append still races to the sequencer on its own —
//! drawing its usual latency sample and sleeping the to-sequencer share —
//! but on arrival it *joins the shard's open batch* instead of paying
//! admission alone. The batch flushes when it holds
//! [`LogConfig::batch_max_records`] members, when `BATCH_MAX_DELAY`
//! elapses on its first member, or when a recovery read forces it. One
//! flush pays **one** sequencer admission and **one** coalesced replica
//! write for the whole batch; members install in arrival order, so a batch
//! occupies a contiguous run of the shared seqnum clock. `cond_append`
//! conditions are evaluated at flush time, atomically with the installs —
//! exactly when the unbatched path evaluates them.
//!
//! A batch is one pooled object: its members, their outcomes, the gate
//! they wait on and the trigger that claimed it. Its first member spawns
//! its deadline task, which is also its flush task: a size trigger wakes
//! it, the deadline lets it claim the batch itself, and a forced flush
//! spawns its own while the task stands down. The task is detached and
//! owned by the sequencer, so a client crashing mid-flush never strands
//! its batch peers.
//!
//! With `batch_max_records <= 1` (the default) none of this code runs and
//! the append path is the pre-batching code, bit for bit.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::rc::Rc;
use std::task::{Poll, Waker};
use std::time::Duration;

use hm_common::collections::TagSet;
use hm_common::latency::LatencyModel;
use hm_common::metrics::OpCounters;
use hm_common::observe::{Lane, Phase, Probe, Scope};
use hm_common::trace::Tracer;
use hm_common::{NodeId, SeqNum, Tag};
use hm_substrate::sync::Gate;
use hm_substrate::Ctx;

use crate::payload::Payload;
use crate::router::{shard_for_tag, ShardId, Topology};
use crate::shard::{FlushStats, LogRecord, ShardState, Stream, RECORD_META_BYTES};
use crate::slab::{RecordSlab, RecordSlot};

/// Result of a successful [`LogService::cond_append`], or the conflict info
/// the paper's `logCondAppend` returns (§5.1): the seqnum of the record that
/// already occupies the expected position, so the losing instance can adopt
/// the winner's state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CondAppendOutcome {
    /// This append won: the record landed at the expected offset.
    Appended(SeqNum),
    /// A peer's record already occupies the expected offset; the append was
    /// undone. Carries the winner's seqnum.
    Conflict(SeqNum),
}

/// Accounting from one [`LogService::replay_stream`] call — the §5
/// recovery numbers: how much history the successor re-read and how much
/// was already behind the trim horizon (covered by checkpoints, skipped).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Live records returned — what the successor replays. Each record is
    /// counted exactly once, whether it was already durable or only became
    /// durable via the forced flush this call issued (see
    /// [`ReplayStats::pending_flushed`]).
    pub replayed: u64,
    /// Records trimmed off the stream front before the call — the trim
    /// horizon the replay starts from.
    pub trimmed: u64,
    /// Records that were still parked in the home shard's open batch when
    /// the replay began, and which this call force-flushed before reading.
    /// Always a subset of the records counted by `replayed` (never an
    /// addition to it) — the double-count a crash mid-flush used to cause.
    /// Zero when batching is off.
    pub pending_flushed: u64,
}

/// Fraction of append latency spent *before* the sequencer assigns the
/// seqnum (the request's trip to the sequencer). Concurrent appends
/// therefore race for order, like on the real network.
const SEQUENCER_FRACTION: f64 = 0.4;

/// Storage replicas backing each shard (the paper's setup uses three
/// storage nodes per ordering lane).
const REPLICAS_PER_SHARD: u32 = 3;

/// Replicas that must acknowledge an append before it is durable; with
/// fewer live, the append is counted as degraded.
const QUORUM: u32 = 2;

/// Longest virtual time the first record of a batch waits for company
/// before the batch flushes anyway.
const BATCH_MAX_DELAY: Duration = Duration::from_micros(200);

/// Tuning knobs for the simulated logging layer.
#[derive(Clone, Copy, Debug)]
pub struct LogConfig {
    /// Shard count.
    pub topology: Topology,
    /// Appends per second one shard's sequencer can order. `None` models
    /// an ideal (infinitely fast) sequencer — the pre-sharding behavior,
    /// where ordering adds no queueing delay. Set it to see a sequencer
    /// saturate: appends beyond the capacity queue FIFO at the lane and
    /// pay the backlog as extra latency.
    pub sequencer_capacity: Option<f64>,
    /// Group-commit batch size: how many appends a shard's sequencer
    /// coalesces into one admission + one replicated storage round-trip.
    /// `1` (the default) disables batching entirely — the append path is
    /// the exact pre-batching code, bit-identical RNG draws and all.
    /// Values above 1 enable the per-shard batcher described in the module
    /// docs: a batch flushes when it reaches this size or 200 µs after its
    /// first member arrived, whichever comes first.
    pub batch_max_records: usize,
}

impl Default for LogConfig {
    fn default() -> LogConfig {
        LogConfig {
            topology: Topology::default(),
            sequencer_capacity: None,
            batch_max_records: 1,
        }
    }
}

/// One append parked in a shard's open batch, waiting for the flush that
/// will sequence it.
///
/// Everything in a member is a pointer bump or a `Copy` to move: tags are
/// an inline [`TagSet`] and the payload's `Clone` is refcounted for
/// protocol records — parking an append allocates nothing in steady state.
struct PendingAppend<P> {
    node: NodeId,
    tags: TagSet,
    payload: P,
    /// `Some((cond_tag, cond_pos))` for `cond_append` members; the check
    /// is evaluated at flush time, atomically with the install, exactly as
    /// the unbatched path evaluates it at sequencing time.
    cond: Option<(Tag, usize)>,
    /// This member's storage share of its own latency draw. The batch's
    /// coalesced write takes the max over members — no fresh draw.
    storage_part: Duration,
    /// The append's scope, so the flush can mark its sequencing decision
    /// and walk it through `BatchWait → Sequencer → Quorum` while the
    /// appender is parked at the gate.
    scope: Scope,
}

/// Why a batch flushed — bookkept into [`FlushStats`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum FlushTrigger {
    /// Reached `batch_max_records`.
    Size,
    /// `BATCH_MAX_DELAY` elapsed on the oldest member.
    Deadline,
    /// A `replay_stream` recovery read drained it.
    Forced,
}

/// One group-commit batch, from its first member's arrival until the last
/// appender has read its outcome. Shared behind one `Rc` by the shard's
/// open slot (while the batch is joinable), its appenders, its deadline
/// task and, when a recovery read forces it, that read and its flush.
struct Batch<P> {
    /// Parked appends in arrival order; the flush drains them.
    members: Vec<PendingAppend<P>>,
    /// The flush's result for the member that joined `i`-th, at index `i`.
    outcomes: Vec<CondAppendOutcome>,
    /// Opened once the batch is sequenced **and** durable.
    gate: Gate,
    /// The trigger that closed the batch to new members; `None` while it
    /// is the shard's open batch.
    claimed: Option<FlushTrigger>,
    /// The deadline task's waker while it sleeps, for a size trigger to
    /// wake it.
    deadline_waker: Option<Waker>,
}

type BatchRef<P> = Rc<RefCell<Batch<P>>>;

/// Most batches the service keeps for reuse. A batch is in use from its
/// first member's arrival until a storage round-trip after its flush, so a
/// handful per shard covers every batch in flight; beyond that, dropping
/// the excess is cheaper than hoarding arbitrary capacity.
const BATCH_POOL_CAP: usize = 32;

/// A batch for a shard's open slot: the first pooled batch that only the
/// pool still holds, reset, or a new one with room for `cap` members
/// (pooled while the pool has room). The sole-owner test is what makes
/// reuse invisible: no appender can still be reading the old outcomes, and
/// no waiter can see the gate close again.
fn pooled_batch<P>(pool: &mut Vec<BatchRef<P>>, cap: usize) -> BatchRef<P> {
    let idle = |b: &BatchRef<P>| Rc::strong_count(b) == 1 && b.borrow().gate.try_reset();
    if let Some(batch) = pool.iter().find(|b| idle(b)) {
        let mut b = batch.borrow_mut();
        debug_assert!(b.members.is_empty() && b.deadline_waker.is_none());
        b.outcomes.clear();
        b.claimed = None;
        drop(b);
        return batch.clone();
    }
    let batch = Rc::new(RefCell::new(Batch {
        members: Vec::with_capacity(cap),
        outcomes: Vec::with_capacity(cap),
        gate: Gate::with_capacity(cap),
        claimed: None,
        deadline_waker: None,
    }));
    if pool.len() < BATCH_POOL_CAP {
        pool.push(batch.clone());
    }
    batch
}

/// Most emptied stream buffers the service keeps for reuse. A garbage
/// collection cycle empties a stream per finished instance and per object
/// it trims, and new instances' step logs and the next writes to those
/// objects take the buffers back before the next cycle; beyond this many,
/// the excess is freed as before.
const STREAM_POOL_CAP: usize = 1024;

/// Largest emptied stream buffer, in seqnums, the pool takes: a hot
/// stream's long buffer is freed rather than handed to a stream that
/// will hold a dozen entries.
const STREAM_POOL_MAX_CAPACITY: usize = 64;

struct ServiceInner<P> {
    /// Every live record, addressed by seqnum; owns the shared clock.
    slab: RecordSlab<P>,
    shards: Vec<ShardState>,
    /// Each shard's open (joinable) batch, if any; always `None` while
    /// batching is off.
    open_batches: Vec<Option<BatchRef<P>>>,
    /// The deployment's observation handle, shared by all handle clones.
    probe: Option<Rc<Probe>>,
    /// Batches recycled between flushes (see [`pooled_batch`]): steady-
    /// state batching reuses the same few member vectors, outcome vectors
    /// and gates forever.
    batch_pool: Vec<BatchRef<P>>,
    /// Empty seqnum buffers of streams that a trim emptied, each owned by
    /// the pool alone; [`LogService::install`] gives one to a stream that
    /// has no buffer. Capped at [`STREAM_POOL_CAP`].
    stream_pool: Vec<VecDeque<SeqNum>>,
    /// Scratch for [`LogService::trim`]'s drained-seqnum list.
    trim_scratch: Vec<SeqNum>,
    /// Scratch for [`LogService::trim`]'s per-shard freed-bytes tally.
    freed_scratch: Vec<usize>,
    /// Scratch for [`LogService::read_stream`]'s seqnum snapshot. Taken
    /// (not borrowed) across the read's await; a reentrant reader simply
    /// falls back to a fresh vector.
    stream_scratch: Vec<SeqNum>,
}

impl<P> ServiceInner<P> {
    /// Which shard owns `tag`'s sub-stream.
    #[allow(clippy::cast_possible_truncation)] // `shards` is built from a `u8` count
    fn shard_of(&self, tag: Tag) -> u8 {
        shard_for_tag(tag, self.shards.len() as u8).0
    }

    /// The live record at `sn`; `None` once it has been reclaimed.
    fn fetch(&self, sn: SeqNum) -> Option<LogRecord<P>>
    where
        P: Clone,
    {
        let payload = self.slab.get(sn)?.payload.clone();
        Some(LogRecord {
            seqnum: sn,
            payload,
        })
    }

    /// `read_prev`'s pick: the newest entry of `tag`'s stream (on `shard`)
    /// at or below `max_seqnum`.
    fn resolve_prev(&self, shard: u8, tag: Tag, max_seqnum: SeqNum) -> Option<SeqNum> {
        let s = self.shards[shard as usize].streams.get(&tag)?;
        if max_seqnum == SeqNum::MAX {
            // Newest record: the common "read the tail" case.
            s.seqnums.back().copied()
        } else {
            let idx = s.seqnums.partition_point(|&sn| sn <= max_seqnum);
            idx.checked_sub(1).and_then(|i| s.seqnums.get(i).copied())
        }
    }

    /// `read_next`'s pick: the oldest entry of `tag`'s stream (on `shard`)
    /// at or above `min_seqnum`.
    fn resolve_next(&self, shard: u8, tag: Tag, min_seqnum: SeqNum) -> Option<SeqNum> {
        let s = self.shards[shard as usize].streams.get(&tag)?;
        let first = s.seqnums.front().copied()?;
        if min_seqnum <= first {
            Some(first)
        } else {
            let idx = s.seqnums.partition_point(|&sn| sn < min_seqnum);
            s.seqnums.get(idx).copied()
        }
    }
}

/// Handle to the simulated, possibly sharded, shared log. Cheap to clone;
/// clones share state.
///
/// The Figure-3 surface in one sitting — append to two sub-streams, read
/// one back, race a conditional append, trim:
///
/// ```
/// use hm_common::{ids::TagKind, latency::LatencyModel, NodeId, SeqNum, Tag};
/// use hm_sharedlog::{CondAppendOutcome, LogConfig, LogService};
/// use hm_substrate::sim::Sim;
///
/// let mut sim = Sim::new(7);
/// let log: LogService<String> =
///     LogService::new(sim.ctx(), LatencyModel::calibrated(), LogConfig::default());
/// let l = log.clone();
/// sim.block_on(async move {
///     let step = Tag::named(TagKind::StepLog, "instance-1");
///     let obj = Tag::named(TagKind::ObjectLog, "account");
///     let sn = l.append(NodeId(0), vec![step, obj], "deposit 10".into()).await;
///     assert_eq!(l.read_prev(NodeId(0), obj, SeqNum::MAX).await.unwrap().seqnum, sn);
///     // The step's next offset is 1 (one record so far): position 0 is
///     // already taken, so a conditional append at 0 loses and learns the
///     // winner's seqnum.
///     let lost = l
///         .cond_append(NodeId(1), vec![step], "dup step".into(), step, 0)
///         .await;
///     assert_eq!(lost, CondAppendOutcome::Conflict(sn));
///     l.trim(NodeId(0), step, sn).await;
///     assert!(l.read_prev(NodeId(0), step, SeqNum::MAX).await.is_none());
/// });
/// ```
pub struct LogService<P> {
    ctx: Ctx,
    model: LatencyModel,
    config: LogConfig,
    inner: Rc<RefCell<ServiceInner<P>>>,
}

impl<P> Clone for LogService<P> {
    fn clone(&self) -> Self {
        LogService {
            ctx: self.ctx.clone(),
            model: self.model,
            config: self.config,
            inner: self.inner.clone(),
        }
    }
}

impl<P: Payload> LogService<P> {
    /// Host bytes one record slot occupies, live or dead: times
    /// [`LogService::retained_records`], the log's record memory. Holds
    /// the payload inline, so it moves with `P`.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Option<RecordSlot<P>>>();

    /// Creates an empty log with `config.topology.shards` sequencer lanes.
    /// Seqnums start at 1 so that [`SeqNum::ZERO`] can mean "before
    /// everything".
    #[must_use]
    pub fn new(ctx: Ctx, model: LatencyModel, config: LogConfig) -> LogService<P> {
        let now = ctx.now();
        let shards = config.topology.shards.max(1);
        LogService {
            ctx,
            model,
            config,
            inner: Rc::new(RefCell::new(ServiceInner {
                slab: RecordSlab::new(),
                shards: (0..shards).map(|_| ShardState::new(now)).collect(),
                open_batches: (0..shards).map(|_| None).collect(),
                probe: None,
                batch_pool: Vec::new(),
                stream_pool: Vec::new(),
                trim_scratch: Vec::new(),
                freed_scratch: Vec::new(),
                stream_scratch: Vec::new(),
            })),
        }
    }

    /// The topology this service was built with.
    #[must_use]
    pub fn topology(&self) -> Topology {
        self.config.topology
    }

    /// Number of shards (sequencer lanes).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.inner.borrow().shards.len()
    }

    /// Which shard owns `tag`'s sub-stream.
    #[must_use]
    pub fn shard_of(&self, tag: Tag) -> ShardId {
        shard_for_tag(tag, self.config.topology.shards)
    }

    /// Attaches the deployment's probe. Every log round-trip then opens a
    /// `log_*` scope on the storage lane under the context its caller
    /// armed, charging `LogHop → BatchWait → Sequencer → Quorum` for
    /// appends and `LogRead` for reads, with sequencing decisions marked on
    /// the owning shard's sequencer lane and cache hits/misses on the
    /// reading node's lane. Shared by all handle clones.
    pub fn observe(&self, probe: Rc<Probe>) {
        self.inner.borrow_mut().probe = Some(probe);
    }

    /// [`LogService::observe`] with a probe that feeds only `tracer`: for a
    /// log driven without a client. Nobody arms that probe, so every span
    /// is background work on trace 0.
    pub fn set_tracer(&self, tracer: Rc<Tracer>) {
        self.inner.borrow_mut().probe = Probe::new(Some(tracer), None, None);
    }

    /// Opens this operation's scope. Must run before its first `await`.
    fn begin(&self, name: &'static str, phase: Option<Phase>) -> Scope {
        match &self.inner.borrow().probe {
            Some(p) => p.begin(Lane::Storage, self.ctx.now(), name, phase),
            None => Scope::NONE,
        }
    }

    /// Marks a sequencing decision on `shard`'s sequencer lane, under the
    /// append's span.
    fn mark_sequenced(&self, scope: &Scope, shard: u8, outcome: CondAppendOutcome) {
        let (name, whose, sn) = match outcome {
            CondAppendOutcome::Appended(sn) => ("sequenced", "", sn),
            CondAppendOutcome::Conflict(winner) => ("cond_conflict", "winner ", winner),
        };
        let now = || self.ctx.now();
        scope.instant(Lane::Sequencer(shard), now, name, || {
            format!("{whose}sn{}", sn.0)
        });
    }

    /// The home shard for a record with these tags: the shard of the
    /// first tag (tagless records go to shard 0).
    fn home_shard(&self, tags: &[Tag]) -> u8 {
        tags.first().map_or(0, |&tag| self.shard_of(tag).0)
    }

    /// FIFO admission at `shard`'s sequencer lane. With a capacity
    /// configured, the caller waits out the lane's backlog and its own
    /// ordering decision books `1/capacity` of lane time. Uncapped lanes
    /// (the default) book zero service time, so absent an injected
    /// [`LogService::stall_sequencer`] the lane is never in the future
    /// and admission is instant — no sleep, no timer, interleaving-
    /// identical to the pre-sharding code.
    async fn sequencer_admission(&self, shard: u8) {
        let service = match self.config.sequencer_capacity {
            Some(capacity) => {
                debug_assert!(capacity > 0.0, "sequencer capacity must be positive");
                Duration::from_secs_f64(1.0 / capacity)
            }
            None => Duration::ZERO,
        };
        let now = self.ctx.now();
        let wait = {
            let mut inner = self.inner.borrow_mut();
            let lane = &mut inner.shards[shard as usize].sequencer_free_at;
            let start = (*lane).max(now);
            *lane = start + service;
            start.saturating_sub(now)
        };
        if !wait.is_zero() {
            self.ctx.sleep(wait).await;
        }
    }

    /// Books `stall` of dead time on `shard`'s sequencer lane, starting
    /// from the later of now and the lane's current backlog. Every
    /// ordering decision routed to the shard during the stall waits it
    /// out FIFO — the leader-pause / view-change hiccup a chaos campaign
    /// injects (appends are delayed, never lost or reordered).
    pub fn stall_sequencer(&self, shard: ShardId, stall: Duration) {
        let now = self.ctx.now();
        let mut inner = self.inner.borrow_mut();
        let lane = &mut inner.shards[shard.0 as usize].sequencer_free_at;
        *lane = (*lane).max(now) + stall;
    }

    /// Appends a record tagged with `tags`; returns its seqnum.
    ///
    /// Latency is one sample of the calibrated log-append distribution,
    /// split around the sequencer's order assignment; the storage phase
    /// completes when a quorum of the home shard's replicas has
    /// acknowledged (the slowest acknowledging replica sets the pace, so
    /// losing a replica visibly fattens the tail).
    ///
    /// With group-commit enabled (`batch_max_records > 1`) the record
    /// instead joins its home shard's open batch on arrival at the
    /// sequencer and returns once the batch's coalesced flush has
    /// sequenced and persisted it; the outcome and the client-visible
    /// ordering are unchanged.
    ///
    /// `tags` accepts anything convertible to a [`TagSet`]: a `Vec<Tag>`,
    /// a `&[Tag]`, or — allocation-free for the common ≤ 4-tag case — an
    /// array like `[step, obj]`.
    pub async fn append(&self, node: NodeId, tags: impl Into<TagSet>, payload: P) -> SeqNum {
        let tags: TagSet = tags.into();
        let home = self.home_shard(&tags);
        match self
            .append_on(home, "log_append", node, tags, payload, None)
            .await
        {
            CondAppendOutcome::Appended(seqnum) => seqnum,
            CondAppendOutcome::Conflict(_) => unreachable!("unconditional append cannot conflict"),
        }
    }

    /// The pipeline behind [`LogService::append`] and
    /// [`LogService::cond_append`]: the trip to `home`'s sequencer, then a
    /// seat in its open batch (group commit) or sequencing alone followed
    /// by the quorum write.
    async fn append_on(
        &self,
        home: u8,
        name: &'static str,
        node: NodeId,
        tags: TagSet,
        payload: P,
        cond: Option<(Tag, usize)>,
    ) -> CondAppendOutcome {
        let scope = self.begin(name, Some(Phase::LogHop));
        let total = self.ctx.with_rng(|rng| self.model.log_append.sample(rng));
        let to_sequencer = total.mul_f64(SEQUENCER_FRACTION);
        self.ctx.sleep(to_sequencer).await;
        let storage_part = total.saturating_sub(to_sequencer);
        let outcome = if self.batching_enabled() {
            let member = PendingAppend {
                node,
                tags,
                payload,
                cond,
                storage_part,
                scope: scope.clone(),
            };
            scope.phase(|| self.ctx.now(), Phase::BatchWait);
            self.append_batched(home, member).await
        } else {
            scope.phase(|| self.ctx.now(), Phase::Sequencer);
            self.sequencer_admission(home).await;
            let outcome = self.sequence(home, node, &tags, payload, cond);
            self.mark_sequenced(&scope, home, outcome);
            scope.phase(|| self.ctx.now(), Phase::Quorum);
            let storage = self.quorum_storage_latency(home, storage_part);
            self.ctx.sleep(storage).await;
            outcome
        };
        scope.end(|| self.ctx.now());
        outcome
    }

    /// One sequencing decision at `shard`. A conditional append's offset
    /// check and its install are atomic at the owning shard: that is the
    /// point of logCondAppend (it resolves conflicts "in place", unlike
    /// Boki's separate append-then-read). The stream's next offset is
    /// O(1): `len_total` is a stored count.
    fn sequence(
        &self,
        shard: u8,
        node: NodeId,
        tags: &[Tag],
        payload: P,
        cond: Option<(Tag, usize)>,
    ) -> CondAppendOutcome {
        if let Some((cond_tag, cond_pos)) = cond {
            let mut inner = self.inner.borrow_mut();
            let state = &mut inner.shards[shard as usize];
            let stream = state.streams.get(&cond_tag);
            if stream.map_or(0, Stream::len_total) != cond_pos {
                let winner = stream.and_then(|s| s.at(cond_pos)).unwrap_or(SeqNum::ZERO);
                state.counters.cond_append_conflicts += 1;
                return CondAppendOutcome::Conflict(winner);
            }
        }
        CondAppendOutcome::Appended(self.install(shard, node, tags, payload))
    }

    /// The storage-phase latency on `shard`. The calibrated log-append
    /// distribution already describes a healthy quorum-of-replicas write
    /// (DESIGN.md §4), so the full-strength path costs exactly the base
    /// sample. With replicas down, the quorum must include proportionally
    /// worse replicas: each missing replica fattens the write by ~25 %
    /// plus an extra tail jitter. Below quorum strength, the shard
    /// reconfigures (Boki's view change) and the append is counted as
    /// degraded — on that shard only.
    fn quorum_storage_latency(&self, shard: u8, base: Duration) -> Duration {
        let mut inner = self.inner.borrow_mut();
        let state = &mut inner.shards[shard as usize];
        let live = REPLICAS_PER_SHARD - state.failed_replicas.len() as u32;
        if live >= REPLICAS_PER_SHARD {
            return base;
        }
        if live < QUORUM {
            state.degraded_appends += 1;
        }
        drop(inner);
        if live == 0 {
            // Total storage outage: a reconfiguration round on top.
            return base.saturating_mul(3);
        }
        let missing = (REPLICAS_PER_SHARD - live) as f64;
        let jitter = self
            .ctx
            .with_rng(|rng| hm_common::latency::sample_standard_normal(rng).abs());
        base.mul_f64(1.0 + 0.25 * missing + 0.15 * jitter)
    }

    /// Marks a storage replica of `shard` as failed. Replica failure is
    /// shard-scoped: other shards' storage groups keep full-speed quorums.
    pub fn fail_storage_replica_on(&self, shard: ShardId, replica: u32) {
        self.inner.borrow_mut().shards[shard.0 as usize]
            .failed_replicas
            .insert(replica % REPLICAS_PER_SHARD);
    }

    /// Brings a failed storage replica of `shard` back.
    pub fn recover_storage_replica_on(&self, shard: ShardId, replica: u32) {
        self.inner.borrow_mut().shards[shard.0 as usize]
            .failed_replicas
            .remove(&(replica % REPLICAS_PER_SHARD));
    }

    /// Number of live storage replicas on `shard`.
    #[must_use]
    pub fn live_storage_replicas_on(&self, shard: ShardId) -> u32 {
        REPLICAS_PER_SHARD
            - self.inner.borrow().shards[shard.0 as usize]
                .failed_replicas
                .len() as u32
    }

    /// Appends persisted below the quorum (degraded views),
    /// across all shards.
    #[must_use]
    pub fn degraded_appends(&self) -> u64 {
        self.inner
            .borrow()
            .shards
            .iter()
            .map(|s| s.degraded_appends)
            .sum()
    }

    /// Degraded appends charged to one shard's storage group.
    #[must_use]
    pub fn shard_degraded_appends(&self, shard: ShardId) -> u64 {
        self.inner.borrow().shards[shard.0 as usize].degraded_appends
    }

    /// Conditional append (§5.1, Figure 3's `logCondAppend`).
    ///
    /// Appends like [`LogService::append`], then checks that the new
    /// record's offset within the `cond_tag` sub-stream equals `cond_pos`.
    /// On mismatch the append is undone and the seqnum of the record
    /// actually at `cond_pos` is returned, so exactly one peer instance
    /// wins each step and losers can adopt the winner's record.
    ///
    /// The record's home shard is `cond_tag`'s shard, so the offset check
    /// and the sequencing decision stay atomic on one sequencer lane.
    pub async fn cond_append(
        &self,
        node: NodeId,
        tags: impl Into<TagSet>,
        payload: P,
        cond_tag: Tag,
        cond_pos: usize,
    ) -> CondAppendOutcome {
        let tags: TagSet = tags.into();
        debug_assert!(
            tags.contains(&cond_tag),
            "cond_tag must be among the record's tags"
        );
        let home = self.shard_of(cond_tag).0;
        let cond = Some((cond_tag, cond_pos));
        self.append_on(home, "log_cond_append", node, tags, payload, cond)
            .await
    }

    // ---- group-commit batcher (active when batch_max_records > 1) ----

    /// Whether group-commit batching is configured
    /// (`LogConfig::batch_max_records > 1`).
    #[must_use]
    pub fn batching_enabled(&self) -> bool {
        self.config.batch_max_records > 1
    }

    /// Parks an append (plain or conditional) in `home`'s open batch, arms
    /// the flush trigger, and waits for the flush to deliver this member's
    /// outcome. Called after the member has already slept its trip to the
    /// sequencer, so batch join order *is* sequencer arrival order.
    async fn append_batched(&self, home: u8, member: PendingAppend<P>) -> CondAppendOutcome {
        let cap = self.config.batch_max_records;
        let batch = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let open = &mut inner.open_batches[home as usize];
            open.get_or_insert_with(|| pooled_batch(&mut inner.batch_pool, cap))
                .clone()
        };
        let seat = {
            let mut b = batch.borrow_mut();
            b.members.push(member);
            b.members.len() - 1
        };
        if seat + 1 == cap {
            // The filling member claims synchronously (no await between the
            // push above and this claim, so the batch cannot change under
            // us) and wakes the batch's deadline task to flush it: waking
            // enqueues the flush where a freshly spawned task would go, and
            // a task that has not first-polled yet sees the claim then.
            self.claim(home, FlushTrigger::Size);
            let waker = batch.borrow_mut().deadline_waker.take();
            if let Some(waker) = waker {
                waker.wake();
            }
        } else if seat == 0 {
            // First member arms the deadline. The task is detached (owned
            // by the sequencer, not by any function node's failure domain).
            let (svc, batch) = (self.clone(), batch.clone());
            self.ctx
                .spawn_detached(async move { svc.deadline_task(home, batch).await });
        }
        let opened = batch.borrow().gate.wait();
        opened.await;
        let outcome = batch.borrow().outcomes[seat];
        outcome
    }

    /// Closes `shard`'s open batch to new members on behalf of `trigger`
    /// and returns it; the next append opens a fresh one. `None` when no
    /// batch is open.
    fn claim(&self, shard: u8, trigger: FlushTrigger) -> Option<BatchRef<P>> {
        let batch = self.inner.borrow_mut().open_batches[shard as usize].take()?;
        batch.borrow_mut().claimed = Some(trigger);
        Some(batch)
    }

    /// A batch's own flush task, spawned by its first member: flushes the
    /// batch when a size trigger wakes it, or claims and flushes it when
    /// `BATCH_MAX_DELAY` elapses first. A batch a recovery read forced is
    /// that read's to flush; the task then stands down at its deadline.
    async fn deadline_task(&self, shard: u8, batch: BatchRef<P>) {
        let mut delay = pin!(self.ctx.sleep(BATCH_MAX_DELAY));
        let trigger = poll_fn(|cx| {
            let mut b = batch.borrow_mut();
            if b.claimed == Some(FlushTrigger::Size) {
                return Poll::Ready(Some(FlushTrigger::Size));
            }
            if delay.as_mut().poll(cx).is_ready() {
                b.deadline_waker = None;
                return Poll::Ready(b.claimed.is_none().then_some(FlushTrigger::Deadline));
            }
            match &mut b.deadline_waker {
                Some(w) => w.clone_from(cx.waker()),
                slot => *slot = Some(cx.waker().clone()),
            }
            Poll::Pending
        })
        .await;
        if trigger == Some(FlushTrigger::Deadline) {
            self.claim(shard, FlushTrigger::Deadline);
        }
        if let Some(trigger) = trigger {
            self.flush_batch(shard, &batch, trigger).await;
        }
    }

    /// Sequences and persists one claimed batch: a single sequencer
    /// admission covers the whole batch, members install in join (= arrival)
    /// order — so the batch occupies a contiguous run of the shared clock —
    /// and one coalesced storage round-trip persists everything. Conditional
    /// members have their offset check evaluated here, atomically with the
    /// installs, exactly as the unbatched path checks at sequencing time.
    ///
    /// The coalesced write completes when its slowest member's replica
    /// write would: `quorum_storage_latency` over the **max** of the
    /// members' own storage shares. No fresh latency draw happens here, so
    /// a workload whose appends never actually share a batch consumes the
    /// exact RNG stream of an unbatched run.
    async fn flush_batch(&self, shard: u8, batch: &BatchRef<P>, trigger: FlushTrigger) {
        let mut members = std::mem::take(&mut batch.borrow_mut().members);
        debug_assert!(!members.is_empty(), "claimed batches are never empty");
        // The whole batch enters sequencing together: every member's phase
        // clock flips from BatchWait to Sequencer before the single shared
        // admission below.
        for m in &members {
            m.scope.phase(|| self.ctx.now(), Phase::Sequencer);
        }
        self.sequencer_admission(shard).await;
        let mut batch_storage = Duration::ZERO;
        let count = members.len() as u64;
        for m in members.drain(..) {
            batch_storage = batch_storage.max(m.storage_part);
            let outcome = self.sequence(shard, m.node, &m.tags, m.payload, m.cond);
            self.mark_sequenced(&m.scope, shard, outcome);
            batch.borrow_mut().outcomes.push(outcome);
            // Sequenced (installs take zero simulated time); the rest of
            // this member's wait is the coalesced quorum write.
            m.scope.phase(|| self.ctx.now(), Phase::Quorum);
        }
        // Drained: the vector goes back so a reuse of this batch keeps its
        // capacity.
        batch.borrow_mut().members = members;
        {
            let mut inner = self.inner.borrow_mut();
            let flush = &mut inner.shards[shard as usize].flush;
            flush.flushes += 1;
            flush.records += count;
            match trigger {
                FlushTrigger::Size => flush.size_trigger += 1,
                FlushTrigger::Deadline => flush.deadline_trigger += 1,
                FlushTrigger::Forced => flush.forced_trigger += 1,
            }
        }
        let storage = self.quorum_storage_latency(shard, batch_storage);
        self.ctx.sleep(storage).await;
        batch.borrow().gate.open();
    }

    /// Force-flushes `shard`'s open batch on a detached task (a recovery
    /// reader that crashes mid-flush strands no batch peer) and waits until
    /// its members are sequenced and durable. Returns how many records the
    /// forced flush carried (0 when no batch was open, as always with
    /// batching off).
    async fn force_flush(&self, shard: u8) -> u64 {
        let Some(batch) = self.claim(shard, FlushTrigger::Forced) else {
            return 0;
        };
        let n = batch.borrow().members.len() as u64;
        let (svc, flushed) = (self.clone(), batch.clone());
        self.ctx.spawn_detached(async move {
            svc.flush_batch(shard, &flushed, FlushTrigger::Forced).await;
        });
        let opened = batch.borrow().gate.wait();
        opened.await;
        n
    }

    /// Group-commit accounting, aggregated across shards. All-zero while
    /// batching is off.
    #[must_use]
    pub fn flush_stats(&self) -> FlushStats {
        let inner = self.inner.borrow();
        let mut total = FlushStats::default();
        for shard in &inner.shards {
            total = total.merged(&shard.flush);
        }
        total
    }

    /// Records currently parked in `shard`'s open batch (test helper).
    #[must_use]
    pub fn pending_batch_len(&self, shard: ShardId) -> usize {
        self.inner.borrow().open_batches[shard.0 as usize]
            .as_ref()
            .map_or(0, |b| b.borrow().members.len())
    }

    /// Sequences and stores a record: draws the shared clock, stores the
    /// record in the slab under that seqnum, and pushes index entries into
    /// every tag's sub-stream (on whichever shard owns it). Bytes and the
    /// append counter are charged to the home shard only.
    fn install(&self, home: u8, node: NodeId, tags: &[Tag], payload: P) -> SeqNum {
        let now = self.ctx.now();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let seqnum = inner.slab.head();
        let bytes = payload.size_bytes() + RECORD_META_BYTES;
        let mut slot = RecordSlot::new(ShardId(home), payload, bytes, tags.len());
        for &tag in tags {
            let shard = inner.shard_of(tag);
            let stream = inner.shards[shard as usize].streams.entry(tag).or_default();
            if stream.seqnums.capacity() == 0 {
                if let Some(buf) = inner.stream_pool.pop() {
                    debug_assert!(buf.is_empty(), "a pooled buffer is empty");
                    stream.seqnums = buf;
                }
            }
            stream.seqnums.push_back(seqnum);
            // The appending node caches its own record, on every shard
            // whose streams index it.
            slot.cache(shard, node);
        }
        inner.slab.push(slot);
        let state = &mut inner.shards[home as usize];
        state.bytes.add(now, bytes as f64);
        state.counters.log_appends += 1;
        seqnum
    }

    /// Reads the latest record in `tag`'s sub-stream with seqnum ≤
    /// `max_seqnum` (Figure 3's `logReadPrev`).
    pub async fn read_prev(
        &self,
        node: NodeId,
        tag: Tag,
        max_seqnum: SeqNum,
    ) -> Option<LogRecord<P>> {
        let pick = |inner: &ServiceInner<P>, shard| inner.resolve_prev(shard, tag, max_seqnum);
        self.read_one("log_read_prev", node, tag, pick).await
    }

    /// Reads the earliest record in `tag`'s sub-stream with seqnum ≥
    /// `min_seqnum` (Figure 3's `logReadNext`).
    pub async fn read_next(
        &self,
        node: NodeId,
        tag: Tag,
        min_seqnum: SeqNum,
    ) -> Option<LogRecord<P>> {
        let pick = |inner: &ServiceInner<P>, shard| inner.resolve_next(shard, tag, min_seqnum);
        self.read_one("log_read_next", node, tag, pick).await
    }

    /// One point read: pick a seqnum from `tag`'s stream, pay the round,
    /// fetch the record.
    async fn read_one(
        &self,
        name: &'static str,
        node: NodeId,
        tag: Tag,
        pick: impl Fn(&ServiceInner<P>, u8) -> Option<SeqNum>,
    ) -> Option<LogRecord<P>> {
        let scope = self.begin(name, Some(Phase::LogRead));
        let shard = self.shard_of(tag).0;
        let found = pick(&self.inner.borrow(), shard);
        self.pay_read(shard, node, found, &scope).await;
        scope.end(|| self.ctx.now());
        // A trim may have reclaimed the pick during the read's sleep: it
        // then re-resolves once against the stream as it is now (whose
        // entries are all live). No sleep or draw is added, so a read
        // that does not lose the race is unchanged.
        let inner = self.inner.borrow();
        inner
            .fetch(found?)
            .or_else(|| inner.fetch(pick(&inner, shard)?))
    }

    /// Retrieves every live record of a sub-stream (Figure 5's
    /// `getStepLogs`). Costs one read round; Boki batches this scan.
    /// Records a concurrent trim reclaims during that round are skipped.
    pub async fn read_stream(&self, node: NodeId, tag: Tag) -> Vec<LogRecord<P>> {
        let scope = self.begin("log_read_stream", Some(Phase::LogRead));
        self.read_stream_in(&scope, node, tag).await
    }

    /// The stream read behind [`LogService::read_stream`] and
    /// [`LogService::replay_stream`]; closes `scope`.
    async fn read_stream_in(&self, scope: &Scope, node: NodeId, tag: Tag) -> Vec<LogRecord<P>> {
        // Snapshot the stream's seqnums into the recycled scratch buffer —
        // taken out of the service (not borrowed) because the read sleeps
        // below; a reentrant reader just falls back to a fresh vector.
        let (shard, mut seqnums) = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let shard = inner.shard_of(tag);
            let mut buf = std::mem::take(&mut inner.stream_scratch);
            buf.clear();
            if let Some(s) = inner.shards[shard as usize].streams.get(&tag) {
                buf.extend(&s.seqnums);
            }
            (shard, buf)
        };
        self.pay_read(shard, node, seqnums.first().copied(), scope)
            .await;
        scope.end(|| self.ctx.now());
        let mut inner = self.inner.borrow_mut();
        // Sized once: the elements are whole records, so growing by
        // doubling would copy them several times over.
        let mut records = Vec::with_capacity(seqnums.len());
        records.extend(seqnums.iter().filter_map(|&sn| inner.fetch(sn)));
        seqnums.clear();
        inner.stream_scratch = seqnums;
        records
    }

    /// [`LogService::read_stream`] plus §5 recovery accounting: how many
    /// live records the caller must replay and where the stream's trim
    /// horizon sits (records already folded into a checkpoint and trimmed
    /// — the replay starts after them, which is what keeps recovery cost
    /// proportional to the *untrimmed* suffix, not the full history).
    ///
    /// With batching off, latency, RNG draws, and cache effects are
    /// exactly those of `read_stream`; only the returned [`ReplayStats`]
    /// differ, so a caller that ignores the stats is bit-identical to one
    /// calling `read_stream` directly.
    ///
    /// With batching on, the call first **force-flushes** the tag's home
    /// shard's open batch and waits for it to become durable, so the read
    /// observes every record the sequencer has accepted — a successor must
    /// not miss records its predecessor parked in a batch right before
    /// crashing. Those records are reported in
    /// [`ReplayStats::pending_flushed`] and counted once (not twice) in
    /// [`ReplayStats::replayed`]. The wait is part of the read: the scope
    /// opens here, before it.
    pub async fn replay_stream(&self, node: NodeId, tag: Tag) -> (Vec<LogRecord<P>>, ReplayStats) {
        let scope = self.begin("log_read_stream", Some(Phase::LogRead));
        let pending_flushed = self.force_flush(self.shard_of(tag).0).await;
        let trimmed = {
            let inner = self.inner.borrow();
            inner.shards[inner.shard_of(tag) as usize]
                .streams
                .get(&tag)
                .map_or(0, |s| s.trimmed as u64)
        };
        let records = self.read_stream_in(&scope, node, tag).await;
        let stats = ReplayStats {
            replayed: records.len() as u64,
            trimmed,
            pending_flushed,
        };
        (records, stats)
    }

    /// Deletes all records of `tag`'s sub-stream with seqnum ≤ `upto`
    /// (Figure 3's `logTrim`): a one-element [`LogService::trim_many`].
    /// The calling node keeps Figure 3's signature and charges nothing.
    pub async fn trim(&self, _node: NodeId, tag: Tag, upto: SeqNum) {
        self.trim_many(&[(tag, upto)]).await;
    }

    /// Applies every `(tag, upto)` trim in one round trip: one `log_trim`
    /// span and one append latency for the lot, then each trim in order,
    /// counted in its stream's home shard. A record's bytes are reclaimed
    /// once every one of its sub-streams — on any shard — has trimmed past
    /// it.
    pub async fn trim_many(&self, trims: &[(Tag, SeqNum)]) {
        let scope = self.begin("log_trim", None);
        let total = self.ctx.with_rng(|rng| self.model.log_append.sample(rng));
        self.ctx.sleep(total).await;
        let now = self.ctx.now();
        let mut inner = self.inner.borrow_mut();
        for &(tag, upto) in trims {
            Self::apply_trim(&mut inner, &scope, now, tag, upto);
        }
        scope.end(|| now);
    }

    /// One trim's effect, at `now`.
    fn apply_trim(
        inner: &mut ServiceInner<P>,
        scope: &Scope,
        now: Duration,
        tag: Tag,
        upto: SeqNum,
    ) {
        let home = inner.shard_of(tag) as usize;
        inner.shards[home].counters.log_trims += 1;
        let Some(stream) = inner.shards[home].streams.get_mut(&tag) else {
            return;
        };
        let cut = stream.seqnums.partition_point(|&sn| sn <= upto);
        // Scratch-backed drain: the trimmed entries and the per-shard
        // freed-bytes tally reuse the service's buffers across trims.
        inner.trim_scratch.clear();
        inner.trim_scratch.extend(stream.seqnums.drain(..cut));
        stream.trimmed += cut;
        if stream.seqnums.is_empty() {
            // A finished instance's step log stays in the index for its
            // offset count alone; it must not pin a buffer too. The empty
            // buffer goes to the pool for the next stream that needs one,
            // or is freed.
            let buf = std::mem::take(&mut stream.seqnums);
            if inner.stream_pool.len() < STREAM_POOL_CAP
                && (1..=STREAM_POOL_MAX_CAPACITY).contains(&buf.capacity())
            {
                inner.stream_pool.push(buf);
            }
        }
        inner.freed_scratch.clear();
        inner.freed_scratch.resize(inner.shards.len(), 0);
        for i in 0..inner.trim_scratch.len() {
            let sn = inner.trim_scratch[i];
            // Each drained entry is one stream membership dying; the record
            // is reclaimed — its slot, and with it the payload and every
            // cache entry, plus its *home* shard's bytes — exactly when its
            // last membership dies, so bytes are freed exactly once per
            // record, no matter how its tags were routed. A live stream
            // entry always names a live record (readers, who hold seqnums
            // across sleeps, go through the fallible `fetch` instead).
            if let Some(slot) = inner.slab.release(sn) {
                inner.freed_scratch[slot.home.0 as usize] += slot.bytes;
            }
        }
        let freed_total: usize = inner.freed_scratch.iter().sum();
        for (shard, &bytes) in inner.freed_scratch.iter().enumerate() {
            // The home shard's gauge always records the trim (even a
            // zero-byte one); foreign shards only when a record of theirs
            // actually died.
            if shard == home || bytes > 0 {
                inner.shards[shard].bytes.add(now, -(bytes as f64));
            }
        }
        let detail = || format!("{cut} entries, {freed_total} bytes");
        scope.instant(Lane::Storage, || now, "trim_reclaimed", detail);
    }

    /// Pays a read round against `shard`'s storage and the reading node's
    /// per-shard cache.
    async fn pay_read(&self, shard: u8, node: NodeId, target: Option<SeqNum>, scope: &Scope) {
        let hit = match target {
            Some(sn) => {
                let mut inner = self.inner.borrow_mut();
                let hit = inner
                    .slab
                    .get(sn)
                    .is_some_and(|slot| slot.cached_by(shard, node));
                let state = &mut inner.shards[shard as usize];
                if hit {
                    state.counters.cache_hits += 1;
                } else {
                    state.counters.cache_misses += 1;
                }
                hit
            }
            // Absent records answer from the node's stream index: cheap.
            None => true,
        };
        if target.is_some() {
            let name = if hit { "cache_hit" } else { "cache_miss" };
            scope.instant(Lane::Node(node.0), || self.ctx.now(), name, String::new);
        }
        let dist = if hit {
            self.model.log_read_cached
        } else {
            self.model.log_read_miss
        };
        let latency = self.ctx.with_rng(|rng| dist.sample(rng));
        self.ctx.sleep(latency).await;
        let mut inner = self.inner.borrow_mut();
        inner.shards[shard as usize].counters.log_reads += 1;
        // A miss fills the cache — unless a trim reclaimed the record
        // during the sleep: there is no slot left to be cached.
        if let Some(slot) = target.and_then(|sn| inner.slab.get_mut(sn)) {
            slot.cache(shard, node);
        }
    }

    // ---- zero-latency inspection for tests, checkers, and the GC scan ----

    /// The seqnum the next sequencing decision will receive (shared clock).
    #[must_use]
    pub fn head_seqnum(&self) -> SeqNum {
        self.inner.borrow().slab.head()
    }

    /// Live record count, across all shards.
    #[must_use]
    pub fn live_records(&self) -> usize {
        self.inner.borrow().slab.live_records()
    }

    /// Record slots the slab currently keeps allocated, live or dead —
    /// what the log's host memory is proportional to. As of the last
    /// segment opening: the newest three segments, at most four slots per
    /// live record in older segments still dense, and a record pool no
    /// longer than the most records ever live at once (see the slab
    /// module's "Memory follows live records").
    #[must_use]
    pub fn retained_records(&self) -> usize {
        self.inner.borrow().slab.retained()
    }

    /// Current stored bytes, across all shards.
    #[must_use]
    pub fn current_bytes(&self) -> f64 {
        self.inner
            .borrow()
            .shards
            .iter()
            .map(|s| s.bytes.level())
            .sum()
    }

    /// Current stored bytes on one shard.
    #[must_use]
    pub fn shard_current_bytes(&self, shard: ShardId) -> f64 {
        self.inner.borrow().shards[shard.0 as usize].bytes.level()
    }

    /// Time-averaged stored bytes since the last window reset, summed
    /// across shards.
    #[must_use]
    pub fn average_bytes(&self) -> f64 {
        let now = self.ctx.now();
        self.inner
            .borrow()
            .shards
            .iter()
            .map(|s| s.bytes.average(now))
            .sum()
    }

    /// Restarts every shard's storage-averaging window now.
    pub fn reset_storage_window(&self) {
        let now = self.ctx.now();
        for shard in &mut self.inner.borrow_mut().shards {
            shard.bytes.reset_window(now);
        }
    }

    /// Snapshot of op counters, aggregated across shards.
    #[must_use]
    pub fn counters(&self) -> OpCounters {
        let inner = self.inner.borrow();
        let mut total = OpCounters::default();
        for shard in &inner.shards {
            total = total.merged(&shard.counters);
        }
        total
    }

    /// Snapshot of one shard's op counters.
    #[must_use]
    pub fn shard_counters(&self, shard: ShardId) -> OpCounters {
        self.inner.borrow().shards[shard.0 as usize].counters
    }

    /// Appends sequenced by each shard, in shard order — the per-lane
    /// load the saturation sweep and the gateway's per-shard rates read.
    #[must_use]
    pub fn shard_appends(&self) -> Vec<u64> {
        self.inner
            .borrow()
            .shards
            .iter()
            .map(|s| s.counters.log_appends)
            .collect()
    }

    /// Discards every record cached by `node`, on every shard — what a
    /// node crash does to its record cache (§5: the successor restarts
    /// cold and pays miss-latency reads until the cache re-warms). One
    /// walk over the live records.
    pub fn clear_node_cache(&self, node: NodeId) {
        for slot in self.inner.borrow_mut().slab.live_mut() {
            slot.uncache(node);
        }
    }

    /// Records currently held in `node`'s caches, across shards (test
    /// helper; walks the live records).
    #[must_use]
    pub fn node_cache_len(&self, node: NodeId) -> usize {
        self.inner
            .borrow()
            .slab
            .live()
            .map(|slot| slot.caches_of(node))
            .sum()
    }

    /// Zero-latency peek at a sub-stream's live seqnums (test helper).
    #[must_use]
    pub fn peek_stream(&self, tag: Tag) -> Vec<SeqNum> {
        let mut out = Vec::new();
        self.peek_stream_into(tag, &mut out);
        out
    }

    /// [`LogService::peek_stream`] into a caller-owned buffer: `out` is
    /// cleared and refilled, so a scan that reuses it allocates only when
    /// a stream outgrows every earlier one.
    pub fn peek_stream_into(&self, tag: Tag, out: &mut Vec<SeqNum>) {
        out.clear();
        let inner = self.inner.borrow();
        if let Some(s) = inner.shards[inner.shard_of(tag) as usize].streams.get(&tag) {
            out.extend(s.seqnums.iter().copied());
        }
    }

    /// Zero-latency record fetch by seqnum (checker helper).
    #[must_use]
    pub fn peek_record(&self, sn: SeqNum) -> Option<LogRecord<P>> {
        self.inner.borrow().fetch(sn)
    }
}

impl<P> std::fmt::Debug for LogService<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        write!(
            f,
            "LogService(shards={}, head={:?}, live={}, streams={})",
            inner.shards.len(),
            inner.slab.head(),
            inner.slab.live_records(),
            inner.shards.iter().map(|s| s.streams.len()).sum::<usize>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use hm_common::ids::TagKind;
    use hm_substrate::{sim::Sim, Time};

    use super::*;

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
    fn append_assigns_increasing_seqnums() {
        let (mut sim, log) = setup();
        let l = log.clone();
        let (a, b) = sim.block_on(async move {
            let a = l.append(N0, vec![t("s")], "one".into()).await;
            let b = l.append(N0, vec![t("s")], "two".into()).await;
            (a, b)
        });
        assert!(a < b);
        assert_eq!(a, SeqNum(1));
        assert_eq!(log.head_seqnum(), SeqNum(3));
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
    fn read_prev_seeks_backward_inclusive() {
        let (mut sim, log) = setup();
        let l = log;
        sim.block_on(async move {
            let s1 = l.append(N0, vec![t("k")], "v1".into()).await;
            let _s2 = l.append(N0, vec![t("k")], "v2".into()).await;
            // Bound exactly at s1: sees v1.
            let r = l.read_prev(N0, t("k"), s1).await.unwrap();
            assert_eq!(r.payload, "v1");
            // Bound at MAX: sees the newest.
            let r = l.read_prev(N0, t("k"), SeqNum::MAX).await.unwrap();
            assert_eq!(r.payload, "v2");
            // Bound before everything: none.
            assert!(l.read_prev(N0, t("k"), SeqNum::ZERO).await.is_none());
        });
    }

    #[test]
    fn read_next_seeks_forward_inclusive() {
        let (mut sim, log) = setup();
        let l = log;
        sim.block_on(async move {
            let s1 = l.append(N0, vec![t("k")], "v1".into()).await;
            let s2 = l.append(N0, vec![t("k")], "v2".into()).await;
            let r = l.read_next(N0, t("k"), s1).await.unwrap();
            assert_eq!(r.seqnum, s1);
            let r = l.read_next(N0, t("k"), s1.next()).await.unwrap();
            assert_eq!(r.seqnum, s2);
            assert!(l.read_next(N0, t("k"), s2.next()).await.is_none());
        });
    }

    #[test]
    fn multi_tag_records_visible_in_all_streams() {
        let (mut sim, log) = setup();
        let l = log;
        sim.block_on(async move {
            let sn = l.append(N0, vec![t("step"), t("obj")], "w".into()).await;
            assert_eq!(
                l.read_prev(N0, t("step"), SeqNum::MAX)
                    .await
                    .unwrap()
                    .seqnum,
                sn
            );
            assert_eq!(
                l.read_prev(N0, t("obj"), SeqNum::MAX).await.unwrap().seqnum,
                sn
            );
        });
    }

    #[test]
    fn read_stream_returns_history_in_order() {
        let (mut sim, log) = setup();
        let l = log;
        sim.block_on(async move {
            for i in 0..4 {
                l.append(N0, vec![t("hist")], format!("r{i}")).await;
            }
            let recs = l.read_stream(N0, t("hist")).await;
            let vals: Vec<&str> = recs.iter().map(|r| r.payload.as_str()).collect();
            assert_eq!(vals, vec!["r0", "r1", "r2", "r3"]);
        });
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
    fn cond_append_racing_peers_single_winner() {
        let (mut sim, log) = setup();
        let ctx = sim.ctx();
        let tag = t("race");
        let mut handles = Vec::new();
        for i in 0..4u32 {
            let l = log.clone();
            handles.push(ctx.spawn(async move {
                l.cond_append(NodeId(i), vec![tag], format!("peer{i}"), tag, 0)
                    .await
            }));
        }
        sim.run();
        let outcomes: Vec<CondAppendOutcome> =
            handles.iter().map(|h| h.try_take().unwrap()).collect();
        let winners = outcomes
            .iter()
            .filter(|o| matches!(o, CondAppendOutcome::Appended(_)))
            .count();
        assert_eq!(winners, 1, "exactly one peer must win: {outcomes:?}");
        let winner_sn = log.peek_stream(tag)[0];
        for o in outcomes {
            if let CondAppendOutcome::Conflict(sn) = o {
                assert_eq!(sn, winner_sn);
            }
        }
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

    #[test]
    fn trim_respects_multi_tag_references() {
        let (mut sim, log) = setup();
        let l = log;
        sim.block_on(async move {
            let (a, b) = (t("a"), t("b"));
            let sn = l.append(N0, vec![a, b], "shared".into()).await;
            let solo = l.append(N0, vec![a], "solo".into()).await;
            l.trim(N0, a, solo).await;
            // The shared record survives via stream b.
            assert_eq!(l.live_records(), 1);
            assert_eq!(l.read_prev(N0, b, SeqNum::MAX).await.unwrap().seqnum, sn);
            l.trim(N0, b, sn).await;
            assert_eq!(l.live_records(), 0);
            assert_eq!(l.current_bytes(), 0.0);
        });
    }

    /// Regression test for trim byte accounting (the refcount rewrite's
    /// correctness obligation): across interleaved trims, revived streams,
    /// shared multi-tag records, and duplicated tags, every record's bytes
    /// must be freed exactly once — never double-freed (gauge would go
    /// negative) and never leaked (gauge would end above zero).
    #[test]
    fn trim_byte_accounting_exact_through_retag_cycles() {
        let (mut sim, log) = setup();
        let l = log;
        sim.block_on(async move {
            let (a, b) = (t("cycle_a"), t("cycle_b"));
            // Shared record, then a solo record on `a`.
            let shared = l.append(N0, vec![a, b], "shared".into()).await;
            l.append(N0, vec![a], "solo".into()).await;
            // Trim `a` past both: only the solo record's bytes are freed;
            // the shared one survives via `b`.
            l.trim(N0, a, l.head_seqnum()).await;
            let shared_bytes = ("shared".len() + RECORD_META_BYTES) as f64;
            assert_eq!(l.current_bytes(), shared_bytes);
            assert_eq!(l.live_records(), 1);
            // Revive the trimmed stream `a`, then trim it again. The shared
            // record's `a` membership is already dead — a second trim of
            // `a` must not touch it (double-decrement would double-free).
            l.append(N0, vec![a], "revive".into()).await;
            l.trim(N0, a, l.head_seqnum()).await;
            assert_eq!(l.current_bytes(), shared_bytes, "shared must survive");
            // Now kill the last membership via `b`: bytes drop to exactly 0.
            l.trim(N0, b, shared).await;
            assert_eq!(l.current_bytes(), 0.0);
            assert_eq!(l.live_records(), 0);
            // Duplicated tags: one record, two memberships in one stream.
            // One trim covers both; bytes freed exactly once.
            l.append(N0, vec![a, a], "dup".into()).await;
            assert_eq!(l.peek_stream(a).len(), 2);
            l.trim(N0, a, l.head_seqnum()).await;
            assert_eq!(l.current_bytes(), 0.0, "dup-tag record freed once");
            assert_eq!(l.live_records(), 0);
            // A full cycle of revive-and-trim ends exactly where it began.
            for i in 0..3 {
                l.append(N0, vec![a, b], format!("r{i}")).await;
            }
            l.trim(N0, a, l.head_seqnum()).await;
            l.trim(N0, b, l.head_seqnum()).await;
            assert_eq!(l.current_bytes(), 0.0);
            assert_eq!(l.live_records(), 0);
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
    fn trim_bound_past_duplicate_tags_removes_all_copies() {
        let (mut sim, log) = setup();
        let l = log;
        sim.block_on(async move {
            let a = t("dup_bound");
            // The bound record itself carries the tag twice: the cut must
            // cover both copies.
            let sn = l.append(N0, vec![a, a], "dd".into()).await;
            l.trim(N0, a, sn).await;
            assert!(l.peek_stream(a).is_empty());
            assert_eq!(l.live_records(), 0);
            assert_eq!(l.current_bytes(), 0.0);
        });
    }

    #[test]
    fn storage_accounting_tracks_payload_and_meta() {
        let (mut sim, log) = setup();
        let l = log.clone();
        sim.block_on(async move {
            l.append(N0, vec![t("x")], "12345".into()).await; // 5 bytes payload
        });
        assert_eq!(log.current_bytes(), (5 + RECORD_META_BYTES) as f64);
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
    fn read_bounds_resolve_against_the_live_stream_after_trim() {
        // Bounds that name live, trimmed, and foreign records must all
        // agree with the definition (latest ≤ max / earliest ≥ min over
        // the live stream).
        let (mut sim, log) = setup();
        let l = log;
        sim.block_on(async move {
            let (a, other) = (t("off_a"), t("off_o"));
            let mut sns = Vec::new();
            for i in 0..6 {
                sns.push(l.append(N0, vec![a], format!("r{i}")).await);
            }
            // A record of a different stream, interleaved in seqnum order.
            let foreign = l.append(N0, vec![other], "f".into()).await;
            l.trim(N0, a, sns[2]).await;
            // Live bound: the bound itself.
            assert_eq!(l.read_prev(N0, a, sns[4]).await.unwrap().seqnum, sns[4]);
            assert_eq!(l.read_next(N0, a, sns[4]).await.unwrap().seqnum, sns[4]);
            // Trimmed bound: read_prev sees nothing at or below it;
            // read_next jumps to the live front.
            assert!(l.read_prev(N0, a, sns[1]).await.is_none());
            assert_eq!(l.read_next(N0, a, sns[1]).await.unwrap().seqnum, sns[3]);
            // Bound that is a live record of a *different* stream.
            assert_eq!(l.read_prev(N0, a, foreign).await.unwrap().seqnum, sns[5]);
            assert!(l.read_next(N0, a, foreign).await.is_none());
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
}

#[cfg(test)]
mod replication_tests {
    use hm_common::ids::TagKind;
    use hm_common::latency::LatencyModel;
    use hm_common::{NodeId, Tag};
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
}

#[cfg(test)]
mod sharding_tests {
    use hm_common::ids::TagKind;
    use hm_common::latency::LatencyModel;
    use hm_common::{NodeId, Tag};
    use hm_substrate::{sim::Sim, Time};

    use crate::router::shard_for_tag;

    use super::*;

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
        // batch=1 is the literal pre-batching code; batch=64 over a purely
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
}
