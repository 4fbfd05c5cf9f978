//! The routed log facade: Figure 3's API over one or more shards.
//!
//! [`LogService`]'s calls — `append` / `cond_append` / `read_prev` /
//! `read_next` / `read_stream` / `trim` — take no shard, so `hm-core`'s
//! Env, protocol ops and GC code is oblivious to the topology. Internally
//! every operation:
//!
//! 1. routes by tag (`router::shard_for_tag`) to the shard owning the
//!    sub-stream,
//! 2. passes that shard's sequencer lane (bounded by
//!    [`LogConfig::sequencer_capacity`], a no-op when uncapped),
//! 3. draws seqnums from the *shared* clock so cross-stream comparisons
//!    keep working (see `router` module docs), and
//! 4. charges latency, bytes, caches, and counters to that shard.
//!
//! This module is the handle: the configuration, the state every path
//! shares and the zero-latency accessors. The log's decisions live in one
//! child module each:
//!
//! - `append`: sequencing, the sequencer lane and the replica quorum;
//! - `group_commit`: the per-shard batcher, whose state no other module
//!   touches;
//! - `read`: point and stream reads, replay and trims.
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

mod append;
mod group_commit;
mod read;
#[cfg(test)]
mod replication_tests;
#[cfg(test)]
mod sharding_tests;
#[cfg(test)]
mod tests;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use hm_common::latency::LatencyModel;
use hm_common::metrics::OpCounters;
use hm_common::observe::{Lane, Phase, Probe, Scope};
use hm_common::trace::Tracer;
use hm_common::{NodeId, SeqNum, Tag};
use hm_substrate::Ctx;

use crate::payload::Payload;
use crate::router::{shard_for_tag, ShardId, Topology};
use crate::shard::{LogRecord, ShardState};
use crate::slab::{RecordSlab, RecordSlot};
use group_commit::GroupCommit;

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
    /// Always a subset of the records counted by `replayed`, never an
    /// addition to it, so a record a crash left mid-flush counts once.
    /// Zero when batching is off.
    pub pending_flushed: u64,
}

/// Tuning knobs for the simulated logging layer.
#[derive(Clone, Copy, Debug)]
pub struct LogConfig {
    /// Shard count.
    pub topology: Topology,
    /// Appends per second one shard's sequencer can order. `None` models
    /// an ideal (infinitely fast) sequencer, where ordering adds no
    /// queueing delay, sleep or timer. Set it to see a sequencer
    /// saturate: appends beyond the capacity queue FIFO at the lane and
    /// pay the backlog as extra latency.
    pub sequencer_capacity: Option<f64>,
    /// Group-commit batch size: how many appends a shard's sequencer
    /// coalesces into one admission + one replicated storage round-trip.
    /// `1` (the default) disables batching entirely: no append reaches the
    /// batcher, so no batch timer, spawn or flush draw is added.
    /// Values above 1 enable the per-shard batcher described in the
    /// `group_commit` module docs: a batch flushes when it reaches this
    /// size or 200 µs after its first member arrived, whichever comes
    /// first.
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
    /// Each shard's open batch and the recycled batches; untouched while
    /// batching is off.
    group_commit: GroupCommit<P>,
    /// The deployment's observation handle, shared by all handle clones.
    probe: Option<Rc<Probe>>,
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
                group_commit: GroupCommit::new(shards),
                probe: None,
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
