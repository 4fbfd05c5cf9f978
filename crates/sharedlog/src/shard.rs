//! One log shard: a sequencer lane, a replicated storage group and the
//! stream indexes of the tags routed to it.
//!
//! # Hot-path data structures
//!
//! The simulated log sits under every protocol operation, so its structures
//! are chosen for O(1) work per op and zero avoidable allocation:
//!
//! - **Record slab**: records of every shard live in one service-wide,
//!   seqnum-addressed slab of fixed-size segments (see [`crate::slab`]):
//!   seqnums are globally dense, so fetch, install and reclaim are index
//!   arithmetic — no per-shard slot, no seqnum index, no hashing. A
//!   segment is freed whole when its last record dies and freed segments
//!   leave the front of the deque, so a seqnum below the base or in a
//!   freed segment is *trimmed by construction* and slab memory follows
//!   live records, not total appends. The shard keeps only its counts
//!   (`live`, `bytes`, counters); the slot names its home shard.
//! - **Membership offsets**: at install time each record learns its absolute
//!   offset in every sub-stream it joins. `read_prev`/`read_next`/`trim`
//!   whose bound names a live record resolve positions O(1) from those
//!   stored offsets instead of re-deriving them by binary search (the
//!   search remains only as a fallback for bounds that are not records of
//!   the stream).
//! - **Live-stream refcounts**: each record counts its untrimmed stream
//!   memberships. `trim` releases one per drained entry and the slab
//!   reclaims the record exactly when the count hits zero — O(removed)
//!   total, making byte accounting structurally exact (charged once at
//!   install on the home shard, freed once at last membership death; no
//!   double-free or leak is possible even for records listed under
//!   trimmed-then-revived streams or under streams of *other* shards).
//! - **Node caches**: a function node's record cache, per shard (a real
//!   node caches per ordering lane it talks to), is not a structure of
//!   its own: each record's slot holds the exact set of `(shard, node)`
//!   pairs caching it. A cache holds every live record its node appended
//!   or read through that shard since the node last crashed — there is no
//!   capacity and no eviction — so a lookup is a bit test on a slot the
//!   read resolves anyway, and a reclaimed record leaves every cache with
//!   its slot. Hit/miss counts are surfaced in [`OpCounters`].
//! - **Stream fronts**: a sub-stream's seqnums sit in a `VecDeque`, so
//!   trimming a prefix is O(removed) and the emptied stream keeps only
//!   its offset count.
//!
//! The tag index (`streams`) uses the deterministic `FxHashMap`; nothing
//! iterates it in a behavior-affecting order.

use std::collections::VecDeque;
use std::time::Duration;

use hm_common::collections::{FxHashMap, FxHashSet};
use hm_common::metrics::{OpCounters, TimeWeightedGauge};
use hm_common::{SeqNum, Tag};

/// Per-record metadata bytes charged to log storage (`S_meta`, §4.6:
/// "a few dozen bytes" covering seqnum, tags, step, op kind).
pub const RECORD_META_BYTES: usize = 32;

/// One record as a read hands it back: a by-value copy of what the log
/// holds in the record's slab slot (cloning a protocol payload bumps
/// refcounts). [`LogService::locate`](crate::LogService::locate) names the
/// home shard of a seqnum.
#[derive(Clone, Debug)]
pub struct LogRecord<P> {
    /// Globally unique, monotonically increasing position in the shared
    /// order (drawn from the clock all shards sequence against).
    pub seqnum: SeqNum,
    /// Protocol-defined payload.
    pub payload: P,
}

/// Per-tag sub-stream: seqnums ascending, plus how many records have been
/// trimmed from the front. Offsets into the *untrimmed* stream stay stable,
/// which `cond_append` relies on.
#[derive(Default)]
pub(crate) struct Stream {
    /// A deque, so `trim` drops the front in O(removed) instead of
    /// shifting the live suffix down.
    pub(crate) seqnums: VecDeque<SeqNum>,
    pub(crate) trimmed: usize,
}

impl Stream {
    pub(crate) fn len_total(&self) -> usize {
        self.trimmed + self.seqnums.len()
    }

    /// Seqnum at absolute offset, if still live.
    pub(crate) fn at(&self, offset: usize) -> Option<SeqNum> {
        offset
            .checked_sub(self.trimmed)
            .and_then(|i| self.seqnums.get(i).copied())
    }
}

hm_common::op_counters! {
    /// Group-commit accounting for one shard's sequencer-side batcher.
    ///
    /// Kept as plain fields (like `degraded_appends`) rather than inside
    /// [`OpCounters`]: the op counters feed determinism fingerprints and the
    /// golden metrics snapshot, which must stay bit-identical for unbatched
    /// runs — and a batched run's flush counts are a new dimension, not a
    /// new kind of log op.
    pub struct FlushStats {
        /// Batches flushed (each paid one sequencer admission and one
        /// coalesced storage round-trip).
        flushes,
        /// Records carried by those flushes. `records / flushes` is the
        /// mean achieved batch size.
        records,
        /// Flushes triggered by the batch filling to
        /// `LogConfig::batch_max_records`.
        size_trigger,
        /// Flushes triggered by the 200 µs batch deadline.
        deadline_trigger,
        /// Flushes forced by a `replay_stream` recovery read (§5: a
        /// successor must observe every record the sequencer has accepted).
        forced_trigger,
    }
}

impl FlushStats {
    /// Mean records per flush, 0 when nothing has flushed.
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.records as f64 / self.flushes as f64
        }
    }
}

/// Mutable state of one shard: everything the pre-sharding `LogInner`
/// held, minus the records, their caches and the clock (shared, in the
/// slab).
pub(crate) struct ShardState {
    /// Storage replicas currently down (by index `0..REPLICAS_PER_SHARD`).
    pub(crate) failed_replicas: FxHashSet<u32>,
    /// Appends persisted while fewer than a quorum of replicas were live —
    /// the reconfigured-view path (availability preserved, like Boki's
    /// view change, but worth counting). Per-shard: a degraded storage
    /// group on one shard never taints another's accounting.
    pub(crate) degraded_appends: u64,
    /// Live records homed on this shard (the records themselves sit in
    /// the service-wide slab).
    pub(crate) live: usize,
    /// Sub-streams of the tags routed to this shard.
    pub(crate) streams: FxHashMap<Tag, Stream>,
    pub(crate) bytes: TimeWeightedGauge,
    pub(crate) counters: OpCounters,
    /// Virtual time until which this shard's sequencer lane is booked
    /// (the bounded-capacity admission model; unused when capacity is
    /// uncapped).
    pub(crate) sequencer_free_at: Duration,
    /// Group-commit accounting (all zero while batching is off).
    pub(crate) flush: FlushStats,
}

impl ShardState {
    pub(crate) fn new(now: Duration) -> ShardState {
        ShardState {
            failed_replicas: FxHashSet::default(),
            degraded_appends: 0,
            live: 0,
            streams: FxHashMap::default(),
            bytes: TimeWeightedGauge::new(now),
            counters: OpCounters::default(),
            sequencer_free_at: Duration::ZERO,
            flush: FlushStats::default(),
        }
    }
}
