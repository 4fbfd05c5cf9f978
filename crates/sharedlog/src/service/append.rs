//! The append path: the trip to the home shard's sequencer, its lane,
//! the sequencing decision that installs a record (or refuses a
//! conditional one), and the replica quorum that makes it durable.

use std::time::Duration;

use hm_common::collections::TagSet;
use hm_common::observe::{Lane, Phase, Scope};
use hm_common::{NodeId, SeqNum, Tag};

use super::{CondAppendOutcome, LogService};
use crate::payload::Payload;
use crate::router::ShardId;
use crate::shard::{Stream, RECORD_META_BYTES};
use crate::slab::RecordSlot;

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

impl<P: Payload> LogService<P> {
    /// Marks a sequencing decision on `shard`'s sequencer lane, under the
    /// append's span.
    pub(super) fn mark_sequenced(&self, scope: &Scope, shard: u8, outcome: CondAppendOutcome) {
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
    /// and admission is instant: no sleep, no timer, no draw, so an
    /// uncapped lane leaves every interleaving as it is.
    pub(super) async fn sequencer_admission(&self, shard: u8) {
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
            scope.phase(|| self.ctx.now(), Phase::BatchWait);
            self.append_batched(home, node, tags, payload, cond, storage_part, &scope)
                .await
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
    pub(super) fn sequence(
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
    pub(super) fn quorum_storage_latency(&self, shard: u8, base: Duration) -> Duration {
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
}
