//! The read path: point reads resolved against a stream's live entries,
//! whole-stream reads and §5 replay, the per-node record caches they pay
//! through, and the trims that reclaim records.

use std::time::Duration;

use hm_common::observe::{Lane, Phase, Scope};
use hm_common::{NodeId, SeqNum, Tag};

use super::{LogService, ReplayStats, ServiceInner, STREAM_POOL_CAP, STREAM_POOL_MAX_CAPACITY};
use crate::payload::Payload;
use crate::shard::LogRecord;

impl<P> ServiceInner<P> {
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

impl<P: Payload> LogService<P> {
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
}
