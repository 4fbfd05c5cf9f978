//! Garbage collection (§4.5).
//!
//! The GC is invoked periodically by the runtime. One collection cycle:
//!
//! 1. Scan the global init and finish streams and compute the **watermark**
//!    `t`: the largest seqnum such that every SSF whose init record
//!    precedes `t` has finished. This is exactly condition (b): any SSF
//!    still running (or yet to start) has an initial cursor ≥ `t`.
//! 2. For every finished SSF below the watermark: drop its checkpoints
//!    and trim its step log. Read-log records (Halfmoon-write) live only
//!    in step logs, so their lifetime equals the SSF's, as §4.5 states.
//!    There is no leaked version to look for. A write's version is fixed
//!    before `DBWrite`: logged as an intent (§4.1) or derived from the
//!    instance and step. So every retry and peer of the SSF stores that
//!    one version, and a finished SSF appended the commit after every
//!    intent it logged, naming it in the object's write log for step 3.
//!    An unfinished SSF never falls below the watermark.
//! 3. For every object write log (Halfmoon-read): mark the latest record
//!    below the watermark — the earliest version any current or future
//!    reader can still observe — and delete every older record and its
//!    version. Keeping the marked record is condition (a).
//! 4. Trim the global init/finish streams below the watermark.
//!
//! A cycle's I/O is batched, so its cost follows round trips, not items:
//! deletes go out in store batch writes of `BATCH_WRITE_ITEMS` versions,
//! and every trim of steps 2–4 goes out in one `trim_many` at the end.

use hm_common::observe::{Lane, OpCtx};
use hm_common::{FxHashSet, Key, NodeId, SeqNum, Tag, VersionNum};
use hm_kvstore::BATCH_WRITE_ITEMS;

use crate::client::{finish_log_tag, init_log_tag, Client};
use crate::record::OpRecord;

/// Statistics of one collection cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// The watermark used for this cycle.
    pub watermark: SeqNum,
    /// Step logs trimmed (== finished SSFs reclaimed).
    pub instances_reclaimed: usize,
    /// Object versions deleted from the external store.
    pub versions_deleted: usize,
}

/// The garbage collector function.
pub struct GarbageCollector {
    client: Client,
    node: NodeId,
}

impl GarbageCollector {
    /// Creates a collector that issues its operations via `node`.
    #[must_use]
    pub fn new(client: Client, node: NodeId) -> GarbageCollector {
        GarbageCollector { client, node }
    }

    /// Runs one collection cycle.
    pub async fn collect(&self) -> GcStats {
        let mut stats = GcStats::default();
        // GC work is background: its spans live on the dedicated GC lane
        // under trace 0 and charge no request, so request critical paths
        // and waterfalls never include them. Every log and store call of
        // the cycle is made as `octx`.
        let probe = self.client.probe();
        let octx = probe.map_or_else(OpCtx::default, |p| {
            let now = self.client.ctx().now();
            p.span_under(OpCtx::default(), Lane::Gc, now, "gc_cycle", String::new)
        });
        // Step 1: watermark from the init/finish scan (two paid reads).
        let inits = self
            .client
            .log_as(&octx)
            .read_stream(self.node, init_log_tag())
            .await;
        let fins = self
            .client
            .log_as(&octx)
            .read_stream(self.node, finish_log_tag())
            .await;
        let finished: FxHashSet<SeqNum> = fins
            .iter()
            .filter_map(|r| match r.payload.op {
                OpRecord::Finish { init_seqnum, .. } => Some(init_seqnum),
                _ => None,
            })
            .collect();
        let watermark = inits
            .iter()
            .map(|r| r.seqnum)
            .find(|sn| !finished.contains(sn))
            .unwrap_or_else(|| self.client.log().head_seqnum());
        stats.watermark = watermark;

        // Step 2: reclaim finished SSFs below the watermark.
        let mut trims: Vec<(Tag, SeqNum)> = Vec::new();
        for init in inits.iter().filter(|r| r.seqnum < watermark) {
            stats.instances_reclaimed += 1;
            let instance = init.payload.instance;
            self.client.drop_checkpoints(instance);
            trims.push((instance.step_log_tag(), SeqNum::MAX));
        }

        // Step 3: object write logs — conditions (a) and (b). One snapshot
        // of the written keys serves the cycle: a key first written after
        // this point has no record below the watermark.
        let mut version_deletes = Vec::new();
        // Every stream of the cycle is read into this one buffer.
        let mut stream = Vec::new();
        for key in &self.client.written_keys() {
            let tag = key.object_log_tag();
            self.client.log().peek_stream_into(tag, &mut stream);
            // Latest *effective* record strictly below the watermark — an
            // aborted transaction commit is invisible to readers, so it
            // cannot serve as the retained snapshot (condition (a)).
            let below = stream.partition_point(|sn| *sn < watermark);
            let marked_idx = stream[..below].iter().rposition(|sn| {
                self.client.log().peek_record(*sn).is_some_and(|rec| {
                    crate::txn::effective_version(&self.client, &rec.payload, *sn, key).is_some()
                })
            });
            let Some(marked_idx) = marked_idx else {
                continue;
            };
            if marked_idx == 0 {
                continue; // nothing older than the marked record
            }
            // Keep stream[marked_idx]; delete and trim everything before.
            trims.push((tag, stream[marked_idx - 1]));
            for sn in &stream[..marked_idx] {
                if let Some(rec) = self.client.log().peek_record(*sn) {
                    if let Some(version) = rec.payload.version_for(key) {
                        version_deletes.push((key.clone(), version));
                    }
                }
            }
        }
        stats.versions_deleted = self.delete_all(&octx, &version_deletes).await;

        // Step 4: global streams.
        if watermark > SeqNum(1) {
            let upto = SeqNum(watermark.0 - 1);
            trims.push((init_log_tag(), upto));
            trims.push((finish_log_tag(), upto));
        }
        // An armed context must be followed by its call, so an empty list
        // issues none.
        if !trims.is_empty() {
            self.client.log_as(&octx).trim_many(self.node, &trims).await;
        }
        if let Some(p) = probe {
            p.span_end(&octx, Lane::Gc, self.client.ctx().now());
        }
        stats
    }

    /// Deletes `versions` in batch writes, one round trip per
    /// [`BATCH_WRITE_ITEMS`]; returns how many existed.
    async fn delete_all(&self, octx: &OpCtx, versions: &[(Key, VersionNum)]) -> usize {
        let mut deleted = 0;
        for batch in versions.chunks(BATCH_WRITE_ITEMS) {
            deleted += self.client.store_as(octx).delete_versions(batch).await;
        }
        deleted
    }
}

impl std::fmt::Debug for GarbageCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GarbageCollector(node={:?})", self.node)
    }
}
