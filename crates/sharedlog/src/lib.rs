//! Boki-style shared log: the paper's logging layer, sharded.
//!
//! The logging layer implements the shared-log abstraction (§3): a global
//! totally-ordered stream of records, logically divided into sub-streams by
//! *tags*. A record may carry several tags and thus appear in several
//! sub-streams; sub-stream order is inherited from the shared clock's
//! seqnums.
//!
//! The API surface is exactly Figure 3, served by the routed
//! [`LogService`] facade:
//!
//! | paper               | here                        |
//! |---------------------|-----------------------------|
//! | `logAppend`         | [`LogService::append`]      |
//! | `logCondAppend` §5.1| [`LogService::cond_append`] |
//! | `logReadPrev`       | [`LogService::read_prev`]   |
//! | `logReadNext`       | [`LogService::read_next`]   |
//! | `logTrim`           | [`LogService::trim`]        |
//!
//! plus [`LogService::read_stream`], the `getStepLogs` helper from Figure 5
//! that retrieves an SSF's whole execution history in one call.
//!
//! # Topology
//!
//! The log runs as [`Topology::shards`] independently-sequenced shards.
//! Sub-streams are placed deterministically by tag hash (`router`), each
//! shard owns a sequencer lane plus a replicated storage group (`shard`),
//! and the facade (`service`) routes every Figure-3 call to the owning
//! shard. Seqnums come from a clock shared by all shards, so they stay
//! globally comparable — see the `router` module docs for why the
//! protocols need that. The default topology is a single shard, whose
//! one sequencer lane orders every append.
//!
//! # Simulation model
//!
//! An append costs one sequencer round (the seqnum is assigned *mid-flight*,
//! so concurrent appends interleave realistically) plus a replicated storage
//! write; the combined latency is calibrated to Table 1's "Log" row. Reads
//! are served from a per-function-node record cache when the node has seen
//! the record before (Boki's design, §4.1: 0.12 ms median cached) and from a
//! storage node otherwise.
//!
//! # Group commit
//!
//! With [`LogConfig::batch_max_records`] above 1, each shard's sequencer
//! coalesces concurrent appends into batches: one ordering decision and
//! one replicated storage write persist a whole batch, which occupies a
//! contiguous run of the shared clock. [`FlushStats`] reports the achieved
//! batch sizes and flush triggers. The default (1) keeps the unbatched
//! path, bit for bit — see the `service::group_commit` module docs and
//! DESIGN.md §10.
//!
//! ```
//! use hm_common::{ids::TagKind, latency::LatencyModel, NodeId, SeqNum, Tag};
//! use hm_sharedlog::{LogConfig, LogService};
//! use hm_substrate::sim::Sim;
//!
//! let mut sim = Sim::new(1);
//! let log: LogService<String> =
//!     LogService::new(sim.ctx(), LatencyModel::calibrated(), LogConfig::default());
//! let l = log.clone();
//! sim.block_on(async move {
//!     let step = Tag::named(TagKind::StepLog, "ssf-1");
//!     let object = Tag::named(TagKind::ObjectLog, "account");
//!     // One record, two sub-streams (step log + object write log).
//!     let sn = l.append(NodeId(0), vec![step, object], "v1".into()).await;
//!     let seen = l.read_prev(NodeId(0), object, SeqNum::MAX).await.unwrap();
//!     assert_eq!(seen.seqnum, sn);
//!     assert_eq!(seen.payload, "v1");
//! });
//! ```

#![deny(missing_docs)]

mod payload;
mod router;
mod service;
mod shard;
mod slab;

pub use payload::Payload;
pub use router::{shard_for_tag, ShardId, Topology};
pub use service::{CondAppendOutcome, LogConfig, LogService, ReplayStats};
pub use shard::{FlushStats, LogRecord, RECORD_META_BYTES};
pub use slab::SEG as SLAB_SEGMENT_RECORDS;
