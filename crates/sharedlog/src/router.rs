//! Tag→shard placement and the shared sequencing clock.
//!
//! # Why a *shared* clock under per-shard sequencers
//!
//! Halfmoon's protocols only ever *scan* per sub-stream (tag), so each
//! shard can own its tags' stream indexes outright. But seqnums are
//! compared **across** streams all over the stack: the read-log cursor
//! bounds object-log `read_prev` calls, `Env::resolve` bounds the
//! transition stream by the init record's seqnum, `boki_write` folds a
//! step-log seqnum into a store version, and the GC watermark is a
//! seqnum compared against every stream's records. A per-shard counter
//! would make those comparisons meaningless.
//!
//! So shards share one logical order clock (à la Scalog's ordering layer
//! and Boki's metalog): every sequencing decision — on any shard — draws
//! the next value of a single dense counter. Each shard still has its own
//! sequencer *lane* (its own admission queue, capacity, and trace lane);
//! only the counter is shared. Because the counter is dense, it doubles as the address of the record: the
//! service-wide slab (`slab` module) owns the clock and stores the record
//! drawn at seqnum `n` in slot `n - 1`.
//!
//! Placement is deterministic: `shard(tag) = fxhash(tag) % shards`, so
//! every node, the GC, and the metrics layer agree on where a sub-stream
//! lives without coordination. With `shards == 1` everything routes to
//! shard 0 and the clock degenerates to the old single-sequencer counter.
//!
//! Group commit (`LogConfig::batch_max_records > 1`) composes cleanly
//! with the shared clock: a flush installs its whole batch in one
//! synchronous loop with no intervening awaits, so each flushed batch
//! occupies a *contiguous* run of clock values even while other shards'
//! flushes interleave between batches.

use std::hash::Hasher;

use hm_common::collections::FxHasher;
use hm_common::Tag;

/// Identifies one log shard: a sequencer lane plus its replicated storage
/// group and stream indexes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ShardId(pub u8);

/// Deployment-wide logging topology, threaded from runtime construction
/// down to the log service.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Topology {
    /// Number of independently sequenced log shards (≥ 1).
    pub shards: u8,
}

impl Default for Topology {
    fn default() -> Topology {
        Topology { shards: 1 }
    }
}

impl Topology {
    /// `shards` sequencer lanes (clamped to ≥ 1).
    #[must_use]
    pub fn sharded(shards: u8) -> Topology {
        Topology {
            shards: shards.max(1),
        }
    }
}

/// Deterministic tag placement: which shard owns `tag`'s sub-stream under
/// a `shards`-way topology. Exposed so tests and tools can pick tags that
/// land on (or off) a given shard.
#[must_use]
pub fn shard_for_tag(tag: Tag, shards: u8) -> ShardId {
    if shards <= 1 {
        return ShardId(0);
    }
    let mut h = FxHasher::default();
    h.write_u64(tag.0);
    #[allow(clippy::cast_possible_truncation)]
    ShardId((h.finish() % u64::from(shards)) as u8)
}

#[cfg(test)]
mod tests {
    use hm_common::ids::TagKind;

    use super::*;

    #[test]
    fn placement_is_deterministic_and_in_range() {
        for shards in [1u8, 2, 4, 8] {
            for i in 0..256u64 {
                let tag = Tag::new(TagKind::ObjectLog, i);
                let s = shard_for_tag(tag, shards);
                assert!(s.0 < shards, "shard {s:?} out of range for {shards}");
                assert_eq!(s, shard_for_tag(tag, shards), "placement must be stable");
            }
        }
    }

    #[test]
    fn placement_spreads_tags_across_shards() {
        let shards = 8u8;
        let mut seen = vec![0u32; shards as usize];
        for i in 0..512u64 {
            seen[shard_for_tag(Tag::new(TagKind::ObjectLog, i), shards).0 as usize] += 1;
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "every shard must receive some tags: {seen:?}"
        );
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        for i in 0..64u64 {
            assert_eq!(shard_for_tag(Tag::new(TagKind::StepLog, i), 1), ShardId(0));
        }
    }
}
