//! Placing a sharded log deployment onto execution partitions.
//!
//! A partitioned fan-out (`hm_substrate::Runner::run_partitions`) runs one
//! virtual-time executor per partition. A sharded log maps onto that
//! machine by giving every shard — its sequencer lane, storage group, and
//! stream indexes — a *home partition*; appends raised on the shard's own
//! partition stay an ordinary local call, while appends raised elsewhere
//! must travel as a timestamped cross-partition envelope and replay on the
//! home partition.
//!
//! This module supplies the two deployment-independent pieces of that
//! story:
//!
//! - [`ShardPlacement`]: the deterministic shard→partition map. It is the
//!   same pure function on every partition (the substrate's
//!   [`PartitionPolicy`] applied to the shard id), so — exactly like
//!   [`shard_for_tag`] one level down — every node
//!   agrees where a shard lives without coordination.
//! - [`RemoteAppend`]: the wire form of a cross-partition append
//!   (origin node, tag set, opaque record bytes), encoded to the plain
//!   `Vec<u8>` payload that `ParCtx::send` carries.
//!
//! What deliberately does *not* split across partitions is the dense
//! seqnum clock: seqnums are compared across streams everywhere (see the
//! router module doc on the shared order clock), so one `LogService` — one
//! clock — lives wholly on one partition. Scaling across partitions means
//! *more services with disjoint tag spaces* (per tenant, per object
//! group), not one service spread thin; `hm_runtime::partition` builds
//! the tenant-level plan on top of this map.

use hm_common::{NodeId, Tag};
use hm_substrate::PartitionPolicy;

use crate::router::{shard_for_tag, ShardId, Topology};

/// Deterministic shard→partition placement for one log deployment.
#[derive(Clone, Copy, Debug)]
pub struct ShardPlacement {
    shards: u8,
    partitions: usize,
    policy: PartitionPolicy,
}

impl ShardPlacement {
    /// Places `topology`'s shards onto `partitions` partitions under
    /// `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    #[must_use]
    pub fn new(topology: Topology, partitions: usize, policy: PartitionPolicy) -> ShardPlacement {
        assert!(partitions > 0, "placement needs at least one partition");
        ShardPlacement {
            shards: topology.shards,
            partitions,
            policy,
        }
    }

    /// Number of partitions in the placement.
    #[must_use]
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Home partition of `shard`.
    #[must_use]
    pub fn partition_of(&self, shard: ShardId) -> usize {
        self.policy
            .assign(usize::from(shard.0), usize::from(self.shards), self.partitions)
    }

    /// Home partition of the shard that owns `tag`'s sub-stream.
    #[must_use]
    pub fn partition_of_tag(&self, tag: Tag) -> usize {
        self.partition_of(shard_for_tag(tag, self.shards))
    }

    /// True if `tag`'s shard lives on `partition` — an append raised
    /// there is a local call, not an envelope.
    #[must_use]
    pub fn is_local(&self, tag: Tag, partition: usize) -> bool {
        self.partition_of_tag(tag) == partition
    }

    /// The shards homed on `partition`, in shard order.
    #[must_use]
    pub fn shards_on(&self, partition: usize) -> Vec<ShardId> {
        (0..self.shards)
            .map(ShardId)
            .filter(|&s| self.partition_of(s) == partition)
            .collect()
    }
}

/// A cross-partition append request in wire form.
///
/// Layout (all little-endian): origin node `u32`, tag count `u16`, each
/// tag as `u64`, then the record bytes verbatim. The record stays opaque:
/// the home partition's service deserializes it with whatever payload
/// codec the deployment uses.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RemoteAppend {
    /// Node the append originated on.
    pub node: NodeId,
    /// Streams the record joins.
    pub tags: Vec<Tag>,
    /// Opaque serialized record.
    pub record: Vec<u8>,
}

impl RemoteAppend {
    /// Encodes to an envelope payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let tags = u16::try_from(self.tags.len()).expect("tag set fits u16");
        let mut out = Vec::with_capacity(4 + 2 + self.tags.len() * 8 + self.record.len());
        out.extend_from_slice(&self.node.0.to_le_bytes());
        out.extend_from_slice(&tags.to_le_bytes());
        for tag in &self.tags {
            out.extend_from_slice(&tag.0.to_le_bytes());
        }
        out.extend_from_slice(&self.record);
        out
    }

    /// Decodes an envelope payload; `None` if truncated or malformed.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<RemoteAppend> {
        let node = NodeId(u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?));
        let count = usize::from(u16::from_le_bytes(bytes.get(4..6)?.try_into().ok()?));
        let mut at = 6;
        let mut tags = Vec::with_capacity(count);
        for _ in 0..count {
            tags.push(Tag(u64::from_le_bytes(
                bytes.get(at..at + 8)?.try_into().ok()?,
            )));
            at += 8;
        }
        Some(RemoteAppend {
            node,
            tags,
            record: bytes.get(at..)?.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use hm_common::ids::TagKind;

    use super::*;

    #[test]
    fn every_shard_gets_exactly_one_home() {
        for policy in [PartitionPolicy::RoundRobin, PartitionPolicy::Chunked] {
            for partitions in [1usize, 2, 3, 8] {
                let p = ShardPlacement::new(Topology::sharded(8), partitions, policy);
                let mut homes = vec![0u32; partitions];
                for s in 0..8 {
                    homes[p.partition_of(ShardId(s))] += 1;
                }
                assert_eq!(homes.iter().sum::<u32>(), 8, "{policy:?}/{partitions}");
                // Both policies balance an even split perfectly.
                if 8 % partitions == 0 {
                    assert!(
                        homes.iter().all(|&n| n as usize == 8 / partitions),
                        "{policy:?}/{partitions}: {homes:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn shards_on_inverts_partition_of() {
        let p = ShardPlacement::new(Topology::sharded(8), 3, PartitionPolicy::RoundRobin);
        let mut seen = Vec::new();
        for part in 0..3 {
            for shard in p.shards_on(part) {
                assert_eq!(p.partition_of(shard), part);
                seen.push(shard.0);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn tag_locality_matches_shard_home() {
        let p = ShardPlacement::new(Topology::sharded(4), 2, PartitionPolicy::RoundRobin);
        for id in 0..64 {
            let tag = Tag::new(TagKind::ObjectLog, id);
            let home = p.partition_of_tag(tag);
            assert!(p.is_local(tag, home));
            assert!(!p.is_local(tag, 1 - home));
            assert_eq!(home, p.partition_of(shard_for_tag(tag, 4)));
        }
    }

    #[test]
    fn remote_append_round_trips() {
        let msg = RemoteAppend {
            node: NodeId(7),
            tags: vec![
                Tag::new(TagKind::StepLog, 1),
                Tag::new(TagKind::ObjectLog, 0xdead_beef),
            ],
            record: b"opaque payload".to_vec(),
        };
        assert_eq!(RemoteAppend::decode(&msg.encode()), Some(msg.clone()));
        // Truncations never panic, they just fail to decode.
        let wire = msg.encode();
        for cut in 0..6 {
            assert_eq!(RemoteAppend::decode(&wire[..cut]), None, "cut {cut}");
        }
        assert_eq!(RemoteAppend::decode(&wire[..8]), None, "mid-tag cut");
    }

    #[test]
    fn empty_record_and_no_tags_round_trip() {
        let msg = RemoteAppend {
            node: NodeId(0),
            tags: Vec::new(),
            record: Vec::new(),
        };
        assert_eq!(RemoteAppend::decode(&msg.encode()), Some(msg));
    }
}
