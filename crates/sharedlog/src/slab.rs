//! The record slab: every live record of every shard, addressed by seqnum.
//!
//! Seqnums are drawn from one dense clock (see `router`), so a record's
//! position is arithmetic, not a lookup: segment `(seqnum - 1) / SEG`, slot
//! `(seqnum - 1) % SEG`. The slab owns that clock — the next seqnum is
//! simply the next slot — and keeps its segments in a deque whose front is
//! the oldest segment that still holds a live record.
//!
//! # Trimmed by construction
//!
//! A segment counts its live slots. When a full segment's count reaches
//! zero its block is freed whole, and freed segments are popped off the
//! deque's front, advancing the base. A seqnum below the base, or inside a
//! freed segment, or in a reclaimed slot, therefore resolves to `None`
//! without any per-record tombstone outliving its segment: memory follows
//! live records (at most `SEG - 1` dead slots per live one in the worst
//! case, one partly dead segment per concurrent trimmer in practice), not
//! total appends. A reader holding a bare seqnum across a sleep gets
//! `None` back, never a dangling index.

use std::collections::VecDeque;
use std::rc::Rc;

use hm_common::{NodeId, SeqNum, Tag};

use crate::shard::LogRecord;

/// Record slots per slab segment — the granularity at which the log's
/// host memory is reclaimed (a segment is freed when its *last* record
/// dies). A constant, not a knob: it only trades that granularity against
/// one block allocation per this many appends.
pub const SEG: usize = 4096;

/// Number of stream memberships stored inline per record.
const MEMBER_INLINE: usize = 4;

/// A record's stream memberships: `(tag, absolute offset in that stream)`
/// pairs, assigned once at install. Inline up to [`MEMBER_INLINE`] entries
/// (records almost always carry one to three tags), heap beyond.
pub(crate) struct Memberships {
    len: u32,
    inline: [(Tag, u64); MEMBER_INLINE],
    spill: Vec<(Tag, u64)>,
}

impl Memberships {
    /// A memberships set expecting `tags` entries: for the spilling case
    /// (more than [`MEMBER_INLINE`] tags) the spill vector is sized once
    /// up front instead of growing through doublings.
    pub(crate) fn with_capacity(tags: usize) -> Memberships {
        Memberships {
            len: 0,
            inline: [(Tag(0), 0); MEMBER_INLINE],
            spill: if tags > MEMBER_INLINE {
                Vec::with_capacity(tags)
            } else {
                Vec::new()
            },
        }
    }

    pub(crate) fn push(&mut self, tag: Tag, offset: u64) {
        let i = self.len as usize;
        if i < MEMBER_INLINE {
            self.inline[i] = (tag, offset);
        } else {
            if i == MEMBER_INLINE {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push((tag, offset));
        }
        self.len += 1;
    }

    pub(crate) fn as_slice(&self) -> &[(Tag, u64)] {
        if self.len as usize <= MEMBER_INLINE {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }

    /// The record's *last* offset under `tag` (a record appended with a
    /// duplicated tag occupies several consecutive offsets; bounds must
    /// resolve past all of them).
    pub(crate) fn last_offset_of(&self, tag: Tag) -> Option<u64> {
        self.as_slice()
            .iter()
            .rev()
            .find(|&&(t, _)| t == tag)
            .map(|&(_, off)| off)
    }
}

/// Highest bit of [`RecordSlot::cached_by`]: shared by every node id at or
/// above it, so deployments of up to 63 nodes are tracked exactly.
const NODE_OVERFLOW_BIT: u32 = 63;

/// Slab entry for one live record.
pub(crate) struct RecordSlot<P> {
    pub(crate) record: Rc<LogRecord<P>>,
    /// Where this record sits in each of its sub-streams.
    pub(crate) memberships: Memberships,
    /// Untrimmed stream memberships remaining (duplicate tags counted
    /// once per occurrence). The record is reclaimed when this hits zero.
    pub(crate) live_streams: u32,
    /// Bytes charged to the owning shard's storage gauge at install,
    /// returned at reclaim.
    pub(crate) bytes: usize,
    /// Nodes whose record caches (on the shards this record's tags route
    /// to) may hold this seqnum — bit `n` for node `n`, a superset of the
    /// true holders (evictions and node crashes leave bits behind). The
    /// reclaim-time purge walks these bits instead of every cache.
    cached_by: u64,
}

impl<P> RecordSlot<P> {
    pub(crate) fn new(
        record: Rc<LogRecord<P>>,
        memberships: Memberships,
        bytes: usize,
    ) -> RecordSlot<P> {
        RecordSlot {
            live_streams: memberships.as_slice().len() as u32,
            record,
            memberships,
            bytes,
            cached_by: 0,
        }
    }

    /// Notes that `node` now caches this record.
    pub(crate) fn mark_cached_by(&mut self, node: NodeId) {
        self.cached_by |= 1 << node.0.min(NODE_OVERFLOW_BIT);
    }

    /// Indices of the nodes that may cache this record, out of `nodes`:
    /// each exactly tracked holder, then — only if a node past the
    /// tracked range ever cached it — every node from there up.
    pub(crate) fn holders(&self, nodes: usize) -> impl Iterator<Item = usize> {
        let overflow = NODE_OVERFLOW_BIT as usize;
        let mut tracked = self.cached_by & !(1 << overflow);
        let beyond = if self.cached_by >> overflow == 1 { overflow..nodes } else { 0..0 };
        std::iter::from_fn(move || {
            (tracked != 0).then(|| {
                let node = tracked.trailing_zeros() as usize;
                tracked &= tracked - 1;
                node
            })
        })
        .chain(beyond)
    }
}

/// One block of up to [`SEG`] consecutive seqnums' slots.
struct Segment<P> {
    /// Pushed in clock order (capacity [`SEG`], allocated once); a slot
    /// goes back to `None` when its record is reclaimed.
    slots: Vec<Option<RecordSlot<P>>>,
    live: u32,
}

/// The segmented, seqnum-addressed record store plus the shared clock.
pub(crate) struct RecordSlab<P> {
    /// Segment index (`(seqnum - 1) / SEG`) of `segments[0]`.
    base: u64,
    /// `None` marks a segment freed behind a still-live older one.
    segments: VecDeque<Option<Segment<P>>>,
    next_seqnum: SeqNum,
}

impl<P> RecordSlab<P> {
    /// An empty slab whose first record will be seqnum 1, so that
    /// [`SeqNum::ZERO`] can mean "before everything".
    pub(crate) fn new() -> RecordSlab<P> {
        RecordSlab {
            base: 0,
            segments: VecDeque::new(),
            next_seqnum: SeqNum(1),
        }
    }

    /// The seqnum the next [`RecordSlab::push`] will occupy.
    pub(crate) fn head(&self) -> SeqNum {
        self.next_seqnum
    }

    /// `(index into segments, offset in that segment)` of `sn`, if its
    /// segment is at or past the base.
    fn position(&self, sn: SeqNum) -> Option<(usize, usize)> {
        let idx = sn.0.checked_sub(1)?;
        let seg = (idx / SEG as u64).checked_sub(self.base)?;
        Some((usize::try_from(seg).ok()?, (idx % SEG as u64) as usize))
    }

    /// Stores `slot` at the head of the clock. Its record must already
    /// carry [`RecordSlab::head`] as its seqnum.
    pub(crate) fn push(&mut self, slot: RecordSlot<P>) {
        let seqnum = self.next_seqnum;
        debug_assert_eq!(slot.record.seqnum, seqnum, "the shared clock must stay dense");
        let (seg, off) = self.position(seqnum).expect("the head is never below the base");
        if seg == self.segments.len() {
            self.segments.push_back(Some(Segment {
                slots: Vec::with_capacity(SEG),
                live: 0,
            }));
        }
        let segment = self.segments[seg]
            .as_mut()
            .expect("only full segments are freed");
        debug_assert_eq!(segment.slots.len(), off);
        segment.slots.push(Some(slot));
        segment.live += 1;
        self.next_seqnum = seqnum.next();
    }

    /// The live record at `sn`; `None` if it was reclaimed or never
    /// assigned.
    pub(crate) fn get(&self, sn: SeqNum) -> Option<&RecordSlot<P>> {
        let (seg, off) = self.position(sn)?;
        self.segments.get(seg)?.as_ref()?.slots.get(off)?.as_ref()
    }

    /// Mutable access to the live record at `sn`.
    pub(crate) fn get_mut(&mut self, sn: SeqNum) -> Option<&mut RecordSlot<P>> {
        let (seg, off) = self.position(sn)?;
        self.segments.get_mut(seg)?.as_mut()?.slots.get_mut(off)?.as_mut()
    }

    /// Reclaims the record at `sn`, freeing its segment when it was the
    /// last live record of a full one and popping freed segments off the
    /// front.
    pub(crate) fn remove(&mut self, sn: SeqNum) -> Option<RecordSlot<P>> {
        let (seg, off) = self.position(sn)?;
        let entry = self.segments.get_mut(seg)?;
        let segment = entry.as_mut()?;
        let slot = segment.slots.get_mut(off)?.take()?;
        segment.live -= 1;
        // The segment still being filled is kept even when momentarily
        // empty: the next push lands in it.
        if segment.live == 0 && segment.slots.len() == SEG {
            *entry = None;
            while let Some(None) = self.segments.front() {
                self.segments.pop_front();
                self.base += 1;
            }
        }
        Some(slot)
    }

    /// Slots currently allocated (live or dead) — what the slab's memory
    /// is proportional to.
    pub(crate) fn retained(&self) -> usize {
        self.segments.iter().flatten().map(|s| s.slots.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use hm_common::collections::TagSet;

    use super::*;
    use crate::router::ShardId;

    fn push(slab: &mut RecordSlab<u64>, shard: u8) -> SeqNum {
        let seqnum = slab.head();
        let record = Rc::new(LogRecord {
            seqnum,
            shard: ShardId(shard),
            tags: TagSet::from_slice(&[]),
            payload: seqnum.0,
        });
        slab.push(RecordSlot::new(record, Memberships::with_capacity(0), 8));
        seqnum
    }

    #[test]
    fn clock_is_dense_and_records_locatable() {
        let mut slab = RecordSlab::new();
        let (a, b, c) = (push(&mut slab, 2), push(&mut slab, 0), push(&mut slab, 2));
        assert_eq!((a, b, c), (SeqNum(1), SeqNum(2), SeqNum(3)));
        assert_eq!(slab.get(a).unwrap().record.shard, ShardId(2));
        assert_eq!(slab.get(b).unwrap().record.shard, ShardId(0));
        assert_eq!(slab.get(c).unwrap().record.payload, 3);
        assert!(slab.get(SeqNum::ZERO).is_none());
        assert!(slab.get(SeqNum(4)).is_none(), "never assigned");
        assert!(slab.get(SeqNum::MAX).is_none());
        assert_eq!(slab.head(), SeqNum(4));
    }

    #[test]
    fn full_dead_segments_are_freed_and_the_front_popped() {
        let mut slab = RecordSlab::new();
        let n = 3 * SEG as u64 + 10;
        for _ in 0..n {
            push(&mut slab, 0);
        }
        assert_eq!(slab.retained(), n as usize);
        // Kill the middle segment first: freed in place, base unmoved.
        for sn in SEG as u64 + 1..=2 * SEG as u64 {
            assert!(slab.remove(SeqNum(sn)).is_some());
        }
        assert_eq!(slab.retained(), n as usize - SEG);
        assert_eq!(slab.base, 0);
        assert!(slab.get(SeqNum(SEG as u64 + 1)).is_none(), "freed segment reads as trimmed");
        assert!(slab.get(SeqNum(1)).is_some());
        // Kill the first: both freed segments leave the deque.
        for sn in 1..=SEG as u64 {
            assert!(slab.remove(SeqNum(sn)).is_some());
        }
        assert_eq!(slab.base, 2);
        assert_eq!(slab.segments.len(), 2);
        assert!(slab.get(SeqNum(1)).is_none(), "below the base reads as trimmed");
        assert!(slab.remove(SeqNum(1)).is_none());
        assert!(slab.get(SeqNum(2 * SEG as u64 + 1)).is_some());
        // The filling tail survives going empty, and the clock continues.
        for sn in 3 * SEG as u64 + 1..=n {
            assert!(slab.remove(SeqNum(sn)).is_some());
        }
        assert_eq!(slab.retained(), SEG + 10);
        let next = push(&mut slab, 1);
        assert_eq!(next, SeqNum(n + 1));
        assert_eq!(slab.get(next).unwrap().record.shard, ShardId(1));
    }

    #[test]
    fn slab_drained_to_nothing_keeps_counting() {
        let mut slab = RecordSlab::new();
        for _ in 0..SEG {
            push(&mut slab, 0);
        }
        for sn in 1..=SEG as u64 {
            slab.remove(SeqNum(sn));
        }
        assert_eq!((slab.retained(), slab.segments.len(), slab.base), (0, 0, 1));
        let sn = push(&mut slab, 0);
        assert_eq!(sn, SeqNum(SEG as u64 + 1));
        assert!(slab.get(sn).is_some());
        assert_eq!(slab.retained(), 1);
    }

    #[test]
    fn holders_are_walked_exactly_up_to_the_overflow_bit() {
        let mut slab = RecordSlab::new();
        let sn = push(&mut slab, 0);
        let slot = slab.get_mut(sn).unwrap();
        slot.mark_cached_by(NodeId(0));
        slot.mark_cached_by(NodeId(5));
        slot.mark_cached_by(NodeId(5));
        assert_eq!(slot.holders(8).collect::<Vec<_>>(), vec![0, 5]);
        slot.mark_cached_by(NodeId(200));
        assert_eq!(slot.holders(8).collect::<Vec<_>>(), vec![0, 5]);
        assert_eq!(slot.holders(66).collect::<Vec<_>>(), vec![0, 5, 63, 64, 65]);
    }
}
