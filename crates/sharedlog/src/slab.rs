//! The record slab: every live record of every shard, addressed by seqnum.
//!
//! Seqnums are drawn from one dense clock (see `router`), so a record's
//! position is arithmetic, not a lookup: segment `(seqnum - 1) / SEG`, slot
//! `(seqnum - 1) % SEG`. The slab owns that clock — the next seqnum is
//! simply the next slot — and keeps its segments in a deque whose front is
//! the oldest segment that still holds a live record.
//!
//! # One home per record
//!
//! A [`RecordSlot`] is all the log keeps of a record: the payload inline,
//! the home shard, its stream memberships (which *are* its tags) and the
//! exact set of `(shard, node)` caches holding it. An append therefore
//! allocates nothing per record, a cache lookup is the slot lookup plus a
//! bit test, and reclaiming the slot reclaims the payload and every cache
//! entry in the same move — there is no second structure to purge. Reads
//! hand out by-value [`LogRecord`](crate::LogRecord) copies.
//!
//! The holder set is the authority for hit versus miss, so it is exact for
//! every `NodeId` and every shard: four lanes of sixteen node bits cover
//! the paper's eight-node deployments (and every one in this repository)
//! without leaving the slot; a node id of sixteen or more, or a fifth
//! shard, goes to a boxed overflow list that is searched linearly. The
//! slot is sized by measurement (`tests/reclamation.rs` holds
//! `RecordSlot<StepRecord>` to 192 bytes): a dead slot stays allocated
//! until its segment empties, so slot bytes are paid per retained record.
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

use hm_common::{NodeId, SeqNum, Tag};

use crate::router::ShardId;

/// Record slots per slab segment — the granularity at which the log's
/// host memory is reclaimed (a segment is freed when its *last* record
/// dies). A constant, not a knob: it only trades that granularity against
/// one block allocation per this many appends.
pub const SEG: usize = 4096;

/// Stream memberships stored inline per record (records almost always
/// carry one to three tags).
const MEMBER_INLINE: usize = 4;

/// [`RecordSlot::inline_len`] of a record with more than [`MEMBER_INLINE`]
/// tags: its memberships all live in the overflow block.
const SPILLED: u8 = u8::MAX;

/// Shards whose holder sets are stored inline per record: one lane per
/// distinct shard the record is cached through, claimed on first use and
/// kept for the record's life.
const LANES: usize = 4;

/// Node ids below this are one bit of a lane's word. Sixteen rather than
/// 64: a dead slot stays allocated until its segment empties, so every
/// slot byte is paid per *retained* record, and wider words push
/// `RecordSlot<StepRecord>` past 192 bytes.
const LANE_NODES: u32 = 16;

/// Marks an unclaimed lane. No shard has this id: a topology's shard
/// count is a `u8`, so ids stop at 254.
const FREE_LANE: u8 = u8::MAX;

/// What does not fit a slot's inline arrays. One box for both kinds, so
/// the common slot pays a single null pointer for them.
#[derive(Default)]
struct Overflow {
    /// Every membership of a [`SPILLED`] record.
    members: Vec<(Tag, u64)>,
    /// Cache holders `(shard, node)` outside the lanes: a node id at or
    /// past [`LANE_NODES`], or a shard that found every lane claimed.
    holders: Vec<(u8, u32)>,
}

/// The one home of a live record: its payload, where it sits in each of
/// its sub-streams, and exactly which nodes cache it through which shard.
/// The seqnum is the slot's address and the tags are its memberships, so
/// neither is stored a second time; dropping the slot drops the record
/// *and* every cache entry for it.
pub(crate) struct RecordSlot<P> {
    pub(crate) payload: P,
    /// Shard whose storage group holds the record.
    pub(crate) home: ShardId,
    /// Bytes charged to the home shard's storage gauge at install,
    /// returned at reclaim.
    pub(crate) bytes: usize,
    /// Untrimmed stream memberships remaining (duplicate tags counted
    /// once per occurrence). The record is reclaimed when this hits zero.
    live_streams: u16,
    inline_len: u8,
    /// `(tag, absolute offset in that stream)`, assigned once at install.
    inline: [(Tag, u64); MEMBER_INLINE],
    /// The shard each lane tracks, or [`FREE_LANE`]. Claimed in order, so
    /// free lanes always trail the claimed ones.
    lane_shard: [u8; LANES],
    /// Bit `n` of lane `i`: node `n` caches this record on `lane_shard[i]`.
    lane_nodes: [u16; LANES],
    overflow: Option<Box<Overflow>>,
}

impl<P> RecordSlot<P> {
    /// A slot for a record about to [`join`](RecordSlot::join) exactly
    /// `tags` streams (a spilling record's vector is sized once, here).
    pub(crate) fn new(home: ShardId, payload: P, bytes: usize, tags: usize) -> RecordSlot<P> {
        let spilled = tags > MEMBER_INLINE;
        RecordSlot {
            payload,
            home,
            bytes,
            live_streams: 0,
            inline_len: if spilled { SPILLED } else { 0 },
            inline: [(Tag(0), 0); MEMBER_INLINE],
            lane_shard: [FREE_LANE; LANES],
            lane_nodes: [0; LANES],
            overflow: spilled.then(|| {
                Box::new(Overflow {
                    members: Vec::with_capacity(tags),
                    holders: Vec::new(),
                })
            }),
        }
    }

    /// Notes that the record sits at `offset` of `tag`'s stream.
    pub(crate) fn join(&mut self, tag: Tag, offset: u64) {
        self.live_streams = self
            .live_streams
            .checked_add(1)
            .expect("a record carries at most 65535 tags");
        if self.inline_len == SPILLED {
            let overflow = self.overflow.as_mut().expect("allocated by `new`");
            overflow.members.push((tag, offset));
        } else {
            self.inline[self.inline_len as usize] = (tag, offset);
            self.inline_len += 1;
        }
    }

    /// The record's stream memberships, in tag order.
    pub(crate) fn memberships(&self) -> &[(Tag, u64)] {
        match &self.overflow {
            Some(overflow) if self.inline_len == SPILLED => &overflow.members,
            _ => &self.inline[..self.inline_len as usize],
        }
    }

    /// The record's *last* offset under `tag` (a record appended with a
    /// duplicated tag occupies several consecutive offsets; bounds must
    /// resolve past all of them).
    pub(crate) fn last_offset_of(&self, tag: Tag) -> Option<u64> {
        self.memberships()
            .iter()
            .rev()
            .find(|&&(t, _)| t == tag)
            .map(|&(_, off)| off)
    }

    /// Whether `node`'s cache on `shard` holds this record.
    pub(crate) fn cached_by(&self, shard: u8, node: NodeId) -> bool {
        // A lane-sized node id is in the overflow list only when its shard
        // never got a lane (lanes are neither freed nor reassigned).
        match (self.lane_shard.iter().position(|&s| s == shard), lane_bit(node)) {
            (Some(lane), Some(bit)) => self.lane_nodes[lane] & bit != 0,
            _ => self
                .overflow
                .as_ref()
                .is_some_and(|o| o.holders.contains(&(shard, node.0))),
        }
    }

    /// Puts this record into `node`'s cache on `shard`.
    pub(crate) fn cache(&mut self, shard: u8, node: NodeId) {
        let lane = self.lane_shard.iter().position(|&s| s == shard || s == FREE_LANE);
        if let (Some(lane), Some(bit)) = (lane, lane_bit(node)) {
            self.lane_shard[lane] = shard;
            self.lane_nodes[lane] |= bit;
        } else {
            let holders = &mut self.overflow.get_or_insert_with(Box::default).holders;
            if !holders.contains(&(shard, node.0)) {
                holders.push((shard, node.0));
            }
        }
    }

    /// Takes this record out of `node`'s caches, on every shard.
    pub(crate) fn uncache(&mut self, node: NodeId) {
        if let Some(bit) = lane_bit(node) {
            for nodes in &mut self.lane_nodes {
                *nodes &= !bit;
            }
        }
        if let Some(overflow) = &mut self.overflow {
            overflow.holders.retain(|&(_, n)| n != node.0);
        }
    }

    /// On how many shards `node` caches this record.
    pub(crate) fn caches_of(&self, node: NodeId) -> usize {
        let in_lanes = lane_bit(node).map_or(0, |bit| {
            self.lane_nodes.iter().filter(|&&nodes| nodes & bit != 0).count()
        });
        let listed = |o: &Overflow| o.holders.iter().filter(|&&(_, n)| n == node.0).count();
        in_lanes + self.overflow.as_deref().map_or(0, listed)
    }
}

/// `node`'s bit in a lane word, if lanes track that node id at all.
fn lane_bit(node: NodeId) -> Option<u16> {
    (node.0 < LANE_NODES).then(|| 1 << node.0)
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

    /// Stores `slot` at the head of the clock: it becomes the record at
    /// [`RecordSlab::head`], which then advances.
    pub(crate) fn push(&mut self, slot: RecordSlot<P>) {
        let seqnum = self.next_seqnum;
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
        debug_assert_eq!(segment.slots.len(), off, "the shared clock must stay dense");
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

    /// One stream membership of the live record at `sn` dies. When it was
    /// the last, the record is reclaimed and its slot returned: the
    /// segment is freed if that left a full one empty, and freed segments
    /// are popped off the front.
    ///
    /// # Panics
    ///
    /// If `sn` is not live: stream entries, which is what trims walk, name
    /// live records only.
    pub(crate) fn release(&mut self, sn: SeqNum) -> Option<RecordSlot<P>> {
        const LIVE: &str = "stream index referenced a reclaimed record";
        let (seg, off) = self.position(sn).expect(LIVE);
        let entry = self.segments.get_mut(seg).expect(LIVE);
        let segment = entry.as_mut().expect(LIVE);
        let cell = segment.slots.get_mut(off).expect(LIVE);
        let slot = cell.as_mut().expect(LIVE);
        slot.live_streams -= 1;
        if slot.live_streams > 0 {
            return None;
        }
        let slot = cell.take();
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
        slot
    }

    /// Every live record's slot, oldest first.
    pub(crate) fn live(&self) -> impl Iterator<Item = &RecordSlot<P>> {
        self.segments.iter().flatten().flat_map(|s| s.slots.iter().flatten())
    }

    /// Mutable [`RecordSlab::live`].
    pub(crate) fn live_mut(&mut self) -> impl Iterator<Item = &mut RecordSlot<P>> {
        self.segments.iter_mut().flatten().flat_map(|s| s.slots.iter_mut().flatten())
    }

    /// Slots currently allocated (live or dead) — what the slab's memory
    /// is proportional to.
    pub(crate) fn retained(&self) -> usize {
        self.segments.iter().flatten().map(|s| s.slots.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes a record with one stream membership, so one `release`
    /// reclaims it.
    fn push(slab: &mut RecordSlab<u64>, shard: u8) -> SeqNum {
        let seqnum = slab.head();
        let mut slot = RecordSlot::new(ShardId(shard), seqnum.0, 8, 1);
        slot.join(Tag(7), seqnum.0);
        slab.push(slot);
        seqnum
    }

    #[test]
    fn clock_is_dense_and_records_locatable() {
        let mut slab = RecordSlab::new();
        let (a, b, c) = (push(&mut slab, 2), push(&mut slab, 0), push(&mut slab, 2));
        assert_eq!((a, b, c), (SeqNum(1), SeqNum(2), SeqNum(3)));
        assert_eq!(slab.get(a).unwrap().home, ShardId(2));
        assert_eq!(slab.get(b).unwrap().home, ShardId(0));
        assert_eq!(slab.get(c).unwrap().payload, 3);
        assert!(slab.get(SeqNum::ZERO).is_none());
        assert!(slab.get(SeqNum(4)).is_none(), "never assigned");
        assert!(slab.get(SeqNum::MAX).is_none());
        assert_eq!(slab.head(), SeqNum(4));
        assert_eq!(slab.live().map(|slot| slot.payload).collect::<Vec<_>>(), vec![1, 2, 3]);
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
            assert!(slab.release(SeqNum(sn)).is_some());
        }
        assert_eq!(slab.retained(), n as usize - SEG);
        assert_eq!(slab.base, 0);
        assert!(slab.get(SeqNum(SEG as u64 + 1)).is_none(), "freed segment reads as trimmed");
        assert!(slab.get(SeqNum(1)).is_some());
        // Kill the first: both freed segments leave the deque.
        for sn in 1..=SEG as u64 {
            assert!(slab.release(SeqNum(sn)).is_some());
        }
        assert_eq!(slab.base, 2);
        assert_eq!(slab.segments.len(), 2);
        assert!(slab.get(SeqNum(1)).is_none(), "below the base reads as trimmed");
        assert!(slab.get_mut(SeqNum(1)).is_none());
        assert!(slab.get(SeqNum(2 * SEG as u64 + 1)).is_some());
        // The filling tail survives going empty, and the clock continues.
        for sn in 3 * SEG as u64 + 1..=n {
            assert!(slab.release(SeqNum(sn)).is_some());
        }
        assert_eq!(slab.retained(), SEG + 10);
        assert_eq!(slab.live().count(), SEG);
        let next = push(&mut slab, 1);
        assert_eq!(next, SeqNum(n + 1));
        assert_eq!(slab.get(next).unwrap().home, ShardId(1));
    }

    #[test]
    fn slab_drained_to_nothing_keeps_counting() {
        let mut slab = RecordSlab::new();
        for _ in 0..SEG {
            push(&mut slab, 0);
        }
        for sn in 1..=SEG as u64 {
            slab.release(SeqNum(sn));
        }
        assert_eq!((slab.retained(), slab.segments.len(), slab.base), (0, 0, 1));
        let sn = push(&mut slab, 0);
        assert_eq!(sn, SeqNum(SEG as u64 + 1));
        assert!(slab.get(sn).is_some());
        assert_eq!(slab.retained(), 1);
    }

    #[test]
    fn release_reclaims_on_the_last_membership_only() {
        let mut slab = RecordSlab::new();
        let tags: Vec<Tag> = (0..MEMBER_INLINE as u64 + 2).map(Tag).collect();
        for joined in [2, tags.len()] {
            let sn = slab.head();
            let mut slot = RecordSlot::new(ShardId(0), sn.0, 8, joined);
            for (offset, &tag) in tags[..joined].iter().enumerate() {
                slot.join(tag, offset as u64);
            }
            // The memberships read back as joined, inline or spilled.
            let want: Vec<(Tag, u64)> = tags[..joined].iter().copied().zip(0..).collect();
            assert_eq!(slot.memberships(), want);
            assert_eq!(slot.last_offset_of(tags[1]), Some(1));
            assert_eq!(slot.last_offset_of(Tag(99)), None);
            slab.push(slot);
            for _ in 1..joined {
                assert!(slab.release(sn).is_none(), "memberships remain");
                assert!(slab.get(sn).is_some());
            }
            assert_eq!(slab.release(sn).map(|slot| slot.payload), Some(sn.0));
            assert!(slab.get(sn).is_none());
        }
    }

    /// The holder set is exact on both sides of the last lane bit, and
    /// when a record is cached through more shards than it has lanes.
    #[test]
    fn holders_are_walked_exactly_up_to_the_overflow_bit() {
        let mut slab = RecordSlab::new();
        let sn = push(&mut slab, 0);
        let slot = slab.get_mut(sn).unwrap();
        let last_bit = LANE_NODES - 1;
        let nodes = [0, 5, last_bit, LANE_NODES, 64, 70, 200].map(NodeId);
        let held = |slot: &RecordSlot<u64>, shard: u8| -> Vec<u32> {
            (0..256).filter(|&n| slot.cached_by(shard, NodeId(n))).collect()
        };
        for node in nodes {
            slot.cache(0, node);
            slot.cache(0, node);
        }
        assert_eq!(held(slot, 0), vec![0, 5, last_bit, LANE_NODES, 64, 70, 200]);
        assert_eq!(held(slot, 1), vec![], "caches are per shard");
        assert!(nodes.iter().all(|&n| slot.caches_of(n) == 1), "a repeat adds nothing");
        // 70 is not 70 % 16, nor 70 % 64.
        assert!(!slot.cached_by(0, NodeId(6)) && slot.caches_of(NodeId(6)) == 0);
        // More shards than lanes: the extra ones are tracked all the same.
        for shard in 1..=LANES as u8 + 1 {
            slot.cache(shard, NodeId(5));
            slot.cache(shard, NodeId(70));
        }
        assert_eq!(slot.caches_of(NodeId(5)), LANES + 2);
        assert_eq!(slot.caches_of(NodeId(70)), LANES + 2);
        assert_eq!(held(slot, LANES as u8 + 1), vec![5, 70]);
        assert_eq!(held(slot, LANES as u8 + 2), vec![]);
        slot.uncache(NodeId(5));
        slot.uncache(NodeId(200));
        assert_eq!(held(slot, 0), vec![0, last_bit, LANE_NODES, 64, 70]);
        assert_eq!(held(slot, LANES as u8 + 1), vec![70]);
        assert_eq!((slot.caches_of(NodeId(5)), slot.caches_of(NodeId(70))), (0, LANES + 2));
    }
}
