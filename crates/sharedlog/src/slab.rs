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
//! the home shard, a count of the sub-streams still listing it and the
//! exact set of `(shard, node)` caches holding it. Where the record sits in
//! each sub-stream is the stream's business alone: its sorted seqnums
//! answer every bound by one binary search. An append therefore allocates
//! nothing per record, a cache lookup is the slot lookup plus a bit test,
//! and reclaiming the slot reclaims the payload and every cache entry in
//! the same move — there is no second structure to purge. Reads hand out
//! by-value [`LogRecord`](crate::LogRecord) copies.
//!
//! The holder set is the authority for hit versus miss, so it is exact for
//! every `NodeId` and every shard: four lanes of sixteen node bits cover
//! the paper's eight-node deployments (and every one in this repository)
//! without leaving the slot; a node id of sixteen or more, or a fifth
//! shard, goes to a boxed overflow list that is searched linearly. The
//! slot is sized by measurement (`tests/reclamation.rs` holds
//! `RecordSlot<StepRecord>` to 128 bytes): a dead slot stays allocated
//! until its segment empties or moves, so slot bytes are paid per retained
//! record.
//!
//! # Trimmed by construction
//!
//! A segment counts its live slots. When a full segment's count reaches
//! zero its block is freed whole, and freed segments are popped off the
//! deque's front, advancing the base. A seqnum below the base, or inside a
//! freed segment, or in a reclaimed slot, therefore resolves to `None`
//! without any per-record tombstone outliving its segment. A reader
//! holding a bare seqnum across a sleep gets `None` back, never a dangling
//! index.
//!
//! # Memory follows live records
//!
//! Freeing empty segments is not enough when some records live long: the
//! collector keeps each object's newest write, and one such record in a
//! segment would hold all of its [`SEG`] slots. So whenever a new segment
//! opens, every full segment older than the newest two whose live share is
//! at most a quarter *moves*: its live records go to one slab-wide pool
//! (reclaimed positions are reused first), and the segment keeps only a
//! four-byte pool position per seqnum. Young segments, where appends land
//! and most reads and trims happen, stay dense, so those paths take no
//! extra indirection. The slots held, as of the last segment opening, are
//! then the filling segment and the two before it, at most four per live
//! record in older dense segments, and a pool no longer than the most
//! records ever live at once; a moved segment adds 16 KB of positions
//! until its last record dies.

use std::collections::VecDeque;

use hm_common::{NodeId, SeqNum};

use crate::router::ShardId;

/// Record slots per slab segment — the granularity at which the log's
/// host memory is reclaimed (a segment is freed when its *last* record
/// dies). A constant, not a knob: it only trades that granularity against
/// one block allocation per this many appends.
pub const SEG: usize = 4096;

/// Shards whose holder sets are stored inline per record: one lane per
/// distinct shard the record is cached through, claimed on first use and
/// kept for the record's life.
const LANES: usize = 4;

/// Node ids below this are one bit of a lane's word. Sixteen rather than
/// 64: a dead slot stays allocated until its segment empties or moves, so
/// every slot byte is paid per *retained* record, and wider words push
/// `RecordSlot<StepRecord>` past 128 bytes.
const LANE_NODES: u32 = 16;

/// Marks an unclaimed lane. No shard has this id: a topology's shard
/// count is a `u8`, so ids stop at 254.
const FREE_LANE: u8 = u8::MAX;

/// What does not fit a slot's lanes, boxed so the common slot pays a
/// single null pointer for it.
#[derive(Default)]
struct Overflow {
    /// Cache holders `(shard, node)` outside the lanes: a node id at or
    /// past [`LANE_NODES`], or a shard that found every lane claimed.
    holders: Vec<(u8, u32)>,
}

/// The one home of a live record: its payload, how many sub-streams still
/// list it, and exactly which nodes cache it through which shard. The
/// seqnum is the slot's address and the streams hold its positions, so
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
    /// The shard each lane tracks, or [`FREE_LANE`]. Claimed in order, so
    /// free lanes always trail the claimed ones.
    lane_shard: [u8; LANES],
    /// Bit `n` of lane `i`: node `n` caches this record on `lane_shard[i]`.
    lane_nodes: [u16; LANES],
    overflow: Option<Box<Overflow>>,
}

impl<P> RecordSlot<P> {
    /// A slot for a record listed in `tags` stream entries (a duplicated
    /// tag counts once per occurrence).
    pub(crate) fn new(home: ShardId, payload: P, bytes: usize, tags: usize) -> RecordSlot<P> {
        RecordSlot {
            payload,
            home,
            bytes,
            live_streams: u16::try_from(tags).expect("a record carries at most 65535 tags"),
            lane_shard: [FREE_LANE; LANES],
            lane_nodes: [0; LANES],
            overflow: None,
        }
    }

    /// Whether `node`'s cache on `shard` holds this record.
    pub(crate) fn cached_by(&self, shard: u8, node: NodeId) -> bool {
        // A lane-sized node id is in the overflow list only when its shard
        // never got a lane (lanes are neither freed nor reassigned).
        match (
            self.lane_shard.iter().position(|&s| s == shard),
            lane_bit(node),
        ) {
            (Some(lane), Some(bit)) => self.lane_nodes[lane] & bit != 0,
            _ => self
                .overflow
                .as_ref()
                .is_some_and(|o| o.holders.contains(&(shard, node.0))),
        }
    }

    /// Puts this record into `node`'s cache on `shard`.
    pub(crate) fn cache(&mut self, shard: u8, node: NodeId) {
        let lane = self
            .lane_shard
            .iter()
            .position(|&s| s == shard || s == FREE_LANE);
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
            self.lane_nodes
                .iter()
                .filter(|&&nodes| nodes & bit != 0)
                .count()
        });
        let listed = |o: &Overflow| o.holders.iter().filter(|&&(_, n)| n == node.0).count();
        in_lanes + self.overflow.as_deref().map_or(0, listed)
    }
}

/// `node`'s bit in a lane word, if lanes track that node id at all.
fn lane_bit(node: NodeId) -> Option<u16> {
    (node.0 < LANE_NODES).then(|| 1 << node.0)
}

/// Marks a reclaimed slot in a [moved](Slots::Moved) segment's index. No
/// pool position has this value: the pool is never longer than the most
/// records ever live at once, far fewer than `u32::MAX`.
const DEAD: u32 = u32::MAX;

/// Full segments this young stay dense whatever their live share: their
/// records are the ones trims are about to reach.
const KEEP_DENSE: usize = 2;

/// A full segment older than the newest [`KEEP_DENSE`] moves its records
/// to the pool once at most this many of its slots are live (a quarter).
const MOVE_AT_LIVE: u32 = (SEG / 4) as u32;

/// Where one segment's records are kept.
enum Slots<P> {
    /// The record itself per seqnum, pushed in clock order (capacity
    /// [`SEG`], allocated once); a slot goes back to `None` when its
    /// record is reclaimed.
    Dense(Vec<Option<RecordSlot<P>>>),
    /// The record's position in the slab's pool per seqnum, or [`DEAD`]:
    /// four bytes a slot instead of a whole [`RecordSlot`].
    Moved(Box<[u32]>),
}

/// One block of up to [`SEG`] consecutive seqnums' slots.
struct Segment<P> {
    slots: Slots<P>,
    live: u32,
}

/// The segmented, seqnum-addressed record store plus the shared clock.
pub(crate) struct RecordSlab<P> {
    /// Segment index (`(seqnum - 1) / SEG`) of `segments[0]`.
    base: u64,
    /// `None` marks a segment freed behind a still-live older one.
    segments: VecDeque<Option<Segment<P>>>,
    /// The records of every moved segment; `None` at the positions in
    /// `free`.
    pool: Vec<Option<RecordSlot<P>>>,
    /// Reclaimed pool positions, reused before the pool grows.
    free: Vec<u32>,
    /// Records pushed and not yet reclaimed.
    live_records: usize,
    next_seqnum: SeqNum,
}

impl<P> RecordSlab<P> {
    /// An empty slab whose first record will be seqnum 1, so that
    /// [`SeqNum::ZERO`] can mean "before everything".
    pub(crate) fn new() -> RecordSlab<P> {
        RecordSlab {
            base: 0,
            segments: VecDeque::new(),
            pool: Vec::new(),
            free: Vec::new(),
            live_records: 0,
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
        let (seg, off) = self
            .position(seqnum)
            .expect("the head is never below the base");
        if seg == self.segments.len() {
            let slots = self
                .move_sparse()
                .unwrap_or_else(|| Vec::with_capacity(SEG));
            self.segments.push_back(Some(Segment {
                slots: Slots::Dense(slots),
                live: 0,
            }));
        }
        let Some(Segment {
            slots: Slots::Dense(slots),
            live,
        }) = self.segments[seg].as_mut()
        else {
            unreachable!("the filling segment is neither freed nor moved")
        };
        debug_assert_eq!(slots.len(), off, "the shared clock must stay dense");
        slots.push(Some(slot));
        *live += 1;
        self.live_records += 1;
        self.next_seqnum = seqnum.next();
    }

    /// Moves the live records of every dense segment older than the
    /// newest [`KEEP_DENSE`] that has at most [`MOVE_AT_LIVE`] of them
    /// into the pool. Every segment is full here: a new one is opening.
    /// Returns one emptied block for the new segment to fill.
    fn move_sparse(&mut self) -> Option<Vec<Option<RecordSlot<P>>>> {
        let old = self.segments.len().saturating_sub(KEEP_DENSE);
        let (pool, free) = (&mut self.pool, &mut self.free);
        let mut spare = None;
        for segment in self.segments.range_mut(..old).flatten() {
            let Slots::Dense(slots) = &mut segment.slots else {
                continue;
            };
            if segment.live > MOVE_AT_LIVE {
                continue;
            }
            let at = slots
                .drain(..)
                .map(|cell| {
                    let Some(slot) = cell else { return DEAD };
                    if let Some(at) = free.pop() {
                        pool[at as usize] = Some(slot);
                        at
                    } else {
                        pool.push(Some(slot));
                        u32::try_from(pool.len() - 1).expect("fewer than 2^32 pooled records")
                    }
                })
                .collect();
            spare.get_or_insert(std::mem::take(slots));
            segment.slots = Slots::Moved(at);
        }
        spare
    }

    /// The live record at `sn`; `None` if it was reclaimed or never
    /// assigned.
    pub(crate) fn get(&self, sn: SeqNum) -> Option<&RecordSlot<P>> {
        let (seg, off) = self.position(sn)?;
        match &self.segments.get(seg)?.as_ref()?.slots {
            Slots::Dense(slots) => slots.get(off)?.as_ref(),
            Slots::Moved(at) => self.pool.get(at[off] as usize)?.as_ref(),
        }
    }

    /// Mutable access to the live record at `sn`.
    pub(crate) fn get_mut(&mut self, sn: SeqNum) -> Option<&mut RecordSlot<P>> {
        let (seg, off) = self.position(sn)?;
        match &mut self.segments.get_mut(seg)?.as_mut()?.slots {
            Slots::Dense(slots) => slots.get_mut(off)?.as_mut(),
            Slots::Moved(at) => self.pool.get_mut(at[off] as usize)?.as_mut(),
        }
    }

    /// One stream membership of the live record at `sn` dies. When it was
    /// the last, the record is reclaimed and its slot (or pool position)
    /// returned: the segment is freed if that left a full one empty, and
    /// freed segments are popped off the front.
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
        let cell = match &mut segment.slots {
            Slots::Dense(slots) => slots.get_mut(off),
            Slots::Moved(at) => self.pool.get_mut(at[off] as usize),
        }
        .expect(LIVE);
        let slot = cell.as_mut().expect(LIVE);
        slot.live_streams -= 1;
        if slot.live_streams > 0 {
            return None;
        }
        let slot = cell.take();
        let full = match &mut segment.slots {
            Slots::Dense(slots) => slots.len() == SEG,
            Slots::Moved(at) => {
                self.free.push(std::mem::replace(&mut at[off], DEAD));
                true
            }
        };
        segment.live -= 1;
        self.live_records -= 1;
        // The segment still being filled is kept even when momentarily
        // empty: the next push lands in it.
        if segment.live == 0 && full {
            *entry = None;
            while let Some(None) = self.segments.front() {
                self.segments.pop_front();
                self.base += 1;
            }
        }
        slot
    }

    /// The slot blocks of the segments still dense.
    fn dense(&self) -> impl Iterator<Item = &Vec<Option<RecordSlot<P>>>> {
        self.segments
            .iter()
            .flatten()
            .filter_map(|s| match &s.slots {
                Slots::Dense(slots) => Some(slots),
                Slots::Moved(_) => None,
            })
    }

    /// How many records are live.
    pub(crate) fn live_records(&self) -> usize {
        self.live_records
    }

    /// Every live record's slot, each once, in no particular order.
    pub(crate) fn live(&self) -> impl Iterator<Item = &RecordSlot<P>> {
        self.dense()
            .flatten()
            .flatten()
            .chain(self.pool.iter().flatten())
    }

    /// Mutable [`RecordSlab::live`].
    pub(crate) fn live_mut(&mut self) -> impl Iterator<Item = &mut RecordSlot<P>> {
        let dense = self
            .segments
            .iter_mut()
            .flatten()
            .filter_map(|s| match &mut s.slots {
                Slots::Dense(slots) => Some(slots.iter_mut().flatten()),
                Slots::Moved(_) => None,
            });
        dense.flatten().chain(self.pool.iter_mut().flatten())
    }

    /// Record slots currently allocated, live or dead: every dense
    /// segment's plus the pool's. What the slab's memory is proportional
    /// to (a moved segment's index adds four bytes per seqnum it spans).
    pub(crate) fn retained(&self) -> usize {
        self.dense().map(Vec::len).sum::<usize>() + self.pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes a record with one stream membership, so one `release`
    /// reclaims it.
    fn push(slab: &mut RecordSlab<u64>, shard: u8) -> SeqNum {
        let seqnum = slab.head();
        slab.push(RecordSlot::new(ShardId(shard), seqnum.0, 8, 1));
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
        assert_eq!(
            slab.live().map(|slot| slot.payload).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
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
        assert!(
            slab.get(SeqNum(SEG as u64 + 1)).is_none(),
            "freed segment reads as trimmed"
        );
        assert!(slab.get(SeqNum(1)).is_some());
        // Kill the first: both freed segments leave the deque.
        for sn in 1..=SEG as u64 {
            assert!(slab.release(SeqNum(sn)).is_some());
        }
        assert_eq!(slab.base, 2);
        assert_eq!(slab.segments.len(), 2);
        assert!(
            slab.get(SeqNum(1)).is_none(),
            "below the base reads as trimmed"
        );
        assert!(slab.get_mut(SeqNum(1)).is_none());
        assert!(slab.get(SeqNum(2 * SEG as u64 + 1)).is_some());
        // The filling tail survives going empty, and the clock continues.
        for sn in 3 * SEG as u64 + 1..=n {
            assert!(slab.release(SeqNum(sn)).is_some());
        }
        assert_eq!(slab.retained(), SEG + 10);
        assert_eq!((slab.live().count(), slab.live_records()), (SEG, SEG));
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
        for joined in [2, 6] {
            let sn = push_joined(&mut slab, joined);
            for _ in 1..joined {
                assert!(slab.release(sn).is_none(), "memberships remain");
                assert!(slab.get(sn).is_some());
            }
            assert_eq!(slab.release(sn).map(|slot| slot.payload), Some(sn.0));
            assert!(slab.get(sn).is_none());
        }
    }

    /// Pushes a record that takes `joins` releases to reclaim.
    fn push_joined(slab: &mut RecordSlab<u64>, joins: usize) -> SeqNum {
        let seqnum = slab.head();
        slab.push(RecordSlot::new(ShardId(0), seqnum.0, 8, joins));
        seqnum
    }

    /// Fills one segment, then reclaims all of it but every `keep`-th
    /// record; returns the survivors.
    fn sparse_segment(slab: &mut RecordSlab<u64>, keep: u64) -> Vec<SeqNum> {
        let pushed: Vec<SeqNum> = (0..SEG).map(|_| push_joined(slab, 2)).collect();
        let mut kept = Vec::new();
        for &sn in &pushed {
            if sn.0.is_multiple_of(keep) {
                kept.push(sn);
            } else {
                assert!(slab.release(sn).is_none() && slab.release(sn).is_some());
            }
        }
        kept
    }

    fn is_moved(slab: &RecordSlab<u64>, sn: SeqNum) -> bool {
        let (seg, _) = slab.position(sn).unwrap();
        matches!(
            slab.segments[seg],
            Some(Segment {
                slots: Slots::Moved(_),
                ..
            })
        )
    }

    #[test]
    fn a_sparse_old_segment_moves_and_still_serves_its_records() {
        let mut slab = RecordSlab::new();
        // Exactly a quarter live: the most that still moves.
        let kept = sparse_segment(&mut slab, 4);
        assert_eq!(kept.len(), MOVE_AT_LIVE as usize);
        let (held, dead) = (kept[0], SeqNum(kept[0].0 - 1));
        slab.get_mut(held).unwrap().cache(1, NodeId(3));
        // Two younger full segments: the sparse one is still kept dense
        // while either of them is the newest.
        for _ in 0..2 * SEG {
            push(&mut slab, 0);
        }
        assert!(!is_moved(&slab, held));
        // The next segment opens: the sparse one is now old enough.
        let young = push(&mut slab, 0);
        assert!(is_moved(&slab, held) && !is_moved(&slab, young));
        assert_eq!(slab.pool.len(), kept.len());
        assert_eq!(slab.retained(), 2 * SEG + 1 + kept.len());
        assert!(kept
            .iter()
            .all(|&sn| slab.get(sn).map(|slot| slot.payload) == Some(sn.0)));
        assert!(slab.get(dead).is_none() && slab.get_mut(dead).is_none());
        // Cache holders moved with their record, and still take updates.
        let slot = slab.get_mut(held).unwrap();
        assert!(slot.cached_by(1, NodeId(3)));
        slot.cache(2, NodeId(4));
        assert!(slab.get(held).unwrap().cached_by(2, NodeId(4)));
        // Reclaimed on the last membership only; its position is freed.
        assert!(slab.release(held).is_none());
        assert!(slab.get(held).is_some());
        assert_eq!(slab.release(held).map(|slot| slot.payload), Some(held.0));
        assert!(slab.get(held).is_none());
        assert_eq!(slab.free.len(), 1);
        assert_eq!(slab.live().count(), kept.len() - 1 + 2 * SEG + 1);
    }

    #[test]
    fn a_segment_with_more_than_a_quarter_live_stays_dense() {
        let mut slab = RecordSlab::new();
        let kept = sparse_segment(&mut slab, 3);
        assert!(kept.len() > MOVE_AT_LIVE as usize);
        for _ in 0..2 * SEG + 1 {
            push(&mut slab, 0);
        }
        assert!(!is_moved(&slab, kept[0]));
        assert!(slab.pool.is_empty());
        assert_eq!(slab.retained(), 3 * SEG + 1);
    }

    #[test]
    fn a_moved_segment_is_freed_and_the_front_popped_with_its_last_record() {
        let mut slab = RecordSlab::new();
        let first = sparse_segment(&mut slab, 8);
        let second = sparse_segment(&mut slab, 16);
        for _ in 0..2 * SEG + 1 {
            push(&mut slab, 0);
        }
        assert!(is_moved(&slab, first[0]) && is_moved(&slab, second[0]));
        let pooled = first.len() + second.len();
        assert_eq!(slab.pool.len(), pooled);
        // The younger moved segment dies first: freed in place.
        for &sn in &second {
            assert!(slab.release(sn).is_none() && slab.release(sn).is_some());
        }
        assert!(slab.segments[1].is_none());
        assert_eq!(slab.base, 0);
        assert!(slab.get(second[0]).is_none());
        // Then the oldest: both leave the deque.
        for &sn in &first {
            assert!(slab.release(sn).is_none() && slab.release(sn).is_some());
        }
        assert_eq!(slab.base, 2);
        assert!(slab.get(first[0]).is_none());
        assert_eq!(slab.free.len(), pooled);
        assert_eq!(slab.retained(), 2 * SEG + 1 + pooled);
        // The next move fills freed positions before the pool grows.
        for _ in 1..SEG {
            push(&mut slab, 0);
        }
        let third = sparse_segment(&mut slab, 8);
        for _ in 0..2 * SEG + 1 {
            push(&mut slab, 0);
        }
        assert!(is_moved(&slab, third[0]));
        assert_eq!(slab.pool.len(), pooled);
        assert_eq!(slab.free.len(), pooled - third.len());
        assert!(third
            .iter()
            .all(|&sn| slab.get(sn).map(|slot| slot.payload) == Some(sn.0)));
    }

    /// Keys written with a skew, each key's previous record reclaimed as
    /// its next is pushed, so every key's newest record stays live however
    /// old: the shape of a collector that keeps each object's last write.
    #[test]
    fn pinned_records_keep_the_pool_within_the_live_high_water() {
        const KEYS: u64 = 1_016;
        let mut slab = RecordSlab::new();
        let mut newest: Vec<Option<SeqNum>> = vec![None; KEYS as usize];
        let mut lcg = 0x2545_F491_4F6C_DD1Du64;
        let (mut live, mut high) = (0, 0);
        for _ in 0..20 * SEG {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let draw = lcg >> 33;
            let key = if draw.is_multiple_of(8) {
                16 + draw / 8 % (KEYS - 16)
            } else {
                draw % 16
            };
            let sn = push(&mut slab, 0);
            match newest[key as usize].replace(sn) {
                Some(previous) => {
                    assert_eq!(
                        slab.release(previous).map(|slot| slot.payload),
                        Some(previous.0)
                    );
                }
                None => live += 1,
            }
            high = high.max(live);
            assert!(
                slab.pool.len() <= high,
                "pool {} for {high} live at most",
                slab.pool.len()
            );
        }
        assert!(!slab.pool.is_empty(), "old segments moved");
        assert!(
            slab.retained() <= 3 * SEG + high,
            "{} slots held",
            slab.retained()
        );
        // Every live record is visited once, dense or pooled, by both walks.
        let mut want: Vec<u64> = newest.iter().flatten().map(|sn| sn.0).collect();
        want.sort_unstable();
        let mut seen: Vec<u64> = slab.live().map(|slot| slot.payload).collect();
        seen.sort_unstable();
        assert_eq!(seen, want);
        let mut seen: Vec<u64> = slab.live_mut().map(|slot| slot.payload).collect();
        seen.sort_unstable();
        assert_eq!(seen, want);
        assert_eq!(slab.live_records(), want.len());
        for &sn in newest.iter().flatten() {
            assert_eq!(slab.get(sn).map(|slot| slot.payload), Some(sn.0));
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
            (0..256)
                .filter(|&n| slot.cached_by(shard, NodeId(n)))
                .collect()
        };
        for node in nodes {
            slot.cache(0, node);
            slot.cache(0, node);
        }
        assert_eq!(held(slot, 0), vec![0, 5, last_bit, LANE_NODES, 64, 70, 200]);
        assert_eq!(held(slot, 1), vec![], "caches are per shard");
        assert!(
            nodes.iter().all(|&n| slot.caches_of(n) == 1),
            "a repeat adds nothing"
        );
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
        assert_eq!(
            (slot.caches_of(NodeId(5)), slot.caches_of(NodeId(70))),
            (0, LANES + 2)
        );
    }
}
