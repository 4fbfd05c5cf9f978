//! Allocation-lean collection primitives for the simulator's hot paths.
//!
//! Three building blocks, all deterministic (no `RandomState`, no pointer
//! hashing), so replays of a seeded simulation touch memory identically:
//!
//! - [`TagSet`]: a record's tag list, stored inline for up to four tags
//!   (records almost always carry one to three) and spilled to the heap
//!   otherwise — the "interned tag set" replacing `Vec<Tag>` clones;
//! - [`FxHashMap`] / [`FxHashSet`]: hash containers using the Firefox
//!   `FxHash` function, far cheaper than SipHash for the integer keys the
//!   shared log indexes by (`Tag`, `SeqNum`, `NodeId`) and stable across
//!   runs and platforms;
//! - [`LruSet`]: a bounded membership set with least-recently-used
//!   eviction, backed by a slab and an intrusive doubly-linked list so
//!   `contains`/`insert`/evict are all O(1).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::ids::Tag;

/// Number of tags a [`TagSet`] holds without heap allocation.
const TAGSET_INLINE: usize = 4;

/// A record's tag list: inline up to `TAGSET_INLINE` (4) entries, heap beyond.
///
/// Order and multiplicity are preserved exactly — a record appended with a
/// duplicated tag appears twice in that sub-stream, and the set must say so.
#[derive(Clone)]
pub struct TagSet {
    len: u32,
    inline: [Tag; TAGSET_INLINE],
    spill: Vec<Tag>,
}

impl TagSet {
    /// Builds a tag set from the caller's tag list, reusing the allocation
    /// when the list is too long to inline.
    #[must_use]
    pub fn from_vec(tags: Vec<Tag>) -> TagSet {
        if tags.len() <= TAGSET_INLINE {
            let mut inline = [Tag(0); TAGSET_INLINE];
            inline[..tags.len()].copy_from_slice(&tags);
            TagSet {
                len: tags.len() as u32,
                inline,
                spill: Vec::new(),
            }
        } else {
            TagSet {
                len: tags.len() as u32,
                inline: [Tag(0); TAGSET_INLINE],
                spill: tags,
            }
        }
    }

    /// The tags as a slice, in append order.
    #[must_use]
    pub fn as_slice(&self) -> &[Tag] {
        if self.len as usize <= TAGSET_INLINE {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }
}

impl std::ops::Deref for TagSet {
    type Target = [Tag];

    fn deref(&self) -> &[Tag] {
        self.as_slice()
    }
}

impl TagSet {
    /// Builds a tag set by copying from a slice — allocation-free for up
    /// to `TAGSET_INLINE` tags, which is every hot-path record. Callers
    /// holding a long-lived tag list should pass it as a slice instead of
    /// cloning a `Vec` per append.
    #[must_use]
    pub fn from_slice(tags: &[Tag]) -> TagSet {
        if tags.len() <= TAGSET_INLINE {
            let mut inline = [Tag(0); TAGSET_INLINE];
            inline[..tags.len()].copy_from_slice(tags);
            TagSet {
                len: tags.len() as u32,
                inline,
                spill: Vec::new(),
            }
        } else {
            TagSet {
                len: tags.len() as u32,
                inline: [Tag(0); TAGSET_INLINE],
                spill: tags.to_vec(),
            }
        }
    }
}

impl From<Vec<Tag>> for TagSet {
    fn from(tags: Vec<Tag>) -> TagSet {
        TagSet::from_vec(tags)
    }
}

impl From<&[Tag]> for TagSet {
    fn from(tags: &[Tag]) -> TagSet {
        TagSet::from_slice(tags)
    }
}

impl<const N: usize> From<[Tag; N]> for TagSet {
    fn from(tags: [Tag; N]) -> TagSet {
        TagSet::from_slice(&tags)
    }
}

impl FromIterator<Tag> for TagSet {
    /// Fills the inline slots first, so collecting up to
    /// `TAGSET_INLINE` tags never touches the heap.
    fn from_iter<I: IntoIterator<Item = Tag>>(iter: I) -> TagSet {
        let mut set = TagSet::from_slice(&[]);
        for tag in iter {
            let len = set.len as usize;
            if len < TAGSET_INLINE {
                set.inline[len] = tag;
            } else {
                if len == TAGSET_INLINE {
                    set.spill.extend_from_slice(&set.inline);
                }
                set.spill.push(tag);
            }
            set.len += 1;
        }
        set
    }
}

impl PartialEq for TagSet {
    fn eq(&self, other: &TagSet) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for TagSet {}

impl std::fmt::Debug for TagSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// The FxHash multiplier (Firefox's `FxHasher`; a 64-bit odd constant close
/// to 2^64/φ, chosen for dispersion under `rotate ^ mul`).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash: `hash = (hash.rotl(5) ^ word) * SEED` per machine word.
///
/// Not collision-resistant against adversaries — irrelevant here, where
/// keys are simulator-internal integers — but several times faster than
/// SipHash and, unlike `RandomState`, identical on every run.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// Deterministic FxHash builder for `HashMap`/`HashSet`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

/// Sentinel index for "no node" in [`LruSet`]'s intrusive list.
const NIL: u32 = u32::MAX;

struct LruNode<K> {
    key: K,
    prev: u32,
    next: u32,
}

/// A bounded membership set with least-recently-used eviction.
///
/// [`LruSet::insert`] refreshes recency; [`LruSet::contains`] does not (a
/// caller that wants lookup-then-refresh calls both, like the shared log's
/// `pay_read`, which checks before the simulated read latency and inserts
/// after it). All operations are O(1): a slab of list nodes linked
/// most-recent-first plus an [`FxHashMap`] from key to slab index.
pub struct LruSet<K> {
    capacity: usize,
    map: FxHashMap<K, u32>,
    nodes: Vec<LruNode<K>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    evictions: u64,
}

impl<K: Hash + Eq + Copy> LruSet<K> {
    /// Creates an empty set bounded to `capacity` keys (at least 1).
    ///
    /// Memory grows with actual occupancy, not with `capacity`, so a large
    /// bound costs nothing until used.
    #[must_use]
    pub fn new(capacity: usize) -> LruSet<K> {
        LruSet {
            capacity: capacity.max(1),
            map: FxHashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            evictions: 0,
        }
    }

    /// Whether `key` is present. Does not refresh recency.
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Number of keys currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total keys evicted to make room since creation.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let n = &mut self.nodes[idx as usize];
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Inserts `key` as most-recently-used, evicting the least-recently-used
    /// key if the set is full. Returns `true` if the key was newly inserted,
    /// `false` if it was already present (its recency is refreshed).
    pub fn insert(&mut self, key: K) -> bool {
        if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            self.push_front(idx);
            return false;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            let old_key = self.nodes[victim as usize].key;
            self.map.remove(&old_key);
            self.free.push(victim);
            self.evictions += 1;
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize].key = key;
                i
            }
            None => {
                let i = self.nodes.len() as u32;
                self.nodes.push(LruNode {
                    key,
                    prev: NIL,
                    next: NIL,
                });
                i
            }
        };
        self.push_front(idx);
        self.map.insert(key, idx);
        true
    }

    /// Removes `key` if present, returning whether it was. Not an eviction
    /// (the owner dropped the key; nothing was displaced to make room):
    /// [`LruSet::evictions`] is unchanged, the other keys keep their
    /// recency order, and the freed slab slot is reused by a later insert.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(idx) = self.map.remove(key) else {
            return false;
        };
        self.unlink(idx);
        self.free.push(idx);
        true
    }

    /// Drops every key at once (a cold restart of the cache's owner).
    /// The eviction counter is preserved: cleared keys were lost with
    /// their owner, not evicted to make room.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

impl<K: Hash + Eq + Copy + std::fmt::Debug> std::fmt::Debug for LruSet<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LruSet(len={}, capacity={}, evictions={})",
            self.map.len(),
            self.capacity,
            self.evictions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TagKind;

    fn tag(i: u64) -> Tag {
        Tag::new(TagKind::ObjectLog, i)
    }

    #[test]
    fn tagset_inline_and_spill() {
        let small = TagSet::from_vec(vec![tag(1), tag(2)]);
        assert_eq!(small.len(), 2);
        assert_eq!(small[0], tag(1));
        assert!(small.contains(&tag(2)));
        let big: TagSet = (0..7).map(tag).collect();
        assert_eq!(big.len(), 7);
        assert_eq!(big[6], tag(6));
        assert_eq!(
            TagSet::from_vec(vec![tag(1), tag(2)]),
            TagSet::from_vec(vec![tag(1), tag(2)])
        );
        assert_ne!(
            TagSet::from_vec(vec![tag(2), tag(1)]),
            TagSet::from_vec(vec![tag(1), tag(2)]),
            "order is significant"
        );
        assert!(TagSet::from_vec(Vec::new()).is_empty());
    }

    #[test]
    fn tagset_preserves_duplicates() {
        let dup = TagSet::from_vec(vec![tag(5), tag(5)]);
        assert_eq!(dup.iter().filter(|&&t| t == tag(5)).count(), 2);
    }

    #[test]
    fn fxhash_is_stable_across_runs() {
        // Pinned value: determinism across builds is the whole point.
        let mut h = FxHasher::default();
        h.write_u64(0xdead_beef);
        assert_eq!(h.finish(), 0x67f3_c037_2953_771b);
        let mut h2 = FxHasher::default();
        h2.write(b"hello world"); // chunked path with a 3-byte tail
        let mut h3 = FxHasher::default();
        h3.write(b"hello world");
        assert_eq!(h2.finish(), h3.finish());
        assert_ne!(h2.finish(), 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: LruSet<u64> = LruSet::new(3);
        assert!(lru.insert(1));
        assert!(lru.insert(2));
        assert!(lru.insert(3));
        // Refresh 1: now 2 is the oldest.
        assert!(!lru.insert(1));
        assert!(lru.insert(4));
        assert!(!lru.contains(&2), "2 was least recently used");
        assert!(lru.contains(&1) && lru.contains(&3) && lru.contains(&4));
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.evictions(), 1);
    }

    #[test]
    fn lru_eviction_order_is_exact() {
        let mut lru: LruSet<u64> = LruSet::new(2);
        lru.insert(10);
        lru.insert(20);
        lru.insert(30); // evicts 10
        lru.insert(40); // evicts 20
        assert!(!lru.contains(&10) && !lru.contains(&20));
        assert!(lru.contains(&30) && lru.contains(&40));
        assert_eq!(lru.evictions(), 2);
    }

    #[test]
    fn lru_capacity_one_and_reuse() {
        let mut lru: LruSet<u64> = LruSet::new(1);
        for i in 0..50 {
            lru.insert(i);
            assert_eq!(lru.len(), 1);
            assert!(lru.contains(&i));
        }
        assert_eq!(lru.evictions(), 49);
        // Slab slots are recycled, not leaked.
        assert!(lru.nodes.len() <= 2);
    }

    /// Keys from most- to least-recently used.
    fn recency(lru: &LruSet<u64>) -> Vec<u64> {
        let mut out = Vec::new();
        let mut idx = lru.head;
        while idx != NIL {
            out.push(lru.nodes[idx as usize].key);
            idx = lru.nodes[idx as usize].next;
        }
        out
    }

    #[test]
    fn lru_remove_keeps_order_reuses_slots_and_is_not_an_eviction() {
        let mut lru: LruSet<u64> = LruSet::new(8);
        for k in 1..=5 {
            lru.insert(k);
        }
        assert_eq!(recency(&lru), vec![5, 4, 3, 2, 1]);
        assert!(lru.remove(&3), "middle");
        assert_eq!(recency(&lru), vec![5, 4, 2, 1]);
        assert!(lru.remove(&5), "head");
        assert_eq!(recency(&lru), vec![4, 2, 1]);
        assert!(lru.remove(&1), "tail");
        assert_eq!(recency(&lru), vec![4, 2]);
        assert!(!lru.remove(&1), "absent key is a no-op");
        assert!(!lru.remove(&99));
        assert_eq!(recency(&lru), vec![4, 2]);
        assert_eq!((lru.len(), lru.evictions()), (2, 0));
        assert!(!lru.contains(&3) && lru.contains(&4));
        // The three freed slots are reused before the slab grows.
        for k in 10..13 {
            assert!(lru.insert(k));
        }
        assert_eq!(lru.nodes.len(), 5);
        assert_eq!(recency(&lru), vec![12, 11, 10, 4, 2]);
        // Eviction still takes the true tail, and removing down to empty
        // leaves a usable set.
        let mut small: LruSet<u64> = LruSet::new(2);
        small.insert(1);
        small.insert(2);
        small.remove(&1);
        small.insert(3);
        assert_eq!(small.evictions(), 0, "the removed key's room was free");
        small.insert(4);
        assert_eq!((recency(&small), small.evictions()), (vec![4, 3], 1));
        small.remove(&4);
        small.remove(&3);
        assert!(small.is_empty() && recency(&small).is_empty());
        small.insert(7);
        assert_eq!(recency(&small), vec![7]);
    }

    #[test]
    fn lru_contains_does_not_refresh() {
        let mut lru: LruSet<u64> = LruSet::new(2);
        lru.insert(1);
        lru.insert(2);
        assert!(lru.contains(&1)); // must NOT make 1 recent
        lru.insert(3); // evicts 1, the LRU key
        assert!(!lru.contains(&1));
        assert!(lru.contains(&2));
    }
}
