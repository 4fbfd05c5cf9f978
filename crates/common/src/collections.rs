//! Allocation-lean collection primitives for the simulator's hot paths.
//!
//! Two building blocks, both deterministic (no `RandomState`, no pointer
//! hashing), so replays of a seeded simulation touch memory identically:
//!
//! - [`TagSet`]: a record's tag list, stored inline for up to four tags
//!   (records almost always carry one to three) and spilled to the heap
//!   otherwise — the "interned tag set" replacing `Vec<Tag>` clones;
//! - [`FxHashMap`] / [`FxHashSet`]: hash containers using the Firefox
//!   `FxHash` function, far cheaper than SipHash for the integer keys the
//!   shared log indexes by (`Tag`, `SeqNum`, `NodeId`) and stable across
//!   runs and platforms. The root `clippy.toml` disallows std's
//!   `RandomState`-seeded `HashMap` and `HashSet` everywhere else.

use std::hash::{BuildHasherDefault, Hasher};

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
#[allow(clippy::disallowed_types)] // the one place std's map is named
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with [`FxHasher`].
#[allow(clippy::disallowed_types)] // the one place std's set is named
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

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
}
