//! Identifier newtypes used across the workspace.
//!
//! The paper parameterizes every operation by its position in the event
//! stream. [`SeqNum`] is the shared log's monotonically increasing sequence
//! number; [`Tag`] names a log sub-stream; [`InstanceId`] identifies a group
//! of concurrent function instances serving the same SSF invocation (§4,
//! "Race conditions"); [`VersionTuple`] is Halfmoon-write's
//! `(cursorTS, consecutiveW)` version number (§4.2).

use std::fmt;
use std::hash::Hasher;
use std::rc::Rc;

use crate::collections::FxHasher;

/// A sequence number assigned by the shared log's sequencer.
///
/// Seqnums are totally ordered and define the event stream that both
/// Halfmoon protocols parameterize reads and writes against.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNum(pub u64);

impl SeqNum {
    /// The smallest seqnum; no record ever carries it, so it can serve as an
    /// "arbitrarily out-of-date" initial cursor (§4.3 remark).
    pub const ZERO: SeqNum = SeqNum(0);
    /// A seqnum larger than any the sequencer will assign; used as the upper
    /// bound when seeking the newest record of a stream.
    pub const MAX: SeqNum = SeqNum(u64::MAX);

    /// The next seqnum. Saturates at [`SeqNum::MAX`].
    #[must_use]
    pub fn next(self) -> SeqNum {
        SeqNum(self.0.saturating_add(1))
    }
}

impl fmt::Debug for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sn{}", self.0)
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A log sub-stream tag (Figure 3).
///
/// The main log is logically divided into sub-streams of records sharing a
/// tag; a record may carry several tags and thus appear in several
/// sub-streams. Tags are constructed from a namespace discriminant plus a
/// 64-bit hash of the name so that step logs, per-object write logs, and
/// transition logs can never collide.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag(pub u64);

/// Namespaces for [`Tag`] construction. Each kind gets 3 bits of the tag
/// space so that streams of different kinds never alias.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum TagKind {
    /// Per-SSF step log, keyed by [`InstanceId`].
    StepLog = 1,
    /// Per-object write log (Halfmoon-read), keyed by object key.
    ObjectLog = 2,
    /// Per-object protocol transition log (§4.7).
    TransitionLog = 3,
    /// Global stream of SSF init records, scanned by the GC (§4.5).
    InitLog = 4,
    /// Global stream of SSF finish records, scanned by the GC (§4.5).
    FinishLog = 5,
}

impl Tag {
    /// Builds a tag in the given namespace from a pre-hashed 61-bit value.
    #[must_use]
    pub fn new(kind: TagKind, hash: u64) -> Tag {
        Tag(((kind as u64) << 61) | (hash & ((1 << 61) - 1)))
    }

    /// Builds a tag by hashing a string name (FNV-1a, stable across runs).
    #[must_use]
    pub fn named(kind: TagKind, name: &str) -> Tag {
        Tag::new(kind, fnv1a(name.as_bytes()))
    }

    /// The namespace this tag belongs to, if the discriminant is valid.
    #[must_use]
    pub fn kind(self) -> Option<TagKind> {
        match self.0 >> 61 {
            1 => Some(TagKind::StepLog),
            2 => Some(TagKind::ObjectLog),
            3 => Some(TagKind::TransitionLog),
            4 => Some(TagKind::InitLog),
            5 => Some(TagKind::FinishLog),
            _ => None,
        }
    }
}

impl fmt::Debug for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            Some(k) => write!(f, "tag:{:?}:{:x}", k, self.0 & ((1 << 61) - 1)),
            None => write!(f, "tag:{:x}", self.0),
        }
    }
}

/// Stable FNV-1a hash used for tag and key hashing.
///
/// We roll our own instead of `DefaultHasher` because the standard hasher is
/// explicitly unstable across releases, and tags must be reproducible for
/// deterministic simulation replays.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Identifier shared by all concurrent instances of one SSF invocation.
///
/// The paper calls this `instanceID` / `env.ID` (§4): a re-executed SSF and
/// any live peer instances use the same id and therefore the same step-log
/// stream.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u128);

impl InstanceId {
    /// Derives the deterministic child id for step `step` of this instance,
    /// mirroring `getUUID(env)` in Figure 5: the callee's id is a pure
    /// function of the caller's id and the step number.
    #[must_use]
    pub fn child(self, step: StepNum) -> InstanceId {
        // Mix with two rounds of splitmix-style finalization for dispersion.
        let mut x = self.0 ^ (u128::from(step.0) << 64 | 0x9e37_79b9_7f4a_7c15);
        x ^= x >> 67;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9_94d0_49bb_1331_11eb);
        x ^= x >> 59;
        InstanceId(x)
    }

    /// The step-log tag of this instance (the per-SSF log stream).
    #[must_use]
    pub fn step_log_tag(self) -> Tag {
        Tag::new(TagKind::StepLog, (self.0 as u64) ^ ((self.0 >> 64) as u64))
    }
}

impl fmt::Debug for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst:{:08x}", (self.0 as u32))
    }
}

/// A function node in the simulated cluster (the paper's setup has eight).
///
/// Log reads are served from a per-node record cache when possible (§4.1),
/// so the shared-log APIs take the calling node to decide hit vs. miss.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct NodeId(pub u32);

/// A 0-based step counter within one SSF execution (Figure 5's `env.step`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StepNum(pub u32);

impl StepNum {
    /// The next step.
    #[must_use]
    pub fn next(self) -> StepNum {
        StepNum(self.0 + 1)
    }
}

impl fmt::Debug for StepNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step{}", self.0)
    }
}

/// An object key in the external state store.
///
/// The name is a shared `Rc<str>`: keys are cloned into log records, the
/// store, the recorder and the GC's bookkeeping many times per request,
/// and every one of those clones is a refcount bump. `Ord` and `Eq` are
/// `str`'s; equality answers "same buffer" before it compares bytes, so a
/// lookup with a clone of the stored key never reads the string. `Hash`
/// writes one `u64`, the name's FxHash through a finalizer (below).
#[derive(Clone, PartialOrd, Ord)]
pub struct Key(Rc<str>);

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        Rc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl Eq for Key {}

/// FxHash's multiply carries bits only upward, so the low bits of a
/// name's FxHash see only its first bytes. Workload names share those
/// (`o0000000`..`o0009999`), and hashed as they are, 10 K of them land on
/// 32 of a 16 K-bucket table's home positions. murmur3's 64-bit finalizer
/// (`fmix64`) folds the high bits back down: the same names then reach as
/// many distinct low bits as random keys do.
impl std::hash::Hash for Key {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let mut fx = FxHasher::default();
        fx.write(self.0.as_bytes());
        state.write_u64(fmix64(fx.finish()));
    }
}

/// murmur3's 64-bit finalizer: every input bit reaches every output bit.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

impl Key {
    /// Builds a key from anything string-like.
    pub fn new(s: impl Into<Rc<str>>) -> Key {
        Key(s.into())
    }

    /// The key's name.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The per-object write-log tag (Halfmoon-read, §4.1).
    #[must_use]
    pub fn object_log_tag(&self) -> Tag {
        Tag::named(TagKind::ObjectLog, &self.0)
    }

    /// The per-object transition-log tag (§4.7).
    #[must_use]
    pub fn transition_log_tag(&self) -> Tag {
        Tag::named(TagKind::TransitionLog, &self.0)
    }

    /// Approximate stored size of the key in bytes (storage accounting).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.0.len()
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key:{}", self.0)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Key {
        Key::new(s)
    }
}

impl From<String> for Key {
    fn from(s: String) -> Key {
        Key::new(s)
    }
}

/// An opaque multi-version object version number (Halfmoon-read, §4.1).
///
/// Version numbers are *unordered pointers*: the write log defines the order
/// between versions, the number itself only names a stored object copy.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VersionNum(pub u64);

impl fmt::Debug for VersionNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{:x}", self.0)
    }
}

/// Halfmoon-write's ordered version tuple `(cursorTS, consecutiveW)` (§4.2).
///
/// The first field is the cursor timestamp at the last logged operation; the
/// second counts consecutive log-free writes since then and breaks ties
/// between them. Ordering is lexicographic, exactly as the paper defines.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VersionTuple {
    /// The SSF's cursor timestamp when the write was issued.
    pub cursor: SeqNum,
    /// Number of consecutive log-free writes since the last logged op.
    pub counter: u32,
}

impl VersionTuple {
    /// A tuple smaller than every tuple a protocol will generate, suitable
    /// as the initial stored version of a fresh object.
    pub const MIN: VersionTuple = VersionTuple {
        cursor: SeqNum(0),
        counter: 0,
    };

    /// Builds a version tuple.
    #[must_use]
    pub fn new(cursor: SeqNum, counter: u32) -> VersionTuple {
        VersionTuple { cursor, counter }
    }
}

impl fmt::Debug for VersionTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.cursor, self.counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqnum_ordering_and_next() {
        assert!(SeqNum(1) < SeqNum(2));
        assert_eq!(SeqNum(1).next(), SeqNum(2));
        assert_eq!(SeqNum::MAX.next(), SeqNum::MAX);
        assert!(SeqNum::ZERO < SeqNum(1));
    }

    #[test]
    fn tag_kinds_do_not_collide() {
        let a = Tag::named(TagKind::StepLog, "x");
        let b = Tag::named(TagKind::ObjectLog, "x");
        let c = Tag::named(TagKind::TransitionLog, "x");
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(a.kind(), Some(TagKind::StepLog));
        assert_eq!(b.kind(), Some(TagKind::ObjectLog));
        assert_eq!(c.kind(), Some(TagKind::TransitionLog));
    }

    #[test]
    fn tag_hash_is_stable() {
        // FNV-1a of "hello" is a fixed constant; pin it so replays stay stable.
        assert_eq!(fnv1a(b"hello"), 0xa430_d846_80aa_bd0b);
        assert_eq!(
            Tag::named(TagKind::ObjectLog, "k"),
            Tag::named(TagKind::ObjectLog, "k")
        );
    }

    #[test]
    fn instance_child_is_deterministic_and_disperse() {
        let id = InstanceId(42);
        assert_eq!(id.child(StepNum(3)), id.child(StepNum(3)));
        assert_ne!(id.child(StepNum(3)), id.child(StepNum(4)));
        assert_ne!(id.child(StepNum(3)), InstanceId(43).child(StepNum(3)));
    }

    #[test]
    fn version_tuple_order_is_lexicographic() {
        let a = VersionTuple::new(SeqNum(1), 5);
        let b = VersionTuple::new(SeqNum(2), 0);
        let c = VersionTuple::new(SeqNum(2), 1);
        assert!(a < b);
        assert!(b < c);
        assert!(VersionTuple::MIN < a);
    }

    /// Distinct values among the low `bits` bits of the `FxHashMap` hash
    /// of the workload names `o0000000`.. of `n` objects: the home
    /// positions those keys take in a table of `2^bits` buckets.
    fn homes(n: u32, bits: u32) -> usize {
        use std::hash::BuildHasher;
        let build = crate::collections::FxBuildHasher::default();
        let mask = (1u64 << bits) - 1;
        (0..n)
            .map(|i| build.hash_one(Key::new(format!("o{i:07}"))) & mask)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    }

    #[test]
    fn workload_keys_reach_every_bucket() {
        // Uniform hashes give ≈7,486 and ≈791 on average, this one 7,472
        // and 783; FxHash alone gave 32 and 32.
        let ten_k = homes(10_000, 14);
        assert!(ten_k >= 7_000, "10 K keys on {ten_k} of 16,384 homes");
        let one_k = homes(1_000, 11);
        assert!(one_k >= 700, "1 K keys on {one_k} of 2,048 homes");
    }

    #[test]
    fn key_tags_differ_between_objects() {
        let k1 = Key::new("hotel:1");
        let k2 = Key::new("hotel:2");
        assert_ne!(k1.object_log_tag(), k2.object_log_tag());
        assert_ne!(k1.object_log_tag(), k1.transition_log_tag());
    }
}
