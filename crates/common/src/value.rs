//! The dynamic payload type exchanged between serverless functions.
//!
//! Real FaaS platforms pass JSON between functions; in this in-process
//! reproduction there is no serialization boundary, so [`Value`] is a plain
//! enum with the same shape as JSON. The type also knows its approximate
//! encoded size so that the storage-overhead experiments (§6.3) can account
//! for bytes the way DynamoDB would.

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use crate::bytes::SharedBytes;

/// A JSON-like dynamic value.
///
/// Every non-scalar variant is reference-counted: values cross the
/// simulated serialization boundary many times per request (runtime retry
/// loop, init-record payload, replay adoption), and a real platform would
/// pass serialized bytes by reference. Cloning a `Value` is therefore O(1)
/// for *all* variants — strings and byte buffers included — so the
/// `Payload: Clone` contract on log records is a pointer bump end to end
/// (DESIGN.md §10). Logical equality and accounting are unaffected.
#[derive(Clone, PartialEq, Default)]
pub enum Value {
    /// Absent / null.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string (refcounted; cloning shares the buffer).
    Str(Rc<str>),
    /// Materialized byte payload behind a shared buffer ([`SharedBytes`]):
    /// cloning bumps a refcount, subslices share storage. This is the
    /// zero-copy carrier for values whose bytes matter (cache handoff,
    /// replay adoption).
    Bytes(SharedBytes),
    /// Opaque byte payload of a given length. The bytes themselves are not
    /// materialized — workloads only care about the *size* of values (the
    /// storage experiments vary object size between 256 B and 1 KB), so a
    /// blob carries its length and a small content fingerprint.
    Blob {
        /// Logical length in bytes.
        len: usize,
        /// Content fingerprint, so distinct writes remain distinguishable.
        fingerprint: u64,
    },
    /// Ordered list: one shared block of items.
    List(Rc<[Value]>),
    /// String-keyed map: a window onto a shared block of entries, sorted
    /// by key and free of duplicates (deterministic iteration).
    Map(Entries),
}

/// A map's entries: a window onto a shared block, the way [`SharedBytes`]
/// is a window onto bytes. [`Value::map`] gives a map a block of its own;
/// the maps of one [`Value::table`] share one block. Derefs to the window's
/// entries, so equality, iteration and accounting see only those.
#[derive(Clone)]
pub struct Entries {
    block: Rc<[(&'static str, Value)]>,
    start: usize,
    len: usize,
}

impl Entries {
    /// True if both windows look onto one block (regardless of window).
    #[must_use]
    pub fn ptr_eq(&self, other: &Entries) -> bool {
        Rc::ptr_eq(&self.block, &other.block)
    }
}

impl Deref for Entries {
    type Target = [(&'static str, Value)];

    fn deref(&self) -> &Self::Target {
        &self.block[self.start..self.start + self.len]
    }
}

impl PartialEq for Entries {
    fn eq(&self, other: &Entries) -> bool {
        **self == **other
    }
}

impl Value {
    /// Builds a blob of `len` bytes whose content is identified by
    /// `fingerprint`.
    #[must_use]
    pub fn blob(len: usize, fingerprint: u64) -> Value {
        Value::Blob { len, fingerprint }
    }

    /// Builds a map value from key/value pairs, in any order; of entries
    /// with the same key the last one wins.
    #[must_use]
    pub fn map<const N: usize>(mut entries: [(&'static str, Value); N]) -> Value {
        let (cols, len) = kept_columns(entries.each_ref().map(|(k, _)| *k));
        // A mapped slice knows its length, so this is one block.
        let block = cols[..len]
            .iter()
            .map(|&col| (entries[col].0, std::mem::take(&mut entries[col].1)))
            .collect();
        Value::Map(Entries {
            block,
            start: 0,
            len,
        })
    }

    /// Builds a list value.
    #[must_use]
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(items.into())
    }

    /// Builds a list of maps, one per row, each mapping `keys` to the
    /// row's values in order. Equal to the list of `Value::map`s of the
    /// same rows, but two allocations in all: every map is a window onto
    /// one block of entries. Rows are drawn in order, each once.
    #[must_use]
    pub fn table<const K: usize, R>(keys: [&'static str; K], rows: R) -> Value
    where
        R: IntoIterator<Item = [Value; K]>,
        R::IntoIter: ExactSizeIterator,
    {
        let (cols, width) = kept_columns(keys);
        let mut rows = rows.into_iter();
        let height = rows.len();
        let mut row: [Value; K] = std::array::from_fn(|_| Value::Null);
        // A mapped range knows its length, so each block is one allocation.
        let block: Rc<[(&'static str, Value)]> = (0..height * width)
            .map(|at| {
                if at % width == 0 {
                    row = rows
                        .next()
                        .expect("a row for each of the iterator's length");
                }
                let col = cols[at % width];
                (keys[col], std::mem::take(&mut row[col]))
            })
            .collect();
        // Rows with no columns are drawn all the same.
        rows.for_each(drop);
        Value::List(
            (0..height)
                .map(|r| {
                    Value::Map(Entries {
                        block: block.clone(),
                        start: r * width,
                        len: width,
                    })
                })
                .collect(),
        )
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(Rc::from(s.into()))
    }

    /// Builds a byte-buffer value sharing `bytes`' storage.
    #[must_use]
    pub fn bytes(bytes: SharedBytes) -> Value {
        Value::Bytes(bytes)
    }

    /// Approximate encoded size in bytes, used for storage accounting.
    ///
    /// Refcounted variants charge their *logical* length — the §6.3
    /// storage experiments count payload bytes once per record, however
    /// many views share the buffer in process.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
            Value::Blob { len, .. } => *len,
            Value::List(items) => 2 + items.iter().map(Value::size_bytes).sum::<usize>(),
            Value::Map(entries) => {
                2 + entries
                    .iter()
                    .map(|(k, v)| k.len() + v.size_bytes())
                    .sum::<usize>()
            }
        }
    }

    /// Returns the integer payload, if this is an `Int`.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the byte-buffer payload, if this is a `Bytes`.
    #[must_use]
    pub fn as_bytes(&self) -> Option<&SharedBytes> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the list payload, if this is a `List`.
    #[must_use]
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the map payload, if this is a `Map`.
    #[must_use]
    pub fn as_map(&self) -> Option<&[(&'static str, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// Looks up a map field (a scan: maps hold a handful of entries).
    #[must_use]
    pub fn get(&self, field: &str) -> Option<&Value> {
        self.as_map()?
            .iter()
            .find_map(|(k, v)| (*k == field).then_some(v))
    }

    /// True if this is `Null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A stable 64-bit fingerprint of the value, used by the consistency
    /// checkers to compare read results without cloning whole payloads.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fn mix(h: u64, x: u64) -> u64 {
            (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
        }
        match self {
            Value::Null => 0x4e55_4c4c,
            Value::Bool(b) => mix(0xb001, u64::from(*b)),
            Value::Int(i) => mix(0x1237, *i as u64),
            Value::Float(f) => mix(0xf10a, f.to_bits()),
            Value::Str(s) => mix(0x5712, crate::ids::fnv1a(s.as_bytes())),
            Value::Bytes(b) => mix(0xb17e, b.fingerprint()),
            Value::Blob { len, fingerprint } => mix(mix(0xb10b, *len as u64), *fingerprint),
            Value::List(items) => items
                .iter()
                .fold(0x1157_u64, |h, v| mix(h, v.fingerprint())),
            Value::Map(entries) => entries.iter().fold(0x3a90_u64, |h, (k, v)| {
                mix(mix(h, crate::ids::fnv1a(k.as_bytes())), v.fingerprint())
            }),
        }
    }
}

/// The first `n` of the returned indices into `keys` are the entries a map
/// keeps, in key order: a stable sort, then the last of each run of equal
/// keys.
fn kept_columns<const K: usize>(keys: [&'static str; K]) -> ([usize; K], usize) {
    let mut cols: [usize; K] = std::array::from_fn(|i| i);
    cols.sort_by_key(|&i| keys[i]);
    let mut n = 0;
    for i in 0..K {
        if i + 1 == K || keys[cols[i]] != keys[cols[i + 1]] {
            cols[n] = cols[i];
            n += 1;
        }
    }
    (cols, n)
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "{b:?}"),
            Value::Blob { len, fingerprint } => write!(f, "blob[{len}B;{fingerprint:x}]"),
            Value::List(items) => f.debug_list().entries(items.iter()).finish(),
            Value::Map(entries) => f
                .debug_map()
                .entries(entries.iter().map(|(k, v)| (k, v)))
                .finish(),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(Rc::from(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(Rc::from(s))
    }
}

impl From<SharedBytes> for Value {
    fn from(b: SharedBytes) -> Value {
        Value::Bytes(b)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::List(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_account_for_contents() {
        assert_eq!(Value::Int(7).size_bytes(), 8);
        assert_eq!(Value::blob(256, 0).size_bytes(), 256);
        assert_eq!(Value::str("abcd").size_bytes(), 4);
        let m = Value::map([("k", Value::blob(100, 1))]);
        assert_eq!(m.size_bytes(), 2 + 1 + 100);
    }

    #[test]
    fn fingerprints_distinguish_contents() {
        assert_ne!(Value::Int(1).fingerprint(), Value::Int(2).fingerprint());
        assert_ne!(
            Value::blob(10, 1).fingerprint(),
            Value::blob(10, 2).fingerprint()
        );
        assert_eq!(
            Value::map([("a", Value::Int(1))]).fingerprint(),
            Value::map([("a", Value::Int(1))]).fingerprint()
        );
        assert_ne!(Value::Null.fingerprint(), Value::Bool(false).fingerprint());
    }

    #[test]
    fn bytes_values_share_storage_and_count_logical_size() {
        let buf = SharedBytes::copy_from(&[7u8; 300]);
        let v = Value::bytes(buf.clone());
        assert_eq!(v.size_bytes(), 300);
        let copy = v.clone();
        assert_eq!(copy, v);
        // Clone of a Bytes value is a refcount bump on the same buffer.
        assert!(copy.as_bytes().unwrap().ptr_eq(&buf));
        // A narrowed view charges its own logical length.
        assert_eq!(Value::bytes(buf.slice(0, 50)).size_bytes(), 50);
    }

    #[test]
    fn str_clone_shares_the_buffer() {
        let v = Value::str("shared string payload");
        let copy = v.clone();
        let (Value::Str(a), Value::Str(b)) = (&v, &copy) else {
            panic!("expected Str");
        };
        assert!(Rc::ptr_eq(a, b));
        assert_eq!(v.fingerprint(), copy.fingerprint());
    }

    #[test]
    fn accessors() {
        let v = Value::map([("n", Value::Int(3)), ("s", Value::str("x"))]);
        assert_eq!(v.get("n").and_then(Value::as_int), Some(3));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert!(v.get("missing").is_none());
        assert!(Value::Null.is_null());
    }
}
