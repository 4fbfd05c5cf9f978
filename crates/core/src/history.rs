//! Execution histories and the exactly-once auditor.
//!
//! When a [`Recorder`] is attached to a [`crate::Client`], every protocol
//! operation appends an [`Event`]. [`audit`] (or [`Recorder::audit`] on a
//! bare history) then validates the paper's correctness claims directly
//! against what actually happened — including under injected crashes,
//! re-executions, and racing peer instances. It is the one place that
//! decides which checks judge a history: six protocol-independent ones
//! (`read_stability`, `invoke_stability` and `write_determinism`, §2's
//! idempotence of reads, calls and writes; `raw_write_uniqueness`,
//! `monotonic_reads` and `read_your_writes`), then the §4.4 proposition of
//! a uniform Halfmoon deployment: Proposition 4.7's
//! `hm_read_sequential_consistency` or Proposition 4.8's `hm_write_order`.
//! Each check's method says what it holds.
//!
//! # Storage and cost
//!
//! The recorder stores each event packed in 48 bytes: instance ids and
//! keys are interned to `u32` in per-recorder tables, `at` is `u64`
//! nanoseconds, one `u64` holds the logical timestamp, commit seqnum or
//! version cursor, and `u32`s hold attempt, pc and version counter beside
//! a kind byte and a flag byte. [`Recorder::events`] materialises the
//! public [`Event`]s on demand. The checkers never copy the history: each
//! walks a sort of `u32` entry indices, O(n log n) time and 4 bytes per
//! event:
//!
//! - *program order*, by (instance id value, pc, recording index), for
//!   the stability, determinism, raw-write, monotonic-read and
//!   read-your-writes checks and for Proposition 4.7's reads: a counting
//!   sort by instance (8 more bytes per instance), computed once and kept
//!   until the next event is recorded;
//! - the versioned writes by (key, commit), searched by Proposition 4.7;
//! - the applied conditional writes and fresh reads by `at`, ties in
//!   recording order, walked by Proposition 4.8.
//!
//! All checkers are *trace-invariant*: they judge per-instance program
//! order and log (seqnum/timestamp) order, never the wall-clock
//! interleaving of commuting operations on disjoint keys. This is a
//! soundness requirement of the model checker's sleep-set pruning
//! (DESIGN.md §13) — two executions that differ only by swapping
//! independent adjacent actions must receive the same verdict, so the
//! explorer may run just one of them. Sorting by the instance id's value
//! rather than its intern index keeps the verdict *and* the message of
//! every checker independent of how instances interleaved in recording
//! order: each reports the violation first in program order (Proposition
//! 4.8: first by `at`).

use std::cell::{Ref, RefCell};
use std::collections::hash_map;
use std::hash::Hash;

use hm_common::{FxHashMap, InstanceId, Key, SeqNum, Value, VersionTuple};
use hm_substrate::Time;

use crate::client::{Client, RecoveryStats};
use crate::protocol::ProtocolKind;

/// What one recorded operation did.
#[derive(Clone, Debug)]
pub enum EventKind {
    /// A read returning a value with the given fingerprint.
    Read {
        /// Object read.
        key: Key,
        /// Fingerprint of the returned value.
        fp: u64,
        /// Logical timestamp: the cursor for log-free reads, the read-log
        /// record's seqnum for logged reads.
        logical: SeqNum,
        /// True if this event is the authoritative first observation (a
        /// live store read whose log append won); false for replays and
        /// peer-adopted results. Only fresh reads participate in the
        /// real-time ordering check; all reads participate in the
        /// stability check. The event's `at` is the observation instant.
        fresh: bool,
    },
    /// A multi-version write (Halfmoon-read / transitional).
    VersionedWrite {
        /// Object written.
        key: Key,
        /// Fingerprint of the written value.
        fp: u64,
        /// The commit record's seqnum — the write's logical timestamp.
        commit: SeqNum,
    },
    /// A conditional single-version write (Halfmoon-write / Boki).
    CondWrite {
        /// Object written.
        key: Key,
        /// Fingerprint of the written value.
        fp: u64,
        /// The version tuple used for the conditional update.
        version: VersionTuple,
        /// Whether the store applied it.
        applied: bool,
    },
    /// An unlogged raw write (unsafe baseline).
    RawWrite {
        /// Object written.
        key: Key,
        /// Fingerprint of the written value.
        fp: u64,
    },
    /// A child invocation returning a result.
    Invoke {
        /// The callee's instance id.
        callee: InstanceId,
        /// Fingerprint of the result.
        fp: u64,
    },
}

/// One recorded operation, keyed by who did it and where in the program.
#[derive(Clone, Debug)]
pub struct Event {
    /// The SSF instance group the operation belongs to.
    pub instance: InstanceId,
    /// Execution attempt (0 = first execution, bumps on re-execution).
    pub attempt: u32,
    /// Program counter: the operation's index within the function body.
    /// Deterministic functions revisit the same pc on every attempt.
    pub pc: u32,
    /// Virtual time at operation completion. This is the one field that
    /// depends on *scheduling* rather than protocol logic — log group
    /// commit, shard counts, and latency-model changes legitimately move
    /// it — so history comparisons across deployment configurations
    /// (e.g. `tests/batching.rs`) compare events modulo `at`.
    pub at: Time,
    /// The operation.
    pub kind: EventKind,
}

/// Which [`EventKind`] a packed [`Entry`] holds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tag {
    Read,
    VersionedWrite,
    CondWrite,
    RawWrite,
    Invoke,
}

/// One event as the recorder stores it. `obj` is the interned key, or the
/// interned callee of an `Invoke`. `seq` is a read's logical timestamp, a
/// versioned write's commit or a conditional write's version cursor, and
/// `counter` that version's counter. `flag` is a read's `fresh` or a
/// conditional write's `applied`.
struct Entry {
    at: u64,
    seq: u64,
    fp: u64,
    instance: u32,
    obj: u32,
    attempt: u32,
    pc: u32,
    counter: u32,
    tag: Tag,
    flag: bool,
}

const _: () = assert!(std::mem::size_of::<Entry>() <= 48);

impl Entry {
    fn version(&self) -> VersionTuple {
        VersionTuple::new(SeqNum(self.seq), self.counter)
    }
}

fn same_instance(a: &Entry, b: &Entry) -> bool {
    a.instance == b.instance
}

fn same_op(a: &Entry, b: &Entry) -> bool {
    a.instance == b.instance && a.pc == b.pc
}

/// Distinct values, numbered in order of first sight.
struct Interner<T> {
    ids: FxHashMap<T, u32>,
    values: Vec<T>,
}

impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner {
            ids: FxHashMap::default(),
            values: Vec::new(),
        }
    }
}

impl<T: Clone + Eq + Hash> Interner<T> {
    fn intern(&mut self, value: &T) -> u32 {
        match self.ids.entry(value.clone()) {
            hash_map::Entry::Occupied(known) => *known.get(),
            hash_map::Entry::Vacant(new) => {
                let id = u32::try_from(self.values.len()).expect("fewer than 2^32 distinct values");
                self.values.push(value.clone());
                *new.insert(id)
            }
        }
    }
}

/// The packed events and the tables their ids index.
#[derive(Default)]
struct History {
    entries: Vec<Entry>,
    instances: Interner<InstanceId>,
    keys: Interner<Key>,
    /// Base-value fingerprint per interned key; [`NULL_FP`] past its end.
    base: Vec<u64>,
}

impl History {
    fn pack(&mut self, event: Event) -> Entry {
        let (tag, obj, fp, seq, counter, flag) = match event.kind {
            EventKind::Read {
                key,
                fp,
                logical,
                fresh,
            } => (Tag::Read, self.keys.intern(&key), fp, logical.0, 0, fresh),
            EventKind::VersionedWrite { key, fp, commit } => (
                Tag::VersionedWrite,
                self.keys.intern(&key),
                fp,
                commit.0,
                0,
                false,
            ),
            EventKind::CondWrite {
                key,
                fp,
                version,
                applied,
            } => (
                Tag::CondWrite,
                self.keys.intern(&key),
                fp,
                version.cursor.0,
                version.counter,
                applied,
            ),
            EventKind::RawWrite { key, fp } => {
                (Tag::RawWrite, self.keys.intern(&key), fp, 0, 0, false)
            }
            EventKind::Invoke { callee, fp } => {
                (Tag::Invoke, self.instances.intern(&callee), fp, 0, 0, false)
            }
        };
        Entry {
            // Saturates 584 years into virtual time.
            at: u64::try_from(event.at.as_nanos()).unwrap_or(u64::MAX),
            seq,
            fp,
            instance: self.instances.intern(&event.instance),
            obj,
            attempt: event.attempt,
            pc: event.pc,
            counter,
            tag,
            flag,
        }
    }

    fn event(&self, e: &Entry) -> Event {
        let kind = match e.tag {
            Tag::Read => EventKind::Read {
                key: self.key(e).clone(),
                fp: e.fp,
                logical: SeqNum(e.seq),
                fresh: e.flag,
            },
            Tag::VersionedWrite => EventKind::VersionedWrite {
                key: self.key(e).clone(),
                fp: e.fp,
                commit: SeqNum(e.seq),
            },
            Tag::CondWrite => EventKind::CondWrite {
                key: self.key(e).clone(),
                fp: e.fp,
                version: e.version(),
                applied: e.flag,
            },
            Tag::RawWrite => EventKind::RawWrite {
                key: self.key(e).clone(),
                fp: e.fp,
            },
            Tag::Invoke => EventKind::Invoke {
                callee: self.instances.values[e.obj as usize],
                fp: e.fp,
            },
        };
        Event {
            instance: self.instance(e),
            attempt: e.attempt,
            pc: e.pc,
            at: Time::from_nanos(e.at),
            kind,
        }
    }

    fn entry(&self, index: u32) -> &Entry {
        &self.entries[index as usize]
    }

    fn instance(&self, e: &Entry) -> InstanceId {
        self.instances.values[e.instance as usize]
    }

    fn key(&self, e: &Entry) -> &Key {
        &self.keys.values[e.obj as usize]
    }

    fn base_fp(&self, e: &Entry) -> u64 {
        self.base.get(e.obj as usize).copied().unwrap_or(NULL_FP)
    }

    /// The entries at `indices` that hold `tag`, in order.
    fn tagged<'a>(&'a self, indices: &'a [u32], tag: Tag) -> impl Iterator<Item = &'a Entry> {
        indices
            .iter()
            .map(move |&i| self.entry(i))
            .filter(move |e| e.tag == tag)
    }

    /// Indices of the entries `keep` selects, sorted by `key`.
    fn sorted_by<K: Ord>(
        &self,
        keep: impl Fn(&Entry) -> bool,
        key: impl Fn(u32, &Entry) -> K,
    ) -> Vec<u32> {
        let mut indices = Vec::with_capacity(self.entries.iter().filter(|e| keep(e)).count());
        indices.extend((0..self.entries.len() as u32).filter(|&i| keep(self.entry(i))));
        indices.sort_unstable_by_key(|&i| key(i, self.entry(i)));
        indices
    }
}

/// Collects events and base state; shared via `Rc`.
#[derive(Default)]
pub struct Recorder {
    history: RefCell<History>,
    /// Entry indices in program order, kept until the next event.
    program_order: RefCell<Vec<u32>>,
}

/// Fingerprint value representing "key absent / never written".
const NULL_FP: u64 = 0x4e55_4c4c;

impl Recorder {
    /// Bytes one recorded event occupies in the recorder.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry>();

    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Registers the populated base value of a key.
    pub fn set_base(&self, key: &Key, value: &Value) {
        let mut h = self.history.borrow_mut();
        let id = h.keys.intern(key) as usize;
        if h.base.len() <= id {
            h.base.resize(id + 1, NULL_FP);
        }
        h.base[id] = value.fingerprint();
    }

    /// Appends an event.
    pub fn record(&self, event: Event) {
        let mut h = self.history.borrow_mut();
        // Entry indices are `u32`s.
        assert!(h.entries.len() < u32::MAX as usize, "2^32 events recorded");
        let entry = h.pack(event);
        h.entries.push(entry);
    }

    /// Snapshot of all events in recording order (== virtual-time order).
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let h = self.history.borrow();
        h.entries.iter().map(|e| h.event(e)).collect()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.history.borrow().entries.len()
    }

    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry indices sorted by (instance id value, pc, recording index):
    /// each instance's operations in program order, each operation's
    /// attempts in recording order.
    ///
    /// A counting sort by instance, then a sort of each instance's short
    /// run by pc: comparing entries directly would reach into the whole
    /// entry array at random on every comparison.
    fn program_order(&self) -> Ref<'_, [u32]> {
        let h = self.history.borrow();
        if self.program_order.borrow().len() != h.entries.len() {
            let mut order = self.program_order.borrow_mut();
            let instances = &h.instances.values;
            let mut ranked: Vec<u32> = (0..instances.len() as u32).collect();
            ranked.sort_unstable_by_key(|&i| instances[i as usize].0);
            // Per interned instance: its entry count, then where its run
            // starts, then where it ends.
            let mut bound = vec![0u32; instances.len()];
            for e in &h.entries {
                bound[e.instance as usize] += 1;
            }
            let mut start = 0;
            for &i in &ranked {
                let count = bound[i as usize];
                bound[i as usize] = start;
                start += count;
            }
            order.clear();
            order.resize(h.entries.len(), 0);
            for (index, e) in h.entries.iter().enumerate() {
                let slot = &mut bound[e.instance as usize];
                order[*slot as usize] = index as u32;
                *slot += 1;
            }
            let mut start = 0;
            for &i in &ranked {
                let end = bound[i as usize] as usize;
                order[start..end].sort_unstable_by_key(|&index| (h.entry(index).pc, index));
                start = end;
            }
        }
        Ref::map(self.program_order.borrow(), Vec::as_slice)
    }

    /// Runs `check` over the runs of program order that `same` groups
    /// (one operation, or one instance), stopping at its first complaint.
    fn check_runs(
        &self,
        same: fn(&Entry, &Entry) -> bool,
        mut check: impl FnMut(&History, &[u32]) -> Result<(), String>,
    ) -> Result<(), String> {
        let h = self.history.borrow();
        let order = self.program_order();
        order
            .chunk_by(|&a, &b| same(h.entry(a), h.entry(b)))
            .try_for_each(|run| check(&h, run))
    }

    /// Checks read idempotence: for every `(instance, pc)` read, all
    /// attempts returned the same value.
    ///
    /// # Errors
    /// Returns a description of the violating operation first in program
    /// order.
    fn check_read_stability(&self) -> Result<(), String> {
        self.check_runs(same_op, |h, op| {
            let mut reads = h.tagged(op, Tag::Read);
            let Some(first) = reads.next() else {
                return Ok(());
            };
            match reads.find(|e| e.fp != first.fp) {
                Some(e) => Err(format!(
                    "read at {:?} pc {} of {:?} returned fp {:x} then {:x}",
                    h.instance(e),
                    e.pc,
                    h.key(e),
                    first.fp,
                    e.fp
                )),
                None => Ok(()),
            }
        })
    }

    /// Checks invoke idempotence: all attempts of one `(instance, pc)`
    /// invocation used the same callee id and saw the same result.
    ///
    /// # Errors
    /// Returns a description of the violating operation first in program
    /// order.
    fn check_invoke_stability(&self) -> Result<(), String> {
        self.check_runs(same_op, |h, op| {
            let mut invokes = h.tagged(op, Tag::Invoke);
            let Some(first) = invokes.next() else {
                return Ok(());
            };
            match invokes.find(|e| (e.obj, e.fp) != (first.obj, first.fp)) {
                Some(e) => Err(format!(
                    "invoke at {:?} pc {}: {:?} then {:?}",
                    h.instance(e),
                    e.pc,
                    (h.instances.values[first.obj as usize], first.fp),
                    (h.instances.values[e.obj as usize], e.fp)
                )),
                None => Ok(()),
            }
        })
    }

    /// Checks write idempotence (§2): every attempt of one logical write
    /// used the same version identity, and it was applied at most once.
    ///
    /// For versioned writes the commit seqnum is the identity (exactly one
    /// commit record can exist, so all attempts must agree on it). For
    /// conditional writes the version tuple is the identity, and at most
    /// one attempt may have `applied == true`.
    ///
    /// # Errors
    /// Returns a description of the violating operation first in program
    /// order.
    fn check_write_determinism(&self) -> Result<(), String> {
        self.check_runs(same_op, |h, op| {
            let (mut commit, mut version, mut applied) = (None, None, 0);
            for &i in op {
                let e = h.entry(i);
                match e.tag {
                    Tag::VersionedWrite => {
                        let first = *commit.get_or_insert(e.seq);
                        if first != e.seq {
                            return Err(format!(
                                "versioned write {:?} pc {} of {:?}: commit {:?} then {:?}",
                                h.instance(e),
                                e.pc,
                                h.key(e),
                                SeqNum(first),
                                SeqNum(e.seq)
                            ));
                        }
                    }
                    Tag::CondWrite => {
                        let first = *version.get_or_insert(e.version());
                        if first != e.version() {
                            return Err(format!(
                                "conditional write {:?} pc {} of {:?}: version {:?} then {:?}",
                                h.instance(e),
                                e.pc,
                                h.key(e),
                                first,
                                e.version()
                            ));
                        }
                        applied += u32::from(e.flag);
                        if applied > 1 {
                            return Err(format!(
                                "conditional write {:?} pc {} of {:?} applied {} times",
                                h.instance(e),
                                e.pc,
                                h.key(e),
                                applied
                            ));
                        }
                    }
                    _ => {}
                }
            }
            Ok(())
        })
    }

    /// Proposition 4.7 check for Halfmoon-read histories.
    ///
    /// Orders committed writes by their commit seqnum, then verifies each
    /// read (deduplicated per `(instance, pc)`) returned the value of the
    /// latest write to its object with commit seqnum ≤ the read's cursor,
    /// or the base value if there is none.
    ///
    /// # Errors
    /// Returns a description of the read first in program order that
    /// observed a value inconsistent with the logical-timestamp order.
    fn check_hm_read_sequential_consistency(&self) -> Result<(), String> {
        // Committed writes by (key, commit); replays of one commit stay
        // in recording order, so the last of them wins.
        let writes = self
            .history
            .borrow()
            .sorted_by(|e| e.tag == Tag::VersionedWrite, |i, e| (e.obj, e.seq, i));
        self.check_runs(same_op, |h, op| {
            // Replay attempts are validated by check_read_stability.
            let Some(read) = h.tagged(op, Tag::Read).next() else {
                return Ok(());
            };
            let after = writes.partition_point(|&w| {
                let w = h.entry(w);
                (w.obj, w.seq) <= (read.obj, read.seq)
            });
            let expected = after
                .checked_sub(1)
                .map(|p| h.entry(writes[p]))
                .filter(|w| w.obj == read.obj)
                .map_or_else(|| h.base_fp(read), |w| w.fp);
            if expected == read.fp {
                return Ok(());
            }
            Err(format!(
                "SC violation: read of {:?} by {:?} pc {} at cursor {:?} \
                 returned fp {:x}, expected {:x}",
                h.key(read),
                h.instance(read),
                read.pc,
                SeqNum(read.seq),
                read.fp,
                expected
            ))
        })
    }

    /// Proposition 4.8 check for Halfmoon-write histories.
    ///
    /// Effective order: all events by real (virtual) time; a conditional
    /// write that failed its update is reordered immediately before the
    /// next applied write to the same object with a higher version (it
    /// "already happened" there). Every read must return the latest
    /// preceding applied write's value in that order.
    ///
    /// Because reads under Halfmoon-write observe the store directly, this
    /// validates both the protocol and the simulated store's conditional
    /// update semantics end to end.
    ///
    /// # Errors
    /// Returns a description of the first read inconsistent with the
    /// effective order.
    fn check_hm_write_order(&self) -> Result<(), String> {
        let h = self.history.borrow();
        // Applied writes and fresh reads by observation time, ties in
        // recording order: a logged read is recorded after its log append
        // completes but carries the store-observation instant in `at`.
        // Failed conditional writes are reordered before the value stored
        // when they ran, so they have no visible effect; replayed and
        // adopted reads are validated by the stability check.
        let by_time = h.sorted_by(
            |e| matches!(e.tag, Tag::CondWrite | Tag::Read) && e.flag,
            |i, e| (e.at, i),
        );
        // Per key along real time: the applied version and its fp.
        let mut state: Vec<Option<(VersionTuple, u64)>> = vec![None; h.keys.values.len()];
        for &i in &by_time {
            let e = h.entry(i);
            let stored = &mut state[e.obj as usize];
            if e.tag == Tag::CondWrite {
                let cur = stored.map_or(VersionTuple::MIN, |(v, _)| v);
                if e.version() <= cur && cur != VersionTuple::MIN {
                    return Err(format!(
                        "applied write to {:?} with non-increasing version {:?} after {cur:?}",
                        h.key(e),
                        e.version()
                    ));
                }
                *stored = Some((e.version(), e.fp));
                continue;
            }
            let expected = stored.map_or_else(|| h.base_fp(e), |(_, fp)| fp);
            if expected != e.fp {
                return Err(format!(
                    "effective-order violation: read of {:?} by {:?} pc {} \
                     returned fp {:x}, store held {:x}",
                    h.key(e),
                    h.instance(e),
                    e.pc,
                    e.fp,
                    expected
                ));
            }
        }
        Ok(())
    }

    /// Exactly-once effects for the unlogged path: a raw write is an
    /// unconditional store mutation, so any `(instance, pc)` recording it
    /// more than once duplicated a side effect across attempts. The
    /// fault-tolerant protocols never emit raw writes; the unsafe baseline
    /// emits one per write and demonstrably fails this under crashes.
    ///
    /// # Errors
    /// Returns a description of the duplicated effect first in program
    /// order.
    fn check_raw_write_uniqueness(&self) -> Result<(), String> {
        self.check_runs(same_op, |h, op| match h.tagged(op, Tag::RawWrite).nth(1) {
            Some(e) => Err(format!(
                "raw write at {:?} pc {} of {:?} took effect 2 times",
                h.instance(e),
                e.pc,
                h.key(e)
            )),
            None => Ok(()),
        })
    }

    /// Read-your-writes within one instance: after an instance commits a
    /// versioned write to `key` at program counter `p`, every read of
    /// `key` by the same instance at a later pc must carry a logical
    /// timestamp at or past that commit — the instance cannot travel back
    /// before its own write. Each read, replayed ones included, is held
    /// against the instance's latest write to its key at a lower pc,
    /// whenever either was recorded.
    ///
    /// # Errors
    /// Returns a description of the read behind its own write first in
    /// program order.
    fn check_read_your_writes(&self) -> Result<(), String> {
        // Per key of the current instance: (pc, commit) of its latest
        // write at a lower pc than the operation being checked.
        let mut writes: FxHashMap<u32, (u32, u64)> = FxHashMap::default();
        self.check_runs(same_instance, |h, instance| {
            writes.clear();
            for op in instance.chunk_by(|&a, &b| h.entry(a).pc == h.entry(b).pc) {
                for read in h.tagged(op, Tag::Read) {
                    if let Some(&(wpc, commit)) = writes.get(&read.obj) {
                        if read.seq < commit {
                            return Err(format!(
                                "read-your-writes violation: {:?} pc {} read {:?} at \
                                 logical {:?}, behind its own commit {:?} from pc {}",
                                h.instance(read),
                                read.pc,
                                h.key(read),
                                SeqNum(read.seq),
                                SeqNum(commit),
                                wpc
                            ));
                        }
                    }
                }
                for write in h.tagged(op, Tag::VersionedWrite) {
                    writes.insert(write.obj, (write.pc, write.seq));
                }
            }
            Ok(())
        })
    }

    /// Monotonic reads within one instance: ordering one instance's reads
    /// of a key by program counter, their logical timestamps must be
    /// non-decreasing (the cursor never moves backward, §4). Only the
    /// first recorded event per `(instance, pc)` participates — replay
    /// attempts repeat earlier pcs and are covered by the stability check.
    ///
    /// # Errors
    /// Returns a description of the backward-moving read of the smallest
    /// `(instance, key)` pair that has one, at its smallest pc: one
    /// message per history, whatever the recording order.
    fn check_monotonic_reads(&self) -> Result<(), String> {
        // Per key of the current instance: the (pc, logical) of its last
        // first-observed read.
        let mut last: FxHashMap<u32, (u32, u64)> = FxHashMap::default();
        self.check_runs(same_instance, |h, instance| {
            last.clear();
            // The instance's backward read with the smallest (key, pc).
            let mut worst: Option<(&Key, u32, u32, u64, u64)> = None;
            for read in h.tagged(instance, Tag::Read) {
                match last.get(&read.obj) {
                    Some(&(ppc, _)) if ppc == read.pc => continue,
                    Some(&(ppc, plogical)) if read.seq < plogical => {
                        let found = (h.key(read), read.pc, ppc, plogical, read.seq);
                        if worst.is_none_or(|w| (found.0, found.1) < (w.0, w.1)) {
                            worst = Some(found);
                        }
                    }
                    _ => {}
                }
                last.insert(read.obj, (read.pc, read.seq));
            }
            match worst {
                Some((key, pc, ppc, plogical, logical)) => Err(format!(
                    "monotonic-reads violation: {:?} read {key:?} at \
                     pc {ppc} logical {:?}, then pc {pc} logical {:?}",
                    h.instance(h.entry(instance[0])),
                    SeqNum(plogical),
                    SeqNum(logical)
                )),
                None => Ok(()),
            }
        })
    }

    /// Audits the history for exactly-once execution: the six generic
    /// checks, then the §4.4 proposition of `uniform`, the protocol a
    /// deployment runs uniformly (none for the baselines, per-key mixes and
    /// switching). The recovery meters are zero; [`audit`] fills them in.
    #[must_use]
    pub fn audit(&self, uniform: Option<ProtocolKind>) -> AuditReport {
        type Check = fn(&Recorder) -> Result<(), String>;
        const GENERIC: [(&str, Check); 6] = [
            ("read_stability", Recorder::check_read_stability),
            ("invoke_stability", Recorder::check_invoke_stability),
            ("write_determinism", Recorder::check_write_determinism),
            ("raw_write_uniqueness", Recorder::check_raw_write_uniqueness),
            ("monotonic_reads", Recorder::check_monotonic_reads),
            ("read_your_writes", Recorder::check_read_your_writes),
        ];
        let proposition: Option<(&str, Check)> = match uniform {
            Some(ProtocolKind::HalfmoonRead) => Some((
                "hm_read_sequential_consistency",
                Recorder::check_hm_read_sequential_consistency,
            )),
            Some(ProtocolKind::HalfmoonWrite) => {
                Some(("hm_write_order", Recorder::check_hm_write_order))
            }
            _ => None,
        };
        let mut report = AuditReport {
            events: self.len(),
            checks: Vec::new(),
            violations: Vec::new(),
            recovery: RecoveryStats::default(),
        };
        for (name, check) in GENERIC.into_iter().chain(proposition) {
            report.checks.push(name);
            if let Err(msg) = check(self) {
                report.violations.push(format!("{name}: {msg}"));
            }
        }
        report
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Recorder({} events)", self.len())
    }
}

/// What the exactly-once auditor concluded.
#[derive(Debug)]
pub struct AuditReport {
    /// History events examined.
    pub events: usize,
    /// Checks that ran, in order.
    pub checks: Vec<&'static str>,
    /// Violations found, as `"check: description"` lines.
    pub violations: Vec<String>,
    /// The deployment's cumulative §5 recovery meters.
    pub recovery: RecoveryStats,
}

impl AuditReport {
    /// True when every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with the report after `context` unless every check passed.
    #[track_caller]
    pub fn assert_passed(&self, context: impl std::fmt::Display) {
        assert!(self.passed(), "{context}: {self}");
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.passed() {
            write!(
                f,
                "audit PASSED: {} events, {} checks, {} recovery attempts replayed {} records",
                self.events,
                self.checks.len(),
                self.recovery.attempts,
                self.recovery.replayed_records
            )
        } else {
            write!(f, "audit FAILED: {}", self.violations.join("; "))
        }
    }
}

/// Audits a deployment's recorded history for exactly-once execution:
/// [`Recorder::audit`] under the protocol the deployment runs uniformly,
/// with its §5 recovery meters folded in. The checks never copy the
/// history (DESIGN.md §13): a 100k-event audit allocates about 8 bytes
/// per event.
///
/// The client must have been built with `.recorder()`; auditing an
/// unrecorded deployment is itself reported as a violation rather than a
/// silent pass.
///
/// This is also the oracle of the systematic model checker
/// (`hm_runtime::mc`): every explored interleaving ends in an `audit`
/// call, so EXPERIMENTS.md's "verified over all interleavings" claims are
/// claims about exactly these checks.
#[must_use]
pub fn audit(client: &Client) -> AuditReport {
    let recovery = client.recovery_stats();
    let Some(recorder) = client.recorder() else {
        return AuditReport {
            events: 0,
            checks: Vec::new(),
            violations: vec!["setup: no recorder attached; nothing to audit".to_string()],
            recovery,
        };
    };
    let uniform =
        client.with_config(|c| (!c.switching_enabled && c.per_key.is_empty()).then_some(c.default));
    let report = AuditReport {
        recovery,
        ..recorder.audit(uniform)
    };
    // A failed audit is the flight recorder's primary trigger: dump the
    // black box (recent trace events, phase stamps, incident ring) so the
    // violating run leaves forensics behind, not just a message.
    if !report.passed() {
        if let Some(p) = client.probe() {
            p.trigger(client.ctx().now(), "audit_violation", || {
                report.violations.join("; ")
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(inst: u128, pc: u32, key: &str, fp: u64, logical: u64) -> Event {
        Event {
            instance: InstanceId(inst),
            attempt: 0,
            pc,
            at: Time::from_nanos(logical), // distinct, ordered instants
            kind: EventKind::Read {
                key: Key::new(key),
                fp,
                logical: SeqNum(logical),
                fresh: true,
            },
        }
    }

    fn vwrite(inst: u128, pc: u32, key: &str, fp: u64, commit: u64) -> Event {
        Event {
            instance: InstanceId(inst),
            attempt: 0,
            pc,
            at: Time::ZERO,
            kind: EventKind::VersionedWrite {
                key: Key::new(key),
                fp,
                commit: SeqNum(commit),
            },
        }
    }

    fn cwrite(inst: u128, pc: u32, key: &str, fp: u64, vt: (u64, u32), applied: bool) -> Event {
        Event {
            instance: InstanceId(inst),
            attempt: 0,
            pc,
            at: Time::ZERO,
            kind: EventKind::CondWrite {
                key: Key::new(key),
                fp,
                version: VersionTuple::new(SeqNum(vt.0), vt.1),
                applied,
            },
        }
    }

    #[test]
    fn read_stability_catches_divergent_replay() {
        let r = Recorder::new();
        r.record(read(1, 0, "x", 0xaa, 5));
        r.record(read(1, 0, "x", 0xaa, 5));
        assert!(r.check_read_stability().is_ok());
        r.record(read(1, 0, "x", 0xbb, 9));
        assert!(r.check_read_stability().is_err());
    }

    #[test]
    fn write_determinism_catches_double_apply() {
        let r = Recorder::new();
        r.record(cwrite(1, 0, "x", 0xaa, (3, 1), true));
        r.record(cwrite(1, 0, "x", 0xaa, (3, 1), false));
        assert!(r.check_write_determinism().is_ok());
        r.record(cwrite(1, 0, "x", 0xaa, (3, 1), true));
        assert!(r.check_write_determinism().is_err());
    }

    #[test]
    fn write_determinism_catches_version_drift() {
        let r = Recorder::new();
        r.record(vwrite(1, 0, "x", 0xaa, 7));
        r.record(vwrite(1, 0, "x", 0xaa, 8));
        assert!(r.check_write_determinism().is_err());
    }

    #[test]
    fn hm_read_sc_accepts_legal_history() {
        let r = Recorder::new();
        r.set_base(&Key::new("x"), &Value::Int(0));
        let base = Value::Int(0).fingerprint();
        // Write at sn 10; reads at cursors 5 (sees base) and 12 (sees write).
        r.record(vwrite(1, 0, "x", 0xaa, 10));
        r.record(read(2, 0, "x", base, 5));
        r.record(read(3, 0, "x", 0xaa, 12));
        assert!(r.check_hm_read_sequential_consistency().is_ok());
    }

    #[test]
    fn hm_read_sc_rejects_future_read() {
        let r = Recorder::new();
        r.record(vwrite(1, 0, "x", 0xaa, 10));
        // Cursor 5 must not see the write at 10.
        r.record(read(2, 0, "x", 0xaa, 5));
        assert!(r.check_hm_read_sequential_consistency().is_err());
    }

    #[test]
    fn hm_write_order_accepts_reordered_stale_write() {
        let r = Recorder::new();
        // Fresh write applied, then a stale write correctly rejected, then
        // a read seeing the fresh value.
        r.record(cwrite(1, 0, "x", 0xaa, (10, 1), true));
        r.record(cwrite(2, 0, "x", 0xbb, (5, 1), false));
        r.record(read(3, 0, "x", 0xaa, 0));
        assert!(r.check_hm_write_order().is_ok());
    }

    #[test]
    fn hm_write_order_rejects_wrong_read() {
        let r = Recorder::new();
        r.record(cwrite(1, 0, "x", 0xaa, (10, 1), true));
        r.record(read(3, 0, "x", 0xbb, 0));
        assert!(r.check_hm_write_order().is_err());
    }

    #[test]
    fn hm_write_order_rejects_non_monotone_apply() {
        let r = Recorder::new();
        r.record(cwrite(1, 0, "x", 0xaa, (10, 1), true));
        r.record(cwrite(2, 1, "x", 0xbb, (5, 1), true));
        assert!(r.check_hm_write_order().is_err());
    }

    #[test]
    fn invoke_stability() {
        let r = Recorder::new();
        let ev = |callee: u128, fp: u64| Event {
            instance: InstanceId(1),
            attempt: 0,
            pc: 2,
            at: Time::ZERO,
            kind: EventKind::Invoke {
                callee: InstanceId(callee),
                fp,
            },
        };
        r.record(ev(9, 1));
        r.record(ev(9, 1));
        assert!(r.check_invoke_stability().is_ok());
        r.record(ev(10, 1));
        assert!(r.check_invoke_stability().is_err());
    }

    #[test]
    fn read_your_writes_checks_a_replayed_read_recorded_after_a_later_write() {
        let r = Recorder::new();
        r.record(vwrite(1, 3, "x", 0xaa, 10));
        r.record(read(1, 5, "x", 0xaa, 12));
        r.record(vwrite(1, 7, "x", 0xbb, 20));
        assert!(r.check_read_your_writes().is_ok());
        // A retry re-records the pc-5 read behind the pc-3 commit.
        let mut replay = read(1, 5, "x", 0xaa, 5);
        replay.attempt = 1;
        r.record(replay);
        let err = r
            .check_read_your_writes()
            .expect_err("pc 5 reads behind pc 3");
        assert!(err.contains("pc 5") && err.contains("from pc 3"), "{err}");
    }

    #[test]
    fn events_materialise_what_was_recorded() {
        let r = Recorder::new();
        let mut events = vec![
            read(1, 0, "x", 0xaa, 5),
            vwrite(2, 1, "y", 0xbb, 7),
            cwrite(1, 2, "x", 0xcc, (9, 3), true),
            Event {
                instance: InstanceId(u128::MAX),
                attempt: 4,
                pc: 3,
                at: Time::new(7, 123_456_789),
                kind: EventKind::Invoke {
                    callee: InstanceId(1),
                    fp: 0xdd,
                },
            },
        ];
        events[1].kind = EventKind::RawWrite {
            key: Key::new("y"),
            fp: 0xbb,
        };
        let render = |es: &[Event]| format!("{es:?}");
        let want = render(&events);
        for e in events {
            r.record(e);
        }
        assert_eq!(render(&r.events()), want);
    }

    #[test]
    fn monotonic_reads_reports_one_violation_per_history() {
        let r = Recorder::new();
        // Eight instances, recorded in descending id order, each reading
        // `k` backwards twice.
        for inst in (1..=8).rev() {
            r.record(read(inst, 0, "k", 0xaa, 30));
            r.record(read(inst, 1, "k", 0xaa, 20));
            r.record(read(inst, 2, "k", 0xaa, 10));
        }
        let first = r
            .check_monotonic_reads()
            .expect_err("every instance reads backwards");
        assert!(
            first.contains("inst:00000001") && first.contains("pc 0"),
            "{first}"
        );
        for _ in 0..20 {
            assert_eq!(r.check_monotonic_reads(), Err(first.clone()));
        }
    }
}
