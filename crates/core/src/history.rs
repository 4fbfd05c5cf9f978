//! Execution histories and consistency checkers.
//!
//! When a [`Recorder`] is attached to a [`crate::Client`], every protocol
//! operation appends an [`Event`]. The checkers then validate the paper's
//! correctness claims directly against what actually happened — including
//! under injected crashes, re-executions, and racing peer instances:
//!
//! - [`Recorder::check_read_stability`] — idempotence of reads: every
//!   execution attempt of the same program-counter read observed the same
//!   value (§2's "a read should consistently seek backward from the same
//!   timestamp").
//! - [`Recorder::check_write_determinism`] — idempotence of writes: all
//!   attempts of one logical write used the same version, and it took
//!   effect at most once (§2's "a write should always take effect at the
//!   same point in the stream").
//! - [`Recorder::check_hm_read_sequential_consistency`] — Proposition 4.7:
//!   ordering events by logical timestamp yields a legal sequential history
//!   in which every read returns the latest preceding write.
//! - [`Recorder::check_hm_write_order`] — Proposition 4.8: order by real
//!   time, reorder overridden conditional writes immediately before the
//!   next successful write to the same object; each read must then return
//!   the latest preceding *effective* write.
//!
//! All checkers are *trace-invariant*: they judge per-instance program
//! order and log (seqnum/timestamp) order, never the wall-clock
//! interleaving of commuting operations on disjoint keys. This is a
//! soundness requirement of the model checker's sleep-set pruning
//! (DESIGN.md §18) — two executions that differ only by swapping
//! independent adjacent actions must receive the same verdict, so the
//! explorer may run just one of them.

use std::cell::RefCell;
use std::collections::BTreeMap;

use hm_common::{FxHashMap, FxHashSet, InstanceId, Key, SeqNum, Value, VersionTuple};
use hm_substrate::Time;

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

/// Collects events and base state; shared via `Rc`.
#[derive(Default)]
pub struct Recorder {
    events: RefCell<Vec<Event>>,
    base: RefCell<FxHashMap<Key, u64>>,
}

/// Fingerprint value representing "key absent / never written".
const NULL_FP: u64 = 0x4e55_4c4c;

impl Recorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Registers the populated base value of a key.
    pub fn set_base(&self, key: &Key, value: &Value) {
        self.base
            .borrow_mut()
            .insert(key.clone(), value.fingerprint());
    }

    /// Appends an event.
    pub fn record(&self, event: Event) {
        self.events.borrow_mut().push(event);
    }

    /// Snapshot of all events in recording order (== virtual-time order).
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.events.borrow().clone()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    fn base_fp(&self, key: &Key) -> u64 {
        self.base.borrow().get(key).copied().unwrap_or(NULL_FP)
    }

    /// Checks read idempotence: for every `(instance, pc)` read, all
    /// attempts returned the same value.
    ///
    /// # Errors
    /// Returns a description of the first violating operation.
    pub fn check_read_stability(&self) -> Result<(), String> {
        let mut seen: FxHashMap<(InstanceId, u32), u64> = FxHashMap::default();
        for e in self.events.borrow().iter() {
            if let EventKind::Read { fp, key, .. } = &e.kind {
                match seen.insert((e.instance, e.pc), *fp) {
                    Some(prev) if prev != *fp => {
                        return Err(format!(
                            "read at {:?} pc {} of {:?} returned fp {:x} then {:x}",
                            e.instance, e.pc, key, prev, fp
                        ));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Checks invoke idempotence: all attempts of one `(instance, pc)`
    /// invocation used the same callee id and saw the same result.
    ///
    /// # Errors
    /// Returns a description of the first violating operation.
    pub fn check_invoke_stability(&self) -> Result<(), String> {
        let mut seen: FxHashMap<(InstanceId, u32), (InstanceId, u64)> = FxHashMap::default();
        for e in self.events.borrow().iter() {
            if let EventKind::Invoke { callee, fp } = &e.kind {
                match seen.insert((e.instance, e.pc), (*callee, *fp)) {
                    Some(prev) if prev != (*callee, *fp) => {
                        return Err(format!(
                            "invoke at {:?} pc {}: {:?} then {:?}",
                            e.instance,
                            e.pc,
                            prev,
                            (*callee, *fp)
                        ));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
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
    /// Returns a description of the first violating operation.
    pub fn check_write_determinism(&self) -> Result<(), String> {
        let mut versioned: FxHashMap<(InstanceId, u32), SeqNum> = FxHashMap::default();
        let mut cond: FxHashMap<(InstanceId, u32), (VersionTuple, u32)> = FxHashMap::default();
        for e in self.events.borrow().iter() {
            match &e.kind {
                EventKind::VersionedWrite { commit, key, .. } => {
                    match versioned.insert((e.instance, e.pc), *commit) {
                        Some(prev) if prev != *commit => {
                            return Err(format!(
                                "versioned write {:?} pc {} of {:?}: commit {:?} then {:?}",
                                e.instance, e.pc, key, prev, commit
                            ));
                        }
                        _ => {}
                    }
                }
                EventKind::CondWrite {
                    version,
                    applied,
                    key,
                    ..
                } => {
                    let entry = cond.entry((e.instance, e.pc)).or_insert((*version, 0));
                    if entry.0 != *version {
                        return Err(format!(
                            "conditional write {:?} pc {} of {:?}: version {:?} then {:?}",
                            e.instance, e.pc, key, entry.0, version
                        ));
                    }
                    if *applied {
                        entry.1 += 1;
                        if entry.1 > 1 {
                            return Err(format!(
                                "conditional write {:?} pc {} of {:?} applied {} times",
                                e.instance, e.pc, key, entry.1
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Proposition 4.7 check for Halfmoon-read histories.
    ///
    /// Orders committed writes by their commit seqnum, then verifies each
    /// read (deduplicated per `(instance, pc)`) returned the value of the
    /// latest write to its object with commit seqnum ≤ the read's cursor,
    /// or the base value if there is none.
    ///
    /// # Errors
    /// Returns a description of the first read that observed a value
    /// inconsistent with the logical-timestamp order.
    pub fn check_hm_read_sequential_consistency(&self) -> Result<(), String> {
        // Committed writes per key, ordered by commit seqnum.
        let mut writes: FxHashMap<Key, BTreeMap<SeqNum, u64>> = FxHashMap::default();
        for e in self.events.borrow().iter() {
            if let EventKind::VersionedWrite { key, fp, commit } = &e.kind {
                writes.entry(key.clone()).or_default().insert(*commit, *fp);
            }
        }
        let mut checked: FxHashSet<(InstanceId, u32)> = FxHashSet::default();
        for e in self.events.borrow().iter() {
            let EventKind::Read {
                key, fp, logical, ..
            } = &e.kind
            else {
                continue;
            };
            if !checked.insert((e.instance, e.pc)) {
                continue; // replay attempts validated by check_read_stability
            }
            let expected = writes
                .get(key)
                .and_then(|m| m.range(..=*logical).next_back().map(|(_, fp)| *fp))
                .unwrap_or_else(|| self.base_fp(key));
            if expected != *fp {
                return Err(format!(
                    "SC violation: read of {:?} by {:?} pc {} at cursor {:?} \
                     returned fp {:x}, expected {:x}",
                    key, e.instance, e.pc, logical, fp, expected
                ));
            }
        }
        Ok(())
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
    pub fn check_hm_write_order(&self) -> Result<(), String> {
        // Events sorted by observation time (stable on recording order):
        // a logged read is recorded after its log append completes but
        // carries the store-observation instant in `at`.
        let mut events = self.events();
        events.sort_by_key(|e| e.at);
        // Track per-key state along real time: the applied version and fp.
        let mut state: FxHashMap<Key, (VersionTuple, u64)> = FxHashMap::default();
        for e in &events {
            match &e.kind {
                EventKind::CondWrite {
                    key,
                    fp,
                    version,
                    applied,
                } if *applied => {
                    let cur = state.get(key).map_or(VersionTuple::MIN, |(v, _)| *v);
                    if *version <= cur && cur != VersionTuple::MIN {
                        return Err(format!(
                            "applied write to {:?} with non-increasing version \
                                 {version:?} after {cur:?}",
                            key
                        ));
                    }
                    state.insert(key.clone(), (*version, *fp));
                }
                // Failed conditional writes are reordered before the
                // currently-stored value: no visible effect now.
                EventKind::Read { key, fp, fresh, .. } => {
                    if !fresh {
                        continue; // replayed/adopted read: validated by stability
                    }
                    let expected = state
                        .get(key)
                        .map_or_else(|| self.base_fp(key), |(_, fp)| *fp);
                    if expected != *fp {
                        return Err(format!(
                            "effective-order violation: read of {:?} by {:?} pc {} \
                             returned fp {:x}, store held {:x}",
                            key, e.instance, e.pc, fp, expected
                        ));
                    }
                }
                _ => {}
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
    /// Returns a description of the first duplicated effect.
    pub fn check_raw_write_uniqueness(&self) -> Result<(), String> {
        let mut seen: FxHashMap<(InstanceId, u32), u32> = FxHashMap::default();
        for e in self.events.borrow().iter() {
            if let EventKind::RawWrite { key, .. } = &e.kind {
                let count = seen.entry((e.instance, e.pc)).or_insert(0);
                *count += 1;
                if *count > 1 {
                    return Err(format!(
                        "raw write at {:?} pc {} of {:?} took effect {} times",
                        e.instance, e.pc, key, count
                    ));
                }
            }
        }
        Ok(())
    }

    /// Read-your-writes within one instance: after an instance commits a
    /// versioned write to `key` at program counter `p`, every later read
    /// of `key` by the same instance (pc > p) must carry a logical
    /// timestamp at or past that commit — the instance cannot travel back
    /// before its own write.
    ///
    /// # Errors
    /// Returns a description of the first read behind its own write.
    pub fn check_read_your_writes(&self) -> Result<(), String> {
        // Last committed write per (instance, key): (pc, commit seqnum).
        let mut writes: FxHashMap<(InstanceId, Key), (u32, SeqNum)> = FxHashMap::default();
        for e in self.events.borrow().iter() {
            match &e.kind {
                EventKind::VersionedWrite { key, commit, .. } => {
                    let entry = writes
                        .entry((e.instance, key.clone()))
                        .or_insert((e.pc, *commit));
                    if e.pc >= entry.0 {
                        *entry = (e.pc, *commit);
                    }
                }
                EventKind::Read { key, logical, .. } => {
                    if let Some((wpc, commit)) = writes.get(&(e.instance, key.clone())) {
                        if e.pc > *wpc && logical < commit {
                            return Err(format!(
                                "read-your-writes violation: {:?} pc {} read {:?} at \
                                 logical {:?}, behind its own commit {:?} from pc {}",
                                e.instance, e.pc, key, logical, commit, wpc
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
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
    pub fn check_monotonic_reads(&self) -> Result<(), String> {
        // First-observed logical per (instance, key) and pc, walked in
        // that order.
        let mut per_pair: BTreeMap<(InstanceId, Key), BTreeMap<u32, SeqNum>> = BTreeMap::new();
        for e in self.events.borrow().iter() {
            if let EventKind::Read { key, logical, .. } = &e.kind {
                per_pair
                    .entry((e.instance, key.clone()))
                    .or_default()
                    .entry(e.pc)
                    .or_insert(*logical);
            }
        }
        for ((inst, key), by_pc) in per_pair {
            let mut last: Option<(u32, SeqNum)> = None;
            for (pc, logical) in by_pc {
                if let Some((ppc, plogical)) = last {
                    if logical < plogical {
                        return Err(format!(
                            "monotonic-reads violation: {inst:?} read {key:?} at \
                             pc {ppc} logical {plogical:?}, then pc {pc} logical {logical:?}"
                        ));
                    }
                }
                last = Some((pc, logical));
            }
        }
        Ok(())
    }

    /// Runs every protocol-independent invariant check.
    ///
    /// # Errors
    /// Returns the first violation found.
    pub fn check_all_generic(&self) -> Result<(), String> {
        self.check_read_stability()?;
        self.check_invoke_stability()?;
        self.check_write_determinism()?;
        self.check_raw_write_uniqueness()?;
        self.check_monotonic_reads()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Recorder({} events)", self.len())
    }
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
