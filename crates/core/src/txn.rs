//! Optimistic transactions over Halfmoon-read (§4 "Transactions").
//!
//! The paper treats SSFs as non-transactional by default and notes that
//! Halfmoon "can reuse existing transactional APIs" for multi-step
//! atomicity. This module provides such an API, built in the style the
//! shared-log literature suggests (Tango/vCorfu): the log itself is the
//! commit arbiter.
//!
//! # Protocol
//!
//! 1. **Begin** captures the SSF's cursor as the transaction's *snapshot*
//!    timestamp.
//! 2. **Reads** resolve log-free at the snapshot (plus read-your-writes
//!    from the local write buffer) and are recorded in the read set.
//! 3. **Writes** are buffered locally; no external effect yet.
//! 4. **Commit** pre-installs the buffered values as object versions
//!    (invisible — versions are only reachable through log records), then
//!    appends one `TxnCommit` record carrying the snapshot, the read set,
//!    and the `(key, version)` write set, tagged into the step log and
//!    every written object's write log.
//! 5. **Validity** is a deterministic function of the log prefix: a
//!    transaction commits iff no *effective* write to any key in its read
//!    or write set landed in `(snapshot, commit_seqnum)`. Effective means
//!    a plain/dual write commit, or another `TxnCommit` that is itself
//!    valid — first committer wins. Every party evaluating a record
//!    reaches the same verdict, so validity is memoized in the client (the
//!    shared log's auxiliary-data pattern).
//!
//! Readers (plain Halfmoon-read reads, snapshots, dual reads) treat a
//! valid `TxnCommit` in an object's write log as that object's write at
//! the commit seqnum, and skip invalid ones. Crash-retries and peer
//! instances are handled by the same conditional-append replay machinery
//! as every other logged step: at most one `TxnCommit` record can exist
//! per program position, and re-evaluating its validity is deterministic.
//!
//! Transactions require the objects involved to be governed by
//! Halfmoon-read (multi-versioning is what makes buffered writes
//! publishable-at-a-point); other protocols return a configuration error.

use std::collections::BTreeMap;

use hm_common::observe::OpCtx;
use hm_common::{HmError, HmResult, Key, SeqNum, Value, VersionNum};

use crate::client::Client;
use crate::env::Env;
use crate::history::EventKind;
use crate::protocol::ProtocolKind;
use crate::record::{OpRecord, StepRecord};

/// An in-flight optimistic transaction. Created by [`Env::txn_begin`].
#[derive(Debug)]
pub struct Transaction {
    snapshot: SeqNum,
    read_set: Vec<Key>,
    writes: BTreeMap<Key, Value>,
}

/// Outcome of [`Env::txn_commit`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnOutcome {
    /// The transaction committed; its writes are visible at the commit
    /// seqnum.
    Committed(SeqNum),
    /// A conflicting write landed inside the snapshot window; no effect.
    /// The caller may retry with a fresh transaction.
    Aborted(SeqNum),
}

impl TxnOutcome {
    /// True if the transaction committed.
    #[must_use]
    pub fn committed(&self) -> bool {
        matches!(self, TxnOutcome::Committed(_))
    }
}

impl Env {
    /// Starts an optimistic transaction at the current cursor (§4).
    ///
    /// # Errors
    /// Transactions are only supported on uniformly Halfmoon-read
    /// deployments without switching.
    pub fn txn_begin(&mut self) -> HmResult<Transaction> {
        let supported = self.client().with_config(|c| {
            c.default == ProtocolKind::HalfmoonRead
                && c.per_key.values().all(|k| *k == ProtocolKind::HalfmoonRead)
                && !c.switching_enabled
        });
        if !supported {
            return Err(HmError::config(
                "transactions require a uniform Halfmoon-read deployment",
            ));
        }
        self.bump_pc();
        Ok(Transaction {
            snapshot: self.cursor,
            read_set: Vec::new(),
            writes: BTreeMap::new(),
        })
    }

    /// Transactional read: read-your-writes from the buffer, otherwise a
    /// log-free Halfmoon-read at the transaction's snapshot.
    ///
    /// # Errors
    /// Propagates injected crashes and substrate errors.
    pub async fn txn_read(&mut self, txn: &mut Transaction, key: &Key) -> HmResult<Value> {
        self.bump_pc();
        self.maybe_crash()?;
        if let Some(buffered) = txn.writes.get(key) {
            return Ok(buffered.clone());
        }
        if !txn.read_set.contains(key) {
            txn.read_set.push(key.clone());
        }
        self.op_begin("txn_read", || format!("{key:?}"));
        let value =
            read_effective_at(self.client(), &self.octx, self.node, key, txn.snapshot).await;
        self.op_end();
        let value = value?;
        self.record_event(|| EventKind::Read {
            key: key.clone(),
            fp: value.fingerprint(),
            logical: txn.snapshot,
            fresh: true,
        });
        Ok(value)
    }

    /// Transactional write: buffered until commit.
    pub fn txn_write(&mut self, txn: &mut Transaction, key: &Key, value: Value) {
        self.bump_pc();
        txn.writes.insert(key.clone(), value);
    }

    /// Attempts to commit: pre-installs versions, appends the `TxnCommit`
    /// record, and evaluates first-committer-wins validation at its log
    /// position. Idempotent across crash retries and peer races via the
    /// usual conditional-append replay.
    ///
    /// # Errors
    /// Propagates injected crashes and substrate errors; a *conflict* is
    /// not an error — it returns [`TxnOutcome::Aborted`].
    pub async fn txn_commit(&mut self, txn: Transaction) -> HmResult<TxnOutcome> {
        self.bump_pc();
        self.maybe_crash()?;
        self.op_begin("txn_commit", || format!("{} writes", txn.writes.len()));
        let out = self.txn_commit_inner(txn).await;
        self.op_end();
        out
    }

    async fn txn_commit_inner(&mut self, txn: Transaction) -> HmResult<TxnOutcome> {
        // Deterministic version per (instance, step, key).
        let step = self.step;
        let versions: Vec<(Key, VersionNum)> = txn
            .writes
            .keys()
            .map(|key| {
                let mut bytes = Vec::with_capacity(20 + key.size_bytes());
                bytes.extend_from_slice(&self.id.0.to_le_bytes());
                bytes.extend_from_slice(&step.0.to_le_bytes());
                bytes.extend_from_slice(key.as_str().as_bytes());
                (key.clone(), VersionNum(hm_common::ids::fnv1a(&bytes)))
            })
            .collect();
        // One commit record, tagged into every written object's write log.
        // If it already exists its outcome is re-derived below, as for a
        // fresh one.
        let commit = self
            .step(
                "TxnCommit",
                versions.iter().map(|(k, _)| k.object_log_tag()),
                // The sets are refcounted slices: cloning the record is a
                // pointer bump.
                |op| matches!(op, OpRecord::TxnCommit { .. }).then(|| op.clone()),
                async |env: &mut Env| {
                    // Pre-install versions (idempotent: deterministic
                    // version numbers).
                    for (key, version) in &versions {
                        env.maybe_crash()?;
                        let value = txn
                            .writes
                            .get(key)
                            .expect("version for buffered key")
                            .clone();
                        env.store().put_version(key, *version, value).await;
                    }
                    env.maybe_crash()?;
                    Ok(OpRecord::TxnCommit {
                        snapshot: txn.snapshot,
                        read_set: txn.read_set.iter().cloned().collect(),
                        writes: versions.iter().cloned().collect(),
                    })
                },
            )
            .await?;
        let valid = validity(self.client(), &commit.value, commit.seqnum);
        if !commit.replayed {
            for (key, _) in &versions {
                self.client().note_written_key(key);
            }
        }
        self.record_txn_events(&txn, &versions, commit.seqnum, valid);
        Ok(if valid {
            TxnOutcome::Committed(commit.seqnum)
        } else {
            TxnOutcome::Aborted(commit.seqnum)
        })
    }

    fn record_txn_events(
        &mut self,
        txn: &Transaction,
        versions: &[(Key, VersionNum)],
        commit: SeqNum,
        valid: bool,
    ) {
        if !valid {
            return;
        }
        for (key, _) in versions {
            self.bump_pc();
            let fp = txn.writes.get(key).map_or(0, Value::fingerprint);
            self.record_event(|| EventKind::VersionedWrite {
                key: key.clone(),
                fp,
                commit,
            });
        }
    }
}

/// Reads the effective value of `key` at logical time `bound`: the version
/// [`effective_prev`] finds, or the immutable base value. Every round-trip
/// is made as `octx`, the caller's context.
pub(crate) async fn read_effective_at(
    client: &Client,
    octx: &OpCtx,
    node: hm_common::NodeId,
    key: &Key,
    bound: SeqNum,
) -> HmResult<Value> {
    match effective_prev(client, octx, node, key, bound).await {
        Some((_, version)) => client
            .store_as(octx)
            .get_version(key, version)
            .await
            .ok_or_else(|| HmError::MissingVersion { key: key.clone() }),
        None => Ok(client.store_as(octx).get(key).await.unwrap_or(Value::Null)),
    }
}

/// The newest *effective* write-log record for `key` at or before `bound`,
/// as `(seqnum, version)`. An aborted transaction commit is invisible: the
/// seek goes past it.
pub(crate) async fn effective_prev(
    client: &Client,
    octx: &OpCtx,
    node: hm_common::NodeId,
    key: &Key,
    mut bound: SeqNum,
) -> Option<(SeqNum, VersionNum)> {
    loop {
        let rec = client
            .log_as(octx)
            .read_prev(node, key.object_log_tag(), bound)
            .await?;
        if let Some(version) = effective_version(client, &rec.payload, rec.seqnum, key) {
            return Some((rec.seqnum, version));
        }
        bound = SeqNum(rec.seqnum.0.checked_sub(1)?);
    }
}

/// The version `record` exposes for `key`, or `None` if the record is not
/// an effective write of that key (e.g. an aborted transaction).
pub(crate) fn effective_version(
    client: &Client,
    record: &StepRecord,
    seqnum: SeqNum,
    key: &Key,
) -> Option<VersionNum> {
    match &record.op {
        OpRecord::WriteCommit { version, .. } | OpRecord::DualWriteCommit { version, .. } => {
            Some(*version)
        }
        OpRecord::TxnCommit { .. } => {
            if validity(client, &record.op, seqnum) {
                record.version_for(key)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Deterministic first-committer-wins validation of a `TxnCommit` record
/// at its log position, memoized in the client.
///
/// A transaction is valid iff no effective write to any key in its read or
/// write set exists in the open window `(snapshot, commit_seqnum)`.
/// Evaluating candidate conflicts recurses into earlier `TxnCommit`
/// records only, so the recursion terminates.
pub(crate) fn validity(client: &Client, op: &OpRecord, commit: SeqNum) -> bool {
    if let Some(v) = client.txn_validity(commit) {
        return v;
    }
    let OpRecord::TxnCommit {
        snapshot,
        read_set,
        writes,
    } = op
    else {
        return false;
    };
    let mut valid = true;
    'keys: for key in read_set.iter().chain(writes.iter().map(|(k, _)| k)) {
        // Scan the object's write log inside (snapshot, commit).
        for sn in client.log().peek_stream(key.object_log_tag()) {
            if sn <= *snapshot || sn >= commit {
                continue;
            }
            let Some(conflict) = client.log().peek_record(sn) else {
                continue;
            };
            if effective_version(client, &conflict.payload, sn, key).is_some() {
                valid = false;
                break 'keys;
            }
        }
    }
    client.set_txn_validity(commit, valid);
    valid
}

#[cfg(test)]
mod tests {
    use hm_common::{InstanceId, StepNum};

    use super::*;

    #[test]
    fn txn_outcome_helpers() {
        assert!(TxnOutcome::Committed(SeqNum(3)).committed());
        assert!(!TxnOutcome::Aborted(SeqNum(3)).committed());
    }

    #[test]
    fn version_for_finds_per_key_versions() {
        let rec = StepRecord {
            instance: InstanceId(1),
            step: StepNum(2),
            op: OpRecord::TxnCommit {
                snapshot: SeqNum(1),
                read_set: vec![Key::new("a")].into(),
                writes: vec![
                    (Key::new("x"), VersionNum(7)),
                    (Key::new("y"), VersionNum(9)),
                ]
                .into(),
            },
        };
        assert_eq!(rec.version_for(&Key::new("x")), Some(VersionNum(7)));
        assert_eq!(rec.version_for(&Key::new("y")), Some(VersionNum(9)));
        assert_eq!(rec.version_for(&Key::new("z")), None);
        assert!(rec.is_object_write());
        assert_eq!(rec.object_version(), None, "txn commits are per-key");
    }
}
