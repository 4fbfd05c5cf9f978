//! The transitional protocol used while switching (§5.2).
//!
//! During a switch, old-protocol and new-protocol SSFs overlap in time, so
//! a transitional SSF must make its effects visible to both worlds and read
//! the freshest of both:
//!
//! - a **dual write** updates the single-version LATEST row (visible to
//!   Halfmoon-write/Boki readers) *and* installs a separate version plus a
//!   write-log record (visible to Halfmoon-read readers);
//! - a **dual read** fetches both representations, compares freshness —
//!   the LATEST row's version tuple cursor against the write-log record's
//!   seqnum — and logs the chosen value (idempotence comes from the log
//!   record, so the live comparison is safe).
//!
//! This is deliberately the most conservative mode: everything is logged,
//! satisfying Theorem 4.6 no matter which protocols overlap.

use hm_common::{HmResult, Key, Value, VersionNum, VersionTuple};
use rand::RngExt;

use crate::env::Env;
use crate::history::EventKind;
use crate::record::OpRecord;

impl Env {
    /// Dual read (§5.2): choose the fresher of the single-version and
    /// multi-version representations, then log the result.
    pub(crate) async fn dual_read(&mut self, key: &Key) -> HmResult<Value> {
        self.maybe_crash()?;
        // Replay first: the logged record is authoritative.
        if let Some(rec) = self.peek_prior() {
            let payload = rec.payload.clone();
            return match payload.op {
                OpRecord::DualRead { data } => {
                    let rec = self.replay_next().expect("peeked record vanished");
                    self.record_event(|| EventKind::Read {
                        key: key.clone(),
                        fp: data.fingerprint(),
                        logical: rec.seqnum,
                        fresh: false,
                    });
                    Ok(data)
                }
                _ => Err(self.replay_mismatch("DualRead", &payload)),
            };
        }
        // Halfmoon-write side: the LATEST row and its version tuple.
        let latest = self.store().get_with_version(key).await;
        // Halfmoon-read side: the freshest *effective* committed record at
        // our cursor (skipping aborted transaction commits).
        let wrec = self.effective_prev(key, self.cursor).await;
        let observed = match (&latest, &wrec) {
            (Some((value, vt)), Some((sn, version))) => {
                // Freshness comparison (§5.2): LATEST's version-tuple
                // cursor vs. the write-log record's seqnum — both are
                // positions in the same event stream.
                if *sn > vt.cursor {
                    self.fetch_version(key, Some(*version)).await?
                } else {
                    value.clone()
                }
            }
            (Some((value, _)), None) => value.clone(),
            (None, Some((_, version))) => self.fetch_version(key, Some(*version)).await?,
            (None, None) => Value::Null,
        };
        self.maybe_crash()?;
        let rec = self
            .log_step(&[], OpRecord::DualRead { data: observed })
            .await?;
        let OpRecord::DualRead { data } = rec.payload.op.clone() else {
            return Err(self.replay_mismatch("DualRead", &rec.payload));
        };
        self.record_event(|| EventKind::Read {
            key: key.clone(),
            fp: data.fingerprint(),
            logical: rec.seqnum,
            fresh: false,
        });
        Ok(data)
    }

    /// The newest effective write-log record for `key` at or before
    /// `bound`, as `(seqnum, version)`.
    async fn effective_prev(
        &self,
        key: &Key,
        bound: hm_common::SeqNum,
    ) -> Option<(hm_common::SeqNum, VersionNum)> {
        let mut bound = bound;
        loop {
            let rec = self
                .log()
                .read_prev(self.node, key.object_log_tag(), bound)
                .await?;
            if let Some(v) =
                crate::txn::effective_version(self.client(), &rec.payload, rec.seqnum, key)
            {
                return Some((rec.seqnum, v));
            }
            bound = hm_common::SeqNum(rec.seqnum.0.checked_sub(1)?);
        }
    }

    async fn fetch_version(&self, key: &Key, version: Option<VersionNum>) -> HmResult<Value> {
        let version = version
            .ok_or_else(|| hm_common::HmError::config("write-log record without version"))?;
        self.store()
            .get_version(key, version)
            .await
            .ok_or_else(|| hm_common::HmError::MissingVersion { key: key.clone() })
    }

    /// Dual write (§5.2): intent log → install version → conditional LATEST
    /// update → dual commit record (step log + object write log).
    pub(crate) async fn dual_write(&mut self, key: &Key, value: Value) -> HmResult<()> {
        self.maybe_crash()?;
        // Phase 1 — version intent, exactly as in Halfmoon-read.
        let version = if let Some(rec) = self.peek_prior() {
            let payload = rec.payload.clone();
            match payload.op {
                OpRecord::WriteIntent { version } => {
                    self.replay_next();
                    version
                }
                _ => return Err(self.replay_mismatch("WriteIntent", &payload)),
            }
        } else {
            let fresh = VersionNum(self.client().ctx().with_rng(|rng| rng.random::<u64>()));
            let rec = self
                .log_step(&[], OpRecord::WriteIntent { version: fresh })
                .await?;
            match rec.payload.op {
                OpRecord::WriteIntent { version } => version,
                _ => return Err(self.replay_mismatch("WriteIntent", &rec.payload)),
            }
        };
        // The Halfmoon-write identity of this write. The intent record
        // reset consecutiveW, so the tuple is (cursor-after-intent, 1) —
        // deterministic across retries because the intent is logged.
        self.consecutive_w += 1;
        let version_tuple = VersionTuple::new(self.cursor, self.consecutive_w);
        // Phase 2 — committed already?
        if let Some(rec) = self.peek_prior() {
            let payload = rec.payload.clone();
            return match payload.op {
                OpRecord::DualWriteCommit { version: v, .. } => {
                    let rec = self.replay_next().expect("peeked record vanished");
                    debug_assert_eq!(v, version);
                    self.record_event(|| EventKind::VersionedWrite {
                        key: key.clone(),
                        fp: value.fingerprint(),
                        commit: rec.seqnum,
                    });
                    Ok(())
                }
                _ => Err(self.replay_mismatch("DualWriteCommit", &payload)),
            };
        }
        self.maybe_crash()?;
        // Multi-version side first (same ordering as Halfmoon-read: the
        // version must exist before its write-log record is visible).
        self.store().put_version(key, version, value.clone()).await;
        self.maybe_crash()?;
        // Single-version side: conditional update, idempotent by tuple.
        let applied = self
            .store()
            .put_conditional(key, value.clone(), version_tuple)
            .await;
        self.maybe_crash()?;
        let rec = self
            .log_step(
                &[key.object_log_tag()],
                OpRecord::DualWriteCommit {
                    key: key.clone(),
                    version,
                    version_tuple,
                },
            )
            .await?;
        self.client().note_written_key(key);
        self.record_event(|| EventKind::VersionedWrite {
            key: key.clone(),
            fp: value.fingerprint(),
            commit: rec.seqnum,
        });
        let _ = applied;
        Ok(())
    }
}
