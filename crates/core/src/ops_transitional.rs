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

use hm_common::{HmError, HmResult, Key, Value, VersionTuple};

use crate::env::Env;
use crate::faults::Site;
use crate::history::EventKind;
use crate::record::OpRecord;

impl Env {
    /// Dual read (§5.2): choose the fresher of the single-version and
    /// multi-version representations, then log the result.
    pub(crate) async fn dual_read(&mut self, key: &Key) -> HmResult<Value> {
        // A logged record is authoritative; only without one are the two
        // representations compared.
        let read = self
            .step(
                "DualRead",
                [],
                |op| match op {
                    OpRecord::DualRead { data } => Some(data.clone()),
                    _ => None,
                },
                async |env: &mut Env| {
                    // Halfmoon-write side: the LATEST row and its version
                    // tuple.
                    let latest = env.store().get_with_version(key).await;
                    // Halfmoon-read side: the freshest committed record at
                    // our cursor in the object's write log.
                    let wrec = env
                        .client()
                        .log_as(&env.octx)
                        .read_prev(env.node, key.object_log_tag(), env.cursor)
                        .await
                        .and_then(|r| Some((r.seqnum, r.payload.object_version()?)));
                    let observed = match (latest, wrec) {
                        // Freshness comparison (§5.2): LATEST's version-tuple
                        // cursor vs. the write-log record's seqnum — both are
                        // positions in the same event stream.
                        (Some((value, vt)), Some((sn, _))) if sn <= vt.cursor => value,
                        (_, Some((_, version))) => env
                            .store()
                            .get_version(key, version)
                            .await
                            .ok_or_else(|| HmError::MissingVersion { key: key.clone() })?,
                        (Some((value, _)), None) => value,
                        (None, None) => Value::Null,
                    };
                    env.maybe_crash(Site::AfterEffect)?;
                    Ok(OpRecord::DualRead { data: observed })
                },
            )
            .await?;
        self.record_event(|| EventKind::Read {
            key: key.clone(),
            fp: read.value.fingerprint(),
            logical: read.seqnum,
            fresh: false,
        });
        Ok(read.value)
    }

    /// Dual write (§5.2): intent log → install version → conditional LATEST
    /// update → dual commit record (step log + object write log).
    pub(crate) async fn dual_write(&mut self, key: &Key, value: Value) -> HmResult<()> {
        // Phase 1 — version intent, exactly as in Halfmoon-read.
        let version = self.write_intent().await?;
        // The Halfmoon-write identity of this write. The intent record
        // reset consecutiveW, so the tuple is (cursor-after-intent, 1) —
        // deterministic across retries because the intent is logged.
        self.consecutive_w += 1;
        let version_tuple = VersionTuple::new(self.cursor, self.consecutive_w);
        // Phase 2 — skipped if already committed.
        let commit = self
            .step(
                "DualWriteCommit",
                [key.object_log_tag()],
                |op| match op {
                    OpRecord::DualWriteCommit { version, .. } => Some(*version),
                    _ => None,
                },
                async |env: &mut Env| {
                    env.maybe_crash(Site::BeforeEffect)?;
                    // Multi-version side first (same ordering as
                    // Halfmoon-read: the version must exist before its
                    // write-log record is visible).
                    env.store().put_version(key, version, value.clone()).await;
                    env.maybe_crash(Site::BetweenEffects)?;
                    // Single-version side: conditional update, idempotent
                    // by tuple.
                    env.store()
                        .put_conditional(key, value.clone(), version_tuple)
                        .await;
                    env.maybe_crash(Site::AfterEffect)?;
                    Ok(OpRecord::DualWriteCommit {
                        key: key.clone(),
                        version,
                        version_tuple,
                    })
                },
            )
            .await?;
        debug_assert_eq!(commit.value, version);
        if !commit.replayed {
            self.client().note_written_key(key);
        }
        self.record_event(|| EventKind::VersionedWrite {
            key: key.clone(),
            fp: value.fingerprint(),
            commit: commit.seqnum,
        });
        Ok(())
    }
}
