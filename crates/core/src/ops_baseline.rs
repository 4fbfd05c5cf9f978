//! Baseline protocols: the reconstructed symmetric Boki protocol and the
//! unsafe no-logging lower bound (§6).
//!
//! Boki is not open to us as a dependency, so its fault-tolerance protocol
//! is reconstructed from the paper's description: *symmetric* logging —
//! every read logs its observed value, every write logs twice (an intent
//! that fixes the write's identity, and a commit checkpoint) and applies
//! via a conditional update (§6.1: "writes [of Boki] are also conditional
//! and require logging"). Halfmoon-read deliberately aligns its write path
//! with this so the measured gains come solely from read-side logging
//! (§4.1).

use hm_common::{HmResult, Key, Value, VersionTuple};

use crate::env::Env;
use crate::faults::Site;
use crate::history::EventKind;
use crate::record::OpRecord;

impl Env {
    /// Boki write: intent log → conditional update → commit log. (A Boki
    /// read is Halfmoon-write's logged read, `hmwrite_read`.)
    ///
    /// The write's version tuple is derived from the intent record's
    /// seqnum, which makes retries idempotent (same intent record ⇒ same
    /// tuple ⇒ the conditional update applies at most once) and orders
    /// writes by their logging order.
    pub(crate) async fn boki_write(&mut self, key: &Key, value: Value) -> HmResult<()> {
        let intent = self
            .step(
                "BokiWriteIntent",
                [],
                |op| matches!(op, OpRecord::BokiWriteIntent { .. }).then_some(()),
                async |_: &mut Env| {
                    Ok(OpRecord::BokiWriteIntent {
                        version: VersionTuple::MIN,
                    })
                },
            )
            .await?;
        let version = VersionTuple::new(intent.seqnum, 0);
        // Stays false when the commit is replayed: the earlier attempt
        // performed the update, and this one has no store effect.
        let mut applied = false;
        self.step(
            "BokiWriteCommit",
            [],
            |op| matches!(op, OpRecord::BokiWriteCommit).then_some(()),
            async |env: &mut Env| {
                env.maybe_crash(Site::BeforeEffect)?;
                applied = env
                    .store()
                    .put_conditional(key, value.clone(), version)
                    .await;
                env.maybe_crash(Site::AfterEffect)?;
                Ok(OpRecord::BokiWriteCommit)
            },
        )
        .await?;
        self.record_event(|| EventKind::CondWrite {
            key: key.clone(),
            fp: value.fingerprint(),
            version,
            applied,
        });
        Ok(())
    }

    /// Unsafe read: the raw operation, no logging, no idempotence.
    pub(crate) async fn unsafe_read(&mut self, key: &Key) -> HmResult<Value> {
        let value = self.store().get(key).await.unwrap_or(Value::Null);
        self.record_event(|| EventKind::Read {
            key: key.clone(),
            fp: value.fingerprint(),
            logical: self.cursor,
            fresh: true,
        });
        Ok(value)
    }

    /// Unsafe write: the raw operation. A crash retry re-applies it — the
    /// §1 duplicate-update anomaly, observable via
    /// [`crate::history::Recorder`] raw-write events.
    ///
    /// Note the window: the raw-write event is recorded only *after* the
    /// `AfterEffect` crash point, so a crash between `put` and
    /// `record_event` leaves the duplicate invisible to this attempt's
    /// history. The anomaly therefore needs a later crash point — a
    /// successor op's `OpEntry` — to surface, which is why the model checker's
    /// exhaustive sweep (DESIGN.md §13) finds it on the two-op `ww-1s`
    /// configuration but honestly reports the one-op `wr-1s` as passing.
    pub(crate) async fn unsafe_write(&mut self, key: &Key, value: Value) -> HmResult<()> {
        self.store().put(key, value.clone()).await;
        self.maybe_crash(Site::AfterEffect)?;
        self.record_event(|| EventKind::RawWrite {
            key: key.clone(),
            fp: value.fingerprint(),
        });
        Ok(())
    }
}
