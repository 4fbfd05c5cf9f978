//! The two Halfmoon protocols (§4.1, §4.2).
//!
//! These follow the paper's Figures 5 and 7 closely; comments map lines of
//! pseudocode to code. Every logged step goes through `Env::step`, which
//! implements the step-log skip logic and the §5.1 peer-conflict resolution
//! via conditional appends; what an op writes itself is the effect that
//! runs when there is nothing to replay, and the tail that follows.

use hm_common::{HmError, HmResult, Key, Value, VersionNum, VersionTuple};
use rand::RngExt;

use crate::env::Env;
use crate::faults::Site;
use crate::history::EventKind;
use crate::record::OpRecord;

impl Env {
    // ==================================================================
    // Halfmoon-read (Figure 5): log-free reads, writes logged twice.
    // ==================================================================

    /// Figure 5 `Read` (lines 27–29): seek backward from the cursor in the
    /// object's write log, then fetch the version it points to. Entirely
    /// log-free — the only cost above a raw read is one `logReadPrev`.
    ///
    /// The newest write-log record at or before the cursor names the
    /// version (lines 28–29). Committed versions are always in the store:
    /// Halfmoon-read logs *after* `DBWrite` precisely so that exposed
    /// versions are available (§4.1), and the GC only removes versions no
    /// live cursor can reach (§4.5). With no record, the immutable base
    /// state is returned.
    pub(crate) async fn hmread_read(&mut self, key: &Key) -> HmResult<Value> {
        let cursor = self.cursor;
        // §7 opportunistic checkpointing: a re-execution on a node that
        // cached this (deterministic) log-free read serves it locally.
        let checkpointing = self.client().with_config(|c| c.opportunistic_checkpoints);
        if checkpointing {
            if let Some(value) = self.client().checkpoint(self.node, self.id, self.pc()) {
                self.record_event(|| EventKind::Read {
                    key: key.clone(),
                    fp: value.fingerprint(),
                    logical: cursor,
                    fresh: true,
                });
                return Ok(value);
            }
        }
        let record = self
            .log()
            .read_prev(self.node, key.object_log_tag(), cursor)
            .await;
        let value = match record.and_then(|r| r.payload.object_version()) {
            Some(version) => self
                .store()
                .get_version(key, version)
                .await
                .ok_or_else(|| HmError::MissingVersion { key: key.clone() })?,
            None => self.store().get(key).await.unwrap_or(Value::Null),
        };
        if checkpointing {
            self.client()
                .set_checkpoint(self.node, self.id, self.pc(), value.clone());
        }
        self.record_event(|| EventKind::Read {
            key: key.clone(),
            fp: value.fingerprint(),
            logical: cursor,
            fresh: true,
        });
        Ok(value)
    }

    /// Figure 5 `Write` (lines 13–25), with the prototype's double logging
    /// (§4.1): an intent record fixes the randomly drawn version number
    /// before `DBWrite`, and a commit record after `DBWrite` both
    /// checkpoints progress and publishes the version in the object's
    /// write log.
    pub(crate) async fn hmread_write(&mut self, key: &Key, value: Value) -> HmResult<()> {
        let version = if self.client().with_config(|c| c.deterministic_versions) {
            // §4.1's first variant: the version number is a pure function
            // of (instanceID, step) ("simply concatenating the unique and
            // deterministic InstanceID and the current step number"), so no
            // intent record is needed — one log append per write instead of
            // two. See the `ablations` bench for the measured saving.
            let mut bytes = [0u8; 20];
            bytes[..16].copy_from_slice(&self.id.0.to_le_bytes());
            bytes[16..].copy_from_slice(&self.step.0.to_le_bytes());
            VersionNum(hm_common::ids::fnv1a(&bytes))
        } else {
            self.write_intent().await?
        };
        // If the commit record exists, the write fully completed in a
        // previous attempt (or a peer finished it): `fresh` is skipped.
        let commit = self
            .step(
                "WriteCommit",
                [key.object_log_tag()],
                |op| match op {
                    OpRecord::WriteCommit { version, .. } => Some(*version),
                    _ => None,
                },
                async |env: &mut Env| {
                    env.maybe_crash(Site::BeforeEffect)?;
                    // DBWrite (line 21): multi-version put under the fixed
                    // version number. Idempotent — a crash retry rewrites
                    // identical content.
                    env.store().put_version(key, version, value.clone()).await;
                    env.maybe_crash(Site::AfterEffect)?;
                    // Commit (line 22): tagged with the step log *and* the
                    // object's write log; its seqnum is the write's logical
                    // timestamp.
                    Ok(OpRecord::WriteCommit {
                        key: key.clone(),
                        version,
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

    /// The version intent of a double-logged write (Halfmoon-read's and
    /// the transitional dual write's): draws a random version number and
    /// logs it before `DBWrite`, so every retry and peer writes under the
    /// same one. On a peer conflict this is the *winner's* version.
    pub(crate) async fn write_intent(&mut self) -> HmResult<VersionNum> {
        let intent = self
            .step(
                "WriteIntent",
                [],
                |op| match op {
                    OpRecord::WriteIntent { version } => Some(*version),
                    _ => None,
                },
                async |env: &mut Env| {
                    let version = env.client().ctx().with_rng(|rng| rng.random::<u64>());
                    Ok(OpRecord::WriteIntent {
                        version: VersionNum(version),
                    })
                },
            )
            .await?;
        Ok(intent.value)
    }

    // ==================================================================
    // Halfmoon-write (Figure 7): logged reads, log-free writes.
    // ==================================================================

    /// Figure 7 `Read` (lines 7–18): recover from the step log if possible,
    /// otherwise read the latest state and log the observed value.
    pub(crate) async fn hmwrite_read(&mut self, key: &Key) -> HmResult<Value> {
        // What this attempt saw in the store, and when; stays `None` when
        // the step is replayed (lines 10–12).
        let mut observation = None;
        let read = self
            .step(
                "Read",
                [],
                |op| match op {
                    OpRecord::Read { data } => Some(data.clone()),
                    _ => None,
                },
                async |env: &mut Env| {
                    // Line 13: read the latest state.
                    let observed = env.store().get(key).await.unwrap_or(Value::Null);
                    observation = Some((observed.fingerprint(), env.client().ctx().now()));
                    env.maybe_crash(Site::AfterEffect)?;
                    // Lines 14–17: log the result; a losing peer adopts the
                    // winner's observed value so all instances continue
                    // with identical state.
                    Ok(OpRecord::Read { data: observed })
                },
            )
            .await?;
        let fp = read.value.fingerprint();
        match observation {
            // Our append won: this read's observation (at `observed_at`) is
            // the authoritative one.
            Some((observed_fp, observed_at)) if observed_fp == fp => self.record_event_at(
                || EventKind::Read {
                    key: key.clone(),
                    fp,
                    logical: read.seqnum,
                    fresh: true,
                },
                observed_at,
            ),
            // Replayed, or a peer won and its value was adopted: the event
            // of whoever observed it already covers the real-time ordering.
            _ => self.record_event(|| EventKind::Read {
                key: key.clone(),
                fp,
                logical: read.seqnum,
                fresh: false,
            }),
        }
        Ok(read.value)
    }

    /// Figure 7 `Write` (lines 1–5): a purely log-free conditional update
    /// versioned by `(cursorTS, consecutiveW)`.
    pub(crate) async fn hmwrite_write(&mut self, key: &Key, value: Value) -> HmResult<()> {
        // Ordered-write extension (technical report; see DESIGN.md):
        // a consecutive log-free write to a *different* object would be
        // allowed to commute with the previous one under Proposition 4.8.
        // When order preservation is requested, append an ordering record
        // between the two so every dependent pair stays ordered.
        let preserve = self.client().with_config(|c| c.preserve_write_order);
        if preserve && self.consecutive_w > 0 && self.last_write_key.as_ref() != Some(key) {
            self.step(
                "Order",
                [],
                |op| matches!(op, OpRecord::Order).then_some(()),
                async |_: &mut Env| Ok(OpRecord::Order),
            )
            .await?;
        }
        // Lines 2–3: the deterministic version tuple.
        self.consecutive_w += 1;
        let version = VersionTuple::new(self.cursor, self.consecutive_w);
        self.maybe_crash(Site::BeforeEffect)?;
        // Lines 4–5: conditional update, applied only if the stored
        // version is smaller. On a crash retry the tuple is identical, so
        // the update is applied at most once; if a fresher write landed in
        // between, this write is effectively ordered before it (§4.2).
        let applied = self
            .store()
            .put_conditional(key, value.clone(), version)
            .await;
        self.last_write_key = Some(key.clone());
        self.record_event(|| EventKind::CondWrite {
            key: key.clone(),
            fp: value.fingerprint(),
            version,
            applied,
        });
        Ok(())
    }
}
