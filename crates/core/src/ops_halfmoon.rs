//! The two Halfmoon protocols (§4.1, §4.2).
//!
//! These follow the paper's Figures 5 and 7 closely; comments map lines of
//! pseudocode to code. Both reuse the shared replay machinery in
//! [`crate::env::Env`], which implements the step-log skip logic and the
//! §5.1 peer-conflict resolution via conditional appends.

use hm_common::{HmResult, Key, Value, VersionNum, VersionTuple};
use rand::RngExt;

use crate::env::Env;
use crate::history::EventKind;
use crate::record::OpRecord;

impl Env {
    // ==================================================================
    // Halfmoon-read (Figure 5): log-free reads, writes logged twice.
    // ==================================================================

    /// Figure 5 `Read` (lines 27–29): seek backward from the cursor in the
    /// object's write log, then fetch the version it points to. Entirely
    /// log-free — the only cost above a raw read is one `logReadPrev`.
    pub(crate) async fn hmread_read(&mut self, key: &Key) -> HmResult<Value> {
        self.maybe_crash()?;
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
        // Newest effective write at or before the cursor; the seek skips
        // aborted transaction commits (crate::txn). Committed versions are
        // always present in the store: Halfmoon-read logs *after* DBWrite
        // precisely so that exposed versions are available (§4.1), and the
        // GC only removes versions no live cursor can reach (§4.5). With
        // no effective write, the immutable base state is returned.
        let value =
            crate::txn::read_effective_at(self.client(), &self.octx, self.node, key, cursor)
                .await?;
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
        self.maybe_crash()?;
        if self.client().with_config(|c| c.deterministic_versions) {
            // §4.1's first variant: the version number is a pure function
            // of (instanceID, step), so no intent record is needed — one
            // log append per write instead of two. See the `ablations`
            // bench for the measured saving.
            return self.hmread_write_deterministic(key, value).await;
        }
        // Phase 1 — version intent (replay: lines 16–18).
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
                // On a peer conflict this is the *winner's* version.
                OpRecord::WriteIntent { version } => version,
                _ => return Err(self.replay_mismatch("WriteIntent", &rec.payload)),
            }
        };
        // Phase 2 — if the commit record exists, the write fully completed
        // in a previous attempt (or a peer finished it): skip.
        if let Some(rec) = self.peek_prior() {
            let payload = rec.payload.clone();
            return match payload.op {
                OpRecord::WriteCommit { version: v, .. } => {
                    let rec = self.replay_next().expect("peeked record vanished");
                    debug_assert_eq!(v, version);
                    self.record_event(|| EventKind::VersionedWrite {
                        key: key.clone(),
                        fp: value.fingerprint(),
                        commit: rec.seqnum,
                    });
                    Ok(())
                }
                _ => Err(self.replay_mismatch("WriteCommit", &payload)),
            };
        }
        self.maybe_crash()?;
        // DBWrite (line 21): multi-version put under the fixed version
        // number. Idempotent — a crash retry rewrites identical content.
        self.store().put_version(key, version, value.clone()).await;
        self.maybe_crash()?;
        // Commit (line 22): tagged with the step log *and* the object's
        // write log; its seqnum is the write's logical timestamp.
        let rec = self
            .log_step(
                &[key.object_log_tag()],
                OpRecord::WriteCommit {
                    key: key.clone(),
                    version,
                },
            )
            .await?;
        self.client().note_written_key(key);
        self.record_event(|| EventKind::VersionedWrite {
            key: key.clone(),
            fp: value.fingerprint(),
            commit: rec.seqnum,
        });
        Ok(())
    }

    /// Consistent multi-key snapshot read (§4.1 Remark): table-level
    /// queries under Halfmoon-read first resolve every object's version
    /// via `logReadPrev` at one cursor timestamp — "this list captures a
    /// snapshot of the table at a given timestamp" — then fetch the
    /// versions. All lookups run concurrently and the whole operation is
    /// log-free, because each per-object resolution is exactly a log-free
    /// read at the same deterministic cursor.
    pub(crate) async fn hmread_read_snapshot(&mut self, keys: &[Key]) -> HmResult<Vec<Value>> {
        self.maybe_crash()?;
        let cursor = self.cursor;
        let mut handles = Vec::with_capacity(keys.len());
        for key in keys {
            let client = self.client().clone();
            let octx = self.octx.clone();
            let node = self.node;
            let key = key.clone();
            handles.push(self.client().ctx().spawn(async move {
                crate::txn::read_effective_at(&client, &octx, node, &key, cursor).await
            }));
        }
        let mut out = Vec::with_capacity(keys.len());
        for (key, handle) in keys.iter().zip(handles) {
            let value = handle.await?;
            // Each constituent read is its own program-counter slot so the
            // idempotence checkers treat it like a plain read.
            self.bump_pc();
            self.record_event(|| EventKind::Read {
                key: key.clone(),
                fp: value.fingerprint(),
                logical: cursor,
                fresh: true,
            });
            out.push(value);
        }
        Ok(out)
    }

    /// Single-log Halfmoon-read write: the version number is derived from
    /// `(instanceID, step)` ("simply concatenating the unique and
    /// deterministic InstanceID and the current step number", §4.1), so
    /// only the commit record is appended.
    async fn hmread_write_deterministic(&mut self, key: &Key, value: Value) -> HmResult<()> {
        let version = VersionNum(hm_common::ids::fnv1a(&{
            let mut bytes = [0u8; 20];
            bytes[..16].copy_from_slice(&self.id.0.to_le_bytes());
            bytes[16..].copy_from_slice(&self.step.0.to_le_bytes());
            bytes
        }));
        // Committed already?
        if let Some(rec) = self.peek_prior() {
            let payload = rec.payload.clone();
            return match payload.op {
                OpRecord::WriteCommit { version: v, .. } => {
                    let rec = self.replay_next().expect("peeked record vanished");
                    debug_assert_eq!(v, version);
                    self.record_event(|| EventKind::VersionedWrite {
                        key: key.clone(),
                        fp: value.fingerprint(),
                        commit: rec.seqnum,
                    });
                    Ok(())
                }
                _ => Err(self.replay_mismatch("WriteCommit", &payload)),
            };
        }
        self.maybe_crash()?;
        self.store().put_version(key, version, value.clone()).await;
        self.maybe_crash()?;
        let rec = self
            .log_step(
                &[key.object_log_tag()],
                OpRecord::WriteCommit {
                    key: key.clone(),
                    version,
                },
            )
            .await?;
        self.client().note_written_key(key);
        self.record_event(|| EventKind::VersionedWrite {
            key: key.clone(),
            fp: value.fingerprint(),
            commit: rec.seqnum,
        });
        Ok(())
    }

    // ==================================================================
    // Halfmoon-write (Figure 7): logged reads, log-free writes.
    // ==================================================================

    /// Figure 7 `Read` (lines 7–18): recover from the step log if possible,
    /// otherwise read the latest state and log the observed value.
    pub(crate) async fn hmwrite_read(&mut self, key: &Key) -> HmResult<Value> {
        self.maybe_crash()?;
        // Lines 10–12: replay.
        if let Some(rec) = self.peek_prior() {
            let payload = rec.payload.clone();
            return match payload.op {
                OpRecord::Read { data } => {
                    let rec = self.replay_next().expect("peeked record vanished");
                    self.record_event(|| EventKind::Read {
                        key: key.clone(),
                        fp: data.fingerprint(),
                        logical: rec.seqnum,
                        fresh: false,
                    });
                    Ok(data)
                }
                _ => Err(self.replay_mismatch("Read", &payload)),
            };
        }
        // Line 13: read the latest state.
        let observed = self.store().get(key).await.unwrap_or(Value::Null);
        let observed_at = self.client().ctx().now();
        let observed_fp = observed.fingerprint();
        self.maybe_crash()?;
        // Lines 14–17: log the result; a losing peer adopts the winner's
        // observed value so all instances continue with identical state.
        let rec = self
            .log_step(&[], OpRecord::Read { data: observed })
            .await?;
        let OpRecord::Read { data } = rec.payload.op.clone() else {
            return Err(self.replay_mismatch("Read", &rec.payload));
        };
        // If our append won, this read's observation (at `observed_at`) is
        // the authoritative one; if a peer won, its value was adopted and
        // its own event already covers the real-time ordering.
        let fp = data.fingerprint();
        if fp == observed_fp {
            self.record_event_at(
                || EventKind::Read {
                    key: key.clone(),
                    fp,
                    logical: rec.seqnum,
                    fresh: true,
                },
                observed_at,
            );
        } else {
            self.record_event(|| EventKind::Read {
                key: key.clone(),
                fp,
                logical: rec.seqnum,
                fresh: false,
            });
        }
        Ok(data)
    }

    /// Figure 7 `Write` (lines 1–5): a purely log-free conditional update
    /// versioned by `(cursorTS, consecutiveW)`.
    pub(crate) async fn hmwrite_write(&mut self, key: &Key, value: Value) -> HmResult<()> {
        self.maybe_crash()?;
        // Ordered-write extension (technical report; see DESIGN.md):
        // a consecutive log-free write to a *different* object would be
        // allowed to commute with the previous one under Proposition 4.8.
        // When order preservation is requested, append an ordering record
        // between the two so every dependent pair stays ordered.
        let preserve = self.client().with_config(|c| c.preserve_write_order);
        if preserve && self.consecutive_w > 0 && self.last_write_key() != Some(key) {
            if let Some(rec) = self.peek_prior() {
                let payload = rec.payload.clone();
                match payload.op {
                    OpRecord::Sync => {
                        self.replay_next();
                    }
                    _ => return Err(self.replay_mismatch("Sync (write ordering)", &payload)),
                }
            } else {
                self.log_step(&[], OpRecord::Sync).await?;
            }
        }
        // Lines 2–3: the deterministic version tuple.
        self.consecutive_w += 1;
        let version = VersionTuple::new(self.cursor, self.consecutive_w);
        self.maybe_crash()?;
        // Lines 4–5: conditional update, applied only if the stored
        // version is smaller. On a crash retry the tuple is identical, so
        // the update is applied at most once; if a fresher write landed in
        // between, this write is effectively ordered before it (§4.2).
        let applied = self
            .store()
            .put_conditional(key, value.clone(), version)
            .await;
        self.set_last_write_key(key);
        self.record_event(|| EventKind::CondWrite {
            key: key.clone(),
            fp: value.fingerprint(),
            version,
            applied,
        });
        Ok(())
    }
}
