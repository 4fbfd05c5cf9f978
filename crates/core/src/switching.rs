//! Pauseless protocol switching (§4.7, §5.2).
//!
//! The runtime drives a switch through three transition-log records:
//!
//! 1. **BEGIN(from → to)** — SSFs initialized from here on run the
//!    *transitional* protocol (dual, fully logged). SSFs are never blocked.
//! 2. **END(to)** — appended once every SSF initialized *before* BEGIN has
//!    finished (scanned from the init/finish logs, which are persistent, so
//!    the procedure is fault-tolerant). SSFs initialized from here run the
//!    target protocol, in *draining* mode: log-free reads stay logged while
//!    transitional writers may still be live.
//! 3. **SETTLED(to)** — appended once every SSF initialized before END has
//!    finished; from here the plain target protocol runs.
//!
//! The paper's reported "switching delay" (Figure 14) is BEGIN → END: at
//! END the old protocol is gone and the target protocol's logging profile
//! is in force. SETTLED only retires the conservative read logging.
//!
//! When the target is Halfmoon-write, END is preceded by a reconciliation
//! pass that copies each object's freshest committed version into its
//! single-version LATEST row (§5.2's requirement that the new world see the
//! old world's writes).

use hm_common::{HmResult, InstanceId, NodeId, SeqNum, StepNum, VersionTuple};
use hm_substrate::Time;

use crate::client::{finish_log_tag, init_log_tag, transition_log_tag, Client};
use crate::protocol::ProtocolKind;
use crate::record::{OpRecord, StepRecord};

/// Timing report of one completed switch.
#[derive(Clone, Copy, Debug)]
pub struct SwitchReport {
    /// Seqnum of the BEGIN record.
    pub begin_seqnum: SeqNum,
    /// Seqnum of the END record.
    pub end_seqnum: SeqNum,
    /// Seqnum of the SETTLED record.
    pub settled_seqnum: SeqNum,
    /// Virtual time the BEGIN record was appended.
    pub begin_at: Time,
    /// Virtual time the END record was appended — the paper's switching
    /// delay is `end_at - begin_at`.
    pub end_at: Time,
    /// Virtual time the SETTLED record was appended.
    pub settled_at: Time,
}

impl SwitchReport {
    /// The switching delay as the paper reports it (BEGIN → END).
    #[must_use]
    pub fn switching_delay(&self) -> Time {
        self.end_at - self.begin_at
    }
}

/// Drives protocol switches for a deployment.
pub struct Switcher {
    client: Client,
    node: NodeId,
    /// How often the drain loop re-scans the init/finish logs.
    poll_interval: Time,
}

/// Synthetic instance id under which transition records are appended.
const COORDINATOR: InstanceId = InstanceId(u128::MAX);

impl Switcher {
    /// Creates a switcher that appends transition records via `node`.
    #[must_use]
    pub fn new(client: Client, node: NodeId) -> Switcher {
        Switcher {
            client,
            node,
            poll_interval: Time::from_millis(10),
        }
    }

    /// Overrides the drain-scan poll interval.
    pub fn set_poll_interval(&mut self, interval: Time) {
        self.poll_interval = interval;
    }

    /// The protocol currently in force according to the transition log,
    /// falling back to the static default.
    pub async fn current_protocol(&self) -> HmResult<ProtocolKind> {
        let rec = self
            .client
            .log()
            .read_prev(self.node, transition_log_tag(), SeqNum::MAX)
            .await;
        Ok(match rec.as_ref().map(|r| &r.payload.op) {
            None => self.client.with_config(|c| c.default),
            Some(OpRecord::TransitionBegin { to, .. })
            | Some(OpRecord::TransitionEnd { to })
            | Some(OpRecord::TransitionSettled { to }) => *to,
            Some(other) => {
                return Err(hm_common::HmError::config(format!(
                    "unexpected transition-log record: {other:?}"
                )))
            }
        })
    }

    /// Runs a full switch to `to`, returning its timing report.
    ///
    /// Pauseless: SSFs keep executing throughout; only the coordinator
    /// waits. Idempotent switches (already on `to`) return immediately
    /// with a zero-delay report.
    ///
    /// # Errors
    /// Rejects switches involving the unsafe baseline (it has no logs to
    /// coordinate with) and propagates substrate errors.
    pub async fn switch_to(&self, to: ProtocolKind) -> HmResult<SwitchReport> {
        if to == ProtocolKind::Unsafe {
            return Err(hm_common::HmError::config(
                "cannot switch to the unsafe baseline",
            ));
        }
        let from = self.current_protocol().await?;
        if from == ProtocolKind::Unsafe {
            return Err(hm_common::HmError::config(
                "cannot switch from the unsafe baseline",
            ));
        }
        let begin_at = self.client.ctx().now();
        if from == to {
            let head = self.client.log().head_seqnum();
            return Ok(SwitchReport {
                begin_seqnum: head,
                end_seqnum: head,
                settled_seqnum: head,
                begin_at,
                end_at: begin_at,
                settled_at: begin_at,
            });
        }
        // Phase 1: BEGIN.
        let begin_seqnum = self
            .append_transition(OpRecord::TransitionBegin { from, to })
            .await;
        let begin_at = self.client.ctx().now();
        // Phase 2: drain SSFs initialized before BEGIN, then END.
        self.drain_inits_below(begin_seqnum).await;
        let end_seqnum = self.append_transition(OpRecord::TransitionEnd { to }).await;
        let end_at = self.client.ctx().now();
        // Phase 3: reconcile (if needed), drain SSFs initialized before
        // END, then SETTLED. Reconciliation happens *after* END: readers in
        // the END→SETTLED draining window use dual reads, so they see
        // multi-version state even before LATEST rows are caught up, and
        // the paper's switching delay (BEGIN→END) stays proportional to
        // SSF lifetimes rather than to the keyspace size.
        if to == ProtocolKind::HalfmoonWrite {
            self.reconcile_latest_rows().await?;
        }
        self.drain_inits_below(end_seqnum).await;
        let settled_seqnum = self
            .append_transition(OpRecord::TransitionSettled { to })
            .await;
        let settled_at = self.client.ctx().now();
        Ok(SwitchReport {
            begin_seqnum,
            end_seqnum,
            settled_seqnum,
            begin_at,
            end_at,
            settled_at,
        })
    }

    async fn append_transition(&self, op: OpRecord) -> SeqNum {
        let rec = StepRecord {
            instance: COORDINATOR,
            step: StepNum(0),
            op,
        };
        self.client
            .log()
            .append(self.node, vec![transition_log_tag()], rec)
            .await
    }

    /// Waits until every SSF whose init record precedes `boundary` has a
    /// finish record. One paid log read per poll models the scan; the
    /// record sets come from the persistent init/finish streams.
    async fn drain_inits_below(&self, boundary: SeqNum) {
        loop {
            // Pay one scan round-trip against the logging layer.
            let fins = self
                .client
                .log()
                .read_stream(self.node, finish_log_tag())
                .await;
            let finished: hm_common::FxHashSet<SeqNum> = fins
                .iter()
                .filter_map(|r| match r.payload.op {
                    OpRecord::Finish { init_seqnum, .. } => Some(init_seqnum),
                    _ => None,
                })
                .collect();
            let pending = self
                .client
                .log()
                .peek_stream(init_log_tag())
                .into_iter()
                .filter(|sn| *sn < boundary && !finished.contains(sn))
                .count();
            if pending == 0 {
                return;
            }
            self.client.ctx().sleep(self.poll_interval).await;
        }
    }

    /// §5.2 reconciliation when switching to Halfmoon-write: for every
    /// object whose freshest committed version is newer than its LATEST
    /// row, copy that version into LATEST so single-version readers see it
    /// once the switch settles. Runs with bounded parallelism — it is a
    /// bulk maintenance scan, not a critical-path operation.
    async fn reconcile_latest_rows(&self) -> HmResult<()> {
        const PARALLELISM: usize = 32;
        let sem = hm_substrate::sync::Semaphore::new(PARALLELISM);
        let mut handles = Vec::new();
        for key in self.client.written_keys() {
            let client = self.client.clone();
            let node = self.node;
            let sem = sem.clone();
            handles.push(self.client.ctx().spawn(async move {
                let _slot = sem.acquire().await;
                let Some(wrec) = client
                    .log()
                    .read_prev(node, key.object_log_tag(), SeqNum::MAX)
                    .await
                else {
                    return;
                };
                let latest_cursor = client
                    .store()
                    .peek_version_tuple(&key)
                    .unwrap_or(VersionTuple::MIN)
                    .cursor;
                if wrec.seqnum <= latest_cursor {
                    return;
                }
                let Some(version) = wrec.payload.object_version() else {
                    return;
                };
                let Some(value) = client.store().get_version(&key, version).await else {
                    // Already garbage collected — then a newer LATEST exists.
                    return;
                };
                let tuple = VersionTuple::new(wrec.seqnum, 0);
                client.store().put_conditional(&key, value, tuple).await;
            }));
        }
        for handle in handles {
            handle.await;
        }
        Ok(())
    }
}

impl std::fmt::Debug for Switcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Switcher(node={:?})", self.node)
    }
}
