//! Log record payloads.
//!
//! Every record the protocols append to the shared log is a [`StepRecord`]:
//! a step number (its position in the SSF's program, used for replay) plus
//! an [`OpRecord`] describing what happened. The shared log itself never
//! inspects these — it only charges their [`Payload::size_bytes`] to the
//! storage accounting, which is how the §6.3 storage asymmetry arises:
//! write-log records are metadata-sized while read-log records carry the
//! whole read value.

use hm_common::{InstanceId, Key, SeqNum, StepNum, Value, VersionNum, VersionTuple};
use hm_sharedlog::Payload;

use crate::protocol::ProtocolKind;

/// The operation a log record describes.
#[derive(Clone, Debug)]
pub enum OpRecord {
    /// SSF start (Figure 5 lines 7–10). Carries the invocation input so a
    /// re-execution recovers it, and the function name for diagnostics.
    Init {
        /// The invocation input.
        input: Value,
    },
    /// Pre-`DBWrite` record fixing the randomly generated version number
    /// (§4.1: log-and-check turns a random choice into a deterministic one).
    WriteIntent {
        /// The chosen multi-version number.
        version: VersionNum,
    },
    /// Post-`DBWrite` commit record (§4.1). Tagged with both the SSF's step
    /// log and the object's write log; its seqnum is the write's logical
    /// timestamp and its presence is the write's commit point.
    WriteCommit {
        /// The object written.
        key: Key,
        /// The multi-version number the value was stored under.
        version: VersionNum,
    },
    /// A logged read (Halfmoon-write Figure 7 lines 14–17, and Boki reads):
    /// carries the value the read observed.
    Read {
        /// The observed value.
        data: Value,
    },
    /// Boki's pre-write record fixing the conditional-update version.
    BokiWriteIntent {
        /// The version tuple for the conditional update.
        version: VersionTuple,
    },
    /// Boki's post-write commit record (progress checkpoint only).
    BokiWriteCommit,
    /// Transitional-protocol write commit (§5.2): the write is visible both
    /// as a separate version (multi-version world) and as the LATEST value
    /// (single-version world), so the record carries both identities.
    DualWriteCommit {
        /// The object written.
        key: Key,
        /// Multi-version number (Halfmoon-read side).
        version: VersionNum,
        /// Conditional-update version tuple (Halfmoon-write side).
        version_tuple: VersionTuple,
    },
    /// Transitional-protocol read (§5.2): logged, with the chosen (fresher)
    /// value.
    DualRead {
        /// The observed value.
        data: Value,
    },
    /// Result of a completed child invocation (Figure 5 lines 41–44).
    Invoke {
        /// The deterministic callee instance id.
        callee: InstanceId,
        /// The child's returned value.
        result: Value,
    },
    /// Order record: appended between consecutive log-free writes to
    /// different objects under `preserve_write_order` (§4.4's extension),
    /// so the second write's cursor follows the first.
    Order,
    /// SSF completion marker, scanned by the GC for condition (b) (§4.5).
    /// Carries the init record's seqnum so the GC can pair init/finish
    /// without a join, and the SSF's result so a retry racing a completed
    /// peer adopts the same return value.
    Finish {
        /// Seqnum of this SSF's init record.
        init_seqnum: SeqNum,
        /// The SSF's return value.
        result: Value,
    },
    /// Protocol switch started (§4.7): SSFs initialized at or after this
    /// record run the *transitional* protocol.
    TransitionBegin {
        /// Protocol in force before the switch.
        from: ProtocolKind,
        /// Protocol being switched to.
        to: ProtocolKind,
    },
    /// Old-protocol SSFs have drained (§4.7): SSFs initialized at or after
    /// this record run the target protocol, except that log-free reads stay
    /// logged until [`OpRecord::TransitionSettled`] because transitional
    /// writers may still be mutating the single-version LATEST rows.
    TransitionEnd {
        /// The now-active protocol.
        to: ProtocolKind,
    },
    /// Transitional SSFs have drained too: the switch is fully complete and
    /// SSFs initialized from here on run the plain target protocol.
    TransitionSettled {
        /// The active protocol.
        to: ProtocolKind,
    },
}

/// A full log record payload: program position plus operation.
#[derive(Clone, Debug)]
pub struct StepRecord {
    /// The SSF this record belongs to.
    pub instance: InstanceId,
    /// The 0-based *logged-operation* index within the SSF (init is 0).
    pub step: StepNum,
    /// What happened.
    pub op: OpRecord,
}

impl StepRecord {
    /// The multi-version number of an object write-log record
    /// (Halfmoon-read's commit or the transitional dual commit), the only
    /// records tagged into an object's write log; `None` for every other
    /// record.
    #[must_use]
    pub fn object_version(&self) -> Option<VersionNum> {
        match self.op {
            OpRecord::WriteCommit { version, .. } | OpRecord::DualWriteCommit { version, .. } => {
                Some(version)
            }
            _ => None,
        }
    }
}

impl Payload for StepRecord {
    fn size_bytes(&self) -> usize {
        // Charged on top of the log's per-record metadata constant. Sizes
        // mirror what a compact binary encoding would occupy; the decisive
        // property for §6.3 is that records carrying a Value charge its full
        // size while version-only records are a few bytes.
        match &self.op {
            OpRecord::Init { input } => input.size_bytes(),
            OpRecord::WriteIntent { .. } => 8,
            OpRecord::WriteCommit { key, .. } => key.size_bytes() + 8,
            OpRecord::Read { data } => data.size_bytes(),
            OpRecord::BokiWriteIntent { .. } => 12,
            OpRecord::BokiWriteCommit => 0,
            OpRecord::DualWriteCommit { key, .. } => key.size_bytes() + 20,
            OpRecord::DualRead { data } => data.size_bytes(),
            OpRecord::Invoke { result, .. } => 16 + result.size_bytes(),
            OpRecord::Order => 0,
            OpRecord::Finish { result, .. } => 8 + result.size_bytes(),
            OpRecord::TransitionBegin { .. } => 2,
            OpRecord::TransitionEnd { .. } => 1,
            OpRecord::TransitionSettled { .. } => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(op: OpRecord) -> StepRecord {
        StepRecord {
            instance: InstanceId(1),
            step: StepNum(0),
            op,
        }
    }

    #[test]
    fn write_records_are_metadata_sized_and_reads_carry_data() {
        let w = rec(OpRecord::WriteCommit {
            key: Key::new("k"),
            version: VersionNum(1),
        });
        let r = rec(OpRecord::Read {
            data: Value::blob(256, 0),
        });
        assert!(w.size_bytes() < 16);
        assert_eq!(r.size_bytes(), 256);
    }

    #[test]
    fn object_write_classification() {
        let w = rec(OpRecord::WriteCommit {
            key: Key::new("k"),
            version: VersionNum(7),
        });
        assert_eq!(w.object_version(), Some(VersionNum(7)));
        let r = rec(OpRecord::Read { data: Value::Null });
        assert_eq!(r.object_version(), None);
        let d = rec(OpRecord::DualWriteCommit {
            key: Key::new("k"),
            version: VersionNum(9),
            version_tuple: VersionTuple::MIN,
        });
        assert_eq!(d.object_version(), Some(VersionNum(9)));
    }
}
