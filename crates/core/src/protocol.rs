//! Protocol identities, the §4 logging matrix and static configuration.

use hm_common::metrics::OpCounters;
use hm_common::observe::Phase;
use hm_common::Key;

/// The fault-tolerance protocol governing accesses to an object.
///
/// The two Halfmoon protocols are the paper's contribution (§4.1, §4.2);
/// `Boki` is the reconstructed state-of-the-art symmetric baseline the paper
/// evaluates against, and `Unsafe` is the no-logging lower bound (§6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProtocolKind {
    /// Halfmoon-read: log-free reads, writes logged twice (§4.1).
    HalfmoonRead,
    /// Halfmoon-write: log-free conditional writes, reads logged (§4.2).
    HalfmoonWrite,
    /// Symmetric baseline: reads logged once, writes logged twice (Boki).
    Boki,
    /// Raw operations without logging. Not exactly-once; the lower bound.
    Unsafe,
}

impl ProtocolKind {
    /// Short display name used in benchmark tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::HalfmoonRead => "Halfmoon-read",
            ProtocolKind::HalfmoonWrite => "Halfmoon-write",
            ProtocolKind::Boki => "Boki",
            ProtocolKind::Unsafe => "Unsafe",
        }
    }

    /// Compact discriminant used inside transition-log payloads.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            ProtocolKind::HalfmoonRead => 0,
            ProtocolKind::HalfmoonWrite => 1,
            ProtocolKind::Boki => 2,
            ProtocolKind::Unsafe => 3,
        }
    }

    /// Inverse of [`ProtocolKind::code`].
    #[must_use]
    pub fn from_code(code: u8) -> Option<ProtocolKind> {
        match code {
            0 => Some(ProtocolKind::HalfmoonRead),
            1 => Some(ProtocolKind::HalfmoonWrite),
            2 => Some(ProtocolKind::Boki),
            3 => Some(ProtocolKind::Unsafe),
            _ => None,
        }
    }

    /// The §4 logging matrix: what `op` costs under this protocol, in
    /// [`OpCounters`]' units. Of `config`, only the two §4 variants
    /// `deterministic_versions` and `preserve_write_order` change a row;
    /// `ProtocolConfig::uniform`'s defaults are the paper's prototype. Log
    /// appends per op:
    ///
    /// | protocol | init | read | write | order | invoke | finish |
    /// |----------|------|------|-------|-------|--------|--------|
    /// | Halfmoon-read (§4.1) | 1 | 0 | 2; 1 with `deterministic_versions` | 0 | 1 | 1 |
    /// | Halfmoon-write (§4.2) | 1 | 1 | 0 | 0; 1 with `preserve_write_order` | 1 | 1 |
    /// | Boki (§6.1) | 1 | 1 | 2 | 0 | 1 | 1 |
    /// | Unsafe (§6) | 0 | 0 | 0 | 0 | 0 | 0 |
    ///
    /// Init also fetches the step log (one log read). A Halfmoon-read read
    /// is one `logReadPrev` and one versioned fetch; every other read is
    /// one store read. A write is one store write: a multi-version put
    /// under Halfmoon-read, a raw put under Unsafe, a conditional update
    /// otherwise. The order row is the record a log-free write appends
    /// when it follows one to another key (§4.4's extension). An invoke's
    /// record is the child's result (Figure 5 lines 41–44); the child's
    /// own ops are rows of the child.
    ///
    /// `log_appends` counts the steps an op logs, whether it appends them,
    /// replays them or adopts a peer's (§5.1), and `Env` debug-asserts it
    /// after every op that returns `Ok`. The other fields hold on a
    /// failure-free path: a lost conditional append adds a log read. The
    /// modes of a switch (§5.2) and the init and finish of a deployment
    /// running more than one protocol are outside the table, and the assert
    /// skips them.
    #[must_use]
    #[rustfmt::skip] // one row per line
    pub const fn logging_row(self, op: MatrixOp, config: &ProtocolConfig) -> OpCounters {
        use MatrixOp::{Finish, Init, Invoke, Order, Read, Write};
        use ProtocolKind::{Boki, HalfmoonRead, HalfmoonWrite, Unsafe};
        const ZERO: OpCounters = OpCounters::ZERO;
        let (single, ordered) = (config.deterministic_versions, config.preserve_write_order);
        match (self, op) {
            (Unsafe, Init | Order | Invoke | Finish) | (HalfmoonRead | Boki, Order) => ZERO,
            (_, Init) => OpCounters { log_appends: 1, log_reads: 1, ..ZERO },
            (_, Invoke | Finish) => OpCounters { log_appends: 1, ..ZERO },
            (HalfmoonRead, Read) => OpCounters { log_reads: 1, db_reads: 1, ..ZERO },
            (HalfmoonWrite | Boki, Read) => OpCounters { log_appends: 1, db_reads: 1, ..ZERO },
            (Unsafe, Read) => OpCounters { db_reads: 1, ..ZERO },
            (HalfmoonRead, Write) => OpCounters { log_appends: 2 - single as u64, db_writes: 1, ..ZERO },
            (HalfmoonWrite, Write) => OpCounters { db_cond_writes: 1, ..ZERO },
            (Boki, Write) => OpCounters { log_appends: 2, db_cond_writes: 1, ..ZERO },
            (Unsafe, Write) => OpCounters { db_writes: 1, ..ZERO },
            (HalfmoonWrite, Order) => OpCounters { log_appends: ordered as u64, ..ZERO },
        }
    }
}

/// An op of the logging matrix ([`ProtocolKind::logging_row`]). Every
/// variant but `Order` is one `Env` op and names its span, its anatomy
/// phase and, for `Read`, `Write` and `Invoke`, its latency histogram.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatrixOp {
    /// `Env::init`'s init record (Figure 5 lines 7–10).
    Init,
    /// `Env::read`.
    Read,
    /// `Env::write`, without the order record.
    Write,
    /// The order record between log-free writes to different keys: a
    /// sub-step of `Write`, with no span or histogram of its own.
    Order,
    /// `Env::invoke`'s record of the child's result (Figure 5 lines 31–44).
    Invoke,
    /// `Env::finish`'s finish record.
    Finish,
}

impl MatrixOp {
    /// The op's span name (`order`, a part of a write, opens none).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            MatrixOp::Init => "init",
            MatrixOp::Read => "read",
            MatrixOp::Write => "write",
            MatrixOp::Order => "order",
            MatrixOp::Invoke => "invoke",
            MatrixOp::Finish => "finish",
        }
    }

    /// The anatomy phase charged while the op runs: `ProtoRead` for a
    /// read, `ProtoWrite` for a write, and `ProtoTxn` (the reports'
    /// `proto_txn` column) for init, invoke and finish. Substrate phases
    /// (log and store round trips) nest inside and take precedence, so
    /// these are the protocol *residuals*.
    #[must_use]
    pub const fn phase(self) -> Phase {
        match self {
            MatrixOp::Read => Phase::ProtoRead,
            MatrixOp::Write | MatrixOp::Order => Phase::ProtoWrite,
            MatrixOp::Init | MatrixOp::Invoke | MatrixOp::Finish => Phase::ProtoTxn,
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Static protocol configuration for a deployment.
///
/// Protocols apply *per object* (§4.6: "it is possible to use independent
/// protocols per object"); `default` covers keys without an explicit entry.
/// When `switching_enabled` is set, the per-object transition log (§4.7) is
/// consulted on first access and overrides this static table.
#[derive(Clone, Debug)]
pub struct ProtocolConfig {
    /// Protocol for keys not listed in `per_key`.
    pub default: ProtocolKind,
    /// Static per-object overrides.
    pub per_key: hm_common::FxHashMap<Key, ProtocolKind>,
    /// Consult the transition log on first access to each object. Off by
    /// default: the static experiments (§6.1–6.3) run a fixed protocol and
    /// must not pay transition lookups.
    pub switching_enabled: bool,
    /// Extension from the technical report (§4.4): preserve program order
    /// among consecutive log-free writes to different objects by appending
    /// an ordering record between them. Off by default (the paper's default
    /// semantics allow such writes to commute).
    pub preserve_write_order: bool,
    /// §7's recovery optimization: opportunistically checkpoint the
    /// results of log-free operations on the function node, fully
    /// asynchronously (no log appends, no synchronization). A re-execution
    /// that lands on a node holding the checkpoint serves the log-free
    /// read from it instead of recomputing — safe because log-free reads
    /// are deterministic, so the checkpoint can only ever equal what the
    /// recomputation would produce.
    pub opportunistic_checkpoints: bool,
    /// §4.1's alternative write path for Halfmoon-read: derive the version
    /// number deterministically from `(instanceID, step)` instead of
    /// logging a random one, saving the intent record (one log append per
    /// write). Off by default — the paper's prototype logs twice to align
    /// its write cost with Boki's, and this repo follows it so the headline
    /// numbers match; the `ablations` bench quantifies the saving.
    pub deterministic_versions: bool,
}

impl ProtocolConfig {
    /// Uniform configuration: every object uses `kind`, no switching.
    #[must_use]
    pub fn uniform(kind: ProtocolKind) -> ProtocolConfig {
        ProtocolConfig {
            default: kind,
            per_key: hm_common::FxHashMap::default(),
            switching_enabled: false,
            preserve_write_order: false,
            opportunistic_checkpoints: false,
            deterministic_versions: false,
        }
    }

    /// The statically-configured protocol for `key` (ignores switching).
    #[must_use]
    pub fn static_protocol(&self, key: &Key) -> ProtocolKind {
        self.per_key.get(key).copied().unwrap_or(self.default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip() {
        for kind in [
            ProtocolKind::HalfmoonRead,
            ProtocolKind::HalfmoonWrite,
            ProtocolKind::Boki,
            ProtocolKind::Unsafe,
        ] {
            assert_eq!(ProtocolKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(ProtocolKind::from_code(99), None);
    }

    #[test]
    fn per_key_overrides_default() {
        let mut cfg = ProtocolConfig::uniform(ProtocolKind::HalfmoonRead);
        cfg.per_key
            .insert(Key::new("hot"), ProtocolKind::HalfmoonWrite);
        assert_eq!(
            cfg.static_protocol(&Key::new("hot")),
            ProtocolKind::HalfmoonWrite
        );
        assert_eq!(
            cfg.static_protocol(&Key::new("cold")),
            ProtocolKind::HalfmoonRead
        );
    }
}
