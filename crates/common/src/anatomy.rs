//! Phase-attributed latency anatomy.
//!
//! End-to-end latency histograms say *how slow* the tail is; this module says
//! *where the time went*. Every in-flight request can carry a [`PhaseSheet`]
//! — a per-op stamp accumulator that partitions the op's wall-clock life into
//! a fixed taxonomy of [`Phase`]s (admission queueing, dispatch, execution,
//! batch wait, sequencing, replication quorum, storage I/O, replay, ...).
//!
//! The sheet is a *phase clock*, not a set of independent timers: at any
//! instant exactly one phase is charged (the top of a small phase stack), and
//! every transition first accrues the elapsed virtual time to the outgoing
//! phase. Because the per-phase accruals form a consecutive partition of the
//! op's lifetime, their sum equals the end-to-end latency **exactly** (integer
//! nanoseconds) for ops driven by a single logical attempt — this is what lets
//! the bench assert per-op reconciliation within 1 %.
//!
//! Determinism: the anatomy layer is pure bookkeeping on the simulator's
//! virtual clock. It draws no randomness, spawns no tasks, and never sleeps,
//! so enabling it cannot perturb the event interleaving — bench fingerprints
//! are bit-identical with anatomy on or off, and two seeded runs produce
//! byte-identical stamp rows ([`Anatomy::rows_jsonl`]).
//!
//! A sheet reaches the layers that stamp it inside the request's
//! [`crate::observe::OpCtx`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

use crate::metrics::Histogram;

/// One slice of the request pipeline. Phases partition an op's lifetime:
/// at any instant exactly one phase is being charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Gateway admission: waiting for a worker slot before scheduling.
    Admission = 0,
    /// Node selection plus the RPC hop to the chosen function node.
    Dispatch = 1,
    /// Function compute and in-memory protocol bookkeeping (attempt residual).
    Execution = 2,
    /// Protocol read-op residual (resolution logic around the storage trips).
    ProtoRead = 3,
    /// Protocol write-op residual.
    ProtoWrite = 4,
    /// Protocol init/sync/finish/invoke residual.
    ProtoTxn = 5,
    /// Append's network trip from the node to the sequencer.
    LogHop = 6,
    /// Parked in an open group-commit batch waiting for size/deadline.
    BatchWait = 7,
    /// Sequencer admission backlog plus ordering.
    Sequencer = 8,
    /// Replication-quorum storage write for an append.
    Quorum = 9,
    /// Shared-log read round trips (`read_prev` / `read_next` / streams).
    LogRead = 10,
    /// KV-store round trips.
    StoreIo = 11,
    /// §5 recovery replay: re-fetching the step log on a retried attempt.
    Replay = 12,
    /// Crash-detection delay between attempts after `NodeCrashed`.
    Recovery = 13,
}

/// Number of phases in the taxonomy (length of [`Phase::ALL`]).
pub const PHASE_COUNT: usize = 14;

impl Phase {
    /// Every phase, in display (and index) order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Admission,
        Phase::Dispatch,
        Phase::Execution,
        Phase::ProtoRead,
        Phase::ProtoWrite,
        Phase::ProtoTxn,
        Phase::LogHop,
        Phase::BatchWait,
        Phase::Sequencer,
        Phase::Quorum,
        Phase::LogRead,
        Phase::StoreIo,
        Phase::Replay,
        Phase::Recovery,
    ];

    /// Stable snake_case name used in JSONL stamps and the waterfall report.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::Dispatch => "dispatch",
            Phase::Execution => "execution",
            Phase::ProtoRead => "proto_read",
            Phase::ProtoWrite => "proto_write",
            Phase::ProtoTxn => "proto_txn",
            Phase::LogHop => "log_hop",
            Phase::BatchWait => "batch_wait",
            Phase::Sequencer => "sequencer",
            Phase::Quorum => "quorum",
            Phase::LogRead => "log_read",
            Phase::StoreIo => "store_io",
            Phase::Replay => "replay",
            Phase::Recovery => "recovery",
        }
    }

    /// Index into per-phase arrays (`0..PHASE_COUNT`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Opaque phases swallow nested stamps: while one is on top of the
    /// stack, `enter`/`exit` pairs from lower layers are counted but not
    /// pushed, so the whole interval is attributed to the opaque phase.
    /// Replay is opaque — the recovery story wants the *entire* step-log
    /// re-fetch charged to replay, not scattered over log-read sub-phases.
    fn is_opaque(self) -> bool {
        matches!(self, Phase::Replay)
    }
}

/// Final per-op accrual produced by [`PhaseSheet::finish`].
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// Nanoseconds accrued to each phase, indexed by [`Phase::index`].
    pub phase_ns: [u64; PHASE_COUNT],
    /// End-to-end nanoseconds from open to finish.
    pub total_ns: u64,
}

impl Stamp {
    /// Sum of all per-phase accruals. Equals `total_ns` exactly for ops
    /// driven by a single logical attempt chain.
    pub fn sum_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }
}

#[derive(Debug)]
struct SheetInner {
    acc: [u64; PHASE_COUNT],
    stack: Vec<Phase>,
    last_ns: u64,
    opened_ns: u64,
    open: bool,
    /// Depth of swallowed `enter`s while an opaque phase is on top.
    suppressed: u32,
}

/// Per-op phase clock. Cheap (`Rc`-shared, `RefCell`-guarded, single
/// threaded) and tolerant: every operation on a finished sheet is a no-op,
/// which makes stamps from superseded duplicate attempts harmless.
#[derive(Debug)]
pub struct PhaseSheet {
    inner: RefCell<SheetInner>,
}

fn ns(now: Duration) -> u64 {
    now.as_nanos() as u64
}

impl PhaseSheet {
    /// Open a sheet at `now`, charging time to `base` until the first
    /// transition.
    pub fn open(now: Duration, base: Phase) -> Rc<PhaseSheet> {
        let now_ns = ns(now);
        Rc::new(PhaseSheet {
            inner: RefCell::new(SheetInner {
                acc: [0; PHASE_COUNT],
                stack: vec![base],
                last_ns: now_ns,
                opened_ns: now_ns,
                open: true,
                suppressed: 0,
            }),
        })
    }

    fn accrue(inner: &mut SheetInner, now_ns: u64) {
        let dt = now_ns.saturating_sub(inner.last_ns);
        if let Some(&top) = inner.stack.last() {
            inner.acc[top.index()] += dt;
        }
        inner.last_ns = now_ns;
    }

    /// Push a nested phase: accrue the interval so far to the current phase,
    /// then start charging `phase`.
    pub fn enter(&self, now: Duration, phase: Phase) {
        let mut inner = self.inner.borrow_mut();
        if !inner.open {
            return;
        }
        Self::accrue(&mut inner, ns(now));
        if inner.suppressed > 0 || inner.stack.last().is_some_and(|p| p.is_opaque()) {
            inner.suppressed += 1;
        } else {
            inner.stack.push(phase);
        }
    }

    /// Pop the current nested phase, returning to the one below. The base
    /// phase is never popped; unbalanced exits are clamped there.
    pub fn exit(&self, now: Duration) {
        let mut inner = self.inner.borrow_mut();
        if !inner.open {
            return;
        }
        Self::accrue(&mut inner, ns(now));
        if inner.suppressed > 0 {
            inner.suppressed -= 1;
        } else if inner.stack.len() > 1 {
            inner.stack.pop();
        }
    }

    /// Retag the phase currently being charged without changing nesting
    /// depth. Used by the shared log to walk an append through
    /// `LogHop → BatchWait → Sequencer → Quorum` while the op sits in one
    /// logical `enter`/`exit` pair.
    pub fn switch(&self, now: Duration, phase: Phase) {
        let mut inner = self.inner.borrow_mut();
        if !inner.open || inner.suppressed > 0 {
            return;
        }
        Self::accrue(&mut inner, ns(now));
        if let Some(top) = inner.stack.last_mut() {
            *top = phase;
        }
    }

    /// Mark the start of a function attempt: if the sheet is at base depth
    /// (top-level invocation, not a child invoke), retag the base to
    /// [`Phase::Execution`] so the scheduling/recovery phase ends here.
    pub fn begin_attempt(&self, now: Duration) {
        let mut inner = self.inner.borrow_mut();
        if !inner.open {
            return;
        }
        Self::accrue(&mut inner, ns(now));
        if inner.stack.len() == 1 && inner.suppressed == 0 {
            inner.stack[0] = Phase::Execution;
        }
    }

    /// Collapse the stack back to a single base `phase`, discarding nesting.
    /// Called when an attempt dies (`NodeCrashed`): whatever phase the op
    /// crashed in keeps its accrual, and time now flows to `phase`
    /// (typically [`Phase::Recovery`]) until the next attempt begins.
    pub fn unwind(&self, now: Duration, phase: Phase) {
        let mut inner = self.inner.borrow_mut();
        if !inner.open {
            return;
        }
        Self::accrue(&mut inner, ns(now));
        inner.suppressed = 0;
        inner.stack.truncate(1);
        inner.stack[0] = phase;
    }

    /// Close the sheet at `now` and return the final accrual. Returns `None`
    /// if the sheet was already finished (e.g. by a racing duplicate).
    pub fn finish(&self, now: Duration) -> Option<Stamp> {
        let mut inner = self.inner.borrow_mut();
        if !inner.open {
            return None;
        }
        Self::accrue(&mut inner, ns(now));
        inner.open = false;
        Some(Stamp {
            phase_ns: inner.acc,
            total_ns: inner.last_ns - inner.opened_ns,
        })
    }

    /// Whether the sheet is still accruing.
    pub fn is_open(&self) -> bool {
        self.inner.borrow().open
    }
}

/// One completed op's stamp, retained in a bounded ring for the flight
/// recorder and the determinism suite.
#[derive(Debug, Clone)]
pub struct StampRow {
    /// Completion order (0-based, deterministic).
    pub seq: u64,
    /// Virtual completion instant.
    pub at: Duration,
    /// The op's final accrual.
    pub stamp: Stamp,
}

impl StampRow {
    /// Deterministic single-line JSON: phases in taxonomy order, zero
    /// phases omitted.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"seq\":{},\"at_ns\":{},\"total_ns\":{},\"phases\":{{",
            self.seq,
            self.at.as_nanos(),
            self.stamp.total_ns
        );
        let mut first = true;
        for p in Phase::ALL {
            let v = self.stamp.phase_ns[p.index()];
            if v == 0 {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("\"{}\":{}", p.name(), v));
        }
        s.push_str("}}");
        s
    }
}

/// Per-phase percentile summary produced by [`Anatomy::waterfall`].
#[derive(Debug, Clone, Copy)]
pub struct PhaseStat {
    /// Which phase this row summarizes (`None` = end-to-end).
    pub phase: Option<Phase>,
    /// Ops that accrued nonzero time in this phase.
    pub count: u64,
    /// p50 over those ops, nanoseconds.
    pub p50_ns: u64,
    /// p95 over those ops, nanoseconds.
    pub p95_ns: u64,
    /// p99 over those ops, nanoseconds.
    pub p99_ns: u64,
    /// Exact total nanoseconds accrued to the phase across all ops.
    pub total_ns: u128,
}

/// Recent stamp rows an [`Anatomy`] retains (oldest drop first).
const ROW_CAPACITY: usize = 4096;

struct AnatomyInner {
    phase_hist: Vec<Histogram>,
    e2e_hist: Histogram,
    phase_total_ns: [u128; PHASE_COUNT],
    e2e_total_ns: u128,
    ops: u64,
    max_rel_err: f64,
    rows: VecDeque<StampRow>,
    rows_dropped: u64,
    next_seq: u64,
}

/// Session-wide collector: per-phase HDR histograms, exact phase totals,
/// and a bounded ring of recent stamps.
pub struct Anatomy {
    inner: RefCell<AnatomyInner>,
}

impl Anatomy {
    /// New collector retaining the 4096 most recent stamp rows.
    pub fn new() -> Rc<Anatomy> {
        Rc::new(Anatomy {
            inner: RefCell::new(AnatomyInner {
                phase_hist: (0..PHASE_COUNT).map(|_| Histogram::new()).collect(),
                e2e_hist: Histogram::new(),
                phase_total_ns: [0; PHASE_COUNT],
                e2e_total_ns: 0,
                ops: 0,
                max_rel_err: 0.0,
                rows: VecDeque::new(),
                rows_dropped: 0,
                next_seq: 0,
            }),
        })
    }

    /// Open a fresh sheet charging [`Phase::Admission`] from `now`.
    pub fn open_sheet(&self, now: Duration) -> Rc<PhaseSheet> {
        PhaseSheet::open(now, Phase::Admission)
    }

    /// Finish `sheet` at `now` and fold its accruals into the collector.
    /// No-op if the sheet was already finished.
    pub fn complete(&self, now: Duration, sheet: &PhaseSheet) {
        let Some(stamp) = sheet.finish(now) else {
            return;
        };
        let mut inner = self.inner.borrow_mut();
        for p in Phase::ALL {
            let v = stamp.phase_ns[p.index()];
            if v > 0 {
                inner.phase_hist[p.index()].record_ns(v);
                inner.phase_total_ns[p.index()] += u128::from(v);
            }
        }
        inner.e2e_hist.record_ns(stamp.total_ns);
        inner.e2e_total_ns += u128::from(stamp.total_ns);
        inner.ops += 1;
        if stamp.total_ns > 0 {
            let err = (stamp.sum_ns() as f64 - stamp.total_ns as f64).abs() / stamp.total_ns as f64;
            if err > inner.max_rel_err {
                inner.max_rel_err = err;
            }
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.rows.len() == ROW_CAPACITY {
            inner.rows.pop_front();
            inner.rows_dropped += 1;
        }
        inner.rows.push_back(StampRow {
            seq,
            at: now,
            stamp,
        });
    }

    /// Close `sheet` without recording it (errored or unmeasured requests).
    pub fn abandon(&self, now: Duration, sheet: &PhaseSheet) {
        let _ = sheet.finish(now);
    }

    /// Number of completed ops folded in so far.
    pub fn ops(&self) -> u64 {
        self.inner.borrow().ops
    }

    /// Worst per-op `|sum(phases) − e2e| / e2e` observed. Exactly `0.0`
    /// for single-attempt-chain ops by construction.
    pub fn max_rel_err(&self) -> f64 {
        self.inner.borrow().max_rel_err
    }

    /// Exact per-phase nanosecond totals across all completed ops.
    pub fn phase_totals_ns(&self) -> [u128; PHASE_COUNT] {
        self.inner.borrow().phase_total_ns
    }

    /// Exact end-to-end nanosecond total across all completed ops.
    pub fn e2e_total_ns(&self) -> u128 {
        self.inner.borrow().e2e_total_ns
    }

    /// Per-phase p50/p95/p99 waterfall (phases with zero ops omitted),
    /// in taxonomy order.
    pub fn waterfall(&self) -> Vec<PhaseStat> {
        let inner = self.inner.borrow();
        Phase::ALL
            .iter()
            .filter_map(|&p| {
                let h = &inner.phase_hist[p.index()];
                let count = h.count();
                if count == 0 {
                    return None;
                }
                Some(PhaseStat {
                    phase: Some(p),
                    count,
                    p50_ns: h.quantile_ns(0.50).unwrap_or(0),
                    p95_ns: h.quantile_ns(0.95).unwrap_or(0),
                    p99_ns: h.quantile_ns(0.99).unwrap_or(0),
                    total_ns: inner.phase_total_ns[p.index()],
                })
            })
            .collect()
    }

    /// End-to-end summary row (`phase: None`), or `None` if no ops finished.
    pub fn e2e_stat(&self) -> Option<PhaseStat> {
        let inner = self.inner.borrow();
        let h = &inner.e2e_hist;
        if h.count() == 0 {
            return None;
        }
        Some(PhaseStat {
            phase: None,
            count: h.count(),
            p50_ns: h.quantile_ns(0.50).unwrap_or(0),
            p95_ns: h.quantile_ns(0.95).unwrap_or(0),
            p99_ns: h.quantile_ns(0.99).unwrap_or(0),
            total_ns: inner.e2e_total_ns,
        })
    }

    /// Clone out the retained recent stamp rows, oldest first.
    pub fn recent_rows(&self) -> Vec<StampRow> {
        self.inner.borrow().rows.iter().cloned().collect()
    }

    /// How many stamp rows were evicted from the ring.
    pub fn rows_dropped(&self) -> u64 {
        self.inner.borrow().rows_dropped
    }

    /// Deterministic JSONL of the retained stamp rows (one op per line).
    /// Two seeded runs produce byte-identical output.
    pub fn rows_jsonl(&self) -> String {
        let inner = self.inner.borrow();
        let mut s = String::new();
        for row in &inner.rows {
            s.push_str(&row.to_json());
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn sheet_partitions_lifetime_exactly() {
        let sheet = PhaseSheet::open(ms(0), Phase::Admission);
        sheet.switch(ms(2), Phase::Dispatch); // 2ms admission
        sheet.begin_attempt(ms(5)); // 3ms dispatch
        sheet.enter(ms(6), Phase::ProtoWrite); // 1ms execution
        sheet.enter(ms(7), Phase::LogHop); // 1ms proto_write
        sheet.switch(ms(8), Phase::Sequencer); // 1ms log_hop
        sheet.switch(ms(9), Phase::Quorum); // 1ms sequencer
        sheet.exit(ms(11)); // 2ms quorum
        sheet.exit(ms(12)); // 1ms proto_write
        let stamp = sheet.finish(ms(14)).unwrap(); // 2ms execution
        assert_eq!(stamp.total_ns, 14_000_000);
        assert_eq!(stamp.sum_ns(), stamp.total_ns);
        let get = |p: Phase| stamp.phase_ns[p.index()];
        assert_eq!(get(Phase::Admission), 2_000_000);
        assert_eq!(get(Phase::Dispatch), 3_000_000);
        assert_eq!(get(Phase::Execution), 3_000_000);
        assert_eq!(get(Phase::ProtoWrite), 2_000_000);
        assert_eq!(get(Phase::LogHop), 1_000_000);
        assert_eq!(get(Phase::Sequencer), 1_000_000);
        assert_eq!(get(Phase::Quorum), 2_000_000);
    }

    #[test]
    fn finished_sheet_ignores_all_ops() {
        let sheet = PhaseSheet::open(ms(0), Phase::Admission);
        let stamp = sheet.finish(ms(5)).unwrap();
        assert_eq!(stamp.total_ns, 5_000_000);
        sheet.enter(ms(6), Phase::Execution);
        sheet.switch(ms(7), Phase::Quorum);
        sheet.exit(ms(8));
        assert!(sheet.finish(ms(9)).is_none());
        assert!(!sheet.is_open());
    }

    #[test]
    fn opaque_replay_swallows_nested_stamps() {
        let sheet = PhaseSheet::open(ms(0), Phase::Execution);
        sheet.enter(ms(1), Phase::Replay);
        sheet.enter(ms(2), Phase::LogRead); // swallowed
        sheet.switch(ms(3), Phase::Sequencer); // ignored
        sheet.exit(ms(4)); // closes the swallowed enter
        sheet.exit(ms(6)); // closes replay
        let stamp = sheet.finish(ms(7)).unwrap();
        assert_eq!(stamp.phase_ns[Phase::Replay.index()], 5_000_000);
        assert_eq!(stamp.phase_ns[Phase::LogRead.index()], 0);
        assert_eq!(stamp.phase_ns[Phase::Sequencer.index()], 0);
        assert_eq!(stamp.phase_ns[Phase::Execution.index()], 2_000_000);
        assert_eq!(stamp.sum_ns(), stamp.total_ns);
    }

    #[test]
    fn unwind_redirects_to_recovery() {
        let sheet = PhaseSheet::open(ms(0), Phase::Dispatch);
        sheet.begin_attempt(ms(1));
        sheet.enter(ms(2), Phase::ProtoWrite);
        sheet.enter(ms(3), Phase::Quorum);
        sheet.unwind(ms(4), Phase::Recovery); // crash mid-append
        sheet.begin_attempt(ms(9)); // 5ms recovery
        let stamp = sheet.finish(ms(10)).unwrap();
        assert_eq!(stamp.phase_ns[Phase::Recovery.index()], 5_000_000);
        assert_eq!(stamp.phase_ns[Phase::Quorum.index()], 1_000_000);
        assert_eq!(stamp.sum_ns(), stamp.total_ns);
    }

    #[test]
    fn anatomy_collects_and_reconciles() {
        let anatomy = Anatomy::new();
        for i in 0..10u64 {
            let sheet = anatomy.open_sheet(ms(i * 100));
            sheet.switch(ms(i * 100 + 1), Phase::Execution);
            sheet.enter(ms(i * 100 + 2), Phase::StoreIo);
            sheet.exit(ms(i * 100 + 4));
            anatomy.complete(ms(i * 100 + 5), &sheet);
        }
        assert_eq!(anatomy.ops(), 10);
        assert_eq!(anatomy.max_rel_err(), 0.0);
        let wf = anatomy.waterfall();
        assert!(wf.iter().any(|s| s.phase == Some(Phase::StoreIo)));
        let e2e = anatomy.e2e_stat().unwrap();
        assert_eq!(e2e.count, 10);
        assert_eq!(e2e.total_ns, 10 * 5_000_000);
        let sum: u128 = anatomy.phase_totals_ns().iter().sum();
        assert_eq!(sum, anatomy.e2e_total_ns());
    }

    #[test]
    fn rows_jsonl_is_deterministic_and_bounded() {
        let run = || {
            let anatomy = Anatomy::new();
            for i in 0..ROW_CAPACITY as u64 + 2 {
                let sheet = anatomy.open_sheet(ms(i));
                sheet.switch(ms(i + 1), Phase::Execution);
                anatomy.complete(ms(i + 2), &sheet);
            }
            (anatomy.rows_jsonl(), anatomy.rows_dropped())
        };
        let (a, dropped) = run();
        let (b, _) = run();
        assert_eq!(a, b);
        assert_eq!(dropped, 2);
        assert_eq!(a.lines().count(), ROW_CAPACITY);
        assert!(a.lines().next().unwrap().starts_with("{\"seq\":2,"));
    }
}
