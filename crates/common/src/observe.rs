//! One attribution context, one hook per site.
//!
//! The tracer ([`crate::trace`]), the latency anatomy ([`crate::anatomy`])
//! and the flight recorder ([`crate::flightrec`]) are sinks. This module is
//! how an observation reaches them and, above all, how it finds the request
//! it belongs to across the gateway, the runtime, the environment, the
//! shared log and the store.
//!
//! - An [`OpCtx`] is the attribution context: the trace, the span the next
//!   observation nests under, and the request's phase sheet. The default
//!   context is background work: trace 0, no parent, charging no request.
//! - A [`Probe`] exists once per deployment. It owns the optional sinks,
//!   **one** context cell and **one** hand-off map.
//! - A [`Scope`] is what a site holds between [`Probe::begin`] and
//!   [`Scope::end`]: the span it opened and the sheet it charges. Without a
//!   probe a site holds [`Scope::NONE`] and every call on it is one `Option`
//!   test.
//!
//! # How a context travels
//!
//! By value wherever the caller holds it: the gateway makes one per request
//! ([`Probe::request`]) and passes it to the runtime, which passes it to
//! every attempt ([`Probe::attempt`]) and clones it into the peers it
//! spawns; an `Env` holds its own, and the GC one per cycle.
//!
//! Two hand-offs cannot carry an argument, and each is a put followed by a
//! take within one task poll, so no other task can run in between:
//!
//! - *caller → log or store.* The call shapes `append(node, tags, payload)`
//!   and `get(key)` are fixed, so the caller arms the cell ([`Probe::arm`],
//!   reached only through `Client::log_as` / `store_as`, which an `Env`
//!   uses for every access) and the callee's [`Probe::begin`] **takes** it
//!   before its first `await`. A call nobody armed for (the switch
//!   coordinator's, a test's) is background work; a stale context cannot be
//!   picked up.
//! - *`Env::invoke` → `Invoker` → the child's `execute`.* The `Invoker`
//!   trait carries an instance id, so the parent leaves the child's context
//!   under the callee id ([`Probe::hand_off`]) and the runtime takes it on
//!   arrival ([`Probe::take`]). The map holds an entry only across that call.
//!
//! # What a site calls
//!
//! A log or store operation: one `begin(lane, now, name, phase)` at entry,
//! one `end(|| now)` at exit, with `phase(|| now, p)` and
//! `instant(lane, || now, name, || detail)` in between: like the detail
//! string, the clock is read only when somebody observes. The spans that
//! establish a context are not scopes: [`Probe::request`] /
//! [`Probe::finish_request`], [`Probe::attempt`], and
//! [`Probe::span_under`] / [`Probe::span_end`] for an invocation, a GC
//! cycle or an `Env` op (which also enters its residual phase on its
//! context). A crash retry is one [`Probe::crash_retry`], an incident one
//! [`Probe::note`] or [`Probe::trigger`].
//!
//! Nothing here draws randomness, spawns or sleeps: attaching a probe
//! cannot perturb a seeded run.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use crate::anatomy::{Anatomy, PhaseSheet};
use crate::collections::FxHashMap;
use crate::flightrec::{FlightRecorder, RECOVERY_BUDGET};
use crate::trace::{SpanId, TraceId, Tracer};

pub use crate::anatomy::Phase;
pub use crate::trace::Lane;

/// Where an observation belongs. Cheap to clone (two ids and a refcount).
#[derive(Clone, Debug, Default)]
pub struct OpCtx {
    /// The request's trace; [`TraceId::NONE`] for background work and for
    /// work nobody has put on a trace yet.
    pub trace: TraceId,
    /// The span the next observation nests under.
    pub parent: SpanId,
    /// The request's phase sheet, when the anatomy is on and a gateway
    /// request is being charged.
    pub sheet: Option<Rc<PhaseSheet>>,
}

/// The clock is read only where a sheet is there to charge: an unobserved
/// site pays an `Option` test, not a clock read.
impl OpCtx {
    /// Starts charging `phase`, nested in the current one.
    pub fn enter(&self, now: impl FnOnce() -> Duration, phase: Phase) {
        if let Some(sheet) = &self.sheet {
            sheet.enter(now(), phase);
        }
    }

    /// Ends the phase opened by the matching [`OpCtx::enter`].
    pub fn exit(&self, now: impl FnOnce() -> Duration) {
        if let Some(sheet) = &self.sheet {
            sheet.exit(now());
        }
    }

    /// Retags the phase being charged, at the same nesting depth.
    pub fn switch(&self, now: impl FnOnce() -> Duration, phase: Phase) {
        if let Some(sheet) = &self.sheet {
            sheet.switch(now(), phase);
        }
    }
}

/// The deployment's observation handle: the sinks, the context cell and the
/// hand-off map. See the module docs.
pub struct Probe {
    tracer: Option<Rc<Tracer>>,
    anatomy: Option<Rc<Anatomy>>,
    flightrec: Option<Rc<FlightRecorder>>,
    /// Context of the log or store call about to start; `None` once that
    /// call has taken it.
    armed: RefCell<Option<OpCtx>>,
    /// Contexts on their way from a parent's invoke to the child's
    /// `execute`, by callee instance id.
    handoffs: RefCell<FxHashMap<u128, OpCtx>>,
}

impl Probe {
    /// A probe over the given sinks, or `None` when there is none to feed.
    #[must_use]
    pub fn new(
        tracer: Option<Rc<Tracer>>,
        anatomy: Option<Rc<Anatomy>>,
        flightrec: Option<Rc<FlightRecorder>>,
    ) -> Option<Rc<Probe>> {
        if tracer.is_none() && anatomy.is_none() && flightrec.is_none() {
            return None;
        }
        Some(Rc::new(Probe {
            tracer,
            anatomy,
            flightrec,
            armed: RefCell::default(),
            handoffs: RefCell::default(),
        }))
    }

    /// A request arrives at the gateway at `now`: a fresh trace rooted in a
    /// gateway-lane `request` span, and a fresh phase sheet charging
    /// `Admission`. Returns the context of everything done for it.
    #[must_use]
    pub fn request(&self, now: Duration, func: impl FnOnce() -> String) -> OpCtx {
        let root = OpCtx {
            trace: self
                .tracer
                .as_ref()
                .map_or(TraceId::NONE, |t| t.new_trace()),
            parent: SpanId::NONE,
            sheet: self.anatomy.as_ref().map(|a| a.open_sheet(now)),
        };
        self.span_under(root, Lane::Gateway, now, "request", func)
    }

    /// The request answered at `now`: closes its span and its sheet,
    /// folding the sheet into the anatomy when `measured` (the same
    /// requests the latency histogram records).
    pub fn finish_request(&self, octx: &OpCtx, now: Duration, measured: bool) {
        self.span_end(octx, Lane::Gateway, now);
        if let (Some(a), Some(sheet)) = (&self.anatomy, &octx.sheet) {
            if measured {
                a.complete(now, sheet);
            } else {
                a.abandon(now, sheet);
            }
        }
    }

    /// Execution attempt number `attempt` starts under `octx`: a top-level
    /// request's scheduling or recovery phase ends and `Execution` begins;
    /// an attempt on no trace roots its own. Returns the context of the
    /// attempt's ops, nested in its `attempt` span.
    #[must_use]
    pub fn attempt(&self, mut octx: OpCtx, lane: Lane, now: Duration, attempt: u32) -> OpCtx {
        if let Some(sheet) = &octx.sheet {
            sheet.begin_attempt(now);
        }
        if let (Some(t), TraceId::NONE) = (&self.tracer, octx.trace) {
            octx.trace = t.new_trace();
        }
        self.span_under(octx, lane, now, "attempt", || format!("attempt {attempt}"))
    }

    /// An attempt of instance `id` died of `cause` and `attempt` is about
    /// to be scheduled. Whatever the request was charging keeps its accrual
    /// and its time flows to `Recovery` until that attempt begins; the
    /// flight recorder notes the retry, and dumps once, when `attempt`
    /// reaches its recovery budget; the tracer marks it on `lane`.
    pub fn crash_retry(
        &self,
        octx: &OpCtx,
        lane: Lane,
        now: Duration,
        id: u128,
        attempt: u32,
        cause: &dyn std::fmt::Display,
    ) {
        if let Some(sheet) = &octx.sheet {
            sheet.unwind(now, Phase::Recovery);
        }
        if let Some(fr) = &self.flightrec {
            let retry = format!("instance {id:#x} attempt {attempt}: {cause}");
            fr.note(now, "crash_retry", retry);
            if attempt == RECOVERY_BUDGET {
                self.trigger(now, "recovery_budget_exceeded", || {
                    format!("instance {id:#x} reached {attempt} crash retries")
                });
            }
        }
        if let Some(t) = &self.tracer {
            let detail = format!("attempt {attempt}");
            t.instant(lane, now, octx.trace, octx.parent, "crash_retry", detail);
        }
    }

    /// Names the context of the log or store call the caller is about to
    /// make. The callee's [`Probe::begin`] takes it; no `await` may come
    /// between the two.
    pub fn arm(&self, octx: &OpCtx) {
        let stale = self.armed.replace(Some(octx.clone()));
        debug_assert!(
            stale.is_none(),
            "armed twice with no log or store call between"
        );
    }

    /// Opens a scope under the armed context (background when nobody armed
    /// one): a span on `lane`, charging `phase` if one is given. Must run
    /// before the operation's first `await`.
    #[must_use]
    pub fn begin(
        &self,
        lane: Lane,
        now: Duration,
        name: &'static str,
        phase: Option<Phase>,
    ) -> Scope {
        let armed = self.armed.take().unwrap_or_default();
        let mut octx = self.span_under(armed, lane, now, name, String::new);
        match phase {
            Some(phase) => octx.enter(|| now, phase),
            // Nothing entered, so nothing for `end` to exit.
            None => octx.sheet = None,
        }
        Scope(Some(Open {
            tracer: self.tracer.clone(),
            lane,
            octx,
        }))
    }

    /// Opens a span that establishes a context (an invocation, a GC cycle,
    /// an `Env` op) and returns the context of the work nested in it. Close
    /// it with [`Probe::span_end`] on the returned context.
    #[must_use]
    pub fn span_under(
        &self,
        mut octx: OpCtx,
        lane: Lane,
        now: Duration,
        name: &'static str,
        detail: impl FnOnce() -> String,
    ) -> OpCtx {
        if let Some(t) = &self.tracer {
            octx.parent = t.span_begin(lane, now, octx.trace, octx.parent, name, detail());
        }
        octx
    }

    /// Closes the span `octx.parent` names (a no-op without a tracer).
    pub fn span_end(&self, octx: &OpCtx, lane: Lane, now: Duration) {
        if let (Some(t), true) = (&self.tracer, octx.parent != SpanId::NONE) {
            t.span_end(lane, now, octx.trace, octx.parent);
        }
    }

    /// Leaves `octx` for the runtime that is about to execute instance `id`.
    pub fn hand_off(&self, id: u128, octx: OpCtx) {
        self.handoffs.borrow_mut().insert(id, octx);
    }

    /// Takes the context left for instance `id`; background if none was.
    #[must_use]
    pub fn take(&self, id: u128) -> OpCtx {
        self.handoffs.borrow_mut().remove(&id).unwrap_or_default()
    }

    /// Contexts handed off and not yet taken (zero between task polls).
    #[must_use]
    pub fn pending_handoffs(&self) -> usize {
        self.handoffs.borrow().len()
    }

    /// Notes an incident in the flight recorder's ring.
    pub fn note(&self, now: Duration, kind: &str, detail: impl FnOnce() -> String) {
        if let Some(fr) = &self.flightrec {
            fr.note(now, kind, detail());
        }
    }

    /// Notes an incident and dumps the flight recorder's black box, with
    /// this probe's tracer events and anatomy stamps.
    pub fn trigger(&self, now: Duration, kind: &str, detail: impl FnOnce() -> String) {
        if let Some(fr) = &self.flightrec {
            let (tracer, anatomy) = (self.tracer.as_deref(), self.anatomy.as_deref());
            fr.trigger(now, kind, detail(), tracer, anatomy);
        }
    }
}

#[derive(Clone)]
struct Open {
    tracer: Option<Rc<Tracer>>,
    lane: Lane,
    /// The scope's own context: its trace, its span as `parent`, and the
    /// sheet it charges.
    octx: OpCtx,
}

/// One observed operation, from [`Probe::begin`] to [`Scope::end`]. The
/// clock and detail closures run only on a live scope. Clones
/// name the same operation (a batched append's flush task walks the clone
/// its parked appender left it).
#[derive(Clone)]
pub struct Scope(Option<Open>);

impl Scope {
    /// The scope of an operation nobody observes.
    pub const NONE: Scope = Scope(None);

    /// Retags the phase this operation is charging.
    pub fn phase(&self, now: impl FnOnce() -> Duration, phase: Phase) {
        if let Some(o) = &self.0 {
            o.octx.switch(now, phase);
        }
    }

    /// Records a zero-duration marker under this operation's span.
    pub fn instant(
        &self,
        lane: Lane,
        now: impl FnOnce() -> Duration,
        name: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        let Some(o) = &self.0 else { return };
        if let Some(t) = &o.tracer {
            t.instant(lane, now(), o.octx.trace, o.octx.parent, name, detail());
        }
    }

    /// Closes the span and stops charging the phase.
    pub fn end(&self, now: impl FnOnce() -> Duration) {
        if let Some(o) = &self.0 {
            let now = now();
            if let Some(t) = &o.tracer {
                t.span_end(o.lane, now, o.octx.trace, o.octx.parent);
            }
            o.octx.exit(|| now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    #[test]
    fn nothing_to_feed_is_no_probe() {
        assert!(Probe::new(None, None, None).is_none());
        let scope = Scope::NONE;
        scope.phase(|| t(1), Phase::Quorum);
        scope.instant(Lane::Storage, || t(1), "x", || unreachable!("never built"));
        scope.end(|| t(2));
    }

    #[test]
    fn begin_takes_the_armed_context_once() {
        let (tracer, anatomy) = (Tracer::new(), Anatomy::new());
        let probe = Probe::new(Some(tracer.clone()), Some(anatomy.clone()), None).unwrap();
        let request = probe.request(t(0), || "f".to_string());
        let attempt = probe.attempt(request.clone(), Lane::Node(0), t(0), 0);
        let node = Lane::Node(0);
        let op = probe.span_under(attempt.clone(), node, t(1), "read", String::new);
        op.enter(|| t(1), Phase::ProtoRead);
        let call = |name, phase, from, to| {
            let scope = probe.begin(Lane::Storage, t(from), name, phase);
            scope.end(|| t(to));
        };
        probe.arm(&op);
        call("db_read", Some(Phase::StoreIo), 1, 3);
        // Nobody armed for this one: background, charging no request.
        call("db_read", Some(Phase::StoreIo), 3, 4);
        // A scope without a phase must not pop the op's.
        probe.arm(&op);
        call("log_trim", None, 4, 5);
        op.exit(|| t(5));
        probe.span_end(&op, node, t(5));
        probe.span_end(&attempt, node, t(5));
        probe.finish_request(&request, t(5), true);

        let jsonl = tracer.export_jsonl();
        let mut db_reads = jsonl.lines().filter(|l| l.contains("\"db_read\""));
        let (armed, unarmed) = (db_reads.next().unwrap(), db_reads.next().unwrap());
        let under_op = format!("\"parent\":{},", op.parent.0);
        assert!(armed.contains(&under_op), "{armed}");
        assert!(unarmed.contains("\"trace\":0,"), "{unarmed}");
        assert!(unarmed.contains("\"parent\":0,"), "{unarmed}");
        let charged = |phase: Phase| anatomy.phase_totals_ns()[phase.index()];
        assert_eq!(charged(Phase::StoreIo), 2_000_000, "the armed call only");
        assert_eq!(charged(Phase::ProtoRead), 2_000_000);
        assert_eq!(charged(Phase::Execution), 1_000_000);
        assert_eq!(anatomy.max_rel_err(), 0.0);
    }

    #[test]
    fn a_crash_retry_reaches_every_sink_and_an_attempt_on_no_trace_roots_its_own() {
        let (tracer, anatomy, fr) = (Tracer::new(), Anatomy::new(), FlightRecorder::new());
        let (t_, a_, f_) = (tracer.clone(), anatomy.clone(), fr.clone());
        let probe = Probe::new(Some(t_), Some(a_), Some(f_)).unwrap();
        let node = Lane::Node(1);
        let unbound = probe.attempt(OpCtx::default(), node, t(0), 0);
        assert_ne!(unbound.trace, TraceId::NONE);
        let request = probe.request(t(0), String::new);
        let bound = probe.attempt(request.clone(), node, t(1), 0);
        assert_eq!(bound.trace, request.trace);
        for attempt in 1..RECOVERY_BUDGET {
            probe.crash_retry(&request, node, t(2), 0xab, attempt, &"boom");
        }
        assert_eq!(fr.dumps(), 0);
        probe.crash_retry(&request, node, t(2), 0xab, RECOVERY_BUDGET, &"boom");
        assert_eq!(fr.dumps(), 1, "one dump, at the budget");
        let noted = fr.incidents()[0].detail.clone();
        assert_eq!(noted, "instance 0xab attempt 1: boom");
        let dump = fr.last_dump().unwrap();
        assert!(
            dump.contains("\"event\":\"crash_retry\""),
            "the probe's tracer: {dump}"
        );
        let _ = probe.attempt(request.clone(), node, t(7), 2);
        probe.finish_request(&request, t(8), true);
        let recovery = anatomy.phase_totals_ns()[Phase::Recovery.index()];
        assert_eq!(recovery, 5_000_000);
        let retries = tracer.export_jsonl().matches("\"crash_retry\"").count();
        assert_eq!(retries, RECOVERY_BUDGET as usize);
    }

    #[test]
    fn hand_off_is_emptied_by_take() {
        let probe = Probe::new(Some(Tracer::new()), None, None).unwrap();
        let parent = probe.request(t(0), String::new);
        probe.hand_off(42, parent.clone());
        assert_eq!(probe.pending_handoffs(), 1);
        assert_eq!(probe.take(42).parent, parent.parent);
        assert_eq!(probe.pending_handoffs(), 0);
        assert_eq!(probe.take(42).trace, TraceId::NONE, "taken once");
    }
}
