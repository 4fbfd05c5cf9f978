//! The SSF execution environment: Figure 5's `env`.
//!
//! An [`Env`] is created per execution attempt of an SSF instance group. It
//! carries the paper's per-SSF state: the cursor timestamp, the step
//! counter, the prefetched step log (`env.stepLogs`) and the
//! consecutive-write counter.
//!
//! Every logged operation is one call of `Env::step`, which is Figure 5
//! lines 16–25 (and Figure 7 lines 10–17, and §5.1) said once:
//!
//! - **Replay** (Fig. 5 lines 16–18, Fig. 7 lines 10–12): if the step log
//!   fetched at init holds a record at this offset, that record *is* the
//!   step and nothing else runs.
//! - **Log** (Fig. 5 lines 19–25, Fig. 7 lines 13–17): otherwise the op's
//!   `fresh` closure performs the store effects and crash points, and the
//!   record it returns is `logCondAppend`ed at this offset.
//! - **Peer conflicts (§5.1)**: an instance that loses the conditional
//!   append adopts the winner's record, value and seqnum and all, so every
//!   peer proceeds with identical state.
//!
//! Each op passes the record variant it expects, a `pick` that borrows the
//! record for the fields the op needs, and its `fresh` closure; what
//! follows the call is the op's one result-and-event tail, shared by all
//! three cases. A record of another variant means the body is not
//! deterministic (§2) and is an error everywhere, `init` included.
//!
//! | op | figure | `fresh` | tail |
//! |----|--------|---------|------|
//! | `init` | Fig. 5 lines 7–10 | offers the caller's input | adopts the logged input |
//! | Halfmoon-read write | Fig. 5 lines 13–25 | intent: draws the version (§4.1); commit: `DBWrite` (line 21), then the record of line 22 | the write's event at the commit seqnum |
//! | Halfmoon-write / Boki read | Fig. 7 lines 7–18 | reads LATEST (line 13), then the record of lines 14–17 | returns the logged value |
//! | `invoke` | Fig. 5 lines 31–44 | runs the child, then the record of lines 41–44 | returns the logged result |
//!
//! The public operations ([`Env::read`], [`Env::write`]) dispatch to the
//! protocol resolved for the target object: statically configured, or
//! looked up in the transition log when switching is enabled (§4.7).
//! [`Env::invoke`] logs its child's result under every logged protocol.
//! Each op, init's logged part and finish included, runs inside `Env::op`,
//! its one frame: span, phase, logging-row check and latency sample.

use std::future::Future;

use hm_common::observe::{Lane, OpCtx, Phase};
use hm_common::trace::SpanId;
use hm_common::{HmError, HmResult, InstanceId, Key, NodeId, SeqNum, StepNum, Tag, TagSet, Value};
use hm_kvstore::KvStore;
use hm_sharedlog::{CondAppendOutcome, LogRecord, LogService};

use crate::client::{finish_log_tag, init_log_tag, transition_log_tag, Client};
use crate::faults::Site;
use crate::history::{Event, EventKind};
use crate::protocol::{MatrixOp, ProtocolKind};
use crate::record::{OpRecord, StepRecord};

/// The protocol mode resolved for object accesses (§4.7 lifecycle).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ObjectMode {
    /// Steady state: the given protocol, unmodified.
    Plain(ProtocolKind),
    /// Between BEGIN and END: dual reads and dual writes, all logged (§5.2).
    Transitional {
        /// The switch target.
        to: ProtocolKind,
    },
    /// Between END and SETTLED: the target protocol, except that reads stay
    /// logged (dual) because transitional writers may still be live.
    Draining {
        /// The switch target.
        to: ProtocolKind,
    },
}

/// Figure 5's `env`: the per-execution-attempt state of one SSF.
pub struct Env {
    client: Client,
    /// The instance group identifier (`env.ID`); shared with peers/retries.
    pub id: InstanceId,
    /// The function node executing this attempt.
    pub node: NodeId,
    /// Execution attempt number (0 on first execution).
    pub attempt: u32,
    /// `cursorTS`: seqnum of the latest logged operation (§4).
    pub cursor: SeqNum,
    /// Index of the next logged step (`env.step`).
    pub step: StepNum,
    /// Offset of the next record in the step-log stream.
    pos: usize,
    /// Step-log records fetched at init (`env.stepLogs`).
    prior: Vec<LogRecord<StepRecord>>,
    /// Consecutive log-free writes since the last logged op (Figure 7).
    pub consecutive_w: u32,
    /// Key of the previous operation if it was a log-free write (used by
    /// the ordered-write extension).
    pub(crate) last_write_key: Option<Key>,
    /// Program counter over *all* state operations (including log-free
    /// ones); identical across attempts of a deterministic body.
    pc: u32,
    /// Crash-point counter within this attempt.
    crash_point: u32,
    /// Seqnum of this SSF's init record.
    pub init_cursor: SeqNum,
    /// Transition-log resolution, cached after first object access.
    resolved_mode: Option<ObjectMode>,
    /// True when the whole deployment runs the unsafe baseline: no init,
    /// finish, or operation logging at all.
    unlogged: bool,
    /// The invocation input: recovered from the init log record when one
    /// exists (Figure 5 logs the input precisely so re-executions and peer
    /// instances agree on it), otherwise the caller-supplied value.
    input: Value,
    /// Where this attempt's observations belong: its trace, the span now
    /// on the critical path (the open op's, else the attempt's) and the
    /// request's phase sheet. Armed on every log and store access.
    pub(crate) octx: OpCtx,
    /// The "attempt" span, open until finish or drop; `NONE` when untraced
    /// or closed.
    attempt_span: SpanId,
}

/// What [`Env::init`] needs to start one execution attempt, named instead
/// of positional (the old `init(&client, id, node, attempt, input)`
/// signature was an argument soup where swapping `attempt` for a node
/// index compiled fine).
///
/// ```
/// use halfmoon::InvocationSpec;
/// use hm_common::{InstanceId, NodeId, Value};
///
/// let spec = InvocationSpec::new(InstanceId(7), NodeId(0))
///     .attempt(2)
///     .input(Value::Int(5));
/// assert_eq!(spec.attempt, 2);
/// ```
#[derive(Clone, Debug)]
pub struct InvocationSpec {
    /// The instance group identifier (shared with peers and retries).
    pub id: InstanceId,
    /// The function node executing this attempt.
    pub node: NodeId,
    /// Execution attempt number (0 on first execution).
    pub attempt: u32,
    /// Caller-supplied invocation input (overridden by a logged init
    /// record on replay).
    pub input: Value,
    /// Where the attempt's observations belong. The default is unbound:
    /// a traced attempt then roots a trace of its own.
    pub octx: OpCtx,
}

impl InvocationSpec {
    /// A first-attempt spec with `Value::Null` input.
    #[must_use]
    pub fn new(id: InstanceId, node: NodeId) -> InvocationSpec {
        InvocationSpec {
            id,
            node,
            attempt: 0,
            input: Value::Null,
            octx: OpCtx::default(),
        }
    }

    /// Sets the attempt number (re-executions).
    #[must_use]
    pub fn attempt(mut self, attempt: u32) -> InvocationSpec {
        self.attempt = attempt;
        self
    }

    /// Sets the invocation input.
    #[must_use]
    pub fn input(mut self, input: Value) -> InvocationSpec {
        self.input = input;
        self
    }

    /// Runs the attempt under `octx` (the invoking runtime's context).
    #[must_use]
    pub fn under(mut self, octx: OpCtx) -> InvocationSpec {
        self.octx = octx;
        self
    }
}

/// What one [`Env::step`] resolved to.
pub(crate) struct Step<T> {
    /// What the op's `pick` read out of the record.
    pub value: T,
    /// The record's seqnum; the cursor now stands here.
    pub seqnum: SeqNum,
    /// True when the record came from the step log fetched at init, false
    /// when this call appended it (or adopted the peer's that beat it).
    pub replayed: bool,
}

impl Env {
    /// Initializes an execution attempt: fetches the step log and appends
    /// (or replays) the init record — Figure 5's `Init`.
    ///
    /// The step-log fetch goes through `LogService::replay_stream`, which
    /// is group-commit aware: records the crashed attempt left parked in
    /// an open batch are force-flushed and replayed here like any other,
    /// counted exactly once in [`crate::RecoveryStats`].
    ///
    /// # Errors
    /// Propagates injected crashes and substrate errors.
    pub async fn init(client: &Client, spec: InvocationSpec) -> HmResult<Env> {
        let mut env = Env::new(client, spec);
        env.start().await?;
        Ok(env)
    }

    /// One execution attempt, Figure 5 said once: [`Env::init`], then
    /// `body` on the authoritative input, then [`Env::finish`] with the
    /// body's result. A crash anywhere returns `Err(Crashed)`; the caller
    /// re-executes under the same instance id (a later `spec.attempt`)
    /// until an attempt returns.
    ///
    /// # Errors
    /// Propagates injected crashes, the body's errors and substrate errors.
    pub fn run<'a>(
        client: &Client,
        spec: InvocationSpec,
        body: impl AsyncFnOnce(&mut Env, Value) -> HmResult<Value> + 'a,
    ) -> impl Future<Output = HmResult<Value>> + 'a {
        // Not an `async fn`: its future would keep `spec` for its whole
        // life beside the `Env` made from it (64 B more per execution).
        // `new` has no effect but the move; all the work starts at the
        // first poll.
        let mut env = Env::new(client, spec);
        async move {
            env.start().await?;
            let input = env.input.clone();
            let out = body(&mut env, input).await?;
            env.finish(out).await
        }
    }

    /// The attempt `spec` names, not yet started.
    fn new(client: &Client, spec: InvocationSpec) -> Env {
        let InvocationSpec {
            id,
            node,
            attempt,
            input,
            octx,
        } = spec;
        let unlogged = client.with_config(|c| {
            c.default == ProtocolKind::Unsafe && c.per_key.is_empty() && !c.switching_enabled
        });
        Env {
            client: client.clone(),
            id,
            node,
            attempt,
            cursor: SeqNum::ZERO,
            step: StepNum(0),
            pos: 0,
            prior: Vec::new(),
            consecutive_w: 0,
            last_write_key: None,
            pc: 0,
            crash_point: 0,
            init_cursor: SeqNum::ZERO,
            resolved_mode: None,
            unlogged,
            input,
            octx,
            attempt_span: SpanId::NONE,
        }
    }

    /// [`Env::init`]'s work on an attempt made by `new`: opens its span,
    /// then the step-log fetch and the init record.
    async fn start(&mut self) -> HmResult<()> {
        let (node, attempt) = (self.node, self.attempt);
        if let Some(probe) = self.client.probe() {
            let octx = std::mem::take(&mut self.octx);
            self.octx = probe.attempt(octx, Lane::Node(node.0), self.client.ctx().now(), attempt);
            self.attempt_span = self.octx.parent;
        }
        if self.unlogged {
            return Ok(());
        }
        self.op(MatrixOp::Init, None, String::new, async |env: &mut Env| {
            let replaying = attempt > 0;
            if replaying {
                // §5 recovery: the whole step-log re-fetch is charged to the
                // (opaque) Replay phase — nested log-read stamps are
                // swallowed so the waterfall shows replay cost as one line.
                env.octx.enter(|| env.client.ctx().now(), Phase::Replay);
            }
            let tag = env.id.step_log_tag();
            let (prior, replay) = env.log().replay_stream(node, tag).await;
            if replaying {
                env.octx.exit(|| env.client.ctx().now());
                // §5 recovery metering: everything this fetch returned is
                // work paid purely because the previous attempt died.
                env.client.note_recovery(replay);
            }
            env.prior = prior;
            env.maybe_crash(Site::Init)?;
            // Figure 5 lines 7–10. The logged input is the authoritative
            // one: an earlier attempt's, or that of a racing peer whose
            // init won.
            let first = env
                .step(
                    "Init",
                    [init_log_tag()],
                    |op| match op {
                        OpRecord::Init { input } => Some(input.clone()),
                        _ => None,
                    },
                    async |env: &mut Env| {
                        Ok(OpRecord::Init {
                            input: env.input.clone(),
                        })
                    },
                )
                .await?;
            env.input = first.value;
            env.init_cursor = first.seqnum;
            Ok(())
        })
        .await
    }

    /// The shared client handle.
    #[must_use]
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// The shared log, armed with this attempt's current context. Every
    /// log access of the attempt goes through here.
    pub(crate) fn log(&self) -> &LogService<StepRecord> {
        self.client.log_as(&self.octx)
    }

    /// The state store, armed like [`Env::log`].
    pub(crate) fn store(&self) -> &KvStore {
        self.client.store_as(&self.octx)
    }

    // ------------------------------------------------------------------
    // The replay-or-log step
    // ------------------------------------------------------------------

    /// One logged step: replay, log, or adopt the peer's record that won
    /// (Figure 5 lines 16–25, Figure 7 lines 10–17, §5.1; see the module
    /// docs).
    ///
    /// `pick` reads what the caller needs out of whichever record the step
    /// resolved to; `None` means the record is not the `want` variant.
    /// `fresh` runs only when there is no prior record, so the store
    /// effects and crash points inside it are skipped on replay.
    /// `extra_tags` (beside the step-log tag) are read only when appending.
    ///
    /// This is the only code that reads `prior`, appends to the step log,
    /// or moves `pos` / `step` / `cursor`.
    pub(crate) async fn step<T>(
        &mut self,
        want: &str,
        extra_tags: impl IntoIterator<Item = Tag>,
        pick: impl FnOnce(&OpRecord) -> Option<T>,
        fresh: impl AsyncFnOnce(&mut Env) -> HmResult<OpRecord>,
    ) -> HmResult<Step<T>> {
        let appended;
        let (record, replayed) = if let Some(prior) = self.prior.get(self.pos) {
            // Fig. 5 lines 16–18 / Fig. 7 lines 10–12: already logged.
            (prior, true)
        } else {
            // Fig. 5 lines 19–25 / Fig. 7 lines 13–17: the effect, then
            // `logCondAppend` at our offset in the step log.
            let op = fresh(self).await?;
            let step_tag = self.id.step_log_tag();
            let tags: TagSet = std::iter::once(step_tag).chain(extra_tags).collect();
            let rec = StepRecord {
                instance: self.id,
                step: self.step,
                op,
            };
            let outcome = self
                .log()
                .cond_append(self.node, tags, rec, step_tag, self.pos)
                .await;
            appended = match outcome {
                CondAppendOutcome::Appended(sn) => self
                    .client
                    .log()
                    .peek_record(sn)
                    .ok_or_else(|| HmError::config("appended record missing from log"))?,
                // Adopt the peer's record at our expected offset.
                CondAppendOutcome::Conflict(winner) => self
                    .log()
                    .read_next(self.node, step_tag, winner)
                    .await
                    .ok_or_else(|| HmError::config("conflict winner record missing"))?,
            };
            debug_assert_eq!(appended.payload.instance, self.id);
            (&appended, false)
        };
        // A structural mismatch between the function body and its own log
        // is only possible if the body is non-deterministic, which the
        // protocols (and the paper, §2) require it not to be.
        let value = pick(&record.payload.op).ok_or_else(|| {
            HmError::config(format!(
                "non-deterministic SSF body: expected {want} at step {:?} of {:?}, found {:?}",
                self.step, self.id, record.payload.op
            ))
        })?;
        let seqnum = record.seqnum;
        self.pos += 1;
        self.step = self.step.next();
        self.cursor = seqnum;
        self.consecutive_w = 0;
        self.last_write_key = None;
        Ok(Step {
            value,
            seqnum,
            replayed,
        })
    }

    // ------------------------------------------------------------------
    // Fault injection & instrumentation
    // ------------------------------------------------------------------

    /// One crash point, in the window `site` names: returns
    /// `Err(Crashed)` if the fault policy fires.
    ///
    /// Crash points are numbered densely per execution attempt, which is
    /// what makes them usable as choice points: under
    /// [`FaultPolicy::explored`](crate::FaultPolicy::explored) the model
    /// checker enumerates *every* crash point within its budget as a
    /// survive/crash branch of the exploration tree (DESIGN.md §13),
    /// rather than sampling them with a seeded coin as the chaos plans do.
    pub(crate) fn maybe_crash(&mut self, site: Site) -> HmResult<()> {
        self.crash_point += 1;
        if self
            .client
            .faults()
            .should_crash(self.id, self.crash_point, site, self.client.ctx())
        {
            Err(HmError::Crashed {
                point: self.crash_point,
            })
        } else {
            Ok(())
        }
    }

    /// Records a history event if a recorder is attached. Takes a closure
    /// so the hot path (no recorder — every benchmark run) skips building
    /// the event entirely, including its key clones and fingerprints.
    pub(crate) fn record_event(&self, kind: impl FnOnce() -> EventKind) {
        if let Some(rec) = self.client.recorder() {
            self.record_to(&rec, kind(), self.client.ctx().now());
        }
    }

    /// Records a history event with an explicit observation instant (used
    /// by logged reads, whose store observation precedes the log append).
    pub(crate) fn record_event_at(&self, kind: impl FnOnce() -> EventKind, at: hm_substrate::Time) {
        if let Some(rec) = self.client.recorder() {
            self.record_to(&rec, kind(), at);
        }
    }

    fn record_to(&self, rec: &crate::history::Recorder, kind: EventKind, at: hm_substrate::Time) {
        rec.record(Event {
            instance: self.id,
            attempt: self.attempt,
            pc: self.pc,
            at,
            kind,
        });
    }

    /// The current program counter (op index within the body).
    pub(crate) fn pc(&self) -> u32 {
        self.pc
    }

    // ------------------------------------------------------------------
    // Observation (all no-ops when the deployment has no probe)
    // ------------------------------------------------------------------

    /// One `Env` op's frame, said once for init's logged part, `read`,
    /// `write`, `invoke` and `finish`:
    ///
    /// - a body op (read, write, invoke) advances the program counter;
    /// - the op's span opens under the attempt's and charges the op's
    ///   phase ([`MatrixOp::phase`]); it is the parent of the log and store
    ///   calls `body` makes;
    /// - the span closes on every exit, crashes and errors included, and
    ///   the attempt span is the parent again;
    /// - on `Ok` only, debug builds check the steps the op logged against
    ///   its row of the logging matrix ([`Env::debug_assert_row`]) and a
    ///   body op's latency is sampled.
    ///
    /// Ops do not nest. `key` is the object a read or write acts on, and
    /// its `Debug` form the span's detail; an op on no object takes the
    /// detail `detail` builds. Details are built only when tracing.
    ///
    /// Not an `async fn`, and neither are `read`, `write` and `invoke`,
    /// which return its future: an `async fn` keeps a second copy of its
    /// arguments beside its state, 176 B more in every execution box.
    #[allow(clippy::manual_async_fn)] // the copy said above
    fn op<'e, 'k, T, D, B>(
        &'e mut self,
        op: MatrixOp,
        key: Option<&'k Key>,
        detail: D,
        body: B,
    ) -> impl Future<Output = HmResult<T>> + use<'e, 'k, T, D, B>
    where
        D: FnOnce() -> String,
        B: AsyncFnOnce(&mut Env) -> HmResult<T>,
    {
        async move {
            let started = match op {
                MatrixOp::Init | MatrixOp::Finish => None,
                _ => {
                    self.pc += 1;
                    Some(self.client.ctx().now())
                }
            };
            let before = self.step;
            // Whether the order row applies: a write that follows a
            // log-free write to another key.
            let ordered = cfg!(debug_assertions)
                && op == MatrixOp::Write
                && self.consecutive_w > 0
                && self.last_write_key.as_ref() != key;
            if let Some(probe) = self.client.probe() {
                let now = self.client.ctx().now();
                let attempt = std::mem::take(&mut self.octx);
                let lane = Lane::Node(self.node.0);
                let detail = || key.map_or_else(detail, |key| format!("{key:?}"));
                self.octx = probe.span_under(attempt, lane, now, op.name(), detail);
                self.octx.enter(|| now, op.phase());
            }
            let result = body(self).await;
            if let Some(probe) = self.client.probe() {
                let now = self.client.ctx().now();
                probe.span_end(&self.octx, Lane::Node(self.node.0), now);
                self.octx.exit(|| now);
                self.octx.parent = self.attempt_span;
            }
            if result.is_ok() {
                self.debug_assert_row(op, key, before, ordered);
                if let Some(started) = started {
                    let latency = self.client.ctx().now() - started;
                    self.client.record_op_latency(op, latency);
                }
            }
            result
        }
    }

    /// Closes the attempt span; idempotent. Called by [`Env::finish`] and
    /// by `Drop` (covering crash/error exits). A drop during the executor's
    /// own teardown has no clock left to stamp the End with and skips it.
    fn end_attempt(&mut self) {
        // A crash exit leaves an op's span in `octx.parent`.
        self.octx.parent = std::mem::take(&mut self.attempt_span);
        if self.octx.parent == SpanId::NONE {
            return;
        }
        if let (Some(probe), Some(now)) = (self.client.probe(), self.client.ctx().try_now()) {
            probe.span_end(&self.octx, Lane::Node(self.node.0), now);
        }
    }

    // ------------------------------------------------------------------
    // Protocol resolution (§4.6 per-object choice, §4.7 switching)
    // ------------------------------------------------------------------

    /// Resolves the protocol mode governing accesses to `key`.
    pub(crate) async fn resolve(&mut self, key: &Key) -> HmResult<ObjectMode> {
        let switching = self.client.with_config(|c| c.switching_enabled);
        if switching {
            if let Some(mode) = self.resolved_mode {
                return Ok(mode);
            }
            // One transition-log lookup per SSF, bounded by the *initial*
            // cursor so retries resolve identically (§4.7: "both the
            // cursorTS and the transition log are persistent").
            let rec = self
                .log()
                .read_prev(self.node, transition_log_tag(), self.init_cursor)
                .await;
            let mode = match rec.as_ref().map(|r| &r.payload.op) {
                None => ObjectMode::Plain(self.client.with_config(|c| c.static_protocol(key))),
                Some(OpRecord::TransitionBegin { to, .. }) => ObjectMode::Transitional { to: *to },
                Some(OpRecord::TransitionEnd { to }) => ObjectMode::Draining { to: *to },
                Some(OpRecord::TransitionSettled { to }) => ObjectMode::Plain(*to),
                Some(other) => {
                    return Err(HmError::config(format!(
                        "unexpected transition-log record: {other:?}"
                    )))
                }
            };
            self.resolved_mode = Some(mode);
            return Ok(mode);
        }
        Ok(ObjectMode::Plain(
            self.client.with_config(|c| c.static_protocol(key)),
        ))
    }

    // ------------------------------------------------------------------
    // Public SSF API
    // ------------------------------------------------------------------

    /// Reads `key` under the resolved protocol: resolves `key`'s
    /// protocol, takes the op-entry crash point, then runs the read the
    /// protocol prescribes.
    ///
    /// # Errors
    /// Propagates injected crashes and substrate errors.
    pub fn read<'e, 'k>(
        &'e mut self,
        key: &'k Key,
    ) -> impl Future<Output = HmResult<Value>> + use<'e, 'k> {
        self.op(
            MatrixOp::Read,
            Some(key),
            String::new,
            async |env: &mut Env| {
                let mode = env.resolve(key).await?;
                env.maybe_crash(Site::OpEntry)?;
                match mode {
                    ObjectMode::Plain(ProtocolKind::HalfmoonRead) => env.hmread_read(key).await,
                    // Symmetric protocols log reads exactly like Halfmoon-write
                    // does; one implementation keeps the comparison honest.
                    ObjectMode::Plain(ProtocolKind::HalfmoonWrite | ProtocolKind::Boki)
                    | ObjectMode::Draining {
                        to: ProtocolKind::Boki,
                    } => env.hmwrite_read(key).await,
                    ObjectMode::Plain(ProtocolKind::Unsafe)
                    | ObjectMode::Draining {
                        to: ProtocolKind::Unsafe,
                    } => env.unsafe_read(key).await,
                    // During the switch, reads are logged dual reads (§5.2) —
                    // and also throughout the draining window: toward
                    // Halfmoon-read because transitional writers may still
                    // mutate LATEST rows, and toward Halfmoon-write because
                    // LATEST rows are being reconciled with the multi-version
                    // state in the background.
                    ObjectMode::Transitional { .. }
                    | ObjectMode::Draining {
                        to: ProtocolKind::HalfmoonRead | ProtocolKind::HalfmoonWrite,
                    } => env.dual_read(key).await,
                }
            },
        )
    }

    /// Writes `value` to `key` under the resolved protocol: resolves
    /// `key`'s protocol, takes the op-entry crash point, then runs the
    /// write the protocol prescribes.
    ///
    /// # Errors
    /// Propagates injected crashes and substrate errors.
    pub fn write<'e, 'k>(
        &'e mut self,
        key: &'k Key,
        value: Value,
    ) -> impl Future<Output = HmResult<()>> + use<'e, 'k> {
        self.op(
            MatrixOp::Write,
            Some(key),
            String::new,
            async |env: &mut Env| {
                let mode = env.resolve(key).await?;
                env.maybe_crash(Site::OpEntry)?;
                let protocol = match mode {
                    ObjectMode::Transitional { .. } => return env.dual_write(key, value).await,
                    // Draining: old-protocol SSFs are gone, so plain target
                    // writes are safe (HM-read writes never touch LATEST;
                    // HM-write writes are ordered against transitional writers
                    // by version tuples).
                    ObjectMode::Plain(protocol) | ObjectMode::Draining { to: protocol } => protocol,
                };
                match protocol {
                    ProtocolKind::HalfmoonRead => env.hmread_write(key, value).await,
                    ProtocolKind::HalfmoonWrite => env.hmwrite_write(key, value).await,
                    ProtocolKind::Boki => env.boki_write(key, value).await,
                    ProtocolKind::Unsafe => env.unsafe_write(key, value).await,
                }
            },
        )
    }

    /// Invokes a child function, logging the result for idempotence
    /// (Figure 5 lines 31–44).
    ///
    /// # Errors
    /// Propagates injected crashes, child failures, and substrate errors.
    pub fn invoke<'e, 'f>(
        &'e mut self,
        func: &'f str,
        input: Value,
    ) -> impl Future<Output = HmResult<Value>> + use<'e, 'f> {
        let detail = move || func.to_string();
        self.op(MatrixOp::Invoke, None, detail, async |env: &mut Env| {
            if env.unlogged {
                // Unsafe baseline: fire and hope. Fresh random callee id per
                // attempt — duplicated side effects on retry are the point.
                let callee = env.client.fresh_instance_id();
                let invoker = env
                    .client
                    .invoker()
                    .ok_or_else(|| HmError::config("no invoker registered"))?;
                env.maybe_crash(Site::BeforeEffect)?;
                let result = invoker
                    .invoke(callee, func, input, env.octx.clone())
                    .await?;
                env.record_event(|| EventKind::Invoke {
                    callee,
                    fp: result.fingerprint(),
                });
                return Ok(result);
            }
            let step = env
                .step(
                    "Invoke",
                    [],
                    |op| match op {
                        OpRecord::Invoke { callee, result } => Some((*callee, result.clone())),
                        _ => None,
                    },
                    async |env: &mut Env| {
                        // Deterministic callee id: a pure function of our id
                        // and step (Figure 5's getUUID; see DESIGN.md on
                        // this choice).
                        let callee = env.id.child(env.step);
                        let invoker = env
                            .client
                            .invoker()
                            .ok_or_else(|| HmError::config("no invoker registered"))?;
                        env.maybe_crash(Site::BeforeEffect)?;
                        // The callee's attempts join this trace under the
                        // invoke op and charge this request's sheet.
                        let result = invoker
                            .invoke(callee, func, input, env.octx.clone())
                            .await?;
                        env.maybe_crash(Site::AfterEffect)?;
                        Ok(OpRecord::Invoke { callee, result })
                    },
                )
                .await?;
            let (callee, result) = step.value;
            env.record_event(|| EventKind::Invoke {
                callee,
                fp: result.fingerprint(),
            });
            Ok(result)
        })
    }

    /// Completes the SSF: appends (or replays) the finish record carrying
    /// the result, and returns the authoritative result (a racing peer's,
    /// if it finished first).
    ///
    /// # Errors
    /// Propagates injected crashes and substrate errors.
    pub async fn finish(&mut self, result: Value) -> HmResult<Value> {
        if self.unlogged {
            self.end_attempt();
            return Ok(result);
        }
        let out = self
            .op(
                MatrixOp::Finish,
                None,
                String::new,
                async |env: &mut Env| {
                    let step = env
                        .step(
                            "Finish",
                            [finish_log_tag()],
                            |op| match op {
                                OpRecord::Finish { result, .. } => Some(result.clone()),
                                _ => None,
                            },
                            async |env: &mut Env| {
                                env.maybe_crash(Site::BeforeAppend)?;
                                Ok(OpRecord::Finish {
                                    init_seqnum: env.init_cursor,
                                    result,
                                })
                            },
                        )
                        .await?;
                    Ok(step.value)
                },
            )
            .await?;
        self.end_attempt();
        Ok(out)
    }

    /// Debug builds: asserts that the op that just returned `Ok`, begun at
    /// step `before`, logged exactly the steps its row of the logging
    /// matrix ([`ProtocolKind::logging_row`]) declares, plus the order
    /// row's if `ordered`. An op on `key` is checked under
    /// `ObjectMode::Plain`; init, invoke and finish (`key` = `None`) in a
    /// deployment running one protocol.
    fn debug_assert_row(&self, op: MatrixOp, key: Option<&Key>, before: StepNum, ordered: bool) {
        if !cfg!(debug_assertions) {
            return;
        }
        self.client.with_config(|c| {
            let protocol = match (key, self.resolved_mode) {
                (None, _) if c.per_key.is_empty() && !c.switching_enabled => c.default,
                (Some(key), _) if !c.switching_enabled => c.static_protocol(key),
                (Some(_), Some(ObjectMode::Plain(protocol))) => protocol,
                _ => return,
            };
            let appends = |op| protocol.logging_row(op, c).log_appends;
            let want = appends(op) + if ordered { appends(MatrixOp::Order) } else { 0 };
            let logged = u64::from(self.step.0 - before.0);
            assert_eq!(
                logged, want,
                "{protocol} {op:?} (ordered: {ordered}) of {self:?}"
            );
        });
    }

    /// Spends a sample of pure compute time (function work between state
    /// operations).
    pub async fn compute(&self) {
        let d = self
            .client
            .ctx()
            .with_rng(|rng| self.client.model().function_compute.sample(rng));
        self.client.ctx().sleep(d).await;
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        // Crash/error exits never reach `finish`; close the attempt span
        // here so every Begin pairs with an End at the abort instant.
        self.end_attempt();
    }
}

impl std::fmt::Debug for Env {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Env({:?} attempt={} step={:?} cursor={:?} pos={})",
            self.id, self.attempt, self.step, self.cursor, self.pos
        )
    }
}
