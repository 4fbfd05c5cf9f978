//! Systematic model checking of the §4.4 propositions.
//!
//! The chaos engine ([`crate::chaos`]) *samples* interleavings and crash
//! points at random; this harness *enumerates* them. Two SSFs — one per
//! function node — execute small op programs against a shared client, but
//! every source of nondeterminism is routed through an
//! [`hm_substrate::explore::ChoiceSource`]:
//!
//! - **Scheduling**: a turn-gate coordinator holds both actors at their
//!   op boundaries and asks the choice source which one runs next (site
//!   `"sched"`). One turn = one protocol op (or `Env::init`/`finish`),
//!   run to completion — op-level granularity, the unit the §4.4
//!   propositions quantify over. Sub-op interleavings are covered by the
//!   offset-sweep tests and chaos campaigns, not by this checker.
//! - **Crashes**: [`halfmoon::FaultPolicy::explored`] turns every crash
//!   point, whatever its [`halfmoon::Site`], into a binary {survive,
//!   crash} choice (site `"crash"`), budgeted per run — crash *placement*
//!   is exhaustively enumerated over the §4 windows.
//! - **Stalls**: optionally, one sequencer-stall injection is offered as
//!   an extra scheduling alternative.
//!
//! Driving the choices from [`Explorer`] therefore explores *all*
//! schedules of a configuration; the oracle for each completed run is the
//! exactly-once auditor ([`halfmoon::audit`]), which checks the
//! generic §2 idempotence invariants plus the per-protocol §4.4
//! propositions. Any violating schedule comes back as a replayable
//! [`Schedule`] (also dumped through the flight recorder), and
//! [`run_schedule`] re-executes it byte-identically as a normal sim run.
//!
//! The minimal configuration explores in well under a second:
//!
//! ```
//! use halfmoon::ProtocolKind;
//! use hm_runtime::mc::{explore_config, McConfig};
//!
//! // 2 nodes, 1 shard, 2 ops (A writes X, B reads X), crash budget 1:
//! // every schedule of the log-free-read protocol satisfies §4.4.
//! let cfg = McConfig::minimal(ProtocolKind::HalfmoonRead);
//! let stats = explore_config(&cfg, true, 1);
//! assert!(stats.complete, "tree exhausted within caps");
//! assert!(stats.counterexamples.is_empty(), "zero §4.4 violations");
//! assert!(stats.runs > 0);
//! ```

use std::cell::RefCell;
use std::future::poll_fn;
use std::rc::Rc;
use std::task::{Poll, Waker};
use std::time::Duration;

use halfmoon::{
    audit, Client, CrashFootprints, Env, FaultPolicy, InvocationSpec, MatrixOp, ProtocolConfig,
    ProtocolKind, Topology,
};
use hm_common::flightrec::FlightRecorder;
use hm_common::latency::LatencyModel;
use hm_common::metrics::OpCounters;
use hm_common::{InstanceId, Key, NodeId, Value};
use hm_sharedlog::ShardId;
use hm_substrate::explore::{
    Alt, ChoiceSource, DfsChooser, ExploreStats, Explorer, RunReport, Schedule, ScriptedChoices,
};
use hm_substrate::sim::Sim;

/// Footprint bit for key `X`.
pub const FP_KEY_X: u64 = 1 << 0;
/// Footprint bit for key `Y`.
pub const FP_KEY_Y: u64 = 1 << 1;
/// Footprint bit for actor `i` (every one of an actor's actions carries
/// its own bit, so two actions of the same actor never commute).
#[must_use]
pub fn fp_actor(actor: usize) -> u64 {
    1 << (8 + actor)
}
/// Footprint bit for the shared log's dense seqnum clock: every op that
/// *appends* carries it, making any two logged ops order-dependent. This
/// is deliberately conservative — all appends race on the global sequence
/// number, whatever their keys — and it is exactly where the log-free
/// halves of the Halfmoon protocols win back commutativity.
pub const FP_LOG_CLOCK: u64 = 1 << 16;

/// Identity tag for scheduler alternatives (low bits: actor index).
const SCHED_TAG: u64 = 1 << 20;
/// Identity of the one-shot sequencer-stall alternative.
const STALL_ID: u64 = 1 << 21;

/// Which of the two pre-populated keys an op touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McKey {
    /// Key `"X"` (populated with `Int(1)`).
    X,
    /// Key `"Y"` (populated with `Int(2)`).
    Y,
}

impl McKey {
    fn key(self) -> Key {
        Key::new(match self {
            McKey::X => "X",
            McKey::Y => "Y",
        })
    }

    fn bit(self) -> u64 {
        match self {
            McKey::X => FP_KEY_X,
            McKey::Y => FP_KEY_Y,
        }
    }
}

/// One step of an actor's program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpSpec {
    /// `Env::read` of the key.
    Read(McKey),
    /// `Env::write` of a deterministic per-actor/per-step value.
    Write(McKey),
}

impl OpSpec {
    /// The op's resource footprint in a deployment of `config` (uniform)
    /// when run by `actor`: its key bit, the actor's bit, and the
    /// log-clock bit iff its row of the logging matrix appends. A write's
    /// row includes the order record it may append.
    #[must_use]
    pub fn footprint(self, config: &ProtocolConfig, actor: usize) -> u64 {
        let row = |op| config.default.logging_row(op, config);
        let (key, row) = match self {
            OpSpec::Read(k) => (k, row(MatrixOp::Read)),
            OpSpec::Write(k) => (k, row(MatrixOp::Write).merged(&row(MatrixOp::Order))),
        };
        key.bit() | frame_footprint(row, actor)
    }
}

/// The footprint of `actor`'s turn through an op of `row` (of
/// [`ProtocolKind::logging_row`]): the actor's bit, and the log-clock bit
/// iff the row appends.
fn frame_footprint(row: OpCounters, actor: usize) -> u64 {
    fp_actor(actor) | if row.log_appends > 0 { FP_LOG_CLOCK } else { 0 }
}

/// One model-checking configuration: 2 function nodes (SSF `A` on node 0,
/// SSF `B` on node 1), 1–2 log shards, ≤3 ops per actor, a crash budget,
/// and optionally one sequencer-stall injection point.
#[derive(Clone, Debug)]
pub struct McConfig {
    /// Short label for tables and reports.
    pub name: &'static str,
    /// Protocol every key runs (uniform — the per-protocol §4.4 checks
    /// need a uniform config to apply).
    pub protocol: ProtocolKind,
    /// Log shards (1 or 2).
    pub shards: u8,
    /// SSF A's program (runs on `NodeId(0)` as `InstanceId(0xa)`).
    pub a: Vec<OpSpec>,
    /// SSF B's program (runs on `NodeId(1)` as `InstanceId(0xb)`).
    pub b: Vec<OpSpec>,
    /// Crash budget: how many {survive, crash} choices may pick crash in
    /// one run (0 ⇒ failure-free exploration).
    pub crashes: u32,
    /// Offer one sequencer-stall injection as a scheduling alternative.
    pub stall: bool,
    /// Substrate seed; together with a [`Schedule`] it identifies a run.
    pub seed: u64,
}

impl McConfig {
    /// The smallest interesting configuration: `A = [Write X]`,
    /// `B = [Read X]`, one shard, crash budget 1.
    ///
    /// Note the unsafe baseline's §1 duplicate-update anomaly needs a
    /// crash point *after* a write has taken effect, i.e. a program where
    /// another op follows the write — `ww-1s` in [`standard_configs`] is
    /// the smallest configuration that exhibits it.
    #[must_use]
    pub fn minimal(protocol: ProtocolKind) -> McConfig {
        McConfig {
            name: "wr-1s",
            protocol,
            shards: 1,
            a: vec![OpSpec::Write(McKey::X)],
            b: vec![OpSpec::Read(McKey::X)],
            crashes: 1,
            stall: false,
            seed: 0x10c4,
        }
    }

    /// Overrides the crash budget.
    #[must_use]
    pub fn with_crashes(mut self, crashes: u32) -> McConfig {
        self.crashes = crashes;
        self
    }

    /// Longest program length across the two actors.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.a.len().max(self.b.len())
    }
}

/// The standard sweep: every 2-node configuration the exploration report
/// covers, for one protocol. All stay within 1–2 shards and ≤3 ops.
#[must_use]
pub fn standard_configs(protocol: ProtocolKind) -> Vec<McConfig> {
    vec![
        McConfig::minimal(protocol),
        // Write/write race on one key, plus a read-back.
        McConfig {
            name: "ww-1s",
            protocol,
            shards: 1,
            a: vec![OpSpec::Write(McKey::X), OpSpec::Read(McKey::X)],
            b: vec![OpSpec::Write(McKey::X)],
            crashes: 1,
            stall: false,
            seed: 0x10c4,
        },
        // Disjoint keys: the config where commutativity — and therefore
        // sleep-set pruning — is strongest.
        McConfig {
            name: "xy-1s",
            protocol,
            shards: 1,
            a: vec![OpSpec::Write(McKey::X), OpSpec::Read(McKey::X)],
            b: vec![OpSpec::Write(McKey::Y), OpSpec::Read(McKey::Y)],
            crashes: 1,
            stall: false,
            seed: 0x10c4,
        },
        // Two shards, three ops, cross-key reads, one stall injection.
        McConfig {
            name: "xy-2s",
            protocol,
            shards: 2,
            a: vec![
                OpSpec::Write(McKey::X),
                OpSpec::Write(McKey::Y),
                OpSpec::Read(McKey::X),
            ],
            b: vec![OpSpec::Read(McKey::Y), OpSpec::Read(McKey::X)],
            crashes: 1,
            stall: true,
            seed: 0x10c4,
        },
    ]
}

/// Outcome of one (re-)executed schedule.
#[derive(Clone, Debug)]
pub struct McOutcome {
    /// Oracle violations (driver failures plus audit complaints).
    pub violations: Vec<String>,
    /// The decision vector actually taken.
    pub schedule: Schedule,
    /// Canonical line-per-event rendering of the recorded history —
    /// byte-identical across replays of the same (seed, schedule) pair.
    pub history: String,
    /// Number of history events recorded.
    pub events: usize,
    /// True when the run was cut short as sleep-set redundant.
    pub aborted: bool,
    /// The flight-recorder dump, if the audit triggered one.
    pub flight_dump: Option<String>,
}

// ---------------------------------------------------------------------
// Turn gate: rendezvous between the actors and the coordinator.
// ---------------------------------------------------------------------

#[derive(Default)]
struct Slot {
    parked: bool,
    granted: bool,
    fp: u64,
    waker: Option<Waker>,
    done: bool,
    error: Option<String>,
}

struct GateInner {
    slots: Vec<Slot>,
    coord: Option<Waker>,
}

#[derive(Clone)]
struct TurnGate {
    inner: Rc<RefCell<GateInner>>,
}

impl TurnGate {
    fn new(actors: usize) -> TurnGate {
        TurnGate {
            inner: Rc::new(RefCell::new(GateInner {
                slots: (0..actors).map(|_| Slot::default()).collect(),
                coord: None,
            })),
        }
    }

    /// Parks until the coordinator grants this actor a turn. `fp` is the
    /// footprint of the action the actor will take with the turn.
    async fn turn(&self, me: usize, fp: u64) {
        poll_fn(|cx| {
            let mut g = self.inner.borrow_mut();
            let slot = &mut g.slots[me];
            if slot.granted {
                slot.granted = false;
                Poll::Ready(())
            } else {
                slot.parked = true;
                slot.fp = fp;
                slot.waker = Some(cx.waker().clone());
                if let Some(w) = g.coord.take() {
                    w.wake();
                }
                Poll::Pending
            }
        })
        .await;
    }

    fn finish(&self, me: usize, error: Option<String>) {
        let mut g = self.inner.borrow_mut();
        let slot = &mut g.slots[me];
        slot.done = true;
        slot.parked = false;
        slot.error = error;
        if let Some(w) = g.coord.take() {
            w.wake();
        }
    }

    fn grant(&self, who: usize) {
        let mut g = self.inner.borrow_mut();
        let slot = &mut g.slots[who];
        debug_assert!(slot.parked && !slot.done);
        slot.parked = false;
        slot.granted = true;
        if let Some(w) = slot.waker.take() {
            w.wake();
        }
    }

    /// Resolves when every live actor is parked (returning their ids in
    /// index order) or all actors are done (returning empty).
    async fn all_parked(&self) -> Vec<usize> {
        poll_fn(|cx| {
            let mut g = self.inner.borrow_mut();
            if g.slots.iter().all(|s| s.done || s.parked) {
                let parked: Vec<usize> =
                    (0..g.slots.len()).filter(|&i| g.slots[i].parked).collect();
                Poll::Ready(parked)
            } else {
                g.coord = Some(cx.waker().clone());
                Poll::Pending
            }
        })
        .await
    }

    fn errors(&self) -> Vec<String> {
        self.inner
            .borrow()
            .slots
            .iter()
            .filter_map(|s| s.error.clone())
            .collect()
    }
}

// ---------------------------------------------------------------------
// The harness proper.
// ---------------------------------------------------------------------

/// One SSF: the standard crash-retry driver around [`Env::run`] (as the
/// runtime's retry loop and the systematic offset-sweep tests drive it),
/// with a turn taken before `init`, before every op, and, at the end of
/// the body, before `finish`.
async fn actor(
    gate: TurnGate,
    client: Client,
    footprints: Rc<CrashFootprints>,
    me: usize,
    id: InstanceId,
    node: NodeId,
    program: Vec<OpSpec>,
) {
    let frame = |op| client.with_config(|c| frame_footprint(c.default.logging_row(op, c), me));
    // One footprint per turn: the scheduler's and the crash choices'.
    let turn = async |fp: u64| {
        gate.turn(me, fp).await;
        footprints.set(id, fp);
    };
    let mut attempt = 0;
    loop {
        turn(frame(MatrixOp::Init)).await;
        let spec = InvocationSpec::new(id, node).attempt(attempt);
        let once = Env::run(&client, spec, async |env: &mut Env, _| {
            for (step, op) in program.iter().enumerate() {
                turn(client.with_config(|c| op.footprint(c, me))).await;
                match op {
                    OpSpec::Read(k) => {
                        env.read(&k.key()).await?;
                    }
                    OpSpec::Write(k) => {
                        let value = Value::Int(100 * (me as i64 + 1) + step as i64);
                        env.write(&k.key(), value).await?;
                    }
                }
            }
            turn(frame(MatrixOp::Finish)).await;
            Ok(Value::Int(me as i64))
        });
        match once.await {
            Ok(_) => break,
            Err(e) if e.is_crash() => {
                attempt += 1;
                client.ctx().sleep(Duration::from_micros(700)).await;
            }
            Err(e) => {
                gate.finish(me, Some(format!("actor {me} failed: {e}")));
                return;
            }
        }
    }
    gate.finish(me, None);
}

/// The coordinator: waits for every live actor to park, builds the
/// scheduling alternatives (one per parked actor, plus at most one
/// sequencer-stall injection), asks the choice source, and grants the
/// winner its turn. Exactly one actor runs at a time.
async fn coordinate(
    gate: TurnGate,
    source: Rc<dyn ChoiceSource>,
    client: Client,
    stall_budget: u32,
) {
    let mut stalls_left = stall_budget;
    loop {
        let parked = gate.all_parked().await;
        if parked.is_empty() {
            return;
        }
        let mut alts: Vec<Alt> = parked
            .iter()
            .map(|&i| {
                let fp = gate.inner.borrow().slots[i].fp;
                Alt::new(SCHED_TAG | i as u64, fp)
            })
            .collect();
        if stalls_left > 0 {
            alts.push(Alt::new(STALL_ID, FP_LOG_CLOCK));
        }
        let pick = source.choose("sched", &alts);
        if pick >= parked.len() {
            // Stall injection: book dead time on shard 0's sequencer and
            // re-choose who runs into it.
            stalls_left -= 1;
            client
                .log()
                .stall_sequencer(ShardId(0), Duration::from_micros(200));
            continue;
        }
        gate.grant(parked[pick]);
    }
}

/// Executes one run of `config` with every choice resolved by `source`.
///
/// This *is* a normal sim run — fixed seed, deterministic executor — so
/// the same `(seed, schedule)` pair always produces the same
/// [`McOutcome::history`], byte for byte.
pub fn run_once(config: &McConfig, source: &Rc<dyn ChoiceSource>) -> McOutcome {
    let mut sim = Sim::new(config.seed);
    let ctx = sim.ctx();
    let fr = FlightRecorder::new();
    let mut builder = Client::builder(ctx.clone())
        .model(LatencyModel::uniform_test_model())
        .protocol(config.protocol)
        .recorder()
        .flight_recorder(fr.clone());
    if config.shards > 1 {
        builder = builder.topology(Topology::sharded(config.shards));
    }
    let client = builder.build();
    client.populate(Key::new("X"), Value::Int(1));
    client.populate(Key::new("Y"), Value::Int(2));
    let footprints = CrashFootprints::new();
    client.set_fault_plan(FaultPolicy::explored(
        source.clone(),
        config.crashes,
        footprints.clone(),
    ));

    let gate = TurnGate::new(2);
    ctx.spawn_detached(actor(
        gate.clone(),
        client.clone(),
        footprints.clone(),
        0,
        InstanceId(0xa),
        NodeId(0),
        config.a.clone(),
    ));
    ctx.spawn_detached(actor(
        gate.clone(),
        client.clone(),
        footprints,
        1,
        InstanceId(0xb),
        NodeId(1),
        config.b.clone(),
    ));
    sim.block_on(coordinate(
        gate.clone(),
        source.clone(),
        client.clone(),
        u32::from(config.stall),
    ));

    let mut violations = gate.errors();
    let aborted = source.pruned();
    if !aborted {
        // Note the replayable schedule *before* the audit so a violation
        // dump carries it in the incident ring.
        fr.note(
            ctx.now(),
            "mc_schedule",
            format!("seed={:#x} picks={}", config.seed, source.taken()),
        );
        let report = audit(&client);
        violations.extend(report.violations);
    }
    let history: String = client.recorder().map_or_else(String::new, |r| {
        let lines: Vec<String> = r.events().iter().map(|e| format!("{e:?}")).collect();
        lines.join("\n")
    });
    let events = client.recorder().map_or(0, |r| r.len());
    McOutcome {
        violations,
        schedule: source.taken(),
        history,
        events,
        aborted,
        flight_dump: fr.last_dump(),
    }
}

/// Replays a recorded [`Schedule`] against `config` as a plain sim run.
#[must_use]
pub fn run_schedule(config: &McConfig, schedule: &Schedule) -> McOutcome {
    run_once(
        config,
        &(Rc::new(ScriptedChoices::new(schedule)) as Rc<dyn ChoiceSource>),
    )
}

/// Exhaustively explores `config`: every scheduling order × every crash
/// placement within the budget (× the optional stall injection), with
/// sleep-set pruning on or off and the root frontier spread over
/// `workers` threads, capped at the host's cores (1 ⇒ the calling
/// thread). Statistics and counterexamples are identical at every worker
/// count.
#[must_use]
pub fn explore_config(config: &McConfig, pruning: bool, workers: usize) -> ExploreStats {
    Explorer::new()
        .pruning(pruning)
        .explore_parallel(workers, |chooser: &DfsChooser| {
            let outcome = run_once(config, &(Rc::new(chooser.clone()) as Rc<dyn ChoiceSource>));
            RunReport::new(outcome.violations)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The footprints `OpSpec::footprint` and `frame_footprint` read off
    /// the logging matrix, held against what the protocols do: a turn
    /// declares `FP_LOG_CLOCK` exactly when running it moves the log's
    /// append counter. A wrong bit would make sleep-set pruning silently
    /// unsound.
    #[test]
    fn declared_log_footprint_matches_the_append_counter() {
        let protocols = [
            ProtocolKind::HalfmoonRead,
            ProtocolKind::HalfmoonWrite,
            ProtocolKind::Boki,
            ProtocolKind::Unsafe,
        ];
        for protocol in protocols {
            for op in [OpSpec::Read(McKey::X), OpSpec::Write(McKey::Y)] {
                let mut sim = Sim::new(7);
                let client = Client::builder(sim.ctx())
                    .model(LatencyModel::uniform_test_model())
                    .protocol(protocol)
                    .build();
                client.populate(Key::new("X"), Value::Int(1));
                client.populate(Key::new("Y"), Value::Int(2));
                sim.block_on(async move {
                    let appends = || client.log().counters().log_appends;
                    let declares = |fp: u64| fp & FP_LOG_CLOCK != 0;
                    let config = ProtocolConfig::uniform(protocol);
                    let frame =
                        |op| declares(frame_footprint(protocol.logging_row(op, &config), 0));
                    let spec = InvocationSpec::new(InstanceId(0xa), NodeId(0));
                    let before = appends();
                    let mut env = Env::init(&client, spec).await.expect("init");
                    let init = frame(MatrixOp::Init);
                    assert_eq!(appends() != before, init, "{protocol}: init");

                    let before = appends();
                    match op {
                        OpSpec::Read(k) => drop(env.read(&k.key()).await.expect("read")),
                        OpSpec::Write(k) => {
                            env.write(&k.key(), Value::Int(100)).await.expect("write");
                        }
                    }
                    let declared = declares(op.footprint(&config, 0));
                    assert_eq!(appends() != before, declared, "{protocol}: {op:?}");

                    let before = appends();
                    env.finish(Value::Null).await.expect("finish");
                    let finish = frame(MatrixOp::Finish);
                    assert_eq!(appends() != before, finish, "{protocol}: finish");
                });
            }
        }
    }
}
