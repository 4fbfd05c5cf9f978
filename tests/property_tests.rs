//! Property-based tests: random SSF programs, random crash schedules, and
//! random concurrent interleavings must all preserve the paper's
//! correctness claims.
//!
//! - `exactly_once_random_programs_and_crashes`: a randomly generated
//!   straight-line program (reads/writes over a small keyspace) is run with
//!   a randomly chosen crash schedule under each fault-tolerant protocol;
//!   the final state read back through the protocol must equal a pure
//!   oracle interpretation of the program, and every idempotence invariant
//!   must hold.
//! - `consistency_random_concurrent_load`: several random programs run
//!   concurrently with random start offsets and crash points; Proposition
//!   4.7 (Halfmoon-read) / 4.8 (Halfmoon-write) checkers must accept the
//!   resulting histories.
//! - `audit_reports_each_planted_violation_by_its_checker` and
//!   `audit_verdicts_do_not_depend_on_recording_order`: seeded synthetic
//!   histories that pass every check of their proposition, with violations
//!   planted into chosen instances. Each kind of violation must be
//!   reported by its own checker, and every checker's verdict, message
//!   included, must survive any reshuffle of the instances' interleaving
//!   in recording order (the trace-invariance DESIGN.md §13 relies on).
//!
//! The environment has no proptest, so each property runs as a seeded-RNG
//! case loop: all inputs derive from a fixed base seed plus the case index,
//! making every failure reproducible by its printed case number.

use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;
use std::time::Duration;

use halfmoon::{
    Client, Env, Event, EventKind, FaultPolicy, InvocationSpec, ProtocolKind, Recorder,
};
use hm_common::latency::LatencyModel;
use hm_common::{FxHashMap, HmResult, InstanceId, Key, NodeId, SeqNum, Value, VersionTuple};
use hm_substrate::sim::Sim;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// One program step over a 4-key space.
#[derive(Clone, Copy, Debug)]
enum ProgOp {
    Read(u8),
    Write(u8),
}

fn random_op(rng: &mut SmallRng) -> ProgOp {
    let k = rng.random_range(0u8..4);
    if rng.random_bool(0.5) {
        ProgOp::Read(k)
    } else {
        ProgOp::Write(k)
    }
}

fn random_program(rng: &mut SmallRng, max_len: usize) -> Vec<ProgOp> {
    (0..rng.random_range(1..max_len))
        .map(|_| random_op(rng))
        .collect()
}

fn random_crash_points(rng: &mut SmallRng, max_point: u32, max_count: usize) -> BTreeSet<u32> {
    (0..rng.random_range(0..=max_count))
        .map(|_| rng.random_range(1..max_point))
        .collect()
}

fn key(idx: u8) -> Key {
    Key::new(format!("pk{idx}"))
}

/// Runs `program` as one SSF under `kind`, retrying on injected crashes.
/// Written values are unique per (instance, op index) so the oracle can
/// identify exactly which write produced the final state.
async fn run_program(
    client: Client,
    id: InstanceId,
    program: Rc<Vec<ProgOp>>,
    tag: i64,
) -> HmResult<()> {
    let mut attempt = 0;
    loop {
        let spec = InvocationSpec::new(id, NodeId(0)).attempt(attempt);
        let once = Env::run(&client, spec, async |env: &mut Env, _| {
            for (i, op) in program.iter().enumerate() {
                match op {
                    ProgOp::Read(k) => {
                        env.read(&key(*k)).await?;
                    }
                    ProgOp::Write(k) => {
                        env.write(&key(*k), Value::Int(tag * 1000 + i as i64))
                            .await?;
                    }
                }
            }
            Ok(Value::Null)
        });
        match once.await {
            Ok(_) => return Ok(()),
            Err(e) if e.is_crash() => {
                attempt += 1;
                client.ctx().sleep(Duration::from_millis(1)).await;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Pure oracle: the last write to each key in program order.
fn oracle_final(program: &[ProgOp], tag: i64) -> FxHashMap<u8, i64> {
    let mut state = FxHashMap::default();
    for (i, op) in program.iter().enumerate() {
        if let ProgOp::Write(k) = op {
            state.insert(*k, tag * 1000 + i as i64);
        }
    }
    state
}

fn read_back(sim: &mut Sim, client: &Client, k: u8) -> Value {
    let client = client.clone();
    sim.block_on(async move {
        let spec = InvocationSpec::new(client.fresh_instance_id(), NodeId(0));
        Env::run(&client, spec, async |env: &mut Env, _| {
            env.read(&key(k)).await
        })
        .await
    })
    .unwrap()
}

#[test]
fn exactly_once_random_programs_and_crashes() {
    for case in 0u64..48 {
        let mut g = SmallRng::seed_from_u64(0xe0ce_1000 ^ case);
        let program = random_program(&mut g, 10);
        let crash_points = random_crash_points(&mut g, 40, 3);
        let seed = g.random_range(0u64..1_000_000);
        let kind = [
            ProtocolKind::HalfmoonRead,
            ProtocolKind::HalfmoonWrite,
            ProtocolKind::Boki,
        ][(case % 3) as usize];

        let mut sim = Sim::new(seed);
        let client = Client::builder(sim.ctx())
            .model(LatencyModel::uniform_test_model())
            .protocol(kind)
            .recorder()
            .build();
        let recorder = client.recorder().expect("recorder enabled at build");
        for k in 0..4 {
            client.populate(key(k), Value::Int(-(i64::from(k))));
        }
        let id = client.fresh_instance_id();
        client.set_fault_plan(FaultPolicy::at(crash_points.iter().map(|p| (id, *p))));
        let program = Rc::new(program);
        let p2 = program.clone();
        let c2 = client.clone();
        sim.block_on(async move { run_program(c2, id, p2, 7).await })
            .unwrap();

        // Final state must equal the oracle's for every key.
        let oracle = oracle_final(&program, 7);
        for k in 0..4u8 {
            let got = read_back(&mut sim, &client, k);
            let want = oracle
                .get(&k)
                .map_or(Value::Int(-(i64::from(k))), |v| Value::Int(*v));
            assert_eq!(got, want, "case {case}: key {k} under {kind}");
        }
        recorder
            .check_all_generic()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        if kind == ProtocolKind::HalfmoonRead {
            recorder
                .check_hm_read_sequential_consistency()
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
        }
    }
}

#[test]
fn consistency_random_concurrent_load() {
    for case in 0u64..32 {
        let mut g = SmallRng::seed_from_u64(0xc0_2000 ^ case);
        let programs: Vec<Vec<ProgOp>> = (0..g.random_range(2usize..6))
            .map(|_| random_program(&mut g, 6))
            .collect();
        let offsets: Vec<u64> = (0..6).map(|_| g.random_range(0u64..20_000)).collect();
        let crash_points = random_crash_points(&mut g, 25, 2);
        let seed = g.random_range(0u64..1_000_000);
        let kind = if case % 2 == 0 {
            ProtocolKind::HalfmoonRead
        } else {
            ProtocolKind::HalfmoonWrite
        };

        let mut sim = Sim::new(seed);
        let client = Client::builder(sim.ctx())
            .model(LatencyModel::uniform_test_model())
            .protocol(kind)
            .recorder()
            .build();
        let recorder = client.recorder().expect("recorder enabled at build");
        for k in 0..4 {
            client.populate(key(k), Value::Int(-(i64::from(k))));
        }
        let ctx = sim.ctx();
        let mut handles = Vec::new();
        let mut first_id = None;
        for (i, program) in programs.into_iter().enumerate() {
            let id = client.fresh_instance_id();
            if first_id.is_none() {
                first_id = Some(id);
            }
            let client = client.clone();
            let ctx2 = ctx.clone();
            let offset = Duration::from_micros(offsets[i % offsets.len()]);
            let program = Rc::new(program);
            handles.push(ctx.spawn(async move {
                ctx2.sleep(offset).await;
                run_program(client, id, program, i as i64 + 1).await
            }));
        }
        // Crash schedule targets the first program's instance.
        if let Some(id) = first_id {
            client.set_fault_plan(FaultPolicy::at(crash_points.iter().map(|p| (id, *p))));
        }
        sim.run();
        for h in handles {
            h.try_take().expect("program completed").unwrap();
        }
        recorder
            .check_all_generic()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        match kind {
            ProtocolKind::HalfmoonRead => recorder
                .check_hm_read_sequential_consistency()
                .unwrap_or_else(|e| panic!("case {case}: {e}")),
            _ => recorder
                .check_hm_write_order()
                .unwrap_or_else(|e| panic!("case {case}: {e}")),
        }
    }
}

/// Which proposition a synthetic history satisfies: Halfmoon-read's
/// versioned writes and cursor reads (4.7), or Halfmoon-write's
/// conditional writes and store reads (4.8).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Flavour {
    HmRead,
    HmWrite,
}

/// A violation planted into one instance's history, on a key of its own.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Plant {
    DivergentReplayedRead,
    CommitDrift,
    DoubleAppliedCondWrite,
    DuplicatedRawWrite,
    BackwardsRead,
    ReadBehindOwnWrite,
    StaleRead48,
    FutureRead47,
}

impl Plant {
    const ALL: [Plant; 8] = [
        Plant::DivergentReplayedRead,
        Plant::CommitDrift,
        Plant::DoubleAppliedCondWrite,
        Plant::DuplicatedRawWrite,
        Plant::BackwardsRead,
        Plant::ReadBehindOwnWrite,
        Plant::StaleRead48,
        Plant::FutureRead47,
    ];

    /// The flavour the plant belongs to, if it needs one.
    fn flavour(self) -> Option<Flavour> {
        match self {
            Plant::CommitDrift | Plant::ReadBehindOwnWrite | Plant::FutureRead47 => {
                Some(Flavour::HmRead)
            }
            Plant::DoubleAppliedCondWrite | Plant::StaleRead48 => Some(Flavour::HmWrite),
            _ => None,
        }
    }

    /// The checker that must report it.
    fn checker(self) -> &'static str {
        match self {
            Plant::DivergentReplayedRead => "read_stability",
            Plant::CommitDrift | Plant::DoubleAppliedCondWrite => "write_determinism",
            Plant::DuplicatedRawWrite => "raw_write_uniqueness",
            Plant::BackwardsRead => "monotonic_reads",
            Plant::ReadBehindOwnWrite => "read_your_writes",
            Plant::StaleRead48 => "hm_write_order",
            Plant::FutureRead47 => "hm_read_sequential_consistency",
        }
    }
}

type Check = fn(&Recorder) -> Result<(), String>;

const CHECKERS: [(&str, Check); 8] = [
    ("read_stability", Recorder::check_read_stability),
    ("invoke_stability", Recorder::check_invoke_stability),
    ("write_determinism", Recorder::check_write_determinism),
    ("raw_write_uniqueness", Recorder::check_raw_write_uniqueness),
    ("monotonic_reads", Recorder::check_monotonic_reads),
    ("read_your_writes", Recorder::check_read_your_writes),
    (
        "hm_read_sequential_consistency",
        Recorder::check_hm_read_sequential_consistency,
    ),
    ("hm_write_order", Recorder::check_hm_write_order),
];

/// Whether `checker` judges histories of `flavour`.
fn applies(checker: &str, flavour: Flavour) -> bool {
    match checker {
        "hm_read_sequential_consistency" => flavour == Flavour::HmRead,
        "hm_write_order" => flavour == Flavour::HmWrite,
        _ => true,
    }
}

/// The base value of every key a synthetic history touches: `pk0..pk3`
/// for the programs, `pk4..pk7` for up to four plants.
const SYNTH_BASE: Value = Value::Int(0);

/// Every checker's verdict on `events` recorded in the given order.
fn verdicts(events: &[Event]) -> Vec<(&'static str, Result<(), String>)> {
    let recorder = Recorder::new();
    for k in 0..8u8 {
        recorder.set_base(&key(k), &SYNTH_BASE);
    }
    for e in events {
        recorder.record(e.clone());
    }
    CHECKERS
        .iter()
        .map(|&(name, check)| (name, check(&recorder)))
        .collect()
}

/// A seeded history that satisfies every check of its flavour: random
/// straight-line programs over `pk0..pk3` interleaved step by step, one
/// instant and one seqnum per recorded event, with crashes that replay an
/// instance's earlier ops under the next attempt.
struct SynthHistory {
    rng: SmallRng,
    flavour: Flavour,
    events: Vec<Event>,
    now: u64,
    /// Each instance and the next pc it has not used.
    instances: Vec<(InstanceId, u32)>,
    /// The fp of each key's latest effective write: every read is at a
    /// seqnum past every commit so far.
    latest: FxHashMap<Key, u64>,
    plants: u8,
}

impl SynthHistory {
    fn new(seed: u64, flavour: Flavour) -> SynthHistory {
        let mut h = SynthHistory {
            rng: SmallRng::seed_from_u64(seed),
            flavour,
            events: Vec::new(),
            now: 0,
            instances: Vec::new(),
            latest: FxHashMap::default(),
            plants: 0,
        };
        let programs: Vec<Vec<u8>> = (0..h.rng.random_range(6..10))
            .map(|_| {
                (0..h.rng.random_range(4..10))
                    .map(|_| h.rng.random_range(0..8))
                    .collect()
            })
            .collect();
        for _ in &programs {
            let id = InstanceId(h.rng.random::<u128>());
            h.instances.push((id, 0));
        }
        let mut next = vec![0u32; programs.len()];
        let mut attempt = vec![0u32; programs.len()];
        let mut done: Vec<Vec<EventKind>> = vec![Vec::new(); programs.len()];
        loop {
            let unfinished: Vec<usize> = (0..programs.len())
                .filter(|&i| (next[i] as usize) < programs[i].len())
                .collect();
            if unfinished.is_empty() {
                break;
            }
            let live = unfinished[h.rng.random_range(0..unfinished.len())];
            let (id, pc) = (h.instances[live].0, next[live]);
            let op = programs[live][pc as usize];
            let k = key(op % 4);
            let kind = match op / 4 {
                _ if pc % 5 == 4 => EventKind::Invoke {
                    callee: InstanceId(id.0 ^ u128::from(pc)),
                    fp: h.rng.random(),
                },
                _ if pc % 7 == 6 => EventKind::RawWrite {
                    key: k,
                    fp: h.rng.random(),
                },
                0 => h.read(&k),
                _ => h.write(&k),
            };
            h.push(id, attempt[live], pc, kind.clone());
            done[live].push(kind);
            next[live] += 1;
            if h.rng.random_bool(0.15) {
                attempt[live] += 1;
                for (pc, kind) in done[live].clone().into_iter().enumerate() {
                    if let Some(replay) = replayed(kind) {
                        h.push(id, attempt[live], pc as u32, replay);
                    }
                }
            }
        }
        for (i, slot) in h.instances.iter_mut().enumerate() {
            slot.1 = next[i];
        }
        h
    }

    fn push(&mut self, instance: InstanceId, attempt: u32, pc: u32, kind: EventKind) {
        self.now += 1;
        self.events.push(Event {
            instance,
            attempt,
            pc,
            at: Duration::from_nanos(self.now),
            kind,
        });
    }

    /// A fresh read of `k` at the next instant and seqnum.
    fn read(&self, k: &Key) -> EventKind {
        EventKind::Read {
            key: k.clone(),
            fp: self
                .latest
                .get(k)
                .copied()
                .unwrap_or_else(|| SYNTH_BASE.fingerprint()),
            logical: SeqNum(self.now + 1),
            fresh: true,
        }
    }

    /// An effective write of `k` at the next instant and seqnum.
    fn write(&mut self, k: &Key) -> EventKind {
        let (seq, fp) = (SeqNum(self.now + 1), self.rng.random::<u64>());
        self.latest.insert(k.clone(), fp);
        match self.flavour {
            Flavour::HmRead => EventKind::VersionedWrite {
                key: k.clone(),
                fp,
                commit: seq,
            },
            Flavour::HmWrite => EventKind::CondWrite {
                key: k.clone(),
                fp,
                version: VersionTuple::new(seq, 0),
                applied: true,
            },
        }
    }

    /// Plants `plant` in instance `target` (an index) on a key of its
    /// own, as ops after the instance's last pc, with the writes and
    /// reads of the plant's own flavour; returns the instance.
    fn plant(&mut self, plant: Plant, target: usize) -> InstanceId {
        let flavour = self.flavour;
        self.flavour = plant.flavour().unwrap_or(flavour);
        let id = self.plant_as(plant, target);
        self.flavour = flavour;
        id
    }

    fn plant_as(&mut self, plant: Plant, target: usize) -> InstanceId {
        let (id, pc) = self.instances[target];
        self.instances[target].1 += 3;
        let k = key(4 + self.plants);
        self.plants += 1;
        // An attempt number none of the instance's earlier events used.
        let attempt = 100 + u32::from(self.plants);
        let read = |h: &SynthHistory| h.read(&k);
        match plant {
            Plant::DivergentReplayedRead => {
                let kind = read(self);
                self.push(id, attempt, pc, kind.clone());
                let Some(EventKind::Read {
                    key, fp, logical, ..
                }) = replayed(kind)
                else {
                    unreachable!()
                };
                let divergent = EventKind::Read {
                    key,
                    fp: fp ^ 1,
                    logical,
                    fresh: false,
                };
                self.push(id, attempt + 1, pc, divergent);
            }
            Plant::CommitDrift | Plant::DoubleAppliedCondWrite | Plant::DuplicatedRawWrite => {
                let kind = match plant {
                    Plant::DuplicatedRawWrite => EventKind::RawWrite {
                        key: k.clone(),
                        fp: 7,
                    },
                    _ => self.write(&k),
                };
                self.push(id, attempt, pc, kind.clone());
                let again = match kind {
                    EventKind::VersionedWrite { key, fp, commit } => EventKind::VersionedWrite {
                        key,
                        fp,
                        commit: SeqNum(commit.0 + 1),
                    },
                    other => other,
                };
                self.push(id, attempt + 1, pc, again);
            }
            Plant::BackwardsRead => {
                let first = read(self);
                self.push(id, attempt, pc, first);
                let EventKind::Read { key, fp, .. } = read(self) else {
                    unreachable!()
                };
                let behind = EventKind::Read {
                    key,
                    fp,
                    logical: SeqNum(self.now - 1),
                    fresh: true,
                };
                self.push(id, attempt, pc + 1, behind);
            }
            Plant::ReadBehindOwnWrite => {
                let first = self.write(&k);
                let EventKind::VersionedWrite { commit, .. } = first else {
                    unreachable!()
                };
                self.push(id, attempt, pc, first);
                let seen = read(self);
                self.push(id, attempt, pc + 1, seen.clone());
                let second = self.write(&k);
                self.push(id, attempt, pc + 2, second);
                let Some(EventKind::Read { key, fp, fresh, .. }) = replayed(seen) else {
                    unreachable!()
                };
                let behind = EventKind::Read {
                    key,
                    fp,
                    logical: SeqNum(commit.0 - 1),
                    fresh,
                };
                self.push(id, attempt + 1, pc + 1, behind);
            }
            Plant::StaleRead48 => {
                let first = self.write(&k);
                let EventKind::CondWrite { fp: old, .. } = first else {
                    unreachable!()
                };
                self.push(id, attempt, pc, first);
                let second = self.write(&k);
                self.push(id, attempt, pc + 1, second);
                let EventKind::Read {
                    key,
                    logical,
                    fresh,
                    ..
                } = read(self)
                else {
                    unreachable!()
                };
                let stale = EventKind::Read {
                    key,
                    fp: old,
                    logical,
                    fresh,
                };
                self.push(id, attempt, pc + 2, stale);
            }
            Plant::FutureRead47 => {
                let EventKind::Read {
                    key,
                    logical,
                    fresh,
                    ..
                } = read(self)
                else {
                    unreachable!()
                };
                let future = self.rng.random::<u64>();
                let early = EventKind::Read {
                    key: key.clone(),
                    fp: future,
                    logical,
                    fresh,
                };
                self.push(id, attempt, pc, early);
                self.latest.insert(key.clone(), future);
                let write = EventKind::VersionedWrite {
                    key,
                    fp: future,
                    commit: SeqNum(self.now + 1),
                };
                self.push(id, attempt, pc + 1, write);
            }
        }
        id
    }

    /// The recording order reshuffled: each instance's events stay in
    /// their order, and every event keeps its instant.
    fn shuffled(&mut self) -> Vec<Event> {
        let mut queues: Vec<VecDeque<Event>> = Vec::new();
        let mut slot: FxHashMap<InstanceId, usize> = FxHashMap::default();
        for e in &self.events {
            let i = *slot.entry(e.instance).or_insert_with(|| {
                queues.push(VecDeque::new());
                queues.len() - 1
            });
            queues[i].push_back(e.clone());
        }
        let mut out = Vec::with_capacity(self.events.len());
        while out.len() < self.events.len() {
            let i = self.rng.random_range(0..queues.len());
            out.extend(queues[i].pop_front());
        }
        out
    }
}

/// What a re-executed attempt records for an earlier op: the same read
/// (no longer fresh), the same commit, the same conditional update (not
/// applied again), the same call; a raw write is lost with the crash.
fn replayed(kind: EventKind) -> Option<EventKind> {
    match kind {
        EventKind::Read {
            key, fp, logical, ..
        } => Some(EventKind::Read {
            key,
            fp,
            logical,
            fresh: false,
        }),
        EventKind::CondWrite {
            key, fp, version, ..
        } => Some(EventKind::CondWrite {
            key,
            fp,
            version,
            applied: false,
        }),
        EventKind::RawWrite { .. } => None,
        other => Some(other),
    }
}

/// Each planted violation kind is reported by its own checker, naming a
/// planted instance, in histories whose clean form passes every check of
/// their flavour.
#[test]
fn audit_reports_each_planted_violation_by_its_checker() {
    for (n, plant) in Plant::ALL.into_iter().enumerate() {
        for case in 0..6u64 {
            let seed = 0xa0d1_7000 + 16 * n as u64 + case;
            let flavour = plant.flavour().unwrap_or(if case % 2 == 0 {
                Flavour::HmRead
            } else {
                Flavour::HmWrite
            });
            let mut h = SynthHistory::new(seed, flavour);
            for (name, verdict) in verdicts(&h.events) {
                if applies(name, flavour) {
                    assert_eq!(
                        verdict,
                        Ok(()),
                        "seed {seed:#x}: clean {flavour:?} history, {name}"
                    );
                }
            }
            let planted = [h.plant(plant, 0), h.plant(plant, 1)];
            let (_, verdict) = verdicts(&h.events)
                .into_iter()
                .find(|(name, _)| *name == plant.checker())
                .expect("a checker of that name");
            let msg = verdict.expect_err(&format!("seed {seed:#x}: {plant:?} went unreported"));
            assert!(
                planted.iter().any(|id| msg.contains(&format!("{id:?}"))),
                "seed {seed:#x}: {plant:?} reported as {msg}"
            );
        }
    }
}

/// Every checker's verdict, message included, is the same however the
/// instances' events interleave in recording order, on histories with at
/// least two planted violations of one kind (and up to two more).
#[test]
fn audit_verdicts_do_not_depend_on_recording_order() {
    for case in 0..24u64 {
        let seed = 0x5e7_0000 + case;
        let flavour = if case % 2 == 0 {
            Flavour::HmRead
        } else {
            Flavour::HmWrite
        };
        let mut h = SynthHistory::new(seed, flavour);
        let twice = Plant::ALL[case as usize % Plant::ALL.len()];
        h.plant(twice, 0);
        h.plant(twice, 1);
        for target in 2..2 + h.rng.random_range(0..=2usize) {
            let plant = Plant::ALL[h.rng.random_range(0..Plant::ALL.len())];
            h.plant(plant, target);
        }
        let want = verdicts(&h.events);
        assert!(
            want.iter().any(|(_, v)| v.is_err()),
            "seed {seed:#x}: nothing reported"
        );
        for round in 0..8 {
            let order = h.shuffled();
            assert_eq!(verdicts(&order), want, "seed {seed:#x}, shuffle {round}");
        }
    }
}
