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
//!
//! The environment has no proptest, so each property runs as a seeded-RNG
//! case loop: all inputs derive from a fixed base seed plus the case index,
//! making every failure reproducible by its printed case number.

use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;

use halfmoon::{Client, Env, FaultPolicy, InvocationSpec, ProtocolKind};
use hm_common::latency::LatencyModel;
use hm_common::{FxHashMap, HmResult, InstanceId, Key, NodeId, Value};
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
    (0..rng.random_range(1..max_len)).map(|_| random_op(rng)).collect()
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
        let once = async {
            let mut env = Env::init(&client, InvocationSpec::new(id, NodeId(0)).attempt(attempt)).await?;
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
            env.finish(Value::Null).await?;
            Ok::<(), hm_common::HmError>(())
        };
        match once.await {
            Ok(()) => return Ok(()),
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
        let id = client.fresh_instance_id();
        let mut env = Env::init(&client, InvocationSpec::new(id, NodeId(0)))
            .await
            .unwrap();
        let v = env.read(&key(k)).await.unwrap();
        env.finish(Value::Null).await.unwrap();
        v
    })
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

/// Random graphs of concurrent transactional transfers with random crash
/// schedules conserve the total balance and never half-apply — atomicity
/// and exactly-once, composed.
#[test]
fn transactions_conserve_money() {
    for case in 0u64..24 {
        let mut g = SmallRng::seed_from_u64(0x7a_3000 ^ case);
        let transfers: Vec<(u8, u8, i64, u64)> = (0..g.random_range(1usize..8))
            .map(|_| {
                (
                    g.random_range(0u8..4),
                    g.random_range(0u8..4),
                    g.random_range(1i64..30),
                    g.random_range(0u64..8_000),
                )
            })
            .collect();
        let crash_points = random_crash_points(&mut g, 30, 2);
        let seed = g.random_range(0u64..1_000_000);

        let mut sim = Sim::new(seed);
        let client = Client::builder(sim.ctx())
            .model(LatencyModel::uniform_test_model())
            .protocol(ProtocolKind::HalfmoonRead)
            .recorder()
            .build();
        let recorder = client.recorder().expect("recorder enabled at build");
        for k in 0..4 {
            client.populate(key(k), Value::Int(100));
        }
        let ctx = sim.ctx();
        let mut handles = Vec::new();
        let mut first_id = None;
        for (from, to, amount, offset) in transfers {
            if from == to {
                continue;
            }
            let client = client.clone();
            let ctx2 = ctx.clone();
            let id = client.fresh_instance_id();
            if first_id.is_none() {
                first_id = Some(id);
            }
            handles.push(ctx.spawn(async move {
                ctx2.sleep(Duration::from_micros(offset)).await;
                let mut attempt = 0;
                loop {
                    let c2 = client.clone();
                    let once = async {
                        let mut env = Env::init(&c2, InvocationSpec::new(id, NodeId(0)).attempt(attempt)).await?;
                        for _ in 0..12 {
                            let mut txn = env.txn_begin()?;
                            let a = env.txn_read(&mut txn, &key(from)).await?.as_int().unwrap();
                            let b = env.txn_read(&mut txn, &key(to)).await?.as_int().unwrap();
                            if a < amount {
                                break;
                            }
                            env.txn_write(&mut txn, &key(from), Value::Int(a - amount));
                            env.txn_write(&mut txn, &key(to), Value::Int(b + amount));
                            if env.txn_commit(txn).await?.committed() {
                                break;
                            }
                            env.sync().await?;
                        }
                        env.finish(Value::Null).await
                    };
                    match once.await {
                        Ok(_) => return Ok::<_, hm_common::HmError>(()),
                        Err(e) if e.is_crash() => {
                            attempt += 1;
                            client.ctx().sleep(Duration::from_millis(1)).await;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }));
        }
        if let Some(id) = first_id {
            client.set_fault_plan(FaultPolicy::at(crash_points.iter().map(|p| (id, *p))));
        }
        sim.run();
        for h in handles {
            h.try_take().expect("transfer completed").unwrap();
        }
        let total: i64 = (0..4u8)
            .map(|k| read_back(&mut sim, &client, k).as_int().unwrap())
            .sum();
        assert_eq!(total, 400, "case {case}: money conserved");
        recorder
            .check_all_generic()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        recorder
            .check_hm_read_sequential_consistency()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}
