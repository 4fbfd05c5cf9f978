//! Edge-case and misuse tests: non-deterministic bodies are detected,
//! missing keys behave, the unlogged baseline skips all logging, and the
//! runtime surfaces unrecoverable errors instead of looping.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use halfmoon::{Client, Env, FaultPolicy, InvocationSpec, ProtocolConfig, ProtocolKind, Site};
use hm_common::latency::LatencyModel;
use hm_common::{HmError, Key, NodeId, Value};
use hm_substrate::sim::Sim;

mod common;

use common::{run_ssf, spec};

/// Crashed attempts are retried at once.
const RETRY: Option<Duration> = None;

fn setup(kind: ProtocolKind) -> (Sim, Client) {
    setup_with(ProtocolConfig::uniform(kind))
}

fn setup_with(config: ProtocolConfig) -> (Sim, Client) {
    let sim = Sim::new(0xed6e);
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::uniform_test_model())
        .protocol_config(config)
        .build();
    (sim, client)
}

/// One operation of a scripted SSF body, on key X unless it names Y.
#[derive(Clone, Copy)]
enum Op {
    Read,
    Write,
    WriteY,
    Invoke,
}

/// A body that performs *different* logged operations on its retry is a
/// protocol violation (§2 requires deterministic SSFs); the one check in
/// `Env::step` must detect the mismatch at every kind of step rather than
/// corrupt state, and name the record variant the retry expected.
#[test]
fn non_deterministic_body_is_detected() {
    use Op::{Invoke, Read, Write, WriteY};
    use ProtocolKind::{Boki, HalfmoonWrite};
    // (configuration, crash point of the first attempt, its body, the
    // retry's body, the variant the retry expects where the log says
    // otherwise). Point 5 is after the first read is logged; point 3 is
    // after a write's intent record; point 6 is after a Halfmoon-write
    // body's write and read, the read's record logged. `finish` follows
    // every body.
    type Row = (
        ProtocolConfig,
        u32,
        &'static [Op],
        &'static [Op],
        &'static str,
    );
    let uniform = ProtocolConfig::uniform;
    let rows: [Row; 5] = [
        (
            uniform(HalfmoonWrite),
            5,
            &[Read, Read],
            &[Invoke],
            "Invoke",
        ),
        (uniform(Boki), 5, &[Read, Read], &[Invoke], "Invoke"),
        // The retry's second log-free write, to another key, appends the
        // order record (§4.4's extension) where the log holds the `Read`.
        (
            ProtocolConfig {
                preserve_write_order: true,
                ..uniform(HalfmoonWrite)
            },
            6,
            &[Write, Read],
            &[Write, WriteY],
            "Order",
        ),
        // A write→read swap: an intent where a `Read` is expected.
        (uniform(Boki), 3, &[Write], &[Read], "Read"),
        // `finish` reached one op early.
        (uniform(HalfmoonWrite), 5, &[Read, Read], &[], "Finish"),
    ];
    for (config, crash_at, first, retry, want) in rows {
        let kind = config.default;
        let (mut sim, client) = setup_with(config);
        let x = Key::new("X");
        client.populate(x.clone(), Value::Int(0));
        let id = client.fresh_instance_id();
        client.set_fault_plan(FaultPolicy::at([(id, crash_at)]));
        let body = async move |env: &mut Env, _| {
            for op in if env.attempt == 0 { first } else { retry } {
                match op {
                    Read => drop(env.read(&x).await?),
                    Write => env.write(&x, Value::Int(1)).await?,
                    WriteY => env.write(&Key::new("Y"), Value::Int(1)).await?,
                    Invoke => drop(env.invoke("nope", Value::Null).await?),
                }
            }
            Ok(Value::Null)
        };
        let result = sim.block_on(run_ssf(client.clone(), spec(id), RETRY, body));
        match result {
            Err(HmError::Config { what }) => assert!(
                what.contains("non-deterministic")
                    && what.contains(&format!("expected {want} at step")),
                "{kind}: {what}"
            ),
            other => panic!("{kind}: expected detection of {want}, got {other:?}"),
        }
    }
}

/// Reading a key that was never populated or written yields `Null` under
/// every protocol (not an error).
#[test]
fn missing_key_reads_null() {
    for kind in [
        ProtocolKind::HalfmoonRead,
        ProtocolKind::HalfmoonWrite,
        ProtocolKind::Boki,
        ProtocolKind::Unsafe,
    ] {
        let (mut sim, client) = setup(kind);
        let id = client.fresh_instance_id();
        let v = sim.block_on(run_ssf(
            client.clone(),
            spec(id),
            RETRY,
            async |env: &mut Env, _| env.read(&Key::new("ghost")).await,
        ));
        assert_eq!(v.unwrap(), Value::Null, "{kind}");
    }
}

/// Writing a never-populated key creates it; subsequent reads see it.
#[test]
fn write_then_read_fresh_key() {
    for kind in [
        ProtocolKind::HalfmoonRead,
        ProtocolKind::HalfmoonWrite,
        ProtocolKind::Boki,
    ] {
        let (mut sim, client) = setup(kind);
        let id = client.fresh_instance_id();
        let v = sim.block_on(run_ssf(
            client.clone(),
            spec(id),
            RETRY,
            async |env: &mut Env, _| {
                env.write(&Key::new("fresh"), Value::Int(11)).await?;
                env.read(&Key::new("fresh")).await
            },
        ));
        assert_eq!(v.unwrap(), Value::Int(11), "{kind}");
    }
}

/// The unlogged (unsafe) deployment appends nothing to the log at all.
#[test]
fn unsafe_mode_never_touches_the_log() {
    let (mut sim, client) = setup(ProtocolKind::Unsafe);
    client.populate(Key::new("U"), Value::Int(1));
    let id = client.fresh_instance_id();
    sim.block_on(run_ssf(
        client.clone(),
        spec(id),
        RETRY,
        async |env: &mut Env, _| {
            env.read(&Key::new("U")).await?;
            env.write(&Key::new("U"), Value::Int(2)).await?;
            Ok(Value::Null)
        },
    ))
    .unwrap();
    assert_eq!(client.log().counters().log_appends, 0);
    assert_eq!(client.log().counters().log_reads, 0);
    assert_eq!(client.log().live_records(), 0);
}

/// Invoking without a registered invoker is a configuration error.
#[test]
fn invoke_without_invoker_errors() {
    let (mut sim, client) = setup(ProtocolKind::HalfmoonRead);
    let id = client.fresh_instance_id();
    let out = sim.block_on(run_ssf(
        client,
        spec(id),
        RETRY,
        async |env: &mut Env, _| env.invoke("anything", Value::Null).await,
    ));
    assert!(matches!(out, Err(HmError::Config { .. })), "{out:?}");
}

/// Per-object static protocol assignment (§4.6): different keys run
/// different protocols in one deployment, and both behave correctly.
#[test]
fn per_key_protocol_mix() {
    let mut sim = Sim::new(0xed6e);
    let mut config = ProtocolConfig::uniform(ProtocolKind::HalfmoonRead);
    config
        .per_key
        .insert(Key::new("hot-write"), ProtocolKind::HalfmoonWrite);
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::uniform_test_model())
        .protocol_config(config)
        .build();
    client.populate(Key::new("hot-write"), Value::Int(0));
    client.populate(Key::new("hot-read"), Value::Int(0));
    let id = client.fresh_instance_id();
    sim.block_on(run_ssf(
        client.clone(),
        spec(id),
        RETRY,
        async |env: &mut Env, _| {
            env.write(&Key::new("hot-write"), Value::Int(1)).await?;
            env.write(&Key::new("hot-read"), Value::Int(2)).await?;
            assert_eq!(env.read(&Key::new("hot-write")).await?, Value::Int(1));
            assert_eq!(env.read(&Key::new("hot-read")).await?, Value::Int(2));
            Ok(Value::Null)
        },
    ))
    .unwrap();
    // The HM-write key stayed single-version; the HM-read key is versioned.
    assert_eq!(
        client.store().peek(&Key::new("hot-write")),
        Some(Value::Int(1))
    );
    assert_eq!(
        client.store().version_count(),
        1,
        "only the HM-read key made a version"
    );
}

/// `Value` inputs round-trip through init-record recovery: a peer launched
/// with a *wrong* input still runs with the logged one.
#[test]
fn peer_recovers_input_from_init_record() {
    let (mut sim, client) = setup(ProtocolKind::HalfmoonWrite);
    client.populate(Key::new("I"), Value::Int(0));
    let id = client.fresh_instance_id();
    let ctx = sim.ctx();
    let body = |input_observed: Rc<Cell<i64>>| {
        move |client: Client, id, input: Value| async move {
            let spec = spec(id).input(input);
            Env::run(&client, spec, async |env: &mut Env, input: Value| {
                input_observed.set(input.as_int().unwrap_or(-1));
                env.write(&Key::new("I"), input).await?;
                Ok(Value::Null)
            })
            .await
        }
    };
    let primary_seen = Rc::new(Cell::new(0));
    let peer_seen = Rc::new(Cell::new(0));
    let h1 = {
        let client = client.clone();
        let b = body(primary_seen.clone());
        ctx.spawn(async move { b(client, id, Value::Int(42)).await })
    };
    let h2 = {
        let client = client.clone();
        let ctx2 = ctx.clone();
        let b = body(peer_seen.clone());
        ctx.spawn(async move {
            ctx2.sleep(Duration::from_millis(4)).await;
            // Peer launched with a junk input: must adopt 42 from the log.
            b(client, id, Value::Int(-999)).await
        })
    };
    sim.run();
    h1.try_take().expect("primary done").unwrap();
    h2.try_take().expect("peer done").unwrap();
    assert_eq!(primary_seen.get(), 42);
    assert_eq!(peer_seen.get(), 42, "peer must recover the logged input");
    assert_eq!(client.store().peek(&Key::new("I")), Some(Value::Int(42)));
}

/// §7 opportunistic checkpointing: a retry on the same node serves its
/// log-free reads from the node-local checkpoint (no log read, no store
/// read), with identical results.
#[test]
fn checkpoints_accelerate_retries_without_changing_results() {
    let run = |checkpointing: bool| -> (Value, u64) {
        let mut sim = Sim::new(0xc4ec);
        let mut config = ProtocolConfig::uniform(ProtocolKind::HalfmoonRead);
        config.opportunistic_checkpoints = checkpointing;
        let client = Client::builder(sim.ctx())
            .model(LatencyModel::uniform_test_model())
            .protocol_config(config)
            .build();
        client.populate(Key::new("cp"), Value::Int(5));
        let id = client.fresh_instance_id();
        // Crash late, before finish, so the retry replays every read.
        client.set_fault_plan(FaultPolicy::at([(id, 9)]));
        let out = sim.block_on(run_ssf(
            client.clone(),
            spec(id),
            RETRY,
            async |env: &mut Env, _| {
                let mut acc = 0i64;
                for _ in 0..4 {
                    acc += env.read(&Key::new("cp")).await?.as_int().unwrap_or(0);
                }
                env.write(&Key::new("cp"), Value::Int(acc)).await?;
                Ok(Value::Int(acc))
            },
        ));
        assert_eq!(client.faults().injected_at(Site::BeforeAppend), 1);
        let reads = client.store().counters().db_reads + client.log().counters().log_reads;
        (out.unwrap(), reads)
    };
    let (plain_result, plain_reads) = run(false);
    let (cp_result, cp_reads) = run(true);
    assert_eq!(plain_result, cp_result, "checkpoints never change results");
    assert_eq!(plain_result, Value::Int(20));
    assert!(
        cp_reads < plain_reads,
        "checkpointed retry must issue fewer reads: {cp_reads} vs {plain_reads}"
    );
}

/// Checkpoints are node-local: a retry on a different node recomputes.
#[test]
fn checkpoints_do_not_leak_across_nodes() {
    let mut sim = Sim::new(0xc4ed);
    let mut config = ProtocolConfig::uniform(ProtocolKind::HalfmoonRead);
    config.opportunistic_checkpoints = true;
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::uniform_test_model())
        .protocol_config(config)
        .build();
    client.populate(Key::new("cp"), Value::Int(1));
    let id = client.fresh_instance_id();
    client.set_fault_plan(FaultPolicy::at([(id, 5)]));
    let c2 = client;
    let out = sim.block_on(async move {
        let mut attempt = 0;
        loop {
            // Retry lands on a different node each attempt.
            let spec = InvocationSpec::new(id, NodeId(attempt)).attempt(attempt);
            let once = Env::run(&c2, spec, async |env: &mut Env, _| {
                let v = env.read(&Key::new("cp")).await?;
                env.write(&Key::new("cp"), Value::Int(10)).await?;
                Ok(v)
            });
            match once.await {
                Ok(v) => return Ok::<_, HmError>(v),
                Err(e) if e.is_crash() => attempt += 1,
                Err(e) => return Err(e),
            }
        }
    });
    assert_eq!(
        out.unwrap(),
        Value::Int(1),
        "fresh node recomputes identically"
    );
}

/// Dropping the simulation drops its tasks, and with them every `Env`
/// still mid-attempt. A traced attempt closes its span on drop, but there
/// is no clock left to stamp the End with: the End is skipped, not a panic
/// inside `Drop`.
#[test]
fn dropping_the_sim_mid_attempt_does_not_panic_in_env_drop() {
    let mut sim = Sim::new(0xed6e);
    let tracer = hm_common::trace::Tracer::new();
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::uniform_test_model())
        .tracer(tracer.clone())
        .build();
    client.populate(Key::new("X"), Value::Int(0));
    let id = client.fresh_instance_id();
    let ctx = sim.ctx();
    ctx.spawn(async move {
        Env::run(&client, spec(id), async |env: &mut Env, _| {
            for _ in 0..100 {
                env.read(&Key::new("X")).await?;
            }
            Ok(Value::Null)
        })
        .await
    });
    sim.run_until(Duration::from_millis(5));
    drop(sim);
    let jsonl = tracer.export_jsonl();
    let attempt_span = jsonl
        .lines()
        .find(|l| l.contains("\"name\":\"attempt\""))
        .and_then(|l| l.split("\"span\":").nth(1)?.split(',').next())
        .expect("the attempt began");
    let closed = jsonl
        .lines()
        .any(|l| l.contains("\"ph\":\"E\"") && l.contains(&format!("\"span\":{attempt_span},")));
    assert!(!closed, "no instant to close the attempt span at");
}
