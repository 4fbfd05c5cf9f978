//! Runtime substrate tests: registration, workflows, admission control,
//! crash retries under load, duplicate peers, the gateway's open-loop
//! generator, and the periodic GC driver.

use std::rc::Rc;
use std::time::Duration;

use halfmoon::{audit, Client, Env, FaultPolicy, InvocationSpec, ProtocolKind};
use hm_common::latency::LatencyModel;
use hm_common::{Key, NodeId, Value};
use hm_runtime::{Gateway, GcDriver, LoadSpec, Runtime, RuntimeConfig};
use hm_substrate::sim::Sim;

fn setup(kind: ProtocolKind, config: RuntimeConfig) -> (Sim, Client, Runtime) {
    let sim = Sim::new(0x5e7);
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::uniform_test_model())
        .protocol(kind)
        .recorder()
        .build();
    let runtime = Runtime::new(client.clone(), config);
    (sim, client, runtime)
}

/// Reads `key` back through the deployment's protocol, as one SSF.
fn read_back(sim: &mut Sim, client: Client, key: &'static str) -> Value {
    let id = client.fresh_instance_id();
    sim.block_on(async move {
        let spec = InvocationSpec::new(id, NodeId(0));
        Env::run(&client, spec, async |env: &mut Env, _| {
            env.read(&Key::new(key)).await
        })
        .await
    })
    .unwrap()
}

fn register_counter(runtime: &Runtime) {
    runtime.register("bump", async move |env, _input| {
        let c = env.read(&Key::new("C")).await?.as_int().unwrap_or(0);
        env.compute().await;
        env.write(&Key::new("C"), Value::Int(c + 1)).await?;
        Ok(Value::Int(c + 1))
    });
}

#[test]
fn invoke_request_runs_registered_function() {
    let (mut sim, client, runtime) = setup(ProtocolKind::HalfmoonWrite, RuntimeConfig::default());
    client.populate(Key::new("C"), Value::Int(0));
    register_counter(&runtime);
    let rt = runtime.clone();
    let out = sim.block_on(async move { rt.invoke_request("bump", Value::Null).await });
    assert_eq!(out.unwrap(), Value::Int(1));
    assert_eq!(client.store().peek(&Key::new("C")), Some(Value::Int(1)));
    assert_eq!(runtime.invocations(), 1);
    assert_eq!(runtime.retries(), 0);
}

#[test]
fn unknown_function_errors() {
    let (mut sim, _client, runtime) = setup(ProtocolKind::HalfmoonWrite, RuntimeConfig::default());
    let rt = runtime;
    let out = sim.block_on(async move { rt.invoke_request("nope", Value::Null).await });
    assert!(matches!(
        out,
        Err(hm_common::HmError::UnknownFunction { .. })
    ));
}

#[test]
fn workflow_children_are_dispatched_through_runtime() {
    let (mut sim, client, runtime) = setup(ProtocolKind::HalfmoonRead, RuntimeConfig::default());
    client.populate(Key::new("C"), Value::Int(10));
    register_counter(&runtime);
    runtime.register("parent", async move |env, _input| {
        let a = env.invoke("bump", Value::Null).await?;
        let b = env.invoke("bump", Value::Null).await?;
        Ok(Value::list(vec![a, b]))
    });
    let rt = runtime.clone();
    let out = sim
        .block_on(async move { rt.invoke_request("parent", Value::Null).await })
        .unwrap();
    assert_eq!(out, Value::list(vec![Value::Int(11), Value::Int(12)]));
    // parent + two children.
    assert_eq!(runtime.invocations(), 3);
}

#[test]
fn admission_control_bounds_concurrency() {
    let config = RuntimeConfig {
        nodes: 1,
        workers_per_node: 2,
        ..RuntimeConfig::default()
    };
    let (mut sim, client, runtime) = setup(ProtocolKind::HalfmoonWrite, config);
    client.populate(Key::new("C"), Value::Int(0));
    // A slow function holding its slot for 50ms.
    runtime.register("slow", async move |env, _| {
        env.client().ctx().sleep(Duration::from_millis(50)).await;
        Ok(Value::Null)
    });
    let ctx = sim.ctx();
    let started = ctx.now();
    let mut handles = Vec::new();
    for _ in 0..6 {
        let rt = runtime.clone();
        handles.push(ctx.spawn(async move { rt.invoke_request("slow", Value::Null).await }));
    }
    sim.run();
    for h in &handles {
        h.try_take().expect("request completed").unwrap();
    }
    // 6 requests, 2 slots, ~50ms each: at least 3 serial batches.
    let elapsed = sim.now() - started;
    assert!(elapsed >= Duration::from_millis(150), "elapsed {elapsed:?}");
}

#[test]
fn crash_retries_preserve_exactly_once_under_load() {
    let (mut sim, client, runtime) = setup(ProtocolKind::HalfmoonWrite, RuntimeConfig::default());
    client.populate(Key::new("C"), Value::Int(0));
    client.set_fault_plan(FaultPolicy::random(0.03, 200));
    register_counter(&runtime);
    let ctx = sim.ctx();
    let mut handles = Vec::new();
    for i in 0..50u64 {
        let rt = runtime.clone();
        let ctx2 = ctx.clone();
        handles.push(ctx.spawn(async move {
            ctx2.sleep(Duration::from_micros(i * 500)).await;
            rt.invoke_request("bump", Value::Null).await
        }));
    }
    sim.run();
    for h in &handles {
        h.try_take().expect("request completed").unwrap();
    }
    assert!(
        runtime.retries() > 0,
        "expected some injected crashes to trigger retries"
    );
    audit(&client).assert_passed("crash retries preserve exactly once under load");
    // Counter increments are read-modify-write races (not transactions),
    // but the value must be in range and the store must be consistent.
    let c = client
        .store()
        .peek(&Key::new("C"))
        .unwrap()
        .as_int()
        .unwrap();
    assert!((1..=50).contains(&c));
}

#[test]
fn duplicate_peers_do_not_duplicate_effects() {
    let config = RuntimeConfig {
        duplicate_prob: 1.0, // always launch a peer
        ..RuntimeConfig::default()
    };
    let (mut sim, client, runtime) = setup(ProtocolKind::HalfmoonRead, config);
    client.populate(Key::new("C"), Value::Int(0));
    register_counter(&runtime);
    let rt = runtime.clone();
    let out = sim
        .block_on(async move { rt.invoke_request("bump", Value::Null).await })
        .unwrap();
    sim.run(); // let the peer drain
    assert_eq!(out, Value::Int(1));
    assert!(runtime.duplicates() >= 1);
    audit(&client).assert_passed("duplicate peers do not duplicate effects");
    // Re-read through the protocol: the counter was bumped exactly once.
    assert_eq!(read_back(&mut sim, client, "C"), Value::Int(1));
}

#[test]
fn gateway_open_loop_reports_latency_and_throughput() {
    let (mut sim, client, runtime) = setup(ProtocolKind::HalfmoonWrite, RuntimeConfig::default());
    for k in 0..16 {
        client.populate(Key::new(format!("k{k}")), Value::Int(0));
    }
    runtime.register("rw", async move |env, input| {
        let key = Key::new(input.as_str().unwrap_or("k0").to_string());
        let v = env.read(&key).await?.as_int().unwrap_or(0);
        env.write(&key, Value::Int(v + 1)).await?;
        Ok(Value::Null)
    });
    let gateway = Gateway::new(runtime);
    let spec = LoadSpec {
        rate_per_sec: 200.0,
        duration: Duration::from_secs(5),
        warmup: Duration::from_secs(1),
        factory: Rc::new(|rng, i| {
            use rand::RngExt;
            let _ = i;
            let k: u32 = rng.random_range(0..16);
            ("rw".to_string(), Value::str(format!("k{k}")))
        }),
    };
    let report = sim.block_on(async move { gateway.run_open_loop(spec).await });
    assert!(report.generated > 800, "generated {}", report.generated);
    assert_eq!((report.errors, report.unfinished), (0, 0));
    assert!(report.completed as f64 >= report.generated as f64 * 0.99);
    let median = report.latency.median_ms().unwrap();
    // Test model: read 1ms + write 1.7ms + log 1ms + hop 0.2ms + compute.
    assert!(median > 2.0 && median < 20.0, "median {median}");
}

#[test]
fn requests_outliving_the_drain_grace_count_as_unfinished() {
    let (mut sim, _client, runtime) = setup(ProtocolKind::HalfmoonWrite, RuntimeConfig::default());
    runtime.register("stuck", async move |env, _| {
        env.client().ctx().sleep(Duration::from_secs(60)).await;
        Ok(Value::Null)
    });
    let gateway = Gateway::new(runtime);
    let spec = LoadSpec {
        rate_per_sec: 100.0,
        duration: Duration::from_secs(1),
        warmup: Duration::from_millis(200),
        factory: Rc::new(|_, _| ("stuck".to_string(), Value::Null)),
    };
    let report = sim.block_on(async move { gateway.run_open_loop(spec).await });
    assert!(report.generated > 50, "generated {}", report.generated);
    assert_eq!((report.completed, report.errors), (0, 0));
    assert_eq!(report.unfinished, report.generated);
    assert_eq!(report.latency.count(), 0);
}

#[test]
fn saturation_raises_latency() {
    // Tiny pool: 2 workers; service time ~4ms ⇒ capacity ≈ 500/s.
    let config = RuntimeConfig {
        nodes: 1,
        workers_per_node: 2,
        ..RuntimeConfig::default()
    };
    let measure = |rate: f64| {
        let (mut sim, client, runtime) = setup(ProtocolKind::HalfmoonWrite, config);
        client.populate(Key::new("k"), Value::Int(0));
        runtime.register("rw", async move |env, _| {
            let v = env.read(&Key::new("k")).await?.as_int().unwrap_or(0);
            env.write(&Key::new("k"), Value::Int(v + 1)).await?;
            Ok(Value::Null)
        });
        let gateway = Gateway::new(runtime);
        let spec = LoadSpec {
            rate_per_sec: rate,
            duration: Duration::from_secs(4),
            warmup: Duration::from_millis(500),
            factory: Rc::new(|_, _| ("rw".to_string(), Value::Null)),
        };
        let report = sim.block_on(async move { gateway.run_open_loop(spec).await });
        report.latency.median_ms().unwrap()
    };
    let light = measure(50.0);
    let heavy = measure(450.0);
    assert!(
        heavy > light * 1.5,
        "expected queueing delay near saturation: light {light} heavy {heavy}"
    );
}

#[test]
fn gc_driver_reclaims_periodically() {
    let (mut sim, client, runtime) = setup(ProtocolKind::HalfmoonRead, RuntimeConfig::default());
    client.populate(Key::new("K"), Value::Int(0));
    runtime.register("w", async move |env, input| {
        env.write(&Key::new("K"), input).await?;
        Ok(Value::Null)
    });
    let driver = GcDriver::start(client.clone(), NodeId(7), Duration::from_millis(100));
    let ctx = sim.ctx();
    let rt = runtime;
    let work = ctx.spawn(async move {
        for i in 0..10 {
            rt.invoke_request("w", Value::Int(i)).await.unwrap();
        }
    });
    sim.run_until(sim.now() + Duration::from_secs(1));
    assert!(work.is_finished());
    assert!(driver.cycles() >= 8, "cycles {}", driver.cycles());
    let totals = driver.totals();
    assert_eq!(totals.instances_reclaimed, 10);
    assert_eq!(
        totals.versions_deleted, 9,
        "all but the newest version collected"
    );
    assert_eq!(client.store().version_count(), 1);
    driver.stop();
    let cycles = driver.cycles();
    sim.run_until(sim.now() + Duration::from_secs(1));
    assert_eq!(driver.cycles(), cycles, "driver stopped");
}

/// §4's timeout-suspicion race: a peer launched against an attempt that
/// is still live (it starts 2 ms in; the primary runs at least 40 ms).
/// Conditional appends keep the effect exactly-once.
#[test]
fn live_peer_racing_a_slow_attempt_is_exactly_once() {
    let config = RuntimeConfig {
        duplicate_prob: 1.0,
        ..RuntimeConfig::default()
    };
    let (mut sim, client, runtime) = setup(ProtocolKind::HalfmoonRead, config);
    client.populate(Key::new("C"), Value::Int(0));
    runtime.register("slow-bump", async move |env, _| {
        let c = env.read(&Key::new("C")).await?.as_int().unwrap_or(0);
        env.client().ctx().sleep(Duration::from_millis(40)).await;
        env.write(&Key::new("C"), Value::Int(c + 1)).await?;
        Ok(Value::Int(c + 1))
    });
    let rt = runtime.clone();
    let out = sim.block_on(async move { rt.invoke_request("slow-bump", Value::Null).await });
    sim.run(); // drain the peer
    assert_eq!(out.unwrap(), Value::Int(1));
    assert_eq!(runtime.duplicates(), 1, "one peer per request");
    // Exactly one increment despite primary + live peer.
    assert_eq!(read_back(&mut sim, client, "C"), Value::Int(1));
}

/// A request queued for a worker slot holds its arguments and its place in
/// the admission queue, not the execution's state: under overload thousands
/// of requests queue at once, so whatever this future holds is paid per
/// queued request. The execution is boxed once the slot is held.
#[test]
fn a_queued_request_future_stays_small() {
    let (_sim, _client, runtime) = setup(ProtocolKind::HalfmoonRead, RuntimeConfig::default());
    let queued = runtime.invoke_request("f", Value::Null);
    let size = std::mem::size_of_val(&queued);
    println!("invoke_request future: {size} B");
    assert!(size <= 512, "invoke_request future is {size} B");
}
