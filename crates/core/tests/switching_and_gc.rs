//! Focused tests of the switching state machine (§4.7/§5.2) and garbage
//! collector (§4.5) beyond the happy paths covered in `protocols.rs`.

use std::time::Duration;

use halfmoon::{
    audit, Client, Env, FaultPolicy, GarbageCollector, ProtocolConfig, ProtocolKind, Site, Switcher,
};
use hm_common::latency::LatencyModel;
use hm_common::{HmResult, Key, Value};
use hm_substrate::sim::Sim;

mod common;

use common::{run_ssf, spec, NODE};

/// Delay between an attempt's crash and its retry.
const RETRY: Option<Duration> = Some(Duration::from_millis(1));

fn setup(kind: ProtocolKind, switching: bool) -> (Sim, Client) {
    let sim = Sim::new(0x56c);
    let mut config = ProtocolConfig::uniform(kind);
    config.switching_enabled = switching;
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::uniform_test_model())
        .protocol_config(config)
        .recorder()
        .build();
    (sim, client)
}

fn writer(key: &'static str, val: i64) -> impl AsyncFn(&mut Env, Value) -> HmResult<Value> {
    async move |env: &mut Env, _| {
        env.write(&Key::new(key), Value::Int(val)).await?;
        Ok(Value::Null)
    }
}

fn reader(key: &'static str) -> impl AsyncFn(&mut Env, Value) -> HmResult<Value> {
    async move |env: &mut Env, _| env.read(&Key::new(key)).await
}

// ---------------------------------------------------------------------
// Switching edge cases
// ---------------------------------------------------------------------

/// Values written before a switch are visible after it, in both directions.
#[test]
fn data_survives_switch_in_both_directions() {
    for (from, to) in [
        (ProtocolKind::HalfmoonWrite, ProtocolKind::HalfmoonRead),
        (ProtocolKind::HalfmoonRead, ProtocolKind::HalfmoonWrite),
    ] {
        let (mut sim, client) = setup(from, true);
        client.populate(Key::new("D"), Value::Int(1));
        // Write under the old protocol.
        let w = client.fresh_instance_id();
        sim.block_on(run_ssf(client.clone(), spec(w), RETRY, writer("D", 42)))
            .unwrap();
        // Switch.
        let switcher = Switcher::new(client.clone(), NODE);
        sim.block_on(async move { switcher.switch_to(to).await })
            .unwrap();
        // Read under the new protocol.
        let r = client.fresh_instance_id();
        let seen = sim
            .block_on(run_ssf(client.clone(), spec(r), RETRY, reader("D")))
            .unwrap();
        assert_eq!(seen, Value::Int(42), "{from} -> {to}");
        audit(&client).assert_passed(format_args!("{from}->{to}"));
    }
}

/// A second switch reverses the first; data written in every epoch stays
/// visible.
#[test]
fn double_switch_round_trip() {
    let (mut sim, client) = setup(ProtocolKind::HalfmoonWrite, true);
    client.populate(Key::new("D"), Value::Int(0));
    let switcher = Switcher::new(client.clone(), NODE);
    let c = client.clone();
    sim.block_on(async move {
        run_ssf(
            c.clone(),
            spec(c.fresh_instance_id()),
            RETRY,
            writer("D", 1),
        )
        .await
        .unwrap();
        switcher
            .switch_to(ProtocolKind::HalfmoonRead)
            .await
            .unwrap();
        run_ssf(
            c.clone(),
            spec(c.fresh_instance_id()),
            RETRY,
            writer("D", 2),
        )
        .await
        .unwrap();
        switcher
            .switch_to(ProtocolKind::HalfmoonWrite)
            .await
            .unwrap();
        run_ssf(
            c.clone(),
            spec(c.fresh_instance_id()),
            RETRY,
            writer("D", 3),
        )
        .await
        .unwrap();
        let seen = run_ssf(c.clone(), spec(c.fresh_instance_id()), RETRY, reader("D"))
            .await
            .unwrap();
        assert_eq!(seen, Value::Int(3));
    });
    audit(&client).assert_passed("double switch round trip");
}

/// An SSF that initialized before BEGIN and is retried *after* BEGIN must
/// keep using its original protocol resolution (fault tolerance of the
/// switch, §4.7: resolution is bounded by the initial cursor).
#[test]
fn retry_spanning_a_switch_resolves_consistently() {
    let (mut sim, client) = setup(ProtocolKind::HalfmoonWrite, true);
    client.populate(Key::new("S"), Value::Int(5));
    let id = client.fresh_instance_id();
    // Crash at the write's entry (point 4), after the read, so the
    // retry happens post-switch.
    client.set_fault_plan(FaultPolicy::at([(id, 4)]));
    let ctx = sim.ctx();
    let body = async |env: &mut Env, _| {
        let v = env.read(&Key::new("S")).await?.as_int().unwrap_or(0);
        // Stall so the switch overlaps the crash/retry window.
        env.client().ctx().sleep(Duration::from_millis(80)).await;
        env.write(&Key::new("S"), Value::Int(v * 10)).await?;
        Ok(Value::Int(v))
    };
    let h = ctx.spawn(run_ssf(client.clone(), spec(id), RETRY, body));
    let sw = {
        let client = client.clone();
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            ctx2.sleep(Duration::from_millis(20)).await;
            Switcher::new(client, NODE)
                .switch_to(ProtocolKind::HalfmoonRead)
                .await
        })
    };
    sim.run();
    h.try_take().expect("ssf finished").unwrap();
    sw.try_take().expect("switch finished").unwrap();
    assert_eq!(client.faults().injected_at(Site::OpEntry), 1);
    audit(&client).assert_passed("retry spanning a switch resolves consistently");
    // Effect applied exactly once despite the crash spanning the switch.
    let c = client;
    let seen = sim
        .block_on(run_ssf(
            c.clone(),
            spec(c.fresh_instance_id()),
            RETRY,
            reader("S"),
        ))
        .unwrap();
    assert_eq!(seen, Value::Int(50));
}

/// Transition-log resolution is per-SSF-lifetime: an SSF that started
/// before BEGIN never sees the new protocol even if it reads late.
#[test]
fn old_ssf_keeps_old_protocol_during_switch() {
    let (mut sim, client) = setup(ProtocolKind::HalfmoonWrite, true);
    client.populate(Key::new("O"), Value::Int(1));
    let ctx = sim.ctx();
    let slow = client.fresh_instance_id();
    let slow_body = async |env: &mut Env, _| {
        env.client().ctx().sleep(Duration::from_millis(100)).await;
        // This read resolves against the transition log bounded by the
        // SSF's *initial* cursor: still Halfmoon-write (logged read).
        let before = env.client().log().counters().log_appends;
        let v = env.read(&Key::new("O")).await?;
        let after = env.client().log().counters().log_appends;
        assert!(after > before, "old-protocol read must be logged");
        Ok(v)
    };
    let h = ctx.spawn(run_ssf(client.clone(), spec(slow), RETRY, slow_body));
    let sw = {
        let client = client;
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            ctx2.sleep(Duration::from_millis(10)).await;
            Switcher::new(client, NODE)
                .switch_to(ProtocolKind::HalfmoonRead)
                .await
        })
    };
    sim.run();
    assert_eq!(h.try_take().expect("ssf done").unwrap(), Value::Int(1));
    let report = sw.try_take().expect("switch done").unwrap();
    // The switch had to wait for the slow SSF: END after its finish.
    assert!(report.switching_delay() >= Duration::from_millis(90));
}

/// Boki → Halfmoon-read switching works too (the mechanism is generic).
#[test]
fn switch_from_boki_to_halfmoon() {
    let (mut sim, client) = setup(ProtocolKind::Boki, true);
    client.populate(Key::new("B"), Value::Int(9));
    let c = client.clone();
    sim.block_on(async move {
        run_ssf(
            c.clone(),
            spec(c.fresh_instance_id()),
            RETRY,
            writer("B", 10),
        )
        .await
        .unwrap();
        let switcher = Switcher::new(c.clone(), NODE);
        switcher
            .switch_to(ProtocolKind::HalfmoonRead)
            .await
            .unwrap();
        let seen = run_ssf(c.clone(), spec(c.fresh_instance_id()), RETRY, reader("B"))
            .await
            .unwrap();
        assert_eq!(seen, Value::Int(10));
        assert_eq!(
            switcher.current_protocol().await.unwrap(),
            ProtocolKind::HalfmoonRead
        );
    });
    audit(&client).assert_passed("switch from boki to halfmoon");
}

// ---------------------------------------------------------------------
// Garbage collector edge cases
// ---------------------------------------------------------------------

/// An empty deployment GC cycle is a no-op with a head watermark.
#[test]
fn gc_on_empty_deployment() {
    let (mut sim, client) = setup(ProtocolKind::HalfmoonRead, false);
    let gc = GarbageCollector::new(client, NODE);
    let stats = sim.block_on(async move { gc.collect().await });
    assert_eq!(stats.instances_reclaimed, 0);
    assert_eq!(stats.versions_deleted, 0);
}

/// Repeated GC cycles are idempotent: the second collection over the same
/// state reclaims nothing further.
#[test]
fn gc_is_idempotent() {
    let (mut sim, client) = setup(ProtocolKind::HalfmoonRead, false);
    client.populate(Key::new("G"), Value::Int(0));
    let c = client;
    sim.block_on(async move {
        for i in 0..4 {
            run_ssf(
                c.clone(),
                spec(c.fresh_instance_id()),
                RETRY,
                writer("G", i),
            )
            .await
            .unwrap();
        }
        let gc = GarbageCollector::new(c.clone(), NODE);
        let first = gc.collect().await;
        assert_eq!(first.versions_deleted, 3);
        let second = gc.collect().await;
        assert_eq!(second.instances_reclaimed, 0);
        assert_eq!(second.versions_deleted, 0);
    });
}

/// The GC must not reclaim the step log of an SSF that crashed and has not
/// yet retried — its records are needed for replay.
#[test]
fn gc_preserves_state_of_crashed_unfinished_ssf() {
    let (mut sim, client) = setup(ProtocolKind::HalfmoonRead, false);
    client.populate(Key::new("C"), Value::Int(7));
    let id = client.fresh_instance_id();
    client.set_fault_plan(FaultPolicy::at([(id, 6)]));
    let body = async |env: &mut Env, _| {
        let v = env.read(&Key::new("C")).await?.as_int().unwrap_or(0);
        env.write(&Key::new("C"), Value::Int(v + 1)).await?;
        Ok(Value::Null)
    };
    // First attempt only — it will crash at point 6, after the write,
    // before its finish record.
    let c2 = client.clone();
    let attempt = sim
        .ctx()
        .spawn(async move { Env::run(&c2, spec(id), body).await });
    sim.run();
    let crashed = attempt.try_take().expect("attempt resolved");
    assert!(matches!(crashed, Err(e) if e.is_crash()));
    assert_eq!(client.faults().injected_at(Site::BeforeAppend), 1);
    // GC runs while the SSF is "down" awaiting re-execution.
    let step_records_before = client.log().peek_stream(id.step_log_tag()).len();
    assert!(step_records_before > 0);
    let gc = GarbageCollector::new(client.clone(), NODE);
    let stats = sim.block_on(async move { gc.collect().await });
    assert_eq!(
        stats.instances_reclaimed, 0,
        "unfinished SSF must be preserved"
    );
    assert_eq!(
        client.log().peek_stream(id.step_log_tag()).len(),
        step_records_before
    );
    // The retry completes correctly from the preserved log.
    sim.block_on(run_ssf(client.clone(), spec(id), RETRY, body))
        .unwrap();
    audit(&client).assert_passed("gc preserves state of crashed unfinished ssf");
    let c = client;
    let seen = sim
        .block_on(run_ssf(
            c.clone(),
            spec(c.fresh_instance_id()),
            RETRY,
            reader("C"),
        ))
        .unwrap();
    assert_eq!(seen, Value::Int(8), "exactly one increment");
}

/// Halfmoon-write read-log records live exactly as long as their SSF: once
/// finished and collected, the step log is fully reclaimed.
#[test]
fn gc_reclaims_read_logs_of_finished_hmwrite_ssfs() {
    let (mut sim, client) = setup(ProtocolKind::HalfmoonWrite, false);
    client.populate(Key::new("R"), Value::blob(256, 1));
    let c = client;
    sim.block_on(async move {
        for _ in 0..5 {
            run_ssf(c.clone(), spec(c.fresh_instance_id()), RETRY, reader("R"))
                .await
                .unwrap();
        }
        let live_before = c.log().live_records();
        assert!(live_before >= 15, "init + read log + finish per SSF");
        let gc = GarbageCollector::new(c.clone(), NODE);
        let stats = gc.collect().await;
        assert_eq!(stats.instances_reclaimed, 5);
        assert_eq!(c.log().live_records(), 0, "everything reclaimed");
        assert_eq!(c.log().current_bytes(), 0.0);
    });
}

/// GC interleaved with live traffic never breaks reads (no
/// `MissingVersion` surfaced) — hammer test.
#[test]
fn gc_hammer_with_live_traffic() {
    let (mut sim, client) = setup(ProtocolKind::HalfmoonRead, false);
    for k in 0..4 {
        client.populate(Key::new(format!("h{k}")), Value::Int(0));
    }
    let ctx = sim.ctx();
    let mut handles = Vec::new();
    for i in 0..60u64 {
        let client = client.clone();
        let ctx2 = ctx.clone();
        handles.push(ctx.spawn(async move {
            ctx2.sleep(Duration::from_micros(i * 400)).await;
            let id = client.fresh_instance_id();
            let body = async move |env: &mut Env, _| {
                let k = Key::new(format!("h{}", i % 4));
                let v = env.read(&k).await?.as_int().unwrap_or(0);
                env.write(&k, Value::Int(v + 1)).await?;
                env.read(&k).await
            };
            run_ssf(client, spec(id), RETRY, body).await
        }));
    }
    // Aggressive GC every 2ms, concurrent with the traffic.
    let gc_handle = {
        let client = client.clone();
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            let gc = GarbageCollector::new(client, NODE);
            let mut total = 0usize;
            for _ in 0..20 {
                ctx2.sleep(Duration::from_millis(2)).await;
                total += gc.collect().await.versions_deleted;
            }
            total
        })
    };
    sim.run();
    for h in handles {
        h.try_take()
            .expect("ssf finished")
            .expect("no MissingVersion under GC");
    }
    assert!(
        gc_handle.try_take().expect("gc ran") > 0,
        "GC reclaimed under load"
    );
    audit(&client).assert_passed("gc hammer with live traffic");
}
