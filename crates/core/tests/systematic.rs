//! Systematic concurrency exploration: instead of sampling random
//! interleavings, sweep a fine grid of start-offset alignments between two
//! SSFs (with constant operation latencies, the offset fully determines
//! the interleaving of their operation boundaries) crossed with every
//! crash point of one of them. Every run must satisfy the §2 idempotence
//! invariants and the §4.4 ordering propositions.
//!
//! This is the spirit of systematic interleaving explorers (FlyMC, DCatch
//! — cited in §7) applied through the deterministic simulator: a few
//! thousand exact schedules instead of a random walk.

use std::time::Duration;

use halfmoon::{Client, Env, FaultPolicy, ProtocolKind};
use hm_common::latency::LatencyModel;
use hm_common::{HmResult, InstanceId, Key, Value};
use hm_substrate::sim::Sim;

mod common;

use common::{run_ssf, spec};

/// Delay between an attempt's crash and its retry.
const RETRY: Option<Duration> = Some(Duration::from_micros(700));

/// SSF A: read X, write X (tagged value), read Y, write Y.
async fn ssf_a(env: &mut Env, _input: Value) -> HmResult<Value> {
    let x = env.read(&Key::new("X")).await?.as_int().unwrap_or(0);
    env.write(&Key::new("X"), Value::Int(1000 + x)).await?;
    let y = env.read(&Key::new("Y")).await?.as_int().unwrap_or(0);
    env.write(&Key::new("Y"), Value::Int(2000 + y)).await?;
    Ok(Value::Int(x))
}

/// SSF B: write X, write Y, read X.
async fn ssf_b(env: &mut Env, _input: Value) -> HmResult<Value> {
    env.write(&Key::new("X"), Value::Int(77)).await?;
    env.write(&Key::new("Y"), Value::Int(88)).await?;
    env.read(&Key::new("X")).await
}

fn explore(kind: ProtocolKind, crash_point: Option<u32>, offset_us: u64) {
    let mut sim = Sim::new(0x5c4ed);
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::uniform_test_model())
        .protocol(kind)
        .recorder()
        .build();
    let recorder = client.recorder().expect("recorder enabled at build");
    client.populate(Key::new("X"), Value::Int(1));
    client.populate(Key::new("Y"), Value::Int(2));
    let a = InstanceId(0xa);
    let b = InstanceId(0xb);
    if let Some(point) = crash_point {
        client.set_fault_plan(FaultPolicy::at([(a, point)]));
    }
    let ctx = sim.ctx();
    let ha = ctx.spawn(run_ssf(client.clone(), spec(a), RETRY, ssf_a));
    let hb = {
        let client = client;
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            ctx2.sleep(Duration::from_micros(offset_us)).await;
            run_ssf(client, spec(b), RETRY, ssf_b).await
        })
    };
    sim.run();
    let label = format!("{kind} crash={crash_point:?} offset={offset_us}us");
    ha.try_take()
        .unwrap_or_else(|| panic!("{label}: A stalled"))
        .unwrap();
    hb.try_take()
        .unwrap_or_else(|| panic!("{label}: B stalled"))
        .unwrap();
    recorder
        .check_all_generic()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    match kind {
        ProtocolKind::HalfmoonRead => recorder
            .check_hm_read_sequential_consistency()
            .unwrap_or_else(|e| panic!("{label}: {e}")),
        ProtocolKind::HalfmoonWrite => recorder
            .check_hm_write_order()
            .unwrap_or_else(|e| panic!("{label}: {e}")),
        _ => {}
    }
}

/// Failure-free sweep: 80 offset alignments per protocol. With constant
/// test-model latencies (ops are 0.1–1.7 ms), a 250 µs grid over 20 ms
/// covers every distinct boundary alignment of the two op sequences.
#[test]
fn offset_sweep_failure_free() {
    for kind in [
        ProtocolKind::HalfmoonRead,
        ProtocolKind::HalfmoonWrite,
        ProtocolKind::Boki,
    ] {
        for step in 0..80u64 {
            explore(kind, None, step * 250);
        }
    }
}

/// The full grid: every crash point of SSF A × coarse offset alignments.
#[test]
fn crash_cross_offset_grid() {
    for kind in [ProtocolKind::HalfmoonRead, ProtocolKind::HalfmoonWrite] {
        for point in 1..16u32 {
            for step in 0..20u64 {
                explore(kind, Some(point), step * 1000);
            }
        }
    }
}
