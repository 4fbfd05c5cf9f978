//! The §1 anomaly, demonstrated: naive retry-based fault tolerance
//! duplicates updates, and Halfmoon's logging protocols prevent it.
//!
//! A counter is incremented by a read-modify-write SSF (which then reads
//! it back) that crashes once, at each crash point in turn. Under the
//! unsafe baseline a crash after the write makes the retry re-apply it
//! (counter = 2); under every fault-tolerant protocol the effect is
//! exactly once (counter = 1). Every run's recorded history is audited:
//! the fault-tolerant protocols pass, and the unsafe baseline's
//! duplicated runs print their violations. The raw write is recorded
//! only once its attempt survives its `AfterEffect` crash point, so a
//! crash right there shows as a re-read (`read_stability`), and a crash
//! at the read-back as the duplicate write (`raw_write_uniqueness`).
//!
//! Run with: `cargo run --example fault_injection`

use halfmoon::{audit, AuditReport, Client, Env, FaultPolicy, InvocationSpec, ProtocolKind};
use hm_common::{HmResult, Key, NodeId, Value};
use hm_substrate::sim::Sim;

async fn increment(env: &mut Env, _input: Value) -> HmResult<Value> {
    let c = env.read(&Key::new("counter")).await?.as_int().unwrap_or(0);
    env.write(&Key::new("counter"), Value::Int(c + 1)).await?;
    env.read(&Key::new("counter")).await
}

fn run(kind: ProtocolKind, crash_point: u32) -> (i64, u32, AuditReport) {
    let mut sim = Sim::new(99);
    let client = Client::builder(sim.ctx()).protocol(kind).recorder().build();
    client.populate(Key::new("counter"), Value::Int(0));
    // The target instance id is drawn after construction, so the fault
    // plan is installed late via `set_fault_plan`.
    let id = client.fresh_instance_id();
    client.set_fault_plan(FaultPolicy::at([(id, crash_point)]));
    let client2 = client.clone();
    sim.block_on(async move {
        // The platform's retry loop: re-execute until the SSF completes.
        let mut attempt = 0;
        loop {
            let spec = InvocationSpec::new(id, NodeId(0)).attempt(attempt);
            match Env::run(&client2, spec, increment).await {
                Ok(_) => break,
                Err(e) if e.is_crash() => attempt += 1,
                Err(e) => panic!("{e}"),
            }
        }
    });
    // Read the counter back through the same protocol.
    let client2 = client.clone();
    let id = client.fresh_instance_id();
    let v = sim.block_on(async move {
        let spec = InvocationSpec::new(id, NodeId(0));
        Env::run(&client2, spec, async |env: &mut Env, _| {
            env.read(&Key::new("counter")).await
        })
        .await
    });
    let counter = v.unwrap().as_int().unwrap();
    (counter, client.faults().injected(), audit(&client))
}

fn main() {
    println!("increment once, crash once at each crash point in turn, retry:\n");
    for kind in [
        ProtocolKind::Unsafe,
        ProtocolKind::Boki,
        ProtocolKind::HalfmoonRead,
        ProtocolKind::HalfmoonWrite,
    ] {
        // Sweep crash points and report the worst final counter value —
        // the unsafe baseline will double-apply at some point.
        let mut worst = 0i64;
        let mut duplicated = Vec::new();
        for point in 1..10 {
            let (counter, injected, report) = run(kind, point);
            if injected > 0 {
                worst = worst.max(counter);
            }
            if kind != ProtocolKind::Unsafe {
                report.assert_passed(format_args!("{} point {point}", kind.label()));
            } else if counter > 1 {
                assert!(!report.passed(), "point {point}: duplicate not audited");
                duplicated.push((point, report.violations));
            }
        }
        let verdict = if worst == 1 {
            "exactly-once ✓"
        } else {
            "DUPLICATED ✗"
        };
        println!(
            "{:<16} worst-case counter after 1 increment: {worst}   {verdict}",
            kind.label()
        );
        for (point, violations) in duplicated {
            for v in violations {
                println!("  crash point {point}, audit: {v}");
            }
        }
    }
    println!(
        "\nThe unsafe baseline re-applies the write on retry; the logged protocols\n\
         replay their logs and skip (or no-op) the completed write (§2, §4)."
    );
}
