//! Snapshot reads (§4.1 Remark): under Halfmoon-read a multi-key read is a
//! true snapshot at one logical timestamp — no torn reads across keys —
//! while the logged protocols read keys individually.

use std::rc::Rc;
use std::time::Duration;

use halfmoon::{Client, Env, FaultPolicy, InvocationSpec, ProtocolKind, Recorder};
use hm_common::latency::LatencyModel;
use hm_common::{HmResult, Key, NodeId, Value};
use hm_substrate::sim::Sim;

const NODE: NodeId = NodeId(0);

fn keys() -> Vec<Key> {
    (0..4).map(|i| Key::new(format!("s{i}"))).collect()
}

fn setup(kind: ProtocolKind) -> (Sim, Client, Rc<Recorder>) {
    let sim = Sim::new(0x54a9);
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::uniform_test_model())
        .protocol(kind)
        .recorder()
        .build();
    let recorder = client.recorder().expect("recorder enabled at build");
    for k in keys() {
        client.populate(k, Value::Int(0));
    }
    (sim, client, recorder)
}

/// A writer SSF that updates all four keys to the same generation number,
/// one after the other (not atomic — separate writes).
async fn write_generation(client: Client, generation: i64) -> HmResult<()> {
    let id = client.fresh_instance_id();
    let mut env = Env::init(&client, InvocationSpec::new(id, NODE)).await?;
    for k in keys() {
        env.write(&k, Value::Int(generation)).await?;
    }
    env.finish(Value::Null).await?;
    Ok(())
}

#[test]
fn snapshot_values_come_from_one_timestamp() {
    let (mut sim, client, recorder) = setup(ProtocolKind::HalfmoonRead);
    // Interleave many writers with many snapshot readers.
    let ctx = sim.ctx();
    let mut writers = Vec::new();
    // Writers are spaced out so at most one is in flight at a time (one
    // writer takes ~20 ms in the test model); readers overlap them freely.
    for generation in 1..=10i64 {
        let client = client.clone();
        let ctx2 = ctx.clone();
        writers.push(ctx.spawn(async move {
            ctx2.sleep(Duration::from_millis(generation as u64 * 40))
                .await;
            write_generation(client, generation).await
        }));
    }
    let mut readers = Vec::new();
    for i in 0..20u64 {
        let client = client.clone();
        let ctx2 = ctx.clone();
        readers.push(ctx.spawn(async move {
            ctx2.sleep(Duration::from_millis(i * 21 + 1)).await;
            let id = client.fresh_instance_id();
            let mut env = Env::init(&client, InvocationSpec::new(id, NODE)).await?;
            let snap = env.read_snapshot(&keys()).await?;
            env.finish(Value::Null).await?;
            Ok::<_, hm_common::HmError>(snap)
        }));
    }
    sim.run();
    for w in writers {
        w.try_take().expect("writer done").unwrap();
    }
    for r in readers {
        let snap = r.try_take().expect("reader done").unwrap();
        // Generations move key-by-key, so a snapshot taken mid-writer may
        // legitimately span two *adjacent* generations (the writer's
        // effects become visible write-by-write in seqnum order) — but it
        // must never mix non-adjacent generations or go backwards.
        let gens: Vec<i64> = snap.iter().map(|v| v.as_int().unwrap()).collect();
        let min = *gens.iter().min().unwrap();
        let max = *gens.iter().max().unwrap();
        assert!(max - min <= 1, "torn snapshot across generations: {gens:?}");
        // Prefix property: within one writer, keys are written in order,
        // so newer generations appear as a prefix of the key list.
        if max > min {
            let boundary = gens.iter().position(|g| *g == min).unwrap();
            assert!(
                gens[..boundary].iter().all(|g| *g == max)
                    && gens[boundary..].iter().all(|g| *g == min),
                "non-prefix tear: {gens:?}"
            );
        }
    }
    recorder.check_all_generic().unwrap();
    recorder.check_hm_read_sequential_consistency().unwrap();
}

#[test]
fn snapshot_is_log_free_under_halfmoon_read() {
    let (mut sim, client, _r) = setup(ProtocolKind::HalfmoonRead);
    let c = client;
    sim.block_on(async move {
        write_generation(c.clone(), 1).await.unwrap();
        let appends_before = c.log().counters().log_appends;
        let id = c.fresh_instance_id();
        let mut env = Env::init(&c, InvocationSpec::new(id, NODE)).await.unwrap();
        let appends_after_init = c.log().counters().log_appends;
        let snap = env.read_snapshot(&keys()).await.unwrap();
        // The snapshot itself appended nothing.
        assert_eq!(c.log().counters().log_appends, appends_after_init);
        assert!(appends_after_init > appends_before, "init is logged");
        env.finish(Value::Null).await.unwrap();
        assert_eq!(snap, vec![Value::Int(1); 4]);
    });
}

#[test]
fn snapshot_is_idempotent_across_crash_retries() {
    for point in [2u32, 3, 4] {
        let (mut sim, client, recorder) = setup(ProtocolKind::HalfmoonRead);
        let id = client.fresh_instance_id();
        client.set_fault_plan(FaultPolicy::at([(id, point)]));
        let c = client.clone();
        let ctx = sim.ctx();
        // A concurrent writer mutates the keys between attempts.
        let writer = {
            let c = c.clone();
            let ctx2 = ctx.clone();
            ctx.spawn(async move {
                ctx2.sleep(Duration::from_millis(1)).await;
                write_generation(c, 9).await
            })
        };
        let reader = ctx.spawn(async move {
            let mut attempt = 0;
            loop {
                let c2 = c.clone();
                let once = async {
                    let mut env =
                        Env::init(&c2, InvocationSpec::new(id, NODE).attempt(attempt)).await?;
                    let snap = env.read_snapshot(&keys()).await?;
                    env.finish(Value::Null).await?;
                    Ok::<_, hm_common::HmError>(snap)
                };
                match once.await {
                    Ok(v) => return Ok::<_, hm_common::HmError>(v),
                    Err(e) if e.is_crash() => {
                        attempt += 1;
                        c.ctx().sleep(Duration::from_millis(30)).await;
                    }
                    Err(e) => return Err(e),
                }
            }
        });
        sim.run();
        writer.try_take().expect("writer done").unwrap();
        reader.try_take().expect("reader done").unwrap();
        // Stability check: all attempts of each snapshot slot returned the
        // same value even though the writer ran in between.
        recorder
            .check_read_stability()
            .unwrap_or_else(|e| panic!("point {point}: {e}"));
    }
}

#[test]
fn snapshot_falls_back_to_sequential_reads_on_logged_protocols() {
    for kind in [ProtocolKind::HalfmoonWrite, ProtocolKind::Boki] {
        let (mut sim, client, recorder) = setup(kind);
        let c = client.clone();
        sim.block_on(async move {
            write_generation(c.clone(), 3).await.unwrap();
            let appends_before = c.log().counters().log_appends;
            let id = c.fresh_instance_id();
            let mut env = Env::init(&c, InvocationSpec::new(id, NODE)).await.unwrap();
            let snap = env.read_snapshot(&keys()).await.unwrap();
            env.finish(Value::Null).await.unwrap();
            assert_eq!(snap, vec![Value::Int(3); 4], "{kind}");
            // Each constituent read was logged (init + 4 reads + finish).
            assert!(
                c.log().counters().log_appends >= appends_before + 6,
                "{kind}: logged protocols log snapshot reads"
            );
        });
        recorder.check_all_generic().unwrap();
    }
}
