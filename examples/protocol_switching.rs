//! Pauseless protocol switching (§4.7) on a dynamic workload: the request
//! mix flips from write-heavy to read-heavy, the runtime switches from
//! Halfmoon-write to Halfmoon-read without blocking any SSF, and the §4.6
//! advisor explains why.
//!
//! Run with: `cargo run --release --example protocol_switching`

use std::time::Duration;

use halfmoon::choice::WorkloadProfile;
use halfmoon::{ProtocolConfig, ProtocolKind, Switcher};
use hm_common::latency::LatencyModel;
use hm_common::NodeId;
use hm_runtime::{Runtime, RuntimeConfig};
use hm_substrate::sim::Sim;
use hm_workloads::synthetic::SyntheticOps;
use hm_workloads::Workload;

fn main() {
    // The §4.6 advisor: which protocol fits which phase?
    let mut profile = WorkloadProfile {
        p_read: 0.2,
        p_write: 0.8,
        arrival_rate: 300.0,
        lifetime_secs: 0.05,
        gc_delay_secs: 5.0,
        meta_bytes: 32.0,
        value_bytes: 256.0,
    };
    println!(
        "phase 1 (read ratio 0.2): advisor says {}",
        profile.recommend_for_runtime(1.0, 2.0)
    );
    profile.p_read = 0.8;
    profile.p_write = 0.2;
    println!(
        "phase 2 (read ratio 0.8): advisor says {}",
        profile.recommend_for_runtime(1.0, 2.0)
    );

    // Deploy with switching enabled, starting on Halfmoon-write.
    let mut sim = Sim::new(7);
    let mut config = ProtocolConfig::uniform(ProtocolKind::HalfmoonWrite);
    config.switching_enabled = true;
    let client = halfmoon::Client::builder(sim.ctx())
        .model(LatencyModel::calibrated())
        .protocol_config(config)
        .build();
    let write_heavy = SyntheticOps {
        read_ratio: 0.2,
        objects: 1000,
        ..SyntheticOps::default()
    };
    let read_heavy = SyntheticOps {
        read_ratio: 0.8,
        objects: 1000,
        ..SyntheticOps::default()
    };
    write_heavy.populate(&client);
    let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
    write_heavy.register(&runtime);

    // Phase 1: write-heavy traffic under Halfmoon-write.
    let ctx = sim.ctx();
    let gen = |workload: &SyntheticOps, until: Duration| {
        let factory = workload.factory();
        let runtime = runtime.clone();
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            let mut done = 0u64;
            while ctx2.now() < until {
                let gap = ctx2.with_rng(|rng| hm_common::dist::exp_interarrival_secs(rng, 300.0));
                ctx2.sleep(Duration::from_secs_f64(gap)).await;
                let (func, input) = ctx2.with_rng(|rng| factory(rng, done));
                done += 1;
                let rt = runtime.clone();
                ctx2.spawn(async move {
                    let _ = rt.invoke_request(&func, input).await;
                });
            }
            done
        })
    };
    let phase1 = gen(&write_heavy, Duration::from_secs(3));
    sim.run_until(Duration::from_secs(3));

    // The mix flips: switch — SSFs keep running the whole time.
    let switcher = Switcher::new(client.clone(), NodeId(0));
    let phase2 = gen(&read_heavy, Duration::from_secs(6));
    let report = sim
        .block_on(async move { switcher.switch_to(ProtocolKind::HalfmoonRead).await })
        .expect("switch completes");
    println!(
        "\nswitched HM-write -> HM-read: BEGIN at {:?}, END at {:?} (delay {:.0} ms), settled at {:?}",
        report.begin_at,
        report.end_at,
        report.switching_delay().as_secs_f64() * 1e3,
        report.settled_at,
    );

    sim.run_until(Duration::from_secs(7));
    println!(
        "requests generated: phase1={} phase2={}",
        phase1.try_take().unwrap_or(0),
        phase2.try_take().unwrap_or(0)
    );
    let switcher = Switcher::new(client, NodeId(0));
    let current = sim
        .block_on(async move { switcher.current_protocol().await })
        .unwrap();
    println!("protocol now in force: {current}");
    assert_eq!(current, ProtocolKind::HalfmoonRead);
}
