//! The paper's travel-reservation workload (§6.2) end to end: a 10-SSF
//! hotel search/reserve workflow driven by an open-loop Poisson gateway,
//! compared across all four systems.
//!
//! Run with: `cargo run --release --example travel_reservation`

use std::time::Duration;

use halfmoon::{audit, ProtocolKind};
use hm_runtime::{Gateway, GcDriver, LoadSpec, Runtime, RuntimeConfig};
use hm_substrate::sim::Sim;
use hm_workloads::travel::Travel;
use hm_workloads::Workload;

fn run(kind: ProtocolKind) -> (f64, f64, u64) {
    let mut sim = Sim::new(2024);
    let client = halfmoon::Client::builder(sim.ctx())
        .protocol(kind)
        .recorder()
        .build();
    let workload = Travel::default();
    workload.populate(&client);
    let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
    workload.register(&runtime);
    let gc = GcDriver::start(
        client.clone(),
        hm_common::NodeId(0),
        Duration::from_secs(10),
    );
    let gateway = Gateway::new(runtime);
    let spec = LoadSpec {
        rate_per_sec: 300.0,
        duration: Duration::from_secs(20),
        warmup: Duration::from_secs(2),
        factory: workload.factory(),
    };
    let report = sim.block_on(async move { gateway.run_open_loop(spec).await });
    gc.stop();
    // The consistency invariants hold under real application logic too.
    audit(&client).assert_passed(kind);
    let appends = client.log().counters().log_appends;
    (
        report.latency.median_ms().unwrap_or(f64::NAN),
        report.latency.p99_ms().unwrap_or(f64::NAN),
        appends / report.completed.max(1),
    )
}

fn main() {
    println!("travel reservation @ 300 req/s, 20s simulated, 8 nodes");
    println!(
        "{:<16} {:>12} {:>12} {:>22}",
        "system", "median (ms)", "p99 (ms)", "log appends / request"
    );
    for kind in [
        ProtocolKind::Unsafe,
        ProtocolKind::Boki,
        ProtocolKind::HalfmoonRead,
        ProtocolKind::HalfmoonWrite,
    ] {
        let (median, p99, appends) = run(kind);
        println!(
            "{:<16} {:>12.2} {:>12.2} {:>22}",
            kind.label(),
            median,
            p99,
            appends
        );
    }
    println!(
        "\nThe travel workload is read-intensive, so Halfmoon-read wins: it logs\n\
         no reads at all, while Boki logs every one (the appends/request column)."
    );
}
