//! Allocation budgets, all of `scripts/alloc_budget.json`: what one
//! open-loop request of the §6.3 synthetic function costs the host
//! allocator, end to end (factory, gateway, runtime, protocol, log,
//! store), under each Halfmoon protocol and, on Halfmoon-read, with the
//! collector running beside the load as the benchmark's `steady_mixed`
//! runs it; and what one append and one
//! replayed record cost on the log's hot path (`bench_sim_core`'s
//! `hot_path_alloc` component, at full scale so pool warmup amortizes over
//! the real op count). A seeded simulation allocates deterministically, so
//! a reintroduced per-op clone or per-map node shows here as a count,
//! where wall time on a loaded box would hide it.
//!
//! Its own test binary: the counting allocator is process-global, and a
//! single `#[test]` keeps other threads' allocations out of the count.

use std::time::Duration;

use halfmoon::{Client, ProtocolKind};
use hm_bench::alloc::{AllocSnapshot, CountingAlloc};
use hm_bench::sim_core::hot_path_alloc;
use hm_common::NodeId;
use hm_runtime::{Gateway, GcDriver, LoadSpec, Runtime, RuntimeConfig};
use hm_substrate::sim::Sim;
use hm_workloads::synthetic::SyntheticOps;
use hm_workloads::Workload;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `(requests, allocations)` of ≈2 000 measured requests at 1 000 req/s,
/// after ≈200 warm-up requests filled the pools and grew the tables; with
/// `gc`, a `GcDriver` collects every second from the start.
fn measure(protocol: ProtocolKind, gc: bool) -> (u64, u64) {
    let mut sim = Sim::new(20230923);
    let client = Client::builder(sim.ctx()).protocol(protocol).build();
    let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
    let workload = SyntheticOps::default();
    workload.register(&runtime);
    workload.populate(&client);
    let gc = gc.then(|| GcDriver::start(client.clone(), NodeId(0), Duration::from_secs(1)));
    let gateway = Gateway::new(runtime);
    let spec = |duration| LoadSpec {
        rate_per_sec: 1000.0,
        duration,
        warmup: Duration::ZERO,
        factory: workload.factory(),
    };
    let (warmup, load) = (
        spec(Duration::from_millis(200)),
        spec(Duration::from_secs(2)),
    );
    let measured = sim.block_on(async move {
        gateway.run_open_loop(warmup).await;
        let before = AllocSnapshot::take();
        let report = gateway.run_open_loop(load).await;
        let allocs = AllocSnapshot::take().since(&before).allocs;
        assert_eq!(report.errors, 0);
        assert_eq!(report.completed, report.generated);
        (report.generated, allocs)
    });
    if let Some(gc) = gc {
        assert!(gc.cycles() > 0, "a collection ran during the load");
        gc.stop();
    }
    measured
}

/// The `field` entry under the nested keys `path` in
/// `scripts/alloc_budget.json` (each key's first quoted occurrence after
/// the previous one's).
fn budget(path: &[&str], field: &str) -> f64 {
    let mut json = include_str!("../scripts/alloc_budget.json");
    for key in path.iter().chain([&field]) {
        let quoted = format!("\"{key}\"");
        json = &json[json.find(&quoted).unwrap_or_else(|| panic!("no {quoted}")) + quoted.len()..];
    }
    let value = json.trim_start().strip_prefix(':').expect("a value");
    let end = value.find(['}', ',']).expect("end of number");
    value[..end].trim().parse().expect("a number")
}

#[test]
fn request_path_stays_within_its_allocation_budget() {
    for phase in hot_path_alloc(1.0).alloc {
        for (metric, got) in [
            ("allocs_per_op", phase.rate.allocs_per_op),
            ("bytes_per_op", phase.rate.bytes_per_op),
        ] {
            let cap = budget(&[phase.name], metric);
            println!("hot path {}: {got:.3} {metric} (budget {cap})", phase.name);
            assert!(
                got <= cap,
                "hot path {}: {got:.3} {metric} exceeds the budget of {cap} \
                 (scripts/alloc_budget.json; append path regressed?)",
                phase.name
            );
        }
    }
    for (protocol, gc, name) in [
        (ProtocolKind::HalfmoonRead, false, "halfmoon_read"),
        (ProtocolKind::HalfmoonWrite, false, "halfmoon_write"),
        (ProtocolKind::HalfmoonRead, true, "halfmoon_read_gc"),
    ] {
        let (requests, allocs) = measure(protocol, gc);
        assert!(
            (1800..2200).contains(&requests),
            "{name}: {requests} requests"
        );
        assert_eq!(
            measure(protocol, gc),
            (requests, allocs),
            "{name}: two runs of one seed must allocate identically"
        );
        let per_request = allocs as f64 / requests as f64;
        let cap = budget(&["request_path", name], "allocs_per_request");
        println!("{name}: {per_request:.2} allocations per request (budget {cap})");
        assert!(
            per_request <= cap,
            "{name}: {per_request:.2} allocations per request exceed the budget of {cap} \
             (scripts/alloc_budget.json)"
        );
    }
}
