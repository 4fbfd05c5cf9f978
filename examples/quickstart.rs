//! Quickstart: run a stateful serverless function with exactly-once
//! semantics under Halfmoon-read, survive an injected crash, and inspect
//! the logging that made it safe.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Pass `--trace-out <path>` to record a causal trace of the run and
//! export it as Chrome `trace_event` JSON — open it at `ui.perfetto.dev`
//! to see the request's spans across gateway, node, sequencer, and
//! storage lanes, including the crash retries.
//!
//! Pass `--shards <n>` to run the logging layer as `n` independently
//! sequenced shards (default 1). Client-visible results — the returned
//! value, the final balance, the crash/retry counts, the log appends —
//! are identical at any shard count; only latency shifts (per-shard
//! record caches warm differently).
//!
//! Pass `--batch <n>` to enable group-commit batching: each shard's
//! sequencer coalesces up to `n` concurrent appends into one ordering
//! decision and one replicated storage write (default 1 = off). This
//! request is sequential, so every "batch" holds a single record and the
//! client-visible output is identical to the default run — batching only
//! changes throughput under concurrency, never results.

use halfmoon::{FaultPolicy, ProtocolKind};
use hm_bench::cli::{exit_usage, CommonOpts};
use hm_common::{Key, Value};
use hm_runtime::{Runtime, RuntimeConfig};
use hm_substrate::sim::Sim;

fn main() {
    let CommonOpts {
        shards,
        batch,
        trace_out,
    } = CommonOpts::from_env().unwrap_or_else(|e| exit_usage(&e));

    // 1. A machine to run on: the deterministic virtual-time executor
    //    (same seed, same run — always).
    let mut sim = Sim::new(42);

    // 2. A deployment, built fluently: shared log (1..n shards) +
    //    versioned store + protocol choice + fault plan. Crash the
    //    function at every point once (at most 5 crashes total): the
    //    runtime detects each crash and re-executes; the protocol's
    //    replay makes every retry resume exactly where the log says.
    //    Optional causal tracing is pure bookkeeping, so the traced run
    //    is bit-identical to the untraced one.
    let tracer = trace_out.as_ref().map(|_| hm_common::trace::Tracer::new());
    let mut builder = halfmoon::Client::builder(sim.ctx())
        .protocol(ProtocolKind::HalfmoonRead)
        .topology(halfmoon::Topology::sharded(shards))
        .batching(batch)
        .faults(FaultPolicy::random(0.35, 5));
    if let Some(t) = &tracer {
        builder = builder.tracer(t.clone());
    }
    let client = builder.build();
    client.populate(Key::new("balance"), Value::Int(100));

    // 3. A runtime with 8 function nodes, and one registered function:
    //    a read-modify-write that must never double-apply.
    let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
    runtime.register("deposit", |env, input| {
        Box::pin(async move {
            let amount = input.get("amount").and_then(Value::as_int).unwrap_or(0);
            let balance = env.read(&Key::new("balance")).await?.as_int().unwrap_or(0);
            env.compute().await;
            env.write(&Key::new("balance"), Value::Int(balance + amount))
                .await?;
            Ok(Value::Int(balance + amount))
        })
    });

    // 4. Fire the request.
    let rt = runtime.clone();
    let tracer2 = tracer.clone();
    let result = sim.block_on(async move {
        let input = Value::map([("amount", Value::Int(25))]);
        match &tracer2 {
            // Traced: root a request trace so the invocation, attempts,
            // and crash retries all nest under one tree.
            Some(t) => {
                let octx = hm_common::observe::OpCtx {
                    trace: t.new_trace(),
                    ..Default::default()
                };
                rt.invoke_request_under("deposit", input, octx).await
            }
            None => rt.invoke_request("deposit", input).await,
        }
    });

    println!(
        "deposit returned: {:?}",
        result.expect("exactly-once in spite of crashes")
    );
    println!("virtual time elapsed: {:?}", sim.now());
    println!("crashes injected:     {}", client.faults().injected());
    println!("executions started:   {}", runtime.invocations());
    println!("re-executions:        {}", runtime.retries());

    // 5. The balance was updated exactly once, no matter how many crashes.
    let client2 = client.clone();
    let balance = sim.block_on(async move {
        let id = client2.fresh_instance_id();
        let spec = halfmoon::InvocationSpec::new(id, hm_common::NodeId(0));
        let mut env = halfmoon::Env::init(&client2, spec).await?;
        let v = env.read(&Key::new("balance")).await?;
        env.finish(Value::Null).await?;
        Ok::<_, hm_common::HmError>(v)
    });
    let balance = balance.unwrap();
    println!("final balance:        {balance:?} (exactly 125)");
    assert_eq!(balance, Value::Int(125));

    // 6. What the logging layer saw: under Halfmoon-read only writes are
    //    logged; the read above cost zero log appends.
    let counters = client.log().counters();
    println!(
        "log appends: {} (init/finish/intent/commit records; reads appended none)",
        counters.log_appends
    );

    // 7. Export the causal trace, if requested: every span of every
    //    attempt (including the crash retries), in virtual-time order.
    if let (Some(tracer), Some(path)) = (tracer, trace_out) {
        std::fs::write(&path, tracer.export_chrome_json()).expect("write trace");
        println!(
            "trace: {} events -> {path} (open at ui.perfetto.dev)",
            tracer.events_recorded()
        );
    }
}
