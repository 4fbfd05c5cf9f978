//! The paper's op-count claims, asserted on individual invocation critical
//! paths via the tracer (§4.3, Table 2):
//!
//! - **Halfmoon-read**: reads are entirely log-free (0 appends — the only
//!   cost over a raw read is one `logReadPrev`); writes append twice
//!   (intent + commit) around one multi-version store write.
//! - **Halfmoon-write**: reads append exactly once (the logged observed
//!   value); writes are log-free conditional store updates.
//! - **Boki** (symmetric baseline): reads append once, writes append twice.
//!
//! Each test runs requests through the full runtime with tracing on and
//! no faults, then inspects `critical_path(trace)` — the per-op substrate
//! round-trip counts in virtual-time order.

use std::rc::Rc;

use halfmoon::{Client, ProtocolKind};
use hm_common::latency::LatencyModel;
use hm_common::metrics::OpCounters;
use hm_common::observe::OpCtx;
use hm_common::trace::{OpSummary, TraceId, Tracer};
use hm_common::{Key, Value};
use hm_runtime::{Runtime, RuntimeConfig};
use hm_substrate::sim::Sim;

/// A deployment of `kind` traced by `tracer`, running `rw`, a
/// read-then-write of `obj`.
fn rw_deployment(
    sim: &Sim,
    kind: ProtocolKind,
    config: RuntimeConfig,
    tracer: &Rc<Tracer>,
) -> (Client, Runtime) {
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::calibrated())
        .protocol(kind)
        .tracer(tracer.clone())
        .build();
    client.populate(Key::new("obj"), Value::Int(1));
    let runtime = Runtime::new(client.clone(), config);
    runtime.register("rw", |env, _input| {
        Box::pin(async move {
            let v = env.read(&Key::new("obj")).await?.as_int().unwrap_or(0);
            env.write(&Key::new("obj"), Value::Int(v + 1)).await?;
            Ok(Value::Int(v))
        })
    });
    (client, runtime)
}

/// The observation context of a request on its own trace.
fn on(trace: TraceId) -> OpCtx {
    OpCtx {
        trace,
        ..OpCtx::default()
    }
}

/// Runs one read-then-write request under `kind` with tracing attached and
/// returns the invocation's op summaries (init, read, write, finish).
fn trace_one_rw(kind: ProtocolKind) -> (Rc<Tracer>, Vec<OpSummary>) {
    let mut sim = Sim::new(7);
    let tracer = Tracer::new();
    let (_, rt) = rw_deployment(&sim, kind, RuntimeConfig::default(), &tracer);
    let trace = tracer.new_trace();
    let result =
        sim.block_on(async move { rt.invoke_request_under("rw", Value::Null, on(trace)).await });
    assert_eq!(result.unwrap(), Value::Int(1));
    let ops = tracer.critical_path(trace);
    assert_eq!(
        ops.iter().map(|o| o.name).collect::<Vec<_>>(),
        vec!["init", "read", "write", "finish"],
        "{kind}: unexpected op sequence"
    );
    (tracer, ops)
}

fn op<'a>(ops: &'a [OpSummary], name: &str) -> &'a OpSummary {
    ops.iter().find(|o| o.name == name).unwrap()
}

#[test]
fn halfmoon_read_critical_path_is_log_free_on_reads() {
    let (_tracer, ops) = trace_one_rw(ProtocolKind::HalfmoonRead);
    // Init: one append (the init record) after one step-log stream fetch.
    assert_eq!(op(&ops, "init").counts.log_appends, 1);
    assert_eq!(op(&ops, "init").counts.log_reads, 1);
    // Read: ZERO appends — the paper's headline claim. One logReadPrev to
    // resolve the version (no prior write ⇒ fall through to the base row).
    let read = op(&ops, "read");
    assert_eq!(
        read.counts.log_appends, 0,
        "Halfmoon-read reads must not log"
    );
    assert_eq!(read.counts.log_reads, 1);
    assert_eq!(read.counts.db_reads, 1);
    // Write: two appends (intent + commit) around one versioned DB write.
    let write = op(&ops, "write");
    assert_eq!(write.counts.log_appends, 2, "intent + commit (§4.1)");
    assert_eq!(write.counts.db_writes, 1);
    assert_eq!(write.counts.db_cond_writes, 0);
    // Finish: one append (the finish record).
    assert_eq!(op(&ops, "finish").counts.log_appends, 1);
    assert_eq!(op(&ops, "finish").counts.log_reads, 0);
}

#[test]
fn halfmoon_write_critical_path_appends_once_per_read() {
    let (_tracer, ops) = trace_one_rw(ProtocolKind::HalfmoonWrite);
    // Read: exactly ONE append — the logged observed value (Figure 7
    // lines 13–17) — plus the raw store read it records.
    let read = op(&ops, "read");
    assert_eq!(
        read.counts.log_appends, 1,
        "Halfmoon-write reads log exactly once"
    );
    assert_eq!(read.counts.db_reads, 1);
    // Write: ZERO appends — one conditional store update (Figure 7
    // lines 1–5), versioned by (cursorTS, consecutiveW).
    let write = op(&ops, "write");
    assert_eq!(
        write.counts.log_appends, 0,
        "Halfmoon-write writes must not log"
    );
    assert_eq!(write.counts.db_cond_writes, 1);
    assert_eq!(write.counts.db_writes, 0);
}

#[test]
fn boki_critical_path_logs_symmetrically() {
    let (_tracer, ops) = trace_one_rw(ProtocolKind::Boki);
    // Boki logs both sides: reads once (observed value), writes twice
    // (intent + commit) around a conditional update (§6.1).
    let read = op(&ops, "read");
    assert_eq!(read.counts.log_appends, 1);
    assert_eq!(read.counts.db_reads, 1);
    let write = op(&ops, "write");
    assert_eq!(write.counts.log_appends, 2);
    assert_eq!(write.counts.db_cond_writes, 1);
}

/// A Halfmoon-read read of an object *with* history still appends nothing:
/// the version resolution is one `logReadPrev` plus one versioned fetch.
#[test]
fn halfmoon_read_read_of_written_object_stays_log_free() {
    let mut sim = Sim::new(11);
    let tracer = Tracer::new();
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::calibrated())
        .protocol(ProtocolKind::HalfmoonRead)
        .tracer(tracer.clone())
        .build();
    client.populate(Key::new("obj"), Value::Int(1));
    let runtime = Runtime::new(client, RuntimeConfig::default());
    runtime.register("write", |env, _input| {
        Box::pin(async move {
            env.write(&Key::new("obj"), Value::Int(2)).await?;
            Ok(Value::Null)
        })
    });
    runtime.register("read", |env, _input| {
        Box::pin(async move { env.read(&Key::new("obj")).await })
    });
    let t1 = tracer.new_trace();
    let t2 = tracer.new_trace();
    let rt = runtime;
    let read_back = sim.block_on(async move {
        rt.invoke_request_under("write", Value::Null, on(t1))
            .await
            .unwrap();
        rt.invoke_request_under("read", Value::Null, on(t2)).await
    });
    assert_eq!(read_back.unwrap(), Value::Int(2));
    let ops = tracer.critical_path(t2);
    let read = op(&ops, "read");
    assert_eq!(read.counts.log_appends, 0);
    assert_eq!(
        read.counts.log_reads, 1,
        "one logReadPrev resolves the version"
    );
    assert_eq!(read.counts.db_reads, 1, "one versioned fetch");
    assert_eq!(read.counts.db_writes, 0);
}

/// Summed over a run's requests, the critical paths count exactly what the
/// log and the store count, field by field: a conditional append that a
/// duplicate peer (§5.1) loses appended nothing, and both say so.
#[test]
fn critical_path_counts_equal_the_op_counters() {
    for kind in [
        ProtocolKind::Boki,
        ProtocolKind::HalfmoonRead,
        ProtocolKind::HalfmoonWrite,
    ] {
        for duplicate_prob in [0.0, 1.0] {
            let mut sim = Sim::new(0xc417);
            let config = RuntimeConfig {
                duplicate_prob,
                ..RuntimeConfig::default()
            };
            let tracer = Tracer::new();
            let (client, rt) = rw_deployment(&sim, kind, config, &tracer);
            let counters = |c: &Client| c.log().counters().merged(&c.store().counters());
            let before = counters(&client);
            let traces: Vec<TraceId> = (0..40).map(|_| tracer.new_trace()).collect();
            let requests = traces.clone();
            sim.block_on(async move {
                for trace in requests {
                    rt.invoke_request_under("rw", Value::Null, on(trace))
                        .await
                        .unwrap();
                }
            });
            // Duplicate peers that outlive their request finish too.
            sim.run();
            let on_paths = traces
                .iter()
                .flat_map(|&t| tracer.critical_path(t))
                .fold(OpCounters::default(), |sum, op| sum.merged(&op.counts));
            let case = format!("{kind} at duplicate_prob {duplicate_prob}");
            assert_eq!(on_paths, counters(&client).since(&before), "{case}");
            assert_eq!(
                on_paths.cond_append_conflicts > 0,
                duplicate_prob > 0.0,
                "{case}: peers race exactly when they are launched"
            );
        }
    }
}
