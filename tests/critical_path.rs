//! The paper's op-count claims (§4.3, Table 2), asserted on individual
//! invocation critical paths via the tracer: each op of a request costs
//! exactly its row of the logging matrix (`ProtocolKind::logging_row`),
//! under every protocol and both §4 variants.
//!
//! Each test runs requests through the full runtime with tracing on and
//! no faults, then inspects `critical_path(trace)` — the per-op substrate
//! round-trip counts in virtual-time order. An op's span carries its
//! `MatrixOp::name`.

use halfmoon::MatrixOp::{self, Finish, Init, Invoke, Order, Read, Write};
use halfmoon::ProtocolKind::{Boki, HalfmoonRead, HalfmoonWrite, Unsafe};
use halfmoon::{Client, ProtocolConfig};
use hm_common::latency::LatencyModel;
use hm_common::metrics::OpCounters;
use hm_common::observe::OpCtx;
use hm_common::trace::{OpSummary, TraceId, Tracer};
use hm_common::{Key, Value};
use hm_runtime::{Runtime, RuntimeConfig};
use hm_substrate::sim::Sim;

/// What every request runs: a read of `X`, a write of it, a write of `Y`
/// (after a write to another key: the order row's case) and a read of the
/// written `X`.
const PROGRAM: [(MatrixOp, &str); 4] = [(Read, "X"), (Write, "X"), (Write, "Y"), (Read, "X")];

/// Runs `requests` requests of `function` one after another on a
/// deployment of `config`, traced, and returns what the log and the store
/// counted meanwhile and each request's critical path. The functions are
/// `program`, which runs [`PROGRAM`], and `parent`, which invokes `child`,
/// which reads `X`.
fn trace_requests(
    function: &'static str,
    config: ProtocolConfig,
    rt_config: RuntimeConfig,
    requests: usize,
) -> (OpCounters, Vec<Vec<OpSummary>>) {
    let mut sim = Sim::new(7);
    let tracer = Tracer::new();
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::calibrated())
        .protocol_config(config)
        .tracer(tracer.clone())
        .build();
    client.populate(Key::new("X"), Value::Int(1));
    client.populate(Key::new("Y"), Value::Int(2));
    let rt = Runtime::new(client.clone(), rt_config);
    rt.register("program", async move |env, _input| {
        for (op, key) in PROGRAM {
            match op {
                Read => drop(env.read(&Key::new(key)).await?),
                _ => env.write(&Key::new(key), Value::Int(3)).await?,
            }
        }
        Ok(Value::Null)
    });
    rt.register("child", async |env, _input| env.read(&Key::new("X")).await);
    rt.register("parent", async |env, _input| {
        env.invoke("child", Value::Null).await
    });
    let counters = |c: &Client| c.log().counters().merged(&c.store().counters());
    let before = counters(&client);
    let traces: Vec<TraceId> = (0..requests).map(|_| tracer.new_trace()).collect();
    let run = traces.clone();
    sim.block_on(async move {
        for trace in run {
            let on = OpCtx {
                trace,
                ..OpCtx::default()
            };
            rt.invoke_request_under(function, Value::Null, on)
                .await
                .unwrap();
        }
    });
    // Duplicate peers that outlive their request finish too.
    sim.run();
    let paths = traces.iter().map(|&t| tracer.critical_path(t)).collect();
    (counters(&client).since(&before), paths)
}

/// An op's counts in the matrix's fields: cache hits and misses depend
/// on which node last read a record, not on the protocol.
fn row_of(op: &OpSummary) -> (&'static str, OpCounters) {
    let counts = OpCounters {
        cache_hits: 0,
        cache_misses: 0,
        ..op.counts
    };
    (op.name, counts)
}

#[test]
fn each_op_on_the_critical_path_costs_its_logging_row() {
    let config = |kind, set: fn(&mut ProtocolConfig)| {
        let mut config = ProtocolConfig::uniform(kind);
        set(&mut config);
        config
    };
    for config in [
        config(HalfmoonRead, |_| {}),
        config(HalfmoonRead, |c| c.deterministic_versions = true),
        config(HalfmoonWrite, |_| {}),
        config(HalfmoonWrite, |c| c.preserve_write_order = true),
        config(Boki, |_| {}),
        config(Unsafe, |_| {}),
    ] {
        let kind = config.default;
        let row = |op| kind.logging_row(op, &config);
        let mut want = vec![(Init.name(), row(Init))];
        for (i, &(op, key)) in PROGRAM.iter().enumerate() {
            let ordered = op == Write && i > 0 && matches!(PROGRAM[i - 1], (Write, k) if k != key);
            let cost = if ordered {
                row(op).merged(&row(Order))
            } else {
                row(op)
            };
            want.push((op.name(), cost));
        }
        want.push((Finish.name(), row(Finish)));
        if kind == Unsafe {
            // The unsafe baseline logs no init or finish record, and opens
            // no span for them.
            assert_eq!([row(Init), row(Finish)], [OpCounters::ZERO; 2]);
            want.retain(|&(name, _)| name != Init.name() && name != Finish.name());
        }
        let (_, paths) = trace_requests("program", config.clone(), RuntimeConfig::default(), 1);
        let got: Vec<_> = paths[0].iter().map(row_of).collect();
        assert_eq!(got, want, "{config:?}");
    }
}

/// A Halfmoon-read read of an object an earlier request wrote still costs
/// its row: one `logReadPrev` resolves the version and one versioned
/// fetch reads it, with no append.
#[test]
fn halfmoon_read_read_of_written_object_stays_log_free() {
    let config = ProtocolConfig::uniform(HalfmoonRead);
    let want = HalfmoonRead.logging_row(Read, &config);
    let (_, paths) = trace_requests("program", config, RuntimeConfig::default(), 2);
    let read = paths[1].iter().find(|o| o.name == Read.name()).unwrap();
    assert_eq!(row_of(read), (Read.name(), want));
}

/// An invoke costs its own row on its own span, the record of the child's
/// result (none under the unsafe baseline), and the child's ops follow it
/// on the path with theirs: a request whose body invokes a one-read child.
#[test]
fn an_invoke_costs_its_row_apart_from_the_child() {
    for kind in [HalfmoonRead, HalfmoonWrite, Boki, Unsafe] {
        let config = ProtocolConfig::uniform(kind);
        let row = |op| kind.logging_row(op, &config);
        assert_eq!(row(Invoke).log_appends, u64::from(kind != Unsafe), "{kind}");
        let mut want: Vec<_> = [Init, Invoke, Init, Read, Finish, Finish]
            .into_iter()
            .map(|op| (op.name(), row(op)))
            .collect();
        if kind == Unsafe {
            want.retain(|&(name, _)| name != Init.name() && name != Finish.name());
        }
        let (_, paths) = trace_requests("parent", config, RuntimeConfig::default(), 1);
        let got: Vec<_> = paths[0].iter().map(row_of).collect();
        assert_eq!(got, want, "{kind}");
    }
}

/// Summed over a run's requests, the critical paths count exactly what the
/// log and the store count, field by field: a conditional append that a
/// duplicate peer (§5.1) loses appended nothing, and both say so.
#[test]
fn critical_path_counts_equal_the_op_counters() {
    for kind in [Boki, HalfmoonRead, HalfmoonWrite] {
        for duplicate_prob in [0.0, 1.0] {
            let rt_config = RuntimeConfig {
                duplicate_prob,
                ..RuntimeConfig::default()
            };
            let (counted, paths) =
                trace_requests("program", ProtocolConfig::uniform(kind), rt_config, 40);
            let on_paths = (paths.iter().flatten())
                .fold(OpCounters::default(), |sum, op| sum.merged(&op.counts));
            let case = format!("{kind} at duplicate_prob {duplicate_prob}");
            assert_eq!(on_paths, counted, "{case}");
            assert_eq!(
                on_paths.cond_append_conflicts > 0,
                duplicate_prob > 0.0,
                "{case}: peers race exactly when they are launched"
            );
        }
    }
}
