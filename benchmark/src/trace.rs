//! The traced run (`--trace 1`): the per-layer numbers.
//!
//! (a) One isolating driver per layer (`layers.rs`), each inside a
//! benchmark-side span. (b) Rounds of the workload at the same seed, plain
//! and with the program's observers attached, which give per-op call
//! counts, the virtual phase shares, the observers' overhead ratios, and
//! the check that observers leave the virtual results alone. (c) The
//! attribution: calls per op × driver self cost per call, as a share of
//! the workload's measured host time per op. Spans go to `out/trace.json`.

use std::time::Instant;

use halfmoon::ProtocolKind;

use crate::apps::{Observers, VIRT_SHARES};
use crate::harness::{result_line, spawn_round, Metric};
use crate::layers::{CoreCosts, Cost, Drivers};
use crate::round::RoundReport;
use crate::spans::Spans;
use crate::util::median;
use crate::{RoundArgs, Workload};

/// The per-layer metrics, in the order of `BENCHMARK.json`. A metric that
/// does not apply to a workload (protocol code under `log_storm`, batching
/// under the application workloads) reads 0 there.
pub const PER_LAYER: [Metric; 82] = [
    Metric::new("sim.poll_ns", "ns", "lower", "host"),
    Metric::new("sim.spawn_ns", "ns", "lower", "host"),
    Metric::new("sim.timer_ns", "ns", "lower", "host"),
    Metric::new("sim.polls_per_op", "1/op", "lower", "count"),
    Metric::new("substrate.taskgroup_poll_ns_1k", "ns", "lower", "host"),
    Metric::new("substrate.taskgroup_poll_ns_16k", "ns", "lower", "host"),
    Metric::new("substrate.taskgroup_growth", "ratio", "lower", "host"),
    Metric::new("substrate.semaphore_ns", "ns", "lower", "host"),
    Metric::new("substrate.semaphore_wait_ns", "ns", "lower", "host"),
    Metric::new("substrate.gate_ns", "ns", "lower", "host"),
    Metric::new("sharedlog.append_ns", "ns", "lower", "host"),
    Metric::new("sharedlog.cond_append_ns", "ns", "lower", "host"),
    Metric::new("sharedlog.read_prev_hit_ns", "ns", "lower", "host"),
    Metric::new("sharedlog.read_prev_miss_ns", "ns", "lower", "host"),
    Metric::new("sharedlog.read_next_ns", "ns", "lower", "host"),
    Metric::new("sharedlog.append_batched_ns", "ns", "lower", "host"),
    Metric::new("sharedlog.records_per_flush", "count", "higher", "count"),
    Metric::new("sharedlog.sequencer_util", "ratio", "lower", "virtual"),
    Metric::new("sharedlog.replay_ns_per_record", "ns", "lower", "host"),
    Metric::new("sharedlog.trim_ns_per_record", "ns", "lower", "host"),
    Metric::new("sharedlog.cache_hit_ratio", "ratio", "higher", "count"),
    Metric::new("sharedlog.allocs_per_append", "count", "lower", "count"),
    Metric::new("sharedlog.live_records_end", "count", "lower", "count"),
    Metric::new("kvstore.get_ns", "ns", "lower", "host"),
    Metric::new("kvstore.put_ns", "ns", "lower", "host"),
    Metric::new("kvstore.put_version_ns", "ns", "lower", "host"),
    Metric::new("kvstore.get_version_ns", "ns", "lower", "host"),
    Metric::new("kvstore.delete_version_ns", "ns", "lower", "host"),
    Metric::new("kvstore.versions_per_key", "count", "lower", "count"),
    Metric::new("core.read_ns", "ns", "lower", "host"),
    Metric::new("core.write_ns", "ns", "lower", "host"),
    Metric::new("core.init_finish_ns", "ns", "lower", "host"),
    Metric::new("core.appends_per_read", "count", "lower", "count"),
    Metric::new("core.appends_per_write", "count", "lower", "count"),
    Metric::new("core.replay_ns_per_record", "ns", "lower", "host"),
    Metric::new("core.gc_ns_per_instance", "ns", "lower", "host"),
    Metric::new("core.gc_reclaimed_share", "ratio", "higher", "count"),
    Metric::new("core.recorder_ns_per_op", "ns", "lower", "host"),
    Metric::new("core.audit_s", "s", "lower", "host"),
    Metric::new("runtime.invoke_ns", "ns", "lower", "host"),
    Metric::new("runtime.gateway_ns", "ns", "lower", "host"),
    Metric::new("runtime.queue_peak", "count", "lower", "count"),
    Metric::new("runtime.worker_util", "ratio", "lower", "virtual"),
    Metric::new("runtime.admission_wait_p50_ms", "ms", "lower", "virtual"),
    Metric::new("runtime.retries_per_op", "1/op", "lower", "count"),
    Metric::new("runtime.replayed_per_retry", "count", "lower", "count"),
    Metric::new("runtime.chaos_injected", "count", "higher", "count"),
    Metric::new("runtime.virt_p999_ms", "ms", "lower", "virtual"),
    Metric::new("runtime.virt_drain_s", "s", "lower", "virtual"),
    Metric::new("runtime.failed_share", "ratio", "lower", "count"),
    Metric::new("observers.tracer_overhead_ratio", "ratio", "lower", "host"),
    Metric::new("observers.anatomy_overhead_ratio", "ratio", "lower", "host"),
    Metric::new(
        "observers.flightrec_overhead_ratio",
        "ratio",
        "lower",
        "host",
    ),
    Metric::new(
        "observers.metrics_driver_overhead_ratio",
        "ratio",
        "lower",
        "host",
    ),
    Metric::new("observers.all_overhead_ratio", "ratio", "lower", "host"),
    Metric::new("observers.rss_overhead_mb", "MB", "lower", "host"),
    Metric::new("observers.span_ns", "ns", "lower", "host"),
    Metric::new("observers.histogram_record_ns", "ns", "lower", "host"),
    Metric::new("workloads.factory_ns", "ns", "lower", "host"),
    Metric::new("virt.share.admission", "ratio", "lower", "virtual"),
    Metric::new("virt.share.dispatch_exec", "ratio", "lower", "virtual"),
    Metric::new("virt.share.proto", "ratio", "lower", "virtual"),
    Metric::new("virt.share.log_hop", "ratio", "lower", "virtual"),
    Metric::new("virt.share.batch_wait", "ratio", "lower", "virtual"),
    Metric::new("virt.share.sequencer", "ratio", "lower", "virtual"),
    Metric::new("virt.share.quorum", "ratio", "lower", "virtual"),
    Metric::new("virt.share.log_read", "ratio", "lower", "virtual"),
    Metric::new("virt.share.store_io", "ratio", "lower", "virtual"),
    Metric::new("virt.share.replay_recovery", "ratio", "lower", "virtual"),
    Metric::new("attrib.sim_share", "ratio", "lower", "host"),
    Metric::new("attrib.substrate_share", "ratio", "lower", "host"),
    Metric::new("attrib.sharedlog_share", "ratio", "lower", "host"),
    Metric::new("attrib.kvstore_share", "ratio", "lower", "host"),
    Metric::new("attrib.core_share", "ratio", "lower", "host"),
    Metric::new("attrib.runtime_share", "ratio", "lower", "host"),
    Metric::new("attrib.workloads_share", "ratio", "lower", "host"),
    Metric::new("attrib.unattributed_share", "ratio", "lower", "host"),
    Metric::new("host_growth_ratio", "ratio", "lower", "host"),
    Metric::new("host_us_per_op_traced_off", "us", "lower", "host"),
    Metric::new("trace.driver_seconds", "s", "lower", "host"),
    Metric::new("trace.rounds", "count", "higher", "count"),
    Metric::new("trace.observer_neutral", "count", "higher", "count"),
];

/// The observer sets the traced run compares, by the metric each feeds.
const VARIANTS: [(&str, Observers); 5] = [
    (
        "tracer",
        Observers {
            tracer: true,
            ..Observers::NONE
        },
    ),
    (
        "anatomy",
        Observers {
            anatomy: true,
            ..Observers::NONE
        },
    ),
    (
        "flightrec",
        Observers {
            flightrec: true,
            ..Observers::NONE
        },
    ),
    (
        "metrics_driver",
        Observers {
            metrics_driver: true,
            ..Observers::NONE
        },
    ),
    (
        "all",
        Observers {
            tracer: true,
            anatomy: true,
            flightrec: true,
            metrics_driver: true,
        },
    ),
];

/// Which layers' calls one op of a workload makes, and what they cost.
struct Attribution<'a> {
    d: &'a Drivers<'a>,
    /// A plain round of the workload.
    plain: &'a RoundReport,
}

impl Attribution<'_> {
    /// What the executor costs per poll when a timer causes the poll, as
    /// nearly all polls of these workloads are.
    fn poll_ns(&self) -> f64 {
        self.d.get("sim.timer_ns")
    }

    /// A driver's inclusive ns per call minus the polls it caused.
    fn self_ns(&self, ns: &str, polls: &str) -> f64 {
        (self.d.get(ns) - self.d.get(polls) * self.poll_ns()).max(0.0)
    }

    /// Calls per op of a counter taken over the measured window.
    fn per_op(&self, counter: &str) -> f64 {
        self.plain.get(counter) / self.plain.get("generated").max(1.0)
    }

    fn sim_ns(&self, spawns_per_op: f64) -> f64 {
        self.plain.get("polls") / self.plain.get("ops") * self.poll_ns()
            + spawns_per_op * self.d.get("sim.spawn_ns")
    }

    /// Log calls at their self cost; appends at `append_ns`.
    fn sharedlog_ns(&self, append_self: f64) -> f64 {
        let read_hit = self.self_ns("sharedlog.read_prev_hit_ns", "sharedlog.read_polls");
        let read_miss = self.self_ns("sharedlog.read_prev_miss_ns", "sharedlog.read_polls");
        let trim = (self.d.get("sharedlog.trim_ns_per_call") - self.poll_ns()).max(0.0);
        let misses = self.per_op("log.cache_misses");
        self.per_op("log.appends") * append_self
            + misses * read_miss
            + (self.per_op("log.reads") - misses).max(0.0) * read_hit
            + self.per_op("log.trims") * trim
    }

    fn kvstore_ns(&self, multi_version: bool) -> f64 {
        let own = |name: &str| self.self_ns(name, "kvstore.polls");
        let (read, write) = if multi_version {
            (own("kvstore.get_version_ns"), own("kvstore.put_version_ns"))
        } else {
            (own("kvstore.get_ns"), own("kvstore.put_ns"))
        };
        self.per_op("store.reads") * read
            + (self.per_op("store.writes") + self.per_op("store.cond_writes")) * write
            + self.per_op("store.deletes") * own("kvstore.delete_version_ns")
    }

    /// Protocol code: each driven request's inclusive cost minus the log
    /// and store calls it made, at their inclusive costs.
    fn core_ns(&self, core: &CoreCosts, recorder: bool) -> f64 {
        let children = |c: &Cost| {
            c.per_call(c.log.log_appends) * self.d.get("sharedlog.append_ns")
                + c.per_call(c.log.cache_misses) * self.d.get("sharedlog.read_prev_miss_ns")
                + c.per_call(c.log.log_reads - c.log.cache_misses)
                    * self.d.get("sharedlog.read_prev_hit_ns")
                + c.per_call(c.store.db_reads) * self.d.get("kvstore.get_ns")
                + c.per_call(c.store.db_writes + c.store.db_cond_writes)
                    * self.d.get("kvstore.put_ns")
        };
        let own = |c: &Cost| (c.ns - children(c)).max(0.0);
        // What a request costs in protocol code beyond the runtime's own
        // share of a no-op request, which `runtime_ns` carries.
        let frame = (own(&core.init_finish) - self.d.get("runtime.invoke_ns")).max(0.0);
        let per_read = (own(&core.read) - own(&core.init_finish)).max(0.0) / core.ops_per_request;
        let per_write = (own(&core.write) - own(&core.init_finish)).max(0.0) / core.ops_per_request;
        let ops = self.plain.get("ops");
        let env_ops = self.plain.get("env_reads") + self.plain.get("env_writes");
        // The garbage collector's own work per instance it reclaimed; its
        // trims are in `sharedlog_ns` through the counters.
        let gc = (core.gc_ns_per_instance - self.d.get("sharedlog.trim_ns_per_call")).max(0.0);
        self.plain.get("invocations") / ops * frame
            + self.plain.get("env_reads") / ops * per_read
            + self.plain.get("env_writes") / ops * per_write
            + self.plain.get("gc_instances") / ops * gc
            + if recorder {
                env_ops / ops * core.recorder_ns_per_op
            } else {
                0.0
            }
    }

    fn runtime_ns(&self) -> f64 {
        self.self_ns("runtime.invoke_ns", "runtime.invoke_polls")
            * (self.plain.get("invocations") / self.plain.get("ops"))
            + self.d.get("runtime.gateway_self_ns")
    }

    /// A never-reset `TaskGroup` keeps one waker per pending poll any
    /// member ever made (`will_wake` never recognises a task's own waker),
    /// and each such poll scans the whole list. Per op: pending polls
    /// inside groups × the list's mean length × ns per entry.
    fn taskgroup_ns(&self, core: &CoreCosts) -> f64 {
        let per_entry = (self.d.get("substrate.taskgroup_poll_ns_16k")
            - self.d.get("substrate.taskgroup_poll_ns_1k"))
            / 15_000.0;
        let nodes = 8.0;
        let ops = self.plain.get("ops");
        // Polls of a driven request, less the dispatch hop (parked outside
        // the group) and the final ready poll.
        let frame = (core.init_finish.polls - 2.0).max(0.0);
        let per_read = (core.read.polls - core.init_finish.polls) / core.ops_per_request;
        let per_write = (core.write.polls - core.init_finish.polls) / core.ops_per_request;
        let group_polls = self.plain.get("invocations") / ops * frame
            + self.plain.get("env_reads") / ops * per_read
            + self.plain.get("env_writes") / ops * per_write;
        // A node crash resets its group: the list restarts from empty.
        let resets_per_node = self.plain.get("node_crashes") / nodes;
        let mean_len = group_polls * ops / nodes / 2.0 / (1.0 + resets_per_node);
        group_polls * mean_len * per_entry
    }
}

/// The `--trace 1` run of one workload.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<bool, String> {
    let start = Instant::now();
    let mut spans = Spans::new();
    let root = spans.begin("trace");

    // (a) the layer drivers.
    let drivers_start = Instant::now();
    let mut d = Drivers::new(&mut spans, seed);
    d.sim();
    d.substrate();
    d.sharedlog();
    d.kvstore();
    d.runtime();
    d.observers_and_workloads();
    let protocol = workload.app_shape().map(|s| s.protocol);
    let core = protocol.map(|p| d.core(p));
    let driver_seconds = drivers_start.elapsed().as_secs_f64();

    // (b) the workload in processes of its own. One full-size round plain
    // and one with every observer: call counts, phase shares, memory, and
    // the neutrality check. `log_storm` has no client to hang observers
    // on; its log takes the tracer alone.
    let variants: &[(&str, Observers)] = match workload {
        Workload::LogStorm => &VARIANTS[..1],
        _ => &VARIANTS,
    };
    let everything = variants.last().expect("one variant at least").1;
    let round = |d: &mut Drivers, observers: Observers, scale: f64| {
        let mut args = RoundArgs::new(workload, seed);
        args.observers = observers;
        args.scale = scale;
        let report = spawn_round(&args)?;
        let name = format!("round {observers:?} x{scale}");
        d.record_span(
            &name,
            report.get("setup_s") + report.get("load_s"),
            report.get("ops") as u64,
        );
        Ok::<RoundReport, String>(report)
    };
    let base = round(&mut d, Observers::NONE, 1.0)?;
    let observed = round(&mut d, everything, 1.0)?;
    // Two more plain rounds steady the host time the attribution explains.
    let mut host_us = vec![base.host_us_per_op()];
    for _ in 0..2 {
        host_us.push(round(&mut d, Observers::NONE, 1.0)?.host_us_per_op());
    }
    let host_us = median(&host_us);
    // Observers draw no randomness and add no virtual-time work (the
    // metrics driver adds a task, on timers of its own): the virtual
    // results must equal the plain round's.
    let mut failures: Vec<String> = Vec::new();
    failures.extend(base.failures.iter().chain(&observed.failures).cloned());
    let neutral = observed.fingerprint == base.fingerprint;
    if !neutral {
        failures.push(format!(
            "virtual fingerprint with observers {:016x} differs from the plain round's {:016x}",
            observed.fingerprint, base.fingerprint
        ));
    }
    // Half-size rounds, plain and per observer set, for the overhead
    // ratios: host time with ÷ without in the same set, medians over as
    // many sets as the remaining time allows (two at least).
    let mut sets = 0usize;
    let mut overhead: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    loop {
        let plain = round(&mut d, Observers::NONE, 0.5)?.host_us_per_op();
        for (i, (_, observers)) in variants.iter().enumerate() {
            overhead[i].push(round(&mut d, *observers, 0.5)?.host_us_per_op() / plain);
        }
        sets += 1;
        let used = start.elapsed().as_secs_f64();
        let per_set = (used - driver_seconds) / (sets as f64 + 4.0);
        if sets >= 2 && used + per_set / 2.0 >= seconds {
            break;
        }
    }

    // (c) attribution of the plain round's host time per op.
    let a = Attribution {
        d: &d,
        plain: &base,
    };
    let shares: [(&str, f64); 7] = match &core {
        Some(core) => {
            let queued = base.get("queue_peak") > 64.0;
            let semaphore = if queued {
                d.get("substrate.semaphore_wait_ns") - 2.0 * a.poll_ns()
            } else {
                d.get("substrate.semaphore_ns")
            };
            let append = a.self_ns("sharedlog.append_ns", "sharedlog.append_polls");
            [
                ("sim", a.sim_ns(1.0)),
                ("substrate", a.taskgroup_ns(core) + semaphore.max(0.0)),
                ("sharedlog", a.sharedlog_ns(append)),
                (
                    "kvstore",
                    a.kvstore_ns(protocol != Some(ProtocolKind::HalfmoonWrite)),
                ),
                ("core", a.core_ns(core, workload == Workload::CrashRecovery)),
                ("runtime", a.runtime_ns()),
                ("workloads", d.get("workloads.factory_ns")),
            ]
        }
        None => {
            // `log_storm`: an op is a log call; a batched append parks
            // on its batch's gate once.
            let gate = d.get("substrate.gate_ns");
            let append = (a.self_ns(
                "sharedlog.append_batched_ns",
                "sharedlog.append_batched_polls",
            ) - gate)
                .max(0.0);
            [
                ("sim", a.sim_ns(0.0)),
                ("substrate", a.per_op("log.appends") * gate),
                ("sharedlog", a.sharedlog_ns(append)),
                ("kvstore", 0.0),
                ("core", 0.0),
                ("runtime", 0.0),
                ("workloads", 0.0),
            ]
        }
    };

    let mut values: Vec<(String, f64)> = d.out.clone();
    let mut set = |name: &str, v: f64| values.push((name.to_string(), v));
    let mut attributed = 0.0;
    for (name, ns) in shares {
        set(&format!("attrib.{name}_share"), ns / 1e3 / host_us);
        attributed += ns / 1e3 / host_us;
    }
    set("attrib.unattributed_share", 1.0 - attributed);
    set("host_us_per_op_traced_off", host_us);
    set("host_growth_ratio", base.get("host_growth_ratio"));
    set("trace.driver_seconds", driver_seconds);
    set("trace.rounds", (4 + sets * (1 + variants.len())) as f64);
    set("trace.observer_neutral", f64::from(u8::from(neutral)));

    // Counts and virtual results of the workload itself; a count the
    // workload does not have reads 0.
    let or_zero = |r: &RoundReport, name: &str| r.find(name).unwrap_or(0.0);
    let base = &base;
    let generated = base.get("generated").max(1.0);
    let completed = base.get("completed").max(1.0);
    set("sim.polls_per_op", base.get("polls") / base.get("ops"));
    set(
        "sharedlog.records_per_flush",
        or_zero(base, "records_per_flush"),
    );
    set("sharedlog.sequencer_util", or_zero(base, "sequencer_util"));
    let lookups = base.get("log.cache_hits") + base.get("log.cache_misses");
    set(
        "sharedlog.cache_hit_ratio",
        base.get("log.cache_hits") / lookups.max(1.0),
    );
    set("sharedlog.live_records_end", base.get("live_records"));
    set(
        "kvstore.versions_per_key",
        or_zero(base, "store_versions") / or_zero(base, "store_keys_written").max(1.0),
    );
    set(
        "core.gc_reclaimed_share",
        or_zero(base, "gc_instances") / completed,
    );
    set("core.audit_s", base.get("audit_s"));
    set("runtime.queue_peak", or_zero(base, "queue_peak"));
    set(
        "runtime.retries_per_op",
        or_zero(base, "retries") / generated,
    );
    set(
        "runtime.replayed_per_retry",
        or_zero(base, "replayed_records") / or_zero(base, "retries").max(1.0),
    );
    set("runtime.chaos_injected", or_zero(base, "chaos_injected"));
    set("runtime.virt_p999_ms", base.get("virt_p999_ms"));
    set("runtime.virt_drain_s", base.get("virt_drain_s"));
    set(
        "runtime.failed_share",
        (base.get("errors") + generated - base.get("completed").min(generated)) / generated,
    );
    // From the observed round's anatomy, when the workload has one.
    let anatomy = everything.anatomy.then_some(&observed);
    set(
        "runtime.worker_util",
        anatomy.map_or(0.0, |r| r.get("worker_util")),
    );
    set(
        "runtime.admission_wait_p50_ms",
        anatomy.map_or(0.0, |r| r.get("admission_wait_p50_ms")),
    );
    for (name, _) in VIRT_SHARES {
        let metric = format!("virt.share.{name}");
        set(&metric, anatomy.map_or(0.0, |r| r.get(&metric)));
    }
    for (i, (name, _)) in VARIANTS.iter().enumerate() {
        let ratio = overhead.get(i).map_or(0.0, |ratios| median(ratios));
        set(&format!("observers.{name}_overhead_ratio"), ratio);
    }
    set(
        "observers.rss_overhead_mb",
        observed.get("peak_rss_mb") - base.get("peak_rss_mb"),
    );
    if core.is_none() {
        for name in [
            "core.read_ns",
            "core.write_ns",
            "core.init_finish_ns",
            "core.appends_per_read",
            "core.appends_per_write",
            "core.replay_ns_per_record",
            "core.gc_ns_per_instance",
            "core.recorder_ns_per_op",
        ] {
            set(name, 0.0);
        }
    }

    spans.end(root, 0);
    let out_dir = std::env::var("HM_BENCHMARK_OUT").unwrap_or_else(|_| "benchmark/out".to_string());
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(format!("{out_dir}/trace.json"), spans.to_json()))
        .map_err(|e| format!("cannot write {out_dir}/trace.json: {e}"))?;

    println!(
        "traced run of {} seed {seed}: drivers {driver_seconds:.1} s, {} half-size sets, \
         full-size virtual fingerprint {:016x}, spans in {out_dir}/trace.json",
        workload.name(),
        sets,
        base.fingerprint
    );
    println!(
        "{:<42} {:>16} {:<6} {:<7} clock",
        "layer metric", "value", "unit", "better"
    );
    let mut metrics = Vec::new();
    for m in &PER_LAYER {
        let value = values
            .iter()
            .find(|(n, _)| n == m.name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("traced run produced no `{}`", m.name))?;
        println!(
            "{:<42} {:>16.4} {:<6} {:<7} {}",
            m.name, value, m.unit, m.better, m.clock
        );
        metrics.push((m.name, value, m.unit));
    }
    if let Some(r) = anatomy {
        let (name, share) = VIRT_SHARES
            .iter()
            .map(|(name, _)| (name, r.get(&format!("virt.share.{name}"))))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("ten shares");
        println!(
            "binding resource in virtual time: {name} ({:.0} % of request latency)",
            share * 100.0
        );
    }
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    let attempted = (base.get("generated") + observed.get("generated")) as u64;
    let failed = (base.get("errors") + observed.get("errors")) as u64;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}
