//! One isolating driver per layer for the traced run: each puts a layer's
//! public functions in the state the workloads put them in, calls them in
//! a closed loop inside a span, and reports host ns, allocations and
//! executor polls per call.
//!
//! Costs are *inclusive*: a `LogService::append` driven here pays for the
//! two sleeps it makes, like it does under a workload. `trace.rs` turns
//! them into self costs by subtracting each call's children.

use std::rc::Rc;
use std::time::Duration;

use halfmoon::{Client, Env, GarbageCollector, InvocationSpec, ProtocolKind};
use hm_bench::alloc::AllocSnapshot;
use hm_common::ids::TagKind;
use hm_common::latency::LatencyModel;
use hm_common::metrics::{Histogram, OpCounters};
use hm_common::trace::{Lane, SpanId, TraceId, Tracer};
use hm_common::{Key, NodeId, SeqNum, SharedBytes, Tag, Value, VersionNum};
use hm_kvstore::KvStore;
use hm_runtime::{Gateway, LoadSpec, Runtime, RuntimeConfig};
use hm_sharedlog::{LogConfig, LogService, Topology};
use hm_substrate::sim::Sim;
use hm_substrate::sync::{Gate, Semaphore, TaskGroup};
use hm_workloads::synthetic::SyntheticOps;
use hm_workloads::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::spans::Spans;

/// Host cost of one call, as a driver measured it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    pub ns: f64,
    pub allocs: f64,
    pub polls: f64,
    /// Log and store calls one driven call made.
    pub log: OpCounters,
    pub store: OpCounters,
    pub calls: u64,
}

impl Cost {
    /// Child calls per driven call, for the named counter.
    pub fn per_call(&self, count: u64) -> f64 {
        count as f64 / self.calls.max(1) as f64
    }
}

/// Runs the drivers and keeps what they measured, by metric name.
pub struct Drivers<'a> {
    spans: &'a mut Spans,
    seed: u64,
    pub out: Vec<(String, f64)>,
}

impl<'a> Drivers<'a> {
    pub fn new(spans: &'a mut Spans, seed: u64) -> Drivers<'a> {
        Drivers {
            spans,
            seed,
            out: Vec::new(),
        }
    }

    /// Records a span a round's process measured for itself.
    pub fn record_span(&mut self, name: &str, seconds: f64, calls: u64) {
        self.spans.record(name, seconds, calls);
    }

    fn set(&mut self, name: &str, value: f64) {
        self.out.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.out
            .iter()
            .find(|(n, _)| n == name)
            .map_or_else(|| panic!("no driver measured `{name}`"), |&(_, v)| v)
    }

    /// Times `run` on `sim` inside a span named `name` covering `calls`
    /// calls into the layer.
    fn drive(&mut self, name: &str, sim: &mut Sim, calls: u64, run: impl FnOnce(&mut Sim)) -> Cost {
        let id = self.spans.begin(name);
        let polls = sim.poll_count();
        let allocs = AllocSnapshot::take();
        run(sim);
        let allocs = AllocSnapshot::take().since(&allocs).allocs;
        let polls = sim.poll_count() - polls;
        self.spans.end(id, calls);
        Cost {
            ns: self.spans.ns_per_call(id),
            allocs: allocs as f64 / calls as f64,
            polls: polls as f64 / calls as f64,
            calls,
            ..Cost::default()
        }
    }

    /// `hm_substrate::sim::Sim`: yield, spawn and sleep storms.
    pub fn sim(&mut self) {
        let layer = self.spans.begin("layer sim");
        const TASKS: u64 = 64;
        const YIELDS: u64 = 20_000;
        let mut sim = Sim::new(self.seed);
        let poll = self.drive("sim.poll", &mut sim, TASKS * YIELDS, |sim| {
            let ctx = sim.ctx();
            for _ in 0..TASKS {
                let c = ctx.clone();
                ctx.spawn(async move {
                    for _ in 0..YIELDS {
                        c.yield_now().await;
                    }
                });
            }
            sim.run();
        });
        self.set("sim.poll_ns", poll.ns);

        const SPAWNS: u64 = 300_000;
        let mut sim = Sim::new(self.seed);
        let spawn = self.drive("sim.spawn", &mut sim, SPAWNS, |sim| {
            let ctx = sim.ctx();
            sim.block_on(async move {
                for i in 0..SPAWNS {
                    ctx.spawn(async {});
                    if i % 1024 == 1023 {
                        ctx.yield_now().await;
                    }
                }
            });
            sim.run();
        });
        self.set("sim.spawn_ns", spawn.ns);

        const SLEEPERS: u64 = 10_000;
        const SLEEPS: u64 = 30;
        let mut sim = Sim::new(self.seed);
        let timer = self.drive("sim.timer", &mut sim, SLEEPERS * SLEEPS, |sim| {
            let ctx = sim.ctx();
            for i in 0..SLEEPERS {
                let c = ctx.clone();
                ctx.spawn(async move {
                    for j in 0..SLEEPS {
                        // Staggered, so 10k sleeps are outstanding at once.
                        c.sleep(Duration::from_micros(1_000 + (i * 7 + j * 13) % 9_000))
                            .await;
                    }
                });
            }
            sim.run();
        });
        self.set("sim.timer_ns", timer.ns);
        self.spans.end(layer, 0);
    }

    /// ns per poll of `TaskGroup::run` on never-reset groups whose waker
    /// lists hold 1k and then 16k entries each: eight groups polled in
    /// turn, like the runtime's eight nodes, so the lists compete for the
    /// cache the way they do under a workload.
    ///
    /// The executor's wakers never compare equal to their own clones, so
    /// `register`'s dedup never fires: a group's list takes one entry per
    /// pending poll of any member and is scanned on every such poll.
    fn taskgroup(&mut self) -> (f64, f64) {
        const GROUPS: u64 = 8;
        const WINDOW: u64 = 256;
        let mut sim = Sim::new(self.seed);
        let groups: Vec<TaskGroup> = (0..GROUPS).map(|_| TaskGroup::new()).collect();
        // One member per group, each polled (and parked) `polls` times.
        let members = |sim: &mut Sim, polls: u64| {
            let ctx = sim.ctx();
            for group in &groups {
                let (ctx2, group) = (ctx.clone(), group.clone());
                ctx.spawn(async move {
                    let parked = async {
                        for _ in 0..polls {
                            ctx2.yield_now().await;
                        }
                    };
                    let _ = group.run(parked).await;
                });
            }
            sim.run();
        };
        let measure = |this: &mut Self, sim: &mut Sim, held: u64, grown_by: u64| {
            let setup = this.spans.begin("setup");
            members(sim, grown_by);
            this.spans.end(setup, 0);
            let name = format!("substrate.taskgroup_poll_{held}");
            this.drive(&name, sim, GROUPS * WINDOW, |sim| members(sim, WINDOW))
                .ns
        };
        let at_1k = measure(self, &mut sim, 1_000, 1_000);
        let at_16k = measure(self, &mut sim, 16_000, 16_000 - 1_000 - WINDOW);
        (at_1k, at_16k)
    }

    /// `hm_substrate::sync`: TaskGroup, Semaphore and Gate in the states
    /// the workloads put them in.
    pub fn substrate(&mut self) {
        let layer = self.spans.begin("layer substrate");
        let (at_1k, at_16k) = self.taskgroup();
        self.set("substrate.taskgroup_poll_ns_1k", at_1k);
        self.set("substrate.taskgroup_poll_ns_16k", at_16k);
        self.set("substrate.taskgroup_growth", at_16k / at_1k);

        const ACQUIRES: u64 = 500_000;
        let mut sim = Sim::new(self.seed);
        let free = self.drive("substrate.semaphore", &mut sim, ACQUIRES, |sim| {
            let sem = Semaphore::new(64);
            sim.block_on(async move {
                for _ in 0..ACQUIRES {
                    drop(sem.acquire().await);
                }
            });
        });
        self.set("substrate.semaphore_ns", free.ns);

        // 64 permits, 4k tasks queued FIFO behind them; each holds its
        // permit for one timer, like a request holds its worker slot.
        const WAITERS: u64 = 4_096 + 64;
        const CYCLES: u64 = 8;
        let mut sim = Sim::new(self.seed);
        let queued = self.drive(
            "substrate.semaphore_wait",
            &mut sim,
            WAITERS * CYCLES,
            |sim| {
                let sem = Semaphore::new(64);
                let ctx = sim.ctx();
                for _ in 0..WAITERS {
                    let (s, c) = (sem.clone(), ctx.clone());
                    ctx.spawn(async move {
                        for _ in 0..CYCLES {
                            let slot = s.acquire().await;
                            c.sleep(Duration::from_millis(1)).await;
                            drop(slot);
                        }
                    });
                }
                sim.run();
            },
        );
        self.set("substrate.semaphore_wait_ns", queued.ns);

        // 16 waiters park on a gate and one `open` releases them, like a
        // full group-commit batch.
        const GATES: u64 = 20_000;
        const PARKED: u64 = 16;
        let mut sim = Sim::new(self.seed);
        let gates: Rc<Vec<Gate>> = Rc::new((0..GATES).map(|_| Gate::with_capacity(16)).collect());
        let gate = self.drive("substrate.gate", &mut sim, GATES * PARKED, |sim| {
            let ctx = sim.ctx();
            for _ in 0..PARKED {
                let g = gates.clone();
                ctx.spawn(async move {
                    for gate in g.iter() {
                        gate.wait().await;
                    }
                });
            }
            let c = ctx.clone();
            ctx.spawn(async move {
                for gate in gates.iter() {
                    c.yield_now().await;
                    gate.open();
                }
            });
            sim.run();
        });
        self.set("substrate.gate_ns", gate.ns);
        self.spans.end(layer, 0);
    }

    /// `LogService` on a preloaded log: unbatched on one shard (the
    /// application path), then batched on four (the `log_storm` path).
    pub fn sharedlog(&mut self) {
        let layer = self.spans.begin("layer sharedlog");
        const TAGS: u64 = 1_000;
        const PER_TAG: u64 = 100;
        const CALLS: u64 = 50_000;
        let mut sim = Sim::new(self.seed);
        let log: LogService<SharedBytes> =
            LogService::new(sim.ctx(), LatencyModel::calibrated(), LogConfig::default());
        let payload = SharedBytes::from_vec(vec![7u8; 256]);
        let tag = |i: u64| Tag::new(TagKind::ObjectLog, 0x1A00_0000 + i % TAGS);
        let (home, far) = (NodeId(0), NodeId(1));

        // 100k live records over 1000 streams, all appended by node 0.
        let setup = self.spans.begin("setup");
        let preloaded: Rc<Vec<(Tag, SeqNum)>> = Rc::new(sim.block_on({
            let (log, payload) = (log.clone(), payload.clone());
            async move {
                let mut out = Vec::with_capacity((TAGS * PER_TAG) as usize);
                for i in 0..TAGS * PER_TAG {
                    out.push((tag(i), log.append(home, [tag(i)], payload.clone()).await));
                }
                out
            }
        }));
        self.spans.end(setup, 0);

        let own = Tag::new(TagKind::StepLog, 0x1B00_0001);
        let append = self.drive("sharedlog.append", &mut sim, CALLS, |sim| {
            let (log, payload) = (log.clone(), payload.clone());
            sim.block_on(async move {
                for i in 0..CALLS {
                    log.append(home, [own, tag(i)], payload.clone()).await;
                }
            });
        });
        self.set("sharedlog.append_ns", append.ns);
        self.set("sharedlog.append_polls", append.polls);
        self.set("sharedlog.allocs_per_append", append.allocs);

        let cond = Tag::new(TagKind::StepLog, 0x1B00_0002);
        let cond_append = self.drive("sharedlog.cond_append", &mut sim, CALLS, |sim| {
            let (log, payload) = (log.clone(), payload.clone());
            sim.block_on(async move {
                for i in 0..CALLS {
                    log.cond_append(home, [cond, tag(i)], payload.clone(), cond, i as usize)
                        .await;
                }
            });
        });
        self.set("sharedlog.cond_append_ns", cond_append.ns);

        let hit = self.drive("sharedlog.read_prev_hit", &mut sim, CALLS, |sim| {
            let log = log.clone();
            sim.block_on(async move {
                for i in 0..CALLS {
                    log.read_prev(home, tag(i), SeqNum::MAX).await;
                }
            });
        });
        self.set("sharedlog.read_prev_hit_ns", hit.ns);
        self.set("sharedlog.read_polls", hit.polls);

        // Node 1 has seen none of the preloaded records: every first
        // read of one is a cache miss.
        let miss = self.drive("sharedlog.read_prev_miss", &mut sim, CALLS, |sim| {
            let (log, preloaded) = (log.clone(), preloaded.clone());
            sim.block_on(async move {
                for &(t, sn) in preloaded.iter().take(CALLS as usize) {
                    log.read_prev(far, t, sn).await;
                }
            });
        });
        self.set("sharedlog.read_prev_miss_ns", miss.ns);

        let next = self.drive("sharedlog.read_next", &mut sim, CALLS, |sim| {
            let (log, preloaded) = (log.clone(), preloaded.clone());
            sim.block_on(async move {
                for &(t, sn) in preloaded.iter().take(CALLS as usize) {
                    log.read_next(home, t, sn).await;
                }
            });
        });
        self.set("sharedlog.read_next_ns", next.ns);

        // §5 recovery reads: a 1000-record step log, replayed 100 times.
        const REPLAYS: u64 = 100;
        const STEP_LOG: u64 = 1_000;
        let step_log = Tag::new(TagKind::StepLog, 0x1B00_0003);
        let setup = self.spans.begin("setup");
        sim.block_on({
            let (log, payload) = (log.clone(), payload.clone());
            async move {
                for _ in 0..STEP_LOG {
                    log.append(home, [step_log], payload.clone()).await;
                }
            }
        });
        self.spans.end(setup, 0);
        let replay = self.drive("sharedlog.replay", &mut sim, REPLAYS * STEP_LOG, |sim| {
            let log = log.clone();
            sim.block_on(async move {
                for _ in 0..REPLAYS {
                    let (records, _) = log.replay_stream(home, step_log).await;
                    assert_eq!(records.len() as u64, STEP_LOG);
                }
            });
        });
        self.set("sharedlog.replay_ns_per_record", replay.ns);

        // Trim every preloaded stream to its head: 100k records reclaimed.
        let trim = self.drive("sharedlog.trim", &mut sim, TAGS * PER_TAG, |sim| {
            let log = log.clone();
            sim.block_on(async move {
                for i in 0..TAGS {
                    log.trim(home, tag(i), SeqNum::MAX).await;
                }
            });
        });
        self.set("sharedlog.trim_ns_per_record", trim.ns);
        self.set("sharedlog.trim_ns_per_call", trim.ns * PER_TAG as f64);

        // The batched path: 64 concurrent appenders, batch 16, 4 shards.
        const WRITERS: u64 = 64;
        const PER_WRITER: u64 = 1_500;
        let mut sim = Sim::new(self.seed);
        let log: LogService<SharedBytes> = LogService::new(
            sim.ctx(),
            LatencyModel::calibrated(),
            LogConfig {
                topology: Topology::sharded(4),
                sequencer_capacity: Some(20_000.0),
                batch_max_records: 16,
                ..LogConfig::default()
            },
        );
        let batched = self.drive(
            "sharedlog.append_batched",
            &mut sim,
            WRITERS * PER_WRITER,
            |sim| {
                let ctx = sim.ctx();
                for w in 0..WRITERS {
                    let (log, payload) = (log.clone(), payload.clone());
                    ctx.spawn(async move {
                        let own = Tag::new(TagKind::StepLog, 0x1C00_0000 + w);
                        for i in 0..PER_WRITER {
                            log.append(NodeId((w % 8) as u32), [own, tag(w + i)], payload.clone())
                                .await;
                        }
                    });
                }
                sim.run();
            },
        );
        self.set("sharedlog.append_batched_ns", batched.ns);
        self.set("sharedlog.append_batched_polls", batched.polls);
        self.spans.end(layer, 0);
    }

    /// 50k calls of one `KvStore` function, cycling over the keys.
    fn store_calls<F>(
        &mut self,
        sim: &mut Sim,
        name: &str,
        store: &KvStore,
        keys: &Rc<Vec<Key>>,
        call: F,
    ) -> Cost
    where
        F: AsyncFn(&KvStore, &Key, u64) + 'static,
    {
        const CALLS: u64 = 50_000;
        let (store, keys) = (store.clone(), keys.clone());
        let cost = self.drive(&format!("kvstore.{name}"), sim, CALLS, |sim| {
            sim.block_on(async move {
                for i in 0..CALLS {
                    call(&store, &keys[i as usize % keys.len()], i).await;
                }
            });
        });
        self.set(&format!("kvstore.{name}_ns"), cost.ns);
        cost
    }

    /// `KvStore`: latest-value and multi-version calls on 10k keys.
    pub fn kvstore(&mut self) {
        let layer = self.spans.begin("layer kvstore");
        const KEYS: u64 = 10_000;
        let mut sim = Sim::new(self.seed);
        let store = KvStore::new(sim.ctx(), LatencyModel::calibrated());
        let keys: Rc<Vec<Key>> = Rc::new((0..KEYS).map(|i| Key::new(format!("o{i:07}"))).collect());
        for (i, k) in keys.iter().enumerate() {
            store.populate(k.clone(), Value::blob(256, i as u64));
        }
        let value = Value::blob(256, 1);
        let version = |i: u64| VersionNum(i / KEYS + 1);
        let get = self.store_calls(&mut sim, "get", &store, &keys, async |s, k, _| {
            s.get(k).await;
        });
        self.set("kvstore.polls", get.polls);
        let v = value.clone();
        self.store_calls(&mut sim, "put", &store, &keys, async move |s, k, _| {
            s.put(k, v.clone()).await;
        });
        self.store_calls(
            &mut sim,
            "put_version",
            &store,
            &keys,
            async move |s, k, i| {
                s.put_version(k, version(i), value.clone()).await;
            },
        );
        self.store_calls(
            &mut sim,
            "get_version",
            &store,
            &keys,
            async move |s, k, i| {
                s.get_version(k, version(i)).await;
            },
        );
        self.store_calls(
            &mut sim,
            "delete_version",
            &store,
            &keys,
            async move |s, k, i| {
                s.delete_version(k, version(i)).await;
            },
        );
        self.spans.end(layer, 0);
    }

    /// Requests of the §6.3 function with `ops` operations, all reads
    /// (`read_ratio` 1) or all writes (0), pre-generated so the factory's
    /// cost stays out of the driven loop.
    fn requests(&self, n: usize, ops: u32, read_ratio: f64) -> Rc<Vec<Value>> {
        let shape = SyntheticOps {
            ops_per_request: ops,
            read_ratio,
            ..SyntheticOps::default()
        };
        let factory = shape.factory();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        Rc::new((0..n as u64).map(|i| factory(&mut rng, i).1).collect())
    }

    /// Closed loop of single instances through `Runtime::execute`, on a
    /// deployment of `protocol`. A fresh `Runtime` every 32 requests keeps
    /// its task groups short, so their growth (measured by `substrate`)
    /// stays out of the protocol's cost.
    fn execute_loop(
        &mut self,
        name: &str,
        protocol: ProtocolKind,
        recorder: bool,
        requests: Rc<Vec<Value>>,
    ) -> Cost {
        let mut sim = Sim::new(self.seed);
        let mut builder = Client::builder(sim.ctx()).protocol(protocol);
        if recorder {
            builder = builder.recorder();
        }
        let client = builder.build();
        let workload = SyntheticOps::default();
        workload.populate(&client);
        let (log0, store0) = (client.log().counters(), client.store().counters());
        let calls = requests.len() as u64;
        let mut cost = self.drive(name, &mut sim, calls, |sim| {
            let client = client.clone();
            sim.block_on(async move {
                let mut runtime = None;
                for (i, input) in requests.iter().enumerate() {
                    if i % 32 == 0 {
                        let fresh = Runtime::new(client.clone(), RuntimeConfig::default());
                        workload.register(&fresh);
                        runtime = Some(fresh);
                    }
                    let runtime = runtime.as_ref().expect("set on the first request");
                    let id = client.fresh_instance_id();
                    runtime
                        .execute(id, "synthetic.ops", input.clone())
                        .await
                        .expect("fault-free request");
                }
            });
        });
        cost.log = client.log().counters().since(&log0);
        cost.store = client.store().counters().since(&store0);
        cost
    }

    /// Protocol code (`halfmoon`): `Env::read`/`write`/`init`+`finish` of
    /// `protocol`, the recorder, §5 replay and the garbage collector.
    /// Returns the per-request costs for the attribution.
    pub fn core(&mut self, protocol: ProtocolKind) -> CoreCosts {
        let layer = self.spans.begin("layer core");
        const REQUESTS: usize = 4_000;
        const OPS: u32 = 10;
        let noop = self.requests(REQUESTS, 0, 1.0);
        let reads = self.requests(REQUESTS, OPS, 1.0);
        let writes = self.requests(REQUESTS, OPS, 0.0);
        let bare = self.execute_loop(
            "core.noop_unsafe",
            ProtocolKind::Unsafe,
            false,
            noop.clone(),
        );
        let init_finish = self.execute_loop("core.init_finish", protocol, false, noop);
        let read = self.execute_loop("core.read", protocol, false, reads.clone());
        let write = self.execute_loop("core.write", protocol, false, writes.clone());
        let ops = f64::from(OPS);
        self.set("core.init_finish_ns", init_finish.ns - bare.ns);
        self.set("core.read_ns", (read.ns - init_finish.ns) / ops);
        self.set("core.write_ns", (write.ns - init_finish.ns) / ops);
        let extra = |c: &Cost| {
            c.per_call(c.log.log_appends) - init_finish.per_call(init_finish.log.log_appends)
        };
        self.set("core.appends_per_read", extra(&read) / ops);
        self.set("core.appends_per_write", extra(&write) / ops);

        let read_rec = self.execute_loop("core.read_recorded", protocol, true, reads);
        let write_rec = self.execute_loop("core.write_recorded", protocol, true, writes);
        self.set(
            "core.recorder_ns_per_op",
            ((read_rec.ns - read.ns) + (write_rec.ns - write.ns)) / (2.0 * ops),
        );

        // §5: every instance runs ten writes to the end, then a second
        // attempt of the same instance replays them from its step log.
        const INSTANCES: u64 = 1_000;
        let mut sim = Sim::new(self.seed);
        let client = Client::builder(sim.ctx()).protocol(protocol).build();
        SyntheticOps::default().populate(&client);
        let attempt = |client: Client, ids: Rc<Vec<hm_common::InstanceId>>, attempt: u32| async move {
            for (i, &id) in ids.iter().enumerate() {
                let spec = InvocationSpec::new(id, NodeId(0)).attempt(attempt);
                let mut env = Env::init(&client, spec).await.expect("no faults");
                for j in 0..u64::from(OPS) {
                    let key = Key::new(format!("o{:07}", (i as u64 * 10 + j) % 10_000));
                    env.write(&key, Value::blob(256, j))
                        .await
                        .expect("no faults");
                }
                env.finish(Value::Null).await.expect("no faults");
            }
        };
        let ids: Rc<Vec<_>> = Rc::new((0..INSTANCES).map(|_| client.fresh_instance_id()).collect());
        let setup = self.spans.begin("setup");
        sim.block_on(attempt(client.clone(), ids.clone(), 0));
        self.spans.end(setup, 0);
        let replayed = |c: &Client| c.recovery_stats().replayed_records;
        let before = replayed(&client);
        let replay = self.drive("core.replay", &mut sim, INSTANCES, |sim| {
            sim.block_on(attempt(client.clone(), ids, 1));
        });
        let records = (replayed(&client) - before).max(1);
        self.set(
            "core.replay_ns_per_record",
            replay.ns * INSTANCES as f64 / records as f64,
        );

        let gc = GarbageCollector::new(client.clone(), NodeId(0));
        let reclaimed = Rc::new(std::cell::Cell::new(0usize));
        let collect = self.drive("core.gc", &mut sim, INSTANCES, |sim| {
            let reclaimed = reclaimed.clone();
            sim.block_on(async move { reclaimed.set(gc.collect().await.instances_reclaimed) });
        });
        self.set(
            "core.gc_ns_per_instance",
            collect.ns * INSTANCES as f64 / reclaimed.get().max(1) as f64,
        );
        self.spans.end(layer, 0);
        CoreCosts {
            init_finish,
            read,
            write,
            ops_per_request: ops,
            recorder_ns_per_op: self.get("core.recorder_ns_per_op").max(0.0),
            gc_ns_per_instance: self.get("core.gc_ns_per_instance"),
        }
    }

    /// `Runtime::invoke_request` and `Gateway::run_open_loop` with a body
    /// that does nothing, on the protocol that logs nothing.
    pub fn runtime(&mut self) {
        let layer = self.spans.begin("layer runtime");
        const REQUESTS: usize = 20_000;
        let noop = self.requests(REQUESTS, 0, 1.0);
        let deployment = |sim: &Sim| {
            let client = Client::builder(sim.ctx())
                .protocol(ProtocolKind::Unsafe)
                .build();
            let runtime = Runtime::new(client, RuntimeConfig::default());
            SyntheticOps::default().register(&runtime);
            runtime
        };
        let mut sim = Sim::new(self.seed);
        let runtime = deployment(&sim);
        let invoke = self.drive("runtime.invoke", &mut sim, REQUESTS as u64, |sim| {
            let noop = noop.clone();
            sim.block_on(async move {
                for input in noop.iter() {
                    runtime
                        .invoke_request("synthetic.ops", input.clone())
                        .await
                        .expect("fault-free request");
                }
            });
        });
        self.set("runtime.invoke_ns", invoke.ns);
        self.set("runtime.invoke_polls", invoke.polls);

        let mut sim = Sim::new(self.seed);
        let gateway = Gateway::new(deployment(&sim));
        let generated = Rc::new(std::cell::Cell::new(0u64));
        let spec = LoadSpec {
            rate_per_sec: 1000.0,
            duration: Duration::from_secs(REQUESTS as u64 / 1000),
            warmup: Duration::ZERO,
            factory: {
                let generated = generated.clone();
                Rc::new(move |_, seq| {
                    generated.set(generated.get() + 1);
                    (
                        "synthetic.ops".to_string(),
                        noop[seq as usize % noop.len()].clone(),
                    )
                })
            },
        };
        let open_loop = self.drive("runtime.gateway", &mut sim, REQUESTS as u64, |sim| {
            let report = sim.block_on(async move { gateway.run_open_loop(spec).await });
            assert_eq!(report.errors, 0);
        });
        // Per generated request; the Poisson count is within 2 % of 20k.
        let per_request = REQUESTS as f64 / generated.get().max(1) as f64;
        let gateway_ns = open_loop.ns * per_request - invoke.ns;
        self.set("runtime.gateway_ns", gateway_ns);
        // Minus the executor's share: the task spawned per request and
        // the polls the open loop adds to an invocation.
        let extra_polls = (open_loop.polls * per_request - invoke.polls).max(0.0);
        let executor = extra_polls * self.get("sim.timer_ns") + self.get("sim.spawn_ns");
        self.set("runtime.gateway_self_ns", (gateway_ns - executor).max(0.0));
        self.spans.end(layer, 0);
    }

    /// The observers' own primitives and the workload's request factory.
    pub fn observers_and_workloads(&mut self) {
        let layer = self.spans.begin("layer observers");
        const SPANS: u64 = 500_000;
        let tracer = Tracer::new();
        let id = self.spans.begin("observers.span");
        for i in 0..SPANS {
            let at = Duration::from_nanos(i);
            let trace = TraceId(i % 64 + 1);
            let span =
                tracer.span_begin(Lane::Gateway, at, trace, SpanId::NONE, "op", String::new());
            tracer.span_end(Lane::Gateway, at, trace, span);
        }
        self.spans.end(id, SPANS);
        self.set("observers.span_ns", self.spans.ns_per_call(id));

        const RECORDS: u64 = 2_000_000;
        let mut histogram = Histogram::new();
        let id = self.spans.begin("observers.histogram_record");
        for i in 0..RECORDS {
            histogram.record_ns(std::hint::black_box(1_000_000 + i * 37));
        }
        std::hint::black_box(&histogram);
        self.spans.end(id, RECORDS);
        self.set("observers.histogram_record_ns", self.spans.ns_per_call(id));
        self.spans.end(layer, 0);

        let layer = self.spans.begin("layer workloads");
        const REQUESTS: u64 = 100_000;
        let factory = SyntheticOps::default().factory();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let id = self.spans.begin("workloads.factory");
        for i in 0..REQUESTS {
            std::hint::black_box(factory(&mut rng, i));
        }
        self.spans.end(id, REQUESTS);
        self.set("workloads.factory_ns", self.spans.ns_per_call(id));
        self.spans.end(layer, 0);
    }
}

/// Per-request costs of the protocol drivers, for the attribution.
pub struct CoreCosts {
    pub init_finish: Cost,
    pub read: Cost,
    pub write: Cost,
    pub ops_per_request: f64,
    pub recorder_ns_per_op: f64,
    /// Inclusive of the one step-log trim per collected instance.
    pub gc_ns_per_instance: f64,
}
