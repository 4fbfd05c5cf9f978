//! End-to-end protocol tests: exactly-once semantics under systematic crash
//! injection, peer-instance races, the paper's worked examples (Figures 4
//! and 6), garbage collection lifetimes, and protocol switching.
//!
//! These tests drive the protocols through a minimal retry loop (the same
//! contract `hm-runtime` implements): on an injected crash the SSF is
//! re-executed with the same instance id until it completes.

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};
use std::time::Duration;

use halfmoon::{
    audit, transition_log_tag, Client, Env, FaultPolicy, GarbageCollector, Invoker, LocalBoxFuture,
    MatrixOp, OpRecord, ProtocolConfig, ProtocolKind, Site, StepRecord, Switcher,
};
use hm_common::latency::LatencyModel;
use hm_common::observe::OpCtx;
use hm_common::{FxHashMap, HmError, HmResult, InstanceId, Key, StepNum, Value};
use hm_substrate::explore::{Alt, ChoiceSource};
use hm_substrate::sim::Sim;

mod common;

use common::{run_ssf, spec, NODE};

/// Delay between an attempt's crash and its retry.
const RETRY: Option<Duration> = Some(Duration::from_millis(2));

/// A recorded deployment of `config` on the test latency model.
fn deploy(seed: u64, config: ProtocolConfig) -> (Sim, Client) {
    let sim = Sim::new(seed);
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::uniform_test_model())
        .protocol_config(config)
        .recorder()
        .build();
    (sim, client)
}

fn setup(kind: ProtocolKind) -> (Sim, Client) {
    deploy(0xda7a, ProtocolConfig::uniform(kind))
}

/// `kind`, with switching enabled.
fn switching(kind: ProtocolKind) -> ProtocolConfig {
    ProtocolConfig {
        switching_enabled: true,
        ..ProtocolConfig::uniform(kind)
    }
}

/// What the test invoker holds per function: runs it to completion as
/// the given instance, as one boxed future.
type Start = Box<dyn Fn(Client, InstanceId, Value) -> LocalBoxFuture<'static, HmResult<Value>>>;

/// Test invoker: a function registry driving children through the same
/// retry loop. It holds the client, so the client holds it weakly (as the
/// runtime's `ChildInvoker` does), through [`Installed`]: the test owns
/// it, and both are freed with the deployment.
struct TestInvoker {
    client: Client,
    funcs: RefCell<FxHashMap<String, Start>>,
}

/// The client's handle on an installed [`TestInvoker`].
struct Installed(Weak<TestInvoker>);

impl TestInvoker {
    fn install(client: &Client) -> Rc<TestInvoker> {
        let inv = Rc::new(TestInvoker {
            client: client.clone(),
            funcs: RefCell::default(),
        });
        client.register_invoker(Rc::new(Installed(Rc::downgrade(&inv))));
        inv
    }

    fn register(
        &self,
        name: &str,
        body: impl AsyncFn(&mut Env, Value) -> HmResult<Value> + Clone + 'static,
    ) {
        let start: Start = Box::new(move |client, id, input| {
            Box::pin(run_ssf(client, spec(id).input(input), RETRY, body.clone()))
        });
        self.funcs.borrow_mut().insert(name.to_string(), start);
    }
}

impl Invoker for Installed {
    fn invoke(
        &self,
        callee: InstanceId,
        func: &str,
        input: Value,
        _octx: OpCtx,
    ) -> LocalBoxFuture<'static, HmResult<Value>> {
        let Some(inv) = self.0.upgrade() else {
            return Box::pin(std::future::ready(Err(HmError::config(
                "the test invoker was dropped",
            ))));
        };
        let funcs = inv.funcs.borrow();
        match funcs.get(func) {
            Some(start) => start(inv.client.clone(), callee, input),
            None => Box::pin(std::future::ready(Err(HmError::UnknownFunction {
                name: func.to_string(),
            }))),
        }
    }
}

/// An installed invoker does not outlive its deployment: the client holds
/// it only weakly, so dropping the sim, the client and the test's handle
/// frees it.
#[test]
fn an_installed_test_invoker_is_freed_with_its_deployment() {
    let (sim, client) = setup(ProtocolKind::HalfmoonRead);
    let invoker = TestInvoker::install(&client);
    let weak = Rc::downgrade(&invoker);
    drop((sim, client, invoker));
    assert!(
        weak.upgrade().is_none(),
        "the client keeps its test invoker alive"
    );
}

/// The canonical body: read X, double it, write X, read Y, write Y+1.
async fn canonical(env: &mut Env, _input: Value) -> HmResult<Value> {
    let x = env.read(&Key::new("X")).await?.as_int().unwrap_or(0);
    env.write(&Key::new("X"), Value::Int(x * 2)).await?;
    let y = env.read(&Key::new("Y")).await?.as_int().unwrap_or(0);
    env.write(&Key::new("Y"), Value::Int(y + 1)).await?;
    Ok(Value::Int(x))
}

/// The canonical body, then one invoke of `child`; returns the sum of
/// both results.
async fn swept(env: &mut Env, input: Value) -> HmResult<Value> {
    let x = canonical(env, input).await?.as_int().unwrap_or(0);
    let z = env
        .invoke("child", Value::Null)
        .await?
        .as_int()
        .unwrap_or(0);
    Ok(Value::Int(x + z))
}

fn populate_xy(client: &Client) {
    client.populate(Key::new("X"), Value::Int(3));
    client.populate(Key::new("Y"), Value::Int(10));
}

fn all_protocols() -> [ProtocolKind; 3] {
    [
        ProtocolKind::HalfmoonRead,
        ProtocolKind::HalfmoonWrite,
        ProtocolKind::Boki,
    ]
}

// ---------------------------------------------------------------------
// Failure-free behaviour
// ---------------------------------------------------------------------

#[test]
fn failure_free_execution_all_protocols() {
    for kind in all_protocols() {
        let (mut sim, client) = setup(kind);
        populate_xy(&client);
        let id = client.fresh_instance_id();
        let out = sim
            .block_on(run_ssf(client.clone(), spec(id), RETRY, canonical))
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(out, Value::Int(3), "{kind}");
        // Effects applied exactly once.
        let x = read_final(&mut sim, &client, "X");
        let y = read_final(&mut sim, &client, "Y");
        assert_eq!(x, Value::Int(6), "{kind}");
        assert_eq!(y, Value::Int(11), "{kind}");
        audit(&client).assert_passed(kind);
    }
}

/// Reads the final value of a key the way the configured protocol would.
fn read_final(sim: &mut Sim, client: &Client, key: &str) -> Value {
    let key = Key::new(key);
    let id = client.fresh_instance_id();
    let read = async move |env: &mut Env, _| env.read(&key).await;
    sim.block_on(run_ssf(client.clone(), spec(id), RETRY, read))
        .unwrap()
}

// ---------------------------------------------------------------------
// The auditor
// ---------------------------------------------------------------------

/// `audit` runs the six generic checks on every recorded deployment, then
/// the §4.4 proposition of a uniform Halfmoon one: Boki, Unsafe, per-key
/// mixes and switching deployments get the generic checks only. Auditing
/// an unrecorded deployment is a `setup:` violation, not a pass.
#[test]
fn audit_runs_the_checks_of_its_deployment() {
    use ProtocolKind::*;
    const GENERIC: [&str; 6] = [
        "read_stability",
        "invoke_stability",
        "write_determinism",
        "raw_write_uniqueness",
        "monotonic_reads",
        "read_your_writes",
    ];
    let per_key = |default, key_kind| {
        let mut config = ProtocolConfig::uniform(default);
        config.per_key.insert(Key::new("X"), key_kind);
        config
    };
    let deployments = [
        (
            "Halfmoon-read",
            ProtocolConfig::uniform(HalfmoonRead),
            Some("hm_read_sequential_consistency"),
        ),
        (
            "Halfmoon-write",
            ProtocolConfig::uniform(HalfmoonWrite),
            Some("hm_write_order"),
        ),
        ("Boki", ProtocolConfig::uniform(Boki), None),
        ("Unsafe", ProtocolConfig::uniform(Unsafe), None),
        ("read, X write", per_key(HalfmoonRead, HalfmoonWrite), None),
        ("write, X read", per_key(HalfmoonWrite, HalfmoonRead), None),
        ("switching read", switching(HalfmoonRead), None),
        ("switching write", switching(HalfmoonWrite), None),
    ];
    for (name, config, proposition) in deployments {
        let (_sim, client) = deploy(1, config);
        let report = audit(&client);
        let want: Vec<&str> = GENERIC.into_iter().chain(proposition).collect();
        assert_eq!(report.checks, want, "{name}");
        assert!(report.passed(), "{name}: {report}");
    }
    let sim = Sim::new(1);
    let report = audit(&Client::builder(sim.ctx()).build());
    assert!(report.checks.is_empty(), "{report:?}");
    assert!(
        matches!(report.violations.as_slice(), [v] if v.starts_with("setup: ")),
        "{report:?}"
    );
}

// ---------------------------------------------------------------------
// Systematic crash-point sweep: the core exactly-once test
// ---------------------------------------------------------------------

/// The site of every crash point of the swept body (the canonical body,
/// then one invoke), per deployment: the four protocols, Halfmoon-read
/// with deterministic versions (§4.1), and Halfmoon-write switching to
/// Halfmoon-read, whose reads and writes are all dual (§5.2). Point `n`
/// of a row is its `n`-th entry; each line is one op: init, read X,
/// write X, read Y, write Y, invoke, finish.
#[rustfmt::skip]
fn site_table() -> [(&'static str, Vec<Site>); 6] {
    use Site::*;
    let halfmoon_read = vec![
        Init,
        OpEntry,
        OpEntry, BeforeEffect, AfterEffect,
        OpEntry,
        OpEntry, BeforeEffect, AfterEffect,
        BeforeEffect, AfterEffect,
        BeforeAppend,
    ];
    [
        ("Halfmoon-read", halfmoon_read.clone()),
        ("Halfmoon-read dv", halfmoon_read),
        ("Halfmoon-write", vec![
            Init,
            OpEntry, AfterEffect,
            OpEntry, BeforeEffect,
            OpEntry, AfterEffect,
            OpEntry, BeforeEffect,
            BeforeEffect, AfterEffect,
            BeforeAppend,
        ]),
        ("Boki", vec![
            Init,
            OpEntry, AfterEffect,
            OpEntry, BeforeEffect, AfterEffect,
            OpEntry, AfterEffect,
            OpEntry, BeforeEffect, AfterEffect,
            BeforeEffect, AfterEffect,
            BeforeAppend,
        ]),
        // No init or finish record, so no crash point of their own.
        ("Unsafe", vec![
            OpEntry,
            OpEntry, AfterEffect,
            OpEntry,
            OpEntry, AfterEffect,
            BeforeEffect,
        ]),
        ("transitional", vec![
            Init,
            OpEntry, AfterEffect,
            OpEntry, BeforeEffect, BetweenEffects, AfterEffect,
            OpEntry, AfterEffect,
            OpEntry, BeforeEffect, BetweenEffects, AfterEffect,
            BeforeEffect, AfterEffect,
            BeforeAppend,
        ]),
    ]
}

/// A deployment of `site_table`'s row `name`, X and Y populated, with a
/// test invoker whose `child` reads Z, writes Z+1 and returns it. The
/// transitional one is a Halfmoon-write deployment whose transition log
/// holds a BEGIN, so every SSF initialized after it runs dual reads and
/// writes.
fn setup_row(name: &str) -> (Sim, Client, Rc<TestInvoker>) {
    let (mut sim, client) = match name {
        "Halfmoon-read" => setup(ProtocolKind::HalfmoonRead),
        "Halfmoon-read dv" => deploy(
            0xda7a,
            ProtocolConfig {
                deterministic_versions: true,
                ..ProtocolConfig::uniform(ProtocolKind::HalfmoonRead)
            },
        ),
        "Boki" => setup(ProtocolKind::Boki),
        "Unsafe" => setup(ProtocolKind::Unsafe),
        "transitional" => deploy(0xda7a, switching(ProtocolKind::HalfmoonWrite)),
        _ => setup(ProtocolKind::HalfmoonWrite),
    };
    if name == "transitional" {
        let log = client.log().clone();
        let begin = StepRecord {
            instance: InstanceId(u128::MAX),
            step: StepNum(0),
            op: OpRecord::TransitionBegin {
                from: ProtocolKind::HalfmoonWrite,
                to: ProtocolKind::HalfmoonRead,
            },
        };
        sim.block_on(async move { log.append(NODE, vec![transition_log_tag()], begin).await });
    }
    populate_xy(&client);
    let invoker = TestInvoker::install(&client);
    invoker.register("child", async |env: &mut Env, _| {
        let z = env.read(&Key::new("Z")).await?.as_int().unwrap_or(0);
        env.write(&Key::new("Z"), Value::Int(z + 1)).await?;
        Ok(Value::Int(z + 1))
    });
    (sim, client, invoker)
}

/// The swept body ran exactly once on a fault-tolerant deployment: its
/// result (the canonical one plus the child's), X and Y as after one
/// run, the child's effect applied once, and the audit passes.
fn assert_swept_once(sim: &mut Sim, client: &Client, out: &Value, context: &str) {
    assert_eq!(out, &Value::Int(4), "{context}: wrong result");
    for (key, want) in [("X", 6), ("Y", 11), ("Z", 1)] {
        assert_eq!(
            read_final(sim, client, key),
            Value::Int(want),
            "{context}: {key} duplicated or lost"
        );
    }
    audit(client).assert_passed(context);
}

/// Store operations issued so far (reads, writes, conditional writes):
/// what a site says is, or is not yet, done.
fn store_ops(client: &Client) -> u64 {
    let c = client.store().counters();
    c.db_reads + c.db_writes + c.db_cond_writes
}

/// For every deployment of `site_table` and every crash point of the
/// swept body, inject exactly one crash there. The crash must land at the
/// table's site, and one point past the table none may fire. A
/// `BeforeEffect` or `BetweenEffects` point must have a store operation
/// (the child's read, for an invoke) before the next point, and an
/// `AfterEffect` or `BetweenEffects` point one since the previous point.
/// Under the fault-tolerant deployments the run must also be exactly once
/// (`assert_swept_once`).
#[test]
fn exactly_once_under_single_crash_at_every_point() {
    let table = site_table();
    for site in Site::ALL {
        assert!(
            table.iter().any(|(_, sites)| sites.contains(&site)),
            "{site:?} is in no row of the table"
        );
    }
    for (name, sites) in table {
        // Store operations of the first attempt when it crashed at point
        // `n` (entry `n - 1`), then those of a fault-free run.
        let mut ops = Vec::new();
        for point in 1..=sites.len() as u32 + 1 {
            let (mut sim, client, _invoker) = setup_row(name);
            let id = client.fresh_instance_id();
            client.set_fault_plan(FaultPolicy::at([(id, point)]));
            let policy = client.faults();
            let c = client.clone();
            let (first_ops, out) = sim.block_on(async move {
                let first = Env::run(&c, spec(id), swept).await;
                let first_ops = store_ops(&c);
                let out = match first {
                    Err(e) if e.is_crash() => run_ssf(c, spec(id).attempt(1), RETRY, swept).await,
                    done => done,
                };
                (first_ops, out)
            });
            ops.push(first_ops);
            let out = out.unwrap_or_else(|e| panic!("{name} point {point}: {e}"));
            let crashed: Vec<Site> = Site::ALL
                .into_iter()
                .flat_map(|site| (0..policy.injected_at(site)).map(move |_| site))
                .collect();
            let expected: Vec<Site> = sites.get(point as usize - 1).copied().into_iter().collect();
            assert_eq!(crashed, expected, "{name} point {point}: crash site");
            assert_eq!(
                policy.injected(),
                expected.len() as u32,
                "{name} point {point}"
            );
            if name == "Unsafe" {
                continue;
            }
            assert_swept_once(&mut sim, &client, &out, &format!("{name} point {point}"));
        }
        for (i, site) in sites.iter().enumerate() {
            let point = i + 1;
            if matches!(site, Site::BeforeEffect | Site::BetweenEffects) {
                assert!(
                    ops[i + 1] > ops[i],
                    "{name} point {point}: {site:?}, but no store operation follows it"
                );
            }
            if matches!(site, Site::AfterEffect | Site::BetweenEffects) {
                assert!(
                    i > 0 && ops[i] > ops[i - 1],
                    "{name} point {point}: {site:?}, but no store operation precedes it"
                );
            }
        }
    }
}

/// Crashes one instance at the listed crash points, numbered across its
/// attempts: the first attempt's point `p` is number `p`, and a retry
/// goes on counting where the crashed attempt stopped. Every other
/// instance's points pass.
struct CrashInstance {
    /// The instance's id, masked by [`WHO`].
    who: u64,
    at: Vec<u32>,
    seen: Cell<u32>,
}

/// The bits of an instance's id that its crash alternatives' ids carry.
const WHO: u64 = (1 << 40) - 1;

impl ChoiceSource for CrashInstance {
    fn choose(&self, _site: &'static str, alts: &[Alt]) -> usize {
        if alts[0].id & WHO != self.who {
            return 0;
        }
        self.seen.set(self.seen.get() + 1);
        usize::from(self.at.contains(&self.seen.get()))
    }
}

/// The swept body on deployment `name`, its instance crashed at `at`
/// (numbered as [`CrashInstance`] does), run to completion. Returns the
/// crash points the instance passed and the result.
fn run_crashing(name: &str, at: Vec<u32>) -> (Sim, Client, u32, HmResult<Value>) {
    let (mut sim, client, _invoker) = setup_row(name);
    let id = client.fresh_instance_id();
    let source = Rc::new(CrashInstance {
        who: id.0 as u64 & WHO,
        at,
        seen: Cell::new(0),
    });
    // No budget: a spent one would stop consulting the source, and its
    // count of points passed.
    client.set_fault_plan(FaultPolicy::explored(source.clone(), u32::MAX));
    let out = sim.block_on(run_ssf(client.clone(), spec(id), RETRY, swept));
    (sim, client, source.seen.get(), out)
}

/// Double crashes: for every fault-tolerant deployment of `site_table`
/// and every crash point `first` of the swept body but its last, the
/// first attempt crashes at `first` and the retry at the next window,
/// the one the first attempt numbers `first + 1`. The retry replays the
/// ops logged before the crash and skips their effect windows, so it
/// numbers that window lower by the points it skipped: a run that
/// crashes only at `first` measures them. Both crashes must land at the
/// table's sites, and the run must be exactly once (`assert_swept_once`).
#[test]
fn exactly_once_under_double_crashes() {
    for (name, sites) in site_table() {
        if name == "Unsafe" {
            continue;
        }
        let points = sites.len() as u32;
        for first in 1..points {
            let (.., passed, out) = run_crashing(name, vec![first]);
            out.unwrap_or_else(|e| panic!("{name} point {first}: {e}"));
            let skipped = points - (passed - first);
            let second = first + 1 - skipped;
            let (mut sim, client, _, out) = run_crashing(name, vec![first, first + second]);
            let pair = format!("{name} points {first},{}", first + 1);
            let out = out.unwrap_or_else(|e| panic!("{pair}: {e}"));
            let policy = client.faults();
            assert_eq!(policy.injected(), 2, "{pair}");
            let expected = &sites[first as usize - 1..=first as usize];
            for site in Site::ALL {
                let want = expected.iter().filter(|&&s| s == site).count() as u32;
                assert_eq!(policy.injected_at(site), want, "{pair}: {site:?}");
            }
            assert_swept_once(&mut sim, &client, &out, &pair);
        }
    }
}

/// The unsafe baseline demonstrably violates exactly-once: a crash after
/// the raw write, before the function returns, re-applies the write on
/// retry (the §1 anomaly).
#[test]
fn unsafe_baseline_duplicates_effects_under_crash() {
    // Read-modify-write counter.
    let body = async |env: &mut Env, _| {
        let c = env.read(&Key::new("C")).await?.as_int().unwrap_or(0);
        env.write(&Key::new("C"), Value::Int(c + 1)).await?;
        Ok(Value::Null)
    };
    // Point 3 is the write's `AfterEffect` (1 and 2 are the two ops'
    // entries); no crash at all is point 0.
    for (point, want) in [(3, 2), (0, 1)] {
        let (mut sim, client) = setup(ProtocolKind::Unsafe);
        client.populate(Key::new("C"), Value::Int(0));
        let id = client.fresh_instance_id();
        client.set_fault_plan(FaultPolicy::at([(id, point)]));
        sim.block_on(run_ssf(client.clone(), spec(id), RETRY, body))
            .unwrap();
        let crashed = client.faults().injected_at(Site::AfterEffect);
        assert_eq!(crashed, u32::from(point != 0), "point {point}");
        assert_eq!(
            client.store().peek(&Key::new("C")),
            Some(Value::Int(want)),
            "point {point}"
        );
    }
}

// ---------------------------------------------------------------------
// Peer-instance races (§5.1)
// ---------------------------------------------------------------------

/// Two live instances of the same SSF run concurrently (a falsely-declared
/// timeout); conditional appends must let exactly one win each step and
/// the final effect must be that of a single execution.
#[test]
fn peer_instances_resolve_to_single_execution() {
    for kind in all_protocols() {
        let (mut sim, client) = setup(kind);
        populate_xy(&client);
        let id = client.fresh_instance_id();
        let ctx = sim.ctx();
        let h1 = ctx.spawn(run_ssf(client.clone(), spec(id), RETRY, canonical));
        let h2 = {
            let client = client.clone();
            let ctx2 = ctx.clone();
            ctx.spawn(async move {
                // Peer starts slightly later, mid-flight of the first.
                ctx2.sleep(Duration::from_micros(1800)).await;
                run_ssf(client, spec(id), RETRY, canonical).await
            })
        };
        sim.run();
        let r1 = h1.try_take().expect("peer 1 finished").unwrap();
        let r2 = h2.try_take().expect("peer 2 finished").unwrap();
        assert_eq!(r1, r2, "{kind}: peers must return identical results");
        assert_eq!(read_final(&mut sim, &client, "Y"), Value::Int(11), "{kind}");
        audit(&client).assert_passed(kind);
    }
}

/// Peer races combined with crashes: the failed instance's retry races the
/// live peer.
#[test]
fn crashed_instance_retry_races_live_peer() {
    for kind in all_protocols() {
        for point in [2u32, 5, 8, 11] {
            let (mut sim, client) = setup(kind);
            populate_xy(&client);
            let id = client.fresh_instance_id();
            client.set_fault_plan(FaultPolicy::at([(id, point)]));
            let ctx = sim.ctx();
            let h1 = ctx.spawn(run_ssf(client.clone(), spec(id), RETRY, canonical));
            let h2 = {
                let client = client.clone();
                let ctx2 = ctx.clone();
                ctx.spawn(async move {
                    ctx2.sleep(Duration::from_millis(1)).await;
                    run_ssf(client, spec(id), RETRY, canonical).await
                })
            };
            sim.run();
            let r1 = h1.try_take().expect("peer 1").unwrap();
            let r2 = h2.try_take().expect("peer 2").unwrap();
            assert_eq!(r1, r2, "{kind} point {point}");
            assert_eq!(
                read_final(&mut sim, &client, "Y"),
                Value::Int(11),
                "{kind} point {point}"
            );
            audit(&client).assert_passed(format_args!("{kind} {point}"));
        }
    }
}

// ---------------------------------------------------------------------
// The paper's worked examples
// ---------------------------------------------------------------------

/// Figure 4: under Halfmoon-read, a re-executed read seeks backward from
/// its original cursor and must *not* observe writes that landed after it.
#[test]
fn figure4_reads_are_stable_against_later_writes() {
    let (mut sim, client) = setup(ProtocolKind::HalfmoonRead);
    client.populate(Key::new("X"), Value::Int(100)); // F1's write at t0
    let f2 = client.fresh_instance_id();
    // F2 reads X, crashes, meanwhile F3 writes X, then F2 re-executes.
    client.set_fault_plan(FaultPolicy::at([(f2, 3)])); // before finish
    let body = async |env: &mut Env, _| {
        let x = env.read(&Key::new("X")).await?;
        Ok(x)
    };
    let ctx = sim.ctx();
    let h2 = ctx.spawn(run_ssf(client.clone(), spec(f2), RETRY, body));
    // F3 writes X concurrently (while F2 is crashed/retrying).
    let f3 = client.fresh_instance_id();
    let writer = async |env: &mut Env, _| {
        env.write(&Key::new("X"), Value::Int(999)).await?;
        Ok(Value::Null)
    };
    let h3 = {
        let client = client.clone();
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            ctx2.sleep(Duration::from_micros(100)).await;
            run_ssf(client, spec(f3), RETRY, writer).await
        })
    };
    sim.run();
    h3.try_take().expect("F3 finished").unwrap();
    let seen = h2.try_take().expect("F2 finished").unwrap();
    // F2's read was parameterized before F3's write: it must see 100 even
    // though 999 was the latest value during its re-execution.
    assert_eq!(seen, Value::Int(100));
    assert_eq!(client.faults().injected_at(Site::BeforeAppend), 1);
    audit(&client).assert_passed("figure4 reads are stable against later writes");
}

/// Figure 6: under Halfmoon-write, a stale write (old cursor) must not
/// overwrite a fresher write; a post-read write must.
#[test]
fn figure6_stale_writes_are_reordered() {
    let (mut sim, client) = setup(ProtocolKind::HalfmoonWrite);
    client.populate(Key::new("X"), Value::Int(0));
    client.populate(Key::new("Z"), Value::Int(0));
    client.populate(Key::new("Y"), Value::Int(7));

    // F2 runs first: writes X with a fresh cursor, reads Y, writes Z.
    let f2 = client.fresh_instance_id();
    let body2 = async |env: &mut Env, _| {
        env.read(&Key::new("Y")).await?; // advance cursor
        env.write(&Key::new("X"), Value::str("F2")).await?;
        env.write(&Key::new("Z"), Value::str("F2")).await?;
        Ok(Value::Null)
    };
    let out = sim.block_on(run_ssf(client.clone(), spec(f2), RETRY, body2));
    out.unwrap();

    // F1 starts *after* F2 in real time, but performs its write to X
    // before any read: its version tuple is its init cursor, which is
    // *larger* than F2's (it initialized later), so it wins X. Then it
    // reads Y (advancing further) and overwrites Z.
    let f1 = client.fresh_instance_id();
    let body1 = async |env: &mut Env, _| {
        env.write(&Key::new("X"), Value::str("F1")).await?;
        env.read(&Key::new("Y")).await?;
        env.write(&Key::new("Z"), Value::str("F1")).await?;
        Ok(Value::Null)
    };
    sim.block_on(run_ssf(client.clone(), spec(f1), RETRY, body1))
        .unwrap();
    assert_eq!(client.store().peek(&Key::new("X")), Some(Value::str("F1")));
    assert_eq!(client.store().peek(&Key::new("Z")), Some(Value::str("F1")));

    // Now the stale-write scenario: F3 inits early (small cursor), stalls,
    // and writes X only after F4 (larger cursor) has written it. F3's
    // conditional update must lose — the virtual interleaving places its
    // write before F4's (§4.2).
    let f3 = client.fresh_instance_id();
    let f4 = client.fresh_instance_id();
    let ctx = sim.ctx();
    let slow = async |env: &mut Env, _| {
        env.client().ctx().sleep(Duration::from_millis(50)).await; // stall
        env.write(&Key::new("X"), Value::str("stale")).await?;
        Ok(Value::Null)
    };
    let fast = async |env: &mut Env, _| {
        env.write(&Key::new("X"), Value::str("fresh")).await?;
        Ok(Value::Null)
    };
    let h3 = ctx.spawn(run_ssf(client.clone(), spec(f3), RETRY, slow));
    let h4 = {
        let client = client.clone();
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            ctx2.sleep(Duration::from_millis(10)).await; // init after f3
            run_ssf(client, spec(f4), RETRY, fast).await
        })
    };
    sim.run();
    h3.try_take().unwrap().unwrap();
    h4.try_take().unwrap().unwrap();
    assert_eq!(
        client.store().peek(&Key::new("X")),
        Some(Value::str("fresh"))
    );
}

// ---------------------------------------------------------------------
// Workflows (Invoke)
// ---------------------------------------------------------------------

#[test]
fn nested_workflow_chain() {
    let (mut sim, client) = setup(ProtocolKind::HalfmoonRead);
    client.populate(Key::new("a"), Value::Int(1));
    let invoker = TestInvoker::install(&client);
    invoker.register("leaf", async |env: &mut Env, input| {
        let base = env.read(&Key::new("a")).await?.as_int().unwrap_or(0);
        Ok(Value::Int(base + input.as_int().unwrap_or(0)))
    });
    invoker.register("mid", async |env: &mut Env, input| {
        let r = env.invoke("leaf", input).await?;
        Ok(Value::Int(r.as_int().unwrap() * 10))
    });
    let root = async |env: &mut Env, _| {
        let r = env.invoke("mid", Value::Int(5)).await?;
        env.write(&Key::new("a"), r.clone()).await?;
        Ok(r)
    };
    let id = client.fresh_instance_id();
    let out = sim
        .block_on(run_ssf(client.clone(), spec(id), RETRY, root))
        .unwrap();
    assert_eq!(out, Value::Int(60));
    audit(&client).assert_passed("nested workflow chain");
}

// ---------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------

#[test]
fn gc_reclaims_finished_ssfs_and_old_versions() {
    let (mut sim, client) = setup(ProtocolKind::HalfmoonRead);
    client.populate(Key::new("K"), Value::Int(0));
    // Run several writers sequentially, accumulating versions.
    for i in 0..5 {
        let id = client.fresh_instance_id();
        let body = async move |env: &mut Env, _| {
            env.write(&Key::new("K"), Value::Int(i)).await?;
            Ok(Value::Null)
        };
        sim.block_on(run_ssf(client.clone(), spec(id), RETRY, body))
            .unwrap();
    }
    assert_eq!(client.store().version_count(), 5);
    let live_before = client.log().live_records();
    let gc = GarbageCollector::new(client.clone(), NODE);
    let client2 = client.clone();
    let stats = sim.block_on(async move {
        let _ = &client2;
        gc.collect().await
    });
    assert_eq!(stats.instances_reclaimed, 5);
    assert_eq!(
        stats.versions_deleted, 4,
        "all but the latest version freed"
    );
    assert_eq!(client.store().version_count(), 1);
    assert!(client.log().live_records() < live_before);
    // The surviving version is still readable.
    assert_eq!(read_final(&mut sim, &client, "K"), Value::Int(4));
}

#[test]
fn gc_never_collects_versions_a_live_reader_may_see() {
    let (mut sim, client) = setup(ProtocolKind::HalfmoonRead);
    client.populate(Key::new("K"), Value::Int(0));
    let ctx = sim.ctx();
    // A slow reader initializes, then stalls before reading.
    let reader = client.fresh_instance_id();
    let slow_reader = async |env: &mut Env, _| {
        env.client().ctx().sleep(Duration::from_millis(200)).await;
        let v = env.read(&Key::new("K")).await?;
        Ok(v)
    };
    let h_reader = ctx.spawn(run_ssf(client.clone(), spec(reader), RETRY, slow_reader));
    // Writers update K while the reader stalls; then the GC runs.
    let h_rest = {
        let client = client.clone();
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            ctx2.sleep(Duration::from_millis(10)).await;
            for i in 0..3 {
                let id = client.fresh_instance_id();
                let body = async move |env: &mut Env, _| {
                    env.write(&Key::new("K"), Value::Int(100 + i)).await?;
                    Ok(Value::Null)
                };
                run_ssf(client.clone(), spec(id), RETRY, body)
                    .await
                    .unwrap();
            }
            let gc = GarbageCollector::new(client.clone(), NODE);
            gc.collect().await
        })
    };
    sim.run();
    let stats = h_rest.try_take().expect("gc ran");
    // The reader's init precedes every write, so the watermark is pinned
    // at the reader's init: no version it could observe was deleted.
    assert_eq!(
        stats.versions_deleted, 0,
        "GC must wait for the live reader"
    );
    let seen = h_reader.try_take().expect("reader finished").unwrap();
    // Reader initialized before all writes: sees the base value.
    assert_eq!(seen, Value::Int(0));
    // After everyone finished, GC can reclaim.
    let gc = GarbageCollector::new(client, NODE);
    let stats = sim.block_on(async move { gc.collect().await });
    assert_eq!(stats.versions_deleted, 2);
}

// ---------------------------------------------------------------------
// Protocol switching (§4.7)
// ---------------------------------------------------------------------

#[test]
fn switch_under_concurrent_load_preserves_consistency() {
    for (from, to) in [
        (ProtocolKind::HalfmoonWrite, ProtocolKind::HalfmoonRead),
        (ProtocolKind::HalfmoonRead, ProtocolKind::HalfmoonWrite),
    ] {
        let (mut sim, client) = deploy(0x5717c4, switching(from));
        client.populate(Key::new("S"), Value::Int(0));
        let ctx = sim.ctx();
        // Open-loop writers/readers spanning the switch.
        let mut handles = Vec::new();
        for i in 0..30u32 {
            let client = client.clone();
            let ctx2 = ctx.clone();
            handles.push(ctx.spawn(async move {
                ctx2.sleep(Duration::from_millis(u64::from(i) * 3)).await;
                let id = client.fresh_instance_id();
                let body = async move |env: &mut Env, _| {
                    let v = env.read(&Key::new("S")).await?.as_int().unwrap_or(0);
                    env.write(&Key::new("S"), Value::Int(v + 1)).await?;
                    Ok(Value::Int(v))
                };
                run_ssf(client, spec(id), RETRY, body).await
            }));
        }
        // Trigger the switch mid-stream.
        let switch_handle = {
            let client = client.clone();
            let ctx2 = ctx.clone();
            ctx.spawn(async move {
                ctx2.sleep(Duration::from_millis(40)).await;
                let switcher = Switcher::new(client, NODE);
                switcher.switch_to(to).await
            })
        };
        sim.run();
        let report = switch_handle.try_take().expect("switch completed").unwrap();
        assert!(report.end_at > report.begin_at, "{from}->{to}");
        assert!(report.settled_at >= report.end_at, "{from}->{to}");
        for h in handles {
            h.try_take().expect("ssf completed").unwrap();
        }
        audit(&client).assert_passed(format_args!("{from}->{to}"));
        // New SSFs resolve to the target protocol and still see the data.
        let v = read_final(&mut sim, &client, "S");
        // 30 read-modify-write SSFs overlapped arbitrarily; the counter is
        // between 1 and 30 (lost updates between *different* SSFs are
        // allowed — they are not transactions), but must exist.
        let n = v.as_int().expect("counter present");
        assert!((1..=30).contains(&n), "{from}->{to}: counter {n}");
    }
}

#[test]
fn switch_is_idempotent_and_rejects_unsafe() {
    let mut sim = Sim::new(7);
    let mut config = ProtocolConfig::uniform(ProtocolKind::HalfmoonWrite);
    config.switching_enabled = true;
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::uniform_test_model())
        .protocol_config(config)
        .build();
    let switcher = Switcher::new(client.clone(), NODE);
    let client2 = client;
    sim.block_on(async move {
        let _ = &client2;
        let r = switcher
            .switch_to(ProtocolKind::HalfmoonWrite)
            .await
            .unwrap();
        assert_eq!(r.switching_delay(), Duration::ZERO);
        assert!(switcher.switch_to(ProtocolKind::Unsafe).await.is_err());
        let r = switcher
            .switch_to(ProtocolKind::HalfmoonRead)
            .await
            .unwrap();
        assert!(r.end_at >= r.begin_at);
        assert_eq!(
            switcher.current_protocol().await.unwrap(),
            ProtocolKind::HalfmoonRead
        );
    });
}

// ---------------------------------------------------------------------
// Consistency propositions under randomized load
// ---------------------------------------------------------------------

#[test]
fn hm_read_sequential_consistency_under_random_load_and_crashes() {
    let (mut sim, client) = deploy(
        0xc0ffee,
        ProtocolConfig::uniform(ProtocolKind::HalfmoonRead),
    );
    for k in 0..4 {
        client.populate(Key::new(format!("k{k}")), Value::Int(0));
    }
    client.set_fault_plan(FaultPolicy::random(0.02, 50));
    let ctx = sim.ctx();
    let mut handles = Vec::new();
    for i in 0..40u64 {
        let client = client.clone();
        let ctx2 = ctx.clone();
        handles.push(ctx.spawn(async move {
            ctx2.sleep(Duration::from_micros(i * 700)).await;
            let id = client.fresh_instance_id();
            let body = async move |env: &mut Env, _| {
                // Pseudo-random but deterministic op mix per SSF.
                let k1 = Key::new(format!("k{}", i % 4));
                let k2 = Key::new(format!("k{}", (i / 4) % 4));
                let v = env.read(&k1).await?.as_int().unwrap_or(0);
                env.write(&k2, Value::Int(v + i as i64)).await?;
                let w = env.read(&k2).await?;
                Ok(w)
            };
            run_ssf(client, spec(id), RETRY, body).await
        }));
    }
    sim.run();
    for h in handles {
        h.try_take().expect("ssf completed").unwrap();
    }
    audit(&client).assert_passed("hm read sequential consistency under random load and crashes");
}

#[test]
fn hm_write_effective_order_under_random_load_and_crashes() {
    let (mut sim, client) = deploy(0xbeef, ProtocolConfig::uniform(ProtocolKind::HalfmoonWrite));
    for k in 0..4 {
        client.populate(Key::new(format!("k{k}")), Value::Int(0));
    }
    client.set_fault_plan(FaultPolicy::random(0.02, 50));
    let ctx = sim.ctx();
    let mut handles = Vec::new();
    for i in 0..40u64 {
        let client = client.clone();
        let ctx2 = ctx.clone();
        handles.push(ctx.spawn(async move {
            ctx2.sleep(Duration::from_micros(i * 700)).await;
            let id = client.fresh_instance_id();
            let body = async move |env: &mut Env, _| {
                let k1 = Key::new(format!("k{}", i % 4));
                let k2 = Key::new(format!("k{}", (i / 4) % 4));
                let v = env.read(&k1).await?.as_int().unwrap_or(0);
                env.write(&k2, Value::Int(v + i as i64)).await?;
                env.write(&k1, Value::Int(v)).await?;
                Ok(Value::Null)
            };
            run_ssf(client, spec(id), RETRY, body).await
        }));
    }
    sim.run();
    for h in handles {
        h.try_take().expect("ssf completed").unwrap();
    }
    audit(&client).assert_passed("hm write effective order under random load and crashes");
}

// ---------------------------------------------------------------------
// Extensions
// ---------------------------------------------------------------------

/// The ordered-write extension inserts an ordering record between
/// consecutive log-free writes to different objects.
#[test]
fn ordered_write_extension_costs_one_log_between_dependent_writes() {
    let count_appends = |preserve: bool| {
        let mut sim = Sim::new(5);
        let mut config = ProtocolConfig::uniform(ProtocolKind::HalfmoonWrite);
        config.preserve_write_order = preserve;
        let client = Client::builder(sim.ctx())
            .model(LatencyModel::uniform_test_model())
            .protocol_config(config)
            .build();
        client.populate(Key::new("A"), Value::Int(0));
        client.populate(Key::new("B"), Value::Int(0));
        let id = client.fresh_instance_id();
        let body = async |env: &mut Env, _| {
            env.write(&Key::new("A"), Value::Int(1)).await?;
            env.write(&Key::new("B"), Value::Int(2)).await?; // different key
            env.write(&Key::new("B"), Value::Int(3)).await?; // same key: free
            Ok(Value::Null)
        };
        sim.block_on(run_ssf(client.clone(), spec(id), RETRY, body))
            .unwrap();
        client.log().counters().log_appends
    };
    let plain = count_appends(false);
    let ordered = count_appends(true);
    let config = ProtocolConfig {
        preserve_write_order: true,
        ..ProtocolConfig::uniform(ProtocolKind::HalfmoonWrite)
    };
    let order = ProtocolKind::HalfmoonWrite.logging_row(MatrixOp::Order, &config);
    assert_eq!(
        ordered,
        plain + order.log_appends,
        "exactly one ordering record for the A→B pair"
    );
}

/// Init advances the cursor to the log head: SSFs started after an
/// operation completes see its effects (§4.4's boundary property).
#[test]
fn real_time_visibility_at_ssf_boundaries() {
    for kind in all_protocols() {
        let (mut sim, client) = setup(kind);
        client.populate(Key::new("B"), Value::Int(0));
        let w = client.fresh_instance_id();
        let writer = async |env: &mut Env, _| {
            env.write(&Key::new("B"), Value::Int(7)).await?;
            Ok(Value::Null)
        };
        sim.block_on(run_ssf(client.clone(), spec(w), RETRY, writer))
            .unwrap();
        assert_eq!(read_final(&mut sim, &client, "B"), Value::Int(7), "{kind}");
    }
}

/// Figure 8's commuting scenario, made observable: F1 (stale cursor)
/// writes Y then X while F2 (fresh cursor) has already written X. Under
/// default Halfmoon-write, F1's X-write is reordered before F2's — its
/// program order W(Y) → W(X) effectively inverts and F2's X value
/// survives. With the ordered-write extension, an ordering record between
/// the consecutive writes refreshes F1's cursor, so its X-write applies in
/// real time and program order is preserved.
#[test]
fn figure8_ordered_extension_prevents_commuting() {
    let run = |preserve: bool| -> (Value, Value) {
        let mut sim = Sim::new(0xf18);
        let mut config = ProtocolConfig::uniform(ProtocolKind::HalfmoonWrite);
        config.preserve_write_order = preserve;
        let client = Client::builder(sim.ctx())
            .model(LatencyModel::uniform_test_model())
            .protocol_config(config)
            .build();
        client.populate(Key::new("X"), Value::Int(0));
        client.populate(Key::new("Y"), Value::Int(0));
        let ctx = sim.ctx();
        // F1: inits early (stale cursor), stalls, then writes Y and X.
        let f1 = client.fresh_instance_id();
        let h1 = ctx.spawn(run_ssf(
            client.clone(),
            spec(f1),
            RETRY,
            async |env: &mut Env, _| {
                env.client().ctx().sleep(Duration::from_millis(50)).await;
                env.write(&Key::new("Y"), Value::str("F1")).await?;
                env.write(&Key::new("X"), Value::str("F1")).await?;
                Ok(Value::Null)
            },
        ));
        // F2: inits after F1 (fresher cursor) and writes X immediately.
        let f2 = client.fresh_instance_id();
        let h2 = {
            let client = client.clone();
            let ctx2 = ctx.clone();
            ctx.spawn(async move {
                ctx2.sleep(Duration::from_millis(10)).await;
                let write = async |env: &mut Env, _| {
                    env.write(&Key::new("X"), Value::str("F2")).await?;
                    Ok(Value::Null)
                };
                run_ssf(client, spec(f2), RETRY, write).await
            })
        };
        sim.run();
        h1.try_take().expect("F1 done").unwrap();
        h2.try_take().expect("F2 done").unwrap();
        (
            client.store().peek(&Key::new("X")).unwrap(),
            client.store().peek(&Key::new("Y")).unwrap(),
        )
    };
    // Default: F1's stale X-write commutes behind F2's — F2's value wins
    // even though F1 wrote X *later* in real time (the §4.4 reordering).
    let (x, y) = run(false);
    assert_eq!(
        x,
        Value::str("F2"),
        "stale consecutive write reordered away"
    );
    assert_eq!(y, Value::str("F1"));
    // Extension: the ordering record refreshes F1's cursor between the
    // consecutive writes, so its X-write wins in real-time order.
    let (x, y) = run(true);
    assert_eq!(
        x,
        Value::str("F1"),
        "ordered extension preserves program order"
    );
    assert_eq!(y, Value::str("F1"));
}
