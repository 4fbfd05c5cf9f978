//! The Halfmoon client: shared handles to the logging layer, the external
//! state, the fault injector, and the runtime's invoker.
//!
//! One [`Client`] exists per simulated deployment; every SSF execution gets
//! an [`crate::env::Env`] referencing it. The client also keeps the
//! bookkeeping the garbage collector and benchmark harness need (the set of
//! keys ever written, the optional history recorder).
//!
//! Construction goes through [`ClientBuilder`] (`Client::builder(ctx)`):
//! topology, fault plan, recorder, and observers are fixed before the first
//! operation. The two hooks that are *inherently* post-construction remain
//! first-class: [`Client::register_invoker`]
//! (the runtime needs the client to exist first) and
//! [`Client::set_fault_plan`] (campaigns that target instance ids drawn
//! after construction).

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use hm_common::anatomy::Anatomy;
use hm_common::flightrec::FlightRecorder;
use hm_common::latency::LatencyModel;
use hm_common::metrics::Histogram;
use hm_common::observe::{OpCtx, Probe};
use hm_common::trace::Tracer;
use hm_common::{HmResult, InstanceId, Key, NodeId, Tag, Value};
use hm_kvstore::KvStore;
use hm_sharedlog::{LogConfig, LogService, ReplayStats, Topology};
use hm_substrate::Ctx;

use crate::faults::{FaultPlan, FaultPolicy};
use crate::history::Recorder;
use crate::protocol::{MatrixOp, ProtocolConfig, ProtocolKind};
use crate::record::StepRecord;

/// Boxed local future, the return type of [`Invoker::invoke`].
pub type LocalBoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// Global sub-stream of init records, scanned by the GC and the switch
/// coordinator (§4.5, §4.7).
#[must_use]
pub fn init_log_tag() -> Tag {
    Tag::new(hm_common::ids::TagKind::InitLog, 0)
}

/// Global sub-stream of finish records (§4.5).
#[must_use]
pub fn finish_log_tag() -> Tag {
    Tag::new(hm_common::ids::TagKind::FinishLog, 0)
}

/// Global transition log for protocol switching (§4.7).
#[must_use]
pub fn transition_log_tag() -> Tag {
    Tag::new(hm_common::ids::TagKind::TransitionLog, 0)
}

/// How the serverless runtime executes child invocations for
/// [`crate::env::Env::invoke`].
///
/// The protocol library deliberately does not depend on any runtime: Boki is
/// one possible logging layer and `hm-runtime` is one possible FaaS
/// substrate (§7 makes the same portability point). The runtime registers
/// itself via [`Client::register_invoker`].
pub trait Invoker {
    /// Runs `func(input)` as instance `callee` to completion — including
    /// crash detection and re-execution — and returns its result. `octx`
    /// is the caller's context, passed in: the callee's observations join
    /// its trace under the invoking op and charge its request.
    fn invoke(
        &self,
        callee: InstanceId,
        func: &str,
        input: Value,
        octx: OpCtx,
    ) -> LocalBoxFuture<'static, HmResult<Value>>;
}

hm_common::op_counters! {
    /// Cumulative §5 recovery work, metered by `Env::init` on re-execution
    /// attempts: what the crashed-then-retried executions had to re-read to
    /// reconstruct their step/read state. The f-sweep bench divides this by
    /// completed invocations to reproduce the §7 recovery-cost curves.
    pub struct RecoveryStats {
        /// Re-execution attempts that fetched a step log (attempt > 0).
        attempts,
        /// Step-log records replayed by those attempts.
        replayed_records,
        /// Extra log read rounds paid purely for recovery (one stream fetch
        /// per re-execution attempt).
        log_reads,
        /// Records that were already behind the trim horizon and therefore
        /// *not* re-read (§5: replay starts at the last trim point).
        trimmed_skipped,
        /// Records the recovery reads found still parked in an open
        /// group-commit batch and force-flushed before replaying. These are
        /// a *subset* of `replayed_records`, never an addition, so a record
        /// a crash left mid-flush counts once (DESIGN.md §10). Zero while
        /// batching is off.
        pending_flushed,
    }
}

/// Per-operation latency histograms, as the microbenchmarks report them
/// (Table 1, Figure 10).
#[derive(Clone, Debug, Default)]
pub struct OpLatencies {
    /// End-to-end `Env::read` latency.
    pub read: Histogram,
    /// End-to-end `Env::write` latency.
    pub write: Histogram,
    /// End-to-end `Env::invoke` latency (including the child).
    pub invoke: Histogram,
}

struct ClientInner {
    ctx: Ctx,
    log: LogService<StepRecord>,
    store: KvStore,
    model: LatencyModel,
    config: ProtocolConfig,
    faults: RefCell<Rc<FaultPlan>>,
    invoker: RefCell<Option<Rc<dyn Invoker>>>,
    recorder: RefCell<Option<Rc<Recorder>>>,
    /// The deployment's observation handle; `None` with no observer.
    probe: Option<Rc<Probe>>,
    op_latencies: RefCell<OpLatencies>,
    recovery: Cell<RecoveryStats>,
    /// Opportunistic checkpoints of log-free reads, per function node
    /// (§7): `(node, instance, pc) → value`. Purely an in-memory recovery
    /// accelerator — never consulted for correctness, only to skip
    /// recomputing a deterministic result.
    checkpoints: RefCell<hm_common::FxHashMap<(NodeId, InstanceId, u32), Value>>,
    /// Keys that have received at least one multi-version write; the GC
    /// iterates this, in key order (which is in the run fingerprints),
    /// instead of scanning the whole keyspace.
    written_keys: RefCell<BTreeSet<Key>>,
    /// Live [`InstanceHold`]s per instance; an instance with any is never
    /// collected (see `gc`'s condition (b)).
    holds: RefCell<hm_common::FxHashMap<InstanceId, u32>>,
}

/// Shared deployment handle. Cheap to clone.
#[derive(Clone)]
pub struct Client {
    inner: Rc<ClientInner>,
}

/// Keeps an instance from being collected while an attempt of it may
/// still run: from [`Client::hold`] until dropped.
#[must_use = "the hold ends when the guard is dropped"]
pub struct InstanceHold {
    client: Client,
    id: InstanceId,
}

impl Drop for InstanceHold {
    fn drop(&mut self) {
        let mut holds = self.client.inner.holds.borrow_mut();
        let count = holds.get_mut(&self.id).expect("a live hold is counted");
        *count -= 1;
        if *count == 0 {
            holds.remove(&self.id);
        }
    }
}

/// Fluent deployment construction: `Client::builder(ctx)` with optional
/// model, protocol, topology, fault plan, recorder, and tracer — the one
/// place all per-deployment configuration meets.
///
/// ```
/// use halfmoon::{Client, FaultPlan, FaultPolicy, ProtocolKind, Topology};
/// use hm_substrate::sim::Sim;
///
/// let sim = Sim::new(1);
/// let client = Client::builder(sim.ctx())
///     .protocol(ProtocolKind::HalfmoonWrite)
///     .topology(Topology::sharded(4))
///     .faults(FaultPolicy::random(0.01, 10))
///     .recorder()
///     .build();
/// assert!(client.recorder().is_some());
/// ```
pub struct ClientBuilder {
    ctx: Ctx,
    model: LatencyModel,
    config: ProtocolConfig,
    topology: Topology,
    faults: FaultPlan,
    recorder: bool,
    tracer: Option<Rc<Tracer>>,
    anatomy: Option<Rc<Anatomy>>,
    flightrec: Option<Rc<FlightRecorder>>,
    batch_max_records: usize,
}

impl ClientBuilder {
    /// Sets the latency model (default: the paper-calibrated model).
    #[must_use]
    pub fn model(mut self, model: LatencyModel) -> ClientBuilder {
        self.model = model;
        self
    }

    /// Runs every object under one protocol (shorthand for
    /// [`ClientBuilder::protocol_config`] with a uniform config).
    #[must_use]
    pub fn protocol(mut self, kind: ProtocolKind) -> ClientBuilder {
        self.config = ProtocolConfig::uniform(kind);
        self
    }

    /// Sets the full protocol configuration (per-key choices, switching).
    #[must_use]
    pub fn protocol_config(mut self, config: ProtocolConfig) -> ClientBuilder {
        self.config = config;
        self
    }

    /// Sets the logging topology (default: one shard).
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> ClientBuilder {
        self.topology = topology;
        self
    }

    /// Installs a fault plan — a bare [`FaultPolicy`] coerces to a plan
    /// with only instance crash points.
    #[must_use]
    pub fn faults(mut self, plan: impl Into<FaultPlan>) -> ClientBuilder {
        self.faults = plan.into();
        self
    }

    /// Attaches a fresh history [`Recorder`] (read it back with
    /// [`Client::recorder`] and run the consistency checkers on it).
    #[must_use]
    pub fn recorder(mut self) -> ClientBuilder {
        self.recorder = true;
        self
    }

    /// Enables causal tracing for the whole deployment (environment and
    /// protocol spans plus shared-log and store substrate spans).
    #[must_use]
    pub fn tracer(mut self, tracer: Rc<Tracer>) -> ClientBuilder {
        self.tracer = Some(tracer);
        self
    }

    /// Enables phase-attributed latency anatomy for the whole deployment
    /// (per-op phase sheets stamped by the runtime, protocols, shared log,
    /// and store — see `hm_common::anatomy`).
    #[must_use]
    pub fn anatomy(mut self, anatomy: Rc<Anatomy>) -> ClientBuilder {
        self.anatomy = Some(anatomy);
        self
    }

    /// Attaches a black-box flight recorder; its dumps carry the recent
    /// trace events and phase stamps of the tracer and anatomy configured
    /// on this builder.
    #[must_use]
    pub fn flight_recorder(mut self, recorder: Rc<FlightRecorder>) -> ClientBuilder {
        self.flightrec = Some(recorder);
        self
    }

    /// Enables group-commit batching in the logging layer: each shard's
    /// sequencer coalesces up to `max_records` concurrent appends into one
    /// ordering decision and one replicated storage write, flushing early
    /// 200 µs of virtual time after a batch's first member (DESIGN.md §10).
    /// `max_records <= 1` keeps the default unbatched path, bit for bit.
    #[must_use]
    pub fn batching(mut self, max_records: usize) -> ClientBuilder {
        self.batch_max_records = max_records;
        self
    }

    /// Builds the deployment: fresh log (with the configured topology)
    /// and store on the simulation.
    #[must_use]
    pub fn build(self) -> Client {
        let log = LogService::new(
            self.ctx.clone(),
            self.model,
            LogConfig {
                topology: self.topology,
                batch_max_records: self.batch_max_records,
                ..LogConfig::default()
            },
        );
        let store = KvStore::new(self.ctx.clone(), self.model);
        let probe = Probe::new(self.tracer, self.anatomy, self.flightrec);
        if let Some(probe) = &probe {
            log.observe(probe.clone());
            store.observe(probe.clone());
        }
        Client {
            inner: Rc::new(ClientInner {
                ctx: self.ctx,
                log,
                store,
                model: self.model,
                config: self.config,
                faults: RefCell::new(Rc::new(self.faults)),
                invoker: RefCell::new(None),
                recorder: RefCell::new(self.recorder.then(|| Rc::new(Recorder::new()))),
                probe,
                op_latencies: RefCell::new(OpLatencies::default()),
                recovery: Cell::new(RecoveryStats::default()),
                checkpoints: RefCell::new(hm_common::FxHashMap::default()),
                written_keys: RefCell::default(),
                holds: RefCell::default(),
            }),
        }
    }
}

impl Client {
    /// Starts building a deployment on the given simulation. Defaults:
    /// calibrated latency model, uniform Halfmoon-read, one log shard, no
    /// faults, no recorder, no tracer.
    #[must_use]
    pub fn builder(ctx: Ctx) -> ClientBuilder {
        ClientBuilder {
            ctx,
            model: LatencyModel::calibrated(),
            config: ProtocolConfig::uniform(ProtocolKind::HalfmoonRead),
            topology: Topology::default(),
            faults: FaultPlan::new(),
            recorder: false,
            tracer: None,
            anatomy: None,
            flightrec: None,
            batch_max_records: LogConfig::default().batch_max_records,
        }
    }

    /// The simulation context.
    #[must_use]
    pub fn ctx(&self) -> &Ctx {
        &self.inner.ctx
    }

    /// The shared log. A call made through this accessor is observed as
    /// background work; code acting for a request uses [`Client::log_as`].
    #[must_use]
    pub fn log(&self) -> &LogService<StepRecord> {
        &self.inner.log
    }

    /// The shared log, with `octx` armed as the context of the call about
    /// to be made on it (which must follow with no `await` in between).
    #[must_use]
    pub fn log_as(&self, octx: &OpCtx) -> &LogService<StepRecord> {
        self.arm(octx);
        &self.inner.log
    }

    fn arm(&self, octx: &OpCtx) {
        if let Some(probe) = &self.inner.probe {
            probe.arm(octx);
        }
    }

    /// The logging topology this deployment runs.
    #[must_use]
    pub fn topology(&self) -> Topology {
        self.inner.log.topology()
    }

    /// The external state store; background work, like [`Client::log`].
    #[must_use]
    pub fn store(&self) -> &KvStore {
        &self.inner.store
    }

    /// The external state store, with `octx` armed for the call about to
    /// be made on it; see [`Client::log_as`].
    #[must_use]
    pub fn store_as(&self, octx: &OpCtx) -> &KvStore {
        self.arm(octx);
        &self.inner.store
    }

    /// The latency model in force.
    #[must_use]
    pub fn model(&self) -> LatencyModel {
        self.inner.model
    }

    /// Runs `f` with the protocol configuration.
    pub fn with_config<T>(&self, f: impl FnOnce(&ProtocolConfig) -> T) -> T {
        f(&self.inner.config)
    }

    /// The instance crash-point policy of the current fault plan (what
    /// `Env::maybe_crash` consults).
    #[must_use]
    pub fn faults(&self) -> Rc<FaultPolicy> {
        self.inner.faults.borrow().instance_policy()
    }

    /// The full fault plan, schedule included (what the chaos driver
    /// walks).
    #[must_use]
    pub fn fault_plan(&self) -> Rc<FaultPlan> {
        self.inner.faults.borrow().clone()
    }

    /// Replaces the fault plan: campaigns that target instance ids drawn
    /// after construction have to install their plan late.
    pub fn set_fault_plan(&self, plan: impl Into<FaultPlan>) {
        *self.inner.faults.borrow_mut() = Rc::new(plan.into());
    }

    /// The registered invoker, if any.
    #[must_use]
    pub fn invoker(&self) -> Option<Rc<dyn Invoker>> {
        self.inner.invoker.borrow().clone()
    }

    /// Registers the runtime's invoker. It comes after construction
    /// because the runtime is built around the client.
    pub fn register_invoker(&self, invoker: Rc<dyn Invoker>) {
        *self.inner.invoker.borrow_mut() = Some(invoker);
    }

    /// The history recorder, if consistency checking is enabled.
    #[must_use]
    pub fn recorder(&self) -> Option<Rc<Recorder>> {
        self.inner.recorder.borrow().clone()
    }

    /// The observation handle, if any observer is attached.
    #[must_use]
    pub fn probe(&self) -> Option<&Rc<Probe>> {
        self.inner.probe.as_ref()
    }

    /// Notes that `key` received a multi-version write (GC bookkeeping;
    /// a real deployment would keep this index in the logging layer).
    pub fn note_written_key(&self, key: &Key) {
        let mut written = self.inner.written_keys.borrow_mut();
        if !written.contains(key) {
            written.insert(key.clone());
        }
    }

    /// Snapshot of keys with multi-version writes.
    #[must_use]
    pub fn written_keys(&self) -> Vec<Key> {
        self.inner.written_keys.borrow().iter().cloned().collect()
    }

    /// Holds `id` against collection until the guard drops. The runtime
    /// holds an instance while a §5.1 peer of it exists and from an
    /// attempt's first crash until its retries end: the windows in which a
    /// finished instance can still see another attempt run.
    pub fn hold(&self, id: InstanceId) -> InstanceHold {
        *self.inner.holds.borrow_mut().entry(id).or_insert(0) += 1;
        InstanceHold {
            client: self.clone(),
            id,
        }
    }

    /// Whether any [`InstanceHold`] on `id` is live.
    #[must_use]
    pub fn is_held(&self, id: InstanceId) -> bool {
        self.inner.holds.borrow().contains_key(&id)
    }

    /// Populates base state in the store and tells the recorder about it.
    pub fn populate(&self, key: Key, value: Value) {
        if let Some(rec) = self.recorder() {
            rec.set_base(&key, &value);
        }
        self.store().populate(key, value);
    }

    /// A deterministic fresh instance id for a top-level (gateway-issued)
    /// invocation, derived from the simulation RNG.
    #[must_use]
    pub fn fresh_instance_id(&self) -> InstanceId {
        let (a, b) = self.ctx().with_rng(|rng| {
            use rand::RngExt;
            (rng.random::<u64>(), rng.random::<u64>())
        });
        InstanceId((u128::from(a) << 64) | u128::from(b))
    }

    /// Records a latency sample of a read, write or invoke (called by
    /// `Env`); other ops have no histogram.
    pub(crate) fn record_op_latency(&self, op: MatrixOp, latency: std::time::Duration) {
        let mut stats = self.inner.op_latencies.borrow_mut();
        let histogram = match op {
            MatrixOp::Read => &mut stats.read,
            MatrixOp::Write => &mut stats.write,
            MatrixOp::Invoke => &mut stats.invoke,
            MatrixOp::Init | MatrixOp::Order | MatrixOp::Finish => return,
        };
        histogram.record(latency);
    }

    /// Snapshot of the per-operation latency histograms.
    #[must_use]
    pub fn op_latencies(&self) -> OpLatencies {
        self.inner.op_latencies.borrow().clone()
    }

    /// Fetches an opportunistic checkpoint (§7), if one is cached on the
    /// node.
    #[must_use]
    pub fn checkpoint(&self, node: NodeId, instance: InstanceId, pc: u32) -> Option<Value> {
        self.inner
            .checkpoints
            .borrow()
            .get(&(node, instance, pc))
            .cloned()
    }

    /// Stores an opportunistic checkpoint (§7).
    pub fn set_checkpoint(&self, node: NodeId, instance: InstanceId, pc: u32, value: Value) {
        self.inner
            .checkpoints
            .borrow_mut()
            .insert((node, instance, pc), value);
    }

    /// Drops every checkpoint an instance left on any node (called when
    /// the GC reclaims the instance).
    pub fn drop_checkpoints(&self, instance: InstanceId) {
        self.inner
            .checkpoints
            .borrow_mut()
            .retain(|(_, i, _), _| *i != instance);
    }

    /// Drops every checkpoint cached on one node — a node crash loses its
    /// in-memory recovery accelerators (§5); successors recompute.
    pub fn drop_node_checkpoints(&self, node: NodeId) {
        self.inner
            .checkpoints
            .borrow_mut()
            .retain(|(n, _, _), _| *n != node);
    }

    /// Meters one re-execution attempt's §5 replay work into the
    /// cumulative [`RecoveryStats`].
    pub fn note_recovery(&self, replay: ReplayStats) {
        let mut stats = self.inner.recovery.get();
        stats.attempts += 1;
        stats.replayed_records += replay.replayed;
        stats.log_reads += 1;
        stats.trimmed_skipped += replay.trimmed;
        stats.pending_flushed += replay.pending_flushed;
        self.inner.recovery.set(stats);
    }

    /// Snapshot of the cumulative recovery work (the f-sweep bench and the
    /// chaos auditor read this).
    #[must_use]
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.inner.recovery.get()
    }

    /// Total bytes currently stored across the log and the state store.
    #[must_use]
    pub fn total_bytes(&self) -> f64 {
        self.log().current_bytes() + self.store().current_bytes()
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Client({:?}, {:?})", self.inner.log, self.inner.store)
    }
}

#[cfg(test)]
mod tests {
    use hm_substrate::sim::Sim;

    use crate::faults::Site;

    use super::*;

    #[test]
    fn fault_policy_none_never_crashes() {
        let sim = Sim::new(1);
        let p = FaultPolicy::none();
        assert!(!p.should_crash(InstanceId(1), 0, Site::OpEntry, &sim.ctx()));
        assert_eq!(p.injected(), 0);
    }

    #[test]
    fn fault_policy_at_fires_once() {
        let sim = Sim::new(1);
        let p = FaultPolicy::at([(InstanceId(1), 3)]);
        assert!(!p.should_crash(InstanceId(1), 2, Site::OpEntry, &sim.ctx()));
        assert!(p.should_crash(InstanceId(1), 3, Site::AfterEffect, &sim.ctx()));
        assert!(!p.should_crash(InstanceId(1), 3, Site::AfterEffect, &sim.ctx()));
        assert_eq!(p.injected(), 1);
        assert_eq!(p.injected_at(Site::AfterEffect), 1);
        assert_eq!(p.injected_at(Site::OpEntry), 0);
    }

    #[test]
    fn fault_policy_random_respects_budget() {
        let sim = Sim::new(1);
        let p = FaultPolicy::random(1.0, 2);
        assert!(p.should_crash(InstanceId(1), 0, Site::OpEntry, &sim.ctx()));
        assert!(p.should_crash(InstanceId(1), 1, Site::OpEntry, &sim.ctx()));
        assert!(
            !p.should_crash(InstanceId(1), 2, Site::OpEntry, &sim.ctx()),
            "budget exhausted"
        );
    }

    #[test]
    fn client_bookkeeping() {
        let sim = Sim::new(1);
        let client = Client::builder(sim.ctx())
            .model(LatencyModel::uniform_test_model())
            .build();
        client.note_written_key(&Key::new("b"));
        client.note_written_key(&Key::new("a"));
        client.note_written_key(&Key::new("a"));
        assert_eq!(client.written_keys(), vec![Key::new("a"), Key::new("b")]);
        let id1 = client.fresh_instance_id();
        let id2 = client.fresh_instance_id();
        assert_ne!(id1, id2);
    }

    #[test]
    fn global_tags_are_distinct() {
        assert_ne!(init_log_tag(), finish_log_tag());
        assert_ne!(init_log_tag(), transition_log_tag());
    }
}
