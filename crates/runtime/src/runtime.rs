//! Function execution: registry, node pool, retries, peer duplication.

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

use halfmoon::{Client, Env, InvocationSpec, Invoker, LocalBoxFuture};
use hm_common::observe::{Lane, OpCtx, Phase};
use hm_common::trace::TraceId;
use hm_common::{FxHashMap, HmError, HmResult, InstanceId, NodeId, Value};
use hm_substrate::sync::{Semaphore, TaskGroup};
use hm_substrate::Time;

/// A registered function body. Bodies must be deterministic: given the same
/// `Env` state and input they must issue the same operation sequence (§2).
pub type SsfBody = Rc<dyn for<'a> Fn(&'a mut Env, Value) -> LocalBoxFuture<'a, HmResult<Value>>>;

/// Delay between a crash and the re-execution of the SSF (failure
/// detection + scheduling).
pub const DETECTION_DELAY: Time = Time::from_millis(5);

/// Maximum execution attempts before an invocation errors out.
const MAX_ATTEMPTS: u32 = 100;

/// How long after the primary starts a duplicate peer is launched.
const DUPLICATE_DELAY: Time = Time::from_millis(2);

/// Runtime topology and failure-handling knobs.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Number of function nodes (the paper uses eight c5d.2xlarge).
    pub nodes: u32,
    /// Worker slots per node (8 vCPUs per instance). The product bounds
    /// concurrently running top-level requests and produces saturation.
    pub workers_per_node: u32,
    /// Probability that an invocation spawns a duplicate peer instance
    /// (a falsely-suspected timeout, §4's second race condition).
    pub duplicate_prob: f64,
    /// §4's race condition modeled faithfully: "if an instance times out
    /// (but is still live) due to a network error, the runtime may assume
    /// that this instance has crashed and launch another". When set, any
    /// attempt still running after this long gets a live peer launched
    /// against it (once per attempt).
    pub suspect_timeout: Option<Time>,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            nodes: 8,
            workers_per_node: 8,
            duplicate_prob: 0.0,
            suspect_timeout: None,
        }
    }
}

/// One function node's failure domain: its cancellable task group plus
/// liveness. Cancelling the group is the node's process dying — every
/// in-flight attempt on it is torn down at the crash instant (§5).
struct NodeState {
    group: TaskGroup,
    up: Cell<bool>,
}

struct RuntimeInner {
    client: Client,
    /// In a `Cell` so chaos campaigns can retune knobs (retry storms bump
    /// `duplicate_prob`) mid-run.
    config: Cell<RuntimeConfig>,
    registry: RefCell<FxHashMap<String, SsfBody>>,
    /// Admission control: bounds concurrently running top-level requests.
    workers: Semaphore,
    /// Per-node failure domains, indexed by `NodeId`.
    nodes: Vec<NodeState>,
    /// Round-robin node assignment counter.
    next_node: Cell<u32>,
    invocations: Cell<u64>,
    retries: Cell<u64>,
    duplicates: Cell<u64>,
    node_crashes: Cell<u64>,
}

/// The simulated FaaS runtime. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct Runtime {
    inner: Rc<RuntimeInner>,
}

impl Runtime {
    /// Builds a runtime over a deployment and registers itself as the
    /// client's invoker.
    #[must_use]
    pub fn new(client: Client, config: RuntimeConfig) -> Runtime {
        let rt = Runtime {
            inner: Rc::new(RuntimeInner {
                workers: Semaphore::new((config.nodes * config.workers_per_node) as usize),
                client,
                nodes: (0..config.nodes)
                    .map(|_| NodeState {
                        group: TaskGroup::new(),
                        up: Cell::new(true),
                    })
                    .collect(),
                config: Cell::new(config),
                registry: RefCell::default(),
                next_node: Cell::new(0),
                invocations: Cell::new(0),
                retries: Cell::new(0),
                duplicates: Cell::new(0),
                node_crashes: Cell::new(0),
            }),
        };
        // The client must not keep its own runtime alive: the runtime owns
        // the client, so a strong handle here would be a cycle that leaks
        // the whole deployment (log, store, registry) per runtime built.
        rt.inner
            .client
            .register_invoker(Rc::new(ChildInvoker(Rc::downgrade(&rt.inner))));
        rt
    }

    /// The deployment this runtime executes against.
    #[must_use]
    pub fn client(&self) -> &Client {
        &self.inner.client
    }

    /// The runtime configuration (a snapshot; chaos campaigns may retune
    /// knobs mid-run).
    #[must_use]
    pub fn config(&self) -> RuntimeConfig {
        self.inner.config.get()
    }

    /// Retunes the false-suspicion duplicate probability (gateway retry
    /// storms in chaos campaigns).
    pub fn set_duplicate_prob(&self, prob: f64) {
        let mut config = self.inner.config.get();
        config.duplicate_prob = prob;
        self.inner.config.set(config);
    }

    /// Registers a function body under `name`.
    pub fn register(
        &self,
        name: &str,
        body: impl for<'a> Fn(&'a mut Env, Value) -> LocalBoxFuture<'a, HmResult<Value>> + 'static,
    ) {
        self.inner
            .registry
            .borrow_mut()
            .insert(name.to_string(), Rc::new(body));
    }

    /// Total function executions started (including retries and peers).
    #[must_use]
    pub fn invocations(&self) -> u64 {
        self.inner.invocations.get()
    }

    /// Total re-executions after crashes.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.inner.retries.get()
    }

    /// Total duplicate peer instances launched.
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.inner.duplicates.get()
    }

    /// Requests queued for a worker slot.
    #[must_use]
    pub fn queued_requests(&self) -> usize {
        self.inner.workers.queue_len()
    }

    fn pick_node(&self) -> NodeId {
        let total = self.inner.config.get().nodes;
        // Round-robin over live nodes; a down node's turn passes to the
        // next live one. If every node is down (a campaign killed the whole
        // fleet), fall back to the raw choice — the attempt will be torn
        // down by the dead group immediately, modeling a dispatch into the
        // outage.
        for _ in 0..total {
            let n = self.inner.next_node.get();
            self.inner.next_node.set(n.wrapping_add(1));
            let node = NodeId(n % total);
            if self.inner.nodes[node.0 as usize].up.get() {
                return node;
            }
        }
        let n = self.inner.next_node.get();
        self.inner.next_node.set(n.wrapping_add(1));
        NodeId(n % total)
    }

    /// Kills a function node (§5): cancels every in-flight attempt on it,
    /// drops its in-memory log record cache and opportunistic checkpoints,
    /// and routes new dispatches elsewhere until [`Runtime::recover_node`].
    pub fn crash_node(&self, node: NodeId) {
        let Some(state) = self.inner.nodes.get(node.0 as usize) else {
            return;
        };
        if !state.up.get() {
            return;
        }
        state.up.set(false);
        state.group.cancel();
        self.inner.client.log().clear_node_cache(node);
        self.inner.client.drop_node_checkpoints(node);
        self.inner
            .node_crashes
            .set(self.inner.node_crashes.get() + 1);
    }

    /// Brings a crashed node back: re-arms its failure domain and makes it
    /// eligible for dispatch again. Its caches start cold — the §5 recovery
    /// cost the f-sweep measures.
    pub fn recover_node(&self, node: NodeId) {
        let Some(state) = self.inner.nodes.get(node.0 as usize) else {
            return;
        };
        state.group.reset();
        state.up.set(true);
    }

    /// Total whole-node crashes injected.
    #[must_use]
    pub fn node_crashes(&self) -> u64 {
        self.inner.node_crashes.get()
    }

    /// Invokes a *top-level* request: waits for a worker slot (admission
    /// control — this queueing produces the latency knees under load),
    /// then executes with retries.
    pub async fn invoke_request(&self, func: &str, input: Value) -> HmResult<Value> {
        self.invoke_request_under(func, input, OpCtx::default())
            .await
    }

    /// The general entry point behind [`Runtime::invoke_request`]: the
    /// request's observations belong to `octx` (a caller joining its own
    /// trace passes `OpCtx { trace, parent, sheet: None }`).
    ///
    /// A sheet in `octx` arrives in its caller-set base phase (`Admission`
    /// when the gateway opened it) and keeps accruing there while the
    /// request queues for a worker slot — the queueing delay the admission
    /// knee produces. Once a slot is held it switches to `Dispatch`.
    pub async fn invoke_request_under(
        &self,
        func: &str,
        input: Value,
        octx: OpCtx,
    ) -> HmResult<Value> {
        let _slot = self.inner.workers.acquire().await;
        let id = self.inner.client.fresh_instance_id();
        octx.switch(|| self.inner.client.ctx().now(), Phase::Dispatch);
        self.execute_under(id, func, input, octx).await
    }

    /// Executes `func` as instance `id` to completion: dispatch hop,
    /// optional duplicate peer, crash detection and re-execution. The
    /// context is the one a parent's `Env::invoke` left for `id`, if any.
    pub async fn execute(&self, id: InstanceId, func: &str, input: Value) -> HmResult<Value> {
        let octx = self
            .inner
            .client
            .probe()
            .map_or_else(OpCtx::default, |p| p.take(id.0));
        self.execute_under(id, func, input, octx).await
    }

    async fn execute_under(
        &self,
        id: InstanceId,
        func: &str,
        input: Value,
        octx: OpCtx,
    ) -> HmResult<Value> {
        let body = self
            .inner
            .registry
            .borrow()
            .get(func)
            .cloned()
            .ok_or_else(|| HmError::UnknownFunction {
                name: func.to_string(),
            })?;
        let client = &self.inner.client;
        // An instance on a trace (traced request or traced parent invoke)
        // gets an "invocation" span covering all attempts and peers, which
        // nest under it. One on no trace gets none: each of its attempts
        // roots a trace of its own.
        let octx = match client.probe() {
            Some(p) if octx.trace != TraceId::NONE => p.span_under(
                octx,
                Lane::Gateway,
                client.ctx().now(),
                "invocation",
                || func.to_string(),
            ),
            _ => octx,
        };
        // Maybe launch a racing peer (fire-and-forget; exactly-once
        // semantics make its effects indistinguishable from the primary's).
        let duplicate_prob = self.inner.config.get().duplicate_prob;
        let duplicate = duplicate_prob > 0.0
            && client
                .ctx()
                .with_rng(|rng| hm_common::dist::bernoulli(rng, duplicate_prob));
        if duplicate {
            self.inner.duplicates.set(self.inner.duplicates.get() + 1);
            let rt = self.clone();
            let body = body.clone();
            let input = input.clone();
            let octx = octx.clone();
            let ctx = client.ctx().clone();
            client.ctx().spawn(async move {
                ctx.sleep(DUPLICATE_DELAY).await;
                // The peer's result and errors are ignored; the primary's
                // retry loop guarantees completion. The peer recovers the
                // authoritative input from the primary's init record.
                let _ = rt.run_attempts(id, &body, input, 1, &octx).await;
            });
        }
        let result = self
            .run_attempts(id, &body, input, MAX_ATTEMPTS, &octx)
            .await;
        if let Some(p) = client.probe() {
            p.span_end(&octx, Lane::Gateway, client.ctx().now());
        }
        result
    }

    async fn run_attempts(
        &self,
        id: InstanceId,
        body: &SsfBody,
        input: Value,
        max_attempts: u32,
        // The invocation's context. Peers and retries share its sheet —
        // the phase clock partitions wall time regardless of who stamps.
        octx: &OpCtx,
    ) -> HmResult<Value> {
        let client = &self.inner.client;
        let mut attempt = 0;
        loop {
            self.inner.invocations.set(self.inner.invocations.get() + 1);
            let node = self.pick_node();
            // Dispatch hop to the chosen node.
            let hop = client
                .ctx()
                .with_rng(|rng| client.model().rpc_hop.sample(rng));
            octx.enter(|| client.ctx().now(), Phase::Dispatch);
            client.ctx().sleep(hop).await;
            octx.exit(|| client.ctx().now());
            // Timeout suspicion (§4): if this attempt runs past the
            // suspect timeout, the runtime assumes it crashed and launches
            // a live peer — even though the original keeps running. The
            // conditional-append machinery makes the race harmless. The
            // attempt's `done` flag exists only while a watchdog is armed.
            let armed = self.inner.config.get().suspect_timeout;
            let done = armed.filter(|_| max_attempts > 1).map(|limit| {
                let done = std::rc::Rc::new(std::cell::Cell::new(false));
                let rt = self.clone();
                let body = body.clone();
                let input = input.clone();
                let octx = octx.clone();
                let ctx = client.ctx().clone();
                let flag = done.clone();
                client.ctx().spawn(async move {
                    ctx.sleep(limit).await;
                    if !flag.get() {
                        rt.inner.duplicates.set(rt.inner.duplicates.get() + 1);
                        let _ = rt.run_attempts(id, &body, input, 1, &octx).await;
                    }
                });
                done
            });
            let once = async {
                let spec = InvocationSpec::new(id, node)
                    .attempt(attempt)
                    .input(input.clone())
                    .under(octx.clone());
                let mut env = Env::init(client, spec).await?;
                let authoritative = env.input().clone();
                let out = body(&mut env, authoritative).await?;
                env.finish(out).await
            };
            // The attempt runs inside its node's failure domain: if a chaos
            // campaign kills the node, the attempt (and its `Env`, read
            // cache references, timers) is dropped at the crash instant and
            // surfaces as a retryable `NodeCrashed`. Never-cancelled groups
            // poll the inner future directly — scheduling is bit-identical
            // to the pre-chaos runtime.
            let result = match self.inner.nodes[node.0 as usize].group.run(once).await {
                Ok(inner) => inner,
                Err(_cancelled) => Err(HmError::NodeCrashed { node }),
            };
            if let Some(done) = done {
                done.set(true);
            }
            match result {
                Ok(v) => return Ok(v),
                Err(e) if e.is_crash() && attempt + 1 < max_attempts => {
                    attempt += 1;
                    self.inner.retries.set(self.inner.retries.get() + 1);
                    // The crash tore down the attempt mid-phase; the
                    // detection delay (and re-dispatch queueing) is the
                    // request's `Recovery` time.
                    if let Some(p) = client.probe() {
                        let now = client.ctx().now();
                        p.crash_retry(octx, Lane::Node(node.0), now, id.0, attempt, &e);
                    }
                    client.ctx().sleep(DETECTION_DELAY).await;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// What the client holds to run child invocations: the runtime, weakly.
struct ChildInvoker(Weak<RuntimeInner>);

impl Invoker for ChildInvoker {
    fn invoke(
        &self,
        callee: InstanceId,
        func: &str,
        input: Value,
    ) -> LocalBoxFuture<'static, HmResult<Value>> {
        let Some(inner) = self.0.upgrade() else {
            return Box::pin(std::future::ready(Err(HmError::config(
                "the runtime serving this deployment was dropped",
            ))));
        };
        // Child invocations do not re-enter admission control: the parent
        // already holds a request slot, and nesting would deadlock a
        // saturated pool. They still pay dispatch and full retry handling.
        let rt = Runtime { inner };
        let func = func.to_string();
        Box::pin(async move { rt.execute(callee, &func, input).await })
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Runtime(nodes={}, invocations={}, retries={})",
            self.inner.config.get().nodes,
            self.invocations(),
            self.retries()
        )
    }
}
