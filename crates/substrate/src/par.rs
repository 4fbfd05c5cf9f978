//! Partitioned fan-out: one virtual-time executor per partition, spread
//! across worker threads, with a deterministic cross-partition merge. The
//! machinery behind [`Runner::run_partitions`](crate::Runner::run_partitions).
//!
//! # Model
//!
//! A partitioned run splits a deployment into `P` **partitions**. Each
//! partition owns a full [`Sim`] with its own clock, task set, and seeded
//! RNG — shards, their sequencer/storage/GC lanes, and tenant gateways are
//! placed onto partitions by the caller (see `hm_sharedlog`'s partition
//! placement and `hm_runtime`'s tenant pinning). Partition `p` of a run on
//! `N` worker threads is hosted by worker `p % N`; a worker multiplexes the
//! partitions it hosts.
//!
//! Partitions interact **only** through timestamped envelopes: a send at
//! virtual time `t` is delivered to the destination partition at
//! `t + lookahead` as a `(virtual_time, partition_id, seq)`-keyed message
//! through an SPSC mailslot. Deliveries are admitted in key order,
//! and at an instant where both deliveries and local timers are due,
//! deliveries happen first — a fixed rule, so the admission order never
//! depends on wall-clock timing.
//!
//! # Conservative time frontier
//!
//! Each partition `p` advertises a monotone **frontier** `f_p`: a promise
//! that no envelope it later sends will be delivered before `f_p`. A
//! partition may execute events strictly below the minimum of the *other*
//! partitions' frontiers. Frontiers follow the classic null-message
//! recursion
//!
//! ```text
//! f_p = lookahead + min(next_local_event_p, min over q≠p of f_q)
//! ```
//!
//! which is safe (a send happens while executing some event, every
//! executable event is at or after that `min`, and delivery adds
//! `lookahead`) and deadlock-free for `lookahead > 0` (the partition
//! holding the globally-earliest event can always run it). Because a
//! worker reads its neighbors' frontiers **before** draining its inbound
//! mailslots, every envelope below the bound it computes is already in its
//! reorder buffer when it runs — sends are pushed before the frontier
//! covering them is published.
//!
//! # Determinism
//!
//! A partition's execution is a pure function of its seed, its initial
//! tasks, and the key-ordered sequence of envelopes it admits; envelope
//! contents and timestamps are in turn pure functions of the sending
//! partitions' executions. By induction over virtual time the merged
//! schedule is a pure function of `(seed, topology)` — frontier timing,
//! thread interleaving and the worker count only decide *wall-clock*
//! progress, never the virtual schedule. Partition 0 is seeded with the
//! run's own seed, so a single-partition run is bit-identical to
//! `Sim::new(seed)` on the same workload. DESIGN.md §17 develops the full
//! argument.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use crate::executor::{dur_ns, Sim, SimCtx};
use crate::{Ctx, JoinHandle, Time};

/// How the layers above place tenants and shards onto partitions.
/// (Partitions themselves always go onto workers round-robin.)
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PartitionPolicy {
    /// Item `i` of `n` goes to bucket `i % buckets` — interleaved, the
    /// default.
    #[default]
    RoundRobin,
    /// Item `i` of `n` goes to bucket `i * buckets / n` — contiguous
    /// blocks, which keeps neighboring partitions on the same worker.
    Chunked,
}

impl PartitionPolicy {
    /// Deterministically assigns item `index` out of `total` to one of
    /// `buckets` buckets.
    #[must_use]
    pub fn assign(self, index: usize, total: usize, buckets: usize) -> usize {
        let buckets = buckets.max(1);
        match self {
            PartitionPolicy::RoundRobin => index % buckets,
            PartitionPolicy::Chunked => {
                let total = total.max(1);
                (index.min(total - 1) * buckets) / total
            }
        }
    }
}

/// Boxed partition root future, as produced by a `run_partitions` setup
/// closure. Local (non-`Send`): it runs entirely on its partition's worker.
pub type PartitionFuture<R> = Pin<Box<dyn Future<Output = R> + 'static>>;

/// Per-partition RNG seed: partition 0 inherits the run seed (so a
/// one-partition run is bit-identical to `Sim::new(seed)`); other
/// partitions get splitmix-derived independent streams.
#[must_use]
pub(crate) fn partition_seed(seed: u64, partition: u32) -> u64 {
    if partition == 0 {
        return seed;
    }
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(partition));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Cross-thread fleet state
// ---------------------------------------------------------------------------

/// A timestamped cross-partition message. Keyed `(vt, from, seq)`: delivery
/// virtual time, sending partition, and the sender's per-partition send
/// counter — a total order independent of wall-clock arrival.
struct Envelope {
    vt: u64,
    from: u32,
    seq: u64,
    payload: Vec<u8>,
}

/// State shared by every worker of one partitioned run.
struct Fleet {
    partitions: u32,
    lookahead_ns: u64,
    /// Advertised frontiers, one per partition, monotone non-decreasing.
    frontiers: Vec<AtomicU64>,
    /// True while the partition has no local event and nothing in its
    /// reorder buffer — the ingredient of stall detection.
    eventless: Vec<AtomicBool>,
    /// Count of partition roots that have completed.
    done: AtomicU64,
    /// Envelopes pushed into / drained out of mailslots; equal counts mean
    /// nothing is in flight.
    sent: AtomicU64,
    delivered: AtomicU64,
    /// Set when a worker panics so its peers stop instead of waiting on a
    /// frontier that will never move again.
    poisoned: AtomicBool,
    /// Payload of the first worker panic, re-raised by the caller of the
    /// partitioned run once every worker has stopped.
    first_panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Dense `from * partitions + to` matrix of mailslots, one per ordered
    /// pair of partitions (single producer, single consumer); the consumer
    /// drains its column at every scheduling round. Unbounded on purpose:
    /// `send` is synchronous, and when both partitions share a worker the
    /// only thread that could drain a full slot is the one that would be
    /// blocked filling it.
    slots: Vec<Mutex<Vec<Envelope>>>,
    /// Generation counter + condvar: bumped on every frontier publication,
    /// send, or completion so blocked workers re-evaluate.
    signal: Mutex<u64>,
    cond: Condvar,
}

impl Fleet {
    fn new(partitions: u32, lookahead: Time) -> Fleet {
        let n = partitions as usize;
        Fleet {
            partitions,
            lookahead_ns: dur_ns(lookahead).max(1),
            frontiers: (0..n).map(|_| AtomicU64::new(0)).collect(),
            eventless: (0..n).map(|_| AtomicBool::new(false)).collect(),
            done: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            first_panic: Mutex::new(None),
            slots: (0..n * n).map(|_| Mutex::new(Vec::new())).collect(),
            signal: Mutex::new(0),
            cond: Condvar::new(),
        }
    }

    fn slot(&self, from: usize, to: usize) -> MutexGuard<'_, Vec<Envelope>> {
        self.slots[from * self.partitions as usize + to]
            .lock()
            .expect("mailslot poisoned")
    }

    /// The execution bound for `me`: the minimum frontier advertised by
    /// every *other* partition (`u64::MAX` for a single partition).
    fn bound_for(&self, me: usize) -> u64 {
        let mut min = u64::MAX;
        for (i, f) in self.frontiers.iter().enumerate() {
            if i != me {
                min = min.min(f.load(SeqCst));
            }
        }
        min
    }

    fn bump(&self) {
        *self.signal.lock().expect("fleet signal poisoned") += 1;
        self.cond.notify_all();
    }

    /// Waits until the signal generation moves past `seen` (or a short
    /// timeout elapses, as a lost-wakeup backstop). Returns the current
    /// generation.
    fn wait_for_change(&self, seen: u64) -> u64 {
        let mut gen = self.signal.lock().expect("fleet signal poisoned");
        if *gen == seen {
            let (g, _) = self
                .cond
                .wait_timeout(gen, Duration::from_micros(200))
                .expect("fleet signal poisoned");
            gen = g;
        }
        *gen
    }

    /// Runs one worker's body. If it panics, keeps the payload (the first
    /// one wins: it names the root cause) and poisons the fleet, so peer
    /// workers stop promptly instead of spinning on a dead frontier.
    fn run_worker<T>(&self, body: impl FnOnce() -> Vec<T>) -> Vec<T> {
        match catch_unwind(AssertUnwindSafe(body)) {
            Ok(out) => out,
            Err(payload) => {
                self.first_panic
                    .lock()
                    .expect("first panic slot poisoned")
                    .get_or_insert(payload);
                self.poisoned.store(true, SeqCst);
                self.bump();
                Vec::new()
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Partition-local state
// ---------------------------------------------------------------------------

/// Partition-local message state, shared between the engine (which admits
/// envelopes) and [`ParCtx`] handles inside tasks (which send and receive).
struct PartLocal {
    /// Reorder buffer: drained envelopes not yet admitted, in delivery
    /// order `(vt, from, seq)`.
    inbox: BTreeMap<(u64, u32, u64), Vec<u8>>,
    /// Admitted envelopes awaiting a `recv` call, FIFO.
    mailbox: VecDeque<(u32, Vec<u8>)>,
    recv_wakers: Vec<Waker>,
    /// Per-sender envelope counter; increments in virtual execution order,
    /// so it is deterministic.
    next_seq: u64,
}

/// One partition's executor plus its fleet hookup. Lives entirely on the
/// worker thread hosting the partition (a `Sim` is single-threaded).
struct PartEngine {
    index: u32,
    sim: Sim,
    local: Rc<RefCell<PartLocal>>,
    fleet: Arc<Fleet>,
    scratch: Vec<Envelope>,
}

impl PartEngine {
    fn new(index: u32, seed: u64, fleet: Arc<Fleet>) -> PartEngine {
        PartEngine {
            index,
            sim: Sim::new(partition_seed(seed, index)),
            local: Rc::new(RefCell::new(PartLocal {
                inbox: BTreeMap::new(),
                mailbox: VecDeque::new(),
                recv_wakers: Vec::new(),
                next_seq: 0,
            })),
            fleet,
            scratch: Vec::new(),
        }
    }

    /// This partition's context: the executor handle plus the messaging
    /// link.
    fn ctx(&self) -> Ctx {
        let link = ParCtx {
            sim: self.sim.handle(),
            local: self.local.clone(),
            fleet: self.fleet.clone(),
            index: self.index,
        };
        Ctx::new(self.sim.handle(), Some(link))
    }

    /// Moves every envelope queued in this partition's inbound mailslots
    /// into the reorder buffer. Returns true if anything arrived.
    fn drain_mailslots(&mut self) -> bool {
        let me = self.index as usize;
        self.scratch.clear();
        for from in 0..self.fleet.partitions as usize {
            if from != me {
                self.scratch.append(&mut self.fleet.slot(from, me));
            }
        }
        if self.scratch.is_empty() {
            return false;
        }
        // Clear the idle flag before counting deliveries: a stall checker
        // that observes sent == delivered is then guaranteed to also
        // observe this partition as non-idle until it re-quiesces.
        self.fleet.eventless[me].store(false, SeqCst);
        let mut local = self.local.borrow_mut();
        let n = self.scratch.len() as u64;
        for env in self.scratch.drain(..) {
            local.inbox.insert((env.vt, env.from, env.seq), env.payload);
        }
        drop(local);
        self.fleet.delivered.fetch_add(n, SeqCst);
        true
    }

    /// Earliest pending local event (timer deadline or buffered envelope),
    /// `u64::MAX` if none.
    fn next_event_ns(&self) -> u64 {
        let timer = self.sim.next_timer_at().map_or(u64::MAX, dur_ns);
        let env = self
            .local
            .borrow()
            .inbox
            .keys()
            .next()
            .map_or(u64::MAX, |k| k.0);
        timer.min(env)
    }

    /// Runs this partition's events strictly below `limit_ns`, admitting
    /// buffered envelopes in `(vt, from, seq)` order (before timers at the
    /// same instant). Checks `root` between instants — exactly the
    /// sequential `block_on` cadence. Returns `(progressed, result)`.
    fn run_burst<R: 'static>(&mut self, root: &JoinHandle<R>, limit_ns: u64) -> (bool, Option<R>) {
        let mut progressed = false;
        loop {
            if self.sim.run_ready() {
                progressed = true;
            }
            if let Some(v) = root.try_take() {
                return (true, Some(v));
            }
            let t_env = self
                .local
                .borrow()
                .inbox
                .keys()
                .next()
                .map_or(u64::MAX, |k| k.0);
            let t_timer = self.sim.next_timer_at().map_or(u64::MAX, dur_ns);
            if t_env.min(t_timer) >= limit_ns {
                return (progressed, None);
            }
            progressed = true;
            if t_env <= t_timer {
                self.admit_at(t_env);
            } else {
                // The exclusive bound min(limit, t_env) admits exactly the
                // next timer instant: t_timer is strictly below both.
                let fired = self
                    .sim
                    .fire_timers_before(Time::from_nanos(limit_ns.min(t_env)));
                debug_assert!(fired, "next timer vanished mid-burst");
            }
        }
    }

    /// Admits every buffered envelope with delivery time `at`, in key
    /// order, then wakes the receivers.
    fn admit_at(&mut self, at: u64) {
        self.sim.advance_clock_to(Time::from_nanos(at));
        let mut local = self.local.borrow_mut();
        while let Some(&(vt, from, seq)) = local.inbox.keys().next() {
            if vt != at {
                break;
            }
            let payload = local.inbox.remove(&(vt, from, seq)).expect("peeked key");
            local.mailbox.push_back((from, payload));
        }
        let wakers = std::mem::take(&mut local.recv_wakers);
        drop(local);
        for w in wakers {
            w.wake();
        }
    }
}

// ---------------------------------------------------------------------------
// ParCtx: the messaging link tasks hold
// ---------------------------------------------------------------------------

/// A partition's cross-partition messaging surface: [`ParCtx::send`] and
/// [`ParCtx::recv`]. Reached through [`Ctx::as_par`]; clock, spawning and
/// RNG are the partition's [`Ctx`] itself.
#[derive(Clone)]
pub struct ParCtx {
    sim: SimCtx,
    local: Rc<RefCell<PartLocal>>,
    fleet: Arc<Fleet>,
    index: u32,
}

impl ParCtx {
    /// Index of the partition this context executes on.
    #[must_use]
    pub fn partition(&self) -> usize {
        self.index as usize
    }

    /// Total number of partitions in the run.
    #[must_use]
    pub fn partitions(&self) -> usize {
        self.fleet.partitions as usize
    }

    /// Sends `payload` to partition `to`. The envelope is timestamped
    /// `now + lookahead` and delivered to the destination's mailbox at
    /// exactly that virtual time, ordered by `(virtual_time, sender, seq)`
    /// against every other envelope. Self-sends are allowed and follow the
    /// same timing. Never blocks.
    ///
    /// # Panics
    /// Panics if `to` is not a valid partition index.
    pub fn send(&self, to: usize, payload: Vec<u8>) {
        assert!(
            to < self.fleet.partitions as usize,
            "send to partition {to} of {}",
            self.fleet.partitions
        );
        let vt = dur_ns(self.sim.now()).saturating_add(self.fleet.lookahead_ns);
        let (from, seq) = {
            let mut local = self.local.borrow_mut();
            local.next_seq += 1;
            (self.index, local.next_seq)
        };
        if to == self.index as usize {
            self.local
                .borrow_mut()
                .inbox
                .insert((vt, from, seq), payload);
            return;
        }
        self.fleet.sent.fetch_add(1, SeqCst);
        self.fleet.slot(from as usize, to).push(Envelope {
            vt,
            from,
            seq,
            payload,
        });
        self.fleet.bump();
    }

    /// Resolves with the next `(sender_partition, payload)` delivered to
    /// this partition, in deterministic `(virtual_time, sender, seq)`
    /// order.
    #[must_use]
    pub fn recv(&self) -> Recv {
        Recv {
            local: self.local.clone(),
        }
    }

    /// Takes the next delivered message without waiting, if one is ready.
    #[must_use]
    pub fn try_recv(&self) -> Option<(usize, Vec<u8>)> {
        self.local
            .borrow_mut()
            .mailbox
            .pop_front()
            .map(|(from, p)| (from as usize, p))
    }
}

impl std::fmt::Debug for ParCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ParCtx(partition={}/{})",
            self.index, self.fleet.partitions
        )
    }
}

/// Future returned by [`ParCtx::recv`].
pub struct Recv {
    local: Rc<RefCell<PartLocal>>,
}

impl Future for Recv {
    type Output = (usize, Vec<u8>);

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<(usize, Vec<u8>)> {
        let mut local = self.local.borrow_mut();
        if let Some((from, payload)) = local.mailbox.pop_front() {
            return Poll::Ready((from as usize, payload));
        }
        local.recv_wakers.push(cx.waker().clone());
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Partition handle given to setup closures
// ---------------------------------------------------------------------------

/// Handle passed to a `run_partitions` setup closure: the partition's
/// context plus its coordinates.
pub struct Partition {
    ctx: Ctx,
    index: usize,
    count: usize,
}

impl Partition {
    /// The context of this partition's executor.
    #[must_use]
    pub fn ctx(&self) -> Ctx {
        self.ctx.clone()
    }

    /// This partition's index, `0..count`.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total partitions in the run.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }
}

// ---------------------------------------------------------------------------
// The fan-out
// ---------------------------------------------------------------------------

/// Runs `partitions` partition roots to completion over `workers` threads
/// (the caller's included) and returns their results in partition order:
/// the body of [`Runner::run_partitions`](crate::Runner::run_partitions),
/// which documents the contract.
pub(crate) fn run_partitioned<R, F>(
    seed: u64,
    partitions: usize,
    workers: usize,
    lookahead: Time,
    setup: &F,
) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(Partition) -> PartitionFuture<R> + Send + Sync,
{
    if partitions == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, partitions);
    let fleet = Arc::new(Fleet::new(partitions as u32, lookahead));
    let mut hosted: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for p in 0..partitions {
        hosted[p % workers].push(p);
    }

    let mut results: Vec<(usize, R)> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for parts in hosted.iter().skip(1) {
            let fleet = Arc::clone(&fleet);
            let parts = parts.clone();
            handles.push(s.spawn(move || {
                fleet.run_worker(|| worker_main(&fleet, &parts, seed, partitions, setup))
            }));
        }
        let mut out = fleet.run_worker(|| worker_main(&fleet, &hosted[0], seed, partitions, setup));
        for h in handles {
            out.extend(h.join().expect("run_worker catches worker panics"));
        }
        out
    });
    // A worker that merely saw the fleet poisoned returned early and empty;
    // the panic worth reporting is the one that poisoned it.
    let first_panic = fleet
        .first_panic
        .lock()
        .expect("first panic slot poisoned")
        .take();
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
    results.sort_by_key(|&(p, _)| p);
    results.into_iter().map(|(_, r)| r).collect()
}

/// One worker thread's life: build the hosted partitions, spawn their
/// roots, then loop — for each hosted partition, read the frontier bound,
/// drain inbound mailslots, run a burst, publish a new frontier — until
/// every partition root in the fleet has completed.
fn worker_main<R, F>(
    fleet: &Arc<Fleet>,
    parts: &[usize],
    seed: u64,
    partitions: usize,
    setup: &F,
) -> Vec<(usize, R)>
where
    R: Send + 'static,
    F: Fn(Partition) -> PartitionFuture<R> + Send + Sync,
{
    struct Host<R> {
        engine: PartEngine,
        root: JoinHandle<R>,
        result: Option<R>,
    }
    let mut hosts: Vec<Host<R>> = parts
        .iter()
        .map(|&p| {
            let engine = PartEngine::new(p as u32, seed, Arc::clone(fleet));
            let fut = setup(Partition {
                ctx: engine.ctx(),
                index: p,
                count: partitions,
            });
            let root = engine.sim.handle().spawn(fut);
            Host {
                engine,
                root,
                result: None,
            }
        })
        .collect();

    let mut seen_gen = 0u64;
    loop {
        let mut progressed = false;
        for host in &mut hosts {
            let p = host.engine.index as usize;
            // Read the bound BEFORE draining: every envelope with delivery
            // below a frontier we observe was pushed before that frontier
            // was published, so the drain below is guaranteed to see it.
            let bound = fleet.bound_for(p);
            if host.engine.drain_mailslots() {
                progressed = true;
            }
            if host.result.is_some() {
                continue;
            }
            let (ran, res) = host.engine.run_burst(&host.root, bound);
            progressed |= ran;
            if let Some(r) = res {
                host.result = Some(r);
                fleet.frontiers[p].store(u64::MAX, SeqCst);
                // Counted done before flagged idle: a stall checker that
                // sees this flag then also sees the count.
                fleet.done.fetch_add(1, SeqCst);
                fleet.eventless[p].store(true, SeqCst);
                fleet.bump();
                continue;
            }
            // Publish f_p = lookahead + min(next local event, min of the
            // other frontiers); monotone by construction, but the max()
            // guards the invariant against refactors.
            let next = host.engine.next_event_ns();
            fleet.eventless[p].store(next == u64::MAX, SeqCst);
            let f_new = fleet
                .lookahead_ns
                .saturating_add(next.min(fleet.bound_for(p)));
            let prev = fleet.frontiers[p].load(SeqCst);
            if f_new > prev {
                fleet.frontiers[p].store(f_new.max(prev), SeqCst);
                fleet.bump();
            }
        }
        if fleet.done.load(SeqCst) == partitions as u64 {
            break;
        }
        if fleet.poisoned.load(SeqCst) {
            // A peer panicked; `run_partitioned` re-raises its panic.
            return Vec::new();
        }
        if !progressed {
            // The read order makes this a consistent snapshot. Both
            // counters only grow and `delivered <= sent`, so an early
            // `delivered` equal to a late `sent` means nothing was sent,
            // delivered or in flight in between; an idle partition wakes
            // only by a delivery, so every partition seen idle in between
            // still is; and `done`, read last, counts every root whose
            // completion raised one of those flags.
            let delivered = fleet.delivered.load(SeqCst);
            let idle = fleet.eventless.iter().all(|e| e.load(SeqCst));
            let quiet = idle && fleet.sent.load(SeqCst) == delivered;
            let incomplete = partitions as u64 - fleet.done.load(SeqCst);
            assert!(
                !quiet || incomplete == 0,
                "partitioned run stalled: every partition is idle with no \
                 envelopes in flight and {incomplete} of {partitions} roots incomplete"
            );
            seen_gen = fleet.wait_for_change(seen_gen);
        }
    }
    hosts
        .into_iter()
        .map(|h| {
            (
                h.engine.index as usize,
                h.result.expect("completed partition has a result"),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use super::*;

    /// A fan-out at seed 7 and a 500 µs lookahead.
    fn run<R, F>(workers: usize, partitions: usize, setup: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Partition) -> PartitionFuture<R> + Send + Sync,
    {
        run_partitioned(7, partitions, workers, Duration::from_micros(500), &setup)
    }

    #[test]
    fn policy_assignment() {
        let rr = PartitionPolicy::RoundRobin;
        assert_eq!(
            (0..6).map(|i| rr.assign(i, 6, 2)).collect::<Vec<_>>(),
            vec![0, 1, 0, 1, 0, 1]
        );
        let ch = PartitionPolicy::Chunked;
        assert_eq!(
            (0..6).map(|i| ch.assign(i, 6, 2)).collect::<Vec<_>>(),
            vec![0, 0, 0, 1, 1, 1]
        );
    }

    #[test]
    fn partition_zero_inherits_seed() {
        assert_eq!(partition_seed(42, 0), 42);
        assert_ne!(partition_seed(42, 1), partition_seed(42, 2));
    }

    /// Ping-pong between two partitions: results must not depend on the
    /// worker count.
    fn ping_pong(workers: usize) -> Vec<(u64, Vec<u64>)> {
        run(workers, 2, |p| {
            let ctx = p.ctx();
            let me = p.index();
            Box::pin(async move {
                let par = ctx.as_par().expect("partition ctx").clone();
                let mut log = Vec::new();
                if me == 0 {
                    for round in 0..5u64 {
                        par.send(1, round.to_le_bytes().to_vec());
                        let (_, reply) = par.recv().await;
                        log.push(u64::from_le_bytes(reply.try_into().unwrap()));
                    }
                } else {
                    for _ in 0..5u64 {
                        let (_, msg) = par.recv().await;
                        let v = u64::from_le_bytes(msg.try_into().unwrap());
                        par.send(0, (v * 10).to_le_bytes().to_vec());
                    }
                }
                (dur_ns(ctx.now()), log)
            })
        })
    }

    #[test]
    fn ping_pong_is_worker_count_invariant() {
        let w1 = ping_pong(1);
        let w2 = ping_pong(2);
        assert_eq!(w1, w2);
        assert_eq!(w1[0].1, vec![0, 10, 20, 30, 40]);
        // Reruns are identical too.
        assert_eq!(ping_pong(2), w2);
    }

    #[test]
    fn merge_orders_by_vt_then_partition_then_seq() {
        // Partitions 1 and 2 each send two envelopes to partition 0 at the
        // same virtual instant; partition 0 must see them ordered by
        // (vt, sender, seq) no matter which worker ran first.
        for workers in [1, 3] {
            let out = run(workers, 3, |p| {
                let ctx = p.ctx();
                let me = p.index();
                Box::pin(async move {
                    let par = ctx.as_par().expect("partition ctx").clone();
                    if me == 0 {
                        let mut seen = Vec::new();
                        for _ in 0..4 {
                            let (from, payload) = par.recv().await;
                            seen.push((from, payload[0]));
                        }
                        seen
                    } else {
                        par.send(0, vec![1]);
                        par.send(0, vec![2]);
                        Vec::new()
                    }
                })
            });
            assert_eq!(
                out[0],
                vec![(1, 1), (1, 2), (2, 1), (2, 2)],
                "workers={workers}"
            );
        }
    }

    #[test]
    fn self_send_delivers_after_lookahead() {
        let out = run(1, 1, |p| {
            let ctx = p.ctx();
            Box::pin(async move {
                let par = ctx.as_par().expect("partition ctx").clone();
                let t0 = ctx.now();
                par.send(0, vec![9]);
                let (from, payload) = par.recv().await;
                (from, payload, ctx.now() - t0)
            })
        });
        assert_eq!(out[0], (0, vec![9], Duration::from_micros(500)));
    }

    /// Partition 0 sends `BURST` envelopes to partition 1 without awaiting
    /// anything; partition 1 receives them all. Returns each partition's
    /// (digest of what it received, final clock).
    fn send_burst(workers: usize) -> Vec<(u64, u64)> {
        run(workers, 2, |p| {
            let ctx = p.ctx();
            let me = p.index();
            Box::pin(async move {
                let par = ctx.as_par().expect("partition ctx").clone();
                let mut digest = 0u64;
                if me == 0 {
                    for i in 0..BURST {
                        par.send(1, i.to_le_bytes().to_vec());
                    }
                } else {
                    for _ in 0..BURST {
                        let (_, msg) = par.recv().await;
                        let v = u64::from_le_bytes(msg.try_into().unwrap());
                        digest = digest.wrapping_mul(31).wrapping_add(v);
                    }
                }
                (digest, dur_ns(ctx.now()))
            })
        })
    }

    /// Large enough to overrun any bound a mailslot could sensibly carry.
    const BURST: u64 = 2_000;

    /// `send` never waits for the receiver, so the burst completes even
    /// when one worker hosts both ends — the only thread that could drain
    /// the slot is then the sending one — and the worker count changes
    /// nothing. Each run sits under a watchdog so that a `send` that blocks
    /// fails the test instead of hanging the suite.
    #[test]
    fn send_burst_completes_at_every_worker_count() {
        let watched = |workers: usize| {
            let (tx, rx) = mpsc::channel();
            let fleet = std::thread::spawn(move || {
                let _ = tx.send(send_burst(workers));
            });
            match rx.recv_timeout(Duration::from_secs(30)) {
                Ok(out) => {
                    fleet.join().expect("the fleet thread sent its result");
                    out
                }
                // The fleet panicked before sending: re-raise its panic.
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    resume_unwind(fleet.join().expect_err("sender dropped unsent"))
                }
                // Left detached on purpose: joining a blocked fleet would
                // hang the suite, which is what the watchdog is here to stop.
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    panic!("a {BURST}-send burst did not complete at workers={workers}")
                }
            }
        };
        let w1 = watched(1);
        assert_eq!(w1[1].1, 500_000, "every envelope lands one lookahead in");
        assert_eq!(watched(2), w1);
        assert_eq!(watched(4), w1);
    }

    /// A worker that has finished its own partitions and finds nothing to do
    /// must not take its peer's last completion for a stall: the idle flag
    /// and the done count are two stores, and the check reads both. Loops
    /// because the window is a few instructions wide (at the unordered
    /// version this fails within the first few thousand runs).
    #[test]
    fn completion_is_never_read_as_a_stall() {
        for seed in 0..10_000u64 {
            let out = run_partitioned(seed, 8, 2, Duration::from_secs(3600), &|p: Partition| {
                let ctx = p.ctx();
                let index = p.index() as u64;
                Box::pin(async move {
                    ctx.sleep(Duration::from_micros(index)).await;
                    index
                }) as PartitionFuture<u64>
            });
            assert_eq!(out, (0..8).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn partitions_without_messaging_match_sequential() {
        let body = |ctx: Ctx| async move {
            let mut acc = 0u64;
            for i in 0..20u64 {
                ctx.sleep(Duration::from_micros(i * 7 + 1)).await;
                acc = acc
                    .wrapping_mul(0x100000001b3)
                    .wrapping_add(ctx.with_rng(rand::Rng::next_u64));
            }
            (acc, dur_ns(ctx.now()))
        };
        // Each partition is a bare `Sim` at that partition's seed.
        let seq: Vec<_> = (0..4)
            .map(|p| {
                let mut sim = Sim::new(partition_seed(7, p));
                sim.block_on(body(sim.ctx()))
            })
            .collect();
        for workers in [1, 2, 4] {
            let got = run(workers, 4, |p| Box::pin(body(p.ctx())));
            assert_eq!(got, seq, "workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "partitioned run stalled")]
    fn stalled_recv_panics() {
        let _ = run(2, 2, |p| {
            let ctx = p.ctx();
            let me = p.index();
            Box::pin(async move {
                if me == 1 {
                    let par = ctx.as_par().expect("partition ctx").clone();
                    let _ = par.recv().await; // nobody ever sends
                }
                0u32
            })
        });
    }
}
