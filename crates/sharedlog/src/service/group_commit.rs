//! Group-commit batching (`batch_max_records > 1`).
//!
//! Each shard's sequencer optionally coalesces appends into batches
//! (DESIGN.md §10). An append still races to the sequencer on its own —
//! drawing its usual latency sample and sleeping the to-sequencer share —
//! but on arrival it *joins the shard's open batch* instead of paying
//! admission alone. The batch flushes when it holds
//! [`LogConfig::batch_max_records`] members, when `BATCH_MAX_DELAY`
//! elapses on its first member, or when a recovery read forces it. One
//! flush pays **one** sequencer admission and **one** coalesced replica
//! write for the whole batch; members install in arrival order, so a batch
//! occupies a contiguous run of the shared seqnum clock. `cond_append`
//! conditions are evaluated at flush time, atomically with the installs —
//! exactly when the unbatched path evaluates them.
//!
//! A batch is one pooled object: its members, their outcomes, the gate
//! they wait on and the trigger that claimed it. Its first member spawns
//! its deadline task, which is also its flush task: a size trigger wakes
//! it, the deadline lets it claim the batch itself, and a forced flush
//! spawns its own while the task stands down. The task is detached and
//! owned by the sequencer, so a client crashing mid-flush never strands
//! its batch peers.
//!
//! With `batch_max_records <= 1` (the default) none of this code runs: an
//! append passes the lane alone and pays its own storage sleep. The rest of the
//! service reaches this module only through `append_batched` (from
//! `append_on`), `force_flush` (from `replay_stream`) and the two
//! accessors at the end.
//!
//! [`LogConfig::batch_max_records`]: super::LogConfig::batch_max_records

use std::cell::RefCell;
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::rc::Rc;
use std::task::{Poll, Waker};
use std::time::Duration;

use hm_common::collections::TagSet;
use hm_common::observe::{Phase, Scope};
use hm_common::{NodeId, Tag};
use hm_substrate::sync::Gate;

use super::{CondAppendOutcome, LogService};
use crate::payload::Payload;
use crate::router::ShardId;
use crate::shard::FlushStats;

/// Longest virtual time the first record of a batch waits for company
/// before the batch flushes anyway.
const BATCH_MAX_DELAY: Duration = Duration::from_micros(200);

/// One append parked in a shard's open batch, waiting for the flush that
/// will sequence it.
///
/// Everything in a member is a pointer bump or a `Copy` to move: tags are
/// an inline [`TagSet`] and the payload's `Clone` is refcounted for
/// protocol records — parking an append allocates nothing in steady state.
struct PendingAppend<P> {
    node: NodeId,
    tags: TagSet,
    payload: P,
    /// `Some((cond_tag, cond_pos))` for `cond_append` members; the check
    /// is evaluated at flush time, atomically with the install, exactly as
    /// the unbatched path evaluates it at sequencing time.
    cond: Option<(Tag, usize)>,
    /// This member's storage share of its own latency draw. The batch's
    /// coalesced write takes the max over members — no fresh draw.
    storage_part: Duration,
    /// The append's scope, so the flush can mark its sequencing decision
    /// and walk it through `BatchWait → Sequencer → Quorum` while the
    /// appender is parked at the gate.
    scope: Scope,
}

/// Why a batch flushed — bookkept into [`FlushStats`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum FlushTrigger {
    /// Reached `batch_max_records`.
    Size,
    /// `BATCH_MAX_DELAY` elapsed on the oldest member.
    Deadline,
    /// A `replay_stream` recovery read drained it.
    Forced,
}

/// One group-commit batch, from its first member's arrival until the last
/// appender has read its outcome. Shared behind one `Rc` by the shard's
/// open slot (while the batch is joinable), its appenders, its deadline
/// task and, when a recovery read forces it, that read and its flush.
struct Batch<P> {
    /// Parked appends in arrival order; the flush drains them.
    members: Vec<PendingAppend<P>>,
    /// The flush's result for the member that joined `i`-th, at index `i`.
    outcomes: Vec<CondAppendOutcome>,
    /// Opened once the batch is sequenced **and** durable.
    gate: Gate,
    /// The trigger that closed the batch to new members; `None` while it
    /// is the shard's open batch.
    claimed: Option<FlushTrigger>,
    /// The deadline task's waker while it sleeps, for a size trigger to
    /// wake it.
    deadline_waker: Option<Waker>,
}

type BatchRef<P> = Rc<RefCell<Batch<P>>>;

/// Most batches the service keeps for reuse. A batch is in use from its
/// first member's arrival until a storage round-trip after its flush, so a
/// handful per shard covers every batch in flight; beyond that, dropping
/// the excess is cheaper than hoarding arbitrary capacity.
const BATCH_POOL_CAP: usize = 32;

/// A batch for a shard's open slot: the first pooled batch that only the
/// pool still holds, reset, or a new one with room for `cap` members
/// (pooled while the pool has room). The sole-owner test is what makes
/// reuse invisible: no appender can still be reading the old outcomes, and
/// no waiter can see the gate close again.
fn pooled_batch<P>(pool: &mut Vec<BatchRef<P>>, cap: usize) -> BatchRef<P> {
    let idle = |b: &BatchRef<P>| Rc::strong_count(b) == 1 && b.borrow().gate.try_reset();
    if let Some(batch) = pool.iter().find(|b| idle(b)) {
        let mut b = batch.borrow_mut();
        debug_assert!(b.members.is_empty() && b.deadline_waker.is_none());
        b.outcomes.clear();
        b.claimed = None;
        drop(b);
        return batch.clone();
    }
    let batch = Rc::new(RefCell::new(Batch {
        members: Vec::with_capacity(cap),
        outcomes: Vec::with_capacity(cap),
        gate: Gate::with_capacity(cap),
        claimed: None,
        deadline_waker: None,
    }));
    if pool.len() < BATCH_POOL_CAP {
        pool.push(batch.clone());
    }
    batch
}

/// The batcher's state in the service.
pub(super) struct GroupCommit<P> {
    /// Each shard's open (joinable) batch, if any; always `None` while
    /// batching is off.
    open_batches: Vec<Option<BatchRef<P>>>,
    /// Batches recycled between flushes (see [`pooled_batch`]): steady-
    /// state batching reuses the same few member vectors, outcome vectors
    /// and gates forever.
    batch_pool: Vec<BatchRef<P>>,
}

impl<P> GroupCommit<P> {
    /// No open batch on any of `shards` shards, and an empty pool.
    pub(super) fn new(shards: u8) -> GroupCommit<P> {
        GroupCommit {
            open_batches: (0..shards).map(|_| None).collect(),
            batch_pool: Vec::new(),
        }
    }
}

impl<P: Payload> LogService<P> {
    /// Whether group-commit batching is configured
    /// (`LogConfig::batch_max_records > 1`).
    #[must_use]
    pub fn batching_enabled(&self) -> bool {
        self.config.batch_max_records > 1
    }

    /// Parks an append (plain or conditional) in `home`'s open batch, arms
    /// the flush trigger, and waits for the flush to deliver this member's
    /// outcome. Called after the member has already slept its trip to the
    /// sequencer, so batch join order *is* sequencer arrival order.
    #[allow(clippy::too_many_arguments)] // one parked append's fields
    pub(super) async fn append_batched(
        &self,
        home: u8,
        node: NodeId,
        tags: TagSet,
        payload: P,
        cond: Option<(Tag, usize)>,
        storage_part: Duration,
        scope: &Scope,
    ) -> CondAppendOutcome {
        let member = PendingAppend {
            node,
            tags,
            payload,
            cond,
            storage_part,
            scope: scope.clone(),
        };
        let cap = self.config.batch_max_records;
        let batch = {
            let mut inner = self.inner.borrow_mut();
            let state = &mut inner.group_commit;
            let open = &mut state.open_batches[home as usize];
            open.get_or_insert_with(|| pooled_batch(&mut state.batch_pool, cap))
                .clone()
        };
        let seat = {
            let mut b = batch.borrow_mut();
            b.members.push(member);
            b.members.len() - 1
        };
        if seat + 1 == cap {
            // The filling member claims synchronously (no await between the
            // push above and this claim, so the batch cannot change under
            // us) and wakes the batch's deadline task to flush it: waking
            // enqueues the flush where a freshly spawned task would go, and
            // a task that has not first-polled yet sees the claim then.
            self.claim(home, FlushTrigger::Size);
            let waker = batch.borrow_mut().deadline_waker.take();
            if let Some(waker) = waker {
                waker.wake();
            }
        } else if seat == 0 {
            // First member arms the deadline. The task is detached (owned
            // by the sequencer, not by any function node's failure domain).
            let (svc, batch) = (self.clone(), batch.clone());
            self.ctx
                .spawn_detached(async move { svc.deadline_task(home, batch).await });
        }
        let opened = batch.borrow().gate.wait();
        opened.await;
        let outcome = batch.borrow().outcomes[seat];
        outcome
    }

    /// Closes `shard`'s open batch to new members on behalf of `trigger`
    /// and returns it; the next append opens a fresh one. `None` when no
    /// batch is open.
    fn claim(&self, shard: u8, trigger: FlushTrigger) -> Option<BatchRef<P>> {
        let batch = self.inner.borrow_mut().group_commit.open_batches[shard as usize].take()?;
        batch.borrow_mut().claimed = Some(trigger);
        Some(batch)
    }

    /// A batch's own flush task, spawned by its first member: flushes the
    /// batch when a size trigger wakes it, or claims and flushes it when
    /// `BATCH_MAX_DELAY` elapses first. A batch a recovery read forced is
    /// that read's to flush; the task then stands down at its deadline.
    async fn deadline_task(&self, shard: u8, batch: BatchRef<P>) {
        let mut delay = pin!(self.ctx.sleep(BATCH_MAX_DELAY));
        let trigger = poll_fn(|cx| {
            let mut b = batch.borrow_mut();
            if b.claimed == Some(FlushTrigger::Size) {
                return Poll::Ready(Some(FlushTrigger::Size));
            }
            if delay.as_mut().poll(cx).is_ready() {
                b.deadline_waker = None;
                return Poll::Ready(b.claimed.is_none().then_some(FlushTrigger::Deadline));
            }
            match &mut b.deadline_waker {
                Some(w) => w.clone_from(cx.waker()),
                slot => *slot = Some(cx.waker().clone()),
            }
            Poll::Pending
        })
        .await;
        if trigger == Some(FlushTrigger::Deadline) {
            self.claim(shard, FlushTrigger::Deadline);
        }
        if let Some(trigger) = trigger {
            self.flush_batch(shard, &batch, trigger).await;
        }
    }

    /// Sequences and persists one claimed batch: a single sequencer
    /// admission covers the whole batch, members install in join (= arrival)
    /// order — so the batch occupies a contiguous run of the shared clock —
    /// and one coalesced storage round-trip persists everything. Conditional
    /// members have their offset check evaluated here, atomically with the
    /// installs, exactly as the unbatched path checks at sequencing time.
    ///
    /// The coalesced write completes when its slowest member's replica
    /// write would: `quorum_storage_latency` over the **max** of the
    /// members' own storage shares. No fresh latency draw happens here, so
    /// a workload whose appends never actually share a batch consumes the
    /// exact RNG stream of an unbatched run.
    async fn flush_batch(&self, shard: u8, batch: &BatchRef<P>, trigger: FlushTrigger) {
        let mut members = std::mem::take(&mut batch.borrow_mut().members);
        debug_assert!(!members.is_empty(), "claimed batches are never empty");
        // The whole batch enters sequencing together: every member's phase
        // clock flips from BatchWait to Sequencer before the single shared
        // admission below.
        for m in &members {
            m.scope.phase(|| self.ctx.now(), Phase::Sequencer);
        }
        self.sequencer_admission(shard).await;
        let mut batch_storage = Duration::ZERO;
        let count = members.len() as u64;
        for m in members.drain(..) {
            batch_storage = batch_storage.max(m.storage_part);
            let outcome = self.sequence(shard, m.node, &m.tags, m.payload, m.cond);
            self.mark_sequenced(&m.scope, shard, outcome);
            batch.borrow_mut().outcomes.push(outcome);
            // Sequenced (installs take zero simulated time); the rest of
            // this member's wait is the coalesced quorum write.
            m.scope.phase(|| self.ctx.now(), Phase::Quorum);
        }
        // Drained: the vector goes back so a reuse of this batch keeps its
        // capacity.
        batch.borrow_mut().members = members;
        {
            let mut inner = self.inner.borrow_mut();
            let flush = &mut inner.shards[shard as usize].flush;
            flush.flushes += 1;
            flush.records += count;
            match trigger {
                FlushTrigger::Size => flush.size_trigger += 1,
                FlushTrigger::Deadline => flush.deadline_trigger += 1,
                FlushTrigger::Forced => flush.forced_trigger += 1,
            }
        }
        let storage = self.quorum_storage_latency(shard, batch_storage);
        self.ctx.sleep(storage).await;
        batch.borrow().gate.open();
    }

    /// Force-flushes `shard`'s open batch on a detached task (a recovery
    /// reader that crashes mid-flush strands no batch peer) and waits until
    /// its members are sequenced and durable. Returns how many records the
    /// forced flush carried (0 when no batch was open, as always with
    /// batching off).
    pub(super) async fn force_flush(&self, shard: u8) -> u64 {
        let Some(batch) = self.claim(shard, FlushTrigger::Forced) else {
            return 0;
        };
        let n = batch.borrow().members.len() as u64;
        let (svc, flushed) = (self.clone(), batch.clone());
        self.ctx.spawn_detached(async move {
            svc.flush_batch(shard, &flushed, FlushTrigger::Forced).await;
        });
        let opened = batch.borrow().gate.wait();
        opened.await;
        n
    }

    /// Group-commit accounting, aggregated across shards. All-zero while
    /// batching is off.
    #[must_use]
    pub fn flush_stats(&self) -> FlushStats {
        let inner = self.inner.borrow();
        let mut total = FlushStats::default();
        for shard in &inner.shards {
            total = total.merged(&shard.flush);
        }
        total
    }

    /// Records currently parked in `shard`'s open batch (test helper).
    #[must_use]
    pub fn pending_batch_len(&self, shard: ShardId) -> usize {
        self.inner.borrow().group_commit.open_batches[shard.0 as usize]
            .as_ref()
            .map_or(0, |b| b.borrow().members.len())
    }
}
