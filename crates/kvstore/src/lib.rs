//! DynamoDB-like external state store.
//!
//! Both Boki and Halfmoon keep application state in DynamoDB (§6 setup);
//! this crate is its simulated stand-in. The store offers exactly the
//! capability set the protocols need, nothing more:
//!
//! - plain key-value `get`/`put` (the unsafe baseline and Halfmoon-read's
//!   multi-version writes use these);
//! - **conditional updates** comparing a stored version tuple
//!   (`VERSION < v` ⇒ apply), which Halfmoon-write's log-free writes and
//!   Boki's idempotent writes rely on (§4.2);
//! - **multi-version objects**: per §4.1, multi-versioning is layered over
//!   plain KV by giving each version its own composite key; version numbers
//!   are opaque pointers and the write log defines their order;
//! - deletes, for garbage collection of stale versions (§4.5);
//! - storage accounting (time-weighted bytes) and op counters for the §6.3
//!   experiments.
//!
//! Every operation takes simulated time drawn from the calibrated
//! [`LatencyModel`]; state mutations apply at operation *completion*, which
//! is when a real DynamoDB write becomes visible to readers.
//!
//! ```
//! use hm_common::{latency::LatencyModel, Key, SeqNum, Value, VersionTuple};
//! use hm_kvstore::KvStore;
//! use hm_substrate::sim::Sim;
//!
//! let mut sim = Sim::new(1);
//! let store = KvStore::new(sim.ctx(), LatencyModel::calibrated());
//! let s = store.clone();
//! sim.block_on(async move {
//!     let key = Key::new("user:7");
//!     s.put(&key, Value::str("ada")).await;
//!     // A conditional update with a newer version tuple applies...
//!     let fresh = VersionTuple::new(SeqNum(10), 1);
//!     assert!(s.put_conditional(&key, Value::str("grace"), fresh).await);
//!     // ...and a stale one does not (idempotent retries, §4.2).
//!     let stale = VersionTuple::new(SeqNum(3), 1);
//!     assert!(!s.put_conditional(&key, Value::str("old"), stale).await);
//!     assert_eq!(s.get(&key).await, Some(Value::str("grace")));
//! });
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use hm_common::FxHashMap;

use hm_common::latency::{LatencyModel, LogNormalLatency};
use hm_common::metrics::{OpCounters, TimeWeightedGauge};
use hm_common::observe::{Lane, Phase, Probe, Scope};
use hm_common::{Key, Value, VersionNum, VersionTuple};
use hm_substrate::{Ctx, Time};

/// Fixed per-item metadata overhead we charge to storage, mirroring the
/// paper's `S_meta` ("a few dozen bytes", §4.1).
pub const ITEM_META_BYTES: usize = 32;

/// Items one `BatchWriteItem` round trip takes at most (DynamoDB's limit):
/// [`KvStore::delete_versions`] splits a longer list into batches of this
/// many, sent concurrently.
pub const BATCH_WRITE_ITEMS: usize = 25;

/// The latest (single-version) copy of an object, used by Halfmoon-write,
/// Boki, and the unsafe baseline.
#[derive(Clone, Debug)]
struct LatestItem {
    value: Value,
    version: VersionTuple,
}

struct StoreInner {
    /// Single-version table: key → latest value + version tuple.
    latest: FxHashMap<Key, LatestItem>,
    /// Multi-version table: each version under its own composite key, the
    /// paper's "each version is represented by a separate key" (§5.2).
    /// Every versioned operation is one probe; a composite key is a
    /// refcount bump of the caller's key.
    versions: FxHashMap<(Key, VersionNum), Value>,
    bytes: TimeWeightedGauge,
    counters: OpCounters,
    /// The deployment's observation handle, shared by all handle clones.
    probe: Option<Rc<Probe>>,
}

impl StoreInner {
    fn charge(&mut self, now: Time, delta_bytes: f64) {
        self.bytes.add(now, delta_bytes);
    }
}

/// Handle to the simulated store. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct KvStore {
    ctx: Ctx,
    model: LatencyModel,
    inner: Rc<RefCell<StoreInner>>,
}

impl KvStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new(ctx: Ctx, model: LatencyModel) -> KvStore {
        let now = ctx.now();
        KvStore {
            ctx,
            model,
            inner: Rc::new(RefCell::new(StoreInner {
                latest: FxHashMap::default(),
                versions: FxHashMap::default(),
                bytes: TimeWeightedGauge::new(now),
                counters: OpCounters::default(),
                probe: None,
            })),
        }
    }

    /// Attaches the deployment's probe: every store round-trip then opens
    /// a `db_*` scope on the storage lane charging [`Phase::StoreIo`], under
    /// the context its caller armed. Shared by all handle clones.
    pub fn observe(&self, probe: Rc<Probe>) {
        self.inner.borrow_mut().probe = Some(probe);
    }

    /// One round-trip: opens the operation's scope (under the context its
    /// caller armed, so before the first `await`) and sleeps its latency.
    async fn pay(&self, name: &'static str, d: LogNormalLatency) -> Scope {
        self.pay_concurrent(name, d, 1).await
    }

    /// `round_trips` requests sent at once: one scope, one latency drawn
    /// per request in order, and a sleep until the slowest completes. The
    /// store is uncapped, so concurrent requests do not queue.
    async fn pay_concurrent(
        &self,
        name: &'static str,
        d: LogNormalLatency,
        round_trips: usize,
    ) -> Scope {
        let scope = match &self.inner.borrow().probe {
            Some(p) => p.begin(Lane::Storage, self.ctx.now(), name, Some(Phase::StoreIo)),
            None => Scope::NONE,
        };
        let latency = self
            .ctx
            .with_rng(|rng| (0..round_trips).map(|_| d.sample(rng)).max())
            .unwrap_or_default();
        self.ctx.sleep(latency).await;
        scope
    }

    /// Makes room in the latest table for `additional` more objects, so a
    /// setup that populates them grows the table once, not through every
    /// rehash on the way.
    pub fn reserve(&self, additional: usize) {
        self.inner.borrow_mut().latest.reserve(additional);
    }

    /// Populates an object instantly (experiment setup; takes no simulated
    /// time and is not counted in op metrics).
    pub fn populate(&self, key: Key, value: Value) {
        let now = self.ctx.now();
        let mut inner = self.inner.borrow_mut();
        let key_bytes = key.size_bytes();
        let bytes = (key_bytes + value.size_bytes() + ITEM_META_BYTES) as f64;
        let old = inner.latest.insert(
            key,
            LatestItem {
                value,
                version: VersionTuple::MIN,
            },
        );
        if let Some(old) = old {
            inner.charge(
                now,
                -((key_bytes + old.value.size_bytes() + ITEM_META_BYTES) as f64),
            );
        }
        inner.charge(now, bytes);
    }

    /// Raw read of the latest value (`DBRead` in Figure 7).
    pub async fn get(&self, key: &Key) -> Option<Value> {
        let scope = self.pay("db_read", self.model.db_read).await;
        let out = {
            let mut inner = self.inner.borrow_mut();
            inner.counters.db_reads += 1;
            inner.latest.get(key).map(|item| item.value.clone())
        };
        scope.end(|| self.ctx.now());
        out
    }

    /// Raw read returning both the value and its stored version tuple
    /// (needed by the transitional protocol's freshness comparison, §5.2).
    pub async fn get_with_version(&self, key: &Key) -> Option<(Value, VersionTuple)> {
        let scope = self.pay("db_read", self.model.db_read).await;
        let out = {
            let mut inner = self.inner.borrow_mut();
            inner.counters.db_reads += 1;
            inner
                .latest
                .get(key)
                .map(|item| (item.value.clone(), item.version))
        };
        scope.end(|| self.ctx.now());
        out
    }

    /// Raw unconditional write of the latest value (the unsafe baseline).
    pub async fn put(&self, key: &Key, value: Value) {
        let scope = self.pay("db_write", self.model.db_write).await;
        {
            let now = self.ctx.now();
            let mut inner = self.inner.borrow_mut();
            inner.counters.db_writes += 1;
            Self::install_latest(&mut inner, now, key, value, VersionTuple::MIN);
        }
        scope.end(|| self.ctx.now());
    }

    /// Conditional update: applies `value` only if the stored version is
    /// strictly smaller than `version` (Figure 7 line 4). Returns whether
    /// the update was applied. Missing keys compare as [`VersionTuple::MIN`].
    pub async fn put_conditional(&self, key: &Key, value: Value, version: VersionTuple) -> bool {
        let scope = self.pay("db_cond_write", self.model.db_cond_write).await;
        let apply = {
            let now = self.ctx.now();
            let mut inner = self.inner.borrow_mut();
            inner.counters.db_cond_writes += 1;
            let stored = inner
                .latest
                .get(key)
                .map_or(VersionTuple::MIN, |item| item.version);
            // A fresh key stores MIN; a write carrying MIN (possible only for
            // synthetic callers) must still land, hence `<=` against MIN.
            let apply = stored < version
                || (stored == VersionTuple::MIN && !inner.latest.contains_key(key));
            if apply {
                Self::install_latest(&mut inner, now, key, value, version);
            }
            apply
        };
        if !apply {
            scope.instant(
                Lane::Storage,
                || self.ctx.now(),
                "cond_write_rejected",
                String::new,
            );
        }
        scope.end(|| self.ctx.now());
        apply
    }

    fn install_latest(
        inner: &mut StoreInner,
        now: Time,
        key: &Key,
        value: Value,
        version: VersionTuple,
    ) {
        let new_bytes = (key.size_bytes() + value.size_bytes() + ITEM_META_BYTES) as f64;
        let old_bytes = match inner.latest.get_mut(key) {
            Some(item) => {
                let old = (key.size_bytes() + item.value.size_bytes() + ITEM_META_BYTES) as f64;
                *item = LatestItem { value, version };
                Some(old)
            }
            None => {
                inner
                    .latest
                    .insert(key.clone(), LatestItem { value, version });
                None
            }
        };
        if let Some(old) = old_bytes {
            inner.charge(now, -old);
        }
        inner.charge(now, new_bytes);
    }

    /// Multi-version read: fetches one specific version (Figure 5 line 29).
    pub async fn get_version(&self, key: &Key, version: VersionNum) -> Option<Value> {
        let scope = self
            .pay("db_version_read", self.model.db_version_read)
            .await;
        let out = {
            let mut inner = self.inner.borrow_mut();
            inner.counters.db_reads += 1;
            inner.versions.get(&(key.clone(), version)).cloned()
        };
        scope.end(|| self.ctx.now());
        out
    }

    /// Multi-version write: installs a new version under its own composite
    /// key (Figure 5 line 21). Idempotent: re-writing the same version
    /// (a crash-retry) overwrites in place with identical content.
    pub async fn put_version(&self, key: &Key, version: VersionNum, value: Value) {
        let scope = self.pay("db_version_write", self.model.db_write).await;
        {
            let now = self.ctx.now();
            let mut inner = self.inner.borrow_mut();
            inner.counters.db_writes += 1;
            let new_bytes = (key.size_bytes() + 8 + value.size_bytes() + ITEM_META_BYTES) as f64;
            let old = inner.versions.insert((key.clone(), version), value);
            if let Some(old) = old {
                inner.charge(
                    now,
                    -((key.size_bytes() + 8 + old.size_bytes() + ITEM_META_BYTES) as f64),
                );
            }
            inner.charge(now, new_bytes);
        }
        scope.end(|| self.ctx.now());
    }

    /// Deletes one version (garbage collection, §4.5): a one-item
    /// [`KvStore::delete_versions`]. Returns whether the version existed.
    pub async fn delete_version(&self, key: &Key, version: VersionNum) -> bool {
        self.delete_versions(&[(key.clone(), version)]).await == 1
    }

    /// Deletes any number of versions as concurrent `BatchWriteItem` calls:
    /// the list splits into batches of [`BATCH_WRITE_ITEMS`], all sent at
    /// once. Each batch draws one `db_write` latency, at the call's start
    /// and in batch order; the call completes with the slowest batch, as
    /// one `db_delete` span, with one `db_deletes` and its storage per
    /// item. So 1 to 25 items cost exactly one round trip, and an empty
    /// list returns at once, drawing nothing and opening no span. Returns
    /// how many of the versions existed.
    pub async fn delete_versions(&self, items: &[(Key, VersionNum)]) -> usize {
        if items.is_empty() {
            return 0;
        }
        let batches = items.len().div_ceil(BATCH_WRITE_ITEMS);
        let scope = self
            .pay_concurrent("db_delete", self.model.db_write, batches)
            .await;
        let deleted = {
            let now = self.ctx.now();
            let mut inner = self.inner.borrow_mut();
            inner.counters.db_deletes += items.len() as u64;
            let mut deleted = 0;
            for item in items {
                if let Some(old) = inner.versions.remove(item) {
                    inner.charge(
                        now,
                        -((item.0.size_bytes() + 8 + old.size_bytes() + ITEM_META_BYTES) as f64),
                    );
                    deleted += 1;
                }
            }
            deleted
        };
        scope.end(|| self.ctx.now());
        deleted
    }

    // -- instant (zero-latency) inspection helpers for tests & checkers ----

    /// Reads the latest value without simulated latency or metric effects.
    #[must_use]
    pub fn peek(&self, key: &Key) -> Option<Value> {
        self.inner
            .borrow()
            .latest
            .get(key)
            .map(|item| item.value.clone())
    }

    /// Reads the latest stored version tuple without latency.
    #[must_use]
    pub fn peek_version_tuple(&self, key: &Key) -> Option<VersionTuple> {
        self.inner.borrow().latest.get(key).map(|item| item.version)
    }

    /// Reads one multi-version copy without latency.
    #[must_use]
    pub fn peek_version(&self, key: &Key, version: VersionNum) -> Option<Value> {
        self.inner
            .borrow()
            .versions
            .get(&(key.clone(), version))
            .cloned()
    }

    /// Number of stored multi-version copies (across all keys).
    #[must_use]
    pub fn version_count(&self) -> usize {
        self.inner.borrow().versions.len()
    }

    /// Current stored bytes (latest table + version table).
    #[must_use]
    pub fn current_bytes(&self) -> f64 {
        self.inner.borrow().bytes.level()
    }

    /// Time-averaged stored bytes since the last window reset.
    #[must_use]
    pub fn average_bytes(&self) -> f64 {
        self.inner.borrow().bytes.average(self.ctx.now())
    }

    /// Restarts the storage-averaging window at the current instant.
    pub fn reset_storage_window(&self) {
        let now = self.ctx.now();
        self.inner.borrow_mut().bytes.reset_window(now);
    }

    /// Snapshot of the op counters.
    #[must_use]
    pub fn counters(&self) -> OpCounters {
        self.inner.borrow().counters
    }
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        write!(
            f,
            "KvStore(latest={}, versions={}, bytes={:.0})",
            inner.latest.len(),
            inner.versions.len(),
            inner.bytes.level()
        )
    }
}

#[cfg(test)]
mod tests {
    use hm_substrate::sim::Sim;

    use super::*;

    fn setup() -> (Sim, KvStore) {
        let sim = Sim::new(7);
        let store = KvStore::new(sim.ctx(), LatencyModel::uniform_test_model());
        (sim, store)
    }

    #[test]
    fn get_put_roundtrip() {
        let (mut sim, store) = setup();
        let s = store.clone();
        sim.block_on(async move {
            let k = Key::new("a");
            assert_eq!(s.get(&k).await, None);
            s.put(&k, Value::Int(5)).await;
            assert_eq!(s.get(&k).await, Some(Value::Int(5)));
        });
        assert_eq!(store.counters().db_reads, 2);
        assert_eq!(store.counters().db_writes, 1);
    }

    #[test]
    fn operations_take_simulated_time() {
        let (mut sim, store) = setup();
        let s = store;
        sim.block_on(async move {
            s.put(&Key::new("a"), Value::Int(1)).await; // 1.5ms in test model
        });
        assert_eq!(sim.now(), std::time::Duration::from_micros(1500));
    }

    #[test]
    fn conditional_write_respects_version_order() {
        let (mut sim, store) = setup();
        let s = store;
        sim.block_on(async move {
            let k = Key::new("x");
            let v1 = VersionTuple::new(hm_common::SeqNum(5), 0);
            let v2 = VersionTuple::new(hm_common::SeqNum(3), 9);
            assert!(s.put_conditional(&k, Value::Int(1), v1).await);
            // Smaller version: rejected, value untouched.
            assert!(!s.put_conditional(&k, Value::Int(2), v2).await);
            assert_eq!(s.get(&k).await, Some(Value::Int(1)));
            // Equal version: rejected (strictly-smaller condition).
            assert!(!s.put_conditional(&k, Value::Int(3), v1).await);
            // Larger counter at same cursor: applied.
            let v3 = VersionTuple::new(hm_common::SeqNum(5), 1);
            assert!(s.put_conditional(&k, Value::Int(4), v3).await);
            assert_eq!(s.get(&k).await, Some(Value::Int(4)));
        });
    }

    #[test]
    fn conditional_write_lands_on_missing_key() {
        let (mut sim, store) = setup();
        let s = store;
        sim.block_on(async move {
            let k = Key::new("fresh");
            assert!(
                s.put_conditional(&k, Value::Int(1), VersionTuple::MIN)
                    .await
            );
            assert_eq!(s.get(&k).await, Some(Value::Int(1)));
        });
    }

    #[test]
    fn multi_version_reads_are_isolated() {
        let (mut sim, store) = setup();
        let s = store;
        sim.block_on(async move {
            let k = Key::new("obj");
            s.put_version(&k, VersionNum(1), Value::Int(10)).await;
            s.put_version(&k, VersionNum(2), Value::Int(20)).await;
            assert_eq!(s.get_version(&k, VersionNum(1)).await, Some(Value::Int(10)));
            assert_eq!(s.get_version(&k, VersionNum(2)).await, Some(Value::Int(20)));
            assert_eq!(s.get_version(&k, VersionNum(3)).await, None);
            // Versions do not leak into the latest table.
            assert_eq!(s.get(&k).await, None);
        });
    }

    #[test]
    fn version_rewrite_is_idempotent_for_storage() {
        let (mut sim, store) = setup();
        let s = store;
        sim.block_on(async move {
            let k = Key::new("obj");
            s.put_version(&k, VersionNum(1), Value::blob(100, 1)).await;
            let bytes_once = s.current_bytes();
            // Crash-retry rewrites the same version: no extra storage.
            s.put_version(&k, VersionNum(1), Value::blob(100, 1)).await;
            assert!((s.current_bytes() - bytes_once).abs() < 1e-9);
        });
    }

    #[test]
    fn delete_version_reclaims_storage() {
        let (mut sim, store) = setup();
        let s = store;
        sim.block_on(async move {
            let k = Key::new("obj");
            s.put_version(&k, VersionNum(1), Value::blob(100, 1)).await;
            assert!(s.current_bytes() > 0.0);
            assert!(s.delete_version(&k, VersionNum(1)).await);
            assert!(!s.delete_version(&k, VersionNum(1)).await);
            assert_eq!(s.current_bytes(), 0.0);
            assert_eq!(s.version_count(), 0);
        });
    }

    /// 20 stored versions over five keys; a batch names them and five
    /// versions never written.
    async fn stored_versions(s: &KvStore) -> Vec<(Key, VersionNum)> {
        versions_named(s, BATCH_WRITE_ITEMS as u64).await
    }

    /// `named` versions over five keys, of which the first four fifths
    /// are stored.
    async fn versions_named(s: &KvStore, named: u64) -> Vec<(Key, VersionNum)> {
        let keys: Vec<Key> = (0..5).map(|i| Key::new(format!("o{i}"))).collect();
        for i in 0..named * 4 / 5 {
            let value = Value::blob(10 + i as usize, 1);
            s.put_version(&keys[i as usize % 5], VersionNum(i), value)
                .await;
        }
        (0..named)
            .map(|i| (keys[i as usize % 5].clone(), VersionNum(i)))
            .collect()
    }

    #[test]
    fn a_batch_delete_is_one_round_trip_priced_per_item() {
        let (mut sim, store) = setup();
        let singles = KvStore::new(sim.ctx(), LatencyModel::uniform_test_model());
        let (s, one, ctx) = (store.clone(), singles.clone(), sim.ctx());
        sim.block_on(async move {
            let batch = stored_versions(&s).await;
            let same = stored_versions(&one).await;
            let (before, start) = (s.counters(), ctx.now());
            assert_eq!(
                s.delete_versions(&batch).await,
                20,
                "only stored versions count"
            );
            assert_eq!(ctx.now() - start, Time::from_micros(1500), "one db_write");
            assert_eq!(s.counters().db_deletes - before.db_deletes, 25);
            for (key, version) in &same {
                one.delete_version(key, *version).await;
            }
        });
        // The gauge falls by exactly what the single deletes free.
        assert_eq!(
            store.current_bytes().to_bits(),
            singles.current_bytes().to_bits()
        );
        assert_eq!(store.version_count(), 0);
        assert_eq!(store.counters(), singles.counters());
    }

    #[test]
    fn delete_version_is_a_one_item_batch() {
        let (mut sim, store) = setup();
        let batched = KvStore::new(sim.ctx(), LatencyModel::uniform_test_model());
        let (s, b, ctx) = (store.clone(), batched.clone(), sim.ctx());
        sim.block_on(async move {
            let items = stored_versions(&s).await;
            stored_versions(&b).await;
            for item in &items {
                let start = ctx.now();
                let single = s.delete_version(&item.0, item.1).await;
                let elapsed = ctx.now() - start;
                assert_eq!(
                    b.delete_versions(std::slice::from_ref(item)).await,
                    usize::from(single)
                );
                assert_eq!(ctx.now() - start - elapsed, elapsed);
            }
        });
        assert_eq!(
            store.current_bytes().to_bits(),
            batched.current_bytes().to_bits()
        );
        assert_eq!(store.counters(), batched.counters());
    }

    /// 76 items are four batch writes sent at once: four `db_write` draws
    /// in batch order, the call as long as the slowest, and the store left
    /// as 76 single deletes leave it. The twin runs the same setup on an
    /// identically seeded `Sim` and draws the four latencies itself.
    #[test]
    fn a_long_delete_list_fans_out_as_concurrent_batches() {
        let model = LatencyModel::calibrated();
        let mut sim = Sim::new(7);
        let store = KvStore::new(sim.ctx(), model);
        let singles = KvStore::new(sim.ctx(), model);
        let (s, one, ctx) = (store.clone(), singles.clone(), sim.ctx());
        let (elapsed, next) = sim.block_on(async move {
            let items = versions_named(&s, 76).await;
            let (before, start) = (s.counters(), ctx.now());
            assert_eq!(
                s.delete_versions(&items).await,
                60,
                "only stored versions count"
            );
            let elapsed = ctx.now() - start;
            assert_eq!(s.counters().db_deletes - before.db_deletes, 76);
            let next = ctx.with_rng(|rng| model.db_write.sample(rng));
            versions_named(&one, 76).await;
            for (key, version) in &items {
                one.delete_version(key, *version).await;
            }
            (elapsed, next)
        });
        assert_eq!(
            store.current_bytes().to_bits(),
            singles.current_bytes().to_bits()
        );
        assert_eq!(store.version_count(), 0);
        assert_eq!(store.counters(), singles.counters());

        let mut twin = Sim::new(7);
        let (t, tctx) = (KvStore::new(twin.ctx(), model), twin.ctx());
        let (draws, twin_next) = twin.block_on(async move {
            versions_named(&t, 76).await;
            let draws: Vec<Time> = (0..4)
                .map(|_| tctx.with_rng(|rng| model.db_write.sample(rng)))
                .collect();
            (draws, tctx.with_rng(|rng| model.db_write.sample(rng)))
        });
        assert_eq!(
            Some(elapsed),
            draws.iter().copied().max(),
            "the slowest of four draws"
        );
        assert!(
            draws.iter().any(|d| *d < elapsed),
            "four distinct draws, not one"
        );
        assert_eq!(next, twin_next, "exactly four draws were taken");
    }

    #[test]
    fn an_empty_delete_list_takes_no_time_and_draws_nothing() {
        let model = LatencyModel::calibrated();
        let mut sim = Sim::new(7);
        let store = KvStore::new(sim.ctx(), model);
        let (s, ctx) = (store.clone(), sim.ctx());
        let next = sim.block_on(async move {
            assert_eq!(s.delete_versions(&[]).await, 0);
            ctx.with_rng(|rng| model.db_write.sample(rng))
        });
        assert_eq!(sim.now(), Time::ZERO);
        assert_eq!(store.counters(), OpCounters::default());
        let twin = Sim::new(7);
        assert_eq!(next, twin.ctx().with_rng(|rng| model.db_write.sample(rng)));
    }

    #[test]
    fn time_weighted_storage_average() {
        let (mut sim, store) = setup();
        let ctx = sim.ctx();
        let s = store.clone();
        sim.block_on(async move {
            let k = Key::new("obj");
            // ~0 bytes for first 1.5ms (during the put), then 100+8+32+3 bytes.
            s.put_version(&k, VersionNum(1), Value::blob(100, 1)).await;
            ctx.sleep(std::time::Duration::from_micros(1500)).await;
        });
        let avg = store.average_bytes();
        let full = 100.0 + 8.0 + 32.0 + 3.0;
        assert!((avg - full / 2.0).abs() < 1.0, "avg {avg}");
    }

    #[test]
    fn populate_is_instant_and_replaces() {
        let (mut sim, store) = setup();
        store.populate(Key::new("a"), Value::blob(50, 1));
        store.populate(Key::new("a"), Value::blob(70, 2));
        assert_eq!(sim.now(), Time::ZERO);
        assert_eq!(store.peek(&Key::new("a")), Some(Value::blob(70, 2)));
        let expect = (1 + 70 + ITEM_META_BYTES) as f64;
        assert!((store.current_bytes() - expect).abs() < 1e-9);
        assert_eq!(store.counters(), OpCounters::default());
        sim.run();
    }

    #[test]
    fn peek_helpers_do_not_advance_time() {
        let (mut sim, store) = setup();
        let s = store.clone();
        sim.block_on(async move {
            s.put_conditional(
                &Key::new("k"),
                Value::Int(1),
                VersionTuple::new(hm_common::SeqNum(2), 0),
            )
            .await;
        });
        let before = sim.now();
        assert_eq!(store.peek(&Key::new("k")), Some(Value::Int(1)));
        assert_eq!(
            store.peek_version_tuple(&Key::new("k")),
            Some(VersionTuple::new(hm_common::SeqNum(2), 0))
        );
        assert_eq!(sim.now(), before);
    }
}
