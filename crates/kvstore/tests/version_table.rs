//! The multi-version table against a model: a seeded run of a few thousand
//! versioned operations, each checked against a `BTreeMap` keyed by the
//! key's string and the version number. Keys come as clones of one `Key`
//! per name and as separately built keys of equal content, so a table that
//! told the two apart, or a hash that did, fails here.

use std::collections::BTreeMap;

use hm_common::latency::LatencyModel;
use hm_common::{Key, Value, VersionNum};
use hm_kvstore::{KvStore, ITEM_META_BYTES};
use hm_substrate::sim::Sim;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

const NAMES: [&str; 4] = ["o0000001", "o0000002", "hotel:7", ""];

fn charge(name: &str, value: &Value) -> f64 {
    (name.len() + 8 + value.size_bytes() + ITEM_META_BYTES) as f64
}

#[test]
fn version_table_matches_a_string_keyed_model() {
    let mut sim = Sim::new(5);
    let s = KvStore::new(sim.ctx(), LatencyModel::uniform_test_model());
    let (rewrites, absent_deletes, shared_versions) = sim.block_on(async move {
        let mut rng = SmallRng::seed_from_u64(0x7665_7273);
        let shared: Vec<Key> = NAMES.iter().map(|&n| Key::new(n)).collect();
        let mut model: BTreeMap<(String, u64), Value> = BTreeMap::new();
        let (mut rewrites, mut absent_deletes, mut shared_versions) = (0, 0, 0);
        for step in 0..4000 {
            let at = rng.random_range(0..NAMES.len());
            let name = NAMES[at];
            // Half the time the stored key's own buffer, half the time an
            // equal key in a buffer of its own.
            let key = if rng.random::<bool>() {
                shared[at].clone()
            } else {
                Key::new(name.to_string())
            };
            // Few versions, so keys share version numbers and versions
            // are rewritten and deleted twice.
            let version = rng.random_range(0..6u64);
            let slot = (name.to_string(), version);
            match rng.random_range(0..4) {
                0 | 1 => {
                    let value = Value::blob(rng.random_range(0..300), rng.random());
                    s.put_version(&key, VersionNum(version), value.clone())
                        .await;
                    rewrites += usize::from(model.insert(slot.clone(), value).is_some());
                    shared_versions +=
                        usize::from(model.keys().any(|(n, v)| *v == version && n != name));
                }
                2 => {
                    let existed = model.remove(&slot).is_some();
                    absent_deletes += usize::from(!existed);
                    assert_eq!(
                        s.delete_version(&key, VersionNum(version)).await,
                        existed,
                        "step {step}: delete {slot:?}"
                    );
                }
                _ => assert_eq!(
                    s.get_version(&key, VersionNum(version)).await,
                    model.get(&slot).cloned(),
                    "step {step}: get {slot:?}"
                ),
            }
            for (at, name) in NAMES.iter().enumerate() {
                for v in 0..6u64 {
                    let want = model.get(&(name.to_string(), v));
                    assert_eq!(s.peek_version(&shared[at], VersionNum(v)).as_ref(), want);
                    assert_eq!(
                        s.peek_version(&Key::new(*name), VersionNum(v)).as_ref(),
                        want
                    );
                }
            }
            assert_eq!(s.version_count(), model.len(), "step {step}");
            let bytes: f64 = model.iter().map(|((n, _), v)| charge(n, v)).sum();
            assert_eq!(s.current_bytes(), bytes, "step {step}");
        }
        (rewrites, absent_deletes, shared_versions)
    });
    assert!(rewrites > 100, "{rewrites} rewrites of an existing version");
    assert!(
        absent_deletes > 100,
        "{absent_deletes} deletes of absent versions"
    );
    assert!(
        shared_versions > 100,
        "{shared_versions} writes of a version another key holds"
    );
}
