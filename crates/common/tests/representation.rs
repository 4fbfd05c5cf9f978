//! `Key` and `Value::Map` are shared representations (an `Rc<str>`, a
//! window onto a sorted block of entries). Everything observable about
//! them — hashes, order, fingerprints, accounting, `Debug` — is pinned here
//! to constants computed with an owning `String` key and a `BTreeMap` of
//! `String` keys, so golden fingerprints and `FxHashMap` iteration orders
//! cannot drift. A `Value::table`, whose maps share one block, is held
//! equal in all of these to the list of `Value::map`s of its rows.

use std::hash::BuildHasher;
use std::rc::Rc;

use hm_common::collections::FxBuildHasher;
use hm_common::{Key, SharedBytes, Value};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

fn nested() -> Value {
    let op = |obj, read, fp| {
        Value::map([
            ("obj", Value::Int(obj)),
            ("read", Value::Int(read)),
            ("fp", Value::Int(fp)),
        ])
    };
    Value::map([
        ("ops", Value::list(vec![op(7, 1, -3), op(9, 0, i64::MAX)])),
        ("user", Value::str("alice")),
        ("blob", Value::blob(256, 0xfeed)),
        ("bytes", Value::bytes(SharedBytes::copy_from(&[1, 2, 3]))),
        ("flag", Value::Bool(true)),
        ("ratio", Value::Float(0.5)),
        ("none", Value::Null),
        ("empty", Value::map([])),
    ])
}

#[test]
fn nested_value_is_pinned() {
    let v = nested();
    assert_eq!(v.fingerprint(), 0x0590_8289_80b3_7ae7);
    assert_eq!(v.size_bytes(), 384);
    assert_eq!(
        format!("{v:?}"),
        "{\"blob\": blob[256B;feed], \"bytes\": bytes[3B;d0aa6218672cf5ab], \"empty\": {}, \
         \"flag\": true, \"none\": null, \"ops\": [{\"fp\": -3, \"obj\": 7, \"read\": 1}, \
         {\"fp\": 9223372036854775807, \"obj\": 9, \"read\": 0}], \"ratio\": 0.5, \
         \"user\": \"alice\"}"
    );
    assert_eq!(v, nested());
    assert_ne!(v, Value::map([("user", Value::str("alice"))]));
    assert_eq!(v.get("user").and_then(Value::as_str), Some("alice"));
    assert_eq!(
        v.get("ops").and_then(Value::as_list).map(<[Value]>::len),
        Some(2)
    );
    assert!(v.get("use").is_none());
}

#[test]
fn map_sorts_its_entries() {
    let v = Value::map([
        ("zeta", Value::Int(1)),
        ("alpha", Value::Int(2)),
        ("mid", Value::Int(3)),
    ]);
    assert_eq!(v.fingerprint(), 0x6a9e_55ed_9537_a6d2);
    assert_eq!(v.size_bytes(), 38);
    assert_eq!(format!("{v:?}"), r#"{"alpha": 2, "mid": 3, "zeta": 1}"#);
    let keys: Vec<&str> = v.as_map().unwrap().iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, ["alpha", "mid", "zeta"]);
}

#[test]
fn map_keeps_the_last_of_duplicate_keys() {
    let v = Value::map([
        ("k", Value::Int(1)),
        ("a", Value::Int(5)),
        ("k", Value::Int(2)),
        ("k", Value::Int(3)),
    ]);
    assert_eq!(v.fingerprint(), 0x0cf2_7594_6d13_a328);
    assert_eq!(v.size_bytes(), 20);
    assert_eq!(format!("{v:?}"), r#"{"a": 5, "k": 3}"#);
    assert_eq!(v, Value::map([("a", Value::Int(5)), ("k", Value::Int(3))]));
    assert_eq!(v.get("k").and_then(Value::as_int), Some(3));
}

#[test]
fn map_is_insertion_order_independent() {
    const NAMES: [&str; 6] = ["obj", "read", "fp", "user", "stars", "a"];
    let mut rng = SmallRng::seed_from_u64(0x6d61_7073);
    for _ in 0..200 {
        let vals: [i64; 6] = std::array::from_fn(|_| rng.random());
        let entries = |order: [usize; 6]| order.map(|i| (NAMES[i], Value::Int(vals[i])));
        let mut order = [0, 1, 2, 3, 4, 5];
        let reference = Value::map(entries(order));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let shuffled = Value::map(entries(order));
        assert_eq!(shuffled, reference, "{order:?}");
        assert_eq!(shuffled.fingerprint(), reference.fingerprint());
        assert_eq!(format!("{shuffled:?}"), format!("{reference:?}"));
        assert_eq!(shuffled.size_bytes(), reference.size_bytes());
    }
}

#[test]
fn key_observables_are_pinned() {
    let fx = |k: &Key| FxBuildHasher::default().hash_one(k);
    let pins = [
        ("o0000042", 0x3547_7afa_1778_9cbb_u64),
        ("hotel:1", 0xaf7a_3419_b408_c3ba),
        ("", 0),
        ("movie:12:rating-long-key-name", 0xe169_7619_a7df_971a),
    ];
    for (name, hash) in pins {
        let key = Key::new(name);
        assert_eq!(fx(&key), hash, "{name:?}");
        // Equal content in a distinct buffer: equal, and the same hash.
        let twin = Key::new(name.to_string());
        assert!(!std::ptr::eq(twin.as_str(), key.as_str()));
        assert_eq!(twin, key);
        assert_eq!(fx(&twin), hash);
        assert_eq!(key.clone(), key);
        assert_eq!(format!("{key:?}"), format!("key:{name}"));
        assert_eq!(key.to_string(), name);
        assert_eq!(key.as_str(), name);
        assert_eq!(key.size_bytes(), name.len());
    }
    // Byte-wise string order, not length-first or hash order.
    let mut keys: Vec<Key> = ["o10", "o9", "", "o1", "O1", "o"].map(Key::new).into();
    keys.sort();
    let sorted: Vec<&str> = keys.iter().map(Key::as_str).collect();
    assert_eq!(sorted, ["", "O1", "o", "o1", "o10", "o9"]);
}

#[test]
fn clones_share_one_buffer() {
    let key = Key::new(format!("o{:07}", 42));
    let copy = key.clone();
    assert!(std::ptr::eq(key.as_str(), copy.as_str()));
    assert!(!std::ptr::eq(key.as_str(), Key::new("o0000042").as_str()));
    assert_eq!(key, Key::new("o0000042"));

    let map = nested();
    let (Value::Map(a), Value::Map(b)) = (&map, &map.clone()) else {
        panic!("expected maps");
    };
    assert!(a.ptr_eq(b));
}

/// Every observable of `a` and `b` agrees, asked of either side.
fn assert_same(a: &Value, b: &Value) {
    assert_eq!(a, b);
    assert_eq!(b, a);
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.size_bytes(), b.size_bytes());
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// The list of `Value::map`s a table of `rows` under `keys` stands for.
fn maps<const K: usize>(keys: [&'static str; K], rows: &[[Value; K]]) -> Value {
    Value::list(
        rows.iter()
            .map(|row| Value::map::<K>(std::array::from_fn(|i| (keys[i], row[i].clone()))))
            .collect(),
    )
}

#[test]
fn table_is_the_list_of_its_rows_maps() {
    let keys = ["read", "obj", "fp"];
    let row = |read, obj, fp| [Value::Int(read), Value::Int(obj), Value::Int(fp)];
    let rows = [row(1, 7, -3), row(0, 9, i64::MAX), row(1, 0, 0)];
    for n in 0..=rows.len() {
        let table = Value::table(keys, rows[..n].to_vec());
        assert_same(&table, &maps(keys, &rows[..n]));
        assert_eq!(table.as_list().map(<[Value]>::len), Some(n));
    }
    // The pinned `nested()` ops, built as a table.
    let ops = Value::table(keys, [row(1, 7, -3), row(0, 9, i64::MAX)]);
    let v = nested();
    assert_same(&ops, v.get("ops").unwrap());
    // Keys in another order, and a duplicate key: the last one wins.
    let swapped = Value::table(
        ["fp", "read", "obj"],
        rows.clone().map(|[r, o, f]| [f, r, o]),
    );
    assert_same(&swapped, &maps(keys, &rows));
    let dup = Value::table(["k", "a", "k"], [[1, 2, 3].map(Value::Int)]);
    let kept = Value::map([("a", Value::Int(2)), ("k", Value::Int(3))]);
    assert_same(&dup, &Value::list(vec![kept]));
    assert_eq!(format!("{dup:?}"), r#"[{"a": 2, "k": 3}]"#);
    // No columns: one empty map per row, and every row is drawn.
    let mut drawn = 0;
    let empty = Value::table([], (0..2).map(|_| drawn += 1).map(|()| []));
    assert_eq!(drawn, 2);
    assert_same(&empty, &Value::list(vec![Value::map([]), Value::map([])]));
}

#[test]
fn table_maps_share_one_block() {
    let table = Value::table(
        ["a", "b"],
        (0..4_i32).map(|i| [Value::Int(i.into()), Value::Null]),
    );
    let copy = table.clone();
    let (Value::List(items), Value::List(copied)) = (&table, &copy) else {
        panic!("expected lists");
    };
    assert!(Rc::ptr_eq(items, copied), "a clone shares the list block");
    let entries: Vec<_> = items
        .iter()
        .map(|v| match v {
            Value::Map(entries) => entries.clone(),
            other => panic!("expected a map, got {other:?}"),
        })
        .collect();
    assert!(entries.iter().all(|e| e.ptr_eq(&entries[0])));
    assert_eq!(entries[2].len(), 2);
    assert_eq!(items[2].get("a"), Some(&Value::Int(2)));
    let Value::Map(own) = Value::map([("a", Value::Int(0))]) else {
        panic!("expected a map");
    };
    assert!(!entries[0].ptr_eq(&own), "a map's own block");
}

#[test]
fn value_stays_forty_bytes() {
    // Every log record carries values; the map window must not widen them.
    assert_eq!(std::mem::size_of::<Value>(), 40);
}
