//! Synthetic SSFs for the microbenchmarks and overhead experiments.
//!
//! - [`MicroRw`]: one read and one write per request over 10 K objects of
//!   8 B keys and 256 B values — the §6.1 setup behind Table 1 and
//!   Figure 10.
//! - [`SyntheticOps`]: ten operations per request, each targeting a random
//!   object and choosing read vs. write by the configured read ratio — the
//!   §6.3/§6.4 setup behind Figures 12, 13, and 14.
//!
//! The gateway factory pre-samples the whole operation list into the
//! request input so function bodies stay deterministic.

use std::cell::RefCell;
use std::rc::Rc;

use halfmoon::Client;
use hm_common::{Key, Value};
use hm_runtime::{RequestFactory, Runtime};
use rand::RngExt;

use crate::Workload;

/// Object `i`'s key: `o` and `i` zero-padded to seven digits (8-byte
/// keys, mirroring the paper's setup), the name `format!("o{i:07}")`
/// gives. Written backwards into a stack buffer and copied once, into the
/// key's shared buffer.
fn obj_key(i: i64) -> Key {
    // `"o"`, a sign and the 19 digits of `i64::MIN`.
    let mut buf = [b'0'; 21];
    let mut at = buf.len();
    let mut rest = i.unsigned_abs();
    while rest > 0 {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    // Zero padding counts the sign: `format!` pads -5 to `-000005`.
    let width = if i < 0 { 6 } else { 7 };
    at = at.min(buf.len() - width);
    if i < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    at -= 1;
    buf[at] = b'o';
    Key::new(std::str::from_utf8(&buf[at..]).expect("ASCII digits"))
}

thread_local! {
    /// Object `i`'s key at index `i`, below the largest object space used
    /// on this thread. `populate` and every handler take their keys from
    /// here, so the store's tables hold the very buffer a lookup brings
    /// and key equality is a pointer test. Per thread because a `Key` is
    /// an `Rc`; shared across deployments because a name never changes.
    static OBJECT_KEYS: RefCell<Vec<Key>> = const { RefCell::new(Vec::new()) };
}

/// Object `at`'s key from `keys`, made with every lower index's on first
/// use.
fn shared_key(keys: &mut Vec<Key>, at: usize) -> Key {
    while keys.len() <= at {
        keys.push(obj_key(keys.len() as i64));
    }
    keys[at].clone()
}

/// Object `i`'s key in a space of `objects`: the shared one inside the
/// space, a freshly formatted one outside it.
fn object_key(i: i64, objects: u32) -> Key {
    match u32::try_from(i) {
        Ok(at) if at < objects => OBJECT_KEYS.with_borrow_mut(|keys| shared_key(keys, at as usize)),
        _ => obj_key(i),
    }
}

/// Populates objects `0..objects` with `value_bytes`-byte values, object
/// `i`'s value fingerprinted by `i`.
fn populate_objects(client: &Client, objects: u32, value_bytes: usize) {
    let objects = objects as usize;
    client.store().reserve(objects);
    OBJECT_KEYS.with_borrow_mut(|keys| {
        keys.reserve(objects.saturating_sub(keys.len()));
        for at in 0..objects {
            client.populate(shared_key(keys, at), Value::blob(value_bytes, at as u64));
        }
    });
}

/// The 1-read-1-write microbenchmark SSF (§6.1).
#[derive(Clone, Copy, Debug)]
pub struct MicroRw {
    /// Number of populated objects (the paper uses 10 K).
    pub objects: u32,
    /// Object value size in bytes (the paper uses 256 B).
    pub value_bytes: usize,
}

impl Default for MicroRw {
    fn default() -> MicroRw {
        MicroRw {
            objects: 10_000,
            value_bytes: 256,
        }
    }
}

impl Workload for MicroRw {
    fn name(&self) -> &'static str {
        "micro-rw"
    }

    fn register(&self, runtime: &Runtime) {
        let (objects, value_bytes) = (self.objects, self.value_bytes);
        runtime.register("micro.rw", async move |env, input| {
            let r = input.get("read_obj").and_then(Value::as_int).unwrap_or(0);
            let w = input.get("write_obj").and_then(Value::as_int).unwrap_or(0);
            let fp = input.get("fp").and_then(Value::as_int).unwrap_or(0);
            let _ = env.read(&object_key(r, objects)).await?;
            env.write(&object_key(w, objects), Value::blob(value_bytes, fp as u64))
                .await?;
            Ok(Value::Null)
        });
    }

    fn populate(&self, client: &Client) {
        populate_objects(client, self.objects, self.value_bytes);
    }

    fn factory(&self) -> RequestFactory {
        let objects = i64::from(self.objects);
        Rc::new(move |rng, _seq| {
            (
                "micro.rw".to_string(),
                Value::map([
                    ("read_obj", Value::Int(rng.random_range(0..objects))),
                    ("write_obj", Value::Int(rng.random_range(0..objects))),
                    ("fp", Value::Int(rng.random::<i64>())),
                ]),
            )
        })
    }
}

/// The 10-operation variable-read-ratio SSF (§6.3, §6.4).
#[derive(Clone, Copy, Debug)]
pub struct SyntheticOps {
    /// Number of populated objects.
    pub objects: u32,
    /// Object value size in bytes (256 B or 1 KB in Figure 12).
    pub value_bytes: usize,
    /// Operations per request (the paper uses 10).
    pub ops_per_request: u32,
    /// Fraction of operations that are reads.
    pub read_ratio: f64,
}

impl Default for SyntheticOps {
    fn default() -> SyntheticOps {
        SyntheticOps {
            objects: 10_000,
            value_bytes: 256,
            ops_per_request: 10,
            read_ratio: 0.5,
        }
    }
}

impl Workload for SyntheticOps {
    fn name(&self) -> &'static str {
        "synthetic-ops"
    }

    fn register(&self, runtime: &Runtime) {
        let (objects, value_bytes) = (self.objects, self.value_bytes);
        runtime.register("synthetic.ops", async move |env, input| {
            let ops = input.get("ops").and_then(Value::as_list).unwrap_or(&[]);
            let mut acc = 0i64;
            for op in ops {
                let obj = op.get("obj").and_then(Value::as_int).unwrap_or(0);
                let is_read = op
                    .get("read")
                    .and_then(|v| v.as_int().map(|i| i != 0))
                    .unwrap_or(true);
                if is_read {
                    let v = env.read(&object_key(obj, objects)).await?;
                    acc = acc.wrapping_add(v.size_bytes() as i64);
                } else {
                    let fp = op.get("fp").and_then(Value::as_int).unwrap_or(0);
                    env.write(
                        &object_key(obj, objects),
                        Value::blob(value_bytes, fp as u64),
                    )
                    .await?;
                }
            }
            Ok(Value::Int(acc))
        });
    }

    fn populate(&self, client: &Client) {
        populate_objects(client, self.objects, self.value_bytes);
    }

    fn factory(&self) -> RequestFactory {
        let objects = i64::from(self.objects);
        let ops = self.ops_per_request;
        let read_ratio = self.read_ratio;
        Rc::new(move |rng, _seq| {
            // One table: the op maps share one block of entries.
            let ops = Value::table(
                ["read", "obj", "fp"],
                (0..ops).map(|_| {
                    let is_read = rng.random::<f64>() < read_ratio;
                    [
                        Value::Int(i64::from(is_read)),
                        Value::Int(rng.random_range(0..objects)),
                        Value::Int(rng.random::<i64>()),
                    ]
                }),
            );
            ("synthetic.ops".to_string(), Value::map([("ops", ops)]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obj_key_is_the_zero_padded_name() {
        for i in [
            0,
            7,
            42,
            1_234_567,
            9_999_999,
            10_000_000,
            -1,
            -5,
            -999_999,
            -1_000_000,
            -10_000_000,
            i64::MIN,
            i64::MAX,
        ] {
            assert_eq!(obj_key(i).as_str(), format!("o{i:07}"));
        }
    }

    #[test]
    fn object_keys_are_shared_inside_the_object_space_only() {
        // A thread of its own starts with an empty table.
        std::thread::spawn(|| {
            let len = || OBJECT_KEYS.with_borrow(Vec::len);
            let sim = hm_substrate::sim::Sim::new(1);
            let client = Client::builder(sim.ctx()).build();
            SyntheticOps {
                objects: 3,
                ..SyntheticOps::default()
            }
            .populate(&client);
            assert_eq!(len(), 3, "populate made the space's keys");
            let populated = OBJECT_KEYS.with_borrow(Vec::clone);
            for (i, key) in populated.iter().enumerate() {
                let handler = object_key(i as i64, 3);
                assert!(
                    std::ptr::eq(key.as_str(), handler.as_str()),
                    "populate's key and a handler's key for object {i} are one buffer"
                );
                assert_eq!(client.store().peek(key), Some(Value::blob(256, i as u64)));
            }
            for i in [0, 2, 3, 1_000_000, -1, i64::MIN] {
                assert_eq!(object_key(i, 3), obj_key(i));
            }
            let fresh = |i| !std::ptr::eq(object_key(i, 3).as_str(), object_key(i, 3).as_str());
            assert!(fresh(3) && fresh(-1), "other indices are formatted afresh");
            assert_eq!(len(), 3, "the table never outgrows the object space");
            object_key(4, 10);
            assert_eq!(len(), 5, "a larger space grows it to the index used");
            object_key(4, 3);
            SyntheticOps {
                objects: 2,
                ..SyntheticOps::default()
            }
            .populate(&client);
            assert_eq!(len(), 5, "a smaller space neither shrinks nor grows it");
        })
        .join()
        .expect("the test thread passes");
    }
}
