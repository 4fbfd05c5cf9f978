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
use std::fmt::{self, Write};
use std::rc::Rc;

use halfmoon::Client;
use hm_common::{Key, Value};
use hm_runtime::{RequestFactory, Runtime};
use rand::RngExt;

use crate::Workload;

/// `"o"` and a formatted `i64` are at most 21 bytes.
#[derive(Default)]
struct NameBuf {
    bytes: [u8; 24],
    len: usize,
}

impl fmt::Write for NameBuf {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        self.bytes
            .get_mut(self.len..end)
            .ok_or(fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

fn obj_key(i: i64) -> Key {
    // 8-byte keys, mirroring the paper's setup. The name is formatted on
    // the stack and copied once, into the key's shared buffer.
    let mut name = NameBuf::default();
    write!(name, "o{i:07}").expect("the name fits");
    Key::new(std::str::from_utf8(&name.bytes[..name.len]).expect("whole strs were written"))
}

/// The keys of a populated object space, each made on first use and
/// shared from then on: a handler's per-operation key is a refcount bump,
/// not a format and an allocation. One table per registered handler,
/// grown as indices are first seen so that registering costs nothing.
struct KeyTable {
    objects: usize,
    keys: RefCell<Vec<Option<Key>>>,
}

impl KeyTable {
    fn new(objects: u32) -> Rc<KeyTable> {
        Rc::new(KeyTable {
            objects: objects as usize,
            keys: RefCell::default(),
        })
    }

    /// [`obj_key`], memoised for indices inside the populated space.
    fn key(&self, i: i64) -> Key {
        let Some(at) = usize::try_from(i).ok().filter(|&at| at < self.objects) else {
            return obj_key(i);
        };
        let mut keys = self.keys.borrow_mut();
        if keys.len() <= at {
            keys.resize(at + 1, None);
        }
        keys[at].get_or_insert_with(|| obj_key(i)).clone()
    }
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
        let value_bytes = self.value_bytes;
        let keys = KeyTable::new(self.objects);
        runtime.register("micro.rw", move |env, input| {
            let keys = keys.clone();
            Box::pin(async move {
                let r = input.get("read_obj").and_then(Value::as_int).unwrap_or(0);
                let w = input.get("write_obj").and_then(Value::as_int).unwrap_or(0);
                let fp = input.get("fp").and_then(Value::as_int).unwrap_or(0);
                let _ = env.read(&keys.key(r)).await?;
                env.write(&keys.key(w), Value::blob(value_bytes, fp as u64))
                    .await?;
                Ok(Value::Null)
            })
        });
    }

    fn populate(&self, client: &Client) {
        for i in 0..self.objects {
            client.populate(
                obj_key(i64::from(i)),
                Value::blob(self.value_bytes, u64::from(i)),
            );
        }
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
        let value_bytes = self.value_bytes;
        let keys = KeyTable::new(self.objects);
        runtime.register("synthetic.ops", move |env, input| {
            let keys = keys.clone();
            Box::pin(async move {
                let ops = input.get("ops").and_then(Value::as_list).unwrap_or(&[]);
                let mut acc = 0i64;
                for op in ops {
                    let obj = op.get("obj").and_then(Value::as_int).unwrap_or(0);
                    let is_read = op
                        .get("read")
                        .and_then(|v| v.as_int().map(|i| i != 0))
                        .unwrap_or(true);
                    if is_read {
                        let v = env.read(&keys.key(obj)).await?;
                        acc = acc.wrapping_add(v.size_bytes() as i64);
                    } else {
                        let fp = op.get("fp").and_then(Value::as_int).unwrap_or(0);
                        env.write(&keys.key(obj), Value::blob(value_bytes, fp as u64))
                            .await?;
                    }
                }
                Ok(Value::Int(acc))
            })
        });
    }

    fn populate(&self, client: &Client) {
        for i in 0..self.objects {
            client.populate(
                obj_key(i64::from(i)),
                Value::blob(self.value_bytes, u64::from(i)),
            );
        }
    }

    fn factory(&self) -> RequestFactory {
        let objects = i64::from(self.objects);
        let ops = self.ops_per_request;
        let read_ratio = self.read_ratio;
        Rc::new(move |rng, _seq| {
            let ops: Vec<Value> = (0..ops)
                .map(|_| {
                    let is_read = rng.random::<f64>() < read_ratio;
                    Value::map([
                        ("obj", Value::Int(rng.random_range(0..objects))),
                        ("read", Value::Int(i64::from(is_read))),
                        ("fp", Value::Int(rng.random::<i64>())),
                    ])
                })
                .collect();
            (
                "synthetic.ops".to_string(),
                Value::map([("ops", Value::list(ops))]),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obj_key_is_the_zero_padded_name() {
        for i in [0, 42, 9_999_999, 10_000_000, -5, i64::MIN, i64::MAX] {
            assert_eq!(obj_key(i).as_str(), format!("o{i:07}"));
        }
    }

    #[test]
    fn key_table_memoises_inside_the_object_space_only() {
        let keys = KeyTable::new(3);
        for i in [0, 2, 3, 1_000_000, -1, i64::MIN] {
            assert_eq!(keys.key(i), obj_key(i));
        }
        let shares = |i| std::ptr::eq(keys.key(i).as_str(), keys.key(i).as_str());
        assert!(shares(0) && shares(2), "a populated object's key is made once");
        assert!(!shares(3) && !shares(-1), "other indices are formatted afresh");
        assert_eq!(keys.keys.borrow().len(), 3, "the table never outgrows the object space");
    }
}
