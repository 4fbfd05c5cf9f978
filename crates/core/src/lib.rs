//! # Halfmoon: log-optimal fault-tolerant stateful serverless computing
//!
//! A from-scratch reproduction of the protocols of *"Halfmoon: Log-Optimal
//! Fault-Tolerant Stateful Serverless Computing"* (SOSP 2023).
//!
//! Stateful serverless functions (SSFs) keep their state in external
//! storage; naive retry-based fault tolerance can duplicate updates, so
//! runtimes enforce **exactly-once semantics** by logging state accesses
//! and replaying the log on re-execution. Existing systems log *every*
//! read and write (symmetric logging). Halfmoon's insight is that logging
//! either side suffices (asymmetric logging), and that this is optimal:
//!
//! - [`ProtocolKind::HalfmoonRead`] — log-free reads: reads are
//!   parameterized by the cursor timestamp and resolved against the
//!   per-object write log over a multi-versioned store (§4.1);
//! - [`ProtocolKind::HalfmoonWrite`] — log-free writes: writes are
//!   conditional updates versioned by `(cursorTS, consecutiveW)`; reads log
//!   the value they observed (§4.2);
//! - plus the reconstructed symmetric baseline (`Boki`) and the unsafe
//!   no-logging lower bound, for evaluation.
//!
//! The crate also implements the §4.5 garbage collector, the §4.6 protocol
//! advisor, the §4.7/§5.2 pauseless switching mechanism, the §5.1
//! conditional-append conflict resolution, and the exactly-once auditor
//! ([`audit`]) that checks recorded histories against the §4.4
//! consistency propositions.
//!
//! # Quick start
//!
//! ```
//! use halfmoon::{Client, Env, InvocationSpec, ProtocolKind};
//! use hm_common::latency::LatencyModel;
//! use hm_common::{Key, NodeId, Value};
//! use hm_substrate::sim::Sim;
//!
//! let mut sim = Sim::new(42);
//! let client = Client::builder(sim.ctx())
//!     .protocol(ProtocolKind::HalfmoonRead)
//!     .build();
//! client.populate(Key::new("greeting"), Value::str("hello"));
//! let id = client.fresh_instance_id();
//! let out = sim.block_on({
//!     let client = client.clone();
//!     async move {
//!         let spec = InvocationSpec::new(id, NodeId(0));
//!         Env::run(&client, spec, async |env: &mut Env, _input| {
//!             let v = env.read(&Key::new("greeting")).await?;
//!             env.write(&Key::new("greeting"), Value::str("hello, world")).await?;
//!             Ok(v)
//!         })
//!         .await
//!     }
//! });
//! assert_eq!(out.unwrap(), Value::str("hello"));
//! ```

#![deny(missing_docs)]

pub mod choice;
pub mod client;
pub mod env;
pub mod faults;
pub mod gc;
pub mod history;
pub mod protocol;
pub mod record;
pub mod switching;

mod ops_baseline;
mod ops_halfmoon;
mod ops_transitional;

pub use client::{
    finish_log_tag, init_log_tag, transition_log_tag, Client, ClientBuilder, InstanceHold, Invoker,
    LocalBoxFuture, RecoveryStats,
};
pub use env::{Env, InvocationSpec, ObjectMode};
pub use faults::{CrashFootprints, FaultEvent, FaultPlan, FaultPolicy, ScheduledFault, Site};
pub use gc::{GarbageCollector, GcStats};
pub use history::{audit, AuditReport, Event, EventKind, Recorder};
pub use hm_sharedlog::{FlushStats, ReplayStats, ShardId, Topology};
pub use protocol::{MatrixOp, ProtocolConfig, ProtocolKind};
pub use record::{OpRecord, StepRecord};
pub use switching::{SwitchReport, Switcher};
