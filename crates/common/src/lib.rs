//! Shared vocabulary for the Halfmoon reproduction.
//!
//! This crate holds the types every other crate speaks: identifier newtypes
//! ([`SeqNum`], [`Tag`], [`InstanceId`]), the dynamic [`Value`] payload type
//! exchanged between serverless functions, error types, calibrated latency
//! models ([`latency::LatencyModel`]), workload samplers ([`dist`]), and the
//! metrics primitives used by the benchmark harness ([`metrics`]).
//!
//! Nothing in this crate knows about the simulator, the shared log, or the
//! protocols; it is the dependency root of the workspace.

pub mod anatomy;
pub mod bytes;
pub mod collections;
pub mod dist;
pub mod error;
pub mod flightrec;
pub mod ids;
pub mod latency;
pub mod metrics;
pub mod observe;
pub mod trace;
pub mod value;

pub use bytes::SharedBytes;
pub use collections::{FxHashMap, FxHashSet, TagSet};
pub use error::{HmError, HmResult};
pub use ids::{InstanceId, Key, NodeId, SeqNum, StepNum, Tag, VersionNum, VersionTuple};
pub use value::{Entries, Value};
